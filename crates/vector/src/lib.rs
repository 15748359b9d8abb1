//! `vx-vector` — the data-vector layer (DESIGN.md row 4).
//!
//! A *data vector* holds, in document order, every text value of one
//! root-to-text tag path. On disk a vector is a `.vec` file:
//!
//! ```text
//! "VXVC"  u8 version
//! -- version 1 (plain):
//!     record*            record := varint byte_len, raw bytes
//!     skip*              skip   := varint data-relative byte offset of
//!                                  record k·256, k = 0 .. ⌈count/256⌉-1
//! -- version 2 (dictionary-compacted, ≤ 128 distinct values):
//!     varint dict_len
//!     dict_len × ( varint byte_len, raw bytes )   -- first-occurrence order
//!     count × u8 code                             -- fixed width, no skip
//! -- version 3 (plain + persistent value index):
//!     record*            -- as version 1
//!     varint count       -- value index: record positions sorted by
//!     count × u32le pos  --   (value bytes asc, position asc)
//!     skip*              -- as version 1
//! -- all:
//!     u64le data_end     -- file offset where the record/code stream ends
//!     u64le skip_start   -- == data_end for v1/v2; v3's value index
//!                        --   occupies [data_end, skip_start)
//!     u64le record_count
//!     "VXVE"
//! ```
//!
//! Offsets in the skip index are relative to the start of the data section
//! (file offset 5); the trailer's `u64` fields are absolute file offsets.
//! The layout was reconstructed from the surviving `bench_results/stores/`
//! artifacts; [`Vector::open_salvage`] reads files damaged by the seed
//! capture's byte-dropping sanitizer, driven by the catalog's record count.

mod format;
#[cfg(test)]
mod reference;
mod spill;

pub use format::{Vector, VectorStats, INDEX_MIN_COUNT, SKIP_STRIDE};
pub use spill::{Spill, SpillStats, SpillVector};

use std::fmt;

/// Errors produced by the vector layer.
#[derive(Debug)]
pub enum VectorError {
    Storage(vx_storage::StorageError),
    Io(std::io::Error),
    /// Missing magic, bad version byte, or a malformed trailer.
    BadHeader(String),
    /// Structural corruption detected by the strict reader.
    Corrupt {
        offset: usize,
        message: String,
    },
    /// A column would pass `u32::MAX` value bytes, the most its
    /// offsets address.
    TooLarge {
        bytes: u64,
    },
}

impl fmt::Display for VectorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VectorError::Storage(e) => write!(f, "vector storage error: {e}"),
            VectorError::Io(e) => write!(f, "vector I/O error: {e}"),
            VectorError::BadHeader(m) => write!(f, "bad .vec header: {m}"),
            VectorError::Corrupt { offset, message } => {
                write!(f, "corrupt .vec at byte {offset}: {message}")
            }
            VectorError::TooLarge { bytes } => {
                write!(
                    f,
                    "column of {bytes} value bytes passes the u32 offset limit"
                )
            }
        }
    }
}

impl std::error::Error for VectorError {}

impl From<vx_storage::StorageError> for VectorError {
    fn from(e: vx_storage::StorageError) -> Self {
        VectorError::Storage(e)
    }
}

impl From<std::io::Error> for VectorError {
    fn from(e: std::io::Error) -> Self {
        VectorError::Io(e)
    }
}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, VectorError>;
