//! `vx-storage` — the lowest layer of the xmlvec stack.
//!
//! Provides the one primitive shared by every on-disk format in the
//! system: [`varint`], LEB128 variable-length integers, used by the
//! skeleton (`.vxsk`), structural index (`.vxpi`) and vector (`.vec`)
//! formats. Files are read and written with plain `std::fs` I/O; the
//! paper's Shore storage manager has no stand-in (DESIGN.md row 2).
//!
//! This crate depends on nothing above it (layering contract: it is the
//! bottom of the dependency DAG together with `vx-xml`).

pub mod varint;

use std::fmt;

/// Errors produced by the storage layer.
#[derive(Debug)]
pub enum StorageError {
    /// A varint ran past the end of its buffer or exceeded 64 bits.
    BadVarint { offset: usize, reason: &'static str },
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::BadVarint { offset, reason } => {
                write!(f, "bad varint at byte {offset}: {reason}")
            }
        }
    }
}

impl std::error::Error for StorageError {}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, StorageError>;
