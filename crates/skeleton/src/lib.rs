//! `vx-skeleton` — the compressed skeleton layer (DESIGN.md row 3).
//!
//! The skeleton `S` of a document `T` is `T` with every text node replaced
//! by a `#` marker. It is stored hash-consed: identical subtrees share one
//! DAG node, and *consecutive* repeated edges are run-length encoded, so
//! regular documents (the paper's running example is a 368-column astronomy
//! table) compress to a skeleton that fits in main memory.
//!
//! This crate provides:
//!
//! * [`Skeleton`] — the hash-consing arena ([`arena`]), and
//!   [`Traversal`], the one explicit-stack document-order walk every pass
//!   over `(S, V)` runs on,
//! * the binary `.vxsk` format, both a strict reader/writer and a lenient
//!   salvage reader for damaged files ([`mod@format`]),
//! * the path summary — per-node text counts over hash-consed relative
//!   paths — the step patterns the query engine matches, and
//!   [`PathIds`], the absolute-path numbering the vectorizer and the
//!   engine's and the output's walks share ([`paths`]),
//! * the structural self-index over the DAG — per-node containment
//!   bitsets and the `.vxpi` persistence format ([`structural`]).

pub mod arena;
pub mod format;
pub mod paths;
pub mod stream;
pub mod structural;

pub use arena::{Edge, NameId, NodeId, Skeleton, Traversal, Visit};
pub use format::{read, read_lenient, write, RawSkeleton, SalvageReport};
pub use paths::{
    IdHasher, IdMap, PathId, PathIds, PathIndex, PathPattern, PatternStep, PatternTest, RelId,
    SUPER_ROOT,
};
pub use stream::SkeletonBuilder;
pub use structural::{read_index, write_index, StructIndex};

use std::fmt;

/// Errors produced by the skeleton layer.
#[derive(Debug)]
pub enum SkeletonError {
    Storage(vx_storage::StorageError),
    /// The `.vxsk` header is missing or has the wrong magic/version.
    BadHeader(String),
    /// Structural corruption detected by the strict reader.
    Corrupt {
        offset: usize,
        message: String,
    },
    /// Event sequence error during incremental construction
    /// ([`SkeletonBuilder`]): unbalanced tags, a second root, etc.
    Builder(String),
}

impl fmt::Display for SkeletonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SkeletonError::Storage(e) => write!(f, "skeleton storage error: {e}"),
            SkeletonError::BadHeader(m) => write!(f, "bad .vxsk header: {m}"),
            SkeletonError::Corrupt { offset, message } => {
                write!(f, "corrupt .vxsk at byte {offset}: {message}")
            }
            SkeletonError::Builder(m) => write!(f, "skeleton builder: {m}"),
        }
    }
}

impl std::error::Error for SkeletonError {}

impl From<vx_storage::StorageError> for SkeletonError {
    fn from(e: vx_storage::StorageError) -> Self {
        SkeletonError::Storage(e)
    }
}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, SkeletonError>;
