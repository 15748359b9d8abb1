//! `vx-core` — vectorization and the persistent store (DESIGN.md row 6).
//!
//! Implements the paper's §2 end-to-end:
//!
//! * [`vectorize`] — `VEC(T) = (S, V)` of a parsed document: the DOM is
//!   walked through [`Pipeline`], the one vectorizer (`vx-ingest`), which
//!   hash-conses the skeleton bottom-up and appends every text value to
//!   the data vector of its root-to-text tag path (Prop 2.1, `O(|T|)`).
//!   [`VecDoc`] is the pipeline's in-memory value sink; the query
//!   engine's constructor output and WAL replay use the same pipeline.
//! * [`write_xml`] / [`reconstruct`] — the inverse: one skeleton walk
//!   that pulls values from per-path cursors in document order (Prop
//!   2.2, `O(|T|)`, lossless) and streams XML, or builds a DOM for the
//!   callers that want one.
//! * [`Store`] — the on-disk layout used by the surviving
//!   `bench_results/stores/`: a directory with `skeleton.vxsk`,
//!   `v{NNNNNN}.vec`, and `catalog.json`, plus a salvage loader for stores
//!   damaged by the seed capture's byte-dropping sanitizer.
//!   [`Store::ingest_stream`] feeds parse events through the same
//!   pipeline into spilled vectors; appends journal to a WAL that
//!   [`Store::open`] replays by resuming the base document.

mod append;
mod builder;
mod handle;
mod ingest;
pub mod json;
mod paths;
mod reconstruct;
mod store;
mod vecdoc;
mod vectorize;

pub use append::{
    generation_dir_name, resolve_layout, AppendOptions, AppendReport, CompactReport, OpenReport,
    StoreLayout, WalStatus, CURRENT_FILE,
};
pub use handle::StoreHandle;
pub use ingest::{IngestOptions, IngestReport};
pub use paths::{check_text_counts, IdHasher, IdMap, PathId, PathIds, SUPER_ROOT};
pub use reconstruct::{
    reconstruct, reconstruct_into, reconstruct_salvage, write_xml, ReconstructReport,
};
pub use store::{Catalog, CatalogEntry, Compaction, SalvageStore, Store};
pub use vecdoc::{PathVector, VecDoc};
pub use vectorize::{vectorize, vectorize_with, VectorizeOptions};
pub use vx_ingest::{IngestError, Pipeline, PipelineOptions, PipelineStats, ValueSink};

use std::fmt;

/// Errors produced by the core layer (converging point for the layers
/// below; `xmlvec::Error` wraps this one level further up).
#[derive(Debug)]
pub enum CoreError {
    Xml(vx_xml::XmlError),
    Storage(vx_storage::StorageError),
    Skeleton(vx_skeleton::SkeletonError),
    Vector(vx_vector::VectorError),
    Io(std::io::Error),
    /// Malformed `catalog.json`.
    Catalog(String),
    /// Input DOM contains a construct vectorization cannot represent
    /// losslessly (comments / processing instructions) in strict mode.
    Unsupported(String),
    /// Cross-file inconsistency in a store (counts, missing vectors, …).
    Corrupt(String),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Xml(e) => write!(f, "{e}"),
            CoreError::Storage(e) => write!(f, "{e}"),
            CoreError::Skeleton(e) => write!(f, "{e}"),
            CoreError::Vector(e) => write!(f, "{e}"),
            CoreError::Io(e) => write!(f, "store I/O error: {e}"),
            CoreError::Catalog(m) => write!(f, "bad catalog.json: {m}"),
            CoreError::Unsupported(m) => write!(f, "unsupported content: {m}"),
            CoreError::Corrupt(m) => write!(f, "corrupt store: {m}"),
        }
    }
}

impl std::error::Error for CoreError {}

impl From<vx_xml::XmlError> for CoreError {
    fn from(e: vx_xml::XmlError) -> Self {
        CoreError::Xml(e)
    }
}

impl From<vx_storage::StorageError> for CoreError {
    fn from(e: vx_storage::StorageError) -> Self {
        CoreError::Storage(e)
    }
}

impl From<vx_skeleton::SkeletonError> for CoreError {
    fn from(e: vx_skeleton::SkeletonError) -> Self {
        CoreError::Skeleton(e)
    }
}

impl From<vx_vector::VectorError> for CoreError {
    fn from(e: vx_vector::VectorError) -> Self {
        CoreError::Vector(e)
    }
}

impl From<std::io::Error> for CoreError {
    fn from(e: std::io::Error) -> Self {
        CoreError::Io(e)
    }
}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, CoreError>;
