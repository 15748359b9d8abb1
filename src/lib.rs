//! `xmlvec` — a vectorized native XML store and XQuery engine, after
//! Buneman, Choi, Fan, Hutchison, Mann & Viglas, *Vectorizing and
//! Querying Large XML Repositories* (ICDE 2005).
//!
//! A document `T` is stored as `VEC(T) = (S, V)`: `S` is the tree
//! *skeleton* compressed into a hash-consed DAG with run-length edges,
//! and `V` is one *vector* per root-to-text tag path holding that path's
//! text values in document order. Vectorization and reconstruction are
//! both linear (`Props. 2.1/2.2`), and queries evaluate against `(S, V)`
//! directly — structure on the skeleton, values on exactly the vectors
//! the query names.
//!
//! The workspace is strictly layered; each crate owns one layer and one
//! error type, and this facade re-exports them plus a unified [`Error`]:
//!
//! | crate | layer |
//! |---|---|
//! | [`vx_obs`] | counters, span timers, `VX_LOG` event sink |
//! | [`vx_wal`] | checksummed fsync'd write-ahead segment log |
//! | [`vx_xml`] | XML 1.0 tokenizer, DOM builder, streaming writer |
//! | [`vx_storage`] | LEB128 varints |
//! | [`vx_skeleton`] | hash-consed DAG, `.vxsk` format, path index |
//! | [`vx_vector`] | `.vec` format and its one encoder, skip index, cursors |
//! | [`vx_ingest`] | the vectorizer: parse events to `(S, V)` |
//! | [`vx_core`] | vectorize / streaming reconstruct, persistent store |
//! | [`vx_xquery`] | XQ parsing + desugaring |
//! | [`vx_engine`] | query graphs, vectorized `reduce`, oracle |
//! | [`vx_data`] | deterministic corpus generators |
//! | [`vx_bench`] | store size measurement |
//!
//! Quick start (`examples/quickstart.rs` runs the full loop):
//!
//! ```
//! use xmlvec::{Query, RunOptions};
//! let doc = xmlvec::xml::parse("<r><e><k>a</k></e><e><k>b</k></e></r>")?;
//! let vec_doc = xmlvec::core::vectorize(&doc)?;
//! let q = Query::new(r#"for $e in doc("d")/r/e return $e/k"#)?;
//! assert_eq!(q.run_with(&vec_doc, &RunOptions::default())?.output.strings(), ["a", "b"]);
//! # Ok::<(), xmlvec::Error>(())
//! ```

pub mod serve;

pub use vx_bench as bench;
pub use vx_core as core;
pub use vx_data as data;
pub use vx_engine as engine;
pub use vx_ingest as ingest;
pub use vx_obs as obs;
pub use vx_skeleton as skeleton;
pub use vx_storage as storage;
pub use vx_vector as vector;
pub use vx_wal as wal;
pub use vx_xml as xml;
pub use vx_xquery as xquery;

pub use vx_engine::{Plan, Query, QueryOutput, RunOptions, RunOutcome};

use std::fmt;

/// Any error from any layer, for callers that do not care which.
#[derive(Debug)]
pub enum Error {
    Xml(vx_xml::XmlError),
    Storage(vx_storage::StorageError),
    Skeleton(vx_skeleton::SkeletonError),
    Vector(vx_vector::VectorError),
    Ingest(vx_ingest::IngestError),
    Core(vx_core::CoreError),
    Xq(vx_xquery::XqError),
    Engine(vx_engine::EngineError),
    Io(std::io::Error),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Xml(e) => write!(f, "{e}"),
            Error::Storage(e) => write!(f, "{e}"),
            Error::Skeleton(e) => write!(f, "{e}"),
            Error::Vector(e) => write!(f, "{e}"),
            Error::Ingest(e) => write!(f, "{e}"),
            Error::Core(e) => write!(f, "{e}"),
            Error::Xq(e) => write!(f, "{e}"),
            Error::Engine(e) => write!(f, "{e}"),
            Error::Io(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Xml(e) => Some(e),
            Error::Storage(e) => Some(e),
            Error::Skeleton(e) => Some(e),
            Error::Vector(e) => Some(e),
            Error::Ingest(e) => Some(e),
            Error::Core(e) => Some(e),
            Error::Xq(e) => Some(e),
            Error::Engine(e) => Some(e),
            Error::Io(e) => Some(e),
        }
    }
}

macro_rules! from_error {
    ($variant:ident, $ty:ty) => {
        impl From<$ty> for Error {
            fn from(e: $ty) -> Self {
                Error::$variant(e)
            }
        }
    };
}

from_error!(Xml, vx_xml::XmlError);
from_error!(Storage, vx_storage::StorageError);
from_error!(Skeleton, vx_skeleton::SkeletonError);
from_error!(Vector, vx_vector::VectorError);
from_error!(Ingest, vx_ingest::IngestError);
from_error!(Core, vx_core::CoreError);
from_error!(Xq, vx_xquery::XqError);
from_error!(Engine, vx_engine::EngineError);
from_error!(Io, std::io::Error);

/// Result alias over the unified [`Error`].
pub type Result<T> = std::result::Result<T, Error>;

/// Vectorizes XML text in one step: the tokenizer's events go straight
/// into the vectorizer, as in [`vx_core::Store::ingest_stream`], with no
/// DOM in between.
pub fn vectorize_str(xml_text: &str) -> Result<vx_core::VecDoc> {
    let mut pipeline = vx_core::Pipeline::new(vx_core::VecDoc::default(), Default::default());
    let mut events = vx_xml::Events::new(xml_text.as_bytes());
    while let Some(event) = events.next_ref()? {
        pipeline.feed(event).map_err(vx_core::CoreError::from)?;
    }
    Ok(pipeline.finish().map_err(vx_core::CoreError::from)?)
}

/// Reconstructs a vectorized document back to XML text (compact form),
/// streamed from its skeleton and vectors without a DOM.
pub fn to_xml(doc: &vx_core::VecDoc) -> Result<String> {
    let mut out = Vec::new();
    vx_core::write_xml(doc, &mut out)?;
    Ok(String::from_utf8(out).expect("the writer emits only UTF-8"))
}

#[cfg(test)]
mod tests {
    use crate::{Query, QueryOutput, RunOptions};

    include!("../crates/xml/src/cases.rs");

    #[test]
    fn facade_round_trip_and_query() {
        let xml = "<r><e><k>a</k></e><e><k>b</k></e></r>";
        let doc = crate::vectorize_str(xml).unwrap();
        assert_eq!(crate::to_xml(&doc).unwrap(), xml);
        let q = Query::new(r#"for $e in doc("d")/r/e where $e/k = "b" return $e/k"#).unwrap();
        assert_eq!(
            q.run_with(&doc, &RunOptions::default())
                .unwrap()
                .output
                .strings(),
            vec!["b"]
        );
    }

    /// Without a DOM, `vectorize_str` builds exactly what vectorizing
    /// the parsed DOM builds, and fails where it fails.
    #[test]
    fn vectorize_str_matches_vectorizing_the_dom() {
        for case in CASES {
            let streamed = crate::vectorize_str(case);
            let via_dom = crate::core::vectorize(&crate::xml::parse(case).unwrap());
            match (streamed, via_dom) {
                (Ok(streamed), Ok(via_dom)) => {
                    let skeleton = |d: &crate::core::VecDoc| {
                        crate::skeleton::format::write(&d.skeleton, d.root.unwrap())
                    };
                    assert_eq!(skeleton(&streamed), skeleton(&via_dom), "{case:?}");
                    assert_eq!(streamed.vectors(), via_dom.vectors(), "{case:?}");
                }
                (Err(streamed), Err(via_dom)) => {
                    assert_eq!(streamed.to_string(), via_dom.to_string(), "{case:?}")
                }
                (streamed, via_dom) => panic!("{case:?}: {streamed:?} vs {via_dom:?}"),
            }
        }
    }

    #[test]
    fn facade_constructor_output_is_vectorized() {
        let doc = crate::vectorize_str("<r><e><k>a</k></e><e><k>b</k></e></r>").unwrap();
        let q = Query::new(r#"for $e in doc("d")/r/e return <row>{$e/k}</row>"#).unwrap();
        let out = q.run_with(&doc, &RunOptions::default()).unwrap().output;
        let QueryOutput::Document(vd) = &out else {
            panic!("expected a vectorized document");
        };
        assert!(vd.vector("results/row/k").is_some());
        assert_eq!(
            out.to_xml().unwrap(),
            "<results><row><k>a</k></row><row><k>b</k></row></results>"
        );
    }
}
