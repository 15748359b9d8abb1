//! [`VecDoc`] as a [`ValueSink`]: the in-memory `(S, V)` built by the
//! one vectorizer, [`vx_ingest::Pipeline`].
//!
//! Every in-memory document is built this way: [`crate::vectorize`]
//! walks a DOM into it, the query engine streams constructor output
//! into it, and WAL replay resumes a loaded store's document with it
//! ([`Pipeline::resume`]). Values go to the document's
//! [`crate::PathVector`]s; the pipeline's skeleton becomes its `S` when
//! the root closes, so every `VecDoc` invariant holds by construction
//! (vectors in first-occurrence document order, values in document
//! order, shared subtrees collapsed, consecutive repeats run-length
//! encoded).
//!
//! ```
//! use vx_core::{Pipeline, PipelineOptions, VecDoc};
//! let mut b = Pipeline::new(VecDoc::default(), PipelineOptions::default());
//! b.start("r").unwrap();
//! for word in ["a", "b"] {
//!     b.start("e").unwrap();
//!     b.text(word.as_bytes()).unwrap();
//!     b.end().unwrap();
//! }
//! b.end().unwrap();
//! let doc = b.finish().unwrap();
//! assert_eq!(doc.vector("r/e").unwrap().values.len(), 2);
//! // Both `<e>` subtrees differ only in text: one shared DAG node.
//! assert_eq!(doc.skeleton.len(), 3); // '#', e, r
//! ```

use crate::vecdoc::VecDoc;
use crate::{CoreError, Result};
use vx_ingest::{Pipeline, PipelineOptions, PipelineStats, ValueSink};
use vx_skeleton::{NodeId, Skeleton};

impl ValueSink for VecDoc {
    type Output = VecDoc;

    fn vector(&mut self, path: &str) -> vx_ingest::Result<usize> {
        Ok(self.vector_index(path))
    }

    fn push(&mut self, vector: usize, value: &[u8]) -> vx_ingest::Result<()> {
        Ok(self.push_value(vector, value)?)
    }

    fn finish(mut self, skeleton: Skeleton, root: NodeId, _: PipelineStats) -> VecDoc {
        self.skeleton = skeleton;
        self.root = Some(root);
        self
    }
}

/// A pipeline continuing `doc`: its root element is open again, and
/// what is fed next is appended after the root's existing children.
/// Vectors keep their values (and, until they gain one, their
/// persistent value index); the skeleton extends the same arena.
pub(crate) fn resume(mut doc: VecDoc) -> Result<Pipeline<VecDoc>> {
    let root = doc
        .root
        .take()
        .ok_or_else(|| CoreError::Corrupt("document has no root to resume".into()))?;
    let skeleton = std::mem::take(&mut doc.skeleton);
    Ok(Pipeline::resume(
        skeleton,
        root,
        doc,
        PipelineOptions::default(),
    )?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{reconstruct, vectorize};
    use vx_xml::{parse, write_document, WriteOptions};

    /// Replaying a parsed document through borrowed pipeline calls (the
    /// engine's constructor shape: attributes as `@name` elements)
    /// produces the same `VecDoc` as `vectorize`.
    #[test]
    fn builder_agrees_with_vectorize() {
        let xml = "<lib><book id=\"1\"><t>A</t><a>x</a><a>y</a></book><book><t>B</t></book><n>z</n></lib>";
        let dom = parse(xml).unwrap();
        let via_vectorize = vectorize(&dom).unwrap();

        fn replay(b: &mut Pipeline<VecDoc>, e: &vx_xml::Element) {
            b.start(&e.name).unwrap();
            for (name, value) in &e.attributes {
                b.start(&format!("@{name}")).unwrap();
                b.text(value.as_bytes()).unwrap();
                b.end().unwrap();
            }
            for child in &e.children {
                match child {
                    vx_xml::Node::Element(c) => replay(b, c),
                    vx_xml::Node::Text(t) | vx_xml::Node::CData(t) => b.text(t.as_bytes()).unwrap(),
                    _ => {}
                }
            }
            b.end().unwrap();
        }
        let mut b = Pipeline::new(VecDoc::default(), PipelineOptions::default());
        replay(&mut b, &dom.root);
        let via_builder = b.finish().unwrap();

        assert_eq!(via_builder.skeleton.len(), via_vectorize.skeleton.len());
        assert_eq!(via_builder.vectors(), via_vectorize.vectors());
        let opts = WriteOptions::compact();
        assert_eq!(
            write_document(&reconstruct(&via_builder).unwrap(), &opts),
            write_document(&reconstruct(&via_vectorize).unwrap(), &opts),
        );
    }

    #[test]
    fn builder_round_trips_attributes() {
        let mut b = Pipeline::new(VecDoc::default(), PipelineOptions::default());
        b.start("r").unwrap();
        b.attr("id", b"7").unwrap();
        b.text(b"body").unwrap();
        b.end().unwrap();
        let doc = b.finish().unwrap();
        let back = reconstruct(&doc).unwrap();
        assert_eq!(back.root.attr("id"), Some("7"));
        assert_eq!(back.root.text(), "body");
    }

    #[test]
    fn finish_rejects_unbalanced_builds() {
        let mut b = Pipeline::new(VecDoc::default(), PipelineOptions::default());
        b.start("r").unwrap();
        assert!(b.finish().is_err());
        assert!(Pipeline::new(VecDoc::default(), PipelineOptions::default())
            .finish()
            .is_err());
        let mut b = Pipeline::new(VecDoc::default(), PipelineOptions::default());
        assert!(b.text(b"outside").is_err());
        assert!(b.end().is_err());
    }

    /// Resuming a document and feeding more children equals vectorizing
    /// the combined document: same reachable DAG, same vectors.
    #[test]
    fn resume_appends_after_the_root_children() {
        let base = vectorize(&parse("<r><e>a</e><e>b</e></r>").unwrap()).unwrap();
        let mut b = resume(base).unwrap();
        b.start("e").unwrap();
        b.text(b"c").unwrap();
        b.end().unwrap();
        b.end().unwrap();
        let resumed = b.finish().unwrap();
        let fresh = vectorize(&parse("<r><e>a</e><e>b</e><e>c</e></r>").unwrap()).unwrap();
        assert_eq!(resumed.vectors(), fresh.vectors());
        let (root, fresh_root) = (resumed.root.unwrap(), fresh.root.unwrap());
        assert_eq!(
            vx_skeleton::format::write(&resumed.skeleton, root),
            vx_skeleton::format::write(&fresh.skeleton, fresh_root)
        );
        assert_eq!(resumed.node_count(), fresh.node_count());
    }
}
