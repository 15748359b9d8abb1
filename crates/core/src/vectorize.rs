//! `VEC(T)` of a parsed document: the DOM walked through the one
//! vectorizer, [`vx_ingest::Pipeline`] (Prop 2.1).

use crate::vecdoc::VecDoc;
use crate::Result;
use vx_ingest::Pipeline;
use vx_xml::{Document, Element, Node};

/// Vectorization options: the pipeline's own.
pub use vx_ingest::PipelineOptions as VectorizeOptions;

/// Vectorizes with default (strict) options.
pub fn vectorize(doc: &Document) -> Result<VecDoc> {
    vectorize_with(doc, &VectorizeOptions::default())
}

/// Vectorizes a document into `(S, V)`.
///
/// * Every text (and CDATA) value is appended to the vector of its
///   root-to-text tag path; the skeleton gets a `#` child in its place.
/// * Attributes are encoded as leading `@name` child elements, so
///   `<a x="1">` contributes path `a/@x`. Reconstruction inverts this.
/// * The skeleton is hash-consed bottom-up with run-length edges.
///
/// The result is exactly what [`crate::Store::ingest_stream`] builds from
/// the document's text: both feed the same pipeline the same events.
pub fn vectorize_with(doc: &Document, options: &VectorizeOptions) -> Result<VecDoc> {
    let mut pipeline = Pipeline::new(VecDoc::default(), *options);
    feed_element(&mut pipeline, &doc.root)?;
    Ok(pipeline.finish()?)
}

fn feed_element(pipeline: &mut Pipeline<VecDoc>, element: &Element) -> Result<()> {
    pipeline.start(&element.name)?;
    for (name, value) in &element.attributes {
        pipeline.attr(name, value.as_bytes())?;
    }
    for child in &element.children {
        match child {
            Node::Element(e) => feed_element(pipeline, e)?,
            Node::Text(t) | Node::CData(t) => pipeline.text(t.as_bytes())?,
            Node::Comment(_) | Node::ProcessingInstruction { .. } => pipeline.misc()?,
        }
    }
    Ok(pipeline.end()?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CoreError;
    use vx_xml::parse;

    #[test]
    fn paths_counts_and_sharing() {
        let doc = parse(
            "<lib><book><title>T1</title><author>A</author><author>B</author></book>\
             <book><title>T2</title><author>C</author><author>D</author></book></lib>",
        )
        .unwrap();
        let v = vectorize(&doc).unwrap();
        let paths: Vec<_> = v.vectors().iter().map(|p| p.path.as_str()).collect();
        assert_eq!(paths, vec!["lib/book/title", "lib/book/author"]);
        assert_eq!(v.vector("lib/book/author").unwrap().values.len(), 4);
        // Books differ (different titles feed the same '#', so the two
        // book subtrees are structurally identical and must share).
        assert_eq!(v.skeleton.duplicate_nodes(), 0);
        // '#', title, author, book, lib — 5 DAG nodes despite 2 books.
        assert_eq!(v.skeleton.len(), 5);
    }

    #[test]
    fn attributes_become_at_paths() {
        let doc = parse(r#"<r><item id="7">x</item></r>"#).unwrap();
        let v = vectorize(&doc).unwrap();
        assert!(v.vector("r/item/@id").unwrap().values.iter().eq([b"7"]));
        assert!(v.vector("r/item").unwrap().values.iter().eq([b"x"]));
    }

    #[test]
    fn comments_error_in_strict_mode() {
        let doc = parse("<a><!-- c --></a>").unwrap();
        assert!(matches!(vectorize(&doc), Err(CoreError::Unsupported(_))));
        let opts = VectorizeOptions {
            drop_unrepresentable: true,
        };
        assert!(vectorize_with(&doc, &opts).is_ok());
    }

    #[test]
    fn node_count_matches_dom() {
        let doc = parse("<a><b>t</b><b>t</b><c/></a>").unwrap();
        let v = vectorize(&doc).unwrap();
        assert_eq!(v.node_count(), doc.root.node_count());
    }
}
