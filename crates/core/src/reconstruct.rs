//! Lossless reconstruction `VEC(T) → T` (Prop 2.2): one skeleton-order
//! [`vx_skeleton::Traversal`] over `(S, V)`, `O(|T|)` time on a stack of
//! any size, that pulls each text from its vector's cursor and drives a
//! [`Sink`] — a streaming XML writer ([`write_xml`]), a DOM builder
//! ([`reconstruct`]), or any other ([`reconstruct_into`]). Vectors
//! resolve through [`PathIds`], so no path string is built per value and
//! no node is cloned.

use crate::paths::{PathId, PathIds, SUPER_ROOT};
use crate::vecdoc::VecDoc;
use crate::{CoreError, Result};
use std::borrow::Cow;
use std::io;
use vx_skeleton::Visit;
use vx_xml::{Document, Sink, TreeBuilder, XmlWriter};

/// What a salvage reconstruction had to invent.
#[derive(Debug, Clone, Default)]
pub struct ReconstructReport {
    /// Text positions whose vector was missing or exhausted; an empty
    /// string was substituted.
    pub missing_values: u64,
    /// Values that were not valid UTF-8 (lossily converted).
    pub non_utf8_values: u64,
}

impl ReconstructReport {
    pub fn is_lossless(&self) -> bool {
        self.missing_values == 0 && self.non_utf8_values == 0
    }
}

/// Strict reconstruction into a DOM: every `#` position must find its
/// value, every vector must be fully consumed, and all values must be
/// UTF-8.
pub fn reconstruct(doc: &VecDoc) -> Result<Document> {
    let mut builder = TreeBuilder::default();
    reconstruct_into(doc, &mut builder)?;
    Ok(builder.finish().expect(CLOSED))
}

/// Best-effort reconstruction for salvaged stores: missing values become
/// empty strings and the report says how many were invented.
pub fn reconstruct_salvage(doc: &VecDoc) -> Result<(Document, ReconstructReport)> {
    let mut builder = TreeBuilder::default();
    let (report, _) = walk(doc, &mut builder, false)?;
    Ok((builder.finish().expect(CLOSED), report))
}

const CLOSED: &str = "a finished walk has closed every element it opened";

/// Streams the document as compact XML into `out`, with no DOM in
/// between: the bytes [`vx_xml::write_document`] writes for
/// [`reconstruct`]'s result. Checked as strictly as [`reconstruct`], but
/// a failure can come after part of the document was written.
pub fn write_xml(doc: &VecDoc, out: impl io::Write) -> Result<()> {
    reconstruct_into(doc, &mut XmlWriter::new(out))
}

/// Strict reconstruction into any [`Sink`]: the tree's elements,
/// attributes and texts in document order, checked as [`reconstruct`]
/// checks them.
pub fn reconstruct_into(doc: &VecDoc, sink: &mut impl Sink) -> Result<()> {
    let (report, cursors) = walk(doc, sink, true)?;
    debug_assert!(report.is_lossless());
    for (vector, &consumed) in doc.vectors().iter().zip(&cursors) {
        if consumed != vector.values.len() {
            return Err(CoreError::Corrupt(format!(
                "vector `{}` has {} values but the skeleton consumed {consumed}",
                vector.path,
                vector.values.len(),
            )));
        }
    }
    Ok(())
}

/// One skeleton-order walk over `(S, V)`, returning what it had to
/// invent and how far it read each vector. An element's `@name` children
/// (each wrapping one value) go out as attributes when it is entered, so
/// the traversal skips them where they stand.
fn walk(
    doc: &VecDoc,
    sink: &mut impl Sink,
    strict: bool,
) -> Result<(ReconstructReport, Vec<usize>)> {
    let root = doc
        .root
        .ok_or_else(|| CoreError::Corrupt("vectorized document has no root".into()))?;
    let skeleton = &doc.skeleton;
    let Some(root_name) = skeleton.node(root).name else {
        return Err(CoreError::Corrupt("root node is a text marker".into()));
    };
    let mut walk = Walk {
        doc,
        paths: PathIds::default(),
        cursors: vec![0; doc.vectors().len()],
        report: ReconstructReport::default(),
        strict,
    };
    let root_path = walk.paths.child(SUPER_ROOT, root_name);
    let mut traversal = skeleton.traverse(root, root_path);
    while let Some(visit) = traversal.next(|path, name| walk.paths.child(path, name)) {
        match visit {
            Visit::Enter {
                node, name, label, ..
            } => {
                let tag = skeleton.name(name);
                if tag.starts_with('@') {
                    traversal.skip_run();
                    traversal.skip_subtree();
                    continue;
                }
                sink.start(tag)?;
                for edge in &skeleton.node(node).edges {
                    let Some(child) = skeleton.node(edge.child).name else {
                        continue;
                    };
                    if let Some(attr) = skeleton.name(child).strip_prefix('@') {
                        let attr_path = walk.paths.child(label, child);
                        for _ in 0..edge.run {
                            sink.attr(attr, &walk.take(attr_path)?)?;
                        }
                    }
                }
            }
            Visit::Text { label, run } => {
                for _ in 0..run {
                    sink.text(&walk.take(label)?)?;
                }
            }
            Visit::Leave { name } => sink.end(skeleton.name(name))?,
        }
    }
    Ok((walk.report, walk.cursors))
}

struct Walk<'a> {
    doc: &'a VecDoc,
    paths: PathIds,
    /// Next unread value index per vector, parallel to `doc.vectors()`.
    cursors: Vec<usize>,
    report: ReconstructReport,
    strict: bool,
}

impl<'a> Walk<'a> {
    /// The next value of the text directly under `path`.
    fn take(&mut self, path: PathId) -> Result<Cow<'a, str>> {
        let doc = self.doc;
        let raw = doc.text_vector(&mut self.paths, path).and_then(|i| {
            let position = self.cursors[i];
            self.cursors[i] += 1;
            doc.vectors()[i].values.get(position)
        });
        match raw {
            Some(bytes) => match std::str::from_utf8(bytes) {
                Ok(s) => Ok(Cow::Borrowed(s)),
                Err(_) if self.strict => Err(CoreError::Corrupt(format!(
                    "non-UTF-8 value in vector `{}`",
                    self.spell(path)
                ))),
                Err(_) => {
                    self.report.non_utf8_values += 1;
                    Ok(String::from_utf8_lossy(bytes))
                }
            },
            None if self.strict => Err(CoreError::Corrupt(format!(
                "vector `{}` exhausted or missing during reconstruction",
                self.spell(path)
            ))),
            None => {
                self.report.missing_values += 1;
                Ok(Cow::Borrowed(""))
            }
        }
    }

    fn spell(&self, path: PathId) -> String {
        let mut spelled = String::new();
        self.paths.spell(path, &self.doc.skeleton, &mut spelled);
        spelled
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vectorize::vectorize;
    use vx_xml::parse;

    fn round_trip(src: &str) {
        let doc = parse(src).unwrap();
        let v = vectorize(&doc).unwrap();
        let back = reconstruct(&v).unwrap();
        assert_eq!(doc.root, back.root, "round trip failed for {src}");
    }

    #[test]
    fn round_trips() {
        round_trip("<a/>");
        round_trip("<a>text</a>");
        round_trip("<a><b>1</b><b>2</b><b>1</b></a>");
        round_trip(r#"<a x="1" y="2"><b z="3">t</b></a>"#);
        round_trip("<p>one <b>two</b> three</p>"); // mixed content
        round_trip("<a><b><c><d>deep</d></c></b></a>");
        round_trip("<a><b></b><b>x</b></a>"); // empty vs non-empty siblings
    }

    #[test]
    fn reconstruction_detects_short_vectors() {
        let doc = parse("<a><b>1</b><b>2</b></a>").unwrap();
        let v = vectorize(&doc).unwrap();
        let mut corrupted = crate::vecdoc::VecDoc::new(v.skeleton.clone(), v.root);
        for vec in v.vectors() {
            let short = vec.values.iter().take(vec.values.len() - 1).collect();
            corrupted.insert_vector(crate::PathVector {
                path: vec.path.clone(),
                values: short,
            });
        }
        assert!(reconstruct(&corrupted).is_err());
        let (_, report) = reconstruct_salvage(&corrupted).unwrap();
        assert_eq!(report.missing_values, 1);
    }
}
