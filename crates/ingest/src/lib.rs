//! `vx-ingest` — the vectorizer: the one code path that turns XML
//! events into `VEC(T) = (S, V)` in one pass, with no tree (Prop 2.1).
//!
//! [`Pipeline`] drives [`vx_skeleton::SkeletonBuilder`], which hash-conses
//! each subtree the moment its end tag arrives, keeps the root-to-node tag
//! path (attributes as a final `@name` component), applies the comment/PI
//! rule and the [`PipelineStats`] tallies. Only where a value goes varies,
//! behind [`ValueSink`]: [`run`] feeds each path's values to one
//! [`vx_vector::SpillVector`], whose full 8 KiB pages go to an
//! append-only [`vx_vector::Spill`] file (store ingest: peak memory
//! `O(compressed skeleton + open-element stack + one page per path)`),
//! while `vx-core`'s `VecDoc` sink serves DOM vectorization, query result
//! construction and WAL replay ([`Pipeline::resume`] reopens the root of
//! an existing `(S, V)`, so appends extend its DAG). One builder behind
//! every route keeps stream ingest, DOM ingest and compaction of base +
//! appends byte-identical; the root `tests/ingest_stream.rs` suite pins
//! it differentially.

use std::collections::HashMap;
use std::fmt;
use std::fs::File;
use vx_skeleton::{NodeId, Skeleton, SkeletonBuilder};
use vx_vector::{Spill, SpillVector};
use vx_xml::Event;

/// Errors produced by the streaming pipeline.
#[derive(Debug)]
pub enum IngestError {
    Xml(vx_xml::XmlError),
    Storage(vx_storage::StorageError),
    Skeleton(vx_skeleton::SkeletonError),
    Vector(vx_vector::VectorError),
    /// The stream contains a construct vectorization cannot represent
    /// losslessly (comments / processing instructions inside the tree) in
    /// strict mode.
    Unsupported(String),
}

impl fmt::Display for IngestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IngestError::Xml(e) => write!(f, "{e}"),
            IngestError::Storage(e) => write!(f, "{e}"),
            IngestError::Skeleton(e) => write!(f, "{e}"),
            IngestError::Vector(e) => write!(f, "{e}"),
            IngestError::Unsupported(m) => write!(f, "unsupported content: {m}"),
        }
    }
}

impl std::error::Error for IngestError {}

impl From<vx_xml::XmlError> for IngestError {
    fn from(e: vx_xml::XmlError) -> Self {
        IngestError::Xml(e)
    }
}

impl From<vx_storage::StorageError> for IngestError {
    fn from(e: vx_storage::StorageError) -> Self {
        IngestError::Storage(e)
    }
}

impl From<vx_skeleton::SkeletonError> for IngestError {
    fn from(e: vx_skeleton::SkeletonError) -> Self {
        IngestError::Skeleton(e)
    }
}

impl From<vx_vector::VectorError> for IngestError {
    fn from(e: vx_vector::VectorError) -> Self {
        IngestError::Vector(e)
    }
}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, IngestError>;

/// Pipeline policy knobs.
#[derive(Debug, Clone, Copy, Default)]
pub struct PipelineOptions {
    /// When false (default), comments and processing instructions inside
    /// the tree are an error — vectorization cannot represent them, and
    /// silently dropping them would break the lossless-round-trip law.
    /// When true they are dropped. Prolog/epilog misc is always ignored.
    pub drop_unrepresentable: bool,
}

/// Plain tallies accumulated while feeding events — integer adds on the
/// event path, always on. Values depend only on the input stream, so two
/// ingests of the same document report identical stats.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PipelineStats {
    /// Parse events consumed (all kinds, including ignored misc).
    pub events: u64,
    /// Elements opened.
    pub elements: u64,
    /// Attribute values appended to vectors.
    pub attr_values: u64,
    /// Text/CDATA values appended to vectors.
    pub text_values: u64,
}

impl PipelineStats {
    /// Total values appended across all vectors.
    pub fn values(&self) -> u64 {
        self.attr_values + self.text_values
    }
}

/// Where the pipeline puts each value: the only part of vectorization
/// that varies between its users.
pub trait ValueSink {
    /// What [`Pipeline::finish`] returns.
    type Output;

    /// Appends `value` to the vector of `path` (created on first use, so
    /// vectors come out in first-occurrence document order).
    fn push(&mut self, path: &str, value: &[u8]) -> Result<()>;

    /// Combines the sink with the finished skeleton.
    fn finish(self, skeleton: Skeleton, root: NodeId, stats: PipelineStats) -> Self::Output;
}

/// Everything a store ingest accumulated, ready for the store layer to
/// serialize: the consed skeleton, and one spilled vector per path in
/// first-occurrence document order (the store's `v{NNNNNN}.vec` order).
pub struct IngestOutput {
    pub skeleton: Skeleton,
    pub root: NodeId,
    pub vectors: Vec<(String, SpillVector)>,
    pub spill: Spill<File>,
    pub stats: PipelineStats,
}

/// The store-ingest sink: one [`SpillVector`] per path, all spilling to
/// one file.
struct SpillSink {
    spill: Spill<File>,
    vectors: Vec<(String, SpillVector)>,
    by_path: HashMap<String, usize>,
}

impl ValueSink for SpillSink {
    type Output = IngestOutput;

    fn push(&mut self, path: &str, value: &[u8]) -> Result<()> {
        let idx = match self.by_path.get(path) {
            Some(&i) => i,
            None => {
                let i = self.vectors.len();
                self.vectors
                    .push((path.to_string(), SpillVector::default()));
                self.by_path.insert(path.to_string(), i);
                i
            }
        };
        self.vectors[idx].1.append(&mut self.spill, value)?;
        Ok(())
    }

    fn finish(self, skeleton: Skeleton, root: NodeId, stats: PipelineStats) -> IngestOutput {
        IngestOutput {
            skeleton,
            root,
            vectors: self.vectors,
            spill: self.spill,
            stats,
        }
    }
}

/// The vectorizer: turns the events of one document into `(S, V)`.
/// Feed it every event, then call [`Pipeline::finish`].
pub struct Pipeline<S> {
    builder: SkeletonBuilder,
    sink: S,
    path: String,
    parent_lens: Vec<usize>,
    options: PipelineOptions,
    stats: PipelineStats,
}

impl<S: ValueSink> Pipeline<S> {
    /// A pipeline starting a new document, its values going to `sink`.
    pub fn new(sink: S, options: PipelineOptions) -> Self {
        Pipeline {
            builder: SkeletonBuilder::new(),
            sink,
            path: String::new(),
            parent_lens: Vec::new(),
            options,
            stats: PipelineStats::default(),
        }
    }

    /// A pipeline continuing the document `(skeleton, root)` whose values
    /// `sink` already holds: the root element is open again, and what is
    /// fed next becomes its children after the existing ones (see
    /// [`SkeletonBuilder::resume`]). Work is proportional to what is fed,
    /// not to the existing document.
    pub fn resume(
        skeleton: Skeleton,
        root: NodeId,
        sink: S,
        options: PipelineOptions,
    ) -> Result<Self> {
        let path = match skeleton.node(root).name {
            Some(name) => skeleton.name(name).to_string(),
            None => String::new(),
        };
        let builder = SkeletonBuilder::resume(skeleton, root)?;
        Ok(Pipeline {
            builder,
            sink,
            path,
            parent_lens: vec![0],
            options,
            stats: PipelineStats::default(),
        })
    }

    /// Replaces the policy for the events fed from now on.
    pub fn set_options(&mut self, options: PipelineOptions) {
        self.options = options;
    }

    /// Tallies so far (final values after the last event).
    pub fn stats(&self) -> PipelineStats {
        self.stats
    }

    /// Opens an element.
    pub fn start(&mut self, name: &str) -> Result<()> {
        self.stats.elements += 1;
        self.builder.start_element(name)?;
        self.parent_lens.push(self.path.len());
        if !self.path.is_empty() {
            self.path.push('/');
        }
        self.path.push_str(name);
        Ok(())
    }

    /// An attribute of the innermost open element: an `@name`
    /// pseudo-child in the skeleton, its value appended to the vector of
    /// `path/@name`.
    pub fn attr(&mut self, name: &str, value: &[u8]) -> Result<()> {
        self.stats.attr_values += 1;
        self.builder.attribute(name)?;
        let len = self.path.len();
        self.path.push_str("/@");
        self.path.push_str(name);
        let result = self.sink.push(&self.path, value);
        self.path.truncate(len);
        result
    }

    /// A text (or CDATA) child of the innermost open element: a `#`
    /// marker in the skeleton, its value appended to the element's
    /// vector.
    pub fn text(&mut self, value: &[u8]) -> Result<()> {
        self.stats.text_values += 1;
        self.builder.text()?;
        self.sink.push(&self.path, value)
    }

    /// Closes the innermost open element.
    pub fn end(&mut self) -> Result<()> {
        self.builder.end_element()?;
        let parent_len = self
            .parent_lens
            .pop()
            .expect("builder accepted end_element, so an element was open");
        self.path.truncate(parent_len);
        Ok(())
    }

    /// A comment or processing instruction. Prolog/epilog misc is ignored
    /// by vectorization; inside the tree it is unrepresentable, so it is
    /// an error unless [`PipelineOptions::drop_unrepresentable`].
    pub fn misc(&mut self) -> Result<()> {
        if self.builder.depth() > 0 && !self.options.drop_unrepresentable {
            return Err(IngestError::Unsupported(format!(
                "comment/processing instruction under `{}`; \
                 vectorization drops these only with drop_unrepresentable",
                self.path
            )));
        }
        Ok(())
    }

    /// Consumes one parse event.
    pub fn feed(&mut self, event: Event) -> Result<()> {
        self.stats.events += 1;
        match event {
            Event::Decl(_) => Ok(()),
            Event::Start(name) => self.start(&name),
            Event::Attr { name, value } => self.attr(&name, value.as_bytes()),
            Event::Text(t) | Event::CData(t) => self.text(t.as_bytes()),
            Event::End(_) => self.end(),
            Event::Comment(_) | Event::Pi { .. } => self.misc(),
        }
    }

    /// Finishes the document. Errors on an unbalanced or empty stream.
    pub fn finish(self) -> Result<S::Output> {
        let (skeleton, root) = self.builder.finish()?;
        Ok(self.sink.finish(skeleton, root, self.stats))
    }
}

/// Runs a whole event stream through a [`Pipeline`] whose values spill
/// to `spill` — the store ingest.
pub fn run(
    events: impl Iterator<Item = vx_xml::Result<Event>>,
    spill: Spill<File>,
    options: PipelineOptions,
) -> Result<IngestOutput> {
    let sink = SpillSink {
        spill,
        vectors: Vec::new(),
        by_path: HashMap::new(),
    };
    let mut pipeline = Pipeline::new(sink, options);
    for event in events {
        pipeline.feed(event?)?;
    }
    pipeline.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use vx_xml::Events;

    fn temp_spill(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("vx-ingest-{}-{name}.spill", std::process::id()))
    }

    fn ingest(xml: &str, name: &str, options: PipelineOptions) -> Result<IngestOutput> {
        let spill = Spill::create(&temp_spill(name)).unwrap();
        run(Events::new(xml.as_bytes()), spill, options)
    }

    fn values(output: &mut IngestOutput, path: &str) -> Vec<Vec<u8>> {
        let i = output
            .vectors
            .iter()
            .position(|(p, _)| p == path)
            .unwrap_or_else(|| panic!("no vector for {path}"));
        let (_, sv) = output.vectors.remove(i);
        let mut bytes = Vec::new();
        sv.finish_plain(&mut output.spill, &mut bytes).unwrap();
        let (vec, _) = vx_vector::Vector::decode(&bytes).unwrap();
        vec.iter().map(<[u8]>::to_vec).collect()
    }

    #[test]
    fn paths_arrive_in_first_occurrence_order_with_values() {
        let mut out = ingest(
            r#"<lib><book id="1"><title>T1</title></book><book id="2"><title>T2</title></book></lib>"#,
            "order",
            PipelineOptions::default(),
        )
        .unwrap();
        let paths: Vec<_> = out.vectors.iter().map(|(p, _)| p.clone()).collect();
        assert_eq!(paths, ["lib/book/@id", "lib/book/title"]);
        assert_eq!(
            values(&mut out, "lib/book/title"),
            [b"T1".to_vec(), b"T2".to_vec()]
        );
        assert_eq!(
            values(&mut out, "lib/book/@id"),
            [b"1".to_vec(), b"2".to_vec()]
        );
        // lib + 2 × (book, @id, '#', title, '#') = 11 expanded nodes.
        assert_eq!(out.skeleton.expanded_size(out.root), 11);
    }

    #[test]
    fn repeated_rows_compress_in_flight() {
        let mut xml = String::from("<t>");
        for i in 0..500 {
            xml.push_str(&format!("<r><c>{i}</c></r>"));
        }
        xml.push_str("</t>");
        let out = ingest(&xml, "rle", PipelineOptions::default()).unwrap();
        // '#', c, r, t — the 500 identical rows share one DAG node.
        assert_eq!(out.skeleton.len(), 4);
        assert_eq!(out.skeleton.expanded_size(out.root), 1 + 500 * 3);
    }

    #[test]
    fn strict_mode_rejects_tree_comments_like_the_dom_path() {
        let Err(err) = ingest("<a><!-- c --></a>", "strict", PipelineOptions::default()) else {
            panic!("strict mode must reject tree comments");
        };
        let IngestError::Unsupported(m) = err else {
            panic!("expected Unsupported, got {err}");
        };
        assert!(m.contains("under `a`"));
        // Dropping mode and prolog/epilog misc are fine.
        assert!(ingest(
            "<a><!-- c --></a>",
            "drop",
            PipelineOptions {
                drop_unrepresentable: true
            }
        )
        .is_ok());
        assert!(ingest(
            "<!-- pre --><a>x</a><!-- post -->",
            "misc",
            PipelineOptions::default()
        )
        .is_ok());
    }

    #[test]
    fn parse_errors_propagate() {
        assert!(matches!(
            ingest("<a><b></a>", "bad", PipelineOptions::default()),
            Err(IngestError::Xml(_))
        ));
    }
}
