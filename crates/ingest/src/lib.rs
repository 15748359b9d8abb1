//! `vx-ingest` — the vectorizer: the one code path that turns XML
//! events into `VEC(T) = (S, V)` in one pass, with no tree (Prop 2.1).
//!
//! [`Pipeline`] drives [`vx_skeleton::SkeletonBuilder`], which hash-conses
//! each subtree the moment its end tag arrives, applies the comment/PI
//! rule and the [`PipelineStats`] tallies. It takes borrowed events
//! ([`vx_xml::EventRef`]) and keeps one [`PathId`] per open element —
//! the root-to-node tag path, numbered by [`PathIds`], attributes as a
//! final `@name` component — so a value reaches its vector by index:
//! the path is spelled once, when its first value arrives, and nothing
//! is allocated or hashed as a string per event. Only where a value goes
//! varies, behind [`ValueSink`]: [`run`] feeds each path's values to one
//! [`vx_vector::SpillVector`], whose full 8 KiB pages go to an
//! append-only [`vx_vector::Spill`] file (store ingest: peak memory
//! `O(compressed skeleton + open-element stack + one page per path)`),
//! while `vx-core`'s `VecDoc` sink serves DOM vectorization, query result
//! construction and WAL replay ([`Pipeline::resume`] reopens the root of
//! an existing `(S, V)`, so appends extend its DAG). One builder behind
//! every route keeps stream ingest, DOM ingest and compaction of base +
//! appends byte-identical; the root `tests/ingest_stream.rs` suite pins
//! it differentially.

use std::fmt;
use std::fs::File;
use std::io::Read;
use vx_skeleton::{NodeId, PathId, PathIds, Skeleton, SkeletonBuilder, SUPER_ROOT};
use vx_vector::{Spill, SpillVector};
use vx_xml::{EventRef, Events};

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

    /// The index of the vector of `path`, creating it if new. Called once
    /// per distinct path, when its first value arrives, so vectors come
    /// out in first-occurrence document order.
    fn vector(&mut self, path: &str) -> Result<usize>;

    /// Appends `value` to the vector [`ValueSink::vector`] numbered
    /// `vector`.
    fn push(&mut self, vector: usize, value: &[u8]) -> Result<()>;

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
    /// Whether the vectors keep a dictionary candidate (see
    /// [`SpillVector::plain`]).
    dictionary: bool,
}

impl ValueSink for SpillSink {
    type Output = IngestOutput;

    fn vector(&mut self, path: &str) -> Result<usize> {
        let vector = if self.dictionary {
            SpillVector::default()
        } else {
            SpillVector::plain()
        };
        self.vectors.push((path.to_string(), vector));
        Ok(self.vectors.len() - 1)
    }

    fn push(&mut self, vector: usize, value: &[u8]) -> Result<()> {
        Ok(self.vectors[vector].1.append(&mut self.spill, value)?)
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
    /// Numbers the document's paths, and remembers each one's vector in
    /// `sink` once its first value has arrived.
    paths: PathIds,
    /// The path of each open element, innermost last.
    open: Vec<PathId>,
    /// Scratch for spelling a path for [`ValueSink::vector`] or an error.
    spelled: String,
    options: PipelineOptions,
    stats: PipelineStats,
}

impl<S: ValueSink> Pipeline<S> {
    /// A pipeline starting a new document, its values going to `sink`.
    pub fn new(sink: S, options: PipelineOptions) -> Self {
        Pipeline {
            builder: SkeletonBuilder::new(),
            sink,
            paths: PathIds::default(),
            open: Vec::new(),
            spelled: String::new(),
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
        let root_name = skeleton.node(root).name;
        let builder = SkeletonBuilder::resume(skeleton, root)?;
        let mut paths = PathIds::default();
        let open = root_name
            .map(|name| paths.child(SUPER_ROOT, name))
            .into_iter()
            .collect();
        Ok(Pipeline {
            builder,
            sink,
            paths,
            open,
            spelled: String::new(),
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

    /// The path of the innermost open element.
    fn innermost(&self) -> PathId {
        self.open.last().copied().unwrap_or(SUPER_ROOT)
    }

    /// Opens an element.
    pub fn start(&mut self, name: &str) -> Result<()> {
        self.stats.elements += 1;
        let name = self.builder.start_element(name)?;
        let path = self.paths.child(self.innermost(), name);
        self.open.push(path);
        Ok(())
    }

    /// An attribute of the innermost open element: an `@name`
    /// pseudo-child in the skeleton, its value appended to the vector of
    /// `path/@name`.
    pub fn attr(&mut self, name: &str, value: &[u8]) -> Result<()> {
        self.stats.attr_values += 1;
        let name = self.builder.attribute(name)?;
        let path = self.paths.child(self.innermost(), name);
        self.push(path, value)
    }

    /// A text (or CDATA) child of the innermost open element: a `#`
    /// marker in the skeleton, its value appended to the element's
    /// vector.
    pub fn text(&mut self, value: &[u8]) -> Result<()> {
        self.stats.text_values += 1;
        self.builder.text()?;
        self.push(self.innermost(), value)
    }

    /// Appends `value` to the vector of `path`, asking the sink for that
    /// vector when the path's first value arrives.
    fn push(&mut self, path: PathId, value: &[u8]) -> Result<()> {
        let vector = match self.paths.vector(path) {
            Some(vector) => vector,
            None => {
                self.spell(path);
                let vector = self.sink.vector(&self.spelled)?;
                self.paths.set_vector(path, vector);
                vector
            }
        };
        self.sink.push(vector, value)
    }

    /// Spells `path` into `spelled`.
    fn spell(&mut self, path: PathId) {
        self.spelled.clear();
        self.paths
            .spell(path, self.builder.skeleton(), &mut self.spelled);
    }

    /// Closes the innermost open element.
    pub fn end(&mut self) -> Result<()> {
        self.builder.end_element()?;
        self.open.pop();
        Ok(())
    }

    /// A comment or processing instruction. Prolog/epilog misc is ignored
    /// by vectorization; inside the tree it is unrepresentable, so it is
    /// an error unless [`PipelineOptions::drop_unrepresentable`].
    pub fn misc(&mut self) -> Result<()> {
        if self.builder.depth() > 0 && !self.options.drop_unrepresentable {
            self.spell(self.innermost());
            return Err(IngestError::Unsupported(format!(
                "comment/processing instruction under `{}`; \
                 vectorization drops these only with drop_unrepresentable",
                self.spelled
            )));
        }
        Ok(())
    }

    /// Consumes one parse event.
    pub fn feed(&mut self, event: EventRef<'_>) -> Result<()> {
        self.stats.events += 1;
        match event {
            EventRef::Decl(_) => Ok(()),
            EventRef::Start(name) => self.start(name),
            EventRef::Attr { name, value } => self.attr(name, value.as_bytes()),
            EventRef::Text(t) | EventRef::CData(t) => self.text(t.as_bytes()),
            EventRef::End(_) => self.end(),
            EventRef::Comment(_) | EventRef::Pi { .. } => self.misc(),
        }
    }

    /// Finishes the document. Errors on an unbalanced or empty stream.
    pub fn finish(self) -> Result<S::Output> {
        let (skeleton, root) = self.builder.finish()?;
        Ok(self.sink.finish(skeleton, root, self.stats))
    }
}

/// Runs a whole document through a [`Pipeline`] whose values spill to
/// `spill` — the store ingest. `dictionary` says whether the vectors
/// will be finished with [`SpillVector::finish_auto`], which needs a
/// dictionary candidate; plain ones keep none.
pub fn run<R: Read>(
    mut events: Events<R>,
    spill: Spill<File>,
    options: PipelineOptions,
    dictionary: bool,
) -> Result<IngestOutput> {
    let sink = SpillSink {
        spill,
        vectors: Vec::new(),
        dictionary,
    };
    let mut pipeline = Pipeline::new(sink, options);
    while let Some(event) = events.next_ref()? {
        pipeline.feed(event)?;
    }
    pipeline.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn temp_spill(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("vx-ingest-{}-{name}.spill", std::process::id()))
    }

    fn ingest(xml: &str, name: &str, options: PipelineOptions) -> Result<IngestOutput> {
        let spill = Spill::create(&temp_spill(name)).unwrap();
        run(Events::new(xml.as_bytes()), spill, options, true)
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
