//! `vx-engine` — query evaluation over vectorized documents (DESIGN.md
//! row 6).
//!
//! The paper evaluates XQ[*,//] by compiling a query into a *query graph*
//! and reducing it against `VEC(T)` with vector operations, never
//! rebuilding the document:
//!
//! * [`compile`] turns a (desugared) [`vx_xquery::Query`] into a
//!   [`QueryGraph`]: a DAG of variable nodes rooted at documents or other
//!   variables through step patterns (with `*` and `//`), value
//!   references, literal selection filters, equality join edges, and an
//!   output — a projected value sequence or a result-skeleton template.
//! * [`reduce`] evaluates the graph against named [`vx_core::VecDoc`]s in
//!   one skeleton pass per document: patterns run as NFAs over the
//!   hash-consed skeleton, per-occurrence value ranges come from the
//!   per-path cursors (document order makes them contiguous), selections
//!   mark occurrences before joins probe their join tables, and element
//!   construction streams through the vectorizer ([`vx_core::Pipeline`]
//!   over a [`vx_core::VecDoc`]) — the result of a constructor query is
//!   itself a `VEC(T)`, never a DOM.
//! * [`naive_eval`] is the differential oracle: an independent
//!   nested-loop evaluator over the reconstructed DOM. `reduce` and
//!   `naive_eval` must agree on every supported query; the engine tests
//!   enforce this.
//!
//! The ergonomic entry point is [`Query`]: parse and compile once, run
//! against many documents, and get a [`QueryOutput`] that is either raw
//! byte values or a vectorized result document.
//!
//! Anything outside the fragment — qualifiers inside constructor content,
//! whole-element bare returns, document-rooted bare returns — fails with
//! a structured [`EngineError::Unsupported`] naming the construct and its
//! source span rather than silently approximating.

mod graph;
mod oracle;
mod plan;
mod profile;
mod reduce;

pub use graph::{
    compile, Block, Filter, FilterTest, Join, Output, PatStep, PatTest, QueryGraph, RefKind,
    Template, TplItem, ValueRef, VarNode,
};
pub use oracle::{naive_eval, NaiveOutput};
pub use plan::{IndexSource, Plan, PlanFilter, PlanJoin, PlanVar, RunOptions};
pub use profile::{QueryProfile, VarCardinality};
pub use reduce::{reduce, reduce_profiled, DocBinding};

use std::fmt;
use vx_core::{reconstruct_into, write_xml, CoreError, StoreHandle, VecDoc};
use vx_xml::{Sink, XmlWriter};
use vx_xquery::{Span, XqError};

/// Engine errors.
#[derive(Debug)]
pub enum EngineError {
    /// Query parse failure.
    Xq(XqError),
    /// Failure from the core layer (reconstruction, store access).
    Core(CoreError),
    /// The query is valid XQ but outside the fragment this engine
    /// evaluates. `construct` names the offending construct; `span` is
    /// its byte range in the query source, when known.
    Unsupported {
        construct: String,
        span: Option<Span>,
    },
    /// The query mentions `doc("…")` for a name the caller did not
    /// provide.
    UnknownDocument(String),
    /// The vectorized document is internally inconsistent.
    Corrupt(String),
}

impl EngineError {
    pub(crate) fn unsupported(construct: impl Into<String>, span: Option<Span>) -> Self {
        EngineError::Unsupported {
            construct: construct.into(),
            span,
        }
    }
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Xq(e) => write!(f, "{e}"),
            EngineError::Core(e) => write!(f, "{e}"),
            EngineError::Unsupported { construct, span } => {
                write!(f, "unsupported query construct: {construct}")?;
                if let Some(span) = span {
                    write!(f, " (at bytes {}..{})", span.start, span.end)?;
                }
                Ok(())
            }
            EngineError::UnknownDocument(name) => {
                write!(f, "query references unknown document doc(\"{name}\")")
            }
            EngineError::Corrupt(m) => write!(f, "corrupt vectorized document: {m}"),
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Xq(e) => Some(e),
            EngineError::Core(e) => Some(e),
            _ => None,
        }
    }
}

impl From<XqError> for EngineError {
    fn from(e: XqError) -> Self {
        EngineError::Xq(e)
    }
}

impl From<CoreError> for EngineError {
    fn from(e: CoreError) -> Self {
        EngineError::Core(e)
    }
}

impl From<vx_core::IngestError> for EngineError {
    fn from(e: vx_core::IngestError) -> Self {
        EngineError::Core(e.into())
    }
}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, EngineError>;

/// What a query runs against: one document, a named corpus, or opened
/// store handles (whose precomputed [`vx_skeleton::PathIndex`] and
/// persistent value indexes are reused). Built via `From`, so
/// [`Query::run_with`] accepts any of the four shapes directly.
#[derive(Debug, Clone, Copy)]
pub enum Targets<'a> {
    /// Every `doc("…")` name in the query resolves to this document.
    Doc(&'a VecDoc),
    /// Each `doc("name")` resolves through the slice (first entry wins
    /// on duplicates); unknown names fail with
    /// [`EngineError::UnknownDocument`].
    Corpus(&'a [(&'a str, &'a VecDoc)]),
    /// Every `doc("…")` name resolves to this opened store.
    Handle(&'a StoreHandle),
    /// Each `doc("name")` resolves to the handle whose
    /// [`StoreHandle::name`] matches.
    Handles(&'a [StoreHandle]),
}

impl<'a> From<&'a VecDoc> for Targets<'a> {
    fn from(doc: &'a VecDoc) -> Self {
        Targets::Doc(doc)
    }
}

impl<'a> From<&'a [(&'a str, &'a VecDoc)]> for Targets<'a> {
    fn from(docs: &'a [(&'a str, &'a VecDoc)]) -> Self {
        Targets::Corpus(docs)
    }
}

impl<'a> From<&'a Vec<(&'a str, &'a VecDoc)>> for Targets<'a> {
    fn from(docs: &'a Vec<(&'a str, &'a VecDoc)>) -> Self {
        Targets::Corpus(docs)
    }
}

impl<'a> From<&'a StoreHandle> for Targets<'a> {
    fn from(store: &'a StoreHandle) -> Self {
        Targets::Handle(store)
    }
}

impl<'a> From<&'a [StoreHandle]> for Targets<'a> {
    fn from(stores: &'a [StoreHandle]) -> Self {
        Targets::Handles(stores)
    }
}

impl<'a> From<&'a Vec<StoreHandle>> for Targets<'a> {
    fn from(stores: &'a Vec<StoreHandle>) -> Self {
        Targets::Handles(stores)
    }
}

/// What [`Query::run_with`] returns: the output, plus the profile when
/// [`RunOptions::profile`] asked for one.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    pub output: QueryOutput,
    pub profile: Option<QueryProfile>,
}

/// A compiled query: parse and compile once, run many times.
///
/// ```
/// use vx_engine::{Query, QueryOutput, RunOptions};
/// let xml = "<lib><book><t>A</t></book><book><t>B</t></book></lib>";
/// let doc = vx_core::vectorize(&vx_xml::parse(xml).unwrap()).unwrap();
/// let q = Query::new(r#"for $b in doc("lib")//book return $b/t"#).unwrap();
/// let out = q.run_with(&doc, &RunOptions::default()).unwrap().output;
/// assert_eq!(out.strings(), vec!["A", "B"]);
/// ```
#[derive(Debug, Clone)]
pub struct Query {
    source: String,
    graph: QueryGraph,
}

/// A compiled query holds no per-run state — compile once, run from any
/// number of threads. Kept true at compile time: if scratch ever leaks
/// into `Query`, `vx serve`'s shared query cache stops building here.
const fn assert_send_sync<T: Send + Sync>() {}
const _: () = assert_send_sync::<Query>();

impl Query {
    /// Parses, desugars, and compiles `source`.
    pub fn new(source: &str) -> Result<Query> {
        let parsed = vx_xquery::parse_query(source)?;
        let graph = compile(&parsed)?;
        Ok(Query {
            source: source.to_string(),
            graph,
        })
    }

    /// The original query text.
    pub fn source(&self) -> &str {
        &self.source
    }

    /// The compiled query graph.
    pub fn graph(&self) -> &QueryGraph {
        &self.graph
    }

    /// Resolves `targets` into per-document bindings. Handle-backed
    /// targets carry their precomputed [`vx_skeleton::PathIndex`];
    /// bare documents and corpora build one per run.
    fn bindings<'a>(&'a self, targets: &Targets<'a>) -> Vec<DocBinding<'a>> {
        match *targets {
            Targets::Doc(doc) => self
                .graph
                .doc_names()
                .into_iter()
                .map(|name| DocBinding {
                    name,
                    doc,
                    index: None,
                })
                .collect(),
            Targets::Corpus(docs) => docs
                .iter()
                .map(|&(name, doc)| DocBinding {
                    name,
                    doc,
                    index: None,
                })
                .collect(),
            Targets::Handle(store) => self
                .graph
                .doc_names()
                .into_iter()
                .map(|name| DocBinding {
                    name,
                    doc: store.doc(),
                    index: Some(store.index()),
                })
                .collect(),
            Targets::Handles(stores) => stores
                .iter()
                .map(|s| DocBinding {
                    name: s.name(),
                    doc: s.doc(),
                    index: Some(s.index()),
                })
                .collect(),
        }
    }

    /// Runs the query against any [`Targets`] shape under one option
    /// set — the single execution entry point (the pre-0.3
    /// `run`/`run_corpus`/`run_handle`/… family is gone; [`Targets`]
    /// conversions cover every shape it handled).
    ///
    /// With [`RunOptions::profile`] the outcome carries a
    /// [`QueryProfile`].
    pub fn run_with<'a>(
        &'a self,
        targets: impl Into<Targets<'a>>,
        options: &RunOptions,
    ) -> Result<RunOutcome> {
        let targets = targets.into();
        let bindings = self.bindings(&targets);
        let (output, profile) = reduce::reduce_with(&self.graph, &bindings, &self.source, options)?;
        Ok(RunOutcome { output, profile })
    }

    /// Explains how the query would execute against `targets` under the
    /// default options: runs collection (one skeleton pass — never
    /// enumeration), then reports exact per-variable cardinalities,
    /// where each join edge's sorted runs come from (the same decision
    /// execution uses), and which literal filters resolve through
    /// persistent value indexes. The rendered form is stable
    /// (`vx explain`, the server's `"explain": true`).
    pub fn explain<'a>(&'a self, targets: impl Into<Targets<'a>>) -> Result<Plan> {
        self.explain_with(targets, &RunOptions::default())
    }

    /// As [`Query::explain`] under explicit options (indexes off, the
    /// structural index off).
    pub fn explain_with<'a>(
        &'a self,
        targets: impl Into<Targets<'a>>,
        options: &RunOptions,
    ) -> Result<Plan> {
        let targets = targets.into();
        let bindings = self.bindings(&targets);
        reduce::explain_with(&self.graph, &bindings, options)
    }
}

/// The result of running a [`Query`].
// One value exists per query result; the size gap between the variants
// (`VecDoc` carries its sorted-run side-table inline) never multiplies.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum QueryOutput {
    /// `return $x/p` — the projected text values, as raw bytes (XML text
    /// is not guaranteed to be meaningful UTF-8 after vectorization;
    /// decoding is an explicit opt-in via [`QueryOutput::strings`]).
    Values(Vec<Vec<u8>>),
    /// `return <r>…</r>` — a *vectorized* result document: the
    /// constructed elements under a synthetic `<results>` root, built
    /// skeleton-and-vectors first (never a DOM).
    Document(VecDoc),
}

impl QueryOutput {
    /// The output's text values, lossily decoded to `String`s. For
    /// `Values` these are the projected values; for `Document`, every
    /// text value of the constructed document in document order
    /// (attribute values first within each element, matching
    /// vectorization order), collected by one walk over it.
    pub fn strings(&self) -> Vec<String> {
        match self {
            QueryOutput::Values(values) => values
                .iter()
                .map(|v| String::from_utf8_lossy(v).into_owned())
                .collect(),
            QueryOutput::Document(doc) => {
                let mut texts = Texts(Vec::new());
                match reconstruct_into(doc, &mut texts) {
                    Ok(()) => texts.0,
                    Err(_) => Vec::new(),
                }
            }
        }
    }

    /// Writes the output to `out` as compact XML, streamed without a
    /// DOM. A `Document` is written from its skeleton and vectors;
    /// `Values` are wrapped as `<results><value>…</value></results>`
    /// (lossily decoded). An I/O failure is `Core(CoreError::Io(_))`.
    pub fn write_xml(&self, out: &mut impl std::io::Write) -> Result<()> {
        match self {
            QueryOutput::Document(doc) => write_xml(doc, out)?,
            QueryOutput::Values(values) => {
                write_values(values, &mut XmlWriter::new(out)).map_err(CoreError::from)?
            }
        }
        Ok(())
    }

    /// [`QueryOutput::write_xml`] into a `String`.
    pub fn to_xml(&self) -> Result<String> {
        let mut out = Vec::new();
        self.write_xml(&mut out)?;
        Ok(String::from_utf8(out).expect("the writer emits only UTF-8"))
    }
}

fn write_values(values: &[Vec<u8>], writer: &mut impl Sink) -> std::io::Result<()> {
    writer.start("results")?;
    for value in values {
        writer.start("value")?;
        writer.text(&String::from_utf8_lossy(value))?;
        writer.end("value")?;
    }
    writer.end("results")
}

/// A [`Sink`] that keeps only the text values, attributes included.
struct Texts(Vec<String>);

impl Sink for Texts {
    fn start(&mut self, _name: &str) -> std::io::Result<()> {
        Ok(())
    }

    fn attr(&mut self, _name: &str, value: &str) -> std::io::Result<()> {
        self.0.push(value.to_string());
        Ok(())
    }

    fn text(&mut self, text: &str) -> std::io::Result<()> {
        self.0.push(text.to_string());
        Ok(())
    }

    fn end(&mut self, _name: &str) -> std::io::Result<()> {
        Ok(())
    }
}
