//! Vectorized evaluation of a [`QueryGraph`] — the paper's `reduce`.
//!
//! Evaluation never rebuilds a document. It makes **one pass over each
//! document's hash-consed skeleton**, running every variable and value
//! reference pattern as an NFA "machine" (the bitmask automata of
//! [`vx_skeleton::PathPattern`]). During the pass it collects *extended
//! vectors*: per-occurrence rows holding the parent occurrence, the
//! vector positions of referenced text values (document order makes each
//! occurrence's values a run of cursor positions), existence flags, and
//! copy tasks (a skeleton node, its path id and the cursors of the text
//! paths below it — enough to stream a deep copy later without having
//! visited it).
//!
//! The pass is one [`vx_skeleton::Traversal`], so no document depth
//! reaches the native stack. It carries a dense path id ([`PathId`])
//! instead of a path string: a per-document trie numbers each absolute
//! element path on first sight and resolves a path's vector at its
//! first text, and the cursors are a `Vec` indexed by vector position,
//! so a visit hashes no string and, once its paths are numbered,
//! allocates nothing. Subtrees in which no
//! machine is alive are never entered: each `(path id, node)`'s text
//! layout, resolved once from [`PathIndex::texts_below`], bulk advances
//! the cursors across them, so the pass touches only the parts of the
//! skeleton the query mentions plus `O(paths)` integer adds per skipped
//! subtree.
//!
//! Tuple enumeration then runs *selections before joins*: literal
//! filters are checked the moment a variable binds, while each equality
//! edge probes one join table built before enumeration over the side
//! bound last ([`crate::Join::ready_at`]): the build occurrences grouped
//! by value in one sort-merge, probed as sorted slices. One [`Planner`]
//! decides each edge's and filter's access, for execution and for
//! [`explain_with`] alike. Binding order is document order, so results
//! come out in document order without sorting. Output either
//! projects value bytes or streams element construction through the
//! vectorizer ([`Pipeline`] over a [`VecDoc`]) — the result of a
//! constructor query is itself a vectorized document, never a DOM.

use crate::graph::{
    Block, Filter, FilterTest, Join, Output, PatStep, PatTest, QueryGraph, RefKind, Template,
    TplItem,
};
use crate::plan::{IndexSource, Plan, PlanFilter, PlanJoin, PlanVar, RunOptions};
use crate::profile::{QueryProfile, VarCardinality};
use crate::{EngineError, QueryOutput, Result};
use std::borrow::Cow;
use std::cell::{Cell, RefCell};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::ops::Range;
use std::time::Instant;
use vx_core::{IdMap, PathId, PathIds, Pipeline, PipelineOptions, VecDoc, SUPER_ROOT};
use vx_obs::{Counters, Spans};
use vx_skeleton::{
    NameId, NodeId, PathIndex, PathPattern, PatternStep, PatternTest, Skeleton, StructIndex, Visit,
};

/// One document made available to evaluation: its `doc("…")` name, the
/// decoded vectorized document, and — for handle-opened stores — the
/// precomputed [`PathIndex`] shared by every query over that store.
/// When `index` is `None`, collection builds (and integrity-gates) a
/// fresh index for the run; when it is `Some`, the store was already
/// gated at [`vx_core::StoreHandle::open`] time.
#[derive(Clone, Copy)]
pub struct DocBinding<'a> {
    /// The `doc("…")` name this entry answers to.
    pub name: &'a str,
    /// The decoded vectorized document.
    pub doc: &'a VecDoc,
    /// Precomputed per-node text layout, if the caller holds one.
    pub index: Option<&'a PathIndex>,
}

fn bindings_of<'a>(docs: &'a [(&'a str, &'a VecDoc)]) -> Vec<DocBinding<'a>> {
    docs.iter()
        .map(|&(name, doc)| DocBinding {
            name,
            doc,
            index: None,
        })
        .collect()
}

/// Evaluates `graph` against the named documents. Every `doc("…")` name
/// the graph mentions must appear in `docs` (first entry wins on
/// duplicates).
pub fn reduce(graph: &QueryGraph, docs: &[(&str, &VecDoc)]) -> Result<QueryOutput> {
    Ok(reduce_inner(graph, &bindings_of(docs), "", &RunOptions::default())?.0)
}

/// The one evaluation entry point: everything [`crate::Query::run_with`]
/// exposes routes through here. `hint` labels `VX_LOG` events (the query
/// source).
pub(crate) fn reduce_with(
    graph: &QueryGraph,
    docs: &[DocBinding<'_>],
    hint: &str,
    options: &RunOptions,
) -> Result<(QueryOutput, Option<QueryProfile>)> {
    reduce_inner(graph, docs, hint, options)
}

/// Evaluates `graph` with instrumentation on: the returned
/// [`QueryProfile`] carries per-step spans (which tile the total),
/// deterministic operation counters, and per-variable extended-vector
/// cardinalities. `hint` labels the query in `VX_LOG` events.
pub fn reduce_profiled(
    graph: &QueryGraph,
    docs: &[(&str, &VecDoc)],
    hint: &str,
) -> Result<(QueryOutput, QueryProfile)> {
    let options = RunOptions {
        profile: true,
        ..RunOptions::default()
    };
    let (output, profile) = reduce_inner(graph, &bindings_of(docs), hint, &options)?;
    Ok((
        output,
        profile.expect("reduce_inner profiles when asked to"),
    ))
}

/// Where each variable and reference of a graph lives.
struct Layout {
    /// `[var]` → the index in `docs` of the document it evaluates in.
    var_doc: Vec<usize>,
    /// `[var]` → its child variables.
    var_children: Vec<Vec<usize>>,
    /// `[var]` → the references relative to it.
    refs_of_var: Vec<Vec<usize>>,
}

/// Resolves every `doc("…")` name against `docs` (first entry wins on
/// duplicates) and places each variable in its document.
fn layout(graph: &QueryGraph, docs: &[DocBinding<'_>]) -> Result<Layout> {
    let mut doc_of_name: HashMap<&str, usize> = HashMap::new();
    for (i, binding) in docs.iter().enumerate() {
        doc_of_name.entry(binding.name).or_insert(i);
    }
    for name in graph.doc_names() {
        if !doc_of_name.contains_key(name) {
            return Err(EngineError::UnknownDocument(name.to_string()));
        }
    }

    // Each variable evaluates inside exactly one document: its root
    // ancestor's. (`vars` is topologically ordered, parents first.)
    let mut var_doc: Vec<usize> = Vec::with_capacity(graph.vars.len());
    for var in &graph.vars {
        let d = match (&var.doc, var.parent) {
            (Some(name), _) => doc_of_name[name.as_str()],
            (None, Some(p)) => var_doc[p],
            (None, None) => {
                return Err(EngineError::Corrupt(
                    "variable with neither document nor parent root".into(),
                ))
            }
        };
        var_doc.push(d);
    }

    let mut var_children: Vec<Vec<usize>> = vec![Vec::new(); graph.vars.len()];
    for (v, var) in graph.vars.iter().enumerate() {
        if let Some(p) = var.parent {
            var_children[p].push(v);
        }
    }
    let mut refs_of_var: Vec<Vec<usize>> = vec![Vec::new(); graph.vars.len()];
    for (r, vref) in graph.refs.iter().enumerate() {
        refs_of_var[vref.var].push(r);
    }
    Ok(Layout {
        var_doc,
        var_children,
        refs_of_var,
    })
}

/// The shared evaluation body. Timers run only when `want_profile` is
/// set or the `VX_LOG` sink is active — an unprofiled run with `VX_LOG`
/// unset takes no timestamps beyond plain counter arithmetic, which is
/// what keeps the disabled path inside the < 5 % bench budget.
fn reduce_inner(
    graph: &QueryGraph,
    docs: &[DocBinding<'_>],
    hint: &str,
    options: &RunOptions,
) -> Result<(QueryOutput, Option<QueryProfile>)> {
    let profiling = options.profile || vx_obs::log_enabled();
    let total = Instant::now();
    let mut spans = Spans::new();
    if profiling {
        spans.tile(None);
    }

    let layout = layout(graph, docs)?;
    let var_doc = &layout.var_doc;
    if profiling {
        spans.tile(Some("plan"));
    }
    let (state, walk_tally) = collect(
        graph,
        docs,
        &layout,
        options.struct_index,
        profiling.then_some(&mut spans),
    )?;

    // Candidate lists: occurrences of each variable grouped by parent
    // occurrence (document order within each group).
    let mut child_occs: Vec<Vec<Vec<usize>>> = Vec::with_capacity(graph.vars.len());
    for (v, var) in graph.vars.iter().enumerate() {
        match var.parent {
            Some(p) => {
                let mut groups = vec![Vec::new(); state.occ_parent[p].len()];
                for (occ, &parent) in state.occ_parent[v].iter().enumerate() {
                    groups[parent].push(occ);
                }
                child_occs.push(groups);
            }
            None => child_occs.push(Vec::new()),
        }
    }
    if profiling {
        spans.tile(Some("group"));
    }

    let plans = plan_execution(
        &Planner {
            graph,
            docs,
            var_doc,
            state: &state,
            use_indexes: options.use_indexes,
        },
        options.trace,
    );
    if profiling {
        spans.tile(Some("join-build"));
    }

    let eval = Eval {
        graph,
        docs,
        var_doc,
        state: &state,
        child_occs: &child_occs,
        plans,
        profiling,
        tally: EnumTally::default(),
        copy_cursors: RefCell::new(Vec::new()),
    };

    let mut env = vec![usize::MAX; graph.vars.len()];
    let output = match &graph.block.output {
        Output::Values(_) => {
            let mut out = Vec::new();
            eval.run_block(&graph.block, &mut env, &mut Sink::Values(&mut out))?;
            QueryOutput::Values(out)
        }
        Output::Document(_) => {
            let mut builder = Pipeline::new(VecDoc::default(), PipelineOptions::default());
            builder.start("results")?;
            eval.run_block(&graph.block, &mut env, &mut Sink::Builder(&mut builder))?;
            builder.end()?;
            QueryOutput::Document(builder.finish()?)
        }
    };

    if !profiling {
        return Ok((output, None));
    }

    // Per-emit output time was measured inside the enumeration loop;
    // re-attribute it so `enumerate` + `output` still tile the interval.
    spans.tile(Some("enumerate"));
    let total_secs = total.elapsed().as_secs_f64();
    let output_secs = eval.tally.output_secs.get();
    spans.deduct("enumerate", output_secs);
    spans.record("output", output_secs);

    let mut counters = Counters::new();
    counters.add("skeleton.visits", walk_tally.visits);
    counters.add("skeleton.bulk_skips", walk_tally.bulk_skips);
    counters.add("nfa.advances", walk_tally.nfa_advances);
    counters.add("nfa.accepts", walk_tally.nfa_accepts);
    counters.add("cursor.values.passed", walk_tally.values_passed);
    counters.add("cursor.values.skipped", walk_tally.values_skipped);
    counters.add("struct.summary.hits", walk_tally.summary_hits);
    counters.add("struct.nodes.skipped", walk_tally.nodes_skipped);
    counters.add("struct.fallbacks", walk_tally.fallbacks);
    counters.add(
        "occ.rows",
        state.occ_parent.iter().map(|v| v.len() as u64).sum(),
    );
    counters.add(
        "join.build.entries",
        eval.plans
            .values()
            .flat_map(|exec| exec.joins.iter().flatten())
            .map(|table| table.group_occs.len() as u64)
            .sum(),
    );
    counters.add("join.probe.hits", eval.tally.probe_hits.get());
    counters.add("join.probe.misses", eval.tally.probe_misses.get());
    counters.add("enum.candidates", eval.tally.candidates.get());
    counters.add("filter.checks", eval.tally.filter_checks.get());
    counters.add("filter.passes", eval.tally.filter_passes.get());
    counters.add("tuples.emitted", eval.tally.tuples.get());
    counters.add("values.emitted", eval.tally.values.get());

    let variables = graph
        .vars
        .iter()
        .enumerate()
        .map(|(v, var)| VarCardinality {
            name: var.name.clone(),
            occurrences: state.occ_parent[v].len() as u64,
        })
        .collect();

    let profile = QueryProfile {
        steps: spans.into_spans(),
        counters,
        variables,
        total_secs,
    };
    profile.log(hint, options.trace);
    Ok((output, Some(profile)))
}

// ---------------------------------------------------------------------
// Extended-vector state collected by the skeleton pass.
// ---------------------------------------------------------------------

/// A recorded deep copy: enough to stream the subtree later without
/// having entered it during collection.
#[derive(Debug)]
struct CopyTask {
    node: NodeId,
    /// The path id of `node` (its own tag included).
    path: PathId,
    /// The cursor of each text path below `node` when the copy root was
    /// reached, in the order of the node's memoised layout
    /// ([`PathTrie::layout`]).
    starts: Vec<usize>,
}

/// Per-reference collected data, indexed `[occurrence of owning var]`.
#[derive(Debug)]
enum RefData {
    Exists(Vec<bool>),
    /// Groups of `(vector index, value index)` — one group per accepting
    /// element, in document order; flattened after collection.
    Values(Vec<Vec<Vec<(usize, usize)>>>),
    /// Post-collection flattened form of `Values`.
    Flat(Vec<Vec<(usize, usize)>>),
    Copy(Vec<Vec<CopyTask>>),
}

struct State {
    /// `[var][occ]` → parent occurrence index (0 under a document root).
    occ_parent: Vec<Vec<usize>>,
    /// `[ref]` → per-occurrence data.
    ref_data: Vec<RefData>,
    /// `[doc]` → the path trie its pass built (copy tasks replay by id).
    paths: Vec<Option<PathTrie>>,
}

impl State {
    fn new(graph: &QueryGraph, docs: usize) -> State {
        State {
            occ_parent: vec![Vec::new(); graph.vars.len()],
            paths: (0..docs).map(|_| None).collect(),
            ref_data: graph
                .refs
                .iter()
                .map(|r| match r.kind {
                    RefKind::Exists => RefData::Exists(Vec::new()),
                    RefKind::Values => RefData::Values(Vec::new()),
                    RefKind::Copy => RefData::Copy(Vec::new()),
                })
                .collect(),
        }
    }

    fn flatten_values(&mut self) {
        for data in &mut self.ref_data {
            if let RefData::Values(groups) = data {
                let flat = groups
                    .drain(..)
                    .map(|g| g.into_iter().flatten().collect())
                    .collect();
                *data = RefData::Flat(flat);
            }
        }
    }

    fn exists(&self, r: usize, occ: usize) -> bool {
        match &self.ref_data[r] {
            RefData::Exists(v) => v[occ],
            _ => false,
        }
    }

    fn values(&self, r: usize, occ: usize) -> &[(usize, usize)] {
        match &self.ref_data[r] {
            RefData::Flat(v) => &v[occ],
            _ => &[],
        }
    }

    fn copies(&self, r: usize, occ: usize) -> &[CopyTask] {
        match &self.ref_data[r] {
            RefData::Copy(v) => &v[occ],
            _ => &[],
        }
    }
}

/// Counters accumulated by the skeleton pass. Plain integer adds on the
/// hot path — cheap enough to keep unconditionally live, so counter
/// values never depend on whether profiling was requested.
#[derive(Debug, Default)]
struct WalkTally {
    /// Skeleton elements entered (`skeleton.visits`).
    visits: u64,
    /// Subtrees bulk-skipped without entering (`skeleton.bulk_skips`).
    bulk_skips: u64,
    /// NFA machine-advance operations (`nfa.advances`).
    nfa_advances: u64,
    /// Pattern accept events (`nfa.accepts`).
    nfa_accepts: u64,
    /// Text values passed edge-by-edge (`cursor.values.passed`).
    values_passed: u64,
    /// Text values bulk-advanced during skips (`cursor.values.skipped`).
    values_skipped: u64,
    /// Machines ruled out at a skipped subtree because the structural
    /// self-index proved their remaining steps cannot complete inside
    /// it (`struct.summary.hits`).
    summary_hits: u64,
    /// Expanded nodes of subtrees skipped *because* the structural
    /// index proved no machine viable inside (`struct.nodes.skipped`).
    nodes_skipped: u64,
    /// Patterns that fell back to the plain NFA walk while the
    /// structural index was on — summary-opaque patterns with no named
    /// step (`struct.fallbacks`).
    fallbacks: u64,
}

/// Counters accumulated during tuple enumeration. `Cell`s because the
/// [`Eval`] methods take `&self` (they also hold shared borrows into the
/// join indexes mid-recursion).
#[derive(Debug, Default)]
struct EnumTally {
    /// Probe occurrences whose match list was non-empty / empty.
    probe_hits: Cell<u64>,
    probe_misses: Cell<u64>,
    /// Candidate occurrences examined by `bind` (`enum.candidates`).
    candidates: Cell<u64>,
    filter_checks: Cell<u64>,
    filter_passes: Cell<u64>,
    tuples: Cell<u64>,
    values: Cell<u64>,
    /// Seconds spent emitting output, measured only when
    /// `Eval::profiling` is set; re-attributed out of `enumerate`.
    output_secs: Cell<f64>,
    /// Guards nested template blocks from double-counting output time.
    in_output: Cell<bool>,
}

fn bump(cell: &Cell<u64>) {
    cell.set(cell.get() + 1);
}

// ---------------------------------------------------------------------
// Collection: the single skeleton pass per document.
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Target {
    Var(usize),
    Ref(usize),
}

#[derive(Debug, Clone, Copy)]
struct Machine {
    target: Target,
    /// For `Var`: the parent variable's occurrence. For `Ref`: the
    /// owning variable's occurrence.
    owner: usize,
    states: u64,
}

/// A `Values` reference whose pattern accepted at the current element:
/// the element's direct text children land in group `group`.
struct Collector {
    r: usize,
    occ: usize,
    group: usize,
}

/// Per-pattern precompute for structural pruning: for each NFA state
/// bit `i`, what the suffix `steps[i..]` demands of a subtree before it
/// can possibly complete there. Consulted per element child during the
/// walk; `None` (summary-opaque pattern) means the machine always runs
/// the plain NFA.
#[derive(Clone)]
struct PatMeta {
    len: usize,
    /// Words per name bitset (matches the structural index's layout).
    blocks: usize,
    /// `suffix[i*blocks..]`: bitset of concrete names steps `i..` still
    /// need to find — all must occur at or below a subtree's root.
    suffix: Vec<u64>,
    /// `impossible[i]`: some step `j ≥ i` names a tag absent from this
    /// document; state bit `i` can never reach the accept bit.
    impossible: Vec<bool>,
}

/// Builds the pruning metadata, or `None` when the pattern has no named
/// step to anchor on (`//*`-style patterns are summary-opaque: the path
/// summary cannot rule any subtree out, so pruning would be pure
/// overhead).
fn meta_of(pattern: &PathPattern, name_count: usize) -> Option<PatMeta> {
    let steps = pattern.steps();
    if !steps.iter().any(|s| matches!(s.test, PatternTest::Name(_))) {
        return None;
    }
    let len = steps.len();
    let blocks = name_count.div_ceil(64).max(1);
    let mut suffix = vec![0u64; len * blocks];
    let mut impossible = vec![false; len];
    let mut acc = vec![0u64; blocks];
    let mut dead = false;
    for i in (0..len).rev() {
        match steps[i].test {
            PatternTest::Name(Some(id)) => {
                acc[id.0 as usize / 64] |= 1u64 << (id.0 % 64);
            }
            // The step names a tag this document never interned: no
            // element anywhere can match it.
            PatternTest::Name(None) => dead = true,
            PatternTest::Any => {}
        }
        suffix[i * blocks..(i + 1) * blocks].copy_from_slice(&acc);
        impossible[i] = dead;
    }
    Some(PatMeta {
        len,
        blocks,
        suffix,
        impossible,
    })
}

fn pattern_of(steps: &[PatStep], skeleton: &Skeleton) -> Result<PathPattern> {
    PathPattern::new(
        steps
            .iter()
            .map(|s| PatternStep {
                descend: s.descend,
                test: match &s.test {
                    PatTest::Name(n) => PatternTest::Name(skeleton.name_id(n)),
                    PatTest::Any => PatternTest::Any,
                },
            })
            .collect(),
        skeleton,
    )
    .ok_or_else(|| {
        EngineError::unsupported(
            format!(
                "path pattern with more than {} steps",
                PathPattern::MAX_STEPS
            ),
            None,
        )
    })
}

/// The collection phase: one skeleton pass per referenced document, in
/// document order, then each reference's values flattened per
/// occurrence. With `spans` given (a profiled run) it tiles one
/// `match:{doc}` span per document.
fn collect(
    graph: &QueryGraph,
    docs: &[DocBinding<'_>],
    layout: &Layout,
    struct_enabled: bool,
    mut spans: Option<&mut Spans>,
) -> Result<(State, WalkTally)> {
    let mut state = State::new(graph, docs.len());
    let mut walk_tally = WalkTally::default();
    for (doc_idx, &binding) in docs.iter().enumerate() {
        if !layout.var_doc.contains(&doc_idx) {
            continue;
        }
        collect_doc(
            graph,
            binding,
            doc_idx,
            layout,
            &mut state,
            &mut walk_tally,
            struct_enabled,
        )?;
        if let Some(spans) = spans.as_deref_mut() {
            spans.tile(Some(&format!("match:{}", binding.name)));
        }
    }
    state.flatten_values();
    Ok((state, walk_tally))
}

fn collect_doc(
    graph: &QueryGraph,
    DocBinding {
        doc,
        index: precomputed,
        ..
    }: DocBinding<'_>,
    doc_idx: usize,
    Layout {
        var_doc,
        var_children,
        refs_of_var,
    }: &Layout,
    state: &mut State,
    tally: &mut WalkTally,
    struct_enabled: bool,
) -> Result<()> {
    let root = doc
        .root
        .ok_or_else(|| EngineError::Corrupt("document has no root".into()))?;
    let skeleton = &doc.skeleton;
    let root_name = skeleton
        .node(root)
        .name
        .ok_or_else(|| EngineError::Corrupt("document root is a text node".into()))?;

    let name_count = skeleton.names().len();
    let mut var_pat: Vec<Option<PathPattern>> = vec![None; graph.vars.len()];
    let mut ref_pat: Vec<Option<PathPattern>> = vec![None; graph.refs.len()];
    let mut var_meta: Vec<Option<PatMeta>> = vec![None; graph.vars.len()];
    let mut ref_meta: Vec<Option<PatMeta>> = vec![None; graph.refs.len()];
    for (v, var) in graph.vars.iter().enumerate() {
        if var_doc[v] == doc_idx {
            let pattern = pattern_of(&var.steps, skeleton)?;
            if struct_enabled {
                var_meta[v] = meta_of(&pattern, name_count);
                if var_meta[v].is_none() && !pattern.is_empty() {
                    tally.fallbacks += 1;
                }
            }
            var_pat[v] = Some(pattern);
        }
    }
    for (r, vref) in graph.refs.iter().enumerate() {
        if var_doc[vref.var] == doc_idx {
            let pattern = pattern_of(&vref.steps, skeleton)?;
            if struct_enabled {
                ref_meta[r] = meta_of(&pattern, name_count);
                if ref_meta[r].is_none() && !pattern.is_empty() {
                    tally.fallbacks += 1;
                }
            }
            ref_pat[r] = Some(pattern);
        }
    }

    // Handle-backed documents arrive with the index precomputed and the
    // store already integrity-gated at open time; bare `VecDoc`s build a
    // fresh index and are gated here.
    let built;
    let index: &PathIndex = match precomputed {
        Some(index) => index,
        None => {
            built = PathIndex::new(skeleton, root);
            vx_core::check_text_counts(doc, &built).map_err(EngineError::Corrupt)?;
            &built
        }
    };

    let mut paths = PathTrie::new();
    let root_path = paths.ids.child(SUPER_ROOT, root_name);
    let mut walker = Walker {
        doc,
        skeleton,
        index,
        structural: struct_enabled.then(|| index.structural()),
        graph,
        var_pat,
        ref_pat,
        var_meta,
        ref_meta,
        var_children,
        refs_of_var,
        state,
        tally,
        paths,
        cursors: vec![0; doc.vectors().len()],
        machines: Vec::new(),
        collectors: Vec::new(),
        root,
        root_path,
    };

    // The virtual super-root: document-rooted variables spawn here, so a
    // pattern's first step is matched against the root element itself.
    for (v, var) in graph.vars.iter().enumerate() {
        if var.doc.is_some() && var_doc[v] == doc_idx {
            walker.spawn(Target::Var(v), 0, None)?;
        }
    }
    walker.walk()?;
    state.paths[doc_idx] = Some(walker.paths);
    Ok(())
}

/// The walk's path summary: [`PathIds`] numbers every absolute element
/// path the pass meets, filled lazily during the document pass, and the
/// trie also memoises each `(PathId, NodeId)`'s text layout. It is kept
/// after the pass so copy tasks can be replayed by id.
struct PathTrie {
    ids: PathIds,
    /// `(PathId, NodeId)` → the node's text layout, a range of `texts`.
    layouts: IdMap<(PathId, NodeId), (usize, usize)>,
    /// Every layout's `(vector position, text count)` entries: one per
    /// text path below the node, from [`PathIndex::texts_below`].
    texts: Vec<(usize, u64)>,
}

impl PathTrie {
    fn new() -> PathTrie {
        PathTrie {
            ids: PathIds::default(),
            layouts: IdMap::default(),
            texts: Vec::new(),
        }
    }

    /// The vector of the text directly under `id`, resolved on first
    /// use; a missing one is a damaged document.
    fn text_vector(&mut self, id: PathId, doc: &VecDoc) -> Result<usize> {
        doc.text_vector(&mut self.ids, id).ok_or_else(|| {
            let mut path = String::new();
            self.ids.spell(id, &doc.skeleton, &mut path);
            EngineError::Corrupt(format!("no vector for text path {path:?}"))
        })
    }

    /// The memoised text layout of `node` reached at path `id`: the
    /// vector position and text count of each text path below it, as a
    /// range of `texts`. Built once per `(PathId, NodeId)`.
    fn layout(
        &mut self,
        id: PathId,
        node: NodeId,
        index: &PathIndex,
        doc: &VecDoc,
    ) -> Result<(usize, usize)> {
        if let Some(&range) = self.layouts.get(&(id, node)) {
            return Ok(range);
        }
        let start = self.texts.len();
        for &(rel, count) in index.texts_below(node) {
            let mut at = id;
            for name in index.rel_names(rel) {
                at = self.ids.child(at, name);
            }
            let pos = self.text_vector(at, doc)?;
            self.texts.push((pos, count));
        }
        let range = (start, self.texts.len());
        self.layouts.insert((id, node), range);
        Ok(range)
    }

    fn texts(&self, (lo, hi): (usize, usize)) -> &[(usize, u64)] {
        &self.texts[lo..hi]
    }
}

/// What an entered element keeps until it is left: the machine stack's
/// height when it was entered, its live machines, and where its own
/// `Values` collectors start.
#[derive(Clone, Copy)]
struct Level {
    hi: usize,
    live: (usize, usize),
    collectors: usize,
}

/// The per-document skeleton pass, one [`vx_skeleton::Traversal`].
/// Machines live on one stack: an entered element's machines are the
/// slice `[lo, hi)` at its top, entering advances them into the space
/// past the end, and leaving truncates back to `hi`.
struct Walker<'a> {
    doc: &'a VecDoc,
    skeleton: &'a Skeleton,
    index: &'a PathIndex,
    /// The structural self-index when summary pruning is enabled
    /// (`None` = pure NFA walk, `RunOptions::struct_index` off).
    structural: Option<&'a StructIndex>,
    graph: &'a QueryGraph,
    var_pat: Vec<Option<PathPattern>>,
    ref_pat: Vec<Option<PathPattern>>,
    var_meta: Vec<Option<PatMeta>>,
    ref_meta: Vec<Option<PatMeta>>,
    var_children: &'a [Vec<usize>],
    refs_of_var: &'a [Vec<usize>],
    state: &'a mut State,
    tally: &'a mut WalkTally,
    /// Every path met so far, with memoised layouts.
    paths: PathTrie,
    /// `[vector position]` → text values already passed, in document
    /// order.
    cursors: Vec<usize>,
    /// The machine stack.
    machines: Vec<Machine>,
    /// `Values` collectors of the elements on the current root-to-node
    /// chain; an element's texts go to those it pushed itself.
    collectors: Vec<Collector>,
    root: NodeId,
    /// The root element's path id.
    root_path: PathId,
}

impl Walker<'_> {
    fn pattern(&self, target: Target) -> &PathPattern {
        match target {
            Target::Var(v) => self.var_pat[v].as_ref().expect("pattern for local var"),
            Target::Ref(r) => self.ref_pat[r].as_ref().expect("pattern for local ref"),
        }
    }

    /// Starts a machine on the stack. An empty pattern accepts
    /// immediately at the spawn point (`at`: the element and its path;
    /// `None` is the virtual super-root).
    fn spawn(&mut self, target: Target, owner: usize, at: Option<(NodeId, PathId)>) -> Result<()> {
        self.machines.push(Machine {
            target,
            owner,
            states: PathPattern::START,
        });
        if self.pattern(target).is_empty() {
            self.accept(target, owner, at)?;
        }
        Ok(())
    }

    /// Handles a pattern reaching its accept state at `at`.
    fn accept(&mut self, target: Target, owner: usize, at: Option<(NodeId, PathId)>) -> Result<()> {
        match target {
            Target::Var(v) => {
                let occ = self.state.occ_parent[v].len();
                self.state.occ_parent[v].push(owner);
                for &r in self.refs_of_var[v].iter() {
                    match &mut self.state.ref_data[r] {
                        RefData::Exists(rows) => rows.push(false),
                        RefData::Values(rows) => rows.push(Vec::new()),
                        RefData::Copy(rows) => rows.push(Vec::new()),
                        RefData::Flat(_) => unreachable!("flattened after collection"),
                    }
                }
                for &w in self.var_children[v].iter() {
                    self.spawn(Target::Var(w), occ, at)?;
                }
                for &r in self.refs_of_var[v].iter() {
                    self.spawn(Target::Ref(r), occ, at)?;
                }
            }
            Target::Ref(r) => match self.graph.refs[r].kind {
                RefKind::Exists => {
                    if let RefData::Exists(rows) = &mut self.state.ref_data[r] {
                        rows[owner] = true;
                    }
                }
                RefKind::Values => {
                    if let RefData::Values(rows) = &mut self.state.ref_data[r] {
                        let group = rows[owner].len();
                        rows[owner].push(Vec::new());
                        self.collectors.push(Collector {
                            r,
                            occ: owner,
                            group,
                        });
                    }
                }
                RefKind::Copy => {
                    // Copying at the super-root copies the document: the
                    // root element, reached before any text was passed.
                    let (node, path) = at.unwrap_or((self.root, self.root_path));
                    let layout = self.paths.layout(path, node, self.index, self.doc)?;
                    let starts = self
                        .paths
                        .texts(layout)
                        .iter()
                        .map(|&(pos, _)| self.cursors[pos])
                        .collect();
                    if let RefData::Copy(rows) = &mut self.state.ref_data[r] {
                        rows[owner].push(CopyTask { node, path, starts });
                    }
                }
            },
        }
        Ok(())
    }

    /// Walks the document with the machines spawned at the super-root.
    /// Each entered element pushes its [`Level`], and leaving pops it.
    /// Each element run edge is decided once, at its first copy: all its
    /// copies are entered, or all bulk-skipped.
    fn walk(&mut self) -> Result<()> {
        let top = self.machines.len();
        // The innermost element's level; `outer` holds its ancestors'.
        let mut level = Level {
            hi: top,
            live: (0, top),
            collectors: 0,
        };
        let mut outer = Vec::new();
        let skeleton = self.skeleton;
        let mut traversal = skeleton.traverse(self.root, self.root_path);
        while let Some(visit) = traversal.next(|path, name| self.paths.ids.child(path, name)) {
            match visit {
                Visit::Enter {
                    node,
                    name,
                    label: path,
                    first,
                } => {
                    let (lo, hi) = level.live;
                    if !first || (lo != hi && !self.subtree_dead(lo..hi, node, name)) {
                        outer.push(level);
                        level = self.enter(node, name, path, (lo, hi))?;
                        continue;
                    }
                    // No machine can match anything below: bulk-advance
                    // the cursors over the run's copies without entering.
                    let run = 1 + traversal.skip_run();
                    traversal.skip_subtree();
                    if lo != hi {
                        // Structural pruning: summary evidence alone
                        // showed no machine can complete inside.
                        let structural = self.structural.expect("pruning implies an index");
                        self.tally.summary_hits += (hi - lo) as u64;
                        self.tally.nodes_skipped += structural.expanded(node) * run;
                    }
                    self.skip(node, path, run)?;
                }
                Visit::Text { label: path, run } => {
                    // Text children: their vector is the element's path's.
                    let vec_pos = self.paths.text_vector(path, self.doc)?;
                    let start = self.cursors[vec_pos];
                    self.cursors[vec_pos] += run as usize;
                    self.tally.values_passed += run;
                    for c in &self.collectors[level.collectors..] {
                        if let RefData::Values(rows) = &mut self.state.ref_data[c.r] {
                            for k in 0..run as usize {
                                rows[c.occ][c.group].push((vec_pos, start + k));
                            }
                        }
                    }
                }
                Visit::Leave { .. } => {
                    self.machines.truncate(level.hi);
                    self.collectors.truncate(level.collectors);
                    level = outer.pop().expect("left an entered element");
                }
            }
        }
        Ok(())
    }

    /// Enters the element `node` named `name` at path `path` with the
    /// machines `[lo, hi)`, the top of the stack, returning its level.
    fn enter(
        &mut self,
        node: NodeId,
        name: NameId,
        path: PathId,
        (lo, hi): (usize, usize),
    ) -> Result<Level> {
        debug_assert_eq!(self.machines.len(), hi);
        self.tally.visits += 1;
        self.tally.nfa_advances += (hi - lo) as u64;
        // Advance every machine over this element into `[hi, adv_hi)`.
        for i in lo..hi {
            let m = self.machines[i];
            let states = self.pattern(m.target).advance(m.states, name);
            if states != 0 {
                self.machines.push(Machine { states, ..m });
            }
        }
        // Accepts happen in machine order, which is parent-occurrence
        // order, so occurrence lists stay in document order. Each
        // machine lands on the live slice after whatever its accept
        // spawned.
        let adv_hi = self.machines.len();
        let collectors = self.collectors.len();
        for i in hi..adv_hi {
            let m = self.machines[i];
            if self.pattern(m.target).accepts(m.states) {
                self.tally.nfa_accepts += 1;
                self.accept(m.target, m.owner, Some((node, path)))?;
            }
            self.machines.push(m);
        }
        Ok(Level {
            hi,
            live: (adv_hi, self.machines.len()),
            collectors,
        })
    }

    /// Whether the whole subtree at `child` can be skipped: the index
    /// is loaded and *no* machine of `live` is viable inside it. Exits
    /// on the first viable machine and never allocates — partial
    /// pruning (copying the survivors) was measured to cost more than
    /// it saves on flat corpora, so the walk only acts on unanimous
    /// evidence.
    fn subtree_dead(&self, live: Range<usize>, child: NodeId, child_name: NameId) -> bool {
        let Some(structural) = self.structural else {
            return false;
        };
        !self.machines[live]
            .iter()
            .any(|m| self.machine_viable(structural, m, child, child_name))
    }

    /// Whether `m` can still reach its accept bit anywhere inside the
    /// subtree at `child`. Sound over-approximation: every concretely
    /// named remaining step must find its tag at or below `child`, and
    /// the remaining step count must fit in the subtree's element
    /// depth; the exact per-element transitions stay with
    /// `PathPattern::advance`.
    fn machine_viable(
        &self,
        structural: &StructIndex,
        m: &Machine,
        child: NodeId,
        child_name: NameId,
    ) -> bool {
        let meta = match m.target {
            Target::Var(v) => &self.var_meta[v],
            Target::Ref(r) => &self.ref_meta[r],
        };
        let Some(meta) = meta else {
            return true; // summary-opaque pattern: plain NFA walk
        };
        let below = structural.below_bits(child);
        let budget = 1 + structural.depth_below(child) as usize;
        let (name_word, name_bit) = (child_name.0 as usize / 64, 1u64 << (child_name.0 % 64));
        for i in 0..meta.len {
            if m.states & (1u64 << i) == 0 || meta.impossible[i] || meta.len - i > budget {
                continue;
            }
            let suffix = &meta.suffix[i * meta.blocks..(i + 1) * meta.blocks];
            let satisfied = suffix.iter().enumerate().all(|(w, &need)| {
                let have = below[w] | if w == name_word { name_bit } else { 0 };
                need & !have == 0
            });
            if satisfied {
                return true;
            }
        }
        // Only the accept bit (or nothing prunable) was alive: nothing
        // below this child can advance the machine further.
        false
    }

    /// Advances the cursors across `run` repetitions of the subtree at
    /// `child` (reached at path `child_path`) through its memoised
    /// layout: `O(paths)` integer adds, allocation-free once memoised.
    fn skip(&mut self, child: NodeId, child_path: PathId, run: u64) -> Result<()> {
        self.tally.bulk_skips += 1;
        let layout = self.paths.layout(child_path, child, self.index, self.doc)?;
        for &(pos, count) in self.paths.texts(layout) {
            self.cursors[pos] += (count * run) as usize;
            self.tally.values_skipped += count * run;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Enumeration: selections before joins, document-order tuples.
// ---------------------------------------------------------------------

enum Sink<'b> {
    Values(&'b mut Vec<Vec<u8>>),
    Builder(&'b mut Pipeline<VecDoc>),
}

struct Eval<'a> {
    graph: &'a QueryGraph,
    docs: &'a [DocBinding<'a>],
    var_doc: &'a [usize],
    state: &'a State,
    /// `[var][parent occ]` → candidate occurrences, ascending (empty
    /// outer Vec for document-rooted variables, whose candidates are all
    /// occurrences).
    child_occs: &'a [Vec<Vec<usize>>],
    /// Join tables and index-resolved literal filters, per block.
    plans: ExecPlans,
    /// Whether to take output-emission timestamps (counters are always
    /// live; only `Instant` calls are gated).
    profiling: bool,
    tally: EnumTally,
    /// `[vector position]` → copy cursors, seeded per copy task.
    copy_cursors: RefCell<Vec<usize>>,
}

/// Everything [`plan_execution`] pre-builds before enumeration, keyed by
/// block address (the graph outlives the plans).
type ExecPlans = HashMap<*const Block, BlockExec>;

/// One block's pre-built execution data, indexed like the block's own
/// `joins` and `filters`.
struct BlockExec {
    /// The table of each planned join edge; `None` for edges checked at
    /// block entry (both sides bound in enclosing blocks).
    joins: Vec<Option<JoinTable>>,
    /// The occurrences passing each `Eq` filter the planner resolved
    /// through a persistent value index (ascending); `None` for filters
    /// checked per occurrence.
    indexed: Vec<Option<Vec<usize>>>,
}

/// One planned join edge, built once before enumeration and probed as
/// sorted slices.
///
/// The build side is grouped by join value as compressed sparse rows:
/// group `g` holds the build occurrences carrying its value, ascending
/// and deduplicated. The probe side maps each probe occurrence to the
/// groups its values fall in, again as compressed rows. Both halves are
/// O(values), never O(join size). One merge of the two sides'
/// value-sorted runs finds every probe value's group.
struct JoinTable {
    /// `group_occs[group_offsets[g]..group_offsets[g + 1]]` is group `g`.
    group_offsets: Vec<usize>,
    group_occs: Vec<usize>,
    /// `probe_groups[probe_offsets[p]..probe_offsets[p + 1]]` are the
    /// groups probe occurrence `p` matches.
    probe_offsets: Vec<usize>,
    probe_groups: Vec<usize>,
}

impl JoinTable {
    fn build(state: &State, edge: &EdgePlan<'_>) -> JoinTable {
        // `(group, build occ)` pairs, then `(probe occ, group)` pairs.
        let build_run = sorted_run_for(state, &edge.build);
        let mut group_values: Vec<&[u8]> = Vec::new();
        let mut build_pairs = Vec::with_capacity(build_run.len());
        for &(v, occ) in &build_run {
            if group_values.last() != Some(&v) {
                group_values.push(v);
            }
            build_pairs.push((group_values.len() - 1, occ));
        }
        let mut probe_pairs = Vec::new();
        let mut g = 0;
        for (v, occ) in sorted_run_for(state, &edge.probe) {
            while g < group_values.len() && group_values[g] < v {
                g += 1;
            }
            if g == group_values.len() {
                break;
            }
            if group_values[g] == v {
                probe_pairs.push((occ, g));
            }
        }
        let (group_offsets, group_occs) = compress_rows(group_values.len(), &build_pairs);
        let (probe_offsets, probe_groups) = compress_rows(edge.probe.occs, &probe_pairs);
        JoinTable {
            group_offsets,
            group_occs,
            probe_offsets,
            probe_groups,
        }
    }

    fn group(&self, g: usize) -> &[usize] {
        &self.group_occs[self.group_offsets[g]..self.group_offsets[g + 1]]
    }

    /// The build occurrences matching probe occurrence `probe_occ`,
    /// ascending and deduplicated: borrowed when its values fall in one
    /// group, the k-way merge of its groups otherwise.
    fn matches(&self, probe_occ: usize) -> Cow<'_, [usize]> {
        let groups =
            &self.probe_groups[self.probe_offsets[probe_occ]..self.probe_offsets[probe_occ + 1]];
        match groups {
            [] => Cow::Borrowed(&[]),
            &[g] => Cow::Borrowed(self.group(g)),
            _ => {
                let lists: Vec<&[usize]> = groups.iter().map(|&g| self.group(g)).collect();
                Cow::Owned(merge_sorted(&lists))
            }
        }
    }
}

/// Compressed sparse rows from `(row, item)` pairs: `items[offsets[r]..
/// offsets[r + 1]]` holds row `r`'s items, ascending and deduplicated.
fn compress_rows(rows: usize, pairs: &[(usize, usize)]) -> (Vec<usize>, Vec<usize>) {
    let mut offsets = vec![0usize; rows + 1];
    for &(row, _) in pairs {
        offsets[row + 1] += 1;
    }
    for r in 0..rows {
        offsets[r + 1] += offsets[r];
    }
    let mut items = vec![0usize; pairs.len()];
    let mut fill = offsets[..rows].to_vec();
    for &(row, item) in pairs {
        items[fill[row]] = item;
        fill[row] += 1;
    }
    // Sort and deduplicate each row, compacting in place: row `r` still
    // starts at the old `offsets[r]` when it is reached.
    let mut kept = 0;
    for r in 0..rows {
        let (start, end) = (offsets[r], offsets[r + 1]);
        items[start..end].sort_unstable();
        offsets[r] = kept;
        for i in start..end {
            if kept == offsets[r] || items[kept - 1] != items[i] {
                items[kept] = items[i];
                kept += 1;
            }
        }
    }
    offsets[rows] = kept;
    items.truncate(kept);
    (offsets, items)
}

/// The k-way merge of ascending lists, deduplicated.
fn merge_sorted(lists: &[&[usize]]) -> Vec<usize> {
    let mut heads: BinaryHeap<Reverse<(usize, usize, usize)>> = lists
        .iter()
        .enumerate()
        .filter_map(|(l, list)| list.first().map(|&occ| Reverse((occ, l, 0))))
        .collect();
    let mut out = Vec::new();
    while let Some(Reverse((occ, l, i))) = heads.pop() {
        if out.last() != Some(&occ) {
            out.push(occ);
        }
        if let Some(&next) = lists[l].get(i + 1) {
            heads.push(Reverse((next, l, i + 1)));
        }
    }
    out
}

/// Calls `f` on each element common to two ascending lists, walking
/// them by two pointers; returns the number of comparisons made.
fn for_each_common(
    a: &[usize],
    b: &[usize],
    mut f: impl FnMut(usize) -> Result<()>,
) -> Result<usize> {
    let (mut i, mut j, mut steps) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        steps += 1;
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                f(a[i])?;
                i += 1;
                j += 1;
            }
        }
    }
    Ok(steps)
}

/// Narrows the occurrences allowed so far by one more sorted list.
fn narrow<'e>(allowed: Option<Cow<'e, [usize]>>, list: Cow<'e, [usize]>) -> Cow<'e, [usize]> {
    match allowed {
        None => list,
        Some(prev) => prev
            .iter()
            .copied()
            .filter(|occ| list.binary_search(occ).is_ok())
            .collect(),
    }
}

/// The build and probe references of a join that becomes checkable at
/// binding position `pos` of `block`.
fn join_sides(graph: &QueryGraph, block: &Block, join: &Join, pos: usize) -> (usize, usize) {
    let at_var = block.vars[pos];
    if graph.refs[join.left].var == at_var {
        (join.left, join.right)
    } else {
        (join.right, join.left)
    }
}

/// Total text values a reference collected across all occurrences of
/// its variable — the planner's exact cardinality.
fn ref_value_count(state: &State, r: usize, occs: usize) -> u64 {
    (0..occs).map(|occ| state.values(r, occ).len() as u64).sum()
}

/// The single vector all of `r`'s values come from, if its document
/// holds a persistent sorted run for it. Multi-vector references (a
/// `//` pattern matching several paths) fall back to query-time sorts.
fn persistent_vector_of(doc: &VecDoc, state: &State, r: usize, occs: usize) -> Option<usize> {
    let mut vec_idx: Option<usize> = None;
    for occ in 0..occs {
        for &(vec, _) in state.values(r, occ) {
            match vec_idx {
                None => vec_idx = Some(vec),
                Some(prev) if prev == vec => {}
                Some(_) => return None,
            }
        }
    }
    vec_idx.filter(|&v| doc.vectors()[v].values.sorted_order().is_some())
}

/// `vector position → occurrences referencing it` for a single-vector
/// reference, as compressed rows over the vector's `len` positions (see
/// [`compress_rows`]). A position can belong to several occurrences:
/// under `//S` with nested `S`s, `$s//NN` reaches the inner `S`'s values
/// from the outer one too.
fn occs_of_positions(state: &State, r: usize, occs: usize, len: usize) -> (Vec<usize>, Vec<usize>) {
    let pairs: Vec<(usize, usize)> = (0..occs)
        .flat_map(|occ| state.values(r, occ).iter().map(move |&(_, idx)| (idx, occ)))
        .collect();
    compress_rows(len, &pairs)
}

/// The bytes of the value at `(vector index, value index)`.
fn value_at<'d>(doc: &'d VecDoc, &(vec, idx): &(usize, usize)) -> &'d [u8] {
    &doc.vectors()[vec].values[idx]
}

/// One side of a planned join edge, as the [`Planner`] decided it.
struct EdgeSide<'a> {
    /// The value reference.
    r: usize,
    /// The document the reference's values live in.
    doc: &'a VecDoc,
    /// Occurrences of the reference's variable.
    occs: usize,
    /// Exact total values the reference collected.
    values: u64,
    /// The vector whose persistent sorted run supplies this side's
    /// `(value, occurrence)` run; `None` sorts the run at query time.
    run: Option<usize>,
}

/// A planned join edge's decisions, made once by [`Planner::edge`]:
/// [`plan_execution`] builds the edge's [`JoinTable`] from them and
/// [`explain_with`] renders them.
struct EdgePlan<'a> {
    build: EdgeSide<'a>,
    probe: EdgeSide<'a>,
}

impl EdgePlan<'_> {
    fn access(&self) -> IndexSource {
        if self.build.run.is_some() && self.probe.run.is_some() {
            IndexSource::Persistent
        } else {
            IndexSource::QuerySort
        }
    }
}

/// The one planner over a collected query: every join edge's and
/// literal filter's access decision comes from here, for execution
/// ([`plan_execution`]) and for [`explain_with`] alike, so the two
/// cannot drift.
struct Planner<'a> {
    graph: &'a QueryGraph,
    docs: &'a [DocBinding<'a>],
    var_doc: &'a [usize],
    state: &'a State,
    use_indexes: bool,
}

impl<'a> Planner<'a> {
    /// The decisions for `join` in `block`; `None` for an edge checked
    /// per tuple at block entry (both sides bound in enclosing blocks).
    fn edge(&self, block: &Block, join: &Join) -> Option<EdgePlan<'a>> {
        let (build, probe) = join_sides(self.graph, block, join, join.ready_at?);
        Some(EdgePlan {
            build: self.side(build),
            probe: self.side(probe),
        })
    }

    fn side(&self, r: usize) -> EdgeSide<'a> {
        let var = self.graph.refs[r].var;
        let doc = self.docs[self.var_doc[var]].doc;
        let occs = self.state.occ_parent[var].len();
        EdgeSide {
            r,
            doc,
            occs,
            values: ref_value_count(self.state, r, occs),
            run: if self.use_indexes {
                persistent_vector_of(doc, self.state, r, occs)
            } else {
                None
            },
        }
    }

    /// The occurrences passing an `Eq` filter, ascending, when it
    /// resolves through a persistent value index as a point lookup
    /// instead of a per-occurrence scan: `r`'s values come from one
    /// vector with a sorted run, indexes are on, and the filter is
    /// checked at a binding (not at block entry).
    fn indexed_eq(&self, filter: &Filter) -> Option<Vec<usize>> {
        let FilterTest::Eq(r, lit) = &filter.test else {
            return None;
        };
        if !self.use_indexes || filter.ready_at.is_none() {
            return None;
        }
        let var = self.graph.refs[*r].var;
        let doc = self.docs[self.var_doc[var]].doc;
        let occs = self.state.occ_parent[var].len();
        let vec_idx = persistent_vector_of(doc, self.state, *r, occs)?;
        let values = &doc.vectors()[vec_idx].values;
        let order = values
            .sorted_order()
            .expect("checked by persistent_vector_of");
        let (offsets, owners) = occs_of_positions(self.state, *r, occs, values.len());
        let target = lit.as_bytes();
        let lo = order.partition_point(|&pos| &values[pos as usize] < target);
        let mut passing: Vec<usize> = order[lo..]
            .iter()
            .map(|&pos| pos as usize)
            .take_while(|&pos| &values[pos] == target)
            .flat_map(|pos| &owners[offsets[pos]..offsets[pos + 1]])
            .copied()
            .collect();
        passing.sort_unstable();
        passing.dedup();
        Some(passing)
    }
}

/// Builds the `(value, occurrence)` run of one join side,
/// value-ascending: an O(n) remap of the persistent `.vec` value index
/// when the planner chose one, otherwise the collected pairs sorted at
/// query time.
fn sorted_run_for<'a>(state: &State, side: &EdgeSide<'a>) -> Vec<(&'a [u8], usize)> {
    if let Some(vec_idx) = side.run {
        let values = &side.doc.vectors()[vec_idx].values;
        let order = values
            .sorted_order()
            .expect("planned from a persistent run");
        let (offsets, owners) = occs_of_positions(state, side.r, side.occs, values.len());
        let mut run = Vec::with_capacity(owners.len());
        for &pos in order {
            let pos = pos as usize;
            for &occ in &owners[offsets[pos]..offsets[pos + 1]] {
                run.push((&values[pos], occ));
            }
        }
        return run;
    }
    let mut run: Vec<(&[u8], usize)> = Vec::new();
    for occ in 0..side.occs {
        for pos in state.values(side.r, occ) {
            run.push((value_at(side.doc, pos), occ));
        }
    }
    // Ties need no order: the table's rows are sorted when compressed.
    run.sort_unstable_by(|a, b| a.0.cmp(b.0));
    run
}

/// Every block of `graph`, each exactly once, in document order (the
/// root block first, then the blocks nested in its constructor).
fn blocks(graph: &QueryGraph) -> Vec<&Block> {
    fn block<'g>(b: &'g Block, out: &mut Vec<&'g Block>) {
        out.push(b);
        if let Output::Document(tpl) = &b.output {
            template(tpl, out);
        }
    }
    fn template<'g>(tpl: &'g Template, out: &mut Vec<&'g Block>) {
        for item in &tpl.content {
            match item {
                TplItem::Block(b) => block(b, out),
                TplItem::Element(e) => template(e, out),
                TplItem::Copy(_) => {}
            }
        }
    }
    let mut out = Vec::new();
    block(&graph.block, &mut out);
    out
}

/// The planner pass: builds every planned join edge's table from the
/// [`Planner`]'s decisions, and resolves `Eq` filters through persistent
/// value indexes as point lookups where possible.
fn plan_execution(planner: &Planner<'_>, trace: Option<vx_obs::TraceId>) -> ExecPlans {
    let graph = planner.graph;
    blocks(graph)
        .into_iter()
        .map(|block| {
            let joins = block
                .joins
                .iter()
                .map(|join| {
                    let edge = planner.edge(block, join)?;
                    if vx_obs::log_enabled() {
                        let probe_label = ref_label(graph, edge.probe.r);
                        let build_label = ref_label(graph, edge.build.r);
                        let trace_str = trace.map(|t| t.to_string());
                        let mut fields: Vec<(&str, vx_obs::Value<'_>)> = vec![
                            ("probe", vx_obs::Value::Str(&probe_label)),
                            ("build", vx_obs::Value::Str(&build_label)),
                            ("access", vx_obs::Value::Str(edge.access().label())),
                            ("probe_values", vx_obs::Value::U64(edge.probe.values)),
                            ("build_values", vx_obs::Value::U64(edge.build.values)),
                        ];
                        if let Some(t) = &trace_str {
                            fields.push(("trace", vx_obs::Value::Str(t)));
                        }
                        vx_obs::event("engine.join", &fields);
                    }
                    Some(JoinTable::build(planner.state, &edge))
                })
                .collect();
            let indexed = block
                .filters
                .iter()
                .map(|filter| planner.indexed_eq(filter))
                .collect();
            (std::ptr::from_ref(block), BlockExec { joins, indexed })
        })
        .collect()
}

/// Renders a step path as `/a//b/*`.
fn render_steps(steps: &[PatStep]) -> String {
    let mut out = String::new();
    for step in steps {
        out.push_str(if step.descend { "//" } else { "/" });
        match &step.test {
            PatTest::Name(n) => out.push_str(n),
            PatTest::Any => out.push('*'),
        }
    }
    out
}

/// `$var/path` label for a value reference.
fn ref_label(graph: &QueryGraph, r: usize) -> String {
    format!(
        "${}{}",
        graph.vars[graph.refs[r].var].name,
        render_steps(&graph.refs[r].steps)
    )
}

/// Builds the [`Plan`] for `graph` over `docs`: runs collection (the
/// one skeleton pass — enumeration never starts), then renders the
/// [`Planner`]'s decisions — exactly those execution would use — per
/// join edge and literal filter.
pub(crate) fn explain_with(
    graph: &QueryGraph,
    docs: &[DocBinding<'_>],
    options: &RunOptions,
) -> Result<Plan> {
    let layout = layout(graph, docs)?;
    let struct_enabled = options.struct_index;
    let (state, _) = collect(graph, docs, &layout, struct_enabled, None)?;
    let planner = Planner {
        graph,
        docs,
        var_doc: &layout.var_doc,
        state: &state,
        use_indexes: options.use_indexes,
    };

    let variables = graph
        .vars
        .iter()
        .enumerate()
        .map(|(v, var)| PlanVar {
            name: var.name.clone(),
            root: match (&var.doc, var.parent) {
                (Some(name), _) => format!("doc(\"{name}\")"),
                (None, Some(p)) => format!("${}", graph.vars[p].name),
                (None, None) => String::new(),
            },
            path: render_steps(&var.steps),
            occurrences: state.occ_parent[v].len() as u64,
            // Matches `meta_of`'s opaqueness rule without needing the
            // document's name table: any named step anchors the
            // summary; a pure-wildcard (or empty) pattern walks the NFA.
            matching: if struct_enabled
                && var.steps.iter().any(|s| matches!(s.test, PatTest::Name(_)))
            {
                "summary"
            } else {
                "nfa"
            },
        })
        .collect();

    let mut joins = Vec::new();
    let mut filters = Vec::new();
    for block in blocks(graph) {
        for join in &block.joins {
            joins.push(match planner.edge(block, join) {
                Some(edge) => PlanJoin {
                    probe: ref_label(graph, edge.probe.r),
                    build: ref_label(graph, edge.build.r),
                    access: Some(edge.access()),
                    probe_values: edge.probe.values,
                    build_values: edge.build.values,
                },
                None => PlanJoin {
                    probe: ref_label(graph, join.left),
                    build: ref_label(graph, join.right),
                    access: None,
                    probe_values: 0,
                    build_values: 0,
                },
            });
        }
        for filter in &block.filters {
            let test = match &filter.test {
                FilterTest::Exists(r) => format!("exists({})", ref_label(graph, *r)),
                FilterTest::Eq(r, lit) => format!("{} = {lit:?}", ref_label(graph, *r)),
                FilterTest::PathPair(a, b) => {
                    format!("{} = {}", ref_label(graph, *a), ref_label(graph, *b))
                }
            };
            let indexed = planner.indexed_eq(filter).is_some();
            filters.push(PlanFilter { test, indexed });
        }
    }

    Ok(Plan {
        variables,
        joins,
        filters,
        output: match &graph.block.output {
            Output::Values(_) => "values",
            Output::Document(_) => "document",
        },
    })
}

impl Eval<'_> {
    /// The value bytes of reference `r` at occurrence `occ`.
    fn ref_bytes(&self, r: usize, occ: usize) -> impl Iterator<Item = &[u8]> + Clone {
        let doc = self.docs[self.var_doc[self.graph.refs[r].var]].doc;
        self.state
            .values(r, occ)
            .iter()
            .map(move |pos| value_at(doc, pos))
    }

    /// Whether references `a` (at `a_occ`) and `b` (at `b_occ`) share a
    /// value. Both lists are a reference's values at one occurrence —
    /// a handful — so a nested scan beats building a set.
    fn share_value(&self, (a, a_occ): (usize, usize), (b, b_occ): (usize, usize)) -> bool {
        let right = self.ref_bytes(b, b_occ);
        self.ref_bytes(a, a_occ)
            .any(|x| right.clone().any(|y| x == y))
    }

    fn filter_passes(&self, test: &FilterTest, occ: usize) -> bool {
        bump(&self.tally.filter_checks);
        let pass = match test {
            FilterTest::Exists(r) => self.state.exists(*r, occ),
            FilterTest::Eq(r, lit) => self.ref_bytes(*r, occ).any(|v| v == lit.as_bytes()),
            FilterTest::PathPair(a, b) => self.share_value((*a, occ), (*b, occ)),
        };
        if pass {
            bump(&self.tally.filter_passes);
        }
        pass
    }

    fn run_block(&self, block: &Block, env: &mut Vec<usize>, sink: &mut Sink<'_>) -> Result<()> {
        // Entry checks: filters and joins whose variables are all bound
        // in enclosing blocks.
        for filter in &block.filters {
            if filter.ready_at.is_none() && !self.filter_passes(&filter.test, env[filter.var]) {
                return Ok(());
            }
        }
        for join in &block.joins {
            if join.ready_at.is_none() {
                let left = (join.left, env[self.graph.refs[join.left].var]);
                let right = (join.right, env[self.graph.refs[join.right].var]);
                if !self.share_value(left, right) {
                    return Ok(());
                }
            }
        }
        let exec = &self.plans[&std::ptr::from_ref(block)];
        self.bind(block, exec, 0, env, sink)
    }

    fn bind(
        &self,
        block: &Block,
        exec: &BlockExec,
        pos: usize,
        env: &mut Vec<usize>,
        sink: &mut Sink<'_>,
    ) -> Result<()> {
        if pos == block.vars.len() {
            bump(&self.tally.tuples);
            // Time output emission only for the outermost emit — nested
            // template blocks re-enter `bind` while the clock is running.
            if self.profiling && !self.tally.in_output.get() {
                self.tally.in_output.set(true);
                let mark = Instant::now();
                let result = self.emit(&block.output, env, sink);
                self.tally
                    .output_secs
                    .set(self.tally.output_secs.get() + mark.elapsed().as_secs_f64());
                self.tally.in_output.set(false);
                return result;
            }
            return self.emit(&block.output, env, sink);
        }
        let var = block.vars[pos];

        // Every join that becomes checkable at this binding yields the
        // build-side occurrences matching the current tuple as a sorted
        // list; index-resolved literal filters narrow the same way
        // instead of being re-checked per occurrence.
        let mut allowed: Option<Cow<'_, [usize]>> = None;
        for (join, table) in block.joins.iter().zip(&exec.joins) {
            if join.ready_at != Some(pos) {
                continue;
            }
            let table = table.as_ref().expect("planned join has a table");
            let (_, probe) = join_sides(self.graph, block, join, pos);
            let matched = table.matches(env[self.graph.refs[probe].var]);
            bump(if matched.is_empty() {
                &self.tally.probe_misses
            } else {
                &self.tally.probe_hits
            });
            allowed = Some(narrow(allowed, matched));
        }
        for (filter, passing) in block.filters.iter().zip(&exec.indexed) {
            if filter.ready_at != Some(pos) {
                continue;
            }
            if let Some(passing) = passing {
                allowed = Some(narrow(allowed, Cow::Borrowed(passing)));
            }
        }

        // Candidates: the parent occurrence's children, or every
        // occurrence of a document-rooted variable (never materialized —
        // `bind` runs once per enclosing tuple). A sorted match list of
        // a document-rooted variable IS its candidate list, so it is
        // bound directly, never by a scan of all occurrences per probe.
        let examined = match (&allowed, self.graph.vars[var].parent) {
            (None, Some(p)) => {
                let candidates = &self.child_occs[var][env[p]];
                for &occ in candidates {
                    self.bind_occ(block, exec, pos, occ, env, sink)?;
                }
                candidates.len()
            }
            (None, None) => {
                let occs = self.state.occ_parent[var].len();
                for occ in 0..occs {
                    self.bind_occ(block, exec, pos, occ, env, sink)?;
                }
                occs
            }
            (Some(list), None) => {
                for &occ in list.iter() {
                    self.bind_occ(block, exec, pos, occ, env, sink)?;
                }
                list.len()
            }
            (Some(list), Some(p)) => for_each_common(&self.child_occs[var][env[p]], list, |occ| {
                self.bind_occ(block, exec, pos, occ, env, sink)
            })?,
        };
        self.tally
            .candidates
            .set(self.tally.candidates.get() + examined as u64);
        env[var] = usize::MAX;
        Ok(())
    }

    /// Binds one surviving occurrence: selections first (literal filters
    /// not already resolved through an index), then recurse.
    fn bind_occ(
        &self,
        block: &Block,
        exec: &BlockExec,
        pos: usize,
        occ: usize,
        env: &mut Vec<usize>,
        sink: &mut Sink<'_>,
    ) -> Result<()> {
        for (filter, passing) in block.filters.iter().zip(&exec.indexed) {
            if filter.ready_at == Some(pos)
                && passing.is_none()
                && !self.filter_passes(&filter.test, occ)
            {
                return Ok(());
            }
        }
        env[block.vars[pos]] = occ;
        self.bind(block, exec, pos + 1, env, sink)
    }

    fn emit(&self, output: &Output, env: &mut Vec<usize>, sink: &mut Sink<'_>) -> Result<()> {
        match output {
            Output::Values(r) => {
                let var = self.graph.refs[*r].var;
                let occ = env[var];
                let doc = self.docs[self.var_doc[var]].doc;
                self.tally
                    .values
                    .set(self.tally.values.get() + self.state.values(*r, occ).len() as u64);
                for &(vec, idx) in self.state.values(*r, occ) {
                    let bytes = &doc.vectors()[vec].values[idx];
                    match sink {
                        Sink::Values(out) => out.push(bytes.to_vec()),
                        Sink::Builder(b) => b.text(bytes)?,
                    }
                }
                Ok(())
            }
            Output::Document(tpl) => match sink {
                Sink::Builder(b) => self.render(tpl, env, b),
                Sink::Values(_) => Err(EngineError::Corrupt(
                    "constructor output into a value sink".into(),
                )),
            },
        }
    }

    fn render(
        &self,
        tpl: &Template,
        env: &mut Vec<usize>,
        builder: &mut Pipeline<VecDoc>,
    ) -> Result<()> {
        builder.start(&tpl.tag)?;
        for item in &tpl.content {
            match item {
                TplItem::Copy(r) => {
                    let var = self.graph.refs[*r].var;
                    let doc_idx = self.var_doc[var];
                    let doc = self.docs[doc_idx].doc;
                    let paths = self.state.paths[doc_idx]
                        .as_ref()
                        .expect("every collected document keeps its path trie");
                    let mut cursors = self.copy_cursors.borrow_mut();
                    if cursors.len() < doc.vectors().len() {
                        cursors.resize(doc.vectors().len(), 0);
                    }
                    for task in self.state.copies(*r, env[var]) {
                        // Seed only the cursors the copy can read: every
                        // text path below the copy root is in its layout.
                        let layout = paths.layouts[&(task.path, task.node)];
                        for (&(pos, _), &start) in paths.texts(layout).iter().zip(&task.starts) {
                            cursors[pos] = start;
                        }
                        copy_walk(
                            doc,
                            paths,
                            task.node,
                            task.path,
                            &mut cursors,
                            builder,
                            &self.tally.values,
                        )?;
                    }
                }
                TplItem::Element(e) => self.render(e, env, builder)?,
                TplItem::Block(b) => {
                    self.run_block(b, env, &mut Sink::Builder(builder))?;
                }
            }
        }
        Ok(builder.end()?)
    }
}

/// Streams a deep copy of the subtree at `node` (path `path`) into the
/// builder, pulling text values through `cursors` (indexed by vector
/// position), which the caller seeded from the copy task. Paths resolve
/// through the document pass's trie; a path it never numbered (`None`)
/// has no text below it.
fn copy_walk(
    doc: &VecDoc,
    paths: &PathTrie,
    node: NodeId,
    path: PathId,
    cursors: &mut [usize],
    builder: &mut Pipeline<VecDoc>,
    values_out: &Cell<u64>,
) -> Result<()> {
    let skeleton = &doc.skeleton;
    let mut traversal = skeleton.traverse(node, Some(path));
    while let Some(visit) = traversal.next(|path, name| path.and_then(|p| paths.ids.get(p, name))) {
        match visit {
            Visit::Enter { name, .. } => builder.start(skeleton.name(name))?,
            Visit::Text { label, run } => {
                let pos = label
                    .and_then(|p| paths.ids.vector(p))
                    .ok_or_else(|| EngineError::Corrupt("no vector for a copied text".into()))?;
                let values = &doc.vectors()[pos].values;
                values_out.set(values_out.get() + run);
                for _ in 0..run {
                    let bytes = values.get(cursors[pos]).ok_or_else(|| {
                        EngineError::Corrupt(format!(
                            "vector {:?} exhausted during copy",
                            doc.vectors()[pos].path
                        ))
                    })?;
                    cursors[pos] += 1;
                    builder.text(bytes)?;
                }
            }
            Visit::Leave { .. } => builder.end()?,
        }
    }
    Ok(())
}
