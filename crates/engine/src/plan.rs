//! Join planning and the execution options.
//!
//! Every planned equality edge executes through one join table, built
//! once before enumeration by one lookup, a sort-merge: the build side
//! (the variable bound last) and the probe side each contribute a
//! value-ascending `(value, occurrence)` run, and one merge of the two
//! runs groups the build occurrences by value and maps each probe
//! occurrence to its groups — compressed rows, O(probe values + build
//! values). Enumeration probes the table as sorted slices.
//!
//! A side's run is read from the version-3 `.vec` value index when the
//! side's values all come from one vector that has one and
//! [`RunOptions::use_indexes`] is set; otherwise it is sorted at query
//! time. The planner decides this once per side, after collection, and
//! [`Plan`] renders that same decision as the edge's `access` next to
//! the exact value counts, so explain cannot drift from what executes.
//!
//! [`Plan`] is the stable, renderable description of those decisions
//! that [`crate::Query::explain`], `vx explain`, and the server's
//! `"explain": true` all share.

/// Where a planned join's sorted runs come from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexSource {
    /// Both sides' runs were loaded from version-3 `.vec` value indexes
    /// at store-open time.
    Persistent,
    /// At least one side's run is sorted at query time (no persistent
    /// index for it, or indexes disabled).
    QuerySort,
}

impl IndexSource {
    pub(crate) fn label(&self) -> &'static str {
        match self {
            IndexSource::Persistent => "persistent-index",
            IndexSource::QuerySort => "query-sort",
        }
    }
}

/// Execution options for [`crate::Query::run_with`] — the one knob set
/// for every kind of target.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Collect a [`crate::QueryProfile`] into
    /// [`crate::RunOutcome::profile`].
    pub profile: bool,
    /// Let the planner use persistent value indexes (join-side sorted
    /// runs and literal-filter point lookups). Off means every join
    /// side is sorted at query time and every filter scans.
    pub use_indexes: bool,
    /// Whether `*`/`//` step patterns are matched through the
    /// structural self-index (containment bitsets prune subtrees the
    /// remaining steps provably cannot complete in). On by default;
    /// off walks every pattern as a plain NFA, the reference the tests
    /// compare against.
    pub struct_index: bool,
    /// Request-scoped trace id attached to every `engine.step` /
    /// `engine.join` / `engine.reduce` event this run emits through the
    /// `VX_LOG` sink, so concurrent callers (the server runs one query
    /// per connection thread) can attribute spans and counter deltas to
    /// a specific request. `None` leaves the events unattributed, as
    /// before.
    pub trace: Option<vx_obs::TraceId>,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            profile: false,
            use_indexes: true,
            struct_index: true,
            trace: None,
        }
    }
}

/// One variable in a [`Plan`].
#[derive(Debug, Clone)]
pub struct PlanVar {
    /// The `$name` from the query.
    pub name: String,
    /// Root: `doc("…")` for document-rooted variables, `$parent` for
    /// nested ones.
    pub root: String,
    /// The variable's step path rendered as `/a//b/*`.
    pub path: String,
    /// Exact occurrence count after collection.
    pub occurrences: u64,
    /// How the step pattern is matched against the skeleton:
    /// `"summary"` when the structural self-index prunes the walk,
    /// `"nfa"` when the pattern is summary-opaque (no named step) or
    /// the index is disabled.
    pub matching: &'static str,
}

/// One equality join edge in a [`Plan`].
#[derive(Debug, Clone)]
pub struct PlanJoin {
    /// `$var/path` of the probe side (bound earlier).
    pub probe: String,
    /// `$var/path` of the build side (bound last).
    pub build: String,
    /// Where the join table's sorted runs come from; `None` when the
    /// edge is checked per tuple at block entry (both sides bound in
    /// enclosing blocks) rather than planned.
    pub access: Option<IndexSource>,
    /// Total probe-side values (0 for entry-checked edges).
    pub probe_values: u64,
    /// Total build-side values (what the join table groups).
    pub build_values: u64,
}

/// One literal filter in a [`Plan`].
#[derive(Debug, Clone)]
pub struct PlanFilter {
    /// Human-readable test, e.g. `$b/id = "42"` or `exists($a/name)`.
    pub test: String,
    /// `true` when the filter resolves through a persistent value index
    /// as a point lookup instead of a per-occurrence scan.
    pub indexed: bool,
}

/// A stable, renderable description of how a query will execute.
///
/// Produced by [`crate::Query::explain`]; rendered by `vx explain` and
/// the server's `"explain": true`. The text form is covered by a golden
/// test — extend it, don't reshuffle it.
#[derive(Debug, Clone)]
pub struct Plan {
    pub variables: Vec<PlanVar>,
    pub joins: Vec<PlanJoin>,
    pub filters: Vec<PlanFilter>,
    /// `values` or `document`.
    pub output: &'static str,
}

impl Plan {
    /// Renders the plan as stable, line-oriented text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("variables:\n");
        for v in &self.variables {
            out.push_str(&format!(
                "  ${} := {}{}  occurrences={} match={}\n",
                v.name, v.root, v.path, v.occurrences, v.matching
            ));
        }
        if !self.joins.is_empty() {
            out.push_str("joins:\n");
            for j in &self.joins {
                match j.access {
                    Some(access) => out.push_str(&format!(
                        "  {} = {}  access={} probe_values={} build_values={}\n",
                        j.probe,
                        j.build,
                        access.label(),
                        j.probe_values,
                        j.build_values
                    )),
                    None => out.push_str(&format!(
                        "  {} = {}  access=entry-check\n",
                        j.probe, j.build
                    )),
                }
            }
        }
        if !self.filters.is_empty() {
            out.push_str("filters:\n");
            for f in &self.filters {
                out.push_str(&format!(
                    "  {}  access={}\n",
                    f.test,
                    if f.indexed { "value-index" } else { "scan" }
                ));
            }
        }
        out.push_str(&format!("output: {}\n", self.output));
        out
    }
}
