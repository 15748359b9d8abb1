//! Cardinality-aware join planning and the execution options.
//!
//! Every planned equality edge executes through one join table, built
//! once before enumeration: the build side (the variable bound last)
//! grouped by join value, each group its occurrences ascending, plus
//! each probe occurrence's matching group ids — compressed rows, O(probe
//! values + build values). Enumeration probes it as sorted slices. The
//! strategies below differ only in how the table is built, that is, how
//! a probe value finds its build group:
//!
//! * [`JoinStrategy::Hash`] — a hash map over the build side's value
//!   bytes. Needs no sorted run.
//! * [`JoinStrategy::IndexNestedLoop`] — binary search in the build
//!   side's value-sorted run. Wins when the probe side is selective.
//! * [`JoinStrategy::SortMerge`] — one merge of both sides' sorted runs.
//!   Wins when both sides are large.
//!
//! Sorted runs come from the version-3 `.vec` value indexes when the
//! store has them and are sorted at query time otherwise. Strategy choice
//! is per join edge, from exact post-collection cardinalities: hash when
//! no index is available (or indexes are disabled), otherwise
//! index-nested-loop when `probe_values · ⌈log₂ build_values⌉ <
//! build_values`, sort-merge beyond. `VX_PLAN=hash|inl|merge` or
//! [`RunOptions::strategy`] forces one strategy for every edge — the
//! differential suite runs all three and the default plan against the
//! naive oracle, byte-for-byte.
//!
//! [`Plan`] is the stable, renderable description of those choices that
//! [`crate::Query::explain`], `vx explain`, and the server's
//! `"explain": true` all share.

use std::fmt;

/// How one equality join edge is executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinStrategy {
    /// Find each probe value's build group in a hash map over the build
    /// side's value bytes. The choice when no sorted run is available.
    Hash,
    /// Find each probe value's build group by binary search in the build
    /// side's value-sorted run.
    IndexNestedLoop,
    /// Find the build groups of all probe values in one merge of both
    /// sides' value-sorted runs.
    SortMerge,
}

impl JoinStrategy {
    /// Parses a `VX_PLAN` value. `hash`, `inl`, `merge` (ASCII
    /// case-insensitive); anything else is `None`.
    pub fn parse(s: &str) -> Option<JoinStrategy> {
        if s.eq_ignore_ascii_case("hash") {
            Some(JoinStrategy::Hash)
        } else if s.eq_ignore_ascii_case("inl") {
            Some(JoinStrategy::IndexNestedLoop)
        } else if s.eq_ignore_ascii_case("merge") {
            Some(JoinStrategy::SortMerge)
        } else {
            None
        }
    }

    /// The `VX_PLAN` spelling of the strategy.
    pub fn name(&self) -> &'static str {
        match self {
            JoinStrategy::Hash => "hash",
            JoinStrategy::IndexNestedLoop => "inl",
            JoinStrategy::SortMerge => "merge",
        }
    }
}

impl fmt::Display for JoinStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Where a join's sorted runs come from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexSource {
    /// Every run the strategy needs was loaded from a version-3 `.vec`
    /// value index at store-open time.
    Persistent,
    /// At least one run was sorted at query time (forced strategy on a
    /// store without a persistent index).
    QuerySort,
    /// No run needed — the hash strategy.
    None,
}

impl IndexSource {
    fn label(&self) -> &'static str {
        match self {
            IndexSource::Persistent => "persistent-index",
            IndexSource::QuerySort => "query-sort",
            IndexSource::None => "none",
        }
    }
}

/// Execution options for [`crate::Query::run_with`] — the one knob set
/// for every kind of target.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Fan multi-document collection out over scoped threads (subject to
    /// `VX_PARALLEL` and the host CPU count). Profiled runs always
    /// collect serially so the per-step spans tile the total.
    pub parallel: bool,
    /// Collect a [`crate::QueryProfile`] into
    /// [`crate::RunOutcome::profile`].
    pub profile: bool,
    /// Let the planner use persistent value indexes (join strategy
    /// choice and literal-filter point lookups). Off means every join
    /// table is hash-built and every filter scans.
    pub use_indexes: bool,
    /// Force one join strategy for every edge instead of the
    /// per-edge cardinality choice. `None` defers to the `VX_PLAN`
    /// environment variable, then to the planner.
    pub strategy: Option<JoinStrategy>,
    /// Whether `*`/`//` step patterns are matched through the
    /// structural self-index (containment bitsets prune subtrees the
    /// remaining steps provably cannot complete in). `None` defers to
    /// the `VX_STRUCT_INDEX` environment variable (`0`/`off` disables;
    /// unset or anything else enables).
    pub struct_index: Option<bool>,
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
            parallel: true,
            profile: false,
            use_indexes: true,
            strategy: None,
            struct_index: None,
            trace: None,
        }
    }
}

/// Picks the strategy for one join edge. `forced` comes from
/// [`RunOptions::strategy`] or `VX_PLAN`; `has_index` is whether the
/// build side has a usable persistent sorted run; the cardinalities are
/// exact post-collection value counts.
pub(crate) fn choose_strategy(
    forced: Option<JoinStrategy>,
    use_indexes: bool,
    has_index: bool,
    probe_values: u64,
    build_values: u64,
) -> JoinStrategy {
    if let Some(s) = forced {
        return s;
    }
    if !use_indexes || !has_index {
        return JoinStrategy::Hash;
    }
    if probe_values.saturating_mul(ceil_log2(build_values)) < build_values {
        JoinStrategy::IndexNestedLoop
    } else {
        JoinStrategy::SortMerge
    }
}

/// `⌈log₂ n⌉`, floored at 1 — the per-probe binary-search cost unit.
fn ceil_log2(n: u64) -> u64 {
    u64::from(n.max(2).next_power_of_two().trailing_zeros()).max(1)
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
    pub strategy: JoinStrategy,
    pub index: IndexSource,
    /// Total probe-side values.
    pub probe_values: u64,
    /// Total build-side values (what the join table groups).
    pub build_values: u64,
    /// `None` when the edge is checked per tuple at block entry (both
    /// sides bound in enclosing blocks) rather than planned.
    pub planned: bool,
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
                if j.planned {
                    out.push_str(&format!(
                        "  {} = {}  strategy={} access={} probe_values={} build_values={}\n",
                        j.probe,
                        j.build,
                        j.strategy,
                        j.index.label(),
                        j.probe_values,
                        j.build_values
                    ));
                } else {
                    out.push_str(&format!(
                        "  {} = {}  strategy=entry-check\n",
                        j.probe, j.build
                    ));
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strategy_parse_round_trips() {
        for s in [
            JoinStrategy::Hash,
            JoinStrategy::IndexNestedLoop,
            JoinStrategy::SortMerge,
        ] {
            assert_eq!(JoinStrategy::parse(s.name()), Some(s));
        }
        assert_eq!(JoinStrategy::parse("MERGE"), Some(JoinStrategy::SortMerge));
        assert_eq!(JoinStrategy::parse("nested"), None);
    }

    #[test]
    fn chooser_prefers_hash_without_index_and_scales_with_cardinality() {
        // No index or indexes off → hash, regardless of cardinality.
        assert_eq!(
            choose_strategy(None, true, false, 10, 1_000_000),
            JoinStrategy::Hash
        );
        assert_eq!(
            choose_strategy(None, false, true, 10, 1_000_000),
            JoinStrategy::Hash
        );
        // Selective probe → binary search per probe beats a full merge.
        assert_eq!(
            choose_strategy(None, true, true, 10, 1_000_000),
            JoinStrategy::IndexNestedLoop
        );
        // Both sides large (SQ3's self-join shape) → sort-merge.
        assert_eq!(
            choose_strategy(None, true, true, 20_000, 20_000),
            JoinStrategy::SortMerge
        );
        // Forced wins over everything.
        assert_eq!(
            choose_strategy(Some(JoinStrategy::Hash), true, true, 20_000, 20_000),
            JoinStrategy::Hash
        );
    }
}
