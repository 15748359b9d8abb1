//! Query profiles: per-step spans and counters recorded by an
//! instrumented [`crate::reduce`] run.
//!
//! A profile partitions one evaluation into the engine's operation
//! steps, in execution order:
//!
//! | step | covers |
//! |---|---|
//! | `plan` | document resolution, variable/reference setup |
//! | `match:<doc>` | the NFA pattern-match pass over `<doc>`'s skeleton (one per referenced document) |
//! | `group` | flattening value groups, building per-parent candidate lists |
//! | `join-build` | building one join table per planned join edge over the build side's extended vector |
//! | `enumerate` | tuple enumeration: binding, selections, join-table probes |
//! | `output` | value projection / element construction (time re-attributed out of `enumerate`) |
//!
//! The spans are recorded as chained boundaries ([`vx_obs::Spans::tile`])
//! so they tile [`QueryProfile::total_secs`] exactly, up to
//! floating-point rounding — `tests/metrics.rs` pins this.
//!
//! Counters ([`QueryProfile::counters`]) depend only on the query, the
//! store, and the engine version — never on wall time — so repeated runs
//! produce identical values:
//!
//! | counter | meaning |
//! |---|---|
//! | `skeleton.visits` | skeleton elements entered by the match pass |
//! | `skeleton.bulk_skips` | subtrees bulk-skipped via the memoized text layout |
//! | `nfa.advances` | NFA machine-advance operations (machines × elements) |
//! | `nfa.accepts` | pattern accept events |
//! | `cursor.values.passed` | text values passed one edge at a time |
//! | `cursor.values.skipped` | text values bulk-advanced without visiting |
//! | `occ.rows` | extended-vector rows collected (all variables) |
//! | `join.build.entries` | `(value, occurrence)` entries grouped into join tables |
//! | `join.probe.hits` / `join.probe.misses` | probe occurrences whose match list was non-empty / empty |
//! | `enum.candidates` | candidate occurrences `bind` examined — linear in probes plus tuples unless enumeration goes quadratic |
//! | `filter.checks` / `filter.passes` | selection filter evaluations / successes |
//! | `tuples.emitted` | binding tuples reaching the output step |
//! | `values.emitted` | text values projected or streamed into construction |

pub use vx_obs::{Counters, Span};

/// The occurrence count one variable collected — the cardinality of its
/// extended vector.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VarCardinality {
    /// Source variable name (`$x`), or `""` for synthesized document
    /// anchors.
    pub name: String,
    /// Occurrences collected by the match pass.
    pub occurrences: u64,
}

/// Everything an instrumented evaluation recorded.
#[derive(Debug, Clone, Default)]
pub struct QueryProfile {
    /// Per-step spans in execution order; they tile `total_secs`.
    pub steps: Vec<Span>,
    /// Deterministic operation counters (see module docs for the
    /// inventory).
    pub counters: Counters,
    /// Extended-vector cardinality per query variable, in graph order.
    pub variables: Vec<VarCardinality>,
    /// Wall-clock seconds for the whole `reduce`.
    pub total_secs: f64,
}

impl QueryProfile {
    /// Sum of the step spans (≈ `total_secs`; exact up to rounding).
    pub fn steps_total(&self) -> f64 {
        self.steps.iter().map(|s| s.secs).sum()
    }

    /// Seconds attributed to step `name` (0.0 when absent). Step names
    /// are unique per profile except `match:<doc>`, which this sums.
    pub fn step_secs(&self, name: &str) -> f64 {
        self.steps
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.secs)
            .sum()
    }

    /// Emits the profile to the `VX_LOG` event sink (no-op when the sink
    /// is disabled): one `engine.step` event per span, then one
    /// `engine.reduce` event carrying the totals and counters. When
    /// `trace` is set (the server's per-request id from
    /// [`crate::RunOptions::trace`]), every event carries a `trace`
    /// field so concurrent runs' spans and counter deltas stay
    /// distinguishable in one interleaved log.
    pub fn log(&self, query_hint: &str, trace: Option<vx_obs::TraceId>) {
        if !vx_obs::log_enabled() {
            return;
        }
        let trace_str = trace.map(|t| t.to_string());
        for step in &self.steps {
            let mut fields: Vec<(&str, vx_obs::Value<'_>)> = vec![
                ("query", vx_obs::Value::Str(query_hint)),
                ("step", vx_obs::Value::Str(&step.name)),
                ("secs", vx_obs::Value::F64(step.secs)),
            ];
            if let Some(t) = &trace_str {
                fields.push(("trace", vx_obs::Value::Str(t)));
            }
            vx_obs::event("engine.step", &fields);
        }
        let mut fields: Vec<(&str, vx_obs::Value<'_>)> = vec![
            ("query", vx_obs::Value::Str(query_hint)),
            ("total_secs", vx_obs::Value::F64(self.total_secs)),
        ];
        let counters: Vec<(&'static str, u64)> = self.counters.iter().collect();
        for (name, value) in &counters {
            fields.push((name, vx_obs::Value::U64(*value)));
        }
        if let Some(t) = &trace_str {
            fields.push(("trace", vx_obs::Value::Str(t)));
        }
        vx_obs::event("engine.reduce", &fields);
    }
}
