//! Spans around the calls into each layer, kept in memory and written
//! out when the traced run ends.
//!
//! A span is `{name, op, parent, start, end}`; spans of one operation
//! share its `op` number. A name is `layer` or `layer:detail`
//! (`engine.run:KQ1`); layers are summed over the part before the colon.
//! A layer's *self time* is its spans' duration minus the part their
//! child spans cover, so the self times of one operation add up to its
//! wall time. With tracing off every method here is a plain call and no
//! clock is read.
//!
//! Spans are recorded from the benchmark's side of each public call. The
//! two places where the program reports its own phase split through a
//! public type — `IngestReport` and `QueryProfile` — enter as
//! [`Tracer::reported`] children, laid end to end from the start of the
//! call that returned them.

use crate::util::{num, obj, text};
use std::collections::BTreeMap;
use std::time::Instant;
use vx_core::json::Json;

pub struct Span {
    pub name: String,
    pub op: u64,
    pub parent: Option<usize>,
    pub start_us: f64,
    pub end_us: f64,
}

pub struct Tracer {
    on: bool,
    epoch: Instant,
    op: u64,
    open: Vec<usize>,
    spans: Vec<Span>,
    counts: BTreeMap<String, f64>,
}

/// Per-layer totals over a finished trace.
pub struct Layer {
    pub name: String,
    pub spans: u64,
    pub total_ms: f64,
    pub self_ms: f64,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer::with_epoch(on, Instant::now())
    }

    /// A tracer whose clock starts at `epoch`, so that tracers of several
    /// threads can be merged with [`Tracer::absorb`].
    pub fn with_epoch(on: bool, epoch: Instant) -> Tracer {
        Tracer {
            on,
            epoch,
            op: 0,
            open: Vec::new(),
            spans: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// Spans recorded from here on belong to operation `op`.
    pub fn begin_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Runs `f` inside a span named `name`, a child of whichever span is
    /// open.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len();
        let start_us = self.now_us();
        self.spans.push(Span {
            name: name.to_string(),
            op: self.op,
            parent: self.open.last().copied(),
            start_us,
            end_us: start_us,
        });
        self.open.push(id);
        let result = f(self);
        self.open.pop();
        self.spans[id].end_us = self.now_us();
        result
    }

    /// Child spans the program itself reported as `(name, seconds)` for
    /// the call that the open span wraps.
    pub fn reported<'a>(&mut self, parts: impl IntoIterator<Item = (&'a str, f64)>) {
        let Some(&parent) = self.open.last().filter(|_| self.on) else {
            return;
        };
        let mut at = self.spans[parent].start_us;
        for (name, secs) in parts {
            let end = at + secs * 1e6;
            self.spans.push(Span {
                name: name.to_string(),
                op: self.op,
                parent: Some(parent),
                start_us: at,
                end_us: end,
            });
            at = end;
        }
    }

    /// Adds `n` to the work count `name`.
    pub fn count(&mut self, name: &str, n: f64) {
        if self.on {
            *self.counts.entry(name.to_string()).or_insert(0.0) += n;
        }
    }

    /// Takes over the spans and counts of a tracer with the same epoch.
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut span| {
            span.parent = span.parent.map(|p| p + offset);
            span
        }));
        for (name, n) in other.counts {
            *self.counts.entry(name).or_insert(0.0) += n;
        }
    }

    pub fn counted(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }

    /// Total milliseconds inside spans of `layer`.
    pub fn layer_ms(&self, layer: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| layer_of(&s.name) == layer)
            .map(|s| (s.end_us - s.start_us) / 1e3)
            .sum()
    }

    pub fn layers(&self) -> Vec<Layer> {
        let mut child_us = vec![0.0; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_us[parent] += span.end_us - span.start_us;
            }
        }
        let mut layers: BTreeMap<&str, Layer> = BTreeMap::new();
        for (span, child_us) in self.spans.iter().zip(&child_us) {
            let name = layer_of(&span.name);
            let layer = layers.entry(name).or_insert_with(|| Layer {
                name: name.to_string(),
                spans: 0,
                total_ms: 0.0,
                self_ms: 0.0,
            });
            let us = span.end_us - span.start_us;
            layer.spans += 1;
            layer.total_ms += us / 1e3;
            layer.self_ms += (us - child_us) / 1e3;
        }
        layers.into_values().collect()
    }

    /// The trace document: every span, the per-layer totals, the counts.
    /// `op_wall_ms` is the summed wall time of the traced operations, to
    /// hold the self times against.
    pub fn to_json(&self, op_wall_ms: f64) -> Json {
        let spans = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                obj(vec![
                    ("id", num(id as f64)),
                    ("name", text(&s.name)),
                    ("op", num(s.op as f64)),
                    ("parent", s.parent.map_or(Json::Null, |p| num(p as f64))),
                    ("start_us", num(s.start_us)),
                    ("end_us", num(s.end_us)),
                ])
            })
            .collect();
        let layers = self.layers();
        let self_sum_ms: f64 = layers
            .iter()
            .filter(|l| !l.name.starts_with("probe."))
            .map(|l| l.self_ms)
            .sum();
        let layer_rows = layers
            .iter()
            .map(|l| {
                obj(vec![
                    ("layer", text(&l.name)),
                    ("spans", num(l.spans as f64)),
                    ("total_ms", num(l.total_ms)),
                    ("self_ms", num(l.self_ms)),
                ])
            })
            .collect();
        let counts = self
            .counts
            .iter()
            .map(|(name, n)| (name.clone(), num(*n)))
            .collect();
        obj(vec![
            ("op_wall_ms", num(op_wall_ms)),
            ("self_sum_ms", num(self_sum_ms)),
            ("layers", Json::Array(layer_rows)),
            ("counts", Json::Object(counts)),
            ("spans", Json::Array(spans)),
        ])
    }
}

fn layer_of(name: &str) -> &str {
    name.split(':').next().unwrap_or(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_add_up_to_the_root() {
        let mut tracer = Tracer::new(true);
        tracer.begin_op(3);
        tracer.span("op", |t| {
            t.span("a:x", |t| {
                t.reported([("a.part", 0.0)]);
            });
            t.span("a:y", |_| ());
            t.count("things", 2.0);
        });
        let layers = tracer.layers();
        let root = layers.iter().find(|l| l.name == "op").unwrap();
        let self_sum: f64 = layers.iter().map(|l| l.self_ms).sum();
        assert!((self_sum - root.total_ms).abs() < 1e-9);
        assert!(layers.iter().all(|l| l.self_ms >= 0.0));
        assert_eq!(layers.iter().find(|l| l.name == "a").unwrap().spans, 2);
        assert_eq!(tracer.counted("things"), 2.0);
    }

    #[test]
    fn off_records_nothing() {
        let mut tracer = Tracer::new(false);
        assert_eq!(tracer.span("op", |t| t.span("a", |_| 7)), 7);
        tracer.count("things", 1.0);
        assert!(tracer.layers().is_empty());
        assert_eq!(tracer.counted("things"), 0.0);
    }
}
