//! The measured child (`vxbench exec`): sets a workload up from the
//! generated inputs, says `READY`, runs operations for the given time or
//! count, and prints one JSON line of results.
//!
//! It is a process of its own so that `peak_rss_mb` is the program's
//! memory and not the generator's DOM, and it links the library crates
//! only: nothing here depends on the seed, only on the input files.

use crate::serve;
use crate::spec::{self, COMPACT_EVERY};
use crate::trace::Tracer;
use crate::util::{self, num, obj, Fingerprint};
use std::collections::BTreeMap;
use std::fs::File;
use std::path::{Path, PathBuf};
use std::time::Instant;
use vx_bench::StoreSizes;
use vx_core::json::Json;
use vx_core::{AppendOptions, Compaction, IngestOptions, IngestReport, Store, StoreHandle};
use vx_engine::{Query, QueryOutput, QueryProfile, RunOptions};

/// How long a phase runs: wall-clock seconds (the driver's contract) or
/// a fixed number of operations (repeatable counts, the smoke test).
#[derive(Clone, Copy, Debug)]
pub enum Limit {
    Seconds(f64),
    Ops(u64),
}

pub struct ExecArgs {
    pub workload: String,
    /// The run's scratch directory: `inputs/` from the generator,
    /// `work/` for this process.
    pub dir: PathBuf,
    /// The untraced phase every end-to-end metric comes from.
    pub limit: Limit,
    /// The traced phase that follows it, if any.
    pub traced: Option<Limit>,
    pub trace_out: Option<PathBuf>,
    /// Stop after `READY`: a set-up round that only exists to be timed.
    pub setup_only: bool,
    /// The sibling `vx` binary, for `serve.mixed`.
    pub vx: PathBuf,
}

/// What one phase measured.
#[derive(Default)]
pub struct Phase {
    pub latencies_ms: Vec<f64>,
    /// Wall time the operations were measured over (the sum of their
    /// timed windows for a single thread; the window itself for
    /// concurrent clients).
    pub wall_s: f64,
    pub attempted: u64,
    pub failed: u64,
}

impl Phase {
    pub fn p50(&self) -> f64 {
        util::quantile(&self.latencies_ms, 0.5)
    }
}

/// Layer name → value, as the traced phase fills it in.
pub type Layers = BTreeMap<&'static str, f64>;

pub type Res<T> = Result<T, String>;

pub fn err<E: std::fmt::Display>(what: &str) -> impl FnOnce(E) -> String + '_ {
    move |e| format!("{what}: {e}")
}

/// The ingest policy every store of the benchmark is built with: the
/// default 64 spill frames and per-vector dictionary compaction, the
/// paper's compacted-store configuration.
pub fn ingest_options() -> IngestOptions {
    IngestOptions {
        compaction: Compaction::Auto,
        ..IngestOptions::default()
    }
}

fn input(dir: &Path, dataset: &str) -> PathBuf {
    dir.join("inputs").join(format!("{dataset}.xml"))
}

pub fn store(dir: &Path, dataset: &str) -> PathBuf {
    dir.join("work").join(dataset)
}

/// Stream-ingests one generated corpus file into its store directory.
fn ingest(t: &mut Tracer, dir: &Path, dataset: &str) -> Res<IngestReport> {
    let xml = input(dir, dataset);
    let file = File::open(&xml).map_err(err(&xml.display().to_string()))?;
    t.span("core.ingest_stream", |t| {
        let report = Store::ingest_stream(&store(dir, dataset), file, &ingest_options())
            .map_err(err("ingest"))?;
        t.reported([
            ("ingest.pipeline", report.pipeline_secs),
            ("ingest.write", report.write_secs),
        ]);
        Ok(report)
    })
}

/// Work counts of one ingest, as the public `IngestReport` gives them.
fn add_ingest_counts(layers: &mut Layers, report: &IngestReport) {
    let mut add = |name: &'static str, n: f64| *layers.entry(name).or_insert(0.0) += n;
    add("ingest.pipeline_ms", report.pipeline_secs * 1e3);
    add("ingest.write_ms", report.write_secs * 1e3);
    add("xml.events", report.stats.events as f64);
    add("ingest.elements", report.stats.elements as f64);
    add("ingest.values", report.stats.values() as f64);
    add("spill.pages", report.spill_pages as f64);
    add("pager.hits", report.pager.hits as f64);
    add("pager.misses", report.pager.misses as f64);
    add("pager.evictions", report.pager.evictions as f64);
    add("vector.count", report.catalog.vectors.len() as f64);
}

/// On-disk bytes of the stores (with any pending WAL) and of their
/// vector files alone.
fn stored_bytes(dirs: &[PathBuf]) -> Res<(u64, u64)> {
    let mut total = 0;
    let mut vectors = 0;
    for dir in dirs {
        let sizes = StoreSizes::measure(dir).map_err(err("measuring store"))?;
        total += sizes.total() + sizes.wal_bytes;
        vectors += sizes.vector_bytes;
    }
    Ok((total, vectors))
}

/// On-disk store bytes per byte of the XML they were built from.
pub fn store_ratio(dir: &Path, datasets: &[&str]) -> Res<f64> {
    let stores: Vec<_> = datasets.iter().map(|ds| store(dir, ds)).collect();
    Ok(stored_bytes(&stores)?.0 as f64 / input_bytes(dir, datasets)? as f64)
}

fn input_bytes(dir: &Path, datasets: &[&str]) -> Res<u64> {
    datasets.iter().try_fold(0, |sum, ds| {
        let path = input(dir, ds);
        Ok(sum
            + std::fs::metadata(&path)
                .map_err(err(&path.display().to_string()))?
                .len())
    })
}

/// Runs `query` in a span; a traced run asks for the public
/// `QueryProfile` and enters its steps and counters.
fn run_query(t: &mut Tracer, span: &str, query: &Query, handle: &StoreHandle) -> Res<QueryOutput> {
    let options = RunOptions {
        profile: t.on(),
        ..RunOptions::default()
    };
    t.span(span, |t| {
        let outcome = query.run_with(handle, &options).map_err(err(span))?;
        if let Some(profile) = &outcome.profile {
            record_profile(t, profile);
        }
        Ok(outcome.output)
    })
}

/// The trace's layer name for a `QueryProfile` step (`match:xk`,
/// `join-build`, …).
pub fn step_layer(step: &str) -> &'static str {
    match step.split(':').next().unwrap_or("") {
        "plan" => "engine.resolve",
        "match" => "engine.match",
        "group" => "engine.group",
        "join-build" => "engine.join_build",
        "enumerate" => "engine.enumerate",
        "output" => "engine.output",
        _ => "engine.other",
    }
}

/// The profile's steps as child spans, its counters as counts.
pub fn record_profile(t: &mut Tracer, profile: &QueryProfile) {
    t.reported(profile.steps.iter().map(|s| (step_layer(&s.name), s.secs)));
    for (name, value) in profile.counters.iter() {
        t.count(name, value as f64);
    }
}

/// Runs `probe` three times in spans named `name` and returns the median
/// milliseconds. Probes are the layer calls an operation does not make on
/// its own (draining the XML events without a sink, decoding the skeleton
/// file alone): they run beside the traced operations, not inside them.
fn probe(t: &mut Tracer, name: &str, mut probe: impl FnMut() -> Res<()>) -> Res<f64> {
    let mut ms = Vec::new();
    for _ in 0..3 {
        let start = Instant::now();
        t.span(name, |_| probe())?;
        ms.push(start.elapsed().as_secs_f64() * 1e3);
    }
    Ok(util::median(&ms))
}

/// The skeleton-layer probes over one store directory: `.vxsk` decode,
/// `.vxpi` load, path-index precompute; added to `layers` with the DAG
/// node count.
fn probe_skeleton(t: &mut Tracer, dir: &Path, layers: &mut Layers) -> Res<()> {
    let base = Store::base_dir(dir).map_err(err("store layout"))?;
    let mut decoded = None;
    let decode_ms = probe(t, "probe.skeleton.decode", || {
        let bytes = std::fs::read(base.join("skeleton.vxsk")).map_err(err("skeleton.vxsk"))?;
        decoded = Some(vx_skeleton::read(&bytes).map_err(err("skeleton.vxsk"))?);
        Ok(())
    })?;
    let (skeleton, root) = decoded.expect("probe ran");
    let index_path = base.join("index.vxpi");
    let mut structural = None;
    let index_ms = if index_path.exists() {
        probe(t, "probe.skeleton.index_load", || {
            let bytes = std::fs::read(&index_path).map_err(err("index.vxpi"))?;
            structural = Some(vx_skeleton::read_index(&bytes).map_err(err("index.vxpi"))?);
            Ok(())
        })?
    } else {
        0.0
    };
    let path_ms = probe(t, "probe.skeleton.path_index", || {
        // What `StoreHandle::open` does: reuse the persisted structural
        // index when there is one, rebuild it otherwise.
        let index = match structural.clone() {
            Some(structural) => {
                vx_skeleton::PathIndex::with_structural(&skeleton, root, structural)
            }
            None => vx_skeleton::PathIndex::new(&skeleton, root),
        };
        std::hint::black_box(&index);
        Ok(())
    })?;
    *layers.entry("skeleton.decode_ms").or_insert(0.0) += decode_ms;
    *layers.entry("skeleton.index_load_ms").or_insert(0.0) += index_ms;
    *layers.entry("skeleton.path_index_ms").or_insert(0.0) += path_ms;
    *layers.entry("skeleton.nodes").or_insert(0.0) += skeleton.len() as f64;
    Ok(())
}

/// A workload the single measuring thread drives.
trait Workload {
    /// One operation: returns the seconds of its timed window and whether
    /// its output matched the reference. Preparation and checking happen
    /// outside the window.
    fn op(&mut self, t: &mut Tracer) -> Res<(f64, bool)>;

    /// Operations come in groups of this many; a phase ends between
    /// groups.
    fn group(&self) -> u64 {
        1
    }

    /// Probes and totals for the traced phase of `ops` operations.
    fn layers(&mut self, t: &mut Tracer, ops: f64, layers: &mut Layers) -> Res<()>;

    /// `store_bytes_per_input_byte` at the end of the untraced phase.
    fn store_ratio(&self) -> Res<f64>;

    /// Anything the parent needs for its own checks.
    fn notes(&self) -> Vec<(&'static str, Json)> {
        Vec::new()
    }
}

fn run_phase(
    workload: &mut dyn Workload,
    t: &mut Tracer,
    limit: Limit,
    first_op: u64,
) -> Res<Phase> {
    let mut phase = Phase::default();
    let started = Instant::now();
    let group = workload.group();
    loop {
        let done = phase.attempted;
        let more = match limit {
            Limit::Seconds(s) => started.elapsed().as_secs_f64() < s,
            Limit::Ops(n) => done < n,
        };
        if !more && done > 0 && done.is_multiple_of(group) {
            break;
        }
        t.begin_op(first_op + done);
        let (secs, ok) = workload.op(t)?;
        phase.attempted += 1;
        phase.failed += u64::from(!ok);
        phase.latencies_ms.push(secs * 1e3);
        phase.wall_s += secs;
    }
    Ok(phase)
}

// ---------------------------------------------------------------------
// ingest.stream
// ---------------------------------------------------------------------

struct IngestStream {
    dir: PathBuf,
    datasets: &'static [&'static str],
    /// Store-directory fingerprints of the warm-up pass.
    reference: Vec<u64>,
    /// Sums over the traced operations.
    traced: Layers,
}

impl IngestStream {
    fn pass(&mut self, t: &mut Tracer) -> Res<(f64, Vec<u64>)> {
        for ds in self.datasets {
            let _ = std::fs::remove_dir_all(store(&self.dir, ds));
        }
        let start = Instant::now();
        let reports = t.span("op", |t| {
            self.datasets
                .iter()
                .map(|ds| ingest(t, &self.dir, ds))
                .collect::<Res<Vec<_>>>()
        })?;
        let secs = start.elapsed().as_secs_f64();
        if t.on() {
            for report in &reports {
                add_ingest_counts(&mut self.traced, report);
            }
        }
        let prints = self
            .datasets
            .iter()
            .map(|ds| util::fingerprint_dir(&store(&self.dir, ds)).map_err(err("reading store")))
            .collect::<Res<Vec<_>>>()?;
        Ok((secs, prints))
    }

    fn stores(&self) -> Vec<PathBuf> {
        self.datasets
            .iter()
            .map(|ds| store(&self.dir, ds))
            .collect()
    }
}

impl Workload for IngestStream {
    fn op(&mut self, t: &mut Tracer) -> Res<(f64, bool)> {
        let (secs, prints) = self.pass(t)?;
        Ok((secs, prints == self.reference))
    }

    fn layers(&mut self, t: &mut Tracer, ops: f64, layers: &mut Layers) -> Res<()> {
        for (name, sum) in &self.traced {
            layers.insert(name, sum / ops);
        }
        let mut parse_ms = 0.0;
        for ds in self.datasets {
            let xml = input(&self.dir, ds);
            parse_ms += probe(t, "probe.xml.parse", || {
                let file = File::open(&xml).map_err(err("input"))?;
                for event in vx_xml::Events::new(file) {
                    std::hint::black_box(event.map_err(err("parse"))?);
                }
                Ok(())
            })?;
            probe_skeleton(t, &store(&self.dir, ds), layers)?;
        }
        layers.insert("xml.parse_ms", parse_ms);
        let bytes = input_bytes(&self.dir, self.datasets)? as f64;
        layers.insert(
            "ingest.mb_per_s",
            bytes / 1e6 / (t.layer_ms("op") / ops / 1e3),
        );
        layers.insert("vector.bytes", stored_bytes(&self.stores())?.1 as f64);
        Ok(())
    }

    fn store_ratio(&self) -> Res<f64> {
        store_ratio(&self.dir, self.datasets)
    }
}

// ---------------------------------------------------------------------
// query.scan, query.join, query.cold
// ---------------------------------------------------------------------

struct Queries {
    dir: PathBuf,
    /// `(span name, dataset, source)` per query of the pass.
    specs: Vec<(String, &'static str, &'static str)>,
    /// Warm handles and compiled queries (`query.scan`, `query.join`);
    /// empty for `query.cold`, which opens and compiles inside the op.
    warm: Vec<(StoreHandle, Query)>,
    reference: Vec<Fingerprint>,
    setup: Layers,
}

impl Queries {
    fn new(dir: &Path, workload: &str, cold: bool, setup: Layers) -> Res<Queries> {
        let specs: Vec<_> = spec::query_names(workload)
            .iter()
            .map(|name| {
                let q = spec::query(name);
                (format!("engine.run:{name}"), q.dataset, q.xq)
            })
            .collect();
        let mut warm = Vec::new();
        if !cold {
            let handles = spec::DATASETS
                .iter()
                .map(|ds| StoreHandle::open(&store(dir, ds)).map_err(err("open")))
                .collect::<Res<Vec<_>>>()?;
            for (_, dataset, xq) in &specs {
                let handle = handles
                    .iter()
                    .find(|h| h.name() == *dataset)
                    .expect("four stores");
                warm.push((handle.clone(), Query::new(xq).map_err(err("compile"))?));
            }
        }
        let mut queries = Queries {
            dir: dir.to_path_buf(),
            specs,
            warm,
            reference: Vec::new(),
            setup,
        };
        let (_, outputs) = queries.pass(&mut Tracer::new(false))?;
        queries.reference = fingerprints(&outputs)?;
        Ok(queries)
    }

    fn pass(&self, t: &mut Tracer) -> Res<(f64, Vec<QueryOutput>)> {
        let start = Instant::now();
        let outputs = t.span("op", |t| {
            let mut outputs = Vec::with_capacity(self.specs.len());
            for (i, (span, dataset, xq)) in self.specs.iter().enumerate() {
                if let Some((handle, query)) = self.warm.get(i) {
                    outputs.push(run_query(t, span, query, handle)?);
                } else {
                    // Cold: nothing survives from one query to the next.
                    let handle = t
                        .span("core.open", |_| {
                            StoreHandle::open(&store(&self.dir, dataset))
                        })
                        .map_err(err("open"))?;
                    let query = t
                        .span("engine.compile", |_| Query::new(xq))
                        .map_err(err("compile"))?;
                    outputs.push(run_query(t, span, &query, &handle)?);
                }
            }
            Ok::<_, String>(outputs)
        })?;
        // The outputs outlive the window on purpose: fingerprinting a
        // constructed document rebuilds a DOM the engine never builds.
        Ok((start.elapsed().as_secs_f64(), outputs))
    }
}

fn fingerprints(outputs: &[QueryOutput]) -> Res<Vec<Fingerprint>> {
    outputs.iter().map(Fingerprint::of_output).collect()
}

impl Workload for Queries {
    fn op(&mut self, t: &mut Tracer) -> Res<(f64, bool)> {
        let (secs, outputs) = self.pass(t)?;
        Ok((secs, fingerprints(&outputs)? == self.reference))
    }

    fn layers(&mut self, t: &mut Tracer, ops: f64, layers: &mut Layers) -> Res<()> {
        layers.extend(self.setup.iter());
        let cold = self.warm.is_empty();
        // Cold, a pass opens one store per query and the spans have timed
        // it; warm, the set-up opened each store once and probes time it.
        let opens: Vec<&str> = if cold {
            self.specs.iter().map(|s| s.1).collect()
        } else {
            spec::DATASETS.to_vec()
        };
        let mut open_ms = t.layer_ms("core.open") / ops;
        let mut compile_ms = t.layer_ms("engine.compile") / ops;
        let mut plan_ms = 0.0;
        for ds in opens {
            let dir = store(&self.dir, ds);
            probe_skeleton(t, &dir, layers)?;
            if !cold {
                open_ms += probe(t, "probe.core.open", || {
                    StoreHandle::open(&dir).map(|_| ()).map_err(err("open"))
                })?;
            }
        }
        for (i, (_, dataset, xq)) in self.specs.iter().enumerate() {
            let fresh;
            let (handle, query) = match self.warm.get(i) {
                Some(pair) => {
                    compile_ms += probe(t, "probe.engine.compile", || {
                        Query::new(xq).map(|_| ()).map_err(err("compile"))
                    })?;
                    pair
                }
                None => {
                    let handle = StoreHandle::open(&store(&self.dir, dataset));
                    fresh = (
                        handle.map_err(err("open"))?,
                        Query::new(xq).map_err(err("compile"))?,
                    );
                    &fresh
                }
            };
            plan_ms += probe(t, "probe.engine.plan", || {
                query.explain(handle).map(|_| ()).map_err(err("explain"))
            })?;
        }
        layers.insert("core.open_ms", open_ms);
        layers.insert("engine.compile_ms", compile_ms);
        layers.insert("engine.plan_ms", plan_ms);
        // What an open spends outside the skeleton layer is vector decode
        // (every vector exploded) and the integrity gate.
        let skeleton_ms = layers["skeleton.decode_ms"]
            + layers["skeleton.index_load_ms"]
            + layers["skeleton.path_index_ms"];
        layers.insert("vector.decode_ms", (open_ms - skeleton_ms).max(0.0));
        Ok(())
    }

    fn store_ratio(&self) -> Res<f64> {
        store_ratio(&self.dir, &spec::DATASETS)
    }
}

// ---------------------------------------------------------------------
// append.reopen
// ---------------------------------------------------------------------

struct AppendReopen {
    dir: PathBuf,
    batches: Vec<Vec<u8>>,
    /// Citations per batch, counted from the batch text.
    batch_citations: Vec<u64>,
    query: Query,
    /// Batches appended so far, warm-up included; the next is
    /// `appended % batches.len()`.
    appended: u64,
    /// Citations every acknowledged append has made visible.
    citations: u64,
    user_bytes: u64,
    /// Sums over the traced operations.
    wal_bytes: f64,
    batch_bytes: f64,
    rewritten_bytes: f64,
    compactions: f64,
}

impl AppendReopen {
    fn store(&self) -> PathBuf {
        store(&self.dir, "ml")
    }

    fn cycle(&mut self, t: &mut Tracer) -> Res<(f64, bool)> {
        let dir = self.store();
        let which = self.appended as usize % self.batches.len();
        let batch = std::slice::from_ref(&self.batches[which]);
        let batch_bytes = batch[0].len();
        let compacts = (self.appended + 1).is_multiple_of(COMPACT_EVERY as u64);
        let start = Instant::now();
        let (report, output) = t.span("op", |t| {
            let report = t
                .span("wal.append", |_| {
                    Store::append_batch(&dir, batch, &AppendOptions::default())
                })
                .map_err(err("append"))?;
            let handle = t
                .span("core.open", |_| StoreHandle::open(&dir))
                .map_err(err("open"))?;
            let output = run_query(t, "engine.run:count", &self.query, &handle)?;
            drop(handle);
            if compacts {
                t.span("core.compact", |_| Store::compact(&dir, Compaction::Auto))
                    .map_err(err("compact"))?;
            }
            Ok::<_, String>((report, output))
        })?;
        let secs = start.elapsed().as_secs_f64();
        self.appended += 1;
        self.citations += self.batch_citations[which];
        self.user_bytes += batch_bytes as u64;
        if t.on() {
            self.wal_bytes += report.wal_bytes as f64;
            self.batch_bytes += batch_bytes as f64;
            if compacts {
                self.compactions += 1.0;
                self.rewritten_bytes += StoreSizes::measure(&dir)
                    .map_err(err("measuring store"))?
                    .total() as f64;
            }
        }
        let visible = match &output {
            QueryOutput::Values(values) => values.len() as u64,
            QueryOutput::Document(_) => 0,
        };
        Ok((secs, report.synced && visible == self.citations))
    }
}

impl Workload for AppendReopen {
    fn op(&mut self, t: &mut Tracer) -> Res<(f64, bool)> {
        self.cycle(t)
    }

    fn group(&self) -> u64 {
        COMPACT_EVERY as u64
    }

    fn layers(&mut self, t: &mut Tracer, ops: f64, layers: &mut Layers) -> Res<()> {
        for (name, layer) in [
            ("wal.append_ms", "wal.append"),
            ("core.open_ms", "core.open"),
            ("core.compact_ms", "core.compact"),
        ] {
            layers.insert(name, t.layer_ms(layer) / ops);
        }
        layers.insert("wal.bytes_per_user_byte", self.wal_bytes / self.batch_bytes);
        layers.insert(
            "compact.bytes_rewritten",
            self.rewritten_bytes / self.compactions.max(1.0),
        );
        // A phase ends right after a compaction, so this open replays
        // nothing: the difference to the traced opens is the replay.
        let dir = self.store();
        let clean_ms = probe(t, "probe.core.open_clean", || {
            StoreHandle::open(&dir).map(|_| ()).map_err(err("open"))
        })?;
        layers.insert(
            "wal.replay_ms",
            (layers["core.open_ms"] - clean_ms).max(0.0),
        );
        probe_skeleton(t, &dir, layers)?;
        let skeleton_ms = layers["skeleton.decode_ms"]
            + layers["skeleton.index_load_ms"]
            + layers["skeleton.path_index_ms"];
        layers.insert("vector.decode_ms", (clean_ms - skeleton_ms).max(0.0));
        let query = &self.query;
        let handle = StoreHandle::open(&dir).map_err(err("open"))?;
        layers.insert(
            "engine.compile_ms",
            probe(t, "probe.engine.compile", || {
                Query::new(spec::COUNT_QUERY)
                    .map(|_| ())
                    .map_err(err("compile"))
            })?,
        );
        layers.insert(
            "engine.plan_ms",
            probe(t, "probe.engine.plan", || {
                query.explain(&handle).map(|_| ()).map_err(err("explain"))
            })?,
        );
        let sizes = StoreSizes::measure(&dir).map_err(err("measuring store"))?;
        layers.insert("vector.bytes", sizes.vector_bytes as f64);
        layers.insert("vector.count", handle.catalog().vectors.len() as f64);
        Ok(())
    }

    fn store_ratio(&self) -> Res<f64> {
        Ok(stored_bytes(&[self.store()])?.0 as f64 / self.user_bytes as f64)
    }

    fn notes(&self) -> Vec<(&'static str, Json)> {
        vec![("appended", num(self.appended as f64))]
    }
}

// ---------------------------------------------------------------------
// Set-up and the run itself
// ---------------------------------------------------------------------

/// Builds the stores a workload starts from and returns what the ingest
/// layers reported while doing it.
pub fn build_stores(dir: &Path, workload: &str) -> Res<Layers> {
    let mut layers = Layers::new();
    let mut stores = Vec::new();
    for ds in spec::datasets(workload) {
        let report = ingest(&mut Tracer::new(false), dir, ds)?;
        add_ingest_counts(&mut layers, &report);
        stores.push(store(dir, ds));
    }
    layers.insert("vector.bytes", stored_bytes(&stores)?.1 as f64);
    Ok(layers)
}

fn set_up(args: &ExecArgs) -> Res<Box<dyn Workload>> {
    let dir = &args.dir;
    match args.workload.as_str() {
        "ingest.stream" => {
            let mut workload = IngestStream {
                dir: dir.clone(),
                datasets: spec::datasets(&args.workload),
                reference: Vec::new(),
                traced: Layers::new(),
            };
            workload.reference = workload.pass(&mut Tracer::new(false))?.1;
            Ok(Box::new(workload))
        }
        "query.scan" | "query.join" | "query.cold" => {
            let setup = build_stores(dir, &args.workload)?;
            let cold = args.workload == "query.cold";
            Ok(Box::new(Queries::new(dir, &args.workload, cold, setup)?))
        }
        "append.reopen" => {
            // An earlier round left generations and a WAL behind.
            let _ = std::fs::remove_dir_all(store(dir, "ml"));
            build_stores(dir, &args.workload)?;
            let mut batches = Vec::new();
            loop {
                let path = dir
                    .join("inputs")
                    .join(format!("batch-{:03}.xml", batches.len()));
                match std::fs::read(&path) {
                    Ok(bytes) => batches.push(bytes),
                    Err(_) if !batches.is_empty() => break,
                    Err(e) => return Err(format!("{}: {e}", path.display())),
                }
            }
            let count = |xml: &[u8]| {
                let tag = b"<MedlineCitation>";
                xml.windows(tag.len()).filter(|w| w == tag).count() as u64
            };
            let base = std::fs::read(input(dir, "ml")).map_err(err("ml.xml"))?;
            let mut workload = AppendReopen {
                dir: dir.clone(),
                batch_citations: batches.iter().map(|b| count(b)).collect(),
                batches,
                query: Query::new(spec::COUNT_QUERY).map_err(err("compile"))?,
                appended: 0,
                citations: count(&base),
                user_bytes: base.len() as u64,
                wal_bytes: 0.0,
                batch_bytes: 0.0,
                rewritten_bytes: 0.0,
                compactions: 0.0,
            };
            // Warm-up: one group of cycles, so that timing starts on a
            // generational store right after a compaction.
            for _ in 0..COMPACT_EVERY {
                let (_, ok) = workload.cycle(&mut Tracer::new(false))?;
                if !ok {
                    return Err("warm-up cycle did not show every acknowledged citation".into());
                }
            }
            Ok(Box::new(workload))
        }
        other => Err(format!("unknown workload `{other}`")),
    }
}

/// The end-to-end metrics of a phase, `setup_s` aside (the parent times
/// that from the outside).
pub fn end_to_end(phase: &Phase, peak_rss_mb: f64, store_ratio: f64) -> Vec<(&'static str, f64)> {
    vec![
        ("latency_ms_p50", phase.p50()),
        ("latency_ms_p90", util::quantile(&phase.latencies_ms, 0.9)),
        (
            "ops_per_s",
            (phase.attempted - phase.failed) as f64 / phase.wall_s,
        ),
        ("peak_rss_mb", peak_rss_mb),
        ("store_bytes_per_input_byte", store_ratio),
    ]
}

/// Engine times and waste ratios from the traced spans and counts.
pub fn engine_layers(t: &Tracer, ops: f64, layers: &mut Layers) {
    for (name, layer) in [
        ("engine.match_ms", "engine.match"),
        ("engine.group_ms", "engine.group"),
        ("engine.join_build_ms", "engine.join_build"),
        ("engine.enumerate_ms", "engine.enumerate"),
        ("engine.output_ms", "engine.output"),
    ] {
        layers.insert(name, t.layer_ms(layer) / ops);
    }
    for name in [
        "skeleton.visits",
        "struct.nodes.skipped",
        "cursor.values.passed",
        "cursor.values.skipped",
        "join.probe.hits",
        "join.probe.misses",
        "tuples.emitted",
        "values.emitted",
    ] {
        layers.insert(name, t.counted(name) / ops);
    }
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let passed = t.counted("cursor.values.passed");
    let probes = t.counted("join.probe.hits") + t.counted("join.probe.misses");
    layers.insert(
        "engine.visits_per_value",
        ratio(t.counted("skeleton.visits"), t.counted("values.emitted")),
    );
    layers.insert(
        "cursor.pass_ratio",
        ratio(passed, passed + t.counted("cursor.values.skipped")),
    );
    layers.insert(
        "join.tuples_per_probe",
        ratio(t.counted("tuples.emitted"), probes),
    );
}

/// The child's result line.
pub fn result_json(
    phase: &Phase,
    metrics: &[(&'static str, f64)],
    traced: Option<(&Phase, &Layers)>,
    notes: Vec<(&'static str, Json)>,
) -> Json {
    let pairs = |items: &mut dyn Iterator<Item = (&'static str, f64)>| {
        Json::Object(items.map(|(k, v)| (k.to_string(), num(v))).collect())
    };
    let mut fields = vec![
        ("n", num(phase.latencies_ms.len() as f64)),
        ("attempted", num(phase.attempted as f64)),
        ("failed", num(phase.failed as f64)),
        ("metrics", pairs(&mut metrics.iter().copied())),
    ];
    if let Some((traced, layers)) = traced {
        fields.push(("traced_n", num(traced.latencies_ms.len() as f64)));
        fields.push(("traced_attempted", num(traced.attempted as f64)));
        fields.push(("traced_failed", num(traced.failed as f64)));
        fields.push(("layers", pairs(&mut layers.iter().map(|(k, v)| (*k, *v)))));
    }
    fields.extend(notes);
    obj(fields)
}

/// Closes a traced phase: the overhead ratio against the untraced phase
/// goes into `layers`, the trace document to `--trace-out`.
pub fn finish_trace(
    args: &ExecArgs,
    t: &Tracer,
    untraced: &Phase,
    traced: &Phase,
    layers: &mut Layers,
) -> Res<()> {
    let overhead = traced.p50() / untraced.p50();
    layers.insert("trace.overhead_ratio", overhead);
    let Some(path) = &args.trace_out else {
        return Ok(());
    };
    let op_wall_ms: f64 = traced.latencies_ms.iter().sum();
    let mut doc = vec![
        ("workload".to_string(), util::text(&args.workload)),
        (
            "traced_ops".to_string(),
            num(traced.latencies_ms.len() as f64),
        ),
        ("overhead_ratio".to_string(), num(overhead)),
    ];
    doc.extend(util::fields(&t.to_json(op_wall_ms)).iter().cloned());
    std::fs::write(path, vx_core::json::to_string_pretty(&Json::Object(doc)))
        .map_err(err(&path.display().to_string()))
}

pub fn exec(args: &ExecArgs) -> Res<()> {
    if args.workload == "serve.mixed" {
        return serve::exec(args);
    }
    let mut workload = set_up(args)?;
    println!("READY");
    if args.setup_only {
        return Ok(());
    }
    let mut off = Tracer::new(false);
    let phase = run_phase(workload.as_mut(), &mut off, args.limit, 0)?;
    let rss = util::peak_rss_mb("self")?;
    let metrics = end_to_end(&phase, rss, workload.store_ratio()?);

    let mut traced_out = None;
    if let Some(limit) = args.traced {
        let mut t = Tracer::new(true);
        let traced = run_phase(workload.as_mut(), &mut t, limit, phase.attempted)?;
        let ops = traced.latencies_ms.len() as f64;
        let mut layers = Layers::new();
        engine_layers(&t, ops, &mut layers);
        workload.layers(&mut t, ops, &mut layers)?;
        finish_trace(args, &t, &phase, &traced, &mut layers)?;
        traced_out = Some((traced, layers));
    }
    let result = result_json(
        &phase,
        &metrics,
        traced_out.as_ref().map(|(p, l)| (p, l)),
        workload.notes(),
    );
    println!("{}", util::to_line(&result));
    Ok(())
}
