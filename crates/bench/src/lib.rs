//! `vx-bench` — measurement harness (DESIGN.md row 10).
//!
//! Carries size accounting for a store directory, the ingest-throughput
//! stopwatch behind the `bench_ingest` binary (`BENCH_ingest.json`), and
//! the paper's evaluation tables: `table1` measures dataset/store
//! statistics over all four corpora (`BENCH_table1.json`), `table3`
//! measures cold query times for the 13-query workload
//! (`BENCH_table3.json`). EXPERIMENTS.md is written from those files.

use std::path::Path;
use std::time::Instant;
use vx_core::json::Json;
use vx_core::{CoreError, IngestOptions, Store, VecDoc};
use vx_engine::{Query, QueryOutput, QueryProfile};

/// Size breakdown of one persisted store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreSizes {
    /// Bytes of `skeleton.vxsk`.
    pub skeleton_bytes: u64,
    /// Bytes across all `v*.vec` files.
    pub vector_bytes: u64,
    /// Bytes of `catalog.json`.
    pub catalog_bytes: u64,
    /// Bytes of `index.vxpi` (the persisted structural self-index;
    /// 0 for pre-v9 stores, which rebuild it at open time).
    pub index_bytes: u64,
    /// Bytes across `wal/seg-*.wal` (appended-but-uncompacted data).
    pub wal_bytes: u64,
}

impl StoreSizes {
    /// Bytes of the active generation's store files (the WAL is journal
    /// overhead on top, reported separately).
    pub fn total(&self) -> u64 {
        self.skeleton_bytes + self.vector_bytes + self.catalog_bytes + self.index_bytes
    }

    /// Measures a store directory on disk (no decoding). Generational
    /// stores (a `CURRENT` manifest pointing at `gen-NNNN/`) are
    /// measured at their active generation; the WAL directory, if any,
    /// is tallied separately.
    pub fn measure(dir: &Path) -> std::io::Result<StoreSizes> {
        let base = Store::base_dir(dir).map_err(|e| match e {
            CoreError::Io(e) => e,
            other => std::io::Error::other(other.to_string()),
        })?;
        let mut sizes = StoreSizes::measure_flat(&base)?;
        let wal_dir = dir.join(vx_wal::WAL_DIR);
        if wal_dir.is_dir() {
            for entry in std::fs::read_dir(&wal_dir)? {
                let entry = entry?;
                if entry.file_name().to_string_lossy().ends_with(".wal") {
                    sizes.wal_bytes += entry.metadata()?.len();
                }
            }
        }
        Ok(sizes)
    }

    /// Measures one directory's store files with no layout resolution.
    fn measure_flat(dir: &Path) -> std::io::Result<StoreSizes> {
        let mut sizes = StoreSizes {
            skeleton_bytes: 0,
            vector_bytes: 0,
            catalog_bytes: 0,
            index_bytes: 0,
            wal_bytes: 0,
        };
        for entry in std::fs::read_dir(dir)? {
            let entry = entry?;
            let len = entry.metadata()?.len();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if name == "skeleton.vxsk" {
                sizes.skeleton_bytes = len;
            } else if name == "catalog.json" {
                sizes.catalog_bytes = len;
            } else if name == "index.vxpi" {
                sizes.index_bytes = len;
            } else if name.ends_with(".vec") {
                sizes.vector_bytes += len;
            }
        }
        Ok(sizes)
    }
}

/// Builds a store from a generated corpus and reports its sizes —
/// the vectorize half of the paper's Table 1 experiment.
pub fn build_and_measure(
    dir: &Path,
    doc: &vx_xml::Document,
) -> std::result::Result<StoreSizes, CoreError> {
    let vec_doc = vx_core::vectorize(doc)?;
    Store::save(dir, &vec_doc, vx_core::Compaction::Auto)?;
    StoreSizes::measure(dir).map_err(CoreError::Io)
}

/// Wall-clock comparison of the two ingest paths over one XML text,
/// with the streaming path's phase split and pipeline tallies.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IngestTiming {
    /// Bytes of the XML input text.
    pub input_bytes: u64,
    /// Best-of-`iters` seconds for `parse` + `vectorize` + `Store::save`.
    pub dom_secs: f64,
    /// Best-of-`iters` seconds for `Store::ingest_stream`.
    pub stream_secs: f64,
    /// Spill pages the streaming path allocated (0 = fit in tail pages).
    pub spill_pages: u64,
    /// Parse/cons/spill seconds of the best streaming repetition.
    pub pipeline_secs: f64,
    /// Skeleton/vector/catalog write seconds of the best streaming rep.
    pub write_secs: f64,
    /// Reader events the streaming pipeline consumed (deterministic).
    pub events: u64,
    /// Elements the streaming pipeline opened (deterministic).
    pub elements: u64,
    /// Text + attribute values appended (deterministic).
    pub values: u64,
}

/// Times both ingest paths over `xml`, best of `iters` runs each, building
/// into `dir/dom` and `dir/stream`. Each iteration rebuilds from scratch;
/// timings include all store I/O, matching how the paper reports
/// vectorization cost (input to durable store).
pub fn time_ingest(dir: &Path, xml: &str, iters: u32) -> Result<IngestTiming, CoreError> {
    let iters = iters.max(1);
    let dom_dir = dir.join("dom");
    let stream_dir = dir.join("stream");
    let options = IngestOptions::default();

    let mut timing = IngestTiming {
        input_bytes: xml.len() as u64,
        dom_secs: f64::INFINITY,
        stream_secs: f64::INFINITY,
        spill_pages: 0,
        pipeline_secs: 0.0,
        write_secs: 0.0,
        events: 0,
        elements: 0,
        values: 0,
    };
    for _ in 0..iters {
        let _ = std::fs::remove_dir_all(&dom_dir);
        let start = Instant::now();
        let doc = vx_xml::parse(xml)?;
        let vec_doc = vx_core::vectorize(&doc)?;
        Store::save(&dom_dir, &vec_doc, vx_core::Compaction::None)?;
        timing.dom_secs = timing.dom_secs.min(start.elapsed().as_secs_f64());

        let _ = std::fs::remove_dir_all(&stream_dir);
        let start = Instant::now();
        let report = Store::ingest_stream(&stream_dir, xml.as_bytes(), &options)?;
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed < timing.stream_secs {
            // Keep the phase split of the best repetition so the parts
            // belong to the same run as the reported total.
            timing.stream_secs = elapsed;
            timing.pipeline_secs = report.pipeline_secs;
            timing.write_secs = report.write_secs;
        }
        // Counters and spill pages are deterministic per input, so
        // taking them from the last repetition loses nothing.
        timing.spill_pages = report.spill_pages;
        timing.events = report.stats.events;
        timing.elements = report.stats.elements;
        timing.values = report.stats.values();
    }
    Ok(timing)
}

/// Wall-clock timings for the append path: WAL journaling, replay-on-open,
/// and compaction into a fresh generation. Each phase is best-of-`iters`
/// over a freshly rebuilt base store.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AppendTiming {
    /// Documents per appended batch.
    pub append_docs: u64,
    /// XML bytes of the appended batch.
    pub append_bytes: u64,
    /// Best-of-`iters` seconds for `Store::append_batch` (validate +
    /// journal + sync, per `VX_WAL_SYNC`).
    pub append_secs: f64,
    /// Best-of-`iters` seconds for `Store::open_report` with the batch
    /// pending in the WAL (replay + overlay rebuild).
    pub reopen_secs: f64,
    /// Best-of-`iters` seconds for `Store::compact` folding the WAL into
    /// a fresh generation.
    pub compact_secs: f64,
    /// WAL frame bytes the batch occupied before compaction.
    pub wal_bytes: u64,
    /// Whether the journal was fsync'd (false under `VX_WAL_SYNC=off`).
    pub synced: bool,
}

/// Times the append path over a base corpus: per iteration the base store
/// is rebuilt from scratch (untimed), then `append_batch`, a replaying
/// `open_report`, and `compact` are each timed.
pub fn time_append(
    dir: &Path,
    base_xml: &str,
    batch: &[Vec<u8>],
    iters: u32,
) -> Result<AppendTiming, CoreError> {
    let iters = iters.max(1);
    let doc = vx_xml::parse(base_xml)?;
    let vec_doc = vx_core::vectorize(&doc)?;
    let options = vx_core::AppendOptions::default();

    let mut timing = AppendTiming {
        append_docs: batch.len() as u64,
        append_bytes: batch.iter().map(|b| b.len() as u64).sum(),
        append_secs: f64::INFINITY,
        reopen_secs: f64::INFINITY,
        compact_secs: f64::INFINITY,
        wal_bytes: 0,
        synced: false,
    };
    for _ in 0..iters {
        let _ = std::fs::remove_dir_all(dir);
        Store::save(dir, &vec_doc, vx_core::Compaction::None)?;

        let start = Instant::now();
        let report = Store::append_batch(dir, batch, &options)?;
        timing.append_secs = timing.append_secs.min(start.elapsed().as_secs_f64());
        timing.wal_bytes = report.wal_bytes;
        timing.synced = report.synced;

        let start = Instant::now();
        let open = Store::open_report(dir)?;
        timing.reopen_secs = timing.reopen_secs.min(start.elapsed().as_secs_f64());
        debug_assert_eq!(open.wal.pending_docs, batch.len() as u64);

        let start = Instant::now();
        Store::compact(dir, vx_core::Compaction::None)?;
        timing.compact_secs = timing.compact_secs.min(start.elapsed().as_secs_f64());
    }
    Ok(timing)
}

/// The four bench datasets in paper order, keyed by the `doc("…")` names
/// the workload queries use.
pub const DATASETS: [&str; 4] = ["xk", "tb", "ml", "ss"];

/// Per-corpus record counts for a bench run. "Records" means items for
/// XMark, sentences for TreeBank, citations for MedLine, and rows for
/// SkyServer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BenchScales {
    pub xk_items: usize,
    pub tb_sentences: usize,
    pub ml_citations: usize,
    pub ss_rows: usize,
}

impl BenchScales {
    /// The committed-numbers scale: roughly 1/100 of the paper's
    /// gigabyte-scale corpora, sized so a full `table1` + `table3` run
    /// finishes in minutes on a laptop.
    pub const DEFAULT: BenchScales = BenchScales {
        xk_items: 2000,
        tb_sentences: 10_000,
        ml_citations: 20_000,
        ss_rows: 20_000,
    };

    /// Reads `VX_BENCH_XK`/`VX_BENCH_TB`/`VX_BENCH_ML`/`VX_BENCH_SS`
    /// over the defaults — the env parameterization the CI smoke step
    /// uses to run the harness at tiny scales.
    pub fn from_env() -> BenchScales {
        let get = |name: &str, default: usize| {
            std::env::var(name)
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(default)
        };
        let d = BenchScales::DEFAULT;
        BenchScales {
            xk_items: get("VX_BENCH_XK", d.xk_items),
            tb_sentences: get("VX_BENCH_TB", d.tb_sentences),
            ml_citations: get("VX_BENCH_ML", d.ml_citations),
            ss_rows: get("VX_BENCH_SS", d.ss_rows),
        }
    }

    pub fn is_default(&self) -> bool {
        *self == BenchScales::DEFAULT
    }

    /// The scale for one dataset key ("xk" | "tb" | "ml" | "ss").
    pub fn records(&self, dataset: &str) -> usize {
        match dataset {
            "xk" => self.xk_items,
            "tb" => self.tb_sentences,
            "ml" => self.ml_citations,
            "ss" => self.ss_rows,
            other => panic!("unknown dataset `{other}`"),
        }
    }
}

/// Generates one bench corpus at the given scale. Seed 42 everywhere:
/// the committed numbers must be reproducible bit for bit.
pub fn corpus(dataset: &str, records: usize) -> vx_xml::Document {
    match dataset {
        "xk" => vx_data::xmark(42, records),
        "tb" => vx_data::treebank(42, records),
        "ml" => vx_data::medline(42, records),
        "ss" => vx_data::skyserver(42, records),
        other => panic!("unknown dataset `{other}`"),
    }
}

/// Generates, serializes, and stream-ingests one corpus into `dir`
/// (with per-vector dictionary compaction, the paper's compacted-store
/// configuration), returning the input size and ingest wall time.
pub fn build_corpus_store(
    dir: &Path,
    dataset: &str,
    records: usize,
) -> Result<CorpusBuild, CoreError> {
    let doc = corpus(dataset, records);
    let xml = vx_xml::write_document(&doc, &vx_xml::WriteOptions::compact());
    let _ = std::fs::remove_dir_all(dir);
    let options = IngestOptions {
        compaction: vx_core::Compaction::Auto,
        ..IngestOptions::default()
    };
    let start = Instant::now();
    let report = Store::ingest_stream(dir, xml.as_bytes(), &options)?;
    Ok(CorpusBuild {
        input_bytes: xml.len() as u64,
        ingest_secs: start.elapsed().as_secs_f64(),
        catalog: report.catalog,
    })
}

/// The result of [`build_corpus_store`].
pub struct CorpusBuild {
    pub input_bytes: u64,
    pub ingest_secs: f64,
    pub catalog: vx_core::Catalog,
}

/// One cold timing of one workload query: the store is re-opened (fully
/// re-decoded from disk) for every repetition, so no vector or skeleton
/// state survives between runs — process-cold, as close as a
/// userspace-only harness gets to the paper's "cold numbers".
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryTiming {
    /// Output values produced (identical across repetitions; the
    /// differential suite pins correctness at test scale).
    pub cardinality: u64,
    /// Best-of-reps store open (decode) seconds.
    pub open_secs: f64,
    /// Best-of-reps evaluation seconds.
    pub best_secs: f64,
    /// Mean evaluation seconds over the repetitions.
    pub mean_secs: f64,
}

/// Times `xq` against the store in `dir` (registered under `dataset` for
/// `doc("…")` resolution), cold, best and mean of `reps` runs.
pub fn time_query(
    dir: &Path,
    dataset: &str,
    xq: &str,
    reps: u32,
) -> Result<QueryTiming, vx_engine::EngineError> {
    let reps = reps.max(1);
    let compiled = Query::new(xq)?;
    let mut open_secs = f64::INFINITY;
    let mut best_secs = f64::INFINITY;
    let mut total_secs = 0.0;
    let mut cardinality = 0u64;
    for _ in 0..reps {
        let start = Instant::now();
        let (doc, _catalog) = Store::open(dir)?;
        open_secs = open_secs.min(start.elapsed().as_secs_f64());

        let corpus: Vec<(&str, &VecDoc)> = vec![(dataset, &doc)];
        let start = Instant::now();
        let output = compiled
            .run_with(&corpus[..], &vx_engine::RunOptions::default())?
            .output;
        let elapsed = start.elapsed().as_secs_f64();
        best_secs = best_secs.min(elapsed);
        total_secs += elapsed;
        // Materialization (counting values / reconstructing constructor
        // results) happens outside the timed window on purpose: the
        // paper times evaluation, and `strings()` on a Document output
        // rebuilds a DOM the engine itself never builds.
        cardinality = match &output {
            QueryOutput::Values(values) => values.len() as u64,
            QueryOutput::Document(_) => output.strings().len() as u64,
        };
    }
    Ok(QueryTiming {
        cardinality,
        open_secs,
        best_secs,
        mean_secs: total_secs / f64::from(reps),
    })
}

/// Runs `xq` once against the store in `dir` with engine instrumentation
/// on, returning the output cardinality and the [`QueryProfile`]. Used
/// for the per-query operation breakdowns embedded in `BENCH_*.json`;
/// timed repetitions stay unprofiled.
pub fn profile_query(
    dir: &Path,
    dataset: &str,
    xq: &str,
) -> Result<(u64, QueryProfile), vx_engine::EngineError> {
    let compiled = Query::new(xq)?;
    let (doc, _catalog) = Store::open(dir)?;
    let corpus: Vec<(&str, &VecDoc)> = vec![(dataset, &doc)];
    let options = vx_engine::RunOptions {
        profile: true,
        ..Default::default()
    };
    let outcome = compiled.run_with(&corpus[..], &options)?;
    let (output, profile) = (outcome.output, outcome.profile.expect("profile requested"));
    let cardinality = match &output {
        QueryOutput::Values(values) => values.len() as u64,
        QueryOutput::Document(_) => output.strings().len() as u64,
    };
    Ok((cardinality, profile))
}

/// Serializes a [`QueryProfile`] to the JSON shape shared by `vx query
/// --profile-json` and the breakdowns in the committed `BENCH_*.json`
/// files: `{"total_secs", "steps": [{"step","secs"}…], "counters":
/// {…}, "variables": [{"var","occurrences"}…]}`.
pub fn profile_json(profile: &QueryProfile) -> Json {
    let steps = profile
        .steps
        .iter()
        .map(|s| {
            Json::Object(vec![
                ("step".into(), Json::Str(s.name.clone())),
                ("secs".into(), Json::Num(s.secs)),
            ])
        })
        .collect();
    let counters = profile
        .counters
        .iter()
        .map(|(name, value)| (name.to_string(), Json::Num(value as f64)))
        .collect();
    let variables = profile
        .variables
        .iter()
        .map(|v| {
            Json::Object(vec![
                ("var".into(), Json::Str(v.name.clone())),
                ("occurrences".into(), Json::Num(v.occurrences as f64)),
            ])
        })
        .collect();
    Json::Object(vec![
        ("total_secs".into(), Json::Num(profile.total_secs)),
        ("steps".into(), Json::Array(steps)),
        ("counters".into(), Json::Object(counters)),
        ("variables".into(), Json::Array(variables)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_and_measures_a_generated_store() {
        let dir = std::env::temp_dir().join("vx-bench-test-store");
        let _ = std::fs::remove_dir_all(&dir);
        let doc = vx_data::medline(42, 8);
        let sizes = build_and_measure(&dir, &doc).unwrap();
        assert!(sizes.skeleton_bytes > 0);
        assert!(sizes.vector_bytes > 0);
        assert!(sizes.catalog_bytes > 0);
        assert_eq!(sizes.total(), StoreSizes::measure(&dir).unwrap().total());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn times_both_ingest_paths() {
        let dir = std::env::temp_dir().join("vx-bench-test-timing");
        let _ = std::fs::remove_dir_all(&dir);
        let doc = vx_data::skyserver(3, 50);
        let xml = vx_xml::write_document(&doc, &vx_xml::WriteOptions::compact());
        let timing = time_ingest(&dir, &xml, 2).unwrap();
        assert_eq!(timing.input_bytes, xml.len() as u64);
        assert!(timing.dom_secs > 0.0 && timing.dom_secs.is_finite());
        assert!(timing.stream_secs > 0.0 && timing.stream_secs.is_finite());
        // The streaming phase split covers the whole measured interval.
        assert!(timing.pipeline_secs > 0.0 && timing.write_secs > 0.0);
        assert!(timing.pipeline_secs + timing.write_secs <= timing.stream_secs + 1e-9);
        assert!(timing.events > timing.elements && timing.elements >= 50);
        assert!(timing.values > 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn builds_and_times_every_bench_corpus() {
        let base = std::env::temp_dir().join(format!("vx-bench-corpora-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        let scales = BenchScales {
            xk_items: 24,
            tb_sentences: 30,
            ml_citations: 40,
            ss_rows: 50,
        };
        assert!(!scales.is_default());
        for dataset in DATASETS {
            let dir = base.join(dataset);
            let build = build_corpus_store(&dir, dataset, scales.records(dataset)).unwrap();
            assert!(build.input_bytes > 0 && !build.catalog.vectors.is_empty());
            // Each dataset's workload queries run cold against its store.
            for spec in vx_data::workload().iter().filter(|q| q.dataset == dataset) {
                let timing = time_query(&dir, dataset, spec.xq, 1)
                    .unwrap_or_else(|e| panic!("{}: {e}", spec.name));
                assert!(timing.best_secs.is_finite(), "{}", spec.name);
                assert!(
                    timing.best_secs <= timing.mean_secs + 1e-12,
                    "{}",
                    spec.name
                );
            }
        }
        let _ = std::fs::remove_dir_all(&base);
    }
}
