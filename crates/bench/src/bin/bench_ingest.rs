//! Ingest-throughput micro-bench: docs/sec and MB/s for the DOM and
//! streaming ingest paths over generated MedLine- and SkyServer-shaped
//! corpora, emitted as `BENCH_ingest.json`.
//!
//! ```text
//! bench_ingest [--ml N,N,...] [--ss N,N,...] [--iters K] [--out FILE]
//! ```
//!
//! Defaults: `--ml 200,1000 --ss 500,2500 --iters 3 --out BENCH_ingest.json`.

use std::path::PathBuf;
use std::process::exit;
use vx_bench::{time_append, time_ingest, StoreSizes};
use vx_core::json::{to_string_pretty, Json};
use vx_xml::WriteOptions;

struct Config {
    medline_sizes: Vec<usize>,
    skyserver_sizes: Vec<usize>,
    iters: u32,
    out: PathBuf,
}

fn parse_sizes(flag: &str, value: &str) -> Vec<usize> {
    value
        .split(',')
        .filter(|s| !s.is_empty())
        .map(|s| {
            s.parse().unwrap_or_else(|_| {
                eprintln!("bench_ingest: bad {flag} size `{s}`");
                exit(1);
            })
        })
        .collect()
}

fn parse_args() -> Config {
    let mut config = Config {
        medline_sizes: vec![200, 1000],
        skyserver_sizes: vec![500, 2500],
        iters: 3,
        out: PathBuf::from("BENCH_ingest.json"),
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |flag: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("bench_ingest: {flag} needs a value");
                exit(1);
            })
        };
        match flag.as_str() {
            "--ml" => config.medline_sizes = parse_sizes("--ml", &value("--ml")),
            "--ss" => config.skyserver_sizes = parse_sizes("--ss", &value("--ss")),
            "--iters" => {
                config.iters = value("--iters").parse().unwrap_or_else(|_| {
                    eprintln!("bench_ingest: bad --iters value");
                    exit(1);
                })
            }
            "--out" => config.out = PathBuf::from(value("--out")),
            other => {
                eprintln!("bench_ingest: unknown flag `{other}`");
                eprintln!(
                    "usage: bench_ingest [--ml N,N,...] [--ss N,N,...] [--iters K] [--out FILE]"
                );
                exit(1);
            }
        }
    }
    config
}

fn main() {
    let config = parse_args();
    let scratch = std::env::temp_dir().join(format!("vx-bench-ingest-{}", std::process::id()));
    let write_opts = WriteOptions::compact();

    let mut corpora: Vec<(&str, usize, vx_xml::Document)> = Vec::new();
    for &n in &config.medline_sizes {
        corpora.push(("medline", n, vx_data::medline(42, n)));
    }
    for &n in &config.skyserver_sizes {
        corpora.push(("skyserver", n, vx_data::skyserver(42, n)));
    }

    let mut runs = Vec::new();
    for (corpus, records, doc) in &corpora {
        let xml = vx_xml::write_document(doc, &write_opts);
        let dir = scratch.join(format!("{corpus}-{records}"));
        let timing = match time_ingest(&dir, &xml, config.iters) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("bench_ingest: {corpus}-{records}: {e}");
                exit(2);
            }
        };
        let mb = timing.input_bytes as f64 / 1_000_000.0;
        println!(
            "{corpus:>9} {records:>6} records  {:>8.3} MB  \
             dom {:>8.1} rec/s {:>7.2} MB/s  stream {:>8.1} rec/s {:>7.2} MB/s  \
             (pipeline {:.3}s + write {:.3}s, {} spill pages)",
            mb,
            *records as f64 / timing.dom_secs,
            mb / timing.dom_secs,
            *records as f64 / timing.stream_secs,
            mb / timing.stream_secs,
            timing.pipeline_secs,
            timing.write_secs,
            timing.spill_pages,
        );
        // Append path: journal a ~5% batch into the WAL over the freshly
        // ingested base, reopen through replay, and compact it away.
        let extra_records = (*records / 20).max(1);
        let extra = match *corpus {
            "medline" => vx_data::medline(43, extra_records),
            _ => vx_data::skyserver(43, extra_records),
        };
        let batch = vec![vx_xml::write_document(&extra, &write_opts).into_bytes()];
        let append_dir = scratch.join(format!("{corpus}-{records}-append"));
        let append = match time_append(&append_dir, &xml, &batch, config.iters) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("bench_ingest: {corpus}-{records} append: {e}");
                exit(2);
            }
        };
        println!(
            "{:>9} {extra_records:>6} records  {:>8.3} MB  \
             wal {:>8.1} rec/s ({:.4}s{})  reopen {:.4}s  compact {:.4}s",
            "+append",
            append.append_bytes as f64 / 1_000_000.0,
            extra_records as f64 / append.append_secs,
            append.append_secs,
            if append.synced { "" } else { ", unsynced" },
            append.reopen_secs,
            append.compact_secs,
        );

        // Both ingest paths leave their stores behind; the streaming one
        // carries the persisted structural index like any other save.
        let sizes = StoreSizes::measure(&dir.join("stream")).unwrap_or_else(|e| {
            eprintln!("bench_ingest: {corpus}-{records}: measuring store: {e}");
            exit(2);
        });

        runs.push(Json::Object(vec![
            ("corpus".into(), Json::Str(corpus.to_string())),
            ("records".into(), Json::Num(*records as f64)),
            ("input_bytes".into(), Json::Num(timing.input_bytes as f64)),
            ("store_bytes".into(), Json::Num(sizes.total() as f64)),
            ("index_bytes".into(), Json::Num(sizes.index_bytes as f64)),
            ("dom_secs".into(), Json::Num(timing.dom_secs)),
            ("stream_secs".into(), Json::Num(timing.stream_secs)),
            (
                "dom_records_per_sec".into(),
                Json::Num(*records as f64 / timing.dom_secs),
            ),
            (
                "stream_records_per_sec".into(),
                Json::Num(*records as f64 / timing.stream_secs),
            ),
            ("dom_mb_per_sec".into(), Json::Num(mb / timing.dom_secs)),
            (
                "stream_mb_per_sec".into(),
                Json::Num(mb / timing.stream_secs),
            ),
            // Streaming-path phase split (best repetition) and the
            // deterministic pipeline tallies.
            (
                "stream_phases".into(),
                Json::Object(vec![
                    ("pipeline_secs".into(), Json::Num(timing.pipeline_secs)),
                    ("write_secs".into(), Json::Num(timing.write_secs)),
                ]),
            ),
            (
                "pipeline".into(),
                Json::Object(vec![
                    ("events".into(), Json::Num(timing.events as f64)),
                    ("elements".into(), Json::Num(timing.elements as f64)),
                    ("values".into(), Json::Num(timing.values as f64)),
                ]),
            ),
            ("spill_pages".into(), Json::Num(timing.spill_pages as f64)),
            // Append-path row: WAL journaling, replay-on-open, and
            // compaction cost for a ~5% batch over this base corpus.
            (
                "append".into(),
                Json::Object(vec![
                    ("records".into(), Json::Num(extra_records as f64)),
                    ("docs".into(), Json::Num(append.append_docs as f64)),
                    ("batch_bytes".into(), Json::Num(append.append_bytes as f64)),
                    ("wal_bytes".into(), Json::Num(append.wal_bytes as f64)),
                    ("append_secs".into(), Json::Num(append.append_secs)),
                    ("reopen_secs".into(), Json::Num(append.reopen_secs)),
                    ("compact_secs".into(), Json::Num(append.compact_secs)),
                    (
                        "append_records_per_sec".into(),
                        Json::Num(extra_records as f64 / append.append_secs),
                    ),
                    ("synced".into(), Json::Bool(append.synced)),
                ]),
            ),
        ]));
    }
    let _ = std::fs::remove_dir_all(&scratch);

    let report = Json::Object(vec![
        ("bench".into(), Json::Str("ingest".into())),
        ("iters".into(), Json::Num(config.iters as f64)),
        ("runs".into(), Json::Array(runs)),
    ]);
    if let Err(e) = std::fs::write(&config.out, to_string_pretty(&report)) {
        eprintln!("bench_ingest: writing {}: {e}", config.out.display());
        exit(2);
    }
    println!("wrote {}", config.out.display());
}
