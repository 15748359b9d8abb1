//! Table 3 — cold evaluation times for the paper's 13-query workload
//! over the four bench corpora, emitted as `BENCH_table3.json`.
//!
//! ```text
//! table3 [--xk N] [--tb N] [--ml N] [--ss N] [--iters K] [--out FILE]
//! ```
//!
//! Scales default from `BenchScales::DEFAULT`, overridable by the
//! `VX_BENCH_XK`/`VX_BENCH_TB`/`VX_BENCH_ML`/`VX_BENCH_SS` environment
//! and then by flags; `--iters` (default 3, env `VX_BENCH_ITERS`) sets
//! the repetitions per query. Every repetition re-opens the store from
//! disk, so no decoded skeleton or vector state survives between runs —
//! "process-cold". Only the VX engine is timed: the paper's four
//! comparison systems are not built here, so the comparative rows of
//! the paper's table are out of scope (see ROADMAP.md).

use std::path::PathBuf;
use std::process::exit;
use vx_bench::{
    build_corpus_store, profile_json, profile_query, time_query, BenchScales, DATASETS,
};
use vx_core::json::{to_string_pretty, Json};

struct Config {
    scales: BenchScales,
    iters: u32,
    out: PathBuf,
}

fn parse_args() -> Config {
    let mut config = Config {
        scales: BenchScales::from_env(),
        iters: std::env::var("VX_BENCH_ITERS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(3),
        out: PathBuf::from("BENCH_table3.json"),
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |flag: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("table3: {flag} needs a value");
                exit(2);
            })
        };
        let parse_num = |flag: &str, v: String| {
            v.parse().unwrap_or_else(|_| {
                eprintln!("table3: bad {flag} value `{v}`");
                exit(2);
            })
        };
        match flag.as_str() {
            "--xk" => config.scales.xk_items = parse_num("--xk", value("--xk")),
            "--tb" => config.scales.tb_sentences = parse_num("--tb", value("--tb")),
            "--ml" => config.scales.ml_citations = parse_num("--ml", value("--ml")),
            "--ss" => config.scales.ss_rows = parse_num("--ss", value("--ss")),
            "--iters" => config.iters = parse_num("--iters", value("--iters")) as u32,
            "--out" => config.out = PathBuf::from(value("--out")),
            other => {
                eprintln!("table3: unknown flag `{other}`");
                eprintln!(
                    "usage: table3 [--xk N] [--tb N] [--ml N] [--ss N] [--iters K] [--out FILE]"
                );
                exit(2);
            }
        }
    }
    config
}

fn human(secs: f64) -> String {
    if secs >= 1.0 {
        format!("{secs:.2}s")
    } else if secs >= 1e-3 {
        format!("{:.1}ms", secs * 1e3)
    } else {
        format!("{:.0}\u{00b5}s", secs * 1e6)
    }
}

fn main() {
    let config = parse_args();
    let scratch = std::env::temp_dir().join(format!("vx-table3-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);

    // Build all four stores once; queries then open them cold per rep.
    let mut store_rows = Vec::new();
    for dataset in DATASETS {
        let records = config.scales.records(dataset);
        let build =
            build_corpus_store(&scratch.join(dataset), dataset, records).unwrap_or_else(|e| {
                eprintln!("table3: building {dataset}: {e}");
                exit(1);
            });
        println!(
            "built {dataset:>2}: {:>8} records, {:>9.2} MB in {:.2}s",
            records,
            build.input_bytes as f64 / 1e6,
            build.ingest_secs
        );
        store_rows.push(Json::Object(vec![
            ("dataset".into(), Json::Str(dataset.into())),
            ("records".into(), Json::Num(records as f64)),
            ("input_bytes".into(), Json::Num(build.input_bytes as f64)),
            ("ingest_secs".into(), Json::Num(build.ingest_secs)),
        ]));
    }

    let mut query_rows = Vec::new();
    for spec in vx_data::workload() {
        let dir = scratch.join(spec.dataset);
        let timing = time_query(&dir, spec.dataset, spec.xq, config.iters).unwrap_or_else(|e| {
            eprintln!("table3: {}: {e}", spec.name);
            exit(1);
        });
        // One extra instrumented repetition for the per-operation
        // breakdown; the timed repetitions above stay unprofiled so
        // best/mean numbers carry no instrumentation overhead.
        let (profile_card, profile) =
            profile_query(&dir, spec.dataset, spec.xq).unwrap_or_else(|e| {
                eprintln!("table3: {} (profile): {e}", spec.name);
                exit(1);
            });
        if profile_card != timing.cardinality {
            eprintln!(
                "table3: {}: profiled run returned {profile_card} results, timed runs {}",
                spec.name, timing.cardinality
            );
            exit(1);
        }
        println!(
            "{:>3} ({:>2})  best {:>9}  mean {:>9}  open {:>9}  {:>9} results",
            spec.name,
            spec.dataset,
            human(timing.best_secs),
            human(timing.mean_secs),
            human(timing.open_secs),
            timing.cardinality,
        );
        query_rows.push(Json::Object(vec![
            ("query".into(), Json::Str(spec.name.into())),
            ("dataset".into(), Json::Str(spec.dataset.into())),
            ("cardinality".into(), Json::Num(timing.cardinality as f64)),
            ("open_secs".into(), Json::Num(timing.open_secs)),
            ("best_secs".into(), Json::Num(timing.best_secs)),
            ("mean_secs".into(), Json::Num(timing.mean_secs)),
            ("profile".into(), profile_json(&profile)),
        ]));
    }
    let _ = std::fs::remove_dir_all(&scratch);

    let report = Json::Object(vec![
        ("bench".into(), Json::Str("table3".into())),
        ("seed".into(), Json::Num(42.0)),
        ("iters".into(), Json::Num(f64::from(config.iters))),
        (
            "default_scale".into(),
            Json::Bool(config.scales.is_default()),
        ),
        (
            "cold".into(),
            Json::Str(
                "store fully re-decoded from disk before every repetition; \
                 OS page cache not dropped (unprivileged harness)"
                    .into(),
            ),
        ),
        ("stores".into(), Json::Array(store_rows)),
        ("queries".into(), Json::Array(query_rows)),
    ]);
    if let Err(e) = std::fs::write(&config.out, to_string_pretty(&report)) {
        eprintln!("table3: writing {}: {e}", config.out.display());
        exit(1);
    }
    println!("wrote {}", config.out.display());
}
