//! `vx` — command-line front end for the vectorized XML store.
//!
//! ```text
//! vx ingest <xml-file> <store-dir> [--auto] [--drop-misc] [--metrics]
//! vx append <store-dir> <xml-file>... [--drop-misc]
//! vx compact <store-dir> [--auto]
//! vx stats <store-dir> [--metrics]
//! vx query <store-dir> <xquery> [--out values|xml] [--profile | --profile-json]
//! vx explain <store-dir> <xquery> [--no-indexes]
//! vx reconstruct <store-dir> [--out <file>]
//! vx serve <store-dir>... [--addr HOST:PORT] [--threads N] [--slow-ms N]
//! ```
//!
//! `ingest` builds a store from an XML file through the streaming
//! bounded-memory pipeline (`Store::ingest_stream`). `append` journals
//! documents to the store's write-ahead log, validated first; every
//! open replays them on top of the base store, and `compact` folds them
//! into a new generation byte-identical to a fresh ingest of the
//! combined document. `stats` summarizes a store from its catalog and
//! skeleton and refuses stores that fail the integrity gate (every
//! vector file must decode and agree with the catalog). `query` compiles
//! an XQ query and reduces it against the store's `VEC(T)`;
//! `reconstruct` regenerates the original document text (byte-identical
//! to the compact writer's serialization of the ingested XML). `explain`
//! renders the planner's decisions — exact cardinalities, where each
//! equality edge's sorted runs come from, and which literal filters
//! resolve through the store's persistent value indexes — without
//! enumerating a single tuple. `serve` opens each store once into a
//! shared [`xmlvec::core::StoreHandle`] and answers HTTP/1.1 + JSON
//! queries from a worker-thread pool (see `xmlvec::serve`).
//!
//! Exit codes are part of the interface and pinned by `tests/cli.rs`:
//! `0` success, `1` operational failure (missing or damaged store, query
//! error, I/O error), `2` usage error (unknown command or flag, missing
//! operand).

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::exit;
use xmlvec::bench::StoreSizes;
use xmlvec::core::{Compaction, CoreError, IngestOptions, Store, StoreHandle, VecDoc};
use xmlvec::engine::EngineError;
use xmlvec::{Query, QueryOutput};

const USAGE: &str = "usage:
  vx ingest <xml-file> <store-dir> [--auto] [--drop-misc] [--metrics]
  vx append <store-dir> <xml-file>... [--drop-misc]
  vx compact <store-dir> [--auto]
  vx stats <store-dir> [--metrics]
  vx query <store-dir> <xquery> [--out values|xml] [--profile | --profile-json]
  vx explain <store-dir> <xquery> [--no-indexes]
  vx reconstruct <store-dir> [--out <file>]
  vx serve <store-dir>... [--addr HOST:PORT] [--threads N] [--slow-ms N]

ingest options:
  --auto       per-vector encoding choice: value index at >= 64 records,
               dictionary when smaller, else plain (default: plain)
  --drop-misc  drop comments/processing instructions instead of erroring
  --metrics    report per-phase timings, pipeline tallies, and spill-file
               pages written and read back

append options:
  --drop-misc  drop comments/processing instructions instead of erroring
               (documents are journaled to the store's write-ahead log;
               run `vx compact` to fold them into the vector files)

compact options:
  --auto       per-vector encoding choice for the new generation,
               as `ingest --auto`

stats options:
  --metrics    also report the generation, the write-ahead log, and
               per-vector encoding (v1 plain / v2 dict / v3 index) with
               value-index sizes

query options:
  --out values   one projected text value per line (default)
  --out xml      serialize the result as an XML document
  --profile      suppress results; print the per-step evaluation profile
  --profile-json same, as a JSON object

explain options:
  --no-indexes   plan as if the store had no persistent value indexes

reconstruct options:
  --out FILE   write the XML to FILE instead of stdout

serve options:
  --addr HOST:PORT  listen address (default 127.0.0.1:8080; port 0 picks a free port)
  --threads N       worker threads (default: available parallelism, capped at 8)
  --slow-ms N       slow-query flight-recorder threshold in milliseconds
                    (default: 100, or VX_SLOW_MS; 0 records every query)";

/// Operational failure: the command was well-formed but could not be
/// carried out (missing store, damaged file, bad query, I/O error).
fn fail(message: impl std::fmt::Display) -> ! {
    eprintln!("vx: {message}");
    exit(1);
}

/// Usage error: the command line itself is malformed.
fn fail_usage(message: impl std::fmt::Display) -> ! {
    eprintln!("vx: {message}");
    eprintln!("{USAGE}");
    exit(2);
}

/// A failed write to stdout. A broken pipe (the reader, e.g. `head`,
/// closed its end) is a clean exit 0, not a failure; any other error is
/// operational.
fn write_failed(e: std::io::Error) -> ! {
    if e.kind() == std::io::ErrorKind::BrokenPipe {
        exit(0);
    }
    fail(e);
}

/// Writes to stdout, exiting as [`write_failed`] says on an error.
fn write_stdout(lock: &mut impl std::io::Write, bytes: &[u8]) {
    lock.write_all(bytes).unwrap_or_else(|e| write_failed(e));
}

fn usage() -> ! {
    eprintln!("{USAGE}");
    exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("ingest") => ingest(&args[1..]),
        Some("append") => append(&args[1..]),
        Some("compact") => compact(&args[1..]),
        Some("stats") => stats(&args[1..]),
        Some("query") => query(&args[1..]),
        Some("explain") => explain(&args[1..]),
        Some("reconstruct") => reconstruct(&args[1..]),
        Some("serve") => serve(&args[1..]),
        Some(other) => fail_usage(format!("unknown command `{other}`")),
        None => usage(),
    }
}

/// Splits `args` into positionals and handles one optional `--out VALUE`
/// flag; any other flag is a usage error.
fn positionals_and_out<'a>(
    args: &'a [String],
    command: &str,
) -> (Vec<&'a String>, Option<&'a str>) {
    let mut positional = Vec::new();
    let mut out = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--out" => {
                i += 1;
                out = Some(
                    args.get(i)
                        .unwrap_or_else(|| fail_usage(format!("{command}: --out needs a value")))
                        .as_str(),
                );
            }
            flag if flag.starts_with('-') => {
                fail_usage(format!("{command}: unknown flag `{flag}`"))
            }
            _ => positional.push(&args[i]),
        }
        i += 1;
    }
    (positional, out)
}

fn ingest(args: &[String]) {
    let mut positional: Vec<&String> = Vec::new();
    let mut options = IngestOptions::default();
    let mut metrics = false;
    for arg in args {
        match arg.as_str() {
            "--auto" => options.compaction = Compaction::Auto,
            "--drop-misc" => options.drop_unrepresentable = true,
            "--metrics" => metrics = true,
            flag if flag.starts_with('-') => fail_usage(format!("ingest: unknown flag `{flag}`")),
            _ => positional.push(arg),
        }
    }
    let [xml_file, store_dir] = positional[..] else {
        fail_usage("ingest: expected <xml-file> <store-dir>");
    };
    let dir = PathBuf::from(store_dir);

    let mut out = String::new();
    let file = std::fs::File::open(xml_file).unwrap_or_else(|e| fail(format!("{xml_file}: {e}")));
    let report = Store::ingest_stream(&dir, std::io::BufReader::new(file), &options)
        .unwrap_or_else(|e| fail(e));
    if report.spill_pages > 0 {
        let _ = writeln!(
            out,
            "spilled {} pages ({} read back)",
            report.spill_pages, report.pager.misses
        );
    }
    if metrics {
        let _ = writeln!(out, "phase        pipeline   {:.6} s", report.pipeline_secs);
        let _ = writeln!(out, "phase        write      {:.6} s", report.write_secs);
        let _ = writeln!(
            out,
            "pipeline     {} events, {} elements, {} values ({} attr, {} text)",
            report.stats.events,
            report.stats.elements,
            report.stats.values(),
            report.stats.attr_values,
            report.stats.text_values
        );
        let _ = writeln!(
            out,
            "spill        {} pages written, {} read back",
            report.pager.evictions, report.pager.misses
        );
    }
    let _ = writeln!(
        out,
        "ingested {} -> {} ({} paths, {} nodes, {} text bytes)",
        xml_file,
        dir.display(),
        report.catalog.vectors.len(),
        report.catalog.node_count,
        report.catalog.text_bytes
    );
    let stdout = std::io::stdout();
    write_stdout(&mut stdout.lock(), out.as_bytes());
}

/// Journals documents to a store's write-ahead log. Validation (parse,
/// root-tag match, vectorizability) happens before anything is written,
/// so a failed append leaves the WAL untouched; a successful one is
/// fsync'd as a single batch unless `VX_WAL_SYNC=off`.
fn append(args: &[String]) {
    let mut positional: Vec<&String> = Vec::new();
    let mut options = xmlvec::core::AppendOptions::default();
    for arg in args {
        match arg.as_str() {
            "--drop-misc" => options.drop_unrepresentable = true,
            flag if flag.starts_with('-') => fail_usage(format!("append: unknown flag `{flag}`")),
            _ => positional.push(arg),
        }
    }
    let Some((dir, files)) = positional.split_first() else {
        fail_usage("append: expected <store-dir> <xml-file>...");
    };
    if files.is_empty() {
        fail_usage("append: expected at least one <xml-file>");
    }
    let docs: Vec<Vec<u8>> = files
        .iter()
        .map(|f| std::fs::read(f).unwrap_or_else(|e| fail(format!("{f}: {e}"))))
        .collect();
    let report = Store::append_batch(Path::new(dir), &docs, &options)
        .unwrap_or_else(|e| fail(format!("{dir}: {e}")));
    let line = format!(
        "appended {} doc{} -> {dir} (wal seq {}..{}, {} bytes, {}{})\n",
        report.docs,
        if report.docs == 1 { "" } else { "s" },
        report.first_seq,
        report.last_seq,
        report.wal_bytes,
        report.segment,
        if report.synced { "" } else { ", unsynced" }
    );
    let stdout = std::io::stdout();
    write_stdout(&mut stdout.lock(), line.as_bytes());
}

/// Folds the WAL tail into a fresh generation directory and swaps the
/// `CURRENT` manifest; a store with nothing pending is left untouched.
fn compact(args: &[String]) {
    let mut positional: Vec<&String> = Vec::new();
    let mut compaction = Compaction::None;
    for arg in args {
        match arg.as_str() {
            "--auto" => compaction = Compaction::Auto,
            flag if flag.starts_with('-') => fail_usage(format!("compact: unknown flag `{flag}`")),
            _ => positional.push(arg),
        }
    }
    let [dir] = positional[..] else {
        fail_usage("compact: expected <store-dir>");
    };
    let report =
        Store::compact(Path::new(dir), compaction).unwrap_or_else(|e| fail(format!("{dir}: {e}")));
    let line = if report.compacted {
        format!(
            "compacted {dir} -> {} ({} record{}, {} doc{}, generation {})\n",
            report.gen_dir.display(),
            report.records_applied,
            if report.records_applied == 1 { "" } else { "s" },
            report.docs_merged,
            if report.docs_merged == 1 { "" } else { "s" },
            report.generation
        )
    } else {
        format!(
            "nothing to compact in {dir} (generation {})\n",
            report.generation
        )
    };
    let stdout = std::io::stdout();
    write_stdout(&mut stdout.lock(), line.as_bytes());
}

/// Opens a store strictly into a shared handle — the single
/// store-open/error-reporting path for every store-reading command
/// (`stats`, `query`, `reconstruct`, `serve`). Any missing file,
/// undecodable vector, or catalog/skeleton disagreement is an
/// operational failure: exit 1, one uniform `vx: <dir>: <cause>` line.
fn open_store(dir: &Path) -> StoreHandle {
    StoreHandle::open(dir).unwrap_or_else(|e| fail(format!("{}: {e}", dir.display())))
}

fn stats(args: &[String]) {
    let mut positional: Vec<&String> = Vec::new();
    let mut metrics = false;
    for arg in args {
        match arg.as_str() {
            "--metrics" => metrics = true,
            flag if flag.starts_with('-') => fail_usage(format!("stats: unknown flag `{flag}`")),
            _ => positional.push(arg),
        }
    }
    let [dir] = positional[..] else {
        fail_usage("stats: expected <store-dir>");
    };
    let dir = Path::new(dir);
    // The shared strict open is the integrity gate: every vector file
    // must decode and agree with the catalog and skeleton before
    // anything is printed — a damaged store yields exit 1 and no
    // partial output.
    let handle = open_store(dir);
    // Summary lines describe the *served* document (base generation plus
    // any WAL overlay); the per-file survey below reads the on-disk
    // catalog of the active generation, which lives in `base_dir` —
    // `dir` itself for flat stores, `dir/gen-NNNN` after a compaction.
    let catalog = handle.base_catalog();
    let served = handle.catalog();
    let base_dir = handle.base_dir().to_path_buf();
    let skeleton = handle.skeleton();
    let root = handle.root();
    let sizes = StoreSizes::measure(dir).unwrap_or_else(|e| fail(e));

    // Per-vector encoding survey: the strict open already checked each
    // file against its catalog row and kept its stats.
    let encodings = handle.vector_stats();

    // A WAL overlay leaves superseded roots in the arena: count the
    // nodes the served document reaches, not the arena.
    let dag_nodes = skeleton.dag_size(root);
    let mut out = String::new();
    let _ = writeln!(out, "store        {}", dir.display());
    let _ = writeln!(
        out,
        "nodes        {} expanded, {} DAG nodes ({:.1}x compression), {} names",
        served.node_count,
        dag_nodes,
        served.node_count as f64 / dag_nodes as f64,
        skeleton.names().len()
    );
    debug_assert_eq!(skeleton.expanded_size(root), served.node_count);
    let _ = writeln!(
        out,
        "bytes        {} skeleton, {} vectors, {} catalog, {} index, {} total",
        sizes.skeleton_bytes,
        sizes.vector_bytes,
        sizes.catalog_bytes,
        sizes.index_bytes,
        sizes.total()
    );
    let _ = writeln!(out, "text bytes   {}", served.text_bytes);
    let _ = writeln!(
        out,
        "struct index {}",
        if handle.structural_loaded() {
            "persisted (index.vxpi)"
        } else {
            "rebuilt at open"
        }
    );
    if metrics {
        let wal = handle.wal();
        if handle.generation() == 0 {
            let _ = writeln!(out, "generation   0 (flat)");
        } else {
            let _ = writeln!(
                out,
                "generation   {} ({})",
                handle.generation(),
                base_dir.display()
            );
        }
        let _ = writeln!(
            out,
            "wal          {} segment{}, {} bytes, {} pending doc{} ({} bytes), applied seq {}, replay {:.3} ms",
            wal.segments,
            if wal.segments == 1 { "" } else { "s" },
            wal.wal_bytes,
            wal.pending_docs,
            if wal.pending_docs == 1 { "" } else { "s" },
            wal.pending_bytes,
            wal.applied_seq,
            handle.replay_secs() * 1e3
        );
        if wal.pending_docs > 0 {
            let _ = writeln!(
                out,
                "wal overlay  serving {} vectors ({} on disk); run `vx compact` to fold",
                served.vectors.len(),
                catalog.vectors.len()
            );
        }
        let indexed = encodings.iter().filter(|s| s.version == 3).count();
        let index_bytes: u64 = encodings.iter().map(|s| s.index_bytes).sum();
        let _ = writeln!(
            out,
            "value index  {indexed} of {} vectors, {index_bytes} bytes",
            encodings.len()
        );
    }
    let _ = writeln!(out, "vectors      {}", catalog.vectors.len());
    for (i, entry) in catalog.vectors.iter().enumerate() {
        if metrics {
            let (version, index_bytes) = (encodings[i].version, encodings[i].index_bytes);
            let encoding = match version {
                2 => "v2 dict ",
                3 => "v3 index",
                _ => "v1 plain",
            };
            let _ = write!(
                out,
                "  {:<12} {:>8} values {:>10} data bytes  {encoding}",
                entry.file, entry.count, entry.data_bytes
            );
            if index_bytes > 0 {
                let _ = write!(out, " ({index_bytes} index bytes)");
            }
            let _ = writeln!(out, "  {}", entry.path);
        } else {
            let _ = writeln!(
                out,
                "  {:<12} {:>8} values {:>10} data bytes  {}",
                entry.file, entry.count, entry.data_bytes, entry.path
            );
        }
    }
    let stdout = std::io::stdout();
    write_stdout(&mut stdout.lock(), out.as_bytes());
}

fn query(args: &[String]) {
    let mut positional: Vec<&String> = Vec::new();
    let mut out_mode: Option<&str> = None;
    let mut profile = false;
    let mut profile_json = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--out" => {
                i += 1;
                out_mode = Some(
                    args.get(i)
                        .unwrap_or_else(|| fail_usage("query: --out needs a value"))
                        .as_str(),
                );
            }
            "--profile" => profile = true,
            "--profile-json" => profile_json = true,
            flag if flag.starts_with('-') => fail_usage(format!("query: unknown flag `{flag}`")),
            _ => positional.push(&args[i]),
        }
        i += 1;
    }
    let [dir, xq] = positional[..] else {
        fail_usage("query: expected <store-dir> <xquery>");
    };
    let mode = match out_mode {
        None | Some("values") => "values",
        Some("xml") => "xml",
        Some(other) => fail_usage(format!(
            "query: --out must be `values` or `xml`, got `{other}`"
        )),
    };
    let handle = open_store(Path::new(dir));
    let compiled = Query::new(xq).unwrap_or_else(|e| fail(format!("query: {e}")));

    if profile || profile_json {
        // Every doc("…") name in the query resolves to this one store.
        // Profiled runs go through the corpus path: spans must tile, so
        // collection stays serial there.
        let corpus: Vec<(&str, &VecDoc)> = compiled
            .graph()
            .doc_names()
            .into_iter()
            .map(|name| (name, handle.doc()))
            .collect();
        let options = xmlvec::engine::RunOptions {
            profile: true,
            ..Default::default()
        };
        let outcome = compiled
            .run_with(&corpus[..], &options)
            .unwrap_or_else(|e| fail(format!("query: {e}")));
        let (output, profile) = (outcome.output, outcome.profile.expect("profile requested"));
        let cardinality = match &output {
            QueryOutput::Values(values) => values.len() as u64,
            QueryOutput::Document(_) => output.strings().len() as u64,
        };
        let report = if profile_json {
            profile_json_report(xq, cardinality, &profile)
        } else {
            profile_report(xq, cardinality, &profile)
        };
        let stdout = std::io::stdout();
        write_stdout(&mut stdout.lock(), report.as_bytes());
        return;
    }

    let output = compiled
        .run_with(&handle, &Default::default())
        .unwrap_or_else(|e| fail(format!("query: {e}")))
        .output;
    let stdout = std::io::stdout();
    let mut lock = stdout.lock();
    match mode {
        "xml" => {
            let mut out = std::io::BufWriter::new(lock);
            match output.write_xml(&mut out) {
                Err(EngineError::Core(CoreError::Io(e))) => write_failed(e),
                result => result.unwrap_or_else(|e| fail(format!("query: {e}"))),
            }
            write_stdout(&mut out, b"\n");
            out.flush().unwrap_or_else(|e| write_failed(e));
        }
        _ => match &output {
            QueryOutput::Values(values) => {
                // Values are raw bytes; write them unmangled.
                for value in values {
                    write_stdout(&mut lock, value);
                    write_stdout(&mut lock, b"\n");
                }
            }
            QueryOutput::Document(_) => {
                for value in output.strings() {
                    write_stdout(&mut lock, value.as_bytes());
                    write_stdout(&mut lock, b"\n");
                }
            }
        },
    }
}

/// Renders the planner's decisions for a query over a store without
/// running it: collection happens (exact cardinalities), enumeration
/// never does.
fn explain(args: &[String]) {
    let mut positional: Vec<&String> = Vec::new();
    let mut options = xmlvec::engine::RunOptions::default();
    for arg in args {
        match arg.as_str() {
            "--no-indexes" => options.use_indexes = false,
            flag if flag.starts_with('-') => fail_usage(format!("explain: unknown flag `{flag}`")),
            _ => positional.push(arg),
        }
    }
    let [dir, xq] = positional[..] else {
        fail_usage("explain: expected <store-dir> <xquery>");
    };
    let handle = open_store(Path::new(dir));
    let compiled = Query::new(xq).unwrap_or_else(|e| fail(format!("explain: {e}")));
    let plan = compiled
        .explain_with(&handle, &options)
        .unwrap_or_else(|e| fail(format!("explain: {e}")));
    let stdout = std::io::stdout();
    write_stdout(&mut stdout.lock(), plan.render().as_bytes());
}

/// The human-readable `--profile` report: steps tile the total, so the
/// percentage column is relative to the step sum.
fn profile_report(xq: &str, cardinality: u64, profile: &xmlvec::engine::QueryProfile) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "query        {xq}");
    let _ = writeln!(
        out,
        "total        {:.6} s (steps sum {:.6} s)",
        profile.total_secs,
        profile.steps_total()
    );
    let _ = writeln!(out, "cardinality  {cardinality}");
    let _ = writeln!(out, "steps");
    let steps_total = profile.steps_total().max(f64::MIN_POSITIVE);
    for step in &profile.steps {
        let _ = writeln!(
            out,
            "  {:<16} {:>11.6} s {:>5.1}%",
            step.name,
            step.secs,
            100.0 * step.secs / steps_total
        );
    }
    let _ = writeln!(out, "variables");
    for var in &profile.variables {
        let name = if var.name.is_empty() {
            "(doc)"
        } else {
            &var.name
        };
        let _ = writeln!(out, "  {:<16} {:>11} occurrences", name, var.occurrences);
    }
    let _ = writeln!(out, "counters");
    for (name, value) in profile.counters.iter() {
        let _ = writeln!(out, "  {name:<22} {value:>13}");
    }
    out
}

/// The machine-readable `--profile-json` report: the shared
/// `vx_bench::profile_json` shape plus `query` and `cardinality` keys.
fn profile_json_report(
    xq: &str,
    cardinality: u64,
    profile: &xmlvec::engine::QueryProfile,
) -> String {
    use xmlvec::core::json::Json;
    let Json::Object(mut fields) = xmlvec::bench::profile_json(profile) else {
        unreachable!("profile_json returns an object");
    };
    fields.insert(0, ("query".into(), Json::Str(xq.to_string())));
    fields.insert(1, ("cardinality".into(), Json::Num(cardinality as f64)));
    let mut text = xmlvec::core::json::to_string_pretty(&Json::Object(fields));
    text.push('\n');
    text
}

fn reconstruct(args: &[String]) {
    let (positional, out_file) = positionals_and_out(args, "reconstruct");
    let [dir] = positional[..] else {
        fail_usage("reconstruct: expected <store-dir>");
    };
    let handle = open_store(Path::new(dir));
    // Streamed from the skeleton and vectors, with no DOM: memory stays
    // at the store's own, whatever the document's size.
    let stream = |out: &mut dyn std::io::Write| -> Result<(), CoreError> {
        let mut out = std::io::BufWriter::new(out);
        xmlvec::core::write_xml(handle.doc(), &mut out)?;
        Ok(std::io::Write::flush(&mut out)?)
    };
    match out_file {
        Some(path) => {
            let mut file =
                std::fs::File::create(path).unwrap_or_else(|e| fail(format!("{path}: {e}")));
            match stream(&mut file) {
                Err(CoreError::Io(e)) => fail(format!("{path}: {e}")),
                result => result.unwrap_or_else(|e| fail(e)),
            }
        }
        None => match stream(&mut std::io::stdout().lock()) {
            Err(CoreError::Io(e)) => write_failed(e),
            result => result.unwrap_or_else(|e| fail(e)),
        },
    }
}

fn serve(args: &[String]) {
    let mut positional: Vec<&String> = Vec::new();
    let mut addr = String::from("127.0.0.1:8080");
    let mut threads = std::thread::available_parallelism()
        .map(|n| n.get().min(8))
        .unwrap_or(4);
    let mut options = xmlvec::serve::ServeOptions::from_env();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--addr" => {
                i += 1;
                addr = args
                    .get(i)
                    .unwrap_or_else(|| fail_usage("serve: --addr needs a HOST:PORT value"))
                    .clone();
            }
            "--threads" => {
                i += 1;
                threads = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| fail_usage("serve: --threads needs a positive integer"));
            }
            "--slow-ms" => {
                i += 1;
                options.slow_ms = args.get(i).and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                    fail_usage("serve: --slow-ms needs a millisecond count (0 records all)")
                });
            }
            flag if flag.starts_with('-') => fail_usage(format!("serve: unknown flag `{flag}`")),
            _ => positional.push(&args[i]),
        }
        i += 1;
    }
    if positional.is_empty() {
        fail_usage("serve: expected at least one <store-dir>");
    }
    let dirs: Vec<&Path> = positional.iter().map(|s| Path::new(s.as_str())).collect();
    let server = xmlvec::serve::Server::bind_with(&dirs, &addr, threads, &options)
        .unwrap_or_else(|e| fail(e));
    // The readiness line carries the resolved address (port 0 binds an
    // ephemeral port); scripts parse it before their first request.
    let line = format!(
        "vx serve: listening on http://{} ({} store{}, {} threads)\n",
        server.local_addr(),
        dirs.len(),
        if dirs.len() == 1 { "" } else { "s" },
        threads
    );
    {
        use std::io::Write as _;
        let stdout = std::io::stdout();
        let mut lock = stdout.lock();
        write_stdout(&mut lock, line.as_bytes());
        let _ = lock.flush();
    }
    server.run().unwrap_or_else(|e| fail(e));
}
