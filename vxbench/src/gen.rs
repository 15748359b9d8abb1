//! The generator side of a run, all of it in the parent process: inputs
//! made from the seed with `vx-data`, the differential oracle before
//! timing, and the checks of what the measured child left on disk.
//!
//! Everything the measured child receives is a file written here; the
//! seed itself never reaches it.

use crate::exec::{err, ingest_options, store, Res};
use crate::spec::{self, Scales};
use crate::util::{self, obj, text, Fingerprint};
use std::path::Path;
use vx_core::{Store, VecDoc};
use vx_data::Rng;
use vx_engine::{naive_eval, Query, RunOptions};
use vx_xml::{write_document, Document, WriteOptions};

fn to_xml(doc: &Document) -> String {
    write_document(doc, &WriteOptions::compact())
}

/// The `c`-th append batch of a run: one document of citations from
/// `seed + 1 + c`.
fn append_batch(seed: u64, c: usize) -> Document {
    vx_data::medline(seed.wrapping_add(1 + c as u64), spec::APPEND_BATCH)
}

/// Writes every input of `workload` under `dir/inputs`.
pub fn generate(workload: &str, seed: u64, smoke: bool, dir: &Path) -> Res<()> {
    let inputs = dir.join("inputs");
    std::fs::create_dir_all(&inputs).map_err(err("inputs"))?;
    let write = |name: &str, content: &str| {
        let path = inputs.join(name);
        std::fs::write(&path, content).map_err(err(&path.display().to_string()))
    };
    let scales = spec::scales(workload, smoke);
    let mut docs = Vec::new();
    for ds in spec::datasets(workload) {
        let doc = spec::corpus(ds, seed, scales.records(ds));
        write(&format!("{ds}.xml"), &to_xml(&doc))?;
        docs.push((*ds, doc));
    }
    match workload {
        "append.reopen" => {
            for c in 0..spec::APPEND_BATCHES {
                let batch = to_xml(&append_batch(seed, c));
                write(&format!("batch-{c:03}.xml"), &batch)?;
            }
        }
        "serve.mixed" => {
            let length = if smoke { 200 } else { spec::SERVE_SCHEDULE };
            for c in 0..spec::SERVE_CLIENTS {
                write(
                    &format!("schedule-{c}.tsv"),
                    &schedule(seed, c, length, &docs),
                )?;
            }
        }
        _ => {}
    }
    Ok(())
}

fn query_body(store: &str, xq: &str, out: &str) -> String {
    util::to_line(&obj(vec![
        ("store", text(store)),
        ("query", text(xq)),
        ("out", text(out)),
    ]))
}

/// One client's request schedule, `length` lines of
/// `method \t path \t expect \t body`:
///
/// * 70 % one of the ten repeated bodies (nine workload queries
///   values-out, KQ4 again as `"out":"xml"`): compiled-query cache hits;
/// * 18 % a point lookup by a key sampled from the corpus — a fresh query
///   text each time, so it misses the 256-entry cache, and an answer the
///   generator reads straight off the DOM;
/// * 8 % the hot query (SQ2);
/// * 2 % `GET /stats`, 2 % `GET /metrics`.
fn schedule(seed: u64, client: usize, length: usize, docs: &[(&str, Document)]) -> String {
    let mut rng = Rng::new(seed ^ (0x5c4e_d01e + client as u64));
    let doc = |ds: &str| {
        &docs
            .iter()
            .find(|(name, _)| *name == ds)
            .expect("four corpora")
            .1
    };
    let mut repeated: Vec<String> = spec::query_names("serve.mixed")
        .iter()
        .map(|name| {
            let q = spec::query(name);
            query_body(q.dataset, q.xq, "values")
        })
        .collect();
    let kq4 = spec::query("KQ4");
    repeated.push(query_body(kq4.dataset, kq4.xq, "xml"));
    // The hot query is the heaviest one on purpose. Latencies fall into
    // classes by query; with SQ2 hot the slowest class is 15 % of the
    // requests and the next 7 %, so the 90th percentile lies inside a class
    // and not on the edge between two (where it read 14 or 18 ms by turns).
    let sq2 = spec::query("SQ2");
    let hot = query_body(sq2.dataset, sq2.xq, "values");
    let rows: Vec<_> = doc("ss").root.child_elements().collect();
    let citations: Vec<_> = doc("ml").root.child_elements().collect();

    let mut out = String::new();
    for _ in 0..length {
        let line = match rng.below(100) {
            0..=1 => "GET\t/stats\t-\t".to_string(),
            2..=3 => "GET\t/metrics\t-\t".to_string(),
            4..=11 => format!("POST\t/query\twarm\t{hot}"),
            12..=29 => {
                let (store, xq, answer) = if rng.below(2) == 0 {
                    let row = rows[rng.below(rows.len() as u64) as usize];
                    let key = row.child("objID").expect("generated row").text();
                    let xq = format!(
                        "for $p in doc(\"ss\")/PhotoObjAll/PhotoObj where $p/objID = \"{key}\" return $p/ra"
                    );
                    ("ss", xq, row.child("ra").expect("generated row").text())
                } else {
                    let citation = citations[rng.below(citations.len() as u64) as usize];
                    let key = citation.child("PMID").expect("generated citation").text();
                    let xq = format!(
                        "for $c in doc(\"ml\")/MedlineCitationSet/MedlineCitation where $c/PMID = \"{key}\" return $c/Language"
                    );
                    (
                        "ml",
                        xq,
                        citation
                            .child("Language")
                            .expect("generated citation")
                            .text(),
                    )
                };
                let expect = Fingerprint::of_values(&[answer]);
                format!(
                    "POST\t/query\t{}:{:x}\t{}",
                    expect.cardinality,
                    expect.fnv,
                    query_body(store, &xq, "values")
                )
            }
            _ => {
                let body = &repeated[rng.below(repeated.len() as u64) as usize];
                format!("POST\t/query\twarm\t{body}")
            }
        };
        out.push_str(&line);
        out.push('\n');
    }
    out
}

/// The point-lookup shapes of the serve schedule, for the oracle.
const LOOKUPS: [(&str, &str); 2] = [
    (
        "ss",
        r#"for $p in doc("ss")/PhotoObjAll/PhotoObj where $p/objID = "587000000007" return $p/ra"#,
    ),
    (
        "ml",
        r#"for $c in doc("ml")/MedlineCitationSet/MedlineCitation where $c/PMID = "10000007" return $c/Language"#,
    ),
];

/// Runs every query of `workload` at [`spec::ORACLE`] scale through the
/// engine and through `naive_eval`, an independent nested-loop evaluator
/// over the DOM; returns how many were checked and how many disagreed.
pub fn oracle_check(workload: &str, seed: u64, smoke: bool) -> Res<(u64, u64)> {
    let mut queries: Vec<(&str, &str)> = spec::query_names(workload)
        .iter()
        .map(|name| {
            let q = spec::query(name);
            (q.dataset, q.xq)
        })
        .collect();
    match workload {
        "append.reopen" => queries.push(("ml", spec::COUNT_QUERY)),
        "serve.mixed" => queries.extend(LOOKUPS),
        _ => {}
    }
    let scales = if smoke {
        spec::scales(workload, true)
    } else {
        spec::ORACLE
    };
    let mut corpora: Vec<(&str, Document, VecDoc)> = Vec::new();
    let mut failed = 0;
    for (dataset, xq) in &queries {
        if !corpora.iter().any(|(name, _, _)| name == dataset) {
            let doc = spec::corpus(dataset, seed, scales.records(dataset));
            let vec_doc = vx_core::vectorize(&doc).map_err(err("vectorize"))?;
            corpora.push((dataset, doc, vec_doc));
        }
        let (_, doc, vec_doc) = corpora
            .iter()
            .find(|(name, _, _)| name == dataset)
            .expect("just added");
        let engine = Query::new(xq)
            .and_then(|q| q.run_with(vec_doc, &RunOptions::default()))
            .map_err(err("engine"))?;
        let parsed = vx_xquery::parse_query(xq).map_err(err("parse"))?;
        let naive = naive_eval(&parsed, &[(*dataset, doc)]).map_err(err("oracle"))?;
        if Fingerprint::of_output(&engine.output)? != Fingerprint::of_naive(&naive) {
            eprintln!("vxbench: oracle disagrees with the engine on: {xq}");
            failed += 1;
        }
    }
    Ok((queries.len() as u64, failed))
}

/// Checks what the measured child left in `dir/work` against the inputs;
/// returns `(checked, failed)`.
///
/// * `ingest.stream`: every store reconstructs to the bytes it was
///   ingested from.
/// * `append.reopen`: the final compacted generation is byte-identical to
///   a fresh ingest of the base document with every appended batch
///   concatenated (`appended` of them, in order).
pub fn check_outputs(
    workload: &str,
    seed: u64,
    smoke: bool,
    dir: &Path,
    appended: u64,
) -> Res<(u64, u64)> {
    let scales: Scales = spec::scales(workload, smoke);
    match workload {
        "ingest.stream" => {
            let mut failed = 0;
            let datasets = spec::datasets(workload);
            for ds in datasets {
                let (doc, _) = Store::open(&store(dir, ds)).map_err(err("open"))?;
                let rebuilt = to_xml(&vx_core::reconstruct(&doc).map_err(err("reconstruct"))?);
                let path = dir.join("inputs").join(format!("{ds}.xml"));
                if rebuilt != std::fs::read_to_string(&path).map_err(err("input"))? {
                    eprintln!("vxbench: store `{ds}` does not reconstruct to its input");
                    failed += 1;
                }
            }
            Ok((datasets.len() as u64, failed))
        }
        "append.reopen" => {
            let mut combined = spec::corpus("ml", seed, scales.ml);
            for c in 0..appended as usize {
                let batch = append_batch(seed, c % spec::APPEND_BATCHES);
                combined.root.children.extend(batch.root.children);
            }
            let fresh = dir.join("check");
            Store::ingest_stream(&fresh, to_xml(&combined).as_bytes(), &ingest_options())
                .map_err(err("fresh ingest"))?;
            let live = Store::base_dir(&store(dir, "ml")).map_err(err("store layout"))?;
            let same = util::fingerprint_dir(&live).map_err(err("reading store"))?
                == util::fingerprint_dir(&fresh).map_err(err("reading store"))?;
            if !same {
                eprintln!(
                    "vxbench: compacted store differs from a fresh ingest of the same documents"
                );
            }
            Ok((1, u64::from(!same)))
        }
        _ => Ok((0, 0)),
    }
}
