//! Concurrency differentials for the shared-immutable store.
//!
//! One [`StoreHandle`] per bench corpus is shared (by `Arc`-bump clone)
//! across 8 threads, each running the full table3 workload; every
//! thread's output must be byte-identical to a single-threaded baseline.

use std::collections::HashMap;
use xmlvec::core::{vectorize, StoreHandle};
use xmlvec::engine::Query;
use xmlvec::{QueryOutput, RunOptions};

/// Tiny corpora — large enough that every workload query returns rows,
/// small enough to keep the 8×13 query matrix fast in CI.
fn tiny_handles() -> Vec<StoreHandle> {
    let scales: HashMap<&str, usize> = [("xk", 80), ("tb", 160), ("ml", 160), ("ss", 160)].into();
    xmlvec::bench::DATASETS
        .iter()
        .map(|&dataset| {
            let doc = xmlvec::bench::corpus(dataset, scales[dataset]);
            let vec_doc = vectorize(&doc).expect("bench corpora vectorize");
            StoreHandle::from_doc(dataset, vec_doc).expect("handle from corpus")
        })
        .collect()
}

/// Canonical bytes of an output: raw values for projections, compact
/// XML for constructor results. "Identical" in these tests means these
/// bytes, not a lossy string view.
fn canon(output: &QueryOutput) -> Vec<u8> {
    match output {
        QueryOutput::Values(values) => {
            let mut bytes = Vec::new();
            for value in values {
                bytes.extend_from_slice(value);
                bytes.push(b'\n');
            }
            bytes
        }
        QueryOutput::Document(_) => output
            .to_xml()
            .expect("constructor output serializes")
            .into_bytes(),
    }
}

#[test]
fn eight_threads_match_serial_on_the_workload() {
    let handles = tiny_handles();
    let specs = xmlvec::data::workload();

    // Compile once, run everywhere: the queries are shared across all 8
    // threads, exactly as `vx serve`'s compiled-query cache shares them.
    let compiled: Vec<(&str, Query)> = specs
        .iter()
        .map(|spec| (spec.name, Query::new(spec.xq).expect(spec.name)))
        .collect();

    let serial: Vec<Vec<u8>> = compiled
        .iter()
        .map(|(name, query)| {
            canon(
                &query
                    .run_with(&handles, &RunOptions::default())
                    .expect(name)
                    .output,
            )
        })
        .collect();
    assert!(
        serial.iter().any(|bytes| !bytes.is_empty()),
        "workload should produce rows at test scale"
    );

    std::thread::scope(|scope| {
        for thread in 0..8 {
            let compiled = &compiled;
            let serial = &serial;
            let handles = &handles;
            scope.spawn(move || {
                for ((name, query), expected) in compiled.iter().zip(serial) {
                    let output = query
                        .run_with(handles, &RunOptions::default())
                        .unwrap_or_else(|e| panic!("thread {thread}, {name}: {e}"))
                        .output;
                    assert_eq!(
                        &canon(&output),
                        expected,
                        "thread {thread}: {name} diverged from the serial run"
                    );
                }
            });
        }
    });
}

#[test]
fn handle_clones_share_one_store() {
    let doc = xmlvec::bench::corpus("xk", 20);
    let handle = StoreHandle::from_doc("xk", vectorize(&doc).unwrap()).unwrap();
    let query = Query::new(r#"for $i in doc("xk")/site/regions/*/item return $i/name"#).unwrap();
    let expected = canon(
        &query
            .run_with(&handle, &RunOptions::default())
            .unwrap()
            .output,
    );

    std::thread::scope(|scope| {
        for _ in 0..4 {
            let clone = handle.clone();
            let query = &query;
            let expected = &expected;
            scope.spawn(move || {
                assert_eq!(
                    &canon(
                        &query
                            .run_with(&clone, &RunOptions::default())
                            .unwrap()
                            .output
                    ),
                    expected
                );
            });
        }
    });
}
