//! Crash-recovery tests: the `vx` binary is spawned with `VX_CRASH`
//! armed so it aborts (the `vx-obs` crash injection hooks) at a chosen
//! point mid-append or mid-compaction, and the store is then reopened
//! in-process to assert recovery lands on a consistent state — query
//! results exactly equal to the pre-append or post-append document,
//! never a torn mix.
//!
//! The crash points are exercised in a seeded-random order (override
//! with `VX_CRASH_SEED=n`) so interleavings vary across seeds while any
//! failure reproduces exactly from the seed printed in the panic.
//!
//! The differential test at the bottom pins the other half of the
//! durability contract: an appended-then-compacted store is
//! byte-identical — skeleton, vector files, catalog — to a from-scratch
//! ingest of the combined document, and answers joins identically from
//! both, with persistent value indexes on and off.

use std::path::{Path, PathBuf};
use std::process::Command;
use xmlvec::core::{AppendOptions, Compaction, Store, StoreHandle};
use xmlvec::engine::RunOptions;
use xmlvec::xml::{write_document, Document, WriteOptions};
use xmlvec::Query;

fn vx() -> Command {
    Command::new(env!("CARGO_BIN_EXE_vx"))
}

/// A scratch directory removed on drop, unique per test.
struct Scratch(PathBuf);

impl Scratch {
    fn new(name: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!("vx-crash-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        Scratch(dir)
    }

    fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The test seed: deterministic by default, overridable for new
/// interleavings. Every panic message carries it.
fn seed() -> u64 {
    std::env::var("VX_CRASH_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xC0FFEE)
}

/// Minimal LCG (Knuth's MMIX constants) — the offline workspace has no
/// rand crate, and determinism-from-seed is the point here.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }
}

/// Seeded Fisher–Yates: the crash points all run every time; only the
/// order (and with it the temp-dir reuse pattern) varies by seed.
fn shuffled<T>(mut items: Vec<T>, lcg: &mut Lcg) -> Vec<T> {
    for i in (1..items.len()).rev() {
        let j = (lcg.next() as usize) % (i + 1);
        items.swap(i, j);
    }
    items
}

fn write_xml(path: &Path, doc: &Document) {
    std::fs::write(path, write_document(doc, &WriteOptions::compact())).unwrap();
}

/// The query answers of a store, as the engine's line-per-value output.
fn answers(dir: &Path, xq: &str) -> Vec<String> {
    let handle = StoreHandle::open(dir).expect("store reopens after crash");
    Query::new(xq)
        .unwrap()
        .run_with(&handle, &RunOptions::default())
        .expect("query runs after recovery")
        .output
        .strings()
}

fn combined(base: &Document, extras: &[&Document]) -> Document {
    let mut dom = base.clone();
    for extra in extras {
        dom.root.children.extend(extra.root.children.clone());
    }
    dom
}

fn in_memory_answers(doc: &Document, xq: &str) -> Vec<String> {
    let vec_doc = xmlvec::core::vectorize(doc).unwrap();
    Query::new(xq)
        .unwrap()
        .run_with(&vec_doc, &RunOptions::default())
        .unwrap()
        .output
        .strings()
}

fn copy_dir(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        let target = to.join(entry.file_name());
        if entry.path().is_dir() {
            copy_dir(&entry.path(), &target);
        } else {
            std::fs::copy(entry.path(), &target).unwrap();
        }
    }
}

/// Spawns a vx command armed to abort at `point` and asserts it did
/// crash there rather than exit cleanly.
fn run_crashing(args: &[&str], point: &str, seed: u64) {
    let output = vx()
        .args(args)
        .env("VX_CRASH", point)
        .output()
        .expect("spawning vx");
    assert!(
        !output.status.success(),
        "seed {seed}: vx {args:?} was armed to crash at `{point}` but exited cleanly\nstderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
}

const XQ: &str = r#"for $c in doc("store")//MedlineCitation return $c/PMID"#;

/// Killing `vx append` at any injected point leaves a store that opens
/// to exactly the pre-append state (crash before the batch was durable,
/// including a torn half-written frame) or the post-append state (crash
/// after the fsync); a follow-up append always succeeds.
#[test]
fn kill_mid_append_recovers_pre_or_post_state() {
    let seed = seed();
    let mut lcg = Lcg(seed);
    let scratch = Scratch::new("append");
    let base = xmlvec::data::medline(7, 12);
    let extra = xmlvec::data::medline(8, 4);
    let extra_file = scratch.path("extra.xml");
    write_xml(&extra_file, &extra);

    let pre = in_memory_answers(&base, XQ);
    let post = in_memory_answers(&combined(&base, &[&extra]), XQ);
    assert_eq!(post.len(), pre.len() + 4);

    // (crash point, does the batch survive?)
    let points = vec![
        ("wal.before_append", false),
        ("wal.torn_append", false),
        ("wal.after_append", true),
    ];
    for (point, survives) in shuffled(points, &mut lcg) {
        let store = scratch.path(&format!("store-{point}"));
        let doc = xmlvec::core::vectorize(&base).unwrap();
        Store::save(&store, &doc, Compaction::None).unwrap();

        run_crashing(
            &[
                "append",
                store.to_str().unwrap(),
                extra_file.to_str().unwrap(),
            ],
            point,
            seed,
        );
        let expected = if survives { &post } else { &pre };
        assert_eq!(
            &answers(&store, XQ),
            expected,
            "seed {seed}: wrong recovery state after crash at `{point}`"
        );

        // The torn tail (if any) was salvaged; appending again works and
        // lands the batch exactly once.
        let report = Store::append_batch(
            &store,
            &[std::fs::read(&extra_file).unwrap()],
            &AppendOptions::default(),
        )
        .unwrap();
        assert_eq!(
            report.docs, 1,
            "seed {seed}: post-crash append at `{point}`"
        );
        let expected = if survives {
            in_memory_answers(&combined(&base, &[&extra, &extra]), XQ)
        } else {
            post.clone()
        };
        assert_eq!(
            answers(&store, XQ),
            expected,
            "seed {seed}: post-crash append drifted after `{point}`"
        );
    }
}

/// Killing `vx compact` at any injected point never loses an append:
/// the store reopens to exactly the appended state — from the WAL if
/// the crash hit before the manifest swap, from the new generation
/// (without double-applying the still-present WAL records) if after —
/// and a follow-up compaction completes and drains the journal.
#[test]
fn kill_mid_compaction_recovers_appended_state() {
    let seed = seed();
    let mut lcg = Lcg(seed);
    let scratch = Scratch::new("compact");
    let base = xmlvec::data::medline(11, 10);
    let extra = xmlvec::data::medline(12, 5);
    let post = in_memory_answers(&combined(&base, &[&extra]), XQ);

    // One appended-but-uncompacted store, copied per crash point.
    let origin = scratch.path("origin");
    let doc = xmlvec::core::vectorize(&base).unwrap();
    Store::save(&origin, &doc, Compaction::None).unwrap();
    let extra_bytes = write_document(&extra, &WriteOptions::compact()).into_bytes();
    Store::append_batch(&origin, &[extra_bytes], &AppendOptions::default()).unwrap();

    let points = vec![
        "compact.before_gen",
        "store.mid_save",
        "compact.before_current",
        "compact.after_current",
    ];
    for point in shuffled(points, &mut lcg) {
        let store = scratch.path(&format!("store-{}", point.replace('.', "-")));
        copy_dir(&origin, &store);

        run_crashing(&["compact", store.to_str().unwrap()], point, seed);
        assert_eq!(
            answers(&store, XQ),
            post,
            "seed {seed}: appended state lost after crash at `{point}`"
        );

        // Recovery completes the job: compaction succeeds (or no-ops if
        // the manifest swap already landed), the WAL drains, and the
        // answers never change.
        Store::compact(&store, Compaction::None).unwrap();
        let report = Store::open_report(&store).unwrap();
        assert_eq!(
            report.wal.pending_records, 0,
            "seed {seed}: WAL still pending after recovery from `{point}`"
        );
        assert_eq!(report.generation, 1, "seed {seed}: `{point}`");
        assert_eq!(
            answers(&store, XQ),
            post,
            "seed {seed}: recovery compaction changed answers after `{point}`"
        );
    }
}

/// The byte-identity contract: append + compact must be
/// indistinguishable on disk from never having appended at all — the
/// generation directory's skeleton, vector files, and catalog match a
/// from-scratch ingest of the combined document byte for byte, and the
/// two stores answer a join identically with value indexes on and off.
#[test]
fn compacted_store_is_byte_identical_to_fresh_ingest() {
    let scratch = Scratch::new("differential");
    let base = xmlvec::data::medline(21, 15);
    let extra1 = xmlvec::data::medline(22, 6);
    let extra2 = xmlvec::data::medline(23, 6);

    // Appended + compacted store.
    let store = scratch.path("store");
    Store::save(
        &store,
        &xmlvec::core::vectorize(&base).unwrap(),
        Compaction::Auto,
    )
    .unwrap();
    for extra in [&extra1, &extra2] {
        let bytes = write_document(extra, &WriteOptions::compact()).into_bytes();
        Store::append_batch(&store, &[bytes], &AppendOptions::default()).unwrap();
    }
    let report = Store::compact(&store, Compaction::Auto).unwrap();
    assert!(report.compacted);

    // From-scratch ingest of the combined document.
    let fresh = scratch.path("fresh");
    let dom = combined(&base, &[&extra1, &extra2]);
    Store::save(
        &fresh,
        &xmlvec::core::vectorize(&dom).unwrap(),
        Compaction::Auto,
    )
    .unwrap();

    // Same file set, same bytes.
    let files = |dir: &Path| -> Vec<(String, Vec<u8>)> {
        let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.path().is_file())
            .map(|e| {
                (
                    e.file_name().to_string_lossy().into_owned(),
                    std::fs::read(e.path()).unwrap(),
                )
            })
            .collect();
        files.sort();
        files
    };
    let compacted_files = files(&report.gen_dir);
    let fresh_files = files(&fresh);
    assert_eq!(
        compacted_files.iter().map(|(n, _)| n).collect::<Vec<_>>(),
        fresh_files.iter().map(|(n, _)| n).collect::<Vec<_>>(),
        "file sets differ"
    );
    for ((name, compacted), (_, fresh)) in compacted_files.iter().zip(&fresh_files) {
        assert_eq!(compacted, fresh, "`{name}` differs from a fresh ingest");
    }

    // Identical answers with value indexes on and off, from both the
    // layered store and the fresh one.
    let join = r#"for $a in doc("d")//MedlineCitation, $b in doc("d")//MedlineCitation
                  where $a/PMID = $b/PMID return $b/PMID"#;
    let store_handle = StoreHandle::open(&store).unwrap();
    let fresh_handle = StoreHandle::open(&fresh).unwrap();
    for use_indexes in [true, false] {
        let options = RunOptions {
            use_indexes,
            ..RunOptions::default()
        };
        let query = Query::new(join).unwrap();
        let from_store = query.run_with(&store_handle, &options).unwrap().output;
        let from_fresh = query.run_with(&fresh_handle, &options).unwrap().output;
        assert_eq!(
            from_store.strings(),
            from_fresh.strings(),
            "use_indexes={use_indexes}: answers differ between compacted and fresh stores"
        );
    }
}
