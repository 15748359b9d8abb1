//! Profile-accuracy tests: the instrumented evaluator must tell the
//! truth about where time goes, and instrumentation must not change
//! answers.
//!
//! The SQ3 checks hold the paper's self-join over SkyServer `PhotoObj`
//! rows to linear enumeration: without a value index (in-memory
//! documents) by counting the candidates `bind` examines, and over a
//! version-3 store, whose sorted runs the planner merges, by the join
//! phases' share of the measured time. `VX_SQ3_ROWS` scales the corpus
//! (default 2000 — sized for debug-build test runs).

use vx_engine::{Query, QueryProfile, RunOptions};

const SQ3: &str = r#"for $a in doc("ss")//PhotoObj, $b in doc("ss")//PhotoObj
   where $a/objID = $b/objID return $b/ra"#;

fn skyserver_vec(rows: usize) -> vx_core::VecDoc {
    vx_core::vectorize(&vx_data::skyserver(42, rows)).unwrap()
}

fn profiled() -> RunOptions {
    RunOptions {
        profile: true,
        ..RunOptions::default()
    }
}

fn run_sq3(rows: usize) -> (Vec<String>, QueryProfile) {
    let doc = skyserver_vec(rows);
    let q = Query::new(SQ3).unwrap();
    let outcome = q.run_with(&doc, &profiled()).unwrap();
    (
        outcome.output.strings(),
        outcome.profile.expect("profile requested"),
    )
}

/// Without an index (in-memory documents carry no persistent run, so
/// the planner hash-joins), SQ3 still binds each probe's matches
/// directly: every row joins with itself exactly once (objID is a key),
/// and `bind` examines at most two candidates per probe occurrence and
/// emitted tuple. A per-probe scan of every build occurrence — the old
/// hash executor — would examine `rows²` candidates and fail the count,
/// whatever the host's speed.
#[test]
fn sq3_join_enumeration_is_linear_without_an_index() {
    let rows = std::env::var("VX_SQ3_ROWS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2000);
    let (values, profile) = run_sq3(rows);
    assert_eq!(values.len(), rows, "objID is a key: one tuple per row");

    let probes = profile
        .variables
        .iter()
        .find(|v| v.name == "a")
        .expect("probe variable $a")
        .occurrences;
    let tuples = profile.counters.get("tuples.emitted");
    let candidates = profile.counters.get("enum.candidates");
    assert!(
        candidates <= 2 * (probes + tuples),
        "{candidates} candidates examined for {probes} probes and {tuples} tuples"
    );

    // The probe counters agree with the cardinality.
    assert_eq!(tuples, rows as u64);
    assert!(profile.counters.get("join.probe.hits") >= rows as u64);
}

/// Over a `Compaction::Auto` store the `objID` vector carries a
/// version-3 value index, the planner sort-merges the self-join, and the
/// join phases fall under half the measured time.
#[test]
fn sq3_join_share_drops_under_half_with_value_index() {
    use vx_core::{Compaction, Store, StoreHandle};

    let rows = std::env::var("VX_SQ3_ROWS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2000);
    let dir = std::env::temp_dir().join(format!("vx-profile-ss-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    Store::save(&dir.join("ss"), &skyserver_vec(rows), Compaction::Auto).unwrap();
    let handle = StoreHandle::open(&dir.join("ss")).unwrap();

    let q = Query::new(SQ3).unwrap();
    let outcome = q.run_with(&handle, &profiled()).unwrap();
    let profile = outcome.profile.expect("profile requested");
    assert_eq!(
        outcome.output.strings().len(),
        rows,
        "objID is a key: one tuple per row"
    );

    let join_secs = profile.step_secs("join-build")
        + profile.step_secs("enumerate")
        + profile.step_secs("output");
    let total = profile.steps_total();
    assert!(total > 0.0);
    assert!(
        join_secs < 0.5 * total,
        "join phases {join_secs:.4}s of {total:.4}s ({:.1}%) — expected < 50% with the index",
        100.0 * join_secs / total
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Instrumentation is observation only: profiled and unprofiled runs
/// return identical output, and the profile's bookkeeping is coherent
/// (steps tile the total, variables carry the match cardinalities).
#[test]
fn profiling_does_not_change_answers() {
    let doc = skyserver_vec(300);
    let q = Query::new(SQ3).unwrap();
    let plain = q.run_with(&doc, &RunOptions::default()).unwrap().output;
    let outcome = q.run_with(&doc, &profiled()).unwrap();
    let profile = outcome.profile.expect("profile requested");
    assert_eq!(plain.strings(), outcome.output.strings());

    let sum = profile.steps_total();
    assert!(
        (profile.total_secs - sum).abs() <= 0.05 * profile.total_secs + 1e-4,
        "steps sum {sum} vs total {}",
        profile.total_secs
    );
    // Both pattern variables matched every PhotoObj row.
    let occs: Vec<u64> = profile.variables.iter().map(|v| v.occurrences).collect();
    assert!(occs.contains(&300), "variables: {:?}", profile.variables);
}

/// The structural self-index at work on TreeBank — CI's sublinearity
/// guard invokes this test by name. A selective descendant pattern
/// (`//SBAR`, plus a `//PRP` reference) lets the containment map rule
/// whole shared subtrees out, so with the index on the walk skips nodes
/// (`struct.nodes.skipped` > 0) and visits strictly fewer skeleton
/// nodes than the NFA fallback — with byte-identical answers. Counters
/// are plain sums over a deterministic walk, so the comparison is
/// exact, not a timing heuristic.
#[test]
fn treebank_struct_index_prunes_skeleton_visits() {
    let vdoc = vx_core::vectorize(&vx_data::treebank(9, 150)).unwrap();
    let q = Query::new(r#"for $s in doc("tb")//SBAR return $s//PRP"#).unwrap();
    let run = |on: bool| {
        let options = RunOptions {
            profile: true,
            struct_index: on,
            ..RunOptions::default()
        };
        let outcome = q.run_with(&vdoc, &options).unwrap();
        (
            outcome.output.strings(),
            outcome.profile.expect("profile requested"),
        )
    };
    let (values_on, profile_on) = run(true);
    let (values_off, profile_off) = run(false);
    assert_eq!(values_on, values_off, "pruning changed the answer");
    assert!(!values_on.is_empty(), "degenerate corpus for the anchor");

    // Index on: subtrees were provably skipped, and the walk shrank.
    assert!(profile_on.counters.get("struct.summary.hits") > 0);
    assert!(profile_on.counters.get("struct.nodes.skipped") > 0);
    let visits_on = profile_on.counters.get("skeleton.visits");
    let visits_off = profile_off.counters.get("skeleton.visits");
    assert!(
        visits_on < visits_off,
        "index on visited {visits_on} skeleton nodes, off visited {visits_off}"
    );

    // Index off: the structural counters stay silent.
    assert_eq!(profile_off.counters.get("struct.summary.hits"), 0);
    assert_eq!(profile_off.counters.get("struct.nodes.skipped"), 0);

    // Both step patterns carry a named step, so nothing fell back.
    assert_eq!(profile_on.counters.get("struct.fallbacks"), 0);
}
