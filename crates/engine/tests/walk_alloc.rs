//! Allocation guard for the skeleton walk: once a document's paths have
//! been numbered, visiting an element must not allocate. A counting
//! global allocator (scoped to this test binary) measures one query over
//! TreeBank at two scales; the extra allocations the larger run makes
//! must stay under 1 % of the extra skeleton visits it makes.
//!
//! The query visits most of the skeleton but accepts no reference:
//! `//VP` stays alive everywhere, and `$v//NOSUCH` keeps a descending
//! machine alive below every `VP` without ever matching. The structural
//! index is off, so nothing is pruned. The documents are wrapped in
//! in-memory store handles, whose path index is built before the count
//! starts, so only the query's own work is counted.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use vx_core::StoreHandle;
use vx_engine::{Query, RunOptions};

struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call forwards to the system allocator unchanged; the
// counter is a relaxed atomic add with no effect on the allocation.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const QUERY: &str = r#"for $v in doc("tb")//VP return $v//NOSUCH"#;

/// `(allocations, skeleton visits)` of one unprofiled run over
/// TreeBank with `sentences` sentences.
fn measure(sentences: usize) -> (u64, u64) {
    let doc = vx_core::vectorize(&vx_data::treebank(7, sentences)).unwrap();
    let handle = StoreHandle::from_doc("tb", doc).unwrap();
    let query = Query::new(QUERY).unwrap();
    let options = RunOptions {
        struct_index: false,
        ..RunOptions::default()
    };

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let outcome = query.run_with(&handle, &options).unwrap();
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert!(outcome.output.strings().is_empty(), "NOSUCH never matches");

    let profiled = RunOptions {
        profile: true,
        ..options
    };
    let profile = query.run_with(&handle, &profiled).unwrap().profile.unwrap();
    (allocations, profile.counters.get("skeleton.visits"))
}

#[test]
fn walk_allocations_do_not_grow_with_visits() {
    let (small_allocs, small_visits) = measure(100);
    let (large_allocs, large_visits) = measure(400);
    assert!(
        large_visits > 3 * small_visits,
        "the larger corpus must visit far more: {small_visits} → {large_visits}"
    );
    let extra_visits = large_visits - small_visits;
    let extra_allocs = large_allocs.saturating_sub(small_allocs);
    eprintln!(
        "allocations {small_allocs} → {large_allocs} for visits {small_visits} → {large_visits}"
    );
    assert!(
        extra_allocs * 100 < extra_visits,
        "{extra_allocs} more allocations for {extra_visits} more visits \
         ({small_allocs} at {small_visits} visits, {large_allocs} at {large_visits})"
    );
}
