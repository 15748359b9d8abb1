//! Allocation guard for the path summary: building a `PathIndex` must
//! not allocate per entry. A counting global allocator (scoped to this
//! test binary) measures the build over TreeBank skeletons at two
//! scales; the extra allocations the larger build makes must stay under
//! 1 % of the extra `(node, path)` entries it produces. A summary that
//! clones a path or a per-node map per entry fails by orders of
//! magnitude.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use vx_skeleton::{NodeId, PathIndex};

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

/// `(allocations, entries)` of one path-summary build over the TreeBank
/// skeleton with `sentences` sentences.
fn measure(sentences: usize) -> (u64, u64) {
    let doc = vx_core::vectorize(&vx_data::treebank(7, sentences)).unwrap();
    let root = doc.root.unwrap();

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let index = PathIndex::new(&doc.skeleton, root);
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;

    let entries = (0..doc.skeleton.len())
        .map(|i| index.texts_below(NodeId(i as u32)).len() as u64)
        .sum();
    (allocations, entries)
}

#[test]
fn path_index_allocations_do_not_grow_with_entries() {
    let (small_allocs, small_entries) = measure(500);
    let (large_allocs, large_entries) = measure(2_500);
    assert!(
        large_entries > 3 * small_entries,
        "the larger skeleton must summarise far more: {small_entries} → {large_entries}"
    );
    let extra_entries = large_entries - small_entries;
    let extra_allocs = large_allocs.saturating_sub(small_allocs);
    eprintln!(
        "allocations {small_allocs} → {large_allocs} for entries {small_entries} → {large_entries}"
    );
    assert!(
        extra_allocs * 100 < extra_entries,
        "{extra_allocs} more allocations for {extra_entries} more entries \
         ({small_allocs} at {small_entries} entries, {large_allocs} at {large_entries})"
    );
}
