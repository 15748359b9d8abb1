//! Memory guard for streaming ingest: with plain encoding, peak live heap
//! must not grow with the document. A counting global allocator (scoped
//! to this test binary) tracks live and peak heap bytes around
//! `Store::ingest_stream` over SkyServer at two sizes; the larger run,
//! four times the rows and spilling several times the pages, may peak at
//! most 64 KiB higher.
//!
//! `Compaction::Auto` is left out on purpose: its version-3 value index
//! sorts every value of a vector, which holds them all in memory.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use xmlvec::core::{IngestOptions, Store};
use xmlvec::data::skyserver;
use xmlvec::xml::{write_document, WriteOptions};

struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every call forwards to the system allocator unchanged; the
// counters are relaxed atomics with no effect on the allocation.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size > layout.size() {
            grow(new_size - layout.size());
        } else {
            LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const LIMIT: usize = 64 * 1024;

/// `(peak live heap bytes above the starting point, spill pages)` of one
/// plain ingest of SkyServer with `rows` rows. The XML text is built
/// before the count starts.
fn measure(rows: usize) -> (usize, u64) {
    let xml = write_document(&skyserver(77, rows), &WriteOptions::compact());
    let dir = std::env::temp_dir().join(format!("vx-ingest-memory-{}-{rows}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let start = LIVE.load(Ordering::Relaxed);
    PEAK.store(start, Ordering::Relaxed);
    let report = Store::ingest_stream(&dir, xml.as_bytes(), &IngestOptions::default()).unwrap();
    let peak = PEAK.load(Ordering::Relaxed) - start;

    let _ = std::fs::remove_dir_all(&dir);
    (peak, report.spill_pages)
}

#[test]
fn ingest_peak_heap_does_not_grow_with_rows() {
    let (small_peak, small_pages) = measure(2_000);
    let (large_peak, large_pages) = measure(8_000);
    eprintln!(
        "peak heap {small_peak} → {large_peak} bytes for {small_pages} → {large_pages} spill pages"
    );
    assert!(
        large_pages > 3 * small_pages && small_pages > 0,
        "both sizes must spill, the larger far more: {small_pages} → {large_pages} pages"
    );
    assert!(
        large_peak < small_peak + LIMIT,
        "peak live heap grew by {} bytes (limit {LIMIT}) from 2 000 to 8 000 rows: \
         {small_peak} → {large_peak}",
        large_peak.saturating_sub(small_peak)
    );
}
