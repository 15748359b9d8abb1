//! Allocation guard for ingest: the tokenizer hands out borrowed events,
//! the vectorizer keys values by path id, and the skeleton builder conses
//! from one reused edge stack, so a store ingest allocates nothing per
//! event once its buffers have grown. A counting global allocator
//! (scoped to this test binary) measures ingests at two sizes; the extra
//! allocations the larger one makes must stay under 1 % of the extra
//! events it consumes. Draining the tokenizer alone must allocate a
//! bounded handful of buffers, whatever the document's length.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use xmlvec::core::{Compaction, IngestOptions, Store};
use xmlvec::xml::{write_document, Document, Events, WriteOptions};

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

/// The counter is process-wide: measurements take turns so one test's
/// setup does not land in another's count.
static MEASURING: Mutex<()> = Mutex::new(());

/// Allocations made while running `f`, with its result.
fn counted<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let out = f();
    (ALLOCATIONS.load(Ordering::Relaxed) - before, out)
}

fn xml(doc: &Document) -> String {
    write_document(doc, &WriteOptions::compact())
}

/// `(allocations, events)` of one `Compaction::Auto` store ingest of
/// `text`, built before the count starts.
fn ingest(label: &str, text: &str) -> (u64, u64) {
    let dir = std::env::temp_dir().join(format!("vx-ingest-alloc-{}-{label}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let options = IngestOptions {
        compaction: Compaction::Auto,
        ..IngestOptions::default()
    };
    let (allocs, report) =
        counted(|| Store::ingest_stream(&dir, text.as_bytes(), &options).unwrap());
    let _ = std::fs::remove_dir_all(&dir);
    (allocs, report.stats.events)
}

#[test]
fn ingest_allocations_do_not_grow_with_events() {
    let _turn = MEASURING.lock().unwrap_or_else(|e| e.into_inner());
    for (name, generate) in [
        ("ML", xmlvec::data::medline as fn(u64, usize) -> Document),
        ("SS", xmlvec::data::skyserver),
    ] {
        let small = xml(&generate(42, 1_000));
        let large = xml(&generate(42, 4_000));
        let (small_allocs, small_events) = ingest(&format!("{name}-small"), &small);
        let (large_allocs, large_events) = ingest(&format!("{name}-large"), &large);
        let extra_allocs = large_allocs.saturating_sub(small_allocs);
        let extra_events = large_events - small_events;
        eprintln!(
            "Store::ingest_stream, {name}: {small_allocs} → {large_allocs} allocations \
             for {small_events} → {large_events} events"
        );
        assert!(
            extra_allocs * 100 < extra_events,
            "{name}: {small_allocs} → {large_allocs} allocations for {small_events} → \
             {large_events} events; the {extra_allocs} extra must stay under 1 % of the \
             {extra_events} extra"
        );
    }
}

#[test]
fn draining_borrowed_events_allocates_a_bounded_handful() {
    let _turn = MEASURING.lock().unwrap_or_else(|e| e.into_inner());
    let text = xml(&xmlvec::data::medline(42, 4_000));
    let (allocs, events) = counted(|| {
        let mut events = Events::new(text.as_bytes());
        let mut n = 0u64;
        while events.next_ref().unwrap().is_some() {
            n += 1;
        }
        n
    });
    eprintln!("Events::next_ref over ML 4 000: {allocs} allocations for {events} events");
    assert!(events > 100_000, "ML 4 000 has {events} events");
    assert!(
        allocs <= 64,
        "draining {events} events made {allocs} allocations (at most 64)"
    );
}
