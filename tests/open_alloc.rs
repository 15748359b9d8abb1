//! Allocation guard for opening vectors: decoding a `.vec` file builds
//! one column (offsets plus one byte arena), and opening a store moves
//! those columns into the document, so neither allocates per value. A
//! counting global allocator (scoped to this test binary) measures each
//! at two sizes; the extra allocations the larger one makes must stay
//! under 1 % of the extra records (or values) it decodes.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use xmlvec::core::{vectorize, Compaction, Store, StoreHandle};
use xmlvec::vector::{Spill, SpillVector, Vector};

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

fn assert_flat(
    what: &str,
    (small_allocs, small_n): (u64, u64),
    (large_allocs, large_n): (u64, u64),
) {
    let extra_allocs = large_allocs.saturating_sub(small_allocs);
    let extra_n = large_n - small_n;
    eprintln!("{what}: {small_allocs} → {large_allocs} allocations for {small_n} → {large_n}");
    assert!(
        extra_allocs * 100 < extra_n,
        "{what}: {small_allocs} → {large_allocs} allocations for {small_n} → {large_n}; \
         the {extra_allocs} extra must stay under 1 % of the {extra_n} extra"
    );
}

#[derive(Clone, Copy, Debug)]
enum Encoding {
    Plain,
    Dictionary,
    Indexed,
}

/// A `.vec` file of `records` values in `encoding`, written by the
/// store's own encoder. The dictionary form needs ≤ 128 distinct values.
fn encode(records: usize, encoding: Encoding) -> Vec<u8> {
    let mut spill = Spill::new(io::Cursor::new(Vec::new()));
    let mut encoder = SpillVector::default();
    for i in 0..records {
        let value = match encoding {
            Encoding::Dictionary => format!("code-{}", i % 100),
            Encoding::Plain | Encoding::Indexed => format!("value-{i:06}-{}", "x".repeat(i % 13)),
        };
        encoder.append(&mut spill, value.as_bytes()).unwrap();
    }
    let mut out = Vec::new();
    let stats = match encoding {
        Encoding::Plain => encoder.finish_plain(&mut spill, &mut out),
        Encoding::Dictionary => encoder.finish_auto(&mut spill, &mut out),
        Encoding::Indexed => encoder.finish_indexed(&mut spill, &mut out),
    }
    .unwrap();
    let version = match encoding {
        Encoding::Plain => 1,
        Encoding::Dictionary => 2,
        Encoding::Indexed => 3,
    };
    assert_eq!(stats.version, version, "{encoding:?}");
    out
}

#[test]
fn vector_decode_allocations_do_not_grow_with_records() {
    let _turn = MEASURING.lock().unwrap_or_else(|e| e.into_inner());
    for encoding in [Encoding::Plain, Encoding::Dictionary, Encoding::Indexed] {
        let measure = |records: usize| {
            let bytes = encode(records, encoding);
            let (allocs, decoded) = counted(|| Vector::decode(&bytes).unwrap());
            assert_eq!(decoded.0.len(), records);
            (allocs, records as u64)
        };
        assert_flat(
            &format!("Vector::decode, {encoding:?}"),
            measure(1_000),
            measure(10_000),
        );
    }
}

fn ml_store(citations: usize) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "vx-open-alloc-{}-ml-{citations}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let doc = vectorize(&xmlvec::data::medline(42, citations)).unwrap();
    Store::save(&dir, &doc, Compaction::Auto).unwrap();
    dir
}

#[test]
fn store_open_allocations_do_not_grow_with_values() {
    let _turn = MEASURING.lock().unwrap_or_else(|e| e.into_inner());
    let measure = |citations: usize| {
        let dir = ml_store(citations);
        let (allocs, handle) = counted(|| StoreHandle::open(&dir).unwrap());
        let values = handle.doc().text_count();
        drop(handle);
        let _ = std::fs::remove_dir_all(&dir);
        (allocs, values)
    };
    assert_flat("StoreHandle::open, ML", measure(1_000), measure(4_000));
}
