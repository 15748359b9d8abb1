//! Allocation guard for query output: serializing a constructed result
//! streams from its skeleton and vectors, so it must not allocate per
//! element, and collecting its texts allocates one string per value. A
//! counting global allocator (scoped to this test binary) measures an
//! SQ2-shaped constructor query over SkyServer at two scales:
//!
//! * `to_xml()`: the extra allocations the larger output makes stay
//!   under 1 % of the extra elements it writes (only the output buffer's
//!   doublings grow with it);
//! * `strings()`: at most one allocation per value, plus the result
//!   vector's doublings and the walk's fixed setup.
//!
//! Only the output call is counted, never the query run.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use vx_engine::{Query, QueryOutput, RunOptions};

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

/// SQ2 of the workload: a selection, then one constructed element per
/// matching row.
const QUERY: &str = r#"for $p in doc("ss")/PhotoObjAll/PhotoObj
                       where $p/type = "6"
                       return <obj>{$p/ra}{$p/dec}</obj>"#;

/// Allocations made by `f`, with its result.
fn counted<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let result = f();
    (ALLOCATIONS.load(Ordering::Relaxed) - before, result)
}

struct Measured {
    elements: u64,
    values: u64,
    xml_allocs: u64,
    strings_allocs: u64,
}

fn measure(rows: usize) -> Measured {
    let doc = vx_core::vectorize(&vx_data::skyserver(3, rows)).unwrap();
    let output = Query::new(QUERY)
        .unwrap()
        .run_with(&doc, &RunOptions::default())
        .unwrap()
        .output;
    let QueryOutput::Document(result) = &output else {
        panic!("a constructor query yields a document");
    };
    let elements = result.node_count() - result.text_count();
    let (xml_allocs, xml) = counted(|| output.to_xml().unwrap());
    assert_eq!(xml.matches("<obj>").count() as u64, (elements - 1) / 3);
    let (strings_allocs, strings) = counted(|| output.strings());
    assert_eq!(strings.len() as u64, result.text_count());
    Measured {
        elements,
        values: result.text_count(),
        xml_allocs,
        strings_allocs,
    }
}

#[test]
fn output_allocations_do_not_grow_per_element() {
    let small = measure(1000);
    let large = measure(4000);
    assert!(
        large.elements > 3 * small.elements,
        "the larger output must be far larger: {} → {} elements",
        small.elements,
        large.elements
    );
    let extra_elements = large.elements - small.elements;
    let extra_allocs = large.xml_allocs.saturating_sub(small.xml_allocs);
    eprintln!(
        "to_xml: allocations {} → {} for elements {} → {}",
        small.xml_allocs, large.xml_allocs, small.elements, large.elements
    );
    assert!(
        extra_allocs * 100 < extra_elements,
        "to_xml: {extra_allocs} more allocations for {extra_elements} more elements \
         ({} at {} elements, {} at {})",
        small.xml_allocs,
        small.elements,
        large.xml_allocs,
        large.elements
    );

    for m in [&small, &large] {
        // One string per value, the result vector's doublings, and the
        // walk's setup (cursors, path ids), which depends on the number
        // of paths, not of values.
        let doublings = u64::from(u64::BITS - m.values.leading_zeros());
        let bound = m.values + doublings + 16;
        eprintln!(
            "strings: {} allocations for {} values (bound {bound})",
            m.strings_allocs, m.values
        );
        assert!(
            m.strings_allocs <= bound,
            "strings: {} allocations for {} values, bound {bound}",
            m.strings_allocs,
            m.values
        );
    }
}
