//! Allocations of rendering one search response: `serde_json::to_string`
//! streams a `QueryOutput` into one `String` through the derived
//! `write_json`, so the only allocations are that buffer's growth (one
//! per doubling), however many items, facets and recommendations the
//! output holds. The `serde::Value` tree, rendered beside it for
//! comparison, allocates per field.
//!
//! One test function: the counting allocator is process-global.

use sensormeta_query::{FacetCount, QueryOutput, RecommendedPage, ResultItem};
use serde::Serialize;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// The system allocator, counting every allocation and reallocation.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded unchanged to the system allocator.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged to the system allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded unchanged to the system allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// A response the size of a wide cold search: 50 items (every other one
/// geolocated), 100 facets and 5 recommendations, with text that needs
/// escaping and non-ASCII text.
fn wide_output() -> QueryOutput {
    let items = (0..50)
        .map(|i| ResultItem {
            title: format!("Deployment:wfj_sensor_{i}"),
            namespace: "Deployment".to_owned(),
            score: 1.0 / f64::from(i + 1),
            bm25: 0.5 + f64::from(i) / 100.0,
            pagerank: f64::from(i % 7),
            match_degree: 1.0,
            snippet: format!(
                "… a \"temperature\" sensor {i} at Weißfluhjoch\twith a body long enough to fill a \
                 snippet window of about one hundred and forty characters …"
            ),
            coords: (i % 2 == 0).then_some((46.829_556 + f64::from(i), 9.809_278)),
        })
        .collect();
    let facets = (0..100)
        .map(|i| FacetCount {
            attribute: format!("hasAttribute{}", i % 10),
            value: format!("value {i}"),
            count: 1000 - i,
        })
        .collect();
    let recommendations = (0..5)
        .map(|i| RecommendedPage {
            title: format!("Fieldsite:site_{i}"),
            score: 0.25 * f64::from(i),
            shared_properties: vec!["hasVendor".to_owned(), "measuresQuantity".to_owned()],
        })
        .collect();
    QueryOutput {
        items,
        total_matched: 981,
        facets,
        recommendations,
        did_you_mean: Some("temperature".to_owned()),
    }
}

/// Allocations `f` makes.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let out = f();
    (out, ALLOCATIONS.load(Ordering::Relaxed) - before)
}

#[test]
fn rendering_a_search_response_allocates_only_its_buffer() {
    let out = wide_output();
    let (json, streamed) = allocations(|| serde_json::to_string(&out).expect("json"));
    let (tree, through_tree) = allocations(|| out.to_value().to_string());
    assert_eq!(json, tree, "the streamed text is the value tree's");
    assert!(json.len() > 16 << 10, "{} bytes", json.len());
    // One allocation plus one reallocation per doubling of the buffer:
    // log2 of the output size, whatever the output holds.
    let doublings = u64::from(usize::BITS - json.len().leading_zeros());
    assert!(
        streamed <= doublings + 1,
        "{streamed} allocations to write {} bytes",
        json.len()
    );
    assert!(
        through_tree > 500,
        "the value tree path allocates per field: {through_tree}"
    );
}
