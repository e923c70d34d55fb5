//! The live tag store under `/bulkload` and `POST /tag`.
//!
//! A load merges only the tags of the pages it wrote; the store must still
//! equal what merging the whole repository's tags after every load would
//! give. And a `POST /tag` copies no whole store: the MVCC commit clones
//! two tables of pointers and the sets the tag touches, so one tag makes
//! the same number of allocations at any corpus size.

use proptest::prelude::*;
use sensormeta_query::QueryEngine;
use sensormeta_server::{parse_query, App, AppConfig, Request};
use sensormeta_smr::{PageDraft, Smr};
use sensormeta_tagging::TagStore;
use sensormeta_workload::{generate_corpus, CorpusConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeMap;

/// The system allocator, counting the allocations and reallocations of
/// the threads that switch counting on, so that tests running beside
/// them do not count.
struct Counting;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    if COUNTING.with(Cell::get) {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
    }
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded unchanged to the system allocator.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged to the system allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: forwarded unchanged to the system allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` makes on this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    ALLOCATIONS.with(|n| n.set(0));
    COUNTING.with(|c| c.set(true));
    let out = f();
    COUNTING.with(|c| c.set(false));
    (out, ALLOCATIONS.with(Cell::get))
}

fn app(deployments_per_site: usize) -> App {
    let cfg = CorpusConfig {
        deployments_per_site,
        ..CorpusConfig::default()
    };
    let mut smr = Smr::new();
    let report = smr.bulk_load(generate_corpus(&cfg).into_iter().map(PageDraft::from));
    assert!(report.errors.is_empty(), "{:?}", report.errors);
    App::with_config(
        QueryEngine::open(smr).expect("engine"),
        AppConfig::default(),
    )
}

fn post(app: &App, target: &str, body: String) -> u16 {
    let (path, query) = target.split_once('?').unwrap_or((target, ""));
    let req = Request {
        method: "POST".into(),
        path: path.into(),
        query: parse_query(query),
        headers: BTreeMap::new(),
        body: body.into_bytes(),
    };
    app.handle(&req).status
}

fn tag(app: &App, page: &str, tag: &str) -> u16 {
    post(app, &format!("/tag?page={page}&tag={tag}"), String::new())
}

fn bulkload(app: &App, drafts: &[PageDraft]) -> u16 {
    let body = drafts
        .iter()
        .map(|d| serde_json::to_string(d).expect("draft serializes") + "\n")
        .collect();
    post(app, "/bulkload", body)
}

/// The whole-repository merge: every (page, tag) row of the published
/// repository.
fn merge_all(app: &App, into: &mut TagStore) {
    let pairs = app.engine_snapshot().smr().all_tags().expect("all tags");
    into.ingest(pairs.iter().map(|(p, t)| (p.as_str(), t.as_str())));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn live_store_equals_the_whole_repository_merge(
        ops in prop::collection::vec((0u8..3, any::<u16>(), any::<u16>()), 1..12),
    ) {
        let app = app(2);
        let titles = app.engine_snapshot().smr().page_titles().expect("titles");
        let title = |i: u16| titles[usize::from(i) % titles.len()].clone();
        let mut oracle = TagStore::new();
        merge_all(&app, &mut oracle);
        for (kind, a, b) in ops {
            match kind {
                // A user tag, on an existing page or one a load creates.
                0 => {
                    let page = if a % 4 == 0 {
                        format!("Fieldsite:new{}", b % 3)
                    } else {
                        title(a)
                    };
                    let label = format!("user{}", b % 5);
                    prop_assert_eq!(tag(&app, &page, &label), 200);
                    oracle.add(&page, &label);
                }
                // A load that retags existing pages and brings new ones.
                _ => {
                    let mut drafts = Vec::new();
                    for i in 0..3u16 {
                        let page = title(a.wrapping_add(i * 7));
                        let page = app.engine_snapshot().smr().get_page(&page).expect("read");
                        let mut d = PageDraft::from(page.expect("page"));
                        d.tags = vec![format!("load{}", (b + i) % 4), "shared".into()];
                        drafts.push(d);
                    }
                    drafts.push(
                        PageDraft::new(format!("Fieldsite:new{}", b % 3), "Fieldsite")
                            .tag(format!("fresh{}", a % 3)),
                    );
                    prop_assert_eq!(bulkload(&app, &drafts), 200);
                    merge_all(&app, &mut oracle);
                }
            }
            prop_assert!(
                *app.tags_snapshot() == oracle,
                "live tag store differs after {:?}",
                (kind, a, b)
            );
        }
    }
}

/// Allocations of one `POST /tag` adding a new tag to a page that
/// carries two, through `App::handle`.
fn tag_allocations(deployments_per_site: usize) -> (usize, u64) {
    let app = app(deployments_per_site);
    let page = PageDraft::new("Fieldsite:tagged", "Fieldsite")
        .tag("alpha")
        .tag("beta");
    assert_eq!(bulkload(&app, &[page]), 200);
    // Resolve what the first request of a route resolves once.
    assert_eq!(tag(&app, "Fieldsite:tagged", "warm"), 200);
    let (status, n) = allocations(|| tag(&app, "Fieldsite:tagged", "bench1"));
    assert_eq!(status, 200);
    (app.engine_snapshot().smr().page_count(), n)
}

#[test]
fn one_tag_allocates_the_same_at_both_corpus_sizes() {
    let (small_pages, small) = tag_allocations(5);
    let (large_pages, large) = tag_allocations(10);
    assert!(
        large_pages > small_pages,
        "{large_pages} pages vs {small_pages}"
    );
    assert_eq!(
        large, small,
        "allocations of one POST /tag at {large_pages} pages vs {small_pages}"
    );
}
