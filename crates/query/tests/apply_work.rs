//! Relational work per apply: `QueryEngine::apply` re-reads only the
//! titles a load wrote, one `Smr::get_page` each, and derives everything
//! global from memory. So a 10-page load (8 updates, 2 new titles) runs
//! the same statements, index seeks and decoded values for any corpus
//! size, and no full scan.
//!
//! One test function: the `obs` registry the counters live in is
//! process-global, so concurrent tests would pollute each other's deltas.

use sensormeta_obs as obs;
use sensormeta_query::QueryEngine;
use sensormeta_smr::{PageDraft, Smr};
use sensormeta_workload::{generate_corpus, CorpusConfig};

/// Relational work of one apply, in counter deltas.
#[derive(Debug, PartialEq)]
struct Work {
    statements: u64,
    seeks: u64,
    scans: u64,
    decoded: u64,
}

/// `(pages, work)` of applying one 10-page load over the default corpus
/// with `deployments_per_site` deployments per site. The load's pages
/// have the same content at every corpus size: 8 existing titles
/// rewritten, and 2 new titles.
fn apply_work(deployments_per_site: usize) -> (usize, Work) {
    let cfg = CorpusConfig {
        deployments_per_site,
        ..CorpusConfig::default()
    };
    let mut smr = Smr::new();
    let report = smr.bulk_load(generate_corpus(&cfg).into_iter().map(PageDraft::from));
    assert!(report.errors.is_empty(), "{:?}", report.errors);
    let mut engine = QueryEngine::open(smr).expect("engine");
    let titles = engine.smr().page_titles().expect("titles");
    let mut load: Vec<PageDraft> = titles
        .iter()
        .step_by(titles.len() / 8)
        .take(8)
        .map(|title| {
            PageDraft::new(title.clone(), "Deployment")
                .body("rewritten by the load")
                .annotate("measuresQuantity", "temperature")
                .link(titles[0].clone())
                .tag("load")
        })
        .collect();
    for title in ["Deployment:apply_new_0", "Deployment:apply_new_1"] {
        load.push(
            PageDraft::new(title, "Deployment")
                .body("a new page")
                .annotate("hasVendor", "Campbell")
                .link(titles[1].clone())
                .tag("new"),
        );
    }
    let written: Vec<String> = load.iter().map(|d| d.title.clone()).collect();
    let report = engine.smr_mut().bulk_load(load);
    assert_eq!((report.updated, report.created), (8, 2), "{report:?}");

    let counter = |name: &str| obs::counter(name).get();
    let read = || Work {
        statements: counter("relstore_queries_total"),
        seeks: counter("sql_plan_index_seek_total"),
        scans: counter("sql_plan_full_scan_total"),
        decoded: counter("relstore_values_decoded_total"),
    };
    let before = read();
    engine.apply(&written).expect("apply");
    let after = read();
    let work = Work {
        statements: after.statements - before.statements,
        seeks: after.seeks - before.seeks,
        scans: after.scans - before.scans,
        decoded: after.decoded - before.decoded,
    };
    (engine.smr().page_count(), work)
}

#[test]
fn apply_work_does_not_grow_with_the_corpus() {
    let (small_pages, small) = apply_work(5);
    let (large_pages, large) = apply_work(10);
    assert!(
        large_pages > small_pages,
        "{large_pages} pages vs {small_pages}"
    );
    assert_eq!(small.scans, 0, "{small:?}");
    assert!(small.statements > 0 && small.decoded > 0, "{small:?}");
    assert_eq!(
        large, small,
        "relational work of one apply at {large_pages} pages vs {small_pages}"
    );
}
