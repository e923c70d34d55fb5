//! Relational work per rebuild: `QueryEngine::rebuild` reads the repository
//! through one `Smr::pages()` scan, so the statements it runs, and the
//! index seeks and full scans they plan, are the same for any corpus size.
//!
//! One test function: the `obs` registry the counters live in is
//! process-global, so concurrent tests would pollute each other's deltas.

use sensormeta_obs as obs;
use sensormeta_query::QueryEngine;
use sensormeta_smr::{PageDraft, Smr};
use sensormeta_workload::{generate_corpus, CorpusConfig};

/// `(pages, index seeks, full scans)` of one rebuild over the default
/// corpus with `deployments_per_site` deployments per site.
fn rebuild_work(deployments_per_site: usize) -> (usize, u64, u64) {
    let cfg = CorpusConfig {
        deployments_per_site,
        ..CorpusConfig::default()
    };
    let mut smr = Smr::new();
    let report = smr.bulk_load(generate_corpus(&cfg).into_iter().map(PageDraft::from));
    assert!(report.errors.is_empty(), "{:?}", report.errors);
    let mut engine = QueryEngine::open(smr).expect("engine");
    let seeks = obs::counter("sql_plan_index_seek_total");
    let scans = obs::counter("sql_plan_full_scan_total");
    let (seeks_before, scans_before) = (seeks.get(), scans.get());
    engine.rebuild().expect("rebuild");
    let work = (seeks.get() - seeks_before, scans.get() - scans_before);
    (engine.smr().page_count(), work.0, work.1)
}

#[test]
fn rebuild_work_does_not_grow_with_the_corpus() {
    let (small_pages, small_seeks, small_scans) = rebuild_work(5);
    let (large_pages, large_seeks, large_scans) = rebuild_work(10);
    assert!(
        large_pages > small_pages,
        "{large_pages} pages vs {small_pages}"
    );
    assert_eq!(
        large_seeks, small_seeks,
        "index seeks at {large_pages} pages vs {small_pages}"
    );
    assert_eq!(
        large_scans, small_scans,
        "full scans at {large_pages} pages vs {small_pages}"
    );
}
