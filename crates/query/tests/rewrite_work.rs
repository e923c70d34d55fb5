//! Relational work per page rewrite: `Smr::update_page` reads the old page
//! and replaces its satellite rows with `UPDATE … WHERE title = …` and
//! `DELETE … WHERE page_id = …` statements, which find their rows through
//! index seeks. The values one rewrite decodes are therefore that page's
//! rows, the same for any corpus size, not a scan of every table.
//!
//! One test function: the `obs` registry the counters live in is
//! process-global, so concurrent tests would pollute each other's deltas.

use sensormeta_obs as obs;
use sensormeta_smr::{PageDraft, Smr};
use sensormeta_workload::{generate_corpus, CorpusConfig};

const PROBE: &str = "Deployment:rewrite_probe";

fn probe(body: &str) -> PageDraft {
    PageDraft::new(PROBE, "Deployment")
        .body(body)
        .annotate("measuresQuantity", "temperature")
        .annotate("hasUnit", "C")
        .annotate("hasElevation", "2693")
        .link("Fieldsite:Weissfluhjoch")
        .link("Person:nobody")
        .tag("snow")
        .tag("probe")
}

/// `(pages, values decoded)` of rewriting the probe page in the default
/// corpus with `deployments_per_site` deployments per site.
fn rewrite_work(deployments_per_site: usize) -> (usize, u64) {
    let cfg = CorpusConfig {
        deployments_per_site,
        ..CorpusConfig::default()
    };
    let mut smr = Smr::new();
    let report = smr.bulk_load(generate_corpus(&cfg).into_iter().map(PageDraft::from));
    assert!(report.errors.is_empty(), "{:?}", report.errors);
    smr.create_page(probe("first body")).expect("create probe");
    let decoded = obs::counter("relstore_values_decoded_total");
    let before = decoded.get();
    smr.update_page(probe("second body"))
        .expect("rewrite probe");
    let work = decoded.get() - before;
    let page = smr.get_page(PROBE).expect("read").expect("probe exists");
    assert_eq!(page.body, "second body");
    assert_eq!(page.annotations.len(), 3);
    (smr.page_count(), work)
}

#[test]
fn page_rewrite_decodes_only_that_pages_rows() {
    let (small_pages, small) = rewrite_work(2);
    let (large_pages, large) = rewrite_work(8);
    assert!(
        large_pages > small_pages,
        "{large_pages} pages vs {small_pages}"
    );
    assert_eq!(
        large, small,
        "values decoded by one rewrite at {large_pages} pages vs {small_pages}"
    );
    // The probe owns one `pages` row and seven satellite rows; reading and
    // replacing them decodes a few values of each (29 when this was
    // written), far below one column of any table of the corpus (a full
    // scan of `annotations.page_id` alone decodes hundreds).
    assert!(small <= 32, "one rewrite decoded {small} values");
}
