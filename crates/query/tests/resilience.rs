//! Resilience integration: deadline propagation through the query pipeline
//! and serve-stale degradation from the result cache.
//!
//! One test function: the chaos plan is process-global, so phases must run
//! sequentially rather than as parallel `#[test]`s.

use sensormeta_cache::Status;
use sensormeta_query::{QueryEngine, QueryError, SearchForm, SearchOptions};
use sensormeta_resil::chaos::{Fault, FaultKind};
use sensormeta_resil::{self as resil, chaos, Deadline};
use sensormeta_smr::{PageDraft, Smr};
use std::time::Duration;

fn seed_smr() -> Smr {
    let mut smr = Smr::new();
    smr.create_page(
        PageDraft::new("Deployment:wfj_temp", "Deployment")
            .body("Temperature sensor on the snow surface")
            .annotate("measuresQuantity", "temperature"),
    )
    .expect("seed page");
    smr.create_page(
        PageDraft::new("Deployment:davos_wind", "Deployment")
            .body("Wind speed sensor at Davos")
            .annotate("measuresQuantity", "wind_speed"),
    )
    .expect("seed page");
    smr
}

#[test]
fn deadlines_interrupt_and_stale_results_degrade() {
    let mut engine = QueryEngine::open(seed_smr()).expect("build engine");
    let form = SearchForm::keywords("temperature");

    // Warm the result cache.
    let (fresh, status) = engine
        .search_shared(&form, &SearchOptions::default())
        .expect("first search");
    assert_eq!(status, Status::Miss);
    assert_eq!(fresh.items.len(), 1);
    let (_, status) = engine
        .search_shared(&form, &SearchOptions::default())
        .expect("second search");
    assert_eq!(status, Status::Hit);

    // An expired ambient budget interrupts an uncached query
    // cooperatively…
    {
        let _expired = resil::deadline_scope(Deadline::within(Duration::ZERO));
        let err = engine
            .search_shared(&SearchForm::keywords("wind"), &SearchOptions::default())
            .expect_err("no budget, no cached entry");
        assert!(matches!(err, QueryError::DeadlineExceeded), "{err}");
        // …while a valid cached entry still answers instantly.
        let (_, status) = engine
            .search_shared(&form, &SearchOptions::default())
            .expect("hit needs no budget");
        assert_eq!(status, Status::Hit);
    }

    // Mutate the corpus: the cached entry goes epoch-stale.
    engine
        .smr_mut()
        .create_page(
            PageDraft::new("Deployment:new_temp", "Deployment")
                .body("A second temperature sensor")
                .annotate("measuresQuantity", "temperature"),
        )
        .expect("mutation");
    engine.rebuild().expect("rebuild");

    // With the backend faulted, the request fails…
    chaos::install("query_search", Fault::always(FaultKind::Error));
    let err = engine
        .search_shared(&form, &SearchOptions::default())
        .expect_err("injected fault");
    assert!(matches!(err, QueryError::Injected("query_search")), "{err}");
    // …and the failed recompute left the superseded entry, with the
    // pre-mutation body, for the caller to serve as a labeled stale answer.
    let (held, age) = engine.search_stale(&form, None).expect("stale lookup");
    assert_eq!(held.items.len(), 1, "pre-mutation result");
    assert!(age < Duration::from_secs(60));

    // Fault cleared: the next request recomputes the real, fresh answer
    // (reported `Stale` — the retained superseded entry was replaced).
    chaos::clear();
    let (out, status) = engine
        .search_shared(&form, &SearchOptions::default())
        .expect("recovered");
    assert_eq!(status, Status::Stale);
    assert_eq!(out.items.len(), 2, "post-mutation result");

    // The injected failure was not cached: the fresh result above proves
    // it, and a repeat is a plain hit.
    let (_, status) = engine
        .search_shared(&form, &SearchOptions::default())
        .expect("replay");
    assert_eq!(status, Status::Hit);
}
