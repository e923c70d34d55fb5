//! A `/bulkload` whose refresh fails leaves nothing stale behind.
//!
//! The load is committed before its derived structures are brought up to
//! date, so a failed `QueryEngine::apply` must fall back to a rebuild, and
//! a refresh that fails outright must make the next load rebuild: a patch
//! carried forward from a stale generation would miss the failed load's
//! pages in search, the graphs, PageRank and the tag store. Faults are
//! injected at the `query_apply` and `query_rebuild` chaos sites.
//!
//! One test function: the chaos plan and the metrics registry are
//! process-global.

use sensormeta_obs as obs;
use sensormeta_query::QueryEngine;
use sensormeta_resil::chaos::{self, Fault, FaultKind};
use sensormeta_server::{parse_query, App, AppConfig, Request};
use sensormeta_smr::{PageDraft, Smr};
use sensormeta_tagging::TagStore;
use sensormeta_workload::{generate_corpus, CorpusConfig};
use std::collections::BTreeMap;

fn app() -> App {
    let cfg = CorpusConfig {
        deployments_per_site: 2,
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

fn bulkload(app: &App, drafts: &[PageDraft]) -> u16 {
    let body = drafts
        .iter()
        .map(|d| serde_json::to_string(d).expect("draft serializes") + "\n")
        .collect::<String>();
    let req = Request {
        method: "POST".into(),
        path: "/bulkload".into(),
        query: parse_query(""),
        headers: BTreeMap::new(),
        body: body.into_bytes(),
    };
    app.handle(&req).status
}

/// Two existing pages retagged and one new tagged page, named by `round`.
fn load(app: &App, round: &str) -> Vec<PageDraft> {
    let titles = app.engine_snapshot().smr().page_titles().expect("titles");
    let mut drafts: Vec<PageDraft> = [3, 11]
        .into_iter()
        .map(|i| {
            PageDraft::new(titles[i].clone(), "Deployment")
                .body(format!("rewritten in {round}"))
                .link(titles[0].clone())
                .tag(format!("{round}_tag"))
        })
        .collect();
    drafts.push(
        PageDraft::new(format!("Deployment:{round}_new"), "Deployment")
            .body(format!("created in {round}"))
            .link(titles[1].clone())
            .tag(format!("{round}_new_tag")),
    );
    drafts
}

/// The published engine derives what a fresh rebuild of its repository
/// derives, and the live tag store equals `oracle` after the whole
/// repository's tags are merged into it.
fn assert_current(app: &App, oracle: &mut TagStore, after: &str) {
    let live = app.engine_snapshot();
    let fresh = QueryEngine::open(live.smr().clone_reader()).expect("rebuild");
    assert_eq!(
        live.derived_differences(&fresh),
        Vec::<&str>::new(),
        "derived structures differ from a rebuild after {after}"
    );
    let pairs = live.smr().all_tags().expect("all tags");
    oracle.ingest(pairs.iter().map(|(p, t)| (p.as_str(), t.as_str())));
    assert!(
        *app.tags_snapshot() == *oracle,
        "live tag store differs from the whole-repository merge after {after}"
    );
}

#[test]
fn a_failed_refresh_leaves_nothing_stale() {
    chaos::clear();
    let app = app();
    let mut oracle = TagStore::new();
    assert_current(&app, &mut oracle, "start-up");

    // A failing patch falls back to a rebuild: the load is served.
    let fallbacks = obs::counter("query_apply_fallbacks_total").get();
    chaos::install("query_apply", Fault::always(FaultKind::Error));
    let status = bulkload(&app, &load(&app, "first"));
    chaos::clear();
    assert_eq!(status, 200, "a failed apply falls back to a rebuild");
    assert_eq!(
        obs::counter("query_apply_fallbacks_total").get(),
        fallbacks + 1
    );
    assert_current(&app, &mut oracle, "the fallback load");

    // Patch and rebuild both fail: the load is committed but not derived
    // or published, and the client sees a 500.
    let seq = app.engine_seq();
    let failed = load(&app, "second");
    chaos::install("query_apply", Fault::always(FaultKind::Error));
    chaos::install("query_rebuild", Fault::always(FaultKind::Error));
    let status = bulkload(&app, &failed);
    chaos::clear();
    assert_eq!(status, 500);
    assert_eq!(app.engine_seq(), seq, "a failed refresh publishes nothing");

    // The next load, small enough to patch, rebuilds instead, so the
    // second load's pages and tags are derived after all.
    let status = bulkload(&app, &load(&app, "third"));
    assert_eq!(status, 200);
    let live = app.engine_snapshot();
    assert!(live.dense_id("Deployment:second_new").is_some());
    assert_eq!(
        app.tags_snapshot().pages_of("second_new_tag"),
        ["Deployment:second_new"]
    );
    drop(live);
    assert_current(&app, &mut oracle, "the load after a failed refresh");
}
