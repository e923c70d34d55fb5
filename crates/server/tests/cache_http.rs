//! HTTP surface of the shared result cache: `Cache-Status` headers on
//! search and tag-cloud routes, `?cache=bypass`, and `POST
//! /admin/cache/clear` dropping every namespace.
//!
//! Everything lives in ONE test function because its phases build on one
//! app's cache state in order: warm, cleared, re-tagged, tagged and loaded
//! with no tag change, circuit open.

use sensormeta_query::QueryEngine;
use sensormeta_server::{parse_query, App, Request, Response};
use sensormeta_smr::{PageDraft, Smr};
use std::collections::BTreeMap;

fn req(method: &str, target: &str) -> Request {
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, parse_query(q)),
        None => (target, BTreeMap::new()),
    };
    Request {
        method: method.into(),
        path: path.into(),
        query,
        headers: BTreeMap::new(),
        body: Vec::new(),
    }
}

fn header<'a>(resp: &'a Response, name: &str) -> Option<&'a str> {
    resp.headers
        .iter()
        .find(|(n, _)| n.eq_ignore_ascii_case(name))
        .map(|(_, v)| v.as_str())
}

fn cache_status(app: &App, target: &str) -> String {
    let resp = app.handle(&req("GET", target));
    assert_eq!(resp.status, 200, "GET {target}");
    header(&resp, "Cache-Status")
        .unwrap_or_else(|| panic!("GET {target}: no Cache-Status header"))
        .to_owned()
}

fn seeded_app() -> App {
    let mut smr = Smr::new();
    smr.create_page(
        PageDraft::new("Fieldsite:Weissfluhjoch", "Fieldsite")
            .body("alpine snow research site")
            .tag("snow"),
    )
    .unwrap();
    smr.create_page(
        PageDraft::new("Deployment:wfj_temp", "Deployment")
            .body("temperature sensor at weissfluhjoch")
            .annotate("measuresQuantity", "temperature")
            .link("Fieldsite:Weissfluhjoch")
            .tag("snow"),
    )
    .unwrap();
    App::new(QueryEngine::open(smr).unwrap())
}

#[test]
fn cache_status_headers_and_admin_clear() {
    let app = seeded_app();

    // Search: cold is a miss, identical repeat a hit, bypass never caches.
    assert_eq!(cache_status(&app, "/search?q=temperature"), "miss");
    assert_eq!(cache_status(&app, "/search?q=temperature"), "hit");
    assert_eq!(
        cache_status(&app, "/search?q=temperature&format=html"),
        "hit"
    );
    assert_eq!(
        cache_status(&app, "/search?q=temperature&cache=bypass"),
        "bypass"
    );
    assert_eq!(
        cache_status(&app, "/search?q=temperature"),
        "hit",
        "a bypassed request must not evict the cached result"
    );
    // A different form is a different key.
    assert_eq!(cache_status(&app, "/search?q=snow"), "miss");

    // Tag cloud: SVG and JSON share one cloud namespace.
    assert_eq!(cache_status(&app, "/tags"), "miss");
    assert_eq!(cache_status(&app, "/tags"), "hit");
    assert_eq!(cache_status(&app, "/tags.json"), "hit");

    // An empty form is a client error, never cached (no Cache-Status).
    let resp = app.handle(&req("GET", "/search"));
    assert_eq!(resp.status, 400);
    assert!(header(&resp, "Cache-Status").is_none());

    // Admin clear drops every namespace: both paths go cold again.
    let resp = app.handle(&req("POST", "/admin/cache/clear"));
    assert_eq!(resp.status, 200);
    let body: serde_json::Value =
        serde_json::from_str(std::str::from_utf8(&resp.body).expect("utf-8 body"))
            .expect("clear responds with JSON");
    assert_eq!(body["cleared"], serde_json::Value::Bool(true));
    assert_eq!(cache_status(&app, "/search?q=temperature"), "miss");
    assert_eq!(cache_status(&app, "/tags"), "miss");
    assert_eq!(cache_status(&app, "/search?q=temperature"), "hit");

    // Tagging a page commits a new tag version: clouds recompute
    // (`stale` without a `Warning`: the superseded cloud was found under
    // the same key and replaced, as for a search after a commit), but query
    // results (which don't depend on the live tag store) stay warm.
    let resp = app.handle(&req("POST", "/tag?page=Fieldsite:Weissfluhjoch&tag=alpine"));
    assert_eq!(resp.status, 200);
    let recomputed = app.handle(&req("GET", "/tags"));
    assert_eq!(header(&recomputed, "Cache-Status"), Some("stale"));
    assert!(
        header(&recomputed, "Warning").is_none(),
        "a fresh recompute"
    );
    assert_eq!(cache_status(&app, "/tags"), "hit");
    assert_eq!(cache_status(&app, "/search?q=temperature"), "hit");

    // A tag the page already has, or a blank one, changes nothing: no tag
    // version is published and the cached cloud stays current.
    for target in [
        "/tag?page=Fieldsite:Weissfluhjoch&tag=alpine",
        "/tag?page=Fieldsite:Weissfluhjoch&tag=%20",
    ] {
        let resp = app.handle(&req("POST", target));
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body, br#"{"added":false}"#, "POST {target}");
        assert_eq!(cache_status(&app, "/tags"), "hit", "after POST {target}");
    }
    // Likewise a load whose pages bring no new tag pair: the engine commits
    // (searches recompute), the tag store does not.
    let untagged = PageDraft::new("Deployment:wfj_wind", "Deployment").body("wind sensor");
    let mut load = req("POST", "/bulkload");
    load.body = serde_json::to_string(&untagged)
        .expect("draft json")
        .into_bytes();
    assert_eq!(app.handle(&load).status, 200);
    assert_eq!(cache_status(&app, "/search?q=temperature"), "stale");
    assert_eq!(cache_status(&app, "/tags"), "hit", "after an untagged load");

    // GET on the admin route stays a 404, POST elsewhere a 405.
    assert_eq!(app.handle(&req("GET", "/admin/cache/clear")).status, 404);

    // Tag-cloud circuit open: no compute, the resident cloud is served
    // labelled; with the namespace emptied there is nothing to degrade to.
    for _ in 0..sensormeta_resil::BreakerConfig::default().failure_threshold {
        app.cloud_breaker().record_failure();
    }
    let degraded = app.handle(&req("GET", "/tags.json"));
    assert_eq!(degraded.status, 200);
    assert_eq!(header(&degraded, "Cache-Status"), Some("stale"));
    assert!(header(&degraded, "Warning").is_some_and(|w| w.starts_with("110")));
    assert!(String::from_utf8_lossy(&degraded.body).contains("alpine"));
    assert_eq!(app.handle(&req("POST", "/admin/cache/clear")).status, 200);
    assert_eq!(app.handle(&req("GET", "/tags.json")).status, 503);
}
