//! Full route-surface test: drives `App::handle` directly across every
//! route (including `/metrics` and `/healthz`), asserting status codes and
//! content types, then scrapes `/metrics` and checks that the traffic left
//! nonzero per-route counters and that every instrumented subsystem
//! (server, query, relstore, rank, tagging) shows up in the exposition.

use sensormeta_obs as obs;
use sensormeta_query::QueryEngine;
use sensormeta_server::{parse_query, App, Request, Response};
use sensormeta_smr::{PageDraft, Smr};
use std::collections::BTreeMap;

fn req(method: &str, target: &str, body: &[u8]) -> Request {
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, parse_query(q)),
        None => (target, BTreeMap::new()),
    };
    Request {
        method: method.into(),
        path: path.into(),
        query,
        headers: BTreeMap::new(),
        body: body.to_vec(),
    }
}

fn get(app: &App, target: &str) -> Response {
    app.handle(&req("GET", target, b""))
}

/// A durable repository in a scratch directory, so relstore's WAL and
/// checkpoint instrumentation fires too.
fn durable_app() -> App {
    let dir = std::env::temp_dir().join(format!(
        "sensormeta-http-surface-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let snap = dir.join("repo.snap");
    let (mut smr, _report) = Smr::open_durable(&snap).unwrap();
    smr.create_page(
        PageDraft::new("Fieldsite:Weissfluhjoch", "Fieldsite")
            .body("alpine snow research site")
            .annotate("hasElevation", "2693")
            .annotate("hasLatitude", "46.83")
            .annotate("hasLongitude", "9.81")
            .tag("snow")
            .tag("alpine"),
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
    smr.checkpoint().unwrap();
    App::new(QueryEngine::open(smr).unwrap())
}

#[test]
fn every_route_answers_and_counts() {
    let app = durable_app();

    // (route target, expected status, content-type prefix)
    let surface: &[(&str, u16, &str)] = &[
        ("/", 200, "text/html"),
        ("/search?q=temperature", 200, "application/json"),
        ("/search?q=temperature&format=html", 200, "text/html"),
        ("/autocomplete?prefix=Dep", 200, "application/json"),
        ("/attributes", 200, "application/json"),
        ("/recommend?title=Deployment:wfj_temp", 200, "application/json"),
        ("/tags", 200, "image/svg+xml"),
        ("/tags.json", 200, "application/json"),
        ("/viz/bar?attribute=measuresQuantity", 200, "image/svg+xml"),
        ("/viz/pie?attribute=measuresQuantity", 200, "image/svg+xml"),
        ("/viz/map?q=snow", 200, "image/svg+xml"),
        ("/viz/graph", 200, "image/svg+xml"),
        ("/viz/hypergraph", 200, "image/svg+xml"),
        ("/sql?q=SELECT%20title%20FROM%20pages", 200, "text/plain"),
        (
            "/sparql?q=PREFIX%20prop%3A%20%3Chttp%3A%2F%2Fswiss-experiment.ch%2Fproperty%2F%3E%20SELECT%20%3Ft%20WHERE%20%7B%20%3Fp%20prop%3Atitle%20%3Ft%20%7D",
            200,
            "application/json",
        ),
        ("/export.ttl", 200, "text/turtle"),
        ("/suggest_tags?page=Fieldsite:Weissfluhjoch", 200, "application/json"),
        ("/page/Deployment:wfj_temp", 200, "text/html"),
        ("/healthz", 200, "text/plain"),
        ("/metrics", 200, "text/plain"),
        ("/metrics.json", 200, "application/json"),
        ("/definitely-not-a-route", 404, "text/plain"),
    ];
    for (target, status, ctype) in surface {
        let resp = get(&app, target);
        assert_eq!(resp.status, *status, "GET {target}");
        assert!(
            resp.content_type.starts_with(ctype),
            "GET {target}: content type {} != {ctype}",
            resp.content_type
        );
        assert!(!resp.body.is_empty(), "GET {target}: empty body");
    }

    // POSTs: a JSONL bulk load, a malformed-UTF-8 bulk load (400), a tag.
    let jsonl = br#"{"title":"Deployment:wfj_wind","namespace":"Deployment","body":"wind sensor","annotations":[["measuresQuantity","wind"]],"links":[],"tags":["wind"]}"#;
    let resp = app.handle(&req("POST", "/bulkload", jsonl));
    assert_eq!(
        resp.status,
        200,
        "{:?}",
        String::from_utf8_lossy(&resp.body)
    );
    let resp = app.handle(&req("POST", "/bulkload", &[0xff, 0xfe, b'{']));
    assert_eq!(resp.status, 400, "invalid UTF-8 body must be rejected");
    let resp = app.handle(&req(
        "POST",
        "/tag?page=Deployment:wfj_wind&tag=breeze",
        b"",
    ));
    assert_eq!(resp.status, 200);
    let resp = app.handle(&req("DELETE", "/tags", b""));
    assert_eq!(resp.status, 405);

    // Scrape the exposition and check the traffic is visible.
    let metrics = get(&app, "/metrics");
    let text = String::from_utf8(metrics.body).unwrap();
    for route in [
        "home",
        "search",
        "autocomplete",
        "attributes",
        "recommend",
        "tags",
        "tags_json",
        "viz_bar",
        "viz_pie",
        "viz_map",
        "viz_graph",
        "viz_hypergraph",
        "sql",
        "sparql",
        "export_ttl",
        "suggest_tags",
        "page",
        "healthz",
        "metrics",
        "bulkload",
        "tag",
        "other",
    ] {
        let counter = format!("http_route_{route}_requests_total");
        let line = text
            .lines()
            .find(|l| l.starts_with(&counter) && !l.starts_with('#'))
            .unwrap_or_else(|| panic!("missing {counter} in exposition"));
        let value: f64 = line.split_whitespace().nth(1).unwrap().parse().unwrap();
        assert!(value >= 1.0, "{counter} = {value}");
        assert!(
            text.contains(&format!("http_route_{route}_us_count")),
            "missing latency histogram for {route}"
        );
    }
    assert!(text.contains("http_route_bulkload_status_4xx_total"));
    assert!(text.contains("http_body_utf8_rejected_total"));

    // Every instrumented subsystem surfaces in the same scrape.
    for needle in [
        "http_requests_total",            // server
        "query_searches_total",           // query engine
        "query_search_us_count",          // query span histogram
        "relstore_wal_commits_total",     // relstore WAL
        "relstore_checkpoints_total",     // relstore checkpoint
        "rank_gauss_seidel_solves_total", // rank solver
        "cache_tag_cloud_misses_total",   // tagging cache
    ] {
        assert!(
            needle.len() > 1 && text.contains(needle),
            "missing {needle}"
        );
    }

    // JSON rendering parses and carries the same counters.
    let json_body = get(&app, "/metrics.json");
    let v: serde_json::Value =
        serde_json::from_str(std::str::from_utf8(&json_body.body).unwrap()).unwrap();
    assert!(!v["counters"].is_null());
    let _ = obs::global(); // exposition above came from the same registry
}
