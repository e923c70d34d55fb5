//! A circuit-breaker probe that reports neither a success nor a failure
//! must not wedge the breaker. `/search` with an empty form is the
//! client's error, which the breaker records as neither; once that
//! probe's cooldown has passed, the next real search is computed and
//! answered fresh.

use sensormeta_query::QueryEngine;
use sensormeta_resil::{BreakerConfig, BreakerState};
use sensormeta_server::{parse_query, App, AppConfig, Request, Response};
use sensormeta_smr::{PageDraft, Smr};
use std::collections::BTreeMap;
use std::thread;
use std::time::Duration;

const COOLDOWN: Duration = Duration::from_millis(50);

fn seeded_app() -> App {
    let mut smr = Smr::new();
    smr.create_page(
        PageDraft::new("Deployment:wfj_temp", "Deployment")
            .body("temperature sensor on the snow surface")
            .annotate("measuresQuantity", "temperature"),
    )
    .expect("seed page");
    let cfg = AppConfig {
        breaker: BreakerConfig {
            failure_threshold: 2,
            open_for: COOLDOWN,
        },
        ..AppConfig::default()
    };
    App::with_config(QueryEngine::open(smr).expect("build engine"), cfg)
}

fn get(app: &App, target: &str) -> Response {
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, parse_query(q)),
        None => (target, BTreeMap::new()),
    };
    app.handle(&Request {
        method: "GET".into(),
        path: path.into(),
        query,
        headers: BTreeMap::new(),
        body: Vec::new(),
    })
}

fn header<'a>(resp: &'a Response, name: &str) -> Option<&'a str> {
    resp.headers
        .iter()
        .find(|(n, _)| n.eq_ignore_ascii_case(name))
        .map(|(_, v)| v.as_str())
}

fn past_cooldown() {
    thread::sleep(COOLDOWN + Duration::from_millis(20));
}

#[test]
fn a_probe_without_verdict_does_not_wedge_the_breaker() {
    let app = seeded_app();
    let breaker = app.query_breaker();
    breaker.record_failure();
    breaker.record_failure();
    assert_eq!(breaker.state(), BreakerState::Open);
    assert_eq!(
        get(&app, "/search?q=temperature").status,
        503,
        "an open breaker sheds a key with no stale holdover"
    );

    past_cooldown();
    // The probe: a client error, recorded as neither success nor failure.
    assert_eq!(get(&app, "/search").status, 400);

    past_cooldown();
    let resp = get(&app, "/search?q=temperature");
    assert_eq!(resp.status, 200, "the next call after the lease probes");
    assert_ne!(header(&resp, "Cache-Status"), Some("stale"));
    assert!(header(&resp, "Warning").is_none(), "a fresh answer");
    assert_eq!(breaker.state(), BreakerState::Closed);
}
