//! Chaos harness: drives the real HTTP surface with injected latency,
//! errors and panics at the compute-layer checkpoint sites, asserting the
//! overload-protection invariants:
//!
//! - `/healthz` always answers;
//! - no request outlives its deadline by more than bounded slack;
//! - a request coalesced behind a slow identical one waits until its own
//!   deadline, then answers 504 (never 503);
//! - every stale serve is labeled (`Cache-Status: stale` + `Warning`);
//! - degraded bodies are byte-identical to a previously-correct response
//!   (no corrupt data escapes);
//! - a handler panic costs one 500, never a worker thread;
//! - the circuit breaker opens under persistent failure and recovers.
//!
//! Everything lives in ONE test function: the chaos plan and the breaker
//! metrics are process-global.

use sensormeta_query::QueryEngine;
use sensormeta_resil::chaos::{self, Fault, FaultKind};
use sensormeta_resil::BreakerConfig;
use sensormeta_server::{serve_with, App, AppConfig, ServeConfig};
use sensormeta_smr::{PageDraft, Smr};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::{Duration, Instant};

/// A parsed HTTP response from the wire.
struct Resp {
    status: u16,
    headers: Vec<(String, String)>,
    body: Vec<u8>,
}

impl Resp {
    fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }
}

fn send_raw(addr: SocketAddr, request: &[u8]) -> Resp {
    let mut s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(20)))
        .expect("read timeout");
    s.set_write_timeout(Some(Duration::from_secs(20)))
        .expect("write timeout");
    s.write_all(request).expect("send request");
    let mut raw = Vec::new();
    s.read_to_end(&mut raw).expect("read response");
    parse_response(&raw)
}

fn parse_response(raw: &[u8]) -> Resp {
    let split = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("header/body separator");
    let head = std::str::from_utf8(&raw[..split]).expect("utf-8 head");
    let mut lines = head.split("\r\n");
    let status_line = lines.next().expect("status line");
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|c| c.parse().ok())
        .expect("status code");
    let headers = lines
        .filter_map(|l| l.split_once(':'))
        .map(|(n, v)| (n.trim().to_owned(), v.trim().to_owned()))
        .collect();
    Resp {
        status,
        headers,
        body: raw[split + 4..].to_vec(),
    }
}

fn get(addr: SocketAddr, target: &str) -> Resp {
    send_raw(
        addr,
        format!("GET {target} HTTP/1.1\r\nHost: chaos\r\nConnection: close\r\n\r\n").as_bytes(),
    )
}

fn post(addr: SocketAddr, target: &str, content_type: &str, body: &str) -> Resp {
    send_raw(
        addr,
        format!(
            "POST {target} HTTP/1.1\r\nHost: chaos\r\nContent-Type: {content_type}\r\n\
             Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        )
        .as_bytes(),
    )
}

fn seeded_app() -> App {
    let mut smr = Smr::new();
    smr.create_page(
        PageDraft::new("Fieldsite:Weissfluhjoch", "Fieldsite")
            .body("alpine snow research site")
            .tag("snow"),
    )
    .expect("seed page");
    smr.create_page(
        PageDraft::new("Deployment:wfj_temp", "Deployment")
            .body("temperature sensor at weissfluhjoch")
            .annotate("measuresQuantity", "temperature")
            .link("Fieldsite:Weissfluhjoch")
            .tag("snow"),
    )
    .expect("seed page");
    let cfg = AppConfig {
        deadline: Some(Duration::from_millis(500)),
        breaker: BreakerConfig {
            failure_threshold: 3,
            open_for: Duration::from_millis(600),
        },
        ..AppConfig::default()
    };
    App::with_config(QueryEngine::open(smr).expect("build engine"), cfg)
}

#[test]
#[allow(
    clippy::disallowed_methods,
    reason = "concurrent HTTP clients, one raw thread each"
)]
fn chaos_harness_end_to_end() {
    chaos::clear();
    let server = serve_with(
        seeded_app(),
        "127.0.0.1:0",
        ServeConfig {
            workers: 8,
            read_deadline: Some(Duration::from_secs(2)),
            backlog: 0,
        },
    )
    .expect("bind server");
    let addr = server.addr;

    // ---- Phase 1: baseline ------------------------------------------------
    assert_eq!(get(addr, "/healthz").status, 200);
    let cold = get(addr, "/search?q=temperature");
    assert_eq!(cold.status, 200);
    assert_eq!(cold.header("Cache-Status"), Some("miss"));
    let warm = get(addr, "/search?q=temperature");
    assert_eq!(warm.status, 200);
    assert_eq!(warm.header("Cache-Status"), Some("hit"));
    assert!(
        warm.header("Warning").is_none(),
        "fresh serves carry no Warning"
    );
    let oracle = warm.body.clone();
    assert_eq!(get(addr, "/tags.json").status, 200);

    // ---- Phase 2: deadline propagation ------------------------------------
    // 700 ms of injected backend latency against a 500 ms budget: the
    // checkpoint right after the sleep trips and the request maps to 504.
    chaos::install(
        "query_search",
        Fault::always(FaultKind::Latency(Duration::from_millis(700))),
    );
    let started = Instant::now();
    let slow = get(addr, "/search?q=glacier");
    let elapsed = started.elapsed();
    assert_eq!(slow.status, 504, "deadline exceeded maps to 504");
    assert!(
        elapsed < Duration::from_secs(3),
        "request must not hang past its deadline (took {elapsed:?})"
    );
    // A cached entry answers instantly even while the backend is slow.
    let hit = get(addr, "/search?q=temperature");
    assert_eq!(hit.status, 200);
    assert_eq!(hit.header("Cache-Status"), Some("hit"));
    // Two identical requests: the first leads and sleeps past its budget;
    // the second parks on the leader's flight until its own deadline and
    // answers like any expired request — 504, as no superseded entry
    // exists for the key — never a 503 "already computing".
    let waits = sensormeta_obs::counter("cache_query_results_singleflight_waits_total");
    let waits_before = waits.get();
    let leader = thread::spawn(move || get(addr, "/search?q=coalesced"));
    thread::sleep(Duration::from_millis(100));
    let started = Instant::now();
    let waiter = get(addr, "/search?q=coalesced");
    let waited = started.elapsed();
    assert_eq!(waits.get(), waits_before + 1, "the second request waited");
    assert_ne!(waiter.status, 503, "a coalesced wait never answers busy");
    if waiter.status == 200 {
        assert_eq!(waiter.header("Cache-Status"), Some("stale"));
        assert!(waiter.header("Warning").is_some());
    } else {
        assert_eq!(waiter.status, 504, "the waiter's own deadline expired");
    }
    assert!(
        waited >= Duration::from_millis(350),
        "the wait lasted until the deadline, not a shorter bound ({waited:?})"
    );
    assert!(waited < Duration::from_secs(3), "took {waited:?}");
    assert_eq!(leader.join().expect("leader client").status, 504);
    chaos::clear();
    // A success closes the failure streak before the breaker phases.
    assert_eq!(get(addr, "/search?q=glacier").status, 200);

    // ---- Phase 3: serve-stale degradation ---------------------------------
    // Mutate the corpus (epoch-stales the cached entry), then fail the
    // backend hard: stale-tolerant serving answers from the superseded
    // entry, labeled, byte-identical to the known-good response.
    let report = post(
        addr,
        "/bulkload",
        "application/jsonl",
        r#"{"title":"Deployment:new_temp","namespace":"Deployment","body":"second temperature sensor","annotations":[["measuresQuantity","temperature"]]}"#,
    );
    assert_eq!(report.status, 200);
    chaos::install("query_search", Fault::always(FaultKind::Error));
    let stale = get(addr, "/search?q=temperature");
    assert_eq!(stale.status, 200, "stale serve degrades, not fails");
    assert_eq!(stale.header("Cache-Status"), Some("stale"));
    assert!(
        stale.header("Warning").is_some(),
        "stale serves must carry a Warning header"
    );
    assert_eq!(
        stale.body, oracle,
        "degraded body must be the known-good bytes"
    );
    // A key with no stale holdover fails with a backend-class status.
    assert_eq!(get(addr, "/search?q=neverseen").status, 500);

    // ---- Phase 4: circuit breaker -----------------------------------------
    // Two more degraded serves reach the threshold of 3 consecutive
    // failures; the open breaker stops touching the backend but keeps
    // serving labeled stale answers, and sheds keys with no holdover.
    for _ in 0..2 {
        let r = get(addr, "/search?q=temperature");
        assert_eq!(r.status, 200);
        assert_eq!(r.header("Cache-Status"), Some("stale"));
    }
    let open_stale = get(addr, "/search?q=temperature");
    assert_eq!(open_stale.status, 200, "open breaker still serves stale");
    assert_eq!(open_stale.header("Cache-Status"), Some("stale"));
    assert!(open_stale.header("Warning").is_some());
    let shed = get(addr, "/search?q=neverseen");
    assert_eq!(shed.status, 503, "open breaker sheds keys with no holdover");
    assert!(
        shed.header("Retry-After").is_some(),
        "shed replies say when to retry"
    );
    assert_eq!(get(addr, "/healthz").status, 200);

    // Backend recovers; after the cooldown a probe recomputes the
    // real answer (the retained entry is replaced, labeled `stale` by the
    // cache's recompute semantics, but carries no Warning and fresh bytes).
    chaos::clear();
    thread::sleep(Duration::from_millis(700));
    let recovered = get(addr, "/search?q=temperature");
    assert_eq!(recovered.status, 200);
    assert!(
        recovered.header("Warning").is_none(),
        "fresh recompute, no Warning"
    );
    assert_ne!(recovered.body, oracle, "recompute must see the mutation");
    assert!(
        String::from_utf8_lossy(&recovered.body).contains("new_temp"),
        "fresh body includes the bulk-loaded page"
    );
    assert_eq!(
        get(addr, "/search?q=temperature").header("Cache-Status"),
        Some("hit"),
        "recovery re-warms the cache"
    );

    // ---- Phase 5: panic isolation -----------------------------------------
    chaos::install("query_search", Fault::always(FaultKind::Panic));
    let crashed = get(addr, "/search?q=panicprobe");
    assert_eq!(crashed.status, 500, "a handler panic costs exactly one 500");
    assert_eq!(
        get(addr, "/healthz").status,
        200,
        "healthz survives the panic"
    );
    let metrics = get(addr, "/metrics.json");
    assert_eq!(metrics.status, 200);
    assert!(
        String::from_utf8_lossy(&metrics.body).contains("http_handler_panics_total"),
        "panics are counted"
    );
    chaos::clear();
    assert_eq!(
        get(addr, "/search?q=panicprobe").status,
        200,
        "the worker pool survives panics"
    );

    // ---- Phase 6: concurrent storm ----------------------------------------
    // Mixed latency + error injection under more clients than worker
    // threads. Every request must complete with a well-defined status
    // within bounded time; Warning must imply a stale label; /healthz must
    // stay green throughout.
    chaos::install(
        "query_search",
        Fault {
            kind: FaultKind::Latency(Duration::from_millis(100)),
            every: 3,
            offset: 0,
        },
    );
    chaos::install(
        "query_search",
        Fault {
            kind: FaultKind::Error,
            every: 4,
            offset: 1,
        },
    );
    let clients = 12;
    let per_client = 4;
    let barrier = Arc::new(Barrier::new(clients));
    let mut handles = Vec::new();
    for c in 0..clients {
        let barrier = Arc::clone(&barrier);
        handles.push(thread::spawn(move || {
            barrier.wait();
            let mut out = Vec::new();
            for i in 0..per_client {
                let started = Instant::now();
                let r = get(addr, &format!("/search?q=storm{c}x{i}"));
                let warned = r.header("Warning").is_some();
                let label = r.header("Cache-Status").map(str::to_owned);
                out.push((r.status, warned, label, started.elapsed()));
            }
            out
        }));
    }
    for _ in 0..6 {
        assert_eq!(
            get(addr, "/healthz").status,
            200,
            "healthz green under storm"
        );
        thread::sleep(Duration::from_millis(50));
    }
    let mut statuses = Vec::new();
    for h in handles {
        for (status, warned, label, elapsed) in h.join().expect("client thread") {
            assert!(
                matches!(status, 200 | 500 | 503 | 504),
                "unexpected status {status} under storm"
            );
            assert!(
                elapsed < Duration::from_secs(5),
                "request outlived its deadline bound: {elapsed:?}"
            );
            if warned {
                assert_eq!(
                    label.as_deref(),
                    Some("stale"),
                    "Warning must only accompany labeled stale serves"
                );
            }
            statuses.push(status);
        }
    }
    assert!(statuses.contains(&200), "some storm requests must succeed");
    chaos::clear();

    // ---- Phase 7: calm after the storm ------------------------------------
    let calm = get(addr, "/search?q=temperature");
    assert_eq!(calm.status, 200);
    assert_eq!(get(addr, "/healthz").status, 200);
    server.stop();
}
