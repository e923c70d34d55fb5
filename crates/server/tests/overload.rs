//! Overload behavior at the socket layer: slow-loris and partial-write
//! clients must not starve healthy clients past their deadline, and
//! admission control must shed with an honest `Retry-After`.
//!
//! One test function: the chaos plan is process-global.

use sensormeta_query::QueryEngine;
use sensormeta_resil::chaos::{self, Fault, FaultKind};
use sensormeta_resil::BreakerConfig;
use sensormeta_server::{parse_query, serve_with, App, AppConfig, Request, ServeConfig};
use sensormeta_smr::{PageDraft, Smr};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::thread;
use std::time::{Duration, Instant};

fn seeded_engine() -> QueryEngine {
    let mut smr = Smr::new();
    smr.create_page(
        PageDraft::new("Deployment:wfj_temp", "Deployment")
            .body("temperature sensor on the snow surface")
            .annotate("measuresQuantity", "temperature"),
    )
    .expect("seed page");
    QueryEngine::open(smr).expect("build engine")
}

fn config() -> AppConfig {
    AppConfig {
        deadline: Some(Duration::from_secs(2)),
        max_inflight: 1,
        breaker: BreakerConfig::default(),
        ..AppConfig::default()
    }
}

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

fn read_status(stream: &mut TcpStream) -> u16 {
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read response");
    let head = String::from_utf8_lossy(&raw);
    head.split_whitespace()
        .nth(1)
        .and_then(|c| c.parse().ok())
        .unwrap_or_else(|| panic!("no status line in {head:?}"))
}

fn get_status(addr: SocketAddr, target: &str) -> u16 {
    let mut s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(20)))
        .expect("read timeout");
    s.write_all(
        format!("GET {target} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n").as_bytes(),
    )
    .expect("send request");
    read_status(&mut s)
}

#[test]
fn stalled_clients_do_not_starve_healthy_ones() {
    chaos::clear();

    // ---- Phase 1: admission shed (in-process, deterministic) --------------
    // One permit; a slow request holds it while a second arrives.
    let app = App::with_config(seeded_engine(), config());
    chaos::install(
        "query_search",
        Fault::always(FaultKind::Latency(Duration::from_millis(500))),
    );
    let shed = thread::scope(|s| {
        let slow = s.spawn(|| app.handle(&req("GET", "/search?q=alpha")));
        thread::sleep(Duration::from_millis(150));
        let shed = app.handle(&req("GET", "/search?q=beta"));
        // Probes stay exempt from admission even at capacity.
        assert_eq!(app.handle(&req("GET", "/healthz")).status, 200);
        assert_eq!(slow.join().expect("slow request").status, 200);
        shed
    });
    chaos::clear();
    assert_eq!(shed.status, 429, "over-capacity requests are shed");
    let retry_after = shed
        .headers
        .iter()
        .find(|(n, _)| n.eq_ignore_ascii_case("Retry-After"))
        .map(|(_, v)| v.as_str())
        .expect("shed replies carry Retry-After");
    let secs: u64 = retry_after.parse().expect("numeric Retry-After");
    assert!((1..=30).contains(&secs), "Retry-After {secs} out of range");
    // The permit was released: the next request is admitted.
    assert_eq!(app.handle(&req("GET", "/search?q=beta")).status, 200);

    // ---- Phase 2: slow-loris over real sockets ----------------------------
    // More stalled connections than worker threads, with a short read
    // deadline: every stalled connection gets a 408 and its thread back,
    // and a healthy client is served well within its own patience.
    let server = serve_with(
        App::with_config(seeded_engine(), config()),
        "127.0.0.1:0",
        ServeConfig {
            workers: 2,
            read_deadline: Some(Duration::from_millis(300)),
            backlog: 0,
        },
    )
    .expect("bind server");
    let addr = server.addr;

    let mut loris = Vec::new();
    for _ in 0..4 {
        let mut s = TcpStream::connect(addr).expect("connect loris");
        s.set_read_timeout(Some(Duration::from_secs(20)))
            .expect("read timeout");
        // A request line fragment, then silence: the server must not wait
        // for the rest beyond its read deadline.
        s.write_all(b"GET /healthz HT").expect("partial write");
        loris.push(s);
    }
    // A partial-write client that does finish (slowly, but within the
    // deadline) must still be served.
    let mut dribble = TcpStream::connect(addr).expect("connect dribble");
    dribble
        .set_read_timeout(Some(Duration::from_secs(20)))
        .expect("read timeout");
    dribble
        .write_all(b"GET /healthz HTTP/1.1\r\n")
        .expect("first chunk");

    let started = Instant::now();
    let healthy = get_status(addr, "/healthz");
    let waited = started.elapsed();
    assert_eq!(healthy, 200, "healthy client served despite stalled peers");
    assert!(
        waited < Duration::from_secs(2),
        "healthy client starved for {waited:?}"
    );

    thread::sleep(Duration::from_millis(100));
    dribble
        .write_all(b"Host: t\r\nConnection: close\r\n\r\n")
        .expect("second chunk");
    assert_eq!(
        read_status(&mut dribble),
        200,
        "slow-but-live client served"
    );

    for mut s in loris {
        assert_eq!(read_status(&mut s), 408, "stalled connections time out");
    }
    assert_eq!(get_status(addr, "/healthz"), 200, "pool intact afterwards");

    // ---- Phase 3: kept-alive connections never pin the pool ---------------
    // The read deadline runs from a request's first byte: a connection idle
    // for longer than the 300 ms deadline is still served, not given a 408.
    let mut idle = Vec::new();
    let mut patient = kept_alive(addr);
    thread::sleep(Duration::from_millis(500));
    assert_eq!(
        exchange(&mut patient),
        (200, true),
        "idle past the read deadline, then served"
    );
    idle.push(patient);
    // Three idle kept-alive connections against two workers, then a fresh
    // client: the third and the fresh one are each served promptly,
    // because an idle connection gives its worker back when a fresh one
    // waits.
    idle.push(kept_alive(addr));
    let started = Instant::now();
    idle.push(kept_alive(addr));
    let fresh = get_status(addr, "/healthz");
    let waited = started.elapsed();
    assert_eq!(fresh, 200);
    assert!(
        waited < Duration::from_secs(1),
        "clients waited {waited:?} behind idle connections"
    );
    drop(idle);
    server.stop();
}

/// Opens a connection and completes one request on it, which the server
/// answers without closing.
fn kept_alive(addr: SocketAddr) -> BufReader<TcpStream> {
    let s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(20)))
        .expect("read timeout");
    let mut conn = BufReader::new(s);
    assert_eq!(exchange(&mut conn), (200, true), "kept alive");
    conn
}

/// Sends `GET /healthz` on an open connection and reads the response,
/// framed by its `Content-Length`; returns the status and whether the
/// server keeps the connection.
fn exchange(conn: &mut BufReader<TcpStream>) -> (u16, bool) {
    conn.get_mut()
        .write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
        .expect("send request");
    let mut head = String::new();
    loop {
        let mut line = String::new();
        conn.read_line(&mut line).expect("read head");
        if line.trim_end().is_empty() {
            break;
        }
        head.push_str(&line);
    }
    let length: usize = head
        .lines()
        .filter_map(|l| l.split_once(':'))
        .find(|(name, _)| name.eq_ignore_ascii_case("content-length"))
        .and_then(|(_, v)| v.trim().parse().ok())
        .unwrap_or_else(|| panic!("no Content-Length in {head:?}"));
    conn.read_exact(&mut vec![0u8; length]).expect("read body");
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|c| c.parse().ok())
        .unwrap_or_else(|| panic!("no status line in {head:?}"));
    (status, !head.contains("Connection: close"))
}
