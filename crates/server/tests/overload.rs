//! Overload behavior at the socket layer: a full accept backlog must shed
//! at the door with an honest `Retry-After`, and slow-loris and
//! partial-write clients must not starve healthy clients past their
//! deadline.
//!
//! One test function: the chaos plan is process-global.

use sensormeta_query::QueryEngine;
use sensormeta_resil::chaos::{self, Fault, FaultKind};
use sensormeta_server::{serve_with, App, AppConfig, ServeConfig};
use sensormeta_smr::{PageDraft, Smr};
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
        ..AppConfig::default()
    }
}

/// Reads a whole response from a connection the server closes after it.
fn read_response(stream: &mut TcpStream) -> String {
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read response");
    String::from_utf8_lossy(&raw).into_owned()
}

fn status_of(resp: &str) -> u16 {
    resp.split_whitespace()
        .nth(1)
        .and_then(|c| c.parse().ok())
        .unwrap_or_else(|| panic!("no status line in {resp:?}"))
}

fn header<'a>(resp: &'a str, name: &str) -> Option<&'a str> {
    resp.split("\r\n\r\n")
        .next()?
        .lines()
        .filter_map(|l| l.split_once(':'))
        .find(|(n, _)| n.eq_ignore_ascii_case(name))
        .map(|(_, v)| v.trim())
}

fn read_status(stream: &mut TcpStream) -> u16 {
    status_of(&read_response(stream))
}

/// Opens a connection and sends one `GET` that asks the server to close it.
fn send(addr: SocketAddr, target: &str) -> TcpStream {
    let mut s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(20)))
        .expect("read timeout");
    s.write_all(
        format!("GET {target} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n").as_bytes(),
    )
    .expect("send request");
    s
}

fn get_status(addr: SocketAddr, target: &str) -> u16 {
    read_status(&mut send(addr, target))
}

#[test]
fn stalled_clients_do_not_starve_healthy_ones() {
    chaos::clear();

    // ---- Phase 1: shed at the door --------------------------------------
    // One worker and a backlog of one: a slow /search holds the worker, a
    // second connection waits in the backlog, and a third is shed at accept
    // with a closing 503 whose Retry-After follows the observed p95.
    let server = serve_with(
        App::with_config(seeded_engine(), config()),
        "127.0.0.1:0",
        ServeConfig {
            workers: 1,
            read_deadline: Some(Duration::from_secs(2)),
            backlog: 1,
        },
    )
    .expect("bind server");
    let shed_total = sensormeta_obs::counter("http_accept_shed_total");
    let shed_before = shed_total.get();
    chaos::install(
        "query_search",
        Fault::always(FaultKind::Latency(Duration::from_millis(1000))),
    );
    let mut held = send(server.addr, "/search?q=alpha");
    // Long enough for the worker to pick it up and sleep in the fault.
    thread::sleep(Duration::from_millis(200));
    let mut queued = send(server.addr, "/search?q=temperature");
    let shed = read_response(&mut send(server.addr, "/healthz"));
    // The held request is already inside its fault; the queued one runs
    // without it.
    chaos::clear();
    assert_eq!(status_of(&shed), 503, "a full backlog sheds at the door");
    assert_eq!(header(&shed, "Connection"), Some("close"));
    let secs: u64 = header(&shed, "Retry-After")
        .expect("shed replies carry Retry-After")
        .parse()
        .expect("numeric Retry-After");
    assert!((1..=30).contains(&secs), "Retry-After {secs} out of range");
    assert_eq!(shed_total.get(), shed_before + 1, "one connection shed");
    assert_eq!(read_status(&mut held), 200, "the held request completes");
    assert_eq!(read_status(&mut queued), 200, "the queued one is served");
    server.stop();

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
