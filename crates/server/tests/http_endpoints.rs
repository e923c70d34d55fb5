//! End-to-end HTTP tests: a real server on a real socket, driven by raw
//! TCP clients.

use sensormeta_query::QueryEngine;
use sensormeta_server::http::read_request;
use sensormeta_server::{serve, url_encode, App, Server};
use sensormeta_smr::{PageDraft, Smr};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

fn app() -> App {
    let mut smr = Smr::new();
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
    App::new(QueryEngine::open(smr).unwrap())
}

fn start() -> Server {
    serve(app(), "127.0.0.1:0", 4).unwrap()
}

fn get(server: &Server, path: &str) -> (u16, String) {
    request(server, &format!("GET {path} HTTP/1.1\r\nHost: t\r\n\r\n"))
}

fn request(server: &Server, raw: &str) -> (u16, String) {
    let reply = read_reply(&mut send(server, raw.as_bytes()));
    (reply.status, reply.body)
}

/// Opens a connection, writes `raw` in one write and returns the reader
/// the responses are read from.
fn send(server: &Server, raw: &[u8]) -> BufReader<TcpStream> {
    let mut stream = TcpStream::connect(server.addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .unwrap();
    stream.write_all(raw).unwrap();
    BufReader::new(stream)
}

/// One response as read off the wire.
struct Reply {
    status: u16,
    /// Status line and headers, CRLF-separated.
    head: String,
    body: String,
}

/// Reads one response framed by its `Content-Length`. It never reads to
/// EOF, so a connection the server keeps open does not block it, and the
/// bytes of a following pipelined response stay in `reader`.
fn read_reply(reader: &mut impl BufRead) -> Reply {
    let mut head = String::new();
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        if line.trim_end().is_empty() {
            break;
        }
        head.push_str(&line);
    }
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("no status line in {head:?}"));
    let length: usize = head
        .lines()
        .filter_map(|l| l.split_once(':'))
        .find(|(name, _)| name.eq_ignore_ascii_case("content-length"))
        .and_then(|(_, v)| v.trim().parse().ok())
        .expect("Content-Length");
    let mut body = vec![0u8; length];
    reader.read_exact(&mut body).unwrap();
    Reply {
        status,
        head,
        body: String::from_utf8_lossy(&body).into_owned(),
    }
}

fn closes(reply: &Reply) -> bool {
    reply.head.contains("\r\nConnection: close\r\n")
}

/// The server closed its side: the next read is EOF.
fn at_eof(reader: &mut impl Read) -> bool {
    matches!(reader.read(&mut [0u8; 1]), Ok(0))
}

#[test]
fn home_page_lists_corpus() {
    let server = start();
    let (status, body) = get(&server, "/");
    assert_eq!(status, 200);
    assert!(body.contains("2 metadata pages"));
    assert!(body.contains("<form"));
    server.stop();
}

#[test]
fn search_json_and_html() {
    let server = start();
    let (status, body) = get(&server, "/search?q=temperature");
    assert_eq!(status, 200);
    let v: serde_json::Value = serde_json::from_str(&body).unwrap();
    assert_eq!(v["items"][0]["title"], "Deployment:wfj_temp");
    let (status, html) = get(&server, "/search?q=temperature&format=html");
    assert_eq!(status, 200);
    assert!(html.contains("<table"));
    assert!(html.contains("Deployment:wfj_temp"));
    server.stop();
}

#[test]
fn search_with_condition_and_map() {
    let server = start();
    let (status, body) = get(&server, "/search?attribute=hasElevation&op=gt&value=2000");
    assert_eq!(status, 200);
    let v: serde_json::Value = serde_json::from_str(&body).unwrap();
    assert_eq!(v["items"][0]["title"], "Fieldsite:Weissfluhjoch");
    let (status, svg) = get(&server, "/viz/map?attribute=hasElevation&op=gt&value=2000");
    assert_eq!(status, 200);
    assert!(svg.contains("<svg"));
    assert!(svg.contains("<circle"));
    server.stop();
}

#[test]
fn autocomplete_endpoint() {
    let server = start();
    let (status, body) = get(&server, "/autocomplete?prefix=Field");
    assert_eq!(status, 200);
    let v: serde_json::Value = serde_json::from_str(&body).unwrap();
    assert!(v
        .as_array()
        .unwrap()
        .iter()
        .any(|s| s["suggestion"].as_str().unwrap().contains("fieldsite")));
    server.stop();
}

#[test]
fn page_view_and_missing_page() {
    let server = start();
    let path = format!("/page/{}", url_encode("Fieldsite:Weissfluhjoch"));
    let (status, body) = get(&server, &path);
    assert_eq!(status, 200);
    assert!(body.contains("hasElevation"));
    assert!(body.contains("2693"));
    let (status, _) = get(&server, "/page/Nothing:here");
    assert_eq!(status, 404);
    server.stop();
}

#[test]
fn tag_cloud_svg_and_json() {
    let server = start();
    let (status, svg) = get(&server, "/tags");
    assert_eq!(status, 200);
    assert!(svg.contains("snow"));
    let (status, body) = get(&server, "/tags.json");
    assert_eq!(status, 200);
    let v: serde_json::Value = serde_json::from_str(&body).unwrap();
    let tags: Vec<&str> = v
        .as_array()
        .unwrap()
        .iter()
        .map(|e| e["tag"].as_str().unwrap())
        .collect();
    assert!(tags.contains(&"snow"));
    assert!(tags.contains(&"alpine"));
    server.stop();
}

#[test]
fn bar_and_pie_charts() {
    let server = start();
    for path in [
        "/viz/bar?attribute=measuresQuantity",
        "/viz/pie?attribute=measuresQuantity",
    ] {
        let (status, svg) = get(&server, path);
        assert_eq!(status, 200, "{path}");
        assert!(svg.contains("temperature"), "{path}");
    }
    server.stop();
}

#[test]
fn graph_and_hypergraph() {
    let server = start();
    let (status, svg) = get(&server, "/viz/graph");
    assert_eq!(status, 200);
    assert!(svg.contains("marker-end"), "directed arcs rendered");
    let (status, svg) = get(&server, "/viz/hypergraph");
    assert_eq!(status, 200);
    assert!(svg.contains("Hypergraph around"));
    let (status, _) = get(&server, "/viz/hypergraph?focus=Missing");
    assert_eq!(status, 404);
    server.stop();
}

#[test]
fn bulkload_updates_everything() {
    let server = start();
    let line = serde_json::json!({
        "title": "Deployment:new_wind",
        "namespace": "Deployment",
        "body": "a brand new anemometer",
        "tags": ["wind"],
    })
    .to_string();
    let (status, body) = request(
        &server,
        &format!(
            "POST /bulkload HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{line}",
            line.len()
        ),
    );
    assert_eq!(status, 200);
    let v: serde_json::Value = serde_json::from_str(&body).unwrap();
    assert_eq!(v["created"], 1);
    // Searchable immediately (engine rebuilt).
    let (_, body) = get(&server, "/search?q=anemometer");
    let v: serde_json::Value = serde_json::from_str(&body).unwrap();
    assert_eq!(v["items"][0]["title"], "Deployment:new_wind");
    // Tag store refreshed too.
    let (_, tags) = get(&server, "/tags.json");
    assert!(tags.contains("wind"));
    server.stop();
}

#[test]
fn user_tagging_endpoint() {
    let server = start();
    let (status, body) = request(
        &server,
        "POST /tag?page=Fieldsite:Weissfluhjoch&tag=avalanche HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\n\r\n",
    );
    assert_eq!(status, 200);
    assert!(body.contains("true"));
    let (_, tags) = get(&server, "/tags.json");
    assert!(tags.contains("avalanche"));
    server.stop();
}

#[test]
fn user_tags_survive_a_bulkload() {
    let server = start();
    let (status, _) = request(
        &server,
        "POST /tag?page=Fieldsite:Weissfluhjoch&tag=avalanche HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\n\r\n",
    );
    assert_eq!(status, 200);
    let line = r#"{"title":"Deployment:new_wind","namespace":"Deployment","tags":["wind"]}"#;
    let (status, _) = request(
        &server,
        &format!(
            "POST /bulkload HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{line}",
            line.len()
        ),
    );
    assert_eq!(status, 200);
    let (_, tags) = get(&server, "/tags.json");
    assert!(tags.contains("wind"), "repository tags ingested: {tags}");
    assert!(tags.contains("avalanche"), "user tag kept: {tags}");
    server.stop();
}

#[test]
fn recommend_endpoint_and_errors() {
    let server = start();
    let (status, _) = get(&server, "/recommend?title=Deployment:wfj_temp");
    assert_eq!(status, 200);
    let (status, _) = get(&server, "/recommend");
    assert_eq!(status, 400);
    let (status, _) = get(&server, "/definitely/not/a/route");
    assert_eq!(status, 404);
    let (status, _) = request(&server, "DELETE / HTTP/1.1\r\nHost: t\r\n\r\n");
    assert_eq!(status, 405);
    server.stop();
}

#[test]
fn empty_search_is_bad_request() {
    let server = start();
    let (status, _) = get(&server, "/search");
    assert_eq!(status, 400);
    server.stop();
}

#[test]
fn concurrent_requests() {
    let server = start();
    std::thread::scope(|s| {
        for _ in 0..8 {
            s.spawn(|| assert_eq!(get(&server, "/search?q=temperature").0, 200));
        }
    });
    server.stop();
}

#[test]
fn keep_alive_answers_sequential_and_pipelined_requests_in_order() {
    let server = start();
    let mut conn = send(&server, b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n");
    let first = read_reply(&mut conn);
    assert_eq!(first.status, 200);
    assert!(!closes(&first), "an HTTP/1.1 request keeps the connection");
    // A second request on the same connection.
    conn.get_mut()
        .write_all(b"GET /autocomplete?prefix=Field HTTP/1.1\r\nHost: t\r\n\r\n")
        .unwrap();
    let second = read_reply(&mut conn);
    assert_eq!(second.status, 200);
    assert!(second.body.contains("fieldsite"), "{}", second.body);
    // Two requests in one write: answered in order, the last one closes.
    conn.get_mut()
        .write_all(
            b"GET /search?q=temperature HTTP/1.1\r\nHost: t\r\n\r\n\
              GET /page/Nothing:here HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
        )
        .unwrap();
    let third = read_reply(&mut conn);
    assert_eq!(third.status, 200);
    assert!(third.body.contains("Deployment:wfj_temp"), "{}", third.body);
    assert!(!closes(&third));
    let fourth = read_reply(&mut conn);
    assert_eq!(fourth.status, 404);
    assert!(closes(&fourth));
    assert!(at_eof(&mut conn));
    server.stop();
}

#[test]
fn closing_requests_get_connection_close_then_eof() {
    let server = start();
    for raw in [
        "GET /healthz HTTP/1.0\r\n\r\n",
        "GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
        "GARBAGE\r\n\r\n",
    ] {
        let mut conn = send(&server, raw.as_bytes());
        let reply = read_reply(&mut conn);
        assert!(closes(&reply), "{raw:?} → {:?}", reply.head);
        assert!(at_eof(&mut conn), "{raw:?}: connection left open");
    }
    server.stop();
}

#[test]
fn sql_and_sparql_consoles() {
    let server = start();
    let (status, body) = get(&server, "/sql?q=SELECT+title+FROM+pages+ORDER+BY+title");
    assert_eq!(status, 200);
    assert!(body.contains("Deployment:wfj_temp"));
    // JSON mode.
    let (status, body) = get(&server, "/sql?q=SELECT+COUNT(*)+FROM+pages&format=json");
    assert_eq!(status, 200);
    let v: serde_json::Value = serde_json::from_str(&body).unwrap();
    assert_eq!(v["rows"][0][0], "2");
    // EXPLAIN through the console.
    let (status, body) = get(
        &server,
        "/sql?q=EXPLAIN+SELECT+*+FROM+pages+WHERE+title+%3D+%27x%27",
    );
    assert_eq!(status, 200);
    assert!(body.contains("IndexSeek pages"), "{body}");
    // Writes are rejected.
    let (status, _) = get(&server, "/sql?q=DELETE+FROM+pages");
    assert_eq!(status, 400);
    // SPARQL console.
    let (status, body) = get(
        &server,
        "/sparql?q=PREFIX+prop%3A+%3Chttp%3A%2F%2Fswiss-experiment.ch%2Fproperty%2F%3E+SELECT+%3Ft+WHERE+%7B+%3Fp+prop%3Atitle+%3Ft+%7D",
    );
    assert_eq!(status, 200);
    let v: serde_json::Value = serde_json::from_str(&body).unwrap();
    assert_eq!(v["rows"].as_array().unwrap().len(), 2);
    server.stop();
}

/// `°` is a UTF-8 lead byte (0xC2) followed by a character that is neither
/// a letter nor a digit: the SQL console answers 400 and the app keeps
/// serving.
#[test]
fn sql_console_rejects_a_non_alphanumeric_character() {
    let app = app();
    let handle = |target: &str| {
        let raw = format!("GET {target} HTTP/1.1\r\nHost: t\r\n\r\n");
        app.handle(&read_request(&mut raw.as_bytes()).unwrap())
    };
    let resp = handle("/sql?q=SELECT%20%C2%B0");
    assert_eq!(resp.status, 400, "{}", String::from_utf8_lossy(&resp.body));
    assert_eq!(handle("/healthz").status, 200);
}

#[test]
fn metrics_expose_planner_counters() {
    let server = start();
    // Run one indexed lookup and one trigram-eligible substring query so the
    // planner's chosen-path counters have been bumped.
    let (status, _) = get(
        &server,
        "/sql?q=SELECT+*+FROM+pages+WHERE+title+%3D+%27Fieldsite%3ADavos%27",
    );
    assert_eq!(status, 200);
    let (status, _) = get(
        &server,
        "/sql?q=SELECT+title+FROM+pages+WHERE+title+ILIKE+%27%25davos%25%27",
    );
    assert_eq!(status, 200);
    let (status, body) = get(&server, "/metrics");
    assert_eq!(status, 200);
    assert!(body.contains("sql_plan_index_seek_total"), "{body}");
    assert!(body.contains("sql_plan_trigram_seek_total"), "{body}");
    server.stop();
}

#[test]
fn turtle_export() {
    let server = start();
    let (status, ttl) = get(&server, "/export.ttl");
    assert_eq!(status, 200);
    assert!(ttl.contains("<http://swiss-experiment.ch/page/Fieldsite:Weissfluhjoch>"));
    assert!(ttl.contains("\"2693\""));
    // The export parses back as Turtle.
    let triples = sensormeta_rdf::parse_turtle(&ttl).unwrap();
    assert!(triples.len() > 5);
    server.stop();
}

#[test]
fn tag_suggestions_endpoint() {
    let server = start();
    let (status, body) = get(&server, "/suggest_tags?page=Deployment:wfj_temp");
    assert_eq!(status, 200);
    let v: serde_json::Value = serde_json::from_str(&body).unwrap();
    // wfj_temp has "snow"; the field site has "snow" + "alpine" → alpine is
    // the co-occurring suggestion.
    assert!(
        v.as_array().unwrap().iter().any(|s| s["tag"] == "alpine"),
        "{v}"
    );
    let (status, _) = get(&server, "/suggest_tags");
    assert_eq!(status, 400);
    server.stop();
}

#[test]
fn did_you_mean_in_html() {
    let server = start();
    let (status, html) = get(&server, "/search?q=temperture&format=html");
    assert_eq!(status, 200);
    assert!(html.contains("Did you mean"), "{html}");
    assert!(html.contains("temperature"));
    server.stop();
}

#[test]
fn search_html_highlights_terms() {
    let server = start();
    let (_, html) = get(&server, "/search?q=temperature&format=html");
    assert!(html.contains("<b>temperature</b>"), "{html}");
    server.stop();
}

#[test]
fn survives_malformed_requests() {
    let server = start();
    for raw in [
        "\r\n",                                           // empty request line
        "GARBAGE\r\n\r\n",                                // no target
        "GET\r\n\r\n",                                    // missing path
        "GET /%zz%% HTTP/1.1\r\n\r\n",                    // broken escapes
        "POST / HTTP/1.1\r\nContent-Length: abc\r\n\r\n", // bad length
    ] {
        // Must always answer with *something* HTTP-shaped (4xx), not hang or die.
        let reply = read_reply(&mut send(&server, raw.as_bytes()));
        assert!(
            reply.head.starts_with("HTTP/1.1 4") || reply.head.starts_with("HTTP/1.1 2"),
            "{raw:?} → {:?}",
            reply.head
        );
    }
    // Binary garbage gets a 4xx too (lossy decode in the request line).
    let reply = read_reply(&mut send(
        &server,
        &[0xFFu8, 0xFE, 0x00, 0x01, b'\r', b'\n', b'\r', b'\n'],
    ));
    assert!(
        reply.head.starts_with("HTTP/1.1 4"),
        "binary garbage answered"
    );
    // The server still works afterwards.
    let (status, _) = get(&server, "/");
    assert_eq!(status, 200);
    server.stop();
}

#[test]
fn oversized_body_is_rejected_cleanly() {
    let server = start();
    let raw = format!(
        "POST /bulkload HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
        64 * 1024 * 1024
    );
    let reply = read_reply(&mut send(&server, raw.as_bytes()));
    assert_eq!(reply.status, 413, "{}", reply.head);
    server.stop();
}

#[test]
fn sql_console_injection_is_contained() {
    let server = start();
    // A stacked write smuggled behind a SELECT must fail to parse (the
    // engine only parses ONE statement for query()).
    let q = sensormeta_server::url_encode("SELECT * FROM pages; DELETE FROM pages");
    let (status, _) = get(&server, &format!("/sql?q={q}"));
    assert_eq!(status, 400);
    // The data is intact.
    let (_, body) = get(&server, "/sql?q=SELECT+COUNT(*)+FROM+pages&format=json");
    let v: serde_json::Value = serde_json::from_str(&body).unwrap();
    assert_eq!(v["rows"][0][0], "2");
    server.stop();
}
