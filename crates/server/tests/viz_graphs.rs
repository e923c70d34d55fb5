//! `/viz/graph` and `/viz/hypergraph` draw the link graphs the engine kept
//! from its last rebuild. Their SVGs must be byte-identical to renders from
//! `Smr::link_graphs()` on the same snapshot — before and after a
//! `/bulkload` commit, which must swap in the new generation's graphs.

use sensormeta_graph::CsrGraph;
use sensormeta_query::QueryEngine;
use sensormeta_server::{parse_query, App, Request};
use sensormeta_smr::{PageDraft, Smr};
use sensormeta_viz as viz;
use sensormeta_workload::{generate_corpus, CorpusConfig};
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

fn svg(app: &App, target: &str) -> String {
    let resp = app.handle(&req("GET", target, b""));
    assert_eq!(resp.status, 200, "{target}");
    String::from_utf8(resp.body).expect("utf-8 svg")
}

/// `/viz/graph`'s drawing, from graphs handed in: the first `max` pages
/// and the edges among them.
fn graph_svg(g: &CsrGraph, titles: &[String], max: usize) -> String {
    let keep = max.min(titles.len());
    let edges: Vec<(usize, usize)> = g
        .iter_edges()
        .filter(|&(u, v)| u < keep && v < keep)
        .collect();
    let sub = CsrGraph::from_edges(keep, &edges, true);
    let classes = viz::classify_by_neighbors(&sub);
    let nodes: Vec<viz::GraphNode> = (0..keep)
        .map(|i| viz::GraphNode {
            label: titles[i].clone(),
            class: classes[i],
        })
        .collect();
    viz::render_digraph(
        "Metadata associations",
        &sub,
        &nodes,
        viz::GraphLayout::Force,
    )
}

/// `/viz/hypergraph`'s drawing around `focus`.
fn hypergraph_svg(hyperlink: &CsrGraph, titles: &[String], focus: &str, rings: usize) -> String {
    let ix = titles.iter().position(|t| t == focus).expect("focus page");
    viz::render_hypergraph(
        &format!("Hypergraph around {focus}"),
        hyperlink,
        titles,
        ix,
        rings,
    )
}

fn assert_routes_match_repository(app: &App) {
    let engine = app.engine_snapshot();
    let (semantic, hyperlink, titles) = engine.smr().link_graphs().expect("link graphs");
    assert_eq!(svg(app, "/viz/graph"), graph_svg(&hyperlink, &titles, 60));
    assert_eq!(
        svg(app, "/viz/graph?links=semantic&max=40"),
        graph_svg(&semantic, &titles, 40)
    );
    // The default focus is the best-connected page.
    let ind = hyperlink.in_degrees();
    let popular = (0..titles.len())
        .max_by_key(|&v| ind[v] + hyperlink.out_degree(v))
        .expect("pages");
    assert_eq!(
        svg(app, "/viz/hypergraph"),
        hypergraph_svg(&hyperlink, &titles, &titles[popular], 2)
    );
    let focus = &titles[titles.len() / 2];
    assert_eq!(
        svg(app, &format!("/viz/hypergraph?focus={focus}&rings=1")),
        hypergraph_svg(&hyperlink, &titles, focus, 1)
    );
}

#[test]
fn graph_routes_render_the_snapshot_link_graphs() {
    let mut smr = Smr::new();
    let report = smr.bulk_load(
        generate_corpus(&CorpusConfig::default())
            .into_iter()
            .map(PageDraft::from),
    );
    assert!(report.errors.is_empty(), "{:?}", report.errors);
    let app = App::new(QueryEngine::open(smr).expect("engine"));
    assert_routes_match_repository(&app);

    // A commit adding a hub page (sorted first, so drawn) that links to
    // other pages changes both graphs.
    let before = svg(&app, "/viz/graph");
    let titles = app.engine_snapshot().link_graphs().2.to_vec();
    let mut hub = PageDraft::new("Atlas:hub", "Atlas")
        .body("hub")
        .annotate("about", titles[1].clone());
    hub.links = titles[..8].to_vec();
    let line = serde_json::to_string(&hub).expect("draft json");
    let resp = app.handle(&req("POST", "/bulkload", line.as_bytes()));
    assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
    assert_eq!(
        app.engine_snapshot().link_graphs().2.len(),
        titles.len() + 1
    );
    assert_ne!(svg(&app, "/viz/graph"), before);
    assert_routes_match_repository(&app);
}
