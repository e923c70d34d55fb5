//! Serving-topology tests: sharded scatter-gather behind `/search`,
//! `/cluster` introspection and the cluster metrics exported through
//! `/metrics`.

use sensormeta_cluster::Topology;
use sensormeta_query::QueryEngine;
use sensormeta_server::{parse_query, App, AppConfig, Request, Response};
use sensormeta_smr::{PageDraft, Smr};
use sensormeta_workload::{generate_corpus, CorpusConfig};
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

fn get(app: &App, target: &str) -> Response {
    app.handle(&req("GET", target))
}

fn corpus_engine(scale: usize, seed: u64) -> QueryEngine {
    let pages = generate_corpus(&CorpusConfig {
        institutions: scale,
        seed,
        ..CorpusConfig::default()
    });
    let mut smr = Smr::new();
    let report = smr.bulk_load(pages.into_iter().map(PageDraft::from));
    assert!(report.errors.is_empty(), "{:?}", report.errors);
    QueryEngine::open(smr).expect("engine build")
}

fn config_with(topology: Topology) -> AppConfig {
    AppConfig {
        topology,
        ..AppConfig::default()
    }
}

fn body_str(resp: &Response) -> &str {
    std::str::from_utf8(&resp.body).expect("utf8 body")
}

/// `/search` through a 4-shard app returns byte-identical JSON to the
/// unsharded app over the same corpus.
#[test]
fn sharded_search_matches_unsharded() {
    let engine = corpus_engine(4, 2011);
    let single = App::with_config(engine.clone_reader(), config_with(Topology::default()));
    let sharded = App::with_config(engine, config_with(Topology { shards: 4 }));
    for target in [
        "/search?q=temperature+sensor",
        "/search?q=wind&attribute=hasVendor&op=eq&value=Vaisala",
        "/search?attribute=hasElevation&op=gt&value=1500",
        "/search?q=snow&namespace=Deployment&limit=5",
    ] {
        let a = get(&single, target);
        let b = get(&sharded, target);
        assert_eq!(a.status, 200, "{target}: {}", body_str(&a));
        assert_eq!(b.status, 200, "{target}: {}", body_str(&b));
        assert_eq!(body_str(&a), body_str(&b), "{target} diverged");
        assert!(
            b.headers
                .iter()
                .any(|(k, v)| k == "X-Cluster-Shards" && v == "4"),
            "missing shard header on {target}"
        );
    }
    // Empty form is still a client error on the scattered path.
    assert_eq!(get(&sharded, "/search").status, 400);
}

/// A commit through the sharded app republises the shard set: the next
/// scattered read sees the new page.
#[test]
fn sharded_app_serves_committed_writes() {
    let engine = corpus_engine(2, 7);
    let app = App::with_config(engine, config_with(Topology { shards: 2 }));
    app.commit_engine(|e| {
        e.smr_mut()
            .create_page(
                PageDraft::new("Deployment:freshly_committed", "Deployment")
                    .body("zumsteinspitze borehole thermistor string"),
            )
            .expect("create page");
        e.rebuild().expect("rebuild");
        Ok::<(), std::convert::Infallible>(())
    })
    .expect("commit");
    let resp = get(&app, "/search?q=zumsteinspitze+borehole");
    assert_eq!(resp.status, 200);
    assert!(
        body_str(&resp).contains("Deployment:freshly_committed"),
        "scattered read missed the committed page: {}",
        body_str(&resp)
    );
}

/// `/cluster` reports the configured shard count, and a sharded app
/// exports its fan-out counters through `/metrics`.
#[test]
fn cluster_metrics_and_status_are_exported() {
    let single = App::with_config(corpus_engine(1, 3), config_with(Topology::default()));
    let status = get(&single, "/cluster");
    assert_eq!(status.status, 200);
    assert_eq!(body_str(&status), r#"{"shards":1}"#);

    // Fan-out counters appear once a sharded app has served a scatter.
    let sharded = App::with_config(corpus_engine(1, 5), config_with(Topology { shards: 2 }));
    let status = get(&sharded, "/cluster");
    assert_eq!(status.status, 200);
    let json: serde_json::Value = serde_json::from_str(body_str(&status)).expect("json");
    assert_eq!(json["shards"], 2);
    assert_eq!(get(&sharded, "/search?q=sensor").status, 200);
    let metrics = get(&sharded, "/metrics");
    let body = body_str(&metrics);
    assert!(
        body.contains("cluster_shard_fanout_total"),
        "missing fan-out counter"
    );
    assert!(
        body.contains("cluster_searches_total"),
        "missing search counter"
    );
}
