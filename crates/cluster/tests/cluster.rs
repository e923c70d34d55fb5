//! Cluster integration tests: scatter-gather identity, WAL-tail
//! convergence and staleness routing.

use sensormeta_cluster::{Replica, Router, ShardSet};
use sensormeta_query::{CondOp, Condition, QueryEngine, SearchForm};
use sensormeta_smr::{PageDraft, Smr};
use sensormeta_workload::{generate_corpus, CorpusConfig};
use std::path::PathBuf;
use std::sync::Arc;

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

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sensormeta_cluster_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Forms spanning every executor stage: pure keyword, conjunctive keyword,
/// structured-only (Eq → SPARQL, Contains/Gt → SQL), mixed, namespaced,
/// limited, and hard multi-condition forms that take the semi-join
/// pushdown.
fn probe_forms() -> Vec<SearchForm> {
    let mut forms = vec![
        SearchForm::keywords("temperature sensor"),
        SearchForm::keywords("wind alpine station"),
        SearchForm {
            keywords: "snow depth".into(),
            match_all: true,
            ..SearchForm::default()
        },
        SearchForm::default().condition(Condition::new("hasVendor", CondOp::Eq, "Vaisala")),
        SearchForm::default().condition(Condition::new("hasTopic", CondOp::Contains, "hydro")),
        SearchForm::default().condition(Condition::new("hasElevation", CondOp::Gt, "1500")),
        SearchForm::keywords("deployment").condition(Condition::new(
            "hasVendor",
            CondOp::Eq,
            "Campbell",
        )),
        SearchForm {
            keywords: "sensor".into(),
            namespace: Some("Deployment".into()),
            limit: 10,
            ..SearchForm::default()
        },
        // A condition no page satisfies: exercises the global SQL-fallback
        // decision (every shard's SPARQL set is empty).
        SearchForm::keywords("station").condition(Condition::new(
            "hasVendor",
            CondOp::Eq,
            "NoSuchVendor",
        )),
        // Hard mode, two conditions: the first intersection (one vendor's
        // deployments, far below the 128-page cap) is pushed into the
        // second condition's SQL on every shard.
        SearchForm::keywords("sensor")
            .condition(Condition::new("hasVendor", CondOp::Eq, "Vaisala"))
            .condition(Condition::new(
                "hasSamplingIntervalMinutes",
                CondOp::Gt,
                "5",
            )),
        // Empty intersection: the restricted SQL fallback of the second
        // condition finds nothing, so the third is never evaluated.
        SearchForm::default()
            .condition(Condition::new("hasVendor", CondOp::Eq, "Vaisala"))
            .condition(Condition::new("hasUnit", CondOp::Eq, "NoSuchUnit"))
            .condition(Condition::new(
                "hasSamplingIntervalMinutes",
                CondOp::Gt,
                "1",
            )),
    ];
    for f in &mut forms {
        // Recommendation seeds and facets are part of the output; keep the
        // default limit where not explicitly testing truncation.
        f.descending = false;
    }
    forms
}

/// Tentpole acceptance: the scattered result is byte-identical to the
/// single-store result at every tested shard count.
#[test]
fn scatter_gather_matches_single_store_at_1_2_4_shards() {
    let engine = corpus_engine(6, 42);
    for shards in [1usize, 2, 4] {
        let set = ShardSet::build(&engine, shards).expect("build shard set");
        assert_eq!(set.shard_count(), shards);
        let semijoins = sensormeta_obs::counter("query_pushdown_semijoin_total").get();
        for (i, form) in probe_forms().iter().enumerate() {
            let single = engine.search_uncached(form, None).expect("single-store");
            let scattered = set.search(form, None).expect("scatter-gather");
            let a = serde_json::to_string(&single).expect("json");
            let b = serde_json::to_string(&scattered).expect("json");
            assert_eq!(a, b, "form #{i} diverged at {shards} shards");
        }
        // The scattered run takes the pushdown too (the single-store run
        // alone would move the counter by exactly as much again).
        let moved = sensormeta_obs::counter("query_pushdown_semijoin_total").get() - semijoins;
        assert!(
            moved >= 4,
            "{shards} shards: semi-join pushdown ran {moved}×"
        );
    }
}

/// An `eq` whose value names a page: the value is that page's IRI on every
/// shard, as on one store, so the exact-literal SPARQL half finds nothing
/// anywhere and the case-insensitive SQL fallback answers on every shard.
/// Were it an IRI only on the shard holding the page, the literals on the
/// other shards would make SPARQL answer with a subset.
#[test]
fn page_naming_eq_matches_single_store_at_1_2_4_shards() {
    let mut smr = Smr::new();
    let site = PageDraft::new("Site:a", "Site").body("a site");
    let deployments = (0..8).map(|i| {
        let mut d = PageDraft::new(format!("Deployment:d{i}"), "Deployment").body("a deployment");
        d.annotations = vec![("deployedAt".to_owned(), "Site:a".to_owned())];
        d
    });
    let report = smr.bulk_load(std::iter::once(site).chain(deployments));
    assert!(report.errors.is_empty(), "{:?}", report.errors);
    let engine = QueryEngine::open(smr).expect("engine build");
    let form = SearchForm::default().condition(Condition::new("deployedAt", CondOp::Eq, "Site:a"));
    let single = engine.search_uncached(&form, None).expect("single-store");
    let titles: Vec<&str> = single.items.iter().map(|i| i.title.as_str()).collect();
    assert_eq!(titles.len(), 8, "{titles:?}");
    let a = serde_json::to_string(&single).expect("json");
    for shards in [1usize, 2, 4] {
        let set = ShardSet::build(&engine, shards).expect("build shard set");
        let scattered = set.search(&form, None).expect("scatter-gather");
        let b = serde_json::to_string(&scattered).expect("json");
        assert_eq!(a, b, "diverged at {shards} shards");
    }
}

fn durable_primary(dir: &std::path::Path, scale: usize, seed: u64) -> Smr {
    let store = dir.join("store.smr");
    let (mut smr, _) = Smr::open_durable(&store).expect("open durable");
    for p in generate_corpus(&CorpusConfig {
        institutions: scale,
        seed,
        ..CorpusConfig::default()
    }) {
        smr.create_page(p.into()).expect("create page");
    }
    smr
}

fn drain(replica: &Replica) {
    // Poll until two consecutive polls apply nothing (the first may land
    // mid-write; the second confirms quiescence).
    let mut idle = 0;
    for _ in 0..1000 {
        let poll = replica.poll_once().expect("poll");
        if poll.applied == 0 && !poll.resynced && poll.stalled.is_none() {
            idle += 1;
            if idle >= 2 {
                return;
            }
        } else {
            idle = 0;
        }
    }
    panic!("replica never quiesced");
}

/// Satellite 3: a replica tailing a live primary converges — logical dumps
/// are equal at quiesce.
#[test]
fn replica_tails_live_commits_to_convergence() {
    let dir = scratch_dir("tail_converge");
    let store = dir.join("store.smr");
    let mut primary = durable_primary(&dir, 2, 7);

    let replica = Replica::open("r0", &store, Arc::default()).expect("open replica");
    assert_eq!(replica.logical_dump(), primary.database().logical_dump());

    // Live commits after the replica opened.
    for i in 0..20 {
        let d = PageDraft::new(format!("Deployment:live_{i}"), "Deployment")
            .body(format!("live tail test page {i} temperature"));
        primary.create_page(d).expect("create");
        if i % 5 == 0 {
            // Interleave polls with writes so the tail sees the log grow.
            let _ = replica.poll_once().expect("poll");
        }
    }
    drain(&replica);
    assert_eq!(replica.logical_dump(), primary.database().logical_dump());

    // The replica's engine serves the new pages.
    let out = replica
        .snapshot()
        .search_uncached(&SearchForm::keywords("live tail test"), None)
        .expect("replica search");
    assert!(!out.items.is_empty(), "replica engine missing tailed pages");

    let _ = std::fs::remove_dir_all(&dir);
}

/// Satellite 3, hard mode: kill the replica mid-tail, restart it from the
/// same snapshot, and converge — no ops lost or double-applied.
#[test]
fn replica_kill_and_restart_mid_tail_converges() {
    let dir = scratch_dir("tail_restart");
    let store = dir.join("store.smr");
    let mut primary = durable_primary(&dir, 2, 11);

    let replica = Replica::open("r0", &store, Arc::default()).expect("open replica");
    for i in 0..10 {
        let d = PageDraft::new(format!("Deployment:phase1_{i}"), "Deployment")
            .body(format!("phase one page {i}"));
        primary.create_page(d).expect("create");
    }
    let _ = replica.poll_once().expect("poll");
    // Kill mid-stream: drop the replica entirely.
    drop(replica);

    for i in 0..10 {
        let d = PageDraft::new(format!("Deployment:phase2_{i}"), "Deployment")
            .body(format!("phase two page {i}"));
        primary.create_page(d).expect("create");
    }

    // Restart from the same primary path; recovery replays the log, the
    // tail resumes past it.
    let replica = Replica::open("r1", &store, Arc::default()).expect("reopen replica");
    for i in 0..5 {
        let d = PageDraft::new(format!("Deployment:phase3_{i}"), "Deployment")
            .body(format!("phase three page {i}"));
        primary.create_page(d).expect("create");
    }
    drain(&replica);
    assert_eq!(replica.logical_dump(), primary.database().logical_dump());

    let _ = std::fs::remove_dir_all(&dir);
}

/// A primary checkpoint truncates the log; the replica detects the shrink
/// and resyncs from the snapshot.
#[test]
fn replica_survives_primary_checkpoint() {
    let dir = scratch_dir("tail_checkpoint");
    let store = dir.join("store.smr");
    let mut primary = durable_primary(&dir, 1, 13);

    let replica = Replica::open("r0", &store, Arc::default()).expect("open replica");
    drain(&replica);

    primary.checkpoint().expect("checkpoint");
    for i in 0..5 {
        let d = PageDraft::new(format!("Deployment:post_ckpt_{i}"), "Deployment")
            .body(format!("post checkpoint page {i}"));
        primary.create_page(d).expect("create");
    }
    drain(&replica);
    assert_eq!(replica.logical_dump(), primary.database().logical_dump());

    let _ = std::fs::remove_dir_all(&dir);
}

/// The background tail loop converges without explicit polling.
#[test]
fn background_tail_loop_converges() {
    let dir = scratch_dir("tail_thread");
    let store = dir.join("store.smr");
    let mut primary = durable_primary(&dir, 1, 17);

    let replica = Replica::open("r0", &store, Arc::default()).expect("open replica");
    replica.start(std::time::Duration::from_millis(5));
    for i in 0..10 {
        let d = PageDraft::new(format!("Deployment:bg_{i}"), "Deployment")
            .body(format!("background page {i}"));
        primary.create_page(d).expect("create");
    }
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    let target = primary.database().logical_dump();
    loop {
        if replica.logical_dump() == target {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "background tail did not converge"
        );
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    replica.stop();

    let _ = std::fs::remove_dir_all(&dir);
}

/// Router: fresh replicas serve reads; a stale replica under a zero bound
/// falls back to the primary until it catches up. Staleness counts primary
/// commits — one per rebuild of the primary engine — and nothing else.
#[test]
fn router_staleness_bounds_route_reads() {
    let dir = scratch_dir("router");
    let store = dir.join("store.smr");
    let mut primary = QueryEngine::open(durable_primary(&dir, 1, 19)).expect("primary engine");

    let replica =
        Replica::open("r0", &store, Arc::clone(primary.epoch_clock())).expect("open replica");
    drain(&replica);
    assert_eq!(replica.staleness(), 0);

    // Caught up: within any bound.
    let router = Router::new(vec![replica.clone()], 4);
    assert!(router.route_read().is_some(), "fresh replica skipped");

    // Fall behind: eight primary commits while the replica sleeps.
    for i in 0..8 {
        let d = PageDraft::new(format!("Deployment:stale_{i}"), "Deployment")
            .body(format!("staleness page {i}"));
        primary.smr_mut().create_page(d).expect("create");
        primary.rebuild().expect("rebuild");
    }
    assert_eq!(replica.staleness(), 8, "one epoch per primary commit");
    let strict = Router::new(vec![replica.clone()], 0);
    assert!(
        strict.route_read().is_none(),
        "stale replica served under a zero staleness bound"
    );

    // Catching up restores routing.
    drain(&replica);
    assert!(
        strict.route_read().is_some(),
        "caught-up replica still skipped"
    );
    assert_eq!(replica.staleness(), 0);

    // Only its own primary ages a replica: building an unrelated engine in
    // the same process leaves it caught up.
    let _unrelated = corpus_engine(1, 31);
    assert_eq!(replica.staleness(), 0);

    // No replicas: always primary.
    let empty = Router::new(vec![], 4);
    assert!(empty.route_read().is_none());

    let _ = std::fs::remove_dir_all(&dir);
}

/// A sharded set over a replica-fed engine serves the same results as the
/// primary engine: shards and replication compose.
#[test]
fn shards_over_replica_match_primary() {
    let dir = scratch_dir("shard_replica");
    let store = dir.join("store.smr");
    let primary = durable_primary(&dir, 2, 23);
    let primary_engine = QueryEngine::open(primary.clone_reader()).expect("engine");

    let replica = Replica::open("r0", &store, Arc::default()).expect("open replica");
    drain(&replica);
    let set = ShardSet::build(&replica.snapshot(), 2).expect("build");

    let form = SearchForm::keywords("temperature sensor");
    let a = serde_json::to_string(&primary_engine.search_uncached(&form, None).expect("p"))
        .expect("json");
    let b = serde_json::to_string(&set.search(&form, None).expect("s")).expect("json");
    assert_eq!(a, b);

    let _ = std::fs::remove_dir_all(&dir);
}
