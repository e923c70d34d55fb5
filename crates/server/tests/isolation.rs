//! Snapshot-isolation tests for the MVCC serving path.
//!
//! Two properties from the transactions design:
//!
//! 1. **Isolation under races** — N readers on the par pool race one writer
//!    committing through [`App::commit_engine`]. Every snapshot a reader
//!    opens must show exactly the state some committed version produced
//!    (checked against a single-threaded oracle applying the same mutation
//!    sequence), and two reads of one snapshot must agree even when commits
//!    land in between (repeatable read). Each reader also issues the same
//!    query through `/search`, whose body must be byte-identical to the
//!    oracle's output at *some* committed state — on the sharded topology
//!    that is the check that coordinator and shard views are pinned as one
//!    version. Run at pool sizes 1 and 4, unsharded and at 2 shards; CI also
//!    re-runs the whole suite under `SENSORMETA_THREADS=1` and `=4`.
//!
//! 2. **Crash mid-commit** — a commit that dies after the WAL made the
//!    mutation durable but before the new version is published must never
//!    be visible to any snapshot of the live process, and a restart must
//!    recover the complete mutation from the log (never a partial one).
//!
//! 3. **No cross-version poisoning** — a search on a snapshot opened before
//!    a commit (what the viz routes run) never leaves a result `/search` on
//!    the committed version would serve.

use sensormeta_cluster::Topology;
use sensormeta_par::Pool;
use sensormeta_query::{QueryEngine, SearchForm, SearchOptions};
use sensormeta_server::{parse_query, App, AppConfig, Request};
use sensormeta_smr::{PageDraft, Smr};
use sensormeta_tx::Snapshot;
use sensormeta_workload::{generate_corpus, CorpusConfig};
use std::sync::Mutex;

/// The marker token every committed mutation plants; no corpus page
/// generated by the workload generator contains it.
const MARKER: &str = "isolmarker";

fn seeded_engine() -> QueryEngine {
    let pages = generate_corpus(&CorpusConfig {
        institutions: 2,
        seed: 7,
        ..CorpusConfig::default()
    });
    let mut smr = Smr::new();
    let report = smr.bulk_load(pages.into_iter().map(PageDraft::from));
    assert!(report.errors.is_empty(), "{:?}", report.errors);
    QueryEngine::open(smr).expect("engine build")
}

/// One committed mutation: adds the `i`-th marker page and rebuilds the
/// derived structures, exactly like the bulkload write path.
fn add_marker_page(primary: &mut QueryEngine, i: usize) -> Result<(), String> {
    let draft = PageDraft::new(format!("Deployment:isol{i}"), "Deployment")
        .body(format!("{MARKER} deployment number {i}"))
        .tag("isol");
    let report = primary.smr_mut().bulk_load([draft]);
    if !report.errors.is_empty() {
        return Err(format!("{:?}", report.errors));
    }
    primary.rebuild().map_err(|e| e.to_string())
}

/// Marker-page count visible to one snapshot, through the cache path
/// validated against the snapshot's generation — the path `/search` uses.
fn marker_count(snap: &Snapshot<QueryEngine>) -> usize {
    let form = SearchForm::keywords(MARKER);
    let (out, _) = snap
        .search_shared(&form, &SearchOptions::default())
        .expect("cached search");
    out.total_matched
}

/// Uncached marker count — used by the oracle so its answers cannot be
/// confused by cache state.
fn marker_count_fresh(engine: &QueryEngine) -> usize {
    let form = SearchForm::keywords(MARKER);
    let opts = SearchOptions {
        bypass: true,
        ..SearchOptions::default()
    };
    let (out, _) = engine.search_shared(&form, &opts).expect("bypass search");
    out.total_matched
}

/// The JSON body `/search?q=<MARKER>` must produce over `engine`'s state.
fn marker_body_fresh(engine: &QueryEngine) -> String {
    let out = engine
        .search_uncached(&SearchForm::keywords(MARKER), None)
        .expect("oracle search");
    serde_json::to_string(&out).expect("json")
}

/// `GET /search?q=<MARKER>` through the full request path.
fn marker_body_served(app: &App) -> String {
    let resp = app.handle(&Request {
        method: "GET".into(),
        path: "/search".into(),
        query: parse_query(&format!("q={MARKER}")),
        headers: Default::default(),
        body: Vec::new(),
    });
    let body = String::from_utf8(resp.body).expect("utf8 body");
    assert_eq!(resp.status, 200, "{body}");
    body
}

/// Races `readers` snapshot readers against one committer on `pool` and
/// checks every observation against the single-threaded oracle.
fn race_readers_vs_writer(
    pool: &Pool,
    topology: Topology,
    readers: usize,
    commits: usize,
    rounds: usize,
) {
    let app = App::with_config(
        seeded_engine(),
        AppConfig {
            topology,
            ..AppConfig::default()
        },
    );

    // Single-threaded oracle: the same mutation sequence applied serially.
    // `expected[s]` is the marker count a snapshot at sequence `s` must see,
    // `bodies[s]` the `/search` body that state serves.
    let mut oracle = seeded_engine();
    let mut expected = vec![marker_count_fresh(&oracle)];
    let mut bodies = vec![marker_body_fresh(&oracle)];
    for i in 1..=commits {
        add_marker_page(&mut oracle, i).expect("oracle mutation");
        expected.push(marker_count_fresh(&oracle));
        bodies.push(marker_body_fresh(&oracle));
    }
    assert_eq!(expected[0], 0, "corpus must not contain the marker");
    assert_eq!(expected[commits], commits);

    // (seq, first read, second read, /search body) per reader round.
    let observations: Mutex<Vec<(u64, usize, usize, String)>> = Mutex::new(Vec::new());

    let reader_pass = || {
        for _ in 0..rounds {
            let snap = app.engine_snapshot();
            let seq = snap.seq();
            let first = marker_count(&snap);
            // Give the writer a chance to publish between the two reads;
            // the snapshot must not care.
            std::thread::yield_now();
            let second = marker_count(&snap);
            let served = marker_body_served(&app);
            let mut obs = match observations.lock() {
                Ok(g) => g,
                Err(p) => p.into_inner(),
            };
            obs.push((seq, first, second, served));
        }
    };
    let writer = || {
        for i in 1..=commits {
            app.commit_engine(|primary| add_marker_page(primary, i))
                .expect("commit");
        }
    };

    pool.scope(|s| {
        for _ in 0..readers {
            s.spawn(reader_pass);
        }
        s.spawn(writer);
    });

    // Final state: all commits published, fully visible.
    let last = app.engine_snapshot();
    assert_eq!(last.seq(), commits as u64);
    assert_eq!(marker_count(&last), commits);
    assert_eq!(marker_body_served(&app), bodies[commits]);

    // Every racing observation matches the oracle's state at that sequence,
    // and the two reads of each snapshot agree.
    let observations = match observations.into_inner() {
        Ok(v) => v,
        Err(p) => p.into_inner(),
    };
    assert_eq!(observations.len(), readers * rounds);
    for (seq, first, second, served) in observations {
        assert_eq!(
            first, second,
            "repeatable read broken: snapshot at seq {seq} changed under the reader"
        );
        let want = expected
            .get(seq as usize)
            .copied()
            .unwrap_or_else(|| panic!("snapshot at unpublished seq {seq}"));
        assert_eq!(
            first, want,
            "snapshot at seq {seq} shows a state no committed version produced"
        );
        assert!(
            bodies.contains(&served),
            "/search served a body no committed state produces: {served}"
        );
    }
}

fn topologies() -> [Topology; 2] {
    let sharded = Topology { shards: 2 };
    [Topology::default(), sharded]
}

#[test]
fn snapshot_isolation_single_threaded_pool() {
    for topology in topologies() {
        race_readers_vs_writer(&Pool::new(1), topology, 3, 6, 10);
    }
}

#[test]
fn snapshot_isolation_four_thread_pool() {
    for topology in topologies() {
        race_readers_vs_writer(&Pool::new(4), topology, 3, 6, 30);
    }
}

#[test]
fn viz_search_on_an_old_snapshot_cannot_poison_search() {
    let app = App::new(seeded_engine());
    let form = SearchForm::keywords(MARKER);
    let snap = app.engine_snapshot();
    app.commit_engine(|primary| add_marker_page(primary, 1))
        .expect("commit");
    // The call `/viz/map`, `/viz/bar` and `/viz/pie` make on their snapshot.
    let old = snap.search(&form, None).expect("viz search");
    assert_eq!(old.total_matched, 0, "the snapshot predates the marker");
    let served = marker_body_served(&app);
    assert!(
        served.contains("Deployment:isol1"),
        "/search served the pre-commit result: {served}"
    );
}

#[test]
fn crash_mid_commit_recovers_fully_and_exposes_nothing_partial() {
    let dir = std::env::temp_dir().join("sensormeta_isolation_midcommit");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let path = dir.join("repo.snap");
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(sensormeta_relstore::wal_path_for(&path)).ok();

    // Durable store with one seed page.
    let (mut smr, report) = Smr::open_durable(&path).expect("open durable");
    assert_eq!(report.replayed_ops, 0);
    smr.create_page(PageDraft::new("Fieldsite:base", "Fieldsite").body("base page"))
        .expect("seed page");
    let app = App::new(QueryEngine::open(smr).expect("engine"));
    let pre = app.engine_snapshot();
    let seq_before = app.engine_seq();

    // A commit that crashes after the WAL made the mutation durable but
    // before the committer published the new version.
    let crashed: Result<u64, String> = app.commit_engine(|primary| {
        let report =
            primary
                .smr_mut()
                .bulk_load([PageDraft::new("Deployment:midcommit", "Deployment")
                    .body(format!("{MARKER} midcommit"))]);
        assert!(report.errors.is_empty(), "{:?}", report.errors);
        Err("simulated crash between WAL append and publish".into())
    });
    assert!(crashed.is_err());

    // Neither the pre-crash snapshot nor a fresh one exposes the partial
    // commit: the published version is untouched.
    assert_eq!(app.engine_seq(), seq_before);
    for snap in [pre, app.engine_snapshot()] {
        assert_eq!(
            marker_count(&snap),
            0,
            "partial commit leaked to a snapshot"
        );
        assert!(
            snap.smr()
                .get_page("Deployment:midcommit")
                .expect("lookup")
                .is_none(),
            "partial commit leaked to the snapshot's store"
        );
    }

    // "Crash": the process state dies with the app; only the files survive.
    drop(app);

    // Restart. The WAL replays the full mutation — page, body and all —
    // and the first published version already contains it completely.
    let (recovered, report) = Smr::open_durable(&path).expect("reopen durable");
    assert!(report.replayed_ops > 0, "mutation must replay from the WAL");
    let page = recovered
        .get_page("Deployment:midcommit")
        .expect("lookup")
        .expect("page recovered from WAL");
    assert_eq!(page.body, format!("{MARKER} midcommit"));
    let app = App::new(QueryEngine::open(recovered).expect("engine"));
    assert_eq!(marker_count(&app.engine_snapshot()), 1);

    std::fs::remove_file(&path).ok();
    std::fs::remove_file(sensormeta_relstore::wal_path_for(&path)).ok();
}
