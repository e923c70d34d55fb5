//! Seeded end-to-end benchmark suite behind `sensormeta bench`.
//!
//! Each workload is deterministic from the seed, times its iterations into
//! an obs histogram, and reports tail quantiles (p50/p95/p99 straight from
//! the log-linear buckets) as machine-readable JSON — one `BENCH_*.json`
//! per workload, diffable across commits.

use crate::{fig3_problem, FIG3_TOL};
use sensormeta_cache::Status;
use sensormeta_obs as obs;
use sensormeta_par::Pool;
use sensormeta_query::{CondOp, Condition, QueryEngine, SearchForm, SearchOptions};
use sensormeta_rank::{GaussSeidel, PowerIteration, Solver};
use sensormeta_resil as resil;
use sensormeta_search::SearchIndex;
use sensormeta_smr::{PageDraft, Smr};
use sensormeta_tagging::{compute_cloud, similarity_matrix_in, CloudParams, TagStore};
use sensormeta_workload::{generate_corpus, query_workload, CorpusConfig};
use std::time::Instant;

/// Knobs for one suite run.
#[derive(Debug, Clone, Copy)]
pub struct BenchConfig {
    /// Corpus scale (institutions in the generated repository).
    pub scale: usize,
    /// Timed iterations per workload.
    pub iterations: usize,
    /// RNG seed for corpus and query generation.
    pub seed: u64,
}

impl Default for BenchConfig {
    fn default() -> Self {
        BenchConfig {
            scale: 4,
            iterations: 40,
            seed: 2011,
        }
    }
}

/// Summary of one workload: tail quantiles in microseconds plus
/// workload-specific extras (e.g. the observability overhead percentage).
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// Workload name (also the `BENCH_<name>.json` file stem).
    pub name: &'static str,
    /// Number of timed iterations.
    pub iterations: u64,
    /// Median latency (µs).
    pub p50_us: u64,
    /// 95th percentile latency (µs).
    pub p95_us: u64,
    /// 99th percentile latency (µs).
    pub p99_us: u64,
    /// Worst iteration (µs).
    pub max_us: u64,
    /// Mean latency (µs).
    pub mean_us: f64,
    /// Extra (key, value) measurements specific to the workload.
    pub extra: Vec<(&'static str, f64)>,
    /// Extra (key, text) fields — e.g. result hashes from the
    /// serial-vs-parallel workloads.
    pub extra_text: Vec<(&'static str, String)>,
}

impl BenchReport {
    fn from_histogram(name: &'static str, h: &obs::Histogram) -> BenchReport {
        let s = h.snapshot();
        BenchReport {
            name,
            iterations: s.count,
            p50_us: s.p50,
            p95_us: s.p95,
            p99_us: s.p99,
            max_us: s.max,
            mean_us: if s.count == 0 {
                0.0
            } else {
                s.sum as f64 / s.count as f64
            },
            extra: Vec::new(),
            extra_text: Vec::new(),
        }
    }

    /// Machine-readable rendering, one object per file.
    pub fn to_json(&self) -> String {
        use serde_json::Value;
        let mut entries: Vec<(String, Value)> = vec![
            ("name".into(), Value::String(self.name.into())),
            ("iterations".into(), Value::Int(self.iterations as i64)),
            ("p50_us".into(), Value::Int(self.p50_us as i64)),
            ("p95_us".into(), Value::Int(self.p95_us as i64)),
            ("p99_us".into(), Value::Int(self.p99_us as i64)),
            ("max_us".into(), Value::Int(self.max_us as i64)),
            ("mean_us".into(), Value::Float(self.mean_us)),
        ];
        for (k, v) in &self.extra {
            entries.push(((*k).into(), Value::Float(*v)));
        }
        for (k, v) in &self.extra_text {
            entries.push(((*k).into(), Value::String(v.clone())));
        }
        Value::Object(entries).to_string()
    }
}

/// Runs every workload and returns their reports, in a fixed order.
pub fn run_suite(cfg: &BenchConfig) -> Vec<BenchReport> {
    vec![
        bench_search(cfg),
        bench_pagerank(cfg),
        bench_tagcloud(cfg),
        bench_combined_query(cfg),
        bench_obs_overhead(cfg),
        bench_pagerank_par(cfg),
        bench_tagsim_par(cfg),
        bench_indexbuild_par(cfg),
        bench_cache(cfg),
        bench_resil_overhead(cfg),
        bench_planner(cfg),
        // Last on purpose: its writers bump every epoch domain, which would
        // cold-start the cache workloads if it ran before them.
        bench_concurrency(cfg),
        // After concurrency for the same reason: cluster writes churn the
        // clock too.
        bench_cluster(cfg),
    ]
}

/// The seeded repository + query engine every end-to-end workload shares.
fn seeded_engine(cfg: &BenchConfig) -> QueryEngine {
    let pages = generate_corpus(&CorpusConfig {
        institutions: cfg.scale,
        seed: cfg.seed,
        ..CorpusConfig::default()
    });
    let mut smr = Smr::new();
    let report = smr.bulk_load(pages.into_iter().map(|p| {
        let mut d = PageDraft::new(p.title, p.namespace).body(p.body);
        d.annotations = p.annotations;
        d.links = p.links;
        d.tags = p.tags;
        d
    }));
    assert!(report.errors.is_empty(), "{:?}", report.errors);
    QueryEngine::open(smr).expect("engine build") // xlint: allow(no-unwrap)
}

/// Keyword search over the seeded corpus (the demo's hot path).
fn bench_search(cfg: &BenchConfig) -> BenchReport {
    let engine = seeded_engine(cfg);
    let queries = query_workload(cfg.iterations, cfg.seed);
    let h = obs::histogram("bench_search_us");
    for q in &queries {
        let form = SearchForm::keywords(q.clone());
        let t = Instant::now();
        let _ = engine.search(&form, None);
        h.record_duration(t.elapsed());
    }
    BenchReport::from_histogram("search", &h)
}

/// Gauss–Seidel PageRank solve on the Fig. 3 web graph.
fn bench_pagerank(cfg: &BenchConfig) -> BenchReport {
    let problem = fig3_problem(1_000 * cfg.scale.max(1));
    let h = obs::histogram("bench_pagerank_us");
    let iters = cfg.iterations.clamp(1, 10);
    let mut converged = 0u64;
    for _ in 0..iters {
        let t = Instant::now();
        let r = GaussSeidel.solve(&problem, FIG3_TOL, 1_000);
        h.record_duration(t.elapsed());
        converged += u64::from(r.converged);
    }
    let mut report = BenchReport::from_histogram("pagerank", &h);
    report.extra.push(("converged_runs", converged as f64));
    report
}

/// Tag-cloud build: similarity graph + Bron–Kerbosch + font scaling.
fn bench_tagcloud(cfg: &BenchConfig) -> BenchReport {
    let engine = seeded_engine(cfg);
    let mut store = TagStore::new();
    let pairs = engine.smr().all_tags().expect("tags"); // xlint: allow(no-unwrap)
    store.ingest(pairs.iter().map(|(p, t)| (p.as_str(), t.as_str())));
    let h = obs::histogram("bench_tagcloud_us");
    for _ in 0..cfg.iterations {
        let t = Instant::now();
        let cloud = compute_cloud(&store, &CloudParams::default());
        h.record_duration(t.elapsed());
        std::hint::black_box(cloud.entries.len());
    }
    BenchReport::from_histogram("tagcloud", &h)
}

/// The paper's SQL + SPARQL combination: keywords plus an exact (SPARQL)
/// and a substring (SQL) condition in one form.
fn bench_combined_query(cfg: &BenchConfig) -> BenchReport {
    let engine = seeded_engine(cfg);
    let attrs = engine.smr().attributes().expect("attributes"); // xlint: allow(no-unwrap)
    let attr = attrs
        .first()
        .map(|(a, _)| a.clone())
        .unwrap_or_else(|| "measuresQuantity".into());
    let values = engine.smr().attribute_values(&attr).unwrap_or_default();
    let value = values.first().cloned().unwrap_or_default();
    let queries = query_workload(cfg.iterations, cfg.seed + 7);
    let h = obs::histogram("bench_combined_query_us");
    for q in &queries {
        let mut form = SearchForm::keywords(q.clone());
        form.conditions
            .push(Condition::new(&attr, CondOp::Eq, &value));
        form.conditions
            .push(Condition::new(&attr, CondOp::Contains, &value));
        form.soft_conditions = true;
        let t = Instant::now();
        let _ = engine.search(&form, None);
        h.record_duration(t.elapsed());
    }
    BenchReport::from_histogram("combined_query", &h)
}

/// Instrumented search hot path with the global registry enabled vs
/// disabled (no-op mode). The acceptance budget for instrumentation
/// overhead is 5% on this path.
fn bench_obs_overhead(cfg: &BenchConfig) -> BenchReport {
    let engine = seeded_engine(cfg);
    let queries = query_workload(cfg.iterations.max(20), cfg.seed + 13);
    // Recording goes to a private registry so it survives the global
    // registry being switched off mid-measurement.
    let reg = obs::Registry::new();
    let h_on = reg.histogram("on_us");
    let h_off = reg.histogram("off_us");
    let run = |h: &obs::Histogram| {
        for q in &queries {
            let form = SearchForm::keywords(q.clone());
            let t = Instant::now();
            let _ = engine.search(&form, None);
            h.record_duration(t.elapsed());
        }
    };
    run(&reg.histogram("warmup_us"));
    run(&h_on);
    obs::global().set_enabled(false);
    run(&h_off);
    obs::global().set_enabled(true);
    let mut report = BenchReport::from_histogram("obs_overhead", &h_on);
    let on_sum = h_on.sum() as f64;
    let off_sum = h_off.sum().max(1) as f64;
    report
        .extra
        .push(("disabled_p50_us", h_off.quantile(0.5) as f64));
    report
        .extra
        .push(("disabled_mean_us", off_sum / h_off.count().max(1) as f64));
    report
        .extra
        .push(("overhead_pct", (on_sum - off_sum) / off_sum * 100.0));
    report
}

/// The checkpointed search hot path with no ambient deadline vs a far
/// deadline installed: the marginal cost of deadline propagation on the
/// serving path (every checkpoint does an extra `Instant::now()` once a
/// bound is set). The acceptance budget is 5% on this path.
fn bench_resil_overhead(cfg: &BenchConfig) -> BenchReport {
    let engine = seeded_engine(cfg);
    let queries = query_workload(cfg.iterations.max(20), cfg.seed + 31);
    let reg = obs::Registry::new();
    let h_off = reg.histogram("no_deadline_us");
    let h_on = reg.histogram("deadline_us");
    let run = |h: &obs::Histogram| {
        for q in &queries {
            let form = SearchForm::keywords(q.clone());
            let t = Instant::now();
            let _ = engine.search(&form, None);
            h.record_duration(t.elapsed());
        }
    };
    run(&reg.histogram("warmup_us"));
    run(&h_off);
    {
        let _scope = resil::deadline_scope(resil::Deadline::within(
            std::time::Duration::from_secs(3600),
        ));
        run(&h_on);
    }
    let mut report = BenchReport::from_histogram("resil_overhead", &h_on);
    let on_sum = h_on.sum() as f64;
    let off_sum = h_off.sum().max(1) as f64;
    report
        .extra
        .push(("no_deadline_p50_us", h_off.quantile(0.5) as f64));
    report
        .extra
        .push(("no_deadline_mean_us", off_sum / h_off.count().max(1) as f64));
    report
        .extra
        .push(("overhead_pct", (on_sum - off_sum) / off_sum * 100.0));
    report
}

/// Cost-based planner vs forced-naive execution over a 10×-scale corpus:
/// trigram seek vs full scan on substring LIKE/ILIKE predicates, and the
/// reordered probe join vs the written-order nested loop on the
/// pages/annotations join. Planned and naive runs are first checked for
/// result equality, and the chosen-plan counters are asserted so the timed
/// planned runs provably took the indexed paths.
fn bench_planner(cfg: &BenchConfig) -> BenchReport {
    use sensormeta_relstore::PlannerConfig;
    let pages = generate_corpus(&CorpusConfig {
        institutions: cfg.scale.max(1) * 10,
        seed: cfg.seed,
        ..CorpusConfig::default()
    });
    let mut smr = Smr::new();
    let load = smr.bulk_load(pages.into_iter().map(|p| {
        let mut d = PageDraft::new(p.title, p.namespace).body(p.body);
        d.annotations = p.annotations;
        d.links = p.links;
        d.tags = p.tags;
        d
    }));
    assert!(load.errors.is_empty(), "{:?}", load.errors);
    let db = smr.database();
    let naive = PlannerConfig::naive();

    // Deployment titles embed the lowercased site name, the field-site page
    // keeps the original casing — so LIKE and ILIKE match different sets.
    let like_sql = "SELECT title FROM pages WHERE title LIKE '%rietholzbach%'";
    let ilike_sql = "SELECT title FROM pages WHERE title ILIKE '%RIETHOLZBACH%'";
    let join_sql = "SELECT p.title, a.value FROM pages AS p \
                    JOIN annotations AS a ON a.page_id = p.id \
                    WHERE a.attribute = 'hasVendor'";

    let trigram_before = obs::counter("sql_plan_trigram_seek_total").get();
    let probe_before = obs::counter("sql_plan_index_probe_join_total").get();
    let reorder_before = obs::counter("sql_plan_join_reorder_total").get();

    // The planner must be invisible in results before its speed matters.
    for sql in [like_sql, ilike_sql, join_sql] {
        let planned = db.query(sql).expect("planned run"); // xlint: allow(no-unwrap)
        let forced = db.query_with(sql, &naive).expect("naive run"); // xlint: allow(no-unwrap)
        let mut p = planned.rows;
        let mut n = forced.rows;
        p.sort();
        n.sort();
        assert_eq!(p, n, "planner changed results for `{sql}`");
    }

    // Mean µs per query under the given planner configuration.
    let time = |planner: &PlannerConfig, sql: &str, iters: usize| -> f64 {
        let t = Instant::now();
        for _ in 0..iters {
            let out = db.query_with(sql, planner).expect("bench query"); // xlint: allow(no-unwrap)
            std::hint::black_box(out.rows.len());
        }
        t.elapsed().as_secs_f64() * 1e6 / iters.max(1) as f64
    };

    let iters = cfg.iterations.clamp(1, 60);
    // The naive join is quadratic in the corpus, so it gets fewer timed
    // iterations; means stay comparable.
    let naive_iters = iters.clamp(1, 5);

    let h = obs::histogram("bench_planner_us");
    for _ in 0..iters {
        let t = Instant::now();
        let out = db.query(ilike_sql).expect("timed ilike"); // xlint: allow(no-unwrap)
        std::hint::black_box(out.rows.len());
        let out = db.query(join_sql).expect("timed join"); // xlint: allow(no-unwrap)
        std::hint::black_box(out.rows.len());
        h.record_duration(t.elapsed());
    }

    let like_planned = time(&PlannerConfig::default(), like_sql, iters);
    let like_naive = time(&naive, like_sql, iters);
    let ilike_planned = time(&PlannerConfig::default(), ilike_sql, iters);
    let ilike_naive = time(&naive, ilike_sql, iters);
    let join_planned = time(&PlannerConfig::default(), join_sql, iters);
    let join_naive = time(&naive, join_sql, naive_iters);

    // Chosen-plan counters: every default-planner run of the substring
    // queries must have gone through the trigram index, and every planned
    // join through the reordered probe join.
    let trigram_seeks = obs::counter("sql_plan_trigram_seek_total").get() - trigram_before;
    let probe_joins = obs::counter("sql_plan_index_probe_join_total").get() - probe_before;
    let join_reorders = obs::counter("sql_plan_join_reorder_total").get() - reorder_before;
    assert!(trigram_seeks >= 2 * iters as u64, "trigram path not taken");
    assert!(probe_joins >= iters as u64, "probe-join path not taken");
    assert!(join_reorders >= iters as u64, "join not reordered");

    let rows = |sql: &str| db.query(sql).expect("count").rows.len() as f64; // xlint: allow(no-unwrap)
    let mut report = BenchReport::from_histogram("planner", &h);
    report.extra.push(("like_planned_us", like_planned));
    report.extra.push(("like_naive_us", like_naive));
    report
        .extra
        .push(("like_speedup", like_naive / like_planned.max(1e-9)));
    report.extra.push(("ilike_planned_us", ilike_planned));
    report.extra.push(("ilike_naive_us", ilike_naive));
    report
        .extra
        .push(("ilike_speedup", ilike_naive / ilike_planned.max(1e-9)));
    report.extra.push(("join_planned_us", join_planned));
    report.extra.push(("join_naive_us", join_naive));
    report
        .extra
        .push(("join_speedup", join_naive / join_planned.max(1e-9)));
    report.extra.push(("trigram_seeks", trigram_seeks as f64));
    report.extra.push(("probe_joins", probe_joins as f64));
    report.extra.push(("join_reorders", join_reorders as f64));
    report
        .extra
        .push(("pages_rows", rows("SELECT id FROM pages")));
    report
        .extra
        .push(("annotations_rows", rows("SELECT page_id FROM annotations")));
    report
}

/// FNV-1a over a stream of words — the common result hash for the
/// serial-vs-parallel workloads (f64 results are hashed via `to_bits`, so
/// equality means bit-for-bit identical output).
fn fnv64(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100000001b3);
        }
    }
    h
}

/// Times `work` on the one-thread pool (the serial baseline) and on the
/// global pool, asserts the results hash identically, and packages mean
/// timings, speedup, thread count and both hashes into a report. The same
/// chunked code runs in both configurations, so any hash mismatch is a
/// determinism bug, not benchmark noise.
fn bench_serial_vs_parallel(
    name: &'static str,
    iters: usize,
    mut work: impl FnMut(&Pool) -> u64,
) -> BenchReport {
    let serial_pool = Pool::new(1);
    let parallel_pool = Pool::global();
    let h = obs::histogram(match name {
        "pagerank_par" => "bench_pagerank_par_us",
        "tagsim_par" => "bench_tagsim_par_us",
        _ => "bench_indexbuild_par_us",
    });
    let mut serial_total = 0.0f64;
    let mut parallel_total = 0.0f64;
    let mut serial_hash = 0u64;
    let mut parallel_hash = 0u64;
    // Warm both pools (thread spawn, lazy registries) outside the timings.
    let _ = work(&serial_pool);
    let _ = work(parallel_pool);
    for _ in 0..iters {
        let t = Instant::now();
        serial_hash = work(&serial_pool);
        serial_total += t.elapsed().as_secs_f64() * 1e6;

        let t = Instant::now();
        parallel_hash = work(parallel_pool);
        let dt = t.elapsed();
        parallel_total += dt.as_secs_f64() * 1e6;
        h.record_duration(dt);
    }
    assert_eq!(
        serial_hash, parallel_hash,
        "{name}: parallel result diverged from serial"
    );
    let serial_mean = serial_total / iters.max(1) as f64;
    let parallel_mean = parallel_total / iters.max(1) as f64;
    let mut report = BenchReport::from_histogram(name, &h);
    report.extra.push(("serial_mean_us", serial_mean));
    report.extra.push(("parallel_mean_us", parallel_mean));
    report.extra.push((
        "speedup",
        serial_mean / parallel_mean.max(f64::MIN_POSITIVE),
    ));
    report
        .extra
        .push(("threads", parallel_pool.threads() as f64));
    report
        .extra_text
        .push(("serial_hash", format!("{serial_hash:016x}")));
    report
        .extra_text
        .push(("parallel_hash", format!("{parallel_hash:016x}")));
    report
}

/// Power-iteration PageRank on the Fig. 3 graph, serial pool vs global pool.
fn bench_pagerank_par(cfg: &BenchConfig) -> BenchReport {
    let problem = fig3_problem(1_000 * cfg.scale.max(1));
    let iters = cfg.iterations.clamp(1, 10);
    bench_serial_vs_parallel("pagerank_par", iters, |pool| {
        let r = PowerIteration.solve_in(pool, &problem, FIG3_TOL, 1_000);
        fnv64(r.x.iter().map(|v| v.to_bits()))
    })
}

/// Tag-similarity matrix over a seeded synthetic folksonomy, serial pool vs
/// global pool.
fn bench_tagsim_par(cfg: &BenchConfig) -> BenchReport {
    // Seeded LCG folksonomy: ~60·scale tags over ~40·scale pages, with
    // clustered co-occurrence so similarities are non-trivial.
    let tags = 60 * cfg.scale.max(1);
    let pages = 40 * cfg.scale.max(1);
    let mut state = cfg.seed | 1;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as usize
    };
    let sets: Vec<Vec<usize>> = (0..tags)
        .map(|t| {
            let cluster = (t % 6) * pages / 6;
            let mut s: Vec<usize> = (0..(3 + next() % 12))
                .map(|_| (cluster + next() % (pages / 3)) % pages)
                .collect();
            s.sort_unstable();
            s.dedup();
            s
        })
        .collect();
    bench_serial_vs_parallel("tagsim_par", cfg.iterations, |pool| {
        let m = similarity_matrix_in(pool, &sets);
        fnv64(m.as_slice().iter().map(|v| v.to_bits()))
    })
}

/// Inverted-index build over the seeded corpus, serial pool vs global pool.
fn bench_indexbuild_par(cfg: &BenchConfig) -> BenchReport {
    let docs: Vec<(String, String)> = generate_corpus(&CorpusConfig {
        institutions: cfg.scale,
        seed: cfg.seed,
        ..CorpusConfig::default()
    })
    .into_iter()
    .map(|p| {
        let mut text = p.body;
        for (_, v) in &p.annotations {
            text.push(' ');
            text.push_str(v);
        }
        (p.title, text)
    })
    .collect();
    let iters = cfg.iterations.clamp(1, 15);
    bench_serial_vs_parallel("indexbuild_par", iters, |pool| {
        SearchIndex::build_in(pool, &docs).fingerprint()
    })
}

/// Cold-vs-warm cached search through the shared result cache: the same
/// deduplicated query set runs once against freshly cleared caches (every
/// lookup computes) and then twice more (every lookup should hit). The
/// report's quantiles time the warm passes; the extras carry the hit rate
/// and both means so `BENCH_cache.json` is diffable across commits.
fn bench_cache(cfg: &BenchConfig) -> BenchReport {
    let engine = seeded_engine(cfg);
    let mut queries = query_workload(cfg.iterations.max(10), cfg.seed + 23);
    queries.sort_unstable();
    queries.dedup();
    let opts = SearchOptions::default();
    let h = obs::histogram("bench_cache_us");
    engine.clear_caches();
    let mut cold_total_us = 0.0f64;
    for q in &queries {
        let form = SearchForm::keywords(q.clone());
        let t = Instant::now();
        let _ = engine.search_shared(&form, &opts);
        cold_total_us += t.elapsed().as_secs_f64() * 1e6;
    }
    let mut hits = 0u64;
    let mut lookups = 0u64;
    let mut warm_total_us = 0.0f64;
    for _ in 0..2 {
        for q in &queries {
            let form = SearchForm::keywords(q.clone());
            let t = Instant::now();
            let status = match engine.search_shared(&form, &opts) {
                Ok((_, status)) => status,
                Err(_) => Status::Bypass,
            };
            let dt = t.elapsed();
            h.record_duration(dt);
            warm_total_us += dt.as_secs_f64() * 1e6;
            lookups += 1;
            hits += u64::from(status == Status::Hit);
        }
    }
    let cold_mean = cold_total_us / queries.len().max(1) as f64;
    let warm_mean = warm_total_us / lookups.max(1) as f64;
    let mut report = BenchReport::from_histogram("cache", &h);
    report
        .extra
        .push(("cache_hit_rate", hits as f64 / lookups.max(1) as f64));
    report.extra.push(("cold_mean_us", cold_mean));
    report.extra.push(("warm_mean_us", warm_mean));
    report
        .extra
        .push(("warm_speedup", cold_mean / warm_mean.max(f64::MIN_POSITIVE)));
    report
}

/// Mixed reader/writer serving workload: snapshot readers racing an active
/// committer on the MVCC cell.
///
/// Two phases share one seeded engine (and, via `clone_reader`, one set of
/// caches) and one query list:
///
/// 1. `baseline` — snapshot readers only, no writer (steady-state hits);
/// 2. `concurrency` (the main histogram) — the same readers while a writer
///    repeatedly publishes new versions, each commit bumping every epoch
///    domain exactly like a server bulkload.
///
/// Each phase is time-boxed (scaled by `iterations`) rather than
/// read-counted: the cache-hit read path is tens of nanoseconds, so a fixed
/// read budget would drain before the writer task even woke up. Commits are
/// paced evenly across the phase window. Latencies are recorded in
/// **nanoseconds** (the `_ns` extras are the real signal; the `_us` report
/// fields round the hit path down to zero at small scales). The headline
/// acceptance number is `p95_ratio_vs_baseline`: reader p95 under an active
/// writer, relative to the no-writer baseline. Honours `SENSORMETA_THREADS`
/// via the global pool (raw `thread::spawn` is banned outside par/server).
fn bench_concurrency(cfg: &BenchConfig) -> BenchReport {
    use sensormeta_cache::ALL_DOMAINS;
    use sensormeta_tx::Mvcc;
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
    use std::sync::Mutex;
    use std::time::Duration;

    let engine = seeded_engine(cfg);
    let mut queries = query_workload(cfg.iterations.max(8), cfg.seed + 41);
    queries.sort_unstable();
    queries.dedup();

    let pool = Pool::global();
    let readers = pool.threads().saturating_sub(1).max(1);
    let rounds = cfg.iterations.clamp(1, 40);
    let phase_dur = Duration::from_millis((10 * rounds as u64).clamp(30, 400));
    let target_commits = ((rounds / 10).max(2)) as u32;
    let commit_every = phase_dur / (target_commits + 1);

    // The writer's private copy and the MVCC serving cell — `clone_reader`
    // views of one engine, so both phases share caches and corpus.
    let primary = Mutex::new(engine.clone_reader());
    let cell = Mvcc::new(engine);

    // Cross-task progress counters; reset per phase. `start` is the phase
    // clock every task keys its deadline (and the writer its pacing) off.
    let done = AtomicUsize::new(0);
    let reads = AtomicU64::new(0);
    let commits = AtomicU64::new(0);
    let start = Mutex::new(Instant::now());
    let phase_start = || match start.lock() {
        Ok(g) => *g,
        Err(p) => *p.into_inner(),
    };

    let mvcc_pass = |h: &obs::Histogram| {
        let begin = phase_start();
        'outer: loop {
            for q in &queries {
                if begin.elapsed() >= phase_dur {
                    break 'outer;
                }
                let form = SearchForm::keywords(q.clone());
                let t = Instant::now();
                let snap = cell.snapshot();
                let opts = SearchOptions {
                    at: Some(snap.epochs()),
                    ..SearchOptions::default()
                };
                let _ = snap.search_shared(&form, &opts);
                h.record(t.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64);
                reads.fetch_add(1, Ordering::Relaxed);
            }
        }
        done.fetch_add(1, Ordering::Relaxed);
    };

    let mvcc_commit = || {
        let data = match primary.lock() {
            Ok(g) => g.clone_reader(),
            Err(p) => p.into_inner().clone_reader(),
        };
        cell.begin().publish(&ALL_DOMAINS, data);
        commits.fetch_add(1, Ordering::Relaxed);
    };

    let mvcc_writer = || {
        let begin = phase_start();
        let mut next = commit_every;
        while done.load(Ordering::Relaxed) < readers {
            if begin.elapsed() >= next {
                mvcc_commit();
                next += commit_every;
            } else {
                std::thread::yield_now();
            }
        }
        // On a one-thread pool the readers drain before the writer task
        // even starts; land one commit anyway so the phase always
        // exercises the publish path.
        if commits.load(Ordering::Relaxed) == 0 {
            mvcc_commit();
        }
    };

    let run_phase = |pass: &(dyn Fn(&obs::Histogram) + Sync),
                     writer: Option<&(dyn Fn() + Sync)>,
                     h: &obs::Histogram| {
        done.store(0, Ordering::Relaxed);
        reads.store(0, Ordering::Relaxed);
        match start.lock() {
            Ok(mut g) => *g = Instant::now(),
            Err(p) => *p.into_inner() = Instant::now(),
        }
        pool.scope(|s| {
            for _ in 0..readers {
                s.spawn(|| pass(h));
            }
            if let Some(w) = writer {
                s.spawn(w);
            }
        });
    };

    // Untimed warm-up so the baseline measures steady-state hits, not
    // cold computes (the caches are shared, so one pass warms all cells).
    {
        let snap = cell.snapshot();
        let opts = SearchOptions {
            at: Some(snap.epochs()),
            ..SearchOptions::default()
        };
        for q in &queries {
            let form = SearchForm::keywords(q.clone());
            let _ = snap.search_shared(&form, &opts);
        }
    }

    let h_base = obs::histogram("bench_concurrency_baseline_ns");
    let h_mvcc = obs::histogram("bench_concurrency_ns");

    run_phase(&mvcc_pass, None, &h_base);
    let baseline_reads = reads.load(Ordering::Relaxed);
    run_phase(&mvcc_pass, Some(&mvcc_writer), &h_mvcc);
    let mvcc_reads = reads.load(Ordering::Relaxed);
    let mvcc_commits = commits.load(Ordering::Relaxed);

    let base = h_base.snapshot();
    let mvcc = h_mvcc.snapshot();
    // The µs report fields truncate the nanosecond signal (a warm hit is
    // tens of ns); the `_ns` extras carry the real comparison.
    let mut report = BenchReport {
        name: "concurrency",
        iterations: mvcc.count,
        p50_us: mvcc.p50 / 1_000,
        p95_us: mvcc.p95 / 1_000,
        p99_us: mvcc.p99 / 1_000,
        max_us: mvcc.max / 1_000,
        mean_us: if mvcc.count == 0 {
            0.0
        } else {
            mvcc.sum as f64 / mvcc.count as f64 / 1_000.0
        },
        extra: Vec::new(),
        extra_text: Vec::new(),
    };
    let base_p95 = base.p95.max(1) as f64;
    report.extra.push(("baseline_p50_ns", base.p50 as f64));
    report.extra.push(("baseline_p95_ns", base.p95 as f64));
    report.extra.push(("writer_p50_ns", mvcc.p50 as f64));
    report.extra.push(("writer_p95_ns", mvcc.p95 as f64));
    report
        .extra
        .push(("p95_ratio_vs_baseline", mvcc.p95.max(1) as f64 / base_p95));
    report.extra.push(("baseline_reads", baseline_reads as f64));
    report.extra.push(("mvcc_reads", mvcc_reads as f64));
    report.extra.push(("mvcc_commits", mvcc_commits as f64));
    report.extra.push(("readers", readers as f64));
    report.extra.push(("threads", pool.threads() as f64));
    report
}

/// Mixed read/write serving through the cluster's scatter-gather path at
/// 1 vs 4 shards, with a WAL-shipped replica tailing the writes.
///
/// Each phase performs a fixed amount of work — `iterations` scattered
/// searches with a primary commit (and shard republish) interleaved — so
/// the phases are comparable: the extras carry modeled read throughput at
/// each shard count and their ratio (`modelled_scaling_x4`). Per-read latency is
/// the scatter's *critical path* from [`ScatterTrace`]: the slowest task
/// of each scattered stage plus the serial coordinator work — the latency
/// a one-worker-per-shard cluster would see. In-process shards stand in
/// for cluster nodes, so per-task service time is the number that scales
/// with shard count; single-box wall clock flattens whenever the box has
/// fewer idle cores than shards and would make the measurement a property
/// of the host, not of the partitioning. Write cost (commit + full shard
/// republish) churns the shard set between reads but is excluded from the
/// read-latency model. `merge_identical` confirms scattered
/// results stayed byte-identical to the single store at both shard counts,
/// and the replica extras show the tail converged after the write churn.
fn bench_cluster(cfg: &BenchConfig) -> BenchReport {
    use sensormeta_cluster::{Replica, ShardSet};

    let dir = std::env::temp_dir().join(format!(
        "sensormeta_bench_cluster_{}_{}",
        std::process::id(),
        cfg.seed
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("bench scratch dir"); // xlint: allow(no-unwrap)
    let store = dir.join("store.smr");

    // Durable primary (WAL-logged) seeded with the shared corpus, so a
    // replica can ship its log.
    let pages = generate_corpus(&CorpusConfig {
        institutions: cfg.scale,
        seed: cfg.seed,
        ..CorpusConfig::default()
    });
    let (mut primary, _) = Smr::open_durable(&store).expect("durable primary"); // xlint: allow(no-unwrap)
    let report = primary.bulk_load(pages.into_iter().map(|p| {
        let mut d = PageDraft::new(p.title, p.namespace).body(p.body);
        d.annotations = p.annotations;
        d.links = p.links;
        d.tags = p.tags;
        d
    }));
    assert!(report.errors.is_empty(), "{:?}", report.errors);
    let replica = Replica::open("bench", &store).expect("replica open"); // xlint: allow(no-unwrap)

    // Pair up workload queries (2–6 terms each): scattered reads need
    // enough per-read work for the partitioned stages to dominate the
    // serial coordinator tail, mirroring the multi-term forms the search
    // UI produces.
    let singles = query_workload(2 * cfg.iterations.max(4), cfg.seed + 43);
    let queries: Vec<String> = singles.chunks(2).map(|pair| pair.join(" ")).collect();
    let probe = SearchForm::keywords(queries[0].clone());
    let reads_per_phase = cfg.iterations.max(4);
    // At least two commits per phase, at most one write per 8 reads.
    let write_every = (reads_per_phase / 8).clamp(2, 16);
    let h = obs::histogram("bench_cluster_us");
    let mut merge_identical = true;
    let mut throughput = [0.0f64; 2];
    let mut read_secs = [0.0f64; 2];
    let mut writes_total = 0u64;

    for (phase, shards) in [1usize, 4].into_iter().enumerate() {
        let mut engine = QueryEngine::open(primary.clone_reader()).expect("engine build"); // xlint: allow(no-unwrap)
        let set = ShardSet::build(&engine, shards).expect("shard set"); // xlint: allow(no-unwrap)
        let _ = set.search(&probe, None); // warm-up: fault in lazy state untimed
        for (i, q) in queries.iter().cycle().take(reads_per_phase).enumerate() {
            let form = SearchForm::keywords(q.clone());
            let modeled_us = match set.search_traced(&form, None) {
                Ok((_, trace)) => trace.critical_path_us(),
                Err(_) => 0,
            };
            read_secs[phase] += modeled_us as f64 / 1e6;
            if shards == 4 {
                h.record(modeled_us);
            }
            if (i + 1) % write_every == 0 {
                // The write path: commit to the durable primary, rebuild
                // derived structures, re-partition the shard set.
                let draft = PageDraft::new(format!("Deployment:bench_s{shards}_{i}"), "Deployment")
                    .body(format!("cluster bench write {i} at {shards} shards"));
                primary.create_page(draft).expect("bench write"); // xlint: allow(no-unwrap)
                engine = QueryEngine::open(primary.clone_reader()).expect("engine rebuild"); // xlint: allow(no-unwrap)
                set.republish(&engine).expect("republish"); // xlint: allow(no-unwrap)
                writes_total += 1;
            }
        }
        throughput[phase] = reads_per_phase as f64 / read_secs[phase].max(1e-9);

        let single = engine.search_uncached(&probe, None);
        let scattered = set.search(&probe, None);
        let eq = match (&single, &scattered) {
            (Ok(a), Ok(b)) => serde_json::to_string(a).ok() == serde_json::to_string(b).ok(),
            _ => false,
        };
        merge_identical &= eq;
    }

    // Drain the replica: it tails everything both phases committed. Lag is
    // bounded if a handful of polls reaches the primary's log end and the
    // stores converge.
    let mut drain_polls = 0u64;
    let mut idle = 0;
    while idle < 2 && drain_polls < 1000 {
        match replica.poll_once() {
            Ok(p) if p.applied == 0 && !p.resynced && p.stalled.is_none() => idle += 1,
            Ok(_) => idle = 0,
            Err(_) => break,
        }
        drain_polls += 1;
    }
    let converged = replica.logical_dump() == primary.database().logical_dump();

    let mut report = BenchReport::from_histogram("cluster", &h);
    report.extra.push(("reads_per_sec_1shard", throughput[0]));
    report.extra.push(("reads_per_sec_4shard", throughput[1]));
    report.extra.push((
        "modelled_scaling_x4",
        throughput[1] / throughput[0].max(1e-9),
    ));
    report.extra.push(("writes_total", writes_total as f64));
    report
        .extra
        .push(("merge_identical", if merge_identical { 1.0 } else { 0.0 }));
    report
        .extra
        .push(("replica_drain_polls", drain_polls as f64));
    report
        .extra
        .push(("replica_converged", if converged { 1.0 } else { 0.0 }));
    report
        .extra
        .push(("replica_applied_seq", replica.applied_seq() as f64));
    report
        .extra
        .push(("threads", Pool::global().threads() as f64));

    drop(replica);
    let _ = std::fs::remove_dir_all(&dir);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_suite_runs_and_serializes() {
        let cfg = BenchConfig {
            scale: 1,
            iterations: 3,
            seed: 42,
        };
        let reports = run_suite(&cfg);
        assert_eq!(reports.len(), 13);
        for r in &reports {
            assert!(r.iterations > 0, "{} ran", r.name);
            let json = r.to_json();
            let parsed: serde_json::Value = serde_json::from_str(&json).unwrap();
            assert_eq!(parsed["name"], r.name);
            assert_eq!(parsed["p50_us"], r.p50_us as i64);
        }
        assert!(obs::global().is_enabled(), "overhead bench re-enables obs");
        // The serial-vs-parallel workloads carry both timings, the thread
        // count and matching result hashes.
        for name in ["pagerank_par", "tagsim_par", "indexbuild_par"] {
            let r = reports.iter().find(|r| r.name == name).unwrap();
            let keys: Vec<&str> = r.extra.iter().map(|(k, _)| *k).collect();
            assert!(keys.contains(&"serial_mean_us"), "{name}: {keys:?}");
            assert!(keys.contains(&"parallel_mean_us"), "{name}");
            assert!(keys.contains(&"speedup"), "{name}");
            assert!(keys.contains(&"threads"), "{name}");
            let serial = r.extra_text.iter().find(|(k, _)| *k == "serial_hash");
            let parallel = r.extra_text.iter().find(|(k, _)| *k == "parallel_hash");
            assert_eq!(serial.map(|(_, v)| v), parallel.map(|(_, v)| v), "{name}");
        }
        // The cache workload reports its hit rate and cold/warm means.
        let cache = reports.iter().find(|r| r.name == "cache").unwrap();
        let extras: std::collections::BTreeMap<&str, f64> = cache.extra.iter().copied().collect();
        for key in [
            "cache_hit_rate",
            "cold_mean_us",
            "warm_mean_us",
            "warm_speedup",
        ] {
            assert!(extras.contains_key(key), "cache: missing {key}");
        }
        assert!(
            extras["cache_hit_rate"] > 0.99,
            "warm passes over an unchanged corpus must hit: {}",
            extras["cache_hit_rate"]
        );
        // The planner workload carries both timings per shape, the chosen-
        // plan counter deltas, and the indexed paths must actually win.
        let planner = reports.iter().find(|r| r.name == "planner").unwrap();
        let extras: std::collections::BTreeMap<&str, f64> = planner.extra.iter().copied().collect();
        for key in [
            "like_planned_us",
            "like_naive_us",
            "like_speedup",
            "ilike_planned_us",
            "ilike_naive_us",
            "ilike_speedup",
            "join_planned_us",
            "join_naive_us",
            "join_speedup",
            "trigram_seeks",
            "probe_joins",
            "join_reorders",
            "pages_rows",
            "annotations_rows",
        ] {
            assert!(extras.contains_key(key), "planner: missing {key}");
        }
        assert!(extras["trigram_seeks"] >= 1.0, "trigram path never chosen");
        assert!(extras["probe_joins"] >= 1.0, "probe join never chosen");
        assert!(extras["join_reorders"] >= 1.0, "join never reordered");
        assert!(
            extras["ilike_speedup"] > 1.0,
            "trigram seek must beat the full scan: {}",
            extras["ilike_speedup"]
        );
        assert!(
            extras["join_speedup"] > 1.0,
            "planned join order must beat naive: {}",
            extras["join_speedup"]
        );
        // The concurrency workload compares snapshot readers against the
        // no-writer baseline, and always lands at least one MVCC commit.
        let conc = reports.iter().find(|r| r.name == "concurrency").unwrap();
        let extras: std::collections::BTreeMap<&str, f64> = conc.extra.iter().copied().collect();
        for key in [
            "baseline_p95_ns",
            "writer_p95_ns",
            "p95_ratio_vs_baseline",
            "mvcc_commits",
            "readers",
            "threads",
        ] {
            assert!(extras.contains_key(key), "concurrency: missing {key}");
        }
        assert!(extras["mvcc_commits"] >= 1.0, "writer must publish");
        assert!(extras["baseline_p95_ns"] > 0.0, "phases must record reads");
        assert!(extras["readers"] >= 1.0);
        // The cluster workload runs mixed read/write at 1 vs 4 shards with
        // a tailing replica; identity and convergence must hold at any
        // scale (the ≥1.5× scaling gate only applies at CI scale).
        let cluster = reports.iter().find(|r| r.name == "cluster").unwrap();
        let extras: std::collections::BTreeMap<&str, f64> = cluster.extra.iter().copied().collect();
        for key in [
            "reads_per_sec_1shard",
            "reads_per_sec_4shard",
            "modelled_scaling_x4",
            "writes_total",
            "merge_identical",
            "replica_drain_polls",
            "replica_converged",
            "replica_applied_seq",
            "threads",
        ] {
            assert!(extras.contains_key(key), "cluster: missing {key}");
        }
        assert_eq!(extras["merge_identical"], 1.0, "scatter diverged");
        assert_eq!(extras["replica_converged"], 1.0, "replica diverged");
        assert!(extras["writes_total"] >= 1.0, "no writes in mixed phase");
    }
}
