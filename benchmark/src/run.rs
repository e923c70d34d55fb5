//! One run of one workload: several rounds of set-up, warm-up, open loop
//! and closed loop, then the correctness checks and (with `--trace 1`) the
//! traced in-process pass.
//!
//! A run is cut into rounds, each against a server set up afresh, because
//! identical work costs a server process on this kind of machine up to a
//! fifth more or less CPU per request than the next one (placement, memory
//! layout, the state of the host). Latencies are pooled over the rounds and
//! rates are the mean of the middle four of them, so a run reports the
//! typical process, not the one it happened to get.

use crate::catalog::{END_TO_END, PER_LAYER};
use crate::http;
use crate::layers;
use crate::loadgen::{self, Outcome, Phase, Sample};
use crate::oracle::Oracle;
use crate::stats::{median, percentile_ms, trimmed_mean};
use crate::target::{self, Env, Target};
use crate::workloads::{self, Plan, Req, RequestList, Route, Workload};
use serde_json::Value;
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Rounds per run, each against a new server process.
pub const ROUNDS: usize = 6;
/// Every n-th `/search` response is checked against the oracle.
const ORACLE_EVERY: usize = 25;
/// On `sharded_cold`, where the check is the point of the workload.
const ORACLE_EVERY_SHARDED: usize = 10;
/// A failed request counts as at least this slow in every percentile.
const FAILED_LATENCY_NS: u64 = 10_000_000_000;
/// Generator lateness (p99) above which a run says nothing about the server.
const MAX_LATENESS_MS: f64 = 5.0;

pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    /// Seconds measured, over all rounds.
    pub seconds: f64,
    /// Full set-ups (a divisor of [`ROUNDS`]); `setup_s` is their median.
    /// The rounds between two set-ups restart the server on the snapshot.
    pub setups: usize,
    /// Run the traced pass over this many requests.
    pub trace: Option<usize>,
    pub env: Env,
}

/// Everything one run measured.
pub struct Report {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub request_hash: u64,
    pub nproc: usize,
    pub attempted: u64,
    pub failed: u64,
    /// Every output checked was correct and no request failed.
    pub correct: bool,
    /// Reasons the run says nothing about the server (generator too late).
    pub invalid: Vec<String>,
    /// The first few correctness failures, for the log.
    pub failures: Vec<String>,
    pub end_to_end: BTreeMap<&'static str, f64>,
    pub per_layer: BTreeMap<&'static str, f64>,
    /// Sample counts behind the percentiles.
    pub counts: BTreeMap<&'static str, usize>,
    pub trace_json: Option<String>,
    /// Traced pass: mean `App::handle` time over the replayed requests.
    pub handle_mean_us: Option<f64>,
}

type Error = Box<dyn std::error::Error>;

struct Scrape(Value);

impl Scrape {
    fn take(addr: SocketAddr) -> Result<Scrape, Error> {
        let reply = http::get(addr, "/metrics.json")?;
        Ok(Scrape(serde_json::from_str(std::str::from_utf8(
            &reply.body,
        )?)?))
    }

    fn counter(&self, name: &str) -> f64 {
        self.0["counters"]
            .get(name)
            .and_then(Value::as_f64)
            .unwrap_or(0.0)
    }

    fn gauge(&self, name: &str) -> f64 {
        self.0["gauges"]
            .get(name)
            .and_then(Value::as_f64)
            .unwrap_or(0.0)
    }
}

/// What one round measured over the wire.
struct Round {
    list: RequestList,
    open: Phase,
    closed: Phase,
    writer: Phase,
    /// `/metrics.json` before and after the open loop.
    before: Scrape,
    after: Scrape,
    /// Server CPU time over the open loop.
    open_cpu_ns: u64,
    rss_mb: f64,
}

impl Round {
    fn samples(&self) -> impl Iterator<Item = &Sample> {
        self.open
            .samples
            .iter()
            .chain(&self.closed.samples)
            .chain(&self.writer.samples)
    }

    /// Writer operations that fell due during the open loop.
    fn writes_in_open(&self, plan: Plan) -> impl Iterator<Item = &Sample> {
        let open_ns = (plan.open_s * 1e9) as u64;
        self.writer
            .samples
            .iter()
            .filter(move |s| self.list.writer[s.index].due_ns < open_ns)
    }
}

fn latency(s: &Sample) -> u64 {
    match s.outcome {
        Outcome::Ok => s.latency_ns,
        _ => s.latency_ns.max(FAILED_LATENCY_NS),
    }
}

/// Which open-loop requests keep their body for the oracle: every n-th
/// `/search`, none on `ingest_mixed` (its repository changes under the run).
fn oracle_picks(workload: Workload, reqs: &[Req]) -> Vec<bool> {
    let every = match workload {
        Workload::IngestMixed => return vec![false; reqs.len()],
        Workload::ShardedCold => ORACLE_EVERY_SHARDED,
        _ => ORACLE_EVERY,
    };
    let mut searches = 0usize;
    reqs.iter()
        .map(|r| {
            r.route == Route::Search && {
                searches += 1;
                (searches - 1).is_multiple_of(every)
            }
        })
        .collect()
}

/// After `ingest_mixed`: every acknowledged page must be returned by
/// `/page/<title>` and by its marker search.
fn verify_ingest(addr: SocketAddr, ops: &[Req], acked: &[Sample]) -> Vec<String> {
    let mut failures = Vec::new();
    for s in acked.iter().filter(|s| s.outcome == Outcome::Ok) {
        for (title, marker) in &ops[s.index].new_pages {
            let page = http::get(
                addr,
                &format!("/page/{}", sensormeta::server::url_encode(title)),
            );
            if !page.is_ok_and(|r| r.ok()) {
                failures.push(format!("acknowledged page {title} is not served"));
            }
            let found = http::get(addr, &format!("/search?q={marker}&limit=10")).is_ok_and(|r| {
                String::from_utf8_lossy(&r.body).contains(&format!("\"title\":\"{title}\""))
            });
            if !found {
                failures.push(format!("marker search {marker} does not return {title}"));
            }
        }
    }
    failures
}

/// Warm-up, open loop and closed loop of one round against `target`.
fn drive(target: &Target, list: RequestList, plan: Plan, keep: &[bool]) -> Result<Round, Error> {
    let addr = target.addr;
    let nproc = target::nproc();
    // The writer is one of the `nproc` senders, not an extra one.
    let readers = if list.writer.is_empty() {
        nproc
    } else {
        nproc.saturating_sub(1).max(1)
    };
    let soon = || Instant::now() + Duration::from_millis(5);
    loadgen::open_loop(
        addr,
        &list.warmup,
        readers,
        soon(),
        &vec![false; list.warmup.len()],
    );
    let before = Scrape::take(addr)?;
    let stop = AtomicBool::new(false);
    let t0 = soon();
    let (open, closed, writer, after, open_cpu_ns) = std::thread::scope(|scope| {
        let writer = scope.spawn(|| loadgen::writer(addr, &list.writer, t0, &stop));
        let cpu0 = target.cpu_ns();
        let open = loadgen::open_loop(addr, &list.open, readers, t0, keep);
        let open_cpu_ns = target.cpu_ns() - cpu0;
        let after = Scrape::take(addr);
        let closed = loadgen::closed_loop(
            addr,
            &list.closed,
            readers,
            Duration::from_secs_f64(plan.closed_s),
        );
        stop.store(true, Ordering::SeqCst);
        let writer = writer.join().expect("writer thread panicked");
        (open, closed, writer, after, open_cpu_ns)
    });
    Ok(Round {
        list,
        open,
        closed,
        writer,
        before,
        after: after?,
        open_cpu_ns,
        rss_mb: target.rss_peak_mb(),
    })
}

pub fn run(opts: &Options) -> Result<Report, Error> {
    let workload = opts.workload;
    let plan = Plan::from_seconds(opts.seconds, ROUNDS);
    let loadavg_start = target::loadavg();
    let nproc = target::nproc();

    let mut setups = Vec::new();
    let mut rounds: Vec<Round> = Vec::new();
    let mut failures = Vec::new();
    let corpus = workloads::Corpus::generate();
    let mut snapshot = None;
    for round in 0..ROUNDS {
        // Some rounds set up from scratch; those after them restart the
        // server on the same snapshot, which is a new process at a fraction
        // of the cost.
        let target = match snapshot.as_deref() {
            Some(snapshot) if round % (ROUNDS / opts.setups) != 0 => {
                target::start_server(&opts.env, snapshot, workload.shards())?
            }
            _ => {
                let (target, secs) = target::set_up(&opts.env, workload)?;
                setups.push(secs);
                target
            }
        };
        let list = workloads::generate(workload, &corpus, opts.seed, round, plan);
        let keep = oracle_picks(workload, &list.open);
        let measured = drive(&target, list, plan, &keep)?;
        failures.extend(verify_ingest(
            target.addr,
            &measured.list.writer,
            &measured.writer.samples,
        ));
        rounds.push(measured);
        snapshot = Some(target.snapshot.clone());
        // Dropping the target stops the server before the next round, and
        // after the last one before the in-process work.
    }
    let snapshot = snapshot.expect("at least one round");

    // Every set-up loads the same corpus, so one oracle serves all rounds.
    let oracle = Oracle::open(&snapshot)?;
    let mut oracle_checks = 0usize;
    for r in &rounds {
        for s in &r.open.samples {
            if let (Some(body), Outcome::Ok) = (&s.body, s.outcome) {
                oracle_checks += 1;
                if let Err(why) = oracle.check_search(&r.list.open[s.index], body) {
                    failures.push(why);
                }
            }
        }
    }
    drop(oracle);

    let all = || rounds.iter().flat_map(Round::samples);
    let unlabelled = all().filter(|s| s.unlabelled_stale).count();
    if unlabelled > 0 {
        failures.push(format!("{unlabelled} stale responses that do not say so"));
    }
    let unseen = all()
        .filter(|s| {
            s.route == Route::Bulkload && s.outcome == Outcome::Ok && s.visible_ns.is_none()
        })
        .count();
    if unseen > 0 {
        failures.push(format!(
            "{unseen} acknowledged loads never became searchable"
        ));
    }
    let attempted = all().count() as u64;
    let not_ok = all().filter(|s| s.outcome != Outcome::Ok).count();
    let failed = (not_ok + failures.len()) as u64;

    // End to end: latencies pooled over the rounds, rates their trimmed mean.
    let open = || rounds.iter().flat_map(|r| &r.open.samples);
    let reads: Vec<u64> = open().map(latency).collect();
    let searches: Vec<u64> = open()
        .filter(|s| s.route == Route::Search)
        .map(latency)
        .collect();
    let pct = |v: &[u64], q: f64| percentile_ms(v, q).unwrap_or(0.0);
    let per_round =
        |f: &dyn Fn(&Round) -> f64| trimmed_mean(&rounds.iter().map(f).collect::<Vec<_>>());
    let mut e2e: BTreeMap<&'static str, f64> = BTreeMap::new();
    e2e.insert("setup_s", median(&setups));
    e2e.insert("read_p50_ms", pct(&reads, 0.50));
    e2e.insert(
        "saturation_rps",
        per_round(&|r| r.closed.ok_count() as f64 / r.closed.wall.as_secs_f64()),
    );
    e2e.insert(
        "server_cpu_ms_per_req",
        per_round(&|r| {
            let done = r.open.samples.len() + r.writes_in_open(plan).count();
            r.open_cpu_ns as f64 / 1e6 / done.max(1) as f64
        }),
    );
    e2e.insert("server_rss_mb", per_round(&|r| r.rss_mb));

    // Per layer, from the wire: client tallies and /metrics.json deltas
    // over the open loops, summed over the rounds.
    let delta = |name: &str| -> f64 {
        rounds
            .iter()
            .map(|r| r.after.counter(name) - r.before.counter(name))
            .sum()
    };
    let hit_ratio = |cache: &str| {
        let hits = delta(&format!("cache_{cache}_hits_total"));
        let lookups = hits + delta(&format!("cache_{cache}_misses_total"));
        if lookups > 0.0 {
            hits / lookups
        } else {
            0.0
        }
    };
    let loads = || {
        rounds
            .iter()
            .flat_map(|r| r.writes_in_open(plan))
            .filter(|s| s.route == Route::Bulkload)
    };
    let bulkloads: Vec<u64> = loads().map(latency).collect();
    let visible: Vec<u64> = loads()
        .map(|s| s.visible_ns.unwrap_or(FAILED_LATENCY_NS))
        .collect();
    let open_reqs = reads.len().max(1) as f64;
    let tally = |f: &dyn Fn(&Phase) -> u64| rounds.iter().map(|r| f(&r.open)).sum::<u64>() as f64;
    let lateness: Vec<u64> = rounds
        .iter()
        .flat_map(|r| r.open.lateness_ns.iter().copied())
        .collect();
    let send_delay: Vec<u64> = rounds
        .iter()
        .flat_map(|r| r.open.send_delay_ns.iter().copied())
        .collect();
    let mut layer: BTreeMap<&'static str, f64> = BTreeMap::new();
    layer.insert("search_p50_ms", pct(&searches, 0.50));
    layer.insert("read_p95_ms", pct(&reads, 0.95));
    layer.insert("search_p95_ms", pct(&searches, 0.95));
    layer.insert(
        "read_p99_ms",
        if reads.len() >= 1000 {
            pct(&reads, 0.99)
        } else {
            0.0
        },
    );
    layer.insert("write_p50_ms", pct(&bulkloads, 0.50));
    layer.insert("visible_p50_ms", pct(&visible, 0.50));
    layer.insert("error_ratio", failed as f64 / attempted.max(1) as f64);
    layer.insert(
        "server.conn_opens_per_req",
        tally(&|p| p.conn_opens) / open_reqs,
    );
    layer.insert(
        "server.bytes_out_per_req",
        tally(&|p| p.bytes_in) / open_reqs,
    );
    layer.insert("server.accept_shed", delta("http_accept_shed_total"));
    layer.insert("server.handler_panics", delta("http_handler_panics_total"));
    layer.insert("resil.admitted", delta("resil_admission_admitted_total"));
    layer.insert("resil.shed", delta("resil_admission_shed_total"));
    layer.insert(
        "resil.deadline_504",
        all().filter(|s| s.outcome == Outcome::Status(504)).count() as f64,
    );
    layer.insert("tx.commits", delta("tx_commits_total"));
    layer.insert(
        "tx.versions_live_max",
        rounds
            .iter()
            .flat_map(|r| [&r.before, &r.after])
            .map(|s| s.gauge("tx_versions_live"))
            .fold(0.0, f64::max),
    );
    layer.insert("cache.query_results.hit_ratio", hit_ratio("query_results"));
    layer.insert(
        "cache.query_results.evictions",
        delta("cache_query_results_evictions_total"),
    );
    layer.insert(
        "cache.query_results.stale_serves",
        delta("cache_query_results_stale_serves_total"),
    );
    layer.insert(
        "cache.query_results.singleflight_waits",
        delta("cache_query_results_singleflight_waits_total"),
    );
    layer.insert("cache.search.hit_ratio", hit_ratio("search"));
    layer.insert("cache.tag_cloud.hit_ratio", hit_ratio("tag_cloud"));
    layer.insert("cache.rank.hit_ratio", hit_ratio("rank"));
    layer.insert("query.searches", delta("query_searches_total"));
    layer.insert("query.rebuilds", delta("query_rebuilds_total"));
    layer.insert("relstore.plan_full_scan", delta("sql_plan_full_scan_total"));
    layer.insert(
        "relstore.plan_index_seek",
        delta("sql_plan_index_seek_total"),
    );
    layer.insert("par.tasks_per_req", delta("par_tasks_total") / open_reqs);
    layer.insert(
        "par.regions_per_req",
        delta("par_regions_total") / open_reqs,
    );
    let lateness_p99 = pct(&lateness, 0.99);
    layer.insert("loadgen.lateness_p99_ms", lateness_p99);
    layer.insert("loadgen.send_delay_p99_ms", pct(&send_delay, 0.99));
    layer.insert("loadgen.loadavg_start", loadavg_start);

    let mut invalid = Vec::new();
    if loadavg_start > nproc as f64 {
        invalid.push(format!(
            "1-minute load average {loadavg_start:.2} at start exceeds nproc {nproc}"
        ));
    }
    if lateness_p99 > MAX_LATENESS_MS {
        invalid.push(format!(
            "generator lateness p99 {lateness_p99:.2} ms exceeds {MAX_LATENESS_MS} ms"
        ));
    }

    let mut trace_json = None;
    let mut handle_mean_us = None;
    if let Some(replay) = opts.trace {
        // The first requests of the first round in due order, the writer's
        // among them.
        let first = &rounds[0].list;
        let mut replayed: Vec<&Req> = first.open.iter().chain(&first.writer).collect();
        replayed.sort_by_key(|r| r.due_ns);
        replayed.truncate(replay);
        let traced = layers::traced_pass(
            &snapshot,
            &opts.env.work_dir,
            &corpus,
            &first.warmup.iter().collect::<Vec<_>>(),
            &replayed,
            workload.shards(),
        )?;
        layer.extend(traced.metrics);
        trace_json = Some(traced.trace_json);
        handle_mean_us = Some(traced.handle_mean_us);
    }
    // Layers the run did not measure (no trace pass, or a route the
    // workload does not issue) read 0.
    for m in PER_LAYER {
        layer.entry(m.name).or_insert(0.0);
    }
    debug_assert!(END_TO_END.iter().all(|m| e2e.contains_key(m.name)));

    let mut counts = BTreeMap::new();
    counts.insert("reads", reads.len());
    counts.insert("searches", searches.len());
    counts.insert(
        "closed_loop_requests",
        rounds.iter().map(|r| r.closed.samples.len()).sum(),
    );
    counts.insert("bulkloads", bulkloads.len());
    counts.insert("oracle_checks", oracle_checks);

    Ok(Report {
        workload,
        seed: opts.seed,
        seconds: opts.seconds,
        request_hash: rounds
            .iter()
            .fold(0, |h: u64, r| h.rotate_left(1) ^ r.list.fnv_hash()),
        nproc,
        attempted,
        failed,
        correct: failed == 0,
        invalid,
        failures: failures.into_iter().take(5).collect(),
        end_to_end: e2e,
        per_layer: layer,
        counts,
        trace_json,
        handle_mean_us,
    })
}
