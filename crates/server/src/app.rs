//! The demo web application: routing and handlers.
//!
//! Endpoints mirror the paper's demonstration (Section V): the advanced
//! search interface with autocomplete and dynamic drop-downs, the
//! bulk-loading interface, per-page views, real-time visualizations
//! (bar/pie/map/graph/hypergraph), recommendations, and live tag clouds.

use crate::http::{url_encode, Request, Response};
use parking_lot::Mutex;
use sensormeta_cache::{Domain, Status, ALL_DOMAINS};
use sensormeta_cluster::{Replica, Router, ShardSet, Topology};
use sensormeta_obs as obs;
use sensormeta_query::{
    CondOp, Condition, QueryEngine, QueryError, SearchForm, SearchOptions, SortBy,
};
use sensormeta_resil::{self as resil, Admission, Breaker, BreakerConfig, Deadline};
use sensormeta_smr::{parse_csv, parse_jsonl};
use sensormeta_tagging::{suggest_tags, CloudCache, CloudParams, TagCloud, TagStore};
use sensormeta_tx::{Mvcc, Snapshot};
use sensormeta_viz as viz;
use serde_json::json;
use std::sync::Arc;
use std::time::Duration;

/// Default bound on how long a request blocks behind an identical in-flight
/// query before giving up with `503` (overridden by `SENSORMETA_CACHE_WAIT_MS`).
const DEFAULT_CACHE_WAIT: Duration = Duration::from_millis(2000);

/// Default end-to-end compute budget per admitted request (overridden by
/// `SENSORMETA_DEADLINE_MS`; `0` disables).
const DEFAULT_DEADLINE: Duration = Duration::from_millis(5000);

/// Default bound on concurrently executing requests (overridden by
/// `SENSORMETA_MAX_INFLIGHT`; `0` means unbounded).
const DEFAULT_MAX_INFLIGHT: usize = 256;

/// `Warning` header attached to every response served from stale cache, so
/// no degraded answer can masquerade as a fresh one (RFC 9111 §5.5 code 110).
const WARNING_STALE: &str = "110 sensormeta \"response is stale\"";

/// Overload-protection knobs for [`App::with_config`]. [`AppConfig::from_env`]
/// reads the `SENSORMETA_*` variables; tests pass explicit values so they
/// never race on process-global env state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AppConfig {
    /// Single-flight wait bound for cached query paths (`None` = unbounded).
    pub cache_wait: Option<Duration>,
    /// Per-request compute budget (`None` = no deadline).
    pub deadline: Option<Duration>,
    /// Max concurrently executing requests (`0` = unbounded).
    pub max_inflight: usize,
    /// Circuit-breaker tuning shared by the query and tag-cloud backends.
    pub breaker: BreakerConfig,
    /// Serving topology: in-process shards and WAL-shipped read replicas.
    pub topology: Topology,
}

impl Default for AppConfig {
    fn default() -> Self {
        AppConfig {
            cache_wait: Some(DEFAULT_CACHE_WAIT),
            deadline: Some(DEFAULT_DEADLINE),
            max_inflight: DEFAULT_MAX_INFLIGHT,
            breaker: BreakerConfig::default(),
            topology: Topology::default(),
        }
    }
}

impl AppConfig {
    /// Reads `SENSORMETA_CACHE_WAIT_MS`, `SENSORMETA_DEADLINE_MS` and
    /// `SENSORMETA_MAX_INFLIGHT`; unset or unparsable values fall back to
    /// the defaults, `0` disables the respective bound.
    pub fn from_env() -> AppConfig {
        AppConfig {
            cache_wait: cache_wait_from_env(),
            deadline: parse_opt_ms(
                std::env::var("SENSORMETA_DEADLINE_MS").ok().as_deref(),
                DEFAULT_DEADLINE,
            ),
            max_inflight: parse_max_inflight(
                std::env::var("SENSORMETA_MAX_INFLIGHT").ok().as_deref(),
            ),
            breaker: BreakerConfig::default(),
            topology: Topology::from_env(),
        }
    }
}

/// Shared application state, organized around MVCC snapshot isolation:
/// every read request opens a [`Snapshot`] of the published engine at
/// admission and sees one epoch-consistent generation for its whole
/// lifetime, while writers mutate the private `primary` copy (which owns
/// the WAL) and publish a new version when done — readers are never
/// blocked by a writer, and a writer never waits for readers to drain.
pub struct App {
    /// The writer's engine: the only mutable copy, owner of the durability
    /// handle. The mutex serializes committers; read paths never touch it.
    primary: Mutex<QueryEngine>,
    /// Published engine versions; committers swap in `primary.clone_reader()`
    /// here and old versions are GC'd once no snapshot pins them.
    engine: Mvcc<QueryEngine>,
    tags: Mvcc<TagStore>,
    cloud_cache: CloudCache,
    /// Single-flight wait deadline for cached query paths; `None` disables
    /// the bound (`SENSORMETA_CACHE_WAIT_MS=0`).
    cache_wait: Option<Duration>,
    /// Per-request compute budget installed as the ambient deadline.
    deadline: Option<Duration>,
    admission: Admission,
    breaker_query: Breaker,
    breaker_cloud: Breaker,
    /// Serving topology (shards, replicas, staleness bound).
    topology: Topology,
    /// Scatter-gather executor when `topology.shards > 1`.
    shards: Option<ShardSet>,
    /// Read routing over WAL-shipped replicas; empty until
    /// [`App::attach_replicas`] is called.
    router: Router,
}

/// Reads the single-flight wait bound from `SENSORMETA_CACHE_WAIT_MS`:
/// unset or unparsable → the default, `0` → unbounded.
fn cache_wait_from_env() -> Option<Duration> {
    parse_cache_wait(std::env::var("SENSORMETA_CACHE_WAIT_MS").ok().as_deref())
}

fn parse_cache_wait(raw: Option<&str>) -> Option<Duration> {
    parse_opt_ms(raw, DEFAULT_CACHE_WAIT)
}

fn parse_opt_ms(raw: Option<&str>, default: Duration) -> Option<Duration> {
    match raw.map(|s| s.trim().parse::<u64>()) {
        Some(Ok(0)) => None,
        Some(Ok(ms)) => Some(Duration::from_millis(ms)),
        Some(Err(_)) | None => Some(default),
    }
}

fn parse_max_inflight(raw: Option<&str>) -> usize {
    match raw.map(|s| s.trim().parse::<usize>()) {
        Some(Ok(n)) => n,
        Some(Err(_)) | None => DEFAULT_MAX_INFLIGHT,
    }
}

/// An honest `Retry-After` for shed or busy responses: twice the observed
/// end-to-end p95 (the time a retry is likely to need), clamped to 1–30 s.
fn retry_after_secs() -> u64 {
    let p95_us = obs::histogram("http_request_us").quantile(0.95);
    (2 * p95_us).div_ceil(1_000_000).clamp(1, 30)
}

/// Finishes a JSON response; a serialization failure becomes a 500
/// instead of a panic in the request path.
fn json_or_500(body: Result<String, serde_json::Error>) -> Response {
    match body {
        Ok(body) => Response::json(body),
        Err(e) => Response::error(500, e.to_string()),
    }
}

impl App {
    /// Builds the app with knobs from the environment, seeding the tag
    /// store from the SMR.
    pub fn new(engine: QueryEngine) -> App {
        Self::with_config(engine, AppConfig::from_env())
    }

    /// Builds the app with explicit overload-protection knobs.
    pub fn with_config(engine: QueryEngine, cfg: AppConfig) -> App {
        let mut tags = TagStore::new();
        if let Ok(pairs) = engine.smr().all_tags() {
            tags.ingest(pairs.iter().map(|(p, t)| (p.as_str(), t.as_str())));
        }
        let shards = if cfg.topology.shards > 1 {
            match ShardSet::build(&engine, cfg.topology.shards) {
                Ok(set) => Some(set),
                Err(_) => {
                    // Fall back to unsharded serving rather than refusing
                    // to start; the counter makes the degradation visible.
                    obs::counter("cluster_shard_build_failures_total").inc();
                    None
                }
            }
        } else {
            None
        };
        App {
            engine: Mvcc::new(engine.clone_reader()),
            primary: Mutex::new(engine),
            tags: Mvcc::new(tags),
            cloud_cache: CloudCache::new(),
            cache_wait: cfg.cache_wait,
            deadline: cfg.deadline,
            admission: Admission::new(cfg.max_inflight),
            breaker_query: Breaker::new("query", cfg.breaker),
            breaker_cloud: Breaker::new("tagcloud", cfg.breaker),
            topology: cfg.topology,
            shards,
            router: Router::new(Vec::new(), cfg.topology.staleness_epochs),
        }
    }

    /// Opens `topology.replicas` WAL-shipped read replicas of the durable
    /// store at `primary_path`, starts their tail loops, and installs them
    /// behind the read router. The primary engine must own that store (its
    /// commits write the log the replicas tail). Returns the replica count.
    pub fn attach_replicas(&mut self, primary_path: &std::path::Path) -> Result<usize, QueryError> {
        let mut replicas = Vec::new();
        for i in 0..self.topology.replicas {
            let replica = Replica::open(&format!("r{i}"), primary_path)?;
            replica.start(self.topology.poll_interval);
            replicas.push(replica);
        }
        let attached = replicas.len();
        self.router = Router::new(replicas, self.topology.staleness_epochs);
        Ok(attached)
    }

    /// The serving topology this app was built with.
    pub fn topology(&self) -> Topology {
        self.topology
    }

    /// The query-path circuit breaker (exposed for tests and diagnostics).
    pub fn query_breaker(&self) -> &Breaker {
        &self.breaker_query
    }

    /// The tag-cloud circuit breaker (exposed for tests and diagnostics).
    pub fn cloud_breaker(&self) -> &Breaker {
        &self.breaker_cloud
    }

    /// Opens a read snapshot of the published engine — exactly what every
    /// read request does at admission. Exposed for the isolation tests and
    /// the benchmark oracle.
    pub fn engine_snapshot(&self) -> Snapshot<QueryEngine> {
        self.engine.snapshot()
    }

    /// Sequence number of the currently published engine version.
    pub fn engine_seq(&self) -> u64 {
        self.engine.seq()
    }

    /// Runs `mutate` on the primary engine under the committer lock and
    /// publishes the next version. This is the programmatic write path
    /// (tests) — `POST /bulkload` is the HTTP spelling of the same
    /// sequence.
    pub fn commit_engine<E>(
        &self,
        mutate: impl FnOnce(&mut QueryEngine) -> std::result::Result<(), E>,
    ) -> std::result::Result<u64, E> {
        let mut primary = self.primary.lock();
        mutate(&mut primary)?;
        Ok(self.publish(&primary))
    }

    /// The one place a new engine version becomes visible: publishes a
    /// reader clone of the (locked) primary, then re-partitions the shard
    /// set from it. A partitioning failure keeps the previous shard
    /// generation serving (scatter reads lag one commit instead of failing).
    fn publish(&self, primary: &QueryEngine) -> u64 {
        let seq = self
            .engine
            .begin()
            .publish(&ALL_DOMAINS, primary.clone_reader());
        if let Some(set) = &self.shards {
            if set.republish(primary).is_err() {
                obs::counter("cluster_shard_build_failures_total").inc();
            }
        }
        seq
    }

    /// Stable route label for metric names (`http_route_<label>_…`). Unknown
    /// paths collapse into one label so metrics stay bounded.
    fn route_label(req: &Request) -> &'static str {
        match (req.method.as_str(), req.path.as_str()) {
            ("GET", "/") => "home",
            ("GET", "/search") => "search",
            ("GET", "/autocomplete") => "autocomplete",
            ("GET", "/attributes") => "attributes",
            ("GET", "/recommend") => "recommend",
            ("GET", "/tags") => "tags",
            ("GET", "/tags.json") => "tags_json",
            ("GET", "/viz/bar") => "viz_bar",
            ("GET", "/viz/pie") => "viz_pie",
            ("GET", "/viz/map") => "viz_map",
            ("GET", "/viz/graph") => "viz_graph",
            ("GET", "/viz/hypergraph") => "viz_hypergraph",
            ("GET", "/sql") => "sql",
            ("GET", "/sparql") => "sparql",
            ("GET", "/export.ttl") => "export_ttl",
            ("GET", "/suggest_tags") => "suggest_tags",
            ("GET", "/metrics") => "metrics",
            ("GET", "/metrics.json") => "metrics",
            ("GET", "/healthz") => "healthz",
            ("GET", "/cluster") => "cluster",
            ("POST", "/bulkload") => "bulkload",
            ("POST", "/tag") => "tag",
            ("POST", "/admin/cache/clear") => "admin_cache_clear",
            ("GET", p) if p.starts_with("/page/") => "page",
            _ => "other",
        }
    }

    /// Routes one request to its handler behind admission control and the
    /// per-request deadline, recording per-route request counters,
    /// status-class counters and latency histograms.
    pub fn handle(&self, req: &Request) -> Response {
        let start = std::time::Instant::now();
        let route = Self::route_label(req);
        // Probes and exposition stay exempt: an operator debugging an
        // overload needs /healthz and /metrics more than ever.
        let resp = if matches!(route, "healthz" | "metrics") {
            self.dispatch(req)
        } else {
            match self.admission.try_acquire() {
                Some(_permit) => {
                    let _scope = resil::deadline_scope(Deadline::from_budget(self.deadline));
                    self.dispatch(req)
                }
                None => Response::error(429, "server at capacity; retry later")
                    .with_header("Retry-After", retry_after_secs().to_string()),
            }
        };
        obs::counter("http_requests_total").inc();
        obs::counter(&format!("http_route_{route}_requests_total")).inc();
        obs::counter(&format!(
            "http_route_{route}_status_{}xx_total",
            resp.status / 100
        ))
        .inc();
        obs::histogram(&format!("http_route_{route}_us")).record_duration(start.elapsed());
        obs::histogram("http_request_us").record_duration(start.elapsed());
        resp
    }

    fn dispatch(&self, req: &Request) -> Response {
        match (req.method.as_str(), req.path.as_str()) {
            ("GET", "/") => self.home(),
            ("GET", "/search") => self.search(req),
            ("GET", "/autocomplete") => self.autocomplete(req),
            ("GET", "/attributes") => self.attributes(),
            ("GET", "/recommend") => self.recommend(req),
            ("GET", "/tags") => self.tag_cloud_svg(),
            ("GET", "/tags.json") => self.tag_cloud_json(),
            ("GET", "/viz/bar") => self.viz_bar(req),
            ("GET", "/viz/pie") => self.viz_pie(req),
            ("GET", "/viz/map") => self.viz_map(req),
            ("GET", "/viz/graph") => self.viz_graph(req),
            ("GET", "/viz/hypergraph") => self.viz_hypergraph(req),
            ("GET", "/sql") => self.sql_console(req),
            ("GET", "/sparql") => self.sparql_console(req),
            ("GET", "/export.ttl") => self.export_turtle(),
            ("GET", "/suggest_tags") => self.suggest_tags(req),
            ("GET", "/metrics") => Self::metrics(req, false),
            ("GET", "/metrics.json") => Self::metrics(req, true),
            ("GET", "/healthz") => self.healthz(),
            ("GET", "/cluster") => self.cluster_status(),
            ("POST", "/bulkload") => self.bulkload(req),
            ("POST", "/tag") => self.add_tag(req),
            ("POST", "/admin/cache/clear") => self.admin_cache_clear(),
            ("GET", p) if p.starts_with("/page/") => self.page(&p["/page/".len()..]),
            ("GET", _) => Response::error(404, "not found"),
            _ => Response::error(405, "method not allowed"),
        }
    }

    /// Exposition endpoint: Prometheus text format by default, JSON via
    /// `/metrics.json` or `?format=json`.
    fn metrics(req: &Request, json: bool) -> Response {
        let reg = obs::global();
        if json || req.param_or("format", "prometheus") == "json" {
            Response::json(reg.render_json())
        } else {
            Response {
                status: 200,
                content_type: "text/plain; version=0.0.4; charset=utf-8".into(),
                body: reg.render_prometheus().into_bytes(),
                headers: Vec::new(),
            }
        }
    }

    /// Liveness probe: cheap repository touch, plain-text `ok`.
    fn healthz(&self) -> Response {
        let pages = self.engine.snapshot().smr().page_count();
        Response {
            status: 200,
            content_type: "text/plain; charset=utf-8".into(),
            body: format!("ok {pages} pages\n").into_bytes(),
            headers: Vec::new(),
        }
    }

    fn home(&self) -> Response {
        let engine = self.engine.snapshot();
        let count = engine.smr().page_count();
        let stats_html = engine
            .smr()
            .statistics()
            .map(|s| {
                let per_ns: String = s
                    .pages_per_namespace
                    .iter()
                    .map(|(ns, n)| format!("{} {}", viz::escape(ns), n))
                    .collect::<Vec<_>>()
                    .join(" · ");
                format!(
                    "<p><small>{per_ns} — {} annotations, {} links, {} tags, {} RDF triples</small></p>",
                    s.annotations, s.links, s.tags, s.triples
                )
            })
            .unwrap_or_default();
        let attrs = engine.smr().attributes().unwrap_or_default();
        let options: String = attrs
            .iter()
            .take(20)
            .map(|(a, n)| {
                format!(
                    "<option value=\"{}\">{} ({n})</option>",
                    viz::escape(a),
                    viz::escape(a)
                )
            })
            .collect();
        Response::html(format!(
            r#"<!DOCTYPE html><html><head><title>Sensor Metadata Search</title></head>
<body>
<h1>Advanced Sensor Metadata Search</h1>
<p>{count} metadata pages in the repository.</p>
{stats_html}
<form action="/search" method="get">
  <input name="q" placeholder="keywords" size="40">
  <select name="attribute"><option value="">any attribute</option>{options}</select>
  <select name="op"><option>eq</option><option>contains</option><option>gt</option><option>lt</option><option>between</option></select>
  <input name="value" placeholder="value">
  <select name="sort"><option>relevance</option><option>pagerank</option><option>title</option></select>
  <button type="submit">Search</button>
</form>
<p><a href="/tags">tag cloud</a> · <a href="/viz/hypergraph">hypergraph</a> · <a href="/viz/graph">link graph</a></p>
</body></html>"#
        ))
    }

    fn form_from(req: &Request) -> SearchForm {
        let mut form = SearchForm::keywords(req.param_or("q", ""));
        if let (Some(attr), Some(value)) = (req.param("attribute"), req.param("value")) {
            if !attr.is_empty() && !value.is_empty() {
                let op = match req.param_or("op", "eq") {
                    "contains" => CondOp::Contains,
                    "gt" => CondOp::Gt,
                    "lt" => CondOp::Lt,
                    "between" => CondOp::Between,
                    _ => CondOp::Eq,
                };
                form.conditions.push(Condition::new(attr, op, value));
            }
        }
        if let Some(ns) = req.param("namespace") {
            if !ns.is_empty() {
                form.namespace = Some(ns.to_owned());
            }
        }
        form.sort_by = match req.param_or("sort", "relevance") {
            "pagerank" => SortBy::PageRank,
            "title" => SortBy::Title,
            attr if attr.starts_with("attr:") => SortBy::Attribute(attr[5..].to_owned()),
            _ => SortBy::Relevance,
        };
        form.descending = req.param_or("order", "") == "desc";
        form.limit = req.param("limit").and_then(|l| l.parse().ok()).unwrap_or(0);
        form.match_all = req.param_or("match", "any") == "all";
        form.soft_conditions = req.param_or("soft", "0") == "1";
        // Map-based browsing: ?lat_min=…&lat_max=…&lon_min=…&lon_max=…
        let bbox: Vec<f64> = ["lat_min", "lat_max", "lon_min", "lon_max"]
            .iter()
            .filter_map(|k| req.param(k).and_then(|v| v.parse().ok()))
            .collect();
        if bbox.len() == 4 {
            form.region = Some((bbox[0], bbox[1], bbox[2], bbox[3]));
        }
        form
    }

    /// `/search` for every topology: pick the read target — the shard-set
    /// version, else a sufficiently fresh replica, else the primary — then
    /// run one path over its snapshot. Non-primary targets are labelled.
    fn search(&self, req: &Request) -> Response {
        let form = Self::form_from(req);
        let user = req.param("user");
        let (engine, label) = if let Some(set) = &self.shards {
            let shards = set.shard_count().to_string();
            (set.coordinator(), Some(("X-Cluster-Shards", shards)))
        } else if let Some(replica) = self.router.route_read(ShardSet::SEARCH_DEPS) {
            (replica, Some(("X-Served-By", "replica".to_owned())))
        } else {
            (self.engine.snapshot(), None)
        };
        let resp = if !self.breaker_query.allow() {
            // Open circuit: don't touch the backend at all — answer from the
            // stale holdover if one exists, shed otherwise.
            match engine.search_stale(&form, user) {
                Some((out, _age)) => Self::render_search(req, &form, &out)
                    .with_header("Cache-Status", Status::Degraded.as_str())
                    .with_header("Warning", WARNING_STALE),
                None => Response::error(503, "search backend unavailable (circuit open)")
                    .with_header("Retry-After", retry_after_secs().to_string()),
            }
        } else {
            let opts = SearchOptions {
                // A scattered search fans out per request and never fills the
                // result cache.
                bypass: self.shards.is_some() || req.param("cache") == Some("bypass"),
                wait: self.cache_wait,
                user,
                stale_ok: true,
                // Pin the cache to this request's snapshot generation: the
                // whole request sees one epoch vector even if a writer commits
                // mid-flight.
                at: Some(engine.epochs()),
                ..SearchOptions::default()
            };
            match engine.search_shared(&form, &opts) {
                Ok((out, status)) => {
                    if status.is_degraded() {
                        // The backend failed and the cache bailed us out: a
                        // success for the client, a failure for the breaker.
                        self.breaker_query.record_failure();
                    } else {
                        self.breaker_query.record_success();
                    }
                    let resp = Self::render_search(req, &form, &out)
                        .with_header("Cache-Status", status.as_str());
                    if status.is_degraded() {
                        resp.with_header("Warning", WARNING_STALE)
                    } else {
                        resp
                    }
                }
                Err(e) => self.search_error(e),
            }
        };
        match label {
            Some((name, value)) => resp.with_header(name, value),
            None => resp,
        }
    }

    /// Topology introspection: shard count, staleness bound, and per-replica
    /// applied sequence and epoch lag. Also refreshes the replica-lag gauge
    /// so `/metrics` stays current even between tail polls.
    fn cluster_status(&self) -> Response {
        let deps = ShardSet::SEARCH_DEPS;
        let replicas: Vec<serde_json::Value> = self
            .router
            .replicas()
            .iter()
            .map(|r| {
                json!({
                    "name": r.name(),
                    "appliedSeq": r.applied_seq(),
                    "stalenessEpochs": r.staleness(deps),
                })
            })
            .collect();
        let max_staleness = self
            .router
            .replicas()
            .iter()
            .map(|r| r.staleness(deps))
            .max()
            .unwrap_or(0);
        obs::gauge("cluster_replica_staleness_epochs").set(max_staleness as f64);
        Response::json(
            json!({
                "shards": self.topology.shards,
                "stalenessBound": self.topology.staleness_epochs,
                "replicas": replicas,
            })
            .to_string(),
        )
    }

    /// Maps a query failure to an HTTP status, feeding the breaker for
    /// backend-class failures (client errors and load-shedding don't count).
    fn search_error(&self, e: QueryError) -> Response {
        match e {
            QueryError::EmptyForm => Response::error(400, e.to_string()),
            QueryError::CacheBusy => Response::error(503, e.to_string())
                .with_header("Retry-After", retry_after_secs().to_string()),
            QueryError::DeadlineExceeded => {
                self.breaker_query.record_failure();
                Response::error(504, e.to_string())
            }
            other => {
                self.breaker_query.record_failure();
                Response::error(500, other.to_string())
            }
        }
    }

    fn render_search(
        req: &Request,
        form: &SearchForm,
        out: &sensormeta_query::QueryOutput,
    ) -> Response {
        if req.param_or("format", "json") == "html" {
            let rows: String = out
                .items
                .iter()
                .map(|i| {
                    format!(
                        "<tr><td><a href=\"/page/{}\">{}</a></td><td>{}</td><td>{:.4}</td><td>{}</td></tr>",
                        url_encode(&i.title),
                        viz::escape(&i.title),
                        viz::escape(&i.namespace),
                        i.score,
                        sensormeta_search::highlight_html(&i.snippet, &form.keywords),
                    )
                })
                .collect();
            let recs: String = out
                .recommendations
                .iter()
                .map(|r| {
                    format!(
                        "<li><a href=\"/page/{}\">{}</a></li>",
                        url_encode(&r.title),
                        viz::escape(&r.title)
                    )
                })
                .collect();
            let dym = out
                .did_you_mean
                .as_ref()
                .map(|s| {
                    format!(
                        "<p>Did you mean <a href=\"/search?q={}&format=html\"><i>{}</i></a>?</p>",
                        url_encode(s),
                        viz::escape(s)
                    )
                })
                .unwrap_or_default();
            Response::html(format!(
                "<html><body><h1>{} results</h1>{dym}<table border=1><tr><th>page</th><th>namespace</th><th>score</th><th>snippet</th></tr>{rows}</table><h2>Related pages</h2><ul>{recs}</ul></body></html>",
                out.total_matched
            ))
        } else {
            json_or_500(serde_json::to_string(out))
        }
    }

    fn autocomplete(&self, req: &Request) -> Response {
        let prefix = req.param_or("prefix", "");
        let k = req.param("k").and_then(|k| k.parse().ok()).unwrap_or(10);
        let suggestions = self.engine.snapshot().autocomplete(prefix, k);
        let arr: Vec<serde_json::Value> = suggestions
            .into_iter()
            .map(|(s, w)| json!({"suggestion": s, "weight": w}))
            .collect();
        Response::json(serde_json::Value::Array(arr).to_string())
    }

    fn attributes(&self) -> Response {
        let engine = self.engine.snapshot();
        let attrs = engine.smr().attributes().unwrap_or_default();
        let arr: Vec<serde_json::Value> = attrs
            .into_iter()
            .map(|(a, n)| {
                let values = engine.smr().attribute_values(&a).unwrap_or_default();
                json!({"attribute": a, "count": n, "values": values})
            })
            .collect();
        Response::json(serde_json::Value::Array(arr).to_string())
    }

    fn recommend(&self, req: &Request) -> Response {
        let Some(title) = req.param("title") else {
            return Response::error(400, "missing ?title=");
        };
        let recs = self.engine.snapshot().recommend(&[title], 10);
        json_or_500(serde_json::to_string(&recs))
    }

    fn page(&self, raw_title: &str) -> Response {
        let title = raw_title.to_owned();
        let engine = self.engine.snapshot();
        match engine.smr().get_page(&title) {
            Ok(Some(page)) => {
                let ann: String = page
                    .annotations
                    .iter()
                    .map(|(a, v)| {
                        format!(
                            "<tr><td>{}</td><td>{}</td></tr>",
                            viz::escape(a),
                            viz::escape(v)
                        )
                    })
                    .collect();
                let links: String = page
                    .links
                    .iter()
                    .map(|l| {
                        format!(
                            "<li><a href=\"/page/{}\">{}</a></li>",
                            url_encode(l),
                            viz::escape(l)
                        )
                    })
                    .collect();
                let tags = page.tags.join(", ");
                Response::html(format!(
                    "<html><body><h1>{}</h1><p><i>{} — revision {}</i></p><p>{}</p>\
                     <h2>Annotations</h2><table border=1>{ann}</table>\
                     <h2>Links</h2><ul>{links}</ul><p>Tags: {}</p></body></html>",
                    viz::escape(&page.title),
                    viz::escape(&page.namespace),
                    page.revision,
                    viz::escape(&page.body),
                    viz::escape(&tags),
                ))
            }
            Ok(None) => Response::error(404, format!("no page `{title}`")),
            Err(e) => Response::error(500, e.to_string()),
        }
    }

    fn bulkload(&self, req: &Request) -> Response {
        let body = match req.body_str() {
            Ok(b) => b.to_owned(),
            Err(e) => {
                obs::counter("http_body_utf8_rejected_total").inc();
                return Response::error(400, format!("body is not valid UTF-8: {e}"));
            }
        };
        let content_type = req
            .headers
            .get("content-type")
            .map(String::as_str)
            .unwrap_or("application/jsonl");
        let (drafts, parse_errors) = if content_type.contains("csv") {
            parse_csv(&body)
        } else {
            parse_jsonl(&body)
        };
        // Serialized committer path: mutate the private primary (WAL-logged
        // inside bulk_load), rebuild its derived structures, then publish a
        // reader clone as the next version. Readers on open snapshots are
        // untouched; new requests admit onto the rebuilt engine.
        let mut primary = self.primary.lock();
        let mut report = primary.smr_mut().bulk_load(drafts);
        report.errors.extend(parse_errors);
        if let Err(e) = primary.rebuild() {
            return Response::error(500, e.to_string());
        }
        self.publish(&primary);
        // Fold the repository's tags into the live store: tags users added
        // through `POST /tag` exist only there and must survive the load.
        let pairs = primary.smr().all_tags().unwrap_or_default();
        drop(primary);
        let _ = self
            .tags
            .commit(&[Domain::TagIncidence], |t: &mut TagStore| {
                t.ingest(pairs.iter().map(|(p, t)| (p.as_str(), t.as_str())));
                Ok::<(), std::convert::Infallible>(())
            });
        json_or_500(serde_json::to_string(&report))
    }

    fn add_tag(&self, req: &Request) -> Response {
        let (Some(page), Some(tag)) = (req.param("page"), req.param("tag")) else {
            return Response::error(400, "need ?page= and ?tag=");
        };
        let mut added = false;
        let _ = self
            .tags
            .commit(&[Domain::TagIncidence], |t: &mut TagStore| {
                added = t.add(page, tag);
                Ok::<(), std::convert::Infallible>(())
            });
        Response::json(json!({"added": added}).to_string())
    }

    /// Raw SQL console (read-only SELECT / EXPLAIN).
    fn sql_console(&self, req: &Request) -> Response {
        let Some(q) = req.param("q") else {
            return Response::error(400, "missing ?q=SELECT …");
        };
        let engine = self.engine.snapshot();
        let upper = q.trim_start().to_uppercase();
        if !upper.starts_with("SELECT") && !upper.starts_with("EXPLAIN") {
            return Response::error(400, "only SELECT / EXPLAIN are allowed here");
        }
        match engine.smr().sql(q) {
            Ok(rs) => {
                if req.param_or("format", "text") == "json" {
                    let rows: Vec<Vec<String>> = rs
                        .rows
                        .iter()
                        .map(|r| r.iter().map(|v| v.to_string()).collect())
                        .collect();
                    Response::json(json!({"columns": rs.columns, "rows": rows}).to_string())
                } else {
                    Response {
                        status: 200,
                        content_type: "text/plain; charset=utf-8".into(),
                        body: rs.to_ascii_table().into_bytes(),
                        headers: Vec::new(),
                    }
                }
            }
            Err(e) => Response::error(400, e.to_string()),
        }
    }

    /// Raw SPARQL console.
    fn sparql_console(&self, req: &Request) -> Response {
        let Some(q) = req.param("q") else {
            return Response::error(400, "missing ?q=SELECT …");
        };
        let engine = self.engine.snapshot();
        match engine.smr().sparql(q) {
            Ok(sols) => {
                let rows: Vec<Vec<Option<String>>> = sols
                    .rows
                    .iter()
                    .map(|r| {
                        r.iter()
                            .map(|t| t.as_ref().map(|t| t.to_string()))
                            .collect()
                    })
                    .collect();
                Response::json(json!({"vars": sols.vars, "rows": rows}).to_string())
            }
            Err(e) => Response::error(400, e.to_string()),
        }
    }

    /// Dumps the RDF mirror as Turtle (the SMR's export format).
    fn export_turtle(&self) -> Response {
        let engine = self.engine.snapshot();
        let store = engine.smr().rdf();
        let triples: Vec<(
            sensormeta_rdf::Term,
            sensormeta_rdf::Term,
            sensormeta_rdf::Term,
        )> = store.match_terms(None, None, None);
        let ttl = sensormeta_rdf::to_turtle(triples.iter().map(|(s, p, o)| (s, p, o)));
        Response {
            status: 200,
            content_type: "text/turtle; charset=utf-8".into(),
            body: ttl.into_bytes(),
            headers: Vec::new(),
        }
    }

    /// Suggests tags for a page from co-occurrence.
    fn suggest_tags(&self, req: &Request) -> Response {
        let Some(page) = req.param("page") else {
            return Response::error(400, "missing ?page=");
        };
        let k = req.param("k").and_then(|k| k.parse().ok()).unwrap_or(5);
        let tags = self.tags.snapshot();
        let suggestions = suggest_tags(&tags, page, k);
        let arr: Vec<serde_json::Value> = suggestions
            .into_iter()
            .map(|s| json!({"tag": s.tag, "score": s.score, "becauseOf": s.because_of}))
            .collect();
        Response::json(serde_json::Value::Array(arr).to_string())
    }

    /// Drops every result cache (query results and tag clouds) and bumps all
    /// invalidation epochs, so the next request on each path recomputes from
    /// the stores.
    fn admin_cache_clear(&self) -> Response {
        self.engine.snapshot().clear_caches();
        self.cloud_cache.clear();
        sensormeta_cache::clock().bump_all();
        obs::counter("cache_admin_clears_total").inc();
        Response::json(json!({"cleared": true}).to_string())
    }

    /// Tag-cloud lookup behind the `tagcloud` breaker, pinned at the tag
    /// snapshot's epoch vector: interruptible compute, degrading to the
    /// superseded cloud within the staleness grace when the compute path
    /// fails or the circuit is open.
    fn cloud(&self) -> Result<(Arc<TagCloud>, Status), Response> {
        let params = CloudParams::default();
        let stale = || {
            let (cloud, _age) = self.cloud_cache.stale(&params)?;
            Some((cloud, Status::Degraded))
        };
        if !self.breaker_cloud.allow() {
            return stale().ok_or_else(|| {
                Response::error(503, "tag cloud unavailable (circuit open)")
                    .with_header("Retry-After", retry_after_secs().to_string())
            });
        }
        let tags = self.tags.snapshot();
        match self.cloud_cache.get(&tags, Some(tags.epochs()), &params) {
            Ok(pair) => {
                self.breaker_cloud.record_success();
                Ok(pair)
            }
            Err(i) => {
                self.breaker_cloud.record_failure();
                stale().ok_or_else(|| match i {
                    resil::Interrupt::DeadlineExceeded => Response::error(504, i.to_string()),
                    resil::Interrupt::Fault { .. } => Response::error(500, i.to_string()),
                })
            }
        }
    }

    /// Labels a tag-cloud response, warning on degraded serves.
    fn cloud_headers(resp: Response, status: Status) -> Response {
        let resp = resp.with_header("Cache-Status", status.as_str());
        if status.is_degraded() {
            resp.with_header("Warning", WARNING_STALE)
        } else {
            resp
        }
    }

    fn tag_cloud_svg(&self) -> Response {
        let (cloud, status) = match self.cloud() {
            Ok(pair) => pair,
            Err(resp) => return resp,
        };
        Self::cloud_headers(
            Response::svg(viz::render_tag_cloud("Metadata trends", &cloud)),
            status,
        )
    }

    fn tag_cloud_json(&self) -> Response {
        let (cloud, status) = match self.cloud() {
            Ok(pair) => pair,
            Err(resp) => return resp,
        };
        let arr: Vec<serde_json::Value> = cloud
            .entries
            .iter()
            .map(|e| {
                json!({
                    "tag": e.tag,
                    "count": e.count,
                    "fontSize": e.font_size,
                    "cliques": e.cliques,
                })
            })
            .collect();
        Self::cloud_headers(
            Response::json(serde_json::Value::Array(arr).to_string()),
            status,
        )
    }

    /// Facet source shared by bar/pie: counts of one attribute over a search.
    fn facet_data(&self, req: &Request) -> Result<(String, Vec<viz::Datum>), Response> {
        let attribute = req.param_or("attribute", "measuresQuantity").to_owned();
        let form = Self::form_from(req);
        let engine = self.engine.snapshot();
        let out = if form.is_empty() {
            // No query: facet over everything via SQL.
            let rs = engine
                .smr()
                .sql(&format!(
                    "SELECT value, COUNT(*) FROM annotations WHERE attribute = '{}' \
                     GROUP BY value ORDER BY 2 DESC",
                    sensormeta_smr::sql_escape(&attribute)
                ))
                .map_err(|e| Response::error(500, e.to_string()))?;
            return Ok((
                attribute.clone(),
                rs.rows
                    .iter()
                    .take(12)
                    .map(|r| viz::Datum::new(r[0].to_string(), r[1].as_int().unwrap_or(0) as f64))
                    .collect(),
            ));
        } else {
            engine
                .search(&form, req.param("user"))
                .map_err(|e| Response::error(400, e.to_string()))?
        };
        let data: Vec<viz::Datum> = out
            .facets
            .iter()
            .filter(|f| f.attribute == attribute)
            .take(12)
            .map(|f| viz::Datum::new(f.value.clone(), f.count as f64))
            .collect();
        Ok((attribute, data))
    }

    fn viz_bar(&self, req: &Request) -> Response {
        match self.facet_data(req) {
            Ok((attr, data)) => {
                Response::svg(viz::bar_chart(&format!("{attr} distribution"), &data))
            }
            Err(resp) => resp,
        }
    }

    fn viz_pie(&self, req: &Request) -> Response {
        match self.facet_data(req) {
            Ok((attr, data)) => Response::svg(viz::pie_chart(&format!("{attr} share"), &data)),
            Err(resp) => resp,
        }
    }

    fn viz_map(&self, req: &Request) -> Response {
        let form = Self::form_from(req);
        let engine = self.engine.snapshot();
        let out = match engine.search(&form, req.param("user")) {
            Ok(o) => o,
            Err(e) => return Response::error(400, e.to_string()),
        };
        let markers: Vec<viz::MapMarker> = out
            .geolocated()
            .filter_map(|i| {
                i.coords.map(|(lat, lon)| viz::MapMarker {
                    title: i.title.clone(),
                    lat,
                    lon,
                    match_degree: i.match_degree,
                })
            })
            .collect();
        Response::svg(viz::map_plot(
            "Geolocated results",
            &markers,
            &viz::MapOptions::default(),
        ))
    }

    fn viz_graph(&self, req: &Request) -> Response {
        let engine = self.engine.snapshot();
        let (semantic, hyperlink, titles) = match engine.smr().link_graphs() {
            Ok(g) => g,
            Err(e) => return Response::error(500, e.to_string()),
        };
        let g = if req.param_or("links", "hyper") == "semantic" {
            semantic
        } else {
            hyperlink
        };
        // Cap at a readable number of nodes.
        let max_nodes: usize = req
            .param("max")
            .and_then(|m| m.parse().ok())
            .unwrap_or(60)
            .min(titles.len());
        let keep: Vec<usize> = (0..max_nodes).collect();
        let remap: std::collections::HashMap<usize, usize> = keep
            .iter()
            .enumerate()
            .map(|(new, &old)| (old, new))
            .collect();
        let edges: Vec<(usize, usize)> = g
            .iter_edges()
            .filter_map(|(u, v)| Some((*remap.get(&u)?, *remap.get(&v)?)))
            .collect();
        let sub = sensormeta_graph::CsrGraph::from_edges(keep.len(), &edges, true);
        let classes = viz::classify_by_neighbors(&sub);
        let nodes: Vec<viz::GraphNode> = keep
            .iter()
            .map(|&old| viz::GraphNode {
                label: titles[old].clone(),
                class: classes[remap[&old]],
            })
            .collect();
        Response::svg(viz::render_digraph(
            "Metadata associations",
            &sub,
            &nodes,
            viz::GraphLayout::Force,
        ))
    }

    fn viz_hypergraph(&self, req: &Request) -> Response {
        let engine = self.engine.snapshot();
        let (_, hyperlink, titles) = match engine.smr().link_graphs() {
            Ok(g) => g,
            Err(e) => return Response::error(500, e.to_string()),
        };
        if titles.is_empty() {
            return Response::error(404, "repository is empty");
        }
        let focus = match req.param("focus") {
            Some(f) => match titles.iter().position(|t| t == f) {
                Some(ix) => ix,
                None => return Response::error(404, format!("no page `{f}`")),
            },
            // Default to the best-connected page ("popular pages").
            None => {
                let ind = hyperlink.in_degrees();
                (0..titles.len())
                    .max_by_key(|&v| ind[v] + hyperlink.out_degree(v))
                    .unwrap_or(0)
            }
        };
        let rings = req.param("rings").and_then(|r| r.parse().ok()).unwrap_or(2);
        Response::svg(viz::render_hypergraph(
            &format!("Hypergraph around {}", titles[focus]),
            &hyperlink,
            &titles,
            focus,
            rings,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_wait_parsing() {
        assert_eq!(parse_cache_wait(None), Some(DEFAULT_CACHE_WAIT));
        assert_eq!(
            parse_cache_wait(Some("250")),
            Some(Duration::from_millis(250))
        );
        assert_eq!(
            parse_cache_wait(Some(" 250 ")),
            Some(Duration::from_millis(250))
        );
        assert_eq!(parse_cache_wait(Some("0")), None, "0 disables the bound");
        assert_eq!(parse_cache_wait(Some("soon")), Some(DEFAULT_CACHE_WAIT));
    }

    #[test]
    fn overload_knob_parsing() {
        assert_eq!(parse_opt_ms(None, DEFAULT_DEADLINE), Some(DEFAULT_DEADLINE));
        assert_eq!(
            parse_opt_ms(Some("750"), DEFAULT_DEADLINE),
            Some(Duration::from_millis(750))
        );
        assert_eq!(parse_opt_ms(Some("0"), DEFAULT_DEADLINE), None);
        assert_eq!(parse_max_inflight(None), DEFAULT_MAX_INFLIGHT);
        assert_eq!(parse_max_inflight(Some("4")), 4);
        assert_eq!(parse_max_inflight(Some("0")), 0, "0 means unbounded");
        assert_eq!(parse_max_inflight(Some("lots")), DEFAULT_MAX_INFLIGHT);
    }

    #[test]
    fn retry_after_is_clamped() {
        // With few or no samples p95 is tiny; the floor keeps the header honest.
        let secs = retry_after_secs();
        assert!((1..=30).contains(&secs), "{secs}");
    }
}
