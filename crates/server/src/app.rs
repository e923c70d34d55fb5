//! The demo web application: routing and handlers.
//!
//! Endpoints mirror the paper's demonstration (Section V): the advanced
//! search interface with autocomplete and dynamic drop-downs, the
//! bulk-loading interface, per-page views, real-time visualizations
//! (bar/pie/map/graph/hypergraph), recommendations, and live tag clouds.

use crate::http::{url_encode, Request, Response};
use parking_lot::Mutex;
use sensormeta_cache::Status;
use sensormeta_cluster::{ShardSet, Topology};
use sensormeta_obs as obs;
use sensormeta_query::{
    CondOp, Condition, QueryEngine, QueryError, Refreshed, SearchForm, SearchOptions, SortBy,
};
use sensormeta_resil::{self as resil, Breaker, BreakerConfig, Deadline};
use sensormeta_smr::{parse_csv, parse_jsonl};
use sensormeta_tagging::{suggest_tags, CloudCache, CloudParams, TagCloud, TagStore};
use sensormeta_tx::{Mvcc, Snapshot};
use sensormeta_viz as viz;
use serde_json::json;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// Default end-to-end compute budget per request (overridden by
/// `SENSORMETA_DEADLINE_MS`; `0` disables).
const DEFAULT_DEADLINE: Duration = Duration::from_millis(5000);

/// `Warning` header attached to every response served from stale cache, so
/// no degraded answer can masquerade as a fresh one (RFC 9111 §5.5 code 110).
const WARNING_STALE: &str = "110 sensormeta \"response is stale\"";

/// Overload-protection knobs for [`App::with_config`]. [`AppConfig::from_env`]
/// reads the `SENSORMETA_*` variables; tests pass explicit values so they
/// never race on process-global env state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AppConfig {
    /// Per-request compute budget, which also bounds a wait behind an
    /// identical in-flight computation (`None` = no deadline).
    pub deadline: Option<Duration>,
    /// Circuit-breaker tuning shared by the query and tag-cloud backends.
    pub breaker: BreakerConfig,
    /// Serving topology: the number of in-process shards.
    pub topology: Topology,
}

impl Default for AppConfig {
    fn default() -> Self {
        AppConfig {
            deadline: Some(DEFAULT_DEADLINE),
            breaker: BreakerConfig::default(),
            topology: Topology::default(),
        }
    }
}

impl AppConfig {
    /// Reads `SENSORMETA_DEADLINE_MS` and `SENSORMETA_SHARDS`; unset or
    /// unparsable values fall back to the defaults, a deadline of `0`
    /// disables it.
    pub fn from_env() -> AppConfig {
        AppConfig {
            deadline: parse_opt_ms(
                std::env::var("SENSORMETA_DEADLINE_MS").ok().as_deref(),
                DEFAULT_DEADLINE,
            ),
            breaker: BreakerConfig::default(),
            topology: Topology::from_env(),
        }
    }
}

/// Shared application state, organized around MVCC snapshot isolation:
/// every read request opens a [`Snapshot`] of the published engine when
/// it starts and sees one epoch-consistent generation for its whole
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
    /// Per-request compute budget installed as the ambient deadline.
    deadline: Option<Duration>,
    breaker_query: Breaker,
    breaker_cloud: Breaker,
    /// Serving topology (the configured shard count).
    topology: Topology,
    /// Scatter-gather executor when `topology.shards > 1`.
    shards: Option<ShardSet>,
}

/// Reads a millisecond knob: `0` disables it (`None`), unset or
/// unparsable falls back to `default`.
pub(crate) fn parse_opt_ms(raw: Option<&str>, default: Duration) -> Option<Duration> {
    match raw.map(|s| s.trim().parse::<u64>()) {
        Some(Ok(0)) => None,
        Some(Ok(ms)) => Some(Duration::from_millis(ms)),
        Some(Err(_)) | None => Some(default),
    }
}

/// An honest `Retry-After` for every shed response (a full accept
/// backlog, an open circuit): twice the observed end-to-end p95 (the time
/// a retry is likely to need), clamped to 1–30 s.
pub(crate) fn retry_after_secs() -> u64 {
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

/// The metric handles of one label of [`App::route`], resolved from the
/// registry on the label's first request rather than on every request:
/// `http_route_<label>_requests_total`, `http_route_<label>_us`, and one
/// `http_route_<label>_status_<N>xx_total` per status class, registered
/// when the class first occurs.
struct RouteMetrics {
    label: &'static str,
    requests: OnceLock<(obs::Counter, obs::Histogram)>,
    status: [OnceLock<obs::Counter>; 6],
}

impl RouteMetrics {
    const fn new(label: &'static str) -> RouteMetrics {
        RouteMetrics {
            label,
            requests: OnceLock::new(),
            status: [const { OnceLock::new() }; 6],
        }
    }

    /// Counts one request of this route that answered `status` after
    /// `elapsed`.
    fn record(&self, status: u16, elapsed: Duration) {
        let label = self.label;
        let (requests, latency) = self.requests.get_or_init(|| {
            (
                obs::counter(&format!("http_route_{label}_requests_total")),
                obs::histogram(&format!("http_route_{label}_us")),
            )
        });
        requests.inc();
        let class = status / 100;
        let counter = || obs::counter(&format!("http_route_{label}_status_{class}xx_total"));
        match self.status.get(usize::from(class)) {
            Some(slot) => slot.get_or_init(counter).inc(),
            None => counter().inc(),
        }
        latency.record_duration(elapsed);
    }
}

/// A `&'static` [`RouteMetrics`] for a label of [`App::route`].
macro_rules! route {
    ($label:literal) => {{
        static METRICS: RouteMetrics = RouteMetrics::new($label);
        &METRICS
    }};
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
            deadline: cfg.deadline,
            breaker_query: Breaker::new("query", cfg.breaker),
            breaker_cloud: Breaker::new("tagcloud", cfg.breaker),
            topology: cfg.topology,
            shards,
        }
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
    /// read request does when it starts. Exposed for the isolation tests and
    /// the benchmark oracle.
    pub fn engine_snapshot(&self) -> Snapshot<QueryEngine> {
        self.engine.snapshot()
    }

    /// Opens a read snapshot of the live tag store, as `/tags` and
    /// `/suggest_tags` read it. Exposed for the tag-merge tests.
    pub fn tags_snapshot(&self) -> Snapshot<TagStore> {
        self.tags.snapshot()
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
        let seq = self.engine.begin().publish(primary.clone_reader());
        if let Some(set) = &self.shards {
            if set.republish(primary).is_err() {
                obs::counter("cluster_shard_build_failures_total").inc();
            }
        }
        seq
    }

    /// Runs one request under the per-request deadline, recording
    /// per-route request counters, status-class counters and latency
    /// histograms.
    pub fn handle(&self, req: &Request) -> Response {
        static TOTALS: OnceLock<(obs::Counter, obs::Histogram)> = OnceLock::new();
        let start = std::time::Instant::now();
        let (route, resp) = {
            let _scope = resil::deadline_scope(Deadline::from_budget(self.deadline));
            self.route(req)
        };
        let (requests, latency) = TOTALS.get_or_init(|| {
            (
                obs::counter("http_requests_total"),
                obs::histogram("http_request_us"),
            )
        });
        requests.inc();
        route.record(resp.status, start.elapsed());
        latency.record_duration(start.elapsed());
        resp
    }

    /// The route table: each request's response, with the metrics of the
    /// stable label it counts under (`http_route_<label>_…`). Unknown
    /// paths collapse into one label so metrics stay bounded.
    fn route(&self, req: &Request) -> (&'static RouteMetrics, Response) {
        match (req.method.as_str(), req.path.as_str()) {
            ("GET", "/") => (route!("home"), self.home()),
            ("GET", "/search") => (route!("search"), self.search(req)),
            ("GET", "/autocomplete") => (route!("autocomplete"), self.autocomplete(req)),
            ("GET", "/attributes") => (route!("attributes"), self.attributes()),
            ("GET", "/recommend") => (route!("recommend"), self.recommend(req)),
            ("GET", "/tags") => (route!("tags"), self.tag_cloud_svg()),
            ("GET", "/tags.json") => (route!("tags_json"), self.tag_cloud_json()),
            ("GET", "/viz/bar") => (route!("viz_bar"), self.viz_bar(req)),
            ("GET", "/viz/pie") => (route!("viz_pie"), self.viz_pie(req)),
            ("GET", "/viz/map") => (route!("viz_map"), self.viz_map(req)),
            ("GET", "/viz/graph") => (route!("viz_graph"), self.viz_graph(req)),
            ("GET", "/viz/hypergraph") => (route!("viz_hypergraph"), self.viz_hypergraph(req)),
            ("GET", "/sql") => (route!("sql"), self.sql_console(req)),
            ("GET", "/sparql") => (route!("sparql"), self.sparql_console(req)),
            ("GET", "/export.ttl") => (route!("export_ttl"), self.export_turtle()),
            ("GET", "/suggest_tags") => (route!("suggest_tags"), self.suggest_tags(req)),
            ("GET", "/metrics") => (route!("metrics"), Self::metrics(req, false)),
            ("GET", "/metrics.json") => (route!("metrics"), Self::metrics(req, true)),
            ("GET", "/healthz") => (route!("healthz"), self.healthz()),
            ("GET", "/cluster") => (route!("cluster"), self.cluster_status()),
            ("POST", "/bulkload") => (route!("bulkload"), self.bulkload(req)),
            ("POST", "/tag") => (route!("tag"), self.add_tag(req)),
            ("POST", "/admin/cache/clear") => {
                (route!("admin_cache_clear"), self.admin_cache_clear())
            }
            ("GET", p) if p.starts_with("/page/") => {
                (route!("page"), self.page(&p["/page/".len()..]))
            }
            ("GET", _) => (route!("other"), Response::error(404, "not found")),
            _ => (route!("other"), Response::error(405, "method not allowed")),
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
    /// version, else the published engine — then run one path over its
    /// snapshot. A sharded answer is labelled with its shard count.
    fn search(&self, req: &Request) -> Response {
        let form = Self::form_from(req);
        let user = req.param("user");
        let (engine, shards) = match &self.shards {
            Some(set) => (set.coordinator(), Some(set.shard_count())),
            None => (self.engine.snapshot(), None),
        };
        let opts = SearchOptions {
            // A scattered search fans out per request and never fills the
            // result cache.
            bypass: self.shards.is_some() || req.param("cache") == Some("bypass"),
            user,
        };
        let resp = Self::serve_cached(
            &self.breaker_query,
            "search backend unavailable (circuit open)",
            || {
                engine
                    .search_shared(&form, &opts)
                    .map_err(Self::search_error)
            },
            || engine.search_stale(&form, user).map(|(out, _age)| out),
            |out| Self::render_search(req, &form, out),
        );
        match shards {
            Some(n) => resp.with_header("X-Cluster-Shards", n.to_string()),
            None => resp,
        }
    }

    /// The one serve path of a cached read (`/search`, `/tags`,
    /// `/tags.json`): the breaker's check, the lookup, and — when the
    /// backend fails (a 5xx, the errors RFC 5861's `stale-if-error` covers)
    /// or the circuit is open — the value `stale` finds within the staleness
    /// grace, labelled `Cache-Status: stale` with a `Warning`. A degraded
    /// serve is a success for the client and a failure for the breaker; a
    /// client error passes through and counts for neither.
    fn serve_cached<V>(
        breaker: &Breaker,
        circuit_open: &str,
        lookup: impl FnOnce() -> Result<(Arc<V>, Status), Response>,
        stale: impl FnOnce() -> Option<Arc<V>>,
        render: impl FnOnce(&V) -> Response,
    ) -> Response {
        let (value, status) = if breaker.allow() {
            match lookup() {
                Ok(found) => {
                    breaker.record_success();
                    found
                }
                Err(resp) if resp.status >= 500 => {
                    breaker.record_failure();
                    match stale() {
                        Some(value) => (value, Status::Degraded),
                        None => return resp,
                    }
                }
                Err(resp) => return resp,
            }
        } else {
            // Open circuit: don't touch the backend at all — answer from the
            // stale holdover if one exists, shed otherwise.
            match stale() {
                Some(value) => (value, Status::Degraded),
                None => {
                    return Response::error(503, circuit_open)
                        .with_header("Retry-After", retry_after_secs().to_string())
                }
            }
        };
        let resp = render(&value).with_header("Cache-Status", status.as_str());
        if status.is_degraded() {
            resp.with_header("Warning", WARNING_STALE)
        } else {
            resp
        }
    }

    /// Topology introspection: the configured shard count.
    fn cluster_status(&self) -> Response {
        Response::json(json!({ "shards": self.topology.shards }).to_string())
    }

    /// Maps a query failure to an HTTP status: an empty form is the
    /// client's error, everything else the backend's.
    fn search_error(e: QueryError) -> Response {
        let status = match e {
            QueryError::EmptyForm => 400,
            QueryError::DeadlineExceeded => 504,
            _ => 500,
        };
        Response::error(status, e.to_string())
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
        // Serialized committer path: mutate the private primary (one WAL
        // transaction inside bulk_load), bring its derived structures up to
        // date for the titles the load wrote — a load under a third of the
        // corpus re-reads only those pages, a larger one (or the first after
        // a failed refresh) rebuilds, and both derive the same — then
        // publish a reader clone as the next version. Readers on open
        // snapshots are untouched; new requests admit onto the updated
        // engine.
        let titles: Vec<String> = drafts.iter().map(|d| d.title.clone()).collect();
        let mut primary = self.primary.lock();
        let mut report = primary.smr_mut().bulk_load(drafts);
        report.errors.extend(parse_errors);
        if report.aborted {
            // Nothing of the load was applied: there is nothing to derive
            // or publish, and the client must not take it as stored.
            drop(primary);
            let mut response = json_or_500(serde_json::to_string(&report));
            response.status = 500;
            return response;
        }
        let refreshed = match primary.refresh(&titles) {
            Ok(refreshed) => refreshed,
            Err(e) => return Response::error(500, e.to_string()),
        };
        self.publish(&primary);
        // Fold the load's tags into the live store: after a patch, the
        // re-read pages' (the store already holds every other page's,
        // ingested at start-up and by earlier loads); after a rebuild, the
        // whole repository's, which also covers a load whose refresh
        // failed. Tags users added through `POST /tag` exist only in the
        // store and survive.
        let pairs: Vec<(String, String)> = match refreshed {
            Refreshed::Pages(pages) => pages
                .into_iter()
                .flat_map(|p| {
                    let title = p.title;
                    p.tags.into_iter().map(move |tag| (title.clone(), tag))
                })
                .collect(),
            Refreshed::All => primary.smr().all_tags().unwrap_or_default(),
        };
        drop(primary);
        // A load that brings no new pair publishes no tag version.
        let _ = self.tags.commit(|t: &mut TagStore| {
            if t.ingest(pairs.iter().map(|(p, t)| (p.as_str(), t.as_str()))) > 0 {
                Ok(())
            } else {
                Err(())
            }
        });
        json_or_500(serde_json::to_string(&report))
    }

    fn add_tag(&self, req: &Request) -> Response {
        let (Some(page), Some(tag)) = (req.param("page"), req.param("tag")) else {
            return Response::error(400, "need ?page= and ?tag=");
        };
        // A pair already present (or a blank tag) changes nothing, so the
        // commit aborts: no version is published and cached clouds stay valid.
        let added = self
            .tags
            .commit(|t: &mut TagStore| if t.add(page, tag) { Ok(()) } else { Err(()) })
            .is_ok();
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

    /// Drops every result cache (query results and tag clouds), so the next
    /// request on each path recomputes from the stores.
    fn admin_cache_clear(&self) -> Response {
        self.engine.snapshot().clear_caches();
        self.cloud_cache.clear();
        obs::counter("cache_admin_clears_total").inc();
        Response::json(json!({"cleared": true}).to_string())
    }

    /// The tag cloud behind the `tagcloud` breaker, pinned at the tag
    /// snapshot's sequence number and rendered by `render`.
    fn cloud(&self, render: impl FnOnce(&TagCloud) -> Response) -> Response {
        let params = CloudParams::default();
        let tags = self.tags.snapshot();
        Self::serve_cached(
            &self.breaker_cloud,
            "tag cloud unavailable (circuit open)",
            || {
                self.cloud_cache
                    .get(&tags, tags.seq(), &params)
                    .map_err(|i| match i {
                        resil::Interrupt::DeadlineExceeded => Response::error(504, i.to_string()),
                        resil::Interrupt::Fault { .. } => Response::error(500, i.to_string()),
                    })
            },
            || {
                self.cloud_cache
                    .stale(&params, tags.seq())
                    .map(|(c, _age)| c)
            },
            render,
        )
    }

    fn tag_cloud_svg(&self) -> Response {
        self.cloud(|cloud| Response::svg(viz::render_tag_cloud("Metadata trends", cloud)))
    }

    fn tag_cloud_json(&self) -> Response {
        self.cloud(|cloud| {
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
            Response::json(serde_json::Value::Array(arr).to_string())
        })
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
        let (semantic, hyperlink, titles) = engine.link_graphs();
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
        let (_, hyperlink, titles) = engine.link_graphs();
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
            hyperlink,
            titles,
            focus,
            rings,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retry_after_is_clamped() {
        // With few or no samples p95 is tiny; the floor keeps the header honest.
        let secs = retry_after_secs();
        assert!((1..=30).contains(&secs), "{secs}");
    }
}
