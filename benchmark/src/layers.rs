//! The traced in-process pass: per-layer timings from the harness's own
//! span recorder, around calls into each crate's public functions.
//!
//! Tracing inside the program is a later issue; until then the layers a
//! request crosses inside `App::handle` are timed by executing the same
//! public stages again, next to the request, on a second engine over the
//! same snapshot.

use crate::catalog::PER_LAYER;
use crate::stats::mean_us;
use crate::workloads::{Corpus, Req, Route};
use sensormeta::cluster::{ShardSet, Topology};
use sensormeta::graph::CsrGraph;
use sensormeta::query::{CondOp, QueryEngine, SearchForm, SearchOptions};
use sensormeta::rank::{GaussSeidel, PageRankProblem, Solver, TransitionMatrix};
use sensormeta::search::SearchIndex;
use sensormeta::server::http::read_request;
use sensormeta::server::{App, AppConfig};
use sensormeta::smr::{sql_escape, Smr};
use sensormeta::tagging::{compute_cloud, suggest_tags, CloudParams, TagStore};
use sensormeta::viz;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// One recorded span. Spans of one request share `request`.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub request: usize,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

/// In-memory span recorder; written out when the benchmark ends.
pub struct Recorder {
    t0: Instant,
    enabled: bool,
    request: usize,
    stack: Vec<usize>,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            t0: Instant::now(),
            enabled,
            request: 0,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Runs `f` inside a span called `name`, a child of the span open on
    /// entry. A disabled recorder just runs `f`.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name: name.to_owned(),
            request: self.request,
            start_ns: self.t0.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.stack.last().copied(),
        });
        self.stack.push(index);
        let out = f(self);
        self.stack.pop();
        self.spans[index].end_ns = self.t0.elapsed().as_nanos() as u64;
        out
    }

    /// Inclusive and self time (span minus children) per span name, ns.
    pub fn totals(&self) -> BTreeMap<String, (Vec<u64>, Vec<u64>)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<String, (Vec<u64>, Vec<u64>)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let inclusive = s.end_ns - s.start_ns;
            let entry = out.entry(s.name.clone()).or_default();
            entry.0.push(inclusive);
            entry.1.push(inclusive.saturating_sub(child_ns[i]));
        }
        out
    }

    /// The spans as a JSON array (name, request, start, end, parent).
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                format!(
                    "{{\"name\":\"{}\",\"request\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{}}}",
                    s.name,
                    s.request,
                    s.start_ns,
                    s.end_ns,
                    s.parent.map_or("null".to_owned(), |p| p.to_string())
                )
            })
            .collect();
        format!("[{}]", rows.join(",\n"))
    }
}

type Error = Box<dyn std::error::Error>;

fn open_engine(snapshot: &Path) -> Result<QueryEngine, Error> {
    Ok(QueryEngine::open(Smr::load(snapshot)?)?)
}

fn open_app(snapshot: &Path, shards: usize) -> Result<App, Error> {
    let cfg = AppConfig {
        topology: Topology {
            shards,
            ..Topology::default()
        },
        ..AppConfig::default()
    };
    Ok(App::with_config(open_engine(snapshot)?, cfg))
}

/// Replays `reqs` through parse → handle → write on `app`, one root span per
/// request. Returns the nanoseconds spent in the three calls.
fn replay(app: &App, reqs: &[&Req], rec: &mut Recorder) -> Result<u64, Error> {
    let mut total = 0u64;
    for (i, req) in reqs.iter().enumerate() {
        rec.request = i;
        let bytes = req.wire_bytes();
        let started = Instant::now();
        rec.span("request", |rec| -> Result<(), Error> {
            let parsed = rec.span("server.parse", |_| read_request(&mut &bytes[..]))?;
            let resp = rec.span("server.handle", |_| app.handle(&parsed));
            if !(200..300).contains(&resp.status) {
                return Err(format!("replay of {} answered {}", req.target, resp.status).into());
            }
            let class = match req.route {
                Route::Search => {
                    let hit = resp
                        .headers
                        .iter()
                        .any(|(k, v)| k == "Cache-Status" && v == "hit");
                    if hit {
                        "search_hit"
                    } else {
                        "search_miss"
                    }
                }
                Route::TagsJson => "tags",
                other => other.name(),
            };
            if let Some(span) = rec.spans.last_mut() {
                span.name = format!("server.handle.{class}");
            }
            rec.span("server.write", |_| resp.write_to(&mut Vec::new()))?;
            Ok(())
        })?;
        total += started.elapsed().as_nanos() as u64;
    }
    Ok(total)
}

/// Executes the stages of `QueryEngine::search_uncached` one by one, each in
/// its own span, from the engine's public stage functions.
fn staged_search(probe: &QueryEngine, form: &SearchForm, rec: &mut Recorder) -> Result<(), Error> {
    rec.span("query.staged", |rec| -> Result<(), Error> {
        let scores = rec.span("query.keyword", |_| probe.keyword_score_map(form))?;
        let mut cond_sets = Vec::new();
        for cond in &form.conditions {
            let mut titles = Vec::new();
            if cond.op == CondOp::Eq {
                titles = rec.span("query.conditions_sparql", |_| {
                    probe.sparql_condition_titles(cond)
                })?;
            }
            if titles.is_empty() {
                titles = rec.span("query.conditions_sql", |_| probe.sql_condition_titles(cond))?;
            }
            cond_sets.push(probe.resolve_title_set(titles));
        }
        let partial = rec.span("query.assemble", |_| {
            probe.assemble_partial(form, None, scores.as_ref(), &cond_sets, None)
        })?;
        rec.span("query.finalize", |_| {
            probe.finalize_partials(form, scores.as_ref(), vec![partial])
        })?;
        Ok(())
    })
}

fn time_ns<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let started = Instant::now();
    let out = std::hint::black_box(f());
    (out, started.elapsed().as_nanos() as u64)
}

/// Mean nanoseconds of `f` over `n` calls.
fn mean_ns(n: usize, mut f: impl FnMut(usize)) -> f64 {
    let started = Instant::now();
    for i in 0..n {
        f(i);
    }
    started.elapsed().as_nanos() as f64 / n as f64
}

/// The metrics of the traced pass and the span dump.
pub struct Traced {
    pub metrics: BTreeMap<&'static str, f64>,
    pub trace_json: String,
    /// Mean `App::handle` time over the replayed requests, whatever their
    /// route: the in-process counterpart of `server_cpu_ms_per_req`.
    pub handle_mean_us: f64,
}

/// Runs the traced pass for one workload over `snapshot`: an untraced and a
/// traced replay of `reqs` on fresh applications that have served `warmup`,
/// the per-search stage breakdown, and the timings of each layer's public
/// functions on the corpus.
pub fn traced_pass(
    snapshot: &Path,
    work_dir: &Path,
    corpus: &Corpus,
    warmup: &[&Req],
    reqs: &[&Req],
    shards: usize,
) -> Result<Traced, Error> {
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();

    // The second engine is opened first: opening a store bumps the
    // process-wide epoch clock, which would empty the caches of an
    // application warmed before it.
    let probe = open_engine(snapshot)?;

    // Untraced, then traced, each on an application of its own in the state
    // the wire run's warm-up leaves a server in.
    let warmed = || -> Result<App, Error> {
        let app = open_app(snapshot, shards)?;
        replay(&app, warmup, &mut Recorder::new(false))?;
        Ok(app)
    };
    let untraced_ns = replay(&warmed()?, reqs, &mut Recorder::new(false))?;
    let app = warmed()?;
    let mut rec = Recorder::new(true);
    let traced_ns = replay(&app, reqs, &mut rec)?;
    m.insert(
        "trace.overhead_ratio",
        traced_ns as f64 / untraced_ns as f64 - 1.0,
    );

    // Stage breakdown of every replayed search, on the second engine so the
    // application's own caches stay as the replay left them. Its caches are
    // cleared before each execution: every one starts cold, as a distinct
    // form does on the wire.
    let forms: Vec<&SearchForm> = reqs.iter().filter_map(|r| r.form.as_ref()).collect();
    let opts = SearchOptions::default();
    for (i, form) in forms.iter().enumerate() {
        rec.request = i;
        rec.span("tx.snapshot", |_| drop(app.engine_snapshot()));
        probe.clear_caches();
        staged_search(&probe, form, &mut rec)?;
        probe.clear_caches();
        rec.span("query.uncached", |_| probe.search_uncached(form, None))?;
        probe.clear_caches();
        rec.span("cache.miss", |_| probe.search_shared(form, &opts))?;
        rec.span("cache.hit", |_| probe.search_shared(form, &opts))?;
    }

    let totals = rec.totals();
    let mean = |name: &str| totals.get(name).map_or(0.0, |(incl, _)| mean_us(incl));
    let count = |name: &str| totals.get(name).map_or(0, |(incl, _)| incl.len());
    // Stage means are per search (a stage a form does not have counts as
    // zero), so they add up to the mean of the staged whole.
    let per_search = |name: &str| {
        totals.get(name).map_or(0.0, |(incl, _)| {
            incl.iter().sum::<u64>() as f64 / forms.len().max(1) as f64 / 1e3
        })
    };
    m.insert("server.parse_us", mean("server.parse"));
    m.insert("server.write_us", mean("server.write"));
    // `server.handle_us.<class>` is the span `server.handle.<class>`; the
    // hypergraph, which no workload issues, is timed with the layer functions.
    for metric in PER_LAYER.iter().map(|m| m.name) {
        if let Some(class) = metric.strip_prefix("server.handle_us.") {
            m.insert(metric, mean(&format!("server.handle.{class}")));
        }
    }
    m.insert("tx.snapshot_us", mean("tx.snapshot"));
    m.insert("query.uncached_us", mean("query.uncached"));
    m.insert("query.keyword_us", per_search("query.keyword"));
    m.insert(
        "query.conditions_sparql_us",
        per_search("query.conditions_sparql"),
    );
    m.insert(
        "query.conditions_sql_us",
        per_search("query.conditions_sql"),
    );
    m.insert("query.assemble_us", per_search("query.assemble"));
    m.insert("query.finalize_us", per_search("query.finalize"));
    m.insert("cache.hit_us", mean("cache.hit"));
    m.insert(
        "cache.miss_overhead_us",
        mean("cache.miss") - mean("query.uncached"),
    );
    m.insert(
        "server.render_self_us",
        if count("server.handle.search_miss") > 0 {
            mean("server.handle.search_miss") - mean("query.uncached")
        } else {
            0.0
        },
    );

    let handles: Vec<u64> = totals
        .iter()
        .filter(|(name, _)| name.starts_with("server.handle."))
        .flat_map(|(_, (incl, _))| incl.iter().copied())
        .collect();
    layer_functions(&mut m, snapshot, work_dir, corpus, &app, &probe, &forms)?;
    Ok(Traced {
        metrics: m,
        trace_json: rec.to_json(),
        handle_mean_us: mean_us(&handles),
    })
}

/// Times each layer's public functions on the corpus and on `forms`.
fn layer_functions(
    m: &mut BTreeMap<&'static str, f64>,
    snapshot: &Path,
    work_dir: &Path,
    corpus: &Corpus,
    app: &App,
    probe: &QueryEngine,
    forms: &[&SearchForm],
) -> Result<(), Error> {
    let smr = probe.smr();
    let titles = smr.page_titles()?;

    // server: the one route no workload issues.
    let hyper = read_request(&mut &b"GET /viz/hypergraph HTTP/1.1\r\n\r\n"[..])?;
    m.insert(
        "server.handle_us.viz_hypergraph",
        mean_ns(5, |_| drop(app.handle(&hyper))) / 1e3,
    );

    // search: the index build the engine does on every rebuild, BM25 without
    // the index's query cache, and autocomplete.
    let docs: Vec<(String, String)> = corpus
        .drafts
        .iter()
        .map(|d| (d.title.clone(), format!("{} {}", d.title, d.body)))
        .collect();
    let (index, build_ns) = time_ns(|| SearchIndex::build(&docs));
    m.insert("search.index_build_ms", build_ns as f64 / 1e6);
    m.insert(
        "search.bm25_us",
        mean_ns(forms.len().max(1), |i| {
            if let Some(f) = forms.get(i) {
                std::hint::black_box(index.search(&f.keywords, usize::MAX));
            }
        }) / 1e3,
    );
    m.insert(
        "search.autocomplete_us",
        mean_ns(200, |i| {
            let t = &titles[i * 7 % titles.len()];
            let prefix = t.split(':').nth(1).unwrap_or(t);
            std::hint::black_box(probe.autocomplete(&prefix[..prefix.len().min(3)], 10));
        }) / 1e3,
    );

    // rdf and relstore: the two condition queries as the engine words them.
    let conds: Vec<_> = forms.iter().flat_map(|f| &f.conditions).collect();
    let (mut sparql_ns, mut sparql_n, mut sql_ns, mut sql_n) = (0u64, 0u64, 0u64, 0u64);
    for c in &conds {
        if c.op == CondOp::Eq {
            let q = format!(
                "PREFIX prop: <http://swiss-experiment.ch/property/> \
                 SELECT ?t WHERE {{ ?page prop:{} \"{}\" . ?page prop:title ?t }}",
                c.attribute, c.value
            );
            sparql_ns += time_ns(|| smr.sparql(&q)).1;
            sparql_n += 1;
        } else {
            let q = format!(
                "SELECT p.title, a.value FROM annotations a JOIN pages p ON a.page_id = p.id \
                 WHERE a.attribute = '{}'",
                sql_escape(&c.attribute)
            );
            sql_ns += time_ns(|| smr.sql(&q)).1;
            sql_n += 1;
        }
    }
    m.insert(
        "rdf.sparql_us",
        sparql_ns as f64 / sparql_n.max(1) as f64 / 1e3,
    );
    m.insert(
        "relstore.sql_select_us",
        sql_ns as f64 / sql_n.max(1) as f64 / 1e3,
    );

    // smr: page read, link graphs, a 10-page load on a reader clone (the
    // server's /bulkload path) and on a durable copy (for the log).
    m.insert(
        "smr.get_page_us",
        mean_ns(500, |i| {
            std::hint::black_box(smr.get_page(&titles[i * 13 % titles.len()]).ok());
        }) / 1e3,
    );
    let (graphs, graphs_ns) = time_ns(|| smr.link_graphs());
    let (semantic, hyperlink, graph_titles) = graphs?;
    m.insert("smr.link_graphs_ms", graphs_ns as f64 / 1e6);
    let batch = || {
        corpus.drafts.iter().take(10).cloned().map(|mut d| {
            d.body.push_str(" Revised.");
            d
        })
    };
    let mut clone = smr.clone_reader();
    let (_, load_ns) = time_ns(|| clone.bulk_load(batch()));
    m.insert("smr.bulk_load_ms_per_page", load_ns as f64 / 1e6 / 10.0);
    let durable_path = work_dir.join("durable.snap");
    std::fs::copy(snapshot, &durable_path)?;
    let (mut durable, _) = Smr::open_durable(&durable_path)?;
    let wal_bytes = sensormeta::obs::counter("relstore_wal_appended_bytes_total");
    let wal_fsyncs = sensormeta::obs::counter("relstore_wal_fsyncs_total");
    let (bytes0, fsyncs0) = (wal_bytes.get(), wal_fsyncs.get());
    durable.bulk_load(batch());
    m.insert(
        "relstore.wal_bytes_per_page",
        (wal_bytes.get() - bytes0) as f64 / 10.0,
    );
    m.insert("relstore.wal_fsyncs", (wal_fsyncs.get() - fsyncs0) as f64);
    drop(durable);
    for leftover in [
        sensormeta::relstore::wal_path_for(&durable_path),
        durable_path,
    ] {
        let _ = std::fs::remove_file(leftover);
    }

    // rank and query: what every commit recomputes.
    let blend = sensormeta::query::RankBlend::default();
    let problem = PageRankProblem::with_c(
        TransitionMatrix::double_link(&semantic, &hyperlink, blend.semantic_alpha),
        blend.c,
    );
    let (solution, solve_ns) = time_ns(|| GaussSeidel.solve(&problem, 1e-10, 1000));
    m.insert("rank.solve_ms", solve_ns as f64 / 1e6);
    m.insert("rank.iterations", solution.iterations as f64);
    let mut rebuilt = probe.clone_reader();
    rebuilt.clear_caches();
    let (rebuilt_ok, rebuild_ns) = time_ns(|| rebuilt.rebuild());
    rebuilt_ok?;
    m.insert("query.rebuild_ms", rebuild_ns as f64 / 1e6);

    // tagging and viz: what /tag invalidates and /tags recomputes.
    let pairs = smr.all_tags()?;
    let mut tags = TagStore::new();
    let (_, ingest_ns) =
        time_ns(|| tags.ingest(pairs.iter().map(|(p, t)| (p.as_str(), t.as_str()))));
    m.insert("tagging.ingest_ms", ingest_ns as f64 / 1e6);
    let (cloud, cloud_ns) = time_ns(|| compute_cloud(&tags, &CloudParams::default()));
    m.insert("tagging.cloud_compute_ms", cloud_ns as f64 / 1e6);
    m.insert(
        "tagging.suggest_us",
        mean_ns(20, |i| {
            std::hint::black_box(suggest_tags(&tags, &titles[i * 31 % titles.len()], 5));
        }) / 1e3,
    );
    m.insert(
        "viz.tagcloud_render_us",
        mean_ns(50, |_| {
            std::hint::black_box(viz::render_tag_cloud("Metadata trends", &cloud));
        }) / 1e3,
    );
    // The first 60 nodes of the hyperlink graph, as /viz/graph draws them.
    let n = graph_titles.len().min(60);
    let edges: Vec<(usize, usize)> = hyperlink
        .iter_edges()
        .filter(|(u, v)| *u < n && *v < n)
        .collect();
    let sub = CsrGraph::from_edges(n, &edges, true);
    let classes = viz::classify_by_neighbors(&sub);
    let nodes: Vec<viz::GraphNode> = (0..n)
        .map(|v| viz::GraphNode {
            label: graph_titles[v].clone(),
            class: classes[v],
        })
        .collect();
    m.insert(
        "viz.graph_ms",
        mean_ns(5, |_| {
            std::hint::black_box(viz::render_digraph(
                "Metadata associations",
                &sub,
                &nodes,
                viz::GraphLayout::Force,
            ));
        }) / 1e6,
    );
    let in_degrees = hyperlink.in_degrees();
    let focus = (0..graph_titles.len())
        .max_by_key(|&v| in_degrees[v] + hyperlink.out_degree(v))
        .unwrap_or(0);
    m.insert(
        "viz.hypergraph_ms",
        mean_ns(5, |_| {
            std::hint::black_box(viz::render_hypergraph(
                "Hypergraph",
                &hyperlink,
                &graph_titles,
                focus,
                2,
            ));
        }) / 1e6,
    );

    // cluster: the scatter at two shards on the replayed forms.
    let set = ShardSet::build(probe, 2)?;
    let (mut search_ns, mut critical_us) = (0u64, 0u64);
    for form in forms {
        let (traced, ns) = time_ns(|| set.search_traced(form, None));
        search_ns += ns;
        critical_us += traced?.1.critical_path_us();
    }
    let nforms = forms.len().max(1) as f64;
    m.insert("cluster.search_us", search_ns as f64 / nforms / 1e3);
    m.insert("cluster.critical_path_us", critical_us as f64 / nforms);
    let (republished, republish_ns) = time_ns(|| set.republish(probe));
    republished?;
    m.insert("cluster.republish_ms", republish_ns as f64 / 1e6);

    // obs: the cache-hit path with the registry recording and not.
    if let Some(hit) = forms.first() {
        let target = format!(
            "GET /search?q={} HTTP/1.1\r\n\r\n",
            sensormeta::server::url_encode(&hit.keywords)
        );
        let req = read_request(&mut target.as_bytes())?;
        app.handle(&req);
        let registry = sensormeta::obs::global();
        let (mut on, mut off) = (Vec::new(), Vec::new());
        for _ in 0..7 {
            registry.set_enabled(true);
            on.push(mean_ns(300, |_| drop(app.handle(&req))));
            registry.set_enabled(false);
            off.push(mean_ns(300, |_| drop(app.handle(&req))));
        }
        registry.set_enabled(true);
        m.insert(
            "obs.hit_path_overhead_ratio",
            crate::stats::median(&on) / crate::stats::median(&off) - 1.0,
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children() {
        let mut rec = Recorder::new(true);
        rec.span("parent", |rec| {
            rec.span("child", |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
            rec.span("child", |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
            std::thread::sleep(std::time::Duration::from_millis(3));
        });
        assert_eq!(rec.spans[1].parent, Some(0));
        assert_eq!(rec.spans[0].parent, None);
        let totals = rec.totals();
        let (parent_incl, parent_self) = &totals["parent"];
        let children: u64 = totals["child"].0.iter().sum();
        assert_eq!(parent_self[0], parent_incl[0] - children);
        assert!(parent_self[0] >= 3_000_000 && parent_self[0] < parent_incl[0]);
        assert!(rec.to_json().contains("\"parent\":0"));
    }

    #[test]
    fn a_disabled_recorder_records_nothing() {
        let mut rec = Recorder::new(false);
        assert_eq!(rec.span("x", |rec| rec.span("y", |_| 7)), 7);
        assert!(rec.spans.is_empty());
    }
}
