//! The Query Management module (Fig. 1).
//!
//! Owns the SMR plus every derived structure: the full-text index, the
//! autocomplete trie, double-link PageRank scores, and the recommender.
//! Query execution combines the relational store (numeric conditions via
//! SQL), the RDF mirror (exact semantic conditions via SPARQL), and the
//! inverted index (keywords), then ranks by the blended BM25 × PageRank
//! metric and attaches facets and recommendations.

use crate::acl::Acl;
use crate::error::{QueryError, Result};
use crate::form::{CondOp, Condition, SearchForm, SortBy};
use crate::result::{FacetCount, QueryOutput, RecommendedPage, ResultItem};
use sensormeta_cache::{
    stale_grace_from_env, Cache, CacheConfig, CacheError, Domain, EpochVector, Fingerprint, Status,
};
use sensormeta_obs as obs;
use sensormeta_par::Pool;
use sensormeta_rank::{GaussSeidel, PageRankProblem, Recommender, Solver, TransitionMatrix};
use sensormeta_resil::{self as resil, Deadline};
use sensormeta_search::{Autocomplete, SearchIndex, SpellSuggester};
use sensormeta_smr::{sql_escape, Page, Smr};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Largest running-intersection size still worth pushing into SQL as a
/// `p.title IN (...)` list during condition semi-joins. Beyond this the
/// literal list outgrows the scan it saves.
const SEMIJOIN_PUSHDOWN_CAP: usize = 128;

/// Ranking blend: `score = (1−w)·bm25_norm + w·pagerank_norm` when keywords
/// are present; pure PageRank otherwise.
#[derive(Debug, Clone, Copy)]
pub struct RankBlend {
    /// PageRank weight `w`.
    pub pagerank_weight: f64,
    /// Double-link alpha (semantic share; see `TransitionMatrix::double_link`).
    pub semantic_alpha: f64,
    /// Teleportation coefficient `c` of Eq. 2.
    pub c: f64,
}

impl Default for RankBlend {
    fn default() -> Self {
        RankBlend {
            pagerank_weight: 0.3,
            semantic_alpha: 0.5,
            c: 0.85,
        }
    }
}

/// Epoch domains a combined query result depends on: relational rows (SQL
/// conditions, page bodies), the triple mirror (SPARQL conditions), the
/// inverted index (keywords) and the web graph (PageRank blending).
const RESULT_DEPS: &[Domain] = &[
    Domain::Relational,
    Domain::Triples,
    Domain::SearchIndex,
    Domain::WebGraph,
];

/// Byte budget for cached combined results.
const RESULT_CACHE_CAPACITY: usize = 16 << 20;

/// Per-request cache controls for [`QueryEngine::search_shared`].
#[derive(Debug, Clone, Copy, Default)]
pub struct SearchOptions<'a> {
    /// Skip the cache entirely (compute fresh, store nothing).
    pub bypass: bool,
    /// Upper bound on blocking behind an identical in-flight query; `None`
    /// waits indefinitely (bounded by `deadline` either way). Expired waits
    /// return [`QueryError::CacheBusy`].
    pub wait: Option<Duration>,
    /// End-to-end request budget. Installed as the ambient resil deadline
    /// for the whole execution, so the index scans, condition evaluation and
    /// result assembly all observe it cooperatively; expiry surfaces as
    /// [`QueryError::DeadlineExceeded`].
    pub deadline: Deadline,
    /// Requesting user (ACL identity) — part of the cache key, since result
    /// visibility is per user.
    pub user: Option<&'a str>,
    /// Permit answering a backend failure or deadline expiry from the cache
    /// within its staleness grace window. Such responses are labeled
    /// [`Status::Degraded`]; callers must surface the label.
    pub stale_ok: bool,
    /// The MVCC snapshot's epoch vector this request is pinned at. When set,
    /// cache entries are keyed and validated against it instead of the live
    /// clock, so a reader on an old snapshot neither sees results from a
    /// newer generation nor misses just because a writer committed mid-read.
    pub at: Option<EpochVector>,
}

/// One shard's contribution to a scattered search: assembled result rows
/// carrying *raw* (unnormalized) BM25 and unblended scores, plus the shard's
/// facet counts. Produced by [`QueryEngine::assemble_partial`]; partials that
/// cover the corpus exactly once merge back into the single-store output
/// through [`QueryEngine::finalize_partials`].
#[derive(Debug, Default)]
pub struct ShardPartial {
    /// `(raw item, page row)` pairs surviving the ACL, namespace and region
    /// filters. The page row rides along for attribute sorting.
    pub items: Vec<(ResultItem, Page)>,
    /// Facet counts over this shard's visible pages (counted before the
    /// region filter, exactly as in the single-store path).
    pub facets: BTreeMap<(String, String), usize>,
}

/// Per-task service times from one search.
///
/// In-process shards stand in for cluster nodes, so the number that scales
/// with shard count is per-*task* service time, not single-box wall clock
/// (on a box with fewer cores than shards the pool interleaves tasks and
/// wall clock flattens). [`ScatterTrace::critical_path_us`] models the read
/// latency a one-worker-per-shard deployment would see: the slowest task of
/// each scattered stage plus the serial coordinator work.
#[derive(Debug, Clone, Default)]
pub struct ScatterTrace {
    /// Stage-2 condition evaluation, µs accumulated per shard view.
    pub condition_task_us: Vec<u64>,
    /// Stage-3/4 candidate assembly, µs per shard view.
    pub assemble_task_us: Vec<u64>,
    /// Serial coordinator work (keyword scoring, condition ordering,
    /// title-set resolution, finalization), µs.
    pub serial_us: u64,
}

impl ScatterTrace {
    /// Modeled critical-path latency of the read: the slowest task of each
    /// scattered stage plus the serial coordinator work.
    pub fn critical_path_us(&self) -> u64 {
        self.condition_task_us.iter().copied().max().unwrap_or(0)
            + self.assemble_task_us.iter().copied().max().unwrap_or(0)
            + self.serial_us
    }
}

/// One partition of a sharded engine: the coordinator's global derived
/// structures (index, PageRank, titles, recommender — everything ranking
/// depends on) over a repository holding only the pages the shard owns.
/// Views evaluate conditions and assemble results against their own store
/// while scoring with collection-global statistics, which is what keeps
/// scattered results byte-identical to the single store. They are reachable
/// only through the coordinator's executor: a view's outputs are partial by
/// design and must never be served (or cached) as whole-corpus results.
struct ShardView {
    engine: QueryEngine,
    /// Dense page ids the shard owns; assembly is restricted to these.
    owned: HashSet<usize>,
}

/// What the search executor scatters over: an engine whose store holds the
/// pages to evaluate, and the dense ids assembly keeps (`None` = all).
struct View<'a> {
    engine: &'a QueryEngine,
    owned: Option<&'a HashSet<usize>>,
}

/// The scatter half of the executor: runs one task per view on the global
/// pool and accounts the time spent. A single view runs inline on the
/// caller, so the single store pays no pool region.
struct Scatter<'a> {
    views: &'a [View<'a>],
    /// Wall clock spent inside scattered regions, µs.
    wall_us: u64,
}

impl Scatter<'_> {
    /// Runs `task` once per view, adding each task's service time to its
    /// view's slot of `task_us`; results come back in view order. The
    /// caller's ambient deadline follows the tasks onto the pool threads.
    fn run<T: Send>(
        &mut self,
        task_us: &mut [u64],
        task: impl Fn(&View<'_>) -> Result<T> + Sync,
    ) -> Result<Vec<T>> {
        let deadline = resil::current_deadline();
        let region = Instant::now();
        let parts = Pool::global().par_map_collect(self.views, 1, |view| {
            let _scope = resil::deadline_scope(deadline);
            let started = Instant::now();
            let out = task(view);
            (out, started.elapsed().as_micros() as u64)
        });
        self.wall_us += region.elapsed().as_micros() as u64;
        parts
            .into_iter()
            .zip(task_us)
            .map(|((out, us), slot)| {
                *slot += us;
                out
            })
            .collect()
    }
}

/// The query engine over one SMR.
///
/// Every derived structure sits behind an `Arc`: [`QueryEngine::rebuild`]
/// replaces them wholesale, so a [`QueryEngine::clone_reader`] snapshot keeps
/// the versions that were current when it was taken while the primary moves
/// on — the MVCC publication path clones in O(fields), not O(corpus).
pub struct QueryEngine {
    smr: Smr,
    acl: Acl,
    blend: RankBlend,
    index: Arc<SearchIndex>,
    autocomplete: Arc<Autocomplete>,
    /// title → dense page id (indexes `titles` / `pagerank`).
    title_ids: Arc<HashMap<String, usize>>,
    titles: Arc<Vec<String>>,
    /// PageRank per dense id, normalized so max = 1.
    pagerank: Arc<Vec<f64>>,
    recommender: Arc<Recommender>,
    /// Attribute-name dictionary for the recommender's property ids.
    prop_names: Arc<Vec<String>>,
    suggester: Arc<SpellSuggester>,
    /// Combined SQL+SPARQL+keyword result cache (see [`RESULT_DEPS`]).
    /// Shared between the primary and its reader snapshots, so a result
    /// computed through any snapshot benefits every concurrent request.
    results: Arc<Cache<QueryOutput>>,
    /// Partition views a search scatters over (see
    /// [`QueryEngine::with_partitions`]); empty for the single store, which
    /// searches its own repository as the one view.
    shards: Arc<[ShardView]>,
}

fn weigh_output(out: &QueryOutput) -> usize {
    let items: usize = out
        .items
        .iter()
        .map(|i| std::mem::size_of_val(i) + i.title.len() + i.namespace.len() + i.snippet.len())
        .sum();
    let facets: usize = out
        .facets
        .iter()
        .map(|f| std::mem::size_of_val(f) + f.attribute.len() + f.value.len())
        .sum();
    let recs: usize = out
        .recommendations
        .iter()
        .map(|r| {
            std::mem::size_of_val(r)
                + r.title.len()
                + r.shared_properties.iter().map(String::len).sum::<usize>()
        })
        .sum();
    items + facets + recs + out.did_you_mean.as_deref().map_or(0, str::len)
}

fn result_cache() -> Cache<QueryOutput> {
    let mut cfg = CacheConfig::new("query_results", RESULT_CACHE_CAPACITY, RESULT_DEPS);
    // Wall-clock backstop on top of epoch invalidation.
    cfg.ttl = Some(Duration::from_secs(120));
    cfg.stale_grace = stale_grace_from_env();
    Cache::new(cfg, weigh_output)
}

impl QueryEngine {
    /// Builds the engine, indexing the repository and solving double-link
    /// PageRank with the Gauss–Seidel method (the paper's choice from
    /// Fig. 3).
    pub fn build(smr: Smr, acl: Acl, blend: RankBlend) -> Result<QueryEngine> {
        let mut engine = QueryEngine {
            smr,
            acl,
            blend,
            index: Arc::new(SearchIndex::new()),
            autocomplete: Arc::new(Autocomplete::new()),
            title_ids: Arc::new(HashMap::new()),
            titles: Arc::new(Vec::new()),
            pagerank: Arc::new(Vec::new()),
            recommender: Arc::new(Recommender::new(Vec::new(), Vec::new())),
            prop_names: Arc::new(Vec::new()),
            suggester: Arc::new(SpellSuggester::new()),
            results: Arc::new(result_cache()),
            shards: Arc::default(),
        };
        engine.rebuild()?;
        Ok(engine)
    }

    /// Builds with an open ACL and default blend.
    pub fn open(smr: Smr) -> Result<QueryEngine> {
        Self::build(smr, Acl::open(), RankBlend::default())
    }

    /// Recomputes every derived structure from the current SMR contents.
    /// Call after bulk loads; PageRank "scores need to be updated regularly
    /// as new metadata pages are continuously created".
    pub fn rebuild(&mut self) -> Result<()> {
        let _timing = obs::span("query_rebuild");
        // Shield the rebuild from any ambient request deadline: a half-built
        // index or rank vector must never escape, so write paths run to
        // completion regardless of the caller's budget.
        let _shield = resil::shield();
        obs::counter("query_rebuilds_total").inc();
        let (semantic, hyperlink, titles) = self.smr.link_graphs()?;
        let title_ids: HashMap<String, usize> = titles
            .iter()
            .enumerate()
            .map(|(i, t)| (t.clone(), i))
            .collect();

        // PageRank over the double linking structure.
        let pagerank: Vec<f64> = if titles.is_empty() {
            Vec::new()
        } else {
            let matrix =
                TransitionMatrix::double_link(&semantic, &hyperlink, self.blend.semantic_alpha);
            let problem = PageRankProblem::with_c(matrix, self.blend.c);
            let solution = GaussSeidel.solve(&problem, 1e-10, 1000);
            let max = solution.x.iter().copied().fold(f64::MIN_POSITIVE, f64::max);
            solution.x.iter().map(|v| v / max).collect()
        };

        // Full-text index + autocomplete + recommender incidence. Document
        // text assembly stays serial (SMR access, property interning); the
        // tokenize-heavy index construction then runs as one parallel batch.
        // Everything is built into locals and published wholesale below, so
        // a reader snapshot taken mid-rebuild still sees the old generation.
        let _index_timing = obs::span("search_index_build");
        let mut autocomplete = Autocomplete::new();
        let mut prop_ids: HashMap<String, u32> = HashMap::new();
        let mut prop_names: Vec<String> = Vec::new();
        let mut page_props: Vec<Vec<u32>> = vec![Vec::new(); titles.len()];
        let mut docs: Vec<(String, String)> = Vec::with_capacity(titles.len());
        for (i, title) in titles.iter().enumerate() {
            let page = self
                .smr
                .get_page(title)?
                .ok_or_else(|| QueryError::Internal(format!("page `{title}` vanished")))?;
            // Index title words, body, annotation values, and tags together.
            let mut text = format!("{} {}", page.title.replace([':', '_'], " "), page.body);
            for (a, v) in &page.annotations {
                text.push(' ');
                text.push_str(v);
                let id = match prop_ids.get(a) {
                    Some(&id) => id,
                    None => {
                        let id = prop_names.len() as u32;
                        prop_ids.insert(a.clone(), id);
                        prop_names.push(a.clone());
                        id
                    }
                };
                page_props[i].push(id);
            }
            for t in &page.tags {
                text.push(' ');
                text.push_str(t);
            }
            docs.push((title.clone(), text));
            autocomplete.insert(title, 1.0 + pagerank[i] * 10.0);
        }
        let index = SearchIndex::build(&docs);
        for (attr, count) in self.smr.attributes()? {
            autocomplete.insert(&attr, count as f64);
        }
        let mut suggester = SpellSuggester::new();
        for (term, df) in index.terms() {
            suggester.add(term, df);
        }
        let recommender = Recommender::new(page_props, pagerank.clone());

        // Publish the new generation: replace the Arcs; live snapshots keep
        // the ones they cloned.
        self.titles = Arc::new(titles);
        self.title_ids = Arc::new(title_ids);
        self.pagerank = Arc::new(pagerank);
        self.index = Arc::new(index);
        self.autocomplete = Arc::new(autocomplete);
        self.prop_names = Arc::new(prop_names);
        self.recommender = Arc::new(recommender);
        self.suggester = Arc::new(suggester);
        // Partition views belong to the generation they were cut from.
        self.shards = Arc::default();
        Ok(())
    }

    /// A cheap read-only clone for MVCC snapshot publication: shares the
    /// SMR's copy-on-write state (without its durability handle) and every
    /// derived structure by `Arc`, including the result cache — so a version
    /// published from this clone answers queries identically to `self` at
    /// the moment of the call, at the cost of a dozen refcount bumps.
    pub fn clone_reader(&self) -> QueryEngine {
        QueryEngine {
            smr: self.smr.clone_reader(),
            acl: self.acl.clone(),
            blend: self.blend,
            index: Arc::clone(&self.index),
            autocomplete: Arc::clone(&self.autocomplete),
            title_ids: Arc::clone(&self.title_ids),
            titles: Arc::clone(&self.titles),
            pagerank: Arc::clone(&self.pagerank),
            recommender: Arc::clone(&self.recommender),
            prop_names: Arc::clone(&self.prop_names),
            suggester: Arc::clone(&self.suggester),
            results: Arc::clone(&self.results),
            shards: Arc::clone(&self.shards),
        }
    }

    /// The coordinator of a sharded engine: a reader clone of `self` whose
    /// searches scatter over `partitions` — per shard, a repository holding
    /// only the pages it owns plus their dense ids. The partitions must
    /// cover this engine's corpus exactly once. Coordinator and views are
    /// one value, so whoever holds it (a snapshot, say) sees one generation.
    pub fn with_partitions(&self, partitions: Vec<(Smr, HashSet<usize>)>) -> QueryEngine {
        let view = |(smr, owned)| ShardView {
            engine: QueryEngine {
                smr,
                shards: Arc::default(),
                ..self.clone_reader()
            },
            owned,
        };
        QueryEngine {
            shards: partitions.into_iter().map(view).collect(),
            ..self.clone_reader()
        }
    }

    /// Dense page id of a title (indexes `titles`, `pagerank`, index docs).
    pub fn dense_id(&self, title: &str) -> Option<usize> {
        self.title_ids.get(title).copied()
    }

    /// Title of a dense page id, if in range.
    pub fn title_of(&self, id: usize) -> Option<&str> {
        self.titles.get(id).map(String::as_str)
    }

    /// Read access to the repository.
    pub fn smr(&self) -> &Smr {
        &self.smr
    }

    /// Mutable repository access. The caller must [`QueryEngine::rebuild`]
    /// afterwards (cheap for the demo corpus; incremental maintenance is a
    /// non-goal of the reproduction).
    pub fn smr_mut(&mut self) -> &mut Smr {
        &mut self.smr
    }

    /// Normalized PageRank of a page.
    pub fn pagerank_of(&self, title: &str) -> Option<f64> {
        self.title_ids.get(title).map(|&i| self.pagerank[i])
    }

    /// Top-k autocomplete suggestions. Prefix matches come from the trie;
    /// when they fall short of `k` and the input is at least one trigram
    /// long, mid-title matches are pulled in through the repository's
    /// trigram-indexed `ILIKE` query (so "wind" also surfaces
    /// "Deployment:wfj_wind_speed").
    pub fn autocomplete(&self, prefix: &str, k: usize) -> Vec<(String, f64)> {
        let mut out = self.autocomplete.complete(prefix, k);
        let clean = prefix.trim();
        if out.len() < k && clean.chars().count() >= 3 && !clean.contains(['%', '_']) {
            obs::counter("query_autocomplete_substring_total").inc();
            if let Ok(rs) = self.smr.sql(&format!(
                "SELECT title FROM pages WHERE title ILIKE '%{}%' ORDER BY title LIMIT {k}",
                sql_escape(clean)
            )) {
                for row in rs.rows {
                    let title = row[0].to_string();
                    // The trie reports lowercased entries; dedup accordingly.
                    if out.iter().any(|(t, _)| t.eq_ignore_ascii_case(&title)) {
                        continue;
                    }
                    let score = self.pagerank_of(&title).unwrap_or(0.0);
                    out.push((title, score));
                }
                out.truncate(k);
            }
        }
        out
    }

    /// Pages recommended for a set of seed titles (the paper's
    /// recommendation mechanism).
    pub fn recommend(&self, seeds: &[&str], k: usize) -> Vec<RecommendedPage> {
        let seed_ids: Vec<usize> = seeds
            .iter()
            .filter_map(|t| self.title_ids.get(*t).copied())
            .collect();
        self.recommender
            .recommend(&seed_ids, k)
            .into_iter()
            .map(|r| RecommendedPage {
                title: self.titles[r.page].clone(),
                score: r.score,
                shared_properties: r
                    .shared_properties
                    .iter()
                    .map(|&p| self.prop_names[p as usize].clone())
                    .collect(),
            })
            .collect()
    }

    /// Executes an advanced-search form for a user, through the result
    /// cache. Owned convenience wrapper over [`QueryEngine::search_shared`].
    pub fn search(&self, form: &SearchForm, user: Option<&str>) -> Result<QueryOutput> {
        let opts = SearchOptions {
            user,
            ..SearchOptions::default()
        };
        self.search_shared(form, &opts)
            .map(|(out, _)| (*out).clone())
    }

    /// Executes an advanced-search form through the result cache, returning
    /// the shared output plus how the lookup was answered. Identical
    /// concurrent queries coalesce onto one computation (bounded by
    /// `opts.deadline`); any mutation to the underlying stores invalidates
    /// via the epoch clock before the next lookup.
    pub fn search_shared(
        &self,
        form: &SearchForm,
        opts: &SearchOptions<'_>,
    ) -> Result<(Arc<QueryOutput>, Status)> {
        // Cheap validation stays outside the cache so an empty form is never
        // negatively cached (it is a client error, not a backend failure).
        if form.is_empty() {
            return Err(QueryError::EmptyForm);
        }
        // Install (tighten) the ambient deadline for everything below —
        // index scans, SQL/SPARQL evaluation, assembly, and the single-flight
        // wait all observe it.
        let _scope = resil::deadline_scope(opts.deadline);
        if opts.bypass {
            return Ok((
                Arc::new(self.search_uncached(form, opts.user)?),
                Status::Bypass,
            ));
        }
        // The key is generation-independent (form + user only): a pinned
        // snapshot validates entries against its own epoch vector instead,
        // so serve-stale degradation can still find the superseded entry
        // after a writer commits.
        let key = form_fingerprint(form, opts.user);
        // Blocking behind an identical in-flight query is bounded by both
        // the explicit wait and whatever remains of the request budget.
        let wait = match (opts.wait, resil::current_deadline().remaining()) {
            (Some(w), Some(r)) => Some(w.min(r)),
            (w, r) => w.or(r),
        };
        let (result, status) = self.results.get_or_compute(
            key,
            opts.at,
            wait,
            || self.search_uncached(form, opts.user),
            QueryError::cacheable_failure,
        );
        let err = match result {
            Ok(out) => return Ok((out, status)),
            Err(CacheError::Compute(e)) => e,
            Err(CacheError::Negative(msg)) => QueryError::Cached(msg.to_string()),
            Err(CacheError::WaitTimeout) => QueryError::CacheBusy,
        };
        // Serve-stale degradation: a backend failure (or expired budget) can
        // be answered from a superseded entry within the staleness grace
        // window. The `Degraded` status is the caller's obligation to label.
        if opts.stale_ok && err.degradable() {
            if let Some((out, _age)) = self.results.get_stale(key) {
                obs::counter("query_degraded_serves_total").inc();
                return Ok((out, Status::Degraded));
            }
        }
        Err(err)
    }

    /// Looks up the last known good result for a form without computing
    /// anything — the circuit-breaker-open path, where issuing fresh backend
    /// work is exactly what must not happen. Returns the superseded output
    /// and its age when one exists within the staleness grace window.
    pub fn search_stale(
        &self,
        form: &SearchForm,
        user: Option<&str>,
    ) -> Option<(Arc<QueryOutput>, Duration)> {
        let hit = self.results.get_stale(form_fingerprint(form, user));
        if hit.is_some() {
            obs::counter("query_degraded_serves_total").inc();
        }
        hit
    }

    /// Executes an advanced-search form without consulting or filling the
    /// result cache — the oracle the invalidation property tests compare
    /// cached reads against. [`QueryEngine::search_traced`] minus the trace.
    pub fn search_uncached(&self, form: &SearchForm, user: Option<&str>) -> Result<QueryOutput> {
        Ok(self.search_traced(form, user)?.0)
    }

    /// The search executor: the one place that sequences keyword scoring →
    /// structured conditions → candidate assembly → final ranking, as a
    /// scatter-gather over this engine's partition views. The single store
    /// is the one-view case (its own repository, every page kept), so
    /// sharded output is byte-identical to it by construction. Also returns
    /// the per-task service times of the scatter (its critical path is
    /// `benchmark/`'s `cluster.critical_path_us`).
    pub fn search_traced(
        &self,
        form: &SearchForm,
        user: Option<&str>,
    ) -> Result<(QueryOutput, ScatterTrace)> {
        let _timing = obs::span("query_search");
        obs::counter("query_searches_total").inc();
        resil::checkpoint("query_search")?;
        if form.is_empty() {
            return Err(QueryError::EmptyForm);
        }
        let total = Instant::now();
        let whole = [View {
            engine: self,
            owned: None,
        }];
        let parts: Vec<View<'_>> = self
            .shards
            .iter()
            .map(|s| View {
                engine: &s.engine,
                owned: Some(&s.owned),
            })
            .collect();
        if !parts.is_empty() {
            obs::counter("cluster_searches_total").inc();
            obs::counter("cluster_shard_fanout_total").add(parts.len() as u64);
        }
        let mut scatter = Scatter {
            views: if parts.is_empty() { &whole } else { &parts },
            wall_us: 0,
        };
        let mut trace = ScatterTrace {
            condition_task_us: vec![0; scatter.views.len()],
            assemble_task_us: vec![0; scatter.views.len()],
            serial_us: 0,
        };

        // 1. Keyword candidates with BM25 scores (None = no keyword filter),
        //    on the coordinator: the index is collection-global and scoring
        //    is a few percent of a request.
        let keyword_scores = self.keyword_score_map(form)?;

        // 2. Structured conditions: exact string equality runs as SPARQL
        //    against the RDF mirror; the rest (numeric, substring) as SQL
        //    against the annotation table — the paper's SQL+SPARQL
        //    combination, each scattered over the views' stores. In hard
        //    (AND) mode the conditions are evaluated most-selective-first
        //    and later ones are semi-joined against the running
        //    intersection; see `eval_conditions`.
        let cond_matches =
            self.eval_conditions(form, &mut scatter, &mut trace.condition_task_us)?;

        // 3+4. Candidate assembly on each view's own store, restricted to
        //      the pages it owns.
        let partials = scatter.run(&mut trace.assemble_task_us, |v| {
            v.engine
                .assemble_partial(form, user, keyword_scores.as_ref(), &cond_matches, v.owned)
        })?;

        // 5+6. Normalization, global sort, facet merge and recommendations
        //      on the coordinator.
        let out = self.finalize_partials(form, keyword_scores.as_ref(), partials)?;
        trace.serial_us = (total.elapsed().as_micros() as u64).saturating_sub(scatter.wall_us);
        Ok((out, trace))
    }

    /// Stage 1 of search: the form's keyword hits as a dense-page-id → raw
    /// BM25 score map (`None` when the form has no keywords). Hits whose key
    /// is not a known page title are dropped.
    pub fn keyword_score_map(&self, form: &SearchForm) -> Result<Option<HashMap<usize, f64>>> {
        if form.keywords.trim().is_empty() {
            return Ok(None);
        }
        let _ft = obs::span("query_fulltext");
        let hits = if form.match_all {
            self.index
                .try_search_all_terms(&form.keywords, usize::MAX)?
        } else {
            self.index.try_search(&form.keywords, usize::MAX)?
        };
        Ok(Some(
            hits.iter()
                .filter_map(|h| self.title_ids.get(&h.key).map(|&i| (i, h.score)))
                .collect(),
        ))
    }

    /// Stages 3–4 of search: assembles raw result rows for the candidate
    /// pages this engine can see, optionally restricted to an owned subset
    /// of dense page ids (`keep`) — the per-shard half of a scattered
    /// search. Returned BM25 values are *raw* and scores unblended;
    /// [`QueryEngine::finalize_partials`] normalizes against the global
    /// maximum so per-shard assembly cannot skew ranking.
    pub fn assemble_partial(
        &self,
        form: &SearchForm,
        user: Option<&str>,
        keyword_scores: Option<&HashMap<usize, f64>>,
        cond_matches: &[HashSet<usize>],
        keep: Option<&HashSet<usize>>,
    ) -> Result<ShardPartial> {
        let _combine = obs::span("query_combine");
        let candidates: Vec<usize> = match keyword_scores {
            Some(scores) => scores.keys().copied().collect(),
            None => (0..self.titles.len()).collect(),
        };
        let mut matched: Vec<(usize, f64)> = Vec::new(); // (page, match_degree)
        for page in candidates {
            if keep.is_some_and(|owned| !owned.contains(&page)) {
                continue;
            }
            let degree = if cond_matches.is_empty() {
                1.0
            } else {
                let hit = cond_matches.iter().filter(|s| s.contains(&page)).count();
                hit as f64 / cond_matches.len() as f64
            };
            let keep_page = if form.soft_conditions {
                cond_matches.is_empty() || degree > 0.0
            } else {
                degree >= 1.0
            };
            if keep_page {
                matched.push((page, degree));
            }
        }

        // ACL + namespace filter (needs page rows).
        let mut out = ShardPartial::default();
        for (assembled, (page_id, degree)) in matched.into_iter().enumerate() {
            if assembled % 64 == 0 {
                resil::checkpoint("query_assemble")?;
            }
            let title = &self.titles[page_id];
            let page = self
                .smr
                .get_page(title)?
                .ok_or_else(|| QueryError::Internal(format!("page `{title}` vanished")))?;
            if !self.acl.can_read(user, &page.namespace) {
                continue;
            }
            if let Some(ns) = &form.namespace {
                if !page.namespace.eq_ignore_ascii_case(ns) {
                    continue;
                }
            }
            let bm25_raw = keyword_scores
                .and_then(|s| s.get(&page_id).copied())
                .unwrap_or(0.0);
            let pr = self.pagerank[page_id];
            for (a, v) in &page.annotations {
                *out.facets.entry((a.clone(), v.clone())).or_insert(0) += 1;
            }
            let coords = extract_coords(&page.annotations);
            if let Some((lat_min, lat_max, lon_min, lon_max)) = form.region {
                // Map-based browsing: only geolocated pages inside the box.
                let Some((lat, lon)) = coords else {
                    continue;
                };
                if !(lat_min..=lat_max).contains(&lat) || !(lon_min..=lon_max).contains(&lon) {
                    continue;
                }
            }
            out.items.push((
                ResultItem {
                    title: page.title.clone(),
                    namespace: page.namespace.clone(),
                    score: 0.0,     // blended in finalize_partials
                    bm25: bm25_raw, // raw until normalized in finalize_partials
                    pagerank: pr,
                    match_degree: degree,
                    snippet: snippet(&page.body, &form.keywords),
                    coords,
                },
                page,
            ));
        }
        Ok(out)
    }

    /// Stages 5–6 of search: normalizes and blends scores across every
    /// partial, sorts, truncates, and attaches facets, recommendations and
    /// spelling suggestions. `keyword_scores` must be the *global* score map
    /// (all shards), so BM25 normalization matches the single-store path
    /// regardless of how assembly was partitioned.
    pub fn finalize_partials(
        &self,
        form: &SearchForm,
        keyword_scores: Option<&HashMap<usize, f64>>,
        partials: Vec<ShardPartial>,
    ) -> Result<QueryOutput> {
        let _merge = obs::span("query_finalize");
        let bm25_max = keyword_scores
            .map(|s| s.values().copied().fold(f64::MIN_POSITIVE, f64::max))
            .unwrap_or(1.0);
        let mut items: Vec<(ResultItem, Page)> = Vec::new();
        let mut facet_counts: BTreeMap<(String, String), usize> = BTreeMap::new();
        for partial in partials {
            for ((attribute, value), count) in partial.facets {
                *facet_counts.entry((attribute, value)).or_insert(0) += count;
            }
            for (mut item, page) in partial.items {
                item.bm25 /= bm25_max;
                item.score = if keyword_scores.is_some() {
                    (1.0 - self.blend.pagerank_weight) * item.bm25
                        + self.blend.pagerank_weight * item.pagerank
                } else {
                    item.pagerank
                };
                items.push((item, page));
            }
        }

        // Sort.
        match &form.sort_by {
            SortBy::Relevance => {
                items.sort_by(|a, b| cmp_f64(b.0.score, a.0.score).then(a.0.title.cmp(&b.0.title)))
            }
            SortBy::PageRank => items.sort_by(|a, b| {
                cmp_f64(b.0.pagerank, a.0.pagerank).then(a.0.title.cmp(&b.0.title))
            }),
            SortBy::Title => items.sort_by(|a, b| a.0.title.cmp(&b.0.title)),
            SortBy::Attribute(attr) => {
                items.sort_by(|a, b| {
                    let va = annotation_value(&a.1.annotations, attr);
                    let vb = annotation_value(&b.1.annotations, attr);
                    cmp_annotation(va, vb).then(a.0.title.cmp(&b.0.title))
                });
            }
        }
        // `descending` flips the sort key's natural order (best-first for
        // Relevance/PageRank, ascending for Title/Attribute).
        if form.descending {
            items.reverse();
        }

        let total_matched = items.len();
        let limit = form.effective_limit();
        let top: Vec<ResultItem> = items.into_iter().map(|(i, _)| i).take(limit).collect();

        // Recommendations from the top results.
        let seeds: Vec<&str> = top.iter().take(5).map(|i| i.title.as_str()).collect();
        let seed_set: HashSet<&str> = top.iter().map(|i| i.title.as_str()).collect();
        let recommendations = self
            .recommend(&seeds, 8)
            .into_iter()
            .filter(|r| !seed_set.contains(r.title.as_str()))
            .take(5)
            .collect();

        let facets = facet_counts
            .into_iter()
            .map(|((attribute, value), count)| FacetCount {
                attribute,
                value,
                count,
            })
            .collect();

        // "Did you mean": only when keywords were given and nothing matched.
        let did_you_mean = if total_matched == 0 && !form.keywords.trim().is_empty() {
            self.suggester.suggest_query(&form.keywords, 2)
        } else {
            None
        };

        Ok(QueryOutput {
            items: top,
            total_matched,
            facets,
            recommendations,
            did_you_mean,
        })
    }

    /// Drops every cached combined query output this engine holds.
    pub fn clear_caches(&self) {
        self.results.clear();
    }

    /// Statistics of the combined-result cache.
    pub fn result_cache_stats(&self) -> sensormeta_cache::CacheStats {
        self.results.stats()
    }

    /// Evaluates the form's structured conditions to per-condition match
    /// sets (indexed like `form.conditions`).
    ///
    /// Soft (OR-ish) mode needs every condition's full match set for the
    /// match-degree computation, so each is evaluated independently. Hard
    /// (AND) mode only keeps pages matching *all* conditions, which admits
    /// cross-engine pushdown: conditions run most-selective-first (by the
    /// relstore planner's estimate of annotation rows per attribute), each
    /// later condition's SQL is semi-joined against the running intersection
    /// when it is small, and once the intersection is empty the remaining
    /// conditions are not evaluated at all. Restricted sets are subsets of
    /// the full ones containing every page that matches all conditions, so
    /// the surviving set — and therefore the output — is unchanged.
    fn eval_conditions(
        &self,
        form: &SearchForm,
        scatter: &mut Scatter<'_>,
        task_us: &mut [u64],
    ) -> Result<Vec<HashSet<usize>>> {
        if form.soft_conditions || form.conditions.len() < 2 {
            return form
                .conditions
                .iter()
                .map(|c| self.eval_condition(c, None, scatter, task_us))
                .collect();
        }
        // Selectivity estimate per condition: annotation rows carrying the
        // attribute (exact B-tree count via `annotations_attr`).
        let est: Vec<usize> = form
            .conditions
            .iter()
            .map(|c| {
                self.smr
                    .database()
                    .estimate_eq(
                        "annotations",
                        "attribute",
                        &sensormeta_relstore::Value::text(c.attribute.clone()),
                    )
                    .unwrap_or(usize::MAX)
            })
            .collect();
        let mut order: Vec<usize> = (0..form.conditions.len()).collect();
        order.sort_by_key(|&i| est[i]);
        if order.windows(2).any(|w| w[0] > w[1]) {
            obs::counter("query_pushdown_reordered_total").inc();
        }
        let mut sets: Vec<Option<HashSet<usize>>> = vec![None; form.conditions.len()];
        let mut current: Option<HashSet<usize>> = None;
        for &i in &order {
            if current.as_ref().is_some_and(HashSet::is_empty) {
                // Hard mode already ruled every page out; the remaining
                // conditions cannot resurrect anything.
                sets[i] = Some(HashSet::new());
                continue;
            }
            let restrict = current
                .as_ref()
                .filter(|c| c.len() <= SEMIJOIN_PUSHDOWN_CAP);
            if restrict.is_some() {
                obs::counter("query_pushdown_semijoin_total").inc();
            }
            let s = self.eval_condition(&form.conditions[i], restrict, scatter, task_us)?;
            current = Some(match current.take() {
                None => s.clone(),
                Some(c) => c.intersection(&s).copied().collect(),
            });
            sets[i] = Some(s);
        }
        Ok(sets.into_iter().map(Option::unwrap_or_default).collect())
    }

    /// Evaluates one condition to the set of matching page ids: the union of
    /// the per-view matches. `restrict` narrows the SQL fallback to a
    /// candidate page set (semi-join pushdown); the SPARQL path stays
    /// unrestricted so its exact-match-first semantics are preserved.
    fn eval_condition(
        &self,
        cond: &Condition,
        restrict: Option<&HashSet<usize>>,
        scatter: &mut Scatter<'_>,
        task_us: &mut [u64],
    ) -> Result<HashSet<usize>> {
        let mut titles: Vec<Vec<String>> = Vec::new();
        if cond.op == CondOp::Eq {
            titles = scatter.run(task_us, |v| v.engine.sparql_condition_titles(cond))?;
        }
        // SPARQL matched the exact lexical form; Eq is declared
        // case-insensitive, so complete with a SQL pass when needed — decided
        // on the *global* union, never per view.
        if titles.iter().all(Vec::is_empty) {
            titles = scatter.run(task_us, |v| v.engine.sql_condition(cond, restrict))?;
        }
        Ok(self.resolve_title_set(titles.into_iter().flatten()))
    }

    /// SPARQL half of an `Eq` condition: exact literal match on the mirrored
    /// property, returning matching page titles from *this engine's* store.
    /// A stage of the executor (which runs it per view and unions the
    /// titles), public for per-stage measurement.
    pub fn sparql_condition_titles(&self, cond: &Condition) -> Result<Vec<String>> {
        let _sparql = obs::span("query_sparql");
        obs::counter("query_sparql_conditions_total").inc();
        resil::checkpoint("query_sparql")?;
        let q = format!(
            "PREFIX prop: <http://swiss-experiment.ch/property/> \
             SELECT ?t WHERE {{ ?page prop:{} \"{}\" . ?page prop:title ?t }}",
            cond.attribute.replace(' ', "_"),
            cond.value.replace('\\', "\\\\").replace('"', "\\\"")
        );
        let sols = self.smr.sparql(&q)?;
        Ok(sols
            .rows
            .iter()
            .filter_map(|r| {
                r[0].as_ref()
                    .and_then(|t| t.literal_value())
                    .map(str::to_owned)
            })
            .collect())
    }

    /// SQL half of a condition, unrestricted — the stage paired with
    /// [`QueryEngine::sparql_condition_titles`].
    pub fn sql_condition_titles(&self, cond: &Condition) -> Result<Vec<String>> {
        self.sql_condition(cond, None)
    }

    /// Maps page titles onto the dense-id space shared by every shard view
    /// (unknown titles are dropped).
    pub fn resolve_title_set(&self, titles: impl IntoIterator<Item = String>) -> HashSet<usize> {
        titles
            .into_iter()
            .filter_map(|t| self.title_ids.get(&t).copied())
            .collect()
    }

    /// SQL fallback: fetch all values of the attribute and filter in Rust
    /// (numeric ops can't be pushed into our SQL subset portably). With
    /// `restrict`, only candidate pages' annotations are fetched — the
    /// semi-join half of cross-engine pushdown.
    fn sql_condition(
        &self,
        cond: &Condition,
        restrict: Option<&HashSet<usize>>,
    ) -> Result<Vec<String>> {
        let _sql = obs::span("query_sql");
        obs::counter("query_sql_conditions_total").inc();
        resil::checkpoint("query_sql")?;
        let mut query = format!(
            "SELECT p.title, a.value FROM annotations a JOIN pages p ON a.page_id = p.id \
             WHERE a.attribute = '{}'",
            sql_escape(&cond.attribute)
        );
        if let Some(pages) = restrict {
            if pages.is_empty() {
                return Ok(Vec::new());
            }
            let titles: Vec<String> = pages
                .iter()
                .map(|&p| format!("'{}'", sql_escape(&self.titles[p])))
                .collect();
            query.push_str(&format!(" AND p.title IN ({})", titles.join(", ")));
        }
        let rs = self.smr.sql(&query)?;
        Ok(rs
            .rows
            .into_iter()
            .filter(|r| cond.matches(&r[1].to_string()))
            .map(|r| r[0].to_string())
            .collect())
    }
}

/// Stable 64-bit key of (form, user): every field that affects the output
/// feeds the fingerprint, so logically identical requests collide onto one
/// entry and any difference separates them.
fn form_fingerprint(form: &SearchForm, user: Option<&str>) -> u64 {
    let mut fp = Fingerprint::new()
        .opt_str(user)
        .str(&form.keywords)
        .usize(form.conditions.len());
    for c in &form.conditions {
        fp = fp
            .str(&c.attribute)
            .u64(match c.op {
                CondOp::Eq => 0,
                CondOp::Contains => 1,
                CondOp::Gt => 2,
                CondOp::Lt => 3,
                CondOp::Between => 4,
            })
            .str(&c.value);
    }
    fp = fp.opt_str(form.namespace.as_deref());
    fp = match &form.sort_by {
        SortBy::Relevance => fp.u64(0),
        SortBy::PageRank => fp.u64(1),
        SortBy::Title => fp.u64(2),
        SortBy::Attribute(attr) => fp.u64(3).str(attr),
    };
    fp = fp
        .bool(form.descending)
        .usize(form.limit)
        .bool(form.match_all)
        .bool(form.soft_conditions);
    fp = match form.region {
        None => fp.bool(false),
        Some((a, b, c, d)) => fp.bool(true).f64(a).f64(b).f64(c).f64(d),
    };
    fp.finish()
}

fn cmp_f64(a: f64, b: f64) -> std::cmp::Ordering {
    a.partial_cmp(&b).unwrap_or(std::cmp::Ordering::Equal)
}

fn annotation_value<'a>(annotations: &'a [(String, String)], attr: &str) -> Option<&'a str> {
    annotations
        .iter()
        .find(|(a, _)| a.eq_ignore_ascii_case(attr))
        .map(|(_, v)| v.as_str())
}

fn cmp_annotation(a: Option<&str>, b: Option<&str>) -> std::cmp::Ordering {
    match (a, b) {
        (None, None) => std::cmp::Ordering::Equal,
        (None, Some(_)) => std::cmp::Ordering::Greater, // missing sorts last
        (Some(_), None) => std::cmp::Ordering::Less,
        (Some(x), Some(y)) => match (x.parse::<f64>(), y.parse::<f64>()) {
            (Ok(nx), Ok(ny)) => cmp_f64(nx, ny),
            _ => x.cmp(y),
        },
    }
}

fn extract_coords(annotations: &[(String, String)]) -> Option<(f64, f64)> {
    let lat = annotation_value(annotations, "hasLatitude")?.parse().ok()?;
    let lon = annotation_value(annotations, "hasLongitude")?
        .parse()
        .ok()?;
    Some((lat, lon))
}

/// Builds a ~140-char snippet centered on the first keyword occurrence.
fn snippet(body: &str, keywords: &str) -> String {
    const WINDOW: usize = 140;
    if body.is_empty() {
        return String::new();
    }
    let lower = body.to_lowercase();
    let hit = keywords
        .split_whitespace()
        .filter_map(|k| lower.find(&k.to_lowercase()))
        .min();
    let chars: Vec<char> = body.chars().collect();
    let center_byte = hit.unwrap_or(0);
    // Convert byte offset to char offset safely.
    let center = body[..center_byte.min(body.len())].chars().count();
    let start = center.saturating_sub(WINDOW / 4);
    let slice: String = chars.iter().skip(start).take(WINDOW).collect();
    let mut out = String::new();
    if start > 0 {
        out.push('…');
    }
    out.push_str(slice.trim());
    if start + WINDOW < chars.len() {
        out.push('…');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snippet_centers_on_keyword() {
        let body = format!("{} temperature sensor {}", "x".repeat(200), "y".repeat(200));
        let s = snippet(&body, "temperature");
        assert!(s.contains("temperature"));
        assert!(s.starts_with('…') && s.ends_with('…'));
        assert!(s.chars().count() <= 144);
    }

    #[test]
    fn snippet_without_hit_takes_prefix() {
        let s = snippet("short body text", "zzz");
        assert_eq!(s, "short body text");
    }

    #[test]
    fn coords_extraction() {
        let ann = vec![
            ("hasLatitude".to_string(), "46.8".to_string()),
            ("hasLongitude".to_string(), "9.8".to_string()),
        ];
        assert_eq!(extract_coords(&ann), Some((46.8, 9.8)));
        assert_eq!(extract_coords(&ann[..1]), None);
        let bad = vec![
            ("hasLatitude".to_string(), "north".to_string()),
            ("hasLongitude".to_string(), "9.8".to_string()),
        ];
        assert_eq!(extract_coords(&bad), None);
    }

    #[test]
    fn annotation_sort_numeric_before_text() {
        assert_eq!(
            cmp_annotation(Some("9"), Some("10")),
            std::cmp::Ordering::Less,
            "numeric comparison, not lexicographic"
        );
        assert_eq!(cmp_annotation(None, Some("x")), std::cmp::Ordering::Greater);
    }
}
