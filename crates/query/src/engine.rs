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
use crate::facts::{Carry, Facts, FactsBuilder};
use crate::form::{CondOp, Condition, Numeric, SearchForm, SortBy};
use crate::result::{FacetCount, QueryOutput, RecommendedPage, ResultItem};
use sensormeta_cache::{
    stale_grace_from_env, Cache, CacheConfig, CacheError, EpochClock, Fingerprint, Status,
};
use sensormeta_graph::CsrGraph;
use sensormeta_obs as obs;
use sensormeta_par::Pool;
use sensormeta_rank::{
    GaussSeidel, PageRankProblem, Recommendation, Recommender, Solver, TransitionMatrix,
};
use sensormeta_rdf::Term;
use sensormeta_resil as resil;
use sensormeta_search::{Autocomplete, SearchIndex, SpellSuggester};
use sensormeta_smr::repo::LINKS_TO;
use sensormeta_smr::{link_graphs_of, push_out_edges, sql_escape, sql_float, Page, Smr};
use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Largest running-intersection size still worth pushing into SQL as an
/// `a.page_id IN (...)` list during condition semi-joins. Beyond this the
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

/// Byte budget for cached combined results.
const RESULT_CACHE_CAPACITY: usize = 16 << 20;

/// Per-request cache controls for [`QueryEngine::search_shared`].
#[derive(Debug, Clone, Copy, Default)]
pub struct SearchOptions<'a> {
    /// Skip the cache entirely (compute fresh, store nothing).
    pub bypass: bool,
    /// Requesting user (ACL identity) — part of the cache key, since result
    /// visibility is per user.
    pub user: Option<&'a str>,
}

/// One shard's contribution to a scattered search, in ids of the engine's
/// facts table: the surviving candidates with their *raw* (unnormalized)
/// BM25, plus the shard's facet counts. Produced by
/// [`QueryEngine::assemble_partial`] without reading the relational store;
/// partials that cover the corpus exactly once merge back into the
/// single-store output through [`QueryEngine::finalize_partials`], which
/// reads page bodies for the shown results only.
#[derive(Debug, Default)]
pub struct ShardPartial {
    /// `(dense page id, match degree, raw BM25)` of every page surviving
    /// the condition, ACL, namespace and region filters.
    pub items: Vec<(usize, f64, f64)>,
    /// Facet counts over this shard's visible pages, keyed by `(attribute
    /// id, value id)` of the facts table (counted before the region filter,
    /// exactly as in the single-store path).
    pub facets: HashMap<(u32, u32), usize>,
}

/// A surviving candidate during finalization, its scores normalized and
/// blended.
struct Ranked {
    page: usize,
    match_degree: f64,
    bm25: f64,
    pagerank: f64,
    score: f64,
}

/// The pages of one engine's own store by relstore row id (`pages.id`) and
/// by dense page id: how a condition's SQL names pages (`a.page_id`) and how
/// the executor does. Each store numbers its rows itself, so a partition
/// view's table is its own, not the coordinator's.
#[derive(Debug, Default)]
struct RowTable {
    /// Dense id per row id, `u32::MAX` where no page of the store has the
    /// id. `Smr` hands out `MAX(id) + 1`, so this is as long as the
    /// largest id the store holds.
    dense: Vec<u32>,
    /// Row id per dense id, `None` for a page this store does not hold.
    rows: Vec<Option<i64>>,
}

impl RowTable {
    /// The table of `(row id, dense id)` pairs over a corpus of `pages`
    /// dense ids.
    fn new(pairs: impl IntoIterator<Item = (i64, usize)>, pages: usize) -> Result<RowTable> {
        let mut table = RowTable {
            dense: Vec::new(),
            rows: vec![None; pages],
        };
        for (row, dense) in pairs {
            let (Ok(slot), Ok(id)) = (usize::try_from(row), u32::try_from(dense)) else {
                return Err(QueryError::Internal(format!(
                    "page row {row} (dense id {dense}) is out of range"
                )));
            };
            if table.dense.len() <= slot {
                table.dense.resize(slot + 1, u32::MAX);
            }
            table.dense[slot] = id;
            table.rows[dense] = Some(row);
        }
        Ok(table)
    }

    /// The dense id of a `pages.id` value (`None` for a row of no page).
    fn dense_of(&self, row: &sensormeta_relstore::Value) -> Option<usize> {
        let slot = usize::try_from(row.as_int()?).ok()?;
        match self.dense.get(slot) {
            Some(&id) if id != u32::MAX => Some(id as usize),
            _ => None,
        }
    }
}

/// [`QueryEngine::refresh`] patches when a write names fewer than one
/// title in this many of the corpus, and rebuilds otherwise. On corpus
/// `M` (981 pages, 2 cores) `apply` takes 8 ms against `rebuild`'s 26 at
/// 10 written pages, 22 against 25 at 300, 39 against 32 at 500 and 65
/// against 33 at all of them: it re-reads and tokenizes page by page,
/// where `rebuild` reads in 4 statements and tokenizes in parallel.
const APPLY_SHARE: usize = 3;

/// How [`QueryEngine::refresh`] brought the derived structures up to date.
#[derive(Debug)]
pub enum Refreshed {
    /// Patched by [`QueryEngine::apply`]: the written pages as they are
    /// now (a title no page has any more is gone), the only ones re-read.
    Pages(Vec<Page>),
    /// Re-derived from the whole repository by [`QueryEngine::rebuild`].
    All,
}

/// Where a page of the next generation comes from in
/// [`QueryEngine::apply`]: carried over from an old dense id, or re-read.
#[derive(Clone, Copy)]
enum Source {
    Kept(usize),
    Read(usize),
}

/// The per-page structures of a generation, as [`QueryEngine::rebuild`]
/// and [`QueryEngine::apply`] produce them for [`QueryEngine::install`].
struct Derived {
    titles: Vec<String>,
    rows: RowTable,
    facts: Facts,
    index: SearchIndex,
    semantic: CsrGraph,
    hyperlink: CsrGraph,
}

/// The text a page is indexed under: its title words, body, annotation
/// values and tags.
fn document_text(page: &Page) -> String {
    let mut text = format!("{} {}", page.title.replace([':', '_'], " "), page.body);
    for (_, v) in &page.annotations {
        text.push(' ');
        text.push_str(v);
    }
    for t in &page.tags {
        text.push(' ');
        text.push_str(t);
    }
    text
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
/// Besides the index, PageRank and recommender, a generation keeps the
/// double link graphs its PageRank was solved over and a facts table
/// (namespace, coordinates and annotation ids per page): searches rank,
/// filter and facet from the facts and read the relational store only for
/// conditions and for the bodies of the results they show.
pub struct QueryEngine {
    smr: Smr,
    acl: Acl,
    blend: RankBlend,
    index: Arc<SearchIndex>,
    autocomplete: Arc<Autocomplete>,
    /// title → dense page id (indexes `titles` / `pagerank`, and the doc
    /// ids of `index`).
    title_ids: Arc<HashMap<String, usize>>,
    titles: Arc<Vec<String>>,
    /// This engine's own store's row ids ↔ dense ids.
    rows: Arc<RowTable>,
    /// PageRank per dense id, normalized so max = 1.
    pagerank: Arc<Vec<f64>>,
    /// Semantic and hyperlink graphs over dense ids (`Smr::link_graphs`
    /// at the rebuild).
    semantic: Arc<CsrGraph>,
    hyperlink: Arc<CsrGraph>,
    /// Per-page facts by dense id; its attribute ids are also the
    /// recommender's property ids.
    facts: Arc<Facts>,
    recommender: Arc<Recommender>,
    suggester: Arc<SpellSuggester>,
    /// Combined SQL+SPARQL+keyword result cache, stamped with `generation`.
    /// Shared between the primary and its reader snapshots, so a result
    /// computed through any snapshot benefits every concurrent request.
    results: Arc<Cache<QueryOutput>>,
    /// Dates this engine's generations: created by [`QueryEngine::build`],
    /// shared with every reader clone and partition view, bumped once per
    /// [`QueryEngine::rebuild`].
    clock: Arc<EpochClock>,
    /// The generation the derived structures were built at: the stamp this
    /// engine's searches validate and fill the result cache with.
    generation: u64,
    /// The last [`QueryEngine::refresh`] failed, so the derived structures
    /// may miss a write the repository holds: the next refresh rebuilds.
    lagging: bool,
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
    let mut cfg = CacheConfig::new("query_results", RESULT_CACHE_CAPACITY);
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
            rows: Arc::default(),
            pagerank: Arc::new(Vec::new()),
            semantic: Arc::new(CsrGraph::from_edges(0, &[], true)),
            hyperlink: Arc::new(CsrGraph::from_edges(0, &[], true)),
            facts: Arc::default(),
            recommender: Arc::new(Recommender::new(Vec::new(), Vec::new())),
            suggester: Arc::new(SpellSuggester::new()),
            results: Arc::new(result_cache()),
            clock: Arc::new(EpochClock::new()),
            generation: 0,
            lagging: false,
            shards: Arc::default(),
        };
        engine.rebuild()?;
        Ok(engine)
    }

    /// Builds with an open ACL and default blend.
    pub fn open(smr: Smr) -> Result<QueryEngine> {
        Self::build(smr, Acl::open(), RankBlend::default())
    }

    /// Recomputes every derived structure from the current SMR contents
    /// and dates the result as the next generation. [`QueryEngine::apply`]
    /// does the same for a write that touched a few titles, and must
    /// derive exactly what this does; PageRank "scores need to be updated
    /// regularly as new metadata pages are continuously created".
    pub fn rebuild(&mut self) -> Result<()> {
        let _timing = obs::span("query_rebuild");
        // Shield the rebuild from any ambient request deadline: a half-built
        // index or rank vector must never escape, so write paths run to
        // completion regardless of the caller's budget.
        let _shield = resil::shield();
        resil::checkpoint("query_rebuild")?;
        obs::counter("query_rebuilds_total").inc();
        let pages = self.smr.pages()?;
        let (semantic, hyperlink) = link_graphs_of(&pages);

        // Full-text index + facts table (whose attribute ids are the
        // recommender's property ids). Document text assembly stays serial
        // (dictionary interning) and consumes the pages, so they and the
        // documents are never all held at once; the tokenize-heavy index
        // construction then runs as one parallel batch. Everything is built
        // into locals and installed wholesale, so a reader snapshot taken
        // mid-rebuild still sees the old generation.
        let _index_timing = obs::span("search_index_build");
        let mut facts = FactsBuilder::default();
        let mut docs: Vec<(String, String)> = Vec::with_capacity(pages.len());
        let rows = RowTable::new(
            pages.iter().enumerate().map(|(i, p)| (p.id, i)),
            pages.len(),
        )?;
        for page in pages {
            facts.push(&page)?;
            let text = document_text(&page);
            docs.push((page.title, text));
        }
        let index = SearchIndex::build(&docs);
        let titles: Vec<String> = docs.into_iter().map(|(title, _)| title).collect();
        self.install(Derived {
            titles,
            rows,
            facts: facts.finish(),
            index,
            semantic,
            hyperlink,
        })
    }

    /// Brings the derived structures up to date after a write that touched
    /// only `titles` (created, updated or deleted them), deriving exactly
    /// what [`QueryEngine::rebuild`] would — bit for bit, PageRank included
    /// — while reading only those pages from the repository. Returns them
    /// as they are now; a title no page has any more is gone.
    ///
    /// Dense ids stay in title order, so an old id maps to its new one
    /// through one monotone permutation: the facts rows, posting lists and
    /// graph edges of the untouched pages carry over renumbered, and only
    /// the re-read pages are tokenized and interned. The graphs keep the
    /// untouched pages' edges, drop the re-read pages' old out-edges and
    /// add their new ones, plus the annotation values and wiki links of
    /// untouched pages that already named a title this write created (the
    /// RDF mirror's object index finds those). PageRank, autocomplete, the
    /// suggester and the recommender are derived afresh from memory, as
    /// [`QueryEngine::rebuild`] derives them.
    pub fn apply(&mut self, titles: &[String]) -> Result<Vec<Page>> {
        let _timing = obs::span("query_apply");
        let _shield = resil::shield();
        resil::checkpoint("query_apply")?;
        obs::counter("query_applies_total").inc();
        let touched: BTreeSet<&str> = titles.iter().map(String::as_str).collect();
        let mut read: Vec<Page> = Vec::new();
        for &title in &touched {
            read.extend(self.smr.get_page(title)?);
        }

        // The new dense ids: the old titles minus the deleted ones, merged
        // in order with the created ones. `moved[old]` is an old page's new
        // id; `kept[old]` is the same for the pages whose rows carry over.
        let old_titles = Arc::clone(&self.titles);
        let mut sources: Vec<Source> = Vec::with_capacity(old_titles.len() + read.len());
        let mut moved: Vec<Option<usize>> = vec![None; old_titles.len()];
        let mut kept: Vec<Option<usize>> = vec![None; old_titles.len()];
        let mut fresh = read.iter().enumerate().peekable();
        let mut created: Vec<usize> = Vec::new();
        for (old, title) in old_titles.iter().enumerate() {
            while let Some((at, _)) = fresh.next_if(|(_, p)| p.title < *title) {
                created.push(sources.len());
                sources.push(Source::Read(at));
            }
            match fresh.next_if(|(_, p)| p.title == *title) {
                Some((at, _)) => {
                    moved[old] = Some(sources.len());
                    sources.push(Source::Read(at));
                }
                None if touched.contains(title.as_str()) => {}
                None => {
                    moved[old] = Some(sources.len());
                    kept[old] = Some(sources.len());
                    sources.push(Source::Kept(old));
                }
            }
        }
        for (at, _) in fresh {
            created.push(sources.len());
            sources.push(Source::Read(at));
        }

        let mut facts = FactsBuilder::default();
        let mut carry = Carry::new(&self.facts);
        let mut rows = Vec::with_capacity(sources.len());
        let mut new_titles = Vec::with_capacity(sources.len());
        let mut docs: Vec<(usize, String)> = Vec::with_capacity(read.len());
        for (new, source) in sources.iter().enumerate() {
            match *source {
                Source::Kept(old) => {
                    facts.carry(&mut carry, old)?;
                    rows.extend(self.rows.rows[old].map(|row| (row, new)));
                    new_titles.push(old_titles[old].clone());
                }
                Source::Read(at) => {
                    let page = &read[at];
                    facts.push(page)?;
                    rows.push((page.id, new));
                    new_titles.push(page.title.clone());
                    docs.push((new, document_text(page)));
                }
            }
        }
        let rows = RowTable::new(rows, sources.len())?;
        let index = self.index.patched(new_titles.clone(), &kept, &docs);

        // Graph edges: the untouched pages' (renumbered), the re-read
        // pages' own, and those of untouched pages naming a created title.
        let carried = |graph: &CsrGraph| -> Vec<(usize, usize)> {
            graph
                .iter_edges()
                .filter_map(|(u, v)| Some((kept[u]?, moved[v]?)))
                .collect()
        };
        let (mut semantic, mut hyperlink) = (carried(&self.semantic), carried(&self.hyperlink));
        let node = |title: &str| new_titles.binary_search_by(|t| t.as_str().cmp(title)).ok();
        for (new, source) in sources.iter().enumerate() {
            if let Source::Read(at) = *source {
                push_out_edges(&read[at], new, node, &mut semantic, &mut hyperlink);
            }
        }
        let links_to = Term::iri(LINKS_TO);
        for &v in &created {
            let iri = Term::iri(Smr::page_iri(&new_titles[v]));
            for (subject, predicate, _) in self.smr.rdf().match_terms(None, None, Some(&iri)) {
                let Term::Iri(subject) = subject else {
                    continue;
                };
                let Some(u) = Smr::page_title(&subject).and_then(|t| node(&t)) else {
                    continue;
                };
                if u != v {
                    let edges = if predicate == links_to {
                        &mut hyperlink
                    } else {
                        &mut semantic
                    };
                    edges.push((u, v));
                }
            }
        }
        let n = new_titles.len();
        self.install(Derived {
            titles: new_titles,
            rows,
            facts: facts.finish(),
            index,
            semantic: CsrGraph::from_edges(n, &semantic, true),
            hyperlink: CsrGraph::from_edges(n, &hyperlink, true),
        })?;
        Ok(read)
    }

    /// Brings the derived structures up to date after a write to `titles`
    /// by the cheaper path: [`QueryEngine::apply`] when they are under a
    /// third of the corpus, [`QueryEngine::rebuild`] otherwise (see
    /// `APPLY_SHARE`). An `apply` that fails falls back to `rebuild`,
    /// and after a refresh that failed the next one rebuilds, so no
    /// failure carries a stale generation forward.
    pub fn refresh(&mut self, titles: &[String]) -> Result<Refreshed> {
        if !self.lagging && titles.len() * APPLY_SHARE < self.titles.len() {
            match self.apply(titles) {
                Ok(pages) => return Ok(Refreshed::Pages(pages)),
                Err(_) => obs::counter("query_apply_fallbacks_total").inc(),
            }
        }
        self.lagging = true;
        self.rebuild()?;
        self.lagging = false;
        Ok(Refreshed::All)
    }

    /// Derives what depends on the whole corpus from the per-page
    /// structures — PageRank over the double linking structure,
    /// autocomplete, the spelling suggester and the recommender — then
    /// installs everything as the next generation: the `Arc`s are
    /// replaced, so live snapshots keep the ones they cloned.
    fn install(&mut self, d: Derived) -> Result<()> {
        // Keyword scores are read by doc id as dense ids: the index must have
        // numbered the documents in title order.
        if d.index.doc_count() != d.titles.len()
            || d.titles
                .iter()
                .enumerate()
                .any(|(i, t)| d.index.key(i) != t)
        {
            return Err(QueryError::Internal(
                "search index doc ids are not the dense page ids".into(),
            ));
        }
        let pagerank: Vec<f64> = if d.titles.is_empty() {
            Vec::new()
        } else {
            let matrix =
                TransitionMatrix::double_link(&d.semantic, &d.hyperlink, self.blend.semantic_alpha);
            let problem = PageRankProblem::with_c(matrix, self.blend.c);
            let solution = GaussSeidel.solve(&problem, 1e-10, 1000);
            let max = solution.x.iter().copied().fold(f64::MIN_POSITIVE, f64::max);
            solution.x.iter().map(|v| v / max).collect()
        };
        let mut autocomplete = Autocomplete::new();
        for (title, rank) in d.titles.iter().zip(&pagerank) {
            autocomplete.insert(title, 1.0 + rank * 10.0);
        }
        for (attr, count) in d.facts.attribute_counts() {
            autocomplete.insert(attr, count as f64);
        }
        let mut suggester = SpellSuggester::new();
        for (term, df) in d.index.terms() {
            suggester.add(term, df);
        }
        let recommender = Recommender::new(d.facts.page_attributes(), pagerank.clone());
        let title_ids: HashMap<String, usize> = d
            .titles
            .iter()
            .enumerate()
            .map(|(i, t)| (t.clone(), i))
            .collect();

        self.titles = Arc::new(d.titles);
        self.title_ids = Arc::new(title_ids);
        self.rows = Arc::new(d.rows);
        self.pagerank = Arc::new(pagerank);
        self.semantic = Arc::new(d.semantic);
        self.hyperlink = Arc::new(d.hyperlink);
        self.facts = Arc::new(d.facts);
        self.index = Arc::new(d.index);
        self.autocomplete = Arc::new(autocomplete);
        self.recommender = Arc::new(recommender);
        self.suggester = Arc::new(suggester);
        // Partition views belong to the generation they were cut from.
        self.shards = Arc::default();
        // One bump per generation, after the repository change it covers
        // was logged.
        self.generation = self.clock.bump();
        Ok(())
    }

    /// The derived structures of `self` that differ from `other`'s, by
    /// name (`"index"`, `"pagerank"`, …); empty when the two engines
    /// derived the same generation. Dense ids are title order in both, so
    /// comparing by id compares by title; PageRank is compared bit for
    /// bit. The oracle check of [`QueryEngine::apply`] against
    /// [`QueryEngine::rebuild`].
    #[doc(hidden)]
    pub fn derived_differences(&self, other: &QueryEngine) -> Vec<&'static str> {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        [
            ("titles", self.titles == other.titles),
            ("title_ids", self.title_ids == other.title_ids),
            (
                "rows",
                self.rows.rows == other.rows.rows && self.rows.dense == other.rows.dense,
            ),
            ("index", self.index == other.index),
            ("facts", self.facts == other.facts),
            ("semantic", self.semantic == other.semantic),
            ("hyperlink", self.hyperlink == other.hyperlink),
            ("pagerank", bits(&self.pagerank) == bits(&other.pagerank)),
            ("autocomplete", self.autocomplete == other.autocomplete),
            ("suggester", self.suggester == other.suggester),
            ("recommender", self.recommender == other.recommender),
        ]
        .into_iter()
        .filter_map(|(name, same)| (!same).then_some(name))
        .collect()
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
            rows: Arc::clone(&self.rows),
            pagerank: Arc::clone(&self.pagerank),
            semantic: Arc::clone(&self.semantic),
            hyperlink: Arc::clone(&self.hyperlink),
            facts: Arc::clone(&self.facts),
            recommender: Arc::clone(&self.recommender),
            suggester: Arc::clone(&self.suggester),
            results: Arc::clone(&self.results),
            clock: Arc::clone(&self.clock),
            generation: self.generation,
            lagging: self.lagging,
            shards: Arc::clone(&self.shards),
        }
    }

    /// The coordinator of a sharded engine: a reader clone of `self` whose
    /// searches scatter over `partitions` — per shard, a repository holding
    /// only the pages it owns plus their dense ids. The partitions must
    /// cover this engine's corpus exactly once. Coordinator and views are
    /// one value, so whoever holds it (a snapshot, say) sees one generation.
    /// Each view maps its own store's row ids to dense ids through a table
    /// read from that store here; a title this engine does not know fails
    /// with [`QueryError::Internal`].
    pub fn with_partitions(&self, partitions: Vec<(Smr, HashSet<usize>)>) -> Result<QueryEngine> {
        let view = |(smr, owned): (Smr, HashSet<usize>)| {
            let mut pairs = Vec::new();
            for mut row in smr.sql("SELECT id, title FROM pages")?.rows {
                let title = std::mem::take(&mut row[1]).into_text();
                let (Some(id), Some(&dense)) = (row[0].as_int(), self.title_ids.get(&title)) else {
                    return Err(QueryError::Internal(format!(
                        "partition page `{title}` is not in the corpus"
                    )));
                };
                pairs.push((id, dense));
            }
            Ok(ShardView {
                engine: QueryEngine {
                    smr,
                    rows: Arc::new(RowTable::new(pairs, self.titles.len())?),
                    shards: Arc::default(),
                    ..self.clone_reader()
                },
                owned,
            })
        };
        Ok(QueryEngine {
            shards: partitions.into_iter().map(view).collect::<Result<_>>()?,
            ..self.clone_reader()
        })
    }

    /// Dense page id of a title (indexes `titles`, `pagerank`, index docs).
    pub fn dense_id(&self, title: &str) -> Option<usize> {
        self.title_ids.get(title).copied()
    }

    /// The double linking structure this generation's PageRank was solved
    /// over, as `(semantic, hyperlink, titles)` — what
    /// [`Smr::link_graphs`] returned at the last [`QueryEngine::rebuild`].
    pub fn link_graphs(&self) -> (&CsrGraph, &CsrGraph, &[String]) {
        (&self.semantic, &self.hyperlink, &self.titles)
    }

    /// Read access to the repository.
    pub fn smr(&self) -> &Smr {
        &self.smr
    }

    /// Mutable repository access. The caller must bring the derived
    /// structures up to date afterwards: [`QueryEngine::apply`] with the
    /// titles it wrote, or [`QueryEngine::rebuild`].
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
            .map(|r| self.recommended_page(r))
            .collect()
    }

    fn recommended_page(&self, r: Recommendation) -> RecommendedPage {
        RecommendedPage {
            title: self.titles[r.page].clone(),
            score: r.score,
            shared_properties: r
                .shared_properties
                .iter()
                .map(|&p| self.facts.attribute(p).to_owned())
                .collect(),
        }
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
    /// the shared output plus how the lookup was answered. The request's
    /// budget is the ambient resil deadline (the server installs one per
    /// request): the single-flight wait, index scans, condition evaluation
    /// and assembly all observe it, and expiry surfaces as
    /// [`QueryError::DeadlineExceeded`]. Identical concurrent queries
    /// coalesce onto one computation; entries are validated against and
    /// stamped with this engine's generation (dated by its last rebuild), so
    /// a result is only ever served to readers of the generation that
    /// computed it. A failure is returned, never cached; answering it from
    /// a superseded entry is the caller's choice ([`QueryEngine::search_stale`]).
    pub fn search_shared(
        &self,
        form: &SearchForm,
        opts: &SearchOptions<'_>,
    ) -> Result<(Arc<QueryOutput>, Status)> {
        // Cheap validation stays outside the cache: an empty form is a client
        // error, not a computation.
        if form.is_empty() {
            return Err(QueryError::EmptyForm);
        }
        if opts.bypass {
            return Ok((
                Arc::new(self.search_uncached(form, opts.user)?),
                Status::Bypass,
            ));
        }
        // The key is generation-independent (form + user only): entries are
        // validated against the generation instead, so serve-stale
        // degradation can still find the superseded entry after a commit.
        // Blocking behind an identical in-flight query ends at the request's
        // deadline, like every other stage.
        let (result, status) = self.results.get_or_compute(
            form_fingerprint(form, opts.user),
            self.generation,
            resil::current_deadline().instant(),
            || self.search_uncached(form, opts.user),
        );
        match result {
            Ok(out) => Ok((out, status)),
            Err(CacheError::Compute(e)) => Err(e),
            Err(CacheError::WaitTimeout) => Err(QueryError::DeadlineExceeded),
        }
    }

    /// Looks up the last known good result for a form without computing
    /// anything — the degraded path after a failed search, or with the
    /// circuit breaker open, where issuing fresh backend work is exactly
    /// what must not happen. Returns the resident output and its age when
    /// one exists at this generation or within the staleness grace window.
    pub fn search_stale(
        &self,
        form: &SearchForm,
        user: Option<&str>,
    ) -> Option<(Arc<QueryOutput>, Duration)> {
        self.results
            .get_stale(form_fingerprint(form, user), self.generation)
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
    /// BM25 score map (`None` when the form has no keywords). The index's
    /// doc ids are the dense ids ([`QueryEngine::rebuild`] checks it), so
    /// the map is filled straight from the scores.
    pub fn keyword_score_map(&self, form: &SearchForm) -> Result<Option<HashMap<usize, f64>>> {
        if form.keywords.trim().is_empty() {
            return Ok(None);
        }
        let _ft = obs::span("query_fulltext");
        let scores = if form.match_all {
            self.index.try_scores_all_terms(&form.keywords)?
        } else {
            self.index.try_scores(&form.keywords)?
        };
        Ok(Some(scores.into_iter().collect()))
    }

    /// Stages 3–4 of search: filters the candidate pages this engine can
    /// see, optionally restricted to an owned subset of dense page ids
    /// (`keep`) — the per-shard half of a scattered search. Keeps pages by
    /// match degree, ACL (the namespaces `user` may read), the form's
    /// namespace and region, and counts facets, all from the facts table:
    /// nothing is read from the relational store. Returned BM25 values are
    /// *raw*; [`QueryEngine::finalize_partials`] normalizes against the
    /// global maximum so per-shard assembly cannot skew ranking.
    pub fn assemble_partial(
        &self,
        form: &SearchForm,
        user: Option<&str>,
        keyword_scores: Option<&HashMap<usize, f64>>,
        cond_matches: &[HashSet<usize>],
        keep: Option<&HashSet<usize>>,
    ) -> Result<ShardPartial> {
        let _combine = obs::span("query_combine");
        // Namespace ids this search may show: readable by `user` and, when
        // the form names a namespace, that one.
        let visible: Vec<bool> = self
            .facts
            .namespaces()
            .iter()
            .map(|ns| {
                self.acl.can_read(user, ns)
                    && form
                        .namespace
                        .as_ref()
                        .is_none_or(|want| ns.eq_ignore_ascii_case(want))
            })
            .collect();
        let candidates: Vec<usize> = match keyword_scores {
            Some(scores) => scores.keys().copied().collect(),
            None => (0..self.titles.len()).collect(),
        };
        let mut out = ShardPartial::default();
        let mut assembled = 0usize;
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
            if !keep_page {
                continue;
            }
            if assembled.is_multiple_of(64) {
                resil::checkpoint("query_assemble")?;
            }
            assembled += 1;
            let facts = self.facts.page(page);
            if !visible[facts.namespace as usize] {
                continue;
            }
            for &pair in &facts.pairs {
                *out.facets.entry(pair).or_insert(0) += 1;
            }
            if let Some((lat_min, lat_max, lon_min, lon_max)) = form.region {
                // Map-based browsing: only geolocated pages inside the box.
                let Some((lat, lon)) = facts.coords else {
                    continue;
                };
                if !(lat_min..=lat_max).contains(&lat) || !(lon_min..=lon_max).contains(&lon) {
                    continue;
                }
            }
            let bm25_raw = keyword_scores
                .and_then(|s| s.get(&page).copied())
                .unwrap_or(0.0);
            out.items.push((page, degree, bm25_raw));
        }
        Ok(out)
    }

    /// Stages 5–6 of search: normalizes and blends scores across every
    /// partial, sorts, truncates, and only then materializes the shown
    /// results — their bodies, for the snippets, in one statement — and attaches
    /// facets, recommendations and spelling suggestions. `keyword_scores`
    /// must be the *global* score map (all shards), so BM25 normalization
    /// matches the single-store path regardless of how assembly was
    /// partitioned.
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
        let mut rows: Vec<Ranked> = Vec::new();
        let mut facet_counts: HashMap<(u32, u32), usize> = HashMap::new();
        for partial in partials {
            for (pair, count) in partial.facets {
                *facet_counts.entry(pair).or_insert(0) += count;
            }
            for (page, match_degree, bm25_raw) in partial.items {
                let bm25 = bm25_raw / bm25_max;
                let pagerank = self.pagerank[page];
                let score = if keyword_scores.is_some() {
                    (1.0 - self.blend.pagerank_weight) * bm25
                        + self.blend.pagerank_weight * pagerank
                } else {
                    pagerank
                };
                rows.push(Ranked {
                    page,
                    match_degree,
                    bm25,
                    pagerank,
                    score,
                });
            }
        }

        // Sort; titles are unique, so every key is a total order.
        let title = |r: &Ranked| self.titles[r.page].as_str();
        match &form.sort_by {
            SortBy::Relevance => {
                rows.sort_by(|a, b| cmp_f64(b.score, a.score).then_with(|| title(a).cmp(title(b))))
            }
            SortBy::PageRank => rows.sort_by(|a, b| {
                cmp_f64(b.pagerank, a.pagerank).then_with(|| title(a).cmp(title(b)))
            }),
            SortBy::Title => rows.sort_by(|a, b| title(a).cmp(title(b))),
            SortBy::Attribute(attr) => rows.sort_by(|a, b| {
                let va = self.facts.annotation_value(a.page, attr);
                let vb = self.facts.annotation_value(b.page, attr);
                cmp_annotation(va, vb).then_with(|| title(a).cmp(title(b)))
            }),
        }
        // `descending` flips the sort key's natural order (best-first for
        // Relevance/PageRank, ascending for Title/Attribute).
        if form.descending {
            rows.reverse();
        }

        let total_matched = rows.len();
        rows.truncate(form.effective_limit());
        let shown: Vec<&str> = rows.iter().map(title).collect();
        let bodies = self.smr.page_bodies(&shown)?;
        // Recommendations from the top results.
        let seeds: Vec<usize> = rows.iter().take(5).map(|r| r.page).collect();
        let seed_set: HashSet<usize> = rows.iter().map(|r| r.page).collect();
        let recommendations = self
            .recommender
            .recommend(&seeds, 8)
            .into_iter()
            .filter(|r| !seed_set.contains(&r.page))
            .take(5)
            .map(|r| self.recommended_page(r))
            .collect();
        let top: Vec<ResultItem> = rows
            .into_iter()
            .zip(bodies)
            .map(|(r, body)| {
                let facts = self.facts.page(r.page);
                ResultItem {
                    title: self.titles[r.page].clone(),
                    namespace: self.facts.namespace(facts.namespace).to_owned(),
                    score: r.score,
                    bm25: r.bm25,
                    pagerank: r.pagerank,
                    match_degree: r.match_degree,
                    snippet: snippet(&body.unwrap_or_default(), &form.keywords),
                    coords: facts.coords,
                }
            })
            .collect();

        // Facets sort by their strings, borrowed from the dictionaries;
        // they are copied out once, in order. Distinct id pairs name
        // distinct string pairs, so the order is total.
        let mut facet_counts: Vec<((u32, u32), usize)> = facet_counts.into_iter().collect();
        let names =
            |&((a, v), _): &((u32, u32), usize)| (self.facts.attribute(a), self.facts.value(v));
        facet_counts.sort_unstable_by(|a, b| names(a).cmp(&names(b)));
        let facets: Vec<FacetCount> = facet_counts
            .into_iter()
            .map(|((attribute, value), count)| FacetCount {
                attribute: self.facts.attribute(attribute).to_owned(),
                value: self.facts.value(value).to_owned(),
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
        // attribute (exact B-tree count through the `attribute` prefix of
        // `annotations_attr_num`).
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
        let mut ids: Vec<Vec<usize>> = Vec::new();
        if cond.op == CondOp::Eq {
            ids = scatter.run(task_us, |v| v.engine.sparql_condition(cond))?;
        }
        // SPARQL matched the exact lexical form; Eq is declared
        // case-insensitive, so complete with a SQL pass when needed — decided
        // on the *global* union, never per view.
        if ids.iter().all(Vec::is_empty) {
            ids = scatter.run(task_us, |v| v.engine.sql_condition(cond, restrict))?;
        }
        Ok(ids.into_iter().flatten().collect())
    }

    /// SPARQL half of an `Eq` condition as page titles: the dense ids the
    /// executor's SPARQL stage finds in *this engine's* store, named. Public
    /// for per-stage measurement and the differential tests, which so check
    /// the id path.
    pub fn sparql_condition_titles(&self, cond: &Condition) -> Result<Vec<String>> {
        Ok(self.titles_of(self.sparql_condition(cond)?))
    }

    /// SQL half of a condition as page titles, unrestricted (one title per
    /// matching annotation row) — the stage paired with
    /// [`QueryEngine::sparql_condition_titles`].
    pub fn sql_condition_titles(&self, cond: &Condition) -> Result<Vec<String>> {
        Ok(self.titles_of(self.sql_condition(cond, None)?))
    }

    /// Maps page titles onto the dense-id space shared by every shard view
    /// (unknown titles are dropped).
    pub fn resolve_title_set(&self, titles: impl IntoIterator<Item = String>) -> HashSet<usize> {
        titles
            .into_iter()
            .filter_map(|t| self.title_ids.get(&t).copied())
            .collect()
    }

    fn titles_of(&self, ids: Vec<usize>) -> Vec<String> {
        ids.into_iter().map(|i| self.titles[i].clone()).collect()
    }

    /// SPARQL half of an `Eq` condition: exact literal match on the mirrored
    /// property, returning the dense ids of the matching pages of *this
    /// engine's* store. The pattern binds the page IRI, whose title
    /// ([`Smr::page_title`], borrowed from the IRI) names the dense id, so
    /// no title triple is joined.
    fn sparql_condition(&self, cond: &Condition) -> Result<Vec<usize>> {
        let _sparql = obs::span("query_sparql");
        obs::counter("query_sparql_conditions_total").inc();
        resil::checkpoint("query_sparql")?;
        let q = format!(
            "SELECT ?page WHERE {{ ?page <{}> \"{}\" }}",
            Smr::property_iri(&cond.attribute),
            cond.value.replace('\\', "\\\\").replace('"', "\\\"")
        );
        let sols = self.smr.sparql(&q)?;
        Ok(sols
            .rows
            .iter()
            .filter_map(|r| match r[0].as_ref() {
                Some(Term::Iri(iri)) => Smr::page_title(iri)
                    .and_then(|title| self.title_ids.get(title.as_ref()).copied()),
                _ => None,
            })
            .collect())
    }

    /// SQL half of a condition: one statement over the attribute's
    /// annotation rows, returning the dense id of each matching row's page
    /// (through this store's row table; no join to `pages`). `gt`, `lt`
    /// and `between` test `value_num` against the bounds, which the planner
    /// turns into a range seek on `(attribute, value_num)`, so only the
    /// matching rows are read; a numeric operand that matches nothing
    /// issues no statement. `contains` is an `ILIKE '%v%'` the values'
    /// trigram index serves; it and the case-insensitive `eq` are
    /// re-checked in Rust on the rows returned, as `LIKE` has no `ESCAPE`
    /// for a `%` or `_` in the needle. With `restrict`, only candidate
    /// pages' annotations are read — the semi-join half of cross-engine
    /// pushdown; a store holding none of them issues no statement.
    fn sql_condition(
        &self,
        cond: &Condition,
        restrict: Option<&HashSet<usize>>,
    ) -> Result<Vec<usize>> {
        let _sql = obs::span("query_sql");
        obs::counter("query_sql_conditions_total").inc();
        resil::checkpoint("query_sql")?;
        let numeric = cond.numeric();
        let test = match numeric {
            Some(Numeric::Nothing) => return Ok(Vec::new()),
            Some(Numeric::Above(b)) => Some(format!("a.value_num > {}", sql_float(b))),
            Some(Numeric::Below(b)) => Some(format!("a.value_num < {}", sql_float(b))),
            Some(Numeric::Within(lo, hi)) => Some(format!(
                "a.value_num BETWEEN {} AND {}",
                sql_float(lo),
                sql_float(hi)
            )),
            None if cond.op == CondOp::Contains => {
                Some(format!("a.value ILIKE '%{}%'", sql_escape(&cond.value)))
            }
            None => None,
        };
        // Numeric tests are exact; the others need the value for the
        // re-check.
        let exact = numeric.is_some();
        let mut query = format!(
            "SELECT a.page_id{} FROM annotations a WHERE a.attribute = '{}'",
            if exact { "" } else { ", a.value" },
            sql_escape(&cond.attribute)
        );
        if let Some(test) = test {
            query.push_str(" AND ");
            query.push_str(&test);
        }
        if let Some(pages) = restrict {
            let rows: Vec<String> = pages
                .iter()
                .filter_map(|&p| self.rows.rows.get(p).copied().flatten())
                .map(|row| row.to_string())
                .collect();
            if rows.is_empty() {
                return Ok(Vec::new());
            }
            query.push_str(&format!(" AND a.page_id IN ({})", rows.join(", ")));
        }
        let rs = self.smr.sql(&query)?;
        let matcher = cond.matcher();
        Ok(rs
            .rows
            .iter()
            .filter(|r| exact || matcher.matches(&r[1].to_text()))
            .filter_map(|r| self.rows.dense_of(&r[0]))
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

/// Builds a ~140-char snippet centered on the first keyword occurrence.
fn snippet(body: &str, keywords: &str) -> String {
    const WINDOW: usize = 140;
    if body.is_empty() {
        return String::new();
    }
    let start = keyword_char(body, keywords)
        .unwrap_or(0)
        .saturating_sub(WINDOW / 4);
    // Byte offsets of char `start` and char `start + WINDOW`, the end of
    // the body standing for the char past the last.
    let mut bounds = body
        .char_indices()
        .map(|(i, _)| i)
        .chain(std::iter::once(body.len()));
    let from = bounds.nth(start).unwrap_or(body.len());
    let to = bounds.nth(WINDOW - 1).unwrap_or(body.len());
    let mut out = String::new();
    if start > 0 {
        out.push('…');
    }
    out.push_str(body[from..to].trim());
    if to < body.len() {
        out.push('…');
    }
    out
}

/// The index of the body char the first keyword occurrence starts in,
/// matching case-insensitively as `str::to_lowercase` does.
fn keyword_char(body: &str, keywords: &str) -> Option<usize> {
    let lower = body.to_lowercase();
    let hit = keywords
        .split_whitespace()
        .filter_map(|k| lower.find(&k.to_lowercase()))
        .min()?;
    // `hit` is a byte offset into `lower`, where a char may take more or
    // fewer bytes than in `body` (`ẞ` → `ß`), so it cannot index `body`.
    // The centre is the body char whose lowercase form covers it: the
    // number of chars whose lowercase ends at or before it.
    let mut end = 0;
    Some(
        body.chars()
            .take_while(|c| {
                end += c.to_lowercase().map(char::len_utf8).sum::<usize>();
                end <= hit
            })
            .count(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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
    fn snippet_survives_lowercase_changing_byte_length() {
        // `ẞ` is 3 bytes, its lowercase `ß` 2: the hit's offset in the
        // lowercased body is not a char boundary of the body.
        assert_eq!(snippet("ẞéa snow", "a"), "ẞéa snow");
        // `İ` lowercases to `i` + U+0307; a hit starting between the two
        // centres on `İ`.
        let body = format!("{}İx{}", "y".repeat(100), "z".repeat(200));
        let s = snippet(&body, "\u{307}x");
        assert!(s.starts_with('…') && s.contains("İx"), "{s}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn snippet_never_panics(
            body in prop_oneof![
                prop::collection::vec(0u32..0x11_0000, 0..200)
                    .prop_map(|cs| cs.into_iter().filter_map(char::from_u32).collect::<String>()),
                "[aAbBßẞİıΣσςȺⱥKkÅå ]{0,60}",
            ],
            keywords in prop_oneof![
                prop::collection::vec(0u32..0x11_0000, 0..6)
                    .prop_map(|cs| cs.into_iter().filter_map(char::from_u32).collect::<String>()),
                "[aAbßẞİıΣσςȺⱥ ]{0,6}",
            ],
        ) {
            let s = snippet(&body, &keywords);
            prop_assert!(s.chars().count() <= 142);
        }
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
