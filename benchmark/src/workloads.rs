//! The corpus and the four seeded request lists.
//!
//! Everything the server receives is generated here, up front, from the
//! seed: route, parameters, body and due time. The corpus itself is fixed
//! (its page count depends on its own seed, and set-up time depends
//! super-linearly on page count), so two seeds differ in traffic only.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sensormeta::query::{CondOp, Condition, SearchForm, SortBy};
use sensormeta::server::url_encode;
use sensormeta::smr::PageDraft;
use sensormeta::workload::{generate_corpus, CorpusConfig};
use std::collections::{BTreeMap, BTreeSet, HashSet};

/// Corpus `M`: 981 pages / 0.5 MB of JSONL. The issue's corpus `L` (4,579
/// pages) loads in 23 s here, which does not fit three set-ups per run under
/// the driver's time cap; `M` loads in under 3 s and keeps an uncached search
/// (2–16 ms) 5–40 times the cost of a cache hit.
pub const CORPUS: CorpusConfig = CorpusConfig {
    institutions: 10,
    projects_per_institution: 5,
    sites_per_project: 6,
    deployments_per_site: 20,
    seed: 2011,
};

/// Open-loop arrival rates, requests per second.
const RATE_COLD: f64 = 50.0;
const RATE_WARM: f64 = 400.0;
const RATE_INGEST: f64 = 200.0;
/// Writer schedule of `ingest_mixed`, seconds between operations.
const BULKLOAD_EVERY_S: f64 = 2.0;
const TAG_EVERY_S: f64 = 0.5;
/// The closed-loop phase ends after this many requests at the latest, which
/// also bounds the ephemeral ports one run can leave in TIME_WAIT.
pub const CLOSED_CAP: usize = 15_000;
/// Requests in the closed loop of the cold workloads per second of its time
/// limit: a fixed piece of work that the reference runner finishes in about
/// two thirds of the limit, so every seed is timed over the same forms.
const COLD_CLOSED_PER_S: f64 = 200.0;
/// Size of the hot set of `browse_warm` per route.
const HOT_FORMS: usize = 64;
const ZIPF_S: f64 = 1.1;

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Workload {
    SearchCold,
    BrowseWarm,
    IngestMixed,
    ShardedCold,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::SearchCold,
        Workload::BrowseWarm,
        Workload::IngestMixed,
        Workload::ShardedCold,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SearchCold => "search_cold",
            Workload::BrowseWarm => "browse_warm",
            Workload::IngestMixed => "ingest_mixed",
            Workload::ShardedCold => "sharded_cold",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// `SENSORMETA_SHARDS` for the server of this workload.
    pub fn shards(self) -> usize {
        if self == Workload::ShardedCold {
            2
        } else {
            1
        }
    }

    pub fn rate(self) -> f64 {
        match self {
            Workload::SearchCold | Workload::ShardedCold => RATE_COLD,
            Workload::BrowseWarm => RATE_WARM,
            Workload::IngestMixed => RATE_INGEST,
        }
    }
}

/// Route class of a request; the unit of `server.handle_us.*`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Route {
    Search,
    Autocomplete,
    Page,
    Recommend,
    Tags,
    TagsJson,
    VizBar,
    VizPie,
    VizMap,
    VizGraph,
    Bulkload,
    Tag,
}

impl Route {
    pub fn name(self) -> &'static str {
        match self {
            Route::Search => "search",
            Route::Autocomplete => "autocomplete",
            Route::Page => "page",
            Route::Recommend => "recommend",
            Route::Tags => "tags",
            Route::TagsJson => "tags_json",
            Route::VizBar => "viz_bar",
            Route::VizPie => "viz_pie",
            Route::VizMap => "viz_map",
            Route::VizGraph => "viz_graph",
            Route::Bulkload => "bulkload",
            Route::Tag => "tag",
        }
    }
}

/// One generated request.
#[derive(Debug, Clone)]
pub struct Req {
    /// Offset from the start of its phase at which the request is due.
    pub due_ns: u64,
    pub route: Route,
    pub method: &'static str,
    /// Percent-encoded path and query.
    pub target: String,
    pub body: Vec<u8>,
    /// For `/search`: the form the target encodes, for the oracle.
    pub form: Option<SearchForm>,
    /// For `/bulkload`: `(title, marker)` of the new pages in the body.
    pub new_pages: Vec<(String, String)>,
}

impl Req {
    fn get(route: Route, target: String) -> Req {
        Req {
            due_ns: 0,
            route,
            method: "GET",
            target,
            body: Vec::new(),
            form: None,
            new_pages: Vec::new(),
        }
    }

    /// The request as bytes on the wire. No `Connection` header: whether the
    /// connection is reused is the server's choice.
    pub fn wire_bytes(&self) -> Vec<u8> {
        let mut out = format!(
            "{} {} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n",
            self.method,
            self.target,
            self.body.len()
        )
        .into_bytes();
        out.extend_from_slice(&self.body);
        out
    }
}

/// The phases of one run, from `--seconds`.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub warmup_s: f64,
    pub open_s: f64,
    pub closed_s: f64,
}

impl Plan {
    /// The phases of one of `rounds` equal rounds that together measure for
    /// `total` seconds: a twelfth of a round warms up, two thirds run the
    /// open loop, a quarter the closed loop.
    pub fn from_seconds(total: f64, rounds: usize) -> Plan {
        let round = total / rounds as f64;
        Plan {
            warmup_s: round / 12.0,
            open_s: round * 2.0 / 3.0,
            closed_s: round / 4.0,
        }
    }
}

/// All requests of one run.
pub struct RequestList {
    pub warmup: Vec<Req>,
    pub open: Vec<Req>,
    pub closed: Vec<Req>,
    /// `ingest_mixed` only: the writer's own schedule, due times relative to
    /// the start of the open-loop phase, running on through the closed loop.
    pub writer: Vec<Req>,
}

impl RequestList {
    /// FNV-1a over every due time, method, target and body in order.
    pub fn fnv_hash(&self) -> u64 {
        let mut h = Fnv::new();
        for r in self
            .warmup
            .iter()
            .chain(&self.open)
            .chain(&self.closed)
            .chain(&self.writer)
        {
            h.write(&r.due_ns.to_le_bytes());
            h.write(r.method.as_bytes());
            h.write(r.target.as_bytes());
            h.write(&r.body);
            h.write(&[0xff]);
        }
        h.0
    }
}

struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 = (self.0 ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// The generated corpus and what the request generators draw from.
pub struct Corpus {
    pub drafts: Vec<PageDraft>,
    pub jsonl: String,
    /// Body terms that occur in at least three pages and at most a quarter
    /// of them, sorted: selective keywords, as a user types them, not the
    /// boilerplate ("sensor", "sampling") that every deployment page carries.
    vocab: Vec<String>,
    /// Distinct values per attribute, sorted.
    values: BTreeMap<String, Vec<String>>,
    titles: Vec<String>,
}

impl Corpus {
    pub fn generate() -> Corpus {
        let mut by_title: BTreeMap<String, PageDraft> = BTreeMap::new();
        let mut jsonl = String::new();
        for p in generate_corpus(&CORPUS) {
            let draft = PageDraft {
                title: p.title,
                namespace: p.namespace.to_owned(),
                body: p.body,
                annotations: p.annotations,
                links: p.links,
                tags: p.tags,
            };
            jsonl.push_str(&serde_json::to_string(&draft).expect("drafts serialize"));
            jsonl.push('\n');
            // The generator may emit a title twice; the loader upserts, so
            // the last one is what the repository holds.
            by_title.insert(draft.title.clone(), draft);
        }
        let drafts: Vec<PageDraft> = by_title.into_values().collect();
        let mut df: BTreeMap<String, usize> = BTreeMap::new();
        let mut values: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
        for d in &drafts {
            let terms: BTreeSet<String> = sensormeta::search::tokenize(&d.body)
                .into_iter()
                .filter(|t| t.len() >= 4 && t.chars().all(|c| c.is_ascii_lowercase()))
                .collect();
            for t in terms {
                *df.entry(t).or_insert(0) += 1;
            }
            for (a, v) in &d.annotations {
                values.entry(a.clone()).or_default().insert(v.clone());
            }
        }
        Corpus {
            titles: drafts.iter().map(|d| d.title.clone()).collect(),
            vocab: df
                .into_iter()
                .filter(|(_, n)| *n >= 3 && *n * 4 <= drafts.len())
                .map(|(t, _)| t)
                .collect(),
            values: values
                .into_iter()
                .map(|(a, v)| (a, v.into_iter().collect()))
                .collect(),
            drafts,
            jsonl,
        }
    }

    fn value_of(&self, rng: &mut StdRng, attr: &str) -> String {
        let vs = &self.values[attr];
        vs[rng.gen_range(0..vs.len())].clone()
    }
}

/// A shuffled deck over `0..n`, reshuffled when it runs out: any `n` draws
/// in a row use every card once. Drawing the parts of the search forms and
/// the routes of the browse mix from decks instead of independently gives
/// every run the same mix of cheap and expensive requests, in another order
/// and pairing per seed, so that two seeds differ by what the server does
/// with them and not by their luck.
struct Deck {
    cards: Vec<usize>,
    next: usize,
}

fn shuffle<T>(rng: &mut StdRng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

impl Deck {
    fn new(n: usize) -> Deck {
        Deck {
            cards: (0..n).collect(),
            next: n,
        }
    }

    fn draw(&mut self, rng: &mut StdRng) -> usize {
        if self.next == self.cards.len() {
            shuffle(rng, &mut self.cards);
            self.next = 0;
        }
        self.next += 1;
        self.cards[self.next - 1]
    }
}

/// Generator of advanced-search forms: 1–3 corpus terms × {no condition,
/// `eq` condition (answered by SPARQL), `gt`/`between`/`contains` condition
/// (answered by SQL)} × sort × limit, a tenth of them rendered as HTML.
struct Forms<'a> {
    corpus: &'a Corpus,
    term: Deck,
    nterms: Deck,
    condition: Deck,
    eq_attr: Deck,
    sql_kind: Deck,
    sort: Deck,
    limit: Deck,
    html: Deck,
}

const EQ_ATTRS: [&str; 4] = ["hasVendor", "measuresQuantity", "deployedAt", "hasTopic"];

impl<'a> Forms<'a> {
    fn new(corpus: &'a Corpus) -> Forms<'a> {
        Forms {
            corpus,
            term: Deck::new(corpus.vocab.len()),
            nterms: Deck::new(3),
            condition: Deck::new(3),
            eq_attr: Deck::new(EQ_ATTRS.len()),
            sql_kind: Deck::new(3),
            sort: Deck::new(3),
            limit: Deck::new(3),
            html: Deck::new(10),
        }
    }

    fn next(&mut self, rng: &mut StdRng) -> Req {
        let corpus = self.corpus;
        let nterms = self.nterms.draw(rng) + 1;
        let mut terms: Vec<&str> = Vec::new();
        while terms.len() < nterms {
            let t = corpus.vocab[self.term.draw(rng)].as_str();
            if !terms.contains(&t) {
                terms.push(t);
            }
        }
        let mut form = SearchForm::keywords(terms.join(" "));
        match self.condition.draw(rng) {
            0 => {}
            1 => {
                let attr = EQ_ATTRS[self.eq_attr.draw(rng)];
                let value = corpus.value_of(rng, attr);
                form.conditions
                    .push(Condition::new(attr, CondOp::Eq, value));
            }
            _ => form.conditions.push(match self.sql_kind.draw(rng) {
                0 => Condition::new(
                    "hasSamplingIntervalMinutes",
                    CondOp::Gt,
                    corpus.value_of(rng, "hasSamplingIntervalMinutes"),
                ),
                1 => {
                    let lo = rng.gen_range(400..3000u32);
                    let hi = lo + rng.gen_range(100..1500u32);
                    Condition::new("hasElevation", CondOp::Between, format!("{lo}..{hi}"))
                }
                _ => {
                    let v = corpus.value_of(rng, "partOfProject");
                    let part = v.split('_').nth(1).unwrap_or(&v).to_owned();
                    Condition::new("partOfProject", CondOp::Contains, part)
                }
            }),
        }
        form.sort_by = match self.sort.draw(rng) {
            0 => SortBy::Relevance,
            1 => SortBy::PageRank,
            _ => SortBy::Title,
        };
        form.limit = [10, 25, 0][self.limit.draw(rng)];
        search_req(form, self.html.draw(rng) == 0)
    }
}

/// The query string `App::form_from` parses back into `form`.
fn form_query(form: &SearchForm) -> String {
    let mut q = format!("q={}", url_encode(&form.keywords));
    if let Some(c) = form.conditions.first() {
        let op = match c.op {
            CondOp::Eq => "eq",
            CondOp::Contains => "contains",
            CondOp::Gt => "gt",
            CondOp::Lt => "lt",
            CondOp::Between => "between",
        };
        q.push_str(&format!(
            "&attribute={}&op={op}&value={}",
            url_encode(&c.attribute),
            url_encode(&c.value)
        ));
    }
    let sort = match &form.sort_by {
        SortBy::Relevance => "relevance",
        SortBy::PageRank => "pagerank",
        SortBy::Title => "title",
        SortBy::Attribute(_) => unreachable!("the generator never sorts by attribute"),
    };
    q.push_str(&format!("&sort={sort}&limit={}", form.limit));
    q
}

fn search_req(form: SearchForm, html: bool) -> Req {
    let mut target = format!("/search?{}", form_query(&form));
    if html {
        target.push_str("&format=html");
    }
    Req {
        form: Some(form),
        ..Req::get(Route::Search, target)
    }
}

/// Zipf sampler over ranks `0..n` with exponent `s`, by inverse CDF.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let weights: Vec<f64> = (1..=n).map(|k| (k as f64).powf(-s)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        Zipf {
            cdf: weights
                .iter()
                .map(|w| {
                    acc += w / total;
                    acc
                })
                .collect(),
        }
    }

    /// Probability mass of the first `k` ranks.
    #[cfg(test)]
    pub fn head_mass(&self, k: usize) -> f64 {
        self.cdf[k - 1]
    }

    pub fn sample(&self, rng: &mut StdRng) -> usize {
        let u: f64 = rng.gen();
        self.cdf.partition_point(|c| *c < u).min(self.cdf.len() - 1)
    }
}

/// The hot set of `browse_warm`, small enough to fit every cache (64 search
/// results of about 20 KB against the 16 MiB result cache), and its mix.
struct HotSet {
    searches: Vec<Req>,
    autocompletes: Vec<Req>,
    pages: Vec<Req>,
    recommends: Vec<Req>,
    bars: Vec<Req>,
    pies: Vec<Req>,
    maps: Vec<Req>,
    zipf: Zipf,
    /// Route class of the next draw, out of 100, and whether it goes to
    /// `/viz/graph` instead, out of 50. Decks, because the routes differ in
    /// cost by a factor of 400: drawn independently, the number of
    /// `/viz/graph` renders in a phase alone would move its CPU time by a
    /// tenth from seed to seed.
    route: Deck,
    graph: Deck,
}

impl HotSet {
    fn new(corpus: &Corpus, rng: &mut StdRng) -> HotSet {
        let mut seen = HashSet::new();
        let mut searches = Vec::new();
        let mut forms = Forms::new(corpus);
        while searches.len() < HOT_FORMS {
            let req = forms.next(rng);
            if seen.insert(req.target.clone()) {
                searches.push(req);
            }
        }
        let pick_titles = |rng: &mut StdRng| -> Vec<String> {
            (0..HOT_FORMS)
                .map(|_| corpus.titles[rng.gen_range(0..corpus.titles.len())].clone())
                .collect()
        };
        let facet_reqs = |route: Route, path: &str, rng: &mut StdRng| -> Vec<Req> {
            (0..HOT_FORMS)
                .map(|_| {
                    let term = &corpus.vocab[rng.gen_range(0..corpus.vocab.len())];
                    Req::get(route, format!("{path}?q={}", url_encode(term)))
                })
                .collect()
        };
        HotSet {
            autocompletes: (0..HOT_FORMS)
                .map(|_| {
                    let term = &corpus.vocab[rng.gen_range(0..corpus.vocab.len())];
                    let len = rng.gen_range(2..=4usize).min(term.len());
                    Req::get(
                        Route::Autocomplete,
                        format!("/autocomplete?prefix={}", url_encode(&term[..len])),
                    )
                })
                .collect(),
            pages: pick_titles(rng)
                .iter()
                .map(|t| Req::get(Route::Page, format!("/page/{}", url_encode(t))))
                .collect(),
            recommends: pick_titles(rng)
                .iter()
                .map(|t| {
                    Req::get(
                        Route::Recommend,
                        format!("/recommend?title={}", url_encode(t)),
                    )
                })
                .collect(),
            bars: facet_reqs(Route::VizBar, "/viz/bar", rng),
            pies: facet_reqs(Route::VizPie, "/viz/pie", rng),
            maps: facet_reqs(Route::VizMap, "/viz/map", rng),
            searches,
            zipf: Zipf::new(HOT_FORMS, ZIPF_S),
            route: Deck::new(100),
            graph: Deck::new(50),
        }
    }

    /// Every member once.
    fn sweep(&self) -> Vec<Req> {
        [
            &self.searches,
            &self.autocompletes,
            &self.pages,
            &self.recommends,
            &self.bars,
            &self.pies,
            &self.maps,
        ]
        .into_iter()
        .flatten()
        .cloned()
        .chain([
            Req::get(Route::Tags, "/tags".into()),
            Req::get(Route::TagsJson, "/tags.json".into()),
        ])
        .collect()
    }

    /// 35 % search, 25 % autocomplete, 10 % page, 8 % recommend, 6 % tags,
    /// 4 % each of tags.json and the bar, pie and map visualizations; with
    /// 2 % of the draws going to `/viz/graph` first if `with_graph`.
    fn draw(&mut self, rng: &mut StdRng, with_graph: bool) -> Req {
        if with_graph && self.graph.draw(rng) == 0 {
            return Req::get(Route::VizGraph, "/viz/graph".into());
        }
        let rank = self.zipf.sample(rng);
        match self.route.draw(rng) {
            0..=34 => self.searches[rank].clone(),
            35..=59 => self.autocompletes[rank].clone(),
            60..=69 => self.pages[rank].clone(),
            70..=77 => self.recommends[rank].clone(),
            78..=83 => Req::get(Route::Tags, "/tags".into()),
            84..=87 => Req::get(Route::TagsJson, "/tags.json".into()),
            88..=91 => self.bars[rank].clone(),
            92..=95 => self.pies[rank].clone(),
            _ => self.maps[rank].clone(),
        }
    }
}

/// An exponential inter-arrival gap of a unit-rate Poisson process.
fn exp_gap(rng: &mut StdRng) -> f64 {
    let u: f64 = rng.gen();
    -(1.0 - u).ln()
}

/// Stamps seeded exponential inter-arrival gaps onto requests until `secs`
/// have passed; `next` makes the requests.
fn poisson_phase(
    rng: &mut StdRng,
    rate: f64,
    secs: f64,
    mut next: impl FnMut(&mut StdRng) -> Req,
) -> Vec<Req> {
    let mut out = Vec::new();
    let mut t = 0.0f64;
    loop {
        t += exp_gap(rng) / rate;
        if t >= secs {
            return out;
        }
        let mut req = next(rng);
        req.due_ns = (t * 1e9) as u64;
        out.push(req);
    }
}

/// Puts `reqs` into a seeded order and stamps them with the arrival times of
/// a Poisson process that has exactly that many arrivals in `secs`: seeded
/// exponential gaps, scaled so that the phase holds them all.
fn poisson_phase_of(rng: &mut StdRng, mut reqs: Vec<Req>, secs: f64) -> Vec<Req> {
    shuffle(rng, &mut reqs);
    let mut t = 0.0f64;
    for req in &mut reqs {
        t += exp_gap(rng);
        req.due_ns = (t * 1e9) as u64;
    }
    let scale = secs / (t + exp_gap(rng));
    for req in &mut reqs {
        req.due_ns = (req.due_ns as f64 * scale) as u64;
    }
    reqs
}

/// A letters-only token no corpus page contains (no digits for the
/// tokenizer to split on, no trailing `s` for the stemmer to strip).
fn marker(mut n: u64) -> String {
    const ALPHABET: &[u8] = b"abcdefghijklmnopqrtuvwxyz";
    let mut out = String::from("zq");
    loop {
        out.push(ALPHABET[(n % 25) as usize] as char);
        n /= 25;
        if n == 0 {
            break;
        }
    }
    out.push('q');
    out
}

/// The writer of `ingest_mixed`: a `POST /bulkload` of 10 pages (8 upserts
/// of existing titles with a changed body, 2 new pages carrying a unique
/// marker token) and a `POST /tag` on their own periods.
fn writer_schedule(corpus: &Corpus, rng: &mut StdRng, secs: f64) -> Vec<Req> {
    let run_id: u64 = rng.gen_range(0..1_000_000_000u64);
    let mut ops = Vec::new();
    let mut k = 0u64;
    // The first load comes early, so that even the shortest round has one.
    let mut t = 0.1;
    while t < secs {
        let mut body = String::new();
        for _ in 0..8 {
            let mut d = corpus.drafts[rng.gen_range(0..corpus.drafts.len())].clone();
            d.body.push_str(&format!(" Revised in load {k}."));
            body.push_str(&serde_json::to_string(&d).expect("drafts serialize"));
            body.push('\n');
        }
        let mut new_pages = Vec::new();
        for j in 0..2u64 {
            let token = marker(run_id * 10_000 + k * 2 + j);
            let title = format!("Deployment:bench_{token}");
            let d = PageDraft::new(title.clone(), "Deployment")
                .body(format!(
                    "A bench sensor {token} deployed for the ingest workload."
                ))
                .annotate("measuresQuantity", "temperature")
                .annotate("hasVendor", "Campbell")
                .link(corpus.titles[rng.gen_range(0..corpus.titles.len())].clone())
                .tag("bench");
            body.push_str(&serde_json::to_string(&d).expect("drafts serialize"));
            body.push('\n');
            new_pages.push((title, token));
        }
        ops.push(Req {
            due_ns: (t * 1e9) as u64,
            method: "POST",
            body: body.into_bytes(),
            new_pages,
            ..Req::get(Route::Bulkload, "/bulkload".into())
        });
        k += 1;
        t += BULKLOAD_EVERY_S;
    }
    let mut t = TAG_EVERY_S / 2.0;
    let mut n = 0u64;
    while t < secs {
        let page = &corpus.titles[rng.gen_range(0..corpus.titles.len())];
        ops.push(Req {
            due_ns: (t * 1e9) as u64,
            method: "POST",
            ..Req::get(
                Route::Tag,
                format!("/tag?page={}&tag=bench{n}", url_encode(page)),
            )
        });
        n += 1;
        t += TAG_EVERY_S;
    }
    ops.sort_by_key(|r| r.due_ns);
    ops
}

/// Generates the request list of round `round` of `workload` for `seed`.
/// `sharded_cold` is byte for byte the list of `search_cold`.
pub fn generate(
    workload: Workload,
    corpus: &Corpus,
    seed: u64,
    round: usize,
    plan: Plan,
) -> RequestList {
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(16).wrapping_add(round as u64));
    let rate = workload.rate();
    match workload {
        Workload::SearchCold | Workload::ShardedCold => {
            // The forms of a phase of a round are a fixed population, every
            // one distinct, so the result cache never hits; the seed decides
            // their order and arrival times. A form costs between 1 and
            // 20 ms, by how many pages it matches: forms drawn per seed make
            // two seeds differ by a tenth in median latency and a fifth in
            // throughput before the server has done anything differently.
            let mut fixed =
                StdRng::seed_from_u64(CORPUS.seed.wrapping_mul(16).wrapping_add(round as u64));
            let mut seen = HashSet::new();
            let mut forms = Forms::new(corpus);
            let mut population = |secs: f64, per_s: f64| -> Vec<Req> {
                let mut out = Vec::new();
                while out.len() < (secs * per_s).round() as usize {
                    let req = forms.next(&mut fixed);
                    if seen.insert(req.target.clone()) {
                        out.push(req);
                    }
                }
                out
            };
            let warmup = population(plan.warmup_s, rate);
            let open = population(plan.open_s, rate);
            let mut closed = population(plan.closed_s, COLD_CLOSED_PER_S);
            shuffle(&mut rng, &mut closed);
            RequestList {
                warmup: poisson_phase_of(&mut rng, warmup, plan.warmup_s),
                open: poisson_phase_of(&mut rng, open, plan.open_s),
                closed,
                writer: Vec::new(),
            }
        }
        Workload::BrowseWarm | Workload::IngestMixed => {
            // The hot set is fixed; the seed decides who asks for what, when.
            let mut hot = HotSet::new(corpus, &mut StdRng::seed_from_u64(CORPUS.seed));
            // Warm-up first asks for every member of the hot set once, all
            // due at once, so the measured phases start with full caches.
            let mut warmup = hot.sweep();
            let with_graph = workload == Workload::IngestMixed;
            let mut draw = |rng: &mut StdRng| hot.draw(rng, with_graph);
            warmup.extend(poisson_phase(&mut rng, rate, plan.warmup_s, &mut draw));
            let open = poisson_phase(&mut rng, rate, plan.open_s, &mut draw);
            let closed = (0..CLOSED_CAP).map(|_| draw(&mut rng)).collect();
            let writer = if workload == Workload::IngestMixed {
                writer_schedule(corpus, &mut rng, plan.open_s + plan.closed_s)
            } else {
                Vec::new()
            };
            RequestList {
                warmup,
                open,
                closed,
                writer,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan() -> Plan {
        Plan::from_seconds(3.0, 1)
    }

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        let corpus = Corpus::generate();
        for w in Workload::ALL {
            let a = generate(w, &corpus, 2011, 0, plan());
            let b = generate(w, &corpus, 2011, 0, plan());
            let c = generate(w, &corpus, 2012, 0, plan());
            let d = generate(w, &corpus, 2011, 1, plan());
            assert_ne!(a.fnv_hash(), d.fnv_hash(), "{}: rounds differ", w.name());
            assert_eq!(a.fnv_hash(), b.fnv_hash(), "{}", w.name());
            assert_ne!(a.fnv_hash(), c.fnv_hash(), "{}", w.name());
            let wire =
                |l: &RequestList| -> Vec<Vec<u8>> { l.open.iter().map(Req::wire_bytes).collect() };
            assert_eq!(wire(&a), wire(&b));
        }
    }

    #[test]
    fn sharded_cold_replays_search_cold() {
        let corpus = Corpus::generate();
        let cold = generate(Workload::SearchCold, &corpus, 7, 2, plan());
        let sharded = generate(Workload::ShardedCold, &corpus, 7, 2, plan());
        assert_eq!(cold.fnv_hash(), sharded.fnv_hash());
    }

    #[test]
    fn cold_forms_are_distinct_and_parse_back() {
        let corpus = Corpus::generate();
        let list = generate(Workload::SearchCold, &corpus, 3, 0, plan());
        let mut seen = HashSet::new();
        for r in list.warmup.iter().chain(&list.open).chain(&list.closed) {
            assert!(seen.insert(&r.target), "repeated form {}", r.target);
        }
        // The target must decode to the form the oracle evaluates.
        for r in list.open.iter().take(50) {
            let raw = r.wire_bytes();
            let parsed = sensormeta::server::http::read_request(&mut &raw[..]).unwrap();
            let form = r.form.as_ref().unwrap();
            assert_eq!(parsed.param("q"), Some(form.keywords.as_str()));
            assert_eq!(
                parsed.param("value"),
                form.conditions.first().map(|c| c.value.as_str())
            );
        }
    }

    #[test]
    fn cold_seeds_time_the_same_forms_in_another_order() {
        let corpus = Corpus::generate();
        let a = generate(Workload::SearchCold, &corpus, 1, 0, plan());
        let b = generate(Workload::SearchCold, &corpus, 2, 0, plan());
        let targets =
            |reqs: &[Req]| -> Vec<String> { reqs.iter().map(|r| r.target.clone()).collect() };
        let sorted = |reqs: &[Req]| {
            let mut t = targets(reqs);
            t.sort();
            t
        };
        assert_eq!(a.open.len(), (RATE_COLD * plan().open_s).round() as usize);
        for (x, y) in [(&a.open, &b.open), (&a.closed, &b.closed)] {
            assert_eq!(sorted(x), sorted(y));
            assert_ne!(targets(x), targets(y));
        }
        assert!(a.open.windows(2).all(|w| w[0].due_ns <= w[1].due_ns));
        let end = (plan().open_s * 1e9) as u64;
        assert!(a.open.last().unwrap().due_ns < end);
        // Another round times other forms.
        let c = generate(Workload::SearchCold, &corpus, 1, 1, plan());
        assert_ne!(sorted(&a.open), sorted(&c.open));
    }

    #[test]
    fn arrivals_follow_the_rate() {
        let corpus = Corpus::generate();
        let list = generate(
            Workload::BrowseWarm,
            &corpus,
            5,
            0,
            Plan::from_seconds(30.0, 1),
        );
        let expected = RATE_WARM * 20.0;
        let got = list.open.len() as f64;
        assert!((got - expected).abs() < expected * 0.05, "{got} arrivals");
        assert!(list.open.windows(2).all(|w| w[0].due_ns <= w[1].due_ns));
    }

    #[test]
    fn zipf_matches_its_analytic_head_mass() {
        let zipf = Zipf::new(HOT_FORMS, ZIPF_S);
        let mut rng = StdRng::seed_from_u64(11);
        let n = 200_000;
        let head = (0..n).filter(|_| zipf.sample(&mut rng) < 8).count() as f64 / n as f64;
        let h = |k: usize| (1..=k).map(|i| (i as f64).powf(-ZIPF_S)).sum::<f64>();
        let analytic = h(8) / h(HOT_FORMS);
        assert!((zipf.head_mass(8) - analytic).abs() < 1e-12);
        assert!(
            (head - analytic).abs() / analytic < 0.02,
            "sampled {head}, analytic {analytic}"
        );
    }

    #[test]
    fn writer_loads_carry_unique_markers() {
        let corpus = Corpus::generate();
        let list = generate(
            Workload::IngestMixed,
            &corpus,
            9,
            0,
            Plan::from_seconds(12.0, 1),
        );
        let loads: Vec<&Req> = list
            .writer
            .iter()
            .filter(|r| r.route == Route::Bulkload)
            .collect();
        // Due at 0.1, 2.1, … 10.1 s of the 8 s open loop and 3 s closed loop.
        assert_eq!(loads.len(), 6);
        let mut markers = HashSet::new();
        for l in &loads {
            assert_eq!(l.body.iter().filter(|b| **b == b'\n').count(), 10);
            for (_, m) in &l.new_pages {
                assert!(markers.insert(m.clone()));
                assert_eq!(sensormeta::search::tokenize(m), vec![m.clone()]);
                assert!(!corpus.jsonl.contains(m.as_str()));
            }
        }
        assert!(list.writer.iter().any(|r| r.route == Route::Tag));
    }
}
