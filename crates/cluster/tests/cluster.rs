//! Cluster integration tests: scatter-gather identity with the single
//! store.

use sensormeta_cluster::ShardSet;
use sensormeta_query::{CondOp, Condition, QueryEngine, SearchForm};
use sensormeta_smr::{PageDraft, Smr};
use sensormeta_workload::{generate_corpus, CorpusConfig};

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

/// Each store numbers its page rows itself: after deletes (and new pages
/// taking `MAX(id) + 1`) the coordinator's row ids have gaps, while each
/// republished shard numbers its own pages from 1. Conditions name pages
/// by row id, so every view must map its rows through its own table; the
/// SQL forms here (`gt`, `contains`, a case-folded `eq` that misses the
/// exact-literal SPARQL, and hard two-condition forms that push the
/// running intersection into the second condition as row ids) must still
/// equal the single store byte for byte at 1, 2 and 4 shards.
#[test]
fn conditions_match_single_store_after_deletes_at_1_2_4_shards() {
    let mut engine = corpus_engine(4, 7);
    let sets: Vec<ShardSet> = [1usize, 2, 4]
        .iter()
        .map(|&n| ShardSet::build(&engine, n).expect("build shard set"))
        .collect();
    let titles = engine.smr().page_titles().expect("titles");
    for title in titles.iter().step_by(5) {
        assert!(engine.smr_mut().delete_page(title).expect("delete"));
    }
    for i in 0..6 {
        let mut d = PageDraft::new(format!("Deployment:late_{i}"), "Deployment")
            .body("a late temperature sensor");
        d.annotations = vec![
            ("hasVendor".to_owned(), "Vaisala".to_owned()),
            (
                "hasSamplingIntervalMinutes".to_owned(),
                format!("{}", 3 + i),
            ),
            ("hasTopic".to_owned(), "hydrology".to_owned()),
        ];
        engine.smr_mut().create_page(d).expect("create");
    }
    engine.rebuild().expect("rebuild");
    let forms = [
        SearchForm::default().condition(Condition::new("hasVendor", CondOp::Eq, "vaisala")),
        SearchForm::default().condition(Condition::new("hasVendor", CondOp::Eq, "Vaisala")),
        SearchForm::default().condition(Condition::new(
            "hasSamplingIntervalMinutes",
            CondOp::Gt,
            "4",
        )),
        SearchForm::default().condition(Condition::new("hasTopic", CondOp::Contains, "hydro")),
        SearchForm::keywords("sensor")
            .condition(Condition::new("hasVendor", CondOp::Eq, "Vaisala"))
            .condition(Condition::new(
                "hasSamplingIntervalMinutes",
                CondOp::Gt,
                "4",
            )),
        SearchForm::default()
            .condition(Condition::new("hasVendor", CondOp::Eq, "vaisala"))
            .condition(Condition::new("hasTopic", CondOp::Contains, "hydro")),
    ];
    for set in &sets {
        set.republish(&engine).expect("republish");
        for (i, form) in forms.iter().enumerate() {
            let single = engine.search_uncached(form, None).expect("single-store");
            assert!(single.total_matched > 0, "form #{i} matches nothing");
            let scattered = set.search(form, None).expect("scatter-gather");
            let a = serde_json::to_string(&single).expect("json");
            let b = serde_json::to_string(&scattered).expect("json");
            assert_eq!(a, b, "form #{i} diverged at {} shards", set.shard_count());
        }
    }
}
