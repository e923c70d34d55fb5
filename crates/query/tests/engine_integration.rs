//! Integration tests: the full query pipeline over a small hand-built SMR
//! and over the synthetic Swiss-Experiment corpus.

use sensormeta_cache::Status;
use sensormeta_query::{
    Acl, CondOp, Condition, QueryEngine, RankBlend, SearchForm, SearchOptions, SortBy,
};
use sensormeta_smr::{PageDraft, Smr};
use sensormeta_workload::{generate_corpus, CorpusConfig};

fn small_smr() -> Smr {
    let mut smr = Smr::new();
    smr.create_page(
        PageDraft::new("Fieldsite:Weissfluhjoch", "Fieldsite")
            .body("High alpine field site for snow and avalanche research")
            .annotate("hasElevation", "2693")
            .annotate("hasLatitude", "46.8333")
            .annotate("hasLongitude", "9.8064")
            .tag("snow"),
    )
    .unwrap();
    smr.create_page(
        PageDraft::new("Fieldsite:Davos", "Fieldsite")
            .body("Valley station near Davos for climate monitoring")
            .annotate("hasElevation", "1594")
            .annotate("hasLatitude", "46.8")
            .annotate("hasLongitude", "9.83")
            .tag("climate"),
    )
    .unwrap();
    smr.create_page(
        PageDraft::new("Deployment:wfj_temp", "Deployment")
            .body("Temperature sensor measuring snow surface temperature")
            .annotate("measuresQuantity", "temperature")
            .annotate("deployedAt", "Fieldsite:Weissfluhjoch")
            .link("Fieldsite:Weissfluhjoch")
            .tag("snow"),
    )
    .unwrap();
    smr.create_page(
        PageDraft::new("Deployment:davos_wind", "Deployment")
            .body("Wind speed sensor at Davos")
            .annotate("measuresQuantity", "wind_speed")
            .annotate("deployedAt", "Fieldsite:Davos")
            .link("Fieldsite:Davos")
            .tag("wind"),
    )
    .unwrap();
    smr.create_page(
        PageDraft::new("Internal:secret_plan", "Internal")
            .body("secret temperature calibration notes")
            .annotate("measuresQuantity", "temperature"),
    )
    .unwrap();
    smr
}

#[test]
fn keyword_search_ranks_and_snippets() {
    let engine = QueryEngine::open(small_smr()).unwrap();
    let out = engine
        .search(&SearchForm::keywords("temperature"), None)
        .unwrap();
    assert!(out.total_matched >= 2);
    // BM25 is length-normalized, so the exact winner between the two
    // temperature-heavy pages is close; the wfj deployment must be in the
    // top two and every hit carries a keyword snippet and positive score.
    let pos = out
        .items
        .iter()
        .position(|i| i.title == "Deployment:wfj_temp")
        .expect("wfj deployment found");
    assert!(pos <= 1, "rank {pos}");
    assert!(out.items[0].snippet.to_lowercase().contains("temperature"));
    assert!(out.items[0].score > 0.0);
}

#[test]
fn sparql_condition_path() {
    let engine = QueryEngine::open(small_smr()).unwrap();
    let form = SearchForm::default().condition(Condition::new(
        "measuresQuantity",
        CondOp::Eq,
        "temperature",
    ));
    let out = engine.search(&form, None).unwrap();
    let titles: Vec<&str> = out.items.iter().map(|i| i.title.as_str()).collect();
    assert!(titles.contains(&"Deployment:wfj_temp"));
    assert!(titles.contains(&"Internal:secret_plan"));
}

#[test]
fn sql_numeric_condition_path() {
    let engine = QueryEngine::open(small_smr()).unwrap();
    let form = SearchForm::default().condition(Condition::new("hasElevation", CondOp::Gt, "2000"));
    let out = engine.search(&form, None).unwrap();
    assert_eq!(out.items.len(), 1);
    assert_eq!(out.items[0].title, "Fieldsite:Weissfluhjoch");
    let form = SearchForm::default().condition(Condition::new(
        "hasElevation",
        CondOp::Between,
        "1000..2000",
    ));
    let out = engine.search(&form, None).unwrap();
    assert_eq!(out.items[0].title, "Fieldsite:Davos");
}

#[test]
fn combined_keyword_and_condition() {
    let engine = QueryEngine::open(small_smr()).unwrap();
    let form = SearchForm::keywords("sensor").condition(Condition::new(
        "measuresQuantity",
        CondOp::Eq,
        "wind_speed",
    ));
    let out = engine.search(&form, None).unwrap();
    assert_eq!(out.items.len(), 1);
    assert_eq!(out.items[0].title, "Deployment:davos_wind");
}

#[test]
fn soft_conditions_report_match_degree() {
    let engine = QueryEngine::open(small_smr()).unwrap();
    let mut form = SearchForm::default()
        .condition(Condition::new("hasElevation", CondOp::Gt, "2000"))
        .condition(Condition::new("hasElevation", CondOp::Lt, "3000"));
    form.soft_conditions = true;
    let out = engine.search(&form, None).unwrap();
    // WFJ matches both (degree 1.0); Davos matches only Lt (degree 0.5).
    let degree = |t: &str| {
        out.items
            .iter()
            .find(|i| i.title == t)
            .map(|i| i.match_degree)
            .unwrap()
    };
    assert_eq!(degree("Fieldsite:Weissfluhjoch"), 1.0);
    assert_eq!(degree("Fieldsite:Davos"), 0.5);
}

#[test]
fn acl_hides_namespaces() {
    let mut acl = Acl::new();
    acl.grant("public", "Fieldsite");
    acl.grant("public", "Deployment");
    acl.grant("staff", "Internal");
    acl.add_member("bob", "staff");
    let engine = QueryEngine::build(small_smr(), acl, RankBlend::default()).unwrap();
    let form = SearchForm::keywords("temperature");
    let anon = engine.search(&form, None).unwrap();
    assert!(anon.items.iter().all(|i| i.namespace != "Internal"));
    let bob = engine.search(&form, Some("bob")).unwrap();
    assert!(bob.items.iter().any(|i| i.namespace == "Internal"));
}

#[test]
fn namespace_filter() {
    let engine = QueryEngine::open(small_smr()).unwrap();
    let mut form = SearchForm::keywords("sensor snow temperature wind");
    form.namespace = Some("Fieldsite".into());
    let out = engine.search(&form, None).unwrap();
    assert!(!out.items.is_empty());
    assert!(out.items.iter().all(|i| i.namespace == "Fieldsite"));
}

#[test]
fn sort_by_attribute_and_title() {
    let engine = QueryEngine::open(small_smr()).unwrap();
    let mut form = SearchForm::default().condition(Condition::new("hasElevation", CondOp::Gt, "0"));
    form.sort_by = SortBy::Attribute("hasElevation".into());
    let out = engine.search(&form, None).unwrap();
    assert_eq!(out.items[0].title, "Fieldsite:Davos", "ascending numeric");
    form.descending = true;
    let out = engine.search(&form, None).unwrap();
    assert_eq!(out.items[0].title, "Fieldsite:Weissfluhjoch");
    form.sort_by = SortBy::Title;
    form.descending = false;
    let out = engine.search(&form, None).unwrap();
    assert_eq!(out.items[0].title, "Fieldsite:Davos");
}

#[test]
fn geolocated_results_carry_coords() {
    let engine = QueryEngine::open(small_smr()).unwrap();
    let form = SearchForm::default().condition(Condition::new("hasElevation", CondOp::Gt, "0"));
    let out = engine.search(&form, None).unwrap();
    assert_eq!(out.geolocated().count(), 2);
}

#[test]
fn facets_cover_match_set() {
    let engine = QueryEngine::open(small_smr()).unwrap();
    let out = engine
        .search(&SearchForm::keywords("sensor temperature wind"), None)
        .unwrap();
    let quantity_total: usize = out
        .facets
        .iter()
        .filter(|f| f.attribute == "measuresQuantity")
        .map(|f| f.count)
        .sum();
    assert!(quantity_total >= 2);
}

#[test]
fn recommendations_exclude_results_and_share_properties() {
    let engine = QueryEngine::open(small_smr()).unwrap();
    // Search that matches only the wfj deployment; davos_wind shares the
    // measuresQuantity/deployedAt properties and should be recommended.
    let form = SearchForm::keywords("surface");
    let out = engine.search(&form, None).unwrap();
    assert_eq!(out.items.len(), 1);
    assert!(
        out.recommendations
            .iter()
            .any(|r| r.title == "Deployment:davos_wind"),
        "recommendations: {:?}",
        out.recommendations
    );
    let rec = out
        .recommendations
        .iter()
        .find(|r| r.title == "Deployment:davos_wind")
        .unwrap();
    assert!(rec
        .shared_properties
        .contains(&"measuresQuantity".to_string()));
}

#[test]
fn pagerank_favors_linked_to_pages() {
    let engine = QueryEngine::open(small_smr()).unwrap();
    // Field sites receive links from deployments; deployments receive none.
    let wfj = engine.pagerank_of("Fieldsite:Weissfluhjoch").unwrap();
    let dep = engine.pagerank_of("Deployment:wfj_temp").unwrap();
    assert!(wfj > dep, "wfj {wfj} vs dep {dep}");
}

#[test]
fn autocomplete_suggests_titles_and_attributes() {
    let engine = QueryEngine::open(small_smr()).unwrap();
    let suggestions = engine.autocomplete("Fieldsite:", 10);
    assert_eq!(suggestions.len(), 2);
    let attrs = engine.autocomplete("has", 10);
    assert!(attrs.iter().any(|(s, _)| s == "haselevation"));
}

#[test]
fn empty_form_is_an_error() {
    let engine = QueryEngine::open(small_smr()).unwrap();
    assert!(engine.search(&SearchForm::default(), None).is_err());
}

#[test]
fn engine_over_generated_corpus() {
    let pages = generate_corpus(&CorpusConfig::default());
    let mut smr = Smr::new();
    let report = smr.bulk_load(pages.into_iter().map(|p| {
        let mut d = PageDraft::new(p.title, p.namespace).body(p.body);
        d.annotations = p.annotations;
        d.links = p.links;
        d.tags = p.tags;
        d
    }));
    assert!(report.errors.is_empty(), "{:?}", report.errors);
    let engine = QueryEngine::open(smr).unwrap();
    // Keyword search across the corpus.
    let out = engine
        .search(&SearchForm::keywords("temperature"), None)
        .unwrap();
    assert!(!out.items.is_empty());
    // Structured search: high-altitude field sites.
    let form = SearchForm::default().condition(Condition::new("hasElevation", CondOp::Gt, "2500"));
    let high = engine.search(&form, None).unwrap();
    assert!(high.items.iter().all(|i| i.namespace == "Fieldsite"));
    for item in &high.items {
        assert!(item.coords.is_some(), "field sites are geolocated");
    }
    // A warm pass over the unchanged corpus is answered from the result
    // cache. Pinned at one epoch vector, as the server pins a request to its
    // snapshot, so sibling tests bumping the global clock cannot interfere.
    let opts = SearchOptions {
        at: Some(sensormeta_cache::clock().snapshot()),
        ..SearchOptions::default()
    };
    for pass in 0..2 {
        for q in ["temperature", "snow height", "wind speed", "Davos"] {
            let (_, status) = engine
                .search_shared(&SearchForm::keywords(q), &opts)
                .unwrap();
            assert!(pass == 0 || status == Status::Hit, "{q}: {status:?}");
        }
    }
    // The planner takes the indexed paths on the repository's own schema.
    let explain = |sql: &str| {
        let plan = engine.smr().sql(&format!("EXPLAIN {sql}")).unwrap();
        let steps: Vec<String> = plan.rows.iter().map(|r| r[0].to_string()).collect();
        steps.join(" | ")
    };
    let plan = explain("SELECT title FROM pages WHERE title ILIKE '%DAVOS%'");
    assert!(plan.starts_with("TrigramSeek pages"), "{plan}");
    let plan = explain(
        "SELECT p.title, a.value FROM pages AS p JOIN annotations AS a \
         ON a.page_id = p.id WHERE a.attribute = 'hasVendor'",
    );
    assert!(plan.contains("JoinReorder"), "{plan}");
    assert!(plan.contains("IndexProbeInnerJoin"), "{plan}");
    // Rebuild after adding a page keeps the engine consistent.
    let mut engine = engine;
    engine
        .smr_mut()
        .create_page(
            PageDraft::new("Deployment:new_probe", "Deployment")
                .body("a brand new temperature probe"),
        )
        .unwrap();
    engine.rebuild().unwrap();
    let out2 = engine
        .search(&SearchForm::keywords("brand new probe"), None)
        .unwrap();
    assert_eq!(out2.items[0].title, "Deployment:new_probe");
}

#[test]
fn limit_truncates_but_total_counts() {
    let engine = QueryEngine::open(small_smr()).unwrap();
    let mut form =
        SearchForm::default().condition(Condition::new("measuresQuantity", CondOp::Contains, "e"));
    form.limit = 1;
    let out = engine.search(&form, None).unwrap();
    assert_eq!(out.items.len(), 1);
    assert!(out.total_matched >= 2);
}

#[test]
fn did_you_mean_on_zero_results() {
    let engine = QueryEngine::open(small_smr()).unwrap();
    let out = engine
        .search(&SearchForm::keywords("temperture"), None)
        .unwrap();
    assert_eq!(out.total_matched, 0);
    assert_eq!(out.did_you_mean.as_deref(), Some("temperature"));
    // Successful queries never carry a suggestion.
    let out = engine
        .search(&SearchForm::keywords("temperature"), None)
        .unwrap();
    assert!(out.did_you_mean.is_none());
    // Condition-only queries never carry one either.
    let out = engine
        .search(
            &SearchForm::default().condition(Condition::new("hasElevation", CondOp::Gt, "9999")),
            None,
        )
        .unwrap();
    assert!(out.did_you_mean.is_none());
}

#[test]
fn map_region_filters_geolocated_pages() {
    let engine = QueryEngine::open(small_smr()).unwrap();
    // A box around Davos/WFJ (lon > 9) excludes nothing in GR but a narrow
    // box around WFJ's latitude keeps only WFJ.
    let mut form = SearchForm::default().condition(Condition::new("hasElevation", CondOp::Gt, "0"));
    form.region = Some((46.82, 46.85, 9.0, 10.0));
    let out = engine.search(&form, None).unwrap();
    assert_eq!(out.items.len(), 1);
    assert_eq!(out.items[0].title, "Fieldsite:Weissfluhjoch");
    // Pages without coordinates never match a region-scoped search.
    let mut form = SearchForm::keywords("temperature");
    form.region = Some((0.0, 90.0, 0.0, 90.0));
    let out = engine.search(&form, None).unwrap();
    assert!(out.items.iter().all(|i| i.coords.is_some()));
}

#[test]
fn region_only_search_is_valid_map_browsing() {
    let engine = QueryEngine::open(small_smr()).unwrap();
    let form = SearchForm {
        region: Some((46.0, 47.0, 9.0, 10.0)),
        ..SearchForm::default()
    };
    let out = engine.search(&form, None).unwrap();
    assert_eq!(out.items.len(), 2, "both GR field sites");
    assert!(out.items.iter().all(|i| i.coords.is_some()));
}

#[test]
fn pushdown_preserves_multi_condition_results() {
    let engine = QueryEngine::open(small_smr()).unwrap();
    // Two hard conditions trigger the selectivity-ordered semi-join pushdown;
    // the surviving set must be exactly the pages matching both.
    let before = sensormeta_obs::counter("query_pushdown_semijoin_total").get();
    let form = SearchForm::default()
        .condition(Condition::new(
            "measuresQuantity",
            CondOp::Eq,
            "temperature",
        ))
        .condition(Condition::new(
            "deployedAt",
            CondOp::Contains,
            "Weissfluhjoch",
        ));
    let out = engine.search(&form, None).unwrap();
    let titles: Vec<&str> = out.items.iter().map(|i| i.title.as_str()).collect();
    assert_eq!(titles, ["Deployment:wfj_temp"]);
    assert!(
        sensormeta_obs::counter("query_pushdown_semijoin_total").get() > before,
        "second condition should have been evaluated as a semi-join"
    );
    // An empty first intersection short-circuits the rest.
    let form = SearchForm::default()
        .condition(Condition::new(
            "measuresQuantity",
            CondOp::Eq,
            "no_such_quantity",
        ))
        .condition(Condition::new("hasElevation", CondOp::Gt, "0"));
    let out = engine.search(&form, None).unwrap();
    assert!(out.items.is_empty());
}

#[test]
fn pushdown_leaves_soft_conditions_independent() {
    let engine = QueryEngine::open(small_smr()).unwrap();
    // Soft mode scores each condition independently, so the pushdown must
    // not restrict later conditions: Davos matches only one of the two.
    let mut form = SearchForm::default()
        .condition(Condition::new(
            "measuresQuantity",
            CondOp::Eq,
            "temperature",
        ))
        .condition(Condition::new("hasElevation", CondOp::Lt, "3000"));
    form.soft_conditions = true;
    let out = engine.search(&form, None).unwrap();
    let degree = |t: &str| {
        out.items
            .iter()
            .find(|i| i.title == t)
            .map(|i| i.match_degree)
            .unwrap()
    };
    assert_eq!(degree("Fieldsite:Davos"), 0.5);
    assert_eq!(degree("Deployment:wfj_temp"), 0.5);
}

#[test]
fn autocomplete_falls_back_to_substring_matches() {
    let engine = QueryEngine::open(small_smr()).unwrap();
    // "davos" is not a title or attribute prefix, but the trigram-backed
    // ILIKE fallback surfaces mid-title matches.
    let out = engine.autocomplete("davos", 10);
    assert!(
        out.iter().any(|(s, _)| s == "Fieldsite:Davos"),
        "substring fallback missing: {out:?}"
    );
    assert!(out.iter().any(|(s, _)| s == "Deployment:davos_wind"));
    // Short fragments stay prefix-only (trigram needs 3+ chars).
    let short = engine.autocomplete("da", 10);
    assert!(short
        .iter()
        .all(|(s, _)| s.to_lowercase().starts_with("da")));
    // The prefix trie still wins when it already fills the budget.
    let prefixed = engine.autocomplete("Fieldsite:", 10);
    assert_eq!(prefixed.len(), 2);
}
