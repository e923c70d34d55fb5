//! The JSON the server writes: every payload `serde_json::to_string`
//! streams through the derived `write_json` (search outputs, bulk-load
//! reports, recommendations) is byte for byte the text of its
//! `serde::Value` tree, and `/tags.json`, built as a tree, reads back to
//! the bytes it was written as.

use sensormeta_query::{CondOp, Condition, QueryEngine, SearchForm, SortBy};
use sensormeta_server::{parse_query, App, Request};
use sensormeta_smr::{PageDraft, Smr};
use sensormeta_workload::{generate_corpus, CorpusConfig};
use std::collections::BTreeMap;

fn get(app: &App, target: &str) -> String {
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, parse_query(q)),
        None => (target, BTreeMap::new()),
    };
    let resp = app.handle(&Request {
        method: "GET".into(),
        path: path.into(),
        query,
        headers: BTreeMap::new(),
        body: Vec::new(),
    });
    assert_eq!(resp.status, 200, "{target}");
    String::from_utf8(resp.body).expect("utf-8 body")
}

/// The streamed text of `value` and the text of its value tree.
fn both<T: serde_json::__serde::Serialize>(value: &T) -> (String, String) {
    let streamed = serde_json::to_string(value).expect("json");
    (streamed, serde_json::json!(value).to_string())
}

#[test]
fn streamed_payloads_equal_their_value_trees() {
    let mut smr = Smr::new();
    let mut drafts: Vec<PageDraft> = generate_corpus(&CorpusConfig {
        institutions: 3,
        ..CorpusConfig::default()
    })
    .into_iter()
    .map(PageDraft::from)
    .collect();
    // Text that needs escaping, and non-ASCII text, in titles, bodies and
    // values.
    let mut odd = PageDraft::new("Site:Quote \"q\" \\ tab\there", "Site")
        .body("Weißfluhjoch ẞ 雪 🏔 line\nbreak \u{1}")
        .annotate("hasNote", "ctrl \u{1f} \"x\"");
    odd.tags = vec!["snow".into()];
    drafts.push(odd);
    // Two drafts the load rejects, so the report carries errors.
    drafts.push(PageDraft::new("", "Site"));
    drafts.push(PageDraft::new("Site:Quote \"q\" \\ tab\there", "Site"));
    let report = smr.bulk_load(drafts);
    assert!(!report.errors.is_empty());
    let (streamed, tree) = both(&report);
    assert_eq!(streamed, tree, "bulk-load report");

    let engine = QueryEngine::open(smr).expect("engine");
    let forms = [
        SearchForm::keywords("temperature sensor"),
        SearchForm::keywords("weißfluhjoch quote"),
        SearchForm::keywords("zzzqqq"),
        SearchForm {
            keywords: "snow".into(),
            sort_by: SortBy::Title,
            limit: 50,
            ..SearchForm::default()
        },
        SearchForm::default().condition(Condition::new("hasElevation", CondOp::Gt, "1000")),
        SearchForm::default().condition(Condition::new("hasNote", CondOp::Contains, "ctrl")),
    ];
    let app = App::new(engine.clone_reader());
    for form in &forms {
        let out = engine.search_uncached(form, None).expect("search");
        let (streamed, tree) = both(&out);
        assert_eq!(streamed, tree, "{form:?}");
        let titles: Vec<&str> = out.items.iter().map(|i| i.title.as_str()).collect();
        let recs = engine.recommend(&titles, 10);
        let (streamed, tree) = both(&recs);
        assert_eq!(streamed, tree, "recommendations for {form:?}");
    }
    let out = engine
        .search_uncached(&SearchForm::keywords("temperature"), None)
        .expect("search");
    assert!(!out.items.is_empty() && !out.facets.is_empty());
    assert_eq!(
        get(&app, "/search?q=temperature"),
        serde_json::json!(out).to_string(),
        "/search"
    );

    let tags = get(&app, "/tags.json");
    let value: serde_json::Value = serde_json::from_str(&tags).expect("tags json");
    assert!(!value.as_array().expect("an array").is_empty());
    assert_eq!(serde_json::to_string(&value).expect("json"), tags);
}
