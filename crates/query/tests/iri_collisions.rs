//! Page and property IRIs are injective. Titles `A B` and `A_B` get
//! distinct subjects in the RDF mirror, so deleting one page leaves every
//! triple of the other, and an `eq` condition on an attribute whose name
//! holds a space is answered by SPARQL through the same property IRI the
//! mirror writes, with no SQL fallback. Annotations named `title` and
//! `linksTo` do not share the IRIs of the built-in title and wiki-link
//! predicates, so SPARQL and SQL agree on conditions over them.
//!
//! One test function: the `obs` registry the counters live in is
//! process-global, so concurrent tests would pollute each other's deltas.

use sensormeta_obs as obs;
use sensormeta_query::{CondOp, Condition, QueryEngine, SearchForm};
use sensormeta_smr::{PageDraft, Smr};

const PROP: &str = "http://swiss-experiment.ch/property/";

/// Triples whose subject is `title`'s page IRI.
fn triples_of(smr: &Smr, title: &str) -> usize {
    smr.sparql(&format!(
        "SELECT ?p ?o WHERE {{ <{}> ?p ?o }}",
        Smr::page_iri(title)
    ))
    .expect("subject query")
    .len()
}

/// Pages whose mirrored title is `title`.
fn pages_titled(smr: &Smr, title: &str) -> usize {
    smr.sparql(&format!(
        "PREFIX prop: <{PROP}> SELECT ?page WHERE {{ ?page prop:title \"{title}\" }}"
    ))
    .expect("title query")
    .len()
}

#[test]
fn distinct_names_keep_distinct_iris() {
    let mut smr = Smr::new();
    for (title, kind) in [("Site:A B", "snow"), ("Site:A_B", "wind")] {
        smr.create_page(PageDraft::new(title, "Site").annotate("sensor type", kind))
            .expect("create page");
    }
    assert_ne!(Smr::page_iri("Site:A B"), Smr::page_iri("Site:A_B"));
    assert_ne!(Smr::page_iri("A B"), Smr::page_iri("A%20B"));
    assert_ne!(
        Smr::property_iri("sensor type"),
        Smr::property_iri("sensor_type")
    );
    let (spaced, underscored) = (triples_of(&smr, "Site:A B"), triples_of(&smr, "Site:A_B"));
    assert_eq!(
        (spaced, underscored),
        (3, 3),
        "type, title, annotation each"
    );

    assert!(smr.delete_page("Site:A B").expect("delete"));
    assert_eq!(triples_of(&smr, "Site:A B"), 0);
    assert_eq!(
        triples_of(&smr, "Site:A_B"),
        underscored,
        "other page's triples"
    );
    assert_eq!(pages_titled(&smr, "Site:A_B"), 1);
    assert_eq!(pages_titled(&smr, "Site:A B"), 0);

    let engine = QueryEngine::open(smr).expect("engine");
    let sparql = obs::counter("query_sparql_conditions_total");
    let sql = obs::counter("query_sql_conditions_total");
    let (sparql_before, sql_before) = (sparql.get(), sql.get());
    let form = SearchForm::default().condition(Condition::new("sensor type", CondOp::Eq, "wind"));
    let out = engine.search(&form, None).expect("search");
    let titles: Vec<&str> = out.items.iter().map(|i| i.title.as_str()).collect();
    assert_eq!(titles, ["Site:A_B"]);
    assert_eq!(sparql.get() - sparql_before, 1, "answered by SPARQL");
    assert_eq!(sql.get() - sql_before, 0, "no SQL fallback");

    // `Site:A` has no annotation; `Site:L` only links to it; `Site:T`
    // carries annotations named like the built-in predicates.
    let mut smr = Smr::new();
    smr.create_page(PageDraft::new("Site:A", "Site"))
        .expect("create page");
    smr.create_page(PageDraft::new("Site:L", "Site").link("Site:A"))
        .expect("create page");
    smr.create_page(
        PageDraft::new("Site:T", "Site")
            .annotate("title", "Fake title")
            .annotate("linksTo", "Site:A"),
    )
    .expect("create page");
    assert_ne!(Smr::property_iri("title"), format!("{PROP}title"));
    assert_ne!(Smr::property_iri("linksTo"), format!("{PROP}linksTo"));
    assert_eq!(pages_titled(&smr, "Fake title"), 0, "not a second title");
    assert_eq!(pages_titled(&smr, "Site:T"), 1);
    let linking: Vec<String> = smr
        .sparql(&format!(
            "PREFIX prop: <{PROP}> SELECT ?page WHERE {{ ?page prop:linksTo <{}> }}",
            Smr::page_iri("Site:A")
        ))
        .expect("link query")
        .rows
        .iter()
        .map(|row| format!("{row:?}"))
        .collect();
    assert_eq!(linking.len(), 1, "only the wiki link: {linking:?}");
    assert!(linking[0].contains("Site:L"), "{linking:?}");
    let engine = QueryEngine::open(smr).expect("engine");
    for (value, expected) in [("Site:A", &[][..]), ("Fake title", &["Site:T"][..])] {
        let cond = Condition::new("title", CondOp::Eq, value);
        let sparql = engine.sparql_condition_titles(&cond).expect("sparql");
        let sql = engine.sql_condition_titles(&cond).expect("sql");
        assert_eq!(sparql, expected, "SPARQL half of title = {value}");
        assert_eq!(sql, expected, "SQL half of title = {value}");
        let form = SearchForm::default().condition(cond);
        let out = engine.search(&form, None).expect("search");
        let titles: Vec<&str> = out.items.iter().map(|i| i.title.as_str()).collect();
        assert_eq!(titles, expected, "search on title = {value}");
    }
}
