//! Page and property IRIs are injective. Titles `A B` and `A_B` get
//! distinct subjects in the RDF mirror, so deleting one page leaves every
//! triple of the other, and an `eq` condition on an attribute whose name
//! holds a space is answered by SPARQL through the same property IRI the
//! mirror writes, with no SQL fallback.
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
}
