//! Relational work per search: an uncached search reads page rows only for
//! the results it shows. Ranking, filtering and faceting run on the
//! engine's in-memory facts, so a keyword search matching hundreds of pages
//! with `limit=10` costs at most one indexed body read per shown item plus
//! the condition queries.
//!
//! One test function: the `obs` registry the seek counter lives in is
//! process-global, so concurrent tests would pollute each other's deltas.

use sensormeta_obs as obs;
use sensormeta_query::{CondOp, Condition, QueryEngine, SearchForm};
use sensormeta_smr::{PageDraft, Smr};
use sensormeta_workload::{generate_corpus, CorpusConfig};

/// Index seeks one search may spend: one body read per shown item plus two
/// per condition.
fn seek_budget(form: &SearchForm) -> u64 {
    (form.effective_limit() + 2 * form.conditions.len()) as u64
}

#[test]
fn search_reads_page_rows_only_for_shown_results() {
    let cfg = CorpusConfig {
        deployments_per_site: 12,
        ..CorpusConfig::default()
    };
    let mut smr = Smr::new();
    let report = smr.bulk_load(generate_corpus(&cfg).into_iter().map(|p| {
        let mut d = PageDraft::new(p.title, p.namespace).body(p.body);
        d.annotations = p.annotations;
        d.links = p.links;
        d.tags = p.tags;
        d
    }));
    assert!(report.errors.is_empty(), "{:?}", report.errors);
    let engine = QueryEngine::open(smr).expect("engine");
    let seeks = obs::counter("sql_plan_index_seek_total");

    let keyword = SearchForm {
        limit: 10,
        ..SearchForm::keywords("sensor")
    };
    let with_condition = keyword.clone().condition(Condition::new(
        "hasSamplingIntervalMinutes",
        CondOp::Gt,
        "0",
    ));
    for form in [&keyword, &with_condition] {
        let before = seeks.get();
        let out = engine.search_uncached(form, None).expect("search");
        let spent = seeks.get() - before;
        assert!(
            out.total_matched >= 200,
            "the form must match many pages: {}",
            out.total_matched
        );
        assert_eq!(out.items.len(), 10);
        assert!(
            spent <= seek_budget(form),
            "{} candidates cost {spent} index seeks (budget {})",
            out.total_matched,
            seek_budget(form)
        );
    }
}
