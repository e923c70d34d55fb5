//! Relational work per search: an uncached search reads page rows only for
//! the results it shows. Ranking, filtering and faceting run on the
//! engine's in-memory facts, so a keyword search matching hundreds of pages
//! with `limit=10` costs at most one indexed body read per shown item plus
//! the condition queries. Within a statement, relstore builds only the
//! column values the statement references.
//!
//! One test function: the `obs` registry the counters live in is
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
    let report = smr.bulk_load(generate_corpus(&cfg).into_iter().map(PageDraft::from));
    assert!(report.errors.is_empty(), "{:?}", report.errors);
    let decoded = obs::counter("relstore_values_decoded_total");

    // `page_body` builds one value per call: the seek on `title` implies
    // the WHERE equality, so only `body` is decoded.
    let titles = smr.page_titles().expect("titles");
    for title in titles.iter().take(5) {
        let before = decoded.get();
        let body = smr.page_body(title).expect("body");
        assert!(body.is_some());
        assert_eq!(decoded.get() - before, 1, "page_body({title})");
    }

    let engine = QueryEngine::open(smr).expect("engine");
    let seeks = obs::counter("sql_plan_index_seek_total");

    // The condition join seeks the attribute's annotation rows and probes
    // each one's page. It decodes `page_id` and `value` of every annotation
    // row (the seek implies `attribute`) and `id` and `title` of every page
    // it probes — never `body`, `namespace` or `revision`.
    let count = |sql: &str| -> u64 {
        engine.smr().sql(sql).expect("count").rows[0][0]
            .as_int()
            .expect("count is an integer") as u64
    };
    let annotation_rows =
        count("SELECT COUNT(*) FROM annotations WHERE attribute = 'hasSamplingIntervalMinutes'");
    let probed_pages = count(
        "SELECT COUNT(*) FROM annotations a JOIN pages p ON a.page_id = p.id \
         WHERE a.attribute = 'hasSamplingIntervalMinutes'",
    );
    assert!(annotation_rows >= 200, "{annotation_rows} annotation rows");
    let plan = engine
        .smr()
        .sql(
            "EXPLAIN SELECT p.title, a.value FROM annotations a JOIN pages p \
             ON a.page_id = p.id WHERE a.attribute = 'hasSamplingIntervalMinutes'",
        )
        .expect("explain");
    assert!(
        plan.rows[0][0]
            .to_string()
            .starts_with("IndexSeek annotations"),
        "{plan:?}"
    );
    let sampling = Condition::new("hasSamplingIntervalMinutes", CondOp::Gt, "0");
    let before = decoded.get();
    engine.sql_condition_titles(&sampling).expect("sql");
    assert_eq!(
        decoded.get() - before,
        annotation_rows * 2 + probed_pages * 2,
        "{annotation_rows} annotation rows, {probed_pages} pages probed"
    );

    let keyword = SearchForm {
        limit: 10,
        ..SearchForm::keywords("sensor")
    };
    let with_condition = keyword.clone().condition(sampling);
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
