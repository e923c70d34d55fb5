//! Relational work per search: an uncached search reads page rows only for
//! the results it shows, and a condition reads only the annotation rows it
//! can match. Ranking, filtering and faceting run on the engine's in-memory
//! facts, so a keyword search matching hundreds of pages with `limit=10`
//! costs one statement for the shown bodies plus the condition queries; a
//! numeric condition seeks the range of `(attribute, value_num)` it
//! accepts, and `contains` reads the candidates of the values' trigram
//! index. A condition names its pages by `annotations.page_id`, so it never
//! joins `pages`. Within a statement, relstore builds only the column
//! values the statement references.
//!
//! One test function: the `obs` registry the counters live in is
//! process-global, so concurrent tests would pollute each other's deltas.

use sensormeta_obs as obs;
use sensormeta_query::{CondOp, Condition, QueryEngine, SearchForm};
use sensormeta_smr::{PageDraft, Smr};
use sensormeta_workload::{generate_corpus, CorpusConfig};

/// Every access path that seeks an index, whatever its kind.
fn seeks() -> u64 {
    obs::counter("sql_plan_index_seek_total").get()
}

/// Seeks one search may spend: one for the shown bodies plus one per
/// condition (its annotation seek).
fn seek_budget(form: &SearchForm) -> u64 {
    1 + form.conditions.len() as u64
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

    // `page_bodies` builds the title and body of each page in one
    // multi-key seek, which implies the `IN` list.
    let titles = smr.page_titles().expect("titles");
    let shown: Vec<&str> = titles.iter().take(16).map(String::as_str).collect();
    let plan = smr
        .sql(&format!(
            "EXPLAIN SELECT title, body FROM pages WHERE title IN ({})",
            shown
                .iter()
                .map(|t| format!("'{}'", sensormeta_smr::sql_escape(t)))
                .collect::<Vec<_>>()
                .join(", ")
        ))
        .expect("explain");
    assert_eq!(
        plan.rows[0][0].to_string(),
        "MultiSeek pages via pages_title_unique (in 16 keys on title)",
        "{plan:?}"
    );
    let (before, multi) = (decoded.get(), obs::counter("sql_plan_multi_seek_total"));
    let multi_before = multi.get();
    let bodies = smr.page_bodies(&shown).expect("bodies");
    assert_eq!(decoded.get() - before, 2 * 16);
    assert_eq!(multi.get() - multi_before, 1);
    for (title, body) in shown.iter().zip(&bodies) {
        let page = smr.get_page(title).expect("get_page").expect("a page");
        assert_eq!(body.as_deref(), Some(page.body.as_str()), "{title}");
    }

    let engine = QueryEngine::open(smr).expect("engine");
    let pages = engine.smr().pages().expect("pages");
    // Annotation rows of the condition's attribute that it matches, by a
    // scan of the corpus.
    let matching = |cond: &Condition| -> u64 {
        pages
            .iter()
            .flat_map(|p| &p.annotations)
            .filter(|(a, v)| *a == cond.attribute && cond.matches(v))
            .count() as u64
    };
    // The access paths the statement `sql_condition_titles` sends takes:
    // (its range scans, its trigram seeks, every seek it makes).
    let range = obs::counter("sql_plan_range_scan_total");
    let trigram = obs::counter("sql_plan_trigram_seek_total");
    let paths = || (range.get(), trigram.get(), seeks());

    // A plain attribute lookup seeks the `attribute` prefix of the
    // composite index.
    let plan = engine
        .smr()
        .sql(
            "EXPLAIN SELECT p.title, a.value FROM annotations a JOIN pages p \
             ON a.page_id = p.id WHERE a.attribute = 'hasSamplingIntervalMinutes'",
        )
        .expect("explain");
    assert_eq!(
        plan.rows[0][0].to_string(),
        "IndexSeek annotations via annotations_attr_num (eq on attribute)",
        "{plan:?}"
    );

    // `gt`, `lt` and `between` are one range scan that reads exactly their
    // matching rows: `page_id` and `value_num` of each (the seek implies
    // `attribute`), and no page row.
    let attribute_rows = matching(&Condition::new(
        "hasSamplingIntervalMinutes",
        CondOp::Contains,
        "",
    ));
    assert!(attribute_rows >= 200, "{attribute_rows} annotation rows");
    for cond in [
        Condition::new("hasSamplingIntervalMinutes", CondOp::Gt, "10"),
        Condition::new("hasSamplingIntervalMinutes", CondOp::Lt, "5"),
        Condition::new("hasSamplingIntervalMinutes", CondOp::Between, "5..30"),
    ] {
        let rows = matching(&cond);
        assert!(0 < rows && rows < attribute_rows, "{cond:?}: {rows} rows");
        let (before, (r0, t0, s0)) = (decoded.get(), paths());
        let titles = engine.sql_condition_titles(&cond).expect("sql");
        let (r1, t1, s1) = paths();
        assert_eq!((r1 - r0, t1 - t0, s1 - s0), (1, 0, 1), "{cond:?}");
        assert_eq!(titles.len() as u64, rows, "{cond:?}");
        assert_eq!(decoded.get() - before, rows * 2, "{cond:?}: {rows} rows");
    }
    // An operand no value can satisfy issues no statement.
    for cond in [
        Condition::new("hasSamplingIntervalMinutes", CondOp::Gt, "NaN"),
        Condition::new("hasSamplingIntervalMinutes", CondOp::Between, "1..junk"),
    ] {
        let before = (decoded.get(), seeks());
        assert!(engine.sql_condition_titles(&cond).expect("sql").is_empty());
        assert_eq!((decoded.get(), seeks()), before, "{cond:?}");
    }

    // `contains` is one trigram seek that reads the candidates: rows of
    // any attribute whose value holds every trigram of the needle. It
    // builds `page_id`, `attribute` and `value` of each, and probes no
    // page.
    let cond = Condition::new("partOfProject", CondOp::Contains, "SNOW");
    let grams: Vec<String> = {
        let needle: Vec<char> = cond.value.to_lowercase().chars().collect();
        needle.windows(3).map(|w| w.iter().collect()).collect()
    };
    let candidates = pages
        .iter()
        .flat_map(|p| &p.annotations)
        .filter(|(_, v)| {
            let v = v.to_lowercase();
            grams.iter().all(|g| v.contains(g.as_str()))
        })
        .count() as u64;
    let rows = matching(&cond);
    assert!(
        0 < rows && candidates < attribute_rows,
        "{rows} rows, {candidates} candidates"
    );
    let (before, (r0, t0, s0)) = (decoded.get(), paths());
    let titles = engine.sql_condition_titles(&cond).expect("sql");
    let (r1, t1, s1) = paths();
    assert_eq!((r1 - r0, t1 - t0, s1 - s0), (0, 1, 1));
    assert_eq!(titles.len() as u64, rows);
    assert_eq!(
        decoded.get() - before,
        candidates * 3,
        "{candidates} candidates"
    );

    let keyword = SearchForm {
        limit: 10,
        ..SearchForm::keywords("sensor")
    };
    let sampling = Condition::new("hasSamplingIntervalMinutes", CondOp::Gt, "0");
    let with_condition = keyword.clone().condition(sampling);
    for form in [&keyword, &with_condition] {
        let (before, multi_before) = (seeks(), multi.get());
        let out = engine.search_uncached(form, None).expect("search");
        let spent = seeks() - before;
        assert!(
            out.total_matched >= 200,
            "the form must match many pages: {}",
            out.total_matched
        );
        assert_eq!(out.items.len(), 10);
        assert_eq!(multi.get() - multi_before, 1, "one body statement");
        assert_eq!(
            spent,
            seek_budget(form),
            "{} candidates cost {spent} index seeks",
            out.total_matched,
        );
    }
}
