//! E14 — the cost-based SQL planner vs `PlannerConfig::Naive` (full
//! scans, joins in written order) on the repository's own schema at 10× the
//! demo corpus (40 institutions): trigram seek vs full scan for substring
//! `LIKE` and `ILIKE`, and the reordered index-probe join vs the nested loop.
//! Planned and naive rows are checked equal before anything is timed.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sensormeta_bench::corpus_smr;
use sensormeta_relstore::PlannerConfig;

/// Deployment titles embed the lowercased site name while the field-site
/// page keeps its casing, so `LIKE` and `ILIKE` match different sets.
const QUERIES: [(&str, &str); 3] = [
    (
        "like",
        "SELECT title FROM pages WHERE title LIKE '%rietholzbach%'",
    ),
    (
        "ilike",
        "SELECT title FROM pages WHERE title ILIKE '%RIETHOLZBACH%'",
    ),
    (
        "join",
        "SELECT p.title, a.value FROM pages AS p \
         JOIN annotations AS a ON a.page_id = p.id \
         WHERE a.attribute = 'hasVendor'",
    ),
];

fn bench_planner(c: &mut Criterion) {
    let smr = corpus_smr(40);
    let db = smr.database();
    let configs = [
        ("planned", PlannerConfig::Costed),
        ("naive", PlannerConfig::Naive),
    ];
    let mut group = c.benchmark_group("planner_vs_naive");
    group.sample_size(10);
    for (label, sql) in QUERIES {
        // The planner must be invisible in results before its speed matters.
        let [planned, naive] = configs.each_ref().map(|(_, cfg)| {
            let mut rows = db.query_with(sql, *cfg).expect("query").rows;
            rows.sort();
            rows
        });
        assert!(!planned.is_empty(), "`{sql}` matches nothing");
        assert_eq!(planned, naive, "planner changed results for `{sql}`");
        for (plan, cfg) in &configs {
            group.bench_with_input(BenchmarkId::new(label, plan), cfg, |b, cfg| {
                b.iter(|| db.query_with(sql, *cfg).expect("query").rows.len())
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_planner);
criterion_main!(benches);
