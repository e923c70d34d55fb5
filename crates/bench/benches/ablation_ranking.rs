//! E12 — search quality: BM25-only vs PageRank-blended ranking on a
//! synthetic relevance task.
//!
//! Relevance protocol: for each query term, the "relevant" pages are those
//! whose *annotations* carry the term (ground truth the ranker doesn't see
//! directly since annotations are mixed into a larger text soup); we report
//! precision@5 under both rankings. Search latency is measured over the wire
//! by `benchmark/` (`search_cold`), not here.

use sensormeta_bench::corpus_smr;
use sensormeta_query::Acl;
use sensormeta_query::{QueryEngine, RankBlend, SearchForm};
use sensormeta_workload::query_workload;
use std::collections::HashSet;

fn engine_with_weight(w: f64) -> QueryEngine {
    QueryEngine::build(
        corpus_smr(8),
        Acl::open(),
        RankBlend {
            pagerank_weight: w,
            ..RankBlend::default()
        },
    )
    .expect("engine")
}

fn precision_at_5(engine: &QueryEngine, queries: &[String]) -> f64 {
    let mut total = 0.0;
    let mut counted = 0usize;
    for q in queries {
        let term = q.split_whitespace().next().expect("non-empty query");
        // Ground truth: pages annotated with the term.
        let rs = engine
            .smr()
            .sql(&format!(
                "SELECT p.title FROM annotations a JOIN pages p ON a.page_id = p.id \
                 WHERE a.value = '{}'",
                sensormeta_smr::sql_escape(term)
            ))
            .expect("sql");
        let relevant: HashSet<String> = rs.rows.iter().map(|r| r[0].to_string()).collect();
        if relevant.is_empty() {
            continue;
        }
        let out = engine
            .search(&SearchForm::keywords(term), None)
            .expect("search");
        let hits = out
            .items
            .iter()
            .take(5)
            .filter(|i| relevant.contains(&i.title))
            .count();
        total += hits as f64 / 5.0;
        counted += 1;
    }
    if counted == 0 {
        0.0
    } else {
        total / counted as f64
    }
}

fn main() {
    let queries = query_workload(40, 7);
    println!("\n=== E12: ranking quality (precision@5, annotation ground truth) ===");
    println!("{:<22} {:>12}", "ranking", "precision@5");
    for (label, w) in [
        ("bm25_only", 0.0),
        ("blended_w0.3", 0.3),
        ("pagerank_heavy_w0.7", 0.7),
    ] {
        let engine = engine_with_weight(w);
        let p = precision_at_5(&engine, &queries);
        println!("{label:<22} {p:>12.3}");
    }
    println!();
}
