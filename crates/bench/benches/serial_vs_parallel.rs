//! E15 — the deterministic worker pool: a one-thread pool (the serial
//! baseline) vs the global pool (`SENSORMETA_THREADS`, default: available
//! cores) on three parallelised hot paths — power-iteration PageRank on the
//! Fig. 3 graph, the tag-similarity matrix and the inverted-index build.
//! Both run the same chunked code; `tests/parallel_determinism.rs` checks
//! that their results are bit-identical.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sensormeta_bench::{fig3_problem, FIG3_TOL};
use sensormeta_par::Pool;
use sensormeta_rank::{PowerIteration, Solver};
use sensormeta_search::SearchIndex;
use sensormeta_tagging::similarity_matrix_in;
use sensormeta_workload::{generate_corpus, CorpusConfig};

/// Seeded folksonomy: `tags` tag sets over `pages` pages, clustered so the
/// similarities are non-trivial.
fn folksonomy(tags: usize, pages: usize) -> Vec<Vec<usize>> {
    let mut state = 2011u64;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as usize
    };
    (0..tags)
        .map(|t| {
            let cluster = (t % 6) * pages / 6;
            let mut s: Vec<usize> = (0..(3 + next() % 12))
                .map(|_| (cluster + next() % (pages / 3)) % pages)
                .collect();
            s.sort_unstable();
            s.dedup();
            s
        })
        .collect()
}

/// (title, body + annotation values) per page of the generated corpus.
fn corpus_docs(institutions: usize) -> Vec<(String, String)> {
    generate_corpus(&CorpusConfig {
        institutions,
        ..CorpusConfig::default()
    })
    .into_iter()
    .map(|p| {
        let mut text = p.body;
        for (_, v) in &p.annotations {
            text.push(' ');
            text.push_str(v);
        }
        (p.title, text)
    })
    .collect()
}

fn bench_pools(c: &mut Criterion) {
    let serial = Pool::new(1);
    let pools = [("serial", &serial), ("global", Pool::global())];
    println!("global pool: {} threads", Pool::global().threads());
    let problem = fig3_problem(4_000);
    let sets = folksonomy(240, 160);
    let docs = corpus_docs(4);
    let mut group = c.benchmark_group("serial_vs_parallel");
    group.sample_size(10);
    for (label, pool) in pools {
        group.bench_with_input(BenchmarkId::new("power_iteration", label), pool, |b, p| {
            b.iter(|| PowerIteration.solve_in(p, &problem, FIG3_TOL, 1_000).x[0])
        });
        group.bench_with_input(
            BenchmarkId::new("similarity_matrix", label),
            pool,
            |b, p| b.iter(|| similarity_matrix_in(p, &sets).as_slice().len()),
        );
        group.bench_with_input(BenchmarkId::new("index_build", label), pool, |b, p| {
            b.iter(|| SearchIndex::build_in(p, &docs).doc_count())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_pools);
criterion_main!(benches);
