//! E9 — the Fig. 4 Cache module: cached tag-cloud lookups vs recomputation,
//! and the cost of invalidation under a mutating workload.

use criterion::{criterion_group, criterion_main, Criterion};
use sensormeta_cache::EpochClock;
use sensormeta_tagging::{compute_cloud, CloudCache, CloudParams, TagStore};
use sensormeta_workload::{generate_corpus, CorpusConfig};

fn corpus_tags() -> TagStore {
    let pages = generate_corpus(&CorpusConfig::default());
    let mut store = TagStore::new();
    for p in &pages {
        for t in &p.tags {
            store.add(&p.title, t);
        }
    }
    store
}

fn print_hit_rates() {
    // A render-heavy workload: 1 mutation per 20 renders.
    let mut store = corpus_tags();
    let cache = CloudCache::new();
    let clock = EpochClock::new();
    let params = CloudParams::default();
    for i in 0..200 {
        if i % 20 == 0 {
            // Each tag write is a commit: a new version of the store.
            store.add(&format!("extra{i}"), "freshtag");
            clock.bump();
        }
        let _ = cache.get(&store, clock.now(), &params);
    }
    let stats = cache.stats();
    println!("\n=== E9: cloud cache under 10:1 read:write ===");
    println!(
        "hits: {}  misses: {}  evictions: {}  hit rate: {:.1}%",
        stats.hits,
        stats.misses,
        stats.evictions,
        100.0 * stats.hits as f64 / (stats.hits + stats.misses) as f64
    );
    println!();
}

fn bench_cache(c: &mut Criterion) {
    print_hit_rates();
    let store = corpus_tags();
    let params = CloudParams::default();
    c.bench_function("cloud_uncached_compute", |b| {
        b.iter(|| compute_cloud(&store, &params).entries.len())
    });
    c.bench_function("cloud_cached_lookup", |b| {
        let cache = CloudCache::new();
        let at = 0;
        let _ = cache.get(&store, at, &params); // warm
        b.iter(|| cache.get(&store, at, &params).map(|(c, _)| c.entries.len()))
    });
}

criterion_group!(benches, bench_cache);
criterion_main!(benches);
