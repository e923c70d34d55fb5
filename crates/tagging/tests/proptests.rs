//! Property-based tests for the tagging pipeline: clique correctness
//! against brute force, Eq. 6 bounds, similarity symmetry, cache coherence,
//! and the cache's serve-stale grace.

use proptest::prelude::*;
use sensormeta_cache::EpochClock;
use sensormeta_graph::UndirectedGraph;
use sensormeta_tagging::{
    brute_force_maximal_cliques, compute_cloud, cosine, font_size, maximal_cliques,
    similarity_matrix, BkVariant, CloudCache, CloudParams, FontScale, FontSizeInput, TagStore,
};
use std::collections::BTreeSet;

fn arb_graph() -> impl Strategy<Value = UndirectedGraph> {
    (
        2usize..11,
        prop::collection::vec((0usize..11, 0usize..11), 0..40),
    )
        .prop_map(|(n, raw)| {
            let edges: Vec<(usize, usize)> = raw.into_iter().map(|(u, v)| (u % n, v % n)).collect();
            UndirectedGraph::from_edges(n, &edges)
        })
}

fn arb_store() -> impl Strategy<Value = TagStore> {
    prop::collection::vec((0u8..8, 0u8..8), 0..40).prop_map(|pairs| {
        let mut s = TagStore::new();
        for (p, t) in pairs {
            s.add(&format!("page{p}"), &format!("tag{t}"));
        }
        s
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every Bron–Kerbosch variant equals brute-force enumeration.
    #[test]
    fn bk_variants_equal_brute_force(g in arb_graph()) {
        let want = brute_force_maximal_cliques(&g);
        for variant in [BkVariant::Naive, BkVariant::Pivot, BkVariant::Degeneracy] {
            let (got, stats) = maximal_cliques(&g, variant);
            prop_assert_eq!(&got, &want, "{:?}", variant);
            prop_assert_eq!(stats.cliques, want.len());
            // Every reported set is actually a clique and actually maximal.
            for clique in &got {
                for (i, &u) in clique.iter().enumerate() {
                    for &v in &clique[i + 1..] {
                        prop_assert!(g.has_edge(u, v), "{:?} not a clique", clique);
                    }
                }
                for w in 0..g.node_count() {
                    if clique.contains(&w) { continue; }
                    let extends = clique.iter().all(|&u| g.has_edge(u, w));
                    prop_assert!(!extends, "{:?} + {w} still a clique", clique);
                }
            }
        }
    }

    /// Cosine similarity is symmetric, bounded, and 1 on identical sets.
    #[test]
    fn cosine_properties(a in prop::collection::btree_set(0usize..30, 0..15),
                         b in prop::collection::btree_set(0usize..30, 0..15)) {
        // BTreeSet iteration is ascending, so these are valid sorted slices.
        let a: Vec<usize> = a.into_iter().collect();
        let b: Vec<usize> = b.into_iter().collect();
        let s = cosine(&a, &b);
        prop_assert!((0.0..=1.0 + 1e-12).contains(&s));
        prop_assert!((s - cosine(&b, &a)).abs() < 1e-12);
        if !a.is_empty() {
            prop_assert!((cosine(&a, &a) - 1.0).abs() < 1e-12);
        }
        let disjoint: Vec<usize> = a.iter().map(|x| x + 100).collect();
        prop_assert_eq!(cosine(&a, &disjoint), 0.0);
    }

    /// The similarity matrix is symmetric with unit diagonal.
    #[test]
    fn matrix_symmetry(sets in prop::collection::vec(
        prop::collection::btree_set(0usize..12, 1..6), 1..8))
    {
        let sets: Vec<Vec<usize>> = sets.into_iter().map(|s| s.into_iter().collect()).collect();
        let m = similarity_matrix(&sets);
        for i in 0..sets.len() {
            prop_assert!((m.get(i, i) - 1.0).abs() < 1e-12);
            for j in 0..sets.len() {
                prop_assert!((m.get(i, j) - m.get(j, i)).abs() < 1e-12);
            }
        }
    }

    /// Eq. 6: sizes are ≥ 1 always, exactly 1 at t_min, and monotone in
    /// count for fixed clique data.
    #[test]
    fn eq6_bounds(counts in prop::collection::vec(1usize..60, 2..20),
                  memberships in 0usize..5, order in 0usize..6, cliques in 0usize..8) {
        let scale = FontScale::from_counts(&counts, cliques, 10);
        let mut prev = 0usize;
        let mut sorted = counts.clone();
        sorted.sort_unstable();
        for &count in &sorted {
            let s = font_size(FontSizeInput {
                count,
                clique_memberships: memberships,
                max_clique_order: order,
            }, scale);
            prop_assert!(s >= 1);
            if count <= scale.t_min {
                prop_assert_eq!(s, 1);
            }
            prop_assert!(s >= prev, "monotonicity: {s} < {prev} at count {count}");
            prev = s;
        }
    }

    /// The full cloud pipeline: every tag appears exactly once, sizes ≥ 1,
    /// clique indices in range, and clique members really share pages.
    #[test]
    fn cloud_wellformed(store in arb_store()) {
        let cloud = compute_cloud(&store, &CloudParams::default());
        prop_assert_eq!(cloud.entries.len(), store.tag_count());
        let mut seen = BTreeSet::new();
        for e in &cloud.entries {
            prop_assert!(seen.insert(e.tag.clone()), "duplicate {}", e.tag);
            prop_assert!(e.font_size >= 1);
            prop_assert_eq!(e.count, store.frequency(&e.tag));
            for &c in &e.cliques {
                prop_assert!(c < cloud.cliques.len());
            }
        }
        for clique in &cloud.cliques {
            prop_assert!(clique.len() > 1, "singleton cliques are filtered");
        }
    }

    /// Cache coherence: a cached cloud equals a fresh computation for any
    /// mutation history.
    #[test]
    fn cache_coherence(ops in prop::collection::vec((0u8..6, 0u8..6, any::<bool>()), 1..30)) {
        let mut store = TagStore::new();
        let cache = CloudCache::new();
        let clock = EpochClock::new();
        let params = CloudParams::default();
        for (p, t, add) in ops {
            let page = format!("p{p}");
            let tag = format!("t{t}");
            let changed = if add {
                store.add(&page, &tag)
            } else {
                store.remove(&page, &tag)
            };
            // A mutation that changed the store commits a new version.
            if changed {
                clock.bump();
            }
            let (cached, _) = cache.get(&store, clock.now(), &params).unwrap();
            let fresh = compute_cloud(&store, &params);
            prop_assert_eq!(&*cached, &fresh);
        }
    }
}

/// `SENSORMETA_STALE_GRACE_MS=0` disables serve-stale for the tag cloud as
/// it does for search: after a tag commit no superseded cloud is held over.
/// The variable stays set for this whole binary; no other test here relies
/// on a stale serve.
#[test]
fn cache_with_zero_stale_grace_holds_nothing_over_a_commit() {
    std::env::set_var("SENSORMETA_STALE_GRACE_MS", "0");
    let clock = EpochClock::new();
    let cache = CloudCache::new();
    let mut store = TagStore::new();
    store.ingest([("a", "snow"), ("b", "snow")]);
    let params = CloudParams::default();
    let _ = cache.get(&store, clock.now(), &params).unwrap();
    assert!(
        cache.stale(&params, clock.now()).is_some(),
        "current cloud is resident"
    );
    clock.bump();
    assert!(
        cache.stale(&params, clock.now()).is_none(),
        "superseded cloud held over"
    );
}
