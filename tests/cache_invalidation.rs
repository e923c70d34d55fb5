//! Invalidation property tests for the shared result cache: interleave
//! random mutations with cached reads and check that every answer equals
//! an uncached oracle run on the same state — `search_shared` against
//! `search_uncached` for repository mutations, the tag-cloud namespace
//! against `compute_cloud` for tag mutations. The cache may miss
//! spuriously, but it must never serve a result from before a mutation.

use proptest::prelude::*;
use sensormeta::query::{QueryEngine, SearchForm, SearchOptions};
use sensormeta::smr::{PageDraft, Smr};
use sensormeta::tagging::{compute_cloud, CloudCache, CloudParams, TagStore};
use sensormeta_tx::Mvcc;
use std::convert::Infallible;

const VOCAB: [&str; 6] = [
    "snow",
    "wind",
    "temperature",
    "humidity",
    "alpine",
    "glacier",
];

fn word(ix: u8) -> &'static str {
    VOCAB[ix as usize % VOCAB.len()]
}

fn draft(page: u8, a: u8, b: u8) -> PageDraft {
    PageDraft::new(format!("Deployment:d{}", page % 8), "Deployment")
        .body(format!("{} {} sensor", word(a), word(b)))
        .annotate("measuresQuantity", word(a))
        .tag(word(b))
}

/// Serializes both sides of a search so `Ok` outputs compare structurally
/// and `Err`s compare by message.
fn canon(result: Result<String, String>) -> String {
    match result {
        Ok(json) => json,
        Err(msg) => format!("error: {msg}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// For any interleaving of upserts and deletes, a cached read taken
    /// right after the mutation (and a repeat read, which should be warm)
    /// both equal the uncached oracle.
    #[test]
    fn cached_reads_never_go_stale(
        ops in prop::collection::vec((0u8..3, any::<u8>(), any::<u8>(), any::<u8>()), 1..12)
    ) {
        let mut engine = QueryEngine::open(Smr::new()).unwrap();
        for (op, page, a, b) in ops {
            match op {
                0 | 1 => {
                    engine.smr_mut().upsert_page(draft(page, a, b)).unwrap();
                }
                _ => {
                    engine.smr_mut().delete_page(&format!("Deployment:d{}", page % 8)).unwrap();
                }
            }
            engine.rebuild().unwrap();
            // Two forms per step: a pure keyword search and one with an
            // annotation condition, each read twice (cold, then warm).
            let keyword = SearchForm::keywords(word(a));
            let mut combined = SearchForm::keywords(word(b));
            combined.conditions.push(sensormeta::query::Condition::new(
                "measuresQuantity",
                sensormeta::query::CondOp::Eq,
                word(a),
            ));
            combined.soft_conditions = true;
            for form in [&keyword, &combined] {
                for _ in 0..2 {
                    let cached = canon(
                        engine
                            .search_shared(form, &SearchOptions::default())
                            .map(|(out, _status)| serde_json::to_string(&*out).unwrap())
                            .map_err(|e| e.to_string()),
                    );
                    let oracle = canon(
                        engine
                            .search_uncached(form, None)
                            .map(|out| serde_json::to_string(&out).unwrap())
                            .map_err(|e| e.to_string()),
                    );
                    prop_assert_eq!(&cached, &oracle, "stale cached result");
                }
            }
        }
    }

    /// For any history of tag commits, a reader of a snapshot — the newest
    /// version or the one before it, interleaved on one key — is served
    /// exactly that snapshot's cloud.
    #[test]
    fn cached_clouds_never_go_stale(
        ops in prop::collection::vec((0u8..6, any::<u8>(), any::<bool>()), 1..24)
    ) {
        let cache = CloudCache::new();
        let params = CloudParams::default();
        let tags = Mvcc::new(TagStore::new());
        let mut held = tags.snapshot();
        for (page, tag, add) in ops {
            let page = format!("Deployment:d{page}");
            tags.commit(|s: &mut TagStore| {
                if add {
                    s.add(&page, word(tag));
                } else {
                    s.remove(&page, word(tag));
                }
                Ok::<(), Infallible>(())
            })
            .unwrap();
            let current = tags.snapshot();
            for snap in [&current, &held, &current] {
                let (cloud, _status) = cache.get(snap, snap.seq(), &params).unwrap();
                prop_assert_eq!(&*cloud, &compute_cloud(snap, &params), "stale cached cloud");
            }
            held = current;
        }
    }
}
