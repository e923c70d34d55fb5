//! The Cache module of Fig. 4, on the shared `sensormeta-cache` subsystem.
//!
//! "A Cache mechanism is also implemented to decrease the number of
//! computations and data exchanges." [`CloudCache`] is the `tag_cloud`
//! namespace of the shared [`Cache`]: what it adds is the configuration, the
//! weigher and the key over [`CloudParams`]. The key carries no store
//! generation; a cloud is tied to the store it was computed from by the
//! sequence number of the reader's tag snapshot, exactly as search results
//! are by their engine's generation, so the superseded cloud stays under its
//! key for serve-stale degradation.

use crate::clique::BkVariant;
use crate::cloud::{try_compute_cloud, CloudParams, TagCloud};
use crate::store::TagStore;
use sensormeta_cache::{
    stale_grace_from_env, Cache, CacheConfig, CacheError, CacheStats, Fingerprint, Status,
};
use sensormeta_obs as obs;
use sensormeta_resil::{self as resil, Interrupt};
use std::sync::Arc;
use std::time::Duration;

/// Byte budget for memoized clouds.
const CAPACITY: usize = 1 << 20;

/// Tag-cloud memoization over the shared result-cache subsystem.
#[derive(Debug)]
pub struct CloudCache {
    cache: Cache<TagCloud>,
}

impl Default for CloudCache {
    fn default() -> Self {
        Self::new()
    }
}

fn config() -> CacheConfig {
    let mut cfg = CacheConfig::new("tag_cloud", CAPACITY);
    // Clouds are few (one per parameter set); one shard keeps them in one
    // LRU and lets the stale sweep see every entry.
    cfg.shards = 1;
    // A superseded cloud may back a degraded serve for the same window as a
    // search result, measured from its insertion.
    cfg.stale_grace = stale_grace_from_env();
    cfg
}

fn weigh(cloud: &TagCloud) -> usize {
    cloud
        .entries
        .iter()
        .map(|e| std::mem::size_of_val(e) + e.tag.len())
        .sum()
}

impl CloudCache {
    /// Creates an empty cache.
    pub fn new() -> CloudCache {
        CloudCache {
            cache: Cache::new(config(), weigh),
        }
    }

    /// Returns the cloud for `store`, computing it only on a miss, and how
    /// the lookup was answered — servers surface that as `Cache-Status`.
    /// `at` is the sequence number of the tag snapshot `store` was read
    /// from; every tag commit that changes `store` must move it.
    ///
    /// The compute is cooperative: it observes the ambient resil deadline
    /// (and chaos plan) and aborts with an [`Interrupt`] instead of burning
    /// CPU past it, and a wait on an identical in-flight compute ends at the
    /// same deadline. An interrupted compute stores nothing, so the next
    /// request retries from scratch.
    pub fn get(
        &self,
        store: &TagStore,
        at: u64,
        params: &CloudParams,
    ) -> Result<(Arc<TagCloud>, Status), Interrupt> {
        let wait = resil::current_deadline().instant();
        let (result, status) = self.cache.get_or_compute(param_key(params), at, wait, || {
            let _timing = obs::global().span("tagging_cloud_compute");
            try_compute_cloud(store, params)
        });
        match result {
            Ok(cloud) => Ok((cloud, status)),
            Err(CacheError::Compute(i)) => Err(i),
            Err(CacheError::WaitTimeout) => Err(Interrupt::DeadlineExceeded),
        }
    }

    /// The resident cloud for `params` — current at `at`, or superseded but
    /// within the staleness grace window — with its age. This is the
    /// serve-stale degradation path for a failed or breaker-rejected
    /// recompute; callers must label the response as stale. Never computes.
    pub fn stale(&self, params: &CloudParams, at: u64) -> Option<(Arc<TagCloud>, Duration)> {
        self.cache.get_stale(param_key(params), at)
    }

    /// Statistics so far (process-lifetime; `clear` does not reset them).
    pub fn stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Drops every memoized cloud.
    pub fn clear(&self) {
        self.cache.clear();
    }
}

/// Stable fingerprint of the cloud parameters.
fn param_key(p: &CloudParams) -> u64 {
    Fingerprint::new()
        .f64(p.threshold)
        .usize(p.f_max)
        .u64(match p.variant {
            BkVariant::Naive => 0,
            BkVariant::Pivot => 1,
            BkVariant::Degeneracy => 2,
        })
        .bool(p.clique_aware)
        .finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sensormeta_cache::EpochClock;

    fn store() -> TagStore {
        let mut s = TagStore::new();
        s.ingest([("a", "snow"), ("b", "snow"), ("b", "wind")]);
        s
    }

    /// A cache plus the clock dating the tag versions its readers hold (a
    /// bump stands for a tag commit).
    fn isolated() -> (CloudCache, EpochClock) {
        (CloudCache::new(), EpochClock::new())
    }

    fn get(cache: &CloudCache, clk: &EpochClock, s: &TagStore, p: &CloudParams) -> Arc<TagCloud> {
        cache.get(s, clk.now(), p).expect("no deadline in scope").0
    }

    #[test]
    fn second_lookup_hits() {
        let s = store();
        let (cache, clk) = isolated();
        let c1 = get(&cache, &clk, &s, &CloudParams::default());
        let c2 = get(&cache, &clk, &s, &CloudParams::default());
        assert!(Arc::ptr_eq(&c1, &c2));
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.stats().misses, 1);
    }

    #[test]
    fn mutation_invalidates() {
        let mut s = store();
        let (cache, clk) = isolated();
        let _ = get(&cache, &clk, &s, &CloudParams::default());
        s.add("c", "avalanche");
        clk.bump();
        let c2 = get(&cache, &clk, &s, &CloudParams::default());
        assert_eq!(cache.stats().misses, 2);
        assert_eq!(cache.stats().entries, 1, "recompute replaced the entry");
        assert!(c2.entries.iter().any(|e| e.tag == "avalanche"));
    }

    #[test]
    fn different_params_cached_separately() {
        let s = store();
        let (cache, clk) = isolated();
        let _ = get(&cache, &clk, &s, &CloudParams::default());
        let _ = get(
            &cache,
            &clk,
            &s,
            &CloudParams {
                f_max: 20,
                ..CloudParams::default()
            },
        );
        assert_eq!(cache.stats().misses, 2);
        assert_eq!(cache.stats().entries, 2);
    }

    /// Readers on both sides of a tag commit share one key; only the stamp
    /// of the snapshot each is pinned at decides what it may be served.
    #[test]
    fn readers_across_a_commit_are_told_apart_by_their_pinned_stamp() {
        let (cache, clk) = isolated();
        let params = CloudParams::default();
        let has = |c: &TagCloud, tag: &str| c.entries.iter().any(|e| e.tag == tag);

        // Snapshot S1, then a tag commit publishes S2.
        let s1_store = store();
        let s1 = clk.now();
        let (c1, status) = cache.get(&s1_store, s1, &params).expect("S1 compute");
        assert_eq!(status, Status::Miss);
        let mut s2_store = s1_store.clone();
        s2_store.add("c", "avalanche");
        let s2 = clk.bump();

        // A reader still on S1 keeps hitting its own generation.
        let (again, status) = cache.get(&s1_store, s1, &params).expect("S1 hit");
        assert_eq!(status, Status::Hit);
        assert!(Arc::ptr_eq(&c1, &again));

        // An S2 reader whose recompute is interrupted caches nothing, and
        // the S1 entry stays reachable for degradation.
        let err = {
            let _scope = resil::deadline_scope(resil::Deadline::within(Duration::ZERO));
            cache
                .get(&s2_store, s2, &params)
                .expect_err("expired budget interrupts the compute")
        };
        assert_eq!(err, Interrupt::DeadlineExceeded);
        let (held, _age) = cache.stale(&params, s2).expect("S1 cloud held over");
        assert!(Arc::ptr_eq(&c1, &held));
        assert_eq!(cache.stats().stale_serves, 1);

        // With headroom the S2 reader must not be served S1's cloud.
        let (c2, status) = cache.get(&s2_store, s2, &params).expect("S2 compute");
        assert_eq!(status, Status::Stale, "superseded entry seen, recomputed");
        assert!(has(&c2, "avalanche") && !has(&c1, "avalanche"));
        let (_, status) = cache.get(&s2_store, s2, &params).expect("S2 hit");
        assert_eq!(status, Status::Hit);
        assert_eq!(cache.stats().entries, 1, "one key, one slot");
    }

    #[test]
    fn clear_drops_entries_but_keeps_counters() {
        let s = store();
        let (cache, clk) = isolated();
        let _ = get(&cache, &clk, &s, &CloudParams::default());
        cache.clear();
        assert!(cache.stale(&CloudParams::default(), clk.now()).is_none());
        let _ = get(&cache, &clk, &s, &CloudParams::default());
        assert_eq!(cache.stats().misses, 2, "cleared entry recomputes");
        assert_eq!(cache.stats().hits, 0);
    }
}
