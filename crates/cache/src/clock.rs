//! Epoch clock: one monotonic counter that dates published versions.
//!
//! There is no process-wide clock. A publisher owns its clock and dates
//! each version once per commit: the query engine's `rebuild` takes the
//! epoch [`EpochClock::bump`] returns (an MVCC cell needs no clock; its
//! sequence number plays the same part). That epoch is the version's
//! identity; a cache entry is stamped with the epoch of the version it was
//! computed from and served only to readers pinned at the same epoch.
//! Over-invalidation (a bump that did not change what an entry read) is
//! always safe — it can only cause a recomputation, never a stale serve.

use std::sync::atomic::{AtomicU64, Ordering};

/// A monotonic epoch counter, starting at 0.
#[derive(Debug, Default)]
pub struct EpochClock {
    epoch: AtomicU64,
}

impl EpochClock {
    /// A clock at epoch 0.
    pub fn new() -> EpochClock {
        EpochClock::default()
    }

    /// Advances the clock and returns the new epoch: concurrent callers
    /// never receive the same one.
    pub fn bump(&self) -> u64 {
        self.epoch.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// The current epoch.
    pub fn now(&self) -> u64 {
        self.epoch.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::Arc;

    #[test]
    #[allow(clippy::disallowed_methods, reason = "the test races raw threads")]
    fn concurrent_bumps_return_distinct_epochs() {
        let clock = Arc::new(EpochClock::new());
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let clock = Arc::clone(&clock);
                std::thread::spawn(move || (0..1000).map(|_| clock.bump()).collect::<Vec<_>>())
            })
            .collect();
        let mut seen = HashSet::new();
        for t in threads {
            for e in t.join().expect("bumping thread") {
                assert!(seen.insert(e), "epoch {e} returned twice");
            }
        }
        assert_eq!(seen.len(), 4000);
        assert_eq!(clock.now(), 4000);
    }
}
