//! Epoch clock: per-domain monotonic counters that date published versions.
//!
//! There is no process-wide clock. Whoever publishes a version owns a
//! clock and dates the version once per commit: the query engine in
//! `rebuild`, an MVCC cell in `publish`. The resulting [`EpochVector`] is the
//! version's identity; a cache entry is stamped with the vector of the
//! version it was computed from and served only to readers pinned at a
//! vector that agrees on every domain the entry depends on.
//! Over-invalidation (a bump that did not change what an entry read) is
//! always safe — it can only cause a recomputation, never a stale serve.

use std::sync::atomic::{AtomicU64, Ordering};

/// The mutable state domains cached results may depend on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Domain {
    /// Relational tables (pages, annotations, links, tags, revisions).
    Relational = 0,
    /// The RDF triple store mirror.
    Triples = 1,
    /// The full-text inverted index.
    SearchIndex = 2,
    /// The double-link web graph (semantic + hyperlink edges).
    WebGraph = 3,
    /// The page↔tag incidence structure.
    TagIncidence = 4,
}

/// Number of [`Domain`] variants (the epoch vector's length).
pub const DOMAIN_COUNT: usize = 5;

/// Every domain, in epoch-vector order.
pub const ALL_DOMAINS: [Domain; DOMAIN_COUNT] = [
    Domain::Relational,
    Domain::Triples,
    Domain::SearchIndex,
    Domain::WebGraph,
    Domain::TagIncidence,
];

impl Domain {
    /// Stable short name (used in metric names and debug output).
    pub fn name(self) -> &'static str {
        match self {
            Domain::Relational => "relational",
            Domain::Triples => "triples",
            Domain::SearchIndex => "search_index",
            Domain::WebGraph => "web_graph",
            Domain::TagIncidence => "tag_incidence",
        }
    }
}

/// A point-in-time copy of every domain epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EpochVector(pub [u64; DOMAIN_COUNT]);

impl EpochVector {
    /// The captured epoch of one domain.
    pub fn get(&self, d: Domain) -> u64 {
        self.0[d as usize]
    }

    /// True iff the two vectors agree on every domain in `deps`: a reader
    /// pinned at this vector may be served an entry stamped `other`.
    pub fn matches_on(&self, other: &EpochVector, deps: &[Domain]) -> bool {
        deps.iter().all(|&d| self.get(d) == other.get(d))
    }

    /// True iff this vector is ahead of `other` on some domain in `deps`:
    /// dated by a later commit of the same clock on what `deps` read.
    pub fn ahead_on(&self, other: &EpochVector, deps: &[Domain]) -> bool {
        deps.iter().any(|&d| self.get(d) > other.get(d))
    }
}

/// Monotonic per-domain epoch counters.
#[derive(Debug, Default)]
pub struct EpochClock {
    epochs: [AtomicU64; DOMAIN_COUNT],
}

impl EpochClock {
    /// A clock with every domain at epoch 0.
    pub fn new() -> EpochClock {
        EpochClock::default()
    }

    /// Advances one domain's epoch.
    pub fn bump(&self, d: Domain) {
        self.epochs[d as usize].fetch_add(1, Ordering::Relaxed);
    }

    /// Advances every domain at once.
    pub fn bump_all(&self) {
        for d in ALL_DOMAINS {
            self.bump(d);
        }
    }

    /// Copies the whole clock: the vector a publisher dates its version with.
    pub fn snapshot(&self) -> EpochVector {
        let mut v = [0u64; DOMAIN_COUNT];
        for (i, e) in self.epochs.iter().enumerate() {
            v[i] = e.load(Ordering::Relaxed);
        }
        EpochVector(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bump_moves_only_its_domain() {
        let c = EpochClock::new();
        c.bump(Domain::Relational);
        c.bump(Domain::Relational);
        c.bump(Domain::WebGraph);
        let v = c.snapshot();
        assert_eq!(v.get(Domain::Relational), 2);
        assert_eq!(v.get(Domain::WebGraph), 1);
        assert_eq!(v.get(Domain::Triples), 0);
    }

    #[test]
    fn snapshot_matches_until_dep_bumped() {
        let c = EpochClock::new();
        let stamp = c.snapshot();
        assert!(c
            .snapshot()
            .matches_on(&stamp, &[Domain::Relational, Domain::Triples]));
        c.bump(Domain::SearchIndex);
        assert!(
            c.snapshot()
                .matches_on(&stamp, &[Domain::Relational, Domain::Triples]),
            "unrelated bump does not invalidate"
        );
        c.bump(Domain::Triples);
        assert!(!c
            .snapshot()
            .matches_on(&stamp, &[Domain::Relational, Domain::Triples]));
    }

    #[test]
    fn bump_all_touches_every_domain() {
        let c = EpochClock::new();
        let stamp = c.snapshot();
        c.bump_all();
        for d in ALL_DOMAINS {
            assert!(!c.snapshot().matches_on(&stamp, &[d]), "{}", d.name());
        }
    }

    #[test]
    fn ahead_on_compares_domain_by_domain() {
        let c = EpochClock::new();
        let old = c.snapshot();
        c.bump(Domain::WebGraph);
        let new = c.snapshot();
        assert!(new.ahead_on(&old, &[Domain::WebGraph]));
        assert!(!old.ahead_on(&new, &[Domain::WebGraph]));
        assert!(
            !new.ahead_on(&old, &[Domain::Relational]),
            "unrelated domain"
        );
    }
}
