//! Read/write routing over a primary and its replicas.

use crate::replica::Replica;
use sensormeta_obs as obs;
use sensormeta_query::QueryEngine;
use sensormeta_tx::Snapshot;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Routes reads to sufficiently fresh replicas and everything else to the
/// primary.
///
/// Writes always go to the primary (the router never exposes a mutable
/// path to a replica). Reads round-robin across replicas whose
/// [staleness](Replica::staleness) is within the bound and fall back to the
/// primary when none qualifies.
pub struct Router {
    replicas: Vec<Arc<Replica>>,
    /// Maximum number of primary commits a replica may lag and still serve.
    bound: u64,
    rr: AtomicUsize,
}

impl Router {
    /// A router over `replicas` with the given staleness bound (primary
    /// commits).
    pub fn new(replicas: Vec<Arc<Replica>>, staleness_epochs: u64) -> Router {
        Router {
            replicas,
            bound: staleness_epochs,
            rr: AtomicUsize::new(0),
        }
    }

    /// Replicas behind this router.
    pub fn replicas(&self) -> &[Arc<Replica>] {
        &self.replicas
    }

    /// Picks a replica engine for a read, or `None` when every replica is
    /// too stale (or there are none) — the caller then serves from the
    /// primary.
    pub fn route_read(&self) -> Option<Snapshot<QueryEngine>> {
        if self.replicas.is_empty() {
            obs::counter("cluster_reads_primary_total").inc();
            return None;
        }
        let start = self.rr.fetch_add(1, Ordering::Relaxed);
        for i in 0..self.replicas.len() {
            let replica = &self.replicas[(start + i) % self.replicas.len()];
            if replica.staleness() <= self.bound {
                obs::counter("cluster_reads_replica_total").inc();
                return Some(replica.snapshot());
            }
        }
        obs::counter("cluster_reads_primary_total").inc();
        None
    }
}
