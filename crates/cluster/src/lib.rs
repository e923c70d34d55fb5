//! Sharded, replicated serving over the single-store engine.
//!
//! The paper's demo serves one Sensor Metadata Repository from one process;
//! the ROADMAP's north star is the same query surface at production scale.
//! This crate turns the single store into a *topology*:
//!
//! - [`ShardMap`] hash-partitions the SMR by page id into N in-process
//!   shards, each a partition view of the whole-corpus
//!   [`QueryEngine`](sensormeta_query::QueryEngine).
//! - [`ShardSet`] publishes coordinator and views together through one
//!   [`Mvcc`](sensormeta_tx::Mvcc) cell. A search is the engine's own
//!   executor scattering over the views — the code the single store runs
//!   over its one view. Ranking statistics (BM25 idf/length norms,
//!   PageRank) and the per-page facts table stay collection-global, so the
//!   output is byte-identical to the single-store result at any shard
//!   count.
//! - [`Replica`] is a read replica fed by WAL shipping: `open_recovering`
//!   plus a tail loop that applies newly committed CRC-framed frames from
//!   the primary's log and publishes each applied batch as an MVCC commit.
//! - [`Router`] sends writes to the primary and routes reads to replicas
//!   whose staleness — primary commits not yet applied, counted on the
//!   primary engine's epoch clock — is within a bound, falling back to the
//!   primary when every replica lags past it.

#![warn(missing_docs)]
#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented,
    clippy::print_stdout,
    clippy::print_stderr,
    clippy::dbg_macro,
    clippy::float_cmp
)]

mod replica;
mod router;
mod shard;

pub use replica::{Replica, ReplicaPoll};
pub use router::Router;
pub use sensormeta_query::ScatterTrace;
pub use shard::{ShardMap, ShardSet};

use std::time::Duration;

/// Serving topology, usually read from the environment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Topology {
    /// In-process shards the store is partitioned into (1 = unsharded).
    pub shards: usize,
    /// WAL-shipped read replicas to run (0 = none).
    pub replicas: usize,
    /// Staleness bound for replica reads: a replica more than this many
    /// primary commits behind is skipped in favor of the primary.
    pub staleness_epochs: u64,
    /// How often a replica's tail loop polls the primary's log.
    pub poll_interval: Duration,
}

impl Default for Topology {
    fn default() -> Self {
        Topology {
            shards: 1,
            replicas: 0,
            staleness_epochs: 64,
            poll_interval: Duration::from_millis(25),
        }
    }
}

impl Topology {
    /// Reads `SENSORMETA_SHARDS`, `SENSORMETA_REPLICAS` and
    /// `SENSORMETA_STALENESS_EPOCHS` (unset or unparsable values keep the
    /// defaults: 1 shard, 0 replicas, 64 primary commits).
    pub fn from_env() -> Topology {
        fn parse<T: std::str::FromStr>(key: &str) -> Option<T> {
            std::env::var(key).ok()?.trim().parse().ok()
        }
        let d = Topology::default();
        Topology {
            shards: parse("SENSORMETA_SHARDS").unwrap_or(d.shards).max(1),
            replicas: parse("SENSORMETA_REPLICAS").unwrap_or(d.replicas),
            staleness_epochs: parse("SENSORMETA_STALENESS_EPOCHS").unwrap_or(d.staleness_epochs),
            poll_interval: d.poll_interval,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_topology_is_single_store() {
        let t = Topology::default();
        assert_eq!(t.shards, 1);
        assert_eq!(t.replicas, 0);
    }
}
