//! Sharded serving over the single-store engine.
//!
//! The paper's demo serves one Sensor Metadata Repository from one process;
//! the ROADMAP's north star is the same query surface at production scale.
//! This crate partitions the single store into in-process shards:
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
//!
//! Writes go to the primary, which logs them to its write-ahead log before
//! the shard set republishes; recovery is the only reader of that log.

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

mod shard;

pub use sensormeta_query::ScatterTrace;
pub use shard::{ShardMap, ShardSet};

/// Serving topology, usually read from the environment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Topology {
    /// In-process shards the store is partitioned into (1 = unsharded).
    pub shards: usize,
}

impl Default for Topology {
    fn default() -> Self {
        Topology { shards: 1 }
    }
}

impl Topology {
    /// Reads `SENSORMETA_SHARDS` (unset or unparsable values keep the
    /// default of 1 shard).
    pub fn from_env() -> Topology {
        let shards = std::env::var("SENSORMETA_SHARDS")
            .ok()
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or(Topology::default().shards);
        Topology {
            shards: shards.max(1),
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
    }
}
