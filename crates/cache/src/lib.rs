//! # sensormeta-cache
//!
//! Unified, epoch-invalidated result caching for the sensormeta stack.
//!
//! The serving layer answers the same combined SQL+SPARQL queries, ranked
//! searches and tag clouds over and over between writes; this crate gives
//! every subsystem one shared caching substrate instead of bespoke caches:
//!
//! - [`EpochClock`] — one monotonic counter that a publisher (the query
//!   engine) bumps once per commit. A cache entry is stamped with the `u64`
//!   epoch of the version it was computed from — a clock's epoch, or an
//!   MVCC cell's sequence number — and served to a reader iff the reader is
//!   pinned at the same epoch.
//! - [`Cache`] — a sharded, concurrent LRU map with per-entry byte-cost
//!   accounting and single-flight stampede protection (concurrent
//!   identical misses coalesce onto one computation). Its one validity
//!   rule is the stamp: an entry serves the version that stamped it, at
//!   any age, and a failure is never stored.
//! - [`Fingerprint`] — a stable FNV-1a builder for deriving the 64-bit
//!   query keys.
//!
//! Every movement is mirrored into the `sensormeta-obs` global registry,
//! once per namespace: `cache_<name>_hits_total`, `_misses_total`,
//! `_evictions_total`, `_singleflight_waits_total`, `_stale_serves_total`
//! and the `cache_<name>_bytes` gauge.

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
#![warn(missing_debug_implementations)]

mod clock;
mod fingerprint;
mod result_cache;

pub use clock::EpochClock;
pub use fingerprint::Fingerprint;
pub use result_cache::{stale_grace_from_env, Cache, CacheConfig, CacheError, CacheStats, Status};
