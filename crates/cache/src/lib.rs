//! # sensormeta-cache
//!
//! Unified, epoch-invalidated result caching for the sensormeta stack.
//!
//! The serving layer answers the same combined SQL+SPARQL queries, ranked
//! searches and tag clouds over and over between writes; this crate gives
//! every subsystem one shared caching substrate instead of bespoke caches:
//!
//! - [`EpochClock`] — per-[`Domain`] monotonic epochs (relational tables,
//!   triple store, search index, web graph, tag incidence). Every mutating
//!   path bumps the domains it touches; a cache entry is valid iff the
//!   epoch vector it captured *before* computing still matches.
//! - [`Cache`] — a sharded, concurrent LRU+TTL map with per-entry byte-cost
//!   accounting, negative caching of failed computations, and single-flight
//!   stampede protection (concurrent identical misses coalesce onto one
//!   computation).
//! - [`Fingerprint`] — a stable FNV-1a builder for deriving the 64-bit
//!   query keys.
//!
//! Every movement is mirrored into the `sensormeta-obs` global registry:
//! `cache_hits_total`, `cache_misses_total`, `cache_evictions_total`,
//! `cache_singleflight_waits_total` and the `cache_bytes` gauge, plus
//! per-namespace `cache_<name>_*` variants.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod clock;
mod fingerprint;
mod result_cache;

pub use clock::{clock, Domain, EpochClock, EpochVector, ALL_DOMAINS, DOMAIN_COUNT};
pub use fingerprint::Fingerprint;
pub use result_cache::{stale_grace_from_env, Cache, CacheConfig, CacheError, CacheStats, Status};
