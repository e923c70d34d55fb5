//! The sharded, concurrent, epoch-invalidated result cache.
//!
//! One [`Cache`] instance serves one namespace (query results, tag
//! clouds). Entries are keyed by a 64-bit query fingerprint, cost-accounted
//! in bytes (capacity is a byte budget, not an entry count), bounded by LRU
//! eviction plus optional TTLs, and stamped with an epoch vector: an entry
//! is served only while every domain epoch it was computed at still matches
//! the reader's — the snapshot vector a reader is pinned at, or the live
//! [`EpochClock`](crate::EpochClock). Stale entries are dropped lazily — on
//! lookup for the requested key, and by an opportunistic sweep of the shard
//! on every insert.
//!
//! Failed computations are *negatively cached*: the error message is stored
//! under a short TTL so a hot failing query does not hammer the backend.
//!
//! Concurrent identical misses coalesce through a per-key single-flight
//! slot: one caller computes, the rest block on the slot (optionally with a
//! deadline) and receive the shared result.

use crate::clock::{clock, Domain, EpochClock, EpochVector};
use sensormeta_obs as obs;
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Fixed per-entry bookkeeping charge added to the weighed value cost.
const ENTRY_OVERHEAD: usize = 96;

/// How a lookup was answered (the server's `Cache-Status` header).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// Served from cache (including results received from a coalesced
    /// in-flight computation).
    Hit,
    /// Nothing cached; this call computed (or timed out waiting).
    Miss,
    /// A cached entry existed but was epoch- or TTL-stale; it was dropped
    /// (or retained for degradation) and this call recomputed.
    Stale,
    /// The cache was disabled or sidestepped; computed without caching.
    Bypass,
    /// The live computation failed (or was rejected by a breaker) and a
    /// stale cached value within the grace window was served instead.
    /// Labeled `stale` on the wire; servers add a `Warning` header so a
    /// degraded answer is never mistaken for a fresh one.
    Degraded,
}

impl Status {
    /// Lowercase label (`hit` / `miss` / `stale` / `bypass`; degraded
    /// serves are labeled `stale` — the data really is stale).
    pub fn as_str(self) -> &'static str {
        match self {
            Status::Hit => "hit",
            Status::Miss => "miss",
            Status::Stale | Status::Degraded => "stale",
            Status::Bypass => "bypass",
        }
    }

    /// True when the response body is a stale value served under
    /// degradation (as opposed to a fresh recompute labeled `stale`).
    pub fn is_degraded(self) -> bool {
        matches!(self, Status::Degraded)
    }
}

/// Why a lookup returned no value.
#[derive(Debug)]
pub enum CacheError<E> {
    /// The computation ran (this call or a coalesced one) and failed;
    /// the original error.
    Compute(E),
    /// A negatively cached failure was replayed without recomputing.
    Negative(Arc<str>),
    /// The single-flight wait exceeded the caller's deadline.
    WaitTimeout,
}

impl<E: fmt::Display> fmt::Display for CacheError<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CacheError::Compute(e) => write!(f, "{e}"),
            CacheError::Negative(msg) => write!(f, "{msg}"),
            CacheError::WaitTimeout => write!(f, "timed out waiting for in-flight computation"),
        }
    }
}

impl<E> std::error::Error for CacheError<E>
where
    E: std::error::Error + 'static,
{
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CacheError::Compute(e) => Some(e),
            CacheError::Negative(_) | CacheError::WaitTimeout => None,
        }
    }
}

/// Counters for one cache instance (process-lifetime, never reset by
/// [`Cache::clear`]). The same movements are mirrored into the global obs
/// registry under `cache_*` / `cache_<name>_*` metric names.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups served from a valid entry (negative hits included).
    pub hits: u64,
    /// Lookups that computed (stale recomputes included).
    pub misses: u64,
    /// Entries dropped: LRU pressure, stale sweeps, and stale lookups.
    pub evictions: u64,
    /// The subset of `evictions` dropped for epoch/TTL staleness.
    pub stale_drops: u64,
    /// Times a caller blocked on another caller's in-flight computation.
    pub singleflight_waits: u64,
    /// Hits that replayed a negatively cached error.
    pub negative_hits: u64,
    /// Stale values handed out by [`Cache::get_stale`] for degradation.
    pub stale_serves: u64,
    /// Entries currently resident.
    pub entries: usize,
    /// Bytes currently charged against the capacity.
    pub bytes: usize,
}

/// Construction-time knobs for one [`Cache`].
#[derive(Debug, Clone, Copy)]
pub struct CacheConfig {
    /// Namespace label: metric suffix `cache_<name>_…` and debug output.
    pub name: &'static str,
    /// Byte budget across all shards (0 disables caching entirely —
    /// every lookup is a [`Status::Bypass`]).
    pub capacity_bytes: usize,
    /// Shard count (rounded up to a power of two, min 1). More shards,
    /// less lock contention, coarser LRU.
    pub shards: usize,
    /// Optional wall-clock bound on positive entries.
    pub ttl: Option<Duration>,
    /// Wall-clock bound on negatively cached failures.
    pub negative_ttl: Duration,
    /// Staleness grace window for serve-stale degradation: an epoch- or
    /// TTL-stale *positive* entry younger than this (measured from its
    /// insertion) is retained instead of dropped, can be fetched with
    /// [`Cache::get_stale`], and is never overwritten by a negative
    /// entry. `None` (the default) disables degradation: stale entries
    /// are dropped on sight exactly as before.
    pub stale_grace: Option<Duration>,
    /// Domains whose epochs every entry of this cache depends on.
    pub deps: &'static [Domain],
}

impl CacheConfig {
    /// A config with the common defaults: 8 shards, no positive TTL, a
    /// 2-second negative TTL, no serve-stale grace.
    pub fn new(name: &'static str, capacity_bytes: usize, deps: &'static [Domain]) -> CacheConfig {
        CacheConfig {
            name,
            capacity_bytes,
            shards: 8,
            ttl: None,
            negative_ttl: Duration::from_secs(2),
            stale_grace: None,
            deps,
        }
    }
}

/// The serve-stale grace window of every serving namespace:
/// `SENSORMETA_STALE_GRACE_MS` (default 60000; `0` disables serve-stale
/// degradation), for [`CacheConfig::stale_grace`].
pub fn stale_grace_from_env() -> Option<Duration> {
    let ms = std::env::var("SENSORMETA_STALE_GRACE_MS")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(60_000);
    (ms > 0).then(|| Duration::from_millis(ms))
}

/// A cached outcome: a shared value, or a negatively cached error message.
type Outcome<V> = Result<Arc<V>, Arc<str>>;

struct Entry<V> {
    value: Outcome<V>,
    stamp: EpochVector,
    expires: Option<Instant>,
    /// When the entry landed — the grace window for serve-stale
    /// degradation bounds the value's total age from this point.
    inserted: Instant,
    cost: usize,
    tick: u64,
}

enum FlightState<V> {
    Pending,
    Done(Outcome<V>),
    /// The computing caller panicked; waiters should retry from scratch.
    Poisoned,
}

struct Flight<V> {
    stamp: EpochVector,
    state: Mutex<FlightState<V>>,
    cv: Condvar,
}

enum WaitOutcome<V> {
    Completed(Outcome<V>),
    Poisoned,
    TimedOut,
}

impl<V> Flight<V> {
    fn new(stamp: EpochVector) -> Flight<V> {
        Flight {
            stamp,
            state: Mutex::new(FlightState::Pending),
            cv: Condvar::new(),
        }
    }

    fn publish(&self, outcome: Option<Outcome<V>>) {
        let mut st = lock(&self.state);
        *st = match outcome {
            Some(o) => FlightState::Done(o),
            None => FlightState::Poisoned,
        };
        self.cv.notify_all();
    }

    fn wait(&self, deadline: Option<Instant>) -> WaitOutcome<V> {
        let mut st = lock(&self.state);
        loop {
            match &*st {
                FlightState::Done(o) => return WaitOutcome::Completed(o.clone()),
                FlightState::Poisoned => return WaitOutcome::Poisoned,
                FlightState::Pending => {}
            }
            st = match deadline {
                None => self.cv.wait(st).unwrap_or_else(PoisonError::into_inner),
                Some(dl) => {
                    let now = Instant::now();
                    if now >= dl {
                        return WaitOutcome::TimedOut;
                    }
                    let (guard, _timeout) = self
                        .cv
                        .wait_timeout(st, dl - now)
                        .unwrap_or_else(PoisonError::into_inner);
                    guard
                }
            };
        }
    }
}

struct Shard<V> {
    map: HashMap<u64, Entry<V>>,
    /// LRU order: access tick → key (ticks are unique per shard).
    lru: BTreeMap<u64, u64>,
    bytes: usize,
    next_tick: u64,
    flights: HashMap<u64, Arc<Flight<V>>>,
}

impl<V> Shard<V> {
    fn new() -> Shard<V> {
        Shard {
            map: HashMap::new(),
            lru: BTreeMap::new(),
            bytes: 0,
            next_tick: 0,
            flights: HashMap::new(),
        }
    }

    fn touch(&mut self, key: u64) {
        let tick = self.next_tick;
        self.next_tick += 1;
        if let Some(e) = self.map.get_mut(&key) {
            self.lru.remove(&e.tick);
            e.tick = tick;
            self.lru.insert(tick, key);
        }
    }

    fn remove(&mut self, key: u64) -> Option<Entry<V>> {
        let e = self.map.remove(&key)?;
        self.lru.remove(&e.tick);
        self.bytes -= e.cost;
        Some(e)
    }
}

/// Recovers a mutex from poisoning: computations run *outside* these locks
/// (single-flight publishes a poison marker instead), so the guarded state
/// is always structurally consistent.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

struct Metrics {
    hits: obs::Counter,
    misses: obs::Counter,
    evictions: obs::Counter,
    singleflight_waits: obs::Counter,
    stale_serves: obs::Counter,
    global_hits: obs::Counter,
    global_misses: obs::Counter,
    global_evictions: obs::Counter,
    global_waits: obs::Counter,
    global_stale_serves: obs::Counter,
    bytes: obs::Gauge,
    global_bytes: obs::Gauge,
}

impl Metrics {
    fn new(cfg: &CacheConfig) -> Metrics {
        let per = |what: &str| obs::counter(&format!("cache_{}_{what}", cfg.name));
        Metrics {
            hits: per("hits_total"),
            misses: per("misses_total"),
            evictions: per("evictions_total"),
            singleflight_waits: per("singleflight_waits_total"),
            stale_serves: per("stale_serves_total"),
            global_hits: obs::counter("cache_hits_total"),
            global_misses: obs::counter("cache_misses_total"),
            global_evictions: obs::counter("cache_evictions_total"),
            global_waits: obs::counter("cache_singleflight_waits_total"),
            global_stale_serves: obs::counter("cache_stale_serves_total"),
            bytes: obs::gauge(&format!("cache_{}_bytes", cfg.name)),
            global_bytes: obs::gauge("cache_bytes"),
        }
    }
}

struct Stats {
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    stale_drops: AtomicU64,
    singleflight_waits: AtomicU64,
    negative_hits: AtomicU64,
    stale_serves: AtomicU64,
    entries: AtomicUsize,
}

/// A sharded, concurrent, epoch-invalidated LRU+TTL result cache; see the
/// module docs. All methods take `&self` — interior locking is per shard.
pub struct Cache<V> {
    cfg: CacheConfig,
    clock: ClockRef,
    weigher: fn(&V) -> usize,
    shards: Vec<Mutex<Shard<V>>>,
    shard_capacity: usize,
    stats: Stats,
    metrics: Metrics,
}

/// The clock a cache validates against: the process-global one, or an
/// owned instance (test isolation).
enum ClockRef {
    Global,
    Owned(Arc<EpochClock>),
}

impl ClockRef {
    fn get(&self) -> &EpochClock {
        match self {
            ClockRef::Global => clock(),
            ClockRef::Owned(c) => c,
        }
    }
}

impl<V> fmt::Debug for Cache<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // No `V: Debug` bound: only bookkeeping is printed, never values.
        let s = CacheStats {
            hits: self.stats.hits.load(Ordering::Relaxed),
            misses: self.stats.misses.load(Ordering::Relaxed),
            evictions: self.stats.evictions.load(Ordering::Relaxed),
            stale_drops: self.stats.stale_drops.load(Ordering::Relaxed),
            singleflight_waits: self.stats.singleflight_waits.load(Ordering::Relaxed),
            negative_hits: self.stats.negative_hits.load(Ordering::Relaxed),
            stale_serves: self.stats.stale_serves.load(Ordering::Relaxed),
            entries: self.stats.entries.load(Ordering::Relaxed),
            bytes: 0,
        };
        f.debug_struct("Cache")
            .field("name", &self.cfg.name)
            .field("entries", &s.entries)
            .field("hits", &s.hits)
            .field("misses", &s.misses)
            .field("evictions", &s.evictions)
            .finish()
    }
}

impl<V: Send + Sync + 'static> Cache<V> {
    /// A cache validating against the process-global [`clock`]. `weigher`
    /// estimates a value's resident cost in bytes (a fixed per-entry
    /// overhead is added on top).
    pub fn new(cfg: CacheConfig, weigher: fn(&V) -> usize) -> Cache<V> {
        Self::build(cfg, weigher, ClockRef::Global)
    }

    /// A cache validating against an explicit clock (test isolation — the
    /// global clock is bumped by every mutation in the process).
    pub fn with_clock(cfg: CacheConfig, weigher: fn(&V) -> usize, c: Arc<EpochClock>) -> Cache<V> {
        Self::build(cfg, weigher, ClockRef::Owned(c))
    }

    fn build(cfg: CacheConfig, weigher: fn(&V) -> usize, clock: ClockRef) -> Cache<V> {
        let nshards = cfg.shards.clamp(1, 1024).next_power_of_two();
        let metrics = Metrics::new(&cfg);
        Cache {
            shard_capacity: (cfg.capacity_bytes / nshards).max(usize::from(cfg.capacity_bytes > 0)),
            shards: (0..nshards).map(|_| Mutex::new(Shard::new())).collect(),
            clock,
            weigher,
            stats: Stats {
                hits: AtomicU64::new(0),
                misses: AtomicU64::new(0),
                evictions: AtomicU64::new(0),
                stale_drops: AtomicU64::new(0),
                singleflight_waits: AtomicU64::new(0),
                negative_hits: AtomicU64::new(0),
                stale_serves: AtomicU64::new(0),
                entries: AtomicUsize::new(0),
            },
            metrics,
            cfg,
        }
    }

    /// The configured namespace label.
    pub fn name(&self) -> &'static str {
        self.cfg.name
    }

    /// Point-in-time statistics.
    pub fn stats(&self) -> CacheStats {
        let bytes: usize = self.shards.iter().map(|s| lock(s).bytes).sum();
        CacheStats {
            hits: self.stats.hits.load(Ordering::Relaxed),
            misses: self.stats.misses.load(Ordering::Relaxed),
            evictions: self.stats.evictions.load(Ordering::Relaxed),
            stale_drops: self.stats.stale_drops.load(Ordering::Relaxed),
            singleflight_waits: self.stats.singleflight_waits.load(Ordering::Relaxed),
            negative_hits: self.stats.negative_hits.load(Ordering::Relaxed),
            stale_serves: self.stats.stale_serves.load(Ordering::Relaxed),
            entries: self.stats.entries.load(Ordering::Relaxed),
            bytes,
        }
    }

    /// Drops every resident entry (in-flight computations are unaffected
    /// and will re-insert when they land). Statistics are not reset.
    pub fn clear(&self) {
        for shard in &self.shards {
            let mut sh = lock(shard);
            let dropped = sh.map.len();
            let freed = sh.bytes;
            sh.map.clear();
            sh.lru.clear();
            sh.bytes = 0;
            drop(sh);
            self.note_dropped(dropped, freed);
        }
    }

    fn note_dropped(&self, count: usize, freed: usize) {
        if count > 0 {
            self.stats.entries.fetch_sub(count, Ordering::Relaxed);
        }
        if freed > 0 {
            self.metrics.bytes.add(-(freed as f64));
            self.metrics.global_bytes.add(-(freed as f64));
        }
    }

    /// Peeks at a key without computing, touching LRU order but not the
    /// hit/miss counters. Mostly for tests.
    pub fn peek(&self, key: u64) -> Option<Arc<V>> {
        let mut sh = lock(self.shard(key));
        let e = sh.map.get(&key)?;
        if !self.entry_valid(e, None) {
            return None;
        }
        let v = e.value.as_ref().ok().cloned();
        sh.touch(key);
        v
    }

    fn shard(&self, key: u64) -> &Mutex<Shard<V>> {
        let i = ((key >> 32) ^ key) as usize & (self.shards.len() - 1);
        &self.shards[i]
    }

    /// Whether `stamp` is current for a reader pinned at `at` (an MVCC
    /// snapshot's epoch vector), or for the live clock when `at` is `None`.
    fn stamp_current(&self, stamp: &EpochVector, at: Option<&EpochVector>) -> bool {
        match at {
            Some(v) => v.matches_on(stamp, self.cfg.deps),
            None => self.clock.get().matches(stamp, self.cfg.deps),
        }
    }

    fn entry_valid(&self, e: &Entry<V>, at: Option<&EpochVector>) -> bool {
        e.expires.is_none_or(|t| Instant::now() < t) && self.stamp_current(&e.stamp, at)
    }

    /// Whether a (possibly invalid) entry may still back a degraded serve:
    /// a positive value younger than the staleness grace window.
    fn stale_servable(&self, e: &Entry<V>) -> bool {
        e.value.is_ok()
            && self
                .cfg
                .stale_grace
                .is_some_and(|g| e.inserted.elapsed() < g)
    }

    /// Serve-stale degradation: returns the resident positive value for
    /// `key` — fresh, or epoch-/TTL-stale but within the staleness grace
    /// window — along with its age since insertion. Callers use this when
    /// the live computation failed, timed out, or was rejected by an open
    /// breaker, and MUST label the response (`Cache-Status: stale` plus a
    /// `Warning` header). Returns `None` when nothing servable is
    /// resident; never computes.
    pub fn get_stale(&self, key: u64) -> Option<(Arc<V>, Duration)> {
        if self.cfg.capacity_bytes == 0 {
            return None;
        }
        let found = {
            let sh = lock(self.shard(key));
            let e = sh.map.get(&key)?;
            if !self.entry_valid(e, None) && !self.stale_servable(e) {
                return None;
            }
            let v = e.value.as_ref().ok()?;
            (Arc::clone(v), e.inserted.elapsed())
        };
        self.stats.stale_serves.fetch_add(1, Ordering::Relaxed);
        self.metrics.stale_serves.inc();
        self.metrics.global_stale_serves.inc();
        Some(found)
    }

    fn count_hit(&self, negative: bool) {
        self.stats.hits.fetch_add(1, Ordering::Relaxed);
        if negative {
            self.stats.negative_hits.fetch_add(1, Ordering::Relaxed);
        }
        self.metrics.hits.inc();
        self.metrics.global_hits.inc();
    }

    fn count_miss(&self) {
        self.stats.misses.fetch_add(1, Ordering::Relaxed);
        self.metrics.misses.inc();
        self.metrics.global_misses.inc();
    }

    fn count_evictions(&self, n: u64, stale: bool) {
        if n == 0 {
            return;
        }
        self.stats.evictions.fetch_add(n, Ordering::Relaxed);
        if stale {
            self.stats.stale_drops.fetch_add(n, Ordering::Relaxed);
        }
        self.metrics.evictions.add(n);
        self.metrics.global_evictions.add(n);
    }

    /// The one computing lookup. On a valid entry for `key` returns it;
    /// otherwise computes via `compute` (or coalesces onto an identical
    /// in-flight computation, waiting at most `deadline`), caches a success
    /// and — when `cache_error` says so — negatively caches a failure for
    /// [`CacheConfig::negative_ttl`].
    ///
    /// `at` ties the value to the state it is computed from. `Some(stamp)`
    /// is an MVCC snapshot reader pinned at that epoch vector: entries are
    /// validated against, and new entries stamped with, the snapshot's
    /// vector, so the reader keeps hitting its own generation while writers
    /// bump epochs underneath it. `None` validates against the live clock
    /// and stamps with the vector captured *before* the computation ran, so
    /// a mutation racing the computation leaves the entry already stale.
    ///
    /// Keys stay generation-independent (snapshots at different vectors
    /// share one entry slot), which is what lets [`Cache::get_stale`] find
    /// the superseded value after a commit. Cross-generation safety comes
    /// from validation: an entry stamped by another generation is treated
    /// as stale (retained when still fresh for the live clock or within the
    /// grace window) and recomputed, and a caller never coalesces onto an
    /// in-flight computation whose stamp its own context would reject.
    ///
    /// `cache_error` must reject failures that are the caller's
    /// circumstance rather than a property of the key — deadline expiries,
    /// injected chaos faults — or a burst of expired requests would poison
    /// the key for every later caller with budget to spare. Waiters
    /// coalesced onto the flight observe the shared failure either way.
    pub fn get_or_compute<E, F, P>(
        &self,
        key: u64,
        at: Option<EpochVector>,
        deadline: Option<Duration>,
        compute: F,
        cache_error: P,
    ) -> (Result<Arc<V>, CacheError<E>>, Status)
    where
        E: fmt::Display,
        F: FnOnce() -> Result<V, E>,
        P: FnOnce(&E) -> bool,
    {
        if self.cfg.capacity_bytes == 0 {
            return match compute() {
                Ok(v) => (Ok(Arc::new(v)), Status::Bypass),
                Err(e) => (Err(CacheError::Compute(e)), Status::Bypass),
            };
        }
        let deadline = deadline.map(|d| Instant::now() + d);
        let mut compute = Some(compute);
        let mut saw_stale = false;
        loop {
            enum Step<V> {
                Lead(Arc<Flight<V>>),
                Wait(Arc<Flight<V>>),
                /// An in-flight computation exists but its stamp fails this
                /// caller's validation (wrong generation): compute without
                /// touching the cache rather than receive a value this
                /// caller's snapshot could not serve.
                Solo,
            }
            let step = {
                let mut sh = lock(self.shard(key));
                if let Some(e) = sh.map.get(&key) {
                    if self.entry_valid(e, at.as_ref()) {
                        let value = e.value.clone();
                        sh.touch(key);
                        drop(sh);
                        self.count_hit(value.is_err());
                        return match value {
                            Ok(v) => (Ok(v), Status::Hit),
                            Err(msg) => (Err(CacheError::Negative(msg)), Status::Hit),
                        };
                    }
                    if self.stale_servable(e) || (at.is_some() && self.entry_valid(e, None)) {
                        // Retained: for serve-stale degradation the
                        // recompute's insert replaces it (a failed
                        // recompute leaves it for `get_stale`); and a
                        // pinned snapshot reader must never evict an
                        // entry that is still fresh for the live clock.
                        saw_stale = true;
                    } else {
                        let freed = sh.remove(key).map_or(0, |e| e.cost);
                        drop(sh);
                        self.note_dropped(1, freed);
                        self.count_evictions(1, true);
                        saw_stale = true;
                        continue;
                    }
                }
                match sh.flights.get(&key) {
                    Some(fl) if self.stamp_current(&fl.stamp, at.as_ref()) => {
                        Step::Wait(Arc::clone(fl))
                    }
                    Some(_) => Step::Solo,
                    None => {
                        let stamp = at.unwrap_or_else(|| self.clock.get().snapshot());
                        let fl = Arc::new(Flight::new(stamp));
                        sh.flights.insert(key, Arc::clone(&fl));
                        Step::Lead(fl)
                    }
                }
            };
            match step {
                Step::Lead(flight) => {
                    let Some(f) = compute.take() else {
                        // Unreachable: the leader role is taken at most once.
                        self.abandon_flight(key, &flight);
                        return (Err(CacheError::WaitTimeout), Status::Miss);
                    };
                    return self.lead(key, flight, f, cache_error, saw_stale);
                }
                Step::Solo => {
                    let Some(f) = compute.take() else {
                        // Unreachable: Solo returns on its first (and only) hit.
                        return (Err(CacheError::WaitTimeout), Status::Miss);
                    };
                    return match f() {
                        Ok(v) => (Ok(Arc::new(v)), Status::Bypass),
                        Err(e) => (Err(CacheError::Compute(e)), Status::Bypass),
                    };
                }
                Step::Wait(flight) => {
                    self.stats
                        .singleflight_waits
                        .fetch_add(1, Ordering::Relaxed);
                    self.metrics.singleflight_waits.inc();
                    self.metrics.global_waits.inc();
                    match flight.wait(deadline) {
                        WaitOutcome::Completed(Ok(v)) => {
                            self.count_hit(false);
                            return (Ok(v), Status::Hit);
                        }
                        WaitOutcome::Completed(Err(msg)) => {
                            self.count_hit(true);
                            return (Err(CacheError::Negative(msg)), Status::Hit);
                        }
                        WaitOutcome::Poisoned => continue,
                        WaitOutcome::TimedOut => {
                            return (Err(CacheError::WaitTimeout), Status::Miss);
                        }
                    }
                }
            }
        }
    }

    /// Runs the leader's computation with panic cleanup, publishes the
    /// outcome and inserts the entry.
    fn lead<E, F, P>(
        &self,
        key: u64,
        flight: Arc<Flight<V>>,
        compute: F,
        cache_error: P,
        saw_stale: bool,
    ) -> (Result<Arc<V>, CacheError<E>>, Status)
    where
        E: fmt::Display,
        F: FnOnce() -> Result<V, E>,
        P: FnOnce(&E) -> bool,
    {
        struct Cleanup<'a, W: Send + Sync + 'static> {
            cache: &'a Cache<W>,
            key: u64,
            flight: &'a Arc<Flight<W>>,
            armed: bool,
        }
        impl<W: Send + Sync + 'static> Drop for Cleanup<'_, W> {
            fn drop(&mut self) {
                if self.armed {
                    self.cache.abandon_flight(self.key, self.flight);
                }
            }
        }
        let mut cleanup = Cleanup {
            cache: self,
            key,
            flight: &flight,
            armed: true,
        };
        let result = compute();
        cleanup.armed = false;
        self.count_miss();
        let status = if saw_stale {
            Status::Stale
        } else {
            Status::Miss
        };
        match result {
            Ok(v) => {
                let v = Arc::new(v);
                let cost = (self.weigher)(&v) + ENTRY_OVERHEAD;
                self.insert(key, Ok(Arc::clone(&v)), flight.stamp, self.cfg.ttl, cost);
                self.finish_flight(key, &flight, Some(Ok(v.clone())));
                (Ok(v), status)
            }
            Err(e) => {
                let msg: Arc<str> = Arc::from(e.to_string());
                if cache_error(&e) {
                    let cost = msg.len() + ENTRY_OVERHEAD;
                    self.insert(
                        key,
                        Err(Arc::clone(&msg)),
                        flight.stamp,
                        Some(self.cfg.negative_ttl),
                        cost,
                    );
                }
                self.finish_flight(key, &flight, Some(Err(msg)));
                (Err(CacheError::Compute(e)), status)
            }
        }
    }

    /// Removes the flight slot and wakes waiters with a poison marker
    /// (leader panicked or could not run).
    fn abandon_flight(&self, key: u64, flight: &Arc<Flight<V>>) {
        self.finish_flight(key, flight, None);
    }

    fn finish_flight(&self, key: u64, flight: &Arc<Flight<V>>, outcome: Option<Outcome<V>>) {
        {
            let mut sh = lock(self.shard(key));
            if let Some(current) = sh.flights.get(&key) {
                if Arc::ptr_eq(current, flight) {
                    sh.flights.remove(&key);
                }
            }
        }
        flight.publish(outcome);
    }

    /// Inserts an entry: sweeps stale shard residents first, then LRU-evicts
    /// until the shard fits its byte budget. Values larger than the whole
    /// shard budget are not cached at all.
    fn insert(
        &self,
        key: u64,
        value: Outcome<V>,
        stamp: EpochVector,
        ttl: Option<Duration>,
        cost: usize,
    ) {
        if cost > self.shard_capacity {
            return;
        }
        let mut sh = lock(self.shard(key));
        // A failure never displaces a grace-servable positive value: the
        // stale answer outranks a negatively cached error for degradation.
        if value.is_err() && sh.map.get(&key).is_some_and(|e| self.stale_servable(e)) {
            return;
        }
        // Lazy sweep: drop epoch/TTL-stale residents of this shard, except
        // positives still inside the staleness grace window.
        let now = Instant::now();
        let clk = self.clock.get();
        let stale_keys: Vec<u64> = sh
            .map
            .iter()
            .filter(|(_, e)| {
                (e.expires.is_some_and(|t| now >= t) || !clk.matches(&e.stamp, self.cfg.deps))
                    && !self.stale_servable(e)
            })
            .map(|(&k, _)| k)
            .collect();
        let mut freed = 0usize;
        for k in &stale_keys {
            if let Some(e) = sh.remove(*k) {
                freed += e.cost;
            }
        }
        let swept = stale_keys.len();
        // Replace any (stale) previous entry for this key.
        let mut replaced = 0usize;
        if let Some(e) = sh.remove(key) {
            freed += e.cost;
            replaced = 1;
        }
        // LRU eviction down to budget.
        let mut lru_evicted = 0usize;
        while sh.bytes + cost > self.shard_capacity {
            let Some(victim) = sh.lru.iter().next().map(|(_, &k)| k) else {
                break;
            };
            if let Some(e) = sh.remove(victim) {
                freed += e.cost;
            }
            lru_evicted += 1;
        }
        let tick = sh.next_tick;
        sh.next_tick += 1;
        sh.lru.insert(tick, key);
        sh.bytes += cost;
        sh.map.insert(
            key,
            Entry {
                value,
                stamp,
                expires: ttl.map(|t| now + t),
                inserted: now,
                cost,
                tick,
            },
        );
        drop(sh);
        self.count_evictions(swept as u64, true);
        self.count_evictions(lru_evicted as u64, false);
        self.note_dropped(swept + replaced + lru_evicted, freed);
        self.stats.entries.fetch_add(1, Ordering::Relaxed);
        self.metrics.bytes.add(cost as f64);
        self.metrics.global_bytes.add(cost as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ALL_DOMAINS;
    use std::cell::Cell;

    const DEPS: &[Domain] = &[Domain::Relational, Domain::SearchIndex];

    fn test_cache(capacity: usize) -> (Cache<String>, Arc<EpochClock>) {
        let clk = Arc::new(EpochClock::new());
        let mut cfg = CacheConfig::new("test", capacity, DEPS);
        cfg.shards = 1;
        cfg.negative_ttl = Duration::from_millis(40);
        let cache = Cache::with_clock(cfg, |v: &String| v.len(), Arc::clone(&clk));
        (cache, clk)
    }

    fn get(
        cache: &Cache<String>,
        key: u64,
        value: &str,
        calls: &Cell<u32>,
    ) -> (Result<Arc<String>, CacheError<String>>, Status) {
        cache.get_or_compute(
            key,
            None,
            None,
            || {
                calls.set(calls.get() + 1);
                Ok::<_, String>(value.to_string())
            },
            |_| true,
        )
    }

    #[test]
    fn miss_then_hit_computes_once() {
        let (cache, _clk) = test_cache(1 << 16);
        let calls = Cell::new(0);
        let (v1, s1) = get(&cache, 7, "alpha", &calls);
        let (v2, s2) = get(&cache, 7, "beta", &calls);
        assert_eq!(s1, Status::Miss);
        assert_eq!(s2, Status::Hit);
        assert_eq!(calls.get(), 1);
        assert_eq!(*v1.expect("first"), "alpha");
        assert_eq!(
            *v2.expect("second"),
            "alpha",
            "hit returns the cached value"
        );
        let st = cache.stats();
        assert_eq!((st.hits, st.misses, st.entries), (1, 1, 1));
        assert!(st.bytes > 0);
    }

    #[test]
    fn dep_bump_goes_stale_but_unrelated_bump_does_not() {
        let (cache, clk) = test_cache(1 << 16);
        let calls = Cell::new(0);
        let _ = get(&cache, 1, "v1", &calls);
        clk.bump(Domain::WebGraph); // not in DEPS
        let (_, s) = get(&cache, 1, "v2", &calls);
        assert_eq!(s, Status::Hit, "unrelated domain bump must not invalidate");
        clk.bump(Domain::Relational);
        let (v, s) = get(&cache, 1, "v3", &calls);
        assert_eq!(s, Status::Stale);
        assert_eq!(*v.expect("recomputed"), "v3");
        assert_eq!(calls.get(), 2);
        let st = cache.stats();
        assert_eq!(st.stale_drops, 1);
        assert_eq!(st.evictions, 1);
    }

    #[test]
    fn negative_result_is_cached_until_its_ttl() {
        let (cache, _clk) = test_cache(1 << 16);
        let calls = Cell::new(0);
        let compute = || {
            calls.set(calls.get() + 1);
            Err::<String, String>("backend exploded".to_string())
        };
        let (r1, s1) = cache.get_or_compute(9, None, None, compute, |_| true);
        assert_eq!(s1, Status::Miss);
        assert!(matches!(r1, Err(CacheError::Compute(_))));
        let (r2, s2) = cache.get_or_compute(9, None, None, compute, |_| true);
        assert_eq!(s2, Status::Hit, "failure replayed from cache");
        match r2 {
            Err(CacheError::Negative(msg)) => assert_eq!(&*msg, "backend exploded"),
            other => panic!("expected negative hit, got {other:?}"),
        }
        assert_eq!(calls.get(), 1);
        assert_eq!(cache.stats().negative_hits, 1);
        std::thread::sleep(Duration::from_millis(60));
        let (_, s3) = cache.get_or_compute(9, None, None, compute, |_| true);
        assert_eq!(s3, Status::Stale, "negative TTL elapsed, recomputed");
        assert_eq!(calls.get(), 2);
    }

    #[test]
    fn lru_evicts_oldest_under_byte_pressure() {
        // Each entry costs 10 + ENTRY_OVERHEAD = 106 bytes; capacity fits 2.
        let (cache, _clk) = test_cache(2 * (10 + ENTRY_OVERHEAD));
        let calls = Cell::new(0);
        let ten = "x".repeat(10);
        let _ = get(&cache, 1, &ten, &calls);
        let _ = get(&cache, 2, &ten, &calls);
        let _ = get(&cache, 1, &ten, &calls); // touch 1 so 2 is now LRU victim
        let _ = get(&cache, 3, &ten, &calls); // evicts 2
        assert!(cache.peek(1).is_some(), "recently used key survives");
        assert!(cache.peek(2).is_none(), "LRU victim evicted");
        assert!(cache.peek(3).is_some());
        let st = cache.stats();
        assert_eq!(st.entries, 2);
        assert_eq!(st.evictions, 1);
        assert!(st.bytes <= 2 * (10 + ENTRY_OVERHEAD));
    }

    #[test]
    fn oversized_value_is_computed_but_never_cached() {
        let (cache, _clk) = test_cache(64); // < one entry's overhead+cost
        let calls = Cell::new(0);
        let big = "y".repeat(100);
        let (_, s1) = get(&cache, 5, &big, &calls);
        let (_, s2) = get(&cache, 5, &big, &calls);
        assert_eq!((s1, s2), (Status::Miss, Status::Miss));
        assert_eq!(calls.get(), 2);
        assert_eq!(cache.stats().entries, 0);
    }

    #[test]
    fn zero_capacity_bypasses() {
        let (cache, _clk) = test_cache(0);
        let calls = Cell::new(0);
        let (v, s) = get(&cache, 1, "v", &calls);
        assert_eq!(s, Status::Bypass);
        assert_eq!(*v.expect("computed"), "v");
        let (_, s2) = get(&cache, 1, "v", &calls);
        assert_eq!(s2, Status::Bypass);
        assert_eq!(calls.get(), 2);
        let st = cache.stats();
        assert_eq!((st.hits, st.misses, st.entries), (0, 0, 0));
    }

    #[test]
    fn clear_drops_everything_and_resets_bytes() {
        let (cache, _clk) = test_cache(1 << 16);
        let calls = Cell::new(0);
        let _ = get(&cache, 1, "a", &calls);
        let _ = get(&cache, 2, "b", &calls);
        cache.clear();
        let st = cache.stats();
        assert_eq!((st.entries, st.bytes), (0, 0));
        let (_, s) = get(&cache, 1, "a", &calls);
        assert_eq!(s, Status::Miss);
    }

    #[test]
    fn positive_ttl_expires_entries() {
        let clk = Arc::new(EpochClock::new());
        let mut cfg = CacheConfig::new("ttl_test", 1 << 16, DEPS);
        cfg.shards = 1;
        cfg.ttl = Some(Duration::from_millis(30));
        let cache = Cache::with_clock(cfg, |v: &String| v.len(), Arc::clone(&clk));
        let calls = Cell::new(0);
        let _ = get(&cache, 1, "v", &calls);
        let (_, s) = get(&cache, 1, "v", &calls);
        assert_eq!(s, Status::Hit);
        std::thread::sleep(Duration::from_millis(50));
        let (_, s) = get(&cache, 1, "v", &calls);
        assert_eq!(s, Status::Stale);
        assert_eq!(calls.get(), 2);
    }

    #[test]
    fn stamp_captured_before_compute_invalidates_racing_write() {
        // A mutation landing *during* the computation must leave the entry
        // already stale: the stamp is taken at flight creation.
        let (cache, clk) = test_cache(1 << 16);
        let clk2 = Arc::clone(&clk);
        let (_, s1) = cache.get_or_compute(
            3,
            None,
            None,
            move || {
                clk2.bump(Domain::Relational); // concurrent write, simulated inline
                Ok::<_, String>("computed-under-race".to_string())
            },
            |_| true,
        );
        assert_eq!(s1, Status::Miss);
        let calls = Cell::new(0);
        let (_, s2) = get(&cache, 3, "fresh", &calls);
        assert_eq!(
            s2,
            Status::Stale,
            "entry stamped pre-compute must not serve"
        );
        assert_eq!(calls.get(), 1);
    }

    #[test]
    fn snapshot_pinned_reader_keeps_hitting_its_generation() {
        let (cache, clk) = test_cache(1 << 16);
        let calls = Cell::new(0);
        let stamp = clk.snapshot();
        let compute = || {
            calls.set(calls.get() + 1);
            Ok::<_, String>("old-gen".to_string())
        };
        let (v1, s1) = cache.get_or_compute(21, Some(stamp), None, compute, |_| true);
        assert_eq!(s1, Status::Miss);
        assert_eq!(*v1.expect("computed"), "old-gen");
        // A writer commits; live readers are invalidated, but the reader
        // pinned at `stamp` keeps hitting its own generation.
        clk.bump(Domain::Relational);
        let (v2, s2) = cache.get_or_compute(
            21,
            Some(stamp),
            None,
            || {
                calls.set(calls.get() + 1);
                Ok::<_, String>("recomputed".to_string())
            },
            |_| true,
        );
        assert_eq!(s2, Status::Hit, "pinned reader validates against stamp");
        assert_eq!(*v2.expect("hit"), "old-gen");
        assert_eq!(calls.get(), 1);
        // A live-clock lookup of the same key sees the entry as stale.
        let (_, s3) = get(&cache, 21, "fresh", &calls);
        assert_eq!(s3, Status::Stale);
        assert_eq!(calls.get(), 2);
    }

    #[test]
    fn insert_sweeps_stale_shard_residents() {
        let (cache, clk) = test_cache(1 << 16);
        let calls = Cell::new(0);
        let _ = get(&cache, 1, "a", &calls);
        let _ = get(&cache, 2, "b", &calls);
        clk.bump(Domain::SearchIndex);
        // Inserting key 3 sweeps the now-stale 1 and 2 from the shard.
        let _ = get(&cache, 3, "c", &calls);
        let st = cache.stats();
        assert_eq!(st.entries, 1);
        assert_eq!(st.stale_drops, 2);
    }

    #[test]
    fn status_labels_are_stable() {
        for (s, want) in [
            (Status::Hit, "hit"),
            (Status::Miss, "miss"),
            (Status::Stale, "stale"),
            (Status::Bypass, "bypass"),
            (Status::Degraded, "stale"),
        ] {
            assert_eq!(s.as_str(), want);
        }
        assert!(Status::Degraded.is_degraded());
        assert!(!Status::Stale.is_degraded());
        let _ = ALL_DOMAINS; // referenced so the import is exercised
    }

    fn grace_cache(grace: Option<Duration>) -> (Cache<String>, Arc<EpochClock>) {
        let clk = Arc::new(EpochClock::new());
        let mut cfg = CacheConfig::new("grace_test", 1 << 16, DEPS);
        cfg.shards = 1;
        cfg.stale_grace = grace;
        let cache = Cache::with_clock(cfg, |v: &String| v.len(), Arc::clone(&clk));
        (cache, clk)
    }

    #[test]
    fn without_grace_stale_entries_are_not_servable() {
        let (cache, clk) = grace_cache(None);
        let calls = Cell::new(0);
        let _ = get(&cache, 1, "v1", &calls);
        clk.bump(Domain::Relational);
        assert!(cache.get_stale(1).is_none(), "no grace window configured");
    }

    #[test]
    fn grace_serves_stale_and_survives_failed_recompute() {
        let (cache, clk) = grace_cache(Some(Duration::from_secs(60)));
        let calls = Cell::new(0);
        let _ = get(&cache, 1, "v1", &calls);
        // Fresh entries are servable too (age ~0).
        let (v, age) = cache.get_stale(1).expect("fresh entry servable");
        assert_eq!(*v, "v1");
        assert!(age < Duration::from_secs(1));

        clk.bump(Domain::Relational);
        let (v, _) = cache.get_stale(1).expect("grace keeps the stale value");
        assert_eq!(*v, "v1");

        // A failing recompute (negatively cached) must not displace it.
        let (r, s) = cache.get_or_compute(
            1,
            None,
            None,
            || Err::<String, String>("backend down".into()),
            |_| true,
        );
        assert!(matches!(r, Err(CacheError::Compute(_))));
        assert_eq!(
            s,
            Status::Stale,
            "retained entry still marks recompute stale"
        );
        let (v, _) = cache
            .get_stale(1)
            .expect("negative outcome must not evict the stale positive");
        assert_eq!(*v, "v1");
        assert_eq!(cache.stats().stale_serves, 3);

        // A successful recompute replaces it with fresh data.
        let (_, s) = get(&cache, 1, "v2", &calls);
        assert_eq!(s, Status::Stale);
        let (v, _) = cache.get_stale(1).expect("fresh again");
        assert_eq!(*v, "v2");
    }

    #[test]
    fn expired_grace_drops_the_entry() {
        let (cache, clk) = grace_cache(Some(Duration::from_millis(20)));
        let calls = Cell::new(0);
        let _ = get(&cache, 1, "v1", &calls);
        clk.bump(Domain::Relational);
        std::thread::sleep(Duration::from_millis(40));
        assert!(cache.get_stale(1).is_none(), "grace window elapsed");
        // And the lookup path evicts it like any stale entry.
        let (_, s) = get(&cache, 1, "v2", &calls);
        assert_eq!(s, Status::Stale);
        assert_eq!(cache.stats().stale_drops, 1);
    }

    #[test]
    fn filtered_errors_are_not_negatively_cached() {
        let (cache, _clk) = test_cache(1 << 16);
        let calls = Cell::new(0);
        let compute = || {
            calls.set(calls.get() + 1);
            Err::<String, String>("deadline exceeded".into())
        };
        let (r1, _) = cache.get_or_compute(11, None, None, compute, |_| false);
        assert!(matches!(r1, Err(CacheError::Compute(_))));
        let (r2, s2) = cache.get_or_compute(11, None, None, compute, |_| false);
        assert!(
            matches!(r2, Err(CacheError::Compute(_))),
            "second call recomputed instead of replaying a negative entry"
        );
        assert_eq!(s2, Status::Miss);
        assert_eq!(calls.get(), 2);
        assert_eq!(cache.stats().entries, 0);
    }
}
