//! The sharded, concurrent, epoch-invalidated result cache.
//!
//! One [`Cache`] instance serves one namespace (query results, tag
//! clouds). Entries are keyed by a 64-bit query fingerprint, cost-accounted
//! in bytes (capacity is a byte budget, not an entry count), bounded by LRU
//! eviction, and stamped with the epoch of the version they were computed
//! from. The stamp is the one validity rule: an entry is served only to a
//! reader pinned at that epoch, at any age.
//! The cache holds no clock; every lookup names its version. Superseded
//! entries are dropped lazily — on lookup for the requested key, and by an
//! opportunistic sweep of the shard whenever a later version inserts.
//!
//! Only successes are stored. Concurrent identical misses coalesce through
//! a per-key single-flight slot: one caller computes, the rest block on the
//! slot until their deadline and receive the shared value. A failed or
//! panicking computation answers nobody: its waiters retry, each becoming
//! the leader or waiting on the next flight.

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
    /// A cached entry existed but was stamped by another version; it was
    /// dropped (or retained for degradation) and this call recomputed.
    Stale,
    /// The cache was sidestepped; computed without caching.
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
    /// This call computed and the computation failed; the original error.
    Compute(E),
    /// The single-flight wait reached the caller's deadline.
    WaitTimeout,
}

impl<E: fmt::Display> fmt::Display for CacheError<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CacheError::Compute(e) => write!(f, "{e}"),
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
            CacheError::WaitTimeout => None,
        }
    }
}

/// Counters for one cache instance (process-lifetime, never reset by
/// [`Cache::clear`]). The same movements are mirrored into the global obs
/// registry under `cache_<name>_*` metric names.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups served from a valid entry or a coalesced flight.
    pub hits: u64,
    /// Lookups that computed (stale recomputes included).
    pub misses: u64,
    /// Entries dropped: LRU pressure, stale sweeps, and stale lookups.
    pub evictions: u64,
    /// The subset of `evictions` dropped as stamped by a superseded
    /// version.
    pub stale_drops: u64,
    /// Times a caller blocked on another caller's in-flight computation.
    pub singleflight_waits: u64,
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
    /// Byte budget across all shards.
    pub capacity_bytes: usize,
    /// Shard count (rounded up to a power of two, min 1). More shards,
    /// less lock contention, coarser LRU.
    pub shards: usize,
    /// Staleness grace window for serve-stale degradation: an entry
    /// stamped by another version and inserted less than this long ago is
    /// retained instead of dropped, and can be fetched with
    /// [`Cache::get_stale`]. `None` (the default) disables degradation:
    /// superseded entries are dropped on sight.
    pub stale_grace: Option<Duration>,
}

impl CacheConfig {
    /// A config with the common defaults: 8 shards, no serve-stale grace.
    pub fn new(name: &'static str, capacity_bytes: usize) -> CacheConfig {
        CacheConfig {
            name,
            capacity_bytes,
            shards: 8,
            stale_grace: None,
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

struct Entry<V> {
    value: Arc<V>,
    stamp: u64,
    /// When the entry landed — the grace window for serve-stale
    /// degradation bounds the value's total age from this point.
    inserted: Instant,
    cost: usize,
    tick: u64,
}

enum FlightState<V> {
    Pending,
    Done(Arc<V>),
    /// The computing caller failed or panicked; waiters retry from scratch.
    Failed,
}

struct Flight<V> {
    stamp: u64,
    state: Mutex<FlightState<V>>,
    cv: Condvar,
}

enum WaitOutcome<V> {
    Done(Arc<V>),
    Failed,
    TimedOut,
}

impl<V> Flight<V> {
    fn new(stamp: u64) -> Flight<V> {
        Flight {
            stamp,
            state: Mutex::new(FlightState::Pending),
            cv: Condvar::new(),
        }
    }

    fn publish(&self, value: Option<Arc<V>>) {
        let mut st = lock(&self.state);
        *st = match value {
            Some(v) => FlightState::Done(v),
            None => FlightState::Failed,
        };
        self.cv.notify_all();
    }

    fn wait(&self, deadline: Option<Instant>) -> WaitOutcome<V> {
        let mut st = lock(&self.state);
        loop {
            match &*st {
                FlightState::Done(v) => return WaitOutcome::Done(Arc::clone(v)),
                FlightState::Failed => return WaitOutcome::Failed,
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
/// (single-flight publishes a failure marker instead), so the guarded state
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
    bytes: obs::Gauge,
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
            bytes: obs::gauge(&format!("cache_{}_bytes", cfg.name)),
        }
    }
}

struct Stats {
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    stale_drops: AtomicU64,
    singleflight_waits: AtomicU64,
    stale_serves: AtomicU64,
    entries: AtomicUsize,
}

/// A sharded, concurrent, epoch-invalidated LRU result cache; see the
/// module docs. All methods take `&self` — interior locking is per shard.
pub struct Cache<V> {
    cfg: CacheConfig,
    weigher: fn(&V) -> usize,
    shards: Vec<Mutex<Shard<V>>>,
    shard_capacity: usize,
    stats: Stats,
    metrics: Metrics,
}

impl<V> fmt::Debug for Cache<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // No `V: Debug` bound: only bookkeeping is printed, never values.
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        f.debug_struct("Cache")
            .field("name", &self.cfg.name)
            .field("entries", &self.stats.entries.load(Ordering::Relaxed))
            .field("hits", &load(&self.stats.hits))
            .field("misses", &load(&self.stats.misses))
            .field("evictions", &load(&self.stats.evictions))
            .finish()
    }
}

impl<V: Send + Sync + 'static> Cache<V> {
    /// An empty cache. `weigher` estimates a value's resident cost in bytes
    /// (a fixed per-entry overhead is added on top).
    pub fn new(cfg: CacheConfig, weigher: fn(&V) -> usize) -> Cache<V> {
        let nshards = cfg.shards.clamp(1, 1024).next_power_of_two();
        let metrics = Metrics::new(&cfg);
        Cache {
            shard_capacity: cfg.capacity_bytes / nshards,
            shards: (0..nshards).map(|_| Mutex::new(Shard::new())).collect(),
            weigher,
            stats: Stats {
                hits: AtomicU64::new(0),
                misses: AtomicU64::new(0),
                evictions: AtomicU64::new(0),
                stale_drops: AtomicU64::new(0),
                singleflight_waits: AtomicU64::new(0),
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
        }
    }

    /// Peeks at a key as a reader pinned at `at` would, without computing,
    /// touching LRU order but not the hit/miss counters. Mostly for tests.
    pub fn peek(&self, key: u64, at: u64) -> Option<Arc<V>> {
        let mut sh = lock(self.shard(key));
        let e = sh.map.get(&key)?;
        if e.stamp != at {
            return None;
        }
        let v = Arc::clone(&e.value);
        sh.touch(key);
        Some(v)
    }

    fn shard(&self, key: u64) -> &Mutex<Shard<V>> {
        let i = ((key >> 32) ^ key) as usize & (self.shards.len() - 1);
        &self.shards[i]
    }

    /// Whether `e` may still back a degraded serve to a reader pinned at
    /// `at`: stamped by another version and inserted within the staleness
    /// grace window.
    fn stale_servable(&self, e: &Entry<V>, at: u64) -> bool {
        e.stamp != at
            && self
                .cfg
                .stale_grace
                .is_some_and(|g| e.inserted.elapsed() < g)
    }

    /// Serve-stale degradation: returns the resident value for `key` —
    /// valid at `at`, or superseded but within the staleness grace window —
    /// along with its age since insertion. Callers use this when the live
    /// computation failed, timed out, or was rejected by an open breaker,
    /// and MUST label the response (`Cache-Status: stale` plus a `Warning`
    /// header). Returns `None` when nothing servable is resident; never
    /// computes.
    pub fn get_stale(&self, key: u64, at: u64) -> Option<(Arc<V>, Duration)> {
        let found = {
            let sh = lock(self.shard(key));
            let e = sh.map.get(&key)?;
            if e.stamp != at && !self.stale_servable(e, at) {
                return None;
            }
            (Arc::clone(&e.value), e.inserted.elapsed())
        };
        self.stats.stale_serves.fetch_add(1, Ordering::Relaxed);
        self.metrics.stale_serves.inc();
        Some(found)
    }

    fn count_hit(&self) {
        self.stats.hits.fetch_add(1, Ordering::Relaxed);
        self.metrics.hits.inc();
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
    }

    /// The one computing lookup. On an entry stamped `at` for `key` returns
    /// it; otherwise computes via `compute` (or coalesces onto an identical
    /// in-flight computation, waiting at most until the instant `wait`,
    /// `None` for as long as it runs) and caches a
    /// success. A failure is never cached: the caller that computed gets
    /// the error, and callers waiting on its flight retry under their own
    /// deadline — leading the next computation or waiting on it.
    ///
    /// `at` is the epoch of the version `compute` reads: entries are
    /// validated against it and new entries stamped with it, so a reader
    /// keeps hitting its own version while writers publish later ones.
    ///
    /// Keys stay generation-independent (versions at different epochs
    /// share one entry slot), which is what lets [`Cache::get_stale`] find
    /// the superseded value after a commit. Cross-generation safety comes
    /// from validation: an entry stamped by another version is treated as
    /// stale and recomputed, and a caller never coalesces onto an in-flight
    /// computation stamped by another version. An entry stamped by a *later*
    /// version is never replaced by an earlier version's result.
    pub fn get_or_compute<E, F>(
        &self,
        key: u64,
        at: u64,
        wait: Option<Instant>,
        compute: F,
    ) -> (Result<Arc<V>, CacheError<E>>, Status)
    where
        F: FnOnce() -> Result<V, E>,
    {
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
                    if e.stamp == at {
                        let value = Arc::clone(&e.value);
                        sh.touch(key);
                        drop(sh);
                        self.count_hit();
                        return (Ok(value), Status::Hit);
                    }
                    saw_stale = true;
                    // Dropped unless retained: an entry within the grace
                    // stays for serve-stale degradation (the recompute's
                    // insert replaces it, a failed recompute leaves it for
                    // `get_stale`), and a reader on an earlier version must
                    // never evict an entry a later version stamped.
                    if e.stamp < at && !self.stale_servable(e, at) {
                        let freed = sh.remove(key).map_or(0, |e| e.cost);
                        drop(sh);
                        self.note_dropped(1, freed);
                        self.count_evictions(1, true);
                        continue;
                    }
                }
                match sh.flights.get(&key) {
                    Some(fl) if fl.stamp == at => Step::Wait(Arc::clone(fl)),
                    Some(_) => Step::Solo,
                    None => {
                        let fl = Arc::new(Flight::new(at));
                        sh.flights.insert(key, Arc::clone(&fl));
                        Step::Lead(fl)
                    }
                }
            };
            match step {
                // A caller leads or computes solo at most once — either
                // returns — so `compute` is still there to run.
                Step::Lead(flight) => {
                    let status = if saw_stale {
                        Status::Stale
                    } else {
                        Status::Miss
                    };
                    return match self.lead(key, &flight, compute) {
                        Ok(v) => (Ok(v), status),
                        Err(e) => (Err(CacheError::Compute(e)), status),
                    };
                }
                Step::Solo => {
                    return match compute() {
                        Ok(v) => (Ok(Arc::new(v)), Status::Bypass),
                        Err(e) => (Err(CacheError::Compute(e)), Status::Bypass),
                    };
                }
                Step::Wait(flight) => {
                    self.stats
                        .singleflight_waits
                        .fetch_add(1, Ordering::Relaxed);
                    self.metrics.singleflight_waits.inc();
                    match flight.wait(wait) {
                        WaitOutcome::Done(v) => {
                            self.count_hit();
                            return (Ok(v), Status::Hit);
                        }
                        WaitOutcome::Failed => continue,
                        WaitOutcome::TimedOut => {
                            return (Err(CacheError::WaitTimeout), Status::Miss);
                        }
                    }
                }
            }
        }
    }

    /// Runs the leader's computation, inserts a success and publishes it to
    /// the flight's waiters. A failure — an error or a panic unwinding
    /// through here — publishes nothing but the flight's end, and its
    /// waiters retry.
    fn lead<E>(
        &self,
        key: u64,
        flight: &Arc<Flight<V>>,
        compute: impl FnOnce() -> Result<V, E>,
    ) -> Result<Arc<V>, E> {
        /// Ends the flight on every exit; `value` is set only on success.
        struct Finish<'a, W: Send + Sync + 'static> {
            cache: &'a Cache<W>,
            key: u64,
            flight: &'a Arc<Flight<W>>,
            value: Option<Arc<W>>,
        }
        impl<W: Send + Sync + 'static> Drop for Finish<'_, W> {
            fn drop(&mut self) {
                {
                    let mut sh = lock(self.cache.shard(self.key));
                    if sh
                        .flights
                        .get(&self.key)
                        .is_some_and(|current| Arc::ptr_eq(current, self.flight))
                    {
                        sh.flights.remove(&self.key);
                    }
                }
                self.flight.publish(self.value.take());
            }
        }
        let mut finish = Finish {
            cache: self,
            key,
            flight,
            value: None,
        };
        let result = compute();
        self.stats.misses.fetch_add(1, Ordering::Relaxed);
        self.metrics.misses.inc();
        let v = Arc::new(result?);
        let cost = (self.weigher)(&v) + ENTRY_OVERHEAD;
        self.insert(key, Arc::clone(&v), flight.stamp, cost);
        finish.value = Some(Arc::clone(&v));
        Ok(v)
    }

    /// Inserts an entry: sweeps shard residents `stamp` supersedes first,
    /// then LRU-evicts until the shard fits its byte budget. Values larger
    /// than the whole shard budget are not cached at all, and an entry a
    /// later version stamped is never replaced.
    fn insert(&self, key: u64, value: Arc<V>, stamp: u64, cost: usize) {
        if cost > self.shard_capacity {
            return;
        }
        let mut sh = lock(self.shard(key));
        if sh.map.get(&key).is_some_and(|e| e.stamp > stamp) {
            return;
        }
        // Lazy sweep: drop residents stamped by a version this one
        // supersedes, except those still inside the staleness grace window.
        let stale_keys: Vec<u64> = sh
            .map
            .iter()
            .filter(|(_, e)| stamp > e.stamp && !self.stale_servable(e, stamp))
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
                inserted: Instant::now(),
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
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::EpochClock;
    use std::cell::Cell;

    /// A one-shard cache plus the clock that dates the versions its
    /// readers are pinned at (a bump stands for a commit).
    fn test_cache(capacity: usize) -> (Cache<String>, EpochClock) {
        let mut cfg = CacheConfig::new("test", capacity);
        cfg.shards = 1;
        (Cache::new(cfg, |v: &String| v.len()), EpochClock::new())
    }

    /// A lookup by a reader of the clock's current version.
    fn get(
        cache: &Cache<String>,
        clk: &EpochClock,
        key: u64,
        value: &str,
        calls: &Cell<u32>,
    ) -> (Result<Arc<String>, CacheError<String>>, Status) {
        cache.get_or_compute(key, clk.now(), None, || {
            calls.set(calls.get() + 1);
            Ok::<_, String>(value.to_string())
        })
    }

    #[test]
    fn miss_then_hit_computes_once() {
        let (cache, clk) = test_cache(1 << 16);
        let calls = Cell::new(0);
        let (v1, s1) = get(&cache, &clk, 7, "alpha", &calls);
        let (v2, s2) = get(&cache, &clk, 7, "beta", &calls);
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
    fn lru_evicts_oldest_under_byte_pressure() {
        // Each entry costs 10 + ENTRY_OVERHEAD = 106 bytes; capacity fits 2.
        let (cache, clk) = test_cache(2 * (10 + ENTRY_OVERHEAD));
        let calls = Cell::new(0);
        let ten = "x".repeat(10);
        let _ = get(&cache, &clk, 1, &ten, &calls);
        let _ = get(&cache, &clk, 2, &ten, &calls);
        let _ = get(&cache, &clk, 1, &ten, &calls); // touch 1 so 2 is now LRU victim
        let _ = get(&cache, &clk, 3, &ten, &calls); // evicts 2
        let at = clk.now();
        assert!(cache.peek(1, at).is_some(), "recently used key survives");
        assert!(cache.peek(2, at).is_none(), "LRU victim evicted");
        assert!(cache.peek(3, at).is_some());
        let st = cache.stats();
        assert_eq!(st.entries, 2);
        assert_eq!(st.evictions, 1);
        assert!(st.bytes <= 2 * (10 + ENTRY_OVERHEAD));
    }

    #[test]
    fn oversized_value_is_computed_but_never_cached() {
        let (cache, clk) = test_cache(64); // < one entry's overhead+cost
        let calls = Cell::new(0);
        let big = "y".repeat(100);
        let (_, s1) = get(&cache, &clk, 5, &big, &calls);
        let (_, s2) = get(&cache, &clk, 5, &big, &calls);
        assert_eq!((s1, s2), (Status::Miss, Status::Miss));
        assert_eq!(calls.get(), 2);
        assert_eq!(cache.stats().entries, 0);
    }

    #[test]
    fn clear_drops_everything_and_resets_bytes() {
        let (cache, clk) = test_cache(1 << 16);
        let calls = Cell::new(0);
        let _ = get(&cache, &clk, 1, "a", &calls);
        let _ = get(&cache, &clk, 2, "b", &calls);
        cache.clear();
        let st = cache.stats();
        assert_eq!((st.entries, st.bytes), (0, 0));
        let (_, s) = get(&cache, &clk, 1, "a", &calls);
        assert_eq!(s, Status::Miss);
    }

    #[test]
    fn snapshot_pinned_reader_keeps_hitting_its_generation() {
        let (cache, clk) = test_cache(1 << 16);
        let calls = Cell::new(0);
        let stamp = clk.now();
        let compute = || {
            calls.set(calls.get() + 1);
            Ok::<_, String>("old-gen".to_string())
        };
        let (v1, s1) = cache.get_or_compute(21, stamp, None, compute);
        assert_eq!(s1, Status::Miss);
        assert_eq!(*v1.expect("computed"), "old-gen");
        // A writer commits; the reader pinned at `stamp` keeps hitting its
        // own generation.
        clk.bump();
        let (v2, s2) = cache.get_or_compute(21, stamp, None, || {
            calls.set(calls.get() + 1);
            Ok::<_, String>("recomputed".to_string())
        });
        assert_eq!(s2, Status::Hit, "pinned reader validates against stamp");
        assert_eq!(*v2.expect("hit"), "old-gen");
        assert_eq!(calls.get(), 1);
        // A reader of the new version sees the entry as stale.
        let (_, s3) = get(&cache, &clk, 21, "fresh", &calls);
        assert_eq!(s3, Status::Stale);
        assert_eq!(calls.get(), 2);
        // The earlier version's reader recomputes, but never replaces the
        // later version's entry.
        let (v4, s4) =
            cache.get_or_compute(21, stamp, None, || Ok::<_, String>("old-again".to_string()));
        assert_eq!(s4, Status::Stale);
        assert_eq!(*v4.expect("computed"), "old-again");
        let (v5, s5) = get(&cache, &clk, 21, "unused", &calls);
        assert_eq!(s5, Status::Hit, "later version's entry survived");
        assert_eq!(*v5.expect("hit"), "fresh");
    }

    #[test]
    fn insert_sweeps_stale_shard_residents() {
        let (cache, clk) = test_cache(1 << 16);
        let calls = Cell::new(0);
        let _ = get(&cache, &clk, 1, "a", &calls);
        let _ = get(&cache, &clk, 2, "b", &calls);
        clk.bump();
        // Inserting key 3 sweeps the now-stale 1 and 2 from the shard.
        let _ = get(&cache, &clk, 3, "c", &calls);
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
    }

    fn grace_cache(grace: Option<Duration>) -> (Cache<String>, EpochClock) {
        let mut cfg = CacheConfig::new("grace_test", 1 << 16);
        cfg.shards = 1;
        cfg.stale_grace = grace;
        (Cache::new(cfg, |v: &String| v.len()), EpochClock::new())
    }

    #[test]
    fn without_grace_stale_entries_are_not_servable() {
        let (cache, clk) = grace_cache(None);
        let calls = Cell::new(0);
        let _ = get(&cache, &clk, 1, "v1", &calls);
        clk.bump();
        assert!(
            cache.get_stale(1, clk.now()).is_none(),
            "no grace window configured"
        );
    }

    #[test]
    fn grace_serves_stale_and_survives_failed_recompute() {
        let (cache, clk) = grace_cache(Some(Duration::from_secs(60)));
        let calls = Cell::new(0);
        let _ = get(&cache, &clk, 1, "v1", &calls);
        // Fresh entries are servable too (age ~0).
        let (v, age) = cache.get_stale(1, clk.now()).expect("fresh entry servable");
        assert_eq!(*v, "v1");
        assert!(age < Duration::from_secs(1));

        clk.bump();
        let (v, _) = cache
            .get_stale(1, clk.now())
            .expect("grace keeps the stale value");
        assert_eq!(*v, "v1");

        // A failing recompute stores nothing, so the stale value stays.
        let (r, s) = cache.get_or_compute(1, clk.now(), None, || {
            Err::<String, String>("backend down".into())
        });
        assert!(matches!(r, Err(CacheError::Compute(_))));
        assert_eq!(
            s,
            Status::Stale,
            "retained entry still marks recompute stale"
        );
        let (v, _) = cache
            .get_stale(1, clk.now())
            .expect("a failure must not evict the stale value");
        assert_eq!(*v, "v1");
        assert_eq!(cache.stats().stale_serves, 3);

        // A successful recompute replaces it with fresh data.
        let (_, s) = get(&cache, &clk, 1, "v2", &calls);
        assert_eq!(s, Status::Stale);
        let (v, _) = cache.get_stale(1, clk.now()).expect("fresh again");
        assert_eq!(*v, "v2");
    }

    #[test]
    fn expired_grace_drops_the_entry() {
        let (cache, clk) = grace_cache(Some(Duration::from_millis(20)));
        let calls = Cell::new(0);
        let _ = get(&cache, &clk, 1, "v1", &calls);
        clk.bump();
        std::thread::sleep(Duration::from_millis(40));
        assert!(
            cache.get_stale(1, clk.now()).is_none(),
            "grace window elapsed"
        );
        // And the lookup path evicts it like any stale entry.
        let (_, s) = get(&cache, &clk, 1, "v2", &calls);
        assert_eq!(s, Status::Stale);
        assert_eq!(cache.stats().stale_drops, 1);
    }

    #[test]
    fn a_failure_stores_nothing() {
        let (cache, clk) = test_cache(1 << 16);
        let calls = Cell::new(0);
        let compute = || {
            calls.set(calls.get() + 1);
            Err::<String, String>("backend exploded".into())
        };
        let (r1, s1) = cache.get_or_compute(11, clk.now(), None, compute);
        assert!(matches!(r1, Err(CacheError::Compute(_))));
        assert_eq!(s1, Status::Miss);
        let (r2, s2) = cache.get_or_compute(11, clk.now(), None, compute);
        assert!(
            matches!(r2, Err(CacheError::Compute(_))),
            "second call recomputed instead of replaying the failure"
        );
        assert_eq!(s2, Status::Miss);
        assert_eq!(calls.get(), 2);
        let st = cache.stats();
        assert_eq!((st.hits, st.misses, st.entries), (0, 2, 0));
    }
}
