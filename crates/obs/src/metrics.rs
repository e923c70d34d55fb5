//! Metric primitives: counters, gauges and log-linear histograms.
//!
//! All three are handles around atomically-updated cells shared with the
//! owning [`crate::Registry`]; cloning a handle is an `Arc` clone and
//! recording through one is lock-free. Every handle also carries the
//! registry's enable flag so a disabled registry short-circuits recording
//! with a single relaxed load (the no-op mode used by overhead benchmarks).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Monotonically increasing event counter.
#[derive(Debug, Clone)]
pub struct Counter {
    pub(crate) enabled: Arc<AtomicBool>,
    pub(crate) cell: Arc<AtomicU64>,
}

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        if self.enabled.load(Ordering::Relaxed) {
            self.cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// A gauge: a floating-point value that can move both ways (stored as f64
/// bits in an atomic, matching Prometheus's double-valued gauges).
#[derive(Debug, Clone)]
pub struct Gauge {
    pub(crate) enabled: Arc<AtomicBool>,
    pub(crate) cell: Arc<AtomicU64>,
}

impl Gauge {
    /// Sets the gauge.
    pub fn set(&self, value: f64) {
        if self.enabled.load(Ordering::Relaxed) {
            self.cell.store(value.to_bits(), Ordering::Relaxed);
        }
    }

    /// Adds `delta` (compare-and-swap loop; gauges are not contended in
    /// this codebase).
    pub fn add(&self, delta: f64) {
        if !self.enabled.load(Ordering::Relaxed) {
            return;
        }
        let mut current = self.cell.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(current) + delta).to_bits();
            match self.cell.compare_exchange_weak(
                current,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(actual) => current = actual,
            }
        }
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.cell.load(Ordering::Relaxed))
    }
}

/// Number of linear sub-buckets per power-of-two decade (and the count of
/// exact buckets for the smallest values). 8 sub-buckets bound the relative
/// quantile error at 1/8 = 12.5%.
pub(crate) const SUB: u64 = 8;
const SUB_BITS: u32 = 3; // log2(SUB)

/// Total bucket count covering the whole u64 range: `SUB` exact buckets for
/// values `< SUB`, then `SUB` linear buckets for each of the 61 remaining
/// decades.
pub(crate) const NBUCKETS: usize = (SUB as usize) * 62;

/// Maps a value to its bucket index. Values below `SUB` get exact buckets;
/// larger values share a bucket with at most 12.5% relative width.
pub(crate) fn bucket_index(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let msb = 63 - u64::from(v.leading_zeros());
    let shift = msb as u32 - SUB_BITS;
    let sub = (v >> shift) - SUB;
    ((u64::from(shift) + 1) * SUB + sub) as usize
}

/// Inclusive upper bound of bucket `i` — the value reported for any
/// quantile that lands in the bucket, and the `le` label in exposition.
pub(crate) fn bucket_upper(i: usize) -> u64 {
    let i = i as u64;
    if i < SUB {
        return i;
    }
    let shift = (i / SUB - 1) as u32;
    let sub = i % SUB;
    ((SUB + sub) << shift) + ((1u64 << shift) - 1)
}

/// Shared histogram storage.
#[derive(Debug)]
pub(crate) struct HistCore {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl HistCore {
    pub(crate) fn new() -> HistCore {
        HistCore {
            buckets: (0..NBUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

/// A log-linear-bucket histogram of unsigned integer observations
/// (microseconds for durations, plain counts for iteration-style metrics).
#[derive(Debug, Clone)]
pub struct Histogram {
    pub(crate) enabled: Arc<AtomicBool>,
    pub(crate) core: Arc<HistCore>,
}

impl Histogram {
    /// Records one observation.
    pub fn record(&self, value: u64) {
        if !self.enabled.load(Ordering::Relaxed) {
            return;
        }
        let c = &self.core;
        c.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        c.count.fetch_add(1, Ordering::Relaxed);
        c.sum.fetch_add(value, Ordering::Relaxed);
        c.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Records a duration in whole microseconds.
    pub fn record_duration(&self, d: Duration) {
        self.record(d.as_micros().min(u128::from(u64::MAX)) as u64);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.core.count.load(Ordering::Relaxed)
    }

    /// Sum of observed values.
    pub fn sum(&self) -> u64 {
        self.core.sum.load(Ordering::Relaxed)
    }

    /// Largest observed value (0 when empty).
    pub fn max(&self) -> u64 {
        self.core.max.load(Ordering::Relaxed)
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) as the inclusive upper bound of the
    /// first bucket whose cumulative count reaches `ceil(q·count)`, clamped
    /// to the largest recorded value (a bucket bound above it was never
    /// observed). Deterministic; exact for values below 8, within 12.5%
    /// above. Returns 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
        let mut cum = 0u64;
        for (i, b) in self.core.buckets.iter().enumerate() {
            cum += b.load(Ordering::Relaxed);
            if cum >= rank {
                return bucket_upper(i).min(self.max());
            }
        }
        self.max()
    }

    /// Consistent point-in-time summary used by exposition and benchmarks.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets: Vec<(u64, u64)> = self
            .core
            .buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let n = b.load(Ordering::Relaxed);
                (n > 0).then_some((bucket_upper(i), n))
            })
            .collect();
        HistogramSnapshot {
            count: self.count(),
            sum: self.sum(),
            max: self.max(),
            p50: self.quantile(0.50),
            p90: self.quantile(0.90),
            p95: self.quantile(0.95),
            p99: self.quantile(0.99),
            buckets,
        }
    }
}

/// A summarized view of a histogram: totals, tail quantiles, and the
/// non-empty buckets as `(upper_bound, count)` pairs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Number of observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: u64,
    /// Largest observation.
    pub max: u64,
    /// Median.
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 95th percentile.
    pub p95: u64,
    /// 99th percentile.
    pub p99: u64,
    /// Non-empty buckets, ascending by upper bound.
    pub buckets: Vec<(u64, u64)>,
}

#[cfg(test)]
#[allow(
    clippy::float_cmp,
    reason = "the tests compare bit-identical floats on purpose"
)]
mod tests {
    use super::*;
    use crate::Registry;

    #[test]
    fn bucket_index_exact_below_sub() {
        for v in 0..SUB {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_upper(v as usize), v);
        }
    }

    #[test]
    fn bucket_bounds_are_monotonic_and_cover() {
        let mut prev_upper = None;
        for i in 0..NBUCKETS {
            let upper = bucket_upper(i);
            if let Some(p) = prev_upper {
                assert!(upper > p, "bucket {i} upper {upper} <= prev {p}");
            }
            prev_upper = Some(upper);
        }
        // Every value maps into a bucket whose bounds contain it.
        for v in [
            0,
            1,
            7,
            8,
            15,
            16,
            100,
            1_000,
            123_456,
            u64::MAX / 2,
            u64::MAX,
        ] {
            let i = bucket_index(v);
            assert!(i < NBUCKETS);
            assert!(bucket_upper(i) >= v, "v={v} i={i}");
            if i > 0 {
                assert!(bucket_upper(i - 1) < v, "v={v} i={i}");
            }
        }
    }

    #[test]
    fn bucket_relative_error_bounded() {
        for v in [9u64, 100, 999, 10_000, 1 << 20, (1 << 40) + 12345] {
            let upper = bucket_upper(bucket_index(v));
            let err = (upper - v) as f64 / v as f64;
            assert!(err <= 0.125, "v={v} upper={upper} err={err}");
        }
    }

    /// Pins the quantile math on recorded known values: 1..=100 recorded
    /// once each. The expected outputs are the log-linear bucket upper
    /// bounds, worked out by hand from the SUB=8 layout.
    #[test]
    fn quantiles_of_known_values_are_pinned() {
        let reg = Registry::new();
        let h = reg.histogram("pin");
        for v in 1..=100u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.sum(), 5050);
        assert_eq!(h.max(), 100);
        // rank 50 lands in bucket [48,51] -> 51
        assert_eq!(h.quantile(0.50), 51);
        // rank 90 lands in bucket [88,95] -> 95
        assert_eq!(h.quantile(0.90), 95);
        // rank 95 lands in bucket [88,95] -> 95
        assert_eq!(h.quantile(0.95), 95);
        // rank 99 lands in bucket [96,103], whose bound exceeds every
        // recorded value -> clamped to max
        assert_eq!(h.quantile(0.99), 100);
        // extremes
        assert_eq!(h.quantile(0.0), 1, "rank clamps to 1 -> exact value 1");
        assert_eq!(h.quantile(1.0), 100, "last bucket clamps to max");
        // Values straddling a bucket edge (95 | 96): no quantile may exceed
        // the largest value recorded.
        let h = reg.histogram("edge");
        for v in [94u64, 95, 96, 97] {
            h.record(v);
        }
        for q in [0.0, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
            assert!(h.quantile(q) <= h.max(), "q={q}: {}", h.quantile(q));
        }
        assert_eq!(h.quantile(0.5), 95, "a full bucket keeps its bound");
        assert_eq!(h.quantile(1.0), 97);
    }

    #[test]
    fn quantile_exact_for_small_values() {
        let reg = Registry::new();
        let h = reg.histogram("small");
        for v in [0u64, 1, 2, 3, 4, 5, 6, 7] {
            h.record(v);
        }
        assert_eq!(h.quantile(0.5), 3);
        assert_eq!(h.quantile(1.0), 7);
    }

    #[test]
    fn empty_histogram_quantile_is_zero() {
        let reg = Registry::new();
        let h = reg.histogram("empty");
        assert_eq!(h.quantile(0.99), 0);
        assert_eq!(h.snapshot().count, 0);
    }

    #[test]
    fn counter_and_gauge_roundtrip() {
        let reg = Registry::new();
        let c = reg.counter("c");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = reg.gauge("g");
        g.set(1.5);
        g.add(-0.5);
        assert!((g.get() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn disabled_registry_records_nothing() {
        let reg = Registry::new();
        reg.set_enabled(false);
        let c = reg.counter("c");
        let h = reg.histogram("h");
        let g = reg.gauge("g");
        c.inc();
        h.record(9);
        g.set(3.0);
        assert_eq!(c.get(), 0);
        assert_eq!(h.count(), 0);
        assert_eq!(g.get(), 0.0);
        reg.set_enabled(true);
        c.inc();
        assert_eq!(c.get(), 1);
    }

    #[test]
    fn snapshot_lists_nonempty_buckets() {
        let reg = Registry::new();
        let h = reg.histogram("h");
        h.record(3);
        h.record(3);
        h.record(100);
        let s = h.snapshot();
        assert_eq!(s.buckets, vec![(3, 2), (103, 1)]);
        assert_eq!(s.count, 3);
        assert_eq!(s.max, 100);
    }
}
