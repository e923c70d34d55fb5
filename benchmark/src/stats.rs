//! Order statistics over latency samples kept in nanoseconds.

/// Exact order statistic by the nearest-rank rule: the smallest sample with
/// at least `q` of the samples at or below it. Never exceeds the maximum and
/// never interpolates, so a reported percentile is a latency that occurred.
pub fn percentile(sorted: &[u64], q: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// [`percentile`] of unsorted nanosecond samples, in milliseconds.
pub fn percentile_ms(samples: &[u64], q: f64) -> Option<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    percentile(&sorted, q).map(|ns| ns as f64 / 1e6)
}

/// Mean of nanosecond samples in microseconds (0 for no samples). Means, not
/// medians, are used for traced layer times because they add up: the
/// children of a span can be compared with their parent.
pub fn mean_us(samples: &[u64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().sum::<u64>() as f64 / samples.len() as f64 / 1e3
}

/// Median of float values (mean of the two middle values for even counts).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Mean of the values left after dropping the lowest and the highest quarter
/// (rounded down): of six values, the middle four. Server processes here
/// come in a fast and a slow kind (where the scheduler happened to place
/// their threads), a fifth apart; the median of six jumps between the two
/// kinds from run to run, the mean of the middle four moves by the share of
/// each, and one outlier on either side still does not count.
pub fn trimmed_mean(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let kept = &v[v.len() / 4..v.len() - v.len() / 4];
    if kept.is_empty() {
        return 0.0;
    }
    kept.iter().sum::<f64>() / kept.len() as f64
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)` gives
/// them (the exclusive method), which is what the acceptance rule uses.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len();
    if m < 2 {
        return None;
    }
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Distance between the quartiles as a share of the median.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let med = median(values);
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_samples_and_ordered() {
        let mut samples: Vec<u64> = (1..=1000).map(|i| i * 137 % 9973 + 250).collect();
        samples.sort_unstable();
        let p50 = percentile(&samples, 0.50).unwrap();
        let p95 = percentile(&samples, 0.95).unwrap();
        let p99 = percentile(&samples, 0.99).unwrap();
        let max = *samples.last().unwrap();
        for p in [p50, p95, p99] {
            assert!(samples.binary_search(&p).is_ok(), "{p} is not a sample");
        }
        assert!(p50 <= p95 && p95 <= p99 && p99 <= max);
        assert_eq!(p50, samples[499]);
        assert_eq!(p99, samples[989]);
        assert_eq!(percentile(&samples, 1.0), Some(max));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn sub_microsecond_medians_are_not_zero() {
        // 640 ns latencies: a microsecond-resolution recorder reports p50 = 0.
        let samples = vec![640u64; 101];
        let p50 = percentile_ms(&samples, 0.5).unwrap();
        assert!(p50 > 0.0 && (p50 - 0.00064).abs() < 1e-12);
    }

    #[test]
    fn trimmed_mean_drops_one_of_six_on_each_side() {
        assert_eq!(trimmed_mean(&[1000.0, 4.0, 2.0, 3.0, 5.0, -50.0]), 3.5);
        assert_eq!(trimmed_mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(trimmed_mean(&[7.0]), 7.0);
        assert_eq!(trimmed_mean(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        assert_eq!(median(&v), 5.5);
        assert_eq!(spread(&v), Some(1.0));
    }
}
