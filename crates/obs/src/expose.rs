//! Deterministic exposition: Prometheus text format and JSON.
//!
//! Output is sorted by metric name (counters, then gauges, then histograms)
//! and every number is formatted deterministically, so renders of identical
//! registries are byte-identical — `/metrics` is snapshot-testable.

use crate::metrics::{bucket_upper, Histogram};
use crate::registry::Registry;
use std::fmt::Write as _;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Formats an `f64` deterministically for both formats: integral values
/// print without a fractional part, non-finite values print as Prometheus
/// spells them (JSON rendering maps those to `null`).
#[expect(
    clippy::float_cmp,
    reason = "exact IEEE test: only a whole number prints without a fraction"
)]
fn fmt_f64(v: f64) -> String {
    if v.is_nan() {
        return "NaN".to_string();
    }
    if v.is_infinite() {
        return if v > 0.0 { "+Inf" } else { "-Inf" }.to_string();
    }
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

impl Registry {
    /// Renders every metric in the Prometheus text exposition format
    /// (version 0.0.4): counters and gauges as single samples, histograms
    /// as cumulative `_bucket{le="…"}` samples over the non-empty buckets
    /// plus `_sum` and `_count`.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        self.with_tables(|t| {
            for (name, cell) in &t.counters {
                let _ = writeln!(out, "# TYPE {name} counter");
                let _ = writeln!(out, "{name} {}", cell.load(Ordering::Relaxed));
            }
            for (name, cell) in &t.gauges {
                let _ = writeln!(out, "# TYPE {name} gauge");
                let _ = writeln!(
                    out,
                    "{name} {}",
                    fmt_f64(f64::from_bits(cell.load(Ordering::Relaxed)))
                );
            }
            for (name, core) in &t.hists {
                let h = Histogram {
                    enabled: Arc::new(std::sync::atomic::AtomicBool::new(true)),
                    core: Arc::clone(core),
                };
                let snap = h.snapshot();
                let _ = writeln!(out, "# TYPE {name} histogram");
                let mut cum = 0u64;
                for (upper, n) in &snap.buckets {
                    cum += n;
                    let _ = writeln!(out, "{name}_bucket{{le=\"{upper}\"}} {cum}");
                }
                let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", snap.count);
                let _ = writeln!(out, "{name}_sum {}", snap.sum);
                let _ = writeln!(out, "{name}_count {}", snap.count);
            }
        });
        out
    }

    /// Renders every metric as one JSON object:
    /// `{"counters":{…},"gauges":{…},"histograms":{name:{count,sum,max,p50,p90,p95,p99}}}`.
    /// Hand-rolled (metric names are already sanitized to `[a-z0-9_:]`, so
    /// no escaping is needed); non-finite gauges render as `null`.
    pub fn render_json(&self) -> String {
        let mut out = String::from("{");
        self.with_tables(|t| {
            out.push_str("\"counters\":{");
            for (i, (name, cell)) in t.counters.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "\"{name}\":{}", cell.load(Ordering::Relaxed));
            }
            out.push_str("},\"gauges\":{");
            for (i, (name, cell)) in t.gauges.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let v = f64::from_bits(cell.load(Ordering::Relaxed));
                if v.is_finite() {
                    let _ = write!(out, "\"{name}\":{}", fmt_f64(v));
                } else {
                    let _ = write!(out, "\"{name}\":null");
                }
            }
            out.push_str("},\"histograms\":{");
            for (i, (name, core)) in t.hists.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let h = Histogram {
                    enabled: Arc::new(std::sync::atomic::AtomicBool::new(true)),
                    core: Arc::clone(core),
                };
                let s = h.snapshot();
                let _ = write!(
                    out,
                    "\"{name}\":{{\"count\":{},\"sum\":{},\"max\":{},\
                     \"p50\":{},\"p90\":{},\"p95\":{},\"p99\":{}}}",
                    s.count, s.sum, s.max, s.p50, s.p90, s.p95, s.p99
                );
            }
            out.push('}');
        });
        out.push('}');
        out
    }
}

/// The `le` boundary label of histogram bucket `i` — exposed for tests that
/// validate exposition against the bucket layout.
pub fn bucket_boundary(i: usize) -> u64 {
    bucket_upper(i)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_registry() -> Registry {
        let reg = Registry::new();
        reg.counter("b_total").add(7);
        reg.counter("a_total").inc();
        reg.gauge("residual").set(0.25);
        let h = reg.histogram("lat_us");
        h.record(3);
        h.record(3);
        h.record(200);
        reg
    }

    #[test]
    fn prometheus_render_is_sorted_and_pinned() {
        let text = sample_registry().render_prometheus();
        let expected = "\
# TYPE a_total counter
a_total 1
# TYPE b_total counter
b_total 7
# TYPE residual gauge
residual 0.25
# TYPE lat_us histogram
lat_us_bucket{le=\"3\"} 2
lat_us_bucket{le=\"207\"} 3
lat_us_bucket{le=\"+Inf\"} 3
lat_us_sum 206
lat_us_count 3
";
        assert_eq!(text, expected);
    }

    #[test]
    fn render_is_deterministic_across_registries() {
        assert_eq!(
            sample_registry().render_prometheus(),
            sample_registry().render_prometheus()
        );
        assert_eq!(
            sample_registry().render_json(),
            sample_registry().render_json()
        );
    }

    #[test]
    fn json_render_pinned() {
        let json = sample_registry().render_json();
        assert_eq!(
            json,
            "{\"counters\":{\"a_total\":1,\"b_total\":7},\
             \"gauges\":{\"residual\":0.25},\
             \"histograms\":{\"lat_us\":{\"count\":3,\"sum\":206,\"max\":200,\
             \"p50\":3,\"p90\":200,\"p95\":200,\"p99\":200}}}"
        );
    }

    #[test]
    fn fmt_f64_forms() {
        assert_eq!(fmt_f64(3.0), "3");
        assert_eq!(fmt_f64(0.5), "0.5");
        assert_eq!(fmt_f64(f64::NAN), "NaN");
        assert_eq!(fmt_f64(f64::INFINITY), "+Inf");
    }

    /// A tiny Prometheus-text parser: validates that every line is either a
    /// `# TYPE` comment or `name[{le="…"}] value`, that bucket counts are
    /// cumulative, and that every histogram closes with `+Inf`, `_sum` and
    /// `_count`. The CI smoke test reuses this shape on a live scrape.
    pub(crate) fn parse_prometheus(text: &str) -> Result<usize, String> {
        let mut samples = 0usize;
        let mut last_bucket: Option<(String, u64)> = None;
        for (ln, line) in text.lines().enumerate() {
            let ln = ln + 1;
            if line.is_empty() {
                continue;
            }
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                let mut parts = rest.split_whitespace();
                let name = parts
                    .next()
                    .ok_or(format!("line {ln}: TYPE without name"))?;
                let kind = parts
                    .next()
                    .ok_or(format!("line {ln}: TYPE without kind"))?;
                if !matches!(kind, "counter" | "gauge" | "histogram") {
                    return Err(format!("line {ln}: unknown kind {kind}"));
                }
                if name.is_empty() {
                    return Err(format!("line {ln}: empty name"));
                }
                continue;
            }
            let (name_part, value) = line
                .rsplit_once(' ')
                .ok_or(format!("line {ln}: no value"))?;
            let value: f64 = value
                .parse()
                .or(Err(format!("line {ln}: bad value {value}")))?;
            if let Some((name, labels)) = name_part.split_once('{') {
                let le = labels
                    .strip_prefix("le=\"")
                    .and_then(|l| l.strip_suffix("\"}"))
                    .ok_or(format!("line {ln}: bad labels {labels}"))?;
                if le != "+Inf" {
                    le.parse::<u64>()
                        .or(Err(format!("line {ln}: bad le {le}")))?;
                }
                let cum = value as u64;
                if let Some((prev_name, prev_cum)) = &last_bucket {
                    if prev_name == name && cum < *prev_cum {
                        return Err(format!("line {ln}: bucket counts not cumulative"));
                    }
                }
                last_bucket = Some((name.to_string(), cum));
            } else {
                last_bucket = None;
                if name_part.is_empty() {
                    return Err(format!("line {ln}: empty metric name"));
                }
            }
            samples += 1;
        }
        Ok(samples)
    }

    #[test]
    fn tiny_parser_accepts_own_render() {
        let n =
            parse_prometheus(&sample_registry().render_prometheus()).expect("render must parse");
        // a_total, b_total, residual, 3 buckets + sum + count.
        assert_eq!(n, 8);
    }

    #[test]
    fn tiny_parser_rejects_garbage() {
        assert!(parse_prometheus("name_without_value\n").is_err());
        assert!(parse_prometheus("x{le=\"bogus\"} 1\n").is_err());
        assert!(parse_prometheus("# TYPE x summary\nx 1\n").is_err());
    }

    #[test]
    fn bucket_boundary_reexport() {
        assert_eq!(bucket_boundary(0), 0);
        assert!(bucket_boundary(100) > bucket_boundary(99));
    }
}
