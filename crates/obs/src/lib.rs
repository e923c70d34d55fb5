//! # sensormeta-obs
//!
//! Zero-external-dependency observability for the sensormeta stack: a
//! [`Registry`] of named counters, gauges and log-linear-bucket histograms,
//! lightweight [`Span`]s that record durations on drop (with a thread-local
//! parent stack separating exclusive from inclusive time), and deterministic
//! Prometheus-text-format and JSON exposition.
//!
//! Design rules:
//!
//! - **Atomics only on the hot path.** Incrementing a [`Counter`], moving a
//!   [`Gauge`] or recording into a [`Histogram`] is a handful of relaxed
//!   atomic operations — no locks, no allocation. Locks (`parking_lot`) are
//!   taken only to register or look up a metric by name; hot call sites can
//!   cache the returned handle.
//! - **One process-wide default registry.** Library crates record into
//!   [`global()`] with one-line call sites; tests construct their own
//!   [`Registry::new()`] for isolation, and [`Registry::set_enabled`] turns
//!   a registry into a no-op for overhead measurements.
//! - **Deterministic exposition.** Metric names are sanitized to
//!   `[a-z0-9_:]`, output is sorted by name, and histogram buckets have
//!   fixed integer boundaries, so `/metrics` output is snapshot-testable.
//!
//! ```
//! use sensormeta_obs::Registry;
//!
//! let reg = Registry::new();
//! reg.counter("requests_total").inc();
//! reg.histogram("latency_us").record(250);
//! {
//!     let _outer = reg.span("outer");
//!     let _inner = reg.span("inner"); // exclusive time subtracts this
//! }
//! let text = reg.render_prometheus();
//! assert!(text.contains("requests_total 1"));
//! ```

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

mod expose;
mod metrics;
mod registry;
mod span;

pub use expose::bucket_boundary;
pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot};
pub use registry::Registry;
pub use span::Span;

use std::sync::OnceLock;

static GLOBAL: OnceLock<Registry> = OnceLock::new();

/// The process-wide default registry. Instrumented library code records
/// here; the server exposes it at `/metrics` and the CLI dumps it via
/// `sensormeta stats`.
pub fn global() -> &'static Registry {
    GLOBAL.get_or_init(Registry::new)
}

/// Counter handle from the [`global()`] registry.
pub fn counter(name: &str) -> Counter {
    global().counter(name)
}

/// Gauge handle from the [`global()`] registry.
pub fn gauge(name: &str) -> Gauge {
    global().gauge(name)
}

/// Histogram handle from the [`global()`] registry.
pub fn histogram(name: &str) -> Histogram {
    global().histogram(name)
}

/// Enters a [`Span`] on the [`global()`] registry. The returned guard
/// records `<name>_us` (inclusive) and `<name>_excl_us` (exclusive)
/// histograms when dropped.
pub fn span(name: &'static str) -> Span {
    global().span(name)
}

/// Sanitizes a metric name: ASCII-lowercased, any character outside
/// `[a-z0-9_:]` becomes `_`. Applied on every registration so call sites
/// may pass human-oriented names (e.g. solver display names).
pub fn sanitize_name(name: &str) -> String {
    name.chars()
        .map(|c| match c {
            'a'..='z' | '0'..='9' | '_' | ':' => c,
            'A'..='Z' => c.to_ascii_lowercase(),
            _ => '_',
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sanitize_lowercases_and_replaces() {
        assert_eq!(sanitize_name("Gauss-Seidel"), "gauss_seidel");
        assert_eq!(sanitize_name("http_2xx"), "http_2xx");
        assert_eq!(sanitize_name("a b/c"), "a_b_c");
    }

    #[test]
    fn global_is_shared() {
        counter("obs_selftest_total").add(2);
        assert!(global().render_prometheus().contains("obs_selftest_total"));
    }
}
