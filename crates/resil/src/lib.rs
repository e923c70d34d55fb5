//! # sensormeta-resil
//!
//! Resilience primitives threaded through the whole serving path:
//!
//! - [`Deadline`] — an absolute per-request compute budget, carried as an
//!   **ambient** thread-local so deep call stacks (postings scans, solver
//!   iterations, clique enumeration) can observe it without every signature
//!   growing a parameter. Scopes nest and always tighten: an inner
//!   [`deadline_scope`] can only shorten the budget, never extend it, and
//!   [`shield`] clears it for write paths whose partial execution would
//!   corrupt derived state.
//! - [`checkpoint`] — the cooperative cancellation point long loops call
//!   every N iterations. It observes the ambient deadline **and** the
//!   deterministic [`chaos`] fault plan, so the same call sites double as
//!   fault-injection sites for the chaos harness.
//! - [`chaos`] — named-site fault injection (latency, errors, panics) with
//!   deterministic per-site hit counters, extending the PR 2 `FaultVfs`
//!   idea from the storage layer to the compute layer.
//! - [`Breaker`] — a per-backend closed/open circuit breaker so a
//!   persistently failing compute path stops burning CPU and the server
//!   can degrade to stale cached answers. Concurrency itself is bounded by
//!   the server's worker pool, not here.
//!
//! Everything here is zero-external-dependency and obs-instrumented; the
//! hot path of [`checkpoint`] with no deadline and no chaos plan installed
//! is one thread-local read plus one relaxed atomic load.

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

mod breaker;
pub mod chaos;
mod deadline;

pub use breaker::{Breaker, BreakerConfig, BreakerState};
pub use deadline::{current_deadline, deadline_scope, shield, Deadline, DeadlineScope, Interrupt};

use sensormeta_obs as obs;

/// Cooperative cancellation + fault-injection point.
///
/// Long compute loops call this every N iterations with a stable `site`
/// name. It fails with [`Interrupt::DeadlineExceeded`] once the ambient
/// [`Deadline`] has passed, and with [`Interrupt::Fault`] (or injected
/// latency / an injected panic) when the [`chaos`] plan says this hit of
/// this site should fault. With no deadline set and no chaos installed it
/// is cheap enough for inner loops.
pub fn checkpoint(site: &'static str) -> Result<(), Interrupt> {
    chaos::hit(site)?;
    if current_deadline().expired() {
        obs::counter("resil_deadline_trips_total").inc();
        return Err(Interrupt::DeadlineExceeded);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn checkpoint_ok_without_deadline_or_chaos() {
        assert_eq!(checkpoint("resil_test_site_idle"), Ok(()));
    }

    #[test]
    fn checkpoint_trips_expired_deadline() {
        let _scope = deadline_scope(Deadline::within(Duration::ZERO));
        std::thread::sleep(Duration::from_millis(2));
        assert_eq!(
            checkpoint("resil_test_site_deadline"),
            Err(Interrupt::DeadlineExceeded)
        );
    }

    #[test]
    fn shield_suppresses_deadline() {
        let _outer = deadline_scope(Deadline::within(Duration::ZERO));
        std::thread::sleep(Duration::from_millis(2));
        let _shield = shield();
        assert_eq!(checkpoint("resil_test_site_shield"), Ok(()));
    }
}
