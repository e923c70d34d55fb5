//! Per-backend circuit breakers: closed → open → closed.

use parking_lot::Mutex;
use sensormeta_obs as obs;
use std::time::{Duration, Instant};

/// Breaker tuning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerConfig {
    /// Consecutive failures that trip the breaker open.
    pub failure_threshold: u32,
    /// How long an open breaker rejects before letting one probe through,
    /// and how long each probe's lease lasts.
    pub open_for: Duration,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            failure_threshold: 5,
            open_for: Duration::from_secs(5),
        }
    }
}

/// Observable breaker state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Calls flow; consecutive failures are counted.
    Closed,
    /// Calls are rejected, but for one probe per cooldown.
    Open,
}

impl BreakerState {
    /// Stable lowercase label for logs and tests.
    pub fn as_str(&self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
        }
    }
}

#[derive(Debug)]
enum Inner {
    Closed { failures: u32 },
    Open { until: Instant },
}

/// A circuit breaker guarding one expensive backend path.
///
/// Callers ask [`allow`](Breaker::allow) before computing and report the
/// outcome with [`record_success`](Breaker::record_success) /
/// [`record_failure`](Breaker::record_failure). After
/// `failure_threshold` consecutive failures the breaker opens and rejects
/// for `open_for`. The first call after the cooldown runs as a probe and
/// leases the next cooldown: a success closes the circuit, a failure
/// restarts the cooldown, and a probe that reports neither (a client
/// error, a panic) blocks nobody past its lease — the next call after it
/// probes again.
#[derive(Debug)]
pub struct Breaker {
    name: &'static str,
    cfg: BreakerConfig,
    inner: Mutex<Inner>,
}

impl Breaker {
    /// Creates a closed breaker named for its backend (used in metrics:
    /// `resil_breaker_<name>_*`).
    pub fn new(name: &'static str, cfg: BreakerConfig) -> Breaker {
        let b = Breaker {
            name,
            cfg,
            inner: Mutex::new(Inner::Closed { failures: 0 }),
        };
        b.export_state(BreakerState::Closed);
        b
    }

    /// Whether a call may proceed. A rejected call should be answered from
    /// stale cache or shed with 503.
    pub fn allow(&self) -> bool {
        let mut inner = self.inner.lock();
        if let Inner::Open { until } = &mut *inner {
            let now = Instant::now();
            if now < *until {
                drop(inner);
                obs::counter(&format!("resil_breaker_{}_rejected_total", self.name)).inc();
                return false;
            }
            // This call is the probe; the next one waits out its lease.
            *until = now + self.cfg.open_for;
        }
        true
    }

    /// Reports a successful backend call.
    pub fn record_success(&self) {
        let mut inner = self.inner.lock();
        let was_open = matches!(*inner, Inner::Open { .. });
        *inner = Inner::Closed { failures: 0 };
        drop(inner);
        if was_open {
            self.export_state(BreakerState::Closed);
        }
    }

    /// Reports a failed backend call (backend errors and timeouts — not
    /// client errors).
    pub fn record_failure(&self) {
        let mut inner = self.inner.lock();
        let was_open = match &mut *inner {
            Inner::Closed { failures } => {
                *failures += 1;
                if *failures < self.cfg.failure_threshold {
                    return;
                }
                false
            }
            Inner::Open { .. } => true,
        };
        // Opening, or a failed probe: reject for a full cooldown.
        *inner = Inner::Open {
            until: Instant::now() + self.cfg.open_for,
        };
        drop(inner);
        if !was_open {
            obs::counter(&format!("resil_breaker_{}_opened_total", self.name)).inc();
            self.export_state(BreakerState::Open);
        }
    }

    /// Current state (an open breaker past its cooldown still reports
    /// `Open` until a probe's success closes it).
    pub fn state(&self) -> BreakerState {
        match &*self.inner.lock() {
            Inner::Closed { .. } => BreakerState::Closed,
            Inner::Open { .. } => BreakerState::Open,
        }
    }

    /// Sets the `resil_breaker_<name>_state` gauge: 0 closed, 2 open.
    fn export_state(&self, state: BreakerState) {
        let v = match state {
            BreakerState::Closed => 0.0,
            BreakerState::Open => 2.0,
        };
        obs::gauge(&format!("resil_breaker_{}_state", self.name)).set(v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const COOLDOWN: Duration = Duration::from_millis(30);

    fn cfg() -> BreakerConfig {
        BreakerConfig {
            failure_threshold: 3,
            open_for: COOLDOWN,
        }
    }

    fn past_cooldown() {
        std::thread::sleep(COOLDOWN + Duration::from_millis(10));
    }

    #[test]
    fn opens_after_threshold_and_recovers() {
        let b = Breaker::new("test_recover", cfg());
        assert_eq!(b.state(), BreakerState::Closed);
        for _ in 0..3 {
            assert!(b.allow());
            b.record_failure();
        }
        assert_eq!(b.state(), BreakerState::Open);
        assert!(!b.allow(), "open breaker rejects");
        past_cooldown();
        assert!(b.allow(), "cooldown elapsed: one probe admitted");
        assert_eq!(b.state(), BreakerState::Open);
        assert!(!b.allow(), "only one probe per cooldown");
        b.record_success();
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(b.allow());
    }

    #[test]
    fn failed_probe_reopens() {
        let b = Breaker::new("test_reopen", cfg());
        for _ in 0..3 {
            b.record_failure();
        }
        past_cooldown();
        assert!(b.allow());
        b.record_failure();
        assert_eq!(b.state(), BreakerState::Open);
        assert!(!b.allow(), "a failed probe restarts the cooldown");
        past_cooldown();
        assert!(b.allow(), "and the next cooldown admits a probe again");
    }

    #[test]
    fn probe_without_verdict_does_not_block_past_its_lease() {
        let b = Breaker::new("test_silent_probe", cfg());
        for _ in 0..3 {
            b.record_failure();
        }
        past_cooldown();
        // The probe ends with neither a success nor a failure (a client
        // error, a caught panic).
        assert!(b.allow());
        assert!(!b.allow(), "the lease holds for one cooldown");
        past_cooldown();
        assert!(b.allow(), "the next call after the lease probes again");
        b.record_success();
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn success_resets_consecutive_count() {
        let b = Breaker::new("test_reset", cfg());
        b.record_failure();
        b.record_failure();
        b.record_success();
        b.record_failure();
        b.record_failure();
        assert_eq!(b.state(), BreakerState::Closed, "streak was broken");
    }
}
