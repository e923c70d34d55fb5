//! Absolute per-request deadlines with an ambient thread-local scope.

use std::cell::Cell;
use std::fmt;
use std::time::{Duration, Instant};

/// An absolute point in time by which a request's compute must finish.
///
/// `Deadline::NONE` means "unbounded". The type is `Copy` and compares by
/// instant, so `min` composes nested budgets correctly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Deadline(Option<Instant>);

impl Deadline {
    /// The unbounded deadline: never expires.
    pub const NONE: Deadline = Deadline(None);

    /// A deadline `budget` from now.
    pub fn within(budget: Duration) -> Deadline {
        Deadline(Instant::now().checked_add(budget))
    }

    /// A deadline at an absolute instant.
    pub fn at(when: Instant) -> Deadline {
        Deadline(Some(when))
    }

    /// An optional budget from now: `None` means unbounded.
    pub fn from_budget(budget: Option<Duration>) -> Deadline {
        match budget {
            Some(b) => Deadline::within(b),
            None => Deadline::NONE,
        }
    }

    /// True when the deadline has passed.
    pub fn expired(&self) -> bool {
        matches!(self.0, Some(t) if Instant::now() >= t)
    }

    /// Time left before expiry. `None` when unbounded; `Some(ZERO)` when
    /// already expired.
    pub fn remaining(&self) -> Option<Duration> {
        self.0.map(|t| t.saturating_duration_since(Instant::now()))
    }

    /// The tighter of two deadlines (unbounded loses to any bound).
    pub fn min(self, other: Deadline) -> Deadline {
        match (self.0, other.0) {
            (Some(a), Some(b)) => Deadline(Some(a.min(b))),
            (Some(a), None) => Deadline(Some(a)),
            (None, b) => Deadline(b),
        }
    }

    /// The instant of expiry, `None` when unbounded. Reads no clock.
    pub fn instant(&self) -> Option<Instant> {
        self.0
    }

    /// True when no bound is set.
    pub fn is_none(&self) -> bool {
        self.0.is_none()
    }
}

/// Why a cooperative [`checkpoint`](crate::checkpoint) aborted the work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Interrupt {
    /// The ambient [`Deadline`] passed; the caller should stop burning CPU
    /// and unwind with a timeout-class error.
    DeadlineExceeded,
    /// The [`chaos`](crate::chaos) plan injected a backend error at this
    /// site (deterministic fault injection for the chaos harness).
    Fault {
        /// The checkpoint site that faulted.
        site: &'static str,
    },
}

impl fmt::Display for Interrupt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Interrupt::DeadlineExceeded => write!(f, "deadline exceeded"),
            Interrupt::Fault { site } => write!(f, "injected fault at {site}"),
        }
    }
}

impl std::error::Error for Interrupt {}

thread_local! {
    static CURRENT: Cell<Deadline> = const { Cell::new(Deadline::NONE) };
}

/// The ambient deadline for the current thread (set by [`deadline_scope`]).
pub fn current_deadline() -> Deadline {
    CURRENT.with(Cell::get)
}

/// RAII guard restoring the previous ambient deadline on drop.
#[derive(Debug)]
pub struct DeadlineScope {
    prev: Deadline,
}

impl Drop for DeadlineScope {
    fn drop(&mut self) {
        CURRENT.with(|c| c.set(self.prev));
    }
}

/// Enters a deadline scope on the current thread. Nested scopes tighten:
/// the effective deadline is the `min` of `deadline` and the enclosing
/// scope, so callees can never extend a caller's budget.
pub fn deadline_scope(deadline: Deadline) -> DeadlineScope {
    CURRENT.with(|c| {
        let prev = c.get();
        c.set(prev.min(deadline));
        DeadlineScope { prev }
    })
}

/// Clears the ambient deadline for the duration of the returned guard.
///
/// Write paths use this: a rebuild interrupted halfway would leave derived
/// structures (index, ranks, recommender) inconsistent with the stores, so
/// mutations run to completion regardless of the request budget.
pub fn shield() -> DeadlineScope {
    CURRENT.with(|c| {
        let prev = c.get();
        c.set(Deadline::NONE);
        DeadlineScope { prev }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_never_expires() {
        assert!(!Deadline::NONE.expired());
        assert_eq!(Deadline::NONE.remaining(), None);
        assert!(Deadline::NONE.is_none());
    }

    #[test]
    fn within_expires() {
        let d = Deadline::within(Duration::ZERO);
        std::thread::sleep(Duration::from_millis(2));
        assert!(d.expired());
        assert_eq!(d.remaining(), Some(Duration::ZERO));
    }

    #[test]
    fn min_prefers_bound() {
        let far = Deadline::within(Duration::from_secs(60));
        assert_eq!(Deadline::NONE.min(far), far);
        assert_eq!(far.min(Deadline::NONE), far);
        let near = Deadline::within(Duration::from_millis(1));
        assert_eq!(far.min(near), near);
    }

    #[test]
    fn scopes_nest_and_restore() {
        assert!(current_deadline().is_none());
        let outer = Deadline::within(Duration::from_secs(60));
        {
            let _a = deadline_scope(outer);
            assert_eq!(current_deadline(), outer);
            {
                // An inner scope cannot extend the budget.
                let _b = deadline_scope(Deadline::within(Duration::from_secs(600)));
                assert_eq!(current_deadline(), outer);
            }
            {
                let near = Deadline::within(Duration::from_millis(1));
                let _c = deadline_scope(near);
                assert_eq!(current_deadline(), near);
            }
            assert_eq!(current_deadline(), outer);
        }
        assert!(current_deadline().is_none());
    }
}
