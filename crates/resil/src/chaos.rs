//! Deterministic compute-layer fault injection.
//!
//! PR 2 introduced `FaultVfs`: deterministic, countdown-scheduled I/O
//! faults for crash testing the storage layer. This module extends the
//! idea to the compute layer: every [`checkpoint`](crate::checkpoint) site
//! is also a *chaos site*, and an installed [`Fault`] plan decides — from
//! a per-site hit counter, never from wall-clock or randomness — which
//! hits observe injected latency, an injected backend error, or an
//! injected panic. Determinism keeps the chaos harness debuggable: a
//! failing run replays exactly.
//!
//! The plan is process-global (the serving path crosses crate boundaries)
//! and empty by default; `hit()` with an empty plan is a single relaxed
//! atomic load. Tests install programmatically via [`install`]; operators
//! can set `SENSORMETA_CHAOS` (see [`parse_spec`]) and arm it with
//! [`install_from_env`].

use crate::deadline::Interrupt;
use parking_lot::Mutex;
use sensormeta_obs as obs;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Duration;

/// What an injected fault does to the hit that triggers it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Sleep this long, then continue normally (slow backend).
    Latency(Duration),
    /// Fail the checkpoint with [`Interrupt::Fault`] (failing backend).
    Error,
    /// Panic at the checkpoint (crashing handler thread).
    Panic,
}

/// A deterministic fault schedule for one site: fires on every hit `n`
/// (0-based, per-site) where `n % every == offset`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fault {
    /// The effect when the schedule fires.
    pub kind: FaultKind,
    /// Period of the schedule; `1` fires on every hit. Must be ≥ 1.
    pub every: u64,
    /// Phase within the period; reduced modulo `every`.
    pub offset: u64,
}

impl Fault {
    /// A fault firing on every hit.
    pub fn always(kind: FaultKind) -> Fault {
        Fault {
            kind,
            every: 1,
            offset: 0,
        }
    }

    fn fires_on(&self, hit: u64) -> bool {
        let every = self.every.max(1);
        hit % every == self.offset % every
    }
}

#[derive(Default)]
struct Site {
    hits: u64,
    faults: Vec<Fault>,
}

/// Number of installed faults; `hit()`'s fast path checks it for zero.
static ACTIVE: AtomicUsize = AtomicUsize::new(0);

fn plan() -> &'static Mutex<HashMap<String, Site>> {
    static PLAN: OnceLock<Mutex<HashMap<String, Site>>> = OnceLock::new();
    PLAN.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Installs a fault at a named checkpoint site. Multiple faults on one
/// site are checked in installation order; the first whose schedule fires
/// wins.
pub fn install(site: &str, fault: Fault) {
    plan()
        .lock()
        .entry(site.to_owned())
        .or_default()
        .faults
        .push(fault);
    ACTIVE.fetch_add(1, Ordering::SeqCst);
}

/// Removes every installed fault and resets all per-site hit counters.
pub fn clear() {
    plan().lock().clear();
    ACTIVE.store(0, Ordering::SeqCst);
}

/// Number of currently installed faults (0 = chaos disarmed).
pub fn installed() -> usize {
    ACTIVE.load(Ordering::SeqCst)
}

/// Records one hit of `site` against the plan. Called by
/// [`checkpoint`](crate::checkpoint); not usually called directly.
pub fn hit(site: &'static str) -> Result<(), Interrupt> {
    if ACTIVE.load(Ordering::Relaxed) == 0 {
        return Ok(());
    }
    let fired = {
        let mut plan = plan().lock();
        match plan.get_mut(site) {
            None => None,
            Some(s) => {
                let n = s.hits;
                s.hits += 1;
                s.faults.iter().find(|f| f.fires_on(n)).map(|f| f.kind)
            }
        }
    };
    // Effects run outside the plan lock: a latency injection must not
    // serialize unrelated sites behind it.
    match fired {
        None => Ok(()),
        Some(FaultKind::Latency(d)) => {
            obs::counter("resil_chaos_latency_injected_total").inc();
            std::thread::sleep(d);
            Ok(())
        }
        Some(FaultKind::Error) => {
            obs::counter("resil_chaos_errors_injected_total").inc();
            Err(Interrupt::Fault { site })
        }
        #[expect(
            clippy::panic,
            reason = "the entire point of this fault kind is an unwinding panic"
        )]
        Some(FaultKind::Panic) => {
            obs::counter("resil_chaos_panics_injected_total").inc();
            panic!("chaos: injected panic at site `{site}`");
        }
    }
}

/// Parses a chaos spec string into `(site, fault)` pairs.
///
/// Grammar (comma-separated entries):
///
/// ```text
/// site=error            inject an error on every hit
/// site=panic@5          panic on hits 0, 5, 10, …
/// site=latency:250@3+1  sleep 250ms on hits 1, 4, 7, …
/// ```
pub fn parse_spec(spec: &str) -> Result<Vec<(String, Fault)>, String> {
    let mut out = Vec::new();
    for entry in spec.split(',').map(str::trim).filter(|e| !e.is_empty()) {
        let (site, rhs) = entry
            .split_once('=')
            .ok_or_else(|| format!("chaos entry `{entry}`: expected site=kind"))?;
        let (kind_str, sched) = match rhs.split_once('@') {
            Some((k, s)) => (k, Some(s)),
            None => (rhs, None),
        };
        let kind = match kind_str.split_once(':') {
            Some(("latency", ms)) => {
                let ms: u64 = ms
                    .parse()
                    .map_err(|_| format!("chaos entry `{entry}`: bad latency ms `{ms}`"))?;
                FaultKind::Latency(Duration::from_millis(ms))
            }
            None if kind_str == "error" => FaultKind::Error,
            None if kind_str == "panic" => FaultKind::Panic,
            _ => return Err(format!("chaos entry `{entry}`: unknown kind `{kind_str}`")),
        };
        let (every, offset) = match sched {
            None => (1, 0),
            Some(s) => {
                let (e, o) = match s.split_once('+') {
                    Some((e, o)) => (e, Some(o)),
                    None => (s, None),
                };
                let every: u64 = e
                    .parse()
                    .ok()
                    .filter(|&e| e >= 1)
                    .ok_or_else(|| format!("chaos entry `{entry}`: bad period `{e}`"))?;
                let offset: u64 = match o {
                    Some(o) => o
                        .parse()
                        .map_err(|_| format!("chaos entry `{entry}`: bad offset `{o}`"))?,
                    None => 0,
                };
                (every, offset)
            }
        };
        out.push((
            site.trim().to_owned(),
            Fault {
                kind,
                every,
                offset,
            },
        ));
    }
    Ok(out)
}

/// Arms the plan from the `SENSORMETA_CHAOS` environment variable, if set.
/// Returns the number of faults installed, or the parse error.
pub fn install_from_env() -> Result<usize, String> {
    match std::env::var("SENSORMETA_CHAOS") {
        Err(_) => Ok(0),
        Ok(spec) => {
            let faults = parse_spec(&spec)?;
            let n = faults.len();
            for (site, fault) in faults {
                install(&site, fault);
            }
            Ok(n)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Chaos state is process-global; exercise it from one test so parallel
    // test threads cannot clear each other's plans.
    #[test]
    fn schedules_parse_and_fire_deterministically() {
        let parsed =
            parse_spec("a=error, b=latency:250@3+1 ,c=panic@5").expect("valid spec parses");
        assert_eq!(
            parsed,
            vec![
                ("a".to_owned(), Fault::always(FaultKind::Error)),
                (
                    "b".to_owned(),
                    Fault {
                        kind: FaultKind::Latency(Duration::from_millis(250)),
                        every: 3,
                        offset: 1
                    }
                ),
                (
                    "c".to_owned(),
                    Fault {
                        kind: FaultKind::Panic,
                        every: 5,
                        offset: 0
                    }
                ),
            ]
        );
        assert!(parse_spec("nokind").is_err());
        assert!(parse_spec("a=explode").is_err());
        assert!(parse_spec("a=error@0").is_err());
        assert!(parse_spec("a=latency:xx").is_err());

        clear();
        assert_eq!(installed(), 0);
        assert_eq!(hit("chaos_test_site"), Ok(()), "empty plan never fires");

        install(
            "chaos_test_site",
            Fault {
                kind: FaultKind::Error,
                every: 3,
                offset: 1,
            },
        );
        assert_eq!(installed(), 1);
        let outcomes: Vec<bool> = (0..6).map(|_| hit("chaos_test_site").is_err()).collect();
        assert_eq!(outcomes, vec![false, true, false, false, true, false]);
        assert_eq!(
            hit("chaos_test_other_site"),
            Ok(()),
            "uninstalled sites unaffected"
        );
        clear();
        assert_eq!(hit("chaos_test_site"), Ok(()), "cleared plan never fires");
    }
}
