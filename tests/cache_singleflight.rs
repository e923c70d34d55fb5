//! Single-flight stampede protection under real threads: concurrent
//! lookups of one hot key through the `par` pool must coalesce onto
//! exactly one computation, and a bounded wait must give up with
//! `WaitTimeout` instead of blocking a worker behind a slow leader.

use sensormeta::cache::{Cache, CacheConfig, CacheError};
use sensormeta::par::Pool;
use std::convert::Infallible;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

const TASKS: usize = 4;

fn hot_cache(name: &'static str) -> Cache<u64> {
    Cache::new(CacheConfig::new(name, 1 << 16), |_| 8)
}

/// The one version every lookup here reads.
const AT: u64 = 0;

/// Spins until `cond` holds, bounded so a lost thread fails the test
/// instead of hanging it.
fn await_or_give_up(cond: impl Fn() -> bool) {
    let t0 = Instant::now();
    while !cond() && t0.elapsed() < Duration::from_secs(5) {
        std::thread::yield_now();
    }
}

#[test]
fn one_hot_key_computes_exactly_once_across_threads() {
    let cache = hot_cache("sf_hot");
    let computes = AtomicUsize::new(0);
    let arrived = AtomicUsize::new(0);
    let results = Mutex::new(Vec::new());
    // Exactly as many tasks as pool threads: a single-flight waiter blocks
    // its worker, so more tasks than threads could starve the leader.
    let pool = Pool::new(TASKS);
    pool.run(TASKS, |_| {
        arrived.fetch_add(1, Ordering::SeqCst);
        let (result, _status) = cache.get_or_compute(
            42,
            AT,
            None,
            || {
                computes.fetch_add(1, Ordering::SeqCst);
                // Hold the flight until every task has at least entered the
                // lookup, then a little longer so they reach the wait.
                await_or_give_up(|| arrived.load(Ordering::SeqCst) == TASKS);
                std::thread::sleep(Duration::from_millis(25));
                Ok::<u64, Infallible>(777)
            },
            |_| true,
        );
        let value = *result.expect("single-flight lookup failed");
        results.lock().unwrap().push(value);
    });
    assert_eq!(
        computes.load(Ordering::SeqCst),
        1,
        "the hot key must compute exactly once"
    );
    let results = results.into_inner().unwrap();
    assert_eq!(results, vec![777; TASKS]);
    let stats = cache.stats();
    assert_eq!(stats.misses, 1);
    assert!(
        stats.singleflight_waits >= 1,
        "followers should have waited on the leader: {stats:?}"
    );
    // A follower first counts a wait, then resolves the published result as
    // a hit — so hits covers everyone who didn't lead.
    assert_eq!(stats.hits, (TASKS - 1) as u64, "{stats:?}");
}

#[test]
fn bounded_wait_times_out_instead_of_blocking() {
    let cache = hot_cache("sf_slow");
    let leading = AtomicBool::new(false);
    let timed_out = AtomicBool::new(false);
    let pool = Pool::new(TASKS);
    pool.run(2, |i| {
        if i == 0 {
            let (result, _status) = cache.get_or_compute(
                7,
                AT,
                None,
                || {
                    leading.store(true, Ordering::SeqCst);
                    std::thread::sleep(Duration::from_millis(250));
                    Ok::<u64, Infallible>(1)
                },
                |_| true,
            );
            assert_eq!(*result.expect("leader compute failed"), 1);
        } else {
            await_or_give_up(|| leading.load(Ordering::SeqCst));
            let (result, _status) = cache.get_or_compute(
                7,
                AT,
                Some(Duration::from_millis(10)),
                || Ok::<u64, Infallible>(2),
                |_| true,
            );
            match result {
                Err(CacheError::WaitTimeout) => timed_out.store(true, Ordering::SeqCst),
                other => panic!("expected WaitTimeout, got {:?}", other.map(|v| *v)),
            }
        }
    });
    assert!(timed_out.load(Ordering::SeqCst));
    // The impatient caller never computed: one compute, zero poisonings.
    assert_eq!(cache.stats().misses, 1);
}
