//! Single-flight stampede protection under real threads: concurrent
//! lookups of one hot key through the `par` pool must coalesce onto
//! exactly one computation, a bounded wait must give up with
//! `WaitTimeout` instead of blocking a worker behind a slow leader, and a
//! failed leader must answer none of its waiters.

use sensormeta::cache::{Cache, CacheConfig, CacheError, Status};
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
        let (result, _status) = cache.get_or_compute(42, AT, None, || {
            computes.fetch_add(1, Ordering::SeqCst);
            // Hold the flight until every task has at least entered the
            // lookup, then a little longer so they reach the wait.
            await_or_give_up(|| arrived.load(Ordering::SeqCst) == TASKS);
            std::thread::sleep(Duration::from_millis(25));
            Ok::<u64, Infallible>(777)
        });
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
            let (result, _status) = cache.get_or_compute(7, AT, None, || {
                leading.store(true, Ordering::SeqCst);
                std::thread::sleep(Duration::from_millis(250));
                Ok::<u64, Infallible>(1)
            });
            assert_eq!(*result.expect("leader compute failed"), 1);
        } else {
            await_or_give_up(|| leading.load(Ordering::SeqCst));
            let (result, _status) = cache.get_or_compute(
                7,
                AT,
                Some(Instant::now() + Duration::from_millis(10)),
                || Ok::<u64, Infallible>(2),
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

#[test]
fn failed_leader_answers_no_waiter() {
    let cache = hot_cache("sf_fail");
    let computes = AtomicUsize::new(0);
    let arrived = AtomicUsize::new(0);
    let outcomes = Mutex::new(Vec::new());
    let pool = Pool::new(TASKS);
    pool.run(TASKS, |_| {
        arrived.fetch_add(1, Ordering::SeqCst);
        let (result, status) = cache.get_or_compute(9, AT, None, || {
            // The first leader holds its flight until every task has
            // entered the lookup, so the others park on it; every compute
            // fails.
            if computes.fetch_add(1, Ordering::SeqCst) == 0 {
                await_or_give_up(|| arrived.load(Ordering::SeqCst) == TASKS);
                std::thread::sleep(Duration::from_millis(25));
            }
            Err::<u64, &str>("backend down")
        });
        let failed = matches!(result, Err(CacheError::Compute("backend down")));
        outcomes.lock().unwrap().push((failed, status));
    });
    // A failed flight publishes nothing: each waiter retried and computed
    // under its own budget, so every caller saw its own failure.
    assert_eq!(computes.load(Ordering::SeqCst), TASKS);
    let outcomes = outcomes.into_inner().unwrap();
    assert_eq!(outcomes.len(), TASKS);
    for (failed, status) in &outcomes {
        assert!(failed, "every caller reports its own compute failure");
        assert_eq!(*status, Status::Miss, "no waiter reports a hit");
    }
    let stats = cache.stats();
    assert!(
        stats.singleflight_waits >= 1,
        "followers should have parked on the failing leader: {stats:?}"
    );
    assert_eq!(
        (stats.hits, stats.misses, stats.entries),
        (0, TASKS as u64, 0)
    );
    // Nothing was stored: the next lookup computes again.
    let (result, status) = cache.get_or_compute(9, AT, None, || Ok::<u64, &str>(5));
    assert_eq!((*result.expect("recomputed"), status), (5, Status::Miss));
}
