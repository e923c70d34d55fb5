//! # sensormeta-par
//!
//! A zero-dependency, scoped, work-chunked thread pool for the sensormeta
//! stack's embarrassingly parallel hot paths (PageRank matvecs and
//! reductions, tag-similarity pair fills, per-document tokenization).
//!
//! ## Determinism contract
//!
//! Every primitive in this crate produces output **bit-for-bit identical**
//! to a serial run, at any thread count:
//!
//! - Work is split into chunks whose boundaries depend only on the input
//!   length and a fixed per-call-site chunk size — never on the thread
//!   count. Threads *claim* chunks dynamically, but which elements belong
//!   to which chunk is fixed.
//! - Reductions ([`Pool::par_sum`]) accumulate serially *within* each chunk
//!   and combine the per-chunk partials in chunk order, so floating-point
//!   rounding is identical whether one thread or sixteen executed the
//!   chunks.
//! - The serial fallback (a 1-thread pool, a single-chunk region, or a
//!   nested region) runs the very same chunked algorithm inline on the
//!   caller.
//!
//! This is what lets the parallel ranking/tagging/indexing paths share
//! golden tests and fsck validators with their serial ancestors.
//!
//! ## Sizing
//!
//! [`Pool::global`] is sized from the `SENSORMETA_THREADS` environment
//! variable when set to a positive integer, otherwise from
//! `std::thread::available_parallelism()`. A pool of size 1 spawns no
//! worker threads at all and executes every region inline.
//!
//! ## Panics
//!
//! A panic inside a task is caught on the worker, the region is still
//! drained (so no task is silently skipped), and the first panic payload
//! is re-thrown on the calling thread when the region (or [`Pool::scope`])
//! returns. Values produced by tasks that completed before the panic are
//! leaked, not dropped.

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
#![allow(
    clippy::disallowed_methods,
    reason = "this crate is the worker pool: it starts the threads everyone else borrows"
)]

use sensormeta_obs as obs;
use std::any::Any;
use std::cell::RefCell;
use std::mem::MaybeUninit;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread;

/// Upper bound on pool size; protects against absurd `SENSORMETA_THREADS`.
const MAX_THREADS: usize = 256;

/// Acquires a mutex, recovering from poisoning: the pool catches task
/// panics with `catch_unwind`, so a poisoned lock only means a panic
/// unwound through a guard — the protected state is still consistent.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One parallel region: a fixed number of tasks, claimed by index.
struct Job {
    /// The task body, lifetime-erased. Only dereferenced for claimed
    /// indices `< tasks`, all of which complete before `remaining` reaches
    /// zero — and the submitting call does not return (ending the borrow)
    /// until it does.
    func: *const (dyn Fn(usize) + Sync),
    /// Next task index to claim.
    next: AtomicUsize,
    /// Total number of tasks.
    tasks: usize,
    /// Tasks not yet completed.
    remaining: AtomicUsize,
    /// First panic payload captured from a task.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

// SAFETY: `func` is only dereferenced while the submitting `run_region`
// call keeps the underlying closure alive (see the field comment); the
// closure itself is `Sync`, so shared calls from several threads are fine.
unsafe impl Send for Job {}
unsafe impl Sync for Job {}

/// Erases the lifetime of a task closure so it can sit in a [`Job`] shared
/// with worker threads. See the safety argument on [`Job::func`].
fn erase(f: &(dyn Fn(usize) + Sync)) -> *const (dyn Fn(usize) + Sync) {
    // SAFETY: fat-pointer transmute between the same trait object with the
    // lifetime bound erased; validity is upheld by the Job protocol.
    unsafe { std::mem::transmute(f) }
}

impl Job {
    /// Claims and executes tasks until the job is exhausted. Runs on both
    /// workers and the submitting thread.
    fn work(job: &Arc<Job>, shared: &Shared) {
        loop {
            let idx = job.next.fetch_add(1, Ordering::Relaxed);
            if idx >= job.tasks {
                return;
            }
            // SAFETY: idx < tasks, so the submitting call is still blocked
            // in `run_region` and the closure is alive.
            let func = unsafe { &*job.func };
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| func(idx))) {
                lock(&job.panic).get_or_insert(payload);
            }
            if job.remaining.fetch_sub(1, Ordering::Release) == 1 {
                // Last task: wake the submitter. Taking the state lock
                // orders this notify against the submitter's check-then-wait.
                let _st = lock(&shared.state);
                shared.done.notify_all();
            }
        }
    }
}

/// State shared between the pool handle and its workers.
struct Shared {
    state: Mutex<State>,
    /// Signaled when a new job is published or the pool shuts down.
    work: Condvar,
    /// Signaled when a job's last task completes.
    done: Condvar,
}

struct State {
    /// The currently published job, if any.
    job: Option<Arc<Job>>,
    shutdown: bool,
}

fn worker_loop(shared: Arc<Shared>) {
    loop {
        let job = {
            let mut st = lock(&shared.state);
            loop {
                if st.shutdown {
                    return;
                }
                match st.job.as_ref() {
                    Some(j) if j.next.load(Ordering::Relaxed) < j.tasks => break j.clone(),
                    _ => st = shared.work.wait(st).unwrap_or_else(PoisonError::into_inner),
                }
            }
        };
        Job::work(&job, &shared);
    }
}

/// A work-chunked thread pool with deterministic chunking and reduction
/// order. See the crate docs for the determinism contract.
pub struct Pool {
    shared: Arc<Shared>,
    workers: Vec<thread::JoinHandle<()>>,
    threads: usize,
    /// Serializes parallel regions. `try_lock` failure (a region is already
    /// active, e.g. a nested call from inside a task) falls back to inline
    /// serial execution rather than deadlocking.
    region: Mutex<()>,
    /// Cached metric handles: recording is lock-free, only the by-name
    /// lookup locks, so look up once at construction.
    tasks_total: obs::Counter,
    regions_total: obs::Counter,
    queue_depth: obs::Gauge,
}

impl std::fmt::Debug for Pool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pool")
            .field("threads", &self.threads)
            .finish()
    }
}

static GLOBAL: OnceLock<Pool> = OnceLock::new();

/// Pool size from the environment: `SENSORMETA_THREADS` when set to a
/// positive integer, otherwise the machine's available parallelism.
pub fn configured_threads() -> usize {
    let from_env = std::env::var("SENSORMETA_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1);
    match from_env {
        Some(n) => n.min(MAX_THREADS),
        None => thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(MAX_THREADS),
    }
}

impl Pool {
    /// Creates a pool executing regions on `threads` threads (the calling
    /// thread participates; `threads - 1` workers are spawned). A 1-thread
    /// pool spawns nothing and runs every region inline.
    pub fn new(threads: usize) -> Pool {
        let threads = threads.clamp(1, MAX_THREADS);
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                job: None,
                shutdown: false,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
        });
        let mut workers = Vec::new();
        for i in 1..threads {
            let sh = shared.clone();
            let builder = thread::Builder::new().name(format!("sensormeta-par-{i}"));
            // A failed spawn just leaves the pool with fewer workers; the
            // region protocol and the results are unaffected.
            if let Ok(handle) = builder.spawn(move || worker_loop(sh)) {
                workers.push(handle);
            }
        }
        Pool {
            shared,
            workers,
            threads,
            region: Mutex::new(()),
            tasks_total: obs::counter("par_tasks_total"),
            regions_total: obs::counter("par_regions_total"),
            queue_depth: obs::gauge("par_queue_depth"),
        }
    }

    /// The process-wide pool, sized by [`configured_threads`] on first use.
    pub fn global() -> &'static Pool {
        GLOBAL.get_or_init(|| Pool::new(configured_threads()))
    }

    /// Number of threads executing regions (including the caller).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Executes `f(0), f(1), …, f(tasks - 1)`, each exactly once, across
    /// the pool. Blocks until all tasks finished; re-throws the first task
    /// panic. Task *completion order* is nondeterministic — determinism is
    /// the caller's concern and comes from tasks writing disjoint output.
    pub fn run<F: Fn(usize) + Sync>(&self, tasks: usize, f: F) {
        self.run_region(tasks, &f);
    }

    fn run_region(&self, tasks: usize, f: &(dyn Fn(usize) + Sync)) {
        if tasks == 0 {
            return;
        }
        // Serial fallback: 1-thread pool, a single task, or a region already
        // active on this pool (nested/concurrent submission). Same chunked
        // algorithm, same arithmetic, run inline.
        let guard = if self.threads > 1 && tasks > 1 {
            self.region.try_lock().ok()
        } else {
            None
        };
        let Some(_guard) = guard else {
            for i in 0..tasks {
                f(i);
            }
            return;
        };
        self.regions_total.inc();
        self.tasks_total.add(tasks as u64);
        self.queue_depth.set(tasks as f64);
        let job = Arc::new(Job {
            func: erase(f),
            next: AtomicUsize::new(0),
            tasks,
            remaining: AtomicUsize::new(tasks),
            panic: Mutex::new(None),
        });
        {
            let mut st = lock(&self.shared.state);
            st.job = Some(job.clone());
            self.shared.work.notify_all();
        }
        // The submitter works too — a region never waits idle on workers.
        Job::work(&job, &self.shared);
        let mut st = lock(&self.shared.state);
        while job.remaining.load(Ordering::Acquire) != 0 {
            st = self
                .shared
                .done
                .wait(st)
                .unwrap_or_else(PoisonError::into_inner);
        }
        if st.job.as_ref().is_some_and(|j| Arc::ptr_eq(j, &job)) {
            st.job = None;
        }
        drop(st);
        self.queue_depth.set(0.0);
        let payload = lock(&job.panic).take();
        if let Some(payload) = payload {
            resume_unwind(payload);
        }
    }

    /// Runs `tasks` tasks and collects their results in task order.
    fn run_collect<R, F>(&self, tasks: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        let mut out: Vec<MaybeUninit<R>> = Vec::with_capacity(tasks);
        out.resize_with(tasks, MaybeUninit::uninit);
        let slots = SendPtr(out.as_mut_ptr());
        self.run_region(tasks, &|i| {
            let value = f(i);
            // SAFETY: each task index writes exactly its own slot.
            unsafe { (*slots.at(i)).write(value) };
        });
        // SAFETY: run_region returned without unwinding, so every slot was
        // written; Vec<MaybeUninit<R>> and Vec<R> share layout.
        unsafe {
            let ptr = out.as_mut_ptr() as *mut R;
            let cap = out.capacity();
            std::mem::forget(out);
            Vec::from_raw_parts(ptr, tasks, cap)
        }
    }

    /// Splits `data` into fixed-size chunks (the last may be short) and
    /// runs `f(chunk_index, chunk_offset, chunk)` for each, returning the
    /// per-chunk results **in chunk order**. Chunk boundaries depend only
    /// on `data.len()` and `chunk`, never on the thread count.
    pub fn par_chunks_mut<T, R, F>(&self, data: &mut [T], chunk: usize, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(usize, usize, &mut [T]) -> R + Sync,
    {
        let len = data.len();
        let chunk = chunk.max(1);
        let tasks = len.div_ceil(chunk);
        let base = SendPtr(data.as_mut_ptr());
        self.run_collect(tasks, |k| {
            let start = k * chunk;
            let end = (start + chunk).min(len);
            // SAFETY: chunk ranges are disjoint and `data` stays exclusively
            // borrowed for the whole region.
            let part = unsafe { std::slice::from_raw_parts_mut(base.at(start), end - start) };
            f(k, start, part)
        })
    }

    /// Maps `f` over `items` (chunked internally), preserving input order
    /// in the output.
    pub fn par_map_collect<T, U, F>(&self, items: &[T], chunk: usize, f: F) -> Vec<U>
    where
        T: Sync,
        U: Send,
        F: Fn(&T) -> U + Sync,
    {
        let len = items.len();
        let chunk = chunk.max(1);
        let tasks = len.div_ceil(chunk);
        let mut out: Vec<MaybeUninit<U>> = Vec::with_capacity(len);
        out.resize_with(len, MaybeUninit::uninit);
        let slots = SendPtr(out.as_mut_ptr());
        self.run_region(tasks, &|k| {
            let start = k * chunk;
            let end = (start + chunk).min(len);
            for (i, item) in items[start..end].iter().enumerate() {
                // SAFETY: chunks write disjoint index ranges.
                unsafe { (*slots.at(start + i)).write(f(item)) };
            }
        });
        // SAFETY: as in `run_collect` — all slots written, layouts match.
        unsafe {
            let ptr = out.as_mut_ptr() as *mut U;
            let cap = out.capacity();
            std::mem::forget(out);
            Vec::from_raw_parts(ptr, len, cap)
        }
    }

    /// Deterministic chunked reduction: `Σ f(i)` for `i in 0..len`, summed
    /// serially within each fixed-size chunk, with the per-chunk partials
    /// combined in chunk order. The float rounding is therefore identical
    /// at every thread count.
    pub fn par_sum<F: Fn(usize) -> f64 + Sync>(&self, len: usize, chunk: usize, f: F) -> f64 {
        let chunk = chunk.max(1);
        let tasks = len.div_ceil(chunk);
        let partials = self.run_collect(tasks, |k| {
            let start = k * chunk;
            let end = (start + chunk).min(len);
            let mut acc = 0.0;
            for i in start..end {
                acc += f(i);
            }
            acc
        });
        partials.into_iter().sum()
    }

    /// Runs a fork-join scope: closures handed to [`Scope::spawn`] execute
    /// on the pool after `f` returns, and `scope` itself returns once all
    /// of them completed. The first panic from a spawned closure (or from
    /// `f`) propagates to the caller.
    pub fn scope<'env, R>(&self, f: impl FnOnce(&Scope<'env>) -> R) -> R {
        let _span = obs::span("par_scope");
        let scope = Scope {
            jobs: RefCell::new(Vec::new()),
        };
        let result = f(&scope);
        let mut jobs = scope.jobs.into_inner();
        let n = jobs.len();
        if n == 0 {
            return result;
        }
        // Hand each boxed closure to exactly one task by moving it out of
        // the Vec's buffer; emptying the Vec first keeps a panicking region
        // from double-dropping (every index still runs — `Job::work` drains
        // the region even after capturing a panic — so nothing leaks).
        let slots = SendPtr(jobs.as_mut_ptr());
        // SAFETY: ownership of all `n` boxes is transferred to the tasks.
        unsafe { jobs.set_len(0) };
        self.run_region(n, &|i| {
            // SAFETY: each index is claimed exactly once.
            let job = unsafe { std::ptr::read(slots.at(i)) };
            job();
        });
        result
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        {
            let mut st = lock(&self.shared.state);
            st.shutdown = true;
            self.shared.work.notify_all();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

/// A fork-join scope; see [`Pool::scope`].
pub struct Scope<'scope> {
    #[allow(clippy::type_complexity)]
    jobs: RefCell<Vec<Box<dyn FnOnce() + Send + 'scope>>>,
}

impl std::fmt::Debug for Scope<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scope")
            .field("spawned", &self.jobs.borrow().len())
            .finish()
    }
}

impl<'scope> Scope<'scope> {
    /// Queues `f` to run on the pool when the scope body returns.
    pub fn spawn<F: FnOnce() + Send + 'scope>(&self, f: F) {
        self.jobs.borrow_mut().push(Box::new(f));
    }
}

/// Raw-pointer wrapper that may cross threads: every use hands disjoint
/// indices to distinct tasks.
struct SendPtr<T>(*mut T);

// SAFETY: see the type doc — disjoint-index access only.
unsafe impl<T> Send for SendPtr<T> {}
unsafe impl<T> Sync for SendPtr<T> {}

impl<T> SendPtr<T> {
    fn at(&self, i: usize) -> *mut T {
        // SAFETY: callers only pass indices inside the allocation.
        unsafe { self.0.add(i) }
    }
}

#[cfg(test)]
#[allow(
    clippy::float_cmp,
    reason = "the tests compare bit-identical floats on purpose"
)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn runs_every_task_exactly_once() {
        for threads in [1, 2, 7] {
            let pool = Pool::new(threads);
            let hits: Vec<AtomicUsize> = (0..100).map(|_| AtomicUsize::new(0)).collect();
            pool.run(100, |i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        }
    }

    #[test]
    fn map_collect_preserves_order() {
        let items: Vec<usize> = (0..1000).collect();
        for threads in [1, 2, 7] {
            let pool = Pool::new(threads);
            let doubled = pool.par_map_collect(&items, 16, |&x| x * 2);
            assert_eq!(doubled, items.iter().map(|x| x * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn chunks_mut_sees_disjoint_offsets() {
        let mut data = vec![0usize; 103];
        let pool = Pool::new(4);
        let chunk_ids = pool.par_chunks_mut(&mut data, 10, |k, offset, part| {
            assert_eq!(offset, k * 10);
            for (r, slot) in part.iter_mut().enumerate() {
                *slot = offset + r;
            }
            k
        });
        assert_eq!(chunk_ids, (0..11).collect::<Vec<_>>());
        assert_eq!(data, (0..103).collect::<Vec<_>>());
    }

    #[test]
    fn par_sum_is_bitwise_deterministic_across_thread_counts() {
        // Values chosen so summation order changes the float result.
        let values: Vec<f64> = (0..10_000)
            .map(|i| ((i * 2_654_435_761_usize) as f64).sqrt() * 1e-3 + 1e9 * ((i % 7) as f64))
            .collect();
        let reference = Pool::new(1).par_sum(values.len(), 128, |i| values[i]);
        for threads in [2, 3, 7] {
            let pool = Pool::new(threads);
            for _ in 0..5 {
                let sum = pool.par_sum(values.len(), 128, |i| values[i]);
                assert_eq!(sum.to_bits(), reference.to_bits());
            }
        }
    }

    #[test]
    fn scope_runs_spawned_jobs() {
        let pool = Pool::new(3);
        let total = AtomicU64::new(0);
        let out = pool.scope(|s| {
            for i in 1..=10u64 {
                let total = &total;
                s.spawn(move || {
                    total.fetch_add(i, Ordering::Relaxed);
                });
            }
            "body-result"
        });
        assert_eq!(out, "body-result");
        assert_eq!(total.load(Ordering::Relaxed), 55);
    }

    #[test]
    fn panic_propagates_out_of_scope_and_pool_survives() {
        let pool = Pool::new(4);
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|s| {
                s.spawn(|| panic!("boom in scope"));
                for _ in 0..20 {
                    s.spawn(|| {});
                }
            });
        }));
        let payload = caught.expect_err("scope must re-throw the task panic");
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .unwrap_or("<non-str payload>");
        assert!(msg.contains("boom in scope"), "{msg}");
        // The pool keeps working after a panicked region.
        let n = AtomicUsize::new(0);
        pool.run(50, |_| {
            n.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(n.load(Ordering::Relaxed), 50);
    }

    #[test]
    fn panic_propagates_from_run() {
        let pool = Pool::new(2);
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run(10, |i| {
                if i == 3 {
                    panic!("task 3 failed");
                }
            });
        }));
        assert!(caught.is_err());
    }

    #[test]
    fn single_thread_pool_is_inline_and_ordered() {
        let pool = Pool::new(1);
        assert!(pool.workers.is_empty(), "no workers at 1 thread");
        let order = Mutex::new(Vec::new());
        pool.run(10, |i| lock(&order).push(i));
        assert_eq!(lock(&order).clone(), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn env_sizing_parses_positive_integers() {
        std::env::set_var("SENSORMETA_THREADS", "3");
        assert_eq!(configured_threads(), 3);
        std::env::set_var("SENSORMETA_THREADS", "0");
        let fallback = configured_threads();
        assert!(fallback >= 1, "invalid env falls back to detection");
        std::env::remove_var("SENSORMETA_THREADS");
        assert!(configured_threads() >= 1);
    }

    #[test]
    fn empty_region_and_empty_inputs() {
        let pool = Pool::new(4);
        pool.run(0, |_| unreachable!());
        assert_eq!(pool.par_sum(0, 8, |_| 1.0), 0.0);
        let empty: Vec<u8> = Vec::new();
        assert!(pool.par_map_collect(&empty, 8, |&b| b).is_empty());
        let mut none: Vec<u8> = Vec::new();
        let res: Vec<()> = pool.par_chunks_mut(&mut none, 8, |_, _, _| ());
        assert!(res.is_empty());
    }

    #[test]
    fn nested_regions_fall_back_to_inline() {
        let pool = Pool::new(4);
        let n = AtomicUsize::new(0);
        pool.run(8, |_| {
            // A region submitted from inside a task must not deadlock.
            pool.run(8, |_| {
                n.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(n.load(Ordering::Relaxed), 64);
    }
}
