//! WAL-shipped read replicas.
//!
//! A replica opens the primary's snapshot in recovering mode (nothing on
//! disk is modified), then *tails* the primary's live write-ahead log:
//! each poll reads the log bytes, feeds them to a
//! [`WalTail`](sensormeta_relstore::WalTail) incremental parser, applies
//! newly committed transactions through the same deterministic replay path
//! recovery uses, and publishes the updated engine as an MVCC commit.
//! Checkpoint truncation and persistent frame damage both trigger a full
//! resync from the snapshot.
//!
//! Freshness is measured against the primary engine's epoch clock, which
//! the primary bumps once per commit (per `QueryEngine::rebuild`), so a
//! replica's staleness counts the primary commits it has not yet applied.

use sensormeta_cache::EpochClock;
use sensormeta_obs as obs;
use sensormeta_query::{QueryEngine, QueryError, Result};
use sensormeta_relstore::{wal_path_for, LogicalOp, WalTail};
use sensormeta_smr::Smr;
use sensormeta_tx::{Mvcc, Snapshot};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Weak};
use std::time::Duration;

/// How many consecutive stalled polls (torn or damaged frames that never
/// heal) a replica tolerates before it gives up on the tail and resyncs
/// from the snapshot.
const STALL_RESYNC_THRESHOLD: u32 = 3;

/// Outcome of one tail poll, mostly for tests and the bench harness.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReplicaPoll {
    /// Operations applied to the replica store this poll.
    pub applied: u64,
    /// Operations skipped because the replica already had them.
    pub skipped: u64,
    /// Operations that failed to replay (counted, never fatal).
    pub failed: u64,
    /// The primary checkpointed (log shrank) and the replica resynced.
    pub truncated: bool,
    /// The replica rebuilt itself from the snapshot this poll.
    pub resynced: bool,
    /// The tail is stalled on damaged frames (diagnostic; a few
    /// consecutive stalls trigger a resync).
    pub stalled: Option<String>,
}

struct TailState {
    smr: Smr,
    tail: WalTail,
    /// Highest operation sequence folded into `smr`.
    applied: u64,
    /// Consecutive stalled polls; reset by any clean poll.
    stalls: u32,
}

/// A read replica over a primary's durable store.
///
/// The replica never writes to the primary's files: it loads the snapshot
/// in recovering mode, then tails the log read-only. Construct with
/// [`Replica::open`], drive deterministically with [`Replica::poll_once`]
/// (tests, benches) or continuously with [`Replica::start`] (serving).
pub struct Replica {
    name: String,
    primary_path: PathBuf,
    /// The primary engine's epoch clock, bumped once per primary commit.
    primary_clock: Arc<EpochClock>,
    engine: Mvcc<QueryEngine>,
    state: Mutex<TailState>,
    /// The primary epoch this replica's published state is known to cover;
    /// only moves forward. Advanced with `Release` after the engine covering
    /// it is published and read with `Acquire`, so a router that sees an
    /// epoch here also sees that engine.
    covered: AtomicU64,
    stop: Arc<AtomicBool>,
    handle: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl Replica {
    /// Opens a replica of the durable store at `primary_path` (snapshot
    /// plus optional live WAL), measuring freshness against
    /// `primary_clock` — the primary engine's
    /// [`epoch_clock`](QueryEngine::epoch_clock). The returned replica is
    /// caught up to the snapshot and whatever committed WAL existed at open
    /// time; call [`Replica::poll_once`] or [`Replica::start`] to follow
    /// new commits.
    pub fn open(
        name: &str,
        primary_path: &std::path::Path,
        primary_clock: Arc<EpochClock>,
    ) -> Result<Arc<Replica>> {
        let epoch_at_read = primary_clock.now();
        let (smr, report) = Smr::load_with_report(primary_path)?;
        let engine = QueryEngine::open(smr.clone_reader())?;
        let mut tail = WalTail::new();
        // Fast-forward the tail past everything recovery already replayed:
        // the bytes currently in the log decode to ops at or below
        // `report.last_seq`, which `apply_replicated` would skip anyway,
        // but re-parsing them on the first poll is wasted work only — so
        // feed them through once here where the outcome is discarded.
        if let Ok(bytes) = std::fs::read(wal_path_for(primary_path)) {
            let _ = tail.poll(&bytes);
        }
        obs::counter("cluster_replica_opens_total").inc();
        Ok(Arc::new(Replica {
            name: name.to_string(),
            primary_path: primary_path.to_path_buf(),
            primary_clock,
            engine: Mvcc::new(engine),
            state: Mutex::new(TailState {
                smr,
                tail,
                applied: report.last_seq,
                stalls: 0,
            }),
            covered: AtomicU64::new(epoch_at_read),
            stop: Arc::new(AtomicBool::new(false)),
            handle: Mutex::new(None),
        }))
    }

    /// The replica's name (used in log lines and metrics).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// A snapshot of the replica's published query engine.
    pub fn snapshot(&self) -> Snapshot<QueryEngine> {
        self.engine.snapshot()
    }

    /// Highest operation sequence folded into the replica's store.
    pub fn applied_seq(&self) -> u64 {
        lock(&self.state).applied
    }

    /// How many primary commits this replica is behind.
    pub fn staleness(&self) -> u64 {
        let covered = self.covered.load(Ordering::Acquire);
        self.primary_clock.now().saturating_sub(covered)
    }

    /// Logical contents of the replica's relational store, for convergence
    /// checks against the primary's `logical_dump`.
    pub fn logical_dump(&self) -> Vec<(String, Vec<Vec<u8>>)> {
        lock(&self.state).smr.database().logical_dump()
    }

    /// One synchronous tail step: read the primary's log, apply any newly
    /// committed transactions, publish the updated engine. Deterministic —
    /// the convergence tests drive replication entirely through this.
    pub fn poll_once(&self) -> Result<ReplicaPoll> {
        // Capture the primary's clock BEFORE reading the log: any commit
        // that bumped it before this point has its WAL bytes visible to the
        // read below (the primary logs before its rebuild bumps), so a clean
        // poll that drains the log covers at least this epoch.
        let epoch_at_read = self.primary_clock.now();
        let bytes = match std::fs::read(wal_path_for(&self.primary_path)) {
            Ok(b) => b,
            // No log yet (fresh store or mid-checkpoint swap): caught up.
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(QueryError::Internal(format!("read primary wal: {e}"))),
        };

        let mut out = ReplicaPoll::default();
        let mut state = lock(&self.state);
        let poll = state.tail.poll(&bytes);

        if poll.truncated {
            // The primary checkpointed: the old log is gone and the new one
            // may start past what we had applied. Resync from the snapshot
            // rather than guessing.
            out.truncated = true;
            self.resync(&mut state)?;
            out.resynced = true;
            drop(state);
            self.publish(epoch_at_read);
            return Ok(out);
        }

        if let Some(why) = poll.stalled {
            state.stalls += 1;
            obs::counter("cluster_replica_stalls_total").inc();
            if state.stalls >= STALL_RESYNC_THRESHOLD {
                self.resync(&mut state)?;
                out.resynced = true;
                drop(state);
                self.publish(epoch_at_read);
            } else {
                out.stalled = Some(why);
            }
            return Ok(out);
        }

        let ops: Vec<(u64, LogicalOp)> = poll.committed.into_iter().flat_map(|tx| tx.ops).collect();
        let seen = ops
            .iter()
            .map(|(seq, _)| *seq)
            .max()
            .unwrap_or(state.applied);
        if !ops.is_empty() {
            let after = state.applied;
            let report = state.smr.apply_replicated(&ops, after)?;
            state.applied = report.last_seq.max(state.applied);
            out.applied = report.applied;
            out.skipped = report.skipped;
            out.failed = report.failed;
        }
        state.stalls = 0;
        let lag = seen.saturating_sub(state.applied);
        drop(state);

        obs::gauge("cluster_replica_lag_seq").set(lag as f64);
        if out.applied > 0 {
            self.rebuild_engine()?;
        }
        // Clean poll that drained the log: the published state covers
        // everything committed before the read started.
        self.publish(epoch_at_read);
        Ok(out)
    }

    fn resync(&self, state: &mut TailState) -> Result<()> {
        let (smr, report) = Smr::load_with_report(&self.primary_path)?;
        state.smr = smr;
        state.tail = WalTail::new();
        state.applied = report.last_seq;
        state.stalls = 0;
        obs::counter("cluster_replica_resyncs_total").inc();
        Ok(())
    }

    fn rebuild_engine(&self) -> Result<()> {
        let smr = lock(&self.state).smr.clone_reader();
        let engine = QueryEngine::open(smr)?;
        // Freshness is dated by the primary's clock, and the fresh engine
        // carries its own generation for the cache.
        self.engine.begin().publish(engine);
        Ok(())
    }

    fn publish(&self, epoch: u64) {
        // Epochs only move forward; a concurrent poll may already have
        // recorded a later one.
        self.covered.fetch_max(epoch, Ordering::Release);
    }

    /// Starts the background tail loop: polls the primary's log every
    /// `interval` until [`Replica::stop`] is called or every external
    /// handle to the replica is dropped.
    pub fn start(self: &Arc<Self>, interval: Duration) {
        let weak: Weak<Replica> = Arc::downgrade(self);
        let stop = Arc::clone(&self.stop);
        let name = format!("replica-tail-{}", self.name);
        #[expect(
            clippy::disallowed_methods,
            reason = "the tail loop does file I/O and sleeps, so it must live on its own thread rather than the shared compute pool"
        )]
        let handle = std::thread::Builder::new().name(name).spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                let Some(replica) = weak.upgrade() else { break };
                if replica.poll_once().is_err() {
                    obs::counter("cluster_replica_poll_errors_total").inc();
                }
                drop(replica);
                std::thread::sleep(interval);
            }
        });
        *lock(&self.handle) = handle.ok();
    }

    /// Stops the background tail loop (if running) and waits for it.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = lock(&self.handle).take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Replica {
    fn drop(&mut self) {
        // The loop thread only holds a Weak, so this runs as soon as the
        // last external handle drops; the upgrade inside the loop then
        // fails and the thread exits on its own even without `stop()`.
        self.stop.store(true, Ordering::Relaxed);
    }
}

/// Locks a mutex, recovering from poisoning (a panicked poll must not take
/// the whole replica down with it).
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}
