//! Crash-recovery harness: runs a seeded random workload against a durable
//! database, re-executes it crashing at every injected syncpoint (and
//! tearing writes, and injecting transient faults), reopens from the
//! post-crash durable state, and asserts structural invariants plus logical
//! equivalence against an in-memory oracle.
//!
//! The correctness criterion per crash: if `acked` operations returned to
//! the caller and the crashing operation was number `attempted`, then the
//! recovered database must contain exactly the first `n` operations for
//! some `n` with `acked <= n <= attempted` — no acknowledged operation is
//! ever lost, and nothing beyond the operation in flight ever appears.
//!
//! Run as transactions, the same criterion holds per transaction: the
//! recovered database holds exactly the first `g` transactions for some
//! `acked <= g <= attempted`, each whole or not at all.

use sensormeta_relstore::vfs::{FaultPlan, FaultVfs, MemVfs};
use sensormeta_relstore::wal::scan_wal;
use sensormeta_relstore::{Database, DurabilityOptions, RelError, Value, Vfs};
use std::ops::Range;
use std::path::Path;
use std::sync::Arc;

const DB_PATH: &str = "repo.snap";

/// Small deterministic PRNG (xorshift64*) — no external dependencies.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed.max(1))
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// One workload operation. Each maps to exactly one logged logical
/// operation (one WAL sequence number), so operation counts and recovered
/// sequence numbers are directly comparable.
#[derive(Debug, Clone)]
enum WorkOp {
    Sql(String),
    Insert(&'static str, Vec<Value>),
}

fn workload(seed: u64, n: usize) -> Vec<WorkOp> {
    let mut rng = Rng::new(seed);
    let mut ops = vec![
        WorkOp::Sql(
            "CREATE TABLE pages (id INTEGER PRIMARY KEY, title TEXT NOT NULL, views INTEGER)"
                .to_string(),
        ),
        WorkOp::Sql("CREATE TABLE tags (page INTEGER NOT NULL, tag TEXT NOT NULL)".to_string()),
        WorkOp::Sql("CREATE UNIQUE INDEX tags_pair ON tags (page, tag)".to_string()),
    ];
    for i in ops.len()..n {
        let op = match rng.below(12) {
            0..=3 => {
                // Programmatic insert; small id space makes primary-key
                // collisions (deterministic logical failures) common.
                let views = if rng.below(4) == 0 {
                    Value::Null
                } else {
                    Value::Int(rng.below(10_000) as i64)
                };
                WorkOp::Insert(
                    "pages",
                    vec![
                        Value::Int(rng.below(150) as i64),
                        Value::text(format!("p{i}")),
                        views,
                    ],
                )
            }
            4..=6 => WorkOp::Insert(
                "tags",
                vec![
                    Value::Int(rng.below(40) as i64),
                    Value::text(format!("t{}", rng.below(6))),
                ],
            ),
            7 => WorkOp::Sql(format!(
                "INSERT INTO pages VALUES ({}, 'sql{i}', {})",
                150 + rng.below(100),
                rng.below(1000)
            )),
            8 => WorkOp::Sql(format!(
                "UPDATE pages SET views = {} WHERE id < {}",
                rng.below(5000),
                rng.below(150)
            )),
            9 => WorkOp::Sql(format!("DELETE FROM tags WHERE page = {}", rng.below(40))),
            10 => WorkOp::Sql(format!("DELETE FROM pages WHERE id = {}", rng.below(150))),
            _ => WorkOp::Sql(format!(
                "UPDATE tags SET tag = 't{}' WHERE page = {}",
                rng.below(6),
                rng.below(40)
            )),
        };
        ops.push(op);
    }
    ops
}

fn apply_op(db: &mut Database, op: &WorkOp) -> Result<(), RelError> {
    match op {
        WorkOp::Sql(sql) => db.execute(sql).map(|_| ()),
        WorkOp::Insert(table, row) => db.insert_row(table, row.clone()).map(|_| ()),
    }
}

fn is_storage_err(e: &RelError) -> bool {
    matches!(e, RelError::Io(_) | RelError::Wal(_))
}

/// Logical dump of the oracle after each workload prefix: `dumps[n]` is the
/// expected state once exactly the first `n` operations have been applied
/// (logical failures and all).
type Dump = Vec<(String, Vec<Vec<u8>>)>;

fn oracle_dumps(ops: &[WorkOp]) -> Vec<Dump> {
    let mut db = Database::new();
    let mut dumps = Vec::with_capacity(ops.len() + 1);
    dumps.push(db.logical_dump());
    for op in ops {
        let _ = apply_op(&mut db, op);
        dumps.push(db.logical_dump());
    }
    dumps
}

fn small_opts() -> DurabilityOptions {
    DurabilityOptions {
        // Tiny threshold: the workload checkpoints many times, so crashes
        // land inside checkpoint windows too.
        checkpoint_wal_bytes: 2048,
    }
}

struct Outcome {
    acked: usize,
    attempted: usize,
    crashed: bool,
}

/// Runs the workload until completion or the first storage error. Any
/// non-storage panic or unexpected error kind fails the test.
fn run_workload(vfs: Arc<dyn Vfs>, ops: &[WorkOp]) -> Outcome {
    let mut db = match Database::open_durable_with(vfs, Path::new(DB_PATH), small_opts()) {
        Ok((db, _)) => db,
        Err(e) => {
            assert!(
                is_storage_err(&e),
                "open failed with non-storage error: {e}"
            );
            return Outcome {
                acked: 0,
                attempted: 0,
                crashed: true,
            };
        }
    };
    let mut acked = 0;
    for (i, op) in ops.iter().enumerate() {
        match apply_op(&mut db, op) {
            Ok(()) => acked = i + 1,
            Err(e) if is_storage_err(&e) => {
                return Outcome {
                    acked,
                    attempted: i + 1,
                    crashed: true,
                };
            }
            // Logical failure (unique violation, …): still logged, still
            // one sequence number, deterministically reproduced at replay.
            Err(_) => acked = i + 1,
        }
    }
    Outcome {
        acked,
        attempted: acked,
        crashed: false,
    }
}

/// Reopens from a post-crash durable state and checks invariants plus
/// oracle equivalence. Returns the recovered operation count.
fn check_recovery(durable: MemVfs, out: &Outcome, dumps: &[Dump]) -> (usize, bool) {
    let (rec, report) =
        Database::open_durable_with(Arc::new(durable), Path::new(DB_PATH), small_opts())
            .expect("recovery open must succeed");
    if let Err(problems) = rec.check_invariants() {
        panic!("invariants violated after recovery: {problems:?}");
    }
    let n = rec.committed_seq() as usize;
    assert!(
        out.acked <= n && n <= out.attempted,
        "recovered {n} ops, but {} were acknowledged and {} attempted",
        out.acked,
        out.attempted
    );
    assert_eq!(
        rec.logical_dump(),
        dumps[n],
        "recovered state diverges from oracle after {n} ops"
    );
    (n, !report.wal_problems.is_empty())
}

#[test]
fn crash_at_every_syncpoint_recovers() {
    let ops = workload(0xC0FFEE, 220);
    let dumps = oracle_dumps(&ops);

    // Fault-free probe run: validates the op ↔ sequence-number mapping and
    // counts the syncpoints the workload passes through.
    let probe = FaultVfs::new(MemVfs::new(), FaultPlan::default());
    let out = run_workload(Arc::new(probe.clone()), &ops);
    assert!(!out.crashed, "probe run must not crash");
    assert_eq!(out.acked, ops.len());
    let (n, _) = check_recovery(probe.durable_state(), &out, &dumps);
    assert_eq!(n, ops.len(), "fault-free run recovers everything");
    let total_syncs = probe.syncs();
    assert!(total_syncs as usize > ops.len(), "every commit syncs");

    let mut crashes = 0u64;
    let mut torn_reports = 0u64;
    for k in 1..=total_syncs {
        // Vary how much unsynced tail survives each crash: 0 models strict
        // fsync-only survival, larger values produce torn WAL tails.
        let spill = ((k * 13) % 120) as usize;
        let vfs = FaultVfs::new(
            MemVfs::new(),
            FaultPlan {
                crash_at_sync: Some(k),
                crash_spill: spill,
                ..FaultPlan::default()
            },
        );
        let out = run_workload(Arc::new(vfs.clone()), &ops);
        if out.crashed {
            crashes += 1;
        }
        let (n, torn) = check_recovery(vfs.durable_state(), &out, &dumps);
        if torn {
            torn_reports += 1;
        }
        // Periodically check that recovery is idempotent and the database
        // stays writable after reopening.
        if k % 16 == 0 {
            let durable = vfs.durable_state();
            let (mut again, _) =
                Database::open_durable_with(Arc::new(durable), Path::new(DB_PATH), small_opts())
                    .expect("second recovery open");
            assert_eq!(again.committed_seq() as usize, n);
            again
                .insert_row(
                    "pages",
                    vec![
                        Value::Int(1_000_000 + k as i64),
                        Value::text("post-crash"),
                        Value::Null,
                    ],
                )
                .expect("recovered database accepts writes");
        }
    }
    assert_eq!(crashes, total_syncs, "every syncpoint produced a crash");
    assert!(
        torn_reports > 0,
        "at least some crashes must leave torn WAL tails that recovery reports"
    );
}

#[test]
fn torn_writes_recover() {
    let ops = workload(0xBEEF, 200);
    let dumps = oracle_dumps(&ops);

    let probe = FaultVfs::new(MemVfs::new(), FaultPlan::default());
    let out = run_workload(Arc::new(probe.clone()), &ops);
    assert!(!out.crashed);
    let total_writes = probe.writes();

    let mut torn_reports = 0u64;
    for w in (1..=total_writes).step_by(3) {
        let keep = ((w * 7) % 41) as usize;
        let vfs = FaultVfs::new(
            MemVfs::new(),
            FaultPlan {
                torn_write: Some((w, keep)),
                crash_spill: usize::MAX,
                ..FaultPlan::default()
            },
        );
        let out = run_workload(Arc::new(vfs.clone()), &ops);
        assert!(out.crashed, "torn write {w} must crash the run");
        let (_, torn) = check_recovery(vfs.durable_state(), &out, &dumps);
        if torn {
            torn_reports += 1;
        }
    }
    assert!(
        torn_reports > 0,
        "torn writes must be detected and reported"
    );
}

#[test]
fn transient_faults_never_panic_and_recover() {
    let ops = workload(0xFACADE, 120);
    let dumps = oracle_dumps(&ops);

    let probe = FaultVfs::new(MemVfs::new(), FaultPlan::default());
    let out = run_workload(Arc::new(probe.clone()), &ops);
    assert!(!out.crashed);
    let total_ops = probe.ops();

    for f in (1..=total_ops).step_by(7) {
        let vfs = FaultVfs::new(
            MemVfs::new(),
            FaultPlan {
                fail_at_op: Some(f),
                ..FaultPlan::default()
            },
        );
        let out = run_workload(Arc::new(vfs.clone()), &ops);
        // A transient fault is not a crash of the machine: recovery runs
        // against the live file system, not the crash view.
        let (rec, _) =
            Database::open_durable_with(Arc::new(vfs.clone()), Path::new(DB_PATH), small_opts())
                .expect("reopen after transient fault");
        if let Err(problems) = rec.check_invariants() {
            panic!("invariants violated after transient fault {f}: {problems:?}");
        }
        let n = rec.committed_seq() as usize;
        assert!(
            out.acked <= n && n <= out.attempted.max(out.acked),
            "fault {f}: recovered {n}, acked {}, attempted {}",
            out.acked,
            out.attempted
        );
        assert_eq!(rec.logical_dump(), dumps[n], "fault {f} diverges");
    }
}

#[test]
fn bit_flips_in_wal_detected_and_skipped() {
    let ops = workload(0xDECADE, 150);
    let dumps = oracle_dumps(&ops);

    // Run on a plain MemVfs with a huge checkpoint threshold so the whole
    // workload stays in the WAL.
    let mem = MemVfs::new();
    let opts = DurabilityOptions {
        checkpoint_wal_bytes: u64::MAX,
    };
    let (mut db, _) =
        Database::open_durable_with(Arc::new(mem.clone()), Path::new(DB_PATH), opts.clone())
            .expect("open");
    for op in &ops {
        let _ = apply_op(&mut db, op);
    }
    drop(db);

    let wal_path = sensormeta_relstore::wal_path_for(Path::new(DB_PATH));
    let clean = mem.read(&wal_path).expect("wal exists");
    let scan = scan_wal(&clean);
    assert!(scan.is_clean());
    assert_eq!(scan.committed.len(), ops.len(), "one tx per op");

    for frac in [3u64, 2, 1] {
        // Flip a bit at 1/3, 1/2, and near the end of the log body.
        let mut corrupt = clean.clone();
        let ix = 8 + (corrupt.len() - 9) / frac as usize;
        corrupt[ix] ^= 0x20;
        let vfs = MemVfs::new();
        vfs.install(&wal_path, corrupt.clone());

        // Read-only recovering open: reports the damage, recovers the
        // committed prefix, and writes nothing.
        let (rec, report) = Database::open_recovering(Arc::new(vfs.clone()), Path::new(DB_PATH))
            .expect("recovering open");
        assert!(
            !report.wal_problems.is_empty(),
            "bit flip at {ix} must be reported"
        );
        assert!(report.discarded_bytes > 0);
        let n = report.last_seq as usize;
        assert!(n < ops.len(), "corruption must cut the log short");
        assert_eq!(rec.logical_dump(), dumps[n]);
        if let Err(problems) = rec.check_invariants() {
            panic!("invariants violated after bit flip: {problems:?}");
        }
        assert_eq!(
            vfs.read(&wal_path).expect("wal still present"),
            corrupt,
            "recovering open must not modify the store"
        );

        // A durable open folds the recovered prefix and truncates the log;
        // a subsequent open is clean.
        let (_, report) =
            Database::open_durable_with(Arc::new(vfs.clone()), Path::new(DB_PATH), opts.clone())
                .expect("durable open after corruption");
        assert!(report.checkpointed);
        let (rec2, report2) =
            Database::open_durable_with(Arc::new(vfs.clone()), Path::new(DB_PATH), opts.clone())
                .expect("clean reopen");
        assert!(report2.wal_problems.is_empty());
        assert_eq!(rec2.committed_seq() as usize, n);
        assert_eq!(rec2.logical_dump(), dumps[n]);
    }
}

/// A read-only recovering open beside a writer that is still running — what
/// `Smr::load` does next to a serving primary — sees exactly the writer's
/// committed state and writes nothing, including right after the writer
/// checkpointed and started a fresh log.
#[test]
fn recovering_open_beside_a_live_writer_matches_it() {
    let ops = workload(0xFEED, 180);
    let dumps = oracle_dumps(&ops);
    let mem = MemVfs::new();
    let path = Path::new(DB_PATH);
    let wal_path = sensormeta_relstore::wal_path_for(path);
    let (mut db, _) =
        Database::open_durable_with(Arc::new(mem.clone()), path, small_opts()).expect("open");
    let wal_len = || mem.read(&wal_path).map_or(0, |b| b.len());
    let mut prev_len = wal_len();
    let mut after_checkpoint = 0;
    for (i, op) in ops.iter().enumerate() {
        let _ = apply_op(&mut db, op);
        let len = wal_len();
        let checkpointed = len < prev_len;
        prev_len = len;
        if !checkpointed && i % 7 != 0 {
            continue;
        }
        after_checkpoint += usize::from(checkpointed);
        let files = (mem.read(path).ok(), mem.read(&wal_path).ok());
        let (rec, report) =
            Database::open_recovering(Arc::new(mem.clone()), path).expect("recovering open");
        assert_eq!(report.last_seq, db.committed_seq(), "after op {i}");
        assert_eq!(rec.logical_dump(), db.logical_dump(), "after op {i}");
        assert_eq!(rec.logical_dump(), dumps[i + 1], "after op {i}");
        assert_eq!(
            (mem.read(path).ok(), mem.read(&wal_path).ok()),
            files,
            "recovering open modified the store after op {i}"
        );
    }
    assert!(after_checkpoint > 0, "the workload never checkpointed");
}

/// The workload cut into transactions of 1 to 6 operations. Every seventh
/// one aborts: its closure fails after its writes, so it is rolled back and
/// logged nowhere.
fn transactions(seed: u64, ops: usize) -> Vec<(Range<usize>, bool)> {
    let mut rng = Rng::new(seed);
    let mut txs = Vec::new();
    let mut start = 0;
    while start < ops {
        let end = (start + 1 + rng.below(6) as usize).min(ops);
        txs.push((start..end, txs.len() % 7 == 6));
        start = end;
    }
    txs
}

/// After each prefix of `g` transactions: the operations logged so far
/// (one sequence number each) and the oracle's state.
fn transaction_oracle(ops: &[WorkOp], txs: &[(Range<usize>, bool)]) -> Vec<(usize, Dump)> {
    let mut db = Database::new();
    let mut logged = 0;
    let mut after = vec![(0, db.logical_dump())];
    for (range, aborts) in txs {
        if !aborts {
            for op in &ops[range.clone()] {
                let _ = apply_op(&mut db, op);
            }
            logged += range.len();
        }
        after.push((logged, db.logical_dump()));
    }
    after
}

/// Runs the transactions until completion or the first storage error.
/// `acked` and `attempted` count transactions.
fn run_transactions(vfs: Arc<dyn Vfs>, ops: &[WorkOp], txs: &[(Range<usize>, bool)]) -> Outcome {
    let Ok((mut db, _)) = Database::open_durable_with(vfs, Path::new(DB_PATH), small_opts()) else {
        return Outcome {
            acked: 0,
            attempted: 0,
            crashed: true,
        };
    };
    for (g, (range, aborts)) in txs.iter().enumerate() {
        let result = db.transaction(|db| {
            for op in &ops[range.clone()] {
                // A logical failure is logged and replayed like a success.
                match apply_op(db, op) {
                    Err(e) if is_storage_err(&e) => return Err(e),
                    _ => {}
                }
            }
            if *aborts {
                return Err(RelError::Exec("the caller aborts".into()));
            }
            Ok(())
        });
        match result {
            Err(e) if is_storage_err(&e) => {
                return Outcome {
                    acked: g,
                    attempted: g + 1,
                    crashed: true,
                };
            }
            Err(e) => assert!(*aborts, "transaction {g} failed: {e}"),
            Ok(()) => assert!(!aborts, "transaction {g} should have aborted"),
        }
    }
    Outcome {
        acked: txs.len(),
        attempted: txs.len(),
        crashed: false,
    }
}

#[test]
fn transactions_crashed_at_every_syncpoint_recover_whole_or_not_at_all() {
    let ops = workload(0x7A5C, 220);
    let txs = transactions(0x7A5C, ops.len());
    let after = transaction_oracle(&ops, &txs);
    assert!(
        txs.iter().any(|(r, _)| r.len() > 1),
        "multi-op transactions"
    );

    let probe = FaultVfs::new(MemVfs::new(), FaultPlan::default());
    let out = run_transactions(Arc::new(probe.clone()), &ops, &txs);
    assert!(!out.crashed, "probe run must not crash");
    let total_syncs = probe.syncs();

    let mut partial_prefixes = 0;
    for k in 1..=total_syncs {
        let vfs = FaultVfs::new(
            MemVfs::new(),
            FaultPlan {
                crash_at_sync: Some(k),
                crash_spill: ((k * 13) % 120) as usize,
                ..FaultPlan::default()
            },
        );
        let out = run_transactions(Arc::new(vfs.clone()), &ops, &txs);
        assert!(out.crashed, "syncpoint {k} must crash the run");
        let (rec, _) = Database::open_durable_with(
            Arc::new(vfs.durable_state()),
            Path::new(DB_PATH),
            small_opts(),
        )
        .expect("recovery open must succeed");
        if let Err(problems) = rec.check_invariants() {
            panic!("invariants violated after crash {k}: {problems:?}");
        }
        let n = rec.committed_seq() as usize;
        let Some(g) = (out.acked..=out.attempted).find(|&g| after[g].0 == n) else {
            panic!(
                "crash {k}: recovered {n} ops, which is no whole number of the \
                 transactions {}..={} ({:?} ops)",
                out.acked,
                out.attempted,
                &after[out.acked..=out.attempted]
                    .iter()
                    .map(|(n, _)| n)
                    .collect::<Vec<_>>()
            );
        };
        if g < out.attempted {
            partial_prefixes += 1;
        }
        assert_eq!(
            rec.logical_dump(),
            after[g].1,
            "crash {k} diverges after {g} transactions"
        );
    }
    assert!(
        partial_prefixes > 0,
        "some crash must lose the transaction in flight"
    );
}
