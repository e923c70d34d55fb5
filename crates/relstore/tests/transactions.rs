//! `Database::transaction`: the mutations of one closure are applied as
//! they run and logged as one WAL transaction with one fsync when it
//! returns `Ok`. When the closure or the commit fails, or the closure
//! unwinds, memory returns to where it was and the log holds nothing of it.

use sensormeta_relstore::vfs::{FaultPlan, FaultVfs, MemVfs, INJECTED_FAULT};
use sensormeta_relstore::wal::scan_wal;
use sensormeta_relstore::{wal_path_for, Database, DurabilityOptions, RelError, Value, Vfs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::Arc;

const DB_PATH: &str = "tx.snap";

/// A durable database over `vfs` holding one table with one row.
fn open(vfs: &FaultVfs) -> Database {
    let (mut db, _) = Database::open_durable_with(
        Arc::new(vfs.clone()),
        Path::new(DB_PATH),
        DurabilityOptions::default(),
    )
    .expect("open durable");
    db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, name TEXT NOT NULL)")
        .expect("create");
    db.execute("CREATE INDEX t_name ON t (name)")
        .expect("index");
    db.insert_row("t", vec![Value::Int(1), Value::text("one")])
        .expect("insert");
    db
}

fn wal_bytes(vfs: &FaultVfs) -> Vec<u8> {
    vfs.durable_state()
        .read(&wal_path_for(Path::new(DB_PATH)))
        .expect("read wal")
}

/// Three mutations of every logged kind: a row insert, an SQL statement
/// and a programmatic table creation.
fn three_writes(db: &mut Database) -> Result<(), RelError> {
    db.insert_row("t", vec![Value::Int(2), Value::text("two")])?;
    db.execute("UPDATE t SET name = 'uno' WHERE id = 1")?;
    db.execute("CREATE TABLE u (x INTEGER)")?;
    Ok(())
}

#[test]
fn a_transaction_is_one_wal_commit_with_one_fsync() {
    let vfs = FaultVfs::new(MemVfs::new(), FaultPlan::default());
    let mut db = open(&vfs);
    let (syncs, seq) = (vfs.syncs(), db.committed_seq());
    db.transaction(three_writes).expect("commit");
    assert_eq!(
        vfs.syncs(),
        syncs + 1,
        "one group fsync for the transaction"
    );
    assert_eq!(db.committed_seq(), seq + 3, "one sequence number per op");
    let scan = scan_wal(&wal_bytes(&vfs));
    let last = scan.committed.last().expect("a committed transaction");
    assert_eq!(last.ops.len(), 3);

    let expected = db.logical_dump();
    let (reopened, report) = Database::open_durable_with(
        Arc::new(vfs.durable_state()),
        Path::new(DB_PATH),
        DurabilityOptions::default(),
    )
    .expect("reopen");
    assert_eq!(report.last_seq, seq + 3);
    assert_eq!(reopened.logical_dump(), expected);
}

#[test]
fn a_closure_error_restores_memory_and_logs_nothing() {
    let vfs = FaultVfs::new(MemVfs::new(), FaultPlan::default());
    let mut db = open(&vfs);
    let (before, log, seq) = (db.logical_dump(), wal_bytes(&vfs), db.committed_seq());
    let err = db
        .transaction(|db| {
            three_writes(db)?;
            assert!(db.has_table("u"), "writes apply inside the transaction");
            Err::<(), _>(RelError::Exec("caller gave up".into()))
        })
        .expect_err("the closure's error comes back");
    assert_eq!(
        err.to_string(),
        RelError::Exec("caller gave up".into()).to_string()
    );
    assert_eq!(db.logical_dump(), before, "memory restored");
    assert!(!db.has_table("u"), "the created table is gone");
    assert_eq!(wal_bytes(&vfs), log, "no byte appended to the log");
    assert_eq!(db.committed_seq(), seq);
    assert!(!db.in_transaction());

    // The log stays usable: the next write commits and survives a reopen.
    db.insert_row("t", vec![Value::Int(3), Value::text("three")])
        .expect("log still usable");
    let expected = db.logical_dump();
    let (reopened, _) = Database::open_durable_with(
        Arc::new(vfs.durable_state()),
        Path::new(DB_PATH),
        DurabilityOptions::default(),
    )
    .expect("reopen");
    assert_eq!(reopened.logical_dump(), expected);
}

#[test]
fn a_call_inside_a_transaction_joins_it() {
    let vfs = FaultVfs::new(MemVfs::new(), FaultPlan::default());
    let mut db = open(&vfs);
    let syncs = vfs.syncs();
    db.transaction(|db| {
        db.transaction(three_writes)?;
        db.insert_row("t", vec![Value::Int(4), Value::text("four")])
    })
    .expect("commit");
    assert_eq!(vfs.syncs(), syncs + 1, "the inner call added no commit");
    let scan = scan_wal(&wal_bytes(&vfs));
    assert_eq!(scan.committed.last().map(|tx| tx.ops.len()), Some(4));

    // An inner error rolls back the outer transaction's writes too.
    let before = db.logical_dump();
    let _ = db.transaction(|db| {
        db.insert_row("t", vec![Value::Int(5), Value::text("five")])?;
        db.transaction(|_| Err::<(), _>(RelError::Exec("inner".into())))
    });
    assert_eq!(db.logical_dump(), before);
}

/// Runs `three_writes` in a transaction whose `nth` I/O operation after
/// `open` fails: 1 is the commit's write, 2 its fsync.
fn failed_commit(nth: u64) {
    let probe = FaultVfs::new(MemVfs::new(), FaultPlan::default());
    drop(open(&probe));
    let vfs = FaultVfs::new(
        MemVfs::new(),
        FaultPlan {
            fail_at_op: Some(probe.ops() + nth),
            ..FaultPlan::default()
        },
    );
    let mut db = open(&vfs);
    let before = db.logical_dump();
    let err = db.transaction(three_writes).expect_err("the commit fails");
    assert!(err.to_string().contains(INJECTED_FAULT), "{err}");
    assert_eq!(db.logical_dump(), before, "memory restored");
    assert!(!db.in_transaction());

    // Poisoned: the fault is transient, yet no later write is accepted,
    // in or out of a transaction, until the database is reopened.
    let refused = db.insert_row("t", vec![Value::Int(9), Value::text("nine")]);
    assert!(matches!(refused, Err(RelError::Wal(_))), "{refused:?}");
    let refused = db.transaction(three_writes);
    assert!(matches!(refused, Err(RelError::Wal(_))), "{refused:?}");
    assert_eq!(db.logical_dump(), before);

    let (reopened, _) = Database::open_durable_with(
        Arc::new(vfs.durable_state()),
        Path::new(DB_PATH),
        DurabilityOptions::default(),
    )
    .expect("reopen");
    assert_eq!(reopened.logical_dump(), before, "nothing of it was logged");
}

#[test]
fn a_failed_commit_write_restores_memory_and_poisons_the_log() {
    failed_commit(1);
}

#[test]
fn a_failed_commit_fsync_restores_memory_and_poisons_the_log() {
    failed_commit(2);
}

#[test]
fn a_transaction_rolls_back_without_durability_too() {
    let mut db = Database::new();
    db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, name TEXT NOT NULL)")
        .expect("create");
    let before = db.logical_dump();
    let _ = db.transaction(|db| {
        db.insert_row("t", vec![Value::Int(1), Value::text("one")])?;
        db.insert_row("t", vec![Value::Int(1), Value::text("again")])
    });
    assert_eq!(db.logical_dump(), before);
    db.transaction(|db| db.insert_row("t", vec![Value::Int(1), Value::text("one")]))
        .expect("commit");
    assert_eq!(db.table("t").map(|t| t.len()).ok(), Some(1));
}

#[test]
fn a_transaction_that_unwinds_rolls_back_and_the_next_one_is_logged() {
    let vfs = FaultVfs::new(MemVfs::new(), FaultPlan::default());
    let mut db = open(&vfs);
    let (before, logged) = (db.logical_dump(), wal_bytes(&vfs));
    let unwound = catch_unwind(AssertUnwindSafe(|| {
        db.transaction(|db| -> Result<(), RelError> {
            three_writes(db)?;
            panic!("the closure panics");
        })
    }));
    assert!(unwound.is_err());
    assert!(!db.in_transaction(), "a transaction stayed open");
    assert_eq!(db.logical_dump(), before);
    assert_eq!(wal_bytes(&vfs), logged, "nothing of it was logged");

    // The next write is a transaction of its own, logged and fsynced.
    let syncs = vfs.syncs();
    db.transaction(three_writes).expect("commit");
    assert_eq!(vfs.syncs(), syncs + 1);
    let (reopened, _) = Database::open_durable_with(
        Arc::new(vfs.durable_state()),
        Path::new(DB_PATH),
        DurabilityOptions::default(),
    )
    .expect("reopen");
    assert_eq!(reopened.logical_dump(), db.logical_dump());
}
