//! The `Database` facade: catalog + SQL entry points + snapshot persistence.
//!
//! A database can run in two modes. In-memory/snapshot mode (the default)
//! behaves as before: mutations apply directly and [`Database::save`]
//! writes whole-database snapshots. Durable mode — entered through
//! [`Database::open_durable`] — appends every mutation to a checksummed
//! write-ahead log *before* applying it, so a crash at any point loses no
//! committed operation (see the [`crate::wal`] and [`crate::recover`]
//! module docs for the format and replay rules).
//!
//! [`Database::transaction`] groups mutations: inside it each one is
//! applied at once and buffered, and the buffer is logged as one WAL
//! transaction with one fsync when the closure returns `Ok`. On an error —
//! the closure's or the commit's — or an unwind, the catalog is restored
//! from a copy taken at the start and nothing is logged.

use crate::encoding::{next_byte, read_len, read_str, write_str, write_varint};
use crate::error::{RelError, Result};
use crate::heap::{Heap, RowId};
use crate::recover::{
    append_seq_trailer, open_impl, write_snapshot_durably, Durability, DurabilityOptions,
    RecoveryReport,
};
use crate::schema::TableSchema;
use crate::sql::ast::Statement;
use crate::sql::exec::{execute, explain_select, Catalog, ExecOutcome, ResultSet};
use crate::sql::parser::{parse, parse_script};
use crate::sql::planner::PlannerConfig;
use crate::table::{IndexDef, IndexKind, Table};
use crate::value::Value;
use crate::vfs::{StdVfs, Vfs};
use crate::wal::{LogicalOp, Wal};
use sensormeta_obs as obs;
use std::ops::Bound;
use std::path::Path;
use std::sync::Arc;

/// An embedded relational database: a catalog of tables with SQL access.
#[derive(Debug, Default)]
pub struct Database {
    catalog: Catalog,
    durability: Option<Durability>,
    tx: Option<OpenTx>,
}

/// An open transaction: the catalog as it was at [`Database::begin`], to
/// restore on rollback, and the operations applied since, to log at
/// [`Database::commit`] (durable mode only).
#[derive(Debug)]
struct OpenTx {
    before: Catalog,
    ops: Vec<LogicalOp>,
}

/// The owner of a [`Database`] whose own state must roll back with the
/// tables — what [`Database::transaction_over`] runs over. A database is
/// its own host, with nothing beside the tables to restore.
pub trait TxHost {
    /// The owner's state as saved when a transaction begins.
    type Saved;
    /// The database the transaction runs on.
    fn database(&mut self) -> &mut Database;
    /// Saves the owner's state when a transaction begins.
    fn save(&mut self) -> Self::Saved;
    /// Puts the saved state back when the transaction rolls back.
    fn restore(&mut self, saved: Self::Saved);
}

impl TxHost for Database {
    type Saved = ();

    fn database(&mut self) -> &mut Database {
        self
    }

    fn save(&mut self) {}

    fn restore(&mut self, (): ()) {}
}

/// A transaction opened by [`Database::transaction_over`]. Dropped while
/// it still holds the host's saved state — on an error return or an
/// unwind — it rolls the catalog back and restores that state.
struct OpenGuard<'a, H: TxHost> {
    host: &'a mut H,
    saved: Option<H::Saved>,
}

impl<H: TxHost> Drop for OpenGuard<'_, H> {
    fn drop(&mut self) {
        if let Some(saved) = self.saved.take() {
            self.host.database().rollback();
            self.host.restore(saved);
        }
    }
}

impl Database {
    /// Creates an empty database.
    pub fn new() -> Database {
        Database::default()
    }

    /// Opens (or creates) a durable database at `path` on the standard
    /// filesystem, recovering committed work from the write-ahead log.
    pub fn open_durable(path: &Path) -> Result<(Database, RecoveryReport)> {
        Database::open_durable_with(Arc::new(StdVfs), path, DurabilityOptions::default())
    }

    /// [`Database::open_durable`] with an explicit VFS and options — the
    /// fault-injection entry point.
    pub fn open_durable_with(
        vfs: Arc<dyn Vfs>,
        path: &Path,
        opts: DurabilityOptions,
    ) -> Result<(Database, RecoveryReport)> {
        open_impl(vfs, path, Some(opts))
    }

    /// Opens the database at `path` read-only, replaying the WAL in memory
    /// without touching anything on disk. Errors if neither a snapshot nor
    /// a WAL exists. The returned database has no log attached: mutations
    /// work but are not persisted.
    pub fn open_recovering(vfs: Arc<dyn Vfs>, path: &Path) -> Result<(Database, RecoveryReport)> {
        open_impl(vfs, path, None)
    }

    /// A structural copy-on-write clone for MVCC reader versions: every
    /// table shares its heap pages and index trees (`Arc`) with this
    /// database until either side mutates, so the clone costs refcount
    /// bumps, not data copies. The clone carries no durability — WAL file
    /// handles stay with the writing primary, and published reader
    /// versions are immutable so they never need to log.
    pub fn clone_reader(&self) -> Database {
        Database {
            catalog: self.catalog.clone(),
            durability: None,
            tx: None,
        }
    }

    /// Highest operation sequence number committed so far (0 when not
    /// durable).
    pub fn committed_seq(&self) -> u64 {
        self.durability.as_ref().map_or(0, |d| d.seq)
    }

    pub(crate) fn catalog_mut(&mut self) -> &mut Catalog {
        &mut self.catalog
    }

    pub(crate) fn attach_durability(&mut self, d: Durability) {
        self.durability = Some(d);
    }

    /// Runs `f` as one transaction. Its mutations are applied as they run
    /// and, in durable mode, logged together when it returns `Ok`: one WAL
    /// transaction, one group fsync. If `f` returns `Err` or unwinds, or
    /// the commit fails, the catalog is restored to what it was before `f`
    /// ran and nothing is logged; a failed commit also poisons the log, as
    /// a failed single-statement commit does. A call made inside an open
    /// transaction joins it.
    pub fn transaction<T>(&mut self, f: impl FnOnce(&mut Database) -> Result<T>) -> Result<T> {
        Database::transaction_over(self, f)
    }

    /// [`Database::transaction`] over a [`TxHost`]: the owner of a
    /// database whose own state rolls back with the tables. The host's
    /// state is saved at begin and restored whenever the catalog is: on an
    /// error from `f` or from the commit, and when `f` unwinds, so a panic
    /// caught further up leaves no transaction open.
    pub fn transaction_over<H: TxHost, T, E: From<RelError>>(
        host: &mut H,
        f: impl FnOnce(&mut H) -> std::result::Result<T, E>,
    ) -> std::result::Result<T, E> {
        if host.database().in_transaction() {
            return f(host);
        }
        host.database().begin()?;
        let saved = host.save();
        let mut open = OpenGuard {
            host,
            saved: Some(saved),
        };
        let v = f(&mut *open.host)?;
        open.host.database().commit()?;
        open.saved = None;
        Ok(v)
    }

    /// True in durable mode: mutations are logged to a write-ahead log.
    pub fn is_durable(&self) -> bool {
        self.durability.is_some()
    }

    /// True while a [`Database::transaction`] is open.
    pub fn in_transaction(&self) -> bool {
        self.tx.is_some()
    }

    /// Opens a transaction for [`Database::transaction_over`], the one
    /// driver. Until `commit` or `rollback`, mutations are applied but not
    /// logged, and no checkpoint runs. Fails when one is already open, or
    /// when the log is poisoned (the commit could not succeed, so nothing
    /// is applied).
    fn begin(&mut self) -> Result<()> {
        if self.in_transaction() {
            return Err(RelError::Exec("a transaction is already open".into()));
        }
        if let Some(why) = self.durability.as_ref().and_then(|d| d.poisoned.as_ref()) {
            return Err(poisoned_error(why));
        }
        self.tx = Some(OpenTx {
            before: self.catalog.clone(),
            ops: Vec::new(),
        });
        Ok(())
    }

    /// Commits the open transaction: in durable mode its operations are
    /// logged as one WAL transaction and made durable with one fsync,
    /// sequence numbers being assigned here. On failure the catalog is
    /// rolled back and the log poisoned. Errors when none is open.
    fn commit(&mut self) -> Result<()> {
        let tx = self
            .tx
            .take()
            .ok_or_else(|| RelError::Exec("no open transaction to commit".into()))?;
        if !tx.ops.is_empty() {
            if let Err(e) = self.wal_commit(tx.ops) {
                self.catalog = tx.before;
                return Err(e);
            }
        }
        self.maybe_checkpoint();
        Ok(())
    }

    /// Abandons the open transaction: the catalog returns to what it was at
    /// `begin` and nothing is logged. No-op when none is open.
    fn rollback(&mut self) {
        if let Some(tx) = self.tx.take() {
            self.catalog = tx.before;
        }
    }

    /// Records one mutation ahead of applying it. Outside a transaction it
    /// is logged and made durable at once; inside one it joins the
    /// transaction's buffer. Callers check for durable mode first, so a
    /// non-durable database builds no operation.
    fn log(&mut self, op: LogicalOp) -> Result<()> {
        match self.tx.as_mut() {
            Some(tx) => {
                tx.ops.push(op);
                Ok(())
            }
            None => self.wal_commit(vec![op]),
        }
    }

    /// Logs `ops` as one committed transaction. On failure the log is
    /// poisoned: the file may end in a torn frame, so further mutations are
    /// refused until the database is reopened (reads remain available).
    fn wal_commit(&mut self, ops: Vec<LogicalOp>) -> Result<()> {
        let Some(d) = self.durability.as_mut() else {
            return Ok(());
        };
        if let Some(why) = &d.poisoned {
            return Err(poisoned_error(why));
        }
        let seq_ops: Vec<(u64, LogicalOp)> = ops
            .into_iter()
            .map(|op| {
                d.seq += 1;
                (d.seq, op)
            })
            .collect();
        d.tx += 1;
        let tx = d.tx;
        if let Err(e) = d.wal.commit(tx, &seq_ops) {
            d.poisoned = Some(e.to_string());
            return Err(e);
        }
        Ok(())
    }

    /// Checkpoints automatically once the WAL outgrows the configured
    /// threshold, never inside a transaction. Failures poison the log (the
    /// committed mutation that triggered the checkpoint is already durable,
    /// so it still succeeds).
    fn maybe_checkpoint(&mut self) {
        let Some(d) = &self.durability else { return };
        if self.tx.is_some()
            || d.poisoned.is_some()
            || d.wal.appended_bytes() < d.opts.checkpoint_wal_bytes
        {
            return;
        }
        if let Err(e) = self.checkpoint() {
            if let Some(d) = self.durability.as_mut() {
                d.poisoned = Some(e.to_string());
            }
        }
    }

    /// Folds the log into a fresh durable snapshot and truncates it.
    /// No-op in non-durable mode. Errors leave the database poisoned for
    /// writes; reopening recovers from the last durable state. Refused
    /// inside a transaction, whose mutations are not yet logged.
    pub fn checkpoint(&mut self) -> Result<()> {
        let Some(d) = &self.durability else {
            return Ok(());
        };
        if self.tx.is_some() {
            return Err(RelError::Exec(
                "cannot checkpoint inside an open transaction".into(),
            ));
        }
        let _timing = obs::global().span("relstore_checkpoint");
        obs::counter("relstore_checkpoints_total").inc();
        let seq = d.seq;
        let mut bytes = self.to_snapshot();
        append_seq_trailer(&mut bytes, seq);
        let Some(d) = self.durability.as_mut() else {
            return Ok(());
        };
        let res = write_snapshot_durably(d.vfs.as_ref(), &d.snap_path, &bytes)
            .and_then(|()| Wal::create(&d.vfs, &d.wal_path));
        match res {
            Ok(wal) => {
                d.wal = wal;
                d.snapshot_seq = seq;
                Ok(())
            }
            Err(e) => {
                d.poisoned = Some(e.to_string());
                Err(e)
            }
        }
    }

    /// Executes one SQL statement. In durable mode the statement text is
    /// logged and made durable before it is applied (at the commit, inside
    /// a transaction).
    pub fn execute(&mut self, sql: &str) -> Result<ExecOutcome> {
        self.execute_with(sql, PlannerConfig::Costed)
    }

    /// [`Database::execute`] with an explicit planner configuration for
    /// how a SELECT, UPDATE or DELETE finds its rows. [`PlannerConfig::Naive`]
    /// scans every table in written order — the reference the property
    /// suite compares costed plans against. The rows returned or changed
    /// are the same either way, so a logged statement replays under
    /// [`PlannerConfig::Costed`].
    pub fn execute_with(&mut self, sql: &str, cfg: PlannerConfig) -> Result<ExecOutcome> {
        let stmt = parse(sql)?;
        let mutates = stmt.is_mutation();
        if self.durability.is_some() && mutates {
            self.log(LogicalOp::Sql(sql.to_owned()))?;
        }
        let out = execute(&mut self.catalog, stmt, cfg);
        self.maybe_checkpoint();
        out
    }

    /// Executes a semicolon-separated script, returning the last outcome.
    /// In durable mode the whole script is logged as one operation; replay
    /// re-runs it with identical stop-at-first-error semantics.
    pub fn execute_script(&mut self, sql: &str) -> Result<ExecOutcome> {
        let stmts = parse_script(sql)?;
        let mutates = stmts.iter().any(Statement::is_mutation);
        if self.durability.is_some() && mutates {
            self.log(LogicalOp::Sql(sql.to_owned()))?;
        }
        let mut last = ExecOutcome::Done;
        for stmt in stmts {
            last = execute(&mut self.catalog, stmt, PlannerConfig::Costed)?;
        }
        self.maybe_checkpoint();
        Ok(last)
    }

    /// Runs a SELECT (or EXPLAIN SELECT) without requiring mutable access.
    pub fn query(&self, sql: &str) -> Result<ResultSet> {
        self.query_with(sql, PlannerConfig::Costed)
    }

    /// Runs a SELECT under an explicit planner configuration.
    /// [`PlannerConfig::Naive`] forces full scans and written join order —
    /// the reference execution the property suite and benches compare
    /// costed plans against. An EXPLAIN always shows the costed plan.
    pub fn query_with(&self, sql: &str, cfg: PlannerConfig) -> Result<ResultSet> {
        match parse(sql)? {
            Statement::Select(sel) => {
                crate::sql::exec::execute_select_with(&self.catalog, &sel, cfg)
            }
            Statement::Explain(sel) => explain_select(&self.catalog, &sel),
            other => Err(RelError::Exec(format!(
                "query() only accepts SELECT, got {other:?}"
            ))),
        }
    }

    /// Number of rows in `table` whose `column` equals `value`, without
    /// executing a query: an exact B-tree count when an index starts with
    /// the column (a composite index counts through its key prefix),
    /// otherwise the table's row count, an upper bound. Used by
    /// cross-engine planners to order condition evaluation by selectivity.
    pub fn estimate_eq(&self, table: &str, column: &str, value: &Value) -> Result<usize> {
        let t = self.table(table)?;
        let col = t
            .schema
            .column_index(column)
            .ok_or_else(|| RelError::NoSuchColumn(column.to_owned()))?;
        let leading = t
            .btree_indexes()
            .filter(|(def, _)| def.columns.first() == Some(&col))
            .min_by_key(|(def, _)| def.columns.len());
        Ok(leading.map_or(t.len(), |(_, ix)| {
            ix.count(
                std::slice::from_ref(value),
                Bound::Unbounded,
                Bound::Unbounded,
            )
        }))
    }

    /// Convenience: runs a SELECT and returns the first value of the first
    /// row, if any.
    pub fn query_scalar(&self, sql: &str) -> Result<Option<Value>> {
        let rs = self.query(sql)?;
        Ok(rs
            .rows
            .into_iter()
            .next()
            .and_then(|r| r.into_iter().next()))
    }

    /// Inserts a row through the programmatic API. In durable mode the row
    /// is logged before it is applied (made durable at once, or at the
    /// commit inside a transaction).
    pub fn insert_row(&mut self, table: &str, row: Vec<Value>) -> Result<RowId> {
        if !self.has_table(table) {
            return Err(RelError::NoSuchTable(table.to_owned()));
        }
        if self.durability.is_some() {
            self.log(LogicalOp::Insert {
                table: table.to_owned(),
                row: row.clone(),
            })?;
        }
        let id = self.table_mut(table)?.insert(row)?;
        self.maybe_checkpoint();
        Ok(id)
    }

    /// Immutable access to a table.
    pub fn table(&self, name: &str) -> Result<&Table> {
        self.catalog
            .get(&name.to_ascii_lowercase())
            .ok_or_else(|| RelError::NoSuchTable(name.to_owned()))
    }

    /// Mutable access to a table; private, since a write through it would
    /// skip the log.
    fn table_mut(&mut self, name: &str) -> Result<&mut Table> {
        self.catalog
            .get_mut(&name.to_ascii_lowercase())
            .ok_or_else(|| RelError::NoSuchTable(name.to_owned()))
    }

    /// Names of all tables, sorted.
    pub fn table_names(&self) -> Vec<String> {
        self.catalog
            .values()
            .map(|t| t.schema.name.clone())
            .collect()
    }

    /// Deep structural check (fsck) of every table: heap layout, index tree
    /// shape, and heap ↔ index agreement. Returns every violated invariant,
    /// prefixed with the table name.
    pub fn check_invariants(&self) -> std::result::Result<(), Vec<String>> {
        let mut problems = Vec::new();
        for name in self.table_names() {
            if let Ok(table) = self.table(&name) {
                if let Err(table_problems) = table.check_invariants() {
                    problems.extend(table_problems.into_iter().map(|p| format!("{name}: {p}")));
                }
            }
        }
        if problems.is_empty() {
            Ok(())
        } else {
            Err(problems)
        }
    }

    /// True if a table exists.
    pub fn has_table(&self, name: &str) -> bool {
        self.catalog.contains_key(&name.to_ascii_lowercase())
    }

    // ---------- snapshot persistence ----------

    const MAGIC: &'static [u8; 8] = b"SMRELST1";

    /// Serializes the whole database into a byte buffer.
    pub fn to_snapshot(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(Self::MAGIC);
        write_varint(&mut out, self.catalog.len() as u64);
        for table in self.catalog.values() {
            table.schema.encode(&mut out);
            let defs: Vec<&IndexDef> = table.index_defs().collect();
            write_varint(&mut out, defs.len() as u64);
            for d in defs {
                write_str(&mut out, &d.name);
                // Kind byte doubles as the historical `unique` flag:
                // 0 = btree, 1 = btree unique, 2 = trigram. Old snapshots
                // (0/1 only) decode unchanged.
                out.push(match d.kind {
                    IndexKind::BTree => u8::from(d.unique),
                    IndexKind::Trigram => 2,
                });
                write_varint(&mut out, d.columns.len() as u64);
                for &c in &d.columns {
                    write_varint(&mut out, c as u64);
                }
            }
            let heap = table.heap().to_snapshot();
            write_varint(&mut out, heap.len() as u64);
            out.extend_from_slice(&heap);
        }
        out
    }

    /// Restores a database from snapshot bytes.
    pub fn from_snapshot(buf: &[u8]) -> Result<Database> {
        if buf.len() < 8 || &buf[..8] != Self::MAGIC {
            return Err(RelError::Snapshot("bad magic".into()));
        }
        let mut pos = 8usize;
        let err = RelError::Snapshot;
        let ntables = read_len(buf, &mut pos, err)?;
        let mut catalog = Catalog::new();
        for _ in 0..ntables {
            let schema = TableSchema::decode(buf, &mut pos, err)?;
            let ndefs = read_len(buf, &mut pos, err)?;
            let mut defs = Vec::with_capacity(ndefs.min(4096));
            for _ in 0..ndefs {
                let dname = read_str(buf, &mut pos, err)?;
                let (unique, kind) = match next_byte(buf, &mut pos, err)? {
                    0 => (false, IndexKind::BTree),
                    1 => (true, IndexKind::BTree),
                    2 => (false, IndexKind::Trigram),
                    other => return Err(err(format!("unknown index kind byte {other}"))),
                };
                let nc = read_len(buf, &mut pos, err)?;
                let mut columns = Vec::with_capacity(nc.min(4096));
                for _ in 0..nc {
                    columns.push(read_len(buf, &mut pos, err)?);
                }
                defs.push(IndexDef {
                    name: dname,
                    unique,
                    columns,
                    kind,
                });
            }
            let hlen = read_len(buf, &mut pos, err)?;
            let end = pos
                .checked_add(hlen)
                .filter(|&e| e <= buf.len())
                .ok_or_else(|| err("heap length out of bounds".into()))?;
            let mut hpos = pos;
            let heap = Heap::from_snapshot(buf, &mut hpos)?;
            if hpos != end {
                return Err(err("heap length mismatch".into()));
            }
            pos = end;
            let name = schema.name.to_ascii_lowercase();
            catalog.insert(name, Table::restore(schema, heap, defs)?);
        }
        Ok(Database {
            catalog,
            durability: None,
            tx: None,
        })
    }

    /// Writes a snapshot file durably: temp file, fsync, atomic rename,
    /// parent-directory fsync. A crash at any point leaves either the old
    /// or the new snapshot fully intact.
    pub fn save(&self, path: &Path) -> Result<()> {
        self.save_with(&StdVfs, path)
    }

    /// [`Database::save`] through an explicit VFS — the fault-injection
    /// entry point.
    pub fn save_with(&self, vfs: &dyn Vfs, path: &Path) -> Result<()> {
        let mut bytes = self.to_snapshot();
        append_seq_trailer(&mut bytes, self.committed_seq());
        write_snapshot_durably(vfs, path, &bytes)
    }

    /// A canonical logical dump: for each table (sorted by name), its rows
    /// encoded and byte-sorted. Two databases with identical logical
    /// contents produce identical dumps regardless of heap layout or row
    /// order — the equivalence check the crash harness uses against its
    /// in-memory oracle.
    pub fn logical_dump(&self) -> Vec<(String, Vec<Vec<u8>>)> {
        self.catalog
            .iter()
            .map(|(name, table)| (name.clone(), table.sorted_encoded_rows()))
            .collect()
    }
}

fn poisoned_error(why: &str) -> RelError {
    RelError::Wal(format!(
        "log disabled after earlier failure ({why}); reopen to recover"
    ))
}
