//! Crash recovery: durable open, WAL replay, and checkpointing.
//!
//! A durable database lives in two files: the snapshot (`<path>`) and the
//! write-ahead log (`<path>.wal`). Opening recovers deterministically:
//!
//! 1. load the snapshot if present and read its sequence-number trailer
//!    (the highest operation folded into it);
//! 2. scan the WAL, verifying frame checksums — a torn or corrupt tail ends
//!    the readable log;
//! 3. replay every committed transaction's operations with sequence numbers
//!    above the snapshot's, in commit order (uncommitted tails are
//!    discarded);
//! 4. if anything was replayed or the log was damaged, checkpoint: write a
//!    fresh snapshot durably (temp file → fsync → rename → directory fsync)
//!    and truncate the log.
//!
//! Checkpoint crash-safety hinges on the sequence trailer: operations are
//! numbered once, the snapshot records the highest number it contains, and
//! replay skips anything at or below it — so a crash between "snapshot
//! renamed" and "log truncated" merely replays zero operations.

use crate::db::Database;
use crate::error::{RelError, Result};
use crate::sql::exec::{execute, Catalog};
use crate::sql::parser::parse_script;
use crate::sql::planner::PlannerConfig;
use crate::vfs::Vfs;
use crate::wal::{crc32, scan_wal, LogicalOp, Wal};
use sensormeta_obs as obs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Tuning knobs for a durable database.
#[derive(Debug, Clone)]
pub struct DurabilityOptions {
    /// Checkpoint automatically once the WAL grows past this many bytes.
    pub checkpoint_wal_bytes: u64,
}

impl Default for DurabilityOptions {
    fn default() -> Self {
        DurabilityOptions {
            checkpoint_wal_bytes: 4 * 1024 * 1024,
        }
    }
}

/// What recovery found and did while opening a database.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecoveryReport {
    /// Highest operation sequence number folded into the loaded snapshot.
    pub snapshot_seq: u64,
    /// Highest operation sequence number in the recovered state.
    pub last_seq: u64,
    /// Committed operations re-applied from the WAL.
    pub replayed_ops: u64,
    /// Committed operations whose replay errored (these also failed at
    /// runtime — deterministic replay reproduces the original outcome).
    pub failed_ops: u64,
    /// Committed operations skipped because the snapshot already contained
    /// them (normal after a crash between checkpoint steps).
    pub skipped_ops: u64,
    /// Bytes discarded from the WAL tail (torn frame, checksum mismatch,
    /// or trailing garbage).
    pub discarded_bytes: usize,
    /// Transactions begun but never committed — discarded.
    pub uncommitted_txs: usize,
    /// Findings from the WAL scan (checksum failures, torn tails, …).
    pub wal_problems: Vec<String>,
    /// True when recovery rewrote the snapshot and truncated the log.
    pub checkpointed: bool,
}

/// The durable half of a [`Database`]: its VFS, file paths, open WAL, and
/// sequencing state.
#[derive(Debug)]
pub(crate) struct Durability {
    pub(crate) vfs: Arc<dyn Vfs>,
    pub(crate) snap_path: PathBuf,
    pub(crate) wal_path: PathBuf,
    pub(crate) wal: Wal,
    /// Last operation sequence number assigned.
    pub(crate) seq: u64,
    /// Highest sequence number covered by the on-disk snapshot.
    pub(crate) snapshot_seq: u64,
    /// Last transaction id written.
    pub(crate) tx: u64,
    /// Once set, the log can no longer be trusted: mutations are refused
    /// until the database is reopened (which recovers from disk).
    pub(crate) poisoned: Option<String>,
    pub(crate) opts: DurabilityOptions,
}

/// The WAL path that accompanies a snapshot path: `<snapshot>.wal`.
pub fn wal_path_for(snapshot: &Path) -> PathBuf {
    let mut os = snapshot.as_os_str().to_os_string();
    os.push(".wal");
    PathBuf::from(os)
}

pub(crate) fn path_with_suffix(path: &Path, suffix: &str) -> PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(suffix);
    PathBuf::from(os)
}

// ---------------------------------------------------------------------------
// Snapshot sequence trailer.
// ---------------------------------------------------------------------------

const SEQ_TRAILER_MAGIC: &[u8; 8] = b"SMRSEQ01";
const SEQ_TRAILER_LEN: usize = 20;

/// Appends the checksummed sequence trailer to snapshot bytes. Older
/// readers ignore trailing bytes, so trailered snapshots stay loadable by
/// [`Database::from_snapshot`].
pub(crate) fn append_seq_trailer(buf: &mut Vec<u8>, seq: u64) {
    let start = buf.len();
    buf.extend_from_slice(SEQ_TRAILER_MAGIC);
    buf.extend_from_slice(&seq.to_le_bytes());
    let crc = crc32(&buf[start..start + 16]);
    buf.extend_from_slice(&crc.to_le_bytes());
}

/// Reads the sequence trailer, if present and checksummed correctly.
pub(crate) fn read_seq_trailer(buf: &[u8]) -> Option<u64> {
    if buf.len() < SEQ_TRAILER_LEN {
        return None;
    }
    let t = &buf[buf.len() - SEQ_TRAILER_LEN..];
    if &t[..8] != SEQ_TRAILER_MAGIC {
        return None;
    }
    let crc = u32::from_le_bytes(t[16..20].try_into().ok()?);
    if crc32(&t[..16]) != crc {
        return None;
    }
    Some(u64::from_le_bytes(t[8..16].try_into().ok()?))
}

// ---------------------------------------------------------------------------
// Durable snapshot writes.
// ---------------------------------------------------------------------------

/// Writes `bytes` to `path` durably: temp file, fsync, atomic rename,
/// directory fsync. A crash at any point leaves either the old or the new
/// snapshot fully intact.
pub(crate) fn write_snapshot_durably(vfs: &dyn Vfs, path: &Path, bytes: &[u8]) -> Result<()> {
    let io =
        |what: &str, e: std::io::Error| RelError::Io(format!("{what} {}: {e}", path.display()));
    let tmp = path_with_suffix(path, ".tmp");
    let mut file = vfs.create(&tmp).map_err(|e| io("create temp for", e))?;
    file.write_all(bytes).map_err(|e| io("write temp for", e))?;
    file.sync().map_err(|e| io("sync temp for", e))?;
    drop(file);
    vfs.rename(&tmp, path).map_err(|e| io("rename into", e))?;
    vfs.sync_parent_dir(path)
        .map_err(|e| io("sync dir of", e))?;
    Ok(())
}

// ---------------------------------------------------------------------------
// Logical replay.
// ---------------------------------------------------------------------------

/// Applies one logical operation to a catalog — the same code path used at
/// runtime, so replay is deterministic.
pub(crate) fn apply_logical(catalog: &mut Catalog, op: &LogicalOp) -> Result<()> {
    match op {
        LogicalOp::Sql(sql) => {
            for stmt in parse_script(sql)? {
                execute(catalog, stmt, PlannerConfig::Costed)?;
            }
            Ok(())
        }
        LogicalOp::Insert { table, row } => {
            let t = catalog
                .get_mut(&table.to_ascii_lowercase())
                .ok_or_else(|| RelError::NoSuchTable(table.clone()))?;
            t.insert(row.clone())?;
            Ok(())
        }
    }
}

// ---------------------------------------------------------------------------
// Open + recover.
// ---------------------------------------------------------------------------

/// Opens a database at `path`, replaying the WAL. With `durable: Some`,
/// the returned database keeps logging (creating files as needed and
/// checkpointing if recovery found anything to fold); with `None` the open
/// is read-only — nothing on disk is touched, and the returned database
/// has no log attached.
pub(crate) fn open_impl(
    vfs: Arc<dyn Vfs>,
    path: &Path,
    durable: Option<DurabilityOptions>,
) -> Result<(Database, RecoveryReport)> {
    let wal_path = wal_path_for(path);
    let snap_exists = vfs.exists(path);
    let wal_exists = vfs.exists(&wal_path);
    if !snap_exists && !wal_exists && durable.is_none() {
        return Err(RelError::Io(format!("no database at {}", path.display())));
    }

    let (mut db, snapshot_seq) = if snap_exists {
        let bytes = vfs
            .read(path)
            .map_err(|e| RelError::Io(format!("read {}: {e}", path.display())))?;
        let seq = read_seq_trailer(&bytes).unwrap_or(0);
        (Database::from_snapshot(&bytes)?, seq)
    } else {
        (Database::new(), 0)
    };

    let mut report = RecoveryReport {
        snapshot_seq,
        last_seq: snapshot_seq,
        ..RecoveryReport::default()
    };

    let mut scan_clean = true;
    let mut wal_bytes_len = 0u64;
    let mut max_tx = 0u64;
    if wal_exists {
        let bytes = vfs
            .read(&wal_path)
            .map_err(|e| RelError::Io(format!("read {}: {e}", wal_path.display())))?;
        wal_bytes_len = bytes.len() as u64;
        let scan = scan_wal(&bytes);
        scan_clean = scan.is_clean();
        report.wal_problems = scan.problems;
        report.discarded_bytes = scan.discarded_bytes;
        report.uncommitted_txs = scan.uncommitted_txs;
        for tx in &scan.committed {
            max_tx = max_tx.max(tx.tx);
            for (seq, op) in &tx.ops {
                if *seq <= snapshot_seq {
                    report.skipped_ops += 1;
                    continue;
                }
                match apply_logical(db.catalog_mut(), op) {
                    Ok(()) => report.replayed_ops += 1,
                    Err(_) => report.failed_ops += 1,
                }
                report.last_seq = report.last_seq.max(*seq);
            }
        }
        obs::counter("relstore_wal_replayed_ops_total").add(report.replayed_ops);
        obs::counter("relstore_wal_skipped_ops_total").add(report.skipped_ops);
        obs::counter("relstore_wal_discarded_bytes_total").add(report.discarded_bytes as u64);
    }

    let Some(opts) = durable else {
        return Ok((db, report));
    };

    // Fold recovered work into a fresh snapshot whenever the log held
    // anything beyond the snapshot or was damaged; otherwise keep appending
    // to the existing clean log.
    let replayed_any = report.replayed_ops + report.failed_ops > 0;
    let needs_checkpoint = !snap_exists || !wal_exists || !scan_clean || replayed_any;
    let wal = if needs_checkpoint {
        let mut bytes = db.to_snapshot();
        append_seq_trailer(&mut bytes, report.last_seq);
        write_snapshot_durably(vfs.as_ref(), path, &bytes)?;
        report.checkpointed = true;
        Wal::create(&vfs, &wal_path)?
    } else {
        let existing = wal_bytes_len.saturating_sub(crate::wal::WAL_MAGIC.len() as u64);
        Wal::open_append(&vfs, &wal_path, existing)?
    };

    db.attach_durability(Durability {
        vfs,
        snap_path: path.to_path_buf(),
        wal_path,
        wal,
        seq: report.last_seq,
        snapshot_seq: if report.checkpointed {
            report.last_seq
        } else {
            snapshot_seq
        },
        tx: max_tx,
        poisoned: None,
        opts,
    });
    Ok((db, report))
}
