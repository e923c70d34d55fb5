//! Checksummed write-ahead log.
//!
//! The WAL is a sequence of CRC32-framed records appended ahead of every
//! mutation. A transaction is `Begin`, one or more `Op` records (each
//! carrying a monotonically increasing operation sequence number), and a
//! `Commit`; all frames of a transaction are written in one buffer and made
//! durable with a single group fsync at commit. Replay applies only
//! committed transactions and discards torn or corrupt tails — a frame
//! whose length or checksum does not verify ends the readable log.
//!
//! On-disk layout:
//!
//! ```text
//! file   := header frame*
//! header := "SMRWAL01"                      (8 bytes)
//! frame  := len:u32le crc:u32le payload     (crc = CRC-32/IEEE of payload)
//! payload:= 0x01 tx:varint                  Begin
//!         | 0x02 tx:varint seq:varint op    Op
//!         | 0x03 tx:varint                  Commit
//! op     := 0x01 sql:str                    SQL statement / script
//!         | 0x02 table:str row:encode_row   logical row insert
//! str    := len:varint utf8-bytes
//! ```

use crate::encoding::{encode_row, next_byte, read_str, read_varint, write_str, write_varint};
use crate::error::{RelError, Result};
use crate::value::Value;
use crate::vfs::{Vfs, VfsFile};
use sensormeta_obs as obs;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Magic bytes opening every WAL file.
pub const WAL_MAGIC: &[u8; 8] = b"SMRWAL01";

/// Upper bound on a single frame's payload, so on one logged operation;
/// anything larger in a length field is treated as corruption rather than
/// allocated.
pub const MAX_FRAME: u32 = 64 * 1024 * 1024;

/// The longest SQL text whose `Op` frame fits [`MAX_FRAME`] whatever its
/// transaction and sequence numbers: the frame adds a kind byte, two
/// varints of at most ten bytes, an op byte and the text's length, a
/// varint of four bytes below 256 MiB.
pub const MAX_SQL_OP: usize = MAX_FRAME as usize - (1 + 10 + 10 + 1 + 4);

const KIND_BEGIN: u8 = 1;
const KIND_OP: u8 = 2;
const KIND_COMMIT: u8 = 3;

const OP_SQL: u8 = 1;
const OP_INSERT: u8 = 2;

// ---------------------------------------------------------------------------
// CRC-32 (IEEE 802.3), table-driven, dependency-free.
// ---------------------------------------------------------------------------

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i: u32 = 0;
    while i < 256 {
        let mut crc = i;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i as usize] = crc;
        i += 1;
    }
    table
}

static CRC32_TABLE: [u32; 256] = crc32_table();

/// CRC-32 (IEEE) checksum of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in data {
        crc = (crc >> 8) ^ CRC32_TABLE[((crc ^ u32::from(b)) & 0xff) as usize];
    }
    !crc
}

// ---------------------------------------------------------------------------
// Logical operations.
// ---------------------------------------------------------------------------

/// A logical mutation recorded in the log. Replaying the same sequence of
/// operations against the same starting state is deterministic, so an
/// operation that fails at runtime (say, a unique-constraint violation)
/// fails identically at replay and leaves the same state behind.
#[derive(Debug, Clone, PartialEq)]
pub enum LogicalOp {
    /// A SQL statement or semicolon-separated script, replayed through the
    /// normal SQL executor.
    Sql(String),
    /// A direct row insert through the programmatic API.
    Insert {
        /// Target table name.
        table: String,
        /// The row values as supplied by the caller.
        row: Vec<Value>,
    },
}

impl LogicalOp {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            LogicalOp::Sql(sql) => {
                out.push(OP_SQL);
                write_str(out, sql);
            }
            LogicalOp::Insert { table, row } => {
                out.push(OP_INSERT);
                write_str(out, table);
                encode_row(row, out);
            }
        }
    }

    fn decode(buf: &[u8], pos: &mut usize) -> Result<LogicalOp> {
        let tag = next_byte(buf, pos, RelError::Wal)?;
        match tag {
            OP_SQL => Ok(LogicalOp::Sql(read_str(buf, pos, RelError::Wal)?)),
            OP_INSERT => {
                let table = read_str(buf, pos, RelError::Wal)?;
                let row = crate::encoding::decode_row(buf, pos)?;
                Ok(LogicalOp::Insert { table, row })
            }
            other => Err(RelError::Wal(format!("unknown op tag {other}"))),
        }
    }
}

// ---------------------------------------------------------------------------
// Writer.
// ---------------------------------------------------------------------------

/// Appending side of the write-ahead log.
pub struct Wal {
    file: Box<dyn VfsFile>,
    path: PathBuf,
    appended_bytes: u64,
}

impl fmt::Debug for Wal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Wal")
            .field("path", &self.path)
            .field("appended_bytes", &self.appended_bytes)
            .finish()
    }
}

fn io_err(context: &str, e: std::io::Error) -> RelError {
    RelError::Io(format!("{context}: {e}"))
}

impl Wal {
    /// Creates a fresh (truncated) WAL at `path`: header written, synced,
    /// and its directory entry made durable.
    pub fn create(vfs: &Arc<dyn Vfs>, path: &Path) -> Result<Wal> {
        let mut file = vfs.create(path).map_err(|e| io_err("create wal", e))?;
        file.write_all(WAL_MAGIC)
            .map_err(|e| io_err("write wal header", e))?;
        file.sync().map_err(|e| io_err("sync wal", e))?;
        vfs.sync_parent_dir(path)
            .map_err(|e| io_err("sync wal dir", e))?;
        Ok(Wal {
            file,
            path: path.to_path_buf(),
            appended_bytes: 0,
        })
    }

    /// Opens an existing WAL (already verified clean) for appending.
    pub fn open_append(vfs: &Arc<dyn Vfs>, path: &Path, existing_bytes: u64) -> Result<Wal> {
        let file = vfs.append(path).map_err(|e| io_err("open wal", e))?;
        Ok(Wal {
            file,
            path: path.to_path_buf(),
            appended_bytes: existing_bytes,
        })
    }

    /// Bytes appended past the header (including pre-existing records).
    pub fn appended_bytes(&self) -> u64 {
        self.appended_bytes
    }

    /// Appends one whole transaction — begin, ops, commit — as a single
    /// buffered write, then makes it durable with one group fsync: an
    /// acknowledged commit survives a crash.
    pub fn commit(&mut self, tx: u64, ops: &[(u64, LogicalOp)]) -> Result<()> {
        let mut buf = Vec::with_capacity(64);
        {
            let mut payload = Vec::with_capacity(16);
            payload.push(KIND_BEGIN);
            write_varint(&mut payload, tx);
            push_frame(&mut buf, &payload)?;
        }
        for (seq, op) in ops {
            let mut payload = Vec::with_capacity(32);
            payload.push(KIND_OP);
            write_varint(&mut payload, tx);
            write_varint(&mut payload, *seq);
            op.encode(&mut payload);
            push_frame(&mut buf, &payload)?;
        }
        {
            let mut payload = Vec::with_capacity(16);
            payload.push(KIND_COMMIT);
            write_varint(&mut payload, tx);
            push_frame(&mut buf, &payload)?;
        }
        self.file
            .write_all(&buf)
            .map_err(|e| io_err("append wal", e))?;
        obs::counter("relstore_wal_commits_total").inc();
        obs::counter("relstore_wal_ops_total").add(ops.len() as u64);
        obs::counter("relstore_wal_appended_bytes_total").add(buf.len() as u64);
        self.appended_bytes += buf.len() as u64;
        self.file.sync().map_err(|e| io_err("sync wal", e))?;
        obs::counter("relstore_wal_fsyncs_total").inc();
        Ok(())
    }
}

fn push_frame(out: &mut Vec<u8>, payload: &[u8]) -> Result<()> {
    let len = u32::try_from(payload.len())
        .ok()
        .filter(|&n| n > 0 && n <= MAX_FRAME)
        .ok_or_else(|| {
            RelError::Wal(format!(
                "frame payload of {} bytes is outside the 1..={MAX_FRAME} limit",
                payload.len()
            ))
        })?;
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    Ok(())
}

// ---------------------------------------------------------------------------
// Scanner / verifier.
// ---------------------------------------------------------------------------

/// A committed transaction recovered from the log.
#[derive(Debug, Clone, PartialEq)]
pub struct CommittedTx {
    /// Transaction id.
    pub tx: u64,
    /// The transaction's operations, in log order, with their sequence
    /// numbers.
    pub ops: Vec<(u64, LogicalOp)>,
}

/// Outcome of scanning a WAL byte stream.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WalScan {
    /// Committed transactions, in commit order.
    pub committed: Vec<CommittedTx>,
    /// Frames that parsed and check-summed correctly.
    pub frames: usize,
    /// Transactions begun (or operated on) but never committed before the
    /// readable log ended — discarded at replay.
    pub uncommitted_txs: usize,
    /// Bytes discarded at the tail: a torn frame, a checksum mismatch, or
    /// trailing garbage.
    pub discarded_bytes: usize,
    /// Human-readable findings: missing/corrupt header, checksum failures,
    /// torn tails, uncommitted transactions.
    pub problems: Vec<String>,
}

impl WalScan {
    /// True when the log is pristine: well-formed header, every frame
    /// verified, no torn tail, no uncommitted transactions.
    pub fn is_clean(&self) -> bool {
        self.problems.is_empty()
    }
}

/// Scans WAL bytes, verifying structure and checksums. Never fails: all
/// damage is reported in [`WalScan::problems`] and the readable committed
/// prefix is returned — this backs both recovery and `fsck`.
pub fn scan_wal(bytes: &[u8]) -> WalScan {
    let mut scan = WalScan::default();
    if bytes.len() < WAL_MAGIC.len() || &bytes[..WAL_MAGIC.len()] != WAL_MAGIC {
        scan.problems
            .push("missing or corrupt WAL header".to_string());
        scan.discarded_bytes = bytes.len();
        return scan;
    }
    let mut pos = WAL_MAGIC.len();
    // tx id -> ops accumulated so far (open transactions).
    let mut open: Vec<(u64, Vec<(u64, LogicalOp)>)> = Vec::new();
    while pos < bytes.len() {
        let start = pos;
        let Some(header) = bytes.get(pos..pos + 8) else {
            scan.discarded_bytes = bytes.len() - start;
            scan.problems
                .push(format!("torn frame header at offset {start}"));
            break;
        };
        let len = u32::from_le_bytes([header[0], header[1], header[2], header[3]]);
        let crc = u32::from_le_bytes([header[4], header[5], header[6], header[7]]);
        if len == 0 || len > MAX_FRAME {
            scan.discarded_bytes = bytes.len() - start;
            scan.problems
                .push(format!("implausible frame length {len} at offset {start}"));
            break;
        }
        pos += 8;
        let end = pos + len as usize;
        let Some(payload) = bytes.get(pos..end) else {
            scan.discarded_bytes = bytes.len() - start;
            scan.problems.push(format!(
                "torn frame at offset {start}: {} of {len} payload bytes present",
                bytes.len() - pos
            ));
            break;
        };
        if crc32(payload) != crc {
            scan.discarded_bytes = bytes.len() - start;
            scan.problems
                .push(format!("checksum mismatch at offset {start}"));
            break;
        }
        pos = end;
        match parse_frame(payload) {
            Ok(Frame::Begin(tx)) => {
                open.push((tx, Vec::new()));
            }
            Ok(Frame::Op(tx, seq, op)) => match open.iter_mut().rev().find(|(t, _)| *t == tx) {
                Some((_, ops)) => ops.push((seq, op)),
                None => {
                    // An op without a begin: tolerate by opening implicitly.
                    open.push((tx, vec![(seq, op)]));
                }
            },
            Ok(Frame::Commit(tx)) => {
                if let Some(ix) = open.iter().position(|(t, _)| *t == tx) {
                    let (tx, ops) = open.remove(ix);
                    scan.committed.push(CommittedTx { tx, ops });
                } else {
                    scan.committed.push(CommittedTx {
                        tx,
                        ops: Vec::new(),
                    });
                }
            }
            Err(e) => {
                scan.discarded_bytes = bytes.len() - start;
                scan.problems
                    .push(format!("undecodable frame at offset {start}: {e}"));
                break;
            }
        }
        scan.frames += 1;
    }
    scan.uncommitted_txs = open.len();
    for (tx, ops) in &open {
        scan.problems.push(format!(
            "transaction {tx} with {} op(s) never committed (discarded)",
            ops.len()
        ));
    }
    scan
}

enum Frame {
    Begin(u64),
    Op(u64, u64, LogicalOp),
    Commit(u64),
}

fn parse_frame(payload: &[u8]) -> Result<Frame> {
    let mut pos = 0;
    match next_byte(payload, &mut pos, RelError::Wal)? {
        KIND_BEGIN => Ok(Frame::Begin(read_varint(payload, &mut pos)?)),
        KIND_OP => {
            let tx = read_varint(payload, &mut pos)?;
            let seq = read_varint(payload, &mut pos)?;
            let op = LogicalOp::decode(payload, &mut pos)?;
            Ok(Frame::Op(tx, seq, op))
        }
        KIND_COMMIT => Ok(Frame::Commit(read_varint(payload, &mut pos)?)),
        other => Err(RelError::Wal(format!("unknown frame kind {other}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::MemVfs;

    #[test]
    fn the_longest_sql_op_fills_a_frame_exactly() {
        let mut payload = vec![KIND_OP];
        write_varint(&mut payload, u64::MAX);
        write_varint(&mut payload, u64::MAX);
        payload.push(OP_SQL);
        write_varint(&mut payload, MAX_SQL_OP as u64);
        assert_eq!(payload.len() + MAX_SQL_OP, MAX_FRAME as usize);
    }

    fn build_wal(txs: &[Vec<(u64, LogicalOp)>]) -> Vec<u8> {
        let vfs: Arc<dyn Vfs> = Arc::new(MemVfs::new());
        let path = Path::new("test.wal");
        let mut wal = Wal::create(&vfs, path).unwrap();
        for (i, ops) in txs.iter().enumerate() {
            wal.commit(i as u64 + 1, ops).unwrap();
        }
        vfs.read(path).unwrap()
    }

    fn sql(s: &str) -> LogicalOp {
        LogicalOp::Sql(s.to_string())
    }

    #[test]
    fn crc32_known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn roundtrip_commit_and_scan() {
        let bytes = build_wal(&[
            vec![(1, sql("CREATE TABLE t (id INTEGER)"))],
            vec![
                (
                    2,
                    LogicalOp::Insert {
                        table: "t".into(),
                        row: vec![Value::Int(7), Value::text("x"), Value::Null],
                    },
                ),
                (3, sql("DELETE FROM t")),
            ],
        ]);
        let scan = scan_wal(&bytes);
        assert!(scan.is_clean(), "{:?}", scan.problems);
        assert_eq!(scan.committed.len(), 2);
        assert_eq!(scan.committed[0].ops.len(), 1);
        assert_eq!(scan.committed[1].ops.len(), 2);
        assert_eq!(scan.committed[1].ops[0].0, 2);
        match &scan.committed[1].ops[0].1 {
            LogicalOp::Insert { table, row } => {
                assert_eq!(table, "t");
                assert_eq!(row[0], Value::Int(7));
            }
            other => panic!("wrong op: {other:?}"),
        }
    }

    #[test]
    fn torn_tail_discarded() {
        let bytes = build_wal(&[vec![(1, sql("A"))], vec![(2, sql("B"))]]);
        // Chop mid-way through the last transaction's frames.
        let cut = bytes.len() - 5;
        let scan = scan_wal(&bytes[..cut]);
        assert!(!scan.is_clean());
        assert_eq!(scan.committed.len(), 1, "only the first tx survives");
        assert!(scan.discarded_bytes > 0);
        assert!(
            scan.problems.iter().any(|p| p.contains("torn")),
            "{:?}",
            scan.problems
        );
    }

    #[test]
    fn bit_flip_detected_by_checksum() {
        let mut bytes = build_wal(&[vec![(1, sql("A"))], vec![(2, sql("B"))]]);
        // Flip one payload byte in the middle of the log.
        let ix = bytes.len() / 2;
        bytes[ix] ^= 0x40;
        let scan = scan_wal(&bytes);
        assert!(!scan.is_clean());
        assert!(
            scan.problems
                .iter()
                .any(|p| p.contains("checksum") || p.contains("torn") || p.contains("implausible")),
            "{:?}",
            scan.problems
        );
        assert!(scan.committed.len() < 2);
    }

    #[test]
    fn uncommitted_tx_reported_and_discarded() {
        let bytes = build_wal(&[vec![(1, sql("A"))]]);
        // Append a begin+op with no commit (simulating a crash mid-tx).
        let mut extra = Vec::new();
        let mut payload = vec![KIND_BEGIN];
        write_varint(&mut payload, 9);
        push_frame(&mut extra, &payload).expect("frame");
        let mut payload = vec![KIND_OP];
        write_varint(&mut payload, 9);
        write_varint(&mut payload, 5);
        sql("LOST").encode(&mut payload);
        push_frame(&mut extra, &payload).expect("frame");
        let mut bytes = bytes;
        bytes.extend_from_slice(&extra);
        let scan = scan_wal(&bytes);
        assert_eq!(scan.committed.len(), 1);
        assert_eq!(scan.uncommitted_txs, 1);
        assert!(
            scan.problems.iter().any(|p| p.contains("never committed")),
            "{:?}",
            scan.problems
        );
    }

    #[test]
    fn missing_header_rejected() {
        let scan = scan_wal(b"not a wal file");
        assert!(!scan.is_clean());
        assert_eq!(scan.committed.len(), 0);
    }
}
