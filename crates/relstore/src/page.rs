//! Slotted pages.
//!
//! Classic slotted-page layout inside a fixed-size byte array: record payloads
//! grow downward from the end of the page, the slot directory grows upward
//! from the header. Deleting a record tombstones its slot; `compact` reclaims
//! the payload space. This mirrors how on-disk heap pages work in a real DBMS
//! even though our pages currently live in memory and are persisted wholesale
//! by the snapshot module.

use crate::error::{RelError, Result};

/// Page size in bytes. 8 KiB, the PostgreSQL default.
pub const PAGE_SIZE: usize = 8192;

/// Header: u16 slot_count, u16 free_space_offset (start of payload region).
const HEADER: usize = 4;
/// Each slot: u16 offset, u16 length. Offset 0xFFFF marks a tombstone
/// (legitimate offsets are < PAGE_SIZE, and zero-length records are legal).
const SLOT: usize = 4;
const TOMBSTONE: u16 = u16::MAX;

// Every offset, length and slot number inside a page is at most
// `PAGE_SIZE`, so the `u16` header and slot fields hold them exactly.
const _: () = assert!(PAGE_SIZE < TOMBSTONE as usize);

/// An in-page offset, length or slot number as its `u16` field.
#[expect(
    clippy::cast_possible_truncation,
    reason = "in-page values are <= PAGE_SIZE (8 KiB), asserted above to fit u16"
)]
fn field(n: usize) -> u16 {
    debug_assert!(n <= PAGE_SIZE, "in-page value {n} beyond the page");
    n as u16
}

/// A single slotted page.
#[derive(Clone)]
pub struct Page {
    data: Box<[u8; PAGE_SIZE]>,
}

impl std::fmt::Debug for Page {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Page")
            .field("slots", &self.slot_count())
            .field("free", &self.free_space())
            .finish()
    }
}

impl Default for Page {
    fn default() -> Self {
        Self::new()
    }
}

impl Page {
    /// Creates an empty page.
    pub fn new() -> Page {
        let mut data = Box::new([0u8; PAGE_SIZE]);
        // free_space_offset starts at PAGE_SIZE (payload region empty).
        data[2..4].copy_from_slice(&field(PAGE_SIZE).to_le_bytes());
        Page { data }
    }

    /// Reconstructs a page from raw bytes (snapshot restore).
    pub fn from_bytes(bytes: &[u8]) -> Result<Page> {
        if bytes.len() != PAGE_SIZE {
            return Err(RelError::Snapshot(format!(
                "page must be {PAGE_SIZE} bytes, got {}",
                bytes.len()
            )));
        }
        let mut data = Box::new([0u8; PAGE_SIZE]);
        data.copy_from_slice(bytes);
        Ok(Page { data })
    }

    /// Raw bytes of the page (snapshot store).
    pub fn as_bytes(&self) -> &[u8] {
        &self.data[..]
    }

    fn read_u16(&self, at: usize) -> u16 {
        u16::from_le_bytes([self.data[at], self.data[at + 1]])
    }

    fn write_u16(&mut self, at: usize, v: u16) {
        self.data[at..at + 2].copy_from_slice(&v.to_le_bytes());
    }

    /// Number of slots, including tombstones.
    pub fn slot_count(&self) -> usize {
        self.read_u16(0) as usize
    }

    fn payload_start(&self) -> usize {
        self.read_u16(2) as usize
    }

    /// Contiguous free bytes available for a new record plus its slot.
    pub fn free_space(&self) -> usize {
        let dir_end = HEADER + self.slot_count() * SLOT;
        self.payload_start().saturating_sub(dir_end)
    }

    /// True if a record of `len` bytes fits (with its slot entry).
    pub fn fits(&self, len: usize) -> bool {
        self.free_space() >= len + SLOT
    }

    /// Inserts a record, returning its slot number.
    pub fn insert(&mut self, record: &[u8]) -> Result<u16> {
        if !self.fits(record.len()) {
            return Err(RelError::Exec("page full".into()));
        }
        let slot = field(self.slot_count());
        let new_start = self.payload_start() - record.len();
        self.data[new_start..new_start + record.len()].copy_from_slice(record);
        let slot_at = HEADER + usize::from(slot) * SLOT;
        self.write_u16(slot_at, field(new_start));
        self.write_u16(slot_at + 2, field(record.len()));
        self.write_u16(0, slot + 1);
        self.write_u16(2, field(new_start));
        Ok(slot)
    }

    /// Reads a record; `None` for tombstoned or out-of-range slots.
    pub fn get(&self, slot: u16) -> Option<&[u8]> {
        if slot as usize >= self.slot_count() {
            return None;
        }
        let slot_at = HEADER + slot as usize * SLOT;
        let off = self.read_u16(slot_at);
        if off == TOMBSTONE {
            return None;
        }
        let off = off as usize;
        let len = self.read_u16(slot_at + 2) as usize;
        Some(&self.data[off..off + len])
    }

    /// Tombstones a slot. Returns true if the slot held a live record.
    pub fn delete(&mut self, slot: u16) -> bool {
        if slot as usize >= self.slot_count() {
            return false;
        }
        let slot_at = HEADER + slot as usize * SLOT;
        if self.read_u16(slot_at) == TOMBSTONE {
            return false;
        }
        self.write_u16(slot_at, TOMBSTONE);
        true
    }

    /// Iterates `(slot, record)` over live records.
    pub fn iter(&self) -> impl Iterator<Item = (u16, &[u8])> {
        (0..field(self.slot_count())).filter_map(move |s| self.get(s).map(|r| (s, r)))
    }

    /// Bytes wasted by tombstoned records' payloads.
    pub fn dead_space(&self) -> usize {
        let live: usize = self.iter().map(|(_, r)| r.len()).sum();
        (PAGE_SIZE - self.payload_start()).saturating_sub(live)
    }

    /// Rewrites the page, dropping tombstoned payloads while *preserving slot
    /// numbers* (tombstoned slots stay tombstoned) so that RowIds held by
    /// indexes remain valid.
    pub fn compact(&mut self) {
        let records: Vec<(u16, Vec<u8>)> = self.iter().map(|(s, r)| (s, r.to_vec())).collect();
        let slots = self.slot_count();
        let mut fresh = Page::new();
        fresh.write_u16(0, field(slots));
        // Every slot starts tombstoned; live records overwrite below.
        for s in 0..slots {
            fresh.write_u16(HEADER + s * SLOT, TOMBSTONE);
        }
        let mut cursor = PAGE_SIZE;
        for (slot, rec) in &records {
            cursor -= rec.len();
            fresh.data[cursor..cursor + rec.len()].copy_from_slice(rec);
            let slot_at = HEADER + *slot as usize * SLOT;
            fresh.write_u16(slot_at, field(cursor));
            fresh.write_u16(slot_at + 2, field(rec.len()));
        }
        fresh.write_u16(2, field(cursor));
        *self = fresh;
        debug_assert!(
            self.check_invariants().is_ok(),
            "compact produced an inconsistent page"
        );
    }

    /// Deep structural check (fsck): header sanity, slot-directory bounds,
    /// and non-overlapping payloads. Returns every violated invariant.
    pub fn check_invariants(&self) -> std::result::Result<(), Vec<String>> {
        let mut problems = Vec::new();
        let slots = self.slot_count();
        let payload_start = self.payload_start();
        let dir_end = HEADER + slots * SLOT;
        if payload_start > PAGE_SIZE {
            problems.push(format!(
                "free-space offset {payload_start} beyond page size {PAGE_SIZE}"
            ));
        }
        if dir_end > payload_start {
            problems.push(format!(
                "slot directory (ends {dir_end}) overlaps payload region (starts {payload_start})"
            ));
        }
        let mut extents: Vec<(usize, usize, usize)> = Vec::new();
        for s in 0..slots {
            let slot_at = HEADER + s * SLOT;
            let off = self.read_u16(slot_at);
            if off == TOMBSTONE {
                continue;
            }
            let off = off as usize;
            let len = self.read_u16(slot_at + 2) as usize;
            if off < payload_start || off + len > PAGE_SIZE {
                problems.push(format!(
                    "slot {s}: payload [{off}, {}) outside payload region [{payload_start}, {PAGE_SIZE})",
                    off + len
                ));
            } else if len > 0 {
                extents.push((off, off + len, s));
            }
        }
        extents.sort_unstable();
        for w in extents.windows(2) {
            if w[0].1 > w[1].0 {
                problems.push(format!(
                    "slot {} payload [{}, {}) overlaps slot {} payload [{}, {})",
                    w[0].2, w[0].0, w[0].1, w[1].2, w[1].0, w[1].1
                ));
            }
        }
        if problems.is_empty() {
            Ok(())
        } else {
            Err(problems)
        }
    }
}

#[cfg(test)]
#[allow(
    clippy::cast_possible_truncation,
    reason = "test keys and payloads are small loop indices"
)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_roundtrip() {
        let mut p = Page::new();
        let a = p.insert(b"hello").unwrap();
        let b = p.insert(b"world!").unwrap();
        assert_eq!(p.get(a).unwrap(), b"hello");
        assert_eq!(p.get(b).unwrap(), b"world!");
        assert_eq!(p.slot_count(), 2);
    }

    #[test]
    fn delete_tombstones_without_moving_others() {
        let mut p = Page::new();
        let a = p.insert(b"aaa").unwrap();
        let b = p.insert(b"bbb").unwrap();
        assert!(p.delete(a));
        assert!(!p.delete(a), "double delete is a no-op");
        assert!(p.get(a).is_none());
        assert_eq!(p.get(b).unwrap(), b"bbb");
    }

    #[test]
    fn fills_up_and_reports_full() {
        let mut p = Page::new();
        let rec = vec![7u8; 1000];
        let mut n = 0;
        while p.fits(rec.len()) {
            p.insert(&rec).unwrap();
            n += 1;
        }
        assert!(n >= 8, "8KiB page should hold at least 8 1000-byte records");
        assert!(p.insert(&rec).is_err());
    }

    #[test]
    fn compact_reclaims_dead_space_and_preserves_slots() {
        let mut p = Page::new();
        let a = p.insert(&vec![1u8; 2000]).unwrap();
        let b = p.insert(&vec![2u8; 2000]).unwrap();
        let c = p.insert(&vec![3u8; 2000]).unwrap();
        p.delete(b);
        assert!(p.dead_space() >= 2000);
        let free_before = p.free_space();
        p.compact();
        assert!(p.free_space() >= free_before + 2000);
        assert_eq!(p.get(a).unwrap(), &vec![1u8; 2000][..]);
        assert!(p.get(b).is_none());
        assert_eq!(p.get(c).unwrap(), &vec![3u8; 2000][..]);
        assert_eq!(p.dead_space(), 0);
    }

    #[test]
    fn bytes_roundtrip() {
        let mut p = Page::new();
        p.insert(b"persist me").unwrap();
        let restored = Page::from_bytes(p.as_bytes()).unwrap();
        assert_eq!(restored.get(0).unwrap(), b"persist me");
        assert!(Page::from_bytes(&[0u8; 10]).is_err());
    }

    #[test]
    fn get_out_of_range_is_none() {
        let p = Page::new();
        assert!(p.get(0).is_none());
        assert!(p.get(999).is_none());
    }

    #[test]
    fn fsck_detects_corruption() {
        let mut p = Page::new();
        p.insert(b"aaaa").unwrap();
        p.insert(b"bbbb").unwrap();
        assert_eq!(p.check_invariants(), Ok(()));

        // Slot 0's payload pushed outside the payload region.
        let mut bad = p.clone();
        bad.write_u16(HEADER, 1); // offset 1 is inside the header
        let problems = bad.check_invariants().unwrap_err();
        assert!(
            problems
                .iter()
                .any(|m| m.contains("outside payload region")),
            "{problems:?}"
        );

        // Slot 1 re-pointed at slot 0's bytes: overlapping payloads.
        let mut overlap = p.clone();
        let slot0_off = overlap.read_u16(HEADER);
        overlap.write_u16(HEADER + SLOT, slot0_off);
        let problems = overlap.check_invariants().unwrap_err();
        assert!(
            problems.iter().any(|m| m.contains("overlaps")),
            "{problems:?}"
        );

        // Free-space pointer past the end of the page.
        let mut runaway = p.clone();
        runaway.write_u16(2, u16::MAX);
        assert!(runaway.check_invariants().is_err());

        // Slot directory claiming more slots than fit above the payload.
        let mut too_many = Page::new();
        too_many.write_u16(2, HEADER as u16); // payload starts at the header
        too_many.write_u16(0, 8);
        let problems = too_many.check_invariants().unwrap_err();
        assert!(
            problems.iter().any(|m| m.contains("slot directory")),
            "{problems:?}"
        );
    }
}
