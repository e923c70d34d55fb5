//! Heap files: unordered collections of records across slotted pages.
//!
//! Records larger than a page's payload capacity are spilled to an overflow
//! area (wiki page bodies in the SMR routinely exceed 8 KiB). RowIds are
//! stable for the lifetime of a record: updates that still fit rewrite in
//! place semantics-wise (delete + insert under the same external key is the
//! executor's job; the heap itself exposes insert/get/delete/scan).

use crate::error::{RelError, Result};
use crate::page::{Page, PAGE_SIZE};
use std::sync::Arc;

/// Largest record stored inline in a page. Anything bigger goes to overflow.
const MAX_INLINE: usize = PAGE_SIZE / 2;

/// Stable identifier of a record inside one heap.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RowId {
    /// Page number, or `u32::MAX` for overflow records.
    pub page: u32,
    /// Slot within the page, or overflow index.
    pub slot: u32,
}

impl RowId {
    const OVERFLOW_PAGE: u32 = u32::MAX;

    fn overflow(ix: u32) -> RowId {
        RowId {
            page: Self::OVERFLOW_PAGE,
            slot: ix,
        }
    }

    fn is_overflow(self) -> bool {
        self.page == Self::OVERFLOW_PAGE
    }
}

/// An append-friendly heap of byte records.
///
/// Pages and overflow records are held behind `Arc` so a clone of the heap
/// (an MVCC reader version) shares every page structurally; a writer's
/// first mutation of a shared page copies just that page
/// (`Arc::make_mut`), never the whole heap.
#[derive(Debug, Default, Clone)]
pub struct Heap {
    pages: Vec<Arc<Page>>,
    /// Overflow records; `None` marks a deleted overflow record.
    overflow: Vec<Option<Arc<Vec<u8>>>>,
    /// Count of live (non-deleted) records across pages and overflow.
    live_records: usize,
}

impl Heap {
    /// Creates an empty heap.
    pub fn new() -> Heap {
        Heap::default()
    }

    /// Number of live records.
    pub fn len(&self) -> usize {
        self.live_records
    }

    /// True if the heap holds no live records.
    pub fn is_empty(&self) -> bool {
        self.live_records == 0
    }

    /// Inserts a record and returns its stable RowId.
    pub fn insert(&mut self, record: &[u8]) -> Result<RowId> {
        if record.len() > MAX_INLINE {
            let ix = u32::try_from(self.overflow.len())
                .map_err(|_| RelError::Exec("overflow area full".into()))?;
            self.overflow.push(Some(Arc::new(record.to_vec())));
            self.live_records += 1;
            return Ok(RowId::overflow(ix));
        }
        // Try the last page first (append workloads), then fall back to a new
        // page. A production engine would keep a free-space map; metadata
        // workloads are append-mostly so this stays O(1) amortized.
        let fits_last = self.pages.last().is_some_and(|p| p.fits(record.len()));
        let index = if fits_last {
            self.pages.len() - 1
        } else {
            self.pages.len()
        };
        let page = u32::try_from(index)
            .ok()
            .filter(|&p| p != RowId::OVERFLOW_PAGE)
            .ok_or_else(|| RelError::Exec("heap page numbers exhausted".into()))?;
        if !fits_last {
            self.pages.push(Arc::new(Page::new()));
        }
        let slot = Arc::make_mut(&mut self.pages[index]).insert(record)?;
        self.live_records += 1;
        Ok(RowId {
            page,
            slot: u32::from(slot),
        })
    }

    /// Fetches a record by RowId.
    pub fn get(&self, id: RowId) -> Option<&[u8]> {
        if id.is_overflow() {
            return self
                .overflow
                .get(id.slot as usize)
                .and_then(|r| r.as_deref())
                .map(|v| v.as_slice());
        }
        self.pages
            .get(id.page as usize)?
            .get(u16::try_from(id.slot).ok()?)
    }

    /// Deletes a record. Returns true if it was live.
    pub fn delete(&mut self, id: RowId) -> bool {
        let deleted = if id.is_overflow() {
            match self.overflow.get_mut(id.slot as usize) {
                Some(slot @ Some(_)) => {
                    *slot = None;
                    true
                }
                _ => false,
            }
        } else if let Ok(slot) = u16::try_from(id.slot) {
            self.pages
                .get_mut(id.page as usize)
                // `make_mut` only copies when the page is shared with a
                // live snapshot *and* the slot is actually deleted below.
                .is_some_and(|p| p.get(slot).is_some() && Arc::make_mut(p).delete(slot))
        } else {
            false
        };
        if deleted {
            self.live_records -= 1;
        }
        deleted
    }

    /// Iterates `(RowId, record)` over all live records in storage order.
    pub fn scan(&self) -> impl Iterator<Item = (RowId, &[u8])> {
        // `insert` numbers pages and overflow records within `u32`, so the
        // counters below never wrap.
        let inline = self.pages.iter().zip(0u32..).flat_map(|(page, pno)| {
            page.iter().map(move |(slot, rec)| {
                (
                    RowId {
                        page: pno,
                        slot: u32::from(slot),
                    },
                    rec,
                )
            })
        });
        let spilled = self
            .overflow
            .iter()
            .zip(0u32..)
            .filter_map(|(r, ix)| r.as_deref().map(|r| (RowId::overflow(ix), r.as_slice())));
        inline.chain(spilled)
    }

    /// Compacts every page whose dead space crosses a quarter page.
    pub fn vacuum(&mut self) {
        for page in &mut self.pages {
            if page.dead_space() > PAGE_SIZE / 4 {
                Arc::make_mut(page).compact();
            }
        }
    }

    /// Deep structural check (fsck): every page's slotted layout plus the
    /// heap-level live-record accounting. Returns every violated invariant.
    pub fn check_invariants(&self) -> std::result::Result<(), Vec<String>> {
        let mut problems = Vec::new();
        for (pno, page) in self.pages.iter().enumerate() {
            if let Err(page_problems) = page.check_invariants() {
                problems.extend(
                    page_problems
                        .into_iter()
                        .map(|p| format!("page {pno}: {p}")),
                );
            }
        }
        let counted = self.scan().count();
        if counted != self.live_records {
            problems.push(format!(
                "live-record counter says {} but scan finds {counted}",
                self.live_records
            ));
        }
        if problems.is_empty() {
            Ok(())
        } else {
            Err(problems)
        }
    }

    /// Serializes the heap for snapshotting.
    pub fn to_snapshot(&self) -> Vec<u8> {
        use crate::encoding::write_varint;
        let mut out = Vec::new();
        write_varint(&mut out, self.pages.len() as u64);
        for p in &self.pages {
            out.extend_from_slice(p.as_bytes());
        }
        write_varint(&mut out, self.overflow.len() as u64);
        for rec in &self.overflow {
            match rec {
                None => out.push(0),
                Some(r) => {
                    out.push(1);
                    write_varint(&mut out, r.len() as u64);
                    out.extend_from_slice(r);
                }
            }
        }
        out
    }

    /// Restores a heap from snapshot bytes.
    pub fn from_snapshot(buf: &[u8], pos: &mut usize) -> Result<Heap> {
        use crate::encoding::read_len;
        let npages = read_len(buf, pos, RelError::Snapshot)?;
        let mut pages = Vec::with_capacity(npages.min(1 << 20));
        for _ in 0..npages {
            let end = *pos + PAGE_SIZE;
            let bytes = buf
                .get(*pos..end)
                .ok_or_else(|| RelError::Snapshot("heap page truncated".into()))?;
            *pos = end;
            pages.push(Arc::new(Page::from_bytes(bytes)?));
        }
        let nover = read_len(buf, pos, RelError::Snapshot)?;
        let mut overflow = Vec::with_capacity(nover.min(1 << 20));
        for _ in 0..nover {
            let marker = *buf
                .get(*pos)
                .ok_or_else(|| RelError::Snapshot("overflow truncated".into()))?;
            *pos += 1;
            if marker == 0 {
                overflow.push(None);
            } else {
                let len = read_len(buf, pos, RelError::Snapshot)?;
                let bytes = buf
                    .get(*pos..)
                    .and_then(|rest| rest.get(..len))
                    .ok_or_else(|| RelError::Snapshot("overflow record truncated".into()))?;
                *pos += len;
                overflow.push(Some(Arc::new(bytes.to_vec())));
            }
        }
        let mut heap = Heap {
            pages,
            overflow,
            live_records: 0,
        };
        heap.live_records = heap.scan().count();
        Ok(heap)
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
    fn insert_get_delete() {
        let mut h = Heap::new();
        let a = h.insert(b"alpha").unwrap();
        let b = h.insert(b"beta").unwrap();
        assert_eq!(h.len(), 2);
        assert_eq!(h.get(a).unwrap(), b"alpha");
        assert!(h.delete(a));
        assert!(!h.delete(a));
        assert!(h.get(a).is_none());
        assert_eq!(h.get(b).unwrap(), b"beta");
        assert_eq!(h.len(), 1);
    }

    #[test]
    fn large_records_spill_to_overflow() {
        let mut h = Heap::new();
        let big = vec![9u8; PAGE_SIZE * 3];
        let id = h.insert(&big).unwrap();
        assert!(id.is_overflow());
        assert_eq!(h.get(id).unwrap(), &big[..]);
        assert!(h.delete(id));
        assert!(h.get(id).is_none());
    }

    #[test]
    fn scan_visits_inline_and_overflow() {
        let mut h = Heap::new();
        h.insert(b"small").unwrap();
        h.insert(&vec![1u8; PAGE_SIZE]).unwrap();
        h.insert(b"small2").unwrap();
        let recs: Vec<_> = h.scan().map(|(_, r)| r.len()).collect();
        assert_eq!(recs.len(), 3);
        assert!(recs.contains(&PAGE_SIZE));
    }

    #[test]
    fn spans_multiple_pages() {
        let mut h = Heap::new();
        let rec = vec![0u8; 3000];
        let ids: Vec<_> = (0..10).map(|_| h.insert(&rec).unwrap()).collect();
        assert!(ids.iter().any(|id| id.page > 0), "should use several pages");
        for id in ids {
            assert_eq!(h.get(id).unwrap().len(), 3000);
        }
    }

    #[test]
    fn snapshot_roundtrip() {
        let mut h = Heap::new();
        let a = h.insert(b"one").unwrap();
        let b = h.insert(&vec![5u8; PAGE_SIZE]).unwrap();
        let c = h.insert(b"three").unwrap();
        h.delete(a);
        let snap = h.to_snapshot();
        let mut pos = 0;
        let back = Heap::from_snapshot(&snap, &mut pos).unwrap();
        assert_eq!(pos, snap.len());
        assert_eq!(back.len(), 2);
        assert!(back.get(a).is_none());
        assert_eq!(back.get(b).unwrap(), &vec![5u8; PAGE_SIZE][..]);
        assert_eq!(back.get(c).unwrap(), b"three");
    }

    #[test]
    fn overflow_record_length_past_the_buffer_is_an_error() {
        // No pages, one overflow record whose length is the largest varint.
        let mut snap = vec![0, 1, 1];
        crate::encoding::write_varint(&mut snap, u64::MAX);
        snap.extend_from_slice(b"xy");
        let err = Heap::from_snapshot(&snap, &mut 0).unwrap_err();
        assert!(
            err.to_string().contains("overflow record truncated"),
            "{err}"
        );
    }

    #[test]
    fn fsck_detects_corruption() {
        let mut h = Heap::new();
        h.insert(b"alpha").unwrap();
        h.insert(&vec![3u8; PAGE_SIZE]).unwrap();
        assert_eq!(h.check_invariants(), Ok(()));

        // Drifted live-record counter.
        h.live_records = 42;
        let problems = h.check_invariants().unwrap_err();
        assert!(
            problems.iter().any(|m| m.contains("live-record counter")),
            "{problems:?}"
        );

        // A corrupt page surfaces with its page number.
        let mut h = Heap::new();
        h.insert(b"alpha").unwrap();
        let raw = {
            let mut bytes = h.pages[0].as_bytes().to_vec();
            bytes[2..4].copy_from_slice(&u16::MAX.to_le_bytes());
            bytes
        };
        h.pages[0] = Arc::new(Page::from_bytes(&raw).unwrap());
        let problems = h.check_invariants().unwrap_err();
        assert!(
            problems.iter().any(|m| m.starts_with("page 0:")),
            "{problems:?}"
        );
    }

    #[test]
    fn vacuum_preserves_live_rows() {
        let mut h = Heap::new();
        let ids: Vec<_> = (0..20)
            .map(|i| h.insert(&vec![i as u8; 3000]).unwrap())
            .collect();
        for id in ids.iter().step_by(2) {
            h.delete(*id);
        }
        h.vacuum();
        for (i, id) in ids.iter().enumerate() {
            if i % 2 == 0 {
                assert!(h.get(*id).is_none());
            } else {
                assert_eq!(h.get(*id).unwrap(), &vec![i as u8; 3000][..]);
            }
        }
    }
}
