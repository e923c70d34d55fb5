//! # sensormeta-tx
//!
//! MVCC snapshot isolation for the sensormeta stores: a versioned,
//! copy-on-write publication cell ([`Mvcc`]) whose readers each hold a
//! consistent point-in-time [`Snapshot`] while a single serialized writer
//! commits new versions.
//!
//! The design is shadow paging rather than undo/redo:
//!
//! - Every published version is immutable and reference-counted. Opening a
//!   snapshot is one atomic `Arc` clone under a briefly-held `RwLock` —
//!   readers never wait on a writer's work, only on the pointer swap.
//! - Writers serialize on an internal mutex, build the next version as a
//!   structural copy-on-write clone of the current one (see
//!   `Database::clone_reader` / `TripleStore`'s `Arc`-shared indexes, which
//!   make the clone a handful of refcount bumps), apply their changes, and
//!   publish with a single pointer swap. A commit that errors publishes
//!   nothing — readers can never observe a partial transaction.
//! - Every version carries its publication sequence number, assigned under
//!   the writer lock, so [`Snapshot::seq`] identifies the snapshot: a
//!   result cache stamps entries with it, with no clock involved.
//! - Old versions are garbage-collected by refcount: when the last
//!   snapshot pinning a superseded version drops, the version frees. The
//!   cell keeps only `Weak` history handles for accounting
//!   (`tx_versions_live`), never strong pins.
//!
//! Durability stays where it was: writers that mutate a durable store go
//! through the relstore WAL *inside* their commit closure, before the
//! publish. A crash mid-commit therefore recovers via WAL replay while no
//! published snapshot ever exposed the partial state.

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
#![warn(missing_debug_implementations)]

use sensormeta_obs as obs;
use std::ops::Deref;
use std::sync::{Arc, Mutex, MutexGuard, RwLock, Weak};

/// One immutable published version of the guarded state.
#[derive(Debug)]
struct Version<T> {
    data: T,
    /// Monotonic publication sequence number, starting at 0 for the
    /// initial version: the snapshot identifier the result cache stamps
    /// entries with.
    seq: u64,
}

/// A consistent point-in-time view of the state guarded by an [`Mvcc`].
///
/// Cloning a snapshot is an `Arc` clone; dropping the last handle to a
/// superseded version frees it. Dereferences to the guarded `T`.
pub struct Snapshot<T> {
    version: Arc<Version<T>>,
}

impl<T> Snapshot<T> {
    /// The publication sequence number of this version (0 = initial).
    pub fn seq(&self) -> u64 {
        self.version.seq
    }
}

impl<T> Clone for Snapshot<T> {
    fn clone(&self) -> Self {
        Snapshot {
            version: Arc::clone(&self.version),
        }
    }
}

impl<T> Deref for Snapshot<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.version.data
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for Snapshot<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Snapshot")
            .field("seq", &self.version.seq)
            .finish_non_exhaustive()
    }
}

/// A multi-version publication cell: lock-free-ish snapshot reads (one
/// briefly-held pointer lock), a single serialized writer, refcount GC of
/// superseded versions.
#[derive(Debug)]
pub struct Mvcc<T> {
    /// The current published version. The lock is held only long enough to
    /// clone or swap the `Arc` — never across a reader's use of the data or
    /// a writer's commit work.
    current: RwLock<Arc<Version<T>>>,
    /// Serializes committers. Guards the seq counter so publish order and
    /// sequence numbers agree.
    writer: Mutex<u64>,
    /// Weak handles to superseded versions, for `versions_live` accounting;
    /// pruned on every publish. Never pins a version.
    history: Mutex<Vec<Weak<Version<T>>>>,
}

/// Exclusive access to the committer side of an [`Mvcc`], for writers that
/// keep their own mutable primary copy of the state and publish read-only
/// clones of it (the server's query engine does this so the WAL-owning
/// primary never needs to be cloned through `T: Clone`).
#[derive(Debug)]
pub struct Committer<'a, T> {
    cell: &'a Mvcc<T>,
    guard: MutexGuard<'a, u64>,
}

impl<T> Mvcc<T> {
    /// A cell whose initial version holds `data`, at sequence number 0.
    pub fn new(data: T) -> Mvcc<T> {
        Mvcc {
            current: RwLock::new(Arc::new(Version { data, seq: 0 })),
            writer: Mutex::new(0),
            history: Mutex::new(Vec::new()),
        }
    }

    /// Opens a consistent point-in-time snapshot of the current version.
    ///
    /// Cost: one `RwLock` read acquisition held across an `Arc` clone. A
    /// concurrent committer holds the write side only for the pointer swap,
    /// so readers are never blocked behind the commit's actual work.
    pub fn snapshot(&self) -> Snapshot<T> {
        Snapshot {
            version: Arc::clone(&read_lock(&self.current)),
        }
    }

    /// Sequence number of the current published version.
    pub fn seq(&self) -> u64 {
        read_lock(&self.current).seq
    }

    /// Number of versions still reachable: the current one plus every
    /// superseded version kept alive by an open snapshot. Superseded
    /// versions with no snapshot pinning them have already been freed by
    /// their refcount — this reports, it never retains.
    pub fn versions_live(&self) -> usize {
        let mut hist = lock(&self.history);
        hist.retain(|w| w.strong_count() > 0);
        1 + hist.len()
    }

    /// Applies `f` to a copy-on-write clone of the current version and, on
    /// `Ok`, publishes the result as the next version.
    ///
    /// On `Err` nothing is published and the sequence number does not move:
    /// readers never observe a partial commit. Committers serialize on an
    /// internal mutex; readers keep opening snapshots of the previous
    /// version throughout.
    pub fn commit<E>(&self, f: impl FnOnce(&mut T) -> Result<(), E>) -> Result<u64, E>
    where
        T: Clone,
    {
        let committer = self.begin();
        let mut data = {
            let cur = read_lock(&self.current);
            cur.data.clone()
        };
        f(&mut data)?;
        Ok(committer.publish(data))
    }

    /// Begins a serialized commit section without cloning the published
    /// state. The returned [`Committer`] holds the writer lock; writers
    /// with their own primary copy mutate it, then call
    /// [`Committer::publish`].
    pub fn begin(&self) -> Committer<'_, T> {
        Committer {
            guard: lock(&self.writer),
            cell: self,
        }
    }
}

impl<T> Committer<'_, T> {
    /// A snapshot of the version current at this point in the commit
    /// section (no other committer can publish while this exists).
    pub fn base(&self) -> Snapshot<T> {
        self.cell.snapshot()
    }

    /// Publishes `data` as the next version in one pointer swap, stamped
    /// with the next sequence number. Returns that sequence number.
    pub fn publish(mut self, data: T) -> u64 {
        *self.guard += 1;
        let seq = *self.guard;
        let next = Arc::new(Version { data, seq });
        let prev = {
            let mut cur = write_lock(&self.cell.current);
            std::mem::replace(&mut *cur, next)
        };
        {
            let mut hist = lock(&self.cell.history);
            hist.push(Arc::downgrade(&prev));
            hist.retain(|w| w.strong_count() > 0);
            obs::gauge("tx_versions_live").set((1 + hist.len()) as f64);
        }
        drop(prev);
        obs::counter("tx_commits_total").inc();
        seq
    }
}

/// Poison-proof `Mutex` lock: a panicked committer must not wedge every
/// future reader and writer; the data it was building was private to it
/// and was never published.
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

fn read_lock<T>(l: &RwLock<T>) -> std::sync::RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(|e| e.into_inner())
}

fn write_lock<T>(l: &RwLock<T>) -> std::sync::RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_cell(v: i64) -> Mvcc<Vec<i64>> {
        Mvcc::new(vec![v])
    }

    #[test]
    fn snapshot_sees_version_at_open_time() {
        let cell = test_cell(1);
        let before = cell.snapshot();
        cell.commit::<()>(|v| {
            v.push(2);
            Ok(())
        })
        .unwrap();
        let after = cell.snapshot();
        assert_eq!(*before, vec![1], "old snapshot unchanged");
        assert_eq!(*after, vec![1, 2]);
        assert_eq!(before.seq(), 0);
        assert_eq!(after.seq(), 1);
    }

    #[test]
    fn failed_commit_publishes_nothing_and_bumps_nothing() {
        let cell = test_cell(1);
        let r = cell.commit(|v| {
            v.push(2);
            Err("boom")
        });
        assert_eq!(r, Err("boom"));
        assert_eq!(*cell.snapshot(), vec![1]);
        assert_eq!(cell.seq(), 0, "no sequence number consumed on abort");
    }

    #[test]
    fn old_versions_gc_once_unpinned() {
        let cell = test_cell(0);
        let pin = cell.snapshot();
        for i in 0..5 {
            cell.commit::<()>(|v| {
                v.push(i);
                Ok(())
            })
            .unwrap();
        }
        // The pinned initial version survives; the three intermediate
        // versions (seq 1..=4 minus current) were freed as they were
        // superseded with no snapshot holding them.
        assert_eq!(cell.versions_live(), 2, "current + pinned initial");
        drop(pin);
        assert_eq!(cell.versions_live(), 1, "only current after unpin");
    }

    #[test]
    fn external_committer_publishes_primary_copy() {
        let cell = test_cell(0);
        let mut primary = vec![0];
        let c = cell.begin();
        assert_eq!(*c.base(), vec![0]);
        primary.push(7);
        let seq = c.publish(primary.clone());
        assert_eq!(seq, 1);
        assert_eq!(*cell.snapshot(), vec![0, 7]);
    }

    #[test]
    #[allow(clippy::disallowed_methods, reason = "the test races raw threads")]
    fn committers_serialize_and_readers_do_not_block() {
        let cell = Arc::new(Mvcc::new(0u64));
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let cell = Arc::clone(&cell);
                std::thread::spawn(move || {
                    for _ in 0..50 {
                        cell.commit::<()>(|v| {
                            *v += 1;
                            Ok(())
                        })
                        .unwrap();
                        let s = cell.snapshot();
                        assert!(*s <= 200);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(*cell.snapshot(), 200, "no lost updates");
        assert_eq!(cell.seq(), 200);
    }

    #[test]
    #[allow(
        clippy::disallowed_methods,
        reason = "the writer must panic on a thread of its own"
    )]
    fn poisoned_writer_recovers() {
        let cell = Arc::new(Mvcc::new(0u64));
        let c2 = Arc::clone(&cell);
        let _ = std::thread::spawn(move || {
            c2.commit::<()>(|_| panic!("injected")).ok();
        })
        .join();
        // The cell still works: the panicked commit published nothing.
        assert_eq!(*cell.snapshot(), 0);
        cell.commit::<()>(|v| {
            *v = 9;
            Ok(())
        })
        .unwrap();
        assert_eq!(*cell.snapshot(), 9);
    }
}
