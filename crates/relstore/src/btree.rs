//! In-memory B-tree for secondary indexes.
//!
//! A textbook B-tree keyed by composite [`Value`] keys mapping to sets of
//! [`RowId`]s. Implemented from scratch (rather than wrapping `BTreeMap`) so
//! the engine exercises a real index structure: node splits, ordered range
//! scans, and duplicate-key postings. Fanout is kept small enough that tests
//! routinely exercise multi-level trees.

use crate::error::{RelError, Result};
use crate::heap::RowId;
use crate::value::Value;
use std::cmp::Ordering;
use std::ops::Bound;

/// Maximum keys per node before a split. Chosen small so unit tests cover
/// deep trees; performance at this fanout is still fine for in-memory nodes.
const MAX_KEYS: usize = 32;

/// Composite index key.
pub type Key = Vec<Value>;

/// A node split: (median key, median postings, right sibling).
type Split = (Key, Vec<RowId>, Node);

#[derive(Debug, Clone)]
struct Node {
    keys: Vec<Key>,
    /// Per-key postings: RowIds sharing this key (sorted, deduped).
    postings: Vec<Vec<RowId>>,
    /// Children; empty for leaves.
    children: Vec<Node>,
}

impl Node {
    fn leaf() -> Node {
        Node {
            keys: Vec::new(),
            postings: Vec::new(),
            children: Vec::new(),
        }
    }

    fn is_leaf(&self) -> bool {
        self.children.is_empty()
    }
}

/// Where `x` lies relative to the interval `lo..hi`: before it (`Less`),
/// inside it (`Equal`) or after it (`Greater`). An empty interval places
/// everything before or after it.
fn place<T: PartialOrd + ?Sized>(x: &T, lo: Bound<&T>, hi: Bound<&T>) -> Ordering {
    let below = match lo {
        Bound::Unbounded => false,
        Bound::Included(l) => x < l,
        Bound::Excluded(l) => x <= l,
    };
    let above = match hi {
        Bound::Unbounded => false,
        Bound::Included(h) => x > h,
        Bound::Excluded(h) => x >= h,
    };
    if below {
        Ordering::Less
    } else if above {
        Ordering::Greater
    } else {
        Ordering::Equal
    }
}

/// A B-tree index from composite keys to RowId postings.
#[derive(Debug, Clone)]
pub struct BTreeIndex {
    root: Box<Node>,
    /// Enforce at most one RowId per key.
    unique: bool,
    len: usize,
}

impl BTreeIndex {
    /// Creates an empty index; `unique` enforces one entry per key.
    pub fn new(unique: bool) -> BTreeIndex {
        BTreeIndex {
            root: Box::new(Node::leaf()),
            unique,
            len: 0,
        }
    }

    /// Number of (key, RowId) entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the index is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Inserts an entry. For unique indexes an existing different RowId under
    /// the same key is a [`RelError::UniqueViolation`].
    pub fn insert(&mut self, key: Key, row: RowId) -> Result<()> {
        if self.unique {
            if let Some(existing) = self.get_one(&key) {
                if existing != row {
                    return Err(RelError::UniqueViolation {
                        index: String::new(),
                        key: format!("{key:?}"),
                    });
                }
                return Ok(());
            }
        }
        if self.insert_rec_root(key, row) {
            self.len += 1;
        }
        debug_assert!(
            self.root.keys.len() <= MAX_KEYS,
            "root over-full after insert"
        );
        Ok(())
    }

    fn insert_rec_root(&mut self, key: Key, row: RowId) -> bool {
        let (inserted, split) = Self::insert_rec(&mut self.root, key, row);
        if let Some((mid_key, mid_post, right)) = split {
            let old_root = std::mem::replace(&mut *self.root, Node::leaf());
            self.root.keys.push(mid_key);
            self.root.postings.push(mid_post);
            self.root.children.push(old_root);
            self.root.children.push(right);
        }
        inserted
    }

    /// Returns (newly-inserted, optional split (median key, postings, right node)).
    fn insert_rec(node: &mut Node, key: Key, row: RowId) -> (bool, Option<Split>) {
        match node.keys.binary_search(&key) {
            Ok(ix) => {
                let posting = &mut node.postings[ix];
                match posting.binary_search(&row) {
                    Ok(_) => (false, None),
                    Err(p) => {
                        posting.insert(p, row);
                        (true, None)
                    }
                }
            }
            Err(ix) => {
                let inserted = if node.is_leaf() {
                    node.keys.insert(ix, key);
                    node.postings.insert(ix, vec![row]);
                    true
                } else {
                    let (ins, split) = Self::insert_rec(&mut node.children[ix], key, row);
                    if let Some((mk, mp, right)) = split {
                        node.keys.insert(ix, mk);
                        node.postings.insert(ix, mp);
                        node.children.insert(ix + 1, right);
                    }
                    ins
                };
                let split = (node.keys.len() > MAX_KEYS)
                    .then(|| Self::split(node))
                    .flatten();
                (inserted, split)
            }
        }
    }

    /// Splits an over-full node, returning (median key, median postings,
    /// right sibling). `None` only for an empty node, which an over-full
    /// node never is; callers treat it as "no split happened".
    fn split(node: &mut Node) -> Option<Split> {
        let mid = node.keys.len() / 2;
        let right_keys = node.keys.split_off(mid + 1);
        let right_postings = node.postings.split_off(mid + 1);
        let (mid_key, mid_post) = node.keys.pop().zip(node.postings.pop())?;
        debug_assert!(
            node.keys.last().is_none_or(|k| *k < mid_key)
                && right_keys.first().is_none_or(|k| mid_key < *k),
            "split median must separate left and right halves"
        );
        let right_children = if node.is_leaf() {
            Vec::new()
        } else {
            node.children.split_off(mid + 1)
        };
        Some((
            mid_key,
            mid_post,
            Node {
                keys: right_keys,
                postings: right_postings,
                children: right_children,
            },
        ))
    }

    /// Removes one (key, RowId) entry. Returns true if it existed.
    /// Underflow rebalancing is intentionally omitted: deletions leave nodes
    /// sparse but correct, and metadata workloads are insert-dominated.
    pub fn remove(&mut self, key: &Key, row: RowId) -> bool {
        fn rec(node: &mut Node, key: &Key, row: RowId) -> bool {
            match node.keys.binary_search(key) {
                Ok(ix) => {
                    let posting = &mut node.postings[ix];
                    match posting.binary_search(&row) {
                        Ok(p) => {
                            posting.remove(p);
                            // An empty posting list stays as a routing key in
                            // interior nodes; lookups skip it.
                            true
                        }
                        Err(_) => false,
                    }
                }
                Err(ix) => {
                    if node.is_leaf() {
                        false
                    } else {
                        rec(&mut node.children[ix], key, row)
                    }
                }
            }
        }
        let removed = rec(&mut self.root, key, row);
        if removed {
            self.len -= 1;
        }
        removed
    }

    /// All RowIds for an exact key.
    pub fn get(&self, key: &Key) -> Vec<RowId> {
        self.postings(key).to_vec()
    }

    /// All RowIds for an exact key, borrowed from the tree (no allocation).
    pub fn postings(&self, key: &[Value]) -> &[RowId] {
        fn rec<'a>(node: &'a Node, key: &[Value]) -> &'a [RowId] {
            match node.keys.binary_search_by(|k| k.as_slice().cmp(key)) {
                Ok(ix) => &node.postings[ix],
                Err(_) if node.is_leaf() => &[],
                Err(ix) => rec(&node.children[ix], key),
            }
        }
        rec(&self.root, key)
    }

    /// First RowId for a key, if any.
    pub fn get_one(&self, key: &Key) -> Option<RowId> {
        self.postings(key).first().copied()
    }

    /// In-order range scan over `(key, RowId)` pairs.
    pub fn range(&self, lo: Bound<&Key>, hi: Bound<&Key>) -> Vec<(Key, RowId)> {
        let (lo, hi) = (lo.map(Vec::as_slice), hi.map(Vec::as_slice));
        let position = |k: &[Value]| place(k, lo, hi);
        let mut out = Vec::new();
        Self::visit(&self.root, &position, &mut |key, rows| {
            out.extend(rows.iter().map(|&row| (key.to_vec(), row)));
        });
        out
    }

    /// All entries in key order.
    pub fn iter_all(&self) -> Vec<(Key, RowId)> {
        self.range(Bound::Unbounded, Bound::Unbounded)
    }

    /// Row ids under the keys that start with `prefix` and whose next
    /// component lies within `lo..hi`, in key order. With a whole key as
    /// `prefix` this is that key's posting list.
    pub fn rows(&self, prefix: &[Value], lo: Bound<&Value>, hi: Bound<&Value>) -> Vec<RowId> {
        let mut out = Vec::new();
        self.seek(prefix, lo, hi, |_, rows| out.extend_from_slice(rows));
        out
    }

    /// Number of row ids [`BTreeIndex::rows`] returns, without collecting
    /// them.
    pub fn count(&self, prefix: &[Value], lo: Bound<&Value>, hi: Bound<&Value>) -> usize {
        let mut n = 0;
        self.seek(prefix, lo, hi, |_, rows| n += rows.len());
        n
    }

    /// Calls `f` with each key starting with `prefix` whose next component
    /// lies within `lo..hi` (bounds on a component past the key's end are
    /// ignored), and its postings, in key order. Descends by key: the cost
    /// is the tree's depth plus the keys visited, never a walk of the index.
    fn seek(
        &self,
        prefix: &[Value],
        lo: Bound<&Value>,
        hi: Bound<&Value>,
        mut f: impl FnMut(&[Value], &[RowId]),
    ) {
        let position = |k: &[Value]| {
            let p = prefix.len().min(k.len());
            match k[..p].cmp(&prefix[..p]) {
                Ordering::Equal if k.len() < prefix.len() => return Ordering::Less,
                Ordering::Equal => {}
                other => return other,
            }
            k.get(p).map_or(Ordering::Equal, |next| place(next, lo, hi))
        };
        Self::visit(&self.root, &position, &mut f);
    }

    /// Visits, in order, the keys `position` places inside the scan
    /// (`Equal`), given that it places every key before the scan `Less` and
    /// every key after it `Greater`. Returns true once a key after the scan
    /// was seen, so callers stop.
    fn visit(
        node: &Node,
        position: &impl Fn(&[Value]) -> Ordering,
        f: &mut impl FnMut(&[Value], &[RowId]),
    ) -> bool {
        let start = node.keys.partition_point(|k| position(k) == Ordering::Less);
        for ix in start..node.keys.len() {
            // The child left of key `ix` holds the keys between key `ix - 1`
            // (before the scan) and key `ix`.
            if !node.is_leaf() && Self::visit(&node.children[ix], position, f) {
                return true;
            }
            if position(&node.keys[ix]) == Ordering::Greater {
                return true;
            }
            f(&node.keys[ix], &node.postings[ix]);
        }
        match node.children.last() {
            Some(last) => Self::visit(last, position, f),
            None => false,
        }
    }

    /// Deep structural check (fsck): ordering, separator bounds, node shape,
    /// posting-list discipline, uniqueness, and the entry count. Returns every
    /// violated invariant as a human-readable message.
    pub fn check_invariants(&self) -> std::result::Result<(), Vec<String>> {
        fn rec(
            node: &Node,
            lo: Option<&Key>,
            hi: Option<&Key>,
            depth: usize,
            unique: bool,
            entries: &mut usize,
            problems: &mut Vec<String>,
        ) {
            let at = |msg: String| format!("depth {depth}: {msg}");
            if node.keys.len() != node.postings.len() {
                problems.push(at(format!(
                    "{} keys but {} posting lists",
                    node.keys.len(),
                    node.postings.len()
                )));
            }
            if node.keys.len() > MAX_KEYS {
                problems.push(at(format!(
                    "over-full node: {} keys > {MAX_KEYS}",
                    node.keys.len()
                )));
            }
            for (ix, w) in node.keys.windows(2).enumerate() {
                if w[0] >= w[1] {
                    problems.push(at(format!("keys[{ix}] >= keys[{}]", ix + 1)));
                }
            }
            if let (Some(first), Some(lo)) = (node.keys.first(), lo) {
                if first <= lo {
                    problems.push(at("first key <= left separator".into()));
                }
            }
            if let (Some(last), Some(hi)) = (node.keys.last(), hi) {
                if last >= hi {
                    problems.push(at("last key >= right separator".into()));
                }
            }
            for (ix, posting) in node.postings.iter().enumerate() {
                *entries += posting.len();
                if unique && posting.len() > 1 {
                    problems.push(at(format!(
                        "unique index holds {} rows under keys[{ix}]",
                        posting.len()
                    )));
                }
                if posting.windows(2).any(|w| w[0] >= w[1]) {
                    problems.push(at(format!("postings[{ix}] not sorted/deduped")));
                }
            }
            if node.is_leaf() {
                return;
            }
            if node.children.len() != node.keys.len() + 1 {
                problems.push(at(format!(
                    "interior node has {} keys but {} children",
                    node.keys.len(),
                    node.children.len()
                )));
                return; // child separators below would be meaningless
            }
            for (ix, child) in node.children.iter().enumerate() {
                let clo = if ix == 0 {
                    lo
                } else {
                    Some(&node.keys[ix - 1])
                };
                let chi = if ix == node.keys.len() {
                    hi
                } else {
                    Some(&node.keys[ix])
                };
                rec(child, clo, chi, depth + 1, unique, entries, problems);
            }
        }
        let mut problems = Vec::new();
        let mut entries = 0usize;
        rec(
            &self.root,
            None,
            None,
            0,
            self.unique,
            &mut entries,
            &mut problems,
        );
        if entries != self.len {
            problems.push(format!(
                "len says {} entries but postings hold {entries}",
                self.len
            ));
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

    fn rid(n: u32) -> RowId {
        RowId { page: 0, slot: n }
    }

    fn key(v: i64) -> Key {
        vec![Value::Int(v)]
    }

    #[test]
    fn insert_and_get() {
        let mut ix = BTreeIndex::new(false);
        ix.insert(key(5), rid(1)).unwrap();
        ix.insert(key(5), rid(2)).unwrap();
        ix.insert(key(7), rid(3)).unwrap();
        assert_eq!(ix.get(&key(5)), vec![rid(1), rid(2)]);
        assert_eq!(ix.get(&key(7)), vec![rid(3)]);
        assert!(ix.get(&key(6)).is_empty());
        assert_eq!(ix.len(), 3);
    }

    #[test]
    fn unique_violation() {
        let mut ix = BTreeIndex::new(true);
        ix.insert(key(1), rid(1)).unwrap();
        assert!(ix.insert(key(1), rid(2)).is_err());
        // Same RowId re-insert is idempotent.
        ix.insert(key(1), rid(1)).unwrap();
        assert_eq!(ix.len(), 1);
    }

    #[test]
    fn deep_tree_stays_sorted() {
        let mut ix = BTreeIndex::new(false);
        // Insert shuffled keys to force splits in interesting orders.
        let mut keys: Vec<i64> = (0..2000).collect();
        // Deterministic shuffle via multiplication mod prime.
        keys.sort_by_key(|k| (k * 48271) % 2003);
        for (i, k) in keys.iter().enumerate() {
            ix.insert(key(*k), rid(i as u32)).unwrap();
        }
        assert_eq!(ix.check_invariants(), Ok(()));
        let all = ix.iter_all();
        assert_eq!(all.len(), 2000);
        for w in all.windows(2) {
            assert!(w[0].0 <= w[1].0);
        }
    }

    #[test]
    fn range_scans() {
        let mut ix = BTreeIndex::new(false);
        for k in 0..100 {
            ix.insert(key(k), rid(k as u32)).unwrap();
        }
        let mid = ix.range(Bound::Included(&key(10)), Bound::Excluded(&key(20)));
        assert_eq!(mid.len(), 10);
        assert_eq!(mid[0].0, key(10));
        assert_eq!(mid[9].0, key(19));
        let open = ix.range(Bound::Excluded(&key(97)), Bound::Unbounded);
        assert_eq!(open.len(), 2);
    }

    #[test]
    fn remove_entries() {
        let mut ix = BTreeIndex::new(false);
        for k in 0..200 {
            ix.insert(key(k), rid(k as u32)).unwrap();
        }
        assert!(ix.remove(&key(50), rid(50)));
        assert!(!ix.remove(&key(50), rid(50)));
        assert!(!ix.remove(&key(5000), rid(1)));
        assert!(ix.get(&key(50)).is_empty());
        assert_eq!(ix.len(), 199);
        assert_eq!(ix.check_invariants(), Ok(()));
    }

    #[test]
    fn fsck_detects_corruption() {
        let mut ix = BTreeIndex::new(false);
        for k in 0..500 {
            ix.insert(key(k), rid(k as u32)).unwrap();
        }
        assert_eq!(ix.check_invariants(), Ok(()));

        // Out-of-order keys in the root.
        let mut broken = BTreeIndex::new(false);
        for k in 0..3 {
            broken.insert(key(k), rid(k as u32)).unwrap();
        }
        broken.root.keys.swap(0, 2);
        let problems = broken.check_invariants().unwrap_err();
        assert!(problems.iter().any(|p| p.contains(">=")), "{problems:?}");

        // Entry-count drift.
        let mut drifted = BTreeIndex::new(false);
        drifted.insert(key(1), rid(1)).unwrap();
        drifted.len = 7;
        let problems = drifted.check_invariants().unwrap_err();
        assert!(
            problems.iter().any(|p| p.contains("len says 7")),
            "{problems:?}"
        );

        // A unique index smuggling two rows under one key.
        let mut dup = BTreeIndex::new(true);
        dup.insert(key(1), rid(1)).unwrap();
        dup.root.postings[0].push(rid(2));
        dup.len += 1;
        let problems = dup.check_invariants().unwrap_err();
        assert!(
            problems.iter().any(|p| p.contains("unique index holds 2")),
            "{problems:?}"
        );
    }

    #[test]
    fn composite_keys_and_prefix() {
        let mut ix = BTreeIndex::new(false);
        ix.insert(vec![Value::text("temp"), Value::Int(1)], rid(1))
            .unwrap();
        ix.insert(vec![Value::text("temp"), Value::Int(2)], rid(2))
            .unwrap();
        ix.insert(vec![Value::text("wind"), Value::Int(1)], rid(3))
            .unwrap();
        let temp = [Value::text("temp")];
        assert_eq!(
            ix.rows(&temp, Bound::Unbounded, Bound::Unbounded),
            [rid(1), rid(2)]
        );
        assert_eq!(
            ix.count(&temp, Bound::Excluded(&Value::Int(1)), Bound::Unbounded),
            1
        );
        // A whole key is its posting list.
        let whole = [Value::text("wind"), Value::Int(1)];
        assert_eq!(
            ix.rows(&whole, Bound::Unbounded, Bound::Unbounded),
            [rid(3)]
        );
    }
}
