//! Property-based tests for the storage substrate.

use proptest::prelude::*;
use sensormeta_relstore::btree::BTreeIndex;
use sensormeta_relstore::heap::Heap;
use sensormeta_relstore::{Database, RowId, Value};
use std::collections::BTreeMap;
use std::ops::{Bound, RangeBounds};

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<i64>().prop_map(Value::Int),
        // Finite floats only; NaN is normalized to Null by construction.
        (-1e12f64..1e12).prop_map(Value::float),
        "[a-zA-Zäöü0-9_ ]{0,24}".prop_map(Value::text),
        any::<bool>().prop_map(Value::Bool),
    ]
}

/// Second key components for the composite seek property: NULL, signed
/// zeros, infinities, mixed `Int`/`Float` and text.
const SCORES: [Value; 9] = [
    Value::Null,
    Value::Float(f64::NEG_INFINITY),
    Value::Int(-2),
    Value::Float(-0.0),
    Value::Int(0),
    Value::Float(0.5),
    Value::Float(2.0),
    Value::Float(f64::INFINITY),
    Value::Bool(true),
];

proptest! {
    /// Row encoding round-trips bit-exactly for every value mix.
    #[test]
    fn row_encoding_roundtrip(row in prop::collection::vec(arb_value(), 0..12)) {
        let mut buf = Vec::new();
        sensormeta_relstore::encoding::encode_row(&row, &mut buf);
        let mut pos = 0;
        let back = sensormeta_relstore::encoding::decode_row(&buf, &mut pos).unwrap();
        prop_assert_eq!(pos, buf.len());
        prop_assert_eq!(row, back);
    }

    /// Decoding arbitrary garbage never panics — it returns Ok or Err.
    #[test]
    fn decode_garbage_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let mut pos = 0;
        let _ = sensormeta_relstore::encoding::decode_row(&bytes, &mut pos);
    }

    /// The B-tree agrees with a sorted model (BTreeMap) under a random
    /// insert/remove workload, and its structural invariants hold throughout.
    #[test]
    fn btree_matches_model(ops in prop::collection::vec((0i64..60, any::<bool>()), 1..300)) {
        let mut tree = BTreeIndex::new(false);
        let mut model: BTreeMap<i64, Vec<RowId>> = BTreeMap::new();
        for (i, (k, insert)) in ops.iter().enumerate() {
            let key = vec![Value::Int(*k)];
            let rid = RowId { page: 0, slot: i as u32 % 7 };
            if *insert {
                tree.insert(key, rid).unwrap();
                let list = model.entry(*k).or_default();
                if let Err(p) = list.binary_search(&rid) { list.insert(p, rid); }
            } else {
                let removed = tree.remove(&key, rid);
                let model_removed = model.get_mut(k).is_some_and(|l| {
                    l.binary_search(&rid).map(|p| { l.remove(p); true }).unwrap_or(false)
                });
                prop_assert_eq!(removed, model_removed);
            }
        }
        prop_assert_eq!(tree.check_invariants(), Ok(()));
        let got = tree.iter_all();
        let want: Vec<(Vec<Value>, RowId)> = model.iter()
            .flat_map(|(k, rids)| rids.iter().map(move |r| (vec![Value::Int(*k)], *r)))
            .collect();
        prop_assert_eq!(got, want);
    }

    /// Range scans agree with filtering the full iteration.
    #[test]
    fn btree_range_equals_filter(keys in prop::collection::vec(0i64..100, 0..120),
                                 lo in 0i64..100, width in 0i64..50) {
        let mut tree = BTreeIndex::new(false);
        for (i, k) in keys.iter().enumerate() {
            tree.insert(vec![Value::Int(*k)], RowId { page: 1, slot: i as u32 }).unwrap();
        }
        let hi = lo + width;
        let lo_key = vec![Value::Int(lo)];
        let hi_key = vec![Value::Int(hi)];
        let ranged = tree.range(Bound::Included(&lo_key), Bound::Excluded(&hi_key));
        let filtered: Vec<_> = tree.iter_all().into_iter()
            .filter(|(k, _)| *k >= lo_key && *k < hi_key)
            .collect();
        prop_assert_eq!(ranged, filtered);
    }

    /// Composite seeks (an equality prefix, then bounds on the next
    /// component) return exactly the row ids of the matching keys, in key
    /// order, after inserts and removals, and `count` agrees with them.
    #[test]
    fn btree_prefix_seek_equals_filter(
        entries in prop::collection::vec((0i64..4, 0usize..SCORES.len(), any::<bool>()), 0..200),
        grp in 0i64..4,
        lo in (0usize..SCORES.len() + 1, any::<bool>()),
        hi in (0usize..SCORES.len() + 1, any::<bool>()),
    ) {
        let mut tree = BTreeIndex::new(false);
        for (i, (g, s, keep)) in entries.iter().enumerate() {
            let key = vec![Value::Int(*g), SCORES[*s].clone()];
            let rid = RowId { page: 2, slot: i as u32 };
            tree.insert(key.clone(), rid).unwrap();
            if !keep {
                tree.remove(&key, rid);
            }
        }
        let bound = |(ix, incl): (usize, bool)| match SCORES.get(ix) {
            None => Bound::Unbounded,
            Some(v) if incl => Bound::Included(v),
            Some(v) => Bound::Excluded(v),
        };
        let (lo, hi) = (bound(lo), bound(hi));
        let prefix = [Value::Int(grp)];
        let want: Vec<RowId> = tree
            .iter_all()
            .into_iter()
            .filter(|(k, _)| k[0] == prefix[0] && (lo, hi).contains(&k[1]))
            .map(|(_, r)| r)
            .collect();
        prop_assert_eq!(tree.rows(&prefix, lo, hi), want.clone());
        prop_assert_eq!(tree.count(&prefix, lo, hi), want.len());
    }

    /// Heap: whatever was inserted and not deleted is retrievable verbatim.
    #[test]
    fn heap_retains_live_records(records in prop::collection::vec(
        prop::collection::vec(any::<u8>(), 0..6000), 1..40),
        delete_mask in prop::collection::vec(any::<bool>(), 1..40))
    {
        let mut heap = Heap::new();
        let ids: Vec<RowId> = records.iter().map(|r| heap.insert(r).unwrap()).collect();
        let mut live = Vec::new();
        for (i, id) in ids.iter().enumerate() {
            if delete_mask.get(i).copied().unwrap_or(false) {
                heap.delete(*id);
            } else {
                live.push((*id, &records[i]));
            }
        }
        prop_assert_eq!(heap.len(), live.len());
        prop_assert_eq!(heap.check_invariants(), Ok(()));
        for (id, rec) in &live {
            prop_assert_eq!(heap.get(*id), Some(rec.as_slice()));
        }
        // Snapshot round-trip preserves the same state.
        let snap = heap.to_snapshot();
        let mut pos = 0;
        let back = Heap::from_snapshot(&snap, &mut pos).unwrap();
        prop_assert_eq!(back.check_invariants(), Ok(()));
        for (id, rec) in &live {
            prop_assert_eq!(back.get(*id), Some(rec.as_slice()));
        }
    }

    /// A heavy insert/delete/vacuum workload never breaks the heap's
    /// structural invariants.
    #[test]
    fn heap_invariants_survive_vacuum(sizes in prop::collection::vec(1usize..5000, 1..60),
                                      mask in prop::collection::vec(any::<bool>(), 1..60)) {
        let mut heap = Heap::new();
        let ids: Vec<RowId> = sizes.iter()
            .map(|n| heap.insert(&vec![7u8; *n]).unwrap())
            .collect();
        for (i, id) in ids.iter().enumerate() {
            if mask.get(i).copied().unwrap_or(false) {
                heap.delete(*id);
            }
        }
        heap.vacuum();
        prop_assert_eq!(heap.check_invariants(), Ok(()));
    }

    /// SQL round-trip: values inserted through SQL literals come back equal
    /// through SELECT.
    #[test]
    fn sql_insert_select_roundtrip(vals in prop::collection::vec((any::<i64>(), "[a-z ]{0,16}"), 1..30)) {
        let mut db = Database::new();
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, n INTEGER, s TEXT)").unwrap();
        let mut expected = Vec::new();
        for (i, (n, s)) in vals.iter().enumerate() {
            db.execute(&format!("INSERT INTO t VALUES ({i}, {n}, '{s}')")).unwrap();
            expected.push((*n, s.clone()));
        }
        let rs = db.query("SELECT n, s FROM t ORDER BY id").unwrap();
        prop_assert_eq!(rs.rows.len(), expected.len());
        for (row, (n, s)) in rs.rows.iter().zip(&expected) {
            prop_assert_eq!(&row[0], &Value::Int(*n));
            prop_assert_eq!(&row[1], &Value::text(s.clone()));
        }
    }

    /// ORDER BY produces a non-decreasing sequence under the Value ordering.
    #[test]
    fn order_by_sorts(vals in prop::collection::vec(any::<i64>(), 1..50)) {
        let mut db = Database::new();
        db.execute("CREATE TABLE t (v INTEGER)").unwrap();
        for v in &vals {
            db.execute(&format!("INSERT INTO t VALUES ({v})")).unwrap();
        }
        let rs = db.query("SELECT v FROM t ORDER BY v").unwrap();
        let out: Vec<i64> = rs.rows.iter().map(|r| r[0].as_int().unwrap()).collect();
        let mut sorted = vals.clone();
        sorted.sort();
        prop_assert_eq!(out, sorted);
    }

    /// Index access path and full scan return identical result sets.
    #[test]
    fn index_plan_equivalence(keys in prop::collection::vec(0i64..40, 1..80), probe in 0i64..40) {
        let mut with_index = Database::new();
        let mut without = Database::new();
        with_index.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, k INTEGER)").unwrap();
        without.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, k INTEGER)").unwrap();
        with_index.execute("CREATE INDEX t_k ON t (k)").unwrap();
        for (i, k) in keys.iter().enumerate() {
            let sql = format!("INSERT INTO t VALUES ({i}, {k})");
            with_index.execute(&sql).unwrap();
            without.execute(&sql).unwrap();
        }
        for q in [
            format!("SELECT id FROM t WHERE k = {probe} ORDER BY id"),
            format!("SELECT id FROM t WHERE k >= {probe} ORDER BY id"),
            format!("SELECT id FROM t WHERE k BETWEEN {probe} AND {} ORDER BY id", probe + 5),
        ] {
            prop_assert_eq!(with_index.query(&q).unwrap(), without.query(&q).unwrap());
        }
    }

    /// Database snapshots are stable: snapshot(restore(snapshot(db))) is
    /// byte-identical.
    #[test]
    fn snapshot_idempotent(n in 1usize..40) {
        let mut db = Database::new();
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, s TEXT)").unwrap();
        for i in 0..n {
            db.execute(&format!("INSERT INTO t VALUES ({i}, 'row{i}')")).unwrap();
        }
        let snap1 = db.to_snapshot();
        let restored = Database::from_snapshot(&snap1).unwrap();
        let snap2 = restored.to_snapshot();
        prop_assert_eq!(snap1, snap2);
    }
}
