//! A table: schema + heap storage + maintained indexes.

use crate::btree::BTreeIndex;
use crate::encoding::{decode_row, decode_row_into, encode_row};
use crate::error::{RelError, Result};
use crate::heap::{Heap, RowId};
use crate::schema::TableSchema;
use crate::trigram::TrigramIndex;
use crate::value::{DataType, Value};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Kind of secondary index: ordered B-tree over column values, or a trigram
/// posting index over a single text column for substring predicates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexKind {
    /// Ordered composite-key index (equality + range seeks).
    BTree,
    /// Trigram posting index (LIKE `'%substr%'` / ILIKE candidates).
    Trigram,
}

/// Definition of one secondary index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexDef {
    /// Index name (unique across the database).
    pub name: String,
    /// Column positions forming the composite key.
    pub columns: Vec<usize>,
    /// Uniqueness constraint.
    pub unique: bool,
    /// Index structure.
    pub kind: IndexKind,
}

impl IndexDef {
    /// A B-tree index definition.
    pub fn btree(name: impl Into<String>, columns: Vec<usize>, unique: bool) -> IndexDef {
        IndexDef {
            name: name.into(),
            columns,
            unique,
            kind: IndexKind::BTree,
        }
    }

    /// A trigram index definition over one text column.
    pub fn trigram(name: impl Into<String>, column: usize) -> IndexDef {
        IndexDef {
            name: name.into(),
            columns: vec![column],
            unique: false,
            kind: IndexKind::Trigram,
        }
    }
}

/// A table with its storage and indexes.
///
/// Cloning a table is a structural copy-on-write clone: the heap shares
/// its pages and every index tree is shared behind an `Arc` until the
/// clone's owner mutates it. This is what makes MVCC reader versions
/// cheap to publish.
#[derive(Debug, Clone)]
pub struct Table {
    /// The table's schema.
    pub schema: TableSchema,
    heap: Heap,
    /// B-tree indexes by name. BTreeMap keeps snapshot output deterministic.
    indexes: BTreeMap<String, (IndexDef, Arc<BTreeIndex>)>,
    /// Trigram indexes by name, kept apart so B-tree maintenance loops and
    /// unique checks stay untouched.
    trigrams: BTreeMap<String, (IndexDef, Arc<TrigramIndex>)>,
}

impl Table {
    /// Creates an empty table, materializing implicit unique indexes for
    /// PRIMARY KEY / UNIQUE columns.
    pub fn create(schema: TableSchema) -> Result<Table> {
        let mut table = Table {
            heap: Heap::new(),
            indexes: BTreeMap::new(),
            trigrams: BTreeMap::new(),
            schema,
        };
        let implicit: Vec<IndexDef> = table
            .schema
            .unique_columns()
            .map(|(ix, col)| {
                IndexDef::btree(
                    format!(
                        "{}_{}_unique",
                        table.schema.name,
                        col.name.to_ascii_lowercase()
                    ),
                    vec![ix],
                    true,
                )
            })
            .collect();
        for def in implicit {
            table.create_index(def)?;
        }
        Ok(table)
    }

    /// Adds an index, backfilling it from existing rows.
    pub fn create_index(&mut self, def: IndexDef) -> Result<()> {
        if self.indexes.contains_key(&def.name) || self.trigrams.contains_key(&def.name) {
            return Err(RelError::IndexExists(def.name));
        }
        for &c in &def.columns {
            if c >= self.schema.arity() {
                return Err(RelError::NoSuchColumn(format!("#{c}")));
            }
        }
        match def.kind {
            IndexKind::BTree => {
                let mut index = BTreeIndex::new(def.unique);
                for (rid, rec) in self.heap.scan() {
                    let mut pos = 0;
                    let row = decode_row(rec, &mut pos)?;
                    let key = def.columns.iter().map(|&c| row[c].clone()).collect();
                    index
                        .insert(key, rid)
                        .map_err(|e| named_violation(e, &def.name))?;
                }
                self.indexes
                    .insert(def.name.clone(), (def, Arc::new(index)));
            }
            IndexKind::Trigram => {
                if def.unique {
                    return Err(RelError::Exec(format!(
                        "trigram index `{}` cannot be UNIQUE",
                        def.name
                    )));
                }
                let [col] = def.columns[..] else {
                    return Err(RelError::Exec(format!(
                        "trigram index `{}` must cover exactly one column",
                        def.name
                    )));
                };
                if self.schema.columns[col].ty != DataType::Text {
                    return Err(RelError::Exec(format!(
                        "trigram index `{}` requires a TEXT column",
                        def.name
                    )));
                }
                let mut index = TrigramIndex::new();
                for (rid, rec) in self.heap.scan() {
                    let mut pos = 0;
                    let row = decode_row(rec, &mut pos)?;
                    if let Value::Text(s) = &row[col] {
                        index.insert(s, rid);
                    }
                }
                self.trigrams
                    .insert(def.name.clone(), (def, Arc::new(index)));
            }
        }
        Ok(())
    }

    /// Drops an index by name.
    pub fn drop_index(&mut self, name: &str) -> Result<()> {
        if self.indexes.remove(name).is_some() || self.trigrams.remove(name).is_some() {
            Ok(())
        } else {
            Err(RelError::NoSuchIndex(name.to_owned()))
        }
    }

    /// Names of indexes on this table (B-tree first, then trigram).
    pub fn index_names(&self) -> impl Iterator<Item = &str> {
        self.indexes
            .keys()
            .chain(self.trigrams.keys())
            .map(String::as_str)
    }

    /// Returns a single-column index (definition and tree) covering exactly
    /// `col`, preferring unique indexes — used by the planner. Multi-column
    /// indexes are excluded: probing their composite keys with a one-value
    /// key would miss rows rather than over-approximate.
    pub fn index_on_column(&self, col: usize) -> Option<(&IndexDef, &BTreeIndex)> {
        let mut best: Option<(&IndexDef, &BTreeIndex)> = None;
        for (def, ix) in self.indexes.values() {
            if def.columns[..] == [col] {
                let better = match best {
                    None => true,
                    Some((bdef, _)) => def.unique && !bdef.unique,
                };
                if better {
                    best = Some((def, ix.as_ref()));
                }
            }
        }
        best
    }

    /// Every B-tree index, by name.
    pub fn btree_indexes(&self) -> impl Iterator<Item = (&IndexDef, &BTreeIndex)> {
        self.indexes.values().map(|(def, ix)| (def, ix.as_ref()))
    }

    /// The B-tree index called `name`, if any — the executor runs a plan's
    /// seeks on the index the planner named.
    pub fn btree(&self, name: &str) -> Option<(&IndexDef, &BTreeIndex)> {
        self.indexes.get(name).map(|(def, ix)| (def, ix.as_ref()))
    }

    /// Returns the trigram index covering `col`, if any — used by the
    /// planner for substring predicates.
    pub fn trigram_on_column(&self, col: usize) -> Option<(&IndexDef, &TrigramIndex)> {
        self.trigrams
            .values()
            .find(|(def, _)| def.columns.first() == Some(&col))
            .map(|(def, ix)| (def, ix.as_ref()))
    }

    /// Maintains trigram indexes for one row entering (`add = true`) or
    /// leaving (`add = false`) the table.
    fn maintain_trigrams(&mut self, row: &[Value], rid: RowId, add: bool) {
        for (def, index) in self.trigrams.values_mut() {
            if let Value::Text(s) = &row[def.columns[0]] {
                let index = Arc::make_mut(index);
                if add {
                    index.insert(s, rid);
                } else {
                    index.remove(s, rid);
                }
            }
        }
    }

    /// Inserts a row (validated + coerced), maintaining all indexes.
    pub fn insert(&mut self, row: Vec<Value>) -> Result<RowId> {
        let row = self.schema.validate_row(row)?;
        // Check unique constraints before touching storage so a violation
        // leaves the table unchanged.
        for (def, index) in self.indexes.values() {
            if def.unique {
                let key: Vec<Value> = def.columns.iter().map(|&c| row[c].clone()).collect();
                if index.get_one(&key).is_some() {
                    return Err(RelError::UniqueViolation {
                        index: def.name.clone(),
                        key: format!("{key:?}"),
                    });
                }
            }
        }
        let mut buf = Vec::new();
        encode_row(&row, &mut buf);
        let rid = self.heap.insert(&buf)?;
        for (def, index) in self.indexes.values_mut() {
            let key = def.columns.iter().map(|&c| row[c].clone()).collect();
            Arc::make_mut(index)
                .insert(key, rid)
                .map_err(|e| named_violation(e, &def.name))?;
        }
        self.maintain_trigrams(&row, rid, true);
        Ok(rid)
    }

    /// Fetches and decodes a row.
    pub fn get(&self, rid: RowId) -> Result<Option<Vec<Value>>> {
        match self.heap.get(rid) {
            None => Ok(None),
            Some(rec) => {
                let mut pos = 0;
                Ok(Some(decode_row(rec, &mut pos)?))
            }
        }
    }

    /// Fetches a row, building only the columns `mask` marks (the others
    /// read as NULL), and appends its values to `out`. Returns false,
    /// leaving `out` alone, when the row does not exist; fails exactly when
    /// [`Table::get`] fails.
    pub fn get_masked_into(&self, rid: RowId, mask: &[bool], out: &mut Vec<Value>) -> Result<bool> {
        match self.heap.get(rid) {
            None => Ok(false),
            Some(rec) => decode_row_into(rec, &mut 0, Some(mask), out).map(|()| true),
        }
    }

    /// Deletes a row, maintaining indexes. Returns true if it was live.
    pub fn delete(&mut self, rid: RowId) -> Result<bool> {
        let Some(row) = self.get(rid)? else {
            return Ok(false);
        };
        self.heap.delete(rid);
        for (def, index) in self.indexes.values_mut() {
            let key = def.columns.iter().map(|&c| row[c].clone()).collect();
            Arc::make_mut(index).remove(&key, rid);
        }
        self.maintain_trigrams(&row, rid, false);
        Ok(true)
    }

    /// Replaces a row in place (delete + insert keeping constraints).
    pub fn update(&mut self, rid: RowId, new_row: Vec<Value>) -> Result<RowId> {
        let new_row = self.schema.validate_row(new_row)?;
        let Some(old_row) = self.get(rid)? else {
            return Err(RelError::Exec("update of missing row".into()));
        };
        // Unique pre-check, ignoring our own entry.
        for (def, index) in self.indexes.values() {
            if def.unique {
                let key: Vec<Value> = def.columns.iter().map(|&c| new_row[c].clone()).collect();
                if let Some(existing) = index.get_one(&key) {
                    if existing != rid {
                        return Err(RelError::UniqueViolation {
                            index: def.name.clone(),
                            key: format!("{key:?}"),
                        });
                    }
                }
            }
        }
        self.heap.delete(rid);
        for (def, index) in self.indexes.values_mut() {
            let key = def.columns.iter().map(|&c| old_row[c].clone()).collect();
            Arc::make_mut(index).remove(&key, rid);
        }
        self.maintain_trigrams(&old_row, rid, false);
        let mut buf = Vec::new();
        encode_row(&new_row, &mut buf);
        let new_rid = self.heap.insert(&buf)?;
        for (def, index) in self.indexes.values_mut() {
            let key = def.columns.iter().map(|&c| new_row[c].clone()).collect();
            Arc::make_mut(index)
                .insert(key, new_rid)
                .map_err(|e| named_violation(e, &def.name))?;
        }
        self.maintain_trigrams(&new_row, new_rid, true);
        Ok(new_rid)
    }

    /// Scan of decoded rows, building only the columns `mask` marks; the
    /// others read as NULL. Each row is allocated with room for `capacity`
    /// values (a join appends its right rows in place). Every stored record
    /// was produced by `encode_row`, so decoding normally never fails; a
    /// record that does fail (heap corruption) is skipped rather than
    /// panicking the scan — `fsck` is the tool that reports it.
    pub fn scan_masked<'a>(
        &'a self,
        mask: &'a [bool],
        capacity: usize,
    ) -> impl Iterator<Item = (RowId, Vec<Value>)> + 'a {
        self.heap.scan().filter_map(move |(rid, rec)| {
            let mut row = Vec::with_capacity(capacity);
            decode_row_into(rec, &mut 0, Some(mask), &mut row).ok()?;
            Some((rid, row))
        })
    }

    /// Every live row in encoded form, byte-sorted. Canonical for logical
    /// comparison: independent of heap placement and insertion order.
    pub fn sorted_encoded_rows(&self) -> Vec<Vec<u8>> {
        let mut rows: Vec<Vec<u8>> = self.heap.scan().map(|(_, rec)| rec.to_vec()).collect();
        rows.sort_unstable();
        rows
    }

    /// Number of live rows.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    pub(crate) fn heap(&self) -> &Heap {
        &self.heap
    }

    /// Deep structural check (fsck): the heap's page layout, every index's
    /// tree shape, and heap ↔ index agreement — each index must hold exactly
    /// one entry per live row, keyed by that row's current column values.
    /// Returns every violated invariant.
    pub fn check_invariants(&self) -> std::result::Result<(), Vec<String>> {
        let mut problems = self.heap.check_invariants().err().unwrap_or_default();
        let mut rows: Vec<(RowId, Vec<Value>)> = Vec::new();
        for (rid, rec) in self.heap.scan() {
            let mut pos = 0;
            match decode_row(rec, &mut pos) {
                Ok(row) => rows.push((rid, row)),
                Err(e) => problems.push(format!("row {rid:?} does not decode: {e}")),
            }
        }
        for (def, index) in self.indexes.values() {
            if let Err(index_problems) = index.check_invariants() {
                problems.extend(
                    index_problems
                        .into_iter()
                        .map(|p| format!("index {}: {p}", def.name)),
                );
            }
            if index.len() != rows.len() {
                problems.push(format!(
                    "index {} holds {} entries for {} live rows",
                    def.name,
                    index.len(),
                    rows.len()
                ));
            }
            for (rid, row) in &rows {
                let key: Vec<Value> = def.columns.iter().map(|&c| row[c].clone()).collect();
                if !index.get(&key).contains(rid) {
                    problems.push(format!(
                        "index {} is missing row {rid:?} under key {key:?}",
                        def.name
                    ));
                }
            }
        }
        for (def, index) in self.trigrams.values() {
            if let Err(index_problems) = index.check_invariants() {
                problems.extend(
                    index_problems
                        .into_iter()
                        .map(|p| format!("trigram index {}: {p}", def.name)),
                );
            }
            for (rid, row) in &rows {
                if let Value::Text(s) = &row[def.columns[0]] {
                    if !index.contains(s, *rid) {
                        problems.push(format!(
                            "trigram index {} is missing row {rid:?} for text {s:?}",
                            def.name
                        ));
                    }
                }
            }
        }
        if problems.is_empty() {
            Ok(())
        } else {
            Err(problems)
        }
    }

    pub(crate) fn index_defs(&self) -> impl Iterator<Item = &IndexDef> {
        self.indexes
            .values()
            .map(|(d, _)| d)
            .chain(self.trigrams.values().map(|(d, _)| d))
    }

    pub(crate) fn restore(schema: TableSchema, heap: Heap, defs: Vec<IndexDef>) -> Result<Table> {
        let mut table = Table {
            schema,
            heap,
            indexes: BTreeMap::new(),
            trigrams: BTreeMap::new(),
        };
        for def in defs {
            table.create_index(def)?;
        }
        Ok(table)
    }
}

fn named_violation(e: RelError, name: &str) -> RelError {
    match e {
        RelError::UniqueViolation { key, .. } => RelError::UniqueViolation {
            index: name.to_owned(),
            key,
        },
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Column;
    use crate::value::DataType;

    fn sensors() -> Table {
        Table::create(
            TableSchema::new(
                "sensors",
                vec![
                    Column::new("id", DataType::Integer).primary_key(),
                    Column::new("name", DataType::Text).not_null(),
                    Column::new("station", DataType::Text),
                ],
            )
            .unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn implicit_pk_index_created() {
        let t = sensors();
        let names: Vec<_> = t.index_names().collect();
        assert_eq!(names, vec!["sensors_id_unique"]);
    }

    #[test]
    fn fsck_detects_corruption() {
        let mut t = sensors();
        for i in 0..50 {
            t.insert(vec![
                Value::Int(i),
                Value::text(format!("s{i}")),
                Value::text("wfj"),
            ])
            .unwrap();
        }
        assert_eq!(t.check_invariants(), Ok(()));

        // Delete a row behind the indexes' back: the heap shrinks but the
        // primary-key index still points at the dead row.
        let rid = t.heap.scan().next().unwrap().0;
        t.heap.delete(rid);
        let problems = t.check_invariants().unwrap_err();
        assert!(
            problems.iter().any(|m| m.contains("49 live rows")),
            "{problems:?}"
        );

        // Index entry keyed by stale column values.
        let mut t = sensors();
        t.insert(vec![Value::Int(1), Value::text("a"), Value::Null])
            .unwrap();
        let rid = t.heap.scan().next().unwrap().0;
        let (_, index) = t.indexes.get_mut("sensors_id_unique").unwrap();
        let index = Arc::make_mut(index);
        index.remove(&vec![Value::Int(1)], rid);
        index.insert(vec![Value::Int(99)], rid).unwrap();
        let problems = t.check_invariants().unwrap_err();
        assert!(
            problems.iter().any(|m| m.contains("missing row")),
            "{problems:?}"
        );
    }

    #[test]
    fn insert_enforces_pk() {
        let mut t = sensors();
        t.insert(vec![1.into(), "t1".into(), "wfj".into()]).unwrap();
        let err = t
            .insert(vec![1.into(), "t2".into(), "wfj".into()])
            .unwrap_err();
        assert!(matches!(err, RelError::UniqueViolation { .. }));
        assert_eq!(t.len(), 1, "failed insert must not leave a row behind");
    }

    #[test]
    fn secondary_index_backfills_and_maintains() {
        let mut t = sensors();
        for i in 0..50 {
            t.insert(vec![
                i.into(),
                format!("sensor{i}").into(),
                format!("station{}", i % 5).into(),
            ])
            .unwrap();
        }
        t.create_index(IndexDef::btree("by_station", vec![2], false))
            .unwrap();
        let (_, ix) = t.index_on_column(2).unwrap();
        assert_eq!(ix.get(&vec!["station0".into()]).len(), 10);
        // Maintained on subsequent inserts.
        t.insert(vec![100.into(), "extra".into(), "station0".into()])
            .unwrap();
        let (_, ix) = t.index_on_column(2).unwrap();
        assert_eq!(ix.get(&vec!["station0".into()]).len(), 11);
    }

    #[test]
    fn delete_cleans_indexes() {
        let mut t = sensors();
        let rid = t.insert(vec![1.into(), "a".into(), Value::Null]).unwrap();
        assert!(t.delete(rid).unwrap());
        assert!(!t.delete(rid).unwrap());
        // Key is free again.
        t.insert(vec![1.into(), "b".into(), Value::Null]).unwrap();
    }

    #[test]
    fn update_moves_index_entries() {
        let mut t = sensors();
        let rid = t.insert(vec![1.into(), "a".into(), Value::Null]).unwrap();
        let new_rid = t
            .update(rid, vec![2.into(), "a2".into(), Value::Null])
            .unwrap();
        assert!(t.get(rid).unwrap().is_none() || rid == new_rid);
        let (_, ix) = t.index_on_column(0).unwrap();
        assert!(ix.get(&vec![Value::Int(1)]).is_empty());
        assert_eq!(ix.get_one(&vec![Value::Int(2)]), Some(new_rid));
    }

    #[test]
    fn update_unique_conflict_detected() {
        let mut t = sensors();
        t.insert(vec![1.into(), "a".into(), Value::Null]).unwrap();
        let rid2 = t.insert(vec![2.into(), "b".into(), Value::Null]).unwrap();
        let err = t
            .update(rid2, vec![1.into(), "b".into(), Value::Null])
            .unwrap_err();
        assert!(matches!(err, RelError::UniqueViolation { .. }));
    }

    #[test]
    fn duplicate_index_name_rejected() {
        let mut t = sensors();
        let def = IndexDef::btree("dup", vec![1], false);
        t.create_index(def.clone()).unwrap();
        assert!(matches!(
            t.create_index(def).unwrap_err(),
            RelError::IndexExists(_)
        ));
    }

    #[test]
    fn backfill_unique_violation_fails_creation() {
        let mut t = sensors();
        t.insert(vec![1.into(), "same".into(), Value::Null])
            .unwrap();
        t.insert(vec![2.into(), "same".into(), Value::Null])
            .unwrap();
        let err = t
            .create_index(IndexDef::btree("name_unique", vec![1], true))
            .unwrap_err();
        assert!(matches!(err, RelError::UniqueViolation { .. }));
        assert!(t.index_on_column(1).is_none());
    }

    #[test]
    fn trigram_index_maintained_across_mutations() {
        let mut t = sensors();
        for i in 0..10 {
            t.insert(vec![
                i.into(),
                format!("wind_speed_{i}").into(),
                "wfj".into(),
            ])
            .unwrap();
        }
        t.create_index(IndexDef::trigram("sensors_name_trgm", 1))
            .unwrap();
        let (_, trgm) = t.trigram_on_column(1).unwrap();
        assert_eq!(trgm.candidates("wind").unwrap().len(), 10);
        assert_eq!(t.check_invariants(), Ok(()));

        let rid = t.heap.scan().next().unwrap().0;
        t.update(rid, vec![0.into(), "air_temp_0".into(), "wfj".into()])
            .unwrap();
        let (_, trgm) = t.trigram_on_column(1).unwrap();
        assert_eq!(trgm.candidates("wind").unwrap().len(), 9);
        assert_eq!(trgm.candidates("air_temp").unwrap().len(), 1);

        let rid = t.heap.scan().next().unwrap().0;
        t.delete(rid).unwrap();
        assert_eq!(t.check_invariants(), Ok(()));
    }

    #[test]
    fn trigram_index_rejects_bad_definitions() {
        let mut t = sensors();
        // Non-text column.
        let err = t.create_index(IndexDef::trigram("bad_col", 0)).unwrap_err();
        assert!(matches!(err, RelError::Exec(_)));
        // UNIQUE trigram.
        let mut def = IndexDef::trigram("bad_unique", 1);
        def.unique = true;
        assert!(matches!(
            t.create_index(def).unwrap_err(),
            RelError::Exec(_)
        ));
        // Composite trigram.
        let mut def = IndexDef::trigram("bad_composite", 1);
        def.columns = vec![1, 2];
        assert!(matches!(
            t.create_index(def).unwrap_err(),
            RelError::Exec(_)
        ));
        // Name collisions span both maps.
        t.create_index(IndexDef::trigram("shared_name", 1)).unwrap();
        assert!(matches!(
            t.create_index(IndexDef::btree("shared_name", vec![0], false))
                .unwrap_err(),
            RelError::IndexExists(_)
        ));
        t.drop_index("shared_name").unwrap();
        assert!(t.trigram_on_column(1).is_none());
    }
}
