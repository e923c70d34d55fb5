//! Statement execution: evaluation of parsed SQL against the database
//! catalog, driven by the cost-based planner in [`super::planner`].
//!
//! The SELECT pipeline is: plan (access paths, probe joins, join order) →
//! bind (names to slots, column masks) → base scan → joins → column-order
//! restoration → WHERE filter → grouping & aggregation → HAVING →
//! projection → DISTINCT → ORDER BY → LIMIT/OFFSET. Every access path
//! yields a *superset* of matching rows and the full WHERE / ON predicates
//! are always re-applied — except a WHERE equality (or `IN` list) the base
//! relation's index seek already guarantees for every row it yields — so
//! plan choices can never change results.
//!
//! Binding happens once per statement: every expression is lowered to a
//! [`BoundExpr`] over slot indices, and each relation gets a mask of the
//! columns the statement references, so scans and probes build only those
//! values (the rest read as NULL and are never looked at).

use super::ast::*;
use super::expr::{bind, truthiness, BoundExpr, Row, RowSchema};
use super::planner::{
    literal, plan_dml, plan_select, range_bounds, AccessPath, PlannerConfig, ScanPlan, SelectPlan,
};
use crate::btree::BTreeIndex;
use crate::error::{RelError, Result};
use crate::heap::RowId;
use crate::table::{IndexDef, Table};
use crate::value::Value;
use sensormeta_obs as obs;
use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::ops::Bound;

/// Counter of values the executor builds from stored rows, added once per
/// statement. Columns a statement does not reference are skipped, not
/// counted.
const VALUES_DECODED: &str = "relstore_values_decoded_total";

/// A materialized query result.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultSet {
    /// Output column names.
    pub columns: Vec<String>,
    /// Output rows.
    pub rows: Vec<Vec<Value>>,
}

impl ResultSet {
    /// Index of an output column by name.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns
            .iter()
            .position(|c| c.eq_ignore_ascii_case(name))
    }

    /// Renders the result as an aligned ASCII table (the paper's "plain
    /// tabular format" output).
    pub fn to_ascii_table(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(String::len).collect();
        let rendered: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| r.iter().map(Value::to_string).collect())
            .collect();
        for row in &rendered {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let sep = |out: &mut String| {
            out.push('+');
            for w in &widths {
                out.push_str(&"-".repeat(w + 2));
                out.push('+');
            }
            out.push('\n');
        };
        sep(&mut out);
        out.push('|');
        for (c, w) in self.columns.iter().zip(&widths) {
            out.push_str(&format!(" {c:<w$} |"));
        }
        out.push('\n');
        sep(&mut out);
        for row in &rendered {
            out.push('|');
            for (c, w) in row.iter().zip(&widths) {
                out.push_str(&format!(" {c:<w$} |"));
            }
            out.push('\n');
        }
        sep(&mut out);
        out
    }
}

/// Result of executing a statement.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecOutcome {
    /// SELECT output.
    Rows(ResultSet),
    /// Number of rows affected by INSERT/UPDATE/DELETE.
    Affected(usize),
    /// DDL success.
    Done,
}

impl ExecOutcome {
    /// Unwraps a row result.
    pub fn into_rows(self) -> Result<ResultSet> {
        match self {
            ExecOutcome::Rows(rs) => Ok(rs),
            other => Err(RelError::Exec(format!("expected rows, got {other:?}"))),
        }
    }

    /// Unwraps an affected-row count.
    pub fn affected(&self) -> usize {
        match self {
            ExecOutcome::Affected(n) => *n,
            _ => 0,
        }
    }
}

/// The catalog of tables keyed by lowercase name.
pub(crate) type Catalog = BTreeMap<String, Table>;

/// Executes a parsed statement against a catalog; `cfg` plans how a
/// SELECT, UPDATE or DELETE finds its rows.
pub fn execute(catalog: &mut Catalog, stmt: Statement, cfg: PlannerConfig) -> Result<ExecOutcome> {
    match stmt {
        Statement::CreateTable {
            name,
            columns,
            if_not_exists,
        } => {
            let key = name.to_ascii_lowercase();
            if catalog.contains_key(&key) {
                return if if_not_exists {
                    Ok(ExecOutcome::Done)
                } else {
                    Err(RelError::TableExists(name))
                };
            }
            let cols = columns
                .into_iter()
                .map(|c| crate::schema::Column {
                    name: c.name,
                    ty: c.ty,
                    not_null: c.not_null || c.primary_key,
                    unique: c.unique || c.primary_key,
                    primary_key: c.primary_key,
                })
                .collect();
            let schema = crate::schema::TableSchema::new(name, cols)?;
            let table = Table::create(schema)?;
            catalog.insert(key, table);
            Ok(ExecOutcome::Done)
        }
        Statement::DropTable { name, if_exists } => {
            let key = name.to_ascii_lowercase();
            if catalog.remove(&key).is_none() && !if_exists {
                return Err(RelError::NoSuchTable(name));
            }
            Ok(ExecOutcome::Done)
        }
        Statement::CreateIndex {
            name,
            table,
            columns,
            unique,
            trigram,
        } => {
            let t = catalog
                .get_mut(&table.to_ascii_lowercase())
                .ok_or_else(|| RelError::NoSuchTable(table.clone()))?;
            let cols: Vec<usize> = columns
                .iter()
                .map(|c| {
                    t.schema
                        .column_index(c)
                        .ok_or_else(|| RelError::NoSuchColumn(c.clone()))
                })
                .collect::<Result<_>>()?;
            let def = if trigram {
                let [col] = cols[..] else {
                    return Err(RelError::Exec(
                        "TRIGRAM INDEX covers exactly one column".to_owned(),
                    ));
                };
                crate::table::IndexDef::trigram(name, col)
            } else {
                crate::table::IndexDef::btree(name, cols, unique)
            };
            t.create_index(def)?;
            Ok(ExecOutcome::Done)
        }
        Statement::Insert {
            table,
            columns,
            rows,
        } => {
            let t = catalog
                .get_mut(&table.to_ascii_lowercase())
                .ok_or_else(|| RelError::NoSuchTable(table.clone()))?;
            let arity = t.schema.arity();
            let positions: Vec<usize> = match &columns {
                None => (0..arity).collect(),
                Some(cols) => cols
                    .iter()
                    .map(|c| {
                        t.schema
                            .column_index(c)
                            .ok_or_else(|| RelError::NoSuchColumn(c.clone()))
                    })
                    .collect::<Result<_>>()?,
            };
            let empty_schema = RowSchema::default();
            let mut n = 0usize;
            for row_exprs in rows {
                if row_exprs.len() != positions.len() {
                    return Err(RelError::ArityMismatch {
                        expected: positions.len(),
                        found: row_exprs.len(),
                    });
                }
                let mut row = vec![Value::Null; arity];
                for (expr, &pos) in row_exprs.iter().zip(&positions) {
                    row[pos] = bind(expr, &empty_schema).eval(Row::new(&[]))?.into_owned();
                }
                t.insert(row)?;
                n += 1;
            }
            Ok(ExecOutcome::Affected(n))
        }
        Statement::Update {
            table,
            sets,
            predicate,
        } => {
            let scan = plan_dml(catalog, &table, predicate.as_ref(), cfg)?;
            let t = catalog
                .get_mut(&table.to_ascii_lowercase())
                .ok_or_else(|| RelError::NoSuchTable(table.clone()))?;
            let schema = row_schema_for(t, &t.schema.name);
            let set_ix: Vec<(usize, BoundExpr)> = sets
                .iter()
                .map(|(c, e)| {
                    t.schema
                        .column_index(c)
                        .map(|ix| (ix, bind(e, &schema)))
                        .ok_or_else(|| RelError::NoSuchColumn(c.clone()))
                })
                .collect::<Result<_>>()?;
            let predicate = predicate.as_ref().map(|p| bind(p, &schema));
            // Find the matching rows first (mutating while scanning would
            // alias the heap), building only the predicate's columns; each
            // target's new row is built from the whole old one.
            let mut decoded = 0u64;
            let mut apply = || {
                let targets = dml_targets(t, &scan, predicate.as_ref(), &mut decoded)?;
                for &rid in &targets {
                    let Some(old_row) = t.get(rid)? else { continue };
                    decoded += old_row.len() as u64;
                    let mut new_row = old_row.clone();
                    for (ix, e) in &set_ix {
                        new_row[*ix] = e.eval(Row::new(&old_row))?.into_owned();
                    }
                    t.update(rid, new_row)?;
                }
                Ok(ExecOutcome::Affected(targets.len()))
            };
            let out = apply();
            obs::counter(VALUES_DECODED).add(decoded);
            out
        }
        Statement::Delete { table, predicate } => {
            let scan = plan_dml(catalog, &table, predicate.as_ref(), cfg)?;
            let t = catalog
                .get_mut(&table.to_ascii_lowercase())
                .ok_or_else(|| RelError::NoSuchTable(table.clone()))?;
            let schema = row_schema_for(t, &t.schema.name);
            let predicate = predicate.as_ref().map(|p| bind(p, &schema));
            let mut decoded = 0u64;
            let targets = dml_targets(t, &scan, predicate.as_ref(), &mut decoded);
            obs::counter(VALUES_DECODED).add(decoded);
            let targets = targets?;
            for &rid in &targets {
                t.delete(rid)?;
            }
            Ok(ExecOutcome::Affected(targets.len()))
        }
        Statement::Select(sel) => Ok(ExecOutcome::Rows(execute_select_with(catalog, &sel, cfg)?)),
        Statement::Explain(sel) => Ok(ExecOutcome::Rows(explain_select(catalog, &sel)?)),
    }
}

/// The rows of `t` an UPDATE/DELETE predicate keeps (all rows without
/// one): the planned path's candidates, built only in the predicate's
/// columns (counted into `decoded`), re-checked against the whole
/// predicate.
fn dml_targets(
    t: &Table,
    scan: &ScanPlan,
    predicate: Option<&BoundExpr>,
    decoded: &mut u64,
) -> Result<Vec<RowId>> {
    let mut mask = vec![false; t.schema.arity()];
    if let Some(p) = predicate {
        p.for_each_column(&mut |slot| mask[slot] = true);
    }
    bump_path_counter(&scan.path);
    let mut targets = Vec::new();
    for (rid, row) in run_scan(t, scan, &mask, mask.len(), decoded)? {
        if predicate.map_or(Ok(true), |p| p.holds(Row::new(&row)))? {
            targets.push(rid);
        }
    }
    // Heap order, as a full scan yields them: a statement that fails part
    // way (a unique violation) stops at the same row whatever the path.
    targets.sort_unstable();
    Ok(targets)
}

/// Number of columns a mask marks.
fn mask_width(mask: &[bool]) -> u64 {
    mask.iter().filter(|&&m| m).count() as u64
}

fn row_schema_for<'a>(t: &'a Table, alias: &'a str) -> RowSchema<'a> {
    RowSchema::new(
        t.schema
            .columns
            .iter()
            .map(|c| (Some(alias), c.name.as_str()))
            .collect(),
    )
}

// ---------- SELECT ----------

/// Executes a SELECT against an immutable catalog under `cfg`.
/// [`PlannerConfig::Naive`] is the reference behavior the property suite and
/// the bench compare the costed plans against.
pub fn execute_select_with(
    catalog: &Catalog,
    sel: &SelectStmt,
    cfg: PlannerConfig,
) -> Result<ResultSet> {
    let plan = plan_select(catalog, sel, cfg)?;
    if plan.reordered {
        obs::counter("sql_plan_join_reorder_total").inc();
    }
    let bound = BoundSelect::bind(catalog, sel, &plan)?;
    let mut decoded = 0u64;
    let out = run_select(catalog, sel, &plan, bound, &mut decoded);
    obs::counter(VALUES_DECODED).add(decoded);
    out
}

/// One projection item, bound.
enum Proj {
    /// `*` or `alias.*`: slots copied as they are.
    Slots(Vec<usize>),
    /// A bare column no other item or sort key reads: moved out of the row.
    Take(usize),
    /// `alias.*` naming no relation: an error on the first row (ungrouped)
    /// or nothing (grouped), as it has always been.
    UnknownAlias(String),
    /// Any other expression.
    Expr(BoundExpr),
}

/// One ORDER BY key, bound.
enum OrderKey {
    /// Sorts by an output column (positional `ORDER BY 2` or an output
    /// alias that names no source column).
    Output(usize),
    /// Sorts by an expression over the source row.
    Expr(BoundExpr),
}

/// A SELECT with every expression bound to slots and, per relation, the
/// columns the statement references.
struct BoundSelect {
    /// Per relation in executed order (base first): the columns to build.
    masks: Vec<Vec<bool>>,
    /// Per join step: the ON predicate over (rows so far, right row).
    on: Vec<BoundExpr>,
    /// Per join step: the probe key over the rows so far, when probing.
    probe_keys: Vec<Option<BoundExpr>>,
    /// WHERE over the written-order row, minus what the base seek implies.
    predicate: Option<BoundExpr>,
    projection: Vec<Proj>,
    names: Vec<String>,
    /// Grouping / aggregation applies.
    grouped: bool,
    group_by: Vec<BoundExpr>,
    having: Option<BoundExpr>,
    order_by: Vec<OrderKey>,
    /// Slots of the written-order row.
    width: usize,
}

impl BoundSelect {
    fn bind(catalog: &Catalog, sel: &SelectStmt, plan: &SelectPlan) -> Result<BoundSelect> {
        // Executed-order layout: each relation's offset, each join step's
        // ON over the prefix it extends, each probe key over the prefix.
        let mut schema = RowSchema::default();
        let mut offsets = Vec::new();
        let mut arities = Vec::new();
        let mut on = Vec::new();
        let mut probe_keys = Vec::new();
        let scans = plan.base.iter().chain(plan.joins.iter().map(|j| &j.scan));
        for (i, scan) in scans.enumerate() {
            let t = scan_table(catalog, scan)?;
            let rel = row_schema_for(t, &scan.alias);
            offsets.push(schema.len());
            arities.push(rel.len());
            if i == 0 {
                schema = rel;
                continue;
            }
            let step = &plan.joins[i - 1];
            probe_keys.push(step.probe.as_ref().map(|p| bind(&p.left_expr, &schema)));
            schema = schema.concat(&rel);
            on.push(bind(&step.on, &schema));
        }
        // Written-order layout, which everything after the joins reads.
        let exec_width = schema.len();
        let (written, exec_slot): (RowSchema<'_>, Vec<usize>) = match &plan.written_slots {
            Some(slots) => (
                RowSchema::new(slots.iter().map(|&s| schema.columns()[s]).collect()),
                slots.clone(),
            ),
            None => (schema, (0..exec_width).collect()),
        };

        let predicate = sel
            .predicate
            .as_ref()
            .and_then(|p| bind_where(p, &written, plan, &exec_slot));
        let mut projection: Vec<Proj> = sel
            .projection
            .iter()
            .map(|item| match item {
                SelectItem::Wildcard => Proj::Slots((0..written.len()).collect()),
                SelectItem::QualifiedWildcard(alias) => {
                    let slots = written.slots_of(alias);
                    if slots.is_empty() {
                        Proj::UnknownAlias(alias.clone())
                    } else {
                        Proj::Slots(slots)
                    }
                }
                SelectItem::Expr { expr, .. } => Proj::Expr(bind(expr, &written)),
            })
            .collect();
        let names = projection_names(sel, &written);
        let order_by: Vec<OrderKey> = sel
            .order_by
            .iter()
            .map(|item| order_key(&item.expr, &written, &names))
            .collect();
        let has_agg =
            sel.projection.iter().any(
                |item| matches!(item, SelectItem::Expr { expr, .. } if expr.contains_aggregate()),
            ) || sel.having.as_ref().is_some_and(Expr::contains_aggregate)
                || sel.order_by.iter().any(|o| o.expr.contains_aggregate());
        let grouped = !sel.group_by.is_empty() || has_agg;
        let group_by: Vec<BoundExpr> = sel.group_by.iter().map(|e| bind(e, &written)).collect();
        let having = sel.having.as_ref().map(|e| bind(e, &written));

        // Ungrouped output moves a bare projected column out of its row
        // when nothing else reads that slot.
        if !grouped {
            let mut uses = vec![0usize; written.len()];
            let mut count = |slot: usize| uses[slot] += 1;
            for item in &projection {
                match item {
                    Proj::Slots(slots) => slots.iter().for_each(|&s| count(s)),
                    Proj::Expr(e) => e.for_each_column(&mut count),
                    Proj::Take(_) | Proj::UnknownAlias(_) => {}
                }
            }
            for key in &order_by {
                if let OrderKey::Expr(e) = key {
                    e.for_each_column(&mut count);
                }
            }
            for item in &mut projection {
                if let Proj::Expr(BoundExpr::Column(slot)) = item {
                    if uses[*slot] == 1 {
                        *item = Proj::Take(*slot);
                    }
                }
            }
        }

        // Column masks: every slot any bound expression reads.
        let mut masks: Vec<Vec<bool>> = arities.iter().map(|&a| vec![false; a]).collect();
        let mut mark = |exec: usize| {
            let rel = offsets.partition_point(|&o| o <= exec) - 1;
            masks[rel][exec - offsets[rel]] = true;
        };
        for e in on.iter().chain(probe_keys.iter().flatten()) {
            e.for_each_column(&mut mark);
        }
        let mut mark_written = |slot: usize| mark(exec_slot[slot]);
        let final_exprs =
            predicate
                .iter()
                .chain(&group_by)
                .chain(&having)
                .chain(order_by.iter().filter_map(|k| match k {
                    OrderKey::Expr(e) => Some(e),
                    OrderKey::Output(_) => None,
                }));
        for e in final_exprs {
            e.for_each_column(&mut mark_written);
        }
        for item in &projection {
            match item {
                Proj::Slots(slots) => slots.iter().for_each(|&s| mark_written(s)),
                Proj::Take(s) => mark_written(*s),
                Proj::Expr(e) => e.for_each_column(&mut mark_written),
                Proj::UnknownAlias(_) => {}
            }
        }

        Ok(BoundSelect {
            masks,
            on,
            probe_keys,
            predicate,
            projection,
            names,
            grouped,
            group_by,
            having,
            order_by,
            width: written.len(),
        })
    }
}

/// Binds one ORDER BY expression. A bare positive integer literal within
/// the output is positional; a bare unqualified column that names no
/// source column but matches an output alias sorts by that output; anything
/// else is an expression over the source row.
fn order_key(expr: &Expr, schema: &RowSchema<'_>, names: &[String]) -> OrderKey {
    if let Expr::Literal(Value::Int(n)) = expr {
        if let Ok(ix @ 1..) = usize::try_from(*n) {
            if ix <= names.len() {
                return OrderKey::Output(ix - 1);
            }
        }
    }
    if let Expr::Column { table: None, name } = expr {
        if schema.resolve(None, name).is_err() {
            if let Some(pos) = names.iter().position(|c| c.eq_ignore_ascii_case(name)) {
                return OrderKey::Output(pos);
            }
        }
    }
    OrderKey::Expr(bind(expr, schema))
}

/// Binds WHERE, leaving out each top-level conjunct that the base
/// relation's seek guarantees: an `IndexSeek` (or a `RangeScan` under a
/// key prefix) yields only rows whose key (prefix) columns equal its key
/// (so `column = literal` on one of them is TRUE on every row), and a
/// `MultiSeek` exactly the rows whose column equals
/// one of its keys (so an `IN` list holding every key is). Such a conjunct
/// can neither fail nor stop the AND chain. `None` when no conjunct is
/// left.
fn bind_where(
    pred: &Expr,
    schema: &RowSchema<'_>,
    plan: &SelectPlan,
    exec_slot: &[usize],
) -> Option<BoundExpr> {
    // The base relation comes first in the executed layout, so its column
    // `c` sits at executed slot `c`.
    let on_column = |column: &Expr, c: usize| {
        matches!(column, Expr::Column { .. })
            && matches!(bind(column, schema), BoundExpr::Column(s) if exec_slot[s] == c)
    };
    let implied = |c: &Expr| match (&plan.base, c) {
        (
            Some(ScanPlan {
                path:
                    AccessPath::IndexSeek { cols, key, .. }
                    | AccessPath::RangeScan {
                        cols, prefix: key, ..
                    },
                ..
            }),
            Expr::Binary {
                op: BinOp::Eq,
                lhs,
                rhs,
            },
        ) => [(lhs, rhs), (rhs, lhs)].into_iter().any(|(column, lit)| {
            literal(lit).is_some_and(|v| {
                !v.is_null()
                    && cols
                        .iter()
                        .zip(key)
                        .any(|(&c, k)| v == *k && on_column(column, c))
            })
        }),
        (
            Some(ScanPlan {
                path: AccessPath::MultiSeek { col, keys, .. },
                ..
            }),
            Expr::InList {
                expr,
                list,
                negated: false,
            },
        ) => {
            on_column(expr, *col)
                && list
                    .iter()
                    .map(literal)
                    .collect::<Option<Vec<Value>>>()
                    .is_some_and(|items| keys.iter().all(|k| items.contains(k)))
        }
        _ => false,
    };
    let mut conjuncts = Vec::new();
    split_and(pred, &mut conjuncts);
    if !conjuncts.iter().any(|c| implied(c)) {
        return Some(bind(pred, schema));
    }
    // AND evaluates its conjuncts left to right and stops at the first
    // FALSE whatever the tree's shape, so a left fold of the rest is the
    // same predicate.
    conjuncts
        .into_iter()
        .filter(|c| !implied(c))
        .map(|c| bind(c, schema))
        .reduce(|acc, c| BoundExpr::Binary {
            op: BinOp::And,
            lhs: Box::new(acc),
            rhs: Box::new(c),
        })
}

/// Top-level AND conjuncts of a predicate, left to right.
fn split_and<'e>(expr: &'e Expr, out: &mut Vec<&'e Expr>) {
    match expr {
        Expr::Binary {
            op: BinOp::And,
            lhs,
            rhs,
        } => {
            split_and(lhs, out);
            split_and(rhs, out);
        }
        other => out.push(other),
    }
}

/// A join output row: `left` followed by `right`.
fn joined(left: &[Value], right: &[Value]) -> Vec<Value> {
    let mut row = Vec::with_capacity(left.len() + right.len());
    row.extend_from_slice(left);
    row.extend_from_slice(right);
    row
}

fn run_select(
    catalog: &Catalog,
    sel: &SelectStmt,
    plan: &SelectPlan,
    q: BoundSelect,
    decoded: &mut u64,
) -> Result<ResultSet> {
    // 1. FROM + planned access path.
    let mut rows = match &plan.base {
        None => vec![Vec::new()],
        Some(scan) => {
            let t = scan_table(catalog, scan)?;
            bump_path_counter(&scan.path);
            // Room for every joined relation's values, so probes append
            // in place.
            let width = q.masks.iter().map(Vec::len).sum();
            run_scan(t, scan, &q.masks[0], width, decoded)?
                .into_iter()
                .map(|(_, row)| row)
                .collect()
        }
    };

    // 2. Joins in planned order: index probes where the plan found an
    //    equi-join key, nested loops otherwise; LEFT pads with NULLs. ON is
    //    tested before a combined row is kept; only matches are
    //    materialised.
    for (j, step) in plan.joins.iter().enumerate() {
        let t = scan_table(catalog, &step.scan)?;
        let mask = &q.masks[j + 1];
        let on = &q.on[j];
        let mut out = Vec::new();
        if let (Some(probe), Some(key_expr)) = (&step.probe, &q.probe_keys[j]) {
            obs::counter("sql_plan_index_probe_join_total").inc();
            let (_, index) = t.index_on_column(probe.col).ok_or_else(|| {
                RelError::Exec(format!("planned index `{}` disappeared", probe.index))
            })?;
            let width = mask_width(mask);
            for mut row in rows {
                let key = key_expr.eval(Row::new(&row))?;
                // An equi-join never matches on NULL keys, so skip the probe.
                let rids = if key.is_null() {
                    &[][..]
                } else {
                    index.postings(std::slice::from_ref(&*key))
                };
                // Each candidate is decoded after the left row's values and
                // ON is tested there; a match keeps the row (the left values
                // are copied only if more candidates follow), a miss is cut
                // back to the left row.
                let left_len = row.len();
                let mut matched = false;
                for (i, &rid) in rids.iter().enumerate() {
                    if !t.get_masked_into(rid, mask, &mut row)? {
                        continue;
                    }
                    *decoded += width;
                    if !on.holds(Row::new(&row))? {
                        row.truncate(left_len);
                        continue;
                    }
                    matched = true;
                    let left = if i + 1 == rids.len() {
                        Vec::new()
                    } else {
                        row[..left_len].to_vec()
                    };
                    out.push(std::mem::replace(&mut row, left));
                }
                if !matched && step.kind == JoinKind::Left {
                    row.resize(left_len + mask.len(), Value::Null);
                    out.push(row);
                }
            }
        } else {
            bump_path_counter(&step.scan.path);
            let right_rows = run_scan(t, &step.scan, mask, mask.len(), decoded)?;
            for left in &rows {
                let mut matched = false;
                for (_, right) in &right_rows {
                    if on.holds(Row::pair(left, right))? {
                        matched = true;
                        out.push(joined(left, right));
                    }
                }
                if !matched && step.kind == JoinKind::Left {
                    let mut row = left.clone();
                    row.resize(left.len() + mask.len(), Value::Null);
                    out.push(row);
                }
            }
        }
        rows = out;
    }

    // 2b. Restore written column order after a join reorder, so the rest of
    //     the pipeline (and the user) see the layout the query declared.
    if let Some(slots) = &plan.written_slots {
        rows = rows
            .into_iter()
            .map(|mut r| slots.iter().map(|&s| std::mem::take(&mut r[s])).collect())
            .collect();
    }

    // 3. WHERE.
    if let Some(pred) = &q.predicate {
        let mut kept = Vec::with_capacity(rows.len());
        for row in rows {
            if pred.holds(Row::new(&row))? {
                kept.push(row);
            }
        }
        rows = kept;
    }

    // 4. Grouping / aggregation and projection.
    let mut out_rows = if q.grouped {
        grouped_output(&q, &rows)?
    } else {
        plain_output(&q, rows)?
    };

    // 6. DISTINCT.
    if sel.distinct {
        let mut seen = HashSet::new();
        out_rows.retain(|(out, _)| seen.insert(out.clone()));
    }

    // 7. ORDER BY (keys were precomputed per row by the output builders).
    if !sel.order_by.is_empty() {
        let descs: Vec<bool> = sel.order_by.iter().map(|o| o.desc).collect();
        out_rows.sort_by(|(_, ka), (_, kb)| {
            for (i, (a, b)) in ka.iter().zip(kb.iter()).enumerate() {
                let ord = a.cmp(b);
                if ord != std::cmp::Ordering::Equal {
                    return if descs[i] { ord.reverse() } else { ord };
                }
            }
            std::cmp::Ordering::Equal
        });
    }

    // 8. OFFSET / LIMIT.
    let offset = sel.offset.unwrap_or(0);
    let mut final_rows: Vec<Vec<Value>> = out_rows.into_iter().map(|(r, _)| r).collect();
    if offset > 0 {
        final_rows.drain(..offset.min(final_rows.len()));
    }
    if let Some(limit) = sel.limit {
        final_rows.truncate(limit);
    }

    Ok(ResultSet {
        columns: q.names,
        rows: final_rows,
    })
}

fn lookup<'a>(catalog: &'a Catalog, name: &str) -> Result<&'a Table> {
    catalog
        .get(&name.to_ascii_lowercase())
        .ok_or_else(|| RelError::NoSuchTable(name.to_owned()))
}

/// The table a planned scan reads (`table_key` is already the lowercase
/// catalog key).
fn scan_table<'c>(catalog: &'c Catalog, scan: &ScanPlan) -> Result<&'c Table> {
    catalog
        .get(&scan.table_key)
        .ok_or_else(|| RelError::NoSuchTable(scan.table_key.clone()))
}

/// Renders one planned access path for EXPLAIN output.
fn render_access(catalog: &Catalog, scan: &ScanPlan) -> Result<String> {
    let t = lookup(catalog, &scan.table_key)?;
    let col_name = |c: usize| t.schema.columns[c].name.as_str();
    let col_names = |cols: &[usize]| {
        cols.iter()
            .map(|&c| col_name(c))
            .collect::<Vec<_>>()
            .join(", ")
    };
    Ok(match &scan.path {
        AccessPath::FullScan => format!("FullScan {}", scan.display),
        AccessPath::IndexSeek { index, cols, .. } => format!(
            "IndexSeek {} via {index} (eq on {})",
            scan.display,
            col_names(cols)
        ),
        AccessPath::RangeScan {
            index, cols, col, ..
        } => {
            let eq = if cols.is_empty() {
                String::new()
            } else {
                format!("eq on {}, ", col_names(cols))
            };
            format!(
                "RangeScan {} via {index} ({eq}range on {})",
                scan.display,
                col_name(*col)
            )
        }
        AccessPath::MultiSeek { index, col, keys } => format!(
            "MultiSeek {} via {index} (in {} keys on {})",
            scan.display,
            keys.len(),
            col_name(*col)
        ),
        AccessPath::TrigramSeek { index, col, needle } => format!(
            "TrigramSeek {} via {index} (substr '{needle}' on {})",
            scan.display,
            col_name(*col)
        ),
    })
}

/// The B-tree index a plan named.
fn planned_btree<'t>(t: &'t Table, index: &str) -> Result<(&'t IndexDef, &'t BTreeIndex)> {
    t.btree(index)
        .ok_or_else(|| RelError::Exec(format!("planned index `{index}` disappeared")))
}

/// Renders the plan a SELECT would run, one step per row — the
/// observability hook that lets tests (and users) verify an index is
/// actually chosen. Shows the plan [`execute_select_with`] runs under
/// [`PlannerConfig::Costed`].
pub fn explain_select(catalog: &Catalog, sel: &SelectStmt) -> Result<ResultSet> {
    let plan = plan_select(catalog, sel, PlannerConfig::Costed)?;
    let mut steps: Vec<String> = Vec::new();
    if plan.reordered {
        steps.push("JoinReorder (by estimated cardinality)".to_owned());
    }
    match &plan.base {
        None => steps.push("ConstantRow".to_owned()),
        Some(scan) => steps.push(render_access(catalog, scan)?),
    }
    for step in &plan.joins {
        let kind = match step.kind {
            JoinKind::Inner => "Inner",
            JoinKind::Left => "Left",
        };
        match &step.probe {
            Some(probe) => steps.push(format!(
                "IndexProbe{kind}Join {} via {}",
                step.scan.display, probe.index
            )),
            None => {
                let mut s = format!("NestedLoop{kind}Join {}", step.scan.display);
                if !matches!(step.scan.path, AccessPath::FullScan) {
                    s.push_str(&format!(" ({})", render_access(catalog, &step.scan)?));
                }
                steps.push(s);
            }
        }
    }
    if sel.predicate.is_some() {
        steps.push("Filter".to_owned());
    }
    let has_agg = sel
        .projection
        .iter()
        .any(|item| matches!(item, SelectItem::Expr { expr, .. } if expr.contains_aggregate()))
        || sel.having.as_ref().is_some_and(Expr::contains_aggregate);
    if !sel.group_by.is_empty() || has_agg {
        steps.push(format!(
            "HashAggregate (group by {} keys)",
            sel.group_by.len()
        ));
    }
    if sel.having.is_some() {
        steps.push("HavingFilter".to_owned());
    }
    steps.push("Project".to_owned());
    if sel.distinct {
        steps.push("Distinct".to_owned());
    }
    if !sel.order_by.is_empty() {
        steps.push(format!("Sort ({} keys)", sel.order_by.len()));
    }
    if sel.offset.is_some() || sel.limit.is_some() {
        steps.push(format!(
            "LimitOffset (limit {:?}, offset {:?})",
            sel.limit, sel.offset
        ));
    }
    Ok(ResultSet {
        columns: vec!["plan".to_owned()],
        rows: steps.into_iter().map(|s| vec![Value::Text(s)]).collect(),
    })
}

/// Increments the per-access-path observability counters. Bumped when a
/// scan actually executes, so metrics reflect real work, not EXPLAIN calls.
/// Every path that seeks an index counts once in `sql_plan_index_seek_total`
/// and once in the counter of its kind.
fn bump_path_counter(path: &AccessPath) {
    let kind = match path {
        AccessPath::FullScan => {
            obs::counter("sql_plan_full_scan_total").inc();
            return;
        }
        AccessPath::IndexSeek { .. } => "sql_plan_eq_seek_total",
        AccessPath::RangeScan { .. } => "sql_plan_range_scan_total",
        AccessPath::MultiSeek { .. } => "sql_plan_multi_seek_total",
        AccessPath::TrigramSeek { .. } => "sql_plan_trigram_seek_total",
    };
    obs::counter("sql_plan_index_seek_total").inc();
    obs::counter(kind).inc();
}

/// Materializes the rows a planned access path produces with their row
/// ids, building only the columns `mask` marks, each row with room for
/// `capacity` values. Superset semantics: callers re-apply the full
/// predicate afterwards.
fn run_scan(
    t: &Table,
    scan: &ScanPlan,
    mask: &[bool],
    capacity: usize,
    decoded: &mut u64,
) -> Result<Vec<(RowId, Vec<Value>)>> {
    let width = mask_width(mask);
    let full_scan = |decoded: &mut u64| {
        let rows: Vec<_> = t.scan_masked(mask, capacity).collect();
        *decoded += width * rows.len() as u64;
        Ok(rows)
    };
    let rids: Vec<_> = match &scan.path {
        AccessPath::FullScan => return full_scan(decoded),
        AccessPath::IndexSeek { index, key, .. } => {
            let (def, ix) = planned_btree(t, index)?;
            let mut rids = ix.rows(key, Bound::Unbounded, Bound::Unbounded);
            // A key prefix spans several keys; read their rows in heap
            // order, as one key's posting list is.
            if key.len() < def.columns.len() {
                rids.sort_unstable();
            }
            rids
        }
        AccessPath::RangeScan {
            index,
            prefix,
            lo,
            hi,
            ..
        } => {
            let (_, ix) = planned_btree(t, index)?;
            let (lo, hi) = range_bounds(lo, hi);
            ix.rows(prefix, lo, hi)
        }
        AccessPath::MultiSeek { index, keys, .. } => {
            let (_, ix) = planned_btree(t, index)?;
            let mut rids = Vec::new();
            for key in keys {
                rids.extend(ix.rows(
                    std::slice::from_ref(key),
                    Bound::Unbounded,
                    Bound::Unbounded,
                ));
            }
            // Heap order, each row once.
            rids.sort_unstable();
            rids.dedup();
            rids
        }
        AccessPath::TrigramSeek { index, col, needle } => {
            let (_, trgm) = t.trigram_on_column(*col).ok_or_else(|| {
                RelError::Exec(format!("planned trigram index `{index}` disappeared"))
            })?;
            match trgm.candidates(needle) {
                Some(rids) => rids,
                // Unusable needle (shorter than a trigram): planner should
                // not have chosen this, but degrade to a full scan safely.
                None => return full_scan(decoded),
            }
        }
    };
    let mut rows = Vec::with_capacity(rids.len());
    for rid in rids {
        let mut row = Vec::with_capacity(capacity);
        if t.get_masked_into(rid, mask, &mut row)? {
            rows.push((rid, row));
        }
    }
    *decoded += width * rows.len() as u64;
    Ok(rows)
}

// ---------- projection ----------

type KeyedRows = Vec<(Vec<Value>, Vec<Value>)>; // (output row, sort keys)

/// Output column names for a projection.
fn projection_names(sel: &SelectStmt, schema: &RowSchema<'_>) -> Vec<String> {
    let mut names = Vec::new();
    for item in &sel.projection {
        match item {
            SelectItem::Wildcard => {
                names.extend(schema.columns().iter().map(|(_, n)| (*n).to_owned()));
            }
            SelectItem::QualifiedWildcard(alias) => {
                for ix in schema.slots_of(alias) {
                    names.push(schema.columns()[ix].1.to_owned());
                }
            }
            SelectItem::Expr { expr, alias } => {
                names.push(alias.clone().unwrap_or_else(|| render_expr_name(expr)));
            }
        }
    }
    names
}

fn render_expr_name(expr: &Expr) -> String {
    match expr {
        Expr::Column { name, .. } => name.clone(),
        Expr::Literal(v) => v.to_string(),
        Expr::Agg { func, arg, .. } => {
            let f = match func {
                AggFunc::Count => "count",
                AggFunc::Sum => "sum",
                AggFunc::Avg => "avg",
                AggFunc::Min => "min",
                AggFunc::Max => "max",
            };
            match arg {
                None => format!("{f}(*)"),
                Some(a) => format!("{f}({})", render_expr_name(a)),
            }
        }
        Expr::Func { name, .. } => format!("{name}(..)"),
        _ => "expr".to_owned(),
    }
}

/// Projects ungrouped rows, also computing ORDER BY sort keys.
fn plain_output(q: &BoundSelect, rows: Vec<Vec<Value>>) -> Result<KeyedRows> {
    let mut out = Vec::with_capacity(rows.len());
    for mut row in rows {
        let mut orow = Vec::with_capacity(q.names.len());
        for item in &q.projection {
            match item {
                Proj::Slots(slots) => orow.extend(slots.iter().map(|&ix| row[ix].clone())),
                Proj::UnknownAlias(alias) => {
                    return Err(RelError::Exec(format!("unknown table alias `{alias}`")));
                }
                Proj::Take(ix) => orow.push(std::mem::take(&mut row[*ix])),
                Proj::Expr(e) => orow.push(e.eval(Row::new(&row))?.into_owned()),
            }
        }
        let keys = q
            .order_by
            .iter()
            .map(|key| match key {
                OrderKey::Output(pos) => Ok(orow[*pos].clone()),
                OrderKey::Expr(e) => e.eval(Row::new(&row)).map(Cow::into_owned),
            })
            .collect::<Result<Vec<Value>>>()?;
        out.push((orow, keys));
    }
    Ok(out)
}

/// Projects grouped rows: groups by GROUP BY keys, folds aggregates, applies
/// HAVING, computes sort keys. Groups hold row indices, not row copies.
fn grouped_output(q: &BoundSelect, rows: &[Vec<Value>]) -> Result<KeyedRows> {
    // Build groups preserving first-seen order.
    let mut order: Vec<Vec<Value>> = Vec::new();
    let mut groups: HashMap<Vec<Value>, Vec<usize>> = HashMap::new();
    if q.group_by.is_empty() {
        // Single global group (possibly empty).
        order.push(Vec::new());
        groups.insert(Vec::new(), (0..rows.len()).collect());
    } else {
        for (i, row) in rows.iter().enumerate() {
            let key: Vec<Value> = q
                .group_by
                .iter()
                .map(|e| e.eval(Row::new(row)).map(Cow::into_owned))
                .collect::<Result<_>>()?;
            match groups.get_mut(&key) {
                Some(group) => group.push(i),
                None => {
                    order.push(key.clone());
                    groups.insert(key, vec![i]);
                }
            }
        }
    }

    let null_row = vec![Value::Null; q.width];
    let mut out = Vec::new();
    for key in order {
        let group = &groups[&key];
        let rep: &[Value] = group.first().map_or(&null_row, |&i| &rows[i]);
        if let Some(having) = &q.having {
            if truthiness(&eval_grouped(having, rep, rows, group)?) != Some(true) {
                continue;
            }
        }
        let mut orow = Vec::new();
        for item in &q.projection {
            match item {
                Proj::Slots(slots) => orow.extend(slots.iter().map(|&ix| rep[ix].clone())),
                Proj::Take(ix) => orow.push(rep[*ix].clone()),
                Proj::UnknownAlias(_) => {}
                Proj::Expr(e) => orow.push(eval_grouped(e, rep, rows, group)?),
            }
        }
        let keys = q
            .order_by
            .iter()
            .map(|key| match key {
                OrderKey::Output(pos) => Ok(orow[*pos].clone()),
                OrderKey::Expr(e) => eval_grouped(e, rep, rows, group),
            })
            .collect::<Result<Vec<Value>>>()?;
        out.push((orow, keys));
    }
    Ok(out)
}

/// Evaluates an expression for one group: its outermost aggregates are
/// computed over the group's rows first, in order, then the expression is
/// evaluated against the group's representative row.
fn eval_grouped(
    expr: &BoundExpr,
    rep: &[Value],
    rows: &[Vec<Value>],
    group: &[usize],
) -> Result<Value> {
    let aggs = expr
        .aggregates()
        .into_iter()
        .map(|(func, arg, distinct)| compute_agg(func, arg, distinct, rows, group))
        .collect::<Result<Vec<Value>>>()?;
    Ok(expr.eval(Row::new(rep).with_aggs(&aggs))?.into_owned())
}

fn compute_agg(
    func: AggFunc,
    arg: Option<&BoundExpr>,
    distinct: bool,
    rows: &[Vec<Value>],
    group: &[usize],
) -> Result<Value> {
    // COUNT(*) counts rows including NULLs.
    let Some(arg) = arg else {
        return Ok(Value::Int(group.len() as i64));
    };
    let mut vals: Vec<Cow<'_, Value>> = Vec::with_capacity(group.len());
    for &i in group {
        let v = arg.eval(Row::new(&rows[i]))?;
        if !v.is_null() {
            vals.push(v);
        }
    }
    if distinct {
        let mut seen = HashSet::new();
        vals.retain(|v| seen.insert(v.clone()));
    }
    Ok(match func {
        AggFunc::Count => Value::Int(vals.len() as i64),
        AggFunc::Min => vals.into_iter().min().map_or(Value::Null, Cow::into_owned),
        AggFunc::Max => vals.into_iter().max().map_or(Value::Null, Cow::into_owned),
        AggFunc::Sum | AggFunc::Avg => {
            if vals.is_empty() {
                return Ok(Value::Null);
            }
            let all_int = vals.iter().all(|v| matches!(**v, Value::Int(_)));
            if all_int && func == AggFunc::Sum {
                let mut acc = 0i64;
                for v in &vals {
                    let i = v
                        .as_int()
                        .ok_or_else(|| RelError::Exec("SUM of non-integer".into()))?;
                    acc = acc
                        .checked_add(i)
                        .ok_or_else(|| RelError::Exec("SUM overflow".into()))?;
                }
                Value::Int(acc)
            } else {
                let mut acc = 0f64;
                let n = vals.len() as f64;
                for v in &vals {
                    acc += v
                        .as_float()
                        .ok_or_else(|| RelError::Exec("SUM/AVG of non-number".into()))?;
                }
                if func == AggFunc::Avg {
                    Value::float(acc / n)
                } else {
                    Value::float(acc)
                }
            }
        }
    })
}
