//! Cost-based SELECT planning.
//!
//! The planner turns a parsed `SelectStmt` into an explicit [`SelectPlan`]:
//! an access path per relation (full scan, B-tree seek on a key or a key
//! prefix, prefix + range, `IN`-list seek, trigram seek), optional
//! index-probe joins, and — for all-inner joins — a join order chosen by
//! estimated cardinality. The planner keeps no statistics: every estimate
//! is a plan-time count. A B-tree path is costed by counting the keys it
//! covers (an equality key, a key prefix, a range with or without a prefix,
//! each key of an `IN` list, a LIKE prefix), and a trigram seek by its
//! shortest posting list, an upper bound on its candidates. A LIKE prefix is
//! served by a B-tree range only on a TEXT column: on any other column LIKE
//! fails at evaluation, and a range over text keys would skip that failure.
//!
//! Safety invariant (shared with the executor): every access path returns a
//! *superset* of the rows its predicate matches, and the full WHERE / ON
//! predicates are always re-applied, so plan choices can never change the
//! rows a statement returns or changes — only how much work it takes to
//! produce them. A predicate that fails on some row (LIKE on a number,
//! integer overflow) fails under a plan only if that plan reaches the row.

use super::ast::*;
use super::exec::Catalog;
use crate::error::{RelError, Result};
use crate::table::Table;
use crate::value::{DataType, Value};
use std::collections::BTreeSet;
use std::ops::Bound;

/// How statements are planned. [`PlannerConfig::Naive`] is the reference
/// the property suite and the bench compare the costed plans against.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum PlannerConfig {
    /// Index seeks, probe joins and join reordering, chosen by plan-time
    /// counts.
    #[default]
    Costed,
    /// Full scans, nested loops and the written join order everywhere.
    Naive,
}

/// How one relation's rows are produced.
#[derive(Debug, Clone, PartialEq)]
pub enum AccessPath {
    /// Scan every live row.
    FullScan,
    /// B-tree equality on the index's leading columns: its whole key, or a
    /// key prefix of a composite index.
    IndexSeek {
        /// Index name.
        index: String,
        /// Column positions the key applies to (the index's leading ones).
        cols: Vec<usize>,
        /// Probe key, one value per column in `cols`.
        key: Vec<Value>,
    },
    /// B-tree range: equality on the index's leading columns (`prefix`,
    /// possibly empty), then bounds on the next column. Bounds are
    /// `(value, inclusive)`.
    RangeScan {
        /// Index name.
        index: String,
        /// Column positions of the leading columns.
        cols: Vec<usize>,
        /// Values of the leading columns, one per column in `cols`.
        prefix: Vec<Value>,
        /// Column position the bounds apply to.
        col: usize,
        /// Lower bound.
        lo: Option<(Value, bool)>,
        /// Upper bound.
        hi: Option<(Value, bool)>,
    },
    /// B-tree seek of every key of an `IN (…)` list on the index's leading
    /// column, in one pass.
    MultiSeek {
        /// Index name.
        index: String,
        /// Column position the keys apply to.
        col: usize,
        /// The list's non-NULL values, sorted and deduplicated.
        keys: Vec<Value>,
    },
    /// Trigram posting intersection for a substring.
    TrigramSeek {
        /// Index name.
        index: String,
        /// Column position the needle applies to.
        col: usize,
        /// Literal substring extracted from the LIKE/ILIKE pattern.
        needle: String,
    },
}

/// The B-tree bounds a [`AccessPath::RangeScan`] seeks. Every predicate a
/// range serves (comparisons, `BETWEEN`, a LIKE prefix) is false on NULL,
/// so an open lower end still starts after the NULL keys.
pub(crate) fn range_bounds<'a>(
    lo: &'a Option<(Value, bool)>,
    hi: &'a Option<(Value, bool)>,
) -> (Bound<&'a Value>, Bound<&'a Value>) {
    static NULL: Value = Value::Null;
    let lo = match lo {
        None => Bound::Excluded(&NULL),
        Some((v, true)) => Bound::Included(v),
        Some((v, false)) => Bound::Excluded(v),
    };
    let hi = match hi {
        None => Bound::Unbounded,
        Some((v, true)) => Bound::Included(v),
        Some((v, false)) => Bound::Excluded(v),
    };
    (lo, hi)
}

/// Planned access to one relation.
#[derive(Debug, Clone)]
pub struct ScanPlan {
    /// Lowercase catalog key of the table.
    pub table_key: String,
    /// Table name as declared (for EXPLAIN).
    pub display: String,
    /// Effective alias in the query.
    pub alias: String,
    /// Chosen access path.
    pub path: AccessPath,
    /// Estimated output rows.
    pub est_rows: f64,
}

/// An index-probe join: for each joined-so-far row, evaluate `left_expr`
/// and probe the right table's B-tree instead of loop-scanning it.
#[derive(Debug, Clone)]
pub struct ProbePlan {
    /// Right-side index name.
    pub index: String,
    /// Right-side column position.
    pub col: usize,
    /// Key expression over the already-joined columns.
    pub left_expr: Expr,
}

/// One planned join step.
#[derive(Debug, Clone)]
pub struct JoinStep {
    /// INNER or LEFT.
    pub kind: JoinKind,
    /// ON predicate applied to each combined row (re-attached conjuncts
    /// when the join chain was reordered).
    pub on: Expr,
    /// Loop-scan access for the right side (also carries naming/estimates
    /// when a probe is used).
    pub scan: ScanPlan,
    /// When set, probe instead of loop-scanning.
    pub probe: Option<ProbePlan>,
}

/// A full SELECT plan: base access, join steps, and — if the join chain was
/// reordered — the slot permutation restoring written column order.
#[derive(Debug, Clone)]
pub struct SelectPlan {
    /// Base relation access (`None` for FROM-less selects).
    pub base: Option<ScanPlan>,
    /// Join steps in execution order.
    pub joins: Vec<JoinStep>,
    /// True when execution order differs from written order.
    pub reordered: bool,
    /// For each written-layout slot, its index in the executed layout.
    /// `None` when layouts coincide.
    pub written_slots: Option<Vec<usize>>,
}

/// One relation of the query in written order.
struct Rel<'a> {
    table: &'a Table,
    key: String,
    alias: String,
}

fn lookup<'a>(catalog: &'a Catalog, name: &str) -> Result<&'a Table> {
    catalog
        .get(&name.to_ascii_lowercase())
        .ok_or_else(|| RelError::NoSuchTable(name.to_owned()))
}

fn make_rel<'a>(catalog: &'a Catalog, tref: &TableRef) -> Result<Rel<'a>> {
    let table = lookup(catalog, &tref.table)?;
    Ok(Rel {
        table,
        key: tref.table.to_ascii_lowercase(),
        alias: tref.effective_alias().to_owned(),
    })
}

fn scan_all(rel: &Rel<'_>) -> ScanPlan {
    ScanPlan {
        table_key: rel.key.clone(),
        display: rel.table.schema.name.clone(),
        alias: rel.alias.clone(),
        path: AccessPath::FullScan,
        est_rows: rel.table.len() as f64,
    }
}

/// Splits an expression into its top-level AND conjuncts.
fn split_conjuncts<'a>(expr: &'a Expr, out: &mut Vec<&'a Expr>) {
    if let Expr::Binary {
        op: BinOp::And,
        lhs,
        rhs,
    } = expr
    {
        split_conjuncts(lhs, out);
        split_conjuncts(rhs, out);
    } else {
        out.push(expr);
    }
}

/// AND-combines conjuncts back into one predicate (TRUE when empty).
fn combine_conjuncts(conjs: &[&Expr]) -> Expr {
    let mut it = conjs.iter();
    match it.next() {
        None => Expr::lit(true),
        Some(first) => it.fold((*first).clone(), |acc, c| Expr::Binary {
            op: BinOp::And,
            lhs: Box::new(acc),
            rhs: Box::new((*c).clone()),
        }),
    }
}

/// Resolves a column reference against one relation, refusing ambiguity:
/// a qualifier must equal the relation's alias; an unqualified name must
/// exist in this relation and in no other.
fn resolve_for_rel(
    qual: &Option<String>,
    name: &str,
    rel_ix: usize,
    rels: &[Rel<'_>],
) -> Option<usize> {
    match qual {
        Some(q) => {
            if q.eq_ignore_ascii_case(&rels[rel_ix].alias) {
                rels[rel_ix].table.schema.column_index(name)
            } else {
                None
            }
        }
        None => {
            let here = rels[rel_ix].table.schema.column_index(name)?;
            let elsewhere = rels
                .iter()
                .enumerate()
                .any(|(i, r)| i != rel_ix && r.table.schema.column_index(name).is_some());
            (!elsewhere).then_some(here)
        }
    }
}

/// Collects the lowercase aliases a conjunct's column references resolve to.
/// Returns `None` when any reference cannot be scoped unambiguously — the
/// caller then refrains from reordering.
fn conjunct_scope(expr: &Expr, rels: &[Rel<'_>]) -> Option<BTreeSet<String>> {
    let mut scope = BTreeSet::new();
    let mut ok = true;
    visit_columns(expr, &mut |qual, name| {
        if !ok {
            return;
        }
        match scope_of(qual, name, rels) {
            Some(alias) => {
                scope.insert(alias);
            }
            None => ok = false,
        }
    });
    ok.then_some(scope)
}

/// The unique relation alias a single column reference belongs to.
fn scope_of(qual: &Option<String>, name: &str, rels: &[Rel<'_>]) -> Option<String> {
    match qual {
        Some(q) => rels
            .iter()
            .find(|r| r.alias.eq_ignore_ascii_case(q))
            .map(|r| r.alias.to_ascii_lowercase()),
        None => {
            let mut owner = None;
            for r in rels {
                if r.table.schema.column_index(name).is_some() {
                    if owner.is_some() {
                        return None; // ambiguous
                    }
                    owner = Some(r.alias.to_ascii_lowercase());
                }
            }
            owner
        }
    }
}

fn visit_columns(expr: &Expr, f: &mut impl FnMut(&Option<String>, &str)) {
    match expr {
        Expr::Literal(_) => {}
        Expr::Column { table, name } => f(table, name),
        Expr::Binary { lhs, rhs, .. } => {
            visit_columns(lhs, f);
            visit_columns(rhs, f);
        }
        Expr::Unary { expr, .. } | Expr::IsNull { expr, .. } => visit_columns(expr, f),
        Expr::InList { expr, list, .. } => {
            visit_columns(expr, f);
            for e in list {
                visit_columns(e, f);
            }
        }
        Expr::Between { expr, lo, hi, .. } => {
            visit_columns(expr, f);
            visit_columns(lo, f);
            visit_columns(hi, f);
        }
        Expr::Func { args, .. } => {
            for a in args {
                visit_columns(a, f);
            }
        }
        Expr::Agg { arg, .. } => {
            if let Some(a) = arg {
                visit_columns(a, f);
            }
        }
    }
}

/// Longest run of literal characters (no `%`/`_`) in a LIKE pattern — the
/// best needle for a trigram probe. Empty when no run reaches three chars.
fn longest_literal_run(pattern: &str) -> String {
    pattern
        .split(['%', '_'])
        .max_by_key(|s| s.chars().count())
        .unwrap_or("")
        .to_owned()
}

/// Smallest string strictly greater than every string with this prefix.
pub(crate) fn like_prefix_upper_bound(prefix: &str) -> Option<String> {
    let mut chars: Vec<char> = prefix.chars().collect();
    while let Some(last) = chars.pop() {
        if let Some(next) = char::from_u32(u32::from(last) + 1) {
            chars.push(next);
            return Some(chars.into_iter().collect());
        }
    }
    None
}

/// A constant operand: a literal, or a negated numeric literal (`-5`
/// parses as a negation), folded exactly as the executor evaluates it.
pub(crate) fn literal(expr: &Expr) -> Option<Value> {
    match expr {
        Expr::Literal(v) => Some(v.clone()),
        Expr::Unary {
            op: UnOp::Neg,
            expr,
        } => match &**expr {
            Expr::Literal(Value::Int(i)) => i.checked_neg().map(Value::Int),
            Expr::Literal(Value::Float(x)) => Some(Value::float(-x)),
            _ => None,
        },
        _ => None,
    }
}

/// One end of a B-tree range: `(key, inclusive)`.
type RangeEnd = Option<(Value, bool)>;

/// A conjunct a B-tree can serve, reduced to the column it constrains.
enum Sarg {
    /// `col = v`.
    Eq(usize, Value),
    /// A comparison or `BETWEEN`: `col` within the bounds.
    Range(usize, RangeEnd, RangeEnd),
    /// `col IN (…)`: its non-NULL values, sorted and deduplicated.
    In(usize, Vec<Value>),
}

/// Recognises a conjunct of the shape `col op constant`, `col BETWEEN
/// constant AND constant` or `col IN (constants)` over relation `rel_ix`.
/// NULL constants, `NOT BETWEEN` and `NOT IN` serve no seek.
fn sarg(expr: &Expr, rel_ix: usize, rels: &[Rel<'_>]) -> Option<Sarg> {
    let column = |e: &Expr| match e {
        Expr::Column { table, name } => resolve_for_rel(table, name, rel_ix, rels),
        _ => None,
    };
    match expr {
        Expr::Binary { op, lhs, rhs } => {
            let (col, lit, flipped) = match (column(lhs), column(rhs)) {
                (Some(c), None) => (c, literal(rhs)?, false),
                (None, Some(c)) => (c, literal(lhs)?, true),
                _ => return None,
            };
            if lit.is_null() {
                return None;
            }
            let (lo, hi) = match (op, flipped) {
                (BinOp::Eq, _) => return Some(Sarg::Eq(col, lit)),
                (BinOp::Lt, false) | (BinOp::Gt, true) => (None, Some((lit, false))),
                (BinOp::Le, false) | (BinOp::Ge, true) => (None, Some((lit, true))),
                (BinOp::Gt, false) | (BinOp::Lt, true) => (Some((lit, false)), None),
                (BinOp::Ge, false) | (BinOp::Le, true) => (Some((lit, true)), None),
                _ => return None,
            };
            Some(Sarg::Range(col, lo, hi))
        }
        Expr::Between {
            expr,
            lo,
            hi,
            negated: false,
        } => {
            let col = column(expr)?;
            let (lo, hi) = (literal(lo)?, literal(hi)?);
            if lo.is_null() || hi.is_null() {
                return None;
            }
            Some(Sarg::Range(col, Some((lo, true)), Some((hi, true))))
        }
        Expr::InList {
            expr,
            list,
            negated: false,
        } => {
            let col = column(expr)?;
            let mut keys = list.iter().map(literal).collect::<Option<Vec<Value>>>()?;
            keys.retain(|v| !v.is_null());
            keys.sort_unstable();
            keys.dedup();
            Some(Sarg::In(col, keys))
        }
        _ => None,
    }
}

/// The tightest bounds the range conjuncts on `col` put together (they
/// are ANDed, so the largest lower and the smallest upper bound); `None`
/// when no conjunct bounds `col`.
fn tightest_range(sargs: &[Sarg], col: usize) -> Option<(RangeEnd, RangeEnd)> {
    // `a` is tighter than `b` when it cuts more: further in, or as far
    // but exclusive.
    let tighter = |a: &(Value, bool), b: &(Value, bool), inward: std::cmp::Ordering| {
        let ord = a.0.cmp(&b.0);
        ord == inward || (ord == std::cmp::Ordering::Equal && !a.1 && b.1)
    };
    let mut found = None;
    for s in sargs {
        let Sarg::Range(c, lo, hi) = s else { continue };
        if *c != col {
            continue;
        }
        let (cur_lo, cur_hi): &mut (RangeEnd, RangeEnd) = found.get_or_insert((None, None));
        if let Some(l) = lo {
            if cur_lo
                .as_ref()
                .is_none_or(|b| tighter(l, b, std::cmp::Ordering::Greater))
            {
                *cur_lo = Some(l.clone());
            }
        }
        if let Some(h) = hi {
            if cur_hi
                .as_ref()
                .is_none_or(|b| tighter(h, b, std::cmp::Ordering::Less))
            {
                *cur_hi = Some(h.clone());
            }
        }
    }
    found
}

/// The B-tree paths the conjuncts offer, with estimated row counts. For
/// each index, equality conjuncts on its leading columns make a key
/// (prefix); the conjuncts on the next column then add a range over it, or
/// — with no prefix — an `IN` list seek. Every estimate is the exact count
/// of the keys the path covers.
fn btree_paths(t: &Table, sargs: &[Sarg], out: &mut Vec<(AccessPath, f64)>) {
    for (def, ix) in t.btree_indexes() {
        let mut key = Vec::new();
        for c in &def.columns {
            let eq = sargs.iter().find_map(|s| match s {
                Sarg::Eq(col, v) if col == c => Some(v),
                _ => None,
            });
            match eq {
                Some(v) => key.push(v.clone()),
                None => break,
            }
        }
        if let Some(&next) = def.columns.get(key.len()) {
            if let Some((lo, hi)) = tightest_range(sargs, next) {
                let (l, h) = range_bounds(&lo, &hi);
                let est = ix.count(&key, l, h) as f64;
                out.push((
                    AccessPath::RangeScan {
                        index: def.name.clone(),
                        cols: def.columns[..key.len()].to_vec(),
                        prefix: key.clone(),
                        col: next,
                        lo,
                        hi,
                    },
                    est,
                ));
            }
            if key.is_empty() {
                for s in sargs {
                    let Sarg::In(col, keys) = s else { continue };
                    if *col != next {
                        continue;
                    }
                    let est = keys
                        .iter()
                        .map(|k| {
                            ix.count(std::slice::from_ref(k), Bound::Unbounded, Bound::Unbounded)
                        })
                        .sum::<usize>();
                    out.push((
                        AccessPath::MultiSeek {
                            index: def.name.clone(),
                            col: next,
                            keys: keys.clone(),
                        },
                        est as f64,
                    ));
                }
            }
        }
        if !key.is_empty() {
            let est = ix.count(&key, Bound::Unbounded, Bound::Unbounded) as f64;
            out.push((
                AccessPath::IndexSeek {
                    index: def.name.clone(),
                    cols: def.columns[..key.len()].to_vec(),
                    key,
                },
                est,
            ));
        }
    }
}

/// The paths one LIKE/ILIKE conjunct offers for a relation, with
/// estimated row counts: a B-tree range over a case-sensitive literal
/// prefix of a TEXT column, and a trigram seek on the longest literal run.
fn like_paths(expr: &Expr, rel_ix: usize, rels: &[Rel<'_>], out: &mut Vec<(AccessPath, f64)>) {
    let t = rels[rel_ix].table;
    let Expr::Binary {
        op: op @ (BinOp::Like | BinOp::ILike),
        lhs,
        rhs,
    } = expr
    else {
        return;
    };
    let Expr::Column { table, name } = &**lhs else {
        return;
    };
    let Some(col) = resolve_for_rel(table, name, rel_ix, rels) else {
        return;
    };
    let Expr::Literal(Value::Text(pattern)) = &**rhs else {
        return;
    };
    // Case-sensitive prefix of a TEXT column → B-tree range over
    // [prefix, next). Any other column fails LIKE on its first non-NULL
    // value, which a range over text keys would never reach.
    if *op == BinOp::Like && t.schema.columns[col].ty == DataType::Text {
        let prefix: String = pattern
            .chars()
            .take_while(|c| *c != '%' && *c != '_')
            .collect();
        let index = t
            .btree_indexes()
            .find(|(def, _)| def.columns.first() == Some(&col));
        if let (false, Some(upper), Some((def, ix))) =
            (prefix.is_empty(), like_prefix_upper_bound(&prefix), index)
        {
            let lo = Value::Text(prefix);
            let hi = Value::Text(upper);
            let est = ix.count(&[], Bound::Included(&lo), Bound::Excluded(&hi)) as f64;
            out.push((
                AccessPath::RangeScan {
                    index: def.name.clone(),
                    cols: Vec::new(),
                    prefix: Vec::new(),
                    col,
                    lo: Some((lo, true)),
                    hi: Some((hi, false)),
                },
                est,
            ));
        }
    }
    // Any literal run ≥ 3 chars → trigram seek (case-insensitive
    // postings serve both LIKE and ILIKE as supersets).
    let needle = longest_literal_run(pattern);
    if let Some((def, trgm)) = t.trigram_on_column(col) {
        if let Some(est) = trgm.estimate(&needle) {
            out.push((
                AccessPath::TrigramSeek {
                    index: def.name.clone(),
                    col,
                    needle,
                },
                est as f64,
            ));
        }
    }
}

/// Picks the cheapest access path for one relation given the conjuncts that
/// may narrow it. Full scan is the fallback; an indexed path must be
/// estimated strictly cheaper to win.
fn best_access(rel_ix: usize, rels: &[Rel<'_>], conjuncts: &[&Expr]) -> ScanPlan {
    let mut best = scan_all(&rels[rel_ix]);
    let mut candidates = Vec::new();
    let sargs: Vec<Sarg> = conjuncts
        .iter()
        .filter_map(|c| sarg(c, rel_ix, rels))
        .collect();
    btree_paths(rels[rel_ix].table, &sargs, &mut candidates);
    for c in conjuncts {
        like_paths(c, rel_ix, rels, &mut candidates);
    }
    for (path, est) in candidates {
        if est < best.est_rows {
            best.path = path;
            best.est_rows = est;
        }
    }
    best
}

/// Finds an index-probe opportunity among a join step's ON conjuncts:
/// `right.col = expr-over-in-scope-aliases` with a B-tree on `right.col`.
fn find_probe(
    conjuncts: &[&Expr],
    rel_ix: usize,
    rels: &[Rel<'_>],
    in_scope: &BTreeSet<String>,
) -> Option<ProbePlan> {
    for c in conjuncts {
        let Expr::Binary {
            op: BinOp::Eq,
            lhs,
            rhs,
        } = c
        else {
            continue;
        };
        for (col_side, other) in [(lhs, rhs), (rhs, lhs)] {
            let Expr::Column { table, name } = &**col_side else {
                continue;
            };
            let Some(col) = resolve_for_rel(table, name, rel_ix, rels) else {
                continue;
            };
            let Some(scope) = conjunct_scope(other, rels) else {
                continue;
            };
            if !scope.is_subset(in_scope) {
                continue;
            }
            if let Some((def, _)) = rels[rel_ix].table.index_on_column(col) {
                return Some(ProbePlan {
                    index: def.name.clone(),
                    col,
                    left_expr: (**other).clone(),
                });
            }
        }
    }
    None
}

/// Plans how an UPDATE or DELETE on `table` finds its rows: the cheapest
/// access path its WHERE conjuncts offer (a full scan without WHERE or
/// under [`PlannerConfig::Naive`]). As for SELECT the path yields a
/// superset; the executor re-checks the whole predicate on every
/// candidate.
pub(crate) fn plan_dml(
    catalog: &Catalog,
    table: &str,
    predicate: Option<&Expr>,
    cfg: PlannerConfig,
) -> Result<ScanPlan> {
    let tref = TableRef {
        table: table.to_owned(),
        alias: None,
    };
    let rels = [make_rel(catalog, &tref)?];
    if cfg == PlannerConfig::Naive {
        return Ok(scan_all(&rels[0]));
    }
    let mut conjuncts = Vec::new();
    if let Some(p) = predicate {
        split_conjuncts(p, &mut conjuncts);
    }
    Ok(best_access(0, &rels, &conjuncts))
}

/// Plans a SELECT. See the module docs for the cost model and the safety
/// invariant that makes every choice result-preserving.
pub fn plan_select(catalog: &Catalog, sel: &SelectStmt, cfg: PlannerConfig) -> Result<SelectPlan> {
    let Some(base_ref) = &sel.from else {
        return Ok(SelectPlan {
            base: None,
            joins: Vec::new(),
            reordered: false,
            written_slots: None,
        });
    };
    let mut rels = vec![make_rel(catalog, base_ref)?];
    for j in &sel.joins {
        rels.push(make_rel(catalog, &j.table)?);
    }

    // Duplicate aliases make column scoping ambiguous; plan as the naive
    // reference does: full scans in written order.
    let mut seen = BTreeSet::new();
    let aliases_distinct = rels
        .iter()
        .all(|r| seen.insert(r.alias.to_ascii_lowercase()));
    if cfg == PlannerConfig::Naive || !aliases_distinct {
        return Ok(SelectPlan {
            base: Some(scan_all(&rels[0])),
            joins: sel
                .joins
                .iter()
                .zip(rels.iter().skip(1))
                .map(|(j, r)| JoinStep {
                    kind: j.kind,
                    on: j.on.clone(),
                    scan: scan_all(r),
                    probe: None,
                })
                .collect(),
            reordered: false,
            written_slots: None,
        });
    }

    let mut where_conjuncts: Vec<&Expr> = Vec::new();
    if let Some(p) = &sel.predicate {
        split_conjuncts(p, &mut where_conjuncts);
    }
    let all_inner = sel.joins.iter().all(|j| j.kind == JoinKind::Inner);
    if all_inner && !sel.joins.is_empty() {
        if let Some(plan) = plan_reordered(sel, &rels, &where_conjuncts) {
            return Ok(plan);
        }
    }

    // Written order. The base and INNER right sides may be narrowed by WHERE
    // conjuncts; LEFT right sides only by their own ON conjuncts (narrowing a
    // LEFT right side from WHERE would change NULL-padding semantics).
    let base = best_access(0, &rels, &where_conjuncts);
    let mut in_scope: BTreeSet<String> = BTreeSet::new();
    in_scope.insert(rels[0].alias.to_ascii_lowercase());
    let mut joins = Vec::with_capacity(sel.joins.len());
    for (jx, j) in sel.joins.iter().enumerate() {
        let rel_ix = jx + 1;
        let mut on_conjuncts: Vec<&Expr> = Vec::new();
        split_conjuncts(&j.on, &mut on_conjuncts);
        let scan = match j.kind {
            JoinKind::Inner => {
                let mut pool = where_conjuncts.clone();
                pool.extend(on_conjuncts.iter().copied());
                best_access(rel_ix, &rels, &pool)
            }
            JoinKind::Left => best_access(rel_ix, &rels, &on_conjuncts),
        };
        let probe = find_probe(&on_conjuncts, rel_ix, &rels, &in_scope);
        in_scope.insert(rels[rel_ix].alias.to_ascii_lowercase());
        joins.push(JoinStep {
            kind: j.kind,
            on: j.on.clone(),
            scan,
            probe,
        });
    }
    Ok(SelectPlan {
        base: Some(base),
        joins,
        reordered: false,
        written_slots: None,
    })
}

/// Attempts a greedy cardinality-ordered plan for an all-inner join chain.
/// Returns `None` when any ON conjunct cannot be scoped unambiguously, in
/// which case the caller falls back to written order.
fn plan_reordered(
    sel: &SelectStmt,
    rels: &[Rel<'_>],
    where_conjuncts: &[&Expr],
) -> Option<SelectPlan> {
    let n = rels.len();
    // Pool of ON conjuncts with their alias scopes.
    let mut pool: Vec<(&Expr, BTreeSet<String>)> = Vec::new();
    for j in &sel.joins {
        let mut cs: Vec<&Expr> = Vec::new();
        split_conjuncts(&j.on, &mut cs);
        for c in cs {
            pool.push((c, conjunct_scope(c, rels)?));
        }
    }

    // Local access per relation: WHERE conjuncts plus single-relation ON
    // conjuncts (all joins are inner, so ON and WHERE narrow identically).
    let locals: Vec<ScanPlan> = (0..n)
        .map(|i| {
            let alias = rels[i].alias.to_ascii_lowercase();
            let mut conjs: Vec<&Expr> = where_conjuncts.to_vec();
            conjs.extend(
                pool.iter()
                    .filter(|(_, s)| s.len() == 1 && s.contains(&alias))
                    .map(|(c, _)| *c),
            );
            best_access(i, rels, &conjs)
        })
        .collect();

    // Greedy order: cheapest relation first, then the cheapest relation
    // connected to the current scope (falling back to cheapest overall when
    // nothing connects — a cross join either way).
    let mut order: Vec<usize> = Vec::with_capacity(n);
    let mut remaining: BTreeSet<usize> = (0..n).collect();
    let cheapest = |set: &[usize]| -> usize {
        let mut best = set[0];
        for &i in set {
            if locals[i].est_rows < locals[best].est_rows {
                best = i;
            }
        }
        best
    };
    let start = cheapest(&remaining.iter().copied().collect::<Vec<_>>());
    order.push(start);
    remaining.remove(&start);
    let mut scope: BTreeSet<String> = BTreeSet::new();
    scope.insert(rels[start].alias.to_ascii_lowercase());
    while !remaining.is_empty() {
        let connected: Vec<usize> = remaining
            .iter()
            .copied()
            .filter(|&i| {
                let alias = rels[i].alias.to_ascii_lowercase();
                pool.iter().any(|(_, s)| {
                    s.contains(&alias) && s.iter().all(|a| *a == alias || scope.contains(a))
                })
            })
            .collect();
        let pick = if connected.is_empty() {
            cheapest(&remaining.iter().copied().collect::<Vec<_>>())
        } else {
            cheapest(&connected)
        };
        order.push(pick);
        remaining.remove(&pick);
        scope.insert(rels[pick].alias.to_ascii_lowercase());
    }

    let reordered = order.iter().enumerate().any(|(pos, &i)| pos != i);

    // Re-attach each pooled conjunct at the earliest step whose scope covers
    // it (conjuncts scoped within the base attach to the first join step).
    let mut attached = vec![false; pool.len()];
    let mut scope_so_far: BTreeSet<String> = BTreeSet::new();
    scope_so_far.insert(rels[order[0]].alias.to_ascii_lowercase());
    let mut joins = Vec::with_capacity(n - 1);
    for &rel_ix in &order[1..] {
        let in_scope_before = scope_so_far.clone();
        scope_so_far.insert(rels[rel_ix].alias.to_ascii_lowercase());
        let step_conjuncts: Vec<&Expr> = pool
            .iter()
            .zip(attached.iter_mut())
            .filter_map(|((c, s), done)| {
                if !*done && s.is_subset(&scope_so_far) {
                    *done = true;
                    Some(*c)
                } else {
                    None
                }
            })
            .collect();
        let probe = find_probe(&step_conjuncts, rel_ix, rels, &in_scope_before);
        joins.push(JoinStep {
            kind: JoinKind::Inner,
            on: combine_conjuncts(&step_conjuncts),
            scan: locals[rel_ix].clone(),
            probe,
        });
    }
    debug_assert!(attached.iter().all(|a| *a), "every ON conjunct re-attached");

    // Slot permutation back to written layout.
    let written_slots = if reordered {
        let arities: Vec<usize> = rels.iter().map(|r| r.table.schema.arity()).collect();
        let mut exec_offsets = vec![0usize; n];
        let mut off = 0;
        for &rel_ix in &order {
            exec_offsets[rel_ix] = off;
            off += arities[rel_ix];
        }
        let mut slots = Vec::with_capacity(off);
        for (rel_ix, &a) in arities.iter().enumerate() {
            slots.extend(exec_offsets[rel_ix]..exec_offsets[rel_ix] + a);
        }
        Some(slots)
    } else {
        None
    };

    Some(SelectPlan {
        base: Some(locals[order[0]].clone()),
        joins,
        reordered,
        written_slots,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sql::exec::ExecOutcome;
    use crate::sql::parser::parse;

    fn catalog() -> Catalog {
        let mut cat = Catalog::new();
        let stmts = [
            "CREATE TABLE pages (id INTEGER PRIMARY KEY, title TEXT NOT NULL, ns INTEGER)",
            "CREATE TABLE annotations (page_id INTEGER, attribute TEXT, value TEXT)",
            "CREATE INDEX ann_page ON annotations (page_id)",
            "CREATE INDEX ann_attr ON annotations (attribute)",
            "CREATE TRIGRAM INDEX pages_title_trgm ON pages (title)",
        ];
        for s in stmts {
            let stmt = parse(s).unwrap();
            super::super::exec::execute(&mut cat, stmt, PlannerConfig::Costed).unwrap();
        }
        for i in 0..200i64 {
            // A few rows carry a distinctive substring so trigram seeks have
            // something selective to find.
            let site = if i % 20 == 0 { "davos" } else { "wind" };
            let stmt = parse(&format!(
                "INSERT INTO pages VALUES ({i}, 'Sensor_{:02}_{site}', {})",
                i % 50,
                i % 3
            ))
            .unwrap();
            super::super::exec::execute(&mut cat, stmt, PlannerConfig::Costed).unwrap();
        }
        for i in 0..400i64 {
            let stmt = parse(&format!(
                "INSERT INTO annotations VALUES ({}, 'attr{}', 'v{}')",
                i % 200,
                i % 7,
                i
            ))
            .unwrap();
            super::super::exec::execute(&mut cat, stmt, PlannerConfig::Costed).unwrap();
        }
        cat
    }

    fn plan(cat: &Catalog, sql: &str) -> SelectPlan {
        let Statement::Select(sel) = parse(sql).unwrap() else {
            panic!("not a select");
        };
        plan_select(cat, &sel, PlannerConfig::Costed).unwrap()
    }

    #[test]
    fn eq_on_indexed_column_seeks() {
        let cat = catalog();
        let p = plan(&cat, "SELECT * FROM pages WHERE id = 7");
        assert!(
            matches!(p.base.as_ref().unwrap().path, AccessPath::IndexSeek { .. }),
            "{p:?}"
        );
        // Exact plan-time probe: one row for a unique key.
        assert!((p.base.unwrap().est_rows - 1.0).abs() < 1e-9);
    }

    #[test]
    fn unindexed_predicate_full_scans() {
        let cat = catalog();
        let p = plan(&cat, "SELECT * FROM pages WHERE ns = 2");
        assert!(matches!(
            p.base.as_ref().unwrap().path,
            AccessPath::FullScan
        ));
    }

    #[test]
    fn substring_pattern_uses_trigram() {
        let cat = catalog();
        let p = plan(&cat, "SELECT * FROM pages WHERE title LIKE '%_07_%'");
        assert!(
            matches!(
                &p.base.as_ref().unwrap().path,
                AccessPath::TrigramSeek { needle, .. } if needle == "07"  // run "_07_" splits to "07"
            ) || matches!(&p.base.as_ref().unwrap().path, AccessPath::FullScan),
            "{p:?}"
        );
        let p = plan(&cat, "SELECT * FROM pages WHERE title ILIKE '%DAVOS%'");
        assert!(
            matches!(
                &p.base.as_ref().unwrap().path,
                AccessPath::TrigramSeek { needle, .. } if needle == "DAVOS"
            ),
            "{p:?}"
        );
    }

    #[test]
    fn naive_config_disables_everything() {
        let cat = catalog();
        let Statement::Select(sel) =
            parse("SELECT * FROM pages p JOIN annotations a ON a.page_id = p.id WHERE p.id = 3")
                .unwrap()
        else {
            panic!()
        };
        let p = plan_select(&cat, &sel, PlannerConfig::Naive).unwrap();
        assert!(matches!(
            p.base.as_ref().unwrap().path,
            AccessPath::FullScan
        ));
        assert!(!p.reordered);
        assert!(p.joins[0].probe.is_none());
    }

    #[test]
    fn range_without_prefix_is_counted() {
        let cat = catalog();
        let p = plan(&cat, "SELECT * FROM pages WHERE id >= 190");
        let base = p.base.unwrap();
        assert!(
            matches!(&base.path, AccessPath::RangeScan { prefix, .. } if prefix.is_empty()),
            "{base:?}"
        );
        assert!((base.est_rows - 10.0).abs() < 1e-9, "{base:?}");
    }

    #[test]
    fn like_prefix_is_counted() {
        let cat = catalog();
        let p = plan(
            &cat,
            "SELECT * FROM annotations WHERE attribute LIKE 'attr1%'",
        );
        let base = p.base.unwrap();
        assert!(
            matches!(&base.path, AccessPath::RangeScan { index, .. } if index == "ann_attr"),
            "{base:?}"
        );
        // Rows 1, 8, …, 393 of 400 carry `attr1`.
        assert!((base.est_rows - 57.0).abs() < 1e-9, "{base:?}");
    }

    #[test]
    fn naive_execute_with_scans_a_select() {
        let mut db = crate::Database::new();
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY)")
            .unwrap();
        db.execute("INSERT INTO t VALUES (5), (3), (1), (4), (2)")
            .unwrap();
        // A range seek yields key order, a full scan heap order.
        let mut ids = |cfg| match db
            .execute_with("SELECT id FROM t WHERE id >= 2", cfg)
            .unwrap()
        {
            ExecOutcome::Rows(rs) => rs.rows.into_iter().map(|r| r[0].clone()).collect(),
            other => panic!("{other:?}"),
        };
        let costed: Vec<Value> = ids(PlannerConfig::Costed);
        let naive: Vec<Value> = ids(PlannerConfig::Naive);
        assert_eq!(costed, [2, 3, 4, 5].map(Value::Int));
        assert_eq!(naive, [5, 3, 4, 2].map(Value::Int));
    }

    #[test]
    fn equi_join_on_indexed_column_probes() {
        let cat = catalog();
        let p = plan(
            &cat,
            "SELECT * FROM pages p JOIN annotations a ON a.page_id = p.id",
        );
        let probe_somewhere = p.joins.iter().any(|j| j.probe.is_some());
        assert!(probe_somewhere, "{p:?}");
    }

    #[test]
    fn selective_side_becomes_base() {
        let cat = catalog();
        // pages filtered to one row by PK; annotations unfiltered (400 rows).
        // Reorder should start from pages even when written second.
        let p = plan(
            &cat,
            "SELECT * FROM annotations a JOIN pages p ON a.page_id = p.id WHERE p.id = 3",
        );
        let base = p.base.as_ref().unwrap();
        assert_eq!(base.alias, "p", "{p:?}");
        assert!(p.reordered);
        let perm = p.written_slots.as_ref().unwrap();
        // annotations has 3 columns then pages 3 columns in written layout;
        // executed layout is pages first.
        assert_eq!(perm[..3], [3, 4, 5]);
        assert_eq!(perm[3..], [0, 1, 2]);
    }

    #[test]
    fn left_join_right_side_not_narrowed_by_where() {
        let cat = catalog();
        let p = plan(
            &cat,
            "SELECT * FROM pages p LEFT JOIN annotations a ON a.page_id = p.id \
             WHERE a.attribute = 'attr1'",
        );
        assert!(!p.reordered);
        // The WHERE eq on a.attribute must NOT narrow the LEFT right side's
        // loop scan (probe from ON is fine).
        if let AccessPath::IndexSeek { cols, .. } = &p.joins[0].scan.path {
            // attribute is column 1 of annotations; page_id col 0.
            assert_ne!(cols[0], 1, "LEFT right side narrowed by WHERE: {p:?}");
        }
    }
}
