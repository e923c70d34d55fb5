//! Expression binding and evaluation.
//!
//! A statement's expressions are *bound* once, after planning: every column
//! reference is resolved against the statement's [`RowSchema`] into a slot
//! index, literals are held in the bound tree, and LIKE/ILIKE patterns with
//! a literal right-hand side are lowered (and split into chars) up front.
//! Evaluation then reads `&Value`s straight out of the row: column reads and
//! comparisons clone nothing. A name that does not resolve is bound to a
//! node that raises the resolution error when — and only if — it is
//! evaluated, so a statement fails exactly where and when it did when names
//! were resolved per row.

use super::ast::{AggFunc, BinOp, Expr, UnOp};
use crate::error::{RelError, Result};
use crate::value::Value;
use std::borrow::Cow;

/// Schema of a runtime row: `(table alias, column name)` per slot,
/// borrowed from the plan and the catalog for the statement's lifetime.
#[derive(Debug, Clone, Default)]
pub struct RowSchema<'a> {
    cols: Vec<(Option<&'a str>, &'a str)>,
}

impl<'a> RowSchema<'a> {
    /// Creates a schema from `(alias, column)` pairs.
    pub fn new(cols: Vec<(Option<&'a str>, &'a str)>) -> RowSchema<'a> {
        RowSchema { cols }
    }

    /// Appends a column; used when building join outputs.
    pub fn push(&mut self, table: Option<&'a str>, name: &'a str) {
        self.cols.push((table, name));
    }

    /// Concatenates two schemas (join output).
    pub fn concat(&self, other: &RowSchema<'a>) -> RowSchema<'a> {
        let mut cols = self.cols.clone();
        cols.extend(other.cols.iter().copied());
        RowSchema { cols }
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.cols.len()
    }

    /// True when the schema has no slots.
    pub fn is_empty(&self) -> bool {
        self.cols.is_empty()
    }

    /// All slots.
    pub fn columns(&self) -> &[(Option<&'a str>, &'a str)] {
        &self.cols
    }

    /// Resolves a column reference to a slot index. Unqualified names must be
    /// unambiguous across all tables in scope. Called by [`bind`] only.
    pub fn resolve(&self, table: Option<&str>, name: &str) -> Result<usize> {
        let mut found = None;
        for (ix, (t, n)) in self.cols.iter().enumerate() {
            if !n.eq_ignore_ascii_case(name) {
                continue;
            }
            if let Some(q) = table {
                if t.is_some_and(|ta| ta.eq_ignore_ascii_case(q)) {
                    return Ok(ix);
                }
            } else {
                if found.is_some() {
                    return Err(RelError::Exec(format!("ambiguous column `{name}`")));
                }
                found = Some(ix);
            }
        }
        found.ok_or_else(|| {
            let full = match table {
                Some(t) => format!("{t}.{name}"),
                None => name.to_owned(),
            };
            RelError::NoSuchColumn(full)
        })
    }

    /// Indices of all slots belonging to a table alias.
    pub fn slots_of(&self, alias: &str) -> Vec<usize> {
        self.cols
            .iter()
            .enumerate()
            .filter(|(_, (t, _))| t.is_some_and(|a| a.eq_ignore_ascii_case(alias)))
            .map(|(ix, _)| ix)
            .collect()
    }
}

/// A row as the evaluator sees it: up to two slices read as one, so a
/// nested-loop join tests ON over the pair (left row, candidate right row)
/// before it builds the combined row. In grouped output, `aggs` holds the
/// current group's aggregate values.
#[derive(Debug, Clone, Copy)]
pub struct Row<'a> {
    head: &'a [Value],
    tail: &'a [Value],
    aggs: Option<&'a [Value]>,
}

impl<'a> Row<'a> {
    /// One materialised row.
    pub fn new(row: &'a [Value]) -> Row<'a> {
        Row {
            head: row,
            tail: &[],
            aggs: None,
        }
    }

    /// A join candidate: `left`'s slots followed by `right`'s.
    pub fn pair(left: &'a [Value], right: &'a [Value]) -> Row<'a> {
        Row {
            head: left,
            tail: right,
            aggs: None,
        }
    }

    /// The same row with the current group's aggregate values.
    pub fn with_aggs(self, aggs: &'a [Value]) -> Row<'a> {
        Row {
            aggs: Some(aggs),
            ..self
        }
    }

    fn get(&self, slot: usize) -> &'a Value {
        match self.head.get(slot) {
            Some(v) => v,
            None => &self.tail[slot - self.head.len()],
        }
    }
}

/// An expression whose column references are slot indices.
#[derive(Debug, Clone, PartialEq)]
pub enum BoundExpr {
    /// Literal value.
    Literal(Value),
    /// Column read from a row slot.
    Column(usize),
    /// A reference that did not resolve; evaluating it raises the error.
    Unresolved(RelError),
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<BoundExpr>,
        /// Right operand.
        rhs: Box<BoundExpr>,
    },
    /// LIKE / ILIKE against a literal text pattern, split into chars
    /// (lowercased for ILIKE) at bind time.
    LikeLiteral {
        /// Tested expression.
        expr: Box<BoundExpr>,
        /// The pattern as written (for error messages).
        pattern: String,
        /// The pattern's chars, lowercased when `ilike`.
        chars: Vec<char>,
        /// Case-insensitive (ILIKE).
        ilike: bool,
    },
    /// Unary operation.
    Unary {
        /// Operator.
        op: UnOp,
        /// Operand.
        expr: Box<BoundExpr>,
    },
    /// `expr IS [NOT] NULL`.
    IsNull {
        /// Tested expression.
        expr: Box<BoundExpr>,
        /// True for IS NOT NULL.
        negated: bool,
    },
    /// `expr [NOT] IN (...)`.
    InList {
        /// Tested expression.
        expr: Box<BoundExpr>,
        /// Candidate list.
        list: Vec<BoundExpr>,
        /// True for NOT IN.
        negated: bool,
    },
    /// `expr [NOT] BETWEEN lo AND hi`.
    Between {
        /// Tested expression.
        expr: Box<BoundExpr>,
        /// Lower bound (inclusive).
        lo: Box<BoundExpr>,
        /// Upper bound (inclusive).
        hi: Box<BoundExpr>,
        /// True for NOT BETWEEN.
        negated: bool,
    },
    /// Scalar function call.
    Func {
        /// Function name, lowercased.
        name: String,
        /// Arguments.
        args: Vec<BoundExpr>,
    },
    /// Aggregate call. In grouped output it reads the group's value at
    /// `slot`; anywhere else evaluating it is an error.
    Agg {
        /// Position among the expression's outermost aggregates, in
        /// evaluation order (`usize::MAX` for one nested in another's
        /// argument, which is never read).
        slot: usize,
        /// Aggregate function.
        func: AggFunc,
        /// Aggregated expression; `None` only for COUNT(*).
        arg: Option<Box<BoundExpr>>,
        /// DISTINCT inside the aggregate.
        distinct: bool,
    },
}

/// Binds an expression against a row schema. Never fails: unresolvable
/// names become [`BoundExpr::Unresolved`].
pub fn bind(expr: &Expr, schema: &RowSchema<'_>) -> BoundExpr {
    let mut next_agg = 0;
    bind_at(expr, schema, &mut next_agg, false)
}

fn bind_at(expr: &Expr, schema: &RowSchema<'_>, next_agg: &mut usize, in_agg: bool) -> BoundExpr {
    let mut sub = |e: &Expr| Box::new(bind_at(e, schema, next_agg, in_agg));
    match expr {
        Expr::Literal(v) => BoundExpr::Literal(v.clone()),
        Expr::Column { table, name } => match schema.resolve(table.as_deref(), name) {
            Ok(ix) => BoundExpr::Column(ix),
            Err(e) => BoundExpr::Unresolved(e),
        },
        Expr::Binary {
            op: op @ (BinOp::Like | BinOp::ILike),
            lhs,
            rhs,
        } if matches!(&**rhs, Expr::Literal(Value::Text(_))) => {
            let Expr::Literal(Value::Text(pattern)) = &**rhs else {
                unreachable!("guarded above")
            };
            let ilike = *op == BinOp::ILike;
            let chars = if ilike {
                pattern.to_lowercase().chars().collect()
            } else {
                pattern.chars().collect()
            };
            BoundExpr::LikeLiteral {
                expr: sub(lhs),
                pattern: pattern.clone(),
                chars,
                ilike,
            }
        }
        Expr::Binary { op, lhs, rhs } => {
            let lhs = sub(lhs);
            BoundExpr::Binary {
                op: *op,
                lhs,
                rhs: sub(rhs),
            }
        }
        Expr::Unary { op, expr } => BoundExpr::Unary {
            op: *op,
            expr: sub(expr),
        },
        Expr::IsNull { expr, negated } => BoundExpr::IsNull {
            expr: sub(expr),
            negated: *negated,
        },
        Expr::InList {
            expr,
            list,
            negated,
        } => {
            let expr = sub(expr);
            BoundExpr::InList {
                expr,
                list: list
                    .iter()
                    .map(|e| bind_at(e, schema, next_agg, in_agg))
                    .collect(),
                negated: *negated,
            }
        }
        Expr::Between {
            expr,
            lo,
            hi,
            negated,
        } => {
            let expr = sub(expr);
            let lo = sub(lo);
            BoundExpr::Between {
                expr,
                lo,
                hi: sub(hi),
                negated: *negated,
            }
        }
        Expr::Func { name, args } => BoundExpr::Func {
            name: name.clone(),
            args: args
                .iter()
                .map(|e| bind_at(e, schema, next_agg, in_agg))
                .collect(),
        },
        Expr::Agg {
            func,
            arg,
            distinct,
        } => {
            let slot = if in_agg {
                usize::MAX
            } else {
                *next_agg += 1;
                *next_agg - 1
            };
            BoundExpr::Agg {
                slot,
                func: *func,
                arg: arg
                    .as_ref()
                    .map(|a| Box::new(bind_at(a, schema, next_agg, true))),
                distinct: *distinct,
            }
        }
    }
}

impl BoundExpr {
    /// Evaluates the expression against one row. Column reads and literals
    /// are borrowed; only computed values are owned.
    pub fn eval<'a>(&'a self, row: Row<'a>) -> Result<Cow<'a, Value>> {
        Ok(match self {
            BoundExpr::Literal(v) => Cow::Borrowed(v),
            BoundExpr::Column(ix) => Cow::Borrowed(row.get(*ix)),
            BoundExpr::Unresolved(e) => return Err(e.clone()),
            BoundExpr::Unary { op, expr } => {
                let v = expr.eval(row)?;
                Cow::Owned(match op {
                    UnOp::Neg => match &*v {
                        Value::Null => Value::Null,
                        Value::Int(i) => Value::Int(-i),
                        Value::Float(x) => Value::float(-x),
                        other => return Err(RelError::Exec(format!("cannot negate {other:?}"))),
                    },
                    UnOp::Not => match truthiness(&v) {
                        None => Value::Null,
                        Some(b) => Value::Bool(!b),
                    },
                })
            }
            BoundExpr::Binary { op, lhs, rhs } => Cow::Owned(eval_binary(*op, lhs, rhs, row)?),
            BoundExpr::LikeLiteral {
                expr,
                pattern,
                chars,
                ilike,
            } => Cow::Owned(match &*expr.eval(row)? {
                Value::Null => Value::Null,
                Value::Text(s) => Value::Bool(like_chars(chars, s, *ilike)),
                other => {
                    let op = if *ilike { "ILIKE" } else { "LIKE" };
                    let p = Value::Text(pattern.clone());
                    return Err(RelError::Exec(format!(
                        "{op} needs text operands, got {other:?} / {p:?}"
                    )));
                }
            }),
            BoundExpr::IsNull { expr, negated } => {
                Cow::Owned(Value::Bool(expr.eval(row)?.is_null() != *negated))
            }
            BoundExpr::InList {
                expr,
                list,
                negated,
            } => {
                let v = expr.eval(row)?;
                if v.is_null() {
                    return Ok(Cow::Owned(Value::Null));
                }
                let mut saw_null = false;
                for item in list {
                    match v.sql_eq(&*item.eval(row)?) {
                        Some(true) => return Ok(Cow::Owned(Value::Bool(!negated))),
                        Some(false) => {}
                        None => saw_null = true,
                    }
                }
                Cow::Owned(if saw_null {
                    Value::Null
                } else {
                    Value::Bool(*negated)
                })
            }
            BoundExpr::Between {
                expr,
                lo,
                hi,
                negated,
            } => {
                let v = expr.eval(row)?;
                let lov = lo.eval(row)?;
                let hiv = hi.eval(row)?;
                Cow::Owned(match (v.sql_cmp(&lov), v.sql_cmp(&hiv)) {
                    (Some(a), Some(b)) => {
                        let inside =
                            a != std::cmp::Ordering::Less && b != std::cmp::Ordering::Greater;
                        Value::Bool(inside != *negated)
                    }
                    _ => Value::Null,
                })
            }
            BoundExpr::Func { name, args } => {
                let vals: Vec<Cow<'a, Value>> =
                    args.iter().map(|a| a.eval(row)).collect::<Result<_>>()?;
                Cow::Owned(eval_function(name, &vals)?)
            }
            BoundExpr::Agg { slot, .. } => match row.aggs {
                Some(aggs) => Cow::Borrowed(&aggs[*slot]),
                None => {
                    return Err(RelError::Exec(
                        "aggregate used outside GROUP BY context".into(),
                    ))
                }
            },
        })
    }

    /// True iff the expression evaluates to SQL TRUE on `row` (a predicate
    /// keeps the row).
    pub fn holds(&self, row: Row<'_>) -> Result<bool> {
        Ok(truthiness(&*self.eval(row)?) == Some(true))
    }

    /// Calls `f` with every slot the expression reads, aggregate arguments
    /// included.
    pub fn for_each_column(&self, f: &mut impl FnMut(usize)) {
        match self {
            BoundExpr::Literal(_) | BoundExpr::Unresolved(_) => {}
            BoundExpr::Column(ix) => f(*ix),
            BoundExpr::Binary { lhs, rhs, .. } => {
                lhs.for_each_column(f);
                rhs.for_each_column(f);
            }
            BoundExpr::LikeLiteral { expr, .. }
            | BoundExpr::Unary { expr, .. }
            | BoundExpr::IsNull { expr, .. } => expr.for_each_column(f),
            BoundExpr::InList { expr, list, .. } => {
                expr.for_each_column(f);
                list.iter().for_each(|e| e.for_each_column(f));
            }
            BoundExpr::Between { expr, lo, hi, .. } => {
                expr.for_each_column(f);
                lo.for_each_column(f);
                hi.for_each_column(f);
            }
            BoundExpr::Func { args, .. } => args.iter().for_each(|e| e.for_each_column(f)),
            BoundExpr::Agg { arg, .. } => {
                if let Some(a) = arg {
                    a.for_each_column(f);
                }
            }
        }
    }

    /// The outermost aggregate calls, in slot order: `(func, arg, distinct)`.
    pub fn aggregates(&self) -> Vec<(AggFunc, Option<&BoundExpr>, bool)> {
        fn walk<'e>(e: &'e BoundExpr, out: &mut Vec<(AggFunc, Option<&'e BoundExpr>, bool)>) {
            match e {
                BoundExpr::Literal(_) | BoundExpr::Column(_) | BoundExpr::Unresolved(_) => {}
                BoundExpr::Binary { lhs, rhs, .. } => {
                    walk(lhs, out);
                    walk(rhs, out);
                }
                BoundExpr::LikeLiteral { expr, .. }
                | BoundExpr::Unary { expr, .. }
                | BoundExpr::IsNull { expr, .. } => walk(expr, out),
                BoundExpr::InList { expr, list, .. } => {
                    walk(expr, out);
                    list.iter().for_each(|e| walk(e, out));
                }
                BoundExpr::Between { expr, lo, hi, .. } => {
                    walk(expr, out);
                    walk(lo, out);
                    walk(hi, out);
                }
                BoundExpr::Func { args, .. } => args.iter().for_each(|e| walk(e, out)),
                BoundExpr::Agg {
                    func,
                    arg,
                    distinct,
                    ..
                } => out.push((*func, arg.as_deref(), *distinct)),
            }
        }
        let mut out = Vec::new();
        walk(self, &mut out);
        out
    }
}

/// SQL truthiness: NULL → None, numbers are truthy when non-zero.
pub fn truthiness(v: &Value) -> Option<bool> {
    match v {
        Value::Null => None,
        Value::Bool(b) => Some(*b),
        Value::Int(i) => Some(*i != 0),
        // xlint: allow(float-eq) — exact IEEE test: only ±0.0 is false, as in SQL
        Value::Float(x) => Some(*x != 0.0),
        Value::Text(s) => Some(!s.is_empty()),
    }
}

fn eval_binary(op: BinOp, lhs: &BoundExpr, rhs: &BoundExpr, row: Row<'_>) -> Result<Value> {
    // AND/OR need three-valued logic with short-circuit.
    if matches!(op, BinOp::And | BinOp::Or) {
        let l = truthiness(&*lhs.eval(row)?);
        match (op, l) {
            (BinOp::And, Some(false)) => return Ok(Value::Bool(false)),
            (BinOp::Or, Some(true)) => return Ok(Value::Bool(true)),
            _ => {}
        }
        let r = truthiness(&*rhs.eval(row)?);
        return Ok(match (op, l, r) {
            (BinOp::And, Some(a), Some(b)) => Value::Bool(a && b),
            (BinOp::And, Some(false), _) | (BinOp::And, _, Some(false)) => Value::Bool(false),
            (BinOp::Or, Some(a), Some(b)) => Value::Bool(a || b),
            (BinOp::Or, Some(true), _) | (BinOp::Or, _, Some(true)) => Value::Bool(true),
            _ => Value::Null,
        });
    }
    let l = lhs.eval(row)?;
    let r = rhs.eval(row)?;
    match op {
        BinOp::Eq | BinOp::Neq | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
            let Some(ord) = l.sql_cmp(&r) else {
                return Ok(Value::Null);
            };
            use std::cmp::Ordering::*;
            let b = match op {
                BinOp::Eq => ord == Equal,
                BinOp::Neq => ord != Equal,
                BinOp::Lt => ord == Less,
                BinOp::Le => ord != Greater,
                BinOp::Gt => ord == Greater,
                BinOp::Ge => ord != Less,
                _ => unreachable!(),
            };
            Ok(Value::Bool(b))
        }
        BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Mod => arith(op, &l, &r),
        BinOp::Concat => {
            if l.is_null() || r.is_null() {
                Ok(Value::Null)
            } else {
                Ok(Value::Text(format!("{l}{r}")))
            }
        }
        BinOp::Like | BinOp::ILike => {
            let ilike = op == BinOp::ILike;
            match (&*l, &*r) {
                (Value::Null, _) | (_, Value::Null) => Ok(Value::Null),
                (Value::Text(s), Value::Text(p)) => {
                    let chars: Vec<char> = if ilike {
                        p.to_lowercase().chars().collect()
                    } else {
                        p.chars().collect()
                    };
                    Ok(Value::Bool(like_chars(&chars, s, ilike)))
                }
                (a, b) => Err(RelError::Exec(format!(
                    "{} needs text operands, got {a:?} / {b:?}",
                    if ilike { "ILIKE" } else { "LIKE" }
                ))),
            }
        }
        BinOp::And | BinOp::Or => unreachable!("handled above"),
    }
}

fn arith(op: BinOp, l: &Value, r: &Value) -> Result<Value> {
    if l.is_null() || r.is_null() {
        return Ok(Value::Null);
    }
    match (l, r) {
        (Value::Int(a), Value::Int(b)) => {
            let a = *a;
            let b = *b;
            let out = match op {
                BinOp::Add => a.checked_add(b),
                BinOp::Sub => a.checked_sub(b),
                BinOp::Mul => a.checked_mul(b),
                BinOp::Div => {
                    if b == 0 {
                        return Ok(Value::Null); // SQL-style: x/0 → NULL
                    }
                    a.checked_div(b)
                }
                BinOp::Mod => {
                    if b == 0 {
                        return Ok(Value::Null);
                    }
                    a.checked_rem(b)
                }
                _ => unreachable!(),
            };
            out.map(Value::Int)
                .ok_or_else(|| RelError::Exec("integer overflow".into()))
        }
        _ => {
            let (Some(a), Some(b)) = (l.as_float(), r.as_float()) else {
                return Err(RelError::Exec(format!(
                    "arithmetic on non-numeric values {l:?} / {r:?}"
                )));
            };
            // xlint: allow(float-eq) — exact IEEE test: dividing by ±0.0 yields NULL, as in SQL
            if matches!(op, BinOp::Div | BinOp::Mod) && b == 0.0 {
                return Ok(Value::Null);
            }
            let out = match op {
                BinOp::Add => a + b,
                BinOp::Sub => a - b,
                BinOp::Mul => a * b,
                BinOp::Div => a / b,
                BinOp::Mod => a % b,
                _ => unreachable!(),
            };
            Ok(Value::float(out))
        }
    }
}

/// SQL LIKE matcher: `%` = any run, `_` = any single char. Case-sensitive.
pub fn like_match(pattern: &str, text: &str) -> bool {
    let chars: Vec<char> = pattern.chars().collect();
    like_chars(&chars, text, false)
}

/// Matches `text` against a pattern already split into chars. With
/// `ilike`, the pattern must be lowercased and the text is compared
/// lowercased (`str::to_lowercase`, as ILIKE has always done). ASCII text is
/// read in place; other text is split into chars once.
fn like_chars(pattern: &[char], text: &str, ilike: bool) -> bool {
    if text.is_ascii() {
        let b = text.as_bytes();
        if ilike {
            like_at(pattern, b.len(), |i| char::from(b[i].to_ascii_lowercase()))
        } else {
            like_at(pattern, b.len(), |i| char::from(b[i]))
        }
    } else {
        let t: Vec<char> = if ilike {
            text.to_lowercase().chars().collect()
        } else {
            text.chars().collect()
        };
        like_at(pattern, t.len(), |i| t[i])
    }
}

/// Iterative two-pointer LIKE (greedy `%` with backtracking to the last
/// star) over a text of `len` chars read through `at`: O(n·m) worst case,
/// where the former recursive matcher was exponential on adversarial
/// `%a%a%a…` patterns.
fn like_at(p: &[char], len: usize, at: impl Fn(usize) -> char) -> bool {
    let (mut pi, mut ti) = (0usize, 0usize);
    // Position of the last `%` seen and the text position it is currently
    // assumed to consume up to; on mismatch we re-expand the star by one.
    let mut star: Option<(usize, usize)> = None;
    while ti < len {
        if pi < p.len() && (p[pi] == '_' || p[pi] == at(ti)) {
            pi += 1;
            ti += 1;
        } else if pi < p.len() && p[pi] == '%' {
            star = Some((pi, ti));
            pi += 1;
        } else if let Some((sp, st)) = star {
            pi = sp + 1;
            ti = st + 1;
            star = Some((sp, st + 1));
        } else {
            return false;
        }
    }
    while pi < p.len() && p[pi] == '%' {
        pi += 1;
    }
    pi == p.len()
}

fn eval_function(name: &str, args: &[Cow<'_, Value>]) -> Result<Value> {
    let need = |n: usize| -> Result<()> {
        if args.len() == n {
            Ok(())
        } else {
            Err(RelError::Exec(format!(
                "function {name} expects {n} argument(s), got {}",
                args.len()
            )))
        }
    };
    match name {
        "lower" => {
            need(1)?;
            Ok(match args[0].as_ref() {
                Value::Text(s) => Value::Text(s.to_lowercase()),
                Value::Null => Value::Null,
                other => Value::Text(other.to_string().to_lowercase()),
            })
        }
        "upper" => {
            need(1)?;
            Ok(match args[0].as_ref() {
                Value::Text(s) => Value::Text(s.to_uppercase()),
                Value::Null => Value::Null,
                other => Value::Text(other.to_string().to_uppercase()),
            })
        }
        "length" => {
            need(1)?;
            Ok(match args[0].as_ref() {
                Value::Text(s) => Value::Int(s.chars().count() as i64),
                Value::Null => Value::Null,
                other => Value::Int(other.to_string().chars().count() as i64),
            })
        }
        "abs" => {
            need(1)?;
            Ok(match args[0].as_ref() {
                Value::Int(i) => Value::Int(i.checked_abs().unwrap_or(i64::MAX)),
                Value::Float(x) => Value::Float(x.abs()),
                Value::Null => Value::Null,
                other => return Err(RelError::Exec(format!("abs of non-number {other:?}"))),
            })
        }
        "round" => {
            if args.len() == 1 {
                return Ok(match args[0].as_ref() {
                    Value::Float(x) => Value::float(x.round()),
                    Value::Int(i) => Value::Int(*i),
                    Value::Null => Value::Null,
                    other => return Err(RelError::Exec(format!("round of non-number {other:?}"))),
                });
            }
            need(2)?;
            let digits = args[1]
                .as_int()
                .and_then(|d| i32::try_from(d).ok())
                .ok_or_else(|| RelError::Exec("round digits must be a 32-bit integer".into()))?;
            Ok(match args[0].as_ref() {
                Value::Float(x) => {
                    let m = 10f64.powi(digits);
                    Value::float((x * m).round() / m)
                }
                Value::Int(i) => Value::Int(*i),
                Value::Null => Value::Null,
                other => return Err(RelError::Exec(format!("round of non-number {other:?}"))),
            })
        }
        "coalesce" => Ok(args
            .iter()
            .find(|v| !v.is_null())
            .map_or(Value::Null, |v| v.as_ref().clone())),
        "substr" | "substring" => {
            if args.len() != 2 && args.len() != 3 {
                return Err(RelError::Exec("substr expects 2 or 3 arguments".into()));
            }
            let Value::Text(s) = args[0].as_ref() else {
                return if args[0].is_null() {
                    Ok(Value::Null)
                } else {
                    Err(RelError::Exec("substr of non-text".into()))
                };
            };
            let start = args[1]
                .as_int()
                .ok_or_else(|| RelError::Exec("substr start must be integer".into()))?;
            let chars: Vec<char> = s.chars().collect();
            // SQL substr is 1-based. A bound beyond `usize` lies past the end
            // of any string.
            let begin = usize::try_from(start.max(1) - 1).unwrap_or(usize::MAX);
            let len = if args.len() == 3 {
                let len = args[2]
                    .as_int()
                    .ok_or_else(|| RelError::Exec("substr length must be integer".into()))?;
                usize::try_from(len.max(0)).unwrap_or(usize::MAX)
            } else {
                chars.len().saturating_sub(begin)
            };
            let out: String = chars.iter().skip(begin).take(len).collect();
            Ok(Value::Text(out))
        }
        "trim" => {
            need(1)?;
            Ok(match args[0].as_ref() {
                Value::Text(s) => Value::Text(s.trim().to_owned()),
                Value::Null => Value::Null,
                other => Value::Text(other.to_string()),
            })
        }
        "replace" => {
            need(3)?;
            match (args[0].as_ref(), args[1].as_ref(), args[2].as_ref()) {
                (Value::Null, _, _) => Ok(Value::Null),
                (Value::Text(s), Value::Text(from), Value::Text(to)) => {
                    Ok(Value::Text(s.replace(from.as_str(), to)))
                }
                _ => Err(RelError::Exec("replace expects text arguments".into())),
            }
        }
        "typeof" => {
            need(1)?;
            Ok(Value::Text(
                args[0]
                    .data_type()
                    .map(|t| t.to_string())
                    .unwrap_or_else(|| "NULL".into()),
            ))
        }
        other => Err(RelError::Exec(format!("unknown function `{other}`"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sql::ast::{SelectItem, Statement};
    use crate::sql::parser::parse;

    /// Binds against `schema`, then evaluates one row.
    fn bind_eval(expr: &Expr, schema: &RowSchema<'_>, row: &[Value]) -> Result<Value> {
        bind(expr, schema).eval(Row::new(row)).map(Cow::into_owned)
    }

    fn eval_str(sql_expr: &str) -> Value {
        let stmt = parse(&format!("SELECT {sql_expr}")).unwrap();
        let Statement::Select(sel) = stmt else {
            panic!()
        };
        let SelectItem::Expr { expr, .. } = &sel.projection[0] else {
            panic!()
        };
        bind_eval(expr, &RowSchema::default(), &[]).unwrap()
    }

    #[test]
    fn arithmetic_and_precedence() {
        assert_eq!(eval_str("1 + 2 * 3"), Value::Int(7));
        assert_eq!(eval_str("(1 + 2) * 3"), Value::Int(9));
        assert_eq!(eval_str("7 % 3"), Value::Int(1));
        assert_eq!(eval_str("-5 + 2"), Value::Int(-3));
        assert_eq!(eval_str("1.5 * 2"), Value::Float(3.0));
    }

    #[test]
    fn division_by_zero_is_null() {
        assert!(eval_str("1 / 0").is_null());
        assert!(eval_str("1.0 / 0.0").is_null());
        assert!(eval_str("1 % 0").is_null());
    }

    #[test]
    fn three_valued_logic() {
        assert_eq!(eval_str("NULL AND FALSE"), Value::Bool(false));
        assert!(eval_str("NULL AND TRUE").is_null());
        assert_eq!(eval_str("NULL OR TRUE"), Value::Bool(true));
        assert!(eval_str("NULL OR FALSE").is_null());
        assert!(eval_str("NOT NULL").is_null());
        assert!(eval_str("NULL = NULL").is_null());
    }

    #[test]
    fn in_list_semantics() {
        assert_eq!(eval_str("2 IN (1, 2, 3)"), Value::Bool(true));
        assert_eq!(eval_str("5 NOT IN (1, 2)"), Value::Bool(true));
        assert!(eval_str("5 IN (1, NULL)").is_null());
        assert_eq!(eval_str("1 IN (1, NULL)"), Value::Bool(true));
    }

    #[test]
    fn between_and_like() {
        assert_eq!(eval_str("5 BETWEEN 1 AND 10"), Value::Bool(true));
        assert_eq!(eval_str("5 NOT BETWEEN 6 AND 10"), Value::Bool(true));
        assert_eq!(eval_str("'wind_speed' LIKE 'wind%'"), Value::Bool(true));
        assert_eq!(eval_str("'abc' LIKE 'a_c'"), Value::Bool(true));
        assert_eq!(eval_str("'abc' LIKE 'a_d'"), Value::Bool(false));
        assert_eq!(eval_str("'aXbYc' LIKE '%b%c'"), Value::Bool(true));
    }

    #[test]
    fn string_functions() {
        assert_eq!(eval_str("LOWER('ÖsterReich')"), Value::text("österreich"));
        assert_eq!(eval_str("LENGTH('héllo')"), Value::Int(5));
        assert_eq!(eval_str("SUBSTR('sensor', 1, 3)"), Value::text("sen"));
        assert_eq!(eval_str("SUBSTR('sensor', 4)"), Value::text("sor"));
        assert_eq!(eval_str("TRIM('  x ')"), Value::text("x"));
        assert_eq!(eval_str("REPLACE('a-b-c', '-', '+')"), Value::text("a+b+c"));
        assert_eq!(eval_str("'a' || 'b' || 1"), Value::text("ab1"));
        assert_eq!(eval_str("COALESCE(NULL, NULL, 3)"), Value::Int(3));
        assert_eq!(eval_str("ROUND(2.567, 2)"), Value::Float(2.57));
        assert_eq!(eval_str("TYPEOF(1)"), Value::text("INTEGER"));
    }

    #[test]
    fn column_resolution() {
        let schema = RowSchema::new(vec![
            (Some("s"), "id"),
            (Some("t"), "id"),
            (Some("s"), "name"),
        ]);
        let row = vec![Value::Int(1), Value::Int(2), Value::text("x")];
        let q = Expr::Column {
            table: Some("t".into()),
            name: "id".into(),
        };
        assert_eq!(bind_eval(&q, &schema, &row).unwrap(), Value::Int(2));
        // Unqualified `id` is ambiguous.
        let amb = Expr::col("id");
        assert!(bind_eval(&amb, &schema, &row).is_err());
        // Unqualified `name` resolves.
        assert_eq!(
            bind_eval(&Expr::col("NAME"), &schema, &row).unwrap(),
            Value::text("x")
        );
    }

    #[test]
    fn like_edge_cases() {
        assert!(like_match("%", ""));
        assert!(like_match("%%", "anything"));
        assert!(!like_match("_", ""));
        assert!(like_match("", ""));
        assert!(!like_match("", "x"));
        assert!(like_match("a%c", "abc"));
        assert!(like_match("a_c", "abc"));
        assert!(!like_match("a_c", "abzc"));
        assert!(like_match("%wind%", "station_wind_speed"));
        assert!(!like_match("%wind%", "station_temp"));
        assert!(like_match("%a%b%", "xaxbx"));
        assert!(!like_match("b%a", "ba_suffix_missing"));
    }

    #[test]
    fn like_adversarial_patterns_terminate_fast() {
        // The old recursive matcher was exponential on these: a run of
        // `%a` units against a text of `a`s with a trailing mismatch.
        let text = "a".repeat(60) + "b";
        let pattern = "%a".repeat(30) + "%c";
        let start = std::time::Instant::now();
        assert!(!like_match(&pattern, &text));
        let pattern_match = "%a".repeat(30).to_string() + "%";
        assert!(like_match(&pattern_match, &text[..60]));
        assert!(
            start.elapsed() < std::time::Duration::from_secs(2),
            "adversarial LIKE took {:?}",
            start.elapsed()
        );
        // Underscores interleaved with stars.
        assert!(like_match("%_%_%_%", "abc"));
        assert!(!like_match("%_%_%_%_%", "abc"));
    }

    #[test]
    fn ilike_is_case_insensitive() {
        let schema = RowSchema::new(vec![(Some("t"), "name")]);
        let row = vec![Value::text("Wind_Speed_WFJ")];
        let e = Expr::Binary {
            op: BinOp::ILike,
            lhs: Box::new(Expr::col("name")),
            rhs: Box::new(Expr::lit("%wind%")),
        };
        assert_eq!(bind_eval(&e, &schema, &row).unwrap(), Value::Bool(true));
        let e = Expr::Binary {
            op: BinOp::Like,
            lhs: Box::new(Expr::col("name")),
            rhs: Box::new(Expr::lit("%wind%")),
        };
        assert_eq!(bind_eval(&e, &schema, &row).unwrap(), Value::Bool(false));
        // NULL propagation.
        let e = Expr::Binary {
            op: BinOp::ILike,
            lhs: Box::new(Expr::lit(Value::Null)),
            rhs: Box::new(Expr::lit("%x%")),
        };
        assert_eq!(bind_eval(&e, &schema, &row).unwrap(), Value::Null);
    }

    #[test]
    fn unresolved_names_fail_only_when_evaluated() {
        let schema = RowSchema::new(vec![(Some("t"), "a")]);
        // FALSE AND <unknown>: short-circuit never reaches the bad name.
        let e = Expr::Binary {
            op: BinOp::And,
            lhs: Box::new(Expr::lit(false)),
            rhs: Box::new(Expr::col("nope")),
        };
        let bound = bind(&e, &schema);
        assert_eq!(
            bound.eval(Row::new(&[Value::Int(1)])).unwrap().into_owned(),
            Value::Bool(false)
        );
        let e = Expr::Binary {
            op: BinOp::And,
            lhs: Box::new(Expr::lit(true)),
            rhs: Box::new(Expr::col("nope")),
        };
        assert_eq!(
            bind_eval(&e, &schema, &[Value::Int(1)]).unwrap_err(),
            RelError::NoSuchColumn("nope".into())
        );
    }

    #[test]
    fn pair_rows_read_as_one() {
        let schema = RowSchema::new(vec![(Some("l"), "id"), (Some("r"), "id")]);
        let e = Expr::Binary {
            op: BinOp::Eq,
            lhs: Box::new(Expr::Column {
                table: Some("l".into()),
                name: "id".into(),
            }),
            rhs: Box::new(Expr::Column {
                table: Some("r".into()),
                name: "id".into(),
            }),
        };
        let bound = bind(&e, &schema);
        assert!(bound
            .holds(Row::pair(&[Value::Int(4)], &[Value::Int(4)]))
            .unwrap());
        assert!(!bound
            .holds(Row::pair(&[Value::Int(4)], &[Value::Int(5)]))
            .unwrap());
    }

    #[test]
    fn ilike_non_ascii_lowercases_like_str() {
        let schema = RowSchema::new(vec![(Some("t"), "name")]);
        let ilike = |pattern: &str, text: &str| {
            let e = Expr::Binary {
                op: BinOp::ILike,
                lhs: Box::new(Expr::col("name")),
                rhs: Box::new(Expr::lit(pattern)),
            };
            bind_eval(&e, &schema, &[Value::text(text)]).unwrap()
        };
        assert_eq!(ilike("%österr%", "ÖSTERREICH"), Value::Bool(true));
        assert_eq!(ilike("%ZÜRICH", "zürich"), Value::Bool(true));
        // `str::to_lowercase` maps a word-final capital sigma to `ς`.
        assert_eq!(ilike("%ς", "ΟΔΟΣ"), Value::Bool(true));
        assert_eq!(ilike("%σ", "ΟΔΟΣ"), Value::Bool(false));
        assert_eq!(ilike("w_nd%", "WIND_speed"), Value::Bool(true));
    }

    #[test]
    fn aggregate_slots_number_outermost_calls() {
        let schema = RowSchema::new(vec![(Some("t"), "x")]);
        let e = Expr::Binary {
            op: BinOp::Add,
            lhs: Box::new(Expr::Agg {
                func: AggFunc::Sum,
                arg: Some(Box::new(Expr::col("x"))),
                distinct: false,
            }),
            rhs: Box::new(Expr::Agg {
                func: AggFunc::Count,
                arg: None,
                distinct: false,
            }),
        };
        let bound = bind(&e, &schema);
        let aggs = bound.aggregates();
        assert_eq!(aggs.len(), 2);
        assert_eq!(aggs[0].0, AggFunc::Sum);
        assert_eq!(aggs[1].0, AggFunc::Count);
        let vals = [Value::Int(10), Value::Int(3)];
        assert_eq!(
            bound
                .eval(Row::new(&[Value::Null]).with_aggs(&vals))
                .unwrap()
                .into_owned(),
            Value::Int(13)
        );
        // Outside grouped output an aggregate is an error.
        assert!(bound.eval(Row::new(&[Value::Null])).is_err());
    }
}
