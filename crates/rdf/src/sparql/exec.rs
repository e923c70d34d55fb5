//! SPARQL BGP evaluation over the triple store.
//!
//! Execution is classic binding-extension: required patterns are greedily
//! reordered so the most selective (most-bound) pattern runs first, each
//! solution mapping is extended pattern by pattern through index lookups,
//! filters are applied as soon as their variables are bound, then OPTIONAL
//! blocks left-join additional bindings.

use super::ast::*;
use crate::error::{RdfError, Result};
use crate::store::TripleStore;
use crate::term::{Term, TermId};
use std::cmp::Ordering;
use std::collections::{HashMap, HashSet};

/// One solution mapping: variable name → bound term id.
pub type Binding = HashMap<String, TermId>;

/// Query solutions, decoded for consumption.
#[derive(Debug, Clone, PartialEq)]
pub struct Solutions {
    /// Output variable names in projection order.
    pub vars: Vec<String>,
    /// Rows of optional terms (None = unbound, possible under OPTIONAL).
    pub rows: Vec<Vec<Option<Term>>>,
}

impl Solutions {
    /// Number of solutions.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no solutions matched.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Extracts one column by variable name.
    pub fn column(&self, var: &str) -> Option<Vec<Option<Term>>> {
        let ix = self.vars.iter().position(|v| v == var)?;
        Some(self.rows.iter().map(|r| r[ix].clone()).collect())
    }
}

/// Evaluates a parsed SELECT query against a store.
pub fn evaluate(store: &TripleStore, query: &SelectQuery) -> Result<Solutions> {
    // 1. Required BGP with eager filters.
    let mut bindings = eval_bgp(
        store,
        &query.where_patterns,
        vec![Binding::new()],
        &query.filters,
    )?;

    // 1b. UNION branches: each branch extends the required bindings; the
    //     solution set is the deduplicated union across branches.
    if !query.union_branches.is_empty() {
        let mut merged: Vec<Binding> = Vec::new();
        let mut seen: HashSet<Vec<(String, TermId)>> = HashSet::new();
        for branch in &query.union_branches {
            let mut branch_filters = query.filters.clone();
            branch_filters.extend(branch.filters.iter().cloned());
            let extended = eval_bgp(store, &branch.patterns, bindings.clone(), &branch_filters)?;
            // Branch filters must hold even if their vars were bound by the
            // required patterns (eager application may have skipped them).
            let mut extended = extended;
            extended.retain_filters(store, &branch.filters)?;
            for b in extended {
                let mut canon: Vec<(String, TermId)> =
                    b.iter().map(|(k, v)| (k.clone(), *v)).collect();
                canon.sort();
                if seen.insert(canon) {
                    merged.push(b);
                }
            }
        }
        bindings = merged;
    }

    // 2. OPTIONAL blocks: left-join semantics.
    for block in &query.optionals {
        let mut next = Vec::with_capacity(bindings.len());
        for b in bindings {
            let extended = eval_bgp(store, block, vec![b.clone()], &[])?;
            if extended.is_empty() {
                next.push(b);
            } else {
                next.extend(extended);
            }
        }
        bindings = next;
    }

    // 3. Re-check filters that mention optional vars (BOUND, etc.). Filters
    //    whose vars were all required are already enforced; re-applying is
    //    idempotent and keeps BOUND on optionals correct.
    bindings.retain_filters(store, &query.filters)?;

    // 4a. Aggregation (grouped projection) short-circuits plain projection.
    if !query.aggregates.is_empty() {
        return aggregate_solutions(store, query, bindings);
    }

    // 4. Projection.
    let vars: Vec<String> = if query.vars.is_empty() {
        // SELECT *: all variables, sorted for determinism.
        let mut all: HashSet<String> = HashSet::new();
        for p in query
            .where_patterns
            .iter()
            .chain(query.optionals.iter().flatten())
            .chain(query.union_branches.iter().flat_map(|b| b.patterns.iter()))
        {
            all.extend(p.vars().map(str::to_owned));
        }
        let mut all: Vec<String> = all.into_iter().collect();
        all.sort();
        all
    } else {
        query.vars.clone()
    };

    let mut rows: Vec<Vec<Option<Term>>> = bindings
        .iter()
        .map(|b| {
            vars.iter()
                .map(|v| b.get(v).map(|id| term_of(store, *id).cloned()).transpose())
                .collect()
        })
        .collect::<Result<_>>()?;

    // 5. ORDER BY.
    if !query.order_by.is_empty() {
        let key_ix: Vec<(usize, bool)> = query
            .order_by
            .iter()
            .filter_map(|(v, desc)| vars.iter().position(|x| x == v).map(|ix| (ix, *desc)))
            .collect();
        rows.sort_by(|a, b| {
            for (ix, desc) in &key_ix {
                let ord = cmp_opt_terms(&a[*ix], &b[*ix]);
                if ord != Ordering::Equal {
                    return if *desc { ord.reverse() } else { ord };
                }
            }
            Ordering::Equal
        });
    }

    // 6. DISTINCT.
    if query.distinct {
        let mut seen = HashSet::new();
        rows.retain(|r| seen.insert(format!("{r:?}")));
    }

    // 7. OFFSET / LIMIT.
    let offset = query.offset.unwrap_or(0);
    if offset > 0 {
        rows.drain(..offset.min(rows.len()));
    }
    if let Some(limit) = query.limit {
        rows.truncate(limit);
    }

    Ok(Solutions { vars, rows })
}

/// Groups bindings by the GROUP BY keys and computes aggregate columns.
fn aggregate_solutions(
    store: &TripleStore,
    query: &SelectQuery,
    bindings: Vec<Binding>,
) -> Result<Solutions> {
    use super::ast::AggKind;
    // Group by the projected group keys, preserving first-seen order.
    let mut order: Vec<Vec<Option<TermId>>> = Vec::new();
    let mut groups: HashMap<Vec<Option<TermId>>, Vec<&Binding>> = HashMap::new();
    if query.group_by.is_empty() {
        // Global aggregate: one group (possibly empty).
        order.push(Vec::new());
        groups.insert(Vec::new(), bindings.iter().collect());
    } else {
        for b in &bindings {
            let key: Vec<Option<TermId>> =
                query.group_by.iter().map(|v| b.get(v).copied()).collect();
            groups
                .entry(key)
                .or_insert_with_key(|k| {
                    order.push(k.clone());
                    Vec::new()
                })
                .push(b);
        }
    }
    let mut vars: Vec<String> = query.vars.clone();
    vars.extend(query.aggregates.iter().map(|a| a.alias.clone()));
    let mut rows: Vec<Vec<Option<Term>>> = Vec::new();
    for key in order {
        let members = &groups[&key];
        let mut row: Vec<Option<Term>> = query
            .vars
            .iter()
            .map(|v| {
                // Parse-time validation pins every projected var to a group
                // key; an unmatched var projects as unbound rather than
                // panicking mid-query.
                let Some(pos) = query.group_by.iter().position(|g| g == v) else {
                    return Ok(None);
                };
                let id = key.get(pos).copied().flatten();
                id.map(|id| term_of(store, id).cloned()).transpose()
            })
            .collect::<Result<_>>()?;
        for agg in &query.aggregates {
            // Collect the aggregated values (bound only).
            let mut values: Vec<TermId> = match &agg.var {
                None => Vec::new(), // COUNT(*): row count below
                Some(v) => members.iter().filter_map(|b| b.get(v).copied()).collect(),
            };
            if agg.distinct {
                let mut seen = HashSet::new();
                values.retain(|t| seen.insert(*t));
            }
            let terms =
                || -> Result<Vec<&Term>> { values.iter().map(|&id| term_of(store, id)).collect() };
            let out = match agg.kind {
                AggKind::Count => Some(Term::int(match &agg.var {
                    None => members.len() as i64,
                    Some(_) => values.len() as i64,
                })),
                AggKind::Min => terms()?.into_iter().min_by(|a, b| cmp_terms(a, b)).cloned(),
                AggKind::Max => terms()?.into_iter().max_by(|a, b| cmp_terms(a, b)).cloned(),
                AggKind::Sum | AggKind::Avg => {
                    let nums: Vec<f64> = terms()?.into_iter().filter_map(Term::as_number).collect();
                    if nums.is_empty() {
                        None
                    } else {
                        let sum: f64 = nums.iter().sum();
                        let v = if agg.kind == AggKind::Avg {
                            sum / nums.len() as f64
                        } else {
                            sum
                        };
                        // Integral results keep integer lexical form.
                        // xlint: allow(float-eq) — exact IEEE test: only a whole number is integral
                        Some(if v.fract() == 0.0 && v.abs() < 9e15 {
                            #[expect(
                                clippy::cast_possible_truncation,
                                reason = "a whole number below 9e15 in magnitude fits i64 exactly"
                            )]
                            let n = v as i64;
                            Term::int(n)
                        } else {
                            Term::double(v)
                        })
                    }
                }
            };
            row.push(out);
        }
        rows.push(row);
    }
    // ORDER BY over group keys / aliases.
    if !query.order_by.is_empty() {
        let key_ix: Vec<(usize, bool)> = query
            .order_by
            .iter()
            .filter_map(|(v, desc)| vars.iter().position(|x| x == v).map(|ix| (ix, *desc)))
            .collect();
        rows.sort_by(|a, b| {
            for (ix, desc) in &key_ix {
                let ord = cmp_opt_terms(&a[*ix], &b[*ix]);
                if ord != Ordering::Equal {
                    return if *desc { ord.reverse() } else { ord };
                }
            }
            Ordering::Equal
        });
    }
    let offset = query.offset.unwrap_or(0);
    if offset > 0 {
        rows.drain(..offset.min(rows.len()));
    }
    if let Some(limit) = query.limit {
        rows.truncate(limit);
    }
    Ok(Solutions { vars, rows })
}

trait RetainFilters {
    fn retain_filters(&mut self, store: &TripleStore, filters: &[FilterExpr]) -> Result<()>;
}

impl RetainFilters for Vec<Binding> {
    fn retain_filters(&mut self, store: &TripleStore, filters: &[FilterExpr]) -> Result<()> {
        let mut err = None;
        self.retain(|b| {
            filters.iter().all(|f| match eval_filter(store, f, b) {
                Ok(v) => v,
                Err(e) => {
                    err = Some(e);
                    false
                }
            })
        });
        match err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}

/// Extends a set of bindings through a BGP, applying any filter as soon as
/// its variables are fully bound.
fn eval_bgp(
    store: &TripleStore,
    patterns: &[TriplePattern],
    start: Vec<Binding>,
    filters: &[FilterExpr],
) -> Result<Vec<Binding>> {
    // Greedy ordering: repeatedly pick the pattern with the most slots bound
    // (constants + already-bound vars).
    let mut remaining: Vec<&TriplePattern> = patterns.iter().collect();
    let mut bound_vars: HashSet<String> = start
        .first()
        .map(|b| b.keys().cloned().collect())
        .unwrap_or_default();
    let mut ordered = Vec::with_capacity(remaining.len());
    while let Some(best_ix) = remaining
        .iter()
        .enumerate()
        .max_by_key(|(_, p)| {
            let score = |t: &PatternTerm| match t {
                PatternTerm::Term(_) => 2usize,
                PatternTerm::Var(v) if bound_vars.contains(v) => 1,
                PatternTerm::Var(_) => 0,
            };
            score(&p.s) * 4 + score(&p.p) * 2 + score(&p.o)
        })
        .map(|(ix, _)| ix)
    {
        let p = remaining.remove(best_ix);
        bound_vars.extend(p.vars().map(str::to_owned));
        ordered.push(p);
    }

    let mut applied: HashSet<usize> = HashSet::new();
    let mut bindings = start;
    let mut avail: HashSet<String> = bindings
        .first()
        .map(|b| b.keys().cloned().collect())
        .unwrap_or_default();
    for p in ordered {
        let mut next = Vec::new();
        for b in &bindings {
            extend_one(store, p, b, &mut next)?;
        }
        bindings = next;
        avail.extend(p.vars().map(str::to_owned));
        // Apply any not-yet-applied filter whose vars are all available.
        for (ix, f) in filters.iter().enumerate() {
            if applied.contains(&ix) {
                continue;
            }
            if filter_vars(f).iter().all(|v| avail.contains(v)) {
                bindings.retain_filters(store, std::slice::from_ref(f))?;
                applied.insert(ix);
            }
        }
        if bindings.is_empty() {
            return Ok(bindings);
        }
    }
    Ok(bindings)
}

fn extend_one(
    store: &TripleStore,
    pattern: &TriplePattern,
    binding: &Binding,
    out: &mut Vec<Binding>,
) -> Result<()> {
    let slot = |t: &PatternTerm| -> Option<Option<TermId>> {
        match t {
            PatternTerm::Var(v) => Some(binding.get(v).copied()),
            PatternTerm::Term(term) => store.dict().id_of(term).map(Some),
        }
    };
    let (Some(s), Some(p), Some(o)) = (slot(&pattern.s), slot(&pattern.p), slot(&pattern.o)) else {
        return Ok(());
    };
    for (ts, tp, to) in store.match_ids((s, p, o)) {
        let mut b = binding.clone();
        let mut ok = true;
        for (slot_term, got) in [(&pattern.s, ts), (&pattern.p, tp), (&pattern.o, to)] {
            if let PatternTerm::Var(v) = slot_term {
                match b.get(v) {
                    Some(prev) if *prev != got => {
                        ok = false;
                        break;
                    }
                    Some(_) => {}
                    None => {
                        b.insert(v.clone(), got);
                    }
                }
            }
        }
        if ok {
            out.push(b);
        }
    }
    Ok(())
}

fn filter_vars(f: &FilterExpr) -> Vec<String> {
    fn operand_var(o: &Operand, out: &mut Vec<String>) {
        if let Operand::Var(v) = o {
            out.push(v.clone());
        }
    }
    let mut out = Vec::new();
    match f {
        FilterExpr::Cmp { lhs, rhs, .. } => {
            operand_var(lhs, &mut out);
            operand_var(rhs, &mut out);
        }
        FilterExpr::And(a, b) | FilterExpr::Or(a, b) => {
            out.extend(filter_vars(a));
            out.extend(filter_vars(b));
        }
        FilterExpr::Not(a) => out.extend(filter_vars(a)),
        FilterExpr::Contains(a, b) | FilterExpr::StrStarts(a, b) => {
            operand_var(a, &mut out);
            operand_var(b, &mut out);
        }
        FilterExpr::Regex(a, _) | FilterExpr::IsIri(a) | FilterExpr::IsLiteral(a) => {
            operand_var(a, &mut out)
        }
        FilterExpr::Bound(v) => out.push(v.clone()),
    }
    out
}

fn eval_filter(store: &TripleStore, f: &FilterExpr, b: &Binding) -> Result<bool> {
    let resolve = |o: &Operand| -> Result<Option<Term>> {
        match o {
            Operand::Var(v) => b.get(v).map(|id| term_of(store, *id).cloned()).transpose(),
            Operand::Const(t) => Ok(Some(t.clone())),
        }
    };
    Ok(match f {
        FilterExpr::Bound(v) => b.contains_key(v),
        FilterExpr::And(a, c) => eval_filter(store, a, b)? && eval_filter(store, c, b)?,
        FilterExpr::Or(a, c) => eval_filter(store, a, b)? || eval_filter(store, c, b)?,
        FilterExpr::Not(a) => !eval_filter(store, a, b)?,
        FilterExpr::Cmp { op, lhs, rhs } => {
            let (Some(l), Some(r)) = (resolve(lhs)?, resolve(rhs)?) else {
                return Ok(false); // unbound in comparison → error in SPARQL; we drop
            };
            let ord = cmp_terms(&l, &r);
            match op {
                CmpOp::Eq => ord == Ordering::Equal && comparable_eq(&l, &r),
                CmpOp::Neq => !(ord == Ordering::Equal && comparable_eq(&l, &r)),
                CmpOp::Lt => ord == Ordering::Less,
                CmpOp::Le => ord != Ordering::Greater,
                CmpOp::Gt => ord == Ordering::Greater,
                CmpOp::Ge => ord != Ordering::Less,
            }
        }
        FilterExpr::Contains(a, c) => {
            let (Some(l), Some(r)) = (resolve(a)?, resolve(c)?) else {
                return Ok(false);
            };
            term_str(&l).contains(&term_str(&r))
        }
        FilterExpr::StrStarts(a, c) => {
            let (Some(l), Some(r)) = (resolve(a)?, resolve(c)?) else {
                return Ok(false);
            };
            term_str(&l).starts_with(&term_str(&r))
        }
        FilterExpr::Regex(a, pat) => {
            let Some(l) = resolve(a)? else {
                return Ok(false);
            };
            regex_lite(pat, &term_str(&l))
                .map_err(|m| RdfError::Eval(format!("bad REGEX pattern `{pat}`: {m}")))?
        }
        FilterExpr::IsIri(a) => resolve(a)?.is_some_and(|t| t.is_iri()),
        FilterExpr::IsLiteral(a) => resolve(a)?.is_some_and(|t| t.is_literal()),
    })
}

/// Equality comparability guard: numbers compare to numbers, otherwise exact
/// term comparison. `cmp_terms` already handles ordering; this prevents
/// `"abc" = <abc>` from counting as equal via string fallback.
fn comparable_eq(l: &Term, r: &Term) -> bool {
    match (l.as_number(), r.as_number()) {
        (Some(_), Some(_)) => true,
        _ => std::mem::discriminant(l) == std::mem::discriminant(r),
    }
}

/// String form used by CONTAINS/STRSTARTS/REGEX (IRI text or literal value).
fn term_str(t: &Term) -> String {
    match t {
        Term::Iri(i) => i.clone(),
        Term::Literal { value, .. } => value.clone(),
        Term::Blank(b) => b.clone(),
    }
}

/// The term an id stands for. Every id in a binding was interned by the
/// store that produced it; a miss means binding and store disagree.
fn term_of(store: &TripleStore, id: TermId) -> Result<&Term> {
    store
        .dict()
        .term(id)
        .ok_or_else(|| RdfError::Eval(format!("term {id:?} is not interned in the store")))
}

/// Orders two terms: numerically when both parse as numbers, else by their
/// string form.
pub fn cmp_terms(l: &Term, r: &Term) -> Ordering {
    match (l.as_number(), r.as_number()) {
        (Some(a), Some(b)) => a.partial_cmp(&b).unwrap_or(Ordering::Equal),
        _ => term_str(l).cmp(&term_str(r)),
    }
}

fn cmp_opt_terms(l: &Option<Term>, r: &Option<Term>) -> Ordering {
    match (l, r) {
        (None, None) => Ordering::Equal,
        (None, Some(_)) => Ordering::Less,
        (Some(_), None) => Ordering::Greater,
        (Some(a), Some(b)) => cmp_terms(a, b),
    }
}

/// A deliberately tiny regex engine: supports `^`, `$`, `.`, `X*`, `.*` and
/// literal characters — the subset the demo UI's REGEX filters use.
fn regex_lite(pattern: &str, text: &str) -> std::result::Result<bool, String> {
    let pat: Vec<char> = pattern.chars().collect();
    let txt: Vec<char> = text.chars().collect();
    let (anchored_start, pat) = match pat.split_first() {
        Some(('^', rest)) => (true, rest.to_vec()),
        _ => (false, pat),
    };
    let (anchored_end, pat) = match pat.split_last() {
        Some(('$', rest)) => {
            // `\$`-style escapes are out of scope; a trailing `*$` is fine.
            (true, rest.to_vec())
        }
        _ => (false, pat),
    };

    fn match_here(pat: &[char], txt: &[char], anchored_end: bool) -> bool {
        match pat.first() {
            None => !anchored_end || txt.is_empty(),
            Some(&c) => {
                if pat.get(1) == Some(&'*') {
                    // c* — zero or more.
                    let rest = &pat[2..];
                    let mut k = 0;
                    loop {
                        if match_here(rest, &txt[k..], anchored_end) {
                            return true;
                        }
                        if k < txt.len() && (c == '.' || txt[k] == c) {
                            k += 1;
                        } else {
                            return false;
                        }
                    }
                }
                if let Some(&t) = txt.first() {
                    (c == '.' || c == t) && match_here(&pat[1..], &txt[1..], anchored_end)
                } else {
                    false
                }
            }
        }
    }

    if pat.contains(&'\\')
        || pat
            .iter()
            .zip(pat.iter().skip(1))
            .any(|(a, b)| *a == '*' && *b == '*')
    {
        return Err("unsupported construct".into());
    }
    if anchored_start {
        Ok(match_here(&pat, &txt, anchored_end))
    } else {
        Ok((0..=txt.len()).any(|k| match_here(&pat, &txt[k..], anchored_end)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sparql::parser::parse_sparql;
    use crate::turtle::load_turtle;

    fn store() -> TripleStore {
        let mut st = TripleStore::new();
        load_turtle(
            &mut st,
            r#"
            @prefix ex: <http://e/> .
            ex:wfj a ex:Station ; ex:name "Weissfluhjoch" ; ex:elev 2693 ; ex:canton "GR" .
            ex:davos a ex:Station ; ex:name "Davos" ; ex:elev 1594 ; ex:canton "GR" .
            ex:jfj a ex:Station ; ex:name "Jungfraujoch" ; ex:elev 3571 ; ex:canton "BE" .
            ex:t1 a ex:Sensor ; ex:at ex:wfj ; ex:kind "temperature" .
            ex:t2 a ex:Sensor ; ex:at ex:wfj ; ex:kind "wind" .
            ex:t3 a ex:Sensor ; ex:at ex:davos ; ex:kind "temperature" .
            "#,
        )
        .unwrap();
        st
    }

    fn run(st: &TripleStore, q: &str) -> Solutions {
        evaluate(st, &parse_sparql(q).unwrap()).unwrap()
    }

    #[test]
    fn single_pattern() {
        let st = store();
        let sols = run(
            &st,
            "PREFIX ex: <http://e/> SELECT ?s WHERE { ?s a ex:Station } ORDER BY ?s",
        );
        assert_eq!(sols.len(), 3);
        assert_eq!(sols.vars, vec!["s"]);
    }

    #[test]
    fn join_two_patterns() {
        let st = store();
        let sols = run(
            &st,
            "PREFIX ex: <http://e/> SELECT ?name ?kind WHERE { \
             ?sensor ex:at ?station . ?station ex:name ?name . ?sensor ex:kind ?kind } \
             ORDER BY ?name ?kind",
        );
        assert_eq!(sols.len(), 3);
        assert_eq!(sols.rows[0][0], Some(Term::lit("Davos")));
        assert_eq!(sols.rows[1][1], Some(Term::lit("temperature")));
    }

    #[test]
    fn numeric_filter() {
        let st = store();
        let sols = run(
            &st,
            "PREFIX ex: <http://e/> SELECT ?name WHERE { \
             ?s ex:elev ?e . ?s ex:name ?name . FILTER(?e >= 2000) } ORDER BY ?name",
        );
        let names: Vec<_> = sols.rows.iter().map(|r| r[0].clone().unwrap()).collect();
        assert_eq!(
            names,
            vec![Term::lit("Jungfraujoch"), Term::lit("Weissfluhjoch")]
        );
    }

    #[test]
    fn string_filters() {
        let st = store();
        let sols = run(
            &st,
            "PREFIX ex: <http://e/> SELECT ?s WHERE { ?s ex:name ?n . \
             FILTER(CONTAINS(?n, \"joch\") && ?n != \"Jungfraujoch\") }",
        );
        assert_eq!(sols.len(), 1);
        let sols = run(
            &st,
            "PREFIX ex: <http://e/> SELECT ?s WHERE { ?s ex:name ?n . \
             FILTER(STRSTARTS(?n, \"Da\")) }",
        );
        assert_eq!(sols.len(), 1);
    }

    #[test]
    fn regex_filter() {
        let st = store();
        let sols = run(
            &st,
            "PREFIX ex: <http://e/> SELECT ?n WHERE { ?s ex:name ?n . FILTER(REGEX(?n, \"^D.*s$\")) }",
        );
        assert_eq!(sols.len(), 1);
        assert_eq!(sols.rows[0][0], Some(Term::lit("Davos")));
    }

    #[test]
    fn optional_left_join() {
        let mut st = store();
        load_turtle(
            &mut st,
            "@prefix ex: <http://e/> .\nex:payerne a ex:Station .",
        )
        .unwrap();
        let sols = run(
            &st,
            "PREFIX ex: <http://e/> SELECT ?s ?name WHERE { ?s a ex:Station . \
             OPTIONAL { ?s ex:name ?name } } ORDER BY ?s",
        );
        assert_eq!(sols.len(), 4);
        // payerne has no name → None in that column.
        let unnamed = sols.rows.iter().filter(|r| r[1].is_none()).count();
        assert_eq!(unnamed, 1);
    }

    #[test]
    fn bound_filter_on_optional() {
        let mut st = store();
        load_turtle(
            &mut st,
            "@prefix ex: <http://e/> .\nex:payerne a ex:Station .",
        )
        .unwrap();
        let sols = run(
            &st,
            "PREFIX ex: <http://e/> SELECT ?s WHERE { ?s a ex:Station . \
             OPTIONAL { ?s ex:name ?name } FILTER(!BOUND(?name)) }",
        );
        assert_eq!(sols.len(), 1);
        assert_eq!(sols.rows[0][0], Some(Term::iri("http://e/payerne")));
    }

    #[test]
    fn distinct_limit_offset() {
        let st = store();
        let sols = run(
            &st,
            "PREFIX ex: <http://e/> SELECT DISTINCT ?c WHERE { ?s ex:canton ?c } ORDER BY ?c",
        );
        assert_eq!(sols.len(), 2);
        let sols = run(
            &st,
            "PREFIX ex: <http://e/> SELECT ?s WHERE { ?s a ex:Station } ORDER BY ?s LIMIT 1 OFFSET 1",
        );
        assert_eq!(sols.len(), 1);
    }

    #[test]
    fn select_star_collects_all_vars() {
        let st = store();
        let sols = run(
            &st,
            "PREFIX ex: <http://e/> SELECT * WHERE { ?s ex:kind ?k }",
        );
        assert_eq!(sols.vars, vec!["k", "s"]);
        assert_eq!(sols.len(), 3);
    }

    #[test]
    fn shared_variable_constrains() {
        // ?x ex:at ?x can never match (sensor != station).
        let st = store();
        let sols = run(
            &st,
            "PREFIX ex: <http://e/> SELECT ?x WHERE { ?x ex:at ?x }",
        );
        assert!(sols.is_empty());
    }

    #[test]
    fn unknown_constant_matches_nothing() {
        let st = store();
        let sols = run(
            &st,
            "PREFIX ex: <http://e/> SELECT ?s WHERE { ?s ex:name \"Zermatt\" }",
        );
        assert!(sols.is_empty());
    }

    #[test]
    fn order_desc_numeric() {
        let st = store();
        let sols = run(
            &st,
            "PREFIX ex: <http://e/> SELECT ?n ?e WHERE { ?s ex:name ?n . ?s ex:elev ?e } \
             ORDER BY DESC(?e)",
        );
        assert_eq!(sols.rows[0][0], Some(Term::lit("Jungfraujoch")));
        assert_eq!(sols.rows[2][0], Some(Term::lit("Davos")));
    }

    #[test]
    fn isiri_isliteral() {
        let st = store();
        let sols = run(
            &st,
            "PREFIX ex: <http://e/> SELECT ?o WHERE { ex:t1 ?p ?o . FILTER(isIRI(?o)) } ORDER BY ?o",
        );
        assert_eq!(sols.len(), 2); // ex:Sensor (type) and ex:wfj (at)
        let sols = run(
            &st,
            "PREFIX ex: <http://e/> SELECT ?o WHERE { ex:t1 ?p ?o . FILTER(isLiteral(?o)) }",
        );
        assert_eq!(sols.len(), 1); // "temperature"
    }

    #[test]
    fn regex_lite_engine() {
        assert!(regex_lite("^abc$", "abc").unwrap());
        assert!(!regex_lite("^abc$", "abcd").unwrap());
        assert!(regex_lite("a.c", "xabcx").unwrap());
        assert!(regex_lite("ab*c", "ac").unwrap());
        assert!(regex_lite("ab*c", "abbbc").unwrap());
        assert!(regex_lite(".*joch", "Weissfluhjoch").unwrap());
        assert!(regex_lite("", "anything").unwrap());
        assert!(regex_lite("\\d", "5").is_err());
    }
}
