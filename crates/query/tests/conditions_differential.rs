//! Differential check of the paper's combined-query claim: the SQL path, the
//! SPARQL path and a naive scan answer the same structured conditions over
//! the same metadata.
//!
//! Random corpora carry awkward annotation values (integers, decimals,
//! negatives, `-0`, a leading `+`, exponents, whitespace padding, mixed
//! case, `NaN`, `inf`, a float overflowing to infinity, an integer past
//! 2^53, non-numeric text, quotes, `%`, `_`, non-ASCII with case mappings
//! that change length, and titles of pages that may or may not exist);
//! random conditions cover all five `CondOp`s. Four properties:
//!
//! * `sql_condition_titles` equals a scan of `get_page` annotations with
//!   `Condition::matches` (as a multiset: one title per matching row);
//! * for `eq` (the random conditions and every attribute × value pair),
//!   `sparql_condition_titles` returns exactly the pages holding the value
//!   case-exactly as a literal: the mirror makes a value naming an existing
//!   page an IRI, whatever order the pages were loaded in;
//! * `search_uncached`, in hard and soft mode, under a namespace and a
//!   restricted ACL, returns exactly the pages a naive filter keeps, with
//!   the same match degrees;
//! * after pages are rewritten with `update_page` and removed with
//!   `delete_page`, `sql_condition_titles` still equals the scan — the
//!   numeric column and the indexes follow every rewrite.

use proptest::prelude::*;
use sensormeta_query::{Acl, CondOp, Condition, QueryEngine, RankBlend, SearchForm, PUBLIC_GROUP};
use sensormeta_smr::{Page, PageDraft, Smr};
use std::collections::{BTreeMap, BTreeSet};

const NAMESPACES: [&str; 3] = ["Site", "Deployment", "Person"];
/// `title` and `linksTo` are also the names of the mirror's built-in
/// predicates, which conditions on them must not see.
const ATTRIBUTES: [&str; 5] = ["hasA", "hasB", "hasC", "title", "linksTo"];

/// Annotation and condition values. The `Namespace:pN` ones name the page
/// generated `N`th when it falls in that namespace; `site:p0` never names
/// one (titles are case-sensitive) but equals `Site:p0` case-insensitively.
const VALUES: [&str; 45] = [
    "5",
    "-3",
    "42",
    "0",
    "2.5",
    "-0.75",
    "1e3",
    " 7",
    "12 ",
    "Temp",
    "TEMP",
    "temp",
    "NaN",
    "inf",
    "-inf",
    "abc",
    "it's",
    "say \"hi\"",
    "%",
    "_",
    "50%",
    "a_b",
    "Zürich",
    "zürich",
    "ÄÖ",
    "日本",
    "x%y",
    "",
    "1..5",
    "Mixed Case Text",
    "Site:p0",
    "Deployment:p1",
    "Person:p2",
    "Site:p3",
    "Deployment:p4",
    "site:p0",
    "-0",
    "+5",
    "1E3",
    "1e400",
    "9007199254740993",
    "ẞ",
    "İ",
    "STRAẞE",
    "İzmir",
];

/// Between ranges, including malformed and non-finite ones.
const RANGES: [&str; 11] = [
    "1..5",
    "-5..5",
    " 0 .. 100 ",
    "-inf..inf",
    "NaN..5",
    "junk",
    "5..1",
    "2.5..1e3",
    "-0..0",
    "0..1e400",
    "-1e400..-0",
];

fn op_of(ix: u8) -> CondOp {
    match ix {
        0 => CondOp::Eq,
        1 => CondOp::Contains,
        2 => CondOp::Gt,
        3 => CondOp::Lt,
        _ => CondOp::Between,
    }
}

fn condition(attr: usize, op: u8, val: usize) -> Condition {
    let op = op_of(op);
    let value = if op == CondOp::Between {
        RANGES[val % RANGES.len()]
    } else {
        VALUES[val % VALUES.len()]
    };
    Condition::new(ATTRIBUTES[attr], op, value)
}

/// One generated page: namespace index and `(attribute, value)` indexes.
type PageSpec = (usize, Vec<(usize, usize)>);

fn build_smr(pages: &[PageSpec]) -> Smr {
    let mut smr = Smr::new();
    let report = smr.bulk_load(pages.iter().enumerate().map(|(i, (ns, anns))| {
        let ns = NAMESPACES[*ns];
        let mut d = PageDraft::new(format!("{ns}:p{i}"), ns).body(format!("page {i}"));
        d.annotations = anns
            .iter()
            .map(|&(a, v)| (ATTRIBUTES[a].to_owned(), VALUES[v].to_owned()))
            .collect();
        d
    }));
    assert!(report.errors.is_empty(), "{:?}", report.errors);
    smr
}

/// Every page read back through `get_page`, the oracle for everything the
/// engine derives from the whole corpus.
fn naive_pages(smr: &Smr) -> Vec<Page> {
    smr.page_titles()
        .expect("titles")
        .into_iter()
        .map(|t| smr.get_page(&t).expect("get_page").expect("page exists"))
        .collect()
}

/// Naive scan: one title per annotation row the condition matches.
fn naive_matches(pages: &[Page], cond: &Condition) -> Vec<String> {
    let mut out = Vec::new();
    for page in pages {
        for (a, v) in &page.annotations {
            if *a == cond.attribute && cond.matches(v) {
                out.push(page.title.clone());
            }
        }
    }
    out.sort();
    out
}

/// The pages holding the condition's value case-exactly as an RDF literal:
/// what the SPARQL half of `eq` finds. A value naming an existing page is
/// mirrored as that page's IRI, not as a literal.
fn naive_literal_matches(pages: &[Page], cond: &Condition) -> BTreeSet<String> {
    if pages.iter().any(|page| page.title == cond.value) {
        return BTreeSet::new();
    }
    pages
        .iter()
        .filter(|page| {
            page.annotations
                .iter()
                .any(|(a, v)| *a == cond.attribute && *v == cond.value)
        })
        .map(|page| page.title.clone())
        .collect()
}

/// The pages a condition selects in a search: `eq` answers with the
/// case-exact literal matches when there are any (the SPARQL half), and
/// falls back to the case-insensitive matches otherwise (the SQL half).
fn naive_condition_set(pages: &[Page], cond: &Condition) -> BTreeSet<String> {
    if cond.op == CondOp::Eq {
        let exact = naive_literal_matches(pages, cond);
        if !exact.is_empty() {
            return exact;
        }
    }
    pages
        .iter()
        .filter(|page| {
            page.annotations
                .iter()
                .any(|(a, v)| *a == cond.attribute && cond.matches(v))
        })
        .map(|page| page.title.clone())
        .collect()
}

fn sorted(mut v: Vec<String>) -> Vec<String> {
    v.sort();
    v
}

/// The ACL variants: everything open; only two namespaces public; one
/// public namespace plus a group grant the searching user holds.
fn acl_case(ix: u8) -> (Acl, Option<&'static str>) {
    match ix {
        0 => (Acl::open(), None),
        1 => {
            let mut acl = Acl::new();
            acl.grant(PUBLIC_GROUP, "Site");
            acl.grant(PUBLIC_GROUP, "Deployment");
            (acl, None)
        }
        _ => {
            let mut acl = Acl::new();
            acl.grant(PUBLIC_GROUP, "Site");
            acl.grant("staff", "Person");
            acl.add_member("alice", "staff");
            (acl, Some("alice"))
        }
    }
}

fn page_strategy() -> impl Strategy<Value = Vec<PageSpec>> {
    prop::collection::vec(
        (
            0usize..NAMESPACES.len(),
            prop::collection::vec((0usize..ATTRIBUTES.len(), 0usize..VALUES.len()), 0..5),
        ),
        1..14,
    )
}

fn conditions_strategy() -> impl Strategy<Value = Vec<(usize, u8, usize)>> {
    prop::collection::vec(
        (0usize..ATTRIBUTES.len(), 0u8..5, 0usize..VALUES.len()),
        1..4,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn sql_and_sparql_agree_with_a_naive_scan(
        pages in page_strategy(),
        conds in conditions_strategy(),
    ) {
        let smr = build_smr(&pages);
        let naive = naive_pages(&smr);
        let engine = QueryEngine::open(smr).expect("engine");
        for &(a, op, v) in &conds {
            let cond = condition(a, op, v);
            let expected = naive_matches(&naive, &cond);
            let sql = sorted(engine.sql_condition_titles(&cond).expect("sql"));
            prop_assert_eq!(&sql, &expected, "SQL disagrees with the scan for {:?}", cond);
            if cond.op == CondOp::Eq {
                let sparql: BTreeSet<String> = engine
                    .sparql_condition_titles(&cond)
                    .expect("sparql")
                    .into_iter()
                    .collect();
                let scan: BTreeSet<String> = expected.iter().cloned().collect();
                prop_assert!(
                    sparql.is_subset(&scan),
                    "SPARQL {:?} is not within the scan {:?} for {:?}", sparql, scan, cond
                );
                prop_assert_eq!(
                    &sparql,
                    &naive_literal_matches(&naive, &cond),
                    "case-exact literals for {:?}",
                    cond
                );
            }
        }
        // Every `eq` over the vocabulary, so a value naming a page written
        // after the page holding it is always among the conditions.
        for attr in ATTRIBUTES {
            for value in VALUES {
                let cond = Condition::new(attr, CondOp::Eq, value);
                let sparql: BTreeSet<String> = engine
                    .sparql_condition_titles(&cond)
                    .expect("sparql")
                    .into_iter()
                    .collect();
                prop_assert_eq!(
                    &sparql,
                    &naive_literal_matches(&naive, &cond),
                    "case-exact literals for {:?}",
                    cond
                );
            }
        }
    }

    #[test]
    fn search_agrees_with_a_naive_filter(
        pages in page_strategy(),
        conds in conditions_strategy(),
        soft in 0u8..2,
        ns in 0u8..4,
        acl_ix in 0u8..3,
    ) {
        let smr = build_smr(&pages);
        let naive = naive_pages(&smr);
        let (acl, user) = acl_case(acl_ix);
        let engine = QueryEngine::build(smr, acl.clone(), RankBlend::default()).expect("engine");
        let namespace = match ns {
            0 => None,
            1 => Some("site".to_owned()),
            2 => Some("Deployment".to_owned()),
            _ => Some("Person".to_owned()),
        };
        let mut form = SearchForm {
            namespace: namespace.clone(),
            soft_conditions: soft == 1,
            limit: 1000,
            ..SearchForm::default()
        };
        for &(a, op, v) in &conds {
            form = form.condition(condition(a, op, v));
        }
        let sets: Vec<BTreeSet<String>> = form
            .conditions
            .iter()
            .map(|c| naive_condition_set(&naive, c))
            .collect();
        let mut expected: BTreeMap<String, f64> = BTreeMap::new();
        for page in &naive {
            if !acl.can_read(user, &page.namespace) {
                continue;
            }
            if namespace.as_ref().is_some_and(|want| !page.namespace.eq_ignore_ascii_case(want)) {
                continue;
            }
            let hit = sets.iter().filter(|s| s.contains(&page.title)).count();
            let degree = hit as f64 / sets.len() as f64;
            let keep = if form.soft_conditions { degree > 0.0 } else { degree >= 1.0 };
            if keep {
                expected.insert(page.title.clone(), degree);
            }
        }
        let out = engine.search_uncached(&form, user).expect("search");
        let got: BTreeMap<String, f64> = out
            .items
            .iter()
            .map(|i| (i.title.clone(), i.match_degree))
            .collect();
        prop_assert_eq!(out.total_matched, expected.len(), "form {:?}", form);
        prop_assert_eq!(&got, &expected, "form {:?}", form);
    }

    #[test]
    fn sql_agrees_after_rewrites(
        pages in page_strategy(),
        rewrites in prop::collection::vec(
            (0usize..14, prop::collection::vec((0usize..ATTRIBUTES.len(), 0usize..VALUES.len()), 0..5)),
            1..6,
        ),
        deletes in prop::collection::vec(0usize..14, 0..3),
        conds in conditions_strategy(),
    ) {
        let mut smr = build_smr(&pages);
        let titles = smr.page_titles().expect("titles");
        for (ix, anns) in &rewrites {
            let Some(title) = titles.get(ix % titles.len()) else { continue };
            let Some(page) = smr.get_page(title).expect("get_page") else { continue };
            let mut draft = PageDraft::new(page.title, page.namespace).body(page.body);
            draft.annotations = anns
                .iter()
                .map(|&(a, v)| (ATTRIBUTES[a].to_owned(), VALUES[v].to_owned()))
                .collect();
            smr.update_page(draft).expect("update_page");
        }
        for ix in &deletes {
            smr.delete_page(&titles[ix % titles.len()]).expect("delete_page");
        }
        let naive = naive_pages(&smr);
        let engine = QueryEngine::open(smr).expect("engine");
        let every_op = (0u8..5).flat_map(|op| (0..VALUES.len()).map(move |v| (op, v)));
        for (a, op, v) in conds.iter().copied().chain(every_op.map(|(op, v)| (0, op, v))) {
            let cond = condition(a, op, v);
            let expected = naive_matches(&naive, &cond);
            let sql = sorted(engine.sql_condition_titles(&cond).expect("sql"));
            prop_assert_eq!(&sql, &expected, "SQL disagrees with the scan for {:?}", cond);
        }
    }
}
