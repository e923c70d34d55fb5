//! Property suite: the cost-based planner must be invisible in results.
//!
//! Every query is executed twice — once with the costed planner (index
//! seeks, composite prefix and range seeks, `IN` list seeks, trigram seeks,
//! probe joins, join reordering) and once with [`PlannerConfig::Naive`]
//! (full scans, written join order). The two outcomes must be identical:
//! the same error, or result sets equal as sorted multisets (row order is
//! unspecified without ORDER BY). Schemas, index sets, data, and predicates
//! are all randomized. UPDATE and DELETE are checked the same way: rows
//! affected and the tables after them must equal a full scan's.

use proptest::prelude::*;
use sensormeta_relstore::{Database, PlannerConfig, Value};

/// Name parts that LIKE/ILIKE patterns are built from, so substring
/// predicates actually hit (and miss) rows.
const PARTS: &[&str] = &["wind", "temp", "davos", "wfj", "snow", "radiation"];

fn fragment() -> impl Strategy<Value = String> {
    (0..PARTS.len()).prop_map(|i| PARTS[i].to_owned())
}

fn name_strategy() -> impl Strategy<Value = String> {
    (fragment(), fragment(), 0u8..3).prop_map(|(a, b, styled)| match styled {
        0 => format!("{a}_{b}"),
        1 => format!("Sensor_{a}_{b}"),
        _ => format!("{a}-{b}-site"),
    })
}

/// Scores: NULL, both zeros, both infinities, duplicates and a random
/// spread, so composite `(grp, score)` keys hold every awkward value.
fn score_strategy() -> impl Strategy<Value = Option<f64>> {
    prop_oneof![
        Just(None),
        Just(Some(-0.0)),
        Just(Some(0.0)),
        Just(Some(f64::INFINITY)),
        Just(Some(f64::NEG_INFINITY)),
        Just(Some(0.5)),
        Just(Some(1.0)),
        (-1.0f64..2.0).prop_map(Some),
    ]
}

/// A number as an exact SQL literal: `{:?}` round-trips every finite
/// float, and `1e400` overflows to infinity (the lexer has no `inf`).
fn sql_num(v: Option<f64>) -> String {
    match v {
        None => "NULL".to_owned(),
        Some(x) if x.is_infinite() => if x > 0.0 { "1e400" } else { "-1e400" }.to_owned(),
        Some(x) => format!("{x:?}"),
    }
}

/// Comparison operands for `score`: the awkward values, plus integer
/// literals (mixed `Int`/`Float` comparisons).
fn bound_strategy() -> impl Strategy<Value = String> {
    prop_oneof![
        score_strategy().prop_map(sql_num),
        (-2i64..3).prop_map(|v| v.to_string()),
    ]
}

fn cmp_strategy() -> impl Strategy<Value = &'static str> {
    (0usize..4).prop_map(|i| ["<", "<=", ">", ">="][i])
}

/// An `IN` list over `grp`: matching and non-matching integers, their
/// float twins, NULL and duplicates.
fn grp_list_strategy() -> impl Strategy<Value = String> {
    prop::collection::vec(
        prop_oneof![
            (0i64..40).prop_map(|v| v.to_string()),
            (0i64..40).prop_map(|v| format!("{v}.0")),
            Just("NULL".to_owned()),
            Just("999".to_owned()),
            Just("2.5".to_owned()),
        ],
        1..6,
    )
    .prop_map(|items| items.join(", "))
}

/// One WHERE predicate over table alias `a`, as SQL text. Generated shapes
/// cover every access path the planner can choose: equality, ranges,
/// BETWEEN, LIKE prefix, LIKE/ILIKE substring, composite equality prefix,
/// prefix + range and prefix + open-ended range, `IN` lists (and `NOT IN`,
/// which must not seek), plus AND-combinations and non-sargable
/// disjunctions.
fn predicate_strategy() -> impl Strategy<Value = String> {
    let atom = prop_oneof![
        (0i64..40).prop_map(|v| format!("a.grp = {v}")),
        (0i64..300).prop_map(|v| format!("a.id < {v}")),
        (0i64..300).prop_map(|v| format!("a.id >= {v}")),
        ((0i64..150), (0i64..150)).prop_map(|(lo, d)| format!("a.id BETWEEN {lo} AND {}", lo + d)),
        fragment().prop_map(|f| format!("a.name LIKE '{f}%'")),
        fragment().prop_map(|f| format!("a.name LIKE '%{f}%'")),
        fragment().prop_map(|f| format!("a.name ILIKE '%{}%'", f.to_uppercase())),
        fragment().prop_map(|f| format!("a.name NOT ILIKE '%{f}%'")),
        Just("a.score > 0.5".to_owned()),
        (cmp_strategy(), bound_strategy()).prop_map(|(op, v)| format!("a.score {op} {v}")),
        ((0i64..40), cmp_strategy(), bound_strategy())
            .prop_map(|(g, op, v)| format!("a.grp = {g} AND a.score {op} {v}")),
        ((0i64..40), bound_strategy(), bound_strategy())
            .prop_map(|(g, lo, hi)| format!("a.score BETWEEN {lo} AND {hi} AND a.grp = {g}")),
        ((0i64..40), bound_strategy())
            .prop_map(|(g, v)| format!("{v} < a.score AND a.score <= 1 AND a.grp = {g}")),
        ((0i64..40), score_strategy())
            .prop_map(|(g, v)| format!("a.grp = {g} AND a.score = {}", sql_num(v))),
        grp_list_strategy().prop_map(|l| format!("a.grp IN ({l})")),
        grp_list_strategy().prop_map(|l| format!("a.grp NOT IN ({l})")),
        grp_list_strategy().prop_map(|l| format!("a.id IN ({l})")),
        (fragment(), fragment())
            .prop_map(|(x, y)| format!("a.name IN ('{x}_{y}', 'wind_temp', NULL)")),
        Just("a.score IN (0, -0.0, 1e400, NULL)".to_owned()),
    ];
    prop::collection::vec(atom, 1..3).prop_map(|atoms| atoms.join(" AND "))
}

#[derive(Debug, Clone)]
struct World {
    rows_a: Vec<(i64, String, i64, Option<f64>)>,
    rows_b: Vec<(i64, i64, String)>,
    rows_c: Vec<(i64, i64)>,
    /// Bitmask choosing which optional indexes exist.
    idx_mask: u8,
}

fn world_strategy() -> impl Strategy<Value = World> {
    let row_a = (any::<i64>(), name_strategy(), 0i64..40, score_strategy());
    let row_b = (any::<i64>(), 0i64..300, fragment());
    let row_c = (any::<i64>(), 0i64..40);
    (
        prop::collection::vec(row_a, 0..60),
        prop::collection::vec(row_b, 0..60),
        prop::collection::vec(row_c, 0..20),
        any::<u8>(),
    )
        .prop_map(|(ra, rb, rc, idx_mask)| World {
            // Re-key ids densely so join predicates connect across tables.
            rows_a: ra
                .into_iter()
                .enumerate()
                .map(|(i, (_, n, g, s))| (i as i64, n, g, s))
                .collect(),
            rows_b: rb
                .into_iter()
                .enumerate()
                .map(|(i, (_, a_id, t))| (i as i64, a_id, t))
                .collect(),
            rows_c: rc
                .into_iter()
                .enumerate()
                .map(|(i, (_, g))| (i as i64, g))
                .collect(),
            idx_mask,
        })
}

fn build(world: &World) -> Database {
    let mut db = Database::new();
    db.execute("CREATE TABLE a (id INTEGER PRIMARY KEY, name TEXT, grp INTEGER, score FLOAT)")
        .unwrap();
    db.execute("CREATE TABLE b (id INTEGER PRIMARY KEY, a_id INTEGER, tag TEXT)")
        .unwrap();
    db.execute("CREATE TABLE c (id INTEGER PRIMARY KEY, grp INTEGER)")
        .unwrap();
    for (bit, ddl) in [
        (1u8, "CREATE INDEX a_grp ON a (grp)"),
        (2, "CREATE TRIGRAM INDEX a_name_trgm ON a (name)"),
        (4, "CREATE INDEX b_aid ON b (a_id)"),
        (8, "CREATE INDEX b_tag ON b (tag)"),
        (16, "CREATE INDEX c_grp ON c (grp)"),
        (32, "CREATE INDEX a_grp_score ON a (grp, score)"),
        (64, "CREATE INDEX a_name ON a (name)"),
    ] {
        if world.idx_mask & bit != 0 {
            db.execute(ddl).unwrap();
        }
    }
    for (id, name, grp, score) in &world.rows_a {
        db.execute(&format!(
            "INSERT INTO a VALUES ({id}, '{name}', {grp}, {})",
            sql_num(*score)
        ))
        .unwrap();
    }
    for (id, a_id, tag) in &world.rows_b {
        db.execute(&format!("INSERT INTO b VALUES ({id}, {a_id}, '{tag}')"))
            .unwrap();
    }
    for (id, grp) in &world.rows_c {
        db.execute(&format!("INSERT INTO c VALUES ({id}, {grp})"))
            .unwrap();
    }
    db
}

/// Runs one query both ways and asserts the same error or multiset
/// equality.
fn assert_equivalent(db: &Database, sql: &str) {
    let planned = db.query(sql);
    let naive = db.query_with(sql, PlannerConfig::Naive);
    let (planned, naive) = match (planned, naive) {
        (Ok(p), Ok(n)) => (p, n),
        (Err(p), Err(n)) => {
            assert_eq!(p.to_string(), n.to_string(), "errors differ for `{sql}`");
            return;
        }
        (p, n) => panic!("outcomes differ for `{sql}`: planned {p:?}, naive {n:?}"),
    };
    assert_eq!(planned.columns, naive.columns, "columns differ for `{sql}`");
    let mut p: Vec<Vec<Value>> = planned.rows;
    let mut n: Vec<Vec<Value>> = naive.rows;
    p.sort();
    n.sort();
    assert_eq!(p, n, "row multisets differ for `{sql}`");
}

/// Runs one UPDATE/DELETE on two copies of `db`, one finding its rows
/// through the planner and one through a full scan, and asserts the same
/// outcome (rows affected, or the same error) and the same tables after.
fn assert_dml_equivalent(db: &Database, sql: &str) {
    let mut planned = db.clone_reader();
    let mut naive = db.clone_reader();
    let p = planned.execute(sql);
    let n = naive.execute_with(sql, PlannerConfig::Naive);
    match (&p, &n) {
        (Ok(p), Ok(n)) => assert_eq!(p, n, "outcomes differ for `{sql}`"),
        (Err(p), Err(n)) => {
            assert_eq!(p.to_string(), n.to_string(), "errors differ for `{sql}`")
        }
        _ => panic!("outcomes differ for `{sql}`: planned {p:?}, naive {n:?}"),
    }
    assert_eq!(
        planned.logical_dump(),
        naive.logical_dump(),
        "tables differ after `{sql}`"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// UPDATE and DELETE find their rows through the planner's access
    /// paths; rows affected and the tables after equal a full scan's,
    /// including statements that rewrite an indexed column or fail part way
    /// on a unique key.
    #[test]
    fn dml_matches_naive(
        world in world_strategy(),
        pred in predicate_strategy(),
        tag in fragment(),
        a_id in 0i64..300,
    ) {
        let db = build(&world);
        assert_dml_equivalent(&db, &format!("DELETE FROM a WHERE {pred}"));
        assert_dml_equivalent(&db, &format!(
            "UPDATE a SET name = 'renamed_davos_probe', score = score + 1 WHERE {pred}"
        ));
        assert_dml_equivalent(&db, &format!("UPDATE a SET grp = grp + 1 WHERE {pred}"));
        assert_dml_equivalent(&db, &format!("UPDATE a SET id = id + 1 WHERE {pred}"));
        assert_dml_equivalent(&db, &format!("DELETE FROM b WHERE a_id = {a_id}"));
        assert_dml_equivalent(&db, &format!(
            "DELETE FROM b WHERE b.tag = '{tag}' AND b.a_id >= {a_id}"
        ));
        assert_dml_equivalent(&db, &format!("UPDATE b SET tag = 'moved' WHERE tag = '{tag}'"));
        assert_dml_equivalent(&db, "DELETE FROM c");
    }

    /// Single-table scans: every access path (seek, range, trigram, full)
    /// returns exactly what the forced full scan returns.
    #[test]
    fn single_table_matches_naive(world in world_strategy(), pred in predicate_strategy()) {
        let db = build(&world);
        assert_equivalent(&db, &format!("SELECT * FROM a WHERE {pred}"));
        assert_equivalent(&db, &format!(
            "SELECT a.name, a.grp FROM a WHERE {pred} AND a.id >= 0"
        ));
    }

    /// LIKE on an INTEGER column fails on the first non-NULL value it
    /// meets, so no B-tree range may serve it: the costed plan scans and
    /// fails exactly as the naive one does (or both find an empty table).
    /// The predicate stands alone: beside a conjunct that seeks, the error
    /// would depend on which rows the plan visits.
    #[test]
    fn like_on_integer_column_matches_naive(world in world_strategy()) {
        let db = build(&world);
        for col in ["grp", "id"] {
            assert_equivalent(&db, &format!("SELECT id FROM a WHERE a.{col} LIKE '1%'"));
            assert_dml_equivalent(&db, &format!("DELETE FROM a WHERE {col} LIKE '1%'"));
            assert_dml_equivalent(&db, &format!(
                "UPDATE a SET name = 'x' WHERE {col} LIKE '1%'"
            ));
        }
    }

    /// Inner joins: probe joins and cardinality-based reordering preserve
    /// the result multiset and the written column order.
    #[test]
    fn inner_joins_match_naive(world in world_strategy(), pred in predicate_strategy()) {
        let db = build(&world);
        assert_equivalent(&db, &format!(
            "SELECT * FROM a JOIN b ON b.a_id = a.id WHERE {pred}"
        ));
        assert_equivalent(&db, &format!(
            "SELECT * FROM b JOIN a ON b.a_id = a.id WHERE {pred}"
        ));
        assert_equivalent(&db, &format!(
            "SELECT * FROM a JOIN b ON b.a_id = a.id JOIN c ON c.grp = a.grp WHERE {pred}"
        ));
        // Aggregates over the join survive reordering too.
        assert_equivalent(&db, &format!(
            "SELECT a.grp, COUNT(*) FROM a JOIN b ON b.a_id = a.id \
             WHERE {pred} GROUP BY a.grp"
        ));
    }

    /// LEFT joins: the planner must not narrow the right side from WHERE
    /// conjuncts, and NULL padding must match the naive nested loop.
    #[test]
    fn left_joins_match_naive(
        world in world_strategy(),
        pred in predicate_strategy(),
        tag in fragment(),
    ) {
        let db = build(&world);
        assert_equivalent(&db, &format!(
            "SELECT * FROM a LEFT JOIN b ON b.a_id = a.id WHERE {pred}"
        ));
        assert_equivalent(&db, &format!(
            "SELECT * FROM a LEFT JOIN b ON b.a_id = a.id AND b.tag = '{tag}' WHERE {pred}"
        ));
        assert_equivalent(&db, &format!(
            "SELECT * FROM a LEFT JOIN b ON b.a_id = a.id WHERE b.tag = '{tag}'"
        ));
    }

    /// Mutations keep planner structures (B-tree and trigram postings)
    /// consistent: results still match naive after updates and deletes.
    #[test]
    fn results_match_after_mutations(world in world_strategy(), pred in predicate_strategy()) {
        let mut db = build(&world);
        db.execute("UPDATE a SET name = 'renamed_davos_probe' WHERE grp = 3").unwrap();
        db.execute("DELETE FROM a WHERE id >= 40").unwrap();
        db.execute("DELETE FROM b WHERE a_id >= 35").unwrap();
        let db = db;
        assert_equivalent(&db, &format!("SELECT * FROM a WHERE {pred}"));
        assert_equivalent(&db, "SELECT * FROM a WHERE name ILIKE '%DAVOS%'");
        assert_equivalent(&db, &format!(
            "SELECT * FROM a JOIN b ON b.a_id = a.id WHERE {pred}"
        ));
    }
}
