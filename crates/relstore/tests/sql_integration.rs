//! End-to-end SQL tests exercising the full parse → plan → execute pipeline.

use sensormeta_relstore::{Database, RelError, Value};

fn fixture() -> Database {
    let mut db = Database::new();
    db.execute_script(
        "CREATE TABLE stations (id INTEGER PRIMARY KEY, name TEXT NOT NULL, \
         elevation FLOAT, canton TEXT);
         CREATE TABLE sensors (id INTEGER PRIMARY KEY, station INTEGER, \
         kind TEXT NOT NULL, unit TEXT);
         INSERT INTO stations VALUES
           (1, 'Weissfluhjoch', 2693.0, 'GR'),
           (2, 'Davos', 1594.0, 'GR'),
           (3, 'Jungfraujoch', 3571.0, 'BE'),
           (4, 'Payerne', 490.0, 'VD');
         INSERT INTO sensors VALUES
           (10, 1, 'temperature', 'C'),
           (11, 1, 'wind_speed', 'm/s'),
           (12, 1, 'snow_height', 'cm'),
           (13, 2, 'temperature', 'C'),
           (14, 3, 'temperature', 'C'),
           (15, 3, 'radiation', 'W/m2'),
           (16, NULL, 'orphan', NULL);",
    )
    .unwrap();
    db
}

#[test]
fn basic_projection_and_filter() {
    let db = fixture();
    let rs = db
        .query("SELECT name FROM stations WHERE elevation > 1500 ORDER BY name")
        .unwrap();
    let names: Vec<String> = rs.rows.iter().map(|r| r[0].to_string()).collect();
    assert_eq!(names, vec!["Davos", "Jungfraujoch", "Weissfluhjoch"]);
}

#[test]
fn inner_join() {
    let db = fixture();
    let rs = db
        .query(
            "SELECT st.name, s.kind FROM sensors s JOIN stations st ON s.station = st.id \
             WHERE s.kind = 'temperature' ORDER BY st.name",
        )
        .unwrap();
    assert_eq!(rs.rows.len(), 3);
    assert_eq!(rs.rows[0][0], Value::text("Davos"));
}

#[test]
fn left_join_pads_nulls() {
    let db = fixture();
    let rs = db
        .query(
            "SELECT s.kind, st.name FROM sensors s LEFT JOIN stations st ON s.station = st.id \
             WHERE st.name IS NULL",
        )
        .unwrap();
    assert_eq!(rs.rows.len(), 1);
    assert_eq!(rs.rows[0][0], Value::text("orphan"));
    assert!(rs.rows[0][1].is_null());
}

#[test]
fn group_by_having() {
    let db = fixture();
    let rs = db
        .query(
            "SELECT station, COUNT(*) AS n FROM sensors WHERE station IS NOT NULL \
             GROUP BY station HAVING COUNT(*) >= 2 ORDER BY n DESC",
        )
        .unwrap();
    assert_eq!(rs.rows.len(), 2);
    assert_eq!(rs.rows[0], vec![Value::Int(1), Value::Int(3)]);
    assert_eq!(rs.rows[1], vec![Value::Int(3), Value::Int(2)]);
}

#[test]
fn global_aggregates_over_empty_and_nonempty() {
    let db = fixture();
    assert_eq!(
        db.query_scalar("SELECT COUNT(*) FROM sensors").unwrap(),
        Some(Value::Int(7))
    );
    assert_eq!(
        db.query_scalar("SELECT COUNT(*) FROM sensors WHERE kind = 'nothing'")
            .unwrap(),
        Some(Value::Int(0))
    );
    // SUM over empty set is NULL per SQL semantics.
    assert_eq!(
        db.query_scalar("SELECT SUM(station) FROM sensors WHERE kind = 'nothing'")
            .unwrap(),
        Some(Value::Null)
    );
    let avg = db
        .query_scalar("SELECT AVG(elevation) FROM stations")
        .unwrap()
        .unwrap();
    assert_eq!(avg, Value::Float((2693.0 + 1594.0 + 3571.0 + 490.0) / 4.0));
}

#[test]
fn count_distinct() {
    let db = fixture();
    assert_eq!(
        db.query_scalar("SELECT COUNT(DISTINCT kind) FROM sensors")
            .unwrap(),
        Some(Value::Int(5))
    );
}

#[test]
fn distinct_order_limit_offset() {
    let db = fixture();
    let rs = db
        .query("SELECT DISTINCT canton FROM stations ORDER BY canton LIMIT 2 OFFSET 1")
        .unwrap();
    let cantons: Vec<String> = rs.rows.iter().map(|r| r[0].to_string()).collect();
    assert_eq!(cantons, vec!["GR", "VD"]);
}

#[test]
fn order_by_positional_and_alias() {
    let db = fixture();
    let rs = db
        .query("SELECT name AS n, elevation FROM stations ORDER BY 2 DESC LIMIT 1")
        .unwrap();
    assert_eq!(rs.rows[0][0], Value::text("Jungfraujoch"));
    let rs = db
        .query("SELECT UPPER(name) AS shouty FROM stations ORDER BY shouty LIMIT 1")
        .unwrap();
    assert_eq!(rs.rows[0][0], Value::text("DAVOS"));
}

#[test]
fn update_and_delete() {
    let mut db = fixture();
    let n = db
        .execute("UPDATE sensors SET unit = 'K' WHERE kind = 'temperature'")
        .unwrap()
        .affected();
    assert_eq!(n, 3);
    assert_eq!(
        db.query_scalar("SELECT COUNT(*) FROM sensors WHERE unit = 'K'")
            .unwrap(),
        Some(Value::Int(3))
    );
    let n = db
        .execute("DELETE FROM sensors WHERE station IS NULL")
        .unwrap()
        .affected();
    assert_eq!(n, 1);
    assert_eq!(
        db.query_scalar("SELECT COUNT(*) FROM sensors").unwrap(),
        Some(Value::Int(6))
    );
}

#[test]
fn update_expression_uses_old_row() {
    let mut db = fixture();
    db.execute("UPDATE stations SET elevation = elevation + 10 WHERE id = 1")
        .unwrap();
    assert_eq!(
        db.query_scalar("SELECT elevation FROM stations WHERE id = 1")
            .unwrap(),
        Some(Value::Float(2703.0))
    );
}

#[test]
fn index_scan_matches_full_scan() {
    let mut db = fixture();
    // Query before creating the index…
    let full = db
        .query("SELECT id FROM sensors WHERE kind = 'temperature' ORDER BY id")
        .unwrap();
    db.execute("CREATE INDEX sensors_kind ON sensors (kind)")
        .unwrap();
    // …and after: the access path changes, results must not.
    let indexed = db
        .query("SELECT id FROM sensors WHERE kind = 'temperature' ORDER BY id")
        .unwrap();
    assert_eq!(full, indexed);
    // Range predicate through the PK index.
    let rs = db
        .query("SELECT id FROM sensors WHERE id BETWEEN 11 AND 13 ORDER BY id")
        .unwrap();
    assert_eq!(rs.rows.len(), 3);
}

#[test]
fn unique_violation_through_sql() {
    let mut db = fixture();
    let err = db
        .execute("INSERT INTO stations VALUES (1, 'Dup', 0.0, 'ZH')")
        .unwrap_err();
    assert!(matches!(err, RelError::UniqueViolation { .. }));
}

#[test]
fn like_and_functions_in_where() {
    let db = fixture();
    let rs = db
        .query("SELECT name FROM stations WHERE LOWER(name) LIKE '%joch' ORDER BY name")
        .unwrap();
    assert_eq!(rs.rows.len(), 2);
}

#[test]
fn expression_only_select() {
    let db = Database::new();
    assert_eq!(
        db.query_scalar("SELECT 2 + 2 * 10").unwrap(),
        Some(Value::Int(22))
    );
}

#[test]
fn snapshot_roundtrip_preserves_everything() {
    let mut db = fixture();
    db.execute("CREATE INDEX sensors_kind ON sensors (kind)")
        .unwrap();
    let snap = db.to_snapshot();
    let restored = Database::from_snapshot(&snap).unwrap();
    assert_eq!(restored.table_names(), db.table_names());
    let q = "SELECT st.name, COUNT(*) FROM sensors s JOIN stations st ON s.station = st.id \
             GROUP BY st.name ORDER BY st.name";
    assert_eq!(db.query(q).unwrap(), restored.query(q).unwrap());
    // Indexes restored: unique constraint still enforced.
    let mut restored = restored;
    assert!(restored
        .execute("INSERT INTO stations VALUES (1, 'Dup', 0.0, 'ZH')")
        .is_err());
}

#[test]
fn snapshot_rejects_corruption() {
    let db = fixture();
    let mut snap = db.to_snapshot();
    snap[3] = b'X';
    assert!(Database::from_snapshot(&snap).is_err());
    assert!(Database::from_snapshot(&[]).is_err());
}

#[test]
fn ascii_table_rendering() {
    let db = fixture();
    let rs = db
        .query("SELECT name, canton FROM stations WHERE id <= 2 ORDER BY id")
        .unwrap();
    let table = rs.to_ascii_table();
    assert!(table.contains("| Weissfluhjoch |"));
    assert!(table.contains("| name"));
}

#[test]
fn multi_join_three_tables() {
    let mut db = fixture();
    db.execute_script(
        "CREATE TABLE cantons (code TEXT PRIMARY KEY, fullname TEXT);
         INSERT INTO cantons VALUES ('GR', 'Graubuenden'), ('BE', 'Bern'), ('VD', 'Vaud');",
    )
    .unwrap();
    let rs = db
        .query(
            "SELECT c.fullname, COUNT(*) AS n FROM sensors s \
             JOIN stations st ON s.station = st.id \
             JOIN cantons c ON st.canton = c.code \
             GROUP BY c.fullname ORDER BY n DESC, c.fullname",
        )
        .unwrap();
    assert_eq!(rs.rows[0][0], Value::text("Graubuenden"));
    assert_eq!(rs.rows[0][1], Value::Int(4));
}

#[test]
fn qualified_wildcard_projection() {
    let db = fixture();
    let rs = db
        .query("SELECT st.* FROM sensors s JOIN stations st ON s.station = st.id WHERE s.id = 10")
        .unwrap();
    assert_eq!(rs.columns, vec!["id", "name", "elevation", "canton"]);
    assert_eq!(rs.rows[0][1], Value::text("Weissfluhjoch"));
}

#[test]
fn drop_table_and_if_exists() {
    let mut db = fixture();
    db.execute("DROP TABLE sensors").unwrap();
    assert!(!db.has_table("sensors"));
    assert!(db.execute("DROP TABLE sensors").is_err());
    db.execute("DROP TABLE IF EXISTS sensors").unwrap();
}

#[test]
fn insert_with_column_list_fills_nulls() {
    let mut db = fixture();
    db.execute("INSERT INTO sensors (id, kind) VALUES (99, 'humidity')")
        .unwrap();
    let rs = db
        .query("SELECT station, unit FROM sensors WHERE id = 99")
        .unwrap();
    assert!(rs.rows[0][0].is_null());
    assert!(rs.rows[0][1].is_null());
}

#[test]
fn explain_shows_access_path() {
    let mut db = fixture();
    // Without an index on `kind`: sequential scan.
    let plan = db
        .execute("EXPLAIN SELECT id FROM sensors WHERE kind = 'temperature'")
        .unwrap()
        .into_rows()
        .unwrap();
    let steps: Vec<String> = plan.rows.iter().map(|r| r[0].to_string()).collect();
    assert!(steps[0].starts_with("FullScan sensors"), "{steps:?}");
    // With the index: the planner must pick it.
    db.execute("CREATE INDEX sensors_kind ON sensors (kind)")
        .unwrap();
    let plan = db
        .execute("EXPLAIN SELECT id FROM sensors WHERE kind = 'temperature'")
        .unwrap()
        .into_rows()
        .unwrap();
    let steps: Vec<String> = plan.rows.iter().map(|r| r[0].to_string()).collect();
    assert!(
        steps[0].contains("IndexSeek sensors via sensors_kind (eq on kind)"),
        "{steps:?}"
    );
    // Range predicates use the PK index.
    let plan = db
        .execute("EXPLAIN SELECT id FROM sensors WHERE id BETWEEN 10 AND 12")
        .unwrap()
        .into_rows()
        .unwrap();
    assert!(plan.rows[0][0].to_string().contains("(range on id)"));
}

#[test]
fn explain_lists_pipeline_steps() {
    let mut db = fixture();
    let plan = db
        .execute(
            "EXPLAIN SELECT kind, COUNT(*) FROM sensors s JOIN stations st              ON s.station = st.id WHERE st.elevation > 1000 GROUP BY kind              HAVING COUNT(*) > 1 ORDER BY kind LIMIT 3",
        )
        .unwrap()
        .into_rows()
        .unwrap();
    let steps: Vec<String> = plan.rows.iter().map(|r| r[0].to_string()).collect();
    let text = steps.join(" | ");
    for needle in [
        "InnerJoin",
        "Filter",
        "HashAggregate",
        "HavingFilter",
        "Project",
        "Sort (1 keys)",
        "LimitOffset",
    ] {
        assert!(text.contains(needle), "missing {needle} in {text}");
    }
}

#[test]
fn like_prefix_uses_index_and_matches_full_scan() {
    let mut db = fixture();
    let q = "SELECT id FROM sensors WHERE kind LIKE 'wind%' ORDER BY id";
    let full = db.query(q).unwrap();
    db.execute("CREATE INDEX sensors_kind ON sensors (kind)")
        .unwrap();
    let indexed = db.query(q).unwrap();
    assert_eq!(full, indexed);
    assert_eq!(indexed.rows.len(), 1);
    // The planner shows the range scan.
    let plan = db
        .query("EXPLAIN SELECT id FROM sensors WHERE kind LIKE 'wind%'")
        .unwrap();
    assert!(
        plan.rows[0][0]
            .to_string()
            .contains("RangeScan sensors via sensors_kind (range on kind)"),
        "{:?}",
        plan.rows
    );
    // Leading-wildcard patterns cannot use the index.
    let plan = db
        .query("EXPLAIN SELECT id FROM sensors WHERE kind LIKE '%speed'")
        .unwrap();
    assert!(plan.rows[0][0].to_string().starts_with("FullScan"));
    // Mid-pattern wildcards still filter correctly through the range.
    let rs = db
        .query("SELECT kind FROM sensors WHERE kind LIKE 'w%_speed' ORDER BY kind")
        .unwrap();
    assert_eq!(rs.rows.len(), 1);
}

#[test]
fn signed_zeros_are_one_value_to_distinct_and_group_by() {
    let mut db = Database::new();
    db.execute_script(
        "CREATE TABLE z (x FLOAT);
         INSERT INTO z VALUES (0.0), (-0.0), (0);",
    )
    .unwrap();
    assert_eq!(
        db.query_scalar("SELECT COUNT(*) FROM z WHERE x = 0")
            .unwrap(),
        Some(Value::Int(3))
    );
    let distinct = db.query("SELECT DISTINCT x FROM z").unwrap();
    assert_eq!(distinct.rows.len(), 1, "{:?}", distinct.rows);
    let groups = db.query("SELECT x, COUNT(*) FROM z GROUP BY x").unwrap();
    assert_eq!(groups.rows.len(), 1, "{:?}", groups.rows);
    assert_eq!(groups.rows[0][1], Value::Int(3));
    assert_eq!(
        db.query_scalar("SELECT COUNT(DISTINCT x) FROM z").unwrap(),
        Some(Value::Int(1))
    );
}

#[test]
fn explain_composite_prefix_range_and_in_list_seeks() {
    let mut db = Database::new();
    db.execute_script(
        "CREATE TABLE m (id INTEGER PRIMARY KEY, grp TEXT, score FLOAT);
         CREATE INDEX m_grp_score ON m (grp, score);
         INSERT INTO m VALUES (1, 'a', 1.5), (2, 'a', -3.0), (3, 'a', NULL),
           (4, 'b', 7.0), (5, 'a', 1e400), (6, 'a', -0.0), (7, 'b', NULL);",
    )
    .unwrap();
    let first_step =
        |sql: &str| db.query(&format!("EXPLAIN {sql}")).unwrap().rows[0][0].to_string();
    let ids = |sql: &str| -> Vec<i64> {
        let mut ids: Vec<i64> = db
            .query(sql)
            .unwrap()
            .rows
            .iter()
            .map(|r| r[0].as_int().unwrap())
            .collect();
        ids.sort_unstable();
        ids
    };

    // Equality on the leading column seeks the key prefix.
    let q = "SELECT id FROM m WHERE grp = 'a'";
    assert_eq!(first_step(q), "IndexSeek m via m_grp_score (eq on grp)");
    assert_eq!(ids(q), [1, 2, 3, 5, 6]);
    // The whole key.
    let q = "SELECT id FROM m WHERE score = 0 AND grp = 'a'";
    assert_eq!(
        first_step(q),
        "IndexSeek m via m_grp_score (eq on grp, score)"
    );
    assert_eq!(ids(q), [6]);
    // Prefix + range, including a negative bound (a negated literal) and
    // an open end that must skip the NULL scores.
    let q = "SELECT id FROM m WHERE grp = 'a' AND score > -3";
    assert_eq!(
        first_step(q),
        "RangeScan m via m_grp_score (eq on grp, range on score)"
    );
    assert_eq!(ids(q), [1, 5, 6]);
    assert_eq!(
        ids("SELECT id FROM m WHERE grp = 'a' AND score < 1e400"),
        [1, 2, 6]
    );
    assert_eq!(
        ids("SELECT id FROM m WHERE grp = 'a' AND score BETWEEN -0.0 AND 1e400"),
        [1, 5, 6]
    );
    assert_eq!(
        ids("SELECT id FROM m WHERE grp = 'a' AND score BETWEEN 2 AND 1"),
        []
    );
    // `IN` on an indexed column is one multi-key seek; NOT IN scans.
    let q = "SELECT id FROM m WHERE id IN (7, 2, 2.0, NULL, 99)";
    assert_eq!(
        first_step(q),
        "MultiSeek m via m_id_unique (in 3 keys on id)"
    );
    assert_eq!(ids(q), [2, 7]);
    let q = "SELECT id FROM m WHERE grp IN ('b', 'zz')";
    assert_eq!(
        first_step(q),
        "MultiSeek m via m_grp_score (in 2 keys on grp)"
    );
    assert_eq!(ids(q), [4, 7]);
    let q = "SELECT id FROM m WHERE id NOT IN (1, 2, 3)";
    assert_eq!(first_step(q), "FullScan m");
    assert_eq!(ids(q), [4, 5, 6, 7]);
}
