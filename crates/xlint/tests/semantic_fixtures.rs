//! Fixture tests for the workspace semantic rules. Each fixture under
//! `tests/fixtures/` is a plain Rust source installed into a scratch
//! workspace at a path mirroring the real crate it stands in for (the
//! rule configs key on `crates/<name>/src/` prefixes), then linted with
//! the full driver. The seeded-violation variants assert the exact rule,
//! file and line; the known-good variants assert silence.

use std::fs;
use std::path::PathBuf;
use xlint::{lint_workspace, Rule, Violation};

/// A scratch workspace under the temp dir, removed on drop.
struct Scratch {
    root: PathBuf,
}

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let root = std::env::temp_dir().join(format!("xlint-fix-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        fs::create_dir_all(&root).unwrap();
        fs::write(
            root.join("Cargo.toml"),
            "[workspace]\nmembers = [\"crates/*\"]\n",
        )
        .unwrap();
        Scratch { root }
    }

    fn install(&self, rel: &str, contents: &str) -> &Scratch {
        let path = self.root.join(rel);
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        fs::write(&path, contents).unwrap();
        self
    }

    /// Lints the workspace and keeps only the semantic rules the fixtures
    /// exercise.
    fn semantic(&self) -> Vec<Violation> {
        let (_, report) = lint_workspace(&self.root).unwrap();
        report
            .violations
            .into_iter()
            .filter(|v| {
                matches!(
                    v.rule,
                    Rule::WalBeforeWrite | Rule::LockOrder | Rule::NoBlockingInPar
                )
            })
            .collect()
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.root);
    }
}

fn assert_only(vs: &[Violation], rule: Rule, file: &str, line: u32) {
    assert_eq!(
        vs.len(),
        1,
        "expected exactly one {} violation, got {vs:?}",
        rule.name()
    );
    assert_eq!(vs[0].rule, rule, "{vs:?}");
    assert_eq!(vs[0].file, file, "{vs:?}");
    assert_eq!(vs[0].line, line, "{vs:?}");
}

// ---------------------------------------------------------------------------
// wal-before-write
// ---------------------------------------------------------------------------

#[test]
fn wal_fixture_good_is_silent() {
    let ws = Scratch::new("wal-ok");
    ws.install(
        "crates/relstore/src/db.rs",
        include_str!("fixtures/wal_ok.rs"),
    );
    assert!(ws.semantic().is_empty(), "{:?}", ws.semantic());
}

#[test]
fn wal_fixture_missing_append_fires_on_the_entry_point() {
    let ws = Scratch::new("wal-missing");
    ws.install(
        "crates/relstore/src/db.rs",
        include_str!("fixtures/wal_missing.rs"),
    );
    let vs = ws.semantic();
    assert_only(&vs, Rule::WalBeforeWrite, "crates/relstore/src/db.rs", 11);
    assert!(vs[0].message.contains("not"), "{vs:?}");
}

#[test]
fn wal_fixture_apply_before_log_fires_on_the_apply_site() {
    let ws = Scratch::new("wal-order");
    ws.install(
        "crates/relstore/src/db.rs",
        include_str!("fixtures/wal_misordered.rs"),
    );
    let vs = ws.semantic();
    assert_only(&vs, Rule::WalBeforeWrite, "crates/relstore/src/db.rs", 12);
    assert!(vs[0].message.contains("before its WAL append"), "{vs:?}");
}

// ---------------------------------------------------------------------------
// lock-order
// ---------------------------------------------------------------------------

#[test]
fn lock_fixture_consistent_order_is_silent() {
    let ws = Scratch::new("lock-ok");
    ws.install(
        "crates/cache/src/shared.rs",
        include_str!("fixtures/lock_ok.rs"),
    );
    assert!(ws.semantic().is_empty(), "{:?}", ws.semantic());
}

#[test]
fn lock_fixture_opposite_orders_fire() {
    // `forward` takes engine→tags, `backward` takes tags→engine; the
    // witness is the lexicographically-first in-cycle edge (engine then
    // tags, second acquisition in `forward`).
    let ws = Scratch::new("lock-bad");
    ws.install(
        "crates/cache/src/shared.rs",
        include_str!("fixtures/lock_bad.rs"),
    );
    let vs = ws.semantic();
    assert_only(&vs, Rule::LockOrder, "crates/cache/src/shared.rs", 14);
    assert!(vs[0].message.contains("engine"), "{vs:?}");
    assert!(vs[0].message.contains("tags"), "{vs:?}");
}

// ---------------------------------------------------------------------------
// no-blocking-in-par
// ---------------------------------------------------------------------------

#[test]
fn par_fixture_pure_compute_is_silent() {
    let ws = Scratch::new("par-ok");
    ws.install(
        "crates/rank/src/batch.rs",
        include_str!("fixtures/par_ok.rs"),
    );
    assert!(ws.semantic().is_empty(), "{:?}", ws.semantic());
}

#[test]
fn par_fixture_blocking_fires_directly_and_transitively() {
    let ws = Scratch::new("par-bad");
    ws.install(
        "crates/rank/src/batch.rs",
        include_str!("fixtures/par_bad.rs"),
    );
    let mut vs = ws.semantic();
    vs.sort_by_key(|v| v.line);
    assert_eq!(vs.len(), 2, "{vs:?}");
    // Direct: fs::read inside the scope closure.
    assert_eq!(vs[0].rule, Rule::NoBlockingInPar);
    assert_eq!(vs[0].file, "crates/rank/src/batch.rs");
    assert_eq!(vs[0].line, 9, "{vs:?}");
    assert!(vs[0].message.contains("fs::read"), "{vs:?}");
    // Transitive: the closure calls `sync_to_disk`, which hits the disk.
    assert_eq!(vs[1].rule, Rule::NoBlockingInPar);
    assert_eq!(vs[1].line, 10, "{vs:?}");
    assert!(vs[1].message.contains("sync_to_disk"), "{vs:?}");
}

// ---------------------------------------------------------------------------
// Everything-good composition
// ---------------------------------------------------------------------------

#[test]
fn all_good_fixtures_compose_into_a_silent_workspace() {
    // The three clean fixtures coexist in one workspace: cross-file symbol
    // resolution must not manufacture violations out of their interplay.
    let ws = Scratch::new("all-ok");
    ws.install(
        "crates/relstore/src/db.rs",
        include_str!("fixtures/wal_ok.rs"),
    )
    .install(
        "crates/cache/src/shared.rs",
        include_str!("fixtures/lock_ok.rs"),
    )
    .install(
        "crates/rank/src/batch.rs",
        include_str!("fixtures/par_ok.rs"),
    );
    assert!(ws.semantic().is_empty(), "{:?}", ws.semantic());
}
