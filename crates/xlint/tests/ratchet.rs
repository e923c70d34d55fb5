//! End-to-end tests for the lint driver, including the gate itself: the
//! real workspace has no violation.

use std::fs;
use std::path::{Path, PathBuf};
use xlint::{lint_files, lint_workspace, Rule};

/// A scratch workspace under the target-adjacent temp dir, removed on drop.
struct Scratch {
    root: PathBuf,
}

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let root = std::env::temp_dir().join(format!("xlint-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        fs::create_dir_all(root.join("crates/demo/src")).unwrap();
        fs::write(
            root.join("Cargo.toml"),
            "[workspace]\nmembers = [\"crates/*\"]\n",
        )
        .unwrap();
        Scratch { root }
    }

    fn write(&self, rel: &str, contents: &str) -> PathBuf {
        let path = self.root.join(rel);
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        fs::write(&path, contents).unwrap();
        path
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.root);
    }
}

const CLEAN_LIB: &str = "//! Demo crate.\n\n\
    /// Adds.\n\
    pub fn add(a: u64, b: u64) -> u64 {\n    a + b\n}\n";

#[test]
fn clean_workspace_passes() {
    let ws = Scratch::new("clean");
    ws.write("crates/demo/src/lib.rs", CLEAN_LIB);
    let (_, report) = lint_workspace(&ws.root).unwrap();
    assert!(report.violations.is_empty(), "{:?}", report.violations);
}

#[test]
fn test_modules_and_allow_markers_are_exempt() {
    let ws = Scratch::new("exempt");
    ws.write(
        "crates/demo/src/lib.rs",
        "//! Demo crate.\n\n\
         /// Whether `x` is exactly zero.\n\
         pub fn is_zero(x: f64) -> bool {\n\
         \x20   // xlint: allow(float-eq) — exact IEEE test\n\
         \x20   x == 0.0\n\
         }\n\n\
         #[cfg(test)]\n\
         mod tests {\n\
         \x20   pub enum FixtureError { Boom }\n\
         \x20   #[test]\n\
         \x20   fn t() {\n\
         \x20       assert!(0.5 == 0.5);\n\
         \x20   }\n\
         }\n",
    );
    let (_, report) = lint_workspace(&ws.root).unwrap();
    assert!(report.violations.is_empty(), "{:?}", report.violations);
}

#[test]
fn explicit_file_mode_reports_all_rules() {
    let ws = Scratch::new("files");
    let path = ws.write(
        "crates/demo/src/lib.rs",
        "//! Demo crate.\n\n\
         /// Failure modes.\n\
         pub enum DemoError {\n    /// Boom.\n    Boom,\n}\n\
         /// Close enough?\n\
         pub fn float_eq(x: f64) -> bool {\n    x == 0.5\n}\n",
    );
    let report = lint_files(&ws.root, &[path]).unwrap();
    let rules: Vec<Rule> = report.violations.iter().map(|v| v.rule).collect();
    assert!(rules.contains(&Rule::ErrorImpl), "{rules:?}");
    assert!(rules.contains(&Rule::FloatEq), "{rules:?}");
}

#[test]
fn error_enum_without_impls_is_flagged() {
    let ws = Scratch::new("errimpl");
    ws.write(
        "crates/demo/src/lib.rs",
        "//! Demo crate.\n\n\
         /// Failure modes.\n\
         pub enum DemoError {\n    /// Boom.\n    Boom,\n}\n",
    );
    let (_, report) = lint_workspace(&ws.root).unwrap();
    assert!(report.violations.iter().any(|v| v.rule == Rule::ErrorImpl));

    // With both impls the contract is satisfied.
    ws.write(
        "crates/demo/src/lib.rs",
        "//! Demo crate.\n\n\
         /// Failure modes.\n\
         pub enum DemoError {\n    /// Boom.\n    Boom,\n}\n\n\
         impl std::fmt::Display for DemoError {\n\
         \x20   fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {\n\
         \x20       write!(f, \"boom\")\n\
         \x20   }\n\
         }\n\n\
         impl std::error::Error for DemoError {}\n",
    );
    let (_, report) = lint_workspace(&ws.root).unwrap();
    assert!(
        !report.violations.iter().any(|v| v.rule == Rule::ErrorImpl),
        "{:?}",
        report.violations
    );
}

/// Rule names of a report's violations, in report order.
fn rule_names(violations: &[xlint::Violation]) -> Vec<&'static str> {
    violations.iter().map(|v| v.rule.name()).collect()
}

/// A marker naming no rule (a typo, or a rule that moved to clippy) is a
/// violation in every mode, and fails the command line.
#[test]
fn marker_naming_no_rule_is_flagged() {
    let ws = Scratch::new("unknown");
    let path = ws.write(
        "crates/demo/src/lib.rs",
        "//! Demo crate.\n\n\
         /// Nothing.\n\
         pub fn f() {} // xlint: allow(no-unwrap)\n\
         /// Close enough?\n\
         pub fn g(x: f64) -> bool {\n\
         \x20   // xlint: allow(flaot-eq)\n\
         \x20   x == 0.5\n\
         }\n",
    );
    let report = lint_files(&ws.root, std::slice::from_ref(&path)).unwrap();
    assert_eq!(
        rule_names(&report.violations),
        ["allow-marker", "allow-marker", "float-eq"],
        "{:?}",
        report.violations
    );
    let lines: Vec<u32> = report.violations.iter().map(|v| v.line).collect();
    assert_eq!(lines, [4, 7, 8]);
    let status = std::process::Command::new(env!("CARGO_BIN_EXE_xlint"))
        .arg(&path)
        .current_dir(&ws.root)
        .output()
        .unwrap()
        .status;
    assert_eq!(status.code(), Some(1));
}

/// In a workspace run every rule sees every file, so a marker that
/// suppresses nothing is stale; a run over some files cannot tell.
#[test]
fn unused_marker_is_flagged_in_workspace_runs() {
    let ws = Scratch::new("unused");
    let path = ws.write(
        "crates/demo/src/lib.rs",
        "//! Demo crate.\n\n\
         /// Whether `x` is below one half.\n\
         pub fn small(x: f64) -> bool {\n\
         \x20   // xlint: allow(float-eq) — no float is compared for equality here\n\
         \x20   x < 0.5\n\
         }\n",
    );
    let (_, report) = lint_workspace(&ws.root).unwrap();
    assert_eq!(rule_names(&report.violations), ["allow-marker"]);
    assert_eq!(report.violations[0].line, 5);
    let report = lint_files(&ws.root, &[path]).unwrap();
    assert!(report.violations.is_empty(), "{:?}", report.violations);
}

/// The repository's own workspace has no violation at all — this is the
/// CI gate, run as a plain test.
#[test]
fn real_workspace_has_zero_violations() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .to_path_buf();
    let (found_root, report) = lint_workspace(&root).unwrap();
    assert_eq!(found_root, root);
    assert!(
        report.violations.is_empty(),
        "workspace lint violations:\n{}",
        report
            .violations
            .iter()
            .map(|v| format!("{}:{}: {}: {}", v.file, v.line, v.rule.name(), v.message))
            .collect::<Vec<_>>()
            .join("\n")
    );
}
