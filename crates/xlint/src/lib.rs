//! `xlint` — workspace-aware static analysis for the sensormeta codebase.
//!
//! xlint checks only what rustc and clippy cannot. Panics, printing,
//! narrowing casts, raw thread spawns and undocumented items are the
//! toolchain's: each library root switches on `missing_docs` and the clippy
//! lints, and the workspace `clippy.toml` configures them.
//!
//! Rules (token-level; see [`rules::Rule`]):
//!
//! - **float-eq** — no `==`/`!=` against float literals (clippy's
//!   `float_cmp` ignores comparisons with zero).
//! - **error-impl** — every `pub enum *Error` implements `Display` and
//!   `std::error::Error`.
//!
//! Semantic rules (workspace-level; item parser + cross-file call graph,
//! see the `semantic` module):
//!
//! - **wal-before-write** — durable `Database`/`Smr` mutation paths must
//!   reach a WAL append, and reach it before the first applied write.
//! - **lock-order** — the cross-crate Mutex/RwLock acquisition graph must
//!   stay acyclic and pairwise-consistent.
//! - **no-blocking-in-par** — no fsync/file I/O/unbounded lock waits inside
//!   `Pool::scope`/`par_*` closures.
//!
//! Violations are reported rustc-style (`file:line: rule: message`).
//! `--workspace` fails on any violation. Per-line escapes:
//! `// xlint: allow(rule-name)` on or directly above the line, with the
//! reason the flagged code is meant.
//!
//! - **allow-marker** — a marker must name a rule, and in a `--workspace`
//!   run it must suppress a finding (as an unfulfilled `#[expect]` fails).

#![warn(missing_docs)]
#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented,
    clippy::print_stdout,
    clippy::print_stderr,
    clippy::dbg_macro,
    clippy::float_cmp
)]

pub mod lexer;
mod parser;
pub mod rules;
mod semantic;

pub use rules::{Rule, Violation};

use rules::FileFacts;
use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};

/// Lint driver failure (I/O, missing workspace).
#[derive(Debug)]
pub enum XlintError {
    /// Filesystem error with the path that caused it.
    Io(String, std::io::Error),
    /// No workspace root found upward from the start directory.
    NoWorkspace(PathBuf),
}

impl fmt::Display for XlintError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            XlintError::Io(path, e) => write!(f, "{path}: {e}"),
            XlintError::NoWorkspace(start) => write!(
                f,
                "no workspace root (Cargo.toml with [workspace]) found above {}",
                start.display()
            ),
        }
    }
}

impl std::error::Error for XlintError {}

/// Finds the workspace root: the nearest ancestor (including `start`)
/// whose `Cargo.toml` contains a `[workspace]` table.
pub fn find_workspace_root(start: &Path) -> Result<PathBuf, XlintError> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if manifest.is_file() {
            let text = std::fs::read_to_string(&manifest)
                .map_err(|e| XlintError::Io(manifest.display().to_string(), e))?;
            if text.contains("[workspace]") {
                return Ok(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    Err(XlintError::NoWorkspace(start.to_path_buf()))
}

/// Directory names never descended into.
const SKIP_DIRS: &[&str] = &["target", ".git", "tests", "benches", "examples", "shims"];

/// Collects the library `.rs` files to lint: `src/**` of the root package
/// and of every `crates/*` member. Integration tests, benches, and the
/// offline dependency shims are out of scope: the rules apply to library
/// code.
pub fn workspace_files(root: &Path) -> Result<Vec<PathBuf>, XlintError> {
    let mut files = Vec::new();
    let root_src = root.join("src");
    if root_src.is_dir() {
        collect_rs(&root_src, &mut files)?;
    }
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let entries = std::fs::read_dir(&crates_dir)
            .map_err(|e| XlintError::Io(crates_dir.display().to_string(), e))?;
        let mut members: Vec<PathBuf> = Vec::new();
        for entry in entries {
            let entry = entry.map_err(|e| XlintError::Io(crates_dir.display().to_string(), e))?;
            let src = entry.path().join("src");
            if src.is_dir() {
                members.push(src);
            }
        }
        members.sort();
        for src in members {
            collect_rs(&src, &mut files)?;
        }
    }
    files.sort();
    Ok(files)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), XlintError> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| XlintError::Io(dir.display().to_string(), e))?;
    for entry in entries {
        let entry = entry.map_err(|e| XlintError::Io(dir.display().to_string(), e))?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if !SKIP_DIRS.contains(&name.as_ref()) {
                collect_rs(&path, out)?;
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// The outcome of linting a file set.
#[derive(Debug, Default)]
pub struct LintReport {
    /// All violations, sorted by file then line.
    pub violations: Vec<Violation>,
    /// Number of files scanned.
    pub files_scanned: usize,
}

/// Lints the given files. `root` anchors the workspace-relative paths used
/// in diagnostics. An allow marker that suppresses nothing is not reported
/// here: with only some files seen, a workspace rule may not have fired.
pub fn lint_files(root: &Path, files: &[PathBuf]) -> Result<LintReport, XlintError> {
    lint(root, files, false)
}

/// [`lint_files`], reporting unused allow markers when `whole_workspace`.
fn lint(root: &Path, files: &[PathBuf], whole_workspace: bool) -> Result<LintReport, XlintError> {
    // The error-impl rule is crate-scoped: an error enum's Display/Error
    // impls may live in a sibling module.
    let mut per_crate: BTreeMap<String, FileFacts> = BTreeMap::new();
    let mut violations = Vec::new();
    let mut files_scanned = 0;
    // Lexed files are kept for the workspace semantic pass, which needs the
    // whole file set to build its symbol table and call graph.
    let mut lexed_files: Vec<(String, lexer::Lexed)> = Vec::with_capacity(files.len());

    for path in files {
        let source = std::fs::read_to_string(path)
            .map_err(|e| XlintError::Io(path.display().to_string(), e))?;
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        let lexed = lexer::lex(&source);
        let facts = per_crate.entry(crate_of(&rel)).or_default();
        violations.extend(rules::lint_tokens(&rel, &lexed, facts));
        files_scanned += 1;
        lexed_files.push((rel, lexed));
    }

    for facts in per_crate.values() {
        violations.extend(rules::lint_error_contracts(facts));
    }
    violations.extend(semantic::lint_semantic(&lexed_files));
    let mut violations = rules::apply_allows(violations, &lexed_files, whole_workspace);
    violations.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Ok(LintReport {
        violations,
        files_scanned,
    })
}

/// `crates/foo/src/bar.rs` → `crates/foo`; root `src/…` → `.`.
fn crate_of(rel: &str) -> String {
    if let Some(rest) = rel.strip_prefix("crates/") {
        if let Some((name, _)) = rest.split_once('/') {
            return format!("crates/{name}");
        }
    }
    ".".to_string()
}

/// Convenience: lint the whole workspace found at or above `start`.
pub fn lint_workspace(start: &Path) -> Result<(PathBuf, LintReport), XlintError> {
    let root = find_workspace_root(start)?;
    let files = workspace_files(&root)?;
    let report = lint(&root, &files, true)?;
    Ok((root, report))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crate_of_maps_paths() {
        assert_eq!(crate_of("crates/rdf/src/store.rs"), "crates/rdf");
        assert_eq!(crate_of("src/main.rs"), ".");
    }
}
