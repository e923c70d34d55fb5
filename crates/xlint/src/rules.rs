//! The lint rules, run over the token stream of one file (plus a
//! crate-level pass for the error-type contract rule).

use crate::lexer::{Lexed, Tok, TokKind};

/// Identifies one lint rule. Rule names are stable: they appear in
/// diagnostics and in `// xlint: allow(...)` markers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rule {
    /// `.unwrap()` / `.expect(…)` / `panic!` / `todo!` / `unimplemented!`
    /// in non-test library code.
    NoUnwrap,
    /// `==` / `!=` against a float literal.
    FloatEq,
    /// Narrowing `as` cast in the relstore/rdf encoding paths.
    AsTruncation,
    /// `pub enum *Error` without `Display` + `std::error::Error` impls.
    ErrorImpl,
    /// Undocumented `pub` item in a crate root (`lib.rs`).
    MissingDocs,
    /// `println!` / `print!` / `eprintln!` / `eprint!` / `dbg!` in non-test
    /// library code (binaries and test code may print; libraries report
    /// through return values or the obs registry).
    NoPrintlnInLib,
    /// `thread::spawn` outside the sanctioned crates (`crates/par`, which
    /// owns the worker pool, and `crates/server`, which owns the accept
    /// loop). Everything else must go through the `sensormeta-par` pool so
    /// parallelism stays bounded, instrumented and deterministic.
    NoRawThreadSpawn,
    /// Semantic: durable `Database`/`Smr` mutation paths must reach a WAL
    /// append (`wal_commit`) before — and not after — applying writes.
    WalBeforeWrite,
    /// Semantic: the cross-crate Mutex/RwLock acquisition graph must stay
    /// acyclic; inconsistent pairwise orderings are deadlocks in waiting.
    LockOrder,
    /// Semantic: no fsync/file I/O/unbounded lock waits inside
    /// `Pool::scope`/`par_*` closures — blocking stalls the whole pool.
    NoBlockingInPar,
}

impl Rule {
    /// Stable kebab-case name used in diagnostics and allow markers.
    pub fn name(self) -> &'static str {
        match self {
            Rule::NoUnwrap => "no-unwrap",
            Rule::FloatEq => "float-eq",
            Rule::AsTruncation => "as-truncation",
            Rule::ErrorImpl => "error-impl",
            Rule::MissingDocs => "missing-docs",
            Rule::NoPrintlnInLib => "no-println-in-lib",
            Rule::NoRawThreadSpawn => "no-raw-thread-spawn",
            Rule::WalBeforeWrite => "wal-before-write",
            Rule::LockOrder => "lock-order",
            Rule::NoBlockingInPar => "no-blocking-in-par",
        }
    }

    /// Parses a stable rule name.
    pub fn from_name(name: &str) -> Option<Rule> {
        match name {
            "no-unwrap" => Some(Rule::NoUnwrap),
            "float-eq" => Some(Rule::FloatEq),
            "as-truncation" => Some(Rule::AsTruncation),
            "error-impl" => Some(Rule::ErrorImpl),
            "missing-docs" => Some(Rule::MissingDocs),
            "no-println-in-lib" => Some(Rule::NoPrintlnInLib),
            "no-raw-thread-spawn" => Some(Rule::NoRawThreadSpawn),
            "wal-before-write" => Some(Rule::WalBeforeWrite),
            "lock-order" => Some(Rule::LockOrder),
            "no-blocking-in-par" => Some(Rule::NoBlockingInPar),
            _ => None,
        }
    }

    /// All rules, in a stable order (for `--explain` listings).
    pub fn all() -> &'static [Rule] {
        &[
            Rule::NoUnwrap,
            Rule::FloatEq,
            Rule::AsTruncation,
            Rule::ErrorImpl,
            Rule::MissingDocs,
            Rule::NoPrintlnInLib,
            Rule::NoRawThreadSpawn,
            Rule::WalBeforeWrite,
            Rule::LockOrder,
            Rule::NoBlockingInPar,
        ]
    }

    /// Longer-form rationale shown by `xlint --explain <rule>`.
    pub fn explain(self) -> &'static str {
        match self {
            Rule::NoUnwrap => {
                "Library code must not `.unwrap()`, `.expect()`, `panic!`, `todo!` or \
                 `unimplemented!` outside tests. A panic in a store or query path takes the \
                 whole server down; return a Result (or handle the None/Err case) instead. \
                 Invariants that genuinely cannot fail may be documented with \
                 `// xlint: allow(no-unwrap)` on or above the line."
            }
            Rule::FloatEq => {
                "Floats must not be compared with `==`/`!=` against literals: ranking scores \
                 and solver residuals accumulate rounding error, so exact comparison is \
                 either vacuous or flaky. Compare with an epsilon: `(x - y).abs() < 1e-9`. \
                 Where an exact IEEE test is the meaning (a guard against dividing by zero, an \
                 integrality check), mark it `// xlint: allow(float-eq)` and say why."
            }
            Rule::AsTruncation => {
                "In the relstore/rdf encoding paths a narrowing `as` cast (`as u16`, \
                 `as u32`, …) silently truncates on-disk values. Use `try_from` and surface \
                 the error, or document the proven bound with \
                 `// xlint: allow(as-truncation)`."
            }
            Rule::ErrorImpl => {
                "Every `pub enum *Error` must implement `Display` and `std::error::Error` \
                 (in the same crate) so errors compose with `?`, `Box<dyn Error>` and log \
                 formatting at the server boundary."
            }
            Rule::MissingDocs => {
                "Public items in a crate root (`lib.rs`) need doc comments: crate roots are \
                 the workspace's API surface and `#![warn(missing_docs)]` only covers crates \
                 that opt in."
            }
            Rule::NoPrintlnInLib => {
                "Library crates must not print to stdout/stderr (`println!`, `eprintln!`, \
                 `dbg!`, …). Binaries own the terminal; libraries return data or record it \
                 in the obs metrics registry."
            }
            Rule::NoRawThreadSpawn => {
                "`thread::spawn` is sanctioned only in crates/par (the worker pool) and \
                 crates/server (the accept loop). Everything else parallelizes through the \
                 sensormeta-par pool so thread counts stay bounded and execution stays \
                 deterministic."
            }
            Rule::WalBeforeWrite => {
                "Workspace semantic rule. Public `&mut self` methods of `Database` and \
                 `Smr` that reach an applied write (relstore `insert`/`execute` paths) must \
                 also reach a WAL append (`wal_commit`), and within the entry method the \
                 first applied write must not precede the first WAL append. Writing pages \
                 before logging the operation makes the mutation unrecoverable after a \
                 crash. Paths that only flush already-logged state (checkpoints) may carry \
                 `// xlint: allow(wal-before-write)`."
            }
            Rule::LockOrder => {
                "Workspace semantic rule. xlint discovers lock classes (struct fields and \
                 statics of Mutex/RwLock type), tracks which locks are held across which \
                 calls, and builds the directed acquired-while-holding graph. Any cycle — \
                 including an inconsistent pairwise order like `engine then tags` in one \
                 path and `tags then engine` in another — is a deadlock in waiting once the \
                 server goes concurrent. Fix by acquiring locks in one global order."
            }
            Rule::NoBlockingInPar => {
                "Workspace semantic rule. Closures handed to the sensormeta-par pool \
                 (`scope`, `par_chunks_mut`, `par_map_collect`, `par_sum`, `pool.run`) must \
                 not block: no fsync/file I/O, no channel/condvar waits, no lock \
                 acquisitions — directly or through any call chain. A blocked worker stalls \
                 the whole deterministic batch. Hoist I/O out of the closure and keep \
                 shared state out of the hot path; crates/par itself (which implements the \
                 blocking machinery) is exempt."
            }
        }
    }
}

/// One diagnostic, formatted rustc-style by the binary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Which rule fired.
    pub rule: Rule,
    /// Human-readable reason.
    pub message: String,
}

/// A `pub enum FooError` found while linting — input to the crate-level
/// error-contract pass.
#[derive(Debug, Clone)]
pub struct ErrorEnum {
    /// Workspace-relative path of the defining file.
    pub file: String,
    /// Definition line.
    pub line: u32,
    /// Enum name.
    pub name: String,
}

/// Trait impls found in a file that matter for [`Rule::ErrorImpl`]:
/// (`trait_last_segment`, `type_name`).
pub type ImplFact = (String, String);

/// Per-file scan results feeding crate-level passes.
#[derive(Debug, Default)]
pub struct FileFacts {
    /// Public `*Error` enums defined here.
    pub error_enums: Vec<ErrorEnum>,
    /// `impl Trait for Type` facts (`Display`, `Error` traits only).
    pub impls: Vec<ImplFact>,
}

/// Computes, for each token index, whether it belongs to test-only code:
/// an item annotated `#[cfg(test)]` (typically `mod tests { … }`).
pub(crate) fn test_region_mask(tokens: &[Tok]) -> Vec<bool> {
    let mut mask = vec![false; tokens.len()];
    let mut i = 0;
    while i < tokens.len() {
        if tokens[i].kind == TokKind::Punct('#')
            && matches!(tokens.get(i + 1), Some(t) if t.kind == TokKind::Punct('['))
        {
            // Scan the attribute body for `cfg ( test`.
            let mut j = i + 2;
            let mut depth = 1;
            let mut saw_cfg = false;
            let mut saw_test = false;
            while j < tokens.len() && depth > 0 {
                match &tokens[j].kind {
                    TokKind::Punct('[') => depth += 1,
                    TokKind::Punct(']') => depth -= 1,
                    TokKind::Ident => {
                        if tokens[j].text == "cfg" {
                            saw_cfg = true;
                        } else if tokens[j].text == "test" {
                            saw_test = true;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
            if saw_cfg && saw_test {
                // Skip any further attributes, then mask the item: either to
                // the `;` before any brace, or through the matching `}` of
                // the item's first top-level brace group.
                let item_start = i;
                let mut k = j;
                while k < tokens.len()
                    && tokens[k].kind == TokKind::Punct('#')
                    && matches!(tokens.get(k + 1), Some(t) if t.kind == TokKind::Punct('['))
                {
                    let mut depth = 1;
                    let mut m = k + 2;
                    while m < tokens.len() && depth > 0 {
                        match tokens[m].kind {
                            TokKind::Punct('[') => depth += 1,
                            TokKind::Punct(']') => depth -= 1,
                            _ => {}
                        }
                        m += 1;
                    }
                    k = m;
                }
                let mut brace_depth = 0i32;
                let mut end = k;
                while end < tokens.len() {
                    match tokens[end].kind {
                        TokKind::Punct('{') => brace_depth += 1,
                        TokKind::Punct('}') => {
                            brace_depth -= 1;
                            if brace_depth == 0 {
                                end += 1;
                                break;
                            }
                        }
                        TokKind::Punct(';') if brace_depth == 0 => {
                            end += 1;
                            break;
                        }
                        _ => {}
                    }
                    end += 1;
                }
                for m in mask.iter_mut().take(end.min(tokens.len())).skip(item_start) {
                    *m = true;
                }
                i = end;
                continue;
            }
        }
        i += 1;
    }
    mask
}

pub(crate) fn allowed(lexed: &Lexed, line: u32, rule: Rule) -> bool {
    lexed
        .allows
        .get(&line)
        .is_some_and(|rules| rules.iter().any(|r| r == rule.name()))
}

/// Runs the per-file token rules. `is_lib_root` enables [`Rule::MissingDocs`];
/// `encoding_path` enables [`Rule::AsTruncation`]; `is_bin` (a `main.rs` or
/// `src/bin/` file) exempts [`Rule::NoPrintlnInLib`].
pub fn lint_tokens(
    file: &str,
    lexed: &Lexed,
    is_lib_root: bool,
    encoding_path: bool,
    is_bin: bool,
    facts: &mut FileFacts,
) -> Vec<Violation> {
    let tokens = &lexed.tokens;
    let mask = test_region_mask(tokens);
    let mut out = Vec::new();
    // Raw thread spawning is sanctioned only where a worker/accept loop
    // legitimately lives; everywhere else must use the sensormeta-par pool.
    let thread_spawn_exempt = file.starts_with("crates/par/") || file.starts_with("crates/server/");

    let ident = |i: usize, s: &str| -> bool {
        tokens
            .get(i)
            .is_some_and(|t| t.kind == TokKind::Ident && t.text == s)
    };
    let punct =
        |i: usize, c: char| -> bool { tokens.get(i).is_some_and(|t| t.kind == TokKind::Punct(c)) };
    let is_float = |i: usize| -> bool {
        tokens
            .get(i)
            .is_some_and(|t| matches!(t.kind, TokKind::Num { float: true }))
    };

    let mut depth = 0i32;
    for i in 0..tokens.len() {
        match tokens[i].kind {
            TokKind::Punct('{') => depth += 1,
            TokKind::Punct('}') => depth -= 1,
            _ => {}
        }
        if mask[i] {
            continue;
        }
        let line = tokens[i].line;

        // -- no-unwrap ----------------------------------------------------
        if tokens[i].kind == TokKind::Ident {
            let name = tokens[i].text.as_str();
            let panic_like =
                (name == "panic" || name == "todo" || name == "unimplemented") && punct(i + 1, '!');
            let method_like = (name == "unwrap" || name == "expect")
                && punct(i + 1, '(')
                && i > 0
                && punct(i - 1, '.');
            if (panic_like || method_like) && !allowed(lexed, line, Rule::NoUnwrap) {
                let what = if panic_like {
                    format!("`{name}!` in library code")
                } else {
                    format!("`.{name}()` in library code")
                };
                out.push(Violation {
                    file: file.to_string(),
                    line,
                    rule: Rule::NoUnwrap,
                    message: format!("{what}; return a Result or handle the None/Err case"),
                });
            }
        }

        // -- no-println-in-lib --------------------------------------------
        if !is_bin && tokens[i].kind == TokKind::Ident {
            let name = tokens[i].text.as_str();
            if matches!(name, "println" | "print" | "eprintln" | "eprint" | "dbg")
                && punct(i + 1, '!')
                && !(i > 0 && punct(i - 1, '.'))
                && !allowed(lexed, line, Rule::NoPrintlnInLib)
            {
                out.push(Violation {
                    file: file.to_string(),
                    line,
                    rule: Rule::NoPrintlnInLib,
                    message: format!(
                        "`{name}!` in library code; return the data or record it in the \
                         obs registry"
                    ),
                });
            }
        }

        // -- no-raw-thread-spawn ------------------------------------------
        if !thread_spawn_exempt
            && ident(i, "thread")
            && punct(i + 1, ':')
            && punct(i + 2, ':')
            && ident(i + 3, "spawn")
            && !allowed(lexed, line, Rule::NoRawThreadSpawn)
        {
            out.push(Violation {
                file: file.to_string(),
                line,
                rule: Rule::NoRawThreadSpawn,
                message: "`thread::spawn` outside crates/par and crates/server; use the \
                          sensormeta-par pool so parallelism stays bounded and deterministic"
                    .to_string(),
            });
        }

        // -- float-eq -----------------------------------------------------
        if punct(i, '=') && punct(i + 1, '=') && !punct(i + 2, '=') {
            let prev_rel = if i > 0 {
                matches!(
                    tokens[i - 1].kind,
                    TokKind::Punct('=' | '!' | '<' | '>' | '+' | '-' | '*' | '/')
                )
            } else {
                false
            };
            if !prev_rel
                && ((i > 0 && is_float(i - 1)) || is_float(i + 2))
                && !allowed(lexed, line, Rule::FloatEq)
            {
                out.push(Violation {
                    file: file.to_string(),
                    line,
                    rule: Rule::FloatEq,
                    message: "float compared with `==`; use an epsilon comparison".to_string(),
                });
            }
        }
        if punct(i, '!')
            && punct(i + 1, '=')
            && !punct(i + 2, '=')
            && ((i > 0 && is_float(i - 1)) || is_float(i + 2))
            && !allowed(lexed, line, Rule::FloatEq)
        {
            out.push(Violation {
                file: file.to_string(),
                line,
                rule: Rule::FloatEq,
                message: "float compared with `!=`; use an epsilon comparison".to_string(),
            });
        }

        // -- as-truncation ------------------------------------------------
        if encoding_path && ident(i, "as") {
            if let Some(t) = tokens.get(i + 1) {
                if t.kind == TokKind::Ident
                    && matches!(t.text.as_str(), "u8" | "u16" | "u32" | "i8" | "i16" | "i32")
                    && !allowed(lexed, line, Rule::AsTruncation)
                {
                    out.push(Violation {
                        file: file.to_string(),
                        line,
                        rule: Rule::AsTruncation,
                        message: format!(
                            "narrowing `as {}` cast in an encoding path; use try_from or \
                             mark the bound with `// xlint: allow(as-truncation)`",
                            t.text
                        ),
                    });
                }
            }
        }

        // -- facts: pub enum *Error / impl Display|Error for T ------------
        if ident(i, "enum") && i > 0 && ident(i - 1, "pub") {
            if let Some(t) = tokens.get(i + 1) {
                if t.kind == TokKind::Ident && t.text.ends_with("Error") {
                    facts.error_enums.push(ErrorEnum {
                        file: file.to_string(),
                        line: t.line,
                        name: t.text.clone(),
                    });
                }
            }
        }
        if ident(i, "impl") {
            // Look ahead for `for` within a short window; the last path
            // segment before it names the trait, the ident after it names
            // the type.
            let mut trait_seg = None;
            let mut j = i + 1;
            let mut steps = 0;
            while j < tokens.len() && steps < 16 {
                if ident(j, "for") {
                    break;
                }
                if tokens[j].kind == TokKind::Ident {
                    trait_seg = Some(tokens[j].text.clone());
                }
                if matches!(tokens[j].kind, TokKind::Punct('{' | ';')) {
                    trait_seg = None; // inherent impl, no `for`
                    break;
                }
                j += 1;
                steps += 1;
            }
            if let (Some(trait_name), true) = (trait_seg, ident(j, "for")) {
                if trait_name == "Display" || trait_name == "Error" {
                    // Type name: last ident of the path after `for`.
                    let mut k = j + 1;
                    let mut ty = None;
                    while k < tokens.len() {
                        match &tokens[k].kind {
                            TokKind::Ident => ty = Some(tokens[k].text.clone()),
                            TokKind::Punct(':') => {}
                            _ => break,
                        }
                        k += 1;
                    }
                    if let Some(ty) = ty {
                        facts.impls.push((trait_name, ty));
                    }
                }
            }
        }

        // -- missing-docs (crate roots only) ------------------------------
        if is_lib_root
            && depth == 0
            && ident(i, "pub")
            && !punct(i + 1, '(') // pub(crate)/pub(super) is not public API
            && is_doc_item_keyword(tokens, i + 1)
            && !has_preceding_doc(tokens, i)
            && !allowed(lexed, line, Rule::MissingDocs)
        {
            let item = tokens
                .get(i + 1)
                .map(|t| t.text.clone())
                .unwrap_or_default();
            out.push(Violation {
                file: file.to_string(),
                line,
                rule: Rule::MissingDocs,
                message: format!("undocumented public `{item}` in crate root"),
            });
        }
    }
    out
}

/// Keywords whose `pub` form warrants a doc comment at the crate root.
fn is_doc_item_keyword(tokens: &[Tok], i: usize) -> bool {
    let Some(t) = tokens.get(i) else {
        return false;
    };
    if t.kind != TokKind::Ident {
        return false;
    }
    // `pub mod foo;` is exempt: its documentation lives as `//!` inner docs
    // in the module file, which `#![warn(missing_docs)]` already polices.
    matches!(
        t.text.as_str(),
        "fn" | "struct" | "enum" | "trait" | "const" | "static" | "type"
    ) || (t.text == "unsafe" || t.text == "async") && is_doc_item_keyword(tokens, i + 1)
}

/// Walks backwards from the `pub` at `i`, skipping attribute spans
/// (`#[ … ]`), to see whether an outer doc comment immediately precedes
/// the item.
fn has_preceding_doc(tokens: &[Tok], i: usize) -> bool {
    let mut j = i;
    while j > 0 {
        j -= 1;
        match tokens[j].kind {
            TokKind::DocOuter => return true,
            TokKind::Punct(']') => {
                // Skip back over the attribute to its `#`.
                let mut depth = 1;
                while j > 0 && depth > 0 {
                    j -= 1;
                    match tokens[j].kind {
                        TokKind::Punct(']') => depth += 1,
                        TokKind::Punct('[') => depth -= 1,
                        _ => {}
                    }
                }
                if j > 0 && tokens[j - 1].kind == TokKind::Punct('#') {
                    j -= 1;
                } else {
                    return false;
                }
            }
            _ => return false,
        }
    }
    false
}

/// Crate-level pass: every `pub enum *Error` needs both a `Display` and an
/// `Error` impl somewhere in the same crate.
pub fn lint_error_contracts(facts: &FileFacts) -> Vec<Violation> {
    let mut out = Vec::new();
    for e in &facts.error_enums {
        let has_display = facts
            .impls
            .iter()
            .any(|(t, ty)| t == "Display" && *ty == e.name);
        let has_error = facts
            .impls
            .iter()
            .any(|(t, ty)| t == "Error" && *ty == e.name);
        if !(has_display && has_error) {
            let missing = match (has_display, has_error) {
                (false, false) => "Display and std::error::Error impls",
                (false, true) => "a Display impl",
                (true, false) => "a std::error::Error impl",
                _ => continue,
            };
            out.push(Violation {
                file: e.file.clone(),
                line: e.line,
                rule: Rule::ErrorImpl,
                message: format!("public error enum `{}` is missing {missing}", e.name),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn lint(src: &str) -> Vec<Violation> {
        let lexed = lex(src);
        let mut facts = FileFacts::default();
        let mut v = lint_tokens("t.rs", &lexed, false, false, false, &mut facts);
        v.extend(lint_error_contracts(&facts));
        v
    }

    #[test]
    fn println_in_lib_flagged_but_bins_and_tests_exempt() {
        let v = lint("fn f() { println!(\"x\"); eprint!(\"y\"); dbg!(z); }");
        let names: Vec<_> = v.iter().map(|v| v.rule).collect();
        assert_eq!(names, vec![Rule::NoPrintlnInLib; 3]);
        // Binaries may print.
        let lexed = lex("fn main() { println!(\"x\"); }");
        let mut facts = FileFacts::default();
        assert!(lint_tokens("src/main.rs", &lexed, false, false, true, &mut facts).is_empty());
        // Test regions may print.
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests {\n fn t() { println!(\"x\"); }\n}";
        assert!(lint(src).is_empty());
        // Allow marker suppresses.
        assert!(lint("fn f() { println!(\"x\"); } // xlint: allow(no-println-in-lib)").is_empty());
        // A method named like the macro is not a macro call.
        assert!(lint("fn f() { w.print(); }").is_empty());
    }

    #[test]
    fn unwrap_and_panics_flagged() {
        let v = lint("fn f() { x.unwrap(); y.expect(\"m\"); panic!(\"b\"); todo!(); }");
        let names: Vec<_> = v.iter().map(|v| v.rule).collect();
        assert_eq!(names, vec![Rule::NoUnwrap; 4]);
    }

    #[test]
    fn unwrap_or_variants_not_flagged() {
        assert!(lint("fn f() { x.unwrap_or(0); x.unwrap_or_default(); }").is_empty());
    }

    #[test]
    fn cfg_test_regions_exempt() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests {\n fn t() { x.unwrap(); panic!(); }\n}";
        assert!(lint(src).is_empty());
    }

    #[test]
    fn allow_marker_suppresses() {
        let src = "fn f() { x.unwrap(); } // xlint: allow(no-unwrap)";
        assert!(lint(src).is_empty());
        let above = "fn f() {\n // xlint: allow(no-unwrap)\n x.unwrap();\n}";
        assert!(lint(above).is_empty());
    }

    #[test]
    fn float_eq_flagged_but_epsilon_ok() {
        let v = lint("fn f(x: f64) -> bool { x == 1.0 }");
        assert_eq!(v[0].rule, Rule::FloatEq);
        assert!(lint("fn f(x: f64) -> bool { (x - 1.0).abs() < 1e-9 }").is_empty());
        assert!(lint("fn f(x: i64) -> bool { x == 1 }").is_empty());
        assert!(lint("fn f(x: f64) -> bool { x <= 1.0 }").is_empty());
    }

    #[test]
    fn narrowing_casts_only_in_encoding_paths() {
        let src = "fn f(x: u64) -> u16 { x as u16 }";
        let lexed = lex(src);
        let mut facts = FileFacts::default();
        assert!(lint_tokens("t.rs", &lexed, false, false, false, &mut facts).is_empty());
        let v = lint_tokens("t.rs", &lexed, false, true, false, &mut facts);
        assert_eq!(v[0].rule, Rule::AsTruncation);
        // Widening casts stay legal.
        let lexed2 = lex("fn f(x: u16) -> u64 { x as u64 }");
        assert!(lint_tokens("t.rs", &lexed2, false, true, false, &mut facts).is_empty());
    }

    #[test]
    fn error_enum_contract() {
        let bad = "pub enum ParseError { Bad }";
        let v = lint(bad);
        assert_eq!(v[0].rule, Rule::ErrorImpl);
        let good = "pub enum ParseError { Bad }\n\
                    impl std::fmt::Display for ParseError { }\n\
                    impl std::error::Error for ParseError { }";
        assert!(lint(good).is_empty());
        // Non-error enums are not held to the contract.
        assert!(lint("pub enum Color { Red }").is_empty());
    }

    #[test]
    fn raw_thread_spawn_flagged_outside_sanctioned_crates() {
        let src = "fn f() { std::thread::spawn(|| {}); }";
        let v = lint(src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::NoRawThreadSpawn);
        // Bare `thread::spawn` (imported module) is also caught.
        let v = lint("use std::thread;\nfn f() { thread::spawn(|| {}); }");
        assert_eq!(v.len(), 1);
        // The pool and server crates are sanctioned.
        for exempt in ["crates/par/src/lib.rs", "crates/server/src/http.rs"] {
            let lexed = lex(src);
            let mut facts = FileFacts::default();
            assert!(
                lint_tokens(exempt, &lexed, false, false, false, &mut facts).is_empty(),
                "{exempt}"
            );
        }
        // Test regions and allow markers suppress.
        let t = "fn lib() {}\n#[cfg(test)]\nmod tests {\n fn t() { std::thread::spawn(|| {}); }\n}";
        assert!(lint(t).is_empty());
        let marked = "fn f() { std::thread::spawn(|| {}); } // xlint: allow(no-raw-thread-spawn)";
        assert!(lint(marked).is_empty());
        // `thread.spawn()` on a variable or other paths are not the std call.
        assert!(lint("fn f(thread: P) { thread.spawn(); }").is_empty());
    }

    #[test]
    fn missing_docs_on_lib_roots() {
        let src = "/// documented\npub fn a() {}\npub fn b() {}\npub(crate) fn c() {}\npub mod m;";
        let lexed = lex(src);
        let mut facts = FileFacts::default();
        let v = lint_tokens("lib.rs", &lexed, true, false, false, &mut facts);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::MissingDocs);
        assert_eq!(v[0].line, 3);
        // Attributes between doc and item are fine.
        let src2 = "/// doc\n#[derive(Debug)]\npub struct S;";
        let lexed2 = lex(src2);
        let v2 = lint_tokens("lib.rs", &lexed2, true, false, false, &mut facts);
        assert!(v2.is_empty());
    }
}
