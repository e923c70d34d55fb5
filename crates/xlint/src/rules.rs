//! The lint rules, run over the token stream of one file (plus a
//! crate-level pass for the error-type contract rule).

use crate::lexer::{Lexed, Tok, TokKind};
use std::collections::HashMap;

/// Identifies one lint rule. Rule names are stable: they appear in
/// diagnostics and in `// xlint: allow(...)` markers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rule {
    /// `==` / `!=` against a float literal.
    FloatEq,
    /// `pub enum *Error` without `Display` + `std::error::Error` impls.
    ErrorImpl,
    /// Semantic: durable `Database`/`Smr` mutation paths must reach a WAL
    /// append (`wal_commit`) before — and not after — applying writes.
    WalBeforeWrite,
    /// Semantic: the cross-crate Mutex/RwLock acquisition graph must stay
    /// acyclic; inconsistent pairwise orderings are deadlocks in waiting.
    LockOrder,
    /// Semantic: no fsync/file I/O/unbounded lock waits inside
    /// `Pool::scope`/`par_*` closures — blocking stalls the whole pool.
    NoBlockingInPar,
    /// An `// xlint: allow(…)` marker that names no rule, or — in a
    /// workspace run — suppresses nothing.
    AllowMarker,
}

impl Rule {
    /// Stable kebab-case name used in diagnostics and allow markers.
    pub fn name(self) -> &'static str {
        match self {
            Rule::FloatEq => "float-eq",
            Rule::ErrorImpl => "error-impl",
            Rule::WalBeforeWrite => "wal-before-write",
            Rule::LockOrder => "lock-order",
            Rule::NoBlockingInPar => "no-blocking-in-par",
            Rule::AllowMarker => "allow-marker",
        }
    }

    /// Parses a stable rule name.
    pub fn from_name(name: &str) -> Option<Rule> {
        match name {
            "float-eq" => Some(Rule::FloatEq),
            "error-impl" => Some(Rule::ErrorImpl),
            "wal-before-write" => Some(Rule::WalBeforeWrite),
            "lock-order" => Some(Rule::LockOrder),
            "no-blocking-in-par" => Some(Rule::NoBlockingInPar),
            "allow-marker" => Some(Rule::AllowMarker),
            _ => None,
        }
    }

    /// All rules, in a stable order (for `--explain` listings).
    pub fn all() -> &'static [Rule] {
        &[
            Rule::FloatEq,
            Rule::ErrorImpl,
            Rule::WalBeforeWrite,
            Rule::LockOrder,
            Rule::NoBlockingInPar,
            Rule::AllowMarker,
        ]
    }

    /// Longer-form rationale shown by `xlint --explain <rule>`.
    pub fn explain(self) -> &'static str {
        match self {
            Rule::FloatEq => {
                "Floats must not be compared with `==`/`!=` against literals: ranking scores \
                 and solver residuals accumulate rounding error, so exact comparison is \
                 either vacuous or flaky. Compare with an epsilon: `(x - y).abs() < 1e-9`. \
                 Where an exact IEEE test is the meaning (a guard against dividing by zero, an \
                 integrality check), mark it `// xlint: allow(float-eq)` and say why."
            }
            Rule::ErrorImpl => {
                "Every `pub enum *Error` must implement `Display` and `std::error::Error` \
                 (in the same crate) so errors compose with `?`, `Box<dyn Error>` and log \
                 formatting at the server boundary."
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
            Rule::AllowMarker => {
                "An `// xlint: allow(rule)` marker must name one of xlint's rules: a \
                 misspelt or retired name suppresses nothing and would hide that fact. In a \
                 `--workspace` run, where every rule sees every file, a marker must also \
                 suppress a finding on its line or the next; one that suppresses nothing is \
                 stale, like an unfulfilled `#[expect]`. Delete it. This rule cannot be \
                 allowed."
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

/// Drops every violation that an allow marker on its line or the line
/// above names, then reports the markers themselves: each that names no
/// rule, and — with `report_unused`, when every rule ran over the whole
/// workspace — each that suppressed nothing. `files` pairs each
/// workspace-relative path with its lexed source.
pub(crate) fn apply_allows(
    violations: Vec<Violation>,
    files: &[(String, Lexed)],
    report_unused: bool,
) -> Vec<Violation> {
    let by_file: HashMap<&str, usize> = files
        .iter()
        .enumerate()
        .map(|(i, (rel, _))| (rel.as_str(), i))
        .collect();
    let mut used: Vec<Vec<bool>> = files
        .iter()
        .map(|(_, lexed)| vec![false; lexed.allows.len()])
        .collect();
    let mut out = Vec::with_capacity(violations.len());
    for v in violations {
        let mut suppressed = false;
        if let Some(&f) = by_file.get(v.file.as_str()) {
            for (k, allow) in files[f].1.allows.iter().enumerate() {
                if allow.rule == v.rule.name() && (allow.line == v.line || allow.line + 1 == v.line)
                {
                    used[f][k] = true;
                    suppressed = true;
                }
            }
        }
        if !suppressed {
            out.push(v);
        }
    }
    for ((rel, lexed), used) in files.iter().zip(&used) {
        for (allow, &used) in lexed.allows.iter().zip(used) {
            let problem = if Rule::from_name(&allow.rule).is_none() {
                "names no xlint rule"
            } else if report_unused && !used {
                "suppresses nothing on its line or the next"
            } else {
                continue;
            };
            out.push(Violation {
                file: rel.clone(),
                line: allow.line,
                rule: Rule::AllowMarker,
                message: format!("`xlint: allow({})` {problem}", allow.rule),
            });
        }
    }
    out
}

/// Runs the per-file token rules ([`Rule::FloatEq`]) and collects the
/// facts the crate-level [`Rule::ErrorImpl`] pass needs. Allow markers
/// are applied afterwards, over every file at once.
pub fn lint_tokens(file: &str, lexed: &Lexed, facts: &mut FileFacts) -> Vec<Violation> {
    let tokens = &lexed.tokens;
    let mask = test_region_mask(tokens);
    let mut out = Vec::new();

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

    for i in 0..tokens.len() {
        if mask[i] {
            continue;
        }
        let line = tokens[i].line;

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
            if !prev_rel && ((i > 0 && is_float(i - 1)) || is_float(i + 2)) {
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
        {
            out.push(Violation {
                file: file.to_string(),
                line,
                rule: Rule::FloatEq,
                message: "float compared with `!=`; use an epsilon comparison".to_string(),
            });
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
    }
    out
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
        let mut v = lint_tokens("t.rs", &lexed, &mut facts);
        v.extend(lint_error_contracts(&facts));
        apply_allows(v, &[("t.rs".to_string(), lexed)], false)
    }

    #[test]
    fn cfg_test_regions_exempt() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests {\n fn t(x: f64) -> bool { x == 1.0 }\n}";
        assert!(lint(src).is_empty());
    }

    #[test]
    fn allow_marker_suppresses() {
        let src = "fn f(x: f64) -> bool { x == 1.0 } // xlint: allow(float-eq)";
        assert!(lint(src).is_empty());
        let above = "fn f(x: f64) -> bool {\n // xlint: allow(float-eq)\n x == 1.0\n}";
        assert!(lint(above).is_empty());
        // A marker names its rule: another rule's marker does not suppress.
        let v = lint("fn f(x: f64) -> bool { x == 1.0 } // xlint: allow(lock-order)");
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::FloatEq);
    }

    #[test]
    fn marker_naming_no_rule_is_a_violation() {
        let v = lint("fn f(x: f64) -> bool { x == 1.0 } // xlint: allow(flaot-eq)");
        let rules: Vec<Rule> = v.iter().map(|v| v.rule).collect();
        assert_eq!(rules, [Rule::FloatEq, Rule::AllowMarker]);
        assert!(v[1].message.contains("flaot-eq"), "{v:?}");
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
}
