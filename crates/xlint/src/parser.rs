//! Item-level parsing on top of the token stream: just enough structure to
//! build a workspace symbol table and an approximate call graph.
//!
//! The parser extracts `fn` items (free functions and `impl` methods, with
//! receiver and visibility), their body token ranges, and — from any body
//! range — the call sites within it. It is resolutely approximate: no type
//! inference, no name resolution beyond textual paths. The semantic rules
//! built on it (see [`crate::semantic`]) are designed so that this
//! approximation errs toward silence for ambiguous method names and toward
//! noise only where a per-line `// xlint: allow(...)` marker can document
//! the exception.

use crate::lexer::{Tok, TokKind};
use std::ops::Range;

/// One `fn` item found in a file.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// Workspace-relative path of the defining file.
    pub file: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Function name.
    pub name: String,
    /// Enclosing `impl` type name, if any (`impl Database { fn f … }` →
    /// `Some("Database")`; trait impls record the *type*, not the trait).
    pub owner: Option<String>,
    /// True for unrestricted `pub` (not `pub(crate)` / `pub(super)`).
    pub is_pub: bool,
    /// True when the function has a `self` receiver of any shape, so
    /// method-call syntax can reach it.
    pub takes_self: bool,
    /// True when the receiver is `&mut self` (the only receiver shape the
    /// mutation rules care about).
    pub takes_mut_self: bool,
    /// Token index range of the body (between the braces). Empty for
    /// bodyless declarations (trait methods, extern fns).
    pub body: Range<usize>,
    /// True when the item sits inside a `#[cfg(test)]` region.
    pub in_test: bool,
}

/// What a call site invokes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Callee {
    /// `recv.name(…)` — `recv` is the identifier directly before the final
    /// `.`, when there is one (`self.db.execute(…)` → `Some("db")`;
    /// chained `a().b(…)` → `None`).
    Method {
        /// Method name.
        name: String,
        /// Identifier immediately preceding the last `.`, if any.
        recv: Option<String>,
    },
    /// `path::name(…)` or bare `name(…)`.
    Free {
        /// Leading path segments (`a::b::f(…)` → `["a", "b"]`).
        path: Vec<String>,
        /// Final segment (the function name).
        name: String,
    },
}

/// One call site inside a body range.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// What is being called.
    pub callee: Callee,
    /// Token index of the callee name.
    pub tok: usize,
    /// 1-based source line.
    pub line: u32,
    /// Token index range of the argument list (between the parens).
    pub args: Range<usize>,
}

/// Keywords that look like `name(` but are not calls.
const NON_CALL_KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "loop", "return", "fn", "move", "unsafe", "as", "in", "let",
    "else", "where", "impl", "dyn", "ref", "mut", "pub", "use", "box",
];

fn is_ident(tokens: &[Tok], i: usize, s: &str) -> bool {
    tokens
        .get(i)
        .is_some_and(|t| t.kind == TokKind::Ident && t.text == s)
}

fn is_punct(tokens: &[Tok], i: usize, c: char) -> bool {
    tokens.get(i).is_some_and(|t| t.kind == TokKind::Punct(c))
}

fn ident_text(tokens: &[Tok], i: usize) -> Option<&str> {
    tokens.get(i).and_then(|t| {
        if t.kind == TokKind::Ident {
            Some(t.text.as_str())
        } else {
            None
        }
    })
}

/// Next token index at or after `i` that is not a doc comment.
fn skip_docs(tokens: &[Tok], mut i: usize) -> usize {
    while matches!(
        tokens.get(i).map(|t| &t.kind),
        Some(TokKind::DocOuter | TokKind::DocInner)
    ) {
        i += 1;
    }
    i
}

/// For every `{` token, the index of its matching `}` (or `tokens.len()`
/// when unbalanced — degrade, don't panic).
pub(crate) fn brace_matches(tokens: &[Tok]) -> Vec<usize> {
    let mut out = vec![usize::MAX; tokens.len()];
    let mut stack = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        match t.kind {
            TokKind::Punct('{') => stack.push(i),
            TokKind::Punct('}') => {
                if let Some(open) = stack.pop() {
                    out[open] = i;
                }
            }
            _ => {}
        }
    }
    for open in stack {
        out[open] = tokens.len();
    }
    out
}

/// Walks back from the token before `fn_ix` over modifier keywords to decide
/// whether the item is unrestricted-`pub`.
fn is_pub_at(tokens: &[Tok], fn_ix: usize) -> bool {
    let mut j = fn_ix;
    while j > 0 {
        j -= 1;
        match &tokens[j].kind {
            TokKind::Ident => match tokens[j].text.as_str() {
                "unsafe" | "async" | "const" | "extern" => continue,
                "pub" => return !is_punct(tokens, j + 1, '('),
                _ => return false,
            },
            // `extern "C" fn` carries a Str between extern and fn.
            TokKind::Str => continue,
            // `pub(crate) fn` walks back over the `(crate)` group.
            TokKind::Punct(')') => {
                let mut depth = 1;
                while j > 0 && depth > 0 {
                    j -= 1;
                    match tokens[j].kind {
                        TokKind::Punct(')') => depth += 1,
                        TokKind::Punct('(') => depth -= 1,
                        _ => {}
                    }
                }
                // Restricted visibility (or a stray paren): not plain pub.
                return false;
            }
            _ => return false,
        }
    }
    false
}

/// Parses the `impl` header starting at `impl_ix`, returning the
/// self-type name and the index of the opening `{` (None for `impl … ;`
/// or an unterminated header).
fn parse_impl_header(tokens: &[Tok], impl_ix: usize) -> Option<(String, usize)> {
    let mut j = impl_ix + 1;
    let mut angle = 0i32;
    let mut last: Option<String> = None;
    let mut frozen = false; // stop collecting once `where` is seen
    while j < tokens.len() {
        match &tokens[j].kind {
            TokKind::Punct('<') => angle += 1,
            TokKind::Punct('>') => angle -= 1,
            TokKind::Punct('{') if angle <= 0 => {
                return last.map(|name| (name, j));
            }
            TokKind::Punct(';') if angle <= 0 => return None,
            TokKind::Ident if angle <= 0 && !frozen => match tokens[j].text.as_str() {
                // `impl Trait for Type`: the type comes after `for`.
                "for" => last = None,
                "where" => frozen = true,
                "dyn" | "mut" | "const" => {}
                other => last = Some(other.to_string()),
            },
            _ => {}
        }
        j += 1;
    }
    None
}

/// Extracts every `fn` item from a lexed file. `mask[i]` marks tokens in
/// `#[cfg(test)]` regions (see `rules::test_region_mask`).
pub fn parse_items(file: &str, tokens: &[Tok], mask: &[bool]) -> Vec<FnItem> {
    let closes = brace_matches(tokens);
    let mut items = Vec::new();
    // Stack of (impl type name, index of the impl block's closing brace).
    let mut impls: Vec<(String, usize)> = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        while impls.last().is_some_and(|(_, close)| i > *close) {
            impls.pop();
        }
        if is_ident(tokens, i, "impl") {
            if let Some((name, open)) = parse_impl_header(tokens, i) {
                impls.push((name, closes[open]));
                i = open + 1;
                continue;
            }
        }
        if is_ident(tokens, i, "fn") {
            let name_ix = skip_docs(tokens, i + 1);
            if let Some(name) = ident_text(tokens, name_ix) {
                let item = parse_fn(tokens, &closes, i, name_ix, name, file, mask, &impls);
                items.push(item);
                // Keep scanning from just past the name: nested `fn` items
                // inside this body are their own (reachable-by-name) items.
                i = name_ix + 1;
                continue;
            }
        }
        i += 1;
    }
    items
}

#[allow(clippy::too_many_arguments)]
fn parse_fn(
    tokens: &[Tok],
    closes: &[usize],
    fn_ix: usize,
    name_ix: usize,
    name: &str,
    file: &str,
    mask: &[bool],
    impls: &[(String, usize)],
) -> FnItem {
    // Scan the signature: find the parameter list, inspect the receiver,
    // then find the body `{` (or a `;` for bodyless declarations).
    let mut j = name_ix + 1;
    let mut angle = 0i32;
    // Skip generics to the opening paren.
    while j < tokens.len() {
        match tokens[j].kind {
            TokKind::Punct('<') => angle += 1,
            TokKind::Punct('>') => angle -= 1,
            TokKind::Punct('(') if angle <= 0 => break,
            TokKind::Punct('{' | ';') if angle <= 0 => break,
            _ => {}
        }
        j += 1;
    }
    let mut takes_self = false;
    let mut takes_mut_self = false;
    let mut params_end = j;
    if is_punct(tokens, j, '(') {
        // Match the parens.
        let mut depth = 0i32;
        let mut k = j;
        while k < tokens.len() {
            match tokens[k].kind {
                TokKind::Punct('(') => depth += 1,
                TokKind::Punct(')') => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            k += 1;
        }
        params_end = k;
        // Receiver: `&self`, `&'a self`, `&mut self`, `self`, `mut self`.
        let mut r = j + 1;
        let mut saw_amp = false;
        let mut saw_mut = false;
        while r < tokens.len() && r <= j + 4 {
            match &tokens[r].kind {
                TokKind::Punct('&') => saw_amp = true,
                TokKind::Lifetime => {}
                TokKind::Ident if tokens[r].text == "mut" => saw_mut = true,
                TokKind::Ident if tokens[r].text == "self" => {
                    takes_self = true;
                    takes_mut_self = saw_amp && saw_mut;
                    break;
                }
                _ => break,
            }
            r += 1;
        }
    }
    // Find the body opener (skip return type / where clause).
    let mut b = params_end;
    let mut body = 0..0;
    while b < tokens.len() {
        match tokens[b].kind {
            TokKind::Punct('{') => {
                body = (b + 1)..closes[b].min(tokens.len());
                break;
            }
            TokKind::Punct(';') => break,
            _ => {}
        }
        b += 1;
    }
    let owner = impls.last().map(|(n, _)| n.clone());
    FnItem {
        file: file.to_string(),
        line: tokens[fn_ix].line,
        name: name.to_string(),
        owner,
        is_pub: is_pub_at(tokens, fn_ix),
        takes_self,
        takes_mut_self,
        body,
        in_test: mask.get(fn_ix).copied().unwrap_or(false),
    }
}

/// Extracts call sites from a token range. Macro invocations (`name!(…)`)
/// are not calls; keywords followed by parens are excluded.
pub fn call_sites(tokens: &[Tok], range: Range<usize>) -> Vec<CallSite> {
    let mut out = Vec::new();
    for i in range.clone() {
        let Some(name) = ident_text(tokens, i) else {
            continue;
        };
        if !is_punct(tokens, i + 1, '(') || NON_CALL_KEYWORDS.contains(&name) {
            continue;
        }
        // Argument extent.
        let mut depth = 0i32;
        let mut k = i + 1;
        let mut args_end = range.end;
        while k < range.end {
            match tokens[k].kind {
                TokKind::Punct('(') => depth += 1,
                TokKind::Punct(')') => {
                    depth -= 1;
                    if depth == 0 {
                        args_end = k;
                        break;
                    }
                }
                _ => {}
            }
            k += 1;
        }
        let args = (i + 2)..args_end;
        let callee = if i > 0 && is_punct(tokens, i - 1, '.') {
            let recv = if i >= 2 {
                ident_text(tokens, i - 2).map(str::to_string)
            } else {
                None
            };
            Callee::Method {
                name: name.to_string(),
                recv,
            }
        } else if i >= 2 && is_punct(tokens, i - 1, ':') && is_punct(tokens, i - 2, ':') {
            // Walk the `a::b::name` path backwards.
            let mut path = Vec::new();
            let mut p = i;
            while p >= 2 && is_punct(tokens, p - 1, ':') && is_punct(tokens, p - 2, ':') {
                if let Some(seg) = ident_text(tokens, p.wrapping_sub(3)) {
                    path.push(seg.to_string());
                    p -= 3;
                } else {
                    break;
                }
            }
            path.reverse();
            Callee::Free {
                path,
                name: name.to_string(),
            }
        } else {
            Callee::Free {
                path: Vec::new(),
                name: name.to_string(),
            }
        };
        out.push(CallSite {
            callee,
            tok: i,
            line: tokens[i].line,
            args,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::rules::test_region_mask;

    fn items(src: &str) -> Vec<FnItem> {
        let lexed = lex(src);
        let mask = test_region_mask(&lexed.tokens);
        parse_items("t.rs", &lexed.tokens, &mask)
    }

    #[test]
    fn free_and_method_items() {
        let src = "pub fn free() {}\n\
                   struct S;\n\
                   impl S {\n\
                       pub fn m(&mut self, x: u32) -> u32 { x }\n\
                       fn private(&self) {}\n\
                       pub(crate) fn scoped(&mut self) {}\n\
                   }\n\
                   impl std::fmt::Display for S {\n\
                       fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result { Ok(()) }\n\
                   }\n";
        let its = items(src);
        let by_name: Vec<(&str, Option<&str>, bool, bool)> = its
            .iter()
            .map(|i| {
                (
                    i.name.as_str(),
                    i.owner.as_deref(),
                    i.is_pub,
                    i.takes_mut_self,
                )
            })
            .collect();
        assert_eq!(
            by_name,
            vec![
                ("free", None, true, false),
                ("m", Some("S"), true, true),
                ("private", Some("S"), false, false),
                ("scoped", Some("S"), false, true),
                ("fmt", Some("S"), false, false),
            ]
        );
    }

    #[test]
    fn receivers_of_every_shape_are_methods() {
        let src = "impl S {\n\
                       fn a(&self) {}\n\
                       fn b(self: Arc<Self>) {}\n\
                       fn c(mut self) {}\n\
                       fn load(path: &Path) -> S { todo!() }\n\
                   }";
        let takes_self: Vec<bool> = items(src).iter().map(|i| i.takes_self).collect();
        assert_eq!(takes_self, vec![true, true, true, false]);
    }

    #[test]
    fn impl_for_records_the_type_not_the_trait() {
        let its = items("impl Clone for Widget { fn clone(&self) -> Widget { todo!() } }");
        assert_eq!(its[0].owner.as_deref(), Some("Widget"));
    }

    #[test]
    fn generic_impl_and_where_clause() {
        let src = "impl<T: Ord> Store<T> where T: Clone {\n\
                       pub fn push(&mut self, t: T) {}\n\
                   }";
        let its = items(src);
        assert_eq!(its[0].owner.as_deref(), Some("Store"));
        assert!(its[0].takes_mut_self);
    }

    #[test]
    fn bodies_and_test_regions() {
        let src = "fn a() { inner(); }\n\
                   #[cfg(test)]\nmod tests {\n    fn t() {}\n}";
        let its = items(src);
        assert!(!its[0].in_test);
        assert!(its[1].in_test);
        assert!(!its[0].body.is_empty());
    }

    #[test]
    fn call_site_shapes() {
        let src = "fn f() { g(); a::b::h(1); self.db.execute(q); x.lock(); chain().next(); }";
        let lexed = lex(src);
        let mask = test_region_mask(&lexed.tokens);
        let its = parse_items("t.rs", &lexed.tokens, &mask);
        let calls = call_sites(&lexed.tokens, its[0].body.clone());
        let shapes: Vec<String> = calls
            .iter()
            .map(|c| match &c.callee {
                Callee::Free { path, name } => format!("free:{}:{name}", path.join("::")),
                Callee::Method { name, recv } => {
                    format!("method:{}:{name}", recv.as_deref().unwrap_or("?"))
                }
            })
            .collect();
        assert_eq!(
            shapes,
            vec![
                "free::g",
                "free:a::b:h",
                "method:db:execute",
                "method:x:lock",
                "free::chain",
                "method:?:next",
            ]
        );
    }

    #[test]
    fn nested_fn_inside_body_is_its_own_item() {
        let its = items("fn outer() { fn inner() {} inner(); }");
        let names: Vec<&str> = its.iter().map(|i| i.name.as_str()).collect();
        assert_eq!(names, vec!["outer", "inner"]);
    }

    #[test]
    fn fn_pointer_types_are_not_items() {
        let its = items("fn f(cb: fn(u32) -> u32) -> u32 { cb(1) }");
        assert_eq!(its.len(), 1);
        assert_eq!(its[0].name, "f");
    }
}
