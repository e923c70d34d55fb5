//! A minimal Rust lexer: just enough token structure for line-accurate
//! static checks. No external crates are available in the build environment
//! (no `syn`, no `proc-macro2`), so this hand-rolls the subset of Rust's
//! lexical grammar the linter needs: comments (line, nested block, doc),
//! string/char/byte/raw-string literals, numeric literals with float
//! detection, identifiers (including raw `r#` idents), lifetimes, and
//! single-character punctuation.

/// Token classification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword.
    Ident,
    /// One punctuation character (multi-char operators appear as runs).
    Punct(char),
    /// Numeric literal; `float` is true for `1.0`, `1e3`, `2f64`, …
    Num {
        /// Whether the literal is a floating-point literal.
        float: bool,
    },
    /// String, char, or byte literal (contents not retained).
    Str,
    /// Outer doc comment (`///` or `/** */`).
    DocOuter,
    /// Inner doc comment (`//!` or `/*! */`).
    DocInner,
    /// Lifetime such as `'a` (label or lifetime position).
    Lifetime,
}

/// One lexed token with its 1-based source line.
#[derive(Debug, Clone)]
pub struct Tok {
    /// What kind of token this is.
    pub kind: TokKind,
    /// Source text for idents and numeric literals; empty for the rest.
    pub text: String,
    /// 1-based line number where the token starts.
    pub line: u32,
}

/// One rule name in an `// xlint: allow(…)` marker. It suppresses that
/// rule on the marker's line and the next (so a marker can sit above the
/// offending statement).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Allow {
    /// 1-based line of the marker comment.
    pub line: u32,
    /// The name as written, which may name no rule.
    pub rule: String,
}

/// Lexer output: the token stream plus the lint suppressions found in
/// ordinary comments (`// xlint: allow(rule-name)`).
#[derive(Debug, Default)]
pub struct Lexed {
    /// Tokens in source order.
    pub tokens: Vec<Tok>,
    /// Allow markers in source order, one per rule name.
    pub allows: Vec<Allow>,
}

/// Lexes `source`. Unterminated constructs end the token stream early
/// rather than erroring: the linter should degrade, not crash, on files
/// that `rustc` itself would reject.
pub fn lex(source: &str) -> Lexed {
    let mut out = Lexed::default();
    let chars: Vec<char> = source.chars().collect();
    let mut i = 0usize;
    let mut line: u32 = 1;

    macro_rules! bump_line {
        ($c:expr) => {
            if $c == '\n' {
                line += 1;
            }
        };
    }

    while i < chars.len() {
        let c = chars[i];
        // Whitespace.
        if c.is_whitespace() {
            bump_line!(c);
            i += 1;
            continue;
        }
        // Comments.
        if c == '/' && i + 1 < chars.len() {
            match chars[i + 1] {
                '/' => {
                    let start_line = line;
                    let is_inner = chars.get(i + 2) == Some(&'!');
                    // `////…` is an ordinary comment, `///x` is outer doc.
                    let is_outer = chars.get(i + 2) == Some(&'/') && chars.get(i + 3) != Some(&'/');
                    let mut text = String::new();
                    while i < chars.len() && chars[i] != '\n' {
                        text.push(chars[i]);
                        i += 1;
                    }
                    if is_inner {
                        out.tokens.push(tok(TokKind::DocInner, start_line));
                    } else if is_outer {
                        out.tokens.push(tok(TokKind::DocOuter, start_line));
                    } else {
                        record_allows(&mut out, start_line, &text);
                    }
                    continue;
                }
                '*' => {
                    let start_line = line;
                    let is_inner = chars.get(i + 2) == Some(&'!');
                    // `/** x */` is outer doc; `/**/` (empty) and `/***/`
                    // (three or more stars) are ordinary comments.
                    let is_outer = chars.get(i + 2) == Some(&'*')
                        && chars.get(i + 3) != Some(&'*')
                        && chars.get(i + 3) != Some(&'/');
                    i += 2;
                    let mut depth = 1;
                    while i < chars.len() && depth > 0 {
                        if chars[i] == '/' && chars.get(i + 1) == Some(&'*') {
                            depth += 1;
                            i += 2;
                        } else if chars[i] == '*' && chars.get(i + 1) == Some(&'/') {
                            depth -= 1;
                            i += 2;
                        } else {
                            bump_line!(chars[i]);
                            i += 1;
                        }
                    }
                    if is_inner {
                        out.tokens.push(tok(TokKind::DocInner, start_line));
                    } else if is_outer {
                        out.tokens.push(tok(TokKind::DocOuter, start_line));
                    }
                    continue;
                }
                _ => {}
            }
        }
        // Raw strings and byte strings: r"…", r#"…"#, br"…", b"…".
        if c == 'r' || c == 'b' {
            let mut j = i;
            let mut prefix_ok = false;
            if c == 'b' && chars.get(j + 1) == Some(&'r') {
                j += 2;
                prefix_ok = true;
            } else if c == 'r' {
                j += 1;
                prefix_ok = true;
            } else if c == 'b' && chars.get(j + 1) == Some(&'"') {
                // b"…" is an ordinary (escaped) byte string; skip past the
                // opening quote before scanning for the closing one.
                let start_line = line;
                i = j + 2;
                i = skip_quoted(&chars, i, &mut line);
                out.tokens.push(tok(TokKind::Str, start_line));
                continue;
            }
            if prefix_ok {
                let mut hashes = 0;
                while chars.get(j + hashes) == Some(&'#') {
                    hashes += 1;
                }
                if chars.get(j + hashes) == Some(&'"') {
                    let start_line = line;
                    i = j + hashes + 1;
                    // Scan to `"` followed by `hashes` hashes.
                    'raw: while i < chars.len() {
                        if chars[i] == '"' {
                            let mut k = 0;
                            while k < hashes && chars.get(i + 1 + k) == Some(&'#') {
                                k += 1;
                            }
                            if k == hashes {
                                i += 1 + hashes;
                                break 'raw;
                            }
                        }
                        bump_line!(chars[i]);
                        i += 1;
                    }
                    out.tokens.push(tok(TokKind::Str, start_line));
                    continue;
                }
            }
        }
        // Ordinary strings.
        if c == '"' {
            let start_line = line;
            i += 1;
            i = skip_quoted(&chars, i, &mut line);
            out.tokens.push(tok(TokKind::Str, start_line));
            continue;
        }
        // Char literal vs lifetime.
        if c == '\'' {
            let next = chars.get(i + 1).copied().unwrap_or(' ');
            let after = chars.get(i + 2).copied().unwrap_or(' ');
            if (next.is_alphanumeric() || next == '_') && after != '\'' {
                // Lifetime / loop label.
                i += 1;
                while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                    i += 1;
                }
                out.tokens.push(tok(TokKind::Lifetime, line));
                continue;
            }
            // Char literal: 'x', '\n', '\u{1F600}'.
            let start_line = line;
            i += 1;
            if chars.get(i) == Some(&'\\') {
                i += 2;
                // \u{…}
                while i < chars.len() && chars[i] != '\'' {
                    i += 1;
                }
            } else if i < chars.len() {
                bump_line!(chars[i]);
                i += 1;
            }
            if chars.get(i) == Some(&'\'') {
                i += 1;
            }
            out.tokens.push(tok(TokKind::Str, start_line));
            continue;
        }
        // Numbers.
        if c.is_ascii_digit() {
            let start_line = line;
            let start = i;
            let hex = c == '0' && matches!(chars.get(i + 1), Some('x' | 'X' | 'b' | 'o'));
            i += 1;
            if hex {
                i += 1;
                while i < chars.len() && (chars[i].is_ascii_alphanumeric() || chars[i] == '_') {
                    i += 1;
                }
            } else {
                let mut float = false;
                while i < chars.len() {
                    let d = chars[i];
                    if d.is_ascii_digit() || d == '_' {
                        i += 1;
                    } else if d == '.'
                        && chars
                            .get(i + 1)
                            .map(|n| n.is_ascii_digit())
                            .unwrap_or(false)
                    {
                        float = true;
                        i += 1;
                    } else if (d == 'e' || d == 'E')
                        && chars
                            .get(i + 1)
                            .map(|n| n.is_ascii_digit() || *n == '+' || *n == '-')
                            .unwrap_or(false)
                    {
                        float = true;
                        i += 2;
                    } else if d.is_ascii_alphabetic() {
                        // Suffix: f32/f64 mark floats, u8 etc. stay ints.
                        let suffix_start = i;
                        while i < chars.len()
                            && (chars[i].is_ascii_alphanumeric() || chars[i] == '_')
                        {
                            i += 1;
                        }
                        let suffix: String = chars[suffix_start..i].iter().collect();
                        if suffix == "f32" || suffix == "f64" {
                            float = true;
                        }
                        break;
                    } else {
                        break;
                    }
                }
                let text: String = chars[start..i].iter().collect();
                out.tokens.push(Tok {
                    kind: TokKind::Num { float },
                    text,
                    line: start_line,
                });
                continue;
            }
            let text: String = chars[start..i].iter().collect();
            out.tokens.push(Tok {
                kind: TokKind::Num { float: false },
                text,
                line: start_line,
            });
            continue;
        }
        // Identifiers (and raw idents).
        if c.is_alphabetic() || c == '_' {
            let start_line = line;
            let mut start = i;
            if c == 'r' && chars.get(i + 1) == Some(&'#') {
                // Raw ident r#type — strip the prefix.
                start = i + 2;
                i += 2;
            }
            while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                i += 1;
            }
            let text: String = chars[start..i].iter().collect();
            out.tokens.push(Tok {
                kind: TokKind::Ident,
                text,
                line: start_line,
            });
            continue;
        }
        // Everything else: one punct per character.
        out.tokens.push(Tok {
            kind: TokKind::Punct(c),
            text: String::new(),
            line,
        });
        i += 1;
    }
    out
}

fn tok(kind: TokKind, line: u32) -> Tok {
    Tok {
        kind,
        text: String::new(),
        line,
    }
}

/// Skips past the closing `"` of an escaped string starting just after the
/// opening quote; returns the new index.
fn skip_quoted(chars: &[char], mut i: usize, line: &mut u32) -> usize {
    while i < chars.len() {
        match chars[i] {
            '\\' => {
                // A line continuation (`\` before a newline) still advances
                // the source line, or every diagnostic after the string
                // points one line too early.
                if chars.get(i + 1) == Some(&'\n') {
                    *line += 1;
                }
                i += 2;
            }
            '"' => return i + 1,
            c => {
                if c == '\n' {
                    *line += 1;
                }
                i += 1;
            }
        }
    }
    i
}

fn record_allows(out: &mut Lexed, line: u32, comment: &str) {
    // A marker lists one or more rule names, separated by commas.
    let Some(pos) = comment.find("xlint: allow(") else {
        return;
    };
    let rest = &comment[pos + "xlint: allow(".len()..];
    let Some(end) = rest.find(')') else {
        return;
    };
    for rule in rest[..end].split(',') {
        let rule = rule.trim();
        if !rule.is_empty() {
            out.allows.push(Allow {
                line,
                rule: rule.to_string(),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .into_iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn strings_and_comments_hide_tokens() {
        let src = r##"
            // not.unwrap() here
            let s = "call .unwrap() inside";
            let r = r#"raw .unwrap()"#;
            /* block .unwrap() /* nested */ still comment */
            real_ident
        "##;
        let ids = idents(src);
        assert!(ids.contains(&"real_ident".to_string()));
        assert!(!ids.contains(&"unwrap".to_string()));
    }

    #[test]
    fn byte_strings_consume_their_whole_body() {
        // A `b"…"` literal must be one Str token: an early return at the
        // opening quote would spill the body into the token stream (and any
        // brace inside it would desync the cfg(test) region tracker).
        let src = r#"let a = b"GET / {oops} \r\n.unwrap()"; done"#;
        let ids = idents(src);
        assert!(!ids.contains(&"unwrap".to_string()));
        assert!(!ids.contains(&"oops".to_string()));
        assert!(ids.contains(&"done".to_string()));
        let toks = lex(src).tokens;
        assert!(!toks.iter().any(|t| t.kind == TokKind::Punct('{')));
    }

    #[test]
    fn float_literals_detected() {
        let toks = lex("let x = 1.5 + 2 + 3e4 + 5f64 + 6u32 + 0x1E;").tokens;
        let floats: Vec<&str> = toks
            .iter()
            .filter(|t| matches!(t.kind, TokKind::Num { float: true }))
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(floats, vec!["1.5", "3e4", "5f64"]);
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let toks = lex("fn f<'a>(x: &'a str) -> char { 'x' }").tokens;
        let lifetimes = toks.iter().filter(|t| t.kind == TokKind::Lifetime).count();
        let chars = toks.iter().filter(|t| t.kind == TokKind::Str).count();
        assert_eq!(lifetimes, 2);
        assert_eq!(chars, 1);
    }

    #[test]
    fn line_numbers_track_newlines() {
        let toks = lex("a\nb\n  c").tokens;
        let lines: Vec<u32> = toks.iter().map(|t| t.line).collect();
        assert_eq!(lines, vec![1, 2, 3]);
    }

    #[test]
    fn allow_markers_recorded() {
        let lexed = lex("x // xlint: allow(float-eq, lock-order)\ny");
        let names: Vec<(u32, &str)> = lexed
            .allows
            .iter()
            .map(|a| (a.line, a.rule.as_str()))
            .collect();
        assert_eq!(names, [(1, "float-eq"), (1, "lock-order")]);
    }

    #[test]
    fn doc_comments_classified() {
        let lexed = lex("//! inner\n/// outer\nfn f() {}");
        assert_eq!(lexed.tokens[0].kind, TokKind::DocInner);
        assert_eq!(lexed.tokens[1].kind, TokKind::DocOuter);
    }

    #[test]
    fn empty_and_star_only_block_comments_are_not_doc() {
        // `/**/` and `/***/` are ordinary comments in Rust; only `/** x */`
        // opens an outer block doc. Misclassifying the empty form used to
        // make `/**/` count as documentation for the item below it.
        for src in ["/**/\npub fn f() {}", "/***/\npub fn f() {}"] {
            let toks = lex(src).tokens;
            assert!(
                !toks
                    .iter()
                    .any(|t| t.kind == TokKind::DocOuter || t.kind == TokKind::DocInner),
                "{src:?} produced a doc token"
            );
        }
        let toks = lex("/** real doc */\npub fn f() {}").tokens;
        assert_eq!(toks[0].kind, TokKind::DocOuter);
        let toks = lex("/*! crate doc */\npub fn f() {}").tokens;
        assert_eq!(toks[0].kind, TokKind::DocInner);
    }

    #[test]
    fn string_line_continuations_keep_line_numbers() {
        // `\` before a newline continues the string onto the next source
        // line; the newline is inside the literal but still a real line.
        let src = "let s = \"a\\\n   b\\\n   c\";\nmarker";
        let toks = lex(src).tokens;
        let marker = toks.iter().find(|t| t.text == "marker").unwrap();
        assert_eq!(marker.line, 4);
    }

    #[test]
    fn raw_strings_respect_hash_counts() {
        // With two hashes, an embedded `"#` must not terminate the literal.
        let src = "let s = r##\"has \"# inside\"##; after";
        let ids = idents(src);
        assert!(ids.contains(&"after".to_string()));
        assert!(!ids.contains(&"inside".to_string()));
        // Zero-hash raw string whose body is a lone `#`.
        let toks = lex("let s = r\"#\"; tail").tokens;
        assert!(toks.iter().any(|t| t.text == "tail"));
        assert_eq!(toks.iter().filter(|t| t.kind == TokKind::Str).count(), 1);
        // `r#ident` is a raw identifier, not the start of a raw string.
        let ids = idents("let r#type = r#match; done");
        assert!(ids.contains(&"done".to_string()));
    }

    #[test]
    fn multiline_raw_strings_and_block_comments_count_lines() {
        let src = "let s = r#\"one\ntwo\nthree\"#;\n/* a\nb */ marker";
        let toks = lex(src).tokens;
        let marker = toks.iter().find(|t| t.text == "marker").unwrap();
        assert_eq!(marker.line, 5);
    }

    #[test]
    fn tightly_nested_block_comments_close_correctly() {
        // `/*/**/*/` is a fully balanced two-deep comment; nothing inside
        // it (or of it) should leak into the token stream.
        let toks = lex("/*/**/*/ after").tokens;
        assert_eq!(toks.len(), 1);
        assert_eq!(toks[0].text, "after");
        // `/*/` opens one level without closing it: the rest is comment.
        let toks = lex("/*/ not_a_token */ visible").tokens;
        assert_eq!(toks.len(), 1);
        assert_eq!(toks[0].text, "visible");
    }
}
