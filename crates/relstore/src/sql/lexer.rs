//! SQL tokenizer.

use crate::error::{RelError, Result};

/// One SQL token.
#[derive(Debug, Clone, PartialEq)]
pub enum Token {
    /// Keyword or identifier (keywords are recognized by the parser,
    /// case-insensitively).
    Ident(String),
    /// Double-quoted identifier (exact case).
    QuotedIdent(String),
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// Single-quoted string literal.
    Str(String),
    /// Punctuation / operator.
    Symbol(Sym),
}

/// Punctuation and operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum Sym {
    LParen,
    RParen,
    Comma,
    Dot,
    Star,
    Plus,
    Minus,
    Slash,
    Percent,
    Eq,
    Neq,
    Lt,
    Le,
    Gt,
    Ge,
    Semicolon,
    /// String concatenation `||`.
    Concat,
}

/// Tokenizes a SQL string.
pub fn lex(input: &str) -> Result<Vec<Token>> {
    let mut tokens = Vec::new();
    let bytes = input.as_bytes();
    let mut i = 0usize;
    // Every branch consumes whole characters, so `i` stays on a character
    // boundary and each step decodes the character that really starts there.
    while let Some(c) = input[i..].chars().next() {
        let at = i;
        match c {
            c if c.is_whitespace() => i += c.len_utf8(),
            '-' if bytes.get(i + 1) == Some(&b'-') => {
                // line comment
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            '(' => {
                tokens.push(Token::Symbol(Sym::LParen));
                i += 1;
            }
            ')' => {
                tokens.push(Token::Symbol(Sym::RParen));
                i += 1;
            }
            ',' => {
                tokens.push(Token::Symbol(Sym::Comma));
                i += 1;
            }
            '.' => {
                tokens.push(Token::Symbol(Sym::Dot));
                i += 1;
            }
            '*' => {
                tokens.push(Token::Symbol(Sym::Star));
                i += 1;
            }
            '+' => {
                tokens.push(Token::Symbol(Sym::Plus));
                i += 1;
            }
            '-' => {
                tokens.push(Token::Symbol(Sym::Minus));
                i += 1;
            }
            '/' => {
                tokens.push(Token::Symbol(Sym::Slash));
                i += 1;
            }
            '%' => {
                tokens.push(Token::Symbol(Sym::Percent));
                i += 1;
            }
            ';' => {
                tokens.push(Token::Symbol(Sym::Semicolon));
                i += 1;
            }
            '|' if bytes.get(i + 1) == Some(&b'|') => {
                tokens.push(Token::Symbol(Sym::Concat));
                i += 2;
            }
            '=' => {
                tokens.push(Token::Symbol(Sym::Eq));
                i += 1;
            }
            '!' if bytes.get(i + 1) == Some(&b'=') => {
                tokens.push(Token::Symbol(Sym::Neq));
                i += 2;
            }
            '<' => match bytes.get(i + 1) {
                Some(b'=') => {
                    tokens.push(Token::Symbol(Sym::Le));
                    i += 2;
                }
                Some(b'>') => {
                    tokens.push(Token::Symbol(Sym::Neq));
                    i += 2;
                }
                _ => {
                    tokens.push(Token::Symbol(Sym::Lt));
                    i += 1;
                }
            },
            '>' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    tokens.push(Token::Symbol(Sym::Ge));
                    i += 2;
                } else {
                    tokens.push(Token::Symbol(Sym::Gt));
                    i += 1;
                }
            }
            '\'' => {
                let (s, next) = lex_string(input, i)?;
                tokens.push(Token::Str(s));
                i = next;
            }
            '"' => {
                let (s, next) = lex_quoted_ident(input, i)?;
                tokens.push(Token::QuotedIdent(s));
                i = next;
            }
            c if c.is_ascii_digit() => {
                let (tok, next) = lex_number(input, i)?;
                tokens.push(tok);
                i = next;
            }
            c if c.is_alphabetic() || c == '_' => {
                while let Some(ch) = input[i..].chars().next() {
                    if ch.is_alphanumeric() || ch == '_' {
                        i += ch.len_utf8();
                    } else {
                        break;
                    }
                }
                tokens.push(Token::Ident(input[at..i].to_owned()));
            }
            other => {
                return Err(RelError::Lex(format!(
                    "unexpected character `{other}` at byte {i}"
                )));
            }
        }
        debug_assert!(i > at, "lexer made no progress at byte {at}");
    }
    Ok(tokens)
}

fn lex_string(input: &str, start: usize) -> Result<(String, usize)> {
    let bytes = input.as_bytes();
    let mut i = start + 1;
    let mut out = String::new();
    while i < bytes.len() {
        if bytes[i] == b'\'' {
            if bytes.get(i + 1) == Some(&b'\'') {
                out.push('\'');
                i += 2;
            } else {
                return Ok((out, i + 1));
            }
        } else if let Some(ch) = input[i..].chars().next() {
            out.push(ch);
            i += ch.len_utf8();
        } else {
            break; // i on a non-boundary byte cannot happen; bail to the error
        }
    }
    Err(RelError::Lex("unterminated string literal".into()))
}

fn lex_quoted_ident(input: &str, start: usize) -> Result<(String, usize)> {
    let bytes = input.as_bytes();
    let mut i = start + 1;
    let mut out = String::new();
    while i < bytes.len() {
        if bytes[i] == b'"' {
            return Ok((out, i + 1));
        }
        let Some(ch) = input[i..].chars().next() else {
            break; // i on a non-boundary byte cannot happen; bail to the error
        };
        out.push(ch);
        i += ch.len_utf8();
    }
    Err(RelError::Lex("unterminated quoted identifier".into()))
}

fn lex_number(input: &str, start: usize) -> Result<(Token, usize)> {
    let bytes = input.as_bytes();
    let mut i = start;
    while i < bytes.len() && bytes[i].is_ascii_digit() {
        i += 1;
    }
    let mut is_float = false;
    if i < bytes.len() && bytes[i] == b'.' && bytes.get(i + 1).is_some_and(u8::is_ascii_digit) {
        is_float = true;
        i += 1;
        while i < bytes.len() && bytes[i].is_ascii_digit() {
            i += 1;
        }
    }
    if i < bytes.len() && (bytes[i] == b'e' || bytes[i] == b'E') {
        let mut j = i + 1;
        if j < bytes.len() && (bytes[j] == b'+' || bytes[j] == b'-') {
            j += 1;
        }
        if j < bytes.len() && bytes[j].is_ascii_digit() {
            is_float = true;
            i = j;
            while i < bytes.len() && bytes[i].is_ascii_digit() {
                i += 1;
            }
        }
    }
    let text = &input[start..i];
    let tok = if is_float {
        Token::Float(
            text.parse()
                .map_err(|_| RelError::Lex(format!("bad float literal `{text}`")))?,
        )
    } else {
        Token::Int(
            text.parse()
                .map_err(|_| RelError::Lex(format!("integer literal `{text}` out of range")))?,
        )
    };
    Ok((tok, i))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_select_tokens() {
        let toks = lex("SELECT a, b FROM t WHERE x >= 10;").unwrap();
        assert_eq!(toks[0], Token::Ident("SELECT".into()));
        assert!(toks.contains(&Token::Symbol(Sym::Ge)));
        assert!(toks.contains(&Token::Int(10)));
        assert_eq!(*toks.last().unwrap(), Token::Symbol(Sym::Semicolon));
    }

    #[test]
    fn string_escapes() {
        let toks = lex("'it''s fine'").unwrap();
        assert_eq!(toks, vec![Token::Str("it's fine".into())]);
    }

    #[test]
    fn numbers() {
        assert_eq!(lex("42").unwrap(), vec![Token::Int(42)]);
        assert_eq!(lex("3.25").unwrap(), vec![Token::Float(3.25)]);
        assert_eq!(lex("1e3").unwrap(), vec![Token::Float(1000.0)]);
        assert_eq!(lex("2.5e-1").unwrap(), vec![Token::Float(0.25)]);
    }

    #[test]
    fn comments_skipped() {
        let toks = lex("SELECT 1 -- trailing comment\n, 2").unwrap();
        assert_eq!(toks.len(), 4);
    }

    #[test]
    fn neq_spellings() {
        assert_eq!(lex("<>").unwrap(), vec![Token::Symbol(Sym::Neq)]);
        assert_eq!(lex("!=").unwrap(), vec![Token::Symbol(Sym::Neq)]);
    }

    #[test]
    fn unterminated_string_errors() {
        assert!(lex("'oops").is_err());
        assert!(lex("\"oops").is_err());
    }

    #[test]
    fn unicode_identifiers_and_strings() {
        let toks = lex("SELECT 'Zürich' FROM météo").unwrap();
        assert_eq!(toks[1], Token::Str("Zürich".into()));
        assert_eq!(toks[3], Token::Ident("météo".into()));
        // A non-ASCII letter can start an identifier.
        assert_eq!(lex("é").unwrap(), vec![Token::Ident("é".into())]);
    }

    #[test]
    fn quoted_identifiers() {
        let toks = lex("\"Weird Name\"").unwrap();
        assert_eq!(toks, vec![Token::QuotedIdent("Weird Name".into())]);
    }

    #[test]
    fn concat_operator() {
        assert_eq!(lex("||").unwrap(), vec![Token::Symbol(Sym::Concat)]);
    }

    #[test]
    fn rejects_garbage() {
        assert!(lex("SELECT #").is_err());
    }

    /// Non-ASCII characters that are neither letters, digits nor whitespace:
    /// each is a lex error outside a literal and plain text inside one.
    const NON_ALPHANUMERIC: [&str; 5] = ["°", "’", "€", "×", "·"];

    #[test]
    fn non_alphanumeric_characters_are_lex_errors() {
        for c in NON_ALPHANUMERIC {
            for sql in [
                format!("SELECT {c}"),
                c.to_string(),
                format!("SELECT a{c} FROM t"),
            ] {
                assert!(
                    matches!(lex(&sql), Err(RelError::Lex(_))),
                    "{sql:?} lexed as {:?}",
                    lex(&sql)
                );
            }
        }
    }

    #[test]
    fn non_alphanumeric_characters_inside_literals_are_text() {
        for c in NON_ALPHANUMERIC.into_iter().chain(["é"]) {
            assert_eq!(
                lex(&format!("SELECT '{c}'")).unwrap(),
                vec![Token::Ident("SELECT".into()), Token::Str(c.into())]
            );
        }
    }
}
