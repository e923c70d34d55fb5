//! Offline stand-in for `serde_json`: a recursive-descent JSON parser and
//! compact printer over the `serde` shim's [`Value`] tree, plus
//! [`to_string`] (which streams through `Serialize::write_json`),
//! [`from_str`] and a [`json!`] macro.
//!
//! Shim limits: numbers are `i64` when integral else `f64`; `json!` object
//! values may be arbitrary expressions or `[...]` array literals, but not
//! nested `{...}` object literals (wrap those in an inner `json!` call).

#![warn(missing_docs)]

pub use serde::Value;

#[doc(hidden)]
pub use serde as __serde;

use std::fmt;

/// JSON (de)serialization failure with position context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error(String);

impl Error {
    fn new(msg: impl Into<String>) -> Error {
        Error(msg.into())
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

impl From<serde::DeError> for Error {
    fn from(e: serde::DeError) -> Error {
        Error(e.to_string())
    }
}

/// Serializes `value` to a compact JSON string, written straight into the
/// string by [`serde::Serialize::write_json`] (no [`Value`] tree is built
/// for derived and primitive types).
pub fn to_string<T: serde::Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    value.write_json(&mut out);
    Ok(out)
}

/// Deserializes a `T` from a JSON string.
pub fn from_str<T: serde::Deserialize>(s: &str) -> Result<T, Error> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.parse_value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error::new(format!("trailing characters at byte {}", p.pos)));
    }
    Ok(T::from_value(&v)?)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), Error> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::new(format!(
                "expected `{}` at byte {}",
                byte as char, self.pos
            )))
        }
    }

    fn eat_keyword(&mut self, kw: &str, value: Value) -> Result<Value, Error> {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            Ok(value)
        } else {
            Err(Error::new(format!("invalid literal at byte {}", self.pos)))
        }
    }

    fn parse_value(&mut self) -> Result<Value, Error> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') => self.eat_keyword("null", Value::Null),
            Some(b't') => self.eat_keyword("true", Value::Bool(true)),
            Some(b'f') => self.eat_keyword("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::String(self.parse_string()?)),
            Some(b'[') => self.parse_array(),
            Some(b'{') => self.parse_object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.parse_number(),
            Some(c) => Err(Error::new(format!(
                "unexpected character `{}` at byte {}",
                c as char, self.pos
            ))),
            None => Err(Error::new("unexpected end of input")),
        }
    }

    fn parse_string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: run of plain bytes.
            while let Some(c) = self.peek() {
                if c == b'"' || c == b'\\' {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| Error::new("invalid UTF-8 in string"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self
                        .peek()
                        .ok_or_else(|| Error::new("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| Error::new("truncated \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| Error::new("invalid \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs are rare in this workspace's
                            // data; unpaired surrogates degrade to U+FFFD.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        other => {
                            return Err(Error::new(format!("invalid escape `\\{}`", other as char)))
                        }
                    }
                }
                _ => return Err(Error::new("unterminated string")),
            }
        }
    }

    fn parse_number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error::new("invalid number"))?;
        if !is_float {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Value::Int(i));
            }
        }
        text.parse::<f64>()
            .map(Value::Float)
            .map_err(|_| Error::new(format!("invalid number `{text}`")))
    }

    fn parse_array(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => {
                    return Err(Error::new(format!(
                        "expected `,` or `]` at byte {}",
                        self.pos
                    )))
                }
            }
        }
    }

    fn parse_object(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(entries));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.parse_value()?;
            entries.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(entries));
                }
                _ => {
                    return Err(Error::new(format!(
                        "expected `,` or `}}` at byte {}",
                        self.pos
                    )))
                }
            }
        }
    }
}

/// Builds a [`Value`] from JSON-ish syntax. Object values may be expressions
/// or `[...]` literals; nest objects via inner `json!` calls.
#[macro_export]
macro_rules! json {
    (null) => { $crate::Value::Null };
    ([ $($elem:expr),* $(,)? ]) => {
        $crate::Value::Array(vec![ $( $crate::__serde::Serialize::to_value(&$elem) ),* ])
    };
    ({ $($key:literal : $val:expr),* $(,)? }) => {
        $crate::Value::Object(vec![ $( (($key).to_string(), $crate::__serde::Serialize::to_value(&$val)) ),* ])
    };
    ($other:expr) => { $crate::__serde::Serialize::to_value(&$other) };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_roundtrip() {
        let src = r#"{"a": [1, 2.5, "x\n", true, null], "b": {"c": -7}}"#;
        let v: Value = from_str(src).unwrap();
        assert_eq!(v["a"][0], 1);
        assert_eq!(v["a"][1], 2.5);
        assert_eq!(v["a"][2], "x\n");
        assert_eq!(v["a"][3], true);
        assert!(v["a"][4].is_null());
        assert_eq!(v["b"]["c"], -7);
        let reparsed: Value = from_str(&v.to_string()).unwrap();
        assert_eq!(v, reparsed);
    }

    #[test]
    fn errors_are_reported() {
        assert!(from_str::<Value>("{\"a\": ").is_err());
        assert!(from_str::<Value>("[1,]").is_err());
        assert!(from_str::<Value>("tru").is_err());
        assert!(from_str::<Value>("{} junk").is_err());
    }

    #[test]
    fn json_macro_shapes() {
        let rows: Vec<Vec<String>> = vec![vec!["a".into()]];
        let v = json!({"rows": rows, "tags": ["wind"], "n": 3, "ok": true});
        assert_eq!(v["rows"][0][0], "a");
        assert_eq!(v["tags"][0], "wind");
        assert_eq!(v["n"], 3);
        assert_eq!(
            v.to_string(),
            r#"{"rows":[["a"]],"tags":["wind"],"n":3,"ok":true}"#
        );
    }

    #[test]
    fn string_escaping() {
        let v = Value::String("he said \"hi\"\t\\".into());
        let back: Value = from_str(&v.to_string()).unwrap();
        assert_eq!(v, back);
    }
}
