//! Offline stand-in for `serde`.
//!
//! The real serde is a zero-copy, format-agnostic framework; this shim is
//! JSON-only, with two ways out of a value. [`Serialize::write_json`]
//! streams a value as compact JSON straight into one `String` (what
//! `serde_json::to_string` calls, so a response is written without building
//! a tree first), and [`Serialize::to_value`] renders it to a JSON-like
//! [`Value`] tree, which [`Deserialize`] rebuilds values from and `json!`
//! builds. Both give the same text: `write_json` appends exactly what
//! `to_value().to_string()` prints. That is the surface this workspace uses
//! (derived struct/enum (de)serialization through `serde_json`). The derive
//! macros come from the sibling `serde_derive` shim, generate both methods,
//! and support `#[serde(default)]`, `#[serde(default = "path")]` and
//! `#[serde(rename_all = "snake_case")]`.

#![warn(missing_docs)]

pub use serde_derive::{Deserialize, Serialize};

use std::collections::BTreeMap;
use std::fmt;

/// A JSON-like value tree (re-exported by the `serde_json` shim).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// JSON boolean.
    Bool(bool),
    /// Integer number (kept exact, separate from floats).
    Int(i64),
    /// Floating-point number.
    Float(f64),
    /// JSON string.
    String(String),
    /// JSON array.
    Array(Vec<Value>),
    /// JSON object; insertion-ordered key/value pairs.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// The array items, when this is an array.
    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// The string slice, when this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// Numeric view of ints and floats.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Signed-integer view.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Unsigned-integer view.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Int(i) if *i >= 0 => Some(*i as u64),
            _ => None,
        }
    }

    /// Boolean view.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The object entries, when this is an object.
    pub fn as_object(&self) -> Option<&Vec<(String, Value)>> {
        match self {
            Value::Object(o) => Some(o),
            _ => None,
        }
    }

    /// Object member lookup by key (`None` for non-objects/missing keys).
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object()
            .and_then(|o| o.iter().find(|(k, _)| k == key).map(|(_, v)| v))
    }

    /// True when this is `Value::Null` (including indexing misses).
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }
}

/// Writes `s` as a JSON string literal. Only ASCII bytes are ever escaped
/// (every byte of a multi-byte UTF-8 character is >= 0x80), so the text
/// between escapes goes out as whole `&str` runs, one `write_str` each.
/// Writing into a `String` never fails.
pub fn write_json_string(f: &mut impl fmt::Write, s: &str) -> fmt::Result {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    f.write_str("\"")?;
    let mut run = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        let unicode;
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => {
                unicode = [
                    b'\\',
                    b'u',
                    b'0',
                    b'0',
                    HEX[usize::from(b >> 4)],
                    HEX[usize::from(b & 0xf)],
                ];
                std::str::from_utf8(&unicode).map_err(|_| fmt::Error)?
            }
            _ => continue,
        };
        f.write_str(&s[run..i])?;
        f.write_str(escape)?;
        run = i + 1;
    }
    f.write_str(&s[run..])?;
    f.write_str("\"")
}

/// The character-at-a-time escaper [`write_json_string`] replaced, kept as
/// the reference its output must equal byte for byte.
#[cfg(test)]
fn write_json_string_reference(f: &mut impl fmt::Write, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

/// Writes a float as [`Value::Float`] prints: `{:.1}` when integral and
/// below 1e15 in magnitude, shortest round-trip otherwise, and `null` when
/// not finite (JSON has no NaN/Inf; real serde_json refuses them at the
/// serializer layer, the shim degrades to null).
fn write_json_float(f: &mut impl fmt::Write, x: f64) -> fmt::Result {
    if !x.is_finite() {
        f.write_str("null")
    } else if x.fract() == 0.0 && x.abs() < 1e15 {
        write!(f, "{x:.1}")
    } else {
        write!(f, "{x}")
    }
}

impl fmt::Display for Value {
    /// Renders compact JSON (the `serde_json::Value::to_string` contract).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("null"),
            Value::Bool(b) => f.write_str(if *b { "true" } else { "false" }),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write_json_float(f, *x),
            Value::String(s) => write_json_string(f, s),
            Value::Array(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    fmt::Display::fmt(item, f)?;
                }
                f.write_str("]")
            }
            Value::Object(entries) => {
                f.write_str("{")?;
                for (i, (k, v)) in entries.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_json_string(f, k)?;
                    f.write_str(":")?;
                    fmt::Display::fmt(v, f)?;
                }
                f.write_str("}")
            }
        }
    }
}

const NULL: Value = Value::Null;

impl std::ops::Index<&str> for Value {
    type Output = Value;
    fn index(&self, key: &str) -> &Value {
        self.get(key).unwrap_or(&NULL)
    }
}

impl std::ops::Index<usize> for Value {
    type Output = Value;
    fn index(&self, ix: usize) -> &Value {
        self.as_array().and_then(|a| a.get(ix)).unwrap_or(&NULL)
    }
}

impl PartialEq<&str> for Value {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == Some(*other)
    }
}

impl PartialEq<str> for Value {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == Some(other)
    }
}

impl PartialEq<String> for Value {
    fn eq(&self, other: &String) -> bool {
        self.as_str() == Some(other.as_str())
    }
}

impl PartialEq<bool> for Value {
    fn eq(&self, other: &bool) -> bool {
        self.as_bool() == Some(*other)
    }
}

macro_rules! impl_value_eq_int {
    ($($t:ty),*) => {$(
        impl PartialEq<$t> for Value {
            fn eq(&self, other: &$t) -> bool {
                match self {
                    Value::Int(i) => *i == *other as i64,
                    Value::Float(f) => *f == *other as f64,
                    _ => false,
                }
            }
        }
    )*};
}

impl_value_eq_int!(i8, i16, i32, i64, u8, u16, u32, usize);

impl PartialEq<f64> for Value {
    fn eq(&self, other: &f64) -> bool {
        self.as_f64() == Some(*other)
    }
}

macro_rules! impl_value_from {
    ($($t:ty => $variant:ident ( $conv:expr )),* $(,)?) => {$(
        impl From<$t> for Value {
            fn from(v: $t) -> Value {
                #[allow(clippy::redundant_closure_call)]
                Value::$variant(($conv)(v))
            }
        }
    )*};
}

impl_value_from!(
    bool => Bool(|v| v),
    i8 => Int(|v| v as i64),
    i16 => Int(|v| v as i64),
    i32 => Int(|v| v as i64),
    i64 => Int(|v: i64| v),
    u8 => Int(|v| v as i64),
    u16 => Int(|v| v as i64),
    u32 => Int(|v| v as i64),
    u64 => Int(|v| v as i64),
    usize => Int(|v| v as i64),
    f32 => Float(|v| v as f64),
    f64 => Float(|v: f64| v),
    String => String(|v: String| v),
    &str => String(|v: &str| v.to_owned()),
    &String => String(|v: &String| v.clone()),
);

impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(v: Vec<T>) -> Value {
        Value::Array(v.into_iter().map(Into::into).collect())
    }
}

impl<T: Into<Value>, const N: usize> From<[T; N]> for Value {
    fn from(v: [T; N]) -> Value {
        Value::Array(v.into_iter().map(Into::into).collect())
    }
}

impl<T> From<Option<T>> for Value
where
    Value: From<T>,
{
    fn from(v: Option<T>) -> Value {
        match v {
            Some(v) => Value::from(v),
            None => Value::Null,
        }
    }
}

/// Deserialization failure, with a human-readable reason.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeError(String);

impl DeError {
    /// Creates an error from a message.
    pub fn new(msg: impl Into<String>) -> DeError {
        DeError(msg.into())
    }

    /// The standard "missing field" error.
    pub fn missing_field(name: &str) -> DeError {
        DeError(format!("missing field `{name}`"))
    }
}

impl fmt::Display for DeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for DeError {}

/// Types renderable to a [`Value`] and writable as JSON.
pub trait Serialize {
    /// Renders `self` as a value tree.
    fn to_value(&self) -> Value;

    /// Appends `self` as compact JSON to `out`: exactly the text
    /// `self.to_value().to_string()` prints. The default goes through that
    /// tree; derived impls and the shim's own impls write directly.
    fn write_json(&self, out: &mut String) {
        // Writing into a `String` never fails.
        let _ = fmt::Write::write_fmt(out, format_args!("{}", self.to_value()));
    }
}

/// Appends `items` as a JSON array.
fn write_json_seq<'a, T: Serialize + 'a>(out: &mut String, items: impl IntoIterator<Item = &'a T>) {
    out.push('[');
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        item.write_json(out);
    }
    out.push(']');
}

/// Types rebuildable from a [`Value`].
pub trait Deserialize: Sized {
    /// Rebuilds `Self` from a value tree.
    fn from_value(v: &Value) -> Result<Self, DeError>;
}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }

    fn write_json(&self, out: &mut String) {
        let _ = fmt::Write::write_fmt(out, format_args!("{self}"));
    }
}

impl Deserialize for Value {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Ok(v.clone())
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }

    fn write_json(&self, out: &mut String) {
        (**self).write_json(out);
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::String(self.to_owned())
    }

    fn write_json(&self, out: &mut String) {
        let _ = write_json_string(out, self);
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::String(self.clone())
    }

    fn write_json(&self, out: &mut String) {
        let _ = write_json_string(out, self);
    }
}

impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        v.as_str()
            .map(str::to_owned)
            .ok_or_else(|| DeError::new("expected string"))
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }

    fn write_json(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
}

impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        v.as_bool().ok_or_else(|| DeError::new("expected boolean"))
    }
}

macro_rules! impl_serde_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Int(*self as i64)
            }

            fn write_json(&self, out: &mut String) {
                let _ = fmt::Write::write_fmt(out, format_args!("{}", *self as i64));
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                match v {
                    Value::Int(i) => <$t>::try_from(*i)
                        .map_err(|_| DeError::new(concat!("integer out of range for ", stringify!($t)))),
                    _ => Err(DeError::new("expected integer")),
                }
            }
        }
    )*};
}

impl_serde_int!(i8, i16, i32, i64, isize, u8, u16, u32, u64, usize);

macro_rules! impl_serde_float {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Float(*self as f64)
            }

            fn write_json(&self, out: &mut String) {
                let _ = write_json_float(out, *self as f64);
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                v.as_f64()
                    .map(|f| f as $t)
                    .ok_or_else(|| DeError::new("expected number"))
            }
        }
    )*};
}

impl_serde_float!(f32, f64);

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(v) => v.to_value(),
            None => Value::Null,
        }
    }

    fn write_json(&self, out: &mut String) {
        match self {
            Some(v) => v.write_json(out),
            None => out.push_str("null"),
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }

    fn write_json(&self, out: &mut String) {
        write_json_seq(out, self);
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        v.as_array()
            .ok_or_else(|| DeError::new("expected array"))?
            .iter()
            .map(T::from_value)
            .collect()
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }

    fn write_json(&self, out: &mut String) {
        write_json_seq(out, self);
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_value(&self) -> Value {
        self.as_slice().to_value()
    }

    fn write_json(&self, out: &mut String) {
        write_json_seq(out, self);
    }
}

impl<V: Serialize> Serialize for BTreeMap<String, V> {
    fn to_value(&self) -> Value {
        Value::Object(
            self.iter()
                .map(|(k, v)| (k.clone(), v.to_value()))
                .collect(),
        )
    }

    fn write_json(&self, out: &mut String) {
        out.push('{');
        for (i, (k, v)) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write_json_string(out, k);
            out.push(':');
            v.write_json(out);
        }
        out.push('}');
    }
}

impl<V: Deserialize> Deserialize for BTreeMap<String, V> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        v.as_object()
            .ok_or_else(|| DeError::new("expected object"))?
            .iter()
            .map(|(k, v)| Ok((k.clone(), V::from_value(v)?)))
            .collect()
    }
}

macro_rules! impl_serde_tuple {
    ($( ($($name:ident : $ix:tt),+) ),+ $(,)?) => {$(
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn to_value(&self) -> Value {
                Value::Array(vec![$( self.$ix.to_value() ),+])
            }

            fn write_json(&self, out: &mut String) {
                write_json_seq(out, &[$( &self.$ix as &dyn Serialize ),+]);
            }
        }
        impl<$($name: Deserialize),+> Deserialize for ($($name,)+) {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                let arr = v.as_array().ok_or_else(|| DeError::new("expected array (tuple)"))?;
                let expected = [$( stringify!($ix) ),+].len();
                if arr.len() != expected {
                    return Err(DeError::new(format!(
                        "expected tuple of length {expected}, got {}",
                        arr.len()
                    )));
                }
                Ok(( $( $name::from_value(&arr[$ix])?, )+ ))
            }
        }
    )+};
}

impl_serde_tuple!(
    (A: 0),
    (A: 0, B: 1),
    (A: 0, B: 1, C: 2),
    (A: 0, B: 1, C: 2, D: 3),
);

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Characters drawn from everywhere the escaper branches: quotes,
    /// backslashes, every control character, DEL, ASCII, and non-ASCII up to
    /// four UTF-8 bytes.
    fn json_char() -> impl Strategy<Value = char> {
        prop_oneof![
            Just('"'),
            Just('\\'),
            Just('\u{7f}'),
            (0u32..0x20).prop_map(|c| char::from_u32(c).unwrap_or('?')),
            (0x20u32..0x7f).prop_map(|c| char::from_u32(c).unwrap_or('?')),
            (0x80u32..0x800).prop_map(|c| char::from_u32(c).unwrap_or('?')),
            (0x800u32..0x10000).prop_map(|c| char::from_u32(c).unwrap_or('?')),
            (0x10000u32..0x110000).prop_map(|c| char::from_u32(c).unwrap_or('?')),
        ]
    }

    proptest! {
        #[test]
        fn escaper_matches_the_reference(chars in prop::collection::vec(json_char(), 0..48)) {
            let s: String = chars.into_iter().collect();
            let (mut fast, mut reference) = (String::new(), String::new());
            write_json_string(&mut fast, &s).unwrap();
            write_json_string_reference(&mut reference, &s).unwrap();
            prop_assert_eq!(fast, reference);
        }
    }

    #[test]
    fn escaper_covers_every_control_character() {
        let s: String = (0u32..0x80).filter_map(char::from_u32).collect();
        let (mut fast, mut reference) = (String::new(), String::new());
        write_json_string(&mut fast, &s).unwrap();
        write_json_string_reference(&mut reference, &s).unwrap();
        assert_eq!(fast, reference);
    }

    #[test]
    fn primitive_roundtrips() {
        assert_eq!(u32::from_value(&42u32.to_value()), Ok(42));
        assert_eq!(String::from_value(&"hi".to_value()), Ok("hi".to_owned()));
        assert_eq!(Option::<i64>::from_value(&Value::Null), Ok(None::<i64>));
        let tup = (1i64, "x".to_owned());
        assert_eq!(<(i64, String)>::from_value(&tup.to_value()), Ok(tup));
        let v: Vec<(String, String)> = vec![("a".into(), "b".into())];
        assert_eq!(Vec::<(String, String)>::from_value(&v.to_value()), Ok(v));
    }

    #[test]
    fn value_index_and_eq() {
        let v = Value::Object(vec![(
            "items".into(),
            Value::Array(vec![Value::Object(vec![(
                "title".into(),
                Value::String("x".into()),
            )])]),
        )]);
        assert_eq!(v["items"][0]["title"], "x");
        assert_eq!(v["missing"], Value::Null);
        assert_eq!(Value::Int(3), 3);
        assert_eq!(Value::Float(3.0), 3);
    }

    #[test]
    fn out_of_range_int_errors() {
        assert!(u8::from_value(&Value::Int(300)).is_err());
        assert!(u32::from_value(&Value::Int(-1)).is_err());
    }
}
