//! Runtime values and their static types.
//!
//! The engine supports a deliberately small but complete scalar type system:
//! 64-bit integers, 64-bit floats, UTF-8 text, booleans, and NULL. Values are
//! totally ordered (NULL sorts first, cross-type comparisons order by type
//! rank) so they can serve as B-tree keys without panicking on heterogeneous
//! data — the same decision SQLite takes.

use std::borrow::Cow;
use std::cmp::Ordering;
use std::fmt;

/// Static type of a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// 64-bit signed integer.
    Integer,
    /// 64-bit IEEE-754 float.
    Float,
    /// UTF-8 string.
    Text,
    /// Boolean.
    Boolean,
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DataType::Integer => "INTEGER",
            DataType::Float => "FLOAT",
            DataType::Text => "TEXT",
            DataType::Boolean => "BOOLEAN",
        };
        f.write_str(s)
    }
}

/// A dynamically-typed runtime value.
#[derive(Debug, Clone, Default)]
pub enum Value {
    /// SQL NULL.
    #[default]
    Null,
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float. NaN is normalized away at construction via [`Value::float`].
    Float(f64),
    /// UTF-8 string.
    Text(String),
    /// Boolean.
    Bool(bool),
}

impl Value {
    /// Builds a float value, mapping NaN to NULL so that `Value` stays totally
    /// ordered.
    pub fn float(v: f64) -> Value {
        if v.is_nan() {
            Value::Null
        } else {
            Value::Float(v)
        }
    }

    /// Builds a text value from anything stringy.
    pub fn text(v: impl Into<String>) -> Value {
        Value::Text(v.into())
    }

    /// True iff this is SQL NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Returns the value's dynamic type, or `None` for NULL (which inhabits
    /// every type).
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Int(_) => Some(DataType::Integer),
            Value::Float(_) => Some(DataType::Float),
            Value::Text(_) => Some(DataType::Text),
            Value::Bool(_) => Some(DataType::Boolean),
        }
    }

    /// Checks whether the value may be stored in a column of type `ty`.
    /// NULL is compatible with every type; integers coerce into float columns.
    pub fn compatible_with(&self, ty: DataType) -> bool {
        matches!(
            (self, ty),
            (Value::Null, _)
                | (Value::Int(_), DataType::Integer | DataType::Float)
                | (Value::Float(_), DataType::Float)
                | (Value::Text(_), DataType::Text)
                | (Value::Bool(_), DataType::Boolean)
        )
    }

    /// Coerces the value for storage in a column of type `ty`
    /// (integer → float promotion only; everything else is identity).
    pub fn coerce(self, ty: DataType) -> Value {
        match (self, ty) {
            (Value::Int(i), DataType::Float) => Value::Float(i as f64),
            (v, _) => v,
        }
    }

    /// Extracts an integer if the value is one.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Extracts a float, promoting integers.
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Float(v) => Some(*v),
            Value::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// The value as text: borrowed for TEXT, its `Display` rendering for
    /// anything else.
    pub fn to_text(&self) -> Cow<'_, str> {
        match self {
            Value::Text(s) => Cow::Borrowed(s),
            other => Cow::Owned(other.to_string()),
        }
    }

    /// Consumes the value into text: the string itself for TEXT (no copy),
    /// its `Display` rendering for anything else.
    pub fn into_text(self) -> String {
        match self {
            Value::Text(s) => s,
            other => other.to_string(),
        }
    }

    /// Extracts a boolean if the value is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Rank used to order values of different types (NULL < Bool < numeric <
    /// Text).
    fn type_rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int(_) | Value::Float(_) => 2,
            Value::Text(_) => 3,
        }
    }

    /// SQL three-valued equality: NULL = anything → None.
    pub fn sql_eq(&self, other: &Value) -> Option<bool> {
        if self.is_null() || other.is_null() {
            None
        } else {
            Some(self.cmp(other) == Ordering::Equal)
        }
    }

    /// SQL three-valued comparison: NULL compared to anything → None.
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        if self.is_null() || other.is_null() {
            None
        } else {
            Some(self.cmp(other))
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Bool(a), Bool(b)) => a.cmp(b),
            (Int(a), Int(b)) => a.cmp(b),
            (Float(a), Float(b)) => a.partial_cmp(b).unwrap_or(Ordering::Equal),
            (Int(a), Float(b)) => (*a as f64).partial_cmp(b).unwrap_or(Ordering::Equal),
            (Float(a), Int(b)) => a.partial_cmp(&(*b as f64)).unwrap_or(Ordering::Equal),
            (Text(a), Text(b)) => a.cmp(b),
            _ => self.type_rank().cmp(&other.type_rank()),
        }
    }
}

impl std::hash::Hash for Value {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => 0u8.hash(state),
            Value::Bool(b) => {
                1u8.hash(state);
                b.hash(state);
            }
            // Int and Float hash through the float bit pattern of the numeric
            // value so that Int(2) and Float(2.0), which compare equal, hash
            // identically; `-0.0` hashes as `0.0`, which it equals.
            Value::Int(i) => {
                2u8.hash(state);
                (*i as f64).to_bits().hash(state);
            }
            Value::Float(v) => {
                2u8.hash(state);
                (v + 0.0).to_bits().hash(state);
            }
            Value::Text(s) => {
                3u8.hash(state);
                s.hash(state);
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("NULL"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(v) => write!(f, "{v}"),
            Value::Text(s) => write!(f, "{s}"),
            Value::Bool(b) => write!(f, "{}", if *b { "TRUE" } else { "FALSE" }),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::float(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Text(v.to_owned())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Text(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_sorts_first() {
        let mut vals = [Value::Int(1), Value::Null, Value::Text("a".into())];
        vals.sort();
        assert!(vals[0].is_null());
    }

    #[test]
    fn cross_type_numeric_comparison() {
        assert_eq!(Value::Int(2), Value::Float(2.0));
        assert!(Value::Int(2) < Value::Float(2.5));
        assert!(Value::Float(1.5) < Value::Int(2));
    }

    #[test]
    fn nan_normalizes_to_null() {
        assert!(Value::float(f64::NAN).is_null());
    }

    #[test]
    fn sql_three_valued_logic() {
        assert_eq!(Value::Null.sql_eq(&Value::Int(1)), None);
        assert_eq!(Value::Int(1).sql_eq(&Value::Int(1)), Some(true));
        assert_eq!(Value::Int(1).sql_cmp(&Value::Int(2)), Some(Ordering::Less));
    }

    #[test]
    fn int_float_hash_consistency() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let h = |v: &Value| {
            let mut s = DefaultHasher::new();
            v.hash(&mut s);
            s.finish()
        };
        assert_eq!(h(&Value::Int(7)), h(&Value::Float(7.0)));
        // Every zero equals every other, so they must hash alike.
        assert_eq!(h(&Value::Float(-0.0)), h(&Value::Float(0.0)));
        assert_eq!(h(&Value::Float(-0.0)), h(&Value::Int(0)));
    }

    #[test]
    fn coercion_int_to_float_column() {
        assert!(Value::Int(3).compatible_with(DataType::Float));
        assert_eq!(Value::Int(3).coerce(DataType::Float), Value::Float(3.0));
        assert!(!Value::Text("x".into()).compatible_with(DataType::Integer));
    }

    #[test]
    fn text_views_match_display() {
        for v in [
            Value::Null,
            Value::Int(-4),
            Value::Float(2.5),
            Value::Bool(true),
        ] {
            assert_eq!(v.to_text(), v.to_string());
            assert_eq!(v.clone().into_text(), v.to_string());
        }
        let t = Value::text("hé");
        assert!(matches!(t.to_text(), Cow::Borrowed("hé")));
        assert_eq!(t.into_text(), "hé");
    }

    #[test]
    fn display_round_trips_visually() {
        assert_eq!(Value::Bool(true).to_string(), "TRUE");
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::text("hi").to_string(), "hi");
    }
}
