//! Table schemas: columns, types, and constraints.

use crate::encoding::{next_byte, read_len, read_str, write_str, write_varint, FormatError};
use crate::error::{RelError, Result};
use crate::value::{DataType, Value};

/// A single column definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Column {
    /// Column name (case-preserving; lookups are case-insensitive).
    pub name: String,
    /// Declared type.
    pub ty: DataType,
    /// NOT NULL constraint.
    pub not_null: bool,
    /// UNIQUE constraint (enforced through an implicit index).
    pub unique: bool,
    /// PRIMARY KEY marker (implies NOT NULL + UNIQUE).
    pub primary_key: bool,
}

impl Column {
    /// Creates a plain nullable column.
    pub fn new(name: impl Into<String>, ty: DataType) -> Column {
        Column {
            name: name.into(),
            ty,
            not_null: false,
            unique: false,
            primary_key: false,
        }
    }

    /// Marks the column NOT NULL.
    pub fn not_null(mut self) -> Column {
        self.not_null = true;
        self
    }

    /// Marks the column UNIQUE.
    pub fn unique(mut self) -> Column {
        self.unique = true;
        self
    }

    /// Marks the column PRIMARY KEY (implies NOT NULL and UNIQUE).
    pub fn primary_key(mut self) -> Column {
        self.primary_key = true;
        self.not_null = true;
        self.unique = true;
        self
    }
}

/// Schema of one table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableSchema {
    /// Table name.
    pub name: String,
    /// Ordered column definitions.
    pub columns: Vec<Column>,
}

impl TableSchema {
    /// Creates a schema, validating that column names are distinct
    /// (case-insensitively) and at most one primary key exists.
    pub fn new(name: impl Into<String>, columns: Vec<Column>) -> Result<TableSchema> {
        let name = name.into();
        let mut seen = std::collections::HashSet::new();
        let mut pk_count = 0usize;
        for c in &columns {
            if !seen.insert(c.name.to_ascii_lowercase()) {
                return Err(RelError::Parse(format!(
                    "duplicate column `{}` in table `{name}`",
                    c.name
                )));
            }
            if c.primary_key {
                pk_count += 1;
            }
        }
        if pk_count > 1 {
            return Err(RelError::Parse(format!(
                "table `{name}` declares {pk_count} primary keys"
            )));
        }
        Ok(TableSchema { name, columns })
    }

    /// Appends the schema's binary form — the name, the column count, then
    /// per column its name, a type tag and a flag byte (`not_null`,
    /// `unique`, `primary_key` as bits 0–2). The snapshot stores a schema
    /// this way.
    pub(crate) fn encode(&self, out: &mut Vec<u8>) {
        write_str(out, &self.name);
        write_varint(out, self.columns.len() as u64);
        for c in &self.columns {
            write_str(out, &c.name);
            out.push(match c.ty {
                DataType::Integer => 0,
                DataType::Float => 1,
                DataType::Text => 2,
                DataType::Boolean => 3,
            });
            out.push(
                u8::from(c.not_null) | (u8::from(c.unique) << 1) | (u8::from(c.primary_key) << 2),
            );
        }
    }

    /// Reads a schema written by [`TableSchema::encode`], advancing `pos`.
    pub(crate) fn decode(buf: &[u8], pos: &mut usize, err: FormatError) -> Result<TableSchema> {
        let name = read_str(buf, pos, err)?;
        let ncols = read_len(buf, pos, err)?;
        let mut columns = Vec::with_capacity(ncols.min(4096));
        for _ in 0..ncols {
            let cname = read_str(buf, pos, err)?;
            let ty = match next_byte(buf, pos, err)? {
                0 => DataType::Integer,
                1 => DataType::Float,
                2 => DataType::Text,
                3 => DataType::Boolean,
                other => return Err(err(format!("bad type tag {other}"))),
            };
            let flags = next_byte(buf, pos, err)?;
            columns.push(Column {
                name: cname,
                ty,
                not_null: flags & 1 != 0,
                unique: flags & 2 != 0,
                primary_key: flags & 4 != 0,
            });
        }
        TableSchema::new(name, columns)
    }

    /// Index of a column by case-insensitive name.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns
            .iter()
            .position(|c| c.name.eq_ignore_ascii_case(name))
    }

    /// Looks up a column definition by name.
    pub fn column(&self, name: &str) -> Option<&Column> {
        self.column_index(name).map(|i| &self.columns[i])
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// Validates a row against this schema and coerces values
    /// (int → float promotion). Returns the coerced row.
    pub fn validate_row(&self, row: Vec<Value>) -> Result<Vec<Value>> {
        if row.len() != self.columns.len() {
            return Err(RelError::ArityMismatch {
                expected: self.columns.len(),
                found: row.len(),
            });
        }
        let mut out = Vec::with_capacity(row.len());
        for (v, col) in row.into_iter().zip(&self.columns) {
            if v.is_null() {
                if col.not_null {
                    return Err(RelError::NullViolation(col.name.clone()));
                }
                out.push(Value::Null);
                continue;
            }
            if !v.compatible_with(col.ty) {
                return Err(RelError::TypeMismatch {
                    column: col.name.clone(),
                    expected: col.ty.to_string(),
                    found: format!("{v:?}"),
                });
            }
            out.push(v.coerce(col.ty));
        }
        Ok(out)
    }

    /// Columns that need implicit unique indexes (primary key + UNIQUE).
    pub fn unique_columns(&self) -> impl Iterator<Item = (usize, &Column)> {
        self.columns
            .iter()
            .enumerate()
            .filter(|(_, c)| c.unique || c.primary_key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> TableSchema {
        TableSchema::new(
            "sensors",
            vec![
                Column::new("id", DataType::Integer).primary_key(),
                Column::new("name", DataType::Text).not_null(),
                Column::new("lat", DataType::Float),
            ],
        )
        .unwrap()
    }

    #[test]
    fn duplicate_columns_rejected() {
        let err = TableSchema::new(
            "t",
            vec![
                Column::new("a", DataType::Integer),
                Column::new("A", DataType::Text),
            ],
        )
        .unwrap_err();
        assert!(matches!(err, RelError::Parse(_)));
    }

    #[test]
    fn double_primary_key_rejected() {
        let err = TableSchema::new(
            "t",
            vec![
                Column::new("a", DataType::Integer).primary_key(),
                Column::new("b", DataType::Integer).primary_key(),
            ],
        )
        .unwrap_err();
        assert!(matches!(err, RelError::Parse(_)));
    }

    #[test]
    fn case_insensitive_lookup() {
        let s = schema();
        assert_eq!(s.column_index("NAME"), Some(1));
        assert_eq!(s.column_index("missing"), None);
    }

    #[test]
    fn validate_coerces_int_into_float() {
        let s = schema();
        let row = s
            .validate_row(vec![Value::Int(1), Value::text("a"), Value::Int(46)])
            .unwrap();
        assert_eq!(row[2], Value::Float(46.0));
    }

    #[test]
    fn validate_rejects_null_pk() {
        let s = schema();
        let err = s
            .validate_row(vec![Value::Null, Value::text("a"), Value::Null])
            .unwrap_err();
        assert!(matches!(err, RelError::NullViolation(_)));
    }

    #[test]
    fn validate_rejects_wrong_arity_and_type() {
        let s = schema();
        assert!(matches!(
            s.validate_row(vec![Value::Int(1)]).unwrap_err(),
            RelError::ArityMismatch { .. }
        ));
        assert!(matches!(
            s.validate_row(vec![Value::text("x"), Value::text("a"), Value::Null])
                .unwrap_err(),
            RelError::TypeMismatch { .. }
        ));
    }

    #[test]
    fn unique_columns_include_pk() {
        let s = schema();
        let uniq: Vec<_> = s.unique_columns().map(|(i, _)| i).collect();
        assert_eq!(uniq, vec![0]);
    }
}
