//! Compact binary row encoding.
//!
//! Rows are serialized with a one-byte type tag per value followed by a
//! fixed- or length-prefixed payload. Integers use zig-zag varint encoding so
//! small ids (the common case for metadata keys) take one byte.

use crate::error::{RelError, Result};
use crate::value::Value;

const TAG_NULL: u8 = 0;
const TAG_INT: u8 = 1;
const TAG_FLOAT: u8 = 2;
const TAG_TEXT: u8 = 3;
const TAG_BOOL_FALSE: u8 = 4;
const TAG_BOOL_TRUE: u8 = 5;

/// Appends a varint-encoded u64.
pub fn write_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = v.to_le_bytes()[0] & 0x7f;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// Reads a varint-encoded u64, advancing `pos`.
pub fn read_varint(buf: &[u8], pos: &mut usize) -> Result<u64> {
    let mut out = 0u64;
    let mut shift = 0u32;
    loop {
        let byte = *buf
            .get(*pos)
            .ok_or_else(|| RelError::Snapshot("varint truncated".into()))?;
        *pos += 1;
        out |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(out);
        }
        shift += 7;
        if shift >= 64 {
            return Err(RelError::Snapshot("varint overflow".into()));
        }
    }
}

/// Builds the error variant of the format being decoded (`RelError::Wal`
/// or `RelError::Snapshot`), so a shared reader reports in its caller's terms.
pub(crate) type FormatError = fn(String) -> RelError;

/// Appends a length-prefixed UTF-8 string.
pub(crate) fn write_str(out: &mut Vec<u8>, s: &str) {
    write_varint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

/// Reads a string written by [`write_str`], advancing `pos`.
pub(crate) fn read_str(buf: &[u8], pos: &mut usize, err: FormatError) -> Result<String> {
    let len = read_len(buf, pos, err)?;
    let end = pos
        .checked_add(len)
        .filter(|&e| e <= buf.len())
        .ok_or_else(|| err("string out of bounds".into()))?;
    let s = std::str::from_utf8(&buf[*pos..end])
        .map_err(|_| err("invalid utf-8".into()))?
        .to_owned();
    *pos = end;
    Ok(s)
}

/// Reads a varint count or length, refusing one that does not fit `usize`.
pub(crate) fn read_len(buf: &[u8], pos: &mut usize, err: FormatError) -> Result<usize> {
    usize::try_from(read_varint(buf, pos)?).map_err(|_| err("length overflow".into()))
}

/// Reads one byte, advancing `pos`.
pub(crate) fn next_byte(buf: &[u8], pos: &mut usize, err: FormatError) -> Result<u8> {
    let b = *buf
        .get(*pos)
        .ok_or_else(|| err("unexpected end of input".into()))?;
    *pos += 1;
    Ok(b)
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Serializes one row into `buf`.
pub fn encode_row(row: &[Value], buf: &mut Vec<u8>) {
    write_varint(buf, row.len() as u64);
    for v in row {
        match v {
            Value::Null => buf.push(TAG_NULL),
            Value::Int(i) => {
                buf.push(TAG_INT);
                write_varint(buf, zigzag(*i));
            }
            Value::Float(x) => {
                buf.push(TAG_FLOAT);
                buf.extend_from_slice(&x.to_bits().to_le_bytes());
            }
            Value::Text(s) => {
                buf.push(TAG_TEXT);
                write_varint(buf, s.len() as u64);
                buf.extend_from_slice(s.as_bytes());
            }
            Value::Bool(false) => buf.push(TAG_BOOL_FALSE),
            Value::Bool(true) => buf.push(TAG_BOOL_TRUE),
        }
    }
}

/// Deserializes one row starting at `pos`, advancing it.
pub fn decode_row(buf: &[u8], pos: &mut usize) -> Result<Vec<Value>> {
    let mut row = Vec::new();
    decode_row_into(buf, pos, None, &mut row)?;
    Ok(row)
}

/// Deserializes one row starting at `pos`, advancing it, and appends its
/// values to `row` (a join decodes its right row straight after the left
/// row's values). Only the values `mask` marks are built (`None` = every
/// value); the others are checked exactly as a full decode checks them —
/// so a row decodes or fails the same either way — but read as NULL and
/// allocate nothing. On error, `row` may hold part of the record.
pub fn decode_row_into(
    buf: &[u8],
    pos: &mut usize,
    mask: Option<&[bool]>,
    row: &mut Vec<Value>,
) -> Result<()> {
    let n = read_len(buf, pos, RelError::Snapshot)?;
    if n > buf.len() {
        // n values each take ≥1 byte; a count above the remaining buffer is
        // definitely corrupt and would make us over-allocate.
        return Err(RelError::Snapshot("row arity exceeds buffer".into()));
    }
    row.reserve(n);
    for i in 0..n {
        let build = mask.is_none_or(|m| m.get(i).copied().unwrap_or(false));
        let tag = *buf
            .get(*pos)
            .ok_or_else(|| RelError::Snapshot("row truncated".into()))?;
        *pos += 1;
        let v = match tag {
            TAG_NULL => Value::Null,
            TAG_INT => Value::Int(unzigzag(read_varint(buf, pos)?)),
            TAG_FLOAT => {
                let end = *pos + 8;
                let bytes = buf
                    .get(*pos..end)
                    .ok_or_else(|| RelError::Snapshot("float truncated".into()))?;
                *pos = end;
                Value::Float(f64::from_bits(u64::from_le_bytes(
                    bytes
                        .try_into()
                        .map_err(|_| RelError::Snapshot("float truncated".into()))?,
                )))
            }
            TAG_TEXT => {
                let len = read_len(buf, pos, RelError::Snapshot)?;
                let end = pos
                    .checked_add(len)
                    .ok_or_else(|| RelError::Snapshot("text length overflow".into()))?;
                let bytes = buf
                    .get(*pos..end)
                    .ok_or_else(|| RelError::Snapshot("text truncated".into()))?;
                *pos = end;
                let text = std::str::from_utf8(bytes)
                    .map_err(|_| RelError::Snapshot("invalid utf-8 in text".into()))?;
                if build {
                    Value::Text(text.to_owned())
                } else {
                    Value::Null
                }
            }
            TAG_BOOL_FALSE => Value::Bool(false),
            TAG_BOOL_TRUE => Value::Bool(true),
            other => {
                return Err(RelError::Snapshot(format!("unknown value tag {other}")));
            }
        };
        row.push(if build { v } else { Value::Null });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(row: Vec<Value>) {
        let mut buf = Vec::new();
        encode_row(&row, &mut buf);
        let mut pos = 0;
        let back = decode_row(&buf, &mut pos).unwrap();
        assert_eq!(pos, buf.len());
        assert_eq!(row, back);
    }

    #[test]
    fn roundtrip_all_types() {
        roundtrip(vec![
            Value::Null,
            Value::Int(-42),
            Value::Int(i64::MAX),
            Value::Int(i64::MIN),
            Value::Float(3.25),
            Value::Float(-0.0),
            Value::text("héllo wörld"),
            Value::text(""),
            Value::Bool(true),
            Value::Bool(false),
        ]);
    }

    #[test]
    fn roundtrip_empty_row() {
        roundtrip(vec![]);
    }

    #[test]
    fn small_int_takes_two_bytes() {
        let mut buf = Vec::new();
        encode_row(&[Value::Int(5)], &mut buf);
        // arity varint (1) + tag (1) + zigzag(5)=10 varint (1)
        assert_eq!(buf.len(), 3);
    }

    #[test]
    fn truncated_input_errors_cleanly() {
        let mut buf = Vec::new();
        encode_row(&[Value::text("abcdef")], &mut buf);
        buf.truncate(buf.len() - 2);
        let mut pos = 0;
        assert!(decode_row(&buf, &mut pos).is_err());
    }

    #[test]
    fn garbage_tag_rejected() {
        let buf = vec![1u8, 99u8];
        let mut pos = 0;
        assert!(decode_row(&buf, &mut pos).is_err());
    }

    #[test]
    fn masked_decode_builds_only_marked_values() {
        let row = vec![
            Value::Int(7),
            Value::text("title"),
            Value::text("a long body"),
            Value::Float(1.5),
        ];
        let mut buf = Vec::new();
        encode_row(&row, &mut buf);
        let mut pos = 0;
        let mut got = Vec::new();
        decode_row_into(&buf, &mut pos, Some(&[false, true, false, true]), &mut got).unwrap();
        assert_eq!(pos, buf.len());
        assert_eq!(
            got,
            vec![
                Value::Null,
                Value::text("title"),
                Value::Null,
                Value::Float(1.5)
            ]
        );
        // A skipped value is still validated: bad UTF-8 fails either way.
        let mut bad = Vec::new();
        encode_row(&[Value::text("ab"), Value::Int(1)], &mut bad);
        bad[3] = 0xff;
        assert!(decode_row_into(&bad, &mut 0, Some(&[false, true]), &mut Vec::new()).is_err());
        assert!(decode_row(&bad, &mut 0).is_err());
    }

    #[test]
    fn varint_boundaries() {
        for v in [0u64, 127, 128, 16383, 16384, u64::MAX] {
            let mut buf = Vec::new();
            write_varint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(read_varint(&buf, &mut pos).unwrap(), v);
        }
    }
}
