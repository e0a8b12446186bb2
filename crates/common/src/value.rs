//! Column values stored by the engine and carried inside writesets.
//!
//! The storage engine is schema-light: a row is a vector of named columns,
//! each holding a [`Value`].  The variants cover what the three benchmarks
//! (AllUpdates, TPC-B, TPC-W) need — integers, floats, text and raw bytes —
//! plus `Null`.

use std::fmt;

/// A single column value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float (TPC-B balances, TPC-W prices).
    Float(f64),
    /// UTF-8 text.
    Text(String),
    /// Raw bytes (payload / filler columns).
    Bytes(Vec<u8>),
}

impl Value {
    /// Returns the integer value, if this is an [`Value::Int`].
    #[must_use]
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Returns the float value for [`Value::Float`] or [`Value::Int`].
    #[must_use]
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Float(f) => Some(*f),
            Value::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// Returns the text value, if this is a [`Value::Text`].
    #[must_use]
    pub fn as_text(&self) -> Option<&str> {
        match self {
            Value::Text(s) => Some(s),
            _ => None,
        }
    }

    /// Returns `true` if this value is SQL NULL.
    #[must_use]
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Approximate serialized size in bytes.
    ///
    /// Used by the workload generators to size writesets so that the average
    /// writeset sizes match the paper (54 B for AllUpdates, 158 B for TPC-B,
    /// 275 B for TPC-W).
    #[must_use]
    pub fn encoded_len(&self) -> usize {
        match self {
            Value::Null => 1,
            Value::Int(_) => 9,
            Value::Float(_) => 9,
            Value::Text(s) => 5 + s.len(),
            Value::Bytes(b) => 5 + b.len(),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Text(s) => write!(f, "'{s}'"),
            Value::Bytes(b) => write!(f, "<{} bytes>", b.len()),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(i64::from(v))
    }
}

impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::Int(i64::from(v))
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
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

impl From<Vec<u8>> for Value {
    fn from(v: Vec<u8>) -> Self {
        Value::Bytes(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors_match_variants() {
        assert_eq!(Value::Int(5).as_int(), Some(5));
        assert_eq!(Value::Text("a".into()).as_int(), None);
        assert_eq!(Value::Float(2.5).as_float(), Some(2.5));
        assert_eq!(Value::Int(2).as_float(), Some(2.0));
        assert_eq!(Value::Text("x".into()).as_text(), Some("x"));
        assert!(Value::Null.is_null());
        assert!(!Value::Int(0).is_null());
    }

    #[test]
    fn conversions_produce_expected_variants() {
        assert_eq!(Value::from(3i64), Value::Int(3));
        assert_eq!(Value::from(3i32), Value::Int(3));
        assert_eq!(Value::from(3u32), Value::Int(3));
        assert_eq!(Value::from(1.5f64), Value::Float(1.5));
        assert_eq!(Value::from("hi"), Value::Text("hi".into()));
        assert_eq!(Value::from(String::from("hi")), Value::Text("hi".into()));
        assert_eq!(Value::from(vec![1u8, 2]), Value::Bytes(vec![1, 2]));
    }

    #[test]
    fn encoded_len_tracks_payload_size() {
        assert_eq!(Value::Null.encoded_len(), 1);
        assert_eq!(Value::Int(1).encoded_len(), 9);
        assert_eq!(Value::Text("abcd".into()).encoded_len(), 9);
        assert_eq!(Value::Bytes(vec![0; 10]).encoded_len(), 15);
    }

    #[test]
    fn display_is_reasonable() {
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::Int(7).to_string(), "7");
        assert_eq!(Value::Text("t".into()).to_string(), "'t'");
        assert_eq!(Value::Bytes(vec![0; 3]).to_string(), "<3 bytes>");
    }
}
