//! Binary encoding of values, rows and writesets.
//!
//! Used by the write-ahead log, the certifier's persistent log, database
//! dumps and the TKNP wire messages.  The layouts are built from the shared
//! primitives of [`tashkent_common::codec`]: encoders append to a `Vec<u8>`,
//! decoders read from a [`Reader`] and return
//! [`tashkent_common::Error::Corruption`] rather than panicking on a
//! truncated or malformed buffer, because recovery code legitimately reads
//! half-written logs after a crash.

use tashkent_common::codec::{Reader, Writer};
use tashkent_common::{
    Error, Result, RowKey, TableId, Value, Version, WriteItem, WriteOp, WriteSet,
};

use crate::row::Row;

/// Encodes a [`Value`].
pub fn encode_value(buf: &mut Vec<u8>, value: &Value) {
    match value {
        Value::Null => buf.put_u8(0),
        Value::Int(i) => {
            buf.put_u8(1);
            buf.put_i64(*i);
        }
        Value::Float(f) => {
            buf.put_u8(2);
            buf.put_f64(*f);
        }
        Value::Text(s) => {
            buf.put_u8(3);
            buf.put_bytes32(s.as_bytes());
        }
        Value::Bytes(b) => {
            buf.put_u8(4);
            buf.put_bytes32(b);
        }
    }
}

/// Decodes a [`Value`].
///
/// # Errors
///
/// Returns [`Error::Corruption`] on a truncated or unknown encoding.
pub fn decode_value(r: &mut Reader<'_>) -> Result<Value> {
    match r.u8("value tag")? {
        0 => Ok(Value::Null),
        1 => Ok(Value::Int(r.i64("int value")?)),
        2 => Ok(Value::Float(r.f64("float value")?)),
        3 => Ok(Value::Text(r.str32("text value")?)),
        4 => Ok(Value::Bytes(r.bytes32("bytes value")?.to_vec())),
        tag => Err(Error::Corruption(format!("unknown value tag {tag}"))),
    }
}

/// Encodes a [`RowKey`].
pub fn encode_key(buf: &mut Vec<u8>, key: &RowKey) {
    match key {
        RowKey::Int(i) => {
            buf.put_u8(0);
            buf.put_i64(*i);
        }
        RowKey::Pair(a, b) => {
            buf.put_u8(1);
            buf.put_i64(*a);
            buf.put_i64(*b);
        }
        RowKey::Text(s) => {
            buf.put_u8(2);
            buf.put_str16(s);
        }
    }
}

/// Decodes a [`RowKey`].
///
/// # Errors
///
/// Returns [`Error::Corruption`] on a truncated or unknown encoding.
pub fn decode_key(r: &mut Reader<'_>) -> Result<RowKey> {
    match r.u8("key tag")? {
        0 => Ok(RowKey::Int(r.i64("int key")?)),
        1 => Ok(RowKey::Pair(r.i64("pair key")?, r.i64("pair key")?)),
        2 => Ok(RowKey::Text(r.str16("text key")?)),
        tag => Err(Error::Corruption(format!("unknown key tag {tag}"))),
    }
}

fn encode_columns(buf: &mut Vec<u8>, columns: &[(String, Value)]) {
    buf.put_u16(columns.len() as u16);
    for (name, value) in columns {
        buf.put_str16(name);
        encode_value(buf, value);
    }
}

fn decode_columns(r: &mut Reader<'_>) -> Result<Vec<(String, Value)>> {
    let count = r.u16("column count")? as usize;
    r.vec(count, |r| Ok((r.str16("column name")?, decode_value(r)?)))
}

/// Encodes a [`Row`].
pub fn encode_row(buf: &mut Vec<u8>, row: &Row) {
    encode_columns(buf, row.columns());
}

/// Decodes a [`Row`].
///
/// # Errors
///
/// Returns [`Error::Corruption`] on a truncated encoding.
pub fn decode_row(r: &mut Reader<'_>) -> Result<Row> {
    Ok(Row::from_columns(decode_columns(r)?))
}

/// Encodes a [`WriteItem`].
pub fn encode_write_item(buf: &mut Vec<u8>, item: &WriteItem) {
    buf.put_u32(item.table.0);
    encode_key(buf, &item.key);
    match &item.op {
        WriteOp::Insert { row } => {
            buf.put_u8(0);
            encode_columns(buf, row);
        }
        WriteOp::Update { columns } => {
            buf.put_u8(1);
            encode_columns(buf, columns);
        }
        WriteOp::Delete => buf.put_u8(2),
    }
}

/// Decodes a [`WriteItem`].
///
/// # Errors
///
/// Returns [`Error::Corruption`] on a truncated or unknown encoding.
pub fn decode_write_item(r: &mut Reader<'_>) -> Result<WriteItem> {
    let table = TableId(r.u32("table id")?);
    let key = decode_key(r)?;
    let op = match r.u8("write op tag")? {
        0 => WriteOp::Insert { row: decode_columns(r)? },
        1 => WriteOp::Update { columns: decode_columns(r)? },
        2 => WriteOp::Delete,
        tag => return Err(Error::Corruption(format!("unknown write op tag {tag}"))),
    };
    Ok(WriteItem { table, key, op })
}

/// Encodes a [`WriteSet`].
pub fn encode_writeset(buf: &mut Vec<u8>, ws: &WriteSet) {
    buf.put_u32(ws.len() as u32);
    for item in ws.items() {
        encode_write_item(buf, item);
    }
}

/// Decodes a [`WriteSet`].
///
/// # Errors
///
/// Returns [`Error::Corruption`] on a truncated encoding.
pub fn decode_writeset(r: &mut Reader<'_>) -> Result<WriteSet> {
    let count = r.u32("writeset length")? as usize;
    Ok(WriteSet::from_items(r.vec(count, decode_write_item)?))
}

/// Encodes a [`Version`].
pub fn encode_version(buf: &mut Vec<u8>, version: Version) {
    buf.put_u64(version.0);
}

/// Decodes a [`Version`].
///
/// # Errors
///
/// Returns [`Error::Corruption`] on a truncated encoding.
pub fn decode_version(r: &mut Reader<'_>) -> Result<Version> {
    Ok(Version(r.u64("version")?))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_value(v: Value) {
        let mut buf = Vec::new();
        encode_value(&mut buf, &v);
        let mut r = Reader::new(&buf);
        assert_eq!(decode_value(&mut r).unwrap(), v);
        assert!(r.is_empty());
    }

    #[test]
    fn value_roundtrips() {
        roundtrip_value(Value::Null);
        roundtrip_value(Value::Int(-42));
        roundtrip_value(Value::Float(2.75));
        roundtrip_value(Value::Text("héllo".into()));
        roundtrip_value(Value::Bytes(vec![0, 1, 2, 255]));
    }

    #[test]
    fn key_roundtrips() {
        for key in [
            RowKey::Int(7),
            RowKey::Pair(1, -2),
            RowKey::Text("user".into()),
        ] {
            let mut buf = Vec::new();
            encode_key(&mut buf, &key);
            assert_eq!(decode_key(&mut Reader::new(&buf)).unwrap(), key);
        }
    }

    #[test]
    fn writeset_roundtrips() {
        let ws = WriteSet::from_items(vec![
            WriteItem::insert(
                TableId(1),
                5,
                vec![("a".into(), Value::Int(1)), ("b".into(), Value::Text("x".into()))],
            ),
            WriteItem::update(TableId(2), (3, 4), vec![("c".into(), Value::Float(0.5))]),
            WriteItem::delete(TableId(3), "key"),
        ]);
        let mut buf = Vec::new();
        encode_writeset(&mut buf, &ws);
        assert_eq!(decode_writeset(&mut Reader::new(&buf)).unwrap(), ws);
    }

    #[test]
    fn row_roundtrips() {
        let row = Row::from_columns(vec![
            ("balance".into(), Value::Int(100)),
            ("filler".into(), Value::Bytes(vec![7; 20])),
        ]);
        let mut buf = Vec::new();
        encode_row(&mut buf, &row);
        assert_eq!(decode_row(&mut Reader::new(&buf)).unwrap(), row);
    }

    #[test]
    fn truncated_buffers_error_instead_of_panicking() {
        let mut full = Vec::new();
        encode_value(&mut full, &Value::Text("hello world".into()));
        for cut in 0..full.len() {
            // Either an error, or (never) a wrong success.
            if let Ok(v) = decode_value(&mut Reader::new(&full[..cut])) {
                panic!("decoded {v:?} from truncated buffer of {cut} bytes");
            }
        }
    }

    #[test]
    fn unknown_tags_are_corruption() {
        assert!(matches!(
            decode_value(&mut Reader::new(&[9])),
            Err(Error::Corruption(_))
        ));
        assert!(decode_key(&mut Reader::new(&[9])).is_err());
    }

    #[test]
    fn version_roundtrips() {
        let mut buf = Vec::new();
        encode_version(&mut buf, Version(123_456));
        assert_eq!(decode_version(&mut Reader::new(&buf)).unwrap(), Version(123_456));
    }
}
