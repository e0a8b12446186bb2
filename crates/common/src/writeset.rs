//! Writesets and write-write conflict detection.
//!
//! A *writeset* captures the minimal set of actions necessary to recreate a
//! transaction's modifications (Section 2 of the paper): for every row the
//! transaction touched it records the table, the primary key, the kind of
//! operation and — for inserts and updates — the new column values.
//!
//! Writesets serve three purposes in the system:
//!
//! 1. **Certification.**  The certifier detects write-write conflicts by
//!    *intersecting* the committing writeset with the writesets committed at
//!    versions newer than the transaction's start version
//!    ([`WriteSet::conflicts_with`]).
//! 2. **Update propagation.**  Remote writesets are shipped to every replica
//!    and re-applied there instead of re-executing the original SQL.
//! 3. **Durability.**  In Tashkent-MW the certifier's persistent log of
//!    writesets *is* the durable copy of every committed update transaction.

use std::collections::HashSet;
use std::fmt;

use crate::ids::Version;
use crate::value::Value;

/// Identifier of a replicated table.
///
/// Tables are registered in a schema catalogue at database creation time and
/// referred to by their dense index afterwards, which keeps writesets compact
/// and intersection tests cheap.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TableId(pub u32);

impl TableId {
    /// Returns the raw table index.
    #[must_use]
    pub fn value(self) -> u32 {
        self.0
    }
}

impl fmt::Display for TableId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "table-{}", self.0)
    }
}

/// Primary key of a row.
///
/// All benchmark schemas use either an integer primary key or a compound key
/// that can be flattened into an integer plus a discriminator, so a compact
/// enum suffices and avoids heap allocation on the hot certification path for
/// the common case.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RowKey {
    /// Single integer key (`accounts.aid`, `items.i_id`, ...).
    Int(i64),
    /// Compound integer key (e.g. TPC-W `order_line (ol_o_id, ol_i_id)`).
    Pair(i64, i64),
    /// Text key (rarely used; TPC-W customer user names).
    Text(String),
}

impl RowKey {
    /// Approximate encoded size in bytes.
    #[must_use]
    pub fn encoded_len(&self) -> usize {
        match self {
            RowKey::Int(_) => 8,
            RowKey::Pair(_, _) => 16,
            RowKey::Text(s) => 4 + s.len(),
        }
    }
}

impl fmt::Display for RowKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RowKey::Int(i) => write!(f, "{i}"),
            RowKey::Pair(a, b) => write!(f, "({a},{b})"),
            RowKey::Text(s) => write!(f, "{s}"),
        }
    }
}

impl From<i64> for RowKey {
    fn from(v: i64) -> Self {
        RowKey::Int(v)
    }
}

impl From<(i64, i64)> for RowKey {
    fn from(v: (i64, i64)) -> Self {
        RowKey::Pair(v.0, v.1)
    }
}

impl From<&str> for RowKey {
    fn from(v: &str) -> Self {
        RowKey::Text(v.to_owned())
    }
}

/// The kind of modification captured for one row.
#[derive(Debug, Clone, PartialEq)]
pub enum WriteOp {
    /// A newly inserted row: the full row image.
    Insert {
        /// Column name / value pairs of the new row.
        row: Vec<(String, Value)>,
    },
    /// An update: only the modified columns.
    Update {
        /// Modified column name / value pairs.
        columns: Vec<(String, Value)>,
    },
    /// A deletion: only the primary key is needed.
    Delete,
}

impl WriteOp {
    /// Approximate encoded size in bytes of the operation payload.
    #[must_use]
    pub fn encoded_len(&self) -> usize {
        match self {
            WriteOp::Insert { row } => {
                1 + row
                    .iter()
                    .map(|(n, v)| 2 + n.len() + v.encoded_len())
                    .sum::<usize>()
            }
            WriteOp::Update { columns } => {
                1 + columns
                    .iter()
                    .map(|(n, v)| 2 + n.len() + v.encoded_len())
                    .sum::<usize>()
            }
            WriteOp::Delete => 1,
        }
    }

    /// Names of the columns this operation modifies (empty for deletes).
    pub fn column_names(&self) -> impl Iterator<Item = &str> {
        let cols: &[(String, Value)] = match self {
            WriteOp::Insert { row } => row,
            WriteOp::Update { columns } => columns,
            WriteOp::Delete => &[],
        };
        cols.iter().map(|(n, _)| n.as_str())
    }
}

/// One row-level entry of a writeset.
#[derive(Debug, Clone, PartialEq)]
pub struct WriteItem {
    /// Table the row belongs to.
    pub table: TableId,
    /// Primary key of the modified row.
    pub key: RowKey,
    /// The modification.
    pub op: WriteOp,
}

impl WriteItem {
    /// Creates an update item touching the given columns.
    #[must_use]
    pub fn update(table: TableId, key: impl Into<RowKey>, columns: Vec<(String, Value)>) -> Self {
        WriteItem {
            table,
            key: key.into(),
            op: WriteOp::Update { columns },
        }
    }

    /// Creates an insert item carrying the full new row.
    #[must_use]
    pub fn insert(table: TableId, key: impl Into<RowKey>, row: Vec<(String, Value)>) -> Self {
        WriteItem {
            table,
            key: key.into(),
            op: WriteOp::Insert { row },
        }
    }

    /// Creates a delete item.
    #[must_use]
    pub fn delete(table: TableId, key: impl Into<RowKey>) -> Self {
        WriteItem {
            table,
            key: key.into(),
            op: WriteOp::Delete,
        }
    }

    /// Approximate encoded size in bytes (table id + key + payload).
    #[must_use]
    pub fn encoded_len(&self) -> usize {
        4 + self.key.encoded_len() + self.op.encoded_len()
    }
}

/// A transaction's writeset: the ordered list of row modifications.
///
/// The order of items is the order in which the transaction performed the
/// writes; re-applying the items in order on another replica recreates the
/// transaction's effect.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct WriteSet {
    items: Vec<WriteItem>,
}

impl WriteSet {
    /// Creates an empty writeset (the writeset of a read-only transaction).
    #[must_use]
    pub fn new() -> Self {
        WriteSet { items: Vec::new() }
    }

    /// Creates a writeset from row modifications.
    #[must_use]
    pub fn from_items(items: Vec<WriteItem>) -> Self {
        WriteSet { items }
    }

    /// Adds one row modification.
    ///
    /// If the transaction already wrote the same row, the later write is
    /// still recorded as a separate item so that replaying the items in order
    /// yields the same final row image.
    pub fn push(&mut self, item: WriteItem) {
        self.items.push(item);
    }

    /// Returns `true` for the empty writeset, i.e. a read-only transaction.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Number of row modifications.
    #[must_use]
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// The row modifications, in write order.
    #[must_use]
    pub fn items(&self) -> &[WriteItem] {
        &self.items
    }

    /// Approximate encoded size in bytes.
    ///
    /// This is the size that is logged by the certifier and that travels on
    /// the wire during update propagation; the paper quotes averages of
    /// 54 B (AllUpdates), 158 B (TPC-B) and 275 B (TPC-W).
    #[must_use]
    pub fn encoded_len(&self) -> usize {
        4 + self.items.iter().map(WriteItem::encoded_len).sum::<usize>()
    }

    /// The set of `(table, key)` pairs this writeset touches.
    ///
    /// This *footprint* is what certification intersects: two writesets
    /// conflict exactly when their footprints share an element.
    #[must_use]
    pub fn footprint(&self) -> HashSet<(TableId, RowKey)> {
        self.items
            .iter()
            .map(|i| (i.table, i.key.clone()))
            .collect()
    }

    /// Tests whether this writeset has a write-write conflict with `other`.
    ///
    /// The test is symmetric: `a.conflicts_with(&b) == b.conflicts_with(&a)`.
    /// An empty writeset never conflicts with anything.
    #[must_use]
    pub fn conflicts_with(&self, other: &WriteSet) -> bool {
        if self.is_empty() || other.is_empty() {
            return false;
        }
        // Intersect using the smaller footprint as the probe side.
        let (small, large) = if self.items.len() <= other.items.len() {
            (self, other)
        } else {
            (other, self)
        };
        let footprint = large.footprint();
        small
            .items
            .iter()
            .any(|i| footprint.contains(&(i.table, i.key.clone())))
    }

    /// Tests conflict against a pre-computed footprint.
    ///
    /// The certifier keeps the footprints of recently committed writesets
    /// cached, so the hot certification path avoids rebuilding hash sets.
    #[must_use]
    pub fn conflicts_with_footprint(&self, footprint: &HashSet<(TableId, RowKey)>) -> bool {
        self.items
            .iter()
            .any(|i| footprint.contains(&(i.table, i.key.clone())))
    }

    /// Merges several writesets into one, preserving their relative order.
    ///
    /// This is how the proxy *groups remote writesets*: the effects of
    /// transactions `T1, T2, T3` become one transaction `T1_2_3` with
    /// writeset `{W1, W2, W3}` (Section 3, "Grouping remote writesets").
    #[must_use]
    pub fn merged<'a>(sets: impl IntoIterator<Item = &'a WriteSet>) -> WriteSet {
        let mut out = WriteSet::new();
        for ws in sets {
            out.items.extend(ws.items.iter().cloned());
        }
        out
    }

    /// Iterates over the distinct tables this writeset touches.
    #[must_use]
    pub fn tables(&self) -> HashSet<TableId> {
        self.items.iter().map(|i| i.table).collect()
    }
}

impl fmt::Display for WriteSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "WriteSet[{} items, {} bytes]", self.len(), self.encoded_len())
    }
}

/// A writeset together with the version at which it committed globally.
///
/// This is the unit stored in the certifier log and shipped to replicas as a
/// *remote writeset*.
#[derive(Debug, Clone, PartialEq)]
pub struct VersionedWriteSet {
    /// Global version created by this transaction's commit.
    pub commit_version: Version,
    /// The transaction's writeset.
    pub writeset: WriteSet,
}

impl VersionedWriteSet {
    /// Creates a new versioned writeset.
    #[must_use]
    pub fn new(commit_version: Version, writeset: WriteSet) -> Self {
        VersionedWriteSet {
            commit_version,
            writeset,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ws(table: u32, keys: &[i64]) -> WriteSet {
        WriteSet::from_items(
            keys.iter()
                .map(|&k| {
                    WriteItem::update(TableId(table), k, vec![("x".into(), Value::Int(k))])
                })
                .collect(),
        )
    }

    #[test]
    fn empty_writeset_is_read_only() {
        let e = WriteSet::new();
        assert!(e.is_empty());
        assert_eq!(e.len(), 0);
        assert!(!e.conflicts_with(&ws(0, &[1, 2, 3])));
        assert!(!ws(0, &[1]).conflicts_with(&e));
    }

    #[test]
    fn conflict_requires_same_table_and_key() {
        let a = ws(0, &[1, 2, 3]);
        let b = ws(0, &[3, 4]);
        let c = ws(0, &[4, 5]);
        let d = ws(1, &[1, 2, 3]); // Same keys, different table.
        assert!(a.conflicts_with(&b));
        assert!(b.conflicts_with(&a));
        assert!(!a.conflicts_with(&c));
        assert!(!a.conflicts_with(&d));
    }

    #[test]
    fn conflict_with_precomputed_footprint() {
        let a = ws(2, &[10, 20]);
        let b = ws(2, &[20, 30]);
        let fp = a.footprint();
        assert!(b.conflicts_with_footprint(&fp));
        assert!(!ws(2, &[40]).conflicts_with_footprint(&fp));
    }

    #[test]
    fn merged_preserves_order_and_content() {
        let a = ws(0, &[1, 2]);
        let b = ws(0, &[3]);
        let m = WriteSet::merged([&a, &b]);
        assert_eq!(m.len(), 3);
        assert_eq!(m.items()[0].key, RowKey::Int(1));
        assert_eq!(m.items()[2].key, RowKey::Int(3));
        // The merged writeset conflicts with anything either constituent
        // conflicts with.
        assert!(m.conflicts_with(&ws(0, &[3, 9])));
        assert!(m.conflicts_with(&ws(0, &[1])));
    }

    #[test]
    fn encoded_len_grows_with_items() {
        let small = ws(0, &[1]);
        let large = ws(0, &[1, 2, 3, 4, 5, 6, 7, 8]);
        assert!(small.encoded_len() > 0);
        assert!(large.encoded_len() > small.encoded_len());
    }

    #[test]
    fn item_constructors_set_op_kind() {
        let ins = WriteItem::insert(TableId(0), 1, vec![("a".into(), Value::Int(1))]);
        let upd = WriteItem::update(TableId(0), 1, vec![("a".into(), Value::Int(2))]);
        let del = WriteItem::delete(TableId(0), 1);
        assert!(matches!(ins.op, WriteOp::Insert { .. }));
        assert!(matches!(upd.op, WriteOp::Update { .. }));
        assert!(matches!(del.op, WriteOp::Delete));
        assert_eq!(del.op.encoded_len(), 1);
        assert_eq!(ins.op.column_names().collect::<Vec<_>>(), vec!["a"]);
        assert_eq!(del.op.column_names().count(), 0);
    }

    #[test]
    fn tables_lists_distinct_tables() {
        let mut w = ws(0, &[1]);
        w.push(WriteItem::delete(TableId(5), 9));
        w.push(WriteItem::delete(TableId(5), 10));
        let tables = w.tables();
        assert_eq!(tables.len(), 2);
        assert!(tables.contains(&TableId(0)));
        assert!(tables.contains(&TableId(5)));
    }

    #[test]
    fn row_key_kinds() {
        assert_eq!(RowKey::from(3i64), RowKey::Int(3));
        assert_eq!(RowKey::from((1i64, 2i64)), RowKey::Pair(1, 2));
        assert_eq!(RowKey::from("k"), RowKey::Text("k".into()));
        assert_eq!(RowKey::Int(1).encoded_len(), 8);
        assert_eq!(RowKey::Pair(1, 2).encoded_len(), 16);
        assert_eq!(RowKey::Text("ab".into()).encoded_len(), 6);
        assert_eq!(RowKey::Pair(1, 2).to_string(), "(1,2)");
    }

    #[test]
    fn versioned_writeset_carries_version() {
        let v = VersionedWriteSet::new(Version(7), ws(0, &[1]));
        assert_eq!(v.commit_version, Version(7));
        assert_eq!(v.writeset.len(), 1);
    }
}
