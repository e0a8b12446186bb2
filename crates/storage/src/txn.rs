//! Per-transaction state: snapshot, write buffer and captured writeset.
//!
//! The engine captures a transaction's writeset as the transaction executes
//! (the equivalent of the INSERT/UPDATE/DELETE triggers the paper installs in
//! PostgreSQL), so that the proxy can extract it at commit time.

use std::collections::HashMap;

use tashkent_common::{RowKey, TableId, TxId, Value, Version, WriteItem, WriteSet};

use crate::row::Row;

/// Lifecycle state of a transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxState {
    /// The transaction is executing.
    Active,
    /// The transaction committed, creating the given version (read-only
    /// transactions report the version they read from).
    Committed(Version),
    /// The transaction aborted.
    Aborted,
}

/// Internal state of one transaction.
#[derive(Debug)]
pub struct Transaction {
    /// Engine-local identifier.
    pub id: TxId,
    /// Snapshot the transaction reads from.
    pub start_version: Version,
    /// Lifecycle state.
    pub state: TxState,
    /// Uncommitted row images, keyed by `(table, key)`.  `None` marks a
    /// deletion.  Reads within the transaction consult this buffer before
    /// the shared multi-version store so the transaction sees its own writes.
    pub write_buffer: HashMap<(TableId, RowKey), Option<Row>>,
    /// The captured writeset, in write order.
    pub writeset: WriteSet,
    /// `true` if this transaction is the install of a remote writeset.  Its
    /// row locks abort a local holder and wait out a remote one (Section
    /// 8.2), and an *ordered* install appends its commit record without a
    /// flush.
    pub remote_apply: bool,
}

impl Transaction {
    /// Creates a new active transaction reading from `start_version`.
    #[must_use]
    pub fn new(id: TxId, start_version: Version) -> Self {
        Transaction {
            id,
            start_version,
            state: TxState::Active,
            write_buffer: HashMap::new(),
            writeset: WriteSet::new(),
            remote_apply: false,
        }
    }

    /// `true` while the transaction may still read and write.
    #[must_use]
    pub fn is_active(&self) -> bool {
        self.state == TxState::Active
    }

    /// `true` if the transaction has not written anything (a read-only
    /// transaction commits locally without certification).
    #[must_use]
    pub fn is_read_only(&self) -> bool {
        self.writeset.is_empty()
    }

    /// Returns the transaction's own uncommitted image of a row, if it wrote
    /// the row.  `Some(None)` means the transaction deleted the row.
    #[must_use]
    pub fn own_write(&self, table: TableId, key: &RowKey) -> Option<&Option<Row>> {
        self.write_buffer.get(&(table, key.clone()))
    }

    /// Records an insert: buffers the new row and captures the writeset item.
    pub fn record_insert(&mut self, table: TableId, key: RowKey, row: Row) {
        self.writeset.push(WriteItem::insert(
            table,
            key.clone(),
            row.columns().to_vec(),
        ));
        self.write_buffer.insert((table, key), Some(row));
    }

    /// Records an update: buffers the new image and captures only the
    /// modified columns (as the PostgreSQL UPDATE trigger does).
    pub fn record_update(
        &mut self,
        table: TableId,
        key: RowKey,
        new_image: Row,
        modified: Vec<(String, Value)>,
    ) {
        self.writeset
            .push(WriteItem::update(table, key.clone(), modified));
        self.write_buffer.insert((table, key), Some(new_image));
    }

    /// Records a deletion.
    pub fn record_delete(&mut self, table: TableId, key: RowKey) {
        self.writeset.push(WriteItem::delete(table, key.clone()));
        self.write_buffer.insert((table, key), None);
    }

    /// The resources (rows) this transaction has written so far.
    #[must_use]
    pub fn written_resources(&self) -> Vec<(TableId, RowKey)> {
        self.write_buffer.keys().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_transaction_is_active_and_read_only() {
        let tx = Transaction::new(TxId(1), Version(5));
        assert!(tx.is_active());
        assert!(tx.is_read_only());
        assert_eq!(tx.start_version, Version(5));
        assert!(tx.written_resources().is_empty());
    }

    #[test]
    fn writes_are_buffered_and_captured() {
        let mut tx = Transaction::new(TxId(1), Version(0));
        let t = TableId(0);
        tx.record_insert(
            t,
            RowKey::Int(1),
            Row::from_columns(vec![("x".into(), Value::Int(1))]),
        );
        tx.record_update(
            t,
            RowKey::Int(1),
            Row::from_columns(vec![("x".into(), Value::Int(2))]),
            vec![("x".into(), Value::Int(2))],
        );
        tx.record_delete(t, RowKey::Int(7));
        assert!(!tx.is_read_only());
        assert_eq!(tx.writeset.len(), 3);
        // The buffer holds the latest image per key.
        let own = tx.own_write(t, &RowKey::Int(1)).unwrap().clone().unwrap();
        assert_eq!(own.get("x"), Some(&Value::Int(2)));
        assert_eq!(tx.own_write(t, &RowKey::Int(7)), Some(&None));
        assert!(tx.own_write(t, &RowKey::Int(9)).is_none());
        assert_eq!(tx.written_resources().len(), 2);
    }

    #[test]
    fn state_transitions() {
        let mut tx = Transaction::new(TxId(1), Version(0));
        tx.state = TxState::Committed(Version(3));
        assert!(!tx.is_active());
        let mut tx = Transaction::new(TxId(2), Version(0));
        tx.state = TxState::Aborted;
        assert!(!tx.is_active());
    }
}
