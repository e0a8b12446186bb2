//! Multi-version rows and snapshot visibility.
//!
//! Every row is a chain of immutable versions, each stamped with the global
//! version (snapshot number) created by the committing transaction.  A
//! transaction reading at snapshot `S` sees, for each key, the newest row
//! version whose commit version is `<= S` — exactly the visibility rule of
//! snapshot isolation, with versions counted the way the paper counts them
//! (one per committed update transaction).

use std::collections::BTreeMap;

use tashkent_common::{RowKey, Value, Version};

/// A row image: an ordered list of named column values.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Row {
    columns: Vec<(String, Value)>,
}

impl Row {
    /// Creates an empty row.
    #[must_use]
    pub fn new() -> Self {
        Row::default()
    }

    /// Creates a row from column / value pairs.
    #[must_use]
    pub fn from_columns(columns: Vec<(String, Value)>) -> Self {
        Row { columns }
    }

    /// Returns the value of a column, if present.
    #[must_use]
    pub fn get(&self, column: &str) -> Option<&Value> {
        self.columns
            .iter()
            .find(|(name, _)| name == column)
            .map(|(_, v)| v)
    }

    /// Sets (or adds) a column value.
    pub fn set(&mut self, column: &str, value: Value) {
        if let Some(slot) = self.columns.iter_mut().find(|(name, _)| name == column) {
            slot.1 = value;
        } else {
            self.columns.push((column.to_owned(), value));
        }
    }

    /// Applies a set of column updates, returning the updated row.
    #[must_use]
    pub fn with_updates(mut self, updates: &[(String, Value)]) -> Row {
        for (name, value) in updates {
            self.set(name, value.clone());
        }
        self
    }

    /// The column / value pairs in insertion order.
    #[must_use]
    pub fn columns(&self) -> &[(String, Value)] {
        &self.columns
    }

    /// Number of columns.
    #[must_use]
    pub fn len(&self) -> usize {
        self.columns.len()
    }

    /// `true` if the row has no columns.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// Approximate encoded size in bytes.
    #[must_use]
    pub fn encoded_len(&self) -> usize {
        self.columns
            .iter()
            .map(|(n, v)| 2 + n.len() + v.encoded_len())
            .sum()
    }
}

impl From<Vec<(String, Value)>> for Row {
    fn from(columns: Vec<(String, Value)>) -> Self {
        Row::from_columns(columns)
    }
}

/// One committed version of a row.
#[derive(Debug, Clone, PartialEq)]
pub struct RowVersion {
    /// Global version created by the committing transaction.
    pub created_at: Version,
    /// The row image, or `None` if this version is a deletion tombstone.
    pub image: Option<Row>,
}

/// The version chain of a single key, newest last.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct VersionChain {
    versions: Vec<RowVersion>,
}

impl VersionChain {
    /// Creates an empty chain.
    #[must_use]
    pub fn new() -> Self {
        VersionChain::default()
    }

    /// Installs a new version at the end of the chain.
    ///
    /// Versions must be installed in increasing commit-version order; the
    /// engine guarantees this because commits are announced in global order.
    pub fn install(&mut self, version: Version, image: Option<Row>) {
        debug_assert!(
            self.versions
                .last()
                .is_none_or(|v| v.created_at < version),
            "row versions must be installed in increasing version order"
        );
        self.versions.push(RowVersion {
            created_at: version,
            image,
        });
    }

    /// The row image visible to a snapshot at `snapshot_version`, if any.
    #[must_use]
    pub fn visible_at(&self, snapshot_version: Version) -> Option<&Row> {
        self.versions
            .iter()
            .rev()
            .find(|v| v.created_at <= snapshot_version)
            .and_then(|v| v.image.as_ref())
    }

    /// The commit version of the newest version of this row, if any.
    #[must_use]
    pub fn latest_version(&self) -> Option<Version> {
        self.versions.last().map(|v| v.created_at)
    }

    /// The newest row image regardless of snapshot (used by dumps).
    #[must_use]
    pub fn latest_image(&self) -> Option<&Row> {
        self.versions.last().and_then(|v| v.image.as_ref())
    }

    /// `true` if a version newer than `version` exists — the
    /// first-committer-wins check of snapshot isolation.
    #[must_use]
    pub fn modified_after(&self, version: Version) -> bool {
        self.latest_version().is_some_and(|latest| latest > version)
    }

    /// Number of versions retained.
    #[must_use]
    pub fn len(&self) -> usize {
        self.versions.len()
    }

    /// `true` if the chain holds no version at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.versions.is_empty()
    }

    /// Discards versions that can no longer be seen by any snapshot at or
    /// after `horizon`, keeping the newest version at or below the horizon.
    ///
    /// Returns the number of versions discarded.  This is the engine's
    /// equivalent of PostgreSQL's vacuum of old snapshots.
    pub fn prune_older_than(&mut self, horizon: Version) -> usize {
        // Find the newest version <= horizon; everything before it is dead.
        let mut keep_from = 0usize;
        for (i, v) in self.versions.iter().enumerate() {
            if v.created_at <= horizon {
                keep_from = i;
            } else {
                break;
            }
        }
        let removed = keep_from;
        if removed > 0 {
            self.versions.drain(0..removed);
        }
        removed
    }
}

/// All version chains of one table, ordered by key to support scans.
#[derive(Debug, Clone, Default)]
pub struct TableData {
    rows: BTreeMap<RowKey, VersionChain>,
}

impl TableData {
    /// Creates an empty table.
    #[must_use]
    pub fn new() -> Self {
        TableData::default()
    }

    /// Returns the version chain of a key, if the key has ever been written.
    #[must_use]
    pub fn chain(&self, key: &RowKey) -> Option<&VersionChain> {
        self.rows.get(key)
    }

    /// Returns the version chain of a key, creating it if necessary.
    pub fn chain_mut(&mut self, key: RowKey) -> &mut VersionChain {
        self.rows.entry(key).or_default()
    }

    /// The row image visible at `snapshot_version` for `key`.
    #[must_use]
    pub fn read(&self, key: &RowKey, snapshot_version: Version) -> Option<&Row> {
        self.rows.get(key).and_then(|c| c.visible_at(snapshot_version))
    }

    /// `true` if `key` was modified after `version`.
    #[must_use]
    pub fn modified_after(&self, key: &RowKey, version: Version) -> bool {
        self.rows.get(key).is_some_and(|c| c.modified_after(version))
    }

    /// Iterates `(key, row)` pairs visible at `snapshot_version`, in key order.
    pub fn scan_at(
        &self,
        snapshot_version: Version,
    ) -> impl Iterator<Item = (&RowKey, &Row)> {
        self.rows
            .iter()
            .filter_map(move |(k, c)| c.visible_at(snapshot_version).map(|r| (k, r)))
    }

    /// Number of keys that currently have at least one version.
    #[must_use]
    pub fn key_count(&self) -> usize {
        self.rows.len()
    }

    /// Prunes all chains against a snapshot horizon, returning the number of
    /// row versions discarded.
    pub fn prune_older_than(&mut self, horizon: Version) -> usize {
        self.rows
            .values_mut()
            .map(|c| c.prune_older_than(horizon))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(v: i64) -> Row {
        Row::from_columns(vec![("x".into(), Value::Int(v))])
    }

    #[test]
    fn row_get_set_and_updates() {
        let mut r = Row::new();
        assert!(r.is_empty());
        r.set("a", Value::Int(1));
        r.set("b", Value::Int(2));
        r.set("a", Value::Int(3));
        assert_eq!(r.len(), 2);
        assert_eq!(r.get("a"), Some(&Value::Int(3)));
        assert_eq!(r.get("missing"), None);
        let r2 = r.clone().with_updates(&[("b".into(), Value::Int(9))]);
        assert_eq!(r2.get("b"), Some(&Value::Int(9)));
        assert!(r.encoded_len() > 0);
    }

    #[test]
    fn chain_visibility_follows_snapshot() {
        let mut c = VersionChain::new();
        assert!(c.is_empty());
        c.install(Version(2), Some(row(20)));
        c.install(Version(5), Some(row(50)));
        assert_eq!(c.len(), 2);
        // Snapshot 1 predates the first version: nothing visible.
        assert!(c.visible_at(Version(1)).is_none());
        assert_eq!(c.visible_at(Version(2)).unwrap().get("x"), Some(&Value::Int(20)));
        assert_eq!(c.visible_at(Version(4)).unwrap().get("x"), Some(&Value::Int(20)));
        assert_eq!(c.visible_at(Version(5)).unwrap().get("x"), Some(&Value::Int(50)));
        assert_eq!(c.visible_at(Version(99)).unwrap().get("x"), Some(&Value::Int(50)));
        assert_eq!(c.latest_version(), Some(Version(5)));
    }

    #[test]
    fn deletion_tombstones_hide_rows() {
        let mut c = VersionChain::new();
        c.install(Version(1), Some(row(1)));
        c.install(Version(3), None);
        assert!(c.visible_at(Version(2)).is_some());
        assert!(c.visible_at(Version(3)).is_none());
        assert!(c.visible_at(Version(10)).is_none());
        assert_eq!(c.latest_image(), None);
    }

    #[test]
    fn modified_after_is_first_committer_wins_check() {
        let mut c = VersionChain::new();
        c.install(Version(4), Some(row(4)));
        assert!(c.modified_after(Version(3)));
        assert!(!c.modified_after(Version(4)));
        assert!(!c.modified_after(Version(9)));
    }

    #[test]
    fn prune_keeps_visible_versions() {
        let mut c = VersionChain::new();
        c.install(Version(1), Some(row(1)));
        c.install(Version(2), Some(row(2)));
        c.install(Version(5), Some(row(5)));
        let removed = c.prune_older_than(Version(4));
        assert_eq!(removed, 1); // Version 1 is dead; version 2 is still the visible one at 4.
        assert_eq!(c.visible_at(Version(4)).unwrap().get("x"), Some(&Value::Int(2)));
        assert_eq!(c.visible_at(Version(5)).unwrap().get("x"), Some(&Value::Int(5)));
        // Pruning at a horizon past everything keeps only the newest version.
        let removed = c.prune_older_than(Version(100));
        assert_eq!(removed, 1);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn table_data_read_scan_and_prune() {
        let mut t = TableData::new();
        t.chain_mut(RowKey::Int(1)).install(Version(1), Some(row(10)));
        t.chain_mut(RowKey::Int(2)).install(Version(2), Some(row(20)));
        t.chain_mut(RowKey::Int(2)).install(Version(3), Some(row(21)));
        assert_eq!(t.key_count(), 2);
        assert_eq!(
            t.read(&RowKey::Int(2), Version(2)).unwrap().get("x"),
            Some(&Value::Int(20))
        );
        assert!(t.read(&RowKey::Int(3), Version(9)).is_none());
        assert!(t.modified_after(&RowKey::Int(2), Version(2)));
        assert!(!t.modified_after(&RowKey::Int(1), Version(1)));

        let visible: Vec<i64> = t
            .scan_at(Version(1))
            .map(|(_, r)| r.get("x").unwrap().as_int().unwrap())
            .collect();
        assert_eq!(visible, vec![10]);
        let visible: Vec<i64> = t
            .scan_at(Version(3))
            .map(|(_, r)| r.get("x").unwrap().as_int().unwrap())
            .collect();
        assert_eq!(visible, vec![10, 21]);

        let removed = t.prune_older_than(Version(3));
        assert_eq!(removed, 1);
        assert!(t.chain(&RowKey::Int(2)).is_some());
    }
}
