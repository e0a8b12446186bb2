//! Table catalogue.
//!
//! The engine is intentionally schema-light: a table has a name, a dense
//! [`TableId`] and a list of column names.  Column names are only used for
//! writeset payloads and for dumps; rows themselves are free-form column
//! maps so that the three benchmark schemas (AllUpdates, TPC-B, TPC-W) can
//! all be expressed without a type system.

use std::collections::HashMap;

use tashkent_common::TableId;

/// Definition of one replicated table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableSchema {
    /// Dense identifier used inside writesets.
    pub id: TableId,
    /// Human-readable name.
    pub name: String,
    /// Declared columns (informational; rows may carry any columns).
    pub columns: Vec<String>,
}

/// The set of tables known to a database.
#[derive(Debug, Clone, Default)]
pub struct Catalog {
    tables: Vec<TableSchema>,
    by_name: HashMap<String, TableId>,
}

impl Catalog {
    /// Creates an empty catalogue.
    #[must_use]
    pub fn new() -> Self {
        Catalog::default()
    }

    /// Registers a table and returns its identifier.
    ///
    /// Registering an existing name returns the existing identifier; the
    /// column list of the first registration wins.  This makes catalogue
    /// creation idempotent, which simplifies replica recovery (the proxy can
    /// simply re-run the schema setup).
    pub fn create_table(&mut self, name: &str, columns: &[&str]) -> TableId {
        if let Some(&id) = self.by_name.get(name) {
            return id;
        }
        let id = TableId(self.tables.len() as u32);
        self.tables.push(TableSchema {
            id,
            name: name.to_owned(),
            columns: columns.iter().map(|c| (*c).to_owned()).collect(),
        });
        self.by_name.insert(name.to_owned(), id);
        id
    }

    /// Looks a table up by name.
    #[must_use]
    pub fn table_id(&self, name: &str) -> Option<TableId> {
        self.by_name.get(name).copied()
    }

    /// Returns the schema of a table.
    #[must_use]
    pub fn schema(&self, id: TableId) -> Option<&TableSchema> {
        self.tables.get(id.0 as usize)
    }

    /// Returns the name of a table, or a placeholder for unknown ids.
    #[must_use]
    pub fn table_name(&self, id: TableId) -> &str {
        self.schema(id).map_or("<unknown>", |s| s.name.as_str())
    }

    /// Number of registered tables.
    #[must_use]
    pub fn len(&self) -> usize {
        self.tables.len()
    }

    /// `true` if no table has been registered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }

    /// Iterates over all registered tables.
    pub fn iter(&self) -> impl Iterator<Item = &TableSchema> {
        self.tables.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_and_lookup() {
        let mut c = Catalog::new();
        assert!(c.is_empty());
        let a = c.create_table("accounts", &["balance"]);
        let b = c.create_table("tellers", &["balance"]);
        assert_ne!(a, b);
        assert_eq!(c.len(), 2);
        assert_eq!(c.table_id("accounts"), Some(a));
        assert_eq!(c.table_id("missing"), None);
        assert_eq!(c.table_name(a), "accounts");
        assert_eq!(c.table_name(TableId(99)), "<unknown>");
        assert_eq!(c.schema(a).unwrap().columns, vec!["balance".to_string()]);
    }

    #[test]
    fn create_is_idempotent() {
        let mut c = Catalog::new();
        let a = c.create_table("accounts", &["balance"]);
        let a2 = c.create_table("accounts", &["other"]);
        assert_eq!(a, a2);
        assert_eq!(c.len(), 1);
        // First registration's columns win.
        assert_eq!(c.schema(a).unwrap().columns, vec!["balance".to_string()]);
    }

    #[test]
    fn iter_visits_all_tables() {
        let mut c = Catalog::new();
        c.create_table("a", &[]);
        c.create_table("b", &[]);
        let names: Vec<_> = c.iter().map(|s| s.name.clone()).collect();
        assert_eq!(names, vec!["a", "b"]);
    }
}
