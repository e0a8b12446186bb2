//! Full-database dumps ("DUMP DATA", Section 8.1).
//!
//! Tashkent-MW disables all synchronous WAL writes at the replicas, which on
//! engines like PostgreSQL also voids *physical data integrity* after a
//! crash.  Section 7.1 compensates with a complete copy of a committed
//! snapshot, stamped with its version, that the replica restarts from before
//! the middleware re-applies the writesets committed since.
//!
//! A [`DatabaseDump`] is such a copy: every table's visible rows at one
//! version, together with the version itself, serialisable to a checksummed
//! byte image.  Dumps are taken only as the payload of a sealed checkpoint
//! ([`crate::checkpoint`]); replica recovery restores the best intact one on
//! every system, not only on Tashkent-MW.

use tashkent_common::codec::{FrameLayout, Reader, Writer};
use tashkent_common::{Result, RowKey, Version};

use crate::codec;
use crate::engine::Database;
use crate::row::{Row, TableData};
use crate::schema::Catalog;

/// One table's portion of a dump.
#[derive(Debug, Clone, PartialEq)]
pub struct DumpTable {
    /// Table name.
    pub name: String,
    /// Declared columns.
    pub columns: Vec<String>,
    /// Every visible row at the dump version, in key order.
    pub rows: Vec<(RowKey, Row)>,
}

/// A consistent copy of the whole database at one committed version.
#[derive(Debug, Clone, PartialEq)]
pub struct DatabaseDump {
    version: Version,
    tables: Vec<DumpTable>,
}

impl DatabaseDump {
    /// Captures a dump from the engine's internal state (called by
    /// [`Database::dump`]).
    #[must_use]
    pub fn capture(catalog: &Catalog, tables: &[TableData], version: Version) -> Self {
        let mut out = Vec::new();
        for schema in catalog.iter() {
            let data = tables.get(schema.id.0 as usize);
            let rows = data.map_or_else(Vec::new, |t| {
                t.scan_at(version)
                    .map(|(k, r)| (k.clone(), r.clone()))
                    .collect()
            });
            out.push(DumpTable {
                name: schema.name.clone(),
                columns: schema.columns.clone(),
                rows,
            });
        }
        DatabaseDump {
            version,
            tables: out,
        }
    }

    /// The committed version this dump captures.
    #[must_use]
    pub fn version(&self) -> Version {
        self.version
    }

    /// The per-table contents.
    #[must_use]
    pub fn tables(&self) -> &[DumpTable] {
        &self.tables
    }

    /// Total number of rows across all tables.
    #[must_use]
    pub fn row_count(&self) -> usize {
        self.tables.iter().map(|t| t.rows.len()).sum()
    }

    /// Loads the dump into an (empty) database: re-creates the schema and
    /// bulk-loads every row at the dump version.
    pub fn load_into(&self, db: &Database) {
        for table in &self.tables {
            let columns: Vec<&str> = table.columns.iter().map(String::as_str).collect();
            let id = db.create_table(&table.name, &columns);
            db.bulk_load(id, table.rows.clone(), self.version);
        }
    }

    /// Serialises the dump to a checksummed byte image (the dump *file* the
    /// proxy stores, together with the version and an end-of-file marker).
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        DUMP.write(&mut out, 0, |body| {
            codec::encode_version(body, self.version);
            body.put_u32(self.tables.len() as u32);
            for table in &self.tables {
                body.put_str16(&table.name);
                body.put_u16(table.columns.len() as u16);
                for column in &table.columns {
                    body.put_str16(column);
                }
                body.put_u32(table.rows.len() as u32);
                for (key, row) in &table.rows {
                    codec::encode_key(body, key);
                    codec::encode_row(body, row);
                }
            }
        });
        out
    }

    /// Parses a dump image produced by [`DatabaseDump::to_bytes`].
    ///
    /// # Errors
    ///
    /// Returns [`Corruption`](tashkent_common::Error::Corruption) if the
    /// image is truncated (e.g. the database crashed while dumping), its
    /// checksum does not match, or its contents cannot be decoded, and
    /// [`Protocol`](tashkent_common::Error::Protocol) if it is not a dump
    /// image at all.  The caller then falls back to the previous dump,
    /// exactly as Section 7.1 prescribes.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        let (_, body) = DUMP.read_image(bytes)?;
        let mut r = Reader::new(body);
        let version = codec::decode_version(&mut r)?;
        let table_count = r.u32("dump table count")? as usize;
        let tables = r.vec(table_count, |r| {
            let name = r.str16("dump table name")?;
            let column_count = r.u16("dump column count")? as usize;
            let columns = r.vec(column_count, |r| r.str16("dump column name"))?;
            let row_count = r.u32("dump row count")? as usize;
            let rows = r.vec(row_count, |r| Ok((codec::decode_key(r)?, codec::decode_row(r)?)))?;
            Ok(DumpTable { name, columns, rows })
        })?;
        Ok(DatabaseDump { version, tables })
    }
}

/// A dump image: `TKDP ‖ length ‖ checksum ‖ body`.
const DUMP: FrameLayout = FrameLayout::new("dump", b"TKDP", 0);

#[cfg(test)]
mod tests {
    use tashkent_common::Value;

    use super::*;
    use crate::engine::EngineConfig;

    fn populated_db(rows: i64) -> Database {
        let db = Database::new(EngineConfig::default());
        let accounts = db.create_table("accounts", &["balance"]);
        let history = db.create_table("history", &["delta"]);
        for i in 0..rows {
            let tx = db.begin();
            tx.insert(accounts, i, vec![("balance".into(), Value::Int(i * 10))])
                .unwrap();
            tx.insert(history, (i, i), vec![("delta".into(), Value::Int(i))])
                .unwrap();
            tx.commit().unwrap();
        }
        db
    }

    #[test]
    fn dump_captures_all_visible_rows() {
        let db = populated_db(25);
        let dump = db.dump();
        assert_eq!(dump.version(), Version(25));
        assert_eq!(dump.tables().len(), 2);
        assert_eq!(dump.row_count(), 50);
        assert_eq!(dump.tables()[0].name, "accounts");
        assert_eq!(dump.tables()[0].rows.len(), 25);
    }

    #[test]
    fn dump_roundtrips_through_bytes() {
        let db = populated_db(10);
        let dump = db.dump();
        let bytes = dump.to_bytes();
        let parsed = DatabaseDump::from_bytes(&bytes).unwrap();
        assert_eq!(parsed, dump);
    }

    #[test]
    fn truncated_or_corrupt_dumps_are_rejected() {
        let db = populated_db(5);
        let bytes = db.dump().to_bytes();
        // Truncation at every prefix length either errors or never panics.
        for cut in 0..bytes.len() {
            assert!(
                DatabaseDump::from_bytes(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes unexpectedly parsed"
            );
        }
        // Bit flip in the body fails the checksum.
        let mut corrupted = bytes.clone();
        let last = corrupted.len() - 1;
        corrupted[last] ^= 0xFF;
        assert!(DatabaseDump::from_bytes(&corrupted).is_err());
        // Wrong magic.
        let mut wrong_magic = bytes;
        wrong_magic[0] = b'X';
        assert!(DatabaseDump::from_bytes(&wrong_magic).is_err());
    }

    #[test]
    fn restore_reproduces_contents_and_version() {
        let db = populated_db(12);
        let dump = db.dump();
        let restored = Database::restore_from_dump(EngineConfig::default(), &dump);
        assert_eq!(restored.version(), Version(12));
        let accounts = restored.table_id("accounts").unwrap();
        let history = restored.table_id("history").unwrap();
        assert_eq!(restored.row_count(accounts), 12);
        assert_eq!(restored.row_count(history), 12);
        let row = restored.read_latest(accounts, 7).unwrap();
        assert_eq!(row.get("balance"), Some(&Value::Int(70)));
    }

    #[test]
    fn dump_is_a_consistent_snapshot_despite_later_commits() {
        let db = populated_db(5);
        let accounts = db.table_id("accounts").unwrap();
        let dump = db.dump();
        // Commit more transactions after the dump.
        for i in 100..105 {
            let tx = db.begin();
            tx.insert(accounts, i, vec![("balance".into(), Value::Int(i))])
                .unwrap();
            tx.commit().unwrap();
        }
        // The dump still reflects the earlier version.
        assert_eq!(dump.version(), Version(5));
        assert_eq!(dump.tables()[0].rows.len(), 5);
        let restored = Database::restore_from_dump(EngineConfig::default(), &dump);
        assert_eq!(restored.row_count(restored.table_id("accounts").unwrap()), 5);
    }
}
