//! A snapshot-isolated, multi-version storage engine with write-ahead
//! logging, group commit, externally ordered commits and crash recovery.
//!
//! This crate is the PostgreSQL stand-in of the Tashkent reproduction.  The
//! replication protocol in the paper only relies on three properties of the
//! underlying database (Section 3):
//!
//! 1. it supports the snapshot-isolation concurrency-control model,
//! 2. it can capture and extract the writesets of update transactions, and
//! 3. synchronous writes to disk can be enabled or disabled.
//!
//! The engine here provides exactly these, plus the one extension the paper
//! adds for Tashkent-API: a commit that carries an explicit global sequence
//! number (`COMMIT <seq>`, see [`engine::TxHandle::commit_ordered`]), which
//! lets the middleware submit commits concurrently while the engine groups
//! the commit records into a single synchronous write and *announces* the
//! commits in the prescribed order.
//!
//! # Architecture
//!
//! * [`schema`] — table catalogue.
//! * [`row`] — multi-version row chains and snapshot visibility.
//! * [`disk`] — the simulated log device (configurable fsync latency, shared
//!   vs dedicated IO channel, crash semantics).
//! * [`codec`] — the binary layouts of values, keys, rows, writesets and
//!   versions, built on the shared `tashkent_common::codec` reader, writer
//!   and checksummed frame that every log record, dump and checkpoint uses.
//! * [`wal`] — write-ahead log records, the group-commit writer and replay.
//! * [`locks`] — row-level write locks with wait-for-graph deadlock
//!   detection (PostgreSQL acquires write locks eagerly, which is what makes
//!   the local-vs-remote writeset deadlock of Section 8.2 possible).
//! * [`txn`] — per-transaction state: snapshot, write buffer, captured
//!   writeset.
//! * [`engine`] — the [`engine::Database`] façade: begin / read / write /
//!   commit / ordered commit / apply-writeset / dump / crash / recover.
//! * [`dump`] — full-database dumps used by Tashkent-MW replica recovery.
//! * [`checkpoint`] — sealed, versioned checkpoint images behind an atomic
//!   manifest pointer flip; the durable artifact watermark-driven log
//!   truncation restarts from.
//!
//! # Example
//!
//! ```
//! use tashkent_storage::{Database, EngineConfig};
//! use tashkent_common::Value;
//!
//! let db = Database::new(EngineConfig::default());
//! let accounts = db.create_table("accounts", &["balance"]);
//!
//! // Load one row.
//! let tx = db.begin();
//! tx.insert(accounts, 1, vec![("balance".into(), Value::Int(100))]).unwrap();
//! tx.commit().unwrap();
//!
//! // Update it in a second transaction and inspect the captured writeset.
//! let tx = db.begin();
//! let row = tx.read(accounts, 1).unwrap().unwrap();
//! let balance = row.get("balance").unwrap().as_int().unwrap();
//! tx.update(accounts, 1, vec![("balance".into(), Value::Int(balance - 10))]).unwrap();
//! let ws = tx.writeset();
//! assert_eq!(ws.len(), 1);
//! tx.commit().unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;
pub mod codec;
pub mod disk;
pub mod dump;
pub mod engine;
pub mod locks;
pub mod row;
pub mod schema;
pub mod txn;
pub mod wal;

pub use checkpoint::{CheckpointStore, SealedCheckpoint};
pub use disk::{DiskStats, LogDevice, SimulatedDisk};
pub use dump::DatabaseDump;
pub use engine::{Database, EngineConfig, TxHandle};
pub use row::Row;
pub use schema::TableSchema;
pub use wal::{WalRecord, WalWriter};
