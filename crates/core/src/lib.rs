//! Tashkent: replicated snapshot-isolated databases that unite durability
//! with transaction ordering.
//!
//! This crate is the public API of the reproduction of *"Tashkent: Uniting
//! Durability with Transaction Ordering for High-Performance Scalable
//! Database Replication"* (EuroSys 2006).  It assembles the storage engine
//! ([`tashkent_storage`]), the certifier ([`tashkent_certifier`]) and the
//! transparent proxy ([`tashkent_proxy`]) into a running in-process cluster
//! of database replicas that clients talk to exactly as they would talk to a
//! single snapshot-isolated database.
//!
//! Three replication designs are available, selected by
//! [`SystemKind`]:
//!
//! * [`SystemKind::Base`] — ordering in the middleware, durability in the
//!   database, serial commits (the control system).
//! * [`SystemKind::TashkentMw`] — durability moved into the certifier's
//!   group-committed log; replica commits become in-memory operations.
//! * [`SystemKind::TashkentApi`] — durability stays in the database, which
//!   is handed the global commit order through the extended `COMMIT <seq>`
//!   API so it can group commit records while announcing commits in order.
//!
//! # Quick start
//!
//! ```
//! use tashkent::{Cluster, ClusterConfig, SystemKind, Value};
//!
//! // A two-replica Tashkent-MW cluster with an in-process certifier group.
//! let cluster = Cluster::new(ClusterConfig::small(SystemKind::TashkentMw)).unwrap();
//! let accounts = cluster.create_table("accounts", &["balance"]);
//!
//! // Write through replica 0.
//! let session = cluster.session(0);
//! let tx = session.begin();
//! tx.insert(accounts, 1, vec![("balance".into(), Value::Int(100))]).unwrap();
//! tx.commit().unwrap();
//!
//! // Read the same row through replica 1 after it synchronises.
//! cluster.sync_all().unwrap();
//! let session = cluster.session(1);
//! let tx = session.begin();
//! let row = tx.read(accounts, 1).unwrap().unwrap();
//! assert_eq!(row.get("balance"), Some(&Value::Int(100)));
//! tx.commit().unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bundle;
pub mod cluster;
pub mod flight;
pub mod replica;
pub mod trimmer;
pub mod watchdog;

pub use bundle::DiagnosticBundle;
pub use cluster::Cluster;
pub use flight::{FlightRecorder, FlightSample};
pub use replica::ReplicaNode;
pub use trimmer::{Trimmer, DEFAULT_TRIM_INTERVAL};
pub use watchdog::{detect, AnomalyKind, FiredAnomaly, Verdict, Watchdog, WatchdogConfig};

pub use tashkent_certifier::{Certifier, CertifierConfig, CertifierNodeId, ShardedCertifierConfig};
pub use tashkent_common::{
    chrome_trace_json, text_timeline, ClusterConfig, CommitPathTrace, Component, CounterId, Error,
    Event, EventKind, GaugeId, IoChannelMode, MetricsRegistry, MetricsSnapshot, ReplicaId, Result,
    RowKey, ShardId, ShardMap, Stage, SyncMode, SystemKind, TableId, TransportKind, Value,
    Version, WriteSet,
};
pub use tashkent_proxy::{CertifierHandle, CommitOutcome, Proxy, ProxyConfig, ProxyTransaction};
pub use tashkent_storage::{Database, EngineConfig, Row};
