//! Shared vocabulary types for the Tashkent replicated database reproduction.
//!
//! This crate defines the types that flow between every component of the
//! system described in *"Tashkent: Uniting Durability with Transaction
//! Ordering for High-Performance Scalable Database Replication"*
//! (Elnikety, Dropsho, Pedone — EuroSys 2006):
//!
//! * [`codec`] — the one binary codec every on-disk and wire format is
//!   built from: the FNV-1a checksum, checked big-endian reads with bounded
//!   pre-allocation, `Vec<u8>` writers and the checksummed frame.
//! * [`ids`] — identifiers and the global [`ids::Version`] counter that names
//!   database snapshots.
//! * [`value`] — the column value model used by the storage engine and by
//!   writesets.
//! * [`writeset`] — writeset representation and the intersection test that
//!   the certifier uses to detect write-write conflicts.
//! * [`config`] — the replication system variants (`Base`, `Tashkent-MW`,
//!   `Tashkent-API`), WAL synchronisation modes, IO-channel layouts and
//!   whole-cluster configuration.
//! * [`shard`] — the deterministic key→shard map of the sharded certification
//!   subsystem.
//! * [`error`] — the common error type.
//! * [`stats`] — latency histograms, counters and throughput meters used by
//!   the benchmark harness and by the examples.
//! * [`metrics`] — the cluster-wide metrics registry and commit-path
//!   tracing (the flight recorder's data plane).
//! * [`events`] — the causal event journal: typed events with causal ids
//!   in lock-free bounded rings, merged timelines, Chrome-trace export.
//!
//! Everything here is deliberately free of threads and IO so that both the
//! real multi-threaded engine (`tashkent-storage`, `tashkent-certifier`,
//! `tashkent-proxy`, `tashkent`) and the discrete-event performance model
//! (`tashkent-sim`) can share it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod config;
pub mod error;
pub mod events;
pub mod ids;
pub mod metrics;
pub mod shard;
pub mod stats;
pub mod value;
pub mod writeset;

pub use config::{ClusterConfig, IoChannelMode, SyncMode, SystemKind, TransportKind};
pub use error::{Error, Result};
pub use events::{
    chrome_trace_json, merge_timelines, text_timeline, Component, Event, EventKind, EventRing,
};
pub use ids::{ClientId, ReplicaId, TxId, Version};
pub use metrics::{
    CommitPathTrace, CounterId, GaugeId, MetricsRegistry, MetricsSnapshot, Stage, TraceTimer,
};
pub use shard::{footprint_hash, ShardId, ShardMap, MAX_SHARDS};
pub use value::Value;
pub use stats::{GroupCommitStats, LatencyHistogram, RunStats, Series, SeriesPoint};
pub use writeset::{RowKey, TableId, VersionedWriteSet, WriteItem, WriteOp, WriteSet};
