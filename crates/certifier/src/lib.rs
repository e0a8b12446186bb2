//! The GSI certifier of the Tashkent reproduction.
//!
//! The certifier is the replication middleware component that receives
//! certification requests from every replica's proxy, detects write-write
//! conflicts by intersecting writesets, assigns the global total order of
//! update-transaction commits, and records certified writesets in a
//! persistent log (Sections 4.2 and 6.1 of the paper).
//!
//! Its persistent log plays a double role:
//!
//! * in every system it allows the certifier itself to recover (crash-recovery
//!   model), and
//! * in **Tashkent-MW** it *is* the durable copy of every committed update
//!   transaction, because the replicas run with synchronous WAL writes
//!   disabled.
//!
//! The certifier is replicated for availability across a small group of
//! nodes using a Paxos-style majority protocol ([`paxos`]): the leader
//! certifies, ships the new log entries to all certifier nodes, and declares
//! transactions committed once a majority has written them to disk
//! (Section 7.3).
//!
//! Modules:
//!
//! * [`batch`] — the leader–follower epoch queue behind batched
//!   certification: concurrent requests are drained in epochs and certified
//!   in one pass (one lock acquisition, one log traversal, one grouped
//!   durable append), with decisions identical to the serial scan.
//! * [`log`] — the in-memory certified-writeset log with cached footprints,
//!   suffix conflict checks and the extended ("how far back is this writeset
//!   conflict-free") queries needed by Tashkent-API.
//! * [`paxos`] — the replicated durable log: leader, majority
//!   acknowledgement, node crash / recovery / state transfer.
//! * [`certifier`] — the [`certifier::Certifier`] used by proxies: its
//!   request / response types and the one certification engine, N shards
//!   (one by default) behind a global commit-version sequencer, each with
//!   its own log, replicated durable log and checkpoints.  Certification
//!   has two paths: the direct ordered two-phase certify and the per-shard
//!   two-phase epoch.
//! * [`sharded`] — [`sharded::ShardedCertifierConfig`] and the fan-in
//!   ([`sharded::merge_shard_streams`]) that reassembles per-shard version
//!   streams into the one totally-ordered stream replicas apply.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod certifier;
pub mod log;
pub mod paxos;
pub mod sharded;

pub use batch::{EpochQueue, Slot};
pub use certifier::{
    CertificationDecision, CertificationRequest, CertificationResponse, Certifier, CertifierConfig,
    RemoteWriteSet,
};
pub use log::CertifierLog;
pub use paxos::{CertifierNodeId, ReplicatedLog, ReplicatedLogStats};
pub use sharded::{merge_shard_streams, ShardStream, ShardedCertifier, ShardedCertifierConfig};
