//! The transparent replication proxy.
//!
//! A proxy sits in front of each database replica and intercepts database
//! requests: it appears as the database to clients and as a client to the
//! database (Section 4.1).  The proxy tracks the replica's version, keeps a
//! small amount of state per active transaction, invokes certification at
//! commit time, applies the remote writesets returned by the certifier and
//! finally commits or aborts the local transaction — following one of three
//! pipelines:
//!
//! * **Base** — remote writesets and the local commit are submitted serially;
//!   the database performs a synchronous commit-record write for each, so two
//!   fsyncs sit in the critical path of every local update transaction.
//! * **Tashkent-MW** — the same serial pipeline, but the replica runs with
//!   synchronous writes disabled (durability lives in the certifier log), so
//!   the serial commits are fast in-memory operations.
//! * **Tashkent-API** — remote writesets and the local commit are submitted
//!   *concurrently* using the extended `COMMIT <seq>` API; the database
//!   groups their commit records into a single fsync while announcing them in
//!   global order.  Remote writesets that would create an "artificial"
//!   conflict (Section 5.2.1) are serialised behind the conflicting version.
//!
//! The proxy also implements Section 6.2's local certification and refresh
//! (a stream with a gap is refused; an empty one may mean the wire failed),
//! and the soft-recovery / replica-recovery procedures of Sections 7 and 8.
//! Section 8.2's remote priority over local transactions lives in the
//! engine's row lock, not here.
//!
//! All pipelines talk to the certifier through the [`fanout::CertifierHandle`],
//! which hides whether certification is served by the single certifier of
//! the paper or by the sharded certifier (per-shard streams merged back into
//! one global version order on this side of the wire).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fanout;
pub mod proxy;
pub mod recovery;
pub mod seen;

pub use fanout::{CertifierHandle, CertifierService};
pub use proxy::{CommitOutcome, Proxy, ProxyConfig, ProxyTransaction};
pub use recovery::recover_replica;
pub use seen::SeenWriteSets;
