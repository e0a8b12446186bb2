//! The transparent replication proxy.
//!
//! A proxy sits in front of each database replica and intercepts database
//! requests: it appears as the database to clients and as a client to the
//! database (Section 4.1).  The proxy tracks the replica's version, keeps a
//! small amount of state per active transaction, invokes certification at
//! commit time, applies the remote writesets returned by the certifier and
//! finally commits or aborts the local transaction.  One pipeline serves all
//! three systems: every install and every certified local commit takes a
//! dense order index and is announced in that order through the extended
//! `COMMIT <seq>` API, and each install begins at its announce turn.
//!
//! * **Base** — the round's remote writesets install as one group on the
//!   committing thread, then the local commit; each flushes its commit
//!   record inside its announce turn, so two fsyncs sit in the critical
//!   path of every local update transaction.
//! * **Tashkent-MW** — the same, but the replica runs with synchronous
//!   writes disabled (durability lives in the certifier log), so the
//!   commits are fast in-memory operations.
//! * **Tashkent-API** — remote writesets install *concurrently* with the
//!   local commit, one thread each; the local commit flushes before its
//!   turn, so concurrent commits share one fsync, and installs only append.
//!   Remote writesets that would create an "artificial" conflict (Section
//!   5.2.1) are submitted only after every earlier install has finished.
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
