//! Watermark-driven checkpointing and log truncation.
//!
//! Without truncation the certifier's ordered log and every replica's WAL
//! grow without bound — fine for a benchmark run, fatal for a long-lived
//! cluster.  This module computes the cluster-wide **truncation watermark**
//! and advances it from a background [`Trimmer`] thread:
//!
//! ```text
//! watermark = min( every live replica's installed version,
//!                  every replica's newest sealed checkpoint,
//!                  the certifier's newest sealed checkpoint )
//! ```
//!
//! The first term keeps the log suffix every *live* replica still needs to
//! catch up (an empty fetch may mean the wire failed; `Cluster::sync_all`
//! compares versions).  The second term is the recovery guarantee: a
//! crashed replica restarts from its newest checkpoint image, so the
//! watermark may never pass a checkpoint any replica would have to recover
//! from — including replicas that are currently down.  The third term
//! guarantees the certifier itself can rebuild its trimmed prefix from an
//! image during incremental state transfer.
//!
//! Each layer additionally clamps to its *own* newest checkpoint when it
//! actually drops records ([`tashkent_certifier::Certifier::truncate_below`]
//! per shard, [`crate::ReplicaNode::truncate_wal_below`]), so the cluster-wide
//! watermark is a liveness optimisation, not the only line of defence.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use tashkent_common::metrics::{CounterId, GaugeId};
use tashkent_common::{MetricsRegistry, Result, Version};
use tashkent_proxy::CertifierHandle;

use crate::periodic::Periodic;
use crate::replica::ReplicaNode;

/// Default checkpoint-and-trim cadence of the background trimmer.
pub const DEFAULT_TRIM_INTERVAL: Duration = Duration::from_millis(25);

/// Seals a durable checkpoint on every live replica and on every certifier
/// shard, counting each sealed image in `CounterId::CheckpointsSealed`.
/// Crashed replicas are skipped — their newest earlier image keeps holding
/// the watermark back until they recover.  Returns the version stamped on
/// the certifier's images.
pub(crate) fn seal_checkpoints(
    certifier: &CertifierHandle,
    replicas: &[Arc<ReplicaNode>],
    metrics: &MetricsRegistry,
) -> Version {
    let mut sealed = 0u64;
    for replica in replicas {
        if !replica.is_crashed() {
            let _ = replica.seal_checkpoint();
            sealed += 1;
        }
    }
    let certifier = certifier.local();
    let version = certifier.seal_checkpoint();
    sealed += certifier.shard_count() as u64;
    metrics.add(CounterId::CheckpointsSealed, sealed);
    version
}

/// The highest version the cluster may truncate up to (inclusive); see the
/// module docs for the rule.  [`Version::ZERO`] until every replica and the
/// certifier have sealed at least one checkpoint.
pub(crate) fn watermark(certifier: &CertifierHandle, replicas: &[Arc<ReplicaNode>]) -> Version {
    let mut watermark = Version(u64::MAX);
    for replica in replicas {
        // Every replica — up or down — must be able to restart from its
        // newest checkpoint and catch up from there.
        watermark = watermark.min(replica.checkpoint_version());
        if !replica.is_crashed() {
            // A live replica still fetches the suffix past its installed
            // version on every refresh.
            watermark = watermark.min(replica.version());
        }
    }
    watermark.min(certifier.local().checkpoint_version())
}

/// Truncates the certifier shard logs and every live replica's WAL below
/// the current watermark, updating the trim counters and the
/// `TruncationWatermark` gauge.  Returns `(certifier entries, WAL records)`
/// dropped.
pub(crate) fn trim(
    certifier: &CertifierHandle,
    replicas: &[Arc<ReplicaNode>],
    metrics: &MetricsRegistry,
) -> Result<(usize, usize)> {
    let watermark = watermark(certifier, replicas);
    if watermark.is_zero() {
        return Ok((0, 0));
    }
    let entries = certifier.local().truncate_below(watermark)?;
    let mut wal_records = 0usize;
    for replica in replicas {
        if !replica.is_crashed() {
            wal_records += replica.truncate_wal_below(watermark)?;
        }
    }
    if entries > 0 {
        metrics.add(CounterId::TrimmedLogEntries, entries as u64);
    }
    if wal_records > 0 {
        metrics.add(CounterId::TrimmedWalRecords, wal_records as u64);
    }
    metrics.gauge_set(
        GaugeId::TruncationWatermark,
        i64::try_from(watermark.0).unwrap_or(i64::MAX),
    );
    Ok((entries, wal_records))
}

/// A background thread that periodically seals checkpoints and advances the
/// truncation watermark over a cluster's replicas and certifier.
///
/// Dropping the trimmer stops and joins the thread.  Trim errors (a
/// certifier group rewrite failing mid-fault-schedule, say) are swallowed:
/// truncation is garbage collection, and the next cycle retries.
pub struct Trimmer {
    cycles: Arc<AtomicU64>,
    thread: Periodic,
}

impl std::fmt::Debug for Trimmer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Trimmer")
            .field("cycles", &self.cycles())
            .finish()
    }
}

impl Trimmer {
    /// Starts checkpointing and trimming every `interval`.
    #[must_use]
    pub fn start(
        certifier: CertifierHandle,
        replicas: Vec<Arc<ReplicaNode>>,
        metrics: Arc<MetricsRegistry>,
        interval: Duration,
    ) -> Self {
        let cycles = Arc::new(AtomicU64::new(0));
        let counted = Arc::clone(&cycles);
        let thread = Periodic::start("truncation-trimmer", interval, move || {
            seal_checkpoints(&certifier, &replicas, &metrics);
            let _ = trim(&certifier, &replicas, &metrics);
            counted.fetch_add(1, Ordering::Relaxed);
        });
        Trimmer { cycles, thread }
    }

    /// Number of completed checkpoint-and-trim cycles.
    #[must_use]
    pub fn cycles(&self) -> u64 {
        self.cycles.load(Ordering::Relaxed)
    }

    /// Stops the trimmer and joins its thread (also done on drop).
    pub fn stop(&mut self) {
        self.thread.stop();
    }
}
