//! The proxy's handle on the certifier.
//!
//! [`CertifierHandle`] is the proxy's uniform view of "the certifier": the
//! in-process [`Certifier`], or one reached across a wire through a
//! [`CertifierService`].  Either way the commit pipelines see one gap-free,
//! totally-ordered stream of remote writesets — with several certification
//! shards, [`Certifier::writesets_after`] fans out to every shard's version
//! stream and fans in by global commit version
//! ([`tashkent_certifier::merge_shard_streams`]) — so `apply_remotes_serial`
//! and `commit_concurrent` are oblivious to sharding and transport.

use std::sync::Arc;

use tashkent_certifier::{
    CertificationRequest, CertificationResponse, Certifier, CertifierNodeId, RemoteWriteSet,
    ReplicatedLogStats,
};
use tashkent_common::{Result, ShardId, Version, WriteSet};

/// The certification *data plane* as seen from across a wire.
///
/// These are exactly the operations a replica's proxy performs per
/// transaction (or during recovery catch-up) — the ones that must travel
/// when the certifier is a remote process.  `tashkent-net` implements this
/// trait with a framed wire protocol; everything else on
/// [`CertifierHandle`] is control plane (fault injection, checkpointing,
/// log inspection) and stays on the colocated in-process handle.
pub trait CertifierService: Send + Sync {
    /// Certifies an update transaction.
    ///
    /// # Errors
    ///
    /// Returns [`tashkent_common::Error::Unavailable`] if the certifier has
    /// lost its majority *or* the wire to it is down.
    fn certify(&self, request: &CertificationRequest) -> Result<CertificationResponse>;

    /// The remote writesets committed after `since`, in ascending global
    /// version order.  Returns an empty stream when the wire is down (the
    /// proxy's bounded-staleness refresh retries later).
    fn writesets_after(&self, since: Version) -> Vec<RemoteWriteSet>;

    /// The certifier's global system version (the last observed one when
    /// the wire is down).
    fn system_version(&self) -> Version;

    /// `true` if certification can currently make progress end to end —
    /// majority up *and* the wire reachable.
    fn is_available(&self) -> bool;

    /// The certifier's truncation floor (recovery refuses to catch up a
    /// replica whose version lies below it).
    fn truncation_floor(&self) -> Version;
}

/// A cheaply-cloneable handle to the cluster's certification service.
#[derive(Clone)]
pub enum CertifierHandle {
    /// The in-process certifier (one shard or several).
    Local(Arc<Certifier>),
    /// A certifier reached over a wire: the data plane goes through a
    /// [`CertifierService`] (network round-trips), while the control plane
    /// — fault injection, checkpoint/truncation, log inspection — delegates
    /// to the colocated in-process handle the service fronts.  This keeps
    /// the fault executor, the trimmer and the oracle transport-agnostic.
    Remote {
        /// The wire-facing data plane.
        service: Arc<dyn CertifierService>,
        /// The in-process handle behind the server, for control-plane
        /// operations.
        colocated: Box<CertifierHandle>,
    },
}

impl std::fmt::Debug for CertifierHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CertifierHandle::Local(c) => f.debug_tuple("Local").field(c).finish(),
            CertifierHandle::Remote { colocated, .. } => {
                f.debug_tuple("Remote").field(colocated).finish()
            }
        }
    }
}

impl From<Arc<Certifier>> for CertifierHandle {
    fn from(certifier: Arc<Certifier>) -> Self {
        CertifierHandle::Local(certifier)
    }
}

impl CertifierHandle {
    /// The in-process certifier behind this handle — a `Remote` handle's
    /// colocated one — for control-plane operations, which never cross the
    /// wire.
    #[must_use]
    pub fn local(&self) -> &Arc<Certifier> {
        match self {
            CertifierHandle::Local(c) => c,
            CertifierHandle::Remote { colocated, .. } => colocated.local(),
        }
    }

    /// Certifies an update transaction.
    ///
    /// # Errors
    ///
    /// Returns [`tashkent_common::Error::Unavailable`] if any shard owning
    /// the writeset has lost its majority (or the wire is down).
    pub fn certify(&self, request: &CertificationRequest) -> Result<CertificationResponse> {
        match self {
            CertifierHandle::Local(c) => c.certify(request),
            CertifierHandle::Remote { service, .. } => service.certify(request),
        }
    }

    /// The remote writesets committed after `since`, as one gap-free stream
    /// in ascending global version order.
    #[must_use]
    pub fn writesets_after(&self, since: Version) -> Vec<RemoteWriteSet> {
        match self {
            CertifierHandle::Local(c) => c.writesets_after(since),
            CertifierHandle::Remote { service, .. } => service.writesets_after(since),
        }
    }

    /// The certifier's global system version.
    #[must_use]
    pub fn system_version(&self) -> Version {
        match self {
            CertifierHandle::Local(c) => c.system_version(),
            CertifierHandle::Remote { service, .. } => service.system_version(),
        }
    }

    /// `true` if certification can make progress (every shard group has a
    /// majority up).
    #[must_use]
    pub fn is_available(&self) -> bool {
        match self {
            CertifierHandle::Local(c) => c.is_available(),
            CertifierHandle::Remote { service, .. } => service.is_available(),
        }
    }

    /// The truncation floor: versions at or below it can no longer be served
    /// from the certified logs (highest per-shard floor).
    #[must_use]
    pub fn truncation_floor(&self) -> Version {
        match self {
            CertifierHandle::Local(c) => c.truncation_floor(),
            CertifierHandle::Remote { service, .. } => service.truncation_floor(),
        }
    }

    /// Crashes one certifier node (that node in every shard's group — the
    /// physical-machine fault model).
    pub fn crash_node(&self, node: CertifierNodeId) {
        self.local().crash_node(node);
    }

    /// Recovers one certifier node via state transfer.
    ///
    /// # Errors
    ///
    /// Returns [`tashkent_common::Error::Unavailable`] if no up node can
    /// donate the log.
    pub fn recover_node(&self, node: CertifierNodeId) -> Result<()> {
        self.local().recover_node(node)
    }

    /// Durable-log statistics summed across shards.
    #[must_use]
    pub fn stats(&self) -> ReplicatedLogStats {
        self.local().stats()
    }

    /// Number of certification shards.
    ///
    /// Together with the `shard_*` methods below this gives fault injectors
    /// one uniform, shard-addressed view of the certification service.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.local().shard_count()
    }

    /// Total number of nodes in each shard's replicated group.
    #[must_use]
    pub fn nodes_per_shard(&self) -> usize {
        self.local().nodes_per_shard()
    }

    /// The current leader of one shard's replicated group.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    #[must_use]
    pub fn shard_leader(&self, shard: ShardId) -> CertifierNodeId {
        self.local().shard_leader(shard)
    }

    /// The up nodes of one shard's replicated group, in node-id order.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    #[must_use]
    pub fn shard_up_nodes(&self, shard: ShardId) -> Vec<CertifierNodeId> {
        self.local().shard_up_nodes(shard)
    }

    /// Crashes one node of one shard's replicated group.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn crash_shard_node(&self, shard: ShardId, node: CertifierNodeId) {
        self.local().crash_shard_node(shard, node);
    }

    /// Recovers one node of one shard's replicated group via state transfer.
    ///
    /// # Errors
    ///
    /// Returns [`tashkent_common::Error::Unavailable`] if the shard has no
    /// up node to donate its log.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn recover_shard_node(&self, shard: ShardId, node: CertifierNodeId) -> Result<()> {
        self.local().recover_shard_node(shard, node)
    }

    /// Reads the durable log of one node of one shard's group (the
    /// fault-schedule oracle compares these record-for-record).
    ///
    /// # Errors
    ///
    /// Propagates decode errors and unknown-node errors.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn shard_durable_entries(
        &self,
        shard: ShardId,
        node: CertifierNodeId,
    ) -> Result<Vec<(Version, WriteSet)>> {
        self.local().shard_durable_entries(shard, node)
    }

    /// Seals a durable checkpoint of every shard's certified log.  Returns
    /// the version the checkpoint covers up to.
    pub fn seal_checkpoint(&self) -> Version {
        self.local().seal_checkpoint()
    }

    /// Drops certified-log entries at or below `watermark` from the
    /// in-memory and durable logs, clamped to the newest sealed checkpoint.
    /// Returns the number of in-memory entries discarded.
    ///
    /// # Errors
    ///
    /// Propagates durable-log rewrite failures.
    pub fn truncate_below(&self, watermark: Version) -> Result<usize> {
        self.local().truncate_below(watermark)
    }

    /// The version the newest sealed checkpoint covers up to (minimum across
    /// shards; [`Version::ZERO`] before the first seal).
    #[must_use]
    pub fn checkpoint_version(&self) -> Version {
        self.local().checkpoint_version()
    }

    /// Total number of entries held in the in-memory certified logs
    /// (bounded-memory assertions).
    #[must_use]
    pub fn log_len(&self) -> usize {
        self.local().log_len()
    }
}

#[cfg(test)]
mod tests {
    use tashkent_certifier::{CertifierConfig, ShardedCertifierConfig};
    use tashkent_common::{ReplicaId, TableId, Value, WriteItem, WriteSet};

    use super::*;

    fn ws(keys: &[i64]) -> WriteSet {
        WriteSet::from_items(
            keys.iter()
                .map(|&k| WriteItem::update(TableId(0), k, vec![("x".into(), Value::Int(k))]))
                .collect(),
        )
    }

    fn commit(handle: &CertifierHandle, keys: &[i64]) -> Version {
        let version = handle.system_version();
        let response = handle
            .certify(&CertificationRequest {
                replica: ReplicaId(0),
                start_version: version,
                writeset: ws(keys),
                replica_version: version,
            })
            .unwrap();
        assert!(response.decision.is_commit());
        response.commit_version.unwrap()
    }

    #[test]
    fn sharded_fan_in_matches_the_single_stream_shape() {
        let single: CertifierHandle =
            Arc::new(Certifier::new(CertifierConfig::default())).into();
        let sharded: CertifierHandle =
            Arc::new(Certifier::new(ShardedCertifierConfig::with_shards(4))).into();
        for handle in [&single, &sharded] {
            for k in 0..10 {
                commit(handle, &[k, k + 100]);
            }
            let remotes = handle.writesets_after(Version(3));
            let versions: Vec<u64> =
                remotes.iter().map(|r| r.commit_version.value()).collect();
            assert_eq!(versions, vec![4, 5, 6, 7, 8, 9, 10]);
            assert_eq!(handle.system_version(), Version(10));
            assert!(handle.is_available());
        }
        assert_eq!(single.shard_count(), 1);
        assert_eq!(sharded.shard_count(), 4);
    }

    /// A [`CertifierService`] that forwards to an in-process certifier while
    /// counting the calls that crossed "the wire".
    struct CountingService {
        inner: Arc<Certifier>,
        calls: std::sync::atomic::AtomicUsize,
    }

    impl CertifierService for CountingService {
        fn certify(&self, request: &CertificationRequest) -> Result<CertificationResponse> {
            self.calls.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            self.inner.certify(request)
        }
        fn writesets_after(&self, since: Version) -> Vec<RemoteWriteSet> {
            self.calls.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            self.inner.writesets_after(since)
        }
        fn system_version(&self) -> Version {
            self.calls.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            self.inner.system_version()
        }
        fn is_available(&self) -> bool {
            self.calls.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            self.inner.is_available()
        }
        fn truncation_floor(&self) -> Version {
            self.calls.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            self.inner.truncation_floor()
        }
    }

    #[test]
    fn remote_routes_data_plane_to_the_service_and_control_plane_around_it() {
        let certifier = Arc::new(Certifier::new(CertifierConfig::default()));
        let service = Arc::new(CountingService {
            inner: certifier.clone(),
            calls: std::sync::atomic::AtomicUsize::new(0),
        });
        let handle = CertifierHandle::Remote {
            service: service.clone(),
            colocated: Box::new(CertifierHandle::Local(Arc::clone(&certifier))),
        };

        // Data plane: each of the five wire operations crosses the service.
        commit(&handle, &[1]);
        assert_eq!(handle.writesets_after(Version::ZERO).len(), 1);
        assert!(handle.is_available());
        assert_eq!(handle.truncation_floor(), Version::ZERO);
        let data_calls = service.calls.load(std::sync::atomic::Ordering::Relaxed);
        assert!(data_calls >= 5, "expected >=5 wire calls, saw {data_calls}");

        // Control plane: none of these may touch the wire.
        assert_eq!(handle.stats().leader_group_commit.records, 1);
        assert_eq!(handle.shard_count(), 1);
        assert_eq!(handle.log_len(), 1);
        assert_eq!(handle.checkpoint_version(), Version::ZERO);
        assert!(Arc::ptr_eq(handle.local(), &certifier));
        handle.crash_node(CertifierNodeId(1));
        handle.recover_node(CertifierNodeId(1)).unwrap();
        assert_eq!(
            service.calls.load(std::sync::atomic::Ordering::Relaxed),
            data_calls,
            "control-plane operations must bypass the wire"
        );
        assert!(format!("{handle:?}").starts_with("Remote"));
    }

    #[test]
    fn node_faults_flow_through_the_handle() {
        let handle: CertifierHandle =
            Arc::new(Certifier::new(ShardedCertifierConfig::with_shards(2))).into();
        commit(&handle, &[1]);
        handle.crash_node(CertifierNodeId(0));
        handle.crash_node(CertifierNodeId(1));
        assert!(!handle.is_available());
        handle.recover_node(CertifierNodeId(0)).unwrap();
        assert!(handle.is_available());
        commit(&handle, &[2]);
    }
}
