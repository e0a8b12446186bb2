//! The replicated cluster: replicas + certifier group + client sessions.

use std::sync::Arc;
use std::time::{Duration, Instant};

use tashkent_certifier::{Certifier, CertifierConfig, CertifierNodeId, ShardedCertifierConfig};
use tashkent_common::{
    metrics::{CounterId, GaugeId},
    ClusterConfig, CommitPathTrace, Error, Event, MetricsRegistry, MetricsSnapshot, ReplicaId,
    Result, ShardId, SystemKind, TableId, Version,
};
use tashkent_net::ClusterNet;
use tashkent_proxy::{CertifierHandle, Proxy, ProxyTransaction};
use tashkent_storage::disk::DiskConfig;

use crate::bundle::DiagnosticBundle;
use crate::replica::ReplicaNode;
use crate::watchdog::{Watchdog, WatchdogConfig};

/// How long [`Cluster::sync_all`] keeps refreshing a replica still behind.
const SYNC_DEADLINE: Duration = Duration::from_secs(10);

/// A running replicated database cluster.
///
/// The proxies reach the certifier the way `ClusterConfig::transport`
/// says: directly in-process, or across the wire of a
/// [`ClusterNet`] (loopback or TCP).  Everything
/// else — fault injection, trimming, metrics, the event journal — is
/// transport-agnostic.
pub struct Cluster {
    config: ClusterConfig,
    /// The colocated (in-process) handle: control plane and cluster-level
    /// inspection always use this, wire or no wire.
    certifier: CertifierHandle,
    replicas: Vec<Arc<ReplicaNode>>,
    metrics: Arc<MetricsRegistry>,
    /// The cluster's network when the transport is networked.  Declared
    /// last: sessions close after the replicas that used them are gone.
    net: Option<ClusterNet>,
}

impl std::fmt::Debug for Cluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cluster")
            .field("system", &self.config.system)
            .field("replicas", &self.replicas.len())
            .finish()
    }
}

impl Cluster {
    /// Builds a cluster from a configuration.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] if the configuration fails
    /// validation.
    pub fn new(config: ClusterConfig) -> Result<Self> {
        config.validate().map_err(Error::InvalidConfig)?;
        // One registry for the whole cluster: every replica engine, proxy and
        // certifier shard reports into it.
        let metrics = Arc::new(MetricsRegistry::enabled());
        let certifier_config = CertifierConfig {
            nodes: config.certifiers,
            disk: DiskConfig::default(),
            durable: config.system.certifier_durable(),
            forced_abort_rate: config.forced_abort_rate,
            seed: 0x7A5B_1001,
            metrics: Arc::clone(&metrics),
            batch: true,
        };
        let certifier: CertifierHandle = Arc::new(Certifier::new(ShardedCertifierConfig {
            shards: config.certifier_shards,
            base: certifier_config,
        }))
        .into();
        // Networked transports put a wire between every proxy and the
        // certifier: the data plane of each replica's handle crosses a
        // session, the control plane stays on the in-process handle.
        let net = if config.transport.is_networked() {
            Some(ClusterNet::start(
                config.transport,
                certifier.clone(),
                config.replicas,
                Arc::clone(&metrics),
            )?)
        } else {
            None
        };
        let replicas = (0..config.replicas)
            .map(|i| {
                let handle = match &net {
                    Some(net) => net.replica_handle(i),
                    None => certifier.clone(),
                };
                Arc::new(ReplicaNode::new(
                    ReplicaId(i as u32),
                    &config,
                    handle,
                    Arc::clone(&metrics),
                ))
            })
            .collect();
        Ok(Cluster {
            config,
            certifier,
            replicas,
            metrics,
            net,
        })
    }

    /// The network under this cluster, when the transport is networked.
    #[must_use]
    pub fn net(&self) -> Option<&ClusterNet> {
        self.net.as_ref()
    }

    /// Severs the loopback link between one replica's proxy and the
    /// certifier.  Returns `false` (no-op) unless the cluster runs on the
    /// loopback transport.
    pub fn sever_certifier_link(&self, replica: usize) -> bool {
        self.net
            .as_ref()
            .is_some_and(|net| net.sever_certifier_link(replica))
    }

    /// Heals one replica's loopback link to the certifier.
    pub fn heal_certifier_link(&self, replica: usize) -> bool {
        self.net
            .as_ref()
            .is_some_and(|net| net.heal_certifier_link(replica))
    }

    /// Severs only one direction of a replica's link to the certifier
    /// (half-open link): `to_certifier = true` drops replica→certifier
    /// bytes, `false` drops certifier→replica bytes.
    pub fn sever_certifier_link_one_way(&self, replica: usize, to_certifier: bool) -> bool {
        self.net
            .as_ref()
            .is_some_and(|net| net.sever_certifier_link_one_way(replica, to_certifier))
    }

    /// Enables seeded random connection resets on the loopback network
    /// (`rate = 0.0` disables).  A no-op off the loopback transport.
    pub fn set_packet_loss(&self, seed: u64, rate: f64) -> bool {
        self.net
            .as_ref()
            .is_some_and(|net| net.set_packet_loss(seed, rate))
    }

    /// Severs every replica's link to the certifier — a full
    /// replica↔certifier partition.
    pub fn partition_certifier(&self) -> bool {
        self.net
            .as_ref()
            .is_some_and(ClusterNet::partition_certifier)
    }

    /// Heals every severed link.
    pub fn heal_all_links(&self) -> bool {
        self.net.as_ref().is_some_and(ClusterNet::heal_all_links)
    }

    /// The cluster-wide metrics registry (shared by every replica engine,
    /// proxy and certifier shard).
    #[must_use]
    pub fn metrics(&self) -> Arc<MetricsRegistry> {
        Arc::clone(&self.metrics)
    }

    /// A consistent snapshot of every cluster-wide counter, gauge and
    /// per-stage latency histogram.
    #[must_use]
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }

    /// The most recent commit-path traces (one per committed transaction,
    /// newest last, bounded ring).
    #[must_use]
    pub fn recent_traces(&self) -> Vec<CommitPathTrace> {
        self.metrics.recent_traces()
    }

    /// Starts a [`FlightRecorder`](crate::flight::FlightRecorder) sampling
    /// this cluster's registry every `interval` into a bounded ring.
    #[must_use]
    pub fn start_flight_recorder(&self, interval: std::time::Duration) -> crate::FlightRecorder {
        crate::FlightRecorder::start(
            self.metrics(),
            interval,
            crate::flight::DEFAULT_SAMPLE_CAPACITY,
        )
    }

    /// The merged event-journal timeline across every component, causally
    /// ordered on the registry's clock.
    #[must_use]
    pub fn events(&self) -> Vec<Event> {
        self.metrics.events()
    }

    /// Captures a [`DiagnosticBundle`] of the cluster's current
    /// observability state: the metrics snapshot, the recent commit-path
    /// traces, the merged event journal, and the per-replica progress
    /// vector.  `kind` becomes part of the bundle file name (the watchdog
    /// passes `convoy` / `stall`, the fault harness `oracle`).
    #[must_use]
    pub fn diagnostic_bundle(&self, kind: &str, detail: &str) -> DiagnosticBundle {
        capture_bundle(&self.metrics, &self.replicas, kind, detail)
    }

    /// Starts an anomaly [`Watchdog`] over this cluster's registry and
    /// every replica's commit order, read through the replica so it follows
    /// the proxy recovery installs.  When a detector fires, the watchdog
    /// captures a diagnostic bundle of the cluster, as
    /// [`Cluster::diagnostic_bundle`] does, and writes it under the bundle
    /// directory.
    #[must_use]
    pub fn start_watchdog(&self, config: WatchdogConfig) -> Watchdog {
        let replicas = self.replicas.clone();
        let order_replicas = self.replicas.clone();
        let metrics = self.metrics();
        Watchdog::start(
            Arc::clone(&metrics),
            config,
            Box::new(move || order_replicas.iter().map(|r| r.commit_order()).collect()),
            Box::new(move |verdict| {
                capture_bundle(
                    &metrics,
                    &replicas,
                    verdict.kind.label(),
                    &verdict.to_string(),
                )
            }),
        )
    }

    /// The cluster's configuration.
    #[must_use]
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// The replication design this cluster runs.
    #[must_use]
    pub fn system(&self) -> SystemKind {
        self.config.system
    }

    /// Number of replicas.
    #[must_use]
    pub fn replica_count(&self) -> usize {
        self.replicas.len()
    }

    /// A handle to the shared certification service (single or sharded,
    /// depending on `certifier_shards` in the configuration).
    #[must_use]
    pub fn certifier(&self) -> CertifierHandle {
        self.certifier.clone()
    }

    /// Access to one replica node (for fault injection and inspection).
    ///
    /// # Panics
    ///
    /// Panics if `replica` is out of range.
    #[must_use]
    pub fn replica(&self, replica: usize) -> Arc<ReplicaNode> {
        Arc::clone(&self.replicas[replica])
    }

    /// Registers a table on every replica and returns its identifier.
    pub fn create_table(&self, name: &str, columns: &[&str]) -> TableId {
        for replica in &self.replicas {
            replica.create_table(name, columns);
        }
        self.replicas[0]
            .database()
            .table_id(name)
            .expect("table was just created")
    }

    /// Seals a durable checkpoint on every live replica and every certifier
    /// shard: a versioned, checksummed image behind an atomic manifest flip.
    /// Crashed replicas are skipped.  Returns the version stamped on the
    /// certifier's images.
    pub fn checkpoint(&self) -> Version {
        crate::trimmer::seal_checkpoints(&self.certifier, &self.replicas, &self.metrics)
    }

    /// The cluster's current truncation watermark: the minimum of every live
    /// replica's installed version, every replica's newest sealed checkpoint
    /// (crashed ones included — they restart from it), and the certifier's
    /// newest sealed checkpoint.  [`Version::ZERO`] until everyone has sealed
    /// at least once.
    #[must_use]
    pub fn watermark(&self) -> Version {
        crate::trimmer::watermark(&self.certifier, &self.replicas)
    }

    /// Truncates the certifier shard logs and every live replica's WAL below
    /// the current watermark.  Returns `(certifier entries, WAL records)`
    /// dropped.
    ///
    /// # Errors
    ///
    /// Propagates certifier group or WAL rewrite failures.
    pub fn trim(&self) -> Result<(usize, usize)> {
        crate::trimmer::trim(&self.certifier, &self.replicas, &self.metrics)
    }

    /// The truncation floor of the certifier's ordered log (highest version
    /// trimmed away so far; [`Version::ZERO`] before any trim).
    #[must_use]
    pub fn truncation_floor(&self) -> Version {
        self.certifier.truncation_floor()
    }

    /// Total retained entries across the certifier's shard logs
    /// (bounded-memory assertions).
    #[must_use]
    pub fn certifier_log_len(&self) -> usize {
        self.certifier.local().log_len()
    }

    /// Total bytes across every replica's write-ahead log
    /// (bounded-memory assertions).
    #[must_use]
    pub fn wal_bytes(&self) -> u64 {
        self.replicas.iter().map(|r| r.wal_size()).sum()
    }

    /// Starts a background [`Trimmer`](crate::trimmer::Trimmer) that seals
    /// checkpoints and advances the truncation watermark every `interval`.
    #[must_use]
    pub fn start_trimmer(&self, interval: std::time::Duration) -> crate::trimmer::Trimmer {
        crate::trimmer::Trimmer::start(
            self.certifier.clone(),
            self.replicas.iter().map(Arc::clone).collect(),
            self.metrics(),
            interval,
        )
    }

    /// A client session bound to one replica (clients always talk to a single
    /// replica, as in the paper's model).
    ///
    /// # Panics
    ///
    /// Panics if `replica` is out of range.
    #[must_use]
    pub fn session(&self, replica: usize) -> Session {
        Session {
            proxy: self.replicas[replica].proxy(),
        }
    }

    /// The global system version at the certifier.
    #[must_use]
    pub fn system_version(&self) -> Version {
        self.certifier.system_version()
    }

    /// Brings every live replica up to the in-process certifier's version,
    /// read without crossing a wire: each proxy refreshes, retrying any
    /// error (an empty stream may mean the wire failed), until its database
    /// reaches that version.  Returns the number of writesets installed.
    ///
    /// # Errors
    ///
    /// [`Error::Unavailable`] naming a replica still behind at `SYNC_DEADLINE`.
    pub fn sync_all(&self) -> Result<usize> {
        let target = self.certifier.local().system_version();
        let give_up = Instant::now() + SYNC_DEADLINE;
        let mut applied = 0;
        for replica in &self.replicas {
            let mut last = Ok(0);
            while !replica.is_crashed() && replica.version() < target {
                if Instant::now() >= give_up {
                    return Err(Error::Unavailable(format!(
                        "{} stuck at version {} below the certifier's {target}: {last:?}",
                        replica.id(),
                        replica.version()
                    )));
                }
                last = replica.proxy().refresh();
                applied += last.as_ref().map_or(0, |count| *count);
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        Ok(applied)
    }

    /// Crashes one replica's database process (fault injection).
    ///
    /// Equivalent to `cluster.replica(replica).crash()`; exposed directly on
    /// the cluster so fault schedules address replicas and certifier nodes
    /// through one surface.
    ///
    /// # Panics
    ///
    /// Panics if `replica` is out of range.
    pub fn crash_replica(&self, replica: usize) {
        self.replicas[replica].crash();
        self.refresh_nodes_down();
    }

    /// Recovers one crashed replica with the one recovery rule of
    /// [`ReplicaNode::recover`] (best checkpoint, WAL redo to its dense
    /// frontier, resync from the certifier).  Returns the number of
    /// writesets re-fetched from the certifier.
    ///
    /// # Errors
    ///
    /// As for [`ReplicaNode::recover`].
    ///
    /// # Panics
    ///
    /// Panics if `replica` is out of range.
    pub fn recover_replica(&self, replica: usize) -> Result<usize> {
        let applied = self.replicas[replica].recover();
        self.refresh_nodes_down();
        applied
    }

    /// Crashes one certifier node.
    pub fn crash_certifier_node(&self, node: CertifierNodeId) {
        self.certifier.local().crash_node(node);
        self.refresh_nodes_down();
    }

    /// Recovers one certifier node via state transfer.
    ///
    /// # Errors
    ///
    /// Fails if no up node can donate its log.
    pub fn recover_certifier_node(&self, node: CertifierNodeId) -> Result<()> {
        let recovered = self.certifier.local().recover_node(node);
        self.refresh_nodes_down();
        recovered
    }

    /// Crashes one node of one certifier shard's replicated group (the
    /// unsharded certifier is addressed as shard 0).
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn crash_certifier_shard_node(&self, shard: ShardId, node: CertifierNodeId) {
        self.certifier.local().crash_shard_node(shard, node);
        self.refresh_nodes_down();
    }

    /// Recovers one node of one certifier shard's group via state transfer.
    ///
    /// # Errors
    ///
    /// Fails if the shard has no up node to donate its log.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn recover_certifier_shard_node(
        &self,
        shard: ShardId,
        node: CertifierNodeId,
    ) -> Result<()> {
        let recovered = self.certifier.local().recover_shard_node(shard, node);
        self.refresh_nodes_down();
        recovered
    }

    /// Recomputes the [`GaugeId::NodesDown`] gauge from live membership
    /// (crashed replicas plus crashed certifier shard-group members) and
    /// bumps the [`CounterId::FaultTransitions`] edge counter.  Called after
    /// every crash/recover on the cluster's fault surface, so a flight
    /// timeline shows each outage window, and the counter shows
    /// crash/recover pairs short enough to fall entirely between two
    /// samples, where the gauge never does.
    fn refresh_nodes_down(&self) {
        let replicas_down = self.replicas.iter().filter(|r| r.is_crashed()).count();
        let log = self.certifier.local().stats();
        let certifier_down = log.nodes_total.saturating_sub(log.nodes_up);
        self.metrics
            .gauge_set(GaugeId::NodesDown, (replicas_down + certifier_down) as i64);
        self.metrics.incr(CounterId::FaultTransitions);
    }

    /// Checks that every non-crashed replica is a consistent prefix of the
    /// certifier's log: its version never exceeds the system version, and
    /// after [`Cluster::sync_all`] all replicas hold identical versions.
    ///
    /// Returns the list of replica versions.
    #[must_use]
    pub fn replica_versions(&self) -> Vec<(ReplicaId, Version)> {
        self.replicas
            .iter()
            .map(|r| (r.id(), r.version()))
            .collect()
    }
}

/// A [`DiagnosticBundle`] of the registry's current state and every
/// replica's installed version.
fn capture_bundle(
    metrics: &MetricsRegistry,
    replicas: &[Arc<ReplicaNode>],
    kind: &str,
    detail: &str,
) -> DiagnosticBundle {
    DiagnosticBundle {
        kind: kind.to_owned(),
        detail: detail.to_owned(),
        snapshot: metrics.snapshot(),
        traces: metrics.recent_traces(),
        events: metrics.events(),
        progress: replicas
            .iter()
            .map(|r| (r.id().value(), r.version().0))
            .collect(),
    }
}

/// A client session bound to one replica.
pub struct Session {
    proxy: Proxy,
}

impl Session {
    /// Begins a transaction on this session's replica.
    #[must_use]
    pub fn begin(&self) -> ProxyTransaction {
        self.proxy.begin()
    }

    /// The replica this session talks to.
    #[must_use]
    pub fn replica(&self) -> ReplicaId {
        self.proxy.replica()
    }

    /// The proxy behind this session.
    #[must_use]
    pub fn proxy(&self) -> &Proxy {
        &self.proxy
    }
}

#[cfg(test)]
mod tests {
    use tashkent_common::Value;

    use super::*;

    fn small(system: SystemKind) -> Cluster {
        Cluster::new(ClusterConfig::small(system)).unwrap()
    }

    #[test]
    fn networked_transports_replicate_the_same_update() {
        use tashkent_common::TransportKind;
        for transport in [TransportKind::Loopback, TransportKind::Tcp] {
            let mut config = ClusterConfig::small(SystemKind::TashkentApi);
            config.transport = transport;
            let cluster = Cluster::new(config).unwrap();
            assert!(cluster.net().is_some());
            let t = cluster.create_table("kv", &["v"]);
            let tx = cluster.session(0).begin();
            tx.insert(t, 1, vec![("v".into(), Value::Int(9))]).unwrap();
            tx.commit().unwrap();
            cluster.sync_all().unwrap();
            for r in 0..cluster.replica_count() {
                let tx = cluster.session(r).begin();
                let row = tx.read(t, 1).unwrap().unwrap();
                assert_eq!(row.get("v"), Some(&Value::Int(9)), "over {transport}");
                tx.commit().unwrap();
            }
            assert_eq!(cluster.system_version(), Version(1));
            let snapshot = cluster.metrics_snapshot();
            assert!(
                snapshot.counter(tashkent_common::CounterId::NetMessages) > 0,
                "commits over {transport} must cross the wire"
            );
        }
    }

    #[test]
    fn loopback_partitions_sever_and_heal_through_the_cluster() {
        use tashkent_common::TransportKind;
        let mut config = ClusterConfig::small(SystemKind::TashkentMw);
        config.transport = TransportKind::Loopback;
        let cluster = Cluster::new(config).unwrap();
        let t = cluster.create_table("kv", &["v"]);
        let tx = cluster.session(0).begin();
        tx.insert(t, 1, vec![("v".into(), Value::Int(1))]).unwrap();
        tx.commit().unwrap();

        assert!(cluster.partition_certifier());
        let tx = cluster.session(0).begin();
        tx.update(t, 1, vec![("v".into(), Value::Int(2))]).unwrap();
        let err = tx.commit().unwrap_err();
        assert!(err.is_unavailable(), "partitioned commit fails fast: {err}");

        assert!(cluster.heal_all_links());
        let net = cluster.net().unwrap();
        for r in 0..cluster.replica_count() {
            net.client(r)
                .wait_connected(std::time::Duration::from_secs(2))
                .unwrap();
        }
        let tx = cluster.session(0).begin();
        tx.update(t, 1, vec![("v".into(), Value::Int(3))]).unwrap();
        tx.commit().unwrap();
        cluster.sync_all().unwrap();
        assert!(cluster
            .events()
            .iter()
            .any(|e| e.kind == tashkent_common::EventKind::LinkFault));
    }

    #[test]
    fn invalid_configurations_are_rejected() {
        let mut config = ClusterConfig::small(SystemKind::Base);
        config.replicas = 0;
        assert!(matches!(
            Cluster::new(config),
            Err(Error::InvalidConfig(_))
        ));
    }

    #[test]
    fn all_systems_replicate_a_simple_update() {
        for system in SystemKind::ALL {
            let cluster = small(system);
            let t = cluster.create_table("kv", &["v"]);
            let tx = cluster.session(0).begin();
            tx.insert(t, 1, vec![("v".into(), Value::Int(7))]).unwrap();
            tx.commit().unwrap();
            cluster.sync_all().unwrap();
            for r in 0..cluster.replica_count() {
                let tx = cluster.session(r).begin();
                let row = tx.read(t, 1).unwrap().unwrap();
                assert_eq!(row.get("v"), Some(&Value::Int(7)), "system {system}");
                tx.commit().unwrap();
            }
            assert_eq!(cluster.system_version(), Version(1));
            let versions = cluster.replica_versions();
            assert!(versions.iter().all(|(_, v)| *v == Version(1)));
        }
    }

    /// One source per number: a scripted run's commits and aborts land in
    /// the registry exactly once, whichever pipeline the system uses.
    #[test]
    fn registry_ledger_counts_every_outcome_once() {
        for system in SystemKind::ALL_WITH_ANALYSIS {
            let cluster = small(system);
            let t = cluster.create_table("kv", &["v"]);
            let insert = |replica: usize, key: i64| {
                let tx = cluster.session(replica).begin();
                tx.insert(t, key, vec![("v".into(), Value::Int(key))])
                    .unwrap();
                tx
            };
            let conflicts = |tx: ProxyTransaction| {
                matches!(tx.commit(), Err(Error::CertificationFailed { .. }))
            };
            // Four updates, alternating replicas.
            for key in 0..4 {
                insert(key as usize % 2, key).commit().unwrap();
            }
            // A certifier conflict: replica 1 has not seen key 100 yet, so
            // only the certifier can catch the overlap.
            let (first, second) = (insert(0, 100), insert(1, 100));
            first.commit().unwrap();
            assert!(conflicts(second), "{system}");
            // A local-certification abort: replica 1 learns of key 200 before
            // its own writer commits, and aborts it without a certify.
            let stale = insert(1, 200);
            insert(0, 200).commit().unwrap();
            cluster.sync_all().unwrap();
            assert!(conflicts(stale), "{system}");
            // Three read-only transactions.
            for replica in [0, 1, 0] {
                let tx = cluster.session(replica).begin();
                assert!(tx.read(t, 0).unwrap().is_some());
                assert!(tx.commit().unwrap().read_only);
            }
            assert_eq!(cluster.system_version(), Version(6), "{system}");
            let snapshot = cluster.metrics_snapshot();
            let ledger = [
                CounterId::TxCommitted,
                CounterId::TxAborted,
                CounterId::CertifyRequests,
                CounterId::CertifyCommits,
                CounterId::CertifyAborts,
                CounterId::Deadlocks,
            ]
            .map(|counter| snapshot.counter(counter));
            assert_eq!(ledger, [9, 2, 7, 6, 1, 0], "{system}");
        }
    }

    #[test]
    fn sharded_certifier_cluster_replicates_and_converges() {
        for system in SystemKind::ALL {
            let mut config = ClusterConfig::small(system);
            config.certifier_shards = 4;
            let cluster = Cluster::new(config).unwrap();
            assert_eq!(cluster.certifier().local().shard_count(), 4);
            let t = cluster.create_table("kv", &["v"]);
            // Mix single- and multi-shard writesets from both replicas.
            for i in 0..6 {
                let tx = cluster.session((i % 2) as usize).begin();
                tx.insert(t, i, vec![("v".into(), Value::Int(i))]).unwrap();
                if i % 2 == 0 {
                    tx.insert(t, 100 + i, vec![("v".into(), Value::Int(i))])
                        .unwrap();
                }
                tx.commit().unwrap();
            }
            cluster.sync_all().unwrap();
            assert_eq!(cluster.system_version(), Version(6), "system {system}");
            for r in 0..cluster.replica_count() {
                let tx = cluster.session(r).begin();
                for i in 0..6 {
                    let row = tx.read(t, i).unwrap().unwrap();
                    assert_eq!(row.get("v"), Some(&Value::Int(i)), "system {system}");
                }
                tx.commit().unwrap();
            }
            let versions = cluster.replica_versions();
            assert!(versions.iter().all(|(_, v)| *v == Version(6)));
        }
    }

    #[test]
    fn replica_crash_and_recovery_preserves_committed_state() {
        for system in SystemKind::ALL {
            let cluster = small(system);
            let t = cluster.create_table("kv", &["v"]);
            for i in 0..10 {
                let tx = cluster.session(0).begin();
                tx.insert(t, i, vec![("v".into(), Value::Int(i))]).unwrap();
                tx.commit().unwrap();
            }
            cluster.sync_all().unwrap();
            // Tashkent-MW recovers from a sealed checkpoint.
            cluster.replica(1).seal_checkpoint();
            // More commits after the checkpoint.
            for i in 10..15 {
                let tx = cluster.session(0).begin();
                tx.insert(t, i, vec![("v".into(), Value::Int(i))]).unwrap();
                tx.commit().unwrap();
            }
            cluster.replica(1).crash();
            assert!(cluster.replica(1).is_crashed());
            cluster.replica(1).recover().unwrap();
            // The recovered replica holds every committed row.
            let tx = cluster.session(1).begin();
            for i in 0..15 {
                let row = tx.read(t, i).unwrap().unwrap();
                assert_eq!(row.get("v"), Some(&Value::Int(i)), "system {system}");
            }
            tx.commit().unwrap();
            assert_eq!(cluster.replica(1).version(), Version(15));
        }
    }

    #[test]
    fn commit_path_traces_are_monotonic_and_metrics_are_consistent() {
        use tashkent_common::metrics::{CounterId, Stage};
        for system in SystemKind::ALL {
            let mut config = ClusterConfig::small(system);
            config.certifier_shards = 2;
            let cluster = Cluster::new(config).unwrap();
            let t = cluster.create_table("kv", &["v"]);
            for i in 0..8 {
                let tx = cluster.session((i % 2) as usize).begin();
                tx.insert(t, i, vec![("v".into(), Value::Int(i))]).unwrap();
                tx.commit().unwrap();
            }
            cluster.sync_all().unwrap();

            // Every recorded commit-path trace has monotonically
            // non-decreasing stage timestamps: begin ≤ execute ≤ certify ≤
            // durable ≤ announce ≤ install.
            let traces = cluster.recent_traces();
            assert_eq!(traces.len(), 8, "system {system}");
            for trace in &traces {
                assert!(
                    trace.is_monotonic(),
                    "system {system}: non-monotonic trace {trace:?}"
                );
            }

            let snapshot = cluster.metrics_snapshot();
            // Certified commits are exactly the shard-commit decisions.
            assert_eq!(
                snapshot.counter(CounterId::CertifyCommits),
                snapshot.shard_commit_sum(),
                "system {system}"
            );
            assert_eq!(snapshot.counter(CounterId::TxCommitted), 8);
            assert_eq!(snapshot.counter(CounterId::CertifyCommits), 8);
            assert!(snapshot.counter(CounterId::TxBegun) >= 8);
            // Every commit pipeline feeds the proxy-side stage histograms.
            for stage in [Stage::Begin, Stage::Execute, Stage::Certify] {
                assert!(
                    snapshot.stage(stage).count() >= 8,
                    "system {system}: stage {} undersampled",
                    stage.label()
                );
            }
            // The certifier times every durable append.
            assert_eq!(snapshot.stage(Stage::Durable).count(), 8, "system {system}");
        }
    }

    #[test]
    fn metrics_survive_replica_recovery() {
        use tashkent_common::metrics::CounterId;
        let cluster = small(SystemKind::TashkentApi);
        let t = cluster.create_table("kv", &["v"]);
        let tx = cluster.session(0).begin();
        tx.insert(t, 1, vec![("v".into(), Value::Int(1))]).unwrap();
        tx.commit().unwrap();
        cluster.sync_all().unwrap();
        let before = cluster.metrics_snapshot();
        cluster.replica(1).crash();
        cluster.replica(1).recover().unwrap();
        // The rebuilt engine and proxy still report into the same registry.
        let tx = cluster.session(1).begin();
        tx.insert(t, 2, vec![("v".into(), Value::Int(2))]).unwrap();
        tx.commit().unwrap();
        let after = cluster.metrics_snapshot();
        let delta = after.counters_since(&before);
        assert!(delta[CounterId::TxCommitted.index()] >= 1);
        // No counter regressed across the recovery.
        for id in CounterId::ALL {
            assert!(after.counter(id) >= before.counter(id), "{}", id.label());
        }
    }

    #[test]
    fn checkpoint_trim_and_recover_across_all_systems() {
        use tashkent_common::metrics::{CounterId, GaugeId};
        for system in SystemKind::ALL {
            let cluster = small(system);
            let t = cluster.create_table("kv", &["v"]);
            let commit = |k: i64| {
                let tx = cluster.session(0).begin();
                tx.insert(t, k, vec![("v".into(), Value::Int(k))]).unwrap();
                tx.commit().unwrap();
            };
            for i in 0..12 {
                commit(i);
            }
            cluster.sync_all().unwrap();
            assert_eq!(cluster.certifier_log_len(), 12, "system {system}");
            assert_eq!(cluster.watermark(), Version::ZERO, "nothing sealed yet");

            cluster.checkpoint();
            assert_eq!(cluster.watermark(), Version(12), "system {system}");
            let (entries, _wal_records) = cluster.trim().unwrap();
            assert_eq!(entries, 12, "system {system}");
            assert_eq!(cluster.certifier_log_len(), 0, "system {system}");
            assert_eq!(cluster.truncation_floor(), Version(12), "system {system}");
            let snapshot = cluster.metrics_snapshot();
            assert!(snapshot.counter(CounterId::CheckpointsSealed) >= 3);
            assert_eq!(snapshot.counter(CounterId::TrimmedLogEntries), 12);
            assert_eq!(snapshot.gauge(GaugeId::TruncationWatermark).0, 12);

            // A replica crashed after the trim recovers from its checkpoint —
            // the trimmed log prefix is never needed.
            cluster.replica(1).crash();
            cluster.recover_replica(1).unwrap();
            assert_eq!(cluster.replica(1).version(), Version(12), "system {system}");
            for i in 12..15 {
                commit(i);
            }
            cluster.sync_all().unwrap();
            let tx = cluster.session(1).begin();
            for i in 0..15 {
                let row = tx.read(t, i).unwrap().unwrap();
                assert_eq!(row.get("v"), Some(&Value::Int(i)), "system {system}");
            }
            tx.commit().unwrap();
            assert_eq!(cluster.replica(1).version(), Version(15), "system {system}");
        }
    }

    #[test]
    fn watermark_is_held_back_by_a_crashed_replicas_checkpoint() {
        let cluster = small(SystemKind::TashkentApi);
        let t = cluster.create_table("kv", &["v"]);
        let commit = |k: i64| {
            let tx = cluster.session(0).begin();
            tx.insert(t, k, vec![("v".into(), Value::Int(k))]).unwrap();
            tx.commit().unwrap();
        };
        for i in 0..5 {
            commit(i);
        }
        cluster.sync_all().unwrap();
        cluster.checkpoint();
        cluster.replica(1).crash();
        for i in 5..9 {
            commit(i);
        }
        // Re-sealing only advances the live replica's checkpoint; the crashed
        // replica's image at version 5 pins the watermark.
        cluster.checkpoint();
        assert_eq!(cluster.watermark(), Version(5));
        cluster.trim().unwrap();
        assert_eq!(cluster.truncation_floor(), Version(5));
        // The crashed replica recovers from that checkpoint and catches up
        // across the retained suffix.
        cluster.recover_replica(1).unwrap();
        assert_eq!(cluster.replica(1).version(), Version(9));
        // With everyone live again the watermark is free to advance.
        cluster.checkpoint();
        cluster.trim().unwrap();
        assert_eq!(cluster.truncation_floor(), Version(9));
        commit(9);
        assert_eq!(cluster.system_version(), Version(10));
    }

    #[test]
    fn background_trimmer_advances_the_watermark() {
        use std::time::{Duration, Instant};
        let mut config = ClusterConfig::small(SystemKind::TashkentApi);
        config.certifier_shards = 2;
        let cluster = Cluster::new(config).unwrap();
        let t = cluster.create_table("kv", &["v"]);
        let trimmer = cluster.start_trimmer(Duration::from_millis(5));
        for i in 0..10 {
            let tx = cluster.session((i % 2) as usize).begin();
            tx.insert(t, i, vec![("v".into(), Value::Int(i))]).unwrap();
            tx.commit().unwrap();
        }
        cluster.sync_all().unwrap();
        // A cycle advances the floor before it counts itself: wait for both.
        let deadline = Instant::now() + Duration::from_secs(10);
        while (cluster.truncation_floor() < Version(10) || trimmer.cycles() == 0)
            && Instant::now() < deadline
        {
            std::thread::sleep(Duration::from_millis(2));
        }
        assert!(trimmer.cycles() > 0);
        drop(trimmer);
        assert_eq!(cluster.truncation_floor(), Version(10));
        assert_eq!(cluster.certifier_log_len(), 0);
        // The cluster keeps committing on the trimmed logs.
        let tx = cluster.session(0).begin();
        tx.insert(t, 100, vec![("v".into(), Value::Int(100))]).unwrap();
        tx.commit().unwrap();
        assert_eq!(cluster.system_version(), Version(11));
    }

    #[test]
    fn certifier_failover_keeps_the_cluster_available() {
        let cluster = small(SystemKind::TashkentMw);
        let t = cluster.create_table("kv", &["v"]);
        let commit = |k: i64| {
            let tx = cluster.session(0).begin();
            tx.insert(t, k, vec![("v".into(), Value::Int(k))]).unwrap();
            tx.commit()
        };
        commit(1).unwrap();
        cluster.crash_certifier_node(CertifierNodeId(0));
        commit(2).unwrap();
        cluster.crash_certifier_node(CertifierNodeId(1));
        assert!(matches!(commit(3), Err(Error::Unavailable(_))));
        cluster.recover_certifier_node(CertifierNodeId(1)).unwrap();
        commit(4).unwrap();
        assert_eq!(cluster.system_version(), Version(3));
    }
}
