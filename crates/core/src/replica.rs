//! One database replica together with its transparent proxy.

use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;
use tashkent_common::{
    ClusterConfig, Component, Event, EventKind, MetricsRegistry, ReplicaId, Result, Version,
};
use tashkent_proxy::{recover_replica, CertifierHandle, Proxy, ProxyConfig};
use tashkent_storage::checkpoint::CheckpointStore;
use tashkent_storage::disk::DiskConfig;
use tashkent_storage::{Database, EngineConfig};

use crate::watchdog::ReplicaOrder;

/// A database replica, its proxy, and the recovery material the middleware
/// keeps for it (sealed checkpoint images).
pub struct ReplicaNode {
    id: ReplicaId,
    engine_config: EngineConfig,
    schema: Mutex<Vec<(String, Vec<String>)>>,
    /// The proxy, and through it the database it fronts: recovery swaps
    /// both at once.
    proxy: Mutex<Proxy>,
    certifier: CertifierHandle,
    /// Sealed, versioned checkpoint images of the replica's state behind an
    /// atomic manifest flip.  The intact image covering the highest version
    /// is the recovery baseline WAL redo replays on top of; the newest
    /// one's version bounds how far the cluster's WAL truncation watermark
    /// may advance for this replica (see [`ReplicaNode::seal_checkpoint`]).
    checkpoints: CheckpointStore,
    proxy_config: ProxyConfig,
}

impl std::fmt::Debug for ReplicaNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplicaNode")
            .field("id", &self.id)
            .field("system", &self.proxy_config.system)
            .finish()
    }
}

impl ReplicaNode {
    /// Creates a fresh replica for the given cluster configuration, reporting
    /// into the cluster's metrics registry.  The registry is kept in the
    /// engine and proxy configurations, so it survives [`ReplicaNode::recover`]
    /// (which rebuilds both from those configurations).
    #[must_use]
    pub fn new(
        id: ReplicaId,
        config: &ClusterConfig,
        certifier: CertifierHandle,
        metrics: Arc<MetricsRegistry>,
    ) -> Self {
        let sync_mode = config.replica_sync_mode();
        let engine_config = EngineConfig {
            sync_mode,
            disk: DiskConfig::default(),
            ordered_commit_timeout: Duration::from_secs(1),
            lock_wait_timeout: Duration::from_secs(1),
            metrics: Arc::clone(&metrics),
        };
        let proxy_config = ProxyConfig {
            metrics,
            ..ProxyConfig::new(config.system, id)
        };
        let db = Database::new(engine_config.clone());
        let proxy = Proxy::new(proxy_config.clone(), db, certifier.clone());
        ReplicaNode {
            id,
            engine_config,
            schema: Mutex::new(Vec::new()),
            proxy: Mutex::new(proxy),
            certifier,
            checkpoints: CheckpointStore::new(),
            proxy_config,
        }
    }

    /// The replica's identifier.
    #[must_use]
    pub fn id(&self) -> ReplicaId {
        self.id
    }

    /// A handle to the replica's proxy (the client entry point).
    #[must_use]
    pub fn proxy(&self) -> Proxy {
        self.proxy.lock().clone()
    }

    /// A handle to the replica's database engine.
    #[must_use]
    pub fn database(&self) -> Database {
        self.proxy.lock().database().clone()
    }

    /// Registers a table on this replica (idempotent) and remembers the
    /// schema for recovery.
    pub fn create_table(&self, name: &str, columns: &[&str]) {
        self.database().create_table(name, columns);
        let mut schema = self.schema.lock();
        if !schema.iter().any(|(n, _)| n == name) {
            schema.push((
                name.to_owned(),
                columns.iter().map(|c| (*c).to_owned()).collect(),
            ));
        }
    }

    /// The replica's current version.
    #[must_use]
    pub fn version(&self) -> Version {
        self.database().version()
    }

    /// Seals the replica's current state as a durable checkpoint: a
    /// versioned, checksummed image behind an atomic manifest flip.
    /// Returns the version the image covers.
    ///
    /// Checkpoints serve two roles.  First, they are the recovery baseline:
    /// workload loaders populate the initial database through
    /// [`Database::bulk_load`], which bypasses the transaction machinery and
    /// the WAL — on a real engine that state would live in data pages that
    /// survive a crash independently of the log, but this simulated engine
    /// has no data pages, so WAL redo alone would silently drop every
    /// bulk-loaded row that was never subsequently updated (found by the
    /// fault-schedule harness: a recovered TPC-B replica came back missing
    /// a quarter of its accounts).  Recovery restores the best intact image
    /// first, redoes the WAL on top (not under Tashkent-MW's
    /// `SyncMode::Off`) and resyncs the rest from the certifier log.
    /// Second, the covered version authorizes log truncation: the
    /// cluster's watermark never exceeds any replica's newest checkpoint,
    /// so a recovering replica's baseline always meets the trimmed logs.
    pub fn seal_checkpoint(&self) -> Version {
        let dump = self.database().dump();
        let version = dump.version();
        self.checkpoints.seal(version, &dump.to_bytes());
        version
    }

    /// The version covered by the replica's newest sealed checkpoint
    /// ([`Version::ZERO`] before the first seal).
    #[must_use]
    pub fn checkpoint_version(&self) -> Version {
        self.checkpoints.latest_version()
    }

    /// Drops WAL records at or below `watermark` (they are covered by a
    /// sealed checkpoint on this replica and applied by every live
    /// replica).  Returns the number of records dropped.
    ///
    /// # Errors
    ///
    /// Propagates WAL rewrite failures.
    pub fn truncate_wal_below(&self, watermark: Version) -> Result<usize> {
        // Clamp to this replica's own checkpoint: a record may only be
        // dropped once an image on *this* replica covers it, whatever the
        // cluster-wide watermark says.
        let bound = watermark.min(self.checkpoints.latest_version());
        if bound.is_zero() {
            return Ok(0);
        }
        self.database().truncate_wal_below(bound)
    }

    /// Current size of the replica's write-ahead log in bytes
    /// (bounded-memory assertions).
    #[must_use]
    pub fn wal_size(&self) -> u64 {
        self.database().wal_size()
    }

    /// Crashes the replica's database process.
    pub fn crash(&self) {
        self.proxy_config.metrics.emit(
            Event::new(Component::Replica, EventKind::ReplicaCrash)
                .node(self.id.value() as usize),
        );
        self.database().crash();
    }

    /// The replica's commit order, read from the proxy recovery installed
    /// last: the highest order index handed out and the engine's announce
    /// counter.  The counter is read first; it never passes the index
    /// handed out, so the pair never shows more announced than handed out.
    #[must_use]
    pub fn commit_order(&self) -> ReplicaOrder {
        let proxy = self.proxy();
        let db = proxy.database();
        let announced = db.announce_counter();
        ReplicaOrder {
            replica: self.id,
            handed_out: proxy.order_counter(),
            announced,
            crashed: db.is_crashed(),
        }
    }

    /// `true` if the replica has crashed and not yet been recovered.
    #[must_use]
    pub fn is_crashed(&self) -> bool {
        self.database().is_crashed()
    }

    /// Recovers the replica after a crash with the one recovery rule of
    /// [`recover_replica`]: restore the best intact checkpoint, redo the WAL
    /// to its dense frontier (none under Tashkent-MW's `SyncMode::Off`), and
    /// resync the rest from the certifier through a fresh proxy.  Returns
    /// the number of writesets re-fetched from the certifier.
    ///
    /// # Errors
    ///
    /// Fails if the recovery material cannot be decoded, if the replica
    /// would recover below the certifier's truncation floor, or if the
    /// certifier is unavailable.
    pub fn recover(&self) -> Result<usize> {
        let schema_owned = self.schema.lock().clone();
        let schema: Vec<(&str, Vec<&str>)> = schema_owned
            .iter()
            .map(|(n, cols)| (n.as_str(), cols.iter().map(String::as_str).collect()))
            .collect();
        let (proxy, applied) = recover_replica(
            self.engine_config.clone(),
            self.proxy_config.clone(),
            self.database().log_device(),
            &schema,
            &self.checkpoints,
            &self.certifier,
        )?;
        *self.proxy.lock() = proxy;
        self.proxy_config.metrics.emit(
            Event::new(Component::Replica, EventKind::ReplicaRecover)
                .node(self.id.value() as usize),
        );
        Ok(applied)
    }
}
