//! The database engine façade.
//!
//! [`Database`] glues the catalogue, the multi-version store, the lock
//! manager and the write-ahead log together behind a transaction API that
//! mirrors what the replication middleware needs from PostgreSQL:
//!
//! * [`Database::begin`] / [`TxHandle::read`] / [`TxHandle::update`] /
//!   [`TxHandle::commit`] — ordinary snapshot-isolated transactions with
//!   eager write locks and first-committer-wins validation.
//! * [`TxHandle::writeset`] — writeset extraction (the trigger mechanism of
//!   Section 8.1).
//! * [`TxHandle::commit_at`] — commit that installs an externally chosen
//!   global version, used by the proxy when it serially applies remote
//!   writesets and local commits (Base and Tashkent-MW).
//! * [`TxHandle::commit_ordered`] — the extended `COMMIT <seq>` API of
//!   Tashkent-API: commits may be submitted concurrently, their commit
//!   records are group-committed in one fsync, and the engine *announces*
//!   them in the prescribed dense order (the 20-line semaphore change of
//!   Section 8.3).
//! * [`Database::set_sync_mode`] — enable / disable synchronous WAL writes
//!   (Section 7.1), which is how Tashkent-MW turns replica commits into
//!   in-memory operations.
//! * [`Database::dump`] / [`Database::restore_from_dump`] /
//!   [`Database::crash`] / [`Database::recover`] — the recovery tool-box of
//!   Section 7.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::{Condvar, Mutex, RwLock};
use tashkent_common::metrics::{CounterId, Stage};
use tashkent_common::{
    Component, Error, Event, EventKind, MetricsRegistry, Result, RowKey, SyncMode, TableId, TxId,
    Value, Version, WriteOp, WriteSet,
};

use crate::disk::{DiskConfig, LogDevice, SimulatedDisk};
use crate::dump::DatabaseDump;
use crate::locks::LockManager;
use crate::row::{Row, TableData};
use crate::schema::Catalog;
use crate::txn::{Transaction, TxState};
use crate::wal::{WalRecord, WalWriter};

/// Row images buffered by a transaction, keyed by `(table, row)` — the
/// payload [`Database::prepare_commit`] hands to the install step.
type WriteBuffer = HashMap<(TableId, RowKey), Option<Row>>;

/// Configuration of one database engine instance.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// WAL synchronisation mode (Section 7.1).
    pub sync_mode: SyncMode,
    /// Configuration of the simulated log device.
    pub disk: DiskConfig,
    /// How long an ordered commit waits for its predecessors before the
    /// engine resolves the stall by aborting it (protects against the
    /// API-misuse case of Section 5.2: `COMMIT 9` without `COMMIT 1-8`).
    pub ordered_commit_timeout: Duration,
    /// Bound on one blocking row-lock wait.  Cycles that pass through
    /// components outside the engine (the proxy's apply mutex, the ordered
    /// announce order) are invisible to the wait-for-graph deadlock
    /// detector; when the bound elapses the waiter aborts as a presumed
    /// deadlock victim, which clients treat as a retryable conflict.
    pub lock_wait_timeout: Duration,
    /// Metrics registry the engine reports into (lock-wait times, the
    /// announce-wait stage and WAL group-commit figures).  Defaults to a
    /// disabled registry, which reduces every instrumentation point to one
    /// predictable branch.
    pub metrics: Arc<MetricsRegistry>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            sync_mode: SyncMode::Durable,
            disk: DiskConfig::default(),
            ordered_commit_timeout: Duration::from_secs(5),
            lock_wait_timeout: crate::locks::DEFAULT_LOCK_WAIT,
            metrics: Arc::new(MetricsRegistry::disabled()),
        }
    }
}

impl EngineConfig {
    /// Configuration for a replica under a given system: Tashkent-MW turns
    /// synchronous writes off, everything else keeps them on.
    #[must_use]
    pub fn with_sync_mode(sync_mode: SyncMode) -> Self {
        EngineConfig {
            sync_mode,
            ..EngineConfig::default()
        }
    }
}

/// Mutable data protected by the announce lock: the table heaps, the current
/// version and the ordered-commit announce counter.
#[derive(Debug, Default)]
struct DataState {
    tables: Vec<TableData>,
    /// Latest announced (visible) version.
    version: Version,
    /// Next version to hand out to standalone `commit()` calls.
    reserved_version: Version,
    /// Dense counter of announced ordered commits (the "semaphore" of
    /// Section 8.3).
    announce_counter: u64,
}

struct DbShared {
    catalog: RwLock<Catalog>,
    data: Mutex<DataState>,
    announced: Condvar,
    txns: Mutex<HashMap<TxId, Transaction>>,
    next_tx: AtomicU64,
    locks: LockManager,
    wal: WalWriter,
    device: Arc<dyn LogDevice>,
    sync_mode: Mutex<SyncMode>,
    crashed: AtomicBool,
    ordered_commit_timeout: Duration,
    metrics: Arc<MetricsRegistry>,
}

/// A snapshot-isolated multi-version database engine.
///
/// `Database` is cheap to clone (all clones share the same engine), which is
/// how the proxy, the workload drivers and the fault injector all hold a
/// handle to the same replica.
#[derive(Clone)]
pub struct Database {
    shared: Arc<DbShared>,
}

impl std::fmt::Debug for Database {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Database")
            .field("version", &self.version())
            .field("tables", &self.shared.catalog.read().len())
            .finish()
    }
}

impl Database {
    /// Creates an empty database with a fresh simulated log device.
    #[must_use]
    pub fn new(config: EngineConfig) -> Self {
        let device: Arc<dyn LogDevice> = Arc::new(SimulatedDisk::new(config.disk.clone()));
        Database::with_device(config, device)
    }

    /// Creates an empty database on top of an existing log device (used by
    /// recovery and by tests that want to share a device).
    #[must_use]
    pub fn with_device(config: EngineConfig, device: Arc<dyn LogDevice>) -> Self {
        Database {
            shared: Arc::new(DbShared {
                catalog: RwLock::new(Catalog::new()),
                data: Mutex::new(DataState::default()),
                announced: Condvar::new(),
                txns: Mutex::new(HashMap::new()),
                next_tx: AtomicU64::new(1),
                locks: LockManager::with_max_wait(config.lock_wait_timeout),
                wal: WalWriter::with_metrics(Arc::clone(&device), Arc::clone(&config.metrics)),
                device,
                sync_mode: Mutex::new(config.sync_mode),
                crashed: AtomicBool::new(false),
                ordered_commit_timeout: config.ordered_commit_timeout,
                metrics: config.metrics,
            }),
        }
    }

    /// Recovers a database from the durable contents of a log device,
    /// re-creating the given schema first and then redoing every durable
    /// commit record (standard WAL redo recovery, Section 7.2).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Corruption`] if the durable log cannot be decoded.
    pub fn recover(
        config: EngineConfig,
        device: Arc<dyn LogDevice>,
        schema: &[(&str, Vec<&str>)],
    ) -> Result<Self> {
        Database::recover_with_baseline(config, device, schema, None, None)
    }

    /// [`Database::recover`] starting from a baseline image instead of an
    /// empty database, optionally bounding the redo.
    ///
    /// A real engine's WAL redoes *on top of the data pages on disk*; this
    /// simulated engine has no data pages, so state that never went through
    /// the WAL — the bulk-loaded initial database of a benchmark — must be
    /// supplied as a baseline dump or it would vanish on recovery.  Records
    /// at or below the baseline's version are skipped (already covered),
    /// exactly like the checkpoint rule.
    ///
    /// Records are redone in ascending **version** order, not log order:
    /// the ordered-commit API logs each record before waiting for its
    /// announce turn, so under concurrency the physical log interleaves
    /// versions — a log-order redo with a monotonic skip would silently
    /// drop any record written after a higher-versioned one (found by the
    /// fault-schedule harness: a recovered Tashkent-API replica came back
    /// missing interior commits).
    ///
    /// `redo_bound` stops the redo after the given version.  Replica
    /// recovery (`recover_replica` in the proxy) passes the WAL's dense
    /// frontier — the highest version up to which the log is *provably*
    /// complete, or the baseline itself under `SyncMode::Off` — and the
    /// proxy's resync fills the rest from the certifier.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Corruption`] if the durable log cannot be decoded.
    pub fn recover_with_baseline(
        config: EngineConfig,
        device: Arc<dyn LogDevice>,
        schema: &[(&str, Vec<&str>)],
        baseline: Option<&DatabaseDump>,
        redo_bound: Option<Version>,
    ) -> Result<Self> {
        let mut records: Vec<(Version, WriteSet)> =
            WalRecord::decode_all(&device.durable_contents())?
                .into_iter()
                .filter_map(|record| match record {
                    WalRecord::Commit { version, writeset } => Some((version, writeset)),
                    WalRecord::Checkpoint { .. } => None,
                })
                .collect();
        records.sort_by_key(|(version, _)| *version);
        let db = Database::with_device(config, device);
        for (name, columns) in schema {
            db.create_table(name, columns);
        }
        if let Some(dump) = baseline {
            // The baseline may be any sealed checkpoint, not just a
            // version-0-anchored seed image.  The WAL's dense frontier must
            // *meet* it: the smallest durable record above the checkpoint
            // version must be exactly the next version, otherwise records
            // between checkpoint and log were truncated away and a silent
            // re-fetch would paper over data loss.
            let base = dump.version();
            let first_above = records
                .iter()
                .map(|(version, _)| *version)
                .find(|version| {
                    *version > base && redo_bound.is_none_or(|bound| *version <= bound)
                });
            if let Some(first) = first_above {
                if first > base.next() {
                    return Err(Error::Corruption(format!(
                        "WAL gap above checkpoint: baseline covers {base}, \
                         next durable record is {first}"
                    )));
                }
            }
            dump.load_into(&db);
        }
        for (version, writeset) in records {
            if redo_bound.is_some_and(|bound| version > bound) {
                break;
            }
            // Idempotent with respect to versions already applied (duplicate
            // records, checkpoint or baseline coverage).
            if version > db.version() {
                db.apply_writeset_internal(&writeset, version, false)?;
            }
        }
        Ok(db)
    }

    /// Restores a database from a dump taken with [`Database::dump`] onto a
    /// fresh log device.  (Replica recovery loads its checkpoint image
    /// through [`Database::recover_with_baseline`] instead, on top of the
    /// old device, so the WAL past the image can be redone.)
    #[must_use]
    pub fn restore_from_dump(config: EngineConfig, dump: &DatabaseDump) -> Self {
        let db = Database::new(config);
        dump.load_into(&db);
        db
    }

    /// Registers a table and returns its identifier.  Idempotent.
    pub fn create_table(&self, name: &str, columns: &[&str]) -> TableId {
        let id = self.shared.catalog.write().create_table(name, columns);
        let mut data = self.shared.data.lock();
        while data.tables.len() <= id.0 as usize {
            data.tables.push(TableData::new());
        }
        id
    }

    /// Looks up a table by name.
    #[must_use]
    pub fn table_id(&self, name: &str) -> Option<TableId> {
        self.shared.catalog.read().table_id(name)
    }

    /// The schema of every registered table, for feeding [`Database::recover`].
    #[must_use]
    pub fn schema(&self) -> Vec<(String, Vec<String>)> {
        self.shared
            .catalog
            .read()
            .iter()
            .map(|s| (s.name.clone(), s.columns.clone()))
            .collect()
    }

    /// The latest announced (visible) version — the engine's view of
    /// `replica_version`.
    #[must_use]
    pub fn version(&self) -> Version {
        self.shared.data.lock().version
    }

    /// Begins a new transaction reading from the latest announced snapshot.
    #[must_use]
    pub fn begin(&self) -> TxHandle {
        let start_version = self.shared.data.lock().version;
        self.begin_at(start_version)
    }

    /// Begins a transaction pinned to an explicit (possibly older) snapshot.
    ///
    /// Assigning a conservative (older) snapshot is safe under GSI
    /// (Section 6.2): certification still detects every write-write conflict
    /// as long as the label is not newer than the actual snapshot.
    #[must_use]
    pub fn begin_at(&self, start_version: Version) -> TxHandle {
        let id = TxId(self.shared.next_tx.fetch_add(1, Ordering::Relaxed));
        self.shared
            .txns
            .lock()
            .insert(id, Transaction::new(id, start_version));
        TxHandle {
            db: self.clone(),
            id,
        }
    }

    /// Changes the WAL synchronisation mode (Section 7.1).
    pub fn set_sync_mode(&self, mode: SyncMode) {
        *self.shared.sync_mode.lock() = mode;
    }

    /// The current WAL synchronisation mode.
    #[must_use]
    pub fn sync_mode(&self) -> SyncMode {
        *self.shared.sync_mode.lock()
    }

    /// The log device backing this engine (shared for crash simulation and
    /// recovery).
    #[must_use]
    pub fn log_device(&self) -> Arc<dyn LogDevice> {
        Arc::clone(&self.shared.device)
    }

    /// Reads the latest committed image of a row outside any transaction
    /// (convenience for tests and workload loaders).
    #[must_use]
    pub fn read_latest(&self, table: TableId, key: impl Into<RowKey>) -> Option<Row> {
        let data = self.shared.data.lock();
        let version = data.version;
        data.tables
            .get(table.0 as usize)
            .and_then(|t| t.read(&key.into(), version))
            .cloned()
    }

    /// Number of visible rows in a table at the latest version.
    #[must_use]
    pub fn row_count(&self, table: TableId) -> usize {
        let data = self.shared.data.lock();
        let version = data.version;
        data.tables
            .get(table.0 as usize)
            .map_or(0, |t| t.scan_at(version).count())
    }

    /// Aborts a transaction by id, releasing its locks: the wound of
    /// `lock_row`'s remote-priority rule.  Later operations on the aborted
    /// transaction fail with [`Error::InvalidTransactionState`].
    fn abort_transaction(&self, tx: TxId) {
        self.shared.locks.wound(tx);
        self.abort_tx(tx);
    }

    /// Takes a consistent dump of the latest committed snapshot
    /// ("DUMP DATA", Section 8.1) without blocking writers for long.
    #[must_use]
    pub fn dump(&self) -> DatabaseDump {
        let catalog = self.shared.catalog.read().clone();
        let data = self.shared.data.lock();
        DatabaseDump::capture(&catalog, &data.tables, data.version)
    }

    /// The dense announce counter of the ordered-commit API: how many ordered
    /// commits have been announced so far.
    #[must_use]
    pub fn announce_counter(&self) -> u64 {
        self.shared.data.lock().announce_counter
    }

    /// Fast-forwards the ordered-commit announce counter to at least `value`.
    ///
    /// Used by the proxy's soft-recovery path (Section 8.1): when an ordered
    /// commit fails after its order index was assigned, the index would
    /// otherwise leave a permanent gap that stalls every later ordered
    /// commit.  Fast-forwarding declares the burned indices consumed.
    pub fn force_announce_counter(&self, value: u64) {
        let mut data = self.shared.data.lock();
        data.announce_counter = data.announce_counter.max(value);
        drop(data);
        self.shared.announced.notify_all();
    }

    /// Bulk-loads rows into a table, installing them at `version` without
    /// going through the transaction machinery or the WAL.
    ///
    /// Used by workload loaders (populating the initial TPC-B / TPC-W
    /// databases) and by dump restoration.  The database version advances to
    /// at least `version`.
    pub fn bulk_load(&self, table: TableId, rows: Vec<(RowKey, Row)>, version: Version) {
        let mut data = self.shared.data.lock();
        while data.tables.len() <= table.0 as usize {
            data.tables.push(TableData::new());
        }
        for (key, row) in rows {
            data.tables[table.0 as usize]
                .chain_mut(key)
                .install(version, Some(row));
        }
        data.version = data.version.max(version);
        data.reserved_version = data.reserved_version.max(version);
    }

    /// Writes a checkpoint record and flushes the WAL.
    pub fn checkpoint(&self) {
        let version = self.version();
        self.shared.wal.append(&WalRecord::Checkpoint { version });
        self.shared.wal.flush_all();
    }

    /// Drops every WAL record whose version is at or below `watermark`,
    /// rewriting the log as the surviving suffix.  Returns how many records
    /// were dropped.
    ///
    /// The caller (the cluster's trimmer) must only pass a watermark covered
    /// by a sealed checkpoint — recovery from the truncated log alone is
    /// impossible below it.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Corruption`] if the durable log cannot be decoded.
    pub fn truncate_wal_below(&self, watermark: Version) -> Result<usize> {
        self.shared.wal.truncate_below(watermark)
    }

    /// Current size of the WAL in bytes (durable or not) — the figure the
    /// bounded-memory soak assertion watches.
    #[must_use]
    pub fn wal_size(&self) -> u64 {
        self.shared.device.len()
    }

    /// Discards row versions that no snapshot at or after
    /// `current - keep_versions` can see.  Returns the number of versions
    /// discarded.
    pub fn vacuum(&self, keep_versions: u64) -> usize {
        let mut data = self.shared.data.lock();
        let horizon = Version(data.version.0.saturating_sub(keep_versions));
        data.tables
            .iter_mut()
            .map(|t| t.prune_older_than(horizon))
            .sum()
    }

    /// Simulates a crash of the database process: un-synced log bytes are
    /// lost and every subsequent operation fails with
    /// [`Error::Unavailable`] until the database is recovered.
    pub fn crash(&self) {
        self.shared.crashed.store(true, Ordering::SeqCst);
        self.shared.device.crash();
    }

    /// `true` once [`Database::crash`] has been called.
    #[must_use]
    pub fn is_crashed(&self) -> bool {
        self.shared.crashed.load(Ordering::SeqCst)
    }

    /// Applies a (possibly merged) remote writeset as its own transaction and
    /// commits it at `commit_version`, following the engine's sync mode.
    ///
    /// # Errors
    ///
    /// Propagates lock conflicts and deadlocks (the proxy then performs soft
    /// recovery) and [`Error::Unavailable`] after a crash.
    pub fn apply_writeset(&self, writeset: &WriteSet, commit_version: Version) -> Result<Version> {
        self.apply_writeset_internal(writeset, commit_version, true)
    }

    fn apply_writeset_internal(
        &self,
        writeset: &WriteSet,
        commit_version: Version,
        respect_sync_mode: bool,
    ) -> Result<Version> {
        let tx = self.begin();
        self.mark_remote_apply(tx.id());
        if let Err(e) = tx.apply_items(writeset) {
            tx.abort();
            return Err(e);
        }
        if respect_sync_mode {
            tx.commit_at(commit_version)
        } else {
            // Recovery replay: never wait on fsyncs.
            tx.commit_at_with_sync(commit_version, false)
        }
    }

    /// Applies a remote writeset with the ordered-commit API (Tashkent-API):
    /// the commit is announced at dense position `order_index`, and its
    /// commit record is appended without waiting for a flush.  The writeset
    /// is already durable in the certifier log; the next local ordered
    /// commit's flush (or a checkpoint) covers the record, and a crash
    /// before then leaves a gap that replica recovery re-fetches from the
    /// certifier.  ([`Database::apply_writeset`], the serial Base path,
    /// still flushes.)
    ///
    /// The install begins at its announce turn, not before.  By then every
    /// earlier index has announced, so its snapshot holds every earlier
    /// writeset; no later install has started; and no certified local
    /// commit writes one of its rows (certification would have aborted
    /// it).  So it touches no row another install needs, and one attempt
    /// suffices.
    ///
    /// # Errors
    ///
    /// Propagates lock conflicts, deadlocks and ordered-commit timeouts.
    pub fn apply_writeset_ordered(
        &self,
        writeset: &WriteSet,
        commit_version: Version,
        order_index: u64,
    ) -> Result<Version> {
        if !self.wait_for_announce_turn(order_index) {
            return Err(Error::OrderedCommitTimeout {
                sequence: commit_version,
            });
        }
        let tx = self.begin();
        self.mark_remote_apply(tx.id());
        match tx.apply_items(writeset) {
            Ok(()) => tx.commit_ordered(order_index, commit_version),
            Err(e) => {
                tx.abort();
                Err(e)
            }
        }
    }

    /// Parks until every announce order strictly below `order_index` has
    /// announced.  Returns `false` if the ordered-commit timeout elapses
    /// first: the announce chain itself is stuck, which is the caller's
    /// resync path.
    fn wait_for_announce_turn(&self, order_index: u64) -> bool {
        let deadline = std::time::Instant::now() + self.shared.ordered_commit_timeout;
        let mut data = self.shared.data.lock();
        while data.announce_counter < order_index.saturating_sub(1) {
            let timeout = deadline.saturating_duration_since(std::time::Instant::now());
            if timeout.is_zero()
                || self
                    .shared
                    .announced
                    .wait_for(&mut data, timeout)
                    .timed_out()
            {
                return data.announce_counter >= order_index.saturating_sub(1);
            }
        }
        true
    }

    fn mark_remote_apply(&self, id: TxId) {
        if let Some(tx) = self.shared.txns.lock().get_mut(&id) {
            tx.remote_apply = true;
        }
    }

    fn check_alive(&self) -> Result<()> {
        if self.is_crashed() {
            Err(Error::Unavailable("database has crashed".into()))
        } else {
            Ok(())
        }
    }

    // ----- internal transaction operations (called through TxHandle) -----

    fn with_tx<R>(&self, id: TxId, f: impl FnOnce(&mut Transaction) -> Result<R>) -> Result<R> {
        let mut txns = self.shared.txns.lock();
        let tx = txns.get_mut(&id).ok_or(Error::UnknownTransaction(id))?;
        f(tx)
    }

    fn read_tx(&self, id: TxId, table: TableId, key: &RowKey) -> Result<Option<Row>> {
        self.check_alive()?;
        let (start_version, own) = self.with_tx(id, |tx| {
            if !tx.is_active() {
                return Err(Error::InvalidTransactionState {
                    tx: id,
                    expected: "active",
                });
            }
            Ok((tx.start_version, tx.own_write(table, key).cloned()))
        })?;
        if let Some(own_image) = own {
            return Ok(own_image);
        }
        let data = self.shared.data.lock();
        Ok(data
            .tables
            .get(table.0 as usize)
            .and_then(|t| t.read(key, start_version))
            .cloned())
    }

    fn scan_tx(&self, id: TxId, table: TableId) -> Result<Vec<(RowKey, Row)>> {
        self.check_alive()?;
        let (start_version, buffer) = self.with_tx(id, |tx| {
            if !tx.is_active() {
                return Err(Error::InvalidTransactionState {
                    tx: id,
                    expected: "active",
                });
            }
            Ok((
                tx.start_version,
                tx.write_buffer
                    .iter()
                    .filter(|((t, _), _)| *t == table)
                    .map(|((_, k), v)| (k.clone(), v.clone()))
                    .collect::<HashMap<RowKey, Option<Row>>>(),
            ))
        })?;
        let data = self.shared.data.lock();
        let mut rows: Vec<(RowKey, Row)> = Vec::new();
        if let Some(t) = data.tables.get(table.0 as usize) {
            for (key, row) in t.scan_at(start_version) {
                match buffer.get(key) {
                    Some(Some(own)) => rows.push((key.clone(), own.clone())),
                    Some(None) => {} // Deleted by this transaction.
                    None => rows.push((key.clone(), row.clone())),
                }
            }
        }
        drop(data);
        // Rows inserted by this transaction that are not yet in the store.
        for (key, image) in &buffer {
            if let Some(row) = image {
                if !rows.iter().any(|(k, _)| k == key) {
                    rows.push((key.clone(), row.clone()));
                }
            }
        }
        rows.sort_by(|(a, _), (b, _)| a.cmp(b));
        Ok(rows)
    }

    fn lock_row(&self, id: TxId, table: TableId, key: &RowKey) -> Result<()> {
        // Section 8.2's remote-priority rule, implemented here only and the
        // same on all three systems: a remote-writeset install takes
        // priority over local transactions ("mark remote writesets with high
        // priority, aborting any conflicting local transaction").  The
        // install is certified and must commit; a local holder of one of its
        // rows is doomed to fail certification anyway.  Every local write
        // takes its row lock first, so the local transactions whose partial
        // writesets intersect the install are exactly the holders it meets
        // here, and each is aborted at the row.  Aborting at once also keeps
        // the apply phase out of deadlocks with client transactions.
        //
        // A remote holder is waited out on the blocking path, never
        // aborted.  An ordered install begins only at its announce turn, so
        // the one remote holder it can meet is an install from an index a
        // resync burned, still finishing; aborting that one could let its
        // cloned write buffer land anyway.
        let is_remote_apply = self.with_tx(id, |tx| Ok(tx.remote_apply)).unwrap_or(false);
        if is_remote_apply {
            let resource = (table, key.clone());
            loop {
                if self.shared.locks.try_acquire(id, &resource)? {
                    return Ok(());
                }
                match self.shared.locks.holder(&resource) {
                    Some(holder) if holder != id => {
                        if self.with_tx(holder, |tx| Ok(tx.remote_apply)).unwrap_or(false) {
                            break;
                        }
                        self.abort_transaction(holder);
                    }
                    _ => {}
                }
            }
        }
        let wait_started = self
            .shared
            .metrics
            .is_enabled()
            .then(std::time::Instant::now);
        let acquired = self.shared.locks.acquire(id, &(table, key.clone()));
        if let Some(started) = wait_started {
            self.shared.metrics.record_lock_wait(started.elapsed());
        }
        match acquired {
            Ok(()) => Ok(()),
            Err(Error::Deadlock { tx }) => {
                self.shared.metrics.incr(CounterId::Deadlocks);
                Err(Error::Deadlock { tx })
            }
            Err(e) => Err(e),
        }
    }

    fn insert_tx(&self, id: TxId, table: TableId, key: RowKey, row: Row) -> Result<()> {
        self.check_alive()?;
        self.ensure_table(table)?;
        self.lock_row(id, table, &key)?;
        self.with_tx(id, |tx| {
            if !tx.is_active() {
                return Err(Error::InvalidTransactionState {
                    tx: id,
                    expected: "active",
                });
            }
            tx.record_insert(table, key.clone(), row.clone());
            Ok(())
        })
    }

    fn update_tx(
        &self,
        id: TxId,
        table: TableId,
        key: RowKey,
        columns: Vec<(String, Value)>,
    ) -> Result<()> {
        self.check_alive()?;
        self.ensure_table(table)?;
        self.lock_row(id, table, &key)?;
        // Base image: the transaction's own write if any, else the snapshot.
        let base = self.read_tx(id, table, &key)?;
        let Some(base) = base else {
            return Err(Error::RowNotFound {
                table: self.shared.catalog.read().table_name(table).to_owned(),
                key: key.to_string(),
            });
        };
        let new_image = base.with_updates(&columns);
        self.with_tx(id, |tx| {
            tx.record_update(table, key.clone(), new_image.clone(), columns.clone());
            Ok(())
        })
    }

    fn delete_tx(&self, id: TxId, table: TableId, key: RowKey) -> Result<()> {
        self.check_alive()?;
        self.ensure_table(table)?;
        self.lock_row(id, table, &key)?;
        let existing = self.read_tx(id, table, &key)?;
        if existing.is_none() {
            return Err(Error::RowNotFound {
                table: self.shared.catalog.read().table_name(table).to_owned(),
                key: key.to_string(),
            });
        }
        self.with_tx(id, |tx| {
            tx.record_delete(table, key.clone());
            Ok(())
        })
    }

    fn ensure_table(&self, table: TableId) -> Result<()> {
        if self.shared.catalog.read().schema(table).is_some() {
            Ok(())
        } else {
            Err(Error::UnknownTable(format!("{table}")))
        }
    }

    fn writeset_of(&self, id: TxId) -> Result<WriteSet> {
        self.with_tx(id, |tx| Ok(tx.writeset.clone()))
    }

    fn start_version_of(&self, id: TxId) -> Result<Version> {
        self.with_tx(id, |tx| Ok(tx.start_version))
    }

    fn abort_tx(&self, id: TxId) {
        let mut txns = self.shared.txns.lock();
        if let Some(tx) = txns.get_mut(&id) {
            if tx.is_active() {
                tx.state = TxState::Aborted;
                tx.write_buffer.clear();
            }
        }
        drop(txns);
        self.shared.locks.release_all(id, false);
    }

    /// Shared commit preparation: validates and extracts what the install
    /// step needs.  Returns `None` for read-only transactions.
    fn prepare_commit(
        &self,
        id: TxId,
    ) -> Result<Option<(WriteSet, WriteBuffer, Version)>> {
        self.check_alive()?;
        if self.shared.locks.is_wounded(id) {
            self.abort_tx(id);
            return Err(Error::WriteConflict {
                tx: id,
                detail: "transaction wounded by replication middleware".into(),
            });
        }
        let (writeset, buffer, start_version) = self.with_tx(id, |tx| {
            if !tx.is_active() {
                return Err(Error::InvalidTransactionState {
                    tx: id,
                    expected: "active",
                });
            }
            Ok((
                tx.writeset.clone(),
                tx.write_buffer.clone(),
                tx.start_version,
            ))
        })?;
        if writeset.is_empty() {
            // Read-only: commit immediately, no WAL, no version change.
            self.with_tx(id, |tx| {
                tx.state = TxState::Committed(start_version);
                Ok(())
            })?;
            self.shared.locks.release_all(id, true);
            return Ok(None);
        }
        // First-committer-wins validation against committed state.
        {
            let data = self.shared.data.lock();
            for (table, key) in buffer.keys() {
                if let Some(t) = data.tables.get(table.0 as usize) {
                    if t.modified_after(key, start_version) {
                        drop(data);
                        self.abort_tx(id);
                        return Err(Error::WriteConflict {
                            tx: id,
                            detail: format!("row {key} modified since {start_version}"),
                        });
                    }
                }
            }
        }
        Ok(Some((writeset, buffer, start_version)))
    }

    fn log_commit(&self, version: Version, writeset: &WriteSet, force_sync: Option<bool>) {
        let record = WalRecord::Commit {
            version,
            writeset: writeset.clone(),
        };
        let sync = force_sync.unwrap_or_else(|| self.sync_mode().commit_is_synchronous());
        if sync {
            self.shared.wal.append_durable(&record);
        } else {
            self.shared.wal.append(&record);
        }
    }

    fn install(
        &self,
        data: &mut DataState,
        buffer: &WriteBuffer,
        version: Version,
    ) {
        for ((table, key), image) in buffer {
            while data.tables.len() <= table.0 as usize {
                data.tables.push(TableData::new());
            }
            data.tables[table.0 as usize]
                .chain_mut(key.clone())
                .install(version, image.clone());
        }
        data.version = data.version.max(version);
        data.reserved_version = data.reserved_version.max(version);
    }

    fn finish_commit(&self, id: TxId, version: Version) {
        self.with_tx(id, |tx| {
            tx.state = TxState::Committed(version);
            Ok(())
        })
        .ok();
        self.shared.locks.release_all(id, true);
    }

    /// Standalone commit: the engine assigns the next version itself and
    /// announces commits in version order while group-committing the log
    /// records.
    fn commit_standalone(&self, id: TxId) -> Result<Version> {
        let Some((writeset, buffer, _)) = self.prepare_commit(id)? else {
            return Ok(self.version());
        };
        // Reserve the next version.
        let target = {
            let mut data = self.shared.data.lock();
            data.reserved_version = data.reserved_version.next();
            data.reserved_version
        };
        self.log_commit(target, &writeset, None);
        // Announce in version order.
        let announce_started = self
            .shared
            .metrics
            .is_enabled()
            .then(std::time::Instant::now);
        let mut data = self.shared.data.lock();
        while data.version != target.prev() {
            self.shared.announced.wait(&mut data);
        }
        if let Some(started) = announce_started {
            self.shared
                .metrics
                .record_stage(Stage::Announce, started.elapsed());
        }
        self.shared.metrics.emit(
            Event::new(Component::Engine, EventKind::Announce)
                .tx(id.0)
                .version(target.0),
        );
        self.install(&mut data, &buffer, target);
        drop(data);
        self.shared.announced.notify_all();
        self.finish_commit(id, target);
        Ok(target)
    }

    /// Externally versioned, serial commit (Base / Tashkent-MW path).
    fn commit_at_version(&self, id: TxId, version: Version, force_sync: Option<bool>) -> Result<Version> {
        let Some((writeset, buffer, _)) = self.prepare_commit(id)? else {
            return Ok(self.version());
        };
        {
            let data = self.shared.data.lock();
            if version <= data.version {
                drop(data);
                self.abort_tx(id);
                return Err(Error::Protocol(format!(
                    "commit version {version} is not newer than current {}",
                    self.version()
                )));
            }
        }
        self.log_commit(version, &writeset, force_sync);
        let mut data = self.shared.data.lock();
        self.install(&mut data, &buffer, version);
        drop(data);
        self.shared.announced.notify_all();
        self.finish_commit(id, version);
        Ok(version)
    }

    /// The extended `COMMIT <seq>` of Tashkent-API: concurrent submission,
    /// group-committed log records, ordered announcement.
    fn commit_ordered_version(&self, id: TxId, order_index: u64, version: Version) -> Result<Version> {
        if order_index == 0 {
            self.abort_tx(id);
            return Err(Error::Protocol(
                "ordered commit indices start at 1".into(),
            ));
        }
        let Some((writeset, buffer, _)) = self.prepare_commit(id)? else {
            return Ok(self.version());
        };
        // Durability first: a local commit's record may be flushed in any
        // order relative to other transactions (grouped into one fsync when
        // submissions are concurrent).  A remote install only appends: its
        // writeset is already durable in the certifier log, the next local
        // flush or checkpoint covers the record, and recovery re-fetches
        // whatever a crash took from above the WAL's dense frontier.
        let remote = self.with_tx(id, |tx| Ok(tx.remote_apply)).unwrap_or(false);
        self.log_commit(version, &writeset, remote.then_some(false));
        // Announce strictly in the prescribed order ("semaphore").
        let announce_started = self
            .shared
            .metrics
            .is_enabled()
            .then(std::time::Instant::now);
        let deadline = std::time::Instant::now() + self.shared.ordered_commit_timeout;
        let mut data = self.shared.data.lock();
        loop {
            if data.announce_counter >= order_index {
                drop(data);
                self.abort_tx(id);
                return Err(Error::Protocol(format!(
                    "ordered commit index {order_index} already announced"
                )));
            }
            if data.announce_counter == order_index - 1 {
                // Our turn.  Check without `data` held (the transaction
                // table is never taken under the data lock) that no
                // install's row lock aborted us while we waited: our locks
                // would be gone and installing would race its write.
                drop(data);
                if !self.with_tx(id, |tx| Ok(tx.is_active())).unwrap_or(false) {
                    return Err(Error::WriteConflict {
                        tx: id,
                        detail: "ordered commit aborted while it waited for its turn".into(),
                    });
                }
                data = self.shared.data.lock();
                if data.announce_counter == order_index - 1 {
                    break;
                }
                continue;
            }
            let timeout = deadline.saturating_duration_since(std::time::Instant::now());
            if timeout.is_zero()
                || self
                    .shared
                    .announced
                    .wait_for(&mut data, timeout)
                    .timed_out()
            {
                if data.announce_counter == order_index - 1 {
                    continue;
                }
                drop(data);
                self.abort_tx(id);
                return Err(Error::OrderedCommitTimeout { sequence: version });
            }
        }
        if let Some(started) = announce_started {
            self.shared
                .metrics
                .record_stage(Stage::Announce, started.elapsed());
        }
        self.shared.metrics.emit(
            Event::new(Component::Engine, EventKind::Announce)
                .tx(id.0)
                .version(version.0),
        );
        self.install(&mut data, &buffer, version);
        data.announce_counter = order_index;
        // Release the row locks before the announce can be observed.  The
        // next index's install begins as soon as it sees this announce; had
        // it found this transaction still holding one of its rows, it would
        // have queued behind a committing holder and lost with a write
        // conflict, leaving its index unannounced.
        self.shared.locks.release_all(id, true);
        drop(data);
        self.shared.announced.notify_all();
        self.with_tx(id, |tx| {
            tx.state = TxState::Committed(version);
            Ok(())
        })
        .ok();
        Ok(version)
    }
}

/// Handle to one transaction.
///
/// Dropping an active handle aborts the transaction, so early returns in
/// client code cannot leak write locks.
pub struct TxHandle {
    db: Database,
    id: TxId,
}

impl std::fmt::Debug for TxHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TxHandle").field("id", &self.id).finish()
    }
}

impl TxHandle {
    /// The engine-local transaction identifier.
    #[must_use]
    pub fn id(&self) -> TxId {
        self.id
    }

    /// The snapshot version this transaction reads from.
    #[must_use]
    pub fn start_version(&self) -> Version {
        self.db.start_version_of(self.id).unwrap_or(Version::ZERO)
    }

    /// Reads a row, seeing the transaction's own writes first.
    ///
    /// # Errors
    ///
    /// Fails if the transaction is no longer active or the database crashed.
    pub fn read(&self, table: TableId, key: impl Into<RowKey>) -> Result<Option<Row>> {
        self.db.read_tx(self.id, table, &key.into())
    }

    /// Scans all rows of a table visible to this transaction, in key order.
    ///
    /// # Errors
    ///
    /// Fails if the transaction is no longer active or the database crashed.
    pub fn scan(&self, table: TableId) -> Result<Vec<(RowKey, Row)>> {
        self.db.scan_tx(self.id, table)
    }

    /// Inserts (or fully replaces) a row.
    ///
    /// # Errors
    ///
    /// Fails with a write conflict or deadlock if the row is locked by a
    /// competing transaction that goes on to commit.
    pub fn insert(
        &self,
        table: TableId,
        key: impl Into<RowKey>,
        row: Vec<(String, Value)>,
    ) -> Result<()> {
        self.db
            .insert_tx(self.id, table, key.into(), Row::from_columns(row))
    }

    /// Updates columns of an existing row.
    ///
    /// # Errors
    ///
    /// Fails if the row does not exist, or with a conflict / deadlock while
    /// acquiring the row lock.
    pub fn update(
        &self,
        table: TableId,
        key: impl Into<RowKey>,
        columns: Vec<(String, Value)>,
    ) -> Result<()> {
        self.db.update_tx(self.id, table, key.into(), columns)
    }

    /// Deletes a row.
    ///
    /// # Errors
    ///
    /// Fails if the row does not exist, or with a conflict / deadlock while
    /// acquiring the row lock.
    pub fn delete(&self, table: TableId, key: impl Into<RowKey>) -> Result<()> {
        self.db.delete_tx(self.id, table, key.into())
    }

    /// Extracts the transaction's writeset so far (trigger-captured changes).
    #[must_use]
    pub fn writeset(&self) -> WriteSet {
        self.db.writeset_of(self.id).unwrap_or_default()
    }

    /// Applies every item of a writeset as writes of this transaction
    /// (used to re-execute remote writesets).
    ///
    /// Updates to rows that do not exist locally are treated as inserts and
    /// deletions of missing rows are ignored, so that replaying a remote
    /// writeset is robust no matter how much of the schema the replica has
    /// materialised.
    ///
    /// # Errors
    ///
    /// Propagates lock conflicts and deadlocks.
    pub fn apply_items(&self, writeset: &WriteSet) -> Result<()> {
        for item in writeset.items() {
            match &item.op {
                WriteOp::Insert { row } => {
                    self.insert(item.table, item.key.clone(), row.clone())?;
                }
                WriteOp::Update { columns } => {
                    match self.update(item.table, item.key.clone(), columns.clone()) {
                        Ok(()) => {}
                        Err(Error::RowNotFound { .. }) => {
                            self.insert(item.table, item.key.clone(), columns.clone())?;
                        }
                        Err(e) => return Err(e),
                    }
                }
                WriteOp::Delete => match self.delete(item.table, item.key.clone()) {
                    Ok(()) | Err(Error::RowNotFound { .. }) => {}
                    Err(e) => return Err(e),
                },
            }
        }
        Ok(())
    }

    /// Commits with an engine-assigned version (standalone operation).
    ///
    /// # Errors
    ///
    /// Fails with [`Error::WriteConflict`] under first-committer-wins, or if
    /// the transaction was wounded, or after a crash.
    pub fn commit(&self) -> Result<Version> {
        self.db.commit_standalone(self.id)
    }

    /// Commits at an externally chosen version (serial replicated path).
    ///
    /// # Errors
    ///
    /// As for [`TxHandle::commit`], plus [`Error::Protocol`] if the version
    /// is not newer than the replica's current version.
    pub fn commit_at(&self, version: Version) -> Result<Version> {
        self.db.commit_at_version(self.id, version, None)
    }

    /// Commits at an externally chosen version, overriding the sync mode
    /// (used by recovery replay, which never waits for fsyncs).
    ///
    /// # Errors
    ///
    /// As for [`TxHandle::commit_at`].
    pub fn commit_at_with_sync(&self, version: Version, sync: bool) -> Result<Version> {
        self.db.commit_at_version(self.id, version, Some(sync))
    }

    /// The extended commit API of Tashkent-API: `COMMIT <seq>`.
    ///
    /// `order_index` is the dense per-engine announce position (1, 2, 3, …)
    /// and `version` the global version to install.  Concurrent ordered
    /// commits group their log records into a single fsync; announcement
    /// happens strictly in `order_index` order.
    ///
    /// # Errors
    ///
    /// As for [`TxHandle::commit`], plus [`Error::OrderedCommitTimeout`] if a
    /// predecessor index never arrives (API misuse, Section 5.2).
    pub fn commit_ordered(&self, order_index: u64, version: Version) -> Result<Version> {
        self.db.commit_ordered_version(self.id, order_index, version)
    }

    /// Aborts the transaction, releasing its locks.
    pub fn abort(&self) {
        self.db.abort_tx(self.id);
    }

    fn is_active(&self) -> bool {
        self.db
            .shared
            .txns
            .lock()
            .get(&self.id)
            .is_some_and(Transaction::is_active)
    }
}

impl Drop for TxHandle {
    fn drop(&mut self) {
        if self.is_active() {
            self.db.abort_tx(self.id);
        }
        // Garbage-collect finished transaction state.
        self.db.shared.txns.lock().remove(&self.id);
    }
}

#[cfg(test)]
mod tests {
    use std::thread;

    use super::*;

    fn test_db() -> (Database, TableId) {
        let db = Database::new(EngineConfig::default());
        let t = db.create_table("accounts", &["balance"]);
        (db, t)
    }

    fn balance(db: &Database, t: TableId, key: i64) -> i64 {
        db.read_latest(t, key)
            .and_then(|r| r.get("balance").and_then(Value::as_int))
            .unwrap_or(i64::MIN)
    }

    #[test]
    fn insert_read_commit() {
        let (db, t) = test_db();
        let tx = db.begin();
        tx.insert(t, 1, vec![("balance".into(), Value::Int(100))])
            .unwrap();
        // Own write is visible inside the transaction…
        assert_eq!(
            tx.read(t, 1).unwrap().unwrap().get("balance"),
            Some(&Value::Int(100))
        );
        // …but not outside before commit.
        assert!(db.read_latest(t, 1).is_none());
        let v = tx.commit().unwrap();
        assert_eq!(v, Version(1));
        assert_eq!(db.version(), Version(1));
        assert_eq!(balance(&db, t, 1), 100);
    }

    #[test]
    fn read_only_transactions_always_commit() {
        let (db, t) = test_db();
        let tx = db.begin();
        assert!(tx.read(t, 1).unwrap().is_none());
        tx.commit().unwrap();
        assert_eq!(db.version(), Version::ZERO);
        let fsyncs = db.log_device().stats().fsyncs;
        assert_eq!(fsyncs, 0, "read-only commits never fsync");
    }

    #[test]
    fn snapshot_isolation_reads_ignore_later_commits() {
        let (db, t) = test_db();
        let setup = db.begin();
        setup
            .insert(t, 1, vec![("balance".into(), Value::Int(1))])
            .unwrap();
        setup.commit().unwrap();

        let reader = db.begin();
        assert_eq!(
            reader.read(t, 1).unwrap().unwrap().get("balance"),
            Some(&Value::Int(1))
        );
        // A concurrent writer commits a new version.
        let writer = db.begin();
        writer
            .update(t, 1, vec![("balance".into(), Value::Int(2))])
            .unwrap();
        writer.commit().unwrap();
        // The reader still sees its snapshot.
        assert_eq!(
            reader.read(t, 1).unwrap().unwrap().get("balance"),
            Some(&Value::Int(1))
        );
        reader.commit().unwrap();
        assert_eq!(balance(&db, t, 1), 2);
    }

    #[test]
    fn first_committer_wins_on_write_write_conflict() {
        let (db, t) = test_db();
        let setup = db.begin();
        setup
            .insert(t, 1, vec![("balance".into(), Value::Int(0))])
            .unwrap();
        setup.commit().unwrap();

        // T1 writes the row and commits; T2, which started earlier, then
        // tries to write the same row and must abort.
        let t2 = db.begin();
        let t1 = db.begin();
        t1.update(t, 1, vec![("balance".into(), Value::Int(10))])
            .unwrap();
        t1.commit().unwrap();
        let result = t2.update(t, 1, vec![("balance".into(), Value::Int(20))]);
        // The lock is free (T1 finished) so the write succeeds; the conflict
        // must then be caught at commit time.
        if result.is_ok() {
            assert!(matches!(
                t2.commit(),
                Err(Error::WriteConflict { .. })
            ));
        }
        assert_eq!(balance(&db, t, 1), 10);
    }

    #[test]
    fn blocked_writer_aborts_when_holder_commits() {
        let (db, t) = test_db();
        let setup = db.begin();
        setup
            .insert(t, 1, vec![("balance".into(), Value::Int(0))])
            .unwrap();
        setup.commit().unwrap();

        let holder = db.begin();
        holder
            .update(t, 1, vec![("balance".into(), Value::Int(1))])
            .unwrap();
        let db2 = db.clone();
        let waiter = thread::spawn(move || {
            let tx = db2.begin();
            let r = tx.update(t, 1, vec![("balance".into(), Value::Int(2))]);
            if r.is_ok() {
                tx.commit().map(|_| ())
            } else {
                tx.abort();
                r
            }
        });
        thread::sleep(Duration::from_millis(30));
        holder.commit().unwrap();
        let result = waiter.join().unwrap();
        assert!(matches!(result, Err(Error::WriteConflict { .. })));
        assert_eq!(balance(&db, t, 1), 1);
    }

    #[test]
    fn writeset_extraction_captures_modified_columns_only() {
        let (db, t) = test_db();
        let setup = db.begin();
        setup
            .insert(
                t,
                1,
                vec![
                    ("balance".into(), Value::Int(5)),
                    ("name".into(), Value::Text("a".into())),
                ],
            )
            .unwrap();
        setup.commit().unwrap();
        let tx = db.begin();
        tx.update(t, 1, vec![("balance".into(), Value::Int(6))])
            .unwrap();
        let ws = tx.writeset();
        assert_eq!(ws.len(), 1);
        match &ws.items()[0].op {
            WriteOp::Update { columns } => {
                assert_eq!(columns.len(), 1);
                assert_eq!(columns[0].0, "balance");
            }
            other => panic!("expected update, got {other:?}"),
        }
        tx.abort();
    }

    #[test]
    fn commit_at_installs_externally_chosen_versions() {
        let (db, t) = test_db();
        // The proxy applies a grouped remote writeset T1_2_3 at version 3…
        let ws = WriteSet::from_items(vec![tashkent_common::WriteItem::insert(
            t,
            7,
            vec![("balance".into(), Value::Int(70))],
        )]);
        db.apply_writeset(&ws, Version(3)).unwrap();
        assert_eq!(db.version(), Version(3));
        // …then commits the local transaction at version 4.
        let tx = db.begin();
        tx.insert(t, 8, vec![("balance".into(), Value::Int(80))])
            .unwrap();
        assert_eq!(tx.commit_at(Version(4)).unwrap(), Version(4));
        assert_eq!(db.version(), Version(4));
        // A stale version is rejected.
        let tx = db.begin();
        tx.insert(t, 9, vec![("balance".into(), Value::Int(90))])
            .unwrap();
        assert!(matches!(
            tx.commit_at(Version(2)),
            Err(Error::Protocol(_))
        ));
    }

    #[test]
    fn ordered_commits_announce_in_sequence_and_group_fsyncs() {
        let (db, t) = test_db();
        db.set_sync_mode(SyncMode::Durable);
        // Submit four ordered commits concurrently, in scrambled submission
        // order; the engine must announce them as 1, 2, 3, 4.
        let mut handles = Vec::new();
        for (order, version, key) in [(3u64, 8u64, 3i64), (1, 3, 1), (4, 9, 4), (2, 4, 2)] {
            let db2 = db.clone();
            handles.push(thread::spawn(move || {
                let tx = db2.begin();
                tx.insert(t, key, vec![("balance".into(), Value::Int(key))])
                    .unwrap();
                tx.commit_ordered(order, Version(version)).unwrap()
            }));
            thread::sleep(Duration::from_millis(5));
        }
        let mut versions: Vec<Version> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        versions.sort();
        assert_eq!(
            versions,
            vec![Version(3), Version(4), Version(8), Version(9)]
        );
        assert_eq!(db.version(), Version(9));
        // All four rows are present.
        for key in 1..=4i64 {
            assert_eq!(balance(&db, t, key), key);
        }
        // Group commit: fewer fsyncs than commits is possible (not asserted
        // strictly because timing-dependent), but every commit is durable.
        assert!(db.log_device().stats().fsyncs <= 4);
    }

    #[test]
    fn ordered_commit_times_out_on_missing_predecessor() {
        let db = Database::new(EngineConfig {
            ordered_commit_timeout: Duration::from_millis(50),
            ..EngineConfig::default()
        });
        let t = db.create_table("t", &["x"]);
        let tx = db.begin();
        tx.insert(t, 1, vec![("x".into(), Value::Int(1))]).unwrap();
        // COMMIT 9 without COMMIT 1-8 ever arriving: the engine aborts it.
        let result = tx.commit_ordered(9, Version(9));
        assert!(matches!(result, Err(Error::OrderedCommitTimeout { .. })));
        assert_eq!(db.version(), Version::ZERO);
    }

    #[test]
    fn ordered_install_without_its_turn_parks_instead_of_spinning() {
        // An ordered install parks on the announce condvar until its turn
        // and only then begins.  An install that begins early and respins
        // begin/apply/conflict burns one full lock-wait round per attempt
        // (the fault harness once measured ~75 runnable threads and 10+
        // second drain stalls on seed 0x29).  Here the predecessor (order
        // 1) never arrives and a local transaction pins the row: the
        // install must give up with OrderedCommitTimeout after one
        // announce-wait, without spinning through lock-wait rounds.
        let db = Database::new(EngineConfig {
            ordered_commit_timeout: Duration::from_millis(75),
            lock_wait_timeout: Duration::from_millis(50),
            ..EngineConfig::default()
        });
        let t = db.create_table("t", &["x"]);
        let holder = db.begin();
        holder
            .insert(t, 1, vec![("x".into(), Value::Int(1))])
            .unwrap();
        let mut writeset = WriteSet::new();
        writeset.push(tashkent_common::WriteItem::update(
            t,
            1,
            vec![("x".into(), Value::Int(2))],
        ));
        let started = std::time::Instant::now();
        let result = db.apply_writeset_ordered(&writeset, Version(2), 2);
        let elapsed = started.elapsed();
        assert!(
            matches!(
                result,
                Err(Error::OrderedCommitTimeout { .. } | Error::Deadlock { .. })
            ),
            "stuck ordered apply must surface to the resync path: {result:?}"
        );
        assert!(
            elapsed < Duration::from_secs(1),
            "ordered apply spun through lock-wait rounds instead of parking \
             ({elapsed:?})"
        );
        drop(holder);
    }

    #[test]
    fn ordered_install_waits_for_its_turn_before_touching_a_row() {
        let (db, t) = test_db();
        let holder = db.begin();
        holder
            .insert(t, 1, vec![("balance".into(), Value::Int(1))])
            .unwrap();
        let writeset = WriteSet::from_items(vec![tashkent_common::WriteItem::insert(
            t,
            1,
            vec![("balance".into(), Value::Int(2))],
        )]);
        // Index 2 is submitted while index 1 is outstanding.
        let (done, result) = std::sync::mpsc::channel();
        let installer = {
            let db = db.clone();
            thread::spawn(move || {
                done.send(db.apply_writeset_ordered(&writeset, Version(2), 2))
                    .unwrap();
            })
        };
        thread::sleep(Duration::from_millis(100));
        assert!(
            holder.is_active(),
            "the install took the row before its announce turn"
        );
        assert_eq!(db.version(), Version::ZERO);
        // Index 1 announces; the install then aborts the local holder at
        // the row (Section 8.2) and lands.
        let first = db.begin();
        first
            .insert(t, 5, vec![("balance".into(), Value::Int(5))])
            .unwrap();
        assert_eq!(first.commit_ordered(1, Version(1)).unwrap(), Version(1));
        let landed = result
            .recv_timeout(Duration::from_secs(5))
            .expect("the install finished once its turn came");
        assert_eq!(landed.unwrap(), Version(2));
        installer.join().unwrap();
        assert!(!holder.is_active());
        assert_eq!(db.version(), Version(2));
        assert_eq!(balance(&db, t, 1), 2);
    }

    #[test]
    fn sync_mode_off_skips_fsyncs() {
        let db = Database::new(EngineConfig::with_sync_mode(SyncMode::Off));
        let t = db.create_table("t", &["x"]);
        for i in 0..10 {
            let tx = db.begin();
            tx.insert(t, i, vec![("x".into(), Value::Int(i))]).unwrap();
            tx.commit().unwrap();
        }
        assert_eq!(db.version(), Version(10));
        assert_eq!(db.log_device().stats().fsyncs, 0);
        // The WAL content exists but is volatile: a crash loses it.
        db.crash();
        let recovered =
            Database::recover(EngineConfig::default(), db.log_device(), &[("t", vec!["x"])])
                .unwrap();
        assert_eq!(recovered.version(), Version::ZERO);
    }

    #[test]
    fn durable_commits_survive_crash_and_recovery() {
        let (db, t) = test_db();
        for i in 0..5 {
            let tx = db.begin();
            tx.insert(t, i, vec![("balance".into(), Value::Int(i * 10))])
                .unwrap();
            tx.commit().unwrap();
        }
        db.crash();
        assert!(db.is_crashed());
        assert!(matches!(
            db.begin().read(t, 1),
            Err(Error::Unavailable(_))
        ));
        let recovered = Database::recover(
            EngineConfig::default(),
            db.log_device(),
            &[("accounts", vec!["balance"])],
        )
        .unwrap();
        assert_eq!(recovered.version(), Version(5));
        let t2 = recovered.table_id("accounts").unwrap();
        for i in 0..5 {
            assert_eq!(balance(&recovered, t2, i), i * 10);
        }
    }

    #[test]
    fn dump_and_restore_reproduce_state() {
        let (db, t) = test_db();
        for i in 0..20 {
            let tx = db.begin();
            tx.insert(t, i, vec![("balance".into(), Value::Int(i))])
                .unwrap();
            tx.commit().unwrap();
        }
        let dump = db.dump();
        assert_eq!(dump.version(), Version(20));
        let restored = Database::restore_from_dump(EngineConfig::default(), &dump);
        assert_eq!(restored.version(), Version(20));
        let t2 = restored.table_id("accounts").unwrap();
        assert_eq!(restored.row_count(t2), 20);
        assert_eq!(balance(&restored, t2, 7), 7);
    }

    #[test]
    fn wounded_transaction_cannot_commit() {
        let (db, t) = test_db();
        let tx = db.begin();
        tx.insert(t, 1, vec![("balance".into(), Value::Int(1))])
            .unwrap();
        // A certified remote writeset on the same row wounds the local holder
        // at the row lock and installs.
        let ws = WriteSet::from_items(vec![tashkent_common::WriteItem::insert(
            t,
            1,
            vec![("balance".into(), Value::Int(2))],
        )]);
        db.apply_writeset(&ws, Version(1)).unwrap();
        assert!(matches!(
            tx.commit(),
            Err(Error::InvalidTransactionState { .. })
        ));
        assert_eq!(balance(&db, t, 1), 2);
    }

    #[test]
    fn dropping_an_active_handle_aborts_it() {
        let (db, t) = test_db();
        {
            let tx = db.begin();
            tx.insert(t, 1, vec![("balance".into(), Value::Int(1))])
                .unwrap();
            // Dropped without commit.
        }
        assert!(db.read_latest(t, 1).is_none());
        // The lock was released: a new writer can proceed.
        let tx = db.begin();
        tx.insert(t, 1, vec![("balance".into(), Value::Int(2))])
            .unwrap();
        tx.commit().unwrap();
    }

    #[test]
    fn scan_merges_own_writes_and_respects_deletes() {
        let (db, t) = test_db();
        let setup = db.begin();
        for i in 0..3 {
            setup
                .insert(t, i, vec![("balance".into(), Value::Int(i))])
                .unwrap();
        }
        setup.commit().unwrap();
        let tx = db.begin();
        tx.delete(t, 0).unwrap();
        tx.insert(t, 10, vec![("balance".into(), Value::Int(10))])
            .unwrap();
        tx.update(t, 1, vec![("balance".into(), Value::Int(99))])
            .unwrap();
        let rows = tx.scan(t).unwrap();
        let keys: Vec<i64> = rows
            .iter()
            .map(|(k, _)| match k {
                RowKey::Int(i) => *i,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(keys, vec![1, 2, 10]);
        assert_eq!(rows[0].1.get("balance"), Some(&Value::Int(99)));
        tx.abort();
        // Outside the aborted transaction nothing changed.
        assert_eq!(db.row_count(t), 3);
    }

    #[test]
    fn vacuum_prunes_dead_versions() {
        let (db, t) = test_db();
        let setup = db.begin();
        setup
            .insert(t, 1, vec![("balance".into(), Value::Int(0))])
            .unwrap();
        setup.commit().unwrap();
        for i in 1..=10 {
            let tx = db.begin();
            tx.update(t, 1, vec![("balance".into(), Value::Int(i))])
                .unwrap();
            tx.commit().unwrap();
        }
        let removed = db.vacuum(0);
        assert!(removed >= 9, "expected most versions pruned, got {removed}");
        assert_eq!(balance(&db, t, 1), 10);
    }

    #[test]
    fn update_missing_row_is_an_error_but_apply_items_tolerates_it() {
        let (db, t) = test_db();
        let tx = db.begin();
        assert!(matches!(
            tx.update(t, 99, vec![("balance".into(), Value::Int(1))]),
            Err(Error::RowNotFound { .. })
        ));
        assert!(matches!(
            tx.delete(t, 99),
            Err(Error::RowNotFound { .. })
        ));
        tx.abort();
        // A remote writeset updating an unknown row falls back to insert.
        let ws = WriteSet::from_items(vec![tashkent_common::WriteItem::update(
            t,
            99,
            vec![("balance".into(), Value::Int(5))],
        )]);
        db.apply_writeset(&ws, Version(1)).unwrap();
        assert_eq!(balance(&db, t, 99), 5);
    }

    #[test]
    fn recovery_from_a_mid_stream_checkpoint_meets_the_wal_frontier() {
        let (db, t) = test_db();
        for i in 0..8 {
            let tx = db.begin();
            tx.insert(t, i, vec![("balance".into(), Value::Int(i))])
                .unwrap();
            tx.commit().unwrap();
        }
        // Seal a checkpoint at version 5 and truncate the WAL below it: the
        // log now starts at version 6 and the checkpoint is *not* anchored
        // at version 0.
        let dump_at_5 = {
            // Rebuild the version-5 image by replaying onto a fresh db.
            let fresh = Database::new(EngineConfig::default());
            let ft = fresh.create_table("accounts", &["balance"]);
            for i in 0..5 {
                let tx = fresh.begin();
                tx.insert(ft, i, vec![("balance".into(), Value::Int(i))])
                    .unwrap();
                tx.commit().unwrap();
            }
            fresh.dump()
        };
        assert_eq!(db.truncate_wal_below(Version(5)).unwrap(), 5);
        db.crash();
        let recovered = Database::recover_with_baseline(
            EngineConfig::default(),
            db.log_device(),
            &[("accounts", vec!["balance"])],
            Some(&dump_at_5),
            None,
        )
        .unwrap();
        assert_eq!(recovered.version(), Version(8));
        let t2 = recovered.table_id("accounts").unwrap();
        for i in 0..8 {
            assert_eq!(balance(&recovered, t2, i), i);
        }
    }

    #[test]
    fn recovery_errors_loudly_when_the_checkpoint_misses_the_wal_frontier() {
        let (db, t) = test_db();
        for i in 0..8 {
            let tx = db.begin();
            tx.insert(t, i, vec![("balance".into(), Value::Int(i))])
                .unwrap();
            tx.commit().unwrap();
        }
        // The log was truncated below version 5, but the only checkpoint on
        // hand covers version 3: versions 4 and 5 exist nowhere.  Recovery
        // must refuse instead of silently starting from the stale image.
        let stale = {
            let fresh = Database::new(EngineConfig::default());
            let ft = fresh.create_table("accounts", &["balance"]);
            for i in 0..3 {
                let tx = fresh.begin();
                tx.insert(ft, i, vec![("balance".into(), Value::Int(i))])
                    .unwrap();
                tx.commit().unwrap();
            }
            fresh.dump()
        };
        db.truncate_wal_below(Version(5)).unwrap();
        db.crash();
        let result = Database::recover_with_baseline(
            EngineConfig::default(),
            db.log_device(),
            &[("accounts", vec!["balance"])],
            Some(&stale),
            None,
        );
        assert!(matches!(result, Err(Error::Corruption(_))));
    }

    #[test]
    fn unknown_table_is_rejected() {
        let db = Database::new(EngineConfig::default());
        let tx = db.begin();
        assert!(matches!(
            tx.insert(TableId(9), 1, vec![]),
            Err(Error::UnknownTable(_))
        ));
    }

    use std::time::Duration;
}
