//! The one file of the benchmark that names program types.
//!
//! Everything else in `benchmark/` is program-blind: it generates inputs,
//! drives clients, keeps spans and does arithmetic.  This file turns those
//! into calls on the program's public parts, so a refactor that changes a
//! program API has exactly one place to reconcile.
//!
//! Clusters are assembled from the parts (`Database`, `Certifier`, `Proxy`,
//! `ClusterNet`) rather than through
//! `tashkent::Cluster`, because `Cluster::new` and `ReplicaNode::new`
//! hard-code `DiskConfig { sleep: false }`: building from the parts is the
//! only way to reach the slept 8 ms disk — the paper's regime — from outside
//! the program.  The wiring mirrors `Cluster::new` otherwise (same certifier
//! seed, timeouts and proxy options as `ClusterConfig::small`).

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::BytesMut;
use tashkent::{Cluster, ClusterConfig};
use tashkent_certifier::{
    CertificationRequest, CertificationResponse, Certifier, CertifierConfig, RemoteWriteSet,
    ReplicatedLog, ShardedCertifier, ShardedCertifierConfig,
};
use tashkent_common::metrics::{CounterId, Stage};
use tashkent_common::{
    Component, EventKind, MetricsRegistry, ReplicaId, RowKey, SyncMode, SystemKind, TableId,
    TransportKind, Value, Version, WriteItem, WriteSet,
};
use tashkent_net::{
    decode_message, encode_frame, encode_message, ClusterNet, Envelope, FrameReader, Message,
    NetServer, RemoteCertifier, SessionConfig, TcpTransport,
};
use tashkent_proxy::{CertifierHandle, CertifierService, Proxy, ProxyConfig, ProxyTransaction};
use tashkent_storage::disk::DiskConfig;
use tashkent_storage::{
    Database, DatabaseDump, EngineConfig, LogDevice, Row, SimulatedDisk, WalRecord, WalWriter,
};

use crate::trace::{CertifyLog, CertifySpan, Clock};
use crate::workload::{Rng, System};

/// The paper's disk: ~8 ms per synchronous flush with a 6–12 ms spread,
/// actually slept.
const FSYNC_LATENCY: Duration = Duration::from_millis(8);
const FSYNC_JITTER: Duration = Duration::from_millis(2);

fn disk(slept: bool) -> DiskConfig {
    if slept {
        DiskConfig {
            fsync_latency: FSYNC_LATENCY,
            fsync_jitter: FSYNC_JITTER,
            contention_latency: Duration::ZERO,
            sleep: true,
        }
    } else {
        DiskConfig::default()
    }
}

fn system_kind(system: System) -> SystemKind {
    match system {
        System::Base => SystemKind::Base,
        System::Mw => SystemKind::TashkentMw,
        System::Api => SystemKind::TashkentApi,
    }
}

/// What to build.
#[derive(Debug, Clone, Copy)]
pub struct Profile {
    pub system: System,
    pub replicas: usize,
    pub certifier_nodes: usize,
    pub slept_disk: bool,
    pub tcp: bool,
}

/// A table of the assembled cluster.
#[derive(Debug, Clone, Copy)]
pub struct Table(TableId);

/// A row key as the harness spells it.
#[derive(Debug, Clone, Copy)]
pub enum Key {
    Int(i64),
    Pair(i64, i64),
}

impl From<Key> for RowKey {
    fn from(key: Key) -> RowKey {
        match key {
            Key::Int(k) => k.into(),
            Key::Pair(a, b) => (a, b).into(),
        }
    }
}

/// A column value as the harness spells it.
#[derive(Debug, Clone, Copy)]
pub enum Field<'a> {
    Int(i64),
    Bytes(&'a [u8]),
}

fn columns(fields: &[(&str, Field<'_>)]) -> Vec<(String, Value)> {
    fields
        .iter()
        .map(|(name, field)| {
            let value = match field {
                Field::Int(i) => Value::Int(*i),
                Field::Bytes(b) => Value::Bytes(b.to_vec()),
            };
            ((*name).to_owned(), value)
        })
        .collect()
}

/// Why a transaction attempt ended without committing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TxError {
    /// A retryable abort: certification or write-write conflict, deadlock
    /// victim, wound.  Snapshot isolation's normal first-committer-wins.
    Conflict,
    /// Anything else; the operation counts as failed.
    Fatal(String),
}

impl From<tashkent_common::Error> for TxError {
    fn from(error: tashkent_common::Error) -> TxError {
        if error.is_retryable_abort() {
            TxError::Conflict
        } else {
            TxError::Fatal(error.to_string())
        }
    }
}

/// A client's connection to one replica's proxy.
pub struct Session {
    proxy: Proxy,
}

impl Session {
    pub fn begin(&self) -> Txn {
        Txn {
            inner: self.proxy.begin(),
        }
    }
}

/// One transaction through the proxy.  Dropping it without `commit` aborts.
pub struct Txn {
    inner: ProxyTransaction,
}

impl Txn {
    /// Reads one integer column; `None` if the row or column is missing.
    pub fn read_int(&self, table: Table, key: i64, column: &str) -> Result<Option<i64>, TxError> {
        Ok(self
            .inner
            .read(table.0, key)?
            .and_then(|row| row.get(column).and_then(Value::as_int)))
    }

    pub fn update(
        &self,
        table: Table,
        key: i64,
        fields: &[(&str, Field<'_>)],
    ) -> Result<(), TxError> {
        Ok(self.inner.update(table.0, key, columns(fields))?)
    }

    /// Inserts the row, replacing any existing image (an upsert).
    pub fn insert(
        &self,
        table: Table,
        key: Key,
        fields: &[(&str, Field<'_>)],
    ) -> Result<(), TxError> {
        Ok(self.inner.insert(table.0, key, columns(fields))?)
    }

    /// Commits through the replication protocol.  `Ok(true)` for an update
    /// transaction, `Ok(false)` for a read-only one.
    pub fn commit(self) -> Result<bool, TxError> {
        Ok(!self.inner.commit()?.read_only)
    }
}

/// A [`CertifierService`] that forwards every call unchanged and records a
/// span around `certify`.  Interposed through the public
/// `CertifierHandle::Remote { service, colocated }`, on the client side of
/// every replica and — when a wire sits in between — in front of the handle
/// the network server answers from.
struct TimedCertifier {
    inner: CertifierHandle,
    log: Arc<CertifyLog>,
}

impl CertifierService for TimedCertifier {
    fn certify(
        &self,
        request: &CertificationRequest,
    ) -> tashkent_common::Result<CertificationResponse> {
        let start_ns = self.log.clock.now_ns();
        let result = self.inner.certify(request);
        let end_ns = self.log.clock.now_ns();
        let remote_writesets = result
            .as_ref()
            .map_or(0, |response| response.remote_writesets.len() as u32);
        self.log.record(
            request.replica.value() as usize,
            CertifySpan {
                start_ns,
                end_ns,
                remote_writesets,
            },
        );
        result
    }

    fn writesets_after(&self, since: Version) -> Vec<RemoteWriteSet> {
        self.inner.writesets_after(since)
    }

    fn system_version(&self) -> Version {
        self.inner.system_version()
    }

    fn is_available(&self) -> bool {
        self.inner.is_available()
    }

    fn truncation_floor(&self) -> Version {
        self.inner.truncation_floor()
    }
}

fn timed(
    inner: CertifierHandle,
    colocated: &CertifierHandle,
    log: &Arc<CertifyLog>,
) -> CertifierHandle {
    CertifierHandle::Remote {
        service: Arc::new(TimedCertifier {
            inner,
            log: Arc::clone(log),
        }),
        colocated: Box::new(colocated.clone()),
    }
}

/// Row count and per-column integer sums of one table on one replica.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TableTotals {
    pub rows: usize,
    pub int_sums: BTreeMap<String, i64>,
}

/// Every replica's table contents at one instant.
pub struct Contents {
    dumps: Vec<DatabaseDump>,
}

impl Contents {
    /// `Ok` if every replica holds the same version and table contents.
    pub fn agree(&self) -> Result<(), String> {
        let reference = &self.dumps[0];
        for (replica, dump) in self.dumps.iter().enumerate().skip(1) {
            if dump != reference {
                return Err(format!(
                    "replica {replica} (version {}) differs from replica 0 (version {})",
                    dump.version(),
                    reference.version()
                ));
            }
        }
        Ok(())
    }

    /// Row counts and integer column sums of every table on one replica.
    pub fn totals(&self, replica: usize) -> BTreeMap<String, TableTotals> {
        let mut out = BTreeMap::new();
        for table in self.dumps[replica].tables() {
            let mut totals = TableTotals {
                rows: table.rows.len(),
                ..TableTotals::default()
            };
            for (_, row) in &table.rows {
                for (column, value) in row.columns() {
                    if let Value::Int(i) = value {
                        *totals.int_sums.entry(column.clone()).or_default() += i;
                    }
                }
            }
            out.insert(table.name.clone(), totals);
        }
        out
    }
}

/// The registry's view of a run, reduced to plain numbers.
#[derive(Debug, Clone, Default)]
pub struct LayerCounters {
    pub tx_committed: u64,
    pub certify_requests: u64,
    pub certify_aborts: u64,
    pub durable_appends: u64,
    pub wal_fsyncs: u64,
    pub remote_installs: u64,
    pub lock_waits: u64,
    pub prescreen_hits: u64,
    pub prescreen_misses: u64,
    pub net_bytes: u64,
}

/// The registry's own stage timings and journal-derived figures, read at
/// the end of a traced run (they cover the registry's whole life, warm-up
/// included).
#[derive(Debug, Clone, Copy, Default)]
pub struct RegistryStages {
    pub durable_mean_us: f64,
    pub install_mean_us: f64,
    /// Mean certify epoch size over the `certify_batch` events the
    /// certifier's journal ring still holds.
    pub batch_size_mean: f64,
}

/// A running cluster assembled from the program's parts.
pub struct Assembly {
    certifier: CertifierHandle,
    metrics: Arc<MetricsRegistry>,
    dbs: Vec<Database>,
    // Dropped before `net`: sessions must outlive the proxies using them.
    proxies: Vec<Proxy>,
    /// The client-side and server-side certify logs of a traced cluster.
    logs: Option<(Arc<CertifyLog>, Arc<CertifyLog>)>,
    _net: Option<ClusterNet>,
}

impl Assembly {
    /// Builds certifier, network (if any), replica engines and proxies.
    /// With `trace`, the metrics registry is enabled and the timing
    /// certifier wrappers are interposed; without, both are off.
    pub fn start(profile: &Profile, trace: Option<Clock>) -> Result<Assembly, String> {
        let metrics = Arc::new(if trace.is_some() {
            MetricsRegistry::enabled()
        } else {
            MetricsRegistry::disabled()
        });
        let kind = system_kind(profile.system);
        let certifier_config = CertifierConfig {
            nodes: profile.certifier_nodes,
            disk: disk(profile.slept_disk),
            durable: kind.certifier_durable(),
            forced_abort_rate: 0.0,
            seed: 0x7A5B_1001,
            metrics: Arc::clone(&metrics),
            batch: true,
        };
        let certifier: CertifierHandle = Arc::new(Certifier::new(certifier_config)).into();
        // Traced: one wrapper in front of the certifier (the server side of
        // the wire, when there is one) and one in front of each replica's
        // handle (the client side).  In-process the two sit back to back and
        // their difference is the inner wrapper's own cost.
        let logs = trace.map(|clock| {
            let log = || Arc::new(CertifyLog::new(clock, profile.replicas));
            (log(), log())
        });
        let served = match &logs {
            Some((_, server_log)) => timed(certifier.clone(), &certifier, server_log),
            None => certifier.clone(),
        };
        let net = if profile.tcp {
            Some(
                ClusterNet::start(
                    TransportKind::Tcp,
                    served.clone(),
                    profile.replicas,
                    Arc::clone(&metrics),
                )
                .map_err(|e| format!("network start failed: {e}"))?,
            )
        } else {
            None
        };
        let sync_mode = if kind.database_durable() {
            SyncMode::Durable
        } else {
            SyncMode::Off
        };
        let mut dbs = Vec::new();
        let mut proxies = Vec::new();
        for replica in 0..profile.replicas {
            let db = Database::new(EngineConfig {
                sync_mode,
                disk: disk(profile.slept_disk),
                ordered_commit_timeout: Duration::from_secs(1),
                lock_wait_timeout: Duration::from_secs(1),
                metrics: Arc::clone(&metrics),
            });
            let wire = match &net {
                Some(net) => net.replica_handle(replica),
                None => served.clone(),
            };
            let handle = match &logs {
                Some((client_log, _)) => timed(wire, &certifier, client_log),
                None => wire,
            };
            let proxy = Proxy::new(
                ProxyConfig {
                    system: kind,
                    replica: ReplicaId(replica as u32),
                    local_certification: true,
                    eager_precertification: true,
                    staleness_bound: Duration::from_millis(50),
                    metrics: Arc::clone(&metrics),
                },
                db.clone(),
                handle,
            );
            dbs.push(db);
            proxies.push(proxy);
        }
        Ok(Assembly {
            certifier,
            metrics,
            dbs,
            proxies,
            logs,
            _net: net,
        })
    }

    pub fn replicas(&self) -> usize {
        self.dbs.len()
    }

    /// Registers a table on every replica.
    pub fn create_table(&self, name: &str, columns: &[&str]) -> Table {
        let mut id = None;
        for db in &self.dbs {
            id = Some(db.create_table(name, columns));
        }
        Table(id.expect("an assembly has at least one replica"))
    }

    /// Bulk-loads integer rows on every replica, outside the transaction
    /// machinery and the WAL (the load is not replicated traffic).
    pub fn bulk_load(&self, table: Table, rows: &[(i64, Vec<(&str, i64)>)]) {
        for db in &self.dbs {
            let rows = rows
                .iter()
                .map(|(key, fields)| {
                    let columns = fields
                        .iter()
                        .map(|(name, value)| ((*name).to_owned(), Value::Int(*value)))
                        .collect();
                    (RowKey::Int(*key), Row::from_columns(columns))
                })
                .collect();
            db.bulk_load(table.0, rows, Version::ZERO);
        }
    }

    pub fn session(&self, replica: usize) -> Session {
        Session {
            proxy: self.proxies[replica].clone(),
        }
    }

    /// The client-side wrappers' certify log (traced clusters only).
    pub fn client_certify_log(&self) -> Option<&Arc<CertifyLog>> {
        self.logs.as_ref().map(|(client, _)| client)
    }

    /// The server-side wrapper's certify log (traced clusters only).
    pub fn server_certify_log(&self) -> Option<&Arc<CertifyLog>> {
        self.logs.as_ref().map(|(_, server)| server)
    }

    /// With load stopped: refreshes every proxy until each replica has
    /// installed everything the certifier committed.
    pub fn settle(&self, deadline: Duration) -> Result<(), String> {
        let give_up = Instant::now() + deadline;
        let target = self.certifier.system_version();
        for (replica, (proxy, db)) in self.proxies.iter().zip(&self.dbs).enumerate() {
            loop {
                proxy
                    .refresh()
                    .map_err(|e| format!("replica {replica} refresh failed: {e}"))?;
                if db.version() >= target && proxy.replica_version() >= target {
                    break;
                }
                if Instant::now() > give_up {
                    return Err(format!(
                        "replica {replica} stuck at version {} (proxy {}), certifier at {target}",
                        db.version(),
                        proxy.replica_version()
                    ));
                }
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        Ok(())
    }

    /// The global commit version at the certifier.
    pub fn system_version(&self) -> u64 {
        self.certifier.system_version().value()
    }

    /// A consistent copy of every replica's tables, taken once so that the
    /// agreement check and the totals read the same state.
    pub fn contents(&self) -> Contents {
        Contents {
            dumps: self.dbs.iter().map(Database::dump).collect(),
        }
    }

    /// The registry's counters (all zero when it is disabled).
    pub fn layer_counters(&self) -> LayerCounters {
        let snapshot = self.metrics.snapshot();
        LayerCounters {
            tx_committed: snapshot.counter(CounterId::TxCommitted),
            certify_requests: snapshot.counter(CounterId::CertifyRequests),
            certify_aborts: snapshot.counter(CounterId::CertifyAborts),
            durable_appends: snapshot.counter(CounterId::DurableAppends),
            wal_fsyncs: snapshot.counter(CounterId::WalFsyncs),
            remote_installs: snapshot.counter(CounterId::RemoteInstalls),
            lock_waits: snapshot.counter(CounterId::LockWaits),
            prescreen_hits: snapshot.counter(CounterId::PrescreenHits),
            prescreen_misses: snapshot.counter(CounterId::PrescreenMisses),
            net_bytes: snapshot.counter(CounterId::NetBytesSent)
                + snapshot.counter(CounterId::NetBytesReceived),
        }
    }

    pub fn registry_stages(&self) -> RegistryStages {
        let snapshot = self.metrics.snapshot();
        // The histogram's percentiles are bucket values; its sum and count
        // are exact, so the mean keeps every digit.
        let mean_us = |stage| {
            let histogram = snapshot.stage(stage);
            match histogram.count() {
                0 => 0.0,
                count => histogram.sum_micros() as f64 / count as f64,
            }
        };
        let epochs: Vec<u64> = self
            .metrics
            .component_events(Component::Certifier)
            .iter()
            .filter(|event| event.kind == EventKind::CertifyBatch)
            .map(|event| event.version)
            .collect();
        RegistryStages {
            durable_mean_us: mean_us(Stage::Durable),
            install_mean_us: mean_us(Stage::Install),
            batch_size_mean: if epochs.is_empty() {
                0.0
            } else {
                epochs.iter().sum::<u64>() as f64 / epochs.len() as f64
            },
        }
    }
}

// ---------------------------------------------------------------------------
// Layer drills: one operation of one crate's public API per call.
// ---------------------------------------------------------------------------

/// Which single-layer operation to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DrillId {
    WsConflict,
    LocalCommit,
    ApplyWriteset,
    GroupCommit,
    Certify1Shard,
    Certify4Shard,
    PaxosAppend,
    CodecRoundtrip,
    TcpRtt,
    SessionCommit,
}

/// A drill's measured body.
pub enum DrillBody {
    /// One operation per call; the caller times a batch of calls.
    PerOp(Box<dyn FnMut()>),
    /// Runs a whole batch of the given size and returns a count ratio.
    Ratio(Box<dyn FnMut(usize) -> f64>),
}

fn int_update(table: u32, key: i64, value: i64) -> WriteItem {
    WriteItem::update(
        TableId(table),
        key,
        vec![("balance".into(), Value::Int(value))],
    )
}

/// A TPC-B shaped writeset (account, teller, branch, history) on keys
/// derived from `n`, disjoint from every other `n`'s.
fn transfer_writeset(n: i64) -> WriteSet {
    WriteSet::from_items(vec![
        int_update(2, n, n),
        int_update(1, n, n),
        int_update(0, n, n),
        WriteItem::insert(
            TableId(3),
            (0i64, n),
            vec![
                ("account".into(), Value::Int(n)),
                ("delta".into(), Value::Int(n)),
            ],
        ),
    ])
}

/// The window of live (not yet visible to the requester) log entries the
/// certify drills scan against.
const LIVE_WINDOW: u64 = 1024;

fn certify_drill(handle: CertifierHandle) -> DrillBody {
    let mut next = 0i64;
    let mut certify = move |handle: &CertifierHandle| {
        let head = handle.system_version();
        let request = CertificationRequest {
            replica: ReplicaId(0),
            start_version: Version(head.value().saturating_sub(LIVE_WINDOW)),
            writeset: transfer_writeset(next),
            replica_version: head,
        };
        next += 1;
        let response = handle.certify(&request).expect("certifier is up");
        assert!(
            response.decision.is_commit(),
            "disjoint writesets never conflict"
        );
    };
    for _ in 0..LIVE_WINDOW {
        certify(&handle);
    }
    DrillBody::PerOp(Box::new(move || certify(&handle)))
}

/// Builds the state a drill needs and returns its measured body.  `rng`
/// supplies every key choice.
pub fn drill(id: DrillId, mut rng: Rng) -> DrillBody {
    match id {
        DrillId::WsConflict => {
            let a = transfer_writeset(1);
            let b = transfer_writeset(2);
            DrillBody::PerOp(Box::new(move || {
                let (a, b) = (std::hint::black_box(&a), std::hint::black_box(&b));
                assert!(!std::hint::black_box(a.conflicts_with(b)));
            }))
        }
        DrillId::LocalCommit => {
            const ROWS: u64 = 4096;
            let db = Database::new(EngineConfig::with_sync_mode(SyncMode::Off));
            let table = db.create_table("accounts", &["balance"]);
            let rows = (0..ROWS as i64)
                .map(|k| {
                    let row = Row::from_columns(vec![("balance".into(), Value::Int(0))]);
                    (RowKey::Int(k), row)
                })
                .collect();
            db.bulk_load(table, rows, Version::ZERO);
            DrillBody::PerOp(Box::new(move || {
                let key = rng.below(ROWS) as i64;
                let tx = db.begin();
                tx.update(table, key, vec![("balance".into(), Value::Int(key))])
                    .expect("single-threaded update");
                tx.commit().expect("single-threaded commit");
            }))
        }
        DrillId::ApplyWriteset => {
            let db = Database::new(EngineConfig::with_sync_mode(SyncMode::Off));
            db.create_table("branches", &["balance"]);
            db.create_table("tellers", &["balance"]);
            db.create_table("accounts", &["balance"]);
            db.create_table("history", &["account", "delta"]);
            DrillBody::PerOp(Box::new(move || {
                let writeset = transfer_writeset(rng.below(1 << 20) as i64);
                db.apply_writeset(&writeset, db.version().next())
                    .expect("single-threaded apply");
            }))
        }
        DrillId::GroupCommit => DrillBody::Ratio(Box::new(|records_per_thread| {
            let device = Arc::new(SimulatedDisk::new(disk(true)));
            let wal = WalWriter::new(Arc::clone(&device) as Arc<dyn LogDevice>);
            std::thread::scope(|scope| {
                for thread in 0..2i64 {
                    let wal = &wal;
                    scope.spawn(move || {
                        for n in 0..records_per_thread as i64 {
                            wal.append_durable(&WalRecord::Commit {
                                version: Version((thread * 1_000_000 + n) as u64),
                                writeset: transfer_writeset(n),
                            });
                        }
                    });
                }
            });
            let stats = device.stats();
            stats.fsyncs as f64 / stats.group_commit.records.max(1) as f64
        })),
        DrillId::Certify1Shard => {
            certify_drill(Arc::new(Certifier::new(CertifierConfig::default())).into())
        }
        DrillId::Certify4Shard => certify_drill(
            Arc::new(ShardedCertifier::new(ShardedCertifierConfig::with_shards(
                4,
            )))
            .into(),
        ),
        DrillId::PaxosAppend => {
            let log = ReplicatedLog::new(3, disk(true), true);
            let mut version = 0u64;
            DrillBody::PerOp(Box::new(move || {
                version += 1;
                log.append(Version(version), &transfer_writeset(version as i64))
                    .expect("all nodes up");
            }))
        }
        DrillId::CodecRoundtrip => {
            let envelope = Envelope {
                request_id: 42,
                message: Message::CertifyRequest(CertificationRequest {
                    replica: ReplicaId(1),
                    start_version: Version(1000),
                    writeset: transfer_writeset(rng.below(1 << 20) as i64),
                    replica_version: Version(1001),
                }),
            };
            DrillBody::PerOp(Box::new(move || {
                let mut payload = BytesMut::with_capacity(256);
                encode_message(&mut payload, std::hint::black_box(&envelope));
                let frame = encode_frame(&payload);
                let mut reader = FrameReader::new();
                reader.push(&frame);
                let mut body = bytes::Bytes::from(
                    reader
                        .next_frame()
                        .expect("well-formed frame")
                        .expect("complete frame"),
                );
                let decoded = decode_message(&mut body).expect("well-formed message");
                assert_eq!(std::hint::black_box(decoded).request_id, 42);
            }))
        }
        DrillId::TcpRtt => {
            let metrics = Arc::new(MetricsRegistry::disabled());
            let certifier: CertifierHandle =
                Arc::new(Certifier::new(CertifierConfig::default())).into();
            let server = NetServer::start(
                "certifier",
                certifier,
                &TcpTransport::new(),
                "127.0.0.1:0",
                Arc::clone(&metrics),
            )
            .expect("bind 127.0.0.1");
            let client = RemoteCertifier::start(
                SessionConfig::new("replica-0", server.endpoint()),
                Arc::new(TcpTransport::new()),
                metrics,
            );
            client
                .wait_connected(Duration::from_secs(5))
                .expect("session connects");
            // Fields drop in order: the session says goodbye while the
            // server loop is still answering.
            let wire = (client, server);
            DrillBody::PerOp(Box::new(move || {
                // Borrowing the pair whole keeps the server captured too.
                let (client, _server) = &wire;
                let version = CertifierService::system_version(client.as_ref());
                assert_eq!(std::hint::black_box(version), Version::ZERO);
            }))
        }
        DrillId::SessionCommit => {
            const ROWS: u64 = 1024;
            let cluster = Cluster::new(ClusterConfig::small(SystemKind::TashkentMw))
                .expect("small config is valid");
            let table = cluster.create_table("updates", &["counter", "payload"]);
            // The session goes first so the cluster outlives it.
            let wired = (cluster.session(0), cluster);
            DrillBody::PerOp(Box::new(move || {
                let (session, _cluster) = &wired;
                let key = rng.below(ROWS) as i64;
                let tx = session.begin();
                let counter = tx
                    .read(table, key)
                    .expect("read")
                    .and_then(|row| row.get("counter").and_then(Value::as_int))
                    .unwrap_or(0);
                tx.insert(
                    table,
                    key,
                    vec![
                        ("counter".into(), Value::Int(counter + 1)),
                        ("payload".into(), Value::Bytes(vec![0xAB; 32])),
                    ],
                )
                .expect("single-client insert");
                tx.commit().expect("single-client commit");
            }))
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Mutex;

    use super::*;

    /// Records every call it receives and answers with fixed values.
    #[derive(Default)]
    struct Recording {
        calls: Mutex<Vec<String>>,
    }

    impl Recording {
        fn note(&self, call: String) {
            self.calls.lock().unwrap().push(call);
        }
    }

    fn canned_response() -> CertificationResponse {
        CertificationResponse {
            decision: tashkent_certifier::CertificationDecision::Commit,
            commit_version: Some(Version(12)),
            remote_writesets: vec![RemoteWriteSet {
                commit_version: Version(11),
                writeset: Arc::new(transfer_writeset(5)),
                conflict_free_to: Version(3),
            }],
            system_version: Version(12),
        }
    }

    impl CertifierService for Recording {
        fn certify(
            &self,
            request: &CertificationRequest,
        ) -> tashkent_common::Result<CertificationResponse> {
            self.note(format!("certify {request:?}"));
            Ok(canned_response())
        }
        fn writesets_after(&self, since: Version) -> Vec<RemoteWriteSet> {
            self.note(format!("writesets_after {}", since.value()));
            canned_response().remote_writesets
        }
        fn system_version(&self) -> Version {
            self.note("system_version".into());
            Version(77)
        }
        fn is_available(&self) -> bool {
            self.note("is_available".into());
            true
        }
        fn truncation_floor(&self) -> Version {
            self.note("truncation_floor".into());
            Version(9)
        }
    }

    #[test]
    fn the_timing_wrapper_forwards_every_call_unchanged() {
        let colocated: CertifierHandle =
            Arc::new(Certifier::new(CertifierConfig::default())).into();
        let recording = Arc::new(Recording::default());
        let inner = CertifierHandle::Remote {
            service: Arc::clone(&recording) as Arc<dyn CertifierService>,
            colocated: Box::new(colocated.clone()),
        };
        let log = Arc::new(CertifyLog::new(Clock::start(), 2));
        let wrapped = timed(inner, &colocated, &log);

        let request = CertificationRequest {
            replica: ReplicaId(1),
            start_version: Version(4),
            writeset: transfer_writeset(9),
            replica_version: Version(10),
        };
        let response = wrapped.certify(&request).unwrap();
        assert_eq!(response, canned_response());
        assert_eq!(
            wrapped.writesets_after(Version(10)),
            canned_response().remote_writesets
        );
        assert_eq!(wrapped.system_version(), Version(77));
        assert!(wrapped.is_available());
        assert_eq!(wrapped.truncation_floor(), Version(9));

        let calls = recording.calls.lock().unwrap().clone();
        assert_eq!(
            calls,
            vec![
                format!("certify {request:?}"),
                "writesets_after 10".to_owned(),
                "system_version".to_owned(),
                "is_available".to_owned(),
                "truncation_floor".to_owned(),
            ],
            "one inner call per outer call, arguments intact"
        );
        // The span lands in the requesting replica's list, with the
        // response's remote-writeset count.
        assert_eq!(log.len(0), 0);
        let spans = log.take(1);
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].remote_writesets, 1);
        assert!(spans[0].end_ns >= spans[0].start_ns);
    }

    #[test]
    fn an_assembled_cluster_commits_replicates_and_totals() {
        for system in System::ALL {
            let assembly = Assembly::start(
                &Profile {
                    system,
                    replicas: 2,
                    certifier_nodes: 3,
                    slept_disk: false,
                    tcp: false,
                },
                Some(Clock::start()),
            )
            .unwrap();
            let table = assembly.create_table("accounts", &["balance"]);
            assembly.bulk_load(
                table,
                &[(1, vec![("balance", 10)]), (2, vec![("balance", 5)])],
            );
            let tx = assembly.session(0).begin();
            let balance = tx.read_int(table, 1, "balance").unwrap().unwrap();
            tx.update(table, 1, &[("balance", Field::Int(balance + 7))])
                .unwrap();
            assert_eq!(tx.commit(), Ok(true));
            let tx = assembly.session(1).begin();
            assert_eq!(tx.read_int(table, 2, "balance").unwrap(), Some(5));
            assert_eq!(tx.commit(), Ok(false));

            assembly.settle(Duration::from_secs(5)).unwrap();
            let contents = assembly.contents();
            contents.agree().unwrap();
            assert_eq!(assembly.system_version(), 1);
            for replica in 0..2 {
                let totals = contents.totals(replica);
                assert_eq!(totals["accounts"].rows, 2);
                assert_eq!(totals["accounts"].int_sums["balance"], 22);
            }
            let counters = assembly.layer_counters();
            assert_eq!(counters.tx_committed, 2, "{system:?}");
            assert_eq!(counters.certify_requests, 1);
            assert_eq!(assembly.client_certify_log().unwrap().len(0), 1);
            assert_eq!(assembly.server_certify_log().unwrap().len(0), 1);
        }
    }
}
