//! Cluster-wide metrics: a lock-cheap registry of counters, gauges and
//! per-stage latency histograms, plus per-transaction commit-path traces.
//!
//! The paper's central claims are about *where time goes on the commit
//! path* — uniting durability with ordering moves the fsync out of the
//! critical section — so every runtime component records the time it
//! contributes to one of six lifecycle [`Stage`]s:
//!
//! | Stage | Measured where |
//! |-------|----------------|
//! | [`Stage::Begin`]    | proxy: snapshot acquisition |
//! | [`Stage::Execute`]  | proxy: client work between begin and commit |
//! | [`Stage::Certify`]  | proxy: certification round-trip |
//! | [`Stage::Durable`]  | certifier: home-shard majority fsync |
//! | [`Stage::Announce`] | engine: wait for the version announce |
//! | [`Stage::Install`]  | proxy/engine: writeset installation |
//!
//! Recording is designed to be cheap enough to leave on in production
//! runs: counters and gauges are single atomic operations, histograms sit
//! behind a small pool of sharded mutexes with per-thread affinity, and a
//! registry constructed with [`MetricsRegistry::disabled`] short-circuits
//! every record call on one branch (the benchmark's `trace_overhead_pct`
//! row bounds an enabled registry's cost, together with its own spans).
//!
//! A [`MetricsSnapshot`] is a self-contained copy of the registry that can
//! be serialised with [`MetricsSnapshot::to_bytes`] / decoded with
//! [`MetricsSnapshot::from_bytes`] (a length-prefixed binary layout on the
//! shared [`crate::codec`] reader and writer).  The flight recorder in the `tashkent`
//! crate samples snapshots on an interval into a ring buffer so post-hoc
//! analysis can see a sub-second timeline of a run.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::codec::{Reader, Writer};
use crate::events::{
    merge_timelines, Component, Event, EventRing, COMPONENT_COUNT, EVENT_RING_CAPACITY,
};
use crate::stats::LatencyHistogram;
use crate::{Error, Result};

/// Number of commit-path lifecycle stages.
pub const STAGE_COUNT: usize = 6;

/// One lifecycle stage of an update transaction's commit path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Snapshot acquisition at the proxy (`begin`).
    Begin,
    /// Client execution between begin and the commit submission.
    Execute,
    /// Certification round-trip as observed by the proxy.
    Certify,
    /// Home-shard durable append (the majority fsync) at the certifier.
    Durable,
    /// The engine's wait for its turn in the global commit order.
    Announce,
    /// Writeset installation (local commit apply or remote apply).
    Install,
}

impl Stage {
    /// All stages in commit-path order.
    pub const ALL: [Stage; STAGE_COUNT] = [
        Stage::Begin,
        Stage::Execute,
        Stage::Certify,
        Stage::Durable,
        Stage::Announce,
        Stage::Install,
    ];

    /// Dense index of this stage, `0 ..= 5` in commit-path order.
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            Stage::Begin => 0,
            Stage::Execute => 1,
            Stage::Certify => 2,
            Stage::Durable => 3,
            Stage::Announce => 4,
            Stage::Install => 5,
        }
    }

    /// Row label of the stage-breakdown report.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Stage::Begin => "begin",
            Stage::Execute => "execute",
            Stage::Certify => "certify",
            Stage::Durable => "durable",
            Stage::Announce => "announce",
            Stage::Install => "install",
        }
    }
}

/// Number of defined counters.
pub const COUNTER_COUNT: usize = 25;

/// A monotonic event counter of the registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CounterId {
    /// Transactions begun at any proxy.
    TxBegun,
    /// Transactions committed (updates and read-only).
    TxCommitted,
    /// Transactions aborted with a retryable conflict.
    TxAborted,
    /// Certification requests received by the certifier.
    CertifyRequests,
    /// Certification requests decided *commit*.
    CertifyCommits,
    /// Certification requests decided *abort* (conflicts + forced aborts).
    CertifyAborts,
    /// Durable appends to a certifier shard's replicated log.
    DurableAppends,
    /// Synchronous WAL flushes performed by replica engines.
    WalFsyncs,
    /// WAL records made durable across those flushes.
    WalRecords,
    /// Remote writesets installed by proxies.
    RemoteInstalls,
    /// Lock acquisitions that had to block on a conflicting holder.
    LockWaits,
    /// Checkpoint images sealed (replica baselines and certifier shards).
    CheckpointsSealed,
    /// Certified-log entries discarded by watermark-driven truncation.
    TrimmedLogEntries,
    /// Replica WAL records discarded by watermark-driven truncation.
    TrimmedWalRecords,
    /// Payload bytes written to the wire by network sessions (frame
    /// overhead included).
    NetBytesSent,
    /// Payload bytes read from the wire by network sessions.
    NetBytesReceived,
    /// Protocol messages exchanged over network sessions (both directions).
    NetMessages,
    /// Session re-establishments after a broken or severed link.
    NetReconnects,
    /// Writesets certified through batched epochs (the sum of epoch sizes;
    /// divided by the number of `certify_batch` journal events it yields the
    /// mean epoch size).
    CertifyBatchSize,
    /// Certifications whose footprint provably intersected nothing in the
    /// conflict window: the pre-screen let them skip the intersection scan.
    PrescreenHits,
    /// Certifications the pre-screen could not clear (a bucket was newer
    /// than the snapshot), which therefore paid the full intersection scan.
    PrescreenMisses,
    /// Fault-injection transitions on the cluster surface: every node crash
    /// and every successful recovery increments it.  A non-zero delta over a
    /// sampling window is edge evidence that fault injection touched the
    /// cluster — even when a crash/recover pair lands entirely between two
    /// samples, where the level-sampled [`GaugeId::NodesDown`] never shows
    /// it.  Read by flight timelines and diagnostic bundles.
    FaultTransitions,
    /// Times a Tashkent-API proxy had to hold a remote writeset back until
    /// the installs before it finished, because it artificially conflicts
    /// with one of them.
    ArtificialConflictBarriers,
    /// Lock acquisitions that failed as deadlock victims: a wait-for cycle,
    /// or a wait that outlived the lock-wait bound (presumed deadlock).
    Deadlocks,
    /// Certified commits whose writeset spanned more than one certifier
    /// shard (each decided holding every owning shard's log).
    MultiShardCommits,
}

impl CounterId {
    /// All counters, in [`CounterId::index`] order.
    pub const ALL: [CounterId; COUNTER_COUNT] = [
        CounterId::TxBegun,
        CounterId::TxCommitted,
        CounterId::TxAborted,
        CounterId::CertifyRequests,
        CounterId::CertifyCommits,
        CounterId::CertifyAborts,
        CounterId::DurableAppends,
        CounterId::WalFsyncs,
        CounterId::WalRecords,
        CounterId::RemoteInstalls,
        CounterId::LockWaits,
        CounterId::CheckpointsSealed,
        CounterId::TrimmedLogEntries,
        CounterId::TrimmedWalRecords,
        CounterId::NetBytesSent,
        CounterId::NetBytesReceived,
        CounterId::NetMessages,
        CounterId::NetReconnects,
        CounterId::CertifyBatchSize,
        CounterId::PrescreenHits,
        CounterId::PrescreenMisses,
        CounterId::FaultTransitions,
        CounterId::ArtificialConflictBarriers,
        CounterId::Deadlocks,
        CounterId::MultiShardCommits,
    ];

    /// Dense index of this counter.
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            CounterId::TxBegun => 0,
            CounterId::TxCommitted => 1,
            CounterId::TxAborted => 2,
            CounterId::CertifyRequests => 3,
            CounterId::CertifyCommits => 4,
            CounterId::CertifyAborts => 5,
            CounterId::DurableAppends => 6,
            CounterId::WalFsyncs => 7,
            CounterId::WalRecords => 8,
            CounterId::RemoteInstalls => 9,
            CounterId::LockWaits => 10,
            CounterId::CheckpointsSealed => 11,
            CounterId::TrimmedLogEntries => 12,
            CounterId::TrimmedWalRecords => 13,
            CounterId::NetBytesSent => 14,
            CounterId::NetBytesReceived => 15,
            CounterId::NetMessages => 16,
            CounterId::NetReconnects => 17,
            CounterId::CertifyBatchSize => 18,
            CounterId::PrescreenHits => 19,
            CounterId::PrescreenMisses => 20,
            CounterId::FaultTransitions => 21,
            CounterId::ArtificialConflictBarriers => 22,
            CounterId::Deadlocks => 23,
            CounterId::MultiShardCommits => 24,
        }
    }

    /// Human-readable name.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            CounterId::TxBegun => "tx_begun",
            CounterId::TxCommitted => "tx_committed",
            CounterId::TxAborted => "tx_aborted",
            CounterId::CertifyRequests => "certify_requests",
            CounterId::CertifyCommits => "certify_commits",
            CounterId::CertifyAborts => "certify_aborts",
            CounterId::DurableAppends => "durable_appends",
            CounterId::WalFsyncs => "wal_fsyncs",
            CounterId::WalRecords => "wal_records",
            CounterId::RemoteInstalls => "remote_installs",
            CounterId::LockWaits => "lock_waits",
            CounterId::CheckpointsSealed => "checkpoints_sealed",
            CounterId::TrimmedLogEntries => "trimmed_log_entries",
            CounterId::TrimmedWalRecords => "trimmed_wal_records",
            CounterId::NetBytesSent => "net_bytes_sent",
            CounterId::NetBytesReceived => "net_bytes_received",
            CounterId::NetMessages => "net_messages",
            CounterId::NetReconnects => "net_reconnects",
            CounterId::CertifyBatchSize => "certify_batch_size",
            CounterId::PrescreenHits => "prescreen_hits",
            CounterId::PrescreenMisses => "prescreen_misses",
            CounterId::FaultTransitions => "fault_transitions",
            CounterId::ArtificialConflictBarriers => "artificial_conflict_barriers",
            CounterId::Deadlocks => "deadlocks",
            CounterId::MultiShardCommits => "multi_shard_commits",
        }
    }
}

/// Number of defined gauges.
pub const GAUGE_COUNT: usize = 6;

/// A queue-depth gauge of the registry.  Every gauge also tracks its
/// high-water mark since registry creation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GaugeId {
    /// Certification requests currently inside `certify` (the certifier's
    /// inbox depth in a message-passing deployment).
    CertifierInflight,
    /// Remote writesets queued at a proxy waiting to be applied.
    RemoteApplyBacklog,
    /// Records absorbed by the most recent WAL group-commit flush.
    WalGroupBatch,
    /// The cluster-wide truncation watermark: the highest version every
    /// live replica has applied *and* a sealed checkpoint covers (logs
    /// below it may be trimmed).
    TruncationWatermark,
    /// Network sessions currently established (both ends of a loopback or
    /// TCP connection count their own side).
    OpenSessions,
    /// Cluster nodes (replicas + certifier shard-group members) currently
    /// crashed by fault injection.  Non-zero means commits may legitimately
    /// stop, so a flight timeline shows each outage window.  The high-water
    /// mark records the deepest concurrent outage of the run.
    NodesDown,
}

impl GaugeId {
    /// All gauges, in [`GaugeId::index`] order.
    pub const ALL: [GaugeId; GAUGE_COUNT] = [
        GaugeId::CertifierInflight,
        GaugeId::RemoteApplyBacklog,
        GaugeId::WalGroupBatch,
        GaugeId::TruncationWatermark,
        GaugeId::OpenSessions,
        GaugeId::NodesDown,
    ];

    /// Dense index of this gauge.
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            GaugeId::CertifierInflight => 0,
            GaugeId::RemoteApplyBacklog => 1,
            GaugeId::WalGroupBatch => 2,
            GaugeId::TruncationWatermark => 3,
            GaugeId::OpenSessions => 4,
            GaugeId::NodesDown => 5,
        }
    }

    /// Human-readable name.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            GaugeId::CertifierInflight => "certifier_inflight",
            GaugeId::RemoteApplyBacklog => "remote_apply_backlog",
            GaugeId::WalGroupBatch => "wal_group_batch",
            GaugeId::TruncationWatermark => "truncation_watermark",
            GaugeId::OpenSessions => "open_sessions",
            GaugeId::NodesDown => "nodes_down",
        }
    }
}

#[derive(Debug, Default)]
struct Gauge {
    value: AtomicI64,
    high_water: AtomicI64,
}

impl Gauge {
    fn add(&self, delta: i64) {
        let now = self.value.fetch_add(delta, Ordering::Relaxed) + delta;
        if delta > 0 {
            self.high_water.fetch_max(now, Ordering::Relaxed);
        }
    }

    fn set(&self, value: i64) {
        self.value.store(value, Ordering::Relaxed);
        self.high_water.fetch_max(value, Ordering::Relaxed);
    }

    fn read(&self) -> (i64, i64) {
        (
            self.value.load(Ordering::Relaxed),
            self.high_water.load(Ordering::Relaxed),
        )
    }
}

/// Pool size of the sharded histogram handles.  Threads are assigned a
/// shard round-robin on first use, so with the cluster's typical dozen
/// recording threads each mutex is shared by one or two of them.
const HISTOGRAM_SHARDS: usize = 8;

static NEXT_HISTOGRAM_SHARD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static HISTOGRAM_SHARD: usize =
        NEXT_HISTOGRAM_SHARD.fetch_add(1, Ordering::Relaxed) % HISTOGRAM_SHARDS;
}

/// A latency histogram behind a small pool of mutex shards so concurrent
/// recorders rarely contend.
#[derive(Debug)]
struct ShardedHistogram {
    shards: [Mutex<LatencyHistogram>; HISTOGRAM_SHARDS],
}

impl ShardedHistogram {
    fn new() -> Self {
        ShardedHistogram {
            shards: std::array::from_fn(|_| Mutex::new(LatencyHistogram::new())),
        }
    }

    fn record(&self, latency: Duration) {
        let shard = HISTOGRAM_SHARD.with(|s| *s);
        // A poisoned shard only loses metrics, never correctness.
        if let Ok(mut histogram) = self.shards[shard].lock() {
            histogram.record(latency);
        }
    }

    fn merged(&self) -> LatencyHistogram {
        let mut total = LatencyHistogram::new();
        for shard in &self.shards {
            if let Ok(histogram) = shard.lock() {
                total.merge(&histogram);
            }
        }
        total
    }
}

/// Certifier shard commit counters are folded into this many slots; with
/// practical shard counts (1–8) the mapping is the identity, and the fold
/// preserves the oracle's `certified == Σ shard commits` invariant at any
/// count.
pub const SHARD_COMMIT_SLOTS: usize = 16;

/// How many recent commit-path traces the registry retains.
pub const TRACE_CAPACITY: usize = 256;

/// Per-transaction commit-path trace: cumulative microsecond offsets from
/// transaction start at which each [`Stage`] was observed complete.
///
/// Offsets are non-decreasing in stage order by construction (a skipped
/// stage inherits its predecessor's offset), which
/// [`CommitPathTrace::is_monotonic`] asserts.
#[derive(Debug, Clone)]
pub struct CommitPathTrace {
    /// Transaction identifier (engine `TxId`).
    pub tx: u64,
    /// When the transaction started, in microseconds since the registry
    /// started (zero when the timer was built without a registry clock).
    /// Shared with the event journal's clock, so trace spans and journal
    /// events line up on one timeline in the Chrome-trace export.
    pub started_micros: u64,
    /// Cumulative offsets in microseconds, indexed by [`Stage::index`].
    pub marks: [u64; STAGE_COUNT],
}

impl CommitPathTrace {
    /// `true` if the stage offsets never decrease in commit-path order.
    #[must_use]
    pub fn is_monotonic(&self) -> bool {
        self.marks.windows(2).all(|pair| pair[0] <= pair[1])
    }
}

/// Builds a [`CommitPathTrace`] while a transaction runs: each
/// [`TraceTimer::mark`] stamps the current offset and returns the duration
/// since the previous mark, ready to record into the stage histogram.
#[derive(Debug)]
pub struct TraceTimer {
    tx: u64,
    started: Instant,
    started_micros: u64,
    last_micros: u64,
    marks: [Option<u64>; STAGE_COUNT],
}

impl TraceTimer {
    /// Starts timing a transaction at the current instant.
    #[must_use]
    pub fn new(tx: u64) -> Self {
        TraceTimer::new_at(tx, 0)
    }

    /// Starts timing a transaction, anchored at `started_micros` on the
    /// registry clock (see [`MetricsRegistry::uptime_micros`]) so the
    /// finished trace can be placed on the cluster timeline.
    #[must_use]
    pub fn new_at(tx: u64, started_micros: u64) -> Self {
        TraceTimer {
            tx,
            started: Instant::now(),
            started_micros,
            last_micros: 0,
            marks: [None; STAGE_COUNT],
        }
    }

    /// Stamps `stage` as complete now and returns the time elapsed since
    /// the previous mark (or since the timer started, for the first mark).
    pub fn mark(&mut self, stage: Stage) -> Duration {
        let offset = self.started.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
        let since_previous = offset.saturating_sub(self.last_micros);
        self.last_micros = offset;
        self.marks[stage.index()] = Some(offset);
        Duration::from_micros(since_previous)
    }

    /// Finishes the trace, forward-filling skipped stages with their
    /// predecessor's offset so the result is monotonic.
    #[must_use]
    pub fn finish(self) -> CommitPathTrace {
        let mut marks = [0u64; STAGE_COUNT];
        let mut last = 0u64;
        for (slot, mark) in marks.iter_mut().zip(self.marks.iter()) {
            last = mark.unwrap_or(last).max(last);
            *slot = last;
        }
        CommitPathTrace {
            tx: self.tx,
            started_micros: self.started_micros,
            marks,
        }
    }
}

/// The cluster-wide metrics registry.
///
/// One registry is shared (via `Arc`) by every component of a cluster;
/// components created standalone default to a
/// [disabled](MetricsRegistry::disabled) registry whose record methods
/// return on a single branch.
#[derive(Debug)]
pub struct MetricsRegistry {
    enabled: bool,
    started: Instant,
    stages: [ShardedHistogram; STAGE_COUNT],
    lock_wait: ShardedHistogram,
    counters: [AtomicU64; COUNTER_COUNT],
    gauges: [Gauge; GAUGE_COUNT],
    shard_commits: [AtomicU64; SHARD_COMMIT_SLOTS],
    traces: Mutex<VecDeque<CommitPathTrace>>,
    /// The causal event journal: one lock-free bounded ring per
    /// [`Component`], written through [`MetricsRegistry::emit`].
    journal: [EventRing; COMPONENT_COUNT],
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        MetricsRegistry::disabled()
    }
}

impl MetricsRegistry {
    fn with_enabled(enabled: bool) -> Self {
        MetricsRegistry {
            enabled,
            started: Instant::now(),
            stages: std::array::from_fn(|_| ShardedHistogram::new()),
            lock_wait: ShardedHistogram::new(),
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            gauges: std::array::from_fn(|_| Gauge::default()),
            shard_commits: std::array::from_fn(|_| AtomicU64::new(0)),
            traces: Mutex::new(VecDeque::with_capacity(TRACE_CAPACITY)),
            journal: std::array::from_fn(|_| {
                // A disabled registry never emits: one slot keeps it cheap.
                EventRing::new(if enabled { EVENT_RING_CAPACITY } else { 1 })
            }),
        }
    }

    /// Creates a recording registry.
    #[must_use]
    pub fn enabled() -> Self {
        MetricsRegistry::with_enabled(true)
    }

    /// Creates a no-op registry: every record method returns immediately.
    /// This is the default for components constructed outside a cluster.
    #[must_use]
    pub fn disabled() -> Self {
        MetricsRegistry::with_enabled(false)
    }

    /// `true` if this registry records.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Increments `counter` by one.
    pub fn incr(&self, counter: CounterId) {
        self.add(counter, 1);
    }

    /// Increments `counter` by `delta`.
    pub fn add(&self, counter: CounterId, delta: u64) {
        if self.enabled {
            self.counters[counter.index()].fetch_add(delta, Ordering::Relaxed);
        }
    }

    /// Current value of `counter`.
    #[must_use]
    pub fn counter(&self, counter: CounterId) -> u64 {
        self.counters[counter.index()].load(Ordering::Relaxed)
    }

    /// Adds `delta` (possibly negative) to `gauge`, updating its
    /// high-water mark.
    pub fn gauge_add(&self, gauge: GaugeId, delta: i64) {
        if self.enabled {
            self.gauges[gauge.index()].add(delta);
        }
    }

    /// Sets `gauge` to an observed value, updating its high-water mark.
    pub fn gauge_set(&self, gauge: GaugeId, value: i64) {
        if self.enabled {
            self.gauges[gauge.index()].set(value);
        }
    }

    /// Increments `gauge` and returns a guard that decrements it when
    /// dropped — depth tracking for a scope with several exit paths.
    #[must_use]
    pub fn gauge_guard(&self, gauge: GaugeId) -> GaugeGuard<'_> {
        self.gauge_add(gauge, 1);
        GaugeGuard {
            registry: self,
            gauge,
        }
    }

    /// Records one latency sample for `stage`.
    pub fn record_stage(&self, stage: Stage, latency: Duration) {
        if self.enabled {
            self.stages[stage.index()].record(latency);
        }
    }

    /// Records the time one lock acquisition spent blocked.
    pub fn record_lock_wait(&self, waited: Duration) {
        if self.enabled {
            self.lock_wait.record(waited);
            self.incr(CounterId::LockWaits);
        }
    }

    /// Records a commit decision made durable on certifier shard `shard`.
    pub fn record_shard_commit(&self, shard: usize) {
        if self.enabled {
            self.shard_commits[shard % SHARD_COMMIT_SLOTS].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Retains a finished commit-path trace (ring buffer of the most
    /// recent [`TRACE_CAPACITY`]).
    pub fn record_trace(&self, trace: CommitPathTrace) {
        if !self.enabled {
            return;
        }
        if let Ok(mut traces) = self.traces.lock() {
            if traces.len() == TRACE_CAPACITY {
                traces.pop_front();
            }
            traces.push_back(trace);
        }
    }

    /// Microseconds since the registry started: the clock every journal
    /// event and trace anchor shares.
    #[must_use]
    pub fn uptime_micros(&self) -> u64 {
        duration_micros(self.started.elapsed())
    }

    /// Records `event` into its component's journal ring, stamping it
    /// with the registry clock.  A single branch when disabled.
    pub fn emit(&self, event: Event) {
        if self.enabled {
            let mut event = event;
            event.at_micros = self.uptime_micros();
            self.journal[event.component.index()].record(&event);
        }
    }

    /// The events currently held in `component`'s ring, oldest first.
    #[must_use]
    pub fn component_events(&self, component: Component) -> Vec<Event> {
        self.journal[component.index()].snapshot()
    }

    /// The merged cluster timeline: every component's ring, ordered by
    /// the shared registry clock.
    #[must_use]
    pub fn events(&self) -> Vec<Event> {
        merge_timelines(
            Component::ALL
                .iter()
                .map(|c| self.component_events(*c))
                .collect(),
        )
    }

    /// Events dropped across all rings to avoid torn slots (full-lap
    /// write collisions only — overwriting the oldest entry is not a
    /// drop).
    #[must_use]
    pub fn events_dropped(&self) -> u64 {
        self.journal.iter().map(EventRing::dropped).sum()
    }

    /// The most recent commit-path traces, oldest first.
    #[must_use]
    pub fn recent_traces(&self) -> Vec<CommitPathTrace> {
        self.traces
            .lock()
            .map(|traces| traces.iter().cloned().collect())
            .unwrap_or_default()
    }

    /// Takes a self-contained snapshot of every counter, gauge and
    /// histogram.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            elapsed: self.started.elapsed(),
            stages: Stage::ALL
                .iter()
                .map(|s| self.stages[s.index()].merged())
                .collect(),
            lock_wait: self.lock_wait.merged(),
            counters: self
                .counters
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            gauges: self.gauges.iter().map(Gauge::read).collect(),
            shard_commits: self
                .shard_commits
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
        }
    }
}

/// Decrements its gauge on drop; created by [`MetricsRegistry::gauge_guard`].
#[derive(Debug)]
pub struct GaugeGuard<'a> {
    registry: &'a MetricsRegistry,
    gauge: GaugeId,
}

impl Drop for GaugeGuard<'_> {
    fn drop(&mut self) {
        self.registry.gauge_add(self.gauge, -1);
    }
}

/// A self-contained copy of a [`MetricsRegistry`] at one instant.
#[derive(Debug, Clone)]
pub struct MetricsSnapshot {
    /// Time since the registry was created.
    pub elapsed: Duration,
    /// Per-stage latency histograms, indexed by [`Stage::index`].
    pub stages: Vec<LatencyHistogram>,
    /// Lock-wait time distribution (blocked acquisitions only).
    pub lock_wait: LatencyHistogram,
    /// Counter values, indexed by [`CounterId::index`].
    pub counters: Vec<u64>,
    /// Gauge `(value, high_water)` pairs, indexed by [`GaugeId::index`].
    pub gauges: Vec<(i64, i64)>,
    /// Per-certifier-shard durable commit decisions (folded into
    /// [`SHARD_COMMIT_SLOTS`]).
    pub shard_commits: Vec<u64>,
}

impl MetricsSnapshot {
    /// The histogram of `stage`.
    #[must_use]
    pub fn stage(&self, stage: Stage) -> &LatencyHistogram {
        &self.stages[stage.index()]
    }

    /// The value of `counter` at snapshot time; zero for a counter the
    /// snapshot's writer did not know yet (snapshots are length-prefixed,
    /// and counters are only ever appended).
    #[must_use]
    pub fn counter(&self, counter: CounterId) -> u64 {
        self.counters.get(counter.index()).copied().unwrap_or(0)
    }

    /// The `(value, high_water)` of `gauge` at snapshot time.
    #[must_use]
    pub fn gauge(&self, gauge: GaugeId) -> (i64, i64) {
        self.gauges[gauge.index()]
    }

    /// Sum of per-shard durable commit decisions.  The fault oracle checks
    /// this equals [`CounterId::CertifyCommits`].
    #[must_use]
    pub fn shard_commit_sum(&self) -> u64 {
        self.shard_commits.iter().sum()
    }

    /// Per-counter difference `self - earlier`, for timeline analysis of
    /// flight-recorder samples.  Saturates at zero (counters are
    /// monotonic; a regression is an oracle violation, not a panic here).
    #[must_use]
    pub fn counters_since(&self, earlier: &MetricsSnapshot) -> Vec<u64> {
        self.counters
            .iter()
            .zip(earlier.counters.iter())
            .map(|(now, then)| now.saturating_sub(*then))
            .collect()
    }

    /// Serialises the snapshot into a compact binary buffer.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(256);
        out.put_u32(SNAPSHOT_MAGIC);
        // Nanoseconds, so the round-trip is bit-exact (u64 nanoseconds
        // cover ~585 years of registry uptime).
        out.put_u64(self.elapsed.as_nanos().min(u128::from(u64::MAX)) as u64);
        out.put_u8(self.stages.len() as u8);
        for stage in &self.stages {
            encode_histogram(&mut out, stage);
        }
        encode_histogram(&mut out, &self.lock_wait);
        out.put_u8(self.counters.len() as u8);
        self.counters.iter().for_each(|&counter| out.put_u64(counter));
        out.put_u8(self.gauges.len() as u8);
        for &(value, high) in &self.gauges {
            out.put_i64(value);
            out.put_i64(high);
        }
        out.put_u8(self.shard_commits.len() as u8);
        self.shard_commits.iter().for_each(|&commits| out.put_u64(commits));
        out
    }

    /// Decodes a snapshot serialised by [`MetricsSnapshot::to_bytes`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::Corruption`] on a truncated or malformed buffer.
    pub fn from_bytes(bytes: &[u8]) -> Result<MetricsSnapshot> {
        let mut r = Reader::new(bytes);
        let magic = r.u32("metrics snapshot magic")?;
        if magic != SNAPSHOT_MAGIC {
            return Err(Error::Corruption(format!(
                "bad metrics snapshot magic {magic:#x}"
            )));
        }
        let elapsed = Duration::from_nanos(r.u64("snapshot elapsed")?);
        let stage_count = r.u8("stage count")? as usize;
        let stages = r.vec(stage_count, decode_histogram)?;
        let lock_wait = decode_histogram(&mut r)?;
        let counter_count = r.u8("counter count")? as usize;
        let counters = r.vec(counter_count, |r| r.u64("counter"))?;
        let gauge_count = r.u8("gauge count")? as usize;
        let gauges = r.vec(gauge_count, |r| Ok((r.i64("gauge")?, r.i64("gauge high")?)))?;
        let shard_count = r.u8("shard count")? as usize;
        let shard_commits = r.vec(shard_count, |r| r.u64("shard commits"))?;
        Ok(MetricsSnapshot {
            elapsed,
            stages,
            lock_wait,
            counters,
            gauges,
            shard_commits,
        })
    }
}

const SNAPSHOT_MAGIC: u32 = 0x544D_5331; // "TMS1"

fn duration_micros(duration: Duration) -> u64 {
    duration.as_micros().min(u128::from(u64::MAX)) as u64
}

/// Encodes a histogram as its summary fields plus the non-zero buckets as
/// `(index, count)` pairs — compact, since runs populate a few dozen of
/// the 288 buckets.
fn encode_histogram(out: &mut Vec<u8>, histogram: &LatencyHistogram) {
    out.put_u64(histogram.count());
    out.put_u128(histogram.sum_micros());
    out.put_u64(duration_micros(histogram.min()));
    out.put_u64(duration_micros(histogram.max()));
    let nonzero: Vec<(usize, u64)> = histogram
        .bucket_counts()
        .iter()
        .enumerate()
        .filter(|(_, &c)| c > 0)
        .map(|(i, &c)| (i, c))
        .collect();
    out.put_u16(nonzero.len() as u16);
    for (index, count) in nonzero {
        out.put_u16(index as u16);
        out.put_u64(count);
    }
}

fn decode_histogram(r: &mut Reader<'_>) -> Result<LatencyHistogram> {
    let count = r.u64("histogram count")?;
    let sum_micros = r.u128("histogram sum")?;
    let min_micros = r.u64("histogram min")?;
    let max_micros = r.u64("histogram max")?;
    let nonzero = r.u16("histogram bucket count")? as usize;
    let mut buckets = vec![0u64; LatencyHistogram::bucket_count()];
    for _ in 0..nonzero {
        let index = r.u16("bucket index")? as usize;
        let bucket_count = r.u64("bucket count")?;
        if index >= buckets.len() {
            return Err(Error::Corruption(format!(
                "metrics snapshot bucket index {index} out of range"
            )));
        }
        buckets[index] = bucket_count;
    }
    Ok(LatencyHistogram::from_parts(
        buckets, count, sum_micros, min_micros, max_micros,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::EventKind;

    #[test]
    fn disabled_registry_records_nothing() {
        let registry = MetricsRegistry::disabled();
        registry.incr(CounterId::TxCommitted);
        registry.record_stage(Stage::Certify, Duration::from_millis(3));
        registry.gauge_set(GaugeId::WalGroupBatch, 12);
        registry.record_shard_commit(0);
        registry.record_trace(CommitPathTrace {
            tx: 1,
            started_micros: 0,
            marks: [0; STAGE_COUNT],
        });
        registry.emit(Event::new(Component::Proxy, EventKind::TxCommit).tx(1));
        let snapshot = registry.snapshot();
        assert_eq!(snapshot.counter(CounterId::TxCommitted), 0);
        assert_eq!(snapshot.stage(Stage::Certify).count(), 0);
        assert_eq!(snapshot.gauge(GaugeId::WalGroupBatch), (0, 0));
        assert_eq!(snapshot.shard_commit_sum(), 0);
        assert!(registry.recent_traces().is_empty());
        assert!(registry.events().is_empty());
    }

    #[test]
    fn enabled_registry_aggregates() {
        let registry = MetricsRegistry::enabled();
        registry.incr(CounterId::CertifyCommits);
        registry.add(CounterId::CertifyCommits, 2);
        registry.record_stage(Stage::Durable, Duration::from_millis(8));
        registry.record_stage(Stage::Durable, Duration::from_millis(10));
        registry.gauge_add(GaugeId::CertifierInflight, 3);
        registry.gauge_add(GaugeId::CertifierInflight, -1);
        registry.record_shard_commit(0);
        registry.record_shard_commit(1);
        registry.record_shard_commit(1);
        let snapshot = registry.snapshot();
        assert_eq!(snapshot.counter(CounterId::CertifyCommits), 3);
        assert_eq!(snapshot.stage(Stage::Durable).count(), 2);
        assert_eq!(snapshot.gauge(GaugeId::CertifierInflight), (2, 3));
        assert_eq!(snapshot.shard_commit_sum(), 3);
        assert_eq!(snapshot.shard_commits[1], 2);
    }

    #[test]
    fn trace_timer_forward_fills_skipped_stages() {
        let mut timer = TraceTimer::new(7);
        let _ = timer.mark(Stage::Begin);
        let _ = timer.mark(Stage::Execute);
        // Certify / Durable skipped (read-only transaction).
        let _ = timer.mark(Stage::Install);
        let trace = timer.finish();
        assert_eq!(trace.tx, 7);
        assert!(trace.is_monotonic(), "marks: {:?}", trace.marks);
        assert_eq!(trace.marks[Stage::Certify.index()], trace.marks[Stage::Execute.index()]);
        assert_eq!(trace.marks[Stage::Durable.index()], trace.marks[Stage::Execute.index()]);
    }

    #[test]
    fn trace_ring_is_bounded() {
        let registry = MetricsRegistry::enabled();
        for tx in 0..(TRACE_CAPACITY as u64 + 10) {
            registry.record_trace(CommitPathTrace {
                tx,
                started_micros: 0,
                marks: [0; STAGE_COUNT],
            });
        }
        let traces = registry.recent_traces();
        assert_eq!(traces.len(), TRACE_CAPACITY);
        assert_eq!(traces.first().unwrap().tx, 10);
        assert_eq!(traces.last().unwrap().tx, TRACE_CAPACITY as u64 + 9);
    }

    #[test]
    fn enabled_registry_journals_and_merges_by_its_clock() {
        let registry = MetricsRegistry::enabled();
        registry.emit(Event::new(Component::Proxy, EventKind::TxBegin).tx(9));
        registry.emit(
            Event::new(Component::Certifier, EventKind::CertifyCommit)
                .tx(9)
                .version(1)
                .shard(0),
        );
        registry.emit(Event::new(Component::Wal, EventKind::WalFsync).version(1));
        let merged = registry.events();
        assert_eq!(merged.len(), 3);
        for pair in merged.windows(2) {
            assert!(pair[0].at_micros <= pair[1].at_micros);
        }
        assert_eq!(
            registry.component_events(Component::Certifier).len(),
            1
        );
        assert_eq!(registry.events_dropped(), 0);
    }

    #[test]
    fn counters_since_saturates() {
        let registry = MetricsRegistry::enabled();
        registry.add(CounterId::TxCommitted, 5);
        let earlier = registry.snapshot();
        registry.add(CounterId::TxCommitted, 7);
        let later = registry.snapshot();
        let delta = later.counters_since(&earlier);
        assert_eq!(delta[CounterId::TxCommitted.index()], 7);
        // Reversed order saturates instead of wrapping.
        assert_eq!(
            earlier.counters_since(&later)[CounterId::TxCommitted.index()],
            0
        );
    }

    #[test]
    fn snapshot_rejects_garbage() {
        assert!(MetricsSnapshot::from_bytes(&[]).is_err());
        assert!(MetricsSnapshot::from_bytes(&[1, 2, 3, 4, 5]).is_err());
        let registry = MetricsRegistry::enabled();
        let bytes = registry.snapshot().to_bytes();
        for cut in 0..bytes.len() {
            assert!(
                MetricsSnapshot::from_bytes(&bytes[..cut]).is_err(),
                "decoded a truncated snapshot of {cut} bytes"
            );
        }
    }
}
