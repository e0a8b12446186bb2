//! The proxy itself: transaction interception and the three commit pipelines.
//!
//! Tashkent-API has one ordering rule (Section 8.3): every install on its
//! replica — a pipeline item, a merged backlog, a refresh, a resync — takes a
//! dense order index under the proxy's state lock, in global version order,
//! and the engine announces commits in index order.  An install begins at
//! its announce turn, so installs never race each other for a row; the
//! concurrency left is the local commit's flush overlapping the installs
//! around it.  Base and Tashkent-MW install serially under the apply lock
//! and never hand out an index.  On all three, an install's row lock aborts
//! any local holder (Section 8.2), and no install or local commit ever
//! skips a version.

use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use tashkent_certifier::{CertificationDecision, CertificationRequest, RemoteWriteSet};
use tashkent_common::metrics::{CounterId, GaugeId, Stage};
use tashkent_common::{
    Component, Error, Event, EventKind, MetricsRegistry, ReplicaId, Result, RowKey, SystemKind,
    TableId, TraceTimer, Value, Version, WriteSet,
};
use tashkent_storage::{Database, Row, TxHandle};

use crate::fanout::CertifierHandle;
use crate::seen::SeenWriteSets;

/// Configuration of one proxy instance.
#[derive(Debug, Clone)]
pub struct ProxyConfig {
    /// Which replication design the cluster runs.
    pub system: SystemKind,
    /// The replica this proxy fronts.
    pub replica: ReplicaId,
    /// Read by nothing: local certification (Section 6.2) is always on.
    /// Kept so configurations built as struct literals still compile.
    pub local_certification: bool,
    /// Read by nothing: Section 8.2 is always on, in the engine's row lock.
    /// Kept so configurations built as struct literals still compile.
    pub eager_precertification: bool,
    /// Read by nothing: no timer refreshes an idle replica; callers that
    /// need it current refresh it themselves, as `Cluster::sync_all` does.
    /// Kept so configurations built as struct literals still compile.
    pub staleness_bound: Duration,
    /// Metrics registry the proxy reports into: transaction counters, the
    /// begin / execute / certify stage histograms, remote-apply figures and
    /// per-transaction commit-path traces.  Defaults to a disabled registry.
    pub metrics: Arc<MetricsRegistry>,
}

impl ProxyConfig {
    /// A reasonable default configuration for the given system and replica.
    #[must_use]
    pub fn new(system: SystemKind, replica: ReplicaId) -> Self {
        ProxyConfig {
            system,
            replica,
            local_certification: true,
            eager_precertification: true,
            staleness_bound: Duration::from_secs(2),
            metrics: Arc::new(MetricsRegistry::disabled()),
        }
    }
}

/// Outcome of a committed proxy transaction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommitOutcome {
    /// The global version created by the commit (update transactions only).
    pub commit_version: Option<Version>,
    /// `true` if the transaction was read-only and committed locally without
    /// certification.
    pub read_only: bool,
}

/// A Tashkent-API commit carrying more remote writesets than this installs
/// them as one merged group at one order index instead of one apply thread
/// per writeset.
const CONCURRENT_WINDOW: usize = 64;

struct ProxyState {
    /// Every version at or below this has been scheduled for application or
    /// local commit at this replica; it is what the proxy reports to the
    /// certifier as `replica_version`.
    scheduled_through: Version,
    /// Dense order indices handed to the ordered-commit API (Tashkent-API
    /// only; stays zero on Base and Tashkent-MW).
    order_counter: u64,
    /// Local copy of seen writesets for local certification.
    seen: SeenWriteSets,
}

impl ProxyState {
    /// Schedules the suffix of `remotes` (ascending and dense, as the
    /// certifier sends them) above `scheduled_through`: records it for local
    /// certification and advances `scheduled_through` to its last version.
    /// Returns it, or refuses a suffix that does not start at
    /// `scheduled_through + 1` with [`Error::Corruption`], scheduling nothing
    /// (the proxy's one catch-up rule: no install skips a version).
    fn schedule<'a>(&mut self, remotes: &'a [RemoteWriteSet]) -> Result<&'a [RemoteWriteSet]> {
        let base = self.scheduled_through;
        let pending = &remotes[remotes.partition_point(|r| r.commit_version <= base)..];
        let Some(last) = pending.last() else {
            return Ok(pending);
        };
        if pending[0].commit_version != base.next() {
            return Err(Error::Corruption(format!(
                "remote stream resumes at version {} but the replica is scheduled through {base}",
                pending[0].commit_version
            )));
        }
        for remote in pending {
            self.seen.record(remote.commit_version, &remote.writeset);
        }
        self.scheduled_through = last.commit_version;
        Ok(pending)
    }

    /// Schedules a certified local commit at `version` if it is the next
    /// dense version.  Otherwise it already reached the remote path, or
    /// committing it would skip versions and the certifier stream installs
    /// it later: returns `false`.
    fn schedule_own(&mut self, version: Version, writeset: &WriteSet) -> bool {
        if version != self.scheduled_through.next() {
            return false;
        }
        self.seen.record(version, writeset);
        self.scheduled_through = version;
        true
    }

    /// Hands out the next dense order index.
    fn next_order_index(&mut self) -> u64 {
        self.order_counter += 1;
        self.order_counter
    }
}

/// One scheduled install: a run of consecutive certified writesets applied
/// as one replica transaction at the last one's version.  A merged run
/// applies later writes last, so it needs no barrier inside itself.
struct Install {
    writeset: Arc<WriteSet>,
    version: Version,
    count: usize,
    /// The announce position on a Tashkent-API replica; `None` on Base and
    /// Tashkent-MW, whose caller holds the apply lock instead.
    order_index: Option<u64>,
}

impl Install {
    fn new(group: &[RemoteWriteSet], order_index: Option<u64>) -> Self {
        let writeset = match group {
            [one] => Arc::clone(&one.writeset),
            _ => Arc::new(WriteSet::merged(group.iter().map(|r| &*r.writeset))),
        };
        Install {
            writeset,
            version: group
                .last()
                .expect("an install carries a writeset")
                .commit_version,
            count: group.len(),
            order_index,
        }
    }

    /// Runs the install against the engine.  On success it counts every
    /// writeset it carries in `RemoteInstalls` and records one
    /// `Stage::Install` sample.
    fn run(&self, shared: &ProxyShared) -> Result<Version> {
        let (db, metrics) = (&shared.db, &shared.config.metrics);
        let started = metrics.is_enabled().then(Instant::now);
        let result = match self.order_index {
            Some(index) => db.apply_writeset_ordered(&self.writeset, self.version, index),
            None => db.apply_writeset(&self.writeset, self.version),
        };
        if result.is_ok() {
            if let Some(started) = started {
                metrics.record_stage(Stage::Install, started.elapsed());
            }
            metrics.add(CounterId::RemoteInstalls, self.count as u64);
            metrics.emit(
                Event::new(Component::Replica, EventKind::InstallRemote)
                    .version(self.version.0)
                    .node(shared.config.replica.value() as usize),
            );
        }
        result
    }
}

struct ProxyShared {
    config: ProxyConfig,
    db: Database,
    certifier: CertifierHandle,
    state: Mutex<ProxyState>,
    /// Serialises every resync, and for Base and Tashkent-MW also the
    /// apply-remote-writesets / commit phase ([C4]/[C5]) and the refresh.
    /// No Tashkent-API install holds it while it waits for its announce turn.
    apply_lock: Mutex<()>,
}

/// The transparent proxy attached to one database replica.
///
/// Cloning is cheap; all clones share the same proxy state.
#[derive(Clone)]
pub struct Proxy {
    shared: Arc<ProxyShared>,
}

impl std::fmt::Debug for Proxy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Proxy")
            .field("replica", &self.shared.config.replica)
            .field("system", &self.shared.config.system)
            .field("replica_version", &self.replica_version())
            .finish()
    }
}

impl Proxy {
    /// Creates a proxy fronting `db` and talking to `certifier` (an
    /// `Arc<Certifier>` or a ready-made [`CertifierHandle`] — the pipelines
    /// are identical above the handle).
    #[must_use]
    pub fn new(
        config: ProxyConfig,
        db: Database,
        certifier: impl Into<CertifierHandle>,
    ) -> Self {
        let scheduled_through = db.version();
        Proxy {
            shared: Arc::new(ProxyShared {
                config,
                db,
                certifier: certifier.into(),
                state: Mutex::new(ProxyState {
                    scheduled_through,
                    order_counter: 0,
                    seen: SeenWriteSets::new(),
                }),
                apply_lock: Mutex::new(()),
            }),
        }
    }

    /// The replica this proxy fronts.
    #[must_use]
    pub fn replica(&self) -> ReplicaId {
        self.shared.config.replica
    }

    /// The system variant this proxy runs.
    #[must_use]
    pub fn system(&self) -> SystemKind {
        self.shared.config.system
    }

    /// The database behind this proxy.
    #[must_use]
    pub fn database(&self) -> &Database {
        &self.shared.db
    }

    /// The replica's version as tracked by the proxy (`replica_version`).
    #[must_use]
    pub fn replica_version(&self) -> Version {
        self.shared.state.lock().scheduled_through
    }

    /// Begins a new client transaction (the proxy intercepting `BEGIN`).
    #[must_use]
    pub fn begin(&self) -> ProxyTransaction {
        // Label the transaction with the engine's actual snapshot version.
        // Labelling with the proxy's `scheduled_through` instead looks
        // equivalent but is not: in the concurrent pipeline scheduling runs
        // ahead of announcement, so a transaction could be labelled past
        // writesets its snapshot cannot see — and certification (which
        // checks conflicts only *after* the label) would let it overwrite
        // them: lost updates, caught by the fault harness's TPC-B
        // conservation oracle under plain concurrent load.  A label that is
        // conservative (older than the snapshot) is safe under GSI; a label
        // newer than the snapshot never is.
        let metrics = &self.shared.config.metrics;
        metrics.incr(CounterId::TxBegun);
        let begin_started = metrics.is_enabled().then(Instant::now);
        let tx = self.shared.db.begin();
        let label = tx.start_version();
        metrics.emit(
            Event::new(Component::Proxy, EventKind::TxBegin)
                .tx(tx.id().0)
                .node(self.shared.config.replica.value() as usize),
        );
        let timer = begin_started.map(|started| {
            metrics.record_stage(Stage::Begin, started.elapsed());
            let mut timer = TraceTimer::new_at(tx.id().0, metrics.uptime_micros());
            timer.mark(Stage::Begin);
            timer
        });
        ProxyTransaction {
            proxy: self.clone(),
            tx,
            label_version: label,
            timer,
        }
    }

    /// Applies any remote writesets the replica has not seen yet (Section
    /// 6.2) as one group.  Returns the number of writesets applied.  An empty
    /// stream may mean the wire failed; callers that need completeness
    /// compare versions, as `Cluster::sync_all` does.
    ///
    /// On Tashkent-API the group takes the next order index and waits for
    /// its announce turn.  Behind an index that never announces (a crashed
    /// or wounded commit) it waits out the engine's `ordered_commit_timeout`,
    /// resyncs, and returns the timeout.
    ///
    /// # Errors
    ///
    /// Fails if the database crashed, the group timed out waiting for its
    /// announce turn, or the stream has a gap ([`Error::Corruption`]).
    pub fn refresh(&self) -> Result<usize> {
        let remotes = self
            .shared
            .certifier
            .writesets_after(self.replica_version());
        // Tashkent-API takes no apply lock while the group waits for its
        // announce turn: a failing pipeline ahead of it must stay free to
        // resync, or the apply lock and the announce chain would wait on
        // each other until the timeout broke the cycle.
        let guard = (!self.shared.config.system.ordered_commit_api())
            .then(|| self.shared.apply_lock.lock());
        self.install_group(&remotes, false).or_else(|e| {
            // A failed install already advanced the scheduling state past
            // writesets that never reached the engine; resync before
            // surfacing the error, or the certifier (which only resends
            // versions above the reported `replica_version`) would never
            // deliver them again.  Base and Tashkent-MW keep the apply lock
            // from the failed install through the resync.
            let _guard = guard.unwrap_or_else(|| self.shared.apply_lock.lock());
            self.resync_locked()?;
            Err(e)
        })
    }

    /// Soft recovery (Section 8.1): aborts nothing that is still running, but
    /// declares every handed-out order index consumed and re-applies, as one
    /// group, every writeset the replica is missing.  Used after an error in
    /// any pipeline.
    ///
    /// # Errors
    ///
    /// Fails if the database crashed or the stream has a gap
    /// ([`Error::Corruption`]: the database is below the truncation floor).
    pub fn resync(&self) -> Result<usize> {
        let _guard = self.shared.apply_lock.lock();
        self.resync_locked()
    }

    /// [`Proxy::resync`] body, for callers that already hold the apply lock
    /// (re-locking it would self-deadlock; `parking_lot::Mutex` is not
    /// reentrant).
    fn resync_locked(&self) -> Result<usize> {
        self.shared.config.metrics.emit(
            Event::new(Component::Replica, EventKind::Resync)
                .node(self.shared.config.replica.value() as usize),
        );
        let remotes = self
            .shared
            .certifier
            .writesets_after(self.shared.db.version());
        self.install_group(&remotes, true)
    }

    /// Test hook: hands out one order index without ever announcing it —
    /// the state a crashed or wounded ordered commit leaves behind.  A
    /// refresh queued behind it times out and resyncs; `resync` burns it.
    /// Hidden because nothing but the recovery-edge tests should ever
    /// create this state on purpose.
    #[doc(hidden)]
    pub fn debug_burn_order_index(&self) -> u64 {
        self.shared.state.lock().next_order_index()
    }

    // ----- internals -----

    /// Installs the not-yet-scheduled suffix of `remotes` as one group — the
    /// install of refresh, resync and Base / Tashkent-MW's [C4].  Returns
    /// the number of writesets installed, or the gap `ProxyState::schedule`
    /// refuses.
    ///
    /// The one per-system difference is the engine call: on Tashkent-API
    /// the group takes the next order index in the same state-lock section
    /// that schedules it and is announced in turn; on Base and Tashkent-MW
    /// the caller holds the apply lock and the group commits directly.
    ///
    /// `restart` (resync) first declares every handed-out order index
    /// consumed — their owners fail and resync in turn — and restarts
    /// scheduling from what the database actually holds, all in that same
    /// section, so the group's own index is the next to announce and waits
    /// on nothing.
    fn install_group(&self, remotes: &[RemoteWriteSet], restart: bool) -> Result<usize> {
        let ordered = self.shared.config.system.ordered_commit_api();
        let install = {
            let mut state = self.shared.state.lock();
            if restart {
                if ordered {
                    self.shared.db.force_announce_counter(state.order_counter);
                }
                state.scheduled_through = self.shared.db.version();
            }
            let group = state.schedule(remotes)?;
            if group.is_empty() {
                return Ok(0);
            }
            Install::new(group, ordered.then(|| state.next_order_index()))
        };
        self.shared
            .config
            .metrics
            .gauge_set(GaugeId::RemoteApplyBacklog, install.count as i64);
        install.run(&self.shared)?;
        Ok(install.count)
    }

    /// The serial commit pipeline used by Base and Tashkent-MW
    /// (steps [C4] and [C5], serialised).
    fn commit_serial(
        &self,
        tx: &TxHandle,
        decision_commit: bool,
        commit_version: Option<Version>,
        remotes: &[RemoteWriteSet],
        writeset: &WriteSet,
    ) -> Result<CommitOutcome> {
        let _guard = self.shared.apply_lock.lock();
        // An aborted local transaction is rolled back before the remote
        // writesets are applied: it may hold write locks on rows the remote
        // writesets are about to modify.
        if !decision_commit {
            tx.abort();
        }
        // [C4] apply the grouped remote writesets in their own transaction.
        if self.install_group(remotes, false).is_err() {
            // A refused gap, or a failed install that advanced the
            // scheduling state past writesets that never reached the engine:
            // resync re-applies them — and, if this transaction was
            // certified, its own logged writeset too, in which case the
            // dense-version check below routes around the local commit.
            self.resync_locked()?;
        }
        // [C5] finalise the local commit.
        if !decision_commit {
            return self.finish_update_commit(tx, false, None);
        }
        let version = commit_version.expect("commit decision carries a version");
        if !self.shared.state.lock().schedule_own(version, writeset) {
            // Either the effects already reached the replica through the
            // remote path, or committing here would skip versions; either
            // way the certifier stream delivers them, not this commit.
            tx.abort();
        } else if let Err(e) = tx.commit_at(version) {
            // An install's row lock may have aborted the local transaction
            // under us (Section 8.2).  Its certified effects are recovered by
            // a resync; the client sees a retryable conflict.  `commit_serial`
            // already holds the apply lock, so use the lock-free body —
            // calling `resync()` here would re-lock `apply_lock` and
            // self-deadlock.
            self.resync_locked()?;
            return Err(match e {
                Error::InvalidTransactionState { tx, .. } => Error::WriteConflict {
                    tx,
                    detail: "transaction aborted by a conflicting remote writeset".into(),
                },
                other => other,
            });
        }
        self.finish_update_commit(tx, true, commit_version)
    }

    /// Common epilogue of the commit pipelines: the final outcome of an
    /// update transaction whose remote writesets have been installed
    /// (directly or through a recovery resync).
    fn finish_update_commit(
        &self,
        tx: &TxHandle,
        decision_commit: bool,
        commit_version: Option<Version>,
    ) -> Result<CommitOutcome> {
        if !decision_commit {
            return Err(Error::CertificationFailed {
                start_version: tx.start_version(),
                detail: "certifier aborted the transaction".into(),
            });
        }
        Ok(CommitOutcome {
            commit_version,
            read_only: false,
        })
    }

    /// The concurrent commit pipeline of Tashkent-API: remote writesets and
    /// the local commit are submitted together; the database groups their
    /// commit records and announces them in global order.
    fn commit_concurrent(
        &self,
        tx: &TxHandle,
        decision_commit: bool,
        commit_version: Option<Version>,
        remotes: &[RemoteWriteSet],
        writeset: &WriteSet,
    ) -> Result<CommitOutcome> {
        // An aborted local transaction is rolled back up front: it may hold
        // write locks on rows the remote writesets are about to modify.
        if !decision_commit {
            tx.abort();
        }
        let mut failures: Vec<Error> = Vec::new();
        // Schedule under the state lock: dense order indices in global
        // version order, one per not-yet-scheduled remote writeset — or one
        // for the whole backlog, merged, when it is wider than the window —
        // then one for the local commit if it is the next dense version.
        // The merged group rides the same spawn/join loop as any other
        // remote.  A refused gap schedules nothing and soft-recovers below.
        let (base, scheduled, own_slot) = {
            let mut state = self.shared.state.lock();
            let base = state.scheduled_through;
            let pending = state.schedule(remotes).unwrap_or_else(|gap| {
                failures.push(gap);
                &[]
            });
            let width = if pending.len() > CONCURRENT_WINDOW {
                pending.len()
            } else {
                1
            };
            let scheduled: Vec<_> = pending
                .chunks(width)
                .map(|group| (group, state.next_order_index()))
                .collect();
            let own_slot = commit_version
                .filter(|&version| decision_commit && state.schedule_own(version, writeset))
                .map(|version| (state.next_order_index(), version));
            (base, scheduled, own_slot)
        };

        // An apply thread's failure, if it had one.
        let failure = |handle: thread::JoinHandle<Result<Version>>| match handle.join() {
            Ok(result) => result.err(),
            Err(_) => Some(Error::Protocol("apply thread panicked".into())),
        };
        let metrics = &self.shared.config.metrics;
        let mut handles: Vec<thread::JoinHandle<Result<Version>>> = Vec::new();
        // Submit remote writesets concurrently, inserting a barrier before
        // any writeset with an artificial conflict (one NOT conflict-free
        // back to the replica's scheduled version): it waits for every
        // install submitted before it.  Correctness does not need the
        // barrier, since each install begins at its announce turn anyway.
        // It is kept for a measured timing reason: on 2 vCPUs, removing it
        // moved `tpcb_tcp`'s Tashkent-API commit p50 from a median of 106
        // to 189 µs, every run in the slow mode.
        for (group, order_index) in scheduled {
            if group[0].conflict_free_to > base && !handles.is_empty() {
                metrics.incr(CounterId::ArtificialConflictBarriers);
                failures.extend(handles.drain(..).filter_map(failure));
            }
            let install = Install::new(group, Some(order_index));
            let shared = Arc::clone(&self.shared);
            handles.push(thread::spawn(move || install.run(&shared)));
        }

        // Submit the local commit (or abort) concurrently with the remotes.
        // Without a slot it was aborted, or left to the remote path (see
        // `schedule_own`).
        if let Some((order_index, version)) = own_slot {
            failures.extend(tx.commit_ordered(order_index, version).err());
        } else if decision_commit {
            tx.abort();
        }
        failures.extend(handles.into_iter().filter_map(failure));

        if !failures.is_empty() {
            // Soft recovery: bring the replica back in sync.  The local
            // commit's effects are then applied via the resync if they were
            // certified, so the epilogue still reports success.
            self.resync()?;
        }
        self.finish_update_commit(tx, decision_commit, commit_version)
    }

    fn commit_transaction(
        &self,
        ptx: &ProxyTransaction,
        timer: &mut Option<TraceTimer>,
    ) -> Result<CommitOutcome> {
        let metrics = &self.shared.config.metrics;
        // The execute stage spans BEGIN to the client's COMMIT call.
        if let Some(t) = timer.as_mut() {
            metrics.record_stage(Stage::Execute, t.mark(Stage::Execute));
        }
        // [C2] extract the writeset.
        let writeset = ptx.tx.writeset();
        if writeset.is_empty() {
            // Read-only transactions commit immediately.
            ptx.tx.commit()?;
            return Ok(CommitOutcome {
                commit_version: None,
                read_only: true,
            });
        }

        // Local certification (Section 6.2): check against the writesets this
        // proxy has already seen and, if clean, advance the effective start
        // version to reduce work at the certifier.
        let label = ptx.label_version.max(ptx.tx.start_version());
        let (effective_start, replica_version) = {
            let state = self.shared.state.lock();
            if let Some(conflict) = state.seen.conflict_after(&writeset, label) {
                drop(state);
                ptx.tx.abort();
                return Err(Error::CertificationFailed {
                    start_version: label,
                    detail: format!("local certification found a conflict at {conflict}"),
                });
            }
            (label.max(state.seen.latest_version()), state.scheduled_through)
        };

        // Certification request to the certifier.
        let request = CertificationRequest {
            replica: self.shared.config.replica,
            start_version: effective_start,
            writeset: writeset.clone(),
            replica_version,
        };
        let response = self.shared.certifier.certify(&request)?;
        if let Some(t) = timer.as_mut() {
            // The certify round-trip; a commit response also implies the
            // writeset is durable at the certifier, so the durable mark
            // lands at the same observable instant.
            metrics.record_stage(Stage::Certify, t.mark(Stage::Certify));
            t.mark(Stage::Durable);
        }
        metrics.gauge_set(
            GaugeId::RemoteApplyBacklog,
            response.remote_writesets.len() as i64,
        );
        let decision_commit = matches!(response.decision, CertificationDecision::Commit);

        // [C4] / [C5]: apply remote writesets and finalise the local commit.
        let result = if self.shared.config.system.ordered_commit_api() {
            self.commit_concurrent(
                &ptx.tx,
                decision_commit,
                response.commit_version,
                &response.remote_writesets,
                &writeset,
            )
        } else {
            self.commit_serial(
                &ptx.tx,
                decision_commit,
                response.commit_version,
                &response.remote_writesets,
                &writeset,
            )
        };
        if let Some(t) = timer.as_mut() {
            // The whole apply-remotes / announce / local-commit phase sits
            // between the durable and announce marks; the install mark is
            // the instant the commit finished.  (The announce and install
            // stage *histograms* are fed with finer-grained timings by the
            // engine and the apply paths respectively.)
            t.mark(Stage::Announce);
            t.mark(Stage::Install);
        }
        result
    }
}

/// A client transaction running through the proxy (the JDBC-like interface of
/// Section 6.2).
pub struct ProxyTransaction {
    proxy: Proxy,
    tx: TxHandle,
    /// The replica version the proxy labelled this transaction with at BEGIN.
    label_version: Version,
    /// Commit-path trace timer; present only while metrics are enabled.
    timer: Option<TraceTimer>,
}

impl std::fmt::Debug for ProxyTransaction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProxyTransaction")
            .field("tx", &self.tx.id())
            .field("label_version", &self.label_version)
            .finish()
    }
}

impl ProxyTransaction {
    /// The snapshot version the proxy labelled this transaction with.
    #[must_use]
    pub fn start_version(&self) -> Version {
        self.label_version
    }

    /// Reads a row.
    ///
    /// # Errors
    ///
    /// Propagates engine errors (crashed database, finished transaction).
    pub fn read(&self, table: TableId, key: impl Into<RowKey>) -> Result<Option<Row>> {
        self.tx.read(table, key)
    }

    /// Scans a table.
    ///
    /// # Errors
    ///
    /// Propagates engine errors.
    pub fn scan(&self, table: TableId) -> Result<Vec<(RowKey, Row)>> {
        self.tx.scan(table)
    }

    /// Inserts a row.
    ///
    /// # Errors
    ///
    /// Propagates engine conflicts / deadlocks; the caller should abort and
    /// retry the transaction on such errors.
    pub fn insert(
        &self,
        table: TableId,
        key: impl Into<RowKey>,
        row: Vec<(String, Value)>,
    ) -> Result<()> {
        self.tx.insert(table, key, row)
    }

    /// Updates columns of a row.
    ///
    /// # Errors
    ///
    /// Propagates engine conflicts / deadlocks.
    pub fn update(
        &self,
        table: TableId,
        key: impl Into<RowKey>,
        columns: Vec<(String, Value)>,
    ) -> Result<()> {
        self.tx.update(table, key, columns)
    }

    /// Deletes a row.
    ///
    /// # Errors
    ///
    /// Propagates engine conflicts / deadlocks.
    pub fn delete(&self, table: TableId, key: impl Into<RowKey>) -> Result<()> {
        self.tx.delete(table, key)
    }

    /// The transaction's writeset captured so far.
    #[must_use]
    pub fn writeset(&self) -> WriteSet {
        self.tx.writeset()
    }

    /// Commits the transaction through the replication protocol (the proxy
    /// intercepting `COMMIT`).
    ///
    /// # Errors
    ///
    /// * [`Error::CertificationFailed`] — a write-write conflict was detected
    ///   locally or at the certifier; the transaction was aborted and can be
    ///   retried.
    /// * [`Error::Unavailable`] — the certifier majority or the database is
    ///   down.
    /// * Engine errors from the commit itself.
    pub fn commit(mut self) -> Result<CommitOutcome> {
        let mut timer = self.timer.take();
        let proxy = self.proxy.clone();
        let result = proxy.commit_transaction(&self, &mut timer);
        let metrics = &proxy.shared.config.metrics;
        let node = proxy.shared.config.replica.value() as usize;
        match &result {
            Ok(outcome) => {
                metrics.incr(CounterId::TxCommitted);
                metrics.emit(
                    Event::new(Component::Proxy, EventKind::TxCommit)
                        .tx(self.tx.id().0)
                        .version(outcome.commit_version.map_or(0, |v| v.0))
                        .node(node),
                );
            }
            Err(_) => {
                metrics.incr(CounterId::TxAborted);
                metrics.emit(
                    Event::new(Component::Proxy, EventKind::TxAbort)
                        .tx(self.tx.id().0)
                        .node(node),
                );
            }
        }
        if let Some(timer) = timer {
            metrics.record_trace(timer.finish());
        }
        result
    }

    /// Aborts the transaction.
    pub fn abort(self) {
        let metrics = &self.proxy.shared.config.metrics;
        metrics.incr(CounterId::TxAborted);
        metrics.emit(
            Event::new(Component::Proxy, EventKind::TxAbort)
                .tx(self.tx.id().0)
                .node(self.proxy.shared.config.replica.value() as usize),
        );
        self.tx.abort();
    }
}
