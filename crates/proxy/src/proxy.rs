//! The proxy itself: transaction interception and the three commit pipelines.

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
    /// Enable local certification (Section 6.2).
    pub local_certification: bool,
    /// Enable eager pre-certification / deadlock avoidance (Section 8.2).
    pub eager_precertification: bool,
    /// If the proxy hears nothing from the certifier for this long, it
    /// proactively fetches remote writesets (bounded staleness, Section 6.2).
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

struct ProxyState {
    /// Every version at or below this has been scheduled for application or
    /// local commit at this replica; it is what the proxy reports to the
    /// certifier as `replica_version`.
    scheduled_through: Version,
    /// Dense order indices handed to the ordered-commit API.
    order_counter: u64,
    /// A serial grouped install is mid-flight: it passed the
    /// no-outstanding-order-indices check and is now applying its batch.
    /// The concurrent pipeline's scheduling step waits this flag out
    /// instead of handing out a new order index, so no commit can announce
    /// a version above the batch while the batch is still being installed —
    /// closing the snapshot window where a transaction could begin with an
    /// announced version whose content it cannot yet see (and a
    /// certification label that hides the batch's conflicts: lost updates).
    grouped_install_active: bool,
    /// Local copy of seen writesets for local certification.
    seen: SeenWriteSets,
    /// Last successful contact with the certifier.
    last_contact: Instant,
}

struct ProxyShared {
    config: ProxyConfig,
    db: Database,
    certifier: CertifierHandle,
    state: Mutex<ProxyState>,
    /// Serialises the apply-remote-writesets / commit phase ([C4]/[C5]) for
    /// the serial pipelines (Base and Tashkent-MW) and the staleness refresh.
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
                    grouped_install_active: false,
                    seen: SeenWriteSets::new(),
                    last_contact: Instant::now(),
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

    /// Applies any remote writesets the replica has not seen yet (bounded
    /// staleness, Section 6.2).  Returns the number of writesets applied.
    ///
    /// # Errors
    ///
    /// Fails if the certifier majority is unavailable or the database
    /// crashed.
    pub fn refresh(&self) -> Result<usize> {
        // Racy fast path: while ordered commits are outstanding the serial
        // install below would decline anyway, so skip the O(backlog) fetch
        // and clone.  The authoritative check runs under the state lock in
        // `apply_remotes_serial`; this one can only skip work, never apply.
        if self.shared.db.announce_counter() < self.shared.state.lock().order_counter {
            return Ok(0);
        }
        let since = self.replica_version();
        let remotes = self.shared.certifier.writesets_after(since);
        if remotes.is_empty() {
            self.shared.state.lock().last_contact = Instant::now();
            return Ok(0);
        }
        let _guard = self.shared.apply_lock.lock();
        match self.apply_remotes_serial(&remotes, false) {
            Ok(Some(count)) => {
                self.shared.state.lock().last_contact = Instant::now();
                Ok(count)
            }
            // Declined: ordered commits are in flight and the fetched
            // writesets were dropped.  Leave `last_contact` untouched so the
            // staleness clock keeps ticking and the next `maybe_refresh`
            // retries promptly instead of waiting out a full staleness bound
            // while believing the replica is fresh.
            Ok(None) => Ok(0),
            Err(e) => {
                // The failed install already advanced the scheduling state
                // past writesets that never reached the engine; resync before
                // surfacing the error, or the certifier (which only resends
                // versions above the reported `replica_version`) would never
                // deliver them again.
                self.resync_locked()?;
                Err(e)
            }
        }
    }

    /// Calls [`Proxy::refresh`] if the staleness bound has elapsed since the
    /// last certifier contact.  Returns the number of writesets applied, or
    /// zero if no refresh was due.
    ///
    /// # Errors
    ///
    /// As for [`Proxy::refresh`].
    pub fn maybe_refresh(&self) -> Result<usize> {
        let due = {
            let state = self.shared.state.lock();
            state.last_contact.elapsed() >= self.shared.config.staleness_bound
        };
        if due {
            self.refresh()
        } else {
            Ok(0)
        }
    }

    /// Soft recovery (Section 8.1): aborts nothing that is still running, but
    /// fast-forwards the ordered-commit bookkeeping and re-applies, serially,
    /// every writeset the replica is missing.  Used after an error in the
    /// concurrent Tashkent-API pipeline.
    ///
    /// # Errors
    ///
    /// Fails if the certifier is unavailable or the database crashed.
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
        {
            let mut state = self.shared.state.lock();
            // Declare all handed-out order indices consumed so that future
            // ordered commits do not wait on indices burned by failures.
            self.shared.db.force_announce_counter(state.order_counter);
            // Scheduling restarts from what the database actually holds.
            state.scheduled_through = self.shared.db.version();
        }
        let since = self.shared.db.version();
        let remotes = self.shared.certifier.writesets_after(since);
        // Force-fill: a pipeline that grabs a fresh order index between the
        // reset above and this install must not turn recovery into a no-op,
        // so the install burns such indices instead of declining; their
        // owners abort and recover through this same resync path.
        Ok(self.apply_remotes_serial(&remotes, true)?.unwrap_or(0))
    }

    /// Test hook: hands out one order index without ever announcing it —
    /// the state a crashed or wounded ordered commit leaves behind.  Serial
    /// grouped installs must *decline* while such an index is outstanding
    /// (`refresh` returns without side effects) and `resync` must burn it
    /// and force the install through.  Hidden because nothing but the
    /// recovery-edge tests should ever create this state on purpose.
    #[doc(hidden)]
    pub fn debug_burn_order_index(&self) -> u64 {
        let mut state = self.shared.state.lock();
        state.order_counter += 1;
        state.order_counter
    }

    // ----- internals -----

    /// Wound active local transactions whose partial writesets conflict with
    /// an incoming remote writeset (eager pre-certification, Section 8.2).
    fn wound_conflicting_locals(&self, remote: &WriteSet, committing: Option<&TxHandle>) {
        if !self.shared.config.eager_precertification {
            return;
        }
        let committing_id = committing.map(TxHandle::id);
        for (tx_id, partial) in self.shared.db.active_update_writesets() {
            if Some(tx_id) == committing_id {
                continue;
            }
            if partial.conflicts_with(remote) {
                // Abort the conflicting local transaction outright: it holds
                // write locks the certified remote writeset needs, and it is
                // doomed to fail certification anyway because the remote
                // writeset committed after its snapshot.
                self.shared.db.abort_transaction(tx_id);
            }
        }
    }

    /// Serially applies a list of remote writesets (grouped into a single
    /// replica transaction), updating the scheduling state.  Used by Base,
    /// Tashkent-MW, refresh and resync.
    ///
    /// Returns `Ok(None)` — with no side effects — when the install was
    /// declined because ordered commits are outstanding (never happens with
    /// `force_fill`), otherwise `Ok(Some(n))` with the number of writesets
    /// applied.
    fn apply_remotes_serial(
        &self,
        remotes: &[RemoteWriteSet],
        force_fill: bool,
    ) -> Result<Option<usize>> {
        // Filter to versions not yet scheduled and record them.
        let (to_apply, target_version) = {
            let mut state = self.shared.state.lock();
            // With the ordered-commit API, a serial grouped install is only
            // safe while no handed-out order index is outstanding: an
            // in-flight ordered commit holds a version below anything this
            // batch would install, and letting it announce afterwards would
            // put row versions out of order.  Decline and let the caller
            // retry once the pipelines have drained — except on the resync
            // path (`force_fill`), which must make progress: there the
            // outstanding indices are burned, and their owners abort and
            // recover through that same resync.  (The counters are checked
            // under the same state lock that schedules pipelines, so no new
            // index can be handed out concurrently; for Base and Tashkent-MW
            // both counters stay zero and this never declines.)
            if self.shared.db.announce_counter() < state.order_counter {
                if force_fill {
                    self.shared.db.force_announce_counter(state.order_counter);
                } else {
                    return Ok(None);
                }
            }
            let base = state.scheduled_through;
            let to_apply: Vec<&RemoteWriteSet> = remotes
                .iter()
                .filter(|r| r.commit_version > base)
                .collect();
            let target = to_apply
                .last()
                .map_or(base, |r| r.commit_version);
            for remote in &to_apply {
                state.seen.record(remote.commit_version, &remote.writeset);
            }
            state.scheduled_through = target;
            // Gate the concurrent pipeline while the batch is applied: the
            // counter check above only holds at this instant, and a commit
            // scheduled after the state lock drops could announce a version
            // above `target` mid-install — a transaction beginning then
            // would read a snapshot *labelled* past the batch but missing
            // its content, and certify with the batch's conflicts hidden
            // (lost updates; this was an open ROADMAP item the fault
            // harness reproduced under plain TPC-B load).  The gate blocks
            // only the hand-out of new order indices; unlike the reverted
            // order-index reservation it never makes the install wait *in*
            // the announce chain, so the lock-vs-announce livelock cannot
            // form — conflicting local transactions that already hold row
            // locks are wounded by the install, exactly as on the serial
            // path.
            if !to_apply.is_empty() {
                state.grouped_install_active = true;
            }
            (
                to_apply.iter().map(|r| (*r).clone()).collect::<Vec<_>>(),
                target,
            )
        };
        if to_apply.is_empty() {
            return Ok(Some(0));
        }
        let metrics = &self.shared.config.metrics;
        metrics.gauge_set(GaugeId::RemoteApplyBacklog, to_apply.len() as i64);
        let merged = WriteSet::merged(to_apply.iter().map(|r| &*r.writeset));
        self.wound_conflicting_locals(&merged, None);
        let install_started = metrics.is_enabled().then(Instant::now);
        let applied = self.shared.db.apply_writeset(&merged, target_version);
        if let (Some(started), Ok(_)) = (install_started, &applied) {
            metrics.record_stage(Stage::Install, started.elapsed());
        }
        self.shared.state.lock().grouped_install_active = false;
        applied?;
        metrics.add(CounterId::RemoteInstalls, to_apply.len() as u64);
        metrics.emit(
            Event::new(Component::Replica, EventKind::InstallRemote)
                .version(target_version.0)
                .node(self.shared.config.replica.value() as usize),
        );
        Ok(Some(to_apply.len()))
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
        match self.apply_remotes_serial(remotes, false) {
            Ok(Some(_)) => {}
            // Serial-pipeline systems never hand out order indices (only
            // `commit_concurrent` and ordered grouped installs increment
            // `order_counter`), so a decline cannot happen here.  Failing
            // loudly beats silently skipping the batch: [C5] below advances
            // `scheduled_through`, after which the certifier would never
            // resend these writesets.
            Ok(None) => unreachable!("serial grouped install declined on a serial-pipeline system"),
            Err(_) => {
                // The failed install advanced the scheduling state past
                // writesets that never reached the engine; resync re-applies
                // them — and, if this transaction was certified, its own
                // logged writeset too, in which case the already-applied
                // check below routes around the local commit.
                self.resync_locked()?;
            }
        }
        // [C5] finalise the local commit.
        if !decision_commit {
            return self.finish_update_commit(tx, false, None);
        }
        let version = commit_version.expect("commit decision carries a version");
        let already_applied = {
            let mut state = self.shared.state.lock();
            if version <= state.scheduled_through {
                // Another client of this replica already scheduled this
                // version through the remote-writeset path.
                true
            } else {
                state.seen.record(version, writeset);
                state.scheduled_through = version;
                false
            }
        };
        if already_applied || version <= self.shared.db.version() {
            // The effects of this transaction already reached the replica via
            // the remote-writeset path (possible when another client of the
            // same replica scheduled it first); committing again would apply
            // them twice.
            tx.abort();
        } else if let Err(e) = tx.commit_at(version) {
            // The local transaction may have been aborted under us by eager
            // pre-certification (a certified remote writeset needed one of
            // its locks).  Its certified effects are recovered by a resync;
            // the client sees a retryable conflict.  `commit_serial` already
            // holds the apply lock, so use the lock-free body — calling
            // `resync()` here would re-lock `apply_lock` and self-deadlock.
            self.resync_locked()?;
            return Err(match e {
                Error::InvalidTransactionState { tx, .. } => Error::WriteConflict {
                    tx,
                    detail: "transaction aborted by a conflicting remote writeset".into(),
                },
                other => other,
            });
        }
        Ok(CommitOutcome {
            commit_version: Some(version),
            read_only: false,
        })
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
        // A replica that has fallen far behind must not stream its whole
        // backlog through the thread-per-writeset concurrent pipeline: every
        // artificial-conflict barrier costs a join, any stalled predecessor
        // cascades down the announce order, and a failure restarts the whole
        // (still-growing) batch.  Catch up with the serial grouped path first
        // and keep the concurrent pipeline for the small steady-state tail.
        // This is deliberately NOT `resync()`: nothing failed, so the order
        // counters must not be force-advanced (that would abort every
        // in-flight ordered commit of other clients) and the scheduling
        // state must only move forward.  `apply_remotes_serial` declines
        // (with no side effects) while ordered commits are outstanding — a
        // grouped install that jumped over their versions would either
        // misorder row chains or strand their writesets.
        const CONCURRENT_WINDOW: usize = 64;
        let mut remotes = remotes;
        let mut defer_local_commit = false;
        if remotes.len() > CONCURRENT_WINDOW {
            let catch_up = {
                let _guard = self.shared.apply_lock.lock();
                self.apply_remotes_serial(remotes, false)
            };
            match catch_up {
                Ok(Some(_)) => {}
                Ok(None) => {
                    // Declined: ordered commits are in flight.  Schedule only
                    // a bounded prefix through the pipeline this round —
                    // streaming the whole backlog serialises on artificial
                    // conflict barriers, and under load the backlog grows
                    // faster than the barrier-bound pipeline drains it.  The
                    // local commit is deferred to the remote path: its
                    // writeset is already in the certifier log, so a later
                    // fetch delivers it *after* the tail it must not jump
                    // over.  (Scheduling it now would advance
                    // `scheduled_through` past the unscheduled tail, which
                    // the certifier — resending only versions above the
                    // reported `replica_version` — would then never deliver.)
                    remotes = &remotes[..CONCURRENT_WINDOW];
                    defer_local_commit = decision_commit;
                }
                Err(_) => {
                    // The failed install advanced the scheduling state past
                    // writesets that never reached the engine; recover
                    // exactly like the pipeline-failure path below.  The
                    // local transaction aborts, but if it was certified its
                    // writeset is already in the certifier log, so the
                    // resync re-applies its effects through the remote path
                    // — report it committed.
                    tx.abort();
                    self.resync()?;
                    return self.finish_update_commit(tx, decision_commit, commit_version);
                }
            }
        }
        // Schedule: assign dense order indices in global version order to
        // every not-yet-scheduled remote writeset plus (if certified) the
        // local commit.
        struct ScheduledRemote {
            remote: RemoteWriteSet,
            order_index: u64,
            needs_barrier: bool,
        }
        let (scheduled, own_slot) = loop {
            let mut state = self.shared.state.lock();
            // A serial grouped install is mid-flight: wait it out rather
            // than hand out an order index whose announce could expose a
            // snapshot above the batch before the batch is readable (see
            // `apply_remotes_serial`).  Holding no proxy locks here, and the
            // install wounds any conflicting row-lock holder, so the wait is
            // bounded by one grouped application.
            if state.grouped_install_active {
                drop(state);
                thread::sleep(Duration::from_micros(10));
                continue;
            }
            let base = state.scheduled_through;
            let mut scheduled = Vec::new();
            for remote in remotes {
                if remote.commit_version <= base {
                    continue;
                }
                state.order_counter += 1;
                // An artificial conflict exists when the remote writeset is
                // NOT conflict-free back to the replica's scheduled version:
                // it must wait for the conflicting version to commit first.
                let needs_barrier = remote.conflict_free_to > base;
                state.seen.record(remote.commit_version, &remote.writeset);
                state.scheduled_through = remote.commit_version;
                scheduled.push(ScheduledRemote {
                    remote: remote.clone(),
                    order_index: state.order_counter,
                    needs_barrier,
                });
            }
            let own_slot = if decision_commit && !defer_local_commit {
                let version = commit_version.expect("commit decision carries a version");
                if version <= state.scheduled_through {
                    // Already covered by the remote path (another client of
                    // this replica scheduled it).
                    None
                } else {
                    state.order_counter += 1;
                    state.seen.record(version, writeset);
                    state.scheduled_through = version;
                    Some((state.order_counter, version))
                }
            } else {
                None
            };
            break (scheduled, own_slot);
        };

        // Submit remote writesets concurrently, inserting a barrier before
        // any writeset with an artificial conflict.
        // An apply thread's failure, if it had one.
        let failure = |handle: thread::JoinHandle<Result<Version>>| match handle.join() {
            Ok(result) => result.err(),
            Err(_) => Some(Error::Protocol("apply thread panicked".into())),
        };
        let metrics = &self.shared.config.metrics;
        let mut handles: Vec<thread::JoinHandle<Result<Version>>> = Vec::new();
        let mut failures: Vec<Error> = Vec::new();
        for item in scheduled {
            if item.needs_barrier && !handles.is_empty() {
                metrics.incr(CounterId::ArtificialConflictBarriers);
                failures.extend(handles.drain(..).filter_map(failure));
            } else if handles.len() >= CONCURRENT_WINDOW {
                // Bound the live apply threads even when the serial catch-up
                // declined and the whole backlog streams through this
                // pipeline: without a cap a rejoining replica could spawn
                // one OS thread per backlog entry.  Join only the oldest —
                // under ordered announces it finishes first — so the window
                // stays full instead of draining to empty every 64 items.
                failures.extend(failure(handles.remove(0)));
            }
            self.wound_conflicting_locals(&item.remote.writeset, Some(tx));
            let db = self.shared.db.clone();
            let remote = item.remote;
            let order_index = item.order_index;
            let metrics = Arc::clone(metrics);
            let node = self.shared.config.replica.value() as usize;
            handles.push(thread::spawn(move || {
                let install_started = metrics.is_enabled().then(Instant::now);
                let result =
                    db.apply_writeset_ordered(&remote.writeset, remote.commit_version, order_index);
                if let (Some(started), Ok(_)) = (install_started, &result) {
                    metrics.record_stage(Stage::Install, started.elapsed());
                    metrics.incr(CounterId::RemoteInstalls);
                    metrics.emit(
                        Event::new(Component::Replica, EventKind::InstallRemote)
                            .version(remote.commit_version.0)
                            .node(node),
                    );
                }
                result
            }));
        }

        // Submit the local commit (or abort) concurrently with the remotes.
        let outcome = if !decision_commit {
            None
        } else if let Some((order_index, version)) = own_slot {
            match tx.commit_ordered(order_index, version) {
                Ok(v) => Some(v),
                Err(e) => {
                    failures.push(e);
                    None
                }
            }
        } else {
            // Effects already applied through the remote path, or (in a
            // bounded catch-up round) deferred to a later remote fetch.
            tx.abort();
            commit_version
        };

        failures.extend(handles.into_iter().filter_map(failure));

        if !failures.is_empty() {
            // Soft recovery: bring the replica back in sync serially.  The
            // local commit's effects are then applied via the resync if they
            // were certified, so the epilogue still reports success.
            self.resync()?;
            return self.finish_update_commit(tx, decision_commit, commit_version);
        }

        self.finish_update_commit(tx, decision_commit, outcome.or(commit_version))
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
        let mut effective_start = ptx.label_version.max(ptx.tx.start_version());
        let replica_version = {
            let state = self.shared.state.lock();
            if self.shared.config.local_certification {
                if let Some(conflict) = state.seen.conflict_after(&writeset, effective_start) {
                    drop(state);
                    ptx.tx.abort();
                    return Err(Error::CertificationFailed {
                        start_version: effective_start,
                        detail: format!("local certification found a conflict at {conflict}"),
                    });
                }
                effective_start = effective_start.max(state.seen.latest_version());
            }
            state.scheduled_through
        };

        // Certification request to the certifier.
        let request = CertificationRequest {
            replica: self.shared.config.replica,
            start_version: effective_start,
            writeset: writeset.clone(),
            replica_version,
        };
        let response = self.shared.certifier.certify(&request)?;
        self.shared.state.lock().last_contact = Instant::now();
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
