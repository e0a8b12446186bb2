//! The certifier shared by every replica proxy.
//!
//! [`Certifier`] detects write-write conflicts by intersecting writesets,
//! assigns the global total order of update-transaction commits and makes
//! each decision durable on a majority-replicated log before announcing it,
//! behind the exact request / response interface of Section 6.1:
//!
//! * request: `(T.tx_start_version, T.writeset)` plus the replica's current
//!   version so the certifier knows which remote writesets the replica has
//!   not seen yet;
//! * response: the remote writesets, the decision (commit / abort) and the
//!   transaction's commit version — extended, for Tashkent-API, with the
//!   version down to which each remote writeset is conflict-free
//!   (Section 5.2.1).
//!
//! # Shards
//!
//! The certifier fronts N independent certification shards — one for a
//! plain [`CertifierConfig`], which is the paper's certifier.  Each shard
//! owns a slice of the row space (the deterministic [`ShardMap`]), keeps its
//! own in-memory [`CertifierLog`] of the committed writesets that touch its
//! slice, and has its own majority-replicated durable log
//! ([`ReplicatedLog`]) and checkpoint store.  A *global sequencer* assigns
//! cluster-wide commit versions (and draws the forced aborts of
//! Section 9.5), so every replica still applies one totally-ordered stream.
//!
//! A write-write conflict between two writesets is witnessed by a shared
//! `(table, key)` pair, and that pair is owned by exactly one shard — a shard
//! both writesets certify on.  Logging the **full** writeset on every owning
//! shard therefore preserves every conflict: any intersection found on any
//! shard is a real one, and every real one is found on the shared item's
//! shard.
//!
//! # Certification paths
//!
//! * **Direct ordered two-phase certify**: acquire every owning shard's log
//!   in ascending shard-id order, decide under the sequencer, append,
//!   release.  The global acquisition order makes concurrent multi-shard
//!   certifications deadlock-free.  Multi-shard writesets always take it;
//!   so does everything when batching is off or forced aborts are on.
//! * **Per-shard two-phase epoch**: single-shard writesets drain through the
//!   shard's [`EpochQueue`] and are certified a batch at a time under one
//!   shard-log lock, one sequencer acquisition and one grouped majority
//!   fsync, with decisions identical to the direct path taken one request
//!   at a time in arrival order.
//!
//! # Version streams
//!
//! The sequencer's version counter is only advanced while the committing
//! transaction holds its shard locks and the sequencer lock, so a reader
//! that samples `system_version` *first* and the per-shard streams
//! *afterwards* observes every commit at or below the sampled version —
//! [`merge_shard_streams`] exploits this to reassemble a gap-free global
//! stream from per-shard streams.

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::{Mutex, MutexGuard};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tashkent_common::codec::{Reader, Writer};
use tashkent_common::metrics::{CounterId, GaugeId, Stage};
use tashkent_common::{
    Component, Error, Event, EventKind, MetricsRegistry, ReplicaId, Result, RowKey, ShardId,
    ShardMap, TableId, Version, WriteSet,
};
use tashkent_storage::checkpoint::CheckpointStore;
use tashkent_storage::disk::DiskConfig;
use tashkent_storage::wal::WalRecord;

use crate::batch::{EpochQueue, Slot};
use crate::log::CertifierLog;
use crate::paxos::{CertifierNodeId, ReplicatedLog, ReplicatedLogStats};
use crate::sharded::{merge_shard_streams, ShardStream, ShardedCertifierConfig};

/// Encodes a certifier checkpoint payload: the truncation floor followed by
/// the log entries above it, each framed as a WAL commit record (the same
/// checksummed frame the durable log uses).
#[must_use]
pub fn encode_checkpoint_payload(floor: Version, entries: &[(Version, Arc<WriteSet>)]) -> Vec<u8> {
    let mut payload = Vec::with_capacity(8 + entries.len() * 64);
    payload.put_u64(floor.0);
    for (version, writeset) in entries {
        WalRecord::encode_commit_into(&mut payload, *version, writeset);
    }
    payload
}

/// Decodes a certifier checkpoint payload back into its floor and entries.
///
/// # Errors
///
/// Returns [`Error::Corruption`] if the payload is truncated or a record
/// frame fails its checksum or decoding.
pub fn decode_checkpoint_payload(bytes: &[u8]) -> Result<(Version, Vec<(Version, WriteSet)>)> {
    let mut r = Reader::new(bytes);
    let floor = Version(r.u64("certifier checkpoint floor")?);
    // Unlike WAL replay, a checkpoint image admits no torn tail: every byte
    // must decode, or the image is corrupt.
    let mut entries = Vec::new();
    while !r.is_empty() {
        match WalRecord::decode_from(&mut r)? {
            Some(WalRecord::Commit { version, writeset }) => entries.push((version, writeset)),
            Some(WalRecord::Checkpoint { .. }) => {}
            None => {
                return Err(Error::Corruption(
                    "truncated record frame in certifier checkpoint payload".into(),
                ));
            }
        }
    }
    Ok((floor, entries))
}

/// Configuration of the certifier component (of each shard, when sharded).
#[derive(Debug, Clone)]
pub struct CertifierConfig {
    /// Number of certifier nodes (leader + backups).
    pub nodes: usize,
    /// Disk configuration of every node's persistent log.
    pub disk: DiskConfig,
    /// Whether certified writesets are synchronously logged before the
    /// certifier replies (`false` only for the `tashAPInoCERT` analysis).
    pub durable: bool,
    /// Fraction of certification requests aborted at random *after* the full
    /// certification check (Section 9.5's forced abort rates).
    pub forced_abort_rate: f64,
    /// Seed for the forced-abort random choice, so experiments are
    /// repeatable.
    pub seed: u64,
    /// Cluster metrics registry this certifier reports into.  Standalone
    /// certifiers default to a disabled (no-op) registry.
    pub metrics: Arc<MetricsRegistry>,
    /// Whether single-shard requests drain through per-shard epochs with a
    /// footprint pre-screen (the default) or take the direct path one at a
    /// time.  Decisions are identical either way.  The direct path stays
    /// because it is the reference the equivalence suites compare epochs
    /// against, and because multi-shard and forced-abort requests always
    /// take it.
    pub batch: bool,
}

impl Default for CertifierConfig {
    fn default() -> Self {
        CertifierConfig {
            nodes: 3,
            disk: DiskConfig::default(),
            durable: true,
            forced_abort_rate: 0.0,
            seed: 0x7A5B_0001,
            metrics: Arc::new(MetricsRegistry::disabled()),
            batch: true,
        }
    }
}

/// A certification request from a replica's proxy.
#[derive(Debug, Clone, PartialEq)]
pub struct CertificationRequest {
    /// The requesting replica.
    pub replica: ReplicaId,
    /// The transaction's snapshot version (`tx_start_version`), possibly
    /// already advanced by local certification at the proxy.
    pub start_version: Version,
    /// The transaction's writeset.
    pub writeset: WriteSet,
    /// The replica's current version (`replica_version`): remote writesets
    /// newer than this are returned, and — for Tashkent-API — each returned
    /// writeset is additionally certified back to this version.
    pub replica_version: Version,
}

/// The certifier's verdict on one update transaction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CertificationDecision {
    /// No write-write conflict: the transaction commits globally.
    Commit,
    /// The transaction must abort.
    Abort {
        /// Human-readable reason (conflict version or forced abort).
        reason: String,
        /// `true` if this abort was injected by the forced-abort experiment
        /// rather than caused by a real conflict.
        forced: bool,
    },
}

impl CertificationDecision {
    /// `true` for the commit decision.
    #[must_use]
    pub fn is_commit(&self) -> bool {
        matches!(self, CertificationDecision::Commit)
    }

    /// The conservative abort of a snapshot the truncated log can no longer
    /// certify.
    fn below_floor(start_version: Version, floor: Version) -> Self {
        CertificationDecision::Abort {
            reason: format!("snapshot {start_version} below truncation floor {floor}"),
            forced: false,
        }
    }

    fn conflict(with: Version) -> Self {
        CertificationDecision::Abort {
            reason: format!("write-write conflict with {with}"),
            forced: false,
        }
    }
}

/// A remote writeset returned to a replica.
///
/// The writeset is shared (`Arc`) with the certifier's log: responses to
/// lagging replicas carry the whole unseen suffix, so handing out references
/// instead of deep copies keeps certification off the allocator.
#[derive(Debug, Clone, PartialEq)]
pub struct RemoteWriteSet {
    /// The global version the writeset committed at.
    pub commit_version: Version,
    /// The writeset itself.
    pub writeset: std::sync::Arc<WriteSet>,
    /// The writeset is conflict-free against every writeset committed at
    /// versions in `(conflict_free_to, commit_version)`.  A Tashkent-API
    /// proxy may apply it concurrently with other pending writesets only if
    /// `conflict_free_to` does not exceed the replica's applied version
    /// (otherwise an "artificial" conflict would arise, Section 5.2.1).
    pub conflict_free_to: Version,
}

/// The certifier's reply to a certification request.
#[derive(Debug, Clone, PartialEq)]
pub struct CertificationResponse {
    /// Commit or abort.
    pub decision: CertificationDecision,
    /// The version the transaction commits at (only for commits).
    pub commit_version: Option<Version>,
    /// Remote writesets the replica has not seen yet (older than the
    /// transaction's commit version, newer than the replica's version).
    pub remote_writesets: Vec<RemoteWriteSet>,
    /// The certifier's current system version.
    pub system_version: Version,
}

/// A certification decision stripped of its remote-writeset stream: what an
/// epoch leader hands back to each submitting caller, which then assembles
/// its own [`CertificationResponse`] (the remote-stream gather — the
/// per-replica part of the response — stays on the caller's thread).
#[derive(Debug, Clone)]
pub(crate) struct Decided {
    pub(crate) decision: CertificationDecision,
    pub(crate) commit_version: Option<Version>,
    /// The system version at decision time; for commits this equals the
    /// commit version, for aborts the version the log stood at.
    pub(crate) system_version: Version,
}

/// A certify waiting in an epoch: the slot its decision resolves through.
pub(crate) type DecisionSlot = Arc<Slot<Result<Decided>>>;

impl Decided {
    /// The upper bound of the remote stream owed to the requester: one below
    /// its own commit for commits (the certifier never resends a replica its
    /// own writeset), the decision-time system version for aborts.
    pub(crate) fn remote_bound(&self) -> Version {
        self.commit_version
            .map_or(self.system_version, |commit| commit.prev())
    }
}

/// One shard's slice of the certifier state.
struct Shard {
    /// In-memory certified-writeset log restricted to this shard's rows
    /// (full writesets are stored; see the module docs for why that is both
    /// sound and complete).
    log: Mutex<CertifierLog>,
    /// This shard's majority-replicated durable log.
    replicated: ReplicatedLog,
    /// Sealed checkpoint images of this shard's log; the newest one bounds
    /// how far this shard may truncate.
    checkpoints: CheckpointStore,
}

/// The global sequencer: version counter and forced-abort randomness.
struct Sequencer {
    version: Version,
    rng: StdRng,
}

/// The certifier component shared by every replica proxy in a cluster.
pub struct Certifier {
    map: ShardMap,
    shards: Vec<Shard>,
    sequencer: Mutex<Sequencer>,
    forced_abort_rate: f64,
    metrics: Arc<MetricsRegistry>,
    /// One epoch queue per shard when batched certification is enabled and
    /// no forced aborts are configured.  The epoch checks each request
    /// against *tentatively* accepted neighbours before any version is
    /// assigned, which is only final when no later draw can kill one of
    /// them; with forced aborts every request takes the direct path, which
    /// draws once per surviving request under the sequencer.
    batchers: Option<Vec<EpochQueue<CertificationRequest, Result<Decided>>>>,
    /// Cache of [`Certifier::truncation_floor`], refreshed whenever a
    /// truncation moves a shard floor.  Certification reads this instead of
    /// locking every shard log on every request; floors only move under
    /// [`Certifier::truncate_below`], so the cache is exact between
    /// truncations (and during one it lags exactly like the locked read
    /// did — the floor sample always preceded taking the shard guards).
    floor_cache: AtomicU64,
}

impl std::fmt::Debug for Certifier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Certifier")
            .field("shards", &self.shards.len())
            .field("system_version", &self.system_version())
            .finish()
    }
}

impl Certifier {
    /// Creates a certifier group: one shard from a plain [`CertifierConfig`],
    /// `shards` shards from a [`ShardedCertifierConfig`].
    ///
    /// # Panics
    ///
    /// Panics if the shard count fails [`ShardMap::validate`]; build the
    /// configuration through a validated [`tashkent_common::ClusterConfig`]
    /// to surface the problem as an error instead.
    #[must_use]
    pub fn new(config: impl Into<ShardedCertifierConfig>) -> Self {
        let ShardedCertifierConfig { shards, base } = config.into();
        let map = ShardMap::new(shards);
        map.validate().expect("invalid shard count");
        let forced_abort_rate = base.forced_abort_rate.clamp(0.0, 1.0);
        Certifier {
            map,
            shards: (0..shards)
                .map(|_| Shard {
                    log: Mutex::new(CertifierLog::new()),
                    replicated: ReplicatedLog::new(base.nodes, base.disk.clone(), base.durable),
                    checkpoints: CheckpointStore::new(),
                })
                .collect(),
            sequencer: Mutex::new(Sequencer {
                version: Version::ZERO,
                rng: StdRng::seed_from_u64(base.seed),
            }),
            forced_abort_rate,
            metrics: base.metrics,
            batchers: (base.batch && forced_abort_rate <= 0.0)
                .then(|| (0..shards).map(|_| EpochQueue::new()).collect()),
            floor_cache: AtomicU64::new(0),
        }
    }

    /// The shard map replicas should use to route and partition work.
    #[must_use]
    pub fn shard_map(&self) -> ShardMap {
        self.map
    }

    /// Number of certification shards.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The global system version (number of committed update transactions).
    #[must_use]
    pub fn system_version(&self) -> Version {
        self.sequencer.lock().version
    }

    /// `true` if every shard's replicated group has a majority up.
    ///
    /// A single down shard stalls any certification touching it *and* the
    /// replicas' refresh stream (the merge cannot prove a gap-free prefix
    /// without that shard), so availability is all-shards.
    #[must_use]
    pub fn is_available(&self) -> bool {
        self.shards.iter().all(|s| s.replicated.is_available())
    }

    /// The current leader node of one shard's replicated group.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    #[must_use]
    pub fn shard_leader(&self, shard: ShardId) -> CertifierNodeId {
        self.shards[shard.index()].replicated.leader()
    }

    /// Total number of nodes in each shard's replicated group.
    #[must_use]
    pub fn nodes_per_shard(&self) -> usize {
        self.shards[0].replicated.node_count()
    }

    /// The up nodes of one shard's replicated group, in node-id order
    /// (fault targeting: leaders and followers are picked from this list).
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    #[must_use]
    pub fn shard_up_nodes(&self, shard: ShardId) -> Vec<CertifierNodeId> {
        self.shards[shard.index()].replicated.up_nodes()
    }

    /// Crashes one node of one shard's replicated group (fault injection).
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn crash_shard_node(&self, shard: ShardId, node: CertifierNodeId) {
        self.shards[shard.index()].replicated.crash_node(node);
    }

    /// Recovers a crashed node of one shard's group via state transfer.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Unavailable`] if no up node of the shard can donate
    /// its log.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn recover_shard_node(&self, shard: ShardId, node: CertifierNodeId) -> Result<()> {
        self.shards[shard.index()].replicated.recover_node(node)
    }

    /// Crashes certifier node `node` on **every** shard's group — the model
    /// of one physical certifier machine (hosting one member of each shard
    /// group) going down.
    pub fn crash_node(&self, node: CertifierNodeId) {
        for shard in &self.shards {
            shard.replicated.crash_node(node);
        }
    }

    /// Recovers certifier node `node` on every shard's group.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Unavailable`] if any shard has no donor node up.
    pub fn recover_node(&self, node: CertifierNodeId) -> Result<()> {
        for shard in &self.shards {
            shard.replicated.recover_node(node)?;
        }
        Ok(())
    }

    /// Reads the durable log of one node of one shard's group (recovery
    /// tooling and the crash-fault tests).
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
        self.shards[shard.index()].replicated.durable_entries(node)
    }

    /// The shards owning `writeset`, falling back to shard 0 for an empty
    /// writeset so that even degenerate requests have a deterministic home.
    /// With one shard nothing is hashed.
    fn owning_shards(&self, writeset: &WriteSet) -> Vec<ShardId> {
        if self.map.is_single() {
            return vec![ShardId(0)];
        }
        let shards = self.map.shards_of(writeset);
        if shards.is_empty() {
            vec![ShardId(0)]
        } else {
            shards
        }
    }

    /// Counts and reports one abort decided on `shard`.
    fn note_abort(&self, shard: ShardId) {
        self.metrics.incr(CounterId::CertifyAborts);
        self.metrics
            .emit(Event::new(Component::Certifier, EventKind::CertifyAbort).shard(shard.index()));
    }

    /// Counts and reports one commit made durable on its home `shard`.
    fn note_commit(&self, shard: ShardId, commit_version: Version) {
        if !self.metrics.is_enabled() {
            return;
        }
        self.metrics.incr(CounterId::DurableAppends);
        self.metrics.incr(CounterId::CertifyCommits);
        self.metrics.record_shard_commit(shard.index());
        for kind in [EventKind::CertifyCommit, EventKind::DurableAppend] {
            self.metrics.emit(
                Event::new(Component::Certifier, kind)
                    .version(commit_version.0)
                    .shard(shard.index()),
            );
        }
    }

    /// Certifies an update transaction (Section 6.1 pseudo-code).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Unavailable`] if any owning shard has lost its
    /// majority, or if the replica's version lies below the truncation floor
    /// (state transfer required); certification *decisions* (including
    /// aborts) are reported in the response, not as errors.
    pub fn certify(&self, request: &CertificationRequest) -> Result<CertificationResponse> {
        let owning = self.owning_shards(&request.writeset);
        for shard in &owning {
            if !self.shards[shard.index()].replicated.is_available() {
                return Err(Error::Unavailable(format!(
                    "certifier {shard} majority not available"
                )));
            }
        }

        // The remote stream spans every shard: if any shard has trimmed past
        // the replica's version, the gap-free suffix this response promises
        // cannot be assembled.  State transfer instead.
        let floor = Version(self.floor_cache.load(Ordering::Acquire));
        if request.replica_version < floor {
            return Err(Error::Unavailable(format!(
                "replica {} at version {} is below the certifier truncation floor {floor}; \
                 state transfer required",
                request.replica.value(),
                request.replica_version
            )));
        }

        // Inbox depth: requests currently inside certification (across all
        // shards — per-shard depth would need per-shard guards).
        let _inflight = self.metrics.gauge_guard(GaugeId::CertifierInflight);
        self.metrics.incr(CounterId::CertifyRequests);

        // Single-shard writesets ride the shard's epoch queue when batching
        // is enabled.  Multi-shard writesets keep the direct path below
        // (they must hold several shard locks at once, which an epoch leader
        // — holding exactly one — cannot interleave with).
        if let (Some(batchers), &[shard]) = (&self.batchers, owning.as_slice()) {
            let decided = batchers[shard.index()]
                .submit(request.clone(), |epoch| self.process_shard_epoch(shard, epoch))?;
            // The remote-stream gather runs on the submitting thread, bounded
            // by the decision-time version — identical to the direct path's
            // bound.
            return Ok(CertificationResponse {
                remote_writesets: self
                    .remote_writesets_between(request.replica_version, decided.remote_bound()),
                decision: decided.decision,
                commit_version: decided.commit_version,
                system_version: decided.system_version,
            });
        }

        // Phase 1 (acquire): lock every owning shard in ascending shard-id
        // order — `ShardMap::shards_of` returns them sorted, the global
        // acquisition order that keeps concurrent certifications
        // deadlock-free.
        let mut guards: Vec<MutexGuard<'_, CertifierLog>> = owning
            .iter()
            .map(|s| self.shards[s.index()].log.lock())
            .collect();

        // A snapshot below an owning shard's truncation floor can no longer
        // be certified there — part of the suffix it must be checked against
        // is gone.  Checked under the shard guards (truncation takes the
        // same locks), and answered with a conservative, retryable abort.
        let floor = guards.iter().map(|log| log.floor()).max().unwrap_or_default();
        let floored = request.start_version < floor;

        // Intersection test against every owning shard's log suffix.  The
        // oldest conflicting version across shards matches a single log's
        // forward scan.
        let conflict = guards
            .iter()
            .filter_map(|log| log.conflict_after(&request.writeset, request.start_version))
            .min();

        // Prepare the (probable) commit's log entry — writeset clone and
        // footprint hashing — *before* the global sequencer lock, so the
        // cluster-wide serialization point stays as short as version
        // assignment plus per-shard Vec pushes.  Wasted only on forced
        // aborts, which are an experiment knob.
        let commit_material = (conflict.is_none() && !floored).then(|| {
            let writeset = Arc::new(request.writeset.clone());
            let footprint = Arc::new(writeset.footprint());
            (writeset, footprint)
        });

        // Decide under the sequencer lock (never acquire a shard lock while
        // holding it — the sequencer is the innermost lock).
        let mut sequencer = self.sequencer.lock();
        let decision = if floored {
            Some(CertificationDecision::below_floor(request.start_version, floor))
        } else if let Some(conflict_version) = conflict {
            Some(CertificationDecision::conflict(conflict_version))
        } else if self.forced_abort_rate > 0.0
            && sequencer.rng.gen::<f64>() < self.forced_abort_rate
        {
            Some(CertificationDecision::Abort {
                reason: "forced abort (experiment)".into(),
                forced: true,
            })
        } else {
            None
        };
        if let Some(decision) = decision {
            let system_version = sequencer.version;
            drop(sequencer);
            drop(guards);
            self.note_abort(owning[0]);
            return Ok(CertificationResponse {
                decision,
                commit_version: None,
                remote_writesets: self
                    .remote_writesets_between(request.replica_version, system_version),
                system_version,
            });
        }

        // Commit: assign the next global version and append the full
        // writeset to every owning shard's log.  The version advance and the
        // appends happen inside one sequencer critical section while the
        // shard guards are held — the invariant the stream merge relies on.
        let commit_version = sequencer.version.next();
        sequencer.version = commit_version;
        let (writeset, footprint) = commit_material.expect("commit implies no conflict");
        for log in &mut guards {
            log.append_at_with_footprint(
                commit_version,
                Arc::clone(&writeset),
                Arc::clone(&footprint),
                request.start_version,
            );
        }
        drop(sequencer);
        drop(guards);

        // Make the decision durable before announcing it — on the writeset's
        // *home shard* (its lowest owning shard id) only.  One majority fsync
        // per commit; what sharding adds is that different home shards
        // group-commit on independent disks.  Every commit is durable in
        // exactly one shard group's majority, so the union of the shard
        // groups' durable logs is the full certified history.
        let home = owning[0];
        let durable_started = self.metrics.is_enabled().then(Instant::now);
        self.shards[home.index()]
            .replicated
            .append(commit_version, &request.writeset)?;
        if let Some(started) = durable_started {
            self.metrics.record_stage(Stage::Durable, started.elapsed());
        }
        self.note_commit(home, commit_version);
        if owning.len() > 1 {
            self.metrics.incr(CounterId::MultiShardCommits);
        }

        Ok(CertificationResponse {
            decision: CertificationDecision::Commit,
            commit_version: Some(commit_version),
            // Bounded at the version *below* the transaction's own commit.
            // The bound must NOT be re-sampled here: a commit that lands
            // after ours would enter the stream while our own version is
            // excluded, and a proxy applying that stream would advance past
            // its own commit without ever applying it (the certifier never
            // resends versions at or below a replica's reported version).
            remote_writesets: self
                .remote_writesets_between(request.replica_version, commit_version.prev()),
            system_version: commit_version,
        })
    }

    /// Certifies one drained epoch of single-shard requests owned by
    /// `shard`, in arrival order — the per-shard epoch leader's body:
    ///
    /// * **Phase 1** (shard lock only): per request, in arrival order,
    ///   decide a verdict — conservative floor abort, conflict against the
    ///   shard log (pre-screened), conflict against an *earlier accepted
    ///   epoch entry*, or clean.  Without forced aborts a clean verdict is
    ///   final, so the intra-epoch check against tentatively accepted
    ///   entries is sound — and complete, because an accepted entry's commit
    ///   version always exceeds any well-formed snapshot (snapshots never
    ///   run ahead of the system version the sequencer has published).
    /// * **Phase 2** (sequencer, taken **once**): walk the verdicts in
    ///   arrival order, assigning dense versions to the clean entries and
    ///   appending them to the shard log inside the single critical section
    ///   — preserving the stream-merge invariant — while aborts capture the
    ///   system version at their position.
    ///
    /// The decisions are exactly those of the direct path applied to the
    /// epoch one request at a time: phase 1 sees the same conflicts (log
    /// conflicts are older than every epoch commit, so "first conflict"
    /// agrees), and phase 2 assigns the same versions.  The epoch's wins are
    /// one shard-lock and one sequencer acquisition, a footprint pre-screen
    /// that lets provably conflict-free writesets skip the suffix scan, and
    /// one grouped majority fsync on the shard's durable log.
    fn process_shard_epoch(
        &self,
        shard: ShardId,
        epoch: Vec<(CertificationRequest, DecisionSlot)>,
    ) {
        enum Verdict {
            /// Abort whose reason is fully known in phase 1 (below-floor or
            /// shard-log conflict).
            Abort(CertificationDecision),
            /// Conflicts with the accepted epoch entry at this index; the
            /// reason needs that entry's commit version, assigned in
            /// phase 2.
            EpochConflict(usize),
            /// Accepted: commits as `accepted[index]`.
            Clean(usize),
        }

        let epoch_len = epoch.len() as u64;
        type Material = (Arc<WriteSet>, Arc<HashSet<(TableId, RowKey)>>, Version);
        let mut accepted: Vec<Material> = Vec::with_capacity(epoch.len());
        let mut staged: Vec<(Verdict, DecisionSlot)> = Vec::with_capacity(epoch.len());

        let mut log = self.shards[shard.index()].log.lock();
        for (request, slot) in epoch {
            let verdict = if request.start_version < log.floor() {
                Verdict::Abort(CertificationDecision::below_floor(
                    request.start_version,
                    log.floor(),
                ))
            } else {
                let log_conflict = if log.prescreen_clear(&request.writeset, request.start_version)
                {
                    self.metrics.incr(CounterId::PrescreenHits);
                    None
                } else {
                    self.metrics.incr(CounterId::PrescreenMisses);
                    log.conflict_after(&request.writeset, request.start_version)
                };
                if let Some(conflict_version) = log_conflict {
                    Verdict::Abort(CertificationDecision::conflict(conflict_version))
                } else if let Some(index) = accepted.iter().position(|(_, footprint, _)| {
                    request.writeset.conflicts_with_footprint(footprint)
                }) {
                    Verdict::EpochConflict(index)
                } else {
                    let writeset = Arc::new(request.writeset);
                    let footprint = Arc::new(writeset.footprint());
                    accepted.push((writeset, footprint, request.start_version));
                    Verdict::Clean(accepted.len() - 1)
                }
            };
            staged.push((verdict, slot));
        }

        // Phase 2: one sequencer critical section for the whole epoch.
        // `commit_versions[j]` is always assigned before any
        // `EpochConflict(j)` reads it, because `accepted[j]` precedes the
        // conflicting request in arrival order.
        let mut commit_versions: Vec<Version> = Vec::with_capacity(accepted.len());
        let mut commits: Vec<(Version, Arc<WriteSet>, DecisionSlot)> =
            Vec::with_capacity(accepted.len());
        let mut aborts: Vec<(CertificationDecision, Version, DecisionSlot)> = Vec::new();
        let mut sequencer = self.sequencer.lock();
        for (verdict, slot) in staged {
            match verdict {
                Verdict::Clean(index) => {
                    let commit_version = sequencer.version.next();
                    sequencer.version = commit_version;
                    let (writeset, footprint, start_version) = &accepted[index];
                    log.append_at_with_footprint(
                        commit_version,
                        Arc::clone(writeset),
                        Arc::clone(footprint),
                        *start_version,
                    );
                    commit_versions.push(commit_version);
                    commits.push((commit_version, Arc::clone(writeset), slot));
                }
                Verdict::Abort(decision) => {
                    aborts.push((decision, sequencer.version, slot));
                }
                Verdict::EpochConflict(index) => {
                    let decision = CertificationDecision::conflict(commit_versions[index]);
                    aborts.push((decision, sequencer.version, slot));
                }
            }
        }
        drop(sequencer);
        drop(log);

        self.metrics.add(CounterId::CertifyBatchSize, epoch_len);
        self.metrics.emit(
            Event::new(Component::Certifier, EventKind::CertifyBatch)
                .version(epoch_len)
                .shard(shard.index()),
        );

        for (decision, system_version, slot) in aborts {
            self.note_abort(shard);
            slot.fill(Ok(Decided {
                decision,
                commit_version: None,
                system_version,
            }));
        }

        if commits.is_empty() {
            return;
        }
        // Commit slots are filled only after the grouped durable append: the
        // decision is never announced before it is durable.
        let group: Vec<(Version, Arc<WriteSet>)> = commits
            .iter()
            .map(|(version, writeset, _)| (*version, Arc::clone(writeset)))
            .collect();
        let durable_started = self.metrics.is_enabled().then(Instant::now);
        let appended = self.shards[shard.index()].replicated.append_group(&group);
        if let (Ok(()), Some(started)) = (&appended, durable_started) {
            self.metrics.record_stage(Stage::Durable, started.elapsed());
        }
        for (commit_version, _, slot) in commits {
            match &appended {
                Ok(()) => {
                    self.note_commit(shard, commit_version);
                    slot.fill(Ok(Decided {
                        decision: CertificationDecision::Commit,
                        commit_version: Some(commit_version),
                        // At the instant this request committed in the
                        // serial-equivalent order the system stood exactly
                        // at its commit version.
                        system_version: commit_version,
                    }));
                }
                Err(error) => slot.fill(Err(error.clone())),
            }
        }
    }

    /// Seals a durable checkpoint of every shard's certified log.  Each
    /// shard's image holds its truncation floor plus its entries above it,
    /// and is stamped with the global system version sampled *before* the
    /// per-shard seals — entries that land concurrently are included in some
    /// image but never claimed, so the stamp is always a safe lower bound.
    /// Returns the stamped version.
    pub fn seal_checkpoint(&self) -> Version {
        let version = self.sequencer.lock().version;
        for shard in &self.shards {
            let payload = {
                let log = shard.log.lock();
                let floor = log.floor();
                encode_checkpoint_payload(floor, &log.entries_after(floor))
            };
            shard.checkpoints.seal(version, &payload);
        }
        version
    }

    /// Drops log entries at or below `watermark` from every shard's
    /// in-memory and durable logs.  Per shard, the watermark is clamped to
    /// that shard's newest sealed checkpoint version, so no record is ever
    /// dropped before an image covers it.  Returns the total number of
    /// in-memory entries discarded across shards (a multi-shard entry
    /// counts once per owning shard, matching what memory is freed).
    ///
    /// # Errors
    ///
    /// Propagates durable-log rewrite failures.
    pub fn truncate_below(&self, watermark: Version) -> Result<usize> {
        let mut dropped = 0usize;
        for shard in &self.shards {
            let bound = watermark.min(shard.checkpoints.latest_version());
            if bound.is_zero() {
                continue;
            }
            dropped += shard.log.lock().truncate_up_to(bound);
            // New appends are strictly above `bound` (the floor carries the
            // system version), so trimming the durable log outside the
            // in-memory lock cannot race a record back below the floor.
            shard.replicated.truncate_below(bound)?;
        }
        // Refresh the certify-path floor cache (monotone: floors only grow,
        // and only under this method).
        self.floor_cache
            .fetch_max(self.truncation_floor().value(), Ordering::AcqRel);
        Ok(dropped)
    }

    /// The truncation floor: the highest per-shard floor.  A certification
    /// or refresh reaching below it cannot be served from the logs any more.
    #[must_use]
    pub fn truncation_floor(&self) -> Version {
        self.shards
            .iter()
            .map(|shard| shard.log.lock().floor())
            .max()
            .unwrap_or(Version::ZERO)
    }

    /// The version every shard's newest sealed checkpoint covers up to (the
    /// minimum across shards; [`Version::ZERO`] before the first seal).
    #[must_use]
    pub fn checkpoint_version(&self) -> Version {
        self.shards
            .iter()
            .map(|shard| shard.checkpoints.latest_version())
            .min()
            .unwrap_or(Version::ZERO)
    }

    /// The newest sealed checkpoint image's payload, for state transfer to
    /// a joining certifier — decodable with [`decode_checkpoint_payload`].
    /// Only a one-shard certifier has a single image; with more shards this
    /// is `None`.
    #[must_use]
    pub fn latest_checkpoint_payload(&self) -> Option<Vec<u8>> {
        match self.shards.as_slice() {
            [shard] => shard.checkpoints.latest().map(|sealed| sealed.payload),
            _ => None,
        }
    }

    /// Total number of entries held across every shard's in-memory log
    /// (bounded-memory assertions; multi-shard entries count once per
    /// owning shard).
    #[must_use]
    pub fn log_len(&self) -> usize {
        self.shards.iter().map(|shard| shard.log.lock().len()).sum()
    }

    /// Per-shard version streams after `since` (exclusive): the fan-out half
    /// of update propagation.  Pair with [`merge_shard_streams`] bounded by
    /// a [`Certifier::system_version`] sampled **before** this call.
    #[must_use]
    pub fn shard_streams_after(&self, since: Version) -> Vec<ShardStream> {
        self.shards
            .iter()
            .enumerate()
            .map(|(index, shard)| ShardStream {
                shard: ShardId(index as u32),
                entries: stream_between(&mut shard.log.lock(), since, Version(u64::MAX)),
            })
            .collect()
    }

    /// The remote writesets committed after `since`, as one gap-free stream
    /// in ascending global version order — used by the proxy's
    /// bounded-staleness refresh (Section 6.2), by replica recovery and by
    /// the equivalence tests.
    #[must_use]
    pub fn writesets_after(&self, since: Version) -> Vec<RemoteWriteSet> {
        // Sample the bound BEFORE the streams: every commit at or below it
        // has finished its shard appends (they happened inside the sequencer
        // critical section that advanced the version).
        let up_to = self.sequencer.lock().version;
        self.remote_writesets_between(since, up_to)
    }

    /// The remote writesets over `(since, up_to]`.  `up_to` must be a
    /// version whose shard appends are known complete relative to this call
    /// — a system version the caller sampled under the sequencer lock (or
    /// one version below the caller's own just-appended commit).
    fn remote_writesets_between(&self, since: Version, up_to: Version) -> Vec<RemoteWriteSet> {
        if since >= up_to {
            // The requester is current: skip the fan-out on the hot path.
            return Vec::new();
        }
        if let [shard] = self.shards.as_slice() {
            // One stream is already the global one: no merge.
            return stream_between(&mut shard.log.lock(), since, up_to);
        }
        merge_shard_streams(&self.shard_streams_after(since), up_to)
    }

    /// The replicated durable logs' statistics, summed across shards (group
    /// commit merged).  Decision counts live in the metrics registry.
    #[must_use]
    pub fn stats(&self) -> ReplicatedLogStats {
        let mut log = ReplicatedLogStats::default();
        for shard in &self.shards {
            let shard = shard.replicated.stats();
            log.leader_fsyncs += shard.leader_fsyncs;
            log.leader_log_bytes += shard.leader_log_bytes;
            log.leader_group_commit.merge(&shard.leader_group_commit);
            log.nodes_up += shard.nodes_up;
            log.nodes_total += shard.nodes_total;
        }
        log
    }
}

/// One shard log's entries over `(since, up_to]`, each extended-certified
/// back to `since`.
fn stream_between(log: &mut CertifierLog, since: Version, up_to: Version) -> Vec<RemoteWriteSet> {
    log.entries_between(since, up_to)
        .into_iter()
        .map(|(commit_version, writeset)| RemoteWriteSet {
            commit_version,
            conflict_free_to: log.conflict_free_back_to(commit_version, since),
            writeset,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use tashkent_common::{TableId, Value, WriteItem};

    use super::*;
    use crate::paxos::CertifierNodeId;

    /// A one-shard certifier reporting into a registry of its own.
    fn metered() -> (Certifier, Arc<MetricsRegistry>) {
        let metrics = Arc::new(MetricsRegistry::enabled());
        let certifier = Certifier::new(CertifierConfig {
            metrics: Arc::clone(&metrics),
            ..CertifierConfig::default()
        });
        (certifier, metrics)
    }

    fn ws(keys: &[i64]) -> WriteSet {
        WriteSet::from_items(
            keys.iter()
                .map(|&k| WriteItem::update(TableId(0), k, vec![("x".into(), Value::Int(k))]))
                .collect(),
        )
    }

    fn request(start: u64, replica_version: u64, keys: &[i64]) -> CertificationRequest {
        CertificationRequest {
            replica: ReplicaId(0),
            start_version: Version(start),
            writeset: ws(keys),
            replica_version: Version(replica_version),
        }
    }

    #[test]
    fn non_conflicting_transactions_commit_in_order() {
        let (certifier, metrics) = metered();
        let r1 = certifier.certify(&request(0, 0, &[1])).unwrap();
        let r2 = certifier.certify(&request(0, 0, &[2])).unwrap();
        assert!(r1.decision.is_commit());
        assert!(r2.decision.is_commit());
        assert_eq!(r1.commit_version, Some(Version(1)));
        assert_eq!(r2.commit_version, Some(Version(2)));
        assert_eq!(certifier.system_version(), Version(2));
        // The second response carries the first transaction as a remote
        // writeset (the replica claimed version 0).
        assert_eq!(r2.remote_writesets.len(), 1);
        assert_eq!(r2.remote_writesets[0].commit_version, Version(1));
        assert_eq!(metrics.counter(CounterId::CertifyCommits), 2);
        assert_eq!(metrics.counter(CounterId::CertifyRequests), 2);
        assert_eq!(metrics.counter(CounterId::DurableAppends), 2);
    }

    #[test]
    fn conflicting_concurrent_transactions_abort() {
        let (certifier, metrics) = metered();
        assert!(certifier
            .certify(&request(0, 0, &[5]))
            .unwrap()
            .decision
            .is_commit());
        // A transaction that also started at version 0 and writes key 5
        // conflicts with the first.
        let response = certifier.certify(&request(0, 0, &[5, 6])).unwrap();
        assert!(!response.decision.is_commit());
        assert!(response.commit_version.is_none());
        // A transaction that started *after* the first committed does not.
        let response = certifier.certify(&request(1, 1, &[5])).unwrap();
        assert!(response.decision.is_commit());
        assert_eq!(metrics.counter(CounterId::CertifyAborts), 1);
        assert_eq!(metrics.counter(CounterId::CertifyCommits), 2);
    }

    #[test]
    fn remote_writesets_are_limited_to_unseen_versions() {
        let certifier = Certifier::new(CertifierConfig::default());
        for k in 1..=5 {
            certifier.certify(&request(0, 0, &[k * 10])).unwrap();
        }
        // A replica that has already applied version 3 only gets 4 and 5.
        let response = certifier.certify(&request(5, 3, &[99])).unwrap();
        let versions: Vec<u64> = response
            .remote_writesets
            .iter()
            .map(|r| r.commit_version.value())
            .collect();
        assert_eq!(versions, vec![4, 5]);
    }

    #[test]
    fn extended_certification_reports_artificial_conflicts() {
        let certifier = Certifier::new(CertifierConfig::default());
        // v1 writes key 5; v2 writes key 7; v3 writes key 5 again (its
        // transaction started at version 1 so it does not conflict globally,
        // but it conflicts with v1 when both are applied concurrently).
        certifier.certify(&request(0, 0, &[5])).unwrap();
        certifier.certify(&request(1, 1, &[7])).unwrap();
        certifier.certify(&request(1, 1, &[5])).unwrap();
        // A replica still at version 0 receives all three: v3's
        // conflict_free_to must point at v1.
        let remotes = certifier.writesets_after(Version::ZERO);
        assert_eq!(remotes.len(), 3);
        let v3 = remotes.iter().find(|r| r.commit_version == Version(3)).unwrap();
        assert_eq!(v3.conflict_free_to, Version(1));
        let v2 = remotes.iter().find(|r| r.commit_version == Version(2)).unwrap();
        assert_eq!(v2.conflict_free_to, Version::ZERO);
    }

    #[test]
    fn forced_aborts_follow_the_configured_rate() {
        let certifier = Certifier::new(CertifierConfig {
            forced_abort_rate: 0.4,
            ..CertifierConfig::default()
        });
        let mut aborted: u64 = 0;
        for i in 0..500 {
            let response = certifier.certify(&request(
                certifier.system_version().value(),
                certifier.system_version().value(),
                &[i],
            ))
            .unwrap();
            if let CertificationDecision::Abort { forced, .. } = response.decision {
                assert!(forced, "disjoint keys abort only by force");
                aborted += 1;
            }
        }
        let rate = aborted as f64 / 500.0;
        assert!((rate - 0.4).abs() < 0.08, "observed forced abort rate {rate}");
    }

    #[test]
    fn certification_requires_a_majority_of_nodes() {
        let certifier = Certifier::new(CertifierConfig::default());
        certifier.certify(&request(0, 0, &[1])).unwrap();
        certifier.crash_node(CertifierNodeId(0));
        // Leader fails over, still available.
        assert!(certifier.is_available());
        assert_ne!(certifier.shard_leader(ShardId(0)), CertifierNodeId(0));
        certifier.certify(&request(1, 1, &[2])).unwrap();
        certifier.crash_node(CertifierNodeId(1));
        assert!(!certifier.is_available());
        assert!(matches!(
            certifier.certify(&request(2, 2, &[3])),
            Err(Error::Unavailable(_))
        ));
        // Recovering one node restores progress.
        certifier.recover_node(CertifierNodeId(0)).unwrap();
        assert!(certifier.is_available());
        certifier.certify(&request(2, 2, &[3])).unwrap();
    }

    #[test]
    fn checkpoint_payload_round_trips() {
        let entries: Vec<(Version, Arc<WriteSet>)> = (3..=5)
            .map(|v| (Version(v), Arc::new(ws(&[v as i64]))))
            .collect();
        let payload = encode_checkpoint_payload(Version(2), &entries);
        let (floor, decoded) = decode_checkpoint_payload(&payload).unwrap();
        assert_eq!(floor, Version(2));
        assert_eq!(decoded.len(), 3);
        assert_eq!(decoded[0].0, Version(3));
        assert_eq!(decoded[2].0, Version(5));
        // Truncated payloads are rejected loudly.
        assert!(matches!(
            decode_checkpoint_payload(&payload[..7]),
            Err(Error::Corruption(_))
        ));
        assert!(matches!(
            decode_checkpoint_payload(&payload[..payload.len() - 1]),
            Err(Error::Corruption(_))
        ));
        // A complete record frame with an empty payload after the floor has
        // no record kind: corruption, not a panic.
        let mut empty_frame = payload[..8].to_vec();
        empty_frame.extend_from_slice(&[0, 0, 0, 0, 0x81, 0x1C, 0x9D, 0xC5]);
        assert!(matches!(
            decode_checkpoint_payload(&empty_frame),
            Err(Error::Corruption(_))
        ));
    }

    #[test]
    fn truncation_is_clamped_to_the_sealed_checkpoint() {
        let certifier = Certifier::new(CertifierConfig::default());
        for k in 1..=6 {
            certifier.certify(&request(k - 1, k - 1, &[k as i64])).unwrap();
        }
        // No checkpoint sealed yet: nothing may be dropped.
        assert_eq!(certifier.truncate_below(Version(4)).unwrap(), 0);
        assert_eq!(certifier.truncation_floor(), Version::ZERO);
        // Seal at version 6, then truncate with a watermark of 4.
        assert_eq!(certifier.seal_checkpoint(), Version(6));
        assert_eq!(certifier.checkpoint_version(), Version(6));
        let payload = certifier.latest_checkpoint_payload().unwrap();
        assert_eq!(decode_checkpoint_payload(&payload).unwrap().1.len(), 6);
        assert_eq!(certifier.truncate_below(Version(4)).unwrap(), 4);
        assert_eq!(certifier.truncation_floor(), Version(4));
        assert_eq!(certifier.log_len(), 2);
        // The durable log was trimmed too.
        let leader = certifier.shard_leader(ShardId(0));
        let durable = certifier.shard_durable_entries(ShardId(0), leader).unwrap();
        let versions: Vec<u64> = durable.iter().map(|(v, _)| v.value()).collect();
        assert_eq!(versions, vec![5, 6]);
    }

    #[test]
    fn certification_above_the_floor_still_detects_conflicts() {
        let certifier = Certifier::new(CertifierConfig::default());
        for k in 1..=6 {
            certifier.certify(&request(k - 1, k - 1, &[k as i64])).unwrap();
        }
        certifier.seal_checkpoint();
        certifier.truncate_below(Version(4)).unwrap();
        // Key 5 committed at v5 (above the floor): a stale snapshot at v4
        // still conflicts with it.
        let response = certifier.certify(&request(4, 4, &[5])).unwrap();
        assert!(!response.decision.is_commit());
        // A fresh snapshot commits and versions keep advancing densely.
        let response = certifier.certify(&request(6, 6, &[7])).unwrap();
        assert_eq!(response.commit_version, Some(Version(7)));
    }

    #[test]
    fn requests_below_the_floor_are_refused_conservatively() {
        let (certifier, metrics) = metered();
        for k in 1..=6 {
            certifier.certify(&request(k - 1, k - 1, &[k as i64])).unwrap();
        }
        certifier.seal_checkpoint();
        certifier.truncate_below(Version(4)).unwrap();
        // A snapshot below the floor aborts conservatively (retryable), and
        // the reason names the floor.
        let response = certifier.certify(&request(3, 4, &[99])).unwrap();
        assert_eq!(
            response.decision,
            CertificationDecision::Abort {
                reason: "snapshot v3 below truncation floor v4".into(),
                forced: false,
            }
        );
        // A replica whose applied version is below the floor cannot be
        // served a gap-free suffix: loud error, state transfer required.
        assert!(matches!(
            certifier.certify(&request(4, 3, &[99])),
            Err(Error::Unavailable(_))
        ));
        // The conservative abort is a decision; the refusal is not.
        assert_eq!(metrics.counter(CounterId::CertifyAborts), 1);
        assert_eq!(metrics.counter(CounterId::CertifyRequests), 7);
    }

    #[test]
    fn group_commit_statistics_are_exposed() {
        let certifier = Certifier::new(CertifierConfig::default());
        for k in 0..20 {
            certifier
                .certify(&request(k, k, &[k as i64 + 100]))
                .unwrap();
        }
        let stats = certifier.stats();
        assert_eq!(stats.leader_group_commit.records, 20);
        assert!(stats.leader_fsyncs > 0);
        assert!(stats.leader_log_bytes > 0);
        assert!(stats.leader_group_commit.mean_group_size() >= 1.0);
    }
}
