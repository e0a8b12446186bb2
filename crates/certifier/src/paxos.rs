//! Certifier replication: a Paxos-style replicated durable log.
//!
//! Section 7.3 of the paper replicates the certifier state across a small set
//! of nodes for availability: a leader receives all certification requests,
//! selects the transactions that may commit, sends the new log records to all
//! certifier nodes (including itself), and declares the transactions
//! committed once a **majority** of nodes have written the records to disk.
//! When the leader crashes a new leader is elected; a recovering node obtains
//! the missing log suffix from an up node via a state transfer.
//!
//! [`ReplicatedLog`] implements exactly that behaviour in-process: each node
//! owns its own simulated disk, and an append **stages once, flushes every
//! node at once, and returns at the majority-th completion** — the epoch's
//! frames are encoded a single time, handed to every up node's log, a flush
//! is begun on all of them before any is waited for, and the call returns
//! when a majority of those flushes has completed.  An epoch therefore costs
//! one disk latency, not one per node.  A straggler's flush finishes on its
//! own disk's time; the next flush on that disk covers whatever was staged
//! meanwhile, and a straggler that crashes first gets the records back by
//! state transfer.  Progress requires a majority of nodes up.  The
//! group-commit batching of the underlying [`WalWriter`] is what gives the
//! certifier its "single writer thread … batches all outstanding writesets to
//! disk via a single fsync" efficiency.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::{Mutex, RwLock};
use tashkent_common::{Error, GroupCommitStats, Result, Version, WriteSet};
use tashkent_storage::disk::{wait_until, DiskConfig, LogDevice, SimulatedDisk};
use tashkent_storage::wal::{WalRecord, WalWriter};

/// Identifier of one certifier node within the group.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CertifierNodeId(pub u32);

impl std::fmt::Display for CertifierNodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "certifier-{}", self.0)
    }
}

struct Node {
    id: CertifierNodeId,
    device: Arc<SimulatedDisk>,
    wal: WalWriter,
    up: AtomicBool,
}

impl Node {
    fn new(id: CertifierNodeId, disk: DiskConfig) -> Self {
        let device = Arc::new(SimulatedDisk::new(disk));
        let wal = WalWriter::new(device.clone() as Arc<dyn LogDevice>);
        Node {
            id,
            device,
            wal,
            up: AtomicBool::new(true),
        }
    }

    fn is_up(&self) -> bool {
        self.up.load(Ordering::SeqCst)
    }
}

/// Statistics of the replicated certifier log.
#[derive(Debug, Clone, Default)]
pub struct ReplicatedLogStats {
    /// Log entries appended (committed writesets).
    pub entries: u64,
    /// fsync operations performed by the current leader's disk.
    pub leader_fsyncs: u64,
    /// Group-commit behaviour of the current leader's disk: the paper's
    /// "writesets per fsync".
    pub leader_group_commit: GroupCommitStats,
    /// Bytes durable on the current leader's disk.
    pub leader_log_bytes: u64,
    /// Number of nodes currently up.
    pub nodes_up: usize,
    /// Total nodes in the group.
    pub nodes_total: usize,
}

/// A majority-replicated durable log of certified writesets.
pub struct ReplicatedLog {
    nodes: Vec<Arc<Node>>,
    leader: Mutex<usize>,
    entries: Mutex<u64>,
    durable: bool,
    disk_config: DiskConfig,
    /// Truncation floor: records at or below it have been trimmed from the
    /// nodes' durable logs (they are covered by a sealed checkpoint).
    /// Recovery uses it to drop stale below-floor records from rejoining
    /// nodes so that all durable logs converge to the same trimmed suffix.
    floor: Mutex<Version>,
    /// Serialises node recovery against in-flight appends: appends hold it
    /// shared (they still run — and group-commit — concurrently), recovery
    /// holds it exclusively.  Without it an append that observed the
    /// recovering node as down could land on the donor *after* the state
    /// transfer read the donor's log, leaving the recovered node permanently
    /// missing that record.
    membership: RwLock<()>,
}

impl std::fmt::Debug for ReplicatedLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplicatedLog")
            .field("nodes", &self.nodes.len())
            .field("leader", &*self.leader.lock())
            .field("entries", &*self.entries.lock())
            .finish()
    }
}

impl ReplicatedLog {
    /// Creates a group of `nodes` certifier nodes, each with its own disk.
    ///
    /// `durable` selects whether appends wait for disks at all; the
    /// `tashAPInoCERT` analysis configuration sets it to `false`.
    #[must_use]
    pub fn new(nodes: usize, disk_config: DiskConfig, durable: bool) -> Self {
        let nodes = (0..nodes.max(1))
            .map(|i| Arc::new(Node::new(CertifierNodeId(i as u32), disk_config.clone())))
            .collect();
        ReplicatedLog {
            nodes,
            leader: Mutex::new(0),
            entries: Mutex::new(0),
            durable,
            disk_config,
            floor: Mutex::new(Version::ZERO),
            membership: RwLock::new(()),
        }
    }

    /// The truncation floor: durable records at or below it are gone from
    /// every up node's log.
    #[must_use]
    pub fn floor(&self) -> Version {
        *self.floor.lock()
    }

    /// Trims every up node's durable log, dropping records at or below
    /// `watermark`.  Returns the largest number of records dropped on any
    /// one node (the logical trim size — nodes that recovered recently may
    /// hold fewer droppable records than the leader).
    ///
    /// The caller must only pass watermarks covered by a sealed checkpoint;
    /// nodes that are down keep their stale records until
    /// [`ReplicatedLog::recover_node`] rewrites them against the floor.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Corruption`] if a node's durable log cannot be
    /// decoded.
    pub fn truncate_below(&self, watermark: Version) -> Result<usize> {
        // Exclusive membership: a concurrent recovery must not read a
        // donor's log mid-rewrite.
        let _membership = self.membership.write();
        let mut dropped_max = 0usize;
        for node in &self.nodes {
            if !node.is_up() {
                continue;
            }
            let dropped = node.wal.truncate_below(watermark)?;
            dropped_max = dropped_max.max(dropped);
        }
        let mut floor = self.floor.lock();
        *floor = (*floor).max(watermark);
        Ok(dropped_max)
    }

    /// Majority size of the group.
    #[must_use]
    pub fn majority(&self) -> usize {
        self.nodes.len() / 2 + 1
    }

    /// The current leader.
    #[must_use]
    pub fn leader(&self) -> CertifierNodeId {
        self.nodes[*self.leader.lock()].id
    }

    /// Number of nodes currently up.
    #[must_use]
    pub fn up_count(&self) -> usize {
        self.nodes.iter().filter(|n| n.is_up()).count()
    }

    /// Total number of nodes in the group (up or down).
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The nodes currently up, in node-id order (fault targeting: the
    /// fault-schedule harness picks leaders and followers from this list).
    #[must_use]
    pub fn up_nodes(&self) -> Vec<CertifierNodeId> {
        self.nodes
            .iter()
            .filter(|n| n.is_up())
            .map(|n| n.id)
            .collect()
    }

    /// `true` if the given node is currently up.
    #[must_use]
    pub fn is_node_up(&self, id: CertifierNodeId) -> bool {
        self.nodes.iter().any(|n| n.id == id && n.is_up())
    }

    /// `true` if a majority of certifier nodes is up, i.e. update
    /// transactions can make progress (Section 7).
    #[must_use]
    pub fn is_available(&self) -> bool {
        self.up_count() >= self.majority()
    }

    /// Appends one certified writeset to the replicated log, returning once a
    /// majority of nodes has it durable: [`ReplicatedLog::append_group`] of
    /// one entry.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Unavailable`] if fewer than a majority of nodes are
    /// up or acknowledge the append.
    pub fn append(&self, version: Version, writeset: &WriteSet) -> Result<()> {
        self.replicate(std::iter::once((version, writeset)))
    }

    /// Appends one certified *epoch* of writesets, returning once a majority
    /// of nodes has all of them durable.
    ///
    /// The epoch's records are encoded once, staged on every up node's log
    /// with one device append each, and flushed with a **single** fsync per
    /// node, all begun before any is waited for — so the whole epoch pays
    /// one disk latency: not one per writeset, and not one per node.
    /// Concurrent appends share fsyncs on each node's disk through the
    /// [`WalWriter`]'s group commit.  An empty epoch is a no-op.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Unavailable`] if fewer than a majority of nodes are
    /// up or acknowledge the append.
    pub fn append_group(&self, entries: &[(Version, Arc<WriteSet>)]) -> Result<()> {
        self.replicate(
            entries
                .iter()
                .map(|(version, writeset)| (*version, &**writeset)),
        )
    }

    fn replicate<'a>(
        &self,
        entries: impl ExactSizeIterator<Item = (Version, &'a WriteSet)>,
    ) -> Result<()> {
        let records = entries.len() as u64;
        if records == 0 {
            return Ok(());
        }
        let _membership = self.membership.read();
        let majority = self.majority();
        if self.up_count() < majority {
            return Err(Error::Unavailable(format!(
                "only {} of {} certifier nodes up, majority {} required",
                self.up_count(),
                self.nodes.len(),
                majority
            )));
        }
        *self.entries.lock() += records;
        let mut frames = Vec::new();
        for (version, writeset) in entries {
            WalRecord::encode_commit_into(&mut frames, version, writeset);
        }
        // Stage on every up node and begin its flush; `None` = no wait owed.
        let mut flushes: Vec<(Option<Instant>, &Node)> = Vec::with_capacity(self.nodes.len());
        for node in self.nodes.iter().filter(|node| node.is_up()) {
            let lsn = node.wal.append_frames(&frames, records);
            let done = self.durable.then(|| node.wal.begin_sync(lsn)).flatten();
            flushes.push((done, node));
        }
        // Acknowledge in completion order, stopping at the majority-th.  A
        // node that crashed after its flush began lost the bytes (recovery
        // needs `membership` exclusively, so it is still down here): its
        // completion instant is no acknowledgement.
        flushes.sort_by_key(|(done, _)| *done);
        let mut acks = 0usize;
        for (done, node) in flushes {
            if let Some(done) = done {
                wait_until(done);
            }
            acks += usize::from(node.is_up());
            if acks >= majority {
                return Ok(());
            }
        }
        Err(Error::Unavailable(format!(
            "only {acks} certifier nodes acknowledged, majority {majority} required"
        )))
    }

    /// Crashes a node.  If it was the leader, a new leader is elected among
    /// the remaining up nodes.
    pub fn crash_node(&self, id: CertifierNodeId) {
        if let Some(node) = self.nodes.iter().find(|n| n.id == id) {
            node.up.store(false, Ordering::SeqCst);
            node.device.crash();
        }
        let mut leader = self.leader.lock();
        if self.nodes[*leader].id == id {
            if let Some(new_leader) = self.nodes.iter().position(|n| n.is_up()) {
                *leader = new_leader;
            }
        }
    }

    /// Recovers a crashed node: its durable log is rewritten as the union of
    /// a donor's records and its own records above the truncation floor,
    /// then the node rejoins the group.
    ///
    /// The transfer merges logs by *record* (commit version), not by byte
    /// length: concurrent appends reach different nodes' disks in slightly
    /// different orders, so equal-length prefixes need not hold equal
    /// content — a byte-suffix copy could duplicate records the node already
    /// has while dropping the ones it missed.  The full rewrite (rather than
    /// appending the missing records) is what makes recovery compose with
    /// truncation: stale below-floor records the node kept while it was down
    /// are dropped, so every up node converges to the same trimmed suffix.
    ///
    /// **Total outage**: when *no* node is up (the whole group crashed), the
    /// node restarts from the union of every node's durable log above the
    /// floor — every majority-acknowledged record is durable on at least one
    /// node, so the union is complete past the newest sealed checkpoint —
    /// and becomes the leader of the restarted group.  Subsequently
    /// recovering nodes then find a complete donor.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Corruption`] if a log fails to decode, or
    /// [`Error::Protocol`] for an unknown node id.
    pub fn recover_node(&self, id: CertifierNodeId) -> Result<()> {
        // Exclusive: no append may straddle the transfer (see `membership`).
        let _membership = self.membership.write();
        let floor = *self.floor.lock();
        let node_index = self
            .nodes
            .iter()
            .position(|n| n.id == id)
            .ok_or_else(|| Error::Protocol(format!("unknown certifier node {id}")))?;
        let node = &self.nodes[node_index];
        let donor = self.nodes.iter().find(|n| n.is_up() && n.id != id);
        let total_outage = donor.is_none();
        if let Some(donor) = donor {
            // An append returns at majority, so the donor may be a straggler
            // whose flush of an acknowledged record is still on its way; no
            // append is running now, so after this its log is complete.
            donor.wal.flush_all();
        }
        let mut merged: std::collections::BTreeMap<Version, WalRecord> =
            std::collections::BTreeMap::new();
        let sources: Vec<&Arc<Node>> = match donor {
            Some(donor) => vec![donor, node],
            // Total outage: every node's durable log contributes.
            None => self.nodes.iter().collect(),
        };
        for source in sources {
            for record in WalRecord::decode_all(&source.device.durable_contents())? {
                if record.version() > floor {
                    merged.entry(record.version()).or_insert(record);
                }
            }
        }
        let records: Vec<WalRecord> = merged.into_values().collect();
        node.wal.rewrite(&records);
        node.up.store(true, Ordering::SeqCst);
        if total_outage {
            // First node back after a total outage leads the restarted group.
            *self.leader.lock() = node_index;
        }
        Ok(())
    }

    /// Reads back the durable entries of a node (used by certifier recovery
    /// to rebuild the in-memory log, and by Tashkent-MW replica recovery to
    /// obtain missing writesets).  On a node outside the acknowledging
    /// majority the newest entries appear once its own flush has completed.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Corruption`] if the node's log cannot be decoded, or
    /// [`Error::Protocol`] for an unknown node id.
    pub fn durable_entries(&self, id: CertifierNodeId) -> Result<Vec<(Version, WriteSet)>> {
        let node = self
            .nodes
            .iter()
            .find(|n| n.id == id)
            .ok_or_else(|| Error::Protocol(format!("unknown certifier node {id}")))?;
        let records = WalRecord::decode_all(&node.device.durable_contents())?;
        Ok(records
            .into_iter()
            .filter_map(|r| match r {
                WalRecord::Commit { version, writeset } => Some((version, writeset)),
                WalRecord::Checkpoint { .. } => None,
            })
            .collect())
    }

    /// Statistics snapshot.
    #[must_use]
    pub fn stats(&self) -> ReplicatedLogStats {
        let leader = &self.nodes[*self.leader.lock()];
        let disk = leader.device.stats();
        ReplicatedLogStats {
            entries: *self.entries.lock(),
            leader_fsyncs: disk.fsyncs,
            leader_group_commit: disk.group_commit,
            leader_log_bytes: leader.device.durable_len(),
            nodes_up: self.up_count(),
            nodes_total: self.nodes.len(),
        }
    }

    /// The disk configuration nodes were created with (used when a crashed
    /// node is replaced rather than recovered).
    #[must_use]
    pub fn disk_config(&self) -> DiskConfig {
        self.disk_config.clone()
    }
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use tashkent_common::{TableId, Value, WriteItem};

    use super::*;

    fn ws(key: i64) -> WriteSet {
        WriteSet::from_items(vec![WriteItem::update(
            TableId(0),
            key,
            vec![("x".into(), Value::Int(key))],
        )])
    }

    #[test]
    fn appends_reach_all_up_nodes() {
        let log = ReplicatedLog::new(3, DiskConfig::default(), true);
        assert_eq!(log.majority(), 2);
        assert!(log.is_available());
        for i in 1..=5 {
            log.append(Version(i), &ws(i as i64)).unwrap();
        }
        for node in 0..3 {
            let entries = log.durable_entries(CertifierNodeId(node)).unwrap();
            assert_eq!(entries.len(), 5);
            assert_eq!(entries[4].0, Version(5));
        }
        let stats = log.stats();
        assert_eq!(stats.entries, 5);
        assert_eq!(stats.nodes_up, 3);
    }

    #[test]
    fn progress_with_one_node_down_but_not_two() {
        let log = ReplicatedLog::new(3, DiskConfig::default(), true);
        log.append(Version(1), &ws(1)).unwrap();
        log.crash_node(CertifierNodeId(2));
        assert!(log.is_available());
        log.append(Version(2), &ws(2)).unwrap();
        log.crash_node(CertifierNodeId(1));
        assert!(!log.is_available());
        assert!(matches!(
            log.append(Version(3), &ws(3)),
            Err(Error::Unavailable(_))
        ));
    }

    #[test]
    fn leader_failover_and_recovery_with_state_transfer() {
        let log = ReplicatedLog::new(3, DiskConfig::default(), true);
        assert_eq!(log.leader(), CertifierNodeId(0));
        for i in 1..=4 {
            log.append(Version(i), &ws(i as i64)).unwrap();
        }
        // Crash the leader: node 1 takes over and progress continues.
        log.crash_node(CertifierNodeId(0));
        assert_eq!(log.leader(), CertifierNodeId(1));
        assert!(log.is_available());
        for i in 5..=8 {
            log.append(Version(i), &ws(i as i64)).unwrap();
        }
        // Node 0 missed entries 5..=8; recovery transfers them.
        log.recover_node(CertifierNodeId(0)).unwrap();
        let entries = log.durable_entries(CertifierNodeId(0)).unwrap();
        assert_eq!(entries.len(), 8);
        assert_eq!(entries.last().unwrap().0, Version(8));
        assert_eq!(log.up_count(), 3);
    }

    #[test]
    fn total_outage_restart_rebuilds_from_the_union_of_all_logs() {
        let log = ReplicatedLog::new(3, DiskConfig::default(), true);
        for i in 1..=3 {
            log.append(Version(i), &ws(i as i64)).unwrap();
        }
        // Node 2 misses entries 4..=5, then the whole group goes down.
        log.crash_node(CertifierNodeId(2));
        for i in 4..=5 {
            log.append(Version(i), &ws(i as i64)).unwrap();
        }
        log.crash_node(CertifierNodeId(1));
        log.crash_node(CertifierNodeId(0));
        assert_eq!(log.up_count(), 0);
        assert!(!log.is_available());
        // Restart from the stale node: the union of every node's durable log
        // fills in the records it missed, and it leads the restarted group.
        log.recover_node(CertifierNodeId(2)).unwrap();
        assert_eq!(log.leader(), CertifierNodeId(2));
        let entries = log.durable_entries(CertifierNodeId(2)).unwrap();
        assert_eq!(entries.len(), 5);
        assert_eq!(entries.last().unwrap().0, Version(5));
        // The rest of the group recovers from it as donor; progress resumes.
        log.recover_node(CertifierNodeId(0)).unwrap();
        log.recover_node(CertifierNodeId(1)).unwrap();
        assert!(log.is_available());
        log.append(Version(6), &ws(6)).unwrap();
        for n in 0..3 {
            assert_eq!(log.durable_entries(CertifierNodeId(n)).unwrap().len(), 6);
        }
    }

    #[test]
    fn truncation_trims_up_nodes_and_recovery_respects_the_floor() {
        let log = ReplicatedLog::new(3, DiskConfig::default(), true);
        for i in 1..=6 {
            log.append(Version(i), &ws(i as i64)).unwrap();
        }
        // Node 2 goes down holding the full log, then the rest is trimmed.
        log.crash_node(CertifierNodeId(2));
        let dropped = log.truncate_below(Version(4)).unwrap();
        assert_eq!(dropped, 4);
        assert_eq!(log.floor(), Version(4));
        for n in 0..2 {
            let entries = log.durable_entries(CertifierNodeId(n)).unwrap();
            assert_eq!(entries.first().unwrap().0, Version(5));
            assert_eq!(entries.len(), 2);
        }
        // Recovery rewrites the rejoining node against the floor: its stale
        // below-floor records are dropped, converging all durable logs.
        log.recover_node(CertifierNodeId(2)).unwrap();
        let entries = log.durable_entries(CertifierNodeId(2)).unwrap();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries.first().unwrap().0, Version(5));
    }

    /// The paper's disk, as the benchmark configures it: 8 ms + ≤2 ms, slept.
    fn paper_disk() -> DiskConfig {
        DiskConfig {
            fsync_jitter: Duration::from_millis(2),
            ..DiskConfig::with_latency(Duration::from_millis(8))
        }
    }

    fn slow_disk() -> DiskConfig {
        DiskConfig::with_latency(Duration::from_millis(40))
    }

    fn mean_append_ms(log: &ReplicatedLog) -> f64 {
        let started = Instant::now();
        for i in 1..=8 {
            log.append(Version(i), &ws(i as i64)).unwrap();
        }
        started.elapsed().as_secs_f64() * 1e3 / 8.0
    }

    /// Lets every straggler flush on an up node finish.
    fn settle(log: &ReplicatedLog) {
        for node in log.nodes.iter().filter(|n| n.is_up()) {
            node.wal.flush_all();
        }
    }

    fn versions(log: &ReplicatedLog, node: u32) -> Vec<u64> {
        let entries = log.durable_entries(CertifierNodeId(node)).unwrap();
        entries.iter().map(|(version, _)| version.0).collect()
    }

    /// Keeps `node`'s disk busy so that its flush of the next append queues
    /// behind a flush in flight: a straggler by construction.
    fn make_straggler(log: &ReplicatedLog, node: usize) {
        log.nodes[node].device.begin_flush(u64::MAX, 0);
    }

    #[test]
    fn an_append_costs_one_disk_latency_whatever_the_group_size() {
        // Three serial flushes would be ≈27 ms; flushed at once, ≈9.
        let three = mean_append_ms(&ReplicatedLog::new(3, paper_disk(), true));
        assert!(three < 14.0, "3 nodes: {three:.1} ms per append");
        let one = mean_append_ms(&ReplicatedLog::new(1, paper_disk(), true));
        assert!((8.0..14.0).contains(&one), "1 node: {one:.1} ms per append");
    }

    #[test]
    fn an_acknowledged_record_survives_losing_the_straggler_then_everyone() {
        let log = ReplicatedLog::new(3, slow_disk(), true);
        log.append(Version(1), &ws(1)).unwrap();
        settle(&log);
        make_straggler(&log, 2);
        log.append(Version(2), &ws(2)).unwrap();
        // Acknowledged at majority: nodes 0 and 1 have it, node 2 not yet.
        assert_eq!(versions(&log, 0), [1, 2]);
        assert_eq!(versions(&log, 1), [1, 2]);
        assert_eq!(versions(&log, 2), [1]);
        // The straggler dies with its flush in flight, then the other two.
        log.crash_node(CertifierNodeId(2));
        log.crash_node(CertifierNodeId(1));
        log.crash_node(CertifierNodeId(0));
        assert_eq!(versions(&log, 2), [1], "its flush never completed");
        // Restarting from the node that missed it: the union has the record.
        log.recover_node(CertifierNodeId(2)).unwrap();
        assert_eq!(versions(&log, 2), [1, 2]);
        log.recover_node(CertifierNodeId(0)).unwrap();
        log.recover_node(CertifierNodeId(1)).unwrap();
        log.append(Version(3), &ws(3)).unwrap();
        settle(&log);
        for node in 0..3 {
            assert_eq!(
                log.durable_entries(CertifierNodeId(node)).unwrap(),
                log.durable_entries(CertifierNodeId(0)).unwrap()
            );
            assert_eq!(versions(&log, node), [1, 2, 3]);
        }
    }

    #[test]
    fn recovery_from_a_straggler_donor_still_transfers_the_acknowledged_record() {
        let log = ReplicatedLog::new(5, slow_disk(), true);
        log.append(Version(1), &ws(1)).unwrap();
        settle(&log);
        // Node 0 is down and node 1 — the donor `recover_node` will pick —
        // lags: nodes 2, 3 and 4 are the majority that acknowledges.
        log.crash_node(CertifierNodeId(0));
        make_straggler(&log, 1);
        log.append(Version(2), &ws(2)).unwrap();
        assert_eq!(versions(&log, 1), [1], "the donor has not flushed it yet");
        log.recover_node(CertifierNodeId(0)).unwrap();
        assert_eq!(versions(&log, 0), [1, 2]);
        for node in 1..5 {
            assert_eq!(versions(&log, node), [1, 2]);
        }
    }

    /// Runs `append(version)` on another thread and, once the record is
    /// staged on `victim`, crashes that node — before its flush completes.
    fn crash_mid_append(log: &ReplicatedLog, version: u64, victim: u32) -> Result<()> {
        let staged = log.nodes[victim as usize].device.len();
        std::thread::scope(|scope| {
            let appender = scope.spawn(|| log.append(Version(version), &ws(version as i64)));
            while log.nodes[victim as usize].device.len() == staged {
                std::thread::yield_now();
            }
            log.crash_node(CertifierNodeId(victim));
            appender.join().expect("the appender does not panic")
        })
    }

    #[test]
    fn a_node_crashing_mid_flush_is_no_ack_and_recovers_without_gaps_or_duplicates() {
        let log = ReplicatedLog::new(3, slow_disk(), true);
        log.append(Version(1), &ws(1)).unwrap();
        settle(&log);
        // Node 2 crashes between begin and completion: the other two carry
        // the append, and node 2 keeps nothing of it.
        crash_mid_append(&log, 2, 2).unwrap();
        assert_eq!(versions(&log, 2), [1]);
        for i in 3..=4 {
            log.append(Version(i), &ws(i as i64)).unwrap();
        }
        log.recover_node(CertifierNodeId(2)).unwrap();
        assert_eq!(versions(&log, 2), [1, 2, 3, 4]);
        // With node 0 down, node 1 crashing mid-flush leaves no majority.
        log.crash_node(CertifierNodeId(0));
        assert!(matches!(
            crash_mid_append(&log, 5, 1),
            Err(Error::Unavailable(_))
        ));
        // Nobody acknowledged version 5, but node 2 flushed it: recovery
        // keeps what is durable, once, on every node.
        log.recover_node(CertifierNodeId(0)).unwrap();
        log.recover_node(CertifierNodeId(1)).unwrap();
        settle(&log);
        for node in 0..3 {
            assert_eq!(versions(&log, node), [1, 2, 3, 4, 5]);
        }
    }

    #[test]
    fn truncation_under_a_straggler_flush_neither_loses_nor_resurrects() {
        let log = ReplicatedLog::new(3, slow_disk(), true);
        make_straggler(&log, 2);
        for i in 1..=3 {
            log.append(Version(i), &ws(i as i64)).unwrap();
        }
        assert!(versions(&log, 2).len() < 3, "node 2 is behind");
        // Node 2's flush is still in flight when the log is trimmed.
        assert_eq!(log.truncate_below(Version(2)).unwrap(), 2);
        for node in 0..3 {
            assert_eq!(versions(&log, node), [3]);
        }
        // Long after any stale flush would have landed: still trimmed, and
        // a crash finds nothing volatile to lose.
        std::thread::sleep(Duration::from_millis(100));
        log.crash_node(CertifierNodeId(2));
        assert_eq!(versions(&log, 2), [3]);
        log.recover_node(CertifierNodeId(2)).unwrap();
        log.append(Version(4), &ws(4)).unwrap();
        settle(&log);
        for node in 0..3 {
            assert_eq!(versions(&log, node), [3, 4]);
        }
    }

    #[test]
    fn non_durable_mode_skips_fsyncs() {
        let log = ReplicatedLog::new(3, DiskConfig::default(), false);
        for i in 1..=10 {
            log.append(Version(i), &ws(i as i64)).unwrap();
        }
        let stats = log.stats();
        assert_eq!(stats.entries, 10);
        assert_eq!(stats.leader_fsyncs, 0);
    }

    #[test]
    fn single_node_group_still_works() {
        let log = ReplicatedLog::new(1, DiskConfig::default(), true);
        assert_eq!(log.majority(), 1);
        log.append(Version(1), &ws(1)).unwrap();
        assert_eq!(log.durable_entries(CertifierNodeId(0)).unwrap().len(), 1);
        log.crash_node(CertifierNodeId(0));
        assert!(!log.is_available());
    }
}
