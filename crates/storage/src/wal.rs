//! Write-ahead log with group commit.
//!
//! Every committing update transaction appends a [`WalRecord::Commit`] record
//! carrying its commit version and writeset.  Whether the commit then *waits*
//! for the record to become durable depends on the engine's
//! [`SyncMode`](tashkent_common::SyncMode):
//!
//! * `Durable` — the commit participates in **group commit**: it requests a
//!   flush, and a flush covers every record appended by the time it starts.
//!   Committers whose records are covered by a flush somebody else already
//!   scheduled wait for that one and do not issue their own.  This is the
//!   standard optimisation the paper's Section 3 describes for standalone
//!   databases, and the mechanism Tashkent-API re-enables for replicas.
//!   A Tashkent-API remote install does not request a flush at all: its
//!   writeset is already durable in the certifier log, so it appends its
//!   record and rides the next local commit's flush or checkpoint — one
//!   flush per local commit covers the remote writesets before it.
//! * `NoSyncOnCommit` — the record is appended but the commit returns
//!   immediately; a later flush (checkpoint or another durable commit) will
//!   make it durable.  Physical integrity is preserved, durability is not.
//! * `Off` — as above, and recovery trusts no record of the log: the dense
//!   frontier it redoes to is the checkpoint image itself (Tashkent-MW
//!   relies on middleware checkpoints plus the certifier log instead).
//!
//! Flushing is split-phase, like the device's: [`WalWriter::begin_sync`]
//! makes sure a flush covering an LSN is scheduled and returns the instant it
//! completes; [`WalWriter::sync_to`] is that plus [`wait_until`].  LSNs are
//! the device's byte offsets, and the device alone tracks what is durable
//! and which flushes are on their way.
//!
//! The same `WalWriter` type also backs the certifier's persistent log in
//! `tashkent-certifier`, which is how the certifier gets its "single writer
//! thread … batching all outstanding writesets to disk via a single fsync"
//! behaviour for free — and, beginning a sync on every node before waiting
//! for any, its one-disk-latency majority append.

use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;
use tashkent_common::codec::{FrameLayout, Reader, Writer};
use tashkent_common::metrics::{CounterId, GaugeId};
use tashkent_common::{
    Component, Error, Event, EventKind, MetricsRegistry, Result, Version, WriteSet,
};

use crate::codec;
use crate::disk::{wait_until, Flush, LogDevice};

/// One record of the write-ahead log.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// A committed update transaction: the version it created and its
    /// writeset (enough to redo the transaction on recovery).
    Commit {
        /// Version created by this commit.
        version: Version,
        /// Redo information.
        writeset: WriteSet,
    },
    /// A checkpoint marker: all effects up to and including `version` have
    /// been written to the data store / dump, so recovery may start here.
    Checkpoint {
        /// Version covered by the checkpoint.
        version: Version,
    },
}

impl WalRecord {
    /// The version this record refers to.
    #[must_use]
    pub fn version(&self) -> Version {
        match self {
            WalRecord::Commit { version, .. } | WalRecord::Checkpoint { version } => *version,
        }
    }

    /// Encodes the record as a length-prefixed, checksummed frame.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut frame = Vec::new();
        match self {
            WalRecord::Commit { version, writeset } => {
                WalRecord::encode_commit_into(&mut frame, *version, writeset);
            }
            WalRecord::Checkpoint { version } => FRAME.write(&mut frame, 0, |payload| {
                payload.put_u8(1);
                codec::encode_version(payload, *version);
            }),
        }
        frame
    }

    /// Appends to `out` the frame of the [`WalRecord::Commit`] record for
    /// `version` and `writeset`, without needing to own the writeset: a
    /// caller writing one record to several logs encodes it once.
    pub fn encode_commit_into(out: &mut Vec<u8>, version: Version, writeset: &WriteSet) {
        FRAME.write(out, 0, |payload| {
            payload.put_u8(0);
            codec::encode_version(payload, version);
            codec::encode_writeset(payload, writeset);
        });
    }

    /// Decodes one frame from the front of `r`, advancing it.
    ///
    /// Returns `Ok(None)` on a clean end of log and `Err` on corruption in
    /// the middle of the log.  A *truncated* trailing frame (torn write at
    /// the moment of a crash) is also reported as `Ok(None)`, because that is
    /// the expected state of the tail after a crash and recovery must simply
    /// stop there.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Corruption`] if a complete frame fails its checksum
    /// or contains an undecodable payload — an empty one included.
    pub fn decode_from(r: &mut Reader<'_>) -> Result<Option<WalRecord>> {
        let Some((_, payload)) = FRAME.read(r)? else {
            return Ok(None);
        };
        let mut payload = Reader::new(payload);
        Ok(Some(match payload.u8("wal record kind")? {
            0 => WalRecord::Commit {
                version: codec::decode_version(&mut payload)?,
                writeset: codec::decode_writeset(&mut payload)?,
            },
            1 => WalRecord::Checkpoint {
                version: codec::decode_version(&mut payload)?,
            },
            k => return Err(Error::Corruption(format!("unknown wal record kind {k}"))),
        }))
    }

    /// Decodes every complete record from a log image (e.g. the durable
    /// contents of a crashed device).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Corruption`] if a complete frame in the middle of the
    /// log is malformed.
    pub fn decode_all(log: &[u8]) -> Result<Vec<WalRecord>> {
        let mut r = Reader::new(log);
        let mut out = Vec::new();
        while let Some(record) = WalRecord::decode_from(&mut r)? {
            out.push(record);
        }
        Ok(out)
    }
}

/// A record frame: `length ‖ checksum ‖ payload`, no magic.
const FRAME: FrameLayout = FrameLayout::new("wal record", b"", 0);

/// Group-commit log writer on top of a [`LogDevice`].
pub struct WalWriter {
    /// LSNs are the device's byte offsets: what is appended, what is durable
    /// and which flushes are on their way, only the device knows.
    device: Arc<dyn LogDevice>,
    /// Records appended since the device last counted them into a flush (for
    /// group-size statistics).  Holding the lock serialises appends against
    /// a rewrite of the log.
    records_since_flush: Mutex<u64>,
    metrics: Arc<MetricsRegistry>,
}

impl std::fmt::Debug for WalWriter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WalWriter")
            .field("appended_lsn", &self.device.len())
            .field("durable_lsn", &self.device.durable_len())
            .finish()
    }
}

impl WalWriter {
    /// Creates a writer on top of a log device.
    #[must_use]
    pub fn new(device: Arc<dyn LogDevice>) -> Self {
        WalWriter::with_metrics(device, Arc::new(MetricsRegistry::disabled()))
    }

    /// Creates a writer that reports fsync / record counts and group-commit
    /// batch sizes into a metrics registry.
    #[must_use]
    pub fn with_metrics(device: Arc<dyn LogDevice>, metrics: Arc<MetricsRegistry>) -> Self {
        WalWriter {
            device,
            records_since_flush: Mutex::new(0),
            metrics,
        }
    }

    /// Appends a record without waiting for durability.  Returns the LSN just
    /// past the record (the point that must become durable for the record to
    /// be safe).
    pub fn append(&self, record: &WalRecord) -> u64 {
        self.append_frames(&record.encode(), 1)
    }

    /// Appends `records` already encoded frames (see
    /// [`WalRecord::encode_commit_into`]) with a single device append.
    /// Returns the LSN just past the last of them.
    pub fn append_frames(&self, frames: &[u8], records: u64) -> u64 {
        let mut unflushed = self.records_since_flush.lock();
        let end = self.device.append(frames) + frames.len() as u64;
        *unflushed += records;
        self.metrics.add(CounterId::WalRecords, records);
        end
    }

    /// Makes sure a flush covering everything appended up to `lsn` is
    /// scheduled, participating in group commit, and returns the instant it
    /// completes — `None` if there is nothing to wait for.  If a flush
    /// already on its way covers `lsn` this call schedules nothing;
    /// otherwise it begins (or joins, if one is still waiting for the
    /// device) one flush for all currently appended records.
    pub fn begin_sync(&self, lsn: u64) -> Option<Instant> {
        let mut unflushed = self.records_since_flush.lock();
        if lsn > self.device.len() {
            // A concurrent truncation rewrote the log below our LSN.
            // Truncation flushes everything first and only removes
            // durable records, so the record behind this `lsn` is either
            // durable (and below the watermark) or retained in the
            // rewritten suffix — never lost.
            return None;
        }
        let flush = self.device.begin_flush(lsn, *unflushed);
        if let Flush::Begun { batch, fresh, .. } = flush {
            *unflushed = 0;
            drop(unflushed);
            if fresh {
                self.metrics.incr(CounterId::WalFsyncs);
                self.metrics
                    .emit(Event::new(Component::Wal, EventKind::WalFsync));
            }
            // Gauge value = size of the batch this fsync covers; the gauge's
            // high-water mark therefore tracks the largest group commit.
            self.metrics.gauge_set(GaugeId::WalGroupBatch, batch as i64);
        }
        flush.done()
    }

    /// Waits until everything appended up to `lsn` is durable: the blocking
    /// form of [`WalWriter::begin_sync`].
    pub fn sync_to(&self, lsn: u64) {
        if let Some(done) = self.begin_sync(lsn) {
            wait_until(done);
        }
    }

    /// Appends a record and waits for it to be durable (group committed).
    pub fn append_durable(&self, record: &WalRecord) -> u64 {
        let lsn = self.append(record);
        self.sync_to(lsn);
        lsn
    }

    /// Flushes everything appended so far (used by checkpoints and by
    /// `NoSyncOnCommit` background flushing).
    pub fn flush_all(&self) {
        self.sync_to(self.device.len());
    }

    /// Durably removes every record with version at or below `watermark`,
    /// rewriting the log as the retained suffix.  Returns the number of
    /// records removed.
    ///
    /// Everything buffered is flushed first, so no record can be lost: a
    /// record is either retained (version above the watermark) or durable
    /// and covered by a sealed checkpoint at or above the watermark (the
    /// caller's contract).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Corruption`] if the durable log cannot be decoded;
    /// nothing is rewritten in that case.
    pub fn truncate_below(&self, watermark: Version) -> Result<usize> {
        loop {
            self.flush_all();
            let mut unflushed = self.records_since_flush.lock();
            if self.device.len() != self.device.durable_len() {
                // An append raced in between the flush and the lock; flush
                // again so the rewrite below covers the full log.
                drop(unflushed);
                continue;
            }
            let records = WalRecord::decode_all(&self.device.durable_contents())?;
            let retained: Vec<&WalRecord> = records
                .iter()
                .filter(|r| r.version() > watermark)
                .collect();
            let dropped = records.len() - retained.len();
            if dropped == 0 {
                return Ok(0);
            }
            let mut image = Vec::new();
            for record in &retained {
                image.extend_from_slice(&record.encode());
            }
            self.device.replace(image);
            *unflushed = 0;
            return Ok(dropped);
        }
    }

    /// Durably rewrites the log to contain exactly `records`, in order.
    /// Used by certifier-node state transfer, which rebuilds a recovering
    /// node's log from a donor (or, after a total outage, from the union of
    /// the surviving logs and the shard checkpoint).
    pub fn rewrite(&self, records: &[WalRecord]) {
        let mut unflushed = self.records_since_flush.lock();
        let mut image = Vec::new();
        for record in records {
            image.extend_from_slice(&record.encode());
        }
        self.device.replace(image);
        *unflushed = 0;
    }

    /// The LSN up to which the log is known durable.
    #[must_use]
    pub fn durable_lsn(&self) -> u64 {
        self.device.durable_len()
    }

    /// Reads back every record currently *durable* on the device.
    ///
    /// # Errors
    ///
    /// Propagates [`Error::Corruption`] from decoding.
    pub fn durable_records(&self) -> Result<Vec<WalRecord>> {
        WalRecord::decode_all(&self.device.durable_contents())
    }

    /// The underlying device (shared with the engine for crash simulation).
    #[must_use]
    pub fn device(&self) -> Arc<dyn LogDevice> {
        Arc::clone(&self.device)
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;
    use std::thread;

    use tashkent_common::{TableId, Value, WriteItem};

    use super::*;
    use crate::disk::SimulatedDisk;

    fn commit_record(version: u64, key: i64) -> WalRecord {
        WalRecord::Commit {
            version: Version(version),
            writeset: WriteSet::from_items(vec![WriteItem::update(
                TableId(0),
                key,
                vec![("x".into(), Value::Int(key))],
            )]),
        }
    }

    #[test]
    fn record_roundtrip() {
        let records = vec![
            commit_record(1, 10),
            WalRecord::Checkpoint {
                version: Version(1),
            },
            commit_record(2, 20),
        ];
        let mut log = Vec::new();
        for r in &records {
            log.extend_from_slice(&r.encode());
        }
        let decoded = WalRecord::decode_all(&log).unwrap();
        assert_eq!(decoded, records);
        assert_eq!(decoded[0].version(), Version(1));
        assert_eq!(decoded[1].version(), Version(1));
    }

    #[test]
    fn torn_tail_is_silently_dropped() {
        let mut log = commit_record(1, 1).encode();
        let second = commit_record(2, 2).encode();
        log.extend_from_slice(&second[..second.len() / 2]);
        let decoded = WalRecord::decode_all(&log).unwrap();
        assert_eq!(decoded.len(), 1);
    }

    #[test]
    fn corrupt_frame_is_detected() {
        let mut log = commit_record(1, 1).encode();
        let len = log.len();
        log[len - 1] ^= 0xFF; // Flip a payload byte: checksum must fail.
        assert!(matches!(
            WalRecord::decode_all(&log),
            Err(Error::Corruption(_))
        ));
    }

    /// A complete frame around an empty payload (`length 0`, then the
    /// checksum of nothing) has no record kind: corruption, not a torn tail
    /// and not a panic.
    #[test]
    fn complete_frame_with_an_empty_payload_is_corruption() {
        let empty = [0, 0, 0, 0, 0x81, 0x1C, 0x9D, 0xC5];
        assert!(matches!(
            WalRecord::decode_all(&empty),
            Err(Error::Corruption(_))
        ));
        let mut log = commit_record(1, 1).encode();
        log.extend_from_slice(&empty);
        assert!(WalRecord::decode_all(&log).is_err());
    }

    #[test]
    fn append_durable_persists_records() {
        let disk = Arc::new(SimulatedDisk::instant());
        let wal = WalWriter::new(disk.clone());
        wal.append_durable(&commit_record(1, 1));
        wal.append(&commit_record(2, 2));
        // Record 2 was appended but not synced: a crash loses it.
        disk.crash();
        let recovered = WalRecord::decode_all(&disk.durable_contents()).unwrap();
        assert_eq!(recovered.len(), 1);
        assert_eq!(recovered[0].version(), Version(1));
    }

    #[test]
    fn group_commit_batches_concurrent_commits() {
        let disk = Arc::new(SimulatedDisk::new(crate::disk::DiskConfig {
            fsync_latency: std::time::Duration::from_millis(2),
            sleep: true,
            ..crate::disk::DiskConfig::default()
        }));
        let wal = Arc::new(WalWriter::new(disk.clone()));
        let threads: Vec<_> = (0..16)
            .map(|i| {
                let wal = Arc::clone(&wal);
                thread::spawn(move || {
                    wal.append_durable(&commit_record(i + 1, i as i64));
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let stats = disk.stats();
        // All 16 records are durable…
        assert_eq!(stats.group_commit.records, 16);
        assert_eq!(wal.durable_records().unwrap().len(), 16);
        // …but group commit needed far fewer fsyncs than records.
        assert!(
            stats.fsyncs < 16,
            "expected grouping, got {} fsyncs",
            stats.fsyncs
        );
    }

    /// Group commit on a slept disk: while one flush is being written, every
    /// other committer's record boards the one queued behind it.  With four
    /// zero-think-time committers flushes alternate between one record and
    /// three (≈0.5 per record); the bound leaves room for late wake-ups.
    /// (Two such committers phase-lock — each comes back just as the next
    /// flush has started — and share nothing: the exact channel model's
    /// answer for the benchmark's two-thread drill is 1.0.)
    #[test]
    fn committers_on_a_slept_disk_share_flushes() {
        let disk = Arc::new(SimulatedDisk::new(crate::disk::DiskConfig {
            fsync_jitter: std::time::Duration::from_millis(2),
            ..crate::disk::DiskConfig::with_latency(std::time::Duration::from_millis(8))
        }));
        let wal = WalWriter::new(disk.clone());
        thread::scope(|scope| {
            for t in 0..4u64 {
                let wal = &wal;
                scope.spawn(move || {
                    for n in 0..6u64 {
                        wal.append_durable(&commit_record(t * 100 + n + 1, n as i64));
                    }
                });
            }
        });
        let stats = disk.stats();
        assert_eq!(stats.group_commit.records, 24);
        assert_eq!(wal.durable_records().unwrap().len(), 24);
        assert!(
            stats.fsyncs * 4 <= 24 * 3,
            "{} fsyncs for 24 records",
            stats.fsyncs
        );
    }

    #[test]
    fn begin_sync_schedules_one_flush_per_uncovered_lsn() {
        let disk = Arc::new(SimulatedDisk::new(crate::disk::DiskConfig::with_latency(
            std::time::Duration::from_millis(50),
        )));
        let wal = WalWriter::new(disk.clone());
        let mut frames = Vec::new();
        WalRecord::encode_commit_into(&mut frames, Version(1), &WriteSet::default());
        WalRecord::encode_commit_into(&mut frames, Version(2), &WriteSet::default());
        let lsn = wal.append_frames(&frames, 2);
        let done = wal.begin_sync(lsn).expect("a flush is owed");
        // Covered by the flush already on its way: same instant, no new flush.
        assert_eq!(wal.begin_sync(lsn), Some(done));
        assert_eq!(wal.begin_sync(lsn - 1), Some(done));
        assert_eq!(wal.durable_lsn(), 0);
        // A later record needs the next flush, which queues behind the first.
        let later = wal.begin_sync(wal.append(&commit_record(3, 3))).unwrap();
        assert!(later > done);
        wait_until(done);
        assert_eq!(wal.durable_lsn(), lsn);
        assert_eq!(wal.begin_sync(lsn), None);
        assert_eq!(wal.durable_records().unwrap().len(), 2);
        wal.sync_to(u64::MAX / 2); // stale LSN past the end: nothing to wait for
        wait_until(later);
        assert_eq!(wal.durable_records().unwrap().len(), 3);
        let stats = disk.stats();
        assert_eq!((stats.fsyncs, stats.group_commit.records), (2, 3));
    }

    #[test]
    fn truncate_below_drops_only_covered_records() {
        let disk = Arc::new(SimulatedDisk::instant());
        let wal = WalWriter::new(disk.clone());
        for v in 1..=6 {
            wal.append(&commit_record(v, v as i64));
        }
        // Truncation flushes the buffered records before rewriting.
        let dropped = wal.truncate_below(Version(4)).unwrap();
        assert_eq!(dropped, 4);
        let survivors = wal.durable_records().unwrap();
        assert_eq!(survivors.len(), 2);
        assert_eq!(survivors[0].version(), Version(5));
        assert_eq!(survivors[1].version(), Version(6));
        // Appends keep working after the rewrite, and a stale high LSN from
        // before the truncation does not wedge the group-commit loop.
        wal.sync_to(u64::MAX / 2);
        let lsn = wal.append(&commit_record(7, 7));
        wal.sync_to(lsn);
        assert_eq!(wal.durable_records().unwrap().len(), 3);
        // Nothing at or below the watermark: a no-op.
        assert_eq!(wal.truncate_below(Version(4)).unwrap(), 0);
        // A watermark above everything empties the log.
        assert_eq!(wal.truncate_below(Version(10)).unwrap(), 3);
        assert!(wal.durable_records().unwrap().is_empty());
    }

    #[test]
    fn lsns_are_the_devices_offsets_across_a_crash_and_a_new_writer() {
        let disk = Arc::new(SimulatedDisk::instant());
        let wal = WalWriter::new(disk.clone());
        let first = wal.append_durable(&commit_record(1, 1));
        wal.append(&commit_record(2, 2));
        // The crash takes record 2 from under the writer, which follows.
        disk.crash();
        assert_eq!(wal.truncate_below(Version(0)).unwrap(), 0);
        // Recovery puts a new writer over what survived: it continues where
        // the device ends, and its records are flushed like any other.
        let recovered = WalWriter::new(disk.clone());
        let lsn = recovered.append(&commit_record(3, 3));
        assert!(lsn > first);
        assert_eq!(recovered.durable_lsn(), first);
        recovered.sync_to(lsn);
        assert_eq!(recovered.durable_lsn(), lsn);
        assert_eq!(recovered.durable_records().unwrap().len(), 2);
    }

    #[test]
    fn rewrite_replaces_the_log_exactly() {
        let disk = Arc::new(SimulatedDisk::instant());
        let wal = WalWriter::new(disk.clone());
        wal.append_durable(&commit_record(1, 1));
        let fresh = vec![commit_record(5, 5), commit_record(6, 6)];
        wal.rewrite(&fresh);
        assert_eq!(wal.durable_records().unwrap(), fresh);
        disk.crash();
        assert_eq!(wal.durable_records().unwrap(), fresh);
    }

    #[test]
    fn flush_all_covers_unsynced_records() {
        let disk = Arc::new(SimulatedDisk::instant());
        let wal = WalWriter::new(disk.clone());
        wal.append(&commit_record(1, 1));
        wal.append(&commit_record(2, 2));
        assert_eq!(wal.durable_records().unwrap().len(), 0);
        wal.flush_all();
        assert_eq!(wal.durable_records().unwrap().len(), 2);
        assert!(wal.durable_lsn() > 0);
    }
}
