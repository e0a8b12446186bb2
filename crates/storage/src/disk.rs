//! The (simulated) log device.
//!
//! The paper's measurements hinge on the cost of synchronous writes: an
//! `fsync` to the disk medium takes about 8 ms on their hardware, so whoever
//! can put more commit records into one fsync wins.  The engine therefore
//! talks to its log through the [`LogDevice`] trait, and the default
//! implementation, [`SimulatedDisk`], models exactly the properties that
//! matter:
//!
//! * a configurable per-fsync latency (optionally with jitter, matching the
//!   6–12 ms spread the paper reports),
//! * a single channel: flushes on the same device run one after another,
//!   and a flush that has not started yet absorbs everything appended (and
//!   every flush requested) before it starts — group commit,
//! * optional extra *contention* delay representing a shared IO channel on
//!   which database page reads and dirty-page writebacks compete with the
//!   WAL (the "shared IO" configurations),
//! * crash semantics: bytes whose flush has not *completed* are lost when
//!   the device "crashes", which is what makes the recovery tests meaningful.
//!
//! A flush is **split-phase**: [`LogDevice::begin_flush`] schedules it and
//! reports the instant it completes ([`Flush`]), [`wait_until`] sleeps that
//! out, and the blocking [`LogDevice::fsync`] is the two back to back.  A caller
//! replicating to several devices begins a flush on each and waits once: one
//! disk latency, not one per device.  The device spawns no thread — the
//! channel is a *busy-until* instant, and every operation first settles the
//! flushes whose time has passed.
//!
//! All latencies can be set to zero for fast functional tests (a flush then
//! completes the instant it begins); the fsync count and group-size
//! statistics are tracked either way.

use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Mutex, MutexGuard};
use tashkent_common::GroupCommitStats;

/// Statistics kept by a log device.
#[derive(Debug, Clone, Default)]
pub struct DiskStats {
    /// Number of append operations.
    pub appends: u64,
    /// Total bytes appended.
    pub bytes_appended: u64,
    /// Number of fsync operations.
    pub fsyncs: u64,
    /// Group-commit statistics: how many records each fsync made durable.
    pub group_commit: GroupCommitStats,
}

/// Sleeps until `instant`; returns at once if it has already passed.
pub fn wait_until(instant: Instant) {
    let remaining = instant.saturating_duration_since(Instant::now());
    if !remaining.is_zero() {
        std::thread::sleep(remaining);
    }
}

/// What [`LogDevice::begin_flush`] found or scheduled for the bytes it was
/// asked about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flush {
    /// They are durable already.
    Durable,
    /// The flush being written covers them and completes at this instant;
    /// nothing was scheduled and the caller's `records` were not counted.
    Covered(Instant),
    /// They ride a flush that had not started: one this call scheduled
    /// (`fresh`) or one already waiting for the channel, which it joined.
    /// The caller's `records` are counted in it; `batch` is its total so far.
    Begun {
        /// When the flush completes: the bytes are durable from then on,
        /// unless the device crashes first.
        done: Instant,
        /// Commit records the flush makes durable, as far as it has been told.
        batch: u64,
        /// `false` if the flush had been scheduled by an earlier call.
        fresh: bool,
    },
}

impl Flush {
    /// The instant to wait for; `None` if there is nothing to wait for.
    #[must_use]
    pub fn done(self) -> Option<Instant> {
        match self {
            Flush::Durable => None,
            Flush::Covered(done) | Flush::Begun { done, .. } => Some(done),
        }
    }
}

/// Abstraction over the append-only log storage used by the WAL and by the
/// certifier log.
///
/// Implementations must be safe to share between threads; the engine calls
/// `append` and `fsync` concurrently from many committing transactions.
pub trait LogDevice: Send + Sync {
    /// Appends bytes to the end of the log and returns the offset at which
    /// they were written.  The bytes are *not* durable until a flush begun
    /// after this call completes.
    fn append(&self, bytes: &[u8]) -> u64;

    /// Makes sure the first `upto` bytes are on their way to stable storage
    /// and reports, without waiting, when they will be there — see [`Flush`].
    /// A flush covers every byte appended by the time it *starts*: one begun
    /// on a busy channel waits for it, and until its turn comes absorbs
    /// further appends and further calls.  `upto` past the end of the log
    /// (`u64::MAX`) always schedules a flush of everything appended.
    ///
    /// `records` tells the device how many commit records the caller has
    /// appended since it last had a flush [`Flush::Begun`], so that
    /// group-commit statistics can be tracked; it has no effect on
    /// durability itself.
    fn begin_flush(&self, upto: u64, records: u64) -> Flush;

    /// Forces all previously appended bytes to stable storage: the blocking
    /// form of [`LogDevice::begin_flush`].
    fn fsync(&self, records: u64) {
        if let Some(done) = self.begin_flush(u64::MAX, records).done() {
            wait_until(done);
        }
    }

    /// Total bytes appended so far (durable or not).
    fn len(&self) -> u64;

    /// `true` if nothing has been appended.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes that are guaranteed to survive a crash.
    fn durable_len(&self) -> u64;

    /// Returns a copy of the durable prefix of the log.
    fn durable_contents(&self) -> Vec<u8>;

    /// Simulates a crash: bytes whose flush has not completed are discarded.
    fn crash(&self);

    /// Atomically replaces the entire log with `contents`, durably.
    ///
    /// This is the primitive behind log truncation: the caller rewrites the
    /// log as the suffix of records it wants to keep (a real system would
    /// drop whole segment files; this simulated device has one segment).
    /// The replacement is durable immediately — it models a rename over a
    /// fully synced rewrite, not an in-place edit.
    fn replace(&self, contents: Vec<u8>);

    /// Statistics snapshot.
    fn stats(&self) -> DiskStats;
}

/// Configuration of a [`SimulatedDisk`].
#[derive(Debug, Clone)]
pub struct DiskConfig {
    /// Latency of one fsync (time to flush to the disk medium).
    pub fsync_latency: Duration,
    /// Additional uniformly distributed latency added to each fsync,
    /// modelling the dependence on where the data lands on the platter.
    pub fsync_jitter: Duration,
    /// Extra latency added to each fsync when the channel is shared with
    /// non-logging IO (page reads / dirty writebacks).
    pub contention_latency: Duration,
    /// If `true`, latencies are actually slept; if `false` every flush
    /// completes the instant it begins and the latency fields are ignored.
    /// Functional tests run with `false`.
    pub sleep: bool,
}

impl Default for DiskConfig {
    fn default() -> Self {
        DiskConfig {
            fsync_latency: Duration::ZERO,
            fsync_jitter: Duration::ZERO,
            contention_latency: Duration::ZERO,
            sleep: false,
        }
    }
}

impl DiskConfig {
    /// A device with a real (slept) fsync latency, for end-to-end runs that
    /// want wall-clock behaviour resembling the paper's testbed.
    #[must_use]
    pub fn with_latency(fsync_latency: Duration) -> Self {
        DiskConfig {
            fsync_latency,
            sleep: true,
            ..DiskConfig::default()
        }
    }
}

#[derive(Debug, Default)]
struct DiskState {
    buffer: Vec<u8>,
    /// Bytes covered by completed flushes, as of the last settle.
    durable_len: u64,
    stats: DiskStats,
    /// Deterministic pseudo-random state for jitter.
    jitter_seed: u64,
    /// The flush being written: its completion instant and the buffer length
    /// it covers.  The IO channel is busy until then.
    in_flight: Option<(Instant, u64)>,
    /// The flush that writes next, as soon as the channel frees (only ever
    /// set behind one in flight): its completion instant and the records it
    /// has been told of.  It covers the buffer as it stands when it starts.
    queued: Option<(Instant, u64)>,
}

impl DiskState {
    /// Starts writing a flush of the buffer as it stands.
    fn start_flush(&mut self, done: Instant, records: u64) {
        self.stats.fsyncs += 1;
        self.stats.group_commit.record_flush(records);
        self.in_flight = Some((done, self.buffer.len() as u64));
    }

    /// Brings the device up to `now`: a flush whose completion instant has
    /// passed makes its bytes durable and hands the channel to the queued
    /// flush.  Every operation that reads or changes the buffer settles
    /// first, so the buffer a queued flush finds when its start is noticed
    /// is the buffer of the instant it started.
    fn settle_at(&mut self, now: Instant) {
        while let Some((_, len)) = self.in_flight.take_if(|(done, _)| *done <= now) {
            self.durable_len = len;
            if let Some((next_done, records)) = self.queued.take() {
                self.start_flush(next_done, records);
            }
        }
    }

    /// Forgets the flushes that have not completed (crash, or a rewrite
    /// that supersedes them).
    fn cancel_flushes(&mut self) {
        self.in_flight = None;
        self.queued = None;
    }
}

/// An in-memory append-only device with configurable fsync behaviour and
/// crash semantics.
#[derive(Debug, Clone)]
pub struct SimulatedDisk {
    config: DiskConfig,
    state: Arc<Mutex<DiskState>>,
}

impl Default for SimulatedDisk {
    fn default() -> Self {
        SimulatedDisk::new(DiskConfig::default())
    }
}

impl SimulatedDisk {
    /// Creates a device with the given configuration.
    #[must_use]
    pub fn new(config: DiskConfig) -> Self {
        SimulatedDisk {
            config,
            state: Arc::new(Mutex::new(DiskState::default())),
        }
    }

    /// Creates a device with no latency at all — the default for unit tests.
    #[must_use]
    pub fn instant() -> Self {
        SimulatedDisk::default()
    }

    /// The state, settled as of now; an idle device does not read the clock.
    fn settled(&self) -> MutexGuard<'_, DiskState> {
        let mut state = self.state.lock();
        if state.in_flight.is_some() {
            state.settle_at(Instant::now());
        }
        state
    }

    fn jitter(&self, state: &mut DiskState) -> Duration {
        if self.config.fsync_jitter.is_zero() {
            return Duration::ZERO;
        }
        // xorshift64* — cheap, deterministic, good enough for jitter.
        let mut x = state.jitter_seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        state.jitter_seed = x;
        let frac = (x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11) as f64 / (1u64 << 53) as f64;
        self.config.fsync_jitter.mul_f64(frac)
    }
}

impl LogDevice for SimulatedDisk {
    fn append(&self, bytes: &[u8]) -> u64 {
        let mut state = self.settled();
        let offset = state.buffer.len() as u64;
        state.buffer.extend_from_slice(bytes);
        state.stats.appends += 1;
        state.stats.bytes_appended += bytes.len() as u64;
        offset
    }

    fn begin_flush(&self, upto: u64, records: u64) -> Flush {
        let mut state = self.state.lock();
        let now = Instant::now();
        state.settle_at(now);
        if state.durable_len >= upto {
            return Flush::Durable;
        }
        let busy_until = match state.in_flight {
            Some((done, covered)) if covered >= upto => return Flush::Covered(done),
            Some((done, _)) => Some(done),
            None => None,
        };
        if let Some((done, batch)) = &mut state.queued {
            *batch += records;
            return Flush::Begun {
                done: *done,
                batch: *batch,
                fresh: false,
            };
        }
        let latency = if self.config.sleep {
            self.config.fsync_latency + self.jitter(&mut state) + self.config.contention_latency
        } else {
            Duration::ZERO
        };
        // A single disk serves one flush at a time — precisely the
        // serial-commit bottleneck of Base.
        let done = busy_until.unwrap_or(now) + latency;
        match busy_until {
            Some(_) => state.queued = Some((done, records)),
            None => {
                state.start_flush(done, records);
                // On a zero-latency disk it is complete already.
                state.settle_at(now);
            }
        }
        Flush::Begun {
            done,
            batch: records,
            fresh: true,
        }
    }

    fn len(&self) -> u64 {
        self.state.lock().buffer.len() as u64
    }

    fn durable_len(&self) -> u64 {
        self.settled().durable_len
    }

    fn durable_contents(&self) -> Vec<u8> {
        let state = self.settled();
        state.buffer[..state.durable_len as usize].to_vec()
    }

    fn crash(&self) {
        let mut state = self.settled();
        state.cancel_flushes();
        let durable = state.durable_len as usize;
        state.buffer.truncate(durable);
    }

    fn replace(&self, contents: Vec<u8>) {
        let mut state = self.state.lock();
        state.cancel_flushes();
        state.durable_len = contents.len() as u64;
        state.buffer = contents;
    }

    fn stats(&self) -> DiskStats {
        self.settled().stats.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn append_then_fsync_makes_bytes_durable() {
        let disk = SimulatedDisk::instant();
        assert!(disk.is_empty());
        let off = disk.append(b"hello");
        assert_eq!(off, 0);
        assert_eq!(disk.len(), 5);
        assert_eq!(disk.durable_len(), 0);
        disk.fsync(1);
        assert_eq!(disk.durable_len(), 5);
        assert_eq!(disk.durable_contents(), b"hello");
        let off = disk.append(b", world");
        assert_eq!(off, 5);
        assert_eq!(disk.durable_contents(), b"hello");
    }

    #[test]
    fn crash_discards_unsynced_bytes() {
        let disk = SimulatedDisk::instant();
        disk.append(b"durable");
        disk.fsync(1);
        disk.append(b"volatile");
        assert_eq!(disk.len(), 15);
        disk.crash();
        assert_eq!(disk.len(), 7);
        assert_eq!(disk.durable_contents(), b"durable");
    }

    #[test]
    fn stats_track_group_commit() {
        let disk = SimulatedDisk::instant();
        disk.append(b"a");
        disk.append(b"b");
        disk.fsync(2);
        disk.append(b"c");
        disk.fsync(1);
        let stats = disk.stats();
        assert_eq!(stats.appends, 3);
        assert_eq!(stats.bytes_appended, 3);
        assert_eq!(stats.fsyncs, 2);
        assert_eq!(stats.group_commit.records, 3);
        assert!((stats.group_commit.mean_group_size() - 1.5).abs() < f64::EPSILON);
    }

    #[test]
    fn latency_is_slept_when_enabled() {
        let disk = SimulatedDisk::new(DiskConfig {
            fsync_latency: Duration::from_millis(5),
            sleep: true,
            ..DiskConfig::default()
        });
        disk.append(b"x");
        let start = std::time::Instant::now();
        disk.fsync(1);
        assert!(start.elapsed() >= Duration::from_millis(4));
    }

    #[test]
    fn latency_is_ignored_when_not_slept() {
        let disk = SimulatedDisk::new(DiskConfig {
            fsync_latency: Duration::from_millis(8),
            fsync_jitter: Duration::from_millis(2),
            sleep: false,
            ..DiskConfig::default()
        });
        disk.append(b"x");
        // No elapsed-time bound: the flush is complete when it is begun.
        let done = flush_all(&disk, 1);
        assert!(done <= Instant::now(), "a flush of an unslept disk takes no time");
        assert_eq!(disk.durable_contents(), b"x");
        disk.append(b"y");
        disk.fsync(1);
        disk.crash();
        assert_eq!(disk.durable_contents(), b"xy");
        assert_eq!(disk.stats().fsyncs, 2);
    }

    fn slept(latency_ms: u64) -> SimulatedDisk {
        SimulatedDisk::new(DiskConfig::with_latency(Duration::from_millis(latency_ms)))
    }

    /// Begins a flush of everything appended; the instant it completes.
    fn flush_all(disk: &SimulatedDisk, records: u64) -> Instant {
        disk.begin_flush(u64::MAX, records)
            .done()
            .expect("a flush past the end is always owed")
    }

    #[test]
    fn bytes_become_durable_when_the_flush_completes_not_when_it_begins() {
        let disk = slept(50);
        disk.append(b"in flight");
        let done = flush_all(&disk, 1);
        assert!(done > Instant::now(), "the flush takes its latency");
        // Mid-flush nothing is durable, and a crash keeps nothing.
        assert_eq!(disk.durable_len(), 0);
        disk.crash();
        assert_eq!(disk.len(), 0);
        wait_until(done);
        assert_eq!(disk.durable_len(), 0, "the crash cancelled the flush");

        // The same sequence left to complete keeps the bytes.
        disk.append(b"flushed");
        wait_until(flush_all(&disk, 1));
        disk.append(b" volatile");
        disk.crash();
        assert_eq!(disk.durable_contents(), b"flushed");
    }

    #[test]
    fn a_waiting_flush_absorbs_appends_and_requests_until_its_turn() {
        let disk = slept(50);
        disk.append(b"a");
        let first = flush_all(&disk, 1);
        // The channel is busy: the next request queues behind it for one
        // more latency, and a third joins the queued flush.
        disk.append(b"b");
        let second = flush_all(&disk, 1);
        assert_eq!(second, first + Duration::from_millis(50));
        disk.append(b"c");
        let joined = Flush::Begun {
            done: second,
            batch: 2,
            fresh: false,
        };
        assert_eq!(disk.begin_flush(3, 1), joined, "joined, not queued behind");
        // Appended before the queued flush started, never requested: covered.
        disk.append(b"d");
        // Bytes the flush being written covers need no other.
        assert_eq!(disk.begin_flush(1, 7), Flush::Covered(first));

        wait_until(first);
        assert_eq!(disk.durable_contents(), b"a");
        assert_eq!(disk.begin_flush(1, 7), Flush::Durable);
        assert_eq!(disk.begin_flush(4, 7), Flush::Covered(second));
        wait_until(second);
        assert_eq!(disk.durable_contents(), b"abcd");
        let stats = disk.stats();
        assert_eq!(stats.fsyncs, 2);
        assert_eq!(stats.group_commit.records, 3);
        assert_eq!(stats.group_commit.max_group, 2);
    }

    #[test]
    fn jitter_is_bounded_and_deterministic_per_device() {
        let disk = SimulatedDisk::new(DiskConfig {
            fsync_latency: Duration::from_millis(1),
            fsync_jitter: Duration::from_millis(4),
            sleep: false,
            ..DiskConfig::default()
        });
        // Jitter must never exceed the configured bound.
        let mut state = disk.state.lock();
        for _ in 0..100 {
            let j = disk.jitter(&mut state);
            assert!(j <= Duration::from_millis(4));
        }
    }

    #[test]
    fn replace_swaps_contents_durably() {
        let disk = SimulatedDisk::instant();
        disk.append(b"old contents");
        disk.fsync(1);
        disk.append(b"volatile");
        disk.replace(b"new".to_vec());
        assert_eq!(disk.len(), 3);
        assert_eq!(disk.durable_len(), 3);
        assert_eq!(disk.durable_contents(), b"new");
        // The replacement survives a crash without an explicit fsync.
        disk.crash();
        assert_eq!(disk.durable_contents(), b"new");
    }

    #[test]
    fn clones_share_the_same_underlying_device() {
        let disk = SimulatedDisk::instant();
        let clone = disk.clone();
        disk.append(b"abc");
        assert_eq!(clone.len(), 3);
        clone.fsync(1);
        assert_eq!(disk.durable_len(), 3);
    }
}
