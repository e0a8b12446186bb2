//! Diagnostic bundles: everything the observability spine knows, captured
//! at the moment an anomaly (or an invariant violation) happens and written
//! to one self-contained file.
//!
//! A [`DiagnosticBundle`] packs the metrics snapshot (nesting the
//! [`MetricsSnapshot`] binary encoding), the recent commit-path
//! traces, the full event-journal contents, a per-replica progress vector,
//! and the detector verdict that triggered the capture.  The anomaly
//! watchdog writes one when a detector fires; the fault harness writes one
//! when the oracle reports violations, and attaches the path to the replay
//! instructions so a failing `FAULT_SEED` always points at captured
//! evidence.
//!
//! Bundles land under `TASHKENT_BUNDLE_DIR` (default `target/diagnostics`)
//! as `bundle-<kind>-<pid>-<seq>.tdb` and round-trip through
//! [`DiagnosticBundle::to_bytes`] / [`DiagnosticBundle::from_bytes`].

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use tashkent_common::codec::{Reader, Writer};
use tashkent_common::metrics::STAGE_COUNT;
use tashkent_common::{CommitPathTrace, Error, Event, MetricsSnapshot, Result};

/// Bundle file magic: `"TDB1"`.
pub const BUNDLE_MAGIC: u32 = 0x5444_4231;

/// File extension of on-disk bundles.
pub const BUNDLE_EXTENSION: &str = "tdb";

/// Environment variable overriding the bundle output directory.
pub const BUNDLE_DIR_ENV: &str = "TASHKENT_BUNDLE_DIR";

/// Default bundle output directory (relative to the working directory).
pub const DEFAULT_BUNDLE_DIR: &str = "target/diagnostics";

static BUNDLE_SEQ: AtomicU64 = AtomicU64::new(0);

/// A self-contained capture of the cluster's observability state.
#[derive(Debug, Clone)]
pub struct DiagnosticBundle {
    /// Short capture-kind label, used in the file name: the watchdog writes
    /// `convoy` / `stall`, the fault harness writes `oracle`.
    pub kind: String,
    /// The verdict or violation text that triggered the capture.
    pub detail: String,
    /// Full metrics snapshot at capture time.
    pub snapshot: MetricsSnapshot,
    /// Recent commit-path traces (newest last).
    pub traces: Vec<CommitPathTrace>,
    /// The merged event-journal timeline at capture time.
    pub events: Vec<Event>,
    /// Per-replica progress: `(replica id, installed version)`.
    pub progress: Vec<(u32, u64)>,
}

impl DiagnosticBundle {
    /// The directory bundles are written to: `TASHKENT_BUNDLE_DIR` if set,
    /// otherwise [`DEFAULT_BUNDLE_DIR`].
    #[must_use]
    pub fn default_dir() -> PathBuf {
        std::env::var_os(BUNDLE_DIR_ENV)
            .map_or_else(|| PathBuf::from(DEFAULT_BUNDLE_DIR), PathBuf::from)
    }

    /// Serialises the bundle on the shared [`tashkent_common::codec`]
    /// writer, nesting the metrics snapshot's own encoding.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let snapshot = self.snapshot.to_bytes();
        let mut out = Vec::with_capacity(512 + snapshot.len());
        out.put_u32(BUNDLE_MAGIC);
        out.put_bytes32(self.kind.as_bytes());
        out.put_bytes32(self.detail.as_bytes());
        out.put_bytes32(&snapshot);
        out.put_u32(self.traces.len() as u32);
        for trace in &self.traces {
            out.put_u64(trace.tx);
            out.put_u64(trace.started_micros);
            out.put_u8(STAGE_COUNT as u8);
            trace.marks.iter().for_each(|&mark| out.put_u64(mark));
        }
        out.put_u32(self.events.len() as u32);
        for event in &self.events {
            for word in event.encode() {
                out.put_u64(word);
            }
        }
        out.put_u32(self.progress.len() as u32);
        for (replica, version) in &self.progress {
            out.put_u32(*replica);
            out.put_u64(*version);
        }
        out
    }

    /// Decodes a bundle previously produced by [`DiagnosticBundle::to_bytes`].
    ///
    /// # Errors
    ///
    /// [`Error::Corruption`] on a bad magic number, truncated input, or an
    /// event record that does not decode.
    pub fn from_bytes(bytes: &[u8]) -> Result<DiagnosticBundle> {
        let mut r = Reader::new(bytes);
        let magic = r.u32("diagnostic bundle magic")?;
        if magic != BUNDLE_MAGIC {
            return Err(Error::Corruption(format!(
                "diagnostic bundle magic mismatch: {magic:#010x}"
            )));
        }
        let kind = r.str32("bundle kind")?;
        let detail = r.str32("bundle detail")?;
        let snapshot = MetricsSnapshot::from_bytes(r.bytes32("bundle metrics snapshot")?)?;
        let trace_count = r.u32("trace count")? as usize;
        let traces = r.vec(trace_count, |r| {
            let tx = r.u64("trace tx")?;
            let started_micros = r.u64("trace start")?;
            let marks_len = r.u8("trace mark count")? as usize;
            if marks_len != STAGE_COUNT {
                return Err(Error::Corruption(format!(
                    "trace mark count {marks_len} != stage count {STAGE_COUNT}"
                )));
            }
            let mut marks = [0u64; STAGE_COUNT];
            for mark in &mut marks {
                *mark = r.u64("trace mark")?;
            }
            Ok(CommitPathTrace { tx, started_micros, marks })
        })?;
        let event_count = r.u32("event count")? as usize;
        let events = r.vec(event_count, |r| {
            let words = [r.u64("event")?, r.u64("event")?, r.u64("event")?, r.u64("event")?];
            Event::decode(words).ok_or_else(|| {
                Error::Corruption("diagnostic bundle holds an undecodable event".into())
            })
        })?;
        let progress_count = r.u32("progress count")? as usize;
        let progress = r.vec(progress_count, |r| {
            Ok((r.u32("progress replica")?, r.u64("progress version")?))
        })?;
        Ok(DiagnosticBundle {
            kind,
            detail,
            snapshot,
            traces,
            events,
            progress,
        })
    }

    /// Writes the bundle into `dir` (created if missing) as
    /// `bundle-<kind>-<pid>-<seq>.tdb` and returns the path.
    ///
    /// # Errors
    ///
    /// [`Error::Io`] if the directory cannot be created or the file cannot
    /// be written.
    pub fn write_to(&self, dir: &Path) -> Result<PathBuf> {
        std::fs::create_dir_all(dir)
            .map_err(|e| Error::Io(format!("creating bundle directory {}: {e}", dir.display())))?;
        let seq = BUNDLE_SEQ.fetch_add(1, Ordering::Relaxed);
        let path = dir.join(format!(
            "bundle-{}-{}-{seq}.{BUNDLE_EXTENSION}",
            self.kind,
            std::process::id()
        ));
        std::fs::write(&path, self.to_bytes())
            .map_err(|e| Error::Io(format!("writing bundle {}: {e}", path.display())))?;
        Ok(path)
    }

    /// Writes the bundle into [`DiagnosticBundle::default_dir`].
    ///
    /// # Errors
    ///
    /// As for [`DiagnosticBundle::write_to`].
    pub fn write_default(&self) -> Result<PathBuf> {
        self.write_to(&DiagnosticBundle::default_dir())
    }

    /// Reads a bundle back from disk.
    ///
    /// # Errors
    ///
    /// [`Error::Io`] if the file cannot be read, [`Error::Corruption`] if it
    /// does not decode.
    pub fn read_from(path: &Path) -> Result<DiagnosticBundle> {
        let bytes = std::fs::read(path)
            .map_err(|e| Error::Io(format!("reading bundle {}: {e}", path.display())))?;
        DiagnosticBundle::from_bytes(&bytes)
    }
}

#[cfg(test)]
mod tests {
    use tashkent_common::metrics::{CounterId, TraceTimer};
    use tashkent_common::{Component, EventKind, MetricsRegistry, Stage};

    use super::*;

    fn sample_bundle() -> DiagnosticBundle {
        let registry = MetricsRegistry::enabled();
        registry.incr(CounterId::TxCommitted);
        registry.add(CounterId::WalFsyncs, 3);
        registry.emit(
            Event::new(Component::Certifier, EventKind::CertifyCommit)
                .tx(7)
                .version(42)
                .shard(1),
        );
        registry.emit(Event::new(Component::Wal, EventKind::WalFsync).node(0));
        let mut timer = TraceTimer::new_at(7, registry.uptime_micros());
        for stage in Stage::ALL {
            let _ = timer.mark(stage);
        }
        registry.record_trace(timer.finish());
        DiagnosticBundle {
            kind: "stall".into(),
            detail: "commits stopped for 3 consecutive samples".into(),
            snapshot: registry.snapshot(),
            traces: registry.recent_traces(),
            events: registry.events(),
            progress: vec![(0, 42), (1, 40)],
        }
    }

    #[test]
    fn bundle_round_trips_through_its_codec() {
        let bundle = sample_bundle();
        let decoded = DiagnosticBundle::from_bytes(&bundle.to_bytes()).expect("decodes");
        assert_eq!(decoded.kind, bundle.kind);
        assert_eq!(decoded.detail, bundle.detail);
        assert_eq!(decoded.events, bundle.events);
        assert_eq!(decoded.progress, bundle.progress);
        assert_eq!(decoded.traces.len(), bundle.traces.len());
        assert_eq!(decoded.traces[0].tx, bundle.traces[0].tx);
        assert_eq!(decoded.traces[0].started_micros, bundle.traces[0].started_micros);
        assert_eq!(decoded.traces[0].marks, bundle.traces[0].marks);
        // The nested snapshot reuses the PR 6 codec, whose round-trip is
        // bit-exact — compare the re-encoded bytes.
        assert_eq!(
            decoded.snapshot.to_bytes(),
            bundle.snapshot.to_bytes(),
            "nested metrics snapshot must survive bit-exact"
        );
        assert_eq!(decoded.snapshot.counter(CounterId::WalFsyncs), 3);
        // And the full bundle re-encodes identically.
        assert_eq!(decoded.to_bytes(), bundle.to_bytes());
    }

    #[test]
    fn bundle_decoder_rejects_garbage_and_truncation() {
        assert!(DiagnosticBundle::from_bytes(b"not a bundle").is_err());
        let bytes = sample_bundle().to_bytes();
        for cut in [0, 3, 8, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                DiagnosticBundle::from_bytes(&bytes[..cut]).is_err(),
                "truncation at {cut} must not decode"
            );
        }
    }

    #[test]
    fn bundle_writes_to_disk_and_reads_back() {
        let dir = std::env::temp_dir().join(format!("tashkent-bundle-test-{}", std::process::id()));
        let bundle = sample_bundle();
        let path = bundle.write_to(&dir).expect("bundle written");
        assert!(path.file_name().is_some_and(|n| {
            let n = n.to_string_lossy();
            n.starts_with("bundle-stall-") && n.ends_with(".tdb")
        }));
        let read = DiagnosticBundle::read_from(&path).expect("bundle read back");
        assert_eq!(read.to_bytes(), bundle.to_bytes());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
