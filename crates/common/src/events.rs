//! The causal event journal: typed, timestamped events in lock-free
//! bounded rings, one per component, merged on demand into one
//! causally-ordered cluster timeline.
//!
//! Aggregate counters (the [`crate::metrics`] registry) summarize *how
//! much* happened; the journal records *what happened in what order*.
//! Every event carries the causal identifiers that link the commit path
//! across components — transaction id, global commit version, certifier
//! shard, node — so a merged timeline reads as one story: the proxy began
//! tx 17, shard 1 certified it as version 203, the home shard appended it
//! durably, the WAL fsynced through it, the engine announced it, a remote
//! replica installed it.
//!
//! Design constraints, in order:
//!
//! * **Never torn.**  A reader only ever sees an event exactly as one
//!   writer published it.  Each ring slot is a seqlock of five atomic
//!   words: a writer claims the slot by CAS (odd sequence), stores the
//!   four payload words, then publishes (even sequence); a reader accepts
//!   a slot only if the sequence was even and unchanged around the
//!   payload read.
//! * **Oldest dropped.**  The ring holds the most recent
//!   [`EventRing::capacity`] events; older ones are overwritten.  Under a
//!   pathological full-lap race (one writer stalls mid-publish while the
//!   ring wraps past it) the colliding record is dropped and counted in
//!   [`EventRing::dropped`] instead of tearing the slot.
//! * **Cheap.**  Recording is a handful of atomic operations and no
//!   allocation; a disabled registry short-circuits emission on a single
//!   branch, exactly like the metrics record methods.
//!
//! The journal itself is thread-free and IO-free (this crate's ground
//! rule); the anomaly watchdog and the diagnostic-bundle writer that
//! consume it live in the `tashkent` core crate.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::metrics::{CommitPathTrace, Stage};

/// Number of event-emitting components.
pub const COMPONENT_COUNT: usize = 5;

/// The component that emitted an event — which ring it lands in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Component {
    /// The per-replica transparent proxy (transaction lifecycle).
    Proxy,
    /// The certifier (decisions and durable appends).
    Certifier,
    /// A replica engine's write-ahead log (fsyncs).
    Wal,
    /// A replica's storage engine (ordered-commit announces).
    Engine,
    /// Replica lifecycle (crash, recovery).
    Replica,
}

impl Component {
    /// All components, in [`Component::index`] order.
    pub const ALL: [Component; COMPONENT_COUNT] = [
        Component::Proxy,
        Component::Certifier,
        Component::Wal,
        Component::Engine,
        Component::Replica,
    ];

    /// Dense index of this component.
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            Component::Proxy => 0,
            Component::Certifier => 1,
            Component::Wal => 2,
            Component::Engine => 3,
            Component::Replica => 4,
        }
    }

    /// Human-readable name.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Component::Proxy => "proxy",
            Component::Certifier => "certifier",
            Component::Wal => "wal",
            Component::Engine => "engine",
            Component::Replica => "replica",
        }
    }

    /// Inverse of [`Component::index`]; `None` for out-of-range values
    /// (the bundle decoder's corruption check).
    #[must_use]
    pub fn from_index(index: u8) -> Option<Component> {
        Component::ALL.get(index as usize).copied()
    }
}

/// Number of defined event kinds.
pub const EVENT_KIND_COUNT: usize = 16;

/// What happened.  Kinds are deliberately commit-path-shaped: a grep for
/// one transaction id across the merged timeline reconstructs its journey
/// through every component.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// A proxy began a transaction.
    TxBegin,
    /// A transaction committed at its proxy.
    TxCommit,
    /// A transaction aborted (certification conflict or forced abort).
    TxAbort,
    /// The certifier decided *commit* and assigned a global version.
    CertifyCommit,
    /// The certifier decided *abort*.
    CertifyAbort,
    /// A commit record was appended to its home shard's durable log.
    DurableAppend,
    /// A replica WAL performed a synchronous flush.
    WalFsync,
    /// The engine announced a commit in the global order.
    Announce,
    /// A proxy installed a remote writeset.
    InstallRemote,
    /// A proxy resynchronised its apply pipeline after a failure.
    Resync,
    /// A replica was crashed (fault injection or operator action).
    ReplicaCrash,
    /// A crashed replica recovered and rejoined.
    ReplicaRecover,
    /// A network session completed its handshake (either side).
    SessionOpen,
    /// A network session closed (gracefully or on a broken link).
    SessionClose,
    /// A loopback link's fault state changed (severed or healed).
    LinkFault,
    /// The certifier drained one batched epoch of pending writesets; the
    /// event's `version` field carries the epoch size.
    CertifyBatch,
}

impl EventKind {
    /// All kinds, in [`EventKind::index`] order.
    pub const ALL: [EventKind; EVENT_KIND_COUNT] = [
        EventKind::TxBegin,
        EventKind::TxCommit,
        EventKind::TxAbort,
        EventKind::CertifyCommit,
        EventKind::CertifyAbort,
        EventKind::DurableAppend,
        EventKind::WalFsync,
        EventKind::Announce,
        EventKind::InstallRemote,
        EventKind::Resync,
        EventKind::ReplicaCrash,
        EventKind::ReplicaRecover,
        EventKind::SessionOpen,
        EventKind::SessionClose,
        EventKind::LinkFault,
        EventKind::CertifyBatch,
    ];

    /// Dense index of this kind.
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            EventKind::TxBegin => 0,
            EventKind::TxCommit => 1,
            EventKind::TxAbort => 2,
            EventKind::CertifyCommit => 3,
            EventKind::CertifyAbort => 4,
            EventKind::DurableAppend => 5,
            EventKind::WalFsync => 6,
            EventKind::Announce => 7,
            EventKind::InstallRemote => 8,
            EventKind::Resync => 9,
            EventKind::ReplicaCrash => 10,
            EventKind::ReplicaRecover => 11,
            EventKind::SessionOpen => 12,
            EventKind::SessionClose => 13,
            EventKind::LinkFault => 14,
            EventKind::CertifyBatch => 15,
        }
    }

    /// Human-readable name.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            EventKind::TxBegin => "tx_begin",
            EventKind::TxCommit => "tx_commit",
            EventKind::TxAbort => "tx_abort",
            EventKind::CertifyCommit => "certify_commit",
            EventKind::CertifyAbort => "certify_abort",
            EventKind::DurableAppend => "durable_append",
            EventKind::WalFsync => "wal_fsync",
            EventKind::Announce => "announce",
            EventKind::InstallRemote => "install_remote",
            EventKind::Resync => "resync",
            EventKind::ReplicaCrash => "replica_crash",
            EventKind::ReplicaRecover => "replica_recover",
            EventKind::SessionOpen => "session_open",
            EventKind::SessionClose => "session_close",
            EventKind::LinkFault => "link_fault",
            EventKind::CertifyBatch => "certify_batch",
        }
    }

    /// Inverse of [`EventKind::index`]; `None` for out-of-range values.
    #[must_use]
    pub fn from_index(index: u8) -> Option<EventKind> {
        EventKind::ALL.get(index as usize).copied()
    }
}

/// One journal entry: a typed event with its causal identifiers.
///
/// `at_micros` is microseconds since the owning registry started — one
/// clock for the whole cluster (every component shares the cluster's
/// registry), which is what makes the merged timeline causally ordered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Microseconds since the registry started (stamped by
    /// `MetricsRegistry::emit`; zero until then).
    pub at_micros: u64,
    /// Which component emitted it.
    pub component: Component,
    /// What happened.
    pub kind: EventKind,
    /// Transaction id, or `0` when the event is not tied to one
    /// transaction (e.g. a WAL fsync).
    pub tx: u64,
    /// Global commit version, or `0` when no version is involved yet.
    pub version: u64,
    /// Certifier shard, or [`Event::NO_SHARD`].
    pub shard: u16,
    /// Replica / certifier node, or [`Event::NO_NODE`].
    pub node: u16,
}

impl Event {
    /// Sentinel for "no shard involved".
    pub const NO_SHARD: u16 = u16::MAX;
    /// Sentinel for "no node involved".
    pub const NO_NODE: u16 = u16::MAX;

    /// Creates an event with no causal ids attached; chain the builder
    /// methods to add them.
    #[must_use]
    pub fn new(component: Component, kind: EventKind) -> Event {
        Event {
            at_micros: 0,
            component,
            kind,
            tx: 0,
            version: 0,
            shard: Event::NO_SHARD,
            node: Event::NO_NODE,
        }
    }

    /// Attaches a transaction id.
    #[must_use]
    pub fn tx(mut self, tx: u64) -> Event {
        self.tx = tx;
        self
    }

    /// Attaches a global commit version.
    #[must_use]
    pub fn version(mut self, version: u64) -> Event {
        self.version = version;
        self
    }

    /// Attaches a certifier shard.
    #[must_use]
    pub fn shard(mut self, shard: usize) -> Event {
        self.shard = shard.min(usize::from(u16::MAX - 1)) as u16;
        self
    }

    /// Attaches a replica / certifier node.
    #[must_use]
    pub fn node(mut self, node: usize) -> Event {
        self.node = node.min(usize::from(u16::MAX - 1)) as u16;
        self
    }

    /// Packs the event into the ring's four payload words.  Public so the
    /// diagnostic-bundle codec shares the layout.
    #[must_use]
    pub fn encode(&self) -> [u64; 4] {
        let meta = u64::from(self.kind.index() as u8)
            | (u64::from(self.component.index() as u8) << 8)
            | (u64::from(self.shard) << 16)
            | (u64::from(self.node) << 32);
        [self.at_micros, self.tx, self.version, meta]
    }

    /// Inverse of [`Event::encode`]; `None` if the component or kind byte
    /// is out of range (a corrupt bundle, never a live ring).
    #[must_use]
    pub fn decode(words: [u64; 4]) -> Option<Event> {
        let meta = words[3];
        Some(Event {
            at_micros: words[0],
            tx: words[1],
            version: words[2],
            kind: EventKind::from_index((meta & 0xFF) as u8)?,
            component: Component::from_index(((meta >> 8) & 0xFF) as u8)?,
            shard: ((meta >> 16) & 0xFFFF) as u16,
            node: ((meta >> 32) & 0xFFFF) as u16,
        })
    }
}

impl std::fmt::Display for Event {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:>12} us  {:<9} {:<16}",
            self.at_micros,
            self.component.label(),
            self.kind.label()
        )?;
        if self.tx != 0 {
            write!(f, " tx={}", self.tx)?;
        }
        if self.version != 0 {
            write!(f, " v={}", self.version)?;
        }
        if self.shard != Event::NO_SHARD {
            write!(f, " shard={}", self.shard)?;
        }
        if self.node != Event::NO_NODE {
            write!(f, " node={}", self.node)?;
        }
        Ok(())
    }
}

/// Default per-component ring capacity: deep enough to hold the commit
/// tail that explains an anomaly (a few thousand events at typical rates
/// is a second or two of history), small enough to snapshot cheaply into
/// a bundle.
pub const EVENT_RING_CAPACITY: usize = 2048;

/// Payload words per ring slot.
const WORDS_PER_SLOT: usize = 4;

/// A lock-free bounded ring of [`Event`]s: many concurrent writers, any
/// number of on-demand readers, oldest entries overwritten, reads never
/// torn.  See the module docs for the slot seqlock protocol.
#[derive(Debug)]
pub struct EventRing {
    capacity: usize,
    /// Monotonic ticket counter; ticket `t` writes slot `t % capacity`.
    next: AtomicU64,
    /// Events dropped to avoid tearing a slot (full-lap collisions only).
    dropped: AtomicU64,
    /// Per-slot seqlock: `0` = never written, odd = write in progress,
    /// even `2t+2` = ticket `t` published.
    seqs: Box<[AtomicU64]>,
    /// Slot payloads, [`WORDS_PER_SLOT`] words each.
    words: Box<[AtomicU64]>,
}

impl EventRing {
    /// Creates a ring holding at most `capacity` events.
    #[must_use]
    pub fn new(capacity: usize) -> EventRing {
        let capacity = capacity.max(1);
        EventRing {
            capacity,
            next: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            seqs: (0..capacity).map(|_| AtomicU64::new(0)).collect(),
            words: (0..capacity * WORDS_PER_SLOT)
                .map(|_| AtomicU64::new(0))
                .collect(),
        }
    }

    /// Maximum number of events retained.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Total events ever offered to the ring (including dropped ones).
    #[must_use]
    pub fn issued(&self) -> u64 {
        self.next.load(Ordering::Relaxed)
    }

    /// Events dropped to avoid a torn slot.  Nonzero only under a
    /// full-lap write collision; the overflow path (oldest overwritten)
    /// does not count as a drop.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Records one event.  Lock-free; drops the event (counted) rather
    /// than blocking or tearing when a slot collision is detected.
    pub fn record(&self, event: &Event) {
        let ticket = self.next.fetch_add(1, Ordering::Relaxed);
        let slot = (ticket % self.capacity as u64) as usize;
        let claim = ticket.wrapping_mul(2).wrapping_add(1);
        let prev = self.seqs[slot].load(Ordering::SeqCst);
        // Claim only an idle slot owned by an older generation.  An odd
        // sequence means a stalled writer still owns it; a newer even one
        // means the ring lapped us while we were between the ticket and
        // here.  Either way our record is (or is about to be) the
        // overwritten one — drop it instead of tearing the slot.
        if prev % 2 == 1 || prev >= claim {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        if self.seqs[slot]
            .compare_exchange(prev, claim, Ordering::SeqCst, Ordering::SeqCst)
            .is_err()
        {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        for (i, word) in event.encode().into_iter().enumerate() {
            self.words[slot * WORDS_PER_SLOT + i].store(word, Ordering::SeqCst);
        }
        self.seqs[slot].store(claim.wrapping_add(1), Ordering::SeqCst);
    }

    /// The events currently held, oldest first.  Slots mid-write are
    /// skipped (they belong to newer events than the slot's published
    /// one), so the result is always a consistent, untorn suffix of the
    /// recorded stream.
    #[must_use]
    pub fn snapshot(&self) -> Vec<Event> {
        let mut entries: Vec<(u64, Event)> = Vec::with_capacity(self.capacity);
        for slot in 0..self.capacity {
            let before = self.seqs[slot].load(Ordering::SeqCst);
            if before == 0 || before % 2 == 1 {
                continue;
            }
            let mut words = [0u64; WORDS_PER_SLOT];
            for (i, word) in words.iter_mut().enumerate() {
                *word = self.words[slot * WORDS_PER_SLOT + i].load(Ordering::SeqCst);
            }
            let after = self.seqs[slot].load(Ordering::SeqCst);
            if after != before {
                continue; // overwritten mid-read: the slot's new event
                          // will be in a later snapshot
            }
            let ticket = before / 2 - 1;
            if let Some(event) = Event::decode(words) {
                entries.push((ticket, event));
            }
        }
        entries.sort_by_key(|(ticket, _)| *ticket);
        entries.into_iter().map(|(_, event)| event).collect()
    }
}

/// Merges per-component event streams into one causally-ordered timeline.
///
/// All streams share the registry's clock, so sorting by timestamp *is*
/// the causal order; the sort is stable, so events with equal timestamps
/// keep their per-stream (ticket) order and streams tie-break in the
/// order given (commit-path component order when called via the
/// registry).
#[must_use]
pub fn merge_timelines(streams: Vec<Vec<Event>>) -> Vec<Event> {
    let mut merged: Vec<Event> = streams.into_iter().flatten().collect();
    merged.sort_by_key(|event| event.at_micros);
    merged
}

/// Renders a merged timeline as plain text, one event per line — the
/// `FAULT_SEED` replay companion: grep a transaction id or a version to
/// follow it across components.
#[must_use]
pub fn text_timeline(events: &[Event]) -> String {
    let mut out = String::with_capacity(events.len() * 48);
    for event in events {
        out.push_str(&event.to_string());
        out.push('\n');
    }
    out
}

/// Exports commit-path traces and journal events as Chrome trace / Perfetto
/// JSON (the "trace event format"): one complete-event span (`"ph":"X"`)
/// per transaction per stage, built from each trace's cumulative stage
/// marks, plus one instant event (`"ph":"i"`) per journal entry.
///
/// Load the output in `ui.perfetto.dev` (or `chrome://tracing`): rows are
/// transactions (`tid` = transaction id), spans are stages, instants carry
/// the causal ids as args.
#[must_use]
pub fn chrome_trace_json(events: &[Event], traces: &[CommitPathTrace]) -> String {
    let mut out = String::with_capacity(events.len() * 96 + traces.len() * 512 + 64);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let mut first = true;
    for trace in traces {
        let mut previous = 0u64;
        for stage in Stage::ALL {
            let mark = trace.marks[stage.index()];
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"cat\":\"commit-path\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{},\"dur\":{}}}",
                stage.label(),
                trace.tx,
                trace.started_micros + previous,
                mark.saturating_sub(previous),
            ));
            previous = mark;
        }
    }
    for event in events {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"i\",\"s\":\"g\",\"pid\":1,\"tid\":{},\"ts\":{},\"args\":{{\"version\":{},\"shard\":{},\"node\":{}}}}}",
            event.kind.label(),
            event.component.label(),
            event.tx,
            event.at_micros,
            event.version,
            event.shard,
            event.node,
        ));
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;
    use std::thread;

    use super::*;

    fn event(i: u64) -> Event {
        let mut e = Event::new(Component::Proxy, EventKind::TxCommit)
            .tx(i)
            .version(i.wrapping_mul(31).wrapping_add(7));
        e.at_micros = i;
        e
    }

    #[test]
    fn ring_keeps_the_most_recent_events_in_order() {
        let ring = EventRing::new(8);
        for i in 0..20u64 {
            ring.record(&event(i));
        }
        let events = ring.snapshot();
        assert_eq!(events.len(), 8);
        let txs: Vec<u64> = events.iter().map(|e| e.tx).collect();
        assert_eq!(txs, (12..20).collect::<Vec<u64>>());
        assert_eq!(ring.issued(), 20);
        assert_eq!(ring.dropped(), 0);
    }

    #[test]
    fn ring_under_capacity_returns_everything() {
        let ring = EventRing::new(16);
        for i in 0..5u64 {
            ring.record(&event(i));
        }
        assert_eq!(ring.snapshot().len(), 5);
    }

    #[test]
    fn concurrent_writers_never_produce_torn_events() {
        // Each event's version is a function of its tx; a torn slot would
        // mix two writers' words and break the relation.
        let ring = Arc::new(EventRing::new(64));
        let mut handles = Vec::new();
        for worker in 0..4u64 {
            let ring = Arc::clone(&ring);
            handles.push(thread::spawn(move || {
                for i in 0..2000u64 {
                    ring.record(&event(worker * 1_000_000 + i));
                }
            }));
        }
        let reader_ring = Arc::clone(&ring);
        let reader = thread::spawn(move || {
            for _ in 0..200 {
                for e in reader_ring.snapshot() {
                    assert_eq!(
                        e.version,
                        e.tx.wrapping_mul(31).wrapping_add(7),
                        "torn event: tx {} with version {}",
                        e.tx,
                        e.version
                    );
                }
            }
        });
        for handle in handles {
            handle.join().unwrap();
        }
        reader.join().unwrap();
        let events = ring.snapshot();
        assert!(events.len() <= 64);
        assert_eq!(ring.issued(), 8000);
        // Everything that survived is consistent.
        for e in &events {
            assert_eq!(e.version, e.tx.wrapping_mul(31).wrapping_add(7));
        }
    }

    #[test]
    fn encode_decode_roundtrip() {
        for kind in EventKind::ALL {
            for component in Component::ALL {
                let mut e = Event::new(component, kind)
                    .tx(u64::MAX)
                    .version(12345)
                    .shard(3)
                    .node(7);
                e.at_micros = 99;
                assert_eq!(Event::decode(e.encode()), Some(e));
            }
        }
        // Garbage meta bytes are rejected, not misdecoded.
        assert_eq!(Event::decode([0, 0, 0, 0xFF]), None);
        assert_eq!(Event::decode([0, 0, 0, 0xFF00]), None);
    }

    #[test]
    fn merge_orders_by_time_and_keeps_ties_stable() {
        let mut a = vec![event(1), event(5), event(9)];
        let b = vec![event(2), event(5), event(10)];
        a[1].node = 1; // distinguish the tied pair
        let merged = merge_timelines(vec![a.clone(), b.clone()]);
        assert_eq!(merged.len(), 6);
        for pair in merged.windows(2) {
            assert!(pair[0].at_micros <= pair[1].at_micros);
        }
        // Stable: stream a's t=5 event precedes stream b's.
        let tied: Vec<&Event> = merged.iter().filter(|e| e.at_micros == 5).collect();
        assert_eq!(tied[0].node, 1);
    }

    #[test]
    fn chrome_trace_contains_spans_and_instants() {
        let trace = CommitPathTrace {
            tx: 42,
            started_micros: 100,
            marks: [1, 4, 9, 9, 12, 20],
        };
        let json = chrome_trace_json(&[event(3)], &[trace]);
        assert!(json.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
        assert!(json.ends_with("]}"));
        assert!(json.contains("\"name\":\"certify\""));
        assert!(json.contains("\"tid\":42"));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"i\""));
        // The durable stage was instantaneous: dur 0, not negative.
        assert!(json.contains("\"ts\":109,\"dur\":0"));
    }

    #[test]
    fn text_timeline_is_greppable() {
        let text = text_timeline(&[event(7)]);
        assert!(text.contains("proxy"));
        assert!(text.contains("tx_commit"));
        assert!(text.contains("tx=7"));
        assert!(!text.contains("shard="), "sentinel fields must be omitted");
    }
}
