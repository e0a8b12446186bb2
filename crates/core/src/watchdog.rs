//! The anomaly watchdog: online detectors over the flight recorder's
//! timeline, with automatic diagnostic-bundle capture.
//!
//! The flight recorder (PR 6) turns the metrics registry into a timeline of
//! [`FlightSample`]s; this module watches that timeline *online* for the two
//! anomaly signatures the ROADMAP's observability work identified:
//!
//! * **Retry convoy** — a persistent per-sample abort trickle while commits
//!   continue: transactions fighting over the same hot rows re-certify in
//!   lockstep, so every sampling window shows fresh certification aborts
//!   (the TPC-B slow-mode signature).
//! * **Drain stall** — commits stop entirely while WAL fsyncs keep arriving
//!   at a slow heartbeat (the rare 15.5 s drain-tail relapse: ~1 Hz windows
//!   of two fsyncs each with zero committed transactions).
//!
//! Detection is a pure function over sample windows ([`detect`]), so the
//! thresholds are deterministically testable with hand-built snapshots; the
//! [`Watchdog`] wraps it in a sampling thread and, on first trigger per
//! anomaly kind, writes a [`DiagnosticBundle`]
//! to disk so the evidence is captured at the moment the anomaly happens.

use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use tashkent_common::metrics::GaugeId;
use tashkent_common::{CounterId, MetricsRegistry};

use crate::bundle::DiagnosticBundle;
use crate::flight::FlightSample;

/// Which anomaly signature a detector matched.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnomalyKind {
    /// Persistent per-sample abort trickle while commits continue.
    RetryConvoy,
    /// Commits stopped entirely while WAL fsyncs keep a slow heartbeat.
    DrainStall,
}

impl AnomalyKind {
    /// Short label used in bundle file names (`bundle-<label>-…`).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            AnomalyKind::RetryConvoy => "convoy",
            AnomalyKind::DrainStall => "stall",
        }
    }
}

impl std::fmt::Display for AnomalyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// A detector's conclusion: what fired and the evidence window behind it.
#[derive(Debug, Clone)]
pub struct Verdict {
    /// The matched signature.
    pub kind: AnomalyKind,
    /// Human-readable evidence summary (window deltas).
    pub detail: String,
    /// Number of consecutive samples that matched.
    pub window: usize,
}

impl std::fmt::Display for Verdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} over {} consecutive samples: {}",
            self.kind, self.window, self.detail
        )
    }
}

/// Detector thresholds; defaults in parentheses.
#[derive(Debug, Clone)]
pub struct WatchdogConfig {
    /// Consecutive sample deltas that must all show the abort trickle (8).
    pub convoy_window: usize,
    /// Minimum aborted transactions per sample delta to count as trickle (1).
    pub convoy_min_aborts: u64,
    /// Consecutive sample deltas with zero commits that constitute a stall (4).
    pub stall_window: usize,
    /// Minimum WAL fsyncs across the stalled window — the heartbeat that
    /// distinguishes a drain stall from a merely idle cluster (2).
    pub stall_min_fsyncs: u64,
    /// Samples of post-outage grace: the stall detector stands down while
    /// any retained sample shows [`GaugeId::NodesDown`] non-zero, and the
    /// sample buffer is sized to look this many samples past the stall
    /// window (24 — six seconds at the 250 ms interval, past the 5 s
    /// ordered-commit timeout that bounds how long a transaction caught
    /// mid-flight by a crash can keep the drain busy after the heal).
    pub stall_outage_grace: usize,
    /// Sampling interval of the watchdog's own recorder thread (250 ms).
    pub interval: Duration,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        WatchdogConfig {
            convoy_window: 8,
            convoy_min_aborts: 1,
            stall_window: 4,
            stall_min_fsyncs: 2,
            stall_outage_grace: 24,
            interval: Duration::from_millis(250),
        }
    }
}

impl WatchdogConfig {
    /// How many samples the watchdog retains: the longer detector window
    /// plus one for the delta baseline, stretched to keep the stall
    /// detector's post-outage grace horizon in view.  Detectors still fire
    /// as soon as their own window fills — retention only bounds how far
    /// back the outage stand-down can see.
    #[must_use]
    pub fn samples_needed(&self) -> usize {
        self.convoy_window
            .max(self.stall_window + self.stall_outage_grace)
            + 1
    }
}

fn delta(samples: &[FlightSample], counter: CounterId, i: usize) -> u64 {
    samples[i]
        .snapshot
        .counter(counter)
        .saturating_sub(samples[i - 1].snapshot.counter(counter))
}

/// Runs both detectors over a flight timeline (oldest sample first) and
/// returns the first matching verdict, convoy checked first.
///
/// Pure: the watchdog thread calls this on its own samples, and tests call
/// it on hand-built timelines, so the thresholds behave identically in both.
#[must_use]
pub fn detect(samples: &[FlightSample], config: &WatchdogConfig) -> Option<Verdict> {
    detect_convoy(samples, config).or_else(|| detect_stall(samples, config))
}

/// The retry-convoy signature: every one of the last `convoy_window` sample
/// deltas aborted at least `convoy_min_aborts` transactions *and* committed
/// at least one — sustained conflict churn alongside progress, not a burst
/// and not an outage.
fn detect_convoy(samples: &[FlightSample], config: &WatchdogConfig) -> Option<Verdict> {
    let window = config.convoy_window.max(1);
    if samples.len() < window + 1 {
        return None;
    }
    let first = samples.len() - window;
    let mut aborted = 0u64;
    let mut committed = 0u64;
    for i in first..samples.len() {
        let aborts = delta(samples, CounterId::TxAborted, i);
        let commits = delta(samples, CounterId::TxCommitted, i);
        if aborts < config.convoy_min_aborts || commits == 0 {
            return None;
        }
        aborted += aborts;
        committed += commits;
    }
    Some(Verdict {
        kind: AnomalyKind::RetryConvoy,
        detail: format!(
            "{aborted} aborts across {window} consecutive samples \
             (>= {} per sample) while {committed} transactions committed",
            config.convoy_min_aborts
        ),
        window,
    })
}

/// The drain-stall signature: the last `stall_window` sample deltas all
/// committed zero transactions while the window as a whole still recorded
/// at least `stall_min_fsyncs` WAL fsyncs — the periodic-fsync heartbeat
/// that separates a wedged commit path from an idle cluster.  On a
/// Tashkent-API replica that heartbeat comes only from local commits and
/// checkpoints: remote installs append their WAL records without a flush,
/// so a replica that only installs adds no fsyncs of its own.
///
/// The detector stands down while fault injection touches the cluster, and
/// through a grace horizon after the heal: commits stopping during (or in
/// the aftermath of) an outage is *expected* behavior, and transactions
/// caught mid-flight by a crash may legitimately keep the drain busy for up
/// to the 5 s ordered-commit timeout after the heal.  Two pieces of
/// evidence, both checked over every retained sample (the buffer is sized
/// by [`WatchdogConfig::samples_needed`] to cover `stall_outage_grace`
/// samples past the stall window):
///
/// * **Level** — `GaugeId::NodesDown` non-zero in any sample: part of the
///   cluster is (or recently was) down.
/// * **Edge** — the `FaultTransitions` counter moved across the buffer: a
///   crash or recovery fired inside the lookback, even if the whole
///   crash/recover pair fell between two samples where the gauge never
///   shows it.
/// * **Apply progress** — `RemoteInstalls` advanced during the stall window
///   itself: the cluster is replaying a recovered replica's backlog (which
///   can outlive any fixed grace horizon), not wedged.  The genuine
///   pathology installs nothing — its applies keep aborting in a
///   deadlock-retry loop, so only the fsync heartbeat moves.
///
/// The judgment only applies to a whole, settled cluster — exactly where
/// the historical drain-tail pathology lived.
fn detect_stall(samples: &[FlightSample], config: &WatchdogConfig) -> Option<Verdict> {
    let window = config.stall_window.max(1);
    if samples.len() < window + 1 {
        return None;
    }
    let first = samples.len() - window;
    if samples
        .iter()
        .any(|s| s.snapshot.gauge(GaugeId::NodesDown).0 > 0)
    {
        return None;
    }
    let transitions = samples[samples.len() - 1]
        .snapshot
        .counter(CounterId::FaultTransitions)
        .saturating_sub(samples[0].snapshot.counter(CounterId::FaultTransitions));
    if transitions != 0 {
        return None;
    }
    let mut fsyncs = 0u64;
    let mut installs = 0u64;
    for i in first..samples.len() {
        if delta(samples, CounterId::TxCommitted, i) != 0 {
            return None;
        }
        fsyncs += delta(samples, CounterId::WalFsyncs, i);
        installs += delta(samples, CounterId::RemoteInstalls, i);
    }
    // Remote writesets landing during the window mean the cluster is
    // *applying* — a recovered replica replaying a backlog thousands of
    // versions deep (commits queue behind the catch-up, sometimes for
    // seconds past any grace horizon).  A wedged commit path installs
    // nothing: the historical drain-tail pathology was a deadlock-retry
    // loop whose applies kept aborting, so only the fsync heartbeat moved.
    if installs != 0 {
        return None;
    }
    if fsyncs < config.stall_min_fsyncs {
        return None;
    }
    Some(Verdict {
        kind: AnomalyKind::DrainStall,
        detail: format!(
            "commits stopped for {window} consecutive samples while \
             {fsyncs} WAL fsyncs kept the heartbeat"
        ),
        window,
    })
}

/// A fired anomaly together with where its evidence landed on disk (`None`
/// if writing the bundle failed; the verdict is kept either way).
#[derive(Debug, Clone)]
pub struct FiredAnomaly {
    /// The detector's verdict.
    pub verdict: Verdict,
    /// Path of the captured diagnostic bundle.
    pub bundle: Option<PathBuf>,
}

type CaptureFn = dyn Fn(&Verdict) -> DiagnosticBundle + Send + Sync;

struct WatchdogShared {
    fired: Mutex<Vec<FiredAnomaly>>,
    stop: AtomicBool,
}

/// A background thread sampling a [`MetricsRegistry`] and running the
/// anomaly detectors online.  On the first trigger of each [`AnomalyKind`]
/// it captures a diagnostic bundle (via the closure handed to
/// [`Watchdog::start`], typically [`Cluster::diagnostic_bundle`]) and writes
/// it under the bundle directory.
///
/// Dropping the watchdog stops and joins the thread.
///
/// [`Cluster::diagnostic_bundle`]: crate::Cluster::diagnostic_bundle
pub struct Watchdog {
    shared: Arc<WatchdogShared>,
    handle: Option<thread::JoinHandle<()>>,
}

impl std::fmt::Debug for Watchdog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Watchdog")
            .field("fired", &self.shared.fired.lock().len())
            .finish()
    }
}

impl Watchdog {
    /// Starts the watchdog thread over `registry`.  `capture` builds the
    /// diagnostic bundle when a detector fires; the watchdog writes it to
    /// the default bundle directory (see
    /// [`DiagnosticBundle::write_default`]).
    #[must_use]
    pub fn start(
        registry: Arc<MetricsRegistry>,
        config: WatchdogConfig,
        capture: Box<CaptureFn>,
    ) -> Self {
        let shared = Arc::new(WatchdogShared {
            fired: Mutex::new(Vec::new()),
            stop: AtomicBool::new(false),
        });
        let thread_shared = Arc::clone(&shared);
        let handle = thread::Builder::new()
            .name("anomaly-watchdog".into())
            .spawn(move || {
                let started = Instant::now();
                let keep = config.samples_needed();
                let mut samples: VecDeque<FlightSample> = VecDeque::with_capacity(keep);
                let mut convoy_fired = false;
                let mut stall_fired = false;
                let tick = config
                    .interval
                    .min(Duration::from_millis(10))
                    .max(Duration::from_millis(1));
                let mut next_sample = started + config.interval;
                while !thread_shared.stop.load(Ordering::Relaxed) {
                    thread::sleep(tick);
                    if Instant::now() < next_sample {
                        continue;
                    }
                    next_sample += config.interval;
                    if samples.len() == keep {
                        samples.pop_front();
                    }
                    samples.push_back(FlightSample {
                        at: started.elapsed(),
                        snapshot: registry.snapshot(),
                    });
                    let timeline: Vec<FlightSample> = samples.iter().cloned().collect();
                    let Some(verdict) = detect(&timeline, &config) else {
                        continue;
                    };
                    let already = match verdict.kind {
                        AnomalyKind::RetryConvoy => std::mem::replace(&mut convoy_fired, true),
                        AnomalyKind::DrainStall => std::mem::replace(&mut stall_fired, true),
                    };
                    if already {
                        continue;
                    }
                    let bundle = capture(&verdict);
                    let path = bundle.write_default().ok();
                    thread_shared
                        .fired
                        .lock()
                        .push(FiredAnomaly { verdict, bundle: path });
                }
            })
            .expect("spawning the anomaly-watchdog thread");
        Watchdog {
            shared,
            handle: Some(handle),
        }
    }

    /// The anomalies fired so far, oldest first.
    #[must_use]
    pub fn fired(&self) -> Vec<FiredAnomaly> {
        self.shared.fired.lock().clone()
    }

    /// Stops the watchdog thread and returns everything that fired.
    #[must_use]
    pub fn stop(mut self) -> Vec<FiredAnomaly> {
        self.stop_thread();
        self.shared.fired.lock().drain(..).collect()
    }

    fn stop_thread(&mut self) {
        self.shared.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        self.stop_thread();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds a deterministic flight timeline by mutating one registry
    /// between snapshots — the same shape the watchdog thread sees, with
    /// no threads and no clocks involved.
    struct TimelineBuilder {
        registry: MetricsRegistry,
        samples: Vec<FlightSample>,
    }

    impl TimelineBuilder {
        fn new() -> Self {
            let registry = MetricsRegistry::enabled();
            let samples = vec![FlightSample {
                at: Duration::ZERO,
                snapshot: registry.snapshot(),
            }];
            TimelineBuilder { registry, samples }
        }

        /// One sampling interval in which the given counter deltas landed.
        fn tick(&mut self, commits: u64, aborts: u64, fsyncs: u64) -> &mut Self {
            self.registry.add(CounterId::TxCommitted, commits);
            self.registry.add(CounterId::TxAborted, aborts);
            self.registry.add(CounterId::WalFsyncs, fsyncs);
            self.samples.push(FlightSample {
                at: Duration::from_millis(250 * self.samples.len() as u64),
                snapshot: self.registry.snapshot(),
            });
            self
        }
    }

    fn config() -> WatchdogConfig {
        WatchdogConfig {
            convoy_window: 4,
            convoy_min_aborts: 1,
            stall_window: 3,
            stall_min_fsyncs: 2,
            stall_outage_grace: 4,
            interval: Duration::from_millis(250),
        }
    }

    #[test]
    fn convoy_detector_fires_on_a_persistent_abort_trickle() {
        let mut t = TimelineBuilder::new();
        // Healthy warm-up, then four consecutive windows that each commit
        // and abort — the synthetic retry convoy.
        t.tick(50, 0, 1).tick(48, 0, 1);
        for _ in 0..4 {
            t.tick(30, 5, 1);
        }
        let verdict = detect(&t.samples, &config()).expect("convoy must fire");
        assert_eq!(verdict.kind, AnomalyKind::RetryConvoy);
        assert_eq!(verdict.window, 4);
        assert!(verdict.detail.contains("20 aborts"), "{}", verdict.detail);
    }

    #[test]
    fn convoy_detector_ignores_a_single_abort_burst() {
        let mut t = TimelineBuilder::new();
        t.tick(50, 0, 1).tick(10, 40, 1).tick(50, 0, 1).tick(50, 0, 1).tick(50, 0, 1);
        assert!(detect(&t.samples, &config()).is_none());
    }

    #[test]
    fn stall_detector_fires_when_commits_stop_but_fsyncs_heartbeat() {
        let mut t = TimelineBuilder::new();
        // Load, then the drain-tail signature: zero commits per window with
        // the slow fsync heartbeat still ticking.
        t.tick(50, 1, 4).tick(50, 0, 4);
        t.tick(0, 0, 1).tick(0, 0, 0).tick(0, 0, 1);
        let verdict = detect(&t.samples, &config()).expect("stall must fire");
        assert_eq!(verdict.kind, AnomalyKind::DrainStall);
        assert_eq!(verdict.window, 3);
        assert!(verdict.detail.contains("2 WAL fsyncs"), "{}", verdict.detail);
    }

    #[test]
    fn stall_detector_stands_down_while_fault_injection_holds_nodes_down() {
        let mut t = TimelineBuilder::new();
        t.tick(50, 1, 4).tick(50, 0, 4);
        // A certifier shard group goes down: commits stop, fsyncs heartbeat —
        // the stall signature, but explained by the outage.
        t.registry.gauge_set(GaugeId::NodesDown, 2);
        t.tick(0, 0, 1).tick(0, 0, 1).tick(0, 0, 1);
        assert!(
            detect(&t.samples, &config()).is_none(),
            "outage windows must not read as drain stalls"
        );
        // Nodes recover.  While the outage samples are still retained the
        // grace holds (the drain may be working off transactions the crash
        // caught mid-flight) …
        t.registry.gauge_set(GaugeId::NodesDown, 0);
        t.tick(0, 0, 1).tick(0, 0, 1).tick(0, 0, 1).tick(0, 0, 1);
        assert!(
            detect(&t.samples, &config()).is_none(),
            "the post-outage grace horizon must hold while outage samples remain"
        );
        // … but once the buffer has evicted the outage (all retained samples
        // show a whole cluster), the same signature is a real stall again.
        let settled = &t.samples[6..];
        let verdict = detect(settled, &config()).expect("post-grace stall must fire");
        assert_eq!(verdict.kind, AnomalyKind::DrainStall);
    }

    #[test]
    fn stall_detector_stands_down_after_a_sub_sample_crash_recover_pair() {
        let mut t = TimelineBuilder::new();
        t.tick(50, 1, 4).tick(50, 0, 4);
        // A crash/recover pair lands entirely between two samples: the
        // NodesDown gauge reads zero at every sample instant, but the
        // transition counter moved — and the aftermath (clients waiting out
        // their outage timeouts) shows the stall signature.
        t.registry.incr(CounterId::FaultTransitions);
        t.registry.incr(CounterId::FaultTransitions);
        t.tick(0, 0, 1).tick(0, 0, 1).tick(0, 0, 1);
        assert!(
            detect(&t.samples, &config()).is_none(),
            "a fault transition inside the lookback must suppress the stall"
        );
        // Once the transition ages out of the retained buffer, the same
        // signature fires.
        t.tick(0, 0, 1).tick(0, 0, 1).tick(0, 0, 1).tick(0, 0, 1);
        let settled = &t.samples[6..];
        let verdict = detect(settled, &config()).expect("post-grace stall must fire");
        assert_eq!(verdict.kind, AnomalyKind::DrainStall);
    }

    #[test]
    fn stall_detector_stands_down_while_catch_up_applies_make_progress() {
        let mut t = TimelineBuilder::new();
        t.tick(50, 1, 4).tick(50, 0, 4);
        // A recovered replica replays its backlog: commits queue behind the
        // catch-up (zero per window) while remote installs pour in.
        for _ in 0..4 {
            t.registry.add(CounterId::RemoteInstalls, 500);
            t.tick(0, 0, 3);
        }
        assert!(
            detect(&t.samples, &config()).is_none(),
            "a catch-up replay is apply progress, not a wedged commit path"
        );
        // The backlog drains, installs go quiet, commits still zero — now
        // it is the real signature.
        t.tick(0, 0, 1).tick(0, 0, 1).tick(0, 0, 1);
        let verdict = detect(&t.samples, &config()).expect("post-catch-up stall must fire");
        assert_eq!(verdict.kind, AnomalyKind::DrainStall);
    }

    #[test]
    fn stall_detector_ignores_an_idle_cluster_without_fsyncs() {
        let mut t = TimelineBuilder::new();
        t.tick(50, 0, 4);
        for _ in 0..5 {
            t.tick(0, 0, 0); // idle: no commits, but no heartbeat either
        }
        assert!(detect(&t.samples, &config()).is_none());
    }

    #[test]
    fn detectors_need_a_full_window_before_firing() {
        let mut t = TimelineBuilder::new();
        t.tick(30, 5, 1).tick(30, 5, 1); // trickle, but only two windows
        assert!(detect(&t.samples, &config()).is_none());
    }

    #[test]
    fn watchdog_thread_detects_a_live_synthetic_stall_and_writes_a_bundle() {
        let registry = Arc::new(MetricsRegistry::enabled());
        // Some history so TxCommitted is non-trivial, then silence.
        registry.add(CounterId::TxCommitted, 100);
        let dir = std::env::temp_dir().join(format!(
            "tashkent-watchdog-test-{}",
            std::process::id()
        ));
        let capture_dir = dir.clone();
        let watchdog = Watchdog::start(
            Arc::clone(&registry),
            WatchdogConfig {
                convoy_window: 64, // effectively off for this test
                convoy_min_aborts: 1,
                stall_window: 3,
                stall_min_fsyncs: 2,
                stall_outage_grace: 4,
                interval: Duration::from_millis(5),
            },
            Box::new(move |verdict| {
                let bundle = DiagnosticBundle {
                    kind: verdict.kind.label().to_owned(),
                    detail: verdict.to_string(),
                    snapshot: MetricsRegistry::enabled().snapshot(),
                    traces: Vec::new(),
                    events: Vec::new(),
                    progress: vec![(0, 7)],
                };
                // Redirect this test's bundle away from the shared default
                // directory by writing it ourselves as well.
                let _ = bundle.write_to(&capture_dir);
                bundle
            }),
        );
        // Keep the fsync heartbeat alive while commits stay frozen.
        for _ in 0..60 {
            registry.incr(CounterId::WalFsyncs);
            thread::sleep(Duration::from_millis(5));
            if !watchdog.fired().is_empty() {
                break;
            }
        }
        let fired = watchdog.stop();
        assert!(
            fired.iter().any(|f| f.verdict.kind == AnomalyKind::DrainStall),
            "stall never fired: {fired:?}"
        );
        let written: Vec<_> = std::fs::read_dir(&dir)
            .expect("bundle directory exists")
            .filter_map(|e| e.ok().map(|e| e.path()))
            .collect();
        assert!(!written.is_empty(), "no bundle written to {}", dir.display());
        let bundle = DiagnosticBundle::read_from(&written[0]).expect("bundle round-trips");
        assert_eq!(bundle.kind, "stall");
        assert_eq!(bundle.progress, vec![(0, 7)]);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
