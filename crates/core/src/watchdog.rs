//! The anomaly watchdog: online detectors over sampled metrics and every
//! replica's commit order, with automatic diagnostic-bundle capture.
//!
//! The watchdog samples the metrics registry, as the flight recorder does,
//! together with each replica's commit order, and watches that timeline
//! *online* for two anomaly signatures:
//!
//! * **Retry convoy** — a persistent per-sample abort trickle while commits
//!   continue: transactions fighting over the same hot rows re-certify in
//!   lockstep, so every sampling window shows fresh certification aborts
//!   (the TPC-B slow-mode signature).
//! * **Drain stall** — a live replica's announce counter stands still while
//!   an order index above it has been handed out: every later commit and
//!   install on that replica waits on that index (the drain-tail relapse).
//!
//! Detection is a pure function over sample windows ([`detect`]), so the
//! thresholds are deterministically testable with hand-built samples; the
//! [`Watchdog`] wraps it in a sampling thread and, on first trigger per
//! anomaly kind, writes a [`DiagnosticBundle`]
//! to disk so the evidence is captured at the moment the anomaly happens.

use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use tashkent_common::{CounterId, MetricsRegistry, MetricsSnapshot, ReplicaId};

use crate::bundle::DiagnosticBundle;
use crate::periodic::Periodic;

/// Which anomaly signature a detector matched.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnomalyKind {
    /// Persistent per-sample abort trickle while commits continue.
    RetryConvoy,
    /// A live replica's commit order stopped announcing.
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
    /// Human-readable evidence summary.
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
    /// Consecutive sample deltas across which a live replica's announce
    /// counter must stand still, with an index above it handed out, to
    /// constitute a stall (4).
    pub stall_window: usize,
    /// Sampling interval of the watchdog's own thread (250 ms).
    pub interval: Duration,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        WatchdogConfig {
            convoy_window: 8,
            convoy_min_aborts: 1,
            stall_window: 4,
            interval: Duration::from_millis(250),
        }
    }
}

impl WatchdogConfig {
    /// How many samples the watchdog retains: the longer detector window
    /// plus one for the delta baseline.
    #[must_use]
    pub fn samples_needed(&self) -> usize {
        self.convoy_window.max(self.stall_window) + 1
    }
}

/// One replica's commit order at a sampling instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplicaOrder {
    /// The replica.
    pub replica: ReplicaId,
    /// The highest order index its proxy has handed out.
    pub handed_out: u64,
    /// Its engine's announce counter: every index up to it has announced.
    pub announced: u64,
    /// `true` while the replica is crashed.
    pub crashed: bool,
}

/// One watchdog sample: the registry snapshot the convoy detector reads and
/// every replica's commit order, which the stall detector reads.
#[derive(Debug, Clone)]
pub struct WatchdogSample {
    /// Time since the watchdog started.
    pub at: Duration,
    /// The registry snapshot taken at that instant.
    pub snapshot: MetricsSnapshot,
    /// Every replica's commit order at that instant.
    pub order: Vec<ReplicaOrder>,
}

fn delta(samples: &[WatchdogSample], counter: CounterId, i: usize) -> u64 {
    samples[i]
        .snapshot
        .counter(counter)
        .saturating_sub(samples[i - 1].snapshot.counter(counter))
}

/// Runs both detectors over a sample timeline (oldest sample first) and
/// returns the first matching verdict, convoy checked first.
///
/// Pure: the watchdog thread calls this on its own samples, and tests call
/// it on hand-built timelines, so the thresholds behave identically in both.
#[must_use]
pub fn detect(samples: &[WatchdogSample], config: &WatchdogConfig) -> Option<Verdict> {
    detect_convoy(samples, config).or_else(|| detect_stall(samples, config))
}

/// The retry-convoy signature: every one of the last `convoy_window` sample
/// deltas aborted at least `convoy_min_aborts` transactions *and* committed
/// at least one — sustained conflict churn alongside progress, not a burst
/// and not an outage.
fn detect_convoy(samples: &[WatchdogSample], config: &WatchdogConfig) -> Option<Verdict> {
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

/// The drain-stall signature, read per replica: a live replica whose
/// announce counter stood still across the last `stall_window` sample
/// deltas while an order index above it was handed out.  A replica
/// announces installs and certified local commits strictly in order-index
/// order, so every later commit on it waits on the index after the
/// counter, and the verdict names that index.
///
/// Nothing else can explain the signature away.  An index is handed out
/// only after certification, so a certifier outage or a severed link
/// leaves none outstanding; an idle replica has handed out nothing past
/// its counter; and a crashed replica is skipped.
fn detect_stall(samples: &[WatchdogSample], config: &WatchdogConfig) -> Option<Verdict> {
    let window = config.stall_window.max(1);
    let span = &samples[samples.len().checked_sub(window + 1)?..];
    let (first, last) = (&span[0], &span[window]);
    last.order.iter().find_map(|now| {
        let stuck = span.iter().all(|sample| {
            sample.order.iter().any(|o| {
                o.replica == now.replica
                    && !o.crashed
                    && o.announced == now.announced
                    && o.handed_out > o.announced
            })
        });
        stuck.then(|| Verdict {
            kind: AnomalyKind::DrainStall,
            detail: format!(
                "{} waits on order index {} for {} ms: announced through {} \
                 with {} handed out",
                now.replica,
                now.announced + 1,
                last.at.saturating_sub(first.at).as_millis(),
                now.announced,
                now.handed_out
            ),
            window,
        })
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

type OrderFn = dyn Fn() -> Vec<ReplicaOrder> + Send + Sync;
type CaptureFn = dyn Fn(&Verdict) -> DiagnosticBundle + Send + Sync;

/// A background thread sampling a [`MetricsRegistry`] and every replica's
/// commit order and running the anomaly detectors online.  On the first
/// trigger of each [`AnomalyKind`] it captures a diagnostic bundle (via the
/// closure handed to [`Watchdog::start`], typically
/// [`Cluster::diagnostic_bundle`]) and writes it under the bundle directory.
///
/// Dropping the watchdog stops and joins the thread.
///
/// [`Cluster::diagnostic_bundle`]: crate::Cluster::diagnostic_bundle
pub struct Watchdog {
    fired: Arc<Mutex<Vec<FiredAnomaly>>>,
    thread: Periodic,
}

impl std::fmt::Debug for Watchdog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Watchdog")
            .field("fired", &self.fired.lock().len())
            .finish()
    }
}

impl Watchdog {
    /// Starts the watchdog thread over `registry`.  `order` reads every
    /// replica's commit order at each sample; `capture` builds the
    /// diagnostic bundle when a detector fires, and the watchdog writes it
    /// to the default bundle directory (see
    /// [`DiagnosticBundle::write_default`]).
    #[must_use]
    pub fn start(
        registry: Arc<MetricsRegistry>,
        config: WatchdogConfig,
        order: Box<OrderFn>,
        capture: Box<CaptureFn>,
    ) -> Self {
        let fired = Arc::new(Mutex::new(Vec::new()));
        let log = Arc::clone(&fired);
        let started = Instant::now();
        let keep = config.samples_needed();
        let mut samples: VecDeque<WatchdogSample> = VecDeque::with_capacity(keep);
        let mut seen: Vec<AnomalyKind> = Vec::new();
        let thread = Periodic::start("anomaly-watchdog", config.interval, move || {
            if samples.len() == keep {
                samples.pop_front();
            }
            samples.push_back(WatchdogSample {
                at: started.elapsed(),
                snapshot: registry.snapshot(),
                order: order(),
            });
            let Some(verdict) = detect(samples.make_contiguous(), &config) else {
                return;
            };
            if seen.contains(&verdict.kind) {
                return;
            }
            seen.push(verdict.kind);
            let bundle = capture(&verdict).write_default().ok();
            log.lock().push(FiredAnomaly { verdict, bundle });
        });
        Watchdog { fired, thread }
    }

    /// The anomalies fired so far, oldest first.
    #[must_use]
    pub fn fired(&self) -> Vec<FiredAnomaly> {
        self.fired.lock().clone()
    }

    /// Stops the watchdog thread and returns everything that fired.
    #[must_use]
    pub fn stop(mut self) -> Vec<FiredAnomaly> {
        self.thread.stop();
        self.fired.lock().drain(..).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds a deterministic sample timeline by mutating one registry and
    /// one commit-order table between samples — the same shape the
    /// watchdog thread sees, with no threads and no clocks involved.
    struct TimelineBuilder {
        registry: MetricsRegistry,
        order: Vec<ReplicaOrder>,
        samples: Vec<WatchdogSample>,
    }

    impl TimelineBuilder {
        fn new() -> Self {
            let mut t = TimelineBuilder {
                registry: MetricsRegistry::enabled(),
                order: Vec::new(),
                samples: Vec::new(),
            };
            t.tick(0, 0);
            t
        }

        /// Sets one replica's commit order for the samples that follow.
        fn order(
            &mut self,
            replica: u32,
            handed_out: u64,
            announced: u64,
            crashed: bool,
        ) -> &mut Self {
            let entry = ReplicaOrder {
                replica: ReplicaId(replica),
                handed_out,
                announced,
                crashed,
            };
            match self.order.iter_mut().find(|o| o.replica == entry.replica) {
                Some(o) => *o = entry,
                None => self.order.push(entry),
            }
            self
        }

        /// One sampling interval in which the given counter deltas landed.
        fn tick(&mut self, commits: u64, aborts: u64) -> &mut Self {
            self.registry.add(CounterId::TxCommitted, commits);
            self.registry.add(CounterId::TxAborted, aborts);
            self.samples.push(WatchdogSample {
                at: Duration::from_millis(250 * self.samples.len() as u64),
                snapshot: self.registry.snapshot(),
                order: self.order.clone(),
            });
            self
        }
    }

    fn config() -> WatchdogConfig {
        WatchdogConfig {
            convoy_window: 4,
            convoy_min_aborts: 1,
            stall_window: 3,
            interval: Duration::from_millis(250),
        }
    }

    #[test]
    fn convoy_detector_fires_on_a_persistent_abort_trickle() {
        let mut t = TimelineBuilder::new();
        // Healthy warm-up, then four consecutive windows that each commit
        // and abort — the synthetic retry convoy.
        t.tick(50, 0).tick(48, 0);
        for _ in 0..4 {
            t.tick(30, 5);
        }
        let verdict = detect(&t.samples, &config()).expect("convoy must fire");
        assert_eq!(verdict.kind, AnomalyKind::RetryConvoy);
        assert_eq!(verdict.window, 4);
        assert!(verdict.detail.contains("20 aborts"), "{}", verdict.detail);
    }

    #[test]
    fn convoy_detector_ignores_a_single_abort_burst() {
        let mut t = TimelineBuilder::new();
        t.tick(50, 0)
            .tick(10, 40)
            .tick(50, 0)
            .tick(50, 0)
            .tick(50, 0);
        assert!(detect(&t.samples, &config()).is_none());
    }

    #[test]
    fn stall_detector_fires_on_a_stuck_replica_and_names_its_index() {
        let mut t = TimelineBuilder::new();
        t.order(0, 5, 5, false).tick(10, 0);
        // Index 8 never announces; 9 and 10 queue behind it.
        t.order(0, 10, 7, false);
        t.tick(0, 0).tick(0, 0).tick(0, 0).tick(0, 0);
        let verdict = detect(&t.samples, &config()).expect("stall must fire");
        assert_eq!(verdict.kind, AnomalyKind::DrainStall);
        assert_eq!(verdict.window, 3);
        assert!(
            verdict
                .detail
                .contains("replica-0 waits on order index 8 for 750 ms"),
            "{}",
            verdict.detail
        );
    }

    #[test]
    fn stall_detector_ignores_progressing_idle_and_crashed_replicas() {
        let mut t = TimelineBuilder::new();
        for i in 1..=5 {
            // Replica 0 keeps announcing with indices outstanding; replica
            // 1 has nothing outstanding; replica 2 is crashed holding one.
            t.order(0, 10 * i + 3, 10 * i, false)
                .order(1, 4, 4, false)
                .order(2, 9, 6, true)
                .tick(0, 0);
        }
        assert!(detect(&t.samples, &config()).is_none());
    }

    #[test]
    fn stall_detector_fires_when_one_of_two_replicas_is_stuck_while_the_other_commits() {
        let mut t = TimelineBuilder::new();
        for i in 1..=5 {
            // Cluster-wide, commits keep flowing: replica 1 announces 50 a
            // sample.  Replica 0 waits on index 4 the whole time.
            t.order(0, 6, 3, false)
                .order(1, 50 * i, 50 * i, false)
                .tick(50, 0);
        }
        let verdict = detect(&t.samples, &config()).expect("stall must fire");
        assert_eq!(verdict.kind, AnomalyKind::DrainStall);
        assert!(
            verdict.detail.contains("replica-0 waits on order index 4"),
            "{}",
            verdict.detail
        );
    }

    #[test]
    fn stall_detector_needs_the_counter_stuck_across_the_whole_window() {
        let mut t = TimelineBuilder::new();
        // One sample into the window replica 0 hands out index 8 on a
        // counter that has not moved, and crashed replica 1 comes back
        // recovered, its fresh counters stuck from then on: neither was
        // stuck with an index outstanding across the whole window.
        t.order(0, 7, 7, false).order(1, 20, 12, true).tick(0, 0);
        t.order(0, 8, 7, false).order(1, 2, 0, false);
        t.tick(0, 0).tick(0, 0).tick(0, 0);
        assert!(detect(&t.samples, &config()).is_none());
        // One more delta fills the window for both.
        t.tick(0, 0);
        let verdict = detect(&t.samples, &config()).expect("stall must fire");
        assert!(verdict.detail.contains("replica-0"), "{}", verdict.detail);
    }

    #[test]
    fn detectors_need_a_full_window_before_firing() {
        let mut t = TimelineBuilder::new();
        t.order(0, 3, 1, false);
        t.tick(30, 5).tick(30, 5); // trickle and a stuck index, two windows
        assert!(detect(&t.samples, &config()).is_none());
    }

    #[test]
    fn watchdog_thread_detects_a_live_synthetic_stall_and_writes_a_bundle() {
        let registry = Arc::new(MetricsRegistry::enabled());
        let dir =
            std::env::temp_dir().join(format!("tashkent-watchdog-test-{}", std::process::id()));
        let capture_dir = dir.clone();
        let watchdog = Watchdog::start(
            Arc::clone(&registry),
            WatchdogConfig {
                convoy_window: 64, // effectively off for this test
                convoy_min_aborts: 1,
                stall_window: 3,
                interval: Duration::from_millis(5),
            },
            Box::new(|| {
                vec![ReplicaOrder {
                    replica: ReplicaId(3),
                    handed_out: 12,
                    announced: 11,
                    crashed: false,
                }]
            }),
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
        let deadline = Instant::now() + Duration::from_secs(10);
        while watchdog.fired().is_empty() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        let fired = watchdog.stop();
        assert!(
            fired
                .iter()
                .any(|f| f.verdict.kind == AnomalyKind::DrainStall),
            "stall never fired: {fired:?}"
        );
        if let Some(path) = fired.iter().find_map(|f| f.bundle.as_ref()) {
            let _ = std::fs::remove_file(path);
        }
        let written: Vec<_> = std::fs::read_dir(&dir)
            .expect("bundle directory exists")
            .filter_map(|e| e.ok().map(|e| e.path()))
            .collect();
        assert!(
            !written.is_empty(),
            "no bundle written to {}",
            dir.display()
        );
        let bundle = DiagnosticBundle::read_from(&written[0]).expect("bundle round-trips");
        assert_eq!(bundle.kind, "stall");
        assert!(
            bundle.detail.contains("replica-3 waits on order index 12"),
            "{}",
            bundle.detail
        );
        assert_eq!(bundle.progress, vec![(0, 7)]);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
