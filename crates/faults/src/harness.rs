//! The schedule harness: one seed in, one verified schedule out.
//!
//! [`run_schedule`] is the single entry point the soak tests and CI smoke
//! use: the seed determines the cluster shape (system, replica count,
//! certifier shard count), the workload, the load parameters *and* the
//! fault plan, so a failing run is reproduced by exactly one number.
//! [`run_plan`] runs an explicit plan against an explicit configuration —
//! the building block [`shrink_failure`] uses to re-execute candidate plans
//! during minimization.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tashkent::{Cluster, ClusterConfig, SystemKind, Watchdog, WatchdogConfig};
use tashkent_workloads::{
    run_driver, AllUpdates, DriverConfig, DriverReport, TpcB, Workload,
};

use crate::executor::{ExecutionTrace, FaultExecutor};
use crate::minimize::{minimize, Minimized};
use crate::oracle::{
    check_cluster, check_metrics_progression, TpcBInvariant, Violation, WorkloadInvariant,
};
use crate::plan::{FaultPlan, PlanConfig};

/// The workloads the harness drives fault schedules under.
///
/// Both are all-update mixes so the commit version — the injection-point
/// clock — advances briskly; TPC-B adds real write-write conflicts, the
/// multi-table writesets that exercise multi-shard certification, and a
/// conservation law for the oracle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HarnessWorkload {
    /// Disjoint-key single-row updates (no conflicts, maximal throughput).
    AllUpdates,
    /// TPC-B with a small branch set (conflicts, multi-shard writesets,
    /// balance-sum invariant).
    TpcB,
}

impl HarnessWorkload {
    fn build(self) -> Arc<dyn Workload> {
        match self {
            HarnessWorkload::AllUpdates => Arc::new(AllUpdates::default()),
            HarnessWorkload::TpcB => Arc::new(TpcB {
                branches: 2,
                tellers_per_branch: 2,
                accounts_per_branch: 100,
            }),
        }
    }

    fn invariant(self) -> Option<Box<dyn WorkloadInvariant>> {
        match self {
            HarnessWorkload::AllUpdates => None,
            HarnessWorkload::TpcB => Some(Box::new(TpcBInvariant)),
        }
    }
}

/// Everything one schedule run needs, derived from a seed or set by hand.
#[derive(Debug, Clone)]
pub struct ScheduleConfig {
    /// Replication design under test.
    pub system: SystemKind,
    /// Replica count.
    pub replicas: usize,
    /// Certifier shard count (1 = the unsharded certifier).
    pub certifier_shards: usize,
    /// Workload driving the commit clock.
    pub workload: HarnessWorkload,
    /// Closed-loop clients per replica.
    pub clients_per_replica: usize,
    /// Load window.
    pub duration: Duration,
    /// Crash/recover pairs to schedule.
    pub faults: usize,
    /// Maximum commit-version gap between consecutive fault events.
    pub version_step: u64,
    /// Lift the quorum-safety bounds on plan generation: schedules may
    /// down whole shard groups and every replica at once (see
    /// [`PlanConfig::total_outage`]).
    pub total_outage: bool,
    /// Run the cluster over the in-memory loopback network and weave link
    /// sever/heal events into the schedule (see [`PlanConfig::partition`]).
    pub partition: bool,
    /// Seeded packet loss for the whole run: each send has this
    /// probability of resetting its connection (see
    /// [`PlanConfig::drop_rate`]).  Implies the loopback transport.
    /// `0.0` disables.
    pub drop_rate: f64,
}

impl ScheduleConfig {
    /// Draws a mixed cluster/workload/fault shape from the seed.
    ///
    /// The draw is deterministic: the same seed always produces the same
    /// configuration (and, via [`run_schedule`], the same plan).
    #[must_use]
    pub fn from_seed(seed: u64) -> Self {
        // A distinct stream from the plan's (which uses the seed directly).
        let mut rng = StdRng::seed_from_u64(seed ^ 0xC0FF_EE00_D15E_A5E5);
        let system = match rng.gen_range(0..3u32) {
            0 => SystemKind::Base,
            1 => SystemKind::TashkentMw,
            _ => SystemKind::TashkentApi,
        };
        let certifier_shards = [1usize, 2, 4][rng.gen_range(0..3usize)];
        let workload = if rng.gen_bool(0.5) {
            HarnessWorkload::AllUpdates
        } else {
            HarnessWorkload::TpcB
        };
        ScheduleConfig {
            system,
            replicas: rng.gen_range(2..=3usize),
            certifier_shards,
            workload,
            clients_per_replica: rng.gen_range(2..=3usize),
            duration: Duration::from_millis(rng.gen_range(200..=300u64)),
            faults: rng.gen_range(2..=4usize),
            version_step: rng.gen_range(15..=40u64),
            // Drawn last so the flag's introduction left every earlier
            // field of existing seeds unchanged.  A quarter of the seed
            // space exercises non-quorum-safe schedules: majority loss,
            // whole shard groups down, every replica down.
            total_outage: rng.gen_bool(0.25),
            // Same append-last convention, one draw later still: a fifth of
            // the seed space runs over the loopback network with link
            // faults layered onto the crash schedule.
            partition: rng.gen_bool(0.2),
            // Appended last again: a sixth of the seed space adds seeded
            // packet loss (random connection resets) on top of whatever
            // the earlier draws chose.  The rate stays low enough that the
            // driver's resilient clients ride out the reconnect storms.
            drop_rate: if rng.gen_bool(1.0 / 6.0) {
                rng.gen_range(0.001..0.005)
            } else {
                0.0
            },
        }
    }

    /// The cluster configuration this schedule runs on.
    #[must_use]
    pub fn cluster_config(&self) -> ClusterConfig {
        let mut config = ClusterConfig::small(self.system);
        config.replicas = self.replicas;
        config.certifier_shards = self.certifier_shards;
        if self.partition || self.drop_rate > 0.0 {
            // Link faults need a real wire to cut (and packet loss a real
            // wire to lose): run the whole cluster over the deterministic
            // in-memory loopback transport.
            config.transport = tashkent::TransportKind::Loopback;
        }
        config
    }

    /// The plan-generation bounds matching this cluster shape.
    #[must_use]
    pub fn plan_config(&self) -> PlanConfig {
        let cluster = self.cluster_config();
        let mut plan = PlanConfig::for_cluster(
            self.replicas,
            self.certifier_shards,
            cluster.certifiers,
        );
        plan.faults = self.faults;
        plan.version_step = self.version_step;
        plan.total_outage = self.total_outage;
        plan.partition = self.partition;
        plan.drop_rate = self.drop_rate;
        plan
    }
}

/// The result of one executed-and-verified schedule.
#[derive(Debug)]
pub struct ScheduleOutcome {
    /// The seed the schedule came from (0 for hand-built plans).
    pub seed: u64,
    /// The configuration the schedule ran under.
    pub config: ScheduleConfig,
    /// The plan that was executed.
    pub plan: FaultPlan,
    /// The executed events with resolved victims.
    pub trace: ExecutionTrace,
    /// The workload's driver report.
    pub report: DriverReport,
    /// Invariant violations (empty = the schedule passed).
    pub violations: Vec<Violation>,
    /// The cluster's final metrics snapshot (taken after the heal and the
    /// oracle) — how tests assert schedule-level effects like "logs were
    /// demonstrably truncated during this run".
    pub snapshot: tashkent::MetricsSnapshot,
    /// Diagnostic bundle captured for a failing schedule (`None` when the
    /// schedule passed or the bundle could not be written).
    pub bundle: Option<PathBuf>,
}

impl ScheduleOutcome {
    /// `true` if every invariant held.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }

    /// The one-line replay recipe printed for failing schedules.
    #[must_use]
    pub fn replay_hint(&self) -> String {
        format!(
            "FAULT_SEED={:#x} cargo test --test fault_schedules -- --nocapture",
            self.seed
        )
    }
}

impl std::fmt::Display for ScheduleOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "schedule seed {:#x}: {} on {} ({} replicas, {} shard(s)) — {} commits, {} faults, prescreen {}/{} hit/miss, {}",
            self.seed,
            match self.config.workload {
                HarnessWorkload::AllUpdates => "AllUpdates",
                HarnessWorkload::TpcB => "TPC-B",
            },
            self.config.system,
            self.config.replicas,
            self.config.certifier_shards,
            self.report.committed,
            self.plan.fault_count(),
            // Printed on every schedule (PR smoke and nightly soak alike)
            // so pre-screen effectiveness under faults is visible in CI
            // logs, not just in benches.
            self.snapshot
                .counter(tashkent_common::metrics::CounterId::PrescreenHits),
            self.snapshot
                .counter(tashkent_common::metrics::CounterId::PrescreenMisses),
            if self.passed() { "PASS" } else { "FAIL" },
        )?;
        if !self.passed() {
            write!(f, "{}", self.plan)?;
            for violation in &self.violations {
                writeln!(f,"  {violation}")?;
            }
            if let Some(bundle) = &self.bundle {
                writeln!(f, "  evidence: {}", bundle.display())?;
            }
            writeln!(f, "  replay: {}", self.replay_hint())?;
        }
        Ok(())
    }
}

/// Runs one explicit plan under an explicit configuration.
///
/// Builds a fresh cluster, starts the fault injector, drives the workload
/// with resilient closed-loop clients, heals the cluster, and runs the
/// invariant oracle.
///
/// # Panics
///
/// Panics if the cluster configuration is invalid (harness configurations
/// are constructed valid) or the injector thread panics.
#[must_use]
pub fn run_plan(seed: u64, config: &ScheduleConfig, plan: &FaultPlan) -> ScheduleOutcome {
    let cluster = Arc::new(Cluster::new(config.cluster_config()).expect("valid configuration"));
    // Seeded packet loss rides under the whole schedule, salted away from
    // every other RNG stream so enabling it never moves a seed's fault
    // events (PlanConfig carries the rate; the loopback net rolls the
    // per-send dice).
    let drop_rate = config.plan_config().drop_rate;
    if drop_rate > 0.0 {
        cluster.set_packet_loss(seed ^ 0xD209_5EED_0CA5_CADE, drop_rate);
    }
    let workload = config.workload.build();
    workload.setup(&cluster);
    let metrics_before = cluster.metrics_snapshot();

    // Opt-in online anomaly detection during the schedule (nightly soaks
    // set FAULT_WATCHDOG=1): a firing detector writes its own bundle,
    // independent of the oracle capture below.
    let watchdog = std::env::var_os("FAULT_WATCHDOG")
        .is_some_and(|v| v != "0" && !v.is_empty())
        .then(|| cluster.start_watchdog(WatchdogConfig::default()));

    // The background trimmer seals checkpoints and advances the truncation
    // watermark *during* the schedule, so crashes land on trimmed logs and
    // recoveries exercise the checkpoint-plus-suffix state transfer.
    let trimmer = cluster.start_trimmer(tashkent::DEFAULT_TRIM_INTERVAL);

    let injector = FaultExecutor::new(Arc::clone(&cluster), plan.clone()).start();
    let report = run_driver(
        &cluster,
        &workload,
        &DriverConfig {
            clients_per_replica: config.clients_per_replica,
            duration: config.duration,
            seed: seed ^ 0x5EED_0BAD_F00D,
            resilient: true,
        },
    );
    // Disarm before the oracle runs, so everything the watchdog reports
    // belongs to the schedule's load and faults; the oracle judges what
    // follows with its own invariants.  The drain-tail window is covered —
    // `run_driver` blocks through the drain, so a replica stuck on an
    // order index then fires the detector before this line.
    let fired = watchdog.map(Watchdog::stop).unwrap_or_default();
    for anomaly in &fired {
        eprintln!("watchdog fired during schedule {seed:#x}: {}", anomaly.verdict);
    }

    let (trace, mut violations) = match injector.finish() {
        Ok(trace) => (trace, Vec::new()),
        Err(e) => (
            ExecutionTrace::default(),
            vec![Violation {
                invariant: "executor",
                detail: format!("fault execution failed: {e}"),
            }],
        ),
    };
    // Stop the trimmer before the oracle runs: the dense-history and
    // durable-coverage checks read the truncation floor and the retained
    // stream as one consistent pair, which a concurrent trim would skew.
    drop(trimmer);
    let invariant = config.workload.invariant();
    violations.extend(check_cluster(&cluster, invariant.as_deref()));
    // One explicit checkpoint-and-trim on the healed, converged cluster:
    // short schedules can race the background trim tick and finish without
    // a single effective trim, leaving the truncation metrics empty.  It
    // runs *after* the oracle so the stream checks still see the floor the
    // background trimmer actually reached mid-run, and deterministically —
    // no waiting on thread timing.
    cluster.checkpoint();
    let _ = cluster.trim();
    // Crashes and recoveries must never make a metric run backwards.
    violations.extend(check_metrics_progression(
        &metrics_before,
        &cluster.metrics_snapshot(),
    ));
    // Nightly soaks additionally assert the bounded-memory postcondition:
    // a full checkpoint-and-trim on the healed cluster empties the logs
    // and the cluster still commits.
    if std::env::var_os("FAULT_BOUNDED_MEMORY").is_some_and(|v| v != "0" && !v.is_empty()) {
        violations.extend(crate::oracle::check_bounded_memory(&cluster));
    }

    // Any failure dumps a diagnostic bundle, and every violation (including
    // an executor panic) carries the path, so the replay instructions
    // always point at captured evidence.
    let mut bundle = None;
    if !violations.is_empty() {
        let detail = violations
            .iter()
            .map(Violation::to_string)
            .collect::<Vec<_>>()
            .join("; ");
        if let Ok(path) = cluster.diagnostic_bundle("oracle", &detail).write_default() {
            let note = format!(" [bundle: {}]", path.display());
            for violation in &mut violations {
                violation.detail.push_str(&note);
            }
            bundle = Some(path);
        }
    }
    ScheduleOutcome {
        seed,
        config: config.clone(),
        plan: plan.clone(),
        trace,
        report,
        violations,
        snapshot: cluster.metrics_snapshot(),
        bundle,
    }
}

/// Runs the seed's schedule end to end: configuration, plan, execution,
/// oracle.
#[must_use]
pub fn run_schedule(seed: u64) -> ScheduleOutcome {
    let config = ScheduleConfig::from_seed(seed);
    let plan = FaultPlan::generate(seed, &config.plan_config());
    run_plan(seed, &config, &plan)
}

/// Shrinks a failing schedule to the smallest fault subsequence that still
/// fails, re-executing candidate plans on fresh clusters.
///
/// Expensive (one full schedule run per candidate); called only when a
/// schedule has already failed, to sharpen the report.
#[must_use]
pub fn shrink_failure(outcome: &ScheduleOutcome) -> Minimized {
    let config = outcome.config.clone();
    let seed = outcome.seed;
    minimize(&outcome.plan, move |candidate| {
        !run_plan(seed, &config, candidate).passed()
    })
}
