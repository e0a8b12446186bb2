//! Runs the TPC-B workload against all three replication designs on the real
//! in-process cluster and compares throughput, abort behaviour and fsync
//! counts — a functional miniature of the paper's Section 9.3 comparison.
//! A second sweep re-runs Tashkent-API with the certifier partitioned into
//! 1 / 2 / 4 shards: every update still funnels through
//! certification, so end-to-end TPC-B throughput is the system-level check
//! that sharding costs nothing on an unpartitionable workload.
//!
//! Each system's row is followed by the commit-path stage breakdown from
//! the cluster's metrics registry, so a throughput difference can be
//! attributed to a stage (certify round-trip, durable fsync, in-order
//! announce, remote install) instead of guessed at.
//!
//! Run with: `cargo run --release --example tpcb_comparison`
//!
//! Environment knobs:
//!
//! * `TPCB_WINDOW_MS=3000` — longer, stabler measurement windows (used when
//!   committing baseline numbers).
//! * `TPCB_FLIGHT=1` — attach a 250 ms flight recorder to every run and
//!   print the per-sample timeline (committed / lock waits / WAL fsyncs per
//!   window), the tool behind the ROADMAP bimodality investigation.

use std::sync::Arc;
use std::time::Duration;

use tashkent::{Cluster, ClusterConfig, CounterId, FlightRecorder, FlightSample, SystemKind};
use tashkent_workloads::{
    render_stage_breakdown, run_driver, DriverConfig, DriverReport, TpcB, Workload,
};

/// Measurement window; override with `TPCB_WINDOW_MS=3000` for the longer,
/// stabler windows used when committing baseline numbers (TPC-B on a hot
/// branch set is bimodal over sub-second windows).
fn window() -> Duration {
    let ms = std::env::var("TPCB_WINDOW_MS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(800u64);
    Duration::from_millis(ms)
}

/// `TPCB_FLIGHT=1` attaches a flight recorder to every run.
fn flight_enabled() -> bool {
    std::env::var("TPCB_FLIGHT").is_ok_and(|v| v != "0")
}

fn run_tpcb(
    config: ClusterConfig,
) -> (Arc<Cluster>, tashkent_workloads::DriverReport, Vec<FlightSample>) {
    let cluster = Arc::new(Cluster::new(config).expect("valid configuration"));
    let workload: Arc<dyn Workload> = Arc::new(TpcB {
        branches: 4,
        tellers_per_branch: 10,
        accounts_per_branch: 200,
    });
    workload.setup(&cluster);
    let recorder =
        flight_enabled().then(|| cluster.start_flight_recorder(Duration::from_millis(250)));
    let report = run_driver(
        &cluster,
        &workload,
        &DriverConfig {
            clients_per_replica: 4,
            duration: window(),
            seed: 42,
            ..DriverConfig::default()
        },
    );
    let samples = recorder.map(FlightRecorder::stop).unwrap_or_default();
    (cluster, report, samples)
}

/// Prints the flight-recorder timeline: per-sample counter deltas, the raw
/// material of the throughput-bimodality investigation (see ROADMAP).
fn print_timeline(label: &str, samples: &[FlightSample]) {
    if samples.len() < 2 {
        return;
    }
    println!("flight timeline — {label} (deltas per 250 ms sample)");
    for pair in samples.windows(2) {
        let delta = pair[1].snapshot.counters_since(&pair[0].snapshot);
        println!(
            "  t+{:>5} ms  committed {:>6}  aborted {:>6}  lock waits {:>6}  wal fsyncs {:>5}",
            pair[1].at.as_millis(),
            delta[CounterId::TxCommitted.index()],
            delta[CounterId::TxAborted.index()],
            delta[CounterId::LockWaits.index()],
            delta[CounterId::WalFsyncs.index()],
        );
    }
}

fn main() {
    // Shared driver-report columns (same layout as the `tpcw_cluster`
    // example) plus the TPC-B-specific durability columns.
    println!(
        "{}{:>16}{:>20}",
        DriverReport::table_header("system"),
        "replica fsyncs",
        "certifier grp size"
    );
    let mut breakdowns = Vec::new();
    for system in SystemKind::ALL {
        let (cluster, report, samples) = run_tpcb(ClusterConfig::small(system));

        let replica_fsyncs = cluster.replica(0).database().log_device().stats().fsyncs;
        let log = cluster.certifier().stats();
        let certifier_group = log.leader_group_commit.mean_group_size();
        println!(
            "{}{replica_fsyncs:>16}{certifier_group:>20.1}",
            report.table_row(system.label()),
        );
        breakdowns.push((system.label(), cluster.metrics_snapshot(), samples));
    }
    println!();
    println!(
        "Tashkent-MW performs no replica fsyncs at all; Tashkent-API groups its\n\
         commit records; Base pays one fsync per remote group and per local commit."
    );
    for (label, snapshot, samples) in &breakdowns {
        println!();
        println!("commit-path stages — {label}");
        print!("{}", render_stage_breakdown(snapshot));
        print_timeline(label, samples);
    }

    // Sharded-certifier sweep: the same TPC-B load on Tashkent-API with the
    // certifier split into 1 / 2 / 4 shards.
    println!();
    println!(
        "{}{:>14}{:>14}{:>18}",
        DriverReport::table_header("certifier"),
        "window tput",
        "cert commits",
        "multi-shard cert"
    );
    for shards in [1usize, 2, 4] {
        let mut config = ClusterConfig::small(SystemKind::TashkentApi);
        config.certifier_shards = shards;
        let (cluster, report, samples) = run_tpcb(config);
        let snapshot = cluster.metrics_snapshot();
        // Commits per second of *measurement window*: `DriverReport::elapsed`
        // also counts the shutdown join of in-flight transactions (long for
        // Tashkent-API pipelines, and equally so with one shard), which
        // would make the sweep compare tail behaviour instead of
        // certification throughput.
        let window_tput = report.committed as f64 / window().as_secs_f64();
        let label = format!("{shards} shard(s)");
        println!(
            "{}{window_tput:>14.0}{:>14}{:>18}",
            report.table_row(&label),
            snapshot.counter(CounterId::CertifyCommits),
            snapshot.counter(CounterId::MultiShardCommits),
        );
        print_timeline(&label, &samples);
    }
    println!();
    println!(
        "TPC-B transactions span four tables, so most writesets certify on\n\
         several shards (the ordered two-phase path); end-to-end throughput\n\
         staying level shows cross-shard commit ordering is off the critical\n\
         path.  The benchmark's certifier.certify_1shard_us and\n\
         certify_4shard_us drills time one certification at each count."
    );
}
