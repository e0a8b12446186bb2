//! Workload generators and closed-loop drivers for the Tashkent
//! reproduction: AllUpdates, TPC-B and a compact TPC-W shopping mix.
//!
//! These workloads drive the *real* in-process cluster (`tashkent::Cluster`)
//! and are used by the examples and by the cross-crate integration tests.
//! (The paper-scale performance sweeps use the calibrated discrete-event
//! model in `tashkent-sim` instead, because the absolute numbers depend on
//! an 8 ms-fsync disk that a unit-test host does not have.)
//!
//! Two real-cluster reports live here so their tests run with the crate:
//! [`run_tpcw_cluster`] (the `tpcw_cluster` example) and [`run_timeline`]
//! (the `timeline` example).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::Arc;
use std::time::Duration;

use tashkent::{Cluster, ClusterConfig, SystemKind};

pub mod driver;
pub mod generators;
pub mod report;

pub use driver::{DriverConfig, DriverReport, run_driver};
pub use generators::{AllUpdates, TpcB, TpcW, TpcWBrowsing, TpcWShopping, Workload};
pub use report::render_stage_breakdown;

/// Runs the TPC-W browsing and shopping mixes on **real clusters** across
/// replica counts and systems, and renders throughput / read-share /
/// response-time rows (the cluster-backed counterpart of the simulator's
/// Figures 12–13; the browsing mix with think times has no simulator
/// profile, so the real driver is the source of truth for it).
///
/// `quick` shortens the per-point window and replica sweep for tests/CI.
#[must_use]
pub fn run_tpcw_cluster(quick: bool) -> String {
    let (replica_counts, window): (&[usize], Duration) = if quick {
        (&[1, 2], Duration::from_millis(200))
    } else {
        (&[1, 2, 3, 4], Duration::from_millis(600))
    };
    let think = Duration::from_millis(2);
    type WorkloadFactory = Box<dyn Fn() -> Arc<dyn Workload>>;
    let mixes: Vec<(&str, WorkloadFactory)> = vec![
        (
            "browsing",
            Box::new(move || Arc::new(TpcWBrowsing::new(think).with_catalogue(200, 40))),
        ),
        (
            "shopping",
            Box::new(move || Arc::new(TpcWShopping::new(think).with_catalogue(200, 40))),
        ),
    ];
    let mut out = String::new();
    out.push_str("# tpcw-cluster — TPC-W mixes on the real cluster\n");
    for (mix_name, make_workload) in &mixes {
        out.push_str(&format!("## {mix_name} mix\n"));
        // The shared driver-report columns plus the mix-specific read share.
        out.push_str(&format!(
            "{}{:>12}\n",
            DriverReport::table_header("system x replicas"),
            "read share"
        ));
        for system in SystemKind::ALL {
            for &replicas in replica_counts {
                let mut config = ClusterConfig::small(system);
                config.replicas = replicas;
                let cluster = Arc::new(Cluster::new(config).expect("valid configuration"));
                let workload = make_workload();
                workload.setup(&cluster);
                let report = run_driver(
                    &cluster,
                    &workload,
                    &DriverConfig {
                        clients_per_replica: 3,
                        duration: window,
                        seed: 0x7A5B_3001 + replicas as u64,
                        ..DriverConfig::default()
                    },
                );
                let read_share = if report.committed == 0 {
                    0.0
                } else {
                    report.read_only as f64 / report.committed as f64
                };
                out.push_str(&format!(
                    "{}{read_share:>12.2}\n",
                    report.table_row(&format!("{} x {replicas}", system.label())),
                ));
            }
        }
    }
    out
}

/// Runs one TPC-B burst on a real Tashkent-API cluster and exports the
/// merged observability timeline as **Chrome trace / Perfetto JSON**: one
/// complete span per commit-path stage per traced transaction (from the
/// commit-path trace ring) plus one instant per journal event, all on the
/// registry's single clock.
///
/// Save the output to a file and open it in `ui.perfetto.dev` (or
/// `chrome://tracing`) to scrub through the cluster's last moments
/// transaction by transaction.
///
/// `quick` shortens the load window for tests/CI.
#[must_use]
pub fn run_timeline(quick: bool) -> String {
    let window = if quick {
        Duration::from_millis(150)
    } else {
        Duration::from_millis(500)
    };
    let config = ClusterConfig::small(SystemKind::TashkentApi);
    let cluster = Arc::new(Cluster::new(config).expect("valid configuration"));
    let workload: Arc<dyn Workload> = Arc::new(TpcB {
        branches: 4,
        tellers_per_branch: 10,
        accounts_per_branch: 200,
    });
    workload.setup(&cluster);
    let _ = run_driver(
        &cluster,
        &workload,
        &DriverConfig {
            clients_per_replica: 3,
            duration: window,
            seed: 0x7A5B_7001,
            ..DriverConfig::default()
        },
    );
    tashkent::chrome_trace_json(&cluster.events(), &cluster.recent_traces())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tpcw_cluster_renders_both_mixes_for_every_system() {
        let text = run_tpcw_cluster(true);
        assert!(text.contains("browsing mix"));
        assert!(text.contains("shopping mix"));
        assert!(text.contains("drain ms"), "{text}");
        for system in ["base", "tashMW", "tashAPI"] {
            assert!(text.contains(&format!("{system} x 1")), "{system}:\n{text}");
        }
    }

    #[test]
    fn timeline_exports_chrome_trace_json_with_spans_and_instants() {
        let json = run_timeline(true);
        assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
        assert!(json.contains("\"traceEvents\""));
        // TPC-B commits under load: the trace ring yields per-stage spans
        // and the journal yields instants.
        assert!(json.contains("\"ph\":\"X\""), "no spans in timeline");
        assert!(json.contains("\"ph\":\"i\""), "no instants in timeline");
        assert!(json.contains("\"cat\":\"commit-path\""));
    }
}
