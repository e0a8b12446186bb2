//! Watchdog smoke test (run by PR CI): the anomaly watchdog attaches to a
//! live cluster, stays silent under healthy load, fires on a synthetic
//! anomaly, and its diagnostic bundles round-trip from disk.
//!
//! The deterministic detector-threshold tests live with the detectors in
//! `tashkent::watchdog`; this suite checks the wiring end to end through
//! the public `Cluster` API.

use std::sync::Arc;
use std::time::Duration;

use tashkent::{
    AnomalyKind, Cluster, ClusterConfig, CounterId, DiagnosticBundle, SystemKind, Value, Watchdog,
    WatchdogConfig,
};
use tashkent_workloads::{run_driver, AllUpdates, DriverConfig, Workload};

/// Healthy load on a Tashkent-MW cluster must not trip either detector:
/// AllUpdates clients write disjoint key ranges, so no abort trickle can
/// form, and MW replicas run with the WAL off, so the stall signature's
/// fsync heartbeat cannot appear at all.
#[test]
fn watchdog_stays_silent_under_healthy_load() {
    let config = ClusterConfig::small(SystemKind::TashkentMw);
    let cluster = Arc::new(Cluster::new(config).expect("valid configuration"));
    let workload: Arc<dyn Workload> = Arc::new(AllUpdates::default());
    workload.setup(&cluster);
    let watchdog = cluster.start_watchdog(WatchdogConfig {
        interval: Duration::from_millis(20),
        ..WatchdogConfig::default()
    });
    let _ = run_driver(
        &cluster,
        &workload,
        &DriverConfig {
            clients_per_replica: 2,
            duration: Duration::from_millis(300),
            seed: 0x57A7_0001,
            ..DriverConfig::default()
        },
    );
    let fired = watchdog.stop();
    assert!(
        fired.is_empty(),
        "watchdog fired under healthy load: {fired:?}"
    );
}

/// A synthetic drain stall — commits frozen while something keeps fsyncing
/// — must fire the detector and leave a decodable bundle on disk.
#[test]
fn watchdog_fires_on_a_synthetic_stall_and_the_bundle_round_trips() {
    let bundle_dir =
        std::env::temp_dir().join(format!("tashkent-watchdog-smoke-{}", std::process::id()));
    let cluster =
        Arc::new(Cluster::new(ClusterConfig::small(SystemKind::TashkentMw)).expect("valid"));
    let table = cluster.create_table("accounts", &["balance"]);
    // A little real history so the bundle has events and traces to carry.
    for key in 0..5 {
        let tx = cluster.session(0).begin();
        tx.insert(table, key, vec![("balance".into(), Value::Int(key))])
            .expect("insert");
        tx.commit().expect("commit");
    }
    let registry = cluster.metrics();
    let capture_cluster = Arc::clone(&cluster);
    let capture_dir = bundle_dir.clone();
    let watchdog = Watchdog::start(
        cluster.metrics(),
        WatchdogConfig {
            convoy_window: 1024, // out of reach: this test is about the stall
            stall_window: 3,
            stall_min_fsyncs: 2,
            interval: Duration::from_millis(5),
            ..WatchdogConfig::default()
        },
        Box::new(move |verdict| {
            let bundle = capture_cluster.diagnostic_bundle(verdict.kind.label(), &verdict.to_string());
            let _ = bundle.write_to(&capture_dir);
            bundle
        }),
    );
    // The synthetic anomaly: no commits, but a live fsync heartbeat.
    for _ in 0..100 {
        registry.incr(CounterId::WalFsyncs);
        std::thread::sleep(Duration::from_millis(5));
        if !watchdog.fired().is_empty() {
            break;
        }
    }
    let fired = watchdog.stop();
    assert!(
        fired
            .iter()
            .any(|f| f.verdict.kind == AnomalyKind::DrainStall),
        "synthetic stall did not fire: {fired:?}"
    );

    let mut paths: Vec<_> = std::fs::read_dir(&bundle_dir)
        .expect("bundle dir")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    paths.sort();
    assert!(!paths.is_empty(), "no bundle written");
    let bundle = DiagnosticBundle::read_from(&paths[0]).expect("bundle decodes");
    assert_eq!(bundle.kind, "stall");
    assert!(bundle.detail.contains("commits stopped"), "{}", bundle.detail);
    // The bundle carries the cluster's real state: the five commits above
    // appear in the counters, the journal and the progress vector.
    assert!(bundle.snapshot.counter(CounterId::TxCommitted) >= 5);
    assert!(!bundle.events.is_empty(), "bundle lost the event journal");
    assert_eq!(bundle.progress.len(), cluster.replica_count());
    assert!(bundle.progress.iter().any(|(_, version)| *version >= 5));
    let _ = std::fs::remove_dir_all(&bundle_dir);
}

/// `Cluster::diagnostic_bundle` captures a consistent oracle-style bundle
/// on demand (the fault harness path) and it survives its codec.
#[test]
fn cluster_diagnostic_bundle_round_trips() {
    let cluster = Cluster::new(ClusterConfig::small(SystemKind::TashkentApi)).expect("valid");
    let table = cluster.create_table("accounts", &["balance"]);
    let tx = cluster.session(0).begin();
    tx.insert(table, 1, vec![("balance".into(), Value::Int(1))])
        .expect("insert");
    tx.commit().expect("commit");

    let bundle = cluster.diagnostic_bundle("oracle", "dense-history: gap at version 3");
    let decoded = DiagnosticBundle::from_bytes(&bundle.to_bytes()).expect("decodes");
    assert_eq!(decoded.kind, "oracle");
    assert_eq!(decoded.detail, "dense-history: gap at version 3");
    assert_eq!(decoded.events, bundle.events);
    assert!(!decoded.events.is_empty());
    assert_eq!(decoded.progress.len(), cluster.replica_count());
    assert_eq!(decoded.to_bytes(), bundle.to_bytes());
}
