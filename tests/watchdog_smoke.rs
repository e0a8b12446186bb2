//! Watchdog smoke test (run by PR CI): the anomaly watchdog attaches to a
//! live cluster, stays silent under healthy load on every system, fires on
//! a real stall — an order index handed out and never announced — and its
//! diagnostic bundles round-trip from disk.
//!
//! The deterministic detector-threshold tests live with the detectors in
//! `tashkent::watchdog`; this suite checks the wiring end to end through
//! the public `Cluster` API.

use std::sync::Arc;
use std::time::{Duration, Instant};

use tashkent::{
    AnomalyKind, Cluster, ClusterConfig, CounterId, DiagnosticBundle, FiredAnomaly, SystemKind,
    Value, WatchdogConfig,
};
use tashkent_workloads::{run_driver, AllUpdates, DriverConfig, Workload};

/// Healthy load must not trip either detector on any system: AllUpdates
/// clients write disjoint key ranges, so no abort trickle can form, and
/// every order index a replica hands out announces within microseconds.
#[test]
fn watchdog_stays_silent_under_healthy_load() {
    for system in SystemKind::ALL {
        let cluster = Arc::new(Cluster::new(ClusterConfig::small(system)).expect("valid"));
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
            "watchdog fired under healthy load on {system}: {fired:?}"
        );
    }
}

/// A two-replica Tashkent-MW cluster with five commits through each
/// replica, so both have announced order indices.
fn loaded_cluster() -> Cluster {
    let cluster = Cluster::new(ClusterConfig::small(SystemKind::TashkentMw)).expect("valid");
    let table = cluster.create_table("accounts", &["balance"]);
    for key in 0..10 {
        let tx = cluster.session(key as usize % 2).begin();
        tx.insert(table, key, vec![("balance".into(), Value::Int(key))])
            .expect("insert");
        tx.commit().expect("commit");
    }
    cluster
}

/// A fast watchdog whose convoy detector is out of reach: these tests are
/// about the stall.
fn stall_watchdog() -> WatchdogConfig {
    WatchdogConfig {
        convoy_window: 1024,
        stall_window: 3,
        interval: Duration::from_millis(5),
        ..WatchdogConfig::default()
    }
}

/// Runs `cluster`'s watchdog until something fires or `limit` passes.
fn watch(cluster: &Cluster, limit: Duration) -> Vec<FiredAnomaly> {
    let watchdog = cluster.start_watchdog(stall_watchdog());
    let deadline = Instant::now() + limit;
    while watchdog.fired().is_empty() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    watchdog.stop()
}

/// A synthetic stall that is a real one to the detector: an order index
/// handed out on a live replica and never announced, which every later
/// commit on that replica would wait on.  The detector fires, and the
/// bundle it leaves on disk names the replica and the index and carries
/// the cluster's real state.
#[test]
fn watchdog_fires_on_a_synthetic_stall_and_the_bundle_round_trips() {
    let cluster = loaded_cluster();
    let replica = cluster.replica(1);
    let waiting = replica.database().announce_counter() + 1;
    assert_eq!(replica.proxy().debug_burn_order_index(), waiting);

    let fired = watch(&cluster, Duration::from_secs(10));
    let stall = fired
        .iter()
        .find(|f| f.verdict.kind == AnomalyKind::DrainStall)
        .unwrap_or_else(|| panic!("the burned index did not fire: {fired:?}"));
    let path = stall.bundle.as_ref().expect("the bundle was written");
    let bundle = DiagnosticBundle::read_from(path).expect("bundle decodes");
    let _ = std::fs::remove_file(path);
    assert_eq!(bundle.kind, "stall");
    let named = format!("{} waits on order index {waiting}", replica.id());
    assert!(bundle.detail.contains(&named), "{}", bundle.detail);
    // The bundle carries the cluster's real state: the ten commits above
    // appear in the counters, the journal and the progress vector.
    assert!(bundle.snapshot.counter(CounterId::TxCommitted) >= 10);
    assert!(!bundle.events.is_empty(), "bundle lost the event journal");
    assert_eq!(bundle.progress.len(), cluster.replica_count());
    assert!(bundle.progress.iter().any(|(_, version)| *version >= 10));
}

/// A replica that crashed while holding an unannounced index is down, not
/// stalled: the detector skips it.
#[test]
fn a_crashed_replica_holding_a_burned_index_stays_silent() {
    let cluster = loaded_cluster();
    cluster.replica(1).proxy().debug_burn_order_index();
    cluster.crash_replica(1);
    let fired = watch(&cluster, Duration::from_millis(200));
    assert!(
        fired.is_empty(),
        "a crashed replica read as a stall: {fired:?}"
    );
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
