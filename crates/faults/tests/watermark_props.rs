//! Property tests for watermark-driven log truncation.
//!
//! Random interleavings of commits, replica crashes/recoveries and
//! checkpoint-and-trim cycles must uphold two guarantees:
//!
//! * **Watermark safety** — after every trim, no live replica sits below
//!   the truncation floor and every replica's newest checkpoint covers it,
//!   so no replica (live or recovering) ever needs a truncated record.
//! * **Trim transparency** — a cluster that trims aggressively behaves
//!   *identically* to one that never trims: the same op sequence produces
//!   the same commit/abort decisions at the same versions, and the healed
//!   clusters converge to the same contents.

use proptest::prelude::*;
use tashkent::{Cluster, ClusterConfig, SystemKind, TableId, Value};

#[derive(Debug, Clone, Copy)]
enum Op {
    Commit { replica: usize, key: i64 },
    Crash { replica: usize },
    Recover { replica: usize },
    Trim,
}

/// Weighted op choice: 5 commit : 1 crash : 1 recover : 2 trim.  The
/// vendored proptest has no `prop_oneof!`, so the weights live in an
/// integer selector mapped onto the variants.
fn arb_op() -> impl Strategy<Value = Op> {
    (0u32..9, 0usize..2, 0i64..48).prop_map(|(sel, replica, key)| match sel {
        0..=4 => Op::Commit { replica, key },
        5 => Op::Crash { replica },
        6 => Op::Recover { replica },
        _ => Op::Trim,
    })
}

fn arb_system() -> impl Strategy<Value = SystemKind> {
    (0u32..3).prop_map(|sel| match sel {
        0 => SystemKind::Base,
        1 => SystemKind::TashkentMw,
        _ => SystemKind::TashkentApi,
    })
}

fn build(system: SystemKind, shards: usize) -> (Cluster, TableId) {
    let mut config = ClusterConfig::small(system);
    config.certifier_shards = shards;
    let cluster = Cluster::new(config).unwrap();
    let table = cluster.create_table("kv", &["v"]);
    cluster.checkpoint();
    (cluster, table)
}

/// Drives one op sequence; `trim` selects whether `Op::Trim` actually
/// checkpoints and truncates (the control cluster treats it as a no-op).
/// Returns the per-op decision log, then heals and syncs the cluster.
fn drive(cluster: &Cluster, table: TableId, ops: &[Op], trim: bool) -> Vec<String> {
    let mut log = Vec::new();
    let mut value = 0i64;
    for op in ops {
        match *op {
            Op::Commit { replica, key } => {
                // The payload counter advances even for skipped commits so
                // both clusters write identical values at identical steps.
                value += 1;
                if cluster.replica(replica).is_crashed() {
                    log.push("skipped".to_owned());
                    continue;
                }
                let tx = cluster.session(replica).begin();
                let outcome = tx
                    .insert(table, key, vec![("v".into(), Value::Int(value))])
                    .and_then(|()| tx.commit().map(|_| ()));
                log.push(match outcome {
                    Ok(()) => format!(
                        "commit@{}",
                        cluster.replica(replica).version().value()
                    ),
                    Err(_) => "abort".to_owned(),
                });
            }
            Op::Crash { replica } => {
                if !cluster.replica(replica).is_crashed() {
                    cluster.replica(replica).crash();
                }
                log.push(format!("crash-{replica}"));
            }
            Op::Recover { replica } => {
                if cluster.replica(replica).is_crashed() {
                    // Watermark safety in action: recovery must never fail
                    // for lack of a truncated record.
                    let recovered = cluster.recover_replica(replica);
                    prop_assert!(
                        recovered.is_ok(),
                        "recovery of replica {replica} failed on the {} cluster: {recovered:?}",
                        if trim { "trimmed" } else { "control" }
                    );
                }
                log.push(format!("recover-{replica}"));
            }
            Op::Trim => {
                if trim {
                    cluster.checkpoint();
                    let trimmed = cluster.trim();
                    prop_assert!(trimmed.is_ok(), "trim failed: {trimmed:?}");
                    let floor = cluster.truncation_floor();
                    for r in 0..cluster.replica_count() {
                        let node = cluster.replica(r);
                        if !node.is_crashed() {
                            prop_assert!(
                                node.version() >= floor,
                                "live replica {r} at {} fell below the floor {floor}",
                                node.version()
                            );
                        }
                        prop_assert!(
                            node.checkpoint_version() >= floor,
                            "replica {r} checkpoint {} does not cover the floor {floor}",
                            node.checkpoint_version()
                        );
                    }
                }
                log.push("trim".to_owned());
            }
        }
    }
    // Heal and converge before the content comparison.
    for r in 0..cluster.replica_count() {
        if cluster.replica(r).is_crashed() {
            let recovered = cluster.recover_replica(r);
            prop_assert!(recovered.is_ok(), "final heal of replica {r}: {recovered:?}");
        }
    }
    let synced = cluster.sync_all();
    prop_assert!(synced.is_ok(), "final sync: {synced:?}");
    log
}

/// Replica 0's table contents as a sorted, comparable list.
fn contents(cluster: &Cluster, table: TableId) -> Vec<(String, i64)> {
    let db = cluster.replica(0).database();
    let tx = db.begin();
    let mut rows: Vec<(String, i64)> = tx
        .scan(table)
        .unwrap()
        .iter()
        .map(|(key, row)| {
            (
                format!("{key:?}"),
                row.get("v").and_then(Value::as_int).unwrap_or(i64::MIN),
            )
        })
        .collect();
    tx.abort();
    rows.sort();
    rows
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn trimmed_and_untrimmed_clusters_are_indistinguishable(
        system in arb_system(),
        shards in (0u32..2).prop_map(|s| 1 + s as usize),
        ops in prop::collection::vec(arb_op(), 1..28),
    ) {
        let (trimmed, trimmed_table) = build(system, shards);
        let (control, control_table) = build(system, shards);
        let trimmed_log = drive(&trimmed, trimmed_table, &ops, true);
        let control_log = drive(&control, control_table, &ops, false);
        // Decision-identical: same commits, same aborts, at the same
        // installed versions.
        prop_assert_eq!(&trimmed_log, &control_log);
        // Content-identical: the healed clusters converge to the same
        // system version and the same rows.
        prop_assert_eq!(trimmed.system_version(), control.system_version());
        prop_assert_eq!(
            contents(&trimmed, trimmed_table),
            contents(&control, control_table)
        );
    }
}
