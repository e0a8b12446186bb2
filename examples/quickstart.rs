//! Quickstart: build a small Tashkent-MW cluster, run a few transactions and
//! show how updates propagate between replicas.
//!
//! Run with: `cargo run --example quickstart`

use tashkent::{Cluster, ClusterConfig, CounterId, SystemKind, Value};

fn main() {
    // A 3-replica Tashkent-MW cluster: durability lives in the certifier's
    // group-committed log, replica commits are in-memory operations.
    let mut config = ClusterConfig::small(SystemKind::TashkentMw);
    config.replicas = 3;
    let cluster = Cluster::new(config).expect("valid configuration");
    let accounts = cluster.create_table("accounts", &["owner", "balance"]);

    // Populate two accounts through replica 0.
    let session = cluster.session(0);
    let tx = session.begin();
    tx.insert(
        accounts,
        1,
        vec![
            ("owner".into(), Value::Text("alice".into())),
            ("balance".into(), Value::Int(1_000)),
        ],
    )
    .unwrap();
    tx.insert(
        accounts,
        2,
        vec![
            ("owner".into(), Value::Text("bob".into())),
            ("balance".into(), Value::Int(500)),
        ],
    )
    .unwrap();
    let outcome = tx.commit().unwrap();
    println!(
        "populated accounts through replica 0 (commit version {:?})",
        outcome.commit_version
    );

    // Transfer money through replica 1: it first learns about the rows via
    // the remote writesets returned during certification.
    let session = cluster.session(1);
    session.proxy().refresh().unwrap();
    let tx = session.begin();
    let alice = tx.read(accounts, 1).unwrap().expect("replicated row");
    let bob = tx.read(accounts, 2).unwrap().expect("replicated row");
    let alice_balance = alice.get("balance").unwrap().as_int().unwrap();
    let bob_balance = bob.get("balance").unwrap().as_int().unwrap();
    tx.update(accounts, 1, vec![("balance".into(), Value::Int(alice_balance - 100))])
        .unwrap();
    tx.update(accounts, 2, vec![("balance".into(), Value::Int(bob_balance + 100))])
        .unwrap();
    println!("transfer writeset: {}", tx.writeset());
    tx.commit().unwrap();

    // Every replica converges to the same state in the same global order.
    cluster.sync_all().unwrap();
    for replica in 0..cluster.replica_count() {
        let session = cluster.session(replica);
        let tx = session.begin();
        let alice = tx.read(accounts, 1).unwrap().unwrap();
        let bob = tx.read(accounts, 2).unwrap().unwrap();
        println!(
            "replica {replica}: alice={} bob={} (version {})",
            alice.get("balance").unwrap(),
            bob.get("balance").unwrap(),
            cluster.replica(replica).version(),
        );
        tx.commit().unwrap();
    }

    let snapshot = cluster.metrics_snapshot();
    let log = cluster.certifier().local().stats();
    println!(
        "cluster committed {} transactions, certifier logged {} writesets ({} per fsync)",
        snapshot.counter(CounterId::TxCommitted),
        snapshot.counter(CounterId::DurableAppends),
        log.leader_group_commit.mean_group_size(),
    );
}
