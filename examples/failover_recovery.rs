//! Fault-tolerance walkthrough (Section 7): crash and recover a database
//! replica under each replication design, and fail over the certifier
//! leader, demonstrating that no committed transaction is ever lost.
//!
//! Run with: `cargo run --example failover_recovery`

use std::time::Instant;

use tashkent::{CertifierNodeId, Cluster, ClusterConfig, SystemKind, Value};

fn commit_key(cluster: &Cluster, table: tashkent::TableId, replica: usize, key: i64) {
    let session = cluster.session(replica);
    let tx = session.begin();
    tx.insert(table, key, vec![("v".into(), Value::Int(key * 10))])
        .unwrap();
    tx.commit().unwrap();
}

fn main() {
    for system in SystemKind::ALL {
        println!("=== {} ===", system.label());
        let mut config = ClusterConfig::small(system);
        config.replicas = 2;
        let cluster = Cluster::new(config).expect("valid configuration");
        let table = cluster.create_table("kv", &["v"]);

        // Commit ten transactions through replica 0.
        for key in 0..10 {
            commit_key(&cluster, table, 0, key);
        }
        cluster.sync_all().unwrap();

        // Tashkent-MW keeps durability in the middleware, so the middleware
        // periodically checkpoints each replica (Section 7.1).
        let sealed = cluster.replica(1).seal_checkpoint();
        println!("  sealed replica checkpoint at version {sealed}");

        // More commits after the checkpoint, then crash replica 1.
        for key in 10..15 {
            commit_key(&cluster, table, 0, key);
        }
        cluster.replica(1).crash();
        println!("  replica 1 crashed at system version {}", cluster.system_version());

        // Certifier leader fail-over: progress continues with a majority.
        cluster.crash_certifier_node(CertifierNodeId(0));
        for key in 15..18 {
            commit_key(&cluster, table, 0, key);
        }
        println!(
            "  certifier leader crashed and failed over; system version now {}",
            cluster.system_version()
        );

        // Recover the replica with the one rule every system shares: restore
        // its best checkpoint, redo its WAL to the dense frontier (nothing
        // under Tashkent-MW, whose WAL is not synced), then resync the rest
        // from the certifier log through its proxy.
        let started = Instant::now();
        let applied = cluster.replica(1).recover().unwrap();
        let elapsed = started.elapsed();
        println!(
            "  replica 1 recovered, re-applied {applied} writesets, now at version {}",
            cluster.replica(1).version()
        );
        println!(
            "  recovery took {:.3} ms ({:.0} writesets/s)",
            elapsed.as_secs_f64() * 1e3,
            applied as f64 / elapsed.as_secs_f64()
        );

        // Every committed row is present on the recovered replica.
        let session = cluster.session(1);
        let tx = session.begin();
        for key in 0..18 {
            let row = tx.read(table, key).unwrap().expect("row survived");
            assert_eq!(row.get("v"), Some(&Value::Int(key * 10)));
        }
        tx.commit().unwrap();
        println!("  all 18 committed rows verified on the recovered replica");

        // Bring the crashed certifier node back as well.
        cluster.recover_certifier_node(CertifierNodeId(0)).unwrap();
        println!("  certifier node 0 recovered via state transfer\n");
    }
}
