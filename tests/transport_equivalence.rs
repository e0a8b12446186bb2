//! Transport equivalence: the cluster must take the *same decisions* and
//! converge to the *same contents* whether the replicas talk to the
//! certifier in-process, over the deterministic loopback network, or over
//! real TCP sockets.
//!
//! The trace is a fixed serial schedule driven by one thread — a
//! deterministic TPC-B-flavoured mix of transfers, deliberate write-write
//! conflicts (two transactions opened on the same snapshot writing the same
//! account) and cross-replica updates — so every run on every transport
//! replays the identical program order and the per-transaction outcomes are
//! comparable one-for-one.

use std::sync::Arc;
use std::thread;
use std::time::Duration;

use tashkent::{
    Cluster, ClusterConfig, CounterId, RowKey, SystemKind, TableId, TransportKind, Value,
};

/// One observed transaction outcome, rendered comparable across runs.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Outcome {
    Commit { version: u64 },
    Abort,
}

struct Trace {
    /// Per-transaction decisions in program order.
    outcomes: Vec<Outcome>,
    /// Final `(key, balance)` rows of the accounts table, sorted by key.
    accounts: Vec<(i64, i64)>,
    /// Final replica versions (all equal after `sync_all`).
    final_version: u64,
}

const ACCOUNTS: i64 = 8;

fn build(system: SystemKind, transport: TransportKind) -> (Arc<Cluster>, TableId) {
    let mut config = ClusterConfig::small(system);
    config.replicas = 2;
    config.transport = transport;
    let cluster = Arc::new(Cluster::new(config).unwrap());
    let table = cluster.create_table("accounts", &["balance"]);
    for key in 0..ACCOUNTS {
        let tx = cluster.session(0).begin();
        tx.insert(table, key, vec![("balance".into(), Value::Int(100))])
            .unwrap();
        tx.commit().unwrap();
    }
    cluster.sync_all().unwrap();
    cluster.checkpoint();
    (cluster, table)
}

/// Moves `amount` from one account to another on `replica`, read-modify-write.
fn transfer(
    cluster: &Cluster,
    table: TableId,
    replica: usize,
    from: i64,
    to: i64,
    amount: i64,
) -> Outcome {
    let tx = cluster.session(replica).begin();
    let read = |key: i64, tx: &tashkent::ProxyTransaction| -> i64 {
        tx.read(table, key)
            .unwrap()
            .and_then(|row| row.get("balance").cloned())
            .map_or(0, |v| match v {
                Value::Int(i) => i,
                _ => 0,
            })
    };
    let debit = read(from, &tx) - amount;
    let credit = read(to, &tx) + amount;
    let write = tx
        .update(table, from, vec![("balance".into(), Value::Int(debit))])
        .and_then(|()| tx.update(table, to, vec![("balance".into(), Value::Int(credit))]));
    match write.and_then(|()| tx.commit()) {
        Ok(outcome) => Outcome::Commit {
            version: outcome.commit_version.map_or(0, |v| v.value()),
        },
        Err(_) => Outcome::Abort,
    }
}

/// The fixed serial schedule: every run executes exactly this program.
fn drive(cluster: &Arc<Cluster>, table: TableId) -> Trace {
    let mut outcomes = Vec::new();
    // Phase 1: conflict-free transfers alternating between the replicas.
    for step in 0..12i64 {
        let replica = (step % 2) as usize;
        let from = step % ACCOUNTS;
        let to = (step + 3) % ACCOUNTS;
        outcomes.push(transfer(cluster, table, replica, from, to, 1 + step));
        if step % 4 == 3 {
            cluster.sync_all().unwrap();
        }
    }
    // Phase 2: deliberate first-committer-wins races.  Both transactions
    // open on the same snapshot and write account 0; the first commit wins,
    // the second must abort on every transport.
    for round in 0..3i64 {
        cluster.sync_all().unwrap();
        let tx_a = cluster.session(0).begin();
        let tx_b = cluster.session(1).begin();
        tx_a.update(table, 0, vec![("balance".into(), Value::Int(500 + round))])
            .unwrap();
        tx_b.update(table, 0, vec![("balance".into(), Value::Int(900 + round))])
            .unwrap();
        outcomes.push(match tx_a.commit() {
            Ok(outcome) => Outcome::Commit {
                version: outcome.commit_version.map_or(0, |v| v.value()),
            },
            Err(_) => Outcome::Abort,
        });
        outcomes.push(match tx_b.commit() {
            Ok(outcome) => Outcome::Commit {
                version: outcome.commit_version.map_or(0, |v| v.value()),
            },
            Err(_) => Outcome::Abort,
        });
    }
    // Phase 3: a read-only scan commits without certification everywhere.
    let tx = cluster.session(1).begin();
    let rows = tx.scan(table).unwrap().len();
    let ro = tx.commit().unwrap();
    assert!(ro.read_only, "a pure scan must commit read-only");
    assert_eq!(rows as i64, ACCOUNTS);

    cluster.sync_all().unwrap();
    let tx = cluster.session(0).begin();
    let mut accounts: Vec<(i64, i64)> = tx
        .scan(table)
        .unwrap()
        .into_iter()
        .map(|(key, row)| {
            let k = match key {
                RowKey::Int(i) => i,
                other => panic!("integer keys only, got {other:?}"),
            };
            let v = match row.get("balance") {
                Some(Value::Int(i)) => *i,
                other => panic!("unexpected balance {other:?}"),
            };
            (k, v)
        })
        .collect();
    tx.abort();
    accounts.sort_unstable();
    Trace {
        outcomes,
        accounts,
        final_version: cluster.system_version().value(),
    }
}

#[test]
fn every_transport_takes_identical_decisions_and_contents() {
    for system in [SystemKind::TashkentApi, SystemKind::TashkentMw] {
        let (cluster, table) = build(system, TransportKind::InProcess);
        let baseline = drive(&cluster, table);
        assert!(
            baseline
                .outcomes
                .iter()
                .filter(|o| matches!(o, Outcome::Abort))
                .count()
                >= 3,
            "{system}: the schedule must provoke its deliberate conflicts"
        );
        // Money conservation: transfers and overwrites kept 8 rows.
        assert_eq!(baseline.accounts.len() as i64, ACCOUNTS, "{system}");

        for transport in [TransportKind::Loopback, TransportKind::Tcp] {
            let (cluster, table) = build(system, transport);
            let trace = drive(&cluster, table);
            assert_eq!(
                trace.outcomes, baseline.outcomes,
                "{system}/{transport:?}: per-transaction decisions diverged from in-process"
            );
            assert_eq!(
                trace.accounts, baseline.accounts,
                "{system}/{transport:?}: final contents diverged from in-process"
            );
            assert_eq!(
                trace.final_version, baseline.final_version,
                "{system}/{transport:?}: commit clock diverged from in-process"
            );
            // The run demonstrably crossed the wire.
            assert!(
                cluster.metrics_snapshot().counter(CounterId::NetMessages) > 0,
                "{system}/{transport:?}: no traffic crossed the network transport"
            );
        }
    }
}

/// `sync_all` settles by version: a replica whose certifier link is down
/// when the sync starts keeps refreshing until the link heals, instead of
/// taking one empty fetch for "nothing new".
#[test]
fn sync_all_waits_out_a_severed_link_until_every_replica_is_current() {
    for system in SystemKind::ALL {
        let (cluster, table) = build(system, TransportKind::Loopback);
        assert!(cluster.sever_certifier_link(1));
        let committed = transfer(&cluster, table, 0, 1, 2, 5);
        assert!(matches!(committed, Outcome::Commit { .. }), "{system}");

        let healer = {
            let cluster = Arc::clone(&cluster);
            thread::spawn(move || {
                thread::sleep(Duration::from_millis(50));
                assert!(cluster.heal_certifier_link(1));
            })
        };
        let synced = cluster.sync_all();
        healer.join().unwrap();
        synced.unwrap_or_else(|e| panic!("{system}: {e}"));
        let target = cluster.certifier().local().system_version();
        for (replica, version) in cluster.replica_versions() {
            assert_eq!(version, target, "{system}: {replica} behind after sync_all");
        }
    }
}
