//! Regression tests for the drain-tail stall.
//!
//! The historical signature (first seen as a rare relapse in 2-shard TPC-B
//! flight recordings): commits stop, the WAL keeps a ~1 Hz heartbeat of
//! fsyncs, and the cluster sits stalled for 15–60 s until one stuck
//! in-flight ordered commit resolves.
//!
//! Root cause: two *sequential* certified writesets that touch the same row
//! can be scheduled by different apply-pipeline rounds.  When the
//! later-ordered install began first, it took the row and parked in its
//! announce wait while the earlier-ordered install blocked on the row lock
//! — a cycle through the announce chain that the engine's wait-for graph
//! cannot see.  The earlier install aborted after the 1 s lock-wait as a
//! presumed deadlock and was retried (the ~1 Hz heartbeat); the later one
//! only gave way at its 5 s ordered-commit timeout.
//!
//! The rule that removes the cycle: an ordered install begins at its
//! announce turn.  `apply_writeset_ordered` waits until every earlier index
//! has announced before it takes a snapshot or a row lock, so a later
//! install never holds a row an earlier one needs.  These tests replay the
//! stalling schedule deterministically and assert it resolves in
//! milliseconds, with no presumed-deadlock aborts at all.

use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use tashkent_common::{CounterId, MetricsRegistry, TableId, Value, Version, WriteItem, WriteSet};
use tashkent_storage::{Database, EngineConfig, FlushAt};

fn update(table: TableId, key: i64, value: i64) -> WriteSet {
    WriteSet::from_items(vec![WriteItem::update(
        table,
        key,
        vec![("x".into(), Value::Int(value))],
    )])
}

/// A database at version 1 and the registry it counts deadlocks into.
fn seeded_db() -> (Arc<Database>, TableId, Arc<MetricsRegistry>) {
    let metrics = Arc::new(MetricsRegistry::enabled());
    let db = Database::new(EngineConfig {
        metrics: Arc::clone(&metrics),
        ..EngineConfig::default()
    });
    let t = db.create_table("t", &["x"]);
    let tx = db.begin();
    tx.insert(t, 1, vec![("x".into(), Value::Int(0))]).unwrap();
    tx.commit().unwrap(); // version 1
    (Arc::new(db), t, metrics)
}

/// The exact two-apply interleaving of the stall: the later-ordered apply
/// (order 2) is submitted first; the earlier-ordered apply (order 1) then
/// needs the same row.  When an install could take the row before its
/// turn, this took `lock_wait_timeout` (1 s) to fail the earlier apply as
/// a presumed deadlock and `ordered_commit_timeout` (5 s) to unstick the
/// later one; now the later apply waits for its turn without touching the
/// row, the earlier one commits, and the later one begins behind it.
#[test]
fn later_ordered_apply_yields_the_row_to_its_predecessor() {
    let (db, t, metrics) = seeded_db();
    let started = Instant::now();

    let later = {
        let db = Arc::clone(&db);
        thread::spawn(move || {
            db.apply_writeset_ordered(&update(t, 1, 30), Version(3), 2, FlushAt::BeforeTurn)
        })
    };
    // Let the later-ordered apply park in its turn wait (the sleep only
    // orders the two applies, it is not load-bearing for correctness —
    // if the earlier apply won the race the schedule is trivially fine).
    thread::sleep(Duration::from_millis(200));

    let earlier = db.apply_writeset_ordered(&update(t, 1, 20), Version(2), 1, FlushAt::BeforeTurn);
    assert_eq!(earlier.unwrap(), Version(2));
    assert_eq!(later.join().unwrap().unwrap(), Version(3));

    // The stall signature is gone: sub-second resolution (the stalling
    // schedule needed the 5 s ordered-commit timeout to break the cycle)
    // and zero presumed-deadlock aborts (it had one per 1 s retry beat).
    assert!(
        started.elapsed() < Duration::from_secs(1),
        "drain-tail schedule took {:?}",
        started.elapsed()
    );
    assert_eq!(metrics.counter(CounterId::Deadlocks), 0);
    assert_eq!(db.version(), Version(3));
    // The announce order won: the row carries the later apply's image.
    let row = db.read_latest(t, 1).unwrap();
    assert_eq!(row.get("x"), Some(&Value::Int(30)));
}

/// A three-deep inversion: orders 3, 2, 1 all write the same row and are
/// submitted in reverse announce order.  Each waits for its turn before it
/// touches the row, so the whole chain drains in announce order without a
/// single presumed-deadlock abort.
#[test]
fn reversed_apply_chain_drains_without_deadlock_beats() {
    let (db, t, metrics) = seeded_db();
    let started = Instant::now();

    let mut handles = Vec::new();
    for order in (2..=3u64).rev() {
        let db = Arc::clone(&db);
        handles.push(thread::spawn(move || {
            db.apply_writeset_ordered(
                &update(t, 1, order as i64 * 10),
                Version(order + 1),
                order,
                FlushAt::BeforeTurn,
            )
        }));
        thread::sleep(Duration::from_millis(100));
    }
    let first = db.apply_writeset_ordered(&update(t, 1, 10), Version(2), 1, FlushAt::BeforeTurn);

    assert_eq!(first.unwrap(), Version(2));
    for handle in handles {
        assert!(handle.join().unwrap().is_ok());
    }
    assert!(
        started.elapsed() < Duration::from_secs(2),
        "reversed chain took {:?}",
        started.elapsed()
    );
    assert_eq!(metrics.counter(CounterId::Deadlocks), 0);
    assert_eq!(db.version(), Version(4));
    let row = db.read_latest(t, 1).unwrap();
    assert_eq!(row.get("x"), Some(&Value::Int(30)));
}

/// Earlier-ordered installs are never wounded: an apply whose predecessor
/// wrote the same row runs after the predecessor's announce and commits on
/// top of it.
#[test]
fn earlier_ordered_holder_is_waited_out_not_wounded() {
    let (db, t, metrics) = seeded_db();

    // Order 1 runs first (announce_counter is 0, its turn) and announces;
    // order 2 then begins on a snapshot that holds order 1's row.
    let r1 = db.apply_writeset_ordered(&update(t, 1, 10), Version(2), 1, FlushAt::BeforeTurn);
    assert_eq!(r1.unwrap(), Version(2));
    let r2 = db.apply_writeset_ordered(&update(t, 1, 20), Version(3), 2, FlushAt::BeforeTurn);
    assert_eq!(r2.unwrap(), Version(3));
    assert_eq!(metrics.counter(CounterId::Deadlocks), 0);
    let row = db.read_latest(t, 1).unwrap();
    assert_eq!(row.get("x"), Some(&Value::Int(20)));
}
