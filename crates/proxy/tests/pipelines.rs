//! Integration tests of the three proxy commit pipelines against a shared
//! certifier: two replicas exchange updates, conflicts are detected, and the
//! replicas converge to the same state in the same global order.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use tashkent_certifier::{
    CertificationRequest, CertificationResponse, Certifier, CertifierConfig, CertifierNodeId,
    RemoteWriteSet,
};
use tashkent_common::{
    Component, CounterId, Error, EventKind, MetricsRegistry, ReplicaId, Result, SystemKind,
    TableId, Value, Version, WriteItem, WriteSet,
};
use tashkent_proxy::{CertifierHandle, CertifierService, Proxy, ProxyConfig};
use tashkent_storage::{Database, EngineConfig};

/// A certifier and the registry it and every replica proxy report into.
struct Rig {
    metrics: Arc<MetricsRegistry>,
    certifier: Arc<Certifier>,
}

impl Rig {
    fn new() -> Self {
        let metrics = Arc::new(MetricsRegistry::enabled());
        let certifier = Arc::new(Certifier::new(CertifierConfig {
            metrics: Arc::clone(&metrics),
            ..CertifierConfig::default()
        }));
        Rig { metrics, certifier }
    }

    fn replica(&self, system: SystemKind, id: u32) -> Proxy {
        self.replica_timing_out(system, id, EngineConfig::default().ordered_commit_timeout)
    }

    /// A replica whose ordered commits give up on their announce turn after
    /// `ordered_commit_timeout`.
    fn replica_timing_out(
        &self,
        system: SystemKind,
        id: u32,
        ordered_commit_timeout: Duration,
    ) -> Proxy {
        let handle = CertifierHandle::Local(Arc::clone(&self.certifier));
        self.replica_via(system, id, ordered_commit_timeout, handle)
    }

    /// A replica reaching the certifier through `service`, as a networked
    /// replica does.
    fn replica_through(&self, system: SystemKind, id: u32, service: Arc<GapService>) -> Proxy {
        let handle = CertifierHandle::Remote {
            service,
            colocated: Box::new(CertifierHandle::Local(Arc::clone(&self.certifier))),
        };
        self.replica_via(
            system,
            id,
            EngineConfig::default().ordered_commit_timeout,
            handle,
        )
    }

    fn replica_via(
        &self,
        system: SystemKind,
        id: u32,
        ordered_commit_timeout: Duration,
        certifier: CertifierHandle,
    ) -> Proxy {
        let db = Database::new(EngineConfig {
            ordered_commit_timeout,
            ..EngineConfig::with_sync_mode(match system {
                SystemKind::TashkentMw => tashkent_common::SyncMode::Off,
                _ => tashkent_common::SyncMode::Durable,
            })
        });
        db.create_table("accounts", &["balance"]);
        let config = ProxyConfig {
            metrics: Arc::clone(&self.metrics),
            ..ProxyConfig::new(system, ReplicaId(id))
        };
        Proxy::new(config, db, certifier)
    }

    fn counter(&self, counter: CounterId) -> u64 {
        self.metrics.counter(counter)
    }

    fn resyncs(&self) -> usize {
        self.metrics
            .component_events(Component::Replica)
            .iter()
            .filter(|e| e.kind == EventKind::Resync)
            .count()
    }
}

/// A data plane that loses the first writeset of every stream it is told
/// to: `fetch_gap` for `writesets_after`, `certify_gap` for the remote
/// writesets a certify response carries.  `certify_poison` instead rewrites
/// a certify response's first remote writeset to name a table no replica
/// has, so installing it fails.
struct GapService {
    inner: Arc<Certifier>,
    fetch_gap: AtomicBool,
    certify_gap: AtomicBool,
    certify_poison: AtomicBool,
}

impl GapService {
    fn new(inner: &Arc<Certifier>, fetch_gap: bool, certify_gap: bool) -> Arc<Self> {
        Arc::new(GapService {
            inner: Arc::clone(inner),
            fetch_gap: AtomicBool::new(fetch_gap),
            certify_gap: AtomicBool::new(certify_gap),
            certify_poison: AtomicBool::new(false),
        })
    }

    fn heal(&self) {
        self.fetch_gap.store(false, Ordering::SeqCst);
        self.certify_gap.store(false, Ordering::SeqCst);
    }
}

fn drop_first(gap: &AtomicBool, mut stream: Vec<RemoteWriteSet>) -> Vec<RemoteWriteSet> {
    if gap.load(Ordering::SeqCst) && !stream.is_empty() {
        stream.remove(0);
    }
    stream
}

impl CertifierService for GapService {
    fn certify(&self, request: &CertificationRequest) -> Result<CertificationResponse> {
        let mut response = self.inner.certify(request)?;
        response.remote_writesets = drop_first(&self.certify_gap, response.remote_writesets);
        if let Some(first) = response.remote_writesets.first_mut() {
            if self.certify_poison.load(Ordering::SeqCst) {
                first.writeset = Arc::new(WriteSet::from_items(vec![WriteItem::insert(
                    TableId(99),
                    first.commit_version.0 as i64,
                    vec![("balance".into(), Value::Int(0))],
                )]));
            }
        }
        Ok(response)
    }
    fn writesets_after(&self, since: Version) -> Vec<RemoteWriteSet> {
        drop_first(&self.fetch_gap, self.inner.writesets_after(since))
    }
    fn system_version(&self) -> Version {
        self.inner.system_version()
    }
    fn is_available(&self) -> bool {
        self.inner.is_available()
    }
    fn truncation_floor(&self) -> Version {
        self.inner.truncation_floor()
    }
}

fn deposit(proxy: &Proxy, key: i64, amount: i64) -> Result<Option<Version>> {
    let table = proxy.database().table_id("accounts").unwrap();
    let tx = proxy.begin();
    let balance = tx
        .read(table, key)?
        .and_then(|row| row.get("balance").and_then(Value::as_int))
        .unwrap_or(0);
    tx.insert(
        table,
        key,
        vec![("balance".into(), Value::Int(balance + amount))],
    )?;
    tx.commit().map(|outcome| outcome.commit_version)
}

fn balance(proxy: &Proxy, key: i64) -> i64 {
    let table = proxy.database().table_id("accounts").unwrap();
    proxy
        .database()
        .read_latest(table, key)
        .and_then(|row| row.get("balance").and_then(Value::as_int))
        .unwrap_or(0)
}

fn run_two_replica_exchange(system: SystemKind) {
    let rig = Rig::new();
    let a = rig.replica(system, 0);
    let b = rig.replica(system, 1);

    // Replica A commits to key 1, replica B to key 2 — no conflicts.
    deposit(&a, 1, 100).unwrap();
    deposit(&b, 2, 200).unwrap();
    // Each replica learns of the other's update when it next commits.
    deposit(&a, 1, 1).unwrap();
    deposit(&b, 2, 2).unwrap();
    // Bring both fully up to date.
    a.refresh().unwrap();
    b.refresh().unwrap();

    assert_eq!(rig.certifier.system_version(), Version(4));
    assert_eq!(a.replica_version(), Version(4));
    assert_eq!(b.replica_version(), Version(4));
    for proxy in [&a, &b] {
        assert_eq!(balance(proxy, 1), 101);
        assert_eq!(balance(proxy, 2), 202);
        assert_eq!(proxy.database().version(), Version(4));
    }
}

#[test]
fn base_replicas_exchange_updates() {
    run_two_replica_exchange(SystemKind::Base);
}

#[test]
fn tashkent_mw_replicas_exchange_updates() {
    run_two_replica_exchange(SystemKind::TashkentMw);
}

#[test]
fn tashkent_api_replicas_exchange_updates() {
    run_two_replica_exchange(SystemKind::TashkentApi);
}

#[test]
fn conflicting_updates_on_different_replicas_abort_one() {
    let rig = Rig::new();
    let a = rig.replica(SystemKind::TashkentMw, 0);
    let b = rig.replica(SystemKind::TashkentMw, 1);
    let ta = a.database().table_id("accounts").unwrap();
    let tb = b.database().table_id("accounts").unwrap();

    // Both replicas start transactions that write the same key concurrently.
    let txa = a.begin();
    txa.insert(ta, 7, vec![("balance".into(), Value::Int(1))])
        .unwrap();
    let txb = b.begin();
    txb.insert(tb, 7, vec![("balance".into(), Value::Int(2))])
        .unwrap();
    // A commits first and wins; B's certification must fail.
    txa.commit().unwrap();
    let result = txb.commit();
    assert!(matches!(result, Err(Error::CertificationFailed { .. })));
    // After refreshing, B holds A's value.
    b.refresh().unwrap();
    assert_eq!(balance(&b, 7), 1);
    assert_eq!(rig.counter(CounterId::CertifyCommits), 1);
    assert_eq!(rig.counter(CounterId::CertifyAborts), 1);
}

#[test]
fn local_certification_aborts_without_contacting_certifier() {
    let rig = Rig::new();
    let a = rig.replica(SystemKind::TashkentMw, 0);
    let b = rig.replica(SystemKind::TashkentMw, 1);
    let ta = a.database().table_id("accounts").unwrap();

    // A starts a transaction writing key 3 while B commits key 3 first; A
    // then learns about it through a refresh, so local certification can
    // reject A's commit without a certifier round trip.
    let txa = a.begin();
    txa.insert(ta, 3, vec![("balance".into(), Value::Int(1))])
        .unwrap();
    deposit(&b, 3, 50).unwrap();
    a.refresh().unwrap();
    let requests_before = rig.counter(CounterId::CertifyRequests);
    let result = txa.commit();
    assert!(matches!(result, Err(Error::CertificationFailed { .. })));
    assert_eq!(rig.counter(CounterId::CertifyRequests), requests_before);
    assert_eq!(rig.counter(CounterId::TxAborted), 1);
}

#[test]
fn read_only_transactions_commit_without_certification() {
    let rig = Rig::new();
    let a = rig.replica(SystemKind::Base, 0);
    let table = a.database().table_id("accounts").unwrap();
    deposit(&a, 1, 10).unwrap();
    let requests = rig.counter(CounterId::CertifyRequests);
    let tx = a.begin();
    let row = tx.read(table, 1).unwrap().unwrap();
    assert_eq!(row.get("balance"), Some(&Value::Int(10)));
    let outcome = tx.commit().unwrap();
    assert!(outcome.read_only);
    assert_eq!(rig.counter(CounterId::CertifyRequests), requests);
    assert_eq!(rig.counter(CounterId::TxCommitted), 2);
}

#[test]
fn tashkent_mw_replicas_never_fsync_but_certifier_does() {
    let rig = Rig::new();
    let a = rig.replica(SystemKind::TashkentMw, 0);
    for key in 0..20 {
        deposit(&a, key, 5).unwrap();
    }
    assert_eq!(a.database().log_device().stats().fsyncs, 0);
    assert!(rig.certifier.stats().leader_fsyncs > 0);
}

#[test]
fn base_replicas_fsync_for_every_commit_and_remote_group() {
    let rig = Rig::new();
    let a = rig.replica(SystemKind::Base, 0);
    let b = rig.replica(SystemKind::Base, 1);
    // Interleave commits so each replica also has remote writesets to apply.
    for key in 0..5 {
        deposit(&a, key, 1).unwrap();
        deposit(&b, 100 + key, 1).unwrap();
    }
    let fsyncs_a = a.database().log_device().stats().fsyncs;
    // Replica A performed 5 local commits plus remote-group applications:
    // every one of them required its own fsync (serial commits).
    assert!(fsyncs_a >= 9, "expected >= 9 fsyncs, measured {fsyncs_a}");
}

#[test]
fn concurrent_clients_on_one_replica_agree_with_the_certifier() {
    for system in [SystemKind::Base, SystemKind::TashkentMw, SystemKind::TashkentApi] {
        let rig = Rig::new();
        let proxy = rig.replica(system, 0);
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let proxy = proxy.clone();
                std::thread::spawn(move || {
                    let mut committed = 0;
                    for i in 0..10 {
                        // Distinct keys per thread: no conflicts expected.
                        if deposit(&proxy, t * 1000 + i, 1).is_ok() {
                            committed += 1;
                        }
                    }
                    committed
                })
            })
            .collect();
        let committed: i64 = threads.into_iter().map(|t| t.join().unwrap()).sum();
        assert_eq!(committed, 40, "system {system}");
        proxy.refresh().unwrap();
        assert_eq!(
            proxy.database().version(),
            rig.certifier.system_version(),
            "system {system}"
        );
        assert_eq!(proxy.database().version(), Version(40), "system {system}");
    }
}

#[test]
fn tashkent_api_serialises_artificial_conflicts() {
    let rig = Rig::new();
    let api = rig.replica(SystemKind::TashkentApi, 0);
    let remote = rig.replica(SystemKind::TashkentApi, 1);

    // The remote replica commits two transactions that write the same key in
    // sequence (no global conflict because the second starts after the
    // first), plus one unrelated transaction.
    deposit(&remote, 55, 1).unwrap(); // v1
    deposit(&remote, 77, 1).unwrap(); // v2
    deposit(&remote, 55, 1).unwrap(); // v3 — artificially conflicts with v1 at other replicas.

    // When the API replica commits its own transaction it receives all three
    // as remote writesets; v3 must be serialised behind v1.
    deposit(&api, 99, 1).unwrap();
    assert_eq!(api.database().version(), rig.certifier.system_version());
    assert_eq!(balance(&api, 55), 2);
    assert_eq!(balance(&api, 77), 1);
    assert!(rig.counter(CounterId::ArtificialConflictBarriers) >= 1);
}

/// Section 8.2 on every system: a remote install that reaches a row a local
/// transaction holds aborts the holder instead of deadlocking against it (on
/// Tashkent-API the refresh does so from inside an ordered install).
#[test]
fn remote_install_wounds_a_conflicting_local_holder() {
    for system in SystemKind::ALL {
        let rig = Rig::new();
        let a = rig.replica(system, 0);
        let b = rig.replica(system, 1);
        let ta = a.database().table_id("accounts").unwrap();

        // A local transaction on A holds the write lock on key 9 but has not
        // yet tried to commit.
        let txa = a.begin();
        txa.insert(ta, 9, vec![("balance".into(), Value::Int(1))])
            .unwrap();
        // B commits a transaction on the same key; A's refresh installs it
        // and wounds the local holder.
        deposit(&b, 9, 42).unwrap();
        a.refresh().unwrap();
        assert_eq!(balance(&a, 9), 42, "system {system}");
        // The wounded transaction cannot commit.
        assert!(txa.commit().is_err(), "system {system}");
    }
}

#[test]
fn certifier_outage_surfaces_as_unavailable() {
    let rig = Rig::new();
    let a = rig.replica(SystemKind::Base, 0);
    deposit(&a, 1, 1).unwrap();
    rig.certifier.crash_node(CertifierNodeId(0));
    rig.certifier.crash_node(CertifierNodeId(1));
    let result = deposit(&a, 2, 1);
    assert!(matches!(result, Err(Error::Unavailable(_))));
    // Read-only transactions still work: they never contact the certifier.
    let table = a.database().table_id("accounts").unwrap();
    let tx = a.begin();
    assert!(tx.read(table, 1).unwrap().is_some());
    tx.commit().unwrap();
}

/// A refresh is an ordered install on every system: it takes one order
/// index for the whole group and announces it like any commit.
#[test]
fn refresh_takes_an_order_index() {
    for system in SystemKind::ALL {
        let rig = Rig::new();
        let a = rig.replica(system, 0);
        let b = rig.replica(system, 1);
        for key in 1..=5 {
            deposit(&a, key, 10 * key).unwrap();
        }
        assert_eq!(b.refresh().unwrap(), 5, "{system}");
        assert_eq!(b.database().announce_counter(), 1, "{system}");
        assert_eq!(b.database().version(), Version(5), "{system}");
        for key in 1..=5 {
            assert_eq!(balance(&b, key), balance(&a, key), "{system} key {key}");
        }
    }
}

/// A refresh queued behind an index that never announces (the state a
/// crashed or failed ordered commit leaves behind) waits out the
/// ordered-commit timeout, then resyncs: the caller sees the timeout, and
/// the replica is current anyway.
#[test]
fn refresh_behind_a_burned_order_index_times_out_and_resyncs() {
    for system in SystemKind::ALL {
        let rig = Rig::new();
        let a = rig.replica(system, 0);
        let b = rig.replica_timing_out(system, 1, Duration::from_millis(50));
        for key in 1..=5 {
            deposit(&a, key, 10 * key).unwrap();
        }
        b.debug_burn_order_index();

        let result = b.refresh();
        assert!(
            matches!(result, Err(Error::OrderedCommitTimeout { .. })),
            "{system}: {result:?}"
        );
        assert_eq!(
            b.replica_version(),
            rig.certifier.system_version(),
            "{system}"
        );
        assert_eq!(
            b.database().version(),
            rig.certifier.system_version(),
            "{system}"
        );
        for key in 1..=5 {
            assert_eq!(balance(&b, key), 10 * key, "{system} key {key}");
        }
        assert_eq!(rig.resyncs(), 1, "{system}");
    }
}

/// `resync` burns outstanding order indices in the same state-lock section
/// that takes its own: recovery makes progress even when an index was
/// burned by a failed pipeline, and the replica is fully usable afterwards.
#[test]
fn resync_force_fills_burned_order_indices() {
    for system in SystemKind::ALL {
        let rig = Rig::new();
        let a = rig.replica(system, 0);
        let b = rig.replica(system, 1);

        for key in 1..=5 {
            deposit(&a, key, 10 * key).unwrap();
        }
        b.debug_burn_order_index();

        // Soft recovery burns the stale index and applies the whole backlog.
        let applied = b.resync().unwrap();
        assert_eq!(applied, 5, "{system}");
        assert_eq!(b.database().announce_counter(), 2, "{system}");
        assert_eq!(b.replica_version(), Version(5), "{system}");
        assert_eq!(b.database().version(), Version(5), "{system}");
        for key in 1..=5 {
            assert_eq!(balance(&b, key), 10 * key, "{system} key {key}");
        }
        assert_eq!(rig.resyncs(), 1, "{system}");

        // The ordered-commit bookkeeping is consistent again: both replicas
        // keep committing and converging.
        deposit(&b, 6, 60).unwrap();
        deposit(&a, 7, 70).unwrap();
        b.refresh().unwrap();
        a.refresh().unwrap();
        assert_eq!(a.replica_version(), Version(7), "{system}");
        assert_eq!(b.replica_version(), Version(7), "{system}");
        assert_eq!(balance(&a, 6), 60, "{system}");
        assert_eq!(balance(&b, 7), 70, "{system}");
    }
}

/// A round whose remote install fails resyncs at once on every system: the
/// engine records the failed index, so the round's own commit fails its
/// turn wait at once instead of waiting out the 5 s ordered-commit timeout
/// behind an index that never announces.  Base and Tashkent-MW install on
/// the committing thread, Tashkent-API on a spawned one.
#[test]
fn a_failed_inline_group_install_resyncs_without_waiting_for_a_turn() {
    for system in SystemKind::ALL {
        let rig = Rig::new();
        let a = rig.replica(system, 0);
        deposit(&a, 1, 100).unwrap();
        deposit(&a, 2, 200).unwrap();
        let service = GapService::new(&rig.certifier, false, false);
        service.certify_poison.store(true, Ordering::SeqCst);
        let b = rig.replica_through(system, 1, service);

        let started = Instant::now();
        assert_eq!(deposit(&b, 3, 30).unwrap(), Some(Version(3)), "{system}");
        let elapsed = started.elapsed();
        assert!(
            elapsed < Duration::from_secs(1),
            "{system}: the round took {elapsed:?}"
        );
        assert_eq!(rig.resyncs(), 1, "{system}");
        assert_eq!(b.database().version(), Version(3), "{system}");
        for (key, amount) in [(1, 100), (2, 200), (3, 30)] {
            assert_eq!(balance(&b, key), amount, "{system} key {key}");
        }
    }
}

/// A backlog wider than the concurrent window installs as one merged group
/// at one order index while other clients of the same replica keep
/// committing: every commit succeeds, later writes in the backlog win, and
/// the replica converges.
#[test]
fn api_backlog_group_installs_beside_concurrent_clients() {
    const CLIENTS: i64 = 3;
    const COMMITS: i64 = 20;
    let rig = Rig::new();
    let a = rig.replica(SystemKind::TashkentApi, 0);
    let b = rig.replica(SystemKind::TashkentApi, 1);
    // 200 commits over 10 keys: the backlog rewrites each key 20 times.
    for i in 0..200 {
        deposit(&a, i % 10, 1).unwrap();
    }

    let (done, results) = mpsc::channel();
    let clients: Vec<_> = (1..=CLIENTS)
        .map(|client| {
            let b = b.clone();
            let done = done.clone();
            std::thread::spawn(move || {
                for i in 0..COMMITS {
                    done.send(deposit(&b, client * 1000 + i, 1)).unwrap();
                }
            })
        })
        .collect();
    for _ in 0..CLIENTS * COMMITS {
        let outcome = results
            .recv_timeout(Duration::from_secs(60))
            .expect("a client of replica B hung");
        outcome.expect("every commit on replica B succeeds");
    }
    for client in clients {
        client.join().unwrap();
    }
    // One index per client commit and per remote it carried, but one for
    // the whole 200-writeset backlog.
    assert!(b.database().announce_counter() < 200);

    b.refresh().unwrap();
    assert_eq!(b.database().version(), rig.certifier.system_version());
    assert_eq!(b.replica_version(), Version(200 + (CLIENTS * COMMITS) as u64));
    for key in 0..10 {
        assert_eq!(balance(&b, key), 20, "key {key}");
    }
    for client in 1..=CLIENTS {
        for i in 0..COMMITS {
            assert_eq!(balance(&b, client * 1000 + i), 1, "client {client} key {i}");
        }
    }
}

/// A fetched stream that does not continue at `replica_version + 1` is
/// refused with a typed error and schedules nothing; once the stream is
/// dense again the same proxy installs every version in order.
#[test]
fn a_stream_that_skips_a_version_is_refused_and_schedules_nothing() {
    for system in SystemKind::ALL {
        let rig = Rig::new();
        let a = rig.replica(system, 0);
        for key in 1..=3 {
            deposit(&a, key, 10 * key).unwrap();
        }
        let service = GapService::new(&rig.certifier, true, false);
        let b = rig.replica_through(system, 1, Arc::clone(&service));

        let result = b.refresh();
        assert!(
            matches!(result, Err(Error::Corruption(_))),
            "{system}: {result:?}"
        );
        assert_eq!(b.replica_version(), Version::ZERO, "{system}");
        assert_eq!(b.database().version(), Version::ZERO, "{system}");

        service.heal();
        assert_eq!(b.refresh().unwrap(), 3, "{system}");
        assert_eq!(b.database().version(), Version(3), "{system}");
        for key in 1..=3 {
            assert_eq!(balance(&b, key), 10 * key, "{system} key {key}");
        }
    }
}

/// A certified local commit whose version is not the next dense one is not
/// committed locally: the client still gets its certified version, the
/// replica does not move, and the certifier stream installs the commit in
/// order later.
#[test]
fn a_certified_commit_that_would_skip_a_version_is_left_to_the_stream() {
    for system in SystemKind::ALL {
        let rig = Rig::new();
        let a = rig.replica(system, 0);
        deposit(&a, 1, 100).unwrap();
        let service = GapService::new(&rig.certifier, false, true);
        let b = rig.replica_through(system, 1, Arc::clone(&service));

        // Certified at version 2 with version 1 lost from the response.
        assert_eq!(deposit(&b, 2, 20).unwrap(), Some(Version(2)), "{system}");
        assert_eq!(b.database().version(), Version::ZERO, "{system}");
        assert_eq!(b.replica_version(), Version::ZERO, "{system}");

        service.heal();
        assert_eq!(b.refresh().unwrap(), 2, "{system}");
        assert_eq!(b.database().version(), Version(2), "{system}");
        assert_eq!(balance(&b, 1), 100, "{system}");
        assert_eq!(balance(&b, 2), 20, "{system}");
    }
}

/// A certify response whose remote writesets skip a version is the commit
/// pipelines' soft-recovery case, not a lost commit: the resync fetches the
/// dense stream — the commit's own writeset included — and the client gets
/// its certified version.
#[test]
fn a_gapped_certify_response_resyncs_instead_of_losing_the_commit() {
    for system in SystemKind::ALL {
        let rig = Rig::new();
        let a = rig.replica(system, 0);
        deposit(&a, 1, 100).unwrap();
        deposit(&a, 2, 200).unwrap();
        let b = rig.replica_through(system, 1, GapService::new(&rig.certifier, false, true));

        assert_eq!(deposit(&b, 3, 30).unwrap(), Some(Version(3)), "{system}");
        assert_eq!(b.database().version(), Version(3), "{system}");
        assert_eq!(b.replica_version(), Version(3), "{system}");
        for (key, amount) in [(1, 100), (2, 200), (3, 30)] {
            assert_eq!(balance(&b, key), amount, "{system} key {key}");
        }
        assert_eq!(rig.resyncs(), 1, "{system}");
    }
}
