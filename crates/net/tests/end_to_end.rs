//! End-to-end session tests: a real certifier behind a [`NetServer`],
//! certified against through a [`RemoteCertifier`] — over both transports.

use std::sync::Arc;
use std::time::Duration;

use tashkent_certifier::certifier::decode_checkpoint_payload;
use tashkent_certifier::{Certifier, CertifierConfig, CertificationRequest};
use tashkent_common::{
    metrics::MetricsRegistry, Component, CounterId, Error, EventKind, GaugeId, ReplicaId,
    SystemKind, TableId, TransportKind, Value, Version, WriteItem, WriteSet,
};
use tashkent_net::{ClusterNet, LoopbackNet, NetServer, RemoteCertifier, SessionConfig, TcpTransport};
use tashkent_proxy::{CertifierHandle, CertifierService, Proxy, ProxyConfig};
use tashkent_storage::{Database, EngineConfig};

fn ws(key: i64) -> WriteSet {
    WriteSet::from_items(vec![WriteItem::update(
        TableId(0),
        key,
        vec![("v".into(), Value::Int(key))],
    )])
}

fn commit(service: &dyn CertifierService, key: i64) -> Version {
    let at = service.system_version();
    let response = service
        .certify(&CertificationRequest {
            replica: ReplicaId(0),
            start_version: at,
            writeset: ws(key),
            replica_version: at,
        })
        .expect("wire certify");
    assert!(response.decision.is_commit());
    response.commit_version.expect("commit carries a version")
}

fn single_handle() -> CertifierHandle {
    CertifierHandle::Local(Arc::new(Certifier::new(CertifierConfig::default())))
}

#[test]
fn loopback_conversation() {
    let net = LoopbackNet::shared();
    let metrics = Arc::new(MetricsRegistry::enabled());
    let handle = single_handle();
    let server = NetServer::start(
        "certifier",
        handle,
        &net.transport("certifier"),
        "certifier",
        Arc::clone(&metrics),
    )
    .unwrap();
    let client = RemoteCertifier::start(
        SessionConfig::new("replica-0", server.endpoint()),
        Arc::new(net.transport("replica-0")),
        Arc::clone(&metrics),
    );
    client.wait_connected(Duration::from_secs(2)).unwrap();
    assert_eq!(commit(client.as_ref(), 1), Version(1));
    client.ping().unwrap();
    client.close();
}

#[test]
fn tcp_conversation() {
    let metrics = Arc::new(MetricsRegistry::enabled());
    let handle = single_handle();
    let server = NetServer::start(
        "certifier",
        handle,
        &TcpTransport::new(),
        "127.0.0.1:0",
        Arc::clone(&metrics),
    )
    .unwrap();
    assert!(server.endpoint().starts_with("127.0.0.1:"));
    let client = RemoteCertifier::start(
        SessionConfig::new("replica-0", server.endpoint()),
        Arc::new(TcpTransport::new()),
        Arc::clone(&metrics),
    );
    client.wait_connected(Duration::from_secs(2)).unwrap();
    assert_eq!(commit(client.as_ref(), 1), Version(1));
    assert_eq!(client.as_ref().writesets_after(Version(0)).len(), 1);
    client.ping().unwrap();
    client.close();
}

#[test]
fn full_conversation_with_metrics_over_loopback() {
    let net = LoopbackNet::shared();
    conversation_impl(net);
}

fn conversation_impl(net: Arc<LoopbackNet>) {
    let metrics = Arc::new(MetricsRegistry::enabled());
    let handle = single_handle();
    let server = NetServer::start(
        "certifier",
        handle.clone(),
        &net.transport("certifier"),
        "certifier",
        Arc::clone(&metrics),
    )
    .unwrap();
    let client = RemoteCertifier::start(
        SessionConfig::new("replica-0", server.endpoint()),
        Arc::new(net.transport("replica-0")),
        Arc::clone(&metrics),
    );
    client.wait_connected(Duration::from_secs(2)).unwrap();

    assert_eq!(commit(client.as_ref(), 1), Version(1));
    assert_eq!(commit(client.as_ref(), 2), Version(2));
    assert_eq!(client.as_ref().system_version(), Version(2));
    assert!(client.as_ref().is_available());
    assert_eq!(client.as_ref().writesets_after(Version(0)).len(), 2);
    assert!(client.state_transfer().unwrap().is_none());
    // State transfer over the wire: the sealed image arrives intact.
    assert_eq!(handle.local().seal_checkpoint(), Version(2));
    let payload = client.state_transfer().unwrap().expect("a sealed image");
    let (floor, entries) = decode_checkpoint_payload(&payload).unwrap();
    assert_eq!(floor, Version::ZERO);
    let versions: Vec<Version> = entries.iter().map(|(version, _)| *version).collect();
    assert_eq!(versions, vec![Version(1), Version(2)]);
    assert_eq!(entries[1].1, ws(2));

    let snapshot = metrics.snapshot();
    assert!(snapshot.counter(CounterId::NetMessages) >= 10);
    assert!(snapshot.counter(CounterId::NetBytesSent) > 0);
    assert!(snapshot.counter(CounterId::NetBytesReceived) > 0);
    let (open_now, _) = snapshot.gauge(GaugeId::OpenSessions);
    assert_eq!(open_now, 2, "one session, counted by both ends");
    assert!(metrics
        .component_events(Component::Certifier)
        .iter()
        .any(|e| e.kind == EventKind::SessionOpen));

    client.close();
    server.stop();
    let (open_after, _) = metrics.snapshot().gauge(GaugeId::OpenSessions);
    assert_eq!(open_after, 0, "both ends closed their session");
}

#[test]
fn partition_fails_fast_and_reconnects_after_heal() {
    let net = LoopbackNet::shared();
    let metrics = Arc::new(MetricsRegistry::enabled());
    let handle = single_handle();
    let _server = NetServer::start(
        "certifier",
        handle,
        &net.transport("certifier"),
        "certifier",
        Arc::clone(&metrics),
    )
    .unwrap();
    let mut config = SessionConfig::new("replica-0", "certifier");
    config.request_timeout = Duration::from_millis(200);
    let client = RemoteCertifier::start(
        config,
        Arc::new(net.transport("replica-0")),
        Arc::clone(&metrics),
    );
    client.wait_connected(Duration::from_secs(2)).unwrap();
    assert_eq!(commit(client.as_ref(), 1), Version(1));

    net.sever("replica-0", "certifier");
    let at = client.as_ref().system_version(); // falls back to cache
    assert_eq!(at, Version(1));
    let result = client.as_ref().certify(&CertificationRequest {
        replica: ReplicaId(0),
        start_version: at,
        writeset: ws(2),
        replica_version: at,
    });
    assert!(result.is_err_and(|e| e.is_unavailable()));
    assert!(!client.as_ref().is_available());
    assert!(
        client.as_ref().writesets_after(Version(0)).is_empty(),
        "a dead wire reports no stream progress"
    );

    net.heal("replica-0", "certifier");
    client.wait_connected(Duration::from_secs(2)).unwrap();
    assert_eq!(commit(client.as_ref(), 2), Version(2));
    assert!(
        metrics.snapshot().counter(CounterId::NetReconnects) >= 1,
        "healing the link must count a reconnect"
    );
    client.close();
}

#[test]
fn half_open_link_is_detected_and_session_recovers_after_heal() {
    let net = LoopbackNet::shared();
    let metrics = Arc::new(MetricsRegistry::enabled());
    let handle = single_handle();
    let _server = NetServer::start(
        "certifier",
        handle,
        &net.transport("certifier"),
        "certifier",
        Arc::clone(&metrics),
    )
    .unwrap();
    let mut config = SessionConfig::new("replica-0", "certifier");
    config.request_timeout = Duration::from_millis(300);
    config.half_open_grace = Duration::from_millis(100);
    let client = RemoteCertifier::start(
        config,
        Arc::new(net.transport("replica-0")),
        Arc::clone(&metrics),
    );
    client.wait_connected(Duration::from_secs(2)).unwrap();
    assert_eq!(commit(client.as_ref(), 1), Version(1));

    // Cut only the certifier→replica direction: requests still *arrive*
    // (and are served), but every response vanishes.  No send on either
    // side errors — the nastiest link failure.
    assert!(net.sever_one_way("certifier", "replica-0"));
    let at = Version(1);
    let result = client.as_ref().certify(&CertificationRequest {
        replica: ReplicaId(0),
        start_version: at,
        writeset: ws(2),
        replica_version: at,
    });
    assert!(result.is_err_and(|e| e.is_unavailable()));
    // The no-response-traffic detector must tear the session down rather
    // than leaving it "connected" to a dead return path; the redial is
    // then refused while the direction stays cut.
    client
        .wait_disconnected(Duration::from_secs(2))
        .expect("half-open session must be detected and torn down");

    net.heal("replica-0", "certifier");
    client.wait_connected(Duration::from_secs(2)).unwrap();
    // The writeset certified into the void DID commit server-side (key 2
    // took version 2) — the retry path must cope with that, which is why
    // the driver retries with a fresh key/start rather than re-sending.
    assert_eq!(commit(client.as_ref(), 3), Version(3));
    assert!(
        metrics.snapshot().counter(CounterId::NetReconnects) >= 1,
        "recovering from a half-open link must count a reconnect"
    );
    client.close();
}

#[test]
fn cluster_net_wires_replicas_and_links() {
    let metrics = Arc::new(MetricsRegistry::enabled());
    let net = ClusterNet::start(
        TransportKind::Loopback,
        single_handle(),
        2,
        Arc::clone(&metrics),
    )
    .unwrap();
    let handle0 = net.replica_handle(0);
    let handle1 = net.replica_handle(1);
    // Data plane crosses the wire; control plane reaches the certifier.
    let at = handle0.system_version();
    let response = handle0
        .certify(&CertificationRequest {
            replica: ReplicaId(0),
            start_version: at,
            writeset: ws(10),
            replica_version: at,
        })
        .unwrap();
    assert!(response.decision.is_commit());
    assert_eq!(handle1.system_version(), Version(1));
    assert_eq!(handle0.local().stats().leader_group_commit.records, 1);

    // Partition replica 1 only: replica 0 keeps certifying.
    assert!(net.sever_certifier_link(1));
    assert!(net.is_link_severed(1));
    assert!(!handle1.is_available());
    assert!(handle0.is_available());
    assert!(net.heal_all_links());
    assert!(!net.is_link_severed(1));
    net.client(1).wait_connected(Duration::from_secs(2)).unwrap();
    assert!(handle1.is_available());
    assert!(metrics
        .events()
        .iter()
        .any(|e| e.kind == EventKind::LinkFault));
    net.shutdown();
}

/// A replica below the certifier's truncation floor cannot be caught up by
/// the retained suffix: over the wire its refresh is refused with a typed
/// error and installs nothing, on every system.
#[test]
fn a_refresh_below_the_truncation_floor_is_refused_over_loopback() {
    let net = LoopbackNet::shared();
    let metrics = Arc::new(MetricsRegistry::enabled());
    let certifier = Arc::new(Certifier::new(CertifierConfig::default()));
    let colocated = CertifierHandle::Local(Arc::clone(&certifier));
    let server = NetServer::start(
        "certifier",
        colocated.clone(),
        &net.transport("certifier"),
        "certifier",
        Arc::clone(&metrics),
    )
    .unwrap();
    let client = RemoteCertifier::start(
        SessionConfig::new("replica-0", server.endpoint()),
        Arc::new(net.transport("replica-0")),
        Arc::clone(&metrics),
    );
    client.wait_connected(Duration::from_secs(2)).unwrap();
    for key in 1..=6 {
        commit(client.as_ref(), key);
    }
    certifier.seal_checkpoint();
    certifier.truncate_below(Version(4)).unwrap();
    assert_eq!(certifier.truncation_floor(), Version(4));

    for system in SystemKind::ALL {
        let db = Database::new(EngineConfig::default());
        db.create_table("t", &["v"]);
        let handle = CertifierHandle::Remote {
            service: client.clone(),
            colocated: Box::new(colocated.clone()),
        };
        let proxy = Proxy::new(ProxyConfig::new(system, ReplicaId(0)), db, handle);
        let result = proxy.refresh();
        assert!(
            matches!(result, Err(Error::Corruption(_))),
            "{system}: {result:?}"
        );
        assert_eq!(proxy.database().version(), Version::ZERO, "{system}");
        assert_eq!(proxy.replica_version(), Version::ZERO, "{system}");
    }
    client.close();
}
