//! The client side of a certifier session: [`RemoteCertifier`].
//!
//! One `RemoteCertifier` manages one logical session from a replica to the
//! certifier server.  It runs a small event loop on its own thread:
//!
//! * **dial + handshake** — connect, send [`Message::Hello`], wait for the
//!   [`Message::HelloAck`]; only then is the session open (and counted in
//!   the open-sessions gauge / event journal).
//! * **send queue with backpressure** — callers enqueue requests into a
//!   bounded queue; when it is full they wait briefly for space and
//!   otherwise fail with `Unavailable` rather than buffering unboundedly.
//! * **reconnect with backoff** — a lost connection fails every in-flight
//!   request (the resilient workload driver absorbs the `Unavailable`s),
//!   then redials with exponential backoff until the link heals, counting
//!   [`CounterId::NetReconnects`].
//! * **graceful close** — dropping the handle drains in-flight requests,
//!   sends [`Message::Goodbye`] and joins the loop.
//!
//! The blocking request API on top implements
//! [`CertifierService`], so a `CertifierHandle::Remote`
//! (`tashkent_proxy`) makes the entire proxy stack run over the wire.  An
//! empty fetch may mean the wire failed; callers that need completeness
//! compare versions, as `Cluster::sync_all` does.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};
use tashkent_certifier::{CertificationRequest, CertificationResponse, RemoteWriteSet};
use tashkent_common::{
    metrics::MetricsRegistry, Component, CounterId, Error, Event, EventKind, GaugeId, Result,
    Version,
};
use tashkent_proxy::CertifierService;

use crate::message::{Envelope, Message};
use crate::transport::{FramedConn, Transport};

/// Tuning knobs for one client session.
#[derive(Debug, Clone)]
pub struct SessionConfig {
    /// This node's name, sent in the handshake (e.g. `replica-0`).
    pub node: String,
    /// The server endpoint to dial.
    pub endpoint: String,
    /// How long a caller waits for a response before giving up with
    /// `Unavailable`.
    pub request_timeout: Duration,
    /// First reconnect delay; doubles up to [`SessionConfig::backoff_ceiling`].
    pub backoff_floor: Duration,
    /// Largest reconnect delay.
    pub backoff_ceiling: Duration,
    /// Bounded send queue: callers beyond this wait for space, then fail.
    pub send_queue_limit: usize,
    /// Half-open link detector: if requests are in flight but *no* inbound
    /// traffic arrives for this long, the session declares the return path
    /// dead and tears the connection down for a redial.  A one-way severed
    /// link never surfaces as a send error — the bytes just vanish — so
    /// without this the session would sit "connected" forever while every
    /// request burned its full timeout.  Appended last so configurations
    /// built field-by-field before it existed keep their meaning.
    pub half_open_grace: Duration,
}

impl SessionConfig {
    /// Sensible defaults for an in-machine cluster.
    #[must_use]
    pub fn new(node: &str, endpoint: &str) -> SessionConfig {
        SessionConfig {
            node: node.to_string(),
            endpoint: endpoint.to_string(),
            request_timeout: Duration::from_secs(2),
            backoff_floor: Duration::from_millis(1),
            backoff_ceiling: Duration::from_millis(50),
            send_queue_limit: 256,
            // At the request timeout a healthy server must long since have
            // answered *something*, so this can never fire spuriously.
            half_open_grace: Duration::from_secs(2),
        }
    }
}

/// A pending request slot: `None` until the event loop fills it.
type Slot = Option<Result<Message>>;

#[derive(Default)]
struct ClientState {
    next_id: u64,
    outbound: Vec<Envelope>,
    pending: HashMap<u64, Slot>,
}

struct Shared {
    state: Mutex<ClientState>,
    /// Wakes requesters (a slot filled, or queue space freed).
    answered: Condvar,
    connected: AtomicBool,
    shutdown: AtomicBool,
    last_system_version: AtomicU64,
    last_floor: AtomicU64,
    metrics: Arc<MetricsRegistry>,
    node_index: usize,
}

impl Shared {
    /// Fails every in-flight request with `Unavailable` (connection lost).
    fn fail_all_pending(&self, why: &str) {
        let mut state = self.state.lock();
        for slot in state.pending.values_mut() {
            if slot.is_none() {
                *slot = Some(Err(Error::Unavailable(why.to_string())));
            }
        }
        state.outbound.clear();
        drop(state);
        self.answered.notify_all();
    }
}

/// A certifier reached over a wire; implements [`CertifierService`].
pub struct RemoteCertifier {
    shared: Arc<Shared>,
    config: SessionConfig,
    worker: Mutex<Option<thread::JoinHandle<()>>>,
}

impl RemoteCertifier {
    /// Starts the session: spawns the event loop, which dials (and keeps
    /// redialling) `config.endpoint` over `transport`.
    #[must_use]
    pub fn start(
        config: SessionConfig,
        transport: Arc<dyn Transport>,
        metrics: Arc<MetricsRegistry>,
    ) -> Arc<RemoteCertifier> {
        let node_index = config
            .node
            .rsplit('-')
            .next()
            .and_then(|s| s.parse::<usize>().ok())
            .unwrap_or(usize::from(u16::MAX));
        let shared = Arc::new(Shared {
            state: Mutex::new(ClientState::default()),
            answered: Condvar::new(),
            connected: AtomicBool::new(false),
            shutdown: AtomicBool::new(false),
            last_system_version: AtomicU64::new(0),
            last_floor: AtomicU64::new(0),
            metrics,
            node_index,
        });
        let loop_shared = Arc::clone(&shared);
        let loop_config = config.clone();
        let worker = thread::Builder::new()
            .name(format!("tknp-client-{}", config.node))
            .spawn(move || event_loop(&loop_shared, &loop_config, transport.as_ref()))
            .expect("spawn session event loop");
        Arc::new(RemoteCertifier {
            shared,
            config,
            worker: Mutex::new(Some(worker)),
        })
    }

    /// `true` once the handshake has completed and the wire is up.
    #[must_use]
    pub fn is_connected(&self) -> bool {
        self.shared.connected.load(Ordering::Acquire)
    }

    /// Waits until the session is established (cluster start-up barrier).
    ///
    /// # Errors
    ///
    /// `Unavailable` if the deadline passes without a handshake.
    pub fn wait_connected(&self, deadline: Duration) -> Result<()> {
        let start = Instant::now();
        while !self.is_connected() {
            if start.elapsed() > deadline {
                return Err(Error::Unavailable(format!(
                    "session {} -> {} did not establish within {deadline:?}",
                    self.config.node, self.config.endpoint
                )));
            }
            thread::sleep(Duration::from_micros(200));
        }
        Ok(())
    }

    /// Waits until the session has *dropped* (half-open detection and
    /// fault tests use this to observe a teardown).
    ///
    /// # Errors
    ///
    /// `Unavailable` if the session is still up when the deadline passes.
    pub fn wait_disconnected(&self, deadline: Duration) -> Result<()> {
        let start = Instant::now();
        while self.is_connected() {
            if start.elapsed() > deadline {
                return Err(Error::Unavailable(format!(
                    "session {} -> {} still connected after {deadline:?}",
                    self.config.node, self.config.endpoint
                )));
            }
            thread::sleep(Duration::from_micros(200));
        }
        Ok(())
    }

    /// Sends one request and blocks for its response (or timeout).
    ///
    /// # Errors
    ///
    /// `Unavailable` when the wire is down, the send queue stays full, or
    /// the response does not arrive within the request timeout; server-side
    /// failures are rebuilt from the [`Message::ErrorReply`].
    pub fn request(&self, message: Message) -> Result<Message> {
        if self.shared.shutdown.load(Ordering::Acquire) {
            return Err(Error::Unavailable("session is shut down".into()));
        }
        let id = {
            let mut state = self.shared.state.lock();
            // Backpressure: wait (briefly) for queue space instead of
            // growing without bound when the wire is slow or down.
            let space_deadline = Instant::now() + self.config.request_timeout;
            while state.outbound.len() >= self.config.send_queue_limit {
                let remaining = space_deadline.saturating_duration_since(Instant::now());
                if remaining.is_zero() {
                    return Err(Error::Unavailable("session send queue is full".into()));
                }
                self.shared.answered.wait_for(&mut state, remaining);
            }
            state.next_id += 1;
            let id = state.next_id;
            state.pending.insert(id, None);
            state.outbound.push(Envelope {
                request_id: id,
                message,
            });
            id
        };
        let deadline = Instant::now() + self.config.request_timeout;
        let mut state = self.shared.state.lock();
        loop {
            if let Some(slot) = state.pending.get_mut(&id) {
                if slot.is_some() {
                    let result = slot.take().expect("checked is_some");
                    state.pending.remove(&id);
                    return self.unwrap_reply(result);
                }
            } else {
                return Err(Error::Unavailable("request slot vanished".into()));
            }
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                state.pending.remove(&id);
                return Err(Error::Unavailable(format!(
                    "request to {} timed out after {:?}",
                    self.config.endpoint, self.config.request_timeout
                )));
            }
            self.shared.answered.wait_for(&mut state, remaining);
        }
    }

    fn unwrap_reply(&self, result: Result<Message>) -> Result<Message> {
        match result? {
            Message::ErrorReply {
                unavailable: true,
                detail,
            } => Err(Error::Unavailable(detail)),
            Message::ErrorReply {
                unavailable: false,
                detail,
            } => Err(Error::Protocol(detail)),
            other => Ok(other),
        }
    }

    /// Fetches the newest sealed checkpoint from the certifier (recovery
    /// state transfer); `None` if it has never sealed one.
    ///
    /// # Errors
    ///
    /// `Unavailable` when the wire is down.
    pub fn state_transfer(&self) -> Result<Option<Vec<u8>>> {
        match self.request(Message::StateTransferRequest)? {
            Message::StateTransferResponse { checkpoint } => Ok(checkpoint),
            other => Err(Error::Protocol(format!(
                "expected state-transfer response, got {}",
                other.label()
            ))),
        }
    }

    /// Round-trips a ping (liveness probe; tests and the watchdog use it).
    ///
    /// # Errors
    ///
    /// `Unavailable` when the wire is down.
    pub fn ping(&self) -> Result<()> {
        match self.request(Message::Ping)? {
            Message::Pong => Ok(()),
            other => Err(Error::Protocol(format!(
                "expected pong, got {}",
                other.label()
            ))),
        }
    }

    fn status(&self) -> Result<(Version, Version, bool)> {
        match self.request(Message::StatusRequest)? {
            Message::StatusResponse {
                system_version,
                truncation_floor,
                available,
            } => {
                self.shared
                    .last_system_version
                    .fetch_max(system_version.value(), Ordering::AcqRel);
                self.shared
                    .last_floor
                    .fetch_max(truncation_floor.value(), Ordering::AcqRel);
                Ok((system_version, truncation_floor, available))
            }
            other => Err(Error::Protocol(format!(
                "expected status response, got {}",
                other.label()
            ))),
        }
    }

    /// Shuts the session down: drains in-flight requests, says goodbye,
    /// joins the event loop.  Idempotent.
    pub fn close(&self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.answered.notify_all();
        if let Some(worker) = self.worker.lock().take() {
            let _ = worker.join();
        }
    }
}

impl Drop for RemoteCertifier {
    fn drop(&mut self) {
        self.close();
    }
}

impl CertifierService for RemoteCertifier {
    fn certify(&self, request: &CertificationRequest) -> Result<CertificationResponse> {
        match self.request(Message::CertifyRequest(request.clone()))? {
            Message::CertifyDecision(response) => {
                self.shared
                    .last_system_version
                    .fetch_max(response.system_version.value(), Ordering::AcqRel);
                Ok(response)
            }
            other => Err(Error::Protocol(format!(
                "expected certify decision, got {}",
                other.label()
            ))),
        }
    }

    fn writesets_after(&self, since: Version) -> Vec<RemoteWriteSet> {
        match self.request(Message::FetchWritesets { since }) {
            Ok(Message::WritesetBatch { writesets }) => writesets,
            // Wire down (or a malformed reply): an empty stream.  Callers
            // that need completeness compare versions, as `sync_all` does.
            Ok(_) | Err(_) => Vec::new(),
        }
    }

    fn system_version(&self) -> Version {
        match self.status() {
            Ok((v, _, _)) => v,
            Err(_) => Version(self.shared.last_system_version.load(Ordering::Acquire)),
        }
    }

    fn is_available(&self) -> bool {
        self.is_connected() && matches!(self.status(), Ok((_, _, true)))
    }

    fn truncation_floor(&self) -> Version {
        match self.status() {
            Ok((_, floor, _)) => floor,
            Err(_) => Version(self.shared.last_floor.load(Ordering::Acquire)),
        }
    }
}

/// How long the event loop parks when a tick moved nothing.
const IDLE_PARK: Duration = Duration::from_micros(100);

/// How long a graceful close keeps draining in-flight requests.
const DRAIN_DEADLINE: Duration = Duration::from_millis(50);

/// How long the dialler waits for the `HelloAck`.
const HANDSHAKE_DEADLINE: Duration = Duration::from_millis(500);

fn event_loop(shared: &Shared, config: &SessionConfig, transport: &dyn Transport) {
    let mut backoff = config.backoff_floor;
    let mut sessions_opened = 0u64;
    while !shared.shutdown.load(Ordering::Acquire) {
        // Phase 1: establish a session.
        let conn = match establish(shared, config, transport) {
            Some(conn) => conn,
            None => {
                shared.fail_all_pending("certifier wire is down");
                // Back off, but keep watching the shutdown flag.
                let until = Instant::now() + backoff;
                while Instant::now() < until && !shared.shutdown.load(Ordering::Acquire) {
                    thread::sleep(IDLE_PARK);
                }
                backoff = (backoff * 2).min(config.backoff_ceiling);
                continue;
            }
        };
        backoff = config.backoff_floor;
        sessions_opened += 1;
        if sessions_opened > 1 {
            shared.metrics.incr(CounterId::NetReconnects);
        }
        shared.connected.store(true, Ordering::Release);
        shared.metrics.gauge_add(GaugeId::OpenSessions, 1);
        shared.metrics.emit(
            Event::new(Component::Proxy, EventKind::SessionOpen).node(shared.node_index),
        );

        // Phase 2: pump the session until it breaks or we shut down.
        let why = pump_session(shared, config, conn);

        shared.connected.store(false, Ordering::Release);
        shared.metrics.gauge_add(GaugeId::OpenSessions, -1);
        shared.metrics.emit(
            Event::new(Component::Proxy, EventKind::SessionClose).node(shared.node_index),
        );
        if !shared.shutdown.load(Ordering::Acquire) {
            shared.fail_all_pending(&why);
        }
    }
    shared.fail_all_pending("session is shut down");
}

/// Dials and completes the handshake; `None` on any failure (caller backs
/// off and retries).
fn establish(
    shared: &Shared,
    config: &SessionConfig,
    transport: &dyn Transport,
) -> Option<FramedConn> {
    let conn = transport.dial(&config.endpoint).ok()?;
    let mut framed = FramedConn::new(conn);
    framed.queue(
        &Envelope {
            request_id: 0,
            message: Message::Hello {
                node: config.node.clone(),
            },
        },
        &shared.metrics,
    );
    let deadline = Instant::now() + HANDSHAKE_DEADLINE;
    while Instant::now() < deadline && !shared.shutdown.load(Ordering::Acquire) {
        framed.flush(&shared.metrics).ok()?;
        for envelope in framed.poll(&shared.metrics).ok()? {
            if matches!(envelope.message, Message::HelloAck { .. }) {
                return Some(framed);
            }
        }
        thread::sleep(IDLE_PARK);
    }
    None
}

/// Drives one established session; returns the reason it ended.
fn pump_session(shared: &Shared, config: &SessionConfig, mut framed: FramedConn) -> String {
    // Half-open link detection: a one-way cut of the wire never errors a
    // send — bytes just vanish — so the pump watches for the *absence* of
    // response traffic while requests are outstanding and declares the
    // session dead after `half_open_grace`.  The timer only runs while
    // something is awaited: an idle session owes us no traffic.
    let mut waiting_since = Instant::now();
    loop {
        if shared.shutdown.load(Ordering::Acquire) {
            graceful_close(shared, &mut framed);
            return "session is shut down".into();
        }
        let mut moved = false;

        // Outbound: stage queued requests, then push bytes.
        let has_pending = {
            let mut state = shared.state.lock();
            let queued: Vec<Envelope> = state.outbound.drain(..).collect();
            let has_pending = state.pending.values().any(Option::is_none);
            drop(state);
            if !queued.is_empty() {
                moved = true;
                for envelope in &queued {
                    framed.queue(envelope, &shared.metrics);
                }
                // Queue space freed: wake writers blocked on backpressure.
                shared.answered.notify_all();
            }
            has_pending
        };
        if !has_pending {
            waiting_since = Instant::now();
        } else if waiting_since.elapsed() > config.half_open_grace {
            return format!(
                "no response traffic for {:?} with requests in flight; \
                 assuming a half-open link",
                config.half_open_grace
            );
        }
        match framed.flush(&shared.metrics) {
            Ok(flushed) => moved |= flushed,
            Err(e) => return e.to_string(),
        }

        // Inbound: match responses to pending requests.
        match framed.poll(&shared.metrics) {
            Ok(envelopes) => {
                if !envelopes.is_empty() {
                    moved = true;
                    waiting_since = Instant::now();
                    let mut state = shared.state.lock();
                    for envelope in envelopes {
                        if let Some(slot) = state.pending.get_mut(&envelope.request_id) {
                            *slot = Some(Ok(envelope.message));
                        }
                        // Responses to abandoned (timed-out) requests are
                        // dropped on the floor, matching their caller.
                    }
                    drop(state);
                    shared.answered.notify_all();
                }
            }
            Err(e) => return e.to_string(),
        }

        if !moved {
            thread::sleep(IDLE_PARK);
        }
    }
}

/// Drains in-flight work briefly, then says goodbye.
fn graceful_close(shared: &Shared, framed: &mut FramedConn) {
    let deadline = Instant::now() + DRAIN_DEADLINE;
    while Instant::now() < deadline {
        let drained = {
            let state = shared.state.lock();
            state.outbound.is_empty() && state.pending.is_empty()
        } && framed.backlog() == 0;
        if drained {
            break;
        }
        let mut state = shared.state.lock();
        let queued: Vec<Envelope> = state.outbound.drain(..).collect();
        drop(state);
        for envelope in &queued {
            framed.queue(envelope, &shared.metrics);
        }
        if framed.flush(&shared.metrics).is_err() {
            return;
        }
        if let Ok(envelopes) = framed.poll(&shared.metrics) {
            let mut state = shared.state.lock();
            for envelope in envelopes {
                if let Some(slot) = state.pending.get_mut(&envelope.request_id) {
                    *slot = Some(Ok(envelope.message));
                }
            }
            drop(state);
            shared.answered.notify_all();
        } else {
            return;
        }
        thread::sleep(IDLE_PARK);
    }
    framed.queue(
        &Envelope {
            request_id: 0,
            message: Message::Goodbye,
        },
        &shared.metrics,
    );
    let _ = framed.flush(&shared.metrics);
}
