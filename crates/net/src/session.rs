//! The client side of a certifier session: [`RemoteCertifier`].
//!
//! * **Requests.** A caller writes its own frame under the session's writer
//!   lock, then waits on its reply slot.  The transport's blocking send is
//!   the backpressure: nothing is queued on a caller's behalf.
//! * **One reader thread per session.** It dials and handshakes
//!   ([`Message::Hello`] / [`Message::HelloAck`]; only then is the session
//!   open, in the open-sessions gauge and the event journal), then blocks
//!   on the connection and fills reply slots by request id.
//! * **Teardown and reconnect.** On a read error, or when no bytes arrive
//!   for `half_open_grace` while a request is pending, the reader closes
//!   the connection, fails every pending request with `Unavailable`, and
//!   redials with exponential backoff, counting
//!   [`CounterId::NetReconnects`].
//! * **Graceful close.** [`RemoteCertifier::close`] (and drop) waits
//!   briefly for pending replies, sends [`Message::Goodbye`] and joins the
//!   reader.
//!
//! [`RemoteCertifier`] implements [`CertifierService`], so a
//! `CertifierHandle::Remote` (`tashkent_proxy`) runs the whole proxy stack
//! over the wire.  An empty fetch may mean the wire failed; callers that
//! need completeness compare versions, as `Cluster::sync_all` does.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex, MutexGuard};
use tashkent_certifier::{CertificationRequest, CertificationResponse, RemoteWriteSet};
use tashkent_common::{
    metrics::MetricsRegistry, Component, CounterId, Error, Event, EventKind, GaugeId, Result,
    Version,
};
use tashkent_proxy::CertifierService;

use crate::message::{Envelope, Message};
use crate::server::node_index;
use crate::transport::{send_envelope, Connection, FramedConn, Transport};

/// First reconnect delay; doubles up to [`BACKOFF_CEILING`].
const BACKOFF_FLOOR: Duration = Duration::from_millis(1);

/// Largest reconnect delay.
const BACKOFF_CEILING: Duration = Duration::from_millis(50);

/// How long a graceful close waits for pending replies.
const DRAIN_DEADLINE: Duration = Duration::from_millis(50);

/// How long the dialler waits for the `HelloAck`.
const HANDSHAKE_DEADLINE: Duration = Duration::from_millis(500);

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
    /// Half-open link detector: if requests are in flight but *no* inbound
    /// traffic arrives for this long, the session declares the return path
    /// dead and tears the connection down for a redial.  A one-way severed
    /// link never surfaces as a send error — the bytes just vanish — so
    /// without this the session would sit "connected" forever while every
    /// request burned its full timeout.
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
            // At the request timeout a healthy server must long since have
            // answered *something*, so this can never fire spuriously.
            half_open_grace: Duration::from_secs(2),
        }
    }
}

/// A request awaiting its reply.
struct Pending {
    /// When it was sent: the half-open detector's clock.
    sent: Instant,
    /// `None` until the reader (or a teardown) fills it.
    reply: Option<Result<Message>>,
}

/// The session's current connection.
#[derive(Default)]
struct Link {
    /// The connection being set up or in use.
    conn: Option<Arc<dyn Connection>>,
    /// `true` once its handshake has completed.
    open: bool,
}

struct Shared {
    /// The writer lock: held while a frame is written, and while the
    /// connection is swapped.  Its changes wake `wait_connected`,
    /// `wait_disconnected` and a reader backing off when the session closes.
    link: Watched<Link>,
    /// Changes wake requesters (a reply arrived) and a draining `close`.
    pending: Watched<HashMap<u64, Pending>>,
    next_id: AtomicU64,
    shutdown: AtomicBool,
    last_system_version: AtomicU64,
    last_floor: AtomicU64,
    metrics: Arc<MetricsRegistry>,
    node_index: usize,
}

impl Shared {
    fn is_shut_down(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
    }

    /// Counts a session opening (`+1`) or closing (`-1`).
    fn note_session(&self, delta: i64, kind: EventKind) {
        self.metrics.gauge_add(GaugeId::OpenSessions, delta);
        self.metrics
            .emit(Event::new(Component::Proxy, kind).node(self.node_index));
    }

    /// Fails every in-flight request with `Unavailable` (connection lost).
    fn fail_all_pending(&self, why: &str) {
        for pending in self.pending.state.lock().values_mut() {
            if pending.reply.is_none() {
                pending.reply = Some(Err(Error::Unavailable(why.to_string())));
            }
        }
        self.pending.changed.notify_all();
    }
}

/// The error for a reply of the wrong kind.
fn unexpected(expected: &str, got: &Message) -> Error {
    Error::Protocol(format!("expected {expected}, got {}", got.label()))
}

/// A mutex and the condvar that announces its changes.
struct Watched<T> {
    state: Mutex<T>,
    changed: Condvar,
}

impl<T> Watched<T> {
    fn new(state: T) -> Watched<T> {
        let (state, changed) = (Mutex::new(state), Condvar::new());
        Watched { state, changed }
    }

    /// Locks, then waits for changes while `waiting` holds, at most until
    /// `until`.
    fn wait_while(&self, until: Instant, waiting: impl Fn(&T) -> bool) -> MutexGuard<'_, T> {
        let mut state = self.state.lock();
        while waiting(&state) {
            let left = until.saturating_duration_since(Instant::now());
            if left.is_zero() {
                break;
            }
            self.changed.wait_for(&mut state, left);
        }
        state
    }
}

/// A certifier reached over a wire; implements [`CertifierService`].
pub struct RemoteCertifier {
    shared: Arc<Shared>,
    config: SessionConfig,
    reader: Mutex<Option<thread::JoinHandle<()>>>,
}

impl RemoteCertifier {
    /// Starts the session: spawns the reader thread, which dials (and keeps
    /// redialling) `config.endpoint` over `transport`.
    #[must_use]
    pub fn start(
        config: SessionConfig,
        transport: Arc<dyn Transport>,
        metrics: Arc<MetricsRegistry>,
    ) -> Arc<RemoteCertifier> {
        let node_index = node_index(&config.node);
        let shared = Arc::new(Shared {
            link: Watched::new(Link::default()),
            pending: Watched::new(HashMap::new()),
            next_id: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            last_system_version: AtomicU64::new(0),
            last_floor: AtomicU64::new(0),
            metrics,
            node_index,
        });
        let reader_shared = Arc::clone(&shared);
        let reader_config = config.clone();
        let reader = thread::Builder::new()
            .name(format!("tknp-client-{}", config.node))
            .spawn(move || run(&reader_shared, &reader_config, transport.as_ref()))
            .expect("spawn session reader");
        Arc::new(RemoteCertifier {
            shared,
            config,
            reader: Mutex::new(Some(reader)),
        })
    }

    /// `true` once the handshake has completed and the wire is up.
    #[must_use]
    pub fn is_connected(&self) -> bool {
        self.shared.link.state.lock().open
    }

    /// Waits until the session is `open` (or not), or fails at the deadline.
    fn wait_open(&self, open: bool, deadline: Duration, failure: &str) -> Result<()> {
        let until = Instant::now() + deadline;
        if self
            .shared
            .link
            .wait_while(until, |link| link.open != open)
            .open
            == open
        {
            return Ok(());
        }
        Err(Error::Unavailable(format!(
            "session {} -> {} {failure} {deadline:?}",
            self.config.node, self.config.endpoint
        )))
    }

    /// Waits until the session is established (cluster start-up barrier).
    ///
    /// # Errors
    ///
    /// `Unavailable` if the deadline passes without a handshake.
    pub fn wait_connected(&self, deadline: Duration) -> Result<()> {
        self.wait_open(true, deadline, "did not establish within")
    }

    /// Waits until the session has *dropped* (half-open detection and
    /// fault tests use this to observe a teardown).
    ///
    /// # Errors
    ///
    /// `Unavailable` if the session is still up when the deadline passes.
    pub fn wait_disconnected(&self, deadline: Duration) -> Result<()> {
        self.wait_open(false, deadline, "still connected after")
    }

    /// Sends one request and blocks for its response (or timeout).
    ///
    /// # Errors
    ///
    /// `Unavailable` when the wire is down, the send does not complete, or
    /// the response does not arrive within the request timeout; server-side
    /// failures are rebuilt from the [`Message::ErrorReply`].
    pub fn request(&self, message: Message) -> Result<Message> {
        let shared = &self.shared;
        if shared.is_shut_down() {
            return Err(Error::Unavailable("session is shut down".into()));
        }
        let request_id = shared.next_id.fetch_add(1, Ordering::Relaxed) + 1;
        let envelope = Envelope {
            request_id,
            message,
        };
        let timeout = self.config.request_timeout;
        {
            let mut link = shared.link.state.lock();
            let Some(conn) = link.conn.as_ref().filter(|_| link.open) else {
                return Err(Error::Unavailable("certifier wire is down".into()));
            };
            let sent = Instant::now();
            let mut pending = shared.pending.state.lock();
            pending.insert(request_id, Pending { sent, reply: None });
            drop(pending);
            if let Err(e) = send_envelope(conn.as_ref(), &envelope, timeout, &shared.metrics) {
                shared.pending.state.lock().remove(&request_id);
                // The session is down from here on, so a `wait_connected`
                // waits for the redial; the reader wakes to the close and
                // tears the connection down.
                conn.close();
                link.open = false;
                shared.link.changed.notify_all();
                return Err(e);
            }
        }
        let until = Instant::now() + timeout;
        let reply = shared
            .pending
            .wait_while(until, |p| {
                p.get(&request_id).is_some_and(|p| p.reply.is_none())
            })
            .remove(&request_id)
            .and_then(|p| p.reply);
        let Some(reply) = reply else {
            return Err(Error::Unavailable(format!(
                "request to {} timed out after {timeout:?}",
                self.config.endpoint
            )));
        };
        self.unwrap_reply(reply)
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
            other => Err(unexpected("state-transfer response", &other)),
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
            other => Err(unexpected("pong", &other)),
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
            other => Err(unexpected("status response", &other)),
        }
    }

    /// Shuts the session down: waits briefly for pending replies, says
    /// goodbye, closes the connection and joins the reader.  Idempotent.
    pub fn close(&self) {
        let shared = &self.shared;
        shared.shutdown.store(true, Ordering::Release);
        let until = Instant::now() + DRAIN_DEADLINE;
        drop(
            shared
                .pending
                .wait_while(until, |p| p.values().any(|p| p.reply.is_none())),
        );
        {
            let link = shared.link.state.lock();
            if let Some(conn) = &link.conn {
                if link.open {
                    let goodbye = Envelope {
                        request_id: 0,
                        message: Message::Goodbye,
                    };
                    let _ = send_envelope(conn.as_ref(), &goodbye, DRAIN_DEADLINE, &shared.metrics);
                }
                conn.close();
            }
            // Under the lock, so a reader about to back off sees the flag.
            shared.link.changed.notify_all();
        }
        if let Some(reader) = self.reader.lock().take() {
            let _ = reader.join();
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
            other => Err(unexpected("certify decision", &other)),
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

/// The reader thread: establish a session, read replies until it breaks,
/// tear it down, back off, redial — until the session is closed.
fn run(shared: &Shared, config: &SessionConfig, transport: &dyn Transport) {
    let mut backoff = BACKOFF_FLOOR;
    let mut sessions_opened = 0u64;
    while !shared.is_shut_down() {
        let Some(mut framed) = establish(shared, config, transport) else {
            let until = Instant::now() + backoff;
            drop(shared.link.wait_while(until, |_| !shared.is_shut_down()));
            backoff = (backoff * 2).min(BACKOFF_CEILING);
            continue;
        };
        backoff = BACKOFF_FLOOR;
        sessions_opened += 1;
        if sessions_opened > 1 {
            shared.metrics.incr(CounterId::NetReconnects);
        }
        shared.note_session(1, EventKind::SessionOpen);
        let why = read_replies(shared, config, &mut framed);
        *shared.link.state.lock() = Link::default();
        shared.link.changed.notify_all();
        drop(framed); // the last handle: closes the connection
        shared.note_session(-1, EventKind::SessionClose);
        shared.fail_all_pending(&why);
    }
}

/// Dials and completes the handshake; `None` on any failure (the caller
/// backs off and retries).
fn establish(
    shared: &Shared,
    config: &SessionConfig,
    transport: &dyn Transport,
) -> Option<FramedConn> {
    let conn: Arc<dyn Connection> = Arc::from(transport.dial(&config.endpoint).ok()?);
    {
        // Published before the handshake so a `close` can interrupt it.
        let mut link = shared.link.state.lock();
        if shared.is_shut_down() {
            return None;
        }
        link.conn = Some(Arc::clone(&conn));
    }
    let mut framed = FramedConn::new(Arc::clone(&conn));
    let hello = Envelope {
        request_id: 0,
        message: Message::Hello {
            node: config.node.clone(),
        },
    };
    let acked = send_envelope(conn.as_ref(), &hello, HANDSHAKE_DEADLINE, &shared.metrics).is_ok()
        && await_hello_ack(&mut framed, &shared.metrics);
    let mut link = shared.link.state.lock();
    if acked && !shared.is_shut_down() {
        link.open = true;
        shared.link.changed.notify_all();
        return Some(framed);
    }
    link.conn = None;
    None // dropping the last handle closes the connection
}

fn await_hello_ack(framed: &mut FramedConn, metrics: &MetricsRegistry) -> bool {
    let until = Instant::now() + HANDSHAKE_DEADLINE;
    let left = || Some(until.saturating_duration_since(Instant::now()));
    while let Ok(Some(envelopes)) = framed.recv(left(), metrics) {
        if envelopes
            .iter()
            .any(|e| matches!(e.message, Message::HelloAck { .. }))
        {
            return true;
        }
    }
    false
}

/// Reads replies into their slots until the connection fails or the link
/// turns out half-open; returns why the session ended.
fn read_replies(shared: &Shared, config: &SessionConfig, framed: &mut FramedConn) -> String {
    // Half-open link detection: a one-way cut of the wire never errors a
    // send — bytes just vanish — so the reader watches for the *absence* of
    // inbound bytes while a request is pending and declares the session
    // dead after `half_open_grace`.  The clock only runs while something is
    // awaited: an idle session owes us no traffic.
    let mut heard = Instant::now();
    loop {
        let awaited = shared
            .pending
            .state
            .lock()
            .values()
            .filter(|p| p.reply.is_none())
            .map(|p| p.sent.max(heard))
            .min();
        // With nothing awaited the reader still wakes after a grace, to
        // start the clock of a request sent meanwhile.
        let since = awaited.unwrap_or_else(Instant::now);
        let timeout = (since + config.half_open_grace).saturating_duration_since(Instant::now());
        if timeout.is_zero() {
            return format!(
                "no response traffic for {:?} with requests in flight; \
                 assuming a half-open link",
                config.half_open_grace
            );
        }
        match framed.recv(Some(timeout), &shared.metrics) {
            Err(e) => return e.to_string(),
            Ok(None) => {}
            Ok(Some(envelopes)) => {
                heard = Instant::now();
                let mut pending = shared.pending.state.lock();
                for envelope in envelopes {
                    // Replies to abandoned (timed-out) requests are dropped
                    // on the floor, matching their caller.
                    if let Some(slot) = pending.get_mut(&envelope.request_id) {
                        slot.reply = Some(Ok(envelope.message));
                    }
                }
                drop(pending);
                shared.pending.changed.notify_all();
            }
        }
    }
}
