//! The certifier side of the wire: [`NetServer`].
//!
//! One `NetServer` fronts one in-process certifier (a [`CertifierHandle`]).
//! An acceptor thread blocks on the listener, and each accepted connection
//! gets one thread that reads a request, answers it from the certifier and
//! writes the reply, in a loop.  Requests from different replicas therefore
//! reach the certifier concurrently and can meet in one certification epoch,
//! exactly as in-process callers do.  Threads are bounded by the number of
//! sessions; none is spawned per request.
//!
//! Sessions appear in the event journal as
//! [`EventKind::SessionOpen`] / [`EventKind::SessionClose`] on the
//! certifier component, and in the open-sessions gauge (each side counts
//! its own end).

use std::sync::Arc;
use std::thread;
use std::time::Duration;

use parking_lot::Mutex;
use tashkent_common::{metrics::MetricsRegistry, Component, Event, EventKind, GaugeId, Result};
use tashkent_proxy::CertifierHandle;

use crate::message::{Envelope, Message};
use crate::transport::{send_envelope, Connection, FramedConn, Listener, Transport};

/// How long a reply may wait for the peer to take its bytes.
const REPLY_DEADLINE: Duration = Duration::from_secs(2);

/// Every accepted connection and the thread serving it.
type Sessions = Mutex<Vec<(Arc<dyn Connection>, thread::JoinHandle<()>)>>;

/// The certifier's network front end.
pub struct NetServer {
    endpoint: String,
    name: String,
    listener: Arc<dyn Listener>,
    sessions: Arc<Sessions>,
    acceptor: Mutex<Option<thread::JoinHandle<()>>>,
}

impl NetServer {
    /// Binds `endpoint` on `transport` and starts accepting sessions for
    /// `handle`.  The returned server reports the *actual* endpoint (TCP
    /// port 0 resolves to the bound port).
    ///
    /// # Errors
    ///
    /// Whatever [`Transport::listen`] reports.
    pub fn start(
        name: &str,
        handle: CertifierHandle,
        transport: &dyn Transport,
        endpoint: &str,
        metrics: Arc<MetricsRegistry>,
    ) -> Result<NetServer> {
        let listener: Arc<dyn Listener> = Arc::from(transport.listen(endpoint)?);
        let actual = listener.local_endpoint();
        let sessions = Arc::new(Mutex::new(Vec::new()));
        let acceptor = {
            let listener = Arc::clone(&listener);
            let sessions = Arc::clone(&sessions);
            let name = name.to_string();
            thread::Builder::new()
                .name(format!("tknp-accept-{name}"))
                .spawn(move || accept_loop(&name, &handle, listener.as_ref(), &sessions, &metrics))
                .expect("spawn server acceptor")
        };
        Ok(NetServer {
            endpoint: actual,
            name: name.to_string(),
            listener,
            sessions,
            acceptor: Mutex::new(Some(acceptor)),
        })
    }

    /// The endpoint clients should dial (actual TCP port, or the loopback
    /// name).
    #[must_use]
    pub fn endpoint(&self) -> &str {
        &self.endpoint
    }

    /// The server's name (handshake `HelloAck` identity).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Stops accepting, closes every session and joins every thread.
    /// Idempotent.
    pub fn stop(&self) {
        self.listener.close();
        if let Some(acceptor) = self.acceptor.lock().take() {
            let _ = acceptor.join();
        }
        let sessions = std::mem::take(&mut *self.sessions.lock());
        for (conn, _) in &sessions {
            conn.close();
        }
        for (_, thread) in sessions {
            let _ = thread.join();
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.stop();
    }
}

fn accept_loop(
    name: &str,
    handle: &CertifierHandle,
    listener: &dyn Listener,
    sessions: &Sessions,
    metrics: &Arc<MetricsRegistry>,
) {
    while let Ok(conn) = listener.accept() {
        let conn: Arc<dyn Connection> = Arc::from(conn);
        let (name, handle, metrics) = (name.to_string(), handle.clone(), Arc::clone(metrics));
        let served = Arc::clone(&conn);
        let thread = thread::Builder::new()
            .name(format!("tknp-serve-{}", conn.peer()))
            .spawn(move || serve(&name, &handle, served, &metrics))
            .expect("spawn server session");
        let mut sessions = sessions.lock();
        sessions.retain(|(_, thread)| !thread.is_finished());
        sessions.push((conn, thread));
    }
}

/// Parses the peer index out of a `replica-N` style node name (journal
/// correlation); anything else gets the "no node" sentinel.
pub(crate) fn node_index(node: &str) -> usize {
    node.rsplit('-')
        .next()
        .and_then(|s| s.parse::<usize>().ok())
        .unwrap_or(usize::from(u16::MAX))
}

/// Serves one connection until the peer says goodbye, the connection
/// fails, or [`NetServer::stop`] closes it.
fn serve(
    name: &str,
    handle: &CertifierHandle,
    conn: Arc<dyn Connection>,
    metrics: &MetricsRegistry,
) {
    let mut framed = FramedConn::new(Arc::clone(&conn));
    // The peer's self-declared name once its `Hello` arrived.
    let mut node: Option<String> = None;
    'session: while let Ok(envelopes) = framed.recv(None, metrics) {
        for envelope in envelopes.into_iter().flatten() {
            let message = match envelope.message {
                Message::Hello { node: peer } => {
                    metrics.gauge_add(GaugeId::OpenSessions, 1);
                    metrics.emit(
                        Event::new(Component::Certifier, EventKind::SessionOpen)
                            .node(node_index(&peer)),
                    );
                    node = Some(peer);
                    Message::HelloAck {
                        node: name.to_string(),
                    }
                }
                Message::CertifyRequest(request) => match handle.certify(&request) {
                    Ok(response) => Message::CertifyDecision(response),
                    Err(e) => Message::ErrorReply {
                        unavailable: e.is_unavailable(),
                        detail: e.to_string(),
                    },
                },
                Message::FetchWritesets { since } => Message::WritesetBatch {
                    writesets: handle.writesets_after(since),
                },
                Message::StatusRequest => Message::StatusResponse {
                    system_version: handle.system_version(),
                    truncation_floor: handle.truncation_floor(),
                    available: handle.is_available(),
                },
                Message::StateTransferRequest => Message::StateTransferResponse {
                    checkpoint: handle.local().latest_checkpoint_payload(),
                },
                Message::Ping => Message::Pong,
                Message::Goodbye => break 'session,
                // Responses arriving at the server are a peer bug; answer
                // with a typed error instead of tearing the session down.
                other => Message::ErrorReply {
                    unavailable: false,
                    detail: format!("unexpected {} at the certifier", other.label()),
                },
            };
            let reply = Envelope {
                request_id: envelope.request_id,
                message,
            };
            if send_envelope(conn.as_ref(), &reply, REPLY_DEADLINE, metrics).is_err() {
                break 'session;
            }
        }
    }
    conn.close();
    // Sessions that never completed the handshake were never counted.
    if let Some(node) = node {
        metrics.gauge_add(GaugeId::OpenSessions, -1);
        metrics.emit(
            Event::new(Component::Certifier, EventKind::SessionClose).node(node_index(&node)),
        );
    }
}
