//! The certifier side of the wire: [`NetServer`].
//!
//! One `NetServer` fronts one in-process certifier (a
//! [`CertifierHandle`]) with a single poll-based event loop: it accepts new
//! connections, completes handshakes, decodes request envelopes, answers
//! them from the certifier and flushes responses — all without blocking, so
//! one thread serves every replica session.  (Certification itself is an
//! in-memory intersection test — the durable log write happens on the
//! certifier's group-commit path — so a single service loop is not the
//! bottleneck at cluster-test scale.)
//!
//! Sessions appear in the event journal as
//! [`EventKind::SessionOpen`] / [`EventKind::SessionClose`] on the
//! certifier component, and in the open-sessions gauge (each side counts
//! its own end).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use parking_lot::Mutex;
use tashkent_common::{
    metrics::MetricsRegistry, Component, Event, EventKind, GaugeId, Result,
};
use tashkent_proxy::CertifierHandle;

use crate::message::{Envelope, Message};
use crate::transport::{FramedConn, Listener, Transport};

/// How long the loop parks when a tick moved nothing.
const IDLE_PARK: Duration = Duration::from_micros(100);

/// One accepted connection and its handshake state.
struct ServerSession {
    framed: FramedConn,
    /// The peer's self-declared name once the `Hello` arrived.
    node: Option<String>,
    /// Set by `Goodbye`: close once the response backlog drains.
    closing: bool,
}

/// The certifier's network front end.
pub struct NetServer {
    endpoint: String,
    name: String,
    shutdown: Arc<AtomicBool>,
    worker: Mutex<Option<thread::JoinHandle<()>>>,
}

impl NetServer {
    /// Binds `endpoint` on `transport` and starts the service loop for
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
        let listener = transport.listen(endpoint)?;
        let actual = listener.local_endpoint();
        let shutdown = Arc::new(AtomicBool::new(false));
        let loop_shutdown = Arc::clone(&shutdown);
        let loop_name = name.to_string();
        let worker = thread::Builder::new()
            .name(format!("tknp-server-{name}"))
            .spawn(move || service_loop(&loop_name, &handle, listener, &metrics, &loop_shutdown))
            .expect("spawn server event loop");
        Ok(NetServer {
            endpoint: actual,
            name: name.to_string(),
            shutdown,
            worker: Mutex::new(Some(worker)),
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

    /// Stops the service loop and joins it.  Idempotent.
    pub fn stop(&self) {
        self.shutdown.store(true, Ordering::Release);
        if let Some(worker) = self.worker.lock().take() {
            let _ = worker.join();
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.stop();
    }
}

fn service_loop(
    name: &str,
    handle: &CertifierHandle,
    mut listener: Box<dyn Listener>,
    metrics: &Arc<MetricsRegistry>,
    shutdown: &AtomicBool,
) {
    let mut sessions: Vec<ServerSession> = Vec::new();
    while !shutdown.load(Ordering::Acquire) {
        let mut moved = false;

        // Accept whatever is queued.
        while let Ok(Some(conn)) = listener.try_accept() {
            sessions.push(ServerSession {
                framed: FramedConn::new(conn),
                node: None,
                closing: false,
            });
            moved = true;
        }

        // Pump every session; collect the dead ones.
        let mut index = 0;
        while index < sessions.len() {
            match pump_one(name, handle, &mut sessions[index], metrics) {
                Ok(session_moved) => {
                    let session = &sessions[index];
                    if session.closing && session.framed.backlog() == 0 {
                        close_session(sessions.remove(index), metrics);
                        moved = true;
                    } else {
                        moved |= session_moved;
                        index += 1;
                    }
                }
                Err(_) => {
                    close_session(sessions.remove(index), metrics);
                    moved = true;
                }
            }
        }

        if !moved {
            thread::sleep(IDLE_PARK);
        }
    }
    for session in sessions.drain(..) {
        close_session(session, metrics);
    }
}

fn close_session(session: ServerSession, metrics: &Arc<MetricsRegistry>) {
    // Sessions that never completed the handshake were never counted.
    if let Some(node) = session.node {
        metrics.gauge_add(GaugeId::OpenSessions, -1);
        metrics.emit(
            Event::new(Component::Certifier, EventKind::SessionClose).node(node_index(&node)),
        );
    }
}

/// Parses the peer index out of a `replica-N` style node name (journal
/// correlation); anything else gets the "no node" sentinel.
fn node_index(node: &str) -> usize {
    node.rsplit('-')
        .next()
        .and_then(|s| s.parse::<usize>().ok())
        .unwrap_or(usize::from(u16::MAX))
}

fn pump_one(
    name: &str,
    handle: &CertifierHandle,
    session: &mut ServerSession,
    metrics: &Arc<MetricsRegistry>,
) -> Result<bool> {
    let mut moved = session.framed.flush(metrics)?;
    for envelope in session.framed.poll(metrics)? {
        moved = true;
        let reply = match envelope.message {
            Message::Hello { node } => {
                metrics.gauge_add(GaugeId::OpenSessions, 1);
                metrics.emit(
                    Event::new(Component::Certifier, EventKind::SessionOpen)
                        .node(node_index(&node)),
                );
                session.node = Some(node);
                Some(Message::HelloAck {
                    node: name.to_string(),
                })
            }
            Message::CertifyRequest(request) => Some(match handle.certify(&request) {
                Ok(response) => Message::CertifyDecision(response),
                Err(e) => Message::ErrorReply {
                    unavailable: e.is_unavailable(),
                    detail: e.to_string(),
                },
            }),
            Message::FetchWritesets { since } => Some(Message::WritesetBatch {
                writesets: handle.writesets_after(since),
            }),
            Message::StatusRequest => Some(Message::StatusResponse {
                system_version: handle.system_version(),
                truncation_floor: handle.truncation_floor(),
                available: handle.is_available(),
            }),
            Message::StateTransferRequest => Some(Message::StateTransferResponse {
                checkpoint: handle.local().latest_checkpoint_payload(),
            }),
            Message::Ping => Some(Message::Pong),
            Message::Goodbye => {
                session.closing = true;
                None
            }
            // Responses arriving at the server are a peer bug; answer with
            // a typed error instead of tearing the session down.
            other => Some(Message::ErrorReply {
                unavailable: false,
                detail: format!("unexpected {} at the certifier", other.label()),
            }),
        };
        if let Some(message) = reply {
            session.framed.queue(
                &Envelope {
                    request_id: envelope.request_id,
                    message,
                },
                metrics,
            );
        }
    }
    session.framed.flush(metrics)?;
    Ok(moved)
}
