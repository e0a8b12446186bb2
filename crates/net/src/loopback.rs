//! The deterministic in-memory loopback transport.
//!
//! [`LoopbackNet`] is a tiny in-process "network": listeners register under
//! logical endpoint names (`certifier`, `replica-0`, ...), dialling pushes a
//! connection into the listener's backlog, and each established connection
//! is a pair of bounded in-memory byte queues whose readers and writers wait
//! on a condvar.  Because nothing leaves the process, runs are as
//! reproducible as the in-process cluster — which is exactly what the fault
//! harness needs.
//!
//! Fault injection hooks:
//!
//! * [`LoopbackNet::sever`] / [`LoopbackNet::heal`] cut or restore the link
//!   between two endpoints.  A sever closes the link's established
//!   connections (both directions, waking their blocked readers) *and*
//!   refuses new dials, so a partition behaves like a real one: in-flight
//!   requests fail with [`Error::Unavailable`] and reconnect attempts keep
//!   failing until the link heals.
//! * [`LoopbackNet::sever_one_way`] cuts only one *direction*: bytes sent
//!   that way silently vanish while the reverse direction keeps flowing —
//!   the half-open link of a real asymmetric partition.  The sender sees
//!   successful sends (no error!), which is exactly what makes half-open
//!   links nasty and what the session layer's no-response-traffic detector
//!   exists to catch.  New dials are refused while either direction is cut
//!   (connection setup needs both paths).
//! * [`LoopbackNet::set_drop_rate`] makes the network randomly reset
//!   established connections (seeded, so a given seed yields the same drop
//!   points for a serial caller) — this is how the session manager's
//!   reconnect path is exercised.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tashkent_common::{Error, Result};

use crate::transport::{Connection, Listener, Transport};

/// Per-direction buffered-byte cap; a sender whose peer is this far behind
/// waits for room until its deadline — backpressure, not OOM.
const PIPE_CAPACITY: usize = 8 << 20;

/// A link name pair in canonical (sorted) order, so `sever(a, b)` and
/// `sever(b, a)` name the same link.
fn link_key(a: &str, b: &str) -> (String, String) {
    if a <= b {
        (a.to_string(), b.to_string())
    } else {
        (b.to_string(), a.to_string())
    }
}

#[derive(Default)]
struct NetState {
    /// Accept backlog per listening endpoint (absent once closed).
    backlogs: HashMap<String, VecDeque<LoopbackConn>>,
    /// Every dialled connection by link, so a sever can close it.
    live: Vec<((String, String), Weak<Wire>)>,
    /// Currently severed links.
    severed: HashSet<(String, String)>,
    /// Directionally severed links, as `(from, to)`: bytes sent from →
    /// to are silently discarded, the reverse direction still flows.
    severed_one_way: HashSet<(String, String)>,
    /// Seeded connection-reset injection.
    drop_rng: Option<(StdRng, f64)>,
}

/// The shared in-memory network: a registry of listeners and link states.
pub struct LoopbackNet {
    state: Mutex<NetState>,
    /// Wakes blocked accepts: a dial arrived or a listener closed.
    dialled: Condvar,
}

impl Default for LoopbackNet {
    fn default() -> Self {
        LoopbackNet::new()
    }
}

impl LoopbackNet {
    /// Creates an empty network.
    #[must_use]
    pub fn new() -> LoopbackNet {
        LoopbackNet {
            state: Mutex::new(NetState::default()),
            dialled: Condvar::new(),
        }
    }

    /// Creates an [`Arc`]-shared network (the usual way to use one).
    #[must_use]
    pub fn shared() -> Arc<LoopbackNet> {
        Arc::new(LoopbackNet::new())
    }

    /// A transport view of this network for a node named `local`; the name
    /// identifies the node's end of every link it dials.
    #[must_use]
    pub fn transport(self: &Arc<Self>, local: &str) -> LoopbackTransport {
        LoopbackTransport {
            net: Arc::clone(self),
            local: local.to_string(),
        }
    }

    /// Severs the link between two endpoints: established connections are
    /// closed and new dials fail until [`LoopbackNet::heal`].  Returns
    /// `true` if the link was previously healthy.
    pub fn sever(&self, a: &str, b: &str) -> bool {
        let link = link_key(a, b);
        let mut state = self.state.lock();
        for (_, wire) in state.live.iter().filter(|(l, _)| *l == link) {
            if let Some(wire) = wire.upgrade() {
                wire.close();
            }
        }
        state.severed.insert(link)
    }

    /// Heals a severed link — the symmetric sever *and* any one-way severs
    /// between the pair.  Returns `true` if anything was severed.
    pub fn heal(&self, a: &str, b: &str) -> bool {
        let mut state = self.state.lock();
        let sym = state.severed.remove(&link_key(a, b));
        let fwd = state.severed_one_way.remove(&(a.to_string(), b.to_string()));
        let rev = state.severed_one_way.remove(&(b.to_string(), a.to_string()));
        sym || fwd || rev
    }

    /// Severs only the `from` → `to` direction: bytes sent that way are
    /// silently dropped (the sender does *not* get an error — half-open
    /// semantics), while `to` → `from` keeps flowing.  New dials between
    /// the pair are refused in both roles, since connection setup needs a
    /// round trip.  Returns `true` if the direction was previously open.
    pub fn sever_one_way(&self, from: &str, to: &str) -> bool {
        self.state
            .lock()
            .severed_one_way
            .insert((from.to_string(), to.to_string()))
    }

    /// Heals only the `from` → `to` direction.  Returns `true` if it was
    /// severed.
    pub fn heal_one_way(&self, from: &str, to: &str) -> bool {
        self.state
            .lock()
            .severed_one_way
            .remove(&(from.to_string(), to.to_string()))
    }

    /// Heals every severed link; returns how many there were (one-way
    /// severs counted individually).
    pub fn heal_all(&self) -> usize {
        let mut state = self.state.lock();
        let n = state.severed.len() + state.severed_one_way.len();
        state.severed.clear();
        state.severed_one_way.clear();
        n
    }

    /// `true` if the link between `a` and `b` is currently severed
    /// symmetrically.
    #[must_use]
    pub fn is_severed(&self, a: &str, b: &str) -> bool {
        self.state.lock().severed.contains(&link_key(a, b))
    }

    /// `true` if the `from` → `to` direction is currently severed.
    #[must_use]
    pub fn is_severed_one_way(&self, from: &str, to: &str) -> bool {
        self.state
            .lock()
            .severed_one_way
            .contains(&(from.to_string(), to.to_string()))
    }

    /// Enables seeded random connection resets: each send has probability
    /// `rate` of resetting its connection first.  `rate = 0.0` disables.
    pub fn set_drop_rate(&self, seed: u64, rate: f64) {
        let mut state = self.state.lock();
        state.drop_rng = if rate > 0.0 {
            Some((StdRng::seed_from_u64(seed), rate))
        } else {
            None
        };
    }

    /// One send's fate: whether the network resets the connection first (one
    /// seeded draw per send), and whether the `from` → `to` direction is cut.
    fn on_send(&self, from: &str, to: &str) -> (bool, bool) {
        let mut state = self.state.lock();
        let dropped = state
            .drop_rng
            .as_mut()
            .is_some_and(|(rng, rate)| rng.gen_bool(*rate));
        let cut = state
            .severed_one_way
            .contains(&(from.to_string(), to.to_string()));
        (dropped, cut)
    }
}

/// A node-scoped view of a [`LoopbackNet`] implementing [`Transport`].
pub struct LoopbackTransport {
    net: Arc<LoopbackNet>,
    local: String,
}

impl Transport for LoopbackTransport {
    fn listen(&self, endpoint: &str) -> Result<Box<dyn Listener>> {
        let mut state = self.net.state.lock();
        if state.backlogs.contains_key(endpoint) {
            return Err(Error::InvalidConfig(format!(
                "loopback endpoint '{endpoint}' is already listening"
            )));
        }
        state.backlogs.insert(endpoint.to_string(), VecDeque::new());
        Ok(Box::new(LoopbackListener {
            net: Arc::clone(&self.net),
            endpoint: endpoint.to_string(),
            closed: AtomicBool::new(false),
        }))
    }

    fn dial(&self, endpoint: &str) -> Result<Box<dyn Connection>> {
        let link = link_key(&self.local, endpoint);
        let mut state = self.net.state.lock();
        // A dial needs a round trip, so either a symmetric sever or a cut
        // in *either* direction refuses it.
        if state.severed.contains(&link)
            || state
                .severed_one_way
                .contains(&(self.local.clone(), endpoint.to_string()))
            || state
                .severed_one_way
                .contains(&(endpoint.to_string(), self.local.clone()))
        {
            return Err(Error::Unavailable(format!(
                "loopback link {} <-> {} is severed",
                self.local, endpoint
            )));
        }
        let wire = Arc::new(Wire::new());
        let end = |inbound: usize, local: &str, peer: &str| LoopbackConn {
            net: Arc::clone(&self.net),
            wire: Arc::clone(&wire),
            inbound,
            local_name: local.to_string(),
            peer_name: peer.to_string(),
        };
        let Some(backlog) = state.backlogs.get_mut(endpoint) else {
            return Err(Error::Unavailable(format!(
                "no loopback listener at '{endpoint}'"
            )));
        };
        backlog.push_back(end(1, endpoint, &self.local));
        state.live.retain(|(_, wire)| wire.strong_count() > 0);
        state.live.push((link, Arc::downgrade(&wire)));
        self.net.dialled.notify_all();
        Ok(Box::new(end(0, &self.local, endpoint)))
    }
}

struct LoopbackListener {
    net: Arc<LoopbackNet>,
    endpoint: String,
    closed: AtomicBool,
}

impl Listener for LoopbackListener {
    fn accept(&self) -> Result<Box<dyn Connection>> {
        let mut state = self.net.state.lock();
        loop {
            let backlog = match state.backlogs.get_mut(&self.endpoint) {
                Some(backlog) if !self.closed.load(Ordering::Acquire) => backlog,
                _ => {
                    return Err(Error::Unavailable(format!(
                        "loopback listener '{}' is closed",
                        self.endpoint
                    )))
                }
            };
            if let Some(conn) = backlog.pop_front() {
                return Ok(Box::new(conn));
            }
            self.net.dialled.wait(&mut state);
        }
    }

    fn close(&self) {
        if !self.closed.swap(true, Ordering::AcqRel) {
            self.net.state.lock().backlogs.remove(&self.endpoint);
            self.net.dialled.notify_all();
        }
    }

    fn local_endpoint(&self) -> String {
        self.endpoint.clone()
    }
}

impl Drop for LoopbackListener {
    fn drop(&mut self) {
        self.close();
    }
}

/// Both directions of one established connection, shared by its two ends.
struct Wire {
    state: Mutex<Pipes>,
    /// Per direction: wakes its reader (bytes arrived, or the wire closed)
    /// and a writer waiting for room.
    changed: [Condvar; 2],
}

struct Pipes {
    /// `bytes[0]` flows towards the dialler, `bytes[1]` towards the
    /// listener.
    bytes: [VecDeque<u8>; 2],
    closed: bool,
}

impl Wire {
    fn new() -> Wire {
        Wire {
            state: Mutex::new(Pipes {
                bytes: [VecDeque::new(), VecDeque::new()],
                closed: false,
            }),
            changed: [Condvar::new(), Condvar::new()],
        }
    }

    fn close(&self) {
        self.state.lock().closed = true;
        for changed in &self.changed {
            changed.notify_all();
        }
    }
}

/// One end of an established loopback connection.
struct LoopbackConn {
    net: Arc<LoopbackNet>,
    wire: Arc<Wire>,
    /// Which direction of the wire flows towards this end.
    inbound: usize,
    local_name: String,
    peer_name: String,
}

impl LoopbackConn {
    fn closed_error(&self) -> Error {
        Error::Unavailable(format!(
            "loopback connection to {} is closed",
            self.peer_name
        ))
    }
}

impl Connection for LoopbackConn {
    fn send(&self, mut bytes: &[u8], timeout: Duration) -> Result<()> {
        let (dropped, cut) = self.net.on_send(&self.local_name, &self.peer_name);
        if dropped {
            self.wire.close();
        }
        let deadline = Instant::now() + timeout;
        let outbound = 1 - self.inbound;
        let mut pipes = self.wire.state.lock();
        loop {
            if pipes.closed {
                return Err(self.closed_error());
            }
            // Half-open link: the send "succeeds" — the sender has no way
            // to tell — but the bytes never reach the peer.  Closed-wire
            // errors still win (above) so resets are not masked.
            if cut {
                return Ok(());
            }
            let queued = &mut pipes.bytes[outbound];
            let n = bytes.len().min(PIPE_CAPACITY.saturating_sub(queued.len()));
            queued.extend(&bytes[..n]);
            bytes = &bytes[n..];
            self.wire.changed[outbound].notify_all();
            let left = deadline.saturating_duration_since(Instant::now());
            if bytes.is_empty() {
                return Ok(());
            } else if left.is_zero() {
                return Err(Error::Unavailable(format!(
                    "send to {} timed out after {timeout:?}",
                    self.peer_name
                )));
            }
            self.wire.changed[outbound].wait_for(&mut pipes, left);
        }
    }

    fn recv(&self, buf: &mut [u8], timeout: Option<Duration>) -> Result<usize> {
        let deadline = timeout.map(|timeout| Instant::now() + timeout);
        let changed = &self.wire.changed[self.inbound];
        let mut pipes = self.wire.state.lock();
        loop {
            let queued = &mut pipes.bytes[self.inbound];
            let n = queued.len().min(buf.len());
            if n > 0 {
                // Only a full pipe has a writer waiting for room.
                if queued.len() >= PIPE_CAPACITY {
                    changed.notify_all();
                }
                for (slot, byte) in buf.iter_mut().zip(queued.drain(..n)) {
                    *slot = byte;
                }
                return Ok(n);
            }
            if pipes.closed {
                return Err(self.closed_error());
            }
            match deadline.map(|deadline| deadline.saturating_duration_since(Instant::now())) {
                Some(left) if left.is_zero() => return Ok(0),
                Some(left) => {
                    changed.wait_for(&mut pipes, left);
                }
                None => changed.wait(&mut pipes),
            }
        }
    }

    fn close(&self) {
        self.wire.close();
    }

    fn peer(&self) -> String {
        self.peer_name.clone()
    }
}

impl Drop for LoopbackConn {
    fn drop(&mut self) {
        self.wire.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SECOND: Duration = Duration::from_secs(1);
    const QUIET: Option<Duration> = Some(Duration::from_millis(5));

    fn establish(
        net: &Arc<LoopbackNet>,
    ) -> (Box<dyn Connection>, Box<dyn Connection>, Box<dyn Listener>) {
        let server_side = net.transport("certifier");
        let listener = server_side.listen("certifier").unwrap();
        let client = net.transport("replica-0").dial("certifier").unwrap();
        let server = listener.accept().unwrap();
        (client, server, listener)
    }

    #[test]
    fn bytes_flow_both_ways() {
        let net = LoopbackNet::shared();
        let (client, server, _listener) = establish(&net);
        client.send(b"ping", SECOND).unwrap();
        let mut buf = [0u8; 16];
        assert_eq!(server.recv(&mut buf, QUIET).unwrap(), 4);
        assert_eq!(&buf[..4], b"ping");
        server.send(b"pong", SECOND).unwrap();
        assert_eq!(client.recv(&mut buf, QUIET).unwrap(), 4);
        assert_eq!(&buf[..4], b"pong");
        assert_eq!(
            client.recv(&mut buf, QUIET).unwrap(),
            0,
            "empty = timed out"
        );
        assert_eq!(client.peer(), "certifier");
        assert_eq!(server.peer(), "replica-0");
    }

    #[test]
    fn severed_links_kill_connections_and_refuse_dials() {
        let net = LoopbackNet::shared();
        let (client, _server, _listener) = establish(&net);
        assert!(net.sever("replica-0", "certifier"));
        assert!(client.send(b"x", SECOND).is_err());
        assert!(net
            .transport("replica-0")
            .dial("certifier")
            .is_err_and(|e| e.is_unavailable()));
        // Another replica's link is unaffected.
        assert!(net.transport("replica-1").dial("certifier").is_ok());
        assert_eq!(net.heal_all(), 1);
        assert!(net.transport("replica-0").dial("certifier").is_ok());
    }

    #[test]
    fn a_sever_wakes_blocked_readers_on_both_ends() {
        let net = LoopbackNet::shared();
        let (client, server, _listener) = establish(&net);
        let readers: Vec<_> = [client, server]
            .into_iter()
            .map(|conn| std::thread::spawn(move || conn.recv(&mut [0u8; 8], None)))
            .collect();
        net.sever("certifier", "replica-0");
        for reader in readers {
            assert!(reader.join().unwrap().is_err_and(|e| e.is_unavailable()));
        }
    }

    #[test]
    fn close_wakes_a_blocked_accept() {
        let net = LoopbackNet::shared();
        let listener: Arc<dyn Listener> =
            Arc::from(net.transport("certifier").listen("certifier").unwrap());
        let acceptor = {
            let listener = Arc::clone(&listener);
            std::thread::spawn(move || listener.accept().map(|_| ()))
        };
        listener.close();
        assert!(acceptor.join().unwrap().is_err_and(|e| e.is_unavailable()));
        assert!(net.transport("replica-0").dial("certifier").is_err());
    }

    #[test]
    fn peer_drop_surfaces_as_unavailable_after_drain() {
        let net = LoopbackNet::shared();
        let (client, server, _listener) = establish(&net);
        client.send(b"last words", SECOND).unwrap();
        drop(server);
        // Buffered bytes are still deliverable... to nobody here; the
        // client's own reads see the close.
        let mut buf = [0u8; 4];
        assert!(client.recv(&mut buf, QUIET).is_err());
        assert!(client.send(b"x", SECOND).is_err());
    }

    #[test]
    fn one_way_sever_drops_bytes_silently_one_direction() {
        let net = LoopbackNet::shared();
        let (client, server, _listener) = establish(&net);
        assert!(net.sever_one_way("replica-0", "certifier"));
        // The cut direction: the sender sees success, the peer nothing —
        // the half-open signature.
        client.send(b"lost", SECOND).unwrap();
        let mut buf = [0u8; 16];
        assert_eq!(server.recv(&mut buf, QUIET).unwrap(), 0);
        // The reverse direction still flows.
        server.send(b"pong", SECOND).unwrap();
        assert_eq!(client.recv(&mut buf, QUIET).unwrap(), 4);
        assert_eq!(&buf[..4], b"pong");
        // Dials are refused in both roles while one direction is cut.
        assert!(net
            .transport("replica-0")
            .dial("certifier")
            .is_err_and(|e| e.is_unavailable()));
        assert!(net.is_severed_one_way("replica-0", "certifier"));
        assert!(!net.is_severed_one_way("certifier", "replica-0"));
        // Healing the direction restores it without ever resetting the
        // established connection.
        assert!(net.heal_one_way("replica-0", "certifier"));
        client.send(b"back", SECOND).unwrap();
        assert_eq!(server.recv(&mut buf, QUIET).unwrap(), 4);
        assert_eq!(&buf[..4], b"back");
    }

    #[test]
    fn symmetric_heal_and_heal_all_clear_one_way_severs() {
        let net = LoopbackNet::shared();
        net.sever_one_way("certifier", "replica-0");
        assert!(net.heal("replica-0", "certifier"), "heal covers directions");
        assert!(!net.is_severed_one_way("certifier", "replica-0"));
        net.sever_one_way("certifier", "replica-1");
        net.sever("replica-2", "certifier");
        assert_eq!(net.heal_all(), 2);
        assert!(net.transport("replica-1").dial("certifier").is_err(), "no listener, but not severed");
    }

    #[test]
    fn seeded_drops_reset_connections() {
        let net = LoopbackNet::shared();
        net.set_drop_rate(0xD20B, 1.0);
        let (client, _server, listener) = establish(&net);
        assert!(
            client.send(b"x", SECOND).is_err(),
            "rate 1.0 drops immediately"
        );
        net.set_drop_rate(0, 0.0);
        drop(listener);
        let (client, _server2, _listener2) = establish(&net);
        assert!(client.send(b"x", SECOND).is_ok());
    }

    #[test]
    fn listener_names_are_exclusive_until_dropped() {
        let net = LoopbackNet::shared();
        let t = net.transport("certifier");
        let listener = t.listen("certifier").unwrap();
        assert!(t.listen("certifier").is_err());
        drop(listener);
        assert!(t.listen("certifier").is_ok());
    }
}
