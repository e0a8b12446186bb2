//! Transport abstraction: poll-based, non-blocking byte pipes.
//!
//! The event loops ([`crate::session`], [`crate::server`]) are written
//! against these three traits only, so the in-memory loopback transport and
//! the TCP transport are interchangeable — `ClusterConfig::transport` picks
//! one and nothing above this layer changes.
//!
//! All operations are non-blocking:
//!
//! * `Ok(0)` from [`Connection::try_send`] / [`Connection::try_recv`] means
//!   *would block* — nothing was moved, poll again later.
//! * [`Error::Unavailable`](tashkent_common::Error::Unavailable) means the
//!   connection is gone (peer closed, link severed, socket reset); the
//!   caller must drop it and, if it owns the session, reconnect.

use tashkent_common::codec::Reader;
use tashkent_common::{metrics::MetricsRegistry, CounterId, Result};

use crate::frame::FrameReader;
use crate::message::{decode_envelope, encode_framed, Envelope};

/// One established bidirectional byte stream.
pub trait Connection: Send {
    /// Attempts to write bytes; returns how many were accepted (`0` = would
    /// block).
    ///
    /// # Errors
    ///
    /// [`Error::Unavailable`](tashkent_common::Error::Unavailable) once the
    /// connection is closed or its link severed.
    fn try_send(&mut self, bytes: &[u8]) -> Result<usize>;

    /// Attempts to read bytes into `buf`; returns how many arrived (`0` =
    /// nothing available right now).
    ///
    /// # Errors
    ///
    /// [`Error::Unavailable`](tashkent_common::Error::Unavailable) once the
    /// connection is closed or its link severed.
    fn try_recv(&mut self, buf: &mut [u8]) -> Result<usize>;

    /// The peer's endpoint name (loopback) or socket address (TCP), for
    /// logs and the session table.
    fn peer(&self) -> String;
}

/// A bound accept point.
pub trait Listener: Send {
    /// Accepts one pending connection if any (`None` = would block).
    ///
    /// # Errors
    ///
    /// [`Error::Unavailable`](tashkent_common::Error::Unavailable) if the
    /// listener itself is closed.
    fn try_accept(&mut self) -> Result<Option<Box<dyn Connection>>>;

    /// The endpoint this listener is reachable at.  For TCP bound to port
    /// `0` this is the *actual* address, so clients can dial it.
    fn local_endpoint(&self) -> String;
}

/// A way of creating listeners and connections.
pub trait Transport: Send + Sync {
    /// Binds a listener at `endpoint` (a logical name for loopback, a
    /// socket address for TCP — `127.0.0.1:0` picks a free port).
    ///
    /// # Errors
    ///
    /// [`Error::Io`](tashkent_common::Error::Io) if binding fails;
    /// [`Error::InvalidConfig`](tashkent_common::Error::InvalidConfig) if
    /// the endpoint name is already taken (loopback).
    fn listen(&self, endpoint: &str) -> Result<Box<dyn Listener>>;

    /// Dials the listener at `endpoint`.
    ///
    /// # Errors
    ///
    /// [`Error::Unavailable`](tashkent_common::Error::Unavailable) if no
    /// listener answers or the link is severed.
    fn dial(&self, endpoint: &str) -> Result<Box<dyn Connection>>;
}

/// A [`Connection`] with framing and message accounting on top: the unit
/// both event loops ([`crate::session`], [`crate::server`]) actually drive.
///
/// Outbound envelopes are encoded into a staging buffer and flushed as the
/// peer accepts bytes; inbound bytes are reassembled into frames and decoded
/// into envelopes.  Byte and message counters go to the cluster's metrics
/// registry ([`CounterId::NetBytesSent`], [`CounterId::NetBytesReceived`],
/// [`CounterId::NetMessages`]).
pub struct FramedConn {
    conn: Box<dyn Connection>,
    reader: FrameReader,
    out: Vec<u8>,
}

impl FramedConn {
    /// Wraps an established connection.
    #[must_use]
    pub fn new(conn: Box<dyn Connection>) -> FramedConn {
        FramedConn {
            conn,
            reader: FrameReader::new(),
            out: Vec::new(),
        }
    }

    /// The peer's name / address.
    #[must_use]
    pub fn peer(&self) -> String {
        self.conn.peer()
    }

    /// Bytes staged but not yet accepted by the peer.
    #[must_use]
    pub fn backlog(&self) -> usize {
        self.out.len()
    }

    /// Stages one envelope for sending (flushed by [`FramedConn::flush`]).
    pub fn queue(&mut self, envelope: &Envelope, metrics: &MetricsRegistry) {
        encode_framed(&mut self.out, envelope);
        metrics.incr(CounterId::NetMessages);
    }

    /// Pushes staged bytes into the connection; returns `true` if any bytes
    /// moved.
    ///
    /// # Errors
    ///
    /// Propagates the connection's
    /// [`Error::Unavailable`](tashkent_common::Error::Unavailable).
    pub fn flush(&mut self, metrics: &MetricsRegistry) -> Result<bool> {
        let mut moved = false;
        while !self.out.is_empty() {
            let n = self.conn.try_send(&self.out)?;
            if n == 0 {
                break;
            }
            self.out.drain(0..n);
            metrics.add(CounterId::NetBytesSent, n as u64);
            moved = true;
        }
        Ok(moved)
    }

    /// Reads whatever the peer sent and returns the complete envelopes.
    ///
    /// # Errors
    ///
    /// Propagates connection loss, and surfaces malformed frames or
    /// messages as their typed errors — the caller tears the session down.
    pub fn poll(&mut self, metrics: &MetricsRegistry) -> Result<Vec<Envelope>> {
        let mut buf = [0u8; 16 * 1024];
        loop {
            let n = self.conn.try_recv(&mut buf)?;
            if n == 0 {
                break;
            }
            metrics.add(CounterId::NetBytesReceived, n as u64);
            self.reader.push(&buf[..n]);
        }
        let mut envelopes = Vec::new();
        while let Some(payload) = self.reader.next_frame()? {
            envelopes.push(decode_envelope(&mut Reader::new(&payload))?);
            metrics.incr(CounterId::NetMessages);
        }
        Ok(envelopes)
    }
}
