//! Transport abstraction: blocking byte pipes with deadlines.
//!
//! The session and server threads ([`crate::session`], [`crate::server`])
//! are written against these three traits only, so the in-memory loopback
//! transport and the TCP transport are interchangeable —
//! `ClusterConfig::transport` picks one and nothing above this layer
//! changes.  Every wait ends on a wake-up or a deadline: a `recv` wakes to
//! bytes, its timeout, or a close from any thread (or the link's loss); an
//! `accept` wakes to a dial or the listener's close.
//! [`Error::Unavailable`](tashkent_common::Error::Unavailable) means the
//! connection is gone; the caller drops it and, if it owns the session,
//! reconnects.

use std::sync::Arc;
use std::time::Duration;

use tashkent_common::codec::Reader;
use tashkent_common::{metrics::MetricsRegistry, CounterId, Result};

use crate::frame::FrameReader;
use crate::message::{decode_envelope, encode_framed, Envelope};

/// One established bidirectional byte stream, shared by the threads that
/// write to it, read from it and close it.
pub trait Connection: Send + Sync {
    /// Writes all of `bytes`.
    ///
    /// # Errors
    ///
    /// [`Error::Unavailable`](tashkent_common::Error::Unavailable) once the
    /// connection is closed or its link severed, or if the peer has not
    /// taken every byte within `timeout`.
    fn send(&self, bytes: &[u8], timeout: Duration) -> Result<()>;

    /// Blocks until bytes arrive and reads them into `buf`; returns how many
    /// (at least one), or `0` once `timeout` passed with nothing to read.
    /// `None` waits without a deadline, until bytes or a close.
    ///
    /// # Errors
    ///
    /// [`Error::Unavailable`](tashkent_common::Error::Unavailable) once the
    /// connection is closed or its link severed.
    fn recv(&self, buf: &mut [u8], timeout: Option<Duration>) -> Result<usize>;

    /// Closes both directions; a `recv` blocked on another thread wakes
    /// with `Unavailable`.  Idempotent.
    fn close(&self);

    /// The peer's endpoint name (loopback) or socket address (TCP), for
    /// logs and the session table.
    fn peer(&self) -> String;
}

/// A bound accept point.
pub trait Listener: Send + Sync {
    /// Blocks until a dial arrives and returns its connection.
    ///
    /// # Errors
    ///
    /// [`Error::Unavailable`](tashkent_common::Error::Unavailable) once the
    /// listener is closed.
    fn accept(&self) -> Result<Box<dyn Connection>>;

    /// Stops accepting; an `accept` blocked on another thread wakes with
    /// `Unavailable`.  Idempotent.
    fn close(&self);

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

/// Encodes one envelope as a frame and sends it whole, counting it in the
/// registry ([`CounterId::NetMessages`], [`CounterId::NetBytesSent`]).
///
/// # Errors
///
/// Whatever [`Connection::send`] reports.
pub fn send_envelope(
    conn: &dyn Connection,
    envelope: &Envelope,
    timeout: Duration,
    metrics: &MetricsRegistry,
) -> Result<()> {
    let mut frame = Vec::new();
    encode_framed(&mut frame, envelope);
    conn.send(&frame, timeout)?;
    metrics.incr(CounterId::NetMessages);
    metrics.add(CounterId::NetBytesSent, frame.len() as u64);
    Ok(())
}

/// The receiving side of a [`Connection`]: inbound bytes are reassembled
/// into frames and decoded into envelopes, counted in the registry
/// ([`CounterId::NetBytesReceived`], [`CounterId::NetMessages`]).
pub struct FramedConn {
    conn: Arc<dyn Connection>,
    reader: FrameReader,
}

impl FramedConn {
    /// Wraps an established connection.
    #[must_use]
    pub fn new(conn: Arc<dyn Connection>) -> FramedConn {
        FramedConn {
            conn,
            reader: FrameReader::new(),
        }
    }

    /// Blocks for the next bytes and returns the envelopes they complete
    /// (possibly none, for a partial frame); `None` once `timeout` passed
    /// with no bytes at all.
    ///
    /// # Errors
    ///
    /// Propagates connection loss, and surfaces malformed frames or
    /// messages as their typed errors — the caller tears the session down.
    pub fn recv(
        &mut self,
        timeout: Option<Duration>,
        metrics: &MetricsRegistry,
    ) -> Result<Option<Vec<Envelope>>> {
        let mut buf = [0u8; 16 * 1024];
        let n = self.conn.recv(&mut buf, timeout)?;
        if n == 0 {
            return Ok(None);
        }
        metrics.add(CounterId::NetBytesReceived, n as u64);
        self.reader.push(&buf[..n]);
        let mut envelopes = Vec::new();
        while let Some(payload) = self.reader.next_frame()? {
            envelopes.push(decode_envelope(&mut Reader::new(&payload))?);
            metrics.incr(CounterId::NetMessages);
        }
        Ok(Some(envelopes))
    }
}
