//! The TCP transport: blocking `std::net` sockets.
//!
//! Endpoints are socket addresses; listening on `127.0.0.1:0` binds a free
//! port, and [`Listener::local_endpoint`] reports the actual address for
//! clients to dial.  No async runtime is involved: reads and writes block
//! under a socket timeout, [`Connection::close`] shuts the socket down
//! (which wakes a blocked read), and [`Listener::close`] wakes a blocked
//! accept by dialling the listener once.

use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use tashkent_common::{Error, Result};

use crate::transport::{Connection, Listener, Transport};

/// The [`Transport`] over real TCP sockets.
#[derive(Debug, Default, Clone, Copy)]
pub struct TcpTransport;

impl TcpTransport {
    /// Creates the transport (stateless; all state lives in the OS).
    #[must_use]
    pub fn new() -> TcpTransport {
        TcpTransport
    }
}

impl Transport for TcpTransport {
    fn listen(&self, endpoint: &str) -> Result<Box<dyn Listener>> {
        let listener =
            TcpListener::bind(endpoint).map_err(|e| Error::Io(format!("bind {endpoint}: {e}")))?;
        let local = listener
            .local_addr()
            .map_err(|e| Error::Io(format!("local_addr: {e}")))?
            .to_string();
        Ok(Box::new(TcpListenerHandle {
            listener,
            local,
            closed: AtomicBool::new(false),
        }))
    }

    fn dial(&self, endpoint: &str) -> Result<Box<dyn Connection>> {
        let stream = TcpStream::connect(endpoint)
            .map_err(|e| Error::Unavailable(format!("connect {endpoint}: {e}")))?;
        TcpConn::wrap(stream, endpoint.to_string())
    }
}

struct TcpListenerHandle {
    listener: TcpListener,
    local: String,
    closed: AtomicBool,
}

impl Listener for TcpListenerHandle {
    fn accept(&self) -> Result<Box<dyn Connection>> {
        loop {
            let accepted = self.listener.accept();
            if self.closed.load(Ordering::Acquire) {
                return Err(Error::Unavailable(format!(
                    "listener {} is closed",
                    self.local
                )));
            }
            match accepted {
                Ok((stream, addr)) => return TcpConn::wrap(stream, addr.to_string()),
                Err(e) if e.kind() == ErrorKind::ConnectionAborted => {}
                Err(e) => return Err(Error::Unavailable(format!("accept: {e}"))),
            }
        }
    }

    fn close(&self) {
        if !self.closed.swap(true, Ordering::AcqRel) {
            // The wake-up: a blocked accept returns this dial and sees the
            // flag.  If the dial fails, no accept is blocked on a live
            // socket.
            let _ = TcpStream::connect(&self.local);
        }
    }

    fn local_endpoint(&self) -> String {
        self.local.clone()
    }
}

struct TcpConn {
    peer: String,
    stream: TcpStream,
}

impl TcpConn {
    fn wrap(stream: TcpStream, peer: String) -> Result<Box<dyn Connection>> {
        stream
            .set_nodelay(true)
            .map_err(|e| Error::Io(format!("set_nodelay: {e}")))?;
        Ok(Box::new(TcpConn { peer, stream }))
    }

    fn lost(&self, e: &std::io::Error) -> Error {
        Error::Unavailable(format!("connection to {}: {e}", self.peer))
    }
}

impl Connection for TcpConn {
    fn send(&self, bytes: &[u8], timeout: Duration) -> Result<()> {
        // The OS reads a zero timeout as "never time out".
        self.stream
            .set_write_timeout(Some(timeout.max(Duration::from_micros(1))))
            .and_then(|()| (&self.stream).write_all(bytes))
            .map_err(|e| self.lost(&e))
    }

    fn recv(&self, buf: &mut [u8], timeout: Option<Duration>) -> Result<usize> {
        self.stream
            .set_read_timeout(timeout.map(|t| t.max(Duration::from_micros(1))))
            .map_err(|e| self.lost(&e))?;
        loop {
            match (&self.stream).read(buf) {
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Ok(0) => {
                    return Err(Error::Unavailable(format!(
                        "{} closed the connection",
                        self.peer
                    )))
                }
                Ok(n) => return Ok(n),
                // The read timeout passed with nothing to read.
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    return Ok(0)
                }
                Err(e) => return Err(self.lost(&e)),
            }
        }
    }

    fn close(&self) {
        let _ = self.stream.shutdown(Shutdown::Both);
    }

    fn peer(&self) -> String {
        self.peer.clone()
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;
    use std::time::Duration;

    use super::*;

    const SECOND: Duration = Duration::from_secs(1);

    #[test]
    fn localhost_round_trip_through_a_kernel_socket() {
        let transport = TcpTransport::new();
        let listener = transport.listen("127.0.0.1:0").unwrap();
        let addr = listener.local_endpoint();
        assert!(addr.ends_with(|c: char| c.is_ascii_digit()));
        let client = transport.dial(&addr).unwrap();
        let server = listener.accept().unwrap();

        client.send(b"over tcp", SECOND).unwrap();
        let mut buf = [0u8; 16];
        let mut got = 0;
        while got < 8 {
            got += server.recv(&mut buf[got..], Some(SECOND)).unwrap();
        }
        assert_eq!(&buf[..8], b"over tcp");
        assert_eq!(
            server
                .recv(&mut buf, Some(Duration::from_millis(5)))
                .unwrap(),
            0,
            "a quiet socket times out"
        );

        drop(client);
        assert!(
            server
                .recv(&mut buf, Some(SECOND))
                .is_err_and(|e| e.is_unavailable()),
            "peer close must surface as Unavailable"
        );
    }

    #[test]
    fn close_wakes_a_blocked_reader_and_a_blocked_accept() {
        let transport = TcpTransport::new();
        let listener: Arc<dyn Listener> = Arc::from(transport.listen("127.0.0.1:0").unwrap());
        let _client = transport.dial(&listener.local_endpoint()).unwrap();
        let server: Arc<dyn Connection> = Arc::from(listener.accept().unwrap());
        let reader = {
            let server = Arc::clone(&server);
            std::thread::spawn(move || server.recv(&mut [0u8; 8], None))
        };
        let acceptor = {
            let listener = Arc::clone(&listener);
            std::thread::spawn(move || listener.accept().map(|_| ()))
        };
        server.close();
        listener.close();
        assert!(reader.join().unwrap().is_err_and(|e| e.is_unavailable()));
        assert!(acceptor.join().unwrap().is_err_and(|e| e.is_unavailable()));
    }

    #[test]
    fn dialling_a_dead_port_is_unavailable() {
        let transport = TcpTransport::new();
        // Bind-then-drop to find a port nobody is listening on.
        let addr = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().to_string()
        };
        assert!(transport.dial(&addr).is_err_and(|e| e.is_unavailable()));
    }
}
