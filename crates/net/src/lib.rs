//! The networking layer: run the Tashkent cluster over a wire.
//!
//! Every other crate in the workspace was written against in-process calls —
//! a proxy invokes its [`CertifierHandle`](tashkent_proxy::CertifierHandle)
//! and the certifier answers on the same stack.  This crate puts a real wire
//! between them without changing any of that code:
//!
//! * [`frame`] — the `TKNP` framed wire format: magic, protocol version,
//!   length prefix, FNV-1a payload checksum (a layout of the shared
//!   [`tashkent_common::codec`]).  Truncated or corrupted frames
//!   surface as typed errors; frames from a different protocol version are
//!   skipped, never panicked on.
//! * [`message`] — the binary codec for every replica↔certifier
//!   message: certify request/decision, writeset stream fetch, status,
//!   recovery state transfer, and session control (hello, ping, goodbye).
//! * [`transport`] — the [`Transport`]/[`Listener`]/[`Connection`] traits:
//!   blocking endpoints whose every wait ends on a wake-up, a close or a
//!   deadline.
//! * [`loopback`] — a deterministic in-memory transport whose links can be
//!   severed and healed (fault injection for partitions) — the cluster's
//!   fault harness drives it exactly like crash faults.
//! * [`tcp`] — the same traits over blocking `std::net` sockets.
//! * [`session`] — the client side: [`RemoteCertifier`] lets each caller
//!   write its own request and wait for its reply, while one reader thread
//!   per session dials, handshakes, fills replies by request id, detects
//!   half-open links and reconnects with exponential backoff.  It
//!   implements [`CertifierService`](tashkent_proxy::CertifierService), so
//!   a proxy certifies across the wire through the same handle it always
//!   used.
//! * [`server`] — the certifier side: [`NetServer`] runs an acceptor thread
//!   and one thread per session that reads a request, answers it from the
//!   in-process certifier behind it and writes the reply.
//! * [`cluster_net`] — [`ClusterNet`] wires one server and one client per
//!   replica together for a whole cluster, and exposes the sever/heal hooks
//!   the fault executor calls.
//!
//! The design intentionally avoids an async runtime: the build is air-gapped
//! and the workloads are closed-loop, so a few blocking threads per session
//! are sufficient.  No thread sleeps to poll: a reply wakes its caller, a
//! close or a sever wakes a blocked reader, and everything else waits on a
//! deadline.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster_net;
pub mod frame;
pub mod message;
pub mod loopback;
pub mod server;
pub mod session;
pub mod tcp;
pub mod transport;

pub use cluster_net::ClusterNet;
pub use frame::{encode_frame, encode_frame_with_version, FrameReader, MAGIC, PROTOCOL_VERSION};
pub use message::{decode_message, encode_message, Envelope, Message};
pub use loopback::{LoopbackNet, LoopbackTransport};
pub use server::NetServer;
pub use session::{RemoteCertifier, SessionConfig};
pub use tcp::TcpTransport;
pub use transport::{Connection, Listener, Transport};
