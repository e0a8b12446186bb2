//! The binary codec for every TKNP message.
//!
//! Each wire payload is one [`Envelope`]: a request id (echoed verbatim in
//! the response so the client's session manager can match replies to pending
//! callers) and a tagged [`Message`].  The codec is built from the shared
//! [`tashkent_common::codec`] reader and writer, and reuses the storage
//! encoders for the structured types (writesets, versions) so the wire
//! format and the on-disk format agree on those layouts.
//!
//! Every decoder returns [`Error::Corruption`] on truncation and
//! [`Error::Protocol`] on an unknown message tag — nothing in this module
//! panics on attacker-shaped bytes.

use std::sync::Arc;

use bytes::{Bytes, BytesMut};
use tashkent_certifier::{
    CertificationDecision, CertificationRequest, CertificationResponse, RemoteWriteSet,
};
use tashkent_common::codec::{Reader, Writer};
use tashkent_common::{Error, ReplicaId, Result, Version};
use tashkent_storage::codec::{
    decode_version, decode_writeset, encode_version, encode_writeset,
};

use crate::frame::{PROTOCOL_VERSION, TKNP};

/// One wire payload: a request id plus the message it carries.
///
/// Requests choose a fresh id; responses echo the request's id.  Unsolicited
/// messages (e.g. [`Message::Goodbye`]) use id `0`.
#[derive(Debug, Clone, PartialEq)]
pub struct Envelope {
    /// Correlates a response with its pending request.
    pub request_id: u64,
    /// The message itself.
    pub message: Message,
}

/// Every message of the TKNP protocol.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Session handshake: the first message on every new connection.
    Hello {
        /// The dialling node's name (e.g. `replica-1`), for the server's
        /// session table and event journal.
        node: String,
    },
    /// Handshake acknowledgement; the session is established once received.
    HelloAck {
        /// The answering node's name (e.g. `certifier`).
        node: String,
    },
    /// A replica asks the certifier to certify an update transaction.
    CertifyRequest(CertificationRequest),
    /// The certifier's decision, with the piggy-backed remote writesets.
    CertifyDecision(CertificationResponse),
    /// A replica pulls the remote-writeset stream after `since`.
    FetchWritesets {
        /// Stream position: return writesets committed strictly after this.
        since: Version,
    },
    /// The writeset stream answering a fetch.
    WritesetBatch {
        /// Writesets in ascending global commit-version order.
        writesets: Vec<RemoteWriteSet>,
    },
    /// A replica polls the certifier's liveness and log positions.
    StatusRequest,
    /// The certifier's positions, answering a status poll.
    StatusResponse {
        /// The global system version.
        system_version: Version,
        /// The log truncation floor (recovery refuses to start below it).
        truncation_floor: Version,
        /// `true` if certification can currently make progress.
        available: bool,
    },
    /// A recovering replica asks for the newest sealed checkpoint.
    StateTransferRequest,
    /// The checkpoint payload answering a state transfer (absent when the
    /// certifier has never sealed one).
    StateTransferResponse {
        /// The opaque checkpoint bytes
        /// ([`tashkent_certifier::certifier::decode_checkpoint_payload`]
        /// reads them), or `None`.
        checkpoint: Option<Vec<u8>>,
    },
    /// Keep-alive probe.
    Ping,
    /// Keep-alive answer.
    Pong,
    /// Graceful close: the sender will not issue further requests and will
    /// drop the connection once in-flight responses have drained.
    Goodbye,
    /// A request failed on the server; carries enough to rebuild the error
    /// client-side.
    ErrorReply {
        /// `true` when the failure maps to [`Error::Unavailable`] (the
        /// caller may retry after the cluster heals); `false` for
        /// certification aborts and other typed failures.
        unavailable: bool,
        /// Human-readable detail.
        detail: String,
    },
}

impl Message {
    fn tag(&self) -> u8 {
        match self {
            Message::Hello { .. } => 0,
            Message::HelloAck { .. } => 1,
            Message::CertifyRequest(_) => 2,
            Message::CertifyDecision(_) => 3,
            Message::FetchWritesets { .. } => 4,
            Message::WritesetBatch { .. } => 5,
            Message::StatusRequest => 6,
            Message::StatusResponse { .. } => 7,
            Message::StateTransferRequest => 8,
            Message::StateTransferResponse { .. } => 9,
            Message::Ping => 10,
            Message::Pong => 11,
            Message::Goodbye => 12,
            Message::ErrorReply { .. } => 13,
        }
    }

    /// A short label for logs and traces.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            Message::Hello { .. } => "hello",
            Message::HelloAck { .. } => "hello_ack",
            Message::CertifyRequest(_) => "certify_request",
            Message::CertifyDecision(_) => "certify_decision",
            Message::FetchWritesets { .. } => "fetch_writesets",
            Message::WritesetBatch { .. } => "writeset_batch",
            Message::StatusRequest => "status_request",
            Message::StatusResponse { .. } => "status_response",
            Message::StateTransferRequest => "state_transfer_request",
            Message::StateTransferResponse { .. } => "state_transfer_response",
            Message::Ping => "ping",
            Message::Pong => "pong",
            Message::Goodbye => "goodbye",
            Message::ErrorReply { .. } => "error_reply",
        }
    }
}

fn encode_remote_writesets(buf: &mut Vec<u8>, writesets: &[RemoteWriteSet]) {
    buf.put_u32(writesets.len() as u32);
    for remote in writesets {
        encode_version(buf, remote.commit_version);
        encode_version(buf, remote.conflict_free_to);
        encode_writeset(buf, &remote.writeset);
    }
}

fn decode_remote_writesets(r: &mut Reader<'_>, what: &str) -> Result<Vec<RemoteWriteSet>> {
    let count = r.u32(what)? as usize;
    r.vec(count, |r| {
        Ok(RemoteWriteSet {
            commit_version: decode_version(r)?,
            conflict_free_to: decode_version(r)?,
            writeset: Arc::new(decode_writeset(r)?),
        })
    })
}

fn encode_decision(buf: &mut Vec<u8>, decision: &CertificationDecision) {
    match decision {
        CertificationDecision::Commit => buf.put_u8(0),
        CertificationDecision::Abort { reason, forced } => {
            buf.put_u8(1);
            buf.put_u8(u8::from(*forced));
            buf.put_bytes32(reason.as_bytes());
        }
    }
}

fn decode_decision(r: &mut Reader<'_>) -> Result<CertificationDecision> {
    match r.u8("decision tag")? {
        0 => Ok(CertificationDecision::Commit),
        1 => Ok(CertificationDecision::Abort {
            forced: r.u8("abort flags")? != 0,
            reason: r.str32("abort reason")?,
        }),
        other => Err(Error::Corruption(format!("unknown decision tag {other}"))),
    }
}

/// Encodes one [`Envelope`] into `buf`.
pub fn encode_message(buf: &mut BytesMut, envelope: &Envelope) {
    let mut out = Vec::new();
    encode_envelope(&mut out, envelope);
    buf.extend_from_slice(&out);
}

/// Appends one [`Envelope`] to `buf`.
pub fn encode_envelope(buf: &mut Vec<u8>, envelope: &Envelope) {
    buf.put_u64(envelope.request_id);
    buf.put_u8(envelope.message.tag());
    match &envelope.message {
        Message::Hello { node } | Message::HelloAck { node } => buf.put_bytes32(node.as_bytes()),
        Message::CertifyRequest(request) => {
            buf.put_u32(request.replica.value());
            encode_version(buf, request.start_version);
            encode_version(buf, request.replica_version);
            encode_writeset(buf, &request.writeset);
        }
        Message::CertifyDecision(response) => {
            encode_decision(buf, &response.decision);
            match response.commit_version {
                Some(v) => {
                    buf.put_u8(1);
                    encode_version(buf, v);
                }
                None => buf.put_u8(0),
            }
            encode_version(buf, response.system_version);
            encode_remote_writesets(buf, &response.remote_writesets);
        }
        Message::FetchWritesets { since } => encode_version(buf, *since),
        Message::WritesetBatch { writesets } => encode_remote_writesets(buf, writesets),
        Message::StatusRequest
        | Message::StateTransferRequest
        | Message::Ping
        | Message::Pong
        | Message::Goodbye => {}
        Message::StatusResponse {
            system_version,
            truncation_floor,
            available,
        } => {
            encode_version(buf, *system_version);
            encode_version(buf, *truncation_floor);
            buf.put_u8(u8::from(*available));
        }
        Message::StateTransferResponse { checkpoint } => match checkpoint {
            Some(bytes) => {
                buf.put_u8(1);
                buf.put_bytes32(bytes);
            }
            None => buf.put_u8(0),
        },
        Message::ErrorReply {
            unavailable,
            detail,
        } => {
            buf.put_u8(u8::from(*unavailable));
            buf.put_bytes32(detail.as_bytes());
        }
    }
}

/// Decodes one [`Envelope`] from `buf`, advancing it past the envelope.
///
/// # Errors
///
/// As for [`decode_envelope`].
pub fn decode_message(buf: &mut Bytes) -> Result<Envelope> {
    let mut r = Reader::new(buf.as_slice());
    let envelope = decode_envelope(&mut r);
    *buf = Bytes::copy_from_slice(&buf[r.consumed()..]);
    envelope
}

/// Decodes one [`Envelope`] from `r`.
///
/// # Errors
///
/// [`Error::Corruption`] on truncation or malformed fields;
/// [`Error::Protocol`] on an unknown message tag.
pub fn decode_envelope(r: &mut Reader<'_>) -> Result<Envelope> {
    // Struct fields below are listed in wire order, which is the order Rust
    // evaluates them in.
    let request_id = r.u64("envelope request id")?;
    let message = match r.u8("envelope message tag")? {
        0 => Message::Hello {
            node: r.str32("hello node name")?,
        },
        1 => Message::HelloAck {
            node: r.str32("hello-ack node name")?,
        },
        2 => Message::CertifyRequest(CertificationRequest {
            replica: ReplicaId(r.u32("certify replica id")?),
            start_version: decode_version(r)?,
            replica_version: decode_version(r)?,
            writeset: decode_writeset(r)?,
        }),
        3 => Message::CertifyDecision(CertificationResponse {
            decision: decode_decision(r)?,
            commit_version: match r.u8("commit-version flag")? {
                0 => None,
                _ => Some(decode_version(r)?),
            },
            system_version: decode_version(r)?,
            remote_writesets: decode_remote_writesets(r, "remote-writeset count")?,
        }),
        4 => Message::FetchWritesets {
            since: decode_version(r)?,
        },
        5 => Message::WritesetBatch {
            writesets: decode_remote_writesets(r, "writeset-batch count")?,
        },
        6 => Message::StatusRequest,
        7 => Message::StatusResponse {
            system_version: decode_version(r)?,
            truncation_floor: decode_version(r)?,
            available: r.u8("availability flag")? != 0,
        },
        8 => Message::StateTransferRequest,
        9 => Message::StateTransferResponse {
            checkpoint: match r.u8("checkpoint flag")? {
                0 => None,
                _ => Some(r.bytes32("checkpoint payload")?.to_vec()),
            },
        },
        10 => Message::Ping,
        11 => Message::Pong,
        12 => Message::Goodbye,
        13 => Message::ErrorReply {
            unavailable: r.u8("error flags")? != 0,
            detail: r.str32("error detail")?,
        },
        other => return Err(Error::Protocol(format!("unknown message tag {other}"))),
    };
    Ok(Envelope {
        request_id,
        message,
    })
}

/// Appends an envelope to `out` as one complete wire frame.
pub fn encode_framed(out: &mut Vec<u8>, envelope: &Envelope) {
    TKNP.write(out, u64::from(PROTOCOL_VERSION), |payload| {
        encode_envelope(payload, envelope);
    });
}

#[cfg(test)]
mod tests {
    use tashkent_common::{TableId, Value, WriteItem, WriteSet};

    use super::*;

    fn sample_ws() -> WriteSet {
        WriteSet::from_items(vec![
            WriteItem::update(TableId(1), 7, vec![("a".into(), Value::Int(1))]),
            WriteItem::update(TableId(2), 9, vec![("b".into(), Value::Text("x".into()))]),
        ])
    }

    fn round_trip(message: Message) {
        let envelope = Envelope {
            request_id: 42,
            message,
        };
        let mut buf = BytesMut::new();
        encode_message(&mut buf, &envelope);
        let mut bytes = buf.freeze();
        let decoded = decode_message(&mut bytes).unwrap();
        assert_eq!(decoded, envelope);
        assert!(bytes.is_empty(), "codec must consume what it wrote");
    }

    #[test]
    fn every_variant_round_trips() {
        round_trip(Message::Hello {
            node: "replica-1".into(),
        });
        round_trip(Message::HelloAck {
            node: "certifier".into(),
        });
        round_trip(Message::CertifyRequest(CertificationRequest {
            replica: ReplicaId(3),
            start_version: Version(10),
            writeset: sample_ws(),
            replica_version: Version(8),
        }));
        round_trip(Message::CertifyDecision(CertificationResponse {
            decision: CertificationDecision::Abort {
                reason: "conflict at v11".into(),
                forced: true,
            },
            commit_version: None,
            remote_writesets: vec![RemoteWriteSet {
                commit_version: Version(11),
                writeset: Arc::new(sample_ws()),
                conflict_free_to: Version(9),
            }],
            system_version: Version(11),
        }));
        round_trip(Message::FetchWritesets { since: Version(5) });
        round_trip(Message::WritesetBatch { writesets: vec![] });
        round_trip(Message::StatusRequest);
        round_trip(Message::StatusResponse {
            system_version: Version(9),
            truncation_floor: Version(2),
            available: true,
        });
        round_trip(Message::StateTransferRequest);
        round_trip(Message::StateTransferResponse {
            checkpoint: Some(vec![1, 2, 3]),
        });
        round_trip(Message::StateTransferResponse { checkpoint: None });
        round_trip(Message::Ping);
        round_trip(Message::Pong);
        round_trip(Message::Goodbye);
        round_trip(Message::ErrorReply {
            unavailable: true,
            detail: "majority lost".into(),
        });
    }

    #[test]
    fn unknown_tag_is_a_protocol_error() {
        let mut buf = Vec::new();
        buf.put_u64(1);
        buf.put_u8(200);
        assert!(matches!(
            decode_envelope(&mut Reader::new(&buf)),
            Err(Error::Protocol(_))
        ));
    }

    #[test]
    fn truncation_is_corruption_for_every_prefix() {
        let envelope = Envelope {
            request_id: 7,
            message: Message::CertifyRequest(CertificationRequest {
                replica: ReplicaId(0),
                start_version: Version(1),
                writeset: sample_ws(),
                replica_version: Version(1),
            }),
        };
        let mut buf = BytesMut::new();
        encode_message(&mut buf, &envelope);
        let full: Vec<u8> = buf.freeze().to_vec();
        for cut in 0..full.len() {
            let mut bytes = Bytes::copy_from_slice(&full[..cut]);
            assert!(
                matches!(decode_message(&mut bytes), Err(Error::Corruption(_))),
                "prefix of {cut} bytes must decode as corruption"
            );
        }
    }
}
