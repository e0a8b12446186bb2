//! Property tests for the TKNP wire codec.
//!
//! Arbitrary envelopes must survive encode → frame → reassemble → decode
//! byte-for-byte, and frames from another protocol version must be skipped,
//! not fatal.  Truncation and corruption of every format, this one
//! included, are the mutation suite's job (`tests/codec_mutations.rs` at the
//! workspace root).

use std::sync::Arc;

use bytes::{Bytes, BytesMut};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::Rng;
use tashkent_certifier::{
    CertificationDecision, CertificationRequest, CertificationResponse, RemoteWriteSet,
};
use tashkent_common::{ReplicaId, TableId, Value, Version, WriteItem, WriteSet};
use tashkent_net::{
    decode_message, encode_frame, encode_frame_with_version, encode_message, Envelope,
    FrameReader, Message,
};

fn gen_string(rng: &mut StdRng, max: usize) -> String {
    let len = rng.gen_range(0..=max);
    (0..len)
        .map(|_| char::from(rng.gen_range(b'a'..=b'z')))
        .collect()
}

fn gen_writeset(rng: &mut StdRng) -> WriteSet {
    let items = rng.gen_range(0..4usize);
    WriteSet::from_items(
        (0..items)
            .map(|_| {
                WriteItem::update(
                    TableId(rng.gen_range(0..4u32)),
                    rng.gen_range(0..100i64),
                    vec![(gen_string(rng, 4), Value::Int(rng.gen_range(0..1000)))],
                )
            })
            .collect(),
    )
}

fn gen_remote_writeset(rng: &mut StdRng) -> RemoteWriteSet {
    RemoteWriteSet {
        commit_version: Version(rng.gen_range(0..1_000)),
        writeset: Arc::new(gen_writeset(rng)),
        conflict_free_to: Version(rng.gen_range(0..1_000)),
    }
}

fn gen_message(rng: &mut StdRng) -> Message {
    match rng.gen_range(0..14u32) {
        0 => Message::Hello {
            node: gen_string(rng, 12),
        },
        1 => Message::HelloAck {
            node: gen_string(rng, 12),
        },
        2 => Message::CertifyRequest(CertificationRequest {
            replica: ReplicaId(rng.gen_range(0..8)),
            start_version: Version(rng.gen_range(0..1_000)),
            writeset: gen_writeset(rng),
            replica_version: Version(rng.gen_range(0..1_000)),
        }),
        3 => Message::CertifyDecision(CertificationResponse {
            decision: if rng.gen_bool(0.5) {
                CertificationDecision::Commit
            } else {
                CertificationDecision::Abort {
                    reason: gen_string(rng, 16),
                    forced: rng.gen_bool(0.5),
                }
            },
            commit_version: rng.gen_bool(0.5).then(|| Version(rng.gen_range(0..1_000))),
            remote_writesets: (0..rng.gen_range(0..3usize))
                .map(|_| gen_remote_writeset(rng))
                .collect(),
            system_version: Version(rng.gen_range(0..1_000)),
        }),
        4 => Message::FetchWritesets {
            since: Version(rng.gen_range(0..1_000)),
        },
        5 => Message::WritesetBatch {
            writesets: (0..rng.gen_range(0..4usize))
                .map(|_| gen_remote_writeset(rng))
                .collect(),
        },
        6 => Message::StatusRequest,
        7 => Message::StatusResponse {
            system_version: Version(rng.gen_range(0..1_000)),
            truncation_floor: Version(rng.gen_range(0..1_000)),
            available: rng.gen_bool(0.5),
        },
        8 => Message::StateTransferRequest,
        9 => Message::StateTransferResponse {
            checkpoint: rng.gen_bool(0.5).then(|| {
                let len = rng.gen_range(0..64usize);
                (0..len).map(|_| (rng.gen::<u32>() & 0xFF) as u8).collect()
            }),
        },
        10 => Message::Ping,
        11 => Message::Pong,
        12 => Message::Goodbye,
        _ => Message::ErrorReply {
            unavailable: rng.gen_bool(0.5),
            detail: gen_string(rng, 24),
        },
    }
}

/// A hand-rolled [`Strategy`] for arbitrary envelopes: the message space is
/// too irregular (enums of structs of enums) for tuple composition, so the
/// generator drives the RNG directly.
#[derive(Debug, Clone, Copy)]
struct ArbEnvelope;

impl Strategy for ArbEnvelope {
    type Value = Envelope;

    fn generate(&self, rng: &mut StdRng) -> Envelope {
        Envelope {
            request_id: rng.gen(),
            message: gen_message(rng),
        }
    }
}

fn encode(envelope: &Envelope) -> Vec<u8> {
    let mut buf = BytesMut::new();
    encode_message(&mut buf, envelope);
    buf.freeze().to_vec()
}

proptest! {
    #[test]
    fn arbitrary_envelopes_round_trip(envelope in ArbEnvelope) {
        let raw = encode(&envelope);
        let mut bytes = Bytes::copy_from_slice(&raw);
        let decoded = decode_message(&mut bytes).unwrap();
        prop_assert_eq!(decoded, envelope);
        prop_assert_eq!(bytes.len(), 0, "codec must consume what it wrote");
    }

    #[test]
    fn arbitrary_envelopes_survive_framing_in_single_byte_chunks(
        envelopes in prop::collection::vec(ArbEnvelope, 1..4)
    ) {
        let mut wire = Vec::new();
        for envelope in &envelopes {
            wire.extend_from_slice(&encode_frame(&encode(envelope)));
        }
        let mut reader = FrameReader::new();
        let mut decoded = Vec::new();
        for byte in &wire {
            reader.push(&[*byte]);
            while let Some(payload) = reader.next_frame().unwrap() {
                let mut bytes = Bytes::from(payload);
                decoded.push(decode_message(&mut bytes).unwrap());
            }
        }
        prop_assert_eq!(decoded, envelopes);
        prop_assert_eq!(reader.buffered(), 0);
    }

    #[test]
    fn cross_version_frames_are_skipped_around_good_ones(
        envelope in ArbEnvelope,
        future_version in 2u16..=u16::MAX
    ) {
        let mut reader = FrameReader::new();
        reader.push(&encode_frame_with_version(b"unintelligible", future_version));
        reader.push(&encode_frame(&encode(&envelope)));
        reader.push(&encode_frame_with_version(&[], future_version));
        let payload = reader.next_frame().unwrap().expect("good frame survives");
        let mut bytes = Bytes::from(payload);
        prop_assert_eq!(decode_message(&mut bytes).unwrap(), envelope);
        prop_assert!(reader.next_frame().unwrap().is_none());
        prop_assert_eq!(reader.skipped_versions(), 2);
    }
}
