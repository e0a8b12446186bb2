//! The golden samples of `tests/codec_golden.txt` and, for each format, its
//! public decoder and encoder — shared by the golden and mutation suites.

use std::sync::Arc;

use bytes::{Bytes, BytesMut};
use tashkent::DiagnosticBundle;
use tashkent_certifier::certifier::{decode_checkpoint_payload, encode_checkpoint_payload};
use tashkent_common::{MetricsSnapshot, Result, Version, WriteSet};
use tashkent_net::{decode_message, encode_frame, encode_message, Envelope, FrameReader};
use tashkent_storage::checkpoint::{decode_image, decode_manifest, encode_image, encode_manifest};
use tashkent_storage::dump::DatabaseDump;
use tashkent_storage::wal::WalRecord;

/// Every golden sample as `(name, bytes)`, in file order.
pub fn samples() -> Vec<(String, Vec<u8>)> {
    include_str!("../codec_golden.txt")
        .lines()
        .filter(|line| !line.starts_with('#') && !line.trim().is_empty())
        .map(|line| {
            let (name, hex) = line.split_once(' ').expect("`name hex` line");
            let bytes = (0..hex.len())
                .step_by(2)
                .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).expect("hex byte"))
                .collect();
            (name.to_string(), bytes)
        })
        .collect()
}

/// One decoded sample, whatever its format.
pub enum Decoded {
    Wal(Vec<WalRecord>),
    Tknp(Envelope),
    Image(Version, Vec<u8>),
    Manifest(u64, u64, Version),
    Dump(DatabaseDump),
    Snapshot(MetricsSnapshot),
    Bundle(Box<DiagnosticBundle>),
    CertifierCheckpoint(Version, Vec<(Version, WriteSet)>),
}

/// Decodes `bytes` as the format the sample `name` is in.  `Ok(None)` is a
/// TKNP stream that holds no complete current-version frame yet.
pub fn decode(name: &str, bytes: &[u8]) -> Result<Option<Decoded>> {
    let decoded = match name.split('_').next().unwrap() {
        "wal" => Decoded::Wal(WalRecord::decode_all(bytes)?),
        "tknp" => {
            let mut reader = FrameReader::new();
            reader.push(bytes);
            let Some(payload) = reader.next_frame()? else {
                return Ok(None);
            };
            Decoded::Tknp(decode_message(&mut Bytes::from(payload))?)
        }
        "tkcp" => {
            let (version, payload) = decode_image(bytes)?;
            Decoded::Image(version, payload)
        }
        "tkmf" => {
            let (seq, slot, version) = decode_manifest(bytes)?;
            Decoded::Manifest(seq, slot, version)
        }
        "tkdp" => Decoded::Dump(DatabaseDump::from_bytes(bytes)?),
        "tms1" => Decoded::Snapshot(MetricsSnapshot::from_bytes(bytes)?),
        "tdb1" => Decoded::Bundle(Box::new(DiagnosticBundle::from_bytes(bytes)?)),
        "certifier" => {
            let (floor, entries) = decode_checkpoint_payload(bytes)?;
            Decoded::CertifierCheckpoint(floor, entries)
        }
        other => panic!("no decoder for sample format {other:?}"),
    };
    Ok(Some(decoded))
}

/// Encodes a decoded sample back into bytes with its format's encoder.
pub fn encode(decoded: &Decoded) -> Vec<u8> {
    match decoded {
        Decoded::Wal(records) => records.iter().flat_map(WalRecord::encode).collect(),
        Decoded::Tknp(envelope) => {
            let mut payload = BytesMut::new();
            encode_message(&mut payload, envelope);
            encode_frame(&payload)
        }
        Decoded::Image(version, payload) => encode_image(*version, payload),
        Decoded::Manifest(seq, slot, version) => encode_manifest(*seq, *slot, *version),
        Decoded::Dump(dump) => dump.to_bytes(),
        Decoded::Snapshot(snapshot) => snapshot.to_bytes(),
        Decoded::Bundle(bundle) => bundle.to_bytes(),
        Decoded::CertifierCheckpoint(floor, entries) => {
            let entries: Vec<(Version, Arc<WriteSet>)> = entries
                .iter()
                .map(|(version, writeset)| (*version, Arc::new(writeset.clone())))
                .collect();
            encode_checkpoint_payload(*floor, &entries)
        }
    }
}
