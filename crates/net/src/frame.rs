//! The `TKNP` wire frame.
//!
//! Every message travels inside one frame:
//!
//! ```text
//! +-------+---------+----------+-----------------+----------+
//! | magic | version | length   | payload         | checksum |
//! | TKNP  | u16 BE  | u32 BE   | `length` bytes  | u32 BE   |
//! +-------+---------+----------+-----------------+----------+
//! ```
//!
//! It is the trailing-checksum layout of the shared [`FrameLayout`]: the
//! checksum is FNV-1a over the payload only, as for every log record, dump
//! and checkpoint, so a corrupted frame and a corrupted log record report through
//! the same [`Corruption`](tashkent_common::Error::Corruption) channel.  A frame whose `version` differs
//! from [`PROTOCOL_VERSION`] is *skipped* — its length is trusted, its
//! payload discarded — so a rolling upgrade never panics an old node, it
//! just ignores what it cannot parse.  A frame with a bad magic is a
//! [`Protocol`](tashkent_common::Error::Protocol) error: the stream is not speaking TKNP at all and the
//! session must be torn down.

use tashkent_common::codec::{FrameLayout, Reader};
use tashkent_common::Result;

/// The four magic bytes opening every frame.
pub const MAGIC: [u8; 4] = *b"TKNP";

/// The protocol version this build speaks.
pub const PROTOCOL_VERSION: u16 = 1;

/// The largest payload a peer may send (16 MiB).  A length above this is
/// treated as corruption — it is far beyond any writeset batch the cluster
/// produces and protects the reader from waiting on garbage.
pub const MAX_PAYLOAD: usize = 16 << 20;

/// The frame layout: a `u16` protocol version after the magic, the checksum
/// after the payload.
pub const TKNP: FrameLayout = FrameLayout {
    trailing_checksum: true,
    max_payload: MAX_PAYLOAD,
    ..FrameLayout::new("TKNP", &MAGIC, 2)
};

/// Encodes one payload into a complete frame at [`PROTOCOL_VERSION`].
#[must_use]
pub fn encode_frame(payload: &[u8]) -> Vec<u8> {
    encode_frame_with_version(payload, PROTOCOL_VERSION)
}

/// Encodes one payload into a complete frame at an explicit protocol
/// version (tests use this to exercise the cross-version skip path).
#[must_use]
pub fn encode_frame_with_version(payload: &[u8], version: u16) -> Vec<u8> {
    let mut out = Vec::with_capacity(TKNP.overhead() + payload.len());
    TKNP.write(&mut out, u64::from(version), |p| p.extend_from_slice(payload));
    out
}

/// An incremental frame decoder.
///
/// Feed it whatever bytes the transport produced ([`FrameReader::push`]) and
/// drain complete payloads ([`FrameReader::next_frame`]).  Partial frames
/// simply wait for more bytes; malformed ones return typed errors.
#[derive(Debug, Default)]
pub struct FrameReader {
    buf: Vec<u8>,
    skipped_versions: u64,
}

impl FrameReader {
    /// Creates an empty reader.
    #[must_use]
    pub fn new() -> FrameReader {
        FrameReader::default()
    }

    /// Appends transport bytes to the internal buffer.
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Number of buffered bytes not yet consumed by a complete frame.
    #[must_use]
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// How many well-formed frames of a *different* protocol version have
    /// been skipped so far.
    #[must_use]
    pub fn skipped_versions(&self) -> u64 {
        self.skipped_versions
    }

    /// Returns the next complete payload, `None` if more bytes are needed.
    ///
    /// Frames carrying a different protocol version are skipped (counted in
    /// [`FrameReader::skipped_versions`]) and decoding continues with the
    /// next frame.
    ///
    /// # Errors
    ///
    /// * [`Error::Protocol`](tashkent_common::Error::Protocol) — the stream
    ///   does not start with the `TKNP` magic; the connection is not
    ///   speaking this protocol.
    /// * [`Error::Corruption`](tashkent_common::Error::Corruption) — the
    ///   length field is implausible or the payload checksum does not match.
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>> {
        loop {
            let mut r = Reader::new(&self.buf);
            let Some((version, payload)) = TKNP.read(&mut r)? else {
                return Ok(None);
            };
            let current = (version == u64::from(PROTOCOL_VERSION)).then(|| payload.to_vec());
            self.buf.drain(..r.consumed());
            match current {
                Some(payload) => return Ok(Some(payload)),
                // A well-formed frame from another protocol version: skip
                // it and keep decoding.
                None => self.skipped_versions += 1,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use tashkent_common::Error;

    use super::*;

    #[test]
    fn round_trips_across_arbitrary_splits() {
        let payloads: Vec<Vec<u8>> = vec![vec![], vec![7], vec![0xAB; 1000]];
        let mut wire = Vec::new();
        for p in &payloads {
            wire.extend_from_slice(&encode_frame(p));
        }
        // Feed one byte at a time: partial frames must wait, never error.
        let mut reader = FrameReader::new();
        let mut out = Vec::new();
        for b in &wire {
            reader.push(&[*b]);
            while let Some(p) = reader.next_frame().unwrap() {
                out.push(p);
            }
        }
        assert_eq!(out, payloads);
        assert_eq!(reader.buffered(), 0);
    }

    #[test]
    fn corrupted_payload_is_a_typed_error() {
        let mut wire = encode_frame(b"hello");
        wire[12] ^= 0xFF;
        let mut reader = FrameReader::new();
        reader.push(&wire);
        assert!(matches!(reader.next_frame(), Err(Error::Corruption(_))));
    }

    #[test]
    fn bad_magic_is_a_protocol_error() {
        let mut wire = encode_frame(b"hello");
        wire[0] = b'X';
        let mut reader = FrameReader::new();
        reader.push(&wire);
        assert!(matches!(reader.next_frame(), Err(Error::Protocol(_))));
    }

    #[test]
    fn cross_version_frames_are_skipped_not_fatal() {
        let mut reader = FrameReader::new();
        reader.push(&encode_frame_with_version(b"from the future", 9));
        reader.push(&encode_frame(b"current"));
        assert_eq!(reader.next_frame().unwrap().unwrap(), b"current");
        assert_eq!(reader.skipped_versions(), 1);
    }

    #[test]
    fn implausible_length_is_corruption() {
        let mut wire = encode_frame(b"x");
        wire[6] = 0xFF; // length high byte -> ~4 GiB
        let mut reader = FrameReader::new();
        reader.push(&wire);
        assert!(matches!(reader.next_frame(), Err(Error::Corruption(_))));
    }
}
