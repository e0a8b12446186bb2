//! Mutation suite over every on-disk and wire format.
//!
//! Each golden sample of `codec_golden.txt` is truncated at every prefix,
//! has each byte XORed with 0xFF, has every 1-, 2- and 4-byte window set to
//! 0, n−1, n+1 and its maximum as if it were a length or count field n, and,
//! for TKNP, is sent at a skewed protocol version.  Trying every window is a
//! superset of the real length and count fields that needs no second parser
//! of each format.  After a window mutation every checksummed frame around
//! it is re-sealed, so the mutated bytes reach the decoder inside the frame
//! instead of stopping at the checksum.
//!
//! Every decode must return a value or a typed error — a panic fails the
//! test — and a counting global allocator holds each decode's peak
//! allocation to 64 × the input length + 64 KiB, so no hostile count can
//! make a decoder reserve memory the input does not back.

mod codec_formats;

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use bytes::Bytes;
use codec_formats::{decode, encode, samples, Decoded};
use tashkent_certifier::certifier::decode_checkpoint_payload;
use tashkent_common::codec::checksum;
use tashkent_common::{Error, Result};
use tashkent_net::{decode_message, FrameReader, PROTOCOL_VERSION};
use tashkent_storage::wal::WalRecord;

/// Counts, per thread, the bytes live on the heap and their high-water mark.
struct CountingAllocator;

thread_local! {
    static LIVE: Cell<usize> = const { Cell::new(0) };
    static PEAK: Cell<usize> = const { Cell::new(0) };
}

fn grew(bytes: usize) {
    let _ = LIVE.try_with(|live| {
        live.set(live.get() + bytes);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

fn shrank(bytes: usize) {
    let _ = LIVE.try_with(|live| live.set(live.get().saturating_sub(bytes)));
}

// SAFETY: every call is forwarded to the system allocator unchanged; the
// bookkeeping only touches const-initialised thread-locals, which never
// allocate.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let moved = System.realloc(ptr, layout, new_size);
        if !moved.is_null() {
            grew(new_size);
            shrank(layout.size());
        }
        moved
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Decodes `bytes` as sample `name`'s format, asserting the decode's peak
/// allocation stays within 64 × the input length + 64 KiB.
fn decode_bounded(name: &str, bytes: &[u8], mutation: &str) -> Result<Option<Decoded>> {
    let base = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(base));
    let decoded = decode(name, bytes);
    let peak = PEAK.with(Cell::get) - base;
    let bound = 64 * bytes.len() + (64 << 10);
    assert!(
        peak <= bound,
        "{name} ({mutation}): decode allocated {peak} bytes at peak, bound {bound}"
    );
    decoded
}

/// A checksummed frame inside a sample.
struct Seal {
    length_at: usize,
    /// `None`: the checksum follows the payload (TKNP).
    checksum_at: Option<usize>,
    payload_at: usize,
}

impl Seal {
    /// The payload and checksum bytes as the (possibly mutated) length
    /// field places them, or `None` if they run past the buffer.
    fn span(&self, bytes: &[u8]) -> Option<(std::ops::Range<usize>, usize)> {
        let length = u32::from_be_bytes(bytes.get(self.length_at..self.length_at + 4)?.try_into().ok()?);
        let payload = self.payload_at..self.payload_at.checked_add(length as usize)?;
        let checksum_at = self.checksum_at.unwrap_or(payload.end);
        (checksum_at + 4 <= bytes.len() && payload.end <= bytes.len()).then_some((payload, checksum_at))
    }
}

fn be_u32(bytes: &[u8], at: usize) -> usize {
    u32::from_be_bytes(bytes[at..at + 4].try_into().unwrap()) as usize
}

/// WAL record frames (`length ‖ checksum ‖ payload`) laid end to end in
/// `bytes[at..end]`.
fn wal_seals(bytes: &[u8], mut at: usize, end: usize) -> Vec<Seal> {
    let mut seals = Vec::new();
    while at + 8 <= end {
        seals.push(Seal {
            length_at: at,
            checksum_at: Some(at + 4),
            payload_at: at + 8,
        });
        at += 8 + be_u32(bytes, at);
    }
    seals
}

/// Every checksummed frame of sample `name`, outermost first.
fn seals(name: &str, bytes: &[u8]) -> Vec<Seal> {
    match name.split('_').next().unwrap() {
        "wal" => wal_seals(bytes, 0, bytes.len()),
        // The truncation floor, then WAL record frames.
        "certifier" => wal_seals(bytes, 8, bytes.len()),
        "tknp" => {
            let mut seals = vec![Seal {
                length_at: 6,
                checksum_at: None,
                payload_at: 10,
            }];
            if name == "tknp_state_transfer_response" {
                // Request id, tag and flag, then the checkpoint's length at
                // 20 and its floor at 24: its record frames start at 32.
                seals.extend(wal_seals(bytes, 32, 24 + be_u32(bytes, 20)));
            }
            seals
        }
        "tkcp" => vec![Seal {
            length_at: 12,
            checksum_at: Some(16),
            payload_at: 20,
        }],
        "tkmf" | "tkdp" => vec![Seal {
            length_at: 4,
            checksum_at: Some(8),
            payload_at: 12,
        }],
        _ => Vec::new(),
    }
}

/// Recomputes every frame's checksum, innermost first, over the payload its
/// length field now names.
fn reseal(bytes: &mut [u8], seals: &[Seal]) {
    for seal in seals.iter().rev() {
        if let Some((payload, checksum_at)) = seal.span(bytes) {
            let sum = checksum(&bytes[payload]);
            bytes[checksum_at..checksum_at + 4].copy_from_slice(&sum.to_be_bytes());
        }
    }
}

#[test]
fn every_truncation_is_a_typed_error_or_a_shorter_value() {
    for (name, bytes) in samples() {
        for cut in 0..bytes.len() {
            let result = decode_bounded(&name, &bytes[..cut], &format!("prefix {cut}"));
            let format = name.split('_').next().unwrap();
            match &result {
                Ok(Some(decoded)) => assert!(
                    matches!(format, "wal" | "certifier") && encode(decoded) != bytes,
                    "{name}: a {cut}-byte prefix decoded"
                ),
                Ok(None) => assert_eq!(format, "tknp", "{name}: prefix {cut}"),
                Err(_) => assert!(format != "wal", "{name}: a torn WAL tail is not an error"),
            }
        }
        // Inside the frame, a TKNP envelope admits no torn tail either.
        if name.starts_with("tknp") {
            let envelope = &bytes[10..bytes.len() - 4];
            for cut in 0..envelope.len() {
                let result = decode_message(&mut Bytes::copy_from_slice(&envelope[..cut]));
                assert!(
                    matches!(result, Err(Error::Corruption(_))),
                    "{name}: envelope prefix of {cut} bytes gave {result:?}"
                );
            }
        }
    }
}

#[test]
fn every_byte_flip_is_a_typed_error_or_a_value_and_the_frame_catches_it() {
    for (name, bytes) in samples() {
        let seals = seals(&name, &bytes);
        for at in 0..bytes.len() {
            let mut flipped = bytes.clone();
            flipped[at] ^= 0xFF;
            let result = decode_bounded(&name, &flipped, &format!("flip {at}"));
            let sealed = seals.iter().any(|seal| {
                seal.span(&bytes).is_some_and(|(payload, checksum_at)| {
                    payload.contains(&at) || (checksum_at..checksum_at + 4).contains(&at)
                })
            });
            if sealed {
                assert!(
                    matches!(result, Err(Error::Corruption(_))),
                    "{name}: flipping checksummed byte {at} was not caught"
                );
            }
        }
    }
}

#[test]
fn resealed_length_and_count_mutations_are_typed_errors_or_values() {
    for (name, bytes) in samples() {
        let seals = seals(&name, &bytes);
        for width in [1usize, 2, 4] {
            let max = u64::MAX >> (64 - 8 * width);
            for at in 0..=bytes.len() - width {
                let n = bytes[at..at + width]
                    .iter()
                    .fold(0u64, |n, &b| n << 8 | u64::from(b));
                for value in [0, n.wrapping_sub(1) & max, (n + 1) & max, max] {
                    let mut mutated = bytes.clone();
                    mutated[at..at + width].copy_from_slice(&value.to_be_bytes()[8 - width..]);
                    reseal(&mut mutated, &seals);
                    let _ = decode_bounded(&name, &mutated, &format!("u{} at {at} = {value}", 8 * width));
                }
            }
        }
    }
}

#[test]
fn frames_at_a_skewed_protocol_version_are_skipped() {
    for (name, bytes) in samples().into_iter().filter(|(n, _)| n.starts_with("tknp")) {
        for version in [0, PROTOCOL_VERSION + 1, u16::MAX] {
            let mut skewed = bytes.clone();
            skewed[4..6].copy_from_slice(&version.to_be_bytes());
            assert!(decode_bounded(&name, &skewed, "skew").unwrap().is_none(), "{name}");
            let mut reader = FrameReader::new();
            reader.push(&skewed);
            reader.push(&bytes);
            assert_eq!(reader.next_frame().unwrap().as_deref(), Some(&bytes[10..bytes.len() - 4]));
            assert_eq!(reader.skipped_versions(), 1, "{name} at version {version}");
        }
    }
}

/// A complete record frame around an empty payload — length 0, then the
/// checksum of nothing — has no record kind.
#[test]
fn a_complete_empty_wal_frame_is_corruption_not_a_panic() {
    let empty = [0, 0, 0, 0, 0x81, 0x1C, 0x9D, 0xC5];
    assert!(matches!(WalRecord::decode_all(&empty), Err(Error::Corruption(_))));
    let mut payload = 7u64.to_be_bytes().to_vec();
    payload.extend_from_slice(&empty);
    assert!(matches!(decode_checkpoint_payload(&payload), Err(Error::Corruption(_))));
}
