//! The one binary codec every on-disk and wire format is built from: WAL
//! records, certifier checkpoints, checkpoint images and manifests, dumps,
//! TKNP frames, metrics snapshots and diagnostic bundles.  Only this module
//! knows the byte-level rules: the [`checksum`], big-endian [`Writer`]
//! appends, checked [`Reader`] reads — a torn or hostile buffer is a typed
//! error naming the field, never a panic, and [`Reader::count`] bounds every
//! count-driven pre-allocation by the bytes that remain — and the one
//! checksummed [`FrameLayout`].

use crate::{Error, Result};

/// A 32-bit FNV-1a checksum over a byte slice, used to detect torn writes
/// and corrupted frames.
#[must_use]
pub fn checksum(bytes: &[u8]) -> u32 {
    let mut hash: u32 = 0x811C_9DC5;
    for &b in bytes {
        hash ^= u32::from(b);
        hash = hash.wrapping_mul(0x0100_0193);
    }
    hash
}

macro_rules! put_be {
    ($($put:ident: $ty:ident),*) => {$(
        #[doc = concat!("Appends a big-endian `", stringify!($ty), "`.")]
        fn $put(&mut self, v: $ty) {
            self.put_slice(&v.to_be_bytes());
        }
    )*};
}

/// Big-endian appends to a byte buffer.
pub trait Writer {
    /// Appends raw bytes.
    fn put_slice(&mut self, bytes: &[u8]);

    put_be!(put_u8: u8, put_u16: u16, put_u32: u32, put_u64: u64, put_i64: i64, put_f64: f64, put_u128: u128);

    /// Appends a string behind a `u16` length.
    fn put_str16(&mut self, s: &str) {
        self.put_u16(s.len() as u16);
        self.put_slice(s.as_bytes());
    }

    /// Appends bytes behind a `u32` length.
    fn put_bytes32(&mut self, bytes: &[u8]) {
        self.put_u32(bytes.len() as u32);
        self.put_slice(bytes);
    }
}

impl Writer for Vec<u8> {
    fn put_slice(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
}

/// A checked big-endian cursor over a byte slice.
///
/// Every read names the field it reads (`what`) and fails with
/// [`Error::Corruption`] — `truncated dump row count: need 4 bytes, 1
/// remaining` — if the buffer is too short or, for strings, not UTF-8.
#[derive(Debug, Clone, Copy)]
pub struct Reader<'a> {
    bytes: &'a [u8],
    at: usize,
}

macro_rules! read_be {
    ($($ty:ident),*) => {$(
        #[doc = concat!("Reads a big-endian `", stringify!($ty), "`.")]
        pub fn $ty(&mut self, what: &str) -> Result<$ty> {
            const N: usize = std::mem::size_of::<$ty>();
            let mut raw = [0; N];
            raw.copy_from_slice(self.bytes(N, what)?);
            Ok($ty::from_be_bytes(raw))
        }
    )*};
}

impl<'a> Reader<'a> {
    /// A reader at the start of `bytes`.
    #[must_use]
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, at: 0 }
    }

    /// Bytes not yet read.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.at
    }

    /// `true` once every byte has been read.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Bytes read so far.
    #[must_use]
    pub fn consumed(&self) -> usize {
        self.at
    }

    /// Reads the next `len` bytes.
    pub fn bytes(&mut self, len: usize, what: &str) -> Result<&'a [u8]> {
        if self.remaining() < len {
            return Err(Error::Corruption(format!(
                "truncated {what}: need {len} bytes, {} remaining",
                self.remaining()
            )));
        }
        self.at += len;
        Ok(&self.bytes[self.at - len..self.at])
    }

    read_be!(u8, u16, u32, u64, i64, f64, u128);

    /// Reads bytes behind a `u32` length.
    pub fn bytes32(&mut self, what: &str) -> Result<&'a [u8]> {
        let len = self.u32(what)? as usize;
        self.bytes(len, what)
    }

    /// Reads a UTF-8 string behind a `u16` length.
    pub fn str16(&mut self, what: &str) -> Result<String> {
        let len = self.u16(what)? as usize;
        utf8(self.bytes(len, what)?, what)
    }

    /// Reads a UTF-8 string behind a `u32` length.
    pub fn str32(&mut self, what: &str) -> Result<String> {
        let bytes = self.bytes32(what)?;
        utf8(bytes, what)
    }

    /// The capacity to reserve for `n` items read from the rest of the
    /// buffer: every item takes at least one byte, so never more than the
    /// bytes that remain, whatever `n` a corrupt count field claims.
    #[must_use]
    pub fn count(&self, n: usize) -> usize {
        n.min(self.remaining())
    }

    /// Reads `n` items with `item` into a vector of [`Reader::count`] slots,
    /// stopping at the first error.
    pub fn vec<T>(&mut self, n: usize, mut item: impl FnMut(&mut Self) -> Result<T>) -> Result<Vec<T>> {
        let mut out = Vec::with_capacity(self.count(n));
        for _ in 0..n {
            out.push(item(self)?);
        }
        Ok(out)
    }
}

fn utf8(bytes: &[u8], what: &str) -> Result<String> {
    String::from_utf8(bytes.to_vec())
        .map_err(|_| Error::Corruption(format!("invalid utf-8 in {what}")))
}

/// Where a checksummed frame puts its fields.
///
/// A frame is `magic ‖ header ‖ length u32 ‖ checksum u32 ‖ payload`, or
/// with `trailing_checksum` `magic ‖ header ‖ length ‖ payload ‖ checksum`.
/// `magic` may be empty (WAL records); `header` is an unsigned big-endian
/// integer of `header_bytes` bytes, 0 to 8 (a checkpoint image's version,
/// TKNP's protocol version).  The checksum covers the payload only.
#[derive(Debug, Clone, Copy)]
pub struct FrameLayout {
    /// The format's name in error messages.
    pub name: &'static str,
    /// Bytes every frame starts with.
    pub magic: &'static [u8],
    /// Width of the header field, 0 to 8 bytes.
    pub header_bytes: usize,
    /// `true` if the checksum follows the payload instead of the length.
    pub trailing_checksum: bool,
    /// Longest payload accepted; a longer length field is corruption.
    pub max_payload: usize,
}

impl FrameLayout {
    /// A layout with the checksum before the payload and no length cap
    /// beyond `u32`.
    #[must_use]
    pub const fn new(name: &'static str, magic: &'static [u8], header_bytes: usize) -> Self {
        let max_payload = u32::MAX as usize;
        FrameLayout { name, magic, header_bytes, trailing_checksum: false, max_payload }
    }

    /// Frame bytes besides the payload.
    #[must_use]
    pub const fn overhead(&self) -> usize {
        self.magic.len() + self.header_bytes + 8
    }

    /// Appends to `out` one frame around the payload `payload` appends.
    pub fn write(&self, out: &mut Vec<u8>, header: u64, payload: impl FnOnce(&mut Vec<u8>)) {
        out.put_slice(self.magic);
        out.put_slice(&header.to_be_bytes()[8 - self.header_bytes..]);
        let length_at = out.len();
        out.resize(length_at + if self.trailing_checksum { 4 } else { 8 }, 0);
        let start = out.len();
        payload(out);
        let sum = checksum(&out[start..]).to_be_bytes();
        let length = (out.len() - start) as u32;
        out[length_at..length_at + 4].copy_from_slice(&length.to_be_bytes());
        if self.trailing_checksum {
            out.put_slice(&sum);
        } else {
            out[length_at + 4..start].copy_from_slice(&sum);
        }
    }

    /// Reads one frame from the front of `r`, advancing past it, and returns
    /// its header and payload — or `None`, leaving `r` where it was, when
    /// `r` holds only the start of a frame.
    ///
    /// # Errors
    ///
    /// [`Error::Protocol`] if the bytes do not start with the magic (they
    /// are not this format at all); [`Error::Corruption`] if the length
    /// exceeds `max_payload` or the payload fails its checksum.
    pub fn read<'a>(&self, r: &mut Reader<'a>) -> Result<Option<(u64, &'a [u8])>> {
        if r.remaining() < self.overhead() {
            return Ok(None);
        }
        let mut frame = *r;
        let magic = frame.bytes(self.magic.len(), "frame magic")?;
        if magic != self.magic {
            let expected = self.magic;
            return Err(Error::Protocol(format!(
                "not a {} frame: magic {magic:02x?}, expected {expected:02x?}",
                self.name
            )));
        }
        let mut header = [0; 8];
        header[8 - self.header_bytes..].copy_from_slice(frame.bytes(self.header_bytes, "header")?);
        let length = frame.u32("frame length")? as usize;
        if length > self.max_payload {
            let (name, max) = (self.name, self.max_payload);
            return Err(Error::Corruption(format!(
                "{name} frame length {length} exceeds the {max}-byte maximum"
            )));
        }
        if frame.remaining() < length + 4 {
            return Ok(None);
        }
        let (stored, payload) = if self.trailing_checksum {
            let payload = frame.bytes(length, "frame payload")?;
            (frame.u32("frame checksum")?, payload)
        } else {
            (frame.u32("frame checksum")?, frame.bytes(length, "frame payload")?)
        };
        let computed = checksum(payload);
        if stored != computed {
            return Err(Error::Corruption(format!(
                "{} frame checksum mismatch: stored {stored:#010x}, computed {computed:#010x}",
                self.name
            )));
        }
        *r = frame;
        Ok(Some((u64::from_be_bytes(header), payload)))
    }

    /// Reads an image that must be exactly one complete frame.
    ///
    /// # Errors
    ///
    /// As for [`FrameLayout::read`], plus [`Error::Corruption`] if the frame
    /// is truncated or followed by stray bytes.
    pub fn read_image<'a>(&self, bytes: &'a [u8]) -> Result<(u64, &'a [u8])> {
        let mut r = Reader::new(bytes);
        match self.read(&mut r)? {
            Some(frame) if r.is_empty() => Ok(frame),
            _ => Err(Error::Corruption(format!("truncated or overlong {} image", self.name))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FRONT: FrameLayout = FrameLayout::new("front", b"FRNT", 8);
    const TRAILING: FrameLayout = FrameLayout {
        trailing_checksum: true,
        max_payload: 16,
        ..FrameLayout::new("trailing", b"TR", 2)
    };

    #[test]
    fn checksum_detects_single_bit_flips() {
        let data = b"the quick brown fox";
        let c = checksum(data);
        let mut flipped = data.to_vec();
        flipped[3] ^= 0x01;
        assert_ne!(c, checksum(&flipped));
        assert_eq!(c, checksum(data));
        assert_eq!(checksum(b""), 0x811C_9DC5);
    }

    #[test]
    fn primitives_round_trip_and_short_reads_name_the_field() {
        let mut out = Vec::new();
        out.put_u8(7);
        out.put_u16(0xBEEF);
        out.put_i64(-3);
        out.put_f64(2.5);
        out.put_u128(u128::MAX - 1);
        out.put_str16("héllo");
        out.put_bytes32(b"raw");
        let mut r = Reader::new(&out);
        assert_eq!(r.u8("a").unwrap(), 7);
        assert_eq!(r.u16("b").unwrap(), 0xBEEF);
        assert_eq!(r.i64("c").unwrap(), -3);
        assert_eq!(r.f64("d").unwrap(), 2.5);
        assert_eq!(r.u128("e").unwrap(), u128::MAX - 1);
        assert_eq!(r.str16("f").unwrap(), "héllo");
        assert_eq!(r.str32("g").unwrap(), "raw");
        assert!(r.is_empty());
        assert_eq!(r.consumed(), out.len());
        let err = Reader::new(&[1, 2]).u32("row count").unwrap_err();
        assert_eq!(
            err,
            Error::Corruption("truncated row count: need 4 bytes, 2 remaining".into())
        );
        assert!(matches!(
            Reader::new(&[0, 1, 0xFF]).str16("name"),
            Err(Error::Corruption(_))
        ));
    }

    #[test]
    fn count_is_bounded_by_the_remaining_bytes() {
        let r = Reader::new(&[0; 10]);
        assert_eq!(r.count(3), 3);
        assert_eq!(r.count(u32::MAX as usize), 10);
        let mut r = Reader::new(&[1, 2]);
        assert!(r.vec(u32::MAX as usize, |r| r.u8("item")).is_err());
    }

    #[test]
    fn frames_round_trip_in_both_layouts() {
        for layout in [FRONT, TRAILING] {
            let mut wire = Vec::new();
            layout.write(&mut wire, 9, |p| p.put_slice(b"abc"));
            layout.write(&mut wire, 1, |_| {});
            assert_eq!(wire.len(), 2 * layout.overhead() + 3);
            let mut r = Reader::new(&wire);
            assert_eq!(layout.read(&mut r).unwrap(), Some((9, &b"abc"[..])));
            assert_eq!(layout.read(&mut r).unwrap(), Some((1, &b""[..])));
            assert_eq!(layout.read(&mut r).unwrap(), None);
            for cut in 0..layout.overhead() + 3 {
                let mut r = Reader::new(&wire[..cut]);
                assert_eq!(layout.read(&mut r).unwrap(), None, "prefix of {cut} bytes");
                assert_eq!(r.consumed(), 0);
                assert!(layout.read_image(&wire[..cut]).is_err());
            }
        }
        let mut wire = Vec::new();
        FRONT.write(&mut wire, 0, |p| p.put_slice(b"xyz"));
        let last = wire.len() - 1;
        wire[last] ^= 1;
        assert!(matches!(FRONT.read_image(&wire), Err(Error::Corruption(_))));
        wire[0] = b'X';
        assert!(matches!(FRONT.read_image(&wire), Err(Error::Protocol(_))));
    }

    #[test]
    fn lengths_above_the_cap_are_corruption() {
        let mut wire = Vec::new();
        TRAILING.write(&mut wire, 0, |p| p.put_slice(&[0; 17]));
        assert!(matches!(
            TRAILING.read(&mut Reader::new(&wire)),
            Err(Error::Corruption(_))
        ));
    }
}
