//! Sealed, versioned checkpoints with an atomic manifest pointer flip.
//!
//! A [`CheckpointStore`] holds the durable checkpoint images one replica (or
//! one certifier shard) writes periodically, generalising the fault
//! harness's one-shot baseline seal into a real checkpoint mechanism:
//!
//! * an **image** is a checksummed, versioned frame around an opaque payload
//!   (a [`DatabaseDump`](crate::dump::DatabaseDump) for replicas, an encoded
//!   log suffix for certifier shards), written to its own slot;
//! * the **manifest** is a tiny checksummed pointer record naming the
//!   current image.  Sealing writes the image first and flips the manifest
//!   last, so a crash mid-seal leaves the previous manifest (and therefore
//!   the previous intact checkpoint) in effect — a reader can observe the
//!   old checkpoint or the new one, never a half-written image;
//! * readers walk manifests newest-first and skip any manifest or image
//!   that fails validation, which is exactly the torn-write fallback.
//!
//! The store retains the newest few images so the fallback always has
//! somewhere to land, and log truncation can safely discard every record at
//! or below the newest *sealed* checkpoint's version.

use parking_lot::Mutex;
use tashkent_common::codec::{FrameLayout, Reader, Writer};
use tashkent_common::{Result, Version};

/// Sealed images (and manifests) retained per store: the current one, plus
/// fallbacks for torn seals.
const RETAINED: usize = 3;

/// One sealed checkpoint read back from the store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SealedCheckpoint {
    /// Monotonic seal sequence number (manifest flips, not versions).
    pub seq: u64,
    /// The version the image covers: all effects at or below it are inside.
    pub version: Version,
    /// The opaque checkpoint payload.
    pub payload: Vec<u8>,
}

/// A checkpoint image: `TKCP ‖ version u64 ‖ length ‖ checksum ‖ payload`.
pub const IMAGE: FrameLayout = FrameLayout::new("checkpoint image", b"TKCP", 8);
/// A manifest: `TKMF ‖ length ‖ checksum ‖ seq u64 ‖ slot u64 ‖ version u64`.
pub const MANIFEST: FrameLayout = FrameLayout::new("manifest", b"TKMF", 0);

/// Encodes a checkpoint image frame around `payload`, so a truncated or
/// bit-flipped image is always rejected.
#[must_use]
pub fn encode_image(version: Version, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + IMAGE.overhead());
    IMAGE.write(&mut out, version.0, |p| p.put_slice(payload));
    out
}

/// Decodes and validates a checkpoint image frame.
///
/// # Errors
///
/// Returns [`Protocol`](tashkent_common::Error::Protocol) on wrong magic and
/// [`Corruption`](tashkent_common::Error::Corruption) on any truncation,
/// stray bytes or a checksum mismatch.
pub fn decode_image(bytes: &[u8]) -> Result<(Version, Vec<u8>)> {
    let (version, payload) = IMAGE.read_image(bytes)?;
    Ok((Version(version), payload.to_vec()))
}

/// Encodes a manifest record pointing at slot `slot` holding a checkpoint
/// at `version`, sealed as flip number `seq`.
#[must_use]
pub fn encode_manifest(seq: u64, slot: u64, version: Version) -> Vec<u8> {
    let mut out = Vec::with_capacity(MANIFEST.overhead() + 24);
    MANIFEST.write(&mut out, 0, |body| {
        body.put_u64(seq);
        body.put_u64(slot);
        body.put_u64(version.0);
    });
    out
}

/// Decodes a manifest record into `(seq, slot, version)`.
///
/// # Errors
///
/// As for [`decode_image`].
pub fn decode_manifest(bytes: &[u8]) -> Result<(u64, u64, Version)> {
    let (_, body) = MANIFEST.read_image(bytes)?;
    let mut r = Reader::new(body);
    Ok((
        r.u64("manifest seq")?,
        r.u64("manifest slot")?,
        Version(r.u64("manifest version")?),
    ))
}

#[derive(Debug, Default)]
struct StoreInner {
    next_seq: u64,
    next_slot: u64,
    /// `(slot id, raw image bytes)`, oldest first.
    slots: Vec<(u64, Vec<u8>)>,
    /// Raw manifest writes, oldest first.  The newest *valid* one wins.
    manifests: Vec<Vec<u8>>,
}

/// Durable store of sealed checkpoint images behind a manifest pointer.
///
/// Cheap to share: every method takes `&self`.
#[derive(Debug, Default)]
pub struct CheckpointStore {
    inner: Mutex<StoreInner>,
}

impl CheckpointStore {
    /// Creates an empty store.
    #[must_use]
    pub fn new() -> Self {
        CheckpointStore::default()
    }

    /// Seals `payload` as a checkpoint covering `version`: writes the image
    /// to a fresh slot, then flips the manifest to point at it.  Returns the
    /// seal sequence number.
    pub fn seal(&self, version: Version, payload: &[u8]) -> u64 {
        let image = encode_image(version, payload);
        let mut inner = self.inner.lock();
        let slot = inner.next_slot;
        inner.next_slot += 1;
        inner.slots.push((slot, image));
        // The image is fully durable before the pointer flip: a torn write
        // can only affect the manifest, never expose a half image.
        let seq = inner.next_seq;
        inner.next_seq += 1;
        let manifest = encode_manifest(seq, slot, version);
        inner.manifests.push(manifest);
        Self::prune(&mut inner);
        seq
    }

    fn prune(inner: &mut StoreInner) {
        if inner.manifests.len() > RETAINED {
            let excess = inner.manifests.len() - RETAINED;
            inner.manifests.drain(0..excess);
        }
        if inner.slots.len() > RETAINED {
            let excess = inner.slots.len() - RETAINED;
            inner.slots.drain(0..excess);
        }
    }

    /// Every intact retained checkpoint, newest manifest first: manifests
    /// and images that fail validation are skipped.
    fn intact(inner: &StoreInner) -> impl Iterator<Item = SealedCheckpoint> + '_ {
        inner.manifests.iter().rev().filter_map(|raw| {
            let (seq, slot, version) = decode_manifest(raw).ok()?;
            let (_, image) = inner.slots.iter().find(|(id, _)| *id == slot)?;
            let (image_version, payload) = decode_image(image).ok()?;
            (image_version == version).then_some(SealedCheckpoint {
                seq,
                version,
                payload,
            })
        })
    }

    /// The newest intact sealed checkpoint, falling back across torn or
    /// corrupt manifests and images.  `None` if no intact checkpoint exists.
    #[must_use]
    pub fn latest(&self) -> Option<SealedCheckpoint> {
        Self::intact(&self.inner.lock()).next()
    }

    /// The version of the newest intact sealed checkpoint, or
    /// [`Version::ZERO`] if none has been sealed — the value this store
    /// contributes to the truncation watermark.
    #[must_use]
    pub fn latest_version(&self) -> Version {
        self.latest().map_or(Version::ZERO, |cp| cp.version)
    }

    /// The intact checkpoint covering the highest version — the recovery
    /// image.  Usually the newest one, but two racing seals can flip the
    /// manifest to a lower version after a higher one.
    #[must_use]
    pub fn best(&self) -> Option<SealedCheckpoint> {
        Self::intact(&self.inner.lock()).max_by_key(|cp| (cp.version, cp.seq))
    }

    /// Test hook: appends a raw (possibly torn or corrupt) manifest write,
    /// simulating a crash mid-flip.
    pub fn install_raw_manifest(&self, bytes: Vec<u8>) {
        let mut inner = self.inner.lock();
        inner.manifests.push(bytes);
        Self::prune(&mut inner);
    }

    /// Test hook: appends a raw image slot without flipping the manifest,
    /// returning its slot id — half of a simulated interrupted seal.
    pub fn install_raw_slot(&self, bytes: Vec<u8>) -> u64 {
        let mut inner = self.inner.lock();
        let slot = inner.next_slot;
        inner.next_slot += 1;
        inner.slots.push((slot, bytes));
        Self::prune(&mut inner);
        slot
    }

    /// Test hook: the next manifest sequence number.
    #[must_use]
    pub fn next_seq(&self) -> u64 {
        self.inner.lock().next_seq
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seal_and_read_back_round_trips() {
        let store = CheckpointStore::new();
        assert!(store.latest().is_none());
        assert_eq!(store.latest_version(), Version::ZERO);
        store.seal(Version(7), b"payload seven");
        let cp = store.latest().unwrap();
        assert_eq!(cp.version, Version(7));
        assert_eq!(cp.payload, b"payload seven");
        store.seal(Version(12), b"payload twelve");
        assert_eq!(store.latest_version(), Version(12));
        assert_eq!(store.latest().unwrap().payload, b"payload twelve");
        // A racing seal flips the manifest back to a lower version: it is
        // the latest, but the best image is still twelve.
        store.seal(Version(9), b"payload nine");
        assert_eq!(store.latest_version(), Version(9));
        assert_eq!(store.best().unwrap().payload, b"payload twelve");
    }

    #[test]
    fn image_codec_rejects_every_truncation_and_corruption() {
        let full = encode_image(Version(42), b"the checkpointed state");
        let (version, payload) = decode_image(&full).unwrap();
        assert_eq!(version, Version(42));
        assert_eq!(payload, b"the checkpointed state");
        for cut in 0..full.len() {
            assert!(
                decode_image(&full[..cut]).is_err(),
                "decoded a truncated image of {cut} bytes"
            );
        }
        let mut flipped = full.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x40;
        assert!(decode_image(&flipped).is_err());
        let mut wrong_magic = full;
        wrong_magic[0] = b'X';
        assert!(decode_image(&wrong_magic).is_err());
    }

    #[test]
    fn torn_manifest_falls_back_to_previous_sealed_checkpoint() {
        let store = CheckpointStore::new();
        store.seal(Version(10), b"good ten");
        // A crash mid-flip: the new image may or may not have landed, the
        // manifest write is torn.  Reads must land on version 10 intact.
        let slot = store.install_raw_slot(encode_image(Version(20), b"good twenty"));
        let manifest = encode_manifest(store.next_seq(), slot, Version(20));
        store.install_raw_manifest(manifest[..manifest.len() / 2].to_vec());
        let cp = store.latest().unwrap();
        assert_eq!(cp.version, Version(10));
        assert_eq!(cp.payload, b"good ten");
    }

    #[test]
    fn manifest_pointing_at_a_torn_image_falls_back_too() {
        let store = CheckpointStore::new();
        store.seal(Version(10), b"good ten");
        // Manifest flip completed but the image itself is torn (out-of-order
        // write surfaced by a crash): fall back, never expose half an image.
        let image = encode_image(Version(20), b"good twenty");
        let slot = store.install_raw_slot(image[..image.len() - 3].to_vec());
        store.install_raw_manifest(encode_manifest(store.next_seq(), slot, Version(20)));
        assert_eq!(store.latest().unwrap().version, Version(10));
        // A subsequent intact seal takes over again.
        store.seal(Version(30), b"good thirty");
        assert_eq!(store.latest().unwrap().version, Version(30));
    }

    #[test]
    fn retention_keeps_a_bounded_number_of_images() {
        let store = CheckpointStore::new();
        for v in 1..=10u64 {
            store.seal(Version(v), format!("payload {v}").as_bytes());
        }
        assert_eq!(store.latest_version(), Version(10));
        let inner = store.inner.lock();
        assert_eq!(inner.slots.len(), RETAINED);
        assert_eq!(CheckpointStore::intact(&inner).count(), RETAINED);
    }
}
