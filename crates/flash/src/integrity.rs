//! End-to-end integrity primitives: CRC32 over canonical encodings of
//! page content.
//!
//! The simulator stores content *tags* instead of raw bytes, so checksums
//! are computed over a **canonical little-endian encoding** of each
//! mapping-unit payload and each OOB record. The seal of a stored unit or
//! OOB record is the checksum of what was programmed, and it detects any
//! later mutation of the tags — the corruption injectors flip tag bits
//! and keep the programmed checksum (the page store's seal log), exactly
//! like retention bit-rot flips cells under a stale ECC word. Nothing
//! else changes a stored bit, so a slot no injector touched needs no
//! stored checksum.
//!
//! The CRC is the reflected CRC-32 (polynomial `0xEDB8_8320`), stepped
//! bit by bit from the polynomial: eight branch-free shift-xor steps per
//! byte, no table and no indexing, so nothing here can panic. A checksum
//! is computed only when the page store logs a slot (one an injector
//! changes, or one too wide for its record) and when a read, scrub or
//! rebuild meets such a slot — thousands in a whole
//! `chaos` sweep, none in a run without injected corruption — so the
//! CRC's speed decides no measured time. Each canonical encoding is
//! written once, as a function that hands its little-endian fields to a
//! sink: a `Vec` for [`encode_unit_into`] / [`encode_oob_into`], a
//! [`Crc32`] for the checksums, which therefore never allocate. A
//! single-bit flip anywhere in an encoded record is always detected —
//! CRCs catch every 1-bit error by construction — and the property suite
//! in `tests/prop_flash.rs` pins that end to end.

use crate::content::{Fragment, OobEntry, OobKind, UnitPayload};

/// Reflected CRC-32 polynomial (IEEE 802.3).
const POLY: u32 = 0xEDB8_8320;

/// Incremental CRC-32 state.
///
/// # Examples
///
/// ```
/// use checkin_flash::Crc32;
///
/// let mut c = Crc32::new();
/// c.update(b"check-in");
/// let a = c.finish();
/// assert_eq!(a, checkin_flash::crc32(b"check-in"));
/// assert_ne!(a, checkin_flash::crc32(b"check-im"));
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Crc32 {
    state: u32,
}

impl Crc32 {
    /// Fresh state (all-ones preset, per the standard).
    pub fn new() -> Self {
        Crc32 { state: 0xFFFF_FFFF }
    }

    /// Folds `bytes` into the state, low bit first: each step shifts one
    /// bit out and xors in `POLY` when it was set.
    pub fn update(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.state ^= u32::from(byte);
            for _ in 0..8 {
                let mask = (self.state & 1).wrapping_neg();
                self.state = (self.state >> 1) ^ (POLY & mask);
            }
        }
    }

    /// Final checksum (state complemented, per the standard).
    pub fn finish(self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

/// One-shot CRC-32 of a byte slice.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(bytes);
    c.finish()
}

/// Stable one-byte code for an [`OobKind`] in the canonical encoding —
/// also the byte the page store keeps for it.
pub(crate) fn oob_kind_code(kind: OobKind) -> u8 {
    match kind {
        OobKind::Journal => 0,
        OobKind::Data => 1,
        OobKind::Meta => 2,
        OobKind::GcCopy => 3,
    }
}

/// The kind a stored code byte reads back as. Only the low two bits
/// decode, so a rotted byte still names *some* kind — and fails its
/// checksum, which covers the whole byte ([`oob_record_checksum`]).
pub(crate) fn oob_kind_from_code(code: u8) -> OobKind {
    match code & 3 {
        0 => OobKind::Journal,
        1 => OobKind::Data,
        2 => OobKind::Meta,
        _ => OobKind::GcCopy,
    }
}

/// The canonical encoding of a unit payload, handed to `put` field by
/// field: fragment count, then `(key, version, bytes)` per fragment, all
/// little-endian.
fn encode_fragments(
    count: u32,
    fragments: impl Iterator<Item = Fragment>,
    mut put: impl FnMut(&[u8]),
) {
    put(&count.to_le_bytes());
    for f in fragments {
        put(&f.key.to_le_bytes());
        put(&f.version.to_le_bytes());
        put(&f.bytes.to_le_bytes());
    }
}

/// The canonical encoding of an OOB record, handed to `put` field by
/// field: `(lpn, sequence, kind code)`, little-endian.
fn encode_oob(lpn: u64, sequence: u64, kind_code: u8, mut put: impl FnMut(&[u8])) {
    put(&lpn.to_le_bytes());
    put(&sequence.to_le_bytes());
    put(&[kind_code]);
}

/// Appends the canonical encoding of a unit payload to `out`.
pub fn encode_unit_into(unit: &UnitPayload, out: &mut Vec<u8>) {
    encode_fragments(fragment_count(unit), unit.fragments.iter().copied(), |b| {
        out.extend_from_slice(b)
    });
}

/// Appends the canonical encoding of an OOB record to `out`.
pub fn encode_oob_into(entry: &OobEntry, out: &mut Vec<u8>) {
    encode_oob(entry.lpn, entry.sequence, oob_kind_code(entry.kind), |b| {
        out.extend_from_slice(b)
    });
}

/// Checksum of a unit payload — streams the canonical encoding through
/// the CRC without allocating.
pub fn unit_checksum(unit: &UnitPayload) -> u32 {
    fragments_checksum(fragment_count(unit), unit.fragments.iter().copied())
}

/// The fragment count as encoded (a `u32`). A merged unit holds a
/// handful of fragments; the page store refuses a unit of more than
/// `u16::MAX` before anything is stored, so the saturation never decides
/// a checksum of a stored unit.
fn fragment_count(unit: &UnitPayload) -> u32 {
    u32::try_from(unit.fragments.len()).unwrap_or(u32::MAX)
}

/// [`unit_checksum`] over a fragment count and the fragments themselves:
/// the page store verifies a stored unit against the count it *stores*,
/// so a rotted count fails like any other field.
pub(crate) fn fragments_checksum(count: u32, fragments: impl Iterator<Item = Fragment>) -> u32 {
    let mut c = Crc32::new();
    encode_fragments(count, fragments, |b| c.update(b));
    c.finish()
}

/// Checksum of an OOB record (allocation-free).
pub fn oob_checksum(entry: &OobEntry) -> u32 {
    oob_record_checksum(entry.lpn, entry.sequence, oob_kind_code(entry.kind))
}

/// [`oob_checksum`] over the stored fields, kind as its code byte.
pub(crate) fn oob_record_checksum(lpn: u64, sequence: u64, kind_code: u8) -> u32 {
    let mut c = Crc32::new();
    encode_oob(lpn, sequence, kind_code, |b| c.update(b));
    c.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc_matches_known_vector() {
        // The canonical CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn checksums_are_pinned() {
        // Values `zlib.crc32` gives over the same little-endian bytes:
        // a change of polynomial, bit order or encoding shows here.
        let fragment = |key, version, bytes| Fragment {
            key,
            version,
            bytes,
        };
        let merged = UnitPayload::merged(vec![
            fragment(7, 3, 512),
            fragment(0x0123_4567_89AB_CDEF, 0xFFFF_FFFF_0000_0001, 100),
            fragment(u64::MAX - 1, 1, 4096),
        ]);
        assert_eq!(unit_checksum(&merged), 0xD6EA_2C5B);
        assert_eq!(unit_checksum(&UnitPayload::single(7, 3, 512)), 0xB7BA_0F0A);
        let oob = OobEntry {
            lpn: 0x0123_4567_89AB_CDEF,
            sequence: 42,
            kind: OobKind::GcCopy,
        };
        assert_eq!(oob_checksum(&oob), 0x2D74_B829);
    }

    #[test]
    fn streaming_matches_one_shot() {
        let mut c = Crc32::new();
        c.update(b"12345");
        c.update(b"6789");
        assert_eq!(c.finish(), crc32(b"123456789"));
    }

    #[test]
    fn unit_checksum_matches_encoding() {
        let u = UnitPayload::single(7, 3, 512);
        let mut buf = Vec::new();
        encode_unit_into(&u, &mut buf);
        assert_eq!(unit_checksum(&u), crc32(&buf));
    }

    #[test]
    fn oob_checksum_matches_encoding() {
        let e = OobEntry {
            lpn: 42,
            sequence: 9,
            kind: OobKind::GcCopy,
        };
        let mut buf = Vec::new();
        encode_oob_into(&e, &mut buf);
        assert_eq!(oob_checksum(&e), crc32(&buf));
    }

    #[test]
    fn kind_codes_are_distinct() {
        let kinds = [
            OobKind::Journal,
            OobKind::Data,
            OobKind::Meta,
            OobKind::GcCopy,
        ];
        for (i, a) in kinds.iter().enumerate() {
            for b in kinds.iter().skip(i + 1) {
                let (ea, eb) = (
                    OobEntry {
                        lpn: 1,
                        sequence: 1,
                        kind: *a,
                    },
                    OobEntry {
                        lpn: 1,
                        sequence: 1,
                        kind: *b,
                    },
                );
                assert_ne!(oob_checksum(&ea), oob_checksum(&eb));
            }
        }
    }
}
