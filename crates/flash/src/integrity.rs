//! End-to-end integrity primitives: CRC32 over canonical encodings of
//! page content.
//!
//! The simulator stores content *tags* instead of raw bytes, so checksums
//! are computed over a **canonical little-endian encoding** of each
//! mapping-unit payload and each OOB record. A checksum sealed at program
//! time detects any later mutation of the tags — the corruption injectors
//! flip tag bits without resealing, exactly like retention bit-rot flips
//! cells under a stale ECC word.
//!
//! The CRC is the reflected CRC-32 (polynomial `0xEDB8_8320`), computed
//! bytewise through a literal 256-entry table: checksum sealing rides
//! every flash program and verification rides every read, so the table
//! form matters (~8x over the bit-at-a-time loop on the query hot loop).
//! Every recovery and scrub path leans on this file, and the crate
//! denies `clippy::indexing_slicing`, so lookups go through `get` +
//! `unwrap_or` — no indexing, no `unwrap`, and no panic path at all. A
//! single-bit flip anywhere in an encoded record is
//! always detected — CRCs catch every 1-bit error by construction — and
//! the property suite in `tests/prop_flash.rs` pins that end to end.

use crate::content::{Fragment, OobEntry, OobKind, UnitPayload};

/// Reflected CRC-32 polynomial (IEEE 802.3). Outside of tests the
/// polynomial lives on only through [`CRC_TABLE`]; the
/// `table_is_the_polynomial_recurrence` test re-derives the table from
/// it entry by entry.
#[cfg_attr(not(test), allow(dead_code))]
const POLY: u32 = 0xEDB8_8320;

/// Bytewise lookup table for [`POLY`]: entry `i` is the CRC step of the
/// single byte `i`. Spelled out as literals (rather than built by a
/// `const fn`) so this recovery-critical file stays free of array
/// indexing even at construction; `table_is_the_polynomial_recurrence`
/// below re-derives every entry from `POLY`.
const CRC_TABLE: [u32; 256] = [
    0x00000000, 0x77073096, 0xEE0E612C, 0x990951BA, 0x076DC419, 0x706AF48F, 0xE963A535, 0x9E6495A3,
    0x0EDB8832, 0x79DCB8A4, 0xE0D5E91E, 0x97D2D988, 0x09B64C2B, 0x7EB17CBD, 0xE7B82D07, 0x90BF1D91,
    0x1DB71064, 0x6AB020F2, 0xF3B97148, 0x84BE41DE, 0x1ADAD47D, 0x6DDDE4EB, 0xF4D4B551, 0x83D385C7,
    0x136C9856, 0x646BA8C0, 0xFD62F97A, 0x8A65C9EC, 0x14015C4F, 0x63066CD9, 0xFA0F3D63, 0x8D080DF5,
    0x3B6E20C8, 0x4C69105E, 0xD56041E4, 0xA2677172, 0x3C03E4D1, 0x4B04D447, 0xD20D85FD, 0xA50AB56B,
    0x35B5A8FA, 0x42B2986C, 0xDBBBC9D6, 0xACBCF940, 0x32D86CE3, 0x45DF5C75, 0xDCD60DCF, 0xABD13D59,
    0x26D930AC, 0x51DE003A, 0xC8D75180, 0xBFD06116, 0x21B4F4B5, 0x56B3C423, 0xCFBA9599, 0xB8BDA50F,
    0x2802B89E, 0x5F058808, 0xC60CD9B2, 0xB10BE924, 0x2F6F7C87, 0x58684C11, 0xC1611DAB, 0xB6662D3D,
    0x76DC4190, 0x01DB7106, 0x98D220BC, 0xEFD5102A, 0x71B18589, 0x06B6B51F, 0x9FBFE4A5, 0xE8B8D433,
    0x7807C9A2, 0x0F00F934, 0x9609A88E, 0xE10E9818, 0x7F6A0DBB, 0x086D3D2D, 0x91646C97, 0xE6635C01,
    0x6B6B51F4, 0x1C6C6162, 0x856530D8, 0xF262004E, 0x6C0695ED, 0x1B01A57B, 0x8208F4C1, 0xF50FC457,
    0x65B0D9C6, 0x12B7E950, 0x8BBEB8EA, 0xFCB9887C, 0x62DD1DDF, 0x15DA2D49, 0x8CD37CF3, 0xFBD44C65,
    0x4DB26158, 0x3AB551CE, 0xA3BC0074, 0xD4BB30E2, 0x4ADFA541, 0x3DD895D7, 0xA4D1C46D, 0xD3D6F4FB,
    0x4369E96A, 0x346ED9FC, 0xAD678846, 0xDA60B8D0, 0x44042D73, 0x33031DE5, 0xAA0A4C5F, 0xDD0D7CC9,
    0x5005713C, 0x270241AA, 0xBE0B1010, 0xC90C2086, 0x5768B525, 0x206F85B3, 0xB966D409, 0xCE61E49F,
    0x5EDEF90E, 0x29D9C998, 0xB0D09822, 0xC7D7A8B4, 0x59B33D17, 0x2EB40D81, 0xB7BD5C3B, 0xC0BA6CAD,
    0xEDB88320, 0x9ABFB3B6, 0x03B6E20C, 0x74B1D29A, 0xEAD54739, 0x9DD277AF, 0x04DB2615, 0x73DC1683,
    0xE3630B12, 0x94643B84, 0x0D6D6A3E, 0x7A6A5AA8, 0xE40ECF0B, 0x9309FF9D, 0x0A00AE27, 0x7D079EB1,
    0xF00F9344, 0x8708A3D2, 0x1E01F268, 0x6906C2FE, 0xF762575D, 0x806567CB, 0x196C3671, 0x6E6B06E7,
    0xFED41B76, 0x89D32BE0, 0x10DA7A5A, 0x67DD4ACC, 0xF9B9DF6F, 0x8EBEEFF9, 0x17B7BE43, 0x60B08ED5,
    0xD6D6A3E8, 0xA1D1937E, 0x38D8C2C4, 0x4FDFF252, 0xD1BB67F1, 0xA6BC5767, 0x3FB506DD, 0x48B2364B,
    0xD80D2BDA, 0xAF0A1B4C, 0x36034AF6, 0x41047A60, 0xDF60EFC3, 0xA867DF55, 0x316E8EEF, 0x4669BE79,
    0xCB61B38C, 0xBC66831A, 0x256FD2A0, 0x5268E236, 0xCC0C7795, 0xBB0B4703, 0x220216B9, 0x5505262F,
    0xC5BA3BBE, 0xB2BD0B28, 0x2BB45A92, 0x5CB36A04, 0xC2D7FFA7, 0xB5D0CF31, 0x2CD99E8B, 0x5BDEAE1D,
    0x9B64C2B0, 0xEC63F226, 0x756AA39C, 0x026D930A, 0x9C0906A9, 0xEB0E363F, 0x72076785, 0x05005713,
    0x95BF4A82, 0xE2B87A14, 0x7BB12BAE, 0x0CB61B38, 0x92D28E9B, 0xE5D5BE0D, 0x7CDCEFB7, 0x0BDBDF21,
    0x86D3D2D4, 0xF1D4E242, 0x68DDB3F8, 0x1FDA836E, 0x81BE16CD, 0xF6B9265B, 0x6FB077E1, 0x18B74777,
    0x88085AE6, 0xFF0F6A70, 0x66063BCA, 0x11010B5C, 0x8F659EFF, 0xF862AE69, 0x616BFFD3, 0x166CCF45,
    0xA00AE278, 0xD70DD2EE, 0x4E048354, 0x3903B3C2, 0xA7672661, 0xD06016F7, 0x4969474D, 0x3E6E77DB,
    0xAED16A4A, 0xD9D65ADC, 0x40DF0B66, 0x37D83BF0, 0xA9BCAE53, 0xDEBB9EC5, 0x47B2CF7F, 0x30B5FFE9,
    0xBDBDF21C, 0xCABAC28A, 0x53B39330, 0x24B4A3A6, 0xBAD03605, 0xCDD70693, 0x54DE5729, 0x23D967BF,
    0xB3667A2E, 0xC4614AB8, 0x5D681B02, 0x2A6F2B94, 0xB40BBE37, 0xC30C8EA1, 0x5A05DF1B, 0x2D02EF8D,
];

/// One table step. The mask keeps the index in `0..256`, so the `get`
/// always hits; `unwrap_or` (rather than indexing or `unwrap`) keeps the
/// no-panic guarantee visible in the code itself.
#[inline(always)]
fn crc_step(crc: u32, byte: u8) -> u32 {
    let idx = ((crc ^ u32::from(byte)) & 0xFF) as usize;
    (crc >> 8) ^ CRC_TABLE.get(idx).copied().unwrap_or(0)
}

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

    /// Folds `bytes` into the state.
    pub fn update(&mut self, bytes: &[u8]) {
        let mut crc = self.state;
        for &b in bytes {
            crc = crc_step(crc, b);
        }
        self.state = crc;
    }

    /// Folds a little-endian `u32` into the state.
    pub fn update_u32(&mut self, v: u32) {
        self.update(&v.to_le_bytes());
    }

    /// Folds a little-endian `u64` into the state.
    pub fn update_u64(&mut self, v: u64) {
        self.update(&v.to_le_bytes());
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

/// Appends the canonical encoding of a unit payload to `out`: fragment
/// count, then `(key, version, bytes)` per fragment, all little-endian.
pub fn encode_unit_into(unit: &UnitPayload, out: &mut Vec<u8>) {
    out.extend_from_slice(&fragment_count(unit).to_le_bytes());
    for f in unit.fragments.iter() {
        out.extend_from_slice(&f.key.to_le_bytes());
        out.extend_from_slice(&f.version.to_le_bytes());
        out.extend_from_slice(&f.bytes.to_le_bytes());
    }
}

/// Appends the canonical encoding of an OOB record to `out`:
/// `(lpn, sequence, kind)`, little-endian.
pub fn encode_oob_into(entry: &OobEntry, out: &mut Vec<u8>) {
    out.extend_from_slice(&entry.lpn.to_le_bytes());
    out.extend_from_slice(&entry.sequence.to_le_bytes());
    out.push(oob_kind_code(entry.kind));
}

/// Checksum of a unit payload — streams the canonical encoding through
/// the CRC without allocating (the program/read hot path).
pub fn unit_checksum(unit: &UnitPayload) -> u32 {
    fragments_checksum(fragment_count(unit), unit.fragments.iter().copied())
}

/// The fragment count as encoded and stored (a `u32`). A merged unit
/// holds a handful of fragments; the page store refuses a count past
/// `u32::MAX` before anything is sealed, so the saturation never decides
/// a checksum.
fn fragment_count(unit: &UnitPayload) -> u32 {
    u32::try_from(unit.fragments.len()).unwrap_or(u32::MAX)
}

/// [`unit_checksum`] over a fragment count and the fragments themselves:
/// the page store verifies a stored unit against the count it *stores*,
/// so a rotted count fails like any other field.
pub(crate) fn fragments_checksum(count: u32, fragments: impl Iterator<Item = Fragment>) -> u32 {
    let mut c = Crc32::new();
    c.update_u32(count);
    for f in fragments {
        c.update_u64(f.key);
        c.update_u64(f.version);
        c.update_u32(f.bytes);
    }
    c.finish()
}

/// Checksum of an OOB record (allocation-free).
pub fn oob_checksum(entry: &OobEntry) -> u32 {
    oob_record_checksum(entry.lpn, entry.sequence, oob_kind_code(entry.kind))
}

/// [`oob_checksum`] over the stored fields, kind as its code byte.
pub(crate) fn oob_record_checksum(lpn: u64, sequence: u64, kind_code: u8) -> u32 {
    let mut c = Crc32::new();
    c.update_u64(lpn);
    c.update_u64(sequence);
    c.update(&[kind_code]);
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
    fn table_is_the_polynomial_recurrence() {
        // Every literal entry must equal the bit-at-a-time CRC of its
        // index byte — the table is a cache of POLY, not a second truth.
        for (i, &entry) in CRC_TABLE.iter().enumerate() {
            let mut crc = i as u32;
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (POLY & mask);
            }
            assert_eq!(entry, crc, "CRC_TABLE[{i}]");
        }
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
