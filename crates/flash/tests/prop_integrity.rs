//! Property tests of the integrity layer: the CRC sealed over the
//! canonical encodings detects **every** single-bit flip — in the encoded
//! byte stream and in any struct field an injector can reach — with no
//! false accepts across a seeded corpus — and, in the page store, a flip
//! of any stored bit fails exactly the record it hit. This is the
//! contract the SPOR scan and every verified read path rely on.

use checkin_flash::{
    crc32, encode_oob_into, encode_unit_into, oob_checksum, unit_checksum, FlashArray,
    FlashGeometry, FlashTiming, FragVec, Fragment, OobEntry, OobKind, PageContent, Ppn,
    StoredField, UnitPayload,
};
use checkin_sim::SimTime;
use checkin_testkit::{check, TestRng};

fn any_unit(rng: &mut TestRng) -> UnitPayload {
    let n = rng.range_usize(1, 6);
    let mut fragments = FragVec::new();
    for _ in 0..n {
        fragments.push(Fragment {
            key: rng.next_u64(),
            version: rng.next_u64(),
            bytes: rng.range_u32(1, 4096),
        });
    }
    UnitPayload { fragments }
}

fn any_oob(rng: &mut TestRng) -> OobEntry {
    let kinds = [
        OobKind::Journal,
        OobKind::Data,
        OobKind::Meta,
        OobKind::GcCopy,
    ];
    OobEntry {
        lpn: rng.next_u64(),
        sequence: rng.next_u64(),
        kind: kinds[rng.below(4) as usize],
    }
}

/// Flipping any single bit of an encoded record changes its CRC.
#[test]
fn single_bit_flip_in_encoding_always_detected() {
    check("single_bit_flip_in_encoding_always_detected", 128, |rng| {
        let mut buf = Vec::new();
        if rng.chance(0.5) {
            encode_unit_into(&any_unit(rng), &mut buf);
        } else {
            encode_oob_into(&any_oob(rng), &mut buf);
        }
        let sealed = crc32(&buf);
        // Exhaustive over every bit of this record, not just a sample:
        // CRCs detect all 1-bit errors by construction, so one surviving
        // flip anywhere would be an implementation bug.
        for byte in 0..buf.len() {
            for bit in 0..8 {
                buf[byte] ^= 1 << bit;
                assert_ne!(
                    crc32(&buf),
                    sealed,
                    "flip at byte {byte} bit {bit} went undetected"
                );
                buf[byte] ^= 1 << bit;
            }
        }
        assert_eq!(crc32(&buf), sealed, "restored record must verify again");
    });
}

/// Flipping a single bit of any field the bit-rot injector targets
/// changes the streaming checksum (which must agree with the encoded
/// one-shot CRC).
#[test]
fn single_bit_field_flips_break_streaming_checksums() {
    check(
        "single_bit_field_flips_break_streaming_checksums",
        128,
        |rng| {
            let unit = any_unit(rng);
            let mut buf = Vec::new();
            encode_unit_into(&unit, &mut buf);
            assert_eq!(unit_checksum(&unit), crc32(&buf), "streaming == one-shot");

            let sealed = unit_checksum(&unit);
            let victim = rng.below(unit.fragments.len() as u64) as usize;
            let bit = rng.below(64);
            for field in 0..3 {
                let mut m = unit.clone();
                let f = &mut m.fragments.as_mut_slice()[victim];
                match field {
                    0 => f.key ^= 1 << bit,
                    1 => f.version ^= 1 << bit,
                    _ => f.bytes ^= 1 << (bit % 32),
                }
                assert_ne!(unit_checksum(&m), sealed, "field {field} flip undetected");
            }

            let oob = any_oob(rng);
            let mut obuf = Vec::new();
            encode_oob_into(&oob, &mut obuf);
            assert_eq!(oob_checksum(&oob), crc32(&obuf), "streaming == one-shot");
            let sealed = oob_checksum(&oob);
            let mut m = oob;
            m.lpn ^= 1 << bit;
            assert_ne!(oob_checksum(&m), sealed, "lpn flip undetected");
            let mut m = oob;
            m.sequence ^= 1 << bit;
            assert_ne!(oob_checksum(&m), sealed, "sequence flip undetected");
        },
    );
}

/// Flipping any single bit the page store keeps for a programmed page —
/// key, version or byte count of any fragment (the ones in the block's
/// fragment arena included), lpn, sequence or kind of any OOB record —
/// is detected by the unit or OOB record it hit, and by no other.
#[test]
fn every_stored_bit_is_protected_by_exactly_its_own_record() {
    check(
        "every_stored_bit_is_protected_by_exactly_its_own_record",
        64,
        |rng| {
            // Two pages in one block, so that records and extra
            // fragments of different pages are neighbours in the arenas.
            let mut flash = FlashArray::new(FlashGeometry::small(), FlashTiming::mlc());
            let mut pages = Vec::new();
            for p in 0..2 {
                let mut page = PageContent::empty(8);
                for unit in &mut page.units {
                    if rng.chance(0.8) {
                        *unit = Some(any_unit(rng));
                    }
                }
                for _ in 0..rng.range_usize(1, 8) {
                    page.oob.push(any_oob(rng));
                }
                flash.program(Ppn(p), &page, SimTime::ZERO).unwrap();
                pages.push(page);
            }

            // Every addressable field of the victim page, each hit once.
            let victim = rng.below(2);
            let page = &pages[victim as usize];
            let mut targets = Vec::new();
            for (slot, unit) in page.units.iter().enumerate() {
                for f in 0..unit.as_ref().map_or(0, |u| u.fragments.len()) {
                    targets.push((slot, StoredField::Key(f)));
                    targets.push((slot, StoredField::Version(f)));
                    targets.push((slot, StoredField::Bytes(f)));
                }
            }
            for slot in 0..page.oob.len() {
                targets.push((slot, StoredField::Lpn));
                targets.push((slot, StoredField::Sequence));
                targets.push((slot, StoredField::Kind));
            }
            for (slot, field) in targets {
                let bit = rng.below(64) as u32;
                let hit = |f: &mut FlashArray| {
                    assert!(
                        f.sabotage_flip_stored_bit(Ppn(victim), slot as u32, field, bit),
                        "slot {slot} stores {field:?}"
                    );
                };
                hit(&mut flash);
                let is_oob = matches!(
                    field,
                    StoredField::Lpn | StoredField::Sequence | StoredField::Kind
                );
                for p in 0..2 {
                    let view = flash.read(Ppn(p)).unwrap();
                    for i in 0..8 {
                        let here = p == victim && i == slot;
                        let (unit_hit, oob_hit) = (here && !is_oob, here && is_oob);
                        assert_eq!(view.unit_intact(i), !unit_hit, "{field:?} unit {i}");
                        assert_eq!(view.oob_intact(i), !oob_hit, "{field:?} oob {i}");
                    }
                }
                // The same flip again restores the stored bits.
                hit(&mut flash);
                assert!(
                    flash.read(Ppn(0)).unwrap().intact() && flash.read(Ppn(1)).unwrap().intact()
                );
            }
            assert!(!flash.sabotage_flip_stored_bit(Ppn(victim), 8, StoredField::Lpn, 0));
            assert!(!flash.sabotage_flip_stored_bit(Ppn(2), 0, StoredField::Lpn, 0));
        },
    );
}
