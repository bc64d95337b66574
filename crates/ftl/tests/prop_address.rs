//! The address algebra past the `u32` line. The device crates deny
//! `clippy::cast_possible_truncation` because a ppn or pun of a large
//! device does not fit 32 bits; this is the test that builds such
//! addresses. Arithmetic only — no `FlashArray` of that size exists.

use checkin_flash::{BlockId, FlashGeometry, Ppn};
use checkin_ftl::{BufSlot, Location, Lpn, MappingTable, Pun};
use checkin_testkit::{check, TestRng};

const U32_LINE: u64 = 1 << 32;

/// 8 ch x 8 dies x 2 planes x 2^18 blocks: 2^33 pages at 256 pages per
/// block. The odd block sizes are there because 2^32 is a multiple of
/// 256: truncating a ppn *before* reducing it modulo 256 goes unnoticed.
fn big_geometry(rng: &mut TestRng) -> FlashGeometry {
    FlashGeometry {
        channels: 8,
        dies_per_channel: 8,
        planes_per_die: 2,
        blocks_per_plane: 1 << 18,
        pages_per_block: [256, 255, 192][rng.below(3) as usize],
        page_bytes: 4096,
    }
}

/// A ppn just below or just above the `u32` line, at the very end of
/// the device, or anywhere.
fn any_ppn(rng: &mut TestRng, g: &FlashGeometry) -> Ppn {
    let near = rng.below(1 << 12);
    Ppn(match rng.below(4) {
        0 => U32_LINE - 1 - near,
        1 => U32_LINE + near,
        2 => g.total_pages() - 1 - near,
        _ => rng.below(g.total_pages()),
    })
}

#[test]
fn addresses_round_trip_on_both_sides_of_the_u32_line() {
    check("address round trip", 4096, |rng| {
        let g = big_geometry(rng);
        assert!(g.total_pages() > U32_LINE);
        for ppn in [any_ppn(rng, &g), Ppn(g.total_pages() - 1)] {
            let ppb = u64::from(g.pages_per_block);
            let (block, page) = (g.block_of(ppn), g.page_in_block(ppn));
            assert_eq!(block.0, ppn.0 / ppb);
            assert_eq!(u64::from(page), ppn.0 % ppb);
            assert_eq!(g.ppn_in_block(block, page), ppn);

            let pos = g.block_position(block);
            assert!(pos.channel < g.channels && pos.die < g.dies_per_channel);
            assert!(pos.plane < g.planes_per_die && pos.block < g.blocks_per_plane);
            assert_eq!(g.compose(g.decompose(ppn)), ppn);
            let die = g.die_of_block(block);
            assert!(die < g.total_dies());
            assert_eq!(
                die,
                u64::from(pos.channel) * u64::from(g.dies_per_channel) + u64::from(pos.die)
            );

            // Units per page is a power of two on a real device; the odd
            // ones catch a truncation ahead of the modulo, as above.
            let upp = [1, 3, 7, 8][rng.below(4) as usize];
            let offset = rng.range_u32(0, upp - 1);
            let pun = Pun::compose(ppn, offset, upp);
            assert_eq!(pun.0, ppn.0 * u64::from(upp) + u64::from(offset));
            assert_eq!((pun.page(upp), pun.offset(upp)), (ppn, offset));
        }
    });
}

/// An id past the end of a table reads as absent. It must not panic, and
/// it must not alias the slot `id mod 2^32` that a truncating cast
/// would pick.
#[test]
fn an_out_of_range_id_is_absent_from_every_table() {
    check("out-of-range ids", 256, |rng| {
        let small = rng.below(1 << 10);
        let mut table = MappingTable::new();
        let _ = table.map(Lpn(small), Location::Flash(Pun(small)), |_| None);
        let _ = table.map(Lpn(small + 1), Location::Buffer(BufSlot(small)), |_| None);

        for far in [small + U32_LINE, small + (U32_LINE << 8), u64::MAX] {
            assert_eq!(table.lookup(Lpn(far)), None);
            assert!(!table.is_referenced(Location::Flash(Pun(far))));
            assert!(!table.is_referenced(Location::Buffer(BufSlot(far))));
            assert!(table.referrers(Location::Flash(Pun(far)), None).is_empty());
            // The index is the id itself, or — on a host whose usize
            // cannot hold it — one no table contains.
            let exact = usize::try_from(far).unwrap_or(usize::MAX);
            assert_eq!(Lpn(far).index(), exact);
            assert_eq!(Pun(far).index(), exact);
            assert_eq!(BufSlot(far).index(), exact);
            assert_eq!(Ppn(far).index(), exact);
            assert_eq!(BlockId(far).index(), exact);
        }
        assert_eq!(
            table.referrers(Location::Flash(Pun(small)), None),
            [Lpn(small)]
        );
    });
}
