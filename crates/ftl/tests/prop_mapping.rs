//! Property tests pinning the dense Vec-backed `MappingTable` to a
//! map-based shadow model (the pre-refactor representation): random
//! soups of map/unmap/alias/relocate must produce identical forward
//! mappings, identical `Unlink` outcomes, consistent reverse referrer
//! sets, and the same ascending-LPN iteration order.

use std::collections::BTreeMap;

use checkin_ftl::{BufSlot, Location, Lpn, MappingTable, Pun, Unlink};
use checkin_testkit::{check, soup, TestRng};

/// Dense logical units (the hot region).
const DENSE_LPNS: u64 = 200;
/// Sparse LPNs per high region, exercising the sorted overflow path. The
/// regions sit above the table's dense limit (`1 << 26`) and around the
/// device-metadata band near `u64::MAX / 2`.
const SPARSE_LPNS: u64 = 6;
/// Physical units — deliberately small so aliases pile up.
const PUNS: u64 = 48;
/// Buffer slots.
const SLOTS: u64 = 12;

#[derive(Debug, Clone, Copy)]
enum Op {
    Map { lpn: Lpn, loc: Location },
    Unmap { lpn: Lpn },
    Alias { dst: Lpn, src: Lpn },
    Relocate { from: Location, to: Location },
}

fn any_lpn(rng: &mut TestRng) -> Lpn {
    match rng.weighted(&[12, 1, 1]) {
        0 => Lpn(rng.below(DENSE_LPNS)),
        1 => Lpn((1 << 26) + rng.below(SPARSE_LPNS)),
        _ => Lpn(u64::MAX / 2 + rng.below(SPARSE_LPNS)),
    }
}

fn any_loc(rng: &mut TestRng) -> Location {
    if rng.chance(0.75) {
        Location::Flash(Pun(rng.below(PUNS)))
    } else {
        Location::Buffer(BufSlot(rng.below(SLOTS)))
    }
}

fn any_op(rng: &mut TestRng) -> Op {
    match rng.weighted(&[6, 3, 3, 1]) {
        0 => Op::Map {
            lpn: any_lpn(rng),
            loc: any_loc(rng),
        },
        1 => Op::Unmap { lpn: any_lpn(rng) },
        2 => Op::Alias {
            dst: any_lpn(rng),
            src: any_lpn(rng),
        },
        _ => Op::Relocate {
            from: any_loc(rng),
            to: any_loc(rng),
        },
    }
}

/// The shadow: a plain ordered map LPN -> location, with the reverse
/// direction and all counters derived from it on demand. Everything the
/// dense table tracks incrementally must agree with this ground truth.
#[derive(Default)]
struct Shadow {
    forward: BTreeMap<u64, Location>,
}

impl Shadow {
    fn referrers(&self, loc: Location) -> Vec<Lpn> {
        self.forward
            .iter()
            .filter(|&(_, &l)| l == loc)
            .map(|(&lpn, _)| Lpn(lpn))
            .collect()
    }

    fn unmap(&mut self, lpn: Lpn) -> Unlink {
        match self.forward.remove(&lpn.0) {
            None => Unlink::NotMapped,
            Some(loc) => {
                if self.referrers(loc).is_empty() {
                    Unlink::Orphaned(loc)
                } else {
                    Unlink::StillReferenced(loc)
                }
            }
        }
    }

    fn map(&mut self, lpn: Lpn, loc: Location) -> Unlink {
        let prev = self.unmap(lpn);
        self.forward.insert(lpn.0, loc);
        prev
    }

    fn alias(&mut self, dst: Lpn, src: Lpn) -> Result<Unlink, Lpn> {
        let loc = *self.forward.get(&src.0).ok_or(src)?;
        if self.forward.get(&dst.0) == Some(&loc) {
            return Ok(Unlink::StillReferenced(loc));
        }
        Ok(self.map(dst, loc))
    }

    fn relocate(&mut self, from: Location, to: Location) -> usize {
        let movers: Vec<u64> = self
            .forward
            .iter()
            .filter(|&(_, &l)| l == from)
            .map(|(&lpn, _)| lpn)
            .collect();
        for lpn in &movers {
            self.forward.insert(*lpn, to);
        }
        movers.len()
    }

    fn occupied(&self) -> usize {
        let mut locs: Vec<Location> = self.forward.values().copied().collect();
        locs.sort_by_key(|l| match l {
            Location::Flash(p) => (0u8, p.0),
            Location::Buffer(s) => (1u8, s.0),
        });
        locs.dedup();
        locs.len()
    }
}

fn assert_equivalent(table: &MappingTable, shadow: &Shadow) {
    // Forward direction, including iteration order: ascending LPN in both.
    let from_table: Vec<(u64, Location)> = table.iter().map(|(l, loc)| (l.0, loc)).collect();
    let from_shadow: Vec<(u64, Location)> =
        shadow.forward.iter().map(|(&l, &loc)| (l, loc)).collect();
    assert_eq!(from_table, from_shadow, "forward map / iteration order");

    assert_eq!(table.live_entries(), shadow.forward.len(), "live counter");
    assert_eq!(
        table.occupied_locations(),
        shadow.occupied(),
        "occupied counter"
    );

    // Reverse direction over the whole location universe: same referrer
    // sets (the table keeps insertion order, so compare as sorted sets).
    let locs = (0..PUNS)
        .map(|p| Location::Flash(Pun(p)))
        .chain((0..SLOTS).map(|s| Location::Buffer(BufSlot(s))));
    for loc in locs {
        let mut got: Vec<Lpn> = table.referrers(loc).to_vec();
        got.sort_by_key(|l| l.0);
        assert_eq!(got, shadow.referrers(loc), "referrers of {loc}");
    }

    table.check_consistency().unwrap();
}

/// Applies `op` to both and requires the same outcome.
fn step(table: &mut MappingTable, shadow: &mut Shadow, op: Op) {
    match op {
        Op::Map { lpn, loc } => {
            assert_eq!(table.map(lpn, loc), shadow.map(lpn, loc), "map {lpn}");
        }
        Op::Unmap { lpn } => {
            assert_eq!(table.unmap(lpn), shadow.unmap(lpn), "unmap {lpn}");
        }
        Op::Alias { dst, src } => {
            assert_eq!(
                table.alias(dst, src),
                shadow.alias(dst, src),
                "alias {dst} -> {src}"
            );
        }
        Op::Relocate { from, to } => {
            let moved = table.relocate(from, to);
            assert_eq!(moved, shadow.relocate(from, to), "relocate {from}");
        }
    }
}

fn run_ops(ops: &[Op]) {
    let mut table = MappingTable::new();
    let mut shadow = Shadow::default();
    for &op in ops {
        step(&mut table, &mut shadow, op);
    }
    assert_equivalent(&table, &shadow);
}

#[test]
fn mapping_table_matches_map_shadow_under_random_ops() {
    check("mapping_table_matches_map_shadow", 96, |rng| {
        let len = rng.range_usize(1, 299);
        let ops = soup(rng, len, any_op);
        run_ops(&ops);
    });
}

/// Long soups: the reverse slots cycle through Empty/One/Many many times
/// and the overflow vector sees repeated insert/remove churn.
#[test]
fn mapping_table_matches_map_shadow_under_long_churn() {
    check("mapping_table_long_churn", 12, |rng| {
        let len = rng.range_usize(2_000, 2_999);
        let ops = soup(rng, len, any_op);
        run_ops(&ops);
    });
}

/// Equivalence checked after *every* op, not just at the end — catches
/// transient counter drift that later ops could mask.
#[test]
fn mapping_table_stays_equivalent_at_every_step() {
    check("mapping_table_stepwise_equivalence", 16, |rng| {
        let len = rng.range_usize(1, 79);
        let ops = soup(rng, len, any_op);
        run_stepwise(&ops);
    });
}

/// [`step`] and [`assert_equivalent`] after every op.
fn run_stepwise(ops: &[Op]) -> MappingTable {
    let mut table = MappingTable::new();
    let mut shadow = Shadow::default();
    for &op in ops {
        step(&mut table, &mut shadow, op);
        assert_equivalent(&table, &shadow);
    }
    table
}

/// A device-metadata LPN: the SSD's band starts at `u64::MAX / 2`, so
/// these sit at or above 2^63.
const META: Lpn = Lpn(u64::MAX / 2 + 1);

/// One location's reverse slot through every representation: empty, one
/// referrer, a list, one again, empty — with a metadata LPN alone and
/// inside the list, and the referrers in the order they arrived.
#[test]
fn a_slot_goes_empty_one_many_one_empty() {
    const { assert!(META.0 >= 1 << 63) };
    let home = Location::Flash(Pun(3));
    let map = |lpn, loc| Op::Map { lpn, loc };
    let alias = |dst, src| Op::Alias { dst, src };
    let unmap = |lpn| Op::Unmap { lpn };
    let t = run_stepwise(&[map(META, home)]);
    assert_eq!(t.referrers(home), [META]);
    let t = run_stepwise(&[map(META, home), alias(Lpn(7), META), alias(Lpn(2), META)]);
    assert_eq!(t.referrers(home), [META, Lpn(7), Lpn(2)]);
    let t = run_stepwise(&[
        map(Lpn(7), home),
        alias(META, Lpn(7)),
        alias(Lpn(2), Lpn(7)),
        unmap(Lpn(7)),
    ]);
    assert_eq!(t.referrers(home), [META, Lpn(2)]);
    let t = run_stepwise(&[
        map(Lpn(7), home),
        alias(META, Lpn(7)),
        unmap(Lpn(7)),
        alias(Lpn(9), META),
        unmap(META),
    ]);
    assert_eq!(t.referrers(home), [Lpn(9)]);
    let t = run_stepwise(&[
        map(Lpn(7), home),
        alias(META, Lpn(7)),
        unmap(META),
        unmap(Lpn(7)),
        map(META, home),
        unmap(META),
    ]);
    assert!(t.referrers(home).is_empty());
    assert_eq!(t.occupied_locations(), 0);
}

/// `relocate` onto a slot that already has referrers, for each pair of
/// representations: the target's referrers stay first, the moved ones
/// follow in their order.
#[test]
fn relocate_onto_an_occupied_slot_merges_in_order() {
    let (from, to) = (Location::Buffer(BufSlot(1)), Location::Flash(Pun(5)));
    let map = |lpn, loc| Op::Map { lpn, loc };
    let alias = |dst, src| Op::Alias { dst, src };
    let relocate = Op::Relocate { from, to };
    let cases: [(&[Op], &[Lpn]); 4] = [
        (&[map(Lpn(1), to), map(META, from)], &[Lpn(1), META]),
        (
            &[map(Lpn(1), to), map(Lpn(2), from), alias(META, Lpn(2))],
            &[Lpn(1), Lpn(2), META],
        ),
        (
            &[map(META, to), alias(Lpn(1), META), map(Lpn(2), from)],
            &[META, Lpn(1), Lpn(2)],
        ),
        (
            &[
                map(Lpn(1), to),
                alias(Lpn(3), Lpn(1)),
                map(Lpn(2), from),
                alias(META, Lpn(2)),
            ],
            &[Lpn(1), Lpn(3), Lpn(2), META],
        ),
    ];
    for (setup, merged) in cases {
        let ops: Vec<Op> = setup.iter().copied().chain([relocate]).collect();
        let t = run_stepwise(&ops);
        assert_eq!(t.referrers(to), merged, "{setup:?}");
        assert!(t.referrers(from).is_empty());
        // And back out again: the merged list leaves whole.
        let back = Op::Relocate { from: to, to: from };
        let ops: Vec<Op> = ops.into_iter().chain([back]).collect();
        let t = run_stepwise(&ops);
        assert_eq!(t.referrers(from), merged);
    }
}
