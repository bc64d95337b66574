//! Property tests pinning the dense Vec-backed `MappingTable` to a
//! map-based shadow model (the pre-refactor representation): random
//! soups of map/unmap/alias/relocate must produce identical forward
//! mappings, identical `Unlink` outcomes, consistent reverse referrer
//! sets, and the same ascending-LPN iteration order.
//!
//! The shadow also plays the own-LPN oracle the table asks: a location
//! that an op is about to occupy gets an own LPN — the one placed there,
//! another, or none — and keeps it while it stays occupied, as a buffer
//! slot keeps its OOB record until it is discarded. Whatever the oracle
//! says, the outcomes must be the same; what changes is only which
//! locations are plain, and the table's canonical form is checked
//! against it.

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
    Map {
        lpn: Lpn,
        loc: Location,
        own: Own,
    },
    Unmap {
        lpn: Lpn,
    },
    Alias {
        dst: Lpn,
        src: Lpn,
    },
    Relocate {
        from: Location,
        to: Location,
        own: Own,
    },
}

/// The own LPN an op gives the location it is about to occupy.
#[derive(Debug, Clone, Copy)]
enum Own {
    /// The LPN it places there: a written buffer slot, or a page-out's
    /// flash unit (for a relocate, the first referrer it moves, as a GC
    /// copy is written).
    Placed,
    /// The own LPN of the location a relocate moves from: a page-out.
    Source,
    /// Some other LPN.
    Other(Lpn),
    /// None at all.
    Nothing,
}

fn any_own(rng: &mut TestRng) -> Own {
    match rng.weighted(&[6, 2, 1, 1]) {
        0 => Own::Placed,
        1 => Own::Source,
        2 => Own::Other(any_lpn(rng)),
        _ => Own::Nothing,
    }
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
            own: any_own(rng),
        },
        1 => Op::Unmap { lpn: any_lpn(rng) },
        2 => Op::Alias {
            dst: any_lpn(rng),
            src: any_lpn(rng),
        },
        _ => Op::Relocate {
            from: any_loc(rng),
            to: any_loc(rng),
            own: any_own(rng),
        },
    }
}

/// The shadow: a plain ordered map LPN -> location, with the reverse
/// direction and all counters derived from it on demand. Everything the
/// dense table tracks incrementally must agree with this ground truth.
#[derive(Default)]
struct Shadow {
    forward: BTreeMap<u64, Location>,
    /// The own-LPN oracle: locations by `key`.
    own: BTreeMap<(u8, u64), Lpn>,
}

fn key(loc: Location) -> (u8, u64) {
    match loc {
        Location::Flash(p) => (0, p.0),
        Location::Buffer(s) => (1, s.0),
    }
}

impl Shadow {
    fn own(&self, loc: Location) -> Option<Lpn> {
        self.own.get(&key(loc)).copied()
    }

    /// Gives `loc` the own LPN `pick` says, unless it is occupied: an
    /// occupied location keeps its own. `placed` is the LPN the op puts
    /// there first, `source` the location it moves from.
    fn give_own(
        &mut self,
        loc: Location,
        pick: Own,
        placed: Option<Lpn>,
        source: Option<Location>,
    ) {
        if !self.referrers(loc).is_empty() {
            return;
        }
        let own = match pick {
            Own::Placed => placed,
            Own::Source => source.and_then(|s| self.own(s)),
            Own::Other(lpn) => Some(lpn),
            Own::Nothing => None,
        };
        match own {
            Some(lpn) => self.own.insert(key(loc), lpn),
            None => self.own.remove(&key(loc)),
        };
    }

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
        locs.sort_by_key(|&l| key(l));
        locs.dedup();
        locs.len()
    }

    /// Occupied locations whose referrers are not their own LPN alone.
    fn exceptional(&self) -> usize {
        let mut locs: Vec<Location> = self.forward.values().copied().collect();
        locs.sort_by_key(|&l| key(l));
        locs.dedup();
        locs.into_iter()
            .filter(|&l| self.own(l).is_none_or(|own| self.referrers(l) != [own]))
            .count()
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
    assert_eq!(
        table.exceptional_locations(),
        shadow.exceptional(),
        "exceptional counter"
    );

    // Reverse direction over the whole location universe: same referrer
    // sets (the table keeps insertion order, so compare as sorted sets).
    let locs = (0..PUNS)
        .map(|p| Location::Flash(Pun(p)))
        .chain((0..SLOTS).map(|s| Location::Buffer(BufSlot(s))));
    for loc in locs {
        let own = shadow.own(loc);
        let mut got: Vec<Lpn> = table.referrers(loc, own.as_ref()).to_vec();
        got.sort_by_key(|l| l.0);
        assert_eq!(got, shadow.referrers(loc), "referrers of {loc}");
        assert_eq!(
            table.is_referenced(loc),
            !got.is_empty(),
            "{loc} referenced"
        );
    }

    // Forward/reverse symmetry and the canonical form under this oracle.
    table.check_consistency(|loc| shadow.own(loc)).unwrap();
}

/// Applies `op` to both and requires the same outcome.
fn step(table: &mut MappingTable, shadow: &mut Shadow, op: Op) {
    match op {
        Op::Map {
            loc,
            own: pick,
            lpn,
        } => shadow.give_own(loc, pick, Some(lpn), None),
        Op::Relocate {
            from,
            to,
            own: pick,
        } => {
            let first = table
                .referrers(from, shadow.own(from).as_ref())
                .first()
                .copied();
            shadow.give_own(to, pick, first, Some(from));
        }
        Op::Unmap { .. } | Op::Alias { .. } => {}
    }
    let oracle = |loc| shadow.own(loc);
    let got = match op {
        Op::Map { lpn, loc, .. } => Ok(table.map(lpn, loc, oracle)),
        Op::Unmap { lpn } => Ok(table.unmap(lpn, oracle)),
        Op::Alias { dst, src } => table.alias(dst, src, oracle).map_err(Some),
        Op::Relocate { from, to, .. } => Err(Some(Lpn(table.relocate(from, to, oracle) as u64))),
    };
    let want = match op {
        Op::Map { lpn, loc, .. } => Ok(shadow.map(lpn, loc)),
        Op::Unmap { lpn } => Ok(shadow.unmap(lpn)),
        Op::Alias { dst, src } => shadow.alias(dst, src).map_err(Some),
        Op::Relocate { from, to, .. } => Err(Some(Lpn(shadow.relocate(from, to) as u64))),
    };
    assert_eq!(got, want, "{op:?}");
}

fn run_ops(ops: &[Op]) {
    let mut table = MappingTable::new();
    let mut shadow = Shadow::default();
    for &op in ops {
        step(&mut table, &mut shadow, op);
    }
    assert_equivalent(&table, &shadow);
}

/// Each location's referrers, in the table's order, after `ops`.
fn referrers_after(ops: &[Op], loc: Location) -> Vec<Lpn> {
    let (table, shadow) = run_stepwise(ops);
    table.referrers(loc, shadow.own(loc).as_ref()).to_vec()
}

/// Every own-LPN pick a fixed op sequence runs under.
const PICKS: [Own; 4] = [Own::Placed, Own::Source, Own::Other(Lpn(199)), Own::Nothing];

#[test]
fn mapping_table_matches_map_shadow_under_random_ops() {
    check("mapping_table_matches_map_shadow", 96, |rng| {
        let len = rng.range_usize(1, 299);
        let ops = soup(rng, len, any_op);
        run_ops(&ops);
    });
}

/// Long soups: locations cycle through free, plain and exceptional many
/// times, and the overflow vector sees repeated insert/remove churn.
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
fn run_stepwise(ops: &[Op]) -> (MappingTable, Shadow) {
    let mut table = MappingTable::new();
    let mut shadow = Shadow::default();
    for &op in ops {
        step(&mut table, &mut shadow, op);
        assert_equivalent(&table, &shadow);
    }
    (table, shadow)
}

/// A device-metadata LPN: the SSD's band starts at `u64::MAX / 2`, so
/// these sit at or above 2^63.
const META: Lpn = Lpn(u64::MAX / 2 + 1);

/// One location's referrers through every representation: empty, one
/// referrer, a list, one again, empty — with a metadata LPN alone and
/// inside the list, and the referrers in the order they arrived — under
/// every own-LPN pick, so each shape is met both plain and exceptional.
#[test]
fn a_slot_goes_empty_one_many_one_empty() {
    const { assert!(META.0 >= 1 << 63) };
    let home = Location::Flash(Pun(3));
    for own in PICKS {
        let map = |lpn, loc| Op::Map { lpn, loc, own };
        let alias = |dst, src| Op::Alias { dst, src };
        let unmap = |lpn| Op::Unmap { lpn };
        let after = |ops: &[Op]| referrers_after(ops, home);
        assert_eq!(after(&[map(META, home)]), [META]);
        assert_eq!(
            after(&[map(META, home), alias(Lpn(7), META), alias(Lpn(2), META)]),
            [META, Lpn(7), Lpn(2)]
        );
        assert_eq!(
            after(&[
                map(Lpn(7), home),
                alias(META, Lpn(7)),
                alias(Lpn(2), Lpn(7)),
                unmap(Lpn(7)),
            ]),
            [META, Lpn(2)]
        );
        assert_eq!(
            after(&[
                map(Lpn(7), home),
                alias(META, Lpn(7)),
                unmap(Lpn(7)),
                alias(Lpn(9), META),
                unmap(META),
            ]),
            [Lpn(9)]
        );
        let ops = [
            map(Lpn(7), home),
            alias(META, Lpn(7)),
            unmap(META),
            unmap(Lpn(7)),
            map(META, home),
            unmap(META),
        ];
        assert!(after(&ops).is_empty());
        assert_eq!(run_stepwise(&ops).0.occupied_locations(), 0);
    }
}

/// `relocate` onto a slot that already has referrers, for each pair of
/// representations: the target's referrers stay first, the moved ones
/// follow in their order.
#[test]
fn relocate_onto_an_occupied_slot_merges_in_order() {
    let (from, to) = (Location::Buffer(BufSlot(1)), Location::Flash(Pun(5)));
    for own in PICKS {
        let map = |lpn, loc| Op::Map { lpn, loc, own };
        let alias = |dst, src| Op::Alias { dst, src };
        let relocate = Op::Relocate { from, to, own };
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
            assert_eq!(referrers_after(&ops, to), merged, "{setup:?}");
            assert!(referrers_after(&ops, from).is_empty());
            // And back out again: the merged list leaves whole.
            let back = Op::Relocate {
                from: to,
                to: from,
                own,
            };
            let ops: Vec<Op> = ops.into_iter().chain([back]).collect();
            assert_eq!(referrers_after(&ops, from), merged);
        }
    }
}
