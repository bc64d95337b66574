//! Property tests of the NAND rules: out-of-place updates, in-order
//! programming, erase-before-reuse, and timing monotonicity. Randomized
//! via `checkin-testkit` (deterministic seeds, offline-safe).

use checkin_flash::{
    oob_checksum, unit_checksum, BlockId, FaultConfig, FaultPlan, FlashArray, FlashError,
    FlashGeometry, FlashTiming, Fragment, OobEntry, OobKind, PageContent, Ppn, UnitPayload,
};
use checkin_sim::{Counter, SimTime, Total};
use checkin_testkit::{check, soup, TestRng};

fn array() -> FlashArray {
    FlashArray::new(
        FlashGeometry {
            channels: 2,
            dies_per_channel: 1,
            planes_per_die: 1,
            blocks_per_plane: 8,
            pages_per_block: 8,
            page_bytes: 4096,
        },
        FlashTiming::mlc(),
    )
}

fn content(tag: u64) -> PageContent {
    let mut c = PageContent::empty(8);
    c.units[0] = Some(UnitPayload::single(tag, 1, 512));
    c
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Program { block: u8, page: u8 },
    Erase { block: u8 },
    Read { block: u8, page: u8 },
}

fn op(rng: &mut TestRng) -> Op {
    match rng.weighted(&[5, 2, 3]) {
        0 => Op::Program {
            block: rng.any_u8(),
            page: rng.any_u8(),
        },
        1 => Op::Erase {
            block: rng.any_u8(),
        },
        _ => Op::Read {
            block: rng.any_u8(),
            page: rng.any_u8(),
        },
    }
}

/// Whatever the op soup, the array enforces NAND rules and its own
/// bookkeeping never diverges from a shadow page-state model.
#[test]
fn nand_rules_hold_under_random_ops() {
    check("nand_rules_hold_under_random_ops", 64, |rng| {
        let len = rng.range_usize(1, 299);
        let ops = soup(rng, len, op);
        let mut flash = array();
        let g = *flash.geometry();
        let blocks = g.total_blocks();
        let ppb = g.pages_per_block;
        // Shadow: per block, number of programmed pages (prefix property).
        let mut programmed = vec![0u32; blocks as usize];
        let mut tag = 0u64;

        for op in ops {
            match op {
                Op::Program { block, page } => {
                    let b = block as u64 % blocks;
                    let p = page as u32 % ppb;
                    let ppn = g.ppn_in_block(BlockId(b), p);
                    tag += 1;
                    let result = flash.program(ppn, content(tag), SimTime::ZERO);
                    if p == programmed[b as usize] {
                        assert!(result.is_ok(), "in-order program must succeed");
                        programmed[b as usize] += 1;
                    } else if p < programmed[b as usize] {
                        assert!(
                            matches!(result, Err(FlashError::ProgramDirtyPage(_))),
                            "reprogram must fail"
                        );
                    } else {
                        assert!(
                            matches!(result, Err(FlashError::ProgramOutOfOrder { .. })),
                            "skip-ahead program must fail"
                        );
                    }
                }
                Op::Erase { block } => {
                    let b = block as u64 % blocks;
                    flash.erase(BlockId(b), SimTime::ZERO).unwrap();
                    programmed[b as usize] = 0;
                }
                Op::Read { block, page } => {
                    let b = block as u64 % blocks;
                    let p = page as u32 % ppb;
                    let ppn = g.ppn_in_block(BlockId(b), p);
                    let stored = flash.read(ppn).is_some();
                    assert_eq!(stored, p < programmed[b as usize]);
                }
            }
        }
        // Erase accounting matches the flash's own counters.
        let total: u64 = (0..blocks).map(|b| flash.erase_count(BlockId(b))).sum();
        assert_eq!(total, flash.total_erases());
    });
}

#[derive(Debug, Clone, Copy)]
enum StoreOp {
    /// Program the cursor page of a block (the only program that lands).
    ProgramNext {
        block: u8,
    },
    /// Program an arbitrary page (mostly rejected: dirty or out of order).
    ProgramAt {
        block: u8,
        page: u8,
    },
    Erase {
        block: u8,
    },
    /// Re-arm the plan so power is cut `after` fault ticks from now; a
    /// cut that lands on a program leaves a torn page behind.
    ArmCut {
        after: u8,
    },
}

fn store_op(rng: &mut TestRng) -> StoreOp {
    match rng.weighted(&[8, 2, 2, 1]) {
        0 => StoreOp::ProgramNext {
            block: rng.any_u8(),
        },
        1 => StoreOp::ProgramAt {
            block: rng.any_u8(),
            page: rng.any_u8(),
        },
        2 => StoreOp::Erase {
            block: rng.any_u8(),
        },
        _ => StoreOp::ArmCut {
            after: rng.any_u8() % 8 + 1,
        },
    }
}

/// The per-block page stores are the array's only record of what is
/// programmed. Under programs, erases, torn power cuts and grown bad
/// blocks they must agree with a shadow cursor per block, and every
/// derived view (`is_programmed`, `programmed_pages`,
/// `next_programmed_from`) with a page-at-a-time walk of the device.
#[test]
fn block_vectors_match_the_page_state_model() {
    check("block_vectors_match_the_page_state_model", 64, |rng| {
        let len = rng.range_usize(1, 199);
        let ops = soup(rng, len, store_op);
        let fault_seed = rng.next_u64();
        let faults = |cut: Option<u64>| {
            FaultPlan::new(FaultConfig {
                seed: fault_seed,
                power_cut_after: cut,
                grown_bad_block: 0.03,
                torn_writes: true,
                ..FaultConfig::default()
            })
        };
        let mut flash = array();
        flash.arm_faults(faults(None));
        let g = *flash.geometry();
        let (blocks, ppb, total) = (g.total_blocks(), g.pages_per_block, g.total_pages());
        let mut cursor = vec![0u32; blocks as usize];
        let mut tag = 0u64;

        for op in ops {
            match op {
                StoreOp::ProgramNext { block } | StoreOp::ProgramAt { block, .. } => {
                    let b = BlockId(block as u64 % blocks);
                    let at = &mut cursor[b.0 as usize];
                    let page = match op {
                        StoreOp::ProgramAt { page, .. } => page as u32 % ppb,
                        _ => *at,
                    };
                    if page >= ppb {
                        continue; // block full
                    }
                    tag += 1;
                    match flash.program(g.ppn_in_block(b, page), content(tag), SimTime::ZERO) {
                        Ok(_) => {
                            assert_eq!(page, *at, "only the cursor page may land");
                            *at += 1;
                        }
                        // A cut on the cursor page of a healthy block
                        // tears: the page is on the media, corrupt or not.
                        Err(FlashError::PowerLoss) => {
                            assert_eq!(page, *at, "rule checks run before the fault gate");
                            *at += 1;
                            flash.power_on();
                        }
                        Err(_) => {}
                    }
                }
                StoreOp::Erase { block } => {
                    let b = BlockId(block as u64 % blocks);
                    match flash.erase(b, SimTime::ZERO) {
                        // The cursor is back at 0: the block reprograms
                        // from its first page.
                        Ok(_) => cursor[b.0 as usize] = 0,
                        Err(FlashError::PowerLoss) => flash.power_on(),
                        Err(e) => assert!(
                            matches!(e, FlashError::GrownBadBlock(_)),
                            "unexpected erase failure: {e}"
                        ),
                    }
                }
                StoreOp::ArmCut { after } => flash.arm_faults(faults(Some(after as u64))),
            }

            for b in 0..blocks {
                assert_eq!(flash.write_cursor(BlockId(b)), cursor[b as usize]);
            }
            let mut walked = Vec::new();
            for ppn in (0..total).map(Ppn) {
                let below_cursor = g.page_in_block(ppn) < flash.write_cursor(g.block_of(ppn));
                assert_eq!(flash.is_programmed(ppn), below_cursor, "{ppn}");
                walked.extend(flash.read(ppn).map(|c| (ppn, c.to_content())));
            }
            assert!(flash
                .programmed_pages()
                .map(|(ppn, c)| (ppn, c.to_content()))
                .eq(walked));
            for from in (0..total).map(Ppn) {
                let naive = (0..total)
                    .map(|off| Ppn((from.0 + off) % total))
                    .find(|&p| flash.is_programmed(p));
                assert_eq!(flash.next_programmed_from(from), naive, "from {from}");
            }
            assert_eq!(flash.next_programmed_from(Ppn(total)), None);
        }
    });
}

/// A staged page of any shape: 1, 2 or 8 unit slots, padded slots
/// anywhere, 0–8 fragments per unit, never more OOB records than slots.
fn any_page(rng: &mut TestRng) -> PageContent {
    let slots = [1, 2, 8][rng.below(3) as usize];
    let mut page = PageContent::empty(slots);
    for unit in &mut page.units {
        if rng.chance(0.7) {
            let fragments: Vec<Fragment> = (0..rng.below(9))
                .map(|_| Fragment {
                    key: rng.next_u64(),
                    version: rng.next_u64(),
                    bytes: rng.range_u32(0, 4096),
                })
                .collect();
            *unit = Some(UnitPayload::merged(fragments));
        }
    }
    let kinds = [
        OobKind::Journal,
        OobKind::Data,
        OobKind::Meta,
        OobKind::GcCopy,
    ];
    for _ in 0..rng.range_usize(0, slots) {
        page.oob.push(OobEntry {
            lpn: rng.next_u64(),
            sequence: rng.next_u64(),
            kind: kinds[rng.below(4) as usize],
        });
    }
    page
}

/// What `program` stores is what was staged, field for field, under the
/// checksums of the pinned canonical encoding — whatever the page's
/// shape, and whatever its neighbours in the block's arenas look like.
#[test]
fn the_stored_form_is_the_staged_form() {
    check("the_stored_form_is_the_staged_form", 64, |rng| {
        let mut flash = array();
        let g = *flash.geometry();
        let total = g.total_pages();
        let mut staged: Vec<Option<PageContent>> = vec![None; total as usize];
        for _ in 0..rng.range_usize(1, 80) {
            let b = BlockId(rng.below(g.total_blocks()));
            let page = flash.write_cursor(b);
            if page == g.pages_per_block || rng.chance(0.05) {
                flash.erase(b, SimTime::ZERO).unwrap();
                for p in 0..g.pages_per_block {
                    staged[g.ppn_in_block(b, p).0 as usize] = None;
                }
                continue;
            }
            let ppn = g.ppn_in_block(b, page);
            let content = any_page(rng);
            flash.program(ppn, &content, SimTime::ZERO).unwrap();
            staged[ppn.0 as usize] = Some(content);
        }

        for ppn in (0..total).map(Ppn) {
            let view = flash.read(ppn);
            let expected = &staged[ppn.0 as usize];
            assert_eq!(view.map(|v| v.to_content()).as_ref(), expected.as_ref());
            let (Some(view), Some(page)) = (view, expected) else {
                continue;
            };
            assert_eq!(
                (view.unit_slots(), view.oob_len()),
                (page.units.len(), page.oob.len())
            );
            assert_eq!(view.occupied_units(), page.occupied_units());
            assert!(view.intact());
            for (i, unit) in page.units.iter().enumerate() {
                assert_eq!(view.unit_crc(i), unit.as_ref().map(unit_checksum));
            }
            for (i, oob) in page.oob.iter().enumerate() {
                assert_eq!(view.oob(i), Some(*oob));
                assert_eq!(view.oob_crc(i), Some(oob_checksum(oob)));
            }
            assert_eq!(view.oob(page.oob.len()), None);
        }
        let walked: Vec<Ppn> = (0..total)
            .map(Ppn)
            .filter(|p| staged[p.0 as usize].is_some())
            .collect();
        assert!(flash.programmed_pages().map(|(ppn, _)| ppn).eq(walked));
        for from in (0..total).map(Ppn) {
            let naive = (0..total)
                .map(|off| Ppn((from.0 + off) % total))
                .find(|p| staged[p.0 as usize].is_some());
            assert_eq!(flash.next_programmed_from(from), naive, "from {from}");
        }
    });
}

/// Operation windows never run backwards on a die, and every program's
/// finish is strictly after its start.
#[test]
fn timing_is_monotone_per_die() {
    check("timing_is_monotone_per_die", 64, |rng| {
        let len = rng.range_usize(1, 59);
        let pages = soup(rng, len, |r| r.any_u8());
        let mut flash = array();
        let g = *flash.geometry();
        let mut last_finish_per_die = std::collections::HashMap::new();
        let mut cursor = vec![0u32; g.total_blocks() as usize];
        for raw in pages {
            let b = raw as u64 % g.total_blocks();
            let p = cursor[b as usize];
            if p >= g.pages_per_block {
                continue;
            }
            cursor[b as usize] += 1;
            let ppn = g.ppn_in_block(BlockId(b), p);
            let w = flash.program(ppn, content(1), SimTime::ZERO).unwrap();
            let die = g.die_of_block(BlockId(b));
            if let Some(prev) = last_finish_per_die.insert(die, w.finish) {
                assert!(w.finish > prev, "die timeline must advance");
            }
            assert!(w.finish > w.start);
        }
    });
}

#[derive(Debug, Clone, Copy)]
enum TimedOp {
    /// Program the cursor page of a block, issued `back_us` before the
    /// clock (callers book into the past as well as the future) — with
    /// the cursor page of its partner on the die's other plane as one
    /// group when `pair`.
    Program {
        block: u64,
        pair: bool,
        back_us: u64,
    },
    Read {
        block: u64,
        page: u32,
        back_us: u64,
    },
    Erase {
        block: u64,
        back_us: u64,
    },
    Advance {
        us: u64,
    },
}

/// Mostly the first block of each plane, so that planes of one die
/// often sit at one page index.
fn timed_op(rng: &mut TestRng) -> TimedOp {
    let block = if rng.chance(0.7) {
        rng.below(8)
    } else {
        rng.below(32)
    };
    let back_us = rng.below(300);
    match rng.weighted(&[10, 3, 1, 3]) {
        0 => TimedOp::Program {
            block,
            pair: rng.chance(0.5),
            back_us,
        },
        1 => TimedOp::Read {
            block,
            page: rng.range_u32(0, 7),
            back_us,
        },
        2 => TimedOp::Erase { block, back_us },
        _ => TimedOp::Advance {
            us: rng.below(1_500),
        },
    }
}

/// On a two-plane array, whatever the mix and order of programs — one
/// page, or a plane pair in one call — reads and erases: each die is
/// busy for exactly its senses, one tPROG per program call and its
/// erases, never longer than the span its bookings cover; every call
/// finishes its transfers and a tPROG after it started, every page of
/// a pair with it; a pair whose pages sit at two page indices is
/// refused and changes nothing; and what is stored is what a
/// cursor-per-block model programmed.
#[test]
fn a_die_programs_its_planes_at_once_and_books_only_what_it_does() {
    let (mut joined, mut refused) = (0u64, 0u64);
    check("a_die_programs_its_planes_at_once", 64, |rng| {
        let len = rng.range_usize(1, 299);
        let ops = soup(rng, len, timed_op);
        let g = FlashGeometry {
            channels: 2,
            dies_per_channel: 2,
            planes_per_die: 2,
            blocks_per_plane: 4,
            pages_per_block: 8,
            page_bytes: 4096,
        };
        // Block ids stripe channel, die, plane: the plane is bit 2.
        let partner = |block: u64| block ^ 4;
        let timing = FlashTiming::mlc();
        let xfer = timing.transfer_time(g.page_bytes as u64);
        let mut flash = FlashArray::new(g, timing);
        let dies = g.total_dies() as usize;
        // Per die: senses, tPROGs booked, erases.
        let mut booked = vec![(0u64, 0u64, 0u64); dies];
        let mut stored: Vec<Vec<PageContent>> = vec![Vec::new(); g.total_blocks() as usize];
        let (mut now, mut tag) = (0u64, 0u64);
        let at = |now: u64, back_us: u64| SimTime::from_nanos(now.saturating_sub(back_us * 1_000));

        for op in ops {
            match op {
                TimedOp::Program {
                    block,
                    pair,
                    back_us,
                } => {
                    let page = |b: u64| stored[b as usize].len() as u32;
                    let mut blocks = vec![block];
                    if pair && page(partner(block)) < g.pages_per_block {
                        blocks.push(partner(block));
                    }
                    if blocks.iter().any(|&b| page(b) == g.pages_per_block) {
                        continue;
                    }
                    let group: Vec<(Ppn, PageContent)> = blocks
                        .iter()
                        .map(|&b| {
                            tag += 1;
                            (g.ppn_in_block(BlockId(b), page(b)), content(tag))
                        })
                        .collect();
                    let joins = flash.counters().get(Counter::FlashMultiplanePrograms);
                    let result = flash.program_planes(&group, at(now, back_us));
                    if blocks.len() == 2 && page(block) != page(partner(block)) {
                        assert_eq!(result, Err(FlashError::NotAPlaneGroup(group[1].0)));
                        refused += 1;
                        continue;
                    }
                    let w = result.unwrap();
                    let pages = group.len() as u64;
                    assert!(
                        w.finish >= w.start + xfer * pages + timing.t_program,
                        "{w:?}"
                    );
                    assert_eq!(
                        flash.counters().get(Counter::FlashMultiplanePrograms) - joins,
                        pages - 1
                    );
                    joined += pages - 1;
                    booked[g.die_of_block(BlockId(block)) as usize].1 += 1;
                    for (&b, (_, c)) in blocks.iter().zip(group) {
                        stored[b as usize].push(c);
                    }
                }
                TimedOp::Read {
                    block,
                    page,
                    back_us,
                } => {
                    let ppn = g.ppn_in_block(BlockId(block), page);
                    flash.schedule_read(ppn, at(now, back_us)).unwrap();
                    booked[g.die_of_block(BlockId(block)) as usize].0 += 1;
                }
                TimedOp::Erase { block, back_us } => {
                    flash.erase(BlockId(block), at(now, back_us)).unwrap();
                    stored[block as usize].clear();
                    booked[g.die_of_block(BlockId(block)) as usize].2 += 1;
                }
                TimedOp::Advance { us } => now += us * 1_000,
            }
        }

        for (die, &(reads, progs, erases)) in flash.dies().zip(&booked) {
            let expected =
                timing.t_read * reads + timing.t_program * progs + timing.t_erase * erases;
            assert_eq!(die.busy_time(), expected);
            assert!(die.busy_time() <= die.span(), "double-booked: {die:?}");
        }
        let model = stored.iter().enumerate().flat_map(|(b, pages)| {
            (0u32..)
                .zip(pages)
                .map(move |(p, c)| (g.ppn_in_block(BlockId(b as u64), p), c.clone()))
        });
        assert!(flash
            .programmed_pages()
            .map(|(ppn, view)| (ppn, view.to_content()))
            .eq(model));
    });
    assert!(joined > 100, "the soup must program pairs: {joined}");
    assert!(refused > 10, "the soup must offer split pairs: {refused}");
}

#[test]
fn full_device_program_cycle() {
    // Program every page of the device in order, erase everything, repeat:
    // the array must accept exactly total_pages programs each cycle.
    let mut flash = array();
    let g = *flash.geometry();
    for cycle in 1..=3u64 {
        for b in 0..g.total_blocks() {
            for p in 0..g.pages_per_block {
                flash
                    .program(g.ppn_in_block(BlockId(b), p), content(cycle), SimTime::ZERO)
                    .unwrap();
            }
        }
        for b in 0..g.total_blocks() {
            flash.erase(BlockId(b), SimTime::ZERO).unwrap();
            assert_eq!(flash.erase_count(BlockId(b)), cycle);
        }
    }
    assert_eq!(
        flash.counters().total(Total::FlashProgram),
        3 * g.total_pages()
    );
}
