//! `#[cfg(test)] mod placement_tests` of `ftl.rs`: write points keep
//! their planes while GC recycles blocks in whatever order it frees them,
//! a die's write points advance in lockstep, a multi-plane page per
//! page-out, and each page-out goes to the die that can start its
//! program first.

use super::tests::w;
use super::*;
use checkin_flash::{FaultConfig, FaultPlan, FlashGeometry, FlashTiming};
use checkin_sim::SimDuration;
use checkin_testkit::{check, soup};

#[derive(Debug, Clone, Copy)]
enum Op {
    Write(u64),
    Trim(u64),
    Flush,
}

/// 64 blocks of 8 pages on four dies of `planes_per_die` planes, one
/// write point per plane, 512 B units: GC starts within a device's worth
/// of writes.
fn pressured(planes_per_die: u32) -> Ftl {
    let geometry = FlashGeometry {
        channels: 2,
        dies_per_channel: 2,
        planes_per_die,
        blocks_per_plane: 16 / planes_per_die,
        pages_per_block: 8,
        page_bytes: 4096,
    };
    let config = FtlConfig {
        unit_bytes: 512,
        write_points: geometry.total_planes() as u32,
        gc_threshold_blocks: 4,
        gc_soft_threshold_blocks: 8,
        write_buffer_units: 16,
        ..FtlConfig::default()
    };
    Ftl::new(FlashArray::new(geometry, FlashTiming::mlc()), config).unwrap()
}

/// Write points whose open block lies on another write point's plane.
fn off_plane_write_points(f: &Ftl) -> u64 {
    let g = f.flash.geometry();
    let off = f
        .pool
        .open_blocks()
        .filter(|&(wp, block)| g.plane_of_block(block) != wp as u64 % g.total_planes());
    off.count() as u64
}

/// A soup of writes, trims and flushes over half of the units, on
/// one- and two-plane dies. After every operation the FTL is consistent,
/// and a write point is off its plane only if an open counted under
/// `ftl.off_plane_opens` put it there: when the counter did not move,
/// no more write points are off their planes than before.
#[test]
fn write_points_keep_their_planes_under_gc() {
    for planes_per_die in [1, 2] {
        check("write_points_keep_their_planes_under_gc", 3, |rng| {
            let mut f = pressured(planes_per_die);
            let lpns = f.flash.geometry().total_pages() * u64::from(f.upp) * 5 / 10;
            let ops = soup(rng, 12_000, |rng| match rng.weighted(&[90, 8, 2]) {
                0 => Op::Write(rng.below(lpns)),
                1 => Op::Trim(rng.below(lpns)),
                _ => Op::Flush,
            });
            let mut now = SimTime::ZERO;
            let (mut off, mut opened) = (0, 0);
            let mut open: Vec<(usize, BlockId)> = f.pool.open_blocks().collect();
            let mut reopens_after_gc = 0;
            for (i, op) in (0u64..).zip(ops) {
                match op {
                    Op::Write(lpn) => {
                        now = f.write(w(lpn, lpn, i, 512), OobKind::Data, now).unwrap();
                    }
                    Op::Trim(lpn) => {
                        f.deallocate(Lpn(lpn));
                    }
                    Op::Flush => now = f.flush(now).unwrap(),
                }
                f.check_invariants()
                    .unwrap_or_else(|e| panic!("op {i} ({op:?}): {e}"));
                let off_now = off_plane_write_points(&f);
                let opened_now = f.counters.get(Counter::FtlOffPlaneOpens);
                assert!(
                    off_now <= off + (opened_now - opened),
                    "op {i} ({op:?}): {off_now} write points off their planes, \
                     {off} before and {} off-plane opens since",
                    opened_now - opened
                );
                (off, opened) = (off_now, opened_now);
                let now_open: Vec<(usize, BlockId)> = f.pool.open_blocks().collect();
                if f.counters.get(Counter::FtlGcInvocations) > 0 {
                    reopens_after_gc += now_open.iter().filter(|o| !open.contains(o)).count();
                }
                open = now_open;
            }
            assert!(
                reopens_after_gc >= 100,
                "{planes_per_die}-plane dies: {reopens_after_gc} reopens after GC"
            );
        });
    }
}

/// Sixteen write points — one per plane of eight two-plane dies, as on
/// the paper device — over a hard threshold of two blocks. A foreground
/// GC round may roll every write point over to a new block, its own
/// page-outs included, so foreground GC keeps a reserve of one block per
/// write point: an overwrite soup at 80 % of capacity never finds the
/// free pool empty.
#[test]
fn foreground_gc_keeps_a_block_per_write_point() {
    check("foreground_gc_keeps_a_block_per_write_point", 3, |rng| {
        let geometry = FlashGeometry {
            channels: 4,
            dies_per_channel: 2,
            planes_per_die: 2,
            blocks_per_plane: 6,
            pages_per_block: 8,
            page_bytes: 4096,
        };
        let config = FtlConfig {
            unit_bytes: 512,
            write_points: geometry.total_planes() as u32,
            gc_threshold_blocks: 2,
            gc_soft_threshold_blocks: 4,
            write_buffer_units: 16,
            ..FtlConfig::default()
        };
        let mut f = Ftl::new(FlashArray::new(geometry, FlashTiming::mlc()), config).unwrap();
        assert!(config.write_points > config.gc_threshold_blocks);
        let lpns = geometry.total_pages() * u64::from(f.upp) * 8 / 10;
        let mut now = SimTime::ZERO;
        for i in 0..20_000u64 {
            let lpn = rng.below(lpns);
            now = f
                .write(w(lpn, lpn, i, 512), OobKind::Data, now)
                .unwrap_or_else(|e| panic!("write {i}: {e} with {} free", f.free_block_count()));
        }
        assert!(f.counters.get(Counter::FtlGcInvocations) > 0);
        f.check_invariants().unwrap();
    });
}

/// Groups whose write points are not all at one page index (nor all
/// without a block).
fn groups_out_of_step(f: &Ftl) -> usize {
    let cursors = |g| f.pool.group(g).iter().map(|&wp| f.pool.cursor(wp));
    (0..f.pool.groups())
        .filter(|&g| cursors(g).zip(cursors(g).skip(1)).any(|(a, b)| a != b))
        .count()
}

/// The soup of [`write_points_keep_their_planes_under_gc`] on two-plane
/// dies. A die's write points stay at one page index unless an
/// off-plane open or a retirement moved one: when neither counter moved
/// in an operation, no more groups are out of step after it than
/// before. Until the first such move — the first time the free pool
/// runs short, a device's worth of programs in — every page-out was one
/// multi-plane program: exactly half the pages rode a partner's tPROG.
#[test]
fn a_dies_write_points_stay_at_one_page_index() {
    let mut in_step_programs = 0;
    check("a_dies_write_points_stay_at_one_page_index", 3, |rng| {
        let mut f = pressured(2);
        assert_eq!(f.pool.groups(), 4, "one group per die");
        let lpns = f.flash.geometry().total_pages() * u64::from(f.upp) * 5 / 10;
        let ops = soup(rng, 12_000, |rng| match rng.weighted(&[90, 8, 2]) {
            0 => Op::Write(rng.below(lpns)),
            1 => Op::Trim(rng.below(lpns)),
            _ => Op::Flush,
        });
        let moves = |f: &Ftl| {
            f.counters.get(Counter::FtlOffPlaneOpens) + f.counters.get(Counter::FtlBlocksRetired)
        };
        let pairs = |f: &Ftl| {
            let flash = f.flash.counters();
            (
                flash.total(Total::FlashProgram),
                flash.get(Counter::FlashMultiplanePrograms),
            )
        };
        let (mut now, mut out, mut moved) = (SimTime::ZERO, 0, 0);
        let mut before_any_move = (0, 0);
        for (i, op) in (0u64..).zip(ops) {
            match op {
                Op::Write(lpn) => {
                    now = f.write(w(lpn, lpn, i, 512), OobKind::Data, now).unwrap();
                }
                Op::Trim(lpn) => {
                    f.deallocate(Lpn(lpn));
                }
                Op::Flush => now = f.flush(now).unwrap(),
            }
            let (out_now, moved_now) = (groups_out_of_step(&f), moves(&f));
            assert!(
                moved_now > moved || out_now <= out,
                "op {i} ({op:?}): {out_now} groups out of step, {out} before, nothing moved"
            );
            if moved_now == 0 {
                assert_eq!(out_now, 0, "op {i} ({op:?})");
                before_any_move = pairs(&f);
            }
            (out, moved) = (out_now, moved_now);
        }
        assert!(f.counters.get(Counter::FtlGcInvocations) > 0);
        let (programs, multiplane) = before_any_move;
        assert_eq!(2 * multiplane, programs, "every page-out one pair");
        in_step_programs += programs;
    });
    assert!(
        in_step_programs > 1_000,
        "{in_step_programs} programs in step"
    );
}

/// `dies` dies (one, or four on two channels) of two planes, one write
/// point per plane, one 4 KiB unit to the page and a two-unit watermark:
/// every second write pages a plane pair out.
fn two_plane_dies(dies: u32) -> Ftl {
    let channels = dies.min(2);
    let geometry = FlashGeometry {
        channels,
        dies_per_channel: dies / channels,
        planes_per_die: 2,
        blocks_per_plane: 8,
        pages_per_block: 8,
        page_bytes: 4096,
    };
    let config = FtlConfig {
        unit_bytes: 4096,
        write_points: 2 * dies,
        write_buffer_units: 2,
        gc_threshold_blocks: 2,
        gc_soft_threshold_blocks: 4,
        ..FtlConfig::default()
    };
    Ftl::new(FlashArray::new(geometry, FlashTiming::mlc()), config).unwrap()
}

/// Writes `lpns` as whole 4 KiB units at `at`.
fn write_pages(f: &mut Ftl, lpns: std::ops::Range<u64>, at: SimTime) {
    for lpn in lpns {
        f.write(w(lpn, lpn, 1, 4096), OobKind::Data, at).unwrap();
    }
}

/// 2N page-filling writes book N tPROGs, one per page-out, even on a die
/// idle throughout: the pair shares its tPROG because one call carries
/// both pages, not because the second arrived before the first started.
#[test]
fn page_filling_writes_book_one_tprog_per_plane_pair() {
    let t = FlashTiming::mlc();
    for n in [1u64, 5, 12] {
        let mut f = two_plane_dies(1);
        let tracer = Tracer::ring_buffered(256);
        f.set_tracer(tracer.clone());
        // Each pair lands long after the previous one is done.
        for i in 0..n {
            let at = SimTime::ZERO + SimDuration::from_millis(10 * i);
            write_pages(&mut f, 2 * i..2 * i + 2, at);
        }
        assert_eq!(f.flash().die_busy_time(), t.t_program * n, "{n} pairs");
        let c = f.flash().counters();
        assert_eq!(
            (
                c.total(Total::FlashProgram),
                c.get(Counter::FlashMultiplanePrograms)
            ),
            (2 * n, n)
        );
        // Each page is its own page-out event, and both of a pair finish
        // together.
        let finishes: Vec<u64> = tracer
            .drain()
            .iter()
            .filter(|e| e.op == "page_out")
            .map(|e| e.fields().iter().find(|f| f.0 == "finish_ns").unwrap().1)
            .collect();
        assert_eq!(finishes.len() as u64, 2 * n);
        assert!(finishes.chunks(2).all(|p| p[0] == p[1]), "{finishes:?}");
        f.check_invariants().unwrap();
    }
}

/// The die each group of write points programs on, by group.
fn group_dies(f: &Ftl) -> Vec<u64> {
    let g = f.flash.geometry();
    let plane = |group| f.pool.group(group)[0] as u64 % g.total_planes();
    (0..f.pool.groups())
        .map(|group| g.die_of_block(BlockId(plane(group))))
        .collect()
}

/// The die of each page-out `tracer` saw since it was last drained (a
/// pair's two `page_out` events name one die).
fn page_out_dies(f: &Ftl, tracer: &Tracer) -> Vec<u64> {
    let g = f.flash.geometry();
    let dies: Vec<u64> = tracer
        .drain()
        .iter()
        .filter(|e| e.op == "page_out")
        .map(|e| e.fields().iter().find(|f| f.0 == "block").unwrap().1)
        .map(|block| g.die_of_block(BlockId(block)))
        .collect();
    assert!(dies.chunks(2).all(|pair| pair[0] == pair[1]), "{dies:?}");
    dies.into_iter().step_by(2).collect()
}

/// Erases, at `at`, the last block of `die`: one no write point has
/// opened.
fn erase_on(f: &mut Ftl, die: u64, at: SimTime) {
    let g = *f.flash.geometry();
    let block = (0..g.total_blocks())
        .rev()
        .map(BlockId)
        .find(|&b| g.die_of_block(b) == die)
        .unwrap();
    f.flash_mut().erase(block, at).unwrap();
}

/// On a device idle at every page-out, the page-outs visit the groups
/// in turn, from group 0: every die is a tie, and ties go to rotation
/// order.
#[test]
fn an_idle_device_pages_out_in_rotation_order() {
    let mut f = two_plane_dies(4);
    let tracer = Tracer::ring_buffered(256);
    f.set_tracer(tracer.clone());
    let dies = group_dies(&f);
    assert_eq!(dies, [0, 2, 1, 3], "groups in write-point order");
    for i in 0..10 {
        let at = SimTime::ZERO + SimDuration::from_millis(10 * i);
        write_pages(&mut f, 2 * i..2 * i + 2, at);
    }
    let expected: Vec<u64> = dies.iter().copied().cycle().take(10).collect();
    assert_eq!(page_out_dies(&f, &tracer), expected);
    f.check_invariants().unwrap();
}

/// The rotation's next die is erasing: the page-out goes to the next
/// die in rotation order, which is idle, and starts its tPROG as soon as
/// its pages are across the channel.
#[test]
fn a_page_out_skips_a_die_busy_with_an_erase() {
    let t = FlashTiming::mlc();
    let mut f = two_plane_dies(4);
    let tracer = Tracer::ring_buffered(256);
    f.set_tracer(tracer.clone());
    let dies = group_dies(&f);
    erase_on(&mut f, dies[0], SimTime::ZERO);
    write_pages(&mut f, 0..2, SimTime::ZERO);
    let events = tracer.drain();
    let finish = events
        .iter()
        .find(|e| e.op == "page_out")
        .map(|e| e.fields().iter().find(|f| f.0 == "finish_ns").unwrap().1)
        .unwrap();
    assert_eq!(
        SimTime::from_nanos(finish),
        SimTime::ZERO + t.transfer_time(4096) * 2 + t.t_program,
        "no wait for the erase"
    );
    let g = *f.flash.geometry();
    let page = f.flash_page_of(Lpn(0)).unwrap();
    assert_eq!(g.die_of_block(g.block_of(page)), dies[1]);
    write_pages(&mut f, 2..6, SimTime::ZERO);
    assert_eq!(page_out_dies(&f, &tracer), [dies[2], dies[3]]);
    f.check_invariants().unwrap();
}

/// Every die erasing until one instant: each is a tie, and the tie goes
/// to the group after the last one chosen.
#[test]
fn ties_go_to_rotation_order() {
    let mut f = two_plane_dies(4);
    let tracer = Tracer::ring_buffered(256);
    f.set_tracer(tracer.clone());
    let dies = group_dies(&f);
    write_pages(&mut f, 0..2, SimTime::ZERO);
    let at = SimTime::ZERO + SimDuration::from_millis(10);
    for &die in &dies {
        erase_on(&mut f, die, at);
    }
    write_pages(&mut f, 2..10, at);
    assert_eq!(
        page_out_dies(&f, &tracer),
        [dies[0], dies[1], dies[2], dies[3], dies[0]]
    );
    f.check_invariants().unwrap();
}

/// A page-out with less than a pair buffered — a flush — pads the second
/// page, so the die's write points stay at one page index.
#[test]
fn a_short_page_out_pads_its_pair() {
    let mut f = two_plane_dies(1);
    write_pages(&mut f, 0..1, SimTime::ZERO);
    f.flush(SimTime::ZERO).unwrap();
    let c = f.flash().counters();
    assert_eq!(
        (
            c.total(Total::FlashProgram),
            c.get(Counter::FlashMultiplanePrograms)
        ),
        (2, 1)
    );
    assert_eq!((f.pool.cursor(0), f.pool.cursor(1)), (Some(1), Some(1)));
    assert_eq!(f.read(Lpn(0), SimTime::ZERO).unwrap().0.fragments[0].key, 0);
    f.check_invariants().unwrap();
}

/// A grown defect on the second page of a pair: the pair programs
/// nothing, the first write point gets its page back, the defective block
/// retires, and the batch drains to healthy blocks with nothing lost.
#[test]
fn a_grown_bad_block_in_a_pair_gives_its_partner_its_page_back() {
    // The first seed whose draws grow a defect on exactly the second
    // page of the second pair.
    let (mut f, first, bad) = (0..200)
        .find_map(|seed| {
            let mut f = two_plane_dies(1);
            write_pages(&mut f, 0..2, SimTime::ZERO);
            let first = f.flash_page_of(Lpn(0)).unwrap();
            let open: Vec<(usize, BlockId)> = f.pool.open_blocks().collect();
            f.flash_mut().arm_faults(FaultPlan::new(FaultConfig {
                seed,
                grown_bad_block: 0.3,
                ..FaultConfig::default()
            }));
            write_pages(&mut f, 2..4, SimTime::ZERO);
            f.flash_mut()
                .arm_faults(FaultPlan::new(FaultConfig::default()));
            let bad = open.get(1)?.1;
            let first_block = f.flash().geometry().block_of(first);
            (f.counters().get(Counter::FtlBlocksRetired) == 1
                && f.flash().is_bad_block(bad)
                && f.flash().write_cursor(first_block) == 2)
                .then_some((f, first, bad))
        })
        .expect("some seed grows a defect on the second page only");
    let g = *f.flash().geometry();
    // Nothing of the failed pair landed on the defective block, and the
    // first write point reused the page it was given back.
    assert_eq!(f.flash().write_cursor(bad), 1);
    assert_eq!(
        f.flash_page_of(Lpn(2)),
        Some(g.ppn_in_block(g.block_of(first), 1))
    );
    f.flush(SimTime::ZERO).unwrap();
    for lpn in 0..4 {
        assert_eq!(
            f.read(Lpn(lpn), SimTime::ZERO).unwrap().0.fragments[0].key,
            lpn
        );
        assert_ne!(f.flash_page_of(Lpn(lpn)).map(|p| g.block_of(p)), Some(bad));
    }
    f.check_invariants().unwrap();
}

/// One tR senses at most one page per plane of its die, at one page
/// index: a page rides a tR only when every page already in it is on
/// another plane of its die at its index.
#[test]
fn a_tr_carries_one_page_per_plane() {
    let g = FlashGeometry::paper_default();
    // Die 0 of channel 0: blocks 0 and 16 on plane 0, 8 and 24 on plane 1.
    let ppn = |block, page| g.ppn_in_block(BlockId(block), page);
    let t = |us| SimTime::ZERO + SimDuration::from_micros(us);
    let sensed_at = |page, tr: Option<SimTime>, finish| Sensed {
        page,
        issued: t(0),
        tr,
        finish,
        erases: 0,
    };
    let mut sensed = SensedPages {
        pages: vec![sensed_at(ppn(0, 3), Some(t(10)), t(60))],
    };
    let partner = |sensed: &SensedPages, page| sensed.partner_of(page, &g, t(0));
    assert_eq!(partner(&sensed, ppn(8, 3)), Some((ppn(0, 3), t(10))));
    assert_eq!(partner(&sensed, ppn(16, 3)), None, "plane 0 is taken");
    assert_eq!(partner(&sensed, ppn(8, 4)), None, "another page index");
    // A read issued later does not join a tR an earlier one started.
    assert_eq!(sensed.partner_of(ppn(8, 3), &g, t(1)), None);
    sensed.pages.push(sensed_at(ppn(8, 3), Some(t(10)), t(65)));
    assert_eq!(partner(&sensed, ppn(24, 3)), None, "both planes taken");
    // A page the write buffer served was never sensed: no tR to ride.
    sensed.pages = vec![sensed_at(ppn(0, 3), None, t(0))];
    assert_eq!(partner(&sensed, ppn(8, 3)), None);
}

/// A page a command sensed stays in its read buffer across the instants
/// its reads are issued at — until its block is erased: a later read of
/// the page is then sensed again.
#[test]
fn a_page_erased_between_two_gather_steps_is_sensed_again() {
    let g = FlashGeometry::paper_default();
    let page = g.ppn_in_block(BlockId(0), 3);
    let t = |us| SimTime::ZERO + SimDuration::from_micros(us);
    let mut sensed = SensedPages::default();
    let mut senses = 0;
    let mut read = |sensed: &mut SensedPages, at, erases| {
        sensed
            .finish_of(page, &g, at, erases, |_| {
                senses += 1;
                Ok((Some(at), at + SimDuration::from_micros(60)))
            })
            .unwrap()
    };
    assert_eq!(read(&mut sensed, t(0), 4), t(60));
    assert_eq!(read(&mut sensed, t(100), 4), t(60), "a read-buffer hit");
    assert_eq!(read(&mut sensed, t(200), 5), t(260), "erased: sensed again");
    assert_eq!(read(&mut sensed, t(300), 5), t(260));
    assert_eq!(senses, 2);
    assert_eq!(sensed.pages.len(), 1);
}
