//! `#[cfg(test)] mod placement_tests` of `ftl.rs`: write points keep
//! their planes while GC recycles blocks in whatever order it frees them.

use super::tests::w;
use super::*;
use checkin_flash::{FlashGeometry, FlashTiming};
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
