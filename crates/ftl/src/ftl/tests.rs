//! `#[cfg(test)] mod tests` of `ftl.rs`: the host path (write, read, remap,
//! trim, page-out, GC under churn) and the fixtures the sibling modules share.

use super::*;
use checkin_flash::{FlashGeometry, FlashTiming};
use checkin_sim::Progress;

/// Two dies, 512 B–4 KiB units (eight 512 B units to the page), two
/// write points.
pub(super) fn small_ftl(unit_bytes: u32) -> Ftl {
    let flash = FlashArray::new(FlashGeometry::small(), FlashTiming::mlc());
    Ftl::new(
        flash,
        FtlConfig {
            unit_bytes,
            write_points: 2,
            gc_threshold_blocks: 4,
            gc_soft_threshold_blocks: 8,
            write_buffer_units: 16,
            ..FtlConfig::default()
        },
    )
    .unwrap()
}

/// One die, 16 blocks of 8 one-unit (4 KiB) pages, one write point:
/// small enough that GC, wear leveling and retirement all happen within
/// a few hundred writes. The caller's `config` supplies the rest.
pub(super) fn single_die_ftl(config: FtlConfig) -> Ftl {
    let geometry = FlashGeometry {
        channels: 1,
        dies_per_channel: 1,
        planes_per_die: 1,
        blocks_per_plane: 16,
        pages_per_block: 8,
        page_bytes: 4096,
    };
    let config = FtlConfig {
        unit_bytes: 4096,
        write_points: 1,
        gc_threshold_blocks: 2,
        gc_soft_threshold_blocks: 4,
        ..config
    };
    Ftl::new(FlashArray::new(geometry, FlashTiming::mlc()), config).unwrap()
}

/// Whole-unit 4 KiB write of `lpn` at `version`.
pub(super) fn put(f: &mut Ftl, lpn: u64, version: u64) -> Result<SimTime, FtlError> {
    f.write(w(lpn, lpn, version, 4096), OobKind::Data, SimTime::ZERO)
}

/// A page's worth of 512 B units, lpns 0..8, paged out together: one
/// flash page holds them all.
pub(super) fn one_shared_page() -> (Ftl, Ppn) {
    let mut f = small_ftl(512);
    for lpn in 0..8 {
        f.write(w(lpn, lpn, 1, 512), OobKind::Data, SimTime::ZERO)
            .unwrap();
    }
    f.flush(SimTime::ZERO).unwrap();
    let page = f.flash_page_of(Lpn(0)).expect("flushed");
    assert!((0..8).all(|lpn| f.flash_page_of(Lpn(lpn)) == Some(page)));
    (f, page)
}

/// [`Ftl::read_span_into`] as its own command, every key wanted, issued
/// once the fixtures' programs are done: a page still programming would
/// be served from the write buffer, unsensed.
pub(super) fn read_span(
    f: &mut Ftl,
    first: u64,
    units: u64,
    out: &mut Vec<Fragment>,
) -> Result<SimTime, FtlError> {
    let sensed = &mut SensedPages::default();
    let idle = SimTime::ZERO + SimDuration::from_millis(10);
    f.read_span_into(Lpn(first), units, idle, None, sensed, out)
}

pub(super) fn w(lpn: u64, key: u64, version: u64, bytes: u32) -> UnitWrite {
    UnitWrite {
        lpn: Lpn(lpn),
        payload: UnitPayload::single(key, version, bytes),
        whole_unit: true,
    }
}

#[test]
fn write_then_read_from_buffer() {
    let mut f = small_ftl(512);
    f.write(w(0, 1, 1, 512), OobKind::Data, SimTime::ZERO)
        .unwrap();
    let (p, t) = f.read(Lpn(0), SimTime::ZERO).unwrap();
    assert_eq!(p.fragments[0].key, 1);
    assert_eq!(t, SimTime::ZERO, "buffer hit has no flash latency");
    f.check_invariants().unwrap();
}

#[test]
fn page_out_after_buffer_watermark() {
    let mut f = small_ftl(512);
    let upp = f.units_per_page() as u64; // 8
                                         // Watermark is 16 units: writing 4 pages' worth forces page-outs.
    for i in 0..upp * 4 {
        f.write(w(i, i, 1, 512), OobKind::Data, SimTime::ZERO)
            .unwrap();
    }
    assert!(f.flash().counters().total(Total::FlashProgram) >= 2);
    let (p, t) = f.read(Lpn(0), SimTime::from_nanos(0)).unwrap();
    assert_eq!(p.fragments[0].key, 0);
    assert!(t > SimTime::ZERO, "flash read has latency");
    f.check_invariants().unwrap();
}

#[test]
fn overwrite_invalidates_old_copy() {
    let mut f = small_ftl(512);
    for i in 0..16 {
        f.write(w(0, 7, i + 1, 512), OobKind::Data, SimTime::ZERO)
            .unwrap();
        // Flush so each version reaches flash and the next overwrite
        // invalidates a flash-resident copy.
        f.flush(SimTime::ZERO).unwrap();
    }
    let (p, _) = f.read(Lpn(0), SimTime::ZERO).unwrap();
    assert_eq!(p.fragments[0].version, 16, "latest version wins");
    assert!(f.counters().get(Counter::FtlInvalidUnits) > 0);
    f.check_invariants().unwrap();
}

#[test]
fn a_device_past_the_forward_word_is_refused() {
    // 1 024 blocks of 2^18 + 1 pages, eight 512 B units to the page:
    // 2^31 + 8 192 units, past the mapping table's limit. An erased
    // block owns no memory, so the array is cheap to build.
    let geometry = FlashGeometry {
        channels: 1,
        dies_per_channel: 1,
        planes_per_die: 1,
        blocks_per_plane: 1024,
        pages_per_block: (1 << 18) + 1,
        page_bytes: 4096,
    };
    let flash = FlashArray::new(geometry, FlashTiming::mlc());
    let config = FtlConfig {
        unit_bytes: 512,
        ..FtlConfig::default()
    };
    let units = geometry.total_pages() * 8;
    assert!(units > MappingTable::MAX_UNITS);
    assert_eq!(
        Ftl::new(flash, config).err(),
        Some(FtlConfigError::TooManyUnits(units, MappingTable::MAX_UNITS))
    );
}

#[test]
fn read_unmapped_errors() {
    let mut f = small_ftl(512);
    assert!(matches!(
        f.read(Lpn(5), SimTime::ZERO),
        Err(FtlError::Unmapped(Lpn(5)))
    ));
}

#[test]
fn remap_shares_physical_copy() {
    let mut f = small_ftl(512);
    f.write(w(100, 1, 3, 512), OobKind::Journal, SimTime::ZERO)
        .unwrap();
    f.flush(SimTime::ZERO).unwrap();
    f.remap(Lpn(0), Lpn(100)).unwrap();
    let (a, _) = f.read(Lpn(0), SimTime::ZERO).unwrap();
    let (b, _) = f.read(Lpn(100), SimTime::ZERO).unwrap();
    assert_eq!(a, b);
    assert_eq!(f.location_of(Lpn(0)), f.location_of(Lpn(100)));
    // Remap costs zero flash programs.
    let programs = f.flash().counters().total(Total::FlashProgram);
    assert_eq!(programs, 1);
    f.check_invariants().unwrap();
}

#[test]
fn remap_unmapped_source_fails() {
    let mut f = small_ftl(512);
    assert!(matches!(
        f.remap(Lpn(0), Lpn(9)),
        Err(FtlError::Unmapped(_))
    ));
}

#[test]
fn deallocate_journal_keeps_data_alias_alive() {
    let mut f = small_ftl(512);
    f.write(w(100, 1, 1, 512), OobKind::Journal, SimTime::ZERO)
        .unwrap();
    f.flush(SimTime::ZERO).unwrap();
    f.remap(Lpn(0), Lpn(100)).unwrap();
    assert!(f.deallocate(Lpn(100)));
    // Data alias still readable; no invalid unit was generated.
    let (p, _) = f.read(Lpn(0), SimTime::ZERO).unwrap();
    assert_eq!(p.fragments[0].key, 1);
    assert_eq!(f.counters().get(Counter::FtlInvalidUnits), 0);
    assert!(!f.deallocate(Lpn(100)), "already gone");
    f.check_invariants().unwrap();
}

#[test]
fn partial_write_merges_with_flash_copy() {
    let mut f = small_ftl(4096);
    // Unit holds keys 1 and 2.
    f.write(
        UnitWrite {
            lpn: Lpn(0),
            payload: UnitPayload::merged(vec![
                checkin_flash::Fragment {
                    key: 1,
                    version: 1,
                    bytes: 1024,
                },
                checkin_flash::Fragment {
                    key: 2,
                    version: 1,
                    bytes: 1024,
                },
            ]),
            whole_unit: true,
        },
        OobKind::Data,
        SimTime::ZERO,
    )
    .unwrap();
    f.flush(SimTime::ZERO).unwrap();
    // Partial update of key 2 only.
    f.write(
        UnitWrite {
            lpn: Lpn(0),
            payload: UnitPayload::single(2, 2, 1024),
            whole_unit: false,
        },
        OobKind::Data,
        SimTime::ZERO,
    )
    .unwrap();
    let (p, _) = f.read(Lpn(0), SimTime::ZERO).unwrap();
    let k1 = p.fragments.iter().find(|fr| fr.key == 1).unwrap();
    let k2 = p.fragments.iter().find(|fr| fr.key == 2).unwrap();
    assert_eq!(k1.version, 1);
    assert_eq!(k2.version, 2);
    assert_eq!(f.counters().get(Counter::FtlRmwReads), 1);
    f.check_invariants().unwrap();
}

#[test]
fn gc_reclaims_space_under_churn() {
    let mut f = small_ftl(512);
    // Small geometry: 64 blocks x 32 pages x 8 units = 16384 units.
    // Hammer 256 logical units with updates until GC must run.
    for round in 0..100u64 {
        for lpn in 0..256u64 {
            f.write(w(lpn, lpn, round + 1, 512), OobKind::Data, SimTime::ZERO)
                .unwrap();
        }
    }
    assert!(
        f.counters().get(Counter::FtlGcInvocations) > 0,
        "GC should trigger"
    );
    assert!(f.free_block_count() > 0);
    // Every unit readable at its latest version.
    for lpn in 0..256u64 {
        let (p, _) = f.read(Lpn(lpn), SimTime::ZERO).unwrap();
        assert_eq!(p.fragments[0].version, 100, "lpn {lpn}");
    }
    f.check_invariants().unwrap();
}

#[test]
fn gc_preserves_shared_references() {
    let mut f = small_ftl(512);
    f.write(w(1000, 5, 9, 512), OobKind::Journal, SimTime::ZERO)
        .unwrap();
    f.flush(SimTime::ZERO).unwrap();
    f.remap(Lpn(0), Lpn(1000)).unwrap();
    // Force churn so GC eventually relocates the shared unit's block.
    for round in 0..120u64 {
        for lpn in 1..200u64 {
            f.write(w(lpn, lpn, round + 1, 512), OobKind::Data, SimTime::ZERO)
                .unwrap();
        }
    }
    assert!(f.counters().get(Counter::FtlGcInvocations) > 0);
    let (a, _) = f.read(Lpn(0), SimTime::ZERO).unwrap();
    let (b, _) = f.read(Lpn(1000), SimTime::ZERO).unwrap();
    assert_eq!(a, b, "aliases stay identical across GC migration");
    assert_eq!(a.fragments[0].version, 9);
    f.check_invariants().unwrap();
}

#[test]
fn waf_exceeds_one_under_small_writes() {
    let mut f = small_ftl(4096);
    for i in 0..64u64 {
        // 512-byte host writes into 4 KiB units: heavy padding.
        f.write(
            UnitWrite {
                lpn: Lpn(i),
                payload: UnitPayload::single(i, 1, 512),
                whole_unit: false,
            },
            OobKind::Data,
            SimTime::ZERO,
        )
        .unwrap();
    }
    f.flush(SimTime::ZERO).unwrap();
    assert!(f.waf() > 1.0, "waf = {}", f.waf());
}

#[test]
fn flush_pads_partial_pages() {
    let mut f = small_ftl(512);
    f.write(w(0, 1, 1, 512), OobKind::Data, SimTime::ZERO)
        .unwrap();
    let done = f.flush(SimTime::ZERO).unwrap();
    assert!(done > SimTime::ZERO);
    assert_eq!(f.flash().counters().total(Total::FlashProgram), 1);
    let (p, _) = f.read(Lpn(0), SimTime::ZERO).unwrap();
    assert_eq!(p.fragments[0].key, 1);
    f.check_invariants().unwrap();
}

#[test]
fn out_of_space_when_all_valid() {
    let flash = FlashArray::new(
        FlashGeometry {
            channels: 1,
            dies_per_channel: 1,
            planes_per_die: 1,
            blocks_per_plane: 8,
            pages_per_block: 4,
            page_bytes: 4096,
        },
        FlashTiming::mlc(),
    );
    let mut f = Ftl::new(
        flash,
        FtlConfig {
            unit_bytes: 4096,
            write_points: 1,
            gc_threshold_blocks: 2,
            gc_soft_threshold_blocks: 2,
            write_buffer_units: 1,
            ..FtlConfig::default()
        },
    )
    .unwrap();
    // 8 blocks x 4 pages = 32 units; all distinct -> nothing reclaimable.
    let mut failed = false;
    for i in 0..40u64 {
        match f.write(w(i, i, 1, 4096), OobKind::Data, SimTime::ZERO) {
            Ok(_) => {}
            Err(FtlError::OutOfSpace) => {
                failed = true;
                break;
            }
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
    assert!(failed, "completely full device must report OutOfSpace");
}

#[test]
fn map_access_cost_reflects_live_entries() {
    let flash = FlashArray::new(FlashGeometry::small(), FlashTiming::mlc());
    let mut f = Ftl::new(
        flash,
        FtlConfig {
            unit_bytes: 512,
            write_points: 2,
            gc_threshold_blocks: 4,
            gc_soft_threshold_blocks: 8,
            map_cache_entries: Some(4),
            write_buffer_units: 16,
            ..FtlConfig::default()
        },
    )
    .unwrap();
    let cheap = f.map_walk_cost(1, 1);
    assert_eq!(cheap, MapCacheModel::HIT_COST);
    for i in 0..64 {
        f.write(w(i, i, 1, 512), OobKind::Data, SimTime::ZERO)
            .unwrap();
    }
    let access = f.map_cache().access_cost(f.live_entries());
    assert!(access > cheap);
    assert_eq!(f.map_walk_cost(1, 1), access);
    // The 64 entries just written share one segment: one miss, 63 hits.
    assert_eq!(f.map_walk_cost(64, 1), access + cheap * 63);
}

#[test]
fn background_gc_signal() {
    let f = small_ftl(512);
    assert!(!f.wants_background_gc(), "fresh device has headroom");
}

#[test]
fn merge_payload_replaces_matching_keys() {
    let old = UnitPayload::merged(vec![
        checkin_flash::Fragment {
            key: 1,
            version: 1,
            bytes: 100,
        },
        checkin_flash::Fragment {
            key: 2,
            version: 1,
            bytes: 100,
        },
    ]);
    let new = UnitPayload::single(2, 5, 100);
    let merged = merge_payload((&old).into(), &new);
    assert_eq!(merged.fragments.len(), 2);
    assert_eq!(
        merged
            .fragments
            .iter()
            .find(|f| f.key == 2)
            .unwrap()
            .version,
        5
    );
}

/// A [`single_die_ftl`] whose blocks 0–7 hold lpns 0..64 in order, the
/// even ones overwritten since: each of those blocks keeps four valid
/// units, the free pool stays above its reserve, and block 0 is the
/// next victim. Returns the FTL and an instant it is idle at.
fn half_stale_ftl() -> (Ftl, SimTime) {
    let mut f = single_die_ftl(FtlConfig {
        write_buffer_units: 1,
        ..FtlConfig::default()
    });
    for lpn in 0..64 {
        put(&mut f, lpn, 1).unwrap();
    }
    for lpn in (0..64).step_by(2) {
        put(&mut f, lpn, 2).unwrap();
    }
    let idle = f.flush(SimTime::ZERO).unwrap() + SimDuration::from_millis(10);
    (f, idle)
}

/// The lpns mapped into `block`.
fn lpns_in(f: &Ftl, block: BlockId) -> Vec<u64> {
    f.mapping_iter()
        .filter_map(|(lpn, loc)| match loc {
            Location::Flash(pun) if f.block_of(pun) == block => Some(lpn.0),
            _ => None,
        })
        .collect()
}

#[test]
fn a_paced_round_moves_only_what_is_still_referenced() {
    let (mut f, idle) = half_stale_ftl();
    let reads = |f: &Ftl| f.flash().counters().total(Total::FlashRead);
    let moved = |f: &Ftl| f.counters().get(Counter::FtlGcUnitsMoved);
    let first = f.begin_gc_round(idle, GcTrigger::Background).unwrap();
    assert_eq!(first, Some(idle));
    let victim = f.gc.map(|round| round.victim).unwrap();
    let stale = lpns_in(&f, victim);
    assert_eq!(stale, [1, 3, 5, 7]);
    let (before, erased) = (reads(&f), f.flash().erase_count(victim));
    let Progress::PumpAt(lands) = f.pump_gc(idle).unwrap() else {
        panic!("the victim holds valid units");
    };
    assert_eq!(reads(&f) - before, 1, "one read in flight");
    assert_eq!(moved(&f), 0, "nothing moves before its page lands");
    // Every unit the victim holds is overwritten before the read lands:
    // the round moves none of them and reads no other page.
    for &lpn in &stale {
        f.write(w(lpn, lpn, 3, 4096), OobKind::Data, idle).unwrap();
    }
    assert_eq!(f.gc_due(), Some(lands));
    let end = f.finish_gc_round().unwrap().expect("the round was running");
    assert_eq!(moved(&f), 0);
    assert_eq!(reads(&f) - before, 1);
    assert_eq!(f.flash().erase_count(victim), erased + 1);
    assert_eq!(f.gc_due(), None);
    f.check_invariants().unwrap();
    for lpn in 0..64 {
        let version = if stale.contains(&lpn) { 3 } else { 2 - lpn % 2 };
        let (p, _) = f.read(Lpn(lpn), end).unwrap();
        assert_eq!(p.fragments[0].version, version, "lpn {lpn}");
    }
}

#[test]
fn a_round_in_flight_is_finished_before_another_begins() {
    let (mut f, idle) = half_stale_ftl();
    let invocations = |f: &Ftl| f.counters().get(Counter::FtlGcInvocations);
    f.begin_gc_round(idle, GcTrigger::Background).unwrap();
    let Progress::PumpAt(due) = f.pump_gc(idle).unwrap() else {
        panic!("the victim holds valid units");
    };
    let refused = f.begin_gc_round(due, GcTrigger::Background);
    assert!(
        matches!(refused, Err(FtlError::Inconsistent(_))),
        "{refused:?}"
    );
    // A one-call round finishes the round in flight instead of opening
    // a second victim.
    let end = f.run_gc_round(due, GcTrigger::Foreground).unwrap();
    assert!(end.is_some_and(|end| end > due));
    assert_eq!(invocations(&f), 1);
    assert_eq!(f.counters().get(Counter::FtlGcForeground), 0);
    assert_eq!(f.counters().get(Counter::FtlGcUnitsMoved), 4);
    assert_eq!(f.gc_due(), None);
    let pumped = f.pump_gc(due);
    assert!(
        matches!(pumped, Err(FtlError::Inconsistent(_))),
        "{pumped:?}"
    );
    f.check_invariants().unwrap();
    // Begun, then pumped at each instant it asks for, a round ends where
    // the one-call round ends, with the same counters.
    let (mut once, idle) = half_stale_ftl();
    let end = once.run_gc_round(idle, GcTrigger::Background).unwrap();
    let (mut f, idle) = half_stale_ftl();
    let first = f.begin_gc_round(idle, GcTrigger::Background).unwrap();
    let stepped = Progress::PumpAt(first.expect("a victim")).finish(|now| {
        assert_eq!(f.gc_due(), Some(now));
        f.pump_gc(now)
    });
    assert_eq!(stepped.ok(), end);
    assert_eq!(f.counters(), once.counters());
    assert_eq!(f.flash().counters(), once.flash().counters());
}
