//! Garbage-collection integration under sustained churn: data survives GC,
//! shared (remapped) units keep their aliases, and the paper's GC-count
//! ordering holds.

use checkin_core::{KvSystem, RunReport, Strategy, SystemConfig};
use checkin_flash::FlashGeometry;
use checkin_sim::{Counter, SimTime};

/// A deliberately small device so GC runs constantly.
fn pressured(strategy: Strategy) -> SystemConfig {
    let mut c = SystemConfig::for_strategy(strategy);
    c.total_queries = 30_000;
    c.threads = 8;
    c.workload.record_count = 300;
    c.workload.mix = checkin_workload::OpMix::WRITE_ONLY;
    c.journal_trigger_sectors = 2_048;
    c.geometry = FlashGeometry {
        channels: 2,
        dies_per_channel: 1,
        planes_per_die: 1,
        blocks_per_plane: 40,
        pages_per_block: 64,
        page_bytes: 4096,
    }; // 20 MiB
    c.gc_threshold_blocks = 4;
    c.gc_soft_threshold_blocks = 12;
    c
}

#[test]
fn data_survives_sustained_gc_churn() {
    for strategy in [Strategy::Baseline, Strategy::IscC, Strategy::CheckIn] {
        let mut system = KvSystem::new(pressured(strategy)).unwrap();
        let report = system.run().unwrap();
        assert!(
            report.counters.get(Counter::FtlGcInvocations) > 0,
            "{strategy}: config must force GC (got {})",
            report.counters
        );
        // Every record still readable at its committed version.
        let mut t = SimTime::from_nanos(u64::MAX / 2);
        for key in 0..300u64 {
            let (engine, ssd) = system.verify_parts();
            let r = engine.get(ssd, key, t).unwrap();
            t = r.finish;
        }
        system.ssd().ftl().check_invariants().unwrap();
    }
}

#[test]
fn checkin_invokes_less_gc_than_baseline() {
    let base = KvSystem::new(pressured(Strategy::Baseline))
        .unwrap()
        .run()
        .unwrap();
    let checkin = KvSystem::new(pressured(Strategy::CheckIn))
        .unwrap()
        .run()
        .unwrap();
    let gc = |r: &RunReport| r.counters.get(Counter::FtlGcInvocations);
    assert!(
        gc(&checkin) < gc(&base),
        "Check-In GC {} !< baseline GC {}",
        gc(&checkin),
        gc(&base)
    );
    // Fewer erases -> longer lifetime (Equation 1).
    assert!(checkin.lifetime_vs(&base) > 1.0);
}

#[test]
fn gc_preserves_remapped_aliases_end_to_end() {
    // Check-In remaps journal units into the data area; GC must migrate
    // those shared units without breaking either reference. The engine's
    // internal version check (debug_assert in get) plus invariants cover
    // this; run long enough that remapped units get relocated.
    let mut c = pressured(Strategy::CheckIn);
    c.total_queries = 50_000;
    let mut system = KvSystem::new(c).unwrap();
    let report = system.run().unwrap();
    assert!(report.remapped_entries > 0);
    assert!(
        report.counters.get(Counter::FtlGcUnitsMoved) > 0,
        "GC must have relocated units"
    );
    system.ssd().ftl().check_invariants().unwrap();
}

#[test]
fn erase_counts_stay_balanced_under_gc() {
    // Wear levelling: no block should absorb wildly more erases than the
    // mean (greedy victim selection tie-breaks on erase count).
    let mut system = KvSystem::new(pressured(Strategy::Baseline)).unwrap();
    system.run().unwrap();
    let flash = system.ssd().ftl().flash();
    let mean = flash.mean_erase_count();
    let max = flash.max_erase_count() as f64;
    assert!(mean > 0.0, "GC ran");
    assert!(
        max <= (mean * 8.0).max(8.0),
        "wear imbalance: max {max} vs mean {mean:.2}"
    );
}

#[test]
fn waf_ordering_matches_paper() {
    // Redundant checkpoint copies inflate flash programs per host byte:
    // baseline's WAF must exceed Check-In's.
    let base = KvSystem::new(pressured(Strategy::Baseline))
        .unwrap()
        .run()
        .unwrap();
    let checkin = KvSystem::new(pressured(Strategy::CheckIn))
        .unwrap()
        .run()
        .unwrap();
    assert!(
        base.waf > checkin.waf,
        "baseline waf {:.2} !> Check-In waf {:.2}",
        base.waf,
        checkin.waf
    );
}
