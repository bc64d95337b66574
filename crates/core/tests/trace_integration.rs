//! Cross-layer tracing and metrics-accounting integration tests.
//!
//! These exercise the observability subsystem end to end (engine →
//! journal → queue → ISCE → FTL → flash) and pin the accounting fixes:
//! quota-remainder distribution, NaN amplification on read-only runs,
//! per-phase checkpoint attribution, and timeline contiguity.

use checkin_core::{KvSystem, Strategy, SystemConfig};
use checkin_flash::{FaultConfig, FaultPlan, FlashGeometry, OpPhase};
use checkin_sim::{Counter, Total, TraceLayer, Tracer};
use checkin_workload::OpMix;

fn quick_config(strategy: Strategy) -> SystemConfig {
    let mut c = SystemConfig::for_strategy(strategy);
    c.total_queries = 3_000;
    c.threads = 8;
    c.workload.record_count = 400;
    c.journal_trigger_sectors = 1_024;
    c.geometry = FlashGeometry {
        channels: 2,
        dies_per_channel: 2,
        planes_per_die: 1,
        blocks_per_plane: 64,
        pages_per_block: 64,
        page_bytes: 4096,
    };
    c.gc_threshold_blocks = 4;
    c.gc_soft_threshold_blocks = 16;
    c
}

#[test]
fn traced_run_covers_all_six_layers() {
    let mut system = KvSystem::new(quick_config(Strategy::CheckIn)).unwrap();
    let tracer = Tracer::ring_buffered(200_000);
    system.set_tracer(tracer.clone());
    let report = system.run().unwrap();
    assert!(report.checkpoints > 0, "run must checkpoint to cover ISCE");

    let events = tracer.drain();
    assert!(!events.is_empty());
    for layer in TraceLayer::all() {
        assert!(
            events.iter().any(|e| e.layer == layer),
            "no event from layer {:?}",
            layer
        );
    }
    // Sequence numbers are strictly increasing in drain order (single
    // ring, stamped at push).
    assert!(events.windows(2).all(|w| w[0].seq < w[1].seq));
    // Every event renders as a well-formed JSON object line.
    for e in events.iter().take(500) {
        let line = e.to_json_line();
        assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        assert!(line.contains("\"layer\":"), "{line}");
    }
}

#[test]
fn disabled_tracer_emits_nothing_and_changes_nothing() {
    let with_tracer = {
        let mut system = KvSystem::new(quick_config(Strategy::IscB)).unwrap();
        system.set_tracer(Tracer::ring_buffered(100_000));
        system.run().unwrap()
    };
    let without = KvSystem::new(quick_config(Strategy::IscB))
        .unwrap()
        .run()
        .unwrap();
    // Tracing must be observer-only: identical simulated results.
    assert_eq!(with_tracer.elapsed, without.elapsed);
    assert_eq!(with_tracer.counters, without.counters);
    assert_eq!(with_tracer.checkpoints, without.checkpoints);

    let tracer = Tracer::disabled();
    assert!(!tracer.is_enabled());
    assert!(tracer.drain().is_empty());
}

#[test]
fn phase_attribution_reconciles_for_every_strategy() {
    for strategy in Strategy::all() {
        // Long enough that every strategy's checkpoints fill and program
        // a page inside their own window: with overlapping commands the
        // default 3 000 queries end before ISC-C's first one does.
        let mut config = quick_config(strategy);
        config.total_queries = 12_000;
        let report = KvSystem::new(config).unwrap().run().unwrap();
        assert!(report.checkpoints > 0, "{strategy}");
        let p = &report.checkpoint_phases;
        assert_eq!(
            p.flash_programs(),
            report.checkpoint_flash_programs,
            "{strategy}: per-phase programs must sum to the aggregate"
        );
        assert_eq!(
            p.flash_reads(),
            report.checkpoint_flash_reads,
            "{strategy}: per-phase reads must sum to the aggregate"
        );
        assert_eq!(
            p.other.total(),
            0,
            "{strategy}: no checkpoint flash op may be unattributed"
        );
        // Data movement happened somewhere: remap, copy, or meta.
        assert!(
            p.remap.programs + p.copy.programs + p.meta.programs > 0,
            "{strategy}"
        );
        // Remapping strategies do their movement in the remap phase.
        if matches!(strategy, Strategy::IscC | Strategy::CheckIn) {
            assert!(report.remapped_entries > 0, "{strategy}");
        }
    }
}

/// Every layer counts under its own prefix only, and both conservation
/// laws hold on the final sets, after a run with media faults armed, the
/// scrubber on and checkpoints taken, and a scrub pass over planted rot. (Analyzer rule A3 held the first
/// line "at zero" for the ftl crate and A7 policed the last; the counter
/// schema carries both now, and this is the end-to-end witness.)
#[test]
fn each_layer_counts_under_its_own_prefix_and_totals_balance() {
    let mut config = quick_config(Strategy::CheckIn);
    config.scrub_pages_per_idle = 64;
    let mut system = KvSystem::new(config).unwrap();
    let (_, ssd) = system.verify_parts();
    let faults = FaultConfig {
        seed: 7,
        transient_read: 0.01,
        transient_program: 0.01,
        ..FaultConfig::default()
    };
    ssd.ftl_mut().flash_mut().arm_faults(FaultPlan::new(faults));
    let report = system.run().unwrap();
    assert!(report.checkpoints > 0 && report.counters.get(Counter::FtlMediaRetries) > 0);
    // Rot three stored units and let the scrubber find them.
    let (_, ssd) = system.verify_parts();
    let flash = ssd.ftl_mut().flash_mut();
    let pages: Vec<_> = flash.programmed_pages().map(|(ppn, _)| ppn).collect();
    for &ppn in pages.iter().step_by(pages.len() / 3).take(3) {
        assert!(flash.sabotage_corrupt_unit(ppn, 0, 1 << 9));
    }
    let idle = ssd.idle_at();
    ssd.background_scrub(idle, pages.len() as u32).unwrap();

    let ftl = system.ssd().ftl();
    for (prefix, set) in [
        ("engine.", system.engine().counters()),
        ("ssd.", system.ssd().counters()),
        ("ftl.", ftl.counters()),
        ("flash.", ftl.flash().counters()),
    ] {
        assert!(!set.is_empty(), "{prefix}* never bumped");
        for (name, _) in set.iter() {
            assert!(
                name.starts_with(prefix),
                "{name} counted in the {prefix}* set"
            );
        }
    }

    let flash = ftl.flash().counters();
    for (total, counter_of) in [
        (
            Total::FlashProgram,
            OpPhase::program_counter as fn(OpPhase) -> Counter,
        ),
        (Total::FlashRead, OpPhase::read_counter),
        (Total::FlashErase, OpPhase::erase_counter),
    ] {
        let by_phase: u64 = OpPhase::ALL.iter().map(|&p| flash.get(counter_of(p))).sum();
        assert_eq!(by_phase, flash.total(total), "{total:?}");
    }
    assert!(flash.get(Counter::FlashReadScrub) > 0, "the scrubber ran");
    let detected = ftl.counters().total(Total::FtlIntegrityDetected);
    assert_eq!(detected, 3, "the rot was found");
    assert_eq!(
        detected,
        ftl.counters().get(Counter::FtlIntegrityQuarantined)
            + ftl.counters().get(Counter::FtlIntegrityCorrected)
    );
}

#[test]
fn quota_remainder_is_not_lost() {
    // 1001 queries over 8 threads: 125 each plus a remainder of 1. The
    // report must account for every requested query.
    let mut c = quick_config(Strategy::CheckIn);
    c.total_queries = 1_001;
    c.threads = 8;
    let report = KvSystem::new(c).unwrap().run().unwrap();
    assert_eq!(report.ops, 1_001);
}

#[test]
fn read_only_run_reports_nan_amplification_not_fabricated_ratios() {
    let mut c = quick_config(Strategy::CheckIn);
    c.workload.mix = OpMix::C; // 100% reads
    c.total_queries = 1_000;
    let report = KvSystem::new(c).unwrap().run().unwrap();
    assert_eq!(report.write_query_bytes, 0);
    assert!(
        report.io_amplification.is_nan(),
        "no writes -> amplification undefined, got {}",
        report.io_amplification
    );
    assert!(report.flash_amplification.is_nan());
    assert!(report.waf.is_nan());

    // Serialized forms stay well-formed: empty CSV fields, "n/a" display.
    let row = report.to_csv_row();
    assert!(!row.contains("NaN") && !row.contains("inf"), "{row}");
    let text = report.to_string();
    assert!(text.contains("n/a"), "{text}");
}
