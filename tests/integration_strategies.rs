//! Cross-crate integration: all five checkpoint strategies must produce
//! the same logical key-value contents, while exhibiting the paper's
//! cost ordering.

use checkin_core::{KvSystem, Strategy, SystemConfig};
use checkin_flash::FlashGeometry;
use checkin_sim::SimTime;

fn config(strategy: Strategy, queries: u64) -> SystemConfig {
    let mut c = SystemConfig::for_strategy(strategy);
    c.total_queries = queries;
    c.threads = 16;
    c.workload.record_count = 600;
    c.journal_trigger_sectors = 2_048;
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

/// Runs a system and returns `(final key versions, report)`.
fn run_and_snapshot(strategy: Strategy) -> (Vec<u64>, checkin_core::RunReport) {
    let mut system = KvSystem::new(config(strategy, 6_000)).unwrap();
    let report = system.run().unwrap();
    let versions = (0..600)
        .map(|k| system.engine().version_of(k).unwrap())
        .collect();
    (versions, report)
}

#[test]
fn all_strategies_reach_identical_logical_state() {
    // Same workload seed -> same operation stream -> same final versions,
    // whatever the checkpointing mechanism.
    let (base_versions, _) = run_and_snapshot(Strategy::Baseline);
    for strategy in [
        Strategy::IscA,
        Strategy::IscB,
        Strategy::IscC,
        Strategy::CheckIn,
    ] {
        let (versions, _) = run_and_snapshot(strategy);
        assert_eq!(versions, base_versions, "{strategy} diverged");
    }
}

#[test]
fn every_key_readable_at_committed_version_after_run() {
    for strategy in Strategy::all() {
        let mut system = KvSystem::new(config(strategy, 6_000)).unwrap();
        system.run().unwrap();
        // The engine debug-asserts that each read returns the committed
        // version; drive every key through a real device read.
        let mut t = SimTime::from_nanos(u64::MAX / 2);
        for key in 0..600u64 {
            let (engine, ssd) = system.verify_parts();
            let r = engine.get(ssd, key, t).unwrap();
            t = r.finish;
            assert!(r.version >= 1, "{strategy} key {key}");
        }
        system.ssd().ftl().check_invariants().unwrap();
    }
}

#[test]
fn in_storage_strategies_beat_baseline_tail_latency() {
    let (_, base) = run_and_snapshot(Strategy::Baseline);
    let (_, checkin) = run_and_snapshot(Strategy::CheckIn);
    assert!(
        checkin.latency.p999 < base.latency.p999,
        "Check-In p99.9 {} !< baseline {}",
        checkin.latency.p999,
        base.latency.p999
    );
    assert!(checkin.checkpoint_mean < base.checkpoint_mean);
}

#[test]
fn checkin_minimizes_redundant_checkpoint_writes() {
    let (_, base) = run_and_snapshot(Strategy::Baseline);
    let (_, iscb) = run_and_snapshot(Strategy::IscB);
    let (_, checkin) = run_and_snapshot(Strategy::CheckIn);
    assert!(checkin.redundant_write_units < base.redundant_write_units);
    assert!(checkin.redundant_write_units < iscb.redundant_write_units);
    assert!(checkin.remapped_entries > 0);
    assert_eq!(base.remapped_entries, 0);
}

#[test]
fn baseline_moves_checkpoint_data_over_host_interface_others_do_not() {
    let (_, base) = run_and_snapshot(Strategy::Baseline);
    let (_, iscb) = run_and_snapshot(Strategy::IscB);
    // Baseline's host I/O includes checkpoint read-back + rewrite, so its
    // amplification is strictly higher.
    assert!(
        base.io_amplification > iscb.io_amplification,
        "baseline io x{} !> ISC-B x{}",
        base.io_amplification,
        iscb.io_amplification
    );
}

#[test]
fn reports_are_deterministic_per_seed_and_differ_across_seeds() {
    let r1 = KvSystem::new(config(Strategy::CheckIn, 3_000))
        .unwrap()
        .run()
        .unwrap();
    let r2 = KvSystem::new(config(Strategy::CheckIn, 3_000))
        .unwrap()
        .run()
        .unwrap();
    assert_eq!(r1.elapsed, r2.elapsed);
    assert_eq!(r1.counters, r2.counters);
    assert_eq!(r1.rows(), r2.rows());

    let mut alt = config(Strategy::CheckIn, 3_000);
    alt.workload.seed = 999;
    let r3 = KvSystem::new(alt).unwrap().run().unwrap();
    assert_ne!(r1.elapsed, r3.elapsed, "different seed, different run");
}
