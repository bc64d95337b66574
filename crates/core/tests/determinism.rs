//! Regression tests pinning the A2-deterministic-sim invariant end to
//! end: two runs of the same configuration must produce **byte-identical**
//! machine-readable output — the CSV row every sweep harness consumes and
//! the full counter dump every report is derived from.
//!
//! Field-by-field spot checks (see `system.rs`'s unit tests) would miss a
//! single nondeterministically-ordered counter or a wall-clock-derived
//! column; string equality over the whole serialized surface cannot.

use checkin_core::{KvSystem, RunReport, Strategy, SystemConfig};
use checkin_flash::FlashGeometry;

fn quick_config(strategy: Strategy) -> SystemConfig {
    let mut c = SystemConfig::for_strategy(strategy);
    c.total_queries = 2_000;
    c.threads = 4;
    c.workload.record_count = 300;
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

/// One run's complete serialized output: the CSV row plus every counter
/// of every layer, in iteration order (which must itself be stable).
fn serialized_run(strategy: Strategy) -> (RunReport, String) {
    let mut system = KvSystem::new(quick_config(strategy)).unwrap();
    let report = system.run().unwrap();
    let mut out = String::new();
    out.push_str(&report.csv_header());
    out.push('\n');
    out.push_str(&report.to_csv_row());
    out.push('\n');
    for (key, value) in system.ssd().ftl().flash().counters().iter() {
        out.push_str(&format!("flash {key}={value}\n"));
    }
    for (key, value) in system.ssd().ftl().counters().iter() {
        out.push_str(&format!("ftl {key}={value}\n"));
    }
    for (key, value) in system.ssd().counters().iter() {
        out.push_str(&format!("ssd {key}={value}\n"));
    }
    for (key, value) in system.engine().counters().iter() {
        out.push_str(&format!("engine {key}={value}\n"));
    }
    (report, out)
}

#[test]
fn csv_and_counters_are_byte_identical_across_runs() {
    for strategy in Strategy::all() {
        let (r1, s1) = serialized_run(strategy);
        let (_, s2) = serialized_run(strategy);
        assert!(r1.ops > 0 && r1.checkpoints > 0, "{strategy}: trivial run");
        assert_eq!(s1, s2, "{strategy}: serialized output diverged");
    }
}

#[test]
fn recovery_is_byte_deterministic_too() {
    // The recovery path rebuilds mapping state from scans; hash-ordered
    // iteration there would reorder work and show up in the counters.
    let run = |()| {
        let mut system = KvSystem::new(quick_config(Strategy::CheckIn)).unwrap();
        system.run().unwrap();
        let (_, ssd) = system.verify_parts();
        ssd.ftl_mut().flash_mut().cut_power();
        let stats = ssd.recover_power_loss().unwrap();
        let mut out = format!("{stats:?}\n");
        for (key, value) in ssd.counters().iter() {
            out.push_str(&format!("ssd {key}={value}\n"));
        }
        for (key, value) in ssd.ftl().counters().iter() {
            out.push_str(&format!("ftl {key}={value}\n"));
        }
        out
    };
    assert_eq!(run(()), run(()), "recovery output diverged between runs");
}
