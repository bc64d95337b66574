//! The repo's two measuring programs.
//!
//! [`lab`] is the one measurement run behind `BENCH_perf.json`: three
//! GC-pressured workloads, the exact cost of a checkpoint command, and
//! every figure and table of the paper's evaluation ([`figures`]) as
//! rows ([`harness`]) beside the paper's own numbers. [`chaos`] is the
//! fault sweep. Both are simulations: neither reads a clock, and the
//! determinism bans of `clippy.toml` hold here as in the simulator
//! crates.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::disallowed_types, clippy::disallowed_macros))]

pub mod chaos;
pub mod figures;
pub mod harness;
pub mod lab;

use checkin_core::{KvSystem, RunReport, Strategy, SystemConfig};

/// Builds and runs a system, panicking on configuration errors (`lab`
/// is developer-facing).
///
/// # Panics
///
/// Panics when the configuration is invalid or the run fails.
pub fn run(config: SystemConfig) -> RunReport {
    KvSystem::new(config)
        .unwrap_or_else(|e| panic!("bench config invalid: {e}"))
        .run()
        .unwrap_or_else(|e| panic!("bench run failed: {e}"))
}

/// Paper-scale defaults shared by the overall-performance figures:
/// the full 3 GiB device, zipfian workload A, scaled query counts.
pub fn paper_config(strategy: Strategy) -> SystemConfig {
    let mut c = SystemConfig::for_strategy(strategy);
    c.total_queries = 30_000;
    c.threads = 32;
    c.workload.record_count = 6_000;
    c
}

/// Workload A on [`SystemConfig::gc_pressured`]'s 48 MiB device: 150 k
/// queries over 3 000 records — the regime behind Fig. 8's redundant
/// write and GC comparisons.
pub fn gc_pressured_config(strategy: Strategy) -> SystemConfig {
    let mut c = SystemConfig::gc_pressured(strategy);
    c.total_queries = 150_000;
    c.workload.record_count = 3_000;
    c
}

/// Prints the `== title` line that opens a part of `lab`'s or `chaos`'s
/// report.
pub(crate) fn section(title: &str) {
    println!("\n== {title}");
}

/// Percent reduction of `new` relative to `old` (positive = improvement).
pub fn reduction_pct(old: f64, new: f64) -> f64 {
    if old == 0.0 {
        0.0
    } else {
        (1.0 - new / old) * 100.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduction_math() {
        assert!((reduction_pct(100.0, 8.0) - 92.0).abs() < 1e-9);
        assert_eq!(reduction_pct(0.0, 5.0), 0.0);
    }

    #[test]
    fn configs_validate() {
        for s in Strategy::all() {
            paper_config(s).validate().unwrap();
            gc_pressured_config(s).validate().unwrap();
        }
    }
}
