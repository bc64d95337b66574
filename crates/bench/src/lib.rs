//! Shared harness utilities for the figure/table reproduction benches.
//!
//! Each `benches/figXX_*.rs` target is a standalone binary (Criterion-free,
//! `harness = false`) that sweeps the parameters of one paper figure and
//! prints the same rows/series the paper reports, next to the paper's
//! claims. Run them all with `cargo bench`.
//!
//! Two programs live beside them: [`lab`], the one measurement run
//! behind `BENCH_perf.json` (timed with [`harness`]), and [`chaos`], the
//! fault sweep.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod harness;
pub mod lab;

use checkin_core::{KvSystem, RunReport, Strategy, SystemConfig};

/// Builds and runs a system, panicking on configuration errors (benches
/// are developer-facing).
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

/// Checkpoints a figure cell must hold before it says anything about
/// checkpointing.
pub const MIN_CHECKPOINTS: u64 = 8;

/// [`run`] sized in checkpoints rather than queries: `total_queries`
/// doubles until the report holds at least [`MIN_CHECKPOINTS`] of them
/// ([`RunReport::ops`] is the count it ended with). Faster clients and
/// longer intervals both need more queries to get there.
///
/// # Panics
///
/// As [`run`], and when 2²³ queries do not get there.
pub fn run_to_checkpoints(mut config: SystemConfig) -> RunReport {
    loop {
        let report = run(config.clone());
        if report.checkpoints >= MIN_CHECKPOINTS {
            return report;
        }
        config.total_queries *= 2;
        assert!(
            config.total_queries < 1 << 24,
            "still {} checkpoints: a workload that never writes?",
            report.checkpoints
        );
    }
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

/// Prints a figure banner with the paper's claim for quick comparison.
pub fn banner(figure: &str, claim: &str) {
    println!("\n==============================================================");
    println!("{figure}");
    println!("paper: {claim}");
    println!("==============================================================");
}

/// Prints the `== title` line that opens a part of `lab`'s or `chaos`'s
/// report.
pub(crate) fn section(title: &str) {
    println!("\n== {title}");
}

/// Formats a ratio as `x.xx` with a guard for non-finite values.
pub fn ratio(value: f64) -> String {
    if value.is_finite() {
        format!("{value:.2}x")
    } else {
        "inf".to_string()
    }
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
    fn ratio_formats() {
        assert_eq!(ratio(1.5), "1.50x");
        assert_eq!(ratio(f64::INFINITY), "inf");
    }

    #[test]
    fn configs_validate() {
        for s in Strategy::all() {
            paper_config(s).validate().unwrap();
            gc_pressured_config(s).validate().unwrap();
        }
    }
}
