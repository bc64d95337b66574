//! Figure 12 — sensitivity of throughput and latency to the checkpoint
//! interval (baseline vs Check-In).

use checkin_bench::{banner, paper_config, run_to_checkpoints, MIN_CHECKPOINTS};
use checkin_core::Strategy;
use checkin_sim::SimDuration;

fn main() {
    banner(
        "Fig. 12: checkpoint-interval sensitivity",
        "the baseline improves as the interval grows (hot keys dedup in the \
         journal, checkpoints amortise); Check-In stays fast and steady \
         regardless of the interval",
    );
    let intervals_ms = [62u64, 125, 250, 500, 1000];
    println!(
        "{:<10} {:>10} {:>14} {:>12} {:>12} {:>8} {:>10}",
        "config", "interval", "throughput", "mean lat", "p99.9", "cps", "queries"
    );
    for strategy in [Strategy::Baseline, Strategy::CheckIn] {
        for ms in intervals_ms {
            let mut c = paper_config(strategy);
            c.checkpoint_interval = SimDuration::from_millis(ms);
            c.total_queries = 30_000;
            let r = run_to_checkpoints(c);
            assert!(r.checkpoints >= MIN_CHECKPOINTS);
            println!(
                "{:<10} {:>8}ms {:>12.0}/s {:>12} {:>12} {:>8} {:>10}",
                strategy.label(),
                ms,
                r.throughput,
                format!("{}", r.latency.mean),
                format!("{}", r.latency.p999),
                r.checkpoints,
                r.ops
            );
        }
        println!();
    }
}
