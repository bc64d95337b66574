//! Quickstart: run the same write-heavy workload under conventional
//! checkpointing and under Check-In, and compare what the paper measures.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use checkin_core::{KvSystem, Strategy, SystemConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("Check-In quickstart: baseline vs in-storage checkpointing\n");

    for strategy in [Strategy::Baseline, Strategy::CheckIn] {
        // Start from the paper-like defaults and scale the run so this
        // example finishes in a few seconds.
        let mut config = SystemConfig::for_strategy(strategy);
        config.total_queries = 30_000;
        config.threads = 32;
        config.workload.record_count = 4_000;

        let mut system = KvSystem::new(config)?;
        let report = system.run()?;

        println!("=== {} ===", report.strategy);
        println!("  throughput        {:>10.0} queries/s", report.throughput);
        println!("  mean latency      {:>10}", report.latency.mean);
        println!("  p99.9 latency     {:>10}", report.latency.p999);
        println!(
            "  checkpoints       {:>10}   (mean {}, max {})",
            report.checkpoints, report.checkpoint_mean, report.checkpoint_max
        );
        println!(
            "  checkpoint writes {:>10}   flash programs (\"redundant writes\")",
            report.checkpoint_flash_programs
        );
        println!(
            "  remap / copy      {:>6} / {:<6} checkpoint entries",
            report.remapped_entries, report.copied_entries
        );
        println!(
            "  I/O amplification {:>10.2}x  (host bytes / write-query bytes)",
            report.io_amplification
        );
        println!("  flash WAF         {:>10.2}x", report.waf);
        println!();
    }

    println!(
        "Check-In turns checkpoint copies into FTL mapping updates: the\n\
         journal log already on flash *becomes* the data-area copy, so the\n\
         redundant write count and the checkpoint time collapse (paper,\n\
         Figs. 8 and 10)."
    );
    Ok(())
}
