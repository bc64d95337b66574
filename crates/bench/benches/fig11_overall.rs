//! Figure 11 — overall query throughput and latency for workloads A, F
//! and write-only, as the thread count grows.

use checkin_bench::{banner, paper_config, reduction_pct, run_to_checkpoints, MIN_CHECKPOINTS};
use checkin_core::Strategy;
use checkin_workload::OpMix;

fn main() {
    let threads = [4u32, 16, 32, 64, 128];
    for mix in [OpMix::A, OpMix::F, OpMix::WRITE_ONLY] {
        banner(
            &format!(
                "Fig. 11: workload {} — throughput (queries/s) / mean latency / queries run",
                mix.label()
            ),
            "throughput rises then saturates with threads; Check-In gains ~8.1% \
             average throughput and ~10.2% lower latency at 128 threads vs baseline",
        );
        print!("{:<10}", "config");
        for t in threads {
            print!(" {:>22}", format!("{t} thr"));
        }
        println!();
        let mut at_128: Vec<(Strategy, f64, f64)> = Vec::new();
        for strategy in Strategy::all() {
            print!("{:<10}", strategy.label());
            for t in threads {
                let mut c = paper_config(strategy);
                c.workload.mix = mix;
                c.threads = t;
                c.total_queries = 20_000;
                let r = run_to_checkpoints(c);
                assert!(r.checkpoints >= MIN_CHECKPOINTS);
                print!(
                    " {:>22}",
                    format!("{:.0}/{}/{}k", r.throughput, r.latency.mean, r.ops / 1000)
                );
                if t == 128 {
                    at_128.push((strategy, r.throughput, r.latency.mean.as_micros_f64()));
                }
            }
            println!();
        }
        let base = at_128
            .iter()
            .find(|(s, _, _)| *s == Strategy::Baseline)
            .unwrap();
        let ci = at_128
            .iter()
            .find(|(s, _, _)| *s == Strategy::CheckIn)
            .unwrap();
        println!(
            "at 128 threads: Check-In throughput {:+.1}% vs baseline (paper +8.1%), \
             latency {:.1}% lower (paper -10.2%)",
            (ci.1 / base.1 - 1.0) * 100.0,
            reduction_pct(base.2, ci.2),
        );
    }
}
