//! `gclab` — the GC victim-policy laboratory.
//!
//! Sweeps both [`VictimPolicy`] variants (greedy, windowed-greedy) across
//! three workload shapes — uniform, zipfian, and write-only — on the
//! GC-pressured ~50 MiB device. For each cell it records the
//! write-amplification factor, the Equation (1) lifetime score, and the
//! p99.9 query latency; the matrix lands in the `metrics` section of
//! `BENCH_perf.json` (override with `--out PATH`).
//!
//! On top of the matrix the lab emits the `gclab_waf_*_vs_greedy`
//! comparison — the mean-WAF ratio against the greedy baseline (>1 means
//! the policy writes less) — and a ranking by mean WAF (ties: higher
//! lifetime, then lower p99.9).
//!
//! All ranked quantities come from the deterministic simulation, so the
//! matrix — and therefore the winner — is reproducible bit-for-bit on
//! any host. In full mode the lab exits non-zero if the shipped
//! `SystemConfig` default policy is not the measured winner, keeping the
//! default honest against the data; `--quick` runs a shorter workload
//! and only reports. The retired third policy and the stream-separation
//! A/B this lab once ran are recorded in EXPERIMENTS.md.

use std::path::PathBuf;
use std::time::Instant;

use checkin_bench::harness::{metric, write_json_with, BenchResult, Comparison, Metric};
use checkin_bench::{gc_pressured_config, run};
use checkin_core::{RunReport, Strategy, SystemConfig, VictimPolicy};
use checkin_workload::{AccessPattern, OpMix};

/// Workload shapes the matrix sweeps (name, mix, skew).
const WORKLOADS: [(&str, OpMix, AccessPattern); 3] = [
    ("uniform", OpMix::A, AccessPattern::Uniform),
    ("zipfian", OpMix::A, AccessPattern::Zipfian),
    ("write-only", OpMix::WRITE_ONLY, AccessPattern::Uniform),
];

/// One measured matrix cell.
struct Cell {
    policy: VictimPolicy,
    waf: f64,
    lifetime: f64,
    p999_us: f64,
}

/// Lab configuration: the GC-pressured device with the given policy,
/// under one of the swept workload shapes.
fn lab_config(
    queries: u64,
    policy: VictimPolicy,
    mix: OpMix,
    pattern: AccessPattern,
) -> SystemConfig {
    let mut c = gc_pressured_config(Strategy::CheckIn);
    c.total_queries = queries;
    c.workload.mix = mix;
    c.workload.pattern = pattern;
    c.gc_policy = policy;
    c
}

/// Runs one configuration, returning the report plus a wall-clock
/// [`BenchResult`] under `name` (the only non-deterministic output).
fn timed_run(name: &str, config: SystemConfig) -> (RunReport, BenchResult) {
    let queries = config.total_queries;
    let start = Instant::now();
    let report = run(config);
    let ns = start.elapsed().as_nanos().max(1);
    let result = BenchResult {
        name: name.to_string(),
        iters: queries,
        best_batch_ns: ns,
        total_iters: queries,
        total_ns: ns,
    };
    println!(
        "  {:<44} {:>12.1} ns/op   ({:.3} s)",
        result.name,
        result.ns_per_op(),
        ns as f64 / 1e9
    );
    (report, result)
}

/// Mean over a policy's cells of one extracted quantity. Non-finite
/// lifetime scores (a run that wore the flash not at all) saturate to
/// `f64::MAX` so they rank as "best possible" without poisoning the mean.
fn policy_mean(cells: &[Cell], policy: VictimPolicy, get: impl Fn(&Cell) -> f64) -> f64 {
    let vals: Vec<f64> = cells
        .iter()
        .filter(|c| c.policy == policy)
        .map(|c| {
            let v = get(c);
            if v.is_finite() {
                v
            } else {
                f64::MAX
            }
        })
        .collect();
    vals.iter().sum::<f64>() / vals.len().max(1) as f64
}

fn main() {
    let mut quick = false;
    let mut out = PathBuf::from("BENCH_perf.json");
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--out" => match argv.next() {
                Some(path) => out = PathBuf::from(path),
                None => {
                    eprintln!("error: --out requires a path");
                    std::process::exit(2);
                }
            },
            other => {
                eprintln!("error: unknown argument `{other}`");
                eprintln!("usage: gclab [--quick] [--out PATH]");
                std::process::exit(2);
            }
        }
    }
    let mode = if quick { "quick" } else { "full" };
    let queries: u64 = if quick { 40_000 } else { 150_000 };
    println!(
        "gclab ({mode}, {queries} queries/cell) -> {}",
        out.display()
    );

    let mut results = Vec::new();
    let mut comparisons = Vec::new();
    let mut metrics: Vec<Metric> = Vec::new();
    let mut cells: Vec<Cell> = Vec::new();

    // The policy × workload matrix.
    for policy in VictimPolicy::ALL {
        println!("\n== policy {policy}");
        for (workload, mix, pattern) in WORKLOADS {
            let name = format!("gclab/{workload}/{}", policy.label());
            let config = lab_config(queries, policy, mix, pattern);
            let (report, timing) = timed_run(&name, config);
            results.push(timing);
            metrics.push(metric(&format!("{name}/waf"), report.waf, "x"));
            metrics.push(metric(
                &format!("{name}/lifetime"),
                report.lifetime_score,
                "score",
            ));
            let p999_us = report.latency.p999.as_micros_f64();
            metrics.push(metric(&format!("{name}/p999"), p999_us, "us"));
            metrics.push(metric(
                &format!("{name}/erases"),
                report.flash.erases as f64,
                "blocks",
            ));
            cells.push(Cell {
                policy,
                waf: report.waf,
                lifetime: report.lifetime_score,
                p999_us,
            });
        }
    }

    // Ranking: mean WAF across workloads, ties broken by higher lifetime
    // then lower tail latency. All simulation-deterministic.
    println!("\n== ranking (mean over {} workloads)", WORKLOADS.len());
    let greedy_waf = policy_mean(&cells, VictimPolicy::Greedy, |c| c.waf);
    let mut ranked: Vec<(VictimPolicy, f64, f64, f64)> = VictimPolicy::ALL
        .into_iter()
        .map(|p| {
            (
                p,
                policy_mean(&cells, p, |c| c.waf),
                policy_mean(&cells, p, |c| c.lifetime),
                policy_mean(&cells, p, |c| c.p999_us),
            )
        })
        .collect();
    ranked.sort_by(|a, b| {
        a.1.total_cmp(&b.1)
            .then(b.2.total_cmp(&a.2))
            .then(a.3.total_cmp(&b.3))
    });
    for (p, waf, lifetime, p999) in &ranked {
        println!(
            "  {:<24} mean waf {waf:.4}   mean lifetime {lifetime:.1}   mean p99.9 {p999:.1} us",
            p.label()
        );
        if *p != VictimPolicy::Greedy {
            comparisons.push(Comparison {
                name: format!("gclab_waf_{}_vs_greedy", p.label()),
                baseline: "gclab mean waf: greedy".into(),
                candidate: format!("gclab mean waf: {}", p.label()),
                speedup: greedy_waf / waf,
            });
        }
    }
    let winner = ranked[0].0;
    println!("\nwinner: {winner}");

    if let Err(e) = write_json_with(&out, "gclab", mode, &results, &comparisons, &metrics) {
        eprintln!("error: could not write {}: {e}", out.display());
        std::process::exit(1);
    }
    println!("wrote {}", out.display());

    // The shipped default must be the measured winner. The quick matrix
    // runs a shorter workload whose winner may legitimately differ, so
    // it reports without enforcing.
    let shipped = SystemConfig::for_strategy(Strategy::CheckIn).gc_policy;
    if shipped == winner {
        println!("PASS: shipped default policy `{shipped}` is the measured winner");
    } else if quick {
        println!(
            "NOTE: quick-mode winner `{winner}` differs from shipped default \
             `{shipped}` (not enforced under --quick)"
        );
    } else {
        eprintln!(
            "FAIL: shipped default policy `{shipped}` is not the measured \
             winner `{winner}` — update SystemConfig::default or re-justify"
        );
        std::process::exit(1);
    }
}
