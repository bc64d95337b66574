//! Minimal wall-clock microbenchmark harness.
//!
//! Criterion cannot be used here (the build must succeed with no network
//! and an empty registry cache), so this module provides the small slice
//! the perf suite needs: warmup, batched timing with `Instant`, best-batch
//! reporting to damp scheduler noise, and a hand-rolled JSON emitter for
//! `BENCH_perf.json` so future PRs can regress against recorded numbers.

use std::fmt::Write as _;
use std::hint::black_box;
use std::io;
use std::path::Path;
use std::time::{Duration, Instant};

/// Timing knobs for one measurement.
#[derive(Debug, Clone, Copy)]
pub struct BenchOpts {
    /// Time spent running the closure before measurement starts.
    pub warmup: Duration,
    /// Total measured time budget, split across batches.
    pub measure: Duration,
    /// Number of batches the budget is split into (best batch wins).
    pub batches: u32,
}

impl BenchOpts {
    /// Full-fidelity defaults used by `perfsuite` without flags.
    pub fn full() -> Self {
        BenchOpts {
            warmup: Duration::from_millis(200),
            measure: Duration::from_millis(1_000),
            batches: 10,
        }
    }

    /// Fast settings for `perfsuite --quick` and CI smoke runs.
    pub fn quick() -> Self {
        BenchOpts {
            warmup: Duration::from_millis(30),
            measure: Duration::from_millis(150),
            batches: 5,
        }
    }
}

/// Outcome of one measured benchmark.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Benchmark name (stable key in `BENCH_perf.json`).
    pub name: String,
    /// Iterations executed in the best batch.
    pub iters: u64,
    /// Wall-clock nanoseconds of the best batch.
    pub best_batch_ns: u128,
    /// Iterations across all batches.
    pub total_iters: u64,
    /// Wall-clock nanoseconds across all batches.
    pub total_ns: u128,
}

impl BenchResult {
    /// Best-batch nanoseconds per operation (the headline number).
    pub fn ns_per_op(&self) -> f64 {
        if self.iters == 0 {
            f64::NAN
        } else {
            self.best_batch_ns as f64 / self.iters as f64
        }
    }

    /// Mean nanoseconds per operation across every batch.
    pub fn mean_ns_per_op(&self) -> f64 {
        if self.total_iters == 0 {
            f64::NAN
        } else {
            self.total_ns as f64 / self.total_iters as f64
        }
    }

    /// Best-batch operations per second.
    pub fn ops_per_sec(&self) -> f64 {
        1e9 / self.ns_per_op()
    }
}

/// Times `f` under `opts` and prints a one-line summary.
///
/// The closure's return value is passed through [`black_box`] so the
/// optimizer cannot delete the measured work.
pub fn bench<R>(name: &str, opts: BenchOpts, mut f: impl FnMut() -> R) -> BenchResult {
    // Warmup, and calibrate how many iterations fit in one batch.
    let warmup_start = Instant::now();
    let mut warm_iters: u64 = 0;
    while warmup_start.elapsed() < opts.warmup || warm_iters == 0 {
        black_box(f());
        warm_iters += 1;
    }
    let warm_ns = warmup_start.elapsed().as_nanos().max(1);
    let batch_budget_ns = (opts.measure.as_nanos() / opts.batches.max(1) as u128).max(1);
    let mut per_batch = ((warm_iters as u128 * batch_budget_ns) / warm_ns).max(1) as u64;

    let mut best_batch_ns = 0u128;
    let mut best_iters = 0u64;
    let mut total_iters = 0u64;
    let mut total_ns = 0u128;
    for _ in 0..opts.batches.max(1) {
        let start = Instant::now();
        for _ in 0..per_batch {
            black_box(f());
        }
        let elapsed = start.elapsed().as_nanos().max(1);
        total_iters += per_batch;
        total_ns += elapsed;
        let this_per_op = elapsed as f64 / per_batch as f64;
        let best_per_op = best_batch_ns as f64 / best_iters.max(1) as f64;
        if best_iters == 0 || this_per_op < best_per_op {
            best_batch_ns = elapsed;
            best_iters = per_batch;
        }
        // Re-calibrate toward the budget using the freshest timing.
        per_batch = ((per_batch as u128 * batch_budget_ns) / elapsed).max(1) as u64;
    }

    let result = BenchResult {
        name: name.to_string(),
        iters: best_iters,
        best_batch_ns,
        total_iters,
        total_ns,
    };
    println!(
        "  {:<44} {:>12.1} ns/op   {:>14.0} ops/s   ({} iters)",
        result.name,
        result.ns_per_op(),
        result.ops_per_sec(),
        result.total_iters
    );
    result
}

/// A derived headline number (e.g. a speedup ratio between two benches).
#[derive(Debug, Clone)]
pub struct Comparison {
    /// Stable key in `BENCH_perf.json`.
    pub name: String,
    /// Name of the baseline bench.
    pub baseline: String,
    /// Name of the candidate bench.
    pub candidate: String,
    /// `baseline_ns_per_op / candidate_ns_per_op` (>1 is a win).
    pub speedup: f64,
}

/// Builds a [`Comparison`] from two results (baseline first).
pub fn compare(name: &str, baseline: &BenchResult, candidate: &BenchResult) -> Comparison {
    let speedup = baseline.ns_per_op() / candidate.ns_per_op();
    println!(
        "  {:<44} {:>11.2}x  ({} vs {})",
        name, speedup, candidate.name, baseline.name
    );
    Comparison {
        name: name.to_string(),
        baseline: baseline.name.clone(),
        candidate: candidate.name.clone(),
        speedup,
    }
}

/// A measured scalar that does not have the ns-per-op shape of a
/// `benches` entry — one cell of a metric matrix (WAF, lifetime score,
/// tail latency, ...). Simulated values come from the deterministic
/// simulation and are reproducible bit-for-bit on any host; the few
/// whose unit is a host time (perfsuite's construction and load rows)
/// are wall-clock readings like `benches` entries.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Stable key in `BENCH_perf.json` (e.g. `gclab/zipfian/greedy/waf`).
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Unit label (`"x"`, `"us"`, `"score"`, ...).
    pub unit: String,
}

/// Builds a [`Metric`] and prints a one-line summary.
pub fn metric(name: &str, value: f64, unit: &str) -> Metric {
    println!("  {name:<52} {value:>14.3} {unit}");
    Metric {
        name: name.to_string(),
        value,
        unit: unit.to_string(),
    }
}

fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn push_json_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v:.3}");
    } else {
        out.push_str("null");
    }
}

/// Serializes a full suite run to the `BENCH_perf.json` format documented
/// in README.md (no metric matrix — see [`render_json_with`]).
pub fn render_json(
    suite: &str,
    mode: &str,
    results: &[BenchResult],
    comparisons: &[Comparison],
) -> String {
    render_json_with(suite, mode, results, comparisons, &[])
}

/// Serializes a full suite run, including a `metrics` section with the
/// simulation-derived scalar matrix.
pub fn render_json_with(
    suite: &str,
    mode: &str,
    results: &[BenchResult],
    comparisons: &[Comparison],
    metrics: &[Metric],
) -> String {
    let mut out = String::with_capacity(1024);
    out.push_str("{\n  \"suite\": ");
    push_json_str(&mut out, suite);
    out.push_str(",\n  \"mode\": ");
    push_json_str(&mut out, mode);
    out.push_str(",\n  \"benches\": [\n");
    for (i, r) in results.iter().enumerate() {
        out.push_str("    {\"name\": ");
        push_json_str(&mut out, &r.name);
        let _ = write!(
            out,
            ", \"iters\": {}, \"best_batch_ns\": {}, \"ns_per_op\": ",
            r.total_iters, r.best_batch_ns
        );
        push_json_f64(&mut out, r.ns_per_op());
        out.push_str(", \"mean_ns_per_op\": ");
        push_json_f64(&mut out, r.mean_ns_per_op());
        out.push_str(", \"ops_per_sec\": ");
        push_json_f64(&mut out, r.ops_per_sec());
        out.push('}');
        if i + 1 < results.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("  ],\n  \"comparisons\": [\n");
    for (i, c) in comparisons.iter().enumerate() {
        out.push_str("    {\"name\": ");
        push_json_str(&mut out, &c.name);
        out.push_str(", \"baseline\": ");
        push_json_str(&mut out, &c.baseline);
        out.push_str(", \"candidate\": ");
        push_json_str(&mut out, &c.candidate);
        out.push_str(", \"speedup\": ");
        push_json_f64(&mut out, c.speedup);
        out.push('}');
        if i + 1 < comparisons.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("  ],\n  \"metrics\": [\n");
    for (i, m) in metrics.iter().enumerate() {
        out.push_str("    {\"name\": ");
        push_json_str(&mut out, &m.name);
        out.push_str(", \"value\": ");
        push_json_f64(&mut out, m.value);
        out.push_str(", \"unit\": ");
        push_json_str(&mut out, &m.unit);
        out.push('}');
        if i + 1 < metrics.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("  ]\n}\n");
    out
}

/// Writes the suite report plus its metric matrix to `path` as JSON.
pub fn write_json_with(
    path: &Path,
    suite: &str,
    mode: &str,
    results: &[BenchResult],
    comparisons: &[Comparison],
    metrics: &[Metric],
) -> io::Result<()> {
    std::fs::write(
        path,
        render_json_with(suite, mode, results, comparisons, metrics),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_measures_something() {
        let opts = BenchOpts {
            warmup: Duration::from_millis(1),
            measure: Duration::from_millis(5),
            batches: 2,
        };
        let mut acc = 0u64;
        let r = bench("noop_add", opts, || {
            acc = acc.wrapping_add(1);
            acc
        });
        assert!(r.iters > 0);
        assert!(r.ns_per_op().is_finite());
        assert!(r.ops_per_sec() > 0.0);
    }

    #[test]
    fn json_render_is_wellformed_enough() {
        let r = BenchResult {
            name: "a\"b".into(),
            iters: 10,
            best_batch_ns: 1000,
            total_iters: 20,
            total_ns: 2500,
        };
        let c = Comparison {
            name: "speedup".into(),
            baseline: "old".into(),
            candidate: "new".into(),
            speedup: 2.5,
        };
        let s = render_json(
            "perfsuite",
            "quick",
            std::slice::from_ref(&r),
            std::slice::from_ref(&c),
        );
        assert!(s.contains("\"suite\": \"perfsuite\""));
        assert!(s.contains("a\\\"b"));
        assert!(s.contains("\"speedup\": 2.500"));
        assert_eq!(s.matches('{').count(), s.matches('}').count());

        let m = Metric {
            name: "gclab/zipfian/greedy/waf".into(),
            value: 1.875,
            unit: "x".into(),
        };
        let s = render_json_with("gclab", "full", &[r], &[c], &[m]);
        assert!(s.contains("\"name\": \"gclab/zipfian/greedy/waf\""));
        assert!(s.contains("\"value\": 1.875"));
        assert!(s.contains("\"unit\": \"x\""));
        assert_eq!(s.matches('{').count(), s.matches('}').count());
    }

    #[test]
    fn comparison_speedup_ratio() {
        let base = BenchResult {
            name: "base".into(),
            iters: 1,
            best_batch_ns: 200,
            total_iters: 1,
            total_ns: 200,
        };
        let cand = BenchResult {
            name: "cand".into(),
            iters: 1,
            best_batch_ns: 100,
            total_iters: 1,
            total_ns: 100,
        };
        let c = compare("x", &base, &cand);
        assert!((c.speedup - 2.0).abs() < 1e-9);
    }
}
