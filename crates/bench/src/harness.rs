//! The lab's wall-clock timing loop and its artifact writer.
//!
//! Criterion cannot be used here (the build must succeed with no network
//! and an empty registry cache), so this module provides the small slice
//! [`crate::lab`] needs: warmup, batched timing with `Instant`,
//! best-batch reporting to damp scheduler noise, and a hand-rolled JSON
//! emitter for `BENCH_perf.json`. Every number, timed or simulated, is
//! one [`Row`]; the artifact is named sections of rows.

use std::fmt::Write as _;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Timing budget of one [`bench()`] measurement.
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
    /// The one budget the lab runs: 0.3 s per timed row.
    pub const LAB: BenchOpts = BenchOpts {
        warmup: Duration::from_millis(50),
        measure: Duration::from_millis(250),
        batches: 5,
    };
}

/// One reported number: a cell of the GC matrix, an exact simulated
/// count, a host timing or a ratio of two of those.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Stable key in `BENCH_perf.json` (e.g. `gclab/zipfian/greedy/waf`).
    pub name: String,
    /// The value; non-finite values are written as `null`.
    pub value: f64,
    /// Unit label (`"x"`, `"us"`, `"ns/op"`, ...).
    pub unit: &'static str,
}

/// Builds a [`Row`] and prints it as one line.
pub fn row(name: &str, value: f64, unit: &'static str) -> Row {
    println!("  {name:<52} {value:>14.3} {unit}");
    Row {
        name: name.to_string(),
        value,
        unit,
    }
}

/// The ratio row `name` = `baseline / candidate`: above 1 the candidate
/// is the smaller (for timings, the faster) of the two.
pub fn speedup(name: &str, baseline: f64, candidate: f64) -> Row {
    row(name, baseline / candidate, "x")
}

/// Times `f` under `opts` and reports the best batch's nanoseconds per
/// call.
///
/// The closure's return value is passed through [`black_box`] so the
/// optimizer cannot delete the measured work.
pub fn bench<R>(name: &str, opts: BenchOpts, mut f: impl FnMut() -> R) -> Row {
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

    let mut best_per_op = f64::INFINITY;
    for _ in 0..opts.batches.max(1) {
        let start = Instant::now();
        for _ in 0..per_batch {
            black_box(f());
        }
        let elapsed = start.elapsed().as_nanos().max(1);
        best_per_op = best_per_op.min(elapsed as f64 / per_batch as f64);
        // Re-calibrate toward the budget using the freshest timing.
        per_batch = ((per_batch as u128 * batch_budget_ns) / elapsed).max(1) as u64;
    }
    row(name, best_per_op, "ns/op")
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

/// Serializes named sections of rows to the `BENCH_perf.json` format
/// documented in README.md: one object, one array of
/// `{"name", "value", "unit"}` per section, values to three decimals.
pub fn render(sections: &[(&str, &[Row])]) -> String {
    let mut out = String::with_capacity(4096);
    out.push('{');
    for (n, (section, rows)) in sections.iter().enumerate() {
        out.push_str(if n == 0 { "\n  " } else { ",\n  " });
        push_json_str(&mut out, section);
        out.push_str(": [\n");
        for (i, r) in rows.iter().enumerate() {
            out.push_str("    {\"name\": ");
            push_json_str(&mut out, &r.name);
            out.push_str(", \"value\": ");
            if r.value.is_finite() {
                let _ = write!(out, "{:.3}", r.value);
            } else {
                out.push_str("null");
            }
            out.push_str(", \"unit\": ");
            push_json_str(&mut out, r.unit);
            out.push_str(if i + 1 < rows.len() { "},\n" } else { "}\n" });
        }
        out.push_str("  ]");
    }
    out.push_str("\n}\n");
    out
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
        assert!(r.value.is_finite() && r.value > 0.0);
        assert_eq!(r.unit, "ns/op");
    }

    #[test]
    fn json_render_is_wellformed_enough() {
        let cell = row("gclab/zipfian/greedy/waf", 1.875, "x");
        let quoted = row("a\"b", f64::INFINITY, "score");
        let timed = row("l2p/lookup_dense", 14.1, "ns/op");
        let s = render(&[("gc", &[cell, quoted]), ("host", &[timed])]);
        assert!(s.starts_with("{\n  \"gc\": [\n"));
        assert!(s.contains(
            "\"name\": \"gclab/zipfian/greedy/waf\", \"value\": 1.875, \"unit\": \"x\"},"
        ));
        assert!(s.contains("a\\\"b\", \"value\": null"));
        assert!(s.contains("  ],\n  \"host\": [\n"));
        assert!(s.contains("\"value\": 14.100, \"unit\": \"ns/op\"}\n"));
        assert_eq!(s.matches('{').count(), s.matches('}').count());
        assert_eq!(s.matches('[').count(), s.matches(']').count());
    }

    #[test]
    fn comparison_speedup_ratio() {
        let c = speedup("x", 200.0, 100.0);
        assert!((c.value - 2.0).abs() < 1e-9);
        assert_eq!(c.unit, "x");
    }
}
