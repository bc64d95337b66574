//! `lab`'s rows and its artifact writer.
//!
//! Every number `lab` reports — a cell of the GC matrix, an exact
//! simulated count, a figure cell, a ratio of two of those — is one
//! [`Row`], and `BENCH_perf.json` is named sections of rows written by a
//! hand-rolled JSON emitter (the build must succeed with no network and
//! an empty registry cache). Nothing here reads a clock.

use std::fmt::Write as _;

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Stable key in `BENCH_perf.json` (e.g. `gclab/zipfian/greedy/waf`).
    pub name: String,
    /// The value; non-finite values are written as `null`.
    pub value: f64,
    /// Unit label (`"x"`, `"us"`, `"%"`, ...).
    pub unit: &'static str,
    /// What the paper states for this very cell, where it states a
    /// number; written as a fourth JSON key, `"paper"`.
    pub paper: Option<f64>,
}

/// Builds a [`Row`] and prints it as one line.
pub fn row(name: &str, value: f64, unit: &'static str, paper: Option<f64>) -> Row {
    print!("  {name:<60} {value:>14.3} {unit}");
    match paper {
        Some(p) => println!("   (paper {p})"),
        None => println!(),
    }
    Row {
        name: name.to_string(),
        value,
        unit,
        paper,
    }
}

/// The ratio row `name` = `baseline / candidate`: above 1 the candidate
/// is the smaller of the two.
pub fn speedup(name: &str, baseline: f64, candidate: f64) -> Row {
    row(name, baseline / candidate, "x", None)
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
/// `{"name", "value", "unit"}` per section (plus `"paper"` where the
/// row has one), one row per line, values to three decimals.
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
            if let Some(paper) = r.paper {
                let _ = write!(out, ", \"paper\": {paper:.3}");
            }
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
    fn json_render_is_wellformed_enough() {
        let cell = row("gclab/zipfian/greedy/waf", 1.875, "x", None);
        let quoted = row("a\"b", f64::INFINITY, "score", None);
        let figure = row("fig03a/uniform/io_amplification", 2.15, "x", Some(2.98));
        let plain = row(
            "fig10/check-in/4thr/checkpoint_mean_us",
            10370.0,
            "us",
            None,
        );
        let s = render(&[("gc", &[cell, quoted]), ("paper", &[figure, plain])]);
        assert!(s.starts_with("{\n  \"gc\": [\n"));
        assert!(s.contains(
            "\"name\": \"gclab/zipfian/greedy/waf\", \"value\": 1.875, \"unit\": \"x\"},"
        ));
        assert!(s.contains("a\\\"b\", \"value\": null"));
        assert!(s.contains("  ],\n  \"paper\": [\n"));
        assert!(s.contains("\"value\": 2.150, \"unit\": \"x\", \"paper\": 2.980},\n"));
        assert!(s.contains("\"value\": 10370.000, \"unit\": \"us\"}\n"));
        assert_eq!(s.matches("\"paper\": ").count(), 2, "section + one row");
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
