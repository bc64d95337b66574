//! `lab`'s rows and its two artifact writers.
//!
//! Every number `lab` reports — a cell of the GC matrix, an exact
//! simulated count, a figure cell, a ratio of two of those — is one
//! [`Row`]. `BENCH_perf.json` is named sections of rows written by a
//! hand-rolled JSON emitter (the build must succeed with no network and
//! an empty registry cache), and EXPERIMENTS.md's tables are blocks
//! [`fill`] writes from the same rows. Nothing here reads a clock.

use std::fmt::Write as _;

use checkin_sim::Row;

use crate::figures::Claim;

/// Builds a [`Row`] and prints it as its one line.
pub fn row(name: &str, value: f64, unit: &'static str) -> Row {
    let row = Row::new(name, value, unit);
    println!("{row}");
    row
}

/// The ratio row `name` = `baseline / candidate`: above 1 the candidate
/// is the smaller of the two.
pub fn speedup(name: &str, baseline: f64, candidate: f64) -> Row {
    row(name, baseline / candidate, "x")
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
/// `{"name", "value", "unit"}` per section (plus `"paper"` and
/// `"verdict"` where the paper makes a [`Claim`] on the row), one row
/// per line, values to three decimals and non-finite values as `null`.
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
            if let Some(claim) = Claim::on(&r.name) {
                let (paper, verdict) = (claim.paper, claim.verdict);
                let _ = write!(out, ", \"paper\": {paper:.3}, \"verdict\": \"{verdict}\"");
            }
            out.push_str(if i + 1 < rows.len() { "},\n" } else { "}\n" });
        }
        out.push_str("  ]");
    }
    out.push_str("\n}\n");
    out
}

/// The line that opens a generated block of EXPERIMENTS.md, followed by
/// the block's spec and ` -->`.
const OPEN: &str = "<!-- lab: ";

/// The line that closes a generated block.
const CLOSE: &str = "<!-- /lab -->";

/// `template` with every generated block refilled from `rows`.
///
/// A block is the lines between `<!-- lab: CELLS LEAF… -->` and
/// `<!-- /lab -->`, and its spec says what it shows: one table line per
/// cell — a row name without its leaf — that matches the `/`-separated
/// pattern `CELLS` (a `*` segment matches any one segment), one column
/// per `LEAF`, cells in row order. A claimed row shows the paper's value
/// and its verdict beside its own. Whatever a block held before is
/// replaced; the text outside blocks is kept as it is.
///
/// # Errors
///
/// A block that is never closed, or whose spec names no leaf, or a
/// leaf that no matching cell has.
pub fn fill(template: &str, rows: &[Row]) -> Result<String, String> {
    let mut out = String::with_capacity(template.len());
    let mut lines = template.lines();
    while let Some(line) = lines.next() {
        out.push_str(line);
        out.push('\n');
        let Some(spec) = line.strip_prefix(OPEN).and_then(|s| s.strip_suffix(" -->")) else {
            continue;
        };
        if !lines.any(|l| l == CLOSE) {
            return Err(format!("`{line}` is never closed by `{CLOSE}`"));
        }
        out.push_str(&table(spec, rows).map_err(|e| format!("`{line}`: {e}"))?);
        out.push_str(CLOSE);
        out.push('\n');
    }
    Ok(out)
}

/// The Markdown table of one block (see [`fill`]).
fn table(spec: &str, rows: &[Row]) -> Result<String, String> {
    let mut words = spec.split_whitespace();
    let pattern = words.next().ok_or("an empty spec")?;
    let leaves: Vec<&str> = words.collect();
    if leaves.is_empty() {
        return Err("no leaf to show".into());
    }
    let mut cells: Vec<(&str, Vec<Option<&Row>>)> = Vec::new();
    for r in rows {
        for (column, leaf) in leaves.iter().enumerate() {
            let cell = r.name.strip_suffix(leaf).and_then(|c| c.strip_suffix('/'));
            let Some(cell) = cell.filter(|c| matches(pattern, c)) else {
                continue;
            };
            let at = match cells.iter().position(|(c, _)| *c == cell) {
                Some(at) => at,
                None => {
                    cells.push((cell, vec![None; leaves.len()]));
                    cells.len() - 1
                }
            };
            cells[at].1[column] = Some(r);
        }
    }
    let mut out = String::from("| cell |");
    let mut rule = String::from("|---|");
    for (column, leaf) in leaves.iter().enumerate() {
        let unit = cells.iter().find_map(|(_, of)| of[column]).map(|r| r.unit);
        let unit = unit.ok_or(format!("no cell has the leaf `{leaf}`"))?;
        let _ = write!(out, " {leaf} ({unit}) |");
        rule.push_str("---:|");
    }
    let _ = write!(out, "\n{rule}\n");
    for (cell, of) in &cells {
        let _ = write!(out, "| {cell} |");
        for r in of {
            let _ = write!(out, " {} |", r.map(shown).unwrap_or_default());
        }
        out.push('\n');
    }
    Ok(out)
}

/// A row's value as a table shows it: to three decimals as in
/// `BENCH_perf.json`, with the paper's value and the verdict where the
/// paper makes a claim on the row.
fn shown(r: &Row) -> String {
    let mut value = if r.value.is_finite() {
        format!("{:.3}", r.value)
    } else {
        "n/a".into()
    };
    if let Some(claim) = Claim::on(&r.name) {
        let _ = write!(value, " (paper {}; {})", claim.paper, claim.verdict);
    }
    value
}

/// Whether the row-name prefix `cell` matches `pattern`: the same number
/// of `/`-separated segments, each equal to its pattern segment or
/// matched by a `*` one.
fn matches(pattern: &str, cell: &str) -> bool {
    let (mut pattern, mut cell) = (pattern.split('/'), cell.split('/'));
    loop {
        match (pattern.next(), cell.next()) {
            (None, None) => return true,
            (Some(p), Some(c)) if p == "*" || p == c => {}
            _ => return false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_render_is_wellformed_enough() {
        let cell = row("gclab/zipfian/waf", 1.875, "x");
        let quoted = row("a\"b", f64::INFINITY, "score");
        let claimed = crate::figures::CLAIMS[0];
        let figure = row(claimed.row, 2.15, "x");
        let plain = row("fig10/check-in/4thr/checkpoint_mean_us", 10370.0, "us");
        let paper = [figure, plain];
        let s = render(&[("gc", &[cell, quoted]), ("paper", &paper)]);
        assert!(s.starts_with("{\n  \"gc\": [\n"));
        assert!(s.contains("\"name\": \"gclab/zipfian/waf\", \"value\": 1.875, \"unit\": \"x\"},"));
        assert!(s.contains("a\\\"b\", \"value\": null"));
        assert!(s.contains("  ],\n  \"paper\": [\n"));
        // The claim's paper value and declared verdict follow the
        // measured value, as `CLAIMS` has them.
        let (paper, verdict) = (claimed.paper, claimed.verdict);
        assert!(s.contains(&format!(
            "\"value\": 2.150, \"unit\": \"x\", \"paper\": {paper:.3}, \"verdict\": \"{verdict}\"}},\n"
        )));
        assert!(s.contains("\"value\": 10370.000, \"unit\": \"us\"}\n"));
        assert_eq!(s.matches("\"paper\": ").count(), 2, "section + one row");
        assert_eq!(s.matches("\"verdict\": ").count(), 1);
        assert_eq!(s.matches('{').count(), s.matches('}').count());
        assert_eq!(s.matches('[').count(), s.matches(']').count());
    }

    #[test]
    fn a_block_is_refilled_from_its_spec() {
        let rows = [
            Row::new("fig10/baseline/4thr/checkpoint_mean_us", 55_090.0, "us"),
            Row::new("fig10/baseline/4thr/checkpoints", 9.0, "count"),
            Row::new("fig10/check-in/4thr/checkpoint_mean_us", f64::NAN, "us"),
            Row::new("fig10/check-in/16thr/checkpoints", 8.0, "count"),
            Row::new("fig10/check-in/4thr/extra/checkpoints", 1.0, "count"),
            Row::new(crate::figures::CLAIMS[0].row, 1.627, "x"),
        ];
        let template = "prose\n<!-- lab: fig10/*/* checkpoint_mean_us checkpoints -->\n\
                        | stale |\n<!-- /lab -->\nmore prose\n";
        let filled = fill(template, &rows).unwrap();
        assert_eq!(
            filled,
            "prose\n<!-- lab: fig10/*/* checkpoint_mean_us checkpoints -->\n\
             | cell | checkpoint_mean_us (us) | checkpoints (count) |\n|---|---:|---:|\n\
             | fig10/baseline/4thr | 55090.000 | 9.000 |\n\
             | fig10/check-in/4thr | n/a |  |\n\
             | fig10/check-in/16thr |  | 8.000 |\n\
             <!-- /lab -->\nmore prose\n"
        );
        assert_eq!(
            fill(&filled, &rows).unwrap(),
            filled,
            "a filled file refills as itself"
        );

        let claimed = "<!-- lab: fig03a/* io_amplification -->\n<!-- /lab -->\n";
        let filled = fill(claimed, &rows).unwrap();
        let claim = crate::figures::CLAIMS[0];
        let shown = format!("| 1.627 (paper {}; {}) |\n", claim.paper, claim.verdict);
        assert!(filled.contains(&shown), "{filled}");

        let open = "<!-- lab: fig10/* checkpoints -->\n| stale |\n";
        assert!(fill(open, &rows).unwrap_err().contains("never closed"));
        let typo = "<!-- lab: fig10/*/* checkpoint -->\n<!-- /lab -->\n";
        assert!(fill(typo, &rows)
            .unwrap_err()
            .contains("no cell has the leaf"));
        let bare = "<!-- lab: fig10/*/* -->\n<!-- /lab -->\n";
        assert!(fill(bare, &rows).unwrap_err().contains("no leaf"));
    }

    #[test]
    fn a_pattern_matches_whole_segments() {
        assert!(matches("fig11/*/128thr", "fig11/WO/128thr"));
        assert!(!matches("fig11/*/128thr", "fig11/WO/12thr"));
        assert!(!matches("fig11/*", "fig11/A/128thr"));
        assert!(!matches("fig11/*/*", "fig11/A"));
        assert!(!matches("fig1*", "fig11"));
        assert!(matches("table1", "table1"));
    }

    #[test]
    fn comparison_speedup_ratio() {
        let c = speedup("x", 200.0, 100.0);
        assert!((c.value - 2.0).abs() < 1e-9);
        assert_eq!(c.unit, "x");
    }
}
