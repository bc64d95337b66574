//! CLI for the workspace static invariant checker.
//!
//! ```text
//! cargo run -p checkin-analyze [-- --root <workspace>] [--format text|json]
//! ```
//!
//! Prints rustc-style diagnostics (or a machine-readable JSON report
//! with `--format json`) and exits non-zero when any finding survives
//! the `analyze.toml` allowlist (or an allowlist entry is stale), so
//! `scripts/verify.sh` can use it as a gating tier. Per-rule timings go
//! to stderr in both modes.

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut format = String::from("text");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(v) => root = PathBuf::from(v),
                None => {
                    eprintln!("checkin-analyze: --root needs a path");
                    return ExitCode::from(2);
                }
            },
            "--format" => match args.next() {
                Some(v) if v == "text" || v == "json" => format = v,
                _ => {
                    eprintln!("checkin-analyze: --format needs `text` or `json`");
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                println!(
                    "checkin-analyze: static invariant checker (rules A1, A4, A6)\n\
                     usage: checkin-analyze [--root <workspace-root>] [--format text|json]\n\
                     config: <root>/analyze.toml"
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("checkin-analyze: unknown argument `{other}` (try --help)");
                return ExitCode::from(2);
            }
        }
    }
    // When invoked via `cargo run -p checkin-analyze`, the cwd is already
    // the workspace root; fall back to the crate's grandparent otherwise.
    if !root.join("analyze.toml").exists() {
        if let Ok(manifest) = std::env::var("CARGO_MANIFEST_DIR") {
            let candidate = PathBuf::from(manifest).join("../..");
            if candidate.join("analyze.toml").exists() {
                root = candidate;
            }
        }
    }

    let report = match checkin_analyze::analyze_workspace(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("checkin-analyze: {e}");
            return ExitCode::from(2);
        }
    };

    // Per-rule timings always go to stderr so the JSON on stdout stays
    // pure while verify.sh can still print the breakdown.
    for t in &report.timings {
        eprintln!("checkin-analyze: timing: {:>5} {:>8} us", t.rule, t.micros);
    }

    if format == "json" {
        println!("{}", checkin_analyze::json::render(&report));
        return if report.is_clean() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }

    for d in &report.diagnostics {
        println!("{d}\n");
    }
    for s in &report.unused_allows {
        let a = &s.entry;
        let why = if s.snippet_mismatch {
            "its snippet no longer matches the flagged line — the code changed under it"
        } else {
            "it matches no finding"
        };
        eprintln!(
            "checkin-analyze: note: stale allowlist entry (rule {} in {}{}, snippet `{}`): {why} \
             — remove it or fix its scope",
            a.rule,
            a.file,
            a.line.map(|l| format!(":{l}")).unwrap_or_default(),
            a.snippet,
        );
    }
    println!(
        "checkin-analyze: {} finding(s) across {} file(s) scanned",
        report.diagnostics.len(),
        report.files_scanned
    );
    // Stale allowlist entries gate too: an exception that matches nothing
    // is either rotted (the code moved) or was never needed, and both
    // erode trust in the documented-exceptions discipline.
    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
