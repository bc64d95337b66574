//! The rule engine: each rule maps the scanned workspace to diagnostics.
//!
//! | id | invariant |
//! |----|-----------|
//! | A1 | no panic paths (`unwrap`/`expect`/`panic!`-family/indexing) in recovery code |
//! | A4 | no bare truncating casts on LPN/PPN/sector arithmetic |
//! | A6 | no discarded `Result` in recovery scopes |
//!
//! A1 and A6 run over the workspace call graph ([`crate::graph`]); A4
//! is a per-file token scan. (A2, A3, A5, A7 and A8 are retired: what
//! they policed is carried by clippy's `disallowed_types` /
//! `disallowed_macros` under the root `clippy.toml`, by
//! `checkin_sim::Counter`/`Total` and by `Send` assertions on the core
//! types — DESIGN.md §15.)

pub mod a1;
pub mod a4;
pub mod a6;

use std::time::Instant;

use crate::config::AnalyzeConfig;
use crate::diag::Diagnostic;
use crate::graph::Workspace;
use crate::scan::SourceFile;

/// Wall-clock cost of one rule pass (for the verify.sh timing report).
#[derive(Debug, Clone)]
pub struct RuleTiming {
    /// Rule id, or `"graph"` for the shared symbol-table build.
    pub rule: &'static str,
    /// Elapsed microseconds.
    pub micros: u128,
}

/// Runs every rule over the scanned files, timing each pass.
pub fn run_all(files: &[SourceFile], cfg: &AnalyzeConfig) -> (Vec<Diagnostic>, Vec<RuleTiming>) {
    let mut out = Vec::new();
    let mut timings = Vec::new();

    let t0 = Instant::now();
    let ws = Workspace::build(files);
    timings.push(RuleTiming {
        rule: "graph",
        micros: t0.elapsed().as_micros(),
    });

    let mut timed = |rule: &'static str, diags: Vec<Diagnostic>, started: Instant| {
        timings.push(RuleTiming {
            rule,
            micros: started.elapsed().as_micros(),
        });
        out.extend(diags);
    };
    let t = Instant::now();
    timed("A1", a1::run(&ws, cfg), t);
    let t = Instant::now();
    timed("A4", a4::run(files, cfg), t);
    let t = Instant::now();
    timed("A6", a6::run(&ws, cfg), t);

    (out, timings)
}

/// Builds a diagnostic anchored at token `idx` of `file`.
pub(crate) fn at(
    rule: &'static str,
    file: &SourceFile,
    idx: usize,
    message: String,
    help: &str,
) -> Diagnostic {
    let tok = &file.tokens[idx];
    Diagnostic {
        rule,
        file: file.rel.clone(),
        line: tok.line,
        col: tok.col,
        message,
        help: help.to_string(),
        snippet: file.line_of(idx),
    }
}
