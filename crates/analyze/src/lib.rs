//! `checkin-analyze` — workspace-wide static invariant checker.
//!
//! The simulator's claim of recoverability after power loss rests on
//! invariants that need a whole-program view the type system does not
//! have. This crate checks them offline, with zero dependencies, over
//! the raw source of every crate in the workspace:
//!
//! * **A1-no-panic-in-recovery** — recovery paths must propagate typed
//!   errors, never panic; reachability is cross-crate over the
//!   workspace call graph ([`rules::a1`], [`graph`]);
//! * **A4-lpn-arithmetic** — no bare truncating casts on address
//!   arithmetic ([`rules::a4`]);
//! * **A6-no-discarded-Result** — recovery scopes never drop a
//!   `Result` ([`rules::a6`], [`dataflow`]).
//!
//! (Deterministic replay — no wall clock, hash-ordered container or
//! `thread_local!` in the six result-affecting crates — was rule A2 and
//! is clippy's job now: `disallowed_types` / `disallowed_macros` under
//! the root `clippy.toml`, type-resolved where A2 matched tokens.)
//!
//! Scopes and documented exceptions live in `analyze.toml` at the
//! workspace root ([`config`]). The checker is a gating tier in
//! `scripts/verify.sh` (via `--format json`); run it directly with
//! `cargo run -p checkin-analyze`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod dataflow;
pub mod diag;
pub mod graph;
pub mod json;
pub mod lexer;
pub mod rules;
pub mod scan;

use std::path::Path;

use config::{AllowEntry, AnalyzeConfig};
use diag::Diagnostic;
use rules::RuleTiming;
use scan::SourceFile;

/// An allowlist entry that suppressed nothing, and why that is.
#[derive(Debug, Clone)]
pub struct StaleAllow {
    /// The entry itself.
    pub entry: AllowEntry,
    /// `true` when a finding of the same rule existed in the same file
    /// but its source line no longer contains the entry's snippet — the
    /// flagged code changed under the entry.
    pub snippet_mismatch: bool,
}

/// Result of one analysis run.
#[derive(Debug)]
pub struct Report {
    /// Findings that survived the allowlist, sorted by location.
    pub diagnostics: Vec<Diagnostic>,
    /// Number of files scanned.
    pub files_scanned: usize,
    /// Allowlist entries that matched no finding (stale).
    pub unused_allows: Vec<StaleAllow>,
    /// Per-rule wall-clock timings.
    pub timings: Vec<RuleTiming>,
}

impl Report {
    /// True when the run gates green: no findings, no stale allows.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty() && self.unused_allows.is_empty()
    }
}

/// Analyzes already-scanned sources under a config. This is the pure
/// core: `analyze_workspace` wraps it with filesystem discovery, and
/// tests feed it fixture sources directly.
pub fn analyze_sources(files: &[SourceFile], cfg: &AnalyzeConfig) -> Report {
    let (mut raw, timings) = rules::run_all(files, cfg);
    raw.sort_by(|a, b| (&a.file, a.line, a.col, a.rule).cmp(&(&b.file, b.line, b.col, b.rule)));
    raw.dedup();

    // An allow matches on rule + file + snippet-substring of the flagged
    // line. The `line` field is a reader hint only: unrelated edits that
    // shift line numbers must not stale an entry or un-suppress a
    // finding.
    let rule_file_pairs: Vec<(String, String)> = raw
        .iter()
        .map(|d| (d.rule.to_string(), d.file.clone()))
        .collect();
    let mut used = vec![false; cfg.allows.len()];
    let diagnostics: Vec<Diagnostic> = raw
        .into_iter()
        .filter(|d| {
            let hit = cfg.allows.iter().position(|a| {
                a.rule == d.rule && a.file == d.file && d.snippet.contains(&a.snippet)
            });
            match hit {
                Some(i) => {
                    used[i] = true;
                    false
                }
                None => true,
            }
        })
        .collect();
    let unused_allows = cfg
        .allows
        .iter()
        .zip(&used)
        .filter(|(_, u)| !**u)
        .map(|(a, _)| StaleAllow {
            entry: a.clone(),
            snippet_mismatch: rule_file_pairs
                .iter()
                .any(|(r, f)| *r == a.rule && *f == a.file),
        })
        .collect();

    Report {
        diagnostics,
        files_scanned: files.len(),
        unused_allows,
        timings,
    }
}

/// Loads `analyze.toml` from `root`, scans `crates/*/src`, and runs
/// every rule.
///
/// # Errors
///
/// Returns a message when the config is missing/malformed or a source
/// tree cannot be read.
pub fn analyze_workspace(root: &Path) -> Result<Report, String> {
    let cfg_path = root.join("analyze.toml");
    let cfg_src = std::fs::read_to_string(&cfg_path)
        .map_err(|e| format!("cannot read {}: {e}", cfg_path.display()))?;
    let cfg = AnalyzeConfig::parse(&cfg_src).map_err(|e| format!("{}: {e}", cfg_path.display()))?;

    let mut files = Vec::new();
    for path in scan::workspace_files(root)? {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let src = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        files.push(SourceFile::new(rel, &src));
    }
    Ok(analyze_sources(&files, &cfg))
}
