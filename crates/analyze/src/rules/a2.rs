//! A2-deterministic-sim.
//!
//! The simulator's claim to correctness is replayability: the same seed
//! and workload must produce byte-identical reports, counters, and CSV
//! output. Three things silently break that:
//!
//! * `HashMap`/`HashSet` — iteration order is randomized per process
//!   (SipHash keys), so any iteration feeding output or scheduling
//!   decisions diverges between runs;
//! * `std::time::Instant`/`SystemTime` — wall-clock values differ every
//!   run (the simulator has its own virtual clock);
//! * `rand`-style ambient randomness — unseeded entropy;
//! * `thread_local!` — state that forks silently per worker, so a result
//!   depends on which thread computed it (`static mut`, its sibling, is
//!   already unusable under the workspace's `unsafe_code = "deny"`).
//!
//! The rule bans the identifiers outright in the configured crates;
//! deterministic replacements (`BTreeMap`, `BTreeSet`, the sim clock,
//! seeded xorshift, state passed by ownership) exist for every use.

use crate::config::AnalyzeConfig;
use crate::diag::Diagnostic;
use crate::lexer::TokKind;
use crate::rules::at;
use crate::scan::SourceFile;

const BANNED: &[(&str, &str, &str)] = &[
    (
        "HashMap",
        "`HashMap` has nondeterministic iteration order",
        "use `BTreeMap` so iteration (and any derived output) is stable across runs",
    ),
    (
        "HashSet",
        "`HashSet` has nondeterministic iteration order",
        "use `BTreeSet` so iteration (and any derived output) is stable across runs",
    ),
    (
        "Instant",
        "`std::time::Instant` reads the wall clock",
        "use the simulator's virtual clock (`SimTime`) for result-affecting time",
    ),
    (
        "SystemTime",
        "`SystemTime` reads the wall clock",
        "use the simulator's virtual clock (`SimTime`) for result-affecting time",
    ),
    (
        "thread_rng",
        "ambient randomness breaks replayability",
        "use the seeded deterministic PRNG carried by the simulation config",
    ),
    (
        "rand",
        "ambient randomness breaks replayability",
        "use the seeded deterministic PRNG carried by the simulation config",
    ),
    (
        "thread_local",
        "`thread_local!` state forks per worker thread",
        "thread the state through explicit ownership so a result cannot depend on its thread",
    ),
];

/// Runs A2 over the workspace.
pub fn run(files: &[SourceFile], cfg: &AnalyzeConfig) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for f in files {
        if !cfg.a2_crates.iter().any(|c| c == &f.crate_name) {
            continue;
        }
        for (i, tok) in f.tokens.iter().enumerate() {
            if tok.kind != TokKind::Ident || f.in_test(i) {
                continue;
            }
            if let Some((_, msg, help)) = BANNED.iter().find(|(name, _, _)| tok.text == *name) {
                out.push(at("A2", f, i, (*msg).to_string(), help));
            }
        }
    }
    out
}
