//! Rule-by-rule fixture tests: each fixture under `tests/fixtures/`
//! seeds known violations (and near-misses that must NOT fire), and the
//! assertions pin the exact (rule, line) set the analyzer reports.
//! Fixture files are append-only — the line numbers are load-bearing.

use checkin_analyze::analyze_sources;
use checkin_analyze::config::{AllowEntry, AnalyzeConfig};
use checkin_analyze::scan::SourceFile;

fn fixture(rel: &str, src: &str) -> SourceFile {
    SourceFile::new(rel.to_string(), src)
}

/// `(rule, line)` pairs, in report order.
fn locations(report: &checkin_analyze::Report) -> Vec<(&'static str, u32)> {
    report
        .diagnostics
        .iter()
        .map(|d| (d.rule, d.line))
        .collect()
}

#[test]
fn a1_whole_file_scope_flags_every_panic_path() {
    let files = [fixture(
        "crates/ssd/src/a1_recovery.rs",
        include_str!("fixtures/a1_recovery.rs"),
    )];
    let cfg = AnalyzeConfig {
        a1_files: vec!["crates/ssd/src/a1_recovery.rs".into()],
        ..AnalyzeConfig::default()
    };
    let report = analyze_sources(&files, &cfg);
    assert_eq!(
        locations(&report),
        vec![("A1", 6), ("A1", 7), ("A1", 9), ("A1", 12), ("A1", 20)],
        "unwrap, expect, panic!, and both index sites — nothing else \
         (debug_assert!, unwrap_or, &[u32] slices, and test code are exempt)"
    );
    let msgs: Vec<&str> = report
        .diagnostics
        .iter()
        .map(|d| d.message.as_str())
        .collect();
    assert!(msgs[0].contains(".unwrap()"), "{msgs:?}");
    assert!(msgs[1].contains(".expect()"), "{msgs:?}");
    assert!(msgs[2].contains("`panic!`"), "{msgs:?}");
    assert!(msgs[3].contains("indexing"), "{msgs:?}");
}

#[test]
fn a1_entry_function_reachability_follows_calls() {
    let files = [fixture(
        "crates/ssd/src/a1_recovery.rs",
        include_str!("fixtures/a1_recovery.rs"),
    )];
    let cfg = AnalyzeConfig {
        a1_entry_functions: vec!["entry_point".into()],
        ..AnalyzeConfig::default()
    };
    let report = analyze_sources(&files, &cfg);
    // Only `helper` is reachable from `entry_point`; `rebuild`'s four
    // violations are out of scope, as is the never-called `untouched`.
    assert_eq!(locations(&report), vec![("A1", 20)]);
    assert!(
        report.diagnostics[0]
            .message
            .contains("recovery-reachable via `entry_point`"),
        "{}",
        report.diagnostics[0].message
    );
}

#[test]
fn a4_flags_truncating_casts_with_address_witnesses() {
    let files = [fixture(
        "crates/ftl/src/a4_casts.rs",
        include_str!("fixtures/a4_casts.rs"),
    )];
    let cfg = AnalyzeConfig {
        a4_crates: vec!["ftl".into()],
        a4_self_files: vec!["crates/ftl/src/a4_casts.rs".into()],
        ..AnalyzeConfig::default()
    };
    let report = analyze_sources(&files, &cfg);
    assert_eq!(
        locations(&report),
        vec![("A4", 5), ("A4", 6), ("A4", 14)],
        "lpn and ppn witnesses plus self.0 in a self_files impl; casts of \
         plain counters and widening casts stay silent"
    );
    assert!(report.diagnostics[0].message.contains("`lpn`"));
    assert!(report.diagnostics[1].message.contains("`ppn`"));
    assert!(report.diagnostics[2].message.contains("`self.0`"));
}

#[test]
fn a4_without_self_files_skips_the_newtype_cast() {
    let files = [fixture(
        "crates/ftl/src/a4_casts.rs",
        include_str!("fixtures/a4_casts.rs"),
    )];
    let cfg = AnalyzeConfig {
        a4_crates: vec!["ftl".into()],
        ..AnalyzeConfig::default()
    };
    let report = analyze_sources(&files, &cfg);
    assert_eq!(locations(&report), vec![("A4", 5), ("A4", 6)]);
}

#[test]
fn a6_flags_discarded_results_and_spares_consumed_ones() {
    let files = [fixture(
        "crates/ssd/src/a6_results.rs",
        include_str!("fixtures/a6_results.rs"),
    )];
    let cfg = AnalyzeConfig {
        a1_files: vec!["crates/ssd/src/a6_results.rs".into()],
        ..AnalyzeConfig::default()
    };
    let report = analyze_sources(&files, &cfg);
    let a6: Vec<(&'static str, u32)> = locations(&report)
        .into_iter()
        .filter(|(r, _)| *r == "A6")
        .collect();
    assert_eq!(
        a6,
        vec![("A6", 32), ("A6", 34), ("A6", 36)],
        "`let _ =`, the unconsumed field-chain call, and bare `.ok();` — \
         bound, propagated, and non-Result discards stay clean"
    );
    let msgs: Vec<&str> = report
        .diagnostics
        .iter()
        .filter(|d| d.rule == "A6")
        .map(|d| d.message.as_str())
        .collect();
    assert!(msgs[0].contains("`let _ =` discards"), "{msgs:?}");
    assert!(msgs[1].contains("`sync` is not consumed"), "{msgs:?}");
    assert!(msgs[2].contains("bare `.ok();`"), "{msgs:?}");
}

#[test]
fn a1_cone_crosses_crates_through_typed_field_chains() {
    let files = [
        fixture(
            "crates/ssd/src/a1_xcrate_ssd.rs",
            include_str!("fixtures/a1_xcrate_ssd.rs"),
        ),
        fixture(
            "crates/ftl/src/a1_xcrate_ftl.rs",
            include_str!("fixtures/a1_xcrate_ftl.rs"),
        ),
        fixture(
            "crates/flash/src/a1_xcrate_flash.rs",
            include_str!("fixtures/a1_xcrate_flash.rs"),
        ),
    ];
    let cfg = AnalyzeConfig {
        a1_entry_functions: vec!["rebuild_after_power_loss".into()],
        ..AnalyzeConfig::default()
    };
    let report = analyze_sources(&files, &cfg);
    assert_eq!(
        locations(&report),
        vec![("A1", 10)],
        "the indexing two crates below the entry fires; the uncalled \
         panic in the same impl stays out of the cone"
    );
    let d = &report.diagnostics[0];
    assert_eq!(d.file, "crates/flash/src/a1_xcrate_flash.rs");
    assert!(
        d.message
            .contains("in `read_page` (recovery-reachable via `rebuild_after_power_loss`)"),
        "{}",
        d.message
    );
}

#[test]
fn allowlist_matches_on_snippet_and_reports_stale_entries() {
    let files = [fixture(
        "crates/ftl/src/a4_casts.rs",
        include_str!("fixtures/a4_casts.rs"),
    )];
    let cfg = AnalyzeConfig {
        a4_crates: vec!["ftl".into()],
        a4_self_files: vec!["crates/ftl/src/a4_casts.rs".into()],
        allows: vec![
            AllowEntry {
                rule: "A4".into(),
                file: "crates/ftl/src/a4_casts.rs".into(),
                snippet: "let a = lpn as u32".into(),
                line: Some(5),
                reason: "fixture: suppress the lpn truncation".into(),
            },
            AllowEntry {
                rule: "A4".into(),
                file: "crates/ftl/src/a4_casts.rs".into(),
                snippet: "no such code anywhere".into(),
                line: None,
                reason: "fixture: snippet matches nothing in a file with findings".into(),
            },
            AllowEntry {
                rule: "A4".into(),
                file: "crates/ftl/src/other.rs".into(),
                snippet: "whatever".into(),
                line: None,
                reason: "fixture: entry for a file with no findings at all".into(),
            },
        ],
        ..AnalyzeConfig::default()
    };
    let report = analyze_sources(&files, &cfg);
    assert_eq!(
        locations(&report),
        vec![("A4", 6), ("A4", 14)],
        "the lpn cast is allowlisted away by its snippet"
    );
    assert_eq!(report.unused_allows.len(), 2);
    assert!(
        report.unused_allows[0].snippet_mismatch,
        "same rule+file still has findings, so the snippet rotted"
    );
    assert!(
        !report.unused_allows[1].snippet_mismatch,
        "no findings in that file at all — plain stale, not a mismatch"
    );
}

#[test]
fn one_snippet_covers_every_line_that_contains_it() {
    let files = [fixture(
        "crates/ftl/src/a4_casts.rs",
        include_str!("fixtures/a4_casts.rs"),
    )];
    let cfg = AnalyzeConfig {
        a4_crates: vec!["ftl".into()],
        a4_self_files: vec!["crates/ftl/src/a4_casts.rs".into()],
        allows: vec![AllowEntry {
            rule: "A4".into(),
            file: "crates/ftl/src/a4_casts.rs".into(),
            snippet: "% units_per_page as u64".into(),
            line: None,
            reason: "fixture: one snippet, two modulo-reduced casts".into(),
        }],
        ..AnalyzeConfig::default()
    };
    let report = analyze_sources(&files, &cfg);
    assert_eq!(
        locations(&report),
        vec![("A4", 5)],
        "both modulo casts share the snippet; the lpn cast stays"
    );
    assert!(report.unused_allows.is_empty());
}
