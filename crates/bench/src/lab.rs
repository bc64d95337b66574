//! `lab` — the one measurement run behind `BENCH_perf.json`.
//!
//! [`run`] fills three sections of [`Row`]s and takes no options. Every
//! row is a simulated quantity, so two runs on any two hosts write the
//! same file and `scripts/verify.sh` diffs it whole:
//!
//! * **`gc`** — garbage collection under pressure: uniform / zipfian /
//!   write-only on the 48 MiB GC-pressured device, each cell's WAF,
//!   Equation (1) lifetime score, p99.9 latency and erase count.
//! * **`counts`** — what one 64-entry checkpoint command costs the
//!   device in remap mode and in copy mode: simulated nanoseconds, flash
//!   reads, unit writes. The paper's central claim (Algorithm 1 moves
//!   mapping entries and does no flash I/O).
//! * **`paper`** — every figure and table of the paper's evaluation
//!   ([`crate::figures`]), the paper's own number beside the measured
//!   one where it states one.
//!
//! One condition fails a run: a remap checkpoint must do no flash I/O
//! where a copy checkpoint reads and rewrites every log. `cargo test`
//! checks it as well (this module's tests).

use checkin_core::{JournalManager, Layout, Strategy};
use checkin_flash::{FlashArray, FlashGeometry, FlashTiming, OobKind};
use checkin_ftl::{Ftl, FtlConfig};
use checkin_sim::{Counter, SimTime, Total};
use checkin_ssd::{CheckpointMode, CowEntry, Ssd, SsdTiming};
use checkin_workload::{AccessPattern, OpMix};

use crate::harness::{render, row, speedup, Row};
use crate::{figures, gc_pressured_config, section};

/// Everything one [`run`] measured, and whether its gate held.
#[derive(Debug)]
pub struct Lab {
    /// WAF, lifetime, p99.9 and erases of three GC-pressured workloads.
    pub gc: Vec<Row>,
    /// Exact simulated cost of a remap and of a copy checkpoint.
    pub counts: Vec<Row>,
    /// The paper's figures and tables, cell by cell.
    pub paper: Vec<Row>,
    /// The gate held: a remap checkpoint did no flash I/O.
    pub passed: bool,
}

impl Lab {
    /// The `BENCH_perf.json` text.
    pub fn render(&self) -> String {
        render(&[
            ("gc", &self.gc),
            ("counts", &self.counts),
            ("paper", &self.paper),
        ])
    }
}

/// Measures all three sections and judges the gate.
pub fn run() -> Lab {
    let gc = gc_section();
    let (counts, remap, copy) = counts_section();
    let paper = figures::paper_section();

    println!();
    let passed = remap_does_no_flash_io(&remap, &copy);
    let what = format!("a remap checkpoint does no flash I/O: remap {remap:?}, copy {copy:?}");
    if passed {
        println!("PASS: {what}");
    } else {
        eprintln!("FAIL: {what}");
    }
    Lab {
        gc,
        counts,
        paper,
        passed,
    }
}

/// Appends the row `group/leaf`.
fn push(rows: &mut Vec<Row>, group: &str, leaf: &str, value: f64, unit: &'static str) {
    rows.push(row(&format!("{group}/{leaf}"), value, unit, None));
}

// ---- gc ---------------------------------------------------------------

/// Workload shapes the section runs (name, mix, skew).
const WORKLOADS: [(&str, OpMix, AccessPattern); 3] = [
    ("uniform", OpMix::A, AccessPattern::Uniform),
    ("zipfian", OpMix::A, AccessPattern::Zipfian),
    ("write-only", OpMix::WRITE_ONLY, AccessPattern::Uniform),
];

/// One Check-In run per workload on the GC-pressured device. The
/// `windowed-greedy` in the row names is the FTL's victim selector; the
/// names are as first committed, so `git log -p BENCH_perf.json` reads
/// as one history.
fn gc_section() -> Vec<Row> {
    section("gc: three workloads on the GC-pressured device");
    let mut rows = Vec::new();
    for (workload, mix, pattern) in WORKLOADS {
        let mut config = gc_pressured_config(Strategy::CheckIn);
        config.workload.mix = mix;
        config.workload.pattern = pattern;
        let report = crate::run(config);
        let name = format!("gclab/{workload}/windowed-greedy");
        let p999_us = report.latency.p999.as_micros_f64();
        let erases = report.flash.erases as f64;
        push(&mut rows, &name, "waf", report.waf, "x");
        push(&mut rows, &name, "lifetime", report.lifetime_score, "score");
        push(&mut rows, &name, "p999", p999_us, "us");
        push(&mut rows, &name, "erases", erases, "blocks");
    }
    rows
}

// ---- counts -----------------------------------------------------------

/// What one checkpoint command cost the device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct CheckpointCost {
    sim_ns: u64,
    flash_reads: u64,
    unit_writes: u64,
    remapped: u64,
    copied: u64,
}

/// Journal entries in the checkpoint fixture.
const ENTRIES: u64 = 64;

/// Executes one `mode` checkpoint of [`ENTRIES`] one-sector journal logs
/// on the paper-default array with the paper's 512 B mapping unit, where
/// every log is unit-aligned and so eligible for remapping. The journal
/// is flushed to flash first: a copy then has to read every log back.
fn checkpoint_cost(mode: CheckpointMode) -> CheckpointCost {
    let flash = FlashArray::new(FlashGeometry::paper_default(), FlashTiming::mlc());
    let config = FtlConfig {
        unit_bytes: 512,
        ..FtlConfig::default()
    };
    let ftl = Ftl::new(flash, config).expect("default FTL config is valid");
    let mut ssd = Ssd::new(ftl, SsdTiming::paper_default());
    let layout = Layout::new(1_024, 4096, 512, 1 << 14);
    let mut journal = JournalManager::new(layout, true, 0.7);
    let mut t = SimTime::ZERO;
    for key in 0..ENTRIES {
        let req = journal.append(key, 1, 512).expect("journal has room");
        t = ssd
            .write(&req, OobKind::Journal, t)
            .expect("write succeeds");
    }
    t = ssd.flush(t).expect("flush succeeds");
    let entries: Vec<CowEntry> = journal
        .begin_checkpoint()
        .entries
        .iter()
        .map(|(key, e)| CowEntry {
            src_lba: e.journal_lba,
            dst_lba: layout.home_lba(*key),
            sectors: e.sectors,
            dst_sectors: e.sectors,
            key: *key,
            merged: e.merged,
        })
        .collect();

    let flash_reads = |ssd: &Ssd| ssd.ftl().flash().counters().total(Total::FlashRead);
    let unit_writes = |ssd: &Ssd| ssd.ftl().counters().get(Counter::FtlHostUnitWrites);
    let (reads0, writes0) = (flash_reads(&ssd), unit_writes(&ssd));
    let done = ssd.checkpoint(&entries, mode, t).expect("checkpoint runs");
    CheckpointCost {
        sim_ns: done.duration_since(t).as_nanos(),
        flash_reads: flash_reads(&ssd) - reads0,
        unit_writes: unit_writes(&ssd) - writes0,
        remapped: ssd.counters().get(Counter::SsdRemapEntries),
        copied: ssd.counters().get(Counter::SsdCopyEntries),
    }
}

/// Algorithm 1's claim on the fixture, exact: the remap walk touches no
/// flash and writes one unit (the recovery metadata unit that closes
/// every checkpoint command), the copy fallback reads and rewrites every
/// log — and time tells the two apart without a tuned ratio. The copy
/// senses one page per log ([`ENTRIES`] unit reads, no coalescing), the
/// flushed journal stripes over every die of the array, and a die senses
/// one page at a time: the copy cannot finish before `ENTRIES / dies`
/// back-to-back tR on one die (64 / 8 = 8 x 45 us = 360 us here), and
/// the remap, which waits for no die, must finish inside that floor.
fn remap_does_no_flash_io(remap: &CheckpointCost, copy: &CheckpointCost) -> bool {
    let counts = |c: &CheckpointCost| (c.flash_reads, c.unit_writes, c.remapped, c.copied);
    let serial_reads = ENTRIES / FlashGeometry::paper_default().total_dies();
    let sense_floor = (FlashTiming::mlc().t_read * serial_reads).as_nanos();
    counts(remap) == (0, 1, ENTRIES, 0)
        && counts(copy) == (ENTRIES, ENTRIES + 1, 0, ENTRIES)
        && remap.sim_ns < sense_floor
        && sense_floor <= copy.sim_ns
}

fn counts_section() -> (Vec<Row>, CheckpointCost, CheckpointCost) {
    section("counts: 64-entry checkpoint command, remap walk vs copy fallback");
    let remap = checkpoint_cost(CheckpointMode::Remap);
    let copy = checkpoint_cost(CheckpointMode::Copy);
    let mut rows = Vec::new();
    for (mode, c) in [("remap", &remap), ("copy", &copy)] {
        let name = format!("checkpoint/{mode}_64_entries");
        push(&mut rows, &name, "sim_ns", c.sim_ns as f64, "ns");
        push(
            &mut rows,
            &name,
            "flash_reads",
            c.flash_reads as f64,
            "pages",
        );
        push(
            &mut rows,
            &name,
            "unit_writes",
            c.unit_writes as f64,
            "units",
        );
    }
    rows.push(speedup(
        "checkpoint/remap_vs_copy_sim_time",
        copy.sim_ns as f64,
        remap.sim_ns as f64,
    ));
    (rows, remap, copy)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_remap_checkpoint_does_no_flash_io() {
        let remap = checkpoint_cost(CheckpointMode::Remap);
        let copy = checkpoint_cost(CheckpointMode::Copy);
        assert!(
            remap_does_no_flash_io(&remap, &copy),
            "remap {remap:?}, copy {copy:?}"
        );
    }

    #[test]
    fn deterministic_sections_render_identically_twice() {
        let text = || {
            let gc = gc_section();
            let (counts, ..) = counts_section();
            render(&[("gc", &gc), ("counts", &counts)])
        };
        assert_eq!(text(), text());
    }
}
