//! `lab` — the one measurement run behind `BENCH_perf.json`.
//!
//! [`run`] fills four sections of [`Row`]s and takes no options. Every
//! row is a simulated quantity, so two runs on any two hosts write the
//! same file and `scripts/verify.sh` diffs it whole:
//!
//! * **`gc`** — garbage collection under pressure: uniform / zipfian /
//!   write-only on the 48 MiB GC-pressured device, each cell's WAF,
//!   Equation (1) lifetime score, p99.9 latency and erase count.
//! * **`host`** — the host bytes the simulated device holds at the end
//!   of a run: its page store and its mapping table, for a Check-In and
//!   a Baseline run on the paper device and the `gc` section's runs.
//! * **`counts`** — the rows of [`GATES`], gate after gate: each builds
//!   a small fixture around one mechanism of the model — a checkpoint
//!   command in remap and in copy mode (Algorithm 1), a home read,
//!   page-filling writes, multi-plane programs, mapping walks, reads
//!   beside programs, checkpoint, trim and GC steps, page-out placement
//!   — and records what it cost.
//! * **`paper`** — every figure and table of the paper's evaluation
//!   ([`crate::figures`]), the paper's own number and a verdict beside
//!   each row the paper makes a claim on.
//!
//! Eleven conditions fail a run. Ten are the exact gates of [`GATES`],
//! each stated once, on its gate function, and checked by `cargo test`
//! as well: this module's test of the gate's name. The eleventh: every
//! claim of [`figures::CLAIMS`] must earn the verdict it declares
//! ([`figures::misjudged`]), in either direction.

use std::collections::BTreeSet;

use checkin_core::{JournalManager, JournalOptions, KvEngine, Layout, RunReport, Strategy};
use checkin_flash::{
    BlockId, FlashArray, FlashGeometry, FlashTiming, OobKind, PageContent, UnitPayload,
};
use checkin_ftl::{Ftl, FtlConfig, GcTrigger, Lpn, MapCacheModel, UnitWrite};
use checkin_sim::{Counter, Progress, Row, SimDuration, SimTime, Total, Tracer};
use checkin_ssd::{
    CheckpointMode, CowEntry, ReadRequest, Ssd, SsdTiming, WriteContent, WriteRequest, SECTOR_BYTES,
};
use checkin_workload::{AccessPattern, OpMix};

use crate::harness::{fill, render, row, speedup};
use crate::{figures, gc_pressured_config, paper_config, section};

/// Everything one [`run`] measured, and whether its gate held.
#[derive(Debug)]
pub struct Lab {
    /// WAF, lifetime, p99.9 and erases of three GC-pressured workloads.
    pub gc: Vec<Row>,
    /// Page-store and mapping-table bytes at the end of five runs.
    pub host: Vec<Row>,
    /// The rows of [`GATES`], in the table's order.
    pub counts: Vec<Row>,
    /// The paper's figures and tables, cell by cell.
    pub paper: Vec<Row>,
    /// Every gate of [`GATES`] held, and every claim of the paper earned
    /// its declared verdict.
    pub passed: bool,
}

impl Lab {
    /// The `BENCH_perf.json` text.
    pub fn render(&self) -> String {
        render(&[
            ("gc", &self.gc),
            ("host", &self.host),
            ("counts", &self.counts),
            ("paper", &self.paper),
        ])
    }

    /// `template` (EXPERIMENTS.md) with its generated blocks filled from
    /// the rows of all four sections ([`crate::harness::fill`]).
    ///
    /// # Errors
    ///
    /// A block of `template` that is malformed or matches no row.
    pub fn experiments(&self, template: &str) -> Result<String, String> {
        let rows = [&self.gc[..], &self.host, &self.counts, &self.paper].concat();
        fill(template, &rows)
    }
}

/// A gate's verdict: `Err` holds the measured values that broke it.
pub type Verdict = Result<(), String>;

/// An exact gate: builds its fixture, pushes its `counts` rows and
/// judges them.
pub type Gate = fn(&mut Vec<Row>) -> Verdict;

/// The entry of [`GATES`] for the gate function `f`, named after it.
macro_rules! gate {
    ($f:ident) => {
        (stringify!($f), $f as Gate)
    };
}

/// The ten exact gates, in the order of their `counts` rows. Each
/// condition is stated on the gate's function, and each gate is also
/// the test of its name in this module.
pub const GATES: [(&str, Gate); 10] = [
    gate!(a_remap_checkpoint_does_no_flash_io),
    gate!(a_read_costs_what_the_record_occupies),
    gate!(a_write_waits_for_a_slot_not_a_program),
    gate!(a_die_programs_its_planes_at_once),
    gate!(a_mapping_walk_misses_once_per_segment),
    gate!(a_read_does_not_wait_for_an_unseen_program),
    gate!(a_read_waits_out_one_scatter_program_at_most),
    gate!(a_read_waits_out_one_step_at_most),
    gate!(a_read_waits_out_one_gc_step_at_most),
    gate!(a_page_out_goes_to_a_free_die),
];

/// Measures all four sections and judges the eleven gates.
pub fn run() -> Lab {
    let (gc, gc_reports) = gc_section();
    let host = host_section(&gc_reports);
    let (counts, mut verdicts) = counts_section();
    let paper = figures::paper_section();
    let misjudged = figures::misjudged(&paper);
    verdicts.push((
        "every_claim_earns_its_declared_verdict",
        verdict(misjudged.is_empty(), misjudged),
    ));
    println!();
    for (name, verdict) in &verdicts {
        match verdict {
            Ok(()) => println!("PASS: {name}"),
            Err(measured) => eprintln!("FAIL: {name}: {measured}"),
        }
    }
    Lab {
        gc,
        host,
        counts,
        paper,
        passed: verdicts.iter().all(|(_, verdict)| verdict.is_ok()),
    }
}

/// `Ok` when `held`, else the values `measured` that broke the gate.
fn verdict(held: bool, measured: impl std::fmt::Debug) -> Verdict {
    if held {
        Ok(())
    } else {
        Err(format!("{measured:?}"))
    }
}

/// Appends the row `group/leaf`.
fn push(rows: &mut Vec<Row>, group: &str, leaf: &str, value: f64, unit: &'static str) {
    rows.push(row(&format!("{group}/{leaf}"), value, unit));
}

/// Appends the row `group/leaf` in ns for each `(leaf, ns)`.
fn push_ns(rows: &mut Vec<Row>, group: &str, leaves: &[(&str, u64)]) {
    for &(leaf, ns) in leaves {
        push(rows, group, leaf, ns as f64, "ns");
    }
}

// ---- gc ---------------------------------------------------------------

/// Workload shapes the section runs (name, mix, skew).
const WORKLOADS: [(&str, OpMix, AccessPattern); 3] = [
    ("uniform", OpMix::A, AccessPattern::Uniform),
    ("zipfian", OpMix::A, AccessPattern::Zipfian),
    ("write-only", OpMix::WRITE_ONLY, AccessPattern::Uniform),
];

/// One Check-In run per workload on the GC-pressured device, its rows
/// `gclab/<workload>/…`, and each run's report named `gclab-<workload>`
/// for [`host_section`].
fn gc_section() -> (Vec<Row>, Vec<(String, RunReport)>) {
    section("gc: three workloads on the GC-pressured device");
    let mut rows = Vec::new();
    let mut reports = Vec::new();
    for (workload, mix, pattern) in WORKLOADS {
        let mut config = gc_pressured_config(Strategy::CheckIn);
        config.workload.mix = mix;
        config.workload.pattern = pattern;
        let report = crate::run(config);
        let name = format!("gclab/{workload}");
        let p999_us = report.latency.p999.as_micros_f64();
        let erases = report.counters.total(Total::FlashErase) as f64;
        push(&mut rows, &name, "waf", report.waf, "x");
        push(&mut rows, &name, "lifetime", report.lifetime_score, "score");
        push(&mut rows, &name, "p999", p999_us, "us");
        push(&mut rows, &name, "erases", erases, "blocks");
        let die_util = report.utilization.dies.mean;
        push(&mut rows, &name, "die_util", die_util, "fraction");
        reports.push((format!("gclab-{workload}"), report));
    }
    (rows, reports)
}

// ---- host -------------------------------------------------------------

/// The `host/…` rows of five run reports — the page store's and the
/// mapping table's host bytes at the end of the run — each under
/// `host/<cell>/…`: one [`paper_config`] run of Check-In (`check-in`)
/// and of the Baseline (`baseline`), then the `gc` section's runs.
/// Simulated like every other row: a capacity times an element size,
/// and the capacities follow what the run programmed and mapped.
fn host_section(gc: &[(String, RunReport)]) -> Vec<Row> {
    section("host: page-store and mapping-table bytes at the end of a run");
    let paper = [Strategy::CheckIn, Strategy::Baseline]
        .map(|s| (s.label().to_lowercase(), crate::run(paper_config(s))));
    let mut rows = Vec::new();
    for (cell, report) in paper.iter().chain(gc) {
        for r in report.rows() {
            if let Some(leaf) = r.name.strip_prefix("host/") {
                rows.push(row(&format!("host/{cell}/{leaf}"), r.value, r.unit));
            }
        }
    }
    rows
}

// ---- counts -----------------------------------------------------------

/// The `counts` rows — every gate of [`GATES`] in turn — and each gate's
/// verdict.
fn counts_section() -> (Vec<Row>, Vec<(&'static str, Verdict)>) {
    section("counts: the fixtures of lab::GATES, one gate after another");
    let mut rows = Vec::new();
    let verdicts = GATES
        .iter()
        .map(|&(name, gate)| (name, gate(&mut rows)))
        .collect();
    (rows, verdicts)
}

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

/// The paper-default array under `timing`, with the paper's 512 B
/// mapping unit.
fn device(timing: FlashTiming) -> Ssd {
    device_caching(timing, None)
}

/// [`device`] whose mapping cache holds `map_cache_entries`.
fn device_caching(timing: FlashTiming, map_cache_entries: Option<u64>) -> Ssd {
    let flash = FlashArray::new(FlashGeometry::paper_default(), timing);
    let config = FtlConfig {
        unit_bytes: SECTOR_BYTES,
        map_cache_entries,
        ..FtlConfig::default()
    };
    let ftl = Ftl::new(flash, config).expect("default FTL config is valid");
    Ssd::new(ftl, SsdTiming::paper_default())
}

fn flash_reads(ssd: &Ssd) -> u64 {
    ssd.ftl().flash().counters().total(Total::FlashRead)
}

/// A record write of `sectors` whole sectors at `lba`, keyed by `lba`.
fn record(lba: u64, sectors: u32) -> WriteRequest {
    WriteRequest {
        lba,
        sectors,
        content: WriteContent::Record {
            key: lba,
            version: 1,
            bytes: sectors * SECTOR_BYTES,
        },
    }
}

/// Executes one `mode` checkpoint of [`checkpoint_fixture`] under
/// `timing`.
fn checkpoint_cost(mode: CheckpointMode, timing: FlashTiming) -> CheckpointCost {
    let (mut ssd, entries, t) = checkpoint_fixture(timing);
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

/// [`ENTRIES`] one-sector journal logs on the paper-default array under
/// `timing`, every log unit-aligned and so eligible for remapping, and
/// flushed to flash: a copy then has to read every log back. Returns
/// the device, the checkpoint entries and the instant the flush ended.
fn checkpoint_fixture(timing: FlashTiming) -> (Ssd, Vec<CowEntry>, SimTime) {
    let mut ssd = device(timing);
    let layout = Layout::new(1_024, 4096, SECTOR_BYTES, 1 << 14);
    let mut journal = JournalManager::with_options(layout, JournalOptions::check_in(0.7));
    let mut t = SimTime::ZERO;
    for key in 0..ENTRIES {
        let req = journal
            .append(key, 1, SECTOR_BYTES)
            .expect("journal has room");
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
    (ssd, entries, t)
}

/// Algorithm 1's claim on [`checkpoint_fixture`], exact: the remap walk
/// touches no flash and writes one unit (the recovery metadata unit that
/// closes every checkpoint command); the copy fallback rewrites every log
/// and reads it back first, sensing each flash page once — the journal
/// was paged out `units_per_page` logs to the page — and time tells the
/// two apart without a tuned ratio: the remap waits for no die, so it
/// takes the same nanoseconds under TLC timing as under MLC, while the
/// copy waits for at least one sense and is slower on TLC by at least
/// the difference of the two tR. The rows are the MLC costs.
fn a_remap_checkpoint_does_no_flash_io(rows: &mut Vec<Row>) -> Verdict {
    let (mlc, tlc) = (FlashTiming::mlc(), FlashTiming::tlc());
    let remap = checkpoint_cost(CheckpointMode::Remap, mlc);
    let copy = checkpoint_cost(CheckpointMode::Copy, mlc);
    for (mode, c) in [("remap", &remap), ("copy", &copy)] {
        let name = format!("checkpoint/{mode}_{ENTRIES}_entries");
        push(rows, &name, "sim_ns", c.sim_ns as f64, "ns");
        push(rows, &name, "flash_reads", c.flash_reads as f64, "pages");
        push(rows, &name, "unit_writes", c.unit_writes as f64, "units");
    }
    let (copy_ns, remap_ns) = (copy.sim_ns as f64, remap.sim_ns as f64);
    rows.push(speedup(
        "checkpoint/remap_vs_copy_sim_time",
        copy_ns,
        remap_ns,
    ));
    let remap_tlc = checkpoint_cost(CheckpointMode::Remap, tlc);
    let copy_tlc = checkpoint_cost(CheckpointMode::Copy, tlc);
    let counts = |c: &CheckpointCost| (c.flash_reads, c.unit_writes, c.remapped, c.copied);
    let units_per_page = u64::from(FlashGeometry::paper_default().page_bytes / SECTOR_BYTES);
    let sense_gap = (tlc.t_read - mlc.t_read).as_nanos();
    verdict(
        counts(&remap) == (0, 1, ENTRIES, 0)
            && counts(&copy) == (ENTRIES / units_per_page, ENTRIES + 1, 0, ENTRIES)
            && remap_tlc == remap
            && counts(&copy_tlc) == counts(&copy)
            && copy_tlc.sim_ns >= copy.sim_ns + sense_gap,
        (remap, copy, remap_tlc, copy_tlc),
    )
}

/// Record sizes of the read gate: one sector class, one whole slot.
const READ_SIZES: [u32; 2] = [128, 4096];

/// The read path's two rules, exact: one record of each of
/// [`READ_SIZES`] is loaded — a load ends in a flush, so both are on
/// flash — and read back from its home slot on the idle device. `get`
/// asks for the sectors the value spans, so the 128 B record costs one
/// mapping lookup and one flash read, not the slot's eight lookups; and
/// the device senses a flash page once per command, so the slot-sized
/// record's eight lookups cost one flash read per page holding its
/// units, fewer than eight.
fn a_read_costs_what_the_record_occupies(rows: &mut Vec<Row>) -> Verdict {
    let mut ssd = device(FlashTiming::mlc());
    let layout = Layout::new(1_024, 4096, SECTOR_BYTES, 1 << 14);
    let mut engine = KvEngine::new(Strategy::CheckIn, layout, 0.7);
    let records: Vec<(u64, u32)> = (0..).zip(READ_SIZES).collect();
    let mut t = engine
        .load(&mut ssd, &records, SimTime::ZERO)
        .expect("load succeeds");
    let unit_lookups = |ssd: &Ssd| ssd.ftl().counters().get(Counter::FtlHostUnitReads);
    // (unit lookups, flash reads, flash pages holding the record)
    let mut costs = Vec::new();
    for (key, value_bytes) in records {
        let home = layout.home_lba(key);
        let sectors = u64::from(value_bytes.div_ceil(SECTOR_BYTES));
        let pages: BTreeSet<_> = (home..home + sectors)
            .filter_map(|lba| ssd.ftl().flash_page_of(Lpn(lba)))
            .collect();
        let (lookups0, reads0) = (unit_lookups(&ssd), flash_reads(&ssd));
        let read = engine.get(&mut ssd, key, t).expect("get succeeds");
        let (lookups, reads) = (unit_lookups(&ssd) - lookups0, flash_reads(&ssd) - reads0);
        let name = format!("read/{value_bytes}B");
        push(rows, &name, "unit_lookups", lookups as f64, "units");
        push(rows, &name, "flash_reads", reads as f64, "pages");
        let sim_ns = read.finish.duration_since(t).as_nanos();
        push(rows, &name, "sim_ns", sim_ns as f64, "ns");
        costs.push((lookups, reads, pages.len() as u64));
        t = read.finish;
    }
    let held = matches!(costs[..], [(1, 1, 1), (8, reads, pages)] if reads == pages && pages < 8);
    verdict(held, costs)
}

/// The write buffer's rule, from the flash timing alone: on the
/// paper-default array, idle and filled to one unit below the write
/// buffer's watermark, `write_points + 1` page-sized writes are issued
/// at one instant, the first unit of each paging the oldest page out.
/// The first write is acknowledged in less than one tPROG, while its
/// page takes at least one to program; and the last, which finds a page
/// programming on every write point, is acknowledged exactly when the
/// first of them finishes and frees its slot.
fn a_write_waits_for_a_slot_not_a_program(rows: &mut Vec<Row>) -> Verdict {
    let mut ssd = device(FlashTiming::mlc());
    let tracer = Tracer::ring_buffered(4_096);
    ssd.set_tracer(tracer.clone());
    let config = *ssd.ftl().config();
    let page_sectors = FlashGeometry::paper_default().page_bytes / SECTOR_BYTES;
    let mut t = SimTime::ZERO;
    for lba in 0..u64::from(config.write_buffer_units - 1) {
        t = ssd
            .write(&record(lba, 1), OobKind::Data, t)
            .expect("write succeeds");
    }
    let at = t + SimDuration::from_millis(1);
    let first_lba = 1 << 20;
    let acks: Vec<u64> = (0..u64::from(config.write_points) + 1)
        .map(|i| {
            let req = record(first_lba + i * u64::from(page_sectors), page_sectors);
            let ack = ssd.write(&req, OobKind::Data, at).expect("write succeeds");
            ack.duration_since(at).as_nanos()
        })
        .collect();
    let first_program = tracer
        .drain()
        .iter()
        .filter(|e| e.op == "page_out")
        .find_map(|e| e.fields().iter().find(|f| f.0 == "finish_ns"))
        .map(|f| f.1)
        .expect("the first write paged out");
    let page_out_ack = acks.first().copied().unwrap_or_default();
    let program_finish = first_program - at.as_nanos();
    let backpressured_ack = acks.last().copied().unwrap_or_default();
    push_ns(
        rows,
        "write",
        &[
            ("page_out_ack_ns", page_out_ack),
            ("program_finish_ns", program_finish),
            ("backpressured_ack_ns", backpressured_ack),
        ],
    );
    let t_prog = FlashTiming::mlc().t_program.as_nanos();
    verdict(
        page_out_ack < t_prog && t_prog <= program_finish && backpressured_ack == program_finish,
        (page_out_ack, program_finish, backpressured_ack),
    )
}

/// Page-filling writes of the idle-die half of
/// [`a_die_programs_its_planes_at_once`]: 2N, so that N multi-plane
/// pages hold them.
const PAGE_FILLING_WRITES: u64 = 16;

/// The multi-plane rule, from the flash timing alone. On the
/// paper-default array a block of die 0 erases while page index 0 of two
/// blocks there is programmed three ways: a plane pair in one call
/// finishes one tPROG after the erase is done; a second call after a
/// first finishes a whole tPROG later, whether its page is on the first
/// page's plane or on the other one. And [`idle_die_tprogs`]: the FTL's
/// page-filling writes book one tPROG per two pages with the die idle
/// throughout, die time and nothing else.
fn a_die_programs_its_planes_at_once(rows: &mut Vec<Row>) -> Verdict {
    let g = FlashGeometry::paper_default();
    // Blocks stripe channel, die, plane: die 0 of channel 0 holds blocks
    // 0, 16 and 32 on plane 0, and 8 on plane 1.
    let (plane0, plane1, plane0_again, erased) = (BlockId(0), BlockId(8), BlockId(16), BlockId(32));
    let page = PageContent::empty(1);
    let busy_die = || {
        let mut flash = FlashArray::new(g, FlashTiming::mlc());
        flash
            .erase(erased, SimTime::ZERO)
            .expect("a fresh block erases");
        flash
    };
    let mut flash = busy_die();
    let pair = [(g.first_ppn(plane0), &page), (g.first_ppn(plane1), &page)];
    let plane_pair = flash
        .program_planes(&pair, SimTime::ZERO)
        .expect("one die's planes at one page index");
    let two_calls = |second: BlockId| {
        let mut flash = busy_die();
        let mut program = |block| {
            flash
                .program(g.first_ppn(block), &page, SimTime::ZERO)
                .expect("the page is erased and in range")
                .finish
        };
        program(plane0);
        program(second).as_nanos()
    };
    let plane_pair = plane_pair.finish.as_nanos();
    let (same_plane, other_plane) = (two_calls(plane0_again), two_calls(plane1));
    push_ns(
        rows,
        "program",
        &[
            ("plane_pair_finish_ns", plane_pair),
            ("same_plane_finish_ns", same_plane),
            ("other_plane_call_finish_ns", other_plane),
        ],
    );
    let tprogs = idle_die_tprogs();
    let leaf = format!("idle_die_{PAGE_FILLING_WRITES}_page_writes_tprogs");
    push(rows, "program", &leaf, tprogs as f64, "count");
    let t = FlashTiming::mlc();
    let first = (t.t_erase + t.t_program).as_nanos();
    let next = first + t.t_program.as_nanos();
    let measured = (plane_pair, same_plane, other_plane, tprogs);
    verdict(
        measured == (first, next, next, PAGE_FILLING_WRITES / 2),
        measured,
    )
}

/// The tPROGs [`PAGE_FILLING_WRITES`] 4 KiB units written at one instant
/// book on an idle FTL of one die with two planes, one write point each,
/// and a two-unit watermark: its die time over one tPROG.
fn idle_die_tprogs() -> u64 {
    let geometry = FlashGeometry {
        channels: 1,
        dies_per_channel: 1,
        planes_per_die: 2,
        blocks_per_plane: 8,
        pages_per_block: 32,
        page_bytes: 4096,
    };
    let config = FtlConfig {
        unit_bytes: 4096,
        write_points: 2,
        write_buffer_units: 2,
        gc_threshold_blocks: 2,
        gc_soft_threshold_blocks: 4,
        ..FtlConfig::default()
    };
    let flash = FlashArray::new(geometry, FlashTiming::mlc());
    let mut ftl = Ftl::new(flash, config).expect("the fixture's FTL config is valid");
    for lpn in 0..PAGE_FILLING_WRITES {
        let unit = UnitWrite {
            lpn: Lpn(lpn),
            payload: UnitPayload::single(lpn, 1, 4096),
            whole_unit: true,
        };
        ftl.write(unit, OobKind::Data, SimTime::ZERO)
            .expect("write succeeds");
    }
    let busy = ftl.flash().die_busy_time().as_nanos();
    busy / FlashTiming::mlc().t_program.as_nanos().max(1)
}

/// One command's mapping walk: the firmware time it booked beyond the
/// command's fixed costs, and what one access cost at the table size the
/// command saw.
#[derive(Debug, Clone, Copy)]
struct WalkCost {
    sim_ns: u64,
    access_ns: u64,
}

/// Entries per mapping segment.
const SEGMENT: u64 = MapCacheModel::SEGMENT_ENTRIES;

/// Units the trim walks: eight whole segments.
const TRIM_UNITS: u64 = 8 * SEGMENT;

/// The mapping cache's segment rule on [`map_walk_fixture`], exact, with
/// every walk on a cache that misses: a one-unit lookup costs one access;
/// the trim misses once in each of its eight segments and hits for the
/// rest; the remap batch misses once per log segment and once for all
/// the homes, and hits for the other 63 home updates. The read, the
/// remap and the trim run in turn on one fixture.
fn a_mapping_walk_misses_once_per_segment(rows: &mut Vec<Row>) -> Verdict {
    let (mut ssd, entries, t) = map_walk_fixture();
    let timing = *ssd.timing();
    let one_unit = walk_cost(
        &mut ssd,
        timing.cpu_cmd_cost + timing.dram_unit_cost,
        |ssd| {
            let req = ReadRequest {
                lba: 0,
                sectors: 1,
                key: None,
            };
            ssd.read_into(&req, t, &mut Vec::new())
                .expect("read succeeds");
        },
    );
    let cow_entries = timing.cpu_cow_entry_cost * ENTRIES;
    let remap = walk_cost(&mut ssd, timing.cpu_cmd_cost + cow_entries, |ssd| {
        let at = t + SimDuration::from_millis(50);
        ssd.checkpoint(&entries, CheckpointMode::Remap, at)
            .expect("checkpoint runs");
    });
    let trim = walk_cost(&mut ssd, timing.cpu_cmd_cost, |ssd| {
        ssd.deallocate(0, TRIM_UNITS as u32, t + SimDuration::from_millis(100));
    });
    let hit_ns = MapCacheModel::HIT_COST.as_nanos();
    push_ns(
        rows,
        "map",
        &[
            ("one_unit_ns", one_unit.sim_ns),
            (&format!("trim_{TRIM_UNITS}_units_ns"), trim.sim_ns),
            (&format!("remap_{ENTRIES}_entries_ns"), remap.sim_ns),
        ],
    );
    let misses_and_hits = |c: &WalkCost, misses: u64, hits: u64| {
        c.access_ns > hit_ns && c.sim_ns == misses * c.access_ns + hits * hit_ns
    };
    let trim_misses = TRIM_UNITS / SEGMENT;
    verdict(
        misses_and_hits(&one_unit, 1, 0)
            && misses_and_hits(&trim, trim_misses, TRIM_UNITS - trim_misses)
            && misses_and_hits(&remap, ENTRIES + 1, ENTRIES - 1),
        (hit_ns, one_unit, trim, remap),
    )
}

/// The paper-default array whose mapping cache holds a quarter of what
/// the fixture maps: [`TRIM_UNITS`] units written, and one log at the
/// head of each of [`ENTRIES`] segments past them. Returns the device,
/// the remap entries of its logs, and an instant it is idle at.
fn map_walk_fixture() -> (Ssd, Vec<CowEntry>, SimTime) {
    let mut ssd = device_caching(FlashTiming::mlc(), Some(TRIM_UNITS / 4));
    let log = |i: u64| TRIM_UNITS + i * SEGMENT;
    let mut t = SimTime::ZERO;
    for lba in (0..TRIM_UNITS).step_by(64) {
        t = ssd
            .write(&record(lba, 64), OobKind::Data, t)
            .expect("write succeeds");
    }
    for i in 0..ENTRIES {
        t = ssd
            .write(&record(log(i), 1), OobKind::Data, t)
            .expect("write succeeds");
    }
    t = ssd.flush(t).expect("flush succeeds") + SimDuration::from_millis(50);
    let entries = (0..ENTRIES)
        .map(|i| CowEntry {
            src_lba: log(i),
            dst_lba: 1 << 20 | i,
            sectors: 1,
            dst_sectors: 1,
            key: log(i),
            merged: false,
        })
        .collect();
    (ssd, entries, t)
}

/// Runs one command on `ssd` and returns its mapping walk: the firmware
/// time it booked less the command's `fixed` share.
fn walk_cost(ssd: &mut Ssd, fixed: SimDuration, command: impl FnOnce(&mut Ssd)) -> WalkCost {
    let access_ns = walk_ns(ssd, 1, 0);
    let busy = ssd.cpu_busy_time();
    command(ssd);
    WalkCost {
        sim_ns: (ssd.cpu_busy_time() - busy - fixed).as_nanos(),
        access_ns,
    }
}

/// The one die's write buffer programs lpn 1 (and, queued behind it, lpn
/// 2) from this instant on; lpn 0 has long been on flash.
const PROGRAMS_AT: SimDuration = SimDuration::from_millis(10);

/// How far into lpn 1's program each read is issued.
const READ_INTO: SimDuration = SimDuration::from_micros(100);

/// One channel, one die, one plane; one 4 KiB unit to the page, a
/// one-unit watermark and two write points, so that every write pages
/// its unit out at once and two programs can be in flight. Lpn 0 is
/// written at zero, then lpns `1..=queued + 1` at [`PROGRAMS_AT`]; `setup`
/// runs before the read of `lpn` issued [`READ_INTO`] later. Returns the
/// read's wait and when the last program then finishes, both from the
/// read's issue, and the flash reads it cost.
fn read_ahead(queued: u64, lpn: u64, setup: impl FnOnce(&mut Ftl, SimTime)) -> (u64, u64, u64) {
    let geometry = FlashGeometry {
        channels: 1,
        dies_per_channel: 1,
        planes_per_die: 1,
        blocks_per_plane: 16,
        pages_per_block: 32,
        page_bytes: 4096,
    };
    let config = FtlConfig {
        unit_bytes: 4096,
        write_points: 2,
        write_buffer_units: 1,
        gc_threshold_blocks: 2,
        gc_soft_threshold_blocks: 4,
        ..FtlConfig::default()
    };
    let flash = FlashArray::new(geometry, FlashTiming::mlc());
    let mut ftl = Ftl::new(flash, config).expect("the fixture's FTL config is valid");
    let write = |ftl: &mut Ftl, lpn: u64, at: SimTime| {
        let unit = UnitWrite {
            lpn: Lpn(lpn),
            payload: UnitPayload::single(lpn, 1, 4096),
            whole_unit: true,
        };
        ftl.write(unit, OobKind::Data, at).expect("write succeeds");
    };
    write(&mut ftl, 0, SimTime::ZERO);
    let programs_at = SimTime::ZERO + PROGRAMS_AT;
    for lpn in 1..=queued + 1 {
        write(&mut ftl, lpn, programs_at);
    }
    setup(&mut ftl, programs_at);
    let at = programs_at + READ_INTO;
    let reads = flash_reads_of(&ftl);
    let (_, done) = ftl.read(Lpn(lpn), at).expect("read succeeds");
    let last = ftl.flush(at).expect("flush succeeds");
    (
        done.duration_since(at).as_nanos(),
        last.duration_since(at).as_nanos(),
        flash_reads_of(&ftl) - reads,
    )
}

fn flash_reads_of(ftl: &Ftl) -> u64 {
    ftl.flash().counters().total(Total::FlashRead)
}

/// The foreground read rules on [`read_ahead`]'s one-die device, exact,
/// from the flash timing alone: a read 100 us into a lone program senses
/// after `t_suspend` and delays the program by `t_suspend + tR`; one
/// issued while a second program waits behind the first senses when the
/// first ends, ahead of the second, which shifts by tR; a unit of the
/// page being programmed is served at once, unsensed; and once a flush
/// was acknowledged at the program's finish, or with a read booked
/// behind it, the read waits for it as any read does. The rows are the
/// first four reads' waits.
fn a_read_does_not_wait_for_an_unseen_program(rows: &mut Vec<Row>) -> Verdict {
    let (suspended, suspended_last, _) = read_ahead(0, 0, |_, _| {});
    let (overtook, overtaken_last, _) = read_ahead(1, 0, |_, _| {});
    let (programming_page, _, programming_page_senses) = read_ahead(0, 1, |_, _| {});
    let (guarded, ..) = read_ahead(0, 0, |ftl, at| {
        ftl.flush(at).expect("flush succeeds");
    });
    let (booked_behind, ..) = read_ahead(0, 0, |ftl, at| {
        let ppn = ftl.flash_page_of(Lpn(0)).expect("lpn 0 is on flash");
        ftl.flash_mut()
            .schedule_read(ppn, at)
            .expect("the page is in range");
    });
    push_ns(
        rows,
        "read",
        &[
            ("suspended_ns", suspended),
            ("overtook_ns", overtook),
            ("programming_page_ns", programming_page),
            ("guarded_ns", guarded),
        ],
    );
    let t = FlashTiming::mlc();
    let program_left = (t.transfer_time(4096) + t.t_program - READ_INTO).as_nanos();
    let suspended_delay = suspended_last - program_left;
    let overtaken_delay = overtaken_last - program_left - t.t_program.as_nanos();
    let (sense, xfer) = (t.t_read.as_nanos(), t.transfer_time(4096).as_nanos());
    let suspend = t.t_suspend.as_nanos();
    let after_program = program_left + sense + xfer;
    let measured = [
        suspended,
        suspended_delay,
        overtook,
        overtaken_delay,
        programming_page,
        programming_page_senses,
        guarded,
        booked_behind,
    ];
    let expected = [
        suspend + sense + xfer,
        suspend + sense,
        after_program,
        sense,
        0,
        0,
        after_program,
        after_program + sense,
    ];
    verdict(measured == expected, measured)
}

/// One-sector logs the paced-scatter fixture checkpoints: sixteen pages
/// of copies on one die.
const SCATTER_ENTRIES: u64 = 128;

/// One channel, one die, one plane, a 512 B unit, one write point and a
/// one-page watermark, so that every page of copies pages out and the
/// second waits for the first's programming slot: a
/// record at LBA 0 on flash, [`SCATTER_ENTRIES`] journal logs flushed
/// behind it, and their copy entries. Returns the device, the entries
/// and an instant the device is idle at.
fn scatter_fixture() -> (Ssd, Vec<CowEntry>, SimTime) {
    let geometry = FlashGeometry {
        channels: 1,
        dies_per_channel: 1,
        planes_per_die: 1,
        blocks_per_plane: 64,
        pages_per_block: 32,
        page_bytes: 4096,
    };
    let config = FtlConfig {
        unit_bytes: SECTOR_BYTES,
        write_points: 1,
        write_buffer_units: 8,
        gc_threshold_blocks: 4,
        gc_soft_threshold_blocks: 8,
        ..FtlConfig::default()
    };
    let ftl = Ftl::new(FlashArray::new(geometry, FlashTiming::mlc()), config)
        .expect("the fixture's FTL config is valid");
    let mut ssd = Ssd::new(ftl, SsdTiming::paper_default());
    let journal = 1 << 13;
    let mut t = ssd
        .write(&record(0, 1), OobKind::Data, SimTime::ZERO)
        .expect("write succeeds");
    for i in 0..SCATTER_ENTRIES {
        t = ssd
            .write(&record(journal + i, 1), OobKind::Journal, t)
            .expect("write succeeds");
    }
    let idle = ssd.flush(t).expect("flush succeeds") + SimDuration::from_millis(50);
    let entries = (0..SCATTER_ENTRIES)
        .map(|i| CowEntry {
            src_lba: journal + i,
            dst_lba: 8 * (i + 1),
            sectors: 1,
            dst_sectors: 1,
            key: journal + i,
            merged: false,
        })
        .collect();
    (ssd, entries, idle)
}

/// A one-sector read of `lba` issued at `at`: its latency.
fn read_latency(ssd: &mut Ssd, lba: u64, at: SimTime) -> u64 {
    let req = ReadRequest {
        lba,
        sectors: 1,
        key: None,
    };
    let done = ssd
        .read_into(&req, at, &mut Vec::new())
        .expect("read succeeds");
    done.duration_since(at).as_nanos()
}

/// Begins a copy checkpoint of `entries` at `at` and pumps it past its
/// walk and its gather through its first scatter step. Returns that
/// step's instant and the flash programs before it.
fn first_scatter_step(ssd: &mut Ssd, entries: &[CowEntry], at: SimTime) -> (SimTime, u64) {
    let unit_writes = |ssd: &Ssd| ssd.ftl().counters().get(Counter::FtlHostUnitWrites);
    let programs = |ssd: &Ssd| ssd.ftl().flash().counters().total(Total::FlashProgram);
    let mut progress = ssd.begin_checkpoint(entries, CheckpointMode::Copy, at);
    loop {
        let Ok(Progress::PumpAt(due)) = progress else {
            panic!("a copy class is scattered by the pump: {progress:?}");
        };
        let (writes, before) = (unit_writes(ssd), programs(ssd));
        progress = ssd.pump(due);
        if unit_writes(ssd) > writes {
            return (due, before);
        }
    }
}

/// Pacing of a copy checkpoint's scatter, from the flash timing alone:
/// what a read of a page of [`scatter_fixture`] waits beyond its idle
/// latency when issued at the first scatter step. Issued after that step
/// booked what it could admit, it waits at most one program plus
/// `t_suspend` — the program the step's last admission waited for, and
/// so made unmovable — and goes ahead of the queued one; behind the
/// scatter booked as a burst it waits out every program but the last,
/// `scatter_pages - 2` tPROGs more.
fn a_read_waits_out_one_scatter_program_at_most(rows: &mut Vec<Row>) -> Verdict {
    let (mut ssd, _, idle) = scatter_fixture();
    let idle_ns = read_latency(&mut ssd, 0, idle);
    let wait = |drain: bool| {
        let (mut ssd, entries, idle) = scatter_fixture();
        let (first, before) = first_scatter_step(&mut ssd, &entries, idle);
        let programs = |ssd: &Ssd| ssd.ftl().flash().counters().total(Total::FlashProgram);
        if drain {
            ssd.drain().expect("the scatter runs");
        }
        let latency = read_latency(&mut ssd, 0, first);
        ssd.drain().expect("the scatter runs");
        (latency - idle_ns, programs(&ssd) - before)
    };
    let (paced, scatter_pages) = wait(false);
    let (burst, _) = wait(true);
    push_ns(
        rows,
        "scatter",
        &[("paced_read_wait_ns", paced), ("burst_read_wait_ns", burst)],
    );
    let t = FlashTiming::mlc();
    let program = (t.transfer_time(4096) + t.t_program).as_nanos();
    let burst_extra = scatter_pages.saturating_sub(2) * t.t_program.as_nanos();
    verdict(
        scatter_pages == SCATTER_ENTRIES / 8
            && paced <= program + t.t_suspend.as_nanos()
            && burst.checked_sub(paced) == Some(burst_extra),
        (paced, burst, scatter_pages),
    )
}

/// Pacing of the walk, the gather and the trim, exact to the model: a
/// one-sector read issued at a step of a checkpoint command's walk or
/// gather, or of a trim — the walk step of [`map_walk_fixture`]'s
/// 64-entry remap batch, the first gather step of
/// [`checkpoint_fixture`]'s 64-entry copy batch (a read of its first
/// entry's log), the first step of [`map_walk_fixture`]'s 4 096-unit
/// trim (a read of a log past the trimmed range) — waits beyond its idle
/// latency at most that one step's booking, and does wait for it: the
/// walk step's decode of its entries and their mapping walk (the whole
/// batch is one step: the misses and hits
/// [`a_mapping_walk_misses_once_per_segment`] counts for it), one page
/// read on the gather read's die, one map segment's walk of the trim (one
/// miss, a hit for every other unit). Each walk is priced on the cache of
/// the fixture it runs on.
fn a_read_waits_out_one_step_at_most(rows: &mut Vec<Row>) -> Verdict {
    let gap = SimDuration::from_millis(50);
    let (mut ssd, entries, t) = map_walk_fixture();
    let decode = SsdTiming::paper_default().cpu_cow_entry_cost.as_nanos() * ENTRIES;
    let walk_step = decode + walk_ns(&ssd, ENTRIES + 1, ENTRIES - 1);
    let idle = read_latency(&mut ssd, 0, t);
    let begun = ssd.begin_checkpoint(&entries, CheckpointMode::Remap, t + gap);
    let Ok(Progress::PumpAt(walk)) = begun else {
        panic!("a remap batch is walked by the pump: {begun:?}");
    };
    ssd.pump(walk).expect("the walk step runs");
    let walk_wait = read_latency(&mut ssd, 0, walk) - idle;

    let (mut ssd, entries, t) = checkpoint_fixture(FlashTiming::mlc());
    let log = entries.first().expect("the fixture has entries").src_lba;
    let idle = read_latency(&mut ssd, log, t);
    let reads = flash_reads(&ssd);
    let mut progress = ssd.begin_checkpoint(&entries, CheckpointMode::Copy, t + gap);
    let gather = loop {
        let Ok(Progress::PumpAt(due)) = progress else {
            panic!("a copy batch is gathered by the pump: {progress:?}");
        };
        progress = ssd.pump(due);
        if flash_reads(&ssd) > reads {
            break due;
        }
    };
    let gather_wait = read_latency(&mut ssd, log, gather) - idle;

    let (mut ssd, _, t) = map_walk_fixture();
    let segment = walk_ns(&ssd, 1, SEGMENT - 1);
    let log = TRIM_UNITS;
    let idle = read_latency(&mut ssd, log, t);
    let begun = ssd.begin_deallocate(0, TRIM_UNITS as u32, t + gap);
    let Ok(Progress::PumpAt(first)) = begun else {
        panic!("a trim is walked by the pump: {begun:?}");
    };
    ssd.pump(first).expect("the trim step runs");
    let trim_wait = read_latency(&mut ssd, log, first) - idle;
    push_ns(
        rows,
        "step",
        &[
            ("walk_read_wait_ns", walk_wait),
            ("gather_read_wait_ns", gather_wait),
            ("trim_read_wait_ns", trim_wait),
        ],
    );

    let t = FlashTiming::mlc();
    let page_read = (t.t_read + t.transfer_time(4096)).as_nanos();
    let within = |wait: u64, step: u64| 0 < wait && wait <= step;
    verdict(
        within(walk_wait, walk_step)
            && within(gather_wait, page_read)
            && within(trim_wait, segment),
        (
            (walk_wait, walk_step),
            (gather_wait, page_read),
            (trim_wait, segment),
        ),
    )
}

/// What a walk of `misses` first accesses to a segment and `hits`
/// accesses to a loaded one costs on `ssd`'s mapping cache at its table
/// size.
fn walk_ns(ssd: &Ssd, misses: u64, hits: u64) -> u64 {
    let ftl = ssd.ftl();
    let access_ns = ftl.map_cache().access_cost(ftl.live_entries()).as_nanos();
    misses * access_ns + hits * MapCacheModel::HIT_COST.as_nanos()
}

/// One die of one plane, 32 blocks of 8 pages, a 512 B unit, one write
/// point and a one-page watermark: 512 one-sector records written in
/// order and the even ones rewritten, so that blocks 0–7 each keep half
/// their units and block 0 is GC's next victim. Returns the device and
/// an instant it is idle at.
fn gc_fixture() -> (Ssd, SimTime) {
    let geometry = FlashGeometry {
        channels: 1,
        dies_per_channel: 1,
        planes_per_die: 1,
        blocks_per_plane: 32,
        pages_per_block: 8,
        page_bytes: 4096,
    };
    let config = FtlConfig {
        unit_bytes: SECTOR_BYTES,
        write_points: 1,
        write_buffer_units: 8,
        ..FtlConfig::default()
    };
    let ftl = Ftl::new(FlashArray::new(geometry, FlashTiming::mlc()), config)
        .expect("the fixture's FTL config is valid");
    let mut ssd = Ssd::new(ftl, SsdTiming::paper_default());
    let mut t = SimTime::ZERO;
    for lba in (0..GC_RECORDS).chain((0..GC_RECORDS).step_by(2)) {
        t = ssd
            .write(&record(lba, 1), OobKind::Data, t)
            .expect("write succeeds");
    }
    let idle = ssd.flush(t).expect("flush succeeds") + SimDuration::from_millis(50);
    (ssd, idle)
}

/// Records of [`gc_fixture`].
const GC_RECORDS: u64 = 512;

/// Pacing of a GC round: a one-sector read of [`gc_fixture`]'s last
/// record, on the victim's die, issued between the round's first two
/// steps — the read of the victim's first valid page in flight — waits
/// beyond its idle latency at most the first step's booking, one page
/// read on its die, and does wait for it; behind the round booked in one
/// go it waits longer.
fn a_read_waits_out_one_gc_step_at_most(rows: &mut Vec<Row>) -> Verdict {
    let gap = SimDuration::from_millis(50);
    let lba = GC_RECORDS - 1;
    let wait = |burst: bool| {
        let (mut ssd, t) = gc_fixture();
        let idle = read_latency(&mut ssd, lba, t);
        let ftl = ssd.ftl_mut();
        let first = ftl
            .begin_gc_round(t + gap, GcTrigger::Background)
            .expect("no round is running")
            .expect("the fixture has a victim");
        let step = ftl.pump_gc(first).expect("the first step runs");
        assert!(matches!(step, Progress::PumpAt(_)), "{step:?}");
        if burst {
            ftl.finish_gc_round().expect("the round runs");
        }
        let wait = read_latency(&mut ssd, lba, first) - idle;
        ssd.ftl_mut().finish_gc_round().expect("the round runs");
        wait
    };
    let (paced, burst) = (wait(false), wait(true));
    push_ns(rows, "step", &[("gc_read_wait_ns", paced)]);
    let t = FlashTiming::mlc();
    let page_read = (t.t_read + t.transfer_time(4096)).as_nanos();
    verdict(
        0 < paced && paced <= page_read && burst > paced,
        (paced, burst),
    )
}

/// A page-out does not queue behind a busy die while another is free.
/// On two channels of one one-plane die each, a 4 KiB unit, one write
/// point per die and a one-unit watermark, so that every write pages out
/// at once, an erase is booked on die 0 — the die the first page-out
/// would visit in rotation — and two units are written at that instant.
/// The first goes to die 1, the idle one, and starts its tPROG one page
/// transfer after its issue, once its page is across the channel; the
/// second, with both dies busy, waits for the first's program, which
/// ends before the erase does.
fn a_page_out_goes_to_a_free_die(rows: &mut Vec<Row>) -> Verdict {
    let geometry = FlashGeometry {
        channels: 2,
        dies_per_channel: 1,
        planes_per_die: 1,
        blocks_per_plane: 8,
        pages_per_block: 32,
        page_bytes: 4096,
    };
    let config = FtlConfig {
        unit_bytes: 4096,
        write_points: 2,
        write_buffer_units: 1,
        gc_threshold_blocks: 2,
        gc_soft_threshold_blocks: 4,
        ..FtlConfig::default()
    };
    let flash = FlashArray::new(geometry, FlashTiming::mlc());
    let mut ftl = Ftl::new(flash, config).expect("the fixture's FTL config is valid");
    let tracer = Tracer::ring_buffered(64);
    ftl.set_tracer(tracer.clone());
    let idle_block = (0..geometry.total_blocks())
        .rev()
        .map(BlockId)
        .find(|&b| geometry.die_of_block(b) == 0)
        .expect("die 0 has blocks");
    ftl.flash_mut()
        .erase(idle_block, SimTime::ZERO)
        .expect("a fresh block erases");
    for lpn in 0..2 {
        let unit = UnitWrite {
            lpn: Lpn(lpn),
            payload: UnitPayload::single(lpn, 1, 4096),
            whole_unit: true,
        };
        ftl.write(unit, OobKind::Data, SimTime::ZERO)
            .expect("write succeeds");
    }
    let t = FlashTiming::mlc();
    let t_prog = t.t_program.as_nanos();
    let starts: Vec<u64> = tracer
        .drain()
        .iter()
        .filter(|e| e.op == "page_out")
        .filter_map(|e| e.fields().iter().find(|f| f.0 == "finish_ns"))
        .map(|f| f.1 - t_prog)
        .collect();
    let first_page = ftl.flash_page_of(Lpn(0)).expect("lpn 0 is on flash");
    let first_die = geometry.die_of_block(geometry.block_of(first_page));
    let first_start = starts.first().copied().unwrap_or(u64::MAX);
    let second_start = starts.get(1).copied().unwrap_or(u64::MAX);
    push(
        rows,
        "place",
        "busy_die_first_page_out_die",
        first_die as f64,
        "index",
    );
    push_ns(
        rows,
        "place",
        &[
            ("busy_die_first_tprog_start_ns", first_start),
            ("busy_die_second_tprog_start_ns", second_start),
        ],
    );
    verdict(
        first_die == 1
            && first_start == t.transfer_time(4096).as_nanos()
            && second_start == first_start + t_prog
            && second_start < t.t_erase.as_nanos(),
        (first_die, first_start, second_start),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_remap_checkpoint_does_no_flash_io() {
        super::a_remap_checkpoint_does_no_flash_io(&mut Vec::new()).unwrap();
    }

    #[test]
    fn a_read_costs_what_the_record_occupies() {
        super::a_read_costs_what_the_record_occupies(&mut Vec::new()).unwrap();
    }

    #[test]
    fn a_write_waits_for_a_slot_not_a_program() {
        super::a_write_waits_for_a_slot_not_a_program(&mut Vec::new()).unwrap();
    }

    #[test]
    fn a_die_programs_its_planes_at_once() {
        super::a_die_programs_its_planes_at_once(&mut Vec::new()).unwrap();
    }

    #[test]
    fn a_mapping_walk_misses_once_per_segment() {
        super::a_mapping_walk_misses_once_per_segment(&mut Vec::new()).unwrap();
    }

    #[test]
    fn a_read_does_not_wait_for_an_unseen_program() {
        super::a_read_does_not_wait_for_an_unseen_program(&mut Vec::new()).unwrap();
    }

    #[test]
    fn a_read_waits_out_one_scatter_program_at_most() {
        super::a_read_waits_out_one_scatter_program_at_most(&mut Vec::new()).unwrap();
    }

    #[test]
    fn a_read_waits_out_one_step_at_most() {
        super::a_read_waits_out_one_step_at_most(&mut Vec::new()).unwrap();
    }

    #[test]
    fn a_read_waits_out_one_gc_step_at_most() {
        super::a_read_waits_out_one_gc_step_at_most(&mut Vec::new()).unwrap();
    }

    #[test]
    fn a_page_out_goes_to_a_free_die() {
        super::a_page_out_goes_to_a_free_die(&mut Vec::new()).unwrap();
    }

    /// Every row of the `gc`, `host`, `counts` and (canned) `paper`
    /// sections has a name of its own, and every gate writes at least one
    /// row. A gate's verdict is its own test's.
    #[test]
    fn row_names_are_unique_and_every_gate_writes_a_row() {
        let (mut rows, _) = figures::tests::canned_rows();
        let (gc, gc_reports) = gc_section();
        rows.extend(gc);
        rows.extend(host_section(&gc_reports));
        for (name, gate) in GATES {
            let before = rows.len();
            let _ = gate(&mut rows);
            assert!(rows.len() > before, "{name} writes no row");
        }
        let mut names = BTreeSet::new();
        for r in &rows {
            assert!(names.insert(&r.name), "two rows are named {}", r.name);
        }
    }

    #[test]
    fn the_committed_experiments_md_fills_from_the_rows_and_shows_every_claim() {
        let (paper, _) = crate::figures::tests::canned_rows();
        let (gc, gc_reports) = gc_section();
        let lab = Lab {
            gc,
            host: host_section(&gc_reports),
            counts: counts_section().0,
            paper,
            passed: true,
        };
        let template = include_str!("../../../EXPERIMENTS.md");
        let filled = lab.experiments(template).expect("every block matches rows");
        for c in &figures::CLAIMS {
            let (cell, _) = c.row.rsplit_once('/').expect("a claimed row has a cell");
            let (line, shown) = (
                format!("| {cell} |"),
                format!("(paper {}; {})", c.paper, c.verdict),
            );
            let shows = |l: &str| l.starts_with(&line) && l.contains(&shown);
            assert!(
                filled.lines().any(shows),
                "EXPERIMENTS.md shows no {}",
                c.row
            );
        }
        for (name, _) in &GATES {
            assert!(
                template.contains(&format!("`{name}`")),
                "EXPERIMENTS.md names no gate {name}"
            );
        }
    }

    #[test]
    fn deterministic_sections_render_identically_twice() {
        let text = || {
            let (gc, gc_reports) = gc_section();
            let host = host_section(&gc_reports);
            let (counts, _) = counts_section();
            render(&[("gc", &gc), ("host", &host), ("counts", &counts)])
        };
        assert_eq!(text(), text());
    }
}
