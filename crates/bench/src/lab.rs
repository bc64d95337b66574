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
//!   mapping entries and does no flash I/O). What one home `get`
//!   costs: a read asks for the sectors the value spans and senses each
//!   flash page once. When a page-filling write is acknowledged: at
//!   admission to the power-protected buffer, and after a program only
//!   once every write point has one in flight. When pages programmed on
//!   a busy two-plane die finish: a plane pair in one call with one
//!   tPROG, a second call a tPROG later whichever plane it is on; and how
//!   many tPROGs an FTL books for page-filling writes on an idle
//!   two-plane die: one per two pages. What a mapping
//!   walk costs the firmware on a cache smaller than the table: one miss
//!   per segment a command touches, a hit for every other entry. And how
//!   long a foreground read on a one-die device waits for a NAND program
//!   nothing has seen finish: it suspends a running one, goes ahead of a
//!   queued one, takes a page still programming from the write buffer,
//!   and waits as any read does once the finish was handed out. And what
//!   such a read waits for when it is issued during a copy checkpoint's
//!   scatter: one program when the scatter is paced, all but one when it
//!   is booked as a burst. And what one waits for when it is issued at
//!   a step of a checkpoint command's walk or gather, or of a trim, or of
//!   a paced GC round: that one step's booking. And when page-outs
//!   issued while a die erases start their programs: on the other, idle
//!   die, at once.
//! * **`paper`** — every figure and table of the paper's evaluation
//!   ([`crate::figures`]), the paper's own number and a verdict beside
//!   each row the paper makes a claim on.
//!
//! Eleven conditions fail a run. Ten are exact: a remap checkpoint must
//! do no flash I/O where a copy checkpoint reads and rewrites every log, a
//! home read must cost what the record occupies, a write must wait for a
//! programming slot, not for a program, a die must program a page on
//! each of its planes in one tPROG — the pages of one call, and an
//! FTL's page-outs one such call each — a mapping walk must miss once per
//! segment, a foreground read must not wait for a program whose finish
//! nobody has seen, one issued during a paced scatter must wait out at
//! most one of its programs, one issued at a walk, gather or trim
//! step at most that step, one issued between two steps of a GC round
//! at most the step before it, and a page-out must not queue behind a
//! busy die while another is free. `cargo test` checks them as well
//! (this module's tests). The eleventh: every claim of
//! [`figures::CLAIMS`] must earn the verdict it declares
//! ([`figures::misjudged`]), in either direction.

use std::collections::BTreeSet;

use checkin_core::{JournalManager, KvEngine, Layout, Strategy};
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
use crate::{figures, gc_pressured_config, section};

/// Everything one [`run`] measured, and whether its gate held.
#[derive(Debug)]
pub struct Lab {
    /// WAF, lifetime, p99.9 and erases of three GC-pressured workloads.
    pub gc: Vec<Row>,
    /// Exact simulated cost of a remap and of a copy checkpoint, of a
    /// home read of a small and of a slot-sized record, when
    /// page-filling writes are acknowledged, when pages programmed on a
    /// busy two-plane die finish and how many tPROGs page-filling writes
    /// book on an idle one, what three mapping walks cost the
    /// firmware, what four foreground reads wait for on a
    /// programming die, what one waits for during a copy
    /// checkpoint's scatter, paced and as a burst, what one waits
    /// for at a walk, gather, trim or GC step, and where and when two
    /// page-outs beside an erasing die program.
    pub counts: Vec<Row>,
    /// The paper's figures and tables, cell by cell.
    pub paper: Vec<Row>,
    /// All eleven gates held: a remap checkpoint did no flash I/O, a read
    /// cost what the record occupies, a write waited for a programming
    /// slot, not for a program, a die programmed a plane pair — and only
    /// the pages of one call — in one tPROG, a mapping walk missed once
    /// per segment, a foreground read did not wait for a program whose
    /// finish nobody had seen, one issued during a paced scatter
    /// waited out at most one of its programs, one issued at a walk,
    /// gather or trim step at most that step, one issued between two
    /// steps of a GC round at most the step before it, a page-out
    /// did not queue behind a busy die while another was free, and
    /// every claim of the paper earned its declared verdict.
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

    /// `template` (EXPERIMENTS.md) with its generated blocks filled from
    /// the rows of all three sections ([`crate::harness::fill`]).
    ///
    /// # Errors
    ///
    /// A block of `template` that is malformed or matches no row.
    pub fn experiments(&self, template: &str) -> Result<String, String> {
        let rows = [&self.gc[..], &self.counts, &self.paper].concat();
        fill(template, &rows)
    }
}

/// Measures all three sections and judges the eleven gates.
pub fn run() -> Lab {
    let gc = gc_section();
    let (
        counts,
        (checkpoints, reads, writes, programs, walks, ahead, scatter, steps, gc_step, places),
    ) = counts_section();
    let paper = figures::paper_section();
    let misjudged = figures::misjudged(&paper);

    println!();
    let gates = [
        (
            remap_does_no_flash_io(&checkpoints),
            format!("a remap checkpoint does no flash I/O: {checkpoints:?}"),
        ),
        (
            a_read_costs_what_the_record_occupies(&reads),
            format!("a read costs what the record occupies: {reads:?}"),
        ),
        (
            a_write_waits_for_a_slot_not_a_program(&writes),
            format!("a write waits for a slot, not a program: {writes:?}"),
        ),
        (
            a_die_programs_its_planes_at_once(&programs),
            format!("a die programs its planes at once: {programs:?}"),
        ),
        (
            a_mapping_walk_misses_once_per_segment(&walks),
            format!("a mapping walk misses once per segment: {walks:?}"),
        ),
        (
            a_read_does_not_wait_for_an_unseen_program(&ahead),
            format!("a read does not wait for an unseen program: {ahead:?}"),
        ),
        (
            a_read_waits_out_one_scatter_program_at_most(&scatter),
            format!("a read waits out one scatter program at most: {scatter:?}"),
        ),
        (
            a_read_waits_out_one_step_at_most(&steps, &walks),
            format!("a read waits out one walk, gather or trim step at most: {steps:?}"),
        ),
        (
            a_read_waits_out_one_gc_step_at_most(&gc_step),
            format!("a read waits out one GC step at most: {gc_step:?}"),
        ),
        (
            a_page_out_goes_to_a_free_die(&places),
            format!(
                "a page-out does not queue behind a busy die while another is free: {places:?}"
            ),
        ),
        (
            misjudged.is_empty(),
            format!("every claim of the paper earns its declared verdict: {misjudged:?}"),
        ),
    ];
    for (held, what) in &gates {
        if *held {
            println!("PASS: {what}");
        } else {
            eprintln!("FAIL: {what}");
        }
    }
    Lab {
        gc,
        counts,
        paper,
        passed: gates.iter().all(|(held, _)| *held),
    }
}

/// Appends the row `group/leaf`.
fn push(rows: &mut Vec<Row>, group: &str, leaf: &str, value: f64, unit: &'static str) {
    rows.push(row(&format!("{group}/{leaf}"), value, unit));
}

// ---- gc ---------------------------------------------------------------

/// Workload shapes the section runs (name, mix, skew).
const WORKLOADS: [(&str, OpMix, AccessPattern); 3] = [
    ("uniform", OpMix::A, AccessPattern::Uniform),
    ("zipfian", OpMix::A, AccessPattern::Zipfian),
    ("write-only", OpMix::WRITE_ONLY, AccessPattern::Uniform),
];

/// One Check-In run per workload on the GC-pressured device, its rows
/// `gclab/<workload>/…`.
fn gc_section() -> Vec<Row> {
    section("gc: three workloads on the GC-pressured device");
    let mut rows = Vec::new();
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

/// Executes one `mode` checkpoint of [`ENTRIES`] one-sector journal logs
/// on the paper-default array under `timing`, where every log is
/// unit-aligned and so eligible for remapping. The journal is flushed to
/// flash first: a copy then has to read every log back.
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

/// The device, entries and start instant of [`checkpoint_cost`].
fn checkpoint_fixture(timing: FlashTiming) -> (Ssd, Vec<CowEntry>, SimTime) {
    let mut ssd = device(timing);
    let layout = Layout::new(1_024, 4096, SECTOR_BYTES, 1 << 14);
    let mut journal = JournalManager::new(layout, true, 0.7);
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

/// The checkpoint fixture in both modes on MLC — the `counts` rows — and
/// again on TLC, which the gate reads.
#[derive(Debug)]
struct CheckpointCosts {
    remap: CheckpointCost,
    copy: CheckpointCost,
    remap_tlc: CheckpointCost,
    copy_tlc: CheckpointCost,
}

impl CheckpointCosts {
    fn measure() -> Self {
        let (mlc, tlc) = (FlashTiming::mlc(), FlashTiming::tlc());
        CheckpointCosts {
            remap: checkpoint_cost(CheckpointMode::Remap, mlc),
            copy: checkpoint_cost(CheckpointMode::Copy, mlc),
            remap_tlc: checkpoint_cost(CheckpointMode::Remap, tlc),
            copy_tlc: checkpoint_cost(CheckpointMode::Copy, tlc),
        }
    }
}

/// Algorithm 1's claim on the fixture, exact: the remap walk touches no
/// flash and writes one unit (the recovery metadata unit that closes
/// every checkpoint command); the copy fallback rewrites every log and
/// reads it back first, sensing each flash page once — the journal was
/// paged out `units_per_page` logs to the page — and time tells the two
/// apart without a tuned ratio: the remap waits for no die, so it takes
/// the same nanoseconds whatever the NAND generation, while the copy
/// waits for at least one sense and is slower on TLC by at least the
/// difference of the two tR.
fn remap_does_no_flash_io(c: &CheckpointCosts) -> bool {
    let counts = |c: &CheckpointCost| (c.flash_reads, c.unit_writes, c.remapped, c.copied);
    let units_per_page = u64::from(FlashGeometry::paper_default().page_bytes / SECTOR_BYTES);
    let sense_gap = (FlashTiming::tlc().t_read - FlashTiming::mlc().t_read).as_nanos();
    counts(&c.remap) == (0, 1, ENTRIES, 0)
        && counts(&c.copy) == (ENTRIES / units_per_page, ENTRIES + 1, 0, ENTRIES)
        && c.remap_tlc == c.remap
        && counts(&c.copy_tlc) == counts(&c.copy)
        && c.copy_tlc.sim_ns >= c.copy.sim_ns + sense_gap
}

/// What one home `get` cost the device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ReadCost {
    value_bytes: u32,
    sim_ns: u64,
    /// Mapping units the FTL looked up.
    unit_lookups: u64,
    flash_reads: u64,
    /// Flash pages holding the record's units.
    pages: u64,
}

/// Record sizes of the read fixture: one sector class, one whole slot.
const READ_SIZES: [u32; 2] = [128, 4096];

/// Loads one record of each of [`READ_SIZES`] — a load ends in a flush,
/// so both are on flash — and reads each back from its home slot on the
/// idle device.
fn read_costs() -> Vec<ReadCost> {
    let mut ssd = device(FlashTiming::mlc());
    let layout = Layout::new(1_024, 4096, SECTOR_BYTES, 1 << 14);
    let mut engine = KvEngine::new(Strategy::CheckIn, layout, 0.7);
    let records: Vec<(u64, u32)> = (0..).zip(READ_SIZES).collect();
    let mut t = engine
        .load(&mut ssd, &records, SimTime::ZERO)
        .expect("load succeeds");
    let unit_lookups = |ssd: &Ssd| ssd.ftl().counters().get(Counter::FtlHostUnitReads);
    let mut costs = Vec::new();
    for (key, value_bytes) in records {
        let home = layout.home_lba(key);
        let sectors = u64::from(value_bytes.div_ceil(SECTOR_BYTES));
        let pages: BTreeSet<_> = (home..home + sectors)
            .filter_map(|lba| ssd.ftl().flash_page_of(Lpn(lba)))
            .collect();
        let (lookups0, reads0) = (unit_lookups(&ssd), flash_reads(&ssd));
        let read = engine.get(&mut ssd, key, t).expect("get succeeds");
        costs.push(ReadCost {
            value_bytes,
            sim_ns: read.finish.duration_since(t).as_nanos(),
            unit_lookups: unit_lookups(&ssd) - lookups0,
            flash_reads: flash_reads(&ssd) - reads0,
            pages: pages.len() as u64,
        });
        t = read.finish;
    }
    costs
}

/// The read path's two rules on the fixture, exact: `get` asks for the
/// sectors the value spans — one mapping lookup for a 128 B record, not
/// the slot's eight — and the device senses a flash page once per
/// command, so the slot-sized record costs as many flash reads as pages
/// hold it, not one per unit.
fn a_read_costs_what_the_record_occupies(reads: &[ReadCost]) -> bool {
    reads.len() == READ_SIZES.len()
        && reads.iter().all(|r| {
            let units = u64::from(r.value_bytes.div_ceil(SECTOR_BYTES));
            r.unit_lookups == units && r.flash_reads == r.pages && r.pages <= units
        })
        && reads.iter().any(|r| r.pages < r.unit_lookups)
}

/// When page-filling writes were acknowledged, from their common issue
/// instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct WriteAcks {
    /// The first write, whose first unit pages the oldest page out.
    page_out_ack_ns: u64,
    /// That page's program finish.
    program_finish_ns: u64,
    /// The write after one per write point: every write point has a page
    /// programming when its page-out is admitted.
    backpressured_ack_ns: u64,
}

/// On the paper-default array, idle and filled to one unit below the
/// write buffer's watermark, issues `write_points + 1` page-sized writes
/// at one instant: the first unit of each pages the oldest page out.
fn write_acks() -> WriteAcks {
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
    WriteAcks {
        page_out_ack_ns: acks.first().copied().unwrap_or_default(),
        program_finish_ns: first_program - at.as_nanos(),
        backpressured_ack_ns: acks.last().copied().unwrap_or_default(),
    }
}

/// The write buffer's rule on the fixture, from the flash timing alone:
/// the write that pages out is acknowledged in less than one tPROG, while
/// its page takes at least one to program; and the write that finds a
/// page programming on every write point waits for the first of them.
fn a_write_waits_for_a_slot_not_a_program(w: &WriteAcks) -> bool {
    let t_prog = FlashTiming::mlc().t_program.as_nanos();
    w.page_out_ack_ns < t_prog
        && t_prog <= w.program_finish_ns
        && w.backpressured_ack_ns >= w.program_finish_ns
}

/// When pages programmed on a busy two-plane die finish, from the
/// fixture's start, and how many tPROGs an FTL books for page-filling
/// writes on an idle one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ProgramFinishes {
    /// Page index 0 on both planes of die 0 in one call, behind an
    /// erase of that die.
    plane_pair_finish_ns: u64,
    /// Page index 0 on plane 0, then in a second call page index 0 of
    /// another block on that plane: when the second finishes.
    same_plane_finish_ns: u64,
    /// Page index 0 on plane 0, then in a second call, issued at the
    /// same instant, page index 0 on the other plane: when the second
    /// finishes.
    other_plane_call_finish_ns: u64,
    /// tPROGs an idle one-die, two-plane FTL books for
    /// [`PAGE_FILLING_WRITES`] page-filling writes.
    idle_die_tprogs: u64,
}

/// Page-filling writes of the FTL half of [`program_finishes`]: 2N, so
/// that N multi-plane pages hold them.
const PAGE_FILLING_WRITES: u64 = 16;

/// On the paper-default array, erases a block of die 0 and meanwhile
/// programs page index 0 of two blocks there, three ways; then writes
/// [`PAGE_FILLING_WRITES`] 4 KiB units at one instant to an idle FTL of
/// one die with two planes, one write point each, and a two-unit
/// watermark.
fn program_finishes() -> ProgramFinishes {
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
    ProgramFinishes {
        plane_pair_finish_ns: plane_pair.finish.as_nanos(),
        same_plane_finish_ns: two_calls(plane0_again),
        other_plane_call_finish_ns: two_calls(plane1),
        idle_die_tprogs: idle_die_tprogs(),
    }
}

/// The tPROGs [`PAGE_FILLING_WRITES`] page-filling writes book on an
/// idle FTL of one die with two planes: its die time over one tPROG.
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

/// The multi-plane rule on the fixture, from the flash timing alone: a
/// plane pair programmed in one call finishes one tPROG after the erase
/// is done; a second call waits a whole tPROG more, on the first page's
/// plane or on the other one; and the FTL's page-filling writes book one
/// tPROG per two pages with the die idle throughout, die time and
/// nothing else.
fn a_die_programs_its_planes_at_once(p: &ProgramFinishes) -> bool {
    let t = FlashTiming::mlc();
    let first = (t.t_erase + t.t_program).as_nanos();
    let next = first + t.t_program.as_nanos();
    p.plane_pair_finish_ns == first
        && p.same_plane_finish_ns == next
        && p.other_plane_call_finish_ns == next
        && p.idle_die_tprogs == PAGE_FILLING_WRITES / 2
}

/// One command's mapping walk: the firmware time it booked beyond the
/// command's fixed costs, and what one access cost at the table size the
/// command saw.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct WalkCost {
    sim_ns: u64,
    access_ns: u64,
}

/// Three mapping walks on a cache smaller than the table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct MapWalks {
    /// The cache's hit cost.
    hit_ns: u64,
    /// A one-sector read.
    one_unit: WalkCost,
    /// A trim of [`TRIM_UNITS`] contiguous units.
    trim: WalkCost,
    /// A remap checkpoint of [`ENTRIES`] logs, one per segment, onto
    /// homes that share one segment.
    remap: WalkCost,
}

/// Entries per mapping segment.
const SEGMENT: u64 = MapCacheModel::SEGMENT_ENTRIES;

/// Units the trim walks: eight whole segments.
const TRIM_UNITS: u64 = 8 * SEGMENT;

/// On the paper-default array whose mapping cache holds a quarter of
/// what the fixture maps, writes [`TRIM_UNITS`] units and one log at the
/// head of each of [`ENTRIES`] segments past them, then on the idle
/// device reads one unit, remaps the logs onto one segment of homes and
/// trims the units, measuring each command's firmware time.
fn map_walks() -> MapWalks {
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
    MapWalks {
        hit_ns: ssd.ftl().map_cache().hit_cost.as_nanos(),
        one_unit,
        trim,
        remap,
    }
}

/// The mapping-walk fixture of [`map_walks`]: the device, the remap
/// entries of its logs, and an instant it is idle at.
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
    let access_ns = ssd
        .ftl()
        .map_cache()
        .access_cost(ssd.ftl().live_entries())
        .as_nanos();
    let busy = ssd.cpu_busy_time();
    command(ssd);
    WalkCost {
        sim_ns: (ssd.cpu_busy_time() - busy - fixed).as_nanos(),
        access_ns,
    }
}

/// The mapping cache's segment rule on the fixture, exact, with every
/// walk on a cache that misses: a one-unit lookup costs one access; the
/// trim misses once in each of its eight segments and hits for the rest;
/// the remap batch misses once per log segment and once for all the
/// homes, and hits for the other 63 home updates.
fn a_mapping_walk_misses_once_per_segment(w: &MapWalks) -> bool {
    let misses_and_hits = |c: &WalkCost, misses: u64, hits: u64| {
        c.access_ns > w.hit_ns && c.sim_ns == misses * c.access_ns + hits * w.hit_ns
    };
    let trim_misses = TRIM_UNITS / SEGMENT;
    misses_and_hits(&w.one_unit, 1, 0)
        && misses_and_hits(&w.trim, trim_misses, TRIM_UNITS - trim_misses)
        && misses_and_hits(&w.remap, ENTRIES + 1, ENTRIES - 1)
}

/// What a foreground read on a one-die device waited for, from its
/// issue instant, and how much later the program it went ahead of
/// finished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ReadsAhead {
    /// Sensed 100 us into a lone program.
    suspended_ns: u64,
    suspended_delay_ns: u64,
    /// Issued behind a running program, before a queued one.
    overtook_ns: u64,
    overtaken_delay_ns: u64,
    /// A unit of the page being programmed, and the senses it cost.
    programming_page_ns: u64,
    programming_page_senses: u64,
    /// After a flush was acknowledged at the program's finish.
    guarded_ns: u64,
    /// With a background read booked behind the program.
    booked_behind_ns: u64,
    /// From the read's issue to the end of the program as first booked.
    program_left_ns: u64,
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

/// The four reads of the `counts` rows and one more the gate reads.
fn reads_ahead() -> ReadsAhead {
    let (suspended_ns, suspended_last, _) = read_ahead(0, 0, |_, _| {});
    let (overtook_ns, overtaken_last, _) = read_ahead(1, 0, |_, _| {});
    let (programming_page_ns, _, programming_page_senses) = read_ahead(0, 1, |_, _| {});
    let (guarded_ns, ..) = read_ahead(0, 0, |ftl, at| {
        ftl.flush(at).expect("flush succeeds");
    });
    let (booked_behind_ns, ..) = read_ahead(0, 0, |ftl, at| {
        let ppn = ftl.flash_page_of(Lpn(0)).expect("lpn 0 is on flash");
        ftl.flash_mut()
            .schedule_read(ppn, at)
            .expect("the page is in range");
    });
    let t = FlashTiming::mlc();
    let program_left = t.transfer_time(4096) + t.t_program - READ_INTO;
    let program_left_ns = program_left.as_nanos();
    ReadsAhead {
        suspended_ns,
        suspended_delay_ns: suspended_last - program_left_ns,
        overtook_ns,
        overtaken_delay_ns: overtaken_last - program_left_ns - t.t_program.as_nanos(),
        programming_page_ns,
        programming_page_senses,
        guarded_ns,
        booked_behind_ns,
        program_left_ns,
    }
}

/// The foreground read rules on the fixture, exact, from the flash
/// timing alone: a read 100 us into a lone program senses after
/// `t_suspend` and delays the program by `t_suspend + tR`; one issued
/// while a second program waits behind the first senses when the first
/// ends, ahead of the second, which shifts by tR; a unit of the page
/// being programmed is served at once, unsensed; and once a flush was
/// acknowledged at the program's finish, or with a read booked behind
/// it, the read waits for it as any read does.
fn a_read_does_not_wait_for_an_unseen_program(r: &ReadsAhead) -> bool {
    let t = FlashTiming::mlc();
    let (sense, xfer) = (t.t_read.as_nanos(), t.transfer_time(4096).as_nanos());
    let suspend = t.t_suspend.as_nanos();
    let after_program = r.program_left_ns + sense + xfer;
    r.suspended_ns == suspend + sense + xfer
        && r.suspended_delay_ns == suspend + sense
        && r.overtook_ns == after_program
        && r.overtaken_delay_ns == sense
        && (r.programming_page_ns, r.programming_page_senses) == (0, 0)
        && r.guarded_ns == after_program
        && r.booked_behind_ns == after_program + sense
}

/// One-sector logs the paced-scatter fixture checkpoints: sixteen pages
/// of copies on one die.
const SCATTER_ENTRIES: u64 = 128;

/// What a foreground read of a page on a one-die device waits for when
/// it is issued at a copy checkpoint's first scatter step, beside a read
/// issued at the same instant once the whole scatter was booked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ScatterReads {
    /// The read's latency on the idle device.
    idle_ns: u64,
    /// What the read waits beyond that at the first scatter step, after
    /// the step booked what it could admit.
    paced_wait_ns: u64,
    /// What it waits beyond that once the pump was drained: the
    /// scatter booked in one go, as a burst.
    burst_wait_ns: u64,
    /// Pages the scatter programs.
    scatter_pages: u64,
}

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
    let journal = 1 << 16;
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

/// The read of [`ScatterReads`] on three copies of [`scatter_fixture`]:
/// idle, at the first scatter step of a begun copy checkpoint, and at
/// that instant once the checkpoint was drained.
fn scatter_reads() -> ScatterReads {
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
    let (paced_wait_ns, scatter_pages) = wait(false);
    let (burst_wait_ns, _) = wait(true);
    ScatterReads {
        idle_ns,
        paced_wait_ns,
        burst_wait_ns,
        scatter_pages,
    }
}

/// Pacing on the fixture, from the flash timing alone: a read issued at
/// a paced scatter's first step waits at most one program plus
/// `t_suspend` — the program the step's last admission waited for, and
/// so made unmovable — and goes ahead of the queued one; behind the
/// scatter booked as a burst it waits out every program but the last,
/// `scatter_pages - 2` tPROGs more.
fn a_read_waits_out_one_scatter_program_at_most(r: &ScatterReads) -> bool {
    let t = FlashTiming::mlc();
    let program = (t.transfer_time(4096) + t.t_program).as_nanos();
    let burst_extra = r.scatter_pages.saturating_sub(2) * t.t_program.as_nanos();
    r.scatter_pages == SCATTER_ENTRIES / 8
        && r.paced_wait_ns <= program + t.t_suspend.as_nanos()
        && r.burst_wait_ns.checked_sub(r.paced_wait_ns) == Some(burst_extra)
}

/// What a one-sector read waits for beyond its idle latency when it is
/// issued at a step of a checkpoint command's walk or gather, or of a
/// trim, once the step booked its unit of work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct StepReads {
    /// At the walk step of [`map_walk_fixture`]'s 64-entry remap batch.
    walk_wait_ns: u64,
    /// At the first gather step of [`checkpoint_fixture`]'s 64-entry copy
    /// batch, of the log of its first entry.
    gather_wait_ns: u64,
    /// At the first step of [`map_walk_fixture`]'s 4 096-unit trim, of a
    /// log past the trimmed range.
    trim_wait_ns: u64,
}

/// The reads of [`StepReads`], each beside the same read on the idle
/// device before the command began.
fn step_reads() -> StepReads {
    let gap = SimDuration::from_millis(50);
    let (mut ssd, entries, t) = map_walk_fixture();
    let idle = read_latency(&mut ssd, 0, t);
    let begun = ssd.begin_checkpoint(&entries, CheckpointMode::Remap, t + gap);
    let Ok(Progress::PumpAt(walk)) = begun else {
        panic!("a remap batch is walked by the pump: {begun:?}");
    };
    ssd.pump(walk).expect("the walk step runs");
    let walk_wait_ns = read_latency(&mut ssd, 0, walk) - idle;

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
    let gather_wait_ns = read_latency(&mut ssd, log, gather) - idle;

    let (mut ssd, _, t) = map_walk_fixture();
    let log = TRIM_UNITS;
    let idle = read_latency(&mut ssd, log, t);
    let begun = ssd.begin_deallocate(0, TRIM_UNITS as u32, t + gap);
    let Ok(Progress::PumpAt(first)) = begun else {
        panic!("a trim is walked by the pump: {begun:?}");
    };
    ssd.pump(first).expect("the trim step runs");
    let trim_wait_ns = read_latency(&mut ssd, log, first) - idle;
    StepReads {
        walk_wait_ns,
        gather_wait_ns,
        trim_wait_ns,
    }
}

/// Pacing of the walk, the gather and the trim, exact to the model: a
/// read issued at a step waits at most that one step's booking — the
/// walk step's decode of its entries and their mapping walk (the whole
/// 64-entry batch is one step), one page read on the gather read's
/// die, one map segment's walk of the trim (one miss, a hit for every
/// other unit) — and does wait for it.
fn a_read_waits_out_one_step_at_most(r: &StepReads, w: &MapWalks) -> bool {
    let t = FlashTiming::mlc();
    let timing = SsdTiming::paper_default();
    let walk_step = timing.cpu_cow_entry_cost.as_nanos() * ENTRIES + w.remap.sim_ns;
    let page_read = (t.t_read + t.transfer_time(4096)).as_nanos();
    let segment = w.trim.access_ns + (SEGMENT - 1) * w.hit_ns;
    let within = |wait: u64, step: u64| 0 < wait && wait <= step;
    within(r.walk_wait_ns, walk_step)
        && within(r.gather_wait_ns, page_read)
        && within(r.trim_wait_ns, segment)
}

/// What a one-sector read of a record on the victim's die waits for
/// beyond its idle latency when it is issued at the first step of a GC
/// round — the read of the victim's first valid page in flight — and at
/// that instant once the round was run to its end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct GcStepRead {
    /// Between the round's first and second steps.
    paced_wait_ns: u64,
    /// With the whole round booked in one go.
    burst_wait_ns: u64,
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

/// The reads of [`GcStepRead`], of the last record, each beside the
/// same read on the idle device before the round began.
fn gc_step_read() -> GcStepRead {
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
    GcStepRead {
        paced_wait_ns: wait(false),
        burst_wait_ns: wait(true),
    }
}

/// Pacing of a GC round: a read issued between its first two steps
/// waits out at most the first step's booking — one page read on its
/// die — and does wait for it; behind the round booked in one go it
/// waits longer.
fn a_read_waits_out_one_gc_step_at_most(r: &GcStepRead) -> bool {
    let t = FlashTiming::mlc();
    let page_read = (t.t_read + t.transfer_time(4096)).as_nanos();
    0 < r.paced_wait_ns && r.paced_wait_ns <= page_read && r.burst_wait_ns > r.paced_wait_ns
}

/// Where two page-outs issued while one die erases go, on a device of
/// two one-plane dies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Placements {
    /// The die the erase was booked on.
    erasing_die: u64,
    /// The die the first page-out programmed on.
    first_die: u64,
    /// When the first page-out's tPROG started, from the issue.
    first_tprog_start_ns: u64,
    /// When the second one's started, from the issue.
    second_tprog_start_ns: u64,
}

/// Two channels of one one-plane die each, a 4 KiB unit, one write
/// point per die and a one-unit watermark, so that every write pages
/// out at once: books an erase on die 0 — the die the first page-out
/// would visit in rotation — and at the same instant writes two units.
fn placements() -> Placements {
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
    let erasing_die = 0;
    let idle_block = (0..geometry.total_blocks())
        .rev()
        .map(BlockId)
        .find(|&b| geometry.die_of_block(b) == erasing_die)
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
    let t_prog = FlashTiming::mlc().t_program.as_nanos();
    let starts: Vec<u64> = tracer
        .drain()
        .iter()
        .filter(|e| e.op == "page_out")
        .filter_map(|e| e.fields().iter().find(|f| f.0 == "finish_ns"))
        .map(|f| f.1 - t_prog)
        .collect();
    let first_page = ftl.flash_page_of(Lpn(0)).expect("lpn 0 is on flash");
    Placements {
        erasing_die,
        first_die: geometry.die_of_block(geometry.block_of(first_page)),
        first_tprog_start_ns: starts.first().copied().unwrap_or(u64::MAX),
        second_tprog_start_ns: starts.get(1).copied().unwrap_or(u64::MAX),
    }
}

/// A page-out does not queue behind a busy die while another is free:
/// the first goes to the idle die and starts its tPROG one page
/// transfer after its issue, once its page is across the channel; the
/// second, with both dies busy, waits for the first's program, which
/// ends before the erase does.
fn a_page_out_goes_to_a_free_die(p: &Placements) -> bool {
    let t = FlashTiming::mlc();
    p.first_die != p.erasing_die
        && p.first_tprog_start_ns == t.transfer_time(4096).as_nanos()
        && p.second_tprog_start_ns == p.first_tprog_start_ns + t.t_program.as_nanos()
        && p.second_tprog_start_ns < t.t_erase.as_nanos()
}

type Measured = (
    CheckpointCosts,
    Vec<ReadCost>,
    WriteAcks,
    ProgramFinishes,
    MapWalks,
    ReadsAhead,
    ScatterReads,
    StepReads,
    GcStepRead,
    Placements,
);

fn counts_section() -> (Vec<Row>, Measured) {
    section(
        "counts: 64-entry checkpoint command, remap walk vs copy fallback; one home read; \
         page-filling writes; programs on a two-plane die; mapping walks; reads on a \
         programming die; a read during a copy checkpoint's scatter; reads at walk, gather, \
         trim and GC steps; page-outs beside an erasing die",
    );
    let checkpoints = CheckpointCosts::measure();
    let mut rows = Vec::new();
    for (mode, c) in [("remap", &checkpoints.remap), ("copy", &checkpoints.copy)] {
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
        checkpoints.copy.sim_ns as f64,
        checkpoints.remap.sim_ns as f64,
    ));
    let reads = read_costs();
    for r in &reads {
        let name = format!("read/{}B", r.value_bytes);
        push(
            &mut rows,
            &name,
            "unit_lookups",
            r.unit_lookups as f64,
            "units",
        );
        push(
            &mut rows,
            &name,
            "flash_reads",
            r.flash_reads as f64,
            "pages",
        );
        push(&mut rows, &name, "sim_ns", r.sim_ns as f64, "ns");
    }
    let writes = write_acks();
    for (leaf, ns) in [
        ("page_out_ack_ns", writes.page_out_ack_ns),
        ("program_finish_ns", writes.program_finish_ns),
        ("backpressured_ack_ns", writes.backpressured_ack_ns),
    ] {
        push(&mut rows, "write", leaf, ns as f64, "ns");
    }
    let programs = program_finishes();
    for (leaf, ns) in [
        ("plane_pair_finish_ns", programs.plane_pair_finish_ns),
        ("same_plane_finish_ns", programs.same_plane_finish_ns),
        (
            "other_plane_call_finish_ns",
            programs.other_plane_call_finish_ns,
        ),
    ] {
        push(&mut rows, "program", leaf, ns as f64, "ns");
    }
    push(
        &mut rows,
        "program",
        "idle_die_16_page_writes_tprogs",
        programs.idle_die_tprogs as f64,
        "count",
    );
    let walks = map_walks();
    for (leaf, walk) in [
        ("one_unit_ns", walks.one_unit),
        ("trim_4096_units_ns", walks.trim),
        ("remap_64_entries_ns", walks.remap),
    ] {
        push(&mut rows, "map", leaf, walk.sim_ns as f64, "ns");
    }
    let ahead = reads_ahead();
    for (leaf, ns) in [
        ("suspended_ns", ahead.suspended_ns),
        ("overtook_ns", ahead.overtook_ns),
        ("programming_page_ns", ahead.programming_page_ns),
        ("guarded_ns", ahead.guarded_ns),
    ] {
        push(&mut rows, "read", leaf, ns as f64, "ns");
    }
    let scatter = scatter_reads();
    for (leaf, ns) in [
        ("paced_read_wait_ns", scatter.paced_wait_ns),
        ("burst_read_wait_ns", scatter.burst_wait_ns),
    ] {
        push(&mut rows, "scatter", leaf, ns as f64, "ns");
    }
    let steps = step_reads();
    for (leaf, ns) in [
        ("walk_read_wait_ns", steps.walk_wait_ns),
        ("gather_read_wait_ns", steps.gather_wait_ns),
        ("trim_read_wait_ns", steps.trim_wait_ns),
    ] {
        push(&mut rows, "step", leaf, ns as f64, "ns");
    }
    let gc_step = gc_step_read();
    push(
        &mut rows,
        "step",
        "gc_read_wait_ns",
        gc_step.paced_wait_ns as f64,
        "ns",
    );
    let places = placements();
    push(
        &mut rows,
        "place",
        "busy_die_first_page_out_die",
        places.first_die as f64,
        "index",
    );
    for (leaf, ns) in [
        ("busy_die_first_tprog_start_ns", places.first_tprog_start_ns),
        (
            "busy_die_second_tprog_start_ns",
            places.second_tprog_start_ns,
        ),
    ] {
        push(&mut rows, "place", leaf, ns as f64, "ns");
    }
    (
        rows,
        (
            checkpoints,
            reads,
            writes,
            programs,
            walks,
            ahead,
            scatter,
            steps,
            gc_step,
            places,
        ),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_remap_checkpoint_does_no_flash_io() {
        let costs = CheckpointCosts::measure();
        assert!(remap_does_no_flash_io(&costs), "{costs:?}");
    }

    #[test]
    fn a_read_costs_what_the_record_occupies() {
        let reads = read_costs();
        assert!(
            super::a_read_costs_what_the_record_occupies(&reads),
            "{reads:?}"
        );
        // (1 lookup, 1 read) and (8 lookups, one read per distinct page).
        let shape = |r: &ReadCost| (r.unit_lookups, r.flash_reads);
        assert_eq!(shape(&reads[0]), (1, 1));
        assert_eq!(shape(&reads[1]), (8, reads[1].pages));
    }

    #[test]
    fn a_write_waits_for_a_slot_not_a_program() {
        let writes = write_acks();
        assert!(
            super::a_write_waits_for_a_slot_not_a_program(&writes),
            "{writes:?}"
        );
        // The slot frees exactly when the first program finishes.
        assert_eq!(writes.backpressured_ack_ns, writes.program_finish_ns);
    }

    #[test]
    fn a_die_programs_its_planes_at_once() {
        let programs = program_finishes();
        assert!(
            super::a_die_programs_its_planes_at_once(&programs),
            "{programs:?}"
        );
        // The row name counts the writes.
        assert_eq!(PAGE_FILLING_WRITES, 16);
    }

    #[test]
    fn a_mapping_walk_misses_once_per_segment() {
        let walks = map_walks();
        assert!(
            super::a_mapping_walk_misses_once_per_segment(&walks),
            "{walks:?}"
        );
        // The row name counts the units the trim walks.
        assert_eq!(TRIM_UNITS, 4_096);
    }

    #[test]
    fn a_read_does_not_wait_for_an_unseen_program() {
        let ahead = reads_ahead();
        assert!(
            super::a_read_does_not_wait_for_an_unseen_program(&ahead),
            "{ahead:?}"
        );
    }

    #[test]
    fn a_read_waits_out_one_scatter_program_at_most() {
        let reads = scatter_reads();
        assert!(
            super::a_read_waits_out_one_scatter_program_at_most(&reads),
            "{reads:?}"
        );
    }

    #[test]
    fn a_read_waits_out_one_step_at_most() {
        let (steps, walks) = (step_reads(), map_walks());
        assert!(
            super::a_read_waits_out_one_step_at_most(&steps, &walks),
            "{steps:?} {walks:?}"
        );
    }

    #[test]
    fn a_read_waits_out_one_gc_step_at_most() {
        let read = gc_step_read();
        assert!(
            super::a_read_waits_out_one_gc_step_at_most(&read),
            "{read:?}"
        );
    }

    #[test]
    fn a_page_out_goes_to_a_free_die() {
        let places = placements();
        assert!(super::a_page_out_goes_to_a_free_die(&places), "{places:?}");
        assert_eq!(places.first_die, 1);
    }

    #[test]
    fn the_committed_experiments_md_fills_from_the_rows_and_shows_every_claim() {
        let (paper, _) = crate::figures::tests::canned_rows();
        let lab = Lab {
            gc: gc_section(),
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
