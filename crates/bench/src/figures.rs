//! The paper's evaluation as data: every figure and table is a function
//! that runs its cells and appends one [`Row`] per number.
//!
//! Row names read `figure/cell…/quantity` — `fig09/zipfian/check-in/p999_us`,
//! `fig11/A/128thr/checkin_vs_baseline_throughput_pct` — and every
//! value is a simulated quantity, so [`paper_section`] writes the same
//! rows on any host.
//!
//! Every number the paper states is in one place, [`CLAIMS`]: the row it
//! is about, the paper's value and the [`Verdict`] the row is declared
//! to earn against it. `lab` fails when a row earns another verdict
//! than its claim declares, in either direction ([`misjudged`]), so a
//! change that moves a claimed row across [`TOLERANCE`] or across the
//! paper's sign has to change its claim too, and the `BENCH_perf.json`
//! diff shows it. EXPERIMENTS.md shows the rows in tables `lab`
//! generates ([`crate::harness::fill`]).
//!
//! A cell that reports a checkpoint quantity runs until it holds
//! [`MIN_CHECKPOINTS`] of them and records how many it took. The
//! GC-pressured cells (Fig. 8, the ablation) are sized in queries,
//! because write volume is what creates the pressure, and assert the
//! same floor.

use std::fmt;

use checkin_core::{RunReport, Strategy, SystemConfig};
use checkin_flash::FlashTiming;
use checkin_sim::{Counter, Row, SimDuration, Total};
use checkin_ssd::SsdTiming;
use checkin_workload::{AccessPattern, OpMix, RecordSizes};

use crate::harness::row;
use crate::{gc_pressured_config, paper_config, reduction_pct, section};
use Deviation::{AnalyticMapCache, PaddedJournal};
use Verdict::{Deviates, Direction, Reproduced};

/// Checkpoints a cell must hold before it says anything about
/// checkpointing.
pub const MIN_CHECKPOINTS: u64 = 8;

/// How far from the paper's value a row with the paper's sign may be,
/// relative to that value, and still count as [`Verdict::Reproduced`].
/// One bound for every claim: the substrate is a scaled simulator, so
/// what a claim can ask for is the paper's sign and rough size.
pub const TOLERANCE: f64 = 0.25;

/// What a claimed row earns against the paper's value. Sign is taken
/// about the neutral point of the row's unit — 0 for `%` and for the
/// `bool` rows of shape claims, 1 for `x` — and a value at the neutral
/// point has the wrong sign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The paper's sign, and `|value / paper − 1| ≤ TOLERANCE`.
    Reproduced,
    /// The paper's sign, outside [`TOLERANCE`].
    Direction,
    /// The wrong sign, for the reason EXPERIMENTS.md's deviation names.
    Deviates(Deviation),
}

/// EXPERIMENTS.md's "Summary of model deviations", one variant per
/// entry, numbered as there.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Deviation {
    /// #1: a tick drains a running checkpoint; every other booking of
    /// a checkpoint is a pump step.
    TickDrain = 1,
    /// #2: a narrow device of 8 dies, so a copy's die work is what
    /// separates the copy schemes from the remap schemes.
    NarrowDevice = 2,
    /// #3: sector-padded conventional journaling, so ISC-C remaps
    /// nearly every log.
    PaddedJournal = 3,
    /// #4: a scaled device whose mapping cache is analytic, so a
    /// smaller mapping unit costs no flash traffic.
    AnalyticMapCache = 4,
}

impl Verdict {
    /// Whether `value` earns this verdict against the paper's `paper`,
    /// both in `unit`. No verdict is earned in a unit without a neutral
    /// point.
    pub fn earned_by(self, value: f64, paper: f64, unit: &str) -> bool {
        let neutral = match unit {
            "%" | "bool" => 0.0,
            "x" => 1.0,
            _ => return false,
        };
        let same_sign = (value - neutral) * (paper - neutral) > 0.0;
        let close = (value / paper - 1.0).abs() <= TOLERANCE;
        match self {
            Verdict::Reproduced => same_sign && close,
            Verdict::Direction => same_sign && !close,
            Verdict::Deviates(_) => !same_sign,
        }
    }
}

/// `reproduced`, `direction` or `deviates #n`: the `"verdict"` of a
/// `BENCH_perf.json` row.
impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Verdict::Reproduced => f.write_str("reproduced"),
            Verdict::Direction => f.write_str("direction"),
            Verdict::Deviates(d) => write!(f, "deviates #{}", *d as u8),
        }
    }
}

/// One number the paper states: the row it is about, the paper's value
/// and the verdict the row is declared to earn.
#[derive(Debug, Clone, Copy)]
pub struct Claim {
    /// The row's full name.
    pub row: &'static str,
    /// What the paper states, in the row's unit.
    pub paper: f64,
    /// What the row is declared to earn against it.
    pub verdict: Verdict,
}

impl Claim {
    /// The claim on the row `name`, where the paper makes one.
    pub fn on(name: &str) -> Option<&'static Claim> {
        CLAIMS.iter().find(|c| c.row == name)
    }
}

const fn claim(row: &'static str, paper: f64, verdict: Verdict) -> Claim {
    Claim {
        row,
        paper,
        verdict,
    }
}

/// Every number the paper states for a cell `lab` runs, with the verdict
/// its row earns today. The two `bool` rows are shapes the paper draws
/// rather than states: 1 where the shape holds. The `eq1` rows are read
/// where GC has barely begun and swing widely across seeds, so they
/// claim a direction only.
#[rustfmt::skip]
pub const CLAIMS: [Claim; 24] = [
    claim("fig03a/uniform/io_amplification", 2.98, Reproduced),
    claim("fig03a/uniform/flash_amplification", 7.9, Reproduced),
    claim("fig03a/zipfian/io_amplification", 1.91, Reproduced),
    claim("fig03a/zipfian/flash_amplification", 4.7, Reproduced),
    claim("fig03c/read/during_checkpoint_vs_mean", 4.0, Direction),
    claim("fig03c/write/during_checkpoint_vs_mean", 21.0, Direction),
    claim("fig08a/check-in/250ms/redundant_reduction_vs_baseline_pct", 94.3, Reproduced),
    claim("fig08a/check-in/250ms/redundant_reduction_vs_iscc_pct", 45.6, Deviates(PaddedJournal)),
    claim("fig08b/check-in/300000q/gc_reduction_vs_baseline_pct", 74.1, Reproduced),
    claim("fig08b/check-in/300000q/gc_reduction_vs_iscc_pct", 44.8, Direction),
    claim("eq1/check-in/lifetime_vs_baseline", 3.86, Direction),
    claim("eq1/check-in/lifetime_vs_iscc", 1.81, Direction),
    claim("fig09/uniform/checkin_vs_baseline_p999_reduction_pct", 92.1, Reproduced),
    claim("fig09/uniform/checkin_vs_iscc_p9999_reduction_pct", 51.3, Deviates(PaddedJournal)),
    claim("fig09/zipfian/checkin_vs_baseline_p999_reduction_pct", 92.4, Direction),
    claim("fig09/zipfian/checkin_vs_iscc_p9999_reduction_pct", 50.8, Deviates(PaddedJournal)),
    claim("fig11/A/128thr/checkin_vs_baseline_throughput_pct", 8.1, Direction),
    claim("fig11/A/128thr/checkin_vs_baseline_mean_latency_pct", -10.2, Direction),
    claim("fig12/check-in_steadier_than_baseline", 1.0, Reproduced),
    claim("fig13a/check-in/rises_with_unit", 1.0, Deviates(AnalyticMapCache)),
    claim("fig13b/P1-small/checkin_vs_iscc_space_pct", 3.0, Direction),
    claim("fig13b/P2-mixed/checkin_vs_iscc_space_pct", 3.0, Direction),
    claim("fig13b/P3-medium/checkin_vs_iscc_space_pct", 3.0, Direction),
    claim("fig13b/P4-uniform/checkin_vs_iscc_space_pct", 3.0, Direction),
];

/// The claims whose rows do not earn their declared verdict, or that
/// name no row of `rows`, each as one line: empty when every claim holds.
pub fn misjudged(rows: &[Row]) -> Vec<String> {
    let mut wrong = Vec::new();
    for c in &CLAIMS {
        match rows.iter().find(|r| r.name == c.row) {
            None => wrong.push(format!("{}: no such row", c.row)),
            Some(r) if !c.verdict.earned_by(r.value, c.paper, r.unit) => wrong.push(format!(
                "{}: {:.3} {} against the paper's {} does not earn \"{}\"",
                c.row, r.value, r.unit, c.paper, c.verdict
            )),
            Some(_) => {}
        }
    }
    wrong
}

/// The rows written so far and the function that runs a configuration:
/// [`crate::run`] for `lab`, a stand-in that runs nothing for the tests.
struct Paper<'a> {
    rows: Vec<Row>,
    run: &'a mut dyn FnMut(SystemConfig) -> RunReport,
}

impl Paper<'_> {
    /// Appends the row `cell/leaf`.
    fn put(&mut self, cell: &str, leaf: &str, value: f64, unit: &'static str) {
        self.rows.push(row(&format!("{cell}/{leaf}"), value, unit));
    }

    /// [`Paper::put`] for a counter.
    fn count(&mut self, cell: &str, leaf: &str, value: u64, unit: &'static str) {
        self.put(cell, leaf, value as f64, unit);
    }

    /// Appends the shape row `cell/leaf`: 1 where the shape holds.
    fn shape(&mut self, cell: &str, leaf: &str, holds: bool) {
        self.put(cell, leaf, f64::from(u8::from(holds)), "bool");
    }

    /// Runs `config` for the queries it names.
    fn queries(&mut self, config: SystemConfig) -> RunReport {
        (self.run)(config)
    }

    /// Runs a GC-pressured cell for the queries it names: the volume is
    /// the experiment, the checkpoint floor is asserted.
    fn pressured(&mut self, cell: &str, config: SystemConfig) -> RunReport {
        let r = self.queries(config);
        let held = r.checkpoints;
        assert!(held >= MIN_CHECKPOINTS, "{cell}: {held} checkpoints");
        r
    }

    /// Runs `config` sized in checkpoints rather than queries:
    /// `total_queries` doubles until the report holds [`MIN_CHECKPOINTS`]
    /// (faster clients and longer intervals both need more queries to
    /// get there), and `cell/checkpoints` and `cell/queries` record
    /// what the cell ended with.
    fn until_checkpoints(&mut self, cell: &str, mut config: SystemConfig) -> RunReport {
        let r = loop {
            let r = self.queries(config.clone());
            if r.checkpoints >= MIN_CHECKPOINTS {
                break r;
            }
            config.total_queries *= 2;
            let held = r.checkpoints;
            assert!(
                config.total_queries < 1 << 24,
                "{cell}: still {held} checkpoints: a workload that never writes?"
            );
        };
        self.count(cell, "checkpoints", r.checkpoints, "count");
        self.count(cell, "queries", r.ops, "queries");
        r
    }
}

/// One figure: its title and the function that appends its rows.
type Figure = (&'static str, fn(&mut Paper<'_>));

const FIGURES: [Figure; 9] = [
    ("Fig. 3: what checkpointing costs the baseline", fig03),
    (
        "Fig. 8 + Equation (1): redundant writes, GC, lifetime",
        fig08,
    ),
    ("Fig. 9: tail latency", fig09),
    ("Fig. 10: checkpoint time vs threads, queries locked", fig10),
    ("Fig. 11: throughput and mean latency vs threads", fig11),
    ("Fig. 12: checkpoint-interval sensitivity", fig12),
    ("Fig. 13: mapping-unit sensitivity", fig13),
    ("Table I: the simulated machine", table1),
    ("not in the paper: ablation, NAND generation", beyond),
];

/// Every figure's rows, in [`FIGURES`] order, with `run` running the
/// cells.
fn rows_from(run: &mut dyn FnMut(SystemConfig) -> RunReport) -> Vec<Row> {
    let rows = Vec::new();
    let mut paper = Paper { rows, run };
    for (title, figure) in FIGURES {
        section(&format!("paper: {title}"));
        figure(&mut paper);
    }
    paper.rows
}

/// Runs every figure and table — `lab`'s `paper` section — and lists
/// each claimed row beside the paper's value.
pub fn paper_section() -> Vec<Row> {
    let rows = rows_from(&mut crate::run);
    section("paper: the paper's claims");
    for r in &rows {
        if let Some(c) = Claim::on(&r.name) {
            println!("{r}   (paper {}, {})", c.paper, c.verdict);
        }
    }
    rows
}

const THREADS: [u32; 5] = [4, 16, 32, 64, 128];

fn us(d: SimDuration) -> f64 {
    d.as_micros_f64()
}

/// A strategy's name inside a row name: `check-in`, `isc-c`, ...
fn tag(strategy: Strategy) -> String {
    strategy.label().to_lowercase()
}

/// Signed change of `new` against `old`, in percent.
fn change_pct(old: f64, new: f64) -> f64 {
    (new / old - 1.0) * 100.0
}

/// The report of `strategy` among a figure's per-strategy reports.
fn of(reports: &[(Strategy, RunReport)], strategy: Strategy) -> &RunReport {
    let found = reports.iter().find(|(s, _)| *s == strategy);
    &found.expect("the figure ran every strategy it compares").1
}

/// The write-only workload of the checkpoint-time sweeps: `threads`
/// clients, query processing locked while a checkpoint runs (as the
/// paper measures checkpoint duration).
fn locked_write_only(strategy: Strategy, pattern: AccessPattern, threads: u32) -> SystemConfig {
    let mut c = paper_config(strategy);
    c.workload.mix = OpMix::WRITE_ONLY;
    c.workload.pattern = pattern;
    c.threads = threads;
    c.lock_queries_during_checkpoint = true;
    c
}

/// Fig. 3, the motivation study on the baseline engine: (a) I/O and
/// flash-operation amplification, (b) checkpoint time against threads,
/// (c) query latency during a checkpoint against the average.
fn fig03(p: &mut Paper<'_>) {
    for pattern in [AccessPattern::Uniform, AccessPattern::Zipfian] {
        let cell = format!("fig03a/{}", pattern.label());
        let mut c = paper_config(Strategy::Baseline);
        c.workload.mix = OpMix::WRITE_ONLY;
        c.workload.pattern = pattern;
        let r = p.until_checkpoints(&cell, c);
        p.put(&cell, "io_amplification", r.io_amplification, "x");
        p.put(&cell, "flash_amplification", r.flash_amplification, "x");

        let mut at_4 = None;
        for threads in THREADS {
            let cell = format!("fig03b/{}/{threads}thr", pattern.label());
            let c = locked_write_only(Strategy::Baseline, pattern, threads);
            let r = p.until_checkpoints(&cell, c);
            let mean = us(r.checkpoint_mean);
            let vs_4 = mean / *at_4.get_or_insert(mean);
            let live = r.checkpoint_entries / r.checkpoints.max(1);
            p.put(&cell, "checkpoint_mean_us", mean, "us");
            p.put(&cell, "checkpoint_mean_vs_4thr", vs_4, "x");
            p.count(&cell, "live_keys_per_checkpoint", live, "keys");
        }
    }
    // Workload A under the default (zipfian) pattern.
    let r = p.until_checkpoints("fig03c", paper_config(Strategy::Baseline));
    for (query, all, during) in [
        ("read", &r.latency_read, &r.latency_read_during_cp),
        ("write", &r.latency_write, &r.latency_write_during_cp),
    ] {
        let cell = format!("fig03c/{query}");
        let (mean, in_cp) = (us(all.mean), us(during.mean));
        p.put(&cell, "mean_us", mean, "us");
        p.put(&cell, "during_checkpoint_mean_us", in_cp, "us");
        p.put(&cell, "during_checkpoint_vs_mean", in_cp / mean, "x");
    }
}

/// 512 B sectors rewritten although the data already existed: checkpoint
/// copies plus GC migration (Fig. 8(a)'s "redundant writes").
fn redundant_sectors(strategy: Strategy, r: &RunReport) -> u64 {
    let unit = u64::from(strategy.default_unit_bytes());
    r.redundant_write_bytes / 512 + gc_units_moved(r) * unit / 512
}

/// GC rounds of a run.
fn gc_invocations(r: &RunReport) -> u64 {
    r.counters.get(Counter::FtlGcInvocations)
}

/// Units GC relocated in a run.
fn gc_units_moved(r: &RunReport) -> u64 {
    r.counters.get(Counter::FtlGcUnitsMoved)
}

/// Blocks a run erased.
fn erases(r: &RunReport) -> u64 {
    r.counters.total(Total::FlashErase)
}

/// Fig. 8 and Equation (1) on the GC-pressured device: (a) redundant
/// writes against the checkpoint interval, (b) GC invocations against
/// write volume, and the lifetime ratios of (a)'s 250 ms cells.
fn fig08(p: &mut Paper<'_>) {
    let mut at_250 = Vec::new();
    for strategy in Strategy::all() {
        for interval_ms in [125u64, 250, 500] {
            let cell = format!("fig08a/{}/{interval_ms}ms", tag(strategy));
            let mut c = gc_pressured_config(strategy);
            c.checkpoint_interval = SimDuration::from_millis(interval_ms);
            let r = p.pressured(&cell, c);
            let copied = r.redundant_write_bytes / 512;
            let redundant = redundant_sectors(strategy, &r);
            p.count(&cell, "checkpoint_sectors", copied, "sectors");
            p.count(&cell, "gc_units_moved", gc_units_moved(&r), "units");
            p.count(&cell, "redundant_sectors", redundant, "sectors");
            if interval_ms == 250 {
                at_250.push((strategy, r));
            }
        }
    }
    let redundant = |s| redundant_sectors(s, of(&at_250, s)) as f64;
    for strategy in Strategy::all() {
        let cell = format!("fig08a/{}/250ms", tag(strategy));
        let leaf = "redundant_reduction_vs_baseline_pct";
        let cut = reduction_pct(redundant(Strategy::Baseline), redundant(strategy));
        p.put(&cell, leaf, cut, "%");
    }
    let leaf = "redundant_reduction_vs_iscc_pct";
    let cut = reduction_pct(redundant(Strategy::IscC), redundant(Strategy::CheckIn));
    p.put("fig08a/check-in/250ms", leaf, cut, "%");

    const MOST_QUERIES: u64 = 300_000;
    let mut at_most = Vec::new();
    for strategy in [
        Strategy::Baseline,
        Strategy::IscB,
        Strategy::IscC,
        Strategy::CheckIn,
    ] {
        for queries in [75_000, 150_000, MOST_QUERIES] {
            let cell = format!("fig08b/{}/{queries}q", tag(strategy));
            let mut c = gc_pressured_config(strategy);
            c.total_queries = queries;
            // The lower volumes are points on the volume axis (Check-In
            // takes 5 checkpoints in 75 000 queries); the floor holds
            // where the two comparisons are read.
            let r = if queries == MOST_QUERIES {
                p.pressured(&cell, c)
            } else {
                p.queries(c)
            };
            p.count(&cell, "gc_invocations", gc_invocations(&r), "count");
            let invalid = r.counters.get(Counter::FtlInvalidUnits);
            p.count(&cell, "invalid_units", invalid, "units");
            p.count(&cell, "erases", erases(&r), "blocks");
            if queries == MOST_QUERIES {
                at_most.push((strategy, r));
            }
        }
    }
    let gc = |s| gc_invocations(of(&at_most, s)) as f64;
    let cell = format!("fig08b/check-in/{MOST_QUERIES}q");
    for (leaf, against) in [
        ("gc_reduction_vs_baseline_pct", Strategy::Baseline),
        ("gc_reduction_vs_iscc_pct", Strategy::IscC),
    ] {
        let cut = reduction_pct(gc(against), gc(Strategy::CheckIn));
        p.put(&cell, leaf, cut, "%");
    }

    // Equation (1): lifetime = PEC_max * T_op / BEC, as ratios at equal work.
    for (strategy, r) in &at_250 {
        let cell = format!("eq1/{}", tag(*strategy));
        p.count(&cell, "erases", erases(r), "blocks");
        for (leaf, against) in [
            ("lifetime_vs_baseline", Strategy::Baseline),
            ("lifetime_vs_iscc", Strategy::IscC),
        ] {
            let ratio = r.lifetime_vs(of(&at_250, against));
            p.put(&cell, leaf, ratio, "x");
        }
    }
}

/// Fig. 9: tail latency of workload A per configuration, and Check-In's
/// two headline reductions (signed: a negative one is an increase).
fn fig09(p: &mut Paper<'_>) {
    for pattern in [AccessPattern::Uniform, AccessPattern::Zipfian] {
        let mut reports = Vec::new();
        for strategy in Strategy::all() {
            let cell = format!("fig09/{}/{}", pattern.label(), tag(strategy));
            let mut c = paper_config(strategy);
            c.workload.pattern = pattern;
            c.total_queries = 60_000;
            let r = p.until_checkpoints(&cell, c);
            p.put(&cell, "p99_us", us(r.latency.p99), "us");
            p.put(&cell, "p999_us", us(r.latency.p999), "us");
            p.put(&cell, "p9999_us", us(r.latency.p9999), "us");
            p.put(&cell, "max_us", us(r.latency.max), "us");
            reports.push((strategy, r));
        }
        let cell = format!("fig09/{}", pattern.label());
        let lat = |s| &of(&reports, s).latency;
        let ci = lat(Strategy::CheckIn);
        let leaf = "checkin_vs_baseline_p999_reduction_pct";
        let cut = reduction_pct(us(lat(Strategy::Baseline).p999), us(ci.p999));
        p.put(&cell, leaf, cut, "%");
        let leaf = "checkin_vs_iscc_p9999_reduction_pct";
        let cut = reduction_pct(us(lat(Strategy::IscC).p9999), us(ci.p9999));
        p.put(&cell, leaf, cut, "%");
    }
}

/// Fig. 10: mean checkpoint duration against threads, per configuration.
fn fig10(p: &mut Paper<'_>) {
    for strategy in Strategy::all() {
        for threads in THREADS {
            let cell = format!("fig10/{}/{threads}thr", tag(strategy));
            let c = locked_write_only(strategy, AccessPattern::Zipfian, threads);
            let r = p.until_checkpoints(&cell, c);
            p.put(&cell, "checkpoint_mean_us", us(r.checkpoint_mean), "us");
        }
    }
}

/// Fig. 11: throughput and mean latency of workloads A, F and
/// write-only against threads, and Check-In against the baseline at 128
/// (the paper states its two numbers for workload A).
fn fig11(p: &mut Paper<'_>) {
    for mix in [OpMix::A, OpMix::F, OpMix::WRITE_ONLY] {
        let mut at_128 = Vec::new();
        for strategy in Strategy::all() {
            for threads in THREADS {
                let cell = format!("fig11/{}/{threads}thr/{}", mix.label(), tag(strategy));
                let mut c = paper_config(strategy);
                c.workload.mix = mix;
                c.threads = threads;
                c.total_queries = 20_000;
                let r = p.until_checkpoints(&cell, c);
                p.put(&cell, "throughput", r.throughput, "queries/s");
                p.put(&cell, "mean_latency_us", us(r.latency.mean), "us");
                if threads == 128 {
                    at_128.push((strategy, r));
                }
            }
        }
        let cell = format!("fig11/{}/128thr", mix.label());
        let base = of(&at_128, Strategy::Baseline);
        let ci = of(&at_128, Strategy::CheckIn);
        let leaf = "checkin_vs_baseline_throughput_pct";
        let gain = change_pct(base.throughput, ci.throughput);
        p.put(&cell, leaf, gain, "%");
        let leaf = "checkin_vs_baseline_mean_latency_pct";
        let change = change_pct(us(base.latency.mean), us(ci.latency.mean));
        p.put(&cell, leaf, change, "%");
    }
}

/// Fig. 12: the baseline and Check-In against the checkpoint interval,
/// and the paper's shape: Check-In's throughput steadier across the
/// intervals (a smaller max / min) than the baseline's.
fn fig12(p: &mut Paper<'_>) {
    let spread = [Strategy::Baseline, Strategy::CheckIn].map(|strategy| {
        let (mut min, mut max) = (f64::INFINITY, 0.0f64);
        for interval_ms in [62u64, 125, 250, 500, 1000] {
            let cell = format!("fig12/{}/{interval_ms}ms", tag(strategy));
            let mut c = paper_config(strategy);
            c.checkpoint_interval = SimDuration::from_millis(interval_ms);
            let r = p.until_checkpoints(&cell, c);
            p.put(&cell, "throughput", r.throughput, "queries/s");
            p.put(&cell, "mean_latency_us", us(r.latency.mean), "us");
            p.put(&cell, "p999_us", us(r.latency.p999), "us");
            (min, max) = (min.min(r.throughput), max.max(r.throughput));
        }
        max / min
    });
    let [baseline, checkin] = spread;
    p.shape(
        "fig12",
        "check-in_steadier_than_baseline",
        checkin < baseline,
    );
}

/// Fig. 13: (a) throughput against the mapping unit for the two remap
/// schemes, and the paper's shape, Check-In's throughput higher at
/// 4 096 B than at 512 B; (b) journal space of Check-In against ISC-C
/// at the 4 KiB unit over four record-size patterns.
fn fig13(p: &mut Paper<'_>) {
    let mut checkin = Vec::new();
    for strategy in [Strategy::IscC, Strategy::CheckIn] {
        for unit in [512u32, 1024, 2048, 4096] {
            let cell = format!("fig13a/{}/{unit}B", tag(strategy));
            let mut c = paper_config(strategy);
            c.unit_bytes = Some(unit);
            c.workload.sizes = RecordSizes::pattern2();
            c.total_queries = 25_000;
            // A finite map cache, so that smaller units pay their metadata cost.
            c.map_cache_entries = Some(16_384);
            let r = p.until_checkpoints(&cell, c);
            p.put(&cell, "throughput", r.throughput, "queries/s");
            p.put(&cell, "mean_latency_us", us(r.latency.mean), "us");
            p.count(&cell, "remapped_entries", r.remapped_entries, "entries");
            p.count(&cell, "copied_entries", r.copied_entries, "entries");
            if strategy == Strategy::CheckIn {
                checkin.push(r.throughput);
            }
        }
    }
    let rises = checkin.last() > checkin.first();
    p.shape("fig13a/check-in", "rises_with_unit", rises);
    for (pattern, sizes) in [
        ("P1-small", RecordSizes::pattern1()),
        ("P2-mixed", RecordSizes::pattern2()),
        ("P3-medium", RecordSizes::pattern3()),
        ("P4-uniform", RecordSizes::pattern4()),
    ] {
        let cell = format!("fig13b/{pattern}");
        let [iscc, ci] = [Strategy::IscC, Strategy::CheckIn].map(|strategy| {
            let mut c = paper_config(strategy);
            c.unit_bytes = Some(4096);
            c.workload.sizes = sizes.clone();
            c.workload.mix = OpMix::WRITE_ONLY;
            c.total_queries = 20_000;
            let space = p.queries(c).journal_space_overhead;
            let leaf = format!("{}/journal_space", tag(strategy));
            p.put(&cell, &leaf, space, "x");
            space
        });
        let delta = change_pct(iscc, ci);
        p.put(&cell, "checkin_vs_iscc_space_pct", delta, "%");
    }
}

/// Table I: the machine the defaults instantiate. Runs nothing.
fn table1(p: &mut Paper<'_>) {
    let c = SystemConfig::for_strategy(Strategy::CheckIn);
    let (g, f, s) = (c.geometry, c.flash_timing, SsdTiming::paper_default());
    let link_gb = s.link_bytes_per_sec as f64 / 1e9;
    let bus_mb = f.bus_bytes_per_sec as f64 / 1e6;
    let capacity_mib = g.capacity_bytes() / (1 << 20);
    let host_cpu_us = us(SystemConfig::HOST_CPU_PER_OP);
    let buffer_units = c.ftl_config().write_buffer_units;
    for (leaf, value, unit) in [
        (
            "checkpoint_interval_ms",
            us(c.checkpoint_interval) / 1e3,
            "ms",
        ),
        (
            "journal_trigger_sectors",
            c.journal_trigger_sectors as f64,
            "sectors",
        ),
        ("total_queries", c.total_queries as f64, "queries"),
        ("threads", f64::from(c.threads), "count"),
        ("host_cores", f64::from(SystemConfig::HOST_CORES), "count"),
        ("host_cpu_per_query_us", host_cpu_us, "us"),
        ("link_gb_per_s", link_gb, "GB/s"),
        ("command_overhead_us", us(s.cmd_overhead), "us"),
        ("queue_depth", s.queue_depth as f64, "count"),
        ("channels", f64::from(g.channels), "count"),
        ("dies_per_channel", f64::from(g.dies_per_channel), "count"),
        ("planes_per_die", f64::from(g.planes_per_die), "count"),
        ("pages_per_block", f64::from(g.pages_per_block), "pages"),
        ("page_bytes", f64::from(g.page_bytes), "B"),
        ("capacity_mib", capacity_mib as f64, "MiB"),
        ("t_read_us", us(f.t_read), "us"),
        ("t_prog_us", us(f.t_program), "us"),
        ("t_erase_us", us(f.t_erase), "us"),
        ("channel_bus_mb_per_s", bus_mb, "MB/s"),
        ("write_buffer_units", f64::from(buffer_units), "units"),
    ] {
        p.put("table1", leaf, value, unit);
    }
    for strategy in Strategy::all() {
        let leaf = format!("{}/mapping_unit_bytes", tag(strategy));
        let unit = u64::from(strategy.default_unit_bytes());
        p.count("table1", &leaf, unit, "B");
    }
}

/// Not in the paper: the ablation of Check-In's two ingredients under GC
/// pressure (DESIGN.md §6), and Check-In against the baseline across
/// NAND generations — checkpoint copies cost tPROG, so slower cells
/// should widen the margin.
fn beyond(p: &mut Paper<'_>) {
    let without_both = "check-in_no-merge_no-compress";
    for (variant, strategy, no_merge, no_compress) in [
        ("baseline", Strategy::Baseline, false, false),
        ("isc-c", Strategy::IscC, false, false),
        (without_both, Strategy::CheckIn, true, true),
        ("check-in_no-merge", Strategy::CheckIn, true, false),
        ("check-in_no-compress", Strategy::CheckIn, false, true),
        ("check-in", Strategy::CheckIn, false, false),
    ] {
        let cell = format!("ablation/{variant}");
        let mut c = gc_pressured_config(strategy);
        c.ablate_partial_merging = no_merge;
        c.ablate_compression = no_compress;
        let r = p.pressured(&cell, c);
        let copied = r.redundant_write_bytes / 512;
        p.put(&cell, "throughput", r.throughput, "queries/s");
        p.put(&cell, "p999_us", us(r.latency.p999), "us");
        p.count(&cell, "checkpoint_sectors", copied, "sectors");
        p.count(&cell, "gc_invocations", gc_invocations(&r), "count");
        p.count(&cell, "erases", erases(&r), "blocks");
        p.put(&cell, "journal_space", r.journal_space_overhead, "x");
    }
    for (cells, timing) in [
        ("slc", FlashTiming::slc()),
        ("mlc", FlashTiming::mlc()),
        ("tlc", FlashTiming::tlc()),
    ] {
        let cell = format!("ext/{cells}");
        p.put(&cell, "t_prog_us", us(timing.t_program), "us");
        let [base, ci] = [Strategy::Baseline, Strategy::CheckIn].map(|strategy| {
            let cell = format!("{cell}/{}", tag(strategy));
            let mut c = paper_config(strategy);
            c.flash_timing = timing;
            let r = p.until_checkpoints(&cell, c);
            p.put(&cell, "p999_us", us(r.latency.p999), "us");
            r
        });
        let leaf = "checkin_vs_baseline_p999_reduction_pct";
        let cut = reduction_pct(us(base.latency.p999), us(ci.latency.p999));
        p.put(&cell, leaf, cut, "%");
        let leaf = "checkin_vs_baseline_throughput_pct";
        p.put(&cell, leaf, change_pct(base.throughput, ci.throughput), "%");
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use std::collections::BTreeSet;

    use super::*;
    use crate::harness::render;

    /// A real report holding [`MIN_CHECKPOINTS`], from a run small
    /// enough for the test profile (5 ms checkpoints).
    fn small_report() -> RunReport {
        let rows = Vec::new();
        let run = &mut crate::run;
        let mut c = paper_config(Strategy::CheckIn);
        c.checkpoint_interval = SimDuration::from_millis(5);
        c.total_queries = 2_000;
        let r = Paper { rows, run }.until_checkpoints("small", c);
        assert!(r.ops > 2_000, "{} queries: the doubling never ran", r.ops);
        r
    }

    /// Every row, with no cell run: each configuration is validated and
    /// answered with the same canned report. Also returns the number of
    /// cells.
    pub(crate) fn canned_rows() -> (Vec<Row>, u32) {
        let canned = small_report();
        let mut cells = 0;
        let rows = rows_from(&mut |config| {
            config.validate().expect("cell configuration");
            cells += 1;
            canned.clone()
        });
        (rows, cells)
    }

    /// The claims with the unit of their rows.
    fn claims_in_units(rows: &[Row]) -> Vec<(Claim, &'static str)> {
        let unit = |c: &Claim| {
            rows.iter()
                .find(|r| r.name == c.row)
                .expect("claimed row")
                .unit
        };
        CLAIMS.iter().map(|c| (*c, unit(c))).collect()
    }

    #[test]
    fn every_cell_validates_and_every_row_name_is_unique() {
        let (rows, cells) = canned_rows();
        let names: BTreeSet<&str> = rows.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names.len(), rows.len(), "a row name repeats");
        // The artifact holds simulated quantities only: a report's
        // `host/…` rows (host memory) stay in `checkin run`.
        assert!(names
            .iter()
            .all(|n| !n.split('/').any(|part| part == "host")));
        assert_eq!(cells, 188);

        // Every claim names exactly one row, in a unit with a neutral
        // point, and no row has two claims.
        let claimed: BTreeSet<&str> = CLAIMS.iter().map(|c| c.row).collect();
        assert_eq!(claimed.len(), 24, "a claim repeats");
        for c in &CLAIMS {
            let of = rows.iter().filter(|r| r.name == c.row).collect::<Vec<_>>();
            assert_eq!(of.len(), 1, "{}: {} rows", c.row, of.len());
            assert!(["%", "x", "bool"].contains(&of[0].unit), "{}", c.row);
        }
        assert_eq!(
            rows.iter().filter(|r| Claim::on(&r.name).is_some()).count(),
            24
        );

        // Each claimed row at exactly the paper's value earns
        // `Reproduced`, so the gate names every claim declared
        // otherwise, and only those.
        let at_paper: Vec<Row> = rows
            .iter()
            .map(|r| match Claim::on(&r.name) {
                Some(c) => Row::new(r.name.clone(), c.paper, r.unit),
                None => r.clone(),
            })
            .collect();
        let declared_otherwise = CLAIMS.iter().filter(|c| c.verdict != Reproduced).count();
        assert_eq!(misjudged(&at_paper).len(), declared_otherwise);
        assert_eq!(misjudged(&[]).len(), 24, "a claim on no row fails");
    }

    #[test]
    fn a_verdict_is_judged_about_the_units_neutral_point() {
        // The neutral value itself has the wrong sign, in every unit.
        for (neutral, paper, unit) in [(0.0, 50.0, "%"), (1.0, 2.0, "x"), (0.0, 1.0, "bool")] {
            assert!(Deviates(PaddedJournal).earned_by(neutral, paper, unit));
            assert!(!Direction.earned_by(neutral, paper, unit));
            assert!(!Reproduced.earned_by(neutral, paper, unit));
        }
        // A ratio below 1 is the wrong side of a ratio above it, though
        // both are positive.
        assert!(Deviates(PaddedJournal).earned_by(0.9, 2.0, "x"));
        assert!(Reproduced.earned_by(2.4, 2.0, "x"));
        assert!(Direction.earned_by(2.6, 2.0, "x"));
        assert!(Reproduced.earned_by(1.0, 1.0, "bool"));
        // Negative claims: a larger cut of the same sign is a direction.
        assert!(Reproduced.earned_by(-11.0, -10.0, "%"));
        assert!(Direction.earned_by(-26.0, -10.0, "%"));
        assert!(Deviates(Deviation::TickDrain).earned_by(3.0, -10.0, "%"));
        // How the artifact spells each.
        assert_eq!(Reproduced.to_string(), "reproduced");
        assert_eq!(Direction.to_string(), "direction");
        assert_eq!(Deviates(PaddedJournal).to_string(), "deviates #3");
        // No verdict at all in a unit without a neutral point.
        for v in [Reproduced, Direction, Deviates(PaddedJournal)] {
            assert!(!v.earned_by(10.0, 10.0, "us"));
        }
    }

    #[test]
    fn a_claim_fails_on_a_flipped_sign_or_inside_the_tolerance() {
        let (rows, _) = canned_rows();
        for (c, unit) in claims_in_units(&rows) {
            let neutral = if unit == "x" { 1.0 } else { 0.0 };
            let flipped = 2.0 * neutral - c.paper;
            let inside = c.paper * (1.0 + TOLERANCE / 2.0);
            match c.verdict {
                // A `Reproduced` claim whose row flips sign fails.
                Reproduced => {
                    assert!(c.verdict.earned_by(c.paper, c.paper, unit), "{}", c.row);
                    assert!(!c.verdict.earned_by(flipped, c.paper, unit), "{}", c.row);
                }
                // A `Direction` claim whose row lands inside the
                // tolerance fails as surely as one that loses the sign.
                Direction => {
                    assert!(!c.verdict.earned_by(inside, c.paper, unit), "{}", c.row);
                    assert!(!c.verdict.earned_by(flipped, c.paper, unit), "{}", c.row);
                }
                // A pinned deviation fails once its row has the
                // paper's sign.
                Deviates(_) => {
                    assert!(c.verdict.earned_by(flipped, c.paper, unit), "{}", c.row);
                    assert!(!c.verdict.earned_by(c.paper, c.paper, unit), "{}", c.row);
                }
            }
        }
    }

    #[test]
    fn table1_runs_nothing_and_renders() {
        let rows = Vec::new();
        let run = &mut |_| panic!("Table I runs no cell");
        let mut paper = Paper { rows, run };
        table1(&mut paper);
        let text = render(&[("paper", &paper.rows)]);
        assert!(text.contains(r#"{"name": "table1/t_prog_us", "value": 660.000, "unit": "us"}"#));
        assert!(text.contains(r#""table1/check-in/mapping_unit_bytes", "value": 512.000"#));
        assert_eq!(paper.rows.len(), 25);
    }
}
