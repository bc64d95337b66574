//! Run reports: every quantity the paper's tables and figures need.

use checkin_sim::{CounterSet, LatencyRecorder, Row, SimDuration};

use crate::config::Strategy;

/// Summary of a latency distribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyStats {
    /// Samples.
    pub count: u64,
    /// Mean.
    pub mean: SimDuration,
    /// Median.
    pub p50: SimDuration,
    /// 99th percentile.
    pub p99: SimDuration,
    /// 99.9th percentile (the paper's headline tail metric).
    pub p999: SimDuration,
    /// 99.99th percentile.
    pub p9999: SimDuration,
    /// Maximum.
    pub max: SimDuration,
}

impl LatencyStats {
    /// Summarises a recorder.
    pub fn from_recorder(r: &LatencyRecorder) -> Self {
        LatencyStats {
            count: r.count(),
            mean: r.mean(),
            p50: r.quantile(0.5),
            p99: r.quantile(0.99),
            p999: r.quantile(0.999),
            p9999: r.quantile(0.9999),
            max: r.max(),
        }
    }
}

/// Flash operations attributed to one checkpoint phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseOps {
    /// Page reads.
    pub reads: u64,
    /// Page programs.
    pub programs: u64,
    /// Block erases.
    pub erases: u64,
}

impl PhaseOps {
    /// Total flash operations in this phase.
    pub fn total(&self) -> u64 {
        self.reads + self.programs + self.erases
    }

    /// Adds another phase's counts into this one.
    pub fn accumulate(&mut self, other: &PhaseOps) {
        self.reads += other.reads;
        self.programs += other.programs;
        self.erases += other.erases;
    }
}

/// Per-phase breakdown of checkpoint work, following Algorithm 1's
/// steps: drain (tombstone walk and entry build), remap walk, copy
/// fallback, metadata persistence, journal trim, and any garbage
/// collection the checkpoint itself triggered.
///
/// Flash-op attribution is exact: the flash array counts every
/// program/read/erase under the firmware phase active when it was
/// issued, at the same site as the aggregate counter, so the per-phase
/// counts here always sum to the aggregate checkpoint totals
/// ([`RunReport::checkpoint_flash_programs`] /
/// [`RunReport::checkpoint_flash_reads`]). Durations are wall-clock
/// spans of each stage on the simulated clock; stages overlap device
/// resources, so they are a breakdown, not an exact partition of the
/// checkpoint's duration.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckpointPhases {
    /// Time draining the retiring zone: applying deletion tombstones
    /// and building the entry batch (no data movement yet).
    pub drain_time: SimDuration,
    /// Flash ops of the ISCE remap walk (mapping updates; normally 0).
    pub remap: PhaseOps,
    /// Firmware time spent in the remap walk.
    pub remap_time: SimDuration,
    /// Flash ops of the copy fallback (in-storage or host-driven).
    pub copy: PhaseOps,
    /// Time spent in the copy fallback.
    pub copy_time: SimDuration,
    /// Flash ops persisting metadata (device recovery log + engine
    /// superblock).
    pub meta: PhaseOps,
    /// Time spent persisting metadata.
    pub meta_time: SimDuration,
    /// Flash ops of the retired-zone deallocation (normally 0 — trims
    /// are mapping operations).
    pub trim: PhaseOps,
    /// Time spent trimming the retired journal zone.
    pub trim_time: SimDuration,
    /// Flash ops of garbage collection triggered inside the checkpoint
    /// window (foreground GC behind copy or metadata writes).
    pub gc: PhaseOps,
    /// Flash ops inside the window not attributed to any phase above.
    /// Zero by construction; a non-zero value means an accounting bug
    /// (debug builds assert on it).
    pub other: PhaseOps,
}

impl CheckpointPhases {
    /// Per-phase flash reads, summed.
    pub fn flash_reads(&self) -> u64 {
        self.remap.reads
            + self.copy.reads
            + self.meta.reads
            + self.trim.reads
            + self.gc.reads
            + self.other.reads
    }

    /// Per-phase flash programs, summed.
    pub fn flash_programs(&self) -> u64 {
        self.remap.programs
            + self.copy.programs
            + self.meta.programs
            + self.trim.programs
            + self.gc.programs
            + self.other.programs
    }

    /// Per-phase flash erases, summed.
    pub fn flash_erases(&self) -> u64 {
        self.remap.erases
            + self.copy.erases
            + self.meta.erases
            + self.trim.erases
            + self.gc.erases
            + self.other.erases
    }

    /// Adds another breakdown (one more checkpoint) into this one.
    pub fn accumulate(&mut self, other: &CheckpointPhases) {
        self.drain_time += other.drain_time;
        self.remap.accumulate(&other.remap);
        self.remap_time += other.remap_time;
        self.copy.accumulate(&other.copy);
        self.copy_time += other.copy_time;
        self.meta.accumulate(&other.meta);
        self.meta_time += other.meta_time;
        self.trim.accumulate(&other.trim);
        self.trim_time += other.trim_time;
        self.gc.accumulate(&other.gc);
        self.other.accumulate(&other.other);
    }
}

/// Busy fractions of a group of like resources (the dies, the channels).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UtilizationSpread {
    /// The idlest member.
    pub min: f64,
    /// Mean over the group.
    pub mean: f64,
    /// The busiest member.
    pub max: f64,
}

impl UtilizationSpread {
    /// Summarises the busy fractions of a group's members (a validated
    /// geometry has at least one die and one channel).
    pub fn of(fractions: &[f64]) -> Self {
        UtilizationSpread {
            min: fractions.iter().copied().fold(f64::INFINITY, f64::min),
            mean: fractions.iter().sum::<f64>() / fractions.len() as f64,
            max: fractions.iter().copied().fold(0.0, f64::max),
        }
    }
}

/// How busy the device's resource timelines were over the measured
/// phase: time reserved during it divided by its length. A reservation
/// made near the end of the run may extend past it, so a saturated
/// resource can read marginally above one.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceUtilization {
    /// Host link (command capsules and data transfers).
    pub link: f64,
    /// Firmware CPU.
    pub cpu: f64,
    /// Flash dies (tR, tPROG, tBERS).
    pub dies: UtilizationSpread,
    /// Flash channels (page transfers).
    pub channels: UtilizationSpread,
}

/// Everything measured over one simulated run.
///
/// `PartialEq` compares every field, so two reports are equal only when
/// the runs were bit-identical — the property the parallel sweep path is
/// tested against.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Strategy under test.
    pub strategy: Strategy,
    /// Client threads.
    pub threads: u32,
    /// Queries completed in the measured phase.
    pub ops: u64,
    /// Measured (simulated) wall time.
    pub elapsed: SimDuration,
    /// Queries per simulated second.
    pub throughput: f64,
    /// All queries.
    pub latency: LatencyStats,
    /// Read queries only.
    pub latency_read: LatencyStats,
    /// Write (update/RMW) queries only.
    pub latency_write: LatencyStats,
    /// Reads issued while a checkpoint was in progress.
    pub latency_read_during_cp: LatencyStats,
    /// Writes issued while a checkpoint was in progress.
    pub latency_write_during_cp: LatencyStats,
    /// Checkpoints taken.
    pub checkpoints: u64,
    /// Live JMT entries checkpointed in total (the "latest versions" the
    /// paper's Fig. 3(b) discussion counts).
    pub checkpoint_entries: u64,
    /// Mean checkpoint duration.
    pub checkpoint_mean: SimDuration,
    /// Longest checkpoint.
    pub checkpoint_max: SimDuration,
    /// Checkpoint entries remapped (Check-In / ISC-C path).
    pub remapped_entries: u64,
    /// Checkpoint entries copied.
    pub copied_entries: u64,
    /// Flash programs attributed to checkpoints — the paper's "redundant
    /// writes" (Fig. 8a).
    pub checkpoint_flash_programs: u64,
    /// Flash reads attributed to checkpoints.
    pub checkpoint_flash_reads: u64,
    /// Mapping units (re)written because of checkpoints — the paper's
    /// "redundant writes" (Fig. 8a). Counts deferred (buffered) copies
    /// that `checkpoint_flash_programs` misses; remaps cost zero.
    pub redundant_write_units: u64,
    /// Payload bytes (re)written because of checkpoints (unit-size
    /// independent form of `redundant_write_units`).
    pub redundant_write_bytes: u64,
    /// Every layer's counters over the measured phase: the run-phase
    /// deltas of the flash, FTL, device and engine sets, merged (their
    /// key prefixes do not overlap).
    pub counters: CounterSet,
    /// Link, firmware-CPU, die and channel utilisation over the measured
    /// phase.
    pub utilization: DeviceUtilization,
    /// Host bytes the flash page store holds at the end of the run
    /// ([`checkin_flash::FlashArray::store_bytes`]): memory as a
    /// deterministic count, not a host measurement.
    pub flash_store_bytes: u64,
    /// Host bytes the FTL's mapping table holds at the end of the run
    /// ([`checkin_ftl::Ftl::mapping_bytes`]), its reserved device-sized
    /// arrays included.
    pub mapping_bytes: u64,
    /// Raw bytes carried by write queries (`engine.update_bytes`).
    pub write_query_bytes: u64,
    /// Host I/O amplification: host-interface bytes moved
    /// (`ssd.host_read_bytes + ssd.host_write_bytes`: journals,
    /// checkpoints, metadata) per write-query byte (Fig. 3a's I/O row).
    /// `NaN` for write-free runs — a read-only workload has no write
    /// bytes to amplify, so no ratio exists.
    pub io_amplification: f64,
    /// Flash-operation amplification: flash ops per write-query page
    /// (Fig. 3a's flash row). `NaN` for write-free runs, like
    /// [`RunReport::io_amplification`].
    pub flash_amplification: f64,
    /// Write-amplification factor at the FTL. `NaN` when the device saw
    /// no host write bytes at all.
    pub waf: f64,
    /// Journal space overhead: stored/raw bytes (Fig. 13b).
    pub journal_space_overhead: f64,
    /// Superseded ("OLD") journal logs.
    pub superseded_logs: u64,
    /// Lifetime score: queries served per block erase, proportional to
    /// Equation (1)'s `Lifetime = PEC_max * T_op / BEC` for fixed
    /// `PEC_max` and equal work. Compare across strategies as a ratio;
    /// infinite when the run triggered no erases at all.
    pub lifetime_score: f64,
    /// Aggregated per-phase breakdown over every checkpoint in the run
    /// (sums of each checkpoint's [`CheckpointPhases`]).
    pub checkpoint_phases: CheckpointPhases,
}

impl RunReport {
    /// Lifetime of this run relative to `baseline` (Equation 1 ratio).
    /// Returns `NaN` when either run wore the flash not at all (its
    /// score is infinite) — no finite ratio exists in that case.
    pub fn lifetime_vs(&self, baseline: &RunReport) -> f64 {
        if !self.lifetime_score.is_finite() || !baseline.lifetime_score.is_finite() {
            return f64::NAN;
        }
        self.lifetime_score / baseline.lifetime_score
    }

    /// Every number of the report, each once, under a name that is the
    /// same for every run: the run, the five latency classes, the
    /// checkpoints and their phases, utilisation, amplification, and one
    /// `counter/<name>` row for every key of the counter schema.
    /// `write_query_bytes` is the `counter/engine.update_bytes` row.
    pub fn rows(&self) -> Vec<Row> {
        let (us, n) = (SimDuration::as_micros_f64, |count: u64| count as f64);
        let run = [
            ("threads", f64::from(self.threads), "count"),
            ("ops", n(self.ops), "queries"),
            ("elapsed_us", us(self.elapsed), "us"),
            ("throughput", self.throughput, "queries/s"),
        ];
        let mut rows: Vec<Row> = group("run", run).collect();
        for (class, l) in [
            ("all", &self.latency),
            ("read", &self.latency_read),
            ("write", &self.latency_write),
            ("read_cp", &self.latency_read_during_cp),
            ("write_cp", &self.latency_write_during_cp),
        ] {
            let stats = [
                ("count", n(l.count), "queries"),
                ("mean_us", us(l.mean), "us"),
                ("p50_us", us(l.p50), "us"),
                ("p99_us", us(l.p99), "us"),
                ("p999_us", us(l.p999), "us"),
                ("p9999_us", us(l.p9999), "us"),
                ("max_us", us(l.max), "us"),
            ];
            rows.extend(group(&format!("latency/{class}"), stats));
        }
        let checkpoints = [
            ("count", n(self.checkpoints), "count"),
            ("entries", n(self.checkpoint_entries), "entries"),
            ("mean_us", us(self.checkpoint_mean), "us"),
            ("max_us", us(self.checkpoint_max), "us"),
            ("remapped", n(self.remapped_entries), "entries"),
            ("copied", n(self.copied_entries), "entries"),
            ("flash_programs", n(self.checkpoint_flash_programs), "pages"),
            ("flash_reads", n(self.checkpoint_flash_reads), "pages"),
            ("redundant_units", n(self.redundant_write_units), "units"),
            ("redundant_bytes", n(self.redundant_write_bytes), "B"),
        ];
        rows.extend(group("checkpoint", checkpoints));
        let p = &self.checkpoint_phases;
        let phase_times = [
            ("drain_us", us(p.drain_time), "us"),
            ("remap_us", us(p.remap_time), "us"),
            ("copy_us", us(p.copy_time), "us"),
            ("meta_us", us(p.meta_time), "us"),
            ("trim_us", us(p.trim_time), "us"),
        ];
        rows.extend(group("cp/phase", phase_times));
        for (phase, ops) in [
            ("remap", p.remap),
            ("copy", p.copy),
            ("meta", p.meta),
            ("trim", p.trim),
            ("gc", p.gc),
            ("other", p.other),
        ] {
            let counts = [
                ("reads", n(ops.reads), "pages"),
                ("programs", n(ops.programs), "pages"),
                ("erases", n(ops.erases), "blocks"),
            ];
            rows.extend(group(&format!("cp/phase/{phase}"), counts));
        }
        let u = &self.utilization;
        let busy = [
            ("link", u.link, "fraction"),
            ("cpu", u.cpu, "fraction"),
            ("die_min", u.dies.min, "fraction"),
            ("die_mean", u.dies.mean, "fraction"),
            ("die_max", u.dies.max, "fraction"),
            ("channel_min", u.channels.min, "fraction"),
            ("channel_mean", u.channels.mean, "fraction"),
            ("channel_max", u.channels.max, "fraction"),
        ];
        rows.extend(group("util", busy));
        let host = [
            ("flash_store_bytes", n(self.flash_store_bytes), "B"),
            ("mapping_bytes", n(self.mapping_bytes), "B"),
        ];
        rows.extend(group("host", host));
        let amplification = [
            ("io", self.io_amplification, "x"),
            ("flash", self.flash_amplification, "x"),
            ("waf", self.waf, "x"),
        ];
        rows.extend(group("amp", amplification));
        let journal = [
            ("space_overhead", self.journal_space_overhead, "x"),
            ("superseded_logs", n(self.superseded_logs), "logs"),
        ];
        rows.extend(group("journal", journal));
        let lifetime = ("lifetime_score", self.lifetime_score, "score");
        rows.extend(group("wear", [lifetime]));
        let counters = self.counters.iter_all().map(|(name, count)| {
            let unit = match name {
                _ if name.ends_with("_ns") => "ns",
                _ if name.ends_with("bytes") => "B",
                _ => "count",
            };
            (name, n(count), unit)
        });
        rows.extend(group("counter", counters));
        rows
    }

    /// Column names for [`RunReport::to_csv_row`]: `strategy`, then the
    /// name of every row of [`RunReport::rows`].
    pub fn csv_header(&self) -> String {
        csv_line("strategy", self.rows().into_iter().map(|row| row.name))
    }

    /// The report as one CSV line under [`RunReport::csv_header`]. A
    /// non-finite value (the amplification of a write-free run, the
    /// lifetime of an erase-free one) is an **empty field**, so parsers
    /// never meet `inf`/`NaN` tokens.
    pub fn to_csv_row(&self) -> String {
        csv_line(
            self.strategy.label(),
            self.rows().iter().map(Row::csv_field),
        )
    }
}

/// `cells` (leaf name, value, unit) as rows named `prefix/leaf`.
fn group<'a>(
    prefix: &'a str,
    cells: impl IntoIterator<Item = (&'static str, f64, &'static str)> + 'a,
) -> impl Iterator<Item = Row> + 'a {
    let named = move |(leaf, value, unit)| Row::new(format!("{prefix}/{leaf}"), value, unit);
    cells.into_iter().map(named)
}

/// `first`, then `fields`, comma-separated.
fn csv_line(first: &str, fields: impl Iterator<Item = String>) -> String {
    let line: Vec<String> = std::iter::once(first.to_string()).chain(fields).collect();
    line.join(",")
}

/// The strategy, then one line per row in [`Row`]'s format (the line
/// `lab` prints), leaving out the counters that stayed zero.
impl std::fmt::Display for RunReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.strategy)?;
        for row in self.rows() {
            if row.value != 0.0 || !row.name.starts_with("counter/") {
                write!(f, "\n{row}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use checkin_sim::{Counter, Total};
    use checkin_workload::OpMix;

    use super::*;

    /// A 200-query run of `strategy` on `mix`.
    fn tiny_run(strategy: Strategy, mix: OpMix) -> RunReport {
        let mut config = crate::SystemConfig::for_strategy(strategy);
        config.total_queries = 200;
        config.threads = 4;
        config.workload.record_count = 100;
        config.workload.mix = mix;
        crate::KvSystem::new(config).unwrap().run().unwrap()
    }

    /// The CSV field of `report` under the column `name`.
    fn csv_field(report: &RunReport, name: &str) -> String {
        let header = report.csv_header();
        let column = header.split(',').position(|h| h == name).unwrap();
        report
            .to_csv_row()
            .split(',')
            .nth(column)
            .unwrap()
            .to_string()
    }

    #[test]
    fn latency_stats_from_recorder() {
        let mut r = LatencyRecorder::new();
        for us in 1..=100u64 {
            r.record(SimDuration::from_micros(us));
        }
        let s = LatencyStats::from_recorder(&r);
        assert_eq!(s.count, 100);
        assert!(s.p50 <= s.p99 && s.p99 <= s.p999 && s.p999 <= s.max);
        assert!(s.mean > SimDuration::ZERO);
    }

    /// Every strategy and a read-only run list the same row names in the
    /// same order, none twice, with the latencies inside a checkpoint and
    /// one `counter/` row per key of the schema among them; a value that
    /// does not exist is an empty CSV field and `n/a` on screen.
    #[test]
    fn rows_name_every_number_once() {
        let mut reports: Vec<RunReport> = (Strategy::all().into_iter())
            .map(|strategy| tiny_run(strategy, OpMix::A))
            .collect();
        reports.push(tiny_run(Strategy::CheckIn, OpMix::C));
        let names =
            |r: &RunReport| -> Vec<String> { r.rows().into_iter().map(|row| row.name).collect() };
        let first = names(&reports[0]);
        let unique: BTreeSet<&str> = first.iter().map(String::as_str).collect();
        assert_eq!(unique.len(), first.len(), "a row name repeats");
        for r in &reports {
            assert_eq!(names(r), first, "{}", r.strategy);
            let header = r.csv_header();
            assert_eq!(header.split(',').count(), r.to_csv_row().split(',').count());
        }
        for class in ["read_cp", "write_cp"] {
            for stat in ["count", "mean_us", "p999_us", "max_us"] {
                let name = format!("latency/{class}/{stat}");
                assert!(unique.contains(name.as_str()), "no row {name}");
            }
        }
        let counters = unique.iter().filter(|n| n.starts_with("counter/")).count();
        assert_eq!(counters, Counter::ALL.len() + Total::ALL.len());
        let host = first.iter().filter(|n| n.starts_with("host/"));
        assert!(host.eq(["host/flash_store_bytes", "host/mapping_bytes"].iter()));
        for r in &reports {
            // The device-sized forward and reverse arrays: 4 + 8 B a unit.
            let c = crate::SystemConfig::for_strategy(r.strategy);
            let upp = c.ftl_config().units_per_page(c.geometry.page_bytes);
            let units = c.geometry.total_pages() * u64::from(upp);
            assert!(r.mapping_bytes >= 12 * units, "{} B", r.mapping_bytes);
            let field = csv_field(r, "host/mapping_bytes");
            assert_eq!(field.parse::<f64>(), Ok(r.mapping_bytes as f64));
        }

        let read_only = &reports[reports.len() - 1];
        assert!(read_only.io_amplification.is_nan());
        assert_eq!(csv_field(read_only, "amp/io"), "");
        let row = read_only.to_csv_row();
        assert!(!row.contains("NaN") && !row.contains("inf"), "{row}");
        let text = read_only.to_string();
        let amp_io = text.lines().find(|line| line.contains("amp/io"));
        assert!(amp_io.is_some_and(|line| line.contains("n/a")), "{text}");
    }

    #[test]
    fn non_finite_metrics_serialize_safely() {
        let mut report = tiny_run(Strategy::CheckIn, OpMix::A);
        report.io_amplification = f64::NAN;
        report.flash_amplification = f64::INFINITY;
        report.waf = f64::NEG_INFINITY;
        report.lifetime_score = f64::INFINITY;

        let row = report.to_csv_row();
        assert!(!row.contains("inf"), "row leaks inf: {row}");
        assert!(!row.contains("NaN"), "row leaks NaN: {row}");
        for name in ["amp/io", "amp/flash", "amp/waf", "wear/lifetime_score"] {
            assert_eq!(
                csv_field(&report, name),
                "",
                "{name} should serialize empty"
            );
        }

        let text = report.to_string();
        assert!(text.contains("n/a"), "display should show n/a: {text}");
        assert!(!text.contains("inf"), "display leaks inf: {text}");
    }

    #[test]
    fn lifetime_vs_never_returns_inf() {
        let mut a = tiny_run(Strategy::CheckIn, OpMix::A);
        let mut b = a.clone();
        // An erase-free run has an infinite score; a ratio against a
        // worn run must not leak that infinity.
        a.lifetime_score = f64::INFINITY;
        b.lifetime_score = 2.0;
        assert!(a.lifetime_vs(&b).is_nan());
        assert!(b.lifetime_vs(&a).is_nan());
        assert!(a.lifetime_vs(&a).is_nan());
        b.lifetime_score = 4.0;
        let mut c = b.clone();
        c.lifetime_score = 2.0;
        assert!((b.lifetime_vs(&c) - 2.0).abs() < 1e-12);
    }
}
