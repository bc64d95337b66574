//! Run reports: every quantity the paper's tables and figures need.

use checkin_sim::{LatencyRecorder, SimDuration};

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

impl std::fmt::Display for LatencyStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "n={} mean={} p50={} p99={} p99.9={} p99.99={} max={}",
            self.count, self.mean, self.p50, self.p99, self.p999, self.p9999, self.max
        )
    }
}

/// Flash-level accounting for the measured phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FlashStats {
    /// Page reads.
    pub reads: u64,
    /// Page programs.
    pub programs: u64,
    /// Of those, pages that rode another plane's tPROG on their die.
    pub multiplane_programs: u64,
    /// Foreground page reads (`flash.read.run`): the senses a host waits
    /// on.
    pub run_reads: u64,
    /// Their total wait for the die, from issue to the start of the
    /// sense, in nanoseconds.
    pub read_die_wait_ns: u64,
    /// Programs a foreground read suspended.
    pub program_suspends: u64,
    /// Foreground reads sensed ahead of a program not yet started.
    pub read_overtakes: u64,
    /// Foreground unit reads of a page still programming, served from
    /// the write buffer with no sense.
    pub programming_page_reads: u64,
    /// Block erases.
    pub erases: u64,
    /// GC invocations.
    pub gc_invocations: u64,
    /// Units relocated by GC.
    pub gc_units_moved: u64,
    /// Invalid (stale) units generated.
    pub invalid_units: u64,
    /// Transient media failures injected by the fault plan.
    pub transient_faults: u64,
    /// Firmware retries spent absorbing transient failures.
    pub media_retries: u64,
    /// Blocks that developed a permanent (grown) defect.
    pub grown_bad_blocks: u64,
    /// Blocks retired (taken out of service) by the FTL.
    pub blocks_retired: u64,
    /// Reads that exhausted their per-class media retry budget.
    pub retry_exhausted_read: u64,
    /// Programs that exhausted their per-class media retry budget.
    pub retry_exhausted_program: u64,
    /// Erases that exhausted their per-class media retry budget.
    pub retry_exhausted_erase: u64,
    /// Corrupt data units detected by checksum verification (foreground
    /// reads, GC relocation, scrubbing, recovery scans).
    pub integrity_detected: u64,
    /// Detected-corrupt units whose data was healed by a fresh host
    /// write before the damage could spread.
    pub integrity_corrected: u64,
    /// Detected-corrupt units quarantined (reads fail typed, never
    /// serve rotted bytes).
    pub integrity_quarantined: u64,
    /// Referenced corrupt units destroyed (GC / block retirement) with
    /// no surviving copy — the affected lpns are poisoned.
    pub integrity_unrecoverable: u64,
    /// Pages patrol-read by the background scrubber.
    pub scrub_pages: u64,
    /// Unit writes that waited for a programming slot of the write
    /// buffer: every write point had a page programming.
    pub buffer_slot_waits: u64,
    /// Their total wait for a slot, in nanoseconds.
    pub buffer_slot_wait_ns: u64,
    /// Blocks a write point opened on another write point's plane, its
    /// own having no free block.
    pub off_plane_opens: u64,
    /// Mapping entries the device's commands walked.
    pub map_units: u64,
    /// Distinct mapping segments those walks were charged a cache miss
    /// for, summed over commands.
    pub map_segments: u64,
}

impl FlashStats {
    /// Total flash operations.
    pub fn total_ops(&self) -> u64 {
        self.reads + self.programs + self.erases
    }

    /// Mean wait of a foreground sense for its die (zero without one).
    pub fn mean_read_die_wait(&self) -> SimDuration {
        SimDuration::from_nanos(
            self.read_die_wait_ns
                .checked_div(self.run_reads)
                .unwrap_or(0),
        )
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

impl std::fmt::Display for UtilizationSpread {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.3} / {:.3} / {:.3}", self.min, self.mean, self.max)
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
    /// Flash accounting over the measured phase.
    pub flash: FlashStats,
    /// Link, firmware-CPU, die and channel utilisation over the measured
    /// phase.
    pub utilization: DeviceUtilization,
    /// Host bytes the flash page store holds at the end of the run
    /// ([`checkin_flash::FlashArray::store_bytes`]): memory as a
    /// deterministic count, not a host measurement.
    pub flash_store_bytes: u64,
    /// Raw bytes carried by write queries.
    pub write_query_bytes: u64,
    /// Total host-interface bytes moved (journals + checkpoints + meta).
    pub host_io_bytes: u64,
    /// Host I/O amplification: `host_io_bytes / write_query_bytes`
    /// (Fig. 3a's I/O row). `NaN` for write-free runs — a read-only
    /// workload has no write bytes to amplify, so no ratio exists.
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

    /// Column names for [`RunReport::to_csv_row`].
    pub fn csv_header() -> &'static str {
        "strategy,threads,ops,elapsed_us,throughput,mean_us,p50_us,p99_us,p999_us,p9999_us,\
         checkpoints,cp_mean_us,cp_entries,remapped,copied,redundant_bytes,\
         flash_reads,flash_programs,flash_erases,gc,invalid_units,\
         media_retries,blocks_retired,\
         retry_exhausted_read,retry_exhausted_program,retry_exhausted_erase,\
         integrity_detected,integrity_corrected,integrity_quarantined,\
         integrity_unrecoverable,scrub_pages,\
         io_amp,flash_amp,waf,space_overhead,lifetime,\
         cp_drain_us,cp_remap_us,cp_copy_us,cp_meta_us,cp_trim_us,\
         cp_copy_programs,cp_gc_programs"
    }

    /// Serialises the report as one CSV row matching
    /// [`RunReport::csv_header`] (machine-readable sweeps). Non-finite
    /// ratio metrics (e.g. amplification of a write-free run, lifetime
    /// of an erase-free run) serialise as an **empty field** so
    /// downstream parsers never see `inf`/`NaN` tokens.
    pub fn to_csv_row(&self) -> String {
        format!(
            "{},{},{},{:.0},{:.1},{:.1},{:.1},{:.1},{:.1},{:.1},{},{:.1},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{:.1},{:.1},{:.1},{:.1},{:.1},{},{}",
            self.strategy.label(),
            self.threads,
            self.ops,
            self.elapsed.as_micros_f64(),
            self.throughput,
            self.latency.mean.as_micros_f64(),
            self.latency.p50.as_micros_f64(),
            self.latency.p99.as_micros_f64(),
            self.latency.p999.as_micros_f64(),
            self.latency.p9999.as_micros_f64(),
            self.checkpoints,
            self.checkpoint_mean.as_micros_f64(),
            self.checkpoint_entries,
            self.remapped_entries,
            self.copied_entries,
            self.redundant_write_bytes,
            self.flash.reads,
            self.flash.programs,
            self.flash.erases,
            self.flash.gc_invocations,
            self.flash.invalid_units,
            self.flash.media_retries,
            self.flash.blocks_retired,
            self.flash.retry_exhausted_read,
            self.flash.retry_exhausted_program,
            self.flash.retry_exhausted_erase,
            self.flash.integrity_detected,
            self.flash.integrity_corrected,
            self.flash.integrity_quarantined,
            self.flash.integrity_unrecoverable,
            self.flash.scrub_pages,
            csv_metric(self.io_amplification),
            csv_metric(self.flash_amplification),
            csv_metric(self.waf),
            csv_metric(self.journal_space_overhead),
            csv_metric(self.lifetime_score),
            self.checkpoint_phases.drain_time.as_micros_f64(),
            self.checkpoint_phases.remap_time.as_micros_f64(),
            self.checkpoint_phases.copy_time.as_micros_f64(),
            self.checkpoint_phases.meta_time.as_micros_f64(),
            self.checkpoint_phases.trim_time.as_micros_f64(),
            self.checkpoint_phases.copy.programs,
            self.checkpoint_phases.gc.programs,
        )
    }
}

/// Formats a ratio metric for CSV: fixed precision when finite, an
/// empty field otherwise (never `inf`/`NaN` tokens).
fn csv_metric(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.4}")
    } else {
        String::new()
    }
}

/// Formats a ratio metric for human-readable output: `n/a` when no
/// finite value exists (write-free or erase-free runs).
fn display_metric(v: f64, precision: usize) -> String {
    if v.is_finite() {
        format!("{v:.precision$}")
    } else {
        "n/a".to_string()
    }
}

impl std::fmt::Display for RunReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "{} [{} threads] {:.0} ops/s over {}",
            self.strategy, self.threads, self.throughput, self.elapsed
        )?;
        writeln!(f, "  latency       {}", self.latency)?;
        writeln!(f, "  reads         {}", self.latency_read)?;
        writeln!(f, "  writes        {}", self.latency_write)?;
        writeln!(
            f,
            "  checkpoints   {} (mean {}, max {}), remap {}, copy {}",
            self.checkpoints,
            self.checkpoint_mean,
            self.checkpoint_max,
            self.remapped_entries,
            self.copied_entries
        )?;
        writeln!(
            f,
            "  flash         r {} / p {} / e {} (cp programs {}, multi-plane {}), gc {}, waf {}; \
             foreground die wait {} mean (suspends {}, overtakes {}, own-page reads {})",
            self.flash.reads,
            self.flash.programs,
            self.flash.erases,
            self.checkpoint_flash_programs,
            self.flash.multiplane_programs,
            self.flash.gc_invocations,
            display_metric(self.waf, 2),
            self.flash.mean_read_die_wait(),
            self.flash.program_suspends,
            self.flash.read_overtakes,
            self.flash.programming_page_reads
        )?;
        let u = &self.utilization;
        writeln!(
            f,
            "  utilisation   link {:.3}, fw-cpu {:.3} (map walks {} units in {} segments), \
             dies {}, channels {} (min / mean / max)",
            u.link, u.cpu, self.flash.map_units, self.flash.map_segments, u.dies, u.channels
        )?;
        if self.checkpoints > 0 {
            let p = &self.checkpoint_phases;
            writeln!(
                f,
                "  cp phases     drain {} remap {} copy {} meta {} trim {}; programs copy {} / meta {} / gc {}",
                p.drain_time, p.remap_time, p.copy_time, p.meta_time, p.trim_time,
                p.copy.programs, p.meta.programs, p.gc.programs
            )?;
        }
        if self.flash.transient_faults + self.flash.grown_bad_blocks + self.flash.blocks_retired > 0
        {
            writeln!(
                f,
                "  resilience    transient {} (retries {}), grown bad {}, retired {}",
                self.flash.transient_faults,
                self.flash.media_retries,
                self.flash.grown_bad_blocks,
                self.flash.blocks_retired
            )?;
        }
        if self.flash.integrity_detected + self.flash.scrub_pages > 0 {
            writeln!(
                f,
                "  integrity     detected {} (quarantined {}, corrected {}, unrecoverable {}), scrubbed {} pages",
                self.flash.integrity_detected,
                self.flash.integrity_quarantined,
                self.flash.integrity_corrected,
                self.flash.integrity_unrecoverable,
                self.flash.scrub_pages
            )?;
        }
        if self.flash.retry_exhausted_read
            + self.flash.retry_exhausted_program
            + self.flash.retry_exhausted_erase
            > 0
        {
            writeln!(
                f,
                "  retry budget  exhausted r {} / p {} / e {}",
                self.flash.retry_exhausted_read,
                self.flash.retry_exhausted_program,
                self.flash.retry_exhausted_erase
            )?;
        }
        write!(
            f,
            "  amplification io {}x flash {}x, space {}x, lifetime score {}",
            display_metric(self.io_amplification, 2),
            display_metric(self.flash_amplification, 2),
            display_metric(self.journal_space_overhead, 2),
            display_metric(self.lifetime_score, 3)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn flash_stats_total() {
        let fstat = FlashStats {
            reads: 1,
            programs: 2,
            erases: 3,
            ..FlashStats::default()
        };
        assert_eq!(fstat.total_ops(), 6);
    }

    #[test]
    fn csv_header_and_row_have_matching_arity() {
        let header_cols = RunReport::csv_header().split(',').count();
        // Build a report through a tiny real run to avoid a fake literal.
        let mut config = crate::SystemConfig::for_strategy(crate::Strategy::CheckIn);
        config.total_queries = 200;
        config.threads = 4;
        config.workload.record_count = 100;
        let report = crate::KvSystem::new(config).unwrap().run().unwrap();
        let row_cols = report.to_csv_row().split(',').count();
        assert_eq!(header_cols, row_cols);
        assert!(report.to_csv_row().starts_with("Check-In,4,200,"));
    }

    #[test]
    fn non_finite_metrics_serialize_safely() {
        let mut config = crate::SystemConfig::for_strategy(crate::Strategy::CheckIn);
        config.total_queries = 200;
        config.threads = 4;
        config.workload.record_count = 100;
        let mut report = crate::KvSystem::new(config).unwrap().run().unwrap();
        report.io_amplification = f64::NAN;
        report.flash_amplification = f64::INFINITY;
        report.waf = f64::NEG_INFINITY;
        report.lifetime_score = f64::INFINITY;

        let row = report.to_csv_row();
        assert!(!row.contains("inf"), "row leaks inf: {row}");
        assert!(!row.contains("NaN"), "row leaks NaN: {row}");
        // Non-finite fields are empty, and the arity still matches.
        assert_eq!(
            row.split(',').count(),
            RunReport::csv_header().split(',').count()
        );
        let cols: Vec<&str> = row.split(',').collect();
        let header: Vec<&str> = RunReport::csv_header().split(',').collect();
        for name in ["io_amp", "flash_amp", "waf", "lifetime"] {
            let idx = header.iter().position(|h| h.trim() == name).unwrap();
            assert_eq!(cols[idx], "", "{name} should serialize empty");
        }

        let text = report.to_string();
        assert!(text.contains("n/a"), "display should show n/a: {text}");
        assert!(!text.contains("inf"), "display leaks inf: {text}");
    }

    #[test]
    fn lifetime_vs_never_returns_inf() {
        let mut config = crate::SystemConfig::for_strategy(crate::Strategy::CheckIn);
        config.total_queries = 200;
        config.threads = 4;
        config.workload.record_count = 100;
        let mut a = crate::KvSystem::new(config).unwrap().run().unwrap();
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

    #[test]
    fn display_contains_key_fields() {
        let mut r = LatencyRecorder::new();
        r.record(SimDuration::from_micros(5));
        let s = LatencyStats::from_recorder(&r);
        let text = s.to_string();
        assert!(text.contains("p99.9"));
    }
}
