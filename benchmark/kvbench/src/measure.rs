//! The measurement protocol shared by every workload: one repetition is
//! a fresh `KvSystem` timed through `run()`, beside a twin system whose
//! record load is timed alone and whose post-load totals are the exact
//! baseline subtracted to get run-phase counts.

use std::collections::BTreeMap;
use std::time::Instant;

use checkin_core::{KvSystem, LatencyStats, RunReport, SystemConfig};
use checkin_flash::{FaultConfig, FaultPlan};
use checkin_sim::{SimDuration, SimTime, Tracer};

use crate::doc::Metrics;

/// Totals of every public counter and busy time of one system.
struct Totals {
    counters: BTreeMap<&'static str, u64>,
    link_busy: SimDuration,
    cpu_busy: SimDuration,
    die_busy: SimDuration,
}

impl Totals {
    fn of(system: &KvSystem) -> Totals {
        let ssd = system.ssd();
        let sets = [
            system.engine().counters(),
            ssd.counters(),
            ssd.ftl().counters(),
            ssd.ftl().flash().counters(),
        ];
        Totals {
            counters: sets.iter().flat_map(|set| set.iter()).collect(),
            link_busy: ssd.link_busy_time(),
            cpu_busy: ssd.cpu_busy_time(),
            die_busy: ssd.ftl().flash().die_busy_time(),
        }
    }
}

/// Run-phase work of one repetition: post-run totals minus the twin's
/// post-load totals. Deterministic, so equal across repetitions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Counts {
    counters: BTreeMap<&'static str, u64>,
    pub link_busy: SimDuration,
    pub cpu_busy: SimDuration,
    pub die_busy: SimDuration,
}

impl Counts {
    fn between(after: &Totals, before: &Totals) -> Counts {
        let counters = after
            .counters
            .iter()
            .map(|(&name, &v)| (name, v - before.counters.get(name).copied().unwrap_or(0)))
            .collect();
        Counts {
            counters,
            link_busy: after.link_busy.saturating_sub(before.link_busy),
            cpu_busy: after.cpu_busy.saturating_sub(before.cpu_busy),
            die_busy: after.die_busy.saturating_sub(before.die_busy),
        }
    }

    pub fn get(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counters.iter().map(|(&k, &v)| (k, v))
    }
}

/// Everything one repetition measured.
pub struct Repetition {
    /// Wall time of the twin's `KvSystem::new` plus its record load.
    pub setup_ns: u64,
    /// Wall time of the twin's `KvEngine::load` alone.
    pub load_ns: u64,
    /// Wall time of `KvSystem::run` (which loads, then runs).
    pub run_ns: u64,
    pub report: RunReport,
    pub counts: Counts,
    pub max_erase_count: u64,
    pub mean_erase_count: f64,
}

impl Repetition {
    /// `(run − twin load) ÷ queries`, in nanoseconds.
    pub fn host_ns_per_query(&self) -> f64 {
        (self.run_ns as f64 - self.load_ns as f64) / self.report.ops as f64
    }

    /// What must repeat bit for bit: the whole report (timeline too)
    /// and every run-phase count. Compared as text because a report
    /// holding NaN ratios is not equal to itself.
    pub fn sim_fingerprint(&self) -> String {
        format!(
            "{:?} {:?} {} {}",
            self.report, self.counts, self.max_erase_count, self.mean_erase_count
        )
    }
}

fn arm(system: &mut KvSystem) {
    let (_, ssd) = system.verify_parts();
    ssd.ftl_mut()
        .flash_mut()
        .arm_faults(FaultPlan::new(FaultConfig::default()));
}

/// The records `KvSystem::run` loads: sizes depend on the key alone.
pub fn load_records(config: &SystemConfig) -> Vec<(u64, u32)> {
    let sizes = config.workload.generator();
    (0..config.workload.record_count)
        .map(|k| (k, sizes.load_size(k)))
        .collect()
}

/// Hands the allocator's freed memory back to the kernel, so that what
/// follows pays for its pages as a fresh process would. Without this a
/// process settles, at random, into one of two states — freed memory
/// kept or returned — that differ by 20 ms in `setup_s` and 46 MiB in
/// peak memory on the paper device, whatever the seed.
fn return_freed_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: `malloc_trim` takes no pointer and has no precondition;
        // it releases free heap pages and leaves every live allocation
        // where it is.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// Builds and loads a twin of `config`'s system, timing both steps, from
/// the memory state of a fresh process. Returns
/// `(setup_ns, load_ns, system)`.
pub fn set_up(config: &SystemConfig, armed: bool) -> Result<(u64, u64, KvSystem), String> {
    let records = load_records(config);
    return_freed_memory();
    let built = Instant::now();
    let mut twin = KvSystem::new(config.clone())?;
    let new_ns = built.elapsed().as_nanos() as u64;
    if armed {
        arm(&mut twin);
    }
    let loading = Instant::now();
    let (engine, ssd) = twin.verify_parts();
    engine
        .load(ssd, &records, SimTime::ZERO)
        .map_err(|e| format!("twin load: {e}"))?;
    let load_ns = loading.elapsed().as_nanos() as u64;
    Ok((new_ns + load_ns, load_ns, twin))
}

/// One repetition. The twin is dropped before the measured system is
/// built, so peak memory is one system's. Returns the system too, for
/// the output check or the power cut that follows.
pub fn repetition(
    config: &SystemConfig,
    armed: bool,
    tracer: Option<Tracer>,
) -> Result<(Repetition, KvSystem), String> {
    let (setup_ns, load_ns, twin) = set_up(config, armed)?;
    let baseline = Totals::of(&twin);
    drop(twin);

    let mut system = KvSystem::new(config.clone())?;
    if armed {
        arm(&mut system);
    }
    if let Some(tracer) = tracer {
        system.set_tracer(tracer);
    }
    let running = Instant::now();
    let report = system.run().map_err(|e| format!("run: {e}"))?;
    let run_ns = running.elapsed().as_nanos() as u64;

    let flash = system.ssd().ftl().flash();
    let rep = Repetition {
        setup_ns,
        load_ns,
        run_ns,
        counts: Counts::between(&Totals::of(&system), &baseline),
        max_erase_count: flash.max_erase_count(),
        mean_erase_count: flash.mean_erase_count(),
        report,
    };
    Ok((rep, system))
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

fn per(count: u64, queries: u64, scale: f64) -> f64 {
    count as f64 / queries as f64 * scale
}

/// `value` where it exists, NaN (so: left out) where it does not.
fn when(exists: bool, value: f64) -> f64 {
    if exists {
        value
    } else {
        f64::NAN
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        f64::NAN
    }
}

/// Simulated end-to-end metrics of one repetition. A latency of an
/// operation the workload never issues is NaN here and so left out.
pub fn sim_end_to_end(rep: &Repetition) -> Metrics {
    let r = &rep.report;
    let us = |stats: &LatencyStats, pick: fn(&LatencyStats) -> SimDuration| {
        when(stats.count > 0, pick(stats).as_micros_f64())
    };
    let mut m = Metrics::default();
    for (name, value) in [
        ("sim_throughput_qps", r.throughput),
        ("sim_read_p50_us", us(&r.latency_read, |s| s.p50)),
        ("sim_read_p999_us", us(&r.latency_read, |s| s.p999)),
        ("sim_write_p50_us", us(&r.latency_write, |s| s.p50)),
        ("sim_write_p999_us", us(&r.latency_write, |s| s.p999)),
        (
            "sim_cp_mean_ms",
            when(r.checkpoints > 0, r.checkpoint_mean.as_millis_f64()),
        ),
        (
            "sim_flash_programs_per_kq",
            per(rep.counts.get("flash.program"), r.ops, 1e3),
        ),
        (
            "sim_flash_erases_per_mq",
            per(rep.counts.get("flash.erase"), r.ops, 1e6),
        ),
    ] {
        m.end_to_end(name, &[value]);
    }
    m
}

/// Counts-based (T1) per-layer metrics of one repetition.
pub fn layer_counts(rep: &Repetition, config: &SystemConfig) -> Metrics {
    let r = &rep.report;
    let c = &rep.counts;
    let q = r.ops;
    let cps = r.checkpoints as f64;
    let elapsed = r.elapsed.as_nanos() as f64;
    let mean_ratio = |during: &LatencyStats, overall: &LatencyStats| {
        when(
            during.count > 0,
            ratio(
                during.mean.as_nanos() as f64,
                overall.mean.as_nanos() as f64,
            ),
        )
    };
    let mut m = Metrics::default();

    m.count(
        "system.read_cp_slowdown_x",
        mean_ratio(&r.latency_read_during_cp, &r.latency_read),
    );
    m.count(
        "system.write_cp_slowdown_x",
        mean_ratio(&r.latency_write_during_cp, &r.latency_write),
    );
    m.count(
        "system.cp_time_share",
        ratio(r.checkpoint_mean.as_nanos() as f64 * cps, elapsed),
    );

    m.count("engine.reads_per_q", per(c.get("engine.reads"), q, 1.0));
    m.count("engine.updates_per_q", per(c.get("engine.updates"), q, 1.0));
    m.count("engine.checkpoints", cps);

    m.count(
        "journal.stored_per_raw",
        when(c.get("engine.updates") > 0, r.journal_space_overhead),
    );
    m.count("journal.superseded_per_kq", per(r.superseded_logs, q, 1e3));

    m.count(
        "checkpoint.entries_per_cp",
        ratio(r.checkpoint_entries as f64, cps),
    );
    m.count(
        "checkpoint.remapped_share",
        ratio(
            r.remapped_entries as f64,
            (r.remapped_entries + r.copied_entries) as f64,
        ),
    );
    m.count(
        "checkpoint.redundant_bytes_per_write_byte",
        ratio(r.redundant_write_bytes as f64, r.write_query_bytes as f64),
    );
    m.count(
        "checkpoint.flash_programs_per_cp",
        ratio(r.checkpoint_flash_programs as f64, cps),
    );
    m.count(
        "checkpoint.flash_reads_per_cp",
        ratio(r.checkpoint_flash_reads as f64, cps),
    );
    let p = &r.checkpoint_phases;
    for (name, total) in [
        ("checkpoint.drain_ms", p.drain_time),
        ("checkpoint.remap_ms", p.remap_time),
        ("checkpoint.copy_ms", p.copy_time),
        ("checkpoint.meta_ms", p.meta_time),
        ("checkpoint.trim_ms", p.trim_time),
    ] {
        m.sim(name, ratio(total.as_millis_f64(), cps));
    }

    m.count("ssd.cmd_read_per_q", per(c.get("ssd.cmd_read"), q, 1.0));
    m.count("ssd.cmd_write_per_q", per(c.get("ssd.cmd_write"), q, 1.0));
    m.count("ssd.cmd_checkpoint", c.get("ssd.cmd_checkpoint") as f64);
    m.count("ssd.cmd_cow", c.get("ssd.cmd_cow") as f64);
    m.count(
        "ssd.cmd_dealloc_per_kq",
        per(c.get("ssd.cmd_dealloc"), q, 1e3),
    );
    m.count(
        "ssd.host_read_bytes_per_q",
        per(c.get("ssd.host_read_bytes"), q, 1.0),
    );
    m.count(
        "ssd.host_write_bytes_per_q",
        per(c.get("ssd.host_write_bytes"), q, 1.0),
    );
    m.count(
        "ssd.meta_writes_per_cp",
        ratio(c.get("ssd.meta_writes") as f64, cps),
    );
    m.count(
        "ssd.background_gc_rounds",
        c.get("ssd.background_gc_rounds") as f64,
    );
    m.count(
        "ssd.background_scrub_rounds",
        c.get("ssd.background_scrub_rounds") as f64,
    );
    m.count(
        "ssd.link_util",
        ratio(c.link_busy.as_nanos() as f64, elapsed),
    );
    m.count("ssd.cpu_util", ratio(c.cpu_busy.as_nanos() as f64, elapsed));

    m.count(
        "ftl.host_unit_reads_per_q",
        per(c.get("ftl.host_unit_reads"), q, 1.0),
    );
    m.count(
        "ftl.host_unit_writes_per_q",
        per(c.get("ftl.host_unit_writes"), q, 1.0),
    );
    for (name, counter, scale) in [
        ("ftl.rmw_reads_per_kq", "ftl.rmw_reads", 1e3),
        ("ftl.remap_ops_per_kq", "ftl.remap_ops", 1e3),
        ("ftl.deallocations_per_kq", "ftl.deallocations", 1e3),
        ("ftl.pages_programmed_per_kq", "ftl.pages_programmed", 1e3),
        ("ftl.gc_invocations_per_mq", "ftl.gc_invocations", 1e6),
        ("ftl.gc_units_moved_per_kq", "ftl.gc_units_moved", 1e3),
        ("ftl.invalid_units_per_kq", "ftl.invalid_units", 1e3),
        ("ftl.scrub_pages_per_kq", "ftl.scrub_pages", 1e3),
    ] {
        m.count(name, per(c.get(counter), q, scale));
    }
    // Wasted work: of the units a victim block can hold, the share GC
    // still had to move because they were valid.
    let units_per_block = config.geometry.pages_per_block as f64
        * (config.geometry.page_bytes / config.effective_unit_bytes()) as f64;
    m.count(
        "ftl.gc_victim_valid_share",
        ratio(
            c.get("ftl.gc_units_moved") as f64,
            c.get("ftl.gc_invocations") as f64 * units_per_block,
        ),
    );
    m.count("ftl.waf", r.waf);
    for counter in [
        "ftl.wear_level_rounds",
        "ftl.media_retries",
        "ftl.integrity_detected",
        "ftl.mapping_log_persists",
        "flash.transient_faults",
    ] {
        m.count(counter, c.get(counter) as f64);
    }

    m.count("flash.read_per_kq", per(c.get("flash.read"), q, 1e3));
    m.count("flash.program_per_kq", per(c.get("flash.program"), q, 1e3));
    m.count("flash.erase_per_mq", per(c.get("flash.erase"), q, 1e6));
    m.count(
        "flash.die_util",
        ratio(
            c.die_busy.as_nanos() as f64,
            elapsed * config.geometry.total_dies() as f64,
        ),
    );
    m.count("flash.max_erase_count", rep.max_erase_count as f64);
    m.count("flash.mean_erase_count", rep.mean_erase_count);
    m
}
