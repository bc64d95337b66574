//! What one `--workload` invocation does with tracing off: warm up,
//! repeat, check the outputs, and turn the repetitions into metrics.

use std::time::Instant;

use checkin_core::{KvEngine, KvSystem, SystemConfig};
use checkin_sim::SimDuration;

use crate::doc::Metrics;
use crate::json::Value;
use crate::measure::{self, Repetition};
use crate::stats;
use crate::workloads::{Workload, CLIENTS, QUERIES};

/// Timed repetitions of a throughput workload.
pub const REPETITIONS: usize = 5;
/// Under `--seconds S` — the form the reader of `BENCHMARK.json` runs —
/// repetitions stop once S seconds are measured, but not before this many.
pub const MIN_REPETITIONS: usize = 3;
/// Set-ups timed per repetition: this many less one alone, spread through
/// the run ahead of each repetition, then the repetition's own.
pub const SETUPS_PER_REPETITION: usize = 3;

/// Operations attempted and failed, with what failed.
#[derive(Debug, Default)]
pub struct Check {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Check {
    fn expect(&mut self, ok: bool, note: impl FnOnce() -> String) {
        if !ok {
            self.failed += 1;
            if self.notes.len() < 20 {
                self.notes.push(note());
            }
        }
    }

    pub fn fail(&mut self, note: String) {
        self.expect(false, || note);
    }

    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    pub fn to_json(&self) -> Value {
        let mut v = Value::obj();
        v.set("ops_attempted", Value::Int(self.attempted));
        v.set("ops_failed", Value::Int(self.failed));
        v.set(
            "notes",
            Value::Arr(self.notes.iter().map(|n| Value::str(n)).collect()),
        );
        v
    }
}

/// One invocation's result, tracing off.
pub struct Outcome {
    pub end_to_end: Metrics,
    pub per_layer: Metrics,
    /// Raw run-phase counter deltas (T1), exact.
    pub counts: Value,
    pub check: Check,
    pub protocol: Value,
}

fn protocol_json(w: &Workload, queries: Value, timed: usize, unit: &str) -> Value {
    let mut p = Value::obj();
    p.set("loop", Value::str("closed"));
    p.set("simulated_clients", Value::Int(CLIENTS as u64));
    p.set("admission_batch", Value::Int(1));
    p.set("host_threads", Value::Int(1));
    p.set("queries_per_repetition", queries);
    p.set("warmup_repetitions", Value::Int(1));
    p.set("timed_repetitions", Value::Int(timed as u64));
    p.set("repetition_is", Value::str(unit));
    p.set(
        "setup_samples",
        Value::Int((timed * SETUPS_PER_REPETITION) as u64),
    );
    p.set("faults_armed", Value::Bool(w.crash));
    p
}

pub fn counts_json(rep: &Repetition) -> Value {
    let mut v = Value::obj();
    for (name, n) in rep.counts.iter() {
        v.set(name, Value::Int(n));
    }
    for (name, busy) in [
        ("busy.link_ns", rep.counts.link_busy),
        ("busy.cpu_ns", rep.counts.cpu_busy),
        ("busy.die_ns", rep.counts.die_busy),
    ] {
        v.set(name, Value::Int(busy.as_nanos()));
    }
    v.set("sim.elapsed_ns", Value::Int(rep.report.elapsed.as_nanos()));
    v.set("sim.queries", Value::Int(rep.report.ops));
    v
}

/// `(set-up, load)` wall times in nanoseconds of every timed set-up.
type SetUps = Vec<(u64, u64)>;

/// Times the set-ups alone that go ahead of one repetition. Each twin is
/// dropped before the next is built, and all before the measured system,
/// so peak memory stays one system's.
fn set_ups_alone(config: &SystemConfig, armed: bool, setups: &mut SetUps) -> Result<(), String> {
    for _ in 1..SETUPS_PER_REPETITION {
        let (setup_ns, load_ns, _twin) = measure::set_up(config, armed)?;
        setups.push((setup_ns, load_ns));
    }
    Ok(())
}

/// Host-clock metrics common to every workload. `host_ns_per_query` is
/// the median of the repetitions. `setup_s` is the *least* of the set-ups:
/// the one host time the reader of `BENCHMARK.json` gates, and medians of
/// 50 ms intervals follow the machine's neighbours (see the README).
fn host_metrics(
    end_to_end: &mut Metrics,
    per_layer: &mut Metrics,
    reps: &[Repetition],
    setups: &SetUps,
    records: u64,
) {
    let ns_per_query: Vec<f64> = reps.iter().map(Repetition::host_ns_per_query).collect();
    let (seconds, loads): (Vec<f64>, Vec<f64>) = setups
        .iter()
        .map(|&(setup_ns, load_ns)| (setup_ns as f64 / 1e9, load_ns as f64 / records as f64))
        .unzip();
    end_to_end.end_to_end("host_ns_per_query", &ns_per_query);
    end_to_end.host_least("setup_s", &seconds);
    if let Some(mib) = measure::peak_rss_mib() {
        end_to_end.end_to_end("host_peak_rss_mb", &[mib]);
    }
    per_layer.host("engine.load_ns_per_record", &loads);
}

/// Reads every key back through the engine and holds the run to its
/// conservation laws. `attempted` = queries + keys verified.
fn check_outputs(system: &mut KvSystem, rep: &Repetition, queries: u64) -> Check {
    let mut check = Check {
        attempted: queries,
        ..Check::default()
    };
    let c = &rep.counts;
    let (reads, writes) = (c.get("engine.reads"), c.get("engine.updates"));
    check.expect(rep.report.ops == queries, || {
        format!("completed {} of {queries} queries", rep.report.ops)
    });
    check.expect(reads + writes == queries, || {
        format!("reads {reads} + writes {writes} != queries {queries}")
    });
    for counter in [
        "ftl.integrity_detected",
        "flash.transient_faults",
        "ftl.media_retries",
    ] {
        check.expect(c.get(counter) == 0, || {
            format!("{counter} = {} on a fault-free run", c.get(counter))
        });
    }
    if let Err(e) = system.ssd().ftl().check_invariants() {
        check.fail(format!("FTL invariants: {e}"));
    }

    let keys = system.config().workload.record_count;
    let mut t = system.ssd().idle_at() + SimDuration::from_secs(1);
    let mut updates_seen = 0u64;
    let (engine, ssd) = system.verify_parts();
    for key in 0..keys {
        check.attempted += 1;
        let expected = engine.version_of(key);
        updates_seen += expected.unwrap_or(1) - 1;
        match engine.get(ssd, key, t) {
            Ok(read) => {
                t = read.finish;
                check.expect(Some(read.version) == expected, || {
                    format!(
                        "key {key}: read v{} but committed {expected:?}",
                        read.version
                    )
                });
            }
            Err(e) => check.fail(format!("key {key}: {e}")),
        }
    }
    check.expect(updates_seen == writes, || {
        format!("versions account for {updates_seen} writes, engine counted {writes}")
    });
    check
}

/// The four throughput workloads. `seconds`: see [`MIN_REPETITIONS`].
pub fn throughput(w: &Workload, seed: u64, seconds: Option<f64>) -> Result<Outcome, String> {
    let config = w.config(seed, QUERIES);
    // Untimed warm-up on a tenth of the queries. Every repetition starts
    // from returned memory (see `measure::set_up`), so none is slower for
    // being first; this only loads the code and wakes the clock.
    measure::repetition(&w.config(seed, QUERIES / 10), false, None)?;

    let mut reps: Vec<Repetition> = Vec::new();
    let mut setups = SetUps::new();
    let mut fingerprint: Option<String> = None;
    let measuring = Instant::now();
    let mut last_system = loop {
        set_ups_alone(&config, false, &mut setups)?;
        let (rep, system) = measure::repetition(&config, false, None)?;
        setups.push((rep.setup_ns, rep.load_ns));
        // The simulator is deterministic: same configuration, same
        // simulated result, bit for bit. Anything else is a bug.
        let this = rep.sim_fingerprint();
        if *fingerprint.get_or_insert_with(|| this.clone()) != this {
            return Err(format!(
                "{}: repetition {} differs from the first in simulated metrics or counts",
                w.name,
                reps.len() + 1
            ));
        }
        reps.push(rep);
        let enough = match seconds {
            Some(s) => reps.len() >= MIN_REPETITIONS && measuring.elapsed().as_secs_f64() >= s,
            None => reps.len() == REPETITIONS,
        };
        if enough {
            break system;
        }
    };
    let last = &reps[reps.len() - 1];
    let check = check_outputs(&mut last_system, last, QUERIES);
    drop(last_system);

    let mut end_to_end = measure::sim_end_to_end(last);
    let mut per_layer = measure::layer_counts(last, &config);
    host_metrics(
        &mut end_to_end,
        &mut per_layer,
        &reps,
        &setups,
        config.workload.record_count,
    );
    end_to_end.end_to_end("failed_share", &[check.failed_share()]);

    Ok(Outcome {
        end_to_end,
        per_layer,
        counts: counts_json(last),
        protocol: protocol_json(
            w,
            Value::Int(QUERIES),
            reps.len(),
            "one fresh system, 3 M queries",
        ),
        check,
    })
}

/// What one power cut and recovery cost.
struct Recovery {
    spor_ms: f64,
    engine_ms: f64,
    sim_ms: f64,
    device_reads: u64,
    replayed: u64,
    oob_replayed: u64,
    snapshot_resolved: u64,
}

/// Cuts power on an idle, armed system; recovers the device, then the
/// engine; checks every key against what was committed before the cut.
fn cut_and_recover(system: &mut KvSystem, check: &mut Check) -> Result<Recovery, String> {
    let config = system.config().clone();
    let keys = config.workload.record_count;
    let committed: Vec<Option<u64>> = (0..keys).map(|k| system.engine().version_of(k)).collect();
    let layout = *system.engine().layout();
    let at = system.ssd().idle_at() + SimDuration::from_secs(1);
    let (_, ssd) = system.verify_parts();

    ssd.ftl_mut().flash_mut().cut_power();
    let t = Instant::now();
    let rebuild = ssd
        .recover_power_loss()
        .map_err(|e| format!("device recovery: {e}"))?;
    let spor_ms = t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    let (mut engine, report) = KvEngine::recover_with_report(
        config.strategy,
        layout,
        config.compression_ratio,
        ssd,
        keys,
        at,
    )
    .map_err(|e| format!("engine recovery: {e}"))?;
    let engine_ms = t.elapsed().as_secs_f64() * 1e3;

    let mut now = report.finish;
    for (key, &expected) in committed.iter().enumerate() {
        let key = key as u64;
        check.attempted += 1;
        let recovered = engine.version_of(key);
        check.expect(recovered == expected, || {
            format!("key {key}: recovered {recovered:?}, committed {expected:?} before the cut")
        });
        match engine.get(ssd, key, now) {
            Ok(read) => {
                now = read.finish;
                check.expect(Some(read.version) == expected, || {
                    format!(
                        "key {key}: post-recovery read v{}, want {expected:?}",
                        read.version
                    )
                });
            }
            Err(e) => check.fail(format!("key {key}: post-recovery read: {e}")),
        }
    }
    check.attempted += 1;
    if let Err(e) = engine.update(ssd, 0, 512, now) {
        check.fail(format!("post-recovery update refused: {e}"));
    }
    if let Err(e) = ssd.ftl().check_invariants() {
        check.fail(format!("FTL invariants after recovery: {e}"));
    }
    Ok(Recovery {
        spor_ms,
        engine_ms,
        sim_ms: report.duration.as_millis_f64(),
        device_reads: report.device_reads,
        replayed: report.journal_entries_replayed,
        oob_replayed: rebuild.oob_records_replayed,
        snapshot_resolved: rebuild.snapshot_entries_resolved,
    })
}

/// `crash_recover`: one repetition is one cycle — fresh armed system,
/// Q_i queries, cut while idle, recover, verify. The warm-up is cycle 0
/// run once more, which also checks that it repeats bit for bit.
pub fn crash(w: &Workload, seed: u64) -> Result<Outcome, String> {
    let cycles = w.crash_cycles(seed);
    let mut check = Check::default();

    let (cycle_seed, queries) = cycles[0];
    let (warmup, mut system) = measure::repetition(&w.config(cycle_seed, queries), true, None)?;
    cut_and_recover(&mut system, &mut Check::default())?;
    drop(system);
    let fingerprint = warmup.sim_fingerprint();

    let mut reps = Vec::new();
    let mut setups = SetUps::new();
    let mut recoveries = Vec::new();
    for (i, &(cycle_seed, queries)) in cycles.iter().enumerate() {
        let config = w.config(cycle_seed, queries);
        set_ups_alone(&config, true, &mut setups)?;
        let (rep, mut system) = measure::repetition(&config, true, None)?;
        setups.push((rep.setup_ns, rep.load_ns));
        if i == 0 && rep.sim_fingerprint() != fingerprint {
            return Err(format!(
                "{}: cycle 0 differs from its warm-up in simulated metrics or counts",
                w.name
            ));
        }
        check.attempted += queries;
        check.expect(rep.report.ops == queries, || {
            format!(
                "cycle {i}: completed {} of {queries} queries",
                rep.report.ops
            )
        });
        recoveries.push(cut_and_recover(&mut system, &mut check)?);
        reps.push(rep);
    }

    let config = w.config(cycles[0].0, cycles[0].1);
    let column = |pick: fn(&Recovery) -> f64| -> Vec<f64> { recoveries.iter().map(pick).collect() };
    let throughput: Vec<f64> = reps.iter().map(|r| r.report.throughput).collect();
    // Throughput is here because the reader of `BENCHMARK.json` wants one
    // gated simulated metric from every workload; the latencies and flash
    // counts of an armed run are not what this workload is for.
    let mut end_to_end = Metrics::default();
    end_to_end.end_to_end("sim_throughput_qps", &[stats::median(&throughput)]);
    end_to_end.end_to_end("sim_recovery_ms", &[stats::median(&column(|r| r.sim_ms))]);
    // T1 of the run phase is cycle 0's: the cycles differ in length, so
    // their counts do not sum to anything a later run could be held to.
    let mut per_layer = measure::layer_counts(&reps[0], &config);
    host_metrics(
        &mut end_to_end,
        &mut per_layer,
        &reps,
        &setups,
        config.workload.record_count,
    );
    end_to_end.end_to_end("host_recover_ms", &column(|r| r.spor_ms + r.engine_ms));
    end_to_end.end_to_end("failed_share", &[check.failed_share()]);
    per_layer.host("engine.recover_host_ms", &column(|r| r.engine_ms));
    per_layer.host("ssd.spor_host_ms", &column(|r| r.spor_ms));
    for (name, pick) in [
        (
            "engine.recover_device_reads",
            (|r| r.device_reads as f64) as fn(&Recovery) -> f64,
        ),
        ("engine.recover_replayed", |r| r.replayed as f64),
        ("ssd.spor_oob_replayed", |r| r.oob_replayed as f64),
        ("ssd.spor_snapshot_resolved", |r| r.snapshot_resolved as f64),
    ] {
        per_layer.count(name, stats::median(&column(pick)));
    }

    let queries = Value::Arr(cycles.iter().map(|&(_, q)| Value::Int(q)).collect());
    Ok(Outcome {
        end_to_end,
        per_layer,
        counts: counts_json(&reps[0]),
        protocol: protocol_json(w, queries, reps.len(), "one armed system, one power cut"),
        check,
    })
}
