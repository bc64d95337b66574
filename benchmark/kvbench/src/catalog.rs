//! The one table of metrics: name, unit, direction and — end to end —
//! the regression bound. Measuring code looks units up here, `--compare`
//! judges by these bounds, and `BENCHMARK.json` is this table written
//! out (`kvbench --benchmark-json`), so there is no second copy to keep
//! in step.

use crate::json::Value;
use crate::workloads;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Simulated time: exact, repeats bit for bit.
    Sim,
    /// Wall clock of this machine.
    Host,
    /// A count, a share or a size: no clock.
    None,
}

impl Clock {
    pub fn label(self) -> &'static str {
        match self {
            Clock::Sim => "sim",
            Clock::Host => "host",
            Clock::None => "none",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// Where `BENCHMARK.json` lists an end-to-end metric. Its reader wants
/// every listed metric from every workload, never 0, and rejects the
/// benchmark when ten runs of one commit spread wider than a bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Listed {
    /// Under `end_to_end`, with the bound.
    Gated,
    /// Under `per_layer`, which carries no bound: defined on all five
    /// workloads, but a wall-clock time that ten runs of one commit on a
    /// shared machine do not hold within any bound the reader accepts.
    Reported,
    /// Not at all: undefined, or 0, on some workload. In the result
    /// documents, and judged by `--compare`.
    No,
}

#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub clock: Clock,
    /// Share of the base value by which the metric may get worse.
    pub bound: f64,
    pub listed: Listed,
}

const fn sim(name: &'static str, unit: &'static str) -> EndToEnd {
    // One LatencyRecorder bucket is 1.6 %; anything larger is a model change.
    EndToEnd {
        name,
        unit,
        better: Better::Lower,
        clock: Clock::Sim,
        bound: 0.02,
        listed: Listed::No,
    }
}

const fn host(name: &'static str, unit: &'static str, bound: f64, listed: Listed) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better: Better::Lower,
        clock: Clock::Host,
        bound,
        listed,
    }
}

pub const END_TO_END: [EndToEnd; 14] = [
    // 5 %, not 2 %: the reader of `BENCHMARK.json` draws ten seeds, and
    // across seeds throughput spreads by up to 1.4 % (`crash_recover`).
    EndToEnd {
        better: Better::Higher,
        bound: 0.05,
        listed: Listed::Gated,
        ..sim("sim_throughput_qps", "queries/s")
    },
    sim("sim_read_p50_us", "us"),
    sim("sim_read_p999_us", "us"),
    sim("sim_write_p50_us", "us"),
    sim("sim_write_p999_us", "us"),
    sim("sim_cp_mean_ms", "ms"),
    sim("sim_flash_programs_per_kq", "pages/kq"),
    sim("sim_flash_erases_per_mq", "blocks/Mq"),
    sim("sim_recovery_ms", "ms"),
    host("host_ns_per_query", "ns", 0.10, Listed::Reported),
    // The widest bound the reader accepts: set-up is 2 ms on one workload.
    host("setup_s", "s", 0.25, Listed::Gated),
    EndToEnd {
        name: "host_peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        clock: Clock::None,
        bound: 0.05,
        listed: Listed::Gated,
    },
    host("host_recover_ms", "ms", 0.10, Listed::No),
    EndToEnd {
        name: "failed_share",
        unit: "fraction",
        better: Better::Lower,
        clock: Clock::None,
        bound: 0.0,
        listed: Listed::No,
    },
];

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

#[derive(Debug, Clone, Copy)]
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Defined on all five workloads, so listed in `BENCHMARK.json`.
    /// Means over something a workload may never do (per checkpoint, per
    /// GC victim, per `get`, per recovery) are in the result documents only.
    pub everywhere: bool,
}

const fn all(name: &'static str, unit: &'static str) -> Layer {
    Layer {
        name,
        unit,
        better: Better::Lower,
        everywhere: true,
    }
}

const fn some(name: &'static str, unit: &'static str) -> Layer {
    Layer {
        everywhere: false,
        ..all(name, unit)
    }
}

const fn higher(layer: Layer) -> Layer {
    Layer {
        better: Better::Higher,
        ..layer
    }
}

pub const PER_LAYER: [Layer; 104] = [
    all("workload.next_op_ns", "ns"),
    all("sim.event_cycle_ns", "ns"),
    all("sim.resource_schedule_ns", "ns"),
    all("sim.latency_record_ns", "ns"),
    all("sim.trace_events_per_q", "events/q"),
    all("sim.trace_dropped", "count"),
    all("sim.trace_overhead_pct", "%"),
    all("system.self_ns_per_q", "ns"),
    all("system.depth_ns_per_q", "ns"),
    some("system.read_cp_slowdown_x", "x"),
    some("system.write_cp_slowdown_x", "x"),
    all("system.cp_time_share", "fraction"),
    all("attribution_residual_pct", "%"),
    some("engine.get_ns", "ns"),
    some("engine.update_ns", "ns"),
    some("engine.checkpoint_us", "us"),
    all("engine.reads_per_q", "1/q"),
    all("engine.updates_per_q", "1/q"),
    all("engine.checkpoints", "count"),
    all("engine.load_ns_per_record", "ns"),
    some("engine.recover_host_ms", "ms"),
    some("engine.recover_device_reads", "reads"),
    some("engine.recover_replayed", "entries"),
    all("journal.append_ns", "ns"),
    all("journal.append_raw_ns", "ns"),
    some("journal.stored_per_raw", "x"),
    higher(all("journal.superseded_per_kq", "logs/kq")),
    some("checkpoint.entries_per_cp", "entries"),
    higher(some("checkpoint.remapped_share", "fraction")),
    some("checkpoint.redundant_bytes_per_write_byte", "B/B"),
    some("checkpoint.flash_programs_per_cp", "pages"),
    some("checkpoint.flash_reads_per_cp", "pages"),
    some("checkpoint.drain_ms", "ms"),
    some("checkpoint.remap_ms", "ms"),
    some("checkpoint.copy_ms", "ms"),
    some("checkpoint.meta_ms", "ms"),
    some("checkpoint.trim_ms", "ms"),
    all("checkpoint.remap_ns_per_entry", "ns"),
    all("checkpoint.copy_ns_per_entry", "ns"),
    all("ssd.cmd_read_per_q", "1/q"),
    all("ssd.cmd_write_per_q", "1/q"),
    all("ssd.cmd_checkpoint", "count"),
    all("ssd.cmd_cow", "count"),
    all("ssd.cmd_dealloc_per_kq", "1/kq"),
    all("ssd.host_read_bytes_per_q", "B/q"),
    all("ssd.host_write_bytes_per_q", "B/q"),
    some("ssd.meta_writes_per_cp", "writes"),
    all("ssd.background_gc_rounds", "count"),
    all("ssd.background_scrub_rounds", "count"),
    all("ssd.link_util", "fraction"),
    all("ssd.cpu_util", "fraction"),
    all("ssd.read_ns", "ns"),
    all("ssd.write_ns", "ns"),
    all("ssd.dealloc_ns", "ns"),
    some("ssd.spor_host_ms", "ms"),
    some("ssd.spor_oob_replayed", "records"),
    some("ssd.spor_snapshot_resolved", "entries"),
    all("ftl.host_unit_reads_per_q", "1/q"),
    all("ftl.host_unit_writes_per_q", "1/q"),
    all("ftl.rmw_reads_per_kq", "1/kq"),
    higher(all("ftl.remap_ops_per_kq", "1/kq")),
    all("ftl.deallocations_per_kq", "1/kq"),
    all("ftl.pages_programmed_per_kq", "pages/kq"),
    all("ftl.gc_invocations_per_mq", "1/Mq"),
    all("ftl.gc_units_moved_per_kq", "units/kq"),
    some("ftl.gc_victim_valid_share", "fraction"),
    all("ftl.invalid_units_per_kq", "units/kq"),
    some("ftl.waf", "x"),
    all("ftl.wear_level_rounds", "count"),
    all("ftl.scrub_pages_per_kq", "pages/kq"),
    all("ftl.media_retries", "count"),
    all("ftl.integrity_detected", "count"),
    all("ftl.mapping_log_persists", "count"),
    all("ftl.new_ms", "ms"),
    all("ftl.write_ns", "ns"),
    all("ftl.read_ns", "ns"),
    all("ftl.remap_ns", "ns"),
    all("ftl.dealloc_ns", "ns"),
    all("ftl.gc_round_us", "us"),
    all("ftl.rebuild_ms", "ms"),
    all("flash.read_per_kq", "pages/kq"),
    all("flash.program_per_kq", "pages/kq"),
    all("flash.erase_per_mq", "blocks/Mq"),
    all("flash.die_util", "fraction"),
    all("flash.max_erase_count", "count"),
    all("flash.mean_erase_count", "count"),
    all("flash.transient_faults", "count"),
    all("flash.new_ms", "ms"),
    all("flash.program_ns", "ns"),
    all("flash.read_ns", "ns"),
    all("flash.erase_ns", "ns"),
    all("trace.engine_events_per_q", "events/q"),
    all("trace.journal_events_per_q", "events/q"),
    all("trace.queue_events_per_q", "events/q"),
    all("trace.isce_events_per_q", "events/q"),
    all("trace.ftl_events_per_q", "events/q"),
    all("trace.flash_events_per_q", "events/q"),
    all("depth.workload_next_op_ns_per_q", "ns"),
    all("depth.engine_get_ns_per_q", "ns"),
    all("depth.engine_update_ns_per_q", "ns"),
    all("depth.engine_checkpoint_ns_per_q", "ns"),
    all("depth.ssd_background_gc_ns_per_q", "ns"),
    all("depth.ssd_background_scrub_ns_per_q", "ns"),
    all("depth.span_overhead_ns", "ns"),
];

pub fn layer(name: &str) -> Option<&'static Layer> {
    PER_LAYER.iter().find(|m| m.name == name)
}

/// Names of the metrics `BENCHMARK.json` lists under `end_to_end`.
pub fn listed_end_to_end() -> impl Iterator<Item = &'static str> {
    END_TO_END
        .iter()
        .filter(|m| m.listed == Listed::Gated)
        .map(|m| m.name)
}

/// Names of the metrics `BENCHMARK.json` lists under `per_layer`.
pub fn listed_per_layer() -> impl Iterator<Item = &'static str> {
    let reported = END_TO_END.iter().filter(|m| m.listed == Listed::Reported);
    let layers = PER_LAYER.iter().filter(|m| m.everywhere);
    reported.map(|m| m.name).chain(layers.map(|m| m.name))
}

/// How long one run of the `BENCHMARK.json` command measures.
const RUN_SECONDS: u64 = 15;

/// `BENCHMARK.json`, to its reader's schema: exactly these six keys.
pub fn benchmark_json() -> Value {
    let metric = |name: &str, unit: &str, better: Better, bound: Option<f64>| {
        let mut v = Value::obj();
        v.set("name", Value::str(name));
        v.set("unit", Value::str(unit));
        v.set("better", Value::str(better.label()));
        if let Some(bound) = bound {
            v.set("bound", Value::Num(bound));
        }
        v
    };
    let gated = listed_end_to_end()
        .filter_map(end_to_end)
        .map(|m| metric(m.name, m.unit, m.better, Some(m.bound)));
    let unbounded = listed_per_layer().map(|name| match (end_to_end(name), layer(name)) {
        (Some(m), _) => metric(m.name, m.unit, m.better, None),
        (None, Some(m)) => metric(m.name, m.unit, m.better, None),
        (None, None) => unreachable!("{name} is listed from the two tables"),
    });
    let workloads = workloads::ALL.iter().map(|w| {
        let mut v = Value::obj();
        v.set("name", Value::str(w.name));
        v.set("why", Value::str(w.why));
        v
    });

    let mut spec = Value::obj();
    spec.set(
        "command",
        Value::Arr(vec![Value::str("bash"), Value::str("benchmark/run.sh")]),
    );
    spec.set("paths", Value::Arr(vec![Value::str("benchmark")]));
    spec.set("run_seconds", Value::Int(RUN_SECONDS));
    spec.set("workloads", Value::Arr(workloads.collect()));
    spec.set("end_to_end", Value::Arr(gated.collect()));
    spec.set("per_layer", Value::Arr(unbounded.collect()));
    spec
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::doc::is_plain_name;
    use std::collections::BTreeSet;

    fn plain_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b))
    }

    #[test]
    fn names_are_unique_and_plain() {
        let mut seen = BTreeSet::new();
        for m in &END_TO_END {
            assert!(is_plain_name(m.name) && plain_unit(m.unit), "{}", m.name);
            assert!(seen.insert(m.name), "{} listed twice", m.name);
            assert!((0.0..=0.25).contains(&m.bound));
        }
        for m in &PER_LAYER {
            assert!(is_plain_name(m.name) && plain_unit(m.unit), "{}", m.name);
            assert!(seen.insert(m.name), "{} listed twice", m.name);
        }
    }

    /// The reader requires a gated `setup_s`, in seconds, lower better.
    #[test]
    fn set_up_time_is_gated() {
        let setup = end_to_end("setup_s").unwrap();
        assert_eq!(
            (setup.unit, setup.better, setup.listed),
            ("s", Better::Lower, Listed::Gated)
        );
    }

    /// `BENCHMARK.json` is generated (`kvbench --benchmark-json`), never
    /// edited; this fails when the table moved and the file did not.
    #[test]
    fn benchmark_json_is_this_table_written_out() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).unwrap();
        assert_eq!(committed, benchmark_json().to_pretty());
    }
}
