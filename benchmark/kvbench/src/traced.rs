//! The traced run (`--trace 1`), never mixed into the end-to-end
//! numbers: (a) one repetition with the simulator's own tracer on,
//! (b) the same op stream driven straight at engine + device with a
//! host-clock span around every call, (c) the layer probes, and the
//! attribution that ties the three to the un-traced repetition.

use std::time::Instant;

use checkin_core::{EngineError, KvEngine, SystemConfig};
use checkin_sim::{SimDuration, SimRng, SimTime, TraceLayer, Tracer};
use checkin_ssd::Ssd;
use checkin_workload::Operation;

use crate::catalog::Clock;
use crate::doc::Metrics;
use crate::json::Value;
use crate::measure::{self, Repetition};
use crate::probes;
use crate::protocol::{counts_json, Check, Outcome};
use crate::workloads::{Workload, QUERIES};

/// Events the tracer's ring retains; older ones are dropped and counted.
const RING_EVENTS: usize = 1 << 18;

/// One row of the in-memory span table, written out at exit.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<&'static str>,
    pub calls: u64,
    pub total_ns: u64,
}

const LOOP: usize = 0;
const NEXT_OP: usize = 1;
const GET: usize = 2;
const UPDATE: usize = 3;
const CHECKPOINT: usize = 4;
const BACKGROUND_GC: usize = 5;
const BACKGROUND_SCRUB: usize = 6;

fn span_table() -> [Span; 7] {
    let span = |name, parent| Span {
        name,
        parent,
        calls: 0,
        total_ns: 0,
    };
    [
        span("depth_loop", None),
        span("workload.next_op", Some("depth_loop")),
        span("engine.get", Some("depth_loop")),
        span("engine.update", Some("depth_loop")),
        span("engine.checkpoint", Some("depth_loop")),
        span("ssd.background_gc", Some("depth_loop")),
        span("ssd.background_scrub", Some("depth_loop")),
    ]
}

fn timed<T>(spans: &mut [Span; 7], index: usize, work: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = work();
    spans[index].total_ns += t.elapsed().as_nanos() as u64;
    spans[index].calls += 1;
    out
}

/// What an `Instant` pair around nothing costs, per span.
fn span_overhead_ns() -> f64 {
    const CALLS: u64 = 200_000;
    let mut spans = span_table();
    for _ in 0..CALLS {
        timed(&mut spans, NEXT_OP, || std::hint::black_box(()));
    }
    spans[NEXT_OP].total_ns as f64 / CALLS as f64
}

struct Depth<'a> {
    engine: &'a mut KvEngine,
    ssd: &'a mut Ssd,
    config: &'a SystemConfig,
    spans: [Span; 7],
}

impl Depth<'_> {
    /// Checkpoint, then background GC and scrub in the idle window after
    /// it, as `core::system` does.
    fn checkpoint(&mut self, at: SimTime) -> Result<SimTime, EngineError> {
        let Depth {
            engine,
            ssd,
            config,
            spans,
        } = self;
        let out = timed(spans, CHECKPOINT, || engine.checkpoint(ssd, at))?;
        let (_, gc_done) = timed(spans, BACKGROUND_GC, || {
            ssd.background_gc(out.finish, config.background_gc_rounds)
        })?;
        let (_, scrub_done) = timed(spans, BACKGROUND_SCRUB, || {
            ssd.background_scrub(gc_done, config.scrub_pages_per_idle)
        })?;
        Ok(scrub_done)
    }

    fn update(&mut self, key: u64, bytes: u32, at: SimTime) -> Result<SimTime, EngineError> {
        let first = timed(&mut self.spans, UPDATE, || {
            self.engine.update(self.ssd, key, bytes, at)
        });
        match first {
            Err(EngineError::JournalFull) => {
                let resumed = self.checkpoint(at)?;
                timed(&mut self.spans, UPDATE, || {
                    self.engine.update(self.ssd, key, bytes, resumed)
                })
            }
            other => other,
        }
    }
}

/// Drives `config`'s thread-0 op stream, one query after the other,
/// against a loaded engine + device: no event queue, resource pool,
/// recorders or timeline. Checkpoints fire on `JournalFull`, on the
/// journal-size trigger, and every `queries ÷ checkpoints` queries —
/// that last one stands in for the 250 ms tick, so that the loop takes
/// as many checkpoints as the un-traced run did.
fn engine_depth(config: &SystemConfig, armed: bool, checkpoints: u64) -> Result<[Span; 7], String> {
    let (_, _, mut system) = measure::set_up(config, armed)?;
    let mut now = system.ssd().idle_at() + SimDuration::from_micros(10);
    let mut spec = config.workload.clone();
    spec.seed = SimRng::seed_from(config.workload.seed).next_u64();
    let mut generator = spec.generator();
    let tick_every = config.total_queries / checkpoints.max(1);

    let (engine, ssd) = system.verify_parts();
    let mut depth = Depth {
        engine,
        ssd,
        config,
        spans: span_table(),
    };
    let started = Instant::now();
    for query in 1..=config.total_queries {
        let op = timed(&mut depth.spans, NEXT_OP, || generator.next_op());
        let step = match op {
            Operation::Read { key } => timed(&mut depth.spans, GET, || {
                depth.engine.get(depth.ssd, key, now).map(|r| r.finish)
            }),
            Operation::Update { key, bytes } => depth.update(key, bytes, now),
            Operation::ReadModifyWrite { key, bytes } => timed(&mut depth.spans, GET, || {
                depth.engine.get(depth.ssd, key, now)
            })
            .and_then(|read| depth.update(key, bytes, read.finish)),
        };
        now = step.map_err(|e| format!("depth loop, query {query}: {e}"))?;
        let journal = depth.engine.journal();
        let size_trigger =
            op.is_write() && journal.zone_used_sectors() >= config.journal_trigger_sectors;
        let tick = checkpoints > 0 && query % tick_every == 0 && !journal.jmt().is_empty();
        if size_trigger || tick {
            now = depth
                .checkpoint(now)
                .map_err(|e| format!("depth loop, checkpoint at query {query}: {e}"))?;
        }
    }
    depth.spans[LOOP] = Span {
        calls: 1,
        total_ns: started.elapsed().as_nanos() as u64,
        ..depth.spans[LOOP]
    };
    Ok(depth.spans)
}

/// Estimated engine-depth cost per query from probe unit costs times
/// run-phase counts, layer by layer.
fn attribution(rep: &Repetition, probes: &Metrics) -> Vec<(&'static str, f64)> {
    let q = rep.report.ops as f64;
    let c = &rep.counts;
    let cost = |probe: &str| probes.value(probe).unwrap_or(0.0);
    let journal_probe = if rep.report.strategy.sector_aligned_journaling() {
        "journal.append_ns"
    } else {
        "journal.append_raw_ns"
    };
    let entries = rep.report.remapped_entries as f64 * cost("checkpoint.remap_ns_per_entry")
        + rep.report.copied_entries as f64 * cost("checkpoint.copy_ns_per_entry");
    let rounds = c.get("ssd.background_gc_rounds") + c.get("ftl.gc_foreground");
    vec![
        (
            "journal",
            c.get("engine.updates") as f64 * cost(journal_probe) / q,
        ),
        (
            "ssd.read",
            c.get("ssd.cmd_read") as f64 * cost("ssd.read_ns") / q,
        ),
        (
            "ssd.write",
            c.get("ssd.cmd_write") as f64 * cost("ssd.write_ns") / q,
        ),
        (
            "ssd.dealloc",
            c.get("ssd.cmd_dealloc") as f64 * cost("ssd.dealloc_ns") / q,
        ),
        ("checkpoint", entries / q),
        ("ftl.gc", rounds as f64 * cost("ftl.gc_round_us") * 1e3 / q),
    ]
}

pub fn run(w: &Workload, seed: u64) -> Result<Outcome, String> {
    let (seed, queries) = if w.crash {
        w.crash_cycles(seed)[0]
    } else {
        (seed, QUERIES)
    };
    let config = w.config(seed, queries);
    let armed = w.crash;

    // Warm-up on a tenth of the queries: enough to fault the allocator's
    // pages in, which is what makes a process's first repetition slow.
    measure::repetition(&w.config(seed, queries / 10), armed, None)?;
    let (plain, _) = measure::repetition(&config, armed, None)?;
    let tracer = Tracer::ring_buffered(RING_EVENTS);
    let (traced, _) = measure::repetition(&config, armed, Some(tracer.clone()))?;
    let retained = tracer.drain();
    let spans = engine_depth(&config, armed, plain.report.checkpoints)?;
    let overhead_ns = span_overhead_ns();
    let probes = probes::run(config.effective_unit_bytes());

    let mut check = Check {
        attempted: queries * 2,
        ..Check::default()
    };
    for (what, rep) in [("un-traced", &plain), ("traced", &traced)] {
        if rep.report.ops != queries {
            check.fail(format!(
                "{what} run completed {} of {queries}",
                rep.report.ops
            ));
        }
    }
    if traced.sim_fingerprint() != plain.sim_fingerprint() {
        check.fail("tracing changed the simulated result".to_string());
    }

    let q = queries as f64;
    let mut m = measure::layer_counts(&plain, &config);
    // One repetition's, beside the layers it splits into; the end-to-end
    // run has the median of several.
    m.exact("host_ns_per_query", Clock::Host, plain.host_ns_per_query());
    m.exact(
        "engine.load_ns_per_record",
        Clock::Host,
        plain.load_ns as f64 / config.workload.record_count as f64,
    );

    // (a) the simulator's own trace. Per-layer shares come from the
    // events the ring still holds (the run's tail), scaled to all.
    let emitted = tracer.emitted() as f64;
    m.count("sim.trace_events_per_q", emitted / q);
    m.count("sim.trace_dropped", tracer.dropped() as f64);
    m.exact(
        "sim.trace_overhead_pct",
        Clock::Host,
        (traced.host_ns_per_query() / plain.host_ns_per_query() - 1.0) * 100.0,
    );
    for layer in TraceLayer::all() {
        let held = retained.iter().filter(|e| e.layer == layer).count() as f64;
        m.count(
            &format!("trace.{}_events_per_q", layer.label()),
            held / retained.len().max(1) as f64 * emitted / q,
        );
    }

    // (b) engine-depth spans, each less what its `Instant` pair costs.
    let net = |span: &Span| (span.total_ns as f64 - span.calls as f64 * overhead_ns).max(0.0);
    let per_call = |span: &Span, scale: f64| net(span) / span.calls as f64 / scale;
    m.exact("engine.get_ns", Clock::Host, per_call(&spans[GET], 1.0));
    m.exact(
        "engine.update_ns",
        Clock::Host,
        per_call(&spans[UPDATE], 1.0),
    );
    m.exact(
        "engine.checkpoint_us",
        Clock::Host,
        per_call(&spans[CHECKPOINT], 1e3),
    );
    for span in &spans[NEXT_OP..] {
        let name = format!("depth.{}_ns_per_q", span.name.replace('.', "_"));
        m.exact(&name, Clock::Host, net(span) / q);
    }
    m.exact("depth.span_overhead_ns", Clock::Host, overhead_ns);
    let depth_ns: f64 = spans[GET..].iter().map(net).sum::<f64>() / q;
    m.exact("system.depth_ns_per_q", Clock::Host, depth_ns);
    m.exact(
        "system.self_ns_per_q",
        Clock::Host,
        plain.host_ns_per_query() - depth_ns,
    );

    // (c) probes, and what they leave unexplained below the engine.
    let split = attribution(&plain, &probes);
    let explained: f64 = split.iter().map(|(_, ns)| ns).sum();
    m.exact(
        "attribution_residual_pct",
        Clock::Host,
        (depth_ns - explained) / depth_ns * 100.0,
    );
    m.extend(probes);

    let mut protocol = Value::obj();
    protocol.set("queries", Value::Int(queries));
    protocol.set("faults_armed", Value::Bool(armed));
    protocol.set("ring_events", Value::Int(RING_EVENTS as u64));
    protocol.set(
        "host_ns_per_query_traced",
        Value::Num(traced.host_ns_per_query()),
    );
    let mut estimate = Value::obj();
    for (layer, ns) in split {
        estimate.set(layer, Value::Num(ns));
    }
    protocol.set("estimated_ns_per_query_below_engine", estimate);
    protocol.set(
        "spans",
        Value::Arr(
            spans
                .iter()
                .map(|s| {
                    let mut v = Value::obj();
                    v.set("name", Value::str(s.name));
                    v.set("parent", s.parent.map_or(Value::Null, Value::str));
                    v.set("calls", Value::Int(s.calls));
                    v.set("total_ns", Value::Int(s.total_ns));
                    v
                })
                .collect(),
        ),
    );

    Ok(Outcome {
        end_to_end: Metrics::default(),
        per_layer: m,
        counts: counts_json(&plain),
        check,
        protocol,
    })
}
