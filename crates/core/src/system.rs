//! Full-system closed-loop simulation: client threads driving the engine
//! and SSD, with periodic and size-triggered checkpointing.
//!
//! The event loop processes client completions in simulated-time order;
//! device contention (dies, channels, link, firmware CPU) is carried by
//! the resource timelines inside [`checkin_ssd::Ssd`]. A checkpoint books
//! its tombstone trims at trigger time; the rest of it — a batched
//! command's walk, gather and scatter, the Baseline's read-backs and
//! rewrites, ISC-A's per-entry commands, then the superblock and the
//! retired zone's trim — is advanced by a pump event that books one
//! small unit of work at its own instant, so queries submitted in
//! between go ahead of the rest of it. What a trigger and a
//! checkpoint's end start is the one [`TriggerRule`]: the pump event
//! that finds the trim over ends the checkpoint and begins the
//! idle-window GC behind it, whose rounds a second pump event advances
//! the same way and whose last step is the scrub round. A tick or a
//! full journal that finds a checkpoint still pumped drains it, booking
//! its remaining steps back to back: what a query meets of a checkpoint
//! is the interference the paper measures in Figures 3(c) and 9.

use checkin_sim::{
    Counter, CounterSet, EventQueue, LatencyRecorder, Progress, Resource, ResourcePool,
    SimDuration, SimRng, SimTime, Total, Tracer,
};
use checkin_ssd::{Ssd, SsdTiming};
use checkin_workload::{OpGenerator, Operation};

use crate::checkpoint::CheckpointOutcome;
use crate::config::SystemConfig;
use crate::engine::{CheckpointPhase, EngineError, KvEngine};
use crate::journal::JournalOptions;
use crate::layout::Layout;
use crate::metrics::{
    CheckpointPhases, DeviceUtilization, LatencyStats, RunReport, UtilizationSpread,
};
use crate::trigger::{Note, TriggerRule};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Event {
    Client(u32),
    CheckpointTick,
    /// A step of the running checkpoint's job is due.
    CheckpointPump,
    /// A step of the background GC behind the last checkpoint is due.
    GcPump,
}

/// Accumulates checkpoint outcomes across every trigger path (periodic
/// tick, journal-size trigger, and forced journal-full checkpoints inside
/// an update retry), so no checkpoint's work escapes the report.
#[derive(Debug)]
struct CpAccum {
    count: u64,
    entries: u64,
    remapped: u64,
    copied: u64,
    redundant_units: u64,
    redundant_bytes: u64,
    durations: LatencyRecorder,
    phases: CheckpointPhases,
}

impl CpAccum {
    fn new() -> Self {
        CpAccum {
            count: 0,
            entries: 0,
            remapped: 0,
            copied: 0,
            redundant_units: 0,
            redundant_bytes: 0,
            durations: LatencyRecorder::new(),
            phases: CheckpointPhases::default(),
        }
    }

    fn absorb(&mut self, out: &CheckpointOutcome) {
        self.count += 1;
        self.entries += out.entries;
        self.remapped += out.remapped;
        self.copied += out.copied;
        self.redundant_units += out.redundant_units;
        self.redundant_bytes += out.redundant_bytes;
        self.durations.record(out.finish.duration_since(out.start));
        self.phases.accumulate(&out.phases);
    }
}

/// The run loop's event queue and the checkpoint state every trigger
/// shares.
#[derive(Debug)]
struct RunLoop {
    events: EventQueue<Event>,
    /// The pump event in the queue, if any: there is at most one.
    pump_queued: Option<SimTime>,
    /// Lock mode: clients parked until the running checkpoint ends.
    parked: Vec<u32>,
    cp: CpAccum,
    /// When the idle work behind the last checkpoint ended.
    idle_done: SimTime,
}

impl RunLoop {
    /// An empty loop for `threads` clients: the queue holds one event per
    /// client, the tick, the checkpoint's pump and the GC's.
    fn new(threads: u32) -> Self {
        RunLoop {
            events: EventQueue::with_capacity(event_population(threads)),
            pump_queued: None,
            parked: Vec::with_capacity(threads as usize),
            cp: CpAccum::new(),
            idle_done: SimTime::ZERO,
        }
    }

    /// Makes sure a pump event is queued no later than `due`. A queued
    /// one that pops before its checkpoint is due re-queues itself then.
    fn queue_pump(&mut self, due: SimTime) {
        match self.pump_queued {
            Some(queued) => debug_assert!(queued <= due, "pump queued after it is due"),
            None => {
                self.events.schedule(due, Event::CheckpointPump);
                self.pump_queued = Some(due);
            }
        }
    }

    /// Acts on what the trigger rule noted: queues the pump it asks
    /// for, and counts an ended checkpoint and releases the clients lock
    /// mode parked for it.
    fn note(&mut self, note: Note<'_>) {
        match note {
            Note::Checkpoint(&Progress::PumpAt(due)) => self.queue_pump(due),
            Note::Gc(Progress::PumpAt(due)) => self.events.schedule(due, Event::GcPump),
            Note::Gc(Progress::Done(done)) => self.idle_done = self.idle_done.max(done),
            Note::Checkpoint(Progress::Done(out)) => {
                self.cp.absorb(out);
                for thread in self.parked.drain(..) {
                    self.events.schedule(out.finish, Event::Client(thread));
                }
            }
        }
    }
}

/// The events [`KvSystem::run`]'s queue holds at most: one per client,
/// the checkpoint tick, the checkpoint's pump and the background GC's.
fn event_population(threads: u32) -> usize {
    threads as usize + 3
}

/// `num / den`, or NaN when `den` is zero — a run with no writes has no
/// meaningful amplification, and fabricating a denominator would report
/// a finite but false ratio.
fn ratio_or_nan(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        f64::NAN
    }
}

/// Event pops between two calls of `retire_before` in [`KvSystem::run`]:
/// rare enough to cost nothing per query, often enough that the dead gaps
/// waiting for it stay few.
const RETIRE_EVERY_POPS: u64 = 64;

/// Every resource timeline of the device in a fixed order: link, firmware
/// CPU, the dies, the channels.
fn device_timelines(ssd: &Ssd) -> impl Iterator<Item = &Resource> {
    let flash = ssd.ftl().flash();
    [ssd.link(), ssd.cpu()]
        .into_iter()
        .chain(flash.dies())
        .chain(flash.channels())
}

/// Busy time of each of [`device_timelines`], to difference over a phase.
fn device_busy_times(ssd: &Ssd) -> Vec<SimDuration> {
    device_timelines(ssd).map(Resource::busy_time).collect()
}

/// Utilisation of every device timeline over a phase of length `elapsed`
/// that began with the busy times `before`.
fn device_utilization(
    ssd: &Ssd,
    before: &[SimDuration],
    elapsed: SimDuration,
) -> DeviceUtilization {
    let busy: Vec<f64> = device_timelines(ssd)
        .zip(before)
        .map(|(timeline, &before)| {
            if elapsed.is_zero() {
                return 0.0;
            }
            (timeline.busy_time() - before).as_secs_f64() / elapsed.as_secs_f64()
        })
        .collect();
    let (dies, channels) = busy[2..].split_at(ssd.ftl().flash().dies().len());
    DeviceUtilization {
        link: busy[0],
        cpu: busy[1],
        dies: UtilizationSpread::of(dies),
        channels: UtilizationSpread::of(channels),
    }
}

/// The assembled system: engine + device + clients.
///
/// # Examples
///
/// ```
/// use checkin_core::{KvSystem, SystemConfig, Strategy};
///
/// let mut config = SystemConfig::for_strategy(Strategy::CheckIn);
/// config.total_queries = 2_000;
/// config.workload.record_count = 500;
/// config.threads = 8;
/// let report = KvSystem::new(config)?.run()?;
/// assert_eq!(report.ops, 2_000);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct KvSystem {
    config: SystemConfig,
    ssd: Ssd,
    engine: KvEngine,
    generators: Vec<OpGenerator>,
}

// The shard fleet will move this across threads: a field that is not
// `Send` (an `Rc`, say) is a build error here.
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<KvSystem>();
};

impl KvSystem {
    /// Builds the system: flash array, FTL, SSD, engine and per-thread
    /// operation generators.
    ///
    /// # Errors
    ///
    /// Returns a description when the configuration is inconsistent or
    /// the layout does not fit the device.
    pub fn new(config: SystemConfig) -> Result<Self, String> {
        config.validate()?;
        let zone_sectors = (config.journal_trigger_sectors * 2).max(1024);
        // Home slots must fit the largest journal-log footprint so that a
        // remapped log (value + commit header, sector padded) never
        // overflows into a neighbour's slot.
        let layout = Layout::new(
            config.workload.record_count,
            config.workload.sizes.max_bytes() + crate::journal::LOG_HEADER_BYTES,
            config.effective_unit_bytes(),
            zone_sectors,
        );
        let layout_bytes = layout.total_sectors() * checkin_ssd::SECTOR_BYTES as u64;
        let capacity = config.geometry.capacity_bytes();
        if layout_bytes * 10 > capacity * 9 {
            return Err(format!(
                "layout needs {layout_bytes} B but device holds {capacity} B \
                 (>90% would leave no GC headroom); shrink record_count or grow geometry"
            ));
        }
        let flash = checkin_flash::FlashArray::new(config.geometry, config.flash_timing);
        let ftl = checkin_ftl::Ftl::new(flash, config.ftl_config()).map_err(|e| e.to_string())?;
        let ssd = Ssd::new(ftl, SsdTiming::paper_default());
        let mut options = JournalOptions::for_strategy(config.strategy, config.compression_ratio);
        if config.ablate_partial_merging {
            options.merge_partials = false;
        }
        if config.ablate_compression {
            options.compression_ratio = 1.0;
        }
        let engine = KvEngine::with_journal_options(config.strategy, layout, options);

        // One prototype, reseeded per client: the zipfian constants are
        // the same for every client and cost a pass over the key space.
        let mut seed_rng = SimRng::seed_from(config.workload.seed);
        let prototype = config.workload.generator();
        let generators = (0..config.threads)
            .map(|_| prototype.reseeded(seed_rng.next_u64()))
            .collect();
        Ok(KvSystem {
            config,
            ssd,
            engine,
            generators,
        })
    }

    /// The device (stats, invariants).
    pub fn ssd(&self) -> &Ssd {
        &self.ssd
    }

    /// The engine (versions, JMT).
    pub fn engine(&self) -> &KvEngine {
        &self.engine
    }

    /// The configuration in effect.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// Simultaneous mutable access to engine and device, for tests and
    /// examples that drive verification reads through the real stack
    /// after a run.
    pub fn verify_parts(&mut self) -> (&mut KvEngine, &mut Ssd) {
        (&mut self.engine, &mut self.ssd)
    }

    /// Installs a trace sink across every layer of the stack: engine,
    /// journal manager, SSD command queue, ISCE, FTL, and flash array
    /// all emit into the same ring. Pass [`Tracer::disabled`] (the
    /// default) for zero-overhead operation.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.engine.set_tracer(tracer.clone());
        self.ssd.set_tracer(tracer);
    }

    /// Loads all records, runs the configured number of queries, and
    /// reports.
    ///
    /// # Errors
    ///
    /// Propagates engine/device failures.
    pub fn run(&mut self) -> Result<RunReport, EngineError> {
        // ---- Load phase (not measured) -------------------------------
        let records: Vec<(u64, u32)> = (0..self.config.workload.record_count)
            .map(|k| (k, self.generators[0].load_size(k)))
            .collect();
        let load_done = self.engine.load(&mut self.ssd, &records, SimTime::ZERO)?;

        // Snapshots for run-phase attribution.
        let counters0 = self.counters();
        let busy0 = device_busy_times(&self.ssd);

        // ---- Run phase ------------------------------------------------
        // Closed loop: at most one in-flight event per client, the
        // checkpoint tick and two pumps, so the queue never regrows.
        let population = event_population(self.config.threads);
        let mut run = RunLoop::new(self.config.threads);
        let mut host = ResourcePool::new("host-core", SystemConfig::HOST_CORES as usize);
        let start = load_done + SimDuration::from_micros(10);
        // Fixed per-thread quotas: each thread executes the same operation
        // stream regardless of how strategies interleave in time, so runs
        // with the same seed reach identical logical state under every
        // strategy (YCSB's thread model).
        let base_quota = self.config.total_queries / self.config.threads as u64;
        let extra = (self.config.total_queries % self.config.threads as u64) as u32;
        let mut quota: Vec<u64> = (0..self.config.threads)
            .map(|i| base_quota + u64::from(i < extra))
            .collect();
        for i in 0..self.config.threads {
            if quota[i as usize] > 0 {
                run.events.schedule(start, Event::Client(i));
            }
        }
        // Time of the pending periodic tick: admission batches must not
        // execute operations past it, or the tick would fire later than
        // it would under one-op-per-event admission.
        let mut next_tick = start + self.config.checkpoint_interval;
        run.events.schedule(next_tick, Event::CheckpointTick);

        let mut completed = 0u64;
        let mut last_finish = start;
        let mut lat_all = LatencyRecorder::new();
        let mut lat_read = LatencyRecorder::new();
        let mut lat_write = LatencyRecorder::new();
        let mut lat_read_cp = LatencyRecorder::new();
        let mut lat_write_cp = LatencyRecorder::new();
        let mut pops = 0u64;

        while let Some((now, event)) = run.events.pop() {
            // Each pop schedules at most one successor of its own kind —
            // the next tick, the client's next batch or, in lock mode,
            // the client it just popped, the next pump — and a checkpoint
            // end re-queues at most the parked clients, whose events it
            // had taken out, and the GC's pump, which it queues only
            // while none is: the population the queue was sized for
            // still holds.
            debug_assert!(run.events.len() < population);
            // The last query's completion does not end the run while a
            // checkpoint is still being pumped: it ends with that
            // checkpoint.
            let phase = self.engine.checkpoint_phase(now);
            if completed == self.config.total_queries
                && !matches!(phase, CheckpointPhase::Pumped(_))
            {
                break;
            }
            // Events pop in time order and book nothing before their own
            // instant, so the timelines may forget what is over by `now`.
            // Retiring is garbage collection: how often it runs changes
            // no window, only how many dead gaps wait for it.
            pops += 1;
            if pops.is_multiple_of(RETIRE_EVERY_POPS) {
                self.ssd.retire_before(now);
                host.retire_before(now);
            }
            match event {
                Event::CheckpointTick if completed == self.config.total_queries => {
                    // The queries are done: the running checkpoint and
                    // its GC end at once instead of at their pumps' pace.
                    self.rule()
                        .finish(&mut self.engine, &mut self.ssd, &mut |n| run.note(n))?;
                }
                Event::CheckpointTick => {
                    // A pumped checkpoint is drained, one still ending
                    // is not begun over.
                    if !matches!(phase, CheckpointPhase::Ending(_))
                        && !self.engine.journal().jmt().is_empty()
                    {
                        self.trigger(now, &mut run)?;
                    }
                    next_tick = now + self.config.checkpoint_interval;
                    run.events.schedule(next_tick, Event::CheckpointTick);
                }
                Event::CheckpointPump => {
                    run.pump_queued = None;
                    match phase {
                        CheckpointPhase::Pumped(due) if due == now => self.rule().pump_checkpoint(
                            &mut self.engine,
                            &mut self.ssd,
                            now,
                            &mut |n| run.note(n),
                        )?,
                        // Queued for a checkpoint a trigger drained; the
                        // one it began is due later.
                        CheckpointPhase::Pumped(due) => run.queue_pump(due),
                        CheckpointPhase::Ending(_) | CheckpointPhase::Idle => {}
                    }
                }
                Event::GcPump => {
                    debug_assert_eq!(self.ssd.gc_due(), Some(now), "one GC pump, when due");
                    self.rule()
                        .pump_gc(&mut self.ssd, now, &mut |n| run.note(n))?;
                }
                Event::Client(thread) => {
                    if quota[thread as usize] == 0 {
                        continue;
                    }
                    // Lock mode: a client waits parked for a pumped
                    // checkpoint's end, or re-queued for the end of one
                    // still ending.
                    if self.config.lock_queries_during_checkpoint && phase != CheckpointPhase::Idle
                    {
                        if let CheckpointPhase::Ending(until) = phase {
                            run.events.schedule(until, Event::Client(thread));
                        } else {
                            run.parked.push(thread);
                        }
                        continue;
                    }
                    // Admit up to `admission_batch` operations from this
                    // client under a single queue event. The whole burst is
                    // *submitted* at `now` — the client model changes from
                    // queue-depth-1 to queue-depth-k — and the next event
                    // fires when the slowest op of the burst completes.
                    // Every op therefore starts strictly before the pending
                    // periodic tick (the tick would have popped first), and
                    // a size-triggered checkpoint closes the batch below,
                    // so no batch straddles a checkpoint boundary. All
                    // resource reservations happen at `now`, in pop order,
                    // keeping device contention causally ordered exactly
                    // like one-op-per-event admission.
                    debug_assert!(now < next_tick || self.config.admission_batch == 1);
                    let mut batch_end = now;
                    for _ in 0..self.config.admission_batch {
                        let during_cp = self.engine.checkpoint_phase(now) != CheckpointPhase::Idle;
                        let op = self.generators[thread as usize].next_op();
                        let cpu = host.schedule(now, SystemConfig::HOST_CPU_PER_OP).1;
                        let finish = self.execute_op(op, cpu.finish, &mut run)?;
                        let latency = finish.duration_since(now);
                        lat_all.record(latency);
                        match op {
                            Operation::Read { .. } => {
                                lat_read.record(latency);
                                if during_cp {
                                    lat_read_cp.record(latency);
                                }
                            }
                            _ => {
                                lat_write.record(latency);
                                if during_cp {
                                    lat_write_cp.record(latency);
                                }
                            }
                        }
                        completed += 1;
                        quota[thread as usize] -= 1;
                        last_finish = last_finish.max(finish);
                        batch_end = batch_end.max(finish);

                        // Size-based checkpoint trigger. A fired trigger
                        // closes the batch so no operation in this batch
                        // straddles the checkpoint (and, in lock mode, so
                        // no further op is admitted inside the window).
                        // It waits for a checkpoint in progress, booked or
                        // pumped: the zone holds twice the trigger, and a
                        // full one ends a pumped checkpoint at once.
                        if op.is_write()
                            && self.engine.journal().zone_used_sectors()
                                >= self.config.journal_trigger_sectors
                            && self.engine.checkpoint_phase(finish) == CheckpointPhase::Idle
                        {
                            self.trigger(finish, &mut run)?;
                            break;
                        }
                        if quota[thread as usize] == 0 {
                            break;
                        }
                    }
                    if quota[thread as usize] > 0 {
                        run.events.schedule(batch_end, Event::Client(thread));
                    }
                }
            }
        }
        // Background GC still running at the last query ends at once, as
        // the tick ends a checkpoint, so the run covers it.
        self.rule()
            .finish(&mut self.engine, &mut self.ssd, &mut |n| run.note(n))?;
        let cp = run.cp;
        let last_finish = last_finish.max(run.idle_done);

        // ---- Report ---------------------------------------------------
        let elapsed = last_finish.duration_since(start);
        let counters = self.counters().delta_since(&counters0);

        let page_bytes = self.config.geometry.page_bytes as u64;
        let write_query_bytes = counters.get(Counter::EngineUpdateBytes);
        let host_bytes =
            counters.get(Counter::SsdHostReadBytes) + counters.get(Counter::SsdHostWriteBytes);
        let programs = counters.total(Total::FlashProgram);
        let erases = counters.total(Total::FlashErase);
        let flash_ops = counters.total(Total::FlashRead) + programs + erases;
        let raw = counters.get(Counter::EngineJournalRawBytes);
        let stored = counters.get(Counter::EngineJournalStoredBytes);
        // Include the still-open zone so short runs without a checkpoint
        // still report overhead.
        let (raw, stored) = (
            raw + self.engine.journal().jmt().raw_bytes(),
            stored + self.engine.journal().jmt().stored_bytes(),
        );
        let throughput = if elapsed.as_secs_f64() > 0.0 {
            completed as f64 / elapsed.as_secs_f64()
        } else {
            0.0
        };
        let utilization = device_utilization(&self.ssd, &busy0, elapsed);
        // Reservations on one timeline never overlap, so none can have
        // been busy for longer than the span its reservations cover: a
        // double booking shows as a utilisation above one.
        // And with the event clock retiring what is over, no timeline
        // filled its gap list to `Resource::GAP_GUARD`: every window was
        // the earliest feasible one.
        for timeline in device_timelines(&self.ssd) {
            debug_assert!(
                timeline.busy_time() <= timeline.span(),
                "double-booked timeline: {timeline:?}"
            );
            debug_assert_eq!(
                timeline.forgotten_gaps(),
                0,
                "a timeline forgot a gap a request could book: {timeline:?}"
            );
        }

        Ok(RunReport {
            strategy: self.config.strategy,
            threads: self.config.threads,
            ops: completed,
            elapsed,
            throughput,
            latency: LatencyStats::from_recorder(&lat_all),
            latency_read: LatencyStats::from_recorder(&lat_read),
            latency_write: LatencyStats::from_recorder(&lat_write),
            latency_read_during_cp: LatencyStats::from_recorder(&lat_read_cp),
            latency_write_during_cp: LatencyStats::from_recorder(&lat_write_cp),
            checkpoints: cp.count,
            checkpoint_entries: cp.entries,
            checkpoint_mean: cp.durations.mean(),
            checkpoint_max: cp.durations.max(),
            remapped_entries: cp.remapped,
            copied_entries: cp.copied,
            checkpoint_flash_programs: cp.phases.flash_programs(),
            checkpoint_flash_reads: cp.phases.flash_reads(),
            redundant_write_units: cp.redundant_units,
            redundant_write_bytes: cp.redundant_bytes,
            checkpoint_phases: cp.phases,
            utilization,
            flash_store_bytes: self.ssd.ftl().flash().store_bytes(),
            mapping_bytes: self.ssd.ftl().mapping_bytes(),
            write_query_bytes,
            io_amplification: ratio_or_nan(host_bytes as f64, write_query_bytes as f64),
            flash_amplification: ratio_or_nan(
                (flash_ops * page_bytes) as f64,
                write_query_bytes as f64,
            ),
            waf: ratio_or_nan(
                (programs * page_bytes) as f64,
                counters.get(Counter::SsdHostWriteBytes) as f64,
            ),
            journal_space_overhead: if raw == 0 {
                1.0
            } else {
                stored as f64 / raw as f64
            },
            superseded_logs: counters.get(Counter::EngineSupersededLogs)
                + self.engine.journal().jmt().superseded(),
            lifetime_score: if erases == 0 {
                f64::INFINITY
            } else {
                completed as f64 / erases as f64
            },
            counters,
        })
    }

    /// Every layer's counters in one set: the flash, FTL, device and
    /// engine sets count under disjoint key prefixes, so merging them
    /// loses nothing.
    fn counters(&self) -> CounterSet {
        let mut all = self.ssd.all_counters();
        all.merge(self.engine.counters());
        all
    }

    /// The trigger rule under this configuration.
    fn rule(&self) -> TriggerRule {
        TriggerRule {
            gc_rounds: self.config.background_gc_rounds,
            scrub_pages: self.config.scrub_pages_per_idle,
        }
    }

    /// A triggered checkpoint at `at` ([`TriggerRule::trigger`]): the
    /// one entry point of the periodic tick, the size trigger and a full
    /// journal.
    fn trigger(&mut self, at: SimTime, run: &mut RunLoop) -> Result<SimTime, EngineError> {
        self.rule()
            .trigger(&mut self.engine, &mut self.ssd, at, &mut |n| run.note(n))
    }

    fn execute_op(
        &mut self,
        op: Operation,
        at: SimTime,
        run: &mut RunLoop,
    ) -> Result<SimTime, EngineError> {
        match op {
            Operation::Read { key } => Ok(self.engine.get(&mut self.ssd, key, at)?.finish),
            Operation::Update { key, bytes } => self.update_with_retry(key, bytes, at, run),
            Operation::ReadModifyWrite { key, bytes } => {
                let read = self.engine.get(&mut self.ssd, key, at)?;
                self.update_with_retry(key, bytes, read.finish, run)
            }
        }
    }

    /// Update, forcing a checkpoint when the journal zone fills — through
    /// [`KvSystem::trigger`], like every other trigger — and retrying
    /// when it lets the update go on.
    fn update_with_retry(
        &mut self,
        key: u64,
        bytes: u32,
        at: SimTime,
        run: &mut RunLoop,
    ) -> Result<SimTime, EngineError> {
        match self.engine.update(&mut self.ssd, key, bytes, at) {
            Ok(t) => Ok(t),
            Err(EngineError::JournalFull) => {
                let resume = self.trigger(at, run)?;
                self.engine.update(&mut self.ssd, key, bytes, resume)
            }
            Err(e) => Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Strategy;
    use checkin_flash::FlashGeometry;
    use checkin_sim::TraceEvent;

    fn quick_config(strategy: Strategy) -> SystemConfig {
        let mut c = SystemConfig::for_strategy(strategy);
        c.total_queries = 3_000;
        c.threads = 8;
        c.workload.record_count = 400;
        c.journal_trigger_sectors = 1_024;
        c.geometry = FlashGeometry {
            channels: 2,
            dies_per_channel: 2,
            planes_per_die: 1,
            blocks_per_plane: 64,
            pages_per_block: 64,
            page_bytes: 4096,
        };
        c.gc_threshold_blocks = 4;
        c.gc_soft_threshold_blocks = 16;
        c
    }

    #[test]
    fn runs_to_completion_for_every_strategy() {
        for strategy in Strategy::all() {
            let mut system = KvSystem::new(quick_config(strategy)).unwrap();
            let report = system.run().unwrap();
            assert_eq!(report.ops, 3_000, "{strategy}");
            assert!(report.throughput > 0.0);
            assert!(report.checkpoints > 0, "{strategy} should checkpoint");
            system.ssd().ftl().check_invariants().unwrap();
            // No injector ran and every value fits a unit record, so
            // no stored slot is logged.
            assert_eq!(system.ssd().ftl().flash().sealed_slots(), 0, "{strategy}");
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let r1 = KvSystem::new(quick_config(Strategy::CheckIn))
            .unwrap()
            .run()
            .unwrap();
        let r2 = KvSystem::new(quick_config(Strategy::CheckIn))
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(r1.elapsed, r2.elapsed);
        assert_eq!(r1.latency.p999, r2.latency.p999);
        assert_eq!(r1.checkpoints, r2.checkpoints);
        assert_eq!(r1.counters, r2.counters);
    }

    #[test]
    fn checkin_reduces_checkpoint_programs_vs_baseline() {
        let base = KvSystem::new(quick_config(Strategy::Baseline))
            .unwrap()
            .run()
            .unwrap();
        let ci = KvSystem::new(quick_config(Strategy::CheckIn))
            .unwrap()
            .run()
            .unwrap();
        assert!(
            ci.redundant_write_units < base.redundant_write_units,
            "Check-In {} vs baseline {}",
            ci.redundant_write_units,
            base.redundant_write_units
        );
        assert!(ci.remapped_entries > 0);
        assert_eq!(base.remapped_entries, 0);
    }

    #[test]
    fn utilisation_of_every_timeline_is_reported() {
        let report = KvSystem::new(quick_config(Strategy::CheckIn))
            .unwrap()
            .run()
            .unwrap();
        let u = report.utilization;
        for (name, spread) in [("dies", u.dies), ("channels", u.channels)] {
            assert!(
                0.0 < spread.min && spread.min <= spread.mean && spread.mean <= spread.max,
                "{name}: {spread:?}"
            );
        }
        // A booking made near the end may reach past it; nothing else
        // can lift a timeline above one.
        for busy in [u.link, u.cpu, u.dies.max, u.channels.max] {
            assert!(0.0 < busy && busy < 1.05, "{u:?}");
        }
        // tPROG dwarfs a page's channel transfer.
        assert!(u.dies.mean > u.channels.mean, "{u:?}");
    }

    #[test]
    fn sustained_gc_forgets_no_gap_a_request_could_book() {
        // `wo_gc_uniform`'s shape: write-only and uniform over 3 000
        // records on the 48 MiB device, where GC migration competes with
        // foreground writes for die time.
        let mut c = SystemConfig::gc_pressured(Strategy::CheckIn);
        c.workload.mix = checkin_workload::OpMix::WRITE_ONLY;
        c.workload.pattern = checkin_workload::AccessPattern::Uniform;
        c.workload.record_count = 3_000;
        c.total_queries = 60_000;
        let mut system = KvSystem::new(c).unwrap();
        let report = system.run().unwrap();
        assert!(report.counters.get(Counter::FtlGcInvocations) > 0);
        // Some timeline held more gaps at once than the fixed list of 32
        // this replaced: without that, the check below proves nothing.
        let most = device_timelines(&system.ssd)
            .map(Resource::gap_high_water)
            .max();
        assert!(most > Some(32), "most gaps held at once: {most:?}");
        for timeline in device_timelines(&system.ssd) {
            assert_eq!(timeline.forgotten_gaps(), 0, "{timeline:?}");
        }
    }

    /// ISC-B copies every entry, so each of its checkpoints is paced; a
    /// tick every 2 ms finds many of them still pumping and ends them at
    /// once before it begins its own. Every checkpoint still ends before
    /// the run does.
    #[test]
    fn a_trigger_ends_a_running_checkpoint_before_its_own() {
        let mut c = quick_config(Strategy::IscB);
        c.checkpoint_interval = SimDuration::from_millis(2);
        let mut system = KvSystem::new(c).unwrap();
        let report = system.run().unwrap();
        let counters = &report.counters;
        let checkpoints = counters.get(Counter::EngineCheckpoints);
        let drained = counters.get(Counter::EngineCheckpointsDrained);
        assert!(
            0 < drained && drained < checkpoints,
            "{drained} of {checkpoints}"
        );
        assert_eq!(report.checkpoints, checkpoints);
        assert!(counters.get(Counter::SsdCpPumpSteps) > checkpoints);
        let (engine, ssd) = system.verify_parts();
        assert_eq!(engine.checkpoint_phase(SimTime::MAX), CheckpointPhase::Idle);
        assert_eq!(ssd.drain().unwrap(), None);
        system.ssd().ftl().check_invariants().unwrap();
    }

    /// The Baseline's read-backs and rewrites are paced too: a tick every
    /// 2 ms — far sooner than the journal fills, so no full journal ends
    /// one — finds some of its checkpoints still pumped and ends them at
    /// once before it begins its own, while others end at their pace.
    /// Every checkpoint still ends before the run does, and each one
    /// reads back and rewrites its live entries once.
    #[test]
    fn a_tick_drains_a_paced_baseline_checkpoint() {
        let mut c = quick_config(Strategy::Baseline);
        c.checkpoint_interval = SimDuration::from_millis(2);
        let mut system = KvSystem::new(c).unwrap();
        let report = system.run().unwrap();
        let counters = &report.counters;
        let checkpoints = counters.get(Counter::EngineCheckpoints);
        let drained = counters.get(Counter::EngineCheckpointsDrained);
        assert!(
            0 < drained && drained < checkpoints,
            "{drained} of {checkpoints}"
        );
        assert_eq!(report.checkpoints, checkpoints);
        assert_eq!(report.copied_entries, report.checkpoint_entries);
        let phase = system.engine().checkpoint_phase(SimTime::MAX);
        assert_eq!(phase, CheckpointPhase::Idle);
        system.ssd().ftl().check_invariants().unwrap();
    }

    /// Loads eight keys and updates them with 4 KiB values until the
    /// journal is full. Returns when the update that found it full
    /// was issued.
    fn fill_journal(system: &mut KvSystem) -> SimTime {
        let (engine, ssd) = system.verify_parts();
        let records: Vec<(u64, u32)> = (0..8).map(|k| (k, 4096)).collect();
        let mut t = engine.load(ssd, &records, SimTime::ZERO).unwrap();
        loop {
            match engine.update(ssd, t.as_nanos() % 8, 4096, t) {
                Ok(done) => t = done,
                Err(EngineError::JournalFull) => return t,
                Err(e) => panic!("{e}"),
            }
        }
    }

    /// The system's [`TriggerRule::trigger`] at `at`: when its caller may
    /// go on, and what the rule noted, in order — an ended checkpoint
    /// by its finish.
    fn trigger(system: &mut KvSystem, at: SimTime) -> (SimTime, Vec<(&'static str, SimTime)>) {
        let rule = system.rule();
        let mut notes = Vec::new();
        let (engine, ssd) = system.verify_parts();
        let resume = rule
            .trigger(engine, ssd, at, &mut |note| {
                notes.push(match note {
                    Note::Checkpoint(Progress::Done(out)) => ("ended", out.finish),
                    Note::Checkpoint(&Progress::PumpAt(due)) => ("checkpoint", due),
                    Note::Gc(Progress::PumpAt(due)) => ("gc", due),
                    Note::Gc(Progress::Done(done)) => ("gc done", done),
                });
            })
            .unwrap();
        (resume, notes)
    }

    /// An update that finds the journal full checkpoints through the one
    /// rule the tick and the size trigger use: the checkpoint gets its
    /// pump — a zone with logs in it is walked and trimmed in steps, so
    /// ISC-C, which remaps every log, is paced as ISC-B, which copies —
    /// and the update goes on. A checkpoint that ends in its begin (an
    /// empty zone: nothing to move, nothing to trim) gets its idle
    /// window and its end instant instead. A trigger that finds a
    /// checkpoint still pumped drains it, begins background GC behind
    /// it and begins its own at the drained one's finish, while that GC
    /// is still pumped.
    #[test]
    fn a_full_journal_checkpoints_through_the_one_entry_point() {
        for strategy in [Strategy::IscC, Strategy::IscB] {
            let mut system = KvSystem::new(quick_config(strategy)).unwrap();
            let t = fill_journal(&mut system);
            let (resume, notes) = trigger(&mut system, t);
            let CheckpointPhase::Pumped(due) = system.engine().checkpoint_phase(t) else {
                panic!("{strategy}: the checkpoint is not pumped at {t:?}");
            };
            assert_eq!(
                (resume, notes),
                (t, vec![("checkpoint", due)]),
                "{strategy}"
            );
            let (engine, ssd) = system.verify_parts();
            assert!(
                engine.update(ssd, 0, 4096, resume).unwrap() > t,
                "{strategy}"
            );
            assert_eq!(system.engine().version_of(0).map(|v| v > 1), Some(true));
        }

        let mut system = KvSystem::new(quick_config(Strategy::IscC)).unwrap();
        let (engine, ssd) = system.verify_parts();
        let t = engine.load(ssd, &[(0, 4096)], SimTime::ZERO).unwrap();
        let (resume, notes) = trigger(&mut system, t);
        let CheckpointPhase::Ending(until) = system.engine().checkpoint_phase(t) else {
            panic!("an empty checkpoint ends in its begin");
        };
        assert!(until > t && resume == until);
        // No GC pressure: the GC job is its closing scrub round.
        let [("gc done", idle_done), ("ended", ended)] = notes[..] else {
            panic!("{notes:?}");
        };
        assert!(ended == until && idle_done > until);
        let scrubs = system
            .ssd()
            .counters()
            .get(Counter::SsdBackgroundScrubRounds);
        assert_eq!(scrubs, 1);

        // Every free pool under the soft threshold, and blocks small
        // enough that the zone's trim leaves victims: a checkpoint's end
        // begins a GC round.
        let mut c = quick_config(Strategy::IscB);
        c.geometry.pages_per_block = 16;
        c.gc_soft_threshold_blocks = c.geometry.total_blocks() as u32;
        let mut system = KvSystem::new(c).unwrap();
        let t = fill_journal(&mut system);
        let (resume, _) = trigger(&mut system, t);
        let (engine, ssd) = system.verify_parts();
        let t = engine.update(ssd, 0, 4096, resume).unwrap();
        let (resume, notes) = trigger(&mut system, t);
        let [("gc", gc_due), ("ended", drained), ("checkpoint", due)] = notes[..] else {
            panic!("{notes:?}");
        };
        assert!(drained > t && resume == drained);
        assert_eq!(system.ssd().gc_due(), Some(gc_due));
        assert!(
            system.ssd().ftl().gc_due().is_some(),
            "a round is in flight"
        );
        let phase = system.engine().checkpoint_phase(resume);
        assert_eq!(phase, CheckpointPhase::Pumped(due));
        let counters = system.engine().counters();
        assert_eq!(counters.get(Counter::EngineCheckpointsDrained), 1);
    }

    /// A checkpoint's phase times are spans inside it: none sums to more
    /// than every checkpoint at the longest one's length, however many
    /// of its commands overlapped (ISC-A keeps a queue-deep window of
    /// CoW commands in flight).
    #[test]
    fn phase_times_fit_inside_the_checkpoints() {
        for strategy in Strategy::all() {
            let report = KvSystem::new(quick_config(strategy))
                .unwrap()
                .run()
                .unwrap();
            assert!(report.checkpoints > 0, "{strategy}");
            let bound = report.checkpoint_max * report.checkpoints;
            let p = report.checkpoint_phases;
            for (name, time) in [
                ("drain", p.drain_time),
                ("remap", p.remap_time),
                ("copy", p.copy_time),
                ("meta", p.meta_time),
                ("trim", p.trim_time),
            ] {
                assert!(time <= bound, "{strategy}: {name} {time:?} > {bound:?}");
            }
        }
    }

    /// Lock mode admits no query while a checkpoint is in progress, so
    /// none is recorded inside one — the phase that parks clients is the
    /// one that classifies latencies.
    #[test]
    fn lock_mode_records_no_query_inside_a_checkpoint() {
        for strategy in Strategy::all() {
            let mut c = quick_config(strategy);
            c.lock_queries_during_checkpoint = true;
            c.checkpoint_interval = SimDuration::from_millis(5);
            let report = KvSystem::new(c).unwrap().run().unwrap();
            assert!(
                report.checkpoints >= 10,
                "{strategy}: {}",
                report.checkpoints
            );
            assert_eq!(report.latency_read_during_cp.count, 0, "{strategy}");
            assert_eq!(report.latency_write_during_cp.count, 0, "{strategy}");
        }
    }

    #[test]
    fn lock_mode_also_completes() {
        let mut c = quick_config(Strategy::IscB);
        c.lock_queries_during_checkpoint = true;
        let report = KvSystem::new(c).unwrap().run().unwrap();
        assert_eq!(report.ops, 3_000);
        assert!(report.checkpoint_mean > SimDuration::ZERO);
    }

    #[test]
    fn batched_admission_conserves_ops_and_is_deterministic() {
        let mut c = quick_config(Strategy::CheckIn);
        c.admission_batch = 8;
        let r1 = KvSystem::new(c.clone()).unwrap().run().unwrap();
        let r2 = KvSystem::new(c).unwrap().run().unwrap();
        assert_eq!(r1.ops, 3_000);
        assert!(r1.checkpoints > 0);
        assert_eq!(r1.elapsed, r2.elapsed);
        assert_eq!(r1.latency.p999, r2.latency.p999);
        assert_eq!(r1.checkpoints, r2.checkpoints);
        assert_eq!(r1.counters, r2.counters);
    }

    /// Quotas are fixed per thread and generators are seeded per thread,
    /// so every admission batch size executes the same per-thread op
    /// streams — only their interleaving in time changes. The final
    /// logical state (per-key version = number of updates applied) must
    /// therefore be identical, and no operation may be dropped or run
    /// twice.
    #[test]
    fn final_state_independent_of_admission_batch() {
        let mut reports = Vec::new();
        let mut versions: Vec<Vec<u64>> = Vec::new();
        for batch in [1u32, 7, 64] {
            let mut c = quick_config(Strategy::CheckIn);
            c.admission_batch = batch;
            let mut system = KvSystem::new(c).unwrap();
            let report = system.run().unwrap();
            system.ssd().ftl().check_invariants().unwrap();
            let keys = system.engine().loaded_keys() as u64;
            let mut t = SimTime::MAX - SimDuration::from_secs(1_000_000);
            versions.push(
                (0..keys)
                    .map(|key| {
                        let r = system.engine.get(&mut system.ssd, key, t).unwrap();
                        t = r.finish;
                        r.version
                    })
                    .collect(),
            );
            reports.push(report);
        }
        for r in &reports {
            assert_eq!(r.ops, 3_000);
        }
        assert_eq!(versions[0], versions[1]);
        assert_eq!(versions[0], versions[2]);
    }

    #[test]
    fn lock_mode_completes_with_batching() {
        let mut c = quick_config(Strategy::IscB);
        c.lock_queries_during_checkpoint = true;
        c.admission_batch = 16;
        let report = KvSystem::new(c).unwrap().run().unwrap();
        assert_eq!(report.ops, 3_000);
        assert!(report.checkpoints > 0);
    }

    #[test]
    fn zero_admission_batch_rejected() {
        let mut c = quick_config(Strategy::CheckIn);
        c.admission_batch = 0;
        assert!(KvSystem::new(c).is_err());
    }

    #[test]
    fn oversized_layout_rejected() {
        let mut c = quick_config(Strategy::Baseline);
        c.workload.record_count = 10_000_000;
        assert!(KvSystem::new(c).is_err());
    }

    /// A write-only run of `queries` on the GC-pressured device, traced
    /// into a ring that keeps its last events. Returns the system, its
    /// report, those events and the instant the run's queries began: its
    /// load's end plus the loop's 10 µs, from a twin.
    fn traced_gc_run(queries: u64) -> (KvSystem, RunReport, Vec<TraceEvent>, SimTime) {
        let mut c = SystemConfig::gc_pressured(Strategy::CheckIn);
        c.workload.mix = checkin_workload::OpMix::WRITE_ONLY;
        c.workload.pattern = checkin_workload::AccessPattern::Uniform;
        c.workload.record_count = 3_000;
        c.total_queries = queries;
        let mut twin = KvSystem::new(c.clone()).unwrap();
        let records: Vec<(u64, u32)> = (0..c.workload.record_count)
            .map(|k| (k, twin.generators[0].load_size(k)))
            .collect();
        let (engine, ssd) = twin.verify_parts();
        let loaded = engine.load(ssd, &records, SimTime::ZERO).unwrap();
        let mut system = KvSystem::new(c).unwrap();
        let tracer = Tracer::ring_buffered(1 << 16);
        system.set_tracer(tracer.clone());
        let report = system.run().unwrap();
        let start = loaded + SimDuration::from_micros(10);
        (system, report, tracer.drain(), start)
    }

    /// The `[start, end]` of every background GC round in `events`.
    fn background_rounds(events: &[TraceEvent]) -> Vec<(u64, u64)> {
        let end = |e: &TraceEvent| e.fields().iter().find(|f| f.0 == "end_ns").map(|f| f.1);
        events
            .iter()
            .filter(|e| e.op == "gc" && e.note == "background")
            .filter_map(|e| Some((e.at.as_nanos(), end(e)?)))
            .collect()
    }

    /// Background GC still running when the last query completes is run
    /// to its end, as the tick ends a checkpoint: the run's span covers
    /// its last round, and nothing is left running.
    #[test]
    fn a_run_ends_after_the_idle_gc_behind_its_last_checkpoint() {
        let (system, report, events, start) = traced_gc_run(60_000);
        let last_update = events
            .iter()
            .filter(|e| e.op == "update")
            .map(|e| e.at.as_nanos())
            .max()
            .expect("the ring holds the last updates");
        let (_, gc_end) = *background_rounds(&events)
            .last()
            .expect("background GC ran");
        assert!(gc_end > last_update, "GC was running at the last query");
        assert!(gc_end <= (start + report.elapsed).as_nanos());
        assert_eq!(system.ssd().gc_due(), None);
        assert_eq!(system.ssd().ftl().gc_due(), None);
        system.ssd().ftl().check_invariants().unwrap();
    }

    /// The run loop's queue never holds more than one event per client,
    /// the tick and the two pumps (a debug build asserts it at every
    /// pop): in this run background GC rounds run while checkpoints are
    /// pumped, so both pumps are queued at once.
    #[cfg(debug_assertions)]
    #[test]
    fn both_pumps_fit_the_event_population() {
        let (_, report, events, _) = traced_gc_run(60_000);
        let checkpoints: Vec<(u64, u64)> = events
            .iter()
            .filter(|e| e.op == "checkpoint")
            .filter_map(|e| {
                let duration = e.fields().iter().find(|f| f.0 == "duration_ns")?.1;
                Some((e.at.as_nanos() - duration, e.at.as_nanos()))
            })
            .collect();
        let overlaps = background_rounds(&events)
            .iter()
            .filter(|&&(gc_start, gc_end)| {
                checkpoints
                    .iter()
                    .any(|&(cp_start, cp_end)| gc_start < cp_end && cp_start < gc_end)
            })
            .count();
        assert!(overlaps > 0, "no GC round ran inside a checkpoint");
        assert!(report.checkpoints > 1);
        assert_eq!(
            event_population(report.threads),
            report.threads as usize + 3
        );
    }

    #[test]
    fn engine_state_consistent_after_run() {
        let mut system = KvSystem::new(quick_config(Strategy::CheckIn)).unwrap();
        system.run().unwrap();
        // Every key readable at its engine-committed version (the engine
        // debug-asserts version agreement inside get()).
        let mut t = SimTime::MAX - SimDuration::from_secs(1_000_000);
        let keys = system.engine().loaded_keys() as u64;
        for key in 0..keys {
            let r = system.engine.get(&mut system.ssd, key, t).unwrap();
            t = r.finish;
            assert!(r.version >= 1);
        }
    }
}
