//! `chaos` — the one fault harness behind the acked-write durability
//! contract (DESIGN.md §9) and the no-silent-corruption contract (§13).
//!
//! Every run is one [`Scenario`] row: a seeded `KvEngine` workload
//! (updates, deletes, inserts, checkpoints, background GC and scrub) on a
//! deliberately tight simulated device, under whatever [`FaultConfig`]
//! the row arms — a power cut, a torn page, retention bit-rot,
//! misdirected programs, transient media noise, grown bad blocks, or
//! several of those at once. `drive` runs the workload and stops typed
//! at the first power loss or integrity failure; [`run`] then recovers
//! the device (`Ssd::recover_power_loss`) and the engine
//! (`KvEngine::recover`) when the row scheduled a cut, and `verify`
//! checks every key against the `Shadow` model of what the client was
//! acknowledged:
//!
//! * every acked write is readable with its acked version, every acked
//!   delete stays deleted, and only admitted-but-unacked operations may
//!   land in either their old or new state;
//! * where the tier tolerates damage, a read may instead fail with a
//!   *typed* integrity error (`SsdError::is_integrity`) — never a wrong
//!   value served without an error, never a panic.
//!
//! [`sweep`] is the whole test plan: every tier is a loop over scenario
//! rows with an *impotence gate* proving its faults actually fired, and
//! two sabotage self-tests prove the harness can fail. It takes no
//! options: the full sweep runs in well under a second.

mod sweep;

pub use sweep::{sweep, Sweep};

use checkin_core::{
    CheckpointPhase, EngineError, KvEngine, Layout, ReadResult, Strategy, SystemConfig, TriggerRule,
};
use checkin_flash::{
    FaultConfig, FaultOp, FaultPlan, FlashArray, FlashGeometry, FlashTiming, OpPhase, Ppn,
};
use checkin_ftl::{Ftl, FtlConfig, Location, Lpn};
use checkin_sim::{Counter, SimTime, TraceEvent, Tracer};
use checkin_ssd::{Ssd, SsdError, SsdTiming};
use checkin_testkit::TestRng;

/// Keys in the workload (dense, all loaded up front).
const RECORDS: u64 = 48;
/// Largest value the workload writes (drives the layout's slot size).
const MAX_RECORD_BYTES: u32 = 2048;
/// Journal zone size in sectors — small enough that checkpoints and GC
/// both happen many times inside one run.
const ZONE_SECTORS: u64 = 384;
/// Operations per run after the initial load.
const OPS: u64 = 700;
/// Compression ratio for sector-aligned journaling (paper default).
const COMPRESSION: f64 = 0.7;
/// The tier whose rows run on two planes per die, where a page can ride
/// another plane's tPROG. A row's tier is in its `^ combo:` line, so the
/// line still replays the row.
const TWO_PLANE_TIER: &str = "two-plane";

/// One row of the test plan: everything that determines a run. The
/// `^ combo:` line of a failing row is this struct's `Debug` output —
/// paste it into a unit test and replay it with [`run`].
#[derive(Debug, Clone, Copy)]
pub struct Scenario {
    /// Tier the row belongs to (report label only).
    pub tier: &'static str,
    /// Checkpointing strategy; also fixes the mapping unit.
    pub strategy: Strategy,
    /// Workload seed: key choice, value sizes, op mix.
    pub seed: u64,
    /// Admission batch: ops are admitted in groups of `batch` and acked
    /// only when the whole group completes (1 = ack every op).
    pub batch: u32,
    /// `FtlConfig::verify_checksums` — off only in the sabotage control.
    pub verify_checksums: bool,
    /// Pages the background scrubber may patrol per idle window (0 = the
    /// scrubber never runs).
    pub scrub_pages: u32,
    /// Faults armed after the initial load, so tick indices count
    /// steady-state operations. `None` leaves the array unarmed, which
    /// also spares the device its crash-consistency bookkeeping.
    pub faults: Option<FaultConfig>,
}

impl Scenario {
    /// A fault-free row: every op acked, verification on, no
    /// scrubbing. Tiers override fields with struct-update syntax.
    pub fn new(tier: &'static str, strategy: Strategy, seed: u64) -> Self {
        Scenario {
            tier,
            strategy,
            seed,
            batch: 1,
            verify_checksums: true,
            scrub_pages: 0,
            faults: None,
        }
    }

    /// The same row with `faults` armed.
    pub fn with_faults(self, faults: FaultConfig) -> Self {
        Scenario {
            faults: Some(faults),
            ..self
        }
    }

    /// The product's checkpoint-trigger rule: its background GC rounds,
    /// and the row's scrub budget.
    fn rule(&self) -> TriggerRule {
        TriggerRule {
            gc_rounds: SystemConfig::for_strategy(self.strategy).background_gc_rounds,
            scrub_pages: self.scrub_pages,
        }
    }

    fn layout(&self) -> Layout {
        Layout::new(
            RECORDS,
            MAX_RECORD_BYTES,
            self.strategy.default_unit_bytes(),
            ZONE_SECTORS,
        )
    }

    /// A deliberately tight device: 16 blocks of 16 pages (1 MiB) against
    /// a ~512 KiB logical space, so GC runs inside every workload. Its
    /// two dies have one plane each, except in the [`TWO_PLANE_TIER`],
    /// whose dies have two planes of 6 blocks: with one write point per
    /// plane, twice as many blocks are open, and 16 blocks leave SPOR no
    /// room to reclaim.
    fn build_ssd(&self) -> Ssd {
        let (planes, blocks) = if self.tier == TWO_PLANE_TIER {
            (2, 6)
        } else {
            (1, 8)
        };
        let geometry = FlashGeometry {
            channels: 2,
            dies_per_channel: 1,
            planes_per_die: planes,
            blocks_per_plane: blocks,
            pages_per_block: 16,
            page_bytes: 4096,
        };
        let ftl = Ftl::new(
            FlashArray::new(geometry, FlashTiming::mlc()),
            FtlConfig {
                unit_bytes: self.strategy.default_unit_bytes(),
                write_points: geometry.total_planes() as u32,
                gc_threshold_blocks: 3,
                gc_soft_threshold_blocks: 6,
                write_buffer_units: 16,
                verify_checksums: self.verify_checksums,
                ..FtlConfig::default()
            },
        )
        .expect("valid FTL config");
        Ssd::new(ftl, SsdTiming::paper_default())
    }
}

/// The state an operation leaves its key in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ShadowKey {
    /// Version the operation wrote.
    version: u64,
    /// The operation was a delete.
    deleted: bool,
}

/// The shadow key→version model, and the single owner of the ack rule:
/// an op the engine completed stays *unacked* until its whole admission
/// batch completes; a run that stops mid-batch acks none of the batch
/// and leaves it — plus the op that observed the failure — in flight.
#[derive(Debug)]
struct Shadow {
    /// Per key: what the client was last acknowledged.
    acked: Vec<ShadowKey>,
    /// `(key, state it leaves)` per op of the open batch, in issue
    /// order; once the run has stopped, the in-flight ops — admitted,
    /// never acked — that [`verify`] tolerates as landed or not.
    unacked: Vec<(u64, ShadowKey)>,
}

impl Shadow {
    fn loaded() -> Self {
        let fresh = ShadowKey {
            version: 1,
            deleted: false,
        };
        Shadow {
            acked: vec![fresh; RECORDS as usize],
            unacked: Vec::new(),
        }
    }

    /// State of `key` as the engine sees it: acked, then the open batch.
    fn get(&self, key: u64) -> ShadowKey {
        let staged = self.unacked.iter().rev().find(|(k, _)| *k == key);
        staged.map_or(self.acked[key as usize], |&(_, state)| state)
    }

    /// Admitted-but-unacked ops (> 1 after a cut means it landed mid-batch).
    fn unacked(&self) -> usize {
        self.unacked.len()
    }

    /// The engine completed an op of the open batch — or, when the run
    /// stops on it, observed its failure.
    fn stage(&mut self, key: u64, next: ShadowKey) {
        self.unacked.push((key, next));
    }

    fn ack_batch(&mut self) {
        for (key, state) in self.unacked.drain(..) {
            self.acked[key as usize] = state;
        }
    }
}

/// Why a driven workload ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stop {
    /// Every op ran and was acked.
    Completed,
    /// The scheduled power cut fired.
    PowerCut,
    /// A foreground op failed with a typed integrity error (never acked).
    OpIntegrity,
    /// A *checkpoint* died on a typed integrity error: journal entries
    /// are already retired but remaps are incomplete, so data placement
    /// is mid-transition and version-exact verification is unsound. The
    /// run is still held to device invariants.
    CheckpointIntegrity,
}

/// One driven workload: the device as the run left it, the engine, and
/// the shadow model of everything the client was acknowledged.
struct Driven {
    /// The device (frozen when `stop` is [`Stop::PowerCut`]).
    ssd: Ssd,
    /// The engine that drove it (stale after a cut).
    engine: KvEngine,
    /// Acked state plus the in-flight tail.
    shadow: Shadow,
    /// Why the run ended.
    stop: Stop,
    /// Whether a checkpoint was still being pumped when it ended.
    paced: bool,
    /// Whether a background GC round was in flight when it ended.
    gc_pumped: bool,
    /// Completion time of the last successful step.
    t: SimTime,
}

fn is_integrity(e: &EngineError) -> bool {
    matches!(e, EngineError::Ssd(s) if s.is_integrity())
}

/// Runs the checkpoint and background GC steps due by `t`, the earliest
/// first (the checkpoint's on a tie), each at its own instant.
fn pump_until(
    rule: TriggerRule,
    engine: &mut KvEngine,
    ssd: &mut Ssd,
    t: SimTime,
) -> Result<(), EngineError> {
    loop {
        let checkpoint = match engine.checkpoint_phase(t) {
            CheckpointPhase::Pumped(due) => due,
            _ => SimTime::MAX,
        };
        let gc = ssd.gc_due().unwrap_or(SimTime::MAX);
        if checkpoint.min(gc) > t {
            return Ok(());
        } else if checkpoint <= gc {
            rule.pump_checkpoint(engine, ssd, checkpoint, &mut |_| {})?;
        } else {
            rule.pump_gc(ssd, gc, &mut |_| {})?;
        }
    }
}

/// Runs the row's seeded workload and stops at the first power loss or
/// typed integrity failure; any other failure panics — faults must
/// surface typed, never as a crash. The flash array emits to
/// `flash_tracer` from when the faults are armed.
///
/// Ops are admitted in groups of `sc.batch` and acked only when the whole
/// group completes, with checkpoints triggered only at batch boundaries
/// (the admission gate's no-straddling rule) through the product's
/// [`TriggerRule`]. A begun checkpoint's copy and the background GC
/// behind a checkpoint are pumped between the ops, so a cut can land
/// inside either; the run ends with the running checkpoint and its GC.
/// The op stream is identical for every batch size; only ack timing
/// differs.
fn drive(sc: &Scenario, flash_tracer: Tracer) -> Driven {
    let mut ssd = sc.build_ssd();
    let layout = sc.layout();
    let mut engine = KvEngine::new(sc.strategy, layout, COMPRESSION);
    let mut rng = TestRng::seed_from(sc.seed);
    let records: Vec<(u64, u32)> = (0..RECORDS)
        .map(|k| (k, rng.range_u32(200, MAX_RECORD_BYTES - 48)))
        .collect();
    let mut t = engine
        .load(&mut ssd, &records, SimTime::ZERO)
        .expect("fault-free load");
    let mut shadow = Shadow::loaded();
    if let Some(config) = sc.faults {
        ssd.ftl_mut().flash_mut().arm_faults(FaultPlan::new(config));
    }
    ssd.ftl_mut().flash_mut().set_tracer(flash_tracer);
    let cp_units = (layout.zone_sectors() / layout.unit_sectors()) / 4;
    let stop_for = |e: EngineError, in_checkpoint: bool| {
        if matches!(&e, EngineError::Ssd(SsdError::Ftl(f)) if f.is_power_loss()) {
            Stop::PowerCut
        } else if !is_integrity(&e) {
            panic!("{sc:?}: untyped failure: {e}")
        } else if in_checkpoint {
            Stop::CheckpointIntegrity
        } else {
            Stop::OpIntegrity
        }
    };
    let rule = sc.rule();
    let mut remaining = OPS;

    let stop = 'ops: loop {
        if remaining == 0 {
            match rule.finish(&mut engine, &mut ssd, &mut |_| {}) {
                Ok(()) => break Stop::Completed,
                Err(e) => break stop_for(e, true),
            }
        }
        // Batch boundary: the only place a checkpoint is *planned*, and
        // nothing is unacked here.
        if engine.journal_used_units() >= cp_units {
            match rule.trigger(&mut engine, &mut ssd, t, &mut |_| {}) {
                Ok(done) => t = done,
                Err(e) => break stop_for(e, true),
            }
        }
        let group = u64::from(sc.batch.max(1)).min(remaining);
        remaining -= group;
        for _ in 0..group {
            if let Err(e) = pump_until(rule, &mut engine, &mut ssd, t) {
                break 'ops stop_for(e, true);
            }
            let key = rng.below(RECORDS);
            let entry = shadow.get(key);
            let bytes = rng.range_u32(200, MAX_RECORD_BYTES - 48);
            // A deleted key is re-inserted; a live one is deleted one time
            // in ten and updated otherwise.
            let next = ShadowKey {
                version: entry.version + 1,
                deleted: !entry.deleted && rng.below(100) < 10,
            };
            let issue =
                |engine: &mut KvEngine, ssd: &mut Ssd, t| match (entry.deleted, next.deleted) {
                    (true, _) => engine.insert(ssd, key, bytes, t),
                    (false, true) => engine.delete(ssd, key, t),
                    (false, false) => engine.update(ssd, key, bytes, t),
                };
            let mut result = issue(&mut engine, &mut ssd, t);
            if matches!(result, Err(EngineError::JournalFull)) {
                // The admission estimate ran short: force the checkpoint
                // the real system would have taken at the boundary. A
                // failure inside it leaves `next` un-issued (it never
                // touched the journal), so only the already-issued part
                // of the batch is in flight.
                match rule.trigger(&mut engine, &mut ssd, t, &mut |_| {}) {
                    Ok(done) => t = done,
                    Err(e) => break 'ops stop_for(e, true),
                }
                result = issue(&mut engine, &mut ssd, t);
            }
            match result {
                Ok(done) => {
                    t = done;
                    shadow.stage(key, next);
                }
                Err(e) => {
                    shadow.stage(key, next);
                    break 'ops stop_for(e, false);
                }
            }
        }
        shadow.ack_batch();
    };
    Driven {
        paced: matches!(engine.checkpoint_phase(t), CheckpointPhase::Pumped(_)),
        gc_pumped: ssd.ftl().gc_due().is_some(),
        ssd,
        engine,
        shadow,
        stop,
        t,
    }
}

/// Drives an unarmed row to completion and flushes it: the clean state
/// the post-hoc tiers and the checksum self-test then damage by hand.
fn drive_clean(sc: &Scenario) -> (Driven, SimTime) {
    let mut d = drive(sc, Tracer::disabled());
    assert_eq!(d.stop, Stop::Completed, "{sc:?}: unarmed run");
    let t = d.ssd.flush(d.t).expect("clean flush");
    (d, t)
}

/// Verdict of one verified run (or, summed, of the whole sweep).
#[derive(Debug, Default, Clone, Copy)]
pub struct Verdict {
    /// Keys read back and judged.
    pub checked: u64,
    /// Reads that served, without an error, a version that is neither
    /// the acked one nor in flight — stale or too new alike.
    pub silent_wrong: u64,
    /// Acked live keys the client can no longer read: unknown to the
    /// engine, or failing typed in a tier that tolerates no damage.
    pub losses: u64,
    /// Acked deletes that came back readable.
    pub resurrections: u64,
    /// Reads that failed with a typed integrity error where the tier
    /// tolerates it: damage was detected, not served.
    pub detected_reads: u64,
}

impl Verdict {
    /// Adds `other`'s counts to `self`.
    pub fn absorb(&mut self, other: Verdict) {
        self.checked += other.checked;
        self.silent_wrong += other.silent_wrong;
        self.losses += other.losses;
        self.resurrections += other.resurrections;
        self.detected_reads += other.detected_reads;
    }

    /// No silently wrong read, no loss, no resurrection.
    pub fn clean(&self) -> bool {
        self.silent_wrong == 0 && self.losses == 0 && self.resurrections == 0
    }
}

/// Reads every key and judges it against the shadow ([`judge_read`]).
///
/// # Panics
///
/// When a read fails with anything but `UnknownKey` or a typed integrity
/// error: that is the crash the contract rules out.
fn verify(
    engine: &mut KvEngine,
    ssd: &mut Ssd,
    shadow: &Shadow,
    typed_ok: bool,
    t: SimTime,
    announce: bool,
) -> Verdict {
    let mut v = Verdict::default();
    for key in 0..shadow.acked.len() as u64 {
        let read = engine.get(ssd, key, t);
        judge_read(&mut v, shadow, key, &read, typed_ok, announce);
    }
    v
}

/// Judges one read of `key` against the shadow and counts it into `v`.
/// A read must return the acked version, or a version an in-flight op
/// would have written (the engine issues a batch sequentially, so any
/// prefix of the in-flight ops may have reached the journal), or — with
/// `typed_ok` — fail with a typed integrity error. An unknown key is
/// acceptable only after an acked or in-flight delete.
///
/// # Panics
///
/// When the read failed with anything but `UnknownKey` or a typed
/// integrity error.
fn judge_read(
    v: &mut Verdict,
    shadow: &Shadow,
    key: u64,
    read: &Result<ReadResult, EngineError>,
    typed_ok: bool,
    announce: bool,
) {
    let exp = shadow.acked[key as usize];
    // Did an in-flight op write `served`, or (None) delete the key?
    let in_flight = |served: Option<u64>| {
        let landed = |op: &ShadowKey| served.map_or(op.deleted, |v| !op.deleted && op.version == v);
        shadow.unacked.iter().any(|(k, op)| *k == key && landed(op))
    };
    v.checked += 1;
    let complaint = match read {
        Ok(r) if !exp.deleted && r.version == exp.version => None,
        Ok(r) if in_flight(Some(r.version)) => None,
        Ok(r) if exp.deleted => {
            v.resurrections += 1;
            Some(format!("RESURRECTED: readable v{}", r.version))
        }
        Ok(r) => {
            v.silent_wrong += 1;
            Some(format!("SILENT: served v{} with no error", r.version))
        }
        Err(EngineError::UnknownKey(_)) if exp.deleted || in_flight(None) => None,
        Err(EngineError::UnknownKey(_)) => {
            v.losses += 1;
            Some("LOSS: unknown to the engine".to_string())
        }
        Err(e) if is_integrity(e) && typed_ok => {
            v.detected_reads += 1;
            None
        }
        Err(e) if is_integrity(e) => {
            v.losses += 1;
            Some(format!("LOSS: typed failure in a tier with no damage: {e}"))
        }
        Err(e) => panic!("verify read of key {key} failed untyped: {e}"),
    };
    if let (Some(what), true) = (complaint, announce) {
        let acked = if exp.deleted { "delete" } else { "write" };
        eprintln!("  key {key} (acked {acked} v{}) {what}", exp.version);
    }
}

/// Profiling pass: the row as given but with its power cut removed and
/// the per-tick `(op, phase)` trace recorded. Every other fault stays
/// armed under the same fault seed, so tick `i + 1` of a cut run is
/// `trace[i]` exactly.
fn profile(sc: &Scenario) -> Vec<(FaultOp, OpPhase)> {
    profile_traced(sc, Tracer::disabled())
}

/// [`profile`], with the flash array emitting to `flash_tracer`.
fn profile_traced(sc: &Scenario, flash_tracer: Tracer) -> Vec<(FaultOp, OpPhase)> {
    let d = drive(
        &sc.with_faults(FaultConfig {
            power_cut_after: None,
            record_trace: true,
            ..sc.faults.unwrap_or_default()
        }),
        flash_tracer,
    );
    let plan = d.ssd.ftl().flash().fault_plan();
    plan.expect("plan stays armed").trace().to_vec()
}

/// The 1-based ticks of the second pages of the row's plane-pair
/// programs, from a profiling pass with the flash array traced. The n-th
/// program event is the n-th program tick: the row must arm no fault but
/// its cut, so no program fails. A pair's two pages tick back to back,
/// so the tick before each is its first page's, and a cut there lands
/// between the two.
fn joined_program_ticks(sc: &Scenario) -> Vec<u64> {
    let tracer = Tracer::ring_buffered(1 << 14);
    let programs = ticks_where(&profile_traced(sc, tracer.clone()), |op, _| {
        op == FaultOp::Program
    });
    let events: Vec<TraceEvent> = tracer
        .drain()
        .into_iter()
        .filter(|e| e.op == "program")
        .collect();
    assert!(
        tracer.dropped() == 0 && events.len() == programs.len(),
        "{sc:?}: {} program events for {} program ticks",
        events.len(),
        programs.len()
    );
    let rides = |e: &TraceEvent| e.fields().contains(&("multiplane", 1));
    let ticks: Vec<(u64, bool)> = programs
        .into_iter()
        .zip(&events)
        .map(|(tick, e)| (tick, rides(e)))
        .collect();
    ticks
        .windows(2)
        .filter(|pair| pair[1].1)
        .map(|pair| {
            assert!(
                !pair[0].1 && pair[0].0 + 1 == pair[1].0,
                "{sc:?}: the second page of a pair at tick {} does not follow its first",
                pair[1].0
            );
            pair[1].0
        })
        .collect()
}

/// One judged row: verdict plus what the tier gates need.
pub struct Outcome {
    /// Shadow-model verdict; all zero when a checkpoint died typed
    /// ([`Stop::CheckpointIntegrity`]) and nothing could be verified.
    pub verdict: Verdict,
    /// Why the workload ended.
    pub stop: Stop,
    /// Ops in flight when it ended.
    pub unacked: usize,
    /// Whether it ended while a checkpoint's copy was still being
    /// pumped: a cut inside a paced copy.
    pub paced: bool,
    /// Whether it ended while a background GC round was in flight: a
    /// cut between two of its steps.
    pub gc_pumped: bool,
    /// False when engine recovery refused, typed, to open the store.
    pub opened: bool,
    /// The device afterwards, for its counters.
    pub ssd: Ssd,
}

impl Outcome {
    /// A `flash.*` or `ftl.*` counter of the run (each layer's set
    /// holds only its own keys, so the sum is the one that counts it).
    pub fn counter(&self, key: Counter) -> u64 {
        let ftl = self.ssd.ftl();
        ftl.counters().get(key) + ftl.flash().counters().get(key)
    }
}

/// Judges one row: drive it; if it scheduled a power cut, cut (at the
/// end when the schedule outlived the workload, so recovery always runs),
/// SPOR the device and recover the engine; verify every key; check
/// `Ftl::check_invariants`; print the row if it failed. `typed_ok` is
/// the tier's tolerance for typed integrity failures: of reads, of the
/// post-recovery write, and of `KvEngine::recover` itself — which stops
/// at the first poisoned home slot, so the store does not open and the
/// row's whole verdict is that one detection ([`Outcome::opened`]).
///
/// With `sabotage`, the capacitor-backed write buffer is dropped before
/// SPOR — the verdict must then be unclean, proving the harness detects
/// broken recovery — and nothing is printed or asserted.
///
/// # Panics
///
/// On any untyped failure, a recovery that refuses to run or a violated
/// device invariant.
pub fn run(sc: &Scenario, typed_ok: bool, sabotage: bool) -> Outcome {
    let mut d = drive(sc, Tracer::disabled());
    let cuts = sc.faults.is_some_and(|f| f.power_cut_after.is_some());
    // Who serves reads from here on: the engine that drove the workload
    // or, after a cut, a recovered one — or nobody, when recovery met a
    // poisoned home slot and refused to open the store.
    let serving = if cuts {
        d.ssd.ftl_mut().flash_mut().cut_power();
        if sabotage {
            d.ssd.ftl_mut().sabotage_drop_write_buffer();
        }
        d.ssd
            .recover_power_loss()
            .unwrap_or_else(|e| panic!("{sc:?}: SPOR failed: {e}"));
        let layout = sc.layout();
        match KvEngine::recover(sc.strategy, layout, COMPRESSION, &mut d.ssd, RECORDS, d.t) {
            Ok(recovered) => Some(recovered),
            Err(e) if typed_ok && is_integrity(&e) => None,
            Err(e) => panic!("{sc:?}: engine recovery failed: {e}"),
        }
    } else {
        Some((d.engine, d.t))
    };
    let opened = serving.is_some();
    let mut verdict = Verdict::default();
    match serving {
        // Loud and typed, and one detection: the read recovery died on.
        // Nothing behind it can be verified.
        None => verdict.detected_reads = 1,
        Some((mut engine, t)) => {
            if d.stop != Stop::CheckpointIntegrity {
                verdict = verify(&mut engine, &mut d.ssd, &d.shadow, typed_ok, t, !sabotage);
            }
            if cuts && !sabotage {
                // The recovered stack must take writes again.
                match engine.insert(&mut d.ssd, 0, 512, t) {
                    Ok(_) => {}
                    Err(e) if typed_ok && is_integrity(&e) => {}
                    Err(e) => panic!("{sc:?}: post-recovery write failed: {e}"),
                }
            }
        }
    }
    if !sabotage {
        d.ssd
            .ftl()
            .check_invariants()
            .unwrap_or_else(|e| panic!("{sc:?}: invariants violated: {e}"));
        if !verdict.clean() {
            eprintln!("  ^ combo: {sc:?}");
        }
    }
    Outcome {
        verdict,
        stop: d.stop,
        unacked: d.shadow.unacked(),
        paced: d.paced,
        gc_pumped: d.gc_pumped,
        opened,
        ssd: d.ssd,
    }
}

/// 1-based fault-clock ticks of the trace entries `keep` accepts.
fn ticks_where(trace: &[(FaultOp, OpPhase)], keep: impl Fn(FaultOp, OpPhase) -> bool) -> Vec<u64> {
    trace
        .iter()
        .enumerate()
        .filter(|(_, &(op, phase))| keep(op, phase))
        .map(|(i, _)| i as u64 + 1)
        .collect()
}

/// The `(lba, sectors)` range currently serving `key`: its journal entry
/// if live, its home slot otherwise.
fn serving_range(engine: &KvEngine, key: u64) -> (u64, u32) {
    let layout = engine.layout();
    match engine.journal().jmt().lookup(key) {
        Some(e) => (e.journal_lba, e.sectors),
        None => (layout.home_lba(key), layout.slot_sectors() as u32),
    }
}

/// The flash unit `(page, offset)` behind the first mapping unit of
/// [`serving_range`], if it has been drained to flash.
fn flash_home_of(engine: &KvEngine, ssd: &Ssd, key: u64) -> Option<(Ppn, u32)> {
    let lba = serving_range(engine, key).0;
    match ssd
        .ftl()
        .location_of(Lpn(lba / engine.layout().unit_sectors()))
    {
        Some(Location::Flash(pun)) => {
            let upp = ssd.ftl().units_per_page();
            Some((pun.page(upp), pun.offset(upp)))
        }
        _ => None,
    }
}

/// Flips one seeded bit in `count` distinct stored items — data units
/// with `FlashArray::sabotage_corrupt_unit`, OOB records with
/// `sabotage_corrupt_oob` — probing forward from a random start page to
/// the first page that has the item. Returns how many were hit.
fn inject_rot(
    ssd: &mut Ssd,
    rng: &mut TestRng,
    count: u64,
    corrupt: fn(&mut FlashArray, Ppn, u32, u64) -> bool,
) -> u64 {
    let total = ssd.ftl().flash().geometry().total_pages();
    let upp = u64::from(ssd.ftl().units_per_page());
    let mut hit: Vec<(u64, u32)> = Vec::new();
    for _ in 0..count {
        let start = rng.below(total);
        let index = rng.below(upp) as u32;
        let mask = 1u64 << rng.below(48);
        let flash = ssd.ftl_mut().flash_mut();
        let site = (0..total)
            .map(|probe| ((start + probe) % total, index))
            .find(|site| !hit.contains(site) && corrupt(flash, Ppn(site.0), index, mask));
        hit.extend(site);
    }
    hit.len() as u64
}

/// Patrols the whole device twice with the background scrubber. Returns
/// the corruptions it found.
fn scrub_fully(ssd: &mut Ssd, t: SimTime) -> u64 {
    let total = ssd.ftl().flash().geometry().total_pages();
    let mut t = t.max(ssd.idle_at());
    let mut detected = 0u64;
    for _ in 0..(total.div_ceil(64) * 2 + 2) {
        let (report, done) = ssd
            .background_scrub(t, 64)
            .expect("scrub never fails without armed transients");
        detected += report.detected();
        t = done.max(ssd.idle_at());
    }
    detected
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tier-1 coverage: the whole sweep, in-process. An acked-write loss
    /// or a silently wrong read anywhere fails `cargo test`.
    #[test]
    fn the_whole_sweep_passes() {
        let s = sweep();
        assert!(s.passed(), "chaos sweep failed: {:#?}", s.failures);
    }

    #[test]
    fn a_cut_mid_batch_un_acks_the_whole_batch() {
        let mut shadow = Shadow::loaded();
        let state = |version, deleted| ShadowKey { version, deleted };
        shadow.stage(3, state(2, false));
        shadow.ack_batch();
        shadow.stage(3, state(3, true));
        shadow.stage(3, state(4, false));
        shadow.stage(5, state(2, false));
        assert_eq!(shadow.get(3), state(4, false));
        // The run stops here: nothing of the open batch was acked.
        assert_eq!(shadow.acked[3], state(2, false));
        assert_eq!(shadow.acked[5], state(1, false));
        assert_eq!(shadow.unacked(), 3);
    }
}
