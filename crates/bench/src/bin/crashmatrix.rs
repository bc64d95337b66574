//! `crashmatrix` — the crash/power-loss fault-injection sweep behind the
//! acked-write durability contract (DESIGN.md §9).
//!
//! For every `(strategy, workload seed, cut tick)` combination the matrix
//! drives a full `KvEngine` workload (updates, deletes, inserts,
//! checkpoints, background GC) against a small simulated device, cuts
//! power at a scheduled fault-clock tick, recovers the device
//! (`Ssd::recover_power_loss`) and the engine (`KvEngine::recover`), and
//! checks the result against a shadow key→version model:
//!
//! * **No acked-write loss** — every operation the engine acknowledged
//!   before the cut is readable afterwards with the acked version.
//! * **No resurrection** — a key whose acked deletion preceded the cut
//!   stays deleted after recovery.
//! * The single in-flight operation (the one that observed the power
//!   loss) may land in either its old or new state, but nothing else.
//!
//! Cut ticks are chosen from a profiling pass that records the per-tick
//! `(op, phase)` trace, so the matrix deliberately lands cuts inside the
//! Algorithm-1 checkpoint remap walk, inside GC migration, and inside
//! host deallocation, on top of uniformly random steady-state cuts. A
//! batched-admission tier repeats the sweep with ops admitted in groups
//! of 16 and acked only at batch completion — cuts that land mid-batch
//! must leave every unacked op in either its old or new state, with no
//! acked write dropped or double-applied. A victim-policy tier repeats
//! the sweep under windowed-greedy GC victim selection (the shipped
//! default; the main tiers run greedy) with every cut placed inside a GC
//! migration, since that policy relocates blocks the greedy sweep never
//! touches mid-flight. A media-noise tier re-runs
//! the workload under transient read/program/erase failures plus grown
//! bad blocks and requires a byte-perfect final state. Finally a sabotage self-test deliberately breaks
//! recovery (dropping the capacitor-backed write buffer) and requires
//! the harness to *detect* the loss — proving the matrix can fail.
//!
//! Exit status: 0 on PASS, 1 on any durability failure (or an
//! undetectable sabotage), 2 on bad usage.

use checkin_core::{EngineError, KvEngine, Layout, Strategy};
use checkin_flash::{
    FaultConfig, FaultOp, FaultPhase, FaultPlan, FlashArray, FlashGeometry, FlashTiming,
};
use checkin_ftl::{Ftl, FtlConfig, VictimPolicy};
use checkin_sim::SimTime;
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
/// Base seed of the whole matrix.
const MATRIX_SEED: u64 = 0xC7A5_11FE_2026_0805;

/// A deliberately tight device: 16 blocks of 16 pages (1 MiB) against a
/// ~512 KiB logical space, so GC runs inside every workload.
fn geometry() -> FlashGeometry {
    FlashGeometry {
        channels: 2,
        dies_per_channel: 1,
        planes_per_die: 1,
        blocks_per_plane: 8,
        pages_per_block: 16,
        page_bytes: 4096,
    }
}

fn layout_for(strategy: Strategy) -> Layout {
    Layout::new(
        RECORDS,
        MAX_RECORD_BYTES,
        strategy.default_unit_bytes(),
        ZONE_SECTORS,
    )
}

fn build_ssd(strategy: Strategy, policy: VictimPolicy) -> Ssd {
    let flash = FlashArray::new(geometry(), FlashTiming::mlc());
    let ftl = Ftl::new(
        flash,
        FtlConfig {
            unit_bytes: strategy.default_unit_bytes(),
            write_points: 2,
            gc_threshold_blocks: 3,
            gc_soft_threshold_blocks: 6,
            write_buffer_units: 16,
            victim_policy: policy,
            ..FtlConfig::default()
        },
    )
    .expect("valid FTL config");
    Ssd::new(ftl, SsdTiming::paper_default())
}

/// What the engine acknowledged for one key.
#[derive(Clone, Copy)]
struct ShadowKey {
    version: u64,
    deleted: bool,
}

/// An operation that was admitted but not yet acknowledged when power
/// was lost: under batched admission the client receives acks only when
/// the whole batch completes, so every op of a half-finished batch may
/// land in either its old or new state.
#[derive(Clone, Copy)]
struct Inflight {
    key: u64,
    version: u64,
    delete: bool,
}

#[derive(Clone, Copy)]
enum Op {
    Update(u32),
    Insert(u32),
    Delete,
}

/// One driven workload: the device as the cut left it, plus the shadow
/// model of everything the engine acknowledged. `inflight` holds the
/// unacked tail: the in-progress batch (admitted, not acked) plus the
/// op that observed the cut — empty when the run completed.
struct Driven {
    ssd: Ssd,
    engine: KvEngine,
    shadow: Vec<ShadowKey>,
    inflight: Vec<Inflight>,
    cut: bool,
    t: SimTime,
}

fn is_power_loss(e: &EngineError) -> bool {
    matches!(e, EngineError::Ssd(SsdError::Ftl(f)) if f.is_power_loss())
}

fn apply_op(
    engine: &mut KvEngine,
    ssd: &mut Ssd,
    key: u64,
    op: Op,
    t: SimTime,
) -> Result<SimTime, EngineError> {
    match op {
        Op::Update(bytes) => engine.update(ssd, key, bytes, t),
        Op::Insert(bytes) => engine.insert(ssd, key, bytes, t),
        Op::Delete => engine.delete(ssd, key, t),
    }
}

fn checkpoint_and_gc(
    engine: &mut KvEngine,
    ssd: &mut Ssd,
    t: SimTime,
) -> Result<SimTime, EngineError> {
    let out = engine.checkpoint(ssd, t)?;
    let (_, done) = ssd.background_gc(out.finish, 4)?;
    Ok(done)
}

/// Runs the seeded workload, optionally under `plan` (armed *after* the
/// initial load, so tick indices count steady-state operations). Stops
/// at the first observed power loss.
///
/// `batch` models the system's admission batching: ops are admitted in
/// groups of `batch` and acknowledged to the client only when the whole
/// group completes, with checkpoints confined to batch boundaries (the
/// admission gate's no-straddling rule). The op stream itself is
/// identical for every batch size; only ack timing differs. A cut
/// mid-batch rolls the staged shadow entries back to their pre-batch
/// versions and reports the whole pending group as in flight.
fn drive(
    strategy: Strategy,
    policy: VictimPolicy,
    seed: u64,
    plan: Option<FaultPlan>,
    batch: u32,
) -> Driven {
    let mut ssd = build_ssd(strategy, policy);
    let layout = layout_for(strategy);
    let mut engine = KvEngine::new(strategy, layout, COMPRESSION);
    let mut rng = TestRng::seed_from(seed);
    let records: Vec<(u64, u32)> = (0..RECORDS)
        .map(|k| (k, rng.range_u32(200, MAX_RECORD_BYTES - 48)))
        .collect();
    let mut t = engine
        .load(&mut ssd, &records, SimTime::ZERO)
        .expect("fault-free load");
    let mut shadow = vec![
        ShadowKey {
            version: 1,
            deleted: false,
        };
        RECORDS as usize
    ];
    if let Some(p) = plan {
        ssd.ftl_mut().flash_mut().arm_faults(p);
    }
    let cp_units = (layout.zone_sectors() / layout.unit_sectors()) / 4;
    let mut inflight: Vec<Inflight> = Vec::new();
    let mut cut = false;
    let mut remaining = OPS;

    'ops: while remaining > 0 {
        // Batch boundary: the only place checkpoints are allowed, and the
        // point at which the previous batch's acks became durable facts.
        if engine.journal_used_units() >= cp_units {
            match checkpoint_and_gc(&mut engine, &mut ssd, t) {
                Ok(done) => t = done,
                Err(e) if is_power_loss(&e) => {
                    cut = true;
                    break 'ops;
                }
                Err(e) => panic!("{strategy} seed {seed}: checkpoint failed: {e}"),
            }
        }
        let group = u64::from(batch.max(1)).min(remaining);
        remaining -= group;
        // Acks staged by this batch, with each key's pre-batch shadow
        // value so a mid-batch cut can un-ack the whole group.
        let mut pending: Vec<Inflight> = Vec::new();
        let mut saved: Vec<(u64, ShadowKey)> = Vec::new();
        for _ in 0..group {
            let key = rng.below(RECORDS);
            let entry = shadow[key as usize];
            let bytes = rng.range_u32(200, MAX_RECORD_BYTES - 48);
            let op = if entry.deleted {
                Op::Insert(bytes)
            } else if rng.below(100) < 10 {
                Op::Delete
            } else {
                Op::Update(bytes)
            };
            let next = Inflight {
                key,
                version: entry.version + 1,
                delete: matches!(op, Op::Delete),
            };
            let mut result = apply_op(&mut engine, &mut ssd, key, op, t);
            if matches!(result, Err(EngineError::JournalFull)) {
                // The admission estimate ran short: force the checkpoint
                // the real system would have taken at the boundary. A cut
                // inside it leaves `next` un-issued (it never touched the
                // journal), so only the already-issued group is in flight.
                match checkpoint_and_gc(&mut engine, &mut ssd, t) {
                    Ok(done) => t = done,
                    Err(e) if is_power_loss(&e) => {
                        for &(k, old) in &saved {
                            shadow[k as usize] = old;
                        }
                        inflight = pending;
                        cut = true;
                        break 'ops;
                    }
                    Err(e) => panic!("{strategy} seed {seed}: checkpoint failed: {e}"),
                }
                result = apply_op(&mut engine, &mut ssd, key, op, t);
            }
            match result {
                Ok(done) => {
                    t = done;
                    if !saved.iter().any(|&(k, _)| k == key) {
                        saved.push((key, entry));
                    }
                    shadow[key as usize] = ShadowKey {
                        version: next.version,
                        deleted: next.delete,
                    };
                    pending.push(next);
                }
                Err(e) if is_power_loss(&e) => {
                    for &(k, old) in &saved {
                        shadow[k as usize] = old;
                    }
                    pending.push(next);
                    inflight = pending;
                    cut = true;
                    break 'ops;
                }
                Err(e) => panic!("{strategy} seed {seed}: op failed: {e}"),
            }
        }
        // Batch completed: its staged shadow entries are now acked.
    }
    Driven {
        ssd,
        engine,
        shadow,
        inflight,
        cut,
        t,
    }
}

/// Durability verdict of one recovered run.
#[derive(Default, Clone, Copy)]
struct Verdict {
    checked: u64,
    losses: u64,
    resurrections: u64,
}

impl Verdict {
    fn absorb(&mut self, other: Verdict) {
        self.checked += other.checked;
        self.losses += other.losses;
        self.resurrections += other.resurrections;
    }

    fn clean(&self) -> bool {
        self.losses == 0 && self.resurrections == 0
    }
}

/// Checks every key of the recovered engine against the shadow model,
/// tolerating only the in-flight (admitted, unacked) operations in
/// either state. The engine issues a batch sequentially, so only a
/// prefix of `inflight` can have reached the journal; any of those
/// versions — or the pre-batch acked one — is an acceptable recovered
/// state, and anything else is a loss or a resurrection.
fn verify(
    engine: &mut KvEngine,
    ssd: &mut Ssd,
    shadow: &[ShadowKey],
    inflight: &[Inflight],
    t: SimTime,
    announce: bool,
) -> Verdict {
    let mut v = Verdict::default();
    for (key, exp) in shadow.iter().enumerate() {
        let key = key as u64;
        let infl: Vec<&Inflight> = inflight.iter().filter(|i| i.key == key).collect();
        v.checked += 1;
        let read = engine.get(ssd, key, t);
        match (exp.deleted, read) {
            (false, Ok(r)) => {
                let ok = r.version == exp.version
                    || infl.iter().any(|i| !i.delete && r.version == i.version);
                if !ok {
                    if r.version < exp.version {
                        v.losses += 1;
                        if announce {
                            eprintln!(
                                "  LOSS key {key}: acked v{}, recovered v{}",
                                exp.version, r.version
                            );
                        }
                    } else {
                        v.resurrections += 1;
                        if announce {
                            eprintln!(
                                "  TORN key {key}: acked v{}, recovered v{}",
                                exp.version, r.version
                            );
                        }
                    }
                }
            }
            (false, Err(EngineError::UnknownKey(_))) => {
                if !infl.iter().any(|i| i.delete) {
                    v.losses += 1;
                    if announce {
                        eprintln!("  LOSS key {key}: acked v{} unreadable", exp.version);
                    }
                }
            }
            (true, Err(EngineError::UnknownKey(_))) => {}
            (true, Ok(r)) => {
                let ok = infl.iter().any(|i| !i.delete && r.version == i.version);
                if !ok {
                    v.resurrections += 1;
                    if announce {
                        eprintln!(
                            "  RESURRECTED key {key}: acked delete v{}, readable v{}",
                            exp.version, r.version
                        );
                    }
                }
            }
            (_, Err(e)) => panic!("verify read of key {key} failed: {e}"),
        }
    }
    v
}

/// Profiling pass: same seed and batch, no faults injected, full
/// per-tick trace (tick indices only match a drive with the same batch).
fn profile(
    strategy: Strategy,
    policy: VictimPolicy,
    seed: u64,
    batch: u32,
) -> Vec<(FaultOp, FaultPhase)> {
    let plan = FaultPlan::new(FaultConfig {
        record_trace: true,
        ..FaultConfig::default()
    });
    let d = drive(strategy, policy, seed, Some(plan), batch);
    d.ssd
        .ftl()
        .flash()
        .fault_plan()
        .expect("plan stays armed")
        .trace()
        .to_vec()
}

/// Picks cut ticks from a trace: the first and middle tick of every
/// interesting phase (checkpoint remap walk, GC migration, host
/// deallocation), topped up with uniformly random steady-state ticks.
fn choose_cuts(trace: &[(FaultOp, FaultPhase)], rng: &mut TestRng, total: usize) -> Vec<u64> {
    let mut ticks: Vec<u64> = Vec::new();
    for phase in [
        FaultPhase::CheckpointRemap,
        FaultPhase::Gc,
        FaultPhase::HostDeallocate,
    ] {
        let idxs: Vec<u64> = trace
            .iter()
            .enumerate()
            .filter(|(_, op)| op.1 == phase)
            .map(|(i, _)| i as u64 + 1)
            .collect();
        if let Some(&first) = idxs.first() {
            ticks.push(first);
        }
        if idxs.len() > 2 {
            ticks.push(idxs[idxs.len() / 2]);
        }
    }
    while ticks.len() < total {
        ticks.push(rng.range_u64(1, trace.len() as u64));
    }
    ticks.sort_unstable();
    ticks.dedup();
    ticks
}

/// Picks cut ticks for the batched tier: evenly spaced steady-state
/// (non-checkpoint, non-GC) ticks. Checkpoints sit at batch boundaries
/// where nothing is unacked, so targeting them — as [`choose_cuts`]
/// does — would never land inside a batch.
fn choose_mid_batch_cuts(trace: &[(FaultOp, FaultPhase)], total: usize) -> Vec<u64> {
    let normals: Vec<u64> = trace
        .iter()
        .enumerate()
        .filter(|(_, op)| op.1 == FaultPhase::Normal)
        .map(|(i, _)| i as u64 + 1)
        .collect();
    let mut ticks: Vec<u64> = (1..=total)
        .filter_map(|i| normals.get(i * normals.len() / (total + 1)).copied())
        .collect();
    ticks.sort_unstable();
    ticks.dedup();
    ticks
}

/// One combo: drive to the cut, recover the device and the engine,
/// verify against the shadow. Returns the verdict plus the number of
/// admitted-but-unacked ops at the cut (> 1 means the cut landed mid
/// batch). With `sabotage`, the capacitor-backed write buffer is
/// dropped before recovery — the verdict must then show losses, proving
/// the harness detects broken recovery.
fn run_cut(
    strategy: Strategy,
    policy: VictimPolicy,
    seed: u64,
    cut_tick: u64,
    sabotage: bool,
    batch: u32,
) -> (Verdict, usize) {
    let plan = FaultPlan::new(FaultConfig::power_cut(seed ^ cut_tick, cut_tick));
    let mut d = drive(strategy, policy, seed, Some(plan), batch);
    if !d.ssd.powered_off() {
        // The schedule outlived the workload: cut at the end so the
        // recovery path always runs. Nothing was in flight.
        d.ssd.ftl_mut().flash_mut().cut_power();
        d.inflight.clear();
    }
    if sabotage {
        d.ssd.ftl_mut().sabotage_drop_write_buffer();
    }
    d.ssd
        .recover_power_loss()
        .expect("SPOR recovery after an injected power cut");
    let (mut engine, t) = KvEngine::recover(
        strategy,
        layout_for(strategy),
        COMPRESSION,
        &mut d.ssd,
        RECORDS,
        d.t,
    )
    .expect("engine recovery");
    let verdict = verify(
        &mut engine,
        &mut d.ssd,
        &d.shadow,
        &d.inflight,
        t,
        !sabotage,
    );
    if !sabotage {
        d.ssd
            .ftl()
            .check_invariants()
            .expect("post-recovery invariants");
        engine
            .insert(&mut d.ssd, 0, 512, t)
            .expect("post-recovery write");
    }
    (verdict, d.inflight.len())
}

/// Media-noise accounting collected across the noise tier.
#[derive(Default, Clone, Copy)]
struct MediaStats {
    transients: u64,
    retries: u64,
    grown: u64,
    retired: u64,
}

/// One media-noise run: transient failures plus grown bad blocks, no
/// power cut. Every op must succeed (retries and retirement absorb the
/// faults) and the final state must match the shadow exactly.
fn run_noise(strategy: Strategy, seed: u64) -> (Verdict, MediaStats) {
    let plan = FaultPlan::new(FaultConfig {
        seed: seed ^ 0xD15E_A5ED,
        transient_read: 0.01,
        transient_program: 0.01,
        transient_erase: 0.02,
        grown_bad_block: 0.0008,
        ..FaultConfig::default()
    });
    let mut d = drive(strategy, VictimPolicy::Greedy, seed, Some(plan), 1);
    assert!(!d.cut, "noise tier has no power cut");
    let mut engine = d.engine;
    let verdict = verify(&mut engine, &mut d.ssd, &d.shadow, &[], d.t, true);
    d.ssd
        .ftl()
        .check_invariants()
        .expect("post-noise invariants");
    let stats = MediaStats {
        transients: d.ssd.ftl().flash().counters().get("flash.transient_faults"),
        retries: d.ssd.ftl().counters().get("ftl.media_retries"),
        grown: d.ssd.ftl().flash().counters().get("flash.grown_bad_blocks"),
        retired: d.ssd.ftl().counters().get("ftl.blocks_retired"),
    };
    (verdict, stats)
}

/// Deliberately breaks recovery and requires the harness to notice:
/// returns true when at least one sabotaged combo reports losses.
fn sabotage_self_test(combos: &mut u64) -> bool {
    let strategy = Strategy::CheckIn;
    let seed = MATRIX_SEED ^ 0x5AB0_7A6E;
    let trace_len = profile(strategy, VictimPolicy::Greedy, seed, 1).len() as u64;
    let mut rng = TestRng::seed_from(seed);
    for _ in 0..8 {
        let tick = rng.range_u64(trace_len / 4, trace_len.max(2) - 1);
        *combos += 1;
        if !run_cut(strategy, VictimPolicy::Greedy, seed, tick, true, 1)
            .0
            .clean()
        {
            return true;
        }
    }
    false
}

fn section(title: &str) {
    println!("\n== {title}");
}

fn phase_name(phase: FaultPhase) -> &'static str {
    match phase {
        FaultPhase::CheckpointRemap => "remap",
        FaultPhase::Gc => "gc",
        FaultPhase::HostDeallocate => "dealloc",
        FaultPhase::Normal => "steady",
    }
}

fn main() {
    let mut quick = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--quick" => quick = true,
            other => {
                eprintln!("error: unknown argument `{other}`");
                eprintln!("usage: crashmatrix [--quick]");
                std::process::exit(2);
            }
        }
    }
    let mode = if quick { "quick" } else { "full" };
    let strategies: Vec<Strategy> = if quick {
        vec![Strategy::Baseline, Strategy::CheckIn]
    } else {
        Strategy::all().to_vec()
    };
    let workload_seeds: u64 = if quick { 2 } else { 6 };
    let cuts_per_workload: usize = if quick { 6 } else { 7 };
    let noise_seeds: u64 = if quick { 1 } else { 2 };
    println!("crashmatrix ({mode}): {RECORDS} keys, {OPS} ops/run");

    let mut total = Verdict::default();
    let mut combos = 0u64;
    // Cut counts per phase: [remap, gc, dealloc, steady].
    let mut phase_cuts = [0u64; 4];

    section("power-cut sweep");
    for &strategy in &strategies {
        for s in 0..workload_seeds {
            let seed = MATRIX_SEED.wrapping_add(s.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                ^ (strategy.default_unit_bytes() as u64)
                ^ (strategy.label().len() as u64) << 32;
            let trace = profile(strategy, VictimPolicy::Greedy, seed, 1);
            let mut rng = TestRng::seed_from(seed ^ 0xC07);
            let cuts = choose_cuts(&trace, &mut rng, cuts_per_workload);
            let mut phases = Vec::new();
            for &tick in &cuts {
                let phase = trace
                    .get((tick - 1) as usize)
                    .map_or(FaultPhase::Normal, |&(_, p)| p);
                phases.push(phase_name(phase));
                match phase {
                    FaultPhase::CheckpointRemap => phase_cuts[0] += 1,
                    FaultPhase::Gc => phase_cuts[1] += 1,
                    FaultPhase::HostDeallocate => phase_cuts[2] += 1,
                    FaultPhase::Normal => phase_cuts[3] += 1,
                }
                combos += 1;
                let (v, _) = run_cut(strategy, VictimPolicy::Greedy, seed, tick, false, 1);
                if !v.clean() {
                    eprintln!(
                        "  ^ combo: {} seed {s} cut tick {tick} ({})",
                        strategy.label(),
                        phase_name(phase)
                    );
                }
                total.absorb(v);
            }
            println!(
                "  {:<9} seed {s}: {} ticks traced, cuts at {:?} ({})",
                strategy.label(),
                trace.len(),
                cuts,
                phases.join(",")
            );
        }
    }

    // Same durability contract, but the client admits ops in groups of
    // 16 and acks only whole batches — cuts that land mid-batch must
    // leave every unacked op in either its old or new state, with no
    // dropped or double-applied acked write.
    section("batched-admission power-cut sweep (admission batch 16)");
    let batch = 16u32;
    let batched_seeds: u64 = if quick { 1 } else { 2 };
    let mut mid_batch_cuts = 0u64;
    for &strategy in &strategies {
        for s in 0..batched_seeds {
            let seed = MATRIX_SEED.wrapping_add(s.wrapping_mul(0xD1B5_4A32_D192_ED03))
                ^ (strategy.default_unit_bytes() as u64) << 8
                ^ 0xBA7C_4ED0;
            let trace = profile(strategy, VictimPolicy::Greedy, seed, batch);
            let cuts = choose_mid_batch_cuts(&trace, cuts_per_workload);
            let mut unacked = Vec::new();
            for &tick in &cuts {
                combos += 1;
                let (v, pending) =
                    run_cut(strategy, VictimPolicy::Greedy, seed, tick, false, batch);
                unacked.push(pending);
                if pending > 1 {
                    mid_batch_cuts += 1;
                }
                if !v.clean() {
                    eprintln!(
                        "  ^ combo: {} seed {s} batch {batch} cut tick {tick} \
                         ({pending} ops unacked)",
                        strategy.label()
                    );
                }
                total.absorb(v);
            }
            println!(
                "  {:<9} seed {s}: cuts at {:?}, unacked ops {:?}",
                strategy.label(),
                cuts,
                unacked
            );
        }
    }

    // Windowed-greedy relocates different blocks at different times than
    // the greedy the tiers above run, so a cut landing mid-migration
    // exercises recovery over GC states they never produce. It must get
    // at least one genuine mid-GC cut, in quick mode too.
    section("victim-policy power-cut sweep (cuts inside GC migration)");
    let policy = VictimPolicy::WINDOWED_DEFAULT;
    let cuts_per_policy: usize = if quick { 2 } else { 4 };
    let strategy = Strategy::CheckIn;
    let seed = MATRIX_SEED ^ 0x6C1A_B000 ^ (2 << 24);
    let trace = profile(strategy, policy, seed, 1);
    let gc_ticks: Vec<u64> = trace
        .iter()
        .enumerate()
        .filter(|(_, op)| op.1 == FaultPhase::Gc)
        .map(|(i, _)| i as u64 + 1)
        .collect();
    // First, middle, and evenly spaced mid-GC ticks up to the budget.
    let mut policy_gc_cuts: Vec<u64> = (0..cuts_per_policy)
        .filter_map(|i| gc_ticks.get(i * gc_ticks.len() / cuts_per_policy).copied())
        .collect();
    policy_gc_cuts.dedup();
    for &tick in &policy_gc_cuts {
        combos += 1;
        phase_cuts[1] += 1;
        let (v, _) = run_cut(strategy, policy, seed, tick, false, 1);
        if !v.clean() {
            eprintln!("  ^ combo: {policy} cut tick {tick} (mid-GC)");
        }
        total.absorb(v);
    }
    println!(
        "  {:<18} {} GC ticks traced, cuts at {:?}",
        policy.label(),
        gc_ticks.len(),
        policy_gc_cuts
    );

    section("media-noise tier (transients + grown bad blocks, no cut)");
    let mut media = MediaStats::default();
    for &strategy in &strategies {
        for s in 0..noise_seeds {
            let seed = MATRIX_SEED ^ 0xBAD_F1A5 ^ s ^ (strategy.default_unit_bytes() as u64) << 16;
            combos += 1;
            let (verdict, stats) = run_noise(strategy, seed);
            total.absorb(verdict);
            media.transients += stats.transients;
            media.retries += stats.retries;
            media.grown += stats.grown;
            media.retired += stats.retired;
            println!(
                "  {:<9} seed {s}: transients {} (retries {}), grown bad {}, retired {}",
                strategy.label(),
                stats.transients,
                stats.retries,
                stats.grown,
                stats.retired
            );
        }
    }

    section("sabotage self-test (recovery deliberately broken)");
    let detected = sabotage_self_test(&mut combos);
    println!(
        "  dropped write buffer before rebuild: loss {}",
        if detected { "DETECTED" } else { "MISSED" }
    );

    section(&format!("summary ({mode})"));
    println!("  combos            {combos}");
    println!(
        "  cut phases        remap {}, gc {}, dealloc {}, steady {}",
        phase_cuts[0], phase_cuts[1], phase_cuts[2], phase_cuts[3]
    );
    println!("  mid-batch cuts    {mid_batch_cuts}");
    println!("  keys checked      {}", total.checked);
    println!("  acked losses      {}", total.losses);
    println!("  resurrections     {}", total.resurrections);
    println!(
        "  media             transients {} (retries {}), grown bad {}, retired {}",
        media.transients, media.retries, media.grown, media.retired
    );

    let mut failed = false;
    if !total.clean() {
        eprintln!(
            "FAIL: {} acked-write losses, {} resurrections",
            total.losses, total.resurrections
        );
        failed = true;
    }
    if phase_cuts[0] == 0 || phase_cuts[1] == 0 {
        eprintln!(
            "FAIL: matrix missed a required cut phase (remap {}, gc {})",
            phase_cuts[0], phase_cuts[1]
        );
        failed = true;
    }
    if mid_batch_cuts == 0 {
        eprintln!("FAIL: no cut landed mid-batch — the batched tier exercised nothing new");
        failed = true;
    }
    if policy_gc_cuts.is_empty() {
        eprintln!("FAIL: windowed-greedy got no mid-GC cut");
        failed = true;
    }
    if !detected {
        eprintln!("FAIL: sabotaged recovery went undetected — the harness cannot see losses");
        failed = true;
    }
    if !quick && combos < 200 {
        eprintln!("FAIL: only {combos} combos (need >= 200 in full mode)");
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
    println!(
        "PASS: {combos} combos, zero acked-write losses, zero resurrections, sabotage detected"
    );
}
