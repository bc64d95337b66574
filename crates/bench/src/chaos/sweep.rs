//! The test plan: every tier is a loop over [`Scenario`] rows, judged by
//! [`run`] under the tier's tolerance, with an impotence gate that fails
//! the sweep if the tier's faults never fired.

use checkin_core::{EngineError, Strategy};
use checkin_flash::{FaultConfig, FaultOp, FlashArray, OpPhase};
use checkin_sim::{Counter, SimTime};
use checkin_ssd::ReadRequest;
use checkin_testkit::TestRng;

use super::{
    drive_clean, flash_home_of, inject_rot, is_integrity, joined_program_ticks, judge_read,
    profile, run, scrub_fully, serving_range, ticks_where, verify, Driven, Outcome, Scenario, Stop,
    Verdict, OPS, RECORDS, TWO_PLANE_TIER,
};
use crate::section;

/// Base seeds of the power-cut tiers and of the integrity tiers. Two,
/// because they are the seeds of the two harnesses this sweep replaced:
/// keeping them keeps every tier's cut ticks and injected faults the
/// ones EXPERIMENTS.md records.
const CUT_SEED: u64 = 0xC7A5_11FE_2026_0805;
const ROT_SEED: u64 = 0xC044_0B7A_2026_0808;
/// Untargeted corruptions injected per post-hoc data-rot row (half as
/// many per OOB-rot row).
const INJECTIONS: u64 = 24;
/// Idle-window scrub budget of the integrity tiers, in pages.
const SCRUB_PAGES: u32 = 32;
/// Golden-ratio stride that spreads per-workload seeds.
const STRIDE: u64 = 0x9E37_79B9_7F4A_7C15;

/// Result of the whole sweep.
#[derive(Debug, Default)]
pub struct Sweep {
    /// Scenario rows judged.
    pub combos: u64,
    /// Sum of every row's verdict.
    pub total: Verdict,
    /// One line per failed gate; empty on PASS.
    pub failures: Vec<String>,
    /// Rows that failed as their `known_defect` pin records.
    pub expected_failures: u64,
    /// Phase each aimed power cut landed in.
    cut_phases: Vec<OpPhase>,
    /// Aimed power cuts that found a checkpoint's copy still being
    /// pumped.
    paced_cuts: usize,
    /// Aimed power cuts that found a background GC round in flight.
    gc_cuts: usize,
}

impl Sweep {
    /// True when no gate failed.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }

    fn gate(&mut self, ok: bool, why: &str) {
        if !ok {
            eprintln!("FAIL: {why}");
            self.failures.push(why.to_string());
        }
    }

    /// Runs one row and adds it to the totals.
    fn judge(&mut self, sc: &Scenario, typed_ok: bool) -> Outcome {
        self.judge_pinned(sc, typed_ok, None)
    }

    /// [`Sweep::judge`], unless the row is pinned as the [`known_defect`]
    /// `pin`: an expected failure stays out of the totals, and must still
    /// fail for the recorded reason or the pin is stale.
    fn judge_pinned(&mut self, sc: &Scenario, typed_ok: bool, pin: Option<&str>) -> Outcome {
        let o = run(sc, typed_ok, false);
        self.combos += 1;
        let v = o.verdict;
        match pin {
            None => self.total.absorb(v),
            Some(name) => {
                println!("  expected failure {name}: {} acked keys lost", v.losses);
                self.expected_failures += 1;
                self.gate(
                    v.losses > 0 && v.silent_wrong == 0 && v.resurrections == 0,
                    &format!("{name} no longer fails as recorded ({v:?}): remove its pin"),
                );
            }
        }
        o
    }

    /// Judges a run the tier damaged after the fact, against the engine
    /// that drove it. Returns the reads that failed typed.
    fn judge_in_place(&mut self, sc: &Scenario, d: &mut Driven, typed_ok: bool, t: SimTime) -> u64 {
        let v = verify(&mut d.engine, &mut d.ssd, &d.shadow, typed_ok, t, true);
        if !v.clean() {
            eprintln!("  ^ combo: {sc:?}");
        }
        self.combos += 1;
        self.total.absorb(v);
        v.detected_reads
    }

    /// Judges `base` once per tick with a clean (fail-stop) power cut
    /// there, recording which phase each cut landed in.
    fn cut_at_each(
        &mut self,
        base: &Scenario,
        trace: &[(FaultOp, OpPhase)],
        ticks: &[u64],
    ) -> Vec<Outcome> {
        let cut = |tick| base.with_faults(FaultConfig::power_cut(base.seed ^ tick, tick));
        ticks
            .iter()
            .map(|&tick| {
                self.cut_phases.push(phase_at(trace, tick));
                let o = self.judge(&cut(tick), false);
                self.paced_cuts += usize::from(o.paced);
                self.gc_cuts += usize::from(o.gc_pumped);
                o
            })
            .collect()
    }

    fn cuts_in(&self, phase: OpPhase) -> usize {
        self.cut_phases.iter().filter(|&&p| p == phase).count()
    }
}

/// Phase of 1-based `tick`, which must come from `trace`.
fn phase_at(trace: &[(FaultOp, OpPhase)], tick: u64) -> OpPhase {
    trace[(tick - 1) as usize].1
}

/// Steady state: every phase no tier aims at — anything but GC, the
/// checkpoint remap walk and host deallocation.
fn is_steady(phase: OpPhase) -> bool {
    !matches!(
        phase,
        OpPhase::Gc | OpPhase::CheckpointRemap | OpPhase::Dealloc
    )
}

fn unit(strategy: Strategy) -> u64 {
    u64::from(strategy.default_unit_bytes())
}

/// The first tick, and the middle one when there are more than two.
fn first_and_middle(ticks: &[u64]) -> impl Iterator<Item = u64> + '_ {
    let middle = (ticks.len() > 2).then(|| ticks[ticks.len() / 2]);
    ticks.first().copied().into_iter().chain(middle)
}

/// Up to `n` ticks evenly spaced strictly inside `ticks`.
fn spread(ticks: &[u64], n: usize) -> Vec<u64> {
    let mut picked: Vec<u64> = (1..=n)
        .filter_map(|i| ticks.get(i * ticks.len() / (n + 1)).copied())
        .collect();
    picked.dedup();
    picked
}

fn sorted(mut ticks: Vec<u64>) -> Vec<u64> {
    ticks.sort_unstable();
    ticks.dedup();
    ticks
}

/// Phase-targeted cuts: the first and middle tick of the checkpoint
/// remap walk, of GC migration and of host deallocation, topped up with
/// uniformly random steady-state ticks.
fn phase_cuts(trace: &[(FaultOp, OpPhase)], rng: &mut TestRng, total: usize) -> Vec<u64> {
    let mut ticks: Vec<u64> = Vec::new();
    for phase in [OpPhase::CheckpointRemap, OpPhase::Gc, OpPhase::Dealloc] {
        ticks.extend(first_and_middle(&ticks_where(trace, |_, p| p == phase)));
    }
    while ticks.len() < total {
        ticks.push(rng.range_u64(1, trace.len() as u64));
    }
    sorted(ticks)
}

/// Cuts that land on *program* operations, so the torn-write injector
/// commits a torn page: the first and middle program of GC migration and
/// of the checkpoint walk when the trace has them (luck alone rarely
/// tears a page there), the first, middle and last program overall, and
/// random programs up to `total`.
fn torn_cuts(trace: &[(FaultOp, OpPhase)], rng: &mut TestRng, total: usize) -> Vec<u64> {
    let programs = ticks_where(trace, |op, _| op == FaultOp::Program);
    let mut ticks: Vec<u64> = Vec::new();
    for phase in [OpPhase::Gc, OpPhase::CheckpointRemap] {
        let in_phase = ticks_where(trace, |op, p| op == FaultOp::Program && p == phase);
        ticks.extend(first_and_middle(&in_phase));
    }
    ticks.extend(first_and_middle(&programs).chain(programs.last().copied()));
    while !programs.is_empty() && ticks.len() < total {
        ticks.push(programs[rng.below(programs.len() as u64) as usize]);
    }
    sorted(ticks)
}

fn power_cut_tier(s: &mut Sweep) {
    section("power-cut sweep (cuts aimed at the remap walk, GC and deallocation)");
    for strategy in Strategy::all() {
        for n in 0..6u64 {
            let seed = CUT_SEED.wrapping_add(n.wrapping_mul(STRIDE))
                ^ unit(strategy)
                ^ (strategy.label().len() as u64) << 32;
            let base = Scenario::new("power-cut", strategy, seed);
            let trace = profile(&base);
            let cuts = phase_cuts(&trace, &mut TestRng::seed_from(seed ^ 0xC07), 7);
            s.cut_at_each(&base, &trace, &cuts);
            println!(
                "  {:<9} seed {n}: {} ticks traced, cuts at {cuts:?}",
                strategy.label(),
                trace.len()
            );
        }
    }
    let (remap, gc) = (s.cuts_in(OpPhase::CheckpointRemap), s.cuts_in(OpPhase::Gc));
    s.gate(
        remap > 0 && gc > 0,
        &format!("power-cut tier missed a required cut phase (remap {remap}, gc {gc})"),
    );
}

/// Same durability contract, but the client admits ops in groups of 16
/// and acks only whole batches — a cut that lands mid-batch must leave
/// every unacked op in either its old or new state, with no acked write
/// dropped or double-applied.
fn batched_tier(s: &mut Sweep) {
    section("batched-admission power-cut sweep (admission batch 16)");
    let mut mid_batch = 0usize;
    for strategy in Strategy::all() {
        for n in 0..2u64 {
            let seed = CUT_SEED.wrapping_add(n.wrapping_mul(0xD1B5_4A32_D192_ED03))
                ^ unit(strategy) << 8
                ^ 0xBA7C_4ED0;
            let base = Scenario {
                batch: 16,
                ..Scenario::new("batched", strategy, seed)
            };
            let trace = profile(&base);
            // Checkpoints sit at batch boundaries where nothing is
            // unacked, so aiming at phases would never land inside a
            // batch: take evenly spaced steady-state ticks instead.
            let steady = ticks_where(&trace, |_, p| is_steady(p));
            let cuts = spread(&steady, 7);
            let unacked: Vec<usize> = s
                .cut_at_each(&base, &trace, &cuts)
                .iter()
                .map(|o| o.unacked)
                .collect();
            mid_batch += unacked.iter().filter(|&&u| u > 1).count();
            println!(
                "  {:<9} seed {n}: cuts at {cuts:?}, unacked ops {unacked:?}",
                strategy.label()
            );
        }
    }
    println!("  mid-batch cuts {mid_batch}");
    s.gate(
        mid_batch > 0,
        "no cut landed mid-batch — the batched tier exercised nothing new",
    );
}

/// Four cuts evenly spaced over one run's GC ticks (the power-cut tier
/// aims at the first and the middle one only): every cut here sits
/// inside a GC migration.
fn gc_migration_tier(s: &mut Sweep) {
    section("gc-migration power-cut sweep (cuts inside GC migration)");
    let seed = CUT_SEED ^ 0x6C1A_B000 ^ (2 << 24);
    let base = Scenario::new("gc-migration", Strategy::CheckIn, seed);
    let trace = profile(&base);
    let gc_ticks = ticks_where(&trace, |_, p| p == OpPhase::Gc);
    let cuts = spread(&gc_ticks, 4);
    s.cut_at_each(&base, &trace, &cuts);
    println!("  {} GC ticks traced, cuts at {cuts:?}", gc_ticks.len());
    s.gate(!cuts.is_empty(), "no cut landed inside a GC migration");
}

/// Transient read/program/erase failures at the rates every noisy row uses.
fn media_noise(seed: u64) -> FaultConfig {
    FaultConfig {
        seed,
        transient_read: 0.01,
        transient_program: 0.01,
        transient_erase: 0.02,
        ..FaultConfig::default()
    }
}

/// Transient read/program/erase failures plus grown bad blocks, no cut:
/// retries and block retirement must absorb every fault, so every op
/// succeeds and the final state matches the shadow exactly.
fn noise_tier(s: &mut Sweep) {
    section("media-noise tier (transients + grown bad blocks, no cut)");
    let (mut transients, mut stopped) = (0u64, 0u64);
    for strategy in Strategy::all() {
        for n in 0..2u64 {
            let seed = CUT_SEED ^ 0xBAD_F1A5 ^ n ^ unit(strategy) << 16;
            let faults = FaultConfig {
                grown_bad_block: 0.0008,
                ..media_noise(seed ^ 0xD15E_A5ED)
            };
            let o = s.judge(
                &Scenario::new("noise", strategy, seed).with_faults(faults),
                false,
            );
            transients += o.counter(Counter::FlashTransientFaults);
            stopped += u64::from(o.stop != Stop::Completed);
            println!(
                "  {:<9} seed {n}: transients {} (retries {}), grown bad {}, retired {}",
                strategy.label(),
                o.counter(Counter::FlashTransientFaults),
                o.counter(Counter::FtlMediaRetries),
                o.counter(Counter::FlashGrownBadBlocks),
                o.counter(Counter::FtlBlocksRetired)
            );
        }
    }
    s.gate(
        transients > 0 && stopped == 0,
        &format!("noise tier: transients {transients}, runs that did not complete {stopped}"),
    );
}

/// Power cuts with `torn_writes`: the interrupted program leaves a
/// partially-programmed page whose sealed checksums no longer verify.
/// The SPOR scan must reject the torn tail and the durability contract
/// must hold. A typed read failure is a failure here too: a torn page's
/// program never completed, so nothing may reference it.
fn torn_tier(s: &mut Sweep) {
    section("torn-write power-cut sweep (cuts on program ticks, GC and checkpoint first)");
    let (mut torn, mut torn_in_gc) = (0u64, 0u64);
    for strategy in Strategy::all() {
        for n in 0..3u64 {
            let seed = ROT_SEED.wrapping_add(n.wrapping_mul(STRIDE)) ^ unit(strategy) ^ 0x70A2;
            let base = scrubbed("torn", strategy, seed);
            let trace = profile(&base);
            let cuts = torn_cuts(&trace, &mut TestRng::seed_from(seed ^ 0x7042), 9);
            let mut torn_here = 0u64;
            for &tick in &cuts {
                let faults = FaultConfig {
                    torn_writes: true,
                    ..FaultConfig::power_cut(seed ^ tick, tick)
                };
                let o = s.judge(&base.with_faults(faults), false);
                torn_here += o.counter(Counter::FlashTornWrites);
                if phase_at(&trace, tick) == OpPhase::Gc {
                    torn_in_gc += o.counter(Counter::FlashTornWrites);
                }
            }
            torn += torn_here;
            println!(
                "  {:<9} seed {n}: cuts at {cuts:?}, torn pages {torn_here}",
                strategy.label()
            );
        }
    }
    println!("  torn pages {torn}, of them inside GC {torn_in_gc}");
    s.gate(
        torn > 0,
        "no torn page was ever committed — the torn tier exercised nothing",
    );
    s.gate(torn_in_gc > 0, "no torn page was committed inside GC");
}

/// Every other tier runs on one plane per die, where every program is a
/// page of its own. Here the dies have two planes and a write point
/// each, every page-out programs a plane pair, and cuts land on the
/// second page of a pair, between its two fault ticks — the first,
/// middle and last such page of each row — once fail-stop (neither page
/// lands) and once torn (the first lands whole, the second torn). Each
/// torn cut must tear exactly the one page it was aimed at, and the
/// durability contract must hold with no typed failure tolerated, as in
/// the torn tier.
fn two_plane_tier(s: &mut Sweep) {
    section("two-plane power-cut sweep (cuts on the second page of a plane-pair program)");
    let (mut torn_cuts, mut torn, mut rows_without_joins) = (0u64, 0u64, 0u64);
    for (n, strategy) in (0u64..).zip(Strategy::all()) {
        let seed = CUT_SEED ^ 0x2_B1A4E ^ (n << 36);
        let base = Scenario::new(TWO_PLANE_TIER, strategy, seed);
        let joined = joined_program_ticks(&base);
        let cuts = sorted(
            first_and_middle(&joined)
                .chain(joined.last().copied())
                .collect(),
        );
        rows_without_joins += u64::from(cuts.is_empty());
        for &tick in &cuts {
            for torn_writes in [false, true] {
                let faults = FaultConfig {
                    torn_writes,
                    ..FaultConfig::power_cut(seed ^ tick, tick)
                };
                let o = s.judge(&base.with_faults(faults), false);
                torn_cuts += u64::from(torn_writes);
                torn += o.counter(Counter::FlashTornWrites);
            }
        }
        println!(
            "  {:<9} {} plane pairs, cuts at {cuts:?}",
            strategy.label(),
            joined.len()
        );
    }
    println!("  torn cuts {torn_cuts}, torn pages {torn}");
    s.gate(
        torn_cuts > 0 && torn == torn_cuts && rows_without_joins == 0,
        &format!(
            "two-plane tier: {torn} torn pages from {torn_cuts} torn cuts, {rows_without_joins} \
             rows with no plane pair"
        ),
    );
}

/// Sums `f` over a tier's outcomes.
fn sum(outs: &[Outcome], f: impl Fn(&Outcome) -> u64) -> u64 {
    outs.iter().map(f).sum()
}

/// A row of an integrity tier: the scrubber patrols idle windows.
fn scrubbed(tier: &'static str, strategy: Strategy, seed: u64) -> Scenario {
    Scenario {
        scrub_pages: SCRUB_PAGES,
        ..Scenario::new(tier, strategy, seed)
    }
}

/// Retention rot strikes data units and OOB records mid-workload;
/// foreground reads, GC relocation and the scrubber must catch whatever
/// surfaces. Even a remap checkpoint read-modify-writes a partially
/// filled unit and can die typed — see [`Stop::CheckpointIntegrity`] —
/// so the gate also fails if the whole tier ends up unverified.
fn live_rot_tier(s: &mut Sweep) {
    section("live bit-rot tier (Check-In, rot strikes mid-workload)");
    let mut outs = Vec::new();
    for rate in [0.001, 0.003] {
        for n in 0..12u64 {
            let seed = ROT_SEED ^ 0xB17_207 ^ (n << 8) ^ ((rate * 1e6) as u64);
            let faults = FaultConfig {
                seed: seed ^ 0xDECA7,
                bit_rot_data: rate,
                bit_rot_oob: rate / 2.0,
                ..FaultConfig::default()
            };
            let sc = scrubbed("live-rot", Strategy::CheckIn, seed).with_faults(faults);
            outs.push(s.judge(&sc, true));
        }
    }
    let rot = sum(&outs, |o| {
        o.counter(Counter::FlashBitRotData) + o.counter(Counter::FlashBitRotOob)
    });
    let scrubbed_pages = sum(&outs, |o| o.counter(Counter::FtlScrubPages));
    let verified = sum(&outs, |o| o.verdict.checked);
    println!(
        "  rot events {rot}, scrub pages {scrubbed_pages}, keys verified {verified}, stopped by \
         a typed op failure {}, aborted checkpoints {}",
        sum(&outs, |o| u64::from(o.stop == Stop::OpIntegrity)),
        sum(&outs, |o| u64::from(o.stop == Stop::CheckpointIntegrity))
    );
    s.gate(
        rot > 0 && scrubbed_pages > 0 && verified > 0,
        "live bit-rot tier impotent (see its counts above)",
    );
}

/// Programs that report success but land scrambled relative to their
/// sealed checksums: the next verified read must fail typed.
fn misdirect_tier(s: &mut Sweep) {
    section("live misdirected-write tier (Check-In)");
    let mut outs = Vec::new();
    for n in 0..12u64 {
        let seed = ROT_SEED ^ 0x15D1 ^ (n << 16);
        let faults = FaultConfig {
            seed: seed ^ 0xAA,
            misdirected_program: 0.004,
            ..FaultConfig::default()
        };
        let sc = scrubbed("misdirect", Strategy::CheckIn, seed).with_faults(faults);
        outs.push(s.judge(&sc, true));
    }
    let misdirected = sum(&outs, |o| o.counter(Counter::FlashMisdirectedPrograms));
    let verified = sum(&outs, |o| o.verdict.checked);
    println!(
        "  misdirected programs {misdirected}, keys verified {verified}, aborted checkpoints {}",
        sum(&outs, |o| u64::from(o.stop == Stop::CheckpointIntegrity))
    );
    s.gate(
        misdirected > 0 && verified > 0,
        "misdirect tier impotent (see its counts above)",
    );
}

/// Run clean, flush, rot stored data units (one aimed at a live key, so
/// foreground detection and healing run on every row), then require
/// every read to be right or typed, scrub the whole device, and heal
/// each detected key with a fresh write.
fn posthoc_data_tier(s: &mut Sweep) {
    section("post-hoc data-rot tier (verify, scrub, heal)");
    let (mut injected, mut typed_reads, mut scrub_detected) = (0u64, 0u64, 0u64);
    let (mut healed, mut blocked) = (0u64, 0u64);
    for strategy in Strategy::all() {
        for n in 0..8u64 {
            let seed = ROT_SEED ^ 0x9057 ^ (n << 24) ^ unit(strategy);
            let sc = scrubbed("posthoc-data", strategy, seed);
            let (mut d, t) = drive_clean(&sc);
            let mut rng = TestRng::seed_from(seed ^ 0x0DD_B17);
            let target = rng.below(RECORDS);
            if let (false, Some((ppn, offset))) = (
                d.shadow.get(target).deleted,
                flash_home_of(&d.engine, &d.ssd, target),
            ) {
                let flash = d.ssd.ftl_mut().flash_mut();
                injected += u64::from(flash.sabotage_corrupt_unit(ppn, offset, 1 << rng.below(48)));
            }
            injected += inject_rot(
                &mut d.ssd,
                &mut rng,
                INJECTIONS,
                FlashArray::sabotage_corrupt_unit,
            );
            typed_reads += s.judge_in_place(&sc, &mut d, true, t);
            scrub_detected += scrub_fully(&mut d.ssd, t);

            for key in 0..RECORDS {
                let exp = d.shadow.get(key);
                // Every read is judged, a clean one too: an earlier heal
                // may have broken this key. Its typed failures are the
                // ones `judge_in_place` counted above.
                let read = d.engine.get(&mut d.ssd, key, t);
                let mut v = Verdict::default();
                judge_read(&mut v, &d.shadow, key, &read, true, true);
                if !v.clean() {
                    eprintln!("  ^ combo: {sc:?}");
                }
                s.total.absorb(Verdict {
                    detected_reads: 0,
                    ..v
                });
                match read {
                    Err(e) if !exp.deleted && is_integrity(&e) => {}
                    _ => continue,
                }
                // The heal may need journal room, and a copy checkpoint
                // can itself trip on another quarantined unit: the heal
                // is then blocked, but nothing was served wrong.
                let mut w = d.engine.update(&mut d.ssd, key, 512, t);
                if matches!(w, Err(EngineError::JournalFull)) {
                    let (engine, ssd, rule) = (&mut d.engine, &mut d.ssd, sc.rule());
                    w = rule
                        .trigger(engine, ssd, t, &mut |_| {})
                        .and_then(|_| rule.finish(engine, ssd, &mut |_| {}))
                        .and_then(|()| engine.update(ssd, key, 512, t));
                }
                match w {
                    Ok(_) => {
                        let back = d.engine.get(&mut d.ssd, key, t);
                        let back = back.expect("healed key reads clean");
                        assert_eq!(back.version, exp.version + 1, "healed key version");
                        healed += 1;
                    }
                    Err(e) if is_integrity(&e) => blocked += 1,
                    Err(e) => panic!("{sc:?}: heal of key {key} failed untyped: {e}"),
                }
            }
            let inv = d.ssd.ftl().check_invariants();
            inv.unwrap_or_else(|e| panic!("{sc:?}: post-heal invariants: {e}"));
        }
    }
    println!(
        "  injected {injected}, typed read failures {typed_reads}, scrub detections \
         {scrub_detected}, healed {healed} (blocked {blocked})"
    );
    s.gate(
        typed_reads > 0 && scrub_detected > 0 && healed > 0,
        "post-hoc data-rot tier impotent (see its counts above)",
    );
}

/// Rot recovery stamps only. Live reads use the in-RAM mapping, so every
/// read must still be exactly right — no typed failure tolerated — and
/// the FTL's OOB scan, the one SPOR rebuilds from, must reject exactly
/// the rotted records: each sits on a programmed page and fails its own
/// checksum, and a sound record over a damaged unit is not a rejection.
fn posthoc_oob_tier(s: &mut Sweep) {
    section("post-hoc OOB-rot tier (FTL OOB scan rejection)");
    let (mut injected, mut rejected) = (0u64, 0u64);
    for strategy in Strategy::all() {
        for n in 0..6u64 {
            let seed = ROT_SEED ^ 0x00B ^ (n << 32) ^ unit(strategy);
            let sc = scrubbed("posthoc-oob", strategy, seed);
            let (mut d, t) = drive_clean(&sc);
            let rotted = inject_rot(
                &mut d.ssd,
                &mut TestRng::seed_from(seed ^ 0x00B_407),
                INJECTIONS / 2,
                FlashArray::sabotage_corrupt_oob,
            );
            s.judge_in_place(&sc, &mut d, false, t);
            let scan_rejected = d.ssd.ftl().scan_oob().rejected();
            assert_eq!(
                scan_rejected, rotted,
                "{sc:?}: the scan rejected {scan_rejected} records, {rotted} were rotted"
            );
            injected += rotted;
            rejected += scan_rejected;
        }
    }
    println!("  rotted OOB records {injected}, rejected by the FTL scan {rejected}");
    s.gate(
        injected > 0 && rejected > 0,
        &format!("OOB tier impotent (injected {injected}, rejected {rejected})"),
    );
}

/// Seed tags of the composed tier's two families.
const ROT_AND_NOISE: u64 = 0xC0_4905ED;
const MISDIRECTS: u64 = 0xC0_15D1;

/// Workload seed of composed-tier row `n` of `strategy` in family `tag`.
fn composed_seed(tag: u64, n: u64, strategy: Strategy) -> u64 {
    ROT_SEED ^ tag ^ (n << 40) ^ unit(strategy)
}

/// Rows pinned as expected failures, by the name of the product defect
/// they trip (EXPERIMENTS.md "Chaos sweep"; ROADMAP item 9(c)). A row is
/// named by its tier, strategy and seed and, for a tier that cuts power
/// at ticks spread over a traced profile, by the cut's index in that
/// spread: a timing change moves the ticks, not the row.
///
/// `misdirect-scrambles-its-own-record`: a misdirected program scrambles
/// a page's OOB records along with its data, so after a power cut nothing
/// on the media says which lpns the page held. SPOR poisons the ones the
/// persisted mapping log names; a unit drained *after* the last persist —
/// here key 7's newest version, sitting in the journal — is named by
/// nothing, comes back unmapped, and the engine reports the key unknown:
/// an acked write gone with no integrity error. No scan can attribute
/// the page; closing this takes redundancy the device does not have (a
/// second copy of a page's OOB records, or the mapping delta since the
/// last persist dumped on capacitor power).
fn known_defect(sc: &Scenario, cut: usize) -> Option<&'static str> {
    let pinned = sc.tier == "composed-misdirect"
        && sc.strategy == Strategy::IscC
        && sc.seed == composed_seed(MISDIRECTS, 0, Strategy::IscC)
        && cut == 0;
    pinned.then_some("misdirect-scrambles-its-own-record")
}

/// Several fault families armed in one plan — what neither of the two
/// harnesses this sweep replaced could express. Contract = the union of
/// theirs: after SPOR and engine recovery every key reads as its acked
/// version (or an in-flight alternative) or fails typed.
fn composed_tier(s: &mut Sweep) {
    section("composed-fault tier (torn cut + live rot + media noise; misdirects + torn cut)");
    let mut outs = Vec::new();
    for strategy in Strategy::all() {
        // Rot no faster than the live tier's low rate: at its high rate,
        // with noise on top, the workload dies on a typed op failure a
        // few hundred ticks in and the cut would find an idle device.
        let rot_and_noise = |n: u64| {
            let seed = composed_seed(ROT_AND_NOISE, n, strategy);
            let faults = FaultConfig {
                torn_writes: true,
                bit_rot_data: 0.001,
                ..media_noise(seed ^ 0xFA_17)
            };
            scrubbed("composed-rot", strategy, seed).with_faults(faults)
        };
        let seed = composed_seed(MISDIRECTS, 0, strategy);
        let misdirects = FaultConfig {
            seed: seed ^ 0xFA_17,
            torn_writes: true,
            misdirected_program: 0.004,
            ..FaultConfig::default()
        };
        let misdirects = scrubbed("composed-misdirect", strategy, seed).with_faults(misdirects);
        for base in [rot_and_noise(0), rot_and_noise(1), misdirects] {
            // The trace comes from the same plan minus the cut, so rot,
            // noise and misdirects replay identically up to the tick.
            let programs = ticks_where(&profile(&base), |op, _| op == FaultOp::Program);
            let cuts = spread(&programs, 3);
            for (i, &tick) in cuts.iter().enumerate() {
                let faults = base.faults.map(|f| FaultConfig {
                    power_cut_after: Some(tick),
                    ..f
                });
                let pin = known_defect(&base, i);
                outs.push(s.judge_pinned(&Scenario { faults, ..base }, true, pin));
            }
            println!("  {:<9} {}: cuts at {cuts:?}", strategy.label(), base.tier);
        }
    }
    // The row that found SPOR forgetting a damaged unit, reduced by hand
    // — no torn page, no scrubber, no second family. Without the
    // scrubber's reads the misdirected page is drained before the last
    // mapping-log persist, so the log names key 7's home slot and SPOR
    // poisons it: the loss is typed, and the store refuses to open.
    let seed = composed_seed(MISDIRECTS, 0, Strategy::IscC);
    let minimal =
        Scenario::new("composed-minimal", Strategy::IscC, seed).with_faults(FaultConfig {
            seed: seed ^ 0xFA_17,
            power_cut_after: Some(1345),
            misdirected_program: 0.004,
            ..FaultConfig::default()
        });
    let minimal = s.judge(&minimal, true);
    let refused = sum(&outs, |o| u64::from(!o.opened)) + u64::from(!minimal.opened);
    s.gate(
        !minimal.opened,
        "composed-minimal no longer ends on a poisoned home slot: the row tests nothing",
    );

    let rot = sum(&outs, |o| o.counter(Counter::FlashBitRotData));
    let transients = sum(&outs, |o| o.counter(Counter::FlashTransientFaults));
    let misdirected = sum(&outs, |o| o.counter(Counter::FlashMisdirectedPrograms));
    let torn = sum(&outs, |o| o.counter(Counter::FlashTornWrites));
    let verified = sum(&outs, |o| o.verdict.checked);
    println!(
        "  rot events {rot}, transients {transients}, misdirected programs {misdirected}, torn \
         pages {torn}, keys verified {verified}, stores that refused to open {refused}"
    );
    s.gate(
        rot > 0 && transients > 0 && misdirected > 0 && torn > 0 && verified > 0,
        "composed tier impotent (see its counts above)",
    );
}

/// Deliberately breaks recovery — drops the capacitor-backed write
/// buffer before SPOR — and requires the harness to notice.
fn sabotage_buffer_self_test(s: &mut Sweep) {
    section("sabotage self-test (recovery deliberately broken)");
    let seed = CUT_SEED ^ 0x5AB0_7A6E;
    let base = Scenario::new("sabotage-buffer", Strategy::CheckIn, seed);
    let trace_len = profile(&base).len() as u64;
    let mut rng = TestRng::seed_from(seed);
    let detected = (0..8).any(|_| {
        let tick = rng.range_u64(trace_len / 4, trace_len.max(2) - 1);
        s.combos += 1;
        let cut = base.with_faults(FaultConfig::power_cut(seed ^ tick, tick));
        !run(&cut, false, true).verdict.clean()
    });
    println!(
        "  dropped write buffer before rebuild: loss {}",
        if detected { "DETECTED" } else { "MISSED" }
    );
    s.gate(
        detected,
        "sabotaged recovery went undetected — the harness cannot see losses",
    );
}

/// Rots a live key's stored unit and reads it back at the *device*
/// level (`KvEngine::get` would trip its own stale-version debug
/// assertion first): with verification off the read must come back
/// silently wrong, with it on it must fail typed — proving the sweep, and
/// the checksums it leans on, detect real damage, not a tautology.
fn sabotage_checksum_self_test(s: &mut Sweep) {
    section("sabotage self-test (checksum verification disabled)");
    let seed = ROT_SEED ^ 0x5ABC;
    let (mut silent_seen, mut typed_seen) = (false, false);
    for verify_checksums in [false, true] {
        let sc = Scenario {
            verify_checksums,
            ..scrubbed("sabotage-checksums", Strategy::CheckIn, seed)
        };
        s.combos += 1;
        let (mut d, t) = drive_clean(&sc);
        let mut rng = TestRng::seed_from(seed ^ 0x5AB0);
        for _ in 0..16 {
            let key = rng.below(RECORDS);
            let exp = d.shadow.get(key);
            let Some((ppn, offset)) = flash_home_of(&d.engine, &d.ssd, key) else {
                continue;
            };
            let flash = d.ssd.ftl_mut().flash_mut();
            if exp.deleted || !flash.sabotage_corrupt_unit(ppn, offset, 1 << rng.below(48)) {
                continue;
            }
            let (lba, sectors) = serving_range(&d.engine, key);
            let req = ReadRequest {
                lba,
                sectors,
                key: Some(key),
            };
            let mut frags = Vec::new();
            match d.ssd.read_into(&req, t, &mut frags) {
                Ok(_) => {
                    silent_seen |= frags.iter().map(|f| f.version).max() != Some(exp.version);
                }
                Err(e) if e.is_integrity() => typed_seen = true,
                Err(e) => panic!("{sc:?}: sabotage read failed untyped: {e}"),
            }
        }
    }
    let seen = |b| if b { "OBSERVED" } else { "MISSED" };
    println!(
        "  verification off: silent wrongness {}; verification on: typed failure {}",
        seen(silent_seen),
        seen(typed_seen)
    );
    s.gate(
        silent_seen,
        "sabotage went unobserved — the sweep cannot see silent corruption",
    );
    s.gate(
        typed_seen,
        "sabotage control saw no typed failure with verification on",
    );
}

/// Runs every tier and both self-tests, printing the report as it goes.
pub fn sweep() -> Sweep {
    println!("chaos: {RECORDS} keys, {OPS} ops/run");
    let mut s = Sweep::default();
    power_cut_tier(&mut s);
    batched_tier(&mut s);
    gc_migration_tier(&mut s);
    noise_tier(&mut s);
    torn_tier(&mut s);
    two_plane_tier(&mut s);
    live_rot_tier(&mut s);
    misdirect_tier(&mut s);
    posthoc_data_tier(&mut s);
    posthoc_oob_tier(&mut s);
    composed_tier(&mut s);
    sabotage_buffer_self_test(&mut s);
    sabotage_checksum_self_test(&mut s);

    section("summary");
    let t = s.total;
    println!("  combos            {}", s.combos);
    println!(
        "  aimed cut phases  remap {}, gc {}, dealloc {}, steady {}",
        s.cuts_in(OpPhase::CheckpointRemap),
        s.cuts_in(OpPhase::Gc),
        s.cuts_in(OpPhase::Dealloc),
        s.cut_phases.iter().filter(|&&p| is_steady(p)).count()
    );
    println!("  cuts while a checkpoint copy was pumped {}", s.paced_cuts);
    s.gate(
        s.paced_cuts > 0,
        "no aimed cut landed while a checkpoint's copy was being pumped",
    );
    println!(
        "  cuts while a background GC round was pumped {}",
        s.gc_cuts
    );
    s.gate(
        s.gc_cuts > 0,
        "no aimed cut landed while a background GC round was being pumped",
    );
    println!("  keys checked      {}", t.checked);
    println!("  silently wrong    {}", t.silent_wrong);
    println!("  acked losses      {}", t.losses);
    println!("  resurrections     {}", t.resurrections);
    println!("  typed detections  {}", t.detected_reads);
    println!("  expected failures {}", s.expected_failures);
    s.gate(
        t.clean(),
        &format!(
            "{} silently-wrong reads, {} acked-write losses, {} resurrections",
            t.silent_wrong, t.losses, t.resurrections
        ),
    );
    if s.passed() {
        println!(
            "PASS: {} combos, zero silently-wrong reads, zero acked-write losses, zero \
             resurrections, {} typed detections, {} expected failures, sabotage detected",
            s.combos, t.detected_reads, s.expected_failures
        );
    }
    s
}
