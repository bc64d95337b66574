//! Deterministic fault injection for the simulated NAND array.
//!
//! A [`FaultPlan`] is a *seeded schedule* of environmental failures that
//! the array replays while it services operations:
//!
//! * **Power cuts** — a global *fault clock* counts every fallible
//!   operation attempt (page reads, page programs, block erases, and
//!   *logical* firmware steps forwarded by upper layers: buffered-write
//!   admissions, remaps, deallocations). When the clock reaches
//!   [`FaultConfig::power_cut_after`], the in-flight operation fails with
//!   [`FlashError::PowerLoss`](crate::FlashError) and the array
//!   freezes: all further timed operations fail until
//!   [`FlashArray::power_on`](crate::FlashArray::power_on) is called.
//!   Untimed content reads stay available so recovery code can scan OOB
//!   metadata, modelling firmware reading NAND after a reboot.
//!
//!   By default a cut aborts the in-flight operation *before any state
//!   mutation* — a **fail-stop idealization**. Real NAND does not abort
//!   cleanly: a program interrupted mid-burst leaves a *torn page* whose
//!   cells hold a partially-written, ECC-invalid mess. Setting
//!   [`FaultConfig::torn_writes`] replaces the clean abort on programs
//!   with exactly that: the page is marked programmed and stores a prefix
//!   of the intended content with a corrupted tail (units and OOB records
//!   past a seeded boundary are bit-flipped without resealing their
//!   checksums). With the flag off, behavior — including the RNG stream —
//!   is byte-identical to the historical fail-stop model.
//! * **Retention bit-rot** — per-tick Bernoulli draws
//!   ([`FaultConfig::bit_rot_data`], [`FaultConfig::bit_rot_oob`]) flip
//!   seeded bits in the stored content tags or OOB records of an already
//!   programmed page, modelling charge leakage in cold data. The sealed
//!   checksums are *not* updated, so the damage is latent until a
//!   verified read or a scrub pass visits the page.
//! * **Misdirected writes** — a per-program draw
//!   ([`FaultConfig::misdirected_program`]) scrambles the payload and OOB
//!   stamps of a program *after* its checksums were sealed, modelling
//!   firmware writing the right data to the wrong place: the program
//!   reports success, but what landed does not match its checksums.
//! * **Transient media errors** — per-attempt Bernoulli draws make a
//!   read/program/erase fail with a retryable error while leaving state
//!   untouched. Independent draws per attempt mean bounded retries
//!   (performed by the FTL) almost surely succeed.
//! * **Grown bad blocks** — a per-attempt draw on programs and erases
//!   permanently marks the target block bad; the operation fails fatally
//!   and every later program/erase of that block fails too. The FTL
//!   responds by retiring the block (salvaging still-valid units).
//!
//! Everything is derived from one `u64` seed through the plan's own
//! [`SimRng`], so a `(workload seed, fault seed, cut tick)` triple fully
//! determines a simulated crash — the property the `chaos` harness
//! (`checkin_bench::chaos`, DESIGN.md §9.3) builds on: a *profiling* run
//! with [`FaultConfig::record_trace`] logs each tick's operation and
//! [`OpPhase`], and targeted cut points (mid-GC, mid-remap-walk, mid-deallocation) are
//! then chosen from that trace and replayed exactly. Because every hazard
//! is a field of the one [`FaultConfig`], families compose: a plan can
//! tear the page a power cut interrupts while rot and media noise are
//! live, and the profiling run arms the same plan minus the cut.

use checkin_sim::SimRng;

use crate::phase::OpPhase;

/// Operation classes that advance the fault clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultOp {
    /// A timed page read ([`FlashArray::schedule_read`](crate::FlashArray::schedule_read)).
    Read,
    /// A page program.
    Program,
    /// A block erase.
    Erase,
    /// A logical firmware step forwarded from an upper layer (buffered
    /// write admission, mapping remap, deallocation). Logical steps can be
    /// interrupted by a power cut but never suffer media errors.
    Logical,
}

/// Seeded fault schedule parameters.
///
/// The default is fully benign (no cut, zero failure rates); construct
/// with struct-update syntax to enable individual hazards.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Seed for all probability draws.
    pub seed: u64,
    /// Power is cut when the fault clock reaches this tick (1-based):
    /// the operation consuming that tick fails with
    /// [`FlashError::PowerLoss`](crate::FlashError) before mutating anything. One-shot —
    /// after firing, no further cut is scheduled.
    pub power_cut_after: Option<u64>,
    /// Per-attempt probability of a transient read failure.
    pub transient_read: f64,
    /// Per-attempt probability of a transient program failure.
    pub transient_program: f64,
    /// Per-attempt probability of a transient erase failure.
    pub transient_erase: f64,
    /// Per-attempt probability that a program/erase grows a bad block.
    pub grown_bad_block: f64,
    /// A power cut during a program leaves a *torn page* (partially
    /// programmed, corrupt tail) instead of cleanly aborting. Off by
    /// default, preserving the historical fail-stop model byte-for-byte.
    pub torn_writes: bool,
    /// Per-tick probability of a retention bit-flip in a stored data unit
    /// of some already-programmed page.
    pub bit_rot_data: f64,
    /// Per-tick probability of a retention bit-flip in a stored OOB
    /// record of some already-programmed page.
    pub bit_rot_oob: f64,
    /// Per-program probability that the write is misdirected: it reports
    /// success but the landed payload/OOB stamps are scrambled relative
    /// to their sealed checksums.
    pub misdirected_program: f64,
    /// Record an `(op, phase)` trace entry per tick (profiling runs).
    pub record_trace: bool,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            seed: 0,
            power_cut_after: None,
            transient_read: 0.0,
            transient_program: 0.0,
            transient_erase: 0.0,
            grown_bad_block: 0.0,
            torn_writes: false,
            bit_rot_data: 0.0,
            bit_rot_oob: 0.0,
            misdirected_program: 0.0,
            record_trace: false,
        }
    }
}

impl FaultConfig {
    /// A schedule that only cuts power at `tick` (no media errors).
    pub fn power_cut(seed: u64, tick: u64) -> Self {
        FaultConfig {
            seed,
            power_cut_after: Some(tick),
            ..FaultConfig::default()
        }
    }
}

/// What a fault-clock tick decided for the consuming operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TickOutcome {
    /// Proceed normally.
    Pass,
    /// Power is cut: fail with [`FlashError::PowerLoss`](crate::FlashError), freeze device.
    PowerCut,
    /// Transient media failure: fail retryably, mutate nothing.
    Transient,
    /// The target block just went bad: fail fatally and mark it.
    GrownBad,
}

/// Live fault-injection state: configuration, RNG, fault clock, and the
/// optional per-tick trace.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    config: FaultConfig,
    rng: SimRng,
    ticks: u64,
    trace: Vec<(FaultOp, OpPhase)>,
}

impl FaultPlan {
    /// Instantiates the schedule described by `config`.
    pub fn new(config: FaultConfig) -> Self {
        FaultPlan {
            config,
            rng: SimRng::seed_from(config.seed),
            ticks: 0,
            trace: Vec::new(),
        }
    }

    /// The schedule parameters.
    pub fn config(&self) -> &FaultConfig {
        &self.config
    }

    /// Fault-clock ticks consumed so far.
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// The recorded `(op, phase)` trace; entry `i` describes tick `i + 1`.
    /// Empty unless [`FaultConfig::record_trace`] was set.
    pub fn trace(&self) -> &[(FaultOp, OpPhase)] {
        &self.trace
    }

    fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        self.rng.gen_f64() < p
    }

    /// Advances the fault clock for one operation attempt and decides its
    /// fate. Exactly one tick per attempt; a retried operation draws
    /// independently on each attempt.
    pub(crate) fn on_tick(&mut self, op: FaultOp, phase: OpPhase) -> TickOutcome {
        self.ticks += 1;
        if self.config.record_trace {
            self.trace.push((op, phase));
        }
        if self.config.power_cut_after == Some(self.ticks) {
            return TickOutcome::PowerCut;
        }
        let (transient_rate, grown_rate) = match op {
            FaultOp::Read => (self.config.transient_read, 0.0),
            FaultOp::Program => (self.config.transient_program, self.config.grown_bad_block),
            FaultOp::Erase => (self.config.transient_erase, self.config.grown_bad_block),
            FaultOp::Logical => (0.0, 0.0),
        };
        let transient = self.chance(transient_rate);
        let grown = self.chance(grown_rate);
        if grown {
            TickOutcome::GrownBad
        } else if transient {
            TickOutcome::Transient
        } else {
            TickOutcome::Pass
        }
    }

    /// Whether power cuts tear in-flight programs instead of aborting.
    pub(crate) fn torn_writes_enabled(&self) -> bool {
        self.config.torn_writes
    }

    /// Per-tick retention decay draws: `(data unit hit, OOB record hit)`.
    /// Consumes no RNG state when both rates are zero, so benign plans
    /// keep the historical stream byte-identical.
    pub(crate) fn decay_draws(&mut self) -> (bool, bool) {
        let data = self.chance(self.config.bit_rot_data);
        let oob = self.chance(self.config.bit_rot_oob);
        (data, oob)
    }

    /// Per-program misdirection draw. Consumes no RNG state at rate zero.
    pub(crate) fn misdirect_draw(&mut self) -> bool {
        self.chance(self.config.misdirected_program)
    }

    /// A uniform draw in `[0, n)` (`0` when `n == 0`), used to pick
    /// seeded victims and corruption masks deterministically.
    pub(crate) fn draw_below(&mut self, n: u64) -> u64 {
        if n == 0 {
            return 0;
        }
        self.rng.next_u64() % n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_draws() {
        let cfg = FaultConfig {
            seed: 42,
            transient_program: 0.5,
            ..FaultConfig::default()
        };
        let mut a = FaultPlan::new(cfg);
        let mut b = FaultPlan::new(cfg);
        for _ in 0..1000 {
            assert_eq!(
                a.on_tick(FaultOp::Program, OpPhase::Run),
                b.on_tick(FaultOp::Program, OpPhase::Run)
            );
        }
    }

    #[test]
    fn cut_fires_exactly_once_at_the_scheduled_tick() {
        let mut p = FaultPlan::new(FaultConfig::power_cut(1, 3));
        assert_eq!(p.on_tick(FaultOp::Read, OpPhase::Run), TickOutcome::Pass);
        assert_eq!(p.on_tick(FaultOp::Logical, OpPhase::Run), TickOutcome::Pass);
        assert_eq!(
            p.on_tick(FaultOp::Program, OpPhase::Run),
            TickOutcome::PowerCut
        );
        // One-shot: the clock moves on.
        assert_eq!(p.on_tick(FaultOp::Program, OpPhase::Run), TickOutcome::Pass);
        assert_eq!(p.ticks(), 4);
    }

    #[test]
    fn transient_rate_roughly_respected() {
        let mut p = FaultPlan::new(FaultConfig {
            seed: 7,
            transient_read: 0.25,
            ..FaultConfig::default()
        });
        let n = 10_000;
        let fails = (0..n)
            .filter(|_| p.on_tick(FaultOp::Read, OpPhase::Run) == TickOutcome::Transient)
            .count();
        let rate = fails as f64 / n as f64;
        assert!((0.2..0.3).contains(&rate), "rate {rate}");
    }

    #[test]
    fn logical_ops_never_fail_without_a_cut() {
        let mut p = FaultPlan::new(FaultConfig {
            seed: 9,
            transient_read: 1.0,
            transient_program: 1.0,
            transient_erase: 1.0,
            grown_bad_block: 1.0,
            ..FaultConfig::default()
        });
        for _ in 0..100 {
            assert_eq!(p.on_tick(FaultOp::Logical, OpPhase::Run), TickOutcome::Pass);
        }
    }

    #[test]
    fn zero_rate_injectors_leave_the_rng_stream_untouched() {
        // With every new hazard at its default-off setting, interleaving
        // decay/misdirect draws between ticks must not perturb the draw
        // sequence of a historical plan: the chaos power-cut tiers depend on
        // byte-identical replay.
        let legacy = FaultConfig {
            seed: 42,
            transient_program: 0.5,
            grown_bad_block: 0.1,
            ..FaultConfig::default()
        };
        let mut a = FaultPlan::new(legacy);
        let mut b = FaultPlan::new(legacy);
        for _ in 0..1000 {
            let (data, oob) = b.decay_draws();
            assert!(!data && !oob);
            assert!(!b.misdirect_draw());
            assert_eq!(
                a.on_tick(FaultOp::Program, OpPhase::Run),
                b.on_tick(FaultOp::Program, OpPhase::Run)
            );
        }
    }

    #[test]
    fn torn_writes_flag_defaults_off() {
        assert!(!FaultConfig::default().torn_writes);
        assert!(!FaultPlan::new(FaultConfig::power_cut(3, 5)).torn_writes_enabled());
    }

    #[test]
    fn draw_below_is_bounded_and_deterministic() {
        let cfg = FaultConfig {
            seed: 11,
            ..FaultConfig::default()
        };
        let mut a = FaultPlan::new(cfg);
        let mut b = FaultPlan::new(cfg);
        assert_eq!(a.draw_below(0), 0);
        assert_eq!(b.draw_below(0), 0);
        for n in 1..200u64 {
            let x = a.draw_below(n);
            assert_eq!(x, b.draw_below(n));
            assert!(x < n);
        }
    }

    #[test]
    fn trace_records_op_and_phase_per_tick() {
        let mut p = FaultPlan::new(FaultConfig {
            seed: 1,
            record_trace: true,
            ..FaultConfig::default()
        });
        p.on_tick(FaultOp::Read, OpPhase::Run);
        p.on_tick(FaultOp::Erase, OpPhase::Gc);
        assert_eq!(
            p.trace(),
            &[(FaultOp::Read, OpPhase::Run), (FaultOp::Erase, OpPhase::Gc)]
        );
    }
}
