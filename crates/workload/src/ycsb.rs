//! YCSB-style operation mixes and the operation generator.

use checkin_sim::SimRng;

use crate::dist::{AccessPattern, KeyChooser};
use crate::record::RecordSizes;

/// One client operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Operation {
    /// Point lookup.
    Read {
        /// Target key.
        key: u64,
    },
    /// Blind update with a new value of `bytes`.
    Update {
        /// Target key.
        key: u64,
        /// New value size.
        bytes: u32,
    },
    /// Read followed by update of the same key (YCSB workload F).
    ReadModifyWrite {
        /// Target key.
        key: u64,
        /// New value size.
        bytes: u32,
    },
}

impl Operation {
    /// The key this operation touches.
    pub fn key(&self) -> u64 {
        match *self {
            Operation::Read { key }
            | Operation::Update { key, .. }
            | Operation::ReadModifyWrite { key, .. } => key,
        }
    }

    /// True when the operation writes.
    pub fn is_write(&self) -> bool {
        !matches!(self, Operation::Read { .. })
    }
}

/// Operation mix in percent (must sum to 100).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpMix {
    /// Point reads.
    pub read_pct: u32,
    /// Blind updates.
    pub update_pct: u32,
    /// Read-modify-writes.
    pub rmw_pct: u32,
}

impl OpMix {
    /// YCSB workload A: 50% reads, 50% updates.
    pub const A: OpMix = OpMix {
        read_pct: 50,
        update_pct: 50,
        rmw_pct: 0,
    };
    /// YCSB workload B: 95% reads, 5% updates.
    pub const B: OpMix = OpMix {
        read_pct: 95,
        update_pct: 5,
        rmw_pct: 0,
    };
    /// YCSB workload C: 100% reads.
    pub const C: OpMix = OpMix {
        read_pct: 100,
        update_pct: 0,
        rmw_pct: 0,
    };
    /// YCSB workload F: 50% reads, 50% read-modify-writes.
    pub const F: OpMix = OpMix {
        read_pct: 50,
        update_pct: 0,
        rmw_pct: 50,
    };
    /// Write-only (the paper's "Workload WO").
    pub const WRITE_ONLY: OpMix = OpMix {
        read_pct: 0,
        update_pct: 100,
        rmw_pct: 0,
    };

    /// Validates that the mix sums to 100%.
    ///
    /// # Errors
    ///
    /// Returns the actual sum when invalid.
    pub fn validate(&self) -> Result<(), u32> {
        let sum = self.read_pct + self.update_pct + self.rmw_pct;
        if sum == 100 {
            Ok(())
        } else {
            Err(sum)
        }
    }

    /// Paper label for the common mixes.
    pub fn label(&self) -> &'static str {
        match *self {
            OpMix::A => "A",
            OpMix::B => "B",
            OpMix::C => "C",
            OpMix::F => "F",
            OpMix::WRITE_ONLY => "WO",
            _ => "custom",
        }
    }
}

/// Full workload specification.
#[derive(Debug, Clone)]
pub struct WorkloadSpec {
    /// Operation mix.
    pub mix: OpMix,
    /// Key access skew.
    pub pattern: AccessPattern,
    /// Number of records loaded before the run.
    pub record_count: u64,
    /// Value size distribution.
    pub sizes: RecordSizes,
    /// RNG seed: same seed, same operation stream.
    pub seed: u64,
}

impl WorkloadSpec {
    /// The paper's default: workload A, zipfian, small records.
    pub fn paper_default() -> Self {
        WorkloadSpec {
            mix: OpMix::A,
            pattern: AccessPattern::Zipfian,
            record_count: 20_000,
            sizes: RecordSizes::paper_default(),
            seed: 0x5EED,
        }
    }

    /// Builds the operation generator for this spec.
    ///
    /// # Panics
    ///
    /// Panics if the mix does not sum to 100%.
    pub fn generator(&self) -> OpGenerator {
        self.mix
            .validate()
            .unwrap_or_else(|s| panic!("operation mix sums to {s}%, expected 100%"));
        OpGenerator {
            mix: self.mix,
            chooser: KeyChooser::new(self.pattern, self.record_count),
            sizes: self.sizes.clone(),
            rng: SimRng::seed_from(self.seed),
        }
    }
}

/// Infinite deterministic stream of operations.
///
/// # Examples
///
/// ```
/// use checkin_workload::{WorkloadSpec, Operation};
///
/// let mut gen = WorkloadSpec::paper_default().generator();
/// let ops: Vec<Operation> = (0..10).map(|_| gen.next_op()).collect();
/// assert!(ops.iter().any(|o| o.is_write()), "workload A has writes");
/// ```
#[derive(Debug, Clone)]
pub struct OpGenerator {
    mix: OpMix,
    chooser: KeyChooser,
    sizes: RecordSizes,
    rng: SimRng,
}

impl OpGenerator {
    /// Draws the next operation.
    pub fn next_op(&mut self) -> Operation {
        let roll = self.rng.gen_range(100) as u32;
        let key = self.chooser.next_key(&mut self.rng);
        if roll < self.mix.read_pct {
            Operation::Read { key }
        } else if roll < self.mix.read_pct + self.mix.update_pct {
            Operation::Update {
                key,
                bytes: self.sizes.sample(&mut self.rng),
            }
        } else {
            Operation::ReadModifyWrite {
                key,
                bytes: self.sizes.sample(&mut self.rng),
            }
        }
    }

    /// A generator over the same mix, key space and sizes drawing its own
    /// stream from `seed` — exactly what `generator()` builds for a spec
    /// that differs only in `seed`, minus the zipfian `zeta(n)` sum
    /// (linear in the key space), which the copy shares with `self`.
    pub fn reseeded(&self, seed: u64) -> OpGenerator {
        OpGenerator {
            rng: SimRng::seed_from(seed),
            ..self.clone()
        }
    }

    /// Record size for the initial load of `key` (deterministic per key so
    /// reloads agree).
    pub fn load_size(&self, key: u64) -> u32 {
        let mut rng = SimRng::seed_from(key.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        self.sizes.sample(&mut rng)
    }

    /// Number of records the generator addresses.
    pub fn record_count(&self) -> u64 {
        self.chooser.key_space()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(mix: OpMix) -> WorkloadSpec {
        WorkloadSpec {
            mix,
            pattern: AccessPattern::Uniform,
            record_count: 1_000,
            sizes: RecordSizes::fixed(512),
            seed: 11,
        }
    }

    #[test]
    fn preset_mixes_are_valid() {
        for m in [OpMix::A, OpMix::B, OpMix::C, OpMix::F, OpMix::WRITE_ONLY] {
            m.validate().unwrap();
        }
        assert_eq!(OpMix::A.label(), "A");
        assert_eq!(OpMix::WRITE_ONLY.label(), "WO");
    }

    #[test]
    fn invalid_mix_reports_sum() {
        let bad = OpMix {
            read_pct: 50,
            update_pct: 10,
            rmw_pct: 10,
        };
        assert_eq!(bad.validate(), Err(70));
    }

    #[test]
    fn workload_a_is_half_reads() {
        let mut g = spec(OpMix::A).generator();
        let reads = (0..10_000)
            .filter(|_| matches!(g.next_op(), Operation::Read { .. }))
            .count();
        assert!((4_500..5_500).contains(&reads), "reads: {reads}");
    }

    #[test]
    fn workload_f_has_rmw_but_no_blind_updates() {
        let mut g = spec(OpMix::F).generator();
        let mut rmw = 0;
        for _ in 0..1_000 {
            match g.next_op() {
                Operation::Update { .. } => panic!("workload F has no blind updates"),
                Operation::ReadModifyWrite { .. } => rmw += 1,
                Operation::Read { .. } => {}
            }
        }
        assert!(rmw > 300);
    }

    #[test]
    fn write_only_never_reads() {
        let mut g = spec(OpMix::WRITE_ONLY).generator();
        for _ in 0..1_000 {
            assert!(g.next_op().is_write());
        }
    }

    #[test]
    fn generator_is_deterministic() {
        let mut g1 = spec(OpMix::A).generator();
        let mut g2 = spec(OpMix::A).generator();
        for _ in 0..100 {
            assert_eq!(g1.next_op(), g2.next_op());
        }
    }

    /// One prototype reseeded per client emits what per-client
    /// `generator()` calls with the same seeds emit.
    #[test]
    fn reseeded_prototype_matches_per_seed_construction() {
        for pattern in [AccessPattern::Zipfian, AccessPattern::Uniform] {
            let base = WorkloadSpec {
                pattern,
                sizes: RecordSizes::paper_default(),
                ..spec(OpMix::A)
            };
            let prototype = base.generator();
            let mut seeds = SimRng::seed_from(base.seed);
            for _ in 0..32 {
                let seed = seeds.next_u64();
                let mut old = WorkloadSpec {
                    seed,
                    ..base.clone()
                }
                .generator();
                let mut new = prototype.reseeded(seed);
                for i in 0..1_000 {
                    assert_eq!(
                        old.next_op(),
                        new.next_op(),
                        "{pattern:?} seed {seed} op {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn load_size_stable_per_key() {
        let g = WorkloadSpec::paper_default().generator();
        assert_eq!(g.load_size(42), g.load_size(42));
        assert_eq!(g.record_count(), 20_000);
    }

    #[test]
    fn operation_accessors() {
        let op = Operation::Update { key: 9, bytes: 100 };
        assert_eq!(op.key(), 9);
        assert!(op.is_write());
        assert!(!Operation::Read { key: 1 }.is_write());
    }

    #[test]
    #[should_panic(expected = "expected 100%")]
    fn generator_rejects_bad_mix() {
        let mut s = spec(OpMix::A);
        s.mix = OpMix {
            read_pct: 10,
            update_pct: 10,
            rmw_pct: 10,
        };
        s.generator();
    }
}
