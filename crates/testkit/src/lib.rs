//! A tiny, dependency-free randomized property-testing harness.
//!
//! The build must succeed with no network access and an empty registry
//! cache, so the workspace cannot depend on `proptest`. This crate covers
//! the slice of it the test suites actually use: run a property over many
//! deterministically seeded random cases, and on failure report the case
//! index and seed so the exact input is reproducible with
//! [`TestRng::seed_from`].
//!
//! ```
//! use checkin_testkit::{check, TestRng};
//!
//! check("addition commutes", 64, |rng| {
//!     let (a, b) = (rng.below(1000), rng.below(1000));
//!     assert_eq!(a + b, b + a);
//! });
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

use checkin_sim::{splitmix64, SimRng};

/// Generator for test-case inputs: the simulator's [`SimRng`] plus the
/// ranged and weighted draws property tests want.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TestRng(SimRng);

impl TestRng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed_from(seed: u64) -> Self {
        TestRng(SimRng::seed_from(seed))
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.0.next_u64()
    }

    /// Uniform value in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics when `bound` is zero.
    pub fn below(&mut self, bound: u64) -> u64 {
        self.0.gen_range(bound)
    }

    /// Uniform value in the inclusive range `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics when `lo > hi`.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "range_u64 needs lo <= hi");
        lo + self.below(hi - lo + 1)
    }

    /// Uniform `u32` in `[lo, hi]`.
    pub fn range_u32(&mut self, lo: u32, hi: u32) -> u32 {
        self.range_u64(lo as u64, hi as u64) as u32
    }

    /// Uniform `usize` in `[lo, hi]`.
    pub fn range_usize(&mut self, lo: usize, hi: usize) -> usize {
        self.range_u64(lo as u64, hi as u64) as usize
    }

    /// Uniform `u8` over its full range.
    pub fn any_u8(&mut self) -> u8 {
        (self.next_u64() & 0xFF) as u8
    }

    /// Uniform float in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        self.0.gen_f64()
    }

    /// Uniform float in `[lo, hi)`.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + self.unit_f64() * (hi - lo)
    }

    /// Bernoulli draw with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit_f64() < p
    }

    /// Picks an index according to integer weights (proptest's
    /// `prop_oneof!` weighting).
    ///
    /// # Panics
    ///
    /// Panics when `weights` is empty or sums to zero.
    pub fn weighted(&mut self, weights: &[u32]) -> usize {
        let total: u64 = weights.iter().map(|&w| w as u64).sum();
        assert!(total > 0, "weights must sum to a positive value");
        let mut draw = self.below(total);
        for (i, &w) in weights.iter().enumerate() {
            if draw < w as u64 {
                return i;
            }
            draw -= w as u64;
        }
        unreachable!("draw below total always lands in a bucket")
    }
}

/// Base seed mixed with the case index to derive each case's RNG.
pub const BASE_SEED: u64 = 0xC0FF_EE00_5EED;

/// Seed of case `case` under `base` (exposed so a failing case can be
/// replayed in isolation).
pub fn case_seed(base: u64, case: u64) -> u64 {
    let mut s = base ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    splitmix64(&mut s)
}

/// Runs `property` over `cases` deterministically seeded random cases.
/// A panic inside the property is re-raised after printing the case index
/// and seed, so the failure reproduces with
/// `TestRng::seed_from(seed)`.
pub fn check<F>(name: &str, cases: u64, mut property: F)
where
    F: FnMut(&mut TestRng),
{
    check_seeded(name, BASE_SEED, cases, &mut property);
}

/// [`check`] with an explicit base seed.
pub fn check_seeded<F>(name: &str, base: u64, cases: u64, property: &mut F)
where
    F: FnMut(&mut TestRng),
{
    for case in 0..cases {
        let seed = case_seed(base, case);
        let mut rng = TestRng::seed_from(seed);
        let result = catch_unwind(AssertUnwindSafe(|| property(&mut rng)));
        if let Err(payload) = result {
            eprintln!(
                "property '{name}' failed at case {case}/{cases} \
                 (replay with TestRng::seed_from({seed:#x}))"
            );
            resume_unwind(payload);
        }
    }
}

/// Builds a random operation soup: `len` draws from `gen`.
pub fn soup<T>(rng: &mut TestRng, len: usize, mut gen: impl FnMut(&mut TestRng) -> T) -> Vec<T> {
    (0..len).map(|_| gen(rng)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_reproducible() {
        let mut a = TestRng::seed_from(42);
        let mut b = TestRng::seed_from(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn below_respects_bound() {
        let mut r = TestRng::seed_from(1);
        for _ in 0..10_000 {
            assert!(r.below(17) < 17);
        }
    }

    #[test]
    fn range_covers_endpoints() {
        let mut r = TestRng::seed_from(2);
        let (mut lo_seen, mut hi_seen) = (false, false);
        for _ in 0..10_000 {
            match r.range_u64(3, 5) {
                3 => lo_seen = true,
                5 => hi_seen = true,
                4 => {}
                other => panic!("out of range: {other}"),
            }
        }
        assert!(lo_seen && hi_seen);
    }

    #[test]
    fn weighted_zero_weight_never_drawn() {
        let mut r = TestRng::seed_from(3);
        for _ in 0..1_000 {
            assert_ne!(r.weighted(&[1, 0, 3]), 1);
        }
    }

    #[test]
    fn check_runs_all_cases() {
        let mut n = 0u64;
        check("counter", 25, |_| n += 1);
        assert_eq!(n, 25);
    }

    #[test]
    #[should_panic(expected = "deliberate")]
    fn check_propagates_failure() {
        check("fails", 10, |rng| {
            if rng.below(2) == 0 {
                panic!("deliberate");
            }
        });
    }

    #[test]
    fn case_seeds_differ() {
        assert_ne!(case_seed(BASE_SEED, 0), case_seed(BASE_SEED, 1));
    }

    #[test]
    fn unit_f64_in_range_and_centered() {
        let mut r = TestRng::seed_from(9);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let v = r.unit_f64();
            assert!((0.0..1.0).contains(&v));
            sum += v;
        }
        assert!((sum / 10_000.0 - 0.5).abs() < 0.02);
    }
}
