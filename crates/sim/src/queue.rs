//! Fixed-depth in-flight windows: the one admission rule behind the
//! device's NVMe submission queue and its write buffer's programming
//! slots.
//!
//! An operation may start only when fewer than `depth` operations are in
//! flight; otherwise it waits for the earliest completion that frees a
//! slot. [`InFlight`] keeps exactly what that rule needs.
//!
//! Admission instants are *not* monotone. A checkpoint chains its
//! sub-commands into the future inside one simulation event, and the next
//! client command is submitted at an earlier instant — it must still find
//! in flight every operation that completes after it arrives. The window
//! therefore never retires a completion because a later admission passed
//! it; it keeps the `depth` latest completion instants, which decide every
//! admission: an operation arriving at `at` finds the window full exactly
//! when the oldest of them is still later than `at`, and that instant is
//! when its slot frees. (A completion later than `at` counts as in flight
//! at `at` even if its operation had not started yet.)

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// A fixed-depth window of in-flight operations, known by their
/// completion instants.
///
/// # Examples
///
/// ```
/// use checkin_sim::{InFlight, SimTime};
///
/// let mut slots = InFlight::new(1);
/// let t0 = slots.admit(SimTime::ZERO);
/// slots.complete(SimTime::from_nanos(100));
/// // Depth 1: the next operation cannot start before the first completes.
/// let t1 = slots.admit(SimTime::ZERO);
/// assert_eq!((t0.as_nanos(), t1.as_nanos()), (0, 100));
/// ```
#[derive(Debug, Clone)]
pub struct InFlight {
    depth: usize,
    /// Min-heap of the (at most) `depth` latest completion instants.
    /// Sized once: admission and completion never allocate.
    latest: BinaryHeap<Reverse<SimTime>>,
}

impl InFlight {
    /// Creates a window admitting up to `depth` concurrent operations.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is zero.
    pub fn new(depth: usize) -> Self {
        assert!(depth > 0, "queue depth must be positive");
        InFlight {
            depth,
            latest: BinaryHeap::with_capacity(depth + 1),
        }
    }

    /// Earliest instant an operation arriving at `at` may start. Call
    /// [`InFlight::complete`] with its completion instant afterwards.
    pub fn admit(&self, at: SimTime) -> SimTime {
        match self.latest.peek() {
            Some(&Reverse(frees)) if self.latest.len() == self.depth => at.max(frees),
            _ => at,
        }
    }

    /// Registers the completion instant of an admitted operation.
    pub fn complete(&mut self, done: SimTime) {
        self.latest.push(Reverse(done));
        if self.latest.len() > self.depth {
            self.latest.pop();
        }
    }

    /// How many recorded completions lie after `at`: the operations in
    /// flight at that instant, at most `depth`.
    pub fn in_flight_at(&self, at: SimTime) -> usize {
        self.latest.iter().filter(|c| c.0 > at).count()
    }

    /// The latest completion ever recorded, `None` before the first
    /// (or since [`InFlight::clear`]).
    pub fn last_completion(&self) -> Option<SimTime> {
        self.latest.iter().map(|c| c.0).max()
    }

    /// Forgets every completion, keeping the allocation: nothing is in
    /// flight any more.
    pub fn clear(&mut self) {
        self.latest.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    /// Admits at `at` and records the operation as done at `done`.
    fn run(w: &mut InFlight, at: SimTime, done: SimTime) -> SimTime {
        let start = w.admit(at);
        w.complete(done);
        start
    }

    #[test]
    fn admits_up_to_depth_immediately() {
        let mut w = InFlight::new(4);
        let done = SimTime::from_nanos(1_000);
        for _ in 0..4 {
            assert_eq!(run(&mut w, SimTime::ZERO, done), SimTime::ZERO);
        }
        // Fifth operation waits for a completion slot.
        assert_eq!(w.admit(SimTime::ZERO), done);
        assert_eq!(w.in_flight_at(SimTime::ZERO), 4);
        assert_eq!(w.last_completion(), Some(done));
    }

    #[test]
    fn expired_completions_free_slots() {
        let ns = SimTime::from_nanos;
        let mut w = InFlight::new(1);
        run(&mut w, ns(0), ns(10));
        // Arriving after completion: starts immediately, and so does the
        // next operation once this one is over — the expired completion
        // holds no slot.
        assert_eq!(run(&mut w, ns(20), ns(30)), ns(20));
        assert_eq!(w.admit(ns(30)), ns(30));
        // An emptied window holds nothing at all.
        run(&mut w, ns(30), ns(5_000));
        w.clear();
        assert_eq!((w.admit(ns(40)), w.last_completion()), (ns(40), None));
    }

    #[test]
    fn an_earlier_admission_still_sees_what_is_in_flight_at_its_instant() {
        let ns = SimTime::from_nanos;
        let mut w = InFlight::new(2);
        assert_eq!(run(&mut w, ns(0), ns(500)), ns(0));
        // An operation chained far into the future by the same event...
        assert_eq!(run(&mut w, ns(10_000), ns(11_000)), ns(10_000));
        // ...must not retire the first completion: an operation arriving
        // at 100 finds both slots taken and waits for the one freed at 500.
        // Its completion lies before the far-future admission; recording
        // it is legal, and it is what the next early arrival waits for.
        assert_eq!(run(&mut w, ns(100), ns(900)), ns(500));
        assert_eq!(run(&mut w, ns(600), ns(950)), ns(900));
        // At 20 000 everything has completed.
        assert_eq!(w.admit(ns(20_000)), ns(20_000));
    }

    #[test]
    fn serializes_burst_beyond_depth() {
        let mut w = InFlight::new(2);
        let mut starts = Vec::new();
        for i in 0..6u64 {
            let s = w.admit(SimTime::ZERO);
            starts.push(s.as_nanos());
            w.complete(s + SimDuration::from_nanos(100 * (i + 1)));
        }
        assert_eq!(starts[0], 0);
        assert_eq!(starts[1], 0);
        assert!(starts[2] > 0, "third operation queued: {starts:?}");
        assert!(starts.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    #[should_panic(expected = "depth must be positive")]
    fn zero_depth_panics() {
        InFlight::new(0);
    }
}
