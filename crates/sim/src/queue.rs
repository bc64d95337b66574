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
//!
//! A completion some admission depended on is *consumed*: moving it would
//! change an instant already handed out. Every other one may still move
//! later ([`InFlight::move_completions`]) — the write buffer's drain
//! programs do when a foreground read goes ahead of them.

use crate::time::SimTime;

/// One recorded completion, and whether an admission depended on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Completion {
    at: SimTime,
    consumed: bool,
}

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
/// // That admission depended on the completion at 100: it can never move.
/// assert!(!slots.movable(SimTime::from_nanos(100), 1));
/// ```
#[derive(Debug, Clone)]
pub struct InFlight {
    depth: usize,
    /// The (at most) `depth` latest completions, ascending by instant.
    /// Sized once: no method allocates.
    latest: Vec<Completion>,
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
            latest: Vec::with_capacity(depth + 1),
        }
    }

    /// Earliest instant an operation arriving at `at` may start. Call
    /// [`InFlight::complete`] with its completion instant afterwards.
    ///
    /// A full window admits at `max(at, oldest completion)`: the answer
    /// depends on that completion, which is consumed from then on.
    pub fn admit(&mut self, at: SimTime) -> SimTime {
        let full = self.latest.len() == self.depth;
        match self.latest.first_mut() {
            Some(oldest) if full => {
                oldest.consumed = true;
                at.max(oldest.at)
            }
            _ => at,
        }
    }

    /// The instant [`InFlight::admit`] would answer for an operation
    /// arriving at `at`, without admitting one: `at` while a slot is
    /// free, else when the oldest completion frees one.
    pub fn next_free(&self, at: SimTime) -> SimTime {
        match self.latest.first() {
            Some(oldest) if self.latest.len() == self.depth => at.max(oldest.at),
            _ => at,
        }
    }

    /// Registers the completion instant of an admitted operation.
    pub fn complete(&mut self, done: SimTime) {
        let idx = self.latest.partition_point(|c| c.at <= done);
        self.latest.insert(
            idx,
            Completion {
                at: done,
                consumed: false,
            },
        );
        if self.latest.len() > self.depth {
            self.latest.remove(0);
        }
    }

    /// How many recorded completions lie after `at`: the operations in
    /// flight at that instant, at most `depth`.
    pub fn in_flight_at(&self, at: SimTime) -> usize {
        self.latest.iter().filter(|c| c.at > at).count()
    }

    /// The latest completion on record, `None` before the first (or since
    /// [`InFlight::clear`]). A caller that waits for it waits for all of
    /// them, so every completion is consumed.
    pub fn wait_all(&mut self) -> Option<SimTime> {
        for c in &mut self.latest {
            c.consumed = true;
        }
        self.latest.last().map(|c| c.at)
    }

    /// True when `count` (at least one) recorded completions at `at` are
    /// not consumed, so [`InFlight::move_completions`] may move them.
    pub fn movable(&self, at: SimTime, count: usize) -> bool {
        let free = self
            .latest
            .iter()
            .filter(|c| c.at == at && !c.consumed)
            .count();
        count > 0 && free >= count
    }

    /// Moves `count` unconsumed completions at `from` to the later
    /// instant `to`, keeping the depth: the operations they stand for now
    /// finish then. Only [`InFlight::movable`] completions move.
    pub fn move_completions(&mut self, from: SimTime, to: SimTime, count: usize) {
        debug_assert!(to >= from, "a completion moves later, never earlier");
        debug_assert!(
            self.movable(from, count),
            "moving a consumed or unrecorded completion at {from}: {self:?}"
        );
        let mut left = count;
        for c in &mut self.latest {
            if left > 0 && c.at == from && !c.consumed {
                c.at = to;
                left -= 1;
            }
        }
        self.latest.sort_unstable_by_key(|c| c.at);
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
            assert_eq!(w.next_free(SimTime::ZERO), SimTime::ZERO);
            assert_eq!(run(&mut w, SimTime::ZERO, done), SimTime::ZERO);
        }
        // Fifth operation waits for a completion slot; asking when one
        // frees admits nothing.
        assert_eq!(w.next_free(SimTime::ZERO), done);
        assert_eq!(w.in_flight_at(SimTime::ZERO), 4);
        assert_eq!(w.admit(SimTime::ZERO), done);
        assert_eq!(w.in_flight_at(SimTime::ZERO), 4);
        assert_eq!(w.wait_all(), Some(done));
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
        assert_eq!((w.admit(ns(40)), w.wait_all()), (ns(40), None));
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
    fn a_consumed_completion_never_moves() {
        let ns = SimTime::from_nanos;
        let mut w = InFlight::new(2);
        run(&mut w, ns(0), ns(500));
        run(&mut w, ns(0), ns(800));
        assert!(w.movable(ns(500), 1) && w.movable(ns(800), 1));
        // A full window hands out its oldest completion, or depends on it
        // having passed: either way it is consumed.
        assert_eq!(w.admit(ns(0)), ns(500));
        assert!(!w.movable(ns(500), 1));
        assert!(w.movable(ns(800), 1));
        assert_eq!(w.admit(ns(600)), ns(600));
        assert!(!w.movable(ns(500), 1), "still consumed");
        // A caller that waits for all of them consumes every one.
        assert_eq!(w.wait_all(), Some(ns(800)));
        assert!(!w.movable(ns(800), 1));
        // Nothing recorded there, or nothing asked for: nothing to move.
        assert!(!w.movable(ns(700), 1));
        assert!(!w.movable(ns(800), 0));
    }

    #[test]
    fn a_move_keeps_the_depth_and_only_moves_what_is_free() {
        let ns = SimTime::from_nanos;
        let mut w = InFlight::new(3);
        // Two pages of one program and one of another finish together.
        for _ in 0..3 {
            run(&mut w, ns(0), ns(500));
        }
        // An admission consumes one of the three; two stay movable.
        assert_eq!(w.admit(ns(0)), ns(500));
        assert!(w.movable(ns(500), 2) && !w.movable(ns(500), 3));
        w.move_completions(ns(500), ns(700), 2);
        assert_eq!(w.in_flight_at(ns(0)), 3, "the depth is kept");
        assert_eq!(w.in_flight_at(ns(500)), 2);
        assert_eq!(w.in_flight_at(ns(700)), 0);
        // The oldest is the consumed one, still at 500.
        assert_eq!(w.admit(ns(0)), ns(500));
        assert!(w.movable(ns(700), 2));
    }

    #[test]
    fn neither_consuming_nor_moving_allocates() {
        let ns = SimTime::from_nanos;
        let mut w = InFlight::new(4);
        let buffer = (w.latest.as_ptr(), w.latest.capacity());
        for i in 0..40u64 {
            run(&mut w, ns(i * 10), ns(i * 10 + 300));
            let last = ns(i * 10 + 300);
            if w.movable(last, 1) {
                w.move_completions(last, last + SimDuration::from_nanos(50), 1);
            }
        }
        w.wait_all();
        assert_eq!((w.latest.as_ptr(), w.latest.capacity()), buffer);
    }

    #[test]
    #[should_panic(expected = "depth must be positive")]
    fn zero_depth_panics() {
        InFlight::new(0);
    }
}
