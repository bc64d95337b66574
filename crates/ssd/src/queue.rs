//! Submission-queue depth modelling.
//!
//! NVMe exposes deep queues, but they are finite: when the paper's ISC-A
//! floods the device with one CoW command per journal entry, commands
//! serialize behind the queue. [`CommandQueue`] models this: a command may
//! start only when a slot is free; otherwise it waits for the earliest
//! completion that frees one.
//!
//! Admission instants are *not* monotone. A checkpoint chains its
//! sub-commands into the future inside one simulation event, and the next
//! client command is submitted at an earlier instant — it must still find
//! in flight every command that completes after it arrives. The queue
//! therefore never retires a completion because a later admission passed
//! it; it keeps the `depth` latest completion instants, which decide every
//! admission: a command arriving at `at` finds the queue full exactly when
//! the oldest of them is still later than `at`, and that instant is when
//! its slot frees.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use checkin_sim::{SimTime, TraceEvent, TraceLayer, Tracer};

/// A fixed-depth in-flight command window.
///
/// # Examples
///
/// ```
/// use checkin_ssd::CommandQueue;
/// use checkin_sim::SimTime;
///
/// let mut q = CommandQueue::new(1);
/// let t0 = q.admit(SimTime::ZERO);
/// q.complete(SimTime::from_nanos(100));
/// // Depth 1: the next command cannot start before the first completes.
/// let t1 = q.admit(SimTime::ZERO);
/// assert_eq!((t0.as_nanos(), t1.as_nanos()), (0, 100));
/// ```
#[derive(Debug, Clone)]
pub struct CommandQueue {
    depth: usize,
    /// Min-heap of the (at most) `depth` latest completion instants.
    /// Sized once: admission and completion never allocate.
    latest: BinaryHeap<Reverse<SimTime>>,
    tracer: Tracer,
}

impl CommandQueue {
    /// Creates a queue admitting up to `depth` concurrent commands.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is zero.
    pub fn new(depth: usize) -> Self {
        assert!(depth > 0, "queue depth must be positive");
        CommandQueue {
            depth,
            latest: BinaryHeap::with_capacity(depth + 1),
            tracer: Tracer::disabled(),
        }
    }

    /// Installs a trace sink; each admission then records its queue wait
    /// and the in-flight depth at start.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Earliest instant a command arriving at `at` may start. Call
    /// [`CommandQueue::complete`] with its completion time afterwards.
    pub fn admit(&mut self, at: SimTime) -> SimTime {
        let start = match self.latest.peek() {
            Some(&Reverse(frees)) if self.latest.len() == self.depth => at.max(frees),
            _ => at,
        };
        self.tracer.emit(|| {
            let inflight = self.latest.iter().filter(|c| c.0 > start).count();
            TraceEvent::new(start, TraceLayer::Queue, "admit")
                .with("wait_ns", start.duration_since(at).as_nanos())
                .with("inflight", inflight as u64)
        });
        start
    }

    /// Registers the completion time of an admitted command.
    pub fn complete(&mut self, done: SimTime) {
        self.latest.push(Reverse(done));
        if self.latest.len() > self.depth {
            self.latest.pop();
        }
    }

    /// Configured depth.
    pub fn depth(&self) -> usize {
        self.depth
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admits_up_to_depth_immediately() {
        let mut q = CommandQueue::new(4);
        for _ in 0..4 {
            assert_eq!(q.admit(SimTime::ZERO), SimTime::ZERO);
            q.complete(SimTime::from_nanos(1_000));
        }
        // Fifth command waits for a completion slot.
        assert_eq!(q.admit(SimTime::ZERO), SimTime::from_nanos(1_000));
    }

    #[test]
    fn expired_completions_free_slots() {
        let mut q = CommandQueue::new(1);
        q.admit(SimTime::ZERO);
        q.complete(SimTime::from_nanos(10));
        // Arriving after completion: starts immediately, and so does the
        // next command once this one is over — the expired completion
        // holds no slot.
        assert_eq!(q.admit(SimTime::from_nanos(20)), SimTime::from_nanos(20));
        q.complete(SimTime::from_nanos(30));
        assert_eq!(q.admit(SimTime::from_nanos(30)), SimTime::from_nanos(30));
    }

    #[test]
    fn an_earlier_admission_still_sees_what_is_in_flight_at_its_instant() {
        let ns = SimTime::from_nanos;
        let mut q = CommandQueue::new(2);
        assert_eq!(q.admit(ns(0)), ns(0));
        q.complete(ns(500));
        // A sub-command chained far into the future by the same event...
        assert_eq!(q.admit(ns(10_000)), ns(10_000));
        q.complete(ns(11_000));
        // ...must not retire the first completion: a command arriving at
        // 100 finds both slots taken and waits for the one freed at 500.
        assert_eq!(q.admit(ns(100)), ns(500));
        // Its completion lies before the far-future admission; recording
        // it is legal, and it is what the next early arrival waits for.
        q.complete(ns(900));
        assert_eq!(q.admit(ns(600)), ns(900));
        q.complete(ns(950));
        // At 20 000 everything has completed.
        assert_eq!(q.admit(ns(20_000)), ns(20_000));
    }

    #[test]
    fn serializes_burst_beyond_depth() {
        let mut q = CommandQueue::new(2);
        let mut starts = Vec::new();
        for i in 0..6u64 {
            let s = q.admit(SimTime::ZERO);
            starts.push(s.as_nanos());
            q.complete(s + checkin_sim::SimDuration::from_nanos(100 * (i + 1)));
        }
        assert_eq!(starts[0], 0);
        assert_eq!(starts[1], 0);
        assert!(starts[2] > 0, "third command queued: {starts:?}");
        assert!(starts.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    #[should_panic(expected = "depth must be positive")]
    fn zero_depth_panics() {
        CommandQueue::new(0);
    }
}
