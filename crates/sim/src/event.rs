//! A deterministic future-event list.
//!
//! [`EventQueue`] is a binary min-heap keyed on `(time, sequence)`: the
//! integer-nanosecond instant an event fires at, then the order it was
//! scheduled in. Events therefore pop by time and same-instant events in
//! insertion order, so a simulation replays identically whatever the
//! heap does internally. The sequence number is the whole tie-break; the
//! payload is never compared and needs no trait.
//!
//! The only product caller is the closed loop in `KvSystem::run`, which
//! holds one pending event per client thread plus the checkpoint tick —
//! 5 to 129 events in every configuration the paper has — and asserts
//! that bound. At that population a sift is a handful of comparisons
//! inside one or two cache lines (measurements: EXPERIMENTS.md, PR 19).

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// A pending event. Ordered on `(time, seq)` alone and *reversed*, so
/// that `BinaryHeap`, a max-heap, surfaces the earliest entry.
#[derive(Debug, Clone)]
struct Entry<E> {
    time: SimTime,
    seq: u64,
    payload: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

/// Future-event list ordered by time, with FIFO tie-breaking.
///
/// # Examples
///
/// ```
/// use checkin_sim::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_nanos(20), "later");
/// q.schedule(SimTime::from_nanos(10), "sooner");
/// let (t, e) = q.pop().unwrap();
/// assert_eq!((t.as_nanos(), e), (10, "sooner"));
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    /// Sequence number of the next scheduled event.
    next_seq: u64,
    last_popped: SimTime,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty queue pre-sized for `n` concurrent events (closed
    /// loops know their population upfront).
    pub fn with_capacity(n: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::with_capacity(n),
            next_seq: 0,
            last_popped: SimTime::ZERO,
        }
    }

    /// Schedules `payload` to fire at absolute instant `time`.
    ///
    /// Scheduling into the past (before the last popped event) is a logic
    /// error in the simulation; it is clamped forward to preserve causal
    /// ordering and flagged with a debug assertion.
    pub fn schedule(&mut self, time: SimTime, payload: E) {
        debug_assert!(
            time >= self.last_popped,
            "event scheduled in the past: {time} < {}",
            self.last_popped
        );
        let time = time.max(self.last_popped);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { time, seq, payload });
    }

    /// Removes and returns the earliest event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let Entry { time, payload, .. } = self.heap.pop()?;
        self.last_popped = time;
        Some((time, payload))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(30), 3);
        q.schedule(SimTime::from_nanos(10), 1);
        q.schedule(SimTime::from_nanos(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos(5);
        for i in 0..100 {
            q.schedule(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn empty_queue_pops_none() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(q.pop().is_none());
        assert!(q.is_empty());
    }

    #[test]
    fn far_horizon_times_order_correctly() {
        // Times across the whole `u64` range, including the top bits.
        let mut q = EventQueue::new();
        let times = [
            u64::MAX,
            1,
            u64::MAX - 1,
            1 << 63,
            (1 << 63) + 1,
            0,
            1 << 35,
        ];
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_nanos(t), i);
        }
        let mut sorted: Vec<u64> = times.to_vec();
        sorted.sort_unstable();
        let popped: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(t, _)| t.as_nanos())).collect();
        assert_eq!(popped, sorted);
    }

    #[test]
    fn freed_nodes_are_reused() {
        // A closed loop of 8 events: popped entries give their storage
        // back, so the queue never grows past what it reserved up front.
        let mut q = EventQueue::with_capacity(8);
        let reserved = q.heap.capacity();
        for round in 0..100u64 {
            for i in 0..8u64 {
                q.schedule(SimTime::from_nanos(round * 1000 + i), i);
            }
            for _ in 0..8 {
                q.pop().unwrap();
            }
        }
        assert_eq!(q.heap.capacity(), reserved, "the queue's storage grew");
    }

    #[test]
    fn interleaved_schedule_and_pop_stays_ordered() {
        // Closed-loop shape: pop one, reschedule it later, repeatedly.
        let mut q = EventQueue::new();
        for i in 0..8u64 {
            q.schedule(SimTime::from_nanos(i * 100), i);
        }
        let mut last = 0u64;
        for step in 0..1_000u64 {
            let (t, e) = q.pop().unwrap();
            assert!(t.as_nanos() >= last, "time went backwards at step {step}");
            last = t.as_nanos();
            q.schedule(t + crate::SimDuration::from_nanos(250 + (e * 37) % 500), e);
        }
        assert_eq!(q.len(), 8);
    }
}
