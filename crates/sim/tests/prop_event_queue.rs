//! Property test: [`EventQueue`] against a brute-force model.
//!
//! The model keeps every pending event in a `Vec` and finds the next one
//! by scanning them all for the least `(time, insertion index)` — no heap,
//! so it shares no ordering logic with the queue. Against it, under
//! randomized interleavings of schedules and pops: events pop by time,
//! same-instant events in the order they were scheduled, whether the
//! instants are one tick apart or at the far end of the `u64` range.

use checkin_sim::{EventQueue, SimTime};
use checkin_testkit::{check, TestRng};

/// Every pending event as `(time, insertion index, payload)`.
#[derive(Default)]
struct Model {
    pending: Vec<(u64, u64, u32)>,
    scheduled: u64,
    last_popped: u64,
}

impl Model {
    fn schedule(&mut self, time: u64, payload: u32) {
        self.pending.push((time, self.scheduled, payload));
        self.scheduled += 1;
    }

    fn pop(&mut self) -> Option<(u64, u32)> {
        let earliest =
            (0..self.pending.len()).min_by_key(|&i| (self.pending[i].0, self.pending[i].1))?;
        let (time, _, payload) = self.pending.swap_remove(earliest);
        self.last_popped = time;
        Some((time, payload))
    }
}

/// Draws a schedule offset: frequent same-tick ties, short closed-loop
/// hops, mid-range and long jumps, and rare far-horizon outliers.
fn draw_offset(rng: &mut TestRng) -> u64 {
    match rng.weighted(&[20, 50, 20, 8, 2]) {
        0 => 0,
        1 => rng.below(1 << 12),
        2 => rng.below(1 << 28),
        3 => rng.below(1 << 44),
        _ => (u64::MAX >> 1) + rng.below(1 << 40),
    }
}

fn popped(queue: &mut EventQueue<u32>) -> Option<(u64, u32)> {
    queue.pop().map(|(t, e)| (t.as_nanos(), e))
}

/// `steps` random schedule bursts and pops, then a full drain. A
/// `schedule_share` near 0.3 churns a small population (a burst averages
/// 2.5 events); above that the population grows throughout.
fn run_interleaving(rng: &mut TestRng, steps: u32, schedule_share: f64) {
    let mut queue: EventQueue<u32> = EventQueue::new();
    let mut model = Model::default();
    let mut payload = 0u32;

    for step in 0..steps {
        if queue.is_empty() || rng.chance(schedule_share) {
            // Bursts land several events on one tick to stress FIFO ties.
            let burst = rng.range_u32(1, 4);
            let t = model.last_popped.saturating_add(draw_offset(rng));
            for _ in 0..burst {
                queue.schedule(SimTime::from_nanos(t), payload);
                model.schedule(t, payload);
                payload += 1;
            }
        } else {
            assert_eq!(
                popped(&mut queue),
                model.pop(),
                "pop diverged at step {step}"
            );
        }
        assert_eq!(queue.len(), model.pending.len());
    }

    while let Some(want) = model.pop() {
        assert_eq!(popped(&mut queue), Some(want), "drain diverged");
    }
    assert!(queue.is_empty());
    assert!(queue.pop().is_none());
}

#[test]
fn pops_match_a_linear_scan_model_across_seeds() {
    check("event queue vs linear scan", 32, |rng| {
        run_interleaving(rng, 2_000, 0.55);
    });
}

#[test]
fn pops_match_a_linear_scan_model_long_run() {
    run_interleaving(&mut TestRng::seed_from(42), 40_000, 0.3);
}

#[test]
fn same_tick_burst_pops_in_insertion_order() {
    let mut queue = EventQueue::new();
    let mut model = Model::default();
    // Three waves on the same far-future tick, interleaved with pops.
    let t = (1u64 << 50) + 12345;
    for i in 0..50u32 {
        queue.schedule(SimTime::from_nanos(t), i);
        model.schedule(t, i);
    }
    for _ in 0..20 {
        assert_eq!(popped(&mut queue), model.pop());
    }
    for i in 50..80u32 {
        queue.schedule(SimTime::from_nanos(t), i);
        model.schedule(t, i);
    }
    while let Some(want) = model.pop() {
        assert_eq!(popped(&mut queue), Some(want));
    }
}
