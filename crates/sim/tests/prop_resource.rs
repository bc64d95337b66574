//! Property test: [`Resource`] against a brute-force interval list.
//!
//! The reference keeps every reservation ever made and finds the earliest
//! feasible start by walking them. Against it, for random request streams
//! that book far into the future and then ask for the past:
//!
//! * no two windows overlap and every window starts at or after its `at`;
//! * the start is the earliest feasible one for as long as the timeline
//!   never had to remember more than [`Resource::GAP_CAPACITY`] idle gaps,
//!   and never earlier than feasible after that;
//! * a stream whose `at` never decreases gets exactly the windows of a
//!   busy-until FIFO server, `start = max(at, end of the last window)`.

use checkin_sim::{Resource, SimDuration, SimTime};
use checkin_testkit::{check, TestRng};

/// Every non-empty reservation made so far, sorted by start.
#[derive(Default)]
struct Reference {
    windows: Vec<(u64, u64)>,
}

impl Reference {
    /// Earliest `s >= at` such that `[s, s + d)` — or, for `d == 0`, the
    /// instant `s` itself — touches no reservation.
    fn earliest(&self, at: u64, d: u64) -> u64 {
        let mut s = at;
        for &(start, finish) in &self.windows {
            if s < finish && s + d.max(1) > start {
                s = finish;
            }
        }
        s
    }

    fn reserve(&mut self, start: u64, d: u64) {
        if d == 0 {
            return;
        }
        let finish = start + d;
        for &(ws, wf) in &self.windows {
            assert!(
                finish <= ws || wf <= start,
                "[{start}, {finish}) overlaps the earlier [{ws}, {wf})"
            );
        }
        let idx = self.windows.partition_point(|&(ws, _)| ws < start);
        self.windows.insert(idx, (start, finish));
    }

    /// Maximal idle stretches before the end of the last reservation.
    fn gaps(&self) -> usize {
        let leading = self.windows.first().is_some_and(|&(start, _)| start > 0);
        let between = self.windows.windows(2).filter(|w| w[0].1 < w[1].0).count();
        usize::from(leading) + between
    }

    fn last_finish(&self) -> u64 {
        self.windows.last().map_or(0, |&(_, finish)| finish)
    }
}

fn draw_duration(rng: &mut TestRng) -> u64 {
    match rng.weighted(&[1, 12, 6, 1]) {
        0 => 0,
        1 => rng.range_u64(1, 40),
        2 => rng.range_u64(40, 400),
        _ => rng.range_u64(400, 4_000),
    }
}

#[test]
fn windows_match_a_brute_force_interval_list() {
    let mut overflowed_cases = 0;
    check("resource vs interval list", 300, |rng| {
        let mut resource = Resource::new("prop");
        let mut reference = Reference::default();
        let mut overflowed = false;
        let mut busy = 0u64;
        // How far ahead of `now` requests reach: short reaches keep the
        // gap list small, long ones overflow it.
        let reach = [200, 2_000, 50_000][rng.range_usize(0, 2)];
        let mut now = 0u64;
        for _ in 0..rng.range_usize(1, 400) {
            now += rng.range_u64(0, 60);
            let at = match rng.weighted(&[5, 4, 1]) {
                0 => now,
                1 => now + rng.range_u64(0, reach),
                _ => rng.range_u64(0, now),
            };
            let d = draw_duration(rng);
            let feasible = reference.earliest(at, d);
            let (at_t, d_t) = (SimTime::from_nanos(at), SimDuration::from_nanos(d));
            let peeked = resource.first_fit(at_t, d_t);
            let got = resource.schedule(at_t, d_t);
            assert_eq!(peeked, got.start, "first_fit books nothing and agrees");
            let start = got.start.as_nanos();
            assert_eq!(got.finish.as_nanos(), start + d);
            assert!(start >= at, "window starts at {start}, asked for {at}");
            if overflowed {
                assert!(start >= feasible, "{start} is earlier than feasible");
            } else {
                assert_eq!(start, feasible, "request ({at}, {d})");
            }
            reference.reserve(start, d);
            overflowed |= reference.gaps() > Resource::GAP_CAPACITY;
            busy += d;
            assert_eq!(resource.busy_time().as_nanos(), busy);
            assert_eq!(resource.available_at().as_nanos(), reference.last_finish());
            assert!(resource.busy_time() <= resource.span());
        }
        overflowed_cases += u32::from(overflowed);
    });
    // Both regimes were exercised.
    assert!((30..270).contains(&overflowed_cases), "{overflowed_cases}");
}

#[test]
fn a_non_decreasing_stream_is_served_first_in_first_out() {
    check("resource vs busy-until", 200, |rng| {
        let mut resource = Resource::new("prop");
        let (mut at, mut free_at) = (0u64, 0u64);
        for _ in 0..rng.range_usize(1, 300) {
            at += match rng.weighted(&[2, 5, 2]) {
                0 => 0,
                1 => rng.range_u64(0, 100),
                _ => rng.range_u64(100, 5_000),
            };
            let d = draw_duration(rng);
            let got = resource.schedule(SimTime::from_nanos(at), SimDuration::from_nanos(d));
            let start = at.max(free_at);
            assert_eq!(
                (got.start.as_nanos(), got.finish.as_nanos()),
                (start, start + d)
            );
            free_at = start + d;
        }
    });
}
