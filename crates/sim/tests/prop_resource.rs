//! Property test: [`Resource`] against a brute-force interval list.
//!
//! The reference keeps every reservation ever made and finds the earliest
//! feasible start by walking them. Against it, for random request streams
//! that book far into the future and then ask for the past:
//!
//! * no two windows overlap and every window starts at or after its `at`;
//! * under a driver that advances the watermark now and then
//!   ([`Resource::retire_before`]) and asks for nothing before it, every
//!   start is the earliest feasible one, and the timeline remembers
//!   exactly the idle stretches that end after the watermark;
//! * under a driver that never retires, the start is the earliest
//!   feasible one until the timeline first forgets a gap at
//!   [`Resource::GAP_GUARD`], and never earlier than feasible after that;
//! * a stream whose `at` never decreases gets exactly the windows of a
//!   busy-until FIFO server, `start = max(at, end of the last window)`.

use checkin_sim::{Resource, SimDuration, SimTime};
use checkin_testkit::{check, TestRng};

/// Every non-empty reservation made so far, sorted by start (and so, as
/// they are disjoint, by finish).
#[derive(Default)]
struct Reference {
    windows: Vec<(u64, u64)>,
}

impl Reference {
    /// Earliest `s >= at` such that `[s, s + d)` — or, for `d == 0`, the
    /// instant `s` itself — touches no reservation.
    fn earliest(&self, at: u64, d: u64) -> u64 {
        let mut s = at;
        let first = self.windows.partition_point(|&(_, finish)| finish <= at);
        for &(start, finish) in &self.windows[first..] {
            if s + d.max(1) <= start {
                break;
            }
            s = s.max(finish);
        }
        s
    }

    fn reserve(&mut self, start: u64, d: u64) {
        if d == 0 {
            return;
        }
        let finish = start + d;
        let idx = self.windows.partition_point(|&(ws, _)| ws < start);
        let before = idx.checked_sub(1).map(|i| self.windows[i]);
        for (ws, wf) in before.into_iter().chain(self.windows.get(idx).copied()) {
            assert!(
                finish <= ws || wf <= start,
                "[{start}, {finish}) overlaps the earlier [{ws}, {wf})"
            );
        }
        self.windows.insert(idx, (start, finish));
    }

    /// The maximal idle stretches before the end of the last reservation
    /// that end after `watermark`, oldest first.
    fn gaps_after(&self, watermark: u64) -> Vec<(u64, u64)> {
        let mut gaps = Vec::new();
        let mut idle_from = 0;
        for &(start, finish) in &self.windows {
            if idle_from < start && start > watermark {
                gaps.push((idle_from, start));
            }
            idle_from = finish;
        }
        gaps
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

/// Books `(at, d)` on both, checks the window against the reference and
/// the resource's totals, and returns the feasible and the actual start.
fn book(
    resource: &mut Resource,
    reference: &mut Reference,
    busy: &mut u64,
    at: u64,
    d: u64,
) -> (u64, u64) {
    let feasible = reference.earliest(at, d);
    let (at_t, d_t) = (SimTime::from_nanos(at), SimDuration::from_nanos(d));
    let peeked = resource.first_fit(at_t, d_t);
    let got = resource.schedule(at_t, d_t);
    assert_eq!(peeked, got.start, "first_fit books nothing and agrees");
    let start = got.start.as_nanos();
    assert_eq!(got.finish.as_nanos(), start + d);
    assert!(start >= at, "window starts at {start}, asked for {at}");
    assert!(start >= feasible, "{start} is earlier than feasible");
    reference.reserve(start, d);
    *busy += d;
    assert_eq!(resource.busy_time().as_nanos(), *busy);
    assert_eq!(resource.available_at().as_nanos(), reference.last_finish());
    assert!(resource.busy_time() <= resource.span());
    (feasible, start)
}

#[test]
fn windows_match_a_brute_force_interval_list() {
    let (mut retirements, mut grown_cases) = (0, 0);
    check("resource vs interval list", 300, |rng| {
        let mut resource = Resource::new("prop");
        let mut reference = Reference::default();
        let mut busy = 0u64;
        // How far ahead of `now` requests reach: short reaches keep the
        // gap list small, long ones grow it past what the list reserves.
        let reach = [200, 2_000, 50_000][rng.range_usize(0, 2)];
        // How often the driver advances the watermark; never, in some
        // cases, so that the list only grows.
        let retire_weight = [0, 1, 8][rng.range_usize(0, 2)];
        let (mut now, mut watermark) = (0u64, 0u64);
        for _ in 0..rng.range_usize(1, 400) {
            now += rng.range_u64(0, 60);
            if rng.weighted(&[20, retire_weight]) == 1 {
                // Often the very instant the next request is for, as
                // an event driver retires at the event it is at.
                watermark = match rng.weighted(&[1, 1]) {
                    0 => now,
                    _ => rng.range_u64(watermark, now),
                };
                resource.retire_before(SimTime::from_nanos(watermark));
                retirements += 1;
            }
            let at = match rng.weighted(&[5, 4, 1]) {
                0 => now,
                1 => now + rng.range_u64(0, reach),
                _ => rng.range_u64(watermark, now),
            };
            let d = draw_duration(rng);
            let (feasible, start) = book(&mut resource, &mut reference, &mut busy, at, d);
            assert_eq!(start, feasible, "request ({at}, {d}) above {watermark}");
            let remembered: Vec<(u64, u64)> = resource
                .idle_gaps()
                .map(|(start, end)| (start.as_nanos(), end.as_nanos()))
                .collect();
            assert!(
                remembered.iter().all(|&(_, end)| end > watermark),
                "a gap over by the watermark {watermark} is remembered: {remembered:?}"
            );
            assert_eq!(remembered, reference.gaps_after(watermark));
        }
        assert_eq!(resource.forgotten_gaps(), 0);
        grown_cases += u32::from(resource.gap_high_water() > 32);
    });
    // The watermark moved often, and some timelines held more gaps than
    // the list reserves.
    assert!(retirements > 1_000, "{retirements}");
    assert!(grown_cases > 10, "{grown_cases}");
}

#[test]
fn a_driver_that_never_retires_never_starts_early() {
    check("resource vs interval list, never retired", 3, |rng| {
        let mut resource = Resource::new("prop");
        let mut reference = Reference::default();
        let mut busy = 0u64;
        let mut now = 0u64;
        // Enough bookings into the future, six in seven leaving a gap
        // behind them, for the list to reach its guard and forget.
        for _ in 0..Resource::GAP_GUARD * 5 / 4 {
            now += rng.range_u64(0, 60);
            let at = match rng.weighted(&[6, 1]) {
                0 => resource.available_at().as_nanos() + rng.range_u64(1, 200),
                _ => rng.range_u64(0, now),
            };
            let d = draw_duration(rng);
            let exact = resource.forgotten_gaps() == 0;
            let (feasible, start) = book(&mut resource, &mut reference, &mut busy, at, d);
            if exact {
                assert_eq!(
                    start, feasible,
                    "request ({at}, {d}) before any gap was forgotten"
                );
            }
        }
        assert!(resource.forgotten_gaps() > 0, "the guard was never reached");
        assert_eq!(resource.gap_high_water(), Resource::GAP_GUARD);
    });
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
