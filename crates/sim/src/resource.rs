//! Idle-gap-aware resource timelines.
//!
//! Device-internal contention (a flash die, a PCIe link, a firmware CPU) is
//! modelled by [`Resource`]: a single server with a timeline of
//! reservations. Scheduling an operation returns the earliest `(start,
//! finish)` window of the requested length, at or after the requested
//! instant, that overlaps no earlier reservation.
//!
//! Requests do *not* arrive in time order: one simulation event books
//! windows in its own future (a read reserves the link for its data-out at
//! the instant the flash read will finish; a program reserves the die for
//! when its channel transfer ends), and the next event's request may be
//! for an instant before those bookings. The timeline therefore keeps,
//! next to the end of its last reservation, the idle gaps that
//! reservations into the future left behind, and a request for the past
//! takes the first gap it fits.
//!
//! Every gap that a request can still reach is kept, so the window is
//! exactly the earliest feasible one. What keeps the list short is the
//! event clock: a driver that hands out events in time order calls
//! [`Resource::retire_before`] with the time of the event it is at. That
//! drops the gaps that are over by then (no later request can reach
//! them) and records the time as the timeline's *watermark*; a request
//! for an instant before the watermark is a driver bug and fails a
//! `debug_assert!`. Retiring is garbage collection, so a driver may do it
//! as rarely as its memory allows: the windows do not change.
//!
//! A booking never records a stretch that ends at or before the
//! watermark, so after every call the list holds exactly the idle
//! stretches a request could still book. It is a heap deque reserved at
//! 32 gaps and grown on demand. A driver that never retires accumulates
//! dead gaps, and [`Resource::GAP_GUARD`] bounds what they cost: a
//! timeline that holds that many forgets its oldest gap. That costs
//! capacity (a later start than strictly necessary), never a double
//! booking, and is counted ([`Resource::forgotten_gaps`]).

use std::collections::VecDeque;

use crate::time::{SimDuration, SimTime};

/// An idle stretch `[start, end)` between two reservations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Gap {
    start: SimTime,
    end: SimTime,
}

/// A single server with a reservation timeline and utilization accounting.
///
/// # Examples
///
/// ```
/// use checkin_sim::{Resource, SimTime, SimDuration};
///
/// let us = SimDuration::from_micros;
/// let at = |n| SimTime::ZERO + us(n);
/// let mut link = Resource::new("pcie");
/// // A command capsule now, and its data-out booked for when the flash
/// // read will be done, 50 us from now.
/// let capsule = link.schedule(at(0), us(5));
/// let data_out = link.schedule(at(50), us(2));
/// // The next command's capsule queues behind the first capsule, not
/// // behind the data-out: the link is idle in between.
/// let next = link.schedule(at(0), us(5));
/// assert_eq!(next.start, capsule.finish);
/// assert!(next.finish <= data_out.start);
/// // What does not fit the idle stretch goes behind everything.
/// let bulk = link.schedule(at(0), us(100));
/// assert_eq!(bulk.start, data_out.finish);
/// // The event clock moved on: no request will be for an instant before
/// // 60 us, so the idle stretch before the data-out can go.
/// link.retire_before(at(60));
/// assert_eq!(link.schedule(at(60), us(1)).start, bulk.finish);
/// ```
#[derive(Clone)]
pub struct Resource {
    name: &'static str,
    /// End of the latest reservation; everything from here on is free.
    busy_until: SimTime,
    busy_time: SimDuration,
    /// Start of the earliest reservation (`SimTime::MAX` while unused).
    first_start: SimTime,
    /// No request is for an instant before this, and no gap ends at or
    /// before it.
    watermark: SimTime,
    /// The bookable idle stretches before `busy_until`, oldest first:
    /// sorted by time and pairwise disjoint.
    gaps: VecDeque<Gap>,
    /// Most gaps held at once.
    gap_high_water: usize,
    /// Gaps forgotten at [`Resource::GAP_GUARD`].
    forgotten: u64,
}

impl std::fmt::Debug for Resource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Resource")
            .field("name", &self.name)
            .field("busy_until", &self.busy_until)
            .field("busy_time", &self.busy_time)
            .field("watermark", &self.watermark)
            .field("gaps", &self.gaps)
            .finish()
    }
}

/// The time window an operation occupies on a [`Resource`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Window {
    /// When service begins (>= request time).
    pub start: SimTime,
    /// When service completes.
    pub finish: SimTime,
}

impl Window {
    /// Queueing delay plus service time as seen by the requester.
    pub fn latency_from(&self, requested_at: SimTime) -> SimDuration {
        self.finish.saturating_duration_since(requested_at)
    }
}

impl Resource {
    /// Most gaps a timeline holds. Only a driver that never calls
    /// [`Resource::retire_before`] reaches it: under the event clock the
    /// busiest timeline of the benchmark workloads and the paper's
    /// figures (a Baseline checkpoint burst) holds under 12 000.
    pub const GAP_GUARD: usize = 16_384;

    /// Gaps reserved up front: one heap allocation per timeline, and none
    /// on a timeline whose live gaps stay this few.
    const GAP_RESERVE: usize = 32;

    /// Creates an idle resource. `name` appears in debug output only.
    pub fn new(name: &'static str) -> Self {
        Resource {
            name,
            busy_until: SimTime::ZERO,
            busy_time: SimDuration::ZERO,
            first_start: SimTime::MAX,
            watermark: SimTime::ZERO,
            gaps: VecDeque::with_capacity(Resource::GAP_RESERVE),
            gap_high_water: 0,
            forgotten: 0,
        }
    }

    /// Reserves the earliest window of length `duration` that starts no
    /// earlier than `at` and overlaps no earlier reservation, and returns
    /// it. A zero-length request waits for an idle instant and reserves
    /// nothing.
    pub fn schedule(&mut self, at: SimTime, duration: SimDuration) -> Window {
        self.check_not_retired(at);
        let start = match self.take_gap(at, duration) {
            Some(start) => start,
            None => self.append(at, duration),
        };
        self.busy_time += duration;
        self.first_start = self.first_start.min(start);
        Window {
            start,
            finish: start + duration,
        }
    }

    /// Promises that no later request is for an instant before `t`, and
    /// forgets every idle gap that ends at or before the watermark (the
    /// latest such `t`). The windows later requests get are the same
    /// whether or not this is called, as long as the list stays under
    /// [`Resource::GAP_GUARD`].
    pub fn retire_before(&mut self, t: SimTime) {
        self.watermark = self.watermark.max(t);
        let over = self.gaps.partition_point(|gap| gap.end <= self.watermark);
        self.gaps.drain(..over);
    }

    fn check_not_retired(&self, at: SimTime) {
        debug_assert!(
            at >= self.watermark,
            "{}: request at {at:?} before the watermark {:?}",
            self.name,
            self.watermark
        );
    }

    /// Books `duration` behind every reservation made so far, recording
    /// the idle stretch it leaves in front of itself as a new gap unless
    /// that is over by the watermark.
    fn append(&mut self, at: SimTime, duration: SimDuration) -> SimTime {
        let start = at.max(self.busy_until);
        if !duration.is_zero() {
            if start > self.busy_until && start > self.watermark {
                let skipped = Gap {
                    start: self.busy_until,
                    end: start,
                };
                self.insert_gap(self.gaps.len(), skipped);
            }
            self.busy_until = start + duration;
        }
        start
    }

    /// Where [`Resource::schedule`] would start a window of `duration` at
    /// or after `at`, without booking it.
    pub fn first_fit(&self, at: SimTime, duration: SimDuration) -> SimTime {
        self.check_not_retired(at);
        self.find_gap(at, duration)
            .map_or(at.max(self.busy_until), |(_, _, start)| start)
    }

    /// The first idle gap that holds `duration` at or after `at`: its
    /// index, the gap, and where the booking would start in it.
    fn find_gap(&self, at: SimTime, duration: SimDuration) -> Option<(usize, Gap, SimTime)> {
        if at >= self.busy_until {
            return None;
        }
        // The list is sorted: skip the gaps that are over by `at` (what is
        // left has `at < gap.end`, so `start` below lies inside its gap).
        let first = self.gaps.partition_point(|gap| gap.end <= at);
        (first..)
            .zip(self.gaps.range(first..))
            .find_map(|(idx, &gap)| {
                let start = gap.start.max(at);
                (start + duration <= gap.end).then_some((idx, gap, start))
            })
    }

    /// Books `duration` in the first idle gap that holds it at or after
    /// `at`, splitting the gap around the booking. The part in front of
    /// the booking is dropped when it is over by the watermark.
    fn take_gap(&mut self, at: SimTime, duration: SimDuration) -> Option<SimTime> {
        let (idx, gap, start) = self.find_gap(at, duration)?;
        if duration.is_zero() {
            return Some(start);
        }
        let finish = start + duration;
        let left = gap.start < start && start > self.watermark;
        let slot = self.gaps.get_mut(idx)?;
        match (left, finish < gap.end) {
            (true, true) => {
                slot.end = start;
                let rest = Gap {
                    start: finish,
                    end: gap.end,
                };
                self.insert_gap(idx + 1, rest);
            }
            (true, false) => slot.end = start,
            (false, true) => slot.start = finish,
            (false, false) => {
                self.gaps.remove(idx);
            }
        }
        Some(start)
    }

    /// Inserts `gap` at position `idx` of the sorted list. At
    /// [`Resource::GAP_GUARD`] gaps the oldest is forgotten first (callers
    /// never insert in front of the oldest: a split keeps its left part
    /// there, an append goes last).
    fn insert_gap(&mut self, mut idx: usize, gap: Gap) {
        if self.gaps.len() == Resource::GAP_GUARD {
            self.gaps.pop_front();
            self.forgotten += 1;
            idx -= 1;
        }
        self.gaps.insert(idx, gap);
        self.gap_high_water = self.gap_high_water.max(self.gaps.len());
    }

    /// End of the latest reservation: from here on the resource is free
    /// whatever the request's length.
    pub fn available_at(&self) -> SimTime {
        self.busy_until
    }

    /// Total time spent serving operations.
    pub fn busy_time(&self) -> SimDuration {
        self.busy_time
    }

    /// Time from the start of the earliest reservation to the end of the
    /// latest. Reservations never overlap, so `busy_time() <= span()`; a
    /// double booking shows as a utilization above one.
    pub fn span(&self) -> SimDuration {
        self.busy_until.saturating_duration_since(self.first_start)
    }

    /// Fraction of `[0, horizon]` spent busy.
    pub fn utilization(&self, horizon: SimTime) -> f64 {
        if horizon == SimTime::ZERO {
            return 0.0;
        }
        self.busy_time.as_secs_f64() / horizon.as_secs_f64()
    }

    /// The idle stretches `[start, end)` a request could still book,
    /// oldest first.
    pub fn idle_gaps(&self) -> impl ExactSizeIterator<Item = (SimTime, SimTime)> + '_ {
        self.gaps.iter().map(|gap| (gap.start, gap.end))
    }

    /// Most idle gaps the timeline has held at once, dead ones awaiting
    /// [`Resource::retire_before`] included.
    pub fn gap_high_water(&self) -> usize {
        self.gap_high_water
    }

    /// Gaps forgotten at [`Resource::GAP_GUARD`]. Each ended after the
    /// watermark, so a request could have booked it; zero means every
    /// window was the earliest feasible one.
    pub fn forgotten_gaps(&self) -> u64 {
        self.forgotten
    }
}

/// A pool of identical servers; work goes to the one whose last
/// reservation ends first.
///
/// Models k-wide parallelism where server identity does not matter, such
/// as the host's cores.
#[derive(Debug, Clone)]
pub struct ResourcePool {
    servers: Vec<Resource>,
    /// Min-heap of `(available_at, index)` with exactly one entry per
    /// server. Selection is the lexicographic minimum — identical to a
    /// first-minimum linear scan, without the O(n) walk per schedule.
    ready: std::collections::BinaryHeap<std::cmp::Reverse<(SimTime, usize)>>,
}

impl ResourcePool {
    /// Creates `n` idle servers.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn new(name: &'static str, n: usize) -> Self {
        assert!(n > 0, "resource pool must have at least one server");
        ResourcePool {
            servers: (0..n).map(|_| Resource::new(name)).collect(),
            ready: (0..n)
                .map(|i| std::cmp::Reverse((SimTime::ZERO, i)))
                .collect(),
        }
    }

    /// Schedules on the earliest-available server; returns (server index,
    /// window). Ties pick the lowest server index.
    pub fn schedule(&mut self, at: SimTime, duration: SimDuration) -> (usize, Window) {
        let mut top = self.ready.peek_mut().expect("pool is non-empty");
        let idx = top.0 .1;
        let win = self.servers[idx].schedule(at, duration);
        // Re-keyed in place; the heap re-sifts when `top` drops.
        top.0 .0 = self.servers[idx].available_at();
        (idx, win)
    }

    /// [`Resource::retire_before`] on every server.
    pub fn retire_before(&mut self, t: SimTime) {
        for server in &mut self.servers {
            server.retire_before(t);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ns(n: u64) -> SimTime {
        SimTime::from_nanos(n)
    }

    fn dur(n: u64) -> SimDuration {
        SimDuration::from_nanos(n)
    }

    fn window(start: u64, finish: u64) -> Window {
        Window {
            start: ns(start),
            finish: ns(finish),
        }
    }

    #[test]
    fn fifo_serialization() {
        let mut r = Resource::new("die");
        let w1 = r.schedule(SimTime::from_nanos(0), SimDuration::from_nanos(100));
        let w2 = r.schedule(SimTime::from_nanos(10), SimDuration::from_nanos(50));
        assert_eq!(w1.start, SimTime::from_nanos(0));
        assert_eq!(w1.finish, SimTime::from_nanos(100));
        assert_eq!(w2.start, SimTime::from_nanos(100));
        assert_eq!(w2.finish, SimTime::from_nanos(150));
    }

    #[test]
    fn idle_gap_is_not_worked() {
        let mut r = Resource::new("die");
        r.schedule(SimTime::from_nanos(0), SimDuration::from_nanos(10));
        let w = r.schedule(SimTime::from_nanos(100), SimDuration::from_nanos(10));
        assert_eq!(w.start, SimTime::from_nanos(100));
        assert_eq!(r.busy_time(), SimDuration::from_nanos(20));
        assert_eq!(r.span(), SimDuration::from_nanos(110));
    }

    #[test]
    fn a_future_reservation_does_not_block_the_present() {
        let mut r = Resource::new("link");
        assert_eq!(r.schedule(ns(1_000), dur(100)), window(1_000, 1_100));
        // Fits before the booking: starts when asked.
        assert_eq!(r.schedule(ns(200), dur(300)), window(200, 500));
        // Both remainders of the split gap stay bookable, and a window
        // may end exactly where the next reservation starts.
        assert_eq!(r.schedule(ns(0), dur(200)), window(0, 200));
        assert_eq!(r.schedule(ns(0), dur(500)), window(500, 1_000));
        // Nothing idle is left: the next request goes behind everything.
        assert_eq!(r.schedule(ns(0), dur(1)), window(1_100, 1_101));
        assert_eq!(r.available_at(), ns(1_101));
        assert_eq!(r.busy_time(), r.span());
    }

    #[test]
    fn a_request_skips_gaps_it_does_not_fit() {
        let mut r = Resource::new("die");
        r.schedule(ns(100), dur(100)); // idle [0, 100)
        r.schedule(ns(500), dur(100)); // idle [200, 500)
        assert_eq!(r.schedule(ns(0), dur(250)), window(200, 450));
        // Too long for any gap, and `at` inside a reservation.
        assert_eq!(r.schedule(ns(150), dur(101)), window(600, 701));
        assert_eq!(r.schedule(ns(150), dur(50)), window(450, 500));
        assert_eq!(r.schedule(ns(50), dur(50)), window(50, 100));
    }

    #[test]
    fn zero_length_requests_reserve_nothing() {
        let mut r = Resource::new("cpu");
        r.schedule(ns(100), dur(100));
        // Inside the idle stretch: served on the spot, gap left whole.
        assert_eq!(r.schedule(ns(40), dur(0)), window(40, 40));
        assert_eq!(r.schedule(ns(0), dur(100)), window(0, 100));
        // Inside a reservation: waits for it to end.
        assert_eq!(r.schedule(ns(150), dur(0)), window(200, 200));
        assert_eq!(r.schedule(ns(900), dur(0)), window(900, 900));
        assert_eq!(r.available_at(), ns(200));
    }

    /// The idle stretches the timeline remembers, as `(start, end)`.
    fn gaps(r: &Resource) -> Vec<(u64, u64)> {
        r.idle_gaps()
            .map(|(start, end)| (start.as_nanos(), end.as_nanos()))
            .collect()
    }

    #[test]
    fn every_live_gap_stays_bookable_the_oldest_included() {
        let mut r = Resource::new("die");
        // More gaps than the list reserves: [0,10), [20,30), ...
        for i in 0..40 {
            r.schedule(ns(20 * i + 10), dur(10));
        }
        assert_eq!(r.gap_high_water(), 40);
        for i in 0..40 {
            assert_eq!(r.schedule(ns(0), dur(10)), window(20 * i, 20 * i + 10));
        }
        assert_eq!(r.busy_time(), r.span());
        assert_eq!(r.forgotten_gaps(), 0);
    }

    #[test]
    fn retire_before_drops_exactly_the_gaps_over_by_then() {
        let mut r = Resource::new("die");
        for i in 0..5 {
            r.schedule(ns(20 * i + 10), dur(10));
        }
        assert_eq!(gaps(&r), [(0, 10), (20, 30), (40, 50), (60, 70), (80, 90)]);
        // A gap ending exactly at the watermark goes with the older one.
        r.retire_before(ns(30));
        assert_eq!(gaps(&r), [(40, 50), (60, 70), (80, 90)]);
        assert_eq!(r.schedule(ns(30), dur(10)), window(40, 50));
        // One the watermark falls inside stays. A booking at the
        // watermark keeps no stretch in front of itself, and none that
        // an append skips is kept either.
        r.retire_before(ns(65));
        assert_eq!(gaps(&r), [(60, 70), (80, 90)]);
        assert_eq!(r.schedule(ns(65), dur(2)), window(65, 67));
        assert_eq!(gaps(&r), [(67, 70), (80, 90)]);
        // The watermark never moves back.
        r.retire_before(ns(0));
        assert_eq!(r.watermark, ns(65));
        r.retire_before(ns(200));
        assert_eq!(r.schedule(ns(200), dur(10)), window(200, 210));
        assert!(gaps(&r).is_empty());
    }

    #[test]
    fn the_guard_forgets_the_oldest_gaps_of_a_driver_that_never_retires() {
        let mut r = Resource::new("die");
        let n = Resource::GAP_GUARD as u64 + 2;
        for i in 0..n {
            r.schedule(ns(20 * i + 10), dur(10));
        }
        assert_eq!(r.gap_high_water(), Resource::GAP_GUARD);
        assert_eq!(r.forgotten_gaps(), 2);
        // The two oldest are lost capacity; the third oldest is booked.
        assert_eq!(r.schedule(ns(0), dur(10)), window(40, 50));
        // Retiring makes room: the next gap forgets nothing.
        r.retire_before(ns(100));
        r.schedule(ns(20 * n + 10), dur(10));
        assert_eq!(r.forgotten_gaps(), 2);
        assert!(r.busy_time() <= r.span());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "before the watermark")]
    fn a_booking_before_the_watermark_is_a_driver_bug() {
        let mut r = Resource::new("die");
        r.schedule(ns(100), dur(10));
        r.retire_before(ns(50));
        r.schedule(ns(40), dur(5));
    }

    #[test]
    fn utilization_fraction() {
        let mut r = Resource::new("cpu");
        r.schedule(SimTime::ZERO, SimDuration::from_nanos(25));
        assert!((r.utilization(SimTime::from_nanos(100)) - 0.25).abs() < 1e-12);
        assert_eq!(r.utilization(SimTime::ZERO), 0.0);
    }

    #[test]
    fn window_latency_includes_queueing() {
        let mut r = Resource::new("link");
        r.schedule(SimTime::ZERO, SimDuration::from_nanos(100));
        let w = r.schedule(SimTime::from_nanos(20), SimDuration::from_nanos(30));
        assert_eq!(
            w.latency_from(SimTime::from_nanos(20)),
            SimDuration::from_nanos(110)
        );
    }

    #[test]
    fn pool_balances_to_earliest_free() {
        let mut p = ResourcePool::new("chan", 2);
        let (i1, _) = p.schedule(SimTime::ZERO, SimDuration::from_nanos(100));
        let (i2, w2) = p.schedule(SimTime::ZERO, SimDuration::from_nanos(100));
        assert_ne!(i1, i2);
        assert_eq!(w2.start, SimTime::ZERO); // second server was free
        let (_, w3) = p.schedule(SimTime::ZERO, SimDuration::from_nanos(10));
        assert_eq!(w3.start, SimTime::from_nanos(100)); // both busy now
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn empty_pool_panics() {
        let _ = ResourcePool::new("x", 0);
    }
}
