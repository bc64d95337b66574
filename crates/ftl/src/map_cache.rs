//! Analytic model of the in-device mapping-table cache.
//!
//! Smaller mapping units mean more table entries for the same capacity, so
//! a fixed DRAM budget caches a smaller fraction of the table and mapping
//! operations slow down. This is the effect behind the paper's Figure 13(a)
//! (throughput rises with mapping-unit size). We model it analytically:
//! hit rate = min(1, capacity / live_entries), with distinct hit and miss
//! service times.
//!
//! The table is cached by segment, [`MapCacheModel::SEGMENT_ENTRIES`]
//! consecutive entries (one 4 KiB translation page of 8 B entries), so a
//! command that walks many entries pays the expected miss once per
//! segment it touches and hits for the rest ([`MapCacheModel::walk_cost`]).

use std::ops::Range;

use checkin_sim::SimDuration;

use crate::location::Lpn;

/// Cost model for mapping-table accesses.
///
/// # Examples
///
/// ```
/// use checkin_ftl::{Lpn, MapCacheModel};
///
/// let m = MapCacheModel::with_capacity(Some(1000));
/// // With 4000 live entries only a quarter of lookups hit.
/// assert!(m.access_cost(4000) > m.access_cost(500));
/// // A walk over 1 024 consecutive entries misses once per segment.
/// let segments = MapCacheModel::segments(Lpn(0), 1_024);
/// assert_eq!(segments, 0..2);
/// assert_eq!(
///     m.walk_cost(4000, 1_024, 2),
///     m.access_cost(4000) * 2 + MapCacheModel::HIT_COST * 1_022
/// );
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MapCacheModel {
    /// Cached entries; `None` = entire table in DRAM (all hits).
    pub capacity_entries: Option<u64>,
}

impl MapCacheModel {
    /// Entries per mapping segment, the unit the cache loads: one 4 KiB
    /// translation page of 8 B entries.
    pub const SEGMENT_ENTRIES: u64 = 512;

    /// Service time on a cache hit (SRAM/DRAM lookup + firmware).
    pub const HIT_COST: SimDuration = SimDuration::from_nanos(200);

    /// Service time on a miss (fetch a mapping segment from DRAM/flash
    /// metadata region).
    pub const MISS_COST: SimDuration = SimDuration::from_nanos(2_500);

    /// A model caching `capacity_entries` entries.
    pub fn with_capacity(capacity_entries: Option<u64>) -> Self {
        MapCacheModel { capacity_entries }
    }

    /// Fraction of accesses served from cache given the live table size.
    pub fn hit_rate(&self, live_entries: u64) -> f64 {
        match self.capacity_entries {
            None => 1.0,
            Some(cap) => {
                if live_entries == 0 {
                    1.0
                } else {
                    (cap as f64 / live_entries as f64).min(1.0)
                }
            }
        }
    }

    /// Expected cost of one mapping access at the current table size.
    pub fn access_cost(&self, live_entries: u64) -> SimDuration {
        let h = self.hit_rate(live_entries);
        let nanos =
            h * Self::HIT_COST.as_nanos() as f64 + (1.0 - h) * Self::MISS_COST.as_nanos() as f64;
        #[expect(
            clippy::cast_possible_truncation,
            reason = "h is in [0, 1], so nanos lies between the two u64 costs it interpolates"
        )]
        let nanos = nanos.round() as u64;
        SimDuration::from_nanos(nanos)
    }

    /// The segments the `units` consecutive entries from `first` lie in,
    /// as segment numbers; empty when `units` is zero.
    pub fn segments(first: Lpn, units: u64) -> Range<u64> {
        if units == 0 {
            return 0..0;
        }
        let last = first.0.saturating_add(units - 1);
        first.0 / Self::SEGMENT_ENTRIES..last / Self::SEGMENT_ENTRIES + 1
    }

    /// Cost of one command's walk over `units` entries that lie in
    /// `segments` distinct segments: the first access to each segment
    /// costs [`MapCacheModel::access_cost`], and every other access finds
    /// the segment loaded. One unit costs exactly `access_cost`.
    pub fn walk_cost(&self, live_entries: u64, units: u64, segments: u64) -> SimDuration {
        debug_assert!(segments <= units, "{segments} segments for {units} units");
        self.access_cost(live_entries) * segments + Self::HIT_COST * units.saturating_sub(segments)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SEG: u64 = MapCacheModel::SEGMENT_ENTRIES;

    /// The cost of a contiguous walk over `units` entries from `first`.
    fn span_cost(m: &MapCacheModel, live: u64, first: u64, units: u64) -> SimDuration {
        let s = MapCacheModel::segments(Lpn(first), units);
        m.walk_cost(live, units, s.end - s.start)
    }

    #[test]
    fn unlimited_cache_always_hits() {
        let m = MapCacheModel::with_capacity(None);
        assert_eq!(m.hit_rate(1_000_000), 1.0);
        assert_eq!(m.access_cost(1_000_000), MapCacheModel::HIT_COST);
    }

    #[test]
    fn hit_rate_shrinks_with_table_growth() {
        let m = MapCacheModel::with_capacity(Some(100));
        assert_eq!(m.hit_rate(50), 1.0);
        assert_eq!(m.hit_rate(0), 1.0);
        assert!((m.hit_rate(400) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn access_cost_interpolates() {
        let m = MapCacheModel::with_capacity(Some(100));
        let all_hit = m.access_cost(100);
        let half = m.access_cost(200);
        let mostly_miss = m.access_cost(10_000);
        assert!(all_hit < half && half < mostly_miss);
        assert_eq!(all_hit, MapCacheModel::HIT_COST);
    }

    #[test]
    fn one_unit_costs_one_access_at_any_table_size() {
        let cap = 4_096;
        let m = MapCacheModel::with_capacity(Some(cap));
        for live in [0, cap / 2, cap, 10 * cap] {
            for first in [0, SEG - 1, SEG, 7 * SEG + 3] {
                assert_eq!(span_cost(&m, live, first, 1), m.access_cost(live), "{live}");
            }
        }
    }

    #[test]
    fn a_walk_misses_once_per_segment() {
        let m = MapCacheModel::with_capacity(Some(100));
        let live = 400;
        let (miss, hit) = (m.access_cost(live), MapCacheModel::HIT_COST);
        assert!(miss > hit);
        // Inside one segment: one miss.
        assert_eq!(span_cost(&m, live, 0, SEG), miss + hit * (SEG - 1));
        // Two entries either side of a segment boundary: two misses.
        assert_eq!(MapCacheModel::segments(Lpn(SEG - 1), 2), 0..2);
        assert_eq!(span_cost(&m, live, SEG - 1, 2), miss * 2);
        // Eight whole segments.
        assert_eq!(
            span_cost(&m, live, 0, 8 * SEG),
            miss * 8 + hit * (8 * SEG - 8)
        );
    }

    #[test]
    fn an_empty_walk_costs_nothing() {
        let m = MapCacheModel::with_capacity(Some(100));
        assert_eq!(MapCacheModel::segments(Lpn(SEG + 5), 0), 0..0);
        assert_eq!(span_cost(&m, 10_000, SEG + 5, 0), SimDuration::ZERO);
    }

    #[test]
    fn an_unlimited_cache_walk_costs_a_hit_per_unit() {
        let m = MapCacheModel::with_capacity(None);
        for (first, units) in [(0, 1), (SEG - 3, 9), (5, 4 * SEG)] {
            assert_eq!(
                span_cost(&m, 1 << 30, first, units),
                MapCacheModel::HIT_COST * units
            );
        }
    }
}
