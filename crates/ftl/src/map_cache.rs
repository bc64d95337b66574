//! Analytic model of the in-device mapping-table cache.
//!
//! Smaller mapping units mean more table entries for the same capacity, so
//! a fixed DRAM budget caches a smaller fraction of the table and mapping
//! operations slow down. This is the effect behind the paper's Figure 13(a)
//! (throughput rises with mapping-unit size). We model it analytically:
//! hit rate = min(1, capacity / live_entries), with distinct hit and miss
//! service times.

use checkin_sim::SimDuration;

/// Cost model for one mapping-table access.
///
/// # Examples
///
/// ```
/// use checkin_ftl::MapCacheModel;
///
/// let m = MapCacheModel::with_capacity(Some(1000));
/// // With 4000 live entries only a quarter of lookups hit.
/// assert!(m.access_cost(4000) > m.access_cost(500));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MapCacheModel {
    /// Cached entries; `None` = entire table in DRAM (all hits).
    pub capacity_entries: Option<u64>,
    /// Service time on a cache hit (SRAM/DRAM lookup + firmware).
    pub hit_cost: SimDuration,
    /// Service time on a miss (fetch a mapping segment from DRAM/flash
    /// metadata region).
    pub miss_cost: SimDuration,
}

impl MapCacheModel {
    /// Default costs with the given capacity.
    pub fn with_capacity(capacity_entries: Option<u64>) -> Self {
        MapCacheModel {
            capacity_entries,
            hit_cost: SimDuration::from_nanos(200),
            miss_cost: SimDuration::from_nanos(2_500),
        }
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
            h * self.hit_cost.as_nanos() as f64 + (1.0 - h) * self.miss_cost.as_nanos() as f64;
        #[expect(
            clippy::cast_possible_truncation,
            reason = "h is in [0, 1], so nanos lies between the two u64 costs it interpolates"
        )]
        let nanos = nanos.round() as u64;
        SimDuration::from_nanos(nanos)
    }
}

impl Default for MapCacheModel {
    fn default() -> Self {
        MapCacheModel::with_capacity(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_cache_always_hits() {
        let m = MapCacheModel::with_capacity(None);
        assert_eq!(m.hit_rate(1_000_000), 1.0);
        assert_eq!(m.access_cost(1_000_000), m.hit_cost);
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
        assert_eq!(all_hit, m.hit_cost);
    }
}
