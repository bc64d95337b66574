//! Logical address-space layout: meta / data / journal zones.
//!
//! Mirrors the paper's case study (§II-B): the LBA space is split into a
//! small metadata region, a data area with a fixed home slot per key, and
//! a journal area. The journal area is double-buffered ("before
//! checkpointing, new journal area and JMT are already built as an
//! alternative"), so journaling continues while a checkpoint drains the
//! retiring zone.

use checkin_ssd::SECTOR_BYTES;

/// Number of alternating journal zones.
pub const JOURNAL_ZONES: u32 = 2;

/// Static layout of the engine's LBA space.
///
/// # Examples
///
/// ```
/// use checkin_core::Layout;
///
/// let l = Layout::new(1_000, 4096, 4096, 1 << 16);
/// let home = l.home_lba(42);
/// assert!(home >= l.data_base() && home < l.journal_base(0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Layout {
    meta_sectors: u64,
    record_count: u64,
    slot_sectors: u64,
    unit_sectors: u64,
    zone_sectors: u64,
}

impl Layout {
    /// Builds a layout for `record_count` keys whose values never exceed
    /// `max_record_bytes`, on a device with `unit_bytes` mapping units and
    /// journal zones of `zone_sectors` sectors each.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is zero.
    pub fn new(
        record_count: u64,
        max_record_bytes: u32,
        unit_bytes: u32,
        zone_sectors: u64,
    ) -> Self {
        assert!(record_count > 0, "record_count must be positive");
        assert!(max_record_bytes > 0, "max_record_bytes must be positive");
        assert!(unit_bytes >= SECTOR_BYTES, "unit smaller than a sector");
        assert!(zone_sectors > 0, "zone_sectors must be positive");
        let unit_sectors = (unit_bytes / SECTOR_BYTES) as u64;
        // Home slots are unit-aligned so one record's home never straddles
        // a neighbour's unit unnecessarily.
        let raw_slot = max_record_bytes.div_ceil(SECTOR_BYTES) as u64;
        let slot_sectors = raw_slot.div_ceil(unit_sectors) * unit_sectors;
        let zone_sectors = zone_sectors.div_ceil(unit_sectors) * unit_sectors;
        Layout {
            meta_sectors: 64.max(unit_sectors * 2),
            record_count,
            slot_sectors,
            unit_sectors,
            zone_sectors,
        }
    }

    /// First sector of the engine metadata (superblock) region.
    pub fn meta_base(&self) -> u64 {
        0
    }

    /// First sector of the data area.
    pub fn data_base(&self) -> u64 {
        self.meta_sectors
    }

    /// Sectors reserved per record home slot.
    pub fn slot_sectors(&self) -> u64 {
        self.slot_sectors
    }

    /// Home (data-area) LBA of a key.
    ///
    /// # Panics
    ///
    /// Panics in debug builds when `key` is outside the loaded range.
    pub fn home_lba(&self, key: u64) -> u64 {
        debug_assert!(key < self.record_count, "key {key} out of range");
        self.data_base() + key * self.slot_sectors
    }

    /// First sector of journal zone `zone`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds when `zone >= JOURNAL_ZONES`. Like
    /// [`Layout::home_lba`], the bound is an internal invariant
    /// (zones rotate modulo `JOURNAL_ZONES`), so release builds — and in
    /// particular the recovery path — must not panic over it.
    pub fn journal_base(&self, zone: u32) -> u64 {
        debug_assert!(zone < JOURNAL_ZONES, "zone {zone} out of range");
        let journal_start = self.data_base() + self.record_count * self.slot_sectors;
        // Align zones to unit boundaries.
        let aligned = journal_start.div_ceil(self.unit_sectors) * self.unit_sectors;
        aligned + zone as u64 * self.zone_sectors
    }

    /// Sectors per journal zone.
    pub fn zone_sectors(&self) -> u64 {
        self.zone_sectors
    }

    /// Total sectors the layout occupies (for capacity checks).
    pub fn total_sectors(&self) -> u64 {
        self.journal_base(JOURNAL_ZONES - 1) + self.zone_sectors
    }

    /// Sectors per mapping unit.
    pub fn unit_sectors(&self) -> u64 {
        self.unit_sectors
    }

    /// Number of records addressed.
    pub fn record_count(&self) -> u64 {
        self.record_count
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zones_do_not_overlap_data() {
        let l = Layout::new(100, 4096, 4096, 1 << 12);
        let last_home_end = l.home_lba(99) + l.slot_sectors();
        assert!(l.journal_base(0) >= last_home_end);
        assert!(l.journal_base(1) >= l.journal_base(0) + l.zone_sectors());
    }

    #[test]
    fn home_slots_are_unit_aligned() {
        let l = Layout::new(100, 1024, 4096, 1 << 12);
        // 1 KiB records in 4 KiB units: slot rounded to 8 sectors.
        assert_eq!(l.slot_sectors(), 8);
        for key in 0..100 {
            assert_eq!(l.home_lba(key) % l.unit_sectors(), 0);
        }
    }

    #[test]
    fn sector_unit_keeps_slots_compact() {
        let l = Layout::new(100, 1024, 512, 1 << 12);
        assert_eq!(l.slot_sectors(), 2, "1 KiB record = 2 sectors");
    }

    #[test]
    fn journal_bases_unit_aligned() {
        for unit in [512u32, 1024, 2048, 4096] {
            let l = Layout::new(33, 777, unit, 5000);
            for z in 0..JOURNAL_ZONES {
                assert_eq!(l.journal_base(z) % l.unit_sectors(), 0, "unit {unit}");
            }
        }
    }

    #[test]
    fn total_sectors_covers_everything() {
        let l = Layout::new(10, 512, 512, 100);
        assert_eq!(l.total_sectors(), l.journal_base(1) + l.zone_sectors());
    }

    /// The bound is a `debug_assert!`: release builds must not panic here.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "zone 2 out of range")]
    fn zone_bound_checked() {
        Layout::new(1, 1, 512, 1).journal_base(2);
    }
}
