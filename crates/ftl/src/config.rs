//! FTL configuration.

use checkin_flash::FlashGeometry;

use crate::error::FtlConfigError;
use crate::mapping::MappingTable;

/// Tunables of the flash translation layer.
///
/// # Examples
///
/// ```
/// use checkin_ftl::FtlConfig;
///
/// let cfg = FtlConfig { unit_bytes: 512, ..FtlConfig::default() };
/// assert_eq!(cfg.units_per_page(4096), 8);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FtlConfig {
    /// Mapping unit size in bytes (the paper sweeps 512..4096).
    pub unit_bytes: u32,
    /// Run garbage collection when the free-block pool drops to this size.
    pub gc_threshold_blocks: u32,
    /// Background GC may run (in idle windows) when the pool drops to this
    /// softer threshold.
    pub gc_soft_threshold_blocks: u32,
    /// Number of parallel write points (active blocks being filled).
    /// Write point `wp` fills blocks of plane `wp % total_planes`, and
    /// page-outs go to dies: one page-out takes a page on every write
    /// point of the die that can start a program first, all at one page
    /// index, and the die programs them in one tPROG. With one write
    /// point per plane a page-out is a page on each plane of its die;
    /// with one per die, a single page.
    pub write_points: u32,
    /// Mapping-table cache capacity in entries; `None` models an
    /// all-in-DRAM table.
    pub map_cache_entries: Option<u64>,
    /// Page-out watermark of the power-protected write buffer, in mapping
    /// units: buffered units page out oldest-first once this many are
    /// held, so actively appended units coalesce before hitting flash.
    /// It is not the buffer's capacity: a page being programmed keeps its
    /// units in the buffer until the program finishes, and up to
    /// `write_points` pages program at once, so the buffer holds up to
    /// `write_buffer_units + write_points × units_per_page` units before a
    /// writer has to wait. A page-out takes `units_per_page` units for
    /// each write point of its die, and pads the pages a smaller
    /// watermark leaves it short of.
    pub write_buffer_units: u32,
    /// Verify per-unit checksums on every flash read path (foreground
    /// reads, GC relocation, scrub, SPOR scan). Failed verification
    /// quarantines the unit and surfaces a typed
    /// [`IntegrityError`](crate::IntegrityError) instead of data. On by
    /// default; turning it off restores the trusting pre-integrity reads
    /// (harnesses use that to prove their verifiers catch escapes).
    pub verify_checksums: bool,
}

impl FtlConfig {
    /// Units per physical page for a given page size.
    ///
    /// # Panics
    ///
    /// Panics if `unit_bytes` does not divide `page_bytes`.
    pub fn units_per_page(&self, page_bytes: u32) -> u32 {
        assert!(
            self.unit_bytes > 0 && page_bytes.is_multiple_of(self.unit_bytes),
            "mapping unit {} must divide page size {}",
            self.unit_bytes,
            page_bytes
        );
        page_bytes / self.unit_bytes
    }

    /// Validates thresholds and sizes against the array's geometry.
    ///
    /// # Errors
    ///
    /// Names the offending field.
    pub fn validate(&self, geometry: &FlashGeometry) -> Result<(), FtlConfigError> {
        let (page_bytes, total_blocks) = (geometry.page_bytes, geometry.total_blocks());
        if self.unit_bytes == 0 || !page_bytes.is_multiple_of(self.unit_bytes) {
            return Err(FtlConfigError::UnitBytes(self.unit_bytes, page_bytes));
        }
        if self.gc_threshold_blocks < 2 {
            return Err(FtlConfigError::GcThreshold);
        }
        if self.gc_soft_threshold_blocks < self.gc_threshold_blocks {
            return Err(FtlConfigError::GcSoftThreshold);
        }
        if self.write_points == 0 {
            return Err(FtlConfigError::NoWritePoints);
        }
        let upp = self.units_per_page(page_bytes);
        if self.write_buffer_units < upp {
            return Err(FtlConfigError::WriteBuffer(self.write_buffer_units, upp));
        }
        if self.write_points as u64 + self.gc_threshold_blocks as u64 >= total_blocks {
            return Err(FtlConfigError::TooFewBlocks(
                self.write_points,
                self.gc_threshold_blocks,
                total_blocks,
            ));
        }
        let units = geometry.total_pages().saturating_mul(u64::from(upp));
        if units > MappingTable::MAX_UNITS {
            return Err(FtlConfigError::TooManyUnits(units, MappingTable::MAX_UNITS));
        }
        Ok(())
    }
}

impl Default for FtlConfig {
    /// Defaults mirror a conventional 4 KiB-mapped SSD with ~6% GC
    /// headroom and one write point per die of the paper's geometry
    /// (a `SystemConfig` gives one per plane).
    fn default() -> Self {
        FtlConfig {
            unit_bytes: 4096,
            gc_threshold_blocks: 8,
            gc_soft_threshold_blocks: 24,
            write_points: 8,
            map_cache_entries: None,
            write_buffer_units: 128,
            verify_checksums: true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn units_per_page_divides() {
        let cfg = FtlConfig {
            unit_bytes: 1024,
            ..FtlConfig::default()
        };
        assert_eq!(cfg.units_per_page(4096), 4);
    }

    #[test]
    #[should_panic(expected = "must divide")]
    fn non_divisor_unit_panics() {
        let cfg = FtlConfig {
            unit_bytes: 3000,
            ..FtlConfig::default()
        };
        cfg.units_per_page(4096);
    }

    /// One plane of `blocks` blocks of `pages` pages of 4 KiB.
    fn geometry(blocks: u32, pages: u32) -> FlashGeometry {
        FlashGeometry {
            channels: 1,
            dies_per_channel: 1,
            planes_per_die: 1,
            blocks_per_plane: blocks,
            pages_per_block: pages,
            page_bytes: 4096,
        }
    }

    #[test]
    fn validate_flags_bad_fields() {
        let good = FtlConfig::default();
        assert_eq!(good.validate(&geometry(1024, 64)), Ok(()));
        use FtlConfigError as E;
        let refuses = |edit: fn(&mut FtlConfig), why: E| {
            let mut bad = good;
            edit(&mut bad);
            assert_eq!(bad.validate(&geometry(1024, 64)), Err(why));
        };
        refuses(|c| c.gc_threshold_blocks = 1, E::GcThreshold);
        refuses(|c| c.write_points = 0, E::NoWritePoints);
        refuses(|c| c.gc_soft_threshold_blocks = 2, E::GcSoftThreshold);
        let too_few = E::TooFewBlocks(2000, 8, 1024);
        refuses(|c| c.write_points = 2000, too_few);
        assert_eq!(
            too_few.to_string(),
            "write_points + gc_threshold (2000 + 8) must be far below total blocks (1024)"
        );
        assert!(good.verify_checksums, "verification is on by default");
    }

    #[test]
    fn a_geometry_past_the_forward_word_is_refused() {
        // 2^31 units fit the mapping table's packed forward word exactly;
        // one more page of 512 B units does not.
        let limit = MappingTable::MAX_UNITS;
        let cfg = FtlConfig {
            unit_bytes: 512,
            ..FtlConfig::default()
        };
        let pages = u32::try_from(limit / 8 / 1024).unwrap();
        assert_eq!(cfg.validate(&geometry(1024, pages)), Ok(()));
        let over = geometry(1024, pages + 1);
        let units = over.total_pages() * 8;
        assert_eq!(
            cfg.validate(&over),
            Err(FtlConfigError::TooManyUnits(units, limit))
        );
        assert_eq!(
            FtlConfigError::TooManyUnits(units, limit).to_string(),
            "2147491840 mapping units exceed the mapping table's limit of 2147483648"
        );
        // The paper device at 512 B units: 6.29 M units, far below.
        let paper = FlashGeometry::paper_default();
        assert_eq!(paper.total_pages() * 8, 6_291_456);
        assert_eq!(cfg.validate(&paper), Ok(()));
    }
}
