//! In-storage checkpointing engine (ISCE) planning logic.
//!
//! The ISCE has three roles in the paper (§III-A): the *log manager*
//! acknowledges journal writes and periodically persists recovery
//! metadata, the *checkpoint processor* executes Algorithm 1 (walk the
//! checkpoint entries, remap or copy each), and the *deallocator* frees
//! checkpointed journal logs and decides when background GC may run.
//!
//! This module holds the device-independent planning: classifying an
//! entry as remap-eligible vs copy. The deallocator's GC policy (a
//! background round begins under soft pressure while the device is
//! idle) is [`crate::Ssd::begin_background_gc`]'s. Batching (remaps first, then the copy class as consecutive reads and
//! consecutive writes) and execution (timing, flash traffic) live in
//! [`crate::Ssd`].

use crate::command::{CheckpointMode, CowEntry};

/// Execution plan for one checkpoint entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EntryPlan {
    /// Update mapping only: the journal copy becomes the data copy.
    Remap,
    /// Read the journal unit(s) and program them at the destination.
    Copy,
}

/// Decides how one entry executes under `mode` with the FTL's mapping
/// unit (`unit_sectors` = unit bytes / 512).
///
/// Remapping requires that the journal log *owns whole mapping units* and
/// that the destination is unit-aligned; merged sectors are never
/// remappable (other records share their unit).
///
/// # Examples
///
/// ```
/// use checkin_ssd::{plan_entry, CheckpointMode, CowEntry, EntryPlan};
///
/// let aligned = CowEntry { src_lba: 8, dst_lba: 16, sectors: 8, dst_sectors: 8, key: 1, merged: false };
/// assert_eq!(plan_entry(&aligned, CheckpointMode::Remap, 8), EntryPlan::Remap);
/// assert_eq!(plan_entry(&aligned, CheckpointMode::Copy, 8), EntryPlan::Copy);
/// ```
pub fn plan_entry(entry: &CowEntry, mode: CheckpointMode, unit_sectors: u32) -> EntryPlan {
    match mode {
        CheckpointMode::Copy => EntryPlan::Copy,
        CheckpointMode::Remap => {
            let us = unit_sectors as u64;
            let aligned = entry.src_lba.is_multiple_of(us)
                && entry.dst_lba.is_multiple_of(us)
                && (entry.sectors as u64).is_multiple_of(us)
                && entry.sectors > 0;
            if aligned && !entry.merged {
                EntryPlan::Remap
            } else {
                EntryPlan::Copy
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(src: u64, dst: u64, sectors: u32, merged: bool) -> CowEntry {
        CowEntry {
            src_lba: src,
            dst_lba: dst,
            sectors,
            dst_sectors: sectors,
            key: 0,
            merged,
        }
    }

    #[test]
    fn copy_mode_never_remaps() {
        let e = entry(0, 8, 8, false);
        assert_eq!(plan_entry(&e, CheckpointMode::Copy, 8), EntryPlan::Copy);
    }

    #[test]
    fn remap_requires_unit_alignment() {
        // unit = 8 sectors (4 KiB mapping on 512 B sectors)
        assert_eq!(
            plan_entry(&entry(8, 16, 8, false), CheckpointMode::Remap, 8),
            EntryPlan::Remap
        );
        // misaligned source
        assert_eq!(
            plan_entry(&entry(4, 16, 8, false), CheckpointMode::Remap, 8),
            EntryPlan::Copy
        );
        // misaligned destination
        assert_eq!(
            plan_entry(&entry(8, 12, 8, false), CheckpointMode::Remap, 8),
            EntryPlan::Copy
        );
        // partial unit length
        assert_eq!(
            plan_entry(&entry(8, 16, 4, false), CheckpointMode::Remap, 8),
            EntryPlan::Copy
        );
    }

    #[test]
    fn sector_unit_remaps_small_records() {
        // unit = 1 sector (Check-In's 512 B mapping): every sector-aligned
        // log remaps.
        assert_eq!(
            plan_entry(&entry(3, 11, 1, false), CheckpointMode::Remap, 1),
            EntryPlan::Remap
        );
        assert_eq!(
            plan_entry(&entry(3, 11, 2, false), CheckpointMode::Remap, 1),
            EntryPlan::Remap
        );
    }

    #[test]
    fn merged_sectors_always_copy() {
        assert_eq!(
            plan_entry(&entry(0, 8, 1, true), CheckpointMode::Remap, 1),
            EntryPlan::Copy
        );
    }

    #[test]
    fn zero_sector_entry_copies() {
        assert_eq!(
            plan_entry(&entry(0, 8, 0, false), CheckpointMode::Remap, 1),
            EntryPlan::Copy
        );
    }
}
