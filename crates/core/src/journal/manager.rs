//! The journal manager: appends logs to the active zone, maintains the
//! JMT, and (under Check-In) performs sector alignment and partial-log
//! merging.

use checkin_flash::Fragment;
use checkin_ssd::{WriteContent, WriteRequest, SECTOR_BYTES};

use crate::journal::aligner::{align_log_to, raw_log_bytes, AlignedLog, LogClass};
use crate::journal::jmt::{Jmt, JmtEntry};
use crate::layout::{Layout, JOURNAL_ZONES};

/// The active journal zone ran out of space: a checkpoint must retire it
/// before more logs can be appended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JournalFull;

impl std::fmt::Display for JournalFull {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "active journal zone is full; checkpoint required")
    }
}

impl std::error::Error for JournalFull {}

/// Everything the checkpoint path needs about the retiring zone.
#[derive(Debug, Clone)]
pub struct RetiringZone {
    /// Zone index being retired.
    pub zone: u32,
    /// First sector of the zone.
    pub base_lba: u64,
    /// Sectors actually used (trim this much, rounded up to units).
    pub used_sectors: u64,
    /// Live JMT entries to checkpoint, in key order.
    pub entries: Vec<(u64, JmtEntry)>,
    /// Logs superseded within the zone (duplicates never checkpointed).
    pub superseded: u64,
    /// Raw bytes journaled into the zone.
    pub raw_bytes: u64,
    /// Stored bytes journaled into the zone.
    pub stored_bytes: u64,
}

impl RetiringZone {
    /// The entry `key` has in the zone, if any.
    pub fn lookup(&self, key: u64) -> Option<&JmtEntry> {
        let pos = self.entries.binary_search_by_key(&key, |&(k, _)| k).ok()?;
        self.entries.get(pos).map(|(_, e)| e)
    }
}

#[derive(Debug, Clone, Default)]
struct MergeBuffer {
    sector_offset: u64,
    fragments: Vec<Fragment>,
    filled: u32,
}

/// Knobs of the journaling layer, mainly for ablation studies: Check-In's
/// two ingredients (Algorithm 2's compression and partial-log merging)
/// can be disabled independently.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JournalOptions {
    /// Reformat logs to the FTL mapping unit (Algorithm 2). False =
    /// conventional sector-padded journaling.
    pub sector_aligned: bool,
    /// Compression ratio for values larger than the mapping unit
    /// (1.0 disables compression).
    pub compression_ratio: f64,
    /// Merge `PARTIAL` logs into shared units. False pads each partial to
    /// a full (remappable) unit instead — trading journal space for
    /// checkpoint copies.
    pub merge_partials: bool,
}

impl JournalOptions {
    /// Conventional journaling (baseline / ISC-A / ISC-B / ISC-C).
    pub fn conventional() -> Self {
        JournalOptions {
            sector_aligned: false,
            compression_ratio: 1.0,
            merge_partials: false,
        }
    }

    /// Check-In's full sector-aligned journaling.
    pub fn check_in(compression_ratio: f64) -> Self {
        JournalOptions {
            sector_aligned: true,
            compression_ratio,
            merge_partials: true,
        }
    }
}

/// Journal state machine over the double-buffered journal area.
///
/// # Examples
///
/// ```
/// use checkin_core::{JournalManager, Layout};
///
/// let layout = Layout::new(100, 4096, 512, 1 << 12);
/// let mut jm = JournalManager::new(layout, true, 0.7);
/// let req = jm.append(7, 1, 300).unwrap();   // partial log -> merged sector
/// assert_eq!(req.sectors, 1);
/// assert!(jm.jmt().lookup(7).unwrap().merged);
/// ```
#[derive(Debug, Clone)]
pub struct JournalManager {
    layout: Layout,
    options: JournalOptions,
    zone: u32,
    head_sectors: u64,
    merge: Option<MergeBuffer>,
    jmt: Jmt,
    /// Entry buffer recycled between checkpoints ([`JournalManager::recycle_zone`]).
    spare_entries: Vec<(u64, JmtEntry)>,
}

impl JournalManager {
    /// Creates a manager starting in zone 0. `sector_aligned` selects
    /// between conventional journaling and Check-In's Algorithm 2 (with
    /// partial merging on).
    pub fn new(layout: Layout, sector_aligned: bool, compression_ratio: f64) -> Self {
        let options = if sector_aligned {
            JournalOptions::check_in(compression_ratio)
        } else {
            JournalOptions::conventional()
        };
        Self::with_options(layout, options)
    }

    /// Creates a manager with explicit [`JournalOptions`] (ablations).
    pub fn with_options(layout: Layout, options: JournalOptions) -> Self {
        JournalManager {
            layout,
            options,
            zone: 0,
            head_sectors: 0,
            merge: None,
            jmt: Jmt::with_key_capacity(layout.record_count()),
            spare_entries: Vec::new(),
        }
    }

    /// The live JMT.
    pub fn jmt(&self) -> &Jmt {
        &self.jmt
    }

    /// Sectors used so far in the active zone.
    pub fn zone_used_sectors(&self) -> u64 {
        self.head_sectors
    }

    /// Mapping units used so far in the active zone (checkpoint trigger
    /// input).
    pub fn zone_used_units(&self) -> u64 {
        self.zone_used_sectors()
            .div_ceil(self.layout.unit_sectors())
    }

    /// The journaling options in effect.
    pub fn options(&self) -> &JournalOptions {
        &self.options
    }

    /// Appends one journal log for `(key, version)` with a `value_bytes`
    /// payload. Returns the block-interface write to issue (a plain log,
    /// or a re-write of the shared sector for merged partials).
    ///
    /// # Errors
    ///
    /// [`JournalFull`] when the zone cannot hold the log; the caller must
    /// checkpoint (retiring this zone) and retry.
    pub fn append(
        &mut self,
        key: u64,
        version: u64,
        value_bytes: u32,
    ) -> Result<WriteRequest, JournalFull> {
        if self.options.sector_aligned {
            self.append_aligned(key, version, value_bytes)
        } else {
            self.append_raw(key, version, value_bytes)
        }
    }

    fn zone_base(&self) -> u64 {
        self.layout.journal_base(self.zone)
    }

    /// Conventional journaling appends `header + value` and pads each
    /// synchronous commit to the sector boundary: a committed sector can
    /// never be partially rewritten by a later log, so every log starts
    /// on a fresh sector (this is how WAL-style engines behave on block
    /// devices). No compression, no size classes, no merging.
    fn append_raw(
        &mut self,
        key: u64,
        version: u64,
        value_bytes: u32,
    ) -> Result<WriteRequest, JournalFull> {
        let len = raw_log_bytes(value_bytes);
        let sectors = len.div_ceil(SECTOR_BYTES);
        let start = self.head_sectors;
        if start + sectors as u64 > self.layout.zone_sectors() {
            return Err(JournalFull);
        }
        self.head_sectors += sectors as u64;
        let lba = self.zone_base() + start;
        self.jmt.record(
            key,
            JmtEntry {
                journal_lba: lba,
                sectors,
                version,
                raw_bytes: value_bytes,
                stored_bytes: sectors * SECTOR_BYTES,
                merged: false,
                tombstone: false,
            },
        );
        Ok(WriteRequest {
            lba,
            sectors,
            content: WriteContent::Record {
                key,
                version,
                bytes: value_bytes,
            },
        })
    }

    fn mapping_bytes(&self) -> u32 {
        self.layout.unit_sectors() as u32 * SECTOR_BYTES
    }

    /// Algorithm 2 under the options in effect.
    fn aligned(&self, value_bytes: u32) -> AlignedLog {
        let mut log = align_log_to(
            value_bytes,
            self.options.compression_ratio,
            self.mapping_bytes(),
        );
        if log.class == LogClass::Partial && !self.options.merge_partials {
            // Merging ablated: pad the partial up to a full (remappable)
            // unit instead of sharing one.
            log.stored_bytes = self.mapping_bytes();
            log.class = LogClass::Full;
        }
        log
    }

    /// Bytes the log of a `value_bytes` value stores on the device (the
    /// sum of its fragments, wherever a checkpoint moves them): the raw
    /// value under conventional journaling, its compressed and
    /// class-rounded form under Algorithm 2.
    pub fn log_bytes(&self, value_bytes: u32) -> u32 {
        if self.options.sector_aligned {
            self.aligned(value_bytes).stored_bytes
        } else {
            value_bytes
        }
    }

    fn append_aligned(
        &mut self,
        key: u64,
        version: u64,
        value_bytes: u32,
    ) -> Result<WriteRequest, JournalFull> {
        let log = self.aligned(value_bytes);
        match log.class {
            LogClass::Full => {
                let start = self.head_sectors;
                if start + log.sectors as u64 > self.layout.zone_sectors() {
                    return Err(JournalFull);
                }
                self.head_sectors += log.sectors as u64;
                let lba = self.zone_base() + start;
                self.jmt.record(
                    key,
                    JmtEntry {
                        journal_lba: lba,
                        sectors: log.sectors,
                        version,
                        raw_bytes: value_bytes,
                        stored_bytes: log.stored_bytes,
                        merged: false,
                        tombstone: false,
                    },
                );
                Ok(WriteRequest {
                    lba,
                    sectors: log.sectors,
                    content: WriteContent::Record {
                        key,
                        version,
                        bytes: log.stored_bytes,
                    },
                })
            }
            LogClass::Partial => self.append_partial(key, version, value_bytes, log.stored_bytes),
        }
    }

    fn append_partial(
        &mut self,
        key: u64,
        version: u64,
        raw_bytes: u32,
        class_bytes: u32,
    ) -> Result<WriteRequest, JournalFull> {
        // Seal the current merge unit when this log does not fit. A
        // repeated key replaces its fragment in place (the unit still
        // sits in the device's power-protected buffer), so hot keys do
        // not burn a fresh unit per update.
        let unit_sectors = self.layout.unit_sectors();
        let mapping_bytes = self.mapping_bytes();
        let needs_new = match &self.merge {
            None => true,
            Some(m) => {
                let existing = m
                    .fragments
                    .iter()
                    .find(|f| f.key == key)
                    .map(|f| f.bytes)
                    .unwrap_or(0);
                m.filled - existing + class_bytes > mapping_bytes
            }
        };
        if needs_new {
            if self.head_sectors + unit_sectors > self.layout.zone_sectors() {
                return Err(JournalFull);
            }
            self.merge = Some(MergeBuffer {
                sector_offset: self.head_sectors,
                fragments: Vec::new(),
                filled: 0,
            });
            self.head_sectors += unit_sectors;
        }
        let zone_base = self.zone_base();
        let merge = self.merge.as_mut().expect("merge buffer exists");
        if let Some(f) = merge.fragments.iter_mut().find(|f| f.key == key) {
            merge.filled = merge.filled - f.bytes + class_bytes;
            f.version = version;
            f.bytes = class_bytes;
        } else {
            merge.fragments.push(Fragment {
                key,
                version,
                bytes: class_bytes,
            });
            merge.filled += class_bytes;
        }
        let lba = zone_base + merge.sector_offset;
        let request = WriteRequest {
            lba,
            sectors: unit_sectors as u32,
            content: WriteContent::Merged(merge.fragments.clone()),
        };
        self.jmt.record(
            key,
            JmtEntry {
                journal_lba: lba,
                sectors: unit_sectors as u32,
                version,
                raw_bytes,
                stored_bytes: class_bytes,
                merged: true,
                tombstone: false,
            },
        );
        Ok(request)
    }

    /// Appends a deletion tombstone for `(key, version)`. Tombstones get
    /// their own journal unit (raw mode: one sector) so they never share
    /// space with live records.
    ///
    /// # Errors
    ///
    /// [`JournalFull`] when the zone has no room left.
    pub fn append_delete(&mut self, key: u64, version: u64) -> Result<WriteRequest, JournalFull> {
        let sectors = if self.options.sector_aligned {
            self.layout.unit_sectors() as u32
        } else {
            1
        };
        if self.head_sectors + sectors as u64 > self.layout.zone_sectors() {
            return Err(JournalFull);
        }
        let lba = self.zone_base() + self.head_sectors;
        self.head_sectors += sectors as u64;
        self.jmt.record(
            key,
            JmtEntry {
                journal_lba: lba,
                sectors,
                version,
                raw_bytes: 0,
                stored_bytes: sectors * SECTOR_BYTES,
                merged: false,
                tombstone: true,
            },
        );
        Ok(WriteRequest {
            lba,
            sectors,
            content: WriteContent::Tombstone { key, version },
        })
    }

    /// Begins a checkpoint: snapshots the JMT, retires the active zone,
    /// and switches journaling to the alternate zone so queries continue
    /// while the checkpoint runs. The entries vector is recycled from the
    /// last [`JournalManager::recycle_zone`] call, so steady-state
    /// checkpoints reuse one allocation.
    pub fn begin_checkpoint(&mut self) -> RetiringZone {
        let superseded = self.jmt.superseded();
        let raw_bytes = self.jmt.raw_bytes();
        let stored_bytes = self.jmt.stored_bytes();
        let mut entries = std::mem::take(&mut self.spare_entries);
        self.jmt.drain_into(&mut entries);
        let retiring = RetiringZone {
            zone: self.zone,
            base_lba: self.zone_base(),
            used_sectors: self.zone_used_sectors(),
            entries,
            superseded,
            raw_bytes,
            stored_bytes,
        };
        self.zone = (self.zone + 1) % JOURNAL_ZONES;
        self.head_sectors = 0;
        self.merge = None;
        retiring
    }

    /// Returns a finished [`RetiringZone`]'s entry buffer to the manager
    /// so the next [`JournalManager::begin_checkpoint`] can reuse it.
    pub fn recycle_zone(&mut self, zone: RetiringZone) {
        self.spare_entries = zone.entries;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manager(aligned: bool) -> JournalManager {
        let layout = Layout::new(100, 4096, 512, 1 << 12);
        JournalManager::new(layout, aligned, 0.7)
    }

    #[test]
    fn raw_append_pads_each_commit_to_a_sector() {
        let mut jm = manager(false);
        let r1 = jm.append(1, 1, 400).unwrap();
        let r2 = jm.append(2, 1, 400).unwrap();
        // 416-byte logs pad to one sector each; no sector sharing after a
        // commit.
        assert_eq!(r1.sectors, 1);
        assert_eq!(r2.lba, r1.lba + 1);
        assert_eq!(jm.zone_used_sectors(), 2);
        // Stored bytes reflect the padding.
        assert_eq!(jm.jmt().lookup(1).unwrap().stored_bytes, 512);
        // A 600-byte value spans two sectors (616 bytes + padding).
        let r3 = jm.append(3, 1, 600).unwrap();
        assert_eq!(r3.sectors, 2);
    }

    #[test]
    fn aligned_append_starts_each_full_log_on_a_sector() {
        let mut jm = manager(true);
        let r1 = jm.append(1, 1, 512).unwrap();
        let r2 = jm.append(2, 1, 512).unwrap();
        assert_eq!(r1.sectors, 1);
        assert_eq!(r2.lba, r1.lba + 1);
        assert!(!jm.jmt().lookup(1).unwrap().merged);
    }

    #[test]
    fn partial_logs_merge_into_one_sector() {
        let mut jm = manager(true);
        jm.append(1, 1, 100).unwrap(); // 128-class
        let r2 = jm.append(2, 1, 200).unwrap(); // 256-class
        match &r2.content {
            WriteContent::Merged(frags) => {
                assert_eq!(frags.len(), 2, "both partials share the sector");
            }
            other => panic!("expected merged content, got {other:?}"),
        }
        assert_eq!(jm.zone_used_sectors(), 1);
        assert!(jm.jmt().lookup(2).unwrap().merged);
    }

    #[test]
    fn merge_sector_seals_when_full() {
        let mut jm = manager(true);
        jm.append(1, 1, 384).unwrap(); // 384 class
        jm.append(2, 1, 200).unwrap(); // 256: 384+256 > 512 -> new sector
        assert_eq!(jm.zone_used_sectors(), 2);
        let e1 = *jm.jmt().lookup(1).unwrap();
        let e2 = *jm.jmt().lookup(2).unwrap();
        assert_ne!(e1.journal_lba, e2.journal_lba);
    }

    #[test]
    fn same_key_partial_update_replaces_in_buffered_sector() {
        let mut jm = manager(true);
        jm.append(1, 1, 100).unwrap();
        let r = jm.append(1, 2, 100).unwrap();
        assert_eq!(jm.jmt().lookup(1).unwrap().version, 2);
        assert_eq!(jm.jmt().superseded(), 1);
        // Still one sector: the buffered fragment was replaced in place.
        assert_eq!(jm.zone_used_sectors(), 1);
        match &r.content {
            WriteContent::Merged(frags) => {
                assert_eq!(frags.len(), 1);
                assert_eq!(frags[0].version, 2);
            }
            other => panic!("expected merged content, got {other:?}"),
        }
    }

    #[test]
    fn growing_partial_replacement_can_seal_sector() {
        let mut jm = manager(true);
        jm.append(1, 1, 100).unwrap(); // 128 class
        jm.append(2, 1, 300).unwrap(); // 384 class: 128+384 = 512 exactly
                                       // Key 1 grows to 384: 384+384 > 512 -> new sector.
        jm.append(1, 2, 300).unwrap();
        assert_eq!(jm.zone_used_sectors(), 2);
        assert_ne!(
            jm.jmt().lookup(1).unwrap().journal_lba,
            jm.jmt().lookup(2).unwrap().journal_lba
        );
    }

    #[test]
    fn large_value_compresses_under_alignment() {
        let mut jm = manager(true);
        let r = jm.append(1, 1, 4096).unwrap();
        // 4096 * 0.7 -> 6 sectors instead of 8.
        assert_eq!(r.sectors, 6);
    }

    #[test]
    fn checkpoint_swaps_zones_and_drains_jmt() {
        let mut jm = manager(true);
        jm.append(1, 1, 512).unwrap();
        jm.append(2, 1, 512).unwrap();
        let zone0_base = jm.append(3, 1, 512).unwrap().lba & !0xFFF;
        let retiring = jm.begin_checkpoint();
        assert_eq!(retiring.zone, 0);
        assert_eq!(retiring.entries.len(), 3);
        assert_eq!(retiring.used_sectors, 3);
        assert!(jm.jmt().is_empty());
        // New appends land in zone 1.
        let r = jm.append(4, 1, 512).unwrap();
        assert!(r.lba >= retiring.base_lba + jm.layout_zone_sectors_for_test());
        let _ = zone0_base;
        // Second checkpoint returns to zone 0.
        let retiring2 = jm.begin_checkpoint();
        assert_eq!(retiring2.zone, 1);
    }

    #[test]
    fn journal_full_raw_mode() {
        let layout = Layout::new(10, 512, 512, 4); // 4-sector zones
        let mut jm = JournalManager::new(layout, false, 1.0);
        jm.append(1, 1, 900).unwrap(); // 916 bytes -> 2 sectors
        jm.append(2, 1, 900).unwrap(); // 4 sectors total
        assert_eq!(jm.append(3, 1, 900), Err(JournalFull));
    }

    #[test]
    fn journal_full_aligned_mode() {
        let layout = Layout::new(10, 512, 512, 2);
        let mut jm = JournalManager::new(layout, true, 1.0);
        jm.append(1, 1, 512).unwrap();
        jm.append(2, 1, 512).unwrap();
        assert_eq!(jm.append(3, 1, 512), Err(JournalFull));
        // Partial also refused when no sector is left.
        assert_eq!(jm.append(4, 1, 100), Err(JournalFull));
    }

    impl JournalManager {
        fn layout_zone_sectors_for_test(&self) -> u64 {
            self.layout.zone_sectors()
        }
    }
}
