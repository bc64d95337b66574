//! Sudden-power-off recovery: persisting the mapping log while the
//! device runs, and rebuilding every component from what survives a cut.

use std::collections::{BTreeMap, BTreeSet};

use checkin_sim::Counter;

use super::Ftl;
use crate::error::RecoveryError;
use crate::location::{BufSlot, Location, Lpn, Pun};
use crate::mapping::MappingTable;

/// Outcome counts of a post-power-loss FTL rebuild
/// ([`Ftl::rebuild_after_power_loss`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RebuildStats {
    /// Persisted-snapshot entries resolved into the fresh mapping table.
    pub snapshot_entries_resolved: u64,
    /// Persisted-snapshot entries dropped (target no longer readable).
    pub snapshot_entries_dropped: u64,
    /// Post-snapshot OOB records replayed (newest-wins per lpn).
    pub oob_records_replayed: u64,
    /// Capacitor-backed buffer slots re-linked into the table.
    pub buffered_units_recovered: u64,
    /// OOB records rejected by checksum verification during the scan
    /// (torn tails, rotted metadata). Rejected records never replay and
    /// never advance the recovered sequence floor.
    pub oob_records_rejected: u64,
    /// Lpns lost to damage the scan found: the newest thing that names
    /// the lpn — a snapshot entry, or a post-snapshot OOB record that
    /// itself verifies — points at a data unit that does not. The lpn
    /// comes back unmapped and poisoned, so reads of it fail typed.
    pub lpns_poisoned: u64,
}

/// What one full scan of the OOB stream found ([`Ftl::scan_oob`]): the
/// input of [`Ftl::rebuild_after_power_loss`].
#[derive(Debug, Default)]
pub struct OobScan {
    /// Records newer than the persisted mapping log, in sequence order,
    /// as `(sequence, lpn, unit, unit verifies)`; a record whose unit
    /// does not verify replays as a loss marker.
    replay: Vec<(u64, Lpn, Pun, bool)>,
    /// The unit of every other accepted record, by sequence: a snapshot
    /// entry whose buffered unit drained before the cut resolves here.
    pre_snap: BTreeMap<u64, Pun>,
    /// Newest sequence an accepted record carries (0 when none).
    max_seq: u64,
    /// Records whose own checksum failed.
    rejected: u64,
}

impl OobScan {
    /// OOB records rejected because their own checksum failed (torn
    /// tails, rotted metadata). A sound record over a damaged unit is
    /// not rejected: it is a loss marker.
    pub fn rejected(&self) -> u64 {
        self.rejected
    }
}

impl Ftl {
    /// Persists the mapping log — the firmware action behind the periodic
    /// ISCE metadata writes (§III-F) and the pre-erase flush. Gated on
    /// fault injection being armed, so normal runs never pay for it.
    pub fn persist_mapping_log(&mut self) {
        if !self.flash.faults_armed() {
            return;
        }
        self.persist.persist(&self.table, &self.buffer, self.seq);
        self.counters.incr(Counter::FtlMappingLogPersists);
    }

    /// Scans every programmed page's OOB records — step 1 of
    /// [`Ftl::rebuild_after_power_loss`], the one place that decides which
    /// record SPOR believes. It changes nothing and charges no simulated
    /// time.
    ///
    /// A record whose own checksum fails (torn tail, rotted metadata)
    /// names nothing that can be trusted: it is rejected, and neither
    /// replays nor advances the sequence floor — a flipped sequence bit
    /// could falsely win newest-wins over good records. A sound record
    /// over a damaged unit still names the lpn and sequence of a write
    /// the host was told had landed; forgetting it would bring the lpn
    /// back unmapped, or on an older copy. Newer than the persisted
    /// mapping log, it replays as a loss marker; older, the log speaks
    /// for the lpn (and checks the unit it resolves to). A post-log
    /// record is keyed by its lpn; an older one by its sequence alone,
    /// which identifies one written unit, while the lpn is only the one
    /// the unit was *written* under (remap aliases name it by others).
    pub fn scan_oob(&self) -> OobScan {
        let verify = self.config.verify_checksums;
        let snap_seq = self.persist.floor_seq();
        let mut scan = OobScan::default();
        for (ppn, content) in self.flash.programmed_pages() {
            for (offset, oob) in (0u32..).zip(content.oobs()) {
                if verify && !content.oob_intact(offset as usize) {
                    scan.rejected += 1;
                    continue;
                }
                let pun = Pun::compose(ppn, offset, self.upp);
                scan.max_seq = scan.max_seq.max(oob.sequence);
                if oob.sequence > snap_seq {
                    let unit_intact = !verify || content.unit_intact(offset as usize);
                    scan.replay
                        .push((oob.sequence, Lpn(oob.lpn), pun, unit_intact));
                } else {
                    scan.pre_snap.insert(oob.sequence, pun);
                }
            }
        }
        scan.replay.sort_unstable_by_key(|&(seq, ..)| seq);
        scan
    }

    /// Rebuilds the whole FTL state after a power cut from what survives:
    /// flash contents and their OOB stream, per-block write cursors and
    /// bad-block marks, the capacitor-backed write buffer, and the last
    /// persisted mapping log.
    ///
    /// Algorithm (the paper's §III-G SPOR, extended with the mapping log):
    ///
    /// 1. scan the OOB stream ([`Ftl::scan_oob`]), then resolve the
    ///    persisted snapshot — flash entries directly, buffered
    ///    entries by the OOB sequence they were written under, wherever
    ///    that unit is now; an entry onto a unit that fails its checksum
    ///    marks its lpn lost instead;
    /// 2. replay OOB records *newer than the snapshot* in sequence order,
    ///    newest winning per lpn — a record whose data unit fails its
    ///    checksum replays as a *loss marker* that unmaps the lpn, so an
    ///    older intact copy is not resurrected over a newer damaged one
    ///    (an lpn still lost after step 3 is poisoned: reads fail typed
    ///    instead of reporting "never written");
    /// 3. overlay live buffer slots newer than the snapshot — a live slot
    ///    is always the newest copy of its lpn;
    /// 4. reconstruct block lifecycle from write cursors and bad-block
    ///    marks, and recompute per-block valid-unit counts from the fresh
    ///    table. Live buffer slots re-queue for page-out in write order,
    ///    and every programming slot is free.
    ///
    /// # Errors
    ///
    /// [`RecoveryError::PoweredOff`] when the array has not been powered
    /// back on ([`checkin_flash::FlashArray::power_on`]) first;
    /// [`RecoveryError::Inconsistent`] when the surviving state
    /// contradicts itself. Recovery code must never panic (the crate
    /// denies clippy's panic lints), so even caller mistakes report
    /// through the error path.
    pub fn rebuild_after_power_loss(&mut self) -> Result<RebuildStats, RecoveryError> {
        if self.flash.powered_off() {
            return Err(RecoveryError::PoweredOff);
        }
        let g = *self.flash.geometry();
        let upp = self.upp;
        let verify = self.config.verify_checksums;
        let snap_seq = self.persist.floor_seq();

        // Live buffer slots indexed by their OOB sequence number.
        let slot_by_seq: BTreeMap<u64, BufSlot> = self
            .buffer
            .live()
            .map(|(slot, d)| (d.oob.sequence, slot))
            .collect();
        let OobScan {
            replay,
            pre_snap,
            max_seq,
            rejected,
        } = self.scan_oob();
        let mut max_seq = max_seq.max(snap_seq);
        let mut stats = RebuildStats {
            oob_records_rejected: rejected,
            ..RebuildStats::default()
        };

        // The DRAM table did not survive the cut: release it before its
        // replacement is built, so recovery never holds two.
        self.table = MappingTable::new();
        let mut table = MappingTable::with_capacity(g.total_pages() * upp as u64);
        let own = super::owners(&self.flash, &self.buffer, upp);
        // `None`: nothing is programmed there.
        let unit_verifies = |pun: Pun| {
            let page = self.flash.read(pun.page(upp))?;
            Some(!verify || page.unit_intact(pun.offset(upp) as usize))
        };
        // Lpns whose newest copy so far is a damaged unit.
        let mut lost: BTreeMap<Lpn, Pun> = BTreeMap::new();
        (
            stats.snapshot_entries_resolved,
            stats.snapshot_entries_dropped,
        ) = self.persist.resolve_into(
            &mut table,
            unit_verifies,
            &slot_by_seq,
            &pre_snap,
            &mut lost,
            own,
        );
        for &(_, lpn, pun, unit_intact) in &replay {
            if unit_intact {
                let _ = table.map(lpn, Location::Flash(pun), own);
                lost.remove(&lpn);
                stats.oob_records_replayed += 1;
            } else {
                let _ = table.unmap(lpn, own);
                lost.insert(lpn, pun);
            }
        }
        for (slot, d) in self.buffer.live() {
            max_seq = max_seq.max(d.oob.sequence);
            if d.oob.sequence > snap_seq {
                let _ = table.map(Lpn(d.oob.lpn), Location::Buffer(slot), own);
                lost.remove(&Lpn(d.oob.lpn));
                stats.buffered_units_recovered += 1;
            }
        }
        // One damaged unit may be lost to several lpns (remap aliases).
        stats.lpns_poisoned = lost.len() as u64;
        let damaged: BTreeSet<Pun> = lost.values().copied().collect();
        for lpn in lost.into_keys() {
            self.ledger.poison(lpn);
        }
        for pun in damaged {
            self.ledger.record_lost_at_rebuild(pun, &mut self.counters);
        }
        self.table = table;

        // Fresh runtime state: no active blocks, no GC and no program in
        // flight — the cut ended every program it did not tear.
        self.pool.rebuild(&self.flash, &self.table, upp)?;
        self.buffer.requeue_all_in_write_order();
        self.programs.clear();
        self.gc = None;
        self.seq = self.seq.max(max_seq);
        self.counters.incr(Counter::FtlPowerLossRebuilds);
        // Re-persist immediately: the recovered table is the new floor.
        self.persist_mapping_log();
        Ok(stats)
    }

    /// Test-only sabotage: throws away the capacitor-backed write buffer
    /// (slots, pending queue, and their mappings), deliberately breaking
    /// the acked-write durability contract. Harnesses call this to prove
    /// their verifier actually detects a broken recovery; never call it
    /// anywhere else.
    pub fn sabotage_drop_write_buffer(&mut self) {
        let buffered: Vec<Lpn> = self
            .table
            .iter()
            .filter_map(|(lpn, loc)| matches!(loc, Location::Buffer(_)).then_some(lpn))
            .collect();
        for lpn in buffered {
            let (table, own) = self.table_mut();
            let _ = table.unmap(lpn, own);
        }
        self.buffer.clear();
    }
}
