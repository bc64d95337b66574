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

    /// Rebuilds the whole FTL state after a power cut from what survives:
    /// flash contents and their OOB stream, per-block write cursors and
    /// bad-block marks, the capacitor-backed write buffer, and the last
    /// persisted mapping log.
    ///
    /// Algorithm (the paper's §III-G SPOR, extended with the mapping log):
    ///
    /// 1. resolve the persisted snapshot — flash entries directly, buffered
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
        let mut stats = RebuildStats::default();
        let snap_seq = self.persist.floor_seq();

        // Live buffer slots indexed by their OOB sequence number.
        let slot_by_seq: BTreeMap<u64, BufSlot> = self
            .buffer
            .live()
            .map(|(slot, d)| (d.oob.sequence, slot))
            .collect();

        // One full OOB scan. Post-snapshot records become the replay list;
        // older records go into an index used to resolve snapshot entries
        // whose buffered unit drained before the cut — keyed by OOB
        // sequence alone: a sequence number identifies one written unit,
        // while the record's lpn is only the lpn the unit was *written*
        // under. A replay entry is `(sequence, lpn, unit, unit verifies)`.
        let mut replay: Vec<(u64, Lpn, Pun, bool)> = Vec::new();
        let mut pre_snap: BTreeMap<u64, Pun> = BTreeMap::new();
        let mut max_seq = snap_seq;
        for (ppn, content) in self.flash.programmed_pages() {
            for (offset, oob) in (0u32..).zip(content.oobs()) {
                // A record whose own checksum fails (torn tail, rotted
                // metadata) names nothing that can be trusted: it must
                // neither replay nor advance `max_seq` — a flipped
                // sequence bit could falsely win newest-wins over good
                // records.
                if verify && !content.oob_intact(offset as usize) {
                    stats.oob_records_rejected += 1;
                    continue;
                }
                // A sound record over a damaged unit still names the lpn
                // and sequence of a write the host was told had landed.
                // Forgetting it would bring the lpn back unmapped, or on
                // an older copy. Newer than the snapshot, it replays as
                // a loss marker; older, the snapshot speaks for the lpn
                // (and checks the unit it resolves to).
                let pun = Pun::compose(ppn, offset, upp);
                max_seq = max_seq.max(oob.sequence);
                if oob.sequence > snap_seq {
                    let unit_intact = !verify || content.unit_intact(offset as usize);
                    replay.push((oob.sequence, Lpn(oob.lpn), pun, unit_intact));
                } else {
                    pre_snap.insert(oob.sequence, pun);
                }
            }
        }
        replay.sort_unstable_by_key(|&(seq, ..)| seq);

        // The DRAM table did not survive the cut: release it before its
        // replacement is built, so recovery never holds two.
        self.table = MappingTable::new();
        let mut table = MappingTable::with_capacity(g.total_pages() * upp as u64);
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
        );
        for &(_, lpn, pun, unit_intact) in &replay {
            if unit_intact {
                let _ = table.map(lpn, Location::Flash(pun));
                lost.remove(&lpn);
                stats.oob_records_replayed += 1;
            } else {
                let _ = table.unmap(lpn);
                lost.insert(lpn, pun);
            }
        }
        for (slot, d) in self.buffer.live() {
            max_seq = max_seq.max(d.oob.sequence);
            if d.oob.sequence > snap_seq {
                let _ = table.map(Lpn(d.oob.lpn), Location::Buffer(slot));
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
        self.in_gc = false;
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
            let _ = self.table.unmap(lpn);
        }
        self.buffer.clear();
    }
}
