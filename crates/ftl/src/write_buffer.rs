//! The power-protected write buffer: units the host (or GC) has written
//! that have not been programmed yet, and the order they page out in.
//!
//! Slot ids are recycled, so the slot array (and the mapping table's
//! buffer-side state bits) stays bounded by the buffer depth instead
//! of growing with total writes. The queue holds units in arrival order;
//! an updated unit is a fresh slot at the tail, so the head naturally
//! holds units that stopped receiving writes — those page out first.

use std::collections::VecDeque;

use checkin_flash::{OobEntry, UnitPayload};

use crate::location::{BufSlot, Location};
use crate::mapping::MappingTable;

/// One buffered unit: its content and the OOB record it will carry.
#[derive(Debug, Clone)]
pub(crate) struct SlotData {
    pub(crate) payload: UnitPayload,
    pub(crate) oob: OobEntry,
}

#[derive(Debug, Default)]
pub(crate) struct WriteBuffer {
    slots: Vec<Option<SlotData>>,
    free_slot_ids: Vec<u64>,
    pending: VecDeque<BufSlot>,
}

impl WriteBuffer {
    /// Data held by a slot, or `None` when the slot is empty (a mapping
    /// onto an empty slot is an inconsistency the caller reports).
    pub(crate) fn data(&self, slot: BufSlot) -> Option<&SlotData> {
        self.slots.get(slot.index())?.as_ref()
    }

    /// Mutable access to a slot's data: page-out moves the payload into
    /// the staging page and, if the program fails, back.
    pub(crate) fn data_mut(&mut self, slot: BufSlot) -> Option<&mut SlotData> {
        self.slots.get_mut(slot.index())?.as_mut()
    }

    /// Stores a unit in a recycled (or new) slot and queues it for
    /// page-out at the tail.
    pub(crate) fn enqueue(&mut self, data: SlotData) -> BufSlot {
        let slot = match self.free_slot_ids.pop() {
            Some(id) => {
                let cell = self.slots.get_mut(BufSlot(id).index());
                debug_assert!(matches!(cell, Some(None)), "slot id double use");
                if let Some(cell) = cell {
                    *cell = Some(data);
                }
                BufSlot(id)
            }
            None => {
                self.slots.push(Some(data));
                BufSlot(self.slots.len() as u64 - 1)
            }
        };
        self.pending.push_back(slot);
        slot
    }

    /// Empties a slot that already left the queue and recycles its id.
    /// The caller must ensure no mapping references the slot anymore.
    /// Returns `None` when the slot was already empty.
    pub(crate) fn release(&mut self, slot: BufSlot) -> Option<SlotData> {
        let data = self.slots.get_mut(slot.index())?.take()?;
        self.free_slot_ids.push(slot.0);
        Some(data)
    }

    /// Drops a unit that died before page-out (overwritten, trimmed, or
    /// remapped away) so it does not waste a unit of the next program.
    pub(crate) fn discard(&mut self, slot: BufSlot) {
        let _ = self.release(slot);
        self.pending.retain(|&s| s != slot);
    }

    pub(crate) fn queued(&self) -> usize {
        self.pending.len()
    }

    /// Moves up to `n` units from the queue head into `batch`.
    pub(crate) fn take_batch(&mut self, n: usize, batch: &mut Vec<BufSlot>) {
        let n = n.min(self.pending.len());
        batch.extend(self.pending.drain(..n));
    }

    /// Puts a taken batch back at the queue head, in its original order.
    pub(crate) fn requeue_front(&mut self, batch: &[BufSlot]) {
        for (i, &slot) in batch.iter().enumerate() {
            self.pending.insert(i, slot);
        }
    }

    /// Occupied slots in slot-id order.
    pub(crate) fn live(&self) -> impl Iterator<Item = (BufSlot, &SlotData)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(id, d)| d.as_ref().map(|d| (BufSlot(id as u64), d)))
    }

    /// Post-power-loss reset: the whole surviving buffer re-queues for
    /// page-out in write (OOB sequence) order and the free-id list is
    /// rebuilt from the empty slots.
    pub(crate) fn requeue_all_in_write_order(&mut self) {
        let mut live: Vec<(u64, BufSlot)> = self.live().map(|(s, d)| (d.oob.sequence, s)).collect();
        live.sort_unstable();
        self.pending = live.into_iter().map(|(_, s)| s).collect();
        self.free_slot_ids = (0..self.slots.len() as u64)
            .filter(|&id| self.data(BufSlot(id)).is_none())
            .collect();
    }

    /// Throws every buffered unit away (sabotage self-tests only).
    pub(crate) fn clear(&mut self) {
        self.slots.clear();
        self.free_slot_ids.clear();
        self.pending.clear();
    }

    /// An occupied slot is queued once, or off the queue (mid page-out)
    /// and still referenced by `table`, and never on the free-id list;
    /// an empty slot is on that list once and not queued.
    pub(crate) fn check_invariants(&self, table: &MappingTable) -> Result<(), String> {
        for (id, data) in self.slots.iter().enumerate() {
            let slot = BufSlot(id as u64);
            let queued = self.pending.iter().filter(|&&s| s == slot).count();
            let free = self.free_slot_ids.iter().filter(|&&f| f == slot.0).count();
            let referenced = table.is_referenced(Location::Buffer(slot));
            let ok = match data {
                Some(_) => free == 0 && (queued == 1 || (queued == 0 && referenced)),
                None => (free, queued) == (1, 0),
            };
            if !ok {
                return Err(format!(
                    "buffer slot {slot} (occupied: {}) is queued {queued}x, on the free-id \
                     list {free}x, referenced: {referenced}",
                    data.is_some()
                ));
            }
        }
        match self.pending.iter().find(|s| s.0 >= self.slots.len() as u64) {
            Some(slot) => Err(format!("page-out queue names unknown slot {slot}")),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::location::Lpn;
    use checkin_flash::OobKind;

    fn unit(lpn: u64, sequence: u64) -> SlotData {
        SlotData {
            payload: UnitPayload::single(lpn, 1, 512),
            oob: OobEntry {
                lpn,
                sequence,
                kind: OobKind::Data,
            },
        }
    }

    #[test]
    fn slot_ids_are_recycled_and_batches_keep_arrival_order() {
        let mut buf = WriteBuffer::default();
        let mut table = MappingTable::new();
        let slots: Vec<BufSlot> = (0..4).map(|i| buf.enqueue(unit(i, i + 1))).collect();
        for (i, &s) in slots.iter().enumerate() {
            let _ = table.map(Lpn(i as u64), Location::Buffer(s), |_| None);
        }
        buf.check_invariants(&table).unwrap();

        let mut batch = Vec::new();
        buf.take_batch(3, &mut batch);
        assert_eq!(batch, slots[..3]);
        buf.requeue_front(&batch);
        assert_eq!(buf.queued(), 4);

        let _ = table.unmap(Lpn(1), |_| None);
        buf.discard(slots[1]);
        buf.check_invariants(&table).unwrap();
        assert_eq!(
            buf.enqueue(unit(9, 9)),
            slots[1],
            "the freed id is reused before the slot array grows"
        );
    }

    #[test]
    fn survivors_requeue_in_write_order() {
        let mut buf = WriteBuffer::default();
        let a = buf.enqueue(unit(0, 7));
        let b = buf.enqueue(unit(1, 3));
        let c = buf.enqueue(unit(2, 5));
        let mut batch = Vec::new();
        buf.take_batch(3, &mut batch);
        let _ = buf.release(c);
        buf.requeue_all_in_write_order();
        batch.clear();
        buf.take_batch(8, &mut batch);
        assert_eq!(batch, [b, a]);
        assert_eq!(buf.enqueue(unit(3, 9)), c);
    }

    #[test]
    fn invariant_reports_orphaned_and_doubly_queued_slots() {
        let table = MappingTable::new();
        let mut buf = WriteBuffer::default();
        let slot = buf.enqueue(unit(0, 1));
        let mut batch = Vec::new();
        buf.take_batch(1, &mut batch);
        // Off the queue, never mapped: nothing can reach this unit.
        let err = buf.check_invariants(&table).unwrap_err();
        assert!(
            err.contains("queued 0x") && err.contains("referenced: false"),
            "{err}"
        );

        buf.requeue_front(&batch);
        buf.requeue_front(&batch);
        let err = buf.check_invariants(&table).unwrap_err();
        assert!(err.contains("queued 2x"), "{err}");

        buf.discard(slot);
        buf.check_invariants(&table).unwrap();
        buf.requeue_front(&batch);
        let err = buf.check_invariants(&table).unwrap_err();
        assert!(err.contains("(occupied: false) is queued 1x"), "{err}");
    }
}
