//! The persisted mapping log: the firmware state behind the periodic
//! ISCE metadata writes (§III-F) and the pre-erase flush. Recovery
//! resolves this snapshot first and replays only OOB records written
//! after it, which is what makes *unmappings* (journal trims, tombstone
//! trims) and remap aliases durable: both are pure metadata changes
//! invisible to the OOB stream.

use std::collections::BTreeMap;

use crate::location::{BufSlot, Location, Lpn, Pun};
use crate::mapping::MappingTable;
use crate::write_buffer::WriteBuffer;

/// Where a mapping entry pointed when the log was persisted.
#[derive(Debug, Clone, Copy)]
enum SnapLoc {
    /// Directly addressable flash copy.
    Flash(Pun),
    /// Capacitor-backed buffer copy, identified by its OOB sequence
    /// number — stable across drains and slot-id recycling, unlike the
    /// slot id itself.
    Buffered { oob_seq: u64 },
}

#[derive(Debug)]
struct MappingSnapshot {
    /// Global write-sequence value at persist time.
    seq: u64,
    /// Mapping entries in ascending-lpn order.
    entries: Vec<(Lpn, SnapLoc)>,
}

#[derive(Debug, Default)]
pub(crate) struct MapPersistence {
    persisted: Option<MappingSnapshot>,
}

impl MapPersistence {
    /// Replaces the persisted snapshot with the current table. A mapping
    /// onto an empty buffer slot is an inconsistency; leaving it out is
    /// safe (the entry re-resolves from the OOB stream on recovery).
    /// The old snapshot's buffer is refilled: a fresh, slightly longer
    /// megabyte per persist made peak memory follow allocator history.
    pub(crate) fn persist(&mut self, table: &MappingTable, buffer: &WriteBuffer, seq: u64) {
        let mut entries = self.persisted.take().map_or_else(Vec::new, |s| s.entries);
        entries.clear();
        entries.reserve(table.live_entries());
        for (lpn, loc) in table.iter() {
            let snap = match loc {
                Location::Flash(pun) => SnapLoc::Flash(pun),
                Location::Buffer(slot) => match buffer.data(slot) {
                    Some(data) => SnapLoc::Buffered {
                        oob_seq: data.oob.sequence,
                    },
                    None => continue,
                },
            };
            entries.push((lpn, snap));
        }
        self.persisted = Some(MappingSnapshot { seq, entries });
    }

    /// Write-sequence value of the snapshot: OOB records and buffer slots
    /// at or below it are already reflected in (or trimmed from) it.
    pub(crate) fn floor_seq(&self) -> u64 {
        self.persisted.as_ref().map_or(0, |s| s.seq)
    }

    /// Consumes the snapshot into `table`, returning `(resolved,
    /// dropped)` entry counts. Buffered entries resolve via the live slot
    /// carrying the recorded OOB sequence (`live_slots`) or, if the unit
    /// drained before the cut, via the flash record carrying it
    /// (`drained`) — matched by sequence alone, since remap aliases
    /// reference a unit under an lpn other than the one it was written
    /// under. A flash unit, named directly or found that way, resolves
    /// when `unit_verifies` says `Some(true)`. Anything else is dropped,
    /// never re-linked onto missing or corrupt data — and an entry whose
    /// unit is there but does not verify (`Some(false)`) goes into
    /// `damaged`: the log is sound, so it names an lpn whose data is lost.
    /// `own` is the table's own-LPN function.
    pub(crate) fn resolve_into(
        &mut self,
        table: &mut MappingTable,
        unit_verifies: impl Fn(Pun) -> Option<bool>,
        live_slots: &BTreeMap<u64, BufSlot>,
        drained: &BTreeMap<u64, Pun>,
        damaged: &mut BTreeMap<Lpn, Pun>,
        own: impl Fn(Location) -> Option<Lpn>,
    ) -> (u64, u64) {
        let (mut resolved, mut dropped) = (0, 0);
        for (lpn, loc) in self.persisted.take().map(|s| s.entries).unwrap_or_default() {
            let target = match loc {
                SnapLoc::Flash(pun) => Some(Location::Flash(pun)),
                SnapLoc::Buffered { oob_seq } => live_slots
                    .get(&oob_seq)
                    .map(|&s| Location::Buffer(s))
                    .or_else(|| drained.get(&oob_seq).map(|&p| Location::Flash(p))),
            };
            let target = target.filter(|&l| match l {
                Location::Buffer(_) => true,
                Location::Flash(pun) => {
                    let verdict = unit_verifies(pun);
                    if verdict == Some(false) {
                        damaged.insert(lpn, pun);
                    }
                    verdict == Some(true)
                }
            });
            match target {
                Some(l) => {
                    let _ = table.map(lpn, l, &own);
                    resolved += 1;
                }
                None => dropped += 1,
            }
        }
        (resolved, dropped)
    }

    /// A snapshot never runs ahead of the write sequence `seq`, and names
    /// buffered units only by sequences it covers — so every entry either
    /// resolves or is dropped, never matched against a later write.
    pub(crate) fn check_invariants(&self, seq: u64) -> Result<(), String> {
        let Some(snap) = &self.persisted else {
            return Ok(());
        };
        let newest = snap.entries.iter().filter_map(|&(_, loc)| match loc {
            SnapLoc::Buffered { oob_seq } => Some(oob_seq),
            SnapLoc::Flash(_) => None,
        });
        if snap.seq > seq || newest.max().is_some_and(|s| s > snap.seq) {
            return Err(format!(
                "mapping log persisted at sequence {} is ahead of the FTL ({seq}) or behind \
                 a buffered unit it names",
                snap.seq
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::write_buffer::SlotData;
    use checkin_flash::{OobEntry, OobKind, UnitPayload};

    fn buffered(buffer: &mut WriteBuffer, lpn: u64, sequence: u64) -> BufSlot {
        buffer.enqueue(SlotData {
            payload: UnitPayload::single(lpn, 1, 512),
            oob: OobEntry {
                lpn,
                sequence,
                kind: OobKind::Data,
            },
        })
    }

    #[test]
    fn entries_resolve_by_sequence_or_drop() {
        let mut buffer = WriteBuffer::default();
        let mut table = MappingTable::new();
        let _ = table.map(Lpn(0), Location::Flash(Pun(10)), |_| None);
        let _ = table.map(Lpn(1), Location::Flash(Pun(11)), |_| None);
        for (lpn, seq) in [(2, 5), (3, 6), (4, 7)] {
            let slot = buffered(&mut buffer, lpn, seq);
            let _ = table.map(Lpn(lpn), Location::Buffer(slot), |_| None);
        }
        let mut log = MapPersistence::default();
        log.persist(&table, &buffer, 6);
        let first = log.persisted.as_ref().unwrap().entries.as_ptr();
        log.persist(&table, &buffer, 7);
        let refilled = &log.persisted.as_ref().unwrap().entries;
        assert_eq!((refilled.as_ptr(), refilled.len()), (first, 5));
        assert_eq!(log.floor_seq(), 7);
        log.check_invariants(7).unwrap();

        // After the cut: Pun(11) rotted; sequence 5 is still buffered
        // (under a recycled slot id), 6 drained to Pun(20), 7 is gone.
        let live = BTreeMap::from([(5, BufSlot(9))]);
        let drained = BTreeMap::from([(6, Pun(20))]);
        let mut recovered = MappingTable::new();
        let mut damaged = BTreeMap::new();
        let verifies = |pun| Some(pun != Pun(11));
        let counts = log.resolve_into(
            &mut recovered,
            verifies,
            &live,
            &drained,
            &mut damaged,
            |_| None,
        );
        assert_eq!(counts, (3, 2));
        assert_eq!(damaged, BTreeMap::from([(Lpn(1), Pun(11))]));
        assert_eq!(recovered.lookup(Lpn(0)), Some(Location::Flash(Pun(10))));
        assert_eq!(recovered.lookup(Lpn(1)), None);
        assert_eq!(recovered.lookup(Lpn(2)), Some(Location::Buffer(BufSlot(9))));
        assert_eq!(recovered.lookup(Lpn(3)), Some(Location::Flash(Pun(20))));
        assert_eq!(recovered.lookup(Lpn(4)), None);
        assert_eq!(log.floor_seq(), 0, "the snapshot is consumed");
    }

    #[test]
    fn invariant_reports_a_snapshot_ahead_of_what_it_covers() {
        let log = MapPersistence {
            persisted: Some(MappingSnapshot {
                seq: 5,
                entries: vec![(Lpn(1), SnapLoc::Buffered { oob_seq: 5 })],
            }),
        };
        log.check_invariants(5).unwrap();
        assert!(log.check_invariants(4).is_err(), "ahead of the FTL");
        let log = MapPersistence {
            persisted: Some(MappingSnapshot {
                seq: 5,
                entries: vec![(Lpn(1), SnapLoc::Buffered { oob_seq: 9 })],
            }),
        };
        let err = log.check_invariants(9).unwrap_err();
        assert!(err.contains("behind a buffered unit it names"), "{err}");
    }
}
