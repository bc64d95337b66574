//! The integrity ledger: which physical units failed checksum
//! verification, which logical units were lost for good, where the
//! background scrubber resumes — and the only code that bumps the
//! `ftl.integrity_*` counters. `detected == quarantined + corrected`
//! needs no keeping: detected is a [`Total`] of exactly those two.

use std::collections::BTreeSet;

use checkin_flash::{BlockId, FlashArray, FlashGeometry, Ppn};
use checkin_sim::{Counter, CounterSet, Total};

use crate::location::{Location, Lpn, Pun};
use crate::mapping::MappingTable;

#[derive(Debug, Default)]
pub(crate) struct IntegrityLedger {
    /// Physical units whose checksum verification failed. The mapping is
    /// *kept* — unmapping would make reads silently zero-fill — so every
    /// read keeps failing with a typed error until the block is erased
    /// or retired (which clears its marks). Empty in healthy runs, so
    /// the hot-path membership test is one branch.
    quarantined: BTreeSet<Pun>,
    /// Logical units whose only physical copy was corrupt when its block
    /// was reclaimed: data is gone, and reads must say so (typed error)
    /// rather than report "never written". Cleared by a fresh write,
    /// remap, or deallocate.
    poisoned: BTreeSet<Lpn>,
    /// Next page the background scrubber will visit (wraps around).
    scrub_cursor: u64,
}

impl IntegrityLedger {
    pub(crate) fn is_quarantined(&self, pun: Pun) -> bool {
        !self.quarantined.is_empty() && self.quarantined.contains(&pun)
    }

    pub(crate) fn is_poisoned(&self, lpn: Lpn) -> bool {
        !self.poisoned.is_empty() && self.poisoned.contains(&lpn)
    }

    /// Marks a physical unit as corrupt (checksum mismatch). Returns
    /// `None` when it was already marked, else `Some(referenced)`: whether
    /// `table` still points at the unit. Every new mark counts in
    /// exactly one of `ftl.integrity_quarantined` (referenced: logical
    /// data is walled off) or `ftl.integrity_corrected` (a stale copy —
    /// nothing to lose, the mark just keeps GC from copying rot forward),
    /// and through it in `ftl.integrity_detected`.
    pub(crate) fn note_corrupt(
        &mut self,
        pun: Pun,
        table: &MappingTable,
        counters: &mut CounterSet,
    ) -> Option<bool> {
        if !self.quarantined.insert(pun) {
            return None;
        }
        let referenced = table.is_referenced(Location::Flash(pun));
        counters.incr(if referenced {
            Counter::FtlIntegrityQuarantined
        } else {
            Counter::FtlIntegrityCorrected
        });
        Some(referenced)
    }

    /// A referenced-but-corrupt unit is being destroyed with its block:
    /// the mark goes, and the loss counts in
    /// `ftl.integrity_unrecoverable`. Corruption first observed only now
    /// (during the salvage scan itself) is still one detected +
    /// quarantined event.
    pub(crate) fn record_destroyed(&mut self, pun: Pun, counters: &mut CounterSet) {
        if !self.quarantined.remove(&pun) {
            counters.incr(Counter::FtlIntegrityQuarantined);
        }
        counters.incr(Counter::FtlIntegrityUnrecoverable);
    }

    /// SPOR found that the newest record naming some lpn — a mapping-log
    /// entry or a sound OOB record — points at `pun`, whose data does not
    /// verify: the logical data is lost (`ftl.integrity_unrecoverable`). The unit is still on flash,
    /// so the mark is made — or kept, when a read had already failed on
    /// it before the cut — and a later scrub does not count it again.
    pub(crate) fn record_lost_at_rebuild(&mut self, pun: Pun, counters: &mut CounterSet) {
        if self.quarantined.insert(pun) {
            counters.incr(Counter::FtlIntegrityQuarantined);
        }
        counters.incr(Counter::FtlIntegrityUnrecoverable);
    }

    pub(crate) fn poison(&mut self, lpn: Lpn) {
        self.poisoned.insert(lpn);
    }

    /// Clears `lpn`'s loss record once a fresh write, remap, or
    /// deallocate supersedes the lost data.
    pub(crate) fn clear_poison(&mut self, lpn: Lpn) {
        if !self.poisoned.is_empty() {
            self.poisoned.remove(&lpn);
        }
    }

    /// Quarantined units currently marked inside `block`.
    pub(crate) fn marks_in_block(&self, block: BlockId, g: &FlashGeometry, upp: u32) -> usize {
        self.quarantined
            .iter()
            .filter(|pun| g.block_of(pun.page(upp)) == block)
            .count()
    }

    /// Drops every mark inside `block` — called when the block is erased
    /// or retired, after which its physical units hold no data (and any
    /// logical loss has been converted to poisoned lpns).
    pub(crate) fn clear_block(&mut self, block: BlockId, g: &FlashGeometry, upp: u32) {
        if !self.quarantined.is_empty() {
            self.quarantined
                .retain(|pun| g.block_of(pun.page(upp)) != block);
        }
    }

    /// Walks the wrapping cursor over at most `*window` page positions
    /// and stops just past the first programmed one, which it returns;
    /// `*window` shrinks by the positions consumed. `None` means the
    /// whole window was erased (the cursor still moved across it).
    /// Erased pages cost nothing: the cursor jumps straight to the hit.
    pub(crate) fn next_scrub_page(&mut self, flash: &FlashArray, window: &mut u64) -> Option<Ppn> {
        let total = flash.geometry().total_pages();
        if total == 0 {
            return None;
        }
        let start = self.scrub_cursor % total;
        let hit = flash
            .next_programmed_from(Ppn(start))
            .map(|ppn| (ppn, (ppn.0 + total - start) % total))
            .filter(|&(_, skipped)| skipped < *window);
        let consumed = hit.map_or(*window, |(_, skipped)| skipped + 1);
        self.scrub_cursor = (start + consumed) % total;
        *window -= consumed;
        hit.map(|(ppn, _)| ppn)
    }

    /// Every mark was counted when it was made. (`detected ==
    /// quarantined + corrected` is not checked: the counter schema
    /// cannot represent anything else.)
    pub(crate) fn check_invariants(&self, counters: &CounterSet) -> Result<(), String> {
        let marks = self.quarantined.len() as u64;
        let detected = counters.total(Total::FtlIntegrityDetected);
        if marks <= detected {
            return Ok(());
        }
        Err(format!(
            "integrity ledger: {marks} units marked corrupt but only {detected} detections counted"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn marks_count_once_and_partition_by_reference() {
        let mut table = MappingTable::new();
        let _ = table.map(Lpn(0), Location::Flash(Pun(3)), |_| None);
        let mut ledger = IntegrityLedger::default();
        let mut c = CounterSet::new();
        assert_eq!(ledger.note_corrupt(Pun(3), &table, &mut c), Some(true));
        assert_eq!(ledger.note_corrupt(Pun(3), &table, &mut c), None);
        assert_eq!(ledger.note_corrupt(Pun(4), &table, &mut c), Some(false));
        assert!(ledger.is_quarantined(Pun(3)) && !ledger.is_quarantined(Pun(5)));
        assert_eq!(c.total(Total::FtlIntegrityDetected), 2);
        assert_eq!(c.get(Counter::FtlIntegrityQuarantined), 1);
        assert_eq!(c.get(Counter::FtlIntegrityCorrected), 1);

        // Destroying a marked unit does not detect it again; destroying
        // one first seen by the salvage scan does.
        ledger.record_destroyed(Pun(3), &mut c);
        ledger.record_destroyed(Pun(9), &mut c);
        assert_eq!(c.total(Total::FtlIntegrityDetected), 3);
        assert_eq!(c.get(Counter::FtlIntegrityUnrecoverable), 2);
        assert!(!ledger.is_quarantined(Pun(3)));

        // A loss SPOR finds keeps the mark a read made before the cut,
        // and makes (and counts) it when nobody had seen the damage.
        ledger.record_lost_at_rebuild(Pun(4), &mut c);
        ledger.record_lost_at_rebuild(Pun(7), &mut c);
        assert!(ledger.is_quarantined(Pun(4)) && ledger.is_quarantined(Pun(7)));
        assert_eq!(c.total(Total::FtlIntegrityDetected), 4);
        assert_eq!(c.get(Counter::FtlIntegrityQuarantined), 3);
        assert_eq!(c.get(Counter::FtlIntegrityUnrecoverable), 4);
        ledger.check_invariants(&c).unwrap();
    }

    #[test]
    fn block_marks_clear_together() {
        let g = FlashGeometry::small();
        let table = MappingTable::new();
        let mut ledger = IntegrityLedger::default();
        let mut c = CounterSet::new();
        let upp = 8;
        let in_block_1 = Pun::compose(g.ppn_in_block(BlockId(1), 2), 5, upp);
        let in_block_2 = Pun::compose(g.ppn_in_block(BlockId(2), 0), 0, upp);
        ledger.note_corrupt(in_block_1, &table, &mut c);
        ledger.note_corrupt(in_block_2, &table, &mut c);
        assert_eq!(ledger.marks_in_block(BlockId(1), &g, upp), 1);
        ledger.clear_block(BlockId(1), &g, upp);
        assert!(!ledger.is_quarantined(in_block_1));
        assert!(ledger.is_quarantined(in_block_2));
    }

    /// A scrub round driven by the skip-ahead cursor scans the same
    /// pages in the same order, and parks the cursor on the same page,
    /// as the page-at-a-time walk it replaced — on random array states,
    /// start positions and budgets.
    #[test]
    fn scrub_cursor_skip_ahead_matches_the_page_at_a_time_walk() {
        use checkin_flash::{FlashTiming, PageContent};
        use checkin_sim::SimTime;
        checkin_testkit::check("scrub_cursor_skip_ahead", 200, |rng| {
            let g = FlashGeometry::small();
            let total = g.total_pages();
            let mut flash = FlashArray::new(g, FlashTiming::mlc());
            let density = rng.range_u64(1, 8);
            for b in (0..g.total_blocks()).map(BlockId) {
                if rng.below(density) != 0 {
                    continue;
                }
                for p in 0..rng.range_u32(0, g.pages_per_block) {
                    flash
                        .program(g.ppn_in_block(b, p), PageContent::empty(8), SimTime::ZERO)
                        .unwrap();
                }
            }
            let start = rng.below(total);
            let budget = match rng.below(3) {
                0 => rng.range_u64(1, 8),
                1 => rng.range_u64(1, total),
                _ => total + rng.below(100),
            };

            let mut cursor = start;
            let mut naive = Vec::new();
            let mut visited = 0;
            while (naive.len() as u64) < budget.min(total) && visited < total {
                let ppn = Ppn(cursor % total);
                cursor = (ppn.0 + 1) % total;
                visited += 1;
                if flash.is_programmed(ppn) {
                    naive.push(ppn);
                }
            }

            let mut ledger = IntegrityLedger {
                scrub_cursor: start,
                ..IntegrityLedger::default()
            };
            let mut scanned = Vec::new();
            let mut unvisited = total;
            while (scanned.len() as u64) < budget {
                let Some(ppn) = ledger.next_scrub_page(&flash, &mut unvisited) else {
                    break;
                };
                scanned.push(ppn);
            }
            assert_eq!(scanned, naive);
            assert_eq!(ledger.scrub_cursor, cursor, "start {start} budget {budget}");
        });
    }

    #[test]
    fn invariant_reports_a_detection_nobody_accounted_for() {
        // A mark made behind the counters' back — the one way left to
        // have a detection without its quarantined-or-corrected count.
        let ledger = IntegrityLedger {
            quarantined: BTreeSet::from([Pun(1)]),
            ..IntegrityLedger::default()
        };
        let err = ledger.check_invariants(&CounterSet::new()).unwrap_err();
        assert!(
            err.contains("1 units marked corrupt but only 0 detections counted"),
            "{err}"
        );
    }
}
