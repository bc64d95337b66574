//! Getting blocks back: garbage collection, static wear leveling, block
//! retirement (all three salvage a block's still-referenced units the
//! same way), and the background scrubber that finds rot before a
//! foreground read does.

use checkin_flash::{BlockId, FlashError, OobKind, OpPhase, Ppn, UnitPayload};
use checkin_sim::{Counter, SimTime, TraceEvent, TraceLayer};

use super::Ftl;
use crate::error::{FtlError, IntegrityError};
use crate::location::{Location, Lpn, Pun};

/// Why a garbage-collection round was started. Each invocation is
/// counted under a per-trigger counter and recorded in the trace, which is
/// what makes GC cost attributable (foreground GC stalls host writes;
/// background and wear-leveling rounds run in idle windows).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GcTrigger {
    /// Free-block headroom ran out during allocation; the host write
    /// path is stalled behind this round.
    Foreground,
    /// Idle-window collection requested by the device front end.
    Background,
    /// Static wear-leveling migration of a cold block.
    WearLevel,
}

impl GcTrigger {
    /// Stable lowercase label (trace annotation).
    pub fn label(self) -> &'static str {
        match self {
            GcTrigger::Foreground => "foreground",
            GcTrigger::Background => "background",
            GcTrigger::WearLevel => "wear_level",
        }
    }

    /// Counter of rounds started by this trigger.
    pub fn counter(self) -> Counter {
        match self {
            GcTrigger::Foreground => Counter::FtlGcForeground,
            GcTrigger::Background => Counter::FtlGcBackground,
            GcTrigger::WearLevel => Counter::FtlGcWearLevel,
        }
    }
}

/// Outcome counts of one background scrub round ([`Ftl::scrub_round`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScrubReport {
    /// Programmed pages whose data units were verified this round.
    pub pages_scanned: u64,
    /// Detected units still referenced by the mapping table: the data is
    /// quarantined and reads of it fail with a typed error.
    pub quarantined: u64,
    /// Detected units no longer referenced (stale copies): no logical
    /// data was at risk, the mark only keeps GC from copying rot.
    pub corrected: u64,
}

impl ScrubReport {
    /// Units whose checksum mismatched and were newly marked corrupt:
    /// each is quarantined or corrected, never neither.
    pub fn detected(&self) -> u64 {
        self.quarantined + self.corrected
    }
}

impl Ftl {
    /// Spread between the most-erased in-service block and the coldest
    /// block still holding data.
    pub fn wear_delta(&self) -> u64 {
        self.pool.wear_delta(&self.flash)
    }

    /// Runs one static wear-leveling round if the wear skew exceeds the
    /// configured threshold: the *coldest* closed block (fewest erases)
    /// is migrated and erased, so its barely-worn cells rejoin the free
    /// pool while its long-lived data moves to hotter blocks. Returns
    /// `Ok(None)` when levelling is disabled, not needed, or no candidate
    /// exists.
    ///
    /// # Errors
    ///
    /// Propagates flash errors from the migration.
    pub fn run_wear_leveling_round(&mut self, at: SimTime) -> Result<Option<SimTime>, FtlError> {
        let Some(threshold) = self.config.wear_leveling_threshold else {
            return Ok(None);
        };
        if self.wear_delta() <= threshold {
            return Ok(None);
        }
        let Some(victim) = self.pool.coldest_closed(&self.flash) else {
            return Ok(None);
        };
        self.counters.incr(Counter::FtlWearLevelRounds);
        self.migrate_and_erase(victim, at, GcTrigger::WearLevel)
            .map(Some)
    }

    /// Runs one garbage-collection round: migrate the victim's valid units
    /// (preserving shared references), erase it, and return the finish
    /// time. Returns `Ok(None)` when no victim is reclaimable.
    ///
    /// # Errors
    ///
    /// Propagates flash errors (FTL bugs) and out-of-space conditions from
    /// the migration writes.
    pub fn run_gc_round(
        &mut self,
        at: SimTime,
        trigger: GcTrigger,
    ) -> Result<Option<SimTime>, FtlError> {
        let capacity = self.upp * self.flash.geometry().pages_per_block;
        let Some(victim) = self.pool.select_victim(capacity, &self.flash) else {
            return Ok(None);
        };
        self.migrate_and_erase(victim, at, trigger).map(Some)
    }

    fn migrate_and_erase(
        &mut self,
        victim: BlockId,
        at: SimTime,
        trigger: GcTrigger,
    ) -> Result<SimTime, FtlError> {
        self.counters.incr(Counter::FtlGcInvocations);
        self.counters.incr(trigger.counter());
        let moved_before = self.counters.get(Counter::FtlGcUnitsMoved);
        // All flash traffic below (migration reads, page-out programs,
        // the victim erase) is attributed to the GC phase, and page-outs
        // it causes must not start a nested round; the previous state is
        // restored on every exit path.
        self.in_gc = true;
        let result = self.in_phase(OpPhase::Gc, |ftl| ftl.migrate_and_erase_inner(victim, at));
        self.in_gc = false;
        let moved = self.counters.get(Counter::FtlGcUnitsMoved) - moved_before;
        self.tracer.emit(|| {
            TraceEvent::new(at, TraceLayer::Ftl, "gc")
                .tag(trigger.label())
                .with("victim", victim.0)
                .with("units_moved", moved)
                .with("ok", u64::from(result.is_ok()))
        });
        result
    }

    fn migrate_and_erase_inner(
        &mut self,
        victim: BlockId,
        at: SimTime,
    ) -> Result<SimTime, FtlError> {
        let g = *self.flash.geometry();
        let mut done = at;
        for page in 0..g.pages_per_block {
            let ppn = g.ppn_in_block(victim, page);
            let mut valid = self.salvage_page(ppn, at);
            let migrated = self.migrate_units(victim, ppn, &mut valid, at);
            self.scratch_valid = valid;
            done = done.max(migrated?);
        }
        debug_assert_eq!(self.pool.valid_units(victim), 0);
        // The erase may start once every valid unit is read and in the
        // capacitor-protected buffer (`done`), not when the pages they
        // were drained to finish programming. Persist the mapping log
        // before it so a later power cut never finds the persisted
        // snapshot pointing into an erased block.
        self.persist_mapping_log();
        match self.erase_with_retry(victim, done) {
            Ok(win) => {
                self.pool.recycle(victim);
                self.ledger.clear_block(victim, &g, self.upp);
                Ok(win.finish)
            }
            Err(FlashError::PowerLoss) => Err(FlashError::PowerLoss.into()),
            Err(_) => {
                // Grown defect, worn out, or retries exhausted: the block
                // cannot be recycled. It holds no valid units any more, so
                // retiring it is pure capacity loss, not data loss.
                self.take_out_of_service(victim);
                Ok(done)
            }
        }
    }

    /// Pays the timed read of page `ppn` and moves its salvaged `units`
    /// into the write buffer, paging out whenever that fills. Returns when
    /// the last unit is read and buffered, a writer like any other.
    fn migrate_units(
        &mut self,
        victim: BlockId,
        ppn: Ppn,
        units: &mut Vec<(u32, UnitPayload, Lpn)>,
        at: SimTime,
    ) -> Result<SimTime, FtlError> {
        if units.is_empty() {
            return Ok(at);
        }
        let mut done = self.read_with_retry(ppn, at)?.finish;
        for (offset, payload, primary) in units.drain(..) {
            self.rebuffer_unit(
                victim,
                Pun::compose(ppn, offset, self.upp),
                payload,
                primary,
            );
            self.counters.incr(Counter::FtlGcUnitsMoved);
            done = done.max(self.drain_to_watermark(at)?);
        }
        Ok(done)
    }

    /// Takes a block with a grown defect out of service: every unit still
    /// referenced by the table is salvaged back into the capacitor-backed
    /// write buffer (from where it re-drains to a healthy block), then the
    /// block is marked retired and counted in `ftl.blocks_retired`.
    pub(super) fn retire_block(&mut self, block: BlockId) {
        let g = *self.flash.geometry();
        for page in 0..self.flash.write_cursor(block) {
            let ppn = g.ppn_in_block(block, page);
            let mut valid = self.salvage_page(ppn, SimTime::ZERO);
            for (offset, payload, primary) in valid.drain(..) {
                self.rebuffer_unit(block, Pun::compose(ppn, offset, self.upp), payload, primary);
            }
            self.scratch_valid = valid;
        }
        debug_assert_eq!(self.pool.valid_units(block), 0);
        self.take_out_of_service(block);
    }

    fn take_out_of_service(&mut self, block: BlockId) {
        self.pool.retire(block);
        self.counters.incr(Counter::FtlBlocksRetired);
        self.ledger
            .clear_block(block, self.flash.geometry(), self.upp);
    }

    /// The salvage scan shared by GC migration and block retirement:
    /// collects page `ppn`'s still-referenced units that verify — as
    /// `(offset, payload, primary referrer)` in the reused scratch vector
    /// the caller hands back — and poisons the ones that do not.
    /// Relocating a unit re-seals its checksum, which would launder rot
    /// into a copy that verifies; a corrupt referenced unit is about to
    /// lose its only copy, so its loss is recorded instead.
    fn salvage_page(&mut self, ppn: Ppn, at: SimTime) -> Vec<(u32, UnitPayload, Lpn)> {
        let mut valid = std::mem::take(&mut self.scratch_valid);
        valid.clear();
        let mut corrupt: Vec<Pun> = Vec::new();
        let page = self.flash.read(ppn);
        for offset in 0..self.upp {
            let pun = Pun::compose(ppn, offset, self.upp);
            let Some(&primary) = self.table.referrers(Location::Flash(pun)).first() else {
                continue;
            };
            if self.config.verify_checksums
                && page.is_some_and(|pc| !pc.unit_intact(offset as usize))
            {
                corrupt.push(pun);
                continue;
            }
            let payload = page
                .and_then(|pc| pc.unit(offset as usize))
                .unwrap_or_default()
                .to_payload();
            valid.push((offset, payload, primary));
        }
        for pun in corrupt {
            self.poison_destroyed_unit(pun, at);
        }
        valid
    }

    /// Moves a salvaged unit of `block` back into the write buffer,
    /// keeping every referrer pointed at it.
    fn rebuffer_unit(&mut self, block: BlockId, pun: Pun, payload: UnitPayload, primary: Lpn) {
        let slot = self.new_slot(payload, primary, OobKind::GcCopy);
        let moved = self
            .table
            .relocate(Location::Flash(pun), Location::Buffer(slot));
        debug_assert!(moved > 0);
        self.pool.sub_valid(block);
    }

    /// A referenced-but-corrupt unit is about to be destroyed (its block
    /// erased by GC or retired): the logical data is unrecoverable. Every
    /// referrer is unmapped and poisoned so later reads report the loss
    /// with a typed error instead of "never written".
    fn poison_destroyed_unit(&mut self, pun: Pun, at: SimTime) {
        self.ledger.record_destroyed(pun, &mut self.counters);
        let referrers: Vec<Lpn> = self.table.referrers(Location::Flash(pun)).to_vec();
        for lpn in referrers {
            let u = self.table.unmap(lpn);
            self.note_unlink(u);
            self.ledger.poison(lpn);
        }
        self.tracer.emit(|| {
            TraceEvent::new(at, TraceLayer::Ftl, "integrity_unrecoverable")
                .with("page", pun.page(self.upp).0)
                .with("offset", u64::from(pun.offset(self.upp)))
        });
    }

    /// Foreground-read reaction to a corrupt unit: quarantine it, retire
    /// the surrounding block once enough of it has rotted (a page's worth
    /// of marks), and produce the typed error the read returns.
    pub(super) fn quarantine_and_report(&mut self, lpn: Lpn, pun: Pun) -> FtlError {
        let _ = self
            .ledger
            .note_corrupt(pun, &self.table, &mut self.counters);
        let block = self.block_of(pun);
        let marks = self
            .ledger
            .marks_in_block(block, self.flash.geometry(), self.upp);
        if self.pool.is_closed(block) && !self.in_gc && marks >= self.upp as usize {
            // The block is decaying wholesale: salvage what still
            // verifies and take it out of service.
            self.retire_block(block);
        }
        FtlError::Integrity(IntegrityError::CorruptUnit(lpn))
    }

    /// One background-scrub round: verifies the data-unit checksums of up
    /// to `max_pages` programmed pages, resuming from where the previous
    /// round stopped (the cursor wraps). Corrupt units are marked exactly
    /// like a failed foreground read — referenced copies quarantine (the
    /// next read fails fast with a typed error instead of serving rot),
    /// stale copies are merely fenced off from GC — but scrubbing never
    /// retires blocks itself; that decision stays on the foreground path.
    /// Returns the round's counts and the instant its last read finished
    /// (`at` when nothing was read).
    ///
    /// Runs entirely under [`OpPhase::Scrub`], so its flash reads are
    /// phase-tagged (`flash.read.scrub`) and never pollute the run/GC
    /// accounting. A no-op (and no flash traffic) when checksum
    /// verification is disabled.
    ///
    /// OOB records are *not* scrubbed here: rotted OOB metadata is only
    /// ever consumed by the SPOR scan, which re-verifies and rejects it
    /// at read time ([`Ftl::rebuild_after_power_loss`]).
    ///
    /// # Errors
    ///
    /// Propagates media failures of the scrub reads themselves (retry
    /// budget exhausted, power loss). Scrubbing is recovery-adjacent
    /// code: it must never panic (the crate denies clippy's panic lints).
    pub fn scrub_round(
        &mut self,
        at: SimTime,
        max_pages: u32,
    ) -> Result<(ScrubReport, SimTime), FtlError> {
        let mut report = ScrubReport::default();
        if !self.config.verify_checksums || max_pages == 0 {
            return Ok((report, at));
        }
        let out = self.in_phase(OpPhase::Scrub, |ftl| {
            ftl.scrub_pages(at, max_pages, &mut report)
        });
        self.counters.incr(Counter::FtlScrubRounds);
        self.tracer.emit(|| {
            TraceEvent::new(at, TraceLayer::Ftl, "scrub_round")
                .with("pages", report.pages_scanned)
                .with("detected", report.detected())
        });
        out.map(|finish| (report, finish))
    }

    /// The scan loop of [`Ftl::scrub_round`]: walks the wrapping cursor,
    /// pays a timed (phase-tagged) read per programmed page, each issued
    /// when the previous one is done, and verifies every occupied data
    /// unit. Returns when the last read finished.
    fn scrub_pages(
        &mut self,
        at: SimTime,
        max_pages: u32,
        report: &mut ScrubReport,
    ) -> Result<SimTime, FtlError> {
        let mut t = at;
        // One round visits each page position at most once.
        let mut unvisited = self.flash.geometry().total_pages();
        while report.pages_scanned < u64::from(max_pages) {
            let Some(ppn) = self.ledger.next_scrub_page(&self.flash, &mut unvisited) else {
                break;
            };
            let win = self.read_with_retry(ppn, t)?;
            t = win.finish;
            report.pages_scanned += 1;
            self.counters.incr(Counter::FtlScrubPages);
            // Verify the whole page under one borrow; marking (which needs
            // `&mut self`) happens after it ends. A healthy page collects
            // nothing, so the steady state stays allocation-free.
            let corrupt: Vec<u32> = match self.flash.read(ppn) {
                Some(pc) => (0..self.upp)
                    .filter(|&offset| !pc.unit_intact(offset as usize))
                    .collect(),
                None => Vec::new(),
            };
            for offset in corrupt {
                let pun = Pun::compose(ppn, offset, self.upp);
                let mark = self
                    .ledger
                    .note_corrupt(pun, &self.table, &mut self.counters);
                match mark {
                    Some(true) => report.quarantined += 1,
                    Some(false) => report.corrected += 1,
                    None => {}
                }
            }
        }
        Ok(t)
    }
}
