//! Getting blocks back: garbage collection, static wear leveling, block
//! retirement (all three salvage a block's still-referenced units the
//! same way), and the background scrubber that finds rot before a
//! foreground read does.

use checkin_flash::{BlockId, FlashError, OobKind, OpPhase, Ppn};
use checkin_sim::{Counter, Progress, SimTime, TraceEvent, TraceLayer};

use super::{Ftl, PageOut};
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

/// The garbage-collection round in execution, between the pump steps
/// that advance it: where its migration is, never a copy of what it
/// moves. A unit's payload is taken from the array when the unit moves,
/// so a round holds no buffer and allocates nothing.
#[derive(Debug, Clone, Copy)]
pub(super) struct GcRound {
    /// The block being collected.
    pub(super) victim: BlockId,
    trigger: GcTrigger,
    /// When the round began (the trace's instant).
    begun: SimTime,
    /// The instant the next step is due.
    next_at: SimTime,
    /// `ftl.gc_units_moved` when the round began.
    moved_before: u64,
    /// The victim's next page to look at for a referenced unit.
    next_page: u32,
    /// The page read in flight, and when it lands.
    reading: Option<(Ppn, SimTime)>,
    /// The landed page being moved, and its next unit.
    landed: Option<(Ppn, u32)>,
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

    /// Runs one static wear-leveling round if the wear skew exceeds
    /// [`Ftl::WEAR_LEVELING_THRESHOLD`]: the *coldest* closed block
    /// (fewest erases) is migrated and erased, so its barely-worn cells
    /// rejoin the free pool while its long-lived data moves to hotter
    /// blocks. Returns `Ok(None)` when levelling is not needed or no
    /// candidate exists. A round in flight is finished first.
    ///
    /// # Errors
    ///
    /// Propagates flash errors from the migration.
    pub fn run_wear_leveling_round(&mut self, at: SimTime) -> Result<Option<SimTime>, FtlError> {
        self.finish_gc_round()?;
        self.begin_wear_leveling_round(at)?;
        self.finish_gc_round()
    }

    /// Begins a static wear-leveling round at `at` when
    /// [`Ftl::run_wear_leveling_round`] would run one: a GC round whose
    /// victim is the coldest closed block. Returns when its first step
    /// is due, or `None` when no round was begun.
    ///
    /// # Errors
    ///
    /// [`FtlError::Inconsistent`] while a round is running.
    pub fn begin_wear_leveling_round(&mut self, at: SimTime) -> Result<Option<SimTime>, FtlError> {
        if self.wear_delta() <= Self::WEAR_LEVELING_THRESHOLD {
            return Ok(None);
        }
        let Some(victim) = self.pool.coldest_closed(&self.flash) else {
            return Ok(None);
        };
        let due = self.begin_round(victim, at, GcTrigger::WearLevel)?;
        self.counters.incr(Counter::FtlWearLevelRounds);
        Ok(Some(due))
    }

    /// Runs one garbage-collection round to its end: migrate the
    /// victim's valid units (preserving shared references), erase it,
    /// and return the erase's finish — [`Ftl::begin_gc_round`], then
    /// every [`Ftl::pump_gc`] step at the instant the one before asked
    /// for. A round already in flight is finished instead, and its end
    /// returned: no second victim is opened beside it. Returns
    /// `Ok(None)` when no victim is reclaimable.
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
        if self.gc.is_none() {
            self.begin_gc_round(at, trigger)?;
        }
        self.finish_gc_round()
    }

    /// Begins a garbage-collection round at `at`: selects the victim and
    /// counts the invocation under `trigger`. Its migration and erase
    /// are left to [`Ftl::pump_gc`] steps. Returns when the first step
    /// is due (`at`), or `None` when no victim is reclaimable.
    ///
    /// # Errors
    ///
    /// [`FtlError::Inconsistent`] while a round is running.
    pub fn begin_gc_round(
        &mut self,
        at: SimTime,
        trigger: GcTrigger,
    ) -> Result<Option<SimTime>, FtlError> {
        let capacity = self.upp * self.flash.geometry().pages_per_block;
        match self.pool.select_victim(capacity, &self.flash) {
            Some(victim) => self.begin_round(victim, at, trigger).map(Some),
            None => Ok(None),
        }
    }

    /// Takes `victim` into a new round at `at`, counted under `trigger`.
    fn begin_round(
        &mut self,
        victim: BlockId,
        at: SimTime,
        trigger: GcTrigger,
    ) -> Result<SimTime, FtlError> {
        if self.gc.is_some() {
            return Err(FtlError::Inconsistent("a GC round is already running"));
        }
        self.counters.incr(Counter::FtlGcInvocations);
        self.counters.incr(trigger.counter());
        self.gc = Some(GcRound {
            victim,
            trigger,
            begun: at,
            next_at: at,
            moved_before: self.counters.get(Counter::FtlGcUnitsMoved),
            next_page: 0,
            reading: None,
            landed: None,
        });
        Ok(at)
    }

    /// When the running GC round's next step is due; `None` when no
    /// round runs.
    pub fn gc_due(&self) -> Option<SimTime> {
        self.gc.map(|round| round.next_at)
    }

    /// One step of the running GC round at `now`, the instant the
    /// previous step asked for. It books only what can start at `now`:
    /// the read of the victim's next page holding a referenced unit,
    /// one read in flight; the move of a landed page's units that are
    /// still referenced into the write buffer, until a page-out waits
    /// for a programming slot, as a checkpoint's copy scatter does
    /// ([`Ftl::write_slotted`]); and, once every unit is moved, the
    /// mapping-log persist and the victim's erase. It asks again when
    /// the read in flight lands or the slot frees; the erase step ends
    /// the round, at the erase's finish. Foreground commands booked
    /// between two steps go first, and a unit overwritten or trimmed
    /// before its move is not moved. All its flash traffic is in
    /// [`OpPhase::Gc`]. The step that ends the round, or fails it,
    /// records one `gc` trace event at the round's begin, with its end
    /// as `end_ns`.
    ///
    /// # Errors
    ///
    /// [`FtlError::Inconsistent`] when no round is running; propagates
    /// flash errors and out-of-space conditions, after which the round
    /// is abandoned (its victim stays closed, with the units not yet
    /// moved).
    pub fn pump_gc(&mut self, now: SimTime) -> Result<Progress<SimTime>, FtlError> {
        let Some(mut round) = self.gc else {
            return Err(FtlError::Inconsistent("no GC round is running"));
        };
        debug_assert!(now >= round.next_at, "a GC step before it is due");
        let progress = self.in_phase(OpPhase::Gc, |ftl| ftl.gc_step(&mut round, now));
        let end = match progress {
            Ok(Progress::PumpAt(due)) => {
                self.gc = Some(GcRound {
                    next_at: due,
                    ..round
                });
                return progress;
            }
            Ok(Progress::Done(end)) => end,
            Err(_) => now,
        };
        self.gc = None;
        let moved = self.counters.get(Counter::FtlGcUnitsMoved) - round.moved_before;
        let ok = progress.is_ok();
        self.tracer.emit(|| {
            TraceEvent::new(round.begun, TraceLayer::Ftl, "gc")
                .tag(round.trigger.label())
                .with("victim", round.victim.0)
                .with("units_moved", moved)
                .with("ok", u64::from(ok))
                .with("end_ns", end.as_nanos())
        });
        progress
    }

    /// Runs the GC round in flight to its end, every step at the
    /// instant the one before asked for. Returns its end, or `None`
    /// when no round was running.
    ///
    /// # Errors
    ///
    /// As [`Ftl::pump_gc`].
    pub fn finish_gc_round(&mut self) -> Result<Option<SimTime>, FtlError> {
        self.gc_due()
            .map(|due| Progress::PumpAt(due).finish(|now| self.pump_gc(now)))
            .transpose()
    }

    /// `round`'s step at `now` ([`Ftl::pump_gc`]): a read that landed
    /// becomes the page to move, a read is kept in flight while a valid
    /// page is left, and the landed page's units move; with none left,
    /// the victim is erased.
    fn gc_step(
        &mut self,
        round: &mut GcRound,
        now: SimTime,
    ) -> Result<Progress<SimTime>, FtlError> {
        loop {
            if round.landed.is_none() {
                if let Some((ppn, _)) = round.reading.filter(|&(_, lands)| lands <= now) {
                    round.landed = Some((ppn, 0));
                    round.reading = None;
                }
            }
            if round.reading.is_none() {
                if let Some(ppn) = self.next_valid_page(round) {
                    round.reading = Some((ppn, self.read_with_retry(ppn, now)?.finish));
                }
            }
            match (round.landed, round.reading) {
                (Some((ppn, offset)), _) => {
                    match self.move_units(round.victim, ppn, offset, now)? {
                        Some((next, slot)) => {
                            round.landed = Some((ppn, next));
                            return Ok(Progress::PumpAt(slot));
                        }
                        None => round.landed = None,
                    }
                }
                (None, Some((_, lands))) => return Ok(Progress::PumpAt(lands)),
                (None, None) => return self.erase_victim(round.victim, now).map(Progress::Done),
            }
        }
    }

    /// The victim's next page from the round's cursor on that holds a
    /// referenced unit, advancing the cursor past it. A page passed over
    /// never gains one: the victim is closed, and a remap aliases only
    /// what the table maps.
    fn next_valid_page(&self, round: &mut GcRound) -> Option<Ppn> {
        let g = self.flash.geometry();
        while round.next_page < g.pages_per_block {
            let ppn = g.ppn_in_block(round.victim, round.next_page);
            round.next_page += 1;
            let referenced = (0..self.upp).any(|offset| {
                let pun = Pun::compose(ppn, offset, self.upp);
                self.table.is_referenced(Location::Flash(pun))
            });
            if referenced {
                return Some(ppn);
            }
        }
        None
    }

    /// Moves the units of the landed page `ppn` of `victim`, from
    /// `offset` on, that are still referenced into the write buffer at
    /// `now`, paging out whenever it reaches its watermark. Stops after
    /// the first page-out that waited for a programming slot, returning
    /// the next offset and when the slot frees; `None` once the page is
    /// done.
    fn move_units(
        &mut self,
        victim: BlockId,
        ppn: Ppn,
        offset: u32,
        now: SimTime,
    ) -> Result<Option<(u32, SimTime)>, FtlError> {
        for offset in offset..self.upp {
            if !self.salvage_unit(victim, Pun::compose(ppn, offset, self.upp), now) {
                continue;
            }
            self.counters.incr(Counter::FtlGcUnitsMoved);
            let slot = self.drain_to_watermark(now, PageOut::InGc)?;
            if slot > now {
                return Ok(Some((offset + 1, slot)));
            }
        }
        Ok(None)
    }

    /// The last step of a round: every unit of `victim` is read and in
    /// the capacitor-protected buffer by `now`, so its erase may start,
    /// without waiting for the pages they were drained to. Persists the
    /// mapping log before it so a later power cut never finds the
    /// persisted snapshot pointing into an erased block. Returns the
    /// erase's finish.
    fn erase_victim(&mut self, victim: BlockId, now: SimTime) -> Result<SimTime, FtlError> {
        debug_assert_eq!(self.pool.valid_units(victim), 0);
        self.persist_mapping_log();
        match self.erase_with_retry(victim, now) {
            Ok(win) => {
                self.pool.recycle(victim);
                self.ledger
                    .clear_block(victim, self.flash.geometry(), self.upp);
                Ok(win.finish)
            }
            Err(FlashError::PowerLoss) => Err(FlashError::PowerLoss.into()),
            Err(_) => {
                // Grown defect, worn out, or retries exhausted: the block
                // cannot be recycled. It holds no valid units any more, so
                // retiring it is pure capacity loss, not data loss.
                self.take_out_of_service(victim);
                Ok(now)
            }
        }
    }

    /// Takes a block with a grown defect out of service: every unit still
    /// referenced by the table is salvaged back into the capacitor-backed
    /// write buffer (from where it re-drains to a healthy block), then the
    /// block is marked retired and counted in `ftl.blocks_retired`.
    pub(super) fn retire_block(&mut self, block: BlockId) {
        let g = *self.flash.geometry();
        for page in 0..self.flash.write_cursor(block) {
            let ppn = g.ppn_in_block(block, page);
            for offset in 0..self.upp {
                self.salvage_unit(block, Pun::compose(ppn, offset, self.upp), SimTime::ZERO);
            }
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

    /// The salvage shared by GC migration and block retirement: moves
    /// unit `pun` of `block` back into the write buffer, keeping every
    /// referrer pointed at it, when it is still referenced and verifies,
    /// and poisons it when it is referenced and does not. Relocating a
    /// unit re-seals its checksum, which would launder rot into a copy
    /// that verifies; a corrupt referenced unit is about to lose its
    /// only copy, so its loss is recorded instead. Returns whether the
    /// unit moved.
    fn salvage_unit(&mut self, block: BlockId, pun: Pun, at: SimTime) -> bool {
        let unit = Location::Flash(pun);
        if !self.table.is_referenced(unit) {
            return false;
        }
        let own = self.own_lpn(unit);
        let Some(&primary) = self.table.referrers(unit, own.as_ref()).first() else {
            return false;
        };
        let offset = pun.offset(self.upp) as usize;
        let page = self.flash.read(pun.page(self.upp));
        if self.config.verify_checksums && page.is_some_and(|pc| !pc.unit_intact(offset)) {
            self.poison_destroyed_unit(pun, at);
            return false;
        }
        let payload = page
            .and_then(|pc| pc.unit(offset))
            .unwrap_or_default()
            .to_payload();
        let slot = self.new_slot(payload, primary, OobKind::GcCopy);
        // The copy is written under its first referrer.
        let owns = |loc| if loc == unit { own } else { Some(primary) };
        let moved = self.table.relocate(unit, Location::Buffer(slot), owns);
        debug_assert!(moved > 0);
        self.pool.sub_valid(block);
        true
    }

    /// A referenced-but-corrupt unit is about to be destroyed (its block
    /// erased by GC or retired): the logical data is unrecoverable. Every
    /// referrer is unmapped and poisoned so later reads report the loss
    /// with a typed error instead of "never written".
    fn poison_destroyed_unit(&mut self, pun: Pun, at: SimTime) {
        self.ledger.record_destroyed(pun, &mut self.counters);
        let own = self.own_lpn(Location::Flash(pun));
        let referrers: Vec<Lpn> = self
            .table
            .referrers(Location::Flash(pun), own.as_ref())
            .to_vec();
        for lpn in referrers {
            let (table, own) = self.table_mut();
            let u = table.unmap(lpn, own);
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
        let collecting = self.gc.is_some_and(|round| round.victim == block);
        if self.pool.is_closed(block) && !collecting && marks >= self.upp as usize {
            // The block is decaying wholesale: salvage what still
            // verifies and take it out of service. A GC round's victim
            // is left to its round, which salvages it the same way.
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
