//! The flash translation layer.
//!
//! Responsibilities:
//!
//! * translate logical-unit writes into page programs through a
//!   power-protected write buffer that packs `units_per_page` sub-units
//!   into each NAND program (the paper's sub-page mapping, §III-D);
//! * serve the **remap** primitive that Check-In's checkpoint processor
//!   uses: make a data-area LPN alias the physical unit already written by
//!   journaling, so a checkpoint costs a mapping update instead of a copy;
//! * reclaim space with garbage collection, migrating valid units and
//!   preserving sharing;
//! * account every statistic the paper's evaluation needs (host vs flash
//!   bytes, invalid-unit generation, GC invocations, RMW operations).
//!
//! [`Ftl`] composes four components, each owning its state and its slice
//! of [`Ftl::check_invariants`] — the write buffer (`write_buffer`),
//! block lifecycle and placement (`block_pool`), the integrity ledger
//! (`ledger`) and the persisted mapping log (`persist`) — and keeps the
//! orchestration that needs several of them: the host path here,
//! reclamation and scrubbing in `reclaim`, the power-loss rebuild in
//! `rebuild`.

mod rebuild;
mod reclaim;

use checkin_flash::{
    BlockId, ErrorClass, FlashArray, FlashError, ForegroundRead, Fragment, OobEntry, OobKind,
    OpPhase, PageContent, Ppn, UnitPayload, UnitRef,
};
use checkin_sim::{
    Counter, CounterSet, InFlight, SimDuration, SimTime, Total, TraceEvent, TraceLayer, Tracer,
    Window,
};

use crate::block_pool::BlockPool;
use crate::config::{FtlConfig, MediaRetryPolicy};
use crate::error::{FtlConfigError, FtlError, IntegrityError};
use crate::ledger::IntegrityLedger;
use crate::location::{BufSlot, Location, Lpn, Pun};
use crate::map_cache::MapCacheModel;
use crate::mapping::{MappingTable, Unlink};
use crate::persist::MapPersistence;
use crate::write_buffer::{SlotData, WriteBuffer};

pub use rebuild::{OobScan, RebuildStats};
pub use reclaim::{GcTrigger, ScrubReport};

/// One logical-unit write request.
#[derive(Debug, Clone)]
pub struct UnitWrite {
    /// Destination logical unit.
    pub lpn: Lpn,
    /// New content for (part of) the unit.
    pub payload: UnitPayload,
    /// True when the write covers the whole mapping unit. Partial writes
    /// trigger a read-modify-write merge with the unit's old content.
    pub whole_unit: bool,
}

/// The flash pages one command has sensed so far, each with the instant
/// its one sense and channel transfer finished.
///
/// The caller of [`Ftl::read_span_into`] owns it and decides how far "one
/// command" reaches: a host read clears it per request, a checkpoint's
/// gather phase keeps it across the whole batch. Every read sharing one
/// set is issued at the same instant and nothing is programmed or erased
/// in between, so a page found here is still what the controller holds.
#[derive(Debug, Default)]
pub struct SensedPages {
    /// `(page, finish of its sense)`, sorted by page.
    pages: Vec<(Ppn, SimTime)>,
}

impl SensedPages {
    /// Forgets every page, keeping the allocation: the next command
    /// starts with nothing sensed.
    pub fn clear(&mut self) {
        self.pages.clear();
    }

    /// When `ppn`'s data is in the controller: the recorded finish if
    /// this command sensed the page already, else that of `sense`, run
    /// now and remembered. A failed sense records nothing.
    fn finish_of(
        &mut self,
        ppn: Ppn,
        sense: impl FnOnce() -> Result<SimTime, FlashError>,
    ) -> Result<SimTime, FlashError> {
        let at = self.pages.partition_point(|&(page, _)| page < ppn);
        match self.pages.get(at) {
            Some(&(page, finish)) if page == ppn => Ok(finish),
            _ => {
                let finish = sense()?;
                self.pages.insert(at, (ppn, finish));
                Ok(finish)
            }
        }
    }
}

/// The flash translation layer over a [`FlashArray`].
///
/// # Examples
///
/// ```
/// use checkin_flash::{FlashArray, FlashGeometry, FlashTiming, OobKind, UnitPayload};
/// use checkin_ftl::{Ftl, FtlConfig, Lpn, UnitWrite};
/// use checkin_sim::SimTime;
///
/// let flash = FlashArray::new(FlashGeometry::small(), FlashTiming::mlc());
/// let mut ftl = Ftl::new(flash, FtlConfig { unit_bytes: 512, write_points: 2, ..FtlConfig::default() }).unwrap();
/// let w = UnitWrite { lpn: Lpn(0), payload: UnitPayload::single(9, 1, 512), whole_unit: true };
/// ftl.write(w, OobKind::Data, SimTime::ZERO)?;
/// let (payload, _done) = ftl.read(Lpn(0), SimTime::ZERO)?;
/// assert_eq!(payload.fragments[0].key, 9);
/// # Ok::<(), checkin_ftl::FtlError>(())
/// ```
#[derive(Debug)]
pub struct Ftl {
    config: FtlConfig,
    upp: u32,
    flash: FlashArray,
    table: MappingTable,
    map_cache: MapCacheModel,
    counters: CounterSet,
    /// Global write sequence: stamps every buffered unit's OOB record.
    seq: u64,
    in_gc: bool,
    /// Structured trace sink (no-op unless enabled).
    tracer: Tracer,
    /// Reusable buffers for the page-out and GC loops (no per-page
    /// allocation in steady state). A stack rather than a single buffer:
    /// GC triggered inside `drain_one_page` re-enters `drain_one_page`
    /// for the migrated units, so up to two invocations are live at
    /// once and each needs its own scratch vector.
    scratch_batches: Vec<Vec<BufSlot>>,
    scratch_valid: Vec<(u32, UnitPayload, Lpn)>,
    /// The one page being staged for a program. `drain_one_page` fills
    /// it only after block allocation — where GC re-enters — is over,
    /// and hands it back on every path, so a single page suffices.
    staging: PageContent,
    buffer: WriteBuffer,
    /// The write buffer's programming slots, one per write point: a
    /// page-out holds one until its program finishes, and a writer whose
    /// unit needs a page-out while all are held waits for the first to
    /// free (DESIGN.md §4, "Writes").
    programs: InFlight,
    pool: BlockPool,
    ledger: IntegrityLedger,
    /// Only maintained under fault injection.
    persist: MapPersistence,
}

// The shard fleet will move this across threads: a field that is not
// `Send` (an `Rc`, say) is a build error here.
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<Ftl>();
};

impl Ftl {
    /// Wraps a flash array with translation state.
    ///
    /// # Errors
    ///
    /// Names the field of `config` that is inconsistent with the array's
    /// geometry.
    pub fn new(flash: FlashArray, config: FtlConfig) -> Result<Self, FtlConfigError> {
        let g = *flash.geometry();
        config.validate(g.page_bytes, g.total_blocks())?;
        let upp = config.units_per_page(g.page_bytes);
        Ok(Ftl {
            upp,
            map_cache: MapCacheModel::with_capacity(config.map_cache_entries),
            // Pre-reserve the forward array for the physical unit count:
            // the host LPN space in steady state tracks the device size.
            table: MappingTable::with_capacity(g.total_pages() * upp as u64),
            counters: CounterSet::new(),
            seq: 0,
            in_gc: false,
            tracer: Tracer::disabled(),
            scratch_batches: Vec::new(),
            scratch_valid: Vec::new(),
            staging: PageContent::default(),
            buffer: WriteBuffer::default(),
            programs: InFlight::new(config.write_points as usize),
            pool: BlockPool::new(&g, config.write_points),
            ledger: IntegrityLedger::default(),
            persist: MapPersistence::default(),
            config,
            flash,
        })
    }

    /// Installs a trace sink on this layer and the flash array below it.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.flash.set_tracer(tracer.clone());
        self.tracer = tracer;
    }

    /// Mapping unit size in bytes.
    pub fn unit_bytes(&self) -> u32 {
        self.config.unit_bytes
    }

    /// Units per physical page.
    pub fn units_per_page(&self) -> u32 {
        self.upp
    }

    /// The underlying flash array (stats, geometry).
    pub fn flash(&self) -> &FlashArray {
        &self.flash
    }

    /// Mutable access to the flash array (power-fail injection in tests).
    pub fn flash_mut(&mut self) -> &mut FlashArray {
        &mut self.flash
    }

    /// Promises that no later operation is issued at an instant before
    /// `t`, so the flash timelines can forget what is over by then
    /// ([`FlashArray::retire_before`]).
    pub fn retire_before(&mut self, t: SimTime) {
        self.flash.retire_before(t);
    }

    /// Runs `f` with the array's [`OpPhase`] set to `phase` (flash
    /// traffic is counted, and fault-clock ticks are labelled, under it)
    /// and restores the previous phase however `f` returns, so brackets
    /// nest: GC inside a checkpoint copy comes back to the copy.
    pub(crate) fn in_phase<R>(&mut self, phase: OpPhase, f: impl FnOnce(&mut Self) -> R) -> R {
        let prev = self.flash.set_op_phase(phase);
        let out = f(self);
        self.flash.set_op_phase(prev);
        out
    }

    /// FTL configuration in effect.
    pub fn config(&self) -> &FtlConfig {
        &self.config
    }

    /// FTL counters (`ftl.*`), separate from the flash array's.
    pub fn counters(&self) -> &CounterSet {
        &self.counters
    }

    /// Live mapping entries (drives the map-cache cost model).
    pub fn live_entries(&self) -> u64 {
        self.table.live_entries() as u64
    }

    /// The mapping-table cache model in effect.
    pub fn map_cache(&self) -> &MapCacheModel {
        &self.map_cache
    }

    /// Expected firmware cost, right now, of one command's walk over
    /// `units` mapping entries that lie in `segments` distinct segments
    /// ([`MapCacheModel::walk_cost`]).
    pub fn map_walk_cost(&self, units: u64, segments: u64) -> SimDuration {
        self.map_cache
            .walk_cost(self.live_entries(), units, segments)
    }

    /// Blocks currently in the free pool.
    pub fn free_block_count(&self) -> usize {
        self.pool.free_count()
    }

    /// True if the free pool is at or below the soft (background) GC
    /// threshold.
    pub fn wants_background_gc(&self) -> bool {
        self.pool.free_count() <= self.config.gc_soft_threshold_blocks as usize
    }

    /// Write-amplification factor: flash bytes programmed over host bytes
    /// written (including RMW and GC traffic). Zero before any host write.
    pub fn waf(&self) -> f64 {
        let host = self.counters.get(Counter::FtlHostBytes);
        if host == 0 {
            return 0.0;
        }
        let programmed = self.flash.counters().total(Total::FlashProgram)
            * self.flash.geometry().page_bytes as u64;
        programmed as f64 / host as f64
    }

    /// True when `lpn` currently maps to something.
    pub fn is_mapped(&self, lpn: Lpn) -> bool {
        self.table.lookup(lpn).is_some()
    }

    /// Current location of `lpn` (diagnostics).
    pub fn location_of(&self, lpn: Lpn) -> Option<Location> {
        self.table.lookup(lpn)
    }

    /// The flash page holding `lpn`'s current copy; `None` while the unit
    /// is unmapped or still buffered (diagnostics).
    pub fn flash_page_of(&self, lpn: Lpn) -> Option<Ppn> {
        match self.table.lookup(lpn)? {
            Location::Flash(pun) => Some(pun.page(self.upp)),
            Location::Buffer(_) => None,
        }
    }

    /// Iterates `(lpn, location)` over the whole table (recovery scans).
    pub fn mapping_iter(&self) -> impl Iterator<Item = (Lpn, Location)> + '_ {
        self.table.iter()
    }

    fn block_of(&self, pun: Pun) -> BlockId {
        self.flash.geometry().block_of(pun.page(self.upp))
    }

    fn note_unlink(&mut self, u: Unlink) {
        match u {
            Unlink::Orphaned(Location::Flash(pun)) => {
                self.pool.sub_valid(self.block_of(pun));
                self.counters.incr(Counter::FtlInvalidUnits);
            }
            // The old copy never reached flash.
            Unlink::Orphaned(Location::Buffer(slot)) => self.buffer.discard(slot),
            Unlink::StillReferenced(_) | Unlink::NotMapped => {}
        }
    }

    /// Buffers one unit under the next write-sequence number and queues
    /// it for page-out.
    fn new_slot(&mut self, payload: UnitPayload, lpn: Lpn, kind: OobKind) -> BufSlot {
        self.seq += 1;
        let oob = OobEntry {
            lpn: lpn.0,
            sequence: self.seq,
            kind,
        };
        self.buffer.enqueue(SlotData { payload, oob })
    }

    /// Writes one logical unit. Partial writes merge with existing content
    /// (read-modify-write); the RMW read is charged to flash timing when
    /// the old copy is on flash.
    ///
    /// Returns the acknowledgement instant: the unit is durable once it
    /// is in the power-protected buffer. That is `at` (or the RMW read's
    /// finish), unless the unit pushes the buffer to its watermark while
    /// every write point already has a page programming — then the write
    /// waits until the first of those programs finishes and frees a slot
    /// for the page-out, never for its own page's program.
    ///
    /// # Errors
    ///
    /// Propagates [`FtlError::OutOfSpace`] when a required program cannot
    /// allocate a block.
    pub fn write(&mut self, w: UnitWrite, kind: OobKind, at: SimTime) -> Result<SimTime, FtlError> {
        self.flash.logical_tick()?;
        self.counters.incr(Counter::FtlHostUnitWrites);
        self.counters
            .add(Counter::FtlHostBytes, w.payload.bytes() as u64);
        let mut done = at;

        let payload = if w.whole_unit {
            w.payload
        } else {
            // Read-modify-write merge with the old unit content.
            match self.table.lookup(w.lpn) {
                None => w.payload,
                Some(Location::Buffer(slot)) => {
                    let old = self
                        .buffer
                        .data(slot)
                        .ok_or(FtlError::Inconsistent("mapped buffer slot is empty"))?;
                    merge_payload((&old.payload).into(), &w.payload)
                }
                Some(Location::Flash(pun)) => {
                    // A partial write merging with a corrupt old copy
                    // would launder rot into a freshly-checksummed unit:
                    // fail the write instead.
                    if self.ledger.is_quarantined(pun) {
                        return Err(FtlError::Integrity(IntegrityError::CorruptUnit(w.lpn)));
                    }
                    self.counters.incr(Counter::FtlRmwReads);
                    let (merged, finish) = self.read_flash_unit(w.lpn, pun, at, None, |old| {
                        merge_payload(old, &w.payload)
                    })?;
                    done = done.max(finish);
                    merged
                }
            }
        };

        let slot = self.new_slot(payload, w.lpn, kind);
        let prev = self.table.map(w.lpn, Location::Buffer(slot));
        self.note_unlink(prev);
        self.ledger.clear_poison(w.lpn);

        let slot = self.drain_to_watermark(at)?;
        if slot > done {
            self.counters.incr(Counter::FtlBufferSlotWaits);
            self.counters.add(
                Counter::FtlBufferSlotWaitNs,
                slot.duration_since(done).as_nanos(),
            );
            done = slot;
        }
        Ok(done)
    }

    /// Reads one logical unit. Returns its content and the completion
    /// instant (equal to `at` for buffer hits). One unit, one sense: the
    /// page-sharing read is [`Ftl::read_span_into`].
    ///
    /// # Errors
    ///
    /// [`FtlError::Unmapped`] when the unit has never been written;
    /// [`FtlError::Integrity`] when its flash copy fails checksum
    /// verification (quarantined) or was destroyed while corrupt
    /// (poisoned).
    pub fn read(&mut self, lpn: Lpn, at: SimTime) -> Result<(UnitPayload, SimTime), FtlError> {
        self.read_unit(lpn, at, None, |unit| unit.to_payload())
    }

    /// Reads the `units` logical units from `first` on as one command
    /// issued at `at`, appending their fragments — filtered by `key` when
    /// given — to `out` without cloning a payload, and returns when the
    /// last of them is in the controller (`at` when none needed flash).
    ///
    /// Each unit is looked up, fails fast when poisoned or quarantined
    /// and is checksum-verified on its own, exactly as [`Ftl::read`] does
    /// it; never-written units are skipped (a zero-fill read). What the
    /// span shares is the media operation: a flash page is sensed once
    /// per `sensed` set — one tR, one page transfer, one fault-clock
    /// tick, one `flash.read.*` count — and every unit it holds completes
    /// at that one window's finish.
    ///
    /// # Errors
    ///
    /// The first [`FtlError::Integrity`] or media failure met, in unit
    /// order; `out` keeps the fragments of the units before it.
    pub fn read_span_into(
        &mut self,
        first: Lpn,
        units: u64,
        at: SimTime,
        key: Option<u64>,
        sensed: &mut SensedPages,
        out: &mut Vec<Fragment>,
    ) -> Result<SimTime, FtlError> {
        let mut done = at;
        for lpn in (first.0..first.0.saturating_add(units)).map(Lpn) {
            let take = |unit: UnitRef<'_>| {
                out.extend(unit.iter().filter(|f| key.is_none_or(|k| k == f.key)));
            };
            match self.read_unit(lpn, at, Some(sensed), take) {
                Ok(((), finish)) => done = done.max(finish),
                Err(FtlError::Unmapped(_)) => {}
                Err(e) => return Err(e),
            }
        }
        Ok(done)
    }

    /// The host read path: look the unit up, fail fast on a poisoned lpn
    /// or quarantined copy, and hand the payload — from the buffer, or
    /// from flash once read and verified — to `take`.
    fn read_unit<R>(
        &mut self,
        lpn: Lpn,
        at: SimTime,
        sensed: Option<&mut SensedPages>,
        take: impl FnOnce(UnitRef<'_>) -> R,
    ) -> Result<(R, SimTime), FtlError> {
        self.counters.incr(Counter::FtlHostUnitReads);
        match self.table.lookup(lpn) {
            None if self.ledger.is_poisoned(lpn) => {
                Err(FtlError::Integrity(IntegrityError::Poisoned(lpn)))
            }
            None => Err(FtlError::Unmapped(lpn)),
            Some(Location::Buffer(slot)) => {
                let data = self
                    .buffer
                    .data(slot)
                    .ok_or(FtlError::Inconsistent("mapped buffer slot is empty"))?;
                Ok((take((&data.payload).into()), at))
            }
            Some(Location::Flash(pun)) if self.ledger.is_quarantined(pun) => {
                Err(FtlError::Integrity(IntegrityError::CorruptUnit(lpn)))
            }
            Some(Location::Flash(pun)) => self.read_flash_unit(lpn, pun, at, sensed, take),
        }
    }

    /// When `ppn` is in the controller for a read issued at `at`. A
    /// foreground read — one a host waits on, issued in [`OpPhase::Run`]:
    /// a `get` or a read-modify-write merge — goes ahead of the die's
    /// latest program while that program's finish is private
    /// ([`FlashArray::read_ahead_of_programs`]): it is in the programming
    /// slot window once per page that finishes with it, and no admission
    /// or `flush` has consumed it. The window then follows the program to
    /// its new finish. Every other read is
    /// [`FlashArray::schedule_read`].
    fn sense(&mut self, ppn: Ppn, at: SimTime) -> Result<SimTime, FlashError> {
        if self.flash.op_phase() != OpPhase::Run {
            return Ok(self.read_with_retry(ppn, at)?.finish);
        }
        let retry = (self.config.retry_read, self.flash.timing().t_read);
        let programs = &self.programs;
        let read = Self::retry_transient(
            &mut self.flash,
            &mut self.counters,
            retry,
            Counter::FtlRetryExhaustedRead,
            at,
            |flash, t| {
                flash
                    .read_ahead_of_programs(ppn, t, |finish, pages| programs.movable(finish, pages))
            },
        )?;
        match read {
            // Only a first attempt can find the page still programming:
            // a retry comes later, when it still does not.
            ForegroundRead::Programming => {
                self.counters.incr(Counter::FtlProgrammingPageReads);
                Ok(at)
            }
            ForegroundRead::Sensed { window, moved } => {
                if let Some(m) = moved {
                    self.programs.move_completions(m.from, m.to, m.pages);
                }
                Ok(window.finish)
            }
        }
    }

    /// Timed read of `lpn`'s flash copy at `pun`: its page is sensed now,
    /// or was by an earlier unit of the same command when `sensed` says
    /// so. One borrow of the page serves both the checksum check and
    /// `take`; a unit that fails verification is quarantined (retiring
    /// its block if that is decaying wholesale) and reported as a typed
    /// error.
    fn read_flash_unit<R>(
        &mut self,
        lpn: Lpn,
        pun: Pun,
        at: SimTime,
        sensed: Option<&mut SensedPages>,
        take: impl FnOnce(UnitRef<'_>) -> R,
    ) -> Result<(R, SimTime), FtlError> {
        let ppn = pun.page(self.upp);
        let finish = match sensed {
            Some(sensed) => sensed.finish_of(ppn, || self.sense(ppn, at))?,
            None => self.sense(ppn, at)?,
        };
        let offset = pun.offset(self.upp) as usize;
        let page = self.flash.read(ppn);
        if self.config.verify_checksums && page.is_some_and(|pc| !pc.unit_intact(offset)) {
            return Err(self.quarantine_and_report(lpn, pun));
        }
        let stored = page.and_then(|pc| pc.unit(offset));
        debug_assert!(
            stored.is_some(),
            "mapped unit {lpn} -> {pun} has no flash content (erased while referenced?)"
        );
        Ok((take(stored.unwrap_or_default()), finish))
    }

    /// The remap primitive: make `dst` reference the same physical copy as
    /// `src` (checkpoint by copy-on-write, Algorithm 1's
    /// `MapToTarget` step). No flash traffic; only mapping metadata.
    ///
    /// # Errors
    ///
    /// [`FtlError::Unmapped`] when `src` has no mapping.
    pub fn remap(&mut self, dst: Lpn, src: Lpn) -> Result<(), FtlError> {
        self.flash.logical_tick()?;
        let prev = self.table.alias(dst, src).map_err(FtlError::Unmapped)?;
        if matches!(prev, Unlink::Orphaned(Location::Buffer(_))) {
            // Metadata before data discard, as in `deallocate`: the slot
            // is the only copy of `dst`'s acknowledged data, and a cut
            // before the remap is persisted must not bring `dst` back on
            // the older copy the last mapping log names.
            self.persist_mapping_log();
        }
        self.note_unlink(prev);
        self.ledger.clear_poison(dst);
        self.counters.incr(Counter::FtlRemapOps);
        Ok(())
    }

    /// Removes `lpn`'s mapping (deallocate/trim). Returns true when a
    /// mapping existed.
    pub fn deallocate(&mut self, lpn: Lpn) -> bool {
        // A power cut on this tick silently drops the trim: the device is
        // off and the caller observes the loss on its next fallible op.
        if self.flash.logical_tick().is_err() {
            return false;
        }
        let u = self.table.unmap(lpn);
        let existed = u != Unlink::NotMapped;
        if matches!(u, Unlink::Orphaned(Location::Buffer(_))) {
            // Metadata-before-data-discard: a buffered unit never reached
            // flash, so the capacitor-backed slot is its only copy and it
            // has no OOB record. Persist the unmapping before the slot is
            // destroyed — otherwise a post-cut rebuild resolves the stale
            // mapping-log entry to nothing and leaves a one-unit hole in a
            // zone whose neighbours all resurrect, which breaks the
            // engine's journal-scan recovery (a trimmed tombstone vanishes
            // while the older value it deleted survives).
            self.persist_mapping_log();
        }
        self.note_unlink(u);
        // Trimming a poisoned lpn acknowledges the loss: the caller no
        // longer wants the data, so the loss record clears too.
        self.ledger.clear_poison(lpn);
        if existed {
            self.counters.incr(Counter::FtlDeallocations);
        }
        existed
    }

    /// Pads and programs every buffered unit, and returns when everything
    /// acknowledged so far is on flash: the latest program finish on
    /// record — its own page-outs' or one an earlier write was
    /// acknowledged ahead of — or `at` when none lies later. The answer
    /// depends on every program in flight, so no read moves one after.
    ///
    /// # Errors
    ///
    /// Propagates allocation failures.
    pub fn flush(&mut self, at: SimTime) -> Result<SimTime, FtlError> {
        while self.buffer.queued() > 0 {
            self.drain_one_page(at)?;
        }
        Ok(self.programs.wait_all().map_or(at, |last| last.max(at)))
    }

    /// Pages out buffered units while the buffer holds at least its
    /// watermark, oldest first, and returns when the writer may go on:
    /// when the last page-out got its programming slot.
    fn drain_to_watermark(&mut self, at: SimTime) -> Result<SimTime, FtlError> {
        let mut slot = at;
        while self.buffer.queued() >= self.config.write_buffer_units as usize {
            slot = slot.max(self.drain_one_page(at)?);
        }
        Ok(slot)
    }

    /// Programs the oldest page's worth of buffered units at `at` and
    /// returns when the page-out's programming slot was free: `at` while
    /// fewer than `write_points` programs are in flight then, else the
    /// first of their finishes. The page then holds the slot until its own
    /// program finishes. A page-out that programmed nothing (empty buffer,
    /// grown bad block) holds no slot.
    fn drain_one_page(&mut self, at: SimTime) -> Result<SimTime, FtlError> {
        // Take the batch BEFORE allocating: block allocation may trigger
        // GC, which enqueues freshly migrated units. Those stay buffered
        // for later pages.
        if self.buffer.queued() == 0 {
            return Ok(at);
        }
        let mut taken = self.scratch_batches.pop().unwrap_or_default();
        taken.clear();
        self.buffer.take_batch(self.upp as usize, &mut taken);
        let (block, page) = match self.alloc_page_slot(at) {
            Ok(v) => v,
            Err(e) => {
                // Put the batch back so no buffered data is lost.
                self.buffer.requeue_front(&taken);
                self.scratch_batches.push(taken);
                return Err(e);
            }
        };
        let ppn = self.flash.geometry().ppn_in_block(block, page);

        // Stage the page: payloads move out of their slots, which keep
        // their ids and OOB records until the program has succeeded.
        let mut staging = std::mem::take(&mut self.staging);
        staging.reset(self.upp as usize);
        for (&slot, staged) in taken.iter().zip(&mut staging.units) {
            let data = self.buffer.data_mut(slot).ok_or(FtlError::Inconsistent(
                "page-out batch references empty slot",
            ))?;
            *staged = Some(std::mem::take(&mut data.payload));
            staging.oob.push(data.oob);
        }

        let win = match self.program_with_retry(ppn, &staging, at) {
            Ok(w) => w,
            Err(e) => {
                // Hand every payload back and re-queue the batch at the
                // head: a power cut or media failure loses nothing that
                // was acknowledged.
                for (&slot, staged) in taken.iter().zip(&mut staging.units) {
                    if let (Some(data), Some(payload)) = (self.buffer.data_mut(slot), staged.take())
                    {
                        data.payload = payload;
                    }
                }
                self.buffer.requeue_front(&taken);
                self.scratch_batches.push(taken);
                self.staging = staging;
                if let FlashError::GrownBadBlock(bad) = e {
                    // Graceful degradation: retire the block and report
                    // success; the still-queued batch drains to a healthy
                    // block on the caller's next loop iteration.
                    self.retire_block(bad);
                    return Ok(at);
                }
                return Err(e.into());
            }
        };
        self.staging = staging;
        self.counters.incr(Counter::FtlPagesProgrammed);
        let slot = self.programs.admit(at);
        self.programs.complete(win.finish);
        let units = taken.len() as u64;
        // `finish_ns` is the program's finish as first booked: a
        // foreground read that goes ahead of it later moves it, and the
        // flash's `suspend` event carries each move (`from_ns` → `to_ns`).
        self.tracer.emit(|| {
            TraceEvent::new(at, TraceLayer::Ftl, "page_out")
                .with("block", block.0)
                .with("page", u64::from(page))
                .with("units", units)
                .with("finish_ns", win.finish.as_nanos())
        });

        for (offset, &slot) in (0u32..).zip(&taken) {
            let _ = self.buffer.release(slot);
            let pun = Pun::compose(ppn, offset, self.upp);
            let moved = self
                .table
                .relocate(Location::Buffer(slot), Location::Flash(pun));
            if moved > 0 {
                self.pool.add_valid(block);
            }
            // moved == 0: the buffered unit died before page-out; it is now
            // padding on flash and simply never becomes valid.
        }
        self.scratch_batches.push(taken);
        Ok(slot)
    }

    /// The next page of the write point `wp` whose turn it is. When `wp`
    /// has no block open and the free pool is down to its hard threshold,
    /// foreground GC first collects until there is headroom or nothing
    /// reclaimable is left (not fatal yet: free blocks may remain).
    fn alloc_page_slot(&mut self, at: SimTime) -> Result<(BlockId, u32), FtlError> {
        let wp = self.pool.next_write_point().ok_or(FtlError::OutOfSpace)?;
        if let Some(slot) = self.pool.take_page(wp) {
            return Ok(slot);
        }
        if !self.in_gc {
            let threshold = self.config.gc_threshold_blocks as usize;
            while self.pool.free_count() <= threshold
                && self.run_gc_round(at, GcTrigger::Foreground)?.is_some()
            {}
            // GC pages its migrated units out through this same allocator
            // and may have opened a block on `wp` meanwhile: continue on
            // it. Opening a second one would orphan the first — Active,
            // half-programmed, never closed, never a GC victim.
            if let Some(slot) = self.pool.take_page(wp) {
                return Ok(slot);
            }
        }
        self.pool
            .open_block(wp, &mut self.counters)
            .ok_or(FtlError::OutOfSpace)
    }

    /// Schedules a read, retrying transient media failures with
    /// exponential backoff up to the read-class attempt budget
    /// ([`FtlConfig::retry_read`]).
    fn read_with_retry(&mut self, ppn: Ppn, at: SimTime) -> Result<Window, FlashError> {
        let retry = (self.config.retry_read, self.flash.timing().t_read);
        Self::retry_transient(
            &mut self.flash,
            &mut self.counters,
            retry,
            Counter::FtlRetryExhaustedRead,
            at,
            |flash, t| flash.schedule_read(ppn, t),
        )
    }

    /// Erases a block with the erase-class bounded-backoff policy
    /// ([`FtlConfig::retry_erase`]).
    fn erase_with_retry(&mut self, block: BlockId, at: SimTime) -> Result<Window, FlashError> {
        let retry = (self.config.retry_erase, self.flash.timing().t_erase);
        Self::retry_transient(
            &mut self.flash,
            &mut self.counters,
            retry,
            Counter::FtlRetryExhaustedErase,
            at,
            |flash, t| flash.erase(block, t),
        )
    }

    /// Runs `op` on `flash` until it stops failing transiently or
    /// `policy`'s attempt budget runs out (counted under `exhausted`),
    /// waiting `step << attempt` (capped) before each retry. An associated
    /// function, so that `op` may borrow the rest of the FTL.
    fn retry_transient<T>(
        flash: &mut FlashArray,
        counters: &mut CounterSet,
        (policy, step): (MediaRetryPolicy, SimDuration),
        exhausted: Counter,
        at: SimTime,
        mut op: impl FnMut(&mut FlashArray, SimTime) -> Result<T, FlashError>,
    ) -> Result<T, FlashError> {
        let mut t = at;
        let mut attempt = 0u32;
        loop {
            match op(flash, t) {
                Err(e) if e.classification() == ErrorClass::Transient => {
                    if attempt + 1 >= policy.limit {
                        counters.incr(exhausted);
                        return Err(e);
                    }
                    attempt += 1;
                    counters.incr(Counter::FtlMediaRetries);
                    t += step * (1u64 << attempt.min(policy.backoff_shift_cap));
                }
                other => return other,
            }
        }
    }

    /// Programs a page with the program-class bounded-backoff policy
    /// ([`FtlConfig::retry_program`]). The array copies from the staged
    /// page, so every attempt borrows the same one.
    fn program_with_retry(
        &mut self,
        ppn: Ppn,
        content: &PageContent,
        at: SimTime,
    ) -> Result<Window, FlashError> {
        let retry = (self.config.retry_program, self.flash.timing().t_program);
        Self::retry_transient(
            &mut self.flash,
            &mut self.counters,
            retry,
            Counter::FtlRetryExhaustedProgram,
            at,
            |flash, t| flash.program(ppn, content, t),
        )
    }

    /// Exhaustive internal-consistency check for tests: mapping symmetry
    /// plus every component's own invariants.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn check_invariants(&self) -> Result<(), String> {
        self.table.check_consistency()?;
        self.buffer.check_invariants(&self.table)?;
        self.pool.check_invariants(&self.table, self.upp)?;
        self.ledger.check_invariants(&self.counters)?;
        self.persist.check_invariants(self.seq)
    }
}

/// Merges a partial write into existing unit content: fragments of keys
/// present in `new` are replaced; other old fragments survive.
fn merge_payload(old: UnitRef<'_>, new: &UnitPayload) -> UnitPayload {
    let mut fragments: checkin_flash::FragVec = old
        .iter()
        .filter(|f| !new.fragments.iter().any(|n| n.key == f.key))
        .collect();
    fragments.extend(new.fragments.iter().copied());
    UnitPayload { fragments }
}

#[cfg(test)]
mod buffer_overwrite_tests;
#[cfg(test)]
mod fault_tests;
#[cfg(test)]
mod integrity_tests;
#[cfg(test)]
mod placement_tests;
#[cfg(test)]
mod slot_tests;
#[cfg(test)]
mod tests;
#[cfg(test)]
mod wear_leveling_tests;
