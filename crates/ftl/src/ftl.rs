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
    BlockId, ErrorClass, FlashArray, FlashError, FlashGeometry, ForegroundRead, Fragment, OobEntry,
    OobKind, OpPhase, PageContent, Ppn, UnitPayload, UnitRef, MAX_PLANE_GROUP,
};
use checkin_sim::{
    Counter, CounterSet, InFlight, SimDuration, SimTime, Total, TraceEvent, TraceLayer, Tracer,
    Window,
};

use crate::block_pool::BlockPool;
use crate::config::FtlConfig;
use crate::error::{FtlConfigError, FtlError, IntegrityError};
use crate::ledger::IntegrityLedger;
use crate::location::{BufSlot, Location, Lpn, Pun};
use crate::map_cache::MapCacheModel;
use crate::mapping::{MappingTable, Unlink};
use crate::persist::MapPersistence;
use crate::write_buffer::{SlotData, WriteBuffer};

pub use rebuild::{OobScan, RebuildStats};
pub use reclaim::{GcTrigger, ScrubReport};

use reclaim::GcRound;

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
/// gather keeps it across the whole batch, whose steps issue their reads
/// at instants of their own. A page found here is still in the
/// controller's read buffer and is not sensed again — unless its block
/// was erased since, when it is. Only reads issued at one instant sense
/// together: a page on another plane of a die that the same instant's
/// reads sensed, at the same page index, can ride that sense's tR
/// ([`FlashArray::read_beside`]); a tR an earlier instant started takes
/// no more pages.
#[derive(Debug, Default)]
pub struct SensedPages {
    /// Every page sensed, sorted by page.
    pages: Vec<Sensed>,
}

/// One page of a [`SensedPages`] set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Sensed {
    page: Ppn,
    /// When the read that sensed it was issued.
    issued: SimTime,
    /// The start of the tR that sensed it; `None` when the write buffer
    /// served it.
    tr: Option<SimTime>,
    /// When its transfer finished.
    finish: SimTime,
    /// Its block's erase count then.
    erases: u64,
}

impl SensedPages {
    /// Forgets every page, keeping the allocation: the next command
    /// starts with nothing sensed.
    pub fn clear(&mut self) {
        self.pages.clear();
    }

    /// When `ppn`'s data is in the controller for a read issued at `at`,
    /// with `ppn`'s block erased `erases` times so far: the recorded
    /// finish if this command sensed the page since that block's last
    /// erase, else that of `sense`, run now — handed a page whose tR
    /// `ppn` may ride, if any — and remembered with the tR it came from.
    /// A failed sense records nothing.
    fn finish_of(
        &mut self,
        ppn: Ppn,
        g: &FlashGeometry,
        at: SimTime,
        erases: u64,
        sense: impl FnOnce(Option<(Ppn, SimTime)>) -> Result<(Option<SimTime>, SimTime), FlashError>,
    ) -> Result<SimTime, FlashError> {
        let i = self.pages.partition_point(|s| s.page < ppn);
        let found = self.pages.get(i).filter(|s| s.page == ppn);
        if let Some(s) = found.filter(|s| s.erases == erases) {
            return Ok(s.finish);
        }
        let stale = found.is_some();
        let (tr, finish) = sense(self.partner_of(ppn, g, at))?;
        let sensed = Sensed {
            page: ppn,
            issued: at,
            tr,
            finish,
            erases,
        };
        match self.pages.get_mut(i) {
            Some(s) if stale => *s = sensed,
            _ => self.pages.insert(i, sensed),
        }
        Ok(finish)
    }

    /// A page sensed by a read issued at `at` whose tR `ppn` can ride,
    /// with that tR's start: a plane partner of `ppn`
    /// ([`FlashGeometry::plane_partners`]), as is every page already
    /// riding that tR.
    fn partner_of(&self, ppn: Ppn, g: &FlashGeometry, at: SimTime) -> Option<(Ppn, SimTime)> {
        let riders = |page: Ppn, tr: SimTime| {
            self.pages.iter().filter(move |s| {
                s.tr == Some(tr) && (s.page == page || g.plane_partners(s.page, page))
            })
        };
        self.pages.iter().find_map(|s| {
            let tr =
                s.tr.filter(|_| s.issued == at && g.plane_partners(s.page, ppn))?;
            riders(s.page, tr)
                .all(|other| g.plane_partners(other.page, ppn))
                .then_some((s.page, tr))
        })
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
    /// Structured trace sink (no-op unless enabled).
    tracer: Tracer,
    /// The garbage-collection round in execution, if any, between the
    /// pump steps that advance it ([`Ftl::pump_gc`]).
    gc: Option<GcRound>,
    /// The one page-out being staged: its buffered units, `(write point,
    /// block, page)` of its pages, and each page's address and content.
    /// `drain_one_page` fills them only after block allocation — where
    /// foreground GC pages out its own units — is over, and hands them
    /// back on every path, so one of each suffices (no per-page
    /// allocation in steady state).
    batch: Vec<BufSlot>,
    scratch_pages: Vec<(usize, BlockId, u32)>,
    staging: Vec<(Ppn, PageContent)>,
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
        config.validate(&g)?;
        let upp = config.units_per_page(g.page_bytes);
        Ok(Ftl {
            upp,
            map_cache: MapCacheModel::with_capacity(config.map_cache_entries),
            // Pre-reserve the forward array for the physical unit count:
            // the host LPN space in steady state tracks the device size.
            table: MappingTable::with_capacity(g.total_pages() * upp as u64),
            counters: CounterSet::new(),
            seq: 0,
            tracer: Tracer::disabled(),
            gc: None,
            batch: Vec::new(),
            scratch_pages: Vec::new(),
            staging: Vec::new(),
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

    /// Heap bytes the mapping table holds
    /// ([`MappingTable::heap_bytes`]): its device-sized forward array and
    /// flash state bits are reserved at construction, so this is mostly
    /// fixed by the geometry; the exception map adds 26–32 B for each
    /// location whose referrers are not its own lpn, at their peak.
    pub fn mapping_bytes(&self) -> u64 {
        self.table.heap_bytes()
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

    /// The mapping table, beside the own-LPN function its operations
    /// take ([`owners`]).
    fn table_mut(
        &mut self,
    ) -> (
        &mut MappingTable,
        impl Fn(Location) -> Option<Lpn> + Copy + '_,
    ) {
        (&mut self.table, owners(&self.flash, &self.buffer, self.upp))
    }

    /// The own LPN of `loc` ([`owners`]).
    fn own_lpn(&self, loc: Location) -> Option<Lpn> {
        owners(&self.flash, &self.buffer, self.upp)(loc)
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
        self.write_slotted(w, kind, at).map(|(ack, _)| ack)
    }

    /// [`Ftl::write`], returning with the acknowledgement the instant the
    /// write's page-outs got their programming slots: `at` when it paged
    /// nothing out or found the slots free, else the program finish it
    /// waited for. A writer that paces itself by the programming slots
    /// waits for that, not for the acknowledgement, which may also wait
    /// for a read-modify-write merge's read.
    ///
    /// # Errors
    ///
    /// As [`Ftl::write`].
    pub fn write_slotted(
        &mut self,
        w: UnitWrite,
        kind: OobKind,
        at: SimTime,
    ) -> Result<(SimTime, SimTime), FtlError> {
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
                // GC or SPOR destroyed the unit's last copy: a partial
                // write has nothing to merge with, and clearing the loss
                // record would hide the sectors that are gone. Only a
                // write of the whole unit supersedes the loss.
                None if self.ledger.is_poisoned(w.lpn) => {
                    return Err(FtlError::Integrity(IntegrityError::Poisoned(w.lpn)));
                }
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
        let (table, own) = self.table_mut();
        let prev = table.map(w.lpn, Location::Buffer(slot), own);
        self.note_unlink(prev);
        self.ledger.clear_poison(w.lpn);

        let slot = self.drain_to_watermark(at, PageOut::MayCollect)?;
        if slot > done {
            self.counters.incr(Counter::FtlBufferSlotWaits);
            self.counters.add(
                Counter::FtlBufferSlotWaitNs,
                slot.duration_since(done).as_nanos(),
            );
            done = slot;
        }
        Ok((done, slot))
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

    /// When `ppn` is in the controller for a read issued at `at`, and
    /// the start of the tR that sensed it (`None` when the write buffer
    /// served it). With a `partner` — a page this command sensed in a tR
    /// from the given instant, on another plane of `ppn`'s die at its
    /// page index — the first attempt rides that tR
    /// ([`FlashArray::read_beside`]). A foreground read — one a host
    /// waits on, issued in [`OpPhase::Run`]: a `get` or a
    /// read-modify-write merge — goes ahead of the die's latest program
    /// while that program's finish is private
    /// ([`FlashArray::read_ahead_of_programs`]): it is in the programming
    /// slot window once per page that finishes with it, and no admission
    /// or `flush` has consumed it. The window then follows the program to
    /// its new finish. Every other read is [`FlashArray::schedule_read`].
    fn sense(
        &mut self,
        ppn: Ppn,
        at: SimTime,
        mut partner: Option<(Ppn, SimTime)>,
    ) -> Result<(Option<SimTime>, SimTime), FlashError> {
        let foreground = self.flash.op_phase() == OpPhase::Run;
        let step = self.flash.timing().t_read;
        let programs = &self.programs;
        let read = Self::retry_transient(
            &mut self.flash,
            &mut self.counters,
            step,
            Counter::FtlRetryExhaustedRead,
            at,
            |flash, t| {
                // Only a first attempt rides: a retry comes later.
                if let Some((partner, tr)) = partner.take() {
                    if let Some(window) = flash.read_beside(ppn, partner, tr, t)? {
                        return Ok(ForegroundRead::Sensed {
                            window,
                            moved: None,
                        });
                    }
                }
                if !foreground {
                    let window = flash.schedule_read(ppn, t)?;
                    return Ok(ForegroundRead::Sensed {
                        window,
                        moved: None,
                    });
                }
                flash
                    .read_ahead_of_programs(ppn, t, |finish, pages| programs.movable(finish, pages))
            },
        )?;
        match read {
            // Only a first attempt can find the page still programming:
            // a retry comes later, when it still does not.
            ForegroundRead::Programming => {
                self.counters.incr(Counter::FtlProgrammingPageReads);
                Ok((None, at))
            }
            ForegroundRead::Sensed { window, moved } => {
                if let Some(m) = moved {
                    self.programs.move_completions(m.from, m.to, m.pages);
                }
                Ok((Some(window.start), window.finish))
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
        let g = *self.flash.geometry();
        let finish = match sensed {
            Some(sensed) => {
                let erases = self.flash.erase_count(g.block_of(ppn));
                sensed.finish_of(ppn, &g, at, erases, |partner| self.sense(ppn, at, partner))?
            }
            None => self.sense(ppn, at, None)?.1,
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
        let (table, own) = self.table_mut();
        let prev = table.alias(dst, src, own).map_err(FtlError::Unmapped)?;
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
        let (table, own) = self.table_mut();
        let u = table.unmap(lpn, own);
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
            self.drain_one_page(at, PageOut::MayCollect)?;
        }
        Ok(self.programs.wait_all().map_or(at, |last| last.max(at)))
    }

    /// Pages out buffered units while the buffer holds at least its
    /// watermark, oldest first, and returns when the writer may go on:
    /// when the last page-out got its programming slot.
    fn drain_to_watermark(&mut self, at: SimTime, page_out: PageOut) -> Result<SimTime, FtlError> {
        let mut slot = at;
        while self.buffer.queued() >= self.config.write_buffer_units as usize {
            slot = slot.max(self.drain_one_page(at, page_out)?);
        }
        Ok(slot)
    }

    /// Pages out the oldest buffered units as one multi-plane page at
    /// `at`: a page on every write point of one die's group
    /// ([`BlockPool::group`]), all at one page index, programmed in one
    /// [`FlashArray::program_planes`] call. The group is the one whose
    /// die can start a tPROG earliest from `at` on
    /// ([`BlockPool::choose_group`]), so a page-out does not queue
    /// behind an erase or a burst of programs while another die is free.
    /// Units fill the pages in write-point order; a page-out that finds
    /// fewer than the group holds pads the rest, so the die's write
    /// points stay in lockstep.
    /// Pages that cannot share one tPROG — a write point moved off its
    /// plane or out of step by an off-plane open or a retirement — are
    /// programmed in as many calls as they need.
    ///
    /// Returns when the page-out's programming slots were free: `at`
    /// while enough are then, else the finishes that free them. Each page
    /// holds one slot until its program finishes. A page that programmed
    /// nothing (empty buffer, grown bad block) holds none.
    fn drain_one_page(&mut self, at: SimTime, page_out: PageOut) -> Result<SimTime, FtlError> {
        if self.buffer.queued() == 0 {
            return Ok(at);
        }
        let flash = &self.flash;
        let t_program = flash.timing().t_program;
        let start = |die: usize| {
            let timeline = flash.die(die);
            debug_assert!(timeline.is_some(), "die {die} is not a die of this device");
            timeline.map_or(SimTime::MAX, |t| t.first_fit(at, t_program))
        };
        let group = self
            .pool
            .choose_group(at, start)
            .ok_or(FtlError::OutOfSpace)?;
        // Collect first: the round pages its migrated units out behind the
        // oldest ones, through these very write points, and may leave
        // nothing for this page-out.
        self.make_room(group, at, page_out)?;
        if self.buffer.queued() == 0 {
            return Ok(at);
        }
        let upp = self.upp as usize;
        let mut taken = std::mem::take(&mut self.batch);
        taken.clear();
        self.buffer
            .take_batch(upp * self.pool.group(group).len(), &mut taken);
        let mut pages = std::mem::take(&mut self.scratch_pages);
        pages.clear();
        while let Some(&wp) = self.pool.group(group).get(pages.len()) {
            let Some((block, page)) = self
                .pool
                .take_page(wp)
                .or_else(|| self.pool.open_block(wp, &mut self.counters))
            else {
                break;
            };
            pages.push((wp, block, page));
        }
        // Units past the pages the group got go back to the head.
        let fits = pages.len() * upp;
        if taken.len() > fits {
            self.buffer
                .requeue_front(taken.get(fits..).unwrap_or_default());
            taken.truncate(fits);
        }
        if pages.is_empty() {
            self.batch = taken;
            self.scratch_pages = pages;
            return Err(FtlError::OutOfSpace);
        }

        // Stage the pages: payloads move out of their slots, which keep
        // their ids and OOB records until the program has succeeded.
        let g = *self.flash.geometry();
        let mut staging = std::mem::take(&mut self.staging);
        staging.resize_with(staging.len().max(pages.len()), Default::default);
        let mut units = taken.chunks(upp);
        for (&(_, block, page), (ppn, content)) in pages.iter().zip(&mut staging) {
            *ppn = g.ppn_in_block(block, page);
            content.reset(upp);
            for (&slot, staged) in units
                .next()
                .unwrap_or_default()
                .iter()
                .zip(&mut content.units)
            {
                let data = self.buffer.data_mut(slot).ok_or(FtlError::Inconsistent(
                    "page-out batch references empty slot",
                ))?;
                *staged = Some(std::mem::take(&mut data.payload));
                content.oob.push(data.oob);
            }
        }

        let mut slot = at;
        let mut programmed = 0;
        while programmed < pages.len() {
            let group = staging.get(programmed..pages.len()).unwrap_or_default();
            let calls = group.get(..plane_group_len(&g, group)).unwrap_or_default();
            let win = match self.program_with_retry(calls, at) {
                Ok(w) => w,
                Err(e) => {
                    let unprogrammed = programmed..pages.len();
                    self.give_back(&pages, &mut staging, &taken, unprogrammed, &e);
                    self.batch = taken;
                    self.scratch_pages = pages;
                    self.staging = staging;
                    if let FlashError::GrownBadBlock(bad) = e {
                        // Graceful degradation: retire the block and report
                        // success; the still-queued batch drains to a healthy
                        // block on the caller's next loop iteration.
                        self.retire_block(bad);
                        return Ok(slot);
                    }
                    return Err(e.into());
                }
            };
            for i in programmed..programmed + calls.len() {
                let block = pages.get(i).map_or(BlockId(0), |p| p.1);
                let ppn = staging.get(i).map_or(Ppn(0), |p| p.0);
                let batch = taken.chunks(upp).nth(i).unwrap_or_default();
                slot = slot.max(self.commit_page(block, ppn, batch, win.finish, at));
            }
            programmed += calls.len();
        }
        self.batch = taken;
        self.scratch_pages = pages;
        self.staging = staging;
        Ok(slot)
    }

    /// Makes sure the write points of `group` can take their pages: when
    /// one of them has no block open and the free pool is down to its
    /// reserve, foreground GC collects until there is headroom or
    /// nothing reclaimable is left (not fatal yet: free blocks may
    /// remain). A round in flight is finished first, before any second
    /// victim is opened ([`Ftl::run_gc_round`]). It runs before the
    /// page-out takes its units or pages: GC pages its migrated units
    /// out through the same placement and may fill or open blocks on
    /// these very write points, so a page taken before it could be
    /// overtaken by GC's and programmed out of order.
    ///
    /// The reserve is the hard threshold, but never fewer blocks than
    /// there are write points: every write point may roll over to a new
    /// block inside one round — GC's own page-outs included, which do
    /// not come back here ([`PageOut::InGc`]) — so a smaller reserve
    /// lets a round empty the pool.
    fn make_room(&mut self, group: usize, at: SimTime, page_out: PageOut) -> Result<(), FtlError> {
        if page_out == PageOut::InGc
            || !self
                .pool
                .group(group)
                .iter()
                .any(|&wp| self.pool.needs_block(wp))
        {
            return Ok(());
        }
        let reserve = self
            .config
            .gc_threshold_blocks
            .max(self.config.write_points) as usize;
        while self.pool.free_count() <= reserve
            && self.run_gc_round(at, GcTrigger::Foreground)?.is_some()
        {}
        Ok(())
    }

    /// A page of a page-out programmed at `ppn` of `block`, finishing at
    /// `finish`: its `batch` of slots leave the buffer for flash, and it
    /// holds a programming slot until then. Returns when that slot was
    /// free for a page-out at `at`.
    fn commit_page(
        &mut self,
        block: BlockId,
        ppn: Ppn,
        batch: &[BufSlot],
        finish: SimTime,
        at: SimTime,
    ) -> SimTime {
        self.counters.incr(Counter::FtlPagesProgrammed);
        let slot = self.programs.admit(at);
        self.programs.complete(finish);
        let units = batch.len() as u64;
        // `finish_ns` is the program's finish as first booked: a
        // foreground read that goes ahead of it later moves it, and the
        // flash's `suspend` event carries each move (`from_ns` → `to_ns`).
        self.tracer.emit(|| {
            TraceEvent::new(at, TraceLayer::Ftl, "page_out")
                .with("block", block.0)
                .with("page", u64::from(self.flash.geometry().page_in_block(ppn)))
                .with("units", units)
                .with("finish_ns", finish.as_nanos())
        });
        for (offset, &slot) in (0u32..).zip(batch) {
            let pun = Pun::compose(ppn, offset, self.upp);
            // The unit was just programmed with its slot's OOB record, so
            // the lpn there is the own lpn of both ends of the move.
            let own = self.buffer.release(slot).map(|data| Lpn(data.oob.lpn));
            let (from, to) = (Location::Buffer(slot), Location::Flash(pun));
            let moved = self.table.relocate(from, to, |_| own);
            if moved > 0 {
                self.pool.add_valid(block);
            }
            // moved == 0: the buffered unit died before page-out; it is now
            // padding on flash and simply never becomes valid.
        }
        slot
    }

    /// A program of `pages[unprogrammed]` failed with `error`: hand every
    /// payload back, re-queue their units at the head — a power cut or
    /// media failure loses nothing that was acknowledged — and give each
    /// write point back the page it did not program (a grown-bad block's
    /// is its retirement's to release).
    fn give_back(
        &mut self,
        pages: &[(usize, BlockId, u32)],
        staging: &mut [(Ppn, PageContent)],
        taken: &[BufSlot],
        unprogrammed: std::ops::Range<usize>,
        error: &FlashError,
    ) {
        let upp = self.upp as usize;
        let first_unit = unprogrammed.start * upp;
        let content = staging
            .iter_mut()
            .skip(unprogrammed.start)
            .take(unprogrammed.len());
        let slots = taken.get(first_unit..).unwrap_or_default().chunks(upp);
        for ((_, content), batch) in content.zip(slots) {
            for (&slot, staged) in batch.iter().zip(&mut content.units) {
                if let (Some(data), Some(payload)) = (self.buffer.data_mut(slot), staged.take()) {
                    data.payload = payload;
                }
            }
        }
        self.buffer
            .requeue_front(taken.get(first_unit..).unwrap_or_default());
        let bad = match error {
            FlashError::GrownBadBlock(bad) => Some(*bad),
            _ => None,
        };
        for &(wp, block, page) in pages.get(unprogrammed).unwrap_or_default() {
            if Some(block) != bad {
                self.pool.untake(wp, (block, page));
            }
        }
    }

    /// Schedules a read, retrying transient media failures with
    /// exponential backoff up to [`Ftl::RETRY_LIMIT`] attempts.
    fn read_with_retry(&mut self, ppn: Ppn, at: SimTime) -> Result<Window, FlashError> {
        let step = self.flash.timing().t_read;
        Self::retry_transient(
            &mut self.flash,
            &mut self.counters,
            step,
            Counter::FtlRetryExhaustedRead,
            at,
            |flash, t| flash.schedule_read(ppn, t),
        )
    }

    /// Erases a block, retrying transient failures like
    /// [`Ftl::read_with_retry`].
    fn erase_with_retry(&mut self, block: BlockId, at: SimTime) -> Result<Window, FlashError> {
        let step = self.flash.timing().t_erase;
        Self::retry_transient(
            &mut self.flash,
            &mut self.counters,
            step,
            Counter::FtlRetryExhaustedErase,
            at,
            |flash, t| flash.erase(block, t),
        )
    }

    /// Attempts (first try and retries) a read, program or erase gets
    /// before its transient error escapes. Fatal errors (rule
    /// violations, grown bad blocks, power loss) are never retried.
    pub const RETRY_LIMIT: u32 = 4;

    /// Static wear-leveling threshold: when the spread between the most-
    /// and least-erased blocks exceeds this many erases, a wear-leveling
    /// round migrates the coldest closed block so its low-wear cells
    /// rejoin the pool.
    pub const WEAR_LEVELING_THRESHOLD: u64 = 64;

    /// Cap on the exponential-backoff shift of [`Ftl::retry_transient`]:
    /// retry `n` waits `step << min(n, cap)` before it runs.
    const BACKOFF_SHIFT_CAP: u32 = 16;

    /// Runs `op` on `flash` until it stops failing transiently or
    /// [`Ftl::RETRY_LIMIT`] attempts are spent (counted under `exhausted`),
    /// waiting `step << attempt` (capped at [`Ftl::BACKOFF_SHIFT_CAP`])
    /// before each retry. An associated function, so that `op` may borrow
    /// the rest of the FTL.
    fn retry_transient<T>(
        flash: &mut FlashArray,
        counters: &mut CounterSet,
        step: SimDuration,
        exhausted: Counter,
        at: SimTime,
        mut op: impl FnMut(&mut FlashArray, SimTime) -> Result<T, FlashError>,
    ) -> Result<T, FlashError> {
        let mut t = at;
        let mut attempt = 0u32;
        loop {
            match op(flash, t) {
                Err(e) if e.classification() == ErrorClass::Transient => {
                    if attempt + 1 >= Self::RETRY_LIMIT {
                        counters.incr(exhausted);
                        return Err(e);
                    }
                    attempt += 1;
                    counters.incr(Counter::FtlMediaRetries);
                    t += step * (1u64 << attempt.min(Self::BACKOFF_SHIFT_CAP));
                }
                other => return other,
            }
        }
    }

    /// Programs a plane group, retrying transient failures like
    /// [`Ftl::read_with_retry`]. The array copies from the
    /// staged pages, so every attempt borrows the same ones.
    fn program_with_retry(
        &mut self,
        group: &[(Ppn, PageContent)],
        at: SimTime,
    ) -> Result<Window, FlashError> {
        let step = self.flash.timing().t_program;
        Self::retry_transient(
            &mut self.flash,
            &mut self.counters,
            step,
            Counter::FtlRetryExhaustedProgram,
            at,
            |flash, t| flash.program_planes(group, t),
        )
    }

    /// Exhaustive internal-consistency check for tests: mapping symmetry
    /// plus every component's own invariants, the flash array's seal log
    /// included.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn check_invariants(&self) -> Result<(), String> {
        self.flash.check_seals()?;
        self.table
            .check_consistency(owners(&self.flash, &self.buffer, self.upp))?;
        self.buffer.check_invariants(&self.table)?;
        self.pool.check_invariants(&self.table, self.upp)?;
        self.ledger.check_invariants(&self.counters)?;
        self.persist.check_invariants(self.seq)
    }
}

/// The own-LPN function of the mapping table ([`MappingTable`]'s module
/// doc): a buffer slot's is the lpn of the OOB record it was written
/// with, a flash unit's the one it was programmed with
/// ([`FlashArray::programmed_lpn`]: no simulated cost, and blind to
/// injected OOB rot, which never reaches the firmware's DRAM map).
fn owners<'a>(
    flash: &'a FlashArray,
    buffer: &'a WriteBuffer,
    upp: u32,
) -> impl Fn(Location) -> Option<Lpn> + Copy + 'a {
    move |loc| match loc {
        Location::Buffer(slot) => buffer.data(slot).map(|d| Lpn(d.oob.lpn)),
        Location::Flash(pun) => flash
            .programmed_lpn(pun.page(upp), pun.offset(upp))
            .map(Lpn),
    }
}

/// Whether a page-out may collect garbage for its blocks first
/// ([`Ftl::make_room`]): every writer's may, a GC round's own never
/// does — a round does not begin inside a round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PageOut {
    MayCollect,
    InGc,
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

/// How many of `pages`, from the first, one die programs in one tPROG:
/// the leading pages that are each a plane partner of every page before
/// it ([`FlashGeometry::plane_partners`]), at most [`MAX_PLANE_GROUP`].
/// One for a single page.
fn plane_group_len(g: &FlashGeometry, pages: &[(Ppn, PageContent)]) -> usize {
    let partners = |(i, &(ppn, _)): (usize, &(Ppn, PageContent))| {
        pages
            .iter()
            .take(i)
            .all(|&(earlier, _)| g.plane_partners(earlier, ppn))
    };
    let len = pages
        .iter()
        .enumerate()
        .take_while(|&page| partners(page))
        .count();
    len.min(MAX_PLANE_GROUP)
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
