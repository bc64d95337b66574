//! The SSD device: host interface, firmware timing, ISCE execution.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use checkin_flash::{FragVec, Fragment, OobKind, OpPhase, UnitPayload};
use checkin_ftl::{
    Ftl, FtlError, GcTrigger, Lpn, MapCacheModel, RebuildStats, ScrubReport, SensedPages, UnitWrite,
};
use checkin_sim::{
    Counter, CounterSet, InFlight, Progress, Resource, SimDuration, SimTime, TraceEvent,
    TraceLayer, Tracer,
};

use crate::command::{
    CheckpointMode, CowEntry, ReadRequest, WriteContent, WriteRequest, SECTOR_BYTES,
};
use crate::error::SsdError;
use crate::isce::{plan_entry, EntryPlan};
use crate::timing::SsdTiming;

/// Base of the device-internal metadata LPN region (never visible to the
/// host's LBA space).
const META_LPN_BASE: u64 = u64::MAX / 2;

/// Journal units acknowledged between two metadata (recovery-log) writes
/// by the ISCE log manager.
const META_INTERVAL_UNITS: u64 = 64;

/// Entries one pump step of a checkpoint command's walk decodes at most,
/// and mapping accesses it makes at most (an entry whose accesses cross
/// the bound finishes in the step that began it): one map segment's
/// worth.
const WALK_STEP_ENTRIES: u64 = MapCacheModel::SEGMENT_ENTRIES;

/// The simulated SSD.
///
/// Wraps an [`Ftl`] with the host-visible command set: standard block
/// reads/writes/flush/deallocate plus the paper's vendor-specific
/// extensions — single CoW, batched checkpoint, and journal deallocation —
/// all with full timing through the link, firmware CPU, queue and flash
/// resources.
///
/// # Examples
///
/// ```
/// use checkin_flash::{FlashArray, FlashGeometry, FlashTiming};
/// use checkin_ftl::{Ftl, FtlConfig};
/// use checkin_ssd::{Ssd, SsdTiming, WriteRequest, WriteContent, ReadRequest};
/// use checkin_sim::SimTime;
///
/// let flash = FlashArray::new(FlashGeometry::small(), FlashTiming::mlc());
/// let ftl = Ftl::new(flash, FtlConfig { unit_bytes: 512, write_points: 2, ..FtlConfig::default() }).unwrap();
/// let mut ssd = Ssd::new(ftl, SsdTiming::paper_default());
///
/// let done = ssd.write(
///     &WriteRequest { lba: 0, sectors: 2, content: WriteContent::Record { key: 1, version: 1, bytes: 1000 } },
///     checkin_flash::OobKind::Data,
///     SimTime::ZERO,
/// )?;
/// let (frags, _t) = ssd.read(&ReadRequest { lba: 0, sectors: 2, key: Some(1) }, done)?;
/// assert_eq!(frags[0].version, 1);
/// # Ok::<(), checkin_ssd::SsdError>(())
/// ```
#[derive(Debug)]
pub struct Ssd {
    ftl: Ftl,
    timing: SsdTiming,
    link: Resource,
    cpu: Resource,
    /// The NVMe submission queue: at most `queue_depth` commands in
    /// flight, admitted by [`Ssd::admit`].
    queue: InFlight,
    counters: CounterSet,
    journal_units_since_meta: u64,
    meta_seq: u64,
    /// Structured trace sink (no-op unless enabled).
    tracer: Tracer,
    /// ISCE phase time accumulated since the last
    /// [`Ssd::take_cp_phase_times`] (remap walk vs copy fallback).
    cp_phase_times: CpPhaseTimes,
    /// The flash pages a host read has sensed, cleared per read.
    scratch_sensed: SensedPages,
    /// One copy entry's gathered fragments, recycled from entry to entry.
    scratch_frags: Vec<Fragment>,
    /// The job in execution, if any — a checkpoint command or a
    /// deallocation — between the pump steps that advance it.
    job: Job,
    /// The background GC behind the last checkpoint, if it still runs.
    gc: IdleGc,
}

/// The job in execution on the device: one checkpoint command or one
/// deallocation at a time. Its admission, transfer and command cost are
/// booked when it begins; every later stage is booked by [`Ssd::pump`]
/// steps, a small unit of work each at its own instant, so foreground
/// commands booked between two steps go first. Its buffers are recycled
/// from command to command.
#[derive(Debug, Default)]
struct Job {
    /// Where the job is: [`Stage::Idle`] when none runs.
    stage: Stage,
    /// Live mapping entries when the job began: every walk step is
    /// priced at that table size.
    live: u64,
    /// The instant the next pump step is due.
    next_at: SimTime,
    /// Whether the command closes with a recovery metadata unit: a
    /// batched checkpoint does, a single CoW does not.
    closes_with_meta: bool,
    /// Firmware time per entry the walk decodes: zero for a single CoW,
    /// whose command cost covers its one entry.
    entry_cost: SimDuration,
    /// The batch as sent, and how many of its entries the walk decoded.
    batch: Vec<CowEntry>,
    walked: usize,
    /// The mapping segments the remap class touched so far, sorted: a
    /// segment is a miss for the step that touches it first only.
    segments: Vec<u64>,
    /// Remap entries and the units they moved, for the trace.
    remapped: u64,
    remapped_units: u64,
    /// The copy class, and per entry the `(bytes, version)` its gather
    /// found.
    entries: Vec<CowEntry>,
    gathered: Vec<(u32, u64)>,
    /// The copy class by the die its source lies on — `(die, entry)`,
    /// sorted, `u64::MAX` for a source on no flash page — and per die
    /// the range of it not issued yet.
    by_die: Vec<(u64, usize)>,
    lanes: Vec<(usize, usize)>,
    /// The dies with entries left to gather, each with the instant its
    /// gather read in flight finishes: a die reads the next entry then.
    lanes_due: BinaryHeap<Reverse<(SimTime, usize)>>,
    /// The latest gather read's finish.
    last_read: SimTime,
    /// The flash pages the gather has sensed, kept across its steps:
    /// host reads between two of them have a set of their own.
    sensed: SensedPages,
    /// The entry being scattered, and of it the units not yet written
    /// (`None` before its first unit).
    next: usize,
    units: Option<RecordUnits>,
    /// Entries whose gather found no payload.
    skipped: u64,
    /// Entries written home, counted as `ssd.copy_entries` as they
    /// complete.
    copied: u64,
    /// When the command was decoded, when its gather began, when its
    /// walk ended, and the latest scatter acknowledgement so far.
    decoded: SimTime,
    gathering: SimTime,
    booked: SimTime,
    written: SimTime,
}

/// Background GC in an idle window ([`Ssd::begin_background_gc`]):
/// rounds begun one at a time, each the FTL's paced GC round
/// ([`Ftl::pump_gc`]), one static wear-leveling round at most, a scrub.
#[derive(Debug, Clone, Copy, Default)]
struct IdleGc {
    /// When the next pump step is due; `None` when none runs.
    next_at: Option<SimTime>,
    /// Background rounds it may still begin.
    rounds_left: u32,
    /// Pages its closing scrub round may verify.
    scrub_pages: u32,
    /// Background rounds it began.
    rounds: u32,
    /// Whether it considered its wear-leveling round already.
    levelled: bool,
}

/// Where the job's pump steps are.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
enum Stage {
    /// No job is running.
    #[default]
    Idle,
    /// Decoding the batch and remapping its remap class in `mode`, at
    /// most [`WALK_STEP_ENTRIES`] entries a step.
    Walk(CheckpointMode),
    /// Reading the copy class's sources, one read in flight per die.
    Gather,
    /// Writing the copy class home, up to a programming-slot wait a step.
    Scatter,
    /// Unmapping the sectors from `cursor` to `end`, one map segment a
    /// step.
    Trim { cursor: u64, end: u64 },
}

// The shard fleet will move this across threads: a field that is not
// `Send` (an `Rc`, say) is a build error here.
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<Ssd>();
};

/// Device-side time split of checkpoint execution, accumulated across
/// the vendor commands issued since the last
/// [`Ssd::take_cp_phase_times`] call: the ISCE remap walk (firmware
/// mapping updates) vs the copy fallback (read-merge-write traffic).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CpPhaseTimes {
    /// Firmware time spent walking and updating the mapping table.
    pub remap: SimDuration,
    /// Time spent in the copy fallback (gather reads + scatter writes).
    pub copy: SimDuration,
}

/// Iterator over the `(unit LPN, sectors in unit, covers whole unit)`
/// segments of the sectors from `cursor` to `end`.
#[derive(Debug)]
struct SegmentIter {
    unit_sectors: u32,
    cursor: u64,
    end: u64,
}

impl Iterator for SegmentIter {
    type Item = (Lpn, u32, bool);

    fn next(&mut self) -> Option<Self::Item> {
        if self.cursor >= self.end {
            return None;
        }
        let unit_sectors = u64::from(self.unit_sectors);
        let unit = self.cursor / unit_sectors;
        let unit_end = (unit + 1) * unit_sectors;
        let seg_end = unit_end.min(self.end);
        #[expect(
            clippy::cast_possible_truncation,
            reason = "cursor lies in `unit` and seg_end <= unit_end, so the segment is at most unit_sectors, a u32"
        )]
        let seg = (seg_end - self.cursor) as u32;
        self.cursor = seg_end;
        Some((Lpn(unit), seg, seg == self.unit_sectors))
    }
}

/// Iterator over the `(unit LPN, bytes, covers whole unit)` unit writes
/// that lay `remaining` bytes over an extent, the one layout of a host
/// write and of a checkpoint copy: each unit takes as many bytes as its
/// sectors hold, until none are left. Sectors past the payload carry no
/// record bytes, so nothing is stored in them.
#[derive(Debug)]
struct RecordUnits {
    segments: SegmentIter,
    remaining: u64,
}

impl RecordUnits {
    /// The units of `remaining` bytes laid over `[lba, lba + sectors)`.
    fn new(unit_sectors: u32, lba: u64, sectors: u32, remaining: u64) -> Self {
        let end = lba + u64::from(sectors);
        RecordUnits {
            segments: SegmentIter {
                unit_sectors,
                cursor: lba,
                end,
            },
            remaining,
        }
    }
}

impl Iterator for RecordUnits {
    type Item = (Lpn, u32, bool);

    fn next(&mut self) -> Option<Self::Item> {
        if self.remaining == 0 {
            return None;
        }
        let (lpn, seg, whole) = self.segments.next()?;
        let room = seg * SECTOR_BYTES;
        let take = u32::try_from(self.remaining).map_or(room, |left| left.min(room));
        self.remaining -= u64::from(take);
        Some((lpn, take, whole))
    }
}

impl Ssd {
    /// Wraps an FTL with the device front end.
    pub fn new(ftl: Ftl, timing: SsdTiming) -> Self {
        Ssd {
            queue: InFlight::new(timing.queue_depth),
            ftl,
            timing,
            link: Resource::new("pcie"),
            cpu: Resource::new("fw-cpu"),
            counters: CounterSet::new(),
            journal_units_since_meta: 0,
            meta_seq: 0,
            tracer: Tracer::disabled(),
            cp_phase_times: CpPhaseTimes::default(),
            scratch_sensed: SensedPages::default(),
            scratch_frags: Vec::new(),
            job: Job::default(),
            gc: IdleGc::default(),
        }
    }

    /// Installs a trace sink on the device and every layer below it
    /// (FTL, flash array).
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.ftl.set_tracer(tracer.clone());
        self.tracer = tracer;
    }

    /// Returns and resets the ISCE phase times accumulated by checkpoint
    /// vendor commands since the previous call.
    pub fn take_cp_phase_times(&mut self) -> CpPhaseTimes {
        std::mem::take(&mut self.cp_phase_times)
    }

    /// Sectors per mapping unit.
    pub fn unit_sectors(&self) -> u32 {
        self.ftl.unit_bytes() / SECTOR_BYTES
    }

    /// The wrapped FTL (stats, invariants).
    pub fn ftl(&self) -> &Ftl {
        &self.ftl
    }

    /// Mutable FTL access (tests, fault injection).
    pub fn ftl_mut(&mut self) -> &mut Ftl {
        &mut self.ftl
    }

    /// Runs `f` with the flash array's [`OpPhase`] set to `phase` and
    /// restores the previous phase however `f` returns: the device-level
    /// twin of the FTL's bracket, also used by the host-driven checkpoint
    /// to attribute its read-back-and-rewrite loop.
    pub fn in_phase<R>(&mut self, phase: OpPhase, f: impl FnOnce(&mut Self) -> R) -> R {
        let prev = self.ftl.flash_mut().set_op_phase(phase);
        let out = f(self);
        self.ftl.flash_mut().set_op_phase(prev);
        out
    }

    /// Device-level counters (`ssd.*`).
    pub fn counters(&self) -> &CounterSet {
        &self.counters
    }

    /// The flash, FTL and device counters in one set: the three count
    /// under disjoint key prefixes, so merging them loses nothing.
    pub fn all_counters(&self) -> CounterSet {
        let mut all = self.ftl.flash().counters().clone();
        all.merge(self.ftl.counters());
        all.merge(&self.counters);
        all
    }

    /// Timing parameters in effect.
    pub fn timing(&self) -> &SsdTiming {
        &self.timing
    }

    /// Total busy time of the host link (utilization reporting).
    pub fn link_busy_time(&self) -> checkin_sim::SimDuration {
        self.link.busy_time()
    }

    /// Total busy time of the firmware CPU (utilization reporting).
    pub fn cpu_busy_time(&self) -> checkin_sim::SimDuration {
        self.cpu.busy_time()
    }

    /// The host link's timeline.
    pub fn link(&self) -> &Resource {
        &self.link
    }

    /// The firmware CPU's timeline.
    pub fn cpu(&self) -> &Resource {
        &self.cpu
    }

    /// Promises that no later command is issued at an instant before `t`,
    /// so the link, the firmware CPU and the flash timelines can forget
    /// the idle gaps that are over by then. A driver whose clock only
    /// moves forward calls it now and then with the present; the windows
    /// later commands get are the same whether or not it does.
    pub fn retire_before(&mut self, t: SimTime) {
        self.link.retire_before(t);
        self.cpu.retire_before(t);
        self.ftl.retire_before(t);
    }

    /// Earliest instant at which both link and firmware CPU are idle.
    pub fn idle_at(&self) -> SimTime {
        self.link.available_at().max(self.cpu.available_at())
    }

    /// Number of mapping units `[lba, lba + sectors)` touches.
    fn unit_span(&self, lba: u64, sectors: u32) -> u64 {
        if sectors == 0 {
            return 0;
        }
        let us = self.unit_sectors() as u64;
        (lba + sectors as u64 - 1) / us - lba / us + 1
    }

    /// Firmware cost of one command's walk over `units` mapping entries
    /// that lie in `segments` distinct segments, on a table of `live`
    /// entries (a command that walks in steps prices each at the size it
    /// saw when it began), counted under `ssd.map_units` /
    /// `ssd.map_segments`.
    fn map_walk(&mut self, units: u64, segments: u64, live: u64) -> SimDuration {
        self.counters.add(Counter::SsdMapUnits, units);
        self.counters.add(Counter::SsdMapSegments, segments);
        self.ftl.map_cache().walk_cost(live, units, segments)
    }

    /// [`Ssd::map_walk`] over the `units` consecutive entries from `first`,
    /// at the table's present size.
    fn map_span(&mut self, first: Lpn, units: u64) -> SimDuration {
        let segments = MapCacheModel::segments(first, units);
        let live = self.ftl.live_entries();
        self.map_walk(units, segments.end - segments.start, live)
    }

    /// Handles a block-interface read. Returns the fragments found in the
    /// range (filtered by `req.key` when set) and the completion instant.
    ///
    /// # Errors
    ///
    /// Rejects zero-length requests and requests past the device's
    /// capacity; propagates FTL failures other than reads of
    /// never-written space (which return no fragments, modelling a
    /// zero-fill read).
    pub fn read(
        &mut self,
        req: &ReadRequest,
        at: SimTime,
    ) -> Result<(Vec<Fragment>, SimTime), SsdError> {
        let mut fragments = Vec::new();
        let finish = self.read_into(req, at, &mut fragments)?;
        Ok((fragments, finish))
    }

    /// [`Ssd::read`] into a caller-provided buffer: appends the fragments
    /// found in the range (filtered by `req.key` when set) to `fragments`
    /// and returns the completion instant. The hot-path variant — with a
    /// reused buffer the steady-state read loop performs no heap
    /// allocation.
    ///
    /// # Errors
    ///
    /// As [`Ssd::read`].
    pub fn read_into(
        &mut self,
        req: &ReadRequest,
        at: SimTime,
        fragments: &mut Vec<Fragment>,
    ) -> Result<SimTime, SsdError> {
        if req.sectors == 0 {
            return Err(SsdError::InvalidRequest("read of zero sectors".into()));
        }
        self.check_range(req.lba, req.sectors)?;
        self.counters.incr(Counter::SsdCmdRead);
        let t0 = self.admit(at);
        let cmd = self.link.schedule(t0, self.timing.cmd_overhead);
        let first_unit = Lpn(req.lba / u64::from(self.unit_sectors()));
        let units = self.unit_span(req.lba, req.sectors);
        let map_cost = self.map_span(first_unit, units);
        let cpu = self.cpu.schedule(
            cmd.finish,
            self.timing.cpu_cmd_cost + map_cost + self.timing.dram_unit_cost * units,
        );

        self.scratch_sensed.clear();
        let flash_done = self.ftl.read_span_into(
            first_unit,
            units,
            cpu.finish,
            req.key,
            &mut self.scratch_sensed,
            fragments,
        )?;
        let bytes = req.sectors as u64 * SECTOR_BYTES as u64;
        let out = self
            .link
            .schedule(flash_done, self.timing.link_transfer(bytes));
        self.counters.add(Counter::SsdHostReadBytes, bytes);
        self.queue.complete(out.finish);
        Ok(out.finish)
    }

    /// Handles a block-interface write. Returns the acknowledgement
    /// instant (data is power-safe in the device buffer from then on).
    ///
    /// # Errors
    ///
    /// Rejects zero-length, malformed merged and past-capacity requests;
    /// propagates FTL allocation failures.
    pub fn write(
        &mut self,
        req: &WriteRequest,
        kind: OobKind,
        at: SimTime,
    ) -> Result<SimTime, SsdError> {
        if req.sectors == 0 {
            return Err(SsdError::InvalidRequest("write of zero sectors".into()));
        }
        self.check_range(req.lba, req.sectors)?;
        if let WriteContent::Merged(_) = &req.content {
            if req.sectors != self.unit_sectors() {
                return Err(SsdError::InvalidRequest(
                    "merged writes cover exactly one mapping unit".into(),
                ));
            }
        }
        self.counters.incr(Counter::SsdCmdWrite);
        let wire = req.wire_bytes();
        self.counters.add(Counter::SsdHostWriteBytes, wire);
        let t0 = self.admit(at);
        let xfer = self.link.schedule(
            t0,
            self.timing.cmd_overhead + self.timing.link_transfer(wire),
        );
        let units = self.unit_span(req.lba, req.sectors);
        let map_cost = self.map_span(Lpn(req.lba / u64::from(self.unit_sectors())), units);
        let cpu = self.cpu.schedule(
            xfer.finish,
            self.timing.cpu_cmd_cost + map_cost + self.timing.dram_unit_cost * units,
        );

        // Host metadata writes (the engine superblock) are attributed to
        // the meta phase so checkpoint-window flash ops never land in the
        // run bucket; anything else stays in the caller's phase.
        let phase = if kind == OobKind::Meta {
            OpPhase::Meta
        } else {
            self.ftl.flash().op_phase()
        };
        // A record lays its bytes over the extent; a merged unit and a
        // tombstone cover every sector they name.
        let bytes = match &req.content {
            WriteContent::Record { bytes, .. } => u64::from(*bytes),
            WriteContent::Merged(_) | WriteContent::Tombstone { .. } => wire,
        };
        let writes = RecordUnits::new(self.unit_sectors(), req.lba, req.sectors, bytes);
        let mut done = self.in_phase(phase, |ssd| -> Result<SimTime, FtlError> {
            let mut done = cpu.finish;
            for (lpn, take, whole) in writes {
                let payload = match &req.content {
                    WriteContent::Record { key, version, .. } => {
                        UnitPayload::single(*key, *version, take)
                    }
                    WriteContent::Merged(frags) => {
                        UnitPayload::merged(frags.iter().copied().collect::<FragVec>())
                    }
                    // A tombstone stores a zero-byte fragment: readers
                    // filter it out, recovery scans see the deletion's
                    // version.
                    WriteContent::Tombstone { key, version } => {
                        UnitPayload::single(*key, *version, 0)
                    }
                };
                // Every host request owns the sectors it names (journal
                // commits are sector padded, home slots are unit aligned),
                // so whole-unit sector coverage implies the write may
                // replace the unit outright. Partial coverage merges
                // (read-modify-write), charged only when the old copy is
                // flash resident.
                let write = UnitWrite {
                    lpn,
                    payload,
                    whole_unit: whole,
                };
                done = done.max(ssd.ftl.write(write, kind, cpu.finish)?);
            }
            Ok(done)
        })?;

        if kind == OobKind::Journal {
            done = done.max(self.log_manager_tick(cpu.finish)?);
        }
        if kind == OobKind::Meta {
            // A host metadata write (the engine's superblock) is the
            // durability point for the mapping changes that preceded it:
            // persist the mapping log with it.
            self.ftl.persist_mapping_log();
        }
        self.queue.complete(done);
        Ok(done)
    }

    /// ISCE log manager: after enough journal traffic, persist a recovery
    /// metadata unit (target addresses + versions live in OOB already;
    /// this models the periodic mapping-log write of §III-D).
    fn log_manager_tick(&mut self, at: SimTime) -> Result<SimTime, SsdError> {
        self.journal_units_since_meta += 1;
        if self.journal_units_since_meta < META_INTERVAL_UNITS {
            return Ok(at);
        }
        self.journal_units_since_meta = 0;
        self.write_meta_unit(at)
    }

    fn write_meta_unit(&mut self, at: SimTime) -> Result<SimTime, SsdError> {
        self.meta_seq += 1;
        self.counters.incr(Counter::SsdMetaWrites);
        let lpn = Lpn(META_LPN_BASE + (self.meta_seq % 1024));
        let write = UnitWrite {
            lpn,
            payload: UnitPayload::single(u64::MAX, self.meta_seq, self.ftl.unit_bytes()),
            whole_unit: true,
        };
        let finish = self.in_phase(OpPhase::Meta, |ssd| ssd.ftl.write(write, OobKind::Meta, at))?;
        // The recovery-log write doubles as the mapping-log persistence
        // point (§III-F): trims and remap aliases become durable here.
        self.ftl.persist_mapping_log();
        Ok(finish)
    }

    /// Flush: page out all buffered units.
    ///
    /// # Errors
    ///
    /// Propagates FTL allocation failures.
    pub fn flush(&mut self, at: SimTime) -> Result<SimTime, SsdError> {
        self.counters.incr(Counter::SsdCmdFlush);
        let t0 = self.admit(at);
        let cmd = self.link.schedule(t0, self.timing.cmd_overhead);
        let done = self.ftl.flush(cmd.finish)?;
        self.queue.complete(done);
        Ok(done)
    }

    /// Deallocates (trims) a sector range, unit by unit, executed to
    /// completion in this call: the steps of [`Ssd::begin_deallocate`],
    /// each at the instant the one before ended. Holds no job slot, so a
    /// job in execution goes on untouched. Only the part of the range
    /// inside the device is trimmed. Returns when the command completed.
    pub fn deallocate(&mut self, lba: u64, sectors: u32, at: SimTime) -> SimTime {
        let (mut cursor, end) = (lba, self.clamp_end(lba, sectors));
        let mut now = self.admit_trim(at);
        let live = self.ftl.live_entries();
        while cursor < end {
            (cursor, now) = self.trim_segment(cursor, end, live, now);
        }
        self.queue.complete(now);
        now
    }

    /// Begins deallocating a sector range at `at`: one command, whose
    /// admission, transfer and command cost are booked here. Its mapping
    /// walk is left to [`Ssd::pump`] steps, one map segment each
    /// ([`MapCacheModel::SEGMENT_ENTRIES`] units), which unmap that
    /// segment's whole units; the command holds its queue slot until the
    /// last. Partial-unit trims and sectors past the device are ignored,
    /// as in [`Ssd::deallocate`].
    ///
    /// # Errors
    ///
    /// [`SsdError::InvalidRequest`] while a job is running.
    pub fn begin_deallocate(
        &mut self,
        lba: u64,
        sectors: u32,
        at: SimTime,
    ) -> Result<Progress<SimTime>, SsdError> {
        self.refuse_while_running()?;
        let end = self.clamp_end(lba, sectors);
        self.job.stage = Stage::Trim { cursor: lba, end };
        self.job.live = self.ftl.live_entries();
        self.job.next_at = self.admit_trim(at);
        Ok(Progress::PumpAt(self.job.next_at))
    }

    /// Sectors the device holds: its flash capacity.
    fn capacity_sectors(&self) -> u64 {
        self.ftl.flash().geometry().capacity_bytes() / u64::from(SECTOR_BYTES)
    }

    /// Refuses `sectors` from `lba` when they reach past the device.
    fn check_range(&self, lba: u64, sectors: u32) -> Result<(), SsdError> {
        let capacity = self.capacity_sectors();
        match lba.checked_add(u64::from(sectors)) {
            Some(end) if end <= capacity => Ok(()),
            _ => Err(SsdError::InvalidRequest(format!(
                "{sectors} sectors at LBA {lba} reach past the device's {capacity}"
            ))),
        }
    }

    /// The end of `sectors` from `lba`, cut at the device's capacity.
    fn clamp_end(&self, lba: u64, sectors: u32) -> u64 {
        lba.saturating_add(u64::from(sectors))
            .min(self.capacity_sectors())
    }

    /// Earliest instant a command arriving at `at` may start in the
    /// submission queue; traces its queue wait and the in-flight depth at
    /// start. The command's completion goes to `self.queue.complete`.
    fn admit(&mut self, at: SimTime) -> SimTime {
        let start = self.queue.admit(at);
        self.tracer.emit(|| {
            TraceEvent::new(start, TraceLayer::Queue, "admit")
                .with("wait_ns", start.duration_since(at).as_nanos())
                .with("inflight", self.queue.in_flight_at(start) as u64)
        });
        start
    }

    /// Admits a deallocation at `at` and books its transfer and command
    /// cost. Returns when its walk may begin.
    fn admit_trim(&mut self, at: SimTime) -> SimTime {
        self.counters.incr(Counter::SsdCmdDealloc);
        let t0 = self.admit(at);
        let cmd = self.link.schedule(t0, self.timing.cmd_overhead);
        let cpu = self.cpu.schedule(cmd.finish, self.timing.cpu_cmd_cost);
        cpu.finish
    }

    /// Walks and unmaps at `now` the units of `[cursor, end)` that lie
    /// in `cursor`'s map segment, on a table of `live` entries. Returns
    /// where the next segment begins and when the walk ends (`now` for
    /// an empty range).
    fn trim_segment(&mut self, cursor: u64, end: u64, live: u64, now: SimTime) -> (u64, SimTime) {
        if cursor >= end {
            return (cursor, now);
        }
        let us = u64::from(self.unit_sectors());
        let first = cursor / us;
        let segment_end =
            (first / MapCacheModel::SEGMENT_ENTRIES + 1) * MapCacheModel::SEGMENT_ENTRIES;
        let stop = end.min(segment_end * us);
        let map_cost = self.map_walk((stop - 1) / us - first + 1, 1, live);
        let cpu = self.cpu.schedule(now, map_cost);
        let units = SegmentIter {
            unit_sectors: self.unit_sectors(),
            cursor,
            end: stop,
        };
        self.in_phase(OpPhase::Dealloc, |ssd| {
            for (lpn, _seg, whole) in units {
                // Partial-unit trims are ignored (conservative, like real
                // devices which round trims inward).
                if whole {
                    ssd.ftl.deallocate(lpn);
                }
            }
        });
        (stop, cpu.finish)
    }

    /// Vendor command: one copy-on-write entry (ISC-A's unit of work),
    /// executed to completion in this call.
    ///
    /// # Errors
    ///
    /// [`SsdError::InvalidRequest`] while a job is running or when the
    /// entry's source or destination reaches past the device; propagates
    /// FTL failures from the copy path.
    pub fn cow_single(
        &mut self,
        entry: &CowEntry,
        mode: CheckpointMode,
        at: SimTime,
    ) -> Result<SimTime, SsdError> {
        self.refuse_while_running()?;
        self.check_entries(std::slice::from_ref(entry))?;
        self.counters.incr(Counter::SsdCmdCow);
        let t0 = self.admit(at);
        // Descriptor-only transfer: no payload on the link.
        let cmd = self
            .link
            .schedule(t0, self.timing.cmd_overhead + self.timing.link_transfer(16));
        let cpu = self.cpu.schedule(
            cmd.finish,
            self.timing.cpu_cmd_cost + self.timing.cpu_cow_entry_cost,
        );
        // The command's cost above decoded its one entry already.
        let entry = std::slice::from_ref(entry);
        self.start_command(entry, mode, cpu.finish, SimDuration::ZERO, false);
        Progress::PumpAt(cpu.finish).finish(|now| self.pump(now))
    }

    /// Vendor command: a batched checkpoint request carrying many CoW
    /// entries (ISC-B and up), executed to completion in this call:
    /// [`Ssd::begin_checkpoint`], then every pump step at the instant the
    /// one before asked for. Returns when the command completed.
    ///
    /// # Errors
    ///
    /// As [`Ssd::begin_checkpoint`] and [`Ssd::pump`].
    pub fn checkpoint(
        &mut self,
        entries: &[CowEntry],
        mode: CheckpointMode,
        at: SimTime,
    ) -> Result<SimTime, SsdError> {
        self.begin_checkpoint(entries, mode, at)?
            .finish(|now| self.pump(now))
    }

    /// Begins a batched checkpoint command at `at`: books its admission,
    /// the descriptor transfer and the command cost, and leaves the rest
    /// to [`Ssd::pump`] steps, each a small unit of work at
    /// its own instant. The walk decodes the batch and performs the
    /// remap class as mapping updates on the firmware CPU, at most
    /// [`MapCacheModel::SEGMENT_ENTRIES`] entries and mapping accesses a
    /// step; the gather reads the copy class's sources, one read in
    /// flight per die, a flash page sensed once for the whole batch; the
    /// scatter writes them home once the last read is in. An empty batch
    /// completes here, with the recovery metadata unit every checkpoint
    /// command closes with.
    ///
    /// # Errors
    ///
    /// [`SsdError::InvalidRequest`] while a job is running or when an
    /// entry's source or destination reaches past the device; propagates
    /// FTL failures.
    pub fn begin_checkpoint(
        &mut self,
        entries: &[CowEntry],
        mode: CheckpointMode,
        at: SimTime,
    ) -> Result<Progress<SimTime>, SsdError> {
        self.refuse_while_running()?;
        self.check_entries(entries)?;
        self.counters.incr(Counter::SsdCmdCheckpoint);
        let t0 = self.admit(at);
        let descriptor_bytes = 16 * entries.len() as u64;
        let cmd = self.link.schedule(
            t0,
            self.timing.cmd_overhead + self.timing.link_transfer(descriptor_bytes),
        );
        let cpu = self.cpu.schedule(cmd.finish, self.timing.cpu_cmd_cost);
        let entry_cost = self.timing.cpu_cow_entry_cost;
        self.start_command(entries, mode, cpu.finish, entry_cost, true);
        if entries.is_empty() {
            return self.complete_command().map(Progress::Done);
        }
        Ok(Progress::PumpAt(cpu.finish))
    }

    /// One pump step of the job in execution at `now`, the instant the
    /// previous step asked for. A walk step decodes and remaps the next
    /// entries and asks again when the firmware CPU is done with them. A
    /// gather step issues, on every die whose last gather read is in, the
    /// next entries' reads until one is in flight there, and asks again
    /// when the earliest read in flight is in; the scatter starts once
    /// the last is. A scatter step admits copy writes until one waits for
    /// a programming slot, and asks again when that slot frees: the
    /// finishes of the programs already started stay private (a
    /// foreground read may still suspend them) until a later step's
    /// admission waits for one. The step that finds every copy
    /// acknowledged completes the command. A trim step walks and unmaps
    /// one map segment and asks again when the firmware CPU is done with
    /// it; the step that walks the last completes the command. Foreground
    /// commands booked between two steps go first. Counted in
    /// `ssd.cp_pump_steps`.
    ///
    /// # Errors
    ///
    /// [`SsdError::InvalidRequest`] when no job is running; propagates
    /// FTL failures, after which the job is abandoned.
    pub fn pump(&mut self, now: SimTime) -> Result<Progress<SimTime>, SsdError> {
        if self.job.stage != Stage::Idle {
            debug_assert!(now >= self.job.next_at, "a pump step before it is due");
            self.counters.incr(Counter::SsdCpPumpSteps);
        }
        let progress = self.step(now);
        match progress.as_ref().ok().and_then(Progress::due) {
            Some(due) => self.job.next_at = due,
            // Completed, or abandoned on a failure.
            None => self.job.stage = Stage::Idle,
        }
        progress
    }

    /// Finishes the job in execution at once: every remaining pump step,
    /// each at the instant the one before asked for. Returns when the
    /// command completed, or `None` when no job was running.
    ///
    /// # Errors
    ///
    /// As [`Ssd::pump`].
    pub fn drain(&mut self) -> Result<Option<SimTime>, SsdError> {
        if self.job.stage == Stage::Idle {
            return Ok(None);
        }
        Progress::PumpAt(self.job.next_at)
            .finish(|now| self.pump(now))
            .map(Some)
    }

    fn refuse_while_running(&self) -> Result<(), SsdError> {
        if self.job.stage != Stage::Idle {
            return Err(SsdError::InvalidRequest("a job is still running".into()));
        }
        Ok(())
    }

    /// Refuses a batch in which an entry's source or destination reaches
    /// past the device. A remap aliases `sectors` at the destination, a
    /// copy writes `dst_sectors`.
    fn check_entries(&self, entries: &[CowEntry]) -> Result<(), SsdError> {
        entries.iter().try_for_each(|e| {
            self.check_range(e.src_lba, e.sectors)?;
            self.check_range(e.dst_lba, e.sectors.max(e.dst_sectors))
        })
    }

    /// Takes an entry batch into the job, its walk due at `at`, each
    /// entry costing the walk `entry_cost` to decode.
    fn start_command(
        &mut self,
        entries: &[CowEntry],
        mode: CheckpointMode,
        at: SimTime,
        entry_cost: SimDuration,
        closes_with_meta: bool,
    ) {
        let job = &mut self.job;
        job.batch.clear();
        job.batch.extend_from_slice(entries);
        job.entries.clear();
        job.segments.clear();
        job.stage = Stage::Walk(mode);
        job.closes_with_meta = closes_with_meta;
        job.entry_cost = entry_cost;
        job.live = self.ftl.live_entries();
        job.walked = 0;
        job.remapped = 0;
        job.remapped_units = 0;
        job.next = 0;
        job.units = None;
        job.skipped = 0;
        job.copied = 0;
        job.decoded = at;
        job.gathering = at;
        job.booked = at;
        job.written = at;
        job.next_at = at;
    }

    /// The job's next step at `now`, passing to the next stage when one
    /// has nothing left.
    fn step(&mut self, now: SimTime) -> Result<Progress<SimTime>, SsdError> {
        loop {
            match self.job.stage {
                Stage::Idle => {
                    return Err(SsdError::InvalidRequest("no job is running".into()));
                }
                Stage::Walk(mode) if self.job.walked < self.job.batch.len() => {
                    let walked =
                        self.in_phase(OpPhase::CheckpointRemap, |ssd| ssd.walk(mode, now))?;
                    // A step that booked nothing (a single CoW's copy
                    // entry) hands on at once.
                    if walked > now {
                        return Ok(Progress::PumpAt(walked));
                    }
                }
                Stage::Walk(_) => {
                    self.trace_remaps();
                    self.start_gather(now);
                    self.job.stage = Stage::Gather;
                }
                Stage::Gather => {
                    let gathered = self.in_phase(OpPhase::CheckpointCopy, |ssd| ssd.gather(now))?;
                    if let Some(due) = gathered {
                        return Ok(Progress::PumpAt(due));
                    }
                    self.job.stage = Stage::Scatter;
                }
                Stage::Scatter => {
                    return match self.in_phase(OpPhase::CheckpointCopy, |ssd| ssd.scatter(now))? {
                        Some(due) => Ok(Progress::PumpAt(due)),
                        None => self.complete_command().map(Progress::Done),
                    };
                }
                Stage::Trim { cursor, end } => {
                    let (stop, walked) = self.trim_segment(cursor, end, self.job.live, now);
                    if stop < end {
                        self.job.stage = Stage::Trim { cursor: stop, end };
                        return Ok(Progress::PumpAt(walked));
                    }
                    self.queue.complete(walked);
                    return Ok(Progress::Done(walked));
                }
            }
        }
    }

    /// One walk step at `now`: decodes the batch's next entries, at most
    /// [`WALK_STEP_ENTRIES`] of them and of mapping accesses, remaps the
    /// remap class among them — two table accesses per unit, source
    /// lookup and target update — and queues the copy class for the
    /// gather. Books their decode and the walk on the firmware CPU from
    /// `now`: a miss for every segment no earlier step touched, a hit for
    /// every other access. Returns when the booking ends.
    fn walk(&mut self, mode: CheckpointMode, now: SimTime) -> Result<SimTime, SsdError> {
        let us = self.unit_sectors();
        let from = self.job.walked;
        let (mut decoded, mut accesses, mut misses) = (0u64, 0u64, 0u64);
        while decoded < WALK_STEP_ENTRIES && accesses < WALK_STEP_ENTRIES {
            let job = &mut self.job;
            let Some(&e) = job.batch.get(job.walked) else {
                break;
            };
            job.walked += 1;
            decoded += 1;
            if matches!(plan_entry(&e, mode, us), EntryPlan::Copy) {
                job.entries.push(e);
                continue;
            }
            let units = u64::from((e.sectors / us).max(1));
            accesses += 2 * units;
            for lba in [e.src_lba, e.dst_lba] {
                for segment in MapCacheModel::segments(Lpn(lba / u64::from(us)), units) {
                    if let Err(at) = job.segments.binary_search(&segment) {
                        job.segments.insert(at, segment);
                        misses += 1;
                    }
                }
            }
        }
        let decode = self.job.entry_cost * decoded;
        let map_cost = self.map_walk(accesses, misses, self.job.live);
        let batch = std::mem::take(&mut self.job.batch);
        let walked = batch.get(from..self.job.walked).unwrap_or_default();
        let remapped = self.remap_entries(walked, mode, us);
        self.job.batch = batch;
        remapped?;
        if decode + map_cost == SimDuration::ZERO {
            return Ok(now);
        }
        let cpu = self.cpu.schedule(now, decode + map_cost);
        if accesses > 0 {
            self.cp_phase_times.remap += cpu.finish.saturating_duration_since(now) - decode;
        }
        self.job.booked = cpu.finish;
        Ok(cpu.finish)
    }

    /// Moves the mapping of every remap-class entry among `entries`.
    fn remap_entries(
        &mut self,
        entries: &[CowEntry],
        mode: CheckpointMode,
        us: u32,
    ) -> Result<(), SsdError> {
        for e in entries {
            if matches!(plan_entry(e, mode, us), EntryPlan::Copy) {
                continue;
            }
            let units = u64::from((e.sectors / us).max(1));
            for k in 0..units {
                let src = Lpn(e.src_lba / u64::from(us) + k);
                let dst = Lpn(e.dst_lba / u64::from(us) + k);
                match self.ftl.remap(dst, src) {
                    Ok(()) => {}
                    // A padded log's tail unit may hold no payload and so
                    // was never written; skip it.
                    Err(FtlError::Unmapped(_)) => {
                        self.counters.incr(Counter::SsdCowMissingSrc);
                    }
                    Err(err) => return Err(err.into()),
                }
            }
            self.counters.incr(Counter::SsdRemapEntries);
            self.job.remapped += 1;
            self.job.remapped_units += units;
        }
        Ok(())
    }

    /// Traces the walk's remap class once the walk is over.
    fn trace_remaps(&self) {
        let job = &self.job;
        if job.remapped == 0 {
            return;
        }
        let (at, entries, units) = (job.decoded, job.remapped, job.remapped_units * 2);
        self.tracer.emit(|| {
            TraceEvent::new(at, TraceLayer::Isce, "remap_batch")
                .with("entries", entries)
                .with("units", units)
        });
    }

    /// Sets the copy class up for its gather from `now`: each entry in
    /// the lane of the die its source's first flash page lies on (its
    /// die when the gather began; a source on no flash page reads from
    /// the write buffer or from nothing), every lane due at once.
    fn start_gather(&mut self, now: SimTime) {
        let us = u64::from(self.unit_sectors());
        let g = *self.ftl.flash().geometry();
        let job = &mut self.job;
        job.gathering = now;
        job.last_read = now;
        job.gathered.clear();
        job.gathered.resize(job.entries.len(), (0, 0));
        job.by_die.clear();
        for (i, e) in job.entries.iter().enumerate() {
            let first = e.src_lba / us;
            let last = (e.src_lba + u64::from(e.sectors.max(1)) - 1) / us;
            let die = (first..=last)
                .find_map(|unit| self.ftl.flash_page_of(Lpn(unit)))
                .map_or(u64::MAX, |page| g.die_of_block(g.block_of(page)));
            job.by_die.push((die, i));
        }
        job.by_die.sort_unstable();
        job.lanes.clear();
        job.lanes_due.clear();
        let mut start = 0;
        for die in job.by_die.chunk_by(|a, b| a.0 == b.0) {
            job.lanes.push((start, start + die.len()));
            start += die.len();
        }
        for lane in 0..job.lanes.len() {
            job.lanes_due.push(Reverse((now, lane)));
        }
        job.sensed.clear();
    }

    /// One gather step at `now`: on every die whose gather read is in by
    /// `now`, issues the next entries' reads at `now` until one is still
    /// in flight after it. Returns when the earliest read in flight is
    /// in, else when the last is (if after `now`), else `None`: the
    /// gather is over.
    fn gather(&mut self, now: SimTime) -> Result<Option<SimTime>, SsdError> {
        while let Some(&Reverse((due, lane))) = self.job.lanes_due.peek() {
            if due > now {
                return Ok(Some(due));
            }
            self.job.lanes_due.pop();
            while let Some(entry) = self.next_in_lane(lane) {
                let done = self.gather_entry(entry, now)?;
                self.job.last_read = self.job.last_read.max(done);
                if done > now {
                    self.job.lanes_due.push(Reverse((done, lane)));
                    break;
                }
            }
        }
        let last = self.job.last_read;
        Ok((last > now).then_some(last))
    }

    /// The copy entry `lane` gathers next, taken off the lane; `None` once
    /// the lane is empty.
    fn next_in_lane(&mut self, lane: usize) -> Option<usize> {
        let job = &mut self.job;
        let (next, end) = job.lanes.get_mut(lane)?;
        if next == end {
            return None;
        }
        *next += 1;
        job.by_die.get(*next - 1).map(|&(_, entry)| entry)
    }

    /// Reads copy entry `i`'s record from its journal units at `now` —
    /// a page this command sensed already is a read-buffer hit — and
    /// records its `(bytes, version)`. Returns when the read is in.
    fn gather_entry(&mut self, i: usize, now: SimTime) -> Result<SimTime, SsdError> {
        let us = u64::from(self.unit_sectors());
        let Some(&e) = self.job.entries.get(i) else {
            return Ok(now);
        };
        let first = e.src_lba / us;
        let units = self.unit_span(e.src_lba, e.sectors.max(1));
        let missing = (first..first + units)
            .filter(|&unit| !self.ftl.is_mapped(Lpn(unit)))
            .count();
        self.counters.add(Counter::SsdCowMissingSrc, missing as u64);
        self.scratch_frags.clear();
        let done = self.ftl.read_span_into(
            Lpn(first),
            units,
            now,
            Some(e.key),
            &mut self.job.sensed,
            &mut self.scratch_frags,
        )?;
        let frags = &self.scratch_frags;
        if let Some(slot) = self.job.gathered.get_mut(i) {
            *slot = (
                frags.iter().map(|f| f.bytes).sum(),
                frags.iter().map(|f| f.version).max().unwrap_or(0),
            );
        }
        Ok(done)
    }

    /// Writes the copy class home from its cursor on, every write issued
    /// at `now`, and stops after the first that waited for a programming
    /// slot, returning when the slot freed. Once every write is issued,
    /// returns the last acknowledgement if it lies after `now` (a
    /// read-modify-write merge's read may delay one), `None` if not.
    fn scatter(&mut self, now: SimTime) -> Result<Option<SimTime>, SsdError> {
        while let Some(write) = self.next_copy_write() {
            // Same ownership rule as host writes (see write()).
            let (ack, slot) = self.ftl.write_slotted(write, OobKind::Data, now)?;
            self.job.written = self.job.written.max(ack);
            if slot > now {
                return Ok(Some(slot));
            }
        }
        Ok((self.job.written > now).then_some(self.job.written))
    }

    /// The copy class's next unit write, advancing its units: the
    /// gathered record laid over its destination extent unit by unit.
    /// Entries whose gather found nothing are skipped and counted.
    fn next_copy_write(&mut self) -> Option<UnitWrite> {
        let us = self.unit_sectors();
        let job = &mut self.job;
        loop {
            let e = *job.entries.get(job.next)?;
            let &(bytes, version) = job.gathered.get(job.next)?;
            if bytes == 0 {
                self.counters.incr(Counter::SsdCowSkippedEntries);
                job.skipped += 1;
                job.next += 1;
                continue;
            }
            let sectors = e.dst_sectors.max(1);
            let units = job
                .units
                .get_or_insert_with(|| RecordUnits::new(us, e.dst_lba, sectors, bytes.into()));
            let Some((lpn, take, whole)) = units.next() else {
                // The record is home.
                self.counters.incr(Counter::SsdCopyEntries);
                job.copied += 1;
                job.next += 1;
                job.units = None;
                continue;
            };
            return Some(UnitWrite {
                lpn,
                payload: UnitPayload::single(e.key, version, take),
                whole_unit: whole,
            });
        }
    }

    /// Completes the command in execution once its scatter is written:
    /// closes a batched checkpoint with its recovery metadata unit and
    /// frees its queue slot. Returns the completion instant.
    fn complete_command(&mut self) -> Result<SimTime, SsdError> {
        let job = &mut self.job;
        job.stage = Stage::Idle;
        let mut done = job.booked.max(job.written);
        if !job.entries.is_empty() {
            self.cp_phase_times.copy += job.written.saturating_duration_since(job.gathering);
            let (at, entries, copied, skipped) = (
                job.gathering,
                job.entries.len() as u64,
                job.copied,
                job.skipped,
            );
            self.tracer.emit(|| {
                TraceEvent::new(at, TraceLayer::Isce, "copy_batch")
                    .with("entries", entries)
                    .with("copied", copied)
                    .with("skipped", skipped)
            });
        }
        if self.job.closes_with_meta {
            // Checkpoint completion persists a metadata unit (recovery
            // point).
            done = done.max(self.write_meta_unit(done)?);
        }
        self.queue.complete(done);
        Ok(done)
    }

    /// Deallocator: background GC at `at`, run to its end in this call —
    /// [`Ssd::begin_background_gc`] with no scrub round, then every
    /// [`Ssd::pump_gc`] step at the instant the one before asked for.
    /// Background GC still running is finished first. Returns the number
    /// of background rounds run and the completion instant.
    ///
    /// # Errors
    ///
    /// Propagates FTL failures from GC migration.
    pub fn background_gc(
        &mut self,
        at: SimTime,
        max_rounds: u32,
    ) -> Result<(u32, SimTime), SsdError> {
        self.drain_gc()?;
        let done = self
            .begin_background_gc(at, max_rounds, 0)?
            .finish(|now| self.pump_gc(now))?;
        Ok((self.gc.rounds, done))
    }

    /// Deallocator: begins background GC in the idle window from `at`.
    /// A round begins at its own instant — `at` for the first, the end
    /// of the round before for the next — while the FTL is under soft
    /// pressure and the device is idle then (link and firmware CPU free),
    /// `max_rounds` at most; once one does not, one static
    /// wear-leveling round runs if the device is idle then and the wear
    /// skew asks for one. Each round is the FTL's paced round, advanced
    /// by [`Ssd::pump_gc`] steps, so foreground commands booked between
    /// two steps go ahead of its reads, page-outs and erase. Its last
    /// step is one [`Ssd::background_scrub`] round of `scrub_pages` at
    /// the instant the last round ended. Returns when the first step is
    /// due, or `Done` at the scrub's end when no round began. Counted in
    /// `ssd.background_gc_rounds` and `ssd.wear_level_rounds` as each
    /// round begins.
    ///
    /// # Errors
    ///
    /// [`SsdError::InvalidRequest`] while background GC still runs;
    /// propagates media failures of the scrub reads.
    pub fn begin_background_gc(
        &mut self,
        at: SimTime,
        max_rounds: u32,
        scrub_pages: u32,
    ) -> Result<Progress<SimTime>, SsdError> {
        if self.gc.next_at.is_some() {
            return Err(SsdError::InvalidRequest(
                "background GC is still running".into(),
            ));
        }
        self.gc = IdleGc {
            rounds_left: max_rounds,
            scrub_pages,
            ..IdleGc::default()
        };
        let progress = self.next_background_round(at);
        self.note_gc(&progress);
        progress
    }

    /// One step of the background GC at `now`, the instant the previous
    /// step asked for: a step of the round in flight, or — at the end of
    /// a round, or when a foreground round finished it — the decision
    /// whether the next round begins, else the closing scrub.
    ///
    /// # Errors
    ///
    /// [`SsdError::InvalidRequest`] when no background GC runs;
    /// propagates FTL failures, after which it is abandoned.
    pub fn pump_gc(&mut self, now: SimTime) -> Result<Progress<SimTime>, SsdError> {
        let Some(due) = self.gc.next_at else {
            return Err(SsdError::InvalidRequest(
                "no background GC is running".into(),
            ));
        };
        debug_assert!(now >= due, "a GC step before it is due");
        let progress = if self.ftl.gc_due().is_some() {
            // A round's end is a step of its own: the next round is
            // decided at that instant.
            self.ftl
                .pump_gc(now)
                .map(|(Progress::PumpAt(t) | Progress::Done(t))| Progress::PumpAt(t))
                .map_err(SsdError::from)
        } else {
            self.next_background_round(now)
        };
        self.note_gc(&progress);
        progress
    }

    /// Runs the background GC still running to its end. Returns when it
    /// ended, or `None` when none was running.
    ///
    /// # Errors
    ///
    /// As [`Ssd::pump_gc`].
    pub fn drain_gc(&mut self) -> Result<Option<SimTime>, SsdError> {
        self.gc
            .next_at
            .map(|due| Progress::PumpAt(due).finish(|now| self.pump_gc(now)))
            .transpose()
    }

    /// When the background GC's next step is due; `None` when none runs.
    pub fn gc_due(&self) -> Option<SimTime> {
        self.gc.next_at
    }

    /// Between two rounds at `at`: begins the next background round,
    /// else the wear-leveling round, else scrubs and ends.
    fn next_background_round(&mut self, at: SimTime) -> Result<Progress<SimTime>, SsdError> {
        let idle = self.idle_at() <= at;
        if self.gc.rounds_left > 0 && self.ftl.wants_background_gc() && idle {
            if let Some(due) = self.ftl.begin_gc_round(at, GcTrigger::Background)? {
                self.gc.rounds_left -= 1;
                self.gc.rounds += 1;
                self.counters.incr(Counter::SsdBackgroundGcRounds);
                return Ok(Progress::PumpAt(due));
            }
        }
        // Once a round does not begin, none does.
        self.gc.rounds_left = 0;
        if !self.gc.levelled && idle {
            self.gc.levelled = true;
            if let Some(due) = self.ftl.begin_wear_leveling_round(at)? {
                self.counters.incr(Counter::SsdWearLevelRounds);
                return Ok(Progress::PumpAt(due));
            }
        }
        let (_, scrubbed) = self.background_scrub(at, self.gc.scrub_pages)?;
        Ok(Progress::Done(scrubbed))
    }

    /// Keeps the background GC's due instant, clearing it when it ended
    /// or failed.
    fn note_gc(&mut self, progress: &Result<Progress<SimTime>, SsdError>) {
        self.gc.next_at = progress.as_ref().ok().and_then(Progress::due);
    }

    /// Deallocator: run one background integrity-scrub round at `at` if
    /// the device is idle, verifying up to `max_pages` pages'
    /// checksums. Background GC runs one as its last step. Returns the
    /// scrub outcome and the completion instant.
    ///
    /// # Errors
    ///
    /// Propagates media failures of the scrub reads themselves.
    pub fn background_scrub(
        &mut self,
        at: SimTime,
        max_pages: u32,
    ) -> Result<(ScrubReport, SimTime), SsdError> {
        if max_pages == 0 || self.idle_at() > at {
            return Ok((ScrubReport::default(), at));
        }
        let (report, done) = self.ftl.scrub_round(at, max_pages)?;
        if report.pages_scanned > 0 {
            self.counters.incr(Counter::SsdBackgroundScrubRounds);
        }
        Ok((report, done))
    }

    /// True while the simulated device is frozen by an injected power cut.
    pub fn powered_off(&self) -> bool {
        self.ftl.flash().powered_off()
    }

    /// Sudden-power-off recovery (§III-G): powers the array back on,
    /// rebuilds the whole FTL from the OOB stream, the persisted mapping
    /// log, and the capacitor-backed write buffer, and resets the device
    /// log-manager state. Counted in `ssd.spor_recoveries`.
    ///
    /// # Errors
    ///
    /// Propagates [`checkin_ftl::RecoveryError`] when the rebuild finds
    /// the surviving state inconsistent.
    pub fn recover_power_loss(&mut self) -> Result<RebuildStats, SsdError> {
        self.ftl.flash_mut().power_on();
        let stats = self.ftl.rebuild_after_power_loss()?;
        self.journal_units_since_meta = 0;
        // The job in execution and the background GC died with the
        // power: what they acknowledged is in the rebuilt FTL, the rest
        // never happened.
        self.job.stage = Stage::Idle;
        self.gc.next_at = None;
        self.counters.incr(Counter::SsdSporRecoveries);
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use checkin_flash::{FaultConfig, FaultPlan, FlashArray, FlashGeometry, FlashTiming, Ppn};
    use checkin_ftl::FtlConfig;
    use checkin_sim::Total;

    fn ssd(unit_bytes: u32) -> Ssd {
        ssd_caching(FlashGeometry::small(), unit_bytes, None)
    }

    /// [`ssd`] on `geometry`, whose mapping cache holds `cache` entries.
    fn ssd_caching(geometry: FlashGeometry, unit_bytes: u32, cache: Option<u64>) -> Ssd {
        let flash = FlashArray::new(geometry, FlashTiming::mlc());
        let ftl = Ftl::new(
            flash,
            FtlConfig {
                unit_bytes,
                write_points: 2,
                gc_threshold_blocks: 4,
                gc_soft_threshold_blocks: 8,
                map_cache_entries: cache,
                ..FtlConfig::default()
            },
        )
        .unwrap();
        Ssd::new(ftl, SsdTiming::paper_default())
    }

    fn record(lba: u64, sectors: u32, key: u64, version: u64) -> WriteRequest {
        WriteRequest {
            lba,
            sectors,
            content: WriteContent::Record {
                key,
                version,
                bytes: sectors * SECTOR_BYTES,
            },
        }
    }

    #[test]
    fn write_then_read_roundtrip() {
        let mut s = ssd(512);
        let t = s
            .write(&record(10, 2, 7, 3), OobKind::Data, SimTime::ZERO)
            .unwrap();
        let (frags, _) = s
            .read(
                &ReadRequest {
                    lba: 10,
                    sectors: 2,
                    key: Some(7),
                },
                t,
            )
            .unwrap();
        assert_eq!(frags.len(), 2, "one fragment per 512B unit");
        assert!(frags.iter().all(|f| f.version == 3));
    }

    #[test]
    fn read_of_unwritten_space_returns_nothing() {
        let mut s = ssd(512);
        let (frags, t) = s
            .read(
                &ReadRequest {
                    lba: 100,
                    sectors: 4,
                    key: None,
                },
                SimTime::ZERO,
            )
            .unwrap();
        assert!(frags.is_empty());
        assert!(t > SimTime::ZERO, "still pays interface costs");
    }

    #[test]
    fn zero_sector_requests_rejected() {
        let mut s = ssd(512);
        assert!(matches!(
            s.read(
                &ReadRequest {
                    lba: 0,
                    sectors: 0,
                    key: None
                },
                SimTime::ZERO
            ),
            Err(SsdError::InvalidRequest(_))
        ));
        assert!(matches!(
            s.write(&record(0, 0, 1, 1), OobKind::Data, SimTime::ZERO),
            Err(SsdError::InvalidRequest(_))
        ));
    }

    #[test]
    fn merged_write_must_be_one_sector() {
        let mut s = ssd(512);
        let bad = WriteRequest {
            lba: 0,
            sectors: 2,
            content: WriteContent::Merged(vec![Fragment {
                key: 1,
                version: 1,
                bytes: 128,
            }]),
        };
        assert!(matches!(
            s.write(&bad, OobKind::Journal, SimTime::ZERO),
            Err(SsdError::InvalidRequest(_))
        ));
    }

    /// On 512 B units an LBA is an LPN, and the ISCE's first
    /// recovery-log unit lives at `META_LPN_BASE + 1`: neither a write
    /// nor a CoW entry reaches it, or anything else past the device.
    #[test]
    fn a_request_past_the_device_cannot_reach_the_recovery_log() {
        let (mut s, meta, z) = (ssd(512), META_LPN_BASE + 1, SimTime::ZERO);
        let last = s.capacity_sectors() - 1;
        let refused = |r: Result<_, SsdError>| matches!(r, Err(SsdError::InvalidRequest(_)));
        assert!(refused(s.write(&record(meta, 1, 7, 1), OobKind::Data, z)));
        assert!(refused(s.write(&record(last, 2, 7, 1), OobKind::Data, z)));
        let t = s
            .write(&record(last, 1, 7, 1), OobKind::Journal, z)
            .unwrap();
        let entry = |src_lba, dst_lba| CowEntry {
            src_lba,
            dst_lba,
            sectors: 1,
            dst_sectors: 1,
            key: 7,
            merged: false,
        };
        let remap = CheckpointMode::Remap;
        assert!(refused(s.cow_single(&entry(last, meta), remap, t)));
        let batch = [entry(last, 0), entry(meta, 1)];
        assert!(refused(s.checkpoint(&batch, remap, t)));
        let commands = [
            Counter::SsdCmdWrite,
            Counter::SsdCmdCow,
            Counter::SsdCmdCheckpoint,
        ];
        assert_eq!(commands.map(|c| s.counters().get(c)), [1, 0, 0]);
        assert!(!s.ftl().is_mapped(Lpn(meta)) && !s.ftl().is_mapped(Lpn(0)));
    }

    /// A write past the device does not grow the mapping table to its
    /// address, and a trim reaching past the device trims what lies
    /// inside it.
    #[test]
    fn a_request_past_the_device_does_not_grow_the_mapping_table() {
        let (mut s, z) = (ssd(512), SimTime::ZERO);
        let before = s.ftl().mapping_bytes();
        let far = s.write(&record(1 << 25, 1, 7, 1), OobKind::Data, z);
        assert!(matches!(far, Err(SsdError::InvalidRequest(_))));
        assert_eq!(s.ftl().mapping_bytes(), before);
        let last = s.capacity_sectors() - 1;
        let t = s.write(&record(last, 1, 7, 1), OobKind::Data, z).unwrap();
        let held = s.ftl().mapping_bytes();
        s.deallocate(last, u32::MAX, t);
        assert!(!s.ftl().is_mapped(Lpn(last)));
        s.deallocate(u64::MAX - 1, 8, t);
        assert_eq!(s.ftl().mapping_bytes(), held);
    }

    #[test]
    fn checkpoint_remap_moves_mapping_without_programs() {
        let mut s = ssd(512);
        // Journal write at lba 1000, checkpoint to home lba 8.
        let t = s
            .write(&record(1000, 2, 5, 9), OobKind::Journal, SimTime::ZERO)
            .unwrap();
        let t = s.flush(t).unwrap();
        let programs_before = s.ftl().flash().counters().total(Total::FlashProgram);
        let entry = CowEntry {
            src_lba: 1000,
            dst_lba: 8,
            sectors: 2,
            dst_sectors: 2,
            key: 5,
            merged: false,
        };
        let t = s.checkpoint(&[entry], CheckpointMode::Remap, t).unwrap();
        let (frags, _) = s
            .read(
                &ReadRequest {
                    lba: 8,
                    sectors: 2,
                    key: Some(5),
                },
                t,
            )
            .unwrap();
        assert_eq!(frags.len(), 2);
        assert_eq!(s.counters().get(Counter::SsdRemapEntries), 1);
        // Only the checkpoint metadata unit may have been buffered; no
        // data-copy program happened synchronously.
        let programs_after = s.ftl().flash().counters().total(Total::FlashProgram);
        assert_eq!(programs_after, programs_before);
    }

    #[test]
    fn checkpoint_copy_mode_programs_data() {
        let mut s = ssd(512);
        let t = s
            .write(&record(1000, 2, 5, 9), OobKind::Journal, SimTime::ZERO)
            .unwrap();
        let t = s.flush(t).unwrap();
        let entry = CowEntry {
            src_lba: 1000,
            dst_lba: 8,
            sectors: 2,
            dst_sectors: 2,
            key: 5,
            merged: false,
        };
        let t = s.checkpoint(&[entry], CheckpointMode::Copy, t).unwrap();
        assert_eq!(s.counters().get(Counter::SsdCopyEntries), 1);
        let (frags, _) = s
            .read(
                &ReadRequest {
                    lba: 8,
                    sectors: 2,
                    key: Some(5),
                },
                t,
            )
            .unwrap();
        assert_eq!(frags.len(), 2);
        assert_eq!(frags[0].version, 9);
    }

    /// A copy batch is one command: its gather phase senses a journal
    /// page once for every entry whose log lies on it.
    #[test]
    fn a_copy_batch_senses_each_journal_page_once() {
        let mut s = ssd(512);
        let mut t = SimTime::ZERO;
        for i in 0..16u64 {
            t = s
                .write(&record(1000 + i, 1, i, 2), OobKind::Journal, t)
                .unwrap();
        }
        t = s.flush(t).unwrap();
        let pages: std::collections::BTreeSet<Ppn> = (0..16)
            .map(|i| s.ftl().flash_page_of(Lpn(1000 + i)).expect("flushed"))
            .collect();
        assert!(pages.len() < 16, "sixteen logs share {} pages", pages.len());
        let entries: Vec<CowEntry> = (0..16u64)
            .map(|i| CowEntry {
                src_lba: 1000 + i,
                dst_lba: 8 * i,
                sectors: 1,
                dst_sectors: 1,
                key: i,
                merged: false,
            })
            .collect();
        let reads = |s: &Ssd| s.ftl().flash().counters().total(Total::FlashRead);
        let reads_before = reads(&s);
        let t = s.checkpoint(&entries, CheckpointMode::Copy, t).unwrap();
        assert_eq!(reads(&s) - reads_before, pages.len() as u64);
        assert_eq!(s.counters().get(Counter::SsdCopyEntries), 16);
        for i in 0..16u64 {
            let req = ReadRequest {
                lba: 8 * i,
                sectors: 1,
                key: Some(i),
            };
            let (frags, _) = s.read(&req, t).unwrap();
            assert_eq!(frags.len(), 1, "key {i} copied home");
        }
    }

    /// A copy checkpoint of 256 one-sector logs on an idle one-die
    /// device: the scatter outruns the two programming slots, so most of
    /// its steps end on a write that waited for a program.
    fn paced_copy_fixture() -> (Ssd, Vec<CowEntry>, SimTime) {
        let geometry = FlashGeometry {
            channels: 1,
            dies_per_channel: 1,
            blocks_per_plane: 64,
            ..FlashGeometry::small()
        };
        let ftl = Ftl::new(
            FlashArray::new(geometry, FlashTiming::mlc()),
            FtlConfig {
                unit_bytes: 512,
                write_points: 2,
                gc_threshold_blocks: 4,
                gc_soft_threshold_blocks: 8,
                ..FtlConfig::default()
            },
        )
        .unwrap();
        let mut s = Ssd::new(ftl, SsdTiming::paper_default());
        let mut t = SimTime::ZERO;
        for i in 0..256u64 {
            t = s
                .write(&record(1000 + i, 1, i, 2), OobKind::Journal, t)
                .unwrap();
        }
        let idle = s.flush(t).unwrap() + SimDuration::from_millis(50);
        let entries = (0..256u64)
            .map(|i| CowEntry {
                src_lba: 1000 + i,
                dst_lba: 8 * i,
                sectors: 1,
                dst_sectors: 1,
                key: i,
                merged: false,
            })
            .collect();
        (s, entries, idle)
    }

    /// With no foreground traffic, draining the pump books what the
    /// scatter booked when it was one burst of writes at the gather's
    /// finish: the instants, die time and media operations below were
    /// read off that burst, and the command ends on the acknowledgement
    /// that waited longest. The gather is no burst: its one die senses
    /// the 33 journal pages one read in flight at a time, so each sense
    /// waits for the transfer before it and everything after the first
    /// lands 32 page transfers later than behind the burst. Every scatter
    /// step but the last ends on a write that waited for a programming
    /// slot; the step after it starts on the slot that freed, so half as
    /// many writes wait as in the burst (30). One walk step decodes the
    /// 256 entries, and a gather step issues the read of each page.
    #[test]
    fn a_drained_paced_checkpoint_books_the_burst_instants() {
        let (mut s, entries, idle) = paced_copy_fixture();
        let tracer = Tracer::ring_buffered(1 << 12);
        s.set_tracer(tracer.clone());
        let flash = |s: &Ssd| {
            let f = s.ftl().flash();
            let c = f.counters();
            let busy: Vec<SimDuration> = f.dies().map(Resource::busy_time).collect();
            (
                c.total(Total::FlashProgram),
                c.total(Total::FlashRead),
                busy,
            )
        };
        let (programs0, reads0, busy0) = flash(&s);
        let waits0 = s.ftl().counters().get(Counter::FtlBufferSlotWaits);
        let done = s.checkpoint(&entries, CheckpointMode::Copy, idle).unwrap();
        let lag = FlashTiming::mlc().transfer_time(4096).as_nanos() * 32;
        assert_eq!(done.duration_since(idle).as_nanos(), 11_479_820 + lag);
        let (programs, reads, busy) = flash(&s);
        assert_eq!((programs - programs0, reads - reads0), (17, 33));
        let busy: Vec<u64> = busy
            .iter()
            .zip(&busy0)
            .map(|(&b, &b0)| (b - b0).as_nanos())
            .collect();
        assert_eq!(busy, [12_705_000]);
        let mut finishes: Vec<u64> = tracer
            .drain()
            .iter()
            .filter(|e| e.op == "page_out")
            .filter_map(|e| e.fields().iter().find(|f| f.0 == "finish_ns"))
            .map(|f| f.1 - idle.as_nanos())
            .collect();
        finishes.sort_unstable();
        let tprog = 660_000;
        let want: Vec<u64> = (0..17).map(|i| 2_239_820 + lag + i * tprog).collect();
        assert_eq!(finishes, want);
        let waits = s.ftl().counters().get(Counter::FtlBufferSlotWaits) - waits0;
        assert_eq!(waits, 15);
        let (walk, gather) = (1, 33);
        assert_eq!(
            s.counters().get(Counter::SsdCpPumpSteps),
            walk + gather + waits + 1
        );
        assert_eq!(s.counters().get(Counter::SsdCopyEntries), 256);
        assert_eq!(s.drain().unwrap(), None, "the command completed");
    }

    /// A begun copy checkpoint asks for its first step when its command
    /// is decoded and writes nothing home before the scatter: the walk
    /// and the gather steps come first, each due later than the one
    /// before. While it runs, the device refuses another job, and the
    /// refusals book nothing: the command completes when an undisturbed
    /// twin's one-call command does, with the same counters.
    #[test]
    fn a_paced_checkpoint_writes_home_only_when_pumped() {
        let (mut twin, entries, idle) = paced_copy_fixture();
        let undisturbed = twin
            .checkpoint(&entries, CheckpointMode::Copy, idle)
            .unwrap();
        let (mut s, entries, idle) = paced_copy_fixture();
        let Progress::PumpAt(mut due) = s
            .begin_checkpoint(&entries, CheckpointMode::Copy, idle)
            .unwrap()
        else {
            panic!("a copy class is scattered by the pump");
        };
        assert!(!s.ftl().is_mapped(Lpn(0)), "nothing written before a step");
        let again = s
            .begin_checkpoint(&entries, CheckpointMode::Copy, due)
            .unwrap_err();
        assert!(matches!(again, SsdError::InvalidRequest(_)), "{again}");
        let mut steps = 0;
        while !s.ftl().is_mapped(Lpn(0)) {
            let Progress::PumpAt(next) = s.pump(due).unwrap() else {
                panic!("one step cannot write 256 units through two slots");
            };
            assert!(next > due, "step {steps} asked for {next} at {due}");
            (due, steps) = (next, steps + 1);
            let trim = s.begin_deallocate(0, 8, due).unwrap_err();
            assert!(matches!(trim, SsdError::InvalidRequest(_)), "{trim}");
        }
        assert!(
            steps > 2,
            "walk and gather steps before the scatter: {steps}"
        );
        let second = due;
        let done = s.drain().unwrap().unwrap();
        assert!(done >= second);
        assert_eq!(done, undisturbed);
        assert_eq!(s.all_counters(), twin.all_counters());
        assert_eq!(s.drain().unwrap(), None);
        assert!(s.pump(done).is_err(), "nothing left to pump");
        for i in 0..256u64 {
            let req = ReadRequest {
                lba: 8 * i,
                sectors: 1,
                key: Some(i),
            };
            assert_eq!(s.read(&req, done).unwrap().0.len(), 1, "key {i} home");
        }
        // Driven by hand from its begin, each step at the instant asked
        // for, the job ends where the wrapper's does, counter for counter.
        let (mut hand, entries, idle) = paced_copy_fixture();
        let done = hand
            .begin_checkpoint(&entries, CheckpointMode::Copy, idle)
            .unwrap()
            .finish(|now| {
                assert_eq!(hand.job.next_at, now);
                hand.pump(now)
            })
            .unwrap();
        assert_eq!(done, undisturbed);
        assert_eq!(hand.all_counters(), twin.all_counters());
    }

    /// The instant a step returns is the one the device holds the next
    /// step to: not a nanosecond earlier.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "a pump step before it is due")]
    fn a_pump_step_before_its_instant_is_refused() {
        let (mut s, entries, idle) = paced_copy_fixture();
        let Progress::PumpAt(first) = s
            .begin_checkpoint(&entries, CheckpointMode::Copy, idle)
            .unwrap()
        else {
            panic!("a copy class is scattered by the pump");
        };
        let _ = s.pump(first - SimDuration::from_nanos(1));
    }

    #[test]
    fn misaligned_entry_falls_back_to_copy_under_remap_mode() {
        let mut s = ssd(4096); // unit = 8 sectors
        let t = s
            .write(&record(1000, 2, 5, 9), OobKind::Journal, SimTime::ZERO)
            .unwrap();
        let t = s.flush(t).unwrap();
        // 2-sector record in an 8-sector unit: not remappable.
        let entry = CowEntry {
            src_lba: 1000,
            dst_lba: 16,
            sectors: 2,
            dst_sectors: 2,
            key: 5,
            merged: false,
        };
        s.checkpoint(&[entry], CheckpointMode::Remap, t).unwrap();
        assert_eq!(s.counters().get(Counter::SsdRemapEntries), 0);
        assert_eq!(s.counters().get(Counter::SsdCopyEntries), 1);
    }

    #[test]
    fn cow_single_costs_a_command_each() {
        let mut s = ssd(512);
        let mut t = SimTime::ZERO;
        for i in 0..4u64 {
            t = s
                .write(&record(1000 + 2 * i, 2, i, 1), OobKind::Journal, t)
                .unwrap();
        }
        t = s.flush(t).unwrap();
        for i in 0..4u64 {
            let e = CowEntry {
                src_lba: 1000 + 2 * i,
                dst_lba: 8 * i,
                sectors: 2,
                dst_sectors: 2,
                key: i,
                merged: false,
            };
            t = s.cow_single(&e, CheckpointMode::Copy, t).unwrap();
        }
        assert_eq!(s.counters().get(Counter::SsdCmdCow), 4);
    }

    #[test]
    fn deallocate_frees_whole_units_only() {
        let mut s = ssd(4096);
        let t = s
            .write(&record(0, 8, 1, 1), OobKind::Data, SimTime::ZERO)
            .unwrap();
        let t = s.flush(t).unwrap();
        // Partial trim (2 of 8 sectors) is ignored.
        let t = s.deallocate(0, 2, t);
        let (frags, t) = s
            .read(
                &ReadRequest {
                    lba: 0,
                    sectors: 8,
                    key: Some(1),
                },
                t,
            )
            .unwrap();
        assert!(!frags.is_empty());
        // Whole-unit trim removes it.
        let t = s.deallocate(0, 8, t);
        let (frags, _) = s
            .read(
                &ReadRequest {
                    lba: 0,
                    sectors: 8,
                    key: Some(1),
                },
                t,
            )
            .unwrap();
        assert!(frags.is_empty());
    }

    /// A deallocation begun as steps walks and unmaps one map segment a
    /// step, holds its queue slot until the last, and books in all what
    /// the one-call deallocation books. While it runs, the device refuses
    /// another job, and the refusals book nothing.
    #[test]
    fn a_paced_trim_walks_one_map_segment_a_step() {
        const SEG: u64 = MapCacheModel::SEGMENT_ENTRIES;
        let fixture = || {
            let mut s = ssd_caching(FlashGeometry::small(), 512, Some(SEG));
            let mut t = SimTime::ZERO;
            for lba in (0..2 * SEG).step_by(8) {
                t = s.write(&record(lba, 8, lba, 1), OobKind::Data, t).unwrap();
            }
            let idle = s.flush(t).unwrap() + SimDuration::from_millis(50);
            (s, idle)
        };
        let (mut once, idle) = fixture();
        let busy = once.cpu_busy_time();
        let done = once.deallocate(0, 2 * SEG as u32, idle);
        let booked = once.cpu_busy_time() - busy;

        let (mut s, idle) = fixture();
        let busy = s.cpu_busy_time();
        let Progress::PumpAt(first) = s.begin_deallocate(0, 2 * SEG as u32, idle).unwrap() else {
            panic!("a trim is stepped");
        };
        let entry = CowEntry {
            src_lba: 0,
            dst_lba: 2 * SEG,
            sectors: 8,
            dst_sectors: 8,
            key: 0,
            merged: false,
        };
        let refused =
            |e: Result<Progress<SimTime>, SsdError>| matches!(e, Err(SsdError::InvalidRequest(_)));
        let batch = s.begin_checkpoint(&[entry], CheckpointMode::Remap, first);
        let cow = s.cow_single(&entry, CheckpointMode::Copy, first);
        assert!(refused(s.begin_deallocate(0, 8, first)), "one at a time");
        assert!(
            refused(batch) && refused(cow.map(Progress::Done)),
            "of any kind"
        );
        assert!(s.ftl().is_mapped(Lpn(0)), "nothing unmapped before a step");
        let Progress::PumpAt(second) = s.pump(first).unwrap() else {
            panic!("two segments take two steps");
        };
        assert!(second > first);
        assert!(!s.ftl().is_mapped(Lpn(SEG - 1)) && s.ftl().is_mapped(Lpn(SEG)));
        assert_eq!(s.pump(second).unwrap(), Progress::Done(done));
        assert!(!s.ftl().is_mapped(Lpn(2 * SEG - 1)));
        assert_eq!(s.cpu_busy_time() - busy, booked);
        assert_eq!(s.drain().unwrap(), None);
        assert!(s.pump(done).is_err(), "nothing left to pump");
    }

    /// A power cut ends the job in execution, a trim or a copy command
    /// alike: once the device recovered, nothing is left to drain or to
    /// pump, and it takes a new command.
    #[test]
    fn a_power_cut_ends_the_job_in_execution() {
        for trim in [true, false] {
            let (mut s, entries, idle) = paced_copy_fixture();
            let begun = if trim {
                // 1 024 units of 512 B: two map segments, two steps.
                s.begin_deallocate(0, 1024, idle)
            } else {
                s.begin_checkpoint(&entries, CheckpointMode::Copy, idle)
            };
            let Ok(Progress::PumpAt(first)) = begun else {
                panic!("the job is stepped: {begun:?}");
            };
            let Ok(Progress::PumpAt(due)) = s.pump(first) else {
                panic!("one step does not end the job");
            };
            s.ftl_mut().flash_mut().cut_power();
            s.recover_power_loss().unwrap();
            assert_eq!(s.drain().unwrap(), None, "trim {trim}");
            let pumped = s.pump(due).unwrap_err();
            assert!(matches!(pumped, SsdError::InvalidRequest(_)), "{pumped}");
            let again = s.begin_checkpoint(&entries, CheckpointMode::Copy, due);
            assert!(again.is_ok(), "trim {trim}: {again:?}");
        }
    }

    #[test]
    fn journal_traffic_produces_meta_writes() {
        let mut s = ssd(512);
        let mut t = SimTime::ZERO;
        for i in 0..80u64 {
            t = s
                .write(&record(1000 + i, 1, i, 1), OobKind::Journal, t)
                .unwrap();
        }
        assert!(s.counters().get(Counter::SsdMetaWrites) >= 1);
    }

    #[test]
    fn queue_depth_backpressures_reads() {
        let flash = FlashArray::new(FlashGeometry::small(), FlashTiming::mlc());
        let ftl = Ftl::new(
            flash,
            FtlConfig {
                unit_bytes: 512,
                write_points: 2,
                gc_threshold_blocks: 4,
                gc_soft_threshold_blocks: 8,
                ..FtlConfig::default()
            },
        )
        .unwrap();
        let mut s = Ssd::new(
            ftl,
            SsdTiming {
                queue_depth: 1,
                ..SsdTiming::paper_default()
            },
        );
        let t = s
            .write(&record(0, 1, 1, 1), OobKind::Data, SimTime::ZERO)
            .unwrap();
        let t = s.flush(t).unwrap();
        // Two reads submitted at the same instant: with depth 1 the second
        // starts after the first completes.
        let (_, t1) = s
            .read(
                &ReadRequest {
                    lba: 0,
                    sectors: 1,
                    key: None,
                },
                t,
            )
            .unwrap();
        let (_, t2) = s
            .read(
                &ReadRequest {
                    lba: 0,
                    sectors: 1,
                    key: None,
                },
                t,
            )
            .unwrap();
        assert!(t2 > t1);
    }

    /// A paper-default device (4 channels x 2 dies) holding 1 024
    /// one-sector records on flash, and one LBA on each of its eight dies.
    fn eight_die_ssd() -> (Ssd, Vec<u64>, SimTime) {
        let flash = FlashArray::new(FlashGeometry::paper_default(), FlashTiming::mlc());
        let ftl = Ftl::new(
            flash,
            FtlConfig {
                unit_bytes: 512,
                ..FtlConfig::default()
            },
        )
        .unwrap();
        let mut s = Ssd::new(ftl, SsdTiming::paper_default());
        let mut t = SimTime::ZERO;
        for i in 0..1_024u64 {
            t = s.write(&record(i, 1, i, 1), OobKind::Data, t).unwrap();
        }
        t = s.flush(t).unwrap();
        let ftl = s.ftl();
        let geometry = ftl.flash().geometry();
        let die_of = |lba: u64| {
            let page = ftl.flash_page_of(Lpn(lba)).expect("flushed");
            geometry.die_of_block(geometry.block_of(page))
        };
        let lbas: Vec<u64> = (0..geometry.total_dies())
            .map(|die| {
                (0..1_024)
                    .find(|&lba| die_of(lba) == die)
                    .expect("the load stripes over every die")
            })
            .collect();
        (s, lbas, t + SimDuration::from_millis(50))
    }

    fn read_unit(s: &mut Ssd, lba: u64, at: SimTime) -> SimTime {
        let req = ReadRequest {
            lba,
            sectors: 1,
            key: None,
        };
        s.read_into(&req, at, &mut Vec::new()).unwrap()
    }

    #[test]
    fn reads_to_eight_dies_overlap() {
        let (mut s, lbas, idle) = eight_die_ssd();
        let one = read_unit(&mut s, lbas[0], idle).duration_since(idle);
        // Eight reads, one per die, submitted at one instant: the eight
        // 5 us capsules share the link and two dies share each channel,
        // but the eight senses run side by side.
        let at = idle + SimDuration::from_millis(50);
        let last = lbas
            .iter()
            .map(|&lba| read_unit(&mut s, lba, at))
            .max()
            .unwrap();
        assert!(
            last.duration_since(at) < one * 3,
            "eight reads took {} against {one} for one",
            last.duration_since(at)
        );
    }

    #[test]
    fn a_capsule_crosses_the_link_while_data_out_is_pending() {
        let (mut s, lbas, idle) = eight_die_ssd();
        let first = read_unit(&mut s, lbas[0], idle);
        // The first read booked the link for its data-out at the instant
        // its flash read ends; the second command's capsule uses the link
        // before that, so the second read ends a capsule (and a command's
        // firmware time) after the first, not a whole read after it.
        let second = read_unit(&mut s, lbas[2], idle);
        let lag = second.duration_since(first);
        assert!(
            lag <= s.timing().cmd_overhead * 2,
            "second read finished {lag} after the first"
        );
    }

    /// A record's units that share a flash page are one sense to the
    /// command that reads them, and share one mapping segment: eight
    /// sectors cost one sector's read plus seven more cache hits, DRAM
    /// moves and sectors on the link — no tR, and no second miss on a
    /// cache that holds half the table.
    #[test]
    fn a_read_senses_a_shared_page_once() {
        let mut s = ssd_caching(FlashGeometry::small(), 512, Some(4));
        let t = s
            .write(&record(0, 8, 1, 1), OobKind::Data, SimTime::ZERO)
            .unwrap();
        let idle = s.flush(t).unwrap() + SimDuration::from_millis(50);
        let page = s.ftl().flash_page_of(Lpn(0)).expect("flushed");
        assert!(
            (0..8).all(|lba| s.ftl().flash_page_of(Lpn(lba)) == Some(page)),
            "the record was paged out as one page"
        );

        let cost = |s: &mut Ssd, sectors: u32, at: SimTime| {
            let reads = |s: &Ssd| s.ftl().flash().counters().total(Total::FlashRead);
            let lookups = |s: &Ssd| s.ftl().counters().get(Counter::FtlHostUnitReads);
            let (reads0, lookups0) = (reads(s), lookups(s));
            let req = ReadRequest {
                lba: 0,
                sectors,
                key: Some(1),
            };
            let mut frags = Vec::new();
            let took = s
                .read_into(&req, at, &mut frags)
                .unwrap()
                .duration_since(at);
            assert_eq!(frags.len(), sectors as usize);
            (took, reads(s) - reads0, lookups(s) - lookups0)
        };
        let (one, reads, lookups) = cost(&mut s, 1, idle);
        assert_eq!((reads, lookups), (1, 1));
        let (eight, reads, lookups) = cost(&mut s, 8, idle + SimDuration::from_millis(50));
        assert_eq!((reads, lookups), (1, 8));
        let timing = *s.timing();
        let map = *s.ftl().map_cache();
        assert!(map.access_cost(s.ftl().live_entries()) > MapCacheModel::HIT_COST);
        let per_unit = MapCacheModel::HIT_COST + timing.dram_unit_cost;
        let sector = u64::from(SECTOR_BYTES);
        assert_eq!(
            eight,
            one + per_unit * 7 + timing.link_transfer(8 * sector) - timing.link_transfer(sector)
        );
    }

    /// A record whose two 4 KiB units were paged out as one plane pair —
    /// one page on each plane of a die, at one page index — is sensed in
    /// one tR: the second page books only its channel transfer, which
    /// queues behind the first's.
    #[test]
    fn a_read_senses_a_plane_pair_in_one_tr() {
        let geometry = FlashGeometry::paper_default();
        let ftl = Ftl::new(
            FlashArray::new(geometry, FlashTiming::mlc()),
            FtlConfig {
                unit_bytes: 4096,
                write_points: geometry.total_planes() as u32,
                ..FtlConfig::default()
            },
        )
        .unwrap();
        let mut s = Ssd::new(ftl, SsdTiming::paper_default());
        let unit_sectors = 4096 / SECTOR_BYTES;
        // A one-unit record, then a two-unit one: each a page-out of its
        // own, on two dies.
        let mut t = s
            .write(&record(0, unit_sectors, 1, 1), OobKind::Data, SimTime::ZERO)
            .unwrap();
        t = s.flush(t).unwrap();
        let lba = u64::from(unit_sectors) * 8;
        t = s
            .write(&record(lba, 2 * unit_sectors, 2, 1), OobKind::Data, t)
            .unwrap();
        let idle = s.flush(t).unwrap() + SimDuration::from_millis(50);
        let (a, b) = (
            s.ftl().flash_page_of(Lpn(8)).unwrap(),
            s.ftl().flash_page_of(Lpn(9)).unwrap(),
        );
        let (pa, pb) = (geometry.decompose(a), geometry.decompose(b));
        assert_eq!((pa.channel, pa.die, pa.page), (pb.channel, pb.die, pb.page));
        assert_ne!(pa.plane, pb.plane, "the record's pages are a plane pair");

        let cost = |s: &mut Ssd, lba: u64, sectors: u32, at: SimTime| {
            let flash = |s: &Ssd| {
                let f = s.ftl().flash();
                let c = f.counters();
                (
                    f.die_busy_time(),
                    c.total(Total::FlashRead),
                    c.get(Counter::FlashMultiplaneReads),
                )
            };
            let before = flash(s);
            let req = ReadRequest {
                lba,
                sectors,
                key: None,
            };
            let took = s
                .read_into(&req, at, &mut Vec::new())
                .unwrap()
                .duration_since(at);
            let after = flash(s);
            (
                took,
                after.0 - before.0,
                after.1 - before.1,
                after.2 - before.2,
            )
        };
        let timing = FlashTiming::mlc();
        let (one, busy, reads, rides) = cost(&mut s, 0, unit_sectors, idle);
        assert_eq!((busy, reads, rides), (timing.t_read, 1, 0));
        let at = idle + SimDuration::from_millis(50);
        let (two, busy, reads, rides) = cost(&mut s, lba, 2 * unit_sectors, at);
        assert_eq!(
            (busy, reads, rides),
            (timing.t_read, 2, 1),
            "one tR, two pages"
        );
        let front = *s.timing();
        let per_unit = MapCacheModel::HIT_COST + front.dram_unit_cost;
        let sector = u64::from(SECTOR_BYTES);
        let unit = u64::from(unit_sectors) * sector;
        assert_eq!(
            two,
            one + per_unit + timing.transfer_time(4096) + front.link_transfer(2 * unit)
                - front.link_transfer(unit)
        );
    }

    /// A remap batch pays one miss per mapping segment its source and
    /// destination ranges touch, not one per access: 64 sources in 64
    /// segments and 64 destinations in one are 65 misses and 63 hits,
    /// on a device of 128 segments.
    #[test]
    fn a_remap_batch_misses_once_per_segment_it_touches() {
        const SEG: u64 = MapCacheModel::SEGMENT_ENTRIES;
        let geometry = FlashGeometry {
            blocks_per_plane: 128,
            ..FlashGeometry::small()
        };
        let mut s = ssd_caching(geometry, 512, Some(16));
        let mut t = SimTime::ZERO;
        let src = |i: u64| 64 * SEG + i * SEG;
        for i in 0..64 {
            t = s.write(&record(src(i), 1, i, 1), OobKind::Data, t).unwrap();
        }
        t = s.flush(t).unwrap() + SimDuration::from_millis(50);
        let entries: Vec<CowEntry> = (0..64)
            .map(|i| CowEntry {
                src_lba: src(i),
                dst_lba: 8 * SEG + i,
                sectors: 1,
                dst_sectors: 1,
                key: i,
                merged: false,
            })
            .collect();
        let map = *s.ftl().map_cache();
        let miss = map.access_cost(s.ftl().live_entries());
        assert!(miss > MapCacheModel::HIT_COST);
        let counted = |s: &Ssd| {
            let c = s.counters();
            (c.get(Counter::SsdMapUnits), c.get(Counter::SsdMapSegments))
        };
        let (units0, segments0) = counted(&s);
        s.take_cp_phase_times();
        s.checkpoint(&entries, CheckpointMode::Remap, t).unwrap();
        assert_eq!(s.counters().get(Counter::SsdRemapEntries), 64);
        assert_eq!(
            s.take_cp_phase_times().remap,
            miss * 65 + MapCacheModel::HIT_COST * 63
        );
        let (units, segments) = counted(&s);
        assert_eq!((units - units0, segments - segments0), (128, 65));
    }

    /// With no GC pressure no round begins, and the job is its closing
    /// scrub round alone; the one-call form scrubs nothing.
    #[test]
    fn background_gc_runs_only_under_pressure() {
        let mut s = ssd(512);
        let (rounds, _) = s.background_gc(SimTime::ZERO, 4).unwrap();
        assert_eq!(rounds, 0, "fresh device: no GC");
        let mut t = SimTime::ZERO;
        for i in 0..32u64 {
            t = s.write(&record(i, 1, i, 1), OobKind::Data, t).unwrap();
        }
        let idle = s.flush(t).unwrap() + SimDuration::from_millis(50);
        assert!(!s.ftl().wants_background_gc());
        let scrubs = |s: &Ssd| s.counters().get(Counter::SsdBackgroundScrubRounds);
        let (rounds, done) = s.background_gc(idle, 4).unwrap();
        assert_eq!((rounds, done, scrubs(&s)), (0, idle, 0));
        let progress = s.begin_background_gc(idle, 4, 16).unwrap();
        assert!(
            matches!(progress, Progress::Done(done) if done > idle),
            "{progress:?}"
        );
        assert_eq!(s.counters().get(Counter::SsdBackgroundGcRounds), 0);
        assert_eq!(scrubs(&s), 1);
        assert_eq!(s.gc_due(), None);
    }

    /// Records on the [`gc_fixture`] device.
    const GC_KEYS: u64 = 768;

    /// One die of 16 blocks of 8 pages, a 512 B unit, one write point,
    /// a one-page watermark and fault injection armed (nothing
    /// injected), so that the mapping log is kept: [`GC_KEYS`]
    /// one-sector records overwritten in a pseudo-random order until the
    /// free pool is at its soft GC threshold. Returns the device, each
    /// key's latest version and an instant it is idle at.
    fn gc_fixture() -> (Ssd, Vec<u64>, SimTime) {
        let geometry = FlashGeometry {
            channels: 1,
            dies_per_channel: 1,
            planes_per_die: 1,
            blocks_per_plane: 16,
            pages_per_block: 8,
            page_bytes: 4096,
        };
        let config = FtlConfig {
            unit_bytes: 512,
            write_points: 1,
            gc_threshold_blocks: 2,
            gc_soft_threshold_blocks: 3,
            write_buffer_units: 8,
            ..FtlConfig::default()
        };
        let ftl = Ftl::new(FlashArray::new(geometry, FlashTiming::mlc()), config).unwrap();
        let mut s = Ssd::new(ftl, SsdTiming::paper_default());
        s.ftl_mut()
            .flash_mut()
            .arm_faults(FaultPlan::new(FaultConfig::default()));
        let mut versions = vec![0; GC_KEYS as usize];
        let (mut t, mut x) = (SimTime::ZERO, 1u64);
        while !s.ftl().wants_background_gc() {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            let key = (x >> 33) % GC_KEYS;
            versions[key as usize] += 1;
            let req = record(key, 1, key, versions[key as usize]);
            t = s.write(&req, OobKind::Data, t).unwrap();
        }
        let idle = s.flush(t).unwrap() + SimDuration::from_millis(50);
        (s, versions, idle)
    }

    /// Every key of [`gc_fixture`] reads back at its latest version, and
    /// a key never written reads nothing. Returns when the device is idle
    /// again.
    fn assert_acked_versions(s: &mut Ssd, versions: &[u64], at: SimTime) -> SimTime {
        for (key, &version) in (0..).zip(versions) {
            let req = ReadRequest {
                lba: key,
                sectors: 1,
                key: Some(key),
            };
            let (frags, _) = s.read(&req, at).unwrap();
            let written = (version > 0).then_some(version);
            assert_eq!(frags.first().map(|f| f.version), written, "key {key}");
        }
        s.idle_at()
    }

    /// Under soft pressure a background round begins only where the
    /// device is idle: with the link and firmware CPU booked past `at`,
    /// the job begun at `at` begins no round, and begun at `idle_at()`
    /// the same device begins one.
    #[test]
    fn a_background_round_waits_for_an_idle_device() {
        let (mut s, _, idle) = gc_fixture();
        assert!(s.ftl().wants_background_gc());
        let req = ReadRequest {
            lba: 0,
            sectors: 1,
            key: None,
        };
        s.read(&req, idle).unwrap();
        assert!(s.idle_at() > idle, "the read books the device past `idle`");
        let rounds = |s: &Ssd| s.counters().get(Counter::SsdBackgroundGcRounds);
        let before = rounds(&s);
        let busy = s.begin_background_gc(idle, 4, 0).unwrap();
        assert!(matches!(busy, Progress::Done(_)), "{busy:?}");
        assert_eq!(rounds(&s), before, "no round begins on a busy device");
        let at = s.idle_at();
        let begun = s.begin_background_gc(at, 4, 0).unwrap();
        assert!(matches!(begun, Progress::PumpAt(_)), "{begun:?}");
        assert_eq!(rounds(&s), before + 1);
        s.drain_gc().unwrap();
    }

    /// A power cut between two steps of a background round ends it: SPOR
    /// keeps every acknowledged unit, and the device refuses to pump
    /// the dead round but begins a new one. Uncut, the stepped job is
    /// the one-call job.
    #[test]
    fn a_power_cut_ends_a_background_round() {
        let (mut s, versions, idle) = gc_fixture();
        let mut progress = s.begin_background_gc(idle, 4, 0);
        // Step until a round in flight has moved a unit, then cut.
        let due = loop {
            let Ok(Progress::PumpAt(due)) = progress else {
                panic!("the round is stepped: {progress:?}");
            };
            let moved = s.ftl().counters().get(Counter::FtlGcUnitsMoved);
            if moved > 0 && s.ftl().gc_due().is_some() {
                break due;
            }
            progress = s.pump_gc(due);
        };
        s.ftl_mut().flash_mut().cut_power();
        s.recover_power_loss().unwrap();
        assert_eq!(s.ftl().gc_due(), None, "no GC round runs");
        assert_eq!(s.gc_due(), None, "no background GC runs");
        let pumped = s.pump_gc(due).unwrap_err();
        assert!(matches!(pumped, SsdError::InvalidRequest(_)), "{pumped}");
        s.ftl().check_invariants().unwrap();
        let idle = assert_acked_versions(&mut s, &versions, due);
        assert!(s.ftl().wants_background_gc());
        let again = s.begin_background_gc(idle, 4, 0);
        assert!(matches!(again, Ok(Progress::PumpAt(_))), "{again:?}");
        let done = s.drain_gc().unwrap().expect("the new round runs");
        s.ftl().check_invariants().unwrap();
        assert_acked_versions(&mut s, &versions, done);

        // Uncut, begun and then pumped at each instant it asks for, the
        // job ends where the one-call background GC ends, after as many
        // rounds and with the same counters.
        let (mut once, _, idle) = gc_fixture();
        let (rounds, end) = once.background_gc(idle, 4).unwrap();
        assert!(rounds > 0, "the fixture is under pressure");
        let (mut s, _, idle) = gc_fixture();
        let begun = s.begin_background_gc(idle, 4, 0).unwrap();
        let stepped = begun.finish(|now| {
            assert_eq!(s.gc_due(), Some(now));
            s.pump_gc(now)
        });
        assert_eq!((s.gc.rounds, stepped.unwrap()), (rounds, end));
        assert_eq!(s.all_counters(), once.all_counters());
    }

    #[test]
    fn background_scrub_patrols_idle_windows_and_surfaces_rot() {
        let mut s = ssd(512);
        let mut t = SimTime::ZERO;
        for i in 0..32u64 {
            t = s.write(&record(i, 1, i, 1), OobKind::Data, t).unwrap();
        }
        t = s.flush(t).unwrap();

        // Busy device: the scrubber yields.
        let (report, _) = s.background_scrub(SimTime::ZERO, 64).unwrap();
        assert_eq!(report.pages_scanned, 0, "no scrubbing while busy");

        // Corrupt one mapped unit, then scrub in a real idle window.
        let idle = t + SimDuration::from_millis(50);
        let upp = s.ftl().units_per_page();
        let pun = match s.ftl().location_of(Lpn(3)) {
            Some(checkin_ftl::Location::Flash(p)) => p,
            other => panic!("lpn 3 not on flash: {other:?}"),
        };
        let (page, offset) = (pun.page(upp), pun.offset(upp));
        assert!(s
            .ftl_mut()
            .flash_mut()
            .sabotage_corrupt_unit(page, offset, 1 << 7));
        let (report, done) = s.background_scrub(idle, 1_000).unwrap();
        assert!(report.pages_scanned > 0);
        assert_eq!(report.detected(), 1);
        assert_eq!(report.quarantined, 1);
        assert!(done > idle, "scrub reads take simulated time");
        assert_eq!(s.counters().get(Counter::SsdBackgroundScrubRounds), 1);

        // The quarantined unit now fails the host read path typed.
        let err = s
            .read(
                &ReadRequest {
                    lba: 3,
                    sectors: 1,
                    key: None,
                },
                done,
            )
            .unwrap_err();
        assert!(err.is_integrity(), "quarantined read: {err}");

        // max_pages == 0 disables scrubbing entirely.
        let (report, t2) = s.background_scrub(done, 0).unwrap();
        assert_eq!(report, checkin_ftl::ScrubReport::default());
        assert_eq!(t2, done);
    }

    #[test]
    fn background_scrub_finishes_when_its_last_read_does() {
        // Two dies (`FlashGeometry::small`), and a scrub cursor that
        // starts at page 0: with two pages programmed in block 0 both
        // scrub reads land on die 0, one behind the other.
        let mut s = ssd(512);
        let mut t = SimTime::ZERO;
        for i in 0..64u64 {
            t = s.write(&record(i, 1, i, 1), OobKind::Data, t).unwrap();
        }
        t = s.flush(t).unwrap();
        let flash = s.ftl().flash();
        assert!(flash.write_cursor(checkin_flash::BlockId(0)) >= 2);
        let timing = *flash.timing();
        let page_read =
            timing.t_read + timing.transfer_time(u64::from(flash.geometry().page_bytes));

        let idle = t + SimDuration::from_millis(50);
        let (report, done) = s.background_scrub(idle, 2).unwrap();
        assert_eq!(report.pages_scanned, 2);
        // Sense and channel transfer of each page, not two bare tR.
        assert_eq!(done, idle + page_read * 2);
        // The device really is free again at `done`: a read of block 0
        // issued then pays no die wait.
        let free = s.ftl_mut().flash_mut().schedule_read(Ppn(0), done).unwrap();
        assert_eq!(free.start, done);
    }

    #[test]
    fn merged_write_spans_one_mapping_unit_at_4k() {
        let mut s = ssd(4096);
        // At a 4 KiB unit, a merged journal write covers 8 sectors.
        let good = WriteRequest {
            lba: 0,
            sectors: 8,
            content: WriteContent::Merged(vec![
                Fragment {
                    key: 1,
                    version: 1,
                    bytes: 1024,
                },
                Fragment {
                    key: 2,
                    version: 1,
                    bytes: 2048,
                },
            ]),
        };
        let t = s.write(&good, OobKind::Journal, SimTime::ZERO).unwrap();
        let (frags, _) = s
            .read(
                &ReadRequest {
                    lba: 0,
                    sectors: 8,
                    key: None,
                },
                t,
            )
            .unwrap();
        assert_eq!(frags.len(), 2);
        // A sector-sized merged write is malformed on this device.
        let bad = WriteRequest {
            lba: 8,
            sectors: 1,
            content: WriteContent::Merged(vec![Fragment {
                key: 3,
                version: 1,
                bytes: 128,
            }]),
        };
        assert!(matches!(
            s.write(&bad, OobKind::Journal, SimTime::ZERO),
            Err(SsdError::InvalidRequest(_))
        ));
    }

    #[test]
    fn empty_checkpoint_batch_is_cheap_but_persists_metadata() {
        let mut s = ssd(512);
        let meta_before = s.counters().get(Counter::SsdMetaWrites);
        let t = s
            .checkpoint(&[], CheckpointMode::Remap, SimTime::ZERO)
            .unwrap();
        assert!(t > SimTime::ZERO);
        assert_eq!(s.counters().get(Counter::SsdMetaWrites), meta_before + 1);
        assert_eq!(s.counters().get(Counter::SsdRemapEntries), 0);
    }

    #[test]
    fn cow_entry_for_missing_source_counts_and_moves_nothing() {
        let mut s = ssd(512);
        let e = CowEntry {
            src_lba: 5_000,
            dst_lba: 0,
            sectors: 1,
            dst_sectors: 1,
            key: 9,
            merged: false,
        };
        s.cow_single(&e, CheckpointMode::Copy, SimTime::ZERO)
            .unwrap();
        assert!(s.counters().get(Counter::SsdCowMissingSrc) >= 1);
        let (frags, _) = s
            .read(
                &ReadRequest {
                    lba: 0,
                    sectors: 1,
                    key: None,
                },
                SimTime::ZERO,
            )
            .unwrap();
        assert!(frags.is_empty(), "nothing should land at the destination");
    }

    #[test]
    fn checkpoint_preserves_invariants() {
        let mut s = ssd(512);
        let mut t = SimTime::ZERO;
        for i in 0..32u64 {
            t = s
                .write(&record(1000 + 2 * i, 2, i, 2), OobKind::Journal, t)
                .unwrap();
        }
        t = s.flush(t).unwrap();
        let entries: Vec<CowEntry> = (0..32u64)
            .map(|i| CowEntry {
                src_lba: 1000 + 2 * i,
                dst_lba: 2 * i,
                sectors: 2,
                dst_sectors: 2,
                key: i,
                merged: false,
            })
            .collect();
        // NB: sectors=2 units start at even lbas (1000 is even) so all remap.
        let t = s.checkpoint(&entries, CheckpointMode::Remap, t).unwrap();
        for i in 0..32u64 {
            s.deallocate(1000 + 2 * i, 2, t);
        }
        s.ftl().check_invariants().unwrap();
        for i in 0..32u64 {
            let (frags, _) = s
                .read(
                    &ReadRequest {
                        lba: 2 * i,
                        sectors: 2,
                        key: Some(i),
                    },
                    t,
                )
                .unwrap();
            assert!(!frags.is_empty(), "key {i} readable at home after trim");
        }
    }
}
