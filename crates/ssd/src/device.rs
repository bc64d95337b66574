//! The SSD device: host interface, firmware timing, ISCE execution.

use checkin_flash::{Fragment, OobKind, OpPhase, UnitPayload};
use checkin_ftl::{
    Ftl, FtlError, GcTrigger, Lpn, MapCacheModel, RebuildStats, ScrubReport, SensedPages, UnitWrite,
};
use checkin_sim::{
    Counter, CounterSet, Resource, SimDuration, SimTime, TraceEvent, TraceLayer, Tracer,
};

use crate::command::{
    CheckpointMode, CowEntry, ReadRequest, WriteContent, WriteRequest, SECTOR_BYTES,
};
use crate::error::SsdError;
use crate::isce::{plan_entry, should_background_gc, EntryPlan};
use crate::queue::CommandQueue;
use crate::timing::SsdTiming;

/// Base of the device-internal metadata LPN region (never visible to the
/// host's LBA space).
const META_LPN_BASE: u64 = u64::MAX / 2;

/// Journal units acknowledged between two metadata (recovery-log) writes
/// by the ISCE log manager.
const META_INTERVAL_UNITS: u64 = 64;

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
    queue: CommandQueue,
    counters: CounterSet,
    journal_units_since_meta: u64,
    meta_seq: u64,
    /// Structured trace sink (no-op unless enabled).
    tracer: Tracer,
    /// ISCE phase time accumulated since the last
    /// [`Ssd::take_cp_phase_times`] (remap walk vs copy fallback).
    cp_phase_times: CpPhaseTimes,
    /// Reusable remap/copy classification buffers for checkpoint batches:
    /// once warm, classifying a batch performs no heap allocation.
    scratch_remaps: Vec<CowEntry>,
    scratch_copies: Vec<CowEntry>,
    /// The mapping segments a remap batch walks, recycled the same way.
    scratch_segments: Vec<u64>,
    /// The flash pages the command in execution has sensed: cleared per
    /// host read, kept across a whole copy batch's gather phase.
    scratch_sensed: SensedPages,
    /// Copy-batch scratch, recycled like the classification buffers: one
    /// entry's gathered fragments, and every entry's `(bytes, version)`
    /// between the gather and the scatter phase.
    scratch_frags: Vec<Fragment>,
    scratch_gathered: Vec<(u32, u64)>,
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

/// Iterator over `(unit LPN, sectors in unit, covers whole unit)` segments
/// of a block-interface request; see [`Ssd::unit_segments`].
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

impl Ssd {
    /// Wraps an FTL with the device front end.
    pub fn new(ftl: Ftl, timing: SsdTiming) -> Self {
        Ssd {
            queue: CommandQueue::new(timing.queue_depth),
            ftl,
            timing,
            link: Resource::new("pcie"),
            cpu: Resource::new("fw-cpu"),
            counters: CounterSet::new(),
            journal_units_since_meta: 0,
            meta_seq: 0,
            tracer: Tracer::disabled(),
            cp_phase_times: CpPhaseTimes::default(),
            scratch_remaps: Vec::new(),
            scratch_copies: Vec::new(),
            scratch_segments: Vec::new(),
            scratch_sensed: SensedPages::default(),
            scratch_frags: Vec::new(),
            scratch_gathered: Vec::new(),
        }
    }

    /// Installs a trace sink on the device and every layer below it
    /// (command queue, FTL, flash array).
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.queue.set_tracer(tracer.clone());
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

    /// Iterates the `(lpn, covered_sectors, whole_unit)` segments of
    /// `[lba, lba + sectors)` without allocating.
    fn unit_segments(&self, lba: u64, sectors: u32) -> SegmentIter {
        SegmentIter {
            unit_sectors: self.unit_sectors(),
            cursor: lba,
            end: lba + sectors as u64,
        }
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
    /// that lie in `segments` distinct segments, counted under
    /// `ssd.map_units` / `ssd.map_segments`.
    fn map_walk(&mut self, units: u64, segments: u64) -> SimDuration {
        self.counters.add(Counter::SsdMapUnits, units);
        self.counters.add(Counter::SsdMapSegments, segments);
        self.ftl.map_walk_cost(units, segments)
    }

    /// [`Ssd::map_walk`] over the `units` consecutive entries from `first`.
    fn map_span(&mut self, first: Lpn, units: u64) -> SimDuration {
        let segments = MapCacheModel::segments(first, units);
        self.map_walk(units, segments.end - segments.start)
    }

    /// Handles a block-interface read. Returns the fragments found in the
    /// range (filtered by `req.key` when set) and the completion instant.
    ///
    /// # Errors
    ///
    /// Rejects zero-length requests; propagates FTL failures other than
    /// reads of never-written space (which return no fragments, modelling
    /// a zero-fill read).
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
        self.counters.incr(Counter::SsdCmdRead);
        let t0 = self.queue.admit(at);
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
    /// Rejects zero-length and malformed merged requests; propagates FTL
    /// allocation failures.
    pub fn write(
        &mut self,
        req: &WriteRequest,
        kind: OobKind,
        at: SimTime,
    ) -> Result<SimTime, SsdError> {
        if req.sectors == 0 {
            return Err(SsdError::InvalidRequest("write of zero sectors".into()));
        }
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
        let t0 = self.queue.admit(at);
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
        let segments = self.unit_segments(req.lba, req.sectors);

        let mut remaining = match &req.content {
            WriteContent::Record { bytes, .. } => *bytes,
            WriteContent::Merged(_) | WriteContent::Tombstone { .. } => 0,
        };
        // Host metadata writes (the engine superblock) are attributed to
        // the meta phase so checkpoint-window flash ops never land in the
        // run bucket; anything else stays in the caller's phase.
        let phase = if kind == OobKind::Meta {
            OpPhase::Meta
        } else {
            self.ftl.flash().op_phase()
        };
        let mut done = self.in_phase(phase, |ssd| -> Result<SimTime, FtlError> {
            let mut done = cpu.finish;
            for (lpn, seg, whole) in segments {
                let payload = match &req.content {
                    WriteContent::Record { key, version, .. } => {
                        let take = remaining.min(seg * SECTOR_BYTES);
                        remaining -= take;
                        if take == 0 {
                            // Trailing sectors beyond the payload carry no
                            // record bytes; nothing to store.
                            continue;
                        }
                        UnitPayload::single(*key, *version, take)
                    }
                    WriteContent::Merged(frags) => UnitPayload::merged(
                        frags.iter().copied().collect::<checkin_flash::FragVec>(),
                    ),
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
        let t0 = self.queue.admit(at);
        let cmd = self.link.schedule(t0, self.timing.cmd_overhead);
        let done = self.ftl.flush(cmd.finish)?;
        self.queue.complete(done);
        Ok(done)
    }

    /// Deallocates (trims) a sector range, unit by unit.
    pub fn deallocate(&mut self, lba: u64, sectors: u32, at: SimTime) -> SimTime {
        self.counters.incr(Counter::SsdCmdDealloc);
        let t0 = self.queue.admit(at);
        let cmd = self.link.schedule(t0, self.timing.cmd_overhead);
        let units = self.unit_span(lba, sectors);
        let map_cost = self.map_span(Lpn(lba / u64::from(self.unit_sectors())), units);
        let cpu = self
            .cpu
            .schedule(cmd.finish, self.timing.cpu_cmd_cost + map_cost);
        self.in_phase(OpPhase::Dealloc, |ssd| {
            for (lpn, _seg, whole) in ssd.unit_segments(lba, sectors) {
                // Partial-unit trims are ignored (conservative, like real
                // devices which round trims inward).
                if whole {
                    ssd.ftl.deallocate(lpn);
                }
            }
        });
        self.queue.complete(cpu.finish);
        cpu.finish
    }

    /// Vendor command: one copy-on-write entry (ISC-A's unit of work).
    ///
    /// # Errors
    ///
    /// Propagates FTL failures from the copy path.
    pub fn cow_single(
        &mut self,
        entry: &CowEntry,
        mode: CheckpointMode,
        at: SimTime,
    ) -> Result<SimTime, SsdError> {
        self.counters.incr(Counter::SsdCmdCow);
        let t0 = self.queue.admit(at);
        // Descriptor-only transfer: no payload on the link.
        let cmd = self
            .link
            .schedule(t0, self.timing.cmd_overhead + self.timing.link_transfer(16));
        let cpu = self.cpu.schedule(
            cmd.finish,
            self.timing.cpu_cmd_cost + self.timing.cpu_cow_entry_cost,
        );
        let done = self.execute_entries(&[*entry], mode, cpu.finish)?;
        self.queue.complete(done);
        Ok(done)
    }

    /// Vendor command: a batched checkpoint request carrying many CoW
    /// entries (ISC-B and up). The device decodes the batch once, performs
    /// remaps as mapping updates, and executes the copy class as
    /// consecutive reads followed by consecutive writes.
    ///
    /// # Errors
    ///
    /// Propagates FTL failures.
    pub fn checkpoint(
        &mut self,
        entries: &[CowEntry],
        mode: CheckpointMode,
        at: SimTime,
    ) -> Result<SimTime, SsdError> {
        self.counters.incr(Counter::SsdCmdCheckpoint);
        let t0 = self.queue.admit(at);
        let descriptor_bytes = 16 * entries.len() as u64;
        let cmd = self.link.schedule(
            t0,
            self.timing.cmd_overhead + self.timing.link_transfer(descriptor_bytes),
        );
        let cpu = self.cpu.schedule(
            cmd.finish,
            self.timing.cpu_cmd_cost + self.timing.cpu_cow_entry_cost * entries.len() as u64,
        );
        let mut done = self.execute_entries(entries, mode, cpu.finish)?;
        // Checkpoint completion persists a metadata unit (recovery point).
        done = done.max(self.write_meta_unit(done)?);
        self.queue.complete(done);
        Ok(done)
    }

    /// Executes a classified entry batch: remaps first (mapping updates on
    /// the firmware CPU), then the copy class as read phase + write phase.
    fn execute_entries(
        &mut self,
        entries: &[CowEntry],
        mode: CheckpointMode,
        at: SimTime,
    ) -> Result<SimTime, SsdError> {
        let us = self.unit_sectors();
        // Classify into the reusable scratch buffers (taken out of `self`
        // so the executor below can still borrow `self` mutably); warm
        // checkpoints allocate nothing here.
        let mut remaps = std::mem::take(&mut self.scratch_remaps);
        let mut copies = std::mem::take(&mut self.scratch_copies);
        remaps.clear();
        copies.clear();
        for e in entries {
            match plan_entry(e, mode, us) {
                EntryPlan::Remap => remaps.push(*e),
                EntryPlan::Copy => copies.push(*e),
            }
        }
        let result = self.execute_classified(&remaps, &copies, us, at);
        self.scratch_remaps = remaps;
        self.scratch_copies = copies;
        result
    }

    /// Executes an already classified batch; split from
    /// [`Ssd::execute_entries`] so the scratch buffers can be returned to
    /// their fields on every exit path.
    fn execute_classified(
        &mut self,
        remaps: &[CowEntry],
        copies: &[CowEntry],
        us: u32,
        at: SimTime,
    ) -> Result<SimTime, SsdError> {
        let mut done = at;

        if !remaps.is_empty() {
            // Two table accesses per unit, source lookup and target
            // update, in as many segments as the source and destination
            // ranges of the whole batch touch.
            let mut segments = std::mem::take(&mut self.scratch_segments);
            segments.clear();
            let mut unit_count = 0;
            for e in remaps {
                let units = u64::from((e.sectors / us).max(1));
                unit_count += units;
                for lba in [e.src_lba, e.dst_lba] {
                    segments.extend(MapCacheModel::segments(Lpn(lba / u64::from(us)), units));
                }
            }
            segments.sort_unstable();
            segments.dedup();
            let map_cost = self.map_walk(unit_count * 2, segments.len() as u64);
            self.scratch_segments = segments;
            let cpu = self.cpu.schedule(at, map_cost);
            self.in_phase(OpPhase::CheckpointRemap, |ssd| {
                for e in remaps {
                    let units = (e.sectors / us).max(1) as u64;
                    for k in 0..units {
                        let src = Lpn(e.src_lba / us as u64 + k);
                        let dst = Lpn(e.dst_lba / us as u64 + k);
                        match ssd.ftl.remap(dst, src) {
                            Ok(()) => {}
                            // A padded log's tail unit may hold no payload
                            // and so was never written; skip it.
                            Err(FtlError::Unmapped(_)) => {
                                ssd.counters.incr(Counter::SsdCowMissingSrc);
                            }
                            Err(err) => return Err(err),
                        }
                    }
                    ssd.counters.incr(Counter::SsdRemapEntries);
                }
                Ok(())
            })?;
            self.cp_phase_times.remap += cpu.finish.saturating_duration_since(at);
            let entries = remaps.len() as u64;
            self.tracer.emit(|| {
                TraceEvent::new(at, TraceLayer::Isce, "remap_batch")
                    .with("entries", entries)
                    .with("units", unit_count)
            });
            done = done.max(cpu.finish);
        }

        if !copies.is_empty() {
            let copied_before = self.counters.get(Counter::SsdCopyEntries);
            let (writes_done, skipped) = self.in_phase(OpPhase::CheckpointCopy, |ssd| {
                ssd.execute_copies(copies, at)
            })?;
            self.cp_phase_times.copy += writes_done.saturating_duration_since(at);
            let entries = copies.len() as u64;
            let copied = self.counters.get(Counter::SsdCopyEntries) - copied_before;
            self.tracer.emit(|| {
                TraceEvent::new(at, TraceLayer::Isce, "copy_batch")
                    .with("entries", entries)
                    .with("copied", copied)
                    .with("skipped", skipped)
            });
            done = done.max(writes_done);
        }
        Ok(done)
    }

    /// The copy fallback of [`Ssd::execute_entries`]: gather reads, then
    /// scatter writes. Returns the completion instant and how many
    /// entries were skipped because no source payload survived (already
    /// superseded or never written).
    fn execute_copies(
        &mut self,
        copies: &[CowEntry],
        at: SimTime,
    ) -> Result<(SimTime, u64), SsdError> {
        // Phase 1: consecutive reads gather each record's fragments
        // from its journal units. The batch is one command: a flash page
        // is sensed once for all of it, so the merged units many entries
        // share — and the logs that were paged out side by side — are
        // served from the device read buffer after the first sense.
        let us = u64::from(self.unit_sectors());
        self.scratch_sensed.clear();
        self.scratch_gathered.clear();
        let mut reads_done = at;
        for e in copies {
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
                at,
                Some(e.key),
                &mut self.scratch_sensed,
                &mut self.scratch_frags,
            )?;
            reads_done = reads_done.max(done);
            let frags = &self.scratch_frags;
            self.scratch_gathered.push((
                frags.iter().map(|f| f.bytes).sum(),
                frags.iter().map(|f| f.version).max().unwrap_or(0),
            ));
        }
        // Phase 2: consecutive writes scatter the gathered record over
        // its destination extent.
        let mut writes_done = reads_done;
        let mut skipped = 0u64;
        for (e, &(total_bytes, version)) in copies.iter().zip(&self.scratch_gathered) {
            if total_bytes == 0 {
                self.counters.incr(Counter::SsdCowSkippedEntries);
                skipped += 1;
                continue;
            }
            let mut remaining = total_bytes;
            for (dst_lpn, seg, whole) in self.unit_segments(e.dst_lba, e.dst_sectors.max(1)) {
                let take = remaining.min(seg * SECTOR_BYTES);
                if take == 0 {
                    break;
                }
                remaining -= take;
                // Same ownership rule as host writes (see write()).
                let t = self.ftl.write(
                    UnitWrite {
                        lpn: dst_lpn,
                        payload: UnitPayload::single(e.key, version, take),
                        whole_unit: whole,
                    },
                    OobKind::Data,
                    reads_done,
                )?;
                writes_done = writes_done.max(t);
            }
            self.counters.incr(Counter::SsdCopyEntries);
        }
        Ok((writes_done, skipped))
    }

    /// Deallocator: run background GC rounds at `at` if the FTL is under
    /// soft pressure and the device is idle. Returns the number of rounds
    /// run and the completion instant.
    ///
    /// # Errors
    ///
    /// Propagates FTL failures from GC migration.
    pub fn background_gc(
        &mut self,
        at: SimTime,
        max_rounds: u32,
    ) -> Result<(u32, SimTime), SsdError> {
        let mut done = at;
        let mut rounds = 0;
        while rounds < max_rounds {
            let idle = self.idle_at() <= done;
            if !should_background_gc(self.ftl.wants_background_gc(), idle) {
                break;
            }
            match self.ftl.run_gc_round(done, GcTrigger::Background)? {
                Some(t) => {
                    done = t;
                    rounds += 1;
                    self.counters.incr(Counter::SsdBackgroundGcRounds);
                }
                None => break,
            }
        }
        // Idle windows also host static wear leveling (one round at most).
        if self.idle_at() <= done {
            if let Some(t) = self.ftl.run_wear_leveling_round(done)? {
                done = t;
                self.counters.incr(Counter::SsdWearLevelRounds);
            }
        }
        Ok((rounds, done))
    }

    /// Deallocator: run one background integrity-scrub round at `at` if
    /// the device is idle, verifying up to `max_pages` pages'
    /// checksums. Scheduled from the same idle windows as background GC
    /// but *after* it — space reclamation has priority over latent-rot
    /// patrol. Returns the scrub outcome and the completion instant.
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
        self.counters.incr(Counter::SsdSporRecoveries);
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use checkin_flash::{FlashArray, FlashGeometry, FlashTiming, Ppn};
    use checkin_ftl::FtlConfig;
    use checkin_sim::Total;

    fn ssd(unit_bytes: u32) -> Ssd {
        ssd_caching(unit_bytes, None)
    }

    /// [`ssd`] whose mapping cache holds `map_cache_entries`.
    fn ssd_caching(unit_bytes: u32, map_cache_entries: Option<u64>) -> Ssd {
        let flash = FlashArray::new(FlashGeometry::small(), FlashTiming::mlc());
        let ftl = Ftl::new(
            flash,
            FtlConfig {
                unit_bytes,
                write_points: 2,
                gc_threshold_blocks: 4,
                gc_soft_threshold_blocks: 8,
                map_cache_entries,
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
        let mut s = ssd_caching(512, Some(4));
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
        assert!(map.access_cost(s.ftl().live_entries()) > map.hit_cost);
        let per_unit = map.hit_cost + timing.dram_unit_cost;
        let sector = u64::from(SECTOR_BYTES);
        assert_eq!(
            eight,
            one + per_unit * 7 + timing.link_transfer(8 * sector) - timing.link_transfer(sector)
        );
    }

    /// A remap batch pays one miss per mapping segment its source and
    /// destination ranges touch, not one per access: 64 sources in 64
    /// segments and 64 destinations in one are 65 misses and 63 hits.
    #[test]
    fn a_remap_batch_misses_once_per_segment_it_touches() {
        const SEG: u64 = MapCacheModel::SEGMENT_ENTRIES;
        let mut s = ssd_caching(512, Some(16));
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
        assert!(miss > map.hit_cost);
        let counted = |s: &Ssd| {
            let c = s.counters();
            (c.get(Counter::SsdMapUnits), c.get(Counter::SsdMapSegments))
        };
        let (units0, segments0) = counted(&s);
        s.take_cp_phase_times();
        s.checkpoint(&entries, CheckpointMode::Remap, t).unwrap();
        assert_eq!(s.counters().get(Counter::SsdRemapEntries), 64);
        assert_eq!(s.take_cp_phase_times().remap, miss * 65 + map.hit_cost * 63);
        let (units, segments) = counted(&s);
        assert_eq!((units - units0, segments - segments0), (128, 65));
    }

    #[test]
    fn background_gc_runs_only_under_pressure() {
        let mut s = ssd(512);
        let (rounds, _) = s.background_gc(SimTime::ZERO, 4).unwrap();
        assert_eq!(rounds, 0, "fresh device: no GC");
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
