//! Checkpoint execution for the five evaluated strategies.
//!
//! The host side of checkpointing: take the retiring journal zone (JMT
//! snapshot), move every live entry to its data-area home using the
//! strategy's mechanism, persist engine metadata, and trim the retired
//! zone. The strategies differ exactly as §IV-A describes:
//!
//! * **Baseline** — the engine reads each journal log over the host
//!   interface and rewrites it to the data area (two data transfers per
//!   entry, plus flash reads and programs);
//! * **ISC-A** — one vendor CoW command per entry (no data transfer, but
//!   per-command overhead and queue pressure);
//! * **ISC-B** — one batched multi-CoW command for the whole checkpoint;
//! * **ISC-C** — the batched command with FTL **remapping** over the
//!   512 B sub-page unit: sector-padded conventional logs remap, but the
//!   padding doubles journal volume and invalid-page generation;
//! * **Check-In** — remapping plus sector-aligned journaling: full logs
//!   remap, sub-sector values merge into shared units (checkpointed by
//!   buffered copies), large values compress.
//!
//! A checkpoint is begun, pumped and finished ([`RunningCheckpoint`]):
//! queries go on while its data moves, and every step books only what
//! can start at its own instant. One job ([`HostJob`]) moves the live
//! entries for every strategy by one of the paper's three mechanisms
//! ([`Mechanism`]): host-issued read-backs and rewrites (the Baseline)
//! or CoW commands (ISC-A) through a window of the checkpoint's own, as
//! deep as the device's queue, or one batched command, which the job's
//! first step sends (`Ssd::begin_checkpoint`) and its later steps pump
//! (`Ssd::pump`) through its walk, gather and scatter. The step that
//! ends the data movement writes the superblock and begins the retired
//! zone's trim (`Ssd::begin_deallocate`), the device's next job, whose
//! steps (`Ssd::pump` again) walk one map segment each; only the
//! deletion trims and the superblock are single bookings.

use checkin_flash::{Fragment, OobKind, OpPhase};
use checkin_sim::{Counter, CounterSet, InFlight, Progress, SimTime, Total};
use checkin_ssd::{
    CheckpointMode, CowEntry, CpPhaseTimes, ReadRequest, Ssd, SsdError, WriteContent, WriteRequest,
    SECTOR_BYTES,
};

use crate::config::Strategy;
use crate::journal::RetiringZone;
use crate::layout::Layout;
use crate::metrics::{CheckpointPhases, PhaseOps};

/// Engine-metadata pseudo-key used for superblock writes.
pub const SUPERBLOCK_KEY: u64 = u64::MAX - 1;

/// Result of one checkpoint.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CheckpointOutcome {
    /// When the checkpoint began (the trigger's instant).
    pub start: SimTime,
    /// When the checkpoint (including metadata and journal trim) finished.
    pub finish: SimTime,
    /// Live entries checkpointed.
    pub entries: u64,
    /// Entries satisfied by remapping.
    pub remapped: u64,
    /// Entries satisfied by in-storage or host copy.
    pub copied: u64,
    /// Deletion tombstones applied (home extents trimmed).
    pub deleted: u64,
    /// Logical units (re)written by this checkpoint's data movement — the
    /// paper's "redundant writes" in mapping units: the copies and the
    /// recovery metadata unit that closes a checkpoint command. Unlike
    /// `phases.flash_programs()`, this counts copies even when the device write
    /// buffer defers their page programs beyond the checkpoint window.
    /// Remapped entries cost zero.
    pub redundant_units: u64,
    /// Payload bytes (re)written by the data movement — the
    /// unit-size-independent form of `redundant_units`.
    pub redundant_bytes: u64,
    /// Host-interface bytes moved for this checkpoint: the baseline's
    /// read-back and rewrite, and the superblock write.
    pub host_bytes: u64,
    /// Entries whose live payload vanished before the checkpoint (e.g.
    /// fully superseded merged fragments): neither remapped nor copied.
    pub skipped: u64,
    /// Per-phase breakdown of this checkpoint (Algorithm 1 stages), with
    /// flash-op attribution per phase. Invariant (checked in debug
    /// builds): the checkpoint's own device calls did no run-phase or
    /// scrub flash op, so the phases account for all of their traffic.
    pub phases: CheckpointPhases,
}

/// The flash ops `counters` holds for one attribution phase.
fn phase_ops(counters: &CounterSet, phase: OpPhase) -> PhaseOps {
    PhaseOps {
        reads: counters.get(phase.read_counter()),
        programs: counters.get(phase.program_counter()),
        erases: counters.get(phase.erase_counter()),
    }
}

/// A checkpoint between its begin and its end. Queries keep running
/// while its data moves and while the retired zone is trimmed, so the
/// device counters move for them too: everything the checkpoint reports
/// is counted over its own device calls alone (the begin, every pump
/// step, the superblock write and the trim's), which [`own_call`]
/// brackets.
#[derive(Debug)]
pub(crate) struct RunningCheckpoint {
    seq: u64,
    start: SimTime,
    /// When the deletion tombstones were trimmed.
    drain_done: SimTime,
    tombstoned: u64,
    /// The job that moves the zone's live entries home.
    job: HostJob,
    /// What the last step returned: when to pump next, or when the data
    /// movement — once `ending` is set, the zone's trim — ended.
    progress: Progress<SimTime>,
    /// Set when the data movement is over and the superblock written.
    ending: Option<Ending>,
    /// Counter deltas summed over the checkpoint's own device calls.
    own: CounterSet,
}

/// What a checkpoint recorded when its data movement ended.
#[derive(Debug, Clone, Copy)]
struct Ending {
    /// When the job said the data movement ended, and that with the
    /// tombstone trims.
    moved: SimTime,
    movement_done: SimTime,
    /// When the superblock write was acknowledged: the zone's trim
    /// begins then.
    meta_done: SimTime,
    /// The device's remap and copy time of the data movement.
    cp_times: CpPhaseTimes,
    /// The units and bytes the data movement (re)wrote.
    redundant_units: u64,
    redundant_bytes: u64,
}

impl RunningCheckpoint {
    /// Begins checkpoint `seq` of `zone` with `strategy` at `at`: applies
    /// the deletion tombstones, then takes the job's first step — a
    /// batched command's admission, the host-issued I/O of the Baseline
    /// and ISC-A up to its first full window — and leaves the rest to
    /// [`RunningCheckpoint::pump`]. `spare` is the job a finished
    /// checkpoint handed back, whose buffers are reused.
    pub(crate) fn begin(
        ssd: &mut Ssd,
        strategy: Strategy,
        layout: &Layout,
        zone: &RetiringZone,
        seq: u64,
        at: SimTime,
        spare: Option<HostJob>,
    ) -> Result<Self, SsdError> {
        // Reset the device's accumulated remap/copy stopwatches so this
        // checkpoint's take at the end reflects only its own work.
        let _ = ssd.take_cp_phase_times();
        let depth = ssd.timing().queue_depth;
        let mut job = spare
            .filter(|job| job.depth == depth)
            .unwrap_or_else(|| HostJob::new(depth));
        job.load(layout, zone, Mechanism::of(strategy), at);
        let mut cp = RunningCheckpoint {
            seq,
            start: at,
            drain_done: at,
            tombstoned: 0,
            job,
            progress: Progress::PumpAt(at),
            ending: None,
            own: CounterSet::new(),
        };
        // Deletion tombstones: the checkpoint applies them by trimming
        // the key's home extent — identical for every strategy (a trim is
        // a mapping operation, nothing to copy or remap).
        let mut done = at;
        for (key, e) in &zone.entries {
            if e.tombstone {
                let (lba, sectors) = (layout.home_lba(*key), layout.slot_sectors() as u32);
                done = done.max(own_call(&mut cp.own, ssd, |ssd| {
                    Ok(ssd.deallocate(lba, sectors, at))
                })?);
                cp.tombstoned += 1;
            }
        }
        cp.drain_done = done;
        cp.pump(ssd, layout, zone, at)?;
        Ok(cp)
    }

    /// When the checkpoint asks to be pumped next, or `None` when it is
    /// ready to [`finish`](RunningCheckpoint::finish).
    pub(crate) fn next_pump(&self) -> Option<SimTime> {
        self.progress.due()
    }

    /// Whether the zone's live entries are still on their way home. Until
    /// they are, a key of the zone is read from its log; from the
    /// superblock on, from its home (the zone's trim unmaps the logs).
    pub(crate) fn moving(&self) -> bool {
        self.ending.is_none()
    }

    /// One step at `now`: of the job while the data moves, else of the
    /// zone's trim. The step that finds the data movement over writes
    /// the superblock and begins the trim.
    pub(crate) fn pump(
        &mut self,
        ssd: &mut Ssd,
        layout: &Layout,
        zone: &RetiringZone,
        now: SimTime,
    ) -> Result<(), SsdError> {
        if self.ending.is_some() {
            self.progress = own_call(&mut self.own, ssd, |ssd| ssd.pump(now))?;
            return Ok(());
        }
        let job = &mut self.job;
        self.progress = own_call(&mut self.own, ssd, |ssd| job.step(ssd, now))?;
        if let Progress::Done(moved) = self.progress {
            self.end_movement(ssd, layout, zone, moved)?;
        }
        Ok(())
    }

    /// The data movement ended at `moved`: persists the engine
    /// superblock, then begins deallocating the retired journal logs
    /// ("used journal data are flushed because they are no longer
    /// needed"), whose steps [`RunningCheckpoint::pump`] takes.
    fn end_movement(
        &mut self,
        ssd: &mut Ssd,
        layout: &Layout,
        zone: &RetiringZone,
        moved: SimTime,
    ) -> Result<(), SsdError> {
        let movement_done = self.drain_done.max(moved);
        let cp_times = ssd.take_cp_phase_times();
        // Data movement is complete; everything after this line (metadata,
        // trim) is bookkeeping, not redundant data writes.
        let redundant_units = self.own.get(Counter::FtlHostUnitWrites);
        let redundant_bytes = self.own.get(Counter::FtlHostBytes);

        // Engine metadata: the superblock records the checkpoint sequence
        // (parity identifies the newly active journal zone on recovery).
        let meta = WriteRequest {
            lba: layout.meta_base(),
            sectors: layout.unit_sectors() as u32,
            content: WriteContent::Record {
                key: SUPERBLOCK_KEY,
                version: self.seq,
                bytes: layout.unit_sectors() as u32 * SECTOR_BYTES,
            },
        };
        let meta_done = movement_done.max(own_call(&mut self.own, ssd, |ssd| {
            ssd.write(&meta, OobKind::Meta, movement_done)
        })?);
        self.ending = Some(Ending {
            moved,
            movement_done,
            meta_done,
            cp_times,
            redundant_units,
            redundant_bytes,
        });
        self.progress = if zone.used_sectors > 0 {
            let us = layout.unit_sectors();
            let trim_sectors = zone.used_sectors.div_ceil(us) * us;
            own_call(&mut self.own, ssd, |ssd| {
                ssd.begin_deallocate(zone.base_lba, trim_sectors as u32, meta_done)
            })?
        } else {
            Progress::Done(meta_done)
        };
        Ok(())
    }

    /// Ends the checkpoint once the zone's trim is over. Hands back the
    /// job for the next checkpoint's [`begin`](RunningCheckpoint::begin).
    ///
    /// # Errors
    ///
    /// [`SsdError::InvalidRequest`] when the data movement is not over.
    pub(crate) fn finish(
        self,
        zone: &RetiringZone,
    ) -> Result<(CheckpointOutcome, HostJob), SsdError> {
        debug_assert_eq!(self.next_pump(), None, "finish before the trim");
        let (Progress::Done(trimmed) | Progress::PumpAt(trimmed)) = self.progress;
        let end = self.ending.ok_or_else(|| {
            SsdError::InvalidRequest("a checkpoint finished before its data moved".into())
        })?;
        let done = end.meta_done.max(trimmed);
        let own = &self.own;
        let phases = CheckpointPhases {
            drain_time: self.drain_done.saturating_duration_since(self.start),
            remap: phase_ops(own, OpPhase::CheckpointRemap),
            remap_time: end.cp_times.remap,
            copy: phase_ops(own, OpPhase::CheckpointCopy),
            // A batched command's copy time is the device's; a
            // host-issued job's is its own span, however many of its
            // commands overlapped.
            copy_time: match self.job.mechanism {
                Mechanism::Batched(_) => end.cp_times.copy,
                _ => end.moved.saturating_duration_since(self.start),
            },
            meta: phase_ops(own, OpPhase::Meta),
            meta_time: end.meta_done.saturating_duration_since(end.movement_done),
            trim: phase_ops(own, OpPhase::Dealloc),
            trim_time: done.saturating_duration_since(end.meta_done),
            gc: phase_ops(own, OpPhase::Gc),
            other: phase_ops(own, OpPhase::Run),
        };
        // What these assert is that the breakdown above has a field for
        // every phase the checkpoint's own calls were active in: a scrub
        // read, or a flash op one of its calls left in the run phase,
        // would be checkpoint traffic the report silently leaves out.
        // Queries between two pump steps are not its calls, so their
        // run-phase traffic does not count.
        debug_assert_eq!(
            phases.flash_programs(),
            own.total(Total::FlashProgram),
            "per-phase program attribution must cover the checkpoint's calls"
        );
        debug_assert_eq!(
            phases.flash_reads(),
            own.total(Total::FlashRead),
            "per-phase read attribution must cover the checkpoint's calls"
        );
        debug_assert_eq!(
            phases.other.total(),
            0,
            "a checkpoint's own device calls do no run-phase flash op"
        );

        let remapped = own.get(Counter::SsdRemapEntries);
        let copied = own.get(Counter::SsdCopyEntries) + self.job.copied;
        let skipped = own.get(Counter::SsdCowSkippedEntries) + self.job.skipped;
        debug_assert_eq!(
            remapped + copied + skipped + self.tombstoned,
            zone.entries.len() as u64,
            "every zone entry must be remapped, copied, skipped, or tombstoned"
        );

        let outcome = CheckpointOutcome {
            start: self.start,
            finish: done,
            entries: zone.entries.len() as u64,
            remapped,
            copied,
            deleted: self.tombstoned,
            redundant_units: end.redundant_units,
            redundant_bytes: end.redundant_bytes,
            host_bytes: own.get(Counter::SsdHostReadBytes) + own.get(Counter::SsdHostWriteBytes),
            skipped,
            phases,
        };
        Ok((outcome, self.job))
    }
}

/// Runs `call` on the device as one of a checkpoint's own calls, adding
/// the counters it moved to `own`.
fn own_call<R>(
    own: &mut CounterSet,
    ssd: &mut Ssd,
    call: impl FnOnce(&mut Ssd) -> Result<R, SsdError>,
) -> Result<R, SsdError> {
    let before = ssd.all_counters();
    let out = call(ssd);
    own.merge(&ssd.all_counters().delta_since(&before));
    out
}

/// A Baseline read-back whose rewrite is not issued yet.
#[derive(Debug, Clone, Copy)]
struct Staged {
    key: u64,
    home_lba: u64,
    version: u64,
    bytes: u32,
    /// When the read-back completes: the rewrite is issued no earlier.
    read_done: SimTime,
}

/// How a checkpoint moves its live entries home: the paper's three
/// mechanisms (§IV-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mechanism {
    /// The Baseline: every live log read back and rewritten home.
    ReadBack,
    /// ISC-A: one CoW command per entry.
    PerEntry(CheckpointMode),
    /// ISC-B, ISC-C and Check-In: one batched command per checkpoint.
    Batched(CheckpointMode),
}

impl Mechanism {
    fn of(strategy: Strategy) -> Self {
        match strategy.checkpoint_mode() {
            None => Mechanism::ReadBack,
            Some(mode) if strategy.per_entry_commands() => Mechanism::PerEntry(mode),
            Some(mode) => Mechanism::Batched(mode),
        }
    }
}

/// A checkpoint's data movement, paced. A batched command is one device
/// command, sent by the first [`step`](HostJob::step) and scattered by
/// the device at the later ones. The Baseline's read-backs and rewrites
/// and ISC-A's commands are host-issued I/O: the checkpoint thread has a
/// submission queue of its own, as deep as the device's
/// (`SsdTiming::queue_depth`), and a step issues commands at its instant
/// only while that window has room — so foreground commands submitted
/// between two steps go ahead of the rest. Every command still goes
/// through the device's shared queue. A rewrite follows its own
/// read-back, not a barrier after all of them. The buffers are recycled
/// from checkpoint to checkpoint.
#[derive(Debug)]
pub(crate) struct HostJob {
    /// The job's own host-issued commands in flight, `depth` deep.
    window: InFlight,
    depth: usize,
    mechanism: Mechanism,
    /// The zone's live entries, in key order, and the next to issue (all
    /// of them once a batched command is sent).
    entries: Vec<CowEntry>,
    next: usize,
    /// Read-backs issued and not yet rewritten, in issue order.
    staged: Vec<Staged>,
    /// One read-back's fragments.
    frags: Vec<Fragment>,
    /// The Baseline's entries rewritten home, and those that read back
    /// empty (fully superseded); the device counts the others'.
    copied: u64,
    skipped: u64,
    /// The latest completion of the job's host-issued commands.
    acked: SimTime,
}

impl HostJob {
    fn new(depth: usize) -> Self {
        HostJob {
            window: InFlight::new(depth),
            depth,
            mechanism: Mechanism::ReadBack,
            entries: Vec::new(),
            next: 0,
            staged: Vec::with_capacity(depth),
            frags: Vec::new(),
            copied: 0,
            skipped: 0,
            acked: SimTime::ZERO,
        }
    }

    /// Takes `zone`'s live entries as the job's, to be moved home with
    /// `mechanism`, nothing issued at `at`.
    fn load(&mut self, layout: &Layout, zone: &RetiringZone, mechanism: Mechanism, at: SimTime) {
        self.entries.clear();
        self.entries.extend(
            zone.entries
                .iter()
                .filter(|(_, e)| !e.tombstone)
                .map(|(key, e)| CowEntry {
                    src_lba: e.journal_lba,
                    dst_lba: layout.home_lba(*key),
                    sectors: e.sectors,
                    // The home holds the record itself (or its compressed
                    // form), never the journal header padding.
                    dst_sectors: e
                        .raw_bytes
                        .min(e.stored_bytes)
                        .div_ceil(SECTOR_BYTES)
                        .max(1),
                    key: *key,
                    merged: e.merged,
                }),
        );
        self.mechanism = mechanism;
        self.next = 0;
        self.staged.clear();
        self.window.clear();
        self.copied = 0;
        self.skipped = 0;
        self.acked = at;
    }

    /// One step of the data movement at `now`. A batched command is sent
    /// by the first step (an empty batch sends none) and pumped by the
    /// later ones; the host-issued mechanisms go through
    /// [`issue`](HostJob::issue).
    fn step(&mut self, ssd: &mut Ssd, now: SimTime) -> Result<Progress<SimTime>, SsdError> {
        match self.mechanism {
            Mechanism::Batched(_) if self.entries.is_empty() => Ok(Progress::Done(now)),
            Mechanism::Batched(mode) if self.next == 0 => {
                self.next = self.entries.len();
                ssd.begin_checkpoint(&self.entries, mode, now)
            }
            Mechanism::Batched(_) => ssd.pump(now),
            // The Baseline's read-back-and-rewrite is its copy fallback;
            // attribute its flash ops accordingly. ISC-A's commands
            // attribute their own.
            Mechanism::ReadBack => ssd.in_phase(OpPhase::CheckpointCopy, |s| self.issue(s, now)),
            Mechanism::PerEntry(_) => self.issue(ssd, now),
        }
    }

    /// Host-issued I/O at `now`: while the window has room, issues the
    /// rewrite of the first read-back that has completed by `now`, else
    /// the next entry's read-back (the Baseline) or CoW command (ISC-A).
    /// Then asks to be pumped again when the window frees a slot, or
    /// when the next read-back completes; the step that finds every
    /// command issued and acknowledged ends the data movement.
    fn issue(&mut self, ssd: &mut Ssd, now: SimTime) -> Result<Progress<SimTime>, SsdError> {
        while self.window.next_free(now) == now {
            let done = if let Some(i) = self.staged.iter().position(|s| s.read_done <= now) {
                let s = self.staged.remove(i);
                self.copied += 1;
                let rewrite = WriteRequest {
                    lba: s.home_lba,
                    sectors: s.bytes.div_ceil(SECTOR_BYTES).max(1),
                    content: WriteContent::Record {
                        key: s.key,
                        version: s.version,
                        bytes: s.bytes,
                    },
                };
                ssd.write(&rewrite, OobKind::Data, now)?
            } else if let Some(&e) = self.entries.get(self.next) {
                self.next += 1;
                match self.mechanism {
                    Mechanism::PerEntry(mode) => ssd.cow_single(&e, mode, now)?,
                    _ => self.read_back(ssd, &e, now)?,
                }
            } else {
                break;
            };
            // The window had room at `now`: the command started then.
            self.window.complete(done);
            self.acked = self.acked.max(done);
        }
        if self.next == self.entries.len() && self.staged.is_empty() {
            return Ok(if self.acked > now {
                Progress::PumpAt(self.acked)
            } else {
                Progress::Done(now.max(self.acked))
            });
        }
        let free = self.window.next_free(now);
        let read = self.staged.iter().map(|s| s.read_done).min();
        Ok(Progress::PumpAt(match read {
            Some(read) if free == now => read,
            _ => free,
        }))
    }

    /// Reads entry `e`'s log back at `now`; stages its rewrite unless the
    /// log read back empty. Returns when the read completes.
    fn read_back(
        &mut self,
        ssd: &mut Ssd,
        e: &CowEntry,
        now: SimTime,
    ) -> Result<SimTime, SsdError> {
        self.frags.clear();
        let request = ReadRequest {
            lba: e.src_lba,
            sectors: e.sectors,
            key: Some(e.key),
        };
        let read_done = ssd.read_into(&request, now, &mut self.frags)?;
        let bytes: u32 = self.frags.iter().map(|f| f.bytes).sum();
        match self.frags.iter().map(|f| f.version).max() {
            Some(version) if bytes > 0 => self.staged.push(Staged {
                key: e.key,
                home_lba: e.dst_lba,
                version,
                bytes,
                read_done,
            }),
            _ => self.skipped += 1,
        }
        Ok(read_done)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::{JournalManager, JournalOptions};
    use crate::KvEngine;
    use checkin_flash::{FlashArray, FlashGeometry, FlashTiming};
    use checkin_ftl::{Ftl, FtlConfig};
    use checkin_ssd::SsdTiming;

    fn setup(strategy: Strategy) -> (Ssd, Layout, JournalManager) {
        let unit = strategy.default_unit_bytes();
        let flash = FlashArray::new(FlashGeometry::small(), FlashTiming::mlc());
        let ftl = Ftl::new(
            flash,
            FtlConfig {
                unit_bytes: unit,
                write_points: 2,
                gc_threshold_blocks: 4,
                gc_soft_threshold_blocks: 8,
                ..FtlConfig::default()
            },
        )
        .unwrap();
        let ssd = Ssd::new(ftl, SsdTiming::paper_default());
        let layout = Layout::new(64, 4096, unit, 1 << 12);
        let jm = JournalManager::with_options(layout, JournalOptions::for_strategy(strategy, 0.7));
        (ssd, layout, jm)
    }

    fn journal_some(ssd: &mut Ssd, jm: &mut JournalManager, n: u64) -> SimTime {
        let mut t = SimTime::ZERO;
        for key in 0..n {
            {
                let req = jm.append(key, 2, 480).unwrap();
                t = ssd.write(&req, OobKind::Journal, t).unwrap();
            }
        }
        t
    }

    /// `setup`'s device under an engine: every key loaded (version 1,
    /// 480 B), then keys `0..n` journaled once more (version 2, 480 B).
    /// Returns when the last write was acknowledged.
    fn journaled(strategy: Strategy, n: u64) -> (Ssd, KvEngine, SimTime) {
        let (mut ssd, layout, _) = setup(strategy);
        let mut engine = KvEngine::new(strategy, layout, 0.7);
        let records: Vec<(u64, u32)> = (0..layout.record_count()).map(|k| (k, 480)).collect();
        let mut t = engine.load(&mut ssd, &records, SimTime::ZERO).unwrap();
        for key in 0..n {
            t = engine.update(&mut ssd, key, 480, t).unwrap();
        }
        (ssd, engine, t)
    }

    fn verify_homes(ssd: &mut Ssd, layout: &Layout, n: u64, version: u64, t: SimTime) {
        for key in 0..n {
            let mut frags = Vec::new();
            ssd.read_into(
                &ReadRequest {
                    lba: layout.home_lba(key),
                    sectors: layout.slot_sectors() as u32,
                    key: Some(key),
                },
                t,
                &mut frags,
            )
            .unwrap();
            assert!(!frags.is_empty(), "key {key} missing at home");
            assert_eq!(
                frags.iter().map(|f| f.version).max().unwrap(),
                version,
                "key {key}"
            );
        }
    }

    #[test]
    fn every_strategy_lands_data_at_home() {
        for strategy in Strategy::all() {
            let (mut ssd, mut engine, t) = journaled(strategy, 16);
            let out = engine.checkpoint(&mut ssd, t).unwrap();
            assert_eq!(out.entries, 16, "{strategy}");
            verify_homes(&mut ssd, engine.layout(), 16, 2, out.finish);
            ssd.ftl().check_invariants().unwrap();
        }
    }

    #[test]
    fn checkin_journals_less_than_iscc() {
        // With conventional journaling each commit pads to a full sector,
        // so a stream of sub-sector and compressible values costs ISC-C
        // more journal sectors than Check-In's size classes + merging +
        // compression. Fewer journal sectors -> fewer page programs.
        let sizes = [100u32, 200, 300, 480, 900, 2000, 4000, 150];
        let mut journal_sectors = Vec::new();
        let mut stored_bytes = Vec::new();
        for strategy in [Strategy::IscC, Strategy::CheckIn] {
            let (mut ssd, mut engine, mut t) = journaled(strategy, 0);
            for (i, &bytes) in sizes.iter().cycle().take(64).enumerate() {
                t = engine.update(&mut ssd, i as u64 % 32, bytes, t).unwrap();
            }
            journal_sectors.push(engine.journal().zone_used_sectors());
            stored_bytes.push(engine.journal().jmt().stored_bytes());
            let out = engine.checkpoint(&mut ssd, t).unwrap();
            assert!(out.remapped > 0, "{strategy} should remap");
        }
        assert!(
            journal_sectors[1] < journal_sectors[0],
            "Check-In sectors {} !< ISC-C sectors {}",
            journal_sectors[1],
            journal_sectors[0]
        );
        assert!(stored_bytes[1] < stored_bytes[0]);
    }

    #[test]
    fn checkin_merged_partials_copy_but_iscc_small_logs_remap() {
        // Sub-sector values: ISC-C pads them to whole sectors (remappable);
        // Check-In merges them (space-efficient, checkpoint copies).
        let (mut ssd_c, mut engine_c, mut t) = journaled(Strategy::IscC, 0);
        for key in 0..10u64 {
            t = engine_c.update(&mut ssd_c, key, 150, t).unwrap();
        }
        let used_iscc = engine_c.journal().zone_used_sectors();
        let out_c = engine_c.checkpoint(&mut ssd_c, t).unwrap();
        assert_eq!(out_c.remapped, 10);

        let (mut ssd_ci, mut engine_ci, mut t) = journaled(Strategy::CheckIn, 0);
        for key in 0..10u64 {
            t = engine_ci.update(&mut ssd_ci, key, 150, t).unwrap();
        }
        let used_ci = engine_ci.journal().zone_used_sectors();
        let out_ci = engine_ci.checkpoint(&mut ssd_ci, t).unwrap();
        assert_eq!(out_ci.copied, 10, "merged partials take the copy path");
        // 256-byte classes merge two per sector: half the journal space.
        assert!(used_ci <= used_iscc / 2 + 1, "{used_ci} vs {used_iscc}");
    }

    #[test]
    fn baseline_moves_bytes_over_host_interface() {
        let (mut ssd, mut engine, t) = journaled(Strategy::Baseline, 8);
        let out = engine.checkpoint(&mut ssd, t).unwrap();
        assert!(
            out.host_bytes > 8 * 480,
            "host transfer: {}",
            out.host_bytes
        );
        assert_eq!(out.remapped, 0);
    }

    #[test]
    fn in_storage_strategies_move_no_host_data() {
        for strategy in [
            Strategy::IscA,
            Strategy::IscB,
            Strategy::IscC,
            Strategy::CheckIn,
        ] {
            let (mut ssd, mut engine, t) = journaled(strategy, 8);
            let out = engine.checkpoint(&mut ssd, t).unwrap();
            // Only the metadata write moves host bytes.
            assert!(
                out.host_bytes <= 8 * SECTOR_BYTES as u64,
                "{strategy}: {}",
                out.host_bytes
            );
        }
    }

    /// The Baseline's read-backs and rewrites and ISC-A's commands are
    /// paced through the checkpoint's own window. With no foreground
    /// traffic the device queue sees the job alone, and the job never
    /// makes a command of its own wait there: at most `queue_depth` are
    /// in flight, where a burst would queue all 64 entries at once. No
    /// rewrite is issued before its own read-back completes, and every
    /// entry is copied, skipped or tombstoned exactly once.
    #[test]
    fn host_checkpoints_keep_a_queue_deep_window() {
        for strategy in [Strategy::Baseline, Strategy::IscA] {
            let (mut ssd, layout, mut jm) = setup(strategy);
            let keys = layout.record_count();
            let t = journal_some(&mut ssd, &mut jm, keys);
            let zone = jm.begin_checkpoint();
            let tracer = checkin_sim::Tracer::ring_buffered(1 << 12);
            ssd.set_tracer(tracer.clone());
            let reads = ssd.counters().get(Counter::SsdCmdRead);
            let mut cp =
                RunningCheckpoint::begin(&mut ssd, strategy, &layout, &zone, 1, t, None).unwrap();
            let mut steps = 1;
            let begun = cp.progress;
            begun
                .finish(|due| {
                    let staged: Vec<(u64, SimTime)> =
                        cp.job.staged.iter().map(|s| (s.key, s.read_done)).collect();
                    let copied = cp.job.copied;
                    cp.pump(&mut ssd, &layout, &zone, due)?;
                    steps += 1;
                    let rewritten: Vec<&(u64, SimTime)> = staged
                        .iter()
                        .filter(|(key, _)| !cp.job.staged.iter().any(|s| s.key == *key))
                        .collect();
                    assert_eq!(cp.job.copied - copied, rewritten.len() as u64, "{strategy}");
                    for (key, read_done) in rewritten {
                        assert!(*read_done <= due, "{strategy}: key {key} rewritten early");
                    }
                    Ok::<_, SsdError>(cp.progress)
                })
                .unwrap();
            let admits: Vec<_> = tracer
                .drain()
                .into_iter()
                .filter(|e| e.op == "admit")
                .collect();
            assert!(admits.len() as u64 >= keys, "{strategy}: {}", admits.len());
            for e in &admits {
                assert!(
                    e.fields().contains(&("wait_ns", 0)),
                    "{strategy}: a command of the job queued at the device: {e:?}"
                );
            }
            assert!(steps > 2, "{strategy}: {steps} steps");
            let (out, _) = cp.finish(&zone).unwrap();
            assert_eq!(out.entries, keys);
            assert_eq!(out.copied + out.skipped, keys, "{strategy}");
            let read_backs = ssd.counters().get(Counter::SsdCmdRead) - reads;
            match strategy {
                Strategy::Baseline => assert_eq!(read_backs, keys),
                _ => assert_eq!(ssd.counters().get(Counter::SsdCmdCow), keys),
            }
            verify_homes(&mut ssd, &layout, keys, 2, out.finish);
        }
    }

    /// Tombstones are trimmed once at the begin and are not read back;
    /// the live entries around them are moved exactly once.
    #[test]
    fn host_checkpoints_move_each_live_entry_once() {
        for strategy in [Strategy::Baseline, Strategy::IscA] {
            let (mut ssd, mut engine, mut t) = journaled(strategy, 64);
            let keys = engine.layout().record_count();
            for key in (0..keys).step_by(8) {
                t = engine.delete(&mut ssd, key, t).unwrap();
            }
            let cmds = |ssd: &Ssd| {
                let c = ssd.counters();
                c.get(Counter::SsdCmdRead) + c.get(Counter::SsdCmdCow)
            };
            let before = cmds(&ssd);
            let out = engine.checkpoint(&mut ssd, t).unwrap();
            assert_eq!(out.deleted, keys / 8, "{strategy}");
            assert_eq!(out.copied + out.skipped + out.deleted, keys, "{strategy}");
            assert_eq!(cmds(&ssd) - before, keys - keys / 8, "{strategy}");
        }
    }

    #[test]
    fn isca_issues_one_command_per_entry() {
        let (mut ssd, mut engine, t) = journaled(Strategy::IscA, 12);
        engine.checkpoint(&mut ssd, t).unwrap();
        assert_eq!(ssd.counters().get(Counter::SsdCmdCow), 12);
        assert_eq!(ssd.counters().get(Counter::SsdCmdCheckpoint), 0);
    }

    #[test]
    fn iscb_issues_one_batched_command() {
        let (mut ssd, mut engine, t) = journaled(Strategy::IscB, 12);
        engine.checkpoint(&mut ssd, t).unwrap();
        assert_eq!(ssd.counters().get(Counter::SsdCmdCow), 0);
        assert_eq!(ssd.counters().get(Counter::SsdCmdCheckpoint), 1);
    }

    #[test]
    fn empty_zone_checkpoint_is_cheap() {
        for strategy in Strategy::all() {
            let (mut ssd, mut engine, t) = journaled(strategy, 0);
            let out = engine.checkpoint(&mut ssd, t).unwrap();
            assert_eq!(out.entries, 0);
            assert_eq!(out.remapped + out.copied, 0);
        }
    }

    #[test]
    fn journal_trimmed_after_checkpoint() {
        let (mut ssd, mut engine, t) = journaled(Strategy::CheckIn, 8);
        let first_journal_lba = engine.layout().journal_base(0);
        let out = engine.checkpoint(&mut ssd, t).unwrap();
        // Journal LBA no longer readable; home still is.
        let mut frags = Vec::new();
        ssd.read_into(
            &ReadRequest {
                lba: first_journal_lba,
                sectors: 1,
                key: None,
            },
            out.finish,
            &mut frags,
        )
        .unwrap();
        assert!(frags.is_empty(), "journal should be trimmed");
        verify_homes(&mut ssd, engine.layout(), 8, 2, out.finish);
    }

    #[test]
    fn merged_partials_checkpoint_correctly() {
        let (mut ssd, mut engine, mut t) = journaled(Strategy::CheckIn, 10);
        // Small values -> PARTIAL -> merged sectors.
        for key in 0..10u64 {
            t = engine.update(&mut ssd, key, 100, t).unwrap();
        }
        let out = engine.checkpoint(&mut ssd, t).unwrap();
        // Merged entries cannot remap.
        assert_eq!(out.remapped, 0);
        assert_eq!(out.copied, 10);
        verify_homes(&mut ssd, engine.layout(), 10, 3, out.finish);
    }
}
