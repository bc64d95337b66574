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

use checkin_flash::{OobKind, OpPhase};
use checkin_sim::{Counter, CounterSet, SimDuration, SimTime, Total};
use checkin_ssd::{
    CowEntry, CpProgress, ReadRequest, Ssd, SsdError, WriteContent, WriteRequest, SECTOR_BYTES,
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
    /// Flash page programs of this checkpoint's own device calls (the
    /// paper's "redundant writes"): the sum of its phases' programs.
    pub flash_programs: u64,
    /// Flash page reads of this checkpoint's own device calls: the sum of
    /// its phases' reads.
    pub flash_reads: u64,
    /// Logical units (re)written by this checkpoint's data movement — the
    /// paper's "redundant writes" in mapping units: the copies and the
    /// recovery metadata unit that closes a checkpoint command. Unlike
    /// `flash_programs`, this counts copies even when the device write
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

/// The device's flash, FTL and SSD counters in one set (disjoint key
/// prefixes).
fn device_counters(ssd: &Ssd) -> CounterSet {
    let mut all = ssd.ftl().flash().counters().clone();
    all.merge(ssd.ftl().counters());
    all.merge(ssd.counters());
    all
}

/// A checkpoint between its begin and its end. Queries keep running
/// while its copy class is scattered, so the device counters move for
/// them too: everything the checkpoint reports is counted over its own
/// device calls alone (the begin, every pump step, the metadata write
/// and the trim), which [`RunningCheckpoint::own`] brackets.
#[derive(Debug)]
pub(crate) struct RunningCheckpoint {
    seq: u64,
    start: SimTime,
    /// When the deletion tombstones were trimmed.
    drain_done: SimTime,
    tombstoned: u64,
    /// The baseline's host-driven copy: entries rewritten home, entries
    /// that read back empty, and the time it took.
    host_copied: u64,
    host_skipped: u64,
    host_copy_time: SimDuration,
    /// When the device's copy job asks to be pumped next; `None` once the
    /// data movement is over, at `movement_done`.
    next_pump: Option<SimTime>,
    movement_done: SimTime,
    /// Counter deltas summed over the checkpoint's own device calls.
    own: CounterSet,
}

impl RunningCheckpoint {
    /// Begins checkpoint `seq` of `zone` with `strategy` at `at`: applies
    /// the deletion tombstones, then moves every live entry home — the
    /// baseline's host copy and ISC-A's per-entry commands in full, a
    /// batched command up to its scatter, which the device's pump does
    /// (see [`RunningCheckpoint::pump`]).
    pub(crate) fn begin(
        ssd: &mut Ssd,
        strategy: Strategy,
        layout: &Layout,
        zone: &RetiringZone,
        seq: u64,
        at: SimTime,
    ) -> Result<Self, SsdError> {
        // Reset the device's accumulated remap/copy stopwatches so this
        // checkpoint's take at the end reflects only its own work.
        let _ = ssd.take_cp_phase_times();
        let mut cp = RunningCheckpoint {
            seq,
            start: at,
            drain_done: at,
            tombstoned: 0,
            host_copied: 0,
            host_skipped: 0,
            host_copy_time: SimDuration::ZERO,
            next_pump: None,
            movement_done: at,
            own: CounterSet::new(),
        };
        // Deletion tombstones: the checkpoint applies them by trimming
        // the key's home extent — identical for every strategy (a trim is
        // a mapping operation, nothing to copy or remap).
        let mut done = at;
        for (key, e) in &zone.entries {
            if e.tombstone {
                let (lba, sectors) = (layout.home_lba(*key), layout.slot_sectors() as u32);
                done = done.max(cp.own(ssd, |ssd| Ok(ssd.deallocate(lba, sectors, at)))?);
                cp.tombstoned += 1;
            }
        }
        cp.drain_done = done;
        cp.movement_done = done;

        match strategy.checkpoint_mode() {
            None => {
                // The baseline's read-back-and-rewrite loop is its copy
                // fallback; attribute its flash ops accordingly.
                let (finish, copied, skipped) = cp.own(ssd, |ssd| {
                    ssd.in_phase(OpPhase::CheckpointCopy, |ssd| {
                        host_checkpoint(ssd, layout, zone, at)
                    })
                })?;
                cp.host_copied = copied;
                cp.host_skipped = skipped;
                cp.host_copy_time = finish.saturating_duration_since(at);
                cp.movement_done = cp.movement_done.max(finish);
            }
            Some(mode) if strategy.per_entry_commands() => {
                for e in &build_entries(layout, zone) {
                    let t = cp.own(ssd, |ssd| ssd.cow_single(e, mode, at))?;
                    cp.movement_done = cp.movement_done.max(t);
                }
            }
            Some(mode) => {
                let entries = build_entries(layout, zone);
                if !entries.is_empty() {
                    let progress = cp.own(ssd, |ssd| ssd.begin_checkpoint(&entries, mode, at))?;
                    cp.advance(progress);
                }
            }
        }
        Ok(cp)
    }

    /// When the device's copy job asks to be pumped next, or `None` when
    /// the checkpoint is ready to [`finish`](RunningCheckpoint::finish).
    pub(crate) fn next_pump(&self) -> Option<SimTime> {
        self.next_pump
    }

    /// One pump step of the device's copy job at `now`.
    pub(crate) fn pump(&mut self, ssd: &mut Ssd, now: SimTime) -> Result<(), SsdError> {
        let progress = self.own(ssd, |ssd| ssd.pump_checkpoint(now))?;
        self.advance(progress);
        Ok(())
    }

    fn advance(&mut self, progress: CpProgress) {
        match progress {
            CpProgress::PumpAt(t) => self.next_pump = Some(t),
            CpProgress::Done(t) => {
                self.next_pump = None;
                self.movement_done = self.movement_done.max(t);
            }
        }
    }

    /// Runs `call` on the device as one of this checkpoint's own calls,
    /// adding the counters it moved to the checkpoint's.
    fn own<R>(
        &mut self,
        ssd: &mut Ssd,
        call: impl FnOnce(&mut Ssd) -> Result<R, SsdError>,
    ) -> Result<R, SsdError> {
        let before = device_counters(ssd);
        let out = call(ssd);
        self.own.merge(&device_counters(ssd).delta_since(&before));
        out
    }

    /// Ends the checkpoint once its data movement is over: persists the
    /// engine superblock and trims the retired zone.
    pub(crate) fn finish(
        mut self,
        ssd: &mut Ssd,
        layout: &Layout,
        zone: &RetiringZone,
    ) -> Result<CheckpointOutcome, SsdError> {
        debug_assert!(self.next_pump.is_none(), "finish before the copy job");
        let movement_done = self.movement_done;
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
        let meta_done =
            movement_done.max(self.own(ssd, |ssd| ssd.write(&meta, OobKind::Meta, movement_done))?);

        // Deallocate the retired journal logs ("used journal data are
        // flushed because they are no longer needed").
        let mut done = meta_done;
        if zone.used_sectors > 0 {
            let us = layout.unit_sectors();
            let trim_sectors = zone.used_sectors.div_ceil(us) * us;
            let trim = self.own(ssd, |ssd| {
                Ok(ssd.deallocate(zone.base_lba, trim_sectors as u32, meta_done))
            })?;
            done = done.max(trim);
        }

        let own = &self.own;
        let phases = CheckpointPhases {
            drain_time: self.drain_done.saturating_duration_since(self.start),
            remap: phase_ops(own, OpPhase::CheckpointRemap),
            remap_time: cp_times.remap,
            copy: phase_ops(own, OpPhase::CheckpointCopy),
            copy_time: cp_times.copy + self.host_copy_time,
            meta: phase_ops(own, OpPhase::Meta),
            meta_time: meta_done.saturating_duration_since(movement_done),
            trim: phase_ops(own, OpPhase::Dealloc),
            trim_time: done.saturating_duration_since(meta_done),
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
        let copied = own.get(Counter::SsdCopyEntries) + self.host_copied;
        let skipped = own.get(Counter::SsdCowSkippedEntries) + self.host_skipped;
        debug_assert_eq!(
            remapped + copied + skipped + self.tombstoned,
            zone.entries.len() as u64,
            "every zone entry must be remapped, copied, skipped, or tombstoned"
        );

        Ok(CheckpointOutcome {
            start: self.start,
            finish: done,
            entries: zone.entries.len() as u64,
            remapped,
            copied,
            deleted: self.tombstoned,
            flash_programs: phases.flash_programs(),
            flash_reads: phases.flash_reads(),
            redundant_units,
            redundant_bytes,
            host_bytes: own.get(Counter::SsdHostReadBytes) + own.get(Counter::SsdHostWriteBytes),
            skipped,
            phases,
        })
    }
}

/// Executes one checkpoint of `zone` with `strategy`, starting at `at`,
/// to its end: its begin, every pump step of the device's copy job at
/// the instant the one before asked for, and its finish.
///
/// # Errors
///
/// Propagates device failures; the checkpoint is not atomic against
/// device errors (they indicate simulator bugs or genuine out-of-space).
pub fn run_checkpoint(
    ssd: &mut Ssd,
    strategy: Strategy,
    layout: &Layout,
    zone: &RetiringZone,
    checkpoint_seq: u64,
    at: SimTime,
) -> Result<CheckpointOutcome, SsdError> {
    let mut cp = RunningCheckpoint::begin(ssd, strategy, layout, zone, checkpoint_seq, at)?;
    while let Some(t) = cp.next_pump() {
        cp.pump(ssd, t)?;
    }
    cp.finish(ssd, layout, zone)
}

/// Builds device CoW entries from the retiring zone's JMT snapshot.
fn build_entries(layout: &Layout, zone: &RetiringZone) -> Vec<CowEntry> {
    zone.entries
        .iter()
        .filter(|(_, e)| !e.tombstone)
        .map(|(key, e)| CowEntry {
            src_lba: e.journal_lba,
            dst_lba: layout.home_lba(*key),
            sectors: e.sectors,
            // The home holds the record itself (or its compressed form),
            // never the journal header padding.
            dst_sectors: e
                .raw_bytes
                .min(e.stored_bytes)
                .div_ceil(SECTOR_BYTES)
                .max(1),
            key: *key,
            merged: e.merged,
        })
        .collect()
}

/// Baseline: host reads every journal log back and rewrites it home.
/// Reads are issued as a batch (bounded by queue depth), then writes, then
/// metadata — matching Figure 4(a)'s ordering.
///
/// Returns `(finish, copied, skipped)`: entries rewritten home vs entries
/// whose journal payload read back empty (fully superseded).
fn host_checkpoint(
    ssd: &mut Ssd,
    layout: &Layout,
    zone: &RetiringZone,
    at: SimTime,
) -> Result<(SimTime, u64, u64), SsdError> {
    let mut reads_done = at;
    let mut skipped = 0u64;
    let mut staged = Vec::with_capacity(zone.entries.len());
    for (key, e) in &zone.entries {
        if e.tombstone {
            continue;
        }
        let (frags, t) = ssd.read(
            &ReadRequest {
                lba: e.journal_lba,
                sectors: e.sectors,
                key: Some(*key),
            },
            at,
        )?;
        reads_done = reads_done.max(t);
        let bytes: u32 = frags.iter().map(|f| f.bytes).sum();
        let version = frags.iter().map(|f| f.version).max().unwrap_or(e.version);
        if bytes > 0 {
            staged.push((*key, version, bytes));
        } else {
            skipped += 1;
        }
    }
    let copied = staged.len() as u64;
    let mut writes_done = reads_done;
    for (key, version, bytes) in staged {
        let sectors = bytes.div_ceil(SECTOR_BYTES).max(1);
        let t = ssd.write(
            &WriteRequest {
                lba: layout.home_lba(key),
                sectors,
                content: WriteContent::Record {
                    key,
                    version,
                    bytes,
                },
            },
            OobKind::Data,
            reads_done,
        )?;
        writes_done = writes_done.max(t);
    }
    Ok((writes_done, copied, skipped))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::JournalManager;
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
        let jm = JournalManager::new(layout, strategy.sector_aligned_journaling(), 0.7);
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

    fn verify_homes(ssd: &mut Ssd, layout: &Layout, n: u64, version: u64, t: SimTime) {
        for key in 0..n {
            let (frags, _) = ssd
                .read(
                    &ReadRequest {
                        lba: layout.home_lba(key),
                        sectors: layout.slot_sectors() as u32,
                        key: Some(key),
                    },
                    t,
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
            let (mut ssd, layout, mut jm) = setup(strategy);
            let t = journal_some(&mut ssd, &mut jm, 16);
            let zone = jm.begin_checkpoint();
            let out = run_checkpoint(&mut ssd, strategy, &layout, &zone, 1, t).unwrap();
            assert_eq!(out.entries, 16, "{strategy}");
            verify_homes(&mut ssd, &layout, 16, 2, out.finish);
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
            let (mut ssd, layout, mut jm) = setup(strategy);
            let mut t = SimTime::ZERO;
            for (i, &bytes) in sizes.iter().cycle().take(64).enumerate() {
                {
                    let req = jm.append(i as u64 % 32, 2, bytes).unwrap();
                    t = ssd.write(&req, OobKind::Journal, t).unwrap();
                }
            }
            journal_sectors.push(jm.zone_used_sectors());
            stored_bytes.push(jm.jmt().stored_bytes());
            let zone = jm.begin_checkpoint();
            let out = run_checkpoint(&mut ssd, strategy, &layout, &zone, 1, t).unwrap();
            assert!(out.remapped > 0, "{strategy} should remap");
            let _ = layout;
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
        let (mut ssd_c, layout_c, mut jm_c) = setup(Strategy::IscC);
        let mut t = SimTime::ZERO;
        for key in 0..10u64 {
            {
                let req = jm_c.append(key, 2, 150).unwrap();
                t = ssd_c.write(&req, OobKind::Journal, t).unwrap();
            }
        }
        let used_iscc = jm_c.zone_used_sectors();
        let zone = jm_c.begin_checkpoint();
        let out_c = run_checkpoint(&mut ssd_c, Strategy::IscC, &layout_c, &zone, 1, t).unwrap();
        assert_eq!(out_c.remapped, 10);

        let (mut ssd_ci, layout_ci, mut jm_ci) = setup(Strategy::CheckIn);
        let mut t = SimTime::ZERO;
        for key in 0..10u64 {
            {
                let req = jm_ci.append(key, 2, 150).unwrap();
                t = ssd_ci.write(&req, OobKind::Journal, t).unwrap();
            }
        }
        let used_ci = jm_ci.zone_used_sectors();
        let zone = jm_ci.begin_checkpoint();
        let out_ci =
            run_checkpoint(&mut ssd_ci, Strategy::CheckIn, &layout_ci, &zone, 1, t).unwrap();
        assert_eq!(out_ci.copied, 10, "merged partials take the copy path");
        // 256-byte classes merge two per sector: half the journal space.
        assert!(used_ci <= used_iscc / 2 + 1, "{used_ci} vs {used_iscc}");
    }

    #[test]
    fn baseline_moves_bytes_over_host_interface() {
        let (mut ssd, layout, mut jm) = setup(Strategy::Baseline);
        let t = journal_some(&mut ssd, &mut jm, 8);
        let zone = jm.begin_checkpoint();
        let out = run_checkpoint(&mut ssd, Strategy::Baseline, &layout, &zone, 1, t).unwrap();
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
            let (mut ssd, layout, mut jm) = setup(strategy);
            let t = journal_some(&mut ssd, &mut jm, 8);
            let zone = jm.begin_checkpoint();
            let out = run_checkpoint(&mut ssd, strategy, &layout, &zone, 1, t).unwrap();
            // Only the metadata write moves host bytes.
            assert!(
                out.host_bytes <= 8 * SECTOR_BYTES as u64,
                "{strategy}: {}",
                out.host_bytes
            );
        }
    }

    #[test]
    fn isca_issues_one_command_per_entry() {
        let (mut ssd, layout, mut jm) = setup(Strategy::IscA);
        let t = journal_some(&mut ssd, &mut jm, 12);
        let zone = jm.begin_checkpoint();
        run_checkpoint(&mut ssd, Strategy::IscA, &layout, &zone, 1, t).unwrap();
        assert_eq!(ssd.counters().get(Counter::SsdCmdCow), 12);
        assert_eq!(ssd.counters().get(Counter::SsdCmdCheckpoint), 0);
    }

    #[test]
    fn iscb_issues_one_batched_command() {
        let (mut ssd, layout, mut jm) = setup(Strategy::IscB);
        let t = journal_some(&mut ssd, &mut jm, 12);
        let zone = jm.begin_checkpoint();
        run_checkpoint(&mut ssd, Strategy::IscB, &layout, &zone, 1, t).unwrap();
        assert_eq!(ssd.counters().get(Counter::SsdCmdCow), 0);
        assert_eq!(ssd.counters().get(Counter::SsdCmdCheckpoint), 1);
    }

    #[test]
    fn empty_zone_checkpoint_is_cheap() {
        for strategy in Strategy::all() {
            let (mut ssd, layout, mut jm) = setup(strategy);
            let zone = jm.begin_checkpoint();
            let out = run_checkpoint(&mut ssd, strategy, &layout, &zone, 1, SimTime::ZERO).unwrap();
            assert_eq!(out.entries, 0);
            assert_eq!(out.remapped + out.copied, 0);
        }
    }

    #[test]
    fn journal_trimmed_after_checkpoint() {
        let (mut ssd, layout, mut jm) = setup(Strategy::CheckIn);
        let t = journal_some(&mut ssd, &mut jm, 8);
        let first_journal_lba = layout.journal_base(0);
        let zone = jm.begin_checkpoint();
        let out = run_checkpoint(&mut ssd, Strategy::CheckIn, &layout, &zone, 1, t).unwrap();
        // Journal LBA no longer readable; home still is.
        let (frags, _) = ssd
            .read(
                &ReadRequest {
                    lba: first_journal_lba,
                    sectors: 1,
                    key: None,
                },
                out.finish,
            )
            .unwrap();
        assert!(frags.is_empty(), "journal should be trimmed");
        verify_homes(&mut ssd, &layout, 8, 2, out.finish);
    }

    #[test]
    fn merged_partials_checkpoint_correctly() {
        let (mut ssd, layout, mut jm) = setup(Strategy::CheckIn);
        let mut t = SimTime::ZERO;
        // Small values -> PARTIAL -> merged sectors.
        for key in 0..10u64 {
            {
                let req = jm.append(key, 3, 100).unwrap();
                t = ssd.write(&req, OobKind::Journal, t).unwrap();
            }
        }
        let zone = jm.begin_checkpoint();
        let out = run_checkpoint(&mut ssd, Strategy::CheckIn, &layout, &zone, 1, t).unwrap();
        // Merged entries cannot remap.
        assert_eq!(out.remapped, 0);
        assert_eq!(out.copied, 10);
        verify_homes(&mut ssd, &layout, 10, 3, out.finish);
    }
}
