//! Firmware-activity attribution for flash operations.
//!
//! Layers above the array label what the firmware is currently doing
//! with an [`OpPhase`]; the array then counts every program/read/erase
//! under the phase's own counter (`flash.program.cp_copy`, …). The plain
//! totals (`flash.program`, …) are [`checkin_sim::Total`]s: the bump
//! credits them from the per-phase counter and nothing else can, so the
//! per-phase keys sum to the totals over any counter-snapshot window by
//! construction — the invariant the checkpoint phase breakdown and its
//! reconciliation tests rely on.

use checkin_sim::Counter;

/// What the firmware is doing while it issues flash operations.
///
/// Set via [`FlashArray::set_op_phase`](crate::FlashArray::set_op_phase),
/// which returns the previous phase so callers can nest and restore
/// (e.g. a foreground GC triggered inside a checkpoint copy).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum OpPhase {
    /// Normal foreground work: host writes, reads, buffer page-out.
    #[default]
    Run,
    /// Checkpoint remap walk (ISCE mapping-table updates).
    CheckpointRemap,
    /// Checkpoint copy fallback (read-merge-write of sub-unit entries),
    /// including the host-driven copy path of the Baseline strategy.
    CheckpointCopy,
    /// Metadata persistence: mapping-log pages and meta superblocks.
    Meta,
    /// Host or checkpoint deallocation (tombstones, journal trim).
    Dealloc,
    /// Garbage collection and wear-leveling migration.
    Gc,
    /// Background integrity scrub reads in idle windows.
    Scrub,
}

impl OpPhase {
    /// Every phase, in a stable order (for reports and reconciliation).
    pub const ALL: [OpPhase; 7] = [
        OpPhase::Run,
        OpPhase::CheckpointRemap,
        OpPhase::CheckpointCopy,
        OpPhase::Meta,
        OpPhase::Dealloc,
        OpPhase::Gc,
        OpPhase::Scrub,
    ];

    /// Stable lowercase label (used in trace output and counter names).
    pub fn label(self) -> &'static str {
        match self {
            OpPhase::Run => "run",
            OpPhase::CheckpointRemap => "cp_remap",
            OpPhase::CheckpointCopy => "cp_copy",
            OpPhase::Meta => "meta",
            OpPhase::Dealloc => "dealloc",
            OpPhase::Gc => "gc",
            OpPhase::Scrub => "scrub",
        }
    }

    /// Counter of reads attributed to this phase.
    pub fn read_counter(self) -> Counter {
        match self {
            OpPhase::Run => Counter::FlashReadRun,
            OpPhase::CheckpointRemap => Counter::FlashReadCpRemap,
            OpPhase::CheckpointCopy => Counter::FlashReadCpCopy,
            OpPhase::Meta => Counter::FlashReadMeta,
            OpPhase::Dealloc => Counter::FlashReadDealloc,
            OpPhase::Gc => Counter::FlashReadGc,
            OpPhase::Scrub => Counter::FlashReadScrub,
        }
    }

    /// Counter of programs attributed to this phase.
    pub fn program_counter(self) -> Counter {
        match self {
            OpPhase::Run => Counter::FlashProgramRun,
            OpPhase::CheckpointRemap => Counter::FlashProgramCpRemap,
            OpPhase::CheckpointCopy => Counter::FlashProgramCpCopy,
            OpPhase::Meta => Counter::FlashProgramMeta,
            OpPhase::Dealloc => Counter::FlashProgramDealloc,
            OpPhase::Gc => Counter::FlashProgramGc,
            OpPhase::Scrub => Counter::FlashProgramScrub,
        }
    }

    /// Counter of erases attributed to this phase.
    pub fn erase_counter(self) -> Counter {
        match self {
            OpPhase::Run => Counter::FlashEraseRun,
            OpPhase::CheckpointRemap => Counter::FlashEraseCpRemap,
            OpPhase::CheckpointCopy => Counter::FlashEraseCpCopy,
            OpPhase::Meta => Counter::FlashEraseMeta,
            OpPhase::Dealloc => Counter::FlashEraseDealloc,
            OpPhase::Gc => Counter::FlashEraseGc,
            OpPhase::Scrub => Counter::FlashEraseScrub,
        }
    }
}
