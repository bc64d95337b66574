//! The counter schema: every key any layer counts under, as a type.
//!
//! A [`Counter`] is a key call sites bump; a [`Total`] is a key that is
//! only ever *derived* — [`CounterSet::add`](super::CounterSet::add)
//! credits it from its parts, and no bump accepts it. Both index one
//! array in key-name order, so the names below are the contract with
//! every report, CSV header and benchmark catalog: renaming a variant is
//! free, changing a string is not.

/// Declares the schema from one list in key-name order. An entry is a
/// leaf (`Variant = "name"`), a leaf that is part of a total
/// (`Variant: ItsTotal = "name"`), or a total (`#[total] Variant = "name"`).
macro_rules! schema {
    ($( $(#[total] $t:ident)? $($l:ident $(: $lt:ident)?)? = $name:literal, )*) => {
        /// Cell of every key, leaf or total, in name order.
        #[repr(u8)]
        enum Slot { $( $($t)? $($l)? ),* }

        /// Key names by cell.
        pub(super) const NAMES: &[&str] = &[$($name),*];

        /// A counter call sites bump: one variant per leaf key, in name
        /// order.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        #[repr(u8)]
        pub enum Counter {
            $($(
                #[doc = concat!("`", $name, "`")]
                $l = Slot::$l as u8,
            )?)*
        }

        /// A counter nobody bumps: the sum of the [`Counter`]s whose
        /// [`Counter::total`] names it, kept by the bump itself.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        #[repr(u8)]
        pub enum Total {
            $($(
                #[doc = concat!("`", $name, "`")]
                $t = Slot::$t as u8,
            )?)*
        }

        impl Counter {
            /// Every leaf key, in name order.
            pub const ALL: &'static [Counter] = &[$($(Counter::$l,)?)*];

            /// The total this counter is a part of, if any.
            #[inline]
            pub fn total(self) -> Option<Total> {
                match self {
                    $($($(Counter::$l => Some(Total::$lt),)?)?)*
                    _ => None,
                }
            }
        }

        impl Total {
            /// Every derived key, in name order.
            pub const ALL: &'static [Total] = &[$($(Total::$t,)?)*];
        }
    };
}

schema! {
    EngineCheckpoints = "engine.checkpoints",
    EngineCheckpointsDrained = "engine.checkpoints_drained",
    EngineDeletes = "engine.deletes",
    EngineInserts = "engine.inserts",
    EngineJournalRawBytes = "engine.journal_raw_bytes",
    EngineJournalStoredBytes = "engine.journal_stored_bytes",
    EngineLoads = "engine.loads",
    EngineReads = "engine.reads",
    EngineRecoveries = "engine.recoveries",
    EngineSupersededLogs = "engine.superseded_logs",
    EngineUpdateBytes = "engine.update_bytes",
    EngineUpdates = "engine.updates",
    FlashBitRotData = "flash.bit_rot_data",
    FlashBitRotOob = "flash.bit_rot_oob",
    #[total] FlashErase = "flash.erase",
    FlashEraseCpCopy: FlashErase = "flash.erase.cp_copy",
    FlashEraseCpRemap: FlashErase = "flash.erase.cp_remap",
    FlashEraseDealloc: FlashErase = "flash.erase.dealloc",
    FlashEraseGc: FlashErase = "flash.erase.gc",
    FlashEraseMeta: FlashErase = "flash.erase.meta",
    FlashEraseRun: FlashErase = "flash.erase.run",
    FlashEraseScrub: FlashErase = "flash.erase.scrub",
    FlashGrownBadBlocks = "flash.grown_bad_blocks",
    FlashMisdirectedPrograms = "flash.misdirected_programs",
    FlashMultiplanePrograms = "flash.multiplane_programs",
    FlashMultiplaneReads = "flash.multiplane_reads",
    FlashPowerCuts = "flash.power_cuts",
    #[total] FlashProgram = "flash.program",
    FlashProgramCpCopy: FlashProgram = "flash.program.cp_copy",
    FlashProgramCpRemap: FlashProgram = "flash.program.cp_remap",
    FlashProgramDealloc: FlashProgram = "flash.program.dealloc",
    FlashProgramGc: FlashProgram = "flash.program.gc",
    FlashProgramMeta: FlashProgram = "flash.program.meta",
    FlashProgramRun: FlashProgram = "flash.program.run",
    FlashProgramScrub: FlashProgram = "flash.program.scrub",
    FlashProgramSuspends = "flash.program_suspends",
    #[total] FlashRead = "flash.read",
    FlashReadCpCopy: FlashRead = "flash.read.cp_copy",
    FlashReadCpRemap: FlashRead = "flash.read.cp_remap",
    FlashReadDealloc: FlashRead = "flash.read.dealloc",
    FlashReadGc: FlashRead = "flash.read.gc",
    FlashReadMeta: FlashRead = "flash.read.meta",
    FlashReadRun: FlashRead = "flash.read.run",
    FlashReadScrub: FlashRead = "flash.read.scrub",
    FlashReadDieWaitNs = "flash.read_die_wait_ns",
    FlashReadOvertakes = "flash.read_overtakes",
    FlashTornWrites = "flash.torn_writes",
    FlashTransientFaults = "flash.transient_faults",
    FtlBlocksRetired = "ftl.blocks_retired",
    FtlBufferSlotWaitNs = "ftl.buffer_slot_wait_ns",
    FtlBufferSlotWaits = "ftl.buffer_slot_waits",
    FtlDeallocations = "ftl.deallocations",
    FtlGcBackground = "ftl.gc_background",
    FtlGcForeground = "ftl.gc_foreground",
    FtlGcInvocations = "ftl.gc_invocations",
    FtlGcUnitsMoved = "ftl.gc_units_moved",
    FtlGcWearLevel = "ftl.gc_wear_level",
    FtlHostBytes = "ftl.host_bytes",
    FtlHostUnitReads = "ftl.host_unit_reads",
    FtlHostUnitWrites = "ftl.host_unit_writes",
    FtlIntegrityCorrected: FtlIntegrityDetected = "ftl.integrity_corrected",
    #[total] FtlIntegrityDetected = "ftl.integrity_detected",
    FtlIntegrityQuarantined: FtlIntegrityDetected = "ftl.integrity_quarantined",
    FtlIntegrityUnrecoverable = "ftl.integrity_unrecoverable",
    FtlInvalidUnits = "ftl.invalid_units",
    FtlMappingLogPersists = "ftl.mapping_log_persists",
    FtlMediaRetries = "ftl.media_retries",
    FtlOffPlaneOpens = "ftl.off_plane_opens",
    FtlPagesProgrammed = "ftl.pages_programmed",
    FtlPowerLossRebuilds = "ftl.power_loss_rebuilds",
    FtlProgrammingPageReads = "ftl.programming_page_reads",
    FtlRemapOps = "ftl.remap_ops",
    FtlRetryExhaustedErase = "ftl.retry_exhausted_erase",
    FtlRetryExhaustedProgram = "ftl.retry_exhausted_program",
    FtlRetryExhaustedRead = "ftl.retry_exhausted_read",
    FtlRmwReads = "ftl.rmw_reads",
    FtlScrubPages = "ftl.scrub_pages",
    FtlScrubRounds = "ftl.scrub_rounds",
    FtlWearLevelRounds = "ftl.wear_level_rounds",
    SsdBackgroundGcRounds = "ssd.background_gc_rounds",
    SsdBackgroundScrubRounds = "ssd.background_scrub_rounds",
    SsdCmdCheckpoint = "ssd.cmd_checkpoint",
    SsdCmdCow = "ssd.cmd_cow",
    SsdCmdDealloc = "ssd.cmd_dealloc",
    SsdCmdFlush = "ssd.cmd_flush",
    SsdCmdRead = "ssd.cmd_read",
    SsdCmdWrite = "ssd.cmd_write",
    SsdCopyEntries = "ssd.copy_entries",
    SsdCowMissingSrc = "ssd.cow_missing_src",
    SsdCowSkippedEntries = "ssd.cow_skipped_entries",
    SsdCpPumpSteps = "ssd.cp_pump_steps",
    SsdHostReadBytes = "ssd.host_read_bytes",
    SsdHostWriteBytes = "ssd.host_write_bytes",
    SsdMapSegments = "ssd.map_segments",
    SsdMapUnits = "ssd.map_units",
    SsdMetaWrites = "ssd.meta_writes",
    SsdRemapEntries = "ssd.remap_entries",
    SsdSporRecoveries = "ssd.spor_recoveries",
    SsdWearLevelRounds = "ssd.wear_level_rounds",
}

/// Cells in a [`CounterSet`](super::CounterSet).
pub(super) const SLOTS: usize = NAMES.len();

impl Counter {
    /// The key's name as reports print it.
    pub fn name(self) -> &'static str {
        NAMES.get(self as usize).copied().unwrap_or_default()
    }
}

impl Total {
    /// The key's name as reports print it.
    pub fn name(self) -> &'static str {
        NAMES.get(self as usize).copied().unwrap_or_default()
    }
}
