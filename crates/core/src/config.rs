//! System configuration: the five evaluated strategies and the Table I
//! machine model.

use checkin_flash::{FlashGeometry, FlashTiming};
use checkin_ftl::FtlConfig;
use checkin_sim::SimDuration;
use checkin_ssd::{CheckpointMode, SsdTiming};
use checkin_workload::WorkloadSpec;

/// The five configurations the paper evaluates (§IV-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// Checkpointing by the storage engine: read journal logs back to the
    /// host and rewrite them to the data area.
    Baseline,
    /// In-storage checkpointing, one CoW command per journal entry.
    IscA,
    /// In-storage checkpointing, one batched multi-CoW command.
    IscB,
    /// In-storage checkpointing with FTL remapping (no sector-aligned
    /// journaling, conventional 4 KiB mapping unit).
    IscC,
    /// The full proposal: remapping plus sector-aligned journaling on a
    /// sector (512 B) mapping unit.
    CheckIn,
}

impl Strategy {
    /// All strategies in the paper's presentation order.
    pub fn all() -> [Strategy; 5] {
        [
            Strategy::Baseline,
            Strategy::IscA,
            Strategy::IscB,
            Strategy::IscC,
            Strategy::CheckIn,
        ]
    }

    /// Label used in tables and figures.
    pub fn label(self) -> &'static str {
        match self {
            Strategy::Baseline => "Baseline",
            Strategy::IscA => "ISC-A",
            Strategy::IscB => "ISC-B",
            Strategy::IscC => "ISC-C",
            Strategy::CheckIn => "Check-In",
        }
    }

    /// Device-side checkpoint mode, or `None` when the host drives the
    /// checkpoint itself (baseline).
    pub fn checkpoint_mode(self) -> Option<CheckpointMode> {
        match self {
            Strategy::Baseline => None,
            Strategy::IscA | Strategy::IscB => Some(CheckpointMode::Copy),
            Strategy::IscC | Strategy::CheckIn => Some(CheckpointMode::Remap),
        }
    }

    /// True when entries are sent one command each (ISC-A) rather than as
    /// one batched checkpoint command.
    pub fn per_entry_commands(self) -> bool {
        matches!(self, Strategy::IscA)
    }

    /// True when the engine reformats journal logs to the mapping unit
    /// (Algorithm 2).
    pub fn sector_aligned_journaling(self) -> bool {
        matches!(self, Strategy::CheckIn)
    }

    /// Mapping unit the paper pairs with this strategy: the remapping
    /// schemes (ISC-C, Check-In) use the sub-page 512 B unit; the copy
    /// schemes keep a conventional 4 KiB page mapping.
    pub fn default_unit_bytes(self) -> u32 {
        match self {
            Strategy::IscC | Strategy::CheckIn => 512,
            _ => 4096,
        }
    }
}

impl std::fmt::Display for Strategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Full-system configuration (DBMS + host + SSD), mirroring Table I.
#[derive(Debug, Clone)]
pub struct SystemConfig {
    /// Which checkpointing scheme runs.
    pub strategy: Strategy,
    /// Workload specification (mix, skew, record count, sizes, seed).
    pub workload: WorkloadSpec,
    /// Concurrent client threads (the paper sweeps 4..128).
    pub threads: u32,
    /// Total queries to execute after loading.
    pub total_queries: u64,
    /// Periodic checkpoint trigger.
    pub checkpoint_interval: SimDuration,
    /// Checkpoint also triggers when this many journal *sectors*
    /// accumulate (the paper's "200 journal files / 2 GB" condition,
    /// scaled down with the query counts).
    pub journal_trigger_sectors: u64,
    /// Lock query processing while a checkpoint runs (the paper does this
    /// to measure checkpoint time in Fig. 10).
    pub lock_queries_during_checkpoint: bool,
    /// Queries admitted per client event-queue hop. At 1 (the default)
    /// every operation is its own event and runs are byte-identical to
    /// the historical one-op-per-event loop; larger values amortize
    /// event-queue churn by executing up to this many back-to-back
    /// operations from the popped client. Batches never straddle a
    /// checkpoint boundary (periodic tick, size trigger, or lock
    /// window), so checkpoint timing is unaffected.
    pub admission_batch: u32,
    /// Host CPU cores processing queries.
    pub host_cores: u32,
    /// Host CPU time per query (engine work excluding I/O).
    pub host_cpu_per_op: SimDuration,
    /// Compression ratio applied to >512 B values under sector-aligned
    /// journaling (Algorithm 2 line 4). 0.7 models text-like payloads.
    pub compression_ratio: f64,
    /// Mapping unit override; `None` uses the strategy default.
    pub unit_bytes: Option<u32>,
    /// Device map-cache capacity in entries; smaller mapping units mean
    /// more entries and lower hit rates (Fig. 13a's effect). `None` =
    /// whole table in DRAM.
    pub map_cache_entries: Option<u64>,
    /// Flash array shape.
    pub geometry: FlashGeometry,
    /// NAND timing.
    pub flash_timing: FlashTiming,
    /// Device front-end timing.
    pub ssd_timing: SsdTiming,
    /// GC thresholds (unit size is filled in from the strategy).
    pub gc_threshold_blocks: u32,
    /// Soft (background) GC threshold.
    pub gc_soft_threshold_blocks: u32,
    /// Max background-GC rounds after each checkpoint.
    pub background_gc_rounds: u32,
    /// Device write-buffer page-out watermark in mapping units
    /// (power-protected DRAM; units page out oldest-first from this
    /// many on). The capacity is larger by the pages in flight: one per
    /// write point, which is one per plane
    /// (`FtlConfig::write_buffer_units` has the rule).
    pub write_buffer_units: u32,
    /// Ablation: disable Algorithm 2's partial-log merging (partials pad
    /// to full units instead). Only meaningful for Check-In.
    pub ablate_partial_merging: bool,
    /// Ablation: disable Algorithm 2's compression of values larger than
    /// the mapping unit. Only meaningful for Check-In.
    pub ablate_compression: bool,
    /// Pages the background scrubber verifies in each post-checkpoint
    /// idle window (0 disables scrubbing).
    pub scrub_pages_per_idle: u32,
}

impl SystemConfig {
    /// Paper-like defaults for one strategy. Query counts are scaled for
    /// simulation speed; benches override what they sweep.
    pub fn for_strategy(strategy: Strategy) -> Self {
        SystemConfig {
            strategy,
            workload: WorkloadSpec::paper_default(),
            threads: 32,
            total_queries: 40_000,
            checkpoint_interval: SimDuration::from_millis(250),
            journal_trigger_sectors: 32_768,
            lock_queries_during_checkpoint: false,
            admission_batch: 1,
            host_cores: 32,
            host_cpu_per_op: SimDuration::from_micros(250),
            compression_ratio: 0.7,
            unit_bytes: None,
            map_cache_entries: Some(32_768),
            geometry: FlashGeometry::paper_default(),
            flash_timing: FlashTiming::mlc(),
            ssd_timing: SsdTiming::paper_default(),
            gc_threshold_blocks: 8,
            gc_soft_threshold_blocks: 48,
            background_gc_rounds: 16,
            write_buffer_units: 128,
            ablate_partial_merging: false,
            ablate_compression: false,
            scrub_pages_per_idle: 16,
        }
    }

    /// [`SystemConfig::for_strategy`] on a deliberately small device
    /// (2 channels × 2 dies × 24 blocks × 128 pages × 4 KiB = 48 MiB) with
    /// a journal trigger and GC thresholds scaled to it, which keeps the
    /// FTL under garbage-collection pressure — the regime behind Fig. 8
    /// and `lab`'s `gc` rows. Pair it with a few thousand records.
    pub fn gc_pressured(strategy: Strategy) -> Self {
        SystemConfig {
            geometry: FlashGeometry {
                channels: 2,
                dies_per_channel: 2,
                planes_per_die: 1,
                blocks_per_plane: 24,
                pages_per_block: 128,
                page_bytes: 4096,
            },
            journal_trigger_sectors: 8_192,
            gc_threshold_blocks: 6,
            gc_soft_threshold_blocks: 20,
            ..SystemConfig::for_strategy(strategy)
        }
    }

    /// The mapping unit in effect (override or strategy default).
    pub fn effective_unit_bytes(&self) -> u32 {
        self.unit_bytes
            .unwrap_or(self.strategy.default_unit_bytes())
    }

    /// FTL configuration derived from this system configuration: one
    /// write point per plane. A write point fills one block, which lies
    /// on one plane, so each page-out is a page on every plane of its
    /// die, programmed in one tPROG.
    pub fn ftl_config(&self) -> FtlConfig {
        FtlConfig {
            unit_bytes: self.effective_unit_bytes(),
            gc_threshold_blocks: self.gc_threshold_blocks,
            gc_soft_threshold_blocks: self.gc_soft_threshold_blocks,
            write_points: self.geometry.total_planes() as u32,
            map_cache_entries: self.map_cache_entries,
            write_buffer_units: self.write_buffer_units,
            ..FtlConfig::default()
        }
    }

    /// Validates cross-field consistency.
    ///
    /// # Errors
    ///
    /// Returns a description of the first inconsistency.
    pub fn validate(&self) -> Result<(), String> {
        self.workload
            .mix
            .validate()
            .map_err(|s| format!("operation mix sums to {s}%, expected 100"))?;
        if self.threads == 0 {
            return Err("threads must be positive".into());
        }
        if self.host_cores == 0 {
            return Err("host_cores must be positive".into());
        }
        if self.admission_batch == 0 {
            return Err("admission_batch must be positive".into());
        }
        if !(0.0 < self.compression_ratio && self.compression_ratio <= 1.0) {
            return Err("compression_ratio must be in (0, 1]".into());
        }
        self.ftl_config()
            .validate(&self.geometry)
            .map_err(|e| e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strategy_properties_match_paper() {
        assert_eq!(Strategy::Baseline.checkpoint_mode(), None);
        assert_eq!(Strategy::IscA.checkpoint_mode(), Some(CheckpointMode::Copy));
        assert_eq!(Strategy::IscB.checkpoint_mode(), Some(CheckpointMode::Copy));
        assert_eq!(
            Strategy::IscC.checkpoint_mode(),
            Some(CheckpointMode::Remap)
        );
        assert_eq!(
            Strategy::CheckIn.checkpoint_mode(),
            Some(CheckpointMode::Remap)
        );
        assert!(Strategy::IscA.per_entry_commands());
        assert!(!Strategy::IscB.per_entry_commands());
        assert!(Strategy::CheckIn.sector_aligned_journaling());
        assert!(!Strategy::IscC.sector_aligned_journaling());
        assert_eq!(Strategy::CheckIn.default_unit_bytes(), 512);
        assert_eq!(Strategy::IscC.default_unit_bytes(), 512);
        assert_eq!(Strategy::IscB.default_unit_bytes(), 4096);
    }

    #[test]
    fn all_lists_five_in_order() {
        let all = Strategy::all();
        assert_eq!(all.len(), 5);
        assert_eq!(all[0].label(), "Baseline");
        assert_eq!(all[4].label(), "Check-In");
    }

    #[test]
    fn defaults_validate_for_every_strategy() {
        for s in Strategy::all() {
            SystemConfig::for_strategy(s).validate().unwrap();
        }
    }

    #[test]
    fn gc_pressured_device_is_48_mib_and_valid_for_every_strategy() {
        for s in Strategy::all() {
            let c = SystemConfig::gc_pressured(s);
            assert_eq!(c.geometry.capacity_bytes(), 48 << 20);
            c.validate().unwrap();
        }
    }

    #[test]
    fn effective_unit_honours_override() {
        let mut c = SystemConfig::for_strategy(Strategy::CheckIn);
        assert_eq!(c.effective_unit_bytes(), 512);
        c.unit_bytes = Some(2048);
        assert_eq!(c.effective_unit_bytes(), 2048);
    }

    #[test]
    fn validate_rejects_bad_fields() {
        let mut c = SystemConfig::for_strategy(Strategy::Baseline);
        c.threads = 0;
        assert!(c.validate().is_err());
        let mut c = SystemConfig::for_strategy(Strategy::Baseline);
        c.compression_ratio = 0.0;
        assert!(c.validate().is_err());
        let mut c = SystemConfig::for_strategy(Strategy::Baseline);
        c.unit_bytes = Some(3000);
        assert!(c.validate().is_err());
    }

    #[test]
    fn display_uses_label() {
        assert_eq!(Strategy::CheckIn.to_string(), "Check-In");
    }
}
