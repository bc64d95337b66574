//! The five workloads. Every geometry, query count and seed that shapes
//! a number is frozen here, so that edits to perfsuite, gclab or
//! crashmatrix cannot move the benchmark.

use checkin_core::{Strategy, SystemConfig};
use checkin_flash::FlashGeometry;
use checkin_sim::{SimDuration, SimRng};
use checkin_workload::{AccessPattern, OpMix, RecordSizes, WorkloadSpec};

/// Queries per repetition of a throughput workload. Runs much shorter
/// than this are what made perfsuite's gates noise.
pub const QUERIES: u64 = 3_000_000;
/// Workload seed when none is given.
pub const DEFAULT_SEED: u64 = 0x5EED;
/// Closed loop: each simulated client sends its next query when the
/// previous one completes, as the paper's YCSB driver does.
pub const CLIENTS: u32 = 32;
/// Power-cut cycles of `crash_recover`.
pub const CRASH_CYCLES: usize = 10;
/// Queries before each cut, drawn from the seed.
pub const CRASH_QUERIES: std::ops::Range<u64> = 150_000..250_001;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    /// `crash_recover`: faults armed, and every cycle ends in a power
    /// cut and a recovery. The other four must not arm faults — an armed
    /// run persists the mapping log and costs about six times as much.
    pub crash: bool,
    strategy: Strategy,
    mix: OpMix,
    pattern: AccessPattern,
    records: u64,
    gc_pressured: bool,
}

pub const ALL: [Workload; 5] = [
    Workload {
        name: "ycsb_a_remap",
        why: "The paper's headline configuration: engine, sector-aligned journal, NVMe queue and \
              the ISCE remap walk do the work; GC and erase stay idle.",
        crash: false,
        strategy: Strategy::CheckIn,
        mix: OpMix::A,
        pattern: AccessPattern::Zipfian,
        records: 20_000,
        gc_pressured: false,
    },
    Workload {
        name: "ycsb_a_hostcopy",
        why: "Same op stream and device under Strategy::Baseline: checkpoints read back and \
              rewrite through the host, so a remap-path gain bought at the copy path's expense \
              shows here.",
        crash: false,
        strategy: Strategy::Baseline,
        mix: OpMix::A,
        pattern: AccessPattern::Zipfian,
        records: 20_000,
        gc_pressured: false,
    },
    Workload {
        name: "ycsb_c_read_200k",
        why: "Read path only, uniform over 200 000 records (0.8 GB of home slots, far beyond host \
              caches): any write-path, checkpoint or GC optimisation must predict no change here; \
              largest set-up.",
        crash: false,
        strategy: Strategy::CheckIn,
        mix: OpMix::C,
        pattern: AccessPattern::Uniform,
        records: 200_000,
        gc_pressured: false,
    },
    Workload {
        name: "wo_gc_uniform",
        why: "Write-only, uniform over 3 000 records on a 48 MiB device: victim selection, GC \
              migration and program/erase dominate; the only workload far from the \
              write-amplification floor.",
        crash: false,
        strategy: Strategy::CheckIn,
        mix: OpMix::WRITE_ONLY,
        pattern: AccessPattern::Uniform,
        records: 3_000,
        gc_pressured: true,
    },
    Workload {
        name: "crash_recover",
        why: "Ten power cuts with faults armed, each followed by device and engine recovery and a \
              check of every key: recovery cost is what checkpointing buys.",
        crash: true,
        strategy: Strategy::CheckIn,
        mix: OpMix::A,
        pattern: AccessPattern::Zipfian,
        records: 20_000,
        gc_pressured: false,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    ALL.iter().find(|w| w.name == name)
}

/// 4 ch x 2 die x 2 plane x 192 blk x 256 pg x 4 KiB = 3 GiB — the
/// values of `FlashGeometry::paper_default()`, whose own comment and the
/// issue's text say 1.5 GiB.
pub const PAPER_GEOMETRY: FlashGeometry = FlashGeometry {
    channels: 4,
    dies_per_channel: 2,
    planes_per_die: 2,
    blocks_per_plane: 192,
    pages_per_block: 256,
    page_bytes: 4096,
};

/// 2 ch x 2 die x 1 plane x 24 blk x 128 pg x 4 KiB = 48 MiB: small
/// enough that 3 M writes erase every block about 54 times.
pub const GC_GEOMETRY: FlashGeometry = FlashGeometry {
    channels: 2,
    dies_per_channel: 2,
    planes_per_die: 1,
    blocks_per_plane: 24,
    pages_per_block: 128,
    page_bytes: 4096,
};

impl Workload {
    /// The configuration the product receives: it sees the generated
    /// inputs of `seed`, never the workload's name.
    pub fn config(&self, seed: u64, queries: u64) -> SystemConfig {
        let mut c = SystemConfig::for_strategy(self.strategy);
        c.workload = WorkloadSpec {
            mix: self.mix,
            pattern: self.pattern,
            record_count: self.records,
            sizes: RecordSizes::paper_default(),
            seed,
        };
        c.threads = CLIENTS;
        c.admission_batch = 1;
        c.total_queries = queries;
        c.checkpoint_interval = SimDuration::from_millis(250);
        c.geometry = PAPER_GEOMETRY;
        if self.gc_pressured {
            c.geometry = GC_GEOMETRY;
            c.journal_trigger_sectors = 8_192;
            c.gc_threshold_blocks = 6;
            c.gc_soft_threshold_blocks = 20;
        }
        c
    }

    /// `(workload seed, queries)` of each crash cycle, drawn from `seed`.
    pub fn crash_cycles(&self, seed: u64) -> Vec<(u64, u64)> {
        let mut rng = SimRng::seed_from(seed);
        let span = CRASH_QUERIES.end - CRASH_QUERIES.start;
        (0..CRASH_CYCLES)
            .map(|_| (rng.next_u64(), CRASH_QUERIES.start + rng.gen_range(span)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_configuration_is_valid_and_names_are_plain() {
        for w in &ALL {
            w.config(DEFAULT_SEED, QUERIES).validate().unwrap();
            assert!(crate::doc::is_plain_name(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        assert_eq!(ALL.iter().filter(|w| w.crash).count(), 1);
    }

    #[test]
    fn crash_cycles_follow_the_seed() {
        let w = find("crash_recover").unwrap();
        let a = w.crash_cycles(1);
        assert_eq!(a, w.crash_cycles(1));
        assert_ne!(a, w.crash_cycles(2));
        assert_eq!(a.len(), CRASH_CYCLES);
        assert!(a.iter().all(|&(_, q)| CRASH_QUERIES.contains(&q)));
    }

    #[test]
    fn frozen_geometries_have_the_documented_sizes() {
        assert_eq!(PAPER_GEOMETRY.capacity_bytes(), 3 << 30);
        assert_eq!(GC_GEOMETRY.capacity_bytes(), 48 << 20);
    }
}
