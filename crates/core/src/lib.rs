//! # Check-In: in-storage checkpointing for key-value stores
//!
//! A full reproduction of *"Check-In: In-Storage Checkpointing for
//! Key-Value Store System Leveraging Flash-Based SSDs"* (ISCA 2020):
//! a persistent key-value store whose storage engine cooperates with the
//! SSD's flash translation layer so that periodic checkpoints are created
//! **inside the device by remapping** journal logs to their data-area
//! homes, instead of reading them back to host memory and rewriting them.
//!
//! The crate assembles the whole simulated system:
//!
//! * [`KvEngine`] — query interface, key-value mapping, and the journaling
//!   layer, including **sector-aligned journaling** (the paper's
//!   Algorithm 2, [`align_log`]) and the double-buffered journal area;
//! * [`Strategy`] — the five evaluated configurations (Baseline, ISC-A,
//!   ISC-B, ISC-C, Check-In) and [`run_checkpoint`], which executes a
//!   checkpoint with any of them;
//! * [`KvSystem`] — a deterministic closed-loop simulation of N client
//!   threads over the engine and a fully modelled SSD
//!   ([`checkin_ssd::Ssd`] over [`checkin_ftl::Ftl`] over
//!   [`checkin_flash::FlashArray`]);
//! * [`RunReport`] — throughput, tail latency, checkpoint time, redundant
//!   writes, GC counts, lifetime score: every quantity in the paper's
//!   evaluation.
//!
//! # Quick start
//!
//! ```
//! use checkin_core::{KvSystem, SystemConfig, Strategy};
//!
//! let mut config = SystemConfig::for_strategy(Strategy::CheckIn);
//! config.total_queries = 2_000;      // scaled for the doctest
//! config.workload.record_count = 500;
//! config.threads = 8;
//!
//! let report = KvSystem::new(config)?.run()?;
//! println!("{report}");
//! assert!(report.throughput > 0.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Deterministic crate: no hash-ordered containers, wall clocks or
// `thread_local!` outside tests (the bans are listed in `clippy.toml`).
#![cfg_attr(not(test), deny(clippy::disallowed_types, clippy::disallowed_macros))]

mod checkpoint;
mod config;
// `KvEngine::recover` and the address arithmetic it leans on: the panic
// and discard parts of the device crates' wall (DESIGN.md §11).
#[cfg_attr(
    not(test),
    deny(
        clippy::indexing_slicing,
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::panic_in_result_fn,
        clippy::let_underscore_must_use,
        clippy::unused_result_ok,
    )
)]
mod engine;
mod journal;
#[cfg_attr(
    not(test),
    deny(
        clippy::indexing_slicing,
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::panic_in_result_fn,
        clippy::let_underscore_must_use,
        clippy::unused_result_ok,
    )
)]
mod layout;
mod metrics;
mod parallel;
mod system;

pub use checkpoint::{run_checkpoint, CheckpointOutcome, SUPERBLOCK_KEY};
pub use config::{Strategy, SystemConfig};
pub use engine::{EngineError, KvEngine, ReadResult, RecoveryReport};
pub use journal::{
    align_log, align_log_to, raw_log_bytes, AlignedLog, Jmt, JmtEntry, JournalFull, JournalManager,
    JournalOptions, LogClass, RetiringZone, CLASS_STEP, LOG_HEADER_BYTES,
};
pub use layout::{Layout, JOURNAL_ZONES};
pub use metrics::{
    CheckpointPhases, DeviceUtilization, LatencyStats, PhaseOps, RunReport, UtilizationSpread,
};
pub use parallel::{default_jobs, run_configs};
pub use system::KvSystem;
