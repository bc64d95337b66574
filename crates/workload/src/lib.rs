//! YCSB-style workload generation for the Check-In reproduction.
//!
//! The paper drives every experiment with YCSB: workloads A (50/50
//! read/update), F (50/50 read/RMW) and a write-only mix, under uniform
//! and (scrambled) zipfian key popularity, over small, variable-size
//! records. This crate reproduces exactly those generators:
//!
//! * [`ZipfianGenerator`] — Gray et al. sampler with YCSB's scrambling;
//! * [`KeyChooser`] / [`AccessPattern`] — uniform vs zipfian key choice;
//! * [`RecordSizes`] — weighted value-size mixes, including the paper's
//!   four 128 B–4 KiB "patterns" for Figure 13(b);
//! * [`OpMix`] / [`WorkloadSpec`] / [`OpGenerator`] — deterministic,
//!   seedable operation streams.
//!
//! # Examples
//!
//! ```
//! use checkin_workload::{AccessPattern, OpMix, RecordSizes, WorkloadSpec};
//!
//! let spec = WorkloadSpec {
//!     mix: OpMix::F,
//!     pattern: AccessPattern::Zipfian,
//!     record_count: 10_000,
//!     sizes: RecordSizes::paper_default(),
//!     seed: 7,
//! };
//! let mut gen = spec.generator();
//! let op = gen.next_op();
//! assert!(op.key() < 10_000);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Deterministic crate: no hash-ordered containers, wall clocks or
// `thread_local!` outside tests (the bans are listed in `clippy.toml`).
#![cfg_attr(not(test), deny(clippy::disallowed_types, clippy::disallowed_macros))]

mod dist;
mod record;
mod ycsb;
mod zipfian;

pub use dist::{AccessPattern, KeyChooser};
pub use record::RecordSizes;
pub use ycsb::{OpGenerator, OpMix, Operation, WorkloadSpec};
pub use zipfian::{ZipfianGenerator, YCSB_THETA};
