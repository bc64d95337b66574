//! SSD device model with the in-storage checkpointing engine (ISCE).
//!
//! Sits on top of [`checkin_ftl`] and exposes the host-visible command
//! set used by the Check-In paper:
//!
//! * standard block commands — read, write, flush, deallocate — with full
//!   interface timing (PCIe link occupancy, per-command overhead, firmware
//!   CPU, bounded submission-queue depth);
//! * the vendor-specific extensions of §III-C: [`Ssd::cow_single`] (one
//!   copy-on-write entry per command, ISC-A), [`Ssd::checkpoint`] (one
//!   batched multi-CoW command, ISC-B and up), and journal deallocation;
//! * the ISCE itself ([`isce` planning + execution inside `Ssd`]):
//!   checkpoint entries are classified remap-vs-copy per Algorithm 1; a
//!   batched checkpoint or a journal trim is the device's one job, begun
//!   by [`Ssd::begin_checkpoint`] / [`Ssd::begin_deallocate`], advanced
//!   by [`Ssd::pump`] steps that host commands can go ahead of, and
//!   ended by [`Ssd::drain`]; the deallocator begins GC in the idle
//!   window behind a checkpoint ([`Ssd::begin_background_gc`]), whose
//!   rounds [`Ssd::pump_gc`] steps advance beside that job and whose
//!   last step is one background scrub round.
//!
//! [`isce` planning + execution inside `Ssd`]: plan_entry
//!
//! # Examples
//!
//! An in-storage checkpoint by remapping:
//!
//! ```
//! use checkin_flash::{FlashArray, FlashGeometry, FlashTiming, OobKind};
//! use checkin_ftl::{Ftl, FtlConfig};
//! use checkin_ssd::{CheckpointMode, CowEntry, ReadRequest, Ssd, SsdTiming, WriteContent, WriteRequest};
//! use checkin_sim::SimTime;
//!
//! let flash = FlashArray::new(FlashGeometry::small(), FlashTiming::mlc());
//! let ftl = Ftl::new(flash, FtlConfig { unit_bytes: 512, write_points: 2, ..FtlConfig::default() }).unwrap();
//! let mut ssd = Ssd::new(ftl, SsdTiming::paper_default());
//!
//! // Journaling appended key 5's new version at journal LBA 1000.
//! let t = ssd.write(
//!     &WriteRequest { lba: 1000, sectors: 2, content: WriteContent::Record { key: 5, version: 2, bytes: 1024 } },
//!     OobKind::Journal,
//!     SimTime::ZERO,
//! )?;
//! let t = ssd.flush(t)?;
//! // Checkpoint: remap it to its data-area home at LBA 8 — zero copies.
//! let entry = CowEntry { src_lba: 1000, dst_lba: 8, sectors: 2, dst_sectors: 2, key: 5, merged: false };
//! let t = ssd.checkpoint(&[entry], CheckpointMode::Remap, t)?;
//! let mut frags = Vec::new();
//! ssd.read_into(&ReadRequest { lba: 8, sectors: 2, key: Some(5) }, t, &mut frags)?;
//! assert_eq!(frags[0].version, 2);
//! # Ok::<(), checkin_ssd::SsdError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Deterministic crate: no hash-ordered containers, wall clocks or
// `thread_local!` outside tests (the bans are listed in `clippy.toml`).
#![cfg_attr(not(test), deny(clippy::disallowed_types, clippy::disallowed_macros))]
// The panic / discard / cast wall (DESIGN.md §11): nothing in this crate
// may panic, drop a `Result` or truncate an integer outside tests. The
// block is the same in flash, ftl and ssd; a site whose bound is
// established in the same function carries
// `#[expect(clippy::<lint>, reason = "<the bound>")]`, which clippy
// reports once it stops being needed.
#![cfg_attr(
    not(test),
    deny(
        // No panic path.
        clippy::indexing_slicing,
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::panic_in_result_fn,
        // No discarded `Result` (the `fallible();` statement form is
        // rustc's `unused_must_use`, already an error under -D warnings).
        clippy::let_underscore_must_use,
        clippy::unused_result_ok,
        // No silently truncating cast.
        clippy::cast_possible_truncation,
    )
)]

mod command;
mod device;
mod error;
mod isce;
mod timing;

pub use command::{
    CheckpointMode, CowEntry, ReadRequest, WriteContent, WriteRequest, SECTOR_BYTES,
};
pub use device::{CpPhaseTimes, Ssd};
pub use error::SsdError;
pub use isce::{plan_entry, EntryPlan};
pub use timing::SsdTiming;
