//! Flash translation layer for the Check-In reproduction.
//!
//! The FTL sits between the SSD front end and the NAND array
//! ([`checkin_flash::FlashArray`]). Three properties make it suitable for
//! reproducing the paper:
//!
//! 1. **Sub-page mapping** ([`FtlConfig::unit_bytes`]): the logical space
//!    is mapped at 512 B–4 KiB granularity, and sub-units are packed into
//!    whole-page programs through a power-protected write buffer — exactly
//!    the mapping substrate Check-In's sector-aligned journaling relies on.
//! 2. **Shared physical units** ([`Ftl::remap`]): several LPNs may alias
//!    one flash copy, so a checkpoint can *remap* journal logs into the
//!    data area instead of rewriting them. Garbage collection preserves
//!    the sharing when it migrates such a unit.
//! 3. **Full accounting**: host vs flash bytes (write amplification),
//!    read-modify-write operations, invalid-unit generation, and GC
//!    invocations — the quantities behind Figures 8 and 13.
//!
//! # Examples
//!
//! Checkpoint-by-remap in miniature:
//!
//! ```
//! use checkin_flash::{FlashArray, FlashGeometry, FlashTiming, OobKind, UnitPayload};
//! use checkin_ftl::{Ftl, FtlConfig, Lpn, UnitWrite};
//! use checkin_sim::SimTime;
//!
//! let flash = FlashArray::new(FlashGeometry::small(), FlashTiming::mlc());
//! let mut ftl = Ftl::new(flash, FtlConfig { unit_bytes: 512, write_points: 2, ..FtlConfig::default() }).unwrap();
//!
//! // Journaling wrote key 9's new version at journal LPN 1000...
//! ftl.write(
//!     UnitWrite { lpn: Lpn(1000), payload: UnitPayload::single(9, 2, 512), whole_unit: true },
//!     OobKind::Journal,
//!     SimTime::ZERO,
//! )?;
//! ftl.flush(SimTime::ZERO)?;
//! // ...checkpointing remaps it to its data-area home, LPN 40 — no copy.
//! ftl.remap(Lpn(40), Lpn(1000))?;
//! ftl.deallocate(Lpn(1000));
//! assert_eq!(ftl.read(Lpn(40), SimTime::ZERO)?.0.fragments[0].version, 2);
//! # Ok::<(), checkin_ftl::FtlError>(())
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

mod block_pool;
mod config;
mod error;
mod ftl;
mod ledger;
mod location;
mod map_cache;
mod mapping;
mod persist;
mod write_buffer;

pub use config::{FtlConfig, MediaRetryPolicy};
pub use error::{FtlConfigError, FtlError, IntegrityError, RecoveryError};
pub use ftl::{Ftl, GcTrigger, OobScan, RebuildStats, ScrubReport, SensedPages, UnitWrite};
pub use location::{BufSlot, Location, Lpn, Pun};
pub use map_cache::MapCacheModel;
pub use mapping::{MappingTable, Unlink};
