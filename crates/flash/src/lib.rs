//! NAND flash array model for the Check-In reproduction.
//!
//! This crate is the lowest substrate of the simulated SSD: a
//! channel/die/plane/block/page array ([`FlashArray`]) that
//!
//! * enforces NAND programming rules (out-of-place updates, in-order page
//!   programming within a block, erase-before-reuse);
//! * accounts P/E cycles per block, which feeds the paper's lifetime
//!   analysis (Equation 1);
//! * models operation timing (tR / tPROG / tBER and channel bus transfers)
//!   through per-die and per-channel reservation timelines
//!   ([`checkin_sim::Resource`]), so that channel parallelism and die
//!   contention emerge naturally;
//! * stores page *content tags* plus OOB recovery metadata
//!   ([`OobEntry`]) instead of raw bytes — staged as a [`PageContent`],
//!   kept in block-owned arenas, read back as a [`PageView`] — which lets
//!   the test suite verify end-to-end data consistency cheaply.
//!
//! # Examples
//!
//! ```
//! use checkin_flash::{FlashArray, FlashGeometry, FlashTiming, PageContent, UnitPayload, Ppn};
//! use checkin_sim::SimTime;
//!
//! let mut flash = FlashArray::new(FlashGeometry::small(), FlashTiming::mlc());
//! let mut page = PageContent::empty(8);
//! page.units[0] = Some(UnitPayload::single(/*key*/ 1, /*version*/ 1, /*bytes*/ 512));
//! let window = flash.program(Ppn(0), page, SimTime::ZERO)?;
//! assert_eq!(flash.read(Ppn(0)).unwrap().occupied_units(), 1);
//! assert!(window.finish > window.start);
//! # Ok::<(), checkin_flash::FlashError>(())
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

mod array;
mod content;
mod error;
mod fault;
mod geometry;
mod integrity;
mod phase;
mod store;
mod timing;

pub use array::{
    FlashArray, ForegroundRead, MovedProgram, MAX_PLANE_GROUP, MAX_SUSPENDS_PER_PROGRAM,
};
pub use content::{FragVec, Fragment, OobEntry, OobKind, PageContent, UnitPayload, UnitRef};
pub use error::{ErrorClass, FlashError};
pub use fault::{FaultConfig, FaultOp, FaultPlan};
pub use geometry::{BlockId, FlashGeometry, Ppa, Ppn};
pub use integrity::{crc32, encode_oob_into, encode_unit_into, oob_checksum, unit_checksum, Crc32};
pub use phase::OpPhase;
pub use store::{PageView, StoredField};
pub use timing::FlashTiming;
