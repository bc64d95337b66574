//! Error type for flash array misuse and injected media failures.
//!
//! # Fatal vs. transient — the retry policy
//!
//! [`FlashError`] covers two very different families, distinguished by
//! [`FlashError::classification`]:
//!
//! * **Fatal** ([`ErrorClass::Fatal`]) — NAND *rule violations*
//!   (dirty-page program, out-of-order program, out-of-range addresses).
//!   These indicate FTL bugs, not environmental failures, and retrying
//!   them would repeat the bug; upper layers must treat them as fatal.
//!   Also fatal are a grown bad block (a *permanent media condition*)
//!   and a power loss — neither can succeed on retry. The FTL answers a
//!   fatal program/erase media failure with block retirement (see
//!   `checkin-ftl`), and a power loss with sudden-power-off recovery.
//! * **Transient** ([`ErrorClass::Transient`]) — injected one-shot media
//!   failures (read/program/erase). The *device firmware* (the FTL layer)
//!   retries these with exponential backoff, bounded by one attempt
//!   budget (`Ftl::RETRY_LIMIT`); each attempt draws independently, so
//!   bounded retries almost surely succeed. State is never mutated by a
//!   failed attempt.

use std::error::Error;
use std::fmt;

use crate::geometry::{BlockId, Ppn};

/// Retry classification of a [`FlashError`] — see the module docs for
/// the policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorClass {
    /// Worth retrying (injected one-shot media failure).
    Transient,
    /// Retrying cannot help: rule violation, permanent media condition,
    /// or power loss.
    Fatal,
}

/// Violations of NAND programming rules and injected media failures.
///
/// Rule violations indicate FTL bugs, not environmental failures, so
/// upper layers generally treat them as fatal; media failures carry a
/// [`FlashError::classification`] that tells the firmware whether a
/// bounded retry is worthwhile.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FlashError {
    /// Attempt to program a page that is not in the erased state
    /// (out-of-place update violation).
    ProgramDirtyPage(Ppn),
    /// Attempt to program pages of a block out of order.
    ProgramOutOfOrder {
        /// Page that was requested.
        requested: Ppn,
        /// Page index the block expects next.
        expected_page: u32,
    },
    /// Address beyond the configured geometry.
    OutOfRange(Ppn),
    /// Block id beyond the configured geometry.
    BlockOutOfRange(BlockId),
    /// The block's page store cannot index another page: more records
    /// than any geometry puts in one block.
    BlockStoreFull(BlockId),
    /// Injected transient read failure (retryable).
    TransientRead(Ppn),
    /// Injected transient program failure (retryable; the page stays
    /// erased).
    TransientProgram(Ppn),
    /// Injected transient erase failure (retryable; the block keeps its
    /// content).
    TransientErase(BlockId),
    /// The block developed a permanent (grown) defect during a program or
    /// erase. Every later program/erase of the block fails the same way;
    /// the FTL must retire it.
    GrownBadBlock(BlockId),
    /// Power was cut before the operation touched any state. The device
    /// stays frozen until `FlashArray::power_on`.
    PowerLoss,
    /// A multi-plane operation named a page one array operation cannot
    /// serve with the others: on another die, on a plane the group
    /// already holds, at another page index, or past the most pages a
    /// die programs at once. Names the first such page.
    NotAPlaneGroup(Ppn),
}

impl FlashError {
    /// Whether this failure is worth retrying. See the module docs for
    /// the full policy.
    pub fn classification(&self) -> ErrorClass {
        match self {
            FlashError::TransientRead(_)
            | FlashError::TransientProgram(_)
            | FlashError::TransientErase(_) => ErrorClass::Transient,
            FlashError::ProgramDirtyPage(_)
            | FlashError::ProgramOutOfOrder { .. }
            | FlashError::OutOfRange(_)
            | FlashError::BlockOutOfRange(_)
            | FlashError::BlockStoreFull(_)
            | FlashError::GrownBadBlock(_)
            | FlashError::PowerLoss
            | FlashError::NotAPlaneGroup(_) => ErrorClass::Fatal,
        }
    }

    /// True for [`FlashError::PowerLoss`] — the one fatal error that is
    /// *expected* under fault injection and answered by recovery instead
    /// of by failing the run.
    pub fn is_power_loss(&self) -> bool {
        matches!(self, FlashError::PowerLoss)
    }
}

impl fmt::Display for FlashError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlashError::ProgramDirtyPage(ppn) => {
                write!(f, "program of non-erased page {ppn}")
            }
            FlashError::ProgramOutOfOrder {
                requested,
                expected_page,
            } => write!(
                f,
                "out-of-order program of {requested}, block expects page {expected_page}"
            ),
            FlashError::OutOfRange(ppn) => write!(f, "physical page {ppn} out of range"),
            FlashError::BlockOutOfRange(b) => write!(f, "block {b} out of range"),
            FlashError::BlockStoreFull(b) => write!(f, "block {b}'s page store is full"),
            FlashError::TransientRead(ppn) => write!(f, "transient read failure at {ppn}"),
            FlashError::TransientProgram(ppn) => {
                write!(f, "transient program failure at {ppn}")
            }
            FlashError::TransientErase(b) => write!(f, "transient erase failure on block {b}"),
            FlashError::GrownBadBlock(b) => write!(f, "block {b} grew a permanent defect"),
            FlashError::PowerLoss => write!(f, "power lost before the operation completed"),
            FlashError::NotAPlaneGroup(ppn) => {
                write!(f, "page {ppn} does not fit the die's plane group")
            }
        }
    }
}

impl Error for FlashError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert!(FlashError::ProgramDirtyPage(Ppn(5))
            .to_string()
            .contains("non-erased"));
        assert!(FlashError::ProgramOutOfOrder {
            requested: Ppn(9),
            expected_page: 2
        }
        .to_string()
        .contains("expects page 2"));
        assert!(FlashError::PowerLoss.to_string().contains("power"));
        assert!(FlashError::GrownBadBlock(BlockId(3))
            .to_string()
            .contains("permanent"));
    }

    #[test]
    fn error_trait_is_implemented() {
        let e: Box<dyn Error> = Box::new(FlashError::OutOfRange(Ppn(0)));
        assert!(e.to_string().contains("out of range"));
    }

    #[test]
    fn classification_splits_rule_violations_from_media_failures() {
        assert_eq!(
            FlashError::TransientRead(Ppn(0)).classification(),
            ErrorClass::Transient
        );
        assert_eq!(
            FlashError::TransientProgram(Ppn(0)).classification(),
            ErrorClass::Transient
        );
        assert_eq!(
            FlashError::TransientErase(BlockId(0)).classification(),
            ErrorClass::Transient
        );
        for fatal in [
            FlashError::ProgramDirtyPage(Ppn(0)),
            FlashError::OutOfRange(Ppn(0)),
            FlashError::BlockOutOfRange(BlockId(0)),
            FlashError::BlockStoreFull(BlockId(0)),
            FlashError::GrownBadBlock(BlockId(0)),
            FlashError::PowerLoss,
            FlashError::NotAPlaneGroup(Ppn(0)),
        ] {
            assert_eq!(fatal.classification(), ErrorClass::Fatal, "{fatal}");
        }
        assert!(FlashError::PowerLoss.is_power_loss());
        assert!(!FlashError::TransientRead(Ppn(0)).is_power_loss());
    }
}
