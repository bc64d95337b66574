//! FTL error type.
//!
//! # How the FTL applies the flash retry policy
//!
//! The flash layer classifies its failures via
//! [`checkin_flash::FlashError::classification`]; the FTL is the firmware
//! that acts on that classification, so *transient* media failures are
//! normally invisible above this crate:
//!
//! * **Transient read/program/erase** — retried internally with
//!   exponential backoff, up to the per-class attempt budget in
//!   [`crate::FtlConfig::retry_read`] / `retry_program` / `retry_erase`
//!   (counted in `ftl.media_retries`). Only when the budget is exhausted
//!   does the error escape as [`FtlError::Flash`] (counted per class in
//!   `ftl.retry_exhausted_read` / `_program` / `_erase`).
//! * **Grown bad block on program** — the block is retired: still-valid
//!   units are salvaged into the capacitor-backed write buffer and the
//!   page-out simply moves to a healthy block (`ftl.blocks_retired`).
//! * **Grown bad block / worn-out / exhausted retries on erase** — the
//!   fully migrated victim is retired instead of recycled; capacity
//!   shrinks but no data is affected.
//! * **Power loss** — escapes as [`FtlError::Flash`] with
//!   [`checkin_flash::FlashError::PowerLoss`]; the caller answers with
//!   `Ftl::rebuild_after_power_loss`, not with a retry.
//! * **Rule violations** — always escape; they indicate FTL bugs.
//! * **Failed checksum verification** — never retried (re-reading the
//!   same rotten cells cannot help): the unit is quarantined and the
//!   read fails with [`FtlError::Integrity`], so corruption is always
//!   *detected*, never silently served.

use std::error::Error;
use std::fmt;

use crate::location::Lpn;

/// A failed end-to-end integrity verification: the device detected
/// corruption and reports it instead of serving wrong data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IntegrityError {
    /// The stored checksum of the unit backing this logical unit no
    /// longer matches its content. The unit is quarantined: the mapping
    /// is kept (so reads keep failing loudly instead of silently
    /// zero-filling) until the block is erased or retired.
    CorruptUnit(Lpn),
    /// The only physical copy of this logical unit was corrupt when its
    /// block was reclaimed (GC or retirement) or when SPOR rebuilt the
    /// mapping from it; the data is lost, and the loss is permanent but
    /// *detected*. Cleared by a fresh write, remap,
    /// or deallocate of the logical unit.
    Poisoned(Lpn),
}

impl fmt::Display for IntegrityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IntegrityError::CorruptUnit(lpn) => {
                write!(f, "checksum mismatch reading {lpn} (unit quarantined)")
            }
            IntegrityError::Poisoned(lpn) => {
                write!(
                    f,
                    "{lpn} lost: its only copy was corrupt when reclaimed or recovered"
                )
            }
        }
    }
}

impl Error for IntegrityError {}

/// Failures surfaced by the flash translation layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FtlError {
    /// No free blocks remain and no block has reclaimable space.
    OutOfSpace,
    /// Read of a logical unit that has never been written (or was trimmed).
    Unmapped(Lpn),
    /// A flash-level failure that the FTL could not absorb: a rule
    /// violation (FTL bug), a power loss, or a media failure that survived
    /// retry and retirement (see the module docs).
    Flash(checkin_flash::FlashError),
    /// Internal state contradicted itself (e.g. a mapping pointing at an
    /// empty buffer slot). Always indicates an FTL bug; surfaced as an
    /// error instead of a panic so callers — recovery above all — can
    /// fail the one operation rather than the whole process.
    Inconsistent(&'static str),
    /// End-to-end verification failed: corruption detected and withheld.
    Integrity(IntegrityError),
}

impl FtlError {
    /// True when this error is a device power loss — the one failure a
    /// fault-injection harness treats as expected (answered by recovery).
    pub fn is_power_loss(&self) -> bool {
        matches!(self, FtlError::Flash(e) if e.is_power_loss())
    }

    /// True when this error is a detected integrity failure — the typed
    /// outcome the corruption harness accepts in place of data (silent
    /// wrong data is never acceptable).
    pub fn is_integrity(&self) -> bool {
        matches!(self, FtlError::Integrity(_))
    }
}

impl fmt::Display for FtlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FtlError::OutOfSpace => write!(f, "device out of space: no reclaimable blocks"),
            FtlError::Unmapped(lpn) => write!(f, "read of unmapped logical unit {lpn}"),
            FtlError::Flash(e) => write!(f, "flash error: {e}"),
            FtlError::Inconsistent(what) => write!(f, "inconsistent FTL state: {what}"),
            FtlError::Integrity(e) => write!(f, "integrity failure: {e}"),
        }
    }
}

/// What [`crate::FtlConfig::validate`] (and so [`crate::Ftl::new`])
/// refuses, one variant per offending field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FtlConfigError {
    /// `unit_bytes` (first) is zero or does not divide the page size.
    UnitBytes(u32, u32),
    /// `gc_threshold_blocks` is below 2.
    GcThreshold,
    /// `gc_soft_threshold_blocks` is below `gc_threshold_blocks`.
    GcSoftThreshold,
    /// `write_points` is zero.
    NoWritePoints,
    /// `write_buffer_units` (first) is less than the units of one page.
    WriteBuffer(u32, u32),
    /// The retry policy of this class (`read`, `program`, `erase`)
    /// allows no attempt at all.
    RetryLimit(&'static str),
    /// `write_points` plus `gc_threshold_blocks` leave none of the
    /// array's blocks (last) for data.
    TooFewBlocks(u32, u32, u64),
    /// The array holds more mapping units (first) than the mapping
    /// table's packed forward word can address (second).
    TooManyUnits(u64, u64),
}

impl fmt::Display for FtlConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Self::UnitBytes(unit, page) => {
                write!(f, "unit_bytes {unit} must be a divisor of page size {page}")
            }
            Self::GcThreshold => write!(f, "gc_threshold_blocks must be at least 2"),
            Self::GcSoftThreshold => {
                write!(f, "gc_soft_threshold_blocks must be >= gc_threshold_blocks")
            }
            Self::NoWritePoints => write!(f, "write_points must be non-zero"),
            Self::WriteBuffer(units, upp) => write!(
                f,
                "write_buffer_units {units} must hold at least one page ({upp} units)"
            ),
            Self::RetryLimit(class) => write!(
                f,
                "retry_{class} limit must be at least 1 (the first attempt)"
            ),
            Self::TooFewBlocks(wp, gc, total) => write!(
                f,
                "write_points + gc_threshold ({wp} + {gc}) must be far below total blocks ({total})"
            ),
            Self::TooManyUnits(units, limit) => write!(
                f,
                "{units} mapping units exceed the mapping table's limit of {limit}"
            ),
        }
    }
}

impl Error for FtlConfigError {}

/// Failures during sudden-power-off recovery
/// ([`crate::Ftl::rebuild_after_power_loss`]).
///
/// Recovery runs when the system is least able to tolerate a panic, so
/// every impossible-state branch on that path reports through this type
/// instead of `unwrap`/`panic!` (the crate denies clippy's panic lints).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryError {
    /// Rebuild was requested while the flash array is still powered off;
    /// call `FlashArray::power_on` first.
    PoweredOff,
    /// The surviving state contradicts itself (named invariant violated).
    Inconsistent(&'static str),
}

impl fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoveryError::PoweredOff => {
                write!(f, "recovery requested while the array is powered off")
            }
            RecoveryError::Inconsistent(what) => {
                write!(f, "inconsistent recovered state: {what}")
            }
        }
    }
}

impl Error for RecoveryError {}

impl Error for FtlError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            FtlError::Flash(e) => Some(e),
            FtlError::Integrity(e) => Some(e),
            _ => None,
        }
    }
}

impl From<checkin_flash::FlashError> for FtlError {
    fn from(e: checkin_flash::FlashError) -> Self {
        FtlError::Flash(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use checkin_flash::{FlashError, Ppn};

    #[test]
    fn display_and_source() {
        let e = FtlError::Flash(FlashError::ProgramDirtyPage(Ppn(1)));
        assert!(e.to_string().contains("flash error"));
        assert!(Error::source(&e).is_some());
        assert!(Error::source(&FtlError::OutOfSpace).is_none());
    }

    #[test]
    fn from_flash_error() {
        let e: FtlError = FlashError::OutOfRange(Ppn(9)).into();
        assert!(matches!(e, FtlError::Flash(_)));
    }

    #[test]
    fn unmapped_names_lpn() {
        assert!(FtlError::Unmapped(Lpn(77)).to_string().contains("lpn:77"));
    }

    #[test]
    fn inconsistent_and_recovery_display() {
        assert!(FtlError::Inconsistent("slot empty")
            .to_string()
            .contains("slot empty"));
        assert!(RecoveryError::PoweredOff
            .to_string()
            .contains("powered off"));
        assert!(RecoveryError::Inconsistent("bad block ref")
            .to_string()
            .contains("bad block ref"));
    }

    #[test]
    fn integrity_errors_are_typed_and_displayed() {
        let e = FtlError::Integrity(IntegrityError::CorruptUnit(Lpn(4)));
        assert!(e.is_integrity());
        assert!(!e.is_power_loss());
        assert!(e.to_string().contains("quarantined"));
        assert!(Error::source(&e).is_some());
        let p = FtlError::Integrity(IntegrityError::Poisoned(Lpn(9)));
        assert!(p.is_integrity());
        assert!(p.to_string().contains("lost"));
        assert!(!FtlError::OutOfSpace.is_integrity());
    }

    #[test]
    fn power_loss_is_recognized() {
        assert!(FtlError::Flash(FlashError::PowerLoss).is_power_loss());
        assert!(!FtlError::OutOfSpace.is_power_loss());
        assert!(!FtlError::Flash(FlashError::OutOfRange(Ppn(0))).is_power_loss());
    }
}
