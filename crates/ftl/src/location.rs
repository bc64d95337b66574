//! Logical and physical addressing at mapping-unit granularity.

use std::fmt;

/// A logical page number in **mapping units** (not 512-byte sectors).
///
/// The host's LBA space is divided into fixed-size mapping units; `Lpn(n)`
/// names the n-th unit. Conversion from byte addresses happens in the SSD
/// front end.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Lpn(pub u64);

impl Lpn {
    /// The unit number as a table index for `slice::get`: one the host's
    /// `usize` cannot hold is `usize::MAX`, which no table contains.
    pub fn index(self) -> usize {
        usize::try_from(self.0).unwrap_or(usize::MAX)
    }
}

impl fmt::Display for Lpn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lpn:{}", self.0)
    }
}

/// A physical unit number: `ppn * units_per_page + unit_offset`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Pun(pub u64);

impl Pun {
    /// The unit number as a table index for `slice::get`: one the host's
    /// `usize` cannot hold is `usize::MAX`, which no table contains.
    pub fn index(self) -> usize {
        usize::try_from(self.0).unwrap_or(usize::MAX)
    }

    /// The physical page containing this unit.
    pub fn page(self, units_per_page: u32) -> checkin_flash::Ppn {
        checkin_flash::Ppn(self.0 / units_per_page as u64)
    }

    /// Index of this unit within its page.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "a remainder is smaller than its modulus, and units_per_page is a u32"
    )]
    pub fn offset(self, units_per_page: u32) -> u32 {
        (self.0 % units_per_page as u64) as u32
    }

    /// Builds a unit address from page and offset.
    pub fn compose(ppn: checkin_flash::Ppn, offset: u32, units_per_page: u32) -> Pun {
        debug_assert!(offset < units_per_page);
        Pun(ppn.0 * units_per_page as u64 + offset as u64)
    }
}

impl fmt::Display for Pun {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pun:{}", self.0)
    }
}

/// Identifier of a unit parked in the device write buffer (power-protected
/// DRAM) that has not yet been programmed to flash.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct BufSlot(pub u64);

impl BufSlot {
    /// The slot id as a table index for `slice::get`: one the host's
    /// `usize` cannot hold is `usize::MAX`, which no table contains.
    pub fn index(self) -> usize {
        usize::try_from(self.0).unwrap_or(usize::MAX)
    }
}

impl fmt::Display for BufSlot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "buf:{}", self.0)
    }
}

/// Where a logical unit's current copy lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Location {
    /// On flash, at a physical unit.
    Flash(Pun),
    /// In the device write buffer awaiting page-out.
    Buffer(BufSlot),
}

impl fmt::Display for Location {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Location::Flash(p) => write!(f, "{p}"),
            Location::Buffer(b) => write!(f, "{b}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use checkin_flash::Ppn;

    #[test]
    fn pun_page_and_offset() {
        let p = Pun(8 * 7 + 3);
        assert_eq!(p.page(8), Ppn(7));
        assert_eq!(p.offset(8), 3);
    }

    #[test]
    fn pun_compose_roundtrip() {
        for raw in 0..64u64 {
            let p = Pun(raw);
            let back = Pun::compose(p.page(8), p.offset(8), 8);
            assert_eq!(back, p);
        }
    }

    #[test]
    fn single_unit_per_page_degenerates() {
        let p = Pun(5);
        assert_eq!(p.page(1), Ppn(5));
        assert_eq!(p.offset(1), 0);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Lpn(3).to_string(), "lpn:3");
        assert_eq!(Location::Flash(Pun(1)).to_string(), "pun:1");
        assert_eq!(Location::Buffer(BufSlot(2)).to_string(), "buf:2");
    }
}
