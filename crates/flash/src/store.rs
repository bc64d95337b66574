//! The stored form of programmed pages.
//!
//! Each block owns three arenas and nothing per page: fixed-size **unit
//! records** (one per mapping-unit slot: the unit's first fragment, its
//! OOB record and both checksums, 56 bytes), the **extra fragments** of
//! merged units, and a 12-byte **page header** naming a page's slice of
//! the record arena. A block that was never programmed owns no memory;
//! its first program reserves the header and record arenas for the whole
//! block, programming a page copies a staged [`PageContent`] into that
//! space — sealing the checksums as it goes — and erase empties the
//! arenas but keeps their capacity. Stored records are immutable except
//! to the fault injectors, which flip stored bits without resealing.
//!
//! The `#[inline]` hints here, on [`UnitRef`] and on `FlashArray::read`
//! mark the unit-read path the FTL crate calls per host read: without
//! them (no LTO) each accessor stays an out-of-line call and a verified
//! unit read costs half as much again.

use crate::content::{Fragment, OobEntry, PageContent, UnitRef};
use crate::integrity;

/// One mapping-unit slot of a programmed page. Field order packs the
/// record into 56 bytes: one record serves and verifies a unit read.
#[derive(Debug, Clone, Copy, Default)]
struct UnitRecord {
    /// The unit's first fragment (`fragments > 0`).
    key: u64,
    version: u64,
    /// The OOB record stored at this index (`index < header.oobs`).
    lpn: u64,
    sequence: u64,
    bytes: u32,
    /// Checksums sealed at program time over the canonical encodings of
    /// the unit and of the OOB record; zero where there is neither.
    unit_crc: u32,
    oob_crc: u32,
    /// Fragments in the unit; all but the first sit in the block's
    /// fragment arena from `extra_start` on.
    fragments: u32,
    extra_start: u32,
    /// The OOB kind as its canonical code byte.
    kind: u8,
    /// False marks a padded slot (staged as `None`).
    occupied: bool,
}

impl UnitRecord {
    #[inline]
    fn unit<'a>(&self, extra: &'a [Fragment]) -> UnitRef<'a> {
        if self.fragments == 0 {
            return UnitRef::default();
        }
        let first = Fragment {
            key: self.key,
            version: self.version,
            bytes: self.bytes,
        };
        let start = self.extra_start as usize;
        // A rotted count reaches past the arena: read what is there and
        // let the checksum, which covers the count, report it.
        let rest = extra
            .get(start..start + (self.fragments as usize - 1))
            .unwrap_or(&[]);
        UnitRef::new(first, rest)
    }

    fn oob(&self) -> OobEntry {
        OobEntry {
            lpn: self.lpn,
            sequence: self.sequence,
            kind: integrity::oob_kind_from_code(self.kind),
        }
    }
}

/// Where a programmed page's records are and how many the firmware
/// staged: `units` mapping-unit slots and `oobs` OOB records share the
/// `max(units, oobs)` records from `first` on.
#[derive(Debug, Clone, Copy)]
struct PageHeader {
    first: u32,
    units: u32,
    oobs: u32,
}

/// A block arena index. The records are 56 bytes because these are
/// `u32`; a block holds `pages_per_block` pages of a few units each.
fn index32(n: usize) -> Option<u32> {
    u32::try_from(n).ok()
}

/// A stored field of one unit slot, for
/// [`FlashArray::sabotage_flip_stored_bit`](crate::FlashArray::sabotage_flip_stored_bit).
/// The fragment fields take the fragment's index within the unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoredField {
    /// A fragment's key.
    Key(usize),
    /// A fragment's version.
    Version(usize),
    /// A fragment's byte count.
    Bytes(usize),
    /// The OOB record's logical unit number.
    Lpn,
    /// The OOB record's write sequence.
    Sequence,
    /// The OOB record's kind byte.
    Kind,
}

/// One block's programmed pages. `pages.len()` *is* the block's write
/// cursor: NAND programs a block strictly in order, so page `p` is
/// programmed exactly when `p < pages.len()`.
#[derive(Debug, Clone, Default)]
pub(crate) struct BlockStore {
    pages: Vec<PageHeader>,
    records: Vec<UnitRecord>,
    extra: Vec<Fragment>,
}

impl BlockStore {
    /// Pages programmed since the last erase.
    pub(crate) fn cursor(&self) -> usize {
        self.pages.len()
    }

    /// Heap bytes the arenas hold (capacity, not length).
    pub(crate) fn capacity_bytes(&self) -> usize {
        self.pages.capacity() * size_of::<PageHeader>()
            + self.records.capacity() * size_of::<UnitRecord>()
            + self.extra.capacity() * size_of::<Fragment>()
    }

    #[inline]
    pub(crate) fn page(&self, page: usize) -> Option<PageView<'_>> {
        let header = self.pages.get(page)?;
        let first = header.first as usize;
        let slots = header.units.max(header.oobs) as usize;
        Some(PageView {
            records: self.records.get(first..first + slots)?,
            units: header.units as usize,
            oobs: header.oobs as usize,
            extra: &self.extra,
        })
    }

    /// The programmed pages in page order.
    pub(crate) fn pages(&self) -> impl Iterator<Item = PageView<'_>> + '_ {
        (0..self.pages.len()).filter_map(|p| self.page(p))
    }

    /// Copies `content` in as the block's next page and seals it: the
    /// controller's ECC engine stamping each unit and OOB record on its
    /// way to the die. An erased block reserves its header and record
    /// arenas for `pages_per_block` pages of this shape first — its only
    /// allocations unless later pages are wider or carry merged units,
    /// and none at all once the block has been filled and erased.
    ///
    /// `None` when an arena has outgrown its `u32` indices — far more
    /// records than a block holds. The header goes in last, so the page
    /// then stays erased.
    pub(crate) fn land(&mut self, content: &PageContent, pages_per_block: usize) -> Option<()> {
        let slots = content.units.len().max(content.oob.len());
        if self.pages.is_empty() {
            self.pages.reserve_exact(pages_per_block);
            self.records.reserve_exact(pages_per_block * slots);
        }
        let header = PageHeader {
            first: index32(self.records.len())?,
            units: index32(content.units.len())?,
            oobs: index32(content.oob.len())?,
        };
        for i in 0..slots {
            let mut record = UnitRecord::default();
            if let Some(Some(unit)) = content.units.get(i) {
                record.occupied = true;
                record.fragments = index32(unit.fragments.len())?;
                record.unit_crc = integrity::unit_checksum(unit);
                if let Some((first, rest)) = unit.fragments.split_first() {
                    record.key = first.key;
                    record.version = first.version;
                    record.bytes = first.bytes;
                    record.extra_start = index32(self.extra.len())?;
                    self.extra.extend_from_slice(rest);
                }
            }
            if let Some(oob) = content.oob.get(i) {
                record.lpn = oob.lpn;
                record.sequence = oob.sequence;
                record.kind = integrity::oob_kind_code(oob.kind);
                record.oob_crc = integrity::oob_checksum(oob);
            }
            self.records.push(record);
        }
        self.pages.push(header);
        Some(())
    }

    /// Erases the block: no pages, every arena's capacity kept.
    pub(crate) fn clear(&mut self) {
        self.pages.clear();
        self.records.clear();
        self.extra.clear();
    }

    /// Slot `slot` of page `page` for the injectors — the page's header,
    /// the slot's record and the block's fragment arena — if the page is
    /// programmed and that wide.
    fn slot_mut(
        &mut self,
        page: usize,
        slot: usize,
    ) -> Option<(PageHeader, &mut UnitRecord, &mut [Fragment])> {
        let header = *self.pages.get(page)?;
        if slot >= header.units.max(header.oobs) as usize {
            return None;
        }
        let record = self.records.get_mut(header.first as usize + slot)?;
        Some((header, record, &mut self.extra))
    }

    /// The corruption injectors' data primitive: XORs the key and version
    /// of every fragment of unit `i` with the nonzero `mask` *without*
    /// resealing, so the stale checksum no longer matches. Returns false
    /// when there is no such occupied unit.
    pub(crate) fn flip_unit_bits(&mut self, page: usize, i: usize, mask: u64) -> bool {
        let Some((header, record, extra)) = self.slot_mut(page, i) else {
            return false;
        };
        if i >= header.units as usize || !record.occupied {
            return false;
        }
        record.key ^= mask;
        record.version ^= mask;
        let extras = (record.fragments as usize).saturating_sub(1);
        for f in extra
            .iter_mut()
            .skip(record.extra_start as usize)
            .take(extras)
        {
            f.key ^= mask;
            f.version ^= mask;
        }
        true
    }

    /// The injectors' metadata primitive: corrupts the recovery-critical
    /// `lpn`/`sequence` stamps of OOB record `i` without resealing.
    /// Returns false when the page has no such record.
    pub(crate) fn flip_oob_bits(&mut self, page: usize, i: usize, mask: u64) -> bool {
        let Some((header, record, _)) = self.slot_mut(page, i) else {
            return false;
        };
        if i >= header.oobs as usize {
            return false;
        }
        record.lpn ^= mask;
        record.sequence ^= mask.rotate_left(17);
        true
    }

    /// Flips bit `bit` (modulo the field's width) of one stored field of
    /// slot `slot` without resealing. Returns false when the slot stores
    /// no such field.
    pub(crate) fn flip_stored_bit(
        &mut self,
        page: usize,
        slot: usize,
        field: StoredField,
        bit: u32,
    ) -> bool {
        let Some((header, record, extra)) = self.slot_mut(page, slot) else {
            return false;
        };
        let (wide, narrow) = (1u64 << (bit % 64), 1u32 << (bit % 32));
        let fragment = match field {
            StoredField::Key(f) | StoredField::Version(f) | StoredField::Bytes(f) => f,
            _ if slot >= header.oobs as usize => return false,
            StoredField::Lpn => {
                record.lpn ^= wide;
                return true;
            }
            StoredField::Sequence => {
                record.sequence ^= wide;
                return true;
            }
            StoredField::Kind => {
                record.kind ^= 1 << (bit % 8);
                return true;
            }
        };
        if slot >= header.units as usize
            || !record.occupied
            || fragment >= record.fragments as usize
        {
            return false;
        }
        let (key, version, bytes) = match fragment.checked_sub(1) {
            None => (&mut record.key, &mut record.version, &mut record.bytes),
            Some(i) => match extra.get_mut(record.extra_start as usize + i) {
                Some(f) => (&mut f.key, &mut f.version, &mut f.bytes),
                None => return false,
            },
        };
        match field {
            StoredField::Key(_) => *key ^= wide,
            StoredField::Version(_) => *version ^= wide,
            _ => *bytes ^= narrow,
        }
        true
    }
}

/// A programmed page, borrowed from its block's arenas. Indices follow
/// the staged [`PageContent`]: unit `i` is `units[i]`, OOB record `i` is
/// `oob[i]`.
#[derive(Debug, Clone, Copy)]
pub struct PageView<'a> {
    records: &'a [UnitRecord],
    units: usize,
    oobs: usize,
    extra: &'a [Fragment],
}

impl<'a> PageView<'a> {
    /// Mapping-unit slots the page was staged with, padded ones included.
    pub fn unit_slots(&self) -> usize {
        self.units
    }

    /// OOB records on the page.
    pub fn oob_len(&self) -> usize {
        self.oobs
    }

    #[inline]
    fn unit_record(&self, i: usize) -> Option<&'a UnitRecord> {
        self.records
            .get(..self.units)?
            .get(i)
            .filter(|r| r.occupied)
    }

    fn oob_record(&self, i: usize) -> Option<&'a UnitRecord> {
        self.records.get(..self.oobs)?.get(i)
    }

    /// The fragments of unit `i`; `None` for a padded slot or one past
    /// the page.
    #[inline]
    pub fn unit(&self, i: usize) -> Option<UnitRef<'a>> {
        self.unit_record(i).map(|r| r.unit(self.extra))
    }

    /// Number of occupied units.
    pub fn occupied_units(&self) -> usize {
        (0..self.units)
            .filter(|&i| self.unit_record(i).is_some())
            .count()
    }

    /// OOB record `i`.
    pub fn oob(&self, i: usize) -> Option<OobEntry> {
        self.oob_record(i).map(UnitRecord::oob)
    }

    /// The OOB records in index order.
    pub fn oobs(&self) -> impl Iterator<Item = OobEntry> + 'a {
        let records = self.records.get(..self.oobs).unwrap_or(&[]);
        records.iter().map(UnitRecord::oob)
    }

    /// The checksum sealed over unit `i` at program time.
    pub fn unit_crc(&self, i: usize) -> Option<u32> {
        self.unit_record(i).map(|r| r.unit_crc)
    }

    /// The checksum sealed over OOB record `i` at program time.
    pub fn oob_crc(&self, i: usize) -> Option<u32> {
        self.oob_record(i).map(|r| r.oob_crc)
    }

    /// Verifies the sealed checksum of unit `i`. Padded slots verify
    /// trivially (there is nothing to protect).
    pub fn unit_intact(&self, i: usize) -> bool {
        self.unit_record(i).is_none_or(|r| {
            integrity::fragments_checksum(r.fragments, r.unit(self.extra).iter()) == r.unit_crc
        })
    }

    /// Verifies the sealed checksum of OOB record `i` (trivially true
    /// when absent).
    pub fn oob_intact(&self, i: usize) -> bool {
        self.oob_record(i)
            .is_none_or(|r| integrity::oob_record_checksum(r.lpn, r.sequence, r.kind) == r.oob_crc)
    }

    /// True when every occupied unit and OOB record verifies.
    pub fn intact(&self) -> bool {
        (0..self.units).all(|i| self.unit_intact(i)) && (0..self.oobs).all(|i| self.oob_intact(i))
    }

    /// The page as it would be staged again (allocates; tests and
    /// diagnostics).
    pub fn to_content(&self) -> PageContent {
        PageContent {
            units: (0..self.units)
                .map(|i| self.unit(i).map(|u| u.to_payload()))
                .collect(),
            oob: self.oobs().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_unit_record_is_at_most_56_bytes() {
        assert!(size_of::<UnitRecord>() <= 56);
        assert_eq!(size_of::<PageHeader>(), 12);
    }
}
