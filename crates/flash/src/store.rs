//! The stored form of programmed pages.
//!
//! Each block owns three arenas and nothing per page: fixed-size **unit
//! records** (one per mapping-unit slot: the unit's first fragment and
//! its OOB record, 40 bytes), the **extra fragments** of merged units,
//! and a 12-byte **page header** naming where a page's records and extra
//! fragments start. A unit's extra fragments follow those of its page's
//! earlier slots, so no record says where they are. A block that was
//! never programmed owns no memory; its first program reserves the header
//! and record arenas for the whole block, programming a page copies a
//! staged [`PageContent`] into that space, and erase empties the arenas
//! but keeps their capacity.
//!
//! No record keeps a checksum. Nothing but the fault injectors ever
//! changes a stored bit, so a record nobody changed is its own seal: it
//! still holds what was programmed. The injectors change a slot only
//! through [`Injector`], which first keeps the slot's checksums — those
//! of the programmed content — and its programmed OOB lpn in the device's
//! one [`SealLog`], and verification recomputes a checksum only for a
//! slot that log names.
//!
//! The `#[inline]` hints here, on [`UnitRef`] and on `FlashArray::read`
//! mark the unit-read path the FTL crate calls per host read: without
//! them (no LTO) each accessor stays an out-of-line call and a verified
//! unit read costs half as much again.

use std::ops::Range;

use crate::content::{Fragment, OobEntry, PageContent, UnitRef};
use crate::integrity;

/// One mapping-unit slot of a programmed page. Field order packs the
/// record into 40 bytes: one record serves a unit read.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct UnitRecord {
    /// The unit's first fragment (`fragments > 0`).
    key: u64,
    version: u64,
    /// The OOB record stored at this index (`index < header.oobs`).
    lpn: u64,
    sequence: u64,
    bytes: u32,
    /// Fragments in the unit; all but the first sit in the block's
    /// fragment arena, after those of the page's earlier slots.
    fragments: u16,
    /// The OOB kind as its canonical code byte.
    kind: u8,
    /// False marks a padded slot (staged as `None`).
    occupied: bool,
}

impl UnitRecord {
    /// Fragments of this unit in the block's fragment arena.
    #[inline]
    fn extras(&self) -> usize {
        usize::from(self.fragments).saturating_sub(1)
    }

    /// The unit, its fragments after the first being `rest`.
    #[inline]
    fn unit<'a>(&self, rest: &'a [Fragment]) -> UnitRef<'a> {
        if self.fragments == 0 {
            return UnitRef::default();
        }
        let first = Fragment {
            key: self.key,
            version: self.version,
            bytes: self.bytes,
        };
        UnitRef::new(first, rest)
    }

    /// The checksum of the unit as stored, over the count it stores.
    fn unit_checksum(&self, rest: &[Fragment]) -> u32 {
        integrity::fragments_checksum(u32::from(self.fragments), self.unit(rest).iter())
    }

    fn oob(&self) -> OobEntry {
        OobEntry {
            lpn: self.lpn,
            sequence: self.sequence,
            kind: integrity::oob_kind_from_code(self.kind),
        }
    }

    /// The checksum of the OOB record as stored.
    fn oob_checksum(&self) -> u32 {
        integrity::oob_record_checksum(self.lpn, self.sequence, self.kind)
    }
}

/// Where unit `slot` of a page keeps its extra fragments, counted from
/// the page's first: after the extras of slots `0..slot`, at most seven
/// records to sum on an eight-slot page. `records` are the page's.
#[inline]
fn extras_range(records: &[UnitRecord], slot: usize) -> Range<usize> {
    let len = records.get(slot).map_or(0, UnitRecord::extras);
    if len == 0 {
        return 0..0;
    }
    let start = records.iter().take(slot).map(UnitRecord::extras).sum();
    start..start + len
}

/// Where a programmed page's records and extra fragments start, and how
/// many slots the firmware staged: `units` mapping-unit slots and `oobs`
/// OOB records share the `max(units, oobs)` records from `first` on.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PageHeader {
    first: u32,
    extra: u32,
    units: u16,
    oobs: u16,
}

impl PageHeader {
    fn slots(&self) -> usize {
        usize::from(self.units.max(self.oobs))
    }
}

/// A block arena index; a block holds `pages_per_block` pages of a few
/// units each.
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

    /// Records of the pages programmed since the last erase.
    pub(crate) fn records(&self) -> usize {
        self.records.len()
    }

    /// Heap bytes the arenas hold (capacity, not length).
    pub(crate) fn capacity_bytes(&self) -> usize {
        self.pages.capacity() * size_of::<PageHeader>()
            + self.records.capacity() * size_of::<UnitRecord>()
            + self.extra.capacity() * size_of::<Fragment>()
    }

    /// Page `page`, with `seals` — the block's entries of the seal log.
    #[inline]
    pub(crate) fn page<'a>(&'a self, page: usize, seals: &'a [Seal]) -> Option<PageView<'a>> {
        let header = self.pages.get(page)?;
        let first = header.first as usize;
        let slots = header.slots();
        Some(PageView {
            records: self.records.get(first..first + slots)?,
            units: usize::from(header.units),
            oobs: usize::from(header.oobs),
            extra: self.extra.get(header.extra as usize..).unwrap_or(&[]),
            seals: Seal::of_records(seals, header.first, slots),
            first: header.first,
        })
    }

    /// The programmed pages in page order, with the block's `seals`.
    pub(crate) fn pages<'a>(
        &'a self,
        seals: &'a [Seal],
    ) -> impl Iterator<Item = PageView<'a>> + 'a {
        (0..self.pages.len()).filter_map(move |p| self.page(p, seals))
    }

    /// The lpn OOB record `i` of page `page` was programmed with, given
    /// the block's `seals`: the seal's when an injector changed the
    /// record since, so stored rot does not show.
    #[inline]
    pub(crate) fn programmed_lpn(&self, page: usize, i: usize, seals: &[Seal]) -> Option<u64> {
        let header = self.pages.get(page)?;
        let record = header.first as usize + i;
        let stored = self
            .records
            .get(record)
            .filter(|_| i < usize::from(header.oobs))?;
        let seal = seals.iter().find(|s| s.record as usize == record);
        Some(seal.map_or(stored.lpn, |s| s.lpn))
    }

    /// Copies `content` in as the block's next page. An erased block
    /// reserves its header and record arenas for `pages_per_block` pages
    /// of this shape first — its only allocations unless later pages are
    /// wider or carry merged units, and none at all once the block has
    /// been filled and erased.
    ///
    /// `None` when the page does not fit the store's indices: more than
    /// `u16::MAX` slots or OOB records, a unit of more than `u16::MAX`
    /// fragments, or arenas past `u32` indices. Every limit is checked
    /// before anything is stored, so the page then stays erased and the
    /// arenas as they were.
    pub(crate) fn land(&mut self, content: &PageContent, pages_per_block: usize) -> Option<()> {
        let slots = content.units.len().max(content.oob.len());
        let mut extras = 0usize;
        for unit in content.units.iter().flatten() {
            u16::try_from(unit.fragments.len()).ok()?;
            extras += unit.fragments.len().saturating_sub(1);
        }
        let header = PageHeader {
            first: index32(self.records.len())?,
            extra: index32(self.extra.len())?,
            units: u16::try_from(content.units.len()).ok()?,
            oobs: u16::try_from(content.oob.len()).ok()?,
        };
        index32(self.records.len() + slots)?;
        index32(self.extra.len() + extras)?;
        if self.pages.is_empty() {
            self.pages.reserve_exact(pages_per_block);
            self.records.reserve_exact(pages_per_block * slots);
        }
        for i in 0..slots {
            let mut record = UnitRecord::default();
            if let Some(Some(unit)) = content.units.get(i) {
                record.occupied = true;
                // Checked above: the saturation never stores.
                record.fragments = u16::try_from(unit.fragments.len()).unwrap_or(u16::MAX);
                if let Some((first, rest)) = unit.fragments.split_first() {
                    record.key = first.key;
                    record.version = first.version;
                    record.bytes = first.bytes;
                    self.extra.extend_from_slice(rest);
                }
            }
            if let Some(oob) = content.oob.get(i) {
                record.lpn = oob.lpn;
                record.sequence = oob.sequence;
                record.kind = integrity::oob_kind_code(oob.kind);
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
}

/// The checksums of what was programmed into one unit slot, and its
/// programmed OOB lpn, kept by an [`Injector`] before the slot's first
/// change. `record` indexes the block's record arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Seal {
    block: u32,
    record: u32,
    /// Over the unit; zero for a slot that holds none.
    unit_seal: u32,
    /// Over the OOB record; zero for a slot that holds none.
    oob_seal: u32,
    /// The OOB record's lpn as programmed: what the firmware's mapping
    /// table knows the slot by, whatever rot the injector adds.
    lpn: u64,
}

impl Seal {
    fn at(&self) -> (u32, u32) {
        (self.block, self.record)
    }

    /// The entries of `seals` (one block's) for the `slots` records from
    /// `first` on.
    #[inline]
    fn of_records(seals: &[Seal], first: u32, slots: usize) -> &[Seal] {
        if seals.is_empty() {
            return seals;
        }
        let end = u64::from(first) + slots as u64;
        let from = seals.partition_point(|s| s.record < first);
        let to = seals.partition_point(|s| u64::from(s.record) < end);
        seals.get(from..to).unwrap_or(&[])
    }
}

/// The device's seals, sorted by `(block, record)`, one entry per slot an
/// injector changed since its block's last erase. Empty on a device no
/// injector touched.
#[derive(Debug, Default)]
pub(crate) struct SealLog {
    seals: Vec<Seal>,
}

impl SealLog {
    /// Slots the log names.
    pub(crate) fn len(&self) -> usize {
        self.seals.len()
    }

    /// Heap bytes the log holds (capacity, not length).
    pub(crate) fn capacity_bytes(&self) -> usize {
        self.seals.capacity() * size_of::<Seal>()
    }

    /// Where block `block`'s entries sit in the log.
    #[inline]
    fn block_range(&self, block: usize) -> Range<usize> {
        let Ok(block) = u32::try_from(block) else {
            return 0..0;
        };
        if self.seals.is_empty() {
            return 0..0;
        }
        let from = self.seals.partition_point(|s| s.block < block);
        from..self.seals.partition_point(|s| s.block <= block)
    }

    /// Block `block`'s entries.
    #[inline]
    pub(crate) fn of_block(&self, block: usize) -> &[Seal] {
        self.seals.get(self.block_range(block)).unwrap_or(&[])
    }

    /// Keeps `seal` unless its slot already has one: the first change's
    /// seal is the programmed content's.
    fn keep(&mut self, seal: Seal) {
        if let Err(at) = self.seals.binary_search_by_key(&seal.at(), Seal::at) {
            self.seals.insert(at, seal);
        }
    }

    /// Drops block `block`'s entries: its erase.
    pub(crate) fn forget_block(&mut self, block: usize) {
        let range = self.block_range(block);
        self.seals.drain(range);
    }

    /// The log is sorted, names each slot once, and names only records
    /// that `records(block)` — a block's programmed records, `None` past
    /// the last block — says are programmed.
    pub(crate) fn check(&self, records: impl Fn(usize) -> Option<usize>) -> Result<(), String> {
        if let Some(pair) = self.seals.windows(2).find(|w| match w {
            [a, b] => a.at() >= b.at(),
            _ => false,
        }) {
            return Err(format!("seal log out of order or repeated: {pair:?}"));
        }
        match self.seals.iter().find(|s| {
            records(s.block as usize).is_none_or(|programmed| s.record as usize >= programmed)
        }) {
            Some(s) => Err(format!("seal for an unprogrammed record: {s:?}")),
            None => Ok(()),
        }
    }
}

/// One unit slot as an injector's change sees it.
struct SlotMut<'a> {
    /// The slot is a mapping-unit slot of its page (`< units`).
    unit: bool,
    /// The slot holds an OOB record (`< oobs`).
    oob: bool,
    record: &'a mut UnitRecord,
    /// The unit's extra fragments.
    extras: &'a mut [Fragment],
}

/// The fault injectors' hold on one block: every change to a stored bit
/// goes through here, and keeps the changed slot's seal first.
pub(crate) struct Injector<'a> {
    pub(crate) block: u32,
    pub(crate) store: &'a mut BlockStore,
    pub(crate) seals: &'a mut SealLog,
}

impl Injector<'_> {
    /// Applies `change` to slot `slot` of page `page`; `change` returns
    /// false when the slot stores nothing it would change, and must then
    /// change nothing. Before the slot's first change its checksums —
    /// still those of what was programmed — go into the seal log. False
    /// when the page is not programmed or not that wide.
    fn change_slot(
        &mut self,
        page: usize,
        slot: usize,
        change: impl FnOnce(SlotMut<'_>) -> bool,
    ) -> bool {
        let Some(&header) = self.store.pages.get(page) else {
            return false;
        };
        let first = header.first as usize;
        let Some(records) = self.store.records.get_mut(first..first + header.slots()) else {
            return false;
        };
        let extras = extras_range(records, slot);
        let (Some(record), Some(index)) = (records.get_mut(slot), index32(first + slot)) else {
            return false;
        };
        let base = header.extra as usize;
        let extras = (self.store.extra)
            .get_mut(base + extras.start..base + extras.end)
            .unwrap_or_default();
        let (unit, oob) = (
            slot < usize::from(header.units),
            slot < usize::from(header.oobs),
        );
        let seal = Seal {
            block: self.block,
            record: index,
            unit_seal: if unit && record.occupied {
                record.unit_checksum(extras)
            } else {
                0
            },
            oob_seal: if oob { record.oob_checksum() } else { 0 },
            lpn: record.lpn,
        };
        let changed = change(SlotMut {
            unit,
            oob,
            record,
            extras,
        });
        if changed {
            self.seals.keep(seal);
        }
        changed
    }

    /// The corruption injectors' data primitive: XORs the key and version
    /// of every fragment of unit `i` with the nonzero `mask`, so it no
    /// longer matches its seal. Returns false when there is no such
    /// occupied unit.
    pub(crate) fn flip_unit_bits(&mut self, page: usize, i: usize, mask: u64) -> bool {
        self.change_slot(page, i, |slot| {
            if !slot.unit || !slot.record.occupied {
                return false;
            }
            slot.record.key ^= mask;
            slot.record.version ^= mask;
            for f in slot.extras {
                f.key ^= mask;
                f.version ^= mask;
            }
            true
        })
    }

    /// The injectors' metadata primitive: corrupts the recovery-critical
    /// `lpn`/`sequence` stamps of OOB record `i`. Returns false when the
    /// page has no such record.
    pub(crate) fn flip_oob_bits(&mut self, page: usize, i: usize, mask: u64) -> bool {
        self.change_slot(page, i, |slot| {
            if !slot.oob {
                return false;
            }
            slot.record.lpn ^= mask;
            slot.record.sequence ^= mask.rotate_left(17);
            true
        })
    }

    /// Flips bit `bit` (modulo the field's width) of one stored field of
    /// slot `slot`. Returns false when the slot stores no such field.
    pub(crate) fn flip_stored_bit(
        &mut self,
        page: usize,
        slot: usize,
        field: StoredField,
        bit: u32,
    ) -> bool {
        let (wide, narrow) = (1u64 << (bit % 64), 1u32 << (bit % 32));
        self.change_slot(page, slot, |slot| {
            let record = slot.record;
            let fragment = match field {
                StoredField::Key(f) | StoredField::Version(f) | StoredField::Bytes(f) => f,
                _ if !slot.oob => return false,
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
            if !slot.unit || !record.occupied || fragment >= usize::from(record.fragments) {
                return false;
            }
            let (key, version, bytes) = match fragment.checked_sub(1) {
                None => (&mut record.key, &mut record.version, &mut record.bytes),
                Some(i) => match slot.extras.get_mut(i) {
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
        })
    }

    /// Flips `mask` into every occupied unit from `first_unit` on and
    /// every OOB record of the page the block programmed last: what a
    /// misdirected or torn program leaves behind.
    pub(crate) fn damage_last_page(&mut self, first_unit: usize, mask: u64) {
        let Some(page) = self.store.cursor().checked_sub(1) else {
            return;
        };
        let Some(&header) = self.store.pages.get(page) else {
            return;
        };
        for i in first_unit..usize::from(header.units) {
            self.flip_unit_bits(page, i, mask);
        }
        for i in 0..usize::from(header.oobs) {
            self.flip_oob_bits(page, i, mask);
        }
    }
}

/// A programmed page, borrowed from its block's arenas and the seal log.
/// Indices follow the staged [`PageContent`]: unit `i` is `units[i]`,
/// OOB record `i` is `oob[i]`.
#[derive(Debug, Clone, Copy)]
pub struct PageView<'a> {
    records: &'a [UnitRecord],
    units: usize,
    oobs: usize,
    /// The block's fragment arena from the page's first extra on.
    extra: &'a [Fragment],
    /// The log's entries for the page's records.
    seals: &'a [Seal],
    /// The block's record index of slot 0.
    first: u32,
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

    /// The extra fragments of unit `i`.
    #[inline]
    fn extras(&self, i: usize) -> &'a [Fragment] {
        let range = extras_range(self.records, i);
        if range.is_empty() {
            return &[];
        }
        self.extra.get(range).unwrap_or(&[])
    }

    /// The seal kept for slot `i`, if an injector changed it.
    #[inline]
    fn seal(&self, i: usize) -> Option<&'a Seal> {
        if self.seals.is_empty() {
            return None;
        }
        let record = u64::from(self.first) + i as u64;
        self.seals.iter().find(|s| u64::from(s.record) == record)
    }

    /// The fragments of unit `i`; `None` for a padded slot or one past
    /// the page.
    #[inline]
    pub fn unit(&self, i: usize) -> Option<UnitRef<'a>> {
        self.unit_record(i).map(|r| r.unit(self.extras(i)))
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

    /// The checksum of unit `i` as programmed: the seal an injector kept,
    /// or that of the stored unit, which nothing else changes.
    pub fn unit_crc(&self, i: usize) -> Option<u32> {
        self.unit_record(i).map(|r| {
            self.seal(i)
                .map_or_else(|| r.unit_checksum(self.extras(i)), |s| s.unit_seal)
        })
    }

    /// The checksum of OOB record `i` as programmed (see
    /// [`PageView::unit_crc`]).
    pub fn oob_crc(&self, i: usize) -> Option<u32> {
        self.oob_record(i).map(|r| {
            self.seal(i)
                .map_or_else(|| r.oob_checksum(), |s| s.oob_seal)
        })
    }

    /// Verifies unit `i` against its seal: a slot no injector changed
    /// holds what was programmed, and one it changed must checksum as
    /// before. Padded slots verify trivially (there is nothing to
    /// protect).
    pub fn unit_intact(&self, i: usize) -> bool {
        self.unit_record(i).is_none_or(|r| {
            self.seal(i)
                .is_none_or(|s| r.unit_checksum(self.extras(i)) == s.unit_seal)
        })
    }

    /// Verifies OOB record `i` against its seal (trivially true when
    /// absent).
    pub fn oob_intact(&self, i: usize) -> bool {
        self.oob_record(i)
            .is_none_or(|r| self.seal(i).is_none_or(|s| r.oob_checksum() == s.oob_seal))
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
    fn a_unit_record_is_40_bytes() {
        assert_eq!(size_of::<UnitRecord>(), 40);
        assert_eq!(size_of::<PageHeader>(), 12);
        assert_eq!(size_of::<Seal>(), 24);
    }
}
