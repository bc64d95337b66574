//! The stored form of programmed pages.
//!
//! Each block owns three arenas and nothing per page: fixed-size **unit
//! records** (one per mapping-unit slot: the unit's first fragment and
//! its OOB record, 24 bytes), the **extra fragments** of merged units
//! (12 bytes each), and a 12-byte **page header** naming where a page's
//! records and extra fragments start. A unit's extra fragments follow
//! those of its page's earlier slots, so no record says where they are.
//! A block that was never programmed owns no memory; its first program
//! reserves the header and record arenas for the whole block, programming
//! a page copies a staged [`PageContent`] into that space, and erase
//! empties the arenas but keeps their capacity.
//!
//! The arenas hold 32-bit words: a key is kept as a word that
//! sign-extends to it (so the metadata unit's `u64::MAX` fits), versions,
//! OOB sequences and extra fragments' byte counts as words, a first
//! fragment's byte count in 16 bits and a unit's fragment count in 8;
//! only the OOB lpn keeps 64 bits. The narrowing is lossless: a slot
//! whose programmed values do not fit is **logged** — kept whole in the
//! device's one [`SealLog`] — when it lands, and its record says so.
//!
//! No record keeps a checksum. Nothing but the fault injectors ever
//! changes a stored bit, and they never change a record: before a slot's
//! first change, [`Injector`] logs it — its checksums and lpn as
//! programmed, and its content at full width — and every later change,
//! like every read, goes to that log entry. So a record nobody logged is
//! its own seal, and verification recomputes a checksum only for a slot
//! the log names.
//!
//! The `#[inline]` hints here, on [`UnitRef`] and on `FlashArray::read`
//! mark the unit-read path the FTL crate calls per host read: without
//! them (no LTO) each accessor stays an out-of-line call and a verified
//! unit read costs half as much again.

use std::ops::Range;

use crate::content::{FragVec, Fragment, OobEntry, PageContent, UnitPayload, UnitRef};
use crate::integrity;

/// `key` as the 32-bit word that sign-extends to it, if there is one.
fn narrow_key(key: u64) -> Option<u32> {
    i32::try_from(key.cast_signed())
        .ok()
        .map(i32::cast_unsigned)
}

/// The key a stored 32-bit word sign-extends to.
#[inline]
fn widen_key(key: u32) -> u64 {
    i64::from(key.cast_signed()).cast_unsigned()
}

/// An extra fragment as the block's fragment arena keeps it: 12 bytes.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct StoredFragment {
    /// Sign-extends to the fragment's key.
    key: u32,
    version: u32,
    bytes: u32,
}

impl StoredFragment {
    /// `fragment` in 12 bytes, if its key and version fit.
    fn narrow(fragment: &Fragment) -> Option<Self> {
        Some(StoredFragment {
            key: narrow_key(fragment.key)?,
            version: u32::try_from(fragment.version).ok()?,
            bytes: fragment.bytes,
        })
    }

    /// The fragment as it was staged.
    #[inline]
    pub(crate) fn widen(self) -> Fragment {
        Fragment {
            key: widen_key(self.key),
            version: u64::from(self.version),
            bytes: self.bytes,
        }
    }
}

/// The OOB kind's canonical code in a record's code byte.
const KIND: u8 = 0b11;
/// A mapping unit is staged in the slot (unset for a padded one).
const OCCUPIED: u8 = 1 << 2;
/// The slot's programmed values did not fit the record: its content
/// and its extra fragments are in the seal log, and the record holds
/// only its lpn and this byte.
const LOGGED: u8 = 1 << 3;

/// One mapping-unit slot of a programmed page, in 24 bytes: one record
/// serves a unit read. Never changed after [`BlockStore::land`].
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct UnitRecord {
    /// The OOB record stored at this index (`index < header.oobs`).
    lpn: u64,
    /// The unit's first fragment (`fragments > 0`); the key
    /// sign-extends.
    key: u32,
    version: u32,
    sequence: u32,
    bytes: u16,
    /// Fragments in the unit; all but the first sit in the block's
    /// fragment arena, after those of the page's earlier slots.
    fragments: u8,
    /// The OOB kind's code, [`OCCUPIED`] and [`LOGGED`].
    code: u8,
}

impl UnitRecord {
    /// The record of a slot holding `unit` and `oob`, if every value
    /// fits; `None` when the slot must be logged.
    fn narrow(unit: Option<&UnitPayload>, oob: Option<&OobEntry>) -> Option<Self> {
        let mut record = UnitRecord::bare(unit.is_some(), oob);
        if let Some(oob) = oob {
            record.sequence = u32::try_from(oob.sequence).ok()?;
        }
        let Some(unit) = unit else {
            return Some(record);
        };
        record.fragments = u8::try_from(unit.fragments.len()).ok()?;
        if let Some((first, rest)) = unit.fragments.split_first() {
            record.key = narrow_key(first.key)?;
            record.version = u32::try_from(first.version).ok()?;
            record.bytes = u16::try_from(first.bytes).ok()?;
            if !rest.iter().all(|f| StoredFragment::narrow(f).is_some()) {
                return None;
            }
        }
        Some(record)
    }

    /// The record of a logged slot: its lpn and code byte.
    fn logged(occupied: bool, oob: Option<&OobEntry>) -> Self {
        let mut record = UnitRecord::bare(occupied, oob);
        record.code |= LOGGED;
        record
    }

    /// A record holding only the slot's lpn, OOB kind and occupied flag.
    fn bare(occupied: bool, oob: Option<&OobEntry>) -> Self {
        let kind = oob.map_or(0, |o| integrity::oob_kind_code(o.kind));
        UnitRecord {
            lpn: oob.map_or(0, |o| o.lpn),
            code: kind | if occupied { OCCUPIED } else { 0 },
            ..UnitRecord::default()
        }
    }

    #[inline]
    fn occupied(&self) -> bool {
        self.code & OCCUPIED != 0
    }

    /// Fragments of this unit in the block's fragment arena.
    #[inline]
    fn extras(&self) -> usize {
        if self.code & LOGGED != 0 {
            return 0;
        }
        usize::from(self.fragments).saturating_sub(1)
    }

    /// The unit, its fragments after the first being `rest`.
    #[inline]
    fn unit<'a>(&self, rest: &'a [StoredFragment]) -> UnitRef<'a> {
        if self.fragments == 0 {
            return UnitRef::default();
        }
        let first = Fragment {
            key: widen_key(self.key),
            version: u64::from(self.version),
            bytes: u32::from(self.bytes),
        };
        UnitRef::stored(first, rest)
    }

    /// The checksum of the unit as stored, over the count it stores.
    fn unit_checksum(&self, rest: &[StoredFragment]) -> u32 {
        integrity::fragments_checksum(u32::from(self.fragments), self.unit(rest).iter())
    }

    /// The slot at full width, its extra fragments being `rest`: what
    /// the log keeps of it.
    fn widen(&self, rest: &[StoredFragment]) -> WideSlot {
        WideSlot {
            fragments: self.unit(rest).iter().collect(),
            lpn: self.lpn,
            sequence: u64::from(self.sequence),
            kind: self.code & KIND,
        }
    }

    fn oob(&self) -> OobEntry {
        OobEntry {
            lpn: self.lpn,
            sequence: u64::from(self.sequence),
            kind: integrity::oob_kind_from_code(self.code),
        }
    }

    /// The checksum of the OOB record as stored.
    fn oob_checksum(&self) -> u32 {
        integrity::oob_record_checksum(self.lpn, u64::from(self.sequence), self.code & KIND)
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
    extra: Vec<StoredFragment>,
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
            + self.extra.capacity() * size_of::<StoredFragment>()
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
    /// the block's `seals`: the log's when the slot is logged, so
    /// injected rot does not show.
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

    /// Copies `content` in as the next page of block `block`. An erased
    /// block reserves its header and record arenas for `pages_per_block`
    /// pages of this shape first — its only allocations unless later
    /// pages are wider or carry merged units, and none at all once the
    /// block has been filled and erased. A slot whose values do not fit
    /// its record goes into `seals` whole (see [`UnitRecord`]).
    ///
    /// `None` when the page does not fit the store's indices: more than
    /// `u16::MAX` slots or OOB records, a unit of more than `u16::MAX`
    /// fragments, or arenas past `u32` indices. Every limit is checked
    /// before anything is stored, so the page then stays erased and the
    /// arenas and the log as they were.
    pub(crate) fn land(
        &mut self,
        block: u32,
        content: &PageContent,
        pages_per_block: usize,
        seals: &mut SealLog,
    ) -> Option<()> {
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
            let unit = content.units.get(i).and_then(Option::as_ref);
            let oob = content.oob.get(i);
            if let Some(record) = UnitRecord::narrow(unit, oob) {
                let rest = unit.and_then(|u| u.fragments.get(1..)).unwrap_or(&[]);
                // One reservation per unit, as a slice copy makes, not
                // one growth step per fragment.
                self.extra.reserve(rest.len());
                (self.extra).extend(rest.iter().filter_map(StoredFragment::narrow));
                self.records.push(record);
                continue;
            }
            // Below `u32` indices: checked above.
            let record = index32(self.records.len()).unwrap_or(u32::MAX);
            let now = WideSlot::staged(unit, oob);
            seals.keep(Seal::new(block, record, unit.is_some(), oob.is_some(), now));
            self.records.push(UnitRecord::logged(unit.is_some(), oob));
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

/// A logged slot's content at full width: its fragments, and its OOB
/// record with the kind as its whole code byte.
#[derive(Debug, Clone)]
struct WideSlot {
    fragments: FragVec,
    lpn: u64,
    sequence: u64,
    kind: u8,
}

impl WideSlot {
    /// The slot staged with `unit` and `oob`.
    fn staged(unit: Option<&UnitPayload>, oob: Option<&OobEntry>) -> Self {
        WideSlot {
            fragments: unit.map(|u| u.fragments.clone()).unwrap_or_default(),
            lpn: oob.map_or(0, |o| o.lpn),
            sequence: oob.map_or(0, |o| o.sequence),
            kind: oob.map_or(0, |o| integrity::oob_kind_code(o.kind)),
        }
    }

    /// The checksum of the unit, over its fragment count.
    fn unit_checksum(&self) -> u32 {
        let count = u32::try_from(self.fragments.len()).unwrap_or(u32::MAX);
        integrity::fragments_checksum(count, self.fragments.iter().copied())
    }

    fn oob(&self) -> OobEntry {
        OobEntry {
            lpn: self.lpn,
            sequence: self.sequence,
            kind: integrity::oob_kind_from_code(self.kind),
        }
    }

    fn oob_checksum(&self) -> u32 {
        integrity::oob_record_checksum(self.lpn, self.sequence, self.kind)
    }
}

/// One logged slot: the checksums of what was programmed into it, its
/// programmed OOB lpn, and its content now, at full width. `record`
/// indexes the block's record arena.
#[derive(Debug, Clone)]
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
    /// What every reader takes, and every injector changes.
    now: WideSlot,
}

impl Seal {
    /// The entry of slot `record` of block `block` while it still holds
    /// what was programmed, `now`: its seals are `now`'s checksums, over
    /// the unit when the slot holds one (`unit`) and over the OOB record
    /// when it holds one (`oob`).
    fn new(block: u32, record: u32, unit: bool, oob: bool, now: WideSlot) -> Self {
        Seal {
            block,
            record,
            unit_seal: if unit { now.unit_checksum() } else { 0 },
            oob_seal: if oob { now.oob_checksum() } else { 0 },
            lpn: now.lpn,
            now,
        }
    }

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

/// The device's logged slots, sorted by `(block, record)`, one entry per
/// slot that landed too wide for its record or that an injector changed
/// since its block's last erase. Empty on a device no injector touched
/// whose values all fit.
#[derive(Debug, Default)]
pub(crate) struct SealLog {
    seals: Vec<Seal>,
}

impl SealLog {
    /// Slots the log names.
    pub(crate) fn len(&self) -> usize {
        self.seals.len()
    }

    /// Heap bytes the log holds (capacity, not length), the fragment
    /// lists its entries spilled to the heap included.
    pub(crate) fn capacity_bytes(&self) -> usize {
        let spilled: usize = self
            .seals
            .iter()
            .map(|s| s.now.fragments.heap_bytes())
            .sum();
        self.seals.capacity() * size_of::<Seal>() + spilled
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

    /// Keeps `seal` unless its slot already has one.
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

/// One logged slot as an injector's change sees it.
struct SlotMut<'a> {
    /// The slot is a mapping-unit slot of its page (`< units`).
    unit: bool,
    /// The slot holds an OOB record (`< oobs`).
    oob: bool,
    /// A mapping unit is staged in the slot.
    occupied: bool,
    now: &'a mut WideSlot,
}

/// The fault injectors' hold on one block: every change to a stored bit
/// goes through here, and goes to the changed slot's log entry.
pub(crate) struct Injector<'a> {
    pub(crate) block: u32,
    pub(crate) store: &'a BlockStore,
    pub(crate) seals: &'a mut SealLog,
}

impl Injector<'_> {
    /// Applies `change` to slot `slot` of page `page`; `change` returns
    /// false when the slot stores nothing it would change, and must then
    /// change nothing. A slot not yet logged is logged first — its
    /// checksums, still those of what was programmed, and its content
    /// widened from its record — and kept only when `change` changed it.
    /// False when the page is not programmed or not that wide.
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
        let Some(records) = self.store.records.get(first..first + header.slots()) else {
            return false;
        };
        let (Some(record), Some(index)) = (records.get(slot), index32(first + slot)) else {
            return false;
        };
        let (unit, oob, occupied) = (
            slot < usize::from(header.units),
            slot < usize::from(header.oobs),
            record.occupied(),
        );
        let change = |now: &mut WideSlot| {
            change(SlotMut {
                unit,
                oob,
                occupied,
                now,
            })
        };
        let log = &mut self.seals.seals;
        match log.binary_search_by_key(&(self.block, index), Seal::at) {
            Ok(i) => log.get_mut(i).is_some_and(|seal| change(&mut seal.now)),
            Err(i) => {
                let range = extras_range(records, slot);
                let base = header.extra as usize;
                let extras = (self.store.extra)
                    .get(base + range.start..base + range.end)
                    .unwrap_or_default();
                let now = record.widen(extras);
                let mut seal = Seal::new(self.block, index, unit && occupied, oob, now);
                let changed = change(&mut seal.now);
                if changed {
                    log.insert(i, seal);
                }
                changed
            }
        }
    }

    /// The corruption injectors' data primitive: XORs the key and version
    /// of every fragment of unit `i` with the nonzero `mask`, so it no
    /// longer matches its seal. Returns false when there is no such
    /// occupied unit.
    pub(crate) fn flip_unit_bits(&mut self, page: usize, i: usize, mask: u64) -> bool {
        self.change_slot(page, i, |slot| {
            if !slot.unit || !slot.occupied {
                return false;
            }
            for f in slot.now.fragments.iter_mut() {
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
            slot.now.lpn ^= mask;
            slot.now.sequence ^= mask.rotate_left(17);
            true
        })
    }

    /// Flips bit `bit` (modulo the field's width) of one field of slot
    /// `slot`, at its full width. Returns false when the slot holds no
    /// such field.
    pub(crate) fn flip_stored_bit(
        &mut self,
        page: usize,
        slot: usize,
        field: StoredField,
        bit: u32,
    ) -> bool {
        let (wide, narrow) = (1u64 << (bit % 64), 1u32 << (bit % 32));
        self.change_slot(page, slot, |slot| {
            let now = slot.now;
            let fragment = match field {
                StoredField::Key(f) | StoredField::Version(f) | StoredField::Bytes(f) => f,
                _ if !slot.oob => return false,
                StoredField::Lpn => {
                    now.lpn ^= wide;
                    return true;
                }
                StoredField::Sequence => {
                    now.sequence ^= wide;
                    return true;
                }
                StoredField::Kind => {
                    now.kind ^= 1 << (bit % 8);
                    return true;
                }
            };
            if !slot.unit || !slot.occupied {
                return false;
            }
            let Some(f) = now.fragments.get_mut(fragment) else {
                return false;
            };
            match field {
                StoredField::Key(_) => f.key ^= wide,
                StoredField::Version(_) => f.version ^= wide,
                _ => f.bytes ^= narrow,
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
    extra: &'a [StoredFragment],
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
            .filter(|r| r.occupied())
    }

    fn oob_record(&self, i: usize) -> Option<&'a UnitRecord> {
        self.records.get(..self.oobs)?.get(i)
    }

    /// The extra fragments of unit `i` in the block's arena.
    #[inline]
    fn extras(&self, i: usize) -> &'a [StoredFragment] {
        let range = extras_range(self.records, i);
        if range.is_empty() {
            return &[];
        }
        self.extra.get(range).unwrap_or(&[])
    }

    /// The log's entry for slot `i`, if the slot is logged.
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
        let record = self.unit_record(i)?;
        Some(match self.seal(i) {
            Some(s) => UnitRef::wide(&s.now.fragments),
            None => record.unit(self.extras(i)),
        })
    }

    /// Number of occupied units.
    pub fn occupied_units(&self) -> usize {
        (0..self.units)
            .filter(|&i| self.unit_record(i).is_some())
            .count()
    }

    /// OOB record `i`.
    pub fn oob(&self, i: usize) -> Option<OobEntry> {
        let record = self.oob_record(i)?;
        Some(self.seal(i).map_or_else(|| record.oob(), |s| s.now.oob()))
    }

    /// The OOB records in index order.
    pub fn oobs(&self) -> impl Iterator<Item = OobEntry> + 'a {
        let view = *self;
        (0..self.oobs).filter_map(move |i| view.oob(i))
    }

    /// The checksum of unit `i` as programmed: the log's for a logged
    /// slot, else that of the stored unit, which nothing changes.
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

    /// Verifies unit `i` against its seal: a slot the log does not name
    /// holds what was programmed, and a logged one must checksum as
    /// programmed. Padded slots verify trivially (there is nothing to
    /// protect).
    pub fn unit_intact(&self, i: usize) -> bool {
        self.unit_record(i).is_none_or(|_| {
            self.seal(i)
                .is_none_or(|s| s.now.unit_checksum() == s.unit_seal)
        })
    }

    /// Verifies OOB record `i` against its seal (trivially true when
    /// absent).
    pub fn oob_intact(&self, i: usize) -> bool {
        self.oob_record(i).is_none_or(|_| {
            self.seal(i)
                .is_none_or(|s| s.now.oob_checksum() == s.oob_seal)
        })
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
    fn a_unit_record_is_24_bytes() {
        assert_eq!(size_of::<UnitRecord>(), 24);
        assert_eq!(size_of::<StoredFragment>(), 12);
        assert_eq!(size_of::<PageHeader>(), 12);
        assert_eq!(size_of::<Seal>(), 104);
    }
}
