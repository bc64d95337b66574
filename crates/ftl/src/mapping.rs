//! The flash mapping table: forward map plus reverse referrer tracking.
//!
//! The distinctive requirement of Check-In is that **several logical units
//! may reference one physical unit** (after a checkpoint remap, the journal
//! LPN and the data LPN alias the same flash copy). The table therefore
//! keeps, for every occupied location, the list of logical units referring
//! to it; a physical unit is *valid* while at least one referrer remains.
//!
//! Both directions are stored as flat `Vec`s indexed by the dense integer
//! key (LPN on the forward side, PUN / buffer-slot id on the reverse side),
//! exactly like the page-mapped L2P array of the paper's FTL (§II): the
//! address spaces are dense and bounded, so an array lookup replaces
//! hashing on the hottest path in the simulator. Tables grow lazily as
//! high addresses are touched, so small configurations stay small.
//!
//! Both arrays are sized by the device, so each entry is one word: a
//! forward entry is a 4-byte packed location and a reverse slot is one
//! 8-byte [`Lpn`] word — no referrer, the single referrer itself, or the
//! tag of a list in a side arena (only checkpoint aliases have two).

use crate::location::{BufSlot, Location, Lpn, Pun};

/// A forward-array entry: a location packed by [`pack`].
type ForwardWord = u32;

/// Sentinel in the forward array for "not mapped".
const UNMAPPED: ForwardWord = ForwardWord::MAX;

/// LPNs below this bound live in the dense forward array; anything higher
/// (the SSD's device-metadata LPN region sits near `u64::MAX / 2`) goes to
/// a small sorted overflow vector.
const DENSE_LPN_LIMIT: u64 = 1 << 26;

/// Reverse slot word for "no referrer".
const NO_REFERRER: Lpn = Lpn(u64::MAX);

/// Reverse slot words from here up to [`NO_REFERRER`] (excluded) name a
/// referrer list: `LIST_TAG + list id`. The tags take the top 2^32 values
/// of the `u64` range, far above the device-metadata LPNs at
/// `u64::MAX / 2 + k` (a bit-63 tag would read those as lists); an LPN in
/// the tag range is refused by [`MappingTable::map`].
const LIST_TAG: u64 = u64::MAX - (1 << 32);

/// Packs a location into a forward word: `pun << 1` for flash, `slot << 1
/// | 1` for the buffer. `None` for an id at or past
/// [`MappingTable::MAX_UNITS`] (and the one buffer slot whose code would
/// be [`UNMAPPED`]): the table refuses such a location.
fn pack(loc: Location) -> Option<ForwardWord> {
    let code = match loc {
        Location::Flash(pun) => pun.0.checked_mul(2)?,
        Location::Buffer(slot) => slot.0.checked_mul(2)?.checked_add(1)?,
    };
    ForwardWord::try_from(code).ok().filter(|&w| w != UNMAPPED)
}

fn unpack(word: ForwardWord) -> Location {
    let id = u64::from(word >> 1);
    if word & 1 == 0 {
        Location::Flash(Pun(id))
    } else {
        Location::Buffer(BufSlot(id))
    }
}

/// What a reverse slot word holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Refs {
    Empty,
    One(Lpn),
    List(u32),
}

fn decode(word: Lpn) -> Refs {
    if word == NO_REFERRER {
        return Refs::Empty;
    }
    match word.0.checked_sub(LIST_TAG).map(u32::try_from) {
        Some(Ok(id)) => Refs::List(id),
        _ => Refs::One(word),
    }
}

fn list_word(id: u32) -> Lpn {
    Lpn(LIST_TAG + u64::from(id))
}

fn list_index(id: u32) -> usize {
    usize::try_from(id).unwrap_or(usize::MAX)
}

/// Result of removing a referrer from a location.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Unlink {
    /// The location still has other referrers (remains valid).
    StillReferenced(Location),
    /// The location lost its last referrer (became invalid).
    Orphaned(Location),
    /// The logical unit was not mapped.
    NotMapped,
}

/// The forward direction: LPN-indexed packed locations.
#[derive(Debug, Clone, Default)]
struct Forward {
    /// Words for LPNs below [`DENSE_LPN_LIMIT`]; `UNMAPPED` marks holes.
    /// Grows lazily to the highest LPN touched.
    dense: Vec<ForwardWord>,
    /// Sparse LPNs at or above [`DENSE_LPN_LIMIT`], sorted by LPN.
    overflow: Vec<(u64, ForwardWord)>,
}

impl Forward {
    fn get(&self, lpn: Lpn) -> ForwardWord {
        if lpn.0 < DENSE_LPN_LIMIT {
            self.dense.get(lpn.index()).copied().unwrap_or(UNMAPPED)
        } else {
            self.overflow
                .binary_search_by_key(&lpn.0, |&(l, _)| l)
                .ok()
                .and_then(|pos| self.overflow.get(pos))
                .map_or(UNMAPPED, |&(_, word)| word)
        }
    }

    fn set(&mut self, lpn: Lpn, word: ForwardWord) {
        debug_assert_ne!(word, UNMAPPED);
        if lpn.0 < DENSE_LPN_LIMIT {
            let idx = lpn.index();
            if let Some(len) = idx.checked_add(1).filter(|&len| len > self.dense.len()) {
                self.dense.resize(len, UNMAPPED);
            }
            if let Some(slot) = self.dense.get_mut(idx) {
                *slot = word;
            }
        } else {
            match self.overflow.binary_search_by_key(&lpn.0, |&(l, _)| l) {
                Ok(pos) => {
                    if let Some(entry) = self.overflow.get_mut(pos) {
                        entry.1 = word;
                    }
                }
                Err(pos) => self.overflow.insert(pos, (lpn.0, word)),
            }
        }
    }

    fn clear(&mut self, lpn: Lpn) {
        if lpn.0 < DENSE_LPN_LIMIT {
            if let Some(word) = self.dense.get_mut(lpn.index()) {
                *word = UNMAPPED;
            }
        } else if let Ok(pos) = self.overflow.binary_search_by_key(&lpn.0, |&(l, _)| l) {
            self.overflow.remove(pos);
        }
    }
}

/// Forward (LPN → location) and reverse (location → LPNs) mapping,
/// stored as dense flat arrays.
///
/// # Examples
///
/// ```
/// use checkin_ftl::{MappingTable, Location, Lpn, Pun};
///
/// let mut t = MappingTable::new();
/// t.map(Lpn(1), Location::Flash(Pun(100)));
/// t.alias(Lpn(2), Lpn(1)).unwrap(); // lpn 2 shares lpn 1's copy
/// assert_eq!(t.lookup(Lpn(2)), Some(Location::Flash(Pun(100))));
/// assert_eq!(t.referrers(Location::Flash(Pun(100))).len(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct MappingTable {
    forward: Forward,
    /// PUN-indexed reverse slot words.
    flash_refs: Vec<Lpn>,
    /// Buffer-slot-indexed reverse slot words.
    buf_refs: Vec<Lpn>,
    /// Referrer lists of the locations with two or more referrers, named
    /// by a slot's list tag; a freed list keeps its capacity for the next.
    lists: Vec<Vec<Lpn>>,
    /// Ids of the lists no slot names, reused before the arena grows.
    free_lists: Vec<u32>,
    /// Count of mapped LPNs.
    live: usize,
    /// Count of non-empty referrer slots across both reverse arrays.
    occupied: usize,
}

impl MappingTable {
    /// The unit count a forward word can address: flash units and buffer
    /// slots must have ids below it. A device with more mapping units is
    /// refused by [`crate::FtlConfig::validate`].
    pub const MAX_UNITS: u64 = 1 << 31;

    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty table with the forward array and the flash
    /// reverse array pre-reserved for `unit_hint` units. The FTL passes
    /// the device's physical unit count: the host LPN space tracks it,
    /// and it bounds the PUN-indexed reverse array exactly. Reserved
    /// address space costs nothing until it is written, and neither
    /// array is ever regrown — a regrowth copies the whole array and
    /// leaves the old one behind as heap the size of the table.
    pub fn with_capacity(unit_hint: u64) -> Self {
        let unit_hint = Pun(unit_hint).index();
        let mut t = Self::default();
        t.forward.dense.reserve(unit_hint);
        t.flash_refs.reserve(unit_hint);
        t
    }

    /// Heap bytes the table holds: the capacity of its arrays and of
    /// every referrer list, reserved address space included.
    pub fn heap_bytes(&self) -> u64 {
        let bytes = self.forward.dense.capacity() * size_of::<ForwardWord>()
            + self.forward.overflow.capacity() * size_of::<(u64, ForwardWord)>()
            + (self.flash_refs.capacity() + self.buf_refs.capacity()) * size_of::<Lpn>()
            + self.lists.capacity() * size_of::<Vec<Lpn>>()
            + self
                .lists
                .iter()
                .map(|l| l.capacity() * size_of::<Lpn>())
                .sum::<usize>()
            + self.free_lists.capacity() * size_of::<u32>();
        u64::try_from(bytes).unwrap_or(u64::MAX)
    }

    fn ref_slot(&self, loc: Location) -> Option<&Lpn> {
        match loc {
            Location::Flash(pun) => self.flash_refs.get(pun.index()),
            Location::Buffer(slot) => self.buf_refs.get(slot.index()),
        }
    }

    /// The reverse slot word of `loc`; [`NO_REFERRER`] past the array.
    fn ref_word(&self, loc: Location) -> Lpn {
        self.ref_slot(loc).copied().unwrap_or(NO_REFERRER)
    }

    /// The reverse slot word of `loc`, growing the reverse array to hold
    /// it. `None` for an address `usize` cannot index (`index()` reports
    /// it as `usize::MAX`): no array is that long, so the table refuses it.
    fn ref_word_mut(&mut self, loc: Location) -> Option<&mut Lpn> {
        let (vec, idx) = match loc {
            Location::Flash(pun) => (&mut self.flash_refs, pun.index()),
            Location::Buffer(slot) => (&mut self.buf_refs, slot.index()),
        };
        if idx >= vec.len() {
            vec.resize(idx.checked_add(1)?, NO_REFERRER);
        }
        vec.get_mut(idx)
    }

    /// Stores `word` as `loc`'s reverse slot and keeps `occupied` in step
    /// with the slot's change from or to [`NO_REFERRER`].
    fn set_ref_word(&mut self, loc: Location, word: Lpn) {
        let Some(slot) = self.ref_word_mut(loc) else {
            return;
        };
        let was = std::mem::replace(slot, word);
        match (was == NO_REFERRER, word == NO_REFERRER) {
            (true, false) => self.occupied += 1,
            (false, true) => self.occupied -= 1,
            _ => {}
        }
    }

    fn list(&self, id: u32) -> &[Lpn] {
        self.lists.get(list_index(id)).map_or(&[], Vec::as_slice)
    }

    /// A list holding `lpns`, from the free list if one is there; the
    /// returned word names it.
    fn new_list(&mut self, lpns: &[Lpn]) -> Lpn {
        let id = match self.free_lists.pop() {
            Some(id) => id,
            None => {
                self.lists.push(Vec::new());
                // A list in use is named by one reverse slot, and a forward
                // word reaches fewer than 2^32 slots (flash and buffer ids
                // below `MAX_UNITS`).
                #[expect(
                    clippy::cast_possible_truncation,
                    reason = "fewer than 2^32 lists: one per reachable reverse slot at most"
                )]
                let id = (self.lists.len() - 1) as u32;
                id
            }
        };
        if let Some(list) = self.lists.get_mut(list_index(id)) {
            list.extend_from_slice(lpns);
        }
        list_word(id)
    }

    /// Empties list `id` (keeping its capacity) and returns it to the
    /// free list.
    fn free_list(&mut self, id: u32) {
        if let Some(list) = self.lists.get_mut(list_index(id)) {
            list.clear();
            self.free_lists.push(id);
        }
    }

    /// The slot word `word` with `lpn` appended to its referrers.
    fn push_ref(&mut self, word: Lpn, lpn: Lpn) -> Lpn {
        match decode(word) {
            Refs::Empty => lpn,
            Refs::One(first) => self.new_list(&[first, lpn]),
            Refs::List(id) => {
                if let Some(list) = self.lists.get_mut(list_index(id)) {
                    list.push(lpn);
                }
                word
            }
        }
    }

    /// The slot word `word` without `lpn`; a list left with one referrer
    /// collapses back to the inline word.
    fn remove_ref(&mut self, word: Lpn, lpn: Lpn) -> Lpn {
        match decode(word) {
            Refs::Empty => word,
            Refs::One(only) if only == lpn => NO_REFERRER,
            Refs::One(_) => word,
            Refs::List(id) => {
                let Some(list) = self.lists.get_mut(list_index(id)) else {
                    return word;
                };
                list.retain(|&l| l != lpn);
                let left = match *list.as_slice() {
                    [] => NO_REFERRER,
                    [only] => only,
                    _ => return word,
                };
                self.free_list(id);
                left
            }
        }
    }

    /// The slot word holding `into`'s referrers followed by `moved`'s.
    fn merge(&mut self, into: Lpn, moved: Lpn) -> Lpn {
        match (decode(into), decode(moved)) {
            (Refs::Empty, _) => moved,
            (_, Refs::Empty) => into,
            (Refs::One(first), Refs::One(second)) => self.new_list(&[first, second]),
            (Refs::One(first), Refs::List(id)) => {
                if let Some(list) = self.lists.get_mut(list_index(id)) {
                    list.insert(0, first);
                }
                moved
            }
            (Refs::List(_), Refs::One(last)) => self.push_ref(into, last),
            (Refs::List(into_id), Refs::List(moved_id)) => {
                let taken = self
                    .lists
                    .get_mut(list_index(moved_id))
                    .map(std::mem::take)
                    .unwrap_or_default();
                if let Some(list) = self.lists.get_mut(list_index(into_id)) {
                    list.extend_from_slice(&taken);
                }
                // Put the allocation back so the freed list keeps it.
                if let Some(list) = self.lists.get_mut(list_index(moved_id)) {
                    *list = taken;
                }
                self.free_list(moved_id);
                into
            }
        }
    }

    /// Current location of a logical unit.
    pub fn lookup(&self, lpn: Lpn) -> Option<Location> {
        let word = self.forward.get(lpn);
        if word == UNMAPPED {
            None
        } else {
            Some(unpack(word))
        }
    }

    /// Logical units referencing `loc` (empty slice when unoccupied).
    pub fn referrers(&self, loc: Location) -> &[Lpn] {
        let Some(word) = self.ref_slot(loc) else {
            return &[];
        };
        match decode(*word) {
            Refs::Empty => &[],
            Refs::One(_) => std::slice::from_ref(word),
            Refs::List(id) => self.list(id),
        }
    }

    /// Number of live forward entries (drives the map-cache model).
    pub fn live_entries(&self) -> usize {
        self.live
    }

    /// Number of occupied physical/buffer locations.
    pub fn occupied_locations(&self) -> usize {
        self.occupied
    }

    /// Points `lpn` at `loc`, unlinking any previous mapping. Returns the
    /// outcome for the *previous* location so the caller can update block
    /// validity counters. A `loc` the table cannot index or pack is
    /// refused and leaves `lpn` unmapped; an `lpn` at or above
    /// `u64::MAX - 2^32` (the list tags) is refused outright.
    pub fn map(&mut self, lpn: Lpn, loc: Location) -> Unlink {
        let prev = self.unmap(lpn);
        let Some(packed) = pack(loc).filter(|_| lpn.0 < LIST_TAG) else {
            return prev;
        };
        let Some(&mut word) = self.ref_word_mut(loc) else {
            return prev;
        };
        let word = self.push_ref(word, lpn);
        self.set_ref_word(loc, word);
        self.forward.set(lpn, packed);
        self.live += 1;
        prev
    }

    /// Removes `lpn`'s mapping entirely (trim). Returns what happened to
    /// the location it referenced.
    pub fn unmap(&mut self, lpn: Lpn) -> Unlink {
        let word = self.forward.get(lpn);
        if word == UNMAPPED {
            return Unlink::NotMapped;
        }
        self.forward.clear(lpn);
        self.live -= 1;
        let loc = unpack(word);
        let slot = self.remove_ref(self.ref_word(loc), lpn);
        self.set_ref_word(loc, slot);
        if slot == NO_REFERRER {
            Unlink::Orphaned(loc)
        } else {
            Unlink::StillReferenced(loc)
        }
    }

    /// Makes `dst` reference the same location as `src` (the remap /
    /// copy-on-write primitive). Returns the outcome for `dst`'s previous
    /// location.
    ///
    /// # Errors
    ///
    /// Returns `Err(src)` when `src` is unmapped.
    pub fn alias(&mut self, dst: Lpn, src: Lpn) -> Result<Unlink, Lpn> {
        let loc = self.lookup(src).ok_or(src)?;
        if self.lookup(dst) == Some(loc) {
            // dst already aliases src: nothing changes.
            return Ok(Unlink::StillReferenced(loc));
        }
        Ok(self.map(dst, loc))
    }

    /// Re-homes every referrer of `from` onto `to` (used when the write
    /// buffer drains to flash, and when GC migrates a unit). Returns how
    /// many referrers moved: none when either end is an address the table
    /// cannot index.
    pub fn relocate(&mut self, from: Location, to: Location) -> usize {
        // `to` is grown before `from` is emptied, so a refusal moves nothing.
        let Some(packed_to) = pack(to) else {
            return 0;
        };
        if self.referrers(from).is_empty() || self.ref_word_mut(to).is_none() {
            return 0;
        }
        let moved = self.ref_word(from);
        self.set_ref_word(from, NO_REFERRER);
        let lpns = match decode(moved) {
            Refs::List(id) => self
                .lists
                .get(list_index(id))
                .map_or(&[][..], Vec::as_slice),
            _ => std::slice::from_ref(&moved),
        };
        for &lpn in lpns {
            self.forward.set(lpn, packed_to);
        }
        let n = lpns.len();
        let word = self.merge(self.ref_word(to), moved);
        self.set_ref_word(to, word);
        n
    }

    /// Iterates all forward entries in ascending LPN order (diagnostics /
    /// recovery; the deterministic order keeps checkpoint processing and
    /// report output reproducible).
    pub fn iter(&self) -> impl Iterator<Item = (Lpn, Location)> + '_ {
        self.forward
            .dense
            .iter()
            .enumerate()
            .filter_map(|(idx, &word)| {
                if word == UNMAPPED {
                    None
                } else {
                    Some((Lpn(idx as u64), unpack(word)))
                }
            })
            .chain(
                self.forward
                    .overflow
                    .iter()
                    .map(|&(lpn, word)| (Lpn(lpn), unpack(word))),
            )
    }

    /// Verifies forward/reverse symmetry, counter accounting and the list
    /// arena (every list slot names a list of two or more that no other
    /// slot names and that is not on the free list; every other list is
    /// free and empty); returns a description of the first inconsistency
    /// found. Used by tests and debug assertions.
    pub fn check_consistency(&self) -> Result<(), String> {
        let mut live = 0usize;
        for (lpn, loc) in self.iter() {
            live += 1;
            if !self.referrers(loc).contains(&lpn) {
                return Err(format!("{lpn} maps to {loc} but is not a referrer"));
            }
        }
        if live != self.live {
            return Err(format!(
                "live counter {} but {live} forward entries",
                self.live
            ));
        }
        #[derive(Clone, Copy, PartialEq)]
        enum Seen {
            No,
            InUse,
            Free,
        }
        let mut seen = vec![Seen::No; self.lists.len()];
        for &id in &self.free_lists {
            match seen.get_mut(list_index(id)) {
                Some(s @ Seen::No) => *s = Seen::Free,
                Some(_) => return Err(format!("list {id} is on the free list twice")),
                None => return Err(format!("free list names list {id} past the arena")),
            }
            if !self.list(id).is_empty() {
                return Err(format!("free list {id} still holds referrers"));
            }
        }
        let mut occupied = 0usize;
        let sides = [(&self.flash_refs, true), (&self.buf_refs, false)];
        for (vec, is_flash) in sides {
            for (idx, &word) in vec.iter().enumerate() {
                let loc = if is_flash {
                    Location::Flash(Pun(idx as u64))
                } else {
                    Location::Buffer(BufSlot(idx as u64))
                };
                match decode(word) {
                    Refs::Empty => continue,
                    Refs::One(_) => {}
                    Refs::List(id) => {
                        match seen.get_mut(list_index(id)) {
                            Some(s @ Seen::No) => *s = Seen::InUse,
                            Some(Seen::InUse) => {
                                return Err(format!("{loc} names list {id}, already in use"))
                            }
                            Some(Seen::Free) => {
                                return Err(format!("{loc} names list {id}, which is free"))
                            }
                            None => return Err(format!("{loc} names list {id} past the arena")),
                        }
                        if self.list(id).len() < 2 {
                            return Err(format!("{loc} names list {id} of fewer than two"));
                        }
                    }
                }
                occupied += 1;
                for &lpn in self.referrers(loc) {
                    if self.lookup(lpn) != Some(loc) {
                        return Err(format!("{loc} lists {lpn} but forward disagrees"));
                    }
                }
            }
        }
        if let Some(id) = seen.iter().position(|&s| s == Seen::No) {
            return Err(format!("list {id} is neither named nor free"));
        }
        if occupied != self.occupied {
            return Err(format!(
                "occupied counter {} but {occupied} non-empty slots",
                self.occupied
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::location::{BufSlot, Pun};

    #[test]
    fn map_and_lookup() {
        let mut t = MappingTable::new();
        assert_eq!(t.map(Lpn(1), Location::Flash(Pun(5))), Unlink::NotMapped);
        assert_eq!(t.lookup(Lpn(1)), Some(Location::Flash(Pun(5))));
        assert_eq!(t.live_entries(), 1);
        t.check_consistency().unwrap();
    }

    #[test]
    fn remap_orphans_old_location() {
        let mut t = MappingTable::new();
        t.map(Lpn(1), Location::Flash(Pun(5)));
        let prev = t.map(Lpn(1), Location::Flash(Pun(9)));
        assert_eq!(prev, Unlink::Orphaned(Location::Flash(Pun(5))));
        assert!(t.referrers(Location::Flash(Pun(5))).is_empty());
        t.check_consistency().unwrap();
    }

    #[test]
    fn alias_shares_location() {
        let mut t = MappingTable::new();
        t.map(Lpn(1), Location::Flash(Pun(5)));
        t.alias(Lpn(2), Lpn(1)).unwrap();
        assert_eq!(t.referrers(Location::Flash(Pun(5))).len(), 2);
        // Unmapping one leaves the location referenced.
        assert_eq!(
            t.unmap(Lpn(1)),
            Unlink::StillReferenced(Location::Flash(Pun(5)))
        );
        assert_eq!(t.unmap(Lpn(2)), Unlink::Orphaned(Location::Flash(Pun(5))));
        t.check_consistency().unwrap();
    }

    #[test]
    fn alias_unmapped_source_fails() {
        let mut t = MappingTable::new();
        assert_eq!(t.alias(Lpn(2), Lpn(1)), Err(Lpn(1)));
    }

    #[test]
    fn alias_is_idempotent() {
        let mut t = MappingTable::new();
        t.map(Lpn(1), Location::Flash(Pun(5)));
        t.alias(Lpn(2), Lpn(1)).unwrap();
        t.alias(Lpn(2), Lpn(1)).unwrap();
        assert_eq!(t.referrers(Location::Flash(Pun(5))).len(), 2);
        t.check_consistency().unwrap();
    }

    #[test]
    fn relocate_moves_all_referrers() {
        let mut t = MappingTable::new();
        t.map(Lpn(1), Location::Buffer(BufSlot(0)));
        t.alias(Lpn(2), Lpn(1)).unwrap();
        let moved = t.relocate(Location::Buffer(BufSlot(0)), Location::Flash(Pun(7)));
        assert_eq!(moved, 2);
        assert_eq!(t.lookup(Lpn(1)), Some(Location::Flash(Pun(7))));
        assert_eq!(t.lookup(Lpn(2)), Some(Location::Flash(Pun(7))));
        t.check_consistency().unwrap();
    }

    #[test]
    fn relocate_unoccupied_is_noop() {
        let mut t = MappingTable::new();
        assert_eq!(
            t.relocate(Location::Flash(Pun(1)), Location::Flash(Pun(2))),
            0
        );
    }

    #[test]
    fn relocate_merges_into_occupied_target() {
        let mut t = MappingTable::new();
        t.map(Lpn(1), Location::Flash(Pun(3)));
        t.map(Lpn(2), Location::Flash(Pun(4)));
        let moved = t.relocate(Location::Flash(Pun(3)), Location::Flash(Pun(4)));
        assert_eq!(moved, 1);
        assert_eq!(t.referrers(Location::Flash(Pun(4))).len(), 2);
        assert_eq!(t.occupied_locations(), 1);
        t.check_consistency().unwrap();
    }

    #[test]
    fn unmap_missing_is_not_mapped() {
        let mut t = MappingTable::new();
        assert_eq!(t.unmap(Lpn(42)), Unlink::NotMapped);
    }

    #[test]
    fn occupied_locations_counts_distinct() {
        let mut t = MappingTable::new();
        t.map(Lpn(1), Location::Flash(Pun(5)));
        t.alias(Lpn(2), Lpn(1)).unwrap();
        t.map(Lpn(3), Location::Flash(Pun(6)));
        assert_eq!(t.occupied_locations(), 2);
        assert_eq!(t.live_entries(), 3);
    }

    #[test]
    fn iter_is_ascending_by_lpn() {
        let mut t = MappingTable::new();
        t.map(Lpn(9), Location::Flash(Pun(1)));
        t.map(Lpn(2), Location::Flash(Pun(2)));
        t.map(Lpn(5), Location::Buffer(BufSlot(0)));
        let lpns: Vec<u64> = t.iter().map(|(l, _)| l.0).collect();
        assert_eq!(lpns, vec![2, 5, 9]);
    }

    #[test]
    fn sparse_meta_lpns_use_overflow() {
        // The SSD maps device-metadata units near u64::MAX / 2; those LPNs
        // must not blow up the dense array.
        let mut t = MappingTable::new();
        let meta = Lpn(u64::MAX / 2 + 3);
        t.map(Lpn(1), Location::Flash(Pun(5)));
        t.map(meta, Location::Flash(Pun(6)));
        assert_eq!(t.lookup(meta), Some(Location::Flash(Pun(6))));
        assert_eq!(t.live_entries(), 2);
        let lpns: Vec<u64> = t.iter().map(|(l, _)| l.0).collect();
        assert_eq!(lpns, vec![1, meta.0]);
        assert_eq!(t.unmap(meta), Unlink::Orphaned(Location::Flash(Pun(6))));
        t.check_consistency().unwrap();
    }

    #[test]
    fn an_address_past_the_index_space_is_refused() {
        let past = Location::Flash(Pun(u64::MAX));
        let held = Location::Flash(Pun(5));
        let mut t = MappingTable::new();
        t.map(Lpn(1), held);
        assert_eq!(t.relocate(held, past), 0);
        assert_eq!(t.relocate(past, held), 0);
        assert_eq!(t.lookup(Lpn(1)), Some(held));
        assert_eq!(t.map(Lpn(1), past), Unlink::Orphaned(held));
        assert_eq!(t.lookup(Lpn(1)), None);
        assert_eq!(t.live_entries(), 0);
        t.check_consistency().unwrap();
    }

    #[test]
    fn flash_and_buffer_addresses_do_not_collide() {
        let mut t = MappingTable::new();
        t.map(Lpn(1), Location::Flash(Pun(7)));
        t.map(Lpn(2), Location::Buffer(BufSlot(7)));
        assert_eq!(t.lookup(Lpn(1)), Some(Location::Flash(Pun(7))));
        assert_eq!(t.lookup(Lpn(2)), Some(Location::Buffer(BufSlot(7))));
        assert_eq!(t.referrers(Location::Flash(Pun(7))), &[Lpn(1)]);
        assert_eq!(t.referrers(Location::Buffer(BufSlot(7))), &[Lpn(2)]);
        t.check_consistency().unwrap();
    }

    #[test]
    fn words_are_four_bytes_forward_and_eight_reverse() {
        assert_eq!(std::mem::size_of::<ForwardWord>(), 4);
        assert_eq!(std::mem::size_of::<Lpn>(), 8);
    }

    #[test]
    fn the_forward_word_packs_ids_below_the_limit() {
        let last = MappingTable::MAX_UNITS - 1;
        for loc in [
            Location::Flash(Pun(0)),
            Location::Flash(Pun(last)),
            Location::Buffer(BufSlot(0)),
            Location::Buffer(BufSlot(last - 1)),
        ] {
            assert_eq!(pack(loc).map(unpack), Some(loc));
        }
        // The last buffer slot would pack to `UNMAPPED`.
        assert_eq!(pack(Location::Buffer(BufSlot(last))), None);
        assert_eq!(pack(Location::Flash(Pun(last + 1))), None);
        let mut t = MappingTable::new();
        t.map(Lpn(1), Location::Flash(Pun(last + 1)));
        assert_eq!(t.lookup(Lpn(1)), None);
        t.check_consistency().unwrap();
    }

    #[test]
    fn an_lpn_among_the_list_tags_is_refused() {
        let mut t = MappingTable::new();
        for lpn in [Lpn(LIST_TAG), Lpn(u64::MAX - 1), NO_REFERRER] {
            assert_eq!(t.map(lpn, Location::Flash(Pun(5))), Unlink::NotMapped);
            assert_eq!(t.lookup(lpn), None);
        }
        assert_eq!(t.live_entries(), 0);
        let below = Lpn(LIST_TAG - 1);
        t.map(below, Location::Flash(Pun(5)));
        assert_eq!(t.referrers(Location::Flash(Pun(5))), &[below]);
        t.check_consistency().unwrap();
    }

    #[test]
    fn a_freed_list_is_reused() {
        let mut t = MappingTable::new();
        t.map(Lpn(1), Location::Flash(Pun(5)));
        t.map(Lpn(2), Location::Flash(Pun(6)));
        t.alias(Lpn(3), Lpn(1)).unwrap();
        t.unmap(Lpn(3));
        assert_eq!(t.free_lists, [0]);
        t.alias(Lpn(4), Lpn(2)).unwrap();
        assert_eq!((t.lists.len(), t.free_lists.len()), (1, 0));
        assert_eq!(t.referrers(Location::Flash(Pun(6))), &[Lpn(2), Lpn(4)]);
        t.check_consistency().unwrap();
    }

    #[test]
    fn check_consistency_sees_a_broken_arena() {
        let shared = || {
            let mut t = MappingTable::new();
            t.map(Lpn(1), Location::Flash(Pun(5)));
            t.alias(Lpn(2), Lpn(1)).unwrap();
            t.check_consistency().unwrap();
            t
        };
        let mut t = shared();
        t.free_lists.push(0);
        assert!(
            t.check_consistency().is_err(),
            "a named list on the free list"
        );
        let mut t = shared();
        t.lists.push(Vec::new());
        assert!(
            t.check_consistency().is_err(),
            "a list neither named nor free"
        );
        let mut t = shared();
        t.flash_refs.push(list_word(0));
        assert!(t.check_consistency().is_err(), "a list named twice");
        let mut t = shared();
        t.unmap(Lpn(2));
        t.flash_refs[5] = list_word(0);
        t.lists[0].push(Lpn(1));
        t.free_lists.clear();
        assert!(t.check_consistency().is_err(), "a list of one");
    }
}
