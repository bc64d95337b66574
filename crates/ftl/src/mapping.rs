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

use crate::location::{BufSlot, Location, Lpn, Pun};

/// Sentinel in the forward array for "not mapped".
const UNMAPPED: u64 = u64::MAX;

/// LPNs below this bound live in the dense forward array; anything higher
/// (the SSD's device-metadata LPN region sits near `u64::MAX / 2`) goes to
/// a small sorted overflow vector.
const DENSE_LPN_LIMIT: u64 = 1 << 26;

/// Packs a location into a forward-array word: flash PUNs get even codes,
/// buffer slots odd ones. `UNMAPPED` is never produced because address
/// spaces stay far below 2^63.
fn pack(loc: Location) -> u64 {
    match loc {
        Location::Flash(pun) => {
            debug_assert!(pun.0 < (1 << 62), "pun out of packable range");
            pun.0 << 1
        }
        Location::Buffer(slot) => {
            debug_assert!(slot.0 < (1 << 62), "buffer slot out of packable range");
            (slot.0 << 1) | 1
        }
    }
}

fn unpack(word: u64) -> Location {
    if word & 1 == 0 {
        Location::Flash(Pun(word >> 1))
    } else {
        Location::Buffer(BufSlot(word >> 1))
    }
}

/// Referrer set of one physical location. Almost every occupied location
/// has exactly one referrer (aliases only appear around checkpoints), so
/// the single-referrer case is stored inline without heap allocation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
enum RefSlot {
    #[default]
    Empty,
    One(Lpn),
    // Boxed so the enum stays two words: Many is rare (checkpoint
    // aliases only) and the whole reverse array is sized by it.
    #[allow(clippy::box_collection)]
    Many(Box<Vec<Lpn>>),
}

impl RefSlot {
    fn as_slice(&self) -> &[Lpn] {
        match self {
            RefSlot::Empty => &[],
            RefSlot::One(lpn) => std::slice::from_ref(lpn),
            RefSlot::Many(lpns) => lpns,
        }
    }

    fn is_empty(&self) -> bool {
        matches!(self, RefSlot::Empty)
    }

    fn push(&mut self, lpn: Lpn) {
        match self {
            RefSlot::Empty => *self = RefSlot::One(lpn),
            RefSlot::One(first) => *self = RefSlot::Many(Box::new(vec![*first, lpn])),
            RefSlot::Many(lpns) => lpns.push(lpn),
        }
    }

    /// Removes one occurrence of `lpn`; collapses back to the inline
    /// representations where possible.
    fn remove(&mut self, lpn: Lpn) {
        match self {
            RefSlot::Empty => {}
            RefSlot::One(only) => {
                if *only == lpn {
                    *self = RefSlot::Empty;
                }
            }
            RefSlot::Many(lpns) => {
                lpns.retain(|&l| l != lpn);
                match lpns.as_slice() {
                    [] => *self = RefSlot::Empty,
                    &[only] => *self = RefSlot::One(only),
                    _ => {}
                }
            }
        }
    }
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
    /// LPN-indexed packed locations for LPNs below [`DENSE_LPN_LIMIT`];
    /// `UNMAPPED` marks holes. Grows lazily to the highest LPN touched.
    forward: Vec<u64>,
    /// Sparse LPNs at or above [`DENSE_LPN_LIMIT`], sorted by LPN.
    forward_overflow: Vec<(u64, u64)>,
    /// PUN-indexed referrer sets.
    flash_refs: Vec<RefSlot>,
    /// Buffer-slot-indexed referrer sets.
    buf_refs: Vec<RefSlot>,
    /// Count of mapped LPNs.
    live: usize,
    /// Count of non-empty referrer slots across both reverse arrays.
    occupied: usize,
}

impl MappingTable {
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
        t.forward.reserve(unit_hint);
        t.flash_refs.reserve(unit_hint);
        t
    }

    fn forward_word(&self, lpn: Lpn) -> u64 {
        if lpn.0 < DENSE_LPN_LIMIT {
            self.forward.get(lpn.index()).copied().unwrap_or(UNMAPPED)
        } else {
            self.forward_overflow
                .binary_search_by_key(&lpn.0, |&(l, _)| l)
                .ok()
                .and_then(|pos| self.forward_overflow.get(pos))
                .map_or(UNMAPPED, |&(_, word)| word)
        }
    }

    fn forward_set(&mut self, lpn: Lpn, word: u64) {
        debug_assert_ne!(word, UNMAPPED);
        if lpn.0 < DENSE_LPN_LIMIT {
            let idx = lpn.index();
            if let Some(len) = idx.checked_add(1).filter(|&len| len > self.forward.len()) {
                self.forward.resize(len, UNMAPPED);
            }
            if let Some(slot) = self.forward.get_mut(idx) {
                *slot = word;
            }
        } else {
            match self
                .forward_overflow
                .binary_search_by_key(&lpn.0, |&(l, _)| l)
            {
                Ok(pos) => {
                    if let Some(entry) = self.forward_overflow.get_mut(pos) {
                        entry.1 = word;
                    }
                }
                Err(pos) => self.forward_overflow.insert(pos, (lpn.0, word)),
            }
        }
    }

    fn forward_clear(&mut self, lpn: Lpn) {
        if lpn.0 < DENSE_LPN_LIMIT {
            if let Some(word) = self.forward.get_mut(lpn.index()) {
                *word = UNMAPPED;
            }
        } else if let Ok(pos) = self
            .forward_overflow
            .binary_search_by_key(&lpn.0, |&(l, _)| l)
        {
            self.forward_overflow.remove(pos);
        }
    }

    fn ref_slot(&self, loc: Location) -> Option<&RefSlot> {
        match loc {
            Location::Flash(pun) => self.flash_refs.get(pun.index()),
            Location::Buffer(slot) => self.buf_refs.get(slot.index()),
        }
    }

    /// The referrer set of `loc`, growing the reverse array to hold it.
    /// `None` for an address `usize` cannot index (`index()` reports it
    /// as `usize::MAX`): no array is that long, so the table refuses it.
    fn ref_slot_mut(&mut self, loc: Location) -> Option<&mut RefSlot> {
        let (vec, idx) = match loc {
            Location::Flash(pun) => (&mut self.flash_refs, pun.index()),
            Location::Buffer(slot) => (&mut self.buf_refs, slot.index()),
        };
        if idx >= vec.len() {
            vec.resize(idx.checked_add(1)?, RefSlot::Empty);
        }
        vec.get_mut(idx)
    }

    /// Current location of a logical unit.
    pub fn lookup(&self, lpn: Lpn) -> Option<Location> {
        let word = self.forward_word(lpn);
        if word == UNMAPPED {
            None
        } else {
            Some(unpack(word))
        }
    }

    /// Logical units referencing `loc` (empty slice when unoccupied).
    pub fn referrers(&self, loc: Location) -> &[Lpn] {
        self.ref_slot(loc).map(RefSlot::as_slice).unwrap_or(&[])
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
    /// validity counters. A `loc` the table cannot index is refused and
    /// leaves `lpn` unmapped.
    pub fn map(&mut self, lpn: Lpn, loc: Location) -> Unlink {
        let prev = self.unmap(lpn);
        let Some(slot) = self.ref_slot_mut(loc) else {
            return prev;
        };
        let was_empty = slot.is_empty();
        slot.push(lpn);
        if was_empty {
            self.occupied += 1;
        }
        self.forward_set(lpn, pack(loc));
        self.live += 1;
        prev
    }

    /// Removes `lpn`'s mapping entirely (trim). Returns what happened to
    /// the location it referenced.
    pub fn unmap(&mut self, lpn: Lpn) -> Unlink {
        let word = self.forward_word(lpn);
        if word == UNMAPPED {
            return Unlink::NotMapped;
        }
        self.forward_clear(lpn);
        self.live -= 1;
        let loc = unpack(word);
        let Some(slot) = self.ref_slot_mut(loc) else {
            return Unlink::Orphaned(loc);
        };
        slot.remove(lpn);
        if slot.is_empty() {
            self.occupied -= 1;
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
        if self.referrers(from).is_empty() || self.ref_slot_mut(to).is_none() {
            return 0;
        }
        let moved = self
            .ref_slot_mut(from)
            .map(std::mem::take)
            .unwrap_or_default();
        self.occupied -= 1;
        let packed_to = pack(to);
        for &lpn in moved.as_slice() {
            self.forward_set(lpn, packed_to);
        }
        let n = moved.as_slice().len();
        let Some(to_slot) = self.ref_slot_mut(to) else {
            return n;
        };
        let was_empty = to_slot.is_empty();
        match (to_slot, moved) {
            (slot @ RefSlot::Empty, moved) => *slot = moved,
            (slot, moved) => {
                for &lpn in moved.as_slice() {
                    slot.push(lpn);
                }
            }
        }
        if was_empty {
            self.occupied += 1;
        }
        n
    }

    /// Iterates all forward entries in ascending LPN order (diagnostics /
    /// recovery; the deterministic order keeps checkpoint processing and
    /// report output reproducible).
    pub fn iter(&self) -> impl Iterator<Item = (Lpn, Location)> + '_ {
        self.forward
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
                self.forward_overflow
                    .iter()
                    .map(|&(lpn, word)| (Lpn(lpn), unpack(word))),
            )
    }

    /// Verifies forward/reverse symmetry and counter accounting; returns a
    /// description of the first inconsistency found. Used by tests and
    /// debug assertions.
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
        let mut occupied = 0usize;
        let sides = [(&self.flash_refs, true), (&self.buf_refs, false)];
        for (vec, is_flash) in sides {
            for (idx, slot) in vec.iter().enumerate() {
                if slot.is_empty() {
                    continue;
                }
                occupied += 1;
                let loc = if is_flash {
                    Location::Flash(Pun(idx as u64))
                } else {
                    Location::Buffer(BufSlot(idx as u64))
                };
                for &lpn in slot.as_slice() {
                    if self.lookup(lpn) != Some(loc) {
                        return Err(format!("{loc} lists {lpn} but forward disagrees"));
                    }
                }
            }
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
}
