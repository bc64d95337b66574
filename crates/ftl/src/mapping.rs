//! The flash mapping table: forward map plus reverse referrer tracking.
//!
//! The distinctive requirement of Check-In is that **several logical units
//! may reference one physical unit** (after a checkpoint remap, the journal
//! LPN and the data LPN alias the same flash copy). The table therefore
//! knows, for every occupied location, the list of logical units referring
//! to it; a physical unit is *valid* while at least one referrer remains.
//!
//! The forward direction is a flat `Vec` indexed by the dense LPN, exactly
//! like the page-mapped L2P array of the paper's FTL (§II): the address
//! space is dense and bounded, so an array lookup replaces hashing on the
//! hottest path in the simulator. An entry is a 4-byte packed location,
//! and the array grows lazily as high LPNs are touched.
//!
//! The reverse direction keeps almost nothing, because every location's
//! OOB record already names one LPN, its *own*: the LPN a buffer slot was
//! written under, or the one a flash unit was programmed with (a GC copy
//! is programmed with its first referrer). A page-mapping FTL learns a
//! victim's LPN from that record, so the table keeps two bits per
//! location — *referenced* and *exceptional* — in one bit array per side
//! (flash units, buffer slots). A referenced location that is not
//! exceptional is *plain*: its one referrer is its own LPN. Only the
//! others — a checkpoint alias, or a unit whose own LPN was trimmed while
//! an alias lives on — keep their ordered referrer list, in one map keyed
//! by location (`exceptions`).
//!
//! The table never reads flash: an operation that needs a location's own
//! LPN asks the caller's *own-LPN function* (`None` for a location that
//! has none), which must give the same answer for a location as long as
//! the location is referenced.

use std::slice;

use crate::location::{BufSlot, Location, Lpn, Pun};

mod exceptions;

use exceptions::{Exceptions, Left};

/// A forward-array entry: a location packed by [`pack`]. The exception
/// map is keyed by it too, so it orders locations there.
type ForwardWord = u32;

/// Sentinel in the forward array for "not mapped".
const UNMAPPED: ForwardWord = ForwardWord::MAX;

/// LPNs below this bound live in the dense forward array; anything higher
/// (the SSD's device-metadata LPN region sits near `u64::MAX / 2`) goes to
/// a small sorted overflow vector.
const DENSE_LPN_LIMIT: u64 = 1 << 26;

/// A location's state bit: it has at least one referrer.
const REFERENCED: u64 = 0b01;
/// A location's state bit: its referrers are not its own LPN alone, and
/// the exception map holds them.
const EXCEPTIONAL: u64 = 0b10;
/// The [`REFERENCED`] bits of a bit-array word.
const REFERENCED_BITS: u64 = 0x5555_5555_5555_5555;

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

/// One side's location states, two bits each ([`REFERENCED`] and
/// [`EXCEPTIONAL`]), 32 locations a word, grown to the highest one set.
#[derive(Debug, Clone, Default)]
struct Bits(Vec<u64>);

impl Bits {
    fn get(&self, idx: usize) -> u64 {
        self.0
            .get(idx / 32)
            .map_or(0, |w| w >> (idx % 32 * 2) & 0b11)
    }

    fn set(&mut self, idx: usize, state: u64) {
        if idx / 32 >= self.0.len() {
            self.0.resize(idx / 32 + 1, 0);
        }
        if let Some(w) = self.0.get_mut(idx / 32) {
            *w = *w & !(0b11 << (idx % 32 * 2)) | state << (idx % 32 * 2);
        }
    }

    /// How many locations have state bit `bit` (0: referenced, 1:
    /// exceptional) set.
    fn count(&self, bit: u32) -> usize {
        let ones = self
            .0
            .iter()
            .map(|w| (w >> bit & REFERENCED_BITS).count_ones());
        ones.map(|n| n as usize).sum()
    }

    /// The referenced locations, ascending.
    fn referenced(&self) -> impl Iterator<Item = u64> + '_ {
        (0u64..).zip(&self.0).flat_map(|(w, &word)| {
            let mut refs = word & REFERENCED_BITS;
            std::iter::from_fn(move || {
                let bit = u64::from(refs.trailing_zeros());
                refs &= refs.wrapping_sub(1);
                (bit < 64).then_some(w * 32 + bit / 2)
            })
        })
    }
}

/// Forward (LPN → location) and reverse (location → LPNs) mapping: a
/// dense forward array, two state bits per location, and the referrer
/// lists of the locations whose referrers are not their own LPN alone.
///
/// # Examples
///
/// ```
/// use checkin_ftl::{MappingTable, Location, Lpn, Pun};
///
/// // Flash unit 100 was programmed with lpn 1 in its OOB record.
/// let own = |loc: Location| (loc == Location::Flash(Pun(100))).then_some(Lpn(1));
/// let mut t = MappingTable::new();
/// t.map(Lpn(1), Location::Flash(Pun(100)), own);
/// assert_eq!(t.exceptional_locations(), 0); // its referrer is its own lpn
/// t.alias(Lpn(2), Lpn(1), own).unwrap(); // lpn 2 shares lpn 1's copy
/// assert_eq!(t.lookup(Lpn(2)), Some(Location::Flash(Pun(100))));
/// assert_eq!(t.referrers(Location::Flash(Pun(100)), Some(&Lpn(1))), [Lpn(1), Lpn(2)]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct MappingTable {
    forward: Forward,
    /// PUN-indexed location states.
    flash_bits: Bits,
    /// Buffer-slot-indexed location states.
    buf_bits: Bits,
    /// The referrer lists of the exceptional locations.
    exceptions: Exceptions,
    /// The referrers [`MappingTable::relocate`] is moving (kept for its
    /// capacity).
    moving: Vec<Lpn>,
    /// Count of mapped LPNs.
    live: usize,
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

    /// Creates an empty table with the forward array and the flash state
    /// bits pre-reserved for `unit_hint` units. The FTL passes the
    /// device's physical unit count: the host LPN space tracks it, and it
    /// bounds the PUN-indexed bits exactly. Reserved address space costs
    /// nothing until it is written, and neither array is ever regrown — a
    /// regrowth copies the whole array and leaves the old one behind as
    /// heap the size of the table.
    pub fn with_capacity(unit_hint: u64) -> Self {
        let unit_hint = Pun(unit_hint).index();
        let mut t = Self::default();
        t.forward.dense.reserve(unit_hint);
        t.flash_bits.0.reserve(unit_hint.div_ceil(32));
        t
    }

    /// Heap bytes the table holds: the capacity of its arrays and of the
    /// exception map's, reserved address space included.
    pub fn heap_bytes(&self) -> u64 {
        let bytes = self.forward.dense.capacity() * size_of::<ForwardWord>()
            + self.forward.overflow.capacity() * size_of::<(u64, ForwardWord)>()
            + (self.flash_bits.0.capacity() + self.buf_bits.0.capacity()) * size_of::<u64>()
            + self.exceptions.bytes()
            + self.moving.capacity() * size_of::<Lpn>();
        u64::try_from(bytes).unwrap_or(u64::MAX)
    }

    fn state(&self, loc: Location) -> u64 {
        match loc {
            Location::Flash(pun) => self.flash_bits.get(pun.index()),
            Location::Buffer(slot) => self.buf_bits.get(slot.index()),
        }
    }

    /// Sets a packable `loc`'s state bits.
    fn set_state(&mut self, loc: Location, state: u64) {
        match loc {
            Location::Flash(pun) => self.flash_bits.set(pun.index(), state),
            Location::Buffer(slot) => self.buf_bits.set(slot.index(), state),
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

    /// Logical units referencing `loc`, in the order they arrived (empty
    /// when unoccupied). `own` is `loc`'s own LPN: the one referrer of a
    /// plain location.
    pub fn referrers<'a>(&'a self, loc: Location, own: Option<&'a Lpn>) -> &'a [Lpn] {
        let state = self.state(loc);
        if state & EXCEPTIONAL != 0 {
            pack(loc).map_or(&[], |key| self.exceptions.get(key))
        } else if state & REFERENCED != 0 {
            own.map_or(&[], slice::from_ref)
        } else {
            &[]
        }
    }

    /// True while `loc` has a referrer (a flash unit is valid).
    pub fn is_referenced(&self, loc: Location) -> bool {
        self.state(loc) & REFERENCED != 0
    }

    /// The referenced flash units, ascending.
    pub(crate) fn referenced_units(&self) -> impl Iterator<Item = Pun> + '_ {
        self.flash_bits.referenced().map(Pun)
    }

    /// Number of live forward entries (drives the map-cache model).
    pub fn live_entries(&self) -> usize {
        self.live
    }

    /// Number of occupied physical/buffer locations (a count of their
    /// referenced bits).
    pub fn occupied_locations(&self) -> usize {
        self.flash_bits.count(0) + self.buf_bits.count(0)
    }

    /// Number of occupied locations whose referrers are not their own LPN
    /// alone: the entries of the exception map.
    pub fn exceptional_locations(&self) -> usize {
        self.exceptions.len()
    }

    /// Appends `lpns` to the referrers of `loc` (forward word `key`) in
    /// canonical form: an unoccupied location whose list becomes its own
    /// LPN alone is plain, and a plain one moves its own LPN into the
    /// exception map ahead of the new referrers.
    fn link(
        &mut self,
        loc: Location,
        key: ForwardWord,
        lpns: &[Lpn],
        own: impl Fn(Location) -> Option<Lpn>,
    ) {
        let state = self.state(loc);
        let head = match state {
            0 if own(loc).is_some_and(|own| lpns == [own]) => {
                return self.set_state(loc, REFERENCED);
            }
            REFERENCED => own(loc),
            _ => None,
        };
        self.exceptions.append(key, head, lpns);
        self.set_state(loc, REFERENCED | EXCEPTIONAL);
    }

    /// Removes `lpn` from the referrers of `loc`; an exceptional location
    /// left with its own LPN alone becomes plain.
    fn unlink(&mut self, lpn: Lpn, loc: Location, own: impl Fn(Location) -> Option<Lpn>) -> Unlink {
        let state = self.state(loc);
        let left = match pack(loc).filter(|_| state & EXCEPTIONAL != 0) {
            Some(key) => self.exceptions.remove(key, lpn, || own(loc)),
            None => Left::Nothing,
        };
        let now = match left {
            Left::Nothing => 0,
            Left::Own => REFERENCED,
            Left::List => state,
        };
        self.set_state(loc, now);
        if now == 0 {
            Unlink::Orphaned(loc)
        } else {
            Unlink::StillReferenced(loc)
        }
    }

    /// Points `lpn` at `loc`, unlinking any previous mapping. Returns the
    /// outcome for the *previous* location so the caller can update block
    /// validity counters. A `loc` the table cannot pack is refused and
    /// leaves `lpn` unmapped. `own` gives a location's own LPN.
    pub fn map(
        &mut self,
        lpn: Lpn,
        loc: Location,
        own: impl Fn(Location) -> Option<Lpn>,
    ) -> Unlink {
        let prev = self.unmap(lpn, &own);
        let Some(key) = pack(loc) else {
            return prev;
        };
        self.link(loc, key, &[lpn], own);
        self.forward.set(lpn, key);
        self.live += 1;
        prev
    }

    /// Removes `lpn`'s mapping entirely (trim). Returns what happened to
    /// the location it referenced.
    pub fn unmap(&mut self, lpn: Lpn, own: impl Fn(Location) -> Option<Lpn>) -> Unlink {
        let word = self.forward.get(lpn);
        if word == UNMAPPED {
            return Unlink::NotMapped;
        }
        self.forward.clear(lpn);
        self.live -= 1;
        self.unlink(lpn, unpack(word), own)
    }

    /// Makes `dst` reference the same location as `src` (the remap /
    /// copy-on-write primitive). Returns the outcome for `dst`'s previous
    /// location.
    ///
    /// # Errors
    ///
    /// Returns `Err(src)` when `src` is unmapped.
    pub fn alias(
        &mut self,
        dst: Lpn,
        src: Lpn,
        own: impl Fn(Location) -> Option<Lpn>,
    ) -> Result<Unlink, Lpn> {
        let loc = self.lookup(src).ok_or(src)?;
        if self.lookup(dst) == Some(loc) {
            // dst already aliases src: nothing changes.
            return Ok(Unlink::StillReferenced(loc));
        }
        // A plain location's one referrer, `src`, is its own LPN.
        let plain = self.state(loc) == REFERENCED;
        Ok(self.map(
            dst,
            loc,
            |l| if plain && l == loc { Some(src) } else { own(l) },
        ))
    }

    /// Re-homes every referrer of `from` onto `to`, after any `to`
    /// already has (used when the write buffer drains to flash, and when
    /// GC migrates a unit). Returns how many referrers moved: none when
    /// `to` is an address the table cannot pack. `own` is asked about
    /// `from` and `to` only.
    pub fn relocate(
        &mut self,
        from: Location,
        to: Location,
        own: impl Fn(Location) -> Option<Lpn>,
    ) -> usize {
        let (Some(from_key), Some(to_key)) = (pack(from), pack(to)) else {
            return 0;
        };
        let state = self.state(from);
        if from == to || state == 0 {
            return match state {
                0 | REFERENCED => usize::from(state != 0),
                _ => self.exceptions.get(from_key).len(),
            };
        }
        if state == REFERENCED {
            // A plain location's one referrer is its own LPN.
            let Some(lpn) = own(from) else {
                return 0;
            };
            self.set_state(from, 0);
            self.forward.set(lpn, to_key);
            self.link(to, to_key, slice::from_ref(&lpn), own);
            return 1;
        }
        let mut moving = std::mem::take(&mut self.moving);
        moving.clear();
        self.exceptions.take(from_key, &mut moving);
        self.set_state(from, 0);
        for &lpn in &moving {
            self.forward.set(lpn, to_key);
        }
        if !moving.is_empty() {
            self.link(to, to_key, &moving, own);
        }
        let n = moving.len();
        self.moving = moving;
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

    /// Verifies forward/reverse symmetry, the counters, the exception
    /// map's table and the canonical form — no exception list is empty or
    /// `own`'s LPN alone, and every plain location's own LPN maps to it —
    /// and returns a description of the first inconsistency found. Used
    /// by tests and debug assertions.
    pub fn check_consistency(&self, own: impl Fn(Location) -> Option<Lpn>) -> Result<(), String> {
        for (lpn, loc) in self.iter() {
            if !self.referrers(loc, own(loc).as_ref()).contains(&lpn) {
                return Err(format!("{lpn} maps to {loc} but is not a referrer"));
            }
        }
        let flash = self
            .flash_bits
            .referenced()
            .map(|p| Location::Flash(Pun(p)));
        let buffer = self
            .buf_bits
            .referenced()
            .map(|s| Location::Buffer(BufSlot(s)));
        let (mut exceptional, mut referrers, mut pairs) = (0, 0, 0);
        for loc in flash.chain(buffer) {
            let own = own(loc);
            let list = self.referrers(loc, own.as_ref());
            let listed = self.state(loc) & EXCEPTIONAL != 0;
            if listed && (list.is_empty() || own.is_some_and(|own| list == [own])) {
                return Err(format!("{loc}'s exception list {list:?} is not canonical"));
            }
            if !listed && own.is_none_or(|own| self.lookup(own) != Some(loc)) {
                return Err(format!("plain {loc}'s own lpn {own:?} does not map to it"));
            }
            if let Some(lpn) = list.iter().find(|&&lpn| self.lookup(lpn) != Some(loc)) {
                return Err(format!("{loc} lists {lpn} but forward disagrees"));
            }
            exceptional += usize::from(listed);
            referrers += list.len();
            pairs += if listed { list.len() } else { 0 };
        }
        let exceptional_bits = self.flash_bits.count(1) + self.buf_bits.count(1);
        let found = (
            self.iter().count(),
            exceptional_bits,
            self.exceptions.check()?,
        );
        let want = (self.live, exceptional, pairs);
        if found != want || referrers != self.live || exceptional != self.exceptional_locations() {
            return Err(format!(
                "forward entries, exceptional bits and listed pairs are {found:?}, the \
                 referenced locations {want:?}; {referrers} referrers, {} lists",
                self.exceptional_locations()
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::location::{BufSlot, Pun};

    type Own = fn(Location) -> Option<Lpn>;

    /// No location has an own LPN: every occupied one is exceptional.
    fn none(_: Location) -> Option<Lpn> {
        None
    }

    /// Flash unit `p` holds lpn `p` in its OOB record, buffer slot `s` lpn
    /// `100 + s`.
    fn ids(loc: Location) -> Option<Lpn> {
        Some(match loc {
            Location::Flash(pun) => Lpn(pun.0),
            Location::Buffer(slot) => Lpn(100 + slot.0),
        })
    }

    /// Every test runs under both: the outcomes must not depend on which
    /// locations are plain.
    const OWNS: [Own; 2] = [none, ids];

    fn refs(t: &MappingTable, loc: Location, own: Own) -> Vec<Lpn> {
        t.referrers(loc, own(loc).as_ref()).to_vec()
    }

    #[test]
    fn map_and_lookup() {
        for own in OWNS {
            let mut t = MappingTable::new();
            assert_eq!(
                t.map(Lpn(1), Location::Flash(Pun(5)), own),
                Unlink::NotMapped
            );
            assert_eq!(t.lookup(Lpn(1)), Some(Location::Flash(Pun(5))));
            assert_eq!(t.live_entries(), 1);
            t.check_consistency(own).unwrap();
        }
    }

    #[test]
    fn remap_orphans_old_location() {
        for own in OWNS {
            let mut t = MappingTable::new();
            t.map(Lpn(5), Location::Flash(Pun(5)), own);
            let prev = t.map(Lpn(5), Location::Flash(Pun(9)), own);
            assert_eq!(prev, Unlink::Orphaned(Location::Flash(Pun(5))));
            assert!(refs(&t, Location::Flash(Pun(5)), own).is_empty());
            t.check_consistency(own).unwrap();
        }
    }

    #[test]
    fn alias_shares_location() {
        for own in OWNS {
            let mut t = MappingTable::new();
            let home = Location::Flash(Pun(5));
            t.map(Lpn(5), home, own);
            t.alias(Lpn(2), Lpn(5), own).unwrap();
            assert_eq!(refs(&t, home, own), [Lpn(5), Lpn(2)]);
            // Unmapping one leaves the location referenced.
            assert_eq!(t.unmap(Lpn(5), own), Unlink::StillReferenced(home));
            assert_eq!(t.unmap(Lpn(2), own), Unlink::Orphaned(home));
            t.check_consistency(own).unwrap();
        }
    }

    #[test]
    fn alias_unmapped_source_fails() {
        let mut t = MappingTable::new();
        assert_eq!(t.alias(Lpn(2), Lpn(1), ids), Err(Lpn(1)));
    }

    #[test]
    fn alias_is_idempotent() {
        for own in OWNS {
            let mut t = MappingTable::new();
            t.map(Lpn(5), Location::Flash(Pun(5)), own);
            t.alias(Lpn(2), Lpn(5), own).unwrap();
            t.alias(Lpn(2), Lpn(5), own).unwrap();
            assert_eq!(refs(&t, Location::Flash(Pun(5)), own).len(), 2);
            t.check_consistency(own).unwrap();
        }
    }

    #[test]
    fn relocate_moves_all_referrers() {
        for own in OWNS {
            let mut t = MappingTable::new();
            t.map(Lpn(100), Location::Buffer(BufSlot(0)), own);
            t.alias(Lpn(2), Lpn(100), own).unwrap();
            let moved = t.relocate(Location::Buffer(BufSlot(0)), Location::Flash(Pun(7)), own);
            assert_eq!(moved, 2);
            assert_eq!(t.lookup(Lpn(100)), Some(Location::Flash(Pun(7))));
            assert_eq!(t.lookup(Lpn(2)), Some(Location::Flash(Pun(7))));
            t.check_consistency(own).unwrap();
        }
    }

    #[test]
    fn relocate_unoccupied_is_noop() {
        let mut t = MappingTable::new();
        assert_eq!(
            t.relocate(Location::Flash(Pun(1)), Location::Flash(Pun(2)), ids),
            0
        );
    }

    #[test]
    fn relocate_merges_into_occupied_target() {
        for own in OWNS {
            let mut t = MappingTable::new();
            t.map(Lpn(3), Location::Flash(Pun(3)), own);
            t.map(Lpn(4), Location::Flash(Pun(4)), own);
            let moved = t.relocate(Location::Flash(Pun(3)), Location::Flash(Pun(4)), own);
            assert_eq!(moved, 1);
            assert_eq!(refs(&t, Location::Flash(Pun(4)), own), [Lpn(4), Lpn(3)]);
            assert_eq!(t.occupied_locations(), 1);
            t.check_consistency(own).unwrap();
        }
    }

    #[test]
    fn unmap_missing_is_not_mapped() {
        let mut t = MappingTable::new();
        assert_eq!(t.unmap(Lpn(42), ids), Unlink::NotMapped);
    }

    #[test]
    fn occupied_locations_counts_distinct() {
        for own in OWNS {
            let mut t = MappingTable::new();
            t.map(Lpn(5), Location::Flash(Pun(5)), own);
            t.alias(Lpn(2), Lpn(5), own).unwrap();
            t.map(Lpn(6), Location::Flash(Pun(6)), own);
            assert_eq!(t.occupied_locations(), 2);
            assert_eq!(t.live_entries(), 3);
        }
    }

    #[test]
    fn iter_is_ascending_by_lpn() {
        let mut t = MappingTable::new();
        t.map(Lpn(9), Location::Flash(Pun(1)), ids);
        t.map(Lpn(2), Location::Flash(Pun(2)), ids);
        t.map(Lpn(5), Location::Buffer(BufSlot(0)), ids);
        let lpns: Vec<u64> = t.iter().map(|(l, _)| l.0).collect();
        assert_eq!(lpns, vec![2, 5, 9]);
    }

    #[test]
    fn sparse_meta_lpns_use_overflow() {
        // The SSD maps device-metadata units near u64::MAX / 2; those LPNs
        // must not blow up the dense array.
        let mut t = MappingTable::new();
        let meta = Lpn(u64::MAX / 2 + 3);
        t.map(Lpn(1), Location::Flash(Pun(5)), ids);
        t.map(meta, Location::Flash(Pun(6)), ids);
        assert_eq!(t.lookup(meta), Some(Location::Flash(Pun(6))));
        assert_eq!(t.live_entries(), 2);
        let lpns: Vec<u64> = t.iter().map(|(l, _)| l.0).collect();
        assert_eq!(lpns, vec![1, meta.0]);
        assert_eq!(
            t.unmap(meta, ids),
            Unlink::Orphaned(Location::Flash(Pun(6)))
        );
        t.check_consistency(ids).unwrap();
    }

    #[test]
    fn an_address_past_the_index_space_is_refused() {
        let past = Location::Flash(Pun(u64::MAX));
        let held = Location::Flash(Pun(5));
        for own in OWNS {
            let mut t = MappingTable::new();
            t.map(Lpn(5), held, own);
            assert_eq!(t.relocate(held, past, own), 0);
            assert_eq!(t.relocate(past, held, own), 0);
            assert_eq!(t.lookup(Lpn(5)), Some(held));
            assert_eq!(t.map(Lpn(5), past, own), Unlink::Orphaned(held));
            assert_eq!(t.lookup(Lpn(5)), None);
            assert_eq!(t.live_entries(), 0);
            t.check_consistency(own).unwrap();
        }
    }

    #[test]
    fn flash_and_buffer_addresses_do_not_collide() {
        for own in OWNS {
            let mut t = MappingTable::new();
            t.map(Lpn(1), Location::Flash(Pun(7)), own);
            t.map(Lpn(2), Location::Buffer(BufSlot(7)), own);
            assert_eq!(t.lookup(Lpn(1)), Some(Location::Flash(Pun(7))));
            assert_eq!(t.lookup(Lpn(2)), Some(Location::Buffer(BufSlot(7))));
            assert_eq!(refs(&t, Location::Flash(Pun(7)), own), [Lpn(1)]);
            assert_eq!(refs(&t, Location::Buffer(BufSlot(7)), own), [Lpn(2)]);
            t.check_consistency(own).unwrap();
        }
    }

    #[test]
    fn words_are_four_bytes_forward_and_eight_reverse() {
        // A forward entry; an exception-map pair is a 4-byte key and an
        // 8-byte referrer; a bit-array word holds 32 locations' two bits.
        assert_eq!(std::mem::size_of::<ForwardWord>(), 4);
        assert_eq!(std::mem::size_of::<Lpn>(), 8);
        let mut bits = Bits::default();
        bits.set(31, REFERENCED | EXCEPTIONAL);
        assert_eq!((bits.0.len(), bits.get(31), bits.get(30)), (1, 0b11, 0));
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
        t.map(Lpn(1), Location::Flash(Pun(last + 1)), ids);
        assert_eq!(t.lookup(Lpn(1)), None);
        t.check_consistency(ids).unwrap();
    }

    #[test]
    fn an_lpn_in_the_top_four_billion_maps_and_round_trips() {
        let top = [Lpn(u64::MAX - (1 << 32)), Lpn(u64::MAX - 1), Lpn(u64::MAX)];
        for own in OWNS {
            let mut t = MappingTable::new();
            for (pun, lpn) in (5..).zip(top) {
                let loc = Location::Flash(Pun(pun));
                assert_eq!(t.map(lpn, loc, own), Unlink::NotMapped);
                assert_eq!(t.lookup(lpn), Some(loc));
                assert_eq!(refs(&t, loc, own), [lpn]);
            }
            t.alias(top[0], top[2], own).unwrap();
            assert_eq!(refs(&t, Location::Flash(Pun(7)), own), [top[2], top[0]]);
            t.check_consistency(own).unwrap();
            for lpn in top {
                assert_ne!(t.unmap(lpn, own), Unlink::NotMapped);
            }
            assert_eq!((t.live_entries(), t.occupied_locations()), (0, 0));
            t.check_consistency(own).unwrap();
        }
    }

    #[test]
    fn a_location_is_plain_exactly_while_its_own_lpn_is_its_one_referrer() {
        let home = Location::Flash(Pun(5));
        let mut t = MappingTable::new();
        t.map(Lpn(5), home, ids);
        assert_eq!(t.exceptional_locations(), 0);
        t.alias(Lpn(7), Lpn(5), ids).unwrap();
        assert_eq!(t.exceptional_locations(), 1);
        // The alias goes: plain again, and no list is left behind.
        assert_eq!(t.unmap(Lpn(7), ids), Unlink::StillReferenced(home));
        assert_eq!(
            (t.exceptional_locations(), t.exceptions.check()),
            (0, Ok(0))
        );
        // The own lpn goes while the alias lives on: exceptional.
        t.alias(Lpn(7), Lpn(5), ids).unwrap();
        assert_eq!(t.unmap(Lpn(5), ids), Unlink::StillReferenced(home));
        assert_eq!(
            (refs(&t, home, ids), t.exceptional_locations()),
            (vec![Lpn(7)], 1)
        );
        // A GC copy is written under its first referrer: plain.
        let copy = Location::Buffer(BufSlot(0));
        let under_7 = |loc| if loc == copy { Some(Lpn(7)) } else { ids(loc) };
        assert_eq!(t.relocate(home, copy, under_7), 1);
        assert_eq!(t.exceptional_locations(), 0);
        t.check_consistency(under_7).unwrap();
    }

    #[test]
    fn a_freed_list_is_reused() {
        let mut t = MappingTable::new();
        t.map(Lpn(5), Location::Flash(Pun(5)), ids);
        t.map(Lpn(6), Location::Flash(Pun(6)), ids);
        t.alias(Lpn(3), Lpn(5), ids).unwrap();
        t.unmap(Lpn(3), ids);
        let bytes = t.heap_bytes();
        t.alias(Lpn(4), Lpn(6), ids).unwrap();
        assert_eq!(t.heap_bytes(), bytes);
        assert_eq!(refs(&t, Location::Flash(Pun(6)), ids), [Lpn(6), Lpn(4)]);
        t.check_consistency(ids).unwrap();
    }

    #[test]
    fn the_exception_map_grows_and_keeps_its_capacity() {
        // 1 000 exceptional units, every third with two aliases: the
        // table grows and shifts probe runs back as it empties, and a
        // second round reuses all of it.
        const UNITS: u64 = 1_000;
        let mut t = MappingTable::new();
        let round = |t: &mut MappingTable| {
            for u in 0..UNITS {
                let unit = Location::Flash(Pun(u));
                t.map(Lpn(10_000 + u), unit, ids);
                if u % 3 == 0 {
                    t.alias(Lpn(20_000 + u), Lpn(10_000 + u), ids).unwrap();
                }
            }
            t.check_consistency(ids).unwrap();
            assert_eq!(t.exceptional_locations() as u64, UNITS);
            // Scattered removal order.
            for u in (0..UNITS).map(|u| u * 7 % UNITS) {
                t.unmap(Lpn(10_000 + u), ids);
                t.unmap(Lpn(20_000 + u), ids);
            }
            t.check_consistency(ids).unwrap();
            assert_eq!(t.occupied_locations(), 0);
        };
        round(&mut t);
        let bytes = t.heap_bytes();
        round(&mut t);
        assert_eq!(t.heap_bytes(), bytes);
    }

    #[test]
    fn check_consistency_sees_a_broken_arena() {
        let home = Location::Flash(Pun(5));
        let key = pack(home).unwrap();
        let shared = || {
            let mut t = MappingTable::new();
            t.map(Lpn(5), home, ids);
            t.alias(Lpn(2), Lpn(5), ids).unwrap();
            t.check_consistency(ids).unwrap();
            t
        };
        let mut whole = shared();
        whole.map(Lpn(7), Location::Buffer(BufSlot(3)), ids);
        whole.alias(Lpn(8), Lpn(7), ids).unwrap();
        whole.check_consistency(ids).unwrap();
        for (how, broken) in exceptions::tests::broken(&whole.exceptions) {
            let seen = broken.check().unwrap_err();
            let mut t = whole.clone();
            t.exceptions = broken;
            match t.check_consistency(ids) {
                // The referrers it shows are whole: only the map's own check
                // can see the break, and its error is passed on.
                Err(e) if how.contains("free") => assert_eq!(e, seen, "{how}"),
                e => assert!(e.is_err(), "{how}"),
            }
        }
        let mut t = shared();
        t.exceptions.remove(key, Lpn(2), || None);
        t.live -= 1;
        t.forward.clear(Lpn(2));
        assert!(
            t.check_consistency(ids).is_err(),
            "a list of the own lpn alone"
        );
        let mut t = shared();
        t.set_state(Location::Flash(Pun(6)), EXCEPTIONAL);
        assert!(
            t.check_consistency(ids).is_err(),
            "exceptional, not referenced"
        );
        let mut t = shared();
        let plain = Location::Flash(Pun(6));
        t.map(Lpn(6), plain, ids);
        t.exceptions.append(pack(plain).unwrap(), None, &[Lpn(6)]);
        assert!(t.check_consistency(ids).is_err(), "a list for a plain unit");
        let mut t = MappingTable::new();
        t.map(Lpn(5), home, ids);
        assert!(
            t.check_consistency(none).is_err(),
            "plain without an own lpn"
        );
        let elsewhere = |loc| if loc == home { Some(Lpn(9)) } else { None };
        assert!(
            t.check_consistency(elsewhere).is_err(),
            "an own lpn mapped elsewhere"
        );
    }
}
