//! What a programmed page *contains*.
//!
//! The simulator does not shuffle real byte buffers around; a page stores
//! compact **content tags** that are sufficient to verify correctness: which
//! key, which version, and how many bytes of the record live in each
//! FTL mapping unit. The out-of-band (OOB) area carries the recovery
//! metadata the paper describes in §III-G (target address + version).

/// One record fragment stored inside a mapping unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Fragment {
    /// Key-value store key this fragment belongs to.
    pub key: u64,
    /// Monotonic version of the record.
    pub version: u64,
    /// Bytes of the record occupied in this unit (post-alignment).
    pub bytes: u32,
}

/// A fragment list that stores up to two fragments inline.
///
/// Units nearly always carry one fragment (a whole record or its tail),
/// so the common case needs no heap allocation at all — the simulator
/// creates one of these per host write on the hot path. Longer merged
/// lists spill to a `Vec` transparently.
#[derive(Debug, Clone)]
enum FragRepr {
    Inline {
        len: u8,
        frags: [Fragment; FragVec::INLINE],
    },
    Spilled(Vec<Fragment>),
}

/// Small-vector of [`Fragment`]s; derefs to a slice.
#[derive(Debug, Clone)]
pub struct FragVec {
    repr: FragRepr,
}

impl FragVec {
    /// Fragments stored without heap allocation.
    pub const INLINE: usize = 2;

    const FILLER: Fragment = Fragment {
        key: 0,
        version: 0,
        bytes: 0,
    };

    /// An empty fragment list (inline, no allocation).
    pub const fn new() -> Self {
        FragVec {
            repr: FragRepr::Inline {
                len: 0,
                frags: [Self::FILLER; Self::INLINE],
            },
        }
    }

    /// Appends a fragment, spilling to the heap past [`FragVec::INLINE`].
    pub fn push(&mut self, f: Fragment) {
        match &mut self.repr {
            FragRepr::Inline { len, frags } => {
                if let Some(slot) = frags.get_mut(*len as usize) {
                    *slot = f;
                    *len += 1;
                } else {
                    let mut v = Vec::with_capacity(Self::INLINE * 2);
                    v.extend_from_slice(frags);
                    v.push(f);
                    self.repr = FragRepr::Spilled(v);
                }
            }
            FragRepr::Spilled(v) => v.push(f),
        }
    }

    /// The fragments as a slice.
    pub fn as_slice(&self) -> &[Fragment] {
        match &self.repr {
            // As in `as_mut_slice`: a corrupt length reads as empty.
            FragRepr::Inline { len, frags } => frags.get(..*len as usize).unwrap_or(&[]),
            FragRepr::Spilled(v) => v,
        }
    }

    /// The fragments as a mutable slice.
    pub fn as_mut_slice(&mut self) -> &mut [Fragment] {
        match &mut self.repr {
            // `len <= INLINE` is an invariant of `push`; a corrupt length
            // degrades to the empty slice rather than a panic.
            FragRepr::Inline { len, frags } => frags.get_mut(..*len as usize).unwrap_or(&mut []),
            FragRepr::Spilled(v) => v,
        }
    }
}

impl Default for FragVec {
    fn default() -> Self {
        Self::new()
    }
}

impl std::ops::Deref for FragVec {
    type Target = [Fragment];
    fn deref(&self) -> &[Fragment] {
        self.as_slice()
    }
}

impl std::ops::DerefMut for FragVec {
    fn deref_mut(&mut self) -> &mut [Fragment] {
        self.as_mut_slice()
    }
}

impl PartialEq for FragVec {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for FragVec {}

impl FromIterator<Fragment> for FragVec {
    fn from_iter<I: IntoIterator<Item = Fragment>>(iter: I) -> Self {
        let mut fv = FragVec::new();
        for f in iter {
            fv.push(f);
        }
        fv
    }
}

impl Extend<Fragment> for FragVec {
    fn extend<I: IntoIterator<Item = Fragment>>(&mut self, iter: I) {
        for f in iter {
            self.push(f);
        }
    }
}

impl From<Vec<Fragment>> for FragVec {
    fn from(v: Vec<Fragment>) -> Self {
        if v.len() <= Self::INLINE {
            v.into_iter().collect()
        } else {
            FragVec {
                repr: FragRepr::Spilled(v),
            }
        }
    }
}

/// By-value iteration (fragments are `Copy`).
pub struct FragVecIter {
    inner: FragVecIterRepr,
}

enum FragVecIterRepr {
    Inline {
        idx: u8,
        len: u8,
        frags: [Fragment; FragVec::INLINE],
    },
    Spilled(std::vec::IntoIter<Fragment>),
}

impl Iterator for FragVecIter {
    type Item = Fragment;
    fn next(&mut self) -> Option<Fragment> {
        match &mut self.inner {
            FragVecIterRepr::Inline { idx, len, frags } => {
                if idx < len {
                    let f = frags.get(usize::from(*idx)).copied();
                    *idx += 1;
                    f
                } else {
                    None
                }
            }
            FragVecIterRepr::Spilled(it) => it.next(),
        }
    }
}

impl IntoIterator for FragVec {
    type Item = Fragment;
    type IntoIter = FragVecIter;
    fn into_iter(self) -> FragVecIter {
        FragVecIter {
            inner: match self.repr {
                FragRepr::Inline { len, frags } => FragVecIterRepr::Inline { idx: 0, len, frags },
                FragRepr::Spilled(v) => FragVecIterRepr::Spilled(v.into_iter()),
            },
        }
    }
}

impl<'a> IntoIterator for &'a FragVec {
    type Item = &'a Fragment;
    type IntoIter = std::slice::Iter<'a, Fragment>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

/// Content of one FTL mapping unit within a page.
///
/// A unit normally holds one fragment; sector-aligned journaling's
/// `MERGED` sectors hold several small records in one unit.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct UnitPayload {
    /// Fragments packed into this unit, in placement order.
    pub fragments: FragVec,
}

impl UnitPayload {
    /// A unit holding a single record fragment (no heap allocation).
    pub fn single(key: u64, version: u64, bytes: u32) -> Self {
        let mut fragments = FragVec::new();
        fragments.push(Fragment {
            key,
            version,
            bytes,
        });
        UnitPayload { fragments }
    }

    /// A unit holding several merged small records.
    pub fn merged(fragments: impl Into<FragVec>) -> Self {
        UnitPayload {
            fragments: fragments.into(),
        }
    }

    /// Total payload bytes in this unit.
    pub fn bytes(&self) -> u32 {
        self.fragments.iter().map(|f| f.bytes).sum()
    }

    /// True when the unit carries no fragments (padding).
    pub fn is_empty(&self) -> bool {
        self.fragments.is_empty()
    }
}

/// Role of a page recorded in its OOB area, used during sudden-power-off
/// recovery to rebuild mapping state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OobKind {
    /// Page written on the journaling path.
    Journal,
    /// Page written to (or remapped into) the data area.
    Data,
    /// FTL metadata (mapping table snapshots, checkpoint markers).
    Meta,
    /// Page relocated by garbage collection.
    GcCopy,
}

/// One OOB record: the logical owner of one mapping unit of the page.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OobEntry {
    /// Logical page number (in mapping units) this unit was written for.
    pub lpn: u64,
    /// Write sequence number, used to order versions during recovery.
    pub sequence: u64,
    /// Provenance of the write.
    pub kind: OobKind,
}

/// The fragments of one unit, borrowed — from a staged [`UnitPayload`]
/// or from the page store, which keeps a unit's first fragment in its
/// unit record and any further ones in the block's fragment arena (so the
/// two halves are not one slice).
#[derive(Debug, Clone, Copy, Default)]
pub struct UnitRef<'a> {
    first: Option<Fragment>,
    rest: &'a [Fragment],
}

impl<'a> UnitRef<'a> {
    #[inline]
    pub(crate) fn new(first: Fragment, rest: &'a [Fragment]) -> Self {
        UnitRef {
            first: Some(first),
            rest,
        }
    }

    /// The fragments, in placement order.
    #[inline]
    pub fn iter(&self) -> impl Iterator<Item = Fragment> + 'a {
        self.first.into_iter().chain(self.rest.iter().copied())
    }

    /// An owned copy (allocates only past [`FragVec::INLINE`] fragments).
    #[inline]
    pub fn to_payload(&self) -> UnitPayload {
        UnitPayload {
            fragments: self.iter().collect(),
        }
    }
}

impl<'a> From<&'a UnitPayload> for UnitRef<'a> {
    #[inline]
    fn from(unit: &'a UnitPayload) -> Self {
        match unit.fragments.as_slice().split_first() {
            Some((&first, rest)) => UnitRef::new(first, rest),
            None => UnitRef::default(),
        }
    }
}

/// A page as the firmware *stages* it for [`FlashArray::program`]: the
/// array copies it into the block's arenas (see `store`), and hands
/// stored pages back as [`PageView`]s.
///
/// [`FlashArray::program`]: crate::FlashArray::program
/// [`PageView`]: crate::PageView
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PageContent {
    /// Per-mapping-unit payloads; `None` marks a padded (unused) unit.
    pub units: Vec<Option<UnitPayload>>,
    /// OOB records, parallel to `units` where applicable.
    pub oob: Vec<OobEntry>,
}

impl PageContent {
    /// A page with `units` slots, all empty.
    pub fn empty(units: usize) -> Self {
        PageContent {
            units: vec![None; units],
            oob: Vec::new(),
        }
    }

    /// Back to `units` empty slots and no OOB records, keeping both
    /// vectors' capacity: how a staging page is refilled.
    pub fn reset(&mut self, units: usize) {
        self.units.clear();
        self.units.resize(units, None);
        self.oob.clear();
    }

    /// Number of occupied units.
    pub fn occupied_units(&self) -> usize {
        self.units.iter().filter(|u| u.is_some()).count()
    }

    /// Total payload bytes across units.
    pub fn payload_bytes(&self) -> u64 {
        self.units.iter().flatten().map(|u| u.bytes() as u64).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{BlockStore, Injector, SealLog};

    #[test]
    fn single_unit_payload() {
        let u = UnitPayload::single(42, 3, 512);
        assert_eq!(u.bytes(), 512);
        assert_eq!(u.fragments.len(), 1);
        assert!(!u.is_empty());
    }

    #[test]
    fn merged_unit_sums_bytes() {
        let u = UnitPayload::merged(vec![
            Fragment {
                key: 1,
                version: 1,
                bytes: 128,
            },
            Fragment {
                key: 2,
                version: 5,
                bytes: 256,
            },
        ]);
        assert_eq!(u.bytes(), 384);
    }

    #[test]
    fn page_content_accounting() {
        let mut p = PageContent::empty(8);
        assert_eq!(p.occupied_units(), 0);
        p.units[0] = Some(UnitPayload::single(1, 1, 512));
        p.units[3] = Some(UnitPayload::single(2, 1, 128));
        assert_eq!(p.occupied_units(), 2);
        assert_eq!(p.payload_bytes(), 640);
    }

    #[test]
    fn empty_unit_is_padding() {
        assert!(UnitPayload::default().is_empty());
        assert_eq!(UnitPayload::default().bytes(), 0);
    }

    /// A block with one programmed page, and the seal log its injectors
    /// keep.
    fn sealed_page() -> (BlockStore, SealLog) {
        let mut p = PageContent::empty(4);
        p.units[0] = Some(UnitPayload::single(1, 7, 512));
        p.units[2] = Some(UnitPayload::single(2, 3, 128));
        p.oob.push(OobEntry {
            lpn: 10,
            sequence: 5,
            kind: OobKind::Data,
        });
        p.oob.push(OobEntry {
            lpn: 11,
            sequence: 6,
            kind: OobKind::Journal,
        });
        let mut block = BlockStore::default();
        block.land(&p, 1).unwrap();
        (block, SealLog::default())
    }

    fn injector<'a>(block: &'a mut BlockStore, seals: &'a mut SealLog) -> Injector<'a> {
        Injector {
            block: 0,
            store: block,
            seals,
        }
    }

    #[test]
    fn sealed_page_verifies() {
        let (block, seals) = sealed_page();
        let p = block.page(0, seals.of_block(0)).unwrap();
        assert!(p.intact());
        for i in 0..4 {
            assert!(p.unit_intact(i), "unit {i}");
        }
        assert!(p.oob_intact(0) && p.oob_intact(1));
    }

    #[test]
    fn flipped_unit_bits_break_verification() {
        let (mut block, mut seals) = sealed_page();
        let mut inj = injector(&mut block, &mut seals);
        assert!(inj.flip_unit_bits(0, 0, 1 << 13));
        assert!(!inj.flip_unit_bits(0, 1, 1 << 13), "padded slot");
        assert_eq!(seals.len(), 1, "only the changed slot is sealed");
        let p = block.page(0, seals.of_block(0)).unwrap();
        assert!(!p.unit_intact(0));
        assert!(p.unit_intact(2), "other unit untouched");
        assert!(p.oob_intact(0), "oob untouched");
        assert!(!p.intact());
    }

    #[test]
    fn flipped_oob_bits_break_verification() {
        let (mut block, mut seals) = sealed_page();
        let mut inj = injector(&mut block, &mut seals);
        assert!(inj.flip_oob_bits(0, 1, 1));
        assert!(!inj.flip_oob_bits(0, 2, 1), "no third record");
        let p = block.page(0, seals.of_block(0)).unwrap();
        assert!(p.unit_intact(0));
        assert!(p.oob_intact(0));
        assert!(!p.oob_intact(1));
    }
}
