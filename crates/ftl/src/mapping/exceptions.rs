//! The exception map of [`super::MappingTable`]: the referrer lists of
//! the locations whose referrers are not their own LPN alone, keyed by
//! forward word.

use std::slice;

use super::{ForwardWord, UNMAPPED};
use crate::location::Lpn;

/// A slot's `list` when it holds one referrer, in its `lpn`.
const ONE: u32 = u32::MAX;

/// One slot of [`Exceptions`].
#[derive(Debug, Clone, Copy)]
struct Slot {
    /// The location's forward word; [`UNMAPPED`], which packs no
    /// location, when the slot is vacant.
    key: ForwardWord,
    /// [`ONE`], or the id of the location's list in `Exceptions::lists`.
    list: u32,
    lpn: Lpn,
}

const VACANT: Slot = Slot {
    key: UNMAPPED,
    list: ONE,
    lpn: Lpn(0),
};

/// What [`Exceptions::remove`] left of a list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Left {
    /// Nothing: the list left the map.
    Nothing,
    /// The location's own LPN alone: the list left the map too.
    Own,
    /// A list that stays.
    List,
}

/// The referrer lists of the exceptional locations, in an open-addressing
/// table keyed by forward word: a fixed multiplicative hash, so the layout
/// repeats run to run, linear probing, and deletion by backward shift.
/// Almost every list is one referrer, which its 16-byte slot holds, so a
/// change reads one cache line; a longer list is in `lists`, where a freed
/// list keeps its capacity for the next. The table is at most 5/8 full
/// and grows by a quarter, so an entry costs 26–32 B, and a churn that
/// comes back to the same peak allocates nothing. Nothing iterates the
/// map: the table's state bits say which locations have a list.
#[derive(Debug, Clone, Default)]
pub(super) struct Exceptions {
    slots: Vec<Slot>,
    lists: Vec<Vec<Lpn>>,
    /// Ids of the lists no slot names.
    free: Vec<u32>,
    /// Occupied slots.
    len: usize,
}

impl Exceptions {
    /// Where `key`'s probe starts.
    fn home(&self, key: ForwardWord) -> usize {
        let hash = u64::from(key).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let at = (u128::from(hash) * self.slots.len() as u128) >> 64;
        usize::try_from(at).unwrap_or(0)
    }

    /// The slot holding `key`, or the vacant one where it would go; `None`
    /// in an empty table.
    fn find(&self, key: ForwardWord) -> Option<usize> {
        let n = self.slots.len();
        let mut i = self.home(key);
        for _ in 0..n {
            match self.slots.get(i) {
                Some(s) if s.key == key || s.key == UNMAPPED => return Some(i),
                _ => i = (i + 1) % n,
            }
        }
        None
    }

    /// The occupied slot holding `key`, with its index.
    fn slot_of(&self, key: ForwardWord) -> Option<(usize, Slot)> {
        let i = self.find(key)?;
        self.slots.get(i).filter(|s| s.key == key).map(|&s| (i, s))
    }

    fn list(&self, slot: &Slot) -> Option<&Vec<Lpn>> {
        self.lists
            .get(slot.list as usize)
            .filter(|_| slot.list != ONE)
    }

    fn put(&mut self, i: usize, slot: Slot) {
        if let Some(s) = self.slots.get_mut(i) {
            *s = slot;
        }
    }

    pub(super) fn get(&self, key: ForwardWord) -> &[Lpn] {
        let Some(slot) = self.find(key).and_then(|i| self.slots.get(i)) else {
            return &[];
        };
        match self.list(slot) {
            _ if slot.key != key => &[],
            Some(list) => list,
            None => slice::from_ref(&slot.lpn),
        }
    }

    /// Appends `head`, if any, and then `lpns` to `key`'s list; a `head`
    /// is the location's own LPN.
    pub(super) fn append(&mut self, key: ForwardWord, head: Option<Lpn>, lpns: &[Lpn]) {
        let mut added = head.into_iter().chain(lpns.iter().copied());
        let Some(first) = added.next() else {
            return;
        };
        if (self.len + 1) * 8 > self.slots.len() * 5 {
            self.grow();
        }
        let Some((i, slot)) = self.find(key).and_then(|i| Some((i, *self.slots.get(i)?))) else {
            return;
        };
        let mut rest = added.peekable();
        let held = match slot.list {
            _ if slot.key == UNMAPPED => {
                self.len += 1;
                if rest.peek().is_none() {
                    return self.put(
                        i,
                        Slot {
                            key,
                            list: ONE,
                            lpn: first,
                        },
                    );
                }
                None
            }
            ONE => Some(slot.lpn),
            list => {
                if let Some(list) = self.lists.get_mut(list as usize) {
                    list.push(first);
                    list.extend(rest);
                }
                return;
            }
        };
        let id = self.free.pop().unwrap_or_else(|| {
            self.lists.push(Vec::new());
            u32::try_from(self.lists.len() - 1).unwrap_or(ONE)
        });
        if let Some(list) = self.lists.get_mut(id as usize) {
            list.extend(held.into_iter().chain([first]).chain(rest));
        }
        self.put(
            i,
            Slot {
                key,
                list: id,
                lpn: Lpn(0),
            },
        );
    }

    /// Removes `lpn` from `key`'s list, and then the list itself when it
    /// is empty or `own()` alone.
    pub(super) fn remove(
        &mut self,
        key: ForwardWord,
        lpn: Lpn,
        own: impl FnOnce() -> Option<Lpn>,
    ) -> Left {
        let Some((i, slot)) = self.slot_of(key) else {
            return Left::Nothing;
        };
        let only = match self
            .lists
            .get_mut(slot.list as usize)
            .filter(|_| slot.list != ONE)
        {
            Some(list) => {
                if let Some(at) = list.iter().position(|&l| l == lpn) {
                    list.remove(at);
                }
                let [only] = *list.as_slice() else {
                    return Left::List;
                };
                self.free_list(slot.list);
                only
            }
            None if slot.lpn == lpn => {
                self.vacate(i);
                return Left::Nothing;
            }
            None => slot.lpn,
        };
        if own() == Some(only) {
            self.vacate(i);
            return Left::Own;
        }
        self.put(
            i,
            Slot {
                key,
                list: ONE,
                lpn: only,
            },
        );
        Left::List
    }

    /// Moves `key`'s list, whole, to the end of `out`.
    pub(super) fn take(&mut self, key: ForwardWord, out: &mut Vec<Lpn>) {
        let Some((i, slot)) = self.slot_of(key) else {
            return;
        };
        match self.list(&slot) {
            Some(list) => {
                out.extend_from_slice(list);
                self.free_list(slot.list);
            }
            None => out.push(slot.lpn),
        }
        self.vacate(i);
    }

    fn free_list(&mut self, id: u32) {
        if let Some(list) = self.lists.get_mut(id as usize) {
            list.clear();
            self.free.push(id);
        }
    }

    /// Empties slot `i`, shifting back each later slot of its probe run
    /// that may then sit nearer its home.
    fn vacate(&mut self, i: usize) {
        let n = self.slots.len();
        let (mut hole, mut j) = (i, i);
        loop {
            j = (j + 1) % n;
            let Some(&next) = self.slots.get(j).filter(|s| s.key != UNMAPPED) else {
                break;
            };
            if (j + n - self.home(next.key)) % n >= (j + n - hole) % n {
                self.put(hole, next);
                hole = j;
            }
        }
        self.put(hole, VACANT);
        self.len -= 1;
    }

    /// Re-probes every slot into a table a quarter larger.
    fn grow(&mut self) {
        let n = (self.slots.len() + self.slots.len() / 4).max(16);
        let old = std::mem::replace(&mut self.slots, vec![VACANT; n]);
        for slot in old.into_iter().filter(|s| s.key != UNMAPPED) {
            if let Some(i) = self.find(slot.key) {
                self.put(i, slot);
            }
        }
    }

    /// Locations the map holds a list for.
    pub(super) fn len(&self) -> usize {
        self.len
    }

    pub(super) fn bytes(&self) -> usize {
        self.slots.capacity() * size_of::<Slot>()
            + self.lists.capacity() * size_of::<Vec<Lpn>>()
            + self
                .lists
                .iter()
                .map(|l| l.capacity() * size_of::<Lpn>())
                .sum::<usize>()
            + self.free.capacity() * size_of::<u32>()
    }

    /// Checks that every occupied slot is where a probe finds it, that
    /// the lists in use have two or more referrers and the others are free
    /// and empty; returns how many referrers the map holds.
    pub(super) fn check(&self) -> Result<usize, String> {
        let mut named = vec![false; self.lists.len()];
        let (mut len, mut pairs) = (0, 0);
        for (i, s) in self
            .slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.key != UNMAPPED)
        {
            len += 1;
            let list = self.list(s);
            let id = s.list as usize;
            let shared = list.is_some()
                && named
                    .get_mut(id)
                    .is_some_and(|n| std::mem::replace(n, true));
            let bad = list.map_or(s.list != ONE, |l| l.len() < 2);
            pairs += list.map_or(1, Vec::len);
            if self.find(s.key) != Some(i) || shared || bad {
                return Err(format!(
                    "exception slot {i} is unreachable or its list is bad"
                ));
            }
        }
        let free = self.free.iter().filter(|&&id| {
            named
                .get_mut(id as usize)
                .is_some_and(|n| !std::mem::replace(n, true))
                && self.lists.get(id as usize).is_some_and(Vec::is_empty)
        });
        if len != self.len || free.count() != self.free.len() || named.contains(&false) {
            return Err("exception map: a count, the free lists or a lost list disagree".into());
        }
        Ok(pairs)
    }
}

#[cfg(test)]
pub(super) mod tests {
    use std::collections::BTreeMap;

    use checkin_testkit::check;

    use super::*;

    /// Copies of `map`, which must hold a list and one more location, each
    /// broken one way that [`Exceptions::check`] must see.
    pub(in crate::mapping) fn broken(map: &Exceptions) -> Vec<(&'static str, Exceptions)> {
        let used = |i: &usize| map.slots[*i].key != UNMAPPED;
        let listed = (0..map.slots.len())
            .filter(used)
            .find(|&i| map.slots[i].list != ONE);
        let a = listed.expect("a location with a list");
        let b = (0..map.slots.len()).filter(used).find(|&i| i != a);
        let b = b.expect("a second location");
        let id = map.slots[a].list;
        let mut shared = map.clone();
        shared.slots[b].list = id;
        let mut freed = map.clone();
        freed.free.push(id);
        let mut lost = map.clone();
        lost.lists.push(Vec::new());
        let mut short = map.clone();
        short.lists[id as usize].truncate(1);
        let vacant = (0..map.slots.len()).filter(|i| !used(i));
        let moved = vacant.map(|j| {
            let mut m = map.clone();
            m.slots.swap(b, j);
            (j, m)
        });
        let (_, moved) = moved
            .into_iter()
            .find(|(j, m)| m.find(m.slots[*j].key) != Some(*j))
            .expect("a vacant slot off the probe path");
        vec![
            ("a list named by two slots", shared),
            ("a list in use on the free list", freed),
            ("a list neither named nor free", lost),
            ("a list of one", short),
            ("a slot off its probe path", moved),
        ]
    }

    #[test]
    fn check_sees_a_broken_arena() {
        let mut map = Exceptions::default();
        map.append(1, None, &[Lpn(1), Lpn(2)]);
        map.append(2, None, &[Lpn(3)]);
        map.check().unwrap();
        for (how, map) in broken(&map) {
            assert!(map.check().is_err(), "{how}");
        }
    }

    /// Random appends, removals and takes over a few hundred keys —
    /// enough for the table to grow and for removals to shift probe runs
    /// back, a few lists long — agree with a map of vectors, and the table
    /// keeps its invariants at every step.
    #[test]
    fn edits_agree_with_a_map_of_lists() {
        check("exception_edits", 24, |rng| {
            let mut map = Exceptions::default();
            let mut model: BTreeMap<u32, Vec<Lpn>> = BTreeMap::new();
            let mut out = Vec::new();
            for step in 0..1_500u64 {
                let key = rng.range_u32(0, 400);
                // The own LPN of `key`'s location, and its lists' head.
                let own = Lpn(1 << 40 | u64::from(key));
                let list = model.entry(key).or_default();
                match rng.weighted(&[5, 5, 1]) {
                    0 => {
                        let head = rng.chance(0.3).then_some(own);
                        let n = if rng.chance(0.01) {
                            70
                        } else {
                            rng.range_usize(0, 1)
                        };
                        let lpns: Vec<Lpn> = (0..n as u64).map(|i| Lpn(step << 8 | i)).collect();
                        list.extend(head);
                        list.extend_from_slice(&lpns);
                        map.append(key, head, &lpns);
                    }
                    1 => {
                        let lpn = list.get(rng.range_usize(0, list.len())).copied();
                        let lpn = lpn.unwrap_or(Lpn(u64::MAX));
                        if let Some(i) = list.iter().position(|&l| l == lpn) {
                            list.remove(i);
                        }
                        let want = match list.as_slice() {
                            [] => Left::Nothing,
                            [only] if *only == own => Left::Own,
                            _ => Left::List,
                        };
                        if want != Left::List {
                            list.clear();
                        }
                        assert_eq!(map.remove(key, lpn, || Some(own)), want, "step {step}");
                    }
                    _ => {
                        out.clear();
                        map.take(key, &mut out);
                        assert_eq!(out, std::mem::take(list), "step {step}");
                    }
                }
                if model.get(&key).is_some_and(Vec::is_empty) {
                    model.remove(&key);
                }
                let pairs = map.check().unwrap();
                assert_eq!(pairs, model.values().map(Vec::len).sum::<usize>());
                let got = model.get(&key).map_or(&[][..], Vec::as_slice);
                assert_eq!(map.get(key), got, "step {step}");
            }
            for (&key, list) in &model {
                assert_eq!(map.get(key), list.as_slice());
            }
        });
    }
}
