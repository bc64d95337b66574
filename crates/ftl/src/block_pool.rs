//! Block lifecycle and placement: which blocks are free, which one each
//! write point is filling, which are closed (GC candidates) or retired,
//! and how many still-referenced units each holds.
//!
//! The pool alone can state the rule the allocator once broke (an
//! `Active` block no write point owned was never closed and never a GC
//! victim): every `Active` block is exactly one write point's current
//! block.
//!
//! Write point `wp` fills blocks of plane `wp % total_planes`, so that
//! write points on distinct planes keep programming side by side however
//! GC recycles blocks (DESIGN.md §4, "Multi-plane programs"). Page-outs
//! go to dies, not write points: one takes a page on every write point
//! of its die's group at once, so a die's write points advance in
//! lockstep and each page-out is one multi-plane program. Each goes to
//! the group whose die can start a program first
//! ([`BlockPool::choose_group`]).

use std::collections::VecDeque;

use checkin_flash::{BlockId, FlashArray, FlashGeometry};
use checkin_sim::{Counter, CounterSet, SimTime};

use crate::error::RecoveryError;
use crate::mapping::MappingTable;

/// Lifecycle of a physical block from the FTL's perspective.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BlockKind {
    Free,
    Active,
    Closed,
    /// Permanently out of service (grown defect or failed erase). Never
    /// selected as a GC or wear-leveling victim and never recycled into
    /// the free pool.
    Retired,
}

/// What the pool knows about one block.
#[derive(Debug, Clone, Copy)]
struct BlockSlot {
    kind: BlockKind,
    /// Units of the block the mapping table still references.
    valid_units: u32,
    /// Monotone close rank (lower closed earlier); victim selection
    /// looks at the oldest closed blocks only.
    close_seq: u64,
}

#[derive(Debug)]
pub(crate) struct BlockPool {
    geometry: FlashGeometry,
    /// Oldest first, in the order blocks were freed.
    free_blocks: VecDeque<BlockId>,
    /// Indexed by block id, through [`BlockPool::slot`] only.
    blocks: Vec<BlockSlot>,
    close_counter: u64,
    /// Per-write-point current block and next page cursor.
    actives: Vec<Option<(BlockId, u32)>>,
    /// The write points grouped by die, one per plane at most
    /// ([`BlockPool::group`]), groups in order of their lowest write
    /// point.
    groups: Vec<Group>,
    /// Where [`BlockPool::choose_group`]'s tie-break order starts: the
    /// group after the last one chosen.
    next_group: usize,
}

/// One die's write points, at most one per plane.
#[derive(Debug)]
struct Group {
    /// The dense index of the die ([`FlashGeometry::die_of_block`]) of
    /// the group's home planes. A write point that found no free block
    /// on its own plane programs another plane's (`ftl.off_plane_opens`),
    /// possibly on another die, until that block closes; placement still
    /// asks the home die meanwhile. Such opens are rare (none on a
    /// device with free blocks on every plane), so the approximation is
    /// kept rather than a die looked up per page-out.
    die: usize,
    write_points: Vec<usize>,
}

impl BlockPool {
    pub(crate) fn new(g: &FlashGeometry, write_points: u32) -> Self {
        let ids = (0..g.total_blocks()).map(BlockId);
        let erased = BlockSlot {
            kind: BlockKind::Free,
            valid_units: 0,
            close_seq: 0,
        };
        // A write point's group: its die, and which lap of the planes it
        // is on (a device with more write points than planes has two
        // write points per plane, and one group cannot hold both).
        // Groups form in write-point order, so ties between dies go to
        // the order write points 0, 1, … first reach them.
        let planes = g.total_planes();
        let die_lap = |wp: usize| {
            let wp = wp as u64;
            let die = g.die_of_block(BlockId(wp % planes));
            // A die index is below `total_dies`, a table length.
            (wp / planes, usize::try_from(die).unwrap_or(usize::MAX))
        };
        let mut groups: Vec<Group> = Vec::new();
        for wp in 0..write_points as usize {
            let (lap, die) = die_lap(wp);
            let same = |group: &&mut Group| {
                group.write_points.first().map(|&w| die_lap(w)) == Some((lap, die))
            };
            match groups.iter_mut().find(same) {
                Some(group) => group.write_points.push(wp),
                None => groups.push(Group {
                    die,
                    write_points: vec![wp],
                }),
            }
        }
        BlockPool {
            geometry: *g,
            free_blocks: ids.clone().collect(),
            blocks: ids.map(|_| erased).collect(),
            close_counter: 0,
            actives: vec![None; write_points as usize],
            groups,
            next_group: 0,
        }
    }

    fn slot(&self, block: BlockId) -> Option<&BlockSlot> {
        self.blocks.get(block.index())
    }

    /// The slot an update goes to. A block id the device does not have is
    /// a caller bug: loud in debug builds, and nothing to update in
    /// release ones.
    fn slot_mut(&mut self, block: BlockId) -> Option<&mut BlockSlot> {
        let slot = self.blocks.get_mut(block.index());
        debug_assert!(slot.is_some(), "{block} is not a block of this device");
        slot
    }

    fn set_kind(&mut self, block: BlockId, kind: BlockKind) {
        if let Some(slot) = self.slot_mut(block) {
            slot.kind = kind;
        }
    }

    pub(crate) fn free_count(&self) -> usize {
        self.free_blocks.len()
    }

    /// True for a fully programmed, in-service block.
    pub(crate) fn is_closed(&self, block: BlockId) -> bool {
        self.slot(block)
            .is_some_and(|s| s.kind == BlockKind::Closed)
    }

    pub(crate) fn valid_units(&self, block: BlockId) -> u32 {
        self.slot(block).map_or(0, |s| s.valid_units)
    }

    /// One more unit of `block` is referenced by the mapping table.
    pub(crate) fn add_valid(&mut self, block: BlockId) {
        if let Some(slot) = self.slot_mut(block) {
            slot.valid_units += 1;
        }
    }

    /// One unit of `block` lost its last reference (or was relocated).
    pub(crate) fn sub_valid(&mut self, block: BlockId) {
        if let Some(slot) = self.slot_mut(block) {
            debug_assert!(slot.valid_units > 0, "valid count underflow on {block}");
            slot.valid_units = slot.valid_units.saturating_sub(1);
        }
    }

    /// The group of write points a page-out issued at `at` goes to: the
    /// one whose die can start a program earliest, `start(die)` being
    /// when die `die` could. Ties go to rotation order, from the group
    /// after the last one chosen, so on an idle device the page-outs
    /// visit the groups in turn. The scan asks each group once, in that
    /// order, and stops at the first die that can start at `at`: no
    /// later one can start earlier. `None` for a pool built with no
    /// write points.
    pub(crate) fn choose_group(
        &mut self,
        at: SimTime,
        start: impl Fn(usize) -> SimTime,
    ) -> Option<usize> {
        let groups = || self.groups.iter().enumerate();
        let rotation = groups()
            .skip(self.next_group)
            .chain(groups().take(self.next_group));
        let mut best: Option<(SimTime, usize)> = None;
        for (group, Group { die, .. }) in rotation {
            let first = start(*die);
            if best.is_none_or(|(earliest, _)| first < earliest) {
                best = Some((first, group));
            }
            if first <= at {
                break;
            }
        }
        let (_, group) = best?;
        self.next_group = (group + 1) % self.groups.len();
        Some(group)
    }

    /// The write points of `group`, in order: one die's, at most one per
    /// plane. Empty for a group the pool does not have.
    pub(crate) fn group(&self, group: usize) -> &[usize] {
        self.groups
            .get(group)
            .map_or(&[], |g| g.write_points.as_slice())
    }

    /// True when `wp` has no block open: its next page needs a free one.
    pub(crate) fn needs_block(&self, wp: usize) -> bool {
        matches!(self.actives.get(wp), Some(None))
    }

    /// Next page of the block `wp` is filling, closing the block when
    /// that was its last page. `None` when `wp` has no block open.
    pub(crate) fn take_page(&mut self, wp: usize) -> Option<(BlockId, u32)> {
        let active = self.actives.get_mut(wp)?;
        let (block, page) = (*active)?;
        if page + 1 < self.geometry.pages_per_block {
            *active = Some((block, page + 1));
        } else {
            *active = None;
            self.close_counter += 1;
            let close_seq = self.close_counter;
            if let Some(slot) = self.slot_mut(block) {
                slot.kind = BlockKind::Closed;
                slot.close_seq = close_seq;
            }
        }
        Some((block, page))
    }

    /// Gives back the page [`BlockPool::take_page`] or
    /// [`BlockPool::open_block`] just handed `wp` — `(block, page)` —
    /// because nothing was programmed there: `wp` fills that page next,
    /// and a block its last page closed is open again.
    pub(crate) fn untake(&mut self, wp: usize, (block, page): (BlockId, u32)) {
        if let Some(active) = self.actives.get_mut(wp) {
            debug_assert!(
                active.is_none_or(|a| a == (block, page + 1)),
                "write point {wp} moved past {block} page {page}"
            );
            *active = Some((block, page));
            self.set_kind(block, BlockKind::Active);
        }
    }

    /// Opens a fresh block on `wp` — which must have none open — and
    /// returns its first page. The block is the oldest free one on `wp`'s
    /// own plane; only when that plane has none is it the oldest free
    /// block of any plane, counted under `ftl.off_plane_opens`. `None`
    /// when the free pool is empty.
    pub(crate) fn open_block(
        &mut self,
        wp: usize,
        counters: &mut CounterSet,
    ) -> Option<(BlockId, u32)> {
        debug_assert!(
            matches!(self.actives.get(wp), Some(None)),
            "write point {wp} already open"
        );
        let g = &self.geometry;
        let plane = wp as u64 % g.total_planes();
        let own = self
            .free_blocks
            .iter()
            .position(|&b| g.plane_of_block(b) == plane);
        let at = own.unwrap_or(0);
        let block = *self.free_blocks.get(at)?;
        *self.actives.get_mut(wp)? = Some((block, 0));
        self.free_blocks.remove(at);
        if own.is_none() {
            counters.incr(Counter::FtlOffPlaneOpens);
        }
        self.set_kind(block, BlockKind::Active);
        self.take_page(wp)
    }

    /// How many groups page-outs choose from.
    #[cfg(test)]
    pub(crate) fn groups(&self) -> usize {
        self.groups.len()
    }

    /// The page `wp` fills next, `None` while it has no block open.
    #[cfg(test)]
    pub(crate) fn cursor(&self, wp: usize) -> Option<u32> {
        self.actives
            .get(wp)
            .copied()
            .flatten()
            .map(|(_, page)| page)
    }

    /// Each write point's open block, by write point.
    #[cfg(test)]
    pub(crate) fn open_blocks(&self) -> impl Iterator<Item = (usize, BlockId)> + '_ {
        (self.actives.iter().enumerate()).filter_map(|(wp, a)| Some((wp, a.as_ref()?.0)))
    }

    fn blocks(&self) -> impl Iterator<Item = (BlockId, &BlockSlot)> + '_ {
        (0..).map(BlockId).zip(&self.blocks)
    }

    fn closed_blocks(&self) -> impl Iterator<Item = (BlockId, &BlockSlot)> + '_ {
        self.blocks().filter(|(_, s)| s.kind == BlockKind::Closed)
    }

    /// How many of the oldest closed blocks the victim scan sees. Greedy
    /// over every closed block keeps picking young blocks whose last
    /// valid units are about to die anyway; holding the scan to the
    /// oldest few gives them time to. A const, not a knob: 8 is the one
    /// width measured against unwindowed greedy (it won or tied every
    /// cell; EXPERIMENTS.md, "Rows retired") and no caller wants another.
    pub(crate) const GC_VICTIM_WINDOW: usize = 8;

    /// The GC victim: among the [`Self::GC_VICTIM_WINDOW`] oldest closed
    /// blocks (by close order, then block id) that would yield free space
    /// (fewer than `capacity` valid units), the one with the fewest valid
    /// units, then the least worn, then the lowest block id — a total
    /// order over integers, so the choice is deterministic.
    pub(crate) fn select_victim(&self, capacity: u32, flash: &FlashArray) -> Option<BlockId> {
        // GC runs inside the query loop, so the window is a fixed array
        // kept sorted by age, not a collected and sorted vector.
        let mut oldest = [((0, BlockId(0)), 0); Self::GC_VICTIM_WINDOW];
        let mut len = 0;
        let candidates = self
            .closed_blocks()
            .filter(|(_, s)| s.valid_units < capacity);
        for (block, s) in candidates {
            let age = (s.close_seq, block);
            let seat = oldest
                .get(..len)
                .unwrap_or_default()
                .partition_point(|&(older, _)| older < age);
            if seat == Self::GC_VICTIM_WINDOW {
                continue;
            }
            oldest.copy_within(seat..Self::GC_VICTIM_WINDOW - 1, seat + 1);
            if let Some(taken) = oldest.get_mut(seat) {
                *taken = (age, s.valid_units);
            }
            len = (len + 1).min(Self::GC_VICTIM_WINDOW);
        }
        let window = oldest.get(..len).unwrap_or_default();
        window
            .iter()
            .map(|&((_, block), valid)| (valid, flash.erase_count(block), block.0))
            .min()
            .map(|(.., block)| BlockId(block))
    }

    /// The least-erased closed block (the static wear-leveling victim).
    pub(crate) fn coldest_closed(&self, flash: &FlashArray) -> Option<BlockId> {
        self.closed_blocks()
            .map(|(block, _)| block)
            .min_by_key(|b| flash.erase_count(*b))
    }

    /// Spread between the most-erased **in-service** block and the coldest
    /// block still holding data (free blocks recirculate on their own, so
    /// only closed blocks can pin cold data to barely-worn cells). Retired
    /// blocks are out of both sides of the comparison: a retired block
    /// will never be erased again, so its (often high) erase count says
    /// nothing about skew that wear leveling could still fix.
    pub(crate) fn wear_delta(&self, flash: &FlashArray) -> u64 {
        let mut max: Option<u64> = None;
        let mut min_closed: Option<u64> = None;
        for (block, slot) in self.blocks() {
            if slot.kind == BlockKind::Retired {
                continue;
            }
            let erases = flash.erase_count(block);
            max = Some(max.map_or(erases, |m| m.max(erases)));
            if slot.kind == BlockKind::Closed {
                min_closed = Some(min_closed.map_or(erases, |m| m.min(erases)));
            }
        }
        match (max, min_closed) {
            (Some(max), Some(min)) => max.saturating_sub(min),
            _ => 0,
        }
    }

    /// Returns an erased block to the tail of the free pool.
    pub(crate) fn recycle(&mut self, block: BlockId) {
        self.set_kind(block, BlockKind::Free);
        self.free_blocks.push_back(block);
    }

    /// Takes an open or closed block out of service for good.
    pub(crate) fn retire(&mut self, block: BlockId) {
        self.set_kind(block, BlockKind::Retired);
        for a in &mut self.actives {
            if a.is_some_and(|(b, _)| b == block) {
                *a = None;
            }
        }
    }

    /// Post-power-loss reset from what the flash itself knows: bad-block
    /// marks retire, any programmed block is closed (no write point
    /// survives a cut), the rest are free; valid counts are recounted
    /// from the recovered `table`. Close order is a runtime heuristic,
    /// not durable state: surviving closed blocks are re-ranked in
    /// block-id order — deterministic, and only victim *preference*,
    /// never correctness, depends on it.
    pub(crate) fn rebuild(
        &mut self,
        flash: &FlashArray,
        table: &MappingTable,
        upp: u32,
    ) -> Result<(), RecoveryError> {
        let valid = self
            .count_valid_units(table, upp)
            .ok_or(RecoveryError::Inconsistent(
                "recovered mapping references an out-of-range block",
            ))?;
        self.free_blocks.clear();
        self.close_counter = 0;
        for ((id, slot), valid_units) in (0..).map(BlockId).zip(&mut self.blocks).zip(valid) {
            let mut close_seq = 0;
            let kind = if flash.is_bad_block(id) {
                BlockKind::Retired
            } else if flash.write_cursor(id) > 0 {
                self.close_counter += 1;
                close_seq = self.close_counter;
                BlockKind::Closed
            } else {
                self.free_blocks.push_back(id);
                BlockKind::Free
            };
            *slot = BlockSlot {
                kind,
                valid_units,
                close_seq,
            };
        }
        self.actives.fill(None);
        self.next_group = 0;
        Ok(())
    }

    /// Free, active, closed and retired partition the blocks: a free
    /// block is on the free list once, an active block is exactly one
    /// write point's current block, nothing else is on either; valid
    /// counts equal what `table` references, and free and retired blocks
    /// hold none.
    pub(crate) fn check_invariants(&self, table: &MappingTable, upp: u32) -> Result<(), String> {
        let expect = self
            .count_valid_units(table, upp)
            .ok_or("mapping references an out-of-range block")?;
        for ((b, slot), &want) in self.blocks().zip(&expect) {
            let BlockSlot {
                kind, valid_units, ..
            } = *slot;
            let listed = self.free_blocks.iter().filter(|&&f| f == b).count();
            let owners = self.actives.iter().flatten().filter(|a| a.0 == b).count();
            let placed = match kind {
                BlockKind::Free => (listed, owners, valid_units) == (1, 0, 0),
                BlockKind::Active => (listed, owners) == (0, 1),
                BlockKind::Closed => (listed, owners) == (0, 0),
                BlockKind::Retired => (listed, owners, valid_units) == (0, 0, 0),
            };
            if !placed || valid_units != want {
                return Err(format!(
                    "{b} is {kind:?}: on the free list {listed}x, filled by {owners} write \
                     points, valid_units={valid_units}, table references {want}"
                ));
            }
        }
        Ok(())
    }

    /// Per-block count of flash units the table references: its
    /// referenced bits in each block's range, so a unit aliased by
    /// several lpns counts once. `None` when a referenced unit lies past
    /// the last block.
    fn count_valid_units(&self, table: &MappingTable, upp: u32) -> Option<Vec<u32>> {
        let mut valid = vec![0u32; self.blocks.len()];
        for pun in table.referenced_units() {
            *valid.get_mut(self.geometry.block_of(pun.page(upp)).index())? += 1;
        }
        Some(valid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::location::Location;
    use crate::location::{Lpn, Pun};
    use checkin_flash::{FlashTiming, PageContent, Ppn};
    use checkin_sim::SimTime;

    fn geometry() -> FlashGeometry {
        FlashGeometry {
            channels: 1,
            dies_per_channel: 1,
            planes_per_die: 1,
            blocks_per_plane: 8,
            pages_per_block: 4,
            page_bytes: 4096,
        }
    }

    /// Enough blocks to close one more than the victim window holds.
    fn wide_geometry() -> FlashGeometry {
        FlashGeometry {
            blocks_per_plane: 16,
            ..geometry()
        }
    }

    /// One die of two planes, four blocks each: even block ids are plane
    /// 0, odd ones plane 1.
    fn two_planes() -> FlashGeometry {
        FlashGeometry {
            planes_per_die: 2,
            blocks_per_plane: 4,
            ..geometry()
        }
    }

    const WINDOW: usize = BlockPool::GC_VICTIM_WINDOW;

    impl BlockPool {
        /// [`BlockPool::open_block`] for a test that does not look at
        /// the counters.
        fn open(&mut self, wp: usize) -> Option<(BlockId, u32)> {
            self.open_block(wp, &mut CounterSet::new())
        }

        /// Opens a block on `wp` and fills it to closing; the block.
        fn fill(&mut self, wp: usize, counters: &mut CounterSet) -> BlockId {
            let (block, _) = self.open_block(wp, counters).expect("a free block");
            while self.take_page(wp).is_some() {}
            assert!(self.is_closed(block));
            block
        }
    }

    /// A [`two_planes`] pool whose two write points filled and closed
    /// every block, then got `recycled` back in that order.
    fn recycled_pool(recycled: &[u64]) -> BlockPool {
        let g = two_planes();
        let mut pool = BlockPool::new(&g, 2);
        let counters = &mut CounterSet::new();
        for wp in (0..2).cycle().take(g.total_blocks() as usize) {
            pool.fill(wp, counters);
        }
        assert_eq!(
            (pool.free_count(), counters.get(Counter::FtlOffPlaneOpens)),
            (0, 0)
        );
        for &b in recycled {
            pool.recycle(BlockId(b));
        }
        pool
    }

    /// The plane each open of `wp` landed on, `opens` times.
    fn planes_opened(pool: &mut BlockPool, wp: usize, opens: usize) -> Vec<u64> {
        let (g, counters) = (pool.geometry, &mut CounterSet::new());
        let planes = (0..opens)
            .map(|_| g.plane_of_block(pool.fill(wp, counters)))
            .collect();
        assert_eq!(counters.get(Counter::FtlOffPlaneOpens), 0);
        planes
    }

    #[test]
    fn a_write_point_reopens_on_its_own_plane_whatever_the_recycle_order() {
        let mut pool = recycled_pool(&[1, 3, 0, 5, 2, 7]);
        assert_eq!(planes_opened(&mut pool, 0, 2), [0, 0]);
        assert_eq!(planes_opened(&mut pool, 1, 4), [1, 1, 1, 1]);
        pool.check_invariants(&MappingTable::new(), 1).unwrap();
    }

    #[test]
    fn the_oldest_recycled_block_of_a_plane_opens_first() {
        let mut pool = recycled_pool(&[5, 6, 1, 2, 4, 3]);
        let counters = &mut CounterSet::new();
        let opened: Vec<u64> = (0..3).map(|_| pool.fill(0, counters).0).collect();
        assert_eq!(opened, [6, 2, 4], "plane 0 in recycle order, not id order");
        let opened: Vec<u64> = (0..3).map(|_| pool.fill(1, counters).0).collect();
        assert_eq!(opened, [5, 1, 3]);
        assert_eq!(counters.get(Counter::FtlOffPlaneOpens), 0);
    }

    #[test]
    fn a_plane_without_free_blocks_falls_back_to_the_oldest_free_block() {
        let mut pool = recycled_pool(&[3, 1]);
        let table = MappingTable::new();
        let counters = &mut CounterSet::new();
        assert_eq!(pool.open_block(0, counters), Some((BlockId(3), 0)));
        assert_eq!(counters.get(Counter::FtlOffPlaneOpens), 1);
        pool.check_invariants(&table, 1).unwrap();
        assert_eq!(pool.open_block(1, counters), Some((BlockId(1), 0)));
        assert_eq!(counters.get(Counter::FtlOffPlaneOpens), 1, "plane 1's own");
        pool.check_invariants(&table, 1).unwrap();
        assert_eq!(pool.free_count(), 0);
    }

    #[test]
    fn a_rebuilt_pool_opens_each_write_point_on_its_own_plane() {
        let g = two_planes();
        let mut flash = FlashArray::new(g, FlashTiming::mlc());
        // Block 0 (plane 0) holds a page, so the first free id is plane 1.
        flash
            .program(
                g.ppn_in_block(BlockId(0), 0),
                PageContent::empty(1),
                SimTime::ZERO,
            )
            .unwrap();
        let table = MappingTable::new();
        let mut pool = BlockPool::new(&g, 2);
        pool.rebuild(&flash, &table, 1).unwrap();
        assert_eq!(planes_opened(&mut pool, 0, 3), [0, 0, 0]);
        assert_eq!(planes_opened(&mut pool, 1, 4), [1, 1, 1, 1]);
        pool.check_invariants(&table, 1).unwrap();
    }

    /// A pool whose blocks `0..valid.len()` were filled and closed in
    /// that order, block `b` still holding `valid[b]` referenced units.
    fn closed_pool(g: &FlashGeometry, valid: &[u32]) -> BlockPool {
        let mut pool = BlockPool::new(g, 1);
        for (block, &units) in (0..).map(BlockId).zip(valid) {
            assert_eq!(pool.open(0), Some((block, 0)));
            while pool.take_page(0).is_some() {}
            assert!(pool.is_closed(block));
            for _ in 0..units {
                pool.add_valid(block);
            }
        }
        pool
    }

    #[test]
    fn victim_is_the_block_with_fewest_valid_units() {
        let g = geometry();
        let flash = FlashArray::new(g, FlashTiming::mlc());
        let pool = closed_pool(&g, &[5, 2, 7]);
        assert_eq!(pool.select_victim(16, &flash), Some(BlockId(1)));
    }

    #[test]
    fn victim_ties_break_on_wear_then_block_id() {
        let g = geometry();
        let mut flash = FlashArray::new(g, FlashTiming::mlc());
        let pool = closed_pool(&g, &[4, 4, 4]);
        assert_eq!(pool.select_victim(16, &flash), Some(BlockId(0)));
        flash.erase(BlockId(0), SimTime::ZERO).unwrap();
        assert_eq!(
            pool.select_victim(16, &flash),
            Some(BlockId(1)),
            "equal valid counts: a less-worn block wins, the lower id first"
        );
        flash.erase(BlockId(1), SimTime::ZERO).unwrap();
        assert_eq!(pool.select_victim(16, &flash), Some(BlockId(2)));
    }

    #[test]
    fn victim_scan_sees_only_the_oldest_closed_blocks() {
        let g = wide_geometry();
        let flash = FlashArray::new(g, FlashTiming::mlc());
        // The last block to close is the emptiest, but one too young.
        let mut valid = [3; WINDOW + 1];
        valid[5] = 2;
        valid[WINDOW] = 0;
        let mut pool = closed_pool(&g, &valid);
        assert_eq!(pool.select_victim(16, &flash), Some(BlockId(5)));
        // Reclaiming an older block moves the window up by one.
        pool.sub_valid(BlockId(5));
        pool.sub_valid(BlockId(5));
        pool.recycle(BlockId(5));
        assert_eq!(pool.select_victim(16, &flash), Some(BlockId(8)));
    }

    #[test]
    fn a_block_at_full_capacity_is_never_a_victim() {
        let g = wide_geometry();
        let flash = FlashArray::new(g, FlashTiming::mlc());
        assert_eq!(closed_pool(&g, &[4, 4]).select_victim(4, &flash), None);
        // Nor does it take a window seat from a block that would yield space.
        let mut valid = [4; WINDOW + 1];
        valid[WINDOW] = 3;
        let pool = closed_pool(&g, &valid);
        assert_eq!(pool.select_victim(4, &flash), Some(BlockId(8)));
    }

    #[test]
    fn a_pool_without_write_points_has_no_next_write_point() {
        let mut pool = BlockPool::new(&geometry(), 0);
        assert_eq!(pool.choose_group(SimTime::ZERO, |_| SimTime::ZERO), None);
        assert!(pool.group(0).is_empty());
    }

    #[test]
    fn write_points_fill_close_and_reopen() {
        let g = geometry();
        let table = MappingTable::new();
        let mut pool = BlockPool::new(&g, 2);
        assert_eq!(pool.take_page(0), None);
        assert_eq!(pool.open(0), Some((BlockId(0), 0)));
        // One plane: each write point is a group of its own, both on the
        // one die, so every choice is a tie and they take turns.
        let mut choose = || pool.choose_group(SimTime::ZERO, |_| SimTime::ZERO);
        assert_eq!([choose(), choose(), choose()], [Some(0), Some(1), Some(0)]);
        assert_eq!((pool.group(0), pool.group(1)), (&[0][..], &[1][..]));
        for page in 1..4 {
            assert!(!pool.is_closed(BlockId(0)));
            assert_eq!(pool.take_page(0), Some((BlockId(0), page)));
        }
        assert!(pool.is_closed(BlockId(0)));
        assert_eq!(pool.take_page(0), None);
        assert_eq!(pool.open(0), Some((BlockId(1), 0)));
        assert_eq!(pool.free_count(), 6);
        pool.check_invariants(&table, 1).unwrap();
    }

    /// What the allocator did before the re-check in
    /// `Ftl::alloc_page_slot`: foreground GC opened a block on the write
    /// point, then the interrupted allocation popped a second one over it.
    #[test]
    fn invariant_reports_an_active_block_no_write_point_owns() {
        let g = geometry();
        let table = MappingTable::new();
        let mut pool = BlockPool::new(&g, 1);
        let (opened_by_gc, _) = pool.open(0).unwrap();
        pool.actives[0] = None;
        pool.open(0).unwrap();
        let err = pool.check_invariants(&table, 1).unwrap_err();
        assert!(
            err.starts_with(&format!("{opened_by_gc} is Active: "))
                && err.contains("filled by 0 write points"),
            "{err}"
        );
    }

    #[test]
    fn invariant_reports_valid_count_drift_and_data_in_free_blocks() {
        let g = geometry();
        let mut table = MappingTable::new();
        let mut pool = BlockPool::new(&g, 1);
        // Two lpns alias one unit of block 0: it counts once.
        let pun = Pun::compose(Ppn(0), 0, 1);
        let _ = table.map(Lpn(0), Location::Flash(pun), |_| None);
        let _ = table.map(Lpn(1), Location::Flash(pun), |_| None);
        let err = pool.check_invariants(&table, 1).unwrap_err();
        assert!(err.ends_with("valid_units=0, table references 1"), "{err}");
        pool.add_valid(BlockId(0));
        let err = pool.check_invariants(&table, 1).unwrap_err();
        assert!(err.starts_with("blk:0 is Free: "), "{err}");
        pool.open(0).unwrap();
        pool.check_invariants(&table, 1).unwrap();
    }

    #[test]
    fn retiring_an_open_block_releases_its_write_point() {
        let g = geometry();
        let table = MappingTable::new();
        let mut pool = BlockPool::new(&g, 2);
        let (block, _) = pool.open(1).unwrap();
        pool.retire(block);
        assert_eq!(pool.take_page(1), None);
        pool.check_invariants(&table, 1).unwrap();
    }

    #[test]
    fn rebuild_reads_lifecycle_from_flash() {
        let g = geometry();
        let mut flash = FlashArray::new(g, FlashTiming::mlc());
        flash
            .program(
                g.ppn_in_block(BlockId(3), 0),
                PageContent::empty(1),
                SimTime::ZERO,
            )
            .unwrap();
        let mut table = MappingTable::new();
        let _ = table.map(
            Lpn(0),
            Location::Flash(Pun::compose(g.ppn_in_block(BlockId(3), 0), 0, 1)),
            |_| None,
        );
        let mut pool = BlockPool::new(&g, 1);
        pool.open(0).unwrap();
        pool.rebuild(&flash, &table, 1).unwrap();
        assert!(
            pool.is_closed(BlockId(3)),
            "programmed blocks come back closed"
        );
        assert_eq!(pool.valid_units(BlockId(3)), 1);
        assert_eq!(pool.free_count(), 7);
        assert_eq!(pool.take_page(0), None, "no write point survives a cut");
        assert_eq!(pool.select_victim(4, &flash), Some(BlockId(3)));
        pool.check_invariants(&table, 1).unwrap();

        // The first unit past the last block.
        let _ = table.map(Lpn(1), Location::Flash(Pun(g.total_pages())), |_| None);
        assert!(pool.rebuild(&flash, &table, 1).is_err());
    }

    /// Close order does not survive a cut: whatever order the blocks
    /// were programmed in, the rebuilt pool ranks them by block id.
    #[test]
    fn a_rebuilt_pool_ranks_closed_blocks_by_block_id() {
        let g = wide_geometry();
        let mut flash = FlashArray::new(g, FlashTiming::mlc());
        let mut table = MappingTable::new();
        // Only the last block by id holds nothing, and it is the ninth.
        for block in (0..=WINDOW as u64).rev().map(BlockId) {
            let ppn = g.ppn_in_block(block, 0);
            flash
                .program(ppn, PageContent::empty(1), SimTime::ZERO)
                .unwrap();
            if block.index() < WINDOW {
                let _ = table.map(
                    Lpn(block.0),
                    Location::Flash(Pun::compose(ppn, 0, 1)),
                    |_| None,
                );
            }
        }
        let mut pool = BlockPool::new(&g, 1);
        pool.rebuild(&flash, &table, 1).unwrap();
        assert_eq!(pool.select_victim(4, &flash), Some(BlockId(0)));
        pool.check_invariants(&table, 1).unwrap();
    }
}
