//! Physical layout of the NAND array and address arithmetic.

use std::fmt;

/// A physical page number: a dense index over every page in the array.
///
/// `Ppn` is the currency between the FTL and the flash array; use
/// [`FlashGeometry::decompose`] to recover the structural address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Ppn(pub u64);

impl Ppn {
    /// The page number as a table index for `slice::get`: an id the host's
    /// `usize` cannot hold is `usize::MAX`, which no table contains.
    pub fn index(self) -> usize {
        table_index(self.0)
    }
}

impl fmt::Display for Ppn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ppn:{}", self.0)
    }
}

/// A dense index over every block in the array.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct BlockId(pub u64);

impl BlockId {
    /// The block id as a table index for `slice::get`: an id the host's
    /// `usize` cannot hold is `usize::MAX`, which no table contains.
    pub fn index(self) -> usize {
        table_index(self.0)
    }
}

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "blk:{}", self.0)
    }
}

/// A 64-bit address or count as an index for `slice::get`: a value the
/// host's `usize` cannot hold becomes `usize::MAX`, which no table
/// contains, so it reads as "absent" — never as slot `value mod 2^32`.
pub(crate) fn table_index(value: u64) -> usize {
    usize::try_from(value).unwrap_or(usize::MAX)
}

/// `value mod modulus`, which fits the modulus' type.
#[expect(
    clippy::cast_possible_truncation,
    reason = "a remainder is smaller than its modulus, and the modulus is a u32"
)]
fn rem_u32(value: u64, modulus: u32) -> u32 {
    (value % u64::from(modulus)) as u32
}

/// Structural (channel/die/plane/block/page) form of a physical address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Ppa {
    /// Channel index within the device.
    pub channel: u32,
    /// Die index within the channel.
    pub die: u32,
    /// Plane index within the die.
    pub plane: u32,
    /// Block index within the plane.
    pub block: u32,
    /// Page index within the block.
    pub page: u32,
}

/// Shape of the NAND array.
///
/// Blocks are numbered plane-major so that consecutive [`BlockId`]s rotate
/// across channels, giving the log-structured allocator free channel
/// parallelism when it stripes writes.
///
/// # Examples
///
/// ```
/// use checkin_flash::FlashGeometry;
///
/// let g = FlashGeometry::small(); // test-sized array
/// assert_eq!(g.total_pages(), g.total_blocks() * g.pages_per_block as u64);
/// let ppn = g.compose(g.decompose(checkin_flash::Ppn(1234)));
/// assert_eq!(ppn.0, 1234);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlashGeometry {
    /// Independent channels (buses).
    pub channels: u32,
    /// Dies per channel; a die serves one array operation at a time.
    pub dies_per_channel: u32,
    /// Planes per die. A die programs up to this many pages in one
    /// tPROG, one per plane at one page index, and senses as many in one
    /// tR for one command; erases take the die one plane at a time.
    pub planes_per_die: u32,
    /// Blocks per plane.
    pub blocks_per_plane: u32,
    /// Pages per block; pages must be programmed in order within a block.
    pub pages_per_block: u32,
    /// Bytes per physical page (data area, excluding OOB).
    pub page_bytes: u32,
}

impl FlashGeometry {
    /// Geometry mirroring the paper's SimpleSSD-style configuration scaled
    /// for simulation speed: 4 channels x 2 dies x 2 planes x 192 blocks x
    /// 256 pages x 4 KiB = 3 GiB.
    pub fn paper_default() -> Self {
        FlashGeometry {
            channels: 4,
            dies_per_channel: 2,
            planes_per_die: 2,
            blocks_per_plane: 192,
            pages_per_block: 256,
            page_bytes: 4096,
        }
    }

    /// A tiny array (2 ch x 1 die x 1 plane x 32 blk x 32 pages x 4 KiB =
    /// 4 MiB) for unit tests that need GC pressure quickly.
    pub fn small() -> Self {
        FlashGeometry {
            channels: 2,
            dies_per_channel: 1,
            planes_per_die: 1,
            blocks_per_plane: 32,
            pages_per_block: 32,
            page_bytes: 4096,
        }
    }

    /// Validates that every dimension is non-zero.
    ///
    /// # Errors
    ///
    /// Returns a description of the offending dimension.
    pub fn validate(&self) -> Result<(), String> {
        let dims = [
            ("channels", self.channels),
            ("dies_per_channel", self.dies_per_channel),
            ("planes_per_die", self.planes_per_die),
            ("blocks_per_plane", self.blocks_per_plane),
            ("pages_per_block", self.pages_per_block),
            ("page_bytes", self.page_bytes),
        ];
        for (name, v) in dims {
            if v == 0 {
                return Err(format!("geometry dimension {name} must be non-zero"));
            }
        }
        if !self.page_bytes.is_power_of_two() {
            return Err("page_bytes must be a power of two".to_string());
        }
        Ok(())
    }

    /// Total dies in the device.
    pub fn total_dies(&self) -> u64 {
        self.channels as u64 * self.dies_per_channel as u64
    }

    /// Total planes in the device.
    pub fn total_planes(&self) -> u64 {
        self.total_dies() * self.planes_per_die as u64
    }

    /// Total blocks in the device.
    pub fn total_blocks(&self) -> u64 {
        self.total_planes() * self.blocks_per_plane as u64
    }

    /// Total pages in the device.
    pub fn total_pages(&self) -> u64 {
        self.total_blocks() * self.pages_per_block as u64
    }

    /// Raw capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.total_pages() * self.page_bytes as u64
    }

    /// Maps a block id to its structural position. Blocks are striped:
    /// consecutive ids land on consecutive channels, then dies, then
    /// planes, then advance within the plane.
    ///
    /// An id at or past [`FlashGeometry::total_blocks`] has no position:
    /// debug builds panic, release builds saturate its `block` field at
    /// `u32::MAX` rather than wrap it onto a block that exists.
    pub fn block_position(&self, block: BlockId) -> Ppa {
        let b = block.0;
        debug_assert!(b < self.total_blocks(), "block id out of range: {block}");
        let channel = rem_u32(b, self.channels);
        let rest = b / self.channels as u64;
        let die = rem_u32(rest, self.dies_per_channel);
        let rest = rest / self.dies_per_channel as u64;
        let plane = rem_u32(rest, self.planes_per_die);
        let block_in_plane = u32::try_from(rest / self.planes_per_die as u64).unwrap_or(u32::MAX);
        Ppa {
            channel,
            die,
            plane,
            block: block_in_plane,
            page: 0,
        }
    }

    /// The dense die index `(channel, die)` of a block — the contention
    /// domain for array operations.
    pub fn die_of_block(&self, block: BlockId) -> u64 {
        self.die_at(self.block_position(block))
    }

    /// The dense plane index of a block. Block ids stripe channel, die,
    /// then plane, so the first [`FlashGeometry::total_planes`] ids name
    /// every plane once and each later id repeats one of them.
    pub fn plane_of_block(&self, block: BlockId) -> u64 {
        block.0 % self.total_planes()
    }

    /// True when one array operation of a die takes `a` and `b`
    /// together — a multi-plane program or read: pages of one die, on
    /// two of its planes, at one page index.
    pub fn plane_partners(&self, a: Ppn, b: Ppn) -> bool {
        let (a, b) = (self.decompose(a), self.decompose(b));
        (a.channel, a.die, a.page) == (b.channel, b.die, b.page) && a.plane != b.plane
    }

    /// The dense die index of a structural position.
    pub(crate) fn die_at(&self, pos: Ppa) -> u64 {
        pos.channel as u64 * self.dies_per_channel as u64 + pos.die as u64
    }

    /// First PPN of `block`.
    pub fn first_ppn(&self, block: BlockId) -> Ppn {
        Ppn(block.0 * self.pages_per_block as u64)
    }

    /// PPN of `page` within `block`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `page` exceeds the block size.
    pub fn ppn_in_block(&self, block: BlockId, page: u32) -> Ppn {
        debug_assert!(page < self.pages_per_block, "page index out of range");
        Ppn(block.0 * self.pages_per_block as u64 + page as u64)
    }

    /// Block containing `ppn`.
    pub fn block_of(&self, ppn: Ppn) -> BlockId {
        BlockId(ppn.0 / self.pages_per_block as u64)
    }

    /// Page offset of `ppn` within its block.
    pub fn page_in_block(&self, ppn: Ppn) -> u32 {
        rem_u32(ppn.0, self.pages_per_block)
    }

    /// Structural address of a PPN.
    pub fn decompose(&self, ppn: Ppn) -> Ppa {
        let block = self.block_of(ppn);
        let mut pos = self.block_position(block);
        pos.page = self.page_in_block(ppn);
        pos
    }

    /// Dense PPN of a structural address.
    pub fn compose(&self, ppa: Ppa) -> Ppn {
        let block_in_plane = ppa.block as u64;
        let b = ((block_in_plane * self.planes_per_die as u64 + ppa.plane as u64)
            * self.dies_per_channel as u64
            + ppa.die as u64)
            * self.channels as u64
            + ppa.channel as u64;
        Ppn(b * self.pages_per_block as u64 + ppa.page as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_multiply_out() {
        let g = FlashGeometry::paper_default();
        assert_eq!(g.total_dies(), 8);
        assert_eq!(g.total_planes(), 16);
        assert_eq!(g.total_blocks(), 16 * 192);
        assert_eq!(g.capacity_bytes(), 16 * 192 * 256 * 4096);
    }

    #[test]
    fn validate_catches_zero_dims() {
        let mut g = FlashGeometry::small();
        g.channels = 0;
        assert!(g.validate().unwrap_err().contains("channels"));
        let mut g = FlashGeometry::small();
        g.page_bytes = 3000;
        assert!(g.validate().unwrap_err().contains("power of two"));
        assert!(FlashGeometry::paper_default().validate().is_ok());
    }

    #[test]
    fn ppn_roundtrip_all_small() {
        let g = FlashGeometry::small();
        for raw in 0..g.total_pages() {
            let ppa = g.decompose(Ppn(raw));
            assert_eq!(g.compose(ppa), Ppn(raw));
        }
    }

    #[test]
    fn blocks_stripe_channels_first() {
        let g = FlashGeometry::paper_default();
        let p0 = g.block_position(BlockId(0));
        let p1 = g.block_position(BlockId(1));
        let p4 = g.block_position(BlockId(4));
        assert_eq!(p0.channel, 0);
        assert_eq!(p1.channel, 1);
        assert_eq!(p4.channel, 0);
        assert_eq!(p4.die, 1, "after all channels, advance die");
    }

    #[test]
    fn block_and_page_of_ppn() {
        let g = FlashGeometry::small();
        let ppn = g.ppn_in_block(BlockId(3), 7);
        assert_eq!(g.block_of(ppn), BlockId(3));
        assert_eq!(g.page_in_block(ppn), 7);
        assert_eq!(g.first_ppn(BlockId(3)), Ppn(3 * 32));
    }

    #[test]
    fn die_of_block_is_stable_per_block() {
        let g = FlashGeometry::paper_default();
        for b in 0..64 {
            let die = g.die_of_block(BlockId(b));
            assert!(die < g.total_dies());
            let pos = g.block_position(BlockId(b));
            assert_eq!(die, pos.channel as u64 * 2 + pos.die as u64);
        }
    }

    #[test]
    fn plane_partners_share_a_die_and_a_page_index_on_two_planes() {
        let g = FlashGeometry::paper_default();
        // Die 0 of channel 0: blocks 0 and 16 on plane 0, 8 on plane 1;
        // block 4 is the channel's other die.
        let ppn = |block, page| g.ppn_in_block(BlockId(block), page);
        assert!(g.plane_partners(ppn(0, 3), ppn(8, 3)));
        assert!(g.plane_partners(ppn(8, 3), ppn(16, 3)));
        assert!(!g.plane_partners(ppn(0, 3), ppn(16, 3)), "one plane");
        assert!(!g.plane_partners(ppn(0, 3), ppn(8, 4)), "two page indices");
        assert!(!g.plane_partners(ppn(0, 3), ppn(12, 3)), "two dies");
        assert!(!g.plane_partners(ppn(0, 3), ppn(0, 3)), "one page");
    }

    #[test]
    fn plane_of_block_names_the_structural_plane() {
        let g = FlashGeometry::paper_default();
        let planes: Vec<u64> = (0..g.total_planes())
            .map(|b| g.plane_of_block(BlockId(b)))
            .collect();
        assert_eq!(planes, (0..16).collect::<Vec<_>>(), "one id per plane");
        for b in 0..g.total_blocks() {
            let (block, pos) = (BlockId(b), g.block_position(BlockId(b)));
            let first = BlockId(g.plane_of_block(block));
            let first_pos = g.block_position(first);
            assert_eq!(
                (first_pos.channel, first_pos.die, first_pos.plane),
                (pos.channel, pos.die, pos.plane),
                "{block}"
            );
            assert_eq!(g.die_of_block(first), g.die_of_block(block));
        }
    }
}
