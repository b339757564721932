//! Stripe layout: the bijective mapping from a movie's logical block
//! index to a physical `(disk, offset)` location.
//!
//! Movies are laid out block-interleaved across all disks (RAID-0
//! style), with a per-movie starting disk so that the first blocks of
//! different movies do not all pile onto disk 0. The mapping and its
//! inverse are exact — `tests/prop_layout.rs` property-tests the
//! bijection over the movie's whole block range.
//!
//! Recorded movies cannot be laid out analytically — their blocks are
//! allocated one at a time as frames arrive — so they carry a
//! [`BlockMap`]: an append-built block → address table with the same
//! bijective `locate`/`invert` contract as [`StripeLayout`].

use std::collections::HashMap;
use std::fmt;

/// Identifier of a movie registered with the block store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MovieId(pub u32);

impl fmt::Display for MovieId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "movie-{}", self.0)
    }
}

/// A physical block location: which disk, and the block offset within
/// that disk's slice of the movie.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BlockAddr {
    /// Disk index in `0..disks`.
    pub disk: usize,
    /// Block offset within this movie's allocation on that disk.
    pub offset: u64,
}

/// Block-interleaved stripe layout of one movie over `disks` disks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StripeLayout {
    disks: usize,
    start_disk: usize,
    block_count: u64,
}

impl StripeLayout {
    /// Creates a layout of `block_count` blocks over `disks` disks,
    /// with block 0 on `start_disk`.
    ///
    /// # Panics
    ///
    /// Panics if `disks` is zero.
    pub fn new(disks: usize, start_disk: usize, block_count: u64) -> Self {
        assert!(disks > 0, "stripe layout needs at least one disk");
        StripeLayout {
            disks,
            start_disk: start_disk % disks,
            block_count,
        }
    }

    /// Total logical blocks in the movie.
    pub fn block_count(&self) -> u64 {
        self.block_count
    }

    /// Disk holding the movie's first block.
    pub fn start_disk(&self) -> usize {
        self.start_disk
    }

    /// Maps a logical block index to its physical location.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of the movie's block range.
    pub fn locate(&self, index: u64) -> BlockAddr {
        assert!(
            index < self.block_count,
            "block {index} out of range 0..{}",
            self.block_count
        );
        let disk = (self.start_disk + (index % self.disks as u64) as usize) % self.disks;
        BlockAddr {
            disk,
            offset: index / self.disks as u64,
        }
    }

    /// Inverts [`StripeLayout::locate`]: returns the logical block at
    /// `addr`, or `None` if no block of this movie lives there.
    pub fn invert(&self, addr: BlockAddr) -> Option<u64> {
        if addr.disk >= self.disks {
            return None;
        }
        let lane = (addr.disk + self.disks - self.start_disk) % self.disks;
        let index = addr
            .offset
            .checked_mul(self.disks as u64)?
            .checked_add(lane as u64)?;
        (index < self.block_count).then_some(index)
    }

    /// Iterator over all logical block indices.
    pub fn blocks(&self) -> impl Iterator<Item = u64> {
        0..self.block_count
    }
}

/// Append-built layout of a *recorded* movie: logical block `i` is
/// the `i`-th physical address the write path allocated. Unlike
/// [`StripeLayout`] the map is extensional — it holds whatever the
/// allocator handed out — but it keeps the same bijective
/// `locate`/`invert` contract the read path relies on.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BlockMap {
    addrs: Vec<BlockAddr>,
    inverse: HashMap<BlockAddr, u64>,
}

impl BlockMap {
    /// An empty map (a recording before its first full block).
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Appends the next block's physical address, returning its
    /// logical index.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is already mapped — the allocator must never
    /// hand out a live address twice.
    pub(crate) fn push(&mut self, addr: BlockAddr) -> u64 {
        let index = self.addrs.len() as u64;
        let prev = self.inverse.insert(addr, index);
        assert!(prev.is_none(), "block {addr:?} allocated twice");
        self.addrs.push(addr);
        index
    }

    /// Number of mapped blocks.
    pub(crate) fn block_count(&self) -> u64 {
        self.addrs.len() as u64
    }

    /// Maps a logical block index to its physical location.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of the recorded range.
    pub(crate) fn locate(&self, index: u64) -> BlockAddr {
        self.addrs[index as usize]
    }

    /// Inverts [`BlockMap::locate`]: the logical block at `addr`, or
    /// `None` if no block of this movie lives there.
    pub(crate) fn invert(&self, addr: BlockAddr) -> Option<u64> {
        self.inverse.get(&addr).copied()
    }

    /// Materializes a [`StripeLayout`] into an equivalent extensional
    /// map, so individual addresses can then be rewritten with
    /// [`BlockMap::replace`] (spindle-death rebuild relocates blocks
    /// one at a time).
    pub(crate) fn from_stripe(stripe: &StripeLayout) -> Self {
        let mut m = BlockMap::new();
        for b in stripe.blocks() {
            m.push(stripe.locate(b));
        }
        m
    }

    /// Rewrites the physical address of logical block `index`
    /// (rebuild moving a lost block to a surviving disk), keeping the
    /// inverse exact. Returns the address the block previously lived
    /// at.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range or `addr` is already mapped
    /// to a different block.
    pub(crate) fn replace(&mut self, index: u64, addr: BlockAddr) -> BlockAddr {
        let old = self.addrs[index as usize];
        if old == addr {
            return old;
        }
        let prev = self.inverse.insert(addr, index);
        assert!(prev.is_none(), "block {addr:?} allocated twice");
        self.inverse.remove(&old);
        self.addrs[index as usize] = addr;
        old
    }

    /// All physical addresses in logical-block order.
    pub(crate) fn addrs(&self) -> &[BlockAddr] {
        &self.addrs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_over_disks() {
        let l = StripeLayout::new(3, 1, 7);
        let addrs: Vec<BlockAddr> = l.blocks().map(|b| l.locate(b)).collect();
        assert_eq!(addrs[0], BlockAddr { disk: 1, offset: 0 });
        assert_eq!(addrs[1], BlockAddr { disk: 2, offset: 0 });
        assert_eq!(addrs[2], BlockAddr { disk: 0, offset: 0 });
        assert_eq!(addrs[3], BlockAddr { disk: 1, offset: 1 });
        // Consecutive blocks never share a disk (for disks > 1).
        for w in addrs.windows(2) {
            assert_ne!(w[0].disk, w[1].disk);
        }
    }

    #[test]
    fn invert_is_exact() {
        let l = StripeLayout::new(4, 2, 1000);
        for b in l.blocks() {
            assert_eq!(l.invert(l.locate(b)), Some(b));
        }
        // Past-the-end offsets do not invert.
        assert_eq!(l.invert(BlockAddr { disk: 9, offset: 0 }), None);
        let last = l.locate(999);
        assert_eq!(
            l.invert(BlockAddr {
                disk: last.disk,
                offset: last.offset + 1
            }),
            None
        );
    }

    #[test]
    fn single_disk_degenerates_to_identity() {
        let l = StripeLayout::new(1, 0, 10);
        for b in l.blocks() {
            assert_eq!(l.locate(b), BlockAddr { disk: 0, offset: b });
        }
    }

    #[test]
    fn block_map_appends_and_inverts() {
        let mut m = BlockMap::new();
        let a = BlockAddr { disk: 1, offset: 4 };
        let b = BlockAddr { disk: 0, offset: 9 };
        assert_eq!(m.push(a), 0);
        assert_eq!(m.push(b), 1);
        assert_eq!(m.block_count(), 2);
        assert_eq!(m.locate(0), a);
        assert_eq!(m.locate(1), b);
        assert_eq!(m.invert(b), Some(1));
        assert_eq!(m.invert(BlockAddr { disk: 2, offset: 0 }), None);
        assert_eq!(m.addrs(), &[a, b]);
    }

    #[test]
    fn block_map_from_stripe_matches_locate() {
        let l = StripeLayout::new(3, 1, 10);
        let m = BlockMap::from_stripe(&l);
        assert_eq!(m.block_count(), 10);
        for b in l.blocks() {
            assert_eq!(m.locate(b), l.locate(b));
            assert_eq!(m.invert(l.locate(b)), Some(b));
        }
    }

    #[test]
    fn block_map_replace_keeps_inverse_exact() {
        let mut m = BlockMap::from_stripe(&StripeLayout::new(2, 0, 4));
        let old = m.locate(2);
        let fresh = BlockAddr { disk: 1, offset: 7 };
        assert_eq!(m.replace(2, fresh), old);
        assert_eq!(m.locate(2), fresh);
        assert_eq!(m.invert(fresh), Some(2));
        assert_eq!(m.invert(old), None, "old address is unmapped");
        // Replacing with the same address is a no-op.
        assert_eq!(m.replace(2, fresh), fresh);
    }

    #[test]
    #[should_panic(expected = "allocated twice")]
    fn block_map_rejects_duplicate_addresses() {
        let mut m = BlockMap::new();
        m.push(BlockAddr { disk: 0, offset: 0 });
        m.push(BlockAddr { disk: 0, offset: 0 });
    }
}
