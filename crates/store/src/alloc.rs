//! Free-block allocation for the write path.
//!
//! Published synthetic movies are laid out analytically by
//! [`crate::StripeLayout`]; *recorded* movies are grown block by block
//! as frames arrive, so the store needs a real allocator handing out
//! physical offsets on each disk. The allocator is first-fit over a
//! free list: released offsets (aborted recordings, deleted movies)
//! are reused lowest-first before the high-water mark grows, and an
//! offset is never handed out twice while allocated —
//! `tests/prop_write_path.rs` property-tests that invariant through
//! the recording API.

use std::collections::BTreeSet;

/// The offset space of one disk: a high-water mark plus a free list
/// of released offsets below it.
#[derive(Debug, Clone, Default)]
pub struct BlockAllocator {
    next: u64,
    free: BTreeSet<u64>,
}

impl BlockAllocator {
    /// An empty allocator (nothing allocated).
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Allocates the lowest free offset: a released one when the free
    /// list is non-empty, else the high-water mark.
    pub(crate) fn alloc(&mut self) -> u64 {
        if let Some(&offset) = self.free.iter().next() {
            self.free.remove(&offset);
            return offset;
        }
        let offset = self.next;
        self.next += 1;
        offset
    }

    /// Returns `offset` to the free pool (idempotent for offsets that
    /// are already free; offsets above the high-water mark are
    /// ignored — they were never allocated).
    pub(crate) fn release(&mut self, offset: u64) {
        if offset < self.next {
            self.free.insert(offset);
        }
    }

    /// Number of offsets currently allocated.
    #[cfg(test)]
    fn allocated(&self) -> u64 {
        self.next - self.free.len() as u64
    }

    /// Raises the high-water mark so every offset below `end` is
    /// considered taken (unless already on the free list). Used when a
    /// spindle dies: analytically-laid-out stripe offsets become
    /// explicit allocations, so rebuild writes can never be handed an
    /// offset a surviving block already occupies.
    pub(crate) fn reserve_through(&mut self, end: u64) {
        self.next = self.next.max(end);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn never_hands_out_an_allocated_offset() {
        let mut a = BlockAllocator::new();
        let mut live = HashSet::new();
        for _ in 0..64 {
            assert!(live.insert(a.alloc()), "double allocation");
        }
        assert_eq!(a.allocated(), 64);
    }

    #[test]
    fn released_offsets_are_reused_lowest_first() {
        let mut a = BlockAllocator::new();
        for _ in 0..8 {
            a.alloc();
        }
        a.release(5);
        a.release(2);
        assert_eq!(a.allocated(), 6);
        assert_eq!(a.alloc(), 2);
        assert_eq!(a.alloc(), 5);
        assert_eq!(a.alloc(), 8, "free list drained: high-water mark grows");
    }

    #[test]
    fn reserve_through_protects_analytic_offsets() {
        let mut a = BlockAllocator::new();
        a.reserve_through(4);
        assert_eq!(a.alloc(), 4, "offsets 0..4 are spoken for");
        // Reserving below the mark is a no-op; releases still win.
        a.reserve_through(2);
        a.release(1);
        assert_eq!(a.alloc(), 1);
        assert_eq!(a.alloc(), 5);
    }

    #[test]
    fn release_is_idempotent_and_bounded() {
        let mut a = BlockAllocator::new();
        a.alloc();
        a.release(0);
        a.release(0);
        a.release(99); // never allocated: ignored
        assert_eq!(a.allocated(), 0);
        assert_eq!(a.alloc(), 0);
        assert_eq!(a.alloc(), 1);
    }
}
