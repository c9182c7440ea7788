//! Cache parameters and the word-addressed memory layout.
//!
//! The paper analyzes schedules in the external-memory (DAM / I/O) model
//! [Aggarwal–Vitter]: a fast memory (cache) of `M` words and an arbitrarily
//! large slow memory, both organized in blocks of `B` words. We measure
//! every size in *words*, where one stream item occupies one word.

use serde::{Deserialize, Serialize};

/// Word address in the simulated memory.
pub type Addr = u64;

/// The `(M, B)` pair of the I/O model.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheParams {
    /// Cache capacity `M`, in words. Must be a positive multiple of `block`.
    pub capacity: u64,
    /// Block (cache line) size `B`, in words. Must be positive.
    pub block: u64,
}

impl CacheParams {
    pub fn new(capacity: u64, block: u64) -> CacheParams {
        assert!(block > 0, "block size must be positive");
        assert!(
            capacity >= block,
            "cache must hold at least one block (M={capacity}, B={block})"
        );
        assert!(
            capacity.is_multiple_of(block),
            "cache capacity must be a multiple of the block size"
        );
        CacheParams { capacity, block }
    }

    /// Number of blocks the cache holds: `M / B`.
    #[inline]
    pub fn blocks(&self) -> u64 {
        self.capacity / self.block
    }

    /// The block containing word address `addr`.
    #[inline]
    pub fn block_of(&self, addr: Addr) -> u64 {
        addr / self.block
    }

    /// Number of blocks spanned by `[base, base + len)`.
    #[inline]
    pub fn blocks_spanned(&self, base: Addr, len: u64) -> u64 {
        if len == 0 {
            return 0;
        }
        self.block_of(base + len - 1) - self.block_of(base) + 1
    }
}

/// A contiguous region of simulated memory.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Region {
    pub base: Addr,
    /// Length in words.
    pub len: u64,
}

impl Region {
    /// Word address of the `i`-th word (no bounds check beyond debug).
    #[inline]
    pub fn word(&self, i: u64) -> Addr {
        debug_assert!(i < self.len);
        self.base + i
    }
}

/// A bump allocator handing out block-aligned regions of the simulated
/// address space.
///
/// Block alignment means distinct objects never share a block, so the
/// simulator's per-object miss attribution is exact. This wastes at most
/// `B - 1` words per object, which is irrelevant to the asymptotics and
/// mirrors what a real allocator using aligned arenas would do.
#[derive(Clone, Debug)]
pub struct AddressSpace {
    next: Addr,
    block: u64,
}

impl AddressSpace {
    pub fn new(block: u64) -> AddressSpace {
        assert!(block > 0);
        AddressSpace { next: 0, block }
    }

    /// Allocate `len` words (at least one block even for `len == 0`, so
    /// every object has a distinct identity).
    pub fn alloc(&mut self, len: u64) -> Region {
        let base = self.next;
        let words = len.max(1);
        let blocks = words.div_ceil(self.block);
        self.next += blocks * self.block;
        Region { base, len: words }
    }

    /// Total words allocated so far (including alignment padding).
    pub fn used(&self) -> u64 {
        self.next
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn params_accessors() {
        let p = CacheParams::new(1024, 16);
        assert_eq!(p.blocks(), 64);
        assert_eq!(p.block_of(0), 0);
        assert_eq!(p.block_of(15), 0);
        assert_eq!(p.block_of(16), 1);
        assert_eq!(p.blocks_spanned(0, 16), 1);
        assert_eq!(p.blocks_spanned(15, 2), 2);
        assert_eq!(p.blocks_spanned(0, 0), 0);
        assert_eq!(p.blocks_spanned(8, 16), 2);
    }

    #[test]
    #[should_panic(expected = "multiple")]
    fn rejects_unaligned_capacity() {
        CacheParams::new(100, 16);
    }

    #[test]
    #[should_panic(expected = "at least one block")]
    fn rejects_tiny_capacity() {
        CacheParams::new(8, 16);
    }

    #[test]
    fn alloc_is_block_aligned_and_disjoint() {
        let mut a = AddressSpace::new(8);
        let r1 = a.alloc(5);
        let r2 = a.alloc(9);
        let r3 = a.alloc(0);
        assert_eq!(r1.base % 8, 0);
        assert_eq!(r2.base % 8, 0);
        assert_eq!(r3.base % 8, 0);
        assert!(r1.base + 8 <= r2.base);
        assert_eq!(r2.base, 8);
        assert_eq!(r3.base, 24);
        assert_eq!(a.used(), 32);
    }
}
