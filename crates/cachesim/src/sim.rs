//! The memory simulator: range/ring touches over a block cache, with
//! per-tag miss attribution and optional trace recording.

use crate::lru::LruCache;
use crate::params::{Addr, CacheParams, Region};
use crate::setassoc::SetAssocCache;
use crate::stats::CacheStats;

/// Anything that can stand in for the cache in the DAM simulation.
pub trait BlockCache {
    /// Access a block; `true` on miss.
    fn access(&mut self, block: u64, write: bool) -> bool;
    /// Drop all contents (counting writebacks of dirty blocks).
    fn flush(&mut self);
    fn stats(&self) -> &CacheStats;
}

impl BlockCache for LruCache {
    fn access(&mut self, block: u64, write: bool) -> bool {
        LruCache::access(self, block, write)
    }
    fn flush(&mut self) {
        LruCache::flush(self)
    }
    fn stats(&self) -> &CacheStats {
        LruCache::stats(self)
    }
}

impl BlockCache for SetAssocCache {
    fn access(&mut self, block: u64, write: bool) -> bool {
        SetAssocCache::access(self, block, write)
    }
    fn flush(&mut self) {
        SetAssocCache::flush(self)
    }
    fn stats(&self) -> &CacheStats {
        SetAssocCache::stats(self)
    }
}

/// Word-level memory simulator over a block cache.
///
/// Accesses are issued as ranges; the simulator touches each spanned block
/// once per range touch (a module streaming through `s` words of state
/// costs `⌈s/B⌉` block accesses, as in the paper's accounting).
pub struct MemorySim<C: BlockCache> {
    params: CacheParams,
    cache: C,
    miss_by_tag: Vec<u64>,
    recording: Option<Vec<u64>>,
}

impl MemorySim<LruCache> {
    /// Fully-associative LRU simulator — the default instrument.
    pub fn lru(params: CacheParams) -> MemorySim<LruCache> {
        let cache = LruCache::new(params.blocks());
        MemorySim::with_cache(params, cache)
    }
}

impl<C: BlockCache> MemorySim<C> {
    pub fn with_cache(params: CacheParams, cache: C) -> MemorySim<C> {
        MemorySim {
            params,
            cache,
            miss_by_tag: Vec::new(),
            recording: None,
        }
    }

    pub fn params(&self) -> CacheParams {
        self.params
    }

    /// Record the block sequence of every access (for Belady MIN replay).
    pub fn enable_recording(&mut self) {
        self.recording = Some(Vec::new());
    }

    /// The recorded block sequence, if recording was enabled.
    pub fn recorded_blocks(&self) -> Option<&[u64]> {
        self.recording.as_deref()
    }

    #[inline]
    fn access_block(&mut self, block: u64, write: bool, tag: u32) {
        if let Some(rec) = &mut self.recording {
            rec.push(block);
        }
        let miss = self.cache.access(block, write);
        if miss {
            let t = tag as usize;
            if t >= self.miss_by_tag.len() {
                self.miss_by_tag.resize(t + 1, 0);
            }
            self.miss_by_tag[t] += 1;
        }
    }

    /// Touch the contiguous word range `[base, base + len)`.
    pub fn touch(&mut self, base: Addr, len: u64, write: bool, tag: u32) {
        if len == 0 {
            return;
        }
        let first = self.params.block_of(base);
        let last = self.params.block_of(base + len - 1);
        for b in first..=last {
            self.access_block(b, write, tag);
        }
    }

    /// Touch `len` words of the ring buffer laid out over `region`,
    /// starting at logical position `pos` (wrapping modulo the region
    /// length).
    pub fn touch_ring(&mut self, region: Region, pos: u64, len: u64, write: bool, tag: u32) {
        debug_assert!(len <= region.len, "touching more words than the ring holds");
        if len == 0 {
            return;
        }
        let start = pos % region.len;
        let first_part = (region.len - start).min(len);
        self.touch(region.base + start, first_part, write, tag);
        if first_part < len {
            self.touch(region.base, len - first_part, write, tag);
        }
    }

    /// Flush the cache (e.g. to model a cold start between phases).
    pub fn flush(&mut self) {
        self.cache.flush();
    }

    pub fn stats(&self) -> &CacheStats {
        self.cache.stats()
    }

    /// Misses attributed to `tag` so far.
    pub fn misses_for(&self, tag: u32) -> u64 {
        self.miss_by_tag.get(tag as usize).copied().unwrap_or(0)
    }

    /// The full per-tag miss table.
    pub fn miss_table(&self) -> &[u64] {
        &self.miss_by_tag
    }

    pub fn cache(&self) -> &C {
        &self.cache
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> CacheParams {
        CacheParams::new(64, 8) // 8 blocks of 8 words
    }

    #[test]
    fn range_touch_costs_blocks_spanned() {
        let mut m = MemorySim::lru(params());
        m.touch(0, 20, false, 0); // words 0..20 -> blocks 0,1,2
        assert_eq!(m.stats().misses, 3);
        m.touch(0, 20, false, 0);
        assert_eq!(m.stats().misses, 3, "warm touch hits");
        assert_eq!(m.stats().hits, 3);
        assert_eq!(m.misses_for(0), 3);
    }

    #[test]
    fn unaligned_range_spans_extra_block() {
        let mut m = MemorySim::lru(params());
        m.touch(7, 2, false, 1); // words 7,8 -> blocks 0 and 1
        assert_eq!(m.stats().misses, 2);
    }

    #[test]
    fn ring_touch_wraps() {
        let mut m = MemorySim::lru(params());
        let ring = Region { base: 16, len: 16 }; // blocks 2 and 3
        m.touch_ring(ring, 12, 8, true, 2); // words 12..16 then 0..4
        assert_eq!(m.stats().misses, 2);
        assert_eq!(m.misses_for(2), 2);
        // Warm: same logical positions hit.
        m.touch_ring(ring, 12, 8, true, 2);
        assert_eq!(m.stats().misses, 2);
    }

    #[test]
    fn per_tag_attribution_separates_objects() {
        let mut m = MemorySim::lru(params());
        m.touch(0, 8, false, 0);
        m.touch(8, 8, false, 5);
        m.touch(16, 8, true, 5);
        assert_eq!(m.misses_for(0), 1);
        assert_eq!(m.misses_for(5), 2);
        assert_eq!(m.misses_for(9), 0);
        assert_eq!(m.miss_table().len(), 6);
    }

    #[test]
    fn capacity_eviction_under_streaming() {
        let mut m = MemorySim::lru(params()); // 8 blocks
                                              // Stream 16 distinct blocks, then re-stream: nothing survives.
        m.touch(0, 128, false, 0);
        assert_eq!(m.stats().misses, 16);
        m.touch(0, 128, false, 0);
        assert_eq!(m.stats().misses, 32);
    }

    #[test]
    fn recording_captures_block_sequence() {
        let mut m = MemorySim::lru(params());
        m.enable_recording();
        m.touch(0, 17, false, 0);
        assert_eq!(m.recorded_blocks().unwrap(), &[0, 1, 2]);
        let opt = crate::min::simulate_min(m.recorded_blocks().unwrap(), m.params().blocks());
        assert_eq!(opt, 3);
    }

    #[test]
    fn flush_forces_cold_reload() {
        let mut m = MemorySim::lru(params());
        m.touch(0, 8, true, 0);
        m.flush();
        m.touch(0, 8, false, 0);
        assert_eq!(m.stats().misses, 2);
        assert_eq!(m.stats().writebacks, 1);
    }

    #[test]
    fn zero_len_touch_is_free() {
        let mut m = MemorySim::lru(params());
        m.touch(5, 0, true, 0);
        assert_eq!(m.stats().accesses, 0);
    }
}
