//! Fully-associative LRU cache simulator.
//!
//! The DAM model assumes an ideal (offline optimal) replacement policy;
//! LRU with double the capacity is within a factor of two of it
//! (Sleator–Tarjan), so LRU is the standard concrete stand-in. The
//! implementation is O(1) per access: an intrusive doubly-linked list over
//! a slab of slots, plus a block → slot hash map.

use crate::stats::CacheStats;
use std::collections::HashMap;

const NIL: u32 = u32::MAX;

#[derive(Clone, Copy, Debug)]
struct Slot {
    block: u64,
    prev: u32,
    next: u32,
    dirty: bool,
}

/// Fully-associative LRU over block ids.
#[derive(Clone, Debug)]
pub struct LruCache {
    capacity: usize,
    slots: Vec<Slot>,
    free: Vec<u32>,
    map: HashMap<u64, u32>,
    head: u32, // most recently used
    tail: u32, // least recently used
    stats: CacheStats,
}

impl LruCache {
    /// A cache holding `capacity_blocks` blocks.
    pub fn new(capacity_blocks: u64) -> LruCache {
        assert!(capacity_blocks > 0, "cache must hold at least one block");
        let capacity = usize::try_from(capacity_blocks).expect("capacity fits usize");
        LruCache {
            capacity,
            slots: Vec::with_capacity(capacity.min(1 << 20)),
            free: Vec::new(),
            map: HashMap::with_capacity(capacity.min(1 << 20)),
            head: NIL,
            tail: NIL,
            stats: CacheStats::default(),
        }
    }

    fn unlink(&mut self, i: u32) {
        let (p, n) = {
            let s = &self.slots[i as usize];
            (s.prev, s.next)
        };
        if p != NIL {
            self.slots[p as usize].next = n;
        } else {
            self.head = n;
        }
        if n != NIL {
            self.slots[n as usize].prev = p;
        } else {
            self.tail = p;
        }
    }

    fn push_front(&mut self, i: u32) {
        self.slots[i as usize].prev = NIL;
        self.slots[i as usize].next = self.head;
        if self.head != NIL {
            self.slots[self.head as usize].prev = i;
        }
        self.head = i;
        if self.tail == NIL {
            self.tail = i;
        }
    }

    /// Access `block`; returns `true` on a miss. A `write` marks the block
    /// dirty; evicting a dirty block counts a writeback.
    pub fn access(&mut self, block: u64, write: bool) -> bool {
        self.stats.accesses += 1;
        if let Some(&i) = self.map.get(&block) {
            self.stats.hits += 1;
            self.unlink(i);
            self.push_front(i);
            if write {
                self.slots[i as usize].dirty = true;
            }
            return false;
        }
        self.stats.misses += 1;
        let slot = if self.map.len() < self.capacity {
            match self.free.pop() {
                Some(i) => i,
                None => {
                    let i = self.slots.len() as u32;
                    self.slots.push(Slot {
                        block,
                        prev: NIL,
                        next: NIL,
                        dirty: false,
                    });
                    i
                }
            }
        } else {
            // Evict LRU.
            let victim = self.tail;
            debug_assert_ne!(victim, NIL);
            let victim_block = self.slots[victim as usize].block;
            if self.slots[victim as usize].dirty {
                self.stats.writebacks += 1;
            }
            self.map.remove(&victim_block);
            self.unlink(victim);
            victim
        };
        self.slots[slot as usize].block = block;
        self.slots[slot as usize].dirty = write;
        self.map.insert(block, slot);
        self.push_front(slot);
        true
    }

    /// Empty the cache, counting writebacks for dirty blocks.
    pub fn flush(&mut self) {
        for s in &self.slots {
            if self.map.contains_key(&s.block) && s.dirty {
                self.stats.writebacks += 1;
            }
        }
        self.map.clear();
        self.free.clear();
        self.free.extend(0..self.slots.len() as u32);
        self.head = NIL;
        self.tail = NIL;
        self.stats.flushes += 1;
    }

    /// True if `block` currently resides in cache (no stats side effect).
    pub fn contains(&self, block: u64) -> bool {
        self.map.contains_key(&block)
    }

    /// Number of blocks currently resident.
    pub fn resident(&self) -> usize {
        self.map.len()
    }

    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_misses_then_hits() {
        let mut c = LruCache::new(4);
        for b in 0..4 {
            assert!(c.access(b, false), "cold access must miss");
        }
        for b in 0..4 {
            assert!(!c.access(b, false), "warm access must hit");
        }
        assert_eq!(c.stats().misses, 4);
        assert_eq!(c.stats().hits, 4);
        assert_eq!(c.resident(), 4);
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut c = LruCache::new(2);
        c.access(1, false);
        c.access(2, false);
        c.access(1, false); // 2 is now LRU
        c.access(3, false); // evicts 2
        assert!(c.contains(1));
        assert!(!c.contains(2));
        assert!(c.contains(3));
    }

    #[test]
    fn writeback_counted_on_dirty_eviction() {
        let mut c = LruCache::new(1);
        c.access(1, true);
        c.access(2, false); // evicts dirty 1
        assert_eq!(c.stats().writebacks, 1);
        c.access(3, false); // evicts clean 2
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn flush_empties_and_counts_dirty() {
        let mut c = LruCache::new(4);
        c.access(1, true);
        c.access(2, false);
        c.flush();
        assert_eq!(c.resident(), 0);
        assert_eq!(c.stats().writebacks, 1);
        assert_eq!(c.stats().flushes, 1);
        assert!(c.access(1, false), "flushed block must miss");
    }

    #[test]
    fn single_block_cache_thrashes() {
        // Alternating over 2 blocks with capacity 1: every access misses.
        let mut c = LruCache::new(1);
        for _ in 0..10 {
            assert!(c.access(1, false));
            assert!(c.access(2, false));
        }
        assert_eq!(c.stats().hits, 0);
        assert_eq!(c.stats().misses, 20);
    }

    #[test]
    fn sequential_scan_reuses_nothing() {
        let mut c = LruCache::new(8);
        for b in 0..100u64 {
            assert!(c.access(b, false));
        }
        assert_eq!(c.stats().misses, 100);
    }

    #[test]
    fn lru_inclusion_property() {
        // A larger LRU cache never misses more than a smaller one on the
        // same trace (stack property of LRU).
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(42);
        let trace: Vec<u64> = (0..5000).map(|_| rng.gen_range(0..64)).collect();
        let mut last = u64::MAX;
        for cap in [1u64, 2, 4, 8, 16, 32, 64] {
            let mut c = LruCache::new(cap);
            for &b in &trace {
                c.access(b, false);
            }
            assert!(
                c.stats().misses <= last,
                "cap {cap}: {} > {last}",
                c.stats().misses
            );
            last = c.stats().misses;
        }
    }
}
