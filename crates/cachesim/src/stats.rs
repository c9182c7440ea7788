//! Cache statistics.

use serde::{Deserialize, Serialize};

/// Counters accumulated by a cache simulator.
///
/// The paper's cost metric is the number of *cache misses* (block
/// fetches); `writebacks` are tracked separately so callers can also
/// report total block transfers (`misses + writebacks`) if desired.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    pub accesses: u64,
    pub hits: u64,
    pub misses: u64,
    pub writebacks: u64,
    pub flushes: u64,
}
