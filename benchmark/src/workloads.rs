//! The four workloads. Shapes, cache sizes and round counts are frozen
//! here; `BENCHMARK.json` carries the one-line reason for each and
//! `README.md` the long one.
//!
//! The seed of every graph generator is frozen with the shape
//! ([`SHAPE_SEED`]): across generator seeds throughput moves by tens of
//! percent, because the graph and with it the partition change, which
//! would drown the bounds the benchmark sets. `--seed` decides the input
//! stream instead (see `sut::bind`).

use crate::sut::{self, Binding, StreamGraph};

/// Generator seed of every generated shape.
const SHAPE_SEED: u64 = 0;

pub struct Workload {
    pub name: &'static str,
    /// Builds the graph and returns it with the cache size `M` in words.
    pub build: fn() -> (StreamGraph, u64),
    pub binding: Binding,
    /// Granularity-`T` rounds of one timed execute call.
    pub rounds: u64,
    /// Rounds at which w1 and w2 are compared with the reference
    /// interpreter, which is too slow for `rounds`.
    pub check_rounds: u64,
    /// Whether the DAM-model evaluation is run. One round of
    /// `bigstate-pipe` is about 1e9 block touches, minutes in the
    /// simulator.
    pub model: bool,
}

/// The `cache_m` rule of the checked-in experiments: a third of the total
/// state, at least eight times the largest module and at least 512 words,
/// rounded up to the block size.
fn cache_m(g: &StreamGraph) -> u64 {
    (g.total_state() / 3)
        .max(8 * g.max_state())
        .max(512)
        .next_multiple_of(sut::BLOCK)
}

pub static ALL: [Workload; 4] = [
    // 64 stages of 2048..6144 words: about 1 MiB of module state, far
    // beyond L1; kernel state sweeps are nearly all of the time.
    Workload {
        name: "bigstate-pipe",
        build: || (sut::gen_pipeline(64, 2048, 6144, SHAPE_SEED), 65536),
        binding: Binding::Synthetic,
        rounds: 1,
        check_rounds: 1,
        model: false,
    },
    // 26 small modules: everything is L1 resident, so per-firing
    // dispatch dominates at one worker and stalls and handoff at two.
    Workload {
        name: "thin-dag",
        build: || {
            let g = sut::gen_layered(8, 6, 0.35, (32, 128), 2, SHAPE_SEED);
            let m = cache_m(&g);
            (g, m)
        },
        binding: Binding::Synthetic,
        rounds: 100,
        check_rounds: 8,
        model: true,
    },
    // Real decimating FIR filters, repetitions 8:1. The shape has no
    // random part.
    Workload {
        name: "multirate-bank",
        build: || (sut::filterbank(8), 512),
        binding: Binding::Fir,
        rounds: 100,
        check_rounds: 4,
        model: true,
    },
    // 625 modules, 4059 edges: the plan metadata, not the kernel state,
    // is what has to stay in cache; set-up time and memory are large
    // enough to resolve.
    Workload {
        name: "wide-dag",
        build: || {
            (
                sut::gen_layered(32, 36, 0.3, (32, 128), 1, SHAPE_SEED),
                4096,
            )
        },
        binding: Binding::Synthetic,
        rounds: 1,
        check_rounds: 1,
        model: true,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    ALL.iter().find(|w| w.name == name)
}
