//! The system under test, behind one adapter.
//!
//! This is the only file of the benchmark that names a `ccs_*` symbol.
//! Every call the benchmark makes into the repository goes through a
//! function here, so a refactor of the repository knows exactly which
//! names it must keep (the list is repeated in `README.md`), and a
//! rename is a change to this file alone.

use std::time::Duration;

use ccs_cachesim::{CacheParams, MemorySim};
use ccs_core::{Horizon, Planner};
use ccs_exec::{assign_on, execute_dag_cfg, execute_serial_fused, ExecPlan, Placement, RunConfig};
use ccs_graph::gen::{self, LayeredCfg, PipelineCfg, StateDist};
use ccs_partition::{compile_firing_plan, ArenaSpan, FusedFiring};
use ccs_perf::CounterBuilder;
use ccs_runtime::serial::ObsConfig;
use ccs_sched::{baseline, partitioned, ExecOptions};
use ccs_topo::Topology;

pub use ccs_exec::DagExecError as ExecError;
pub use ccs_graph::{RateAnalysis, StreamGraph};
pub use ccs_partition::Partition;
use ccs_runtime::kernel::SourceGen;
pub use ccs_runtime::{Instance, Ring};
use ccs_runtime::{Kernel, SpscRing};

/// Block size `B` of the DAM model, in words (every checked-in
/// experiment uses 16).
pub const BLOCK: u64 = 16;

/// `gen::pipeline` with unit rates and `Uniform(lo, hi)` state.
pub fn gen_pipeline(len: usize, lo: u64, hi: u64, seed: u64) -> StreamGraph {
    gen::pipeline(
        &PipelineCfg {
            len,
            state: StateDist::Uniform(lo, hi),
            max_q: 1,
            max_rate_scale: 1,
        },
        seed,
    )
}

/// `gen::layered` with `Uniform(lo, hi)` state.
pub fn gen_layered(
    layers: usize,
    max_width: usize,
    density: f64,
    (lo, hi): (u64, u64),
    max_q: u64,
    seed: u64,
) -> StreamGraph {
    gen::layered(
        &LayeredCfg {
            layers,
            max_width,
            density,
            state: StateDist::Uniform(lo, hi),
            max_q,
        },
        seed,
    )
}

pub fn filterbank(bands: u64) -> StreamGraph {
    ccs_apps::filterbank(bands)
}

/// How a workload's graph is bound to kernels.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Binding {
    /// `ccs_apps::bound_instance`: synthetic state-sweeping kernels.
    Synthetic,
    /// `ccs_apps::fir_instance`: real decimating FIR filters.
    Fir,
}

/// The library's source kernel with a seed-dependent bias added to every
/// item it emits, so that `--seed` decides the input stream.
struct SeededSource {
    inner: SourceGen,
    bias: f32,
}

impl Kernel for SeededSource {
    fn state_words(&self) -> usize {
        self.inner.state_words()
    }

    fn fire(&mut self, inputs: &[&[f32]], outputs: &mut [&mut [f32]]) {
        self.inner.fire(inputs, outputs);
        for x in outputs.iter_mut().flat_map(|out| out.iter_mut()) {
            *x += self.bias;
        }
    }
}

/// Bind `g` to kernels, with the source's stream decided by `seed`.
pub fn bind(binding: Binding, g: &StreamGraph, seed: u64) -> Instance {
    let mut inst = match binding {
        Binding::Synthetic => ccs_apps::bound_instance("benchmark", g.clone()),
        Binding::Fir => ccs_apps::fir_instance(g.clone()),
    };
    let source = g.single_source().expect("workload graphs have one source");
    // Top 24 bits of a multiplicative hash, as a fraction in [0, 1).
    let bias = (seed.wrapping_mul(0x9E3779B97F4A7C15) >> 40) as f32 / (1u32 << 24) as f32;
    inst.kernels[source.idx()] = Box::new(SeededSource {
        inner: SourceGen::new(g.state(source).max(1) as usize),
        bias,
    });
    inst
}

pub fn analyze(g: &StreamGraph) -> RateAnalysis {
    RateAnalysis::analyze_single_io(g).expect("workload graphs are rate matched")
}

fn planner(m: u64) -> Planner {
    Planner::new(CacheParams::new(m, BLOCK))
}

/// `Planner::partition` with the automatic strategy; returns the
/// partition and its exact bandwidth per input as (numerator,
/// denominator).
pub fn partition(g: &StreamGraph, ra: &RateAnalysis, m: u64) -> (Partition, (i128, i128)) {
    let (p, bw, _) = planner(m)
        .partition(g, ra)
        .expect("workload graphs partition");
    (p, (bw.num(), bw.den()))
}

pub fn granularity_t(g: &StreamGraph, ra: &RateAnalysis, m: u64) -> u64 {
    partitioned::granularity_t(g, ra, m).expect("granularity fits")
}

pub fn build_plan(g: &StreamGraph, ra: &RateAnalysis, p: &Partition, m: u64) -> ExecPlan {
    ExecPlan::build(g, ra, p, m).expect("workload partitions are well ordered")
}

/// Round-robin, unpinned placement of the plan's segments on `workers`.
pub fn place(g: &StreamGraph, ra: &RateAnalysis, plan: &ExecPlan, workers: usize) -> Vec<usize> {
    assign_on(
        g,
        ra,
        plan,
        workers,
        Placement::RoundRobin,
        &Topology::single_cluster(workers),
        false,
    )
}

/// Exact counts read off a built plan.
pub struct PlanFacts {
    pub segments: u64,
    pub max_segment_state_words: u64,
    pub plan_firings: u64,
    pub plan_bytes: u64,
    pub arena_words: u64,
    pub ring_capacity_words: u64,
    pub cross_worker_items_per_round: u64,
    /// Largest number of items one batch moves over one cross edge.
    pub largest_cross_batch: usize,
    /// Firings of each node per round.
    pub quota: Vec<u64>,
}

pub fn plan_facts(g: &StreamGraph, plan: &ExecPlan, owner: &[usize]) -> PlanFacts {
    let spans: usize = plan
        .fused
        .iter()
        .flat_map(|f| &f.firings)
        .map(|f| f.inputs.len() + f.outputs.len())
        .sum();
    let plan_firings: usize = plan.fused.iter().map(|f| f.firings.len()).sum();
    // (crosses workers, items per batch) for every cross edge.
    let cross: Vec<(bool, u64)> = plan
        .segments
        .iter()
        .enumerate()
        .flat_map(|(si, s)| s.out_batch.iter().map(move |&(e, n)| (si, e, n)))
        .map(|(si, e, n)| {
            let dst = plan.seg_of_node[g.edge(e).dst.idx()];
            (owner[si] != owner[dst], n)
        })
        .collect();
    PlanFacts {
        segments: plan.segments.len() as u64,
        max_segment_state_words: plan
            .segments
            .iter()
            .map(|s| s.state_words)
            .max()
            .unwrap_or(0),
        plan_firings: plan_firings as u64,
        plan_bytes: (plan_firings * std::mem::size_of::<FusedFiring>()
            + spans * std::mem::size_of::<ArenaSpan>()) as u64,
        arena_words: plan.fused.iter().map(|f| f.arena_len as u64).sum(),
        ring_capacity_words: plan
            .segments
            .iter()
            .flat_map(|s| &s.out_batch)
            .map(|&(e, _)| plan.capacities[e.idx()])
            .sum(),
        cross_worker_items_per_round: cross.iter().filter(|c| c.0).map(|c| c.1).sum(),
        largest_cross_batch: cross.iter().map(|&(_, n)| n as usize).max().unwrap_or(1),
        quota: plan.quota.clone(),
    }
}

/// `compile_firing_plan` over every segment of a built plan (the part of
/// `ExecPlan::build` whose output grows with the number of firings).
pub fn compile_firing_plans(g: &StreamGraph, plan: &ExecPlan) -> usize {
    plan.segments
        .iter()
        .map(|s| {
            compile_firing_plan(g, &plan.quota, &s.nodes, &s.firings)
                .expect("the plan's own schedule compiles")
                .firings
                .len()
        })
        .sum()
}

/// What one execute call reports about itself.
pub struct RunOutcome {
    /// Wall of the firing loop as the executor measured it.
    pub inner_wall: Duration,
    pub firings: u64,
    pub sink_items: u64,
    pub digest: Option<u64>,
    /// Per-worker (busy, stall time, stalls, batches); empty for serial.
    pub workers: Vec<(Duration, Duration, u64, u64)>,
}

/// One `execute_serial_fused` call.
pub fn run_w1(
    inst: Instance,
    ra: &RateAnalysis,
    p: &Partition,
    m: u64,
    rounds: u64,
) -> Result<RunOutcome, ExecError> {
    let (run, _) = execute_serial_fused(inst, ra, p, m, rounds, &ObsConfig::default())?;
    Ok(RunOutcome {
        inner_wall: run.wall,
        firings: run.firings,
        sink_items: run.sink_items,
        digest: run.digest,
        workers: Vec::new(),
    })
}

/// One `execute_dag_cfg` call: `workers` threads, fused, round-robin,
/// unpinned; `traced` turns on the executor's event trace and 1-batch
/// counter windows.
pub fn run_dag(
    inst: Instance,
    ra: &RateAnalysis,
    p: &Partition,
    m: u64,
    rounds: u64,
    workers: usize,
    traced: bool,
) -> Result<RunOutcome, ExecError> {
    let cfg = RunConfig::new(workers)
        .with_fused(true)
        .with_trace(traced)
        .with_windows(u64::from(traced));
    let stats = execute_dag_cfg(inst, ra, p, m, rounds, &cfg)?;
    Ok(RunOutcome {
        inner_wall: stats.run.wall,
        firings: stats.run.firings,
        sink_items: stats.run.sink_items,
        digest: stats.run.digest,
        workers: stats
            .workers
            .iter()
            .map(|w| (w.busy, w.stall_time, w.stalls, w.batches))
            .collect(),
    })
}

/// The reference interpreter: `ccs_runtime::serial::execute` over
/// `ccs_sched::partitioned::inhomogeneous`. Shares no executor code with
/// the fused paths, so an equal digest is independent evidence.
pub fn run_reference(
    mut inst: Instance,
    ra: &RateAnalysis,
    p: &Partition,
    m: u64,
    rounds: u64,
) -> Option<u64> {
    let run = partitioned::inhomogeneous(&inst.graph, ra, p, m, rounds).ok()?;
    ccs_runtime::serial::execute(&mut inst, &run).digest
}

/// Misses per input in the DAM model at `(m, BLOCK)` under LRU, for one
/// round of the planner's schedule and for the single-appearance
/// baseline over the same number of source firings.
pub fn model_misses_per_item(g: &StreamGraph, ra: &RateAnalysis, m: u64) -> (f64, f64) {
    let planner = planner(m);
    let plan = planner
        .plan(g, Horizon::Rounds(1))
        .expect("workload graphs plan");
    let ours = planner
        .evaluate(g, &plan)
        .expect("planned schedule is legal");
    let source = ra.source.expect("single source");
    let iterations = (ours.inputs / ra.q(source)).max(1);
    let sas = baseline::single_appearance(g, ra, iterations);
    let base = planner
        .evaluate_with(g, &sas, ExecOptions::default())
        .expect("single-appearance schedule is legal");
    (ours.misses_per_input(), base.misses_per_input())
}

/// `touches` block touches through `MemorySim::lru` at `(m, BLOCK)`,
/// drawn by a fixed xorshift generator from four times as many blocks as
/// the cache holds; returns the miss count so the work cannot be
/// optimised away.
pub fn lru_touches(m: u64, touches: u64) -> u64 {
    let params = CacheParams::new(m, BLOCK);
    let range = 4 * params.blocks();
    let mut sim = MemorySim::lru(params);
    let mut x = 0x9E3779B97F4A7C15u64;
    for _ in 0..touches {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        sim.touch((x % range) * BLOCK, 1, false, 0);
    }
    sim.stats().misses
}

/// Whether a hardware counter group opens on this thread.
pub fn counters_available() -> bool {
    CounterBuilder::cache_suite().open_self_thread().is_active()
}

/// One batch of `n` items through a `Ring`, the way the fused executor
/// moves a cross edge: reserve/copy/commit, then peek/copy/release.
pub fn ring_bulk(ring: &mut Ring, src: &[f32], dst: &mut [f32]) {
    let n = src.len();
    let (a, b) = ring.reserve(n);
    let first = a.len();
    a.copy_from_slice(&src[..first]);
    b.copy_from_slice(&src[first..]);
    ring.commit(n);
    let (a, b) = ring.peek(n);
    dst[..a.len()].copy_from_slice(a);
    dst[a.len()..].copy_from_slice(b);
    ring.release(n);
}

/// `trips` round trips of one `n`-item batch between two threads over a
/// pair of `SpscRing`s; returns the mean time of one handoff (half a
/// round trip).
pub fn spsc_handoff(n: usize, trips: u32) -> Duration {
    let (there, back) = (SpscRing::new(2 * n), SpscRing::new(2 * n));
    let batch = vec![1.0f32; n];
    let wait_for = |ring: &SpscRing, out: &mut [f32]| {
        while ring.len() < n {
            std::hint::spin_loop();
        }
        ring.pop_slice(out);
    };
    let start = std::time::Instant::now();
    std::thread::scope(|scope| {
        scope.spawn(|| {
            let mut got = vec![0.0f32; n];
            for _ in 0..trips {
                wait_for(&there, &mut got);
                back.push_slice(&got);
            }
        });
        let mut got = vec![0.0f32; n];
        for _ in 0..trips {
            there.push_slice(&batch);
            wait_for(&back, &mut got);
        }
        std::hint::black_box(&got);
    });
    start.elapsed() / (2 * trips)
}

/// Each kernel of `inst` fired alone, repeatedly, so that its state and
/// ports stay in cache: the mean nanoseconds of one firing, weighted by how
/// often each node fires per round (`quota`).
pub fn kernel_floor_ns(inst: &mut Instance, quota: &[u64]) -> f64 {
    const WARM: u32 = 16;
    const BURST: u32 = 64;
    const MIN_PER_KERNEL: Duration = Duration::from_micros(100);
    let g = &inst.graph;
    let mut weighted_ns = 0.0f64;
    for v in g.node_ids() {
        let ins: Vec<Vec<f32>> = g
            .in_edges(v)
            .iter()
            .map(|&e| vec![0.5f32; g.edge(e).consume as usize])
            .collect();
        let mut outs: Vec<Vec<f32>> = g
            .out_edges(v)
            .iter()
            .map(|&e| vec![0.0f32; g.edge(e).produce as usize])
            .collect();
        let ins: Vec<&[f32]> = ins.iter().map(Vec::as_slice).collect();
        let mut outs: Vec<&mut [f32]> = outs.iter_mut().map(Vec::as_mut_slice).collect();
        let kernel = &mut inst.kernels[v.idx()];
        for _ in 0..WARM {
            kernel.fire(&ins, &mut outs);
        }
        let (mut fired, start) = (0u32, std::time::Instant::now());
        while start.elapsed() < MIN_PER_KERNEL {
            for _ in 0..BURST {
                kernel.fire(std::hint::black_box(&ins), &mut outs);
            }
            fired += BURST;
        }
        let ns = start.elapsed().as_nanos() as f64 / f64::from(fired);
        weighted_ns += ns * quota[v.idx()] as f64;
    }
    let firings: u64 = quota.iter().sum();
    weighted_ns / firings as f64
}
