//! Graphs and kernels more than one test file of this crate builds by
//! hand. Not every file uses every helper.
#![allow(dead_code)]

use ccs_exec::WorkerStats;
use ccs_graph::{GraphBuilder, RateAnalysis, StreamGraph};
use ccs_obs::{Blocked, EventKind};
use ccs_partition::{dag_exact, dag_greedy, Partition};
use ccs_runtime::kernel::Kernel;
use ccs_runtime::Instance;
use std::time::Duration;

/// The partitions the equivalence tests run each app under — the
/// executors have to hold on whatever segment shapes the partitioners
/// produce, not just friendly ones: the greedy best-of, the plain
/// topological greedy, and the exact optimum where the solver takes
/// the graph. A partition equal to one already listed is skipped.
pub fn partitions(
    g: &StreamGraph,
    ra: &RateAnalysis,
    bound: u64,
) -> Vec<(&'static str, Partition)> {
    let mut candidates = vec![
        ("dag-greedy", dag_greedy::greedy_best(g, ra, bound)),
        ("dag-greedy-topo", dag_greedy::greedy_topo(g, bound)),
    ];
    if g.node_count() <= dag_exact::MAX_EXACT_NODES {
        let (p, _) = dag_exact::min_bandwidth_exact(g, ra, bound).expect("bound fits every module");
        candidates.push(("dag-exact", p));
    }
    let mut distinct: Vec<(&'static str, Partition)> = Vec::new();
    for (name, p) in candidates {
        if distinct.iter().all(|(_, q)| *q != p) {
            distinct.push((name, p));
        }
    }
    distinct
}

/// A pipeline whose two filter stages `ccs_apps::fir_instance` binds to
/// FIR kernels of awkward shapes: 27 taps consuming 5 (neither a
/// multiple of four, so the seam between carried window and input run
/// falls inside a chunk of four on most head firings) and 34 taps
/// consuming 1 (every firing of a run shorter than 34 reaches back
/// into the window, and its seam falls in the two leftover words).
pub fn awkward_fir_pipe() -> StreamGraph {
    let mut b = GraphBuilder::new();
    let src = b.node("src", 8);
    let coarse = b.node("lpf-27-by-5", 2 * 27);
    let fine = b.node("smooth-34", 2 * 34);
    let sink = b.node("sink", 8);
    b.edge(src, coarse, 1, 5);
    b.edge(coarse, fine, 1, 1);
    b.edge(fine, sink, 1, 1);
    b.build().expect("a rate-matched pipeline")
}

/// A kernel that does what the kernel it wraps does and then sleeps
/// `nap` for every `every` firings it has completed — slow enough that
/// a consumer on another worker catches up with it and waits inside
/// its own batch. Outputs, state and digest are the wrapped kernel's.
pub struct Napping {
    inner: Box<dyn Kernel>,
    every: u64,
    nap: Duration,
    fired: u64,
}

impl Napping {
    fn tick(&mut self, count: usize) {
        let before = self.fired / self.every;
        self.fired += count as u64;
        let naps = self.fired / self.every - before;
        if naps > 0 {
            std::thread::sleep(self.nap * naps as u32);
        }
    }
}

impl Kernel for Napping {
    fn state_words(&self) -> usize {
        self.inner.state_words()
    }

    fn fire(&mut self, inputs: &[&[f32]], outputs: &mut [&mut [f32]]) {
        self.inner.fire(inputs, outputs);
        self.tick(1);
    }

    fn fire_n(&mut self, count: usize, inputs: &[&[f32]], outputs: &mut [&mut [f32]]) {
        self.inner.fire_n(count, inputs, outputs);
        self.tick(count);
    }

    fn digest(&self) -> Option<u64> {
        self.inner.digest()
    }
}

/// `inst` with the kernels of the nodes `slow` picks wrapped in
/// [`Napping`].
pub fn napping(
    inst: Instance,
    every: u64,
    nap: Duration,
    slow: impl Fn(usize) -> bool,
) -> Instance {
    let Instance { graph, kernels } = inst;
    let kernels = kernels
        .into_iter()
        .enumerate()
        .map(|(v, inner)| -> Box<dyn Kernel> {
            if slow(v) {
                Box::new(Napping {
                    inner,
                    every,
                    nap,
                    fired: 0,
                })
            } else {
                inner
            }
        })
        .collect();
    Instance { graph, kernels }
}

/// The stalls a worker's timeline records *inside* one of its batch
/// spans — waits for a running batch's next granule — with their blame.
pub fn mid_batch_stalls(w: &WorkerStats) -> Vec<(u64, Option<Blocked>)> {
    let tl = w.trace.as_ref().expect("tracing was on");
    let batches: Vec<(u64, u64)> = tl
        .events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::Batch { .. }))
        .map(|e| (e.ts_ns, e.ts_ns + e.dur_ns))
        .collect();
    tl.events
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::Stall { blocked, .. }
                if batches
                    .iter()
                    .any(|&(a, b)| a <= e.ts_ns && e.ts_ns + e.dur_ns <= b) =>
            {
                Some((e.dur_ns, blocked))
            }
            _ => None,
        })
        .collect()
}
