//! Granule handoff: a worker publishes a batch a granule at a time, so
//! a consumer segment on another worker starts on the first granule of
//! its producer's batch and waits inside its own batch for the rest.
//! What that must not change is the digest — on shapes whose producer
//! and consumer cut their batches differently, at every worker count
//! and placement, with kernels slow enough that the waits happen — and
//! what it must not add is a way to hang: a worker that panics ends the
//! run with a typed error, and its peers stop waiting for it.

use ccs_exec::plan::GRANULES;
use ccs_exec::{
    execute_dag_cfg, execute_serial_fused, BoundaryLayout, DagExecError, ExecPlan, Lifetimes,
    Placement, RunConfig,
};
use ccs_graph::gen::{self, LayeredCfg, PipelineCfg, StateDist};
use ccs_graph::{GraphBuilder, RateAnalysis, StreamGraph};
use ccs_obs::{Blocked, EventKind, StallReason};
use ccs_partition::{dag_greedy, Partition};
use ccs_runtime::kernel::Kernel;
use ccs_runtime::Instance;
use ccs_sched::partitioned;
use std::time::Duration;

mod common;

/// How a graph's kernels are bound.
#[derive(Clone, Copy)]
enum Binding {
    Synthetic,
    Fir,
}

impl Binding {
    fn instance(self, g: &StreamGraph) -> Instance {
        match self {
            Binding::Synthetic => Instance::synthetic(g.clone()),
            Binding::Fir => ccs_apps::fir_instance(g.clone()),
        }
    }
}

/// The reference interpreter's digest for `rounds` rounds.
fn reference(
    g: &StreamGraph,
    ra: &RateAnalysis,
    p: &Partition,
    m: u64,
    rounds: u64,
    binding: Binding,
) -> Option<u64> {
    let run = partitioned::inhomogeneous(g, ra, p, m, rounds).unwrap();
    let mut inst = binding.instance(g);
    ccs_runtime::serial::execute(&mut inst, &run).digest
}

/// Two segments, `src → a | b → sink`, of a homogeneous pipeline.
fn two_segment_chain() -> (StreamGraph, RateAnalysis, Partition) {
    let g = gen::pipeline_uniform(4, 32);
    let ra = RateAnalysis::analyze_single_io(&g).unwrap();
    (g, ra, Partition::from_assignment(vec![0, 0, 1, 1]))
}

#[test]
fn a_consumer_starts_before_its_producer_finishes_the_round() {
    let (g, ra, p) = two_segment_chain();
    let m = 512;
    let plan = ExecPlan::build(&g, &ra, &p, m).unwrap();
    assert!(
        plan.segments.iter().all(|s| s.reps >= GRANULES),
        "both batches are cut into {GRANULES} granules"
    );
    let want = reference(&g, &ra, &p, m, 1, Binding::Synthetic);
    // The producer naps through its batch; the consumer is fast.
    let inst = common::napping(
        Instance::synthetic(g.clone()),
        16,
        Duration::from_micros(300),
        |v| v < 2,
    );
    let cfg = RunConfig::new(2)
        .with_placement(Placement::RoundRobin)
        .with_trace(true);
    let stats = execute_dag_cfg(inst, &ra, &p, m, 1, &cfg).unwrap();
    assert_eq!(stats.run.digest, want);
    let span = |seg: usize| {
        stats
            .workers
            .iter()
            .flat_map(|w| &w.trace.as_ref().unwrap().events)
            .find(|e| e.kind == EventKind::Batch { seg })
            .map(|e| (e.ts_ns, e.ts_ns + e.dur_ns))
            .unwrap_or_else(|| panic!("segment {seg} ran no batch"))
    };
    let (producer, consumer) = (span(0), span(1));
    assert!(
        consumer.0 < producer.1,
        "consumer began at {} ns, after its producer's batch ended at {} ns",
        consumer.0,
        producer.1
    );
    // So the one round took less than the two batches back to back.
    assert!(consumer.1 - producer.0 < (producer.1 - producer.0) + (consumer.1 - consumer.0));
}

/// One shape of the grid: a graph, its partition, `M`, rounds, binding.
struct Shape {
    name: String,
    g: StreamGraph,
    ra: RateAnalysis,
    p: Partition,
    m: u64,
    rounds: u64,
    binding: Binding,
}

fn shapes() -> Vec<Shape> {
    let mut out = Vec::new();
    for seed in 0..3u64 {
        let g = gen::pipeline(
            &PipelineCfg {
                len: 10,
                state: StateDist::Uniform(8, 48),
                max_q: 3,
                max_rate_scale: 2,
            },
            seed,
        );
        let ra = RateAnalysis::analyze_single_io(&g).unwrap();
        let p = ccs_partition::pipeline::greedy_theorem5(&g, &ra, 48)
            .unwrap()
            .partition;
        out.push(Shape {
            name: format!("rated pipeline {seed}"),
            g,
            ra,
            p,
            m: 48,
            rounds: 2,
            binding: Binding::Synthetic,
        });
    }
    for seed in 0..3u64 {
        let g = gen::layered(
            &LayeredCfg {
                layers: 4,
                max_width: 3,
                density: 0.3,
                state: StateDist::Uniform(8, 48),
                max_q: 3,
            },
            seed,
        );
        let ra = RateAnalysis::analyze_single_io(&g).unwrap();
        let p = dag_greedy::greedy_topo(&g, 96);
        out.push(Shape {
            name: format!("layered dag {seed}"),
            g,
            ra,
            p,
            m: 48,
            rounds: 3,
            binding: Binding::Synthetic,
        });
    }
    for (name, g, m, rounds) in [
        ("filterbank(8) fir", ccs_apps::filterbank(8), 512, 2),
        ("awkward fir pipe", common::awkward_fir_pipe(), 64, 3),
    ] {
        let ra = RateAnalysis::analyze_single_io(&g).unwrap();
        let p = dag_greedy::greedy_best(&g, &ra, m.max(g.max_state()));
        out.push(Shape {
            name: name.to_string(),
            g,
            ra,
            p,
            m,
            rounds,
            binding: Binding::Fir,
        });
    }
    out
}

#[test]
fn granule_waits_keep_every_digest() {
    let mut cut_differently = 0;
    let mut waited = 0;
    for s in shapes() {
        let plan = ExecPlan::build(&s.g, &s.ra, &s.p, s.m).unwrap();
        assert!(
            plan.segments.len() > 1,
            "{}: the run crosses segments",
            s.name
        );
        // A cross edge whose two ends cut the batch at different items.
        cut_differently += plan
            .segments
            .iter()
            .flat_map(|seg| seg.out_batch.iter().map(move |&(e, _)| (seg.reps, e)))
            .filter(|&(reps, e)| {
                plan.segments[plan.seg_of_node[s.g.edge(e).dst.idx()]].reps != reps
            })
            .count();
        // Every shape in its own round count, and in one round, where
        // rings share storage.
        for rounds in [s.rounds, 1] {
            let want = reference(&s.g, &s.ra, &s.p, s.m, rounds, s.binding);
            for workers in [2usize, 3, 4] {
                for placement in [Placement::RoundRobin, Placement::Measured] {
                    let name = placement.name();
                    let tag = format!("{} at {workers} workers, {name}, {rounds} rounds", s.name);
                    let inst = common::napping(
                        s.binding.instance(&s.g),
                        7,
                        Duration::from_micros(50),
                        |v| v % 2 == 0,
                    );
                    let cfg = RunConfig::new(workers)
                        .with_placement(placement)
                        .with_trace(true);
                    let stats = execute_dag_cfg(inst, &s.ra, &s.p, s.m, rounds, &cfg)
                        .unwrap_or_else(|e| panic!("{tag}: {e}"));
                    assert_eq!(stats.run.digest, want, "{tag}");
                    waited += stats
                        .workers
                        .iter()
                        .map(|w| common::mid_batch_stalls(w).len())
                        .sum::<usize>();
                }
            }
        }
    }
    assert!(
        cut_differently > 0,
        "some producer and consumer cut differently"
    );
    assert!(waited > 0, "some consumer waited inside its batch");
}

#[test]
fn a_producer_waits_for_the_storage_it_takes() {
    // A source and two branches that meet at the end, each node a segment
    // of its own and the two branches interleaved in plan order, so that
    // round-robin on two workers puts branch `a` (and the source) on
    // worker 0 and branch `b` on worker 1. `a2` doubles its rate, so its
    // ring does not fit where `src → a1`'s was, and the next ring born,
    // `b3 → b4`'s, takes that storage: a producer on worker 1 waits for a
    // consumer on worker 0 that no data path links it to. `a1` naps
    // through its batch, so the wait happens.
    let mut b = GraphBuilder::new();
    let names = ["src", "b1", "a1", "b2", "a2", "b3", "a3", "b4", "join"];
    let v: Vec<_> = names.iter().map(|n| b.node(*n, 8)).collect();
    let edge = |b: &mut GraphBuilder, x: &str, y: &str, rate: u64| {
        let at = |n: &str| v[names.iter().position(|m| *m == n).unwrap()];
        b.edge(at(x), at(y), rate, rate)
    };
    let reused = edge(&mut b, "src", "a1", 1);
    for (x, y) in [("src", "b1"), ("b1", "b2"), ("b2", "b3"), ("a1", "a2")] {
        edge(&mut b, x, y, 1);
    }
    edge(&mut b, "a2", "a3", 2);
    let taker = edge(&mut b, "b3", "b4", 1);
    for (x, y) in [("a3", "join"), ("b4", "join")] {
        edge(&mut b, x, y, 1);
    }
    let g = b.build().unwrap();
    let ra = RateAnalysis::analyze_single_io(&g).unwrap();
    let p = Partition::from_assignment((0..names.len() as u32).collect());
    let m = 512;
    let plan = ExecPlan::build(&g, &ra, &p, m).unwrap();
    let seg = |n: &str| plan.seg_of_node[v[names.iter().position(|m| *m == n).unwrap()].idx()];
    let layout = BoundaryLayout::build(&plan, Lifetimes::OneRound { workers: 2 }).unwrap();
    let ring = |e: ccs_graph::EdgeId| layout.rings.iter().position(|r| r.edge == e).unwrap();
    assert_eq!(layout.rings[ring(taker)].after, vec![ring(reused)]);
    assert_eq!((seg("a1") % 2, seg("b3") % 2), (0, 1), "on two workers");

    let want = reference(&g, &ra, &p, m, 1, Binding::Synthetic);
    let a1 = v[2].idx();
    let inst = common::napping(
        Instance::synthetic(g.clone()),
        16,
        Duration::from_micros(300),
        |v| v == a1,
    );
    let cfg = RunConfig::new(2)
        .with_placement(Placement::RoundRobin)
        .with_trace(true);
    let stats = execute_dag_cfg(inst, &ra, &p, m, 1, &cfg).unwrap();
    assert_eq!(stats.run.digest, want);
    assert!(
        stats.run.boundary_words
            < BoundaryLayout::build(&plan, Lifetimes::WholeRun)
                .unwrap()
                .words as u64
    );
    let storage_wait = Blocked {
        edge: reused.idx(),
        seg: seg("b3"),
        peer: seg("a1"),
        reason: StallReason::ConsumerFull,
    };
    let waited: u64 = stats.workers[1]
        .trace
        .as_ref()
        .unwrap()
        .events
        .iter()
        .filter(
            |e| matches!(e.kind, EventKind::Stall { blocked: Some(b), .. } if b == storage_wait),
        )
        .map(|e| e.dur_ns)
        .sum();
    assert!(
        waited > 0,
        "`b3` waited for `a1` to release the storage it takes"
    );
}

/// Wraps a kernel and panics at its `at`-th firing.
struct PanicsAt {
    inner: Box<dyn Kernel>,
    at: u64,
    fired: u64,
}

impl Kernel for PanicsAt {
    fn state_words(&self) -> usize {
        self.inner.state_words()
    }

    fn fire(&mut self, inputs: &[&[f32]], outputs: &mut [&mut [f32]]) {
        self.fire_n(1, inputs, outputs);
    }

    fn fire_n(&mut self, count: usize, inputs: &[&[f32]], outputs: &mut [&mut [f32]]) {
        self.fired += count as u64;
        assert!(
            self.fired < self.at,
            "firing {} of a doomed kernel",
            self.at
        );
        self.inner.fire_n(count, inputs, outputs);
    }
}

/// Four segments of two nodes of a homogeneous pipeline whose node 4 —
/// the first of segment 2 — panics at its 100th firing.
fn doomed_chain() -> (Instance, RateAnalysis, Partition) {
    doomed_at(4, 100)
}

/// The same chain, `T` = 64 firings a batch at `m` = 64, with node
/// `node` doomed at firing `at`.
fn doomed_at(node: usize, at: u64) -> (Instance, RateAnalysis, Partition) {
    let g = gen::pipeline_uniform(8, 32);
    let ra = RateAnalysis::analyze_single_io(&g).unwrap();
    let p = Partition::from_assignment(vec![0, 0, 1, 1, 2, 2, 3, 3]);
    let mut inst = Instance::synthetic(g);
    let inner = std::mem::replace(
        &mut inst.kernels[node],
        Box::new(ccs_runtime::kernel::SyntheticKernel::new(1, false)),
    );
    inst.kernels[node] = Box::new(PanicsAt {
        inner,
        at,
        fired: 0,
    });
    (inst, ra, p)
}

/// Run `execute_dag_cfg` over 8 rounds on a thread of its own, so that
/// a hang fails the test instead of stalling the suite.
fn run_watched(
    (inst, ra, p): (Instance, RateAnalysis, Partition),
    cfg: RunConfig,
) -> Result<Option<u64>, DagExecError> {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(execute_dag_cfg(inst, &ra, &p, 64, 8, &cfg).map(|s| s.run.digest));
    });
    rx.recv_timeout(Duration::from_secs(10))
        .expect("the run hung after a worker panicked")
}

#[test]
fn a_panic_on_either_side_of_the_round_0_join_is_a_typed_error() {
    // Under the measured placement on two workers, segment 3 (worker 1
    // in round 0) panics in its first batch while worker 0, its round 0
    // done, waits at the join: it must leave. Then segment 2 panics in
    // round 1, on whichever worker the placement gave it.
    let got = run_watched(doomed_at(6, 10), RunConfig::new(2));
    assert_eq!(
        got,
        Err(DagExecError::WorkerPanicked {
            worker: 1,
            segment: Some(3),
        })
    );
    let got = run_watched(doomed_at(4, 100), RunConfig::new(2));
    assert!(
        matches!(
            got,
            Err(DagExecError::WorkerPanicked {
                segment: Some(2),
                ..
            })
        ),
        "{got:?}"
    );
}

#[test]
fn a_panicking_kernel_ends_the_run_with_a_typed_error() {
    // Round-robin on two workers: segment 2 runs on worker 0 and panics
    // in round 2, with segment 3 waiting on it from worker 1.
    let cfg = RunConfig::new(2).with_placement(Placement::RoundRobin);
    let got = run_watched(doomed_chain(), cfg);
    assert_eq!(
        got,
        Err(DagExecError::WorkerPanicked {
            worker: 0,
            segment: Some(2),
        })
    );
}

#[test]
fn a_one_worker_panic_is_a_typed_error_on_the_calling_thread() {
    // Worker 0 is the calling thread: its panic comes back as the same
    // error, through either entry point, instead of unwinding the caller.
    let want = Err(DagExecError::WorkerPanicked {
        worker: 0,
        segment: Some(2),
    });
    let (inst, ra, p) = doomed_chain();
    let got = execute_dag_cfg(inst, &ra, &p, 64, 8, &RunConfig::new(1));
    assert_eq!(got.map(|s| s.run.digest), want);
    let (inst, ra, p) = doomed_chain();
    let got = execute_serial_fused(inst, &ra, &p, 64, 8, &Default::default());
    assert_eq!(got.map(|(run, _)| run.digest), want);
}
