//! The reference interpreter: runs any legal firing sequence on real
//! memory, one firing at a time, every edge a ring.
//!
//! This is the oracle the fused executors of `ccs-exec` are tested
//! against: it shares no code with them, so an equal sink digest is
//! independent evidence. Per-node scratch buffers are allocated once up
//! front, sized exactly to the node's rates, so the firing loop is
//! allocation-free: each firing costs two ring copies plus the kernel's
//! own work.

use crate::instance::Instance;
use crate::kernel::{Kernel, MAX_PORTS};
use crate::ring::Ring;
use ccs_graph::{NodeId, StreamGraph};
use ccs_sched::SchedRun;
use std::time::{Duration, Instant};

/// Outcome of a real execution.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunStats {
    /// Wall-clock time of the firing loop only (allocation excluded).
    pub wall: Duration,
    /// Total firings executed.
    pub firings: u64,
    /// Items the sink consumed.
    pub sink_items: u64,
    /// Order-sensitive digest of the sink stream (for equivalence
    /// checks), if the sink kernel provides one.
    pub digest: Option<u64>,
    /// Words of channel storage the run allocated: the executors'
    /// ring slab (`ccs_runtime::ring::RingSet::words`), or here, where
    /// every edge is a [`Ring`] of its own, their capacities summed.
    pub boundary_words: u64,
}

/// Per-node pre-sized scratch: one `Vec<f32>` per port.
struct Scratch {
    inputs: Vec<Vec<Vec<f32>>>,
    outputs: Vec<Vec<Vec<f32>>>,
}

impl Scratch {
    fn for_graph(g: &StreamGraph) -> Scratch {
        let inputs = g
            .node_ids()
            .map(|v| {
                g.in_edges(v)
                    .iter()
                    .map(|&e| vec![0.0f32; g.edge(e).consume as usize])
                    .collect()
            })
            .collect();
        let outputs = g
            .node_ids()
            .map(|v| {
                g.out_edges(v)
                    .iter()
                    .map(|&e| vec![0.0f32; g.edge(e).produce as usize])
                    .collect()
            })
            .collect();
        Scratch { inputs, outputs }
    }
}

/// Execute `run`'s firing sequence over real ring buffers.
///
/// Buffer capacities come from `run.capacities`; underflow or overflow
/// panics (the symbolic executor validates the same sequence in tests, so
/// a panic here indicates an executor bug, not a scheduler bug).
pub fn execute(inst: &mut Instance, run: &SchedRun) -> RunStats {
    let g = &inst.graph;
    assert_eq!(run.capacities.len(), g.edge_count());
    let mut rings: Vec<Ring> = g
        .edge_ids()
        .map(|e| Ring::new(run.capacities[e.idx()].max(1) as usize))
        .collect();
    let boundary_words = rings.iter().map(|r| r.capacity() as u64).sum();
    let mut scratch = Scratch::for_graph(g);
    let sink = g.single_sink();
    let mut sink_items = 0u64;
    let start = Instant::now();
    for &v in &run.firings {
        fire_once(inst, &mut rings, &mut scratch, v, sink, &mut sink_items);
    }
    let wall = start.elapsed();
    RunStats {
        wall,
        firings: run.firings.len() as u64,
        sink_items,
        digest: inst.sink_digest(),
        boundary_words,
    }
}

/// Observability options of a one-worker run
/// (`ccs_exec::execute_serial_fused`), in the threaded executor's
/// units.
#[derive(Clone, Debug, Default)]
pub struct ObsConfig {
    /// Sample hardware counters (the `ccs-perf` cache suite) around
    /// the firing loop.
    pub counters: bool,
    /// Zero the counter group once every segment has run this many
    /// batches — after this many rounds. Clamped below the run's
    /// rounds, so a measured window always remains.
    pub warmup: u64,
    /// Close a counter window every this many batches (0 = off).
    pub windows: u64,
    /// Record an event timeline into a bounded ring: a `Batch` span
    /// per segment batch, followed by the occupancy of that segment's
    /// rings.
    pub trace: bool,
    /// Event ring capacity when tracing (0 selects the default).
    pub trace_capacity: usize,
}

#[inline]
fn fire_once(
    inst: &mut Instance,
    rings: &mut [Ring],
    scratch: &mut Scratch,
    v: NodeId,
    sink: Option<NodeId>,
    sink_items: &mut u64,
) {
    let g = &inst.graph;
    let vin = &mut scratch.inputs[v.idx()];
    for (i, &e) in g.in_edges(v).iter().enumerate() {
        rings[e.idx()].pop_slice(&mut vin[i]);
        if Some(v) == sink {
            *sink_items += vin[i].len() as u64;
        }
    }
    let vout = &mut scratch.outputs[v.idx()];
    fire_ports(inst.kernels[v.idx()].as_mut(), vin, vout);
    for (i, &e) in inst.graph.out_edges(v).iter().enumerate() {
        rings[e.idx()].push_slice(&vout[i]);
    }
}

/// Fire a kernel whose scratch lives in per-port `Vec`s — the reference
/// interpreter's calling convention (`serial::execute`, one firing at a
/// time). The slice views are built on the stack for arities up to
/// `MAX_PORTS` = 8, so that loop stays allocation-free; wider nodes
/// fall back to a heap-built view table.
#[inline]
fn fire_ports(k: &mut dyn Kernel, inputs: &[Vec<f32>], outputs: &mut [Vec<f32>]) {
    let (n_in, n_out) = (inputs.len(), outputs.len());
    if n_in <= MAX_PORTS && n_out <= MAX_PORTS {
        let mut ins: [&[f32]; MAX_PORTS] = [&[]; MAX_PORTS];
        for (slot, v) in ins.iter_mut().zip(inputs) {
            *slot = v.as_slice();
        }
        let mut outs: [&mut [f32]; MAX_PORTS] = std::array::from_fn(|_| Default::default());
        for (slot, v) in outs.iter_mut().zip(outputs.iter_mut()) {
            *slot = v.as_mut_slice();
        }
        k.fire(&ins[..n_in], &mut outs[..n_out]);
    } else {
        let ins: Vec<&[f32]> = inputs.iter().map(|v| v.as_slice()).collect();
        let mut outs: Vec<&mut [f32]> = outputs.iter_mut().map(|v| v.as_mut_slice()).collect();
        k.fire(&ins, &mut outs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{Mixer, SinkCollect};
    use ccs_graph::gen::{self, LayeredCfg, PipelineCfg, StateDist};
    use ccs_graph::RateAnalysis;
    use ccs_sched::baseline;

    #[test]
    fn sas_executes_on_real_memory() {
        let g = gen::pipeline(&PipelineCfg::default(), 3);
        let ra = RateAnalysis::analyze_single_io(&g).unwrap();
        let run = baseline::single_appearance(&g, &ra, 4);
        let mut inst = Instance::synthetic(g);
        let stats = execute(&mut inst, &run);
        assert_eq!(stats.firings, run.firings.len() as u64);
        assert!(stats.sink_items > 0);
        assert!(stats.digest.is_some());
    }

    #[test]
    fn different_schedules_same_digest() {
        // SDF determinism: the output stream is schedule independent.
        let g = gen::pipeline(&PipelineCfg::default(), 9);
        let ra = RateAnalysis::analyze_single_io(&g).unwrap();
        let sink = ra.sink.unwrap();

        let sas = baseline::single_appearance(&g, &ra, 6);
        let sink_firings = sas.count(sink);
        let demand = baseline::demand_driven(&g, &ra, sink_firings);

        let mut i1 = Instance::synthetic(g.clone());
        let s1 = execute(&mut i1, &sas);
        let mut i2 = Instance::synthetic(g);
        let s2 = execute(&mut i2, &demand);

        assert_eq!(s1.sink_items, s2.sink_items);
        assert_eq!(s1.digest, s2.digest, "schedules must be functionally equal");
    }

    #[test]
    fn dag_schedules_equivalent() {
        let cfg = LayeredCfg {
            layers: 3,
            max_width: 3,
            density: 0.3,
            state: StateDist::Uniform(4, 32),
            max_q: 2,
        };
        for seed in 0..5u64 {
            let g = gen::layered(&cfg, seed);
            let ra = RateAnalysis::analyze_single_io(&g).unwrap();
            let sink = ra.sink.unwrap();
            let sas = baseline::single_appearance(&g, &ra, 3);
            let demand = baseline::demand_driven(&g, &ra, sas.count(sink));
            let mut i1 = Instance::synthetic(g.clone());
            let mut i2 = Instance::synthetic(g);
            assert_eq!(
                execute(&mut i1, &sas).digest,
                execute(&mut i2, &demand).digest,
                "seed {seed}"
            );
        }
    }

    /// The `Vec`-scratch shim builds the same port views the direct
    /// slice call does — digests and outputs agree across both calling
    /// conventions.
    #[test]
    fn fire_ports_matches_direct_slice_call() {
        let mut via_vecs = SinkCollect::new(4);
        let mut direct = SinkCollect::new(4);
        let inputs = vec![vec![1.0f32, 2.0], vec![3.0f32]];
        fire_ports(&mut via_vecs, &inputs, &mut []);
        direct.fire(&[&[1.0, 2.0], &[3.0]], &mut []);
        assert_eq!(via_vecs.digest(), direct.digest());

        let mut m1 = Mixer::new(4);
        let mut m2 = Mixer::new(4);
        let ins = vec![vec![1.0f32]];
        let mut outs = vec![vec![0.0f32; 2], vec![0.0f32; 2]];
        fire_ports(&mut m1, &ins, &mut outs);
        let mut o0 = [0.0f32; 2];
        let mut o1 = [0.0f32; 2];
        m2.fire(&[&[1.0]], &mut [&mut o0, &mut o1]);
        assert_eq!(outs[0], o0);
        assert_eq!(outs[1], o1);
    }
}
