//! The reference interpreter: runs any legal firing sequence on real
//! memory, one firing at a time, every edge a std `VecDeque`.
//!
//! This is the oracle the fused executors of `ccs-exec` are tested
//! against: it shares no code with them — not even their ring — so an
//! equal sink digest is independent evidence. Per-node scratch buffers
//! and every channel are allocated once up front, sized exactly to the
//! node's rates and the edge's declared capacity, so the firing loop is
//! allocation-free: each firing costs two channel copies plus the
//! kernel's own work.

use crate::instance::Instance;
use crate::kernel::{Kernel, MAX_PORTS};
use ccs_graph::{NodeId, StreamGraph};
use ccs_sched::SchedRun;
use std::collections::VecDeque;
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
    /// Words of channel storage the run allocated: the executors' ring
    /// slab, or here, where every edge is a `VecDeque` of its own, the
    /// edges' declared capacities summed.
    pub boundary_words: u64,
}

/// One edge's FIFO: a `VecDeque` allocated at the edge's declared
/// capacity. A `VecDeque` would grow past it, so [`Channel::push`]
/// checks the bound itself, and [`Channel::pop`] refuses a short read.
struct Channel {
    queue: VecDeque<f32>,
    capacity: usize,
}

impl Channel {
    fn new(capacity: usize) -> Channel {
        Channel {
            queue: VecDeque::with_capacity(capacity),
            capacity,
        }
    }

    fn push(&mut self, items: &[f32]) {
        assert!(
            self.queue.len() + items.len() <= self.capacity,
            "ring overflow"
        );
        self.queue.extend(items);
    }

    fn pop(&mut self, out: &mut [f32]) {
        let n = out.len();
        assert!(n <= self.queue.len(), "ring underflow");
        for (slot, x) in out.iter_mut().zip(self.queue.drain(..n)) {
            *slot = x;
        }
    }
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

/// Execute `run`'s firing sequence over real channel buffers.
///
/// Buffer capacities come from `run.capacities`; underflow or overflow
/// panics (the symbolic executor validates the same sequence in tests, so
/// a panic here indicates an executor bug, not a scheduler bug).
pub fn execute(inst: &mut Instance, run: &SchedRun) -> RunStats {
    let g = &inst.graph;
    assert_eq!(run.capacities.len(), g.edge_count());
    let mut channels: Vec<Channel> = g
        .edge_ids()
        .map(|e| Channel::new(run.capacities[e.idx()].max(1) as usize))
        .collect();
    let boundary_words = channels.iter().map(|c| c.capacity as u64).sum();
    let mut scratch = Scratch::for_graph(g);
    let sink = g.single_sink();
    let mut sink_items = 0u64;
    let start = Instant::now();
    for &v in &run.firings {
        fire_once(inst, &mut channels, &mut scratch, v, sink, &mut sink_items);
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
    channels: &mut [Channel],
    scratch: &mut Scratch,
    v: NodeId,
    sink: Option<NodeId>,
    sink_items: &mut u64,
) {
    let g = &inst.graph;
    let vin = &mut scratch.inputs[v.idx()];
    for (i, &e) in g.in_edges(v).iter().enumerate() {
        channels[e.idx()].pop(&mut vin[i]);
        if Some(v) == sink {
            *sink_items += vin[i].len() as u64;
        }
    }
    let vout = &mut scratch.outputs[v.idx()];
    fire_ports(inst.kernels[v.idx()].as_mut(), vin, vout);
    for (i, &e) in inst.graph.out_edges(v).iter().enumerate() {
        channels[e.idx()].push(&vout[i]);
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

    /// A two-node 1:1 pipeline whose edge holds one item, run over
    /// `firings`.
    fn run_pair(firings: &[u32]) -> RunStats {
        let g = gen::pipeline_uniform(2, 8);
        let run = SchedRun {
            label: "illegal".into(),
            firings: firings.iter().map(|&v| NodeId(v)).collect(),
            capacities: vec![1],
        };
        execute(&mut Instance::synthetic(g), &run)
    }

    /// A `VecDeque` would grow to take the second item; the declared
    /// capacity is the channel's bound.
    #[test]
    #[should_panic(expected = "ring overflow")]
    fn a_push_past_the_declared_capacity_panics() {
        run_pair(&[0, 0]);
    }

    #[test]
    #[should_panic(expected = "ring underflow")]
    fn a_firing_on_an_empty_edge_panics() {
        run_pair(&[1]);
    }

    /// A channel is FIFO across many laps of its `VecDeque`, may be
    /// filled to exactly its declared capacity, and never reallocates:
    /// the firing loop stays allocation-free.
    #[test]
    fn channels_are_fifo_across_laps_without_reallocating() {
        let cap = 5;
        let mut ch = Channel::new(cap);
        let allocated = ch.queue.capacity();
        let (mut pushed, mut popped) = (0usize, 0usize);
        let mut filled = 0;
        for k in 0..60usize {
            let room = cap - ch.queue.len();
            // Every fourth step fills the channel to the brim.
            let n = if k % 4 == 0 {
                room
            } else {
                (k * 7 % 5 + 1).min(room)
            };
            let items: Vec<f32> = (pushed..pushed + n).map(|i| i as f32).collect();
            ch.push(&items);
            pushed += n;
            if ch.queue.len() == cap {
                filled += 1;
            }
            let m = (k * 3 % ch.queue.len().max(1) + 1).min(ch.queue.len());
            let mut out = vec![0.0f32; m];
            ch.pop(&mut out);
            let want: Vec<f32> = (popped..popped + m).map(|i| i as f32).collect();
            assert_eq!(out, want, "step {k}");
            popped += m;
        }
        assert!(filled >= 15, "the channel was filled {filled} times");
        assert_eq!(ch.queue.capacity(), allocated, "the channel reallocated");
    }

    /// Occupancy is counted in items, not firings: a 2 → 3 edge of
    /// capacity 4 takes two producer firings, and a sequence that fills
    /// it exactly is legal and computes what a roomier one computes.
    #[test]
    fn a_multi_rate_sequence_may_fill_its_edge_exactly() {
        let mut b = ccs_graph::GraphBuilder::new();
        let (src, dst) = (b.node("src", 8), b.node("dst", 8));
        b.edge(src, dst, 2, 3);
        let g = b.build().unwrap();
        let run = |firings: &[u32], cap: u64| {
            let run = SchedRun {
                label: "rated".into(),
                firings: firings.iter().map(|&v| NodeId(v)).collect(),
                capacities: vec![cap],
            };
            execute(&mut Instance::synthetic(g.clone()), &run)
        };
        // Occupancy 2, 4, 1, 3, 0: the second firing fills the edge.
        let tight = run(&[0, 0, 1, 0, 1], 4);
        assert_eq!((tight.firings, tight.sink_items), (5, 6));
        let roomy = run(&[0, 0, 0, 1, 1], 6);
        assert_eq!(tight.digest, roomy.digest);
    }

    /// `boundary_words` is the sum of the declared capacities, a zero
    /// capacity counting as the one slot the channel is given.
    #[test]
    fn boundary_words_sum_the_declared_capacities() {
        let g = gen::pipeline_uniform(3, 8);
        let run = SchedRun {
            label: "sized".into(),
            firings: vec![NodeId(0), NodeId(1), NodeId(2)],
            capacities: vec![5, 0],
        };
        let stats = execute(&mut Instance::synthetic(g), &run);
        assert_eq!(stats.boundary_words, 6);
        assert_eq!(stats.sink_items, 1);
    }

    /// Past `MAX_PORTS` the port views are built on the heap; they keep
    /// the ports in order, so nine one-item ports fold into the sink's
    /// digest exactly as one nine-item port does.
    #[test]
    fn a_wide_node_keeps_its_port_order() {
        let ports: Vec<Vec<f32>> = (0..MAX_PORTS + 1).map(|i| vec![i as f32]).collect();
        let mut via_vecs = SinkCollect::new(4);
        fire_ports(&mut via_vecs, &ports, &mut []);
        let views: Vec<&[f32]> = ports.iter().map(|p| p.as_slice()).collect();
        let mut direct = SinkCollect::new(4);
        direct.fire(&views, &mut []);
        let flat: Vec<f32> = ports.concat();
        let mut one_port = SinkCollect::new(4);
        one_port.fire(&[&flat], &mut []);
        assert_eq!(via_vecs.digest(), direct.digest());
        assert_eq!(via_vecs.digest(), one_port.digest());
        let mut reversed = SinkCollect::new(4);
        let back: Vec<Vec<f32>> = ports.iter().rev().cloned().collect();
        fire_ports(&mut reversed, &back, &mut []);
        assert_ne!(via_vecs.digest(), reversed.digest(), "order is folded in");
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
