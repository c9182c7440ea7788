//! Module fusion: materialize a partition as a coarser streaming graph.
//!
//! The paper observes (§6) that the module-fusion heuristic of Sermulins
//! et al. "can be viewed as a special case of our partitioning method".
//! This module makes the connection executable: given a well-ordered
//! partition, [`fuse`] contracts every component into a single module
//! using SDF clustering — the fused module fires `gcd{q(v)}` times per
//! steady state with endpoint rates scaled by `q(v)/gcd`, preserving
//! rate-matching and per-iteration traffic exactly.
//!
//! Downstream, a fused graph can be scheduled by *any* scheduler: fusing
//! and then running the plain single-appearance schedule approximates the
//! partitioned scheduler's state locality without a two-level runtime.
//!
//! [`compile_firing_plan`] goes one step further and makes fusion an
//! *executor* concern: it compiles one segment's batch — a counted
//! repetition of one topologically legal steady-state period — into a
//! [`FiringPlan`] whose entries, one per run of consecutive firings of
//! a node, read and write precomputed, strided spans. Intra-segment
//! edges become plain offset arithmetic over a flat scratch arena (no
//! ring, no copy); a segment-boundary edge's spans address the edge's
//! own ring storage, through one contiguous [`BoundaryIo`] window per
//! batch (no copy either).

use crate::types::Partition;
use ccs_graph::ratio::gcd_u64;
use ccs_graph::{EdgeId, GraphBuilder, NodeId, RateAnalysis, StreamGraph};
use std::ops::Range;

/// The fused graph and its bookkeeping.
#[derive(Clone, Debug)]
pub struct FusedGraph {
    pub graph: StreamGraph,
    /// fine node -> fused node.
    pub node_map: Vec<u32>,
    /// fused node -> firing multiplier of each fine member per fused
    /// firing is `q(v)/q_component`; this records `q_component` itself.
    pub component_q: Vec<u64>,
}

/// Fuse each component of `p` into one module. Requires `p` well ordered
/// (otherwise the contracted graph has cycles and this returns `None`).
pub fn fuse(g: &StreamGraph, ra: &RateAnalysis, p: &Partition) -> Option<FusedGraph> {
    if !p.is_well_ordered(g) {
        return None;
    }
    let comps = p.components();
    let mut component_q = Vec::with_capacity(comps.len());
    let mut b = GraphBuilder::new();
    for comp in &comps {
        let q_c = comp.iter().map(|&v| ra.q(v)).fold(0u64, gcd_u64).max(1);
        component_q.push(q_c);
        let name = comp
            .iter()
            .map(|&v| g.node(v).name.as_str())
            .collect::<Vec<_>>()
            .join("+");
        b.node(name, g.state_of(comp));
    }
    let node_map: Vec<u32> = g.node_ids().map(|v| p.component_of(v)).collect();
    for e in g.edge_ids() {
        let edge = g.edge(e);
        let (cu, cv) = (p.component_of(edge.src), p.component_of(edge.dst));
        if cu == cv {
            continue; // fused away
        }
        // One fused firing of C(u) performs q(u)/q_C(u) firings of u.
        let fu = ra.q(edge.src) / component_q[cu as usize];
        let fv = ra.q(edge.dst) / component_q[cv as usize];
        b.edge(NodeId(cu), NodeId(cv), edge.produce * fu, edge.consume * fv);
    }
    let graph = b.build().ok()?;
    Some(FusedGraph {
        graph,
        node_map,
        component_q,
    })
}

/// One port's view of a segment's batch (offsets and lengths in `f32`
/// items) for one run of firings: in repetition `r` of the period the
/// run reads or writes `[offset + r·stride, offset + r·stride + len)`
/// of its base, `len` being the whole run's `count·rate` items.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ArenaSpan {
    /// What `offset` counts from: 0 is the segment's scratch arena,
    /// `k + 1` the first item of the plan's k-th boundary window
    /// ([`FiringPlan::loads`], then [`FiringPlan::stores`]).
    pub base: usize,
    pub offset: usize,
    pub len: usize,
    /// Advance per repetition: `appearances·rate` on a cross edge, 0 on
    /// an internal one.
    pub stride: usize,
}

/// One run of the period — `count` consecutive firings of one node:
/// which local kernel fires, how often, and where each of its ports
/// lives, as ranges into [`FiringPlan::spans`]. A span covers the whole
/// run, `count·rate` items, one firing's after the other's. Port order
/// matches the graph's `in_edges`/`out_edges` order, i.e. the reference
/// interpreter's scratch layout.
#[derive(Clone, Debug)]
pub struct FusedFiring {
    /// Index of the firing node within the segment's node list.
    pub local: usize,
    /// Firings in the run.
    pub count: usize,
    /// Input span per input port.
    pub inputs: Range<usize>,
    /// Output span per output port.
    pub outputs: Range<usize>,
}

/// A batch-boundary window: which cross edge, and how many items one
/// batch moves over it. The executor takes exactly that many items of
/// the edge's ring as one contiguous window — peeked for a load,
/// reserved for a store — and the spans based on it address the ring's
/// storage directly.
#[derive(Clone, Copy, Debug)]
pub struct BoundaryIo {
    pub edge: EdgeId,
    pub items: usize,
}

/// One segment's batch, compiled for fused execution as `reps`
/// repetitions of one steady-state *period* (every member `v` fires
/// `quota[v]/reps` times per period), one entry per run of consecutive
/// firings of a node, so the plan is O(runs) however large the batch
/// is — one entry per member for the blocked single-appearance periods
/// `ExecPlan::build` hands in.
///
/// Layout: every edge incident to the segment owns one contiguous
/// *stream region*. A cross edge's region is its boundary window — all
/// the items the edge carries in one batch, in the edge's ring — and
/// each repetition moves on by the period's share of it: in repetition
/// `r`, a run that starts at the k-th of the period's `a` firings of
/// `v` and is `c` firings long touches items
/// `[(r·a + k)·rate, (r·a + k + c)·rate)` of the window. An internal
/// edge's region lies in the arena, holds **one period's** items and is
/// reused by every repetition (stride 0) — the intra-segment buffers
/// the c-bound budgets for stay cache resident however large the batch
/// is: such a run of producer `u` writes
/// `[k·produce(e), (k+c)·produce(e))`, one of consumer `v` reads
/// `[k·consume(e), (k+c)·consume(e))`. Because the period is a
/// legal SDF schedule (validated at compile time by replaying it, run
/// by run, against the occupancy invariant — nothing else fires inside
/// a run, so a run is legal exactly when its inputs hold all `c`
/// firings' items at its start) that returns every internal stream
/// to empty, every read lands on items already written in the same
/// repetition, and by induction every repetition is legal. Regions are
/// pairwise disjoint by construction and a node never has the same edge
/// on both sides (the graph is a dag), so one firing's port spans never
/// alias.
///
/// The arena carries no state across batches: a full batch returns
/// every internal stream to empty.
#[derive(Clone, Debug)]
pub struct FiringPlan {
    /// Arena length in `f32` items: the internal edges' regions.
    pub arena_len: usize,
    /// How often one batch runs the period.
    pub reps: u64,
    /// One period's runs, in schedule order.
    pub firings: Vec<FusedFiring>,
    /// Every run's port spans in schedule order (inputs, then
    /// outputs), so the loop reads its metadata sequentially.
    pub spans: Vec<ArenaSpan>,
    /// Cross inputs: windows to peek before the firings and release
    /// after them. Span bases `1..=loads.len()`.
    pub loads: Vec<BoundaryIo>,
    /// Cross outputs: windows to reserve before the firings and commit
    /// after them. Span bases from `loads.len() + 1`.
    pub stores: Vec<BoundaryIo>,
}

impl FiringPlan {
    /// What the executor's raw-pointer views rely on, checked over the
    /// finished plan: every span stays inside its base through the last
    /// repetition, and the only spans based on a load window are inputs,
    /// so a peeked window is never written. An arena span must keep
    /// `offset + (reps − 1)·stride + len` within `arena_len`; a window
    /// span must stay inside its repetition's share of the window —
    /// `offset + len ≤ stride` and `reps·stride = items` — which keeps
    /// it inside the window and makes the first `r` repetitions touch
    /// exactly the first `r·items/reps` items of it: what lets a batch
    /// publish its outputs, and read its inputs, a prefix at a time.
    fn spans_stay_in_bounds(&self) -> bool {
        let Ok(last) = usize::try_from(self.reps.saturating_sub(1)) else {
            return false;
        };
        let room: Vec<usize> = std::iter::once(self.arena_len)
            .chain(self.loads.iter().chain(&self.stores).map(|io| io.items))
            .collect();
        let fits = |s: &ArenaSpan| match room.get(s.base) {
            Some(&arena) if s.base == 0 => last
                .checked_mul(s.stride)
                .and_then(|n| n.checked_add(s.offset))
                .and_then(|n| n.checked_add(s.len))
                .is_some_and(|end| end <= arena),
            Some(&items) => {
                s.offset.checked_add(s.len).is_some_and(|n| n <= s.stride)
                    && (last + 1).checked_mul(s.stride) == Some(items)
            }
            None => false,
        };
        let stores_from = self.loads.len() + 1;
        self.firings.iter().all(|f| {
            let (ins, outs) = (
                &self.spans[f.inputs.clone()],
                &self.spans[f.outputs.clone()],
            );
            ins.iter().all(|s| fits(s) && s.base < stores_from)
                && outs
                    .iter()
                    .all(|s| fits(s) && (s.base == 0 || s.base >= stores_from))
        })
    }
}

/// Compile one segment's batch into a [`FiringPlan`].
///
/// `nodes` are the segment's members, `quota[v]` is how often node `v`
/// fires per batch, and `firings` is one period of the batch: every
/// member `quota[v]/reps` times for one `reps` common to the segment
/// (a whole batch's sequence is the `reps = 1` case), in an order that
/// is legal with all cross inputs pre-loaded. Consecutive firings of
/// one node compile into one [`FusedFiring`]. Returns `None` if the
/// sequence fires a non-member, does not divide the quotas evenly,
/// overflows arena arithmetic, is not a legal schedule — i.e. some
/// firing would read items not yet written — or would leave a span
/// outside its arena region or boundary window on any repetition.
pub fn compile_firing_plan(
    g: &StreamGraph,
    quota: &[u64],
    nodes: &[NodeId],
    firings: &[NodeId],
) -> Option<FiringPlan> {
    let mut member = vec![false; g.node_count()];
    let mut local_of = vec![usize::MAX; g.node_count()];
    for (i, &v) in nodes.iter().enumerate() {
        member[v.idx()] = true;
        local_of[v.idx()] = i;
    }

    // Firings of each member in one period, and the repetition count
    // they imply.
    let mut appear = vec![0u64; g.node_count()];
    for &v in firings {
        if !member[v.idx()] {
            return None;
        }
        appear[v.idx()] += 1;
    }
    let mut reps = None;
    for &v in nodes {
        let (q, a) = (quota[v.idx()], appear[v.idx()]);
        if a == 0 || !q.is_multiple_of(a) || *reps.get_or_insert(q / a) != q / a {
            return None;
        }
    }
    let reps = reps.unwrap_or(1);

    // One stream region per incident edge, as (span base, offset of
    // the region's first item). Internal edges get a region of the
    // arena, placed at their consumer in node order; a cross edge's
    // region is the whole of its boundary window, loads numbered before
    // stores.
    let mut region = vec![(usize::MAX, 0usize); g.edge_count()];
    let mut arena_len = 0usize;
    let mut loads = Vec::new();
    let mut stores = Vec::new();
    let window = |v: NodeId, rate: u64| usize::try_from(quota[v.idx()].checked_mul(rate)?).ok();
    for &v in nodes {
        for &e in g.in_edges(v) {
            let edge = g.edge(e);
            if member[edge.src.idx()] {
                // Internal: one period is rate-matched end to end, so
                // it drains the region it fills.
                let items = appear[v.idx()].checked_mul(edge.consume)?;
                if appear[edge.src.idx()].checked_mul(edge.produce)? != items {
                    return None;
                }
                region[e.idx()] = (0, arena_len);
                arena_len = arena_len.checked_add(usize::try_from(items).ok()?)?;
            } else {
                let items = window(v, edge.consume)?;
                loads.push(BoundaryIo { edge: e, items });
                region[e.idx()] = (loads.len(), 0);
            }
        }
    }
    for &v in nodes {
        for &e in g.out_edges(v) {
            let edge = g.edge(e);
            if !member[edge.dst.idx()] {
                let items = window(v, edge.produce)?;
                stores.push(BoundaryIo { edge: e, items });
                region[e.idx()] = (loads.len() + stores.len(), 0);
            }
        }
    }

    // Replay the period run by run: compute each run's spans from
    // per-node firing counters, and validate legality with the same
    // occupancy bookkeeping a real FIFO would do. Cross inputs hold the
    // whole batch before the first firing, so only internal streams can
    // run dry.
    let mut occupancy = vec![0u64; g.edge_count()];
    let mut fired = vec![0u64; g.node_count()];
    let mut compiled = Vec::with_capacity(nodes.len());
    let mut spans = Vec::new();
    for run in firings.chunk_by(|a, b| a == b) {
        let (v, count) = (run[0], run.len() as u64);
        let k = fired[v.idx()];
        fired[v.idx()] += count;
        // Every offset below stays inside the edge's region, whose
        // length was proved to fit a `usize` above.
        let span = |e: EdgeId, rate: u64, internal: bool| ArenaSpan {
            base: region[e.idx()].0,
            offset: region[e.idx()].1 + (k * rate) as usize,
            len: (count * rate) as usize,
            stride: if internal {
                0
            } else {
                (appear[v.idx()] * rate) as usize
            },
        };
        let first = spans.len();
        for &e in g.in_edges(v) {
            let edge = g.edge(e);
            let internal = member[edge.src.idx()];
            if internal {
                if occupancy[e.idx()] < count * edge.consume {
                    return None; // read would overtake the writes
                }
                occupancy[e.idx()] -= count * edge.consume;
            }
            spans.push(span(e, edge.consume, internal));
        }
        let mid = spans.len();
        for &e in g.out_edges(v) {
            let edge = g.edge(e);
            let internal = member[edge.dst.idx()];
            if internal {
                occupancy[e.idx()] += count * edge.produce;
            }
            spans.push(span(e, edge.produce, internal));
        }
        compiled.push(FusedFiring {
            local: local_of[v.idx()],
            count: run.len(),
            inputs: first..mid,
            outputs: mid..spans.len(),
        });
    }
    let plan = FiringPlan {
        arena_len,
        reps,
        firings: compiled,
        spans,
        loads,
        stores,
    };
    plan.spans_stay_in_bounds().then_some(plan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dag_greedy;
    use ccs_graph::gen::{self, LayeredCfg, PipelineCfg, StateDist};

    fn analyzed(g: &StreamGraph) -> RateAnalysis {
        RateAnalysis::analyze_single_io(g).unwrap()
    }

    #[test]
    fn fused_graph_is_rate_matched_with_preserved_traffic() {
        let cfg = LayeredCfg {
            layers: 4,
            max_width: 4,
            density: 0.3,
            state: StateDist::Uniform(8, 48),
            max_q: 3,
        };
        for seed in 0..10u64 {
            let g = gen::layered(&cfg, seed);
            let ra = analyzed(&g);
            let p = dag_greedy::greedy_topo(&g, 120.max(g.max_state()));
            let fused = fuse(&g, &ra, &p).unwrap();
            let fra = RateAnalysis::analyze(&fused.graph).unwrap();
            assert!(fra.check_balance(&fused.graph), "seed {seed}");
            // Per-iteration traffic on surviving edges matches the fine
            // cross traffic in total.
            let fine: u64 = p
                .cross_edges(&g)
                .into_iter()
                .map(|e| ra.edge_traffic(&g, e))
                .sum();
            let coarse: u64 = fused
                .graph
                .edge_ids()
                .map(|e| fra.edge_traffic(&fused.graph, e))
                .sum();
            assert_eq!(fine, coarse, "seed {seed}");
        }
    }

    #[test]
    fn fused_state_is_component_state() {
        let g = gen::pipeline_uniform(9, 10);
        let ra = analyzed(&g);
        let p = dag_greedy::greedy_topo(&g, 30);
        let fused = fuse(&g, &ra, &p).unwrap();
        assert_eq!(fused.graph.total_state(), g.total_state());
        for c in fused.graph.node_ids() {
            assert_eq!(fused.graph.state(c), 30);
        }
        assert_eq!(fused.graph.node_count(), 3);
    }

    #[test]
    fn fusing_whole_graph_gives_single_node() {
        let g = gen::split_join(2, 2, StateDist::Fixed(4), 1);
        let ra = analyzed(&g);
        let fused = fuse(&g, &ra, &Partition::whole(&g)).unwrap();
        assert_eq!(fused.graph.node_count(), 1);
        assert_eq!(fused.graph.edge_count(), 0);
    }

    #[test]
    fn fusing_singletons_is_identity_shaped() {
        let g = gen::pipeline(&PipelineCfg::default(), 4);
        let ra = analyzed(&g);
        let fused = fuse(&g, &ra, &Partition::singletons(&g)).unwrap();
        assert_eq!(fused.graph.node_count(), g.node_count());
        assert_eq!(fused.graph.edge_count(), g.edge_count());
        for e in g.edge_ids() {
            let fe = fused.graph.edge(e);
            let oe = g.edge(e);
            // q(v)/q_singleton(v) = 1: rates unchanged.
            assert_eq!(fe.produce, oe.produce);
            assert_eq!(fe.consume, oe.consume);
        }
    }

    #[test]
    fn non_well_ordered_rejected() {
        let g = gen::pipeline_uniform(4, 4);
        let ra = analyzed(&g);
        let bad = Partition::from_assignment(vec![0, 1, 0, 1]);
        assert!(fuse(&g, &ra, &bad).is_none());
    }

    #[test]
    fn fusion_then_sas_approximates_partitioned_locality() {
        // Scheduling the fused graph with plain SAS yields far fewer
        // misses than SAS on the original when state thrashes: fusion IS
        // partitioning, as §6 remarks.
        use ccs_cachesim::CacheParams;
        use ccs_sched::{baseline, ExecOptions, Executor};
        let g = gen::pipeline_uniform(32, 256); // 8192 words
        let ra = analyzed(&g);
        let params = CacheParams::new(2048, 16);
        let iters = 256u64;

        let naive = baseline::single_appearance(&g, &ra, iters);
        let mut ex = Executor::new(
            &g,
            &ra,
            naive.capacities.clone(),
            params,
            ExecOptions::default(),
        );
        ex.run(&naive.firings).unwrap();
        let misses_fine = ex.report().stats.misses;

        let p = dag_greedy::greedy_topo(&g, params.capacity / 2);
        let fused = fuse(&g, &ra, &p).unwrap();
        let fra = RateAnalysis::analyze_single_io(&fused.graph).unwrap();
        // Scale the fused schedule so it moves the same number of items:
        // fused source fires q(src)/q_C per fused iteration.
        let scaled = baseline::scaled_sas(&fused.graph, &fra, params.capacity / 2, 1);
        let mut ex2 = Executor::new(
            &fused.graph,
            &fra,
            scaled.capacities.clone(),
            params,
            ExecOptions::default(),
        );
        ex2.run(&scaled.firings).unwrap();
        let rep = ex2.report();
        let mpo_fused = rep.stats.misses as f64 / rep.outputs.max(1) as f64;
        let mpo_fine = misses_fine as f64 / iters as f64;
        assert!(
            mpo_fused * 4.0 < mpo_fine,
            "fused {mpo_fused} vs fine {mpo_fine}"
        );
    }

    /// a --2/1--> b --1/2--> c with quotas (1, 2, 1): classic SDF.
    fn rate_pipeline() -> (StreamGraph, Vec<NodeId>) {
        let mut b = GraphBuilder::new();
        let va = b.node("a", 4);
        let vb = b.node("b", 4);
        let vc = b.node("c", 4);
        b.edge(va, vb, 2, 1);
        b.edge(vb, vc, 1, 2);
        (b.build().unwrap(), vec![va, vb, vc])
    }

    /// An entry's input and output spans.
    fn ports(plan: &FiringPlan, i: usize) -> (&[ArenaSpan], &[ArenaSpan]) {
        let f = &plan.firings[i];
        (
            &plan.spans[f.inputs.clone()],
            &plan.spans[f.outputs.clone()],
        )
    }

    /// The plan's entries as (local node, firings in the run).
    fn runs(plan: &FiringPlan) -> Vec<(usize, usize)> {
        plan.firings.iter().map(|f| (f.local, f.count)).collect()
    }

    fn span(base: usize, offset: usize, len: usize, stride: usize) -> ArenaSpan {
        ArenaSpan {
            base,
            offset,
            len,
            stride,
        }
    }

    #[test]
    fn firing_plan_whole_segment_layout() {
        let (g, v) = rate_pipeline();
        let quota = vec![1, 2, 1];
        let firings = vec![v[0], v[1], v[1], v[2]];
        let plan = compile_firing_plan(&g, &quota, &v, &firings).unwrap();
        // Two internal edges, 2 items each, no boundary traffic.
        assert_eq!((plan.arena_len, plan.reps), (4, 1));
        assert!(plan.loads.is_empty() && plan.stores.is_empty());
        // One entry per member: b's two firings are one run.
        assert_eq!(runs(&plan), [(0, 1), (1, 2), (2, 1)]);
        // Region for a→b is placed first (b's in-edge), b→c second;
        // internal regions lie in the arena (base 0) and never advance,
        // and a span covers its whole run.
        assert_eq!(ports(&plan, 0), (&[][..], &[span(0, 0, 2, 0)][..]));
        assert_eq!(
            ports(&plan, 1),
            (&[span(0, 0, 2, 0)][..], &[span(0, 2, 2, 0)][..])
        );
        assert_eq!(ports(&plan, 2), (&[span(0, 2, 2, 0)][..], &[][..]));

        // A sequence that comes back to a node gives it one entry per
        // run, each starting where the node's earlier firings stopped.
        let twice: Vec<NodeId> = firings.iter().chain(&firings).copied().collect();
        let plan = compile_firing_plan(&g, &[2, 4, 2], &v, &twice).unwrap();
        assert_eq!((plan.arena_len, plan.reps), (8, 1));
        assert_eq!(
            runs(&plan),
            [(0, 1), (1, 2), (2, 1), (0, 1), (1, 2), (2, 1)]
        );
        assert_eq!(
            ports(&plan, 4),
            (&[span(0, 2, 2, 0)][..], &[span(0, 6, 2, 0)][..])
        );
    }

    #[test]
    fn firing_plan_infers_reps_and_keeps_internal_regions_one_period() {
        let (g, v) = rate_pipeline();
        let period = vec![v[0], v[1], v[1], v[2]];
        let once = compile_firing_plan(&g, &[1, 2, 1], &v, &period).unwrap();
        let many = compile_firing_plan(&g, &[5, 10, 5], &v, &period).unwrap();
        // Five times the batch is the same period, arena and spans.
        assert_eq!(many.reps, 5);
        assert_eq!(many.arena_len, once.arena_len);
        assert_eq!(many.spans, once.spans);
        // Quotas the period does not divide evenly are rejected.
        assert!(compile_firing_plan(&g, &[5, 10, 4], &v, &period).is_none());
        assert!(compile_firing_plan(&g, &[3, 5, 3], &v, &period).is_none());
    }

    #[test]
    fn firing_plan_rejects_illegal_order() {
        let (g, v) = rate_pipeline();
        let quota = vec![1, 2, 1];
        // c before b: reads items b has not written yet.
        let bad = vec![v[0], v[2], v[1], v[1]];
        assert!(compile_firing_plan(&g, &quota, &v, &bad).is_none());
        // Quota miss: b fires once, leaving a→b half full.
        let short = vec![v[0], v[1], v[2]];
        assert!(compile_firing_plan(&g, &quota, &short, &short).is_none());
    }

    #[test]
    fn firing_plan_singleton_segment_has_boundary_windows() {
        let (g, v) = rate_pipeline();
        let seg = vec![v[1]];
        // The whole batch as one period, which is one run: its firings
        // sit side by side in the windows, which are all there is — no
        // internal edge, no arena. The load is window 1, the store
        // window 2, and offsets count from each window's first item.
        let plan = compile_firing_plan(&g, &[1, 2, 1], &seg, &[v[1], v[1]]).unwrap();
        assert_eq!((plan.arena_len, plan.reps), (0, 1));
        assert_eq!(plan.loads.len(), 1);
        assert_eq!((plan.loads[0].edge, plan.loads[0].items), (EdgeId(0), 2));
        assert_eq!(plan.stores.len(), 1);
        assert_eq!((plan.stores[0].edge, plan.stores[0].items), (EdgeId(1), 2));
        assert_eq!(runs(&plan), [(0, 2)]);
        assert_eq!(
            ports(&plan, 0),
            (&[span(1, 0, 2, 2)][..], &[span(2, 0, 2, 2)][..])
        );
        // Three repetitions of that period: the windows hold the whole
        // batch and every repetition moves on by the run's two items.
        let plan = compile_firing_plan(&g, &[3, 6, 3], &seg, &[v[1], v[1]]).unwrap();
        assert_eq!((plan.arena_len, plan.reps), (0, 3));
        assert_eq!((plan.loads[0].items, plan.stores[0].items), (6, 6));
        assert_eq!(runs(&plan), [(0, 2)]);
        assert_eq!(
            ports(&plan, 0),
            (&[span(1, 0, 2, 2)][..], &[span(2, 0, 2, 2)][..])
        );
    }

    #[test]
    fn firing_plan_mixes_arena_and_window_bases() {
        let (g, v) = rate_pipeline();
        // {b, c} with a outside: a→b is a load window, b→c internal.
        let seg = vec![v[1], v[2]];
        let plan = compile_firing_plan(&g, &[3, 6, 3], &seg, &[v[1], v[1], v[2]]).unwrap();
        assert_eq!((plan.arena_len, plan.reps), (2, 3));
        assert_eq!((plan.loads.len(), plan.stores.len()), (1, 0));
        assert_eq!(plan.loads[0].items, 6);
        assert_eq!(runs(&plan), [(0, 2), (1, 1)]);
        assert_eq!(
            ports(&plan, 0),
            (&[span(1, 0, 2, 2)][..], &[span(0, 0, 2, 0)][..])
        );
        assert_eq!(ports(&plan, 1), (&[span(0, 0, 2, 0)][..], &[][..]));
    }

    #[test]
    fn firing_plan_rejects_spans_that_leave_their_base() {
        let (g, v) = rate_pipeline();
        let seg = vec![v[1]];
        let good = compile_firing_plan(&g, &[3, 6, 3], &seg, &[v[1], v[1]]).unwrap();
        assert!(good.spans_stay_in_bounds());
        // One repetition more than the 6-item windows hold: the run's
        // spans would end at item 3·2 + 2 = 8.
        let mut plan = good.clone();
        plan.reps += 1;
        assert!(!plan.spans_stay_in_bounds());
        // A stride one item too long overruns on the last repetition
        // only: 2·3 + 2 = 8 > 6, while repetition 1 still fits.
        let mut plan = good.clone();
        plan.spans[0].stride += 1;
        assert!(!plan.spans_stay_in_bounds());
        // A run one firing longer than its share of the window.
        let mut plan = good.clone();
        plan.spans[0].len += 1;
        assert!(!plan.spans_stay_in_bounds());
        // A window shorter than the batch its spans walk.
        let mut plan = good.clone();
        plan.stores[0].items -= 1;
        assert!(!plan.spans_stay_in_bounds());
        // A window longer than the repetitions' shares: every span stays
        // inside it, but the first repetition's items are no longer its
        // first third, so a prefix of it could not be handed over.
        let mut plan = good.clone();
        plan.stores[0].items += 3;
        assert!(!plan.spans_stay_in_bounds());
        // A run that starts one item into its share ends one item into
        // the next repetition's.
        let mut plan = good.clone();
        plan.spans[1].offset += 1;
        plan.stores[0].items += 1;
        assert!(!plan.spans_stay_in_bounds());
        // A base that names no window, and an output based on the load
        // window (a peeked window is read-only).
        let mut plan = good.clone();
        plan.spans[1].base = 3;
        assert!(!plan.spans_stay_in_bounds());
        let mut plan = good.clone();
        plan.spans[1].base = 1;
        assert!(!plan.spans_stay_in_bounds());
        // An arena span past `arena_len`.
        let mut plan = compile_firing_plan(&g, &[1, 2, 1], &v, &[v[0], v[1], v[1], v[2]]).unwrap();
        assert!(plan.spans_stay_in_bounds());
        plan.arena_len -= 1;
        assert!(!plan.spans_stay_in_bounds());
    }

    #[test]
    fn firing_plan_rejects_rate_mismatched_quota() {
        let (g, v) = rate_pipeline();
        // quota (1, 1, 1) leaves a→b unbalanced: 2 produced, 1 consumed.
        let quota = vec![1, 1, 1];
        let firings = vec![v[0], v[1], v[2]];
        assert!(compile_firing_plan(&g, &quota, &v, &firings).is_none());
    }

    #[test]
    fn partitions_of_the_fused_graph_lift_with_the_same_traffic() {
        // Any partition of the fused graph, lifted to the original graph
        // through `node_map`, cuts exactly the same per-iteration traffic
        // and stays well ordered.
        let cfg = LayeredCfg {
            layers: 4,
            max_width: 4,
            density: 0.3,
            state: StateDist::Uniform(4, 32),
            max_q: 3,
        };
        for seed in 0..8u64 {
            let g = gen::layered(&cfg, seed);
            let ra = analyzed(&g);
            let p = dag_greedy::greedy_topo(&g, 64.max(g.max_state()));
            let fused = fuse(&g, &ra, &p).unwrap();
            let fra = RateAnalysis::analyze(&fused.graph).unwrap();
            for cp in [
                Partition::singletons(&fused.graph),
                dag_greedy::greedy_topo(&fused.graph, 1 << 20),
                dag_greedy::greedy_topo(&fused.graph, fused.graph.max_state()),
            ] {
                let lifted = Partition::from_assignment(
                    (0..g.node_count())
                        .map(|i| cp.component_of(NodeId(fused.node_map[i])))
                        .collect(),
                );
                let coarse: u64 = cp
                    .cross_edges(&fused.graph)
                    .into_iter()
                    .map(|e| fra.edge_traffic(&fused.graph, e))
                    .sum();
                let fine: u64 = lifted
                    .cross_edges(&g)
                    .into_iter()
                    .map(|e| ra.edge_traffic(&g, e))
                    .sum();
                assert_eq!(coarse, fine, "seed {seed}");
                assert!(lifted.is_well_ordered(&g), "seed {seed}");
            }
        }
    }

    #[test]
    fn fused_repetitions_are_the_component_firing_counts() {
        // A fused firing of component C performs q(v)/q_C firings of each
        // member v, so per steady-state iteration the fused graph fires C
        // q_C times: its minimal repetition vector is `component_q` over
        // the gcd of all its entries.
        let cfg = LayeredCfg {
            layers: 4,
            max_width: 3,
            density: 0.4,
            state: StateDist::Uniform(8, 48),
            max_q: 3,
        };
        for seed in 0..10u64 {
            let g = gen::layered(&cfg, seed);
            let ra = analyzed(&g);
            let p = dag_greedy::greedy_topo(&g, 120.max(g.max_state()));
            let fused = fuse(&g, &ra, &p).unwrap();
            let fra = RateAnalysis::analyze(&fused.graph).unwrap();
            assert_eq!(fused.component_q.len(), fused.graph.node_count());
            let k = fused.component_q.iter().copied().fold(0, gcd_u64);
            for c in fused.graph.node_ids() {
                assert_eq!(fra.q(c) * k, fused.component_q[c.idx()], "seed {seed}");
            }
            for v in g.node_ids() {
                let c = fused.node_map[v.idx()] as usize;
                assert_eq!(c as u32, p.component_of(v), "seed {seed}");
                assert_eq!(ra.q(v) % fused.component_q[c], 0, "seed {seed}");
            }
        }
    }
}
