//! Pipeline partitioners (§4 of the paper).
//!
//! For a pipeline (single directed chain), well-ordered partitions are
//! exactly the contiguous segmentations, compactly represented by the set
//! of *cut* edges. Two algorithms are provided:
//!
//! * [`greedy_theorem5`] — the paper's constructive partition: scan the
//!   chain into maximal segments `W_i` of state just over `2M`, then cut at
//!   each segment's gain-minimizing edge. This achieves the optimal cache
//!   cost to within constant factors (Theorem 5) in linear time.
//! * [`dp_min_bandwidth`] — the minimum-bandwidth `c`-bounded segmentation
//!   via dynamic programming (the paper notes such a partition is
//!   computable in polynomial time; we use a monotone-queue DP that runs
//!   in O(n) after the prefix sums).

use crate::types::Partition;
use ccs_graph::{NodeId, RateAnalysis, Ratio, StreamGraph};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Errors from the pipeline partitioners.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PipelineError {
    /// The graph is not a single directed chain.
    NotAPipeline,
    /// A single module exceeds the state bound, so no bounded partition
    /// exists (the paper assumes `s(v) <= M`).
    ModuleTooLarge {
        node: NodeId,
        state: u64,
        bound: u64,
    },
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::NotAPipeline => write!(f, "graph is not a pipeline"),
            PipelineError::ModuleTooLarge { node, state, bound } => write!(
                f,
                "module {node:?} has state {state} > bound {bound}; no bounded partition exists"
            ),
        }
    }
}

impl std::error::Error for PipelineError {}

/// A segmentation of a pipeline: `cuts[i]` is an index into the chain's
/// edge list (edge `j` connects chain positions `j` and `j+1`); cutting an
/// edge makes it a cross edge. Cuts are strictly increasing.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Segmentation {
    pub cuts: Vec<usize>,
}

impl Segmentation {
    /// Convert to a [`Partition`] over `g` given the chain order.
    fn to_partition(&self, g: &StreamGraph, order: &[NodeId]) -> Partition {
        debug_assert_eq!(order.len(), g.node_count());
        let mut assignment = vec![0u32; g.node_count()];
        let mut seg = 0u32;
        let mut cut_iter = self.cuts.iter().peekable();
        for (pos, &v) in order.iter().enumerate() {
            assignment[v.idx()] = seg;
            if cut_iter.peek() == Some(&&pos) {
                cut_iter.next();
                seg += 1;
            }
        }
        Partition::from_assignment(assignment)
    }

    /// Bandwidth of this segmentation: sum of the cut edges' gains.
    pub fn bandwidth(&self, g: &StreamGraph, ra: &RateAnalysis, order: &[NodeId]) -> Ratio {
        self.cuts
            .iter()
            .map(|&i| chain_edge_gain(g, ra, order, i))
            .sum()
    }
}

/// Gain of the chain edge at position `i` (connecting `order[i]` to
/// `order[i+1]`).
fn chain_edge_gain(g: &StreamGraph, ra: &RateAnalysis, order: &[NodeId], i: usize) -> Ratio {
    let e = g.out_edges(order[i])[0];
    debug_assert_eq!(g.edge(e).dst, order[i + 1]);
    ra.edge_gain(g, e)
}

/// The result of a pipeline partitioner: the segmentation, the induced
/// [`Partition`], and its exact bandwidth.
#[derive(Clone, Debug)]
pub struct PipelinePartition {
    pub segmentation: Segmentation,
    pub partition: Partition,
    pub bandwidth: Ratio,
    /// Largest component state in words (for bound reporting).
    pub max_component_state: u64,
}

fn chain_order(g: &StreamGraph) -> Result<Vec<NodeId>, PipelineError> {
    g.pipeline_order().ok_or(PipelineError::NotAPipeline)
}

fn check_module_bound(g: &StreamGraph, order: &[NodeId], bound: u64) -> Result<(), PipelineError> {
    for &v in order {
        if g.state(v) > bound {
            return Err(PipelineError::ModuleTooLarge {
                node: v,
                state: g.state(v),
                bound,
            });
        }
    }
    Ok(())
}

/// The paper's Theorem 5 construction.
///
/// Scan modules in chain order, accumulating segments `W_i` whose state
/// just exceeds `2M` (the final segment absorbs a remainder of less than
/// `2M`). Cut each `W_i` at its gain-minimizing internal edge. The
/// resulting components have state at most `8M`, and the schedule induced
/// by this partition is within a constant factor of optimal (given
/// constant-factor cache augmentation).
pub fn greedy_theorem5(
    g: &StreamGraph,
    ra: &RateAnalysis,
    m: u64,
) -> Result<PipelinePartition, PipelineError> {
    assert!(m > 0);
    let order = chain_order(g)?;
    check_module_bound(g, &order, m)?;
    let segments = w_segments(g, &order, m);
    let mut cuts: Vec<usize> = segments
        .iter()
        .filter_map(|&seg| gain_min_edge(g, ra, &order, m, seg))
        .map(|(pos, _)| pos)
        .collect();
    cuts.sort_unstable();
    let segmentation = Segmentation { cuts };
    let partition = segmentation.to_partition(g, &order);
    let bandwidth = segmentation.bandwidth(g, ra, &order);
    let max_component_state = partition.max_component_state(g);
    Ok(PipelinePartition {
        segmentation,
        partition,
        bandwidth,
        max_component_state,
    })
}

/// Minimum-bandwidth segmentation with every segment's state at most
/// `bound` (use `bound = c·M` for a c-bounded partition).
///
/// Dynamic program over chain prefixes with a monotone queue:
/// `dp[i] = min over feasible j of dp[j] + cost(cut before j)`, O(n) time.
pub fn dp_min_bandwidth(
    g: &StreamGraph,
    ra: &RateAnalysis,
    bound: u64,
) -> Result<PipelinePartition, PipelineError> {
    assert!(bound > 0);
    let order = chain_order(g)?;
    check_module_bound(g, &order, bound)?;
    let n = order.len();

    // prefix[i] = total state of order[0..i].
    let mut prefix = vec![0u64; n + 1];
    for i in 0..n {
        prefix[i + 1] = prefix[i] + g.state(order[i]);
    }

    // f(j) = dp[j] + cut cost before position j.
    // dp[i] = min f(j) over j with prefix[i] - prefix[j] <= bound.
    let mut dp: Vec<Ratio> = vec![Ratio::ZERO; n + 1];
    let mut parent: Vec<usize> = vec![0; n + 1];
    // Monotone deque of (j, f(j)) with f increasing.
    let mut deque: std::collections::VecDeque<(usize, Ratio)> = std::collections::VecDeque::new();
    let f0 = Ratio::ZERO; // j = 0: no cut cost
    deque.push_back((0, f0));
    let mut lo = 0usize;
    for i in 1..=n {
        // Shrink window: smallest j with prefix[i] - prefix[j] <= bound.
        while prefix[i] - prefix[lo] > bound {
            lo += 1;
        }
        while let Some(&(j, _)) = deque.front() {
            if j < lo {
                deque.pop_front();
            } else {
                break;
            }
        }
        let &(j, fj) = deque
            .front()
            .expect("window is non-empty: single modules fit the bound");
        dp[i] = fj;
        parent[i] = j;
        if i < n {
            // Candidate segment start j = i: cut before position i costs
            // the gain of chain edge i-1.
            let fi = dp[i] + chain_edge_gain(g, ra, &order, i - 1);
            while let Some(&(_, fb)) = deque.back() {
                if fb >= fi {
                    deque.pop_back();
                } else {
                    break;
                }
            }
            deque.push_back((i, fi));
        }
    }

    // Reconstruct cuts.
    let mut cuts = Vec::new();
    let mut i = n;
    while i > 0 {
        let j = parent[i];
        if j > 0 {
            cuts.push(j - 1);
        }
        i = j;
    }
    cuts.reverse();
    let segmentation = Segmentation { cuts };
    let partition = segmentation.to_partition(g, &order);
    let bandwidth = segmentation.bandwidth(g, ra, &order);
    debug_assert_eq!(bandwidth, dp[n]);
    let max_component_state = partition.max_component_state(g);
    Ok(PipelinePartition {
        segmentation,
        partition,
        bandwidth,
        max_component_state,
    })
}

/// Exhaustive minimum-bandwidth segmentation for testing (O(2^(n-1))).
pub fn brute_force_min_bandwidth(
    g: &StreamGraph,
    ra: &RateAnalysis,
    bound: u64,
) -> Result<PipelinePartition, PipelineError> {
    let order = chain_order(g)?;
    check_module_bound(g, &order, bound)?;
    let n = order.len();
    assert!(n <= 20, "brute force limited to 20 modules");
    let edges = n - 1;
    let mut best: Option<(Ratio, Vec<usize>)> = None;
    for mask in 0u32..(1u32 << edges) {
        let cuts: Vec<usize> = (0..edges).filter(|&i| mask >> i & 1 == 1).collect();
        // Check the bound.
        let mut ok = true;
        let mut seg_state = 0u64;
        let mut cut_iter = cuts.iter().peekable();
        for (pos, &v) in order.iter().enumerate().take(n) {
            seg_state += g.state(v);
            let at_cut = cut_iter.peek() == Some(&&pos);
            if at_cut {
                cut_iter.next();
            }
            if seg_state > bound {
                ok = false;
                break;
            }
            if at_cut {
                seg_state = 0;
            }
        }
        if !ok {
            continue;
        }
        let bw: Ratio = cuts
            .iter()
            .map(|&i| chain_edge_gain(g, ra, &order, i))
            .sum();
        if best.as_ref().is_none_or(|(b, _)| bw < *b) {
            best = Some((bw, cuts));
        }
    }
    let (bandwidth, cuts) = best.expect("singleton segmentation is feasible");
    let segmentation = Segmentation { cuts };
    let partition = segmentation.to_partition(g, &order);
    let max_component_state = partition.max_component_state(g);
    Ok(PipelinePartition {
        segmentation,
        partition,
        bandwidth,
        max_component_state,
    })
}

/// The paper's `W` segments (Theorem 5 construction): scan the chain in
/// order, closing a segment as soon as its state exceeds `2M`, except
/// that a remainder of at most `2M` is absorbed into the last segment.
/// Returned as `(start, end)` position ranges, end exclusive.
fn w_segments(g: &StreamGraph, order: &[NodeId], m: u64) -> Vec<(usize, usize)> {
    let n = order.len();
    let total: u64 = g.total_state();
    let mut segments: Vec<(usize, usize)> = Vec::new();
    let mut start = 0usize;
    let mut acc = 0u64;
    let mut consumed = 0u64;
    for (pos, &v) in order.iter().enumerate().take(n) {
        acc += g.state(v);
        consumed += g.state(v);
        if acc > 2 * m {
            let remaining = total - consumed;
            if remaining > 2 * m {
                segments.push((start, pos + 1));
                start = pos + 1;
                acc = 0;
            } else {
                // Absorb the remainder into this segment and finish.
                segments.push((start, n));
                start = n;
                break;
            }
        }
    }
    if start < n {
        // The scan never exceeded 2M: the remainder stays one segment
        // with state <= 2M (it will produce no cut).
        segments.push((start, n));
    }
    segments
}

/// The gain-minimizing internal edge of segment `(a, b)`, or `None` for
/// segments that do not qualify for a cut (state at most `2M`, or fewer
/// than two modules).
fn gain_min_edge(
    g: &StreamGraph,
    ra: &RateAnalysis,
    order: &[NodeId],
    m: u64,
    (a, b): (usize, usize),
) -> Option<(usize, Ratio)> {
    let seg_state: u64 = order[a..b].iter().map(|&v| g.state(v)).sum();
    if seg_state <= 2 * m || b - a < 2 {
        return None;
    }
    let mut best = a;
    let mut best_gain = chain_edge_gain(g, ra, order, a);
    for i in a + 1..b - 1 {
        let gain = chain_edge_gain(g, ra, order, i);
        if gain < best_gain {
            best_gain = gain;
            best = i;
        }
    }
    Some((best, best_gain))
}

/// The paper's Theorem 3 lower-bound quantity for pipelines: the sum of
/// the gains of the gain-minimizing edges of the `W` segments (state
/// greater than `2M` each). Any schedule — partitioned or not — firing
/// the sink `T·gain(t)` times incurs `Ω((T/B)·Σ)` cache misses.
///
/// By construction this equals the bandwidth of
/// [`greedy_theorem5`]'s partition: that is exactly how Theorem 5
/// concludes the partitioned schedule is within a constant factor of
/// optimal.
pub fn theorem3_lower_bound_gain(
    g: &StreamGraph,
    ra: &RateAnalysis,
    m: u64,
) -> Result<Ratio, PipelineError> {
    let order = chain_order(g)?;
    let total = w_segments(g, &order, m)
        .into_iter()
        .filter_map(|seg| gain_min_edge(g, ra, &order, m, seg))
        .map(|(_, gain)| gain)
        .sum();
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccs_graph::gen::{self, PipelineCfg, StateDist};
    use ccs_graph::GraphBuilder;

    fn analyzed(g: &StreamGraph) -> RateAnalysis {
        RateAnalysis::analyze_single_io(g).unwrap()
    }

    fn chain_with_states(states: &[u64]) -> StreamGraph {
        let mut b = GraphBuilder::new();
        let ids: Vec<_> = states
            .iter()
            .enumerate()
            .map(|(i, &s)| b.node(format!("v{i}"), s))
            .collect();
        for w in ids.windows(2) {
            b.edge(w[0], w[1], 1, 1);
        }
        b.build().unwrap()
    }

    #[test]
    fn segmentation_to_partition_roundtrip() {
        let g = chain_with_states(&[1, 1, 1, 1, 1]);
        let order = g.pipeline_order().unwrap();
        let seg = Segmentation { cuts: vec![1, 3] };
        let p = seg.to_partition(&g, &order);
        assert_eq!(p.num_components(), 3);
        assert_eq!(p.assignment(), &[0, 0, 1, 1, 2]);
        assert!(p.is_well_ordered(&g));
    }

    #[test]
    fn greedy_whole_graph_fits() {
        let g = chain_with_states(&[10, 10, 10]);
        let ra = analyzed(&g);
        // 2M = 200 > total: one component, no cuts.
        let pp = greedy_theorem5(&g, &ra, 100).unwrap();
        assert_eq!(pp.partition.num_components(), 1);
        assert_eq!(pp.bandwidth, Ratio::ZERO);
    }

    #[test]
    fn greedy_splits_when_state_exceeds_2m() {
        // Six modules of 10 words, M = 10: segments of >20 words form.
        let g = chain_with_states(&[10; 6]);
        let ra = analyzed(&g);
        let pp = greedy_theorem5(&g, &ra, 10).unwrap();
        assert!(pp.partition.num_components() >= 2);
        assert!(pp.partition.is_well_ordered(&g));
        // Theorem 5: components bounded by 8M.
        assert!(pp.max_component_state <= 8 * 10);
        // Homogeneous chain: bandwidth = number of cuts.
        assert_eq!(
            pp.bandwidth,
            Ratio::integer(pp.segmentation.cuts.len() as i128)
        );
    }

    #[test]
    fn greedy_rejects_oversized_module() {
        let g = chain_with_states(&[10, 50, 10]);
        let ra = analyzed(&g);
        assert!(matches!(
            greedy_theorem5(&g, &ra, 20),
            Err(PipelineError::ModuleTooLarge { state: 50, .. })
        ));
    }

    #[test]
    fn greedy_rejects_non_pipeline() {
        let mut b = GraphBuilder::new();
        let s = b.node("s", 1);
        let a = b.node("a", 1);
        let c = b.node("c", 1);
        b.edge(s, a, 1, 1);
        b.edge(s, c, 1, 1);
        let g = b.build().unwrap();
        let ra = RateAnalysis::analyze(&g).unwrap();
        assert_eq!(
            greedy_theorem5(&g, &ra, 10).unwrap_err(),
            PipelineError::NotAPipeline
        );
    }

    #[test]
    fn greedy_cuts_at_min_gain_edge() {
        // Chain where the middle edge has far smaller gain: rates shrink
        // the stream at v2 (4 items in, 1 out), so the cut lands there.
        let mut b = GraphBuilder::new();
        let v0 = b.node("v0", 15);
        let v1 = b.node("v1", 15);
        let v2 = b.node("v2", 15);
        let v3 = b.node("v3", 15);
        b.edge(v0, v1, 1, 1);
        b.edge(v1, v2, 1, 4); // v2 fires 1/4 as often
        b.edge(v2, v3, 1, 1);
        let g = b.build().unwrap();
        let ra = analyzed(&g);
        // M = 20 -> 2M = 40; state exceeds 40 at v2 and the remainder (15)
        // is <= 40, so a single W covers the whole chain. Edge gains are
        // e0 = e1 = 1 (one item per source firing) and e2 = 1/4 (v2 fires
        // a quarter as often), so the gain-minimizing cut is edge 2.
        let pp = greedy_theorem5(&g, &ra, 20).unwrap();
        assert_eq!(pp.segmentation.cuts, vec![2]);
        assert_eq!(pp.bandwidth, Ratio::new(1, 4));
        assert!(pp.partition.is_well_ordered(&g));
        let order = g.pipeline_order().unwrap();
        assert_eq!(pp.segmentation.bandwidth(&g, &ra, &order), pp.bandwidth);
    }

    #[test]
    fn dp_matches_brute_force_on_random_pipelines() {
        for seed in 0..30u64 {
            let cfg = PipelineCfg {
                len: 10,
                state: StateDist::Uniform(1, 40),
                max_q: 4,
                max_rate_scale: 3,
            };
            let g = gen::pipeline(&cfg, seed);
            let ra = analyzed(&g);
            let bound = g.max_state().max(60);
            let dp = dp_min_bandwidth(&g, &ra, bound).unwrap();
            let bf = brute_force_min_bandwidth(&g, &ra, bound).unwrap();
            assert_eq!(dp.bandwidth, bf.bandwidth, "seed {seed}");
            assert!(dp.partition.is_bounded_by(&g, bound));
            assert!(dp.partition.is_well_ordered(&g));
        }
    }

    #[test]
    fn dp_beats_or_matches_greedy() {
        for seed in 0..20u64 {
            let cfg = PipelineCfg {
                len: 24,
                state: StateDist::Uniform(8, 64),
                max_q: 3,
                max_rate_scale: 2,
            };
            let g = gen::pipeline(&cfg, seed);
            let ra = analyzed(&g);
            let m = 64;
            let greedy = greedy_theorem5(&g, &ra, m).unwrap();
            // Compare at the same component bound the greedy achieved.
            let bound = greedy.max_component_state.max(m);
            let dp = dp_min_bandwidth(&g, &ra, bound).unwrap();
            assert!(
                dp.bandwidth <= greedy.bandwidth,
                "seed {seed}: dp {} > greedy {}",
                dp.bandwidth,
                greedy.bandwidth
            );
        }
    }

    #[test]
    fn dp_single_module() {
        let g = chain_with_states(&[7]);
        // Single-node pipelines have no edges; analysis still works.
        let ra = RateAnalysis::analyze_single_io(&g).unwrap();
        let dp = dp_min_bandwidth(&g, &ra, 10).unwrap();
        assert_eq!(dp.partition.num_components(), 1);
        assert_eq!(dp.bandwidth, Ratio::ZERO);
    }

    #[test]
    fn dp_tight_bound_forces_singletons() {
        let g = chain_with_states(&[5, 5, 5]);
        let ra = analyzed(&g);
        let dp = dp_min_bandwidth(&g, &ra, 5).unwrap();
        assert_eq!(dp.partition.num_components(), 3);
        assert_eq!(dp.bandwidth, Ratio::integer(2));
    }

    #[test]
    fn theorem3_bound_zero_when_graph_fits() {
        let g = chain_with_states(&[10, 10]);
        let ra = analyzed(&g);
        assert_eq!(
            theorem3_lower_bound_gain(&g, &ra, 100).unwrap(),
            Ratio::ZERO
        );
    }

    #[test]
    fn theorem3_bound_positive_when_state_large() {
        let g = chain_with_states(&[10; 12]);
        let ra = analyzed(&g);
        let lb = theorem3_lower_bound_gain(&g, &ra, 10).unwrap();
        assert!(lb > Ratio::ZERO);
        // Homogeneous chain of 12 modules x 10 words, 2M = 20: W segments
        // close at 30 words (3 modules), the last absorbing the remainder
        // -> 4 segments, each contributing its unit gain.
        assert_eq!(lb, Ratio::integer(4));
    }

    #[test]
    fn lower_bound_equals_theorem5_bandwidth() {
        // The paper proves Theorem 5 by applying Theorem 3 to the same W
        // segments whose gain-minimizing edges become the partition's cross
        // edges — so the two quantities coincide exactly.
        for seed in 0..20u64 {
            let cfg = PipelineCfg {
                len: 30,
                state: StateDist::Uniform(8, 64),
                max_q: 4,
                max_rate_scale: 2,
            };
            let g = gen::pipeline(&cfg, seed);
            let ra = analyzed(&g);
            let m = 64;
            let lb = theorem3_lower_bound_gain(&g, &ra, m).unwrap();
            let ub = greedy_theorem5(&g, &ra, m).unwrap().bandwidth;
            assert_eq!(lb, ub, "seed {seed}");
        }
    }
}
