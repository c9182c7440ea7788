//! Exact minimum-bandwidth well-ordered partitioning for small dags.
//!
//! The paper notes that since partitioning happens at compile time and
//! streaming applications are long-running, an exponential-time exact
//! partitioner is a reasonable tool (§7 cites an exact integer-programming
//! partitioner used in practice). This module implements an exact solver
//! as a dynamic program over *order ideals* (downward-closed node sets) of
//! the dag:
//!
//! Every well-ordered partition orders its components topologically, so
//! the union of the first `i` components is an ideal. Conversely, any
//! chain of ideals `∅ = S₀ ⊂ S₁ ⊂ … ⊂ Sₖ = V` with each difference
//! `Sᵢ₊₁ ∖ Sᵢ` state-bounded yields a well-ordered bounded partition. The
//! DP walks ideals as bitmasks, charging each cross edge exactly once —
//! when the component containing its head is placed.

use crate::types::Partition;
use ccs_graph::{RateAnalysis, Ratio, StreamGraph};

/// Hard cap on node count: the DP is O(3ⁿ·n) time and O(2ⁿ) space.
pub const MAX_EXACT_NODES: usize = 20;

/// Exact minimum-bandwidth well-ordered partition with every component's
/// state at most `bound`.
///
/// Returns the optimal partition and its bandwidth, or `None` when some
/// single module exceeds `bound` (no bounded partition exists).
///
/// Panics if the graph has more than [`MAX_EXACT_NODES`] nodes.
pub fn min_bandwidth_exact(
    g: &StreamGraph,
    ra: &RateAnalysis,
    bound: u64,
) -> Option<(Partition, Ratio)> {
    let n = g.node_count();
    assert!(
        n <= MAX_EXACT_NODES,
        "exact partitioner limited to {MAX_EXACT_NODES} nodes (got {n})"
    );
    if g.node_ids().any(|v| g.state(v) > bound) {
        return None;
    }
    let full: u32 = (1u32 << n) - 1;

    // Integer edge weights: traffic per steady-state iteration. The
    // bandwidth of a partition is (Σ weights of cross edges) / q(source).
    let source = ra.source.expect("exact partitioner needs a unique source");
    let q_source = ra.q(source);

    // Per-node predecessor masks and weighted in-edges.
    let mut pred_mask = vec![0u32; n];
    let mut in_list: Vec<Vec<(usize, u64)>> = vec![Vec::new(); n];
    for e in g.edge_ids() {
        let edge = g.edge(e);
        let (u, v) = (edge.src.idx(), edge.dst.idx());
        pred_mask[v] |= 1 << u;
        in_list[v].push((u, ra.edge_traffic(g, e)));
    }

    // state_sum[mask] and predU[mask] via lowest-bit recurrences.
    let size = (full as usize) + 1;
    let mut state_sum = vec![0u64; size];
    let mut pred_union = vec![0u32; size];
    for m in 1..size {
        let low = m.trailing_zeros() as usize;
        let rest = m & (m - 1);
        state_sum[m] = state_sum[rest] + g.state(ccs_graph::NodeId(low as u32));
        pred_union[m] = pred_union[rest] | pred_mask[low];
    }

    const INF: u128 = u128::MAX;
    let mut dp = vec![INF; size];
    let mut choice = vec![0u32; size]; // the component added to reach this ideal
    dp[0] = 0;

    for s in 0..size {
        if dp[s] == INF {
            continue;
        }
        // `s` is reachable, hence an ideal. Enumerate candidate next
        // components A: non-empty submasks of the complement.
        let comp = full & !(s as u32);
        if comp == 0 {
            continue;
        }
        let mut a = comp;
        loop {
            let union = s as u32 | a;
            // Ideal extension: every predecessor of a node in A must lie
            // in S ∪ A.
            if pred_union[a as usize] & !union == 0 && state_sum[a as usize] <= bound {
                // Cost: weighted in-edges of A with tail in S \ A = S.
                let mut cost: u128 = 0;
                let mut bits = a;
                while bits != 0 {
                    let v = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    for &(u, w) in &in_list[v] {
                        if s as u32 >> u & 1 == 1 {
                            cost += w as u128;
                        }
                    }
                }
                let cand = dp[s] + cost;
                if cand < dp[union as usize] {
                    dp[union as usize] = cand;
                    choice[union as usize] = a;
                }
            }
            if a == 0 {
                break;
            }
            a = (a - 1) & comp;
        }
    }

    debug_assert_ne!(dp[full as usize], INF, "singletons are always feasible");

    // Reconstruct: walk back from the full set.
    let mut assignment = vec![0u32; n];
    let mut mask = full;
    let mut comps: Vec<u32> = Vec::new();
    while mask != 0 {
        let a = choice[mask as usize];
        comps.push(a);
        mask &= !a;
    }
    comps.reverse(); // now in contracted topological order
    for (ci, a) in comps.iter().enumerate() {
        let mut bits = *a;
        while bits != 0 {
            let v = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            assignment[v] = ci as u32;
        }
    }
    let partition = Partition::from_assignment(assignment);
    let bandwidth = Ratio::new(
        i128::try_from(dp[full as usize]).expect("bandwidth fits i128"),
        q_source as i128,
    );
    debug_assert_eq!(partition.bandwidth(g, ra), bandwidth);
    Some((partition, bandwidth))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{dag_greedy, dag_local, pipeline};
    use ccs_graph::gen::{self, LayeredCfg, StateDist};
    use ccs_graph::GraphBuilder;

    fn analyzed(g: &StreamGraph) -> RateAnalysis {
        RateAnalysis::analyze_single_io(g).unwrap()
    }

    #[test]
    fn whole_graph_when_it_fits() {
        let g = gen::split_join(2, 1, StateDist::Fixed(5), 0);
        let ra = analyzed(&g);
        let (p, bw) = min_bandwidth_exact(&g, &ra, 10_000).unwrap();
        assert_eq!(p.num_components(), 1);
        assert_eq!(bw, Ratio::ZERO);
    }

    #[test]
    fn oversized_module_is_infeasible() {
        let g = gen::split_join(2, 1, StateDist::Fixed(100), 0);
        let ra = analyzed(&g);
        assert!(min_bandwidth_exact(&g, &ra, 50).is_none());
    }

    #[test]
    fn matches_pipeline_dp_on_chains() {
        use ccs_graph::gen::PipelineCfg;
        for seed in 0..20u64 {
            let cfg = PipelineCfg {
                len: 9,
                state: StateDist::Uniform(2, 30),
                max_q: 3,
                max_rate_scale: 2,
            };
            let g = gen::pipeline(&cfg, seed);
            let ra = analyzed(&g);
            let bound = g.max_state().max(45);
            let (pe, bw_exact) = min_bandwidth_exact(&g, &ra, bound).unwrap();
            let dp = pipeline::dp_min_bandwidth(&g, &ra, bound).unwrap();
            assert_eq!(
                bw_exact, dp.bandwidth,
                "seed {seed}: exact {bw_exact} vs pipeline DP {}",
                dp.bandwidth
            );
            assert!(pe.validate(&g, bound).is_ok());
        }
    }

    #[test]
    fn exact_lower_bounds_heuristics() {
        let cfg = LayeredCfg {
            layers: 3,
            max_width: 3,
            density: 0.3,
            state: StateDist::Uniform(4, 30),
            max_q: 2,
        };
        for seed in 0..15u64 {
            let g = gen::layered(&cfg, seed);
            if g.node_count() > 14 {
                continue;
            }
            let ra = analyzed(&g);
            let bound = g.max_state().max(60);
            let (pe, bw_exact) = min_bandwidth_exact(&g, &ra, bound).unwrap();
            assert!(pe.validate(&g, bound).is_ok());
            let pg = dag_greedy::greedy_best(&g, &ra, bound);
            let pr = dag_local::refine(&g, &ra, bound, &pg, 10);
            let bw_heur = pr.bandwidth(&g, &ra);
            assert!(
                bw_exact <= bw_heur,
                "seed {seed}: exact {bw_exact} > heuristic {bw_heur}"
            );
        }
    }

    #[test]
    fn exact_picks_cheap_cut_on_diamond() {
        // Diamond where one branch is much heavier; with a bound that
        // forces >= 2 components, the optimum cuts the light branch twice
        // rather than the heavy one.
        let mut b = GraphBuilder::new();
        let s = b.node("s", 8);
        let heavy = b.node("heavy", 8);
        let light = b.node("light", 8);
        let t = b.node("t", 8);
        b.edge(s, heavy, 4, 1); // heavy fires 4x: weight 4 each side
        b.edge(heavy, t, 1, 4);
        b.edge(s, light, 1, 1); // weight 1 each side
        b.edge(light, t, 1, 1);
        let g = b.build().unwrap();
        let ra = analyzed(&g);
        // Bound of 24 words: at most 3 nodes per component. Note that
        // {s, heavy, t} | {light} would cut only the light branch
        // (bandwidth 2) but is NOT well ordered: contracting it yields a
        // 2-cycle via s->light and light->t. The best well-ordered options
        // internalize exactly one heavy edge (bandwidth 5), e.g.
        // {s, heavy} | {light, t}.
        let (p, bw) = min_bandwidth_exact(&g, &ra, 24).unwrap();
        assert!(p.validate(&g, 24).is_ok());
        assert_eq!(bw, Ratio::integer(5));
        // One of the two heavy edges must be internal.
        let heavy_internal = p.component_of(ccs_graph::NodeId(0))
            == p.component_of(ccs_graph::NodeId(1))
            || p.component_of(ccs_graph::NodeId(1)) == p.component_of(ccs_graph::NodeId(3));
        assert!(heavy_internal, "assignment {:?}", p.assignment());
    }

    #[test]
    fn exhaustive_cross_check_tiny() {
        // Brute-force all assignments for a 6-node dag and confirm the DP
        // finds the true optimum among valid well-ordered partitions.
        let cfg = LayeredCfg {
            layers: 2,
            max_width: 2,
            density: 0.5,
            state: StateDist::Uniform(2, 10),
            max_q: 2,
        };
        for seed in 0..10u64 {
            let g = gen::layered(&cfg, seed);
            let n = g.node_count();
            if n > 7 {
                continue;
            }
            let ra = analyzed(&g);
            let bound = g.max_state().max(16);
            let (_, bw_exact) = min_bandwidth_exact(&g, &ra, bound).unwrap();
            // Enumerate all assignments with component ids < n.
            let mut best: Option<Ratio> = None;
            let total = (n as u64).pow(n as u32);
            for code in 0..total {
                let mut c = code;
                let mut asg = Vec::with_capacity(n);
                for _ in 0..n {
                    asg.push((c % n as u64) as u32);
                    c /= n as u64;
                }
                let p = Partition::from_assignment(asg);
                if p.validate(&g, bound).is_ok() {
                    let bw = p.bandwidth(&g, &ra);
                    if best.as_ref().is_none_or(|b| bw < *b) {
                        best = Some(bw);
                    }
                }
            }
            assert_eq!(best.unwrap(), bw_exact, "seed {seed}");
        }
    }

    #[test]
    fn refinement_cannot_improve_the_exact_partition() {
        let cfg = LayeredCfg {
            layers: 3,
            max_width: 4,
            density: 0.35,
            state: StateDist::Uniform(4, 30),
            max_q: 2,
        };
        for seed in 0..12u64 {
            let g = gen::layered(&cfg, seed);
            if g.node_count() > 16 {
                continue;
            }
            let ra = analyzed(&g);
            let bound = g.max_state().max(60);
            let (pe, bw_exact) = min_bandwidth_exact(&g, &ra, bound).unwrap();
            let pr = dag_local::refine(&g, &ra, bound, &pe, 16);
            assert_eq!(pr.bandwidth(&g, &ra), bw_exact, "seed {seed}");
        }
    }

    #[test]
    #[should_panic(expected = "exact partitioner limited")]
    fn graphs_above_the_node_limit_panic() {
        let g = gen::pipeline_uniform(MAX_EXACT_NODES + 1, 1);
        let ra = analyzed(&g);
        min_bandwidth_exact(&g, &ra, 1 << 20);
    }
}
