//! Greedy dag partitioners.
//!
//! Finding a minimum-bandwidth well-ordered partition of a general dag is
//! NP-complete (Acyclic Partition, GJ ND15), so the paper suggests
//! heuristics or exact solvers at compile time. The greedy partitioners
//! here exploit a structural fact: **every** well-ordered partition lists
//! its components contiguously in *some* topological order of the nodes
//! (order the components topologically in the contracted dag, then
//! concatenate). Conversely, any contiguous segmentation of any
//! topological order is well ordered. Greedy partitioning therefore
//! reduces to (1) choosing a good topological order and (2) segmenting it
//! under the state bound.

use crate::types::Partition;
use ccs_graph::{NodeId, RateAnalysis, Ratio, StreamGraph};

/// Segment an explicit topological order greedily: open a new component
/// whenever adding the next node would exceed `bound` words of state.
/// The result is always well ordered (components are contiguous in a
/// topological order) and `bound`-bounded provided every single module
/// fits.
///
/// Panics if a single module exceeds `bound`.
fn segment_topo_order(g: &StreamGraph, order: &[NodeId], bound: u64) -> Partition {
    assert_eq!(order.len(), g.node_count());
    let mut assignment = vec![0u32; g.node_count()];
    let mut comp = 0u32;
    let mut acc = 0u64;
    for &v in order {
        let s = g.state(v);
        assert!(s <= bound, "module {v:?} has state {s} > bound {bound}");
        if acc + s > bound && acc > 0 {
            comp += 1;
            acc = 0;
        }
        acc += s;
        assignment[v.idx()] = comp;
    }
    Partition::from_assignment(assignment)
}

/// Greedy partition using the default deterministic topological order.
pub fn greedy_topo(g: &StreamGraph, bound: u64) -> Partition {
    let order = ccs_graph::topo::topo_order(g);
    segment_topo_order(g, &order, bound)
}

/// Greedy partition using an *affinity-driven* topological order: among
/// ready nodes, repeatedly pick the one with the largest total edge gain
/// to already-placed nodes (ties: smaller state first, then node id).
///
/// Heavy edges are thereby pulled inside components, which directly
/// targets the bandwidth objective (cross-edge gain), unlike an arbitrary
/// topological order.
pub fn greedy_affinity(g: &StreamGraph, ra: &RateAnalysis, bound: u64) -> Partition {
    let n = g.node_count();
    let mut indeg: Vec<usize> = g.node_ids().map(|v| g.in_edges(v).len()).collect();
    // Affinity of each ready node to the current component.
    let mut order: Vec<NodeId> = Vec::with_capacity(n);
    let mut ready: Vec<NodeId> = g.node_ids().filter(|v| indeg[v.idx()] == 0).collect();
    // Nodes currently assigned to the open component.
    let mut open: Vec<bool> = vec![false; n];
    let mut acc = 0u64;

    while let Some((idx, _)) = ready
        .iter()
        .enumerate()
        .map(|(i, &v)| {
            // Affinity: total gain on edges between v and the open component.
            let mut aff = Ratio::ZERO;
            for &e in g.in_edges(v) {
                if open[g.edge(e).src.idx()] {
                    aff = aff + ra.edge_gain(g, e);
                }
            }
            // Prefer fitting nodes, then higher affinity, then smaller
            // state, then lower id for determinism.
            let fits = g.state(v) + acc <= bound;
            (
                i,
                (
                    fits,
                    aff,
                    std::cmp::Reverse(g.state(v)),
                    std::cmp::Reverse(v.0),
                ),
            )
        })
        .max_by(|a, b| a.1.cmp(&b.1))
    {
        let v = ready.swap_remove(idx);
        let s = g.state(v);
        assert!(s <= bound, "module {v:?} has state {s} > bound {bound}");
        if acc + s > bound && acc > 0 {
            // Close the open component.
            open.iter_mut().for_each(|b| *b = false);
            acc = 0;
        }
        acc += s;
        open[v.idx()] = true;
        order.push(v);
        for &e in g.out_edges(v) {
            let w = g.edge(e).dst;
            indeg[w.idx()] -= 1;
            if indeg[w.idx()] == 0 {
                ready.push(w);
            }
        }
    }
    debug_assert_eq!(order.len(), n);
    segment_topo_order(g, &order, bound)
}

/// Run both greedy strategies and return the one with smaller bandwidth.
pub fn greedy_best(g: &StreamGraph, ra: &RateAnalysis, bound: u64) -> Partition {
    let a = greedy_topo(g, bound);
    let b = greedy_affinity(g, ra, bound);
    if a.bandwidth(g, ra) <= b.bandwidth(g, ra) {
        a
    } else {
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccs_graph::gen::{self, LayeredCfg, StateDist};
    use ccs_graph::GraphBuilder;

    fn analyzed(g: &StreamGraph) -> RateAnalysis {
        RateAnalysis::analyze_single_io(g).unwrap()
    }

    #[test]
    fn greedy_topo_respects_bound_and_order() {
        let cfg = LayeredCfg {
            layers: 5,
            max_width: 4,
            density: 0.3,
            state: StateDist::Uniform(10, 50),
            max_q: 1,
        };
        for seed in 0..20u64 {
            let g = gen::layered(&cfg, seed);
            let p = greedy_topo(&g, 100);
            assert!(p.validate(&g, 100).is_ok(), "seed {seed}");
        }
    }

    #[test]
    fn greedy_affinity_valid_and_never_much_worse() {
        let cfg = LayeredCfg {
            layers: 5,
            max_width: 4,
            density: 0.3,
            state: StateDist::Uniform(10, 50),
            max_q: 2,
        };
        for seed in 0..20u64 {
            let g = gen::layered(&cfg, seed);
            let ra = analyzed(&g);
            let p = greedy_affinity(&g, &ra, 120);
            assert!(p.validate(&g, 120).is_ok(), "seed {seed}");
        }
    }

    #[test]
    fn affinity_pulls_heavy_edge_inside() {
        // s -> a (gain 10), s -> b (gain 1), a -> t, b -> t.
        // With room for 3 nodes of 4 in the first component, affinity
        // should group {s, a} (heavy edge) rather than {s, b}.
        let mut b = GraphBuilder::new();
        let s = b.node("s", 10);
        let a = b.node("a", 10);
        let c = b.node("c", 10);
        let t = b.node("t", 10);
        b.edge(s, a, 10, 1); // a fires 10x; heavy traffic
        b.edge(s, c, 1, 1);
        b.edge(a, t, 1, 10);
        b.edge(c, t, 1, 1);
        let g = b.build().unwrap();
        let ra = analyzed(&g);
        let p = greedy_affinity(&g, &ra, 20);
        assert!(p.validate(&g, 20).is_ok());
        assert_eq!(
            p.component_of(NodeId(0)),
            p.component_of(NodeId(1)),
            "heavy edge s->a should be internal: {:?}",
            p.assignment()
        );
    }

    #[test]
    fn whole_graph_fits_gives_one_component() {
        let g = gen::split_join(3, 2, StateDist::Fixed(5), 1);
        let ra = analyzed(&g);
        let p = greedy_best(&g, &ra, 10_000);
        assert_eq!(p.num_components(), 1);
        assert_eq!(p.bandwidth(&g, &ra), Ratio::ZERO);
    }

    #[test]
    fn segment_topo_order_contiguity_is_well_ordered() {
        // Any topo order segmented contiguously must be well ordered.
        let cfg = LayeredCfg::default();
        for seed in 0..10u64 {
            let g = gen::layered(&cfg, seed);
            let order = ccs_graph::topo::topo_order(&g);
            for bound in [64u64, 128, 512, 100_000] {
                if g.max_state() > bound {
                    continue;
                }
                let p = segment_topo_order(&g, &order, bound);
                assert!(p.is_well_ordered(&g), "seed {seed} bound {bound}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "bound")]
    fn oversized_module_panics() {
        let g = gen::split_join(2, 1, StateDist::Fixed(100), 0);
        greedy_topo(&g, 50);
    }

    #[test]
    fn greedy_best_is_the_better_of_both_greedies() {
        let cfg = LayeredCfg {
            layers: 6,
            max_width: 5,
            density: 0.35,
            state: StateDist::Uniform(8, 48),
            max_q: 2,
        };
        for seed in 0..15u64 {
            let g = gen::layered(&cfg, seed);
            let ra = analyzed(&g);
            let bound = g.max_state().max(140);
            let topo = greedy_topo(&g, bound).bandwidth(&g, &ra);
            let aff = greedy_affinity(&g, &ra, bound).bandwidth(&g, &ra);
            let best = greedy_best(&g, &ra, bound);
            assert!(best.validate(&g, bound).is_ok(), "seed {seed}");
            assert_eq!(best.bandwidth(&g, &ra), topo.min(aff), "seed {seed}");
        }
    }

    #[test]
    fn whole_pipeline_fits_in_one_component() {
        let g = gen::pipeline_uniform(64, 4);
        let ra = analyzed(&g);
        for p in [
            greedy_topo(&g, 1 << 20),
            greedy_affinity(&g, &ra, 1 << 20),
            greedy_best(&g, &ra, 1 << 20),
        ] {
            assert_eq!(p.num_components(), 1);
            assert_eq!(p.bandwidth(&g, &ra), Ratio::ZERO);
        }
    }

    #[test]
    fn components_stop_exactly_at_the_bound() {
        // Ten modules of 60 words: a bound one word short of a pair keeps
        // every module alone; a bound of exactly one pair packs pairs.
        let g = gen::pipeline_uniform(10, 60);
        let ra = analyzed(&g);
        let alone = greedy_best(&g, &ra, 119);
        assert_eq!(alone.num_components(), 10);
        assert!(alone.validate(&g, 119).is_ok());
        let pairs = greedy_topo(&g, 120);
        assert_eq!(pairs.num_components(), 5);
        assert_eq!(pairs.component_states(&g), vec![120; 5]);
    }
}
