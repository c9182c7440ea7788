//! Partitions of streaming dags and their quality measures.
//!
//! Definitions follow §3 of the paper: a *partition* divides the modules
//! into disjoint components; it is *well ordered* (Definition 2) when
//! contracting each component leaves a dag; it is *c-bounded* when every
//! component's total state is at most `c·M`; its *bandwidth*
//! (Definition 3) is the sum of gains of cross edges — the number of items
//! crossing component boundaries per source firing.

use ccs_graph::{EdgeId, NodeId, RateAnalysis, Ratio, StreamGraph};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Index of a component within a [`Partition`].
pub type ComponentId = u32;

/// Errors from [`Partition::validate`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PartitionError {
    /// Assignment length differs from the node count.
    WrongLength { got: usize, want: usize },
    /// The contracted component graph has a cycle.
    NotWellOrdered,
    /// A component exceeds the state bound.
    ComponentTooLarge {
        component: ComponentId,
        state: u64,
        bound: u64,
    },
}

impl fmt::Display for PartitionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PartitionError::WrongLength { got, want } => {
                write!(f, "assignment has {got} entries for {want} nodes")
            }
            PartitionError::NotWellOrdered => {
                write!(f, "contracted component graph is cyclic")
            }
            PartitionError::ComponentTooLarge {
                component,
                state,
                bound,
            } => write!(
                f,
                "component {component} holds {state} words of state (bound {bound})"
            ),
        }
    }
}

impl std::error::Error for PartitionError {}

/// A partition of the graph's modules into components.
///
/// Stored as a dense assignment `node -> component`. Component ids are
/// normalized on construction to `0..k` in order of first appearance.
///
/// ```
/// use ccs_graph::{gen, RateAnalysis, Ratio};
/// use ccs_partition::Partition;
///
/// let g = gen::pipeline_uniform(4, 10); // 4 modules, unit rates
/// let ra = RateAnalysis::analyze_single_io(&g).unwrap();
/// let p = Partition::from_assignment(vec![0, 0, 1, 1]);
/// assert!(p.is_well_ordered(&g));
/// assert!(p.is_bounded_by(&g, 20));
/// // One homogeneous edge crosses the boundary.
/// assert_eq!(p.bandwidth(&g, &ra), Ratio::ONE);
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Partition {
    assignment: Vec<ComponentId>,
    num_components: usize,
}

impl Partition {
    /// Build from a raw assignment, renumbering components densely in
    /// order of first appearance. The renumbering is a table indexed by
    /// the raw ids, so they should be small (every partitioner here
    /// numbers below the node count).
    pub fn from_assignment(raw: Vec<ComponentId>) -> Partition {
        let ids = raw.iter().max().map_or(0, |&c| c as usize + 1);
        let mut remap = vec![ComponentId::MAX; ids];
        let mut num_components = 0;
        let mut assignment = raw;
        for c in &mut assignment {
            let id = &mut remap[*c as usize];
            if *id == ComponentId::MAX {
                *id = num_components as ComponentId;
                num_components += 1;
            }
            *c = *id;
        }
        Partition {
            assignment,
            num_components,
        }
    }

    /// Every node in its own component.
    pub fn singletons(g: &StreamGraph) -> Partition {
        Partition {
            assignment: (0..g.node_count() as u32).collect(),
            num_components: g.node_count(),
        }
    }

    /// All nodes in one component.
    pub fn whole(g: &StreamGraph) -> Partition {
        Partition {
            assignment: vec![0; g.node_count()],
            num_components: 1,
        }
    }

    #[inline]
    pub fn component_of(&self, v: NodeId) -> ComponentId {
        self.assignment[v.idx()]
    }

    pub fn num_components(&self) -> usize {
        self.num_components
    }

    pub fn assignment(&self) -> &[ComponentId] {
        &self.assignment
    }

    /// Nodes of each component, by component id.
    pub fn components(&self) -> Vec<Vec<NodeId>> {
        let mut comps = vec![Vec::new(); self.num_components];
        for (i, &c) in self.assignment.iter().enumerate() {
            comps[c as usize].push(NodeId(i as u32));
        }
        comps
    }

    /// Edges whose endpoints lie in different components.
    pub fn cross_edges(&self, g: &StreamGraph) -> Vec<EdgeId> {
        g.edge_ids()
            .filter(|&e| {
                let edge = g.edge(e);
                self.component_of(edge.src) != self.component_of(edge.dst)
            })
            .collect()
    }

    /// Definition 3: `bandwidth(P) = Σ gain(e)` over cross edges — items
    /// crossing component boundaries per firing of the source. Summed in
    /// traffic units, `Σ q(src)·produce` over the cross edges (see
    /// [`traffic`](Self::traffic)), and divided by `q(source)` once.
    pub fn bandwidth(&self, g: &StreamGraph, ra: &RateAnalysis) -> Ratio {
        ra.per_input(self.traffic(g, ra))
    }

    /// Items crossing component boundaries per steady-state iteration:
    /// `Σ q(src)·produce` over the cross edges, which is
    /// `bandwidth · q(source)`. The partitioners compare partitions by
    /// this integer; each term fits a `u64`, so the `u128` sum is exact.
    pub fn traffic(&self, g: &StreamGraph, ra: &RateAnalysis) -> u128 {
        self.cross_edges(g)
            .into_iter()
            .map(|e| ra.edge_traffic(g, e) as u128)
            .sum()
    }

    /// Total state (words) per component.
    pub fn component_states(&self, g: &StreamGraph) -> Vec<u64> {
        let mut st = vec![0u64; self.num_components];
        for v in g.node_ids() {
            st[self.component_of(v) as usize] += g.state(v);
        }
        st
    }

    /// Largest component state.
    pub fn max_component_state(&self, g: &StreamGraph) -> u64 {
        self.component_states(g).into_iter().max().unwrap_or(0)
    }

    /// Number of cross edges incident on each component (the partition
    /// *degree* used by Lemma 8's degree-limited condition).
    fn component_degrees(&self, g: &StreamGraph) -> Vec<usize> {
        let mut deg = vec![0usize; self.num_components];
        for e in self.cross_edges(g) {
            let edge = g.edge(e);
            deg[self.component_of(edge.src) as usize] += 1;
            deg[self.component_of(edge.dst) as usize] += 1;
        }
        deg
    }

    pub fn max_component_degree(&self, g: &StreamGraph) -> usize {
        self.component_degrees(g).into_iter().max().unwrap_or(0)
    }

    /// Edges of the contracted multigraph as `(src_comp, dst_comp)` pairs
    /// (cross edges only).
    pub fn contracted_edges(&self, g: &StreamGraph) -> Vec<(ComponentId, ComponentId)> {
        self.cross_edges(g)
            .into_iter()
            .map(|e| {
                let edge = g.edge(e);
                (self.component_of(edge.src), self.component_of(edge.dst))
            })
            .collect()
    }

    /// Definition 2: is the contracted multigraph a dag?
    pub fn is_well_ordered(&self, g: &StreamGraph) -> bool {
        self.topo_order_components(g).is_some()
    }

    /// A topological order of components in the contracted graph, or
    /// `None` if it is cyclic.
    pub fn topo_order_components(&self, g: &StreamGraph) -> Option<Vec<ComponentId>> {
        let k = self.num_components;
        let mut indeg = vec![0usize; k];
        let mut adj: Vec<Vec<ComponentId>> = vec![Vec::new(); k];
        for (a, b) in self.contracted_edges(g) {
            adj[a as usize].push(b);
            indeg[b as usize] += 1;
        }
        let mut heap: std::collections::BinaryHeap<std::cmp::Reverse<ComponentId>> = (0..k
            as ComponentId)
            .filter(|&c| indeg[c as usize] == 0)
            .map(std::cmp::Reverse)
            .collect();
        let mut order = Vec::with_capacity(k);
        while let Some(std::cmp::Reverse(c)) = heap.pop() {
            order.push(c);
            for &d in &adj[c as usize] {
                indeg[d as usize] -= 1;
                if indeg[d as usize] == 0 {
                    heap.push(std::cmp::Reverse(d));
                }
            }
        }
        if order.len() == k {
            Some(order)
        } else {
            None
        }
    }

    /// Is every component's state at most `bound` words? (`bound = c·M`
    /// for a c-bounded partition.)
    pub fn is_bounded_by(&self, g: &StreamGraph, bound: u64) -> bool {
        self.max_component_state(g) <= bound
    }

    /// Full §3 validity check: assignment shape, well-orderedness, and the
    /// state bound.
    pub fn validate(&self, g: &StreamGraph, bound: u64) -> Result<(), PartitionError> {
        if self.assignment.len() != g.node_count() {
            return Err(PartitionError::WrongLength {
                got: self.assignment.len(),
                want: g.node_count(),
            });
        }
        for (c, state) in self.component_states(g).into_iter().enumerate() {
            if state > bound {
                return Err(PartitionError::ComponentTooLarge {
                    component: c as ComponentId,
                    state,
                    bound,
                });
            }
        }
        if !self.is_well_ordered(g) {
            return Err(PartitionError::NotWellOrdered);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccs_graph::GraphBuilder;

    fn chain4() -> StreamGraph {
        let mut b = GraphBuilder::new();
        let v: Vec<_> = (0..4).map(|i| b.node(format!("v{i}"), 10)).collect();
        for w in v.windows(2) {
            b.edge(w[0], w[1], 1, 1);
        }
        b.build().unwrap()
    }

    #[test]
    fn normalizes_component_ids() {
        let p = Partition::from_assignment(vec![7, 7, 3, 3]);
        assert_eq!(p.assignment(), &[0, 0, 1, 1]);
        assert_eq!(p.num_components(), 2);
    }

    #[test]
    fn cross_edges_straddle_components() {
        let g = chain4();
        let p = Partition::from_assignment(vec![0, 0, 1, 1]);
        assert_eq!(p.cross_edges(&g), vec![EdgeId(1)]);
    }

    #[test]
    fn bandwidth_counts_cross_gains() {
        let g = chain4();
        let ra = RateAnalysis::analyze_single_io(&g).unwrap();
        let p = Partition::from_assignment(vec![0, 0, 1, 1]);
        assert_eq!(p.bandwidth(&g, &ra), Ratio::ONE);
        let q = Partition::singletons(&g);
        assert_eq!(q.bandwidth(&g, &ra), Ratio::integer(3));
        let w = Partition::whole(&g);
        assert_eq!(w.bandwidth(&g, &ra), Ratio::ZERO);
    }

    #[test]
    fn traffic_sums_past_u64_exactly() {
        // Four edges of 2^63 items per iteration each: 2^65 in all.
        let mut b = GraphBuilder::new();
        let s = b.node("s", 1);
        let a = b.node("a", 1);
        let c = b.node("c", 1);
        let t = b.node("t", 1);
        b.edge(s, a, 1 << 63, 1);
        b.edge(s, c, 1 << 63, 1);
        b.edge(a, t, 1, 1);
        b.edge(c, t, 1, 1);
        let g = b.build().unwrap();
        let ra = RateAnalysis::analyze_single_io(&g).unwrap();
        let p = Partition::singletons(&g);
        assert_eq!(p.traffic(&g, &ra), 1u128 << 65);
        assert_eq!(p.bandwidth(&g, &ra), Ratio::integer(1 << 65));
    }

    #[test]
    fn renumbering_follows_first_appearance() {
        let p = Partition::from_assignment(vec![9, 0, 9, 4, 0, 4, 2]);
        assert_eq!(p.assignment(), &[0, 1, 0, 2, 1, 2, 3]);
        assert_eq!(p.num_components(), 4);
        assert_eq!(Partition::from_assignment(Vec::new()).num_components(), 0);
    }

    #[test]
    fn well_ordered_detection() {
        let g = chain4();
        // Contiguous split: well ordered.
        let p = Partition::from_assignment(vec![0, 0, 1, 1]);
        assert!(p.is_well_ordered(&g));
        // Interleaved: v0,v2 in comp0; v1,v3 in comp1 -> contracted cycle.
        let q = Partition::from_assignment(vec![0, 1, 0, 1]);
        assert!(!q.is_well_ordered(&g));
        assert_eq!(q.topo_order_components(&g), None);
    }

    #[test]
    fn component_topo_order_respects_contraction() {
        let g = chain4();
        let p = Partition::from_assignment(vec![1, 1, 0, 0]); // ids renumber to 0,0,1,1
        let order = p.topo_order_components(&g).unwrap();
        assert_eq!(order.len(), 2);
        assert_eq!(order, vec![0, 1]);
    }

    #[test]
    fn bounds_and_validation() {
        let g = chain4();
        let p = Partition::from_assignment(vec![0, 0, 1, 1]);
        assert_eq!(p.component_states(&g), vec![20, 20]);
        assert!(p.is_bounded_by(&g, 20));
        assert!(!p.is_bounded_by(&g, 19));
        assert!(p.validate(&g, 20).is_ok());
        assert!(matches!(
            p.validate(&g, 19),
            Err(PartitionError::ComponentTooLarge { .. })
        ));
        let q = Partition::from_assignment(vec![0, 1, 0, 1]);
        assert_eq!(q.validate(&g, 100), Err(PartitionError::NotWellOrdered));
        let r = Partition::from_assignment(vec![0, 0]);
        assert!(matches!(
            r.validate(&g, 100),
            Err(PartitionError::WrongLength { got: 2, want: 4 })
        ));
    }

    #[test]
    fn degrees_count_incident_cross_edges() {
        let mut b = GraphBuilder::new();
        let s = b.node("s", 1);
        let a = b.node("a", 1);
        let c = b.node("c", 1);
        let t = b.node("t", 1);
        b.edge(s, a, 1, 1);
        b.edge(s, c, 1, 1);
        b.edge(a, t, 1, 1);
        b.edge(c, t, 1, 1);
        let g = b.build().unwrap();
        // {s}, {a, c, t}: two cross edges from comp0 to comp1.
        let p = Partition::from_assignment(vec![0, 1, 1, 1]);
        assert_eq!(p.component_degrees(&g), vec![2, 2]);
        assert_eq!(p.max_component_degree(&g), 2);
        let singles = Partition::singletons(&g);
        assert_eq!(singles.max_component_degree(&g), 2);
    }

    #[test]
    fn diamond_parallel_components_well_ordered() {
        let mut b = GraphBuilder::new();
        let s = b.node("s", 1);
        let a = b.node("a", 1);
        let c = b.node("c", 1);
        let t = b.node("t", 1);
        b.edge(s, a, 1, 1);
        b.edge(s, c, 1, 1);
        b.edge(a, t, 1, 1);
        b.edge(c, t, 1, 1);
        let g = b.build().unwrap();
        // a and c in separate middle components: still a dag when contracted.
        let p = Partition::from_assignment(vec![0, 1, 2, 3]);
        assert!(p.is_well_ordered(&g));
    }

    #[test]
    fn components_cover_every_node_once() {
        let g = chain4();
        let p = Partition::from_assignment(vec![5, 2, 2, 5]);
        let comps = p.components();
        assert_eq!(
            comps,
            vec![vec![NodeId(0), NodeId(3)], vec![NodeId(1), NodeId(2)]]
        );
        let mut seen: Vec<NodeId> = comps.into_iter().flatten().collect();
        seen.sort();
        assert_eq!(seen, g.node_ids().collect::<Vec<_>>());
    }

    #[test]
    fn contracted_edges_keep_parallel_cross_edges() {
        // {s}, {a, c, t}: the two cross edges s->a and s->c both survive
        // contraction as (0, 1); internal edges do not appear.
        let mut b = GraphBuilder::new();
        let s = b.node("s", 1);
        let a = b.node("a", 1);
        let c = b.node("c", 1);
        let t = b.node("t", 1);
        b.edge(s, a, 1, 1);
        b.edge(s, c, 1, 1);
        b.edge(a, t, 1, 1);
        b.edge(c, t, 1, 1);
        let g = b.build().unwrap();
        let p = Partition::from_assignment(vec![0, 1, 1, 1]);
        assert_eq!(p.contracted_edges(&g), vec![(0, 1), (0, 1)]);
        assert!(Partition::whole(&g).contracted_edges(&g).is_empty());
    }
}
