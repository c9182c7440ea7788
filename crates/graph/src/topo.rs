//! Topological utilities: sorting, precedence (`u ≺ v`), and reachability.

use crate::graph::{NodeId, StreamGraph};

/// A topological order of the graph's nodes (deterministic: smallest id
/// first among ready nodes).
pub fn topo_order(g: &StreamGraph) -> Vec<NodeId> {
    let n = g.node_count();
    let mut indeg: Vec<usize> = g.node_ids().map(|v| g.in_edges(v).len()).collect();
    // Min-heap on node id for determinism.
    let mut heap: std::collections::BinaryHeap<std::cmp::Reverse<NodeId>> = g
        .node_ids()
        .filter(|v| indeg[v.idx()] == 0)
        .map(std::cmp::Reverse)
        .collect();
    let mut order = Vec::with_capacity(n);
    while let Some(std::cmp::Reverse(v)) = heap.pop() {
        order.push(v);
        for &e in g.out_edges(v) {
            let w = g.edge(e).dst;
            indeg[w.idx()] -= 1;
            if indeg[w.idx()] == 0 {
                heap.push(std::cmp::Reverse(w));
            }
        }
    }
    debug_assert_eq!(order.len(), n, "StreamGraph is guaranteed acyclic");
    order
}

/// Position of each node in a topological order: `rank[v] < rank[w]` for
/// every edge `v -> w`.
pub fn topo_rank(g: &StreamGraph) -> Vec<usize> {
    let order = topo_order(g);
    let mut rank = vec![0usize; g.node_count()];
    for (i, v) in order.iter().enumerate() {
        rank[v.idx()] = i;
    }
    rank
}

/// Dense reachability matrix stored as bitsets: `reach[u]` has bit `v` set
/// iff there is a directed path from `u` to `v` (including `u == v`).
///
/// O(V·E/64) time, O(V²/64) space — intended for the graph sizes the
/// partitioners handle (up to a few thousand nodes).
#[derive(Clone, Debug)]
pub struct Reachability {
    words: usize,
    bits: Vec<u64>,
}

impl Reachability {
    pub fn compute(g: &StreamGraph) -> Reachability {
        let n = g.node_count();
        let words = n.div_ceil(64);
        let mut bits = vec![0u64; n * words];
        // Process in reverse topological order so successors are complete.
        let order = topo_order(g);
        for &v in order.iter().rev() {
            let vi = v.idx();
            bits[vi * words + vi / 64] |= 1u64 << (vi % 64);
            // Collect successor row indices first to appease the borrow
            // checker, then OR rows in.
            for k in 0..g.out_edges(v).len() {
                let w = g.edge(g.out_edges(v)[k]).dst.idx();
                let (dst_row, src_row) = (vi * words, w * words);
                for j in 0..words {
                    let src = bits[src_row + j];
                    bits[dst_row + j] |= src;
                }
            }
        }
        Reachability { words, bits }
    }

    /// True iff there is a directed path `u ⇝ v` (reflexive).
    #[inline]
    pub fn reaches(&self, u: NodeId, v: NodeId) -> bool {
        let (ui, vi) = (u.idx(), v.idx());
        self.bits[ui * self.words + vi / 64] >> (vi % 64) & 1 == 1
    }

    /// Strict precedence `u ≺ v`: a directed path exists and `u != v`.
    #[inline]
    pub fn precedes(&self, u: NodeId, v: NodeId) -> bool {
        u != v && self.reaches(u, v)
    }
}

/// True if every node lies on some source-to-sink path and the underlying
/// undirected graph is connected.
pub fn is_weakly_connected(g: &StreamGraph) -> bool {
    let n = g.node_count();
    if n == 0 {
        return false;
    }
    let mut seen = vec![false; n];
    let mut stack = vec![NodeId(0)];
    seen[0] = true;
    let mut count = 0usize;
    while let Some(v) = stack.pop() {
        count += 1;
        for &e in g.out_edges(v) {
            let w = g.edge(e).dst;
            if !seen[w.idx()] {
                seen[w.idx()] = true;
                stack.push(w);
            }
        }
        for &e in g.in_edges(v) {
            let w = g.edge(e).src;
            if !seen[w.idx()] {
                seen[w.idx()] = true;
                stack.push(w);
            }
        }
    }
    count == n
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;

    fn diamond() -> StreamGraph {
        let mut b = GraphBuilder::new();
        let s = b.node("s", 1);
        let a = b.node("a", 1);
        let c = b.node("c", 1);
        let t = b.node("t", 1);
        b.edge(s, a, 1, 1);
        b.edge(s, c, 1, 1);
        b.edge(a, t, 1, 1);
        b.edge(c, t, 1, 1);
        b.build().unwrap()
    }

    #[test]
    fn topo_order_respects_edges() {
        let g = diamond();
        let rank = topo_rank(&g);
        for e in g.edge_ids() {
            let edge = g.edge(e);
            assert!(rank[edge.src.idx()] < rank[edge.dst.idx()]);
        }
    }

    #[test]
    fn topo_order_deterministic() {
        let g = diamond();
        assert_eq!(topo_order(&g), topo_order(&g));
    }

    #[test]
    fn reachability_diamond() {
        let g = diamond();
        let r = Reachability::compute(&g);
        let (s, a, c, t) = (NodeId(0), NodeId(1), NodeId(2), NodeId(3));
        assert!(r.precedes(s, t));
        assert!(r.precedes(s, a));
        assert!(r.precedes(a, t));
        assert!(!r.precedes(a, c));
        assert!(!r.precedes(c, a));
        assert!(!r.precedes(t, s));
        assert!(r.reaches(a, a));
    }

    #[test]
    fn reachability_long_chain_crosses_word_boundary() {
        // 130 nodes > 2 u64 words exercises multi-word bitset rows.
        let mut b = GraphBuilder::new();
        let ids: Vec<_> = (0..130).map(|i| b.node(format!("v{i}"), 1)).collect();
        for w in ids.windows(2) {
            b.edge(w[0], w[1], 1, 1);
        }
        let g = b.build().unwrap();
        let r = Reachability::compute(&g);
        assert!(r.precedes(ids[0], ids[129]));
        assert!(r.precedes(ids[63], ids[64]));
        assert!(r.precedes(ids[0], ids[64]));
        assert!(!r.precedes(ids[129], ids[0]));
    }

    #[test]
    fn connectivity() {
        let g = diamond();
        assert!(is_weakly_connected(&g));
        let mut b = GraphBuilder::new();
        b.node("x", 1);
        b.node("y", 1);
        let g2 = b.build().unwrap();
        assert!(!is_weakly_connected(&g2));
    }
}
