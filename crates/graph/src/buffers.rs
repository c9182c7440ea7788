//! Minimum channel-buffer sizes (`minBuf(e)` in §2).
//!
//! For a single SDF edge with rates `p = out(e)` and `c = in(e)`, the
//! smallest buffer capacity that admits a deadlock-free periodic schedule
//! is the classical bound `p + c - gcd(p, c)`. The paper instead works
//! with the (slightly larger, schedule-oblivious) `p + c`, under which a
//! producer can always run until the consumer is fireable regardless of
//! phase. [`min_buf_safe`] is the paper's `p + c`, what its schedulers
//! allocate; [`edge_schedulable_with_capacity`] checks the tight bound
//! by simulation.
//!
//! Both satisfy the paper's standing assumption that internal buffers are
//! dominated by module state for pipelines and homogeneous dags.

use crate::graph::{EdgeId, StreamGraph};
use crate::ratio::gcd_u64;

/// Safe minimum buffer for edge `e`: `p + c` (the paper's choice).
pub fn min_buf_safe(g: &StreamGraph, e: EdgeId) -> u64 {
    let edge = g.edge(e);
    edge.produce + edge.consume
}

/// Empirically verifies that a two-node producer/consumer system with the
/// given buffer capacity can complete one steady-state iteration without
/// deadlock. Used to validate the closed-form bounds in tests.
///
/// Simulates the demand-driven rule: fire the consumer whenever possible,
/// otherwise fire the producer if the buffer has room for its output.
pub fn edge_schedulable_with_capacity(produce: u64, consume: u64, capacity: u64) -> bool {
    assert!(produce > 0 && consume > 0);
    let g = gcd_u64(produce, consume);
    // One steady-state iteration: producer fires consume/g times,
    // consumer fires produce/g times.
    let (mut need_p, mut need_c) = (consume / g, produce / g);
    let mut occupancy: u64 = 0;
    while need_p > 0 || need_c > 0 {
        if need_c > 0 && occupancy >= consume {
            occupancy -= consume;
            need_c -= 1;
        } else if need_p > 0 && occupancy + produce <= capacity {
            occupancy += produce;
            need_p -= 1;
        } else {
            return false; // deadlock
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;

    fn edge_graph(p: u64, c: u64) -> StreamGraph {
        let mut b = GraphBuilder::new();
        let a = b.node("a", 1);
        let z = b.node("b", 1);
        b.edge(a, z, p, c);
        b.build().unwrap()
    }

    #[test]
    fn homogeneous_edge_needs_one_slot() {
        let g = edge_graph(1, 1);
        assert_eq!(min_buf_safe(&g, crate::EdgeId(0)), 2);
        assert!(edge_schedulable_with_capacity(1, 1, 1));
        assert!(!edge_schedulable_with_capacity(1, 1, 0));
    }

    #[test]
    fn classic_rates() {
        let g = edge_graph(3, 2);
        // 3 + 2 - gcd(3,2)=1 -> 4
        assert_eq!(min_buf_safe(&g, crate::EdgeId(0)), 5);
        assert!(edge_schedulable_with_capacity(3, 2, 4));
        assert!(!edge_schedulable_with_capacity(3, 2, 3));
    }

    #[test]
    fn lower_bound_is_tight_exhaustively() {
        // For all small rate pairs, the closed form matches simulation.
        for p in 1..=12u64 {
            for c in 1..=12u64 {
                let tight = p + c - gcd_u64(p, c);
                assert!(
                    edge_schedulable_with_capacity(p, c, tight),
                    "p={p} c={c} cap={tight} should schedule"
                );
                assert!(
                    !edge_schedulable_with_capacity(p, c, tight - 1),
                    "p={p} c={c} cap={} should deadlock",
                    tight - 1
                );
            }
        }
    }
}
