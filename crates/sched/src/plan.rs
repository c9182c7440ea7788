//! A scheduler's output: the firing sequence plus the buffer capacities
//! it requires.

use ccs_graph::NodeId;
use serde::{Deserialize, Serialize};

/// A concrete schedule: an ordered firing sequence and the per-edge
/// channel capacities (in items) under which it is legal.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SchedRun {
    /// Human-readable scheduler name (appears in experiment tables).
    pub label: String,
    /// The firing sequence.
    pub firings: Vec<NodeId>,
    /// Channel capacity per edge, in items.
    pub capacities: Vec<u64>,
}

impl SchedRun {
    /// Number of firings of `v` in the sequence.
    pub fn count(&self, v: NodeId) -> u64 {
        self.firings.iter().filter(|&&x| x == v).count() as u64
    }

    /// Total words of channel capacity (the buffer-memory footprint).
    pub fn buffer_words(&self) -> u64 {
        self.capacities.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_firings_per_node_and_sums_capacities() {
        let run = SchedRun {
            label: "t".into(),
            firings: vec![NodeId(0), NodeId(1), NodeId(0), NodeId(2), NodeId(0)],
            capacities: vec![4, 0, 12],
        };
        assert_eq!(run.count(NodeId(0)), 3);
        assert_eq!(run.count(NodeId(2)), 1);
        assert_eq!(run.count(NodeId(7)), 0);
        assert_eq!(run.buffer_words(), 16);
        let empty = SchedRun {
            label: "empty".into(),
            firings: Vec::new(),
            capacities: Vec::new(),
        };
        assert_eq!((empty.count(NodeId(0)), empty.buffer_words()), (0, 0));
    }
}
