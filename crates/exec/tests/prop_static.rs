//! Placement-equivalence property: for any fan-out/fan-in dag, worker
//! count, placement, round count (one round, where the greedy placement
//! deals segments as round-robin does, or several, where it balances
//! their modelled work), warmup window and counter windows, the threaded
//! run completes, its sink digest and firing count equal the serial
//! executor's, and every segment executes exactly `rounds` batches on
//! the one worker that owns it. Synchronous dataflow makes the
//! stream's content schedule-independent; this test pins down that the
//! worker loop, ring handoff and the counter reads around each batch
//! preserve it.

use ccs_exec::{execute_dag_cfg, Placement, RunConfig};
use ccs_graph::{GraphBuilder, RateAnalysis, StreamGraph};
use ccs_partition::Partition;
use ccs_runtime::Instance;
use ccs_sched::partitioned;
use proptest::prelude::*;

/// Source → `branches` parallel chains of `depth` nodes → sink: a
/// single-io dag family with real fan-out/fan-in, so ring peers of one
/// segment sit on several other workers.
fn diamond(branches: usize, depth: usize) -> StreamGraph {
    let mut b = GraphBuilder::new();
    let src = b.node("src", 16);
    let sink = b.node("sink", 16);
    for br in 0..branches {
        let mut prev = src;
        for d in 0..depth {
            let v = b.node(format!("b{br}-{d}"), 24);
            b.edge(prev, v, 1, 1);
            prev = v;
        }
        b.edge(prev, sink, 1, 1);
    }
    b.build().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn any_static_placement_is_digest_invariant(
        branches in 1usize..4,
        depth in 1usize..4,
        workers in 1usize..5,
        placement in 0usize..2,
        rounds in 0usize..2,
        warmup in 0u64..3,
        windows in 0u64..3,
    ) {
        let g = diamond(branches, depth);
        let ra = RateAnalysis::analyze_single_io(&g).unwrap();
        let segs = g.node_count();
        let p = Partition::from_assignment((0..segs as u32).collect());
        let m = 8;
        let rounds = [1u64, 5][rounds];
        let run = partitioned::inhomogeneous(&g, &ra, &p, m, rounds).unwrap();
        let mut serial_inst = Instance::synthetic(g.clone());
        let serial = ccs_runtime::serial::execute(&mut serial_inst, &run);
        prop_assert!(serial.digest.is_some());

        let placement = [Placement::RoundRobin, Placement::CommGreedy][placement];
        let cfg = RunConfig::new(workers)
            .with_placement(placement)
            .with_warmup(warmup)
            .with_windows(windows);
        let inst = Instance::synthetic(g.clone());
        let stats = execute_dag_cfg(inst, &ra, &p, m, rounds, &cfg).unwrap();
        prop_assert_eq!(
            stats.run.digest, serial.digest,
            "digest diverged: workers={}, {}, rounds={}, warmup={}",
            workers, placement.name(), rounds, warmup
        );
        prop_assert_eq!(stats.run.firings, serial.firings);
        // Each segment sits on exactly one roster, and its worker ran
        // `rounds` batches of it.
        let mut owners = vec![0usize; segs];
        for w in &stats.workers {
            for &s in &w.segments {
                owners[s] += 1;
            }
            prop_assert_eq!(w.batches, rounds * w.segments.len() as u64);
        }
        prop_assert_eq!(owners, vec![1usize; segs]);
    }
}
