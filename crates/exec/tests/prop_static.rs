//! Placement-equivalence property: for any fan-out/fan-in dag, worker
//! count, placement, round count (one round, where the measured
//! placement deals segments as round-robin does, or several, where it
//! re-deals them by round 0's measured batch times), warmup window and
//! counter windows, the threaded run completes, its sink digest and
//! firing count equal the serial executor's and round-robin's, and every
//! segment executes exactly `rounds` batches: all on its one worker, or
//! under a measured placement the first on its round-robin worker and
//! the rest on the one the placement gave it. Synchronous dataflow
//! makes the stream's content schedule-independent; this test pins down
//! that the worker loop, ring handoff, the round-0 re-deal and the
//! counter reads around each batch preserve it.

use ccs_exec::{execute_dag_cfg, round_robin, Placement, RunConfig};
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
        rounds in 0usize..4,
        warmup in 0u64..3,
        windows in 0u64..3,
    ) {
        let g = diamond(branches, depth);
        let ra = RateAnalysis::analyze_single_io(&g).unwrap();
        let segs = g.node_count();
        let p = Partition::from_assignment((0..segs as u32).collect());
        let m = 8;
        let rounds = [1u64, 2, 3, 8][rounds];
        let run = partitioned::inhomogeneous(&g, &ra, &p, m, rounds).unwrap();
        let mut serial_inst = Instance::synthetic(g.clone());
        let serial = ccs_runtime::serial::execute(&mut serial_inst, &run);
        prop_assert!(serial.digest.is_some());

        let placement = [Placement::RoundRobin, Placement::Measured][placement];
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
        let rr = RunConfig::new(workers).with_placement(Placement::RoundRobin);
        let oracle = execute_dag_cfg(Instance::synthetic(g.clone()), &ra, &p, m, rounds, &rr).unwrap();
        prop_assert_eq!(stats.run.digest, oracle.run.digest);
        // Each segment sits on exactly one roster, that of its owner,
        // and ran `rounds` batches: the first on its round-robin worker
        // under a measured placement, every other on its owner.
        let deal = round_robin(segs, workers);
        let measured = placement.measures(workers, rounds, segs);
        let mut owners = vec![0usize; segs];
        for w in &stats.workers {
            let mut batches = 0;
            for &s in &w.segments {
                owners[s] += 1;
                prop_assert_eq!(stats.owner[s], w.worker);
            }
            for (&dealt, &owner) in deal.iter().zip(&stats.owner) {
                let first = if measured { dealt } else { owner };
                batches += u64::from(first == w.worker) * rounds.min(1)
                    + u64::from(owner == w.worker) * rounds.saturating_sub(1);
            }
            prop_assert_eq!(w.batches, batches);
        }
        prop_assert_eq!(owners, vec![1usize; segs]);
    }
}
