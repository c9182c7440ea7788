//! Failure injection: every layer must reject invalid inputs loudly, not
//! produce wrong numbers silently.

use cache_conscious_streaming::prelude::*;
use cache_conscious_streaming::sched::{ExecOptions, Executor};
use ccs_graph::{GraphBuilder, GraphError, RateError};

#[test]
fn graph_construction_rejects_malformed() {
    // Cycle.
    let mut b = GraphBuilder::new();
    let x = b.node("x", 1);
    let y = b.node("y", 1);
    b.edge(x, y, 1, 1);
    b.edge(y, x, 1, 1);
    assert!(matches!(b.build(), Err(GraphError::Cycle { .. })));

    // Zero rate.
    let mut b = GraphBuilder::new();
    let x = b.node("x", 1);
    let y = b.node("y", 1);
    b.edge(x, y, 1, 0);
    assert!(matches!(b.build(), Err(GraphError::ZeroRate { .. })));

    // Empty.
    assert!(matches!(
        GraphBuilder::new().build(),
        Err(GraphError::Empty)
    ));
}

#[test]
fn rate_analysis_rejects_unmatched_and_disconnected() {
    // Inconsistent diamond.
    let mut b = GraphBuilder::new();
    let s = b.node("s", 1);
    let a = b.node("a", 1);
    let c = b.node("c", 1);
    let t = b.node("t", 1);
    b.edge(s, a, 1, 1);
    b.edge(s, c, 3, 1);
    b.edge(a, t, 1, 1);
    b.edge(c, t, 1, 1);
    let g = b.build().unwrap();
    assert!(matches!(
        RateAnalysis::analyze(&g),
        Err(RateError::NotRateMatched { .. })
    ));

    // Disconnected.
    let mut b = GraphBuilder::new();
    b.node("a", 1);
    b.node("b", 1);
    let g = b.build().unwrap();
    assert_eq!(RateAnalysis::analyze(&g), Err(RateError::Disconnected));
}

#[test]
fn planner_propagates_rate_errors() {
    let mut b = GraphBuilder::new();
    let s1 = b.node("s1", 8);
    let s2 = b.node("s2", 8);
    let t = b.node("t", 8);
    b.edge(s1, t, 1, 1);
    b.edge(s2, t, 1, 1);
    let g = b.build().unwrap();
    let planner = Planner::new(CacheParams::new(256, 16));
    let err = planner.plan(&g, Horizon::Rounds(1)).unwrap_err();
    assert!(matches!(
        err,
        PlanError::Rates(RateError::MultipleSources { .. })
    ));
}

#[test]
fn planner_infeasible_when_module_bigger_than_cache_slice() {
    let g = ccs_graph::gen::pipeline_uniform(4, 10_000);
    let planner = Planner::new(CacheParams::new(256, 16));
    let err = planner.plan(&g, Horizon::Rounds(1)).unwrap_err();
    // Auto routes pipelines to Theorem 5, which reports the oversized
    // module.
    assert!(matches!(
        err,
        PlanError::Pipeline(ccs_partition::PipelineError::ModuleTooLarge { .. })
    ));
}

#[test]
fn executor_rejects_illegal_firings_and_preserves_state() {
    let g = ccs_graph::gen::pipeline_uniform(3, 16);
    let ra = RateAnalysis::analyze_single_io(&g).unwrap();
    let params = CacheParams::new(256, 16);
    let mut ex = Executor::new(&g, &ra, vec![2, 2], params, ExecOptions::default());
    // Underflow at the very first firing of a non-source node.
    assert!(ex.fire(ccs_graph::NodeId(2)).is_err());
    // State unchanged: a legal firing still works.
    ex.fire(ccs_graph::NodeId(0)).unwrap();
    ex.fire(ccs_graph::NodeId(1)).unwrap();
    ex.fire(ccs_graph::NodeId(2)).unwrap();
    // Overflow: fill the first buffer beyond capacity 2.
    ex.fire(ccs_graph::NodeId(0)).unwrap();
    ex.fire(ccs_graph::NodeId(0)).unwrap();
    let err = ex.fire(ccs_graph::NodeId(0)).unwrap_err();
    assert!(matches!(err, ccs_sched::ExecError::Overflow { .. }));
}

#[test]
fn partition_validation_failures_are_specific() {
    use ccs_partition::{Partition, PartitionError};
    let g = ccs_graph::gen::pipeline_uniform(4, 10);
    // Interleaved components: not well ordered.
    let bad = Partition::from_assignment(vec![0, 1, 0, 1]);
    assert_eq!(bad.validate(&g, 100), Err(PartitionError::NotWellOrdered));
    // Oversized component.
    let fat = Partition::whole(&g);
    assert!(matches!(
        fat.validate(&g, 39),
        Err(PartitionError::ComponentTooLarge { state: 40, .. })
    ));
    // Wrong length.
    let short = Partition::from_assignment(vec![0, 0]);
    assert!(matches!(
        short.validate(&g, 100),
        Err(PartitionError::WrongLength { .. })
    ));
}

#[test]
fn partitioned_scheduler_rejects_bad_partitions() {
    use ccs_partition::Partition;
    use ccs_sched::partitioned;
    let g = ccs_graph::gen::pipeline_uniform(4, 10);
    let ra = RateAnalysis::analyze_single_io(&g).unwrap();
    let bad = Partition::from_assignment(vec![0, 1, 0, 1]);
    assert_eq!(
        partitioned::homogeneous(&g, &ra, &bad, 8, 1).unwrap_err(),
        partitioned::PartSchedError::InvalidPartition
    );
    assert_eq!(
        partitioned::inhomogeneous(&g, &ra, &bad, 8, 1).unwrap_err(),
        partitioned::PartSchedError::InvalidPartition
    );
}

#[test]
fn exact_partitioner_refuses_oversized_graphs() {
    use ccs_partition::dag_exact;
    let g = ccs_graph::gen::pipeline_uniform(dag_exact::MAX_EXACT_NODES + 1, 4);
    let ra = RateAnalysis::analyze_single_io(&g).unwrap();
    let result = std::panic::catch_unwind(|| dag_exact::min_bandwidth_exact(&g, &ra, 1000));
    assert!(result.is_err(), "must assert on too-large graphs");
}

#[test]
fn threaded_executor_config_errors_are_loud_and_specific() {
    use ccs_exec::{execute_dag_cfg, DagExecError, RunConfig};
    use ccs_partition::Partition;
    use ccs_runtime::Instance;
    let g = ccs_graph::gen::pipeline_uniform(4, 16);
    let ra = RateAnalysis::analyze_single_io(&g).unwrap();
    let run = |p: &Partition, rounds: u64, cfg: &RunConfig| {
        execute_dag_cfg(Instance::synthetic(g.clone()), &ra, p, 8, rounds, cfg)
    };

    // Segments that cycle through each other (0 → 1 → 0) have no batch
    // order: an error before any worker starts, not a deadlocked run.
    let cyclic = Partition::from_assignment(vec![0, 1, 0, 2]);
    assert_eq!(
        run(&cyclic, 6, &RunConfig::new(2)).unwrap_err(),
        DagExecError::NotWellOrdered
    );

    // Zero workers is one worker, and zero rounds is an empty run: both
    // complete rather than hang.
    let p = Partition::from_assignment((0..4).collect());
    let one = run(&p, 6, &RunConfig::new(0)).unwrap();
    assert_eq!(one.workers.len(), 1);
    assert_eq!(one.workers[0].batches, 6 * 4);
    let empty = run(&p, 0, &RunConfig::new(2).with_warmup(3)).unwrap();
    assert_eq!(empty.warmup, 0);
    assert!(empty
        .workers
        .iter()
        .all(|w| w.batches == 0 && w.firings == 0));
}

#[test]
fn runtime_capacity_mismatch_panics_cleanly() {
    use cache_conscious_streaming::runtime::{execute, Instance};
    let g = ccs_graph::gen::pipeline_uniform(3, 8);
    let run = ccs_sched::SchedRun {
        label: "bogus".into(),
        // Fire the middle node with nothing buffered.
        firings: vec![ccs_graph::NodeId(1)],
        capacities: vec![4, 4],
    };
    let mut inst = Instance::synthetic(g);
    let result =
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| execute(&mut inst, &run)));
    assert!(result.is_err(), "real executor must refuse illegal pops");
}
