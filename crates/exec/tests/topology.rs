//! Placement on the host: placement and core pinning must change
//! *where* segments run, never *what* they compute — the sink digest
//! stays bit-identical to the reference interpreter's across every
//! placement, pinning mode, and worker count. Plus the placement-quality
//! contract: the balanced placement is no worse than round-robin and
//! within one segment of every worker's fair share, and the modelled
//! work is the per-firing charge summed over the graph.

use ccs_exec::{
    balance, execute_dag_cfg, round_robin, segment_links, ExecPlan, Placement, RunConfig,
};
use ccs_graph::gen::{self, LayeredCfg, StateDist};
use ccs_graph::{RateAnalysis, StreamGraph};
use ccs_partition::{dag_greedy, Partition};
use ccs_runtime::Instance;
use ccs_sched::partitioned;
use proptest::prelude::*;

/// Serial reference digest for `rounds` granularity-T rounds.
fn serial_digest(
    g: &StreamGraph,
    ra: &RateAnalysis,
    p: &Partition,
    m: u64,
    rounds: u64,
) -> Option<u64> {
    let run = partitioned::inhomogeneous(g, ra, p, m, rounds).expect("serial reference schedule");
    let mut inst = Instance::synthetic(g.clone());
    ccs_runtime::serial::execute(&mut inst, &run).digest
}

/// The acceptance contract: both placements × {pinned, unpinned} ×
/// {1, 2, 4} workers all reproduce the serial digest exactly. Four
/// workers on a smaller host pin two to one cpu.
#[test]
fn placement_and_pinning_match_serial() {
    let apps: Vec<(&str, StreamGraph, u64)> = vec![
        ("fm-radio", ccs_apps::fm_radio(8), 512),
        ("beamformer", ccs_apps::beamformer(4, 4), 256),
        (
            "layered",
            gen::layered(
                &LayeredCfg {
                    layers: 4,
                    max_width: 3,
                    density: 0.3,
                    state: StateDist::Uniform(8, 48),
                    max_q: 3,
                },
                1,
            ),
            96,
        ),
    ];
    for (name, g, m) in apps {
        let ra = RateAnalysis::analyze_single_io(&g).unwrap();
        let p = dag_greedy::greedy_best(&g, &ra, m.max(g.max_state()));
        let want = serial_digest(&g, &ra, &p, m, 2);
        assert!(want.is_some(), "{name}: no serial digest");
        for placement in [Placement::RoundRobin, Placement::Measured] {
            for pin in [false, true] {
                for workers in [1usize, 2, 4] {
                    let cfg = RunConfig::new(workers)
                        .with_placement(placement)
                        .with_pinning(pin);
                    let inst = Instance::synthetic(g.clone());
                    let stats = execute_dag_cfg(inst, &ra, &p, m, 2, &cfg)
                        .unwrap_or_else(|e| panic!("{name}: {e}"));
                    assert_eq!(
                        stats.run.digest, want,
                        "{name}: digest diverged at {workers} workers, {placement:?}, pin={pin}"
                    );
                }
            }
        }
    }
}

/// A pipeline of eight one-node segments (16 words each) whose edge
/// s1→s2 carries 8× the traffic of every other edge.
fn hot_edge_pipeline() -> (StreamGraph, RateAnalysis, Partition) {
    let mut b = ccs_graph::GraphBuilder::new();
    let v: Vec<_> = (0..8).map(|i| b.node(format!("s{i}"), 16)).collect();
    for i in 0..7 {
        if i == 1 {
            b.edge(v[i], v[i + 1], 8, 8);
        } else {
            b.edge(v[i], v[i + 1], 1, 1);
        }
    }
    let g = b.build().unwrap();
    let ra = RateAnalysis::analyze_single_io(&g).unwrap();
    let p = Partition::from_assignment((0..8).collect());
    (g, ra, p)
}

/// Digest equivalence on a graph whose one hot edge the placement has to
/// weigh: the measured placement, which took the retired greedy one's
/// place as the default, weighs it between placements of equal
/// makespan; pinned and unpinned.
#[test]
fn hot_edge_pipeline_matches_serial_under_greedy() {
    let (g, ra, p) = hot_edge_pipeline();
    let want = serial_digest(&g, &ra, &p, 8, 4);
    for pin in [false, true] {
        let cfg = RunConfig::new(4)
            .with_placement(Placement::Measured)
            .with_pinning(pin);
        let inst = Instance::synthetic(g.clone());
        let stats = execute_dag_cfg(inst, &ra, &p, 8, 4, &cfg).unwrap();
        assert_eq!(stats.run.digest, want, "pin={pin}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Balanced on the plan's modelled costs, the placement searches to
    /// its end at this size, is no worse than round-robin's, and — as
    /// any list schedule is — within one segment of each worker's fair
    /// share: no worker above `ceil(total/workers) + max_segment_cost`.
    #[test]
    fn balanced_placement_is_within_a_segment_of_fair_share(seed in 0u64..5_000,
                                                            layers in 2usize..6,
                                                            width in 1usize..5,
                                                            workers in 1usize..6) {
        let (g, ra, plan) = layered_plan(seed, layers, width);
        let costs: Vec<u64> = plan.segments.iter().map(|s| s.cost).collect();
        let placed = balance(&costs, &segment_links(&g, &ra, &plan), workers);
        prop_assert!(placed.exact);
        prop_assert!(placed.owner.iter().all(|&w| w < workers));
        let makespan = |owner: &[usize]| {
            let mut load = vec![0u64; workers];
            for (si, &w) in owner.iter().enumerate() {
                load[w] += costs[si];
            }
            load.into_iter().max().unwrap_or(0)
        };
        prop_assert_eq!(makespan(&placed.owner), placed.makespan);
        prop_assert!(placed.makespan <= makespan(&round_robin(costs.len(), workers)));
        let total: u64 = costs.iter().sum();
        let max_seg = costs.iter().copied().max().unwrap_or(0);
        prop_assert!(placed.makespan <= total.div_ceil(workers as u64) + max_seg,
                     "makespan {} over fair {} + max_seg {}",
                     placed.makespan, total.div_ceil(workers as u64), max_seg);
        prop_assert!(placed.bound <= placed.makespan);
    }

    /// Each segment's cost is the paper's per-firing charge — the state
    /// a firing sweeps plus the items it moves — times the firings of a
    /// batch, summed here edge by edge from the rate analysis rather
    /// than node by node as the plan does.
    #[test]
    fn segment_cost_is_the_per_firing_charge_over_the_graph(seed in 0u64..5_000,
                                                            layers in 2usize..6,
                                                            width in 1usize..5) {
        let (g, ra, plan) = layered_plan(seed, layers, width);
        let source = ra.source.unwrap();
        let quota = |v: ccs_graph::NodeId| plan.t * ra.q(v) / ra.q(source);
        let mut want = vec![0u64; plan.segments.len()];
        for v in g.node_ids() {
            want[plan.seg_of_node[v.idx()]] += quota(v) * g.state(v);
        }
        for e in g.edge_ids() {
            let edge = g.edge(e);
            want[plan.seg_of_node[edge.src.idx()]] += quota(edge.src) * edge.produce;
            want[plan.seg_of_node[edge.dst.idx()]] += quota(edge.dst) * edge.consume;
        }
        let got: Vec<u64> = plan.segments.iter().map(|s| s.cost).collect();
        prop_assert_eq!(got, want);
    }
}

/// A layered dag, greedily partitioned, and its plan.
fn layered_plan(seed: u64, layers: usize, width: usize) -> (StreamGraph, RateAnalysis, ExecPlan) {
    let g = gen::layered(
        &LayeredCfg {
            layers,
            max_width: width,
            density: 0.4,
            state: StateDist::Uniform(8, 64),
            max_q: 2,
        },
        seed,
    );
    let ra = RateAnalysis::analyze_single_io(&g).unwrap();
    let p = dag_greedy::greedy_topo(&g, 128.max(g.max_state()));
    let plan = ExecPlan::build(&g, &ra, &p, 64).unwrap();
    (g, ra, plan)
}

/// Multi-source/multi-sink graphs run end-to-end once augmented with
/// super endpoints, and the result is digest-identical to the serial
/// executor over the same augmented instance.
#[test]
fn fan_in_fan_out_runs_after_super_endpoint_augmentation() {
    let mut b = ccs_graph::GraphBuilder::new();
    let s1 = b.node("src1", 16);
    let s2 = b.node("src2", 16);
    let m1 = b.node("mix1", 32);
    let m2 = b.node("mix2", 32);
    let t1 = b.node("sink1", 16);
    let t2 = b.node("sink2", 16);
    b.edge(s1, m1, 1, 1);
    b.edge(s2, m1, 1, 1);
    b.edge(m1, m2, 2, 2);
    b.edge(m2, t1, 1, 1);
    b.edge(m2, t2, 1, 1);
    let g = b.build().unwrap();
    assert!(g.single_source().is_none() && g.single_sink().is_none());

    let aug = Instance::synthetic(g.clone()).with_super_endpoints();
    let g2 = aug.graph.clone();
    let ra = RateAnalysis::analyze_single_io(&g2).unwrap();
    let p = dag_greedy::greedy_topo(&g2, 64.max(g2.max_state()));

    // Serial reference over an identically augmented instance.
    let run = partitioned::inhomogeneous(&g2, &ra, &p, 16, 3).unwrap();
    let mut serial_inst = Instance::synthetic(g.clone()).with_super_endpoints();
    let want = ccs_runtime::serial::execute(&mut serial_inst, &run).digest;
    assert!(want.is_some());

    for workers in [1usize, 2, 4] {
        let cfg = RunConfig::new(workers).with_placement(Placement::Measured);
        let inst = Instance::synthetic(g.clone()).with_super_endpoints();
        let stats = execute_dag_cfg(inst, &ra, &p, 16, 3, &cfg).unwrap();
        assert_eq!(stats.run.digest, want, "workers {workers}");
    }
}
