//! Topology-aware execution: the `llc` placement and core pinning must
//! change *where* segments run, never *what* they compute — the sink
//! digest stays bit-identical to the reference interpreter's across every
//! topology, placement, pinning mode, and worker count. Plus the two
//! placement-quality contracts: the fair-share load cap always holds,
//! and a maximal-gain edge's endpoints land in one LLC cluster whenever
//! the cap allows it.

use ccs_exec::{assign_on, execute_dag_cfg, fair_share, ExecPlan, Placement, RunConfig};
use ccs_graph::gen::{self, LayeredCfg, StateDist};
use ccs_graph::{RateAnalysis, StreamGraph};
use ccs_partition::{dag_greedy, Partition};
use ccs_runtime::Instance;
use ccs_sched::partitioned;
use ccs_topo::{TopoSpec, Topology};
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

/// The acceptance contract: on a synthetic multi-LLC machine, `llc`
/// placement × {pinned, unpinned} × {1, 2, 4} workers all reproduce the
/// serial digest exactly.
#[test]
fn llc_placement_and_pinning_match_serial() {
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
    // Two clusters of two cores on one node: small enough that every
    // worker count exercises both the intra- and inter-cluster paths.
    let topo = Topology::synthetic(&TopoSpec::new(1, 2, 2));
    for (name, g, m) in apps {
        let ra = RateAnalysis::analyze_single_io(&g).unwrap();
        let p = dag_greedy::greedy_best(&g, &ra, m.max(g.max_state()));
        let want = serial_digest(&g, &ra, &p, m, 2);
        assert!(want.is_some(), "{name}: no serial digest");
        for pin in [false, true] {
            for workers in [1usize, 2, 4] {
                let cfg = RunConfig::new(workers)
                    .with_placement(Placement::Llc)
                    .with_topology(topo.clone())
                    .with_pinning(pin);
                let inst = Instance::synthetic(g.clone());
                let stats = execute_dag_cfg(inst, &ra, &p, m, 2, &cfg)
                    .unwrap_or_else(|e| panic!("{name}: {e}"));
                assert_eq!(
                    stats.run.digest, want,
                    "{name}: digest diverged at {workers} workers, pin={pin}"
                );
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

/// The acceptance contract for placement quality: the maximal-gain
/// edge's endpoints go to the same LLC cluster whenever the load cap
/// allows. Here the cap (2 segments per worker) closes s1's own worker
/// before s2 is placed, and two open workers tie on load — one in s1's
/// cluster, one in the other — so only the LLC distance weight can
/// break the tie correctly.
#[test]
fn max_gain_edge_endpoints_share_an_llc_cluster() {
    let (g, ra, p) = hot_edge_pipeline();
    let plan = ExecPlan::build(&g, &ra, &p, 8).unwrap();
    let topo = Topology::synthetic(&TopoSpec::new(1, 2, 2));
    let owner = assign_on(&g, &ra, &plan, 4, Placement::Llc, &topo, true);
    // The deterministic walk: each worker fills to its fair share (two
    // segments) before the chain spills into the next core — and the
    // hot edge s1→s2 crosses workers inside cluster 0.
    assert_eq!(owner, vec![0, 0, 1, 1, 2, 2, 3, 3]);
    let cluster_of = |w: usize| topo.core(w % topo.core_count()).cluster;
    assert_eq!(cluster_of(owner[1]), cluster_of(owner[2]), "{owner:?}");
    // Sanity: the same machine under round-robin splits the hot edge
    // across clusters — the llc win is real, not structural.
    let rr = assign_on(&g, &ra, &plan, 4, Placement::RoundRobin, &topo, true);
    assert_ne!(cluster_of(rr[1]), cluster_of(rr[2]), "{rr:?}");
}

/// Digest equivalence on the hot-edge graph too, now through the
/// planner-facing config (llc + pinning on the synthetic machine).
#[test]
fn hot_edge_pipeline_matches_serial_under_llc() {
    let (g, ra, p) = hot_edge_pipeline();
    let want = serial_digest(&g, &ra, &p, 8, 4);
    let topo = Topology::synthetic(&TopoSpec::new(1, 2, 2));
    for pin in [false, true] {
        let cfg = RunConfig::new(4)
            .with_placement(Placement::Llc)
            .with_topology(topo.clone())
            .with_pinning(pin);
        let inst = Instance::synthetic(g.clone());
        let stats = execute_dag_cfg(inst, &ra, &p, 8, 4, &cfg).unwrap();
        assert_eq!(stats.run.digest, want, "pin={pin}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The fair-share load cap: under `llc` placement no worker's
    /// placed segment state exceeds `ceil(total/workers)` except via
    /// the all-workers-full fallback, which adds at most one segment to
    /// the least-loaded worker — so `fair + max_segment_state` bounds
    /// every worker, on every machine shape.
    #[test]
    fn llc_placement_respects_fair_share(seed in 0u64..5_000,
                                         layers in 2usize..6,
                                         width in 1usize..5,
                                         workers in 1usize..6,
                                         nodes in 1usize..3,
                                         clusters in 1usize..3,
                                         cores in 1usize..3) {
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
        let topo = Topology::synthetic(&TopoSpec::new(nodes, clusters, cores));
        let owner = assign_on(&g, &ra, &plan, workers, Placement::Llc, &topo, true);
        prop_assert!(owner.iter().all(|&w| w < workers));
        let fair = fair_share(&plan, workers);
        let max_seg = plan.segments.iter().map(|s| s.state_words).max().unwrap_or(0);
        let mut load = vec![0u64; workers];
        for (si, &w) in owner.iter().enumerate() {
            load[w] += plan.segments[si].state_words;
        }
        for (w, &l) in load.iter().enumerate() {
            prop_assert!(l <= fair + max_seg,
                         "worker {} load {} > fair {} + max_seg {}", w, l, fair, max_seg);
        }
    }
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

    let topo = Topology::synthetic(&TopoSpec::new(1, 2, 2));
    for workers in [1usize, 2, 4] {
        let cfg = RunConfig::new(workers)
            .with_placement(Placement::Llc)
            .with_topology(topo.clone());
        let inst = Instance::synthetic(g.clone()).with_super_endpoints();
        let stats = execute_dag_cfg(inst, &ra, &p, 16, 3, &cfg).unwrap();
        assert_eq!(stats.run.digest, want, "workers {workers}");
    }
}
