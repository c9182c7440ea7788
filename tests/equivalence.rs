//! Functional equivalence across schedulers and executors.
//!
//! Synchronous dataflow is deterministic: every legal schedule produces
//! the same output stream. These tests run the *same* workload through
//! every scheduler and both executors (serial and parallel) and demand
//! bit-identical sink digests.

use cache_conscious_streaming::prelude::*;
use cache_conscious_streaming::runtime::{self, Instance};
use cache_conscious_streaming::sched::{baseline, partitioned};
use ccs_graph::gen::{self, LayeredCfg, PipelineCfg, StateDist};

fn digest_of(g: &StreamGraph, run: &SchedRun) -> Option<u64> {
    let mut inst = Instance::synthetic(g.clone());
    runtime::execute(&mut inst, run).digest
}

#[test]
fn all_schedulers_agree_on_random_pipelines() {
    for seed in 0..8u64 {
        let cfg = PipelineCfg {
            len: 14,
            state: StateDist::Uniform(16, 96),
            max_q: 3,
            max_rate_scale: 2,
        };
        let g = gen::pipeline(&cfg, seed);
        let ra = RateAnalysis::analyze_single_io(&g).unwrap();
        let sink = ra.sink.unwrap();

        let sas = baseline::single_appearance(&g, &ra, 8);
        let target = sas.count(sink);
        let demand = baseline::demand_driven(&g, &ra, target);
        let kohli = baseline::kohli_greedy(&g, &ra, 256, target);

        let planner = Planner::new(CacheParams::new(1024, 16));
        let plan = planner.plan(&g, Horizon::SinkFirings(target)).unwrap();

        let reference = digest_of(&g, &sas);
        assert!(reference.is_some());
        assert_eq!(reference, digest_of(&g, &demand), "demand, seed {seed}");
        assert_eq!(reference, digest_of(&g, &kohli), "kohli, seed {seed}");

        // The dynamic partitioned schedule may overshoot the target; its
        // digest is computed over a longer prefix, so instead check the
        // shorter runs against each other and legality of the plan run.
        let mut inst = Instance::synthetic(g.clone());
        let stats = runtime::execute(&mut inst, &plan.run);
        assert!(stats.sink_items >= target, "seed {seed}");
    }
}

#[test]
fn partitioned_static_matches_baselines_exactly() {
    // Static partitioned schedules hit exact round boundaries, so the
    // digests can be compared directly by matching sink-firing counts.
    for seed in 0..6u64 {
        let cfg = LayeredCfg {
            layers: 3,
            max_width: 3,
            density: 0.3,
            state: StateDist::Uniform(8, 48),
            max_q: 2,
        };
        let g = gen::layered(&cfg, seed);
        let ra = RateAnalysis::analyze_single_io(&g).unwrap();
        let sink = ra.sink.unwrap();

        let p = ccs_partition::dag_greedy::greedy_topo(&g, 128);
        let m_items = 24u64;
        let rounds = 2u64;
        let part = partitioned::inhomogeneous(&g, &ra, &p, m_items, rounds).unwrap();
        let part_sink = part.count(sink);

        let demand = baseline::demand_driven(&g, &ra, part_sink);
        assert_eq!(digest_of(&g, &part), digest_of(&g, &demand), "seed {seed}");
    }
}

#[test]
fn parallel_executor_matches_serial_across_partitions() {
    // Unit rates are the `q ≡ 1` case of the dag executor: T = M, and
    // the homogeneous scheduler's rounds are its batches.
    let cfg = LayeredCfg {
        layers: 4,
        max_width: 3,
        density: 0.35,
        state: StateDist::Uniform(8, 64),
        max_q: 1,
    };
    for seed in 0..4u64 {
        let g = gen::layered(&cfg, seed);
        let ra = RateAnalysis::analyze_single_io(&g).unwrap();
        for bound in [96u64, 160, 100_000] {
            if g.max_state() > bound {
                continue;
            }
            let p = ccs_partition::dag_greedy::greedy_topo(&g, bound);
            let run = partitioned::homogeneous(&g, &ra, &p, 16, 2).unwrap();
            let want = digest_of(&g, &run);
            let inst = Instance::synthetic(g.clone());
            let stats = execute_dag_cfg(inst, &ra, &p, 16, 2, &RunConfig::new(4)).unwrap();
            assert_eq!(stats.t, 16, "seed {seed} bound {bound}");
            assert_eq!(stats.run.digest, want, "seed {seed} bound {bound}");
        }
    }
}

#[test]
fn symbolic_and_real_executors_agree_on_legality() {
    // Any sequence the symbolic executor accepts must run on real rings
    // without panicking, and vice versa for rejects.
    let g = gen::pipeline(&PipelineCfg::default(), 3);
    let ra = RateAnalysis::analyze_single_io(&g).unwrap();
    let run = baseline::demand_driven(&g, &ra, 10);
    // Symbolic.
    let mut ex = ccs_sched::Executor::new(
        &g,
        &ra,
        run.capacities.clone(),
        CacheParams::new(4096, 16),
        ccs_sched::ExecOptions::default(),
    );
    ex.run(&run.firings).expect("symbolically legal");
    // Real.
    let mut inst = Instance::synthetic(g.clone());
    let stats = runtime::execute(&mut inst, &run);
    assert_eq!(stats.firings, run.firings.len() as u64);
}
