//! The periodic firing plan: one steady-state period per segment, run
//! `reps` times.
//!
//! A plan that stores one period must still be the whole batch — every
//! node `quota[v]` times, legal as a flat sequence — must stay O(nodes)
//! however large the batch is, must keep the firing counts the
//! executors report, and must leave every sink digest where the
//! reference interpreter (`partitioned::inhomogeneous` through
//! `serial::execute`, which shares no code with it) puts it.

use cache_conscious_streaming::exec::{execute_dag_cfg, execute_serial_fused, ExecPlan, RunConfig};
use cache_conscious_streaming::partition::{compile_firing_plan, dag_greedy, pipeline};
use cache_conscious_streaming::prelude::*;
use cache_conscious_streaming::runtime::serial::{self, ObsConfig};
use cache_conscious_streaming::runtime::Instance;
use cache_conscious_streaming::sched::partitioned;
use ccs_graph::gen::{self, LayeredCfg, PipelineCfg, StateDist};
use proptest::prelude::*;

const STATE: StateDist = StateDist::Uniform(8, 48);

/// Every executor's (digest, firings) for `rounds` rounds, keyed by a
/// label: serial, then one and two workers.
fn executor_runs(
    bind: &dyn Fn() -> Instance,
    ra: &RateAnalysis,
    p: &Partition,
    m: u64,
    rounds: u64,
) -> Vec<(String, Option<u64>, u64)> {
    let (run, _) = execute_serial_fused(bind(), ra, p, m, rounds, &ObsConfig::default()).unwrap();
    let mut runs = vec![("serial".to_string(), run.digest, run.firings)];
    for workers in [1usize, 2] {
        let cfg = RunConfig::new(workers);
        let run = execute_dag_cfg(bind(), ra, p, m, rounds, &cfg).unwrap().run;
        runs.push((format!("x{workers}"), run.digest, run.firings));
    }
    runs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn reps_times_period_is_the_batch_and_digests_hold(
        seed in 0u64..1000,
        rated_pipeline in 0u8..2,
    ) {
        let (m, rounds) = (48u64, 2u64);
        let (g, p) = if rated_pipeline == 1 {
            let cfg = PipelineCfg { len: 10, state: STATE, max_q: 3, max_rate_scale: 2 };
            let g = gen::pipeline(&cfg, seed);
            let ra = RateAnalysis::analyze_single_io(&g).unwrap();
            let p = pipeline::greedy_theorem5(&g, &ra, m).unwrap().partition;
            (g, p)
        } else {
            let cfg = LayeredCfg { layers: 4, max_width: 3, density: 0.3, state: STATE, max_q: 3 };
            let g = gen::layered(&cfg, seed);
            let p = dag_greedy::greedy_topo(&g, 96);
            (g, p)
        };
        let ra = RateAnalysis::analyze_single_io(&g).unwrap();
        let plan = ExecPlan::build(&g, &ra, &p, m).unwrap();

        for (seg, fp) in plan.segments.iter().zip(&plan.fused) {
            prop_assert_eq!((fp.reps, fp.firings.len()), (seg.reps, seg.firings.len()));
            let batch: Vec<NodeId> = (0..seg.reps).flat_map(|_| seg.firings.iter().copied()).collect();
            prop_assert_eq!(batch.len() as u64, seg.batch_firings());
            for &v in &seg.nodes {
                let fired = batch.iter().filter(|&&w| w == v).count() as u64;
                prop_assert_eq!(fired, plan.quota[v.idx()]);
            }
            // Spelled out, the batch is itself a legal one-repetition plan.
            let whole = compile_firing_plan(&g, &plan.quota, &seg.nodes, &batch);
            prop_assert_eq!(whole.map(|w| (w.reps, w.firings.len())), Some((1, batch.len())));
        }

        let reference = partitioned::inhomogeneous(&g, &ra, &p, m, rounds).unwrap();
        let want = serial::execute(&mut Instance::synthetic(g.clone()), &reference).digest;
        prop_assert!(want.is_some());
        for (label, digest, _) in executor_runs(&|| Instance::synthetic(g.clone()), &ra, &p, m, rounds) {
            prop_assert_eq!(digest, want, "{}", label);
        }
    }
}

/// `RunStats::firings` stays `rounds × firings_per_round` on every
/// executor now that a plan's `firings` holds one period, not the batch.
#[test]
fn reported_firings_are_rounds_times_firings_per_round() {
    fn check(name: &str, bind: &dyn Fn() -> Instance, m: u64, rounds: u64) {
        let g = bind().graph;
        let ra = RateAnalysis::analyze_single_io(&g).unwrap();
        let p = dag_greedy::greedy_best(&g, &ra, m.max(g.max_state()));
        let plan = ExecPlan::build(&g, &ra, &p, m).unwrap();
        let per_round: u64 = plan.segments.iter().map(|s| s.batch_firings()).sum();
        assert_eq!(per_round, plan.firings_per_round(), "{name}");
        for (label, _, firings) in executor_runs(bind, &ra, &p, m, rounds) {
            assert_eq!(firings, rounds * per_round, "{name}: {label}");
        }
    }
    let layered = gen::layered(
        &LayeredCfg {
            layers: 4,
            max_width: 3,
            density: 0.3,
            state: STATE,
            max_q: 3,
        },
        1,
    );
    check("layered", &|| Instance::synthetic(layered.clone()), 48, 3);
    // The 8:1 decimating bank with its real FIR kernels.
    let bank = cache_conscious_streaming::apps::filterbank(8);
    check(
        "filterbank",
        &|| cache_conscious_streaming::apps::fir_instance(bank.clone()),
        512,
        2,
    );
}

/// Plan size on the benchmark's frozen `wide-dag` shape: O(nodes)
/// entries whatever `T` is, and an arena of one period of the internal
/// edges only — a cross edge's batch lives in its ring and nowhere
/// else.
#[test]
fn wide_dag_plan_is_one_period_per_segment() {
    let g = gen::layered(
        &LayeredCfg {
            layers: 32,
            max_width: 36,
            density: 0.3,
            state: StateDist::Uniform(32, 128),
            max_q: 1,
        },
        0,
    );
    let m = 4096;
    let ra = RateAnalysis::analyze_single_io(&g).unwrap();
    let (p, _, _) = Planner::new(CacheParams::new(m, 16))
        .partition(&g, &ra)
        .unwrap();
    let plan = ExecPlan::build(&g, &ra, &p, m).unwrap();

    let entries: u64 = plan.fused.iter().map(|f| f.firings.len() as u64).sum();
    let per_period: u64 = plan
        .segments
        .iter()
        .flat_map(|s| s.nodes.iter().map(|v| plan.quota[v.idx()] / s.reps))
        .sum();
    assert_eq!(entries, per_period);
    assert!(entries <= 2 * g.node_count() as u64, "{entries} entries");

    // Internal edges get one period of arena; cross edges get a ring of
    // two batches and no arena at either end.
    let (mut cross_words, mut internal_words) = (0u64, 0u64);
    for e in g.edge_ids() {
        let edge = g.edge(e);
        let seg = plan.seg_of_node[edge.src.idx()];
        let batch = plan.quota[edge.src.idx()] * edge.produce;
        if seg == plan.seg_of_node[edge.dst.idx()] {
            internal_words += batch / plan.segments[seg].reps;
            assert_eq!(plan.capacities[e.idx()], 0);
        } else {
            cross_words += 2 * batch;
            assert_eq!(plan.capacities[e.idx()], 2 * batch);
        }
    }
    let arena_words: u64 = plan.fused.iter().map(|f| f.arena_len as u64).sum();
    assert_eq!((arena_words, internal_words), (1_304, 1_304));
    assert_eq!(cross_words, 22_568_960);
    assert_eq!(plan.capacities.iter().sum::<u64>(), cross_words);
}
