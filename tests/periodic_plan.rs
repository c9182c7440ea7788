//! The periodic firing plan: one block of steady-state periods per
//! segment, each member's share of it one run, run `reps` times.
//!
//! A plan that stores one block must still be the whole batch — every
//! node `quota[v]` times, legal as a flat sequence — must stay one
//! entry per member however large the batch is, must keep the firing
//! counts the executors report, and must leave every sink digest where
//! the reference interpreter (`partitioned::inhomogeneous` through
//! `serial::execute`, which shares no code with it) puts it.

use cache_conscious_streaming::exec::plan::BLOCK;
use cache_conscious_streaming::exec::{execute_dag_cfg, ExecPlan, RunConfig};
use cache_conscious_streaming::partition::{compile_firing_plan, dag_greedy, pipeline};
use cache_conscious_streaming::prelude::*;
use cache_conscious_streaming::runtime::serial;
use cache_conscious_streaming::runtime::Instance;
use cache_conscious_streaming::sched::partitioned;
use ccs_graph::gen::{self, LayeredCfg, PipelineCfg, StateDist};
use proptest::prelude::*;

const STATE: StateDist = StateDist::Uniform(8, 48);

/// The executor's (digest, firings) for `rounds` rounds at one and two
/// workers, keyed by a label.
fn executor_runs(
    bind: &dyn Fn() -> Instance,
    ra: &RateAnalysis,
    p: &Partition,
    m: u64,
    rounds: u64,
) -> Vec<(String, Option<u64>, u64)> {
    [1usize, 2]
        .map(|workers| {
            let cfg = RunConfig::new(workers);
            let run = execute_dag_cfg(bind(), ra, p, m, rounds, &cfg).unwrap().run;
            (format!("x{workers}"), run.digest, run.firings)
        })
        .into()
}

/// A rated pipeline under its Theorem-5 partition, or a layered dag
/// with repetitions up to 3 under the greedy one.
fn graph_and_partition(rated_pipeline: bool, seed: u64) -> (StreamGraph, Partition) {
    if rated_pipeline {
        let cfg = PipelineCfg {
            len: 10,
            state: STATE,
            max_q: 3,
            max_rate_scale: 2,
        };
        let g = gen::pipeline(&cfg, seed);
        let ra = RateAnalysis::analyze_single_io(&g).unwrap();
        let p = pipeline::greedy_theorem5(&g, &ra, 48).unwrap().partition;
        (g, p)
    } else {
        let cfg = LayeredCfg {
            layers: 4,
            max_width: 3,
            density: 0.3,
            state: STATE,
            max_q: 3,
        };
        let g = gen::layered(&cfg, seed);
        let p = dag_greedy::greedy_topo(&g, 96);
        (g, p)
    }
}

/// The reference interpreter's sink digest for `rounds` rounds.
fn reference_digest(g: &StreamGraph, ra: &RateAnalysis, p: &Partition, m: u64, rounds: u64) -> u64 {
    let reference = partitioned::inhomogeneous(g, ra, p, m, rounds).unwrap();
    let digest = serial::execute(&mut Instance::synthetic(g.clone()), &reference).digest;
    digest.expect("synthetic sinks digest")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn reps_times_period_is_the_batch_and_digests_hold(
        seed in 0u64..1000,
        rated_pipeline in 0u8..2,
    ) {
        let (m, rounds) = (48u64, 2u64);
        let (g, p) = graph_and_partition(rated_pipeline == 1, seed);
        let ra = RateAnalysis::analyze_single_io(&g).unwrap();
        let plan = ExecPlan::build(&g, &ra, &p, m).unwrap();

        for (seg, fp) in plan.segments.iter().zip(&plan.fused) {
            // One entry per member, and the runs add up to the block.
            prop_assert_eq!((fp.reps, fp.firings.len()), (seg.reps, seg.nodes.len()));
            let block_firings: usize = fp.firings.iter().map(|f| f.count).sum();
            prop_assert_eq!(block_firings, seg.firings.len());
            let batch: Vec<NodeId> = (0..seg.reps).flat_map(|_| seg.firings.iter().copied()).collect();
            prop_assert_eq!(batch.len() as u64, seg.batch_firings());
            for &v in &seg.nodes {
                let fired = batch.iter().filter(|&&w| w == v).count() as u64;
                prop_assert_eq!(fired, plan.quota[v.idx()]);
            }
            // Spelled out, the batch is itself a legal one-repetition plan.
            let whole = compile_firing_plan(&g, &plan.quota, &seg.nodes, &batch);
            let whole = whole.map(|w| (w.reps, w.firings.iter().map(|f| f.count).sum()));
            prop_assert_eq!(whole, Some((1, batch.len())));
        }

        let want = Some(reference_digest(&g, &ra, &p, m, rounds));
        for (label, digest, _) in executor_runs(&|| Instance::synthetic(g.clone()), &ra, &p, m, rounds) {
            prop_assert_eq!(digest, want, "{}", label);
        }
    }
}

/// Batches whose gcd 16 does not divide — `T` prime or odd — run in
/// blocks of one period, or of a small or odd number of them, and leave
/// every digest where the reference interpreter puts it.
#[test]
fn blocks_that_do_not_fill_a_line_keep_the_digests() {
    let mut blocks = std::collections::BTreeSet::new();
    for m in [37u64, 45, 53] {
        for (seed, rated_pipeline) in (0..4u64).flat_map(|s| [(s, false), (s, true)]) {
            let (g, p) = graph_and_partition(rated_pipeline, seed);
            let ra = RateAnalysis::analyze_single_io(&g).unwrap();
            let plan = ExecPlan::build(&g, &ra, &p, m).unwrap();
            for seg in &plan.segments {
                let gcd = seg
                    .nodes
                    .iter()
                    .fold(0, |d, v| ccs_graph::ratio::gcd_u64(d, plan.quota[v.idx()]));
                blocks.insert(gcd / seg.reps);
            }
            let want = Some(reference_digest(&g, &ra, &p, m, 2));
            for (label, digest, _) in
                executor_runs(&|| Instance::synthetic(g.clone()), &ra, &p, m, 2)
            {
                assert_eq!(digest, want, "m {m} seed {seed} {label}");
            }
        }
    }
    // Prime `T` gives blocks of 1 and 2, odd `T` blocks of 9 and 15;
    // none of these batches has a full block.
    assert!(blocks.contains(&1) && blocks.contains(&9) && blocks.contains(&15));
    assert!(!blocks.contains(&BLOCK), "{blocks:?}");
}

/// `RunStats::firings` stays `rounds × firings_per_round` on every
/// executor though a plan's `firings` holds one block, not the batch.
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

/// Plan size on the benchmark's frozen `wide-dag` shape: one entry per
/// node whatever `T` is, and an arena of one block of the internal
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

    let entries: usize = plan.fused.iter().map(|f| f.firings.len()).sum();
    assert_eq!((entries, g.node_count()), (625, 625));
    // Unit rates and T = 4096: every segment's block is the full 16.
    for (seg, fp) in plan.segments.iter().zip(&plan.fused) {
        assert_eq!(seg.reps * BLOCK, m);
        assert!(fp.firings.iter().all(|f| f.count as u64 == BLOCK));
    }

    // Internal edges get one block of arena — 16 times one period's
    // 1 304 words — cross edges a ring of two batches and no arena at
    // either end.
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
    assert_eq!((arena_words, internal_words), (20_864, 16 * 1_304));
    assert_eq!(cross_words, 22_568_960);
    assert_eq!(plan.capacities.iter().sum::<u64>(), cross_words);
}
