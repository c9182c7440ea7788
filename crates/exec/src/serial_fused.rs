//! The serial executor: the hot path on one thread.
//!
//! Runs the paper's two-level schedule — segments in contracted
//! topological order, one granularity-`T` batch each per round — with
//! one `WorkerStep` over every segment, the threaded executor's own
//! batch step: each batch goes through the segment's precompiled
//! [`ccs_partition::FiringPlan`] — a window of ring storage per cross
//! edge, the plan's block repeated, one `fire_n` call per member,
//! against precomputed spans of those windows and of a flat arena, no
//! copies. Segments take turns a whole batch each, so a batch is one
//! granule: its inputs are all in place when it starts, and a step that
//! finds one short is a bug, not a wait. Internal edges never touch a
//! ring. Cross rings hold one batch each and share one slab by lifetime
//! ([`Lifetimes::BySchedule`]): the schedule below is static, so a ring
//! is live only from its producer segment's turn to its consumer's.
//!
//! Observability follows [`ObsConfig`] at batch granularity, through the
//! threaded executor's own counter and window sequence (`Meter`): the
//! warmup reset and `SerialBlock` spans land on the first batch boundary
//! at or past the configured firing counts (exact for the round-aligned
//! windows the sweep engine uses), each block span is followed by the
//! occupancy of every cross ring at that instant, and counter windows
//! tick once per firing.

use crate::plan::{CrossRings, DagExecError, ExecPlan, Lifetimes};
use crate::step::{record_occupancy, seg_tasks, sink_digest, tracer, Meter, WorkerStep};
use ccs_graph::RateAnalysis;
use ccs_obs::{Clock, EventKind, Tracer};
use ccs_partition::Partition;
use ccs_runtime::instance::Instance;
use ccs_runtime::serial::{ObsConfig, RunStats, SerialObs};
use std::time::Instant;

/// Execute `rounds` granularity-`T` rounds of the partitioned schedule
/// on the calling thread. Fires node `v` exactly `rounds·T·gain(v)`
/// times — the reference interpreter's firings, in block order within
/// a batch — so the sink digest is bit-identical to
/// `ccs_runtime::serial::execute` on
/// `ccs_sched::partitioned::inhomogeneous` and to
/// [`crate::run::execute_dag_cfg`] at any worker count.
pub fn execute_serial_fused(
    inst: Instance,
    ra: &RateAnalysis,
    p: &Partition,
    m_items: u64,
    rounds: u64,
    cfg: &ObsConfig,
) -> Result<(RunStats, SerialObs), DagExecError> {
    let Instance { graph: g, kernels } = inst;
    let plan = ExecPlan::build(&g, ra, p, m_items)?;

    // One ring per cross edge; internal edges live in the arenas. The
    // threaded executor's ring type, driven from both ends by this one
    // thread. The loop below runs the segments in plan order, a whole
    // batch each — the one schedule `Lifetimes::BySchedule` is laid out
    // for: a ring holds one batch (its producer fills it, its consumer
    // drains it, the window is always `[0, batch)`) on storage that
    // rings dead at that point of the round used before it.
    let rings = CrossRings::build(&plan, Lifetimes::BySchedule)?;
    let mut step = WorkerStep::new(&g, &plan, &rings, seg_tasks(&plan, &rings, kernels, |_| 1));

    let total_firings = rounds * plan.firings_per_round();
    // A warmup that would leave no measured window is ignored.
    let warmup = if cfg.warmup_firings < total_firings {
        cfg.warmup_firings
    } else {
        0
    };
    let clock = Clock::start();
    let mut tracer = tracer(cfg.trace, cfg.trace_capacity);
    let mut meter = Meter::open(cfg.counters, cfg.window_firings, clock);

    let mut fired = 0u64;
    let mut warmed = warmup == 0;
    let mut block_index = 0u64;
    let mut block_start_ns = clock.now_ns();
    let start = Instant::now();
    for _ in 0..rounds {
        for si in 0..plan.segments.len() {
            if !warmed && fired >= warmup {
                meter.warmup_reset(&mut tracer);
                warmed = true;
            }
            step.begin(si);
            if let Err(b) = step.fire_granule() {
                panic!("edge {}: a whole batch is short of its input", b.edge);
            }
            step.finish(1);
            let batch_firings = plan.segments[si].batch_firings();
            fired += batch_firings;
            // One tick per firing, so `window_firings` means what it
            // says wherever the batch boundaries fall.
            meter.tick(batch_firings, &mut tracer);
            if cfg.trace && cfg.block_firings > 0 {
                while fired >= (block_index + 1) * cfg.block_firings {
                    let now = clock.now_ns();
                    close_block(&mut tracer, &plan, &rings, block_start_ns, now, block_index);
                    block_index += 1;
                    block_start_ns = now;
                }
            }
        }
    }
    let wall = start.elapsed();
    if cfg.trace && cfg.block_firings > 0 && !fired.is_multiple_of(cfg.block_firings) {
        close_block(
            &mut tracer,
            &plan,
            &rings,
            block_start_ns,
            clock.now_ns(),
            block_index,
        );
    }
    let (windows, sample) = meter.finish();
    let stats = RunStats {
        wall,
        firings: fired,
        sink_items: plan.sink_items(&g, rounds),
        digest: sink_digest(&g, &plan, step.tasks()),
        boundary_words: rings.words(),
    };
    let obs = SerialObs {
        sample,
        windows,
        trace: tracer.finish(),
    };
    Ok((stats, obs))
}

/// Record block `index` as a span over `start_ns..now_ns`, then the
/// occupancy of every cross ring at its closing instant. Between rounds
/// the serial schedule has drained every ring, so nonzero occupancy
/// marks a block boundary that fell inside a round.
fn close_block(
    tracer: &mut Tracer,
    plan: &ExecPlan,
    rings: &CrossRings,
    start_ns: u64,
    now_ns: u64,
    index: u64,
) {
    tracer.record(
        start_ns,
        now_ns - start_ns,
        EventKind::SerialBlock { index },
    );
    let edges = plan.segments.iter().flat_map(|s| &s.out_batch);
    record_occupancy(tracer, rings, now_ns, edges.map(|&(e, _)| e));
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccs_graph::gen::{self, LayeredCfg, PipelineCfg, StateDist};
    use ccs_partition::dag_greedy;
    use ccs_sched::partitioned;

    fn reference(
        g: &ccs_graph::StreamGraph,
        ra: &RateAnalysis,
        p: &Partition,
        m: u64,
        rounds: u64,
    ) -> RunStats {
        let run = partitioned::inhomogeneous(g, ra, p, m, rounds).unwrap();
        let mut inst = Instance::synthetic(g.clone());
        ccs_runtime::serial::execute(&mut inst, &run)
    }

    #[test]
    fn matches_reference_on_layered_dags() {
        let cfg = LayeredCfg {
            layers: 4,
            max_width: 3,
            density: 0.3,
            state: StateDist::Uniform(8, 48),
            max_q: 3,
        };
        for seed in 0..5u64 {
            let g = gen::layered(&cfg, seed);
            let ra = RateAnalysis::analyze_single_io(&g).unwrap();
            let p = dag_greedy::greedy_topo(&g, 96);
            let want = reference(&g, &ra, &p, 48, 3);
            let inst = Instance::synthetic(g.clone());
            let (got, _) =
                execute_serial_fused(inst, &ra, &p, 48, 3, &ObsConfig::default()).unwrap();
            assert_eq!(got.digest, want.digest, "seed {seed}");
            assert_eq!(got.firings, want.firings, "seed {seed}");
            assert_eq!(got.sink_items, want.sink_items, "seed {seed}");
        }
    }

    #[test]
    fn matches_reference_on_rated_pipelines() {
        for seed in 0..4u64 {
            let cfg = PipelineCfg {
                len: 10,
                state: StateDist::Uniform(8, 48),
                max_q: 3,
                max_rate_scale: 2,
            };
            let g = gen::pipeline(&cfg, seed);
            let ra = RateAnalysis::analyze_single_io(&g).unwrap();
            let pp = ccs_partition::pipeline::greedy_theorem5(&g, &ra, 48).unwrap();
            let want = reference(&g, &ra, &pp.partition, 48, 2);
            let inst = Instance::synthetic(g.clone());
            let (got, _) =
                execute_serial_fused(inst, &ra, &pp.partition, 48, 2, &ObsConfig::default())
                    .unwrap();
            assert_eq!(got.digest, want.digest, "seed {seed}");
        }
    }

    #[test]
    fn observability_does_not_perturb_and_aligns_windows() {
        let g = gen::pipeline_uniform(8, 32);
        let ra = RateAnalysis::analyze_single_io(&g).unwrap();
        let p = dag_greedy::greedy_topo(&g, 64);
        let rounds = 4u64;
        let want = reference(&g, &ra, &p, 16, rounds);
        let fpr = {
            let plan = ExecPlan::build(&g, &ra, &p, 16).unwrap();
            plan.firings_per_round()
        };
        let obs_cfg = ObsConfig {
            counters: true,
            warmup_firings: fpr,
            window_firings: fpr,
            block_firings: fpr,
            trace: true,
            trace_capacity: 0,
        };
        let inst = Instance::synthetic(g.clone());
        let (got, obs) = execute_serial_fused(inst, &ra, &p, 16, rounds, &obs_cfg).unwrap();
        assert_eq!(got.digest, want.digest);
        assert_eq!(got.firings, want.firings);
        assert_eq!(got.sink_items, want.sink_items);
        // One window and one block span per round, warmup reset traced.
        assert_eq!(obs.windows.len() as u64, rounds);
        let tl = obs.trace.expect("tracing was on");
        let blocks = tl
            .events
            .iter()
            .filter(|e| matches!(e.kind, ccs_obs::EventKind::SerialBlock { .. }))
            .count() as u64;
        assert_eq!(blocks, rounds);
        assert!(tl
            .events
            .iter()
            .any(|e| matches!(e.kind, ccs_obs::EventKind::WarmupReset)));
    }

    #[test]
    fn zero_rounds_is_a_noop() {
        let g = gen::pipeline_uniform(4, 8);
        let ra = RateAnalysis::analyze_single_io(&g).unwrap();
        let p = dag_greedy::greedy_topo(&g, 16);
        let inst = Instance::synthetic(g.clone());
        let (stats, _) = execute_serial_fused(inst, &ra, &p, 8, 0, &ObsConfig::default()).unwrap();
        assert_eq!(stats.firings, 0);
        assert_eq!(stats.sink_items, 0);
    }
}
