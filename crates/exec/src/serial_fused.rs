//! The serial executor: the hot path on one thread.
//!
//! Runs the paper's two-level schedule — segments in contracted
//! topological order, one granularity-`T` batch each per round — with
//! each batch going through the segment's precompiled
//! [`ccs_partition::FiringPlan`] by the threaded executor's own batch
//! step (`run::fire_arena_plan`): a window of ring storage per cross
//! edge, the plan's block repeated, one `fire_n` call per member,
//! against precomputed spans of those windows and of a flat arena, no
//! copies. Segments take turns a whole batch each, so a batch is one
//! granule (`run::WholeBatch`): its inputs are all in place when it
//! starts and it never waits. Internal edges never touch a ring. Cross
//! rings hold one batch each and share one slab by lifetime
//! ([`Lifetimes::BySchedule`]): the schedule below is static, so a ring
//! is live only from its producer segment's turn to its consumer's.
//!
//! Observability follows [`ObsConfig`] at batch granularity: the warmup
//! reset and `SerialBlock` spans land on the first batch boundary at or
//! past the configured firing counts (exact for the round-aligned
//! windows the sweep engine uses), each block span is followed by the
//! occupancy of every cross ring at that instant, and counter windows
//! tick once per firing.

use crate::plan::{CrossRings, DagExecError, ExecPlan, Lifetimes};
use crate::run::{fire_arena_plan, WholeBatch};
use ccs_graph::RateAnalysis;
use ccs_obs::{Clock, EventKind, Tracer, WindowSampler};
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
    mut inst: Instance,
    ra: &RateAnalysis,
    p: &Partition,
    m_items: u64,
    rounds: u64,
    cfg: &ObsConfig,
) -> Result<(RunStats, SerialObs), DagExecError> {
    let plan = ExecPlan::build(&inst.graph, ra, p, m_items)?;
    let g = &inst.graph;

    // One ring per cross edge; internal edges live in the arenas. The
    // threaded executor's ring type, driven from both ends by this one
    // thread, so the two executors share the whole batch step. The
    // loop below runs the segments in plan order, a whole batch each —
    // the one schedule `Lifetimes::BySchedule` is laid out for: a ring
    // holds one batch (its producer fills it, its consumer drains it,
    // the window is always `[0, batch)`) on storage that rings dead at
    // that point of the round used before it.
    let rings = CrossRings::build(&plan, Lifetimes::BySchedule)?;
    let mut arenas: Vec<Vec<f32>> = plan
        .fused
        .iter()
        .map(|f| vec![0.0f32; f.arena_len])
        .collect();
    // Kernel index per segment-local node, so firings dispatch straight
    // into the instance's kernel table.
    let kidx: Vec<Vec<usize>> = plan
        .segments
        .iter()
        .map(|s| s.nodes.iter().map(|v| v.idx()).collect())
        .collect();

    let counter_set = if cfg.counters {
        ccs_perf::CounterBuilder::cache_suite().open_self_thread()
    } else {
        ccs_perf::CounterSet::unavailable("counters not requested")
    };
    let total_firings = rounds * plan.firings_per_round();
    // A warmup that would leave no measured window is ignored.
    let warmup = if cfg.warmup_firings < total_firings {
        cfg.warmup_firings
    } else {
        0
    };
    let clock = Clock::start();
    let mut tracer = if cfg.trace {
        Tracer::on(cfg.trace_capacity)
    } else {
        Tracer::off()
    };
    let mut wins = WindowSampler::new(cfg.window_firings);
    counter_set.reset();
    counter_set.enable();
    if wins.enabled() {
        wins.start(clock.now_ns(), counter_set.sample());
    }

    let mut fired = 0u64;
    let mut warmed = warmup == 0;
    let mut block_index = 0u64;
    let mut block_start_ns = clock.now_ns();
    let start = Instant::now();
    for _ in 0..rounds {
        for si in 0..plan.segments.len() {
            if !warmed && fired >= warmup {
                // Same flush/reset/rebaseline protocol as the threaded
                // executor: never reset under an open window baseline.
                wins.flush(clock.now_ns(), || counter_set.sample());
                counter_set.reset();
                if wins.enabled() {
                    wins.rebaseline(clock.now_ns(), counter_set.sample());
                }
                tracer.record(clock.now_ns(), 0, EventKind::WarmupReset);
                warmed = true;
            }
            let Ok(()) = fire_arena_plan(
                &plan.fused[si],
                &rings,
                &mut arenas[si],
                &mut WholeBatch,
                |local, count, ins, outs| {
                    inst.kernels[kidx[si][local]].fire_n(count, ins, outs);
                },
            );
            let batch_firings = plan.segments[si].batch_firings();
            fired += batch_firings;
            if wins.enabled() {
                // One tick per firing, so `window_firings` means what
                // it says wherever the batch boundaries fall.
                for _ in 0..batch_firings {
                    if let Some(index) = wins.on_batch(clock.now_ns(), || counter_set.sample()) {
                        tracer.record(clock.now_ns(), 0, EventKind::Window { index });
                    }
                }
            }
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
    let windows = wins.finish(clock.now_ns(), || counter_set.sample());
    counter_set.disable();

    let sink_items = match g.single_sink() {
        Some(s) => {
            let consume: u64 = g.in_edges(s).iter().map(|&e| g.edge(e).consume).sum();
            rounds * plan.quota[s.idx()] * consume
        }
        None => 0,
    };
    let stats = RunStats {
        wall,
        firings: fired,
        sink_items,
        digest: inst.sink_digest(),
        boundary_words: rings.words(),
    };
    let obs = SerialObs {
        sample: counter_set.sample(),
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
    for &(e, _) in plan.segments.iter().flat_map(|s| &s.out_batch) {
        let r = rings.get(e);
        tracer.record(
            now_ns,
            0,
            EventKind::RingOccupancy {
                ring: e.idx(),
                len: r.len() as u64,
                cap: r.capacity() as u64,
            },
        );
    }
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
