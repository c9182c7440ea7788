//! The serial fused executor: the fused-firing hot path on one thread.
//!
//! Runs the same two-level schedule as the classic serial executor —
//! segments in contracted topological order, one granularity-`T` batch
//! each per round — but each batch goes through the segment's
//! precompiled [`ccs_partition::FiringPlan`]: cross inputs bulk-copied
//! into a flat arena, the plan's period repeated against precomputed
//! arena spans (the parallel fused path's loop, software prefetch
//! included), cross outputs bulk-copied out. Internal edges never touch
//! a ring, so the per-firing ring bookkeeping of `ccs_runtime::serial`
//! disappears from the hot loop.
//!
//! Observability mirrors [`ccs_runtime::serial::execute_obs`]'s
//! [`ObsConfig`] semantics at batch granularity: the warmup reset and
//! `SerialBlock` spans land on the first batch boundary at or past the
//! configured firing counts (exact for the round-aligned windows the
//! sweep engine uses), and counter windows tick once per firing so
//! window indices line up with the classic serial run.

use crate::plan::{DagExecError, ExecPlan};
use crate::run::fire_arena_plan;
use ccs_graph::RateAnalysis;
use ccs_obs::{Clock, EventKind, Tracer, WindowSampler};
use ccs_partition::Partition;
use ccs_runtime::instance::Instance;
use ccs_runtime::ring::Ring;
use ccs_runtime::serial::{ObsConfig, RunStats, SerialObs};
use std::time::Instant;

/// Execute `rounds` granularity-`T` rounds of the partitioned schedule
/// on the calling thread through the fused hot path. Fires node `v`
/// exactly `rounds·T·gain(v)` times — the classic two-level serial
/// schedule's firings, interleaved period by period within a batch — so
/// the sink digest is bit-identical to `ccs_runtime::serial::execute` on
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

    // Cross rings at plan capacity; internal edges live in the arenas
    // and keep one-slot placeholders for uniform indexing.
    let mut rings: Vec<Ring> = g
        .edge_ids()
        .map(|e| {
            let edge = g.edge(e);
            let internal = plan.seg_of_node[edge.src.idx()] == plan.seg_of_node[edge.dst.idx()];
            let cap = if internal {
                1
            } else {
                usize::try_from(plan.capacities[e.idx()].max(1)).expect("ring fits")
            };
            Ring::new(cap)
        })
        .collect();
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
    // A warmup that would leave no measured window is ignored, exactly
    // as in the classic serial executor.
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
                // Same flush/reset/rebaseline protocol as the classic
                // executors: never reset under an open window baseline.
                wins.flush(clock.now_ns(), || counter_set.sample());
                counter_set.reset();
                if wins.enabled() {
                    wins.rebaseline(clock.now_ns(), counter_set.sample());
                }
                tracer.record(clock.now_ns(), 0, EventKind::WarmupReset);
                warmed = true;
            }
            let fp = &plan.fused[si];
            let arena = &mut arenas[si];
            for io in &fp.loads {
                let r = &mut rings[io.edge.idx()];
                let (a, b) = r.peek(io.items);
                arena[io.offset..io.offset + a.len()].copy_from_slice(a);
                arena[io.offset + a.len()..io.offset + io.items].copy_from_slice(b);
                r.release(io.items);
            }
            fire_arena_plan(fp, arena, |local, ins, outs| {
                inst.kernels[kidx[si][local]].fire(ins, outs);
            });
            for io in &fp.stores {
                let r = &mut rings[io.edge.idx()];
                let (a, b) = r.reserve(io.items);
                let n = a.len();
                a.copy_from_slice(&arena[io.offset..io.offset + n]);
                b.copy_from_slice(&arena[io.offset + n..io.offset + io.items]);
                r.commit(io.items);
            }
            let batch_firings = plan.segments[si].batch_firings();
            fired += batch_firings;
            if wins.enabled() {
                // One tick per firing keeps window indices (and the
                // partial-final window) aligned with the classic run.
                for _ in 0..batch_firings {
                    if let Some(index) = wins.on_batch(clock.now_ns(), || counter_set.sample()) {
                        tracer.record(clock.now_ns(), 0, EventKind::Window { index });
                    }
                }
            }
            if cfg.trace && cfg.block_firings > 0 {
                while fired >= (block_index + 1) * cfg.block_firings {
                    let now = clock.now_ns();
                    tracer.record(
                        block_start_ns,
                        now - block_start_ns,
                        EventKind::SerialBlock { index: block_index },
                    );
                    block_index += 1;
                    block_start_ns = now;
                }
            }
        }
    }
    let wall = start.elapsed();
    if cfg.trace && cfg.block_firings > 0 && !fired.is_multiple_of(cfg.block_firings) {
        let now = clock.now_ns();
        tracer.record(
            block_start_ns,
            now - block_start_ns,
            EventKind::SerialBlock { index: block_index },
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
    };
    let obs = SerialObs {
        sample: counter_set.sample(),
        windows,
        trace: tracer.finish(),
    };
    Ok((stats, obs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccs_graph::gen::{self, LayeredCfg, PipelineCfg, StateDist};
    use ccs_partition::dag_greedy;
    use ccs_sched::partitioned;

    fn classic(
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
    fn fused_serial_matches_classic_serial() {
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
            let want = classic(&g, &ra, &p, 48, 3);
            let inst = Instance::synthetic(g.clone());
            let (got, _) =
                execute_serial_fused(inst, &ra, &p, 48, 3, &ObsConfig::default()).unwrap();
            assert_eq!(got.digest, want.digest, "seed {seed}");
            assert_eq!(got.firings, want.firings, "seed {seed}");
            assert_eq!(got.sink_items, want.sink_items, "seed {seed}");
        }
    }

    #[test]
    fn fused_serial_matches_on_rated_pipelines() {
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
            let want = classic(&g, &ra, &pp.partition, 48, 2);
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
        let want = classic(&g, &ra, &p, 16, rounds);
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
