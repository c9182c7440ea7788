//! The one-thread executor's old entry point, kept as an adapter: a
//! one-worker [`execute_dag_cfg`] run, whose worker 0 is the calling
//! thread, observed as [`ObsConfig`] asks.

use crate::plan::DagExecError;
use crate::run::{execute_dag_cfg, RunConfig};
use crate::stats::WorkerStats;
use ccs_graph::RateAnalysis;
use ccs_partition::Partition;
use ccs_runtime::instance::Instance;
use ccs_runtime::serial::{ObsConfig, RunStats};

/// Execute `rounds` granularity-`T` rounds of the partitioned schedule
/// on the calling thread: [`execute_dag_cfg`] at one worker, with
/// counters, warmup, windows and tracing as `cfg` asks. Returns the run
/// and its one worker's stats.
pub fn execute_serial_fused(
    inst: Instance,
    ra: &RateAnalysis,
    p: &Partition,
    m_items: u64,
    rounds: u64,
    cfg: &ObsConfig,
) -> Result<(RunStats, WorkerStats), DagExecError> {
    let run = RunConfig::new(1)
        .with_counters(cfg.counters)
        .with_warmup(cfg.warmup)
        .with_windows(cfg.windows)
        .with_trace(cfg.trace)
        .with_trace_capacity(cfg.trace_capacity);
    let mut stats = execute_dag_cfg(inst, ra, p, m_items, rounds, &run)?;
    let worker = stats.workers.pop().expect("one worker");
    Ok((stats.run, worker))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::ExecPlan;
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
    fn observability_does_not_perturb_and_observes_batches() {
        let g = gen::pipeline_uniform(8, 32);
        let ra = RateAnalysis::analyze_single_io(&g).unwrap();
        let p = dag_greedy::greedy_topo(&g, 64);
        let rounds = 4u64;
        let want = reference(&g, &ra, &p, 16, rounds);
        let plan = ExecPlan::build(&g, &ra, &p, 16).unwrap();
        let segments = plan.segments.len() as u64;
        let batches = rounds * segments;
        for every in [1u64, 3, batches + 1] {
            let obs_cfg = ObsConfig {
                counters: true,
                warmup: 0,
                windows: every,
                trace: true,
                trace_capacity: 0,
            };
            let inst = Instance::synthetic(g.clone());
            let (got, obs) = execute_serial_fused(inst, &ra, &p, 16, rounds, &obs_cfg).unwrap();
            assert_eq!(got.digest, want.digest);
            assert_eq!(got.firings, want.firings);
            assert_eq!(got.sink_items, want.sink_items);
            // A window closes every `every` batches, the last one flushed.
            assert_eq!(
                obs.windows.len() as u64,
                batches.div_ceil(every),
                "every {every}"
            );
            // One span per batch, the segments in plan order each round,
            // each followed by the occupancy of exactly the rings its
            // segment reads and writes.
            let mut spans: Vec<(usize, Vec<usize>)> = Vec::new();
            for e in obs.trace.expect("tracing was on").events {
                match e.kind {
                    ccs_obs::EventKind::Batch { seg } => spans.push((seg, Vec::new())),
                    ccs_obs::EventKind::RingOccupancy { ring, .. } => {
                        spans.last_mut().expect("after a span").1.push(ring)
                    }
                    _ => {}
                }
            }
            let order: Vec<usize> = (0..rounds).flat_map(|_| 0..segments as usize).collect();
            assert_eq!(spans.iter().map(|s| s.0).collect::<Vec<_>>(), order);
            for (seg, rings) in &spans {
                let s = &plan.segments[*seg];
                let io = s.in_batch.iter().chain(&s.out_batch);
                assert_eq!(*rings, io.map(|&(e, _)| e.idx()).collect::<Vec<_>>());
            }
            assert!(spans.iter().any(|s| !s.1.is_empty()), "no cross ring");
        }
        // A warmup of more rounds than the run has is clamped below it:
        // every segment runs all its batches and, with a group open,
        // counts only the last.
        let obs_cfg = ObsConfig {
            counters: true,
            warmup: 99,
            ..ObsConfig::default()
        };
        let inst = Instance::synthetic(g.clone());
        let (_, obs) = execute_serial_fused(inst, &ra, &p, 16, rounds, &obs_cfg).unwrap();
        let counted = if obs.counters.is_some() { 1 } else { 0 };
        assert_eq!(obs.segment_counters.len() as u64, segments);
        for s in &obs.segment_counters {
            assert_eq!((s.batches, s.batches_counted), (rounds, counted));
        }
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
