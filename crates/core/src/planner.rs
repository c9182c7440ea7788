//! The high-level planner: graph + cache → partition + schedule.

use ccs_cachesim::CacheParams;
use ccs_exec::{execute_dag_cfg, DagExecError, DagRunStats, RunConfig};
use ccs_graph::{RateAnalysis, RateError, Ratio, StreamGraph};
use ccs_partition::{dag_exact, dag_greedy, dag_local, pipeline, Partition};
use ccs_runtime::Instance;
use ccs_sched::{partitioned, EvalReport, ExecError, ExecOptions, Executor, SchedRun};
use std::fmt;

/// How far to run a plan.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Horizon {
    /// High-level rounds (each round moves one granularity `T` of input
    /// through the whole graph).
    Rounds(u64),
    /// Fire the sink at least this many times.
    SinkFirings(u64),
}

/// Partitioning strategy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Strategy {
    /// The paper's Theorem 5 greedy 2M-segmentation (pipelines only).
    PipelineGreedy2M,
    /// Minimum-bandwidth segmentation by dynamic programming (pipelines
    /// only).
    PipelineDp,
    /// Greedy topological segmentation plus local-search refinement.
    DagGreedyRefined,
    /// Exact exponential partitioner (the solver takes up to
    /// [`dag_exact::MAX_EXACT_NODES`] = 20 nodes).
    DagExact,
    /// Pick from the graph's shape: pipelines use Greedy2M; dags of at
    /// most 16 nodes use the exact solver; everything else uses greedy +
    /// refinement.
    Auto,
}

/// Errors from planning or evaluation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PlanError {
    Rates(RateError),
    Pipeline(pipeline::PipelineError),
    Sched(partitioned::PartSchedError),
    Exec(ExecError),
    /// The parallel dag executor rejected the plan.
    Parallel(DagExecError),
    /// Strategy requires a pipeline but the graph is not one.
    NotAPipeline,
    /// No bounded partition exists (a module exceeds the bound).
    Infeasible {
        bound: u64,
        max_state: u64,
    },
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::Rates(e) => write!(f, "rate analysis failed: {e}"),
            PlanError::Pipeline(e) => write!(f, "pipeline partitioning failed: {e}"),
            PlanError::Sched(e) => write!(f, "scheduling failed: {e}"),
            PlanError::Exec(e) => write!(f, "execution failed: {e}"),
            PlanError::Parallel(e) => {
                write!(f, "parallel execution failed: {e}")
            }
            PlanError::NotAPipeline => write!(f, "strategy requires a pipeline"),
            PlanError::Infeasible { bound, max_state } => write!(
                f,
                "no partition: max module state {max_state} exceeds bound {bound}"
            ),
        }
    }
}

impl std::error::Error for PlanError {}

impl From<RateError> for PlanError {
    fn from(e: RateError) -> Self {
        PlanError::Rates(e)
    }
}
impl From<pipeline::PipelineError> for PlanError {
    fn from(e: pipeline::PipelineError) -> Self {
        PlanError::Pipeline(e)
    }
}
impl From<partitioned::PartSchedError> for PlanError {
    fn from(e: partitioned::PartSchedError) -> Self {
        PlanError::Sched(e)
    }
}
impl From<ExecError> for PlanError {
    fn from(e: ExecError) -> Self {
        PlanError::Exec(e)
    }
}
impl From<DagExecError> for PlanError {
    fn from(e: DagExecError) -> Self {
        PlanError::Parallel(e)
    }
}

/// Outcome of [`Planner::plan_and_run_parallel`]: the chosen partition
/// plus the real multicore execution's statistics.
#[derive(Debug)]
pub struct ParallelRun {
    pub partition: Partition,
    /// Exact bandwidth of the partition (items crossing per source firing).
    pub bandwidth: Ratio,
    /// Which partitioner produced it.
    pub strategy_used: &'static str,
    /// Aggregate and per-worker execution statistics.
    pub stats: DagRunStats,
}

/// A complete cache-conscious execution plan.
#[derive(Clone, Debug)]
pub struct Plan {
    pub partition: Partition,
    /// Exact bandwidth of the partition (items crossing per source firing).
    pub bandwidth: Ratio,
    /// Which partitioner produced it.
    pub strategy_used: &'static str,
    /// The concrete schedule (firing sequence + buffer capacities).
    pub run: SchedRun,
    /// Predicted upper bound on misses per input in the DAM model:
    /// `bandwidth / B` plus the amortized state term (reported for
    /// experiment tables; the measured value comes from `evaluate`).
    pub predicted_misses_per_input: f64,
}

/// Planner configuration: the cache and the strategy. The partition
/// parameters follow from the cache by the paper's constants: the
/// Theorem 5 partition parameter is `M/8` (its components can reach `8m`,
/// so they then fit the actual cache), and bounded partitions for general
/// dags target `M/2`, leaving headroom for streaming blocks.
#[derive(Clone, Copy, Debug)]
pub struct Planner {
    pub params: CacheParams,
    pub strategy: Strategy,
}

impl Planner {
    pub fn new(params: CacheParams) -> Planner {
        Planner {
            params,
            strategy: Strategy::Auto,
        }
    }

    pub fn with_strategy(mut self, strategy: Strategy) -> Planner {
        self.strategy = strategy;
        self
    }

    /// Partition parameter for the Theorem 5 greedy: `M/8`.
    fn t5_m(&self) -> u64 {
        (self.params.capacity / 8).max(1)
    }

    /// State bound for the DP and dag partitioners: `M/2`.
    fn dag_bound(&self) -> u64 {
        (self.params.capacity / 2).max(1)
    }

    /// Partition `g` according to the configured strategy.
    pub fn partition(
        &self,
        g: &StreamGraph,
        ra: &RateAnalysis,
    ) -> Result<(Partition, Ratio, &'static str), PlanError> {
        let strategy = match self.strategy {
            Strategy::Auto => {
                if g.is_pipeline() {
                    Strategy::PipelineGreedy2M
                } else if g.node_count() <= 16 {
                    Strategy::DagExact
                } else {
                    Strategy::DagGreedyRefined
                }
            }
            s => s,
        };
        match strategy {
            Strategy::PipelineGreedy2M => {
                let pp = pipeline::greedy_theorem5(g, ra, self.t5_m())?;
                Ok((pp.partition, pp.bandwidth, "pipeline-greedy-2m"))
            }
            Strategy::PipelineDp => {
                let pp = pipeline::dp_min_bandwidth(g, ra, self.dag_bound())?;
                Ok((pp.partition, pp.bandwidth, "pipeline-dp"))
            }
            Strategy::DagGreedyRefined => {
                let bound = self.dag_bound();
                if g.max_state() > bound {
                    return Err(PlanError::Infeasible {
                        bound,
                        max_state: g.max_state(),
                    });
                }
                let p0 = dag_greedy::greedy_best(g, ra, bound);
                let p = dag_local::refine(g, ra, bound, &p0, 16);
                let bw = p.bandwidth(g, ra);
                Ok((p, bw, "dag-greedy-refined"))
            }
            Strategy::DagExact => {
                let bound = self.dag_bound();
                match dag_exact::min_bandwidth_exact(g, ra, bound) {
                    Some((p, bw)) => Ok((p, bw, "dag-exact")),
                    None => Err(PlanError::Infeasible {
                        bound,
                        max_state: g.max_state(),
                    }),
                }
            }
            Strategy::Auto => unreachable!("resolved above"),
        }
    }

    /// Produce a complete plan: partition plus schedule for `horizon`.
    pub fn plan(&self, g: &StreamGraph, horizon: Horizon) -> Result<Plan, PlanError> {
        let ra = RateAnalysis::analyze_single_io(g)?;
        let (partition, bandwidth, strategy_used) = self.partition(g, &ra)?;
        let m_items = self.params.capacity;

        // Schedule: dynamic for pipelines with a sink target, otherwise
        // the static round-based schedulers.
        let run = if g.is_pipeline() {
            match horizon {
                Horizon::SinkFirings(t) => {
                    partitioned::pipeline_dynamic(g, &ra, &partition, m_items, t)?
                }
                Horizon::Rounds(r) => {
                    if g.is_homogeneous() {
                        partitioned::homogeneous(g, &ra, &partition, m_items, r)?
                    } else {
                        partitioned::inhomogeneous(g, &ra, &partition, m_items, r)?
                    }
                }
            }
        } else {
            let rounds = match horizon {
                Horizon::Rounds(r) => r,
                Horizon::SinkFirings(t) => {
                    // Sink firings per round: T·gain(sink).
                    let sink = ra.sink.expect("single sink");
                    let tgran = partitioned::granularity_t(g, &ra, m_items)?;
                    let per_round = (Ratio::integer(tgran as i128) * ra.gain(sink))
                        .floor()
                        .max(1) as u64;
                    t.div_ceil(per_round)
                }
            };
            if g.is_homogeneous() {
                partitioned::homogeneous(g, &ra, &partition, m_items, rounds)?
            } else {
                partitioned::inhomogeneous(g, &ra, &partition, m_items, rounds)?
            }
        };

        // Predicted DAM cost per input: cross traffic (bandwidth/B) plus
        // the amortized state reload term Σ s(V_i) / (M·B) per input.
        let b = self.params.block as f64;
        let state_term = g.total_state() as f64 / (self.params.capacity as f64 * b);
        let predicted = bandwidth.to_f64() * 2.0 / b + state_term + 2.0 / b;
        Ok(Plan {
            partition,
            bandwidth,
            strategy_used,
            run,
            predicted_misses_per_input: predicted,
        })
    }

    /// Partition the bound instance's graph, then run it for real on
    /// segment-affine threads via the cache-aware dag executor
    /// (`ccs-exec`): `rounds` granularity-`T` batches per segment, with
    /// the configured partitioning strategy and the worker count,
    /// placement policy, and core pinning of `cfg`.
    ///
    /// Multi-source/multi-sink graphs (which the paper's schedulers
    /// reject) are accepted: the instance is automatically rebuilt over
    /// `add_super_endpoints` — a unit-state super-source/super-sink pair
    /// restores the single-I/O form while preserving rate matching and
    /// the original kernels.
    pub fn plan_and_run_parallel(
        &self,
        inst: Instance,
        rounds: u64,
        cfg: &RunConfig,
    ) -> Result<ParallelRun, PlanError> {
        let inst = if inst.graph.single_source().is_none() || inst.graph.single_sink().is_none() {
            // Surface unbalanced rates as a planning error instead of
            // letting the augmentation panic on them.
            RateAnalysis::analyze(&inst.graph)?;
            inst.with_super_endpoints()
        } else {
            inst
        };
        let ra = RateAnalysis::analyze_single_io(&inst.graph)?;
        let (partition, bandwidth, strategy_used) = self.partition(&inst.graph, &ra)?;
        let stats = execute_dag_cfg(inst, &ra, &partition, self.params.capacity, rounds, cfg)?;
        Ok(ParallelRun {
            partition,
            bandwidth,
            strategy_used,
            stats,
        })
    }

    /// Execute a plan in the DAM simulator and report cache statistics.
    pub fn evaluate(&self, g: &StreamGraph, plan: &Plan) -> Result<EvalReport, PlanError> {
        self.evaluate_with(g, &plan.run, ExecOptions::default())
    }

    /// Execute any schedule under this planner's cache parameters.
    pub fn evaluate_with(
        &self,
        g: &StreamGraph,
        run: &SchedRun,
        opts: ExecOptions,
    ) -> Result<EvalReport, PlanError> {
        let ra = RateAnalysis::analyze_single_io(g)?;
        let mut ex = Executor::new(g, &ra, run.capacities.clone(), self.params, opts);
        ex.run(&run.firings)?;
        Ok(ex.report())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccs_graph::gen::{self, LayeredCfg, PipelineCfg, StateDist};

    #[test]
    fn auto_plans_pipeline() {
        let g = gen::pipeline_uniform(24, 128);
        let planner = Planner::new(CacheParams::new(1024, 16));
        let plan = planner.plan(&g, Horizon::SinkFirings(500)).unwrap();
        assert_eq!(plan.strategy_used, "pipeline-greedy-2m");
        assert!(plan.partition.num_components() > 1);
        let rep = planner.evaluate(&g, &plan).unwrap();
        assert!(rep.outputs >= 500);
    }

    #[test]
    fn auto_plans_small_dag_exactly() {
        let g = gen::split_join(2, 2, StateDist::Fixed(32), 3);
        let planner = Planner::new(CacheParams::new(256, 16));
        let plan = planner.plan(&g, Horizon::Rounds(2)).unwrap();
        assert_eq!(plan.strategy_used, "dag-exact");
        let rep = planner.evaluate(&g, &plan).unwrap();
        assert!(rep.outputs > 0);
    }

    #[test]
    fn auto_plans_large_dag_heuristically() {
        let cfg = LayeredCfg {
            layers: 6,
            max_width: 5,
            density: 0.3,
            state: StateDist::Uniform(16, 64),
            max_q: 2,
        };
        let mut g = gen::layered(&cfg, 3);
        // Ensure it is big enough to bypass the exact solver.
        while g.node_count() <= 16 {
            g = gen::layered(&cfg, 17);
        }
        let planner = Planner::new(CacheParams::new(512, 16));
        let plan = planner.plan(&g, Horizon::Rounds(2)).unwrap();
        assert_eq!(plan.strategy_used, "dag-greedy-refined");
        planner.evaluate(&g, &plan).unwrap();
    }

    #[test]
    fn infeasible_when_module_exceeds_bound() {
        let g = gen::pipeline_uniform(4, 4096);
        let planner =
            Planner::new(CacheParams::new(256, 16)).with_strategy(Strategy::DagGreedyRefined);
        let err = planner.plan(&g, Horizon::Rounds(1)).unwrap_err();
        assert!(matches!(err, PlanError::Infeasible { .. }));
    }

    #[test]
    fn dp_strategy_on_pipeline() {
        let g = gen::pipeline(
            &PipelineCfg {
                len: 16,
                state: StateDist::Uniform(16, 100),
                max_q: 3,
                max_rate_scale: 2,
            },
            5,
        );
        let planner = Planner::new(CacheParams::new(512, 16)).with_strategy(Strategy::PipelineDp);
        let plan = planner.plan(&g, Horizon::Rounds(2)).unwrap();
        assert_eq!(plan.strategy_used, "pipeline-dp");
        assert!(plan.partition.max_component_state(&g) <= 256);
        planner.evaluate(&g, &plan).unwrap();
    }

    /// The default placement — measured, which replaced the greedy one —
    /// with pinning.
    #[test]
    fn parallel_run_with_greedy_placement_and_pinning() {
        use ccs_exec::Placement;
        let g = gen::pipeline_uniform(12, 64);
        let planner = Planner::new(CacheParams::new(512, 16));
        let cfg = RunConfig::new(4)
            .with_placement(Placement::Measured)
            .with_pinning(true);
        let inst = Instance::synthetic(g);
        let pr = planner.plan_and_run_parallel(inst, 2, &cfg).unwrap();
        assert!(pr.stats.run.digest.is_some());
        assert!(pr.partition.num_components() > 1);
    }

    #[test]
    fn parallel_run_auto_augments_multi_io() {
        use ccs_exec::Placement;
        // Fan-in/fan-out: two sources, two sinks. The planner must
        // apply the super-endpoint transform instead of failing rate
        // analysis.
        let mut b = ccs_graph::GraphBuilder::new();
        let s1 = b.node("src1", 16);
        let s2 = b.node("src2", 16);
        let m = b.node("mix", 32);
        let t1 = b.node("sink1", 16);
        let t2 = b.node("sink2", 16);
        b.edge(s1, m, 1, 1);
        b.edge(s2, m, 1, 1);
        b.edge(m, t1, 1, 1);
        b.edge(m, t2, 1, 1);
        let g = b.build().unwrap();
        assert!(g.single_source().is_none());
        let planner = Planner::new(CacheParams::new(64, 8));
        let cfg = RunConfig::new(2).with_placement(Placement::Measured);
        let inst = Instance::synthetic(g.clone());
        let pr = planner.plan_and_run_parallel(inst, 2, &cfg).unwrap();
        assert!(pr.stats.run.digest.is_some());
        // Identical reruns are bit-identical (the augmentation is
        // deterministic).
        let again = planner
            .plan_and_run_parallel(Instance::synthetic(g), 2, &cfg)
            .unwrap();
        assert_eq!(pr.stats.run.digest, again.stats.run.digest);
    }

    #[test]
    fn predicted_cost_is_finite_positive() {
        let g = gen::pipeline_uniform(8, 64);
        let planner = Planner::new(CacheParams::new(1024, 16));
        let plan = planner.plan(&g, Horizon::Rounds(1)).unwrap();
        assert!(plan.predicted_misses_per_input.is_finite());
        assert!(plan.predicted_misses_per_input > 0.0);
    }

    /// A diamond followed by a chain: `4 + tail` nodes, not a pipeline.
    fn diamond_then_chain(tail: usize, state: u64) -> StreamGraph {
        let mut b = ccs_graph::GraphBuilder::new();
        let s = b.node("s", state);
        let x = b.node("x", state);
        let y = b.node("y", state);
        let j = b.node("j", state);
        b.edge(s, x, 1, 1);
        b.edge(s, y, 1, 1);
        b.edge(x, j, 1, 1);
        b.edge(y, j, 1, 1);
        let mut prev = j;
        for i in 0..tail {
            let v = b.node(format!("c{i}"), state);
            b.edge(prev, v, 1, 1);
            prev = v;
        }
        b.build().unwrap()
    }

    #[test]
    fn auto_switches_to_the_heuristic_above_sixteen_nodes() {
        let planner = Planner::new(CacheParams::new(256, 16));
        let at = diamond_then_chain(12, 32);
        assert_eq!(at.node_count(), 16);
        let ra = RateAnalysis::analyze_single_io(&at).unwrap();
        assert_eq!(planner.partition(&at, &ra).unwrap().2, "dag-exact");
        let above = diamond_then_chain(13, 32);
        assert_eq!(above.node_count(), 17);
        let ra = RateAnalysis::analyze_single_io(&above).unwrap();
        assert_eq!(
            planner.partition(&above, &ra).unwrap().2,
            "dag-greedy-refined"
        );
    }

    #[test]
    fn auto_partitions_exactly_like_the_strategy_it_resolves_to() {
        let cases = [
            (gen::pipeline_uniform(24, 48), Strategy::PipelineGreedy2M),
            (diamond_then_chain(8, 40), Strategy::DagExact),
            (diamond_then_chain(20, 40), Strategy::DagGreedyRefined),
        ];
        let planner = Planner::new(CacheParams::new(512, 16));
        for (g, named) in cases {
            let ra = RateAnalysis::analyze_single_io(&g).unwrap();
            let auto = planner.partition(&g, &ra).unwrap();
            let direct = planner.with_strategy(named).partition(&g, &ra).unwrap();
            assert_eq!(auto.0.assignment(), direct.0.assignment(), "{named:?}");
            assert_eq!(auto.1, direct.1, "{named:?}");
            assert_eq!(auto.2, direct.2, "{named:?}");
        }
    }

    #[test]
    fn partition_parameters_follow_the_cache() {
        let planner = Planner::new(CacheParams::new(1024, 16));
        assert_eq!(planner.t5_m(), 128);
        assert_eq!(planner.dag_bound(), 512);
        // A cache smaller than 8 words still yields usable parameters.
        let tiny = Planner::new(CacheParams::new(4, 1));
        assert_eq!(tiny.t5_m(), 1);
        assert_eq!(tiny.dag_bound(), 2);
    }

    #[test]
    fn every_strategy_refuses_a_module_larger_than_the_cache() {
        let g = gen::pipeline_uniform(4, 100_000);
        let ra = RateAnalysis::analyze_single_io(&g).unwrap();
        for s in [
            Strategy::PipelineGreedy2M,
            Strategy::PipelineDp,
            Strategy::DagGreedyRefined,
            Strategy::DagExact,
            Strategy::Auto,
        ] {
            let planner = Planner::new(CacheParams::new(256, 16)).with_strategy(s);
            assert!(planner.partition(&g, &ra).is_err(), "{s:?}");
            assert!(planner.plan(&g, Horizon::Rounds(1)).is_err(), "{s:?}");
        }
    }

    #[test]
    fn pipeline_strategies_refuse_a_dag() {
        let g = gen::split_join(2, 2, StateDist::Fixed(16), 0);
        let ra = RateAnalysis::analyze_single_io(&g).unwrap();
        for s in [Strategy::PipelineGreedy2M, Strategy::PipelineDp] {
            let planner = Planner::new(CacheParams::new(256, 16)).with_strategy(s);
            assert!(planner.partition(&g, &ra).is_err(), "{s:?}");
        }
    }

    #[test]
    fn planned_components_fit_the_cache() {
        // Theorem 5 needs every module within M/8 and its components
        // reach at most 8·(M/8) = M; the dag partitioners and the DP stay
        // within M/2.
        let params = CacheParams::new(512, 16);
        let pipe = gen::pipeline(
            &PipelineCfg {
                len: 30,
                state: StateDist::Uniform(8, 64),
                max_q: 3,
                max_rate_scale: 2,
            },
            11,
        );
        let small_dag = gen::split_join(3, 3, StateDist::Uniform(8, 80), 4);
        let big_dag = diamond_then_chain(24, 60);
        let cases = [
            (&pipe, Strategy::PipelineGreedy2M, params.capacity),
            (&pipe, Strategy::PipelineDp, params.capacity / 2),
            (&small_dag, Strategy::DagExact, params.capacity / 2),
            (&big_dag, Strategy::DagGreedyRefined, params.capacity / 2),
        ];
        for (g, s, bound) in cases {
            let plan = Planner::new(params)
                .with_strategy(s)
                .plan(g, Horizon::Rounds(1))
                .unwrap();
            assert!(plan.partition.validate(g, bound).is_ok(), "{s:?}");
            let ra = RateAnalysis::analyze_single_io(g).unwrap();
            assert_eq!(plan.bandwidth, plan.partition.bandwidth(g, &ra), "{s:?}");
        }
    }
}
