//! # ccs-core — cache-conscious scheduling of streaming applications
//!
//! The public facade of this reproduction of *"Cache-Conscious Scheduling
//! of Streaming Applications"* (Agrawal, Fineman, Krage, Leiserson,
//! Toledo — SPAA 2012).
//!
//! The paper's result: scheduling a synchronous-dataflow graph to
//! minimize cache misses reduces to finding a *well-ordered partition* of
//! its modules into cache-sized components minimizing *bandwidth* (items
//! crossing components per input); the induced two-level schedule is
//! within a constant factor of any schedule, given constant-factor cache
//! augmentation.
//!
//! * [`Planner`] — graph + cache parameters → partition + schedule
//!   ([`Plan`]). [`Strategy::Auto`] picks the partitioner from the
//!   graph's shape; the other [`Strategy`] values name one directly.
//! * [`bounds`] — the paper's lower-bound quantities (Theorem 3 for
//!   pipelines, `minBW₃` for dags), for experiment tables.
//! * [`compare`] — run every applicable scheduler on a workload and
//!   tabulate misses per output.
//! * [`record`] — the run record: the `ccs-trace/v1` document of one
//!   executor run ([`ParallelRun`]), which `ccs run-dag` prints and each
//!   sweep repeat keeps.
//!
//! ```
//! use ccs_core::prelude::*;
//!
//! let graph = ccs_graph::gen::pipeline_uniform(24, 128); // 24 modules
//! let planner = Planner::new(CacheParams::new(1024, 16));
//! let plan = planner.plan(&graph, Horizon::SinkFirings(1000)).unwrap();
//! let report = planner.evaluate(&graph, &plan).unwrap();
//! assert!(report.outputs >= 1000);
//! println!("{} misses for {} outputs via {} components",
//!          report.stats.misses, report.outputs,
//!          plan.partition.num_components());
//! ```

pub mod bounds;
pub mod compare;
pub mod planner;
pub mod record;
pub mod report;

pub use planner::{Horizon, ParallelRun, Plan, PlanError, Planner, Strategy};

/// Convenient glob import for downstream code and examples.
pub mod prelude {
    pub use crate::bounds;
    pub use crate::compare::{compare_schedulers, format_table, Comparison};
    pub use crate::planner::{Horizon, ParallelRun, Plan, PlanError, Planner, Strategy};
    pub use crate::report::Report;
    pub use ccs_cachesim::{CacheParams, CacheStats};
    pub use ccs_exec::{execute_dag_cfg, DagRunStats, Placement, RunConfig};
    pub use ccs_graph::{GraphBuilder, NodeId, RateAnalysis, Ratio, StreamGraph};
    pub use ccs_partition::Partition;
    pub use ccs_sched::{EvalReport, SchedRun};
    pub use ccs_topo::Topology;
}
