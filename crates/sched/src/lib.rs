//! # ccs-sched — schedulers and the legality-checking executor
//!
//! Scheduling machinery for the SPAA 2012 partitioned-scheduling paper:
//!
//! * [`exec::Executor`] — the symbolic executor: runs a firing sequence
//!   against the DAM-model cache simulator (`ccs-cachesim`), enforcing
//!   buffer capacities and firing rules, and attributing misses to module
//!   state, channel buffers, and the I/O tapes.
//! * [`partitioned`] — the paper's two-level schedulers (§3):
//!   homogeneous (`T = M`), inhomogeneous (granularity `T`), and the
//!   dynamic pipeline scheduler (half-full/half-empty continuity rule).
//! * [`baseline`] — literature baselines: single-appearance steady-state,
//!   demand-driven minimal-buffer, Sermulins-style execution scaling, and
//!   Kohli-style greedy chains.
//! * [`plan::SchedRun`] — a schedule plus the channel capacities it needs.

pub mod baseline;
pub mod exec;
pub mod partitioned;
pub mod plan;

pub use exec::{EvalReport, ExecError, ExecOptions, Executor, Layout};
pub use partitioned::PartSchedError;
pub use plan::SchedRun;
