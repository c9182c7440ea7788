//! # cache-conscious-streaming
//!
//! A reproduction of *"Cache-Conscious Scheduling of Streaming
//! Applications"* (Agrawal, Fineman, Krage, Leiserson, Toledo — SPAA 2012).
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`graph`] — synchronous-dataflow graph model (rates, gains,
//!   repetition vectors, minimum buffers, generators).
//! * [`cachesim`] — external-memory (DAM) model cache simulator.
//! * [`partition`] — well-ordered c-bounded partitioning: the pipeline
//!   greedy and DP, the dag greedy with local refinement, and the exact
//!   solver for small dags.
//! * [`sched`] — partitioned two-level schedulers plus literature baselines,
//!   and the symbolic executor that turns schedules into memory traces.
//! * [`runtime`] — kernels, the SPSC rings the executor runs on, and
//!   the reference interpreter every executor is checked against.
//! * [`topo`] — the host's cpus and caches (sysfs discovery) and core
//!   pinning.
//! * [`perf`] — hardware performance counters (`perf_event_open`):
//!   counter groups, multiplex-scaled readings, graceful fallback.
//! * [`exec`] — the cache-aware multicore dag executor: segment-affine
//!   workers, placement by measured batch times, and core pinning.
//! * [`apps`] — StreamIt-style application suite.
//! * [`core`] — the high-level [`core::Planner`] API, which picks one
//!   partitioner per graph shape, and lower-bound calculators.
//!
//! See `examples/quickstart.rs` for an end-to-end tour.

pub use ccs_apps as apps;
pub use ccs_cachesim as cachesim;
pub use ccs_core as core;
pub use ccs_exec as exec;
pub use ccs_graph as graph;
pub use ccs_partition as partition;
pub use ccs_perf as perf;
pub use ccs_runtime as runtime;
pub use ccs_sched as sched;
pub use ccs_topo as topo;

pub use ccs_core::prelude;
