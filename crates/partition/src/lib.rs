//! # ccs-partition — well-ordered c-bounded partitioning
//!
//! The paper's central reduction: cache-efficient scheduling of a
//! streaming dag is equivalent (to within constant factors, with
//! constant-factor cache augmentation) to finding a *well-ordered*
//! partition of the modules into components of bounded total state that
//! minimizes *bandwidth* — the items crossing component boundaries per
//! input.
//!
//! * [`Partition`] — the partition type with validation (Definition 2's
//!   well-orderedness, c-boundedness, Lemma 8's degree limit) and exact
//!   [`Partition::bandwidth`] (Definition 3).
//! * [`pipeline`] — pipeline partitioners: the paper's Theorem 5 greedy
//!   `2M`-segmentation, the polynomial minimum-bandwidth DP, and the
//!   Theorem 3 lower-bound quantity.
//! * [`dag_greedy`] — linear-time topological segmentation heuristics for
//!   general dags.
//! * [`dag_local`] — Kernighan–Lin-style refinement preserving
//!   well-orderedness.
//! * [`dag_exact`] — exact exponential DP over order ideals (the paper's
//!   "exact partitioner at compile time" suggestion) for dags of up to 20
//!   nodes.
//! * [`fusion`] — materialize a partition as a coarser streaming graph
//!   (the §6 remark that module fusion is a special case of
//!   partitioning, made executable), plus [`FiringPlan`]: a segment
//!   batch compiled into one steady-state period whose ports address a
//!   flat arena (internal edges) or a window of the edge's own ring
//!   (cross edges), repeated as a counted loop by the executors.
//!
//! One partitioner runs per graph shape (`ccs_core::Strategy::Auto`):
//! the Theorem 5 greedy for pipelines (the DP is its exact check), the
//! exact solver for dags of at most 16 nodes, and the dag greedy refined
//! by local search for every larger dag.

pub mod dag_exact;
pub mod dag_greedy;
pub mod dag_local;
pub mod fusion;
pub mod pipeline;
pub mod types;

pub use fusion::{compile_firing_plan, ArenaSpan, BoundaryIo, FiringPlan, FusedFiring};
pub use pipeline::{PipelineError, PipelinePartition, Segmentation};
pub use types::{ComponentId, Partition, PartitionError};
