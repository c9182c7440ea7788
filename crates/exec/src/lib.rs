//! # ccs-exec — cache-aware multicore DAG executor
//!
//! This crate runs an arbitrary well-ordered c-bounded
//! [`ccs_partition::Partition`] of a general streaming dag (chains and
//! homogeneous graphs are its special cases) on real threads:
//!
//! * **Segment affinity.** Every segment (partition component) is
//!   pinned to exactly one worker thread for the whole run, so a
//!   segment's module state stays in the cache of whichever core runs
//!   that worker — the multicore reading of the paper's two-level
//!   schedule, where a "component load" becomes a per-worker working
//!   set. (Affinity is segment→thread; add
//!   [`run::RunConfig::pin_cores`] to also bind threads to cores, so
//!   the OS cannot migrate a worker away from its cache.)
//! * **×T batches.** Each segment executes its local steady-state
//!   schedule in batches of the §3 granularity `T`
//!   ([`ccs_sched::partitioned::granularity_t`]): one batch moves exactly
//!   `T·gain(e)` items over every incident cross edge, so segment loads
//!   amortize over `Ω(M)` items of traffic.
//! * **Half-full/half-empty continuity.** Cross-segment channels are
//!   lock-free [`ccs_runtime::SpscRing`]s. In a run of two rounds or
//!   more on two workers or more, each holds `2·T·gain(e)` items
//!   (double-buffered), the paper's §3 rule generalized from chains to
//!   dags; a lone worker, or several over one round, gives each ring one
//!   batch, `T·gain(e)` ([`Lifetimes`]). A worker thread publishes each
//!   batch in up to [`plan::GRANULES`] granules, so a segment may
//!   *start* when every output ring has room for its whole batch and
//!   every input ring holds its first granule, and waits inside the
//!   batch for the rest.
//!   A ring's producer and consumer segments run concurrently; the SPSC
//!   protocol plus static pinning (one pushing worker, one popping
//!   worker per ring) makes that safe without locks on the data plane.
//! * **One slab of boundary storage.** All rings of a run are runs of
//!   one zero-page allocation laid out from the plan
//!   ([`plan::BoundaryLayout`]). A lone worker takes the segments in
//!   turn, so each ring holds one batch on storage shared by ring
//!   lifetime and the slab is the largest set of boundary batches ever
//!   live at once; several workers share storage that way in a run of
//!   one round and lay rings end to end over more. The layout's own
//!   checker is the safety argument for the rings that overlap.
//! * **Placement and pinning.** [`Placement::Measured`], the default,
//!   deals round 0 round-robin, takes each segment's busy time in that
//!   batch as its cost, and at the round boundary places the remaining
//!   rounds exactly ([`place::balance`]: least makespan, then least
//!   cross-worker traffic), over two or more rounds with more segments
//!   than workers; otherwise, and under [`Placement::RoundRobin`], the
//!   reproducible oracle, segments are dealt round-robin for the whole
//!   run. [`run::RunConfig::pin_cores`] binds each worker to a cpu the
//!   process may use, so the OS can't migrate the working set away.
//! * **Measured cache behavior.** With [`run::RunConfig::counters`],
//!   each worker opens a `ccs-perf` hardware counter group after
//!   pinning and reads it just before and just after every batch it
//!   counts, into that batch's segment ([`stats::SegmentCounters`]), so
//!   per-segment, per-worker and run-wide LLC misses/item, MPKI, and
//!   IPC are reported per placement mode — the paper's cache claim,
//!   observed rather than inferred (graceful `counters: None` where
//!   `perf_event_open` is denied). A worker's totals are the sum of its
//!   segments', so the start-gate scan and the stalls are not in them.
//!   [`run::RunConfig::warmup_batches`] leaves the first batches of
//!   each segment uncounted so readings reflect steady state; the
//!   schedule is the same either way. Methodology in
//!   `docs/MEASUREMENT.md`.
//! * **Time-resolved observability.** With [`run::RunConfig::trace`],
//!   each worker records batch and stall spans and ring occupancy into a private bounded `ccs-obs` event ring
//!   (drops counted, never silent), and
//!   [`run::RunConfig::window_batches`] closes a counter window every
//!   W batches — cumulative group reads differenced by
//!   `delta_since` into [`stats::WorkerStats::windows`] — so warmup
//!   decay and phase behavior are visible, not just end-of-run
//!   aggregates. `ccs trace` exports the merged timelines as Chrome
//!   trace-event JSON; event model in `docs/OBSERVABILITY.md`.
//! * **One hot path.** Every batch runs through a precompiled
//!   [`ccs_partition::FiringPlan`]: one window of ring storage taken
//!   per cross edge (a `peek` per input ring, a `reserve` per output
//!   ring), one cache-line-sized block of steady-state periods repeated
//!   as a counted loop — one `Kernel::fire_n` call per member per block
//!   — against precomputed, strided spans of those windows and of a
//!   flat per-segment arena, a `commit` per output ring after each
//!   granule and one `release` per input ring at the end. A cross item
//!   is written once, into its ring, and read once, from it; nothing is
//!   copied. Internal edges never touch a ring and get none. There is
//!   one executor at every worker count: worker 0 is the calling
//!   thread, so a one-worker run is the same loop with no thread
//!   spawned, one granule a batch; layout and measurements in
//!   `docs/HOTPATH.md`.
//! * **Determinism.** Synchronous dataflow is schedule-deterministic, so
//!   the sink digest is bit-identical to the reference interpreter's
//!   (`ccs_runtime::serial::execute` over
//!   `ccs_sched::partitioned::inhomogeneous`, which shares no executor
//!   code with this crate) for the same number of batches, at every
//!   worker count, placement, and pinning mode — the correctness
//!   contract the test suite enforces.
//!
//! Layers: [`plan::ExecPlan`] (batch schedules + ring capacities),
//! [`plan::BoundaryLayout`] (where each ring sits in the slab),
//! [`place`] (segment→worker placement), the
//! batch step (private: one worker's segments, polled at their start
//! gates, begun, fired a granule at a time and finished, by two
//! drivers — the worker loop and a seeded test-only one),
//! [`run::execute_dag_cfg`] (the worker loop: granule handoff, bounded
//! spin → condvar stall path, optional core pinning, a typed error
//! instead of a hang when a worker panics), [`stats`] (per-worker and
//! aggregate reports, including wall-clock stall time), and
//! [`serial_fused::execute_serial_fused`], the one-worker run under its
//! old name and observability options.

pub mod place;
pub mod plan;
pub mod run;
pub mod serial_fused;
pub mod stats;
mod step;

#[doc(no_inline)]
pub use ccs_obs::{Timeline, WindowSample};
pub use place::{assign_on, balance, round_robin, segment_links, Balanced, Placement};
pub use plan::{BoundaryLayout, DagExecError, ExecPlan, Lifetimes, RingSpan, SegmentPlan};
pub use run::{execute_dag_cfg, RunConfig};
pub use serial_fused::execute_serial_fused;
pub use stats::{DagRunStats, SegmentCounters, WorkerStats};
