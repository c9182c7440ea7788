//! Low-overhead runtime observability for the executors.
//!
//! Every number the rest of the workspace reports is an end-of-run
//! aggregate, but the paper's claims are about *when* cache behavior
//! happens: cold-start misses decaying through warmup, stalls hiding
//! inside the gating protocol, one slow segment serializing its
//! neighbors. This crate provides the time-resolved side:
//!
//! - [`EventRing`] / [`Tracer`]: a private, bounded, allocation-free
//!   event log per worker thread. Batches, stall spans, ring
//!   occupancy, and window boundaries are recorded with
//!   monotonic timestamps from a shared [`Clock`]; overflow overwrites
//!   the oldest events and is *counted*, never silently absorbed, and a
//!   disabled tracer is a single branch on the hot path.
//! - [`WindowSampler`]: periodic re-reads of the worker's hardware
//!   counter group every W batches, differenced with
//!   [`ccs_perf::CounterSample::delta_since`] into [`WindowSample`]s —
//!   the per-phase signal (misses/IPC over time) end-of-run totals
//!   cannot show. When no counter group opened
//!   (containers, `CCS_NO_PERF`), windows degrade to timing-only.
//! - [`analyze`]: the stall analysis of a traced run, from its events:
//!   each worker's batch / stall / idle split, stall blame per edge,
//!   ring occupancy, and the bottleneck ranking with its blocking chain.
//! - [`chrome`]: a run's summary — the one tally of its events, drops
//!   and windows, carrying the analysis — and its document, the
//!   per-worker timelines as Chrome trace-event JSON (loadable in
//!   Perfetto / `chrome://tracing`); and [`report`], the text of a
//!   run's document that `ccs run-dag` and `ccs report` print.
//!
//! The crate deliberately depends only on `ccs-perf`: the executor
//! (`ccs-exec`'s workers) layers it in without a dependency cycle, and
//! observability itself never touches graph or schedule state — it only
//! watches.

#![warn(missing_docs)]

pub mod analyze;
pub mod chrome;
pub mod event;
pub mod report;
pub mod window;

pub use analyze::{Analysis, Bottleneck};
pub use chrome::{TraceWorker, MULTIPLEX_WARN_RATIO, SCHEMA};
pub use event::{
    Blocked, Clock, Event, EventKind, EventRing, StallReason, Timeline, Tracer,
    DEFAULT_RING_CAPACITY,
};
pub use report::CounterState;
pub use window::{window_json, WindowSample, WindowSampler};
