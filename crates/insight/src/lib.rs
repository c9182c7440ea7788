//! # ccs-insight — trace analysis: from timelines to blame
//!
//! `ccs-obs` (and the executors feeding it) records *signals*: batch
//! and stall spans, counter windows, ring-occupancy instants. This
//! crate turns a recorded `ccs-trace/v1` document into *judgements* —
//! the layer an online controller (or a human with `ccs report`) acts
//! on:
//!
//! - **Per-worker time breakdowns** ([`analyze`]): each worker's span
//!   split into batch / stall / idle shares.
//! - **Stall blame**: the enriched stall events name the edge whose
//!   half-full/half-empty gate failed and the peer segment on its other
//!   end, so stalls aggregate into a who-blocks-whom table per edge
//!   (producer-empty = starvation, consumer-full = backpressure).
//! - **Occupancy**: per-ring fill statistics from the batch-boundary
//!   [`ccs_obs::EventKind::RingOccupancy`] instants — a persistently
//!   full ring corroborates a backpressure blame, an empty one a
//!   starvation blame.
//! - **Bottleneck ranking**: blamed stall time aggregated onto the
//!   *culprit* segment, plus the chain of blocking edges leading out of
//!   the top culprit (who the bottleneck itself waits on).
//! - **Drift detection**: EWMA tracks of per-window mpki and
//!   stall-share with flagged change points — the signal a future
//!   feedback scheduler would consume.
//!
//! The analyzer consumes the *document*, not live executor state
//! ([`analyze_doc`]): the enriched trace is fully self-describing, so
//! file-based and live analysis share one code path, and a trace from
//! another machine analyzes identically. Output is a versioned
//! `ccs-analysis/v1` JSON document ([`SCHEMA`]) with a text renderer
//! ([`render`]) behind `ccs report`.

#![warn(missing_docs)]

mod analyze;
mod drift;
mod input;
mod report;

pub use analyze::{analyze, analyze_doc, top_bottleneck, Bottleneck, MPKI_EPS, STALL_SHARE_EPS};
pub use drift::{ewma_change_points, DriftTrack, OnlineEwma};
pub use input::{BlamedStall, OccPoint, TraceInput, WindowPoint, WorkerLane};
pub use report::render;

/// Schema tag of an analysis document (`ccs report` dispatches on it).
pub const SCHEMA: &str = "ccs-analysis/v1";
