//! # ccs-graph — synchronous-dataflow streaming graphs
//!
//! The streaming-model substrate for the SPAA 2012 paper *"Cache-Conscious
//! Scheduling of Streaming Applications"*: directed acyclic multigraphs of
//! computation modules connected by rate-annotated FIFO channels.
//!
//! * [`StreamGraph`] / [`GraphBuilder`] — the graph representation (§2 of
//!   the paper). Construction validates acyclicity and rate positivity.
//! * [`RateAnalysis`] — rate-matching validation, minimal repetition
//!   vectors (Lee–Messerschmitt balance equations), and the paper's *gain*
//!   of nodes and edges (Definition 1).
//! * [`Ratio`] — exact rational arithmetic backing the above.
//! * [`buffers`] — minimum channel-buffer sizes `minBuf(e)`.
//! * [`topo`] — topological orders, precedence `u ≺ v`, reachability.
//! * [`gen`] — synthetic workload generators (pipelines, layered dags,
//!   split-joins, butterflies, series-parallel), all rate matched by
//!   construction.
//! * [`stats`] — structural statistics (depth, width, traffic).
//! * [`dot`] — Graphviz export.

pub mod analysis;
pub mod buffers;
pub mod dot;
pub mod gen;
pub mod graph;
pub mod ratio;
pub mod stats;
pub mod topo;

pub use analysis::{RateAnalysis, RateError};
pub use graph::{Edge, EdgeId, GraphBuilder, GraphError, Node, NodeId, StreamGraph};
pub use ratio::Ratio;
