//! Declarative experiment grids over the real executors.
//!
//! The paper's claims are comparative — steady-state misses and
//! throughput of cache-aware placement against baselines, across
//! machine shapes — so every experiment in this repository is some
//! *sweep*: a set of configuration **cells**, each run R times with the
//! repeats interleaved (cell 1, cell 2, …, cell 1, cell 2, … — so slow
//! drift hits all cells alike and pairs out), with digest equivalence
//! asserted across every cell and a family of declared pairwise
//! comparisons evaluated statistically at the end.
//!
//! This module is the one engine behind all of them:
//!
//! * [`Cell`] — one point of the grid: workload-independent executor
//!   configuration (workers — one is the calling thread alone —
//!   placement, pinning, counters, per-segment attribution, warmup
//!   window, event tracing and counter windows).
//! * [`Sweep`] — a named set of cells × workloads × repeats plus the
//!   declared [`Comparison`]s. [`Sweep::run`] executes the grid through
//!   [`execute_dag_cfg`](ccs_exec::execute_dag_cfg), errors on any cell
//!   whose digest differs from the reference interpreter's, and emits one
//!   versioned [`SCHEMA`] JSON document: per-cell per-metric
//!   mean ± stddev, and per-comparison paired deltas with
//!   percentile-bootstrap confidence intervals and p-values,
//!   [Benjamini–Hochberg](crate::stats::benjamini_hochberg)-adjusted
//!   across the whole family of comparisons.
//! * [`render`] — the shared text renderer for that document, used by
//!   `ccs sweep` and `ccs report`.
//! * [`from_spec`] — build a [`Sweep`] from a JSON spec document
//!   (`ccs sweep --spec FILE`).
//!
//! The executor experiments are such spec documents, checked in under
//! `experiments/` (`ccs sweep --spec experiments/e21_steady_state.json`);
//! new experiments should be too.

use crate::stats::{benjamini_hochberg, bootstrap_mean_ci, bootstrap_mean_pvalue, Summary};
use ccs_cachesim::CacheParams;
use ccs_core::{Horizon, Planner};
use ccs_exec::{Placement, RunConfig};
use ccs_graph::gen::{self, LayeredCfg, StateDist};
use ccs_graph::{RateAnalysis, StreamGraph};
use ccs_topo::Topology;
use serde_json::Value;
use std::error::Error;
use std::fmt::Write as _;

/// Version marker of the results document every sweep emits; `ccs
/// report` accepts exactly this schema.
pub const SCHEMA: &str = "ccs-sweep/v1";

/// Stall share (stall / (busy + stall), run-wide) above which the
/// report warns that a cell is bottlenecked.
const STALL_WARN_SHARE: f64 = 0.4;

/// The cache-size heuristic shared by every experiment: a third of the
/// total state (so partitions are non-trivial), at least eight times
/// the largest module (so every module fits), at least 512 words,
/// rounded to a block multiple.
pub fn cache_m(g: &StreamGraph) -> u64 {
    (g.total_state() / 3)
        .max(8 * g.max_state())
        .max(512)
        .next_multiple_of(16)
}

/// Resolve a workload by name: any app of [`ccs_apps::suite`] plus
/// `layered-dag`, the canonical seeded layered DAG the experiments pair
/// with `fm-radio`.
pub fn workload(name: &str) -> Option<(String, StreamGraph)> {
    if name == "layered-dag" {
        return Some((
            name.to_string(),
            gen::layered(
                &LayeredCfg {
                    layers: 6,
                    max_width: 5,
                    density: 0.35,
                    state: StateDist::Uniform(128, 512),
                    max_q: 2,
                },
                3,
            ),
        ));
    }
    ccs_apps::suite()
        .into_iter()
        .find(|a| a.name == name)
        .map(|a| (a.name.to_string(), a.graph))
}

/// One point of the experiment grid: a complete executor configuration,
/// crossed with every workload of the sweep.
#[derive(Clone, Debug)]
pub struct Cell {
    /// Display/reference label; `None` derives one from the fields.
    pub label: Option<String>,
    /// Workers: the calling thread, and `workers − 1` spawned threads.
    pub workers: usize,
    pub placement: Placement,
    pub pin_cores: bool,
    /// Open hardware counters, attributed to segments batch by batch.
    pub counters: bool,
    /// Warmup batches of each segment excluded from counter readings.
    pub warmup: u64,
    /// Record per-worker event timelines (`ccs-obs`): batch/stall
    /// spans, ring occupancy, window boundaries.
    pub trace: bool,
    /// Close a counter window every this many batches per worker (0 =
    /// off).
    pub windows: u64,
}

impl Cell {
    /// A cell of `workers` workers under `placement`, with everything
    /// else at defaults.
    pub fn new(workers: usize, placement: Placement) -> Cell {
        Cell {
            label: None,
            workers,
            placement,
            pin_cores: false,
            counters: false,
            warmup: 0,
            trace: false,
            windows: 0,
        }
    }

    pub fn with_label(mut self, label: impl Into<String>) -> Cell {
        self.label = Some(label.into());
        self
    }

    pub fn with_pinning(mut self, pin: bool) -> Cell {
        self.pin_cores = pin;
        self
    }

    pub fn with_counters(mut self, on: bool) -> Cell {
        self.counters = on;
        self
    }

    pub fn with_warmup(mut self, warmup: u64) -> Cell {
        self.warmup = warmup;
        self
    }

    pub fn with_trace(mut self, on: bool) -> Cell {
        self.trace = on;
        self
    }

    pub fn with_windows(mut self, every: u64) -> Cell {
        self.windows = every;
        self
    }

    /// The label comparisons and reports refer to: the explicit one, or
    /// one derived from the distinguishing fields (`measured+pin/w4`,
    /// `rr/w2`).
    pub fn label(&self) -> String {
        if let Some(l) = &self.label {
            return l.clone();
        }
        let mut l = match self.placement {
            Placement::RoundRobin => "rr".to_string(),
            Placement::Measured => "measured".to_string(),
        };
        if self.pin_cores {
            l.push_str("+pin");
        }
        let _ = write!(l, "/w{}", self.workers);
        l
    }
}

/// A measured quantity cells report and comparisons test.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Metric {
    /// LLC misses per sink item over the steady-state window — the
    /// paper's headline metric.
    LlcMissesPerItem,
    /// Wall-clock time of the firing loop.
    WallMs,
    /// Sink throughput.
    ItemsPerSec,
    /// Instructions per cycle.
    Ipc,
    /// Misses per kilo-instruction.
    Mpki,
    /// Wall-clock stall time across workers.
    StallMs,
    /// Retired instructions per sink item over the steady-state window
    /// — the hot path's own cost.
    InstructionsPerItem,
}

impl Metric {
    /// Every metric a sweep can measure and compare.
    const KNOWN: [Metric; 7] = [
        Metric::LlcMissesPerItem,
        Metric::WallMs,
        Metric::ItemsPerSec,
        Metric::Ipc,
        Metric::Mpki,
        Metric::StallMs,
        Metric::InstructionsPerItem,
    ];

    /// JSON key / CLI name.
    pub fn name(&self) -> &'static str {
        match self {
            Metric::LlcMissesPerItem => "llc_misses_per_item",
            Metric::WallMs => "wall_ms",
            Metric::ItemsPerSec => "items_per_sec",
            Metric::Ipc => "ipc",
            Metric::Mpki => "mpki",
            Metric::StallMs => "stall_ms",
            Metric::InstructionsPerItem => "instructions_per_item",
        }
    }

    /// Parse a CLI/JSON name.
    pub fn parse(name: &str) -> Option<Metric> {
        Metric::KNOWN.into_iter().find(|m| m.name() == name)
    }

    /// Whether a larger value is the better outcome (throughput, IPC)
    /// rather than a cost (misses, wall time, stalls).
    fn higher_is_better(&self) -> bool {
        matches!(self, Metric::ItemsPerSec | Metric::Ipc)
    }
}

/// One declared paired comparison: per workload, the per-repeat deltas
/// `baseline − treatment` of a metric between two cells.
#[derive(Clone, Debug)]
pub struct Comparison {
    pub metric: Metric,
    /// Label of the baseline cell.
    pub baseline: String,
    /// Label of the treatment cell.
    pub treatment: String,
}

/// A named grid: workloads × cells × interleaved repeats, plus the
/// comparison family. Build with the `with_*` methods, execute with
/// [`Sweep::run`].
#[derive(Clone, Debug)]
pub struct Sweep {
    pub name: String,
    /// Interleaved repeats per cell.
    pub repeats: usize,
    /// Granularity-`T` batches per segment per run.
    pub rounds: u64,
    pub workloads: Vec<(String, StreamGraph)>,
    pub cells: Vec<Cell>,
    pub comparisons: Vec<Comparison>,
    /// Bootstrap resamples per interval/p-value.
    pub bootstrap_iters: usize,
    /// CI mass; the comparison family is tested at FDR `1 − confidence`.
    pub confidence: f64,
    /// Bootstrap base seed (each comparison offsets deterministically).
    pub seed: u64,
}

impl Sweep {
    pub fn new(name: impl Into<String>) -> Sweep {
        Sweep {
            name: name.into(),
            repeats: 1,
            rounds: 8,
            workloads: Vec::new(),
            cells: Vec::new(),
            comparisons: Vec::new(),
            bootstrap_iters: 1000,
            confidence: 0.9,
            seed: 42,
        }
    }

    pub fn with_repeats(mut self, repeats: usize) -> Sweep {
        self.repeats = repeats;
        self
    }

    pub fn with_rounds(mut self, rounds: u64) -> Sweep {
        self.rounds = rounds;
        self
    }

    pub fn with_workload(mut self, name: impl Into<String>, g: StreamGraph) -> Sweep {
        self.workloads.push((name.into(), g));
        self
    }

    pub fn with_cell(mut self, cell: Cell) -> Sweep {
        self.cells.push(cell);
        self
    }

    pub fn with_comparison(
        mut self,
        metric: Metric,
        baseline: impl Into<String>,
        treatment: impl Into<String>,
    ) -> Sweep {
        self.comparisons.push(Comparison {
            metric,
            baseline: baseline.into(),
            treatment: treatment.into(),
        });
        self
    }
}

/// One repeat's measurements for one (workload, cell).
struct RunRecord {
    wall_ms: f64,
    items_per_sec: f64,
    llc_mpi: Option<f64>,
    ipc: Option<f64>,
    mpki: Option<f64>,
    stall_ms: Option<f64>,
    /// Instructions retired per measured sink item.
    instr_pi: Option<f64>,
    seg_mpi: Vec<(usize, Option<f64>)>,
    digest: Option<u64>,
    segments: usize,
    /// A counter group opened somewhere in this run.
    counted: bool,
    /// Any reading was multiplex-scaled.
    multiplexed: bool,
    /// Trace events kept across all workers (0 when tracing is off).
    trace_events: u64,
    /// Trace events lost to ring overflow.
    trace_dropped: u64,
    /// Counter windows closed across all workers.
    window_count: usize,
    /// Windows with no counter sample (no group opened).
    windows_timing_only: usize,
    /// Windows whose PMU residency fell below the warning threshold.
    windows_scaled_low: usize,
    /// Run-wide stall share, stall / (busy + stall) across workers.
    stall_share: Option<f64>,
    /// Top blamed bottleneck from the stall-attribution telemetry
    /// (traced cells only).
    bottleneck: Option<ccs_obs::Bottleneck>,
}

impl RunRecord {
    fn metric(&self, m: Metric) -> Option<f64> {
        match m {
            Metric::LlcMissesPerItem => self.llc_mpi,
            Metric::WallMs => Some(self.wall_ms),
            Metric::ItemsPerSec => Some(self.items_per_sec),
            Metric::Ipc => self.ipc,
            Metric::Mpki => self.mpki,
            Metric::StallMs => self.stall_ms,
            Metric::InstructionsPerItem => self.instr_pi,
        }
    }
}

fn opt_json(v: Option<f64>) -> Value {
    serde_json::to_value(v).unwrap_or(Value::Null)
}

fn summary_json(s: Option<&Summary>) -> Value {
    match s {
        Some(s) => serde_json::json!({
            "n": s.n,
            "mean": s.mean,
            "stddev": opt_json(s.stddev),
        }),
        None => Value::Null,
    }
}

impl Sweep {
    /// Effective (unique) cell labels, validated.
    fn labels(&self) -> Result<Vec<String>, Box<dyn Error>> {
        let labels: Vec<String> = self.cells.iter().map(|c| c.label()).collect();
        for (i, l) in labels.iter().enumerate() {
            if labels[..i].contains(l) {
                return Err(format!("duplicate cell label '{l}'").into());
            }
        }
        for c in &self.comparisons {
            for side in [&c.baseline, &c.treatment] {
                if !labels.contains(side) {
                    return Err(format!(
                        "comparison references unknown cell '{side}' (cells: {})",
                        labels.join(", ")
                    )
                    .into());
                }
            }
        }
        Ok(labels)
    }

    /// Execute the whole grid and produce the versioned results
    /// document ([`SCHEMA`]). Errors on an invalid declaration, a
    /// planning failure, or — the safety net every experiment inherits —
    /// any digest divergence between cells of the same workload.
    pub fn run(&self) -> Result<Value, Box<dyn Error>> {
        if self.workloads.is_empty() {
            return Err("sweep has no workloads".into());
        }
        if self.cells.is_empty() {
            return Err("sweep has no cells".into());
        }
        if self.repeats == 0 || self.rounds == 0 {
            return Err("repeats and rounds must be >= 1".into());
        }
        if !(self.confidence > 0.0 && self.confidence < 1.0) {
            return Err(format!(
                "confidence must be in (0, 1), got {} (for 95% write 0.95)",
                self.confidence
            )
            .into());
        }
        let labels = self.labels()?;

        let mut cells_json: Vec<Value> = Vec::new();
        // (workload, comparison) -> paired deltas; flattened into the
        // one BH family at the end.
        let mut pending: Vec<(String, &Comparison, Vec<f64>, usize)> = Vec::new();

        for (wname, g) in &self.workloads {
            let planner = Planner::new(CacheParams::new(cache_m(g), 16));
            // The oracle, once and untimed: the workload's two-level
            // schedule through the reference interpreter, which shares
            // no code with the executor the cells run (and, like it,
            // takes a multi-source or multi-sink graph over super
            // endpoints).
            let mut oracle = ccs_apps::bound_instance(wname, g.clone());
            if oracle.graph.single_source().is_none() || oracle.graph.single_sink().is_none() {
                RateAnalysis::analyze(&oracle.graph).map_err(|e| format!("{wname}: {e}"))?;
                oracle = oracle.with_super_endpoints();
            }
            let plan = planner
                .plan(&oracle.graph, Horizon::Rounds(self.rounds))
                .map_err(|e| format!("{wname}: reference schedule cannot be planned: {e}"))?;
            let want = ccs_runtime::serial::execute(&mut oracle, &plan.run).digest;

            // Interleave: one repeat visits every cell back to back.
            let mut runs: Vec<Vec<RunRecord>> = (0..self.cells.len()).map(|_| Vec::new()).collect();
            for _repeat in 0..self.repeats {
                for (ci, cell) in self.cells.iter().enumerate() {
                    let rec = run_cell(&planner, wname, g, cell, self.rounds)
                        .map_err(|e| format!("{wname}/{}: {e}", labels[ci]))?;
                    if rec.digest != want {
                        return Err(format!(
                            "{wname}: digest diverged — cell '{}' produced {:016x}, \
                             the reference interpreter {:016x}",
                            labels[ci],
                            rec.digest.unwrap_or(0),
                            want.unwrap_or(0),
                        )
                        .into());
                    }
                    runs[ci].push(rec);
                }
            }

            // Per-cell summaries.
            for (ci, cell) in self.cells.iter().enumerate() {
                cells_json.push(cell_json(wname, cell, &labels[ci], &runs[ci], self.rounds));
            }

            // Collect this workload's paired deltas.
            for comp in &self.comparisons {
                let series = |label: &str| -> &Vec<RunRecord> {
                    let i = labels.iter().position(|l| l == label).expect("validated");
                    &runs[i]
                };
                let (base, treat) = (series(&comp.baseline), series(&comp.treatment));
                // Pair only repeats where both cells produced the
                // metric; dropping a repeat drops it from both sides.
                let deltas: Vec<f64> = base
                    .iter()
                    .zip(treat)
                    .filter_map(|(b, t)| Some(b.metric(comp.metric)? - t.metric(comp.metric)?))
                    .collect();
                pending.push((wname.clone(), comp, deltas, pending.len()));
            }
        }

        // The family of comparisons: bootstrap each, then BH-adjust the
        // p-values together.
        /// One comparison's bootstrap outputs: interval, p-value, summary.
        type CompStats = (Option<(f64, f64)>, Option<f64>, Option<Summary>);
        let alpha = 1.0 - self.confidence;
        let stats: Vec<CompStats> = pending
            .iter()
            .map(|(_, _, deltas, k)| {
                let seed = self.seed.wrapping_add(*k as u64);
                (
                    bootstrap_mean_ci(deltas, self.bootstrap_iters, self.confidence, seed),
                    bootstrap_mean_pvalue(deltas, self.bootstrap_iters, seed),
                    Summary::of(deltas),
                )
            })
            .collect();
        let tested: Vec<f64> = stats.iter().filter_map(|(_, p, _)| *p).collect();
        let mut adjusted = benjamini_hochberg(&tested).into_iter();
        let comparisons_json: Vec<Value> = pending
            .iter()
            .zip(&stats)
            .map(|((wname, comp, deltas, _), (ci, p, summary))| {
                let p_adj = p.and_then(|_| adjusted.next());
                serde_json::json!({
                    "workload": wname,
                    "metric": comp.metric.name(),
                    "baseline": comp.baseline,
                    "treatment": comp.treatment,
                    "pairs": deltas.len(),
                    "mean": opt_json(summary.as_ref().map(|s| s.mean)),
                    "ci_lo": opt_json(ci.map(|c| c.0)),
                    "ci_hi": opt_json(ci.map(|c| c.1)),
                    "confidence": self.confidence,
                    "p": opt_json(*p),
                    "p_adjusted": opt_json(p_adj),
                    "significant": serde_json::to_value(p_adj.map(|q| q <= alpha))
                        .unwrap_or(Value::Null),
                })
            })
            .collect();

        Ok(serde_json::json!({
            "schema": SCHEMA,
            "sweep": self.name,
            "repeats": self.repeats,
            "rounds": self.rounds,
            "confidence": self.confidence,
            "fdr_alpha": alpha,
            "bootstrap_iters": self.bootstrap_iters,
            "seed": self.seed,
            "warn_residency": ccs_obs::MULTIPLEX_WARN_RATIO,
            "machine": machine_json(),
            "workloads": self.workloads.iter().map(|(n, _)| n.clone()).collect::<Vec<_>>(),
            "cells": cells_json,
            "comparisons": comparisons_json,
        }))
    }
}

/// The machine/counter-availability block every sweep document embeds
/// (`"machine"`), so a saved sweep is self-describing for cross-run
/// comparability: the host's cpus and caches, and whether hardware
/// counters were actually available (`"pmu"`) or every reading degraded
/// to wall-clock only (`"timing-only"`, e.g. under `CCS_NO_PERF=1` or a
/// restrictive `perf_event_paranoid`).
fn machine_json() -> Value {
    let topo = Topology::discover();
    let probe = ccs_perf::probe();
    serde_json::json!({
        "topology": topo.summary(),
        "counters": if probe.available { "pmu" } else { "timing-only" },
        "counters_reason": match &probe.reason {
            Some(r) => Value::String(r.clone()),
            None => Value::Null,
        },
    })
}

/// Run one repeat under the cell's [`RunConfig`].
fn run_cell(
    planner: &Planner,
    name: &str,
    g: &StreamGraph,
    cell: &Cell,
    rounds: u64,
) -> Result<RunRecord, Box<dyn Error>> {
    let cfg = RunConfig::new(cell.workers)
        .with_placement(cell.placement)
        .with_pinning(cell.pin_cores)
        .with_counters(cell.counters)
        .with_warmup(cell.warmup)
        .with_trace(cell.trace)
        .with_windows(cell.windows);
    let pr =
        planner.plan_and_run_parallel(ccs_apps::bound_instance(name, g.clone()), rounds, &cfg)?;
    let stats = pr.stats;
    let totals = stats.counter_totals();
    let busy_ms: f64 = stats
        .workers
        .iter()
        .map(|w| w.busy.as_secs_f64() * 1e3)
        .sum();
    let stall_ms = stats.total_stall_time().as_secs_f64() * 1e3;
    let bottleneck = if cell.trace {
        let slices: Vec<&[ccs_obs::Event]> = stats
            .workers
            .iter()
            .filter_map(|w| w.trace.as_ref().map(|t| &t.events[..]))
            .collect();
        ccs_obs::Analysis::of(&slices).bottlenecks.first().copied()
    } else {
        None
    };
    Ok(RunRecord {
        wall_ms: stats.run.wall.as_secs_f64() * 1e3,
        items_per_sec: stats.items_per_sec(),
        llc_mpi: stats.llc_misses_per_item(),
        ipc: totals.as_ref().and_then(|t| t.ipc()),
        mpki: totals.as_ref().and_then(|t| t.mpki()),
        stall_ms: Some(stall_ms),
        instr_pi: stats.instructions_per_item(),
        seg_mpi: stats.segment_llc_misses_per_item(),
        digest: stats.run.digest,
        segments: stats.segments,
        counted: stats.counted_workers() > 0,
        multiplexed: totals.as_ref().is_some_and(|t| t.multiplexed()),
        trace_events: stats.trace_events(),
        trace_dropped: stats.trace_dropped(),
        window_count: stats.window_count(),
        windows_timing_only: stats.windows_timing_only(),
        windows_scaled_low: stats.windows_scaled_below(ccs_obs::MULTIPLEX_WARN_RATIO),
        stall_share: if busy_ms + stall_ms > 0.0 {
            Some(stall_ms / (busy_ms + stall_ms))
        } else {
            None
        },
        bottleneck,
    })
}

/// Aggregate one (workload, cell)'s repeats into its results entry.
fn cell_json(wname: &str, cell: &Cell, label: &str, runs: &[RunRecord], rounds: u64) -> Value {
    let mpi: Vec<f64> = runs.iter().filter_map(|r| r.llc_mpi).collect();
    let counted = runs.iter().any(|r| r.counted);
    let multiplexed = runs.iter().any(|r| r.multiplexed);
    let status = if !cell.counters {
        "off"
    } else if !mpi.is_empty() {
        if multiplexed {
            "ok (scaled)"
        } else {
            "ok"
        }
    } else if counted {
        // A group opened but the LLC event did not (PMU-less VM).
        "no llc event"
    } else {
        "unavailable"
    };
    let segments = runs.first().map_or(0, |r| r.segments);

    let mut metrics = Vec::new();
    for m in Metric::KNOWN {
        let series: Vec<f64> = runs.iter().filter_map(|r| r.metric(m)).collect();
        if let Some(s) = Summary::of(&series) {
            metrics.push((m.name().to_string(), summary_json(Some(&s))));
        }
    }

    // Per-segment summaries: each segment's series across repeats.
    let mut per_segment = Vec::new();
    if cell.counters {
        for si in 0..segments {
            let series: Vec<f64> = runs
                .iter()
                .filter_map(|r| {
                    r.seg_mpi
                        .iter()
                        .find(|(seg, _)| *seg == si)
                        .and_then(|(_, v)| *v)
                })
                .collect();
            per_segment.push(serde_json::json!({
                "seg": si,
                "llc_misses_per_item": summary_json(Summary::of(&series).as_ref()),
            }));
        }
    }

    let runs_json: Vec<Value> = runs
        .iter()
        .enumerate()
        .map(|(i, r)| {
            serde_json::json!({
                "repeat": i,
                "wall_ms": r.wall_ms,
                "items_per_sec": r.items_per_sec,
                "llc_misses_per_item": opt_json(r.llc_mpi),
                "ipc": opt_json(r.ipc),
                "mpki": opt_json(r.mpki),
                "stall_ms": opt_json(r.stall_ms),
                "instructions_per_item": opt_json(r.instr_pi),
            })
        })
        .collect();

    // Observability accounting, summed over the cell's repeats; absent
    // entirely when neither tracing nor windows were requested, so
    // pre-obs documents and plain cells render identically.
    let obs = if cell.trace || cell.windows > 0 {
        // Per-cell analysis digest: mean run-wide stall share across
        // repeats, and the dominant blamed bottleneck (the (seg, edge,
        // reason) whose repeats' top entries sum to the most blamed
        // time) — the lightweight live cut of `ccs analyze`.
        let shares: Vec<f64> = runs.iter().filter_map(|r| r.stall_share).collect();
        let mut tops: std::collections::BTreeMap<(usize, usize, &'static str), (u64, u64)> =
            std::collections::BTreeMap::new();
        for b in runs.iter().filter_map(|r| r.bottleneck) {
            let e = tops
                .entry((b.seg, b.edge, b.reason.name()))
                .or_insert((0, 0));
            e.0 += b.blamed_ns;
            e.1 += b.stalls;
        }
        let top = tops
            .into_iter()
            .max_by_key(|&(_, (blamed_ns, _))| blamed_ns)
            .map(|((seg, edge, reason), (blamed_ns, stalls))| {
                serde_json::json!({
                    "seg": seg as u64,
                    "edge": edge as u64,
                    "reason": reason,
                    "blamed_ms": blamed_ns as f64 / 1e6,
                    "stalls": stalls,
                })
            })
            .unwrap_or(Value::Null);
        let analysis = serde_json::json!({
            "stall_share": opt_json(Summary::of(&shares).map(|s| s.mean)),
            "top_bottleneck": top,
        });
        serde_json::json!({
            "trace": cell.trace,
            "windows_every": cell.windows,
            "trace_events": runs.iter().map(|r| r.trace_events).sum::<u64>(),
            "trace_dropped": runs.iter().map(|r| r.trace_dropped).sum::<u64>(),
            "windows": runs.iter().map(|r| r.window_count).sum::<usize>(),
            "windows_timing_only": runs.iter().map(|r| r.windows_timing_only).sum::<usize>(),
            "windows_scaled_low": runs.iter().map(|r| r.windows_scaled_low).sum::<usize>(),
            "analysis": analysis,
        })
    } else {
        Value::Null
    };

    serde_json::json!({
        "workload": wname,
        "label": label,
        "workers": cell.workers,
        "placement": cell.placement.name(),
        "pin_cores": cell.pin_cores,
        "counters_requested": cell.counters,
        "warmup_batches": cell.warmup.min(rounds.saturating_sub(1)),
        "segments": segments,
        "counters": status,
        "digest": match runs.first().and_then(|r| r.digest) {
            Some(d) => Value::String(format!("{d:016x}")),
            None => Value::Null,
        },
        "runs": runs_json,
        "metrics": Value::Object(metrics),
        "per_segment": per_segment,
        "obs": obs,
    })
}

/// Render a number-or-null JSON field tersely (the shared [`crate::f`]
/// tiering; `n/a` for null).
fn jnum(v: &Value) -> String {
    v.as_f64().map_or_else(|| "n/a".to_string(), crate::f)
}

/// Render a [`SCHEMA`] results document as aligned text — the one
/// renderer behind both `ccs sweep` and `ccs report`.
/// Tolerant of nulls (cells measured where counters were unavailable
/// render `n/a`), intolerant of other schemas.
pub fn render(v: &Value) -> Result<String, Box<dyn Error>> {
    if v["schema"].as_str() != Some(SCHEMA) {
        return Err(format!(
            "not a {SCHEMA} document (schema: {}); regenerate with `ccs sweep`",
            v["schema"].as_str().unwrap_or("missing"),
        )
        .into());
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{}: {} repeats x {} rounds",
        v["sweep"].as_str().unwrap_or("sweep"),
        v["repeats"].as_u64().unwrap_or(0),
        v["rounds"].as_u64().unwrap_or(0),
    );
    // Pre-`machine` documents simply skip the line, so old saved sweeps
    // (and the checked-in fixtures) render unchanged.
    let machine = &v["machine"];
    if !machine.is_null() {
        let _ = writeln!(
            out,
            "machine: {} | counters: {}{}",
            machine["topology"].as_str().unwrap_or("?"),
            machine["counters"].as_str().unwrap_or("?"),
            match machine["counters_reason"].as_str() {
                Some(r) => format!(" ({r})"),
                None => String::new(),
            },
        );
    }

    let Value::Array(cells) = &v["cells"] else {
        return Err("document has no `cells` array".into());
    };
    let mut table = crate::Table::new(
        "",
        &[
            "workload",
            "cell",
            "workers",
            "pin",
            "segs",
            "n",
            "wall ms",
            "items/s (M)",
            "miss/item",
            "stddev",
            "counters",
        ],
    );
    for c in cells {
        let mpi = &c["metrics"]["llc_misses_per_item"];
        let wall = &c["metrics"]["wall_ms"];
        let ips = &c["metrics"]["items_per_sec"]["mean"];
        table.row(vec![
            c["workload"].as_str().unwrap_or("?").to_string(),
            c["label"].as_str().unwrap_or("?").to_string(),
            c["workers"].as_u64().map_or("?".into(), |w| w.to_string()),
            c["pin_cores"].as_bool().unwrap_or(false).to_string(),
            c["segments"].as_u64().map_or("?".into(), |s| s.to_string()),
            match &c["runs"] {
                Value::Array(r) => r.len(),
                _ => 0,
            }
            .to_string(),
            jnum(&wall["mean"]),
            ips.as_f64()
                .map_or("n/a".into(), |x| format!("{:.3}", x / 1e6)),
            jnum(&mpi["mean"]),
            jnum(&mpi["stddev"]),
            c["counters"].as_str().unwrap_or("?").to_string(),
        ]);
    }
    out.push_str(&table.body());

    // Per-segment attribution, where present.
    for c in cells {
        if let Value::Array(segs) = &c["per_segment"] {
            let lines: Vec<String> = segs
                .iter()
                .filter(|s| !s["llc_misses_per_item"].is_null())
                .map(|s| {
                    format!(
                        "seg {} {} +/- {}",
                        s["seg"].as_u64().unwrap_or(0),
                        jnum(&s["llc_misses_per_item"]["mean"]),
                        jnum(&s["llc_misses_per_item"]["stddev"]),
                    )
                })
                .collect();
            if !lines.is_empty() {
                let _ = writeln!(
                    out,
                    "  {} / {} per-segment miss/item: {}",
                    c["workload"].as_str().unwrap_or("?"),
                    c["label"].as_str().unwrap_or("?"),
                    lines.join(" | "),
                );
            }
        }
    }

    // Observability health, where cells traced or windowed: drops,
    // low-residency windows, and heavy stalling degrade the data (or
    // the run) quietly unless surfaced.
    let warn_residency = v["warn_residency"]
        .as_f64()
        .unwrap_or(ccs_obs::MULTIPLEX_WARN_RATIO);
    for c in cells {
        let obs = &c["obs"];
        if obs.is_null() {
            continue;
        }
        let who = format!(
            "{}/{}",
            c["workload"].as_str().unwrap_or("?"),
            c["label"].as_str().unwrap_or("?"),
        );
        let dropped = obs["trace_dropped"].as_u64().unwrap_or(0);
        if dropped > 0 {
            let _ = writeln!(
                out,
                "  warning: {who}: ring overflow dropped {dropped} trace events \
                 across repeats — the timeline is truncated; raise the ring \
                 capacity (--trace-cap)",
            );
        }
        let windows = obs["windows"].as_u64().unwrap_or(0);
        let scaled_low = obs["windows_scaled_low"].as_u64().unwrap_or(0);
        if scaled_low > 0 {
            let _ = writeln!(
                out,
                "  warning: {who}: {scaled_low} of {windows} counter windows ran below \
                 {:.0}% PMU residency — multiplex-scaled counts are estimates",
                100.0 * warn_residency,
            );
        }
        let timing_only = obs["windows_timing_only"].as_u64().unwrap_or(0);
        if windows > 0 && timing_only == windows {
            let _ = writeln!(
                out,
                "  note: {who}: counter windows are timing-only (no counter group opened)",
            );
        }
        let analysis = &obs["analysis"];
        if let Some(share) = analysis["stall_share"].as_f64() {
            if share >= STALL_WARN_SHARE {
                let top = &analysis["top_bottleneck"];
                let blamed = if top.is_null() {
                    "no attributed bottleneck — re-run with --trace".to_string()
                } else {
                    format!(
                        "bottleneck seg {} via edge {} ({})",
                        top["seg"].as_u64().unwrap_or(0),
                        top["edge"].as_u64().unwrap_or(0),
                        top["reason"].as_str().unwrap_or("?"),
                    )
                };
                let _ = writeln!(
                    out,
                    "  warning: {who}: workers stalled {:.0}% of busy time — {blamed}",
                    100.0 * share,
                );
            }
        }
    }

    // The comparison family.
    if let Value::Array(comps) = &v["comparisons"] {
        if !comps.is_empty() {
            let _ = writeln!(
                out,
                "paired deltas (baseline - treatment), {} comparisons, \
                 BH-corrected at FDR {}:",
                comps.len(),
                jnum(&v["fdr_alpha"]),
            );
        }
        for d in comps {
            let metric = d["metric"].as_str().unwrap_or("?");
            let higher_better = Metric::parse(metric).is_some_and(|m| m.higher_is_better());
            let significant = d["significant"].as_bool();
            let mean = d["mean"].as_f64();
            let verdict = match (significant, mean) {
                (Some(true), Some(m)) => {
                    // delta = baseline − treatment: positive means the
                    // treatment's value is smaller.
                    if (m > 0.0) != higher_better {
                        "  => treatment wins"
                    } else {
                        "  => baseline wins"
                    }
                }
                (Some(false), _) => "  => no significant difference",
                _ => "",
            };
            let _ = writeln!(
                out,
                "  {} {}: {} - {} = {} [{}, {}] over {} pairs, p_adj {}{}",
                d["workload"].as_str().unwrap_or("?"),
                metric,
                d["baseline"].as_str().unwrap_or("?"),
                d["treatment"].as_str().unwrap_or("?"),
                jnum(&d["mean"]),
                jnum(&d["ci_lo"]),
                jnum(&d["ci_hi"]),
                d["pairs"].as_u64().unwrap_or(0),
                jnum(&d["p_adjusted"]),
                verdict,
            );
        }
    }
    Ok(out)
}

/// Build a [`Sweep`] from a JSON spec document:
///
/// ```json
/// {
///   "name": "my-sweep", "repeats": 5, "rounds": 64, "warmup": 16,
///   "apps": ["fm-radio", "layered-dag"],
///   "cells": [
///     {"workers": 1, "counters": true, "label": "serial"},
///     {"workers": 2, "placement": "rr", "pin_cores": true, "counters": true},
///     {"workers": 2, "placement": "measured", "pin_cores": true, "counters": true,
///      "label": "measured", "trace": true, "windows": 4}
///   ],
///   "comparisons": [
///     {"metric": "llc_misses_per_item", "baseline": "rr+pin/w2", "treatment": "measured"}
///   ],
///   "bootstrap_iters": 1000, "confidence": 0.9, "seed": 42
/// }
/// ```
///
/// Unknown keys, apps, placements, metrics, or labels are errors, so a
/// misspelt or retired key cannot leave its setting at the default
/// unnoticed. `warmup` at the top level is the default for cells that
/// do not set their own; a cell without `placement` takes
/// [`Placement::default`] (measured); the retired `greedy` is refused
/// by name. With no `comparisons`, every later cell is
/// compared against the first on `llc_misses_per_item` and `wall_ms`.
pub fn from_spec(v: &Value) -> Result<Sweep, Box<dyn Error>> {
    only_keys(v, "spec", SPEC_KEYS)?;
    let mut sweep = Sweep::new(v["name"].as_str().unwrap_or("sweep"));
    if let Some(r) = v["repeats"].as_u64() {
        sweep.repeats = r as usize;
    }
    if let Some(r) = v["rounds"].as_u64() {
        sweep.rounds = r;
    }
    if let Some(i) = v["bootstrap_iters"].as_u64() {
        sweep.bootstrap_iters = i as usize;
    }
    if let Some(c) = v["confidence"].as_f64() {
        sweep.confidence = c;
    }
    if let Some(s) = v["seed"].as_u64() {
        sweep.seed = s;
    }
    let default_warmup = v["warmup"].as_u64().unwrap_or(0);

    let Value::Array(apps) = &v["apps"] else {
        return Err("spec needs an `apps` array of workload names".into());
    };
    for a in apps {
        let name = a.as_str().ok_or("app names must be strings")?;
        let (n, g) = workload(name).ok_or_else(|| {
            format!("unknown app '{name}' (try `ccs gen app list`, or 'layered-dag')")
        })?;
        sweep = sweep.with_workload(n, g);
    }

    let Value::Array(cells) = &v["cells"] else {
        return Err("spec needs a `cells` array".into());
    };
    for c in cells {
        only_keys(c, "cell", CELL_KEYS)?;
        let placement = match c["placement"].as_str() {
            None => Placement::default(),
            Some(p) => Placement::parse(p)?,
        };
        let workers = c["workers"].as_u64().unwrap_or(2).max(1) as usize;
        let mut cell = Cell::new(workers, placement);
        if let Some(l) = c["label"].as_str() {
            cell = cell.with_label(l);
        }
        if let Some(p) = c["pin_cores"].as_bool() {
            cell = cell.with_pinning(p);
        }
        if let Some(b) = c["counters"].as_bool() {
            cell = cell.with_counters(b);
        }
        cell = cell.with_warmup(c["warmup"].as_u64().unwrap_or(default_warmup));
        if let Some(b) = c["trace"].as_bool() {
            cell = cell.with_trace(b);
        }
        cell = cell.with_windows(c["windows"].as_u64().unwrap_or(0));
        sweep = sweep.with_cell(cell);
    }

    match &v["comparisons"] {
        Value::Array(comps) => {
            for d in comps {
                let metric_name = d["metric"].as_str().unwrap_or("llc_misses_per_item");
                let metric = Metric::parse(metric_name)
                    .ok_or_else(|| format!("unknown metric '{metric_name}'"))?;
                let baseline = d["baseline"]
                    .as_str()
                    .ok_or("comparison needs `baseline`")?;
                let treatment = d["treatment"]
                    .as_str()
                    .ok_or("comparison needs `treatment`")?;
                sweep = sweep.with_comparison(metric, baseline, treatment);
            }
        }
        Value::Null => {
            sweep = default_comparisons(sweep);
        }
        _ => return Err("`comparisons` must be an array".into()),
    }
    Ok(sweep)
}

/// The keys [`from_spec`] reads at the top level of a spec.
const SPEC_KEYS: &[&str] = &[
    "name",
    "repeats",
    "rounds",
    "warmup",
    "apps",
    "cells",
    "comparisons",
    "bootstrap_iters",
    "confidence",
    "seed",
];

/// The keys [`from_spec`] reads in a cell.
const CELL_KEYS: &[&str] = &[
    "workers",
    "placement",
    "label",
    "pin_cores",
    "counters",
    "warmup",
    "trace",
    "windows",
];

/// Refuse the first key of object `v` that is not in `known`.
fn only_keys(v: &Value, what: &str, known: &[&str]) -> Result<(), Box<dyn Error>> {
    let Value::Object(pairs) = v else {
        return Ok(());
    };
    match pairs.iter().find(|(k, _)| !known.contains(&k.as_str())) {
        Some((k, _)) => {
            Err(format!("unknown {what} key \"{k}\" (known: {})", known.join(", ")).into())
        }
        None => Ok(()),
    }
}

/// The default comparison family: every cell after the first against
/// the first, on misses/item and wall time.
fn default_comparisons(mut sweep: Sweep) -> Sweep {
    let labels: Vec<String> = sweep.cells.iter().map(|c| c.label()).collect();
    if let Some((base, rest)) = labels.split_first() {
        for t in rest {
            for m in [Metric::LlcMissesPerItem, Metric::WallMs] {
                sweep = sweep.with_comparison(m, base.clone(), t.clone());
            }
        }
    }
    sweep
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_derived_and_overridable() {
        assert_eq!(Cell::new(1, Placement::RoundRobin).label(), "rr/w1");
        assert_eq!(Cell::new(4, Placement::Measured).label(), "measured/w4");
        assert_eq!(
            Cell::new(2, Placement::RoundRobin)
                .with_pinning(true)
                .label(),
            "rr+pin/w2"
        );
        assert_eq!(
            Cell::new(2, Placement::Measured).with_label("mine").label(),
            "mine"
        );
    }

    #[test]
    fn metric_names_roundtrip() {
        for m in Metric::KNOWN {
            assert_eq!(Metric::parse(m.name()), Some(m));
        }
        assert_eq!(Metric::parse("bogus"), None);
        assert!(Metric::ItemsPerSec.higher_is_better());
        assert!(!Metric::LlcMissesPerItem.higher_is_better());
        assert!(!Metric::InstructionsPerItem.higher_is_better());
    }

    #[test]
    fn validation_catches_bad_declarations() {
        let base = Sweep::new("t")
            .with_workload("w", ccs_graph::gen::pipeline_uniform(4, 16))
            .with_cell(Cell::new(2, Placement::RoundRobin));
        assert!(Sweep::new("t").run().is_err(), "no workloads");
        assert!(
            Sweep::new("t")
                .with_workload("w", ccs_graph::gen::pipeline_uniform(4, 16))
                .run()
                .is_err(),
            "no cells"
        );
        let dup = base.clone().with_cell(Cell::new(2, Placement::RoundRobin));
        assert!(dup.run().unwrap_err().to_string().contains("duplicate"));
        let dangling = base
            .clone()
            .with_comparison(Metric::WallMs, "rr/w2", "nope");
        assert!(dangling
            .run()
            .unwrap_err()
            .to_string()
            .contains("unknown cell"));
        // A percent-style confidence is rejected up front, not left to
        // silently void every interval.
        let mut pct = base.clone();
        pct.confidence = 95.0;
        assert!(pct.run().unwrap_err().to_string().contains("confidence"));
    }

    #[test]
    fn spec_roundtrip_builds_the_declared_grid() {
        let spec: Value = serde_json::from_str(
            r#"{
              "name": "spec-test", "repeats": 2, "rounds": 4, "warmup": 1,
              "apps": ["fm-radio"],
              "cells": [
                {"workers": 1, "counters": true, "label": "serial"},
                {"workers": 2, "placement": "measured", "pin_cores": true,
                 "counters": true},
                {"placement": "rr"}
              ],
              "comparisons": [
                {"metric": "wall_ms", "baseline": "serial", "treatment": "measured+pin/w2"}
              ]
            }"#,
        )
        .unwrap();
        let sweep = from_spec(&spec).unwrap();
        assert_eq!(sweep.name, "spec-test");
        assert_eq!(sweep.repeats, 2);
        assert_eq!(sweep.rounds, 4);
        assert_eq!(sweep.workloads.len(), 1);
        assert_eq!(sweep.cells.len(), 3);
        assert_eq!(sweep.cells[0].workers, 1);
        assert_eq!(sweep.cells[0].warmup, 1, "top-level warmup default");
        assert_eq!(sweep.cells[1].label(), "measured+pin/w2");
        // Two workers unless a cell says otherwise.
        assert_eq!(sweep.cells[2].label(), "rr/w2");
        assert_eq!(sweep.comparisons.len(), 1);
        // Unknown apps/placements/metrics are errors.
        let bad: Value =
            serde_json::from_str(r#"{"apps": ["nope"], "cells": [{"workers": 2}]}"#).unwrap();
        assert!(from_spec(&bad).is_err());
        // A retired key is outside input, whatever its value: refused
        // by name, not ignored.
        for (key, value) in [
            ("engine", r#""serial""#),
            ("fused", "true"),
            ("warmup_mode", r#""epoch""#),
            ("segment_counters", "true"),
            ("adapt", "false"),
        ] {
            let spec: Value = serde_json::from_str(&format!(
                r#"{{"apps": ["fm-radio"], "cells": [{{"workers": 2, "{key}": {value}}}]}}"#
            ))
            .unwrap();
            let err = from_spec(&spec).unwrap_err().to_string();
            assert!(
                err.contains(&format!("unknown cell key \"{key}\"")),
                "{err}"
            );
        }
    }

    #[test]
    fn render_rejects_other_schemas() {
        let legacy: Value =
            serde_json::from_str(r#"{"experiment": "e21_steady_state", "cells": []}"#).unwrap();
        assert!(render(&legacy).is_err());
    }

    /// A document around the given `cells` and `comparisons` arrays
    /// (JSON text).
    fn doc(cells: &str, comparisons: &str) -> Value {
        serde_json::from_str(&format!(
            r#"{{"schema": "{SCHEMA}", "sweep": "verdicts", "repeats": 3, "rounds": 4,
                "fdr_alpha": 0.1, "cells": {cells}, "comparisons": {comparisons}}}"#
        ))
        .unwrap()
    }

    #[test]
    fn verdicts_follow_each_metrics_direction() {
        // delta = baseline - treatment. On wall time a positive delta
        // means the treatment was faster; on throughput, slower.
        for (metric, mean, significant, verdict) in [
            ("wall_ms", 5.0, "true", "=> treatment wins"),
            ("wall_ms", -5.0, "true", "=> baseline wins"),
            ("items_per_sec", 5.0, "true", "=> baseline wins"),
            ("items_per_sec", -5.0, "true", "=> treatment wins"),
            ("wall_ms", 5.0, "false", "=> no significant difference"),
        ] {
            let comp = format!(
                r#"[{{"workload": "w", "metric": "{metric}", "baseline": "a",
                     "treatment": "b", "pairs": 3, "mean": {mean:.1},
                     "ci_lo": {:.1}, "ci_hi": {:.1}, "p_adjusted": 0.01,
                     "significant": {significant}}}]"#,
                mean - 1.0,
                mean + 1.0,
            );
            let text = render(&doc("[]", &comp)).unwrap();
            let line = text
                .lines()
                .find(|l| l.contains(&format!("w {metric}: a - b")))
                .unwrap_or_else(|| panic!("{text}"));
            assert!(line.ends_with(verdict), "{metric} {mean}: {line}");
        }
        // A metric no repeat measured carries no verdict at all.
        let untested = r#"[{"workload": "w", "metric": "llc_misses_per_item",
            "baseline": "a", "treatment": "b", "pairs": 0, "mean": null,
            "ci_lo": null, "ci_hi": null, "p_adjusted": null, "significant": null}]"#;
        let text = render(&doc("[]", untested)).unwrap();
        let line = text.lines().last().unwrap();
        assert!(
            line.ends_with("= n/a [n/a, n/a] over 0 pairs, p_adj n/a"),
            "{line}"
        );
    }

    #[test]
    fn render_of_a_bare_document_is_its_header_and_table() {
        // No `machine` block (documents older than it), no comparisons:
        // neither line is printed.
        let text = render(&doc("[]", "[]")).unwrap();
        assert!(
            text.starts_with("verdicts: 3 repeats x 4 rounds\n"),
            "{text}"
        );
        assert!(!text.contains("machine:"), "{text}");
        assert!(!text.contains("paired deltas"), "{text}");
        // A document without a cells array is refused, not rendered empty.
        let err = render(&doc("null", "[]")).unwrap_err().to_string();
        assert!(err.contains("cells"), "{err}");
    }

    #[test]
    fn render_surfaces_each_observability_warning() {
        let render_obs = |obs: &str| {
            let cell = format!(
                r#"[{{"workload": "w", "label": "c", "workers": 2, "segments": 3,
                     "runs": [], "metrics": {{}}, "counters": "off", "obs": {obs}}}]"#
            );
            render(&doc(&cell, "[]")).unwrap()
        };
        for (obs, needle) in [
            (
                r#"{"trace_dropped": 7}"#,
                "w/c: ring overflow dropped 7 trace events",
            ),
            (
                r#"{"windows": 4, "windows_scaled_low": 2}"#,
                "w/c: 2 of 4 counter windows ran below 50% PMU residency",
            ),
            (
                r#"{"windows": 4, "windows_timing_only": 4}"#,
                "w/c: counter windows are timing-only",
            ),
            (
                r#"{"analysis": {"stall_share": 0.5}}"#,
                "w/c: workers stalled 50% of busy time — no attributed bottleneck",
            ),
            (
                r#"{"analysis": {"stall_share": 0.75, "top_bottleneck":
                    {"seg": 2, "edge": 5, "reason": "producer-empty"}}}"#,
                "bottleneck seg 2 via edge 5 (producer-empty)",
            ),
        ] {
            let text = render_obs(obs);
            assert!(text.contains(needle), "{obs}:\n{text}");
        }
        // Healthy observability prints nothing extra.
        let quiet = render_obs(&format!(
            r#"{{"trace_dropped": 0, "windows": 4, "windows_timing_only": 1,
                "windows_scaled_low": 0,
                "analysis": {{"stall_share": {}}}}}"#,
            STALL_WARN_SHARE / 2.0
        ));
        assert!(!quiet.contains("warning"), "{quiet}");
        assert!(!quiet.contains("note"), "{quiet}");
    }

    fn spec_err(text: &str) -> String {
        let spec: Value = serde_json::from_str(text).unwrap();
        from_spec(&spec).unwrap_err().to_string()
    }

    #[test]
    fn a_spec_needs_arrays_of_app_names_and_cells() {
        let err = spec_err(r#"{"cells": [{}]}"#);
        assert!(err.contains("needs an `apps` array"), "{err}");
        let err = spec_err(r#"{"apps": "fm-radio", "cells": [{}]}"#);
        assert!(err.contains("needs an `apps` array"), "{err}");
        let err = spec_err(r#"{"apps": [7], "cells": [{}]}"#);
        assert!(err.contains("app names must be strings"), "{err}");
        let err = spec_err(r#"{"apps": ["fm-radio"]}"#);
        assert!(err.contains("needs a `cells` array"), "{err}");
        let err = spec_err(r#"{"apps": ["no-such-app"], "cells": [{}]}"#);
        assert!(err.contains("unknown app 'no-such-app'"), "{err}");
    }

    #[test]
    fn a_misspelt_top_level_key_is_refused_with_the_known_list() {
        let err = spec_err(r#"{"apps": ["fm-radio"], "cells": [{}], "reapeats": 3}"#);
        assert!(err.contains("unknown spec key \"reapeats\""), "{err}");
        assert!(err.contains(&SPEC_KEYS.join(", ")), "{err}");
        let err = spec_err(r#"{"apps": ["fm-radio"], "cells": [{"worker": 2}]}"#);
        assert!(err.contains(&CELL_KEYS.join(", ")), "{err}");
    }

    #[test]
    fn cell_values_that_do_not_parse_are_refused() {
        let err = spec_err(r#"{"apps": ["fm-radio"], "cells": [{"placement": "numa"}]}"#);
        assert!(err.contains("unknown placement 'numa'"), "{err}");
        // The retired `llc` placement and its synthetic machine, by name.
        let err = spec_err(r#"{"apps": ["fm-radio"], "cells": [{"placement": "llc"}]}"#);
        assert!(
            err.contains("unknown placement 'llc' (rr|measured)"),
            "{err}"
        );
        // The retired greedy placement, by name.
        let err = spec_err(r#"{"apps": ["fm-radio"], "cells": [{"placement": "greedy"}]}"#);
        assert!(err.contains("placement 'greedy' was retired"), "{err}");
        let err = spec_err(r#"{"apps": ["fm-radio"], "cells": [{"topology": "2x2x2"}]}"#);
        assert!(err.contains("unknown cell key \"topology\""), "{err}");
        assert!(err.contains(&CELL_KEYS.join(", ")), "{err}");
    }

    #[test]
    fn comparisons_must_name_both_cells_and_a_known_metric() {
        let spec = |comparisons: &str| {
            format!(
                r#"{{"apps": ["fm-radio"], "cells": [{{"label": "a"}}, {{"label": "b"}}],
                     "comparisons": {comparisons}}}"#
            )
        };
        let err = spec_err(&spec(r#"[{"treatment": "b"}]"#));
        assert!(err.contains("comparison needs `baseline`"), "{err}");
        let err = spec_err(&spec(r#"[{"baseline": "a"}]"#));
        assert!(err.contains("comparison needs `treatment`"), "{err}");
        let err = spec_err(&spec(
            r#"[{"metric": "joules", "baseline": "a", "treatment": "b"}]"#,
        ));
        assert!(err.contains("unknown metric 'joules'"), "{err}");
        let err = spec_err(&spec(r#"{"baseline": "a"}"#));
        assert!(err.contains("`comparisons` must be an array"), "{err}");
        // The metric defaults to misses per item; an empty list means
        // no comparisons, not the default family.
        let v: Value =
            serde_json::from_str(&spec(r#"[{"baseline": "a", "treatment": "b"}]"#)).unwrap();
        let sweep = from_spec(&v).unwrap();
        assert_eq!(sweep.comparisons.len(), 1);
        assert_eq!(sweep.comparisons[0].metric, Metric::LlcMissesPerItem);
        let v: Value = serde_json::from_str(&spec("[]")).unwrap();
        assert!(from_spec(&v).unwrap().comparisons.is_empty());
    }

    #[test]
    fn without_comparisons_every_cell_is_compared_to_the_first() {
        let v: Value = serde_json::from_str(
            r#"{"apps": ["fm-radio"],
                "cells": [{"label": "base"}, {"label": "x"}, {"label": "y"}]}"#,
        )
        .unwrap();
        let got: Vec<(Metric, String, String)> = from_spec(&v)
            .unwrap()
            .comparisons
            .into_iter()
            .map(|c| (c.metric, c.baseline, c.treatment))
            .collect();
        let pair = |m, t: &str| (m, "base".to_string(), t.to_string());
        assert_eq!(
            got,
            vec![
                pair(Metric::LlcMissesPerItem, "x"),
                pair(Metric::WallMs, "x"),
                pair(Metric::LlcMissesPerItem, "y"),
                pair(Metric::WallMs, "y"),
            ]
        );
        // One cell has nothing to be compared with.
        let v: Value =
            serde_json::from_str(r#"{"apps": ["fm-radio"], "cells": [{"workers": 1}]}"#).unwrap();
        assert!(from_spec(&v).unwrap().comparisons.is_empty());
    }

    #[test]
    fn cell_fields_default_and_override_the_spec() {
        let v: Value = serde_json::from_str(
            r#"{"apps": ["layered-dag"], "warmup": 3, "bootstrap_iters": 50,
                "confidence": 0.8, "seed": 9,
                "cells": [{"workers": 0}, {"warmup": 1, "windows": 4, "trace": true}]}"#,
        )
        .unwrap();
        let sweep = from_spec(&v).unwrap();
        assert_eq!(sweep.name, "sweep");
        assert_eq!(sweep.workloads[0].0, "layered-dag");
        assert_eq!(
            (sweep.bootstrap_iters, sweep.confidence, sweep.seed),
            (50, 0.8, 9)
        );
        let (a, b) = (&sweep.cells[0], &sweep.cells[1]);
        // A zero-worker cell still has its calling thread.
        assert_eq!(a.workers, 1);
        assert_eq!(
            (a.warmup, a.windows, a.trace, a.counters),
            (3, 0, false, false)
        );
        assert_eq!((b.workers, b.warmup, b.windows, b.trace), (2, 1, 4, true));
        assert_eq!(b.placement, Placement::Measured);
    }
}
