//! Cross-run performance tracking: bench history, machine
//! fingerprints, and regression verdicts.
//!
//! A single sweep answers "which cell is faster *today*"; nothing in
//! PRs 3–7 remembered yesterday. This module adds the longitudinal
//! layer behind `ccs bench`:
//!
//! * [`canonical_sweep`] — the fixed grid every tracked run measures
//!   (serial baseline, round-robin, and LLC-aware placement, counters
//!   on), so records are comparable across time.
//! * [`SCHEMA`] (`ccs-bench/v1`) — one compact record per run: the
//!   per-(workload, cell, metric) repeat series and their summaries,
//!   stamped with a git revision, a caller-supplied timestamp, and a
//!   machine [`Fingerprint`].
//! * An NDJSON history store (one record per line, appended under
//!   `results/history/`): [`append_record`], [`load_history`],
//!   [`latest_matching`].
//! * [`compare_records`] — paired per-repeat deltas against the
//!   matching-fingerprint baseline, tested with the same
//!   percentile-bootstrap + Benjamini–Hochberg machinery the sweep
//!   comparisons use, then classified into verdicts
//!   (regressed / improved / unchanged / skipped) with a relative
//!   tolerance band so statistically-significant-but-tiny wobble does
//!   not gate CI.
//! * Text renderers for a record, a comparison, and the
//!   sparkline-per-metric trend view behind `ccs report --history`.
//!
//! Records only compare within a fingerprint: a timing-only container
//! and a PMU-backed workstation produce records that must never be
//! judged against each other, so the baseline lookup skips mismatches
//! instead of raising false regressions.

use crate::stats::{benjamini_hochberg, bootstrap_mean_ci, bootstrap_mean_pvalue, Summary};
use crate::sweep::{self, Cell, Metric, Sweep};
use ccs_exec::Placement;
use serde_json::Value;
use std::error::Error;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Version marker of a bench history record; `ccs report` dispatches on
/// it and the history parser rejects anything else.
pub const SCHEMA: &str = "ccs-bench/v1";

/// Relative tolerance band on PMU-backed machines: a significant mean
/// shift within ±10% still reads "unchanged".
pub const DEFAULT_TOLERANCE: f64 = 0.10;

/// Wider band for timing-only fingerprints (no counters, wall-clock
/// jitter dominates): ±25%.
pub const TIMING_ONLY_TOLERANCE: f64 = 0.25;

/// Where `ccs bench` appends by default:
/// `results/history/bench.ndjson`.
pub fn default_history_path() -> PathBuf {
    crate::results_dir().join("history").join("bench.ndjson")
}

/// The canonical tracked grid: serial two-level baseline, round-robin
/// parallel, and LLC-aware parallel (2 workers each), counters on,
/// first quarter of the rounds excluded as warmup. Unpinned, so the
/// grid runs identically on restricted CI runners; the machine shape
/// lands in the fingerprint instead.
pub fn canonical_sweep(
    repeats: usize,
    rounds: u64,
    apps: &[String],
) -> Result<Sweep, Box<dyn Error>> {
    let mut workloads = Vec::new();
    for a in apps {
        workloads.push(sweep::workload(a).ok_or_else(|| format!("unknown workload '{a}'"))?);
    }
    if workloads.is_empty() {
        return Err("bench needs at least one workload".into());
    }
    let warmup = (rounds / 4).max(1);
    Ok(Sweep::new("bench-canonical")
        .with_repeats(repeats)
        .with_rounds(rounds)
        .with_workloads(workloads)
        .with_cell(Cell::serial().with_counters(true).with_warmup(warmup))
        .with_cell(
            Cell::parallel(2, Placement::RoundRobin)
                .with_counters(true)
                .with_warmup(warmup),
        )
        .with_cell(
            Cell::parallel(2, Placement::Llc)
                .with_counters(true)
                .with_warmup(warmup),
        ))
}

/// What must match for two bench records to be comparable: the machine
/// shape, whether counters were real, the warmup discipline, and the
/// exact grid dimensions. Anything else differing is measurement
/// noise; any of these differing is a different experiment.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Fingerprint {
    /// Topology shape, `source/NxCxK` (nodes × llc clusters × cores).
    pub topology: String,
    /// `"pmu"` or `"timing-only"` (probe failed or `CCS_NO_PERF`).
    pub counters: String,
    /// Warmup reset discipline of the grid's cells; always
    /// [`ccs_exec::WARMUP_MODE`] in records written today.
    pub warmup_mode: String,
    /// Interleaved repeats per cell.
    pub repeats: u64,
    /// Batches per segment per run.
    pub rounds: u64,
    /// `cell,cell,... x workload,workload,...`.
    pub grid: String,
    /// The grid ran the fused executor — the only one there is, so
    /// every record written today says `true`. Records of the removed
    /// per-firing executor carry `false` or, older still, no key at all
    /// (parsed as `false`): they stay readable, and never serve as the
    /// baseline of a run of today's executor.
    pub fused: bool,
}

impl Fingerprint {
    /// Fingerprint the current machine + a sweep declaration (the
    /// probe and topology discovery behind
    /// [`sweep::machine_json`]).
    pub fn detect(sweep: &Sweep) -> Fingerprint {
        let machine = sweep::machine_json();
        Fingerprint {
            topology: machine["topology_shape"]
                .as_str()
                .unwrap_or("?")
                .to_string(),
            counters: machine["counters"].as_str().unwrap_or("?").to_string(),
            warmup_mode: ccs_exec::WARMUP_MODE.to_string(),
            repeats: sweep.repeats as u64,
            rounds: sweep.rounds,
            grid: format!(
                "{} x {}",
                sweep
                    .cells
                    .iter()
                    .map(|c| c.label())
                    .collect::<Vec<_>>()
                    .join(","),
                sweep
                    .workloads
                    .iter()
                    .map(|(n, _)| n.as_str())
                    .collect::<Vec<_>>()
                    .join(","),
            ),
            fused: true,
        }
    }

    /// True when every counter reading degraded to wall clock — the
    /// wider tolerance band applies.
    pub fn timing_only(&self) -> bool {
        self.counters == "timing-only"
    }

    /// The JSON block embedded in a record.
    pub fn to_json(&self) -> Value {
        serde_json::json!({
            "topology": self.topology,
            "counters": self.counters,
            "warmup_mode": self.warmup_mode,
            "repeats": self.repeats,
            "rounds": self.rounds,
            "grid": self.grid,
            "fused": self.fused,
        })
    }

    /// Parse the block back; `None` on a malformed record. A missing
    /// `fused` key reads as `false`.
    pub fn from_json(v: &Value) -> Option<Fingerprint> {
        Some(Fingerprint {
            topology: v["topology"].as_str()?.to_string(),
            counters: v["counters"].as_str()?.to_string(),
            warmup_mode: v["warmup_mode"].as_str()?.to_string(),
            repeats: v["repeats"].as_u64()?,
            rounds: v["rounds"].as_u64()?,
            grid: v["grid"].as_str()?.to_string(),
            fused: v["fused"].as_bool().unwrap_or(false),
        })
    }

    /// Records compare only on exact fingerprint equality.
    pub fn matches(&self, other: &Fingerprint) -> bool {
        self == other
    }

    /// One-line text form for reports (golden fixtures pin it).
    pub fn render(&self) -> String {
        format!(
            "{} | counters: {} | warmup: {} | {}x{} | grid: {}",
            self.topology, self.counters, self.warmup_mode, self.repeats, self.rounds, self.grid,
        )
    }
}

fn opt(x: Option<f64>) -> Value {
    match x {
        Some(v) => serde_json::json!(v),
        None => Value::Null,
    }
}

/// Build a `ccs-bench/v1` record from a finished `ccs-sweep/v1`
/// document.
pub fn record_from_sweep(
    doc: &Value,
    fp: &Fingerprint,
    git_rev: &str,
    timestamp: u64,
) -> Result<Value, Box<dyn Error>> {
    if doc["schema"].as_str() != Some(sweep::SCHEMA) {
        return Err(format!(
            "not a {} document (schema: {:?})",
            sweep::SCHEMA,
            doc["schema"].as_str()
        )
        .into());
    }
    let Value::Array(cells) = &doc["cells"] else {
        return Err("sweep document has no cells".into());
    };
    let mut series = Vec::new();
    for cell in cells {
        let workload = cell["workload"].as_str().unwrap_or("?");
        let label = cell["label"].as_str().unwrap_or("?");
        let Value::Array(runs) = &cell["runs"] else {
            continue;
        };
        for m in Metric::ALL {
            // Nulls stay null (a repeat where the counter group never
            // opened), so pairing against a baseline drops exactly the
            // repeats that measured nothing.
            let vals: Vec<Value> = runs.iter().map(|r| opt(r[m.name()].as_f64())).collect();
            let xs: Vec<f64> = vals.iter().filter_map(|v| v.as_f64()).collect();
            let Some(s) = Summary::of(&xs) else {
                continue; // metric absent on this cell (e.g. serial stall_ms)
            };
            series.push(serde_json::json!({
                "workload": workload,
                "cell": label,
                "metric": m.name(),
                "runs": Value::Array(vals),
                "mean": s.mean,
                "stddev": opt(s.stddev),
            }));
        }
    }
    Ok(serde_json::json!({
        "schema": SCHEMA,
        "sweep": doc["sweep"].clone(),
        "timestamp": timestamp,
        "git_rev": git_rev,
        "fingerprint": fp.to_json(),
        "machine": doc["machine"].clone(),
        "series": series,
    }))
}

/// Append one record as a compact NDJSON line, creating
/// `results/history/` on first use.
pub fn append_record(path: &Path, record: &Value) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let line = serde_json::to_string(record)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    let mut text = std::fs::read_to_string(path).unwrap_or_default();
    if !text.is_empty() && !text.ends_with('\n') {
        text.push('\n');
    }
    text.push_str(&line);
    text.push('\n');
    std::fs::write(path, text)
}

/// Parse an NDJSON history: one `ccs-bench/v1` record per non-blank
/// line, in file order. A malformed or off-schema line is an error —
/// history corruption should be loud, not silently skipped.
pub fn parse_history(text: &str) -> Result<Vec<Value>, String> {
    let mut records = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v: Value =
            serde_json::from_str(line).map_err(|e| format!("history line {}: {e}", i + 1))?;
        if v["schema"].as_str() != Some(SCHEMA) {
            return Err(format!(
                "history line {}: not a {SCHEMA} record (schema: {:?})",
                i + 1,
                v["schema"].as_str()
            ));
        }
        records.push(v);
    }
    Ok(records)
}

/// Load a history file; a missing file is an empty history (the first
/// `ccs bench` on a machine seeds it).
pub fn load_history(path: &Path) -> Result<Vec<Value>, String> {
    match std::fs::read_to_string(path) {
        Ok(text) => parse_history(&text),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Vec::new()),
        Err(e) => Err(format!("{}: {e}", path.display())),
    }
}

/// The newest record whose fingerprint matches — the baseline a fresh
/// run is judged against. Mismatched records (other machines, other
/// grids, timing-only vs pmu) are skipped, never compared.
pub fn latest_matching<'a>(history: &'a [Value], fp: &Fingerprint) -> Option<&'a Value> {
    history
        .iter()
        .rev()
        .find(|r| Fingerprint::from_json(&r["fingerprint"]).is_some_and(|f| f.matches(fp)))
}

/// Outcome of one per-metric baseline comparison.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VerdictKind {
    /// Significant shift beyond tolerance, in the bad direction.
    Regressed,
    /// Significant shift beyond tolerance, in the good direction.
    Improved,
    /// No significant shift, or within the tolerance band.
    Unchanged,
    /// Not comparable (metric absent on one side).
    Skipped,
}

impl VerdictKind {
    /// JSON/report name.
    pub fn name(&self) -> &'static str {
        match self {
            VerdictKind::Regressed => "regressed",
            VerdictKind::Improved => "improved",
            VerdictKind::Unchanged => "unchanged",
            VerdictKind::Skipped => "skipped",
        }
    }
}

/// Relative change of `cur` against `base` (positive = larger). A zero
/// baseline with a nonzero current is an infinite shift — always
/// beyond any tolerance.
pub fn rel_delta(base: f64, cur: f64) -> f64 {
    if base == 0.0 {
        if cur == 0.0 {
            0.0
        } else if cur > 0.0 {
            f64::INFINITY
        } else {
            f64::NEG_INFINITY
        }
    } else {
        (cur - base) / base.abs()
    }
}

/// Classify one metric's shift: only a *significant* mean shift whose
/// relative magnitude exceeds the tolerance band earns a directional
/// verdict; everything else is unchanged.
pub fn classify(
    higher_is_better: bool,
    base_mean: f64,
    cur_mean: f64,
    significant: bool,
    tolerance: f64,
) -> VerdictKind {
    let rel = rel_delta(base_mean, cur_mean);
    if !significant || rel.abs() <= tolerance {
        return VerdictKind::Unchanged;
    }
    if (rel > 0.0) == higher_is_better {
        VerdictKind::Improved
    } else {
        VerdictKind::Regressed
    }
}

/// Knobs of a baseline comparison; [`CompareCfg::for_fingerprint`]
/// picks the tolerance band by counter availability.
#[derive(Clone, Copy, Debug)]
pub struct CompareCfg {
    /// Relative tolerance band (e.g. 0.10 = ±10%).
    pub tolerance: f64,
    /// Bootstrap resamples per series.
    pub bootstrap_iters: usize,
    /// CI mass; the family is tested at FDR `1 − confidence`.
    pub confidence: f64,
    /// Deterministic bootstrap base seed.
    pub seed: u64,
}

impl CompareCfg {
    /// Defaults, with the tolerance band widened on timing-only
    /// fingerprints.
    pub fn for_fingerprint(fp: &Fingerprint) -> CompareCfg {
        CompareCfg {
            tolerance: if fp.timing_only() {
                TIMING_ONLY_TOLERANCE
            } else {
                DEFAULT_TOLERANCE
            },
            bootstrap_iters: 1000,
            confidence: 0.9,
            seed: 42,
        }
    }
}

fn series_key(s: &Value) -> (String, String, String) {
    (
        s["workload"].as_str().unwrap_or("?").to_string(),
        s["cell"].as_str().unwrap_or("?").to_string(),
        s["metric"].as_str().unwrap_or("?").to_string(),
    )
}

fn paired(base: &Value, cur: &Value) -> Vec<f64> {
    let (Value::Array(b), Value::Array(c)) = (&base["runs"], &cur["runs"]) else {
        return Vec::new();
    };
    b.iter()
        .zip(c)
        .filter_map(|(b, c)| Some(c.as_f64()? - b.as_f64()?))
        .collect()
}

/// Compare a fresh record against its matching-fingerprint baseline:
/// per-series paired deltas, bootstrap p-values BH-adjusted across the
/// whole family, then tolerance-banded verdicts. Returns the
/// comparison document the CLI renders and gates on.
pub fn compare_records(baseline: &Value, current: &Value, cfg: &CompareCfg) -> Value {
    let empty = Vec::new();
    let base_series = match &baseline["series"] {
        Value::Array(s) => s,
        _ => &empty,
    };
    let cur_series = match &current["series"] {
        Value::Array(s) => s,
        _ => &empty,
    };
    let alpha = 1.0 - cfg.confidence;

    // (cur series, matching base series, paired deltas); a series
    // present on only one side becomes a skipped row below.
    let mut rows: Vec<(&Value, Option<&Value>, Vec<f64>)> = Vec::new();
    for cur in cur_series {
        let key = series_key(cur);
        let base = base_series.iter().find(|b| series_key(b) == key);
        let deltas = base.map(|b| paired(b, cur)).unwrap_or_default();
        rows.push((cur, base, deltas));
    }

    // One BH family across every testable series.
    type RowStats = (Option<f64>, Option<f64>, Option<(f64, f64)>);
    let stats: Vec<RowStats> = rows
        .iter()
        .enumerate()
        .map(|(k, (_, base, deltas))| {
            if base.is_none() {
                return (None, None, None);
            }
            let seed = cfg.seed.wrapping_add(k as u64);
            (
                bootstrap_mean_pvalue(deltas, cfg.bootstrap_iters, seed),
                None,
                bootstrap_mean_ci(deltas, cfg.bootstrap_iters, cfg.confidence, seed),
            )
        })
        .collect();
    let tested: Vec<f64> = stats.iter().filter_map(|(p, _, _)| *p).collect();
    let mut adjusted = benjamini_hochberg(&tested).into_iter();
    let stats: Vec<RowStats> = stats
        .into_iter()
        .map(|(p, _, ci)| (p, p.and_then(|_| adjusted.next()), ci))
        .collect();

    let mut counts = [0u64; 4]; // regressed, improved, unchanged, skipped
    let mut verdicts: Vec<Value> = Vec::new();
    for ((cur, base, deltas), (p, p_adj, ci)) in rows.iter().zip(&stats) {
        let (workload, cell, metric) = series_key(cur);
        let hib = Metric::parse(&metric).map(|m| m.higher_is_better());
        let base_mean = base.and_then(|b| b["mean"].as_f64());
        let cur_mean = cur["mean"].as_f64();
        let verdict = match (base_mean, cur_mean, hib) {
            (Some(b), Some(c), Some(hib)) => {
                let significant = p_adj.map(|q| q <= alpha).unwrap_or(false);
                classify(hib, b, c, significant, cfg.tolerance)
            }
            _ => VerdictKind::Skipped,
        };
        counts[match verdict {
            VerdictKind::Regressed => 0,
            VerdictKind::Improved => 1,
            VerdictKind::Unchanged => 2,
            VerdictKind::Skipped => 3,
        }] += 1;
        let rel = match (base_mean, cur_mean) {
            (Some(b), Some(c)) => {
                let r = rel_delta(b, c);
                if r.is_finite() {
                    Some(r)
                } else {
                    None // infinite shift; means still tell the story
                }
            }
            _ => None,
        };
        verdicts.push(serde_json::json!({
            "workload": workload,
            "cell": cell,
            "metric": metric,
            "base_mean": opt(base_mean),
            "cur_mean": opt(cur_mean),
            "rel_delta": opt(rel),
            "pairs": deltas.len() as u64,
            "ci_lo": opt(ci.map(|c| c.0)),
            "ci_hi": opt(ci.map(|c| c.1)),
            "p": opt(*p),
            "p_adjusted": opt(*p_adj),
            "verdict": verdict.name(),
        }));
    }
    // Baseline-only series: the metric disappeared — surface, don't
    // hide.
    for base in base_series {
        let key = series_key(base);
        if cur_series.iter().any(|c| series_key(c) == key) {
            continue;
        }
        counts[3] += 1;
        verdicts.push(serde_json::json!({
            "workload": key.0,
            "cell": key.1,
            "metric": key.2,
            "base_mean": base["mean"].clone(),
            "cur_mean": Value::Null,
            "rel_delta": Value::Null,
            "pairs": 0u64,
            "ci_lo": Value::Null,
            "ci_hi": Value::Null,
            "p": Value::Null,
            "p_adjusted": Value::Null,
            "verdict": VerdictKind::Skipped.name(),
        }));
    }

    serde_json::json!({
        "baseline_timestamp": baseline["timestamp"].clone(),
        "baseline_git_rev": baseline["git_rev"].clone(),
        "tolerance": cfg.tolerance,
        "fdr_alpha": alpha,
        "verdicts": verdicts,
        "regressed": counts[0],
        "improved": counts[1],
        "unchanged": counts[2],
        "skipped": counts[3],
    })
}

/// Current git revision, read from `.git` directly (no `git` binary on
/// minimal CI images): resolve `HEAD` through its ref or
/// `packed-refs`, walking up from the crate and the working directory.
/// `"unknown"` when nothing resolves — a record is still useful
/// without it.
pub fn git_rev() -> String {
    let mut roots: Vec<PathBuf> = Vec::new();
    if let Ok(d) = std::env::var("CARGO_MANIFEST_DIR") {
        roots.push(PathBuf::from(d));
    }
    if let Ok(d) = std::env::current_dir() {
        roots.push(d);
    }
    for root in roots {
        let mut cur = root;
        for _ in 0..6 {
            let git = cur.join(".git");
            if git.is_dir() {
                if let Some(rev) = rev_from_git_dir(&git) {
                    return rev;
                }
            }
            if !cur.pop() {
                break;
            }
        }
    }
    "unknown".to_string()
}

fn rev_from_git_dir(git: &Path) -> Option<String> {
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(r) = head.strip_prefix("ref: ") else {
        return (!head.is_empty()).then(|| head.to_string());
    };
    if let Ok(s) = std::fs::read_to_string(git.join(r)) {
        let s = s.trim();
        if !s.is_empty() {
            return Some(s.to_string());
        }
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    for line in packed.lines() {
        if let Some((hash, name)) = line.split_once(' ') {
            if name.trim() == r {
                return Some(hash.trim().to_string());
            }
        }
    }
    None
}

fn short_rev(v: &Value) -> String {
    let r = v.as_str().unwrap_or("unknown");
    r.chars().take(12).collect()
}

/// Render one `ccs-bench/v1` record as text: header, fingerprint, and
/// a per-(workload, cell) table of metric means.
pub fn render_record(doc: &Value) -> Result<String, String> {
    if doc["schema"].as_str() != Some(SCHEMA) {
        return Err(format!(
            "not a {SCHEMA} record (schema: {:?})",
            doc["schema"].as_str()
        ));
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "bench: {} @ {} (rev {})",
        doc["sweep"].as_str().unwrap_or("?"),
        doc["timestamp"].as_u64().unwrap_or(0),
        short_rev(&doc["git_rev"]),
    );
    if let Some(fp) = Fingerprint::from_json(&doc["fingerprint"]) {
        let _ = writeln!(out, "fingerprint: {}", fp.render());
    }
    let Value::Array(series) = &doc["series"] else {
        return Err("record has no series".into());
    };
    // Pivot: one row per (workload, cell), one column per metric mean.
    let mut keys: Vec<(String, String)> = Vec::new();
    for s in series {
        let k = (
            s["workload"].as_str().unwrap_or("?").to_string(),
            s["cell"].as_str().unwrap_or("?").to_string(),
        );
        if !keys.contains(&k) {
            keys.push(k);
        }
    }
    let mut table = crate::Table::new(
        "metric means over repeats",
        &[
            "workload",
            "cell",
            "miss/item",
            "wall ms",
            "items/s",
            "ipc",
            "mpki",
            "stall ms",
        ],
    );
    for (workload, cell) in &keys {
        let mut row = vec![workload.clone(), cell.clone()];
        for m in Metric::ALL {
            let mean = series.iter().find_map(|s| {
                (s["workload"].as_str() == Some(workload)
                    && s["cell"].as_str() == Some(cell)
                    && s["metric"].as_str() == Some(m.name()))
                .then(|| s["mean"].as_f64())
                .flatten()
            });
            row.push(mean.map_or_else(|| "n/a".to_string(), crate::f));
        }
        table.row(row);
    }
    out.push_str(&table.render());
    Ok(out)
}

/// Render a comparison document: one verdict row per series, then the
/// one-line verdict CI greps.
pub fn render_comparison(cmp: &Value) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "baseline: @ {} (rev {}), tolerance +/-{}%, fdr {}",
        cmp["baseline_timestamp"].as_u64().unwrap_or(0),
        short_rev(&cmp["baseline_git_rev"]),
        crate::f(cmp["tolerance"].as_f64().unwrap_or(0.0) * 100.0),
        crate::f(cmp["fdr_alpha"].as_f64().unwrap_or(0.0)),
    );
    let mut table = crate::Table::new(
        "verdicts (paired vs baseline)",
        &[
            "workload", "cell", "metric", "base", "cur", "delta", "p_adj", "verdict",
        ],
    );
    if let Value::Array(verdicts) = &cmp["verdicts"] {
        for v in verdicts {
            let delta = v["rel_delta"]
                .as_f64()
                .map_or_else(|| "n/a".to_string(), |r| format!("{:+.1}%", r * 100.0));
            table.row(vec![
                v["workload"].as_str().unwrap_or("?").to_string(),
                v["cell"].as_str().unwrap_or("?").to_string(),
                v["metric"].as_str().unwrap_or("?").to_string(),
                v["base_mean"]
                    .as_f64()
                    .map_or_else(|| "n/a".to_string(), crate::f),
                v["cur_mean"]
                    .as_f64()
                    .map_or_else(|| "n/a".to_string(), crate::f),
                delta,
                v["p_adjusted"]
                    .as_f64()
                    .map_or_else(|| "n/a".to_string(), crate::f),
                v["verdict"].as_str().unwrap_or("?").to_string(),
            ]);
        }
    }
    out.push_str(&table.render());
    let (reg, imp, unch, skip) = (
        cmp["regressed"].as_u64().unwrap_or(0),
        cmp["improved"].as_u64().unwrap_or(0),
        cmp["unchanged"].as_u64().unwrap_or(0),
        cmp["skipped"].as_u64().unwrap_or(0),
    );
    let _ = writeln!(
        out,
        "verdict: {} — {reg} regressed, {imp} improved, {unch} unchanged, {skip} skipped",
        if reg > 0 { "REGRESSED" } else { "ok" },
    );
    out
}

/// Unicode sparkline of a series, min–max normalized (flat series
/// renders mid-height).
pub fn sparkline(xs: &[f64]) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for &x in xs {
        lo = lo.min(x);
        hi = hi.max(x);
    }
    xs.iter()
        .map(|&x| {
            if hi <= lo {
                BARS[3]
            } else {
                let t = (x - lo) / (hi - lo);
                BARS[((t * 7.0).round() as usize).min(7)]
            }
        })
        .collect()
}

/// Render the trend view behind `ccs report --history`: records
/// grouped by fingerprint, and per (workload, cell, metric) a
/// sparkline of the last `last` means with the relative move from the
/// window's first record to its latest.
pub fn render_history(records: &[Value], last: usize) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "bench history: {} record(s), trend over last {last}",
        records.len(),
    );
    if records.is_empty() {
        out.push_str("  (empty — run `ccs bench` to seed it)\n");
        return out;
    }
    // Group by fingerprint, preserving first-seen order.
    let mut groups: Vec<(Fingerprint, Vec<&Value>)> = Vec::new();
    for r in records {
        let Some(fp) = Fingerprint::from_json(&r["fingerprint"]) else {
            continue;
        };
        match groups.iter_mut().find(|(g, _)| g.matches(&fp)) {
            Some((_, rs)) => rs.push(r),
            None => groups.push((fp, vec![r])),
        }
    }
    for (fp, rs) in &groups {
        let window = &rs[rs.len().saturating_sub(last.max(1))..];
        let _ = writeln!(
            out,
            "fingerprint: {} — {} record(s), showing {}",
            fp.render(),
            rs.len(),
            window.len(),
        );
        // Keys in the order the newest record lists them.
        let newest = window.last().expect("non-empty group");
        let Value::Array(series) = &newest["series"] else {
            continue;
        };
        for s in series {
            let key = series_key(s);
            let means: Vec<f64> = window
                .iter()
                .filter_map(|r| {
                    let Value::Array(ss) = &r["series"] else {
                        return None;
                    };
                    ss.iter()
                        .find(|x| series_key(x) == key)
                        .and_then(|x| x["mean"].as_f64())
                })
                .collect();
            if means.is_empty() {
                continue;
            }
            let first = means[0];
            let latest = means[means.len() - 1];
            let rel = rel_delta(first, latest);
            let move_txt = if means.len() < 2 {
                "single record".to_string()
            } else if rel.is_finite() {
                format!(
                    "{:+.1}% ({} -> {})",
                    rel * 100.0,
                    crate::f(first),
                    crate::f(latest)
                )
            } else {
                format!("{} -> {}", crate::f(first), crate::f(latest))
            };
            let _ = writeln!(
                out,
                "  {}/{} {}: {}  {}",
                key.0,
                key.1,
                key.2,
                sparkline(&means),
                move_txt,
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp(counters: &str) -> Fingerprint {
        Fingerprint {
            topology: "sysfs/1x1x1".into(),
            counters: counters.into(),
            warmup_mode: "epoch".into(),
            repeats: 3,
            rounds: 8,
            grid: "serial,rr/w2 x fm-radio".into(),
            fused: false,
        }
    }

    fn sweep_doc(wall: &[f64]) -> Value {
        let runs: Vec<Value> = wall
            .iter()
            .enumerate()
            .map(|(i, &w)| {
                serde_json::json!({
                    "repeat": i,
                    "wall_ms": w,
                    "items_per_sec": 1000.0 / w,
                    "llc_misses_per_item": 2.5,
                    "ipc": Value::Null,
                    "mpki": Value::Null,
                    "stall_ms": Value::Null,
                })
            })
            .collect();
        let cell = serde_json::json!({
            "workload": "fm-radio",
            "label": "serial",
            "runs": runs,
        });
        serde_json::json!({
            "schema": sweep::SCHEMA,
            "sweep": "bench-canonical",
            "cells": vec![cell],
        })
    }

    #[test]
    fn fingerprint_roundtrip_and_matching() {
        let a = fp("pmu");
        let parsed = Fingerprint::from_json(&a.to_json()).expect("roundtrip");
        assert!(a.matches(&parsed));
        let mut b = fp("pmu");
        b.counters = "timing-only".into();
        assert!(!a.matches(&b));
        assert!(b.timing_only() && !a.timing_only());
        let mut c = fp("pmu");
        c.rounds = 16;
        assert!(!a.matches(&c));
        // Records of the removed per-firing executor (no "fused" key)
        // parse as such, keep matching each other, and never match a
        // record of the executor that ships.
        let mut d = fp("pmu");
        d.fused = true;
        assert!(!a.matches(&d));
        assert_eq!(d.render(), a.render());
        let legacy = serde_json::json!({
            "topology": "sysfs/1x1x1",
            "counters": "pmu",
            "warmup_mode": "epoch",
            "repeats": 3u64,
            "rounds": 8u64,
            "grid": "serial,rr/w2 x fm-radio",
        });
        let parsed = Fingerprint::from_json(&legacy).expect("legacy parses");
        assert!(a.matches(&parsed));
        assert_eq!(
            Fingerprint::from_json(&serde_json::json!({"topology": "x"})),
            None
        );
    }

    #[test]
    fn a_record_of_the_removed_executor_is_never_todays_baseline() {
        // The same grid on the same machine, written before the
        // per-firing executor was removed: no "fused" key.
        let sweep = canonical_sweep(3, 4, &["fm-radio".to_string()]).expect("grid");
        let today = Fingerprint::detect(&sweep);
        let mut block = today.to_json();
        assert_eq!(block["fused"].as_bool(), Some(true));
        if let Value::Object(pairs) = &mut block {
            pairs.retain(|(k, _)| k != "fused");
        }
        let old = Fingerprint::from_json(&block).expect("old record parses");
        assert!(!old.matches(&today));
        let record = serde_json::json!({"schema": SCHEMA, "fingerprint": block});
        assert!(latest_matching(&[record], &today).is_none());
    }

    #[test]
    fn classify_verdicts() {
        // Cost metric (higher is worse): a significant +30% is a
        // regression, −30% an improvement.
        assert_eq!(
            classify(false, 10.0, 13.0, true, 0.1),
            VerdictKind::Regressed
        );
        assert_eq!(classify(false, 10.0, 7.0, true, 0.1), VerdictKind::Improved);
        // Benefit metric flips direction.
        assert_eq!(classify(true, 10.0, 13.0, true, 0.1), VerdictKind::Improved);
        assert_eq!(classify(true, 10.0, 7.0, true, 0.1), VerdictKind::Regressed);
        // Insignificant, or within tolerance: unchanged.
        assert_eq!(
            classify(false, 10.0, 13.0, false, 0.1),
            VerdictKind::Unchanged
        );
        assert_eq!(
            classify(false, 10.0, 10.5, true, 0.1),
            VerdictKind::Unchanged
        );
        // Zero baseline, nonzero current: beyond every tolerance.
        assert_eq!(
            classify(false, 0.0, 1.0, true, 10.0),
            VerdictKind::Regressed
        );
        assert_eq!(rel_delta(0.0, 0.0), 0.0);
        assert_eq!(rel_delta(10.0, 15.0), 0.5);
    }

    #[test]
    fn record_extraction() {
        let doc = sweep_doc(&[10.0, 10.0]);
        let r = record_from_sweep(&doc, &fp("pmu"), "deadbeef", 7).expect("record");
        assert_eq!(r["schema"].as_str(), Some(SCHEMA));
        assert_eq!(r["timestamp"].as_u64(), Some(7));
        let series = match &r["series"] {
            Value::Array(s) => s,
            _ => panic!("series"),
        };
        // wall, items/s, miss/item present; ipc/mpki/stall all-null dropped.
        assert_eq!(series.len(), 3);
        let wall = series
            .iter()
            .find(|s| s["metric"].as_str() == Some("wall_ms"))
            .expect("wall series");
        assert_eq!(wall["mean"].as_f64(), Some(10.0));

        assert!(
            record_from_sweep(&serde_json::json!({"schema": "nope"}), &fp("pmu"), "x", 0).is_err()
        );
    }

    #[test]
    fn compare_unchanged_regressed_and_skipped() {
        let f = fp("pmu");
        let cfg = CompareCfg::for_fingerprint(&f);
        let base =
            record_from_sweep(&sweep_doc(&[10.0, 10.1, 9.9, 10.0]), &f, "a", 1).expect("base");
        // Same tree: every verdict unchanged.
        let cur = record_from_sweep(&sweep_doc(&[10.0, 10.1, 9.9, 10.0]), &f, "b", 2).expect("cur");
        let cmp = compare_records(&base, &cur, &cfg);
        assert_eq!(cmp["regressed"].as_u64(), Some(0));
        assert_eq!(cmp["unchanged"].as_u64(), Some(3));
        // 3x slower executor: wall regresses, throughput regresses,
        // miss/item (identical) stays unchanged.
        let slow =
            record_from_sweep(&sweep_doc(&[30.0, 30.3, 29.7, 30.0]), &f, "c", 3).expect("slow");
        let cmp = compare_records(&base, &slow, &cfg);
        assert_eq!(cmp["regressed"].as_u64(), Some(2));
        assert_eq!(cmp["unchanged"].as_u64(), Some(1));
        let wall = match &cmp["verdicts"] {
            Value::Array(vs) => vs
                .iter()
                .find(|v| v["metric"].as_str() == Some("wall_ms"))
                .cloned()
                .expect("wall verdict"),
            _ => unreachable!(),
        };
        assert_eq!(wall["verdict"].as_str(), Some("regressed"));
        assert!(wall["rel_delta"].as_f64().expect("rel") > 1.9);
        // An improvement reads improved, not regressed.
        let fast =
            record_from_sweep(&sweep_doc(&[5.0, 5.05, 4.95, 5.0]), &f, "d", 4).expect("fast");
        let cmp = compare_records(&base, &fast, &cfg);
        assert_eq!(cmp["regressed"].as_u64(), Some(0));
        assert_eq!(cmp["improved"].as_u64(), Some(2));
        // A metric absent on one side is skipped, both directions.
        let kept: Vec<Value> = match &base["series"] {
            Value::Array(s) => s
                .iter()
                .filter(|x| x["metric"].as_str() != Some("wall_ms"))
                .cloned()
                .collect(),
            _ => unreachable!(),
        };
        let pruned = serde_json::json!({
            "schema": SCHEMA,
            "timestamp": base["timestamp"].clone(),
            "git_rev": base["git_rev"].clone(),
            "fingerprint": base["fingerprint"].clone(),
            "series": kept,
        });
        let cmp = compare_records(&pruned, &cur, &cfg);
        assert_eq!(cmp["skipped"].as_u64(), Some(1));
        let cmp = compare_records(&cur, &pruned, &cfg);
        assert_eq!(cmp["skipped"].as_u64(), Some(1));
    }

    #[test]
    fn history_roundtrip_and_baseline_lookup() {
        let f = fp("pmu");
        let r1 = record_from_sweep(&sweep_doc(&[10.0]), &f, "a", 1).expect("r1");
        let r2 = record_from_sweep(&sweep_doc(&[11.0]), &f, "b", 2).expect("r2");
        let other =
            record_from_sweep(&sweep_doc(&[9.0]), &fp("timing-only"), "c", 3).expect("other");
        let text = format!(
            "{}\n{}\n{}\n",
            serde_json::to_string(&r1).unwrap(),
            serde_json::to_string(&other).unwrap(),
            serde_json::to_string(&r2).unwrap(),
        );
        let history = parse_history(&text).expect("parse");
        assert_eq!(history.len(), 3);
        // Newest matching fingerprint wins; the timing-only record is
        // never the baseline for a pmu run.
        let baseline = latest_matching(&history, &f).expect("baseline");
        assert_eq!(baseline["git_rev"].as_str(), Some("b"));
        let baseline = latest_matching(&history, &fp("timing-only")).expect("baseline");
        assert_eq!(baseline["git_rev"].as_str(), Some("c"));
        let mut missing = f.clone();
        missing.grid = "elsewhere".into();
        assert!(latest_matching(&history, &missing).is_none());
        // Corrupt lines are loud.
        assert!(parse_history("{\"schema\": \"nope\"}\n").is_err());
        assert!(parse_history("not json\n").is_err());
        assert_eq!(parse_history("\n\n").expect("blank ok").len(), 0);
    }

    #[test]
    fn sparkline_shapes() {
        assert_eq!(sparkline(&[1.0, 2.0, 3.0]), "▁▅█");
        assert_eq!(sparkline(&[2.0, 2.0]), "▄▄");
        assert_eq!(sparkline(&[]), "");
    }
}
