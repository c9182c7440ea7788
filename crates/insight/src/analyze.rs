//! The analysis engine: lanes + occupancy in, `ccs-analysis/v1` out.

use crate::drift::ewma_change_points;
use crate::input::{BlamedStall, TraceInput, WorkerLane};
use crate::SCHEMA;
use ccs_obs::{Event, EventKind, StallReason};
use serde_json::{json, Value};
use std::collections::BTreeMap;

/// Noise floor for mpki drift flagging (an mpki wiggle below this is
/// never a change point). Shared with the sweep engine, which runs the
/// same detector over per-worker counter windows.
pub const MPKI_EPS: f64 = 0.1;

/// Noise floor for stall-share drift flagging (shares are in [0, 1]).
pub const STALL_SHARE_EPS: f64 = 0.05;

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn share(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// One aggregated blame row: every stall attributed to `edge` with
/// `reason`, summed.
#[derive(Clone, Copy, Debug)]
struct BlameRow {
    edge: usize,
    blocked: usize,
    culprit: usize,
    reason: StallReason,
    stalls: u64,
    stall_ns: u64,
}

fn blame_rows(lanes: &[WorkerLane]) -> Vec<BlameRow> {
    let mut rows: BTreeMap<(usize, &'static str), BlameRow> = BTreeMap::new();
    for b in lanes.iter().flat_map(|l| l.blamed.iter()) {
        let row = rows.entry((b.edge, b.reason.name())).or_insert(BlameRow {
            edge: b.edge,
            blocked: b.seg,
            culprit: b.peer,
            reason: b.reason,
            stalls: 0,
            stall_ns: 0,
        });
        row.stalls += 1;
        row.stall_ns += b.dur_ns;
    }
    let mut rows: Vec<BlameRow> = rows.into_values().collect();
    rows.sort_by(|a, b| b.stall_ns.cmp(&a.stall_ns).then(a.edge.cmp(&b.edge)));
    rows
}

/// The top entry of a bottleneck ranking: the segment most blamed for
/// others' stall time, and the dominant edge it blocks through.
#[derive(Clone, Copy, Debug)]
pub struct Bottleneck {
    /// Culprit segment.
    pub seg: usize,
    /// Edge carrying most of its blamed stall time.
    pub edge: usize,
    /// Gate side of that dominant edge.
    pub reason: StallReason,
    /// Total stall time blamed on this segment, milliseconds.
    pub blamed_ms: f64,
    /// Stalls blamed on this segment.
    pub stalls: u64,
}

/// Rank culprit segments by blamed stall time (descending). Each entry
/// carries the dominant blocking edge.
fn rank_bottlenecks(rows: &[BlameRow]) -> Vec<Bottleneck> {
    let mut per_culprit: BTreeMap<usize, (u64, u64, BlameRow)> = BTreeMap::new();
    for &row in rows {
        let e = per_culprit.entry(row.culprit).or_insert((0, 0, row));
        e.0 += row.stall_ns;
        e.1 += row.stalls;
        if row.stall_ns > e.2.stall_ns {
            e.2 = row;
        }
    }
    let mut out: Vec<Bottleneck> = per_culprit
        .into_iter()
        .map(|(seg, (ns, stalls, dom))| Bottleneck {
            seg,
            edge: dom.edge,
            reason: dom.reason,
            blamed_ms: ms(ns),
            stalls,
        })
        .collect();
    out.sort_by(|a, b| {
        b.blamed_ms
            .partial_cmp(&a.blamed_ms)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.seg.cmp(&b.seg))
    });
    out
}

/// The blocking chain out of the top culprit: entry 0 is the top
/// bottleneck (and the dominant edge it blocks through); each further
/// entry is who the previous segment was itself most blocked by. Cycle
/// guarded — a mutual-blocking pair terminates the chain.
fn blocking_chain(rows: &[BlameRow], ranking: &[Bottleneck]) -> Vec<Value> {
    let mut chain = Vec::new();
    let Some(top) = ranking.first() else {
        return chain;
    };
    let mut visited = vec![top.seg];
    chain.push(json!({
        "seg": top.seg as u64,
        "edge": top.edge as u64,
        "reason": top.reason.name(),
        "blamed_ms": top.blamed_ms,
    }));
    let mut cur = top.seg;
    // Follow, at each step, the dominant row where the current segment
    // is the one waiting.
    while let Some(row) = rows
        .iter()
        .filter(|r| r.blocked == cur)
        .max_by_key(|r| r.stall_ns)
    {
        if visited.contains(&row.culprit) {
            break;
        }
        visited.push(row.culprit);
        chain.push(json!({
            "seg": row.culprit as u64,
            "edge": row.edge as u64,
            "reason": row.reason.name(),
            "blamed_ms": ms(row.stall_ns),
        }));
        cur = row.culprit;
    }
    chain
}

/// Stall time of `lane` overlapping `[start_ns, end_ns)`.
fn stall_overlap_ns(lane: &WorkerLane, start_ns: u64, end_ns: u64) -> u64 {
    lane.stall_spans
        .iter()
        .map(|&(s, d)| {
            let e = s + d;
            e.min(end_ns).saturating_sub(s.max(start_ns))
        })
        .sum()
}

fn drift_json(lanes: &[WorkerLane]) -> (Value, u64) {
    let mut workers = Vec::new();
    let mut points = 0u64;
    for lane in lanes {
        if lane.windows.is_empty() {
            continue;
        }
        let mpki: Vec<f64> = lane.windows.iter().filter_map(|w| w.mpki).collect();
        let stall_share: Vec<f64> = lane
            .windows
            .iter()
            .map(|w| {
                let span = w.end_ns.saturating_sub(w.start_ns);
                share(stall_overlap_ns(lane, w.start_ns, w.end_ns), span)
            })
            .collect();
        let mt = ewma_change_points(&mpki, MPKI_EPS);
        let st = ewma_change_points(&stall_share, STALL_SHARE_EPS);
        points += (mt.change_points.len() + st.change_points.len()) as u64;
        let track = |t: crate::drift::DriftTrack| {
            json!({
                "ewma": match t.ewma {
                    Some(x) => json!(x),
                    None => Value::Null,
                },
                "change_points": t.change_points.iter().map(|&i| i as u64).collect::<Vec<u64>>(),
            })
        };
        workers.push(json!({
            "worker": lane.worker as u64,
            "windows": lane.windows.len() as u64,
            "mpki": track(mt),
            "stall_share": track(st),
        }));
    }
    (Value::Array(workers), points)
}

fn occupancy_json(input: &TraceInput) -> Value {
    let mut per_ring: BTreeMap<usize, (u64, u64, u64, u64)> = BTreeMap::new();
    for p in &input.occupancy {
        let e = per_ring.entry(p.ring).or_insert((0, 0, 0, 0));
        e.0 += 1; // samples
        e.1 += p.len; // total len
        e.2 = e.2.max(p.len); // max len
        e.3 = e.3.max(p.cap); // capacity
    }
    Value::Array(
        per_ring
            .into_iter()
            .map(|(ring, (samples, total, max, cap))| {
                let mean = total as f64 / samples as f64;
                json!({
                    "ring": ring as u64,
                    "samples": samples,
                    "cap": cap,
                    "mean_len": mean,
                    "max_len": max,
                    "mean_fill": if cap == 0 { 0.0 } else { mean / cap as f64 },
                })
            })
            .collect(),
    )
}

/// Analyze parsed trace input into a `ccs-analysis/v1` document.
pub fn analyze(input: &TraceInput) -> Value {
    let workers: Vec<Value> = input
        .lanes
        .iter()
        .map(|l| {
            let span = l.span_ns();
            json!({
                "worker": l.worker as u64,
                "name": l.name,
                "span_ms": ms(span),
                "batch_ms": ms(l.batch_ns),
                "stall_ms": ms(l.stall_ns),
                "idle_ms": ms(l.idle_ns()),
                "batch_share": share(l.batch_ns, span),
                "stall_share": share(l.stall_ns, span),
                "idle_share": share(l.idle_ns(), span),
                "batches": l.batches,
                "stalls": l.stalls,
                "parks": l.parks,
            })
        })
        .collect();
    let rows = blame_rows(&input.lanes);
    let ranking = rank_bottlenecks(&rows);
    let chain = blocking_chain(&rows, &ranking);
    let total_blamed: u64 = rows.iter().map(|r| r.stall_ns).sum();
    let blame: Vec<Value> = rows
        .iter()
        .map(|r| {
            json!({
                "edge": r.edge as u64,
                "blocked_seg": r.blocked as u64,
                "culprit_seg": r.culprit as u64,
                "reason": r.reason.name(),
                "stalls": r.stalls,
                "stall_ms": ms(r.stall_ns),
            })
        })
        .collect();
    let bottlenecks: Vec<Value> = ranking
        .iter()
        .map(|b| {
            json!({
                "seg": b.seg as u64,
                "edge": b.edge as u64,
                "reason": b.reason.name(),
                "blamed_ms": b.blamed_ms,
                "stalls": b.stalls,
                "share": if total_blamed == 0 { 0.0 } else { b.blamed_ms / ms(total_blamed) },
            })
        })
        .collect();
    let busy_ns: u64 = input.lanes.iter().map(|l| l.batch_ns).sum();
    let stall_ns: u64 = input.lanes.iter().map(|l| l.stall_ns).sum();
    let top = ranking.first().map(|b| {
        json!({
            "seg": b.seg as u64,
            "edge": b.edge as u64,
            "reason": b.reason.name(),
            "blamed_ms": b.blamed_ms,
        })
    });
    let (drift, drift_points) = drift_json(&input.lanes);
    let summary = json!({
        "stall_share": share(stall_ns, busy_ns + stall_ns),
        "drift_points": drift_points,
        "top_bottleneck": top.unwrap_or(Value::Null),
    });
    json!({
        "schema": SCHEMA,
        "name": input.name,
        "meta": input.meta.clone(),
        "workers": Value::Array(workers),
        "stall_blame": Value::Array(blame),
        "occupancy": occupancy_json(input),
        "bottlenecks": Value::Array(bottlenecks),
        "chain": Value::Array(chain),
        "drift": drift,
        "summary": summary,
    })
}

/// Analyze a `ccs-trace/v1` document into a `ccs-analysis/v1` one —
/// the single entry point both `ccs analyze FILE` and live analysis
/// use (live mode builds the trace document first, so the two paths
/// cannot diverge).
pub fn analyze_doc(doc: &Value) -> Result<Value, String> {
    TraceInput::from_doc(doc).map(|input| analyze(&input))
}

/// The top bottleneck computed directly from live per-worker event
/// slices — the lightweight per-cell summary `ccs sweep` embeds
/// without building a full document.
pub fn top_bottleneck(per_worker: &[(usize, &[Event])]) -> Option<Bottleneck> {
    let mut lanes = Vec::new();
    for &(worker, events) in per_worker {
        let mut lane = WorkerLane {
            worker,
            ..WorkerLane::default()
        };
        for e in events {
            if let EventKind::Stall {
                blocked: Some(b), ..
            } = e.kind
            {
                lane.blamed.push(BlamedStall {
                    edge: b.edge,
                    seg: b.seg,
                    peer: b.peer,
                    reason: b.reason,
                    dur_ns: e.dur_ns,
                });
            }
        }
        lanes.push(lane);
    }
    let rows = blame_rows(&lanes);
    rank_bottlenecks(&rows).into_iter().next()
}
