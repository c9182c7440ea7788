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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::input::OccPoint;

    const EMPTY: StallReason = StallReason::ProducerEmpty;
    const FULL: StallReason = StallReason::ConsumerFull;

    fn blamed(
        edge: usize,
        seg: usize,
        peer: usize,
        reason: StallReason,
        dur_ns: u64,
    ) -> BlamedStall {
        BlamedStall {
            edge,
            seg,
            peer,
            reason,
            dur_ns,
        }
    }

    fn lane(worker: usize, blamed: Vec<BlamedStall>) -> WorkerLane {
        WorkerLane {
            worker,
            blamed,
            ..WorkerLane::default()
        }
    }

    #[test]
    fn blame_rows_merge_across_workers_per_edge_and_gate_side() {
        let lanes = [
            lane(
                0,
                vec![blamed(2, 1, 0, EMPTY, 100), blamed(2, 1, 0, FULL, 50)],
            ),
            lane(
                1,
                vec![blamed(2, 1, 0, EMPTY, 300), blamed(0, 3, 2, EMPTY, 400)],
            ),
        ];
        let got: Vec<(usize, &str, u64, u64)> = blame_rows(&lanes)
            .iter()
            .map(|r| (r.edge, r.reason.name(), r.stalls, r.stall_ns))
            .collect();
        // Longest blamed time first; a tie goes to the lower edge.
        assert_eq!(
            got,
            vec![
                (0, "producer-empty", 1, 400),
                (2, "producer-empty", 2, 400),
                (2, "consumer-full", 1, 50),
            ]
        );
    }

    #[test]
    fn a_culprit_is_ranked_by_all_its_blame_and_named_by_its_dominant_edge() {
        // Segment 0 starves 1 through edge 0 (300 ns) and backpressures
        // 2 through edge 1 (500 ns); segment 4 starves 5 for 600 ns.
        let lanes = [lane(
            0,
            vec![
                blamed(0, 1, 0, EMPTY, 300),
                blamed(1, 2, 0, FULL, 500),
                blamed(5, 5, 4, EMPTY, 600),
            ],
        )];
        let ranking = rank_bottlenecks(&blame_rows(&lanes));
        let got: Vec<(usize, usize, StallReason, u64)> = ranking
            .iter()
            .map(|b| (b.seg, b.edge, b.reason, b.stalls))
            .collect();
        assert_eq!(got, vec![(0, 1, FULL, 2), (4, 5, EMPTY, 1)]);
        assert!((ranking[0].blamed_ms - 0.0008).abs() < 1e-12);
        assert!((ranking[1].blamed_ms - 0.0006).abs() < 1e-12);
    }

    #[test]
    fn the_blocking_chain_stops_at_a_cycle() {
        // 2 waits on 1, 1 waits on 0, and 0 waits on 2: a ring of
        // mutual blocking must not loop.
        let lanes = [lane(
            0,
            vec![
                blamed(0, 2, 1, EMPTY, 900),
                blamed(1, 1, 0, EMPTY, 500),
                blamed(2, 0, 2, FULL, 100),
            ],
        )];
        let rows = blame_rows(&lanes);
        let ranking = rank_bottlenecks(&rows);
        assert_eq!(ranking[0].seg, 1);
        let segs: Vec<u64> = blocking_chain(&rows, &ranking)
            .iter()
            .map(|c| c["seg"].as_u64().unwrap())
            .collect();
        assert_eq!(segs, vec![1, 0, 2]);
        assert!(blocking_chain(&[], &[]).is_empty());
    }

    #[test]
    fn stall_overlap_clips_spans_to_the_window() {
        let lane = WorkerLane {
            stall_spans: vec![(0, 10), (15, 10), (40, 5)],
            ..WorkerLane::default()
        };
        assert_eq!(stall_overlap_ns(&lane, 5, 20), 5 + 5);
        assert_eq!(stall_overlap_ns(&lane, 0, 100), 25);
        assert_eq!(stall_overlap_ns(&lane, 26, 40), 0);
        assert_eq!(stall_overlap_ns(&lane, 20, 20), 0);
    }

    #[test]
    fn occupancy_is_summarised_per_ring() {
        let p = |ring, len, cap| OccPoint {
            ring,
            ts_ns: 0,
            len,
            cap,
        };
        let input = TraceInput {
            name: "occ".into(),
            meta: Value::Null,
            lanes: Vec::new(),
            occupancy: vec![p(1, 2, 8), p(0, 0, 0), p(1, 6, 8), p(1, 1, 8)],
        };
        let Value::Array(rings) = occupancy_json(&input) else {
            panic!("occupancy is an array");
        };
        assert_eq!(rings.len(), 2);
        assert_eq!(rings[0]["ring"].as_u64(), Some(0));
        // A zero-capacity ring reads as empty, not as NaN.
        assert_eq!(rings[0]["mean_fill"].as_f64(), Some(0.0));
        assert_eq!(rings[1]["samples"].as_u64(), Some(3));
        assert_eq!(rings[1]["mean_len"].as_f64(), Some(3.0));
        assert_eq!(rings[1]["max_len"].as_u64(), Some(6));
        assert_eq!(rings[1]["mean_fill"].as_f64(), Some(3.0 / 8.0));
    }

    #[test]
    fn an_empty_trace_has_zero_shares_and_no_bottleneck() {
        let input = TraceInput {
            name: "empty".into(),
            meta: Value::Null,
            lanes: vec![lane(0, Vec::new())],
            occupancy: Vec::new(),
        };
        let doc = analyze(&input);
        assert_eq!(doc["schema"].as_str(), Some(SCHEMA));
        let w = &doc["workers"][0];
        assert_eq!(w["span_ms"].as_f64(), Some(0.0));
        for key in ["batch_share", "stall_share", "idle_share"] {
            assert_eq!(w[key].as_f64(), Some(0.0), "{key}");
        }
        assert!(doc["summary"]["top_bottleneck"].is_null());
        assert_eq!(doc["summary"]["stall_share"].as_f64(), Some(0.0));
        assert_eq!(doc["summary"]["drift_points"].as_u64(), Some(0));
        assert_eq!(doc["drift"], Value::Array(Vec::new()));
    }
}
