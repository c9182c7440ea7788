//! Parsing a `ccs-trace/v1` document back into per-worker lanes.
//!
//! The chrome export is the interchange format: spans carry their
//! category (`batch` / `stall` / `window`), enriched stalls carry blame
//! args, occupancy rides on `"C"` counter points, and window spans
//! carry the full window payload in their args. Everything the
//! analyzer needs is therefore recoverable from the document alone —
//! no graph, no partition, no executor state.

use ccs_obs::chrome::WINDOW_TID_BASE;
use ccs_obs::StallReason;
use serde_json::Value;
use std::collections::BTreeMap;

/// One counter window, reduced to what the drift detector consumes.
#[derive(Clone, Debug)]
pub struct WindowPoint {
    /// Window ordinal within its worker.
    pub index: u64,
    /// Window start, nanoseconds on the run clock.
    pub start_ns: u64,
    /// Window end, nanoseconds on the run clock.
    pub end_ns: u64,
    /// Misses per kilo-instruction over the window; `None` for
    /// timing-only windows (no counter group opened).
    pub mpki: Option<f64>,
}

/// One attributed stall span: which edge blocked which segment, for
/// how long.
#[derive(Clone, Copy, Debug)]
pub struct BlamedStall {
    /// Edge (ring) whose gate failed.
    pub edge: usize,
    /// Segment that could not run.
    pub seg: usize,
    /// Peer segment on the other end of the edge — the culprit.
    pub peer: usize,
    /// Which side of the gate failed.
    pub reason: StallReason,
    /// Stall span duration in nanoseconds.
    pub dur_ns: u64,
}

/// One ring-occupancy sample.
#[derive(Clone, Copy, Debug)]
pub struct OccPoint {
    /// Ring (edge) index.
    pub ring: usize,
    /// Sample instant, nanoseconds on the run clock.
    pub ts_ns: u64,
    /// Items resident.
    pub len: u64,
    /// Ring capacity in items.
    pub cap: u64,
}

/// One worker's activity, aggregated from its trace track.
#[derive(Clone, Debug, Default)]
pub struct WorkerLane {
    /// Worker index.
    pub worker: usize,
    /// Track label from the trace metadata (e.g. `"worker 2 @cpu5"`).
    pub name: String,
    /// Batch (or serial-block) spans seen.
    pub batches: u64,
    /// Total batch time, nanoseconds, net of the stalls inside batch
    /// spans (a batch waiting for its next granule is stalled, not
    /// busy).
    pub batch_ns: u64,
    /// Stall spans seen.
    pub stalls: u64,
    /// Stalls that fell through the spin tier into the condvar.
    pub parks: u64,
    /// Total stall time, nanoseconds.
    pub stall_ns: u64,
    /// Raw stall spans as `(start_ns, dur_ns)` — kept so stall time can
    /// be re-windowed onto the counter-window axis for drift.
    pub stall_spans: Vec<(u64, u64)>,
    /// Stalls carrying blame (a subset of `stalls`; untraced-blame
    /// documents leave this empty).
    pub blamed: Vec<BlamedStall>,
    /// Earliest span start, nanoseconds (`u64::MAX` when no spans).
    pub first_ns: u64,
    /// Latest span end, nanoseconds.
    pub last_ns: u64,
    /// Counter windows, in order.
    pub windows: Vec<WindowPoint>,
}

impl WorkerLane {
    fn new(worker: usize) -> WorkerLane {
        WorkerLane {
            worker,
            name: format!("worker {worker}"),
            first_ns: u64::MAX,
            ..WorkerLane::default()
        }
    }

    /// Wall-clock span this lane was active, nanoseconds.
    pub fn span_ns(&self) -> u64 {
        if self.first_ns == u64::MAX {
            0
        } else {
            self.last_ns.saturating_sub(self.first_ns)
        }
    }

    /// Idle time: the span not accounted to batches or stalls.
    pub fn idle_ns(&self) -> u64 {
        self.span_ns()
            .saturating_sub(self.batch_ns)
            .saturating_sub(self.stall_ns)
    }
}

/// Everything the analyzer consumes, parsed out of one trace document.
#[derive(Clone, Debug)]
pub struct TraceInput {
    /// Trace name (the app / invocation label).
    pub name: String,
    /// Caller metadata block, passed through verbatim.
    pub meta: Value,
    /// Per-worker lanes, ordered by worker index.
    pub lanes: Vec<WorkerLane>,
    /// All occupancy samples, document order.
    pub occupancy: Vec<OccPoint>,
}

fn ns(us: f64) -> u64 {
    (us * 1000.0).round().max(0.0) as u64
}

impl TraceInput {
    /// Parse a `ccs-trace/v1` document. Errors name what was malformed;
    /// unknown event shapes are skipped, not fatal, so newer documents
    /// stay readable.
    pub fn from_doc(doc: &Value) -> Result<TraceInput, String> {
        if doc["schema"].as_str() != Some(ccs_obs::SCHEMA) {
            return Err(format!(
                "not a {} document (schema: {:?})",
                ccs_obs::SCHEMA,
                doc["schema"].as_str()
            ));
        }
        let Value::Array(tes) = &doc["traceEvents"] else {
            return Err("trace document has no traceEvents array".to_string());
        };
        let mut lanes: BTreeMap<usize, WorkerLane> = BTreeMap::new();
        // End of the latest batch span seen on each lane.
        let mut batch_end: BTreeMap<usize, u64> = BTreeMap::new();
        let mut occupancy = Vec::new();
        for te in tes {
            let tid = te["tid"].as_u64().unwrap_or(0) as usize;
            match te["ph"].as_str() {
                Some("M") if tid < WINDOW_TID_BASE => {
                    if let Some(name) = te["args"]["name"].as_str() {
                        lanes
                            .entry(tid)
                            .or_insert_with(|| WorkerLane::new(tid))
                            .name = name.to_string();
                    }
                }
                // Only occupancy points carry the "C" category; the
                // per-worker miss/mpki series do not.
                Some("C") if te["cat"].as_str() == Some("occupancy") => {
                    if let (Some(ring), Some(len), Some(cap)) = (
                        te["args"]["ring"].as_u64(),
                        te["args"]["len"].as_u64(),
                        te["args"]["cap"].as_u64(),
                    ) {
                        occupancy.push(OccPoint {
                            ring: ring as usize,
                            ts_ns: ns(te["ts"].as_f64().unwrap_or(0.0)),
                            len,
                            cap,
                        });
                    }
                }
                Some("X") if tid >= WINDOW_TID_BASE => {
                    if te["cat"].as_str() != Some("window") {
                        continue;
                    }
                    let lane = lanes
                        .entry(tid - WINDOW_TID_BASE)
                        .or_insert_with(|| WorkerLane::new(tid - WINDOW_TID_BASE));
                    let a = &te["args"];
                    lane.windows.push(WindowPoint {
                        index: a["index"].as_u64().unwrap_or(lane.windows.len() as u64),
                        start_ns: (a["start_ms"].as_f64().unwrap_or(0.0) * 1e6).round() as u64,
                        end_ns: (a["end_ms"].as_f64().unwrap_or(0.0) * 1e6).round() as u64,
                        mpki: a["counters"]["mpki"].as_f64(),
                    });
                }
                Some("X") => {
                    let lane = lanes.entry(tid).or_insert_with(|| WorkerLane::new(tid));
                    let start = ns(te["ts"].as_f64().unwrap_or(0.0));
                    let dur = ns(te["dur"].as_f64().unwrap_or(0.0));
                    match te["cat"].as_str() {
                        Some("batch") => {
                            lane.batches += 1;
                            lane.batch_ns += dur;
                            batch_end.insert(tid, start + dur);
                        }
                        Some("stall") => {
                            lane.stalls += 1;
                            lane.parks += (te["name"].as_str() == Some("park")) as u64;
                            lane.stall_ns += dur;
                            if batch_end.get(&tid).is_some_and(|&end| start < end) {
                                lane.batch_ns = lane.batch_ns.saturating_sub(dur);
                            }
                            lane.stall_spans.push((start, dur));
                            let a = &te["args"];
                            if let (Some(edge), Some(seg), Some(peer), Some(reason)) = (
                                a["edge"].as_u64(),
                                a["seg"].as_u64(),
                                a["peer"].as_u64(),
                                a["reason"].as_str().and_then(StallReason::parse),
                            ) {
                                lane.blamed.push(BlamedStall {
                                    edge: edge as usize,
                                    seg: seg as usize,
                                    peer: peer as usize,
                                    reason,
                                    dur_ns: dur,
                                });
                            }
                        }
                        _ => continue,
                    }
                    lane.first_ns = lane.first_ns.min(start);
                    lane.last_ns = lane.last_ns.max(start + dur);
                }
                _ => {}
            }
        }
        Ok(TraceInput {
            name: doc["name"].as_str().unwrap_or("trace").to_string(),
            meta: doc["meta"].clone(),
            lanes: lanes.into_values().collect(),
            occupancy,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(events: &str) -> TraceInput {
        let text = format!(
            r#"{{"schema": "ccs-trace/v1", "name": "t", "meta": {{"workers": 2}},
                "traceEvents": [{events}]}}"#
        );
        TraceInput::from_doc(&serde_json::from_str(&text).unwrap()).unwrap()
    }

    #[test]
    fn other_schemas_and_a_missing_event_array_are_refused() {
        let sweep: Value = serde_json::from_str(r#"{"schema": "ccs-sweep/v1"}"#).unwrap();
        let err = TraceInput::from_doc(&sweep).unwrap_err();
        assert!(err.contains("not a ccs-trace/v1 document"), "{err}");
        assert!(err.contains("ccs-sweep/v1"), "{err}");
        let bare: Value = serde_json::from_str(r#"{"schema": "ccs-trace/v1"}"#).unwrap();
        let err = TraceInput::from_doc(&bare).unwrap_err();
        assert!(err.contains("no traceEvents array"), "{err}");
    }

    #[test]
    fn lanes_are_ordered_by_worker_and_named_by_their_metadata() {
        let input = parse(
            r#"{"ph": "X", "cat": "batch", "name": "seg 0", "tid": 3, "ts": 0.0, "dur": 1.0},
               {"ph": "M", "name": "thread_name", "tid": 3, "args": {"name": "worker 3 @cpu5"}},
               {"ph": "X", "cat": "batch", "name": "seg 1", "tid": 1, "ts": 0.0, "dur": 1.0}"#,
        );
        let workers: Vec<usize> = input.lanes.iter().map(|l| l.worker).collect();
        assert_eq!(workers, vec![1, 3]);
        assert_eq!(input.lanes[0].name, "worker 1");
        assert_eq!(input.lanes[1].name, "worker 3 @cpu5");
        assert_eq!(input.name, "t");
        assert_eq!(input.meta["workers"].as_u64(), Some(2));
    }

    #[test]
    fn spans_convert_microseconds_to_nanoseconds_and_bound_the_lane() {
        let input = parse(
            r#"{"ph": "X", "cat": "batch", "tid": 0, "ts": 2.5, "dur": 1.25},
               {"ph": "X", "cat": "batch", "tid": 0, "ts": 10.0, "dur": 0.5}"#,
        );
        let lane = &input.lanes[0];
        assert_eq!(lane.batches, 2);
        assert_eq!(lane.batch_ns, 1250 + 500);
        assert_eq!(lane.first_ns, 2500);
        assert_eq!(lane.last_ns, 10_500);
        assert_eq!(lane.span_ns(), 8000);
        assert_eq!(lane.idle_ns(), 8000 - 1750);
    }

    #[test]
    fn parks_are_stalls_and_only_fully_blamed_stalls_carry_blame() {
        let input = parse(
            r#"{"ph": "X", "cat": "stall", "name": "park", "tid": 0, "ts": 0.0, "dur": 2.0},
               {"ph": "X", "cat": "stall", "name": "stall", "tid": 0, "ts": 2.0, "dur": 1.0,
                "args": {"edge": 4, "seg": 1, "peer": 0, "reason": "consumer-full"}},
               {"ph": "X", "cat": "stall", "name": "stall", "tid": 0, "ts": 3.0, "dur": 1.0,
                "args": {"edge": 4, "seg": 1, "peer": 0, "reason": "sideways"}}"#,
        );
        let lane = &input.lanes[0];
        assert_eq!(lane.stalls, 3);
        assert_eq!(lane.parks, 1);
        assert_eq!(lane.stall_ns, 4000);
        assert_eq!(
            lane.stall_spans,
            vec![(0, 2000), (2000, 1000), (3000, 1000)]
        );
        assert_eq!(lane.blamed.len(), 1);
        let b = lane.blamed[0];
        assert_eq!((b.edge, b.seg, b.peer, b.dur_ns), (4, 1, 0, 1000));
        assert_eq!(b.reason, StallReason::ConsumerFull);
    }

    #[test]
    fn window_spans_land_on_their_workers_lane() {
        let base = WINDOW_TID_BASE;
        let input = parse(&format!(
            r#"{{"ph": "X", "cat": "window", "tid": {w1}, "ts": 0.0, "dur": 1.0,
                 "args": {{"index": 0, "start_ms": 0.001, "end_ms": 0.003,
                           "counters": {{"mpki": 1.5}}}}}},
               {{"ph": "X", "cat": "window", "tid": {w1}, "ts": 3.0, "dur": 1.0,
                 "args": {{"start_ms": 0.003, "end_ms": 0.004}}}},
               {{"ph": "X", "cat": "other", "tid": {w1}, "ts": 0.0, "dur": 1.0}},
               {{"ph": "M", "name": "thread_name", "tid": {w1}, "args": {{"name": "w1 windows"}}}}"#,
            w1 = base + 1
        ));
        assert_eq!(input.lanes.len(), 1);
        let lane = &input.lanes[0];
        assert_eq!(lane.worker, 1);
        assert_eq!(
            lane.name, "worker 1",
            "a window track's name is not the worker's"
        );
        assert_eq!(lane.windows.len(), 2);
        let (a, b) = (&lane.windows[0], &lane.windows[1]);
        assert_eq!(
            (a.index, a.start_ns, a.end_ns, a.mpki),
            (0, 1000, 3000, Some(1.5))
        );
        // A window without an index takes its position; one without
        // counters is timing-only.
        assert_eq!(
            (b.index, b.start_ns, b.end_ns, b.mpki),
            (1, 3000, 4000, None)
        );
        // Windows are not activity: the lane has no span.
        assert_eq!((lane.batches, lane.stalls, lane.span_ns()), (0, 0, 0));
    }

    #[test]
    fn only_occupancy_counter_points_are_sampled() {
        let input = parse(
            r#"{"ph": "C", "cat": "occupancy", "tid": 0, "ts": 1.0,
                "args": {"ring": 2, "len": 3, "cap": 8}},
               {"ph": "C", "cat": "occupancy", "tid": 0, "ts": 2.0, "args": {"ring": 2}},
               {"ph": "C", "name": "mpki", "tid": 0, "ts": 1.0, "args": {"ring": 1, "len": 1, "cap": 1}}"#,
        );
        assert_eq!(input.occupancy.len(), 1);
        let p = input.occupancy[0];
        assert_eq!((p.ring, p.ts_ns, p.len, p.cap), (2, 1000, 3, 8));
        assert!(input.lanes.is_empty());
    }

    #[test]
    fn unknown_events_are_skipped_without_touching_the_lane() {
        let input = parse(
            r#"{"ph": "X", "cat": "batch", "tid": 0, "ts": 5.0, "dur": 1.0},
               {"ph": "X", "cat": "mystery", "tid": 0, "ts": 0.0, "dur": 100.0},
               {"ph": "i", "name": "marker", "tid": 0, "ts": 50.0},
               {"ph": "Q", "tid": 7}"#,
        );
        assert_eq!(input.lanes.len(), 1);
        let lane = &input.lanes[0];
        assert_eq!((lane.first_ns, lane.last_ns), (5000, 6000));
        assert_eq!((lane.batches, lane.stalls), (1, 0));
    }
}
