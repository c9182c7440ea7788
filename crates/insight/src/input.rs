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
