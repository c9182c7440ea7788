//! Chrome trace-event export.
//!
//! A trace document is one JSON object: the standard `traceEvents`
//! array (what Perfetto and `chrome://tracing` load — one track per
//! worker, batch and stall spans, window instants, counter
//! series from the windows) plus a `schema` tag and a precomputed
//! `summary` block. Trace viewers ignore the extra top-level keys, so
//! the same file feeds both Perfetto and `ccs report`.

use crate::analyze::{Analysis, Lane};
use crate::event::{Event, EventKind};
use crate::window::{window_json, WindowSample};
use serde_json::{json, Value};

/// Schema tag of a trace document (`ccs report` dispatches on this).
pub const SCHEMA: &str = "ccs-trace/v1";

/// PMU residency (`time_running / time_enabled`) below which a counter
/// window's scaled counts are flagged as multiplex estimates.
pub const MULTIPLEX_WARN_RATIO: f64 = 0.5;

/// One worker's contribution to a trace document.
#[derive(Clone, Debug)]
pub struct TraceWorker<'a> {
    /// Worker index (0-based).
    pub worker: usize,
    /// Track label, e.g. `"worker 2 @cpu5"`.
    pub name: String,
    /// Recorded events, chronological.
    pub events: &'a [Event],
    /// Events the ring dropped.
    pub dropped: u64,
    /// Closed counter windows.
    pub windows: &'a [WindowSample],
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1000.0
}

fn obj(pairs: Vec<(&str, Value)>) -> Value {
    Value::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// Tid offset for the per-worker counter-window track (keeps window
/// spans from visually nesting inside batch spans on the main track).
const WINDOW_TID_BASE: usize = 1000;

fn span(pid: u64, tid: usize, name: String, cat: &str, ts_ns: u64, dur_ns: u64) -> Value {
    obj(vec![
        ("ph", json!("X")),
        ("pid", json!(pid)),
        ("tid", json!(tid as u64)),
        ("name", Value::String(name)),
        ("cat", json!(cat)),
        ("ts", json!(us(ts_ns))),
        ("dur", json!(us(dur_ns))),
    ])
}

fn instant(pid: u64, tid: usize, name: String, cat: &str, ts_ns: u64) -> Value {
    obj(vec![
        ("ph", json!("i")),
        ("s", json!("t")),
        ("pid", json!(pid)),
        ("tid", json!(tid as u64)),
        ("name", Value::String(name)),
        ("cat", json!(cat)),
        ("ts", json!(us(ts_ns))),
    ])
}

fn event_json(w: &TraceWorker, e: &Event) -> Value {
    match e.kind {
        EventKind::Batch { seg } => span(
            0,
            w.worker,
            format!("seg {seg}"),
            "batch",
            e.ts_ns,
            e.dur_ns,
        ),
        EventKind::Stall { parked, blocked } => {
            let mut s = span(
                0,
                w.worker,
                (if parked { "park" } else { "spin" }).to_string(),
                "stall",
                e.ts_ns,
                e.dur_ns,
            );
            if let (Some(b), Value::Object(pairs)) = (blocked, &mut s) {
                pairs.push((
                    "args".to_string(),
                    json!({
                        "edge": b.edge as u64,
                        "seg": b.seg as u64,
                        "peer": b.peer as u64,
                        "reason": b.reason.name(),
                    }),
                ));
            }
            s
        }
        EventKind::RingOccupancy { ring, len, cap } => obj(vec![
            ("ph", json!("C")),
            ("pid", json!(0u64)),
            ("tid", json!(w.worker as u64)),
            ("name", Value::String(format!("ring {ring} occupancy"))),
            ("cat", json!("occupancy")),
            ("ts", json!(us(e.ts_ns))),
            (
                "args",
                json!({ "ring": ring as u64, "len": len, "cap": cap }),
            ),
        ]),
        EventKind::Window { index } => {
            instant(0, w.worker, format!("window {index}"), "window", e.ts_ns)
        }
    }
}

fn window_events(w: &TraceWorker, s: &WindowSample, out: &mut Vec<Value>) {
    // A span on the worker's dedicated window track...
    let mut annotated = span(
        0,
        WINDOW_TID_BASE + w.worker,
        format!("window {}", s.index),
        "window",
        s.start_ns,
        s.end_ns.saturating_sub(s.start_ns),
    );
    if let Value::Object(pairs) = &mut annotated {
        pairs.push(("args".to_string(), window_json(s)));
    }
    out.push(annotated);
    // ...plus counter series Perfetto renders as per-worker graphs.
    if let Some(sample) = &s.sample {
        if let Some(misses) = sample.get(ccs_perf::CounterKind::LlcMisses) {
            out.push(obj(vec![
                ("ph", json!("C")),
                ("pid", json!(0u64)),
                ("name", Value::String(format!("w{} llc-misses", w.worker))),
                ("ts", json!(us(s.start_ns))),
                ("args", json!({ "misses": misses })),
            ]));
        }
        if let Some(mpki) = sample.mpki() {
            out.push(obj(vec![
                ("ph", json!("C")),
                ("pid", json!(0u64)),
                ("name", Value::String(format!("w{} mpki", w.worker))),
                ("ts", json!(us(s.start_ns))),
                ("args", json!({ "mpki": mpki })),
            ]));
        }
    }
}

fn worker_summary(w: &TraceWorker, lane: &Lane) -> Value {
    let scaled_low = w
        .windows
        .iter()
        .filter(|s| s.scaled_below(MULTIPLEX_WARN_RATIO))
        .count();
    let timing_only = w.windows.iter().filter(|s| s.timing_only()).count();
    let mut fields = vec![
        ("worker", json!(w.worker)),
        ("name", json!(w.name)),
        ("events", json!(w.events.len() as u64)),
        ("dropped", json!(w.dropped)),
    ];
    fields.extend(lane.json());
    fields.extend([
        ("windows", json!(w.windows.len() as u64)),
        ("windows_scaled_low", json!(scaled_low as u64)),
        ("windows_timing_only", json!(timing_only as u64)),
    ]);
    obj(fields)
}

/// The summary block of a trace document, and the one place a run's
/// events, drops and counter windows are tallied. It always carries the
/// window tallies and the multiplex-residency threshold
/// (`"warn_residency"`, so a saved document renders with the warnings
/// it was built with). A `traced` run's summary adds the event and drop
/// totals, each worker's lane and the run's [`Analysis`]; an untraced
/// one has no events to count or analyse.
pub fn summary(workers: &[TraceWorker], traced: bool) -> Value {
    let count = |f: fn(&WindowSample) -> bool| -> u64 {
        workers
            .iter()
            .flat_map(|w| w.windows)
            .filter(|s| f(s))
            .count() as u64
    };
    let windows = vec![
        ("windows", json!(count(|_| true))),
        (
            "windows_scaled_low",
            json!(count(|s| s.scaled_below(MULTIPLEX_WARN_RATIO))),
        ),
        (
            "windows_timing_only",
            json!(count(WindowSample::timing_only)),
        ),
        ("warn_residency", json!(MULTIPLEX_WARN_RATIO)),
    ];
    if !traced {
        return obj(windows);
    }
    let events: Vec<&[Event]> = workers.iter().map(|w| w.events).collect();
    let analysis = Analysis::of(&events);
    let mut summary = vec![
        (
            "events",
            json!(events.iter().map(|e| e.len() as u64).sum::<u64>()),
        ),
        (
            "dropped",
            json!(workers.iter().map(|w| w.dropped).sum::<u64>()),
        ),
    ];
    summary.extend(windows);
    summary.push((
        "workers",
        Value::Array(
            workers
                .iter()
                .zip(&analysis.lanes)
                .map(|(w, lane)| worker_summary(w, lane))
                .collect(),
        ),
    ));
    summary.extend(analysis.json());
    obj(summary)
}

/// Build a `ccs-trace/v1` document: `meta` (caller context — the run's
/// configuration and results) and `summary` ([`summary`] of the same
/// workers) surfaced verbatim, and Chrome `traceEvents` for each worker
/// that recorded events or closed windows.
pub fn document(name: &str, meta: Value, summary: Value, workers: &[TraceWorker]) -> Value {
    let mut trace_events = Vec::new();
    for w in workers {
        if w.events.is_empty() && w.windows.is_empty() {
            continue;
        }
        trace_events.push(obj(vec![
            ("ph", json!("M")),
            ("pid", json!(0u64)),
            ("tid", json!(w.worker as u64)),
            ("name", json!("thread_name")),
            ("args", json!({ "name": w.name })),
        ]));
        if !w.windows.is_empty() {
            trace_events.push(obj(vec![
                ("ph", json!("M")),
                ("pid", json!(0u64)),
                ("tid", json!((WINDOW_TID_BASE + w.worker) as u64)),
                ("name", json!("thread_name")),
                ("args", json!({ "name": format!("{} windows", w.name) })),
            ]));
        }
        for e in w.events {
            trace_events.push(event_json(w, e));
        }
        for s in w.windows {
            window_events(w, s, &mut trace_events);
        }
    }
    json!({
        "schema": SCHEMA,
        "name": name,
        "displayTimeUnit": "ms",
        "meta": meta,
        "summary": summary,
        "traceEvents": Value::Array(trace_events),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{render, warnings};
    use ccs_perf::{CounterKind, CounterSample, Reading};

    fn batch(ts: u64, dur: u64, seg: usize) -> Event {
        Event {
            ts_ns: ts,
            dur_ns: dur,
            kind: EventKind::Batch { seg },
        }
    }

    fn window(index: u64, start: u64, end: u64, sample: Option<CounterSample>) -> WindowSample {
        WindowSample {
            index,
            start_batch: 0,
            batches: 2,
            start_ns: start,
            end_ns: end,
            sample,
        }
    }

    fn sample(misses: u64, enabled: u64, running: u64) -> CounterSample {
        CounterSample {
            time_enabled_ns: enabled,
            time_running_ns: running,
            readings: vec![Reading {
                kind: CounterKind::LlcMisses,
                raw: misses,
                scaled: misses,
            }],
        }
    }

    fn doc_roundtrip(doc: &Value) -> Value {
        serde_json::from_str(&serde_json::to_string(doc).unwrap()).unwrap()
    }

    #[test]
    fn document_is_valid_chrome_trace_json() {
        let events = vec![
            batch(0, 100, 1),
            Event {
                ts_ns: 100,
                dur_ns: 50,
                kind: EventKind::Stall {
                    parked: true,
                    blocked: None,
                },
            },
            Event {
                ts_ns: 150,
                dur_ns: 0,
                kind: EventKind::Window { index: 0 },
            },
        ];
        let windows = vec![window(0, 0, 150, Some(sample(42, 100, 100)))];
        let workers = [TraceWorker {
            worker: 0,
            name: "worker 0".to_string(),
            events: &events,
            dropped: 0,
            windows: &windows,
        }];
        let doc = doc_roundtrip(&document(
            "t",
            json!({"workers": 1u64}),
            summary(&workers, true),
            &workers,
        ));
        assert_eq!(doc["schema"].as_str(), Some(SCHEMA));
        let Value::Array(tes) = &doc["traceEvents"] else {
            panic!("traceEvents must be an array");
        };
        assert!(!tes.is_empty());
        for te in tes {
            let ph = te["ph"].as_str().expect("every event has a phase");
            assert!(matches!(ph, "M" | "X" | "i" | "C"), "ph {ph}");
            assert!(!te["name"].is_null());
            if ph == "X" {
                assert!(te["ts"].as_f64().is_some() && te["dur"].as_f64().is_some());
            }
        }
        // One main-track name, one window-track name, three ring
        // events, one window span, one llc counter series point (no
        // instructions => no mpki point).
        assert_eq!(tes.len(), 2 + 3 + 1 + 1);
        assert_eq!(doc["summary"]["events"].as_u64(), Some(3));
        assert_eq!(doc["summary"]["windows"].as_u64(), Some(1));
    }

    #[test]
    fn an_untraced_summary_tallies_windows_only() {
        let windows = vec![window(0, 0, 100, None)];
        let workers = [
            TraceWorker {
                worker: 0,
                name: "worker 0".to_string(),
                events: &[],
                dropped: 0,
                windows: &windows,
            },
            TraceWorker {
                worker: 1,
                name: "worker 1".to_string(),
                events: &[],
                dropped: 0,
                windows: &[],
            },
        ];
        let s = summary(&workers, false);
        assert_eq!(s["windows"].as_u64(), Some(1));
        assert_eq!(s["windows_timing_only"].as_u64(), Some(1));
        for key in ["events", "dropped", "workers", "stall_share", "bottlenecks"] {
            assert!(s[key].is_null(), "{key}: {s:?}");
        }
        // A worker with neither events nor windows gets no track.
        let doc = document("t", Value::Null, s, &workers);
        let Value::Array(tes) = &doc["traceEvents"] else {
            panic!("traceEvents must be an array");
        };
        assert!(!tes.is_empty());
        assert!(
            tes.iter().all(|te| te["tid"].as_u64() != Some(1)),
            "{tes:?}"
        );
        // Nothing event-derived is printed; the window warning is.
        let text = render(&doc).unwrap();
        assert!(!text.contains("events"), "{text}");
        assert!(text.contains("1 windows are timing-only"), "{text}");
    }

    #[test]
    fn render_reports_and_warns() {
        let events = vec![batch(0, 100, 0)];
        let windows = vec![
            window(0, 0, 100, Some(sample(10, 1000, 200))), // 20% residency
            window(1, 100, 200, None),                      // timing-only
        ];
        let workers = [TraceWorker {
            worker: 3,
            name: "worker 3".to_string(),
            events: &events,
            dropped: 7,
            windows: &windows,
        }];
        let doc = document(
            "overflowing",
            json!({"engine": "parallel"}),
            summary(&workers, true),
            &workers,
        );
        let text = render(&doc).unwrap();
        assert!(text.contains("trace: overflowing"));
        assert!(text.contains("worker 3"));
        assert!(text.contains("dropped 7 events"), "{text}");
        assert!(text.contains("below 50% PMU residency"), "{text}");
        assert!(text.contains("timing-only"), "{text}");
    }

    #[test]
    fn stall_blame_and_occupancy_are_self_describing() {
        use crate::event::{Blocked, StallReason};
        let events = vec![
            Event {
                ts_ns: 0,
                dur_ns: 40,
                kind: EventKind::Stall {
                    parked: false,
                    blocked: Some(Blocked {
                        edge: 7,
                        seg: 1,
                        peer: 0,
                        reason: StallReason::ProducerEmpty,
                    }),
                },
            },
            Event {
                ts_ns: 50,
                dur_ns: 0,
                kind: EventKind::RingOccupancy {
                    ring: 7,
                    len: 96,
                    cap: 128,
                },
            },
        ];
        let workers = [TraceWorker {
            worker: 2,
            name: "worker 2".to_string(),
            events: &events,
            dropped: 0,
            windows: &[],
        }];
        let doc = doc_roundtrip(&document(
            "t",
            Value::Null,
            summary(&workers, true),
            &workers,
        ));
        let Value::Array(tes) = &doc["traceEvents"] else {
            panic!("traceEvents must be an array");
        };
        let stall = tes
            .iter()
            .find(|te| te["cat"].as_str() == Some("stall"))
            .unwrap();
        assert_eq!(stall["args"]["edge"].as_u64(), Some(7));
        assert_eq!(stall["args"]["seg"].as_u64(), Some(1));
        assert_eq!(stall["args"]["peer"].as_u64(), Some(0));
        assert_eq!(stall["args"]["reason"].as_str(), Some("producer-empty"));
        let occ = tes
            .iter()
            .find(|te| te["cat"].as_str() == Some("occupancy"))
            .unwrap();
        assert_eq!(occ["ph"].as_str(), Some("C"));
        assert_eq!(occ["name"].as_str(), Some("ring 7 occupancy"));
        assert_eq!(occ["args"]["len"].as_u64(), Some(96));
        assert_eq!(occ["args"]["cap"].as_u64(), Some(128));
    }

    #[test]
    fn instants_are_self_describing() {
        let at = |ts_ns, kind| Event {
            ts_ns,
            dur_ns: 0,
            kind,
        };
        let events = vec![at(30, EventKind::Window { index: 2 })];
        let workers = [TraceWorker {
            worker: 1,
            name: "worker 1".to_string(),
            events: &events,
            dropped: 0,
            windows: &[],
        }];
        let doc = doc_roundtrip(&document(
            "t",
            Value::Null,
            summary(&workers, true),
            &workers,
        ));
        let Value::Array(tes) = &doc["traceEvents"] else {
            panic!("traceEvents must be an array");
        };
        let instants: Vec<(&str, &str)> = tes
            .iter()
            .filter(|te| te["ph"].as_str() == Some("i"))
            .map(|te| {
                // Thread-scoped, on the worker's own track.
                assert_eq!(te["s"].as_str(), Some("t"));
                assert_eq!(te["tid"].as_u64(), Some(1));
                (te["cat"].as_str().unwrap(), te["name"].as_str().unwrap())
            })
            .collect();
        assert_eq!(instants, vec![("window", "window 2")]);
    }

    #[test]
    fn warn_residency_threshold_is_carried_by_the_document() {
        let events = vec![batch(0, 100, 0)];
        // 20% residency: below the threshold every document is built with.
        let windows = vec![window(0, 0, 100, Some(sample(10, 1000, 200)))];
        let workers = [TraceWorker {
            worker: 0,
            name: "worker 0".to_string(),
            events: &events,
            dropped: 0,
            windows: &windows,
        }];
        let doc = document("t", Value::Null, summary(&workers, true), &workers);
        let s = &doc["summary"];
        assert_eq!(s["warn_residency"].as_f64(), Some(MULTIPLEX_WARN_RATIO));
        assert_eq!(s["windows_scaled_low"].as_u64(), Some(1));
        let text = render(&doc).unwrap();
        assert!(text.contains("below 50% PMU residency"), "{text}");
        // A saved document built with another threshold renders with it.
        let saved: Value = serde_json::from_str(
            r#"{"schema": "ccs-trace/v1",
                "summary": {"windows": 1, "windows_scaled_low": 1, "warn_residency": 0.9}}"#,
        )
        .unwrap();
        let text = render(&saved).unwrap();
        assert!(
            text.contains("1 of 1 counter windows ran below 90% PMU residency"),
            "{text}"
        );
    }

    #[test]
    fn render_rejects_other_schemas() {
        assert!(render(&json!({"schema": "ccs-sweep/v1"})).is_err());
        assert!(render(&json!({"x": 1u64})).is_err());
    }

    #[test]
    fn clean_trace_renders_without_warnings() {
        let events = vec![batch(0, 10, 0)];
        let windows = vec![window(0, 0, 10, Some(sample(1, 100, 100)))];
        let workers = [TraceWorker {
            worker: 0,
            name: "worker 0".to_string(),
            events: &events,
            dropped: 0,
            windows: &windows,
        }];
        let doc = document("clean", Value::Null, summary(&workers, true), &workers);
        let text = render(&doc).unwrap();
        assert!(!text.contains("warning:"), "{text}");
    }

    #[test]
    fn warnings_are_read_from_the_summary_alone() {
        assert!(warnings(&json!({})).is_empty());
        assert!(warnings(&json!({"dropped": 0u64, "windows_scaled_low": 0u64})).is_empty());
        let all = warnings(&json!({
            "dropped": 4u64,
            "windows": 10u64,
            "windows_scaled_low": 3u64,
            "windows_timing_only": 2u64,
        }));
        assert_eq!(all.len(), 3, "{all:?}");
        assert!(
            all[0].starts_with("ring overflow dropped 4 events"),
            "{all:?}"
        );
        // Without a recorded threshold the default one is named.
        let pct = format!("{:.0}%", MULTIPLEX_WARN_RATIO * 100.0);
        assert!(
            all[1].starts_with(&format!(
                "3 of 10 counter windows ran below {pct} PMU residency"
            )),
            "{all:?}"
        );
        assert_eq!(
            all[2],
            "2 windows are timing-only (no counter group opened)"
        );
        let strict =
            warnings(&json!({"windows": 1u64, "windows_scaled_low": 1u64, "warn_residency": 0.75}));
        assert!(strict[0].contains("below 75% PMU residency"), "{strict:?}");
    }
}
