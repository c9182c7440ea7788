//! The analyzer against a synthetic trace document: every analysis
//! block (breakdowns, blame, occupancy, bottleneck ranking, chain,
//! drift) is checked against hand-computed expectations, through the
//! same document round-trip `ccs analyze FILE` takes.

use ccs_insight::{analyze_doc, render, top_bottleneck};
use ccs_obs::chrome::{document, TraceWorker};
use ccs_obs::{Blocked, Event, EventKind, StallReason, WindowSample};
use ccs_perf::{CounterKind, CounterSample, Reading};
use serde_json::{json, Value};

fn batch(ts: u64, dur: u64, seg: usize) -> Event {
    Event {
        ts_ns: ts,
        dur_ns: dur,
        kind: EventKind::Batch { seg },
    }
}

fn stall(ts: u64, dur: u64, blocked: Option<Blocked>) -> Event {
    Event {
        ts_ns: ts,
        dur_ns: dur,
        kind: EventKind::Stall {
            parked: false,
            blocked,
        },
    }
}

fn occ(ts: u64, ring: usize, len: u64, cap: u64) -> Event {
    Event {
        ts_ns: ts,
        dur_ns: 0,
        kind: EventKind::RingOccupancy { ring, len, cap },
    }
}

fn sample(misses: u64, instructions: u64) -> CounterSample {
    CounterSample {
        time_enabled_ns: 1000,
        time_running_ns: 1000,
        readings: vec![
            Reading {
                kind: CounterKind::Instructions,
                raw: instructions,
                scaled: instructions,
            },
            Reading {
                kind: CounterKind::LlcMisses,
                raw: misses,
                scaled: misses,
            },
        ],
    }
}

fn window(index: u64, start: u64, end: u64, mpki: u64) -> WindowSample {
    // 1000 instructions per window => mpki == misses.
    WindowSample {
        index,
        start_batch: index,
        batches: 1,
        start_ns: start,
        end_ns: end,
        sample: Some(sample(mpki, 1000)),
    }
}

fn starved(edge: usize, seg: usize, peer: usize) -> Option<Blocked> {
    Some(Blocked {
        edge,
        seg,
        peer,
        reason: StallReason::ProducerEmpty,
    })
}

#[test]
fn synthetic_document_analysis_is_exact() {
    // Worker 0 runs seg 0 flat out: 4 batches over [0, 4000).
    let w0_events: Vec<Event> = (0..4).map(|i| batch(i * 1000, 1000, 0)).collect();
    // Worker 1 runs seg 1 but starves on edge 7 behind seg 0 for most
    // of its span: 1000 ns of batches, 3000 ns of blamed stalls.
    let w1_events = vec![
        batch(0, 500, 1),
        stall(500, 2000, starved(7, 1, 0)),
        batch(2500, 500, 1),
        stall(3000, 1000, starved(7, 1, 0)),
        occ(3000, 7, 0, 128),
        occ(4000, 7, 32, 128),
    ];
    let workers = [
        TraceWorker {
            worker: 0,
            name: "worker 0".to_string(),
            events: &w0_events,
            dropped: 0,
            windows: &[],
        },
        TraceWorker {
            worker: 1,
            name: "worker 1".to_string(),
            events: &w1_events,
            dropped: 0,
            windows: &[],
        },
    ];
    let doc = document("synthetic", json!({"engine": "parallel"}), &workers);
    // Round-trip through text to mimic a file on disk.
    let doc: Value = serde_json::from_str(&serde_json::to_string(&doc).unwrap()).unwrap();
    let analysis = analyze_doc(&doc).unwrap();
    assert_eq!(analysis["schema"].as_str(), Some("ccs-analysis/v1"));
    assert_eq!(analysis["name"].as_str(), Some("synthetic"));
    assert_eq!(analysis["meta"]["engine"].as_str(), Some("parallel"));

    // Breakdowns: worker 0 is 100% batch; worker 1 is 25% batch, 75%
    // stall over its 4000 ns span.
    let w = &analysis["workers"];
    assert_eq!(w[0]["batch_share"].as_f64(), Some(1.0));
    assert_eq!(w[0]["idle_ms"].as_f64(), Some(0.0));
    assert_eq!(w[1]["batch_share"].as_f64(), Some(0.25));
    assert_eq!(w[1]["stall_share"].as_f64(), Some(0.75));
    assert_eq!(w[1]["stalls"].as_u64(), Some(2));

    // Blame: one row — edge 7, seg 0 starves seg 1, 3000 ns over 2 stalls.
    let rows = &analysis["stall_blame"];
    assert_eq!(rows[0]["edge"].as_u64(), Some(7));
    assert_eq!(rows[0]["blocked_seg"].as_u64(), Some(1));
    assert_eq!(rows[0]["culprit_seg"].as_u64(), Some(0));
    assert_eq!(rows[0]["reason"].as_str(), Some("producer-empty"));
    assert_eq!(rows[0]["stalls"].as_u64(), Some(2));
    assert_eq!(rows[0]["stall_ms"].as_f64(), Some(0.003));
    assert!(rows[1].is_null());

    // Occupancy: ring 7 sampled twice, mean 16/128.
    let occ = &analysis["occupancy"][0];
    assert_eq!(occ["ring"].as_u64(), Some(7));
    assert_eq!(occ["samples"].as_u64(), Some(2));
    assert_eq!(occ["mean_len"].as_f64(), Some(16.0));
    assert_eq!(occ["max_len"].as_u64(), Some(32));
    assert_eq!(occ["mean_fill"].as_f64(), Some(0.125));

    // Bottleneck: seg 0 via edge 7, all of the blamed time.
    let top = &analysis["summary"]["top_bottleneck"];
    assert_eq!(top["seg"].as_u64(), Some(0));
    assert_eq!(top["edge"].as_u64(), Some(7));
    assert_eq!(top["reason"].as_str(), Some("producer-empty"));
    assert_eq!(analysis["bottlenecks"][0]["share"].as_f64(), Some(1.0));
    assert_eq!(analysis["chain"][0]["seg"].as_u64(), Some(0));

    // Run-wide stall share: 3000 stall / (5000 batch + 3000 stall).
    let s = analysis["summary"]["stall_share"].as_f64().unwrap();
    assert!((s - 0.375).abs() < 1e-9, "{s}");

    // Text render names the culprit and the edge.
    let text = render(&analysis).unwrap();
    assert!(text.contains("bottleneck: seg 0 via edge 7"), "{text}");
    assert!(text.contains("seg 0 starves seg 1"), "{text}");
    assert!(text.contains("ring 7: mean 16.00/128"), "{text}");
}

#[test]
fn chain_follows_who_the_culprit_waits_on() {
    // seg 2 starves seg 1 (edge 5, heavy) while seg 2 itself is
    // backpressured by seg 3 (edge 9): the chain must walk 2 -> 3.
    let events = vec![
        stall(0, 5000, starved(5, 1, 2)),
        stall(5000, 2000, {
            Some(Blocked {
                edge: 9,
                seg: 2,
                peer: 3,
                reason: StallReason::ConsumerFull,
            })
        }),
    ];
    let workers = [TraceWorker {
        worker: 0,
        name: "worker 0".to_string(),
        events: &events,
        dropped: 0,
        windows: &[],
    }];
    let doc = document("chained", Value::Null, &workers);
    let analysis = analyze_doc(&doc).unwrap();
    let chain = &analysis["chain"];
    assert_eq!(chain[0]["seg"].as_u64(), Some(2));
    assert_eq!(chain[0]["edge"].as_u64(), Some(5));
    assert_eq!(chain[1]["seg"].as_u64(), Some(3));
    assert_eq!(chain[1]["edge"].as_u64(), Some(9));
    assert_eq!(chain[1]["reason"].as_str(), Some("consumer-full"));
    assert!(chain[2].is_null());
    let text = render(&analysis).unwrap();
    assert!(
        text.contains(
            "chain: seg 2 (via edge 5, producer-empty) <- seg 3 (via edge 9, consumer-full)"
        ),
        "{text}"
    );
}

#[test]
fn drift_flags_an_mpki_step_between_windows() {
    // 20 steady windows at mpki 2, then a persistent jump to 10.
    let windows: Vec<WindowSample> = (0..30)
        .map(|i| {
            let mpki = if i < 20 { 2 } else { 10 };
            window(i, i * 1000, (i + 1) * 1000, mpki)
        })
        .collect();
    let events = vec![batch(0, 30_000, 0)];
    let workers = [TraceWorker {
        worker: 0,
        name: "worker 0".to_string(),
        events: &events,
        dropped: 0,
        windows: &windows,
    }];
    let doc = document("drifting", Value::Null, &workers);
    let analysis = analyze_doc(&doc).unwrap();
    let w = &analysis["drift"][0];
    assert_eq!(w["worker"].as_u64(), Some(0));
    assert_eq!(w["windows"].as_u64(), Some(30));
    let cps = &w["mpki"]["change_points"];
    assert_eq!(cps[0].as_u64(), Some(20), "{cps:?}");
    // Stall share is identically zero: steady.
    let Value::Array(scps) = &w["stall_share"]["change_points"] else {
        panic!("change_points must be an array");
    };
    assert!(scps.is_empty());
    let text = render(&analysis).unwrap();
    assert!(text.contains("mpki ewma"), "{text}");
    assert!(text.contains("shift at window 20"), "{text}");
}

#[test]
fn drift_flags_a_stall_share_step_on_timing_only_windows() {
    // No counter group opened, so no window has an mpki; the stall
    // share alone still shows the step: 20 windows without a stall,
    // then 600 of every 1000 ns stalled.
    let windows: Vec<WindowSample> = (0..30)
        .map(|i| WindowSample {
            index: i,
            start_batch: i,
            batches: 1,
            start_ns: i * 1000,
            end_ns: (i + 1) * 1000,
            sample: None,
        })
        .collect();
    let mut events = Vec::new();
    for i in 0..30u64 {
        if i < 20 {
            events.push(batch(i * 1000, 1000, 0));
        } else {
            events.push(stall(i * 1000, 600, None));
            events.push(batch(i * 1000 + 600, 400, 0));
        }
    }
    let workers = [TraceWorker {
        worker: 0,
        name: "worker 0".to_string(),
        events: &events,
        dropped: 0,
        windows: &windows,
    }];
    let doc = document("stalling", Value::Null, &workers);
    let analysis = analyze_doc(&doc).unwrap();
    let w = &analysis["drift"][0];
    assert_eq!(w["windows"].as_u64(), Some(30));
    let Value::Array(mcps) = &w["mpki"]["change_points"] else {
        panic!("change_points must be an array");
    };
    assert!(mcps.is_empty(), "{mcps:?}");
    assert!(w["mpki"]["ewma"].is_null());
    let cps = &w["stall_share"]["change_points"];
    assert_eq!(cps[0].as_u64(), Some(20), "{cps:?}");
    let level = w["stall_share"]["ewma"].as_f64().unwrap();
    assert!((level - 0.6).abs() < 0.05, "{level}");
}

#[test]
fn live_top_bottleneck_matches_the_document_path() {
    let w1_events = vec![
        stall(0, 2000, starved(7, 1, 0)),
        stall(2000, 1000, starved(7, 1, 0)),
    ];
    let b = top_bottleneck(&[(0, &[]), (1, &w1_events)]).unwrap();
    assert_eq!(b.seg, 0);
    assert_eq!(b.edge, 7);
    assert_eq!(b.stalls, 2);
    assert!((b.blamed_ms - 0.003).abs() < 1e-12);
    assert!(top_bottleneck(&[(0, &[batch(0, 10, 0)])]).is_none());
}

#[test]
fn rejects_non_trace_documents() {
    assert!(analyze_doc(&json!({"schema": "ccs-sweep/v1"})).is_err());
    assert!(analyze_doc(&json!({"x": 1u64})).is_err());
    assert!(render(&json!({"schema": "ccs-trace/v1"})).is_err());
}

#[test]
fn a_stall_inside_a_batch_span_is_stall_time_not_batch_time() {
    // Worker 1's one batch spans [0, 4000) and waits inside it twice,
    // 1000 + 1000 ns, for its producer's next granule on edge 7: 2000 ns
    // busy and 2000 ns stalled, not 4000 + 2000.
    let w1_events = vec![
        batch(0, 4000, 1),
        stall(500, 1000, starved(7, 1, 0)),
        stall(2500, 1000, starved(7, 1, 0)),
        stall(4000, 500, starved(7, 1, 0)),
    ];
    let workers = [TraceWorker {
        worker: 1,
        name: "worker 1".to_string(),
        events: &w1_events,
        dropped: 0,
        windows: &[],
    }];
    let doc = document("nested", json!({}), &workers);
    assert_eq!(
        doc["summary"]["workers"][0]["batch_ms"].as_f64(),
        Some(0.002)
    );
    assert_eq!(
        doc["summary"]["workers"][0]["stall_ms"].as_f64(),
        Some(0.0025)
    );
    let analysis = analyze_doc(&doc).unwrap();
    let w = &analysis["workers"][0];
    assert_eq!(w["batch_ms"].as_f64(), Some(0.002));
    assert_eq!(w["stall_ms"].as_f64(), Some(0.0025));
    assert_eq!(analysis["summary"]["stall_share"].as_f64(), Some(2.5 / 4.5));
    // All three are blamed on the starved edge.
    assert_eq!(analysis["stall_blame"][0]["stalls"].as_u64(), Some(3));
}
