//! The stall analysis a trace document's summary carries, against
//! synthetic timelines: every block (time split, blame, occupancy,
//! bottleneck ranking, chain, run-wide stall share) is checked against
//! hand-computed numbers, through the text round trip a saved document
//! takes on its way to `ccs report`.

use ccs_obs::chrome::{document, summary, TraceWorker};
use ccs_obs::report::render;
use ccs_obs::{Analysis, Blocked, Event, EventKind, StallReason};
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

fn starved(edge: usize, seg: usize, peer: usize) -> Option<Blocked> {
    Some(Blocked {
        edge,
        seg,
        peer,
        reason: StallReason::ProducerEmpty,
    })
}

fn worker(worker: usize, events: &[Event]) -> TraceWorker<'_> {
    TraceWorker {
        worker,
        name: format!("worker {worker}"),
        events,
        dropped: 0,
        windows: &[],
    }
}

/// The document as a saved file reads back.
fn saved(name: &str, meta: Value, workers: &[TraceWorker]) -> Value {
    let doc = document(name, meta, summary(workers, true), workers);
    serde_json::from_str(&serde_json::to_string(&doc).unwrap()).unwrap()
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
    let workers = [worker(0, &w0_events), worker(1, &w1_events)];
    let doc = saved("synthetic", json!({"engine": "parallel"}), &workers);
    let s = &doc["summary"];

    // Time split: worker 0 is all batch; worker 1 is 25% batch, 75%
    // stall over its 4000 ns span.
    let split = |w: &Value| -> Vec<Option<f64>> {
        [
            "span_ms",
            "batch_ms",
            "stall_ms",
            "idle_ms",
            "batch_share",
            "stall_share",
            "idle_share",
        ]
        .iter()
        .map(|k| w[*k].as_f64())
        .collect()
    };
    let counts = |w: &Value| -> Vec<Option<u64>> {
        ["batches", "stalls", "parks"]
            .iter()
            .map(|k| w[*k].as_u64())
            .collect()
    };
    let w = &s["workers"];
    assert_eq!(
        split(&w[0]),
        [0.004, 0.004, 0.0, 0.0, 1.0, 0.0, 0.0].map(Some)
    );
    assert_eq!(counts(&w[0]), [4, 0, 0].map(Some));
    assert_eq!(
        split(&w[1]),
        [0.004, 0.001, 0.003, 0.0, 0.25, 0.75, 0.0].map(Some)
    );
    assert_eq!(counts(&w[1]), [2, 2, 0].map(Some));

    // Blame: one row — edge 7, seg 0 starves seg 1, 3000 ns over 2 stalls.
    let rows = &s["stall_blame"];
    assert_eq!(rows[0]["edge"].as_u64(), Some(7));
    assert_eq!(rows[0]["blocked_seg"].as_u64(), Some(1));
    assert_eq!(rows[0]["culprit_seg"].as_u64(), Some(0));
    assert_eq!(rows[0]["reason"].as_str(), Some("producer-empty"));
    assert_eq!(rows[0]["stalls"].as_u64(), Some(2));
    assert_eq!(rows[0]["stall_ms"].as_f64(), Some(0.003));
    assert!(rows[1].is_null());

    // Occupancy: ring 7 sampled twice, mean 16/128.
    let occ = &s["occupancy"][0];
    assert_eq!(occ["ring"].as_u64(), Some(7));
    assert_eq!(occ["samples"].as_u64(), Some(2));
    assert_eq!(occ["cap"].as_u64(), Some(128));
    assert_eq!(occ["mean_len"].as_f64(), Some(16.0));
    assert_eq!(occ["max_len"].as_u64(), Some(32));
    assert_eq!(occ["mean_fill"].as_f64(), Some(0.125));
    assert!(s["occupancy"][1].is_null());

    // Bottleneck: seg 0 via edge 7, all of the blamed time; the chain
    // ends there, seg 0 waiting on nobody.
    let top = &s["bottlenecks"][0];
    assert_eq!(top["seg"].as_u64(), Some(0));
    assert_eq!(top["edge"].as_u64(), Some(7));
    assert_eq!(top["reason"].as_str(), Some("producer-empty"));
    assert_eq!(top["blamed_ms"].as_f64(), Some(0.003));
    assert_eq!(top["stalls"].as_u64(), Some(2));
    assert_eq!(top["share"].as_f64(), Some(1.0));
    assert!(s["bottlenecks"][1].is_null());
    let chain = &s["chain"];
    assert_eq!(chain[0]["seg"].as_u64(), Some(0));
    assert_eq!(chain[0]["edge"].as_u64(), Some(7));
    assert_eq!(chain[0]["blamed_ms"].as_f64(), Some(0.003));
    assert!(chain[1].is_null());

    // Run-wide stall share: 3000 stall / (5000 batch + 3000 stall).
    assert_eq!(s["stall_share"].as_f64(), Some(0.375));

    // The text render carries the analysis lines as they read before
    // the analysis moved into the trace summary.
    let text = render(&doc).unwrap();
    let want = "  worker 0: 0.00 ms span — 100.0% batch, 0.0% stall (0 parked), 0.0% idle (4 batches, 0 stalls)
  worker 1: 0.00 ms span — 25.0% batch, 75.0% stall (0 parked), 0.0% idle (2 batches, 2 stalls)
  stall blame (who blocks whom):
    edge 7: seg 0 starves seg 1 — 2 stalls, 0.00 ms
  ring occupancy:
    ring 7: mean 16.00/128 (12.5% full), max 32 — 2 samples
  bottleneck: seg 0 via edge 7 (producer-empty) — 0.00 ms blamed
  stall share (run): 37.5%
";
    assert!(text.ends_with(want), "{text}");
}

#[test]
fn chain_follows_who_the_culprit_waits_on() {
    // seg 2 starves seg 1 (edge 5, heavy) while seg 2 itself is
    // backpressured by seg 3 (edge 9): the chain must walk 2 -> 3.
    let events = vec![
        stall(0, 5000, starved(5, 1, 2)),
        stall(
            5000,
            2000,
            Some(Blocked {
                edge: 9,
                seg: 2,
                peer: 3,
                reason: StallReason::ConsumerFull,
            }),
        ),
    ];
    let doc = saved("chained", Value::Null, &[worker(0, &events)]);
    let chain = &doc["summary"]["chain"];
    assert_eq!(chain[0]["seg"].as_u64(), Some(2));
    assert_eq!(chain[0]["edge"].as_u64(), Some(5));
    assert_eq!(chain[1]["seg"].as_u64(), Some(3));
    assert_eq!(chain[1]["edge"].as_u64(), Some(9));
    assert_eq!(chain[1]["reason"].as_str(), Some("consumer-full"));
    assert_eq!(chain[1]["blamed_ms"].as_f64(), Some(0.002));
    assert!(chain[2].is_null());
    let text = render(&doc).unwrap();
    assert!(
        text.contains(
            "chain: seg 2 (via edge 5, producer-empty) <- seg 3 (via edge 9, consumer-full)"
        ),
        "{text}"
    );
}

#[test]
fn live_top_bottleneck_matches_the_document_path() {
    // `ccs sweep` ranks the live events; the document's summary is
    // ranked by the same analysis.
    let w1_events = vec![
        stall(0, 2000, starved(7, 1, 0)),
        stall(2000, 1000, starved(7, 1, 0)),
    ];
    let b = Analysis::of(&[&[], &w1_events]).bottlenecks[0];
    assert_eq!((b.seg, b.edge, b.stalls, b.blamed_ns), (0, 7, 2, 3000));
    let doc = saved(
        "live",
        Value::Null,
        &[worker(0, &[]), worker(1, &w1_events)],
    );
    let top = &doc["summary"]["bottlenecks"][0];
    assert_eq!(top["seg"].as_u64(), Some(b.seg as u64));
    assert_eq!(top["edge"].as_u64(), Some(b.edge as u64));
    assert_eq!(top["stalls"].as_u64(), Some(b.stalls));
    assert_eq!(top["blamed_ms"].as_f64(), Some(0.003));
    assert!(Analysis::of(&[&[batch(0, 10, 0)]]).bottlenecks.is_empty());
}

#[test]
fn rejects_non_trace_documents() {
    assert!(render(&json!({"schema": "ccs-sweep/v1"})).is_err());
    assert!(render(&json!({"x": 1u64})).is_err());
    // A trace document without its summary block is refused too.
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
    let workers = [worker(1, &w1_events)];
    let doc = document("nested", json!({}), summary(&workers, true), &workers);
    let s = &doc["summary"];
    let w = &s["workers"][0];
    assert_eq!(w["batch_ms"].as_f64(), Some(0.002));
    assert_eq!(w["stall_ms"].as_f64(), Some(0.0025));
    assert_eq!(w["span_ms"].as_f64(), Some(0.0045));
    assert_eq!(s["stall_share"].as_f64(), Some(2.5 / 4.5));
    // All three are blamed on the starved edge.
    assert_eq!(s["stall_blame"][0]["stalls"].as_u64(), Some(3));
}
