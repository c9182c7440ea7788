//! Golden-file round trips for the versioned result documents, and the
//! `ccs partition` listings.
//!
//! The fixtures are checked-in outputs of real runs: two `ccs-trace/v1`
//! exports of the retired `ccs trace` — one written before the summary
//! carried the stall analysis, one written with it — two `ccs run-dag
//! -o` documents of one small pipeline, traced and untraced, and a
//! `ccs-sweep/v1` grid. Each must keep rendering through `ccs report`
//! exactly as the checked-in text, so a schema or renderer change that
//! would orphan saved documents fails here instead of in a user's
//! results directory. The two
//! `ccs partition` listings pin the partitioner's output on the
//! `wide-dag` shape and on `filterbank`.

use ccs_cli::{run, Args};

fn args(words: &[&str]) -> Args {
    Args::parse(words.iter().map(|s| s.to_string())).unwrap()
}

fn fixture(name: &str) -> String {
    format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"))
}

fn golden(name: &str) -> String {
    std::fs::read_to_string(fixture(name)).expect("fixture exists")
}

#[test]
fn report_renders_each_schema_exactly_as_checked_in() {
    // `ccs` prints with a trailing newline the returned string lacks;
    // compare modulo that.
    for (doc, text) in [
        ("sweep-v1.json", "sweep-v1.txt"),
        ("trace-v1.json", "trace-v1.txt"),
        ("trace-v1-summary.json", "trace-v1-summary.txt"),
    ] {
        let rendered = run("report", &args(&[&fixture(doc)])).unwrap();
        assert_eq!(
            rendered.trim_end(),
            golden(text).trim_end(),
            "{doc} no longer renders as {text}"
        );
    }
}

#[test]
fn run_documents_render_exactly_as_checked_in() {
    // What `ccs run-dag` printed of each run, less its `wrote` line,
    // byte for byte (`ccs` adds the final newline).
    for (doc, text) in [
        ("run-dag-traced.json", "run-dag-traced.txt"),
        ("run-dag-untraced.json", "run-dag-untraced.txt"),
    ] {
        let rendered = run("report", &args(&[&fixture(doc)])).unwrap();
        assert_eq!(
            format!("{rendered}\n"),
            golden(text),
            "{doc} no longer renders as {text}"
        );
    }
    // An untraced run prints nothing derived from events.
    let untraced = golden("run-dag-untraced.txt");
    for absent in ["events", "stall share", "  bottleneck:"] {
        assert!(!untraced.contains(absent), "{absent}: {untraced}");
    }
}

#[test]
fn a_run_document_carries_the_run_in_its_meta() {
    // `meta` is the run as `run-dag --json` reported it before the
    // document existed, `warmup` and `windows_every` named as the
    // trace documents name them; `per_segment` where counters were on,
    // and `counters_reason` where they were asked for and none opened.
    let keys = |doc: &str| -> Vec<String> {
        let v: serde_json::Value = serde_json::from_str(&golden(doc)).unwrap();
        assert_eq!(v["schema"].as_str(), Some("ccs-trace/v1"));
        match &v["meta"] {
            serde_json::Value::Object(pairs) => pairs.iter().map(|(k, _)| k.clone()).collect(),
            other => panic!("{doc}: meta {other:?}"),
        }
    };
    let mut want: Vec<&str> = vec![
        "strategy",
        "placement",
        "pin_cores",
        "pinned_workers",
        "segments",
        "workers",
        "granularity_t",
        "boundary_words",
        "rounds",
        "warmup",
        "trace_enabled",
        "trace_events",
        "trace_dropped",
        "windows_every",
        "windows",
        "measured_sink_items",
        "bandwidth",
        "firings",
        "sink_items",
        "wall_ms",
        "stall_ms",
        "predicted_imbalance",
        "profiled_imbalance",
        "busy_imbalance",
        "owner",
        "profiled_ns",
        "bottleneck_gap",
        "cross_worker_items_per_round",
        "items_per_sec",
        "digest",
        "counters",
        "counted_workers",
        "per_worker",
    ];
    want.push("per_segment");
    assert_eq!(keys("run-dag-traced.json"), want);
    want.insert(want.len() - 1, "counters_reason");
    assert_eq!(keys("run-dag-untraced.json"), want);
}

#[test]
fn a_live_run_writes_each_fact_once() {
    // A traced, windowed, counted run: `meta` is the run alone. The
    // event and drop tallies are the summary's, and the counter
    // windows are the `traceEvents` window spans, one for each window
    // the summary counts, worker by worker.
    let graph = tmp("once.json");
    run(
        "gen",
        &args(&["pipeline", "--len", "6", "--state", "64", "-o", &graph]),
    )
    .unwrap();
    let out = run(
        "run-dag",
        &args(&[
            &graph,
            "--m",
            "1024",
            "--workers",
            "2",
            "--rounds",
            "3",
            "--trace",
            "--windows",
            "1",
            "--counters",
            "--json",
        ]),
    )
    .unwrap();
    std::fs::remove_file(graph).ok();
    let v: serde_json::Value = serde_json::from_str(&out).unwrap();
    let keys = |o: &serde_json::Value| -> Vec<String> {
        match o {
            serde_json::Value::Object(pairs) => pairs.iter().map(|(k, _)| k.clone()).collect(),
            other => panic!("not an object: {other:?}"),
        }
    };
    let meta = &v["meta"];
    let mut want = vec![
        "strategy",
        "placement",
        "pin_cores",
        "pinned_workers",
        "segments",
        "workers",
        "granularity_t",
        "boundary_words",
        "rounds",
        "warmup",
        "windows_every",
        "measured_sink_items",
        "bandwidth",
        "firings",
        "sink_items",
        "wall_ms",
        "stall_ms",
        "stall_share",
        "predicted_imbalance",
        "profiled_imbalance",
        "busy_imbalance",
        "owner",
        "profiled_ns",
        "bottleneck_gap",
        "cross_worker_items_per_round",
        "items_per_sec",
        "digest",
        "counters",
        "counted_workers",
        "per_worker",
    ];
    // Where no counter group opened (`CCS_NO_PERF=1`, a paranoid
    // kernel), the reason is recorded beside the state.
    if meta["counters"].as_str() == Some("unavailable") {
        want.push("counters_reason");
    }
    want.push("per_segment");
    assert_eq!(keys(meta), want);
    for w in 0..2 {
        assert_eq!(
            keys(&meta["per_worker"][w]),
            [
                "worker",
                "segments",
                "firings",
                "batches",
                "stalls",
                "stall_ms",
                "busy_ms",
                "modelled_share",
                "profiled_share",
                "pinned_cpu",
                "counters",
            ]
        );
    }
    let serde_json::Value::Array(events) = &v["traceEvents"] else {
        panic!("traceEvents: {:?}", v["traceEvents"]);
    };
    let spans = |tid: Option<u64>| -> u64 {
        events
            .iter()
            .filter(|e| e["ph"].as_str() == Some("X") && e["cat"].as_str() == Some("window"))
            .filter(|e| tid.is_none() || e["tid"].as_u64() == tid)
            .count() as u64
    };
    let summary = &v["summary"];
    assert!(spans(None) > 0);
    assert_eq!(summary["windows"].as_u64(), Some(spans(None)));
    for w in 0..2 {
        // Worker `w`'s windows sit on track `1000 + w`.
        assert_eq!(
            summary["workers"][w]["windows"].as_u64(),
            Some(spans(Some(1000 + w as u64)))
        );
    }
}

/// A fresh temporary path for this test process.
fn tmp(name: &str) -> String {
    std::env::temp_dir()
        .join(format!("ccs-golden-{name}-{}", std::process::id()))
        .to_string_lossy()
        .into_owned()
}

#[test]
fn a_live_run_prints_what_report_prints_of_its_saved_document() {
    // The fixtures' graph: a live run, traced or not, prints exactly
    // what `ccs report` then prints of its own `-o` file, and the line
    // that says where it went.
    let graph = tmp("fix-run.json");
    run(
        "gen",
        &args(&["pipeline", "--len", "6", "--state", "64", "-o", &graph]),
    )
    .unwrap();
    let saved = tmp("run-doc.json");
    for extra in [
        &[][..],
        &["--counters", "--warmup", "1"],
        &["--trace", "--windows", "1", "--counters", "--warmup", "1"],
    ] {
        let mut argv = vec![
            &graph[..],
            "--m",
            "1024",
            "--workers",
            "2",
            "--rounds",
            "3",
            "-o",
            &saved,
        ];
        argv.extend(extra);
        let live = run("run-dag", &args(&argv)).unwrap();
        let reported = run("report", &args(&[&saved])).unwrap();
        assert_eq!(
            live,
            format!("{reported}wrote {saved} — load it at ui.perfetto.dev or chrome://tracing"),
            "{extra:?}"
        );
    }
    std::fs::remove_file(saved).ok();
    std::fs::remove_file(graph).ok();
}

#[test]
fn fixture_documents_carry_their_schema_tags() {
    for (doc, schema) in [
        ("sweep-v1.json", "ccs-sweep/v1"),
        ("trace-v1.json", "ccs-trace/v1"),
        ("trace-v1-summary.json", "ccs-trace/v1"),
        ("run-dag-traced.json", "ccs-trace/v1"),
        ("run-dag-untraced.json", "ccs-trace/v1"),
    ] {
        let v: serde_json::Value = serde_json::from_str(&golden(doc)).unwrap();
        assert_eq!(v["schema"].as_str(), Some(schema), "{doc}");
    }
}

#[test]
fn report_refuses_a_bench_record_by_its_schema() {
    // The `ccs bench` history records are gone with the command; a
    // saved one is refused naming its schema, not rendered as a sweep.
    let path = std::env::temp_dir()
        .join(format!(
            "ccs-golden-bench-record-{}.json",
            std::process::id()
        ))
        .to_string_lossy()
        .into_owned();
    std::fs::write(&path, r#"{"schema": "ccs-bench/v1"}"#).unwrap();
    let err = run("report", &args(&[&path])).unwrap_err();
    std::fs::remove_file(&path).ok();
    assert!(err.to_string().contains("ccs-bench/v1"), "{err}");
}

#[test]
fn report_refuses_an_analysis_document_and_points_to_the_trace() {
    // `ccs analyze` no longer writes a second document beside a trace:
    // a saved one is refused naming its schema, with the pointer to the
    // trace whose summary carries the same analysis.
    let path = std::env::temp_dir()
        .join(format!("ccs-golden-analysis-{}.json", std::process::id()))
        .to_string_lossy()
        .into_owned();
    std::fs::write(&path, r#"{"schema": "ccs-analysis/v1", "name": "x"}"#).unwrap();
    let err = run("report", &args(&[&path])).unwrap_err().to_string();
    std::fs::remove_file(&path).ok();
    assert!(err.contains("schema: ccs-analysis/v1"), "{err}");
    assert!(err.contains("run `ccs report` on the trace"), "{err}");
}

#[test]
fn analyze_refuses_a_trace_document_and_names_ccs_report() {
    // `ccs analyze` reads graphs only; a trace is not mistaken for a
    // malformed graph, it is named and sent to `ccs report`.
    let trace = fixture("trace-v1-summary.json");
    let err = run("analyze", &args(&[&trace])).unwrap_err().to_string();
    assert!(err.contains("is a ccs-trace/v1 document"), "{err}");
    assert!(err.contains(&format!("`ccs report {trace}`")), "{err}");
    assert!(!err.contains("not a StreamGraph JSON"), "{err}");
}

#[test]
fn report_refuses_a_multi_document_file_as_not_json() {
    // One document per file: a file of newline-separated documents is
    // not read as a history of them, it is refused up front.
    let path = std::env::temp_dir()
        .join(format!("ccs-golden-ndjson-{}.ndjson", std::process::id()))
        .to_string_lossy()
        .into_owned();
    let line = serde_json::to_string(
        &serde_json::from_str::<serde_json::Value>(&golden("sweep-v1.json")).unwrap(),
    )
    .unwrap();
    std::fs::write(&path, format!("{line}\n{line}\n")).unwrap();
    let err = run("report", &args(&[&path])).unwrap_err();
    std::fs::remove_file(&path).ok();
    assert!(err.to_string().contains("is not JSON"), "{err}");
}

#[test]
fn report_refuses_a_document_without_a_schema_tag() {
    // An untagged document is not guessed at: the error says the tag
    // is missing and which command writes a document it can render.
    let path = std::env::temp_dir()
        .join(format!("ccs-golden-untagged-{}.json", std::process::id()))
        .to_string_lossy()
        .into_owned();
    std::fs::write(&path, r#"{"sweep": "x", "cells": []}"#).unwrap();
    let err = run("report", &args(&[&path])).unwrap_err().to_string();
    std::fs::remove_file(&path).ok();
    assert!(err.contains("schema: missing"), "{err}");
    assert!(err.contains("ccs sweep"), "{err}");
}

/// `ccs partition GRAPH --m M` on a graph `ccs gen` writes, against the
/// checked-in listing: strategy, component count, bandwidth, boundary
/// and every component's members. The listings pin the partitioner's
/// choices move for move, so a change to its arithmetic or its search
/// that should leave the result alone has to leave these alone too.
#[test]
fn partition_listings_match_the_checked_in_ones() {
    for (gen, m, listing) in [
        (
            &["layered", "--layers", "32", "--width", "36"][..],
            "4096",
            "partition-wide-dag.txt",
        ),
        (
            &["app", "filterbank"][..],
            "512",
            "partition-filterbank.txt",
        ),
    ] {
        let graph = run("gen", &args(gen)).unwrap();
        let path = std::env::temp_dir()
            .join(format!("ccs-golden-{listing}-{}.json", std::process::id()))
            .to_string_lossy()
            .into_owned();
        std::fs::write(&path, graph).unwrap();
        let out = run("partition", &args(&[&path, "--m", m]));
        std::fs::remove_file(&path).ok();
        assert_eq!(
            out.unwrap().trim_end(),
            golden(listing).trim_end(),
            "ccs partition drifted from {listing}"
        );
    }
}
