//! Golden-file round trips for the versioned result documents, and the
//! `ccs partition` listings.
//!
//! The fixtures are checked-in outputs of real runs: a `ccs-trace/v1`
//! export, the `ccs-analysis/v1` document `ccs analyze` derives from
//! it, and a `ccs-sweep/v1` grid. Each must keep rendering through
//! `ccs report` exactly as the checked-in text, and the analyzer must
//! keep regenerating the analysis fixture from the trace fixture —
//! so a schema or renderer change that would orphan saved documents
//! fails here instead of in a user's results directory. The two
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
        ("analysis-v1.json", "analysis-v1.txt"),
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
fn analyze_regenerates_the_analysis_fixture_from_the_trace() {
    let out = run("analyze", &args(&[&fixture("trace-v1.json"), "--json"])).unwrap();
    assert_eq!(
        out.trim_end(),
        golden("analysis-v1.json").trim_end(),
        "ccs analyze drifted from the checked-in ccs-analysis/v1 fixture"
    );
}

#[test]
fn analyze_text_mode_matches_the_report_render() {
    // The two user-facing ways to read an analysis — `ccs analyze
    // TRACE` directly and `ccs report` over the saved document — must
    // agree.
    let direct = run("analyze", &args(&[&fixture("trace-v1.json")])).unwrap();
    assert_eq!(direct.trim_end(), golden("analysis-v1.txt").trim_end());
}

#[test]
fn instants_the_analyzer_does_not_read_leave_the_analysis_unchanged() {
    // Saved traces may carry instants this reader does not know: a
    // `"migration"` handoff from a run of the removed online
    // controller, or a category a newer writer adds. The analyzer
    // skips them, so such a trace analyzes exactly as the same trace
    // without them.
    let mut doc: serde_json::Value = serde_json::from_str(&golden("trace-v1.json")).unwrap();
    let serde_json::Value::Object(pairs) = &mut doc else {
        panic!("trace fixture is not an object");
    };
    let Some((_, serde_json::Value::Array(tes))) =
        pairs.iter_mut().find(|(k, _)| k == "traceEvents")
    else {
        panic!("trace fixture has no traceEvents array");
    };
    for instant in [
        r#"{"ph": "i", "s": "t", "pid": 0, "tid": 0, "name": "migrate seg 1: w0 -> w1",
            "cat": "migration", "ts": 500.0, "args": {"seg": 1, "from": 0, "to": 1}}"#,
        r#"{"ph": "i", "s": "t", "pid": 0, "tid": 1, "name": "later",
            "cat": "not-yet-written", "ts": 600.0}"#,
    ] {
        tes.push(serde_json::from_str(instant).unwrap());
    }
    let path = std::env::temp_dir()
        .join(format!(
            "ccs-golden-extra-instants-{}.json",
            std::process::id()
        ))
        .to_string_lossy()
        .into_owned();
    std::fs::write(&path, serde_json::to_string(&doc).unwrap()).unwrap();
    let json = run("analyze", &args(&[&path, "--json"])).unwrap();
    let text = run("analyze", &args(&[&path])).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(json.trim_end(), golden("analysis-v1.json").trim_end());
    assert_eq!(text.trim_end(), golden("analysis-v1.txt").trim_end());
}

#[test]
fn fixture_documents_carry_their_schema_tags() {
    for (doc, schema) in [
        ("sweep-v1.json", "ccs-sweep/v1"),
        ("trace-v1.json", "ccs-trace/v1"),
        ("analysis-v1.json", "ccs-analysis/v1"),
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
