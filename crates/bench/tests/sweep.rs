//! Integration tests of the declarative sweep engine: the digest
//! contract (every cell of a sweep computes the same stream), the
//! versioned document shape, and the renderer round-trip.

use ccs_bench::sweep::{self, Cell, Metric, Sweep};
use ccs_exec::Placement;
use proptest::prelude::*;
use serde_json::Value;

fn cells_of(doc: &Value) -> &Vec<Value> {
    match &doc["cells"] {
        Value::Array(c) => c,
        other => panic!("cells: {other:?}"),
    }
}

/// Every cell entry of a workload must report the identical digest —
/// the engine asserts it internally; this re-checks the *emitted*
/// document so report consumers can rely on it too.
fn assert_digests_agree(doc: &Value) {
    let cells = cells_of(doc);
    assert!(!cells.is_empty());
    for w in cells
        .iter()
        .filter_map(|c| c["workload"].as_str())
        .collect::<std::collections::BTreeSet<_>>()
    {
        let digests: Vec<&str> = cells
            .iter()
            .filter(|c| c["workload"].as_str() == Some(w))
            .filter_map(|c| c["digest"].as_str())
            .collect();
        assert!(!digests.is_empty(), "{w}: no digests");
        assert!(
            digests.iter().all(|d| *d == digests[0]),
            "{w}: digests diverge in the emitted document: {digests:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]
    /// Arbitrary cell sets over a generated workload: a one-worker
    /// baseline, random worker counts, placements, pinning —
    /// per-cell digests agree across every sweep cell.
    #[test]
    fn per_cell_digests_agree_across_arbitrary_sweeps(
        seed in 0u64..1000,
        rounds in 2u64..5,
        repeats in 1usize..3,
        n_cells in 1usize..4,
        knobs in prop::collection::vec((1usize..5, 0u8..2, 0u8..2), 1..4),
    ) {
        prop_assume!(knobs.len() >= n_cells);
        let g = ccs_graph::gen::layered(
            &ccs_graph::gen::LayeredCfg {
                layers: 4,
                max_width: 3,
                density: 0.3,
                state: ccs_graph::gen::StateDist::Uniform(16, 64),
                max_q: 2,
            },
            seed,
        );
        let mut s = Sweep::new(format!("prop-{seed}"))
            .with_repeats(repeats)
            .with_rounds(rounds)
            .with_workload("layered", g)
            .with_cell(Cell::new(1, Placement::RoundRobin).with_counters(true).with_label("serial"));
        for (i, &(workers, placement, pin)) in
            knobs.iter().take(n_cells).enumerate()
        {
            let placement = [Placement::RoundRobin, Placement::Measured][placement as usize];
            s = s.with_cell(
                Cell::new(workers, placement)
                    .with_label(format!("cell-{i}"))
                    .with_pinning(pin == 1)
                    .with_counters(true)
                    .with_warmup(rounds / 2),
            );
        }
        let doc = s.run().expect("sweep runs");
        assert_digests_agree(&doc);
        prop_assert_eq!(doc["schema"].as_str(), Some(sweep::SCHEMA));
        prop_assert_eq!(cells_of(&doc).len(), n_cells + 1);
        // Every cell ran the declared number of interleaved repeats.
        for c in cells_of(&doc) {
            match &c["runs"] {
                Value::Array(r) => prop_assert_eq!(r.len(), repeats),
                other => panic!("runs: {other:?}"),
            }
        }
    }
}

#[test]
fn sweep_document_renders_and_reports_the_family() {
    // A small but complete sweep: two workloads, one-worker + two
    // two-worker cells, comparisons on two metrics — the BH family spans
    // workloads × comparisons.
    let mut s = Sweep::new("family").with_repeats(3).with_rounds(4);
    for app in ["fm-radio", "layered-dag"] {
        let (name, g) = sweep::workload(app).expect("suite workload");
        s = s.with_workload(name, g);
    }
    s = s
        .with_cell(
            Cell::new(1, Placement::RoundRobin)
                .with_counters(true)
                .with_label("serial"),
        )
        .with_cell(
            Cell::new(2, Placement::RoundRobin)
                .with_counters(true)
                .with_label("rr"),
        )
        .with_cell(
            Cell::new(2, Placement::Measured)
                .with_counters(true)
                .with_label("measured"),
        );
    for m in [
        Metric::LlcMissesPerItem,
        Metric::WallMs,
        Metric::ItemsPerSec,
    ] {
        s = s.with_comparison(m, "rr", "measured");
    }
    let doc = s.run().expect("sweep runs");
    assert_digests_agree(&doc);

    let comps = match &doc["comparisons"] {
        Value::Array(c) => c,
        other => panic!("comparisons: {other:?}"),
    };
    // 2 workloads x 3 declared comparisons.
    assert_eq!(comps.len(), 6);
    // Wall time always measures: full pair count, a p-value, and a
    // BH-adjusted p-value no smaller than the raw one.
    for c in comps
        .iter()
        .filter(|c| c["metric"].as_str() == Some("wall_ms"))
    {
        assert_eq!(c["pairs"].as_u64(), Some(3));
        let p = c["p"].as_f64().expect("wall_ms p-value");
        let q = c["p_adjusted"].as_f64().expect("adjusted");
        assert!(q >= p - 1e-12, "adjusted {q} < raw {p}");
        assert!(c["significant"].as_bool().is_some());
    }

    // The renderer accepts its own document and mentions every cell
    // label and comparison verdict line.
    let text = sweep::render(&doc).expect("renders");
    for label in ["serial", "rr", "measured"] {
        assert!(text.contains(label), "{text}");
    }
    assert!(text.contains("paired deltas"), "{text}");
    assert!(text.contains("BH-corrected"), "{text}");

    // Round-trip through JSON text preserves the render.
    let reparsed: Value =
        serde_json::from_str(&serde_json::to_string_pretty(&doc).unwrap()).unwrap();
    assert_eq!(sweep::render(&reparsed).expect("renders"), text);
}

#[test]
fn an_unmeasured_metric_pairs_nothing_and_stays_out_of_the_family() {
    // With counters off no repeat measures LLC misses: that comparison
    // has no pairs, no p-value and no verdict, and takes no slot in the
    // BH family, so the wall-time comparison is corrected as the only
    // test it is (adjusted == raw).
    let doc = Sweep::new("skipped")
        .with_repeats(3)
        .with_rounds(2)
        .with_workload("w", ccs_graph::gen::pipeline_uniform(6, 32))
        .with_cell(Cell::new(1, Placement::RoundRobin))
        .with_cell(Cell::new(2, Placement::RoundRobin))
        .with_comparison(Metric::LlcMissesPerItem, "rr/w1", "rr/w2")
        .with_comparison(Metric::WallMs, "rr/w1", "rr/w2")
        .run()
        .expect("runs");
    let Value::Array(comps) = &doc["comparisons"] else {
        panic!("comparisons: {:?}", doc["comparisons"]);
    };
    assert_eq!(comps.len(), 2);
    let llc = &comps[0];
    assert_eq!(llc["metric"].as_str(), Some("llc_misses_per_item"));
    assert_eq!(llc["pairs"].as_u64(), Some(0));
    for key in ["mean", "ci_lo", "ci_hi", "p", "p_adjusted", "significant"] {
        assert!(llc[key].is_null(), "{key}: {:?}", llc[key]);
    }
    let wall = &comps[1];
    assert_eq!(wall["pairs"].as_u64(), Some(3));
    let p = wall["p"].as_f64().expect("wall_ms p-value");
    assert_eq!(wall["p_adjusted"].as_f64(), Some(p));
    for c in cells_of(&doc) {
        assert_eq!(c["counters"].as_str(), Some("off"), "{c:?}");
    }
}

#[test]
fn interleaving_visits_cells_in_declared_order_per_repeat() {
    // The repeat counter in the emitted runs must index interleaved
    // rounds (repeat r of every cell happens before repeat r+1 of
    // any): verify the document exposes `repeat` 0..R per cell.
    let s = Sweep::new("order")
        .with_repeats(2)
        .with_rounds(2)
        .with_workload("w", ccs_graph::gen::pipeline_uniform(6, 32))
        .with_cell(Cell::new(1, Placement::RoundRobin))
        .with_cell(Cell::new(2, Placement::RoundRobin));
    let doc = s.run().expect("runs");
    for c in cells_of(&doc) {
        let repeats: Vec<u64> = match &c["runs"] {
            Value::Array(r) => r.iter().map(|x| x["repeat"].as_u64().unwrap()).collect(),
            other => panic!("runs: {other:?}"),
        };
        assert_eq!(repeats, vec![0, 1]);
    }
}

#[test]
fn spec_keys_the_engine_does_not_read_are_refused_by_name() {
    let spec = |top: &str, cell: &str| -> Value {
        serde_json::from_str(&format!(
            r#"{{"apps": ["fm-radio"], {top} "cells": [{{"workers": 2, {cell}}}]}}"#
        ))
        .unwrap()
    };
    // A misspelt key would otherwise run the default and say nothing,
    // and so would a cell key whose setting is gone.
    for (doc, needle) in [
        (spec("", r#""placment": "greedy""#), "\"placment\""),
        (
            spec(r#""repeat": 3,"#, r#""placement": "measured""#),
            "\"repeat\"",
        ),
        (spec("", r#""first_touch": true"#), "\"first_touch\""),
        (spec("", r#""stride": 2"#), "\"stride\""),
        (spec("", r#""engine": "serial""#), "\"engine\""),
        (spec("", r#""fused": true"#), "\"fused\""),
        (spec("", r#""warmup_mode": "epoch""#), "\"warmup_mode\""),
        (
            spec("", r#""segment_counters": true"#),
            "\"segment_counters\"",
        ),
        (spec("", r#""topology": "2x2x2""#), "\"topology\""),
        // The residency threshold is the constant every document bakes in.
        (
            spec(r#""warn_residency": 0.25,"#, r#""placement": "measured""#),
            "unknown spec key \"warn_residency\"",
        ),
    ] {
        let err = sweep::from_spec(&doc).unwrap_err().to_string();
        assert!(err.contains(needle), "{err}");
    }
    // A retired key is refused by name, whatever its value.
    for value in ["true", "false"] {
        let doc = spec("", &format!(r#""windows": 2, "adapt": {value}"#));
        let err = sweep::from_spec(&doc).unwrap_err().to_string();
        assert!(err.contains("unknown cell key \"adapt\""), "{err}");
    }
    assert!(sweep::from_spec(&spec("", r#""placement": "measured""#)).is_ok());
    // The retired greedy placement is refused by name.
    let err = sweep::from_spec(&spec("", r#""placement": "greedy""#))
        .unwrap_err()
        .to_string();
    assert!(err.contains("placement 'greedy' was retired"), "{err}");
}

#[test]
fn every_key_the_engine_reads_is_accepted_and_applied() {
    // The other half of refusing unknown keys: every key `from_spec`
    // reads is on its list, and its value reaches the grid.
    let doc: Value = serde_json::from_str(
        r#"{
            "name": "all-keys", "repeats": 4, "rounds": 3, "warmup": 1,
            "apps": ["fm-radio"],
            "bootstrap_iters": 200, "confidence": 0.8, "seed": 7,
            "cells": [
                {"workers": 1, "label": "one"},
                {"workers": 3, "placement": "measured",
                 "label": "all", "pin_cores": true, "counters": true,
                 "warmup": 2, "trace": true, "windows": 5}
            ],
            "comparisons": [{"metric": "wall_ms", "baseline": "one", "treatment": "all"}]
        }"#,
    )
    .unwrap();
    let s = sweep::from_spec(&doc).unwrap_or_else(|e| panic!("{e}"));
    assert_eq!(s.name, "all-keys");
    assert_eq!((s.repeats, s.rounds, s.seed), (4, 3, 7));
    assert_eq!(s.bootstrap_iters, 200);
    assert_eq!(s.confidence, 0.8);
    assert_eq!(s.cells.len(), 2);
    assert_eq!(s.cells[0].workers, 1);
    assert_eq!(s.cells[0].warmup, 1, "top-level warmup is the default");
    let c = &s.cells[1];
    assert_eq!(c.label.as_deref(), Some("all"));
    assert_eq!((c.workers, c.placement), (3, Placement::Measured));
    assert!(c.pin_cores && c.counters);
    assert!(c.trace);
    assert_eq!((c.warmup, c.windows), (2, 5));
    assert_eq!(s.comparisons.len(), 1);
}

#[test]
fn a_counted_cell_attributes_every_segment_and_a_plain_one_none() {
    // Counters on means per-segment attribution, with no switch of its
    // own; the warmup a cell reports is the clamped one the run used.
    let (name, g) = sweep::workload("fm-radio").expect("suite workload");
    let doc = Sweep::new("attribution")
        .with_rounds(3)
        .with_workload(name, g)
        .with_cell(Cell::new(2, Placement::RoundRobin).with_label("plain"))
        .with_cell(
            Cell::new(2, Placement::RoundRobin)
                .with_counters(true)
                .with_warmup(9)
                .with_label("counted"),
        )
        .run()
        .expect("sweep runs");
    assert_digests_agree(&doc);
    let cells = cells_of(&doc);
    let (plain, counted) = (&cells[0], &cells[1]);
    assert_eq!(plain["counters"].as_str(), Some("off"));
    assert_eq!(plain["warmup_batches"].as_u64(), Some(0));
    assert_eq!(plain["per_segment"], Value::Array(Vec::new()));
    assert_eq!(counted["counters_requested"].as_bool(), Some(true));
    assert_eq!(counted["warmup_batches"].as_u64(), Some(2));
    let status = counted["counters"].as_str().unwrap();
    assert!(
        ["ok", "ok (scaled)", "no llc event", "unavailable"].contains(&status),
        "{status}"
    );
    let segments = counted["segments"].as_u64().unwrap();
    assert!(segments > 0);
    let Value::Array(per_segment) = &counted["per_segment"] else {
        panic!("per_segment: {:?}", counted["per_segment"]);
    };
    let segs: Vec<u64> = per_segment
        .iter()
        .map(|s| s["seg"].as_u64().unwrap())
        .collect();
    assert_eq!(segs, (0..segments).collect::<Vec<_>>());
    for cell in cells {
        for retired in ["warmup_mode", "segment_counters"] {
            assert!(cell[retired].is_null(), "{retired} in {cell:?}");
        }
    }
}
