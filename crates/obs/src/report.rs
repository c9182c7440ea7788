//! The `ccs report` text summary of a trace document.
//!
//! Everything is read from the document's `summary` block. The stall
//! analysis sections (each worker's time split, stall blame, ring
//! occupancy, the bottleneck and its chain, the run-wide stall share)
//! print when the summary carries them, so a document written before
//! they existed renders as it always did.

use crate::chrome::{MULTIPLEX_WARN_RATIO, SCHEMA};
use serde_json::Value;

fn f2(v: &Value) -> String {
    match v.as_f64() {
        Some(x) => format!("{x:.2}"),
        None => "-".to_string(),
    }
}

fn pct(v: &Value) -> String {
    match v.as_f64() {
        Some(x) => format!("{:.1}%", x * 100.0),
        None => "-".to_string(),
    }
}

fn int(v: &Value) -> u64 {
    v.as_u64().unwrap_or(0)
}

fn verb(reason: Option<&str>) -> &'static str {
    match reason {
        Some("consumer-full") => "backpressures",
        _ => "starves",
    }
}

/// Render a trace document as the `ccs report` text summary. Errors
/// (not a trace document, missing summary) come back as strings for
/// the CLI to surface.
pub fn render(doc: &Value) -> Result<String, String> {
    if doc["schema"].as_str() != Some(SCHEMA) {
        return Err(format!(
            "not a {SCHEMA} document (schema: {:?})",
            doc["schema"].as_str()
        ));
    }
    let mut out = String::new();
    let name = doc["name"].as_str().unwrap_or("trace");
    out.push_str(&format!("trace: {name}\n"));
    let meta = &doc["meta"];
    for key in [
        "engine",
        "strategy",
        "placement",
        "pin_cores",
        "topology",
        "workers",
        "rounds",
        "warmup",
        "windows_every",
        "boundary_words",
        "wall_ms",
    ] {
        let v = &meta[key];
        if !v.is_null() {
            let shown = match v {
                Value::Float(_) => f2(v),
                other => serde_json::to_string(other).unwrap_or_default(),
            };
            out.push_str(&format!("  {key}: {shown}\n"));
        }
    }
    let s = &doc["summary"];
    if s.is_null() {
        return Err("trace document has no summary block".to_string());
    }
    out.push_str(&format!(
        "  events: {} ({} dropped)   windows: {}\n",
        int(&s["events"]),
        int(&s["dropped"]),
        int(&s["windows"]),
    ));
    let workers = match &s["workers"] {
        Value::Array(workers) => &workers[..],
        _ => &[],
    };
    for w in workers {
        out.push_str(&format!(
            "  {}: {} events, {} batches ({} ms busy), {} stalls ({} parked, {} ms), {} windows\n",
            w["name"].as_str().unwrap_or("?"),
            int(&w["events"]),
            int(&w["batches"]),
            f2(&w["batch_ms"]),
            int(&w["stalls"]),
            int(&w["parks"]),
            f2(&w["stall_ms"]),
            int(&w["windows"]),
        ));
    }
    for w in workers.iter().filter(|w| !w["span_ms"].is_null()) {
        out.push_str(&format!(
            "  {}: {} ms span — {} batch, {} stall ({} parked), {} idle ({} batches, {} stalls)\n",
            w["name"].as_str().unwrap_or("?"),
            f2(&w["span_ms"]),
            pct(&w["batch_share"]),
            pct(&w["stall_share"]),
            int(&w["parks"]),
            pct(&w["idle_share"]),
            int(&w["batches"]),
            int(&w["stalls"]),
        ));
    }
    analysis(s, &mut out);
    for w in warnings(s) {
        out.push_str(&format!("  warning: {w}\n"));
    }
    Ok(out)
}

/// The run-wide analysis sections, each where the summary has it.
fn analysis(s: &Value, out: &mut String) {
    if let Value::Array(rows) = &s["stall_blame"] {
        if !rows.is_empty() {
            out.push_str("  stall blame (who blocks whom):\n");
        }
        for r in rows {
            out.push_str(&format!(
                "    edge {}: seg {} {} seg {} — {} stalls, {} ms\n",
                int(&r["edge"]),
                int(&r["culprit_seg"]),
                verb(r["reason"].as_str()),
                int(&r["blocked_seg"]),
                int(&r["stalls"]),
                f2(&r["stall_ms"]),
            ));
        }
    }
    if let Value::Array(rings) = &s["occupancy"] {
        if !rings.is_empty() {
            out.push_str("  ring occupancy:\n");
        }
        for r in rings {
            out.push_str(&format!(
                "    ring {}: mean {}/{} ({} full), max {} — {} samples\n",
                int(&r["ring"]),
                f2(&r["mean_len"]),
                int(&r["cap"]),
                pct(&r["mean_fill"]),
                int(&r["max_len"]),
                int(&r["samples"]),
            ));
        }
    }
    if let Value::Array(ranking) = &s["bottlenecks"] {
        match ranking.first() {
            None => out.push_str("  bottleneck: none attributed (no blamed stalls in the trace)\n"),
            Some(top) => out.push_str(&format!(
                "  bottleneck: seg {} via edge {} ({}) — {} ms blamed\n",
                int(&top["seg"]),
                int(&top["edge"]),
                top["reason"].as_str().unwrap_or("?"),
                f2(&top["blamed_ms"]),
            )),
        }
    }
    if let Value::Array(chain) = &s["chain"] {
        if chain.len() > 1 {
            let links: Vec<String> = chain
                .iter()
                .map(|c| {
                    format!(
                        "seg {} (via edge {}, {})",
                        int(&c["seg"]),
                        int(&c["edge"]),
                        c["reason"].as_str().unwrap_or("?"),
                    )
                })
                .collect();
            out.push_str(&format!("  chain: {}\n", links.join(" <- ")));
        }
    }
    if !s["stall_share"].is_null() {
        out.push_str(&format!(
            "  stall share (run): {}\n",
            pct(&s["stall_share"])
        ));
    }
}

/// Observability warnings for a trace (or any object shaped like its
/// summary block): event drops and low-residency counter windows are
/// reported, never silently averaged into the totals.
pub fn warnings(summary: &Value) -> Vec<String> {
    let mut out = Vec::new();
    let dropped = int(&summary["dropped"]);
    if dropped > 0 {
        out.push(format!(
            "ring overflow dropped {dropped} events — the timeline is truncated; raise the ring capacity (--trace-cap)"
        ));
    }
    let scaled = int(&summary["windows_scaled_low"]);
    if scaled > 0 {
        let ratio = summary["warn_residency"]
            .as_f64()
            .unwrap_or(MULTIPLEX_WARN_RATIO);
        out.push(format!(
            "{scaled} of {} counter windows ran below {:.0}% PMU residency — multiplex-scaled counts are estimates, not counts",
            int(&summary["windows"]),
            ratio * 100.0,
        ));
    }
    let timing_only = int(&summary["windows_timing_only"]);
    if timing_only > 0 {
        out.push(format!(
            "{timing_only} windows are timing-only (no counter group opened)"
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A trace document whose summary is `summary` (JSON members).
    fn doc(summary: &str) -> Value {
        serde_json::from_str(&format!(
            r#"{{"schema": "ccs-trace/v1", "name": "demo", "summary": {{{summary}}}}}"#
        ))
        .unwrap()
    }

    #[test]
    fn other_schemas_are_refused_by_tag() {
        let err =
            render(&serde_json::from_str(r#"{"schema": "ccs-sweep/v1"}"#).unwrap()).unwrap_err();
        assert!(err.contains("not a ccs-trace/v1 document"), "{err}");
        assert!(err.contains("ccs-sweep/v1"), "{err}");
        assert!(render(&serde_json::from_str("{}").unwrap()).is_err());
    }

    #[test]
    fn meta_prints_known_keys_in_fixed_order_and_skips_the_rest() {
        let out = render(
            &serde_json::from_str(
                r#"{"schema": "ccs-trace/v1", "name": "demo", "summary": {},
                    "meta": {"wall_ms": 3.14159, "workers": 2, "placement": "llc",
                             "warmup_mode": "epoch", "topology": null}}"#,
            )
            .unwrap(),
        )
        .unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines[0], "trace: demo");
        assert_eq!(
            lines[1..4],
            ["  placement: \"llc\"", "  workers: 2", "  wall_ms: 3.14"]
        );
        assert!(!out.contains("warmup_mode"), "{out}");
        assert!(!out.contains("topology"), "{out}");
    }

    #[test]
    fn a_document_without_blame_says_no_bottleneck_was_attributed() {
        let out = render(&doc(
            r#""stall_blame": [], "occupancy": [], "bottlenecks": [], "chain": [],
               "stall_share": 0.0"#,
        ))
        .unwrap();
        assert!(
            out.contains("bottleneck: none attributed (no blamed stalls in the trace)"),
            "{out}"
        );
        assert!(!out.contains("stall blame"), "{out}");
        assert!(!out.contains("ring occupancy"), "{out}");
        assert!(out.ends_with("  stall share (run): 0.0%\n"), "{out}");
        // A summary written before the analysis existed has none of it.
        let old = render(&doc(r#""events": 0"#)).unwrap();
        assert!(!old.contains("bottleneck"), "{old}");
        assert!(!old.contains("stall share"), "{old}");
    }

    #[test]
    fn blame_rows_name_the_gate_side_as_a_verb() {
        let out = render(&doc(r#""stall_blame": [
                 {"edge": 1, "culprit_seg": 2, "blocked_seg": 0, "reason": "consumer-full",
                  "stalls": 3, "stall_ms": 0.5},
                 {"edge": 4, "culprit_seg": 0, "blocked_seg": 5, "reason": "producer-empty",
                  "stalls": 1, "stall_ms": 0.25}]"#))
        .unwrap();
        assert!(
            out.contains("    edge 1: seg 2 backpressures seg 0 — 3 stalls, 0.50 ms\n"),
            "{out}"
        );
        assert!(
            out.contains("    edge 4: seg 0 starves seg 5 — 1 stalls, 0.25 ms\n"),
            "{out}"
        );
    }

    #[test]
    fn the_chain_is_printed_only_past_its_first_link() {
        let top = r#""bottlenecks": [{"seg": 3, "edge": 2, "reason": "producer-empty",
                                      "blamed_ms": 1.0}]"#;
        let one = render(&doc(&format!(
            r#"{top}, "chain": [{{"seg": 3, "edge": 2, "reason": "producer-empty"}}]"#
        )))
        .unwrap();
        assert!(
            one.contains("  bottleneck: seg 3 via edge 2 (producer-empty) — 1.00 ms blamed\n"),
            "{one}"
        );
        assert!(!one.contains("chain:"), "{one}");
        let two = render(&doc(&format!(
            r#"{top}, "chain": [{{"seg": 3, "edge": 2, "reason": "producer-empty"}},
                                {{"seg": 1, "edge": 0, "reason": "consumer-full"}}]"#
        )))
        .unwrap();
        assert!(
            two.contains(
                "  chain: seg 3 (via edge 2, producer-empty) <- seg 1 (via edge 0, consumer-full)\n"
            ),
            "{two}"
        );
    }

    #[test]
    fn worker_and_ring_lines_show_shares_as_percentages() {
        let out = render(&doc(
            r#""workers": [{"name": "worker 0", "span_ms": 2.0, "batch_share": 0.5,
                            "stall_share": 0.25, "idle_share": 0.25, "parks": 1,
                            "batches": 4, "stalls": 2}],
               "occupancy": [{"ring": 0, "mean_len": 1.5, "cap": 4, "mean_fill": 0.375,
                              "max_len": 3, "samples": 6}],
               "stall_share": 0.125"#,
        ))
        .unwrap();
        assert!(
            out.contains(
                "  worker 0: 2.00 ms span — 50.0% batch, 25.0% stall (1 parked), \
                 25.0% idle (4 batches, 2 stalls)\n"
            ),
            "{out}"
        );
        assert!(
            out.contains("    ring 0: mean 1.50/4 (37.5% full), max 3 — 6 samples\n"),
            "{out}"
        );
        assert!(out.ends_with("  stall share (run): 12.5%\n"), "{out}");
    }
}
