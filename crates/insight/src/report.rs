//! Text rendering of a `ccs-analysis/v1` document for `ccs report`.

use crate::SCHEMA;
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

fn verb(reason: Option<&str>) -> &'static str {
    match reason {
        Some("consumer-full") => "backpressures",
        _ => "starves",
    }
}

/// Render an analysis document as the `ccs report` text summary.
/// Errors (wrong schema, malformed document) come back as strings for
/// the CLI to surface.
pub fn render(doc: &Value) -> Result<String, String> {
    if doc["schema"].as_str() != Some(SCHEMA) {
        return Err(format!(
            "not a {SCHEMA} document (schema: {:?})",
            doc["schema"].as_str()
        ));
    }
    let mut out = String::new();
    out.push_str(&format!(
        "analysis: {}\n",
        doc["name"].as_str().unwrap_or("trace")
    ));
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
    if let Value::Array(workers) = &doc["workers"] {
        for w in workers {
            out.push_str(&format!(
                "  {}: {} ms span — {} batch, {} stall ({} parked), {} idle ({} batches, {} stalls)\n",
                w["name"].as_str().unwrap_or("?"),
                f2(&w["span_ms"]),
                pct(&w["batch_share"]),
                pct(&w["stall_share"]),
                w["parks"].as_u64().unwrap_or(0),
                pct(&w["idle_share"]),
                w["batches"].as_u64().unwrap_or(0),
                w["stalls"].as_u64().unwrap_or(0),
            ));
        }
    }
    if let Value::Array(rows) = &doc["stall_blame"] {
        if !rows.is_empty() {
            out.push_str("  stall blame (who blocks whom):\n");
            for r in rows {
                out.push_str(&format!(
                    "    edge {}: seg {} {} seg {} — {} stalls, {} ms\n",
                    r["edge"].as_u64().unwrap_or(0),
                    r["culprit_seg"].as_u64().unwrap_or(0),
                    verb(r["reason"].as_str()),
                    r["blocked_seg"].as_u64().unwrap_or(0),
                    r["stalls"].as_u64().unwrap_or(0),
                    f2(&r["stall_ms"]),
                ));
            }
        }
    }
    if let Value::Array(rings) = &doc["occupancy"] {
        if !rings.is_empty() {
            out.push_str("  ring occupancy:\n");
            for r in rings {
                out.push_str(&format!(
                    "    ring {}: mean {}/{} ({} full), max {} — {} samples\n",
                    r["ring"].as_u64().unwrap_or(0),
                    f2(&r["mean_len"]),
                    r["cap"].as_u64().unwrap_or(0),
                    pct(&r["mean_fill"]),
                    r["max_len"].as_u64().unwrap_or(0),
                    r["samples"].as_u64().unwrap_or(0),
                ));
            }
        }
    }
    let top = &doc["summary"]["top_bottleneck"];
    if top.is_null() {
        out.push_str("  bottleneck: none attributed (no blamed stalls in the trace)\n");
    } else {
        out.push_str(&format!(
            "  bottleneck: seg {} via edge {} ({}) — {} ms blamed\n",
            top["seg"].as_u64().unwrap_or(0),
            top["edge"].as_u64().unwrap_or(0),
            top["reason"].as_str().unwrap_or("?"),
            f2(&top["blamed_ms"]),
        ));
        if let Value::Array(chain) = &doc["chain"] {
            if chain.len() > 1 {
                let links: Vec<String> = chain
                    .iter()
                    .map(|c| {
                        format!(
                            "seg {} (via edge {}, {})",
                            c["seg"].as_u64().unwrap_or(0),
                            c["edge"].as_u64().unwrap_or(0),
                            c["reason"].as_str().unwrap_or("?"),
                        )
                    })
                    .collect();
                out.push_str(&format!("  chain: {}\n", links.join(" <- ")));
            }
        }
    }
    if let Value::Array(workers) = &doc["drift"] {
        for w in workers {
            let describe = |t: &Value| -> String {
                let cps = match &t["change_points"] {
                    Value::Array(cps) if !cps.is_empty() => {
                        let idx: Vec<String> = cps
                            .iter()
                            .filter_map(|c| c.as_u64())
                            .map(|c| c.to_string())
                            .collect();
                        format!("shift at window {}", idx.join(", "))
                    }
                    _ => "steady".to_string(),
                };
                format!("ewma {} ({})", f2(&t["ewma"]), cps)
            };
            out.push_str(&format!(
                "  drift w{}: mpki {}, stall-share {}\n",
                w["worker"].as_u64().unwrap_or(0),
                describe(&w["mpki"]),
                describe(&w["stall_share"]),
            ));
        }
    }
    let drift_points = doc["summary"]["drift_points"].as_u64().unwrap_or(0);
    if drift_points > 0 {
        out.push_str(&format!(
            "  warning: drift: {drift_points} change point(s) flagged — counter behavior \
             shifted mid-run (see the per-worker drift lines)\n"
        ));
    }
    out.push_str(&format!(
        "  stall share (run): {}\n",
        pct(&doc["summary"]["stall_share"]),
    ));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(body: &str) -> Value {
        let sep = if body.is_empty() { "" } else { ", " };
        serde_json::from_str(&format!(
            r#"{{"schema": "ccs-analysis/v1", "name": "demo"{sep}{body}}}"#
        ))
        .unwrap()
    }

    #[test]
    fn other_schemas_are_refused_by_tag() {
        let err =
            render(&serde_json::from_str(r#"{"schema": "ccs-trace/v1"}"#).unwrap()).unwrap_err();
        assert!(err.contains("not a ccs-analysis/v1 document"), "{err}");
        assert!(err.contains("ccs-trace/v1"), "{err}");
        assert!(render(&serde_json::from_str("{}").unwrap()).is_err());
    }

    #[test]
    fn meta_prints_known_keys_in_fixed_order_and_skips_the_rest() {
        let out = render(&doc(
            r#""meta": {"wall_ms": 3.14159, "workers": 2, "placement": "llc",
                        "warmup_mode": "epoch", "topology": null}"#,
        ))
        .unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines[0], "analysis: demo");
        assert_eq!(
            lines[1..4],
            ["  placement: \"llc\"", "  workers: 2", "  wall_ms: 3.14"]
        );
        assert!(!out.contains("warmup_mode"), "{out}");
        assert!(!out.contains("topology"), "{out}");
    }

    #[test]
    fn a_document_without_blame_says_no_bottleneck_was_attributed() {
        let out = render(&doc("")).unwrap();
        assert!(
            out.contains("bottleneck: none attributed (no blamed stalls in the trace)"),
            "{out}"
        );
        assert!(!out.contains("stall blame"), "{out}");
        assert!(!out.contains("ring occupancy"), "{out}");
        // Absent numbers render as a dash, not as zero.
        assert!(out.ends_with("  stall share (run): -\n"), "{out}");
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
        let top = r#""summary": {"top_bottleneck": {"seg": 3, "edge": 2,
                        "reason": "producer-empty", "blamed_ms": 1.0}}"#;
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
    fn drift_lines_name_their_change_points_and_warn_only_when_flagged() {
        let drift = r#""drift": [{"worker": 1,
                          "mpki": {"ewma": 2.0, "change_points": [3, 7]},
                          "stall_share": {"ewma": null, "change_points": []}}]"#;
        let quiet = render(&doc(&format!(
            r#"{drift}, "summary": {{"drift_points": 0}}"#
        )))
        .unwrap();
        assert!(
            quiet.contains(
                "  drift w1: mpki ewma 2.00 (shift at window 3, 7), stall-share ewma - (steady)\n"
            ),
            "{quiet}"
        );
        assert!(!quiet.contains("warning: drift"), "{quiet}");
        let loud = render(&doc(&format!(
            r#"{drift}, "summary": {{"drift_points": 2}}"#
        )))
        .unwrap();
        assert!(
            loud.contains("  warning: drift: 2 change point(s) flagged"),
            "{loud}"
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
               "summary": {"stall_share": 0.125}"#,
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
