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
        "warmup_mode",
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
