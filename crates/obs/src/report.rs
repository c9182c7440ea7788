//! The text of a run's document: what `ccs run-dag` prints and `ccs
//! report` prints again of the saved file.
//!
//! The run's own lines (configuration, throughput and digest,
//! imbalances, the placement that ran, counters, per-segment and
//! per-worker lines) are read from the document's `meta`, each where
//! its keys are present; a document whose `meta` predates them (it has
//! no `segments`) prints its flat key list instead. The rest is read
//! from the `summary` block: the event tallies and each worker's lane
//! where the run was traced, the stall analysis sections (stall blame,
//! ring occupancy, the bottleneck and its chain, the run-wide stall
//! share) where the summary carries them, and the warnings. A document
//! written before any of them existed renders as it always did.

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
    let meta = &doc["meta"];
    if meta["segments"].is_null() {
        flat_meta(name, meta, &mut out);
    } else {
        run_lines(name, meta, &mut out);
    }
    let s = &doc["summary"];
    if s.is_null() {
        return Err("trace document has no summary block".to_string());
    }
    if !s["events"].is_null() {
        out.push_str(&format!(
            "  events: {} ({} dropped)   windows: {}\n",
            int(&s["events"]),
            int(&s["dropped"]),
            int(&s["windows"]),
        ));
    }
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

/// The `meta` of a document written before the run's own lines
/// existed: its known keys, one a line, in a fixed order.
fn flat_meta(name: &str, meta: &Value, out: &mut String) {
    out.push_str(&format!("trace: {name}\n"));
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
}

/// A JSON array of integers as Rust's `{:?}` prints a `Vec<usize>`.
fn list(v: &Value) -> String {
    let items: Vec<String> = match v {
        Value::Array(xs) => xs.iter().map(|x| int(x).to_string()).collect(),
        _ => Vec::new(),
    };
    format!("[{}]", items.join(", "))
}

/// `n` with `{:.prec$}`, or `n/a` where it is null.
fn num(v: &Value, prec: usize) -> String {
    v.as_f64()
        .map_or_else(|| "n/a".to_string(), |x| format!("{x:.prec$}"))
}

/// What a run's counters came to, named from its `meta`: the one name
/// `ccs run-dag`'s counters line and a sweep cell's status both print.
/// The order ranks how much was counted, so a cell names the most any
/// of its repeats counted.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum CounterState {
    /// Counters were not requested.
    Off,
    /// Requested, and no worker opened a group.
    Unavailable,
    /// A group opened without the LLC-miss event (`task-clock` alone).
    NoLlcEvent,
    /// LLC misses were counted.
    Ok,
    /// LLC misses were counted, and some reading was multiplex-scaled.
    OkScaled,
}

impl CounterState {
    /// The state a run's `meta` records: its `counters` is `"off"`,
    /// `"unavailable"`, or the summed readings.
    pub fn of(meta: &Value) -> CounterState {
        let counters = &meta["counters"];
        match counters.as_str() {
            Some("off") => CounterState::Off,
            Some(_) => CounterState::Unavailable,
            None if counters["llc_misses"].is_null() => CounterState::NoLlcEvent,
            None if counters["multiplexed"].as_bool() == Some(true) => CounterState::OkScaled,
            None => CounterState::Ok,
        }
    }

    /// The state's name.
    pub fn name(self) -> &'static str {
        match self {
            CounterState::Off => "off",
            CounterState::Unavailable => "unavailable",
            CounterState::NoLlcEvent => "no llc event",
            CounterState::Ok => "ok",
            CounterState::OkScaled => "ok (scaled)",
        }
    }
}

/// The lines of a run, from the `meta` `ccs run-dag` writes.
fn run_lines(name: &str, m: &Value, out: &mut String) {
    let pinned = if m["pin_cores"].as_bool() == Some(true) {
        format!(" ({} pinned)", int(&m["pinned_workers"]))
    } else {
        String::new()
    };
    out.push_str(&format!(
        "{name}: strategy {} | placement {} | {} segments on {} workers{pinned} | T = {} | {} boundary words\n",
        m["strategy"].as_str().unwrap_or("?"),
        m["placement"].as_str().unwrap_or("?"),
        int(&m["segments"]),
        int(&m["workers"]),
        int(&m["granularity_t"]),
        int(&m["boundary_words"]),
    ));
    out.push_str(&format!(
        "{} firings, {} sink items in {} ms = {:.3} M items/s | digest {}\n",
        int(&m["firings"]),
        int(&m["sink_items"]),
        f2(&m["wall_ms"]),
        m["items_per_sec"].as_f64().unwrap_or(0.0) / 1e6,
        m["digest"].as_str().unwrap_or("none"),
    ));
    out.push_str(&format!(
        "imbalance (max over mean): predicted {} from modelled work, profiled {} \
         from first batches, busy {} measured\n",
        num(&m["predicted_imbalance"], 3),
        num(&m["profiled_imbalance"], 3),
        num(&m["busy_imbalance"], 3),
    ));
    out.push_str(&format!(
        "placement that ran: owner {} | place.bottleneck_gap {} | {} cross-worker items/round\n",
        list(&m["owner"]),
        num(&m["bottleneck_gap"], 3),
        int(&m["cross_worker_items_per_round"]),
    ));
    let state = CounterState::of(m);
    if state != CounterState::Off && int(&m["warmup"]) > 0 {
        out.push_str(&format!(
            "warmup: first {} of {} batches/segment excluded from counters \
             ({} steady-state sink items measured)\n",
            int(&m["warmup"]),
            int(&m["rounds"]),
            int(&m["measured_sink_items"]),
        ));
    }
    let (c, counted) = (&m["counters"], int(&m["counted_workers"]));
    out.push_str(&match state {
        CounterState::Off => String::new(),
        CounterState::Unavailable => format!(
            "counters: unavailable ({})\n",
            m["counters_reason"]
                .as_str()
                .unwrap_or("no worker opened a group"),
        ),
        CounterState::NoLlcEvent | CounterState::Ok | CounterState::OkScaled => format!(
            "counters ({counted} worker{}): {} | mpki {} | ipc {}{}\n",
            if counted == 1 { "" } else { "s" },
            match c["llc_misses"].as_u64() {
                None => state.name().to_string(),
                Some(n) => format!(
                    "llc misses {n}{}",
                    c["llc_misses_per_item"]
                        .as_f64()
                        .map_or(String::new(), |v| format!(" ({v:.3}/item)")),
                ),
            },
            num(&c["mpki"], 3),
            num(&c["ipc"], 2),
            if c["multiplexed"].as_bool() == Some(true) {
                " | multiplexed (scaled)"
            } else {
                ""
            },
        ),
    });
    if let Value::Array(segments) = &m["per_segment"] {
        for sc in segments {
            out.push_str(&format!(
                "  segment {}: {}/{} batches counted{}\n",
                int(&sc["seg"]),
                int(&sc["batches_counted"]),
                int(&sc["batches"]),
                match sc["llc_misses_per_item"].as_f64() {
                    Some(v) => format!(", {v:.3} llc misses/item"),
                    None => ", llc misses/item n/a".to_string(),
                },
            ));
        }
    }
    if let Value::Array(workers) = &m["per_worker"] {
        for w in workers {
            out.push_str(&format!(
                "  worker {}{}: segments {}, {} firings, {} batches, {} stalls ({} ms), \
                 busy {} ms, {:.1} % of modelled work, {:.1} % of profiled work{}\n",
                int(&w["worker"]),
                w["pinned_cpu"]
                    .as_u64()
                    .map_or(String::new(), |cpu| format!(" @cpu{cpu}")),
                list(&w["segments"]),
                int(&w["firings"]),
                int(&w["batches"]),
                int(&w["stalls"]),
                f2(&w["stall_ms"]),
                f2(&w["busy_ms"]),
                w["modelled_share"].as_f64().unwrap_or(0.0) * 100.0,
                w["profiled_share"].as_f64().unwrap_or(0.0) * 100.0,
                w["counters"]["llc_misses"]
                    .as_u64()
                    .map_or(String::new(), |n| format!(", {n} llc misses")),
            ));
        }
    }
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
    fn run_lines_print_what_the_meta_holds() {
        // Pinned workers, counters that opened, per-segment rows: each
        // line is read off its own keys.
        let out = render(
            &serde_json::from_str(
                r#"{"schema": "ccs-trace/v1", "name": "g", "summary": {},
                    "meta": {"strategy": "dag", "placement": "rr", "pin_cores": true,
                             "pinned_workers": 2, "segments": 3, "workers": 2,
                             "granularity_t": 8, "boundary_words": 64, "firings": 90,
                             "sink_items": 24, "wall_ms": 1.5, "items_per_sec": 16000000.0,
                             "digest": "00ff", "predicted_imbalance": 1.25,
                             "profiled_imbalance": 1.0, "busy_imbalance": 1.125,
                             "owner": [0, 1, 0], "bottleneck_gap": 0.5,
                             "cross_worker_items_per_round": 16, "rounds": 3, "warmup": 0,
                             "counters": {"llc_misses": 48, "llc_misses_per_item": 2.0,
                                          "mpki": 1.5, "ipc": null, "multiplexed": true},
                             "counted_workers": 1,
                             "per_segment": [{"seg": 0, "batches": 3, "batches_counted": 3,
                                              "llc_misses_per_item": 0.25}],
                             "per_worker": [{"worker": 1, "pinned_cpu": 5, "segments": [1],
                                             "firings": 30, "batches": 3, "stalls": 2,
                                             "stall_ms": 0.125, "busy_ms": 1.0,
                                             "modelled_share": 0.4, "profiled_share": 0.5,
                                             "counters": {"llc_misses": 7}}]}}"#,
            )
            .unwrap(),
        )
        .unwrap();
        assert_eq!(
            out,
            "g: strategy dag | placement rr | 3 segments on 2 workers (2 pinned) | T = 8 | 64 boundary words\n\
             90 firings, 24 sink items in 1.50 ms = 16.000 M items/s | digest 00ff\n\
             imbalance (max over mean): predicted 1.250 from modelled work, profiled 1.000 \
             from first batches, busy 1.125 measured\n\
             placement that ran: owner [0, 1, 0] | place.bottleneck_gap 0.500 | 16 cross-worker items/round\n\
             counters (1 worker): llc misses 48 (2.000/item) | mpki 1.500 | ipc n/a | multiplexed (scaled)\n  \
             segment 0: 3/3 batches counted, 0.250 llc misses/item\n  \
             worker 1 @cpu5: segments [1], 30 firings, 3 batches, 2 stalls (0.12 ms), busy 1.00 ms, \
             40.0 % of modelled work, 50.0 % of profiled work, 7 llc misses\n"
        );
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
