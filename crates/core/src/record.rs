//! The run record: the `ccs-trace/v1` document of one executor run,
//! built here alone. `ccs run-dag` prints [`document`]'s rendering, and
//! a sweep keeps each repeat's [`meta`] and [`summary`]. Each fact is
//! written once: `meta` holds the run, `summary` the tallies of events,
//! drops and windows and, traced, the stall analysis, and `traceEvents`
//! the timelines and the window spans with their readings.

use crate::planner::ParallelRun;
use ccs_exec::RunConfig;
use ccs_obs::chrome;
use ccs_perf::CounterKind;
use serde_json::{json, Value};
use std::time::Duration;

/// The document of `run` (as run under `cfg`), named `name`: [`meta`],
/// [`summary`] and the workers' Chrome trace events.
pub fn document(name: &str, run: &ParallelRun, cfg: &RunConfig) -> Value {
    chrome::document(
        name,
        meta(run, cfg),
        summary(run),
        &run.stats.trace_workers(),
    )
}

/// The document's `summary` block ([`ccs_obs::chrome::summary`]).
pub fn summary(run: &ParallelRun) -> Value {
    chrome::summary(&run.stats.trace_workers(), run.stats.trace_enabled)
}

/// The document's `meta` block: the run's configuration and results.
/// `counters` is `"off"`, `"unavailable"` (with `counters_reason`
/// beside it) or the summed readings, per item over
/// `measured_sink_items`; `per_segment` is there whenever counters were
/// requested. `digest` is `null` for a sink that keeps none.
/// `stall_share` is stall over busy plus stall time by the workers' own
/// clocks; a traced summary's is the same ratio over its spans.
pub fn meta(run: &ParallelRun, cfg: &RunConfig) -> Value {
    let stats = &run.stats;
    let shares = stats.modelled_shares();
    let profiled = stats.profiled_shares();
    let per_worker: Vec<Value> = stats
        .workers
        .iter()
        .map(|w| {
            json!({
                "worker": w.worker,
                "segments": w.segments,
                "firings": w.firings,
                "batches": w.batches,
                "stalls": w.stalls,
                "stall_ms": ms(w.stall_time),
                "busy_ms": ms(w.busy),
                "modelled_share": shares[w.worker],
                "profiled_share": profiled[w.worker],
                "pinned_cpu": w.pinned_cpu,
                "counters": w.counters.as_ref().map(|s| s.to_json(None)),
            })
        })
        .collect();
    let mut counters_reason = None;
    let counters = match stats.counter_totals() {
        _ if !cfg.counters => json!("off"),
        Some(t) => t.to_json(Some(stats.measured_sink_items())),
        None => {
            counters_reason = ccs_perf::probe().reason;
            json!("unavailable")
        }
    };
    let stall = stats.total_stall_time();
    let spent = stall + stats.workers.iter().map(|w| w.busy).sum::<Duration>();
    let mut meta = json!({
        "strategy": run.strategy_used,
        "placement": cfg.placement.name(),
        "pin_cores": cfg.pin_cores,
        "pinned_workers": stats.pinned_workers(),
        "segments": stats.segments,
        "workers": cfg.workers,
        "granularity_t": stats.t,
        "boundary_words": stats.run.boundary_words,
        "rounds": stats.rounds,
        "warmup": stats.warmup,
        "windows_every": stats.window_batches,
        "measured_sink_items": stats.measured_sink_items(),
        "bandwidth": run.bandwidth.to_f64(),
        "firings": stats.run.firings,
        "sink_items": stats.run.sink_items,
        "wall_ms": ms(stats.run.wall),
        "stall_ms": ms(stall),
        "stall_share": (!spent.is_zero()).then(|| stall.as_secs_f64() / spent.as_secs_f64()),
        "predicted_imbalance": stats.predicted_imbalance(),
        "profiled_imbalance": stats.profiled_imbalance(),
        "busy_imbalance": stats.busy_imbalance(),
        "owner": stats.owner,
        "profiled_ns": stats.profiled,
        "bottleneck_gap": stats.bottleneck_gap(),
        "cross_worker_items_per_round": stats.cross_worker_items,
        "items_per_sec": stats.items_per_sec(),
        "digest": stats.run.digest.map(|d| format!("{d:016x}")),
        "counters": counters,
        "counted_workers": stats.counted_workers(),
        "per_worker": per_worker,
    });
    let Value::Object(pairs) = &mut meta else {
        unreachable!("json! of an object literal")
    };
    if let Some(reason) = counters_reason {
        pairs.push(("counters_reason".into(), json!(reason)));
    }
    if cfg.counters {
        // Each segment's misses per sink item over the batches it
        // counted, then its summed readings.
        let per_round = stats.items_per_round();
        let rows = stats.segment_counters().into_iter().map(|sc| {
            let mut row = json!({
                "seg": sc.seg,
                "batches": sc.batches,
                "batches_counted": sc.batches_counted,
                "llc_misses_per_item": sc.per_item(CounterKind::LlcMisses, per_round),
            });
            if let (Value::Object(row), Value::Object(readings)) =
                (&mut row, sc.sample.to_json(None))
            {
                row.extend(readings);
            }
            row
        });
        pairs.push(("per_segment".into(), Value::Array(rows.collect())));
    }
    meta
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Planner;
    use ccs_cachesim::CacheParams;
    use ccs_runtime::kernel::{SourceGen, SyntheticKernel};
    use ccs_runtime::Instance;

    #[test]
    fn a_sink_that_keeps_no_digest_writes_null() {
        // Synthetic kernels everywhere past the source: the sink
        // accumulates nothing, so the run has no digest to report, and
        // the record says so rather than printing sixteen zeros.
        let g = ccs_graph::gen::pipeline_uniform(6, 32);
        let source = g.single_source();
        let inst = Instance::with_factory(g, |g, v| {
            let words = g.state(v).max(1) as usize;
            if Some(v) == source {
                Box::new(SourceGen::new(words))
            } else {
                Box::new(SyntheticKernel::new(words, false))
            }
        });
        let cfg = RunConfig::new(2);
        let pr = Planner::new(CacheParams::new(256, 16))
            .plan_and_run_parallel(inst, 3, &cfg)
            .unwrap();
        assert_eq!(pr.stats.run.digest, None);
        assert!(pr.stats.run.sink_items > 0);
        let doc = document("no-digest", &pr, &cfg);
        assert!(
            doc["meta"]["digest"].is_null(),
            "{:?}",
            doc["meta"]["digest"]
        );
        let text = ccs_obs::report::render(&doc).unwrap();
        assert!(text.contains(" | digest none\n"), "{text}");
    }
}
