//! The scheduler-comparison harness: run every applicable scheduler on a
//! graph at a common sink-output target and tabulate misses per output.
//!
//! This is the engine behind `ccs compare` and the baseline-comparison
//! experiments (`e02` and `e10` in `crates/bench/src/bin/`).

use crate::planner::{Horizon, Planner, Strategy};
use ccs_cachesim::CacheParams;
use ccs_graph::{RateAnalysis, StreamGraph};
use ccs_sched::{baseline, partitioned, ExecOptions, Executor, SchedRun};

/// One scheduler's outcome on a workload.
#[derive(Clone, Debug)]
pub struct Comparison {
    pub label: String,
    pub misses: u64,
    pub interior_misses: u64,
    pub outputs: u64,
    pub inputs: u64,
    pub buffer_words: u64,
    pub misses_per_output: f64,
}

fn run_one(
    g: &StreamGraph,
    ra: &RateAnalysis,
    params: CacheParams,
    run: SchedRun,
) -> Option<Comparison> {
    let mut ex = Executor::new(
        g,
        ra,
        run.capacities.clone(),
        params,
        ExecOptions::default(),
    );
    ex.run(&run.firings).ok()?;
    let rep = ex.report();
    let outputs = rep.outputs.max(1);
    Some(Comparison {
        label: run.label.clone(),
        misses: rep.stats.misses,
        interior_misses: rep.interior_misses(),
        outputs: rep.outputs,
        inputs: rep.inputs,
        buffer_words: run.buffer_words(),
        misses_per_output: rep.stats.misses as f64 / outputs as f64,
    })
}

/// Run all applicable schedulers on `g`, each until the sink has fired
/// (at least) `sink_target` times, and return one row per scheduler.
///
/// Included: single-appearance, cache-budget execution scaling, demand
/// driven, Kohli greedy (pipelines), the partitioned scheduler with the
/// Auto strategy, and for pipelines additionally the DP-optimal
/// partition.
pub fn compare_schedulers(
    g: &StreamGraph,
    params: CacheParams,
    sink_target: u64,
) -> Vec<Comparison> {
    let ra = match RateAnalysis::analyze_single_io(g) {
        Ok(ra) => ra,
        Err(_) => return Vec::new(),
    };
    let sink = ra.sink.expect("single sink");
    let q_sink = ra.q(sink).max(1);
    let iterations = sink_target.div_ceil(q_sink);
    let mut rows = Vec::new();

    // Single-appearance steady state.
    rows.extend(run_one(
        g,
        &ra,
        params,
        baseline::single_appearance(g, &ra, iterations),
    ));

    // Execution scaling with the cache as the buffer budget.
    let scale = baseline::choose_scale(g, &ra, params.capacity);
    if scale > 1 {
        rows.extend(run_one(
            g,
            &ra,
            params,
            baseline::scaled_sas(g, &ra, scale, iterations.div_ceil(scale)),
        ));
    }

    // Demand driven.
    rows.extend(run_one(
        g,
        &ra,
        params,
        baseline::demand_driven(g, &ra, sink_target),
    ));

    // Phased (Karczmarek-style breadth-synchronous iterations).
    rows.extend(run_one(
        g,
        &ra,
        params,
        baseline::phased(g, &ra, iterations),
    ));

    // Kohli greedy (pipelines only). The heuristic targets buffers that
    // fit in cache *alongside* module state, so give it a quarter of M.
    if g.is_pipeline() {
        rows.extend(run_one(
            g,
            &ra,
            params,
            baseline::kohli_greedy(g, &ra, params.capacity / 4, sink_target),
        ));
    }

    // The paper's partitioned scheduler (Auto strategy).
    let planner = Planner::new(params);
    if let Ok(plan) = planner.plan(g, Horizon::SinkFirings(sink_target)) {
        rows.extend(run_one(g, &ra, params, plan.run));
    }

    // DP-optimal partition for pipelines (bandwidth-optimal comparison).
    if g.is_pipeline() {
        let dp_planner = Planner::new(params).with_strategy(Strategy::PipelineDp);
        if let Ok(plan) = dp_planner.plan(g, Horizon::SinkFirings(sink_target)) {
            let mut run = plan.run;
            run.label = "partitioned-dp".into();
            rows.extend(run_one(g, &ra, params, run));
        }
    }

    // Inhomogeneous/homogeneous static partitioned schedule for dags was
    // already included via the planner; also add a whole-graph (single
    // component) run when everything fits in cache, as the trivial
    // best case.
    if g.total_state() <= params.capacity / 2 {
        let p = ccs_partition::Partition::whole(g);
        let run = if g.is_homogeneous() {
            partitioned::homogeneous(
                g,
                &ra,
                &p,
                params.capacity,
                rounds_for(g, &ra, params.capacity, sink_target),
            )
        } else {
            partitioned::inhomogeneous(
                g,
                &ra,
                &p,
                params.capacity,
                rounds_for(g, &ra, params.capacity, sink_target),
            )
        };
        if let Ok(mut run) = run {
            run.label = "whole-graph".into();
            rows.extend(run_one(g, &ra, params, run));
        }
    }

    rows
}

fn rounds_for(g: &StreamGraph, ra: &RateAnalysis, m_items: u64, sink_target: u64) -> u64 {
    let sink = ra.sink.expect("single sink");
    let t = partitioned::granularity_t(g, ra, m_items).unwrap_or(m_items.max(1));
    let per_round = (ccs_graph::Ratio::integer(t as i128) * ra.gain(sink))
        .floor()
        .max(1) as u64;
    sink_target.div_ceil(per_round)
}

/// Render rows as an aligned text table (for experiment binaries).
pub fn format_table(title: &str, rows: &[Comparison]) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(s, "## {title}");
    let _ = writeln!(
        s,
        "{:<32} {:>12} {:>12} {:>10} {:>14} {:>12}",
        "scheduler", "misses", "interior", "outputs", "misses/output", "buf words"
    );
    for r in rows {
        let _ = writeln!(
            s,
            "{:<32} {:>12} {:>12} {:>10} {:>14.4} {:>12}",
            r.label, r.misses, r.interior_misses, r.outputs, r.misses_per_output, r.buffer_words
        );
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccs_graph::gen;

    #[test]
    fn comparison_covers_expected_schedulers_on_pipeline() {
        let g = gen::pipeline_uniform(16, 128);
        let params = CacheParams::new(512, 16);
        let rows = compare_schedulers(&g, params, 200);
        let labels: Vec<&str> = rows.iter().map(|r| r.label.as_str()).collect();
        assert!(labels.contains(&"single-appearance"), "{labels:?}");
        assert!(labels.contains(&"demand-driven"));
        assert!(labels.contains(&"kohli-greedy"));
        assert!(
            labels.iter().any(|l| l.starts_with("partitioned")),
            "{labels:?}"
        );
        // Every row produced at least the target outputs.
        for r in &rows {
            assert!(r.outputs >= 200, "{}: {}", r.label, r.outputs);
        }
    }

    #[test]
    fn partitioned_wins_when_state_thrashes() {
        // The headline comparison: total state 16x the cache.
        let g = gen::pipeline_uniform(32, 256);
        let params = CacheParams::new(512, 16);
        let rows = compare_schedulers(&g, params, 1024);
        let naive = rows
            .iter()
            .find(|r| r.label == "single-appearance")
            .unwrap();
        let part = rows
            .iter()
            .filter(|r| r.label.starts_with("partitioned"))
            .min_by(|a, b| a.misses_per_output.total_cmp(&b.misses_per_output))
            .unwrap();
        assert!(
            part.misses_per_output * 4.0 < naive.misses_per_output,
            "partitioned {} vs naive {}",
            part.misses_per_output,
            naive.misses_per_output
        );
    }

    #[test]
    fn table_formatting_contains_rows() {
        let g = gen::pipeline_uniform(8, 64);
        let params = CacheParams::new(256, 16);
        let rows = compare_schedulers(&g, params, 64);
        let table = format_table("test", &rows);
        assert!(table.contains("single-appearance"));
        assert!(table.contains("misses/output"));
    }
}
