//! Baseline schedulers from the streaming literature.
//!
//! These are the comparison points the paper's partitioned schedules are
//! measured against:
//!
//! * [`single_appearance`] — the classic single-appearance steady-state
//!   schedule (Lee–Messerschmitt): each steady-state iteration fires the
//!   modules in topological order, `q(v)` times consecutively each.
//! * [`demand_driven`] — minimal-buffer operation: always fire the
//!   topologically deepest fireable module, with `minBuf`-sized channels.
//! * [`scaled_sas`] — Sermulins et al.'s *execution scaling*: a
//!   single-appearance schedule scaled by a factor `s` (each module fires
//!   `s·q(v)` times back to back), with [`choose_scale`] picking the
//!   largest `s` whose buffer footprint still fits in cache.
//! * [`kohli_greedy`] — Kohli's local heuristic for chains: run each
//!   module until its input is exhausted or its output fills, then move
//!   to its successor; buffers are fixed slices of the cache.

use crate::plan::SchedRun;
use ccs_graph::{buffers, NodeId, RateAnalysis, StreamGraph};

/// Capacities that let one steady-state iteration run as a
/// single-appearance schedule: each edge holds a full iteration of
/// traffic.
fn sas_capacities(g: &StreamGraph, ra: &RateAnalysis, scale: u64) -> Vec<u64> {
    g.edge_ids()
        .map(|e| ra.edge_traffic(g, e) * scale)
        .collect()
}

/// Single-appearance steady-state schedule for `iterations` iterations.
///
/// Fires `v` exactly `q(v)` times consecutively, nodes in topological
/// order, per iteration. Requires per-edge capacity of one iteration's
/// traffic.
pub fn single_appearance(g: &StreamGraph, ra: &RateAnalysis, iterations: u64) -> SchedRun {
    scaled_sas(g, ra, 1, iterations)
}

/// Sermulins-style scaled single-appearance schedule: per iteration, each
/// module fires `scale·q(v)` times consecutively. One iteration of the
/// scaled schedule covers `scale` steady-state iterations.
pub fn scaled_sas(g: &StreamGraph, ra: &RateAnalysis, scale: u64, iterations: u64) -> SchedRun {
    assert!(scale >= 1);
    let order = ccs_graph::topo::topo_order(g);
    let per_iter: u64 = order.iter().map(|&v| ra.q(v) * scale).sum();
    let mut firings = Vec::with_capacity(usize::try_from(per_iter * iterations).expect("fits"));
    for _ in 0..iterations {
        for &v in &order {
            for _ in 0..ra.q(v) * scale {
                firings.push(v);
            }
        }
    }
    SchedRun {
        label: if scale == 1 {
            "single-appearance".into()
        } else {
            format!("scaled-sas(x{scale})")
        },
        firings,
        capacities: sas_capacities(g, ra, scale),
    }
}

/// Largest execution-scaling factor whose total buffer footprint fits in
/// `budget` words (Sermulins et al. pick the largest scaling that avoids
/// "catastrophic spills"). At least 1.
pub fn choose_scale(g: &StreamGraph, ra: &RateAnalysis, budget: u64) -> u64 {
    let per_iter: u64 = g.edge_ids().map(|e| ra.edge_traffic(g, e)).sum();
    if per_iter == 0 {
        return 1;
    }
    (budget / per_iter).max(1)
}

/// Demand-driven schedule with minimal (`p + c`) buffers: repeatedly fire
/// the topologically deepest module that can fire, until the sink has
/// fired `sink_firings` times.
pub fn demand_driven(g: &StreamGraph, ra: &RateAnalysis, sink_firings: u64) -> SchedRun {
    let capacities: Vec<u64> = g.edge_ids().map(|e| buffers::min_buf_safe(g, e)).collect();
    let order = ccs_graph::topo::topo_order(g);
    let mut occupancy = vec![0u64; g.edge_count()];
    let sink = ra.sink.expect("demand-driven needs a unique sink");
    let mut fired_sink = 0u64;
    let mut firings = Vec::new();

    let can_fire = |occupancy: &[u64], v: NodeId| -> bool {
        g.in_edges(v)
            .iter()
            .all(|&e| occupancy[e.idx()] >= g.edge(e).consume)
            && g.out_edges(v)
                .iter()
                .all(|&e| occupancy[e.idx()] + g.edge(e).produce <= capacities[e.idx()])
    };

    while fired_sink < sink_firings {
        // Deepest fireable module first keeps buffers near empty.
        let v = order
            .iter()
            .rev()
            .copied()
            .find(|&v| can_fire(&occupancy, v))
            .expect("source can always fire with minBuf-safe capacities");
        for &e in g.in_edges(v) {
            occupancy[e.idx()] -= g.edge(e).consume;
        }
        for &e in g.out_edges(v) {
            occupancy[e.idx()] += g.edge(e).produce;
        }
        if v == sink {
            fired_sink += 1;
        }
        firings.push(v);
    }
    SchedRun {
        label: "demand-driven".into(),
        firings,
        capacities,
    }
}

/// Phased schedule (Karczmarek et al., cited in §6): one steady-state
/// iteration is split into *phases*; in each phase every module that can
/// fire does so once, repeating until the iteration's quota is met. The
/// breadth-synchronous structure keeps buffers near `minBuf` like
/// demand-driven scheduling, but with a statically regular shape.
pub fn phased(g: &StreamGraph, ra: &RateAnalysis, iterations: u64) -> SchedRun {
    let capacities: Vec<u64> = g
        .edge_ids()
        .map(|e| 2 * buffers::min_buf_safe(g, e))
        .collect();
    let order = ccs_graph::topo::topo_order(g);
    let mut occupancy = vec![0u64; g.edge_count()];
    let mut firings = Vec::new();

    let can_fire = |occupancy: &[u64], v: NodeId| -> bool {
        g.in_edges(v)
            .iter()
            .all(|&e| occupancy[e.idx()] >= g.edge(e).consume)
            && g.out_edges(v)
                .iter()
                .all(|&e| occupancy[e.idx()] + g.edge(e).produce <= capacities[e.idx()])
    };

    for _ in 0..iterations {
        let mut remaining: Vec<u64> = g.node_ids().map(|v| ra.q(v)).collect();
        let mut left: u64 = remaining.iter().sum();
        while left > 0 {
            let mut fired_this_phase = false;
            for &v in &order {
                if remaining[v.idx()] > 0 && can_fire(&occupancy, v) {
                    for &e in g.in_edges(v) {
                        occupancy[e.idx()] -= g.edge(e).consume;
                    }
                    for &e in g.out_edges(v) {
                        occupancy[e.idx()] += g.edge(e).produce;
                    }
                    remaining[v.idx()] -= 1;
                    left -= 1;
                    firings.push(v);
                    fired_this_phase = true;
                }
            }
            assert!(
                fired_this_phase,
                "phased schedule wedged; capacities too tight"
            );
        }
    }
    SchedRun {
        label: "phased".into(),
        firings,
        capacities,
    }
}

/// Kohli-style greedy chain heuristic: give each channel an equal slice
/// of a `buffer_budget` (at least `p + c`), then repeatedly take the
/// first fireable module in chain order and run it until it blocks.
///
/// Kohli's heuristic makes local "continue or advance" decisions from a
/// cache-miss estimate; run-until-blocked with cache-sized buffers is the
/// canonical simplification (it maximizes consecutive firings per module
/// subject to the buffer budget, with no global planning) and is
/// documented as such in DESIGN.md.
pub fn kohli_greedy(
    g: &StreamGraph,
    ra: &RateAnalysis,
    buffer_budget: u64,
    sink_firings: u64,
) -> SchedRun {
    let order = g
        .pipeline_order()
        .expect("kohli heuristic applies to pipelines");
    let n_edges = g.edge_count().max(1);
    let slice = buffer_budget / n_edges as u64;
    let capacities: Vec<u64> = g
        .edge_ids()
        .map(|e| slice.max(buffers::min_buf_safe(g, e)))
        .collect();
    let sink = ra.sink.expect("pipeline has a sink");
    let mut occupancy = vec![0u64; g.edge_count()];
    let mut fired_sink = 0u64;
    let mut firings = Vec::new();

    let can_fire = |occupancy: &[u64], v: NodeId| -> bool {
        g.in_edges(v)
            .iter()
            .all(|&e| occupancy[e.idx()] >= g.edge(e).consume)
            && g.out_edges(v)
                .iter()
                .all(|&e| occupancy[e.idx()] + g.edge(e).produce <= capacities[e.idx()])
    };

    while fired_sink < sink_firings {
        let mut progressed = false;
        for &v in &order {
            let mut ran = false;
            while can_fire(&occupancy, v) {
                for &e in g.in_edges(v) {
                    occupancy[e.idx()] -= g.edge(e).consume;
                }
                for &e in g.out_edges(v) {
                    occupancy[e.idx()] += g.edge(e).produce;
                }
                if v == sink {
                    fired_sink += 1;
                }
                firings.push(v);
                ran = true;
                if v == sink && fired_sink >= sink_firings {
                    break;
                }
            }
            progressed |= ran;
            if fired_sink >= sink_firings {
                break;
            }
        }
        assert!(progressed, "kohli schedule must make progress each sweep");
    }
    SchedRun {
        label: "kohli-greedy".into(),
        firings,
        capacities,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{ExecError, ExecOptions, Executor};
    use ccs_cachesim::CacheParams;
    use ccs_graph::gen::{self, PipelineCfg, StateDist};

    fn check_runs(g: &StreamGraph, ra: &RateAnalysis, run: &SchedRun) {
        let params = CacheParams::new(1 << 14, 16);
        let mut ex = Executor::new(
            g,
            ra,
            run.capacities.clone(),
            params,
            ExecOptions::default(),
        );
        ex.run(&run.firings)
            .unwrap_or_else(|e| panic!("{}: illegal schedule: {e}", run.label));
    }

    #[test]
    fn sas_is_legal_on_random_pipelines() {
        for seed in 0..15u64 {
            let g = gen::pipeline(&PipelineCfg::default(), seed);
            let ra = RateAnalysis::analyze_single_io(&g).unwrap();
            let run = single_appearance(&g, &ra, 3);
            check_runs(&g, &ra, &run);
        }
    }

    #[test]
    fn sas_is_legal_on_random_dags() {
        use ccs_graph::gen::LayeredCfg;
        let cfg = LayeredCfg {
            max_q: 3,
            ..LayeredCfg::default()
        };
        for seed in 0..15u64 {
            let g = gen::layered(&cfg, seed);
            let ra = RateAnalysis::analyze_single_io(&g).unwrap();
            let run = single_appearance(&g, &ra, 2);
            check_runs(&g, &ra, &run);
        }
    }

    #[test]
    fn sas_fires_sink_q_times_per_iteration() {
        let g = gen::pipeline(&PipelineCfg::default(), 3);
        let ra = RateAnalysis::analyze_single_io(&g).unwrap();
        let sink = ra.sink.unwrap();
        let run = single_appearance(&g, &ra, 5);
        let count = run.firings.iter().filter(|&&v| v == sink).count() as u64;
        assert_eq!(count, 5 * ra.q(sink));
    }

    #[test]
    fn scaled_sas_matches_scale_times_sas() {
        let g = gen::pipeline(&PipelineCfg::default(), 7);
        let ra = RateAnalysis::analyze_single_io(&g).unwrap();
        let s1 = single_appearance(&g, &ra, 4);
        let s2 = scaled_sas(&g, &ra, 4, 1);
        assert_eq!(s1.firings.len(), s2.firings.len());
        check_runs(&g, &ra, &s2);
    }

    /// A scaled single-appearance schedule needs every edge to hold
    /// `scale` iterations of its traffic, and no less: the producer
    /// fires all of its `scale·q` firings before the consumer's first.
    #[test]
    fn sas_capacities_hold_one_scaled_iteration_exactly() {
        let mut shortened = 0;
        for seed in 0..5u64 {
            let g = gen::pipeline(&PipelineCfg::default(), seed);
            let ra = RateAnalysis::analyze_single_io(&g).unwrap();
            for scale in [1u64, 3] {
                let run = scaled_sas(&g, &ra, scale, 2);
                let want: Vec<u64> = g
                    .edge_ids()
                    .map(|e| ra.edge_traffic(&g, e) * scale)
                    .collect();
                assert_eq!(run.capacities, want, "seed {seed} x{scale}");
                check_runs(&g, &ra, &run);
                for e in g.edge_ids() {
                    let mut caps = run.capacities.clone();
                    caps[e.idx()] -= 1;
                    let edge = g.edge(e);
                    if caps[e.idx()] < edge.produce.max(edge.consume) {
                        continue; // already at the rates' floor
                    }
                    shortened += 1;
                    let params = CacheParams::new(1 << 14, 16);
                    let mut ex = Executor::new(&g, &ra, caps, params, ExecOptions::default());
                    match ex.run(&run.firings) {
                        Err(ExecError::Overflow { edge: at, .. }) => assert_eq!(at, e),
                        other => panic!("seed {seed} x{scale} edge {e:?} one short: {other:?}"),
                    }
                }
            }
        }
        assert!(shortened > 20, "only {shortened} edges shortened");
    }

    #[test]
    fn choose_scale_respects_budget() {
        let g = gen::pipeline(&PipelineCfg::default(), 11);
        let ra = RateAnalysis::analyze_single_io(&g).unwrap();
        let per_iter: u64 = g.edge_ids().map(|e| ra.edge_traffic(&g, e)).sum();
        let s = choose_scale(&g, &ra, 10 * per_iter + 1);
        assert_eq!(s, 10);
        assert_eq!(choose_scale(&g, &ra, 0), 1, "scale is at least 1");
    }

    #[test]
    fn demand_driven_runs_with_min_buffers() {
        for seed in 0..10u64 {
            let g = gen::pipeline(&PipelineCfg::default(), seed);
            let ra = RateAnalysis::analyze_single_io(&g).unwrap();
            let run = demand_driven(&g, &ra, 5);
            check_runs(&g, &ra, &run);
            let sink = ra.sink.unwrap();
            assert_eq!(run.firings.iter().filter(|&&v| v == sink).count(), 5);
        }
    }

    #[test]
    fn demand_driven_works_on_dags() {
        use ccs_graph::gen::LayeredCfg;
        let cfg = LayeredCfg {
            max_q: 2,
            ..LayeredCfg::default()
        };
        for seed in 0..10u64 {
            let g = gen::layered(&cfg, seed);
            let ra = RateAnalysis::analyze_single_io(&g).unwrap();
            let run = demand_driven(&g, &ra, 4);
            check_runs(&g, &ra, &run);
        }
    }

    #[test]
    fn kohli_terminates_and_is_legal() {
        for seed in 0..10u64 {
            let g = gen::pipeline(
                &PipelineCfg {
                    len: 12,
                    state: StateDist::Uniform(16, 128),
                    max_q: 3,
                    max_rate_scale: 2,
                },
                seed,
            );
            let ra = RateAnalysis::analyze_single_io(&g).unwrap();
            let run = kohli_greedy(&g, &ra, 512, 20);
            check_runs(&g, &ra, &run);
        }
    }

    #[test]
    fn phased_is_legal_and_balanced() {
        use ccs_graph::gen::LayeredCfg;
        let cfg = LayeredCfg {
            max_q: 3,
            ..LayeredCfg::default()
        };
        for seed in 0..10u64 {
            let g = gen::layered(&cfg, seed);
            let ra = RateAnalysis::analyze_single_io(&g).unwrap();
            let run = phased(&g, &ra, 3);
            check_runs(&g, &ra, &run);
            // Exactly 3 steady-state iterations of work.
            let expected: u64 = ra.repetitions.iter().sum::<u64>() * 3;
            assert_eq!(run.firings.len() as u64, expected, "seed {seed}");
        }
    }

    #[test]
    fn phased_buffers_are_small() {
        let g = gen::pipeline(&PipelineCfg::default(), 5);
        let ra = RateAnalysis::analyze_single_io(&g).unwrap();
        let run = phased(&g, &ra, 2);
        for e in g.edge_ids() {
            assert_eq!(run.capacities[e.idx()], 2 * buffers::min_buf_safe(&g, e));
        }
    }

    #[test]
    fn demand_driven_buffers_stay_minimal() {
        // The whole point of demand-driven: capacities are minBuf-safe.
        let g = gen::pipeline(&PipelineCfg::default(), 2);
        let ra = RateAnalysis::analyze_single_io(&g).unwrap();
        let run = demand_driven(&g, &ra, 3);
        for e in g.edge_ids() {
            assert_eq!(run.capacities[e.idx()], buffers::min_buf_safe(&g, e));
        }
    }
}
