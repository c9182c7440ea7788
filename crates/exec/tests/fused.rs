//! Executor digest equivalence: a batch fires against windows of ring
//! storage and a flat per-segment arena in a counted loop of blocks, and
//! none of that may change what it computes. For every app,
//! partitioner and worker count, the threaded executor's digest must
//! be bit-identical to the reference interpreter's (`serial::execute`
//! over `partitioned::inhomogeneous`, which shares no code with it),
//! at one worker — the calling thread — as at several.

use ccs_exec::{execute_dag_cfg, ExecPlan, RunConfig};
use ccs_graph::gen::{self, LayeredCfg, PipelineCfg, StateDist};
use ccs_graph::{RateAnalysis, StreamGraph};
use ccs_partition::{dag_greedy, pipeline, Partition};
use ccs_runtime::Instance;
use ccs_sched::partitioned;

mod common;

/// Reference digest for `rounds` granularity-T rounds.
fn oracle_digest(
    g: &StreamGraph,
    ra: &RateAnalysis,
    p: &Partition,
    m: u64,
    rounds: u64,
) -> Option<u64> {
    let run = partitioned::inhomogeneous(g, ra, p, m, rounds).expect("reference schedule");
    let mut inst = Instance::synthetic(g.clone());
    let stats = ccs_runtime::serial::execute(&mut inst, &run);
    assert!(stats.digest.is_some(), "sink must accumulate a digest");
    stats.digest
}

fn check_app(name: &str, g: StreamGraph, m: u64, rounds: u64) {
    let ra = RateAnalysis::analyze_single_io(&g).unwrap_or_else(|e| panic!("{name}: {e}"));
    let bound = m.max(g.max_state());
    for (pname, p) in common::partitions(&g, &ra, bound) {
        let want = oracle_digest(&g, &ra, &p, m, rounds);
        for workers in [1usize, 2, 4] {
            let cfg = RunConfig::new(workers).with_warmup(1);
            let stats = execute_dag_cfg(Instance::synthetic(g.clone()), &ra, &p, m, rounds, &cfg)
                .unwrap_or_else(|e| panic!("{name}/{pname}: x{workers}: {e}"));
            assert_eq!(
                stats.run.digest, want,
                "{name}/{pname}: diverged from the oracle at x{workers}"
            );
        }
    }
}

#[test]
fn fm_radio_fused_matches_serial() {
    check_app("fm-radio", ccs_apps::fm_radio(8), 512, 2);
}

#[test]
fn beamformer_fused_matches_serial() {
    check_app("beamformer", ccs_apps::beamformer(4, 4), 256, 2);
}

#[test]
fn filterbank_fused_matches_serial() {
    check_app("filterbank", ccs_apps::filterbank(8), 512, 2);
}

#[test]
fn fft_fused_matches_serial() {
    check_app("fft", ccs_apps::fft(4), 256, 2);
}

#[test]
fn fir_bound_kernels_fused_match_serial() {
    // Real FIR kernels instead of the synthetic binding: the arena
    // spans feed the same kernel `fire` interface, so real state and
    // real peek windows must digest identically too.
    let g = ccs_apps::fm_radio(4);
    let ra = RateAnalysis::analyze_single_io(&g).unwrap();
    let bound = 512u64.max(g.max_state());
    let p = dag_greedy::greedy_best(&g, &ra, bound);
    let run = partitioned::inhomogeneous(&g, &ra, &p, 512, 2).unwrap();
    let mut oracle_inst = ccs_apps::fir_instance(g.clone());
    let want = ccs_runtime::serial::execute(&mut oracle_inst, &run).digest;
    for workers in [1usize, 2, 4] {
        let cfg = RunConfig::new(workers);
        let stats =
            execute_dag_cfg(ccs_apps::fir_instance(g.clone()), &ra, &p, 512, 2, &cfg).unwrap();
        assert_eq!(stats.run.digest, want, "workers {workers}");
    }
}

#[test]
fn wide_ports_run_at_two_workers() {
    // The benchmark's `wide-dag` shape has nodes with hundreds of ports
    // on one side, far past any small fixed view buffer, and cross edges
    // between the two workers on both sides of them.
    let g = gen::layered(
        &LayeredCfg {
            layers: 32,
            max_width: 36,
            density: 0.3,
            state: StateDist::Uniform(32, 128),
            max_q: 1,
        },
        0,
    );
    let widest = g
        .node_ids()
        .max_by_key(|&v| g.in_edges(v).len().max(g.out_edges(v).len()))
        .unwrap();
    assert!(g.in_edges(widest).len().max(g.out_edges(widest).len()) > 8);
    let ra = RateAnalysis::analyze_single_io(&g).unwrap();
    let (m, rounds) = (64, 3);
    let p = dag_greedy::greedy_best(&g, &ra, 1024);
    let want = oracle_digest(&g, &ra, &p, m, rounds);
    let cfg = RunConfig::new(2);
    let stats = execute_dag_cfg(Instance::synthetic(g.clone()), &ra, &p, m, rounds, &cfg).unwrap();
    assert_eq!(stats.run.digest, want);
}

#[test]
fn windows_stay_contiguous_at_batch_sizes_that_are_no_power_of_two() {
    // Kernels fire against ring storage, so a batch's window must never
    // straddle the end of its ring. A ring of exactly two batches keeps
    // that for any batch size; one rounded up to a power of two would
    // have wrapped on its third batch here (2·48 → 128 < 3·48).
    let (m, rounds) = (48u64, 6u64);
    let rated = gen::pipeline(
        &PipelineCfg {
            len: 10,
            state: StateDist::Uniform(8, 48),
            max_q: 3,
            max_rate_scale: 2,
        },
        1,
    );
    let rated_ra = RateAnalysis::analyze_single_io(&rated).unwrap();
    let rated_p = pipeline::greedy_theorem5(&rated, &rated_ra, m)
        .unwrap()
        .partition;
    let layered = gen::layered(
        &LayeredCfg {
            layers: 4,
            max_width: 3,
            density: 0.3,
            state: StateDist::Uniform(8, 48),
            max_q: 3,
        },
        2,
    );
    let layered_ra = RateAnalysis::analyze_single_io(&layered).unwrap();
    let layered_p = dag_greedy::greedy_topo(&layered, 96);
    for (name, g, ra, p) in [
        ("rated pipeline", &rated, &rated_ra, &rated_p),
        ("layered dag", &layered, &layered_ra, &layered_p),
    ] {
        let plan = ExecPlan::build(g, ra, p, m).unwrap();
        let batches: Vec<u64> = plan
            .segments
            .iter()
            .flat_map(|s| s.out_batch.iter().map(|&(_, n)| n))
            .collect();
        assert!(
            batches.iter().any(|n| !n.is_power_of_two()),
            "{name}: cross batches {batches:?}"
        );
        let want = oracle_digest(g, ra, p, m, rounds);
        let bind = || Instance::synthetic((*g).clone());
        for workers in [1usize, 2, 4] {
            let stats =
                execute_dag_cfg(bind(), ra, p, m, rounds, &RunConfig::new(workers)).unwrap();
            assert_eq!(stats.run.digest, want, "{name}: x{workers}");
        }
    }
}

#[test]
fn rings_are_allocated_for_cross_edges_only() {
    // The benchmark's frozen `thin-dag` shape and cache size: the plan's
    // cross-edge capacities (`exec.ring_capacity_words` there) are two
    // batches a cross edge and nothing for the internal edges, and the
    // words of ring a run lays out are those capacities over two or more
    // rounds, and one batch a ring in one round.
    let g = gen::layered(
        &LayeredCfg {
            layers: 8,
            max_width: 6,
            density: 0.35,
            state: StateDist::Uniform(32, 128),
            max_q: 2,
        },
        0,
    );
    let m = (g.total_state() / 3)
        .max(8 * g.max_state())
        .max(512)
        .next_multiple_of(16);
    let ra = RateAnalysis::analyze_single_io(&g).unwrap();
    let p = dag_greedy::greedy_best(&g, &ra, m);
    let plan = ExecPlan::build(&g, &ra, &p, m).unwrap();
    let cross: Vec<_> = plan.segments.iter().flat_map(|s| &s.out_batch).collect();
    assert!(!cross.is_empty() && cross.len() < g.edge_count());
    let want: u64 = cross.iter().map(|&&(e, _)| plan.capacities[e.idx()]).sum();
    assert_eq!(want, plan.capacities.iter().sum::<u64>());
    let batches: u64 = cross.iter().map(|&&(_, n)| n).sum();
    assert_eq!(want, 2 * batches);
    for (rounds, laid_out) in [(1, batches), (2, want)] {
        let stats = execute_dag_cfg(
            Instance::synthetic(g.clone()),
            &ra,
            &p,
            m,
            rounds,
            &RunConfig::new(2),
        )
        .unwrap();
        assert_eq!(stats.ring_words, laid_out, "{rounds} rounds");
    }
}

#[test]
fn with_fused_selects_nothing() {
    // The builder method outlives the path it used to select (the
    // benchmark calls it): both arguments run the same executor.
    let g = ccs_apps::filterbank(8);
    let ra = RateAnalysis::analyze_single_io(&g).unwrap();
    let p = dag_greedy::greedy_best(&g, &ra, 512u64.max(g.max_state()));
    let [off, on] = [false, true].map(|fused| {
        let cfg = RunConfig::new(2).with_fused(fused);
        execute_dag_cfg(Instance::synthetic(g.clone()), &ra, &p, 512, 2, &cfg)
            .unwrap()
            .run
    });
    assert_eq!(
        (off.digest, off.firings, off.sink_items),
        (on.digest, on.firings, on.sink_items)
    );
}
