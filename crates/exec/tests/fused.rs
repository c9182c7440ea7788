//! Fused hot-path digest equivalence: fusion changes how a batch
//! executes — bulk ring ops, a flat per-segment arena, a counted
//! period loop — never what it computes. For every app, partitioner,
//! worker count, and warmup mode, the fused digest must be
//! bit-identical to the classic serial executor's; the serial fused
//! executor must agree too. This is the same contract equivalence.rs
//! enforces for the classic parallel path, extended to the fused one.

use ccs_exec::{execute_dag_cfg, execute_serial_fused, RunConfig, WarmupMode};
use ccs_graph::{RateAnalysis, StreamGraph};
use ccs_partition::{dag_greedy, multilevel, Partition};
use ccs_runtime::serial::ObsConfig;
use ccs_runtime::Instance;
use ccs_sched::partitioned;

/// Serial reference digest for `rounds` granularity-T rounds.
fn serial_digest(
    g: &StreamGraph,
    ra: &RateAnalysis,
    p: &Partition,
    m: u64,
    rounds: u64,
) -> Option<u64> {
    let run = partitioned::inhomogeneous(g, ra, p, m, rounds).expect("serial reference schedule");
    let mut inst = Instance::synthetic(g.clone());
    let stats = ccs_runtime::serial::execute(&mut inst, &run);
    assert!(stats.digest.is_some(), "sink must accumulate a digest");
    stats.digest
}

/// Two partitioners per graph, as in equivalence.rs — fusion has to
/// hold on whatever segment shapes the partitioners produce, not just
/// friendly ones.
fn partitions(g: &StreamGraph, ra: &RateAnalysis, bound: u64) -> Vec<(&'static str, Partition)> {
    vec![
        ("dag-greedy", dag_greedy::greedy_best(g, ra, bound)),
        (
            "multilevel",
            multilevel::multilevel(g, ra, bound, &multilevel::MultilevelCfg::default()),
        ),
    ]
}

fn check_app(name: &str, g: StreamGraph, m: u64, rounds: u64) {
    let ra = RateAnalysis::analyze_single_io(&g).unwrap_or_else(|e| panic!("{name}: {e}"));
    let bound = m.max(g.max_state());
    for (pname, p) in partitions(&g, &ra, bound) {
        let want = serial_digest(&g, &ra, &p, m, rounds);

        // Serial fused leg: same firings, same order, one thread.
        let inst = Instance::synthetic(g.clone());
        let (stats, _) = execute_serial_fused(inst, &ra, &p, m, rounds, &ObsConfig::default())
            .unwrap_or_else(|e| panic!("{name}/{pname}: serial fused: {e}"));
        assert_eq!(stats.digest, want, "{name}/{pname}: serial fused diverged");

        // Parallel fused legs across worker counts and warmup modes,
        // each checked against its classic (unfused) twin and the
        // serial reference.
        for mode in [WarmupMode::Epoch, WarmupMode::PerWorker] {
            for workers in [1usize, 2, 4] {
                let base = RunConfig::new(workers)
                    .with_warmup(1)
                    .with_warmup_mode(mode);
                let classic = execute_dag_cfg(
                    Instance::synthetic(g.clone()),
                    &ra,
                    &p,
                    m,
                    rounds,
                    &base.clone().with_fused(false),
                )
                .unwrap_or_else(|e| panic!("{name}/{pname}: classic {mode:?} x{workers}: {e}"));
                let fused = execute_dag_cfg(
                    Instance::synthetic(g.clone()),
                    &ra,
                    &p,
                    m,
                    rounds,
                    &base.with_fused(true),
                )
                .unwrap_or_else(|e| panic!("{name}/{pname}: fused {mode:?} x{workers}: {e}"));
                assert_eq!(
                    fused.run.digest, want,
                    "{name}/{pname}: fused diverged from serial at {mode:?} x{workers}"
                );
                assert_eq!(
                    fused.run.digest, classic.run.digest,
                    "{name}/{pname}: fused != classic at {mode:?} x{workers}"
                );
                assert_eq!(
                    fused.run.sink_items, classic.run.sink_items,
                    "{name}/{pname}: sink accounting moved at {mode:?} x{workers}"
                );
            }
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
    let mut serial_inst = ccs_apps::fir_instance(g.clone());
    let want = ccs_runtime::serial::execute(&mut serial_inst, &run).digest;
    let (stats, _) = execute_serial_fused(
        ccs_apps::fir_instance(g.clone()),
        &ra,
        &p,
        512,
        2,
        &ObsConfig::default(),
    )
    .unwrap();
    assert_eq!(stats.digest, want, "serial fused");
    for workers in [1usize, 2, 4] {
        let cfg = RunConfig::new(workers).with_fused(true);
        let stats =
            execute_dag_cfg(ccs_apps::fir_instance(g.clone()), &ra, &p, 512, 2, &cfg).unwrap();
        assert_eq!(stats.run.digest, want, "workers {workers}");
    }
}
