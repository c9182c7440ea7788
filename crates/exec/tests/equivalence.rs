//! Cross-executor equivalence: the multicore dag executor must produce a
//! sink digest bit-identical to the reference interpreter's, for every app,
//! partitioner, worker count, and placement — SDF determinism is the
//! correctness contract that makes a concurrent executor testable.

use ccs_exec::{execute_dag_cfg, BoundaryLayout, ExecPlan, Lifetimes, Placement, RunConfig};
use ccs_graph::gen::{self, LayeredCfg, PipelineCfg, StateDist};
use ccs_graph::{RateAnalysis, StreamGraph};
use ccs_partition::{dag_greedy, Partition};
use ccs_runtime::Instance;
use ccs_sched::partitioned;

mod common;

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

/// Every partition of `common::partitions`, over 2, 3 and 8 rounds, at
/// two to four workers (and one, over two rounds) under both placements: the measured one re-deals
/// the segments after round 0, and the digest is round-robin's and the
/// reference interpreter's all the same.
fn check_app(name: &str, g: StreamGraph, m: u64) {
    let ra = RateAnalysis::analyze_single_io(&g).unwrap_or_else(|e| panic!("{name}: {e}"));
    let bound = m.max(g.max_state());
    for (pname, p) in common::partitions(&g, &ra, bound) {
        assert!(
            p.validate(&g, bound).is_ok(),
            "{name}/{pname}: invalid partition"
        );
        for rounds in [2, 3, 8] {
            check_rounds(name, pname, &g, &ra, &p, m, rounds);
        }
    }
}

fn check_rounds(
    name: &str,
    pname: &str,
    g: &StreamGraph,
    ra: &RateAnalysis,
    p: &Partition,
    m: u64,
    rounds: u64,
) {
    let want = serial_digest(g, ra, p, m, rounds);
    // A lone worker places nothing: once is enough for it.
    let least = if rounds == 2 { 1 } else { 2 };
    for workers in least..=4usize {
        for placement in [Placement::RoundRobin, Placement::Measured] {
            let inst = Instance::synthetic(g.clone());
            let stats = execute_dag_cfg(
                inst,
                ra,
                p,
                m,
                rounds,
                &RunConfig::new(workers).with_placement(placement),
            )
            .unwrap_or_else(|e| panic!("{name}/{pname}: {e}"));
            assert_eq!(
                stats.run.digest,
                want,
                "{name}/{pname}: digest diverged at {workers} workers, {rounds} rounds, {}",
                placement.name()
            );
        }
    }
}

#[test]
fn fm_radio_matches_serial() {
    check_app("fm-radio", ccs_apps::fm_radio(8), 512);
}

#[test]
fn beamformer_matches_serial() {
    check_app("beamformer", ccs_apps::beamformer(4, 4), 256);
}

#[test]
fn filterbank_matches_serial() {
    check_app("filterbank", ccs_apps::filterbank(8), 512);
}

#[test]
fn fft_matches_serial() {
    check_app("fft", ccs_apps::fft(4), 256);
}

/// The same contract with the real FIR kernel binding instead of the
/// synthetic one: the reference interpreter fires the filters one
/// `fire` at a time, the executor in `fire_n` runs against arena and
/// ring storage, and the digests must agree.
fn check_fir_bound(name: &str, g: StreamGraph, m: u64, rounds: u64, workers: &[usize]) {
    let ra = RateAnalysis::analyze_single_io(&g).unwrap();
    let bound = m.max(g.max_state());
    let p = dag_greedy::greedy_best(&g, &ra, bound);
    assert!(p.num_components() > 1, "{name}: the run crosses segments");
    let run = partitioned::inhomogeneous(&g, &ra, &p, m, rounds).unwrap();
    let mut serial_inst = ccs_apps::fir_instance(g.clone());
    let want = ccs_runtime::serial::execute(&mut serial_inst, &run).digest;
    assert_ne!(
        want,
        serial_digest(&g, &ra, &p, m, rounds),
        "{name}: the filters are bound, not the synthetic fallback"
    );
    for &workers in workers {
        let inst = ccs_apps::fir_instance(g.clone());
        let stats = execute_dag_cfg(
            inst,
            &ra,
            &p,
            m,
            rounds,
            &RunConfig::new(workers).with_placement(Placement::Measured),
        )
        .unwrap();
        assert_eq!(stats.run.digest, want, "{name}: workers {workers}");
    }
}

#[test]
fn fir_bound_kernels_match_serial() {
    check_fir_bound("fm-radio(4)", ccs_apps::fm_radio(4), 512, 2, &[1, 2, 4]);
}

#[test]
fn awkward_fir_shapes_match_serial() {
    // 27 taps consuming 5 and 34 taps consuming 1: head firings whose
    // window is stitched from the carried one and the run, with the
    // seam inside a chunk of four and inside the leftover words.
    check_fir_bound(
        "awkward fir pipe",
        common::awkward_fir_pipe(),
        64,
        3,
        &[1, 2],
    );
}

#[test]
fn big_state_pipeline_matches_serial() {
    // Six stages of the benchmark's `bigstate-pipe` shape: every state
    // is 2 048 words or more, so every firing sweeps in the wide
    // summation order — per firing in the reference interpreter, in
    // `fire_n` runs of 16 here.
    let g = ccs_graph::gen::pipeline(
        &ccs_graph::gen::PipelineCfg {
            len: 6,
            state: ccs_graph::gen::StateDist::Uniform(2048, 6144),
            max_q: 1,
            max_rate_scale: 1,
        },
        0,
    );
    let ra = RateAnalysis::analyze_single_io(&g).unwrap();
    let m = 8192;
    let p = dag_greedy::greedy_best(&g, &ra, m);
    assert!(p.num_components() > 1, "the run crosses segments");
    let want = serial_digest(&g, &ra, &p, m, 1);
    for workers in [1usize, 2] {
        let inst = Instance::synthetic(g.clone());
        let stats = execute_dag_cfg(inst, &ra, &p, m, 1, &RunConfig::new(workers)).unwrap();
        assert_eq!(stats.run.digest, want, "workers {workers}");
    }
}

/// One round at two, three and four workers under round-robin and the
/// measured placement (which deals one round as round-robin does),
/// against the reference interpreter,
/// for every partition of `common::partitions`: the runs whose rings
/// share storage, each producer waiting for the rings whose storage it
/// takes. Returns how many of the partitions have a layout that shares
/// at some worker count.
fn check_one_round(name: &str, g: StreamGraph, m: u64) -> usize {
    let ra = RateAnalysis::analyze_single_io(&g).unwrap_or_else(|e| panic!("{name}: {e}"));
    let bound = m.max(g.max_state());
    let mut sharing = 0;
    for (pname, p) in common::partitions(&g, &ra, bound) {
        let want = serial_digest(&g, &ra, &p, m, 1);
        let plan = ExecPlan::build(&g, &ra, &p, m).unwrap();
        let mut shares = false;
        for workers in [2usize, 3, 4] {
            let layout = BoundaryLayout::build(&plan, Lifetimes::OneRound { workers }).unwrap();
            shares |= layout.rings.iter().any(|r| !r.after.is_empty());
            for placement in [Placement::RoundRobin, Placement::Measured] {
                let inst = Instance::synthetic(g.clone());
                let stats = execute_dag_cfg(
                    inst,
                    &ra,
                    &p,
                    m,
                    1,
                    &RunConfig::new(workers).with_placement(placement),
                )
                .unwrap_or_else(|e| panic!("{name}/{pname}: {e}"));
                assert_eq!(
                    stats.run.digest,
                    want,
                    "{name}/{pname}: one round diverged at {workers} workers, {}",
                    placement.name()
                );
            }
        }
        sharing += usize::from(shares);
    }
    sharing
}

#[test]
fn suite_apps_match_serial_in_one_round() {
    for (name, g, m) in [
        ("fm-radio", ccs_apps::fm_radio(8), 512),
        ("beamformer", ccs_apps::beamformer(4, 4), 256),
        ("filterbank", ccs_apps::filterbank(8), 512),
        ("fft", ccs_apps::fft(4), 256),
    ] {
        check_one_round(name, g, m);
    }
}

#[test]
fn benchmark_shapes_match_serial_in_one_round() {
    // `wide-dag`'s generator settings, a third as many layers and as
    // wide, at a small cache: many segments, so rings are born several
    // segments past other rings' consumers.
    let wide = gen::layered(
        &LayeredCfg {
            layers: 12,
            max_width: 12,
            density: 0.3,
            state: StateDist::Uniform(32, 128),
            max_q: 1,
        },
        0,
    );
    assert!(check_one_round("wide-dag shape", wide, 512) > 0);
    // `bigstate-pipe`'s generator settings, an eighth as long, at a
    // small cache.
    let big = gen::pipeline(
        &PipelineCfg {
            len: 8,
            state: StateDist::Uniform(2048, 6144),
            max_q: 1,
            max_rate_scale: 1,
        },
        0,
    );
    assert!(check_one_round("bigstate-pipe shape", big, 4096) > 0);
}
