//! The reference interpreter, pinned by value.
//!
//! Every executor test in this workspace compares a sink digest with
//! `ccs_runtime::serial::execute` over
//! `ccs_sched::partitioned::inhomogeneous`. That oracle is only as good
//! as it is stable, so its digests on a handful of fixed inputs are
//! recorded here as literals: a change to the interpreter, the
//! scheduler, the kernels or the app graphs that moves the stream it
//! computes fails this file before it can silently move every other
//! test's expectation with it.

use ccs_graph::gen::{self, LayeredCfg, PipelineCfg, StateDist};
use ccs_graph::{RateAnalysis, StreamGraph};
use ccs_partition::dag_greedy;
use ccs_runtime::Instance;
use ccs_sched::partitioned;

mod common;

type Bind = fn(StreamGraph) -> Instance;

/// Digest of `rounds` granularity-`T` rounds of the dag-greedy
/// partition's two-level schedule through the reference interpreter.
fn oracle(g: &StreamGraph, bind: Bind, m: u64, rounds: u64) -> u64 {
    let ra = RateAnalysis::analyze_single_io(g).expect("rate matched");
    let p = dag_greedy::greedy_best(g, &ra, m.max(g.max_state()));
    let run = partitioned::inhomogeneous(g, &ra, &p, m, rounds).expect("schedulable");
    let mut inst = bind(g.clone());
    ccs_runtime::serial::execute(&mut inst, &run)
        .digest
        .expect("the sink digests its stream")
}

/// The benchmark's frozen `thin-dag` shape and its cache size.
fn thin_dag() -> (StreamGraph, u64) {
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
    (g, m)
}

/// Six stages of the benchmark's `bigstate-pipe` shape: every state is
/// 2 048 words or more, so every sweep takes the wide summation order
/// (`ccs_runtime::kernel::WIDE_FROM`), which the other cases' 1–128-word
/// states never reach.
fn big_state_pipe() -> StreamGraph {
    gen::pipeline(
        &PipelineCfg {
            len: 6,
            state: StateDist::Uniform(2048, 6144),
            max_q: 1,
            max_rate_scale: 1,
        },
        0,
    )
}

#[test]
fn reference_interpreter_digests_are_pinned() {
    let (thin, thin_m) = thin_dag();
    let cases: [(&str, StreamGraph, Bind, u64, u64, u64); 7] = [
        (
            "fm-radio(8)",
            ccs_apps::fm_radio(8),
            Instance::synthetic,
            512,
            2,
            0xb96e_dd89_8466_39f3,
        ),
        (
            "filterbank(8)",
            ccs_apps::filterbank(8),
            Instance::synthetic,
            512,
            2,
            0x6974_b3a6_b5ed_dfdd,
        ),
        (
            "filterbank(8) fir",
            ccs_apps::filterbank(8),
            ccs_apps::fir_instance,
            512,
            2,
            0xca02_4b87_9e5c_aa25,
        ),
        (
            "fft(4)",
            ccs_apps::fft(4),
            Instance::synthetic,
            256,
            2,
            0x3cee_10d9_69ad_0485,
        ),
        (
            "thin-dag",
            thin,
            Instance::synthetic,
            thin_m,
            4,
            0xff8d_78e7_584c_be7c,
        ),
        (
            "big-state pipe",
            big_state_pipe(),
            Instance::synthetic,
            8192,
            1,
            0x3793_95ae_86f8_4c36,
        ),
        // FIR kernels of 27 taps consuming 5 and 34 consuming 1, fired
        // one at a time: every window is stitched from the carried
        // samples and the firing's own, the seam inside a chunk of four
        // or inside the leftover words.
        (
            "awkward fir pipe",
            common::awkward_fir_pipe(),
            ccs_apps::fir_instance,
            64,
            3,
            0xf8b7_eca1_a92b_c342,
        ),
    ];
    for (name, g, bind, m, rounds, want) in cases {
        let got = oracle(&g, bind, m, rounds);
        assert_eq!(got, want, "{name}: oracle digest is {got:#018x}");
    }
}
