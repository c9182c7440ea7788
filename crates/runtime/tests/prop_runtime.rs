//! Property-based tests for the real executors and ring buffers.

use ccs_graph::gen::{self, LayeredCfg, PipelineCfg, StateDist};
use ccs_graph::RateAnalysis;
use ccs_runtime::kernel::{
    fir_reference, state_sweep, sweep_reference, wide_instances, FirFilter, ForwardDigest, Mixer,
    SinkCollect, SourceGen, SyntheticKernel, WIDE_FROM,
};
use ccs_runtime::{execute, Instance, Kernel, SpscRing};
use ccs_sched::baseline;
use proptest::prelude::*;
use std::collections::VecDeque;

/// A kernel with `fire` alone — it takes [`Kernel::fire_n`]'s default,
/// as the benchmark's seeded source does — whose state every firing
/// moves and every output depends on.
struct FireOnly {
    fires: f32,
    hash: u64,
}

impl Kernel for FireOnly {
    fn state_words(&self) -> usize {
        1
    }

    fn fire(&mut self, inputs: &[&[f32]], outputs: &mut [&mut [f32]]) {
        self.fires += 1.0;
        let mut acc = self.fires;
        for &x in inputs.iter().flat_map(|input| input.iter()) {
            acc += x;
            self.hash = self.hash.rotate_left(5) ^ x.to_bits() as u64;
        }
        for (port, out) in outputs.iter_mut().enumerate() {
            for (i, slot) in out.iter_mut().enumerate() {
                *slot = acc + (port * 8 + i) as f32;
            }
        }
    }

    fn digest(&self) -> Option<u64> {
        Some(self.hash)
    }
}

/// Kernel `kind` with `state` words, for ports of the given rates; the
/// FIR filter has one input port, whose rate is its decimation.
fn kernel_of(kind: u8, state: usize, in_rates: &[usize]) -> Box<dyn Kernel> {
    match kind {
        0 => Box::new(SyntheticKernel::new(state, false)),
        1 => Box::new(SyntheticKernel::new(state, true)),
        2 => Box::new(SourceGen::new(state)),
        3 => Box::new(SinkCollect::new(state)),
        4 => Box::new(Mixer::new(state)),
        5 => Box::new(FirFilter::new(state, in_rates[0])),
        6 => Box::new(ForwardDigest::new(Box::new(SinkCollect::new(state)))),
        7 => {
            // The phase-shift kernel is private to ccs-apps: bind a
            // three-stage graph and take its hot stage, which steps to
            // triple work at its fifth firing.
            let mut b = ccs_graph::GraphBuilder::new();
            let src = b.node("src", 1);
            let hot = b.node("phase-hot-0", state as u64);
            let sink = b.node("sink", 1);
            b.edge(src, hot, 1, 1);
            b.edge(hot, sink, 1, 1);
            let mut inst = ccs_apps::phase_shift_instance(b.build().unwrap(), 4, 3);
            inst.kernels.swap_remove(hot.idx())
        }
        _ => Box::new(FireOnly {
            fires: 0.0,
            hash: 0,
        }),
    }
}

/// Deterministic stream items, a different sequence per `salt`.
fn items(n: usize, salt: u64) -> Vec<f32> {
    (0..n as u64)
        .map(|i| ((i + salt).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40) as f32 / 1024.0)
        .collect()
}

/// Output items as bit patterns: equality below is bit for bit.
fn bits(ports: &[Vec<f32>]) -> Vec<Vec<u32>> {
    ports
        .iter()
        .map(|p| p.iter().map(|x| x.to_bits()).collect())
        .collect()
}

/// `fire_n(count)` is `count` × `fire` — same outputs, same digest and,
/// by one further firing, same state — for kernel `kind` over ports of
/// the given rates.
fn assert_fire_n_is_count_times_fire(
    kind: u8,
    state: usize,
    count: usize,
    salt: u64,
    in_rates: &[usize],
    out_rates: &[usize],
) {
    let mut run = kernel_of(kind, state, in_rates);
    let mut each = kernel_of(kind, state, in_rates);

    for (count, salt) in [(count, salt), (1, salt + 99)] {
        let inputs: Vec<Vec<f32>> = in_rates
            .iter()
            .enumerate()
            .map(|(port, rate)| items(count * rate, salt + port as u64))
            .collect();
        let mut by_run: Vec<Vec<f32>> = out_rates
            .iter()
            .map(|rate| vec![0.0; count * rate])
            .collect();
        let mut by_each = by_run.clone();

        let ins: Vec<&[f32]> = inputs.iter().map(|p| p.as_slice()).collect();
        let mut outs: Vec<&mut [f32]> = by_run.iter_mut().map(|p| p.as_mut_slice()).collect();
        run.fire_n(count, &ins, &mut outs);
        for k in 0..count {
            let ins: Vec<&[f32]> = inputs
                .iter()
                .zip(in_rates)
                .map(|(p, rate)| &p[k * rate..(k + 1) * rate])
                .collect();
            let mut outs: Vec<&mut [f32]> = by_each
                .iter_mut()
                .zip(out_rates)
                .map(|(p, rate)| &mut p[k * rate..(k + 1) * rate])
                .collect();
            each.fire(&ins, &mut outs);
        }
        assert_eq!(
            bits(&by_run),
            bits(&by_each),
            "kind {kind} state {state} count {count}"
        );
        assert_eq!(
            run.digest(),
            each.digest(),
            "kind {kind} state {state} count {count}"
        );
    }
}

/// The same on both sides of [`WIDE_FROM`] and at the mean
/// `bigstate-pipe` state, for the kernels that sweep with
/// [`state_sweep`]: a run and its firings take the same summation
/// order, whichever it is.
#[test]
fn fire_n_is_count_times_fire_across_the_wide_threshold() {
    for kind in 0..5 {
        for state in [WIDE_FROM - 1, WIDE_FROM, WIDE_FROM + 1, 4422] {
            for count in [1, 5, 16, 40] {
                assert_fire_n_is_count_times_fire(kind, state, count, 7, &[1, 3], &[2, 1]);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `fire_n(count)` is `count` × `fire` for every kernel the hot
    /// path can meet, including one that takes the default `fire_n`,
    /// with up to ten ports a side (the default's view tables move to
    /// the heap past eight) and runs up to 40 firings long (the blocked
    /// loops pass over 16 at a time).
    #[test]
    fn fire_n_is_count_times_fire(shape in (0u8..9, 1usize..48, 1usize..41, 0u64..1_000),
                                  in_rates in prop::collection::vec(1usize..9, 0..11),
                                  out_rates in prop::collection::vec(1usize..9, 0..11)) {
        let (kind, state, count, salt) = shape;
        let in_rates = if kind == 5 { vec![in_rates.first().copied().unwrap_or(1)] } else { in_rates };
        assert_fire_n_is_count_times_fire(kind, state, count, salt, &in_rates, &out_rates);
    }

    /// On random words of any length — random bits with the top
    /// exponent bit cleared: both signs, every binade from the
    /// denormals up to 2 — `state_sweep` and, from `WIDE_FROM` words
    /// on, every compiled instance of the wide order return the bits
    /// of the scalar reference, and those are within `n·ε·Σ|x|` of the
    /// `f64` sum: whichever order a length gets, the sweep is still a
    /// sum.
    #[test]
    fn state_sweep_is_its_scalar_reference(raw in prop::collection::vec(0u32..u32::MAX, 0..7_000)) {
        let state: Vec<f32> = raw.iter().map(|&b| f32::from_bits(b & 0xbfff_ffff)).collect();
        let n = state.len();
        let want = sweep_reference(&state);
        prop_assert_eq!(state_sweep(&state).to_bits(), want.to_bits(), "{} words", n);
        if n >= WIDE_FROM {
            for (name, sweep) in wide_instances() {
                prop_assert_eq!(sweep(&state).to_bits(), want.to_bits(), "{} words, {}", n, name);
            }
        }
        let exact: f64 = state.iter().map(|&x| x as f64).sum();
        let sum_abs: f64 = state.iter().map(|&x| x.abs() as f64).sum();
        let bound = n as f64 * f32::EPSILON as f64 * sum_abs;
        prop_assert!((want as f64 - exact).abs() <= bound, "{} words: {} vs {}", n, want, exact);
    }
}

/// The filter lengths and run lengths `FirFilter` is held to its
/// reference at; decimations are 1, 2, 3, 5, 8, `taps` and `taps + 3`.
/// Between them: `d > n`, `d = n`, `n % 4 != 0`, a seam inside a chunk
/// of four or inside the leftover words, and runs that refresh only
/// part of the window.
const FIR_TAPS: [usize; 11] = [1, 3, 4, 5, 8, 27, 31, 32, 33, 64, 2048];
const FIR_RUNS: [usize; 7] = [1, 2, 3, 15, 16, 17, 128];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A stream of random words (both signs, denormals included) cut
    /// into runs of lengths drawn from the grid — a run of one goes
    /// through `fire` or `fire_n(1)` by turns — comes out of a
    /// `FirFilter` as `fir_reference` says, bit for bit, and leaves the
    /// stream's last `taps` samples as the window.
    #[test]
    fn fir_is_its_scalar_reference(shape in (0usize..11, 0usize..7, 1u64..u64::MAX),
                                   cuts in prop::collection::vec(0usize..7, 1..7)) {
        let (taps, d, mut x) = shape;
        let taps = FIR_TAPS[taps];
        let d = [1, 2, 3, 5, 8, taps, taps + 3][d];
        let cuts: Vec<usize> = cuts.iter().map(|&i| FIR_RUNS[i]).collect();
        let firings: usize = cuts.iter().sum();
        let stream: Vec<f32> = (0..firings * d)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                f32::from_bits((x >> 32) as u32 & 0xbfff_ffff)
            })
            .collect();

        let mut filter = FirFilter::new(taps, d);
        let mut got = vec![0.0f32; firings];
        let mut at = 0;
        for (turn, &count) in cuts.iter().enumerate() {
            let ins = &stream[at * d..(at + count) * d];
            let outs = &mut got[at..at + count];
            if count == 1 && turn % 2 == 0 {
                filter.fire(&[ins], &mut [outs]);
            } else {
                filter.fire_n(count, &[ins], &mut [outs]);
            }
            at += count;
        }

        let line = [vec![0.0; taps], stream].concat();
        let want = fir_reference(filter.taps(), &line, d);
        let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(&got), bits(&want), "{} taps, {}:1, runs {:?}", taps, d, &cuts);
        prop_assert_eq!(bits(filter.window()), bits(&line[line.len() - taps..]),
                        "{} taps, {}:1, runs {:?}", taps, d, &cuts);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The executor's ring behaves exactly like a VecDeque model under
    /// any interleaving of pushes and pops that respects capacity — at
    /// odd capacities from 3 up, none a power of two, which the ring
    /// keeps exactly as asked.
    #[test]
    fn ring_matches_vecdeque_model(half in 1usize..16,
                                   ops in prop::collection::vec((0u8..2, 1usize..8), 1..200)) {
        let cap = 2 * half + 1;
        let ring = SpscRing::new(cap);
        prop_assert_eq!(ring.capacity(), cap);
        let mut model: VecDeque<f32> = VecDeque::new();
        let mut counter = 0.0f32;
        for (kind, n) in ops {
            if kind == 0 {
                // push up to n items if space allows
                let n = n.min(ring.space());
                if n == 0 { continue; }
                let items: Vec<f32> = (0..n).map(|i| {
                    counter += 1.0;
                    counter + i as f32 * 0.0
                }).collect();
                ring.push_slice(&items);
                model.extend(items.iter().copied());
            } else {
                let n = n.min(ring.len());
                if n == 0 { continue; }
                let mut out = vec![0.0f32; n];
                ring.pop_slice(&mut out);
                for x in out {
                    prop_assert_eq!(Some(x), model.pop_front());
                }
            }
            prop_assert_eq!(ring.len(), model.len());
            prop_assert_eq!(ring.space(), cap - model.len());
        }
    }

    /// Mixed slice-API (`push_slice`/`pop_slice`) and batch-API
    /// (`reserve`/`commit`, `peek`/`release`) call sequences preserve
    /// FIFO order: the zero-copy batch path and the copying slice path
    /// are one protocol over one buffer, so any interleaving must drain
    /// items in exactly insertion order.
    #[test]
    fn mixed_api_sequences_preserve_fifo(cap in 1usize..32,
                                         ops in prop::collection::vec((0u8..4, 1usize..8), 1..200)) {
        let ring = SpscRing::new(cap);
        let mut model: VecDeque<f32> = VecDeque::new();
        let mut counter = 0.0f32;
        for (kind, n) in ops {
            match kind {
                0 => { // slice-API push
                    let n = n.min(ring.space());
                    if n == 0 { continue; }
                    let items: Vec<f32> = (0..n).map(|_| { counter += 1.0; counter }).collect();
                    ring.push_slice(&items);
                    model.extend(items.iter().copied());
                }
                1 => { // batch-API producer: reserve + write + commit
                    let n = n.min(ring.space());
                    if n == 0 { continue; }
                    let items: Vec<f32> = (0..n).map(|_| { counter += 1.0; counter }).collect();
                    {
                        let (a, b) = ring.reserve(n);
                        let k = a.len();
                        a.copy_from_slice(&items[..k]);
                        b.copy_from_slice(&items[k..]);
                    }
                    ring.commit(n);
                    model.extend(items.iter().copied());
                }
                2 => { // slice-API pop
                    let n = n.min(ring.len());
                    if n == 0 { continue; }
                    let mut out = vec![0.0f32; n];
                    ring.pop_slice(&mut out);
                    for x in out {
                        prop_assert_eq!(Some(x), model.pop_front());
                    }
                }
                _ => { // batch-API consumer: peek + release
                    let n = n.min(ring.len());
                    if n == 0 { continue; }
                    let got: Vec<f32> = {
                        let (a, b) = ring.peek(n);
                        a.iter().chain(b.iter()).copied().collect()
                    };
                    ring.release(n);
                    for x in got {
                        prop_assert_eq!(Some(x), model.pop_front());
                    }
                }
            }
            prop_assert_eq!(ring.len(), model.len());
            prop_assert_eq!(ring.space(), cap - model.len());
        }
    }

    /// SDF determinism on real memory: random pipelines produce identical
    /// digests under single-appearance and demand-driven schedules.
    #[test]
    fn digests_schedule_independent(seed in 0u64..3_000) {
        let cfg = PipelineCfg {
            len: 8,
            state: StateDist::Uniform(4, 32),
            max_q: 3,
            max_rate_scale: 2,
        };
        let g = gen::pipeline(&cfg, seed);
        let ra = RateAnalysis::analyze_single_io(&g).unwrap();
        let sink = ra.sink.unwrap();
        let sas = baseline::single_appearance(&g, &ra, 3);
        let demand = baseline::demand_driven(&g, &ra, sas.count(sink));
        let mut i1 = Instance::synthetic(g.clone());
        let mut i2 = Instance::synthetic(g);
        let d1 = execute(&mut i1, &sas).digest;
        let d2 = execute(&mut i2, &demand).digest;
        prop_assert_eq!(d1, d2);
    }

    /// Phased schedules are digest-equivalent too, on dags.
    #[test]
    fn phased_digest_matches(seed in 0u64..3_000) {
        let cfg = LayeredCfg {
            layers: 3,
            max_width: 3,
            density: 0.3,
            state: StateDist::Uniform(4, 24),
            max_q: 2,
        };
        let g = gen::layered(&cfg, seed);
        let ra = RateAnalysis::analyze_single_io(&g).unwrap();
        let sink = ra.sink.unwrap();
        let phased = baseline::phased(&g, &ra, 2);
        let demand = baseline::demand_driven(&g, &ra, phased.count(sink));
        let mut i1 = Instance::synthetic(g.clone());
        let mut i2 = Instance::synthetic(g);
        prop_assert_eq!(
            execute(&mut i1, &phased).digest,
            execute(&mut i2, &demand).digest
        );
    }
}
