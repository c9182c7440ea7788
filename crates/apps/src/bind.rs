//! Kernel bindings: real DSP kernels for the application graphs.

use ccs_graph::StreamGraph;
use ccs_runtime::instance::Instance;
use ccs_runtime::kernel::{
    firing, firing_mut, state_sweep, FirFilter, Kernel, SinkCollect, SourceGen, SyntheticKernel,
};

/// Bind a graph with real FIR kernels at the filter stages (nodes whose
/// names mark them as filters) and synthetic state-streaming kernels
/// elsewhere. Works for any graph whose filter nodes have even state
/// (taps + window); falls back to synthetic kernels when the shape
/// doesn't fit.
pub fn fir_instance(graph: StreamGraph) -> Instance {
    let source = graph.single_source();
    let sink = graph.single_sink();
    Instance::with_factory(graph, move |g, v| {
        let words = g.state(v).max(1) as usize;
        let name = &g.node(v).name;
        if Some(v) == source {
            return Box::new(SourceGen::new(words));
        }
        if Some(v) == sink {
            return Box::new(SinkCollect::new(words));
        }
        let is_filter = name.contains("lpf")
            || name.contains("eq-")
            || name.contains("analysis")
            || name.contains("synthesis")
            || name.contains("smooth");
        let single_in = g.in_edges(v).len() == 1 && g.out_edges(v).len() == 1;
        if is_filter && single_in && words.is_multiple_of(2) {
            let consume = g.edge(g.in_edges(v)[0]).consume as usize;
            let taps = words / 2;
            if taps >= consume {
                return Box::new(FirFilter::new(taps, consume));
            }
        }
        Box::new(SyntheticKernel::new(words, false))
    })
}

/// A kernel whose per-firing *work* steps up `mult`× after `step_at`
/// firings while its *output* remains the exact same deterministic
/// function of the input stream — the seeded perturbation behind the
/// `phase-shift` app. The repeated state sweeps all produce the same
/// value (the state is never mutated) and only the last one feeds the
/// output, so the digest is invariant to when — or where — the step is
/// observed; `black_box` keeps the compiler from hoisting the extra
/// sweeps away.
struct PhaseShiftKernel {
    state: Box<[f32]>,
    fires: u64,
    step_at: u64,
    mult: u32,
}

impl PhaseShiftKernel {
    fn new(state_words: usize, step_at: u64, mult: u32) -> PhaseShiftKernel {
        PhaseShiftKernel {
            state: (0..state_words.max(1))
                .map(|i| ((i * 2654435761usize) as f32) * 1e-12)
                .collect(),
            fires: 0,
            step_at,
            mult: mult.max(1),
        }
    }
}

impl Kernel for PhaseShiftKernel {
    fn state_words(&self) -> usize {
        self.state.len()
    }

    fn fire(&mut self, inputs: &[&[f32]], outputs: &mut [&mut [f32]]) {
        self.fire_n(1, inputs, outputs);
    }

    #[inline(always)]
    fn fire_n(&mut self, count: usize, inputs: &[&[f32]], outputs: &mut [&mut [f32]]) {
        for k in 0..count {
            let mut acc = 0.0f32;
            for input in inputs {
                for &x in firing(input, count, k) {
                    acc += x;
                }
            }
            let reps = if self.fires >= self.step_at {
                self.mult
            } else {
                1
            };
            let mut sacc = 0.0f32;
            for _ in 0..reps {
                sacc = state_sweep(std::hint::black_box(&self.state));
            }
            self.fires += 1;
            let y = acc * 0.5 + sacc * 1e-6;
            for out in outputs.iter_mut() {
                firing_mut(out, count, k).fill(y);
            }
        }
    }
}

/// Firing count at which [`bound_instance`]'s phase-shift kernels step
/// (with uniform rates and granularity `T`, that is batch
/// `DEFAULT_PHASE_STEP_FIRES / T` of each hot stage's segment).
pub const DEFAULT_PHASE_STEP_FIRES: u64 = 96;

/// Work multiplier [`bound_instance`] applies after the step.
pub const DEFAULT_PHASE_STEP_MULT: u32 = 16;

/// Bind the `phase-shift` graph: hot stages get phase-shift kernels
/// that step `mult`× after `step_at` firings, everything else runs the
/// standard deterministic source/sink/synthetic kernels. The output
/// stream — and so the sink digest — is independent of `step_at` and
/// `mult`; only the cost landscape changes.
pub fn phase_shift_instance(graph: StreamGraph, step_at: u64, mult: u32) -> Instance {
    let source = graph.single_source();
    let sink = graph.single_sink();
    Instance::with_factory(graph, move |g, v| {
        let words = g.state(v).max(1) as usize;
        if Some(v) == source {
            return Box::new(SourceGen::new(words));
        }
        if Some(v) == sink {
            return Box::new(SinkCollect::new(words));
        }
        if g.node(v).name.starts_with("phase-hot-") {
            return Box::new(PhaseShiftKernel::new(words, step_at, mult));
        }
        Box::new(SyntheticKernel::new(words, false))
    })
}

/// The workload-aware binding the sweep engine and CLI use: the
/// `phase-shift` app gets its stepping kernels (at the default seed),
/// every other workload keeps the plain synthetic binding — so adding
/// the perturbation app changes nothing for existing cells.
pub fn bound_instance(name: &str, graph: StreamGraph) -> Instance {
    if name == "phase-shift" {
        phase_shift_instance(graph, DEFAULT_PHASE_STEP_FIRES, DEFAULT_PHASE_STEP_MULT)
    } else {
        Instance::synthetic(graph)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps;
    use ccs_graph::RateAnalysis;
    use ccs_sched::baseline;

    #[test]
    fn fm_radio_fir_binding_runs() {
        let g = apps::fm_radio(4);
        let ra = RateAnalysis::analyze_single_io(&g).unwrap();
        let run = baseline::single_appearance(&g, &ra, 8);
        let mut inst = fir_instance(g);
        let stats = ccs_runtime::serial::execute(&mut inst, &run);
        assert!(stats.sink_items > 0);
        assert!(stats.digest.is_some());
    }

    #[test]
    fn fir_binding_is_schedule_independent() {
        let g = apps::fm_radio(4);
        let ra = RateAnalysis::analyze_single_io(&g).unwrap();
        let sink = ra.sink.unwrap();
        let sas = baseline::single_appearance(&g, &ra, 6);
        let dem = baseline::demand_driven(&g, &ra, sas.count(sink));
        let mut i1 = fir_instance(g.clone());
        let mut i2 = fir_instance(g);
        let d1 = ccs_runtime::serial::execute(&mut i1, &sas).digest;
        let d2 = ccs_runtime::serial::execute(&mut i2, &dem).digest;
        assert_eq!(d1, d2);
    }

    #[test]
    fn all_suite_apps_bind_and_run() {
        for app in apps::suite() {
            let ra = RateAnalysis::analyze_single_io(&app.graph).unwrap();
            let run = baseline::single_appearance(&app.graph, &ra, 2);
            let mut inst = fir_instance(app.graph.clone());
            let stats = ccs_runtime::serial::execute(&mut inst, &run);
            assert!(stats.firings > 0, "{}", app.name);
        }
    }
}
