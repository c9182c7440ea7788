//! Windowed counter sampling: the perf group re-read every W batches.
//!
//! The executor zeroes the counter group once, when it opens it, and
//! never again, so a window is just two cumulative reads differenced
//! with [`CounterSample::delta_since`] — no resets, no perturbation of
//! the end-of-run totals the rest of the pipeline reports. When no
//! group opened (containers, `CCS_NO_PERF`), windows still close on
//! schedule with timing-only payloads: the wall-clock span and batch
//! count survive, the counter delta is `None`.

use ccs_perf::CounterSample;
use serde_json::{json, Value};

/// One closed counter window: `batches` consecutive batches of one
/// worker, the wall-clock span they occupied, and the counter-group
/// delta across them (when a group was open).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WindowSample {
    /// Window ordinal within its worker (0-based, gap-free).
    pub index: u64,
    /// Worker-local batch count when the window opened.
    pub start_batch: u64,
    /// Batches inside the window (the final flushed window may hold
    /// fewer than the configured W).
    pub batches: u64,
    /// Window start, nanoseconds since the run origin.
    pub start_ns: u64,
    /// Window end, nanoseconds since the run origin.
    pub end_ns: u64,
    /// Counter delta over the window ([`CounterSample::delta_since`] of
    /// the bracketing cumulative reads); `None` when the group never
    /// opened — the window is then timing-only.
    pub sample: Option<CounterSample>,
}

impl WindowSample {
    /// Fraction of the window the counter group was actually on the
    /// PMU (`time_running / time_enabled`); `None` for timing-only
    /// windows or an empty enabled time.
    pub fn pmu_residency(&self) -> Option<f64> {
        let s = self.sample.as_ref()?;
        if s.time_enabled_ns == 0 {
            return None;
        }
        Some(s.time_running_ns as f64 / s.time_enabled_ns as f64)
    }

    /// Whether the window's counts were multiplex-scaled below
    /// `ratio` PMU residency — an estimate, not a count.
    pub fn scaled_below(&self, ratio: f64) -> bool {
        self.pmu_residency().is_some_and(|r| r < ratio)
    }

    /// Whether the window carries no counter delta at all.
    pub fn timing_only(&self) -> bool {
        self.sample.is_none()
    }

    /// Wall-clock span of the window in milliseconds.
    pub fn span_ms(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e6
    }
}

/// JSON for one window, as a run's document carries it: the
/// span, the batch range, and either the full counter reading block
/// (the same shape as [`CounterSample::to_json`]) or the string
/// `"timing-only"` when no group opened.
pub fn window_json(w: &WindowSample) -> Value {
    json!({
        "index": w.index,
        "start_batch": w.start_batch,
        "batches": w.batches,
        "start_ms": w.start_ns as f64 / 1e6,
        "end_ms": w.end_ns as f64 / 1e6,
        "counters": match &w.sample {
            Some(s) => s.to_json(None),
            None => Value::String("timing-only".into()),
        },
    })
}

/// Accumulates [`WindowSample`]s for one worker: feed it a cumulative
/// group read every batch boundary and it closes a window every
/// `every` batches. Disabled (`every == 0`) it is a no-op.
#[derive(Debug, Default)]
pub struct WindowSampler {
    every: u64,
    /// Batches inside the currently open window.
    in_window: u64,
    /// Worker-local batch ordinal at the open window's start.
    start_batch: u64,
    /// Total batches seen.
    total_batches: u64,
    start_ns: u64,
    /// Cumulative group read at the open window's start.
    baseline: Option<CounterSample>,
    windows: Vec<WindowSample>,
}

impl WindowSampler {
    /// A sampler closing a window every `every` batches (0 disables).
    pub fn new(every: u64) -> WindowSampler {
        WindowSampler {
            every,
            ..WindowSampler::default()
        }
    }

    /// Whether windows are being collected.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.every > 0
    }

    /// Open the first window: `now_ns` from the run clock, `sample` a
    /// cumulative group read (or `None` when no group opened).
    pub fn start(&mut self, now_ns: u64, sample: Option<CounterSample>) {
        if !self.enabled() {
            return;
        }
        self.start_ns = now_ns;
        self.baseline = sample;
    }

    /// Note one completed batch. When this closes a window, `read` is
    /// called for the current cumulative group read, the delta is
    /// recorded, and the closed window's index is returned (so a
    /// tracer can drop a boundary event).
    #[inline]
    pub fn on_batch<F>(&mut self, now_ns: u64, read: F) -> Option<u64>
    where
        F: FnOnce() -> Option<CounterSample>,
    {
        if !self.enabled() {
            return None;
        }
        self.in_window += 1;
        self.total_batches += 1;
        if self.in_window < self.every {
            return None;
        }
        Some(self.close(now_ns, read()))
    }

    /// Finish: close any partial window and return all windows.
    pub fn finish<F>(mut self, now_ns: u64, read: F) -> Vec<WindowSample>
    where
        F: FnOnce() -> Option<CounterSample>,
    {
        if self.enabled() && self.in_window > 0 {
            self.close(now_ns, read());
        }
        self.windows
    }

    fn close(&mut self, now_ns: u64, current: Option<CounterSample>) -> u64 {
        let index = self.windows.len() as u64;
        let sample = current.as_ref().map(|c| match &self.baseline {
            Some(b) => c.delta_since(b),
            None => c.clone(),
        });
        self.windows.push(WindowSample {
            index,
            start_batch: self.start_batch,
            batches: self.in_window,
            start_ns: self.start_ns,
            end_ns: now_ns,
            sample,
        });
        self.start_batch = self.total_batches;
        self.start_ns = now_ns;
        self.baseline = current;
        self.in_window = 0;
        index
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccs_perf::{CounterKind, Reading};

    fn cumulative(raw: u64, enabled: u64, running: u64) -> CounterSample {
        CounterSample {
            time_enabled_ns: enabled,
            time_running_ns: running,
            readings: vec![Reading {
                kind: CounterKind::LlcMisses,
                raw,
                scaled: raw,
            }],
        }
    }

    #[test]
    fn closes_every_w_batches_with_deltas() {
        let mut s = WindowSampler::new(2);
        s.start(0, Some(cumulative(0, 0, 0)));
        let mut cum = 0u64;
        let mut t = 0u64;
        let mut closed = Vec::new();
        for _ in 0..6 {
            cum += 10;
            t += 100;
            if let Some(i) = s.on_batch(t, || Some(cumulative(cum, t, t))) {
                closed.push(i);
            }
        }
        assert_eq!(closed, vec![0, 1, 2]);
        let windows = s.finish(t, || Some(cumulative(cum, t, t)));
        assert_eq!(windows.len(), 3);
        for (i, w) in windows.iter().enumerate() {
            assert_eq!(w.index, i as u64);
            assert_eq!(w.batches, 2);
            assert_eq!(w.start_batch, 2 * i as u64);
            // Each window saw two batches of 10 misses.
            let delta = w.sample.as_ref().unwrap();
            assert_eq!(delta.get(CounterKind::LlcMisses), Some(20));
            assert_eq!(w.end_ns - w.start_ns, 200);
        }
    }

    #[test]
    fn partial_final_window_is_flushed() {
        let mut s = WindowSampler::new(4);
        s.start(0, Some(cumulative(0, 0, 0)));
        for i in 1..=6u64 {
            s.on_batch(i * 10, || Some(cumulative(i, i * 10, i * 10)));
        }
        let windows = s.finish(70, || Some(cumulative(6, 70, 70)));
        assert_eq!(windows.len(), 2);
        assert_eq!(windows[0].batches, 4);
        assert_eq!(windows[1].batches, 2);
        assert_eq!(
            windows[1]
                .sample
                .as_ref()
                .unwrap()
                .get(CounterKind::LlcMisses),
            Some(2)
        );
    }

    #[test]
    fn no_group_degrades_to_timing_only() {
        let mut s = WindowSampler::new(1);
        s.start(0, None);
        s.on_batch(10, || None);
        s.on_batch(30, || None);
        let windows = s.finish(30, || None);
        assert_eq!(windows.len(), 2);
        for w in &windows {
            assert!(w.timing_only());
            assert_eq!(w.pmu_residency(), None);
            assert!(!w.scaled_below(0.5));
        }
        assert_eq!(windows[0].span_ms(), 1e-5);
        let j = window_json(&windows[0]);
        assert_eq!(j["counters"].as_str(), Some("timing-only"));
    }

    #[test]
    fn disabled_sampler_is_inert() {
        let mut s = WindowSampler::new(0);
        assert!(!s.enabled());
        s.start(0, None);
        assert_eq!(s.on_batch(10, || panic!("must not read")), None);
        assert!(s.finish(20, || panic!("must not read")).is_empty());
    }

    #[test]
    fn residency_and_scaling_thresholds() {
        let w = WindowSample {
            index: 0,
            start_batch: 0,
            batches: 1,
            start_ns: 0,
            end_ns: 100,
            sample: Some(cumulative(10, 1000, 400)),
        };
        assert_eq!(w.pmu_residency(), Some(0.4));
        assert!(w.scaled_below(0.5));
        assert!(!w.scaled_below(0.3));
    }

    #[test]
    fn windows_tile_the_run_and_their_deltas_telescope() {
        // The group is never reset, so consecutive windows share their
        // bracketing reads: each starts where the last ended, and their
        // deltas sum to the last read minus the first.
        let mut s = WindowSampler::new(3);
        let first = cumulative(7, 5, 5);
        s.start(5, Some(first.clone()));
        let reads = [4u64, 9, 1, 0, 12, 3, 3, 8];
        let mut cum = 7u64;
        for (i, r) in reads.iter().enumerate() {
            cum += r;
            let t = 10 * (i as u64 + 1);
            s.on_batch(t, || Some(cumulative(cum, t, t)));
        }
        let last = cumulative(cum, 90, 90);
        let windows = s.finish(90, || Some(last.clone()));
        assert_eq!(windows.len(), 3);
        assert_eq!(windows[0].start_ns, 5);
        for pair in windows.windows(2) {
            assert_eq!(pair[1].start_ns, pair[0].end_ns);
            assert_eq!(pair[1].start_batch, pair[0].start_batch + pair[0].batches);
        }
        let mut sum = CounterSample::default();
        for w in &windows {
            sum.merge(w.sample.as_ref().unwrap());
        }
        assert_eq!(sum, last.delta_since(&first));
        assert_eq!(sum.get(CounterKind::LlcMisses), Some(reads.iter().sum()));
    }

    #[test]
    fn the_group_is_read_only_when_a_window_closes() {
        let mut s = WindowSampler::new(3);
        s.start(0, Some(cumulative(0, 0, 0)));
        assert_eq!(s.on_batch(1, || panic!("mid-window read")), None);
        assert_eq!(s.on_batch(2, || panic!("mid-window read")), None);
        assert_eq!(s.on_batch(3, || Some(cumulative(3, 3, 3))), Some(0));
        // Finishing on a window boundary closes no empty window and
        // takes no further read.
        let windows = s.finish(4, || panic!("read after the last window"));
        assert_eq!(windows.len(), 1);
        assert_eq!(windows[0].batches, 3);
    }

    #[test]
    fn without_a_starting_read_a_window_reports_the_cumulative_read() {
        let mut s = WindowSampler::new(1);
        s.start(0, None);
        s.on_batch(10, || Some(cumulative(4, 10, 10)));
        s.on_batch(20, || Some(cumulative(6, 20, 20)));
        let windows = s.finish(20, || None);
        let misses: Vec<Option<u64>> = windows
            .iter()
            .map(|w| {
                w.sample
                    .as_ref()
                    .and_then(|c| c.get(CounterKind::LlcMisses))
            })
            .collect();
        assert_eq!(misses, vec![Some(4), Some(2)]);
    }

    #[test]
    fn window_json_carries_the_span_and_the_reading_block() {
        let w = WindowSample {
            index: 3,
            start_batch: 12,
            batches: 4,
            start_ns: 1_500_000,
            end_ns: 4_000_000,
            sample: Some(cumulative(42, 1000, 1000)),
        };
        let j = window_json(&w);
        assert_eq!(j["index"].as_u64(), Some(3));
        assert_eq!(j["start_batch"].as_u64(), Some(12));
        assert_eq!(j["batches"].as_u64(), Some(4));
        assert_eq!(j["start_ms"].as_f64(), Some(1.5));
        assert_eq!(j["end_ms"].as_f64(), Some(4.0));
        assert_eq!(j["counters"], w.sample.as_ref().unwrap().to_json(None));
        assert_eq!(w.span_ms(), 2.5);
    }
}
