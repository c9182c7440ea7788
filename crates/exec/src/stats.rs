//! Per-worker and aggregate execution statistics.

use ccs_obs::{Timeline, WindowSample};
use ccs_perf::{CounterKind, CounterSample};
use ccs_runtime::serial::RunStats;
use std::time::Duration;

/// Hardware counters attributed to one segment: what the group counted
/// between the two reads that bracket each of its counted batches
/// (differenced by [`CounterSample::delta_since`]), summed. A batch is
/// counted once its segment is past the warmup.
///
/// `sample / (batches_counted · items_per_round)` is the segment's
/// misses per *sink item* — every segment's batch advances the stream
/// by the same one-round amount, so per-segment numbers normalized this
/// way are directly comparable, and their raw counts sum to their
/// worker's total.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SegmentCounters {
    /// Segment index (contracted topological order).
    pub seg: usize,
    /// Batches of this segment executed in total.
    pub batches: u64,
    /// Batches actually counted: past the warmup, with an open counter
    /// group.
    pub batches_counted: u64,
    /// Summed bracket deltas over the counted batches (empty when the
    /// group never opened).
    pub sample: CounterSample,
}

impl SegmentCounters {
    /// This segment's contribution to the run's misses per sink item:
    /// counted events divided by the sink items the counted batches
    /// correspond to (`batches_counted · items_per_round`). `None`
    /// without the event, without counted batches, or with a zero
    /// items-per-round denominator.
    pub fn per_item(&self, kind: CounterKind, items_per_round: u64) -> Option<f64> {
        self.sample
            .per_item(kind, self.batches_counted * items_per_round)
    }
}

/// What one pinned worker did during a run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WorkerStats {
    /// Worker index (0-based).
    pub worker: usize,
    /// Segment indices (contracted topological order) the placement gave
    /// this worker: for the whole run, or — under a measured placement,
    /// whose round 0 is dealt round-robin — for rounds 1.. (as in
    /// [`DagRunStats::owner`]).
    pub segments: Vec<usize>,
    /// Module firings executed by this worker.
    pub firings: u64,
    /// Batches (granularity-`T` rounds of one segment) executed.
    pub batches: u64,
    /// Unproductive passes — the executor's stall count: scheduling
    /// passes in which none of the worker's segments could start, and
    /// passes of a running batch waiting for its next granule's inputs
    /// (in both, the worker spun or slept).
    pub stalls: u64,
    /// Wall-clock (monotonic) time spent in those unproductive passes:
    /// yielding in the bounded spin plus blocking on the progress
    /// condvar. `stall_time / (stall_time + busy)` is the worker's
    /// stall overhead.
    pub stall_time: Duration,
    /// Time spent actually firing kernels: batch time less the waits
    /// inside batches, which are stall time.
    pub busy: Duration,
    /// OS cpu id this worker was successfully pinned to, if core
    /// pinning was requested and `sched_setaffinity` accepted it.
    pub pinned_cpu: Option<usize>,
    /// Hardware counters over this worker's counted batches
    /// ([`RunConfig::counters`](crate::RunConfig::counters)): the sum
    /// of its [`segment_counters`](Self::segment_counters)' samples, so
    /// the start-gate scan, stall spins and parks are not in it. `None`
    /// when counters were off or unavailable on this thread.
    pub counters: Option<CounterSample>,
    /// Per-segment counter attribution, one entry per owned segment;
    /// empty when counters were off.
    pub segment_counters: Vec<SegmentCounters>,
    /// Closed counter windows
    /// ([`RunConfig::window_batches`](crate::RunConfig::window_batches)):
    /// the group re-read every W batches and differenced into
    /// per-window deltas. Empty when windows were off; timing-only
    /// samples (no counter group) still appear so the cadence is
    /// visible.
    pub windows: Vec<WindowSample>,
    /// Recorded event timeline
    /// ([`RunConfig::trace`](crate::RunConfig::trace)); `None` when
    /// tracing was off.
    pub trace: Option<Timeline>,
}

/// Outcome of a parallel dag execution.
#[derive(Clone, Debug)]
pub struct DagRunStats {
    /// Aggregate outcome, shaped like the reference interpreter's
    /// [`RunStats`] so existing reporting code can consume it.
    pub run: RunStats,
    /// Per-worker breakdown.
    pub workers: Vec<WorkerStats>,
    /// The §3 granularity `T` used for batching.
    pub t: u64,
    /// Batches executed per segment.
    pub rounds: u64,
    /// Number of segments.
    pub segments: usize,
    /// Each segment's modelled work per batch
    /// ([`SegmentPlan::cost`](crate::SegmentPlan::cost)), in segment
    /// order.
    pub segment_cost: Vec<u64>,
    /// Each segment's busy time in its first batch, in nanoseconds, in
    /// segment order (0 in a run of no rounds): what a measured
    /// placement balanced ([`Placement::Measured`](crate::Placement)).
    pub profiled: Vec<u64>,
    /// The worker each segment ran on once the placement was made: for
    /// the whole run, or for rounds 1.. under a measured placement,
    /// whose round 0 is dealt round-robin.
    pub owner: Vec<usize>,
    /// Items one round moves over cross edges between segments that
    /// [`owner`](Self::owner) puts on different workers.
    pub cross_worker_items: u64,
    /// Whether hardware counters were requested for this run (they may
    /// still be per-worker unavailable; see [`WorkerStats::counters`]).
    pub counters_requested: bool,
    /// The effective warmup window: per-segment batches excluded from
    /// counter readings (the configured
    /// [`RunConfig::warmup_batches`](crate::RunConfig::warmup_batches),
    /// clamped below `rounds` so a measurement window always remains).
    pub warmup: u64,
    /// Words of ring the run laid out: the capacities of its cross-edge
    /// rings, summed (internal edges have none) — one batch a ring in a
    /// run of one round, two in longer runs. Rings that share storage
    /// count once each; the slab itself is `RunStats::boundary_words`.
    pub ring_words: u64,
    /// Whether event tracing was on
    /// ([`RunConfig::trace`](crate::RunConfig::trace)).
    pub trace_enabled: bool,
    /// The configured counter-window cadence in batches
    /// ([`RunConfig::window_batches`](crate::RunConfig::window_batches));
    /// 0 when windows were off.
    pub window_batches: u64,
}

impl DagRunStats {
    /// Sink throughput in items per second.
    pub fn items_per_sec(&self) -> f64 {
        let secs = self.run.wall.as_secs_f64();
        if secs > 0.0 {
            self.run.sink_items as f64 / secs
        } else {
            0.0
        }
    }

    /// Total wall-clock stall time across workers.
    pub fn total_stall_time(&self) -> Duration {
        self.workers.iter().map(|w| w.stall_time).sum()
    }

    /// Each worker's share of the plan's modelled work: the
    /// [`segment_cost`](Self::segment_cost) of the segments it ran over
    /// the total, in worker order.
    pub fn modelled_shares(&self) -> Vec<f64> {
        let total: u64 = self.segment_cost.iter().sum();
        self.workers
            .iter()
            .map(|w| {
                let mine: u64 = w.segments.iter().map(|&s| self.segment_cost[s]).sum();
                mine as f64 / total.max(1) as f64
            })
            .collect()
    }

    /// What the placement predicts of the run's balance: the busiest
    /// worker's modelled work over the mean worker's. 1 is a perfect
    /// balance; a worker that owns nothing counts in the mean.
    pub fn predicted_imbalance(&self) -> f64 {
        max_over_mean(&self.modelled_shares())
    }

    /// The balance the run showed: the busiest worker's
    /// [`busy`](WorkerStats::busy) time over the mean worker's,
    /// beside [`predicted_imbalance`](Self::predicted_imbalance).
    pub fn busy_imbalance(&self) -> f64 {
        let busy: Vec<f64> = self.workers.iter().map(|w| w.busy.as_secs_f64()).collect();
        max_over_mean(&busy)
    }

    /// Each worker's share of the [`profiled`](Self::profiled) busy
    /// time under [`owner`](Self::owner), in worker order.
    pub fn profiled_shares(&self) -> Vec<f64> {
        let total: u64 = self.profiled.iter().sum();
        self.profiled_loads()
            .iter()
            .map(|&m| m as f64 / total.max(1) as f64)
            .collect()
    }

    /// Each worker's summed [`profiled`](Self::profiled) time under
    /// [`owner`](Self::owner).
    fn profiled_loads(&self) -> Vec<u64> {
        let mut load = vec![0u64; self.workers.len()];
        for (&w, &ns) in self.owner.iter().zip(&self.profiled) {
            load[w] += ns;
        }
        load
    }

    /// The busiest worker's profiled busy time over the mean worker's,
    /// under [`owner`](Self::owner): the balance a measured placement
    /// aimed at.
    pub fn profiled_imbalance(&self) -> f64 {
        max_over_mean(&self.profiled_shares())
    }

    /// How far [`owner`](Self::owner) is, on the profiled costs, from
    /// the least makespan any placement could have: `(makespan − bound)
    /// / bound`, with the bound `max(max c, Σc / W)`
    /// (as [`Balanced::gap`](crate::Balanced::gap) reports it).
    pub fn bottleneck_gap(&self) -> f64 {
        let makespan = self.profiled_loads().into_iter().max().unwrap_or(0);
        let bound = crate::place::makespan_bound(&self.profiled, self.workers.len());
        crate::place::bottleneck_gap(makespan, bound)
    }

    /// Workers that were actually pinned to a core.
    pub fn pinned_workers(&self) -> usize {
        self.workers
            .iter()
            .filter(|w| w.pinned_cpu.is_some())
            .count()
    }

    /// Run-wide counter totals: per-worker samples summed. `None` when
    /// counters were off or no worker managed to open any.
    pub fn counter_totals(&self) -> Option<CounterSample> {
        CounterSample::sum(self.workers.iter().filter_map(|w| w.counters.as_ref()))
    }

    /// Workers whose counter group opened.
    pub fn counted_workers(&self) -> usize {
        self.workers.iter().filter(|w| w.counters.is_some()).count()
    }

    /// Sink items one granularity-`T` round moves (`sink_items /
    /// rounds`; the division is exact by construction of the plan).
    pub fn items_per_round(&self) -> u64 {
        self.run.sink_items.checked_div(self.rounds).unwrap_or(0)
    }

    /// Rounds inside the steady-state measurement window
    /// (`rounds - warmup`).
    fn measured_rounds(&self) -> u64 {
        self.rounds.saturating_sub(self.warmup)
    }

    /// Sink items the counter readings correspond to: the whole run
    /// without warmup, the post-warmup window otherwise. This is the
    /// denominator for [`DagRunStats::llc_misses_per_item`], so
    /// `warmup = 0` reproduces the whole-run normalization exactly.
    pub fn measured_sink_items(&self) -> u64 {
        self.items_per_round() * self.measured_rounds()
    }

    /// The paper's headline metric, measured: LLC misses per sink item
    /// over the steady-state window. `None` without counters, without
    /// the LLC event, or for a run that produced no sink items.
    pub fn llc_misses_per_item(&self) -> Option<f64> {
        self.counter_totals()?
            .per_item(CounterKind::LlcMisses, self.measured_sink_items())
    }

    /// Instructions retired per sink item over the steady-state window
    /// — the hot path's own cost (ring bookkeeping and per-firing
    /// copies retire instructions whether or not they miss).
    /// `None` without counters, without the instructions event, or for
    /// a run that produced no sink items.
    pub fn instructions_per_item(&self) -> Option<f64> {
        self.counter_totals()?
            .per_item(CounterKind::Instructions, self.measured_sink_items())
    }

    /// Per-segment counter attribution collected from all workers,
    /// sorted by segment index. Empty when counters were off. Each
    /// segment is owned by exactly one worker, so this is a
    /// re-indexing, not a merge.
    pub fn segment_counters(&self) -> Vec<&SegmentCounters> {
        let mut all: Vec<&SegmentCounters> = self
            .workers
            .iter()
            .flat_map(|w| w.segment_counters.iter())
            .collect();
        all.sort_by_key(|s| s.seg);
        all
    }

    /// All closed counter windows across workers as `(worker, window)`
    /// pairs, sorted by window start time — the run's merged
    /// time-resolved counter signal. Empty when
    /// [`RunConfig::window_batches`](crate::RunConfig::window_batches)
    /// was 0.
    pub fn windows(&self) -> Vec<(usize, &WindowSample)> {
        let mut all: Vec<(usize, &WindowSample)> = self
            .workers
            .iter()
            .flat_map(|w| w.windows.iter().map(move |s| (w.worker, s)))
            .collect();
        all.sort_by_key(|(w, s)| (s.start_ns, *w));
        all
    }

    /// Total closed counter windows across workers.
    pub fn window_count(&self) -> usize {
        self.workers.iter().map(|w| w.windows.len()).sum()
    }

    /// Windows whose counts were multiplex-scaled below `ratio` PMU
    /// residency (the reports pass [`ccs_obs::MULTIPLEX_WARN_RATIO`]) —
    /// estimates, not counts.
    pub fn windows_scaled_below(&self, ratio: f64) -> usize {
        self.workers
            .iter()
            .flat_map(|w| w.windows.iter())
            .filter(|s| s.scaled_below(ratio))
            .count()
    }

    /// Windows carrying no counter delta at all (the group never
    /// opened — containers, `CCS_NO_PERF`): the timing-only fallback.
    pub fn windows_timing_only(&self) -> usize {
        self.workers
            .iter()
            .flat_map(|w| w.windows.iter())
            .filter(|s| s.timing_only())
            .count()
    }

    /// Events surviving in all per-worker trace rings (0 when tracing
    /// was off).
    pub fn trace_events(&self) -> u64 {
        self.workers
            .iter()
            .filter_map(|w| w.trace.as_ref())
            .map(|t| t.events.len() as u64)
            .sum()
    }

    /// Events lost to trace-ring overflow across workers.
    pub fn trace_dropped(&self) -> u64 {
        self.workers
            .iter()
            .filter_map(|w| w.trace.as_ref())
            .map(|t| t.dropped)
            .sum()
    }

    /// Per-segment LLC misses per sink item over the steady-state
    /// window: `(segment, misses/item)`, sorted by segment. An entry is
    /// `None` where the segment counted no batches or the LLC event
    /// never opened. Each value is normalized by the batches actually
    /// counted. Raw per-segment counts sum to the per-worker totals, so
    /// where every segment counted all `rounds - warmup` of its batches
    /// the values sum to the run-wide
    /// [`DagRunStats::llc_misses_per_item`].
    pub fn segment_llc_misses_per_item(&self) -> Vec<(usize, Option<f64>)> {
        let per_round = self.items_per_round();
        self.segment_counters()
            .iter()
            .map(|s| (s.seg, s.per_item(CounterKind::LlcMisses, per_round)))
            .collect()
    }
}

/// The largest of `xs` over their mean; 1 when they are all zero or
/// there are none.
fn max_over_mean(xs: &[f64]) -> f64 {
    let sum: f64 = xs.iter().sum();
    if sum > 0.0 {
        xs.iter().copied().fold(0.0, f64::max) * xs.len() as f64 / sum
    } else {
        1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccs_perf::Reading;

    fn worker(i: usize, counters: Option<CounterSample>) -> WorkerStats {
        WorkerStats {
            worker: i,
            segments: vec![i],
            firings: 10,
            batches: 2,
            stalls: 0,
            stall_time: Duration::ZERO,
            busy: Duration::from_millis(1),
            pinned_cpu: None,
            counters,
            segment_counters: Vec::new(),
            windows: Vec::new(),
            trace: None,
        }
    }

    fn misses(n: u64) -> CounterSample {
        CounterSample {
            time_enabled_ns: 100,
            time_running_ns: 100,
            readings: vec![Reading {
                kind: CounterKind::LlcMisses,
                raw: n,
                scaled: n,
            }],
        }
    }

    fn stats(workers: Vec<WorkerStats>, sink_items: u64) -> DagRunStats {
        DagRunStats {
            run: RunStats {
                wall: Duration::from_millis(5),
                firings: 20,
                sink_items,
                digest: None,
                boundary_words: 0,
            },
            workers,
            t: 4,
            rounds: 2,
            segments: 2,
            segment_cost: vec![30, 10],
            profiled: vec![20, 60],
            owner: vec![0, 1],
            cross_worker_items: 8,
            counters_requested: true,
            warmup: 0,
            ring_words: 0,
            trace_enabled: false,
            window_batches: 0,
        }
    }

    fn seg_counters(seg: usize, batches_counted: u64, misses_raw: u64) -> SegmentCounters {
        SegmentCounters {
            seg,
            batches: 2,
            batches_counted,
            sample: misses(misses_raw),
        }
    }

    #[test]
    fn totals_aggregate_across_workers() {
        let s = stats(
            vec![worker(0, Some(misses(30))), worker(1, Some(misses(70)))],
            50,
        );
        assert_eq!(s.counted_workers(), 2);
        let totals = s.counter_totals().unwrap();
        assert_eq!(totals.get(CounterKind::LlcMisses), Some(100));
        assert_eq!(s.llc_misses_per_item(), Some(2.0));
    }

    #[test]
    fn prediction_and_observation_are_max_over_mean() {
        // Segment costs 30 and 10, one segment a worker: 3/4 and 1/4
        // of the work, the busier worker at 1.5 times the mean.
        let mut s = stats(vec![worker(0, None), worker(1, None)], 4);
        assert_eq!(s.modelled_shares(), vec![0.75, 0.25]);
        assert_eq!(s.predicted_imbalance(), 1.5);
        assert_eq!(s.busy_imbalance(), 1.0);
        s.workers[1].busy = Duration::from_millis(3);
        assert_eq!(s.busy_imbalance(), 1.5);
        // A worker with nothing counts in the mean.
        s.workers[1].segments.clear();
        assert_eq!(s.predicted_imbalance(), 2.0);
        s.workers.clear();
        assert_eq!((s.predicted_imbalance(), s.busy_imbalance()), (1.0, 1.0));
    }

    #[test]
    fn profiled_shares_follow_the_placement_that_ran() {
        // First batches of 20 and 60 ns, one segment a worker: 1/4 and
        // 3/4 of the profiled time, 1.5 times the mean, and the bound
        // max(60, 80/2) = 60 met. Both on worker 0: 80 over that bound.
        let mut s = stats(vec![worker(0, None), worker(1, None)], 4);
        assert_eq!(s.profiled_shares(), vec![0.25, 0.75]);
        assert_eq!((s.profiled_imbalance(), s.bottleneck_gap()), (1.5, 0.0));
        s.owner = vec![0, 0];
        assert_eq!(s.profiled_shares(), vec![1.0, 0.0]);
        assert_eq!(
            (s.profiled_imbalance(), s.bottleneck_gap()),
            (2.0, 20.0 / 60.0)
        );
    }

    #[test]
    fn partial_availability_still_aggregates() {
        // One worker in a restricted context: its None simply drops out.
        let s = stats(vec![worker(0, Some(misses(8))), worker(1, None)], 4);
        assert_eq!(s.counted_workers(), 1);
        assert_eq!(s.llc_misses_per_item(), Some(2.0));
    }

    #[test]
    fn no_counters_is_none_everywhere() {
        let s = stats(vec![worker(0, None), worker(1, None)], 100);
        assert_eq!(s.counter_totals(), None);
        assert_eq!(s.llc_misses_per_item(), None);
        assert_eq!(s.counted_workers(), 0);
    }

    #[test]
    fn zero_sink_items_cannot_divide() {
        let s = stats(vec![worker(0, Some(misses(8)))], 0);
        assert_eq!(s.llc_misses_per_item(), None);
    }

    #[test]
    fn warmup_shrinks_the_item_denominator() {
        // 2 rounds, 50 sink items => 25 items/round.
        let mut s = stats(vec![worker(0, Some(misses(100)))], 50);
        assert_eq!(s.items_per_round(), 25);
        assert_eq!(s.measured_sink_items(), 50);
        assert_eq!(s.llc_misses_per_item(), Some(2.0));
        // warmup = 1 round: the same counts normalize over one round.
        s.warmup = 1;
        assert_eq!(s.measured_rounds(), 1);
        assert_eq!(s.measured_sink_items(), 25);
        assert_eq!(s.llc_misses_per_item(), Some(4.0));
        // Degenerate warmup >= rounds (the executor clamps before this
        // can happen, but the math must not divide by zero).
        s.warmup = 7;
        assert_eq!(s.measured_sink_items(), 0);
        assert_eq!(s.llc_misses_per_item(), None);
    }

    #[test]
    fn segment_attribution_aggregates_sorted_and_normalized() {
        let mut w0 = worker(0, Some(misses(100)));
        w0.segment_counters = vec![seg_counters(2, 2, 30)];
        let mut w1 = worker(1, Some(misses(50)));
        w1.segment_counters = vec![seg_counters(1, 1, 40), seg_counters(0, 2, 0)];
        let s = stats(vec![w0, w1], 50); // 25 items/round
        let segs = s.segment_counters();
        assert_eq!(
            segs.iter().map(|c| c.seg).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
        let mpi = s.segment_llc_misses_per_item();
        // seg 0: 0 misses over 2 counted batches x 25 items.
        assert_eq!(mpi[0], (0, Some(0.0)));
        // seg 1: 40 / (1 * 25).
        assert_eq!(mpi[1], (1, Some(1.6)));
        // seg 2: 30 / (2 * 25).
        assert_eq!(mpi[2], (2, Some(0.6)));
        // Per-segment raw sums stay within the per-worker totals.
        let seg_sum: u64 = segs
            .iter()
            .filter_map(|c| c.sample.get(CounterKind::LlcMisses))
            .sum();
        let worker_sum = s
            .counter_totals()
            .unwrap()
            .get(CounterKind::LlcMisses)
            .unwrap();
        assert!(seg_sum <= worker_sum);
    }

    #[test]
    fn windows_merge_sorted_and_classified() {
        use ccs_obs::{Event, EventKind, Timeline};
        let win = |start: u64, sample: Option<CounterSample>| WindowSample {
            index: 0,
            start_batch: 0,
            batches: 1,
            start_ns: start,
            end_ns: start + 10,
            sample,
        };
        let mut w0 = worker(0, None);
        w0.windows = vec![win(50, Some(misses(5))), win(200, None)];
        w0.trace = Some(Timeline {
            events: vec![Event {
                ts_ns: 0,
                dur_ns: 1,
                kind: EventKind::Batch { seg: 0 },
            }],
            dropped: 3,
        });
        let mut w1 = worker(1, None);
        let mut scaled = misses(9);
        scaled.time_enabled_ns = 1000;
        scaled.time_running_ns = 100; // 10% residency: below threshold
        w1.windows = vec![win(100, Some(scaled))];
        let s = stats(vec![w0, w1], 50);
        let merged = s.windows();
        assert_eq!(
            merged
                .iter()
                .map(|(w, s)| (*w, s.start_ns))
                .collect::<Vec<_>>(),
            vec![(0, 50), (1, 100), (0, 200)]
        );
        assert_eq!(s.window_count(), 3);
        assert_eq!(s.windows_scaled_below(ccs_obs::MULTIPLEX_WARN_RATIO), 1);
        assert_eq!(s.windows_timing_only(), 1);
        assert_eq!(s.trace_events(), 1);
        assert_eq!(s.trace_dropped(), 3);
    }

    #[test]
    fn no_obs_means_empty_aggregates() {
        let s = stats(vec![worker(0, None)], 10);
        assert!(s.windows().is_empty());
        assert_eq!(s.window_count(), 0);
        assert_eq!(s.trace_events(), 0);
        assert_eq!(s.trace_dropped(), 0);
    }

    #[test]
    fn uncounted_segments_yield_none_not_zero() {
        let mut w = worker(0, Some(misses(10)));
        w.segment_counters = vec![seg_counters(0, 0, 0)];
        let s = stats(vec![w], 50);
        assert_eq!(s.segment_llc_misses_per_item()[0], (0, None));
        // Off entirely: no entries at all.
        let s = stats(vec![worker(0, None)], 50);
        assert!(s.segment_counters().is_empty());
        assert!(s.segment_llc_misses_per_item().is_empty());
    }
}
