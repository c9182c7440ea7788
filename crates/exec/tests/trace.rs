//! Observability must be an observer, not a participant: enabling
//! `RunConfig::trace` and `RunConfig::window_batches` may not change
//! digests, firing counts, or sink items — for real apps, at every
//! worker count — and the timelines/windows they
//! yield must be internally consistent with the run they describe.
//! Mirrors `tests/counters.rs` for the counter layer.

use ccs_exec::{execute_dag_cfg, ExecPlan, Placement, RunConfig};
use ccs_graph::gen::{self, LayeredCfg, StateDist};
use ccs_graph::{RateAnalysis, StreamGraph};
use ccs_obs::{EventKind, StallReason};
use ccs_partition::{dag_greedy, Partition};
use ccs_runtime::instance::Instance;
use ccs_sched::partitioned;
use std::time::Duration;

mod common;

/// Serial reference digest for `rounds` granularity-T rounds.
fn serial_digest(
    g: &StreamGraph,
    ra: &RateAnalysis,
    p: &Partition,
    m: u64,
    rounds: u64,
) -> Option<u64> {
    let run = partitioned::inhomogeneous(g, ra, p, m, rounds).unwrap();
    let mut inst = Instance::synthetic(g.clone());
    ccs_runtime::serial::execute(&mut inst, &run).digest
}

#[test]
fn trace_and_windows_do_not_perturb_app_digests() {
    // The acceptance bar for the observability layer, on real apps:
    // turning on tracing and counter windows changes *nothing* about
    // execution — digest, firings, sink items — at any worker count.
    let apps: Vec<(&str, StreamGraph, u64)> = vec![
        ("fm-radio", ccs_apps::fm_radio(8), 512),
        ("filterbank", ccs_apps::filterbank(8), 512),
        ("fft", ccs_apps::fft(4), 256),
    ];
    let rounds = 4u64;
    for (name, g, m) in apps {
        let ra = RateAnalysis::analyze_single_io(&g).unwrap();
        let bound = m.max(g.max_state());
        let p = dag_greedy::greedy_best(&g, &ra, bound);
        let want = serial_digest(&g, &ra, &p, m, rounds);

        // One worker: the observed run must match the oracle, and its
        // trace is a `Batch` span per segment batch, each followed by
        // the occupancy of the rings its segment reads and writes (what
        // `ccs analyze` reads its occupancy section from) — every cross
        // ring twice a round, once after its producer's batch and once
        // after its consumer's.
        let plan = ExecPlan::build(&g, &ra, &p, m).unwrap();
        let cfg = RunConfig::new(1)
            .with_counters(true)
            .with_warmup(1)
            .with_windows(2)
            .with_trace(true);
        let mut one =
            execute_dag_cfg(Instance::synthetic(g.clone()), &ra, &p, m, rounds, &cfg).unwrap();
        assert_eq!(one.run.digest, want, "{name} one worker");
        let obs = one.workers.pop().expect("one worker");
        assert!(!obs.windows.is_empty(), "{name} one-worker windows missing");
        let tl = obs.trace.expect("one-worker trace missing");
        let count = |f: fn(&EventKind) -> bool| tl.events.iter().filter(|e| f(&e.kind)).count();
        let batches = count(|k| matches!(k, EventKind::Batch { .. }));
        assert_eq!(batches, rounds as usize * plan.segments.len(), "{name}");
        let cross_rings: usize = plan.segments.iter().map(|s| s.out_batch.len()).sum();
        let occupancy = count(|k| matches!(k, EventKind::RingOccupancy { .. }));
        assert_eq!(occupancy as u64, 2 * rounds * cross_rings as u64, "{name}");

        // Plain against traced: 1 / 2 / 4 workers.
        for workers in [1usize, 2, 4] {
            let base = RunConfig::new(workers).with_placement(Placement::Measured);
            let plain =
                execute_dag_cfg(Instance::synthetic(g.clone()), &ra, &p, m, rounds, &base).unwrap();
            let traced = execute_dag_cfg(
                Instance::synthetic(g.clone()),
                &ra,
                &p,
                m,
                rounds,
                &base
                    .clone()
                    .with_counters(true)
                    .with_warmup(1)
                    .with_trace(true)
                    .with_windows(1),
            )
            .unwrap();
            let tag = format!("{name} workers {workers}");
            assert_eq!(plain.run.digest, want, "{tag} (plain vs reference)");
            assert_eq!(plain.run.digest, traced.run.digest, "{tag}");
            assert_eq!(plain.run.firings, traced.run.firings, "{tag}");
            assert_eq!(plain.run.sink_items, traced.run.sink_items, "{tag}");
            // Bookkeeping of the request itself.
            assert!(!plain.trace_enabled, "{tag}");
            assert_eq!(plain.window_batches, 0, "{tag}");
            assert!(plain.workers.iter().all(|w| w.trace.is_none()), "{tag}");
            assert!(plain.workers.iter().all(|w| w.windows.is_empty()), "{tag}");
            assert!(traced.trace_enabled, "{tag}");
            assert_eq!(traced.window_batches, 1, "{tag}");
        }
    }
}

#[test]
fn timelines_and_windows_are_consistent_with_the_run() {
    let cfg_g = LayeredCfg {
        layers: 5,
        max_width: 4,
        density: 0.35,
        state: StateDist::Uniform(16, 64),
        max_q: 2,
    };
    let rounds = 6u64;
    let every = 2u64;
    for seed in 0..3u64 {
        let g = gen::layered(&cfg_g, seed);
        let ra = RateAnalysis::analyze_single_io(&g).unwrap();
        let p = dag_greedy::greedy_topo(&g, 96);
        let cfg = RunConfig::new(3)
            .with_counters(true)
            .with_warmup(2)
            .with_trace(true)
            .with_windows(every);
        let stats = execute_dag_cfg(Instance::synthetic(g), &ra, &p, 48, rounds, &cfg).unwrap();
        let tag = format!("seed {seed}");

        // Every worker has a timeline; none lost events at the default
        // ring capacity for a run this small.
        assert_eq!(stats.trace_dropped(), 0, "{tag}");
        assert!(stats.trace_events() > 0, "{tag}");
        for w in &stats.workers {
            let tl = w
                .trace
                .as_ref()
                .unwrap_or_else(|| panic!("{tag}: no timeline"));
            // Timestamps are monotone within a worker.
            assert!(
                tl.events.windows(2).all(|e| e[0].ts_ns <= e[1].ts_ns),
                "{tag} worker {}",
                w.worker
            );
            // One batch span per batch the worker executed.
            let batch_spans = tl
                .events
                .iter()
                .filter(|e| matches!(e.kind, EventKind::Batch { .. }))
                .count() as u64;
            assert_eq!(batch_spans, w.batches, "{tag} worker {}", w.worker);
            // Instantaneous kinds never carry a span duration.
            assert!(
                tl.events
                    .iter()
                    .filter(|e| matches!(
                        e.kind,
                        EventKind::Window { .. } | EventKind::RingOccupancy { .. }
                    ))
                    .all(|e| e.dur_ns == 0),
                "{tag}"
            );

            // Window accounting: gap-free per-worker indices, batches
            // summing to the worker's batch total, spans ordered.
            let wins = &w.windows;
            if w.batches > 0 {
                assert!(!wins.is_empty(), "{tag} worker {}", w.worker);
            }
            assert_eq!(
                wins.iter().map(|s| s.batches).sum::<u64>(),
                w.batches,
                "{tag} worker {}",
                w.worker
            );
            for (i, s) in wins.iter().enumerate() {
                assert_eq!(s.index, i as u64, "{tag} worker {}", w.worker);
                assert!(s.batches <= every, "{tag} worker {}", w.worker);
                assert!(s.start_ns <= s.end_ns, "{tag} worker {}", w.worker);
            }
            assert!(
                wins.windows(2).all(|p| p[0].end_ns <= p[1].start_ns),
                "{tag} worker {}",
                w.worker
            );
        }
        // The run-level merge is sorted by start time and counts match.
        let merged = stats.windows();
        assert_eq!(merged.len(), stats.window_count(), "{tag}");
        assert!(
            merged
                .windows(2)
                .all(|p| p[0].1.start_ns <= p[1].1.start_ns),
            "{tag}"
        );
        // Whether counters opened is environment policy; either way the
        // classification is total.
        assert!(stats.windows_timing_only() <= stats.window_count(), "{tag}");
    }
}

#[test]
fn tiny_ring_capacity_drops_are_accounted_not_silent() {
    let g = gen::pipeline_uniform(10, 48);
    let ra = RateAnalysis::analyze_single_io(&g).unwrap();
    let p = dag_greedy::greedy_topo(&g, 96);
    let plain = execute_dag_cfg(
        Instance::synthetic(g.clone()),
        &ra,
        &p,
        48,
        8,
        &RunConfig::new(2),
    )
    .unwrap();
    let cfg = RunConfig::new(2).with_trace(true).with_trace_capacity(2);
    let stats = execute_dag_cfg(Instance::synthetic(g), &ra, &p, 48, 8, &cfg).unwrap();
    // Squeezing the ring changes nothing about the run…
    assert_eq!(stats.run.digest, plain.run.digest);
    // …but the truncation is visible: each surviving timeline holds at
    // most 2 events and the drop counter owns the rest.
    for w in &stats.workers {
        let tl = w.trace.as_ref().unwrap();
        assert!(tl.events.len() <= 2, "worker {}", w.worker);
        let recorded = tl.events.len() as u64 + tl.dropped;
        // At least one event per batch was recorded (stalls add more).
        assert!(recorded >= w.batches, "worker {}", w.worker);
    }
    assert!(stats.trace_dropped() > 0);
}

#[test]
fn ccs_no_perf_degrades_windows_to_timing_only() {
    // With the perf kill switch set, counter windows must still appear —
    // carrying wall-clock spans and batch accounting — but flagged
    // timing-only, and the run itself is untouched. (The var is set only
    // within this test; sibling tests tolerate either availability
    // outcome, so the brief overlap cannot fail them.)
    let g = gen::pipeline_uniform(6, 32);
    let ra = RateAnalysis::analyze_single_io(&g).unwrap();
    let p = dag_greedy::greedy_topo(&g, 64);
    let want = execute_dag_cfg(
        Instance::synthetic(g.clone()),
        &ra,
        &p,
        32,
        4,
        &RunConfig::new(2),
    )
    .unwrap()
    .run
    .digest;
    std::env::set_var("CCS_NO_PERF", "1");
    let cfg = RunConfig::new(2)
        .with_counters(true)
        .with_warmup(1)
        .with_trace(true)
        .with_windows(1);
    let stats = execute_dag_cfg(Instance::synthetic(g), &ra, &p, 32, 4, &cfg).unwrap();
    std::env::remove_var("CCS_NO_PERF");
    assert_eq!(stats.run.digest, want);
    assert_eq!(stats.counted_workers(), 0);
    assert!(stats.window_count() > 0);
    assert_eq!(stats.windows_timing_only(), stats.window_count());
    assert_eq!(stats.windows_scaled_below(ccs_obs::MULTIPLEX_WARN_RATIO), 0);
    for (_, w) in stats.windows() {
        assert!(w.timing_only());
        assert_eq!(w.pmu_residency(), None);
    }
    // Timelines are independent of the PMU: still present and monotone.
    for w in &stats.workers {
        let tl = w.trace.as_ref().unwrap();
        assert!(tl
            .events
            .iter()
            .any(|e| matches!(e.kind, EventKind::Batch { .. })));
        assert!(tl.events.windows(2).all(|e| e[0].ts_ns <= e[1].ts_ns));
    }
}

#[test]
fn mid_batch_waits_are_stall_time_blamed_on_the_starved_edge() {
    // Two segments of a homogeneous pipeline, one per worker, with a
    // producer that naps through its batch: the consumer starts on the
    // producer's first granule and spends most of its batch waiting.
    let g = gen::pipeline_uniform(4, 32);
    let ra = RateAnalysis::analyze_single_io(&g).unwrap();
    let p = Partition::from_assignment(vec![0, 0, 1, 1]);
    let m = 512;
    let plan = ExecPlan::build(&g, &ra, &p, m).unwrap();
    let cross = plan.segments[1].in_batch[0].0;
    let inst = common::napping(
        Instance::synthetic(g.clone()),
        16,
        Duration::from_micros(300),
        |v| v < 2,
    );
    let cfg = RunConfig::new(2)
        .with_placement(Placement::RoundRobin)
        .with_trace(true);
    let stats = execute_dag_cfg(inst, &ra, &p, m, 1, &cfg).unwrap();
    assert_eq!(stats.run.digest, serial_digest(&g, &ra, &p, m, 1));
    let consumer = &stats.workers[1];
    let waits = common::mid_batch_stalls(consumer);
    assert!(!waits.is_empty(), "the consumer waited inside its batch");
    // Each wait is a `Stall` that names the starved edge, the waiting
    // segment and its producer — what `ccs analyze` blames.
    for (_, blocked) in &waits {
        let b = blocked.expect("a traced wait names its edge");
        assert_eq!(
            (b.edge, b.seg, b.peer, b.reason),
            (cross.idx(), 1, 0, StallReason::ProducerEmpty)
        );
    }
    // The waits are stall time, not busy time: the consumer's batch span
    // is its busy time plus the stalls inside it.
    let waited: u64 = waits.iter().map(|w| w.0).sum();
    let batch_ns: u64 = consumer
        .trace
        .as_ref()
        .unwrap()
        .events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::Batch { .. }))
        .map(|e| e.dur_ns)
        .sum();
    assert!(consumer.stall_time.as_nanos() as u64 >= waited);
    assert!(consumer.stalls >= waits.len() as u64);
    let busy = consumer.busy.as_nanos() as u64;
    assert!(
        busy + waited <= batch_ns + 1_000,
        "{busy} + {waited} > {batch_ns}"
    );
    assert!(2 * busy < batch_ns, "the batch was mostly waiting");
}
