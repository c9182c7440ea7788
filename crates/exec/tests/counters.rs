//! Counter instrumentation must be an observer, not a participant:
//! enabling `RunConfig::counters` may not change digests, firing
//! counts, or sink items, in any placement × pinning mode — and the
//! readings it yields (when the environment allows counters at all)
//! must be internally consistent with the run they describe.

use ccs_exec::{execute_dag_cfg, DagRunStats, Placement, RunConfig};
use ccs_graph::gen::{self, LayeredCfg, StateDist};
use ccs_graph::RateAnalysis;
use ccs_partition::dag_greedy;
use ccs_perf::{CounterKind, CounterSample};
use ccs_runtime::instance::Instance;
use ccs_sched::partitioned;

/// The run's LLC misses per measured sink item, as its record
/// normalizes the summed readings.
fn llc_per_item(stats: &DagRunStats) -> Option<f64> {
    stats
        .counter_totals()?
        .per_item(CounterKind::LlcMisses, stats.measured_sink_items())
}

/// Each segment's LLC misses per sink item, as its record's
/// `per_segment` row normalizes them.
fn segment_llc_per_item(stats: &DagRunStats) -> Vec<(usize, Option<f64>)> {
    stats
        .segment_counters()
        .iter()
        .map(|c| {
            (
                c.seg,
                c.per_item(CounterKind::LlcMisses, stats.items_per_round()),
            )
        })
        .collect()
}

#[test]
fn counters_do_not_perturb_digests() {
    let cfg_g = LayeredCfg {
        layers: 5,
        max_width: 4,
        density: 0.35,
        state: StateDist::Uniform(16, 64),
        max_q: 2,
    };
    for seed in 0..3u64 {
        let g = gen::layered(&cfg_g, seed);
        let ra = RateAnalysis::analyze_single_io(&g).unwrap();
        let p = dag_greedy::greedy_topo(&g, 96);
        for placement in [Placement::RoundRobin, Placement::Measured] {
            for pin in [false, true] {
                let base = RunConfig::new(3)
                    .with_placement(placement)
                    .with_pinning(pin);
                let plain =
                    execute_dag_cfg(Instance::synthetic(g.clone()), &ra, &p, 48, 4, &base).unwrap();
                let counted = execute_dag_cfg(
                    Instance::synthetic(g.clone()),
                    &ra,
                    &p,
                    48,
                    4,
                    &base.clone().with_counters(true),
                )
                .unwrap();
                let tag = format!("seed {seed} placement {placement:?} pin {pin}");
                assert_eq!(plain.run.digest, counted.run.digest, "{tag}");
                assert_eq!(plain.run.firings, counted.run.firings, "{tag}");
                assert_eq!(plain.run.sink_items, counted.run.sink_items, "{tag}");
                // Bookkeeping of the request itself.
                assert!(!plain.counters_requested);
                assert!(counted.counters_requested);
                assert!(plain.workers.iter().all(|w| w.counters.is_none()), "{tag}");
            }
        }
    }
}

#[test]
fn counter_readings_are_consistent_with_the_run() {
    let g = gen::pipeline_uniform(10, 48);
    let ra = RateAnalysis::analyze_single_io(&g).unwrap();
    let p = dag_greedy::greedy_topo(&g, 96);
    let cfg = RunConfig::new(2).with_counters(true);
    let stats = execute_dag_cfg(Instance::synthetic(g), &ra, &p, 48, 4, &cfg).unwrap();

    // Whether counters opened is environment policy; both outcomes are
    // legal, but an open group must describe real work.
    match stats.counter_totals() {
        None => {
            assert_eq!(stats.counted_workers(), 0);
            assert_eq!(llc_per_item(&stats), None);
        }
        Some(totals) => {
            assert!(stats.counted_workers() > 0);
            assert!(totals.time_enabled_ns > 0);
            // Each scaled reading is an extrapolation of a raw count:
            // zero raw must stay zero scaled.
            for r in &totals.readings {
                if r.raw == 0 {
                    assert_eq!(r.scaled, 0, "{:?}", r.kind);
                }
                assert!(r.scaled >= r.raw || totals.multiplexed(), "{:?}", r.kind);
            }
            // The firing loops executed thousands of kernel firings; if
            // the instruction counter opened it cannot have seen fewer
            // instructions than firings.
            if let Some(ins) = totals.get(CounterKind::Instructions) {
                assert!(ins > stats.run.firings, "{ins} instructions");
            }
            // Derived metrics exist exactly when their events opened.
            if totals.get(CounterKind::LlcMisses).is_some() && stats.run.sink_items > 0 {
                assert!(llc_per_item(&stats).is_some());
            }
        }
    }
}

#[test]
fn warmup_and_segment_sampling_do_not_perturb_results() {
    // The acceptance bar for the measurement layer: turning on the
    // warmup and the per-batch counter brackets changes *nothing*
    // about execution — digest, firing count, sink items — at any
    // placement, and a clamped (oversized) warmup behaves identically.
    let cfg_g = LayeredCfg {
        layers: 5,
        max_width: 4,
        density: 0.35,
        state: StateDist::Uniform(16, 64),
        max_q: 2,
    };
    for seed in 0..3u64 {
        let g = gen::layered(&cfg_g, seed);
        let ra = RateAnalysis::analyze_single_io(&g).unwrap();
        let p = dag_greedy::greedy_topo(&g, 96);
        for placement in [Placement::RoundRobin, Placement::Measured] {
            let base = RunConfig::new(3).with_placement(placement);
            let plain =
                execute_dag_cfg(Instance::synthetic(g.clone()), &ra, &p, 48, 6, &base).unwrap();
            for warmup in [2, 999] {
                let cfg = base.clone().with_counters(true).with_warmup(warmup);
                let warm =
                    execute_dag_cfg(Instance::synthetic(g.clone()), &ra, &p, 48, 6, &cfg).unwrap();
                let tag = format!("seed {seed} placement {placement:?} warmup {warmup}");
                assert_eq!(plain.run.digest, warm.run.digest, "{tag}");
                assert_eq!(plain.run.firings, warm.run.firings, "{tag}");
                assert_eq!(plain.run.sink_items, warm.run.sink_items, "{tag}");
                // The oversized warmup is clamped so a window remains.
                assert_eq!(warm.warmup, warmup.min(5), "{tag}");
                assert!(warm.measured_sink_items() > 0, "{tag}");
            }
        }
    }
}

#[test]
fn segment_attribution_accounts_for_every_batch() {
    let g = gen::pipeline_uniform(10, 48);
    let ra = RateAnalysis::analyze_single_io(&g).unwrap();
    let p = dag_greedy::greedy_topo(&g, 96);
    let rounds = 6;
    let warmup = 2;
    let cfg = RunConfig::new(2).with_counters(true).with_warmup(warmup);
    let stats = execute_dag_cfg(Instance::synthetic(g), &ra, &p, 48, rounds, &cfg).unwrap();

    // One attribution record per segment, regardless of availability.
    let segs = stats.segment_counters();
    assert_eq!(segs.len(), stats.segments);
    for sc in &segs {
        // Every batch executed is accounted; at most the post-warmup
        // ones are counted.
        assert_eq!(sc.batches, rounds);
        assert!(
            sc.batches_counted <= rounds - warmup,
            "segment {}: counted {} of {} with warmup {}",
            sc.seg,
            sc.batches_counted,
            rounds,
            warmup
        );
    }
    match stats.counted_workers() {
        0 => {
            // No group opened: the brackets silently disappear.
            assert!(segs.iter().all(|sc| sc.batches_counted == 0));
            assert!(segs.iter().all(|sc| sc.sample.readings.is_empty()));
        }
        _ => {
            // Groups opened: the run's totals are the segments' raw sums,
            // for every event kind.
            let totals = stats.counter_totals().unwrap();
            for r in &totals.readings {
                let seg_sum: u64 = segs
                    .iter()
                    .filter_map(|sc| {
                        sc.sample
                            .readings
                            .iter()
                            .find(|s| s.kind == r.kind)
                            .map(|s| s.raw)
                    })
                    .sum();
                assert_eq!(seg_sum, r.raw, "{:?}", r.kind);
            }
        }
    }
    // Per-segment misses/item entries line up with the segments.
    let mpi = segment_llc_per_item(&stats);
    assert_eq!(mpi.len(), stats.segments);
    assert!(mpi.iter().enumerate().all(|(i, (seg, _))| *seg == i));
}

#[test]
fn worker_totals_are_the_sum_of_their_segments() {
    // Counters are read only around batches: a worker's totals are its
    // segments' brackets summed, reading by reading, and each segment
    // counts exactly its batches past the warmup. Without a group the
    // batch accounting and the digest still hold.
    let g = gen::pipeline_uniform(8, 32);
    let ra = RateAnalysis::analyze_single_io(&g).unwrap();
    let p = dag_greedy::greedy_topo(&g, 64);
    let rounds = 5;
    let want = {
        let run = partitioned::inhomogeneous(&g, &ra, &p, 32, rounds).unwrap();
        let mut inst = Instance::synthetic(g.clone());
        ccs_runtime::serial::execute(&mut inst, &run).digest
    };
    let mut opened = 0;
    for workers in [1usize, 2, 4] {
        for warmup in [0u64, 2] {
            let tag = format!("x{workers} warmup {warmup}");
            let cfg = RunConfig::new(workers)
                .with_counters(true)
                .with_warmup(warmup);
            let stats =
                execute_dag_cfg(Instance::synthetic(g.clone()), &ra, &p, 32, rounds, &cfg).unwrap();
            assert_eq!(stats.run.digest, want, "{tag}");
            assert_eq!(stats.segment_counters().len(), stats.segments, "{tag}");
            for w in &stats.workers {
                let segs = &w.segment_counters;
                assert_eq!(
                    segs.iter().map(|s| s.seg).collect::<Vec<_>>(),
                    w.segments,
                    "{tag}"
                );
                assert!(segs.iter().all(|s| s.batches == rounds), "{tag}");
                let Some(total) = &w.counters else {
                    assert!(segs.iter().all(|s| s.batches_counted == 0), "{tag}");
                    continue;
                };
                opened += 1;
                assert!(
                    segs.iter().all(|s| s.batches_counted == rounds - warmup),
                    "{tag} worker {}",
                    w.worker
                );
                let mut sum = CounterSample::default();
                for s in segs {
                    sum.merge(&s.sample);
                }
                assert_eq!(*total, sum, "{tag} worker {}", w.worker);
            }
        }
    }
    if opened == 0 {
        eprintln!("no counter group opened: checked batch counts and digests only");
    }
}

#[test]
fn ccs_no_perf_forces_clean_fallback() {
    // The kill switch must produce exactly the unavailable shape that a
    // denied syscall would — the path CI asserts. (The var is set only
    // within this test; the sibling tests tolerate either availability
    // outcome, so the brief overlap cannot fail them.)
    let g = gen::pipeline_uniform(6, 32);
    let ra = RateAnalysis::analyze_single_io(&g).unwrap();
    let p = dag_greedy::greedy_topo(&g, 64);
    let want = {
        let cfg = RunConfig::new(2);
        execute_dag_cfg(Instance::synthetic(g.clone()), &ra, &p, 32, 2, &cfg)
            .unwrap()
            .run
            .digest
    };
    std::env::set_var("CCS_NO_PERF", "1");
    let cfg = RunConfig::new(2).with_counters(true).with_warmup(1);
    let stats = execute_dag_cfg(Instance::synthetic(g), &ra, &p, 32, 2, &cfg).unwrap();
    std::env::remove_var("CCS_NO_PERF");
    assert!(stats.counters_requested);
    assert_eq!(stats.counted_workers(), 0);
    assert_eq!(stats.counter_totals(), None);
    assert_eq!(stats.run.digest, want);
    // The per-segment layer degrades to the same clean shape: records
    // exist (with batch accounting) but nothing was counted.
    let segs = stats.segment_counters();
    assert_eq!(segs.len(), stats.segments);
    assert!(segs.iter().all(|sc| sc.batches == 2));
    assert!(segs.iter().all(|sc| sc.batches_counted == 0));
    assert!(segment_llc_per_item(&stats)
        .iter()
        .all(|(_, v)| v.is_none()));
}

#[test]
fn warmup_is_exact_and_digest_invariant() {
    // The warmup leaves the schedule alone and decides only which
    // batches are counted: every segment runs all its rounds and, with
    // a group open, counts exactly `rounds - warmup` of them —
    // deterministically, whatever the interleaving.
    let cfg_g = LayeredCfg {
        layers: 5,
        max_width: 4,
        density: 0.35,
        state: StateDist::Uniform(16, 64),
        max_q: 2,
    };
    for seed in 0..3u64 {
        let g = gen::layered(&cfg_g, seed);
        let ra = RateAnalysis::analyze_single_io(&g).unwrap();
        let p = dag_greedy::greedy_topo(&g, 96);
        let rounds = 6;
        let warmup = 2;
        let plain = execute_dag_cfg(
            Instance::synthetic(g.clone()),
            &ra,
            &p,
            48,
            rounds,
            &RunConfig::new(3),
        )
        .unwrap();
        let cfg = RunConfig::new(3).with_counters(true).with_warmup(warmup);
        let stats =
            execute_dag_cfg(Instance::synthetic(g.clone()), &ra, &p, 48, rounds, &cfg).unwrap();
        let tag = format!("seed {seed}");
        assert_eq!(stats.run.digest, plain.run.digest, "{tag}");
        assert_eq!(stats.run.firings, plain.run.firings, "{tag}");
        // Under the measured placement a segment may change workers
        // after round 0, so the batches add up over the run, not per
        // worker; its tally moves with it.
        let batches: u64 = stats.workers.iter().map(|w| w.batches).sum();
        assert_eq!(batches, stats.rounds * stats.segments as u64, "{tag}");
        for w in &stats.workers {
            let counted = if w.counters.is_some() {
                rounds - warmup
            } else {
                0
            };
            for s in &w.segment_counters {
                assert_eq!(s.batches, rounds, "{tag} segment {}", s.seg);
                assert_eq!(s.batches_counted, counted, "{tag} segment {}", s.seg);
            }
        }
    }
}

#[test]
fn a_one_round_run_counts_its_only_batch() {
    // The warmup is clamped below the rounds, so a one-round run keeps
    // its only batch in the measured window, whatever was asked for.
    let g = gen::pipeline_uniform(6, 32);
    let ra = RateAnalysis::analyze_single_io(&g).unwrap();
    let p = dag_greedy::greedy_topo(&g, 64);
    for workers in [1usize, 2] {
        let cfg = RunConfig::new(workers).with_counters(true).with_warmup(5);
        let stats = execute_dag_cfg(Instance::synthetic(g.clone()), &ra, &p, 32, 1, &cfg).unwrap();
        let tag = format!("x{workers}");
        assert_eq!(stats.warmup, 0, "{tag}");
        assert_eq!(stats.measured_sink_items(), stats.run.sink_items, "{tag}");
        for w in &stats.workers {
            let counted = u64::from(w.counters.is_some());
            for s in &w.segment_counters {
                assert_eq!((s.batches, s.batches_counted), (1, counted), "{tag}");
            }
        }
    }
}

#[test]
fn without_counters_a_warmup_only_shrinks_the_item_window() {
    // Counters off: no group, no per-segment records, no totals; the
    // (clamped) warmup still sets the measured window's size.
    let g = gen::pipeline_uniform(6, 32);
    let ra = RateAnalysis::analyze_single_io(&g).unwrap();
    let p = dag_greedy::greedy_topo(&g, 64);
    let rounds = 4;
    let plain = execute_dag_cfg(
        Instance::synthetic(g.clone()),
        &ra,
        &p,
        32,
        rounds,
        &RunConfig::new(2),
    )
    .unwrap();
    for (asked, effective) in [(1u64, 1u64), (50, 3)] {
        let cfg = RunConfig::new(2).with_warmup(asked);
        let stats =
            execute_dag_cfg(Instance::synthetic(g.clone()), &ra, &p, 32, rounds, &cfg).unwrap();
        let tag = format!("warmup {asked}");
        assert_eq!(stats.run.digest, plain.run.digest, "{tag}");
        assert!(!stats.counters_requested, "{tag}");
        assert!(stats.segment_counters().is_empty(), "{tag}");
        assert_eq!(stats.counter_totals(), None, "{tag}");
        assert_eq!(stats.warmup, effective, "{tag}");
        assert_eq!(
            stats.measured_sink_items(),
            stats.run.sink_items / rounds * (rounds - effective),
            "{tag}"
        );
    }
}

#[test]
fn windows_span_the_run_and_hold_every_counted_bracket() {
    // The group is never reset: a worker's windows telescope from its
    // first read to its last, so they hold every counted bracket — the
    // warmup batches, scans and stalls too — and never read less than
    // the worker's totals.
    let g = gen::pipeline_uniform(8, 32);
    let ra = RateAnalysis::analyze_single_io(&g).unwrap();
    let p = dag_greedy::greedy_topo(&g, 64);
    for workers in [1usize, 2] {
        let cfg = RunConfig::new(workers)
            .with_counters(true)
            .with_warmup(2)
            .with_windows(3);
        let stats = execute_dag_cfg(Instance::synthetic(g.clone()), &ra, &p, 32, 6, &cfg).unwrap();
        for w in &stats.workers {
            let tag = format!("x{workers} worker {}", w.worker);
            assert_eq!(
                w.windows.iter().map(|s| s.batches).sum::<u64>(),
                w.batches,
                "{tag}"
            );
            let Some(total) = &w.counters else {
                assert!(w.windows.iter().all(|s| s.timing_only()), "{tag}");
                continue;
            };
            let mut spanned = CounterSample::default();
            for s in &w.windows {
                spanned.merge(
                    s.sample
                        .as_ref()
                        .expect("a counted worker's window has a sample"),
                );
            }
            for r in &total.readings {
                let held = spanned
                    .readings
                    .iter()
                    .find(|s| s.kind == r.kind)
                    .map_or(0, |s| s.raw);
                assert!(
                    r.raw <= held,
                    "{tag} {:?}: totals {} > windows {held}",
                    r.kind,
                    r.raw
                );
            }
        }
    }
}
