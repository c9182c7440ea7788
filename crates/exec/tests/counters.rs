//! Counter instrumentation must be an observer, not a participant:
//! enabling `RunConfig::counters` may not change digests, firing
//! counts, or sink items, in any placement × pinning mode — and the
//! readings it yields (when the environment allows counters at all)
//! must be internally consistent with the run they describe.

use ccs_exec::{execute_dag_cfg, Placement, RunConfig};
use ccs_graph::gen::{self, LayeredCfg, StateDist};
use ccs_graph::RateAnalysis;
use ccs_partition::dag_greedy;
use ccs_perf::CounterKind;
use ccs_runtime::instance::Instance;
use ccs_topo::{TopoSpec, Topology};

#[test]
fn counters_do_not_perturb_digests() {
    let cfg_g = LayeredCfg {
        layers: 5,
        max_width: 4,
        density: 0.35,
        state: StateDist::Uniform(16, 64),
        max_q: 2,
    };
    let topo = Topology::synthetic(&TopoSpec::new(1, 2, 2));
    for seed in 0..3u64 {
        let g = gen::layered(&cfg_g, seed);
        let ra = RateAnalysis::analyze_single_io(&g).unwrap();
        let p = dag_greedy::greedy_topo(&g, 96);
        for placement in [Placement::RoundRobin, Placement::Llc] {
            for pin in [false, true] {
                let base = RunConfig::new(3)
                    .with_placement(placement)
                    .with_topology(topo.clone())
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
            assert_eq!(stats.llc_misses_per_item(), None);
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
                assert!(stats.llc_misses_per_item().is_some());
            }
        }
    }
}

#[test]
fn warmup_and_segment_sampling_do_not_perturb_results() {
    // The acceptance bar for the measurement layer: turning on the
    // warmup reset and the per-batch counting windows changes *nothing*
    // about execution — digest, firing count, sink items — at any
    // placement, and a clamped (oversized) warmup behaves identically.
    let cfg_g = LayeredCfg {
        layers: 5,
        max_width: 4,
        density: 0.35,
        state: StateDist::Uniform(16, 64),
        max_q: 2,
    };
    let topo = Topology::synthetic(&TopoSpec::new(1, 2, 2));
    for seed in 0..3u64 {
        let g = gen::layered(&cfg_g, seed);
        let ra = RateAnalysis::analyze_single_io(&g).unwrap();
        let p = dag_greedy::greedy_topo(&g, 96);
        for placement in [Placement::RoundRobin, Placement::Llc] {
            let base = RunConfig::new(3)
                .with_placement(placement)
                .with_topology(topo.clone());
            let plain =
                execute_dag_cfg(Instance::synthetic(g.clone()), &ra, &p, 48, 6, &base).unwrap();
            for warmup in [2, 999] {
                let cfg = base
                    .clone()
                    .with_counters(true)
                    .with_warmup(warmup)
                    .with_segment_counters(true);
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
    let cfg = RunConfig::new(2)
        .with_counters(true)
        .with_warmup(warmup)
        .with_segment_counters(true);
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
            // No group opened: windows silently disappear.
            assert!(segs.iter().all(|sc| sc.batches_counted == 0));
            assert!(segs.iter().all(|sc| sc.sample.readings.is_empty()));
        }
        _ => {
            // Groups opened: per-segment raw sums must stay within the
            // per-worker cumulative totals (disjoint sub-windows of the
            // same post-reset counting interval) for every event kind.
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
                assert!(
                    seg_sum <= r.raw,
                    "{:?}: segment sum {} > worker total {}",
                    r.kind,
                    seg_sum,
                    r.raw
                );
            }
            // Workers that counted report how much warmup they shed.
            assert!(stats
                .workers
                .iter()
                .all(|w| w.counters.is_none() || w.warmup_excluded <= w.batches));
        }
    }
    // Per-segment misses/item entries line up with the segments.
    let mpi = stats.segment_llc_misses_per_item();
    assert_eq!(mpi.len(), stats.segments);
    assert!(mpi.iter().enumerate().all(|(i, (seg, _))| *seg == i));
}

#[test]
fn every_post_warmup_batch_is_counted() {
    // Per-segment attribution samples no subset of batches: a segment
    // whose worker opened a group counts exactly the batches past the
    // warmup window, and one whose worker opened none counts nothing.
    let g = gen::pipeline_uniform(8, 32);
    let ra = RateAnalysis::analyze_single_io(&g).unwrap();
    let p = dag_greedy::greedy_topo(&g, 64);
    let rounds = 7;
    for (workers, warmup) in [(1usize, 0u64), (2, 0), (2, 3), (3, 1)] {
        let cfg = RunConfig::new(workers)
            .with_counters(true)
            .with_warmup(warmup)
            .with_segment_counters(true);
        let stats =
            execute_dag_cfg(Instance::synthetic(g.clone()), &ra, &p, 32, rounds, &cfg).unwrap();
        let segs = stats.segment_counters();
        assert_eq!(segs.len(), stats.segments);
        for w in &stats.workers {
            let want = if w.counters.is_some() {
                rounds - warmup
            } else {
                0
            };
            for &seg in &w.segments {
                let sc = &segs[seg];
                assert_eq!(sc.seg, seg);
                assert_eq!(sc.batches, rounds, "x{workers} warmup {warmup} seg {seg}");
                assert_eq!(
                    sc.batches_counted, want,
                    "x{workers} warmup {warmup} seg {seg}"
                );
            }
        }
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
    let cfg = RunConfig::new(2)
        .with_counters(true)
        .with_warmup(1)
        .with_segment_counters(true);
    let stats = execute_dag_cfg(Instance::synthetic(g), &ra, &p, 32, 2, &cfg).unwrap();
    std::env::remove_var("CCS_NO_PERF");
    assert!(stats.counters_requested);
    assert_eq!(stats.counted_workers(), 0);
    assert_eq!(stats.counter_totals(), None);
    assert_eq!(stats.run.digest, want);
    // The per-segment layer degrades to the same clean shape: records
    // exist (with batch accounting) but nothing was counted, and the
    // warmup bookkeeping still reflects the (no-op) reset point:
    // exactly one window per owned segment.
    let segs = stats.segment_counters();
    assert_eq!(segs.len(), stats.segments);
    assert!(segs.iter().all(|sc| sc.batches == 2));
    assert!(segs.iter().all(|sc| sc.batches_counted == 0));
    assert!(stats
        .segment_llc_misses_per_item()
        .iter()
        .all(|(_, v)| v.is_none()));
    assert!(stats
        .workers
        .iter()
        .all(|w| w.warmup_excluded == w.segments.len() as u64));
}

#[test]
fn epoch_warmup_is_exact_and_digest_invariant() {
    // The epoch reset caps every segment at the warmup window and
    // resets all groups at one rendezvous, so each worker's excluded
    // work is *exactly* `owned segments x warmup` — deterministically,
    // with or without a PMU.
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
        for w in &stats.workers {
            let exact = w.segments.len() as u64 * warmup;
            assert_eq!(w.warmup_excluded, exact, "{tag} worker {}", w.worker);
            assert_eq!(w.batches, stats.rounds * w.segments.len() as u64, "{tag}");
        }
    }
}
