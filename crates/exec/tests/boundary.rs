//! Boundary storage: one slab for all cross rings, laid out from the
//! plan. The layout's own checker is the safety argument for rings that
//! share storage, so the properties it must guarantee are restated here
//! from scratch over random plans, a hand-built bad layout must be
//! refused with the typed error, and a one-worker run — which shares
//! by schedule — must agree with the reference interpreter and with
//! more workers over several rounds, where storage is reused both
//! within a round and across rounds.

use ccs_exec::{
    execute_dag_cfg, BoundaryLayout, DagExecError, ExecPlan, Lifetimes, RingSpan, RunConfig,
};
use ccs_graph::gen::{self, LayeredCfg, PipelineCfg, StateDist};
use ccs_graph::{RateAnalysis, StreamGraph};
use ccs_partition::{dag_greedy, Partition};
use ccs_runtime::ring::LINE_WORDS;
use ccs_runtime::Instance;
use ccs_sched::partitioned;
use proptest::prelude::*;

fn plan_of(g: &StreamGraph, bound: u64, m: u64) -> (RateAnalysis, Partition, ExecPlan) {
    let ra = RateAnalysis::analyze_single_io(g).expect("rate matched");
    let p = dag_greedy::greedy_best(g, &ra, bound.max(g.max_state()));
    let plan = ExecPlan::build(g, &ra, &p, m).expect("well ordered");
    (ra, p, plan)
}

/// Whole lines `[first, last)` a ring occupies.
fn lines(r: &RingSpan) -> (usize, usize) {
    (
        r.offset / LINE_WORDS,
        (r.offset + r.capacity).div_ceil(LINE_WORDS),
    )
}

fn share_a_line(a: &RingSpan, b: &RingSpan) -> bool {
    let ((a0, a1), (b0, b1)) = (lines(a), lines(b));
    a0 < b1 && b0 < a1
}

/// The properties of both layouts of one plan, from the definitions.
fn check_layouts(plan: &ExecPlan) -> Result<(), String> {
    let cross: Vec<(usize, u64)> = plan
        .segments
        .iter()
        .flat_map(|s| &s.out_batch)
        .map(|&(e, n)| (e.idx(), n))
        .collect();

    // Disjoint: the threaded executor's rings, exactly as sized before
    // there was a slab, no two on one cache line.
    let whole = BoundaryLayout::build(plan, Lifetimes::WholeRun).map_err(|e| e.to_string())?;
    if whole.rings.len() != cross.len() {
        return Err(format!(
            "{} rings for {} cross edges",
            whole.rings.len(),
            cross.len()
        ));
    }
    for (r, &(e, _)) in whole.rings.iter().zip(&cross) {
        if r.edge.idx() != e || r.capacity as u64 != plan.capacities[e] {
            return Err(format!("edge {e}: ring {r:?}"));
        }
        if r.offset % LINE_WORDS != 0 || r.offset + r.capacity > whole.words {
            return Err(format!("edge {e}: ring {r:?} off its line or its slab"));
        }
    }
    for (i, a) in whole.rings.iter().enumerate() {
        for b in &whole.rings[i + 1..] {
            if share_a_line(a, b) {
                return Err(format!("disjoint layout: {a:?} and {b:?} share a line"));
            }
        }
    }
    if whole.peak_live_words != whole.words {
        return Err("a whole-run layout is live all at once".into());
    }

    // Shared: one batch per ring, live from producer to consumer;
    // overlapping storage implies disjoint closed lifetimes.
    let shared = BoundaryLayout::build(plan, Lifetimes::BySchedule).map_err(|e| e.to_string())?;
    if shared.rings.len() != cross.len() {
        return Err("shared layout misses a ring".into());
    }
    let mut consumer = vec![usize::MAX; plan.capacities.len()];
    let mut producer = consumer.clone();
    for (si, seg) in plan.segments.iter().enumerate() {
        for (e, _) in &seg.in_batch {
            consumer[e.idx()] = si;
        }
        for (e, _) in &seg.out_batch {
            producer[e.idx()] = si;
        }
    }
    for (r, &(e, batch)) in shared.rings.iter().zip(&cross) {
        if r.edge.idx() != e || r.capacity as u64 != batch {
            return Err(format!("edge {e}: shared ring {r:?}, batch {batch}"));
        }
        if r.live != (producer[e], consumer[e]) || producer[e] >= consumer[e] {
            return Err(format!("edge {e}: lifetime {:?}", r.live));
        }
        if r.offset % LINE_WORDS != 0 || r.offset + r.capacity > shared.words {
            return Err(format!("edge {e}: ring {r:?} off its line or its slab"));
        }
    }
    for (i, a) in shared.rings.iter().enumerate() {
        for b in &shared.rings[i + 1..] {
            let apart = a.live.1 < b.live.0 || b.live.1 < a.live.0;
            if share_a_line(a, b) && !apart {
                return Err(format!("{a:?} and {b:?} overlap while both live"));
            }
        }
    }
    // The slab is at least what is live at the busiest segment and at
    // most the rings end to end.
    let rounded = |r: &RingSpan| r.capacity.next_multiple_of(LINE_WORDS);
    let live_at = |si: usize| -> usize {
        shared
            .rings
            .iter()
            .filter(|r| r.live.0 <= si && si <= r.live.1)
            .map(rounded)
            .sum()
    };
    let peak = (0..plan.segments.len()).map(live_at).max().unwrap_or(0);
    let end_to_end: usize = shared.rings.iter().map(rounded).sum();
    if shared.peak_live_words != peak {
        return Err(format!(
            "peak {} reported, {peak} counted",
            shared.peak_live_words
        ));
    }
    if shared.words < peak || shared.words > end_to_end {
        return Err(format!(
            "slab {} outside [{peak}, {end_to_end}]",
            shared.words
        ));
    }
    if shared.rings.iter().any(|r| !r.after.is_empty()) {
        return Err("a by-schedule layout with a wait list".into());
    }

    // One round on W workers: one batch per ring, live until W − 1 turns
    // past its consumer's; a ring that shares a line with an earlier one
    // is born at least W turns after that one's consumer, and waits for
    // the last earlier ring on each of its lines.
    let last = plan.segments.len() - 1;
    for workers in [1usize, 2, 3, 5] {
        let one = BoundaryLayout::build(plan, Lifetimes::OneRound { workers })
            .map_err(|e| e.to_string())?;
        if one.rings.len() != cross.len() || one.words > shared.rings.iter().map(rounded).sum() {
            return Err(format!("{workers} workers: {} rings", one.rings.len()));
        }
        for (r, &(e, batch)) in one.rings.iter().zip(&cross) {
            let until = (consumer[e] + workers - 1).min(last);
            if r.edge.idx() != e || r.capacity as u64 != batch || r.live != (producer[e], until) {
                return Err(format!("{workers} workers, edge {e}: ring {r:?}"));
            }
            if r.offset % LINE_WORDS != 0 || r.offset + r.capacity > one.words {
                return Err(format!("edge {e}: ring {r:?} off its line or its slab"));
            }
        }
        for (i, later) in one.rings.iter().enumerate() {
            let mut after = Vec::new();
            for (j, earlier) in one.rings[..i].iter().enumerate() {
                if !share_a_line(earlier, later) {
                    continue;
                }
                let (c, p) = (consumer[earlier.edge.idx()], producer[later.edge.idx()]);
                if p < c + workers {
                    return Err(format!(
                        "{workers} workers: {later:?} born {} turns after {earlier:?}'s consumer",
                        p as isize - c as isize
                    ));
                }
                // The last earlier ring on some line of `later`: no ring
                // between the two covers that line.
                let last_on_a_line = (lines(later).0..lines(later).1).any(|line| {
                    let on = |r: &RingSpan| lines(r).0 <= line && line < lines(r).1;
                    on(earlier) && !one.rings[j + 1..i].iter().any(on)
                });
                if last_on_a_line {
                    after.push(j);
                }
            }
            if later.after != after {
                return Err(format!(
                    "{workers} workers: {later:?} should wait for {after:?}"
                ));
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn layouts_of_layered_dags(
        seed in 0u64..1000,
        layers in 2usize..9,
        width in 1usize..7,
        max_q in 1u64..4,
        bound in 64u64..400,
    ) {
        let g = gen::layered(
            &LayeredCfg {
                layers,
                max_width: width,
                density: 0.35,
                state: StateDist::Uniform(8, 64),
                max_q,
            },
            seed,
        );
        let (_, _, plan) = plan_of(&g, bound, 48);
        let verdict = check_layouts(&plan);
        prop_assert!(verdict.is_ok(), "{:?}", verdict);
    }

    #[test]
    fn layouts_of_rated_pipelines(
        seed in 0u64..1000,
        len in 2usize..24,
        max_q in 1u64..4,
        scale in 1u64..4,
        m in 3u64..70,
    ) {
        let g = gen::pipeline(
            &PipelineCfg {
                len,
                state: StateDist::Uniform(8, 64),
                max_q,
                max_rate_scale: scale,
            },
            seed,
        );
        // Batches that are no multiple of a line: rings end mid-line
        // and the next one must still start on its own.
        let (_, _, plan) = plan_of(&g, 96, m);
        let verdict = check_layouts(&plan);
        prop_assert!(verdict.is_ok(), "{:?}", verdict);
    }
}

#[test]
fn layouts_of_the_filterbank_have_rings_of_unequal_size() {
    let g = ccs_apps::filterbank(8);
    let (_, _, plan) = plan_of(&g, 512, 512);
    let shared = BoundaryLayout::build(&plan, Lifetimes::BySchedule).unwrap();
    let (least, most) = shared.rings.iter().fold((usize::MAX, 0), |(lo, hi), r| {
        (lo.min(r.capacity), hi.max(r.capacity))
    });
    assert!(
        least < most,
        "8:1 decimation gives rings of {least}..{most}"
    );
    check_layouts(&plan).unwrap();
}

#[test]
fn storage_is_reused_within_a_round() {
    // A chain of one-node segments: the ring into a segment dies as the
    // ring after the next one is born, so two slots serve any length.
    let g = gen::pipeline_uniform(12, 16);
    let ra = RateAnalysis::analyze_single_io(&g).unwrap();
    let p = Partition::from_assignment((0..12).collect());
    let plan = ExecPlan::build(&g, &ra, &p, 32).unwrap();
    let shared = BoundaryLayout::build(&plan, Lifetimes::BySchedule).unwrap();
    assert_eq!(shared.rings.len(), 11);
    assert_eq!((shared.words, shared.peak_live_words), (64, 64));
    let whole = BoundaryLayout::build(&plan, Lifetimes::WholeRun).unwrap();
    assert_eq!(whole.words, 11 * 64);
    // The executor reports the slab it allocated: the extent plus the
    // slack that aligns it.
    let stats = execute_dag_cfg(
        Instance::synthetic(g.clone()),
        &ra,
        &p,
        32,
        3,
        &RunConfig::new(1),
    )
    .unwrap();
    assert_eq!(stats.run.boundary_words, 64 + LINE_WORDS as u64 - 1);
    let stats = execute_dag_cfg(
        Instance::synthetic(g.clone()),
        &ra,
        &p,
        32,
        3,
        &RunConfig::new(2),
    )
    .unwrap();
    assert_eq!(stats.run.boundary_words, 11 * 64 + LINE_WORDS as u64 - 1);
    assert_eq!(stats.ring_words, 11 * 64);
    // One round on two workers: a ring lives one turn past its consumer,
    // so three slots serve any length, and each ring holds one batch.
    let one = BoundaryLayout::build(&plan, Lifetimes::OneRound { workers: 2 }).unwrap();
    assert_eq!((one.words, one.peak_live_words), (3 * 32, 3 * 32));
    let stats = execute_dag_cfg(
        Instance::synthetic(g.clone()),
        &ra,
        &p,
        32,
        1,
        &RunConfig::new(2),
    )
    .unwrap();
    assert_eq!(stats.run.boundary_words, 3 * 32 + LINE_WORDS as u64 - 1);
    assert_eq!(stats.ring_words, 11 * 32);
}

#[test]
fn the_checker_refuses_two_live_rings_on_the_same_storage() {
    let g = gen::pipeline_uniform(6, 16);
    let ra = RateAnalysis::analyze_single_io(&g).unwrap();
    let p = Partition::from_assignment((0..6).collect());
    let plan = ExecPlan::build(&g, &ra, &p, 32).unwrap();
    let good = BoundaryLayout::build(&plan, Lifetimes::BySchedule).unwrap();
    assert_eq!(good.check(&plan), Ok(good.peak_live_words));

    // Rings 0 (segments 0..=1) and 1 (segments 1..=2) are both live at
    // segment 1: one is its input, the other its output. Put the second
    // where the first is.
    let mut bad = good.clone();
    bad.rings[1].offset = bad.rings[0].offset;
    assert_eq!(
        bad.check(&plan),
        Err(DagExecError::RingOverlap {
            edge: bad.rings[1].edge.idx(),
            other: bad.rings[0].edge.idx(),
            segment: 1,
        })
    );
    // A partial overlap, from the side the allocator never produces.
    let mut bad = good.clone();
    bad.words += 4 * LINE_WORDS;
    bad.rings[0].offset = bad.rings[1].offset + LINE_WORDS;
    assert!(matches!(
        bad.check(&plan),
        Err(DagExecError::RingOverlap { .. })
    ));
    // Rings 0 and 2 (segments 2..=3) never meet: the same move is fine.
    let mut fine = good.clone();
    fine.rings[2].offset = fine.rings[0].offset;
    assert!(fine.check(&plan).is_ok());

    // A one-round layout on two workers: ring 3 (segments 3..=4, and one
    // more) takes ring 0's storage and waits for it.
    let one = BoundaryLayout::build(&plan, Lifetimes::OneRound { workers: 2 }).unwrap();
    assert_eq!(one.check(&plan), Ok(one.peak_live_words));
    assert_eq!((one.rings[3].offset, &one.rings[3].after), (0, &vec![0]));
    assert_eq!(one.rings[3].live, (3, 5));
    let waits: [fn(&mut BoundaryLayout); 4] = [
        |l| l.rings[3].after.clear(),
        |l| l.rings[3].after.push(1),
        |l| l.rings[1].after.push(0),
        |l| l.lifetimes = Lifetimes::BySchedule,
    ];
    for (i, damage) in waits.iter().enumerate() {
        let mut bad = one.clone();
        damage(&mut bad);
        assert!(
            matches!(bad.check(&plan), Err(DagExecError::BadRingLayout { .. })),
            "wait damage {i}: {:?}",
            bad.check(&plan)
        );
    }
    // A lifetime cut short of its lag is refused as such; moved onto
    // storage a ring it would then overlap still holds, as an overlap.
    let mut bad = one.clone();
    bad.rings[3].live.1 = 4;
    assert!(matches!(
        bad.check(&plan),
        Err(DagExecError::BadRingLayout { .. })
    ));
    let mut bad = one.clone();
    bad.rings[2].offset = bad.rings[0].offset;
    assert!(matches!(
        bad.check(&plan),
        Err(DagExecError::RingOverlap { .. })
    ));

    // Everything else a layout can get wrong is the other typed error.
    let broken: [fn(&mut BoundaryLayout); 7] = [
        |l| l.rings[3].offset += 1,
        |l| l.rings[3].capacity -= 1,
        |l| l.rings[3].live.1 -= 1,
        |l| l.rings[3].live.0 += 1,
        |l| l.words -= 1,
        |l| l.rings[3].edge = l.rings[2].edge,
        |l| l.rings.truncate(3),
    ];
    for (i, damage) in broken.iter().enumerate() {
        let mut bad = good.clone();
        damage(&mut bad);
        assert!(
            matches!(bad.check(&plan), Err(DagExecError::BadRingLayout { .. })),
            "damage {i}: {:?}",
            bad.check(&plan)
        );
    }
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

#[test]
fn the_round_count_and_worker_count_alone_choose_the_layout() {
    // Placement, pinning, counters and tracing leave the slab alone. A
    // lone worker shares storage by schedule at any round count, so its
    // slab is the same at one round and at four; more workers lay rings
    // out by release in one round and end to end over more.
    let g = gen::layered(
        &LayeredCfg {
            layers: 12,
            max_width: 8,
            density: 0.3,
            state: StateDist::Uniform(32, 128),
            max_q: 1,
        },
        0,
    );
    let (ra, p, plan) = plan_of(&g, 512, 64);
    let whole = BoundaryLayout::build(&plan, Lifetimes::WholeRun).unwrap();
    let by_schedule = BoundaryLayout::build(&plan, Lifetimes::BySchedule).unwrap();
    for workers in [1usize, 2, 3] {
        let one = BoundaryLayout::build(&plan, Lifetimes::OneRound { workers }).unwrap();
        // The layouts differ, so the slab tells which one ran.
        assert!(by_schedule.words < whole.words);
        assert!(one.words < whole.words, "x{workers}");
        let configs = [
            RunConfig::new(workers),
            RunConfig::new(workers)
                .with_placement(ccs_exec::Placement::Measured)
                .with_pinning(true),
            RunConfig::new(workers)
                .with_placement(ccs_exec::Placement::Measured)
                .with_counters(true)
                .with_warmup(1)
                .with_trace(true)
                .with_windows(2),
        ];
        for rounds in [1u64, 2, 3, 4] {
            let layout = match (workers, rounds) {
                (1, _) => &by_schedule,
                (_, 1) => &one,
                _ => &whole,
            };
            let mut digests = Vec::new();
            for (i, cfg) in configs.iter().enumerate() {
                let stats =
                    execute_dag_cfg(Instance::synthetic(g.clone()), &ra, &p, 64, rounds, cfg)
                        .unwrap();
                // The slab is the layout's extent plus room to align it.
                assert_eq!(
                    stats.run.boundary_words,
                    (layout.words + LINE_WORDS - 1) as u64,
                    "x{workers}, {rounds} rounds, config {i}"
                );
                digests.push(stats.run.digest);
            }
            assert!(digests.windows(2).all(|d| d[0] == d[1]), "x{workers}");
        }
    }
}

#[test]
fn shared_windows_compute_what_every_other_executor_computes() {
    type Bind = fn(StreamGraph) -> Instance;
    let (thin, thin_m) = thin_dag();
    // The benchmark's `wide-dag` shape at a small cache: 32 layers of
    // up to 36 nodes, hundreds of rings live at once and each slot of
    // the slab reused several times a round.
    let wide = gen::layered(
        &LayeredCfg {
            layers: 32,
            max_width: 36,
            density: 0.3,
            state: StateDist::Uniform(32, 128),
            max_q: 1,
        },
        0,
    );
    let cases: [(&str, StreamGraph, Bind, u64, u64); 3] = [
        ("thin-dag", thin, Instance::synthetic, thin_m, thin_m),
        (
            "filterbank(8) fir",
            ccs_apps::filterbank(8),
            ccs_apps::fir_instance,
            512,
            512,
        ),
        ("layered 32x36", wide, Instance::synthetic, 1024, 64),
    ];
    for (name, g, bind, bound, m) in cases {
        let (ra, p, plan) = plan_of(&g, bound, m);
        let shared = BoundaryLayout::build(&plan, Lifetimes::BySchedule).unwrap();
        let whole = BoundaryLayout::build(&plan, Lifetimes::WholeRun).unwrap();
        // `thin-dag` has all its rings live at once; the wide one
        // reuses each slot several times a round.
        assert!(2 * shared.words <= whole.words, "{name}");
        assert_eq!(
            4 * shared.words < whole.words,
            name == "layered 32x36",
            "{name}: {} of {}",
            shared.words,
            whole.words
        );
        for rounds in [1u64, 2, 5] {
            let run = partitioned::inhomogeneous(&g, &ra, &p, m, rounds).unwrap();
            let want = ccs_runtime::serial::execute(&mut bind(g.clone()), &run);
            assert!(want.digest.is_some());
            for workers in [1usize, 2, 4] {
                let cfg = RunConfig::new(workers);
                let stats = execute_dag_cfg(bind(g.clone()), &ra, &p, m, rounds, &cfg).unwrap();
                assert_eq!(
                    stats.run.digest, want.digest,
                    "{name}: x{workers}, {rounds} rounds"
                );
                assert_eq!(
                    (stats.run.firings, stats.run.sink_items),
                    (want.firings, want.sink_items),
                    "{name}: x{workers}, {rounds} rounds"
                );
            }
        }
    }
}
