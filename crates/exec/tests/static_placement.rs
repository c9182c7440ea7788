//! Static placement: each worker owns the segments the placement gave
//! it — round-robin's for the whole run, or round-robin's in round 0
//! and the measured placement's after it — and leaves its loop when
//! those are done. These tests pin that contract down at the run's
//! surface — rosters, trace spans, per-segment tallies and per-worker
//! firing counts all follow the placement, idle workers leave, and the
//! sink digest equals the reference interpreter's whatever the worker
//! count, placement, warmup boundary or window stream. The seeded
//! `phase-shift` app, whose hot kernels step up their work mid-run, is
//! held to the same bar: a mid-run cost change moves nothing. A
//! planted-cost segment, whose kernel does far more work than its state
//! predicts, is given a worker of its own by the measured placement.

use ccs_exec::{assign_on, execute_dag_cfg, ExecPlan, Placement, RunConfig};
use ccs_graph::{RateAnalysis, StreamGraph};
use ccs_obs::EventKind;
use ccs_partition::Partition;
use ccs_runtime::kernel::{state_sweep, Kernel};
use ccs_runtime::Instance;
use ccs_sched::partitioned;

/// One segment per node.
fn singleton_partition(g: &StreamGraph) -> Partition {
    Partition::from_assignment((0..g.node_count() as u32).collect())
}

/// Serial reference digest over `rounds` granularity-T rounds of the
/// *same bound instance* the threaded runs use — the binding must
/// match, or the comparison proves nothing.
fn serial_digest(
    g: &StreamGraph,
    ra: &RateAnalysis,
    p: &Partition,
    m: u64,
    rounds: u64,
    mut inst: Instance,
) -> Option<u64> {
    let run = partitioned::inhomogeneous(g, ra, p, m, rounds).expect("serial reference schedule");
    ccs_runtime::serial::execute(&mut inst, &run).digest
}

/// An eight-stage uniform pipeline, one node per segment.
fn pipeline8() -> (StreamGraph, RateAnalysis, Partition) {
    let mut b = ccs_graph::GraphBuilder::new();
    let v: Vec<_> = (0..8).map(|i| b.node(format!("s{i}"), 16)).collect();
    for i in 0..7 {
        b.edge(v[i], v[i + 1], 1, 1);
    }
    let g = b.build().unwrap();
    let ra = RateAnalysis::analyze_single_io(&g).unwrap();
    let p = Partition::from_assignment((0..8).collect());
    (g, ra, p)
}

/// The phase-shift kernels step their work 32x a third of the way into
/// the run. Counters stay off, so the windows are timing-only — the
/// same degraded stream a `CCS_NO_PERF=1` run sees. At every worker
/// count the digest equals the interpreter's over the same binding.
#[test]
fn phase_shift_matches_serial_at_every_worker_count() {
    let g = ccs_apps::phase_shift();
    let ra = RateAnalysis::analyze_single_io(&g).unwrap();
    let p = singleton_partition(&g);
    let m = 8;
    let rounds = 48;
    let t = partitioned::granularity_t(&g, &ra, m).unwrap();
    let step_at = t * 16;
    let mult = 32;
    let want = serial_digest(
        &g,
        &ra,
        &p,
        m,
        rounds,
        ccs_apps::phase_shift_instance(g.clone(), step_at, mult),
    );
    assert!(want.is_some(), "no serial digest for phase-shift");
    for workers in [1usize, 2, 4] {
        let cfg = RunConfig::new(workers).with_windows(2).with_warmup(4);
        let inst = ccs_apps::phase_shift_instance(g.clone(), step_at, mult);
        let stats = execute_dag_cfg(inst, &ra, &p, m, rounds, &cfg)
            .unwrap_or_else(|e| panic!("x{workers}: {e}"));
        assert_eq!(stats.run.digest, want, "digest diverged: x{workers}");
        let batches: u64 = stats.workers.iter().map(|w| w.batches).sum();
        assert_eq!(batches, rounds * g.node_count() as u64, "x{workers}");
    }
}

/// A drift-free app with the window stream and a warmup window on:
/// neither moves the digest at any worker count.
#[test]
fn steady_app_with_windows_and_warmup_matches_serial() {
    let g = ccs_apps::fm_radio(8);
    let ra = RateAnalysis::analyze_single_io(&g).unwrap();
    let p = ccs_partition::dag_greedy::greedy_best(&g, &ra, 512.max(g.max_state()));
    let want = serial_digest(&g, &ra, &p, 512, 6, Instance::synthetic(g.clone()));
    assert!(want.is_some(), "no serial digest for fm-radio");
    for workers in [1usize, 2, 4] {
        let cfg = RunConfig::new(workers).with_windows(2).with_warmup(2);
        let inst = Instance::synthetic(g.clone());
        let stats = execute_dag_cfg(inst, &ra, &p, 512, 6, &cfg).unwrap();
        assert_eq!(stats.run.digest, want, "workers {workers}");
    }
}

/// Under every placement, in one round and in several, worker `w`'s
/// roster is exactly the segments the run's placement (`owner`) gave
/// it, and each segment's batches run where the placement says: all on
/// `assign_on`'s round-robin worker, or — under the measured placement
/// over several rounds — the first there and the rest on its owner.
/// Every traced batch span lies on that worker's timeline, and each
/// worker fires exactly the quota of the batches it ran.
#[test]
fn every_segment_runs_on_the_worker_assign_on_gave_it() {
    let (g, ra, p) = pipeline8();
    let m = 8;
    let plan = ExecPlan::build(&g, &ra, &p, m).unwrap();
    let topo = ccs_topo::Topology::discover();
    for rounds in [1, 6] {
        let want = serial_digest(&g, &ra, &p, m, rounds, Instance::synthetic(g.clone()));
        for workers in [2usize, 3, 4] {
            for placement in [Placement::RoundRobin, Placement::Measured] {
                let deal = assign_on(&g, &ra, &plan, workers, placement, &topo, false);
                let cfg = RunConfig::new(workers)
                    .with_placement(placement)
                    .with_trace(true);
                let stats =
                    execute_dag_cfg(Instance::synthetic(g.clone()), &ra, &p, m, rounds, &cfg)
                        .unwrap();
                let at = format!("{} x{workers}, {rounds} rounds", placement.name());
                assert_eq!(stats.run.digest, want, "{at}");
                assert_eq!(stats.workers.len(), workers, "{at}");
                let owner = &stats.owner;
                let measured = placement.measures(workers, rounds, plan.segments.len());
                if !measured {
                    assert_eq!(owner, &deal, "{at}");
                }
                // Batches segment `s` runs on worker `w`.
                let ran = |s: usize, w: usize| -> u64 {
                    if measured {
                        u64::from(deal[s] == w) + (rounds - 1) * u64::from(owner[s] == w)
                    } else {
                        rounds * u64::from(owner[s] == w)
                    }
                };
                for w in &stats.workers {
                    let mut roster = w.segments.clone();
                    roster.sort_unstable();
                    let mine: Vec<usize> =
                        (0..owner.len()).filter(|&s| owner[s] == w.worker).collect();
                    assert_eq!(roster, mine, "{at}: worker {} roster", w.worker);
                    let batches: Vec<u64> = (0..owner.len()).map(|s| ran(s, w.worker)).collect();
                    assert_eq!(w.batches, batches.iter().sum::<u64>(), "{at}");
                    let quota: u64 = (0..owner.len())
                        .flat_map(|s| plan.segments[s].nodes.iter().map(move |v| (s, v)))
                        .map(|(s, v)| batches[s] * plan.quota[v.idx()])
                        .sum();
                    assert_eq!(w.firings, quota, "{at}: worker {}", w.worker);
                    let timeline = w.trace.as_ref().expect("trace on");
                    assert_eq!(timeline.dropped, 0, "{at}");
                    let mut spans = vec![0u64; owner.len()];
                    for e in &timeline.events {
                        if let EventKind::Batch { seg } = e.kind {
                            spans[seg] += 1;
                        }
                    }
                    assert_eq!(spans, batches, "{at}: worker {} spans", w.worker);
                }
            }
        }
    }
}

/// The warmup boundary at every batch index, the last (which the run
/// clamps to `rounds - 1`) included: the digest and every segment's
/// batch count are unchanged.
#[test]
fn warmup_at_every_boundary_keeps_the_digest() {
    let (g, ra, p) = pipeline8();
    let rounds = 8;
    let want = serial_digest(&g, &ra, &p, 8, rounds, Instance::synthetic(g.clone()));
    assert!(want.is_some());
    for warmup in 0..=rounds {
        let cfg = RunConfig::new(2).with_warmup(warmup).with_windows(1);
        let stats =
            execute_dag_cfg(Instance::synthetic(g.clone()), &ra, &p, 8, rounds, &cfg).unwrap();
        assert_eq!(stats.run.digest, want, "warmup {warmup}");
        assert_eq!(stats.warmup, warmup.min(rounds - 1), "warmup {warmup}");
        let batches: u64 = stats.workers.iter().map(|w| w.batches).sum();
        assert_eq!(batches, rounds * g.node_count() as u64, "warmup {warmup}");
    }
}

/// Per-segment attribution lives with the segment's one owner: each
/// segment has exactly one record, on the worker the placement gave it
/// — under the measured default, the one it moved to after round 0,
/// its tally moving with it — and that record counts all `rounds`
/// batches. (Counters themselves may be unavailable; the batch tallies
/// are counted unconditionally.)
#[test]
fn segment_counters_stay_with_the_owner() {
    let (g, ra, p) = pipeline8();
    let rounds = 6;
    let cfg = RunConfig::new(2).with_counters(true);
    let stats = execute_dag_cfg(Instance::synthetic(g.clone()), &ra, &p, 8, rounds, &cfg).unwrap();
    let owner = &stats.owner;
    let mut records = vec![0usize; g.node_count()];
    for w in &stats.workers {
        for sc in &w.segment_counters {
            records[sc.seg] += 1;
            assert_eq!(owner[sc.seg], w.worker, "seg {} off its owner", sc.seg);
            assert_eq!(sc.batches, rounds, "seg {}", sc.seg);
        }
    }
    assert_eq!(records, vec![1; g.node_count()], "{records:?}");
}

/// More workers than segments: the workers that own nothing leave at
/// once, and the run still completes with the interpreter's digest.
#[test]
fn workers_that_own_nothing_leave_at_once() {
    let g = ccs_graph::gen::pipeline_uniform(3, 16);
    let ra = RateAnalysis::analyze_single_io(&g).unwrap();
    let p = singleton_partition(&g);
    let rounds = 5;
    let want = serial_digest(&g, &ra, &p, 16, rounds, Instance::synthetic(g.clone()));
    for workers in [4usize, 6] {
        let cfg = RunConfig::new(workers).with_warmup(1).with_windows(1);
        let stats =
            execute_dag_cfg(Instance::synthetic(g.clone()), &ra, &p, 16, rounds, &cfg).unwrap();
        assert_eq!(stats.run.digest, want, "x{workers}");
        assert_eq!(stats.workers.len(), workers);
        for w in &stats.workers[3..] {
            assert!(
                w.segments.is_empty(),
                "worker {}: {:?}",
                w.worker,
                w.segments
            );
            assert_eq!((w.batches, w.firings), (0, 0), "worker {}", w.worker);
        }
    }
}

/// A worker leaves its loop when its own segments are done: no stall
/// blamed on a ring is ever recorded after its last batch, even when it
/// finishes long before the workers downstream of it. (The one unblamed
/// stall, the wait at the measured placement's round-0 join, follows
/// the last batch of a worker the placement then gives nothing.)
#[test]
fn a_worker_stalls_no_more_after_its_last_batch() {
    let g = ccs_graph::gen::pipeline_uniform(8, 16);
    let ra = RateAnalysis::analyze_single_io(&g).unwrap();
    let p = singleton_partition(&g);
    let rounds = 12;
    let want = serial_digest(&g, &ra, &p, 16, rounds, Instance::synthetic(g.clone()));
    for placement in [Placement::RoundRobin, Placement::Measured] {
        let cfg = RunConfig::new(3)
            .with_placement(placement)
            .with_windows(2)
            .with_trace(true);
        let stats =
            execute_dag_cfg(Instance::synthetic(g.clone()), &ra, &p, 16, rounds, &cfg).unwrap();
        assert_eq!(stats.run.digest, want, "{}", placement.name());
        for w in &stats.workers {
            let events = &w.trace.as_ref().expect("trace on").events;
            let last_end = events
                .iter()
                .filter(|e| matches!(e.kind, EventKind::Batch { .. }))
                .map(|e| e.ts_ns + e.dur_ns)
                .max();
            let Some(last_end) = last_end else {
                continue;
            };
            let late: Vec<_> = events
                .iter()
                .filter(|e| {
                    matches!(
                        e.kind,
                        EventKind::Stall {
                            blocked: Some(_),
                            ..
                        }
                    ) && e.ts_ns >= last_end
                })
                .collect();
            assert!(
                late.is_empty(),
                "{} worker {}: stalls after its last batch: {late:?}",
                placement.name(),
                w.worker
            );
        }
    }
}

/// A kernel that does `extra + 1` times the work its state predicts:
/// before each firing of the kernel it wraps, `extra` more sweeps of a
/// state of the same size, which `black_box` keeps the compiler from
/// dropping. Its output, digest and state are the wrapped kernel's, so
/// only the cost changes (`ccs_apps::phase_shift_instance` plants a
/// cost step the same way).
struct Planted {
    inner: Box<dyn Kernel>,
    state: Box<[f32]>,
    extra: usize,
}

impl Kernel for Planted {
    fn state_words(&self) -> usize {
        self.inner.state_words()
    }

    fn fire(&mut self, inputs: &[&[f32]], outputs: &mut [&mut [f32]]) {
        self.fire_n(1, inputs, outputs);
    }

    fn fire_n(&mut self, count: usize, inputs: &[&[f32]], outputs: &mut [&mut [f32]]) {
        for _ in 0..count * self.extra {
            std::hint::black_box(state_sweep(std::hint::black_box(&self.state)));
        }
        self.inner.fire_n(count, inputs, outputs);
    }

    fn digest(&self) -> Option<u64> {
        self.inner.digest()
    }
}

/// The synthetic binding of `g` with node `planted`'s kernel doing
/// `extra + 1` times its work.
fn planted_instance(g: &StreamGraph, planted: usize, extra: usize) -> Instance {
    let mut inst = Instance::synthetic(g.clone());
    let words = g.state(ccs_graph::NodeId(planted as u32)) as usize;
    let inner = std::mem::replace(
        &mut inst.kernels[planted],
        Box::new(ccs_runtime::kernel::SyntheticKernel::new(1, false)),
    );
    inst.kernels[planted] = Box::new(Planted {
        inner,
        state: vec![1.0; words].into_boxed_slice(),
        extra,
    });
    inst
}

/// One segment of an eight-stage pipeline does 10 000 times the work its
/// state predicts — tens of milliseconds a batch, against tens of
/// microseconds for the other seven together, so that no preemption of
/// a test thread turns the placement. Its modelled cost is its
/// neighbours', so a placement
/// balanced on `SegmentPlan::cost` puts other segments beside it; the
/// measured placement sees the work in round 0 and gives it a worker of
/// its own, at two workers and at three, with the digest of the
/// reference interpreter over the same binding.
#[test]
fn a_planted_cost_segment_gets_a_worker_of_its_own() {
    let (g, ra, p) = pipeline8();
    let (m, rounds, planted) = (8, 3, 3);
    let plan = ExecPlan::build(&g, &ra, &p, m).unwrap();
    let costs: Vec<u64> = plan.segments.iter().map(|s| s.cost).collect();
    assert_eq!(
        costs[planted],
        costs[planted - 1],
        "the model cannot see it"
    );
    let links = ccs_exec::segment_links(&g, &ra, &plan);
    let modelled = ccs_exec::balance(&costs, &links, 2).owner;
    assert!(
        (0..8).any(|s| s != planted && modelled[s] == modelled[planted]),
        "{modelled:?}"
    );
    let want = serial_digest(&g, &ra, &p, m, rounds, planted_instance(&g, planted, 9_999));
    for workers in [2usize, 3] {
        let inst = planted_instance(&g, planted, 9_999);
        let stats = execute_dag_cfg(inst, &ra, &p, m, rounds, &RunConfig::new(workers)).unwrap();
        assert_eq!(stats.run.digest, want, "x{workers}");
        let owner = &stats.owner;
        let beside: Vec<usize> = (0..8)
            .filter(|&s| s != planted && owner[s] == owner[planted])
            .collect();
        assert!(
            beside.is_empty(),
            "x{workers}: {owner:?}, profiled {:?}",
            stats.profiled
        );
        assert!(stats.profiled_imbalance() > 1.0);
    }
}
