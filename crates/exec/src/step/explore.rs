//! The step's second driver: W virtual workers on one thread.
//!
//! Each turn one worker that can take a step takes one — fires its batch's
//! next granule, finishes the batch after the last one, or starts the
//! batch its scan finds next, exactly as a worker thread would — and a
//! seeded [`SmallRng`] picks which. The same generator places the
//! segments and draws every batch's granule count from
//! `1..=min(reps, GRANULES)`. So any granule-level interleaving of the
//! threaded executor replays from its seed, and "no worker can step and
//! work remains" is a [`Deadlock`] that names what every worker waits
//! for, instead of a hang. Small cases are searched exhaustively over
//! their reachable states.
//!
//! A case may run over any boundary layout, the storage of one-round
//! runs shared by lifetime among them, and a layout with a bug planted in
//! it must come out as a wrong digest.
//!
//! A failure prints its seed. To replay it, add the seed to [`REPLAY`].

use super::{deal, seg_tasks, sink_digest, SegTask, WorkerStep};
use crate::plan::{BoundaryLayout, CrossRings, ExecPlan, Lifetimes, GRANULES};
use ccs_graph::gen::{self, LayeredCfg, PipelineCfg, StateDist};
use ccs_graph::{GraphBuilder, RateAnalysis, StreamGraph};
use ccs_obs::Blocked;
use ccs_partition::{dag_greedy, Partition};
use ccs_runtime::Instance;
use ccs_sched::partitioned;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashSet, VecDeque};
use std::fmt;

/// Seeds replayed first, on every case of the grid at every worker count:
/// add the seed a failure printed here.
const REPLAY: &[u64] = &[];

/// Seeded paths per case of the grid and worker count: 9 cases × 3
/// worker counts × this is ≥ 10 k paths in release builds. Debug builds
/// take 56 a case but only 8 of `filterbank(8)`, whose FIR kernels cost
/// 170 ms a path there: 1 368 paths.
const PATHS: u64 = if cfg!(debug_assertions) { 56 } else { 448 };

/// Most granules a batch is cut into in the exhaustive search.
const MOST: u64 = 4;

/// The boundary layout of a run of a case's plan on so many workers.
type Layout = fn(&ExecPlan, usize) -> BoundaryLayout;

/// The threaded executor's layout for runs of two rounds or more.
fn disjoint(plan: &ExecPlan, _: usize) -> BoundaryLayout {
    BoundaryLayout::build(plan, Lifetimes::WholeRun).unwrap()
}

/// The threaded executor's layout for one round on `workers` workers.
fn one_round(plan: &ExecPlan, workers: usize) -> BoundaryLayout {
    BoundaryLayout::build(plan, Lifetimes::OneRound { workers }).unwrap()
}

/// The one-round layout with the least storage, whatever the worker
/// count: a ring's storage is free as soon as its consumer's turn is
/// over. The gate, not the lag, is what makes sharing sound, so this is
/// the layout that tries the gate hardest.
fn tightest(plan: &ExecPlan, _: usize) -> BoundaryLayout {
    one_round(plan, 1)
}

/// A graph, its plan, and the reference interpreter's sink digest for
/// `rounds` rounds of it.
struct Case {
    name: String,
    g: StreamGraph,
    p: Partition,
    m: u64,
    plan: ExecPlan,
    rounds: u64,
    /// Bind FIR kernels (`ccs_apps::fir_instance`), not synthetic ones.
    fir: bool,
    want: Option<u64>,
    /// Seeded paths per worker count.
    paths: u64,
    layout: Layout,
}

impl Case {
    fn new(name: &str, g: StreamGraph, p: &Partition, m: u64, rounds: u64, fir: bool) -> Case {
        let ra = RateAnalysis::analyze_single_io(&g).unwrap();
        let plan = ExecPlan::build(&g, &ra, p, m).unwrap();
        let run = partitioned::inhomogeneous(&g, &ra, p, m, rounds).unwrap();
        let mut inst = instance(&g, fir);
        let want = ccs_runtime::serial::execute(&mut inst, &run).digest;
        Case {
            name: name.to_string(),
            g,
            p: p.clone(),
            m,
            plan,
            rounds,
            fir,
            want,
            paths: PATHS,
            layout: disjoint,
        }
    }

    /// The same case with every cross ring one batch long instead of two.
    fn one_batch_rings(&self) -> Case {
        let mut plan = self.plan.clone();
        for seg in &plan.segments {
            for &(e, n) in &seg.out_batch {
                plan.capacities[e.idx()] = n;
            }
        }
        Case {
            name: format!("{} with one-batch rings", self.name),
            g: self.g.clone(),
            p: self.p.clone(),
            plan,
            ..*self
        }
    }

    /// One round of the same graph over `layout`, a layout of shared
    /// storage, with the reference digest of one round.
    fn shared(&self, layout: Layout) -> Case {
        let mut case = Case::new(
            &format!("{} in one round, shared", self.name),
            self.g.clone(),
            &self.p,
            self.m,
            1,
            self.fir,
        );
        case.paths = self.paths;
        case.layout = layout;
        case
    }

    /// The rings of a run on `workers` workers.
    fn rings(&self, workers: usize) -> CrossRings {
        CrossRings::over(&(self.layout)(&self.plan, workers), false)
    }

    fn tasks(
        &self,
        rings: &CrossRings,
        granules: impl FnMut(&crate::plan::SegmentPlan) -> u64,
    ) -> Vec<SegTask> {
        seg_tasks(
            &self.plan,
            rings,
            instance(&self.g, self.fir).kernels,
            granules,
        )
    }
}

fn instance(g: &StreamGraph, fir: bool) -> Instance {
    if fir {
        ccs_apps::fir_instance(g.clone())
    } else {
        Instance::synthetic(g.clone())
    }
}

/// A pipeline whose two filter stages FIR kernels bind with awkward
/// shapes (27 taps consuming 5, 34 taps consuming 1); the graph of the
/// same name in the integration tests.
fn awkward_fir_pipe() -> StreamGraph {
    let mut b = GraphBuilder::new();
    let src = b.node("src", 8);
    let coarse = b.node("lpf-27-by-5", 2 * 27);
    let fine = b.node("smooth-34", 2 * 34);
    let sink = b.node("sink", 8);
    b.edge(src, coarse, 1, 5);
    b.edge(coarse, fine, 1, 1);
    b.edge(fine, sink, 1, 1);
    b.build().unwrap()
}

/// The shape grid of `tests/granules.rs`: rated pipelines, layered dags,
/// `filterbank(8)` and the awkward FIR pipe, the last two FIR-bound.
fn grid() -> Vec<Case> {
    let mut out = Vec::new();
    for seed in 0..3u64 {
        let cfg = PipelineCfg {
            len: 10,
            state: StateDist::Uniform(8, 48),
            max_q: 3,
            max_rate_scale: 2,
        };
        let g = gen::pipeline(&cfg, seed);
        let ra = RateAnalysis::analyze_single_io(&g).unwrap();
        let p = ccs_partition::pipeline::greedy_theorem5(&g, &ra, 48)
            .unwrap()
            .partition;
        out.push(Case::new(
            &format!("rated pipeline {seed}"),
            g,
            &p,
            48,
            2,
            false,
        ));
    }
    for seed in 0..3u64 {
        let cfg = LayeredCfg {
            layers: 4,
            max_width: 3,
            density: 0.3,
            state: StateDist::Uniform(8, 48),
            max_q: 3,
        };
        let g = gen::layered(&cfg, seed);
        let p = dag_greedy::greedy_topo(&g, 96);
        out.push(Case::new(
            &format!("layered dag {seed}"),
            g,
            &p,
            48,
            3,
            false,
        ));
    }
    for (name, g, m, rounds, debug_paths) in [
        ("filterbank(8) fir", ccs_apps::filterbank(8), 512, 2, 8),
        ("awkward fir pipe", awkward_fir_pipe(), 64, 3, PATHS),
    ] {
        let ra = RateAnalysis::analyze_single_io(&g).unwrap();
        let p = dag_greedy::greedy_best(&g, &ra, m.max(g.max_state()));
        let mut case = Case::new(name, g, &p, m, rounds, true);
        if cfg!(debug_assertions) {
            case.paths = debug_paths;
        }
        out.push(case);
    }
    out.push(detour());
    out
}

/// Shapes with more segments than the grid's, in one round over the
/// threaded executor's layout, so that rings are born `workers` segments
/// past other rings' consumers at every worker count the grid runs: a
/// rated pipeline of 24 stages and a layered dag of 8 layers.
fn long() -> Vec<Case> {
    let g = gen::pipeline(
        &PipelineCfg {
            len: 24,
            state: StateDist::Uniform(8, 48),
            max_q: 3,
            max_rate_scale: 2,
        },
        0,
    );
    let p = Partition::from_assignment((0..24).map(|v| v / 2).collect());
    let pipe = Case::new("24-stage rated pipeline", g, &p, 48, 1, false);
    let g = gen::layered(
        &LayeredCfg {
            layers: 8,
            max_width: 4,
            density: 0.3,
            state: StateDist::Uniform(8, 48),
            max_q: 2,
        },
        0,
    );
    let p = dag_greedy::greedy_topo(&g, 96);
    let dag = Case::new("8-layer dag", g, &p, 48, 1, false);
    let mut out = vec![pipe, dag];
    for case in &mut out {
        case.paths /= 2;
        case.layout = one_round;
    }
    out
}

/// A source feeding the sink over one segment and over two, a segment
/// each, for eight rounds: the one shape here where a producer can be
/// kept from starting by a consumer two batches behind while another of
/// its consumers, on the producer's worker, is free to start the batch
/// the producer owes it — what a start gate that admitted batches whose
/// first granule is not in would deadlock on.
fn detour() -> Case {
    let mut b = GraphBuilder::new();
    let v: Vec<_> = ["src", "short", "long-1", "long-2", "sink"]
        .iter()
        .map(|name| b.node(*name, 8))
        .collect();
    for (x, y) in [(0, 1), (0, 2), (2, 3), (3, 4), (1, 4)] {
        b.edge(v[x], v[y], 1, 1);
    }
    let p = Partition::from_assignment(vec![0, 1, 2, 3, 4]);
    Case::new("detour", b.build().unwrap(), &p, 17, 8, false)
}

/// Cases of at most three segments whose batches are cut into at most
/// [`MOST`] granules, for the exhaustive search: two- and three-segment
/// chains, a fork and join, and a chain whose producer and consumers cut
/// their batches at different items.
fn small() -> Vec<Case> {
    let chain = |n: usize| {
        let g = gen::pipeline_uniform(2 * n, 8);
        let p = Partition::from_assignment((0..2 * n as u32).map(|v| v / 2).collect());
        Case::new(&format!("{n}-segment chain"), g, &p, 17, 2, false)
    };
    let fork_join = {
        let mut b = GraphBuilder::new();
        let v: Vec<_> = ["src", "a", "b", "join"]
            .iter()
            .map(|name| b.node(*name, 8))
            .collect();
        for (x, y) in [(0, 1), (0, 2), (1, 3), (2, 3)] {
            b.edge(v[x], v[y], 1, 1);
        }
        let p = Partition::from_assignment(vec![0, 0, 1, 2]);
        Case::new("fork and join", b.build().unwrap(), &p, 17, 2, false)
    };
    let decimating = {
        let mut b = GraphBuilder::new();
        let v: Vec<_> = ["src", "by-5", "y", "sink"]
            .iter()
            .map(|name| b.node(*name, 8))
            .collect();
        b.edge(v[0], v[1], 1, 5);
        b.edge(v[1], v[2], 1, 1);
        b.edge(v[2], v[3], 1, 1);
        let p = Partition::from_assignment(vec![0, 1, 2, 2]);
        Case::new("decimating chain", b.build().unwrap(), &p, 18, 2, false)
    };
    vec![chain(2), decimating, chain(3), fork_join]
}

/// Cases of four segments and one round whose layout shares storage,
/// for the exhaustive search: at three segments or fewer no ring is
/// ever born after another's consumer has run, so nothing could share.
/// A four-segment chain, a decimating chain (a smaller ring on part of a
/// larger one's lines), a fork whose branches are segments of their own
/// (the second branch writes where the first one reads, and nothing but
/// the storage wait orders the two), and a fork whose join doubles its
/// rate (a ring on the lines of two). All over the [`tightest`] layout.
fn small_shared() -> Vec<Case> {
    let build = |name: &str, edges: &[(usize, usize, u64, u64)], parts: Vec<u32>, m: u64| {
        let mut b = GraphBuilder::new();
        let n = 1 + edges.iter().map(|e| e.0.max(e.1)).max().unwrap();
        let v: Vec<_> = (0..n).map(|i| b.node(format!("v{i}"), 8)).collect();
        for &(x, y, produce, consume) in edges {
            b.edge(v[x], v[y], produce, consume);
        }
        let g = b.build().unwrap();
        let mut case = Case::new(name, g, &Partition::from_assignment(parts), m, 1, false);
        case.layout = tightest;
        case
    };
    let chain: Vec<_> = (0..7).map(|i| (i, i + 1, 1, 1)).collect();
    vec![
        build("4-segment chain", &chain, vec![0, 0, 1, 1, 2, 2, 3, 3], 17),
        build(
            "decimating 4-segment chain",
            &[(0, 1, 1, 5), (1, 2, 1, 1), (2, 3, 1, 1), (3, 4, 1, 1)],
            vec![0, 1, 2, 3, 3],
            18,
        ),
        build(
            "fork and join",
            &[(0, 1, 1, 1), (0, 2, 1, 1), (1, 3, 1, 1), (2, 3, 1, 1)],
            vec![0, 1, 2, 3],
            17,
        ),
        build(
            "fork and doubling join",
            &[
                (0, 1, 1, 1),
                (0, 2, 1, 1),
                (1, 3, 1, 1),
                (2, 3, 1, 1),
                (3, 4, 2, 2),
            ],
            vec![0, 1, 1, 2, 3],
            17,
        ),
    ]
}

/// No worker can take a step and work remains: what each worker's step
/// returned — the blocking chain — or `None` for a worker with nothing
/// left to do.
#[derive(Debug)]
struct Deadlock(Vec<Option<Blocked>>);

impl fmt::Display for Deadlock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "deadlock:")?;
        for (w, b) in self.0.iter().enumerate() {
            match b {
                Some(b) => write!(
                    f,
                    " worker {w}: segment {} on edge {} ({}, segment {});",
                    b.seg,
                    b.edge,
                    b.reason.name(),
                    b.peer
                )?,
                None => write!(f, " worker {w}: done;")?,
            }
        }
        Ok(())
    }
}

/// How a search of reachable states fails.
#[derive(Debug)]
enum Failure {
    Deadlock(Deadlock),
    /// Every worker is done and the sink's digest is not the reference's.
    Digest {
        got: Option<u64>,
        want: Option<u64>,
    },
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Failure::Deadlock(d) => d.fmt(f),
            Failure::Digest { got, want } => write!(f, "digest {got:?}, not {want:?}"),
        }
    }
}

/// What a worker did with the step it was offered.
enum Turn {
    Moved,
    Blocked(Blocked),
    Done,
}

/// One virtual worker: its step, and where its scan pass goes on.
struct Worker<'a> {
    step: WorkerStep<'a>,
    /// The thread driver's `at`: the task position the pass under way
    /// resumes from.
    at: usize,
    /// Its last step found the batch's next granule not in yet.
    stuck: bool,
}

impl<'a> Worker<'a> {
    fn new(step: WorkerStep<'a>) -> Worker<'a> {
        Worker {
            step,
            at: 0,
            stuck: false,
        }
    }

    /// Offer the worker one step, as the thread driver would take it:
    /// fire the next granule of the batch under way, and finish the
    /// batch after its last, publishing the next in `next(reps)`
    /// granules; or go on with the scan pass — start the next task whose
    /// gate is open, or end a pass that found none. A turn that does not
    /// move changes nothing but `stuck`. Counts in `resumed` the granules
    /// fired after a turn found them blocked.
    fn turn(&mut self, rounds: u64, next: impl FnOnce(u64) -> u64, resumed: &mut u64) -> Turn {
        let step = &mut self.step;
        let Some(b) = &step.batch else {
            return match step.poll(self.at, rounds) {
                Ok(Some(i)) => {
                    self.at = i + 1;
                    step.begin(i);
                    Turn::Moved
                }
                _ if self.at > 0 => {
                    self.at = 0;
                    Turn::Moved
                }
                Ok(None) => Turn::Done,
                Err(blocked) => Turn::Blocked(blocked),
            };
        };
        let (task, again) = (b.task, self.stuck && b.next > 0);
        match step.fire_granule() {
            Err(blocked) => {
                self.stuck = true;
                Turn::Blocked(blocked)
            }
            Ok(last) => {
                self.stuck = false;
                *resumed += u64::from(again);
                if last {
                    let reps = step.plan.fused[step.tasks[task].seg].reps;
                    step.finish(next(reps), std::time::Duration::ZERO);
                }
                Turn::Moved
            }
        }
    }
}

/// What a seeded path ended with.
struct Path {
    digest: Option<u64>,
    /// Granules fired after a turn had found them blocked: each re-peeked
    /// its input windows from the head the batch's first granule found.
    resumed: u64,
}

/// One seeded path of `case` on `workers` virtual workers: the segments
/// placed, each turn's worker picked among those that can step, and
/// every batch's granule count drawn, all from `seed`.
fn run(case: &Case, workers: usize, seed: u64) -> Result<Path, Deadlock> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let rings = case.rings(workers);
    let owner: Vec<usize> = (0..case.plan.segments.len())
        .map(|_| rng.gen_range(0..workers))
        .collect();
    let tasks = case.tasks(&rings, |s| rng.gen_range(1..=s.reps.min(GRANULES)));
    let mut ws: Vec<Worker> = deal(tasks, &owner, workers)
        .into_iter()
        .map(|tasks| Worker::new(WorkerStep::new(&case.g, &case.plan, &rings, tasks)))
        .collect();
    let mut order: Vec<usize> = (0..workers).collect();
    let mut resumed = 0;
    loop {
        // A uniform pick among the workers that can step: the first of a
        // random order that does.
        for i in (1..workers).rev() {
            order.swap(i, rng.gen_range(0..=i));
        }
        let mut blocked = vec![None; workers];
        let mut moved = false;
        for &w in &order {
            let draw = |reps: u64| rng.gen_range(1..=reps.min(GRANULES));
            match ws[w].turn(case.rounds, draw, &mut resumed) {
                Turn::Moved => {
                    moved = true;
                    break;
                }
                Turn::Blocked(b) => blocked[w] = Some(b),
                Turn::Done => {}
            }
        }
        if moved {
            continue;
        }
        if blocked.iter().any(Option::is_some) {
            return Err(Deadlock(blocked));
        }
        let digest = sink_digest(&case.g, &case.plan, ws.iter().flat_map(|w| &w.step.tasks));
        return Ok(Path { digest, resumed });
    }
}

/// A move of the exhaustive search: a worker, and the granule count of
/// the next batch of a segment whose batch that step finishes.
type Move = (usize, u64);

/// Replay `moves` over a fresh run of `case` on `workers` workers whose
/// segments `owner` places and whose first batches are cut into `first`
/// granules, then hand the workers to `then`.
fn replay<R>(
    case: &Case,
    (owner, workers): (&[usize], usize),
    first: &[u64],
    moves: &[Move],
    then: impl FnOnce(&mut [Worker]) -> R,
) -> R {
    let rings = case.rings(workers);
    let mut first = first.iter();
    let tasks = case.tasks(&rings, |_| *first.next().unwrap());
    let mut ws: Vec<Worker> = deal(tasks, owner, workers)
        .into_iter()
        .map(|tasks| Worker::new(WorkerStep::new(&case.g, &case.plan, &rings, tasks)))
        .collect();
    for &(w, g) in moves {
        let moved = ws[w].turn(case.rounds, |_| g, &mut 0);
        assert!(matches!(moved, Turn::Moved), "a replayed move moves");
    }
    then(&mut ws)
}

/// A state: every ring's occupancy, every task's batches, granule count
/// and granule position, every worker's scan position.
fn state(case: &Case, ws: &[Worker]) -> Vec<u64> {
    let mut key = Vec::new();
    let rings = ws[0].step.rings;
    for seg in &case.plan.segments {
        key.extend(
            seg.out_batch
                .iter()
                .map(|&(e, _)| rings.get(e).len() as u64),
        );
    }
    for w in ws {
        key.push(w.at as u64);
        for (i, t) in w.step.tasks.iter().enumerate() {
            let at = match &w.step.batch {
                Some(b) if b.task == i => b.next,
                _ => u64::MAX,
            };
            // A finished segment's next granule count is never used.
            let granules = if t.done < case.rounds { t.granules } else { 0 };
            key.extend([t.done, granules, at]);
        }
    }
    key
}

/// Every state reachable on `workers` workers from the start of `case`
/// with its segments placed by `owner` and every batch's
/// granule count in `1..=min(reps, MOST)`, each final state checked
/// against the reference digest: how many there are, or the failure, the
/// states seen until it, and the moves that reach it.
fn reachable(
    case: &Case,
    (owner, workers): (&[usize], usize),
) -> Result<usize, (Failure, usize, Vec<Move>)> {
    let at = (owner, workers);
    let most: Vec<u64> = case
        .plan
        .segments
        .iter()
        .map(|s| s.reps.min(MOST))
        .collect();
    // Every choice of the first batches' granule counts is a start.
    let mut starts: Vec<Vec<u64>> = vec![Vec::new()];
    for &m in &most {
        starts = starts
            .into_iter()
            .flat_map(|s| {
                (1..=m).map(move |g| {
                    let mut s = s.clone();
                    s.push(g);
                    s
                })
            })
            .collect();
    }
    let mut seen = HashSet::new();
    let mut queue = VecDeque::new();
    for first in starts {
        if seen.insert(replay(case, at, &first, &[], |ws| state(case, ws))) {
            queue.push_back((first, Vec::new()));
        }
    }
    while let Some((first, moves)) = queue.pop_front() {
        let mut blocked = vec![None; workers];
        let mut moved = false;
        for w in 0..workers {
            let mut g = 1;
            loop {
                // Whether this move finished a batch, whose segment's next
                // batch then takes `g` granules of at most `reps`.
                let mut finished = None;
                let (turn, key) = replay(case, at, &first, &moves, |ws| {
                    let turn = ws[w].turn(
                        case.rounds,
                        |reps| {
                            finished = Some(reps.min(MOST));
                            g
                        },
                        &mut 0,
                    );
                    (turn, state(case, ws))
                });
                match turn {
                    Turn::Moved => {
                        moved = true;
                        if seen.insert(key) {
                            let mut next = moves.clone();
                            next.push((w, g));
                            queue.push_back((first.clone(), next));
                        }
                    }
                    Turn::Blocked(b) => blocked[w] = Some(b),
                    Turn::Done => {}
                }
                match finished {
                    Some(m) if g < m => g += 1,
                    _ => break,
                }
            }
        }
        if moved {
            continue;
        }
        if blocked.iter().any(Option::is_some) {
            return Err((Failure::Deadlock(Deadlock(blocked)), seen.len(), moves));
        }
        let got = replay(case, at, &first, &moves, |ws| {
            sink_digest(&case.g, &case.plan, ws.iter().flat_map(|w| &w.step.tasks))
        });
        if got != case.want {
            let want = case.want;
            return Err((Failure::Digest { got, want }, seen.len(), moves));
        }
    }
    Ok(seen.len())
}

/// Every placement of `case`'s segments on `workers` workers.
fn placements(case: &Case, workers: usize) -> Vec<Vec<usize>> {
    let n = case.plan.segments.len() as u32;
    (0..workers.pow(n))
        .map(|mut code| {
            (0..n)
                .map(|_| {
                    let w = code % workers;
                    code /= workers;
                    w
                })
                .collect()
        })
        .collect()
}

/// The placements of `case` on `workers` workers up to renaming the
/// workers, which are alike: those that name each worker before the
/// next one.
fn distinct_placements(case: &Case, workers: usize) -> Vec<Vec<usize>> {
    let mut all = placements(case, workers);
    all.retain(|owner| {
        let mut named = 0;
        owner.iter().all(|&w| {
            named += usize::from(w == named);
            w < named
        })
    });
    all
}

/// Search `case` under every placement of `owners` on `workers` workers;
/// the total state count, or the first failure.
fn search(case: &Case, owners: &[Vec<usize>], workers: usize) -> Result<usize, String> {
    let mut total = 0;
    for owner in owners {
        match reachable(case, (owner, workers)) {
            Ok(states) => total += states,
            Err((f, states, moves)) => {
                return Err(format!(
                    "{} placed {owner:?}: {f} after {states} states, by moves {moves:?}",
                    case.name
                ))
            }
        }
    }
    Ok(total)
}

/// Search every placement of every case on two workers; the total state
/// count.
fn search_small(cases: &[Case]) -> usize {
    cases
        .iter()
        .map(|case| search(case, &placements(case, 2), 2).unwrap_or_else(|f| panic!("{f}")))
        .sum()
}

/// Search every distinct placement of every case on `workers` workers;
/// the total state count.
fn search_distinct(cases: &[Case], workers: usize) -> usize {
    cases
        .iter()
        .map(|case| {
            search(case, &distinct_placements(case, workers), workers)
                .unwrap_or_else(|f| panic!("{f}"))
        })
        .sum()
}

/// The small cases the search covers at this budget: all four in release
/// builds, the two-segment and the decimating chain in debug ones.
fn small_budget() -> Vec<Case> {
    let mut cases = small();
    if cfg!(debug_assertions) {
        cases.truncate(2);
    }
    cases
}

#[test]
fn seeded_paths_reproduce_every_digest() {
    let mut paths = 0;
    for case in grid() {
        assert!(
            case.plan.segments.len() > 1,
            "{}: the run crosses segments",
            case.name
        );
        for workers in [2, 3, 4] {
            for seed in REPLAY.iter().copied().chain(0..case.paths) {
                let tag = format!("{} at {workers} workers, seed {seed}", case.name);
                let path = run(&case, workers, seed).unwrap_or_else(|d| panic!("{tag}: {d}"));
                assert_eq!(path.digest, case.want, "{tag}");
                paths += 1;
            }
        }
    }
    let budget = if cfg!(debug_assertions) {
        1_000
    } else {
        10_000
    };
    assert!(paths >= budget, "{paths} paths");
}

#[test]
fn no_reachable_state_of_a_small_case_is_a_deadlock() {
    // The counts `docs/HOTPATH.md` cites: a change to the step or to
    // this driver that moves them should say so there.
    let want = if cfg!(debug_assertions) {
        5_950
    } else {
        50_922
    };
    assert_eq!(search_small(&small_budget()), want);
}

#[test]
fn one_batch_rings_do_not_deadlock_either() {
    // Every start still finds room for its whole batch, so a wait is
    // still only ever for a producer that has begun the same batch.
    let cases: Vec<Case> = small_budget().iter().map(Case::one_batch_rings).collect();
    let want = if cfg!(debug_assertions) {
        4_998
    } else {
        38_766
    };
    assert_eq!(search_small(&cases), want);
    for case in grid().iter().map(Case::one_batch_rings) {
        for seed in 0..case.paths / 4 {
            let path = run(&case, 2, seed)
                .unwrap_or_else(|d| panic!("{} at 2 workers, seed {seed}: {d}", case.name));
            assert_eq!(path.digest, case.want, "{} seed {seed}", case.name);
        }
    }
}

#[test]
fn a_resumed_granule_re_peeks_its_windows_from_the_same_head() {
    // A granule a turn found blocked fires on a later turn, after its
    // producer committed more: the peek for its longer prefix must still
    // start at the head its batch's first granule found ("input window
    // moved" otherwise), and the digest must not notice.
    let case = &small()[0];
    let mut resumed = 0;
    for seed in 0..PATHS {
        let path = run(case, 2, seed).unwrap_or_else(|d| panic!("seed {seed}: {d}"));
        assert_eq!(path.digest, case.want, "seed {seed}");
        resumed += path.resumed;
    }
    assert!(resumed > 0, "no granule was resumed");
}

#[test]
fn shared_storage_in_one_round_neither_deadlocks_nor_corrupts() {
    let mut cases = small_shared();
    for case in &cases {
        let layout = (case.layout)(&case.plan, 2);
        assert!(
            layout.rings.iter().any(|r| !r.after.is_empty()),
            "{}: a ring takes another's storage",
            case.name
        );
    }
    if cfg!(debug_assertions) {
        cases.truncate(2);
    }
    // The counts `docs/HOTPATH.md` cites.
    let want = if cfg!(debug_assertions) {
        [15_029, 29_099]
    } else {
        [41_997, 81_319]
    };
    assert_eq!([2, 3].map(|w| search_distinct(&cases, w)), want);
    // The grid in one round, over the layout the threaded executor lays
    // out at each worker count.
    let mut sharing = [0; 3];
    for case in grid().iter().map(|c| c.shared(one_round)).chain(long()) {
        for (workers, sharing) in [2, 3, 4].into_iter().zip(&mut sharing) {
            let layout = one_round(&case.plan, workers);
            *sharing += usize::from(layout.rings.iter().any(|r| !r.after.is_empty()));
            for seed in REPLAY.iter().copied().chain(0..case.paths / 4) {
                let tag = format!("{} at {workers} workers, seed {seed}", case.name);
                let path = run(&case, workers, seed).unwrap_or_else(|d| panic!("{tag}: {d}"));
                assert_eq!(path.digest, case.want, "{tag}");
            }
        }
    }
    assert!(
        sharing.iter().all(|&cases| cases > 0),
        "cases that share storage at 2, 3, 4 workers: {sharing:?}"
    );
}

#[test]
fn a_dropped_storage_wait_is_a_wrong_digest() {
    /// The tightest layout with the one ring the second branch's ring
    /// takes storage from missing from its wait list.
    fn planted(plan: &ExecPlan, workers: usize) -> BoundaryLayout {
        let mut layout = tightest(plan, workers);
        let r = layout
            .rings
            .iter_mut()
            .find(|r| !r.after.is_empty())
            .expect("a ring on another's lines");
        r.after.remove(0);
        layout
    }
    let mut case = small_shared().swap_remove(2);
    assert_eq!(case.name, "fork and join");
    let owners = distinct_placements(&case, 2);
    assert_eq!(search(&case, &owners, 2).map(|_| ()), Ok(()));
    case.layout = planted;
    let bad = planted(&case.plan, 2);
    assert!(
        matches!(
            bad.check(&case.plan),
            Err(crate::DagExecError::BadRingLayout { .. })
        ),
        "the layout check refuses it"
    );
    let failure = search(&case, &owners, 2).unwrap_err();
    assert!(failure.contains("digest"), "{failure}");
}
