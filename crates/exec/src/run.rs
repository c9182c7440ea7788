//! The segment-affine worker loop: the OS-thread driver of the batch
//! step (`step.rs`), one of its two drivers and the one that ships.
//!
//! Each worker owns a set of segments (kernels, scratch, and — by the
//! SPSC discipline — the relevant ring endpoints) in one `WorkerStep`.
//! A worker passes over its segments in placement order;
//! whenever the step's gate admits a segment that still owes batches —
//! room for a whole batch on every output ring, the first granule of one
//! on every input ring — the worker runs one batch of it to the end. It
//! publishes that batch in granules — up to [`GRANULES`], none shorter
//! than `MIN_GRANULE` (50 µs) by the segment's previous batch: after
//! each, what it wrote is committed to the output rings and announced on
//! the progress gate. So a consumer on another worker starts on the
//! first granule of its producer's batch, and a chain of segments
//! pipelines inside one round — the parallelism a strict chain has.
//!
//! The step never waits: a pass in which no gate is open, and a granule
//! whose input prefix is not in yet, come back as the [`Blocked`] that
//! names the ring, and the worker takes its stall path — it yields and
//! retries briefly, then waits on the progress gate that every granule
//! signals: awake (yielding) for up to twice the longest batch of the
//! run so far — a stalled peer is usually mid-batch — and parked on the
//! gate's condvar after that, so starved workers and oversubscribed runs
//! (workers > cores) don't burn the very cores their peers need. Both
//! kinds of wait are stall time, not busy time, blamed on that
//! `Blocked`. That the waits cannot deadlock is checked, not argued: the
//! step's test driver replays seeded interleavings of every granule and
//! searches small cases exhaustively (`docs/HOTPATH.md`, "Granule
//! handoff"). With [`RunConfig::pin_cores`], workers additionally bind
//! themselves to the cpus the process may use ([`plan_bindings`]),
//! closing the gap the OS scheduler leaves: segment state stays in the
//! cache of the core it was placed for.
//!
//! Under [`Placement::Measured`], over two or more rounds with more
//! segments than workers, the workers run round 0 on the round-robin
//! deal, over the same storage as the rest of the run
//! ([`Lifetimes::WholeRun`]), and then cross the round boundary, one
//! more thing the step's scan returns (`Poll::Boundary`): each worker
//! hands its tasks into the `Boundary` pool both drivers share, each
//! task carrying its first batch's busy time — the batch's wall time
//! less its mid-batch waits, as granule sizing already computes it —
//! and its counter tally. The last to hand in places the segments on
//! those costs with [`balance`] and deals the tasks out again, and
//! every worker runs the remaining rounds on its new share, its counter
//! group, windows and event ring carried on. Every ring is empty at that
//! point, and the pool's lock orders a segment's batches on its old
//! worker before those on its new one. A worker waiting for the deal
//! takes the stall path like any other — yield, wait awake, park —
//! blamed on no ring.
//!
//! Worker 0 is the calling thread and workers 1.. are spawned, so a
//! one-worker run is this loop on the caller's thread. The worker count
//! alone decides what only one thread can use: alone, a worker runs a
//! batch as one granule, its rings share storage by schedule
//! ([`Lifetimes::BySchedule`]) at any round count, and its scan, which
//! then finds every segment open at its turn in plan order, never
//! blocks — a [`Blocked`] is a bug and panics.
//!
//! Termination is deterministic: every segment executes exactly `rounds`
//! batches, so node `v` fires `rounds·T·gain(v)` times and the sink
//! digest is comparable with a serial schedule of the same length. A
//! worker that panics poisons the gate on its way out; its peers leave
//! their waits and the run returns [`DagExecError::WorkerPanicked`],
//! worker 0's panic included: it is caught on the calling thread, which
//! gets back the affinity mask it had if worker 0 pinned it.

use crate::place::{balance, round_robin, segment_links, Placement};
use crate::plan::{CrossRings, DagExecError, ExecPlan, Lifetimes, GRANULES};
use crate::stats::{DagRunStats, WorkerStats};
use crate::step::{
    deal, record_batch, seg_tasks, sink_digest, tracer, Boundary, Meter, Poll, SegTask, WorkerStep,
};
use ccs_graph::RateAnalysis;
use ccs_obs::{Blocked, Clock, EventKind, Tracer};
use ccs_partition::Partition;
use ccs_perf::CounterSample;
use ccs_runtime::instance::Instance;
use ccs_runtime::serial::RunStats;
use ccs_topo::{current_affinity, pin_current_thread, plan_bindings, set_affinity, Topology};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// How to run a partitioned dag: worker count, placement policy, core
/// pinning and what to observe.
#[derive(Clone, Debug, Default)]
pub struct RunConfig {
    /// Workers (>= 1): the calling thread, and one spawned thread for
    /// each other worker.
    pub workers: usize,
    /// Segment → worker placement policy.
    pub placement: Placement,
    /// Bind each worker to a cpu of the host ([`Topology::discover`])
    /// via `sched_setaffinity`. Pin failures (non-Linux, a cpu taken
    /// offline since) are recorded per worker and the run proceeds
    /// unpinned.
    pub pin_cores: bool,
    /// Open hardware performance counters (`ccs-perf` cache suite) on
    /// each worker's thread and read them just before and just after
    /// every counted batch, into that batch's segment
    /// ([`WorkerStats::segment_counters`]); a worker's totals are the
    /// sum of its segments'. Unavailability (containers,
    /// `perf_event_paranoid`, non-Linux) degrades per worker to
    /// `counters: None`; the run itself — and its digest — is
    /// unaffected either way.
    pub counters: bool,
    /// Steady-state warmup: the first this many batches of each segment
    /// are not counted, so readings exclude cold-start misses
    /// (compulsory misses on first-touch state, page faults, branch
    /// training). The schedule is the same whatever it is. Clamped
    /// below `rounds` so every segment counts at least one batch; 0
    /// (the default) counts every batch.
    pub warmup_batches: u64,
    /// Record a per-worker event timeline (batch and stall spans, ring
    /// occupancy, window boundaries) into a private bounded
    /// [`ccs_obs::EventRing`]. Off (the default), the
    /// tracer reduces to a single never-taken branch on the hot path;
    /// on, each event is one timestamp read and one slot write, and
    /// ring overflow overwrites the oldest events while counting the
    /// drops ([`ccs_obs::Timeline::dropped`]).
    pub trace: bool,
    /// Close a counter window every this many batches (per worker):
    /// the group is re-read and differenced with
    /// [`ccs_perf::CounterSample::delta_since`] into
    /// [`WorkerStats::windows`], giving the time-resolved miss/IPC
    /// signal end-of-run totals cannot show. 0 (the default) disables
    /// windows; without an open counter group they degrade to
    /// timing-only samples.
    pub window_batches: u64,
    /// Per-worker event ring capacity when tracing; 0 selects
    /// [`ccs_obs::DEFAULT_RING_CAPACITY`].
    pub trace_capacity: usize,
}

impl RunConfig {
    pub fn new(workers: usize) -> RunConfig {
        RunConfig {
            workers,
            ..RunConfig::default()
        }
    }

    pub fn with_placement(mut self, placement: Placement) -> RunConfig {
        self.placement = placement;
        self
    }

    pub fn with_pinning(mut self, pin: bool) -> RunConfig {
        self.pin_cores = pin;
        self
    }

    pub fn with_counters(mut self, counters: bool) -> RunConfig {
        self.counters = counters;
        self
    }

    pub fn with_warmup(mut self, warmup_batches: u64) -> RunConfig {
        self.warmup_batches = warmup_batches;
        self
    }

    pub fn with_trace(mut self, on: bool) -> RunConfig {
        self.trace = on;
        self
    }

    pub fn with_windows(mut self, window_batches: u64) -> RunConfig {
        self.window_batches = window_batches;
        self
    }

    pub fn with_trace_capacity(mut self, capacity: usize) -> RunConfig {
        self.trace_capacity = capacity;
        self
    }

    /// No-op, kept because the benchmark package calls it: every batch
    /// runs through its segment's compiled [`ccs_partition::FiringPlan`],
    /// whatever is passed here.
    pub fn with_fused(self, _fused: bool) -> RunConfig {
        self
    }
}

/// The per-run observability policy handed to each worker: whether to
/// trace, the window cadence, and the shared run clock all timestamps
/// are taken against.
#[derive(Clone, Copy)]
struct ObsPlan {
    /// Record an event timeline into a bounded per-worker ring.
    trace: bool,
    /// Event ring capacity (0 selects the default).
    capacity: usize,
    /// Close a counter window every this many batches (0 = off).
    window: u64,
    /// Shared monotonic origin, so per-worker timelines merge.
    clock: Clock,
}

/// The per-run counter policy handed to each worker: the counter
/// request plus the effective (clamped) warmup.
#[derive(Clone, Copy)]
struct CounterPlan {
    /// Open a group on each worker thread at all.
    requested: bool,
    /// Effective per-segment warmup batches (already clamped below
    /// `rounds`): a segment's batches from this one on are counted.
    warmup: u64,
}

/// Cross-worker progress signal: every published granule and every
/// completed batch bumps the epoch and wakes sleepers, so a worker
/// whose gate is closed can park instead of spinning indefinitely.
struct ProgressGate {
    epoch: AtomicU64,
    sleepers: AtomicUsize,
    /// Longest batch any worker has completed so far, in nanoseconds:
    /// how long a stalled worker may expect a peer to stay mid-batch.
    longest_batch_ns: AtomicU64,
    lock: parking_lot::Mutex<()>,
    cv: parking_lot::Condvar,
    /// Set when a worker unwinds. Every wait — the scan's and the
    /// mid-batch one — gives up on seeing it, and every
    /// worker leaves its loop: the rings the dead worker fed will never
    /// fill.
    poison: AtomicBool,
    /// The first worker to unwind and the segment it was running.
    culprit: parking_lot::Mutex<Option<(usize, Option<usize>)>>,
}

/// Unproductive passes a worker spends yielding and rescanning before
/// it waits on the gate ([`ProgressGate::wait_if_stale`]).
const SPIN_PASSES: u32 = 64;

/// Longest single wait on the gate: a failsafe re-check so no
/// missed-wakeup scenario (or a peer that exits without a final bump)
/// can wedge a worker, and the rate at which a waiting worker rescans
/// rings a peer may have drained or filled mid-batch.
const PARK_TIMEOUT: Duration = Duration::from_millis(1);

impl ProgressGate {
    fn new() -> ProgressGate {
        ProgressGate {
            epoch: AtomicU64::new(0),
            sleepers: AtomicUsize::new(0),
            longest_batch_ns: AtomicU64::new(0),
            lock: parking_lot::Mutex::new(()),
            cv: parking_lot::Condvar::new(),
            poison: AtomicBool::new(false),
            culprit: parking_lot::Mutex::new(None),
        }
    }

    /// Abandon the run: `worker` unwound while running `seg` (the first
    /// caller is the one reported). The bump ends every gate wait in
    /// progress at once.
    fn poison(&self, worker: usize, seg: Option<usize>) {
        self.culprit.lock().get_or_insert((worker, seg));
        self.poison.store(true, Ordering::SeqCst);
        self.bump();
    }

    fn poisoned(&self) -> bool {
        self.poison.load(Ordering::Relaxed)
    }

    /// Publish progress: bump the epoch and wake parked workers. The
    /// sleeper check keeps the contended-lock cost off the hot path
    /// when nobody is parked (the common case).
    fn bump(&self) {
        self.epoch.fetch_add(1, Ordering::SeqCst);
        if self.sleepers.load(Ordering::SeqCst) > 0 {
            drop(self.lock.lock());
            self.cv.notify_all();
        }
    }

    /// Publish a completed batch that took `dur`.
    fn batch_done(&self, dur: Duration) {
        self.longest_batch_ns
            .fetch_max(dur.as_nanos() as u64, Ordering::Relaxed);
        self.bump();
    }

    /// Wait until the epoch moves past `seen` (or the failsafe timeout)
    /// and report whether the wait went to the condvar. A stalled worker
    /// is usually waiting for a peer that is mid-batch, so while its
    /// stall, begun at `since`, is younger than twice the longest batch
    /// of the run so far (twice, because such a stall lasts about one
    /// batch and must not end on the horizon), it waits awake, yielding
    /// between looks at the epoch: a core that went to sleep is slow to
    /// wake and wakes cold, by an amount that differs from one handoff
    /// and one run to the next. Past that horizon the worker is
    /// starved, not a batch behind, and parks on the condvar. There the
    /// sleeper count is raised before the epoch re-check, pairing with
    /// [`bump`](Self::bump)'s increment-then-check so one side always
    /// sees the other.
    fn wait_if_stale(&self, seen: u64, since: Instant) -> bool {
        let horizon = 2 * Duration::from_nanos(self.longest_batch_ns.load(Ordering::Relaxed));
        if since.elapsed() < horizon {
            let slice = Instant::now();
            while self.epoch.load(Ordering::SeqCst) == seen && slice.elapsed() < PARK_TIMEOUT {
                std::thread::yield_now();
            }
            return false;
        }
        self.sleepers.fetch_add(1, Ordering::SeqCst);
        let mut guard = self.lock.lock();
        if self.epoch.load(Ordering::SeqCst) == seen {
            self.cv.wait_for(&mut guard, PARK_TIMEOUT);
        }
        drop(guard);
        self.sleepers.fetch_sub(1, Ordering::SeqCst);
        true
    }
}

/// Execute `rounds` granularity-`T` batches of every segment of `p`
/// under `cfg`: segments stay on the worker the placement deals them to
/// — for the whole run, or under a measured placement for round 0 and
/// then for the rounds after it — and workers optionally bind to cpus
/// of the host. Fires node `v` exactly `rounds·T·gain(v)` times;
/// returns aggregate and per-worker stats, with the sink digest for
/// equivalence checking.
pub fn execute_dag_cfg(
    inst: Instance,
    ra: &RateAnalysis,
    p: &Partition,
    m_items: u64,
    rounds: u64,
    cfg: &RunConfig,
) -> Result<DagRunStats, DagExecError> {
    let workers = cfg.workers.max(1);
    let g = &inst.graph;
    let plan = ExecPlan::build(g, ra, p, m_items)?;
    let warmup = if rounds == 0 {
        0
    } else {
        cfg.warmup_batches.min(rounds - 1)
    };
    let segments = plan.segments.len();
    // A measured placement runs round 0 on the round-robin deal and
    // re-deals the segments at its end (module doc).
    let handover = cfg
        .placement
        .measures(workers, rounds, segments)
        .then(|| Handover {
            links: segment_links(g, ra, &plan),
            pool: parking_lot::Mutex::new(Boundary::new(workers)),
        });
    // Only pay for host discovery (sysfs walks) when pinning.
    let bindings: Vec<Option<usize>> = if cfg.pin_cores {
        plan_bindings(&Topology::discover(), workers)
            .into_iter()
            .map(Some)
            .collect()
    } else {
        vec![None; workers]
    };

    // One ring per cross edge, all in one slab; internal streams live in
    // the segment arenas. One worker runs the segments in plan order, a
    // whole batch each, so a ring holds one batch on storage that rings
    // dead at its turn used before it. Among several, in one round a
    // ring carries one batch, and its storage goes to a later ring once
    // its consumer has released it (the start gate waits for that). Over
    // more rounds any two rings may be in use at once, so each holds two
    // batches and none shares.
    let alone = workers == 1;
    let lifetimes = if alone {
        Lifetimes::BySchedule
    } else if rounds == 1 {
        Lifetimes::OneRound { workers }
    } else {
        Lifetimes::WholeRun
    };
    // Round 0's batch times are the measured placement's costs: its
    // rings are written through before the run, so that no first batch
    // is charged the page faults of its output rings' storage (a
    // multi-round run touches all of it anyway).
    let rings = CrossRings::build(&plan, lifetimes, handover.is_some())?;

    // Move kernels out of the instance into per-segment tasks, and deal
    // them to their workers.
    let tasks = seg_tasks(&plan, &rings, inst.kernels, |s| {
        granules(alone, s.reps, None)
    });
    let per_worker = deal(tasks, &round_robin(segments, workers), workers);

    let gate = ProgressGate::new();
    let cplan = CounterPlan {
        requested: cfg.counters,
        warmup,
    };
    let obs = ObsPlan {
        trace: cfg.trace,
        capacity: cfg.trace_capacity,
        window: cfg.window_batches,
        clock: Clock::start(),
    };

    let start = Instant::now();
    let mut results: Vec<(Vec<SegTask>, WorkerStats)> = Vec::with_capacity(workers);
    let mut unwound = None;
    crossbeam::scope(|scope| {
        let ctx = |worker: usize, tasks: Vec<SegTask>| WorkerCtx {
            g,
            plan: &plan,
            rings: &rings,
            gate: &gate,
            worker,
            alone,
            binding: bindings[worker],
            cplan,
            obs,
            tasks,
            rounds,
            handover: handover.as_ref(),
        };
        let mut per_worker = per_worker.into_iter();
        let own = per_worker.next().expect("at least one worker");
        let handles: Vec<_> = per_worker
            .enumerate()
            .map(|(i, tasks)| {
                let ctx = ctx(i + 1, tasks);
                scope.spawn(move |_| worker_loop(ctx))
            })
            .collect();
        // Worker 0 is this thread: a panic is caught like a peer's, and
        // the caller gets back the mask worker 0 may have pinned away.
        let mask = bindings[0].and_then(|_| current_affinity());
        let own = catch_unwind(AssertUnwindSafe(|| worker_loop(ctx(0, own))));
        if let Some(cpus) = mask {
            set_affinity(&cpus);
        }
        let joined = handles.into_iter().map(|h| h.join().map_err(drop));
        for (w, r) in std::iter::once(own.map_err(drop)).chain(joined).enumerate() {
            match r {
                Ok(r) => results.push(r),
                Err(()) => {
                    unwound.get_or_insert(w);
                }
            }
        }
    })
    .expect("scope failed");
    let wall = start.elapsed();
    if let Some(w) = unwound {
        let (worker, segment) = gate.culprit.lock().unwrap_or((w, None));
        return Err(DagExecError::WorkerPanicked { worker, segment });
    }

    // Gather the sink digest, each segment's first batch and last
    // worker, and aggregate counts.
    let digest = sink_digest(g, &plan, results.iter().flat_map(|(tasks, _)| tasks));
    let (mut profiled, mut owner) = (vec![0; segments], vec![0; segments]);
    for (tasks, ws) in &results {
        for t in tasks {
            profiled[t.seg] = t.first_busy.as_nanos() as u64;
            owner[t.seg] = ws.worker;
        }
    }
    let mut worker_stats: Vec<WorkerStats> = results.into_iter().map(|(_, ws)| ws).collect();
    worker_stats.sort_by_key(|w| w.worker);
    let firings: u64 = rounds * plan.firings_per_round();
    let sink_items = plan.sink_items(g, rounds);
    let cross_worker_items = plan
        .segments
        .iter()
        .enumerate()
        .flat_map(|(si, s)| s.out_batch.iter().map(move |&(e, n)| (si, e, n)))
        .filter(|&(si, e, _)| owner[si] != owner[plan.seg_of_node[g.edge(e).dst.idx()]])
        .map(|(_, _, n)| n)
        .sum();
    Ok(DagRunStats {
        run: RunStats {
            wall,
            firings,
            sink_items,
            digest,
            boundary_words: rings.words(),
        },
        workers: worker_stats,
        t: plan.t,
        rounds,
        segments,
        segment_cost: plan.segments.iter().map(|s| s.cost).collect(),
        profiled,
        owner,
        cross_worker_items,
        counters_requested: cfg.counters,
        warmup: cplan.warmup,
        ring_words: rings.ring_words(),
        trace_enabled: cfg.trace,
        window_batches: cfg.window_batches,
    })
}

/// Shortest granule worth handing off on its own, in batch time. Each
/// granule costs a commit per output ring, a gate bump and a re-peek per
/// input ring, and while a peer waits on them each moves a cache line
/// between the two workers: on batches of tens of microseconds —
/// `thin-dag`'s and `multirate-bank`'s — sixteen of those a batch cost
/// the busier worker more than the early starts win back (measured in
/// `BENCH_26.json`), where a batch of a one-round chain runs for
/// milliseconds.
const MIN_GRANULE: Duration = Duration::from_micros(50);

/// Granules a worker publishes a batch of `reps` blocks in: one when it
/// is `alone`, with no peer to hand a granule to; otherwise [`GRANULES`],
/// or fewer, so that none is shorter than [`MIN_GRANULE`] if the
/// segment's batch takes as long as its last one did (`last`, busy time;
/// `None` before its first batch, which gets them all).
fn granules(alone: bool, reps: u64, last: Option<Duration>) -> u64 {
    if alone {
        return 1;
    }
    let most = GRANULES.min(reps);
    last.map_or(most, |busy| {
        (busy.as_nanos() / MIN_GRANULE.as_nanos()).clamp(1, u128::from(most)) as u64
    })
}

/// One worker's stall path, shared by the two kinds of [`Blocked`] its
/// step returns: the scan's (no segment of the worker may start) and the
/// mid-batch one (a running batch's next granule is not in yet).
struct Stalls<'a> {
    gate: &'a ProgressGate,
    /// Unproductive passes in the stall under way.
    passes: u32,
    /// When the stall under way began.
    since: Instant,
    /// Passes so far ([`WorkerStats::stalls`]).
    count: u64,
    /// Their wall-clock time ([`WorkerStats::stall_time`]).
    time: Duration,
}

impl<'a> Stalls<'a> {
    fn new(gate: &'a ProgressGate) -> Stalls<'a> {
        Stalls {
            gate,
            passes: 0,
            since: Instant::now(),
            count: 0,
            time: Duration::ZERO,
        }
    }

    /// One unproductive pass: a yield for the first [`SPIN_PASSES`] of
    /// a stall, a wait on the gate past `epoch` (the epoch seen before
    /// the failed check) after that. Counted, timed, and recorded as a
    /// `Stall` span blamed on `blocked`, or on no ring at the round
    /// boundary. Returns the time it took.
    fn pass(
        &mut self,
        epoch: u64,
        blocked: Option<Blocked>,
        tracer: &mut Tracer,
        clock: &Clock,
    ) -> Duration {
        self.count += 1;
        self.passes += 1;
        let t0 = Instant::now();
        if self.passes == 1 {
            self.since = t0;
        }
        let parked = if self.passes <= SPIN_PASSES {
            std::thread::yield_now();
            false
        } else {
            self.gate.wait_if_stale(epoch, self.since)
        };
        let dur = t0.elapsed();
        self.time += dur;
        tracer.record(
            clock.offset_ns(t0),
            dur.as_nanos() as u64,
            EventKind::Stall { parked, blocked },
        );
        dur
    }

    /// The stall under way is over: the next pass begins a new one.
    fn end(&mut self) {
        self.passes = 0;
    }
}

/// Poisons the gate if its worker unwinds. Made first thing on a
/// worker's stack, it names the segment whose batch was running, so the
/// peers waiting on that batch's rings give up instead of waiting
/// forever.
struct PoisonOnUnwind<'a> {
    gate: &'a ProgressGate,
    worker: usize,
    seg: Option<usize>,
}

impl Drop for PoisonOnUnwind<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.gate.poison(self.worker, self.seg);
        }
    }
}

/// The round boundary of a measured placement: the [`Boundary`] pool
/// behind a lock, and the cross edges [`balance`] weighs.
struct Handover {
    links: Vec<(usize, usize, u64)>,
    pool: parking_lot::Mutex<Boundary>,
}

impl Handover {
    /// Take `worker`'s `step` across the boundary ([`Boundary::cross`]),
    /// placing the segments by their first batch's busy time. The gate
    /// is bumped once the step goes on, so that peers waiting for the
    /// deal look again.
    #[cold]
    fn cross(&self, worker: usize, step: &mut WorkerStep, gate: &ProgressGate) -> bool {
        let on = self.pool.lock().cross(worker, step, |tasks, workers| {
            let costs: Vec<u64> = tasks
                .iter()
                .map(|t| t.first_busy.as_nanos() as u64)
                .collect();
            balance(&costs, &self.links, workers).owner
        });
        if on {
            gate.bump();
        }
        on
    }
}

/// Everything one worker needs, bundled so the spawn site stays
/// readable.
struct WorkerCtx<'a> {
    g: &'a ccs_graph::StreamGraph,
    plan: &'a ExecPlan,
    rings: &'a CrossRings,
    gate: &'a ProgressGate,
    worker: usize,
    /// The run's only worker: one granule a batch, and never blocked.
    alone: bool,
    /// The cpu this worker pins itself to, with `pin_cores`.
    binding: Option<usize>,
    cplan: CounterPlan,
    obs: ObsPlan,
    tasks: Vec<SegTask>,
    rounds: u64,
    /// Where the workers meet after round 0 under a measured placement.
    handover: Option<&'a Handover>,
}

fn worker_loop(ctx: WorkerCtx<'_>) -> (Vec<SegTask>, WorkerStats) {
    let WorkerCtx {
        g,
        plan,
        rings,
        gate,
        worker,
        alone,
        binding,
        cplan,
        obs,
        tasks,
        rounds,
        handover,
    } = ctx;
    let mut poison_guard = PoisonOnUnwind {
        gate,
        worker,
        seg: None,
    };
    // Pin first, then open counters: the self-monitoring group then
    // counts this thread on the core the placement chose for it.
    let pinned_cpu = binding.filter(|&cpu| pin_current_thread(cpu).pinned());
    let mut tracer = tracer(obs.trace, obs.capacity);
    let mut stats = WorkerStats {
        worker,
        pinned_cpu,
        ..WorkerStats::default()
    };
    // Per-segment counter attribution: every batch past a segment's
    // warmup is bracketed by two cumulative reads of the group,
    // differenced into its task's tally. Counter windows ride on the
    // same cumulative reads; nothing resets the group after
    // `Meter::open`.
    let mut step = WorkerStep::new(g, plan, rings, tasks, rounds, handover.is_some());
    let mut stalls = Stalls::new(gate);
    let mut meter = Meter::open(cplan.requested, obs.window, obs.clock);
    'run: loop {
        // Epoch snapshot *before* scanning: progress a peer makes during
        // the scan moves the epoch past this value, so a post-scan park
        // re-checks immediately instead of sleeping through the wakeup.
        let epoch = gate.epoch.load(Ordering::SeqCst);
        if gate.poisoned() {
            break;
        }
        // One pass: every segment that may start, in placement order,
        // runs a batch. A pass that ran none is a stall.
        let mut at = 0;
        let blocked = loop {
            let i = match step.poll(at) {
                Poll::Start(i) => i,
                _ if at > 0 => continue 'run,
                Poll::Blocked(blocked) => break Some(blocked),
                // Round 0 is done on every segment this worker holds:
                // hand them in, and go on with what the placement gives
                // it — once the last peer has handed in, a stall until
                // then.
                Poll::Boundary => {
                    let handover = handover.expect("a boundary only under a measured placement");
                    if handover.cross(worker, &mut step, gate) {
                        // The deal is progress: a wait after it is a
                        // new stall, which begins in the spin tier.
                        stalls.end();
                        continue 'run;
                    }
                    break None;
                }
                Poll::Done => break 'run,
            };
            at = i + 1;
            let (seg, done) = (step.tasks()[i].seg, step.tasks()[i].done);
            // A batch past its segment's warmup is counted between two
            // cumulative reads of the group; a wait for a granule is no
            // part of its work, so the bracket closes around it. The
            // reads are None when no group opened.
            let counted = cplan.requested && done >= cplan.warmup;
            let mut from = if counted { meter.sample() } else { None };
            // Whatever stall came before this batch is over.
            stalls.end();
            let t0 = Instant::now();
            poison_guard.seg = Some(seg);
            step.begin(i);
            let mut waited = Duration::ZERO;
            loop {
                // Epoch before the check, as in the scan: a commit the
                // check misses moves the epoch past it.
                let epoch = gate.epoch.load(Ordering::SeqCst);
                match step.fire_granule() {
                    Ok(true) => break,
                    Ok(false) => {
                        stalls.end();
                        gate.bump();
                    }
                    // A peer unwound: this batch will never get its inputs.
                    Err(_) if gate.poisoned() => break 'run,
                    Err(blocked) if alone => {
                        panic!("edge {}: a whole batch is short of its input", blocked.edge)
                    }
                    Err(blocked) => {
                        if counted {
                            meter.add_since(from.take(), &mut step.counters_mut(i).sample);
                        }
                        waited += stalls.pass(epoch, Some(blocked), &mut tracer, &obs.clock);
                        if counted {
                            from = meter.sample();
                        }
                    }
                }
            }
            if cplan.requested {
                let tally = step.counters_mut(i);
                tally.batches += 1;
                if meter.add_since(from, &mut tally.sample) {
                    tally.batches_counted += 1;
                }
            }
            stalls.end();
            poison_guard.seg = None;
            stats.firings += plan.segments[seg].batch_firings();
            let dur = t0.elapsed();
            let busy = dur.saturating_sub(waited);
            stats.busy += busy;
            step.finish(granules(alone, plan.segments[seg].reps, Some(busy)), busy);
            let (t0_ns, dur_ns) = (obs.clock.offset_ns(t0), dur.as_nanos() as u64);
            record_batch(&mut tracer, plan, rings, seg, t0_ns, dur_ns);
            stats.batches += 1;
            meter.tick(&mut tracer);
            gate.batch_done(dur);
        };
        assert!(!alone, "a lone worker blocked: {blocked:?}");
        stalls.pass(epoch, blocked, &mut tracer, &obs.clock);
    }
    // What the worker held at the end, and those segments' tallies.
    let mut tasks = step.into_tasks();
    stats.segments = tasks.iter().map(|t| t.seg).collect();
    if cplan.requested {
        stats.segment_counters = tasks
            .iter_mut()
            .map(|t| std::mem::take(&mut t.counters))
            .collect();
    }
    stats.stalls = stalls.count;
    stats.stall_time = stalls.time;
    stats.counters = meter.counting().then(|| {
        stats
            .segment_counters
            .iter()
            .fold(CounterSample::default(), |mut sum, a| {
                sum.merge(&a.sample);
                sum
            })
    });
    stats.windows = meter.finish();
    stats.trace = tracer.finish();
    (tasks, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccs_graph::gen::{self, LayeredCfg, PipelineCfg, StateDist};
    use ccs_partition::dag_greedy;
    use ccs_sched::partitioned;

    /// Serial reference: same number of granularity-T rounds through the
    /// serial executor.
    fn serial_digest(
        g: &ccs_graph::StreamGraph,
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
    fn matches_serial_on_layered_dags() {
        let cfg = LayeredCfg {
            layers: 4,
            max_width: 3,
            density: 0.3,
            state: StateDist::Uniform(8, 48),
            max_q: 3,
        };
        for seed in 0..5u64 {
            let g = gen::layered(&cfg, seed);
            let ra = RateAnalysis::analyze_single_io(&g).unwrap();
            let p = dag_greedy::greedy_topo(&g, 96);
            let want = serial_digest(&g, &ra, &p, 48, 3);
            for workers in [1usize, 2, 4] {
                let inst = Instance::synthetic(g.clone());
                let stats =
                    execute_dag_cfg(inst, &ra, &p, 48, 3, &RunConfig::new(workers)).unwrap();
                assert_eq!(stats.run.digest, want, "seed {seed} workers {workers}");
                assert_eq!(
                    stats.workers.iter().map(|w| w.batches).sum::<u64>(),
                    3 * stats.segments as u64
                );
            }
        }
    }

    #[test]
    fn matches_serial_on_rated_pipelines() {
        for seed in 0..4u64 {
            let cfg = PipelineCfg {
                len: 10,
                state: StateDist::Uniform(8, 48),
                max_q: 3,
                max_rate_scale: 2,
            };
            let g = gen::pipeline(&cfg, seed);
            let ra = RateAnalysis::analyze_single_io(&g).unwrap();
            let pp = ccs_partition::pipeline::greedy_theorem5(&g, &ra, 48).unwrap();
            let want = serial_digest(&g, &ra, &pp.partition, 48, 2);
            for placement in [Placement::RoundRobin, Placement::Measured] {
                let inst = Instance::synthetic(g.clone());
                let stats = execute_dag_cfg(
                    inst,
                    &ra,
                    &pp.partition,
                    48,
                    2,
                    &RunConfig::new(3).with_placement(placement),
                )
                .unwrap();
                assert_eq!(
                    stats.run.digest, want,
                    "seed {seed} placement {placement:?}"
                );
            }
        }
    }

    #[test]
    fn the_measured_placement_matches_round_robin_and_serial() {
        // Round 0 round-robin, then a re-deal by its measured batch
        // times: the digest is the interpreter's and round-robin's, the
        // placement that ran is reported, and so are the round's
        // cross-worker items under it.
        let cfg = LayeredCfg {
            layers: 5,
            max_width: 3,
            density: 0.4,
            state: StateDist::Uniform(8, 48),
            max_q: 2,
        };
        for seed in 0..3u64 {
            let g = gen::layered(&cfg, seed);
            let ra = RateAnalysis::analyze_single_io(&g).unwrap();
            let p = dag_greedy::greedy_topo(&g, 64);
            for rounds in [2u64, 3, 8] {
                let want = serial_digest(&g, &ra, &p, 48, rounds);
                for workers in 2..=4usize {
                    let run = |placement| {
                        let cfg = RunConfig::new(workers).with_placement(placement);
                        let inst = Instance::synthetic(g.clone());
                        execute_dag_cfg(inst, &ra, &p, 48, rounds, &cfg).unwrap()
                    };
                    let (rr, measured) = (run(Placement::RoundRobin), run(Placement::Measured));
                    let at = format!("seed {seed}, {rounds} rounds, {workers} workers");
                    assert_eq!(rr.run.digest, want, "{at}");
                    assert_eq!(measured.run.digest, want, "{at}");
                    assert_eq!(rr.owner, round_robin(rr.segments, workers), "{at}");
                    assert!(measured.owner.iter().all(|&w| w < workers), "{at}");
                    assert!(measured.profiled.iter().all(|&ns| ns > 0), "{at}");
                    let plan = ExecPlan::build(&g, &ra, &p, 48).unwrap();
                    let cross: u64 = segment_links(&g, &ra, &plan)
                        .iter()
                        .zip(plan.segments.iter().flat_map(|s| &s.out_batch))
                        .filter(|((a, b, _), _)| measured.owner[*a] != measured.owner[*b])
                        .map(|(_, &(_, n))| n)
                        .sum();
                    assert_eq!(measured.cross_worker_items, cross, "{at}");
                }
            }
        }
    }

    #[test]
    fn firings_and_sink_items_are_exact() {
        let g = gen::pipeline_uniform(8, 32);
        let ra = RateAnalysis::analyze_single_io(&g).unwrap();
        let p = dag_greedy::greedy_topo(&g, 64);
        let inst = Instance::synthetic(g.clone());
        let stats = execute_dag_cfg(inst, &ra, &p, 16, 4, &RunConfig::new(2)).unwrap();
        // Homogeneous: T = m, every node fires T times per round.
        assert_eq!(stats.t, 16);
        assert_eq!(stats.run.firings, 4 * 16 * g.node_count() as u64);
        assert_eq!(stats.run.sink_items, 4 * 16);
        let total: u64 = stats.workers.iter().map(|w| w.firings).sum();
        assert_eq!(total, stats.run.firings);
    }

    #[test]
    fn single_segment_runs_serially() {
        let g = gen::pipeline_uniform(5, 16);
        let ra = RateAnalysis::analyze_single_io(&g).unwrap();
        let p = Partition::whole(&g);
        let want = serial_digest(&g, &ra, &p, 32, 2);
        let inst = Instance::synthetic(g.clone());
        let stats = execute_dag_cfg(
            inst,
            &ra,
            &p,
            32,
            2,
            &RunConfig::new(4).with_placement(Placement::Measured),
        )
        .unwrap();
        assert_eq!(stats.segments, 1);
        assert_eq!(stats.run.digest, want);
    }

    #[test]
    fn zero_rounds_is_a_noop() {
        let g = gen::pipeline_uniform(4, 8);
        let ra = RateAnalysis::analyze_single_io(&g).unwrap();
        let p = dag_greedy::greedy_topo(&g, 16);
        let inst = Instance::synthetic(g.clone());
        let stats = execute_dag_cfg(inst, &ra, &p, 8, 0, &RunConfig::new(2)).unwrap();
        assert_eq!(stats.run.firings, 0);
        assert_eq!(stats.run.sink_items, 0);
    }

    #[test]
    fn gate_waits_awake_for_two_batches_then_parks() {
        // No batch completed yet: nothing says a peer is about to
        // deliver, so the wait sleeps (and times out).
        let gate = ProgressGate::new();
        assert!(gate.wait_if_stale(0, Instant::now()));
        // A fresh stall in a run whose batches are long waits awake,
        // and a stale epoch returns without sleeping either way.
        gate.batch_done(Duration::from_secs(3600));
        assert!(!gate.wait_if_stale(1, Instant::now()));
        assert!(!gate.wait_if_stale(0, Instant::now()));
        // A stall older than twice the longest batch is starvation.
        let gate = ProgressGate::new();
        gate.batch_done(Duration::from_nanos(1));
        let since = Instant::now();
        std::thread::sleep(Duration::from_micros(10));
        assert!(gate.wait_if_stale(1, since));
    }

    #[test]
    fn oversubscribed_run_parks_instead_of_spinning() {
        // Far more workers than segments can occupy: the idle workers
        // must fall through the spin tier into the condvar and still
        // terminate with the right digest.
        let g = gen::pipeline_uniform(12, 32);
        let ra = RateAnalysis::analyze_single_io(&g).unwrap();
        let p = dag_greedy::greedy_topo(&g, 64);
        let want = serial_digest(&g, &ra, &p, 32, 8);
        let inst = Instance::synthetic(g.clone());
        let stats = execute_dag_cfg(inst, &ra, &p, 32, 8, &RunConfig::new(8)).unwrap();
        assert_eq!(stats.run.digest, want);
        // Stall wall-clock is measured (some worker must have waited).
        assert!(stats.workers.iter().map(|w| w.stalls).sum::<u64>() > 0);
        assert!(stats.total_stall_time() > Duration::ZERO);
    }

    #[test]
    fn pinned_run_matches_unpinned_digest() {
        let g = gen::pipeline_uniform(10, 32);
        let ra = RateAnalysis::analyze_single_io(&g).unwrap();
        let p = dag_greedy::greedy_topo(&g, 64);
        let mut digests = Vec::new();
        for pin in [false, true] {
            let cfg = RunConfig::new(3)
                .with_placement(Placement::Measured)
                .with_pinning(pin);
            let inst = Instance::synthetic(g.clone());
            let stats = execute_dag_cfg(inst, &ra, &p, 32, 4, &cfg).unwrap();
            digests.push(stats.run.digest);
            if !pin {
                assert!(stats.workers.iter().all(|w| w.pinned_cpu.is_none()));
            }
        }
        assert_eq!(digests[0], digests[1]);
    }

    #[test]
    fn a_pinned_one_worker_run_gives_the_caller_its_mask_back() {
        // Worker 0 is the calling thread, pinned to the first core of the
        // host; the caller's mask is back once the run returns.
        let g = gen::pipeline_uniform(6, 32);
        let ra = RateAnalysis::analyze_single_io(&g).unwrap();
        let p = dag_greedy::greedy_topo(&g, 64);
        let before = ccs_topo::current_affinity();
        let cfg = RunConfig::new(1).with_pinning(true);
        let stats = execute_dag_cfg(Instance::synthetic(g.clone()), &ra, &p, 32, 3, &cfg).unwrap();
        assert_eq!(stats.run.digest, serial_digest(&g, &ra, &p, 32, 3));
        assert_eq!(ccs_topo::current_affinity(), before);
    }

    #[test]
    fn run_config_builder() {
        let cfg = RunConfig::new(4)
            .with_placement(Placement::Measured)
            .with_pinning(true);
        assert_eq!(cfg.workers, 4);
        assert_eq!(cfg.placement, Placement::Measured);
        assert!(cfg.pin_cores);
    }
}
