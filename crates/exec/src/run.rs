//! The segment-affine worker loop.
//!
//! Each worker owns a fixed set of segments (kernels, scratch, and — by
//! the SPSC discipline — the relevant ring endpoints). A worker cycles
//! over its segments; whenever the gate admits a segment that still
//! owes batches — room for a whole batch on every output ring, the
//! first granule of one on every input ring — the worker runs one batch
//! of its local schedule to the end. It publishes that batch in
//! granules — up to [`GRANULES`], none shorter than `MIN_GRANULE` (50 µs) by
//! the segment's previous batch: after each, what it wrote is committed
//! to the output rings and announced on the progress gate, and before
//! each, it waits until its input rings hold what the granule reads. So
//! a consumer on another worker starts on the first granule of its
//! producer's batch, and a chain of segments pipelines inside one round
//! — the parallelism a strict chain has.
//!
//! The wait cannot deadlock: a granule of batch `i` in a ring means its
//! producer has begun batch `i`, and batches are not preempted, so that
//! producer is running on another worker (or done). It waits, if at all, only on its own inputs — never on an
//! output, the gate reserved room for the whole batch — so every chain
//! of waits descends the contracted topological order and ends at a
//! segment that runs.
//!
//! A worker with nothing to start, or a batch whose next granule is not
//! in yet, yields and rescans briefly, then waits on the progress gate
//! that every granule signals: awake (yielding) for up to twice the
//! longest batch of the run so far — a stalled peer is usually
//! mid-batch — and parked on the gate's condvar after that, so starved
//! workers and oversubscribed runs (workers > cores) don't burn the
//! very cores their peers need. Both kinds of wait are stall time, not
//! busy time. With [`RunConfig::pin_cores`], workers additionally bind
//! themselves to cores of the machine [`Topology`] in cache-compact
//! order, closing the gap the OS scheduler leaves: segment state stays
//! in the cache of the core it was placed for.
//!
//! Termination is deterministic: every segment executes exactly `rounds`
//! batches, so node `v` fires `rounds·T·gain(v)` times and the sink
//! digest is comparable with a serial schedule of the same length. A
//! worker that panics poisons the gate on its way out; its peers leave
//! their waits and the run returns [`DagExecError::WorkerPanicked`].

use crate::place::{assign_on, Placement};
use crate::plan::{CrossRings, DagExecError, ExecPlan, Lifetimes, SegmentPlan, GRANULES};
use crate::stats::{DagRunStats, SegmentCounters, WorkerStats};
use ccs_graph::{EdgeId, RateAnalysis};
use ccs_obs::{Blocked, Clock, EventKind, StallReason, Tracer, WindowSampler};
use ccs_partition::{BoundaryIo, Partition};
use ccs_runtime::instance::Instance;
use ccs_runtime::kernel::Kernel;
use ccs_runtime::ring::SpscRing;
use ccs_runtime::serial::RunStats;
use ccs_topo::{pin_current_thread, plan_bindings, CoreBinding, Topology};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Name of the warmup reset discipline, as saved documents carry it
/// (`"warmup_mode"`): the epoch reset. Every worker caps its segments
/// at [`RunConfig::warmup_batches`] batches, all workers meet at a
/// shared barrier once **every** segment in the run has reached the
/// cap, and each resets its counter group there. The measured window
/// then covers exactly batches `warmup..rounds` of every segment, so
/// per-worker aggregates are exact — no segment can run ahead into the
/// excluded region. It is the only discipline; the key stays so that
/// documents written before and after the per-worker reset was retired
/// read alike.
pub const WARMUP_MODE: &str = "epoch";

/// How to run a partitioned dag: worker count, placement policy, and
/// the machine model the policy (and optional core pinning) uses.
#[derive(Clone, Debug, Default)]
pub struct RunConfig {
    /// Worker threads (>= 1).
    pub workers: usize,
    /// Segment → worker placement policy.
    pub placement: Placement,
    /// Machine topology for [`Placement::Llc`] and pinning. `None`
    /// discovers the host topology (sysfs, with a flat fallback).
    pub topology: Option<Topology>,
    /// Bind each worker to its planned core via `sched_setaffinity`.
    /// Pin failures (non-Linux, cpu outside the cpuset, synthetic cpu
    /// ids) are recorded per worker and the run proceeds unpinned.
    pub pin_cores: bool,
    /// Open hardware performance counters (`ccs-perf` cache suite) on
    /// each worker thread and sample them around the firing loop.
    /// Unavailability (containers, `perf_event_paranoid`, non-Linux)
    /// degrades per worker to `counters: None`; the run itself — and
    /// its digest — is unaffected either way.
    pub counters: bool,
    /// Steady-state warmup window: per-segment batches whose counter
    /// activity is discarded. Every worker zeroes its group
    /// (`PERF_EVENT_IOC_RESET`) at a shared barrier once every segment
    /// of the run has executed exactly this many batches
    /// ([`WARMUP_MODE`]), so readings exclude cold-start misses
    /// (compulsory misses on first-touch state, page faults, branch
    /// training). Clamped below `rounds` so a measurement window always
    /// remains; 0 (the default) reproduces whole-run sampling.
    pub warmup_batches: u64,
    /// Attribute counters to individual *segments*, not just workers:
    /// two extra group reads around each sampled batch, differenced
    /// into that segment's [`SegmentCounters`].
    /// Only post-warmup batches are sampled. Off by default (the reads
    /// are cheap — two `read(2)` calls per batch — but not free).
    pub segment_counters: bool,
    /// Sampling stride for per-segment attribution: count every n-th
    /// post-warmup batch (1 = every batch). Bounds the per-batch read
    /// overhead for very small `T`; readings stay unbiased because
    /// normalization divides by batches actually counted. 0 is treated
    /// as 1.
    pub counter_stride: u64,
    /// Fault in each SPSC ring's pages from its **consumer** worker's
    /// thread (behind a start barrier, after pinning) before any data
    /// flows, so first-touch NUMA policy places ring memory on the
    /// consumer's node instead of wherever the planning thread ran.
    /// Touched ring counts land in [`WorkerStats::rings_touched`].
    pub first_touch_rings: bool,
    /// Record a per-worker event timeline (batch and stall spans,
    /// warmup resets, ring first-touches, window boundaries) into a
    /// private bounded [`ccs_obs::EventRing`]. Off (the default), the
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

    pub fn with_topology(mut self, topo: Topology) -> RunConfig {
        self.topology = Some(topo);
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

    pub fn with_segment_counters(mut self, on: bool) -> RunConfig {
        self.segment_counters = on;
        self
    }

    pub fn with_counter_stride(mut self, stride: u64) -> RunConfig {
        self.counter_stride = stride;
        self
    }

    pub fn with_first_touch(mut self, on: bool) -> RunConfig {
        self.first_touch_rings = on;
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
/// request plus the effective (clamped) warmup and stride.
#[derive(Clone, Copy)]
struct CounterPlan {
    /// Open a group on each worker thread at all.
    requested: bool,
    /// Effective per-segment warmup batches (already clamped below
    /// `rounds`).
    warmup: u64,
    /// Attribute per-batch windows to segments.
    per_segment: bool,
    /// Sample every n-th post-warmup batch (>= 1).
    stride: u64,
    /// A warmup reset is due: cap every segment at `warmup` batches
    /// until all workers have reset together at the shared barrier.
    epoch: bool,
}

/// Reusable all-worker rendezvous (generation-counted so it can be
/// passed more than once): used for the epoch warmup reset and, with
/// first-touch ring placement, the pre-run start line.
struct Rendezvous {
    state: parking_lot::Mutex<(usize, u64)>,
    cv: parking_lot::Condvar,
    total: usize,
}

impl Rendezvous {
    fn new(total: usize) -> Rendezvous {
        Rendezvous {
            state: parking_lot::Mutex::new((0, 0)),
            cv: parking_lot::Condvar::new(),
            total,
        }
    }

    /// Block until all `total` workers have arrived, or until `gate` is
    /// poisoned: a worker that unwound will never arrive.
    fn wait(&self, gate: &ProgressGate) {
        let mut g = self.state.lock();
        g.0 += 1;
        if g.0 == self.total {
            g.0 = 0;
            g.1 += 1;
            self.cv.notify_all();
        } else {
            let generation = g.1;
            while g.1 == generation && !gate.poisoned() {
                self.cv.wait_for(&mut g, PARK_TIMEOUT);
            }
        }
    }
}

/// Unused items on either side of a segment's arena: 128 bytes, a cache
/// line and the neighbour the adjacent-line prefetcher pairs it with.
/// An arena holds only the segment's internal streams — often a few
/// dozen words, rewritten at every firing — and the allocator packs
/// small blocks side by side, so unpadded, two workers' hottest lines
/// are one line (measured: `thin-dag` at two workers fired 1.9× slower).
const ARENA_PAD: usize = 32;

/// One segment's runtime state: kernels and the batch arena, owned by
/// the one worker thread [`assign_on`] placed the segment on, for the
/// whole run.
struct SegTask {
    seg: usize,
    /// Batches completed so far.
    done: u64,
    /// Kernels, parallel to `plan.segments[seg].nodes`.
    kernels: Vec<Box<dyn Kernel>>,
    /// The batch's scratch arena ([`ccs_partition::FiringPlan`]
    /// layout) between [`ARENA_PAD`] unused items on either side. A full
    /// batch drains every internal stream, so it carries no data across
    /// batch boundaries.
    arena: Vec<f32>,
    /// Per-segment counter attribution.
    acc: SegmentCounters,
    /// When a batch of this segment may start.
    start: StartGate,
    /// Granules its next batch is published in ([`granules`]).
    granules: u64,
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
    /// Set when a worker unwinds. Every wait — the scan's, the
    /// mid-batch one, the rendezvous — gives up on seeing it, and every
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

/// Execute `rounds` granularity-`T` batches of every segment of `p` on
/// `workers` threads with the default placement and no pinning —
/// shorthand for [`execute_dag_cfg`] with a plain [`RunConfig`].
pub fn execute_dag(
    inst: Instance,
    ra: &RateAnalysis,
    p: &Partition,
    m_items: u64,
    rounds: u64,
    workers: usize,
    placement: Placement,
) -> Result<DagRunStats, DagExecError> {
    execute_dag_cfg(
        inst,
        ra,
        p,
        m_items,
        rounds,
        &RunConfig::new(workers).with_placement(placement),
    )
}

/// Execute `rounds` granularity-`T` batches of every segment of `p`
/// under `cfg`: segments stay on their assigned worker for the whole
/// run, and workers optionally bind to cores of the configured
/// topology. Fires node `v` exactly `rounds·T·gain(v)` times; returns
/// aggregate and per-worker stats, with the sink digest for
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
    // Only pay for host discovery (sysfs walks) when something will
    // actually consume the topology; the flat machine is equivalent for
    // distance-free placements without pinning.
    let topo = match &cfg.topology {
        Some(t) => t.clone(),
        None if cfg.placement == Placement::Llc || cfg.pin_cores => Topology::discover(),
        None => Topology::single_cluster(workers),
    };
    let owner = assign_on(g, ra, &plan, workers, cfg.placement, &topo, cfg.pin_cores);
    let bindings: Vec<Option<CoreBinding>> = if cfg.pin_cores {
        plan_bindings(&topo, workers)
            .into_iter()
            .map(Some)
            .collect()
    } else {
        vec![None; workers]
    };

    // One double-buffered ring per cross edge, all in one slab and none
    // sharing storage: any two may be in use at once. Internal streams
    // live in the segment arenas.
    let rings = CrossRings::build(&plan, Lifetimes::WholeRun)?;
    let ring_words: u64 = plan.capacities.iter().sum();

    // Move kernels out of the instance into per-segment tasks.
    let mut kernel_slots: Vec<Option<Box<dyn Kernel>>> =
        inst.kernels.into_iter().map(Some).collect();
    let mut tasks: Vec<Option<SegTask>> = plan
        .segments
        .iter()
        .enumerate()
        .map(|(si, seg)| {
            let kernels: Vec<Box<dyn Kernel>> = seg
                .nodes
                .iter()
                .map(|&v| kernel_slots[v.idx()].take().expect("each node once"))
                .collect();
            Some(SegTask {
                seg: si,
                done: 0,
                kernels,
                arena: vec![0.0f32; plan.fused[si].arena_len + 2 * ARENA_PAD],
                acc: SegmentCounters {
                    seg: si,
                    ..SegmentCounters::default()
                },
                start: StartGate::new(seg),
                granules: granules(seg.reps, None),
            })
        })
        .collect();

    // Deal tasks to their pinned workers.
    let mut per_worker: Vec<Vec<SegTask>> = (0..workers).map(|_| Vec::new()).collect();
    for (si, &w) in owner.iter().enumerate() {
        per_worker[w].push(tasks[si].take().expect("each segment once"));
    }

    let graph = g;
    let plan_ref = &plan;
    let rings_ref = &rings;
    let gate = ProgressGate::new();
    let gate_ref = &gate;
    let cplan = CounterPlan {
        requested: cfg.counters,
        warmup,
        per_segment: cfg.counters && cfg.segment_counters,
        stride: cfg.counter_stride.max(1),
        epoch: cfg.counters && warmup > 0,
    };
    // The epoch reset and the post-first-touch start line are both
    // all-worker rendezvous; each is only awaited when its feature is on.
    let barrier = Rendezvous::new(workers);
    let barrier_ref = &barrier;

    // First-touch ring placement: each ring is faulted in by the worker
    // that owns its consuming segment (every cross edge has exactly one
    // consumer segment, so each ring gets touched exactly once).
    let touch_lists: Vec<Vec<EdgeId>> = if cfg.first_touch_rings {
        let mut lists: Vec<Vec<EdgeId>> = (0..workers).map(|_| Vec::new()).collect();
        for (si, seg) in plan.segments.iter().enumerate() {
            lists[owner[si]].extend(seg.in_batch.iter().map(|&(e, _)| e));
        }
        lists
    } else {
        (0..workers).map(|_| Vec::new()).collect()
    };
    let first_touch = cfg.first_touch_rings;
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
        let mut handles = Vec::with_capacity(workers);
        for ((w, my_tasks), touch) in per_worker.into_iter().enumerate().zip(touch_lists) {
            let binding = bindings[w];
            handles.push(scope.spawn(move |_| {
                worker_loop(WorkerCtx {
                    g: graph,
                    plan: plan_ref,
                    rings: rings_ref,
                    gate: gate_ref,
                    barrier: barrier_ref,
                    worker: w,
                    binding,
                    cplan,
                    obs,
                    touch: if first_touch { Some(touch) } else { None },
                    tasks: my_tasks,
                    rounds,
                })
            }));
        }
        for (w, h) in handles.into_iter().enumerate() {
            match h.join() {
                Ok(r) => results.push(r),
                Err(_) => {
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

    // Gather the sink digest and aggregate counts.
    let sink = graph.single_sink();
    let mut digest = None;
    let mut worker_stats = Vec::with_capacity(workers);
    for (tasks, ws) in results {
        if let Some(s) = sink {
            for task in &tasks {
                let seg = &plan.segments[task.seg];
                if let Some(i) = seg.nodes.iter().position(|&v| v == s) {
                    digest = task.kernels[i].digest();
                }
            }
        }
        worker_stats.push(ws);
    }
    worker_stats.sort_by_key(|w| w.worker);

    let firings: u64 = rounds * plan.firings_per_round();
    let sink_items = match sink {
        Some(s) => {
            let consume: u64 = graph
                .in_edges(s)
                .iter()
                .map(|&e| graph.edge(e).consume)
                .sum();
            rounds * plan.quota[s.idx()] * consume
        }
        None => 0,
    };
    let segments = plan.segments.len();
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
        counters_requested: cfg.counters,
        warmup: cplan.warmup,
        ring_words,
        first_touch_rings: cfg.first_touch_rings,
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

/// Granules a worker thread publishes a batch of `reps` blocks in:
/// [`GRANULES`], or fewer, so that none is shorter than [`MIN_GRANULE`]
/// if the segment's batch takes as long as its last one did (`last`,
/// busy time; `None` before its first batch, which gets them all).
fn granules(reps: u64, last: Option<Duration>) -> u64 {
    let most = GRANULES.min(reps);
    last.map_or(most, |busy| {
        (busy.as_nanos() / MIN_GRANULE.as_nanos()).clamp(1, u128::from(most)) as u64
    })
}

/// Blocks fired by the end of granule `j` of `granules`, out of `reps`:
/// the cut is on block boundaries and as even as they allow.
fn granule_end(j: u64, granules: u64, reps: u64) -> u64 {
    (j + 1) * reps / granules
}

/// The §3 gate, generalized to dags and to granule handoff — the one
/// rule for starting a batch on a worker thread: every output ring has
/// room for the whole batch, and every input ring holds what the
/// batch's first granule reads. A started batch therefore never waits
/// on an output, and waits on an input only for a producer that has
/// begun the same batch (module doc).
struct StartGate {
    /// Blocks per batch.
    reps: u64,
    /// Input edges and the items one block reads from each.
    ins: Vec<(EdgeId, u64)>,
    /// Output edges and the items one batch writes to each.
    outs: Vec<(EdgeId, u64)>,
}

impl StartGate {
    fn new(seg: &SegmentPlan) -> StartGate {
        StartGate {
            reps: seg.reps,
            ins: seg
                .in_batch
                .iter()
                .map(|&(e, n)| (e, n / seg.reps))
                .collect(),
            outs: seg.out_batch.clone(),
        }
    }

    /// The first ring that keeps a batch published in `granules` from
    /// starting, and how, or `None` when it may start.
    #[inline]
    fn shut(&self, rings: &CrossRings, granules: u64) -> Option<(EdgeId, StallReason)> {
        let first = granule_end(0, granules, self.reps);
        if let Some(&(e, _)) = self
            .ins
            .iter()
            .find(|&&(e, n)| (rings.get(e).len() as u64) < n * first)
        {
            return Some((e, StallReason::ProducerEmpty));
        }
        self.outs
            .iter()
            .find(|&&(e, n)| (rings.get(e).space() as u64) < n)
            .map(|&(e, _)| (e, StallReason::ConsumerFull))
    }
}

/// Stall attribution: the first shut gate among this worker's
/// unfinished, limit-eligible segments, named — which ring starves or
/// backpressures which segment, and which peer segment is on its other
/// end. Only called on the stall path, and only when tracing is
/// enabled, so the scan itself never pays for it.
fn blocking_edge(
    g: &ccs_graph::StreamGraph,
    plan: &ExecPlan,
    rings: &CrossRings,
    tasks: &[SegTask],
    limit: u64,
) -> Option<Blocked> {
    tasks
        .iter()
        .filter(|t| t.done < limit)
        .find_map(|t| {
            t.start
                .shut(rings, t.granules)
                .map(|(e, reason)| (t.seg, e, reason))
        })
        .map(|(seg, e, reason)| {
            let peer = match reason {
                StallReason::ProducerEmpty => g.edge(e).src,
                StallReason::ConsumerFull => g.edge(e).dst,
            };
            Blocked {
                edge: e.idx(),
                seg,
                peer: plan.seg_of_node[peer.idx()],
                reason,
            }
        })
}

/// One worker's stall path, shared by its two kinds of wait: the scan's
/// (no segment of the worker may start) and the mid-batch one (a
/// running batch's next granule is not in yet).
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
    /// `Stall` span blamed on `blocked`. Returns the time it took.
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

/// Everything one worker thread needs, bundled so the spawn site stays
/// readable.
struct WorkerCtx<'a> {
    g: &'a ccs_graph::StreamGraph,
    plan: &'a ExecPlan,
    rings: &'a CrossRings,
    gate: &'a ProgressGate,
    barrier: &'a Rendezvous,
    worker: usize,
    binding: Option<CoreBinding>,
    cplan: CounterPlan,
    obs: ObsPlan,
    /// Cross edges this worker consumes from, whose rings it faults in
    /// before the start line; `None` when first-touch placement is off.
    touch: Option<Vec<EdgeId>>,
    tasks: Vec<SegTask>,
    rounds: u64,
}

fn worker_loop(ctx: WorkerCtx<'_>) -> (Vec<SegTask>, WorkerStats) {
    let WorkerCtx {
        g,
        plan,
        rings,
        gate,
        barrier,
        worker,
        binding,
        cplan,
        obs,
        touch,
        mut tasks,
        rounds,
    } = ctx;
    let mut poison_guard = PoisonOnUnwind {
        gate,
        worker,
        seg: None,
    };
    // Pin first, then open counters: the self-monitoring group then
    // counts this thread on the core the placement chose for it.
    let pinned_cpu = binding.and_then(|b| pin_current_thread(b.cpu).pinned().then_some(b.cpu));
    let mut tracer = if obs.trace {
        Tracer::on(obs.capacity)
    } else {
        Tracer::off()
    };
    // First-touch before anything flows: fault in the rings this worker
    // consumes from, then wait at the start line so no producer can push
    // into a ring a (slower) consumer has not touched yet.
    let rings_touched = match &touch {
        Some(list) => {
            for &e in list {
                rings.get(e).first_touch();
                tracer.record(
                    obs.clock.now_ns(),
                    0,
                    EventKind::RingFirstTouch { ring: e.idx() },
                );
            }
            barrier.wait(gate);
            list.len() as u64
        }
        None => 0,
    };
    let counter_set = if cplan.requested {
        ccs_perf::CounterBuilder::cache_suite().open_self_thread()
    } else {
        ccs_perf::CounterSet::unavailable("counters not requested")
    };
    let mut stats = WorkerStats {
        worker,
        segments: tasks.iter().map(|t| t.seg).collect(),
        firings: 0,
        batches: 0,
        stalls: 0,
        stall_time: Duration::ZERO,
        busy: Duration::ZERO,
        pinned_cpu,
        counters: None,
        warmup_excluded: 0,
        segment_counters: Vec::new(),
        rings_touched,
        windows: Vec::new(),
        trace: None,
    };
    let mut stalls = Stalls::new(gate);
    // Steady-state gate: flips once every owned segment has executed
    // its warmup batches, at which point the group is zeroed so the
    // worker's final sample covers only post-warmup work. Checked at
    // the top of a scheduling pass — never between a counting window's
    // two reads — so per-segment windows always lie inside the
    // post-reset region and their raw sums stay <= the worker total.
    // The scan below additionally caps every segment at the warmup
    // window until the all-worker rendezvous, so the reset happens with
    // *every* segment in the run at exactly `warmup` batches and the
    // worker aggregate is exact.
    let mut warmed = cplan.warmup == 0;
    // Counter windows ride on *cumulative* group reads differenced by
    // `delta_since`, so they never reset the group and cannot disturb
    // the end-of-run totals. The only reset in play is the warmup one,
    // which flushes the open window and re-baselines below.
    let mut wins = WindowSampler::new(obs.window);
    counter_set.reset();
    counter_set.enable();
    if wins.enabled() {
        wins.start(obs.clock.now_ns(), counter_set.sample());
    }
    'run: loop {
        // Epoch snapshot *before* scanning: progress a peer makes during
        // the scan moves the epoch past this value, so a post-scan park
        // re-checks immediately instead of sleeping through the wakeup.
        let epoch = gate.epoch.load(Ordering::SeqCst);
        if gate.poisoned() {
            break;
        }
        if !warmed && tasks.iter().all(|t| t.done >= cplan.warmup) {
            if cplan.epoch {
                // Capped at the window, every worker lands here with all
                // of its segments at exactly `warmup` batches; the
                // rendezvous makes the reset a run-wide instant.
                barrier.wait(gate);
            }
            // The reset zeroes the cumulative reads any open counter
            // window is baselined on: flush the partial window first,
            // then re-baseline on the post-reset (zeroed) group.
            wins.flush(obs.clock.now_ns(), || counter_set.sample());
            counter_set.reset();
            if wins.enabled() {
                wins.rebaseline(obs.clock.now_ns(), counter_set.sample());
            }
            tracer.record(obs.clock.now_ns(), 0, EventKind::WarmupReset);
            stats.warmup_excluded = stats.batches;
            warmed = true;
        }
        // Pre-rendezvous, segments are confined to the warmup
        // window (a `rounds = warmup` prefix run, so it terminates by
        // the same argument as the run itself).
        let limit = if cplan.epoch && !warmed {
            cplan.warmup
        } else {
            rounds
        };
        let mut progressed = false;
        let mut all_done = true;
        for task in tasks.iter_mut() {
            if task.done >= rounds {
                continue;
            }
            all_done = false;
            if task.done >= limit || task.start.shut(rings, task.granules).is_some() {
                continue;
            }
            // Per-segment counting window: post-warmup (both this
            // segment's and the worker-level reset), on-stride batches.
            // `sample()` is None when no group opened, so the window
            // quietly disappears on the Unavailable path.
            let window = cplan.per_segment
                && warmed
                && task.done >= cplan.warmup
                && (task.done - cplan.warmup).is_multiple_of(cplan.stride);
            let before = if window { counter_set.sample() } else { None };
            // Whatever stall came before this batch is over.
            stalls.end();
            let t0 = Instant::now();
            poison_guard.seg = Some(task.seg);
            let mut handoff = Granules {
                g,
                plan,
                seg: task.seg,
                granules: task.granules,
                stalls: &mut stalls,
                tracer: &mut tracer,
                clock: &obs.clock,
                waited: Duration::ZERO,
            };
            let fired = run_fused_batch(plan, rings, task, &mut handoff);
            let waited = handoff.waited;
            if fired.is_err() {
                // A peer unwound: this batch will never get its inputs.
                break 'run;
            }
            poison_guard.seg = None;
            stats.firings += plan.segments[task.seg].batch_firings();
            let dur = t0.elapsed();
            let busy = dur.saturating_sub(waited);
            stats.busy += busy;
            task.granules = granules(plan.segments[task.seg].reps, Some(busy));
            tracer.record(
                obs.clock.offset_ns(t0),
                dur.as_nanos() as u64,
                EventKind::Batch { seg: task.seg },
            );
            if tracer.enabled() {
                // Ring occupancy at the batch boundary: one instant per
                // ring this segment touches, all on one timestamp.
                let now = obs.clock.now_ns();
                let s = &plan.segments[task.seg];
                for &(e, _) in s.in_batch.iter().chain(s.out_batch.iter()) {
                    let r = rings.get(e);
                    tracer.record(
                        now,
                        0,
                        EventKind::RingOccupancy {
                            ring: e.idx(),
                            len: r.len() as u64,
                            cap: r.capacity() as u64,
                        },
                    );
                }
            }
            if let Some(before) = before {
                if let Some(after) = counter_set.sample() {
                    task.acc.sample.merge(&after.delta_since(&before));
                    task.acc.batches_counted += 1;
                }
            }
            if cplan.per_segment {
                task.acc.batches += 1;
            }
            task.done += 1;
            stats.batches += 1;
            if wins.enabled() {
                if let Some(index) = wins.on_batch(obs.clock.now_ns(), || counter_set.sample()) {
                    tracer.record(obs.clock.now_ns(), 0, EventKind::Window { index });
                }
            }
            progressed = true;
            gate.batch_done(dur);
        }
        if all_done {
            break;
        }
        if progressed {
            continue;
        }
        // Attribute the stall while the blocking ring state is current
        // (before yielding lets a peer drain or fill it).
        let blocked = if tracer.enabled() {
            blocking_edge(g, plan, rings, &tasks, limit)
        } else {
            None
        };
        stalls.pass(epoch, blocked, &mut tracer, &obs.clock);
    }
    stalls.end();
    stats.stalls = stalls.count;
    stats.stall_time = stalls.time;
    stats.windows = wins.finish(obs.clock.now_ns(), || counter_set.sample());
    counter_set.disable();
    stats.counters = counter_set.sample();
    stats.segment_counters = if cplan.per_segment {
        tasks.iter().map(|t| t.acc.clone()).collect()
    } else {
        Vec::new()
    };
    stats.trace = tracer.finish();
    (tasks, stats)
}

/// One port's place in the running batch: where its next run-long view
/// starts and how far each block moves it on.
struct Cursor {
    ptr: *mut f32,
    len: usize,
    stride: usize,
}

/// How a batch step hands its outputs over and waits for its inputs:
/// the one thing the two executors do differently inside a batch.
pub(crate) trait Handoff {
    /// Why a wait may give up.
    type Abandon;

    /// Granules to publish the batch in (taken as `1..=reps`).
    fn granules(&self) -> u64;

    /// Return once `ring`, the ring of cross edge `edge`, holds at least
    /// `items` — the prefix of this batch's window the next granule
    /// reads — or give up, leaving the batch unfinished.
    fn wait(&mut self, edge: EdgeId, ring: &SpscRing, items: usize) -> Result<(), Self::Abandon>;

    /// A granule other than the batch's last has just been committed.
    fn published(&mut self);
}

/// The serial executor's handoff: segments take turns, a whole batch
/// each, so a batch is one granule and finds all its inputs in place.
pub(crate) struct WholeBatch;

impl Handoff for WholeBatch {
    type Abandon = std::convert::Infallible;

    fn granules(&self) -> u64 {
        1
    }

    fn wait(&mut self, edge: EdgeId, _: &SpscRing, items: usize) -> Result<(), Self::Abandon> {
        unreachable!(
            "edge {}: a whole batch is short of {items} items",
            edge.idx()
        )
    }

    fn published(&mut self) {}
}

/// A peer worker unwound, so the batch waiting on it was left unfinished.
struct Abandoned;

/// The threaded executor's handoff: a batch in up to [`GRANULES`]
/// granules, each announced on the progress gate as soon as it is
/// committed, and a wait for a granule's inputs that is the worker's own
/// stall path — counted and timed as stall, traced as a `Stall` blamed
/// on the starved edge.
struct Granules<'a, 'g> {
    g: &'a ccs_graph::StreamGraph,
    plan: &'a ExecPlan,
    /// The segment whose batch this is.
    seg: usize,
    /// Granules to publish it in.
    granules: u64,
    stalls: &'a mut Stalls<'g>,
    tracer: &'a mut Tracer,
    clock: &'a Clock,
    /// Time the batch spent waiting so far.
    waited: Duration,
}

impl Handoff for Granules<'_, '_> {
    type Abandon = Abandoned;

    fn granules(&self) -> u64 {
        self.granules
    }

    fn wait(&mut self, edge: EdgeId, ring: &SpscRing, items: usize) -> Result<(), Abandoned> {
        let blocked = self.tracer.enabled().then(|| Blocked {
            edge: edge.idx(),
            seg: self.seg,
            peer: self.plan.seg_of_node[self.g.edge(edge).src.idx()],
            reason: StallReason::ProducerEmpty,
        });
        self.stalls.end();
        loop {
            // Epoch before the check, as in the scan: a commit that the
            // check misses moves the epoch past it.
            let epoch = self.stalls.gate.epoch.load(Ordering::SeqCst);
            if ring.len() >= items {
                break;
            }
            if self.stalls.gate.poisoned() {
                return Err(Abandoned);
            }
            self.waited += self.stalls.pass(epoch, blocked, self.tracer, self.clock);
        }
        self.stalls.end();
        Ok(())
    }

    fn published(&mut self) {
        self.stalls.gate.bump();
    }
}

/// One batch of `fp`, published in granules: take every cross edge's
/// window of ring storage — a `reserve` of the whole batch per output
/// ring, a `peek` per input ring of the prefix the first granule reads —
/// then, granule by granule, run the granule's blocks with each entry —
/// a run of `count` consecutive firings of one member — dispatched once,
/// through `fire_n(local, count, inputs, outputs)` on run-long views of
/// the arena and of those windows, and `commit` what the granule wrote.
/// Before each later granule every input ring is re-`peek`ed, from the
/// same head, for the longer prefix that granule reads, after
/// [`Handoff::wait`] if it is not in yet; after the last, every input is
/// `release`d. No copy; internal edges never touch a ring. The batch
/// step of both executors: the threaded one ([`run_fused_batch`],
/// [`Granules`]) and the one-thread one (`serial_fused`, [`WholeBatch`]:
/// one granule, so one bulk protocol op per edge per batch). The caller
/// has checked that every output ring has room for the whole batch and
/// every input ring holds the first granule's prefix.
pub(crate) fn fire_arena_plan<H, F>(
    fp: &ccs_partition::FiringPlan,
    rings: &CrossRings,
    arena: &mut [f32],
    handoff: &mut H,
    mut fire_n: F,
) -> Result<(), H::Abandon>
where
    H: Handoff,
    F: FnMut(usize, usize, &[&[f32]], &mut [&mut [f32]]),
{
    assert!(arena.len() >= fp.arena_len, "arena shorter than its plan");
    let reps = fp.reps;
    let granules = handoff.granules().clamp(1, reps.max(1));
    // Items of a window one block moves: block r touches exactly
    // `[r·share, (r+1)·share)` of it (`compile_firing_plan` proved so),
    // so the first `b` blocks touch its first `b·share` items.
    let share = |io: &BoundaryIo, blocks: u64| io.items / reps as usize * blocks as usize;
    // The first `items` of load `io`'s window, once a wait has seen them
    // committed: where they start.
    let prefix = |io: &BoundaryIo, items: usize, h: &mut H| -> Result<*const f32, H::Abandon> {
        let ring = rings.get(io.edge);
        if ring.len() < items {
            h.wait(io.edge, ring, items)?;
        }
        let (first, second) = ring.peek(items);
        assert!(
            first.len() == items && second.is_empty(),
            "input window wraps"
        );
        Ok(first.as_ptr())
    };
    // The bases `ArenaSpan::base` indexes: the arena, then each window.
    // A ring of two batches is two batch-sized halves and its head and
    // tail end every batch on a half, so a window never straddles the
    // end of its buffer.
    let mut bases: Vec<*mut f32> = Vec::with_capacity(1 + fp.loads.len() + fp.stores.len());
    bases.push(arena.as_mut_ptr());
    let first_end = granule_end(0, granules, reps);
    for io in &fp.loads {
        // The one place a peeked window loses its `const`: the table
        // holds one pointer type. Only input views are built on it.
        bases.push(prefix(io, share(io, first_end), handoff)?.cast_mut());
    }
    for io in &fp.stores {
        let (first, second) = rings.get(io.edge).reserve(io.items);
        assert!(
            first.len() == io.items && second.is_empty(),
            "output window wraps"
        );
        bases.push(first.as_mut_ptr());
    }
    // Sized once per batch: view buffers for the block's widest entry,
    // and the span slab resolved to pointers that move on by their
    // stride at each use — the loop adds where it would multiply, and
    // reads and writes one sequential stream.
    let widest_in = fp.firings.iter().map(|f| f.inputs.len()).max();
    let widest_out = fp.firings.iter().map(|f| f.outputs.len()).max();
    let mut ins: Vec<&[f32]> = Vec::with_capacity(widest_in.unwrap_or(0));
    let mut outs: Vec<&mut [f32]> = Vec::with_capacity(widest_out.unwrap_or(0));
    let mut cur: Vec<Cursor> = fp
        .spans
        .iter()
        .map(|s| Cursor {
            ptr: bases[s.base].wrapping_add(s.offset),
            len: s.len,
            stride: s.stride,
        })
        .collect();
    // SAFETY (covers every `unsafe` below): all port views are
    // raw-pointer slices into the arena or into one of the windows
    // taken above. `compile_firing_plan` proved of every span that
    // `offset + (reps - 1)·stride + len` is at most its base's length —
    // `arena_len`, which the first assert holds the arena to, or the
    // window's `items`, which the window asserts hold each window to —
    // so every run-long view lies inside its base. The bases do not
    // overlap: the arena is this segment's own allocation, and the
    // rings are runs of one other, the slab `CrossRings::build` laid
    // out. `BoundaryLayout::check` proved of that layout, in release
    // builds too, that two rings share words of the slab only if no
    // segment's turn falls in both their lifetimes. All rings incident
    // to this segment are live at its turn, hence pairwise disjoint;
    // and a ring this one shares words with is used only by segments
    // whose turns lie wholly before or after this ring's lifetime —
    // under `Lifetimes::BySchedule` segments take turns, one whole
    // batch each, and windows exist only inside this call, so none of
    // that ring's is open now; under `Lifetimes::WholeRun` no ring
    // shares words at all.
    //
    // Where this segment's window shares a *ring* with the peer
    // segment's, the two touch disjoint slots at every instant, because
    // `compile_firing_plan` also proved that a window span of block `r`
    // stays inside `[r·share, (r+1)·share)`, so the views of blocks
    // before `b` lie in the window's first `b·share` items. A load view
    // is built only over a prefix a wait saw committed: before the
    // granule that ends at block `b`, `prefix` peeked the first
    // `b·share` items — `peek` asserts they are occupied, and its
    // acquire of the tail orders the producer's writes before our
    // reads — from the head the first peek started at (only this
    // consumer moves it, at the `release` below), and asserted they do
    // not wrap; the producer writes only free slots, past them. A store
    // span already committed is never written again: the granule that
    // starts at block `a` writes only `[a·share, b·share)` of each store
    // window, past everything earlier granules committed, and commits
    // exactly that after its last firing; the consumer reads only
    // committed slots, and the whole window was reserved free up
    // front, so its head cannot come back into it. Within a base,
    // stream regions are pairwise disjoint and a node's input and
    // output edges are distinct (the graph is a dag, so no self-loops),
    // hence one entry's views never alias. A stride-0 internal region
    // is rewritten only in the next block, after this block has drained
    // it: `compile_firing_plan` checked that a block consumes exactly
    // what it produces on every internal edge. It also proved that
    // spans based on a load window are inputs only, so a peeked window
    // is read, never written. Both view buffers are emptied before any
    // view of the next entry is built, so views of different entries
    // never coexist; nothing else touches the arena while they are
    // live; and no pointer outlives this call, so a window outlives no
    // batch. After the last block a cursor has moved one stride past
    // its last view, possibly past its base — hence the wrapping adds —
    // and is not used again.
    let mut done = 0;
    for j in 0..granules {
        let end = granule_end(j, granules, reps);
        if j > 0 {
            for (io, &base) in fp.loads.iter().zip(&bases[1..]) {
                let at = prefix(io, share(io, end), handoff)?;
                assert!(std::ptr::eq(at, base), "input window moved");
            }
        }
        for _ in done..end {
            for f in &fp.firings {
                ins.clear();
                outs.clear();
                ins.extend(cur[f.inputs.clone()].iter_mut().map(|c| {
                    let view = unsafe { std::slice::from_raw_parts(c.ptr, c.len) };
                    c.ptr = c.ptr.wrapping_add(c.stride);
                    view
                }));
                outs.extend(cur[f.outputs.clone()].iter_mut().map(|c| {
                    let view = unsafe { std::slice::from_raw_parts_mut(c.ptr, c.len) };
                    c.ptr = c.ptr.wrapping_add(c.stride);
                    view
                }));
                fire_n(f.local, f.count, &ins, &mut outs);
            }
        }
        let last = end == reps;
        if last {
            for io in &fp.loads {
                rings.get(io.edge).release(io.items);
            }
        }
        for io in &fp.stores {
            rings.get(io.edge).commit(share(io, end - done));
        }
        if !last {
            handoff.published();
        }
        done = end;
    }
    Ok(())
}

/// Execute one batch of `task`'s segment through its compiled plan
/// ([`fire_arena_plan`]), handing it off through `handoff`. The firings
/// are the reference interpreter's for the same round, in block order,
/// so the sink digest is bit-identical by SDF determinism.
fn run_fused_batch(
    plan: &ExecPlan,
    rings: &CrossRings,
    task: &mut SegTask,
    handoff: &mut Granules<'_, '_>,
) -> Result<(), Abandoned> {
    let SegTask { arena, kernels, .. } = task;
    fire_arena_plan(
        &plan.fused[task.seg],
        rings,
        &mut arena[ARENA_PAD..],
        handoff,
        |local, count, ins, outs| {
            kernels[local].fire_n(count, ins, outs);
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccs_graph::gen::{self, LayeredCfg, PipelineCfg, StateDist};
    use ccs_partition::dag_greedy;
    use ccs_sched::partitioned;
    use ccs_topo::TopoSpec;

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
                    execute_dag(inst, &ra, &p, 48, 3, workers, Placement::RoundRobin).unwrap();
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
            for placement in [Placement::RoundRobin, Placement::CommGreedy, Placement::Llc] {
                let inst = Instance::synthetic(g.clone());
                let stats = execute_dag(inst, &ra, &pp.partition, 48, 2, 3, placement).unwrap();
                assert_eq!(
                    stats.run.digest, want,
                    "seed {seed} placement {placement:?}"
                );
            }
        }
    }

    #[test]
    fn firings_and_sink_items_are_exact() {
        let g = gen::pipeline_uniform(8, 32);
        let ra = RateAnalysis::analyze_single_io(&g).unwrap();
        let p = dag_greedy::greedy_topo(&g, 64);
        let inst = Instance::synthetic(g.clone());
        let stats = execute_dag(inst, &ra, &p, 16, 4, 2, Placement::RoundRobin).unwrap();
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
        let stats = execute_dag(inst, &ra, &p, 32, 2, 4, Placement::CommGreedy).unwrap();
        assert_eq!(stats.segments, 1);
        assert_eq!(stats.run.digest, want);
    }

    #[test]
    fn zero_rounds_is_a_noop() {
        let g = gen::pipeline_uniform(4, 8);
        let ra = RateAnalysis::analyze_single_io(&g).unwrap();
        let p = dag_greedy::greedy_topo(&g, 16);
        let inst = Instance::synthetic(g.clone());
        let stats = execute_dag(inst, &ra, &p, 8, 0, 2, Placement::RoundRobin).unwrap();
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
        let stats = execute_dag(inst, &ra, &p, 32, 8, 8, Placement::RoundRobin).unwrap();
        assert_eq!(stats.run.digest, want);
        // Stall wall-clock is measured (some worker must have waited).
        assert!(stats.total_stalls() > 0);
        assert!(stats.total_stall_time() > Duration::ZERO);
    }

    #[test]
    fn pinned_run_matches_unpinned_digest() {
        let g = gen::pipeline_uniform(10, 32);
        let ra = RateAnalysis::analyze_single_io(&g).unwrap();
        let p = dag_greedy::greedy_topo(&g, 64);
        let topo = Topology::synthetic(&TopoSpec::new(1, 2, 2));
        let mut digests = Vec::new();
        for pin in [false, true] {
            let cfg = RunConfig::new(3)
                .with_placement(Placement::Llc)
                .with_topology(topo.clone())
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
    fn run_config_builder() {
        let topo = Topology::single_cluster(2);
        let cfg = RunConfig::new(4)
            .with_placement(Placement::Llc)
            .with_topology(topo)
            .with_pinning(true);
        assert_eq!(cfg.workers, 4);
        assert_eq!(cfg.placement, Placement::Llc);
        assert!(cfg.pin_cores);
        assert!(cfg.topology.is_some());
    }
}
