//! One worker's batch step, turned inside out: the step returns and its
//! driver decides what a shut gate or a missing granule costs.
//!
//! A [`WorkerStep`] owns the [`SegTask`]s placed on one worker and runs
//! one batch of one of them at a time, in four calls:
//!
//! * [`poll`](WorkerStep::poll) scans the start gates in placement order
//!   and returns a task whose batch may start, or the [`Blocked`] of the
//!   first shut gate — which ring keeps which segment from starting,
//!   and which segment is on its other end: the stall's blame;
//! * [`begin`](WorkerStep::begin) starts that batch;
//! * [`fire_granule`](WorkerStep::fire_granule) fires the batch's next
//!   granule and commits what it wrote, or — when an input ring does not
//!   hold the prefix of its window the granule reads yet — fires and
//!   commits nothing and returns that ring's [`Blocked`], leaving the
//!   batch to resume at the same granule;
//! * [`finish`](WorkerStep::finish) ends the batch.
//!
//! In a run that deals its tasks again after round 0, the scan returns
//! [`Poll::Boundary`] once all of them are past it, and the worker
//! crosses the [`Boundary`]: it hands its tasks in and, once every
//! worker has, takes the share the placement gives it.
//!
//! Nothing in the step waits. Two drivers share it and the boundary:
//! the worker loop of [`crate::run::execute_dag_cfg`], which takes its
//! stall path on every `Blocked` and while it waits for the deal — or,
//! as a run's only worker, one step over every segment
//! that its scan takes in plan order a granule a batch, panics on one;
//! and a test-only driver (`explore`) that steps W workers on one thread
//! in an order drawn from a seed, so that any granule-level interleaving
//! replays and a deadlock is a typed error instead of a hang. [`Meter`]
//! is the counter and window sequence the worker loop runs around the
//! step.

use crate::plan::{CrossRings, ExecPlan, SegmentPlan};
use crate::stats::SegmentCounters;
use ccs_graph::{EdgeId, StreamGraph};
use ccs_obs::{Blocked, Clock, EventKind, StallReason, Tracer, WindowSample, WindowSampler};
use ccs_partition::BoundaryIo;
use ccs_perf::{CounterSample, CounterSet};
use ccs_runtime::kernel::Kernel;
use std::time::Duration;

/// Unused items on either side of a segment's arena: 128 bytes, a cache
/// line and the neighbour the adjacent-line prefetcher pairs it with.
/// An arena holds only the segment's internal streams — often a few
/// dozen words, rewritten at every firing — and the allocator packs
/// small blocks side by side, so unpadded, two workers' hottest lines
/// are one line (measured: `thin-dag` at two workers fired 1.9× slower).
pub(crate) const ARENA_PAD: usize = 32;

/// One segment's runtime state: kernels, the batch arena and the
/// counter tally, owned by one worker at a time — the same one for the
/// whole run unless a [`Boundary`] deals it to another.
pub(crate) struct SegTask {
    pub(crate) seg: usize,
    /// Batches completed so far.
    pub(crate) done: u64,
    /// Kernels, parallel to `plan.segments[seg].nodes`.
    kernels: Vec<Box<dyn Kernel>>,
    /// The batch's scratch arena ([`ccs_partition::FiringPlan`]
    /// layout) between [`ARENA_PAD`] unused items on either side. A full
    /// batch drains every internal stream, so it carries no data across
    /// batch boundaries.
    arena: Vec<f32>,
    /// When a batch of this segment may start.
    start: StartGate,
    /// Granules its next batch is published in (taken as `1..=reps`).
    pub(crate) granules: u64,
    /// Busy time of its first batch: what the measured placement
    /// balances (zero until that batch is done).
    pub(crate) first_busy: Duration,
    /// The hardware counters of its batches, which the thread driver
    /// tallies when counters are on.
    pub(crate) counters: SegmentCounters,
}

/// One task per segment of `plan`, in plan order: its nodes' kernels,
/// taken out of `kernels` (indexed by node), its start gate over
/// `rings`, and its first batch to be published in `granules(segment)`
/// granules.
pub(crate) fn seg_tasks(
    plan: &ExecPlan,
    rings: &CrossRings,
    kernels: Vec<Box<dyn Kernel>>,
    mut granules: impl FnMut(&SegmentPlan) -> u64,
) -> Vec<SegTask> {
    let mut slots: Vec<Option<Box<dyn Kernel>>> = kernels.into_iter().map(Some).collect();
    plan.segments
        .iter()
        .enumerate()
        .map(|(seg, s)| SegTask {
            seg,
            done: 0,
            kernels: s
                .nodes
                .iter()
                .map(|&v| slots[v.idx()].take().expect("each node once"))
                .collect(),
            arena: vec![0.0f32; plan.fused[seg].arena_len + 2 * ARENA_PAD],
            start: StartGate::new(s, rings),
            granules: granules(s),
            first_busy: Duration::ZERO,
            counters: SegmentCounters {
                seg,
                ..SegmentCounters::default()
            },
        })
        .collect()
}

/// Tasks (or anything else kept per segment) in plan order dealt to the
/// workers `owner` names, so each worker's are in plan order too.
pub(crate) fn deal<T>(tasks: Vec<T>, owner: &[usize], workers: usize) -> Vec<Vec<T>> {
    let mut per_worker: Vec<Vec<T>> = (0..workers).map(|_| Vec::new()).collect();
    for (task, &w) in tasks.into_iter().zip(owner) {
        per_worker[w].push(task);
    }
    per_worker
}

/// The digest of the sink's kernel, among `tasks`.
pub(crate) fn sink_digest<'t>(
    g: &StreamGraph,
    plan: &ExecPlan,
    tasks: impl IntoIterator<Item = &'t SegTask>,
) -> Option<u64> {
    let s = g.single_sink()?;
    let seg = plan.seg_of_node[s.idx()];
    let i = plan.segments[seg].nodes.iter().position(|&v| v == s)?;
    tasks.into_iter().find(|t| t.seg == seg)?.kernels[i].digest()
}

/// A tracer that records, or one that is a never-taken branch.
pub(crate) fn tracer(on: bool, capacity: usize) -> Tracer {
    if on {
        Tracer::on(capacity)
    } else {
        Tracer::off()
    }
}

/// Record a batch of segment `seg` as a span of `dur_ns` from
/// `start_ns`, then the occupancy of every ring the segment reads or
/// writes at the span's end. Nothing when the tracer is off.
pub(crate) fn record_batch(
    tracer: &mut Tracer,
    plan: &ExecPlan,
    rings: &CrossRings,
    seg: usize,
    start_ns: u64,
    dur_ns: u64,
) {
    if !tracer.enabled() {
        return;
    }
    tracer.record(start_ns, dur_ns, EventKind::Batch { seg });
    let s = &plan.segments[seg];
    for &(e, _) in s.in_batch.iter().chain(&s.out_batch) {
        let r = rings.get(e);
        let (len, cap) = (r.len() as u64, r.capacity() as u64);
        let ring = e.idx();
        tracer.record(
            start_ns + dur_ns,
            0,
            EventKind::RingOccupancy { ring, len, cap },
        );
    }
}

/// Blocks fired by the end of granule `j` of `granules`, out of `reps`:
/// the cut is on block boundaries and as even as they allow.
fn granule_end(j: u64, granules: u64, reps: u64) -> u64 {
    (j + 1) * reps / granules
}

/// The §3 gate, generalized to dags, to granule handoff and to storage
/// shared in one round — the one rule for starting a batch: every output
/// ring has room for the whole batch, every input ring holds what the
/// batch's first granule reads, and every ring whose storage an output
/// ring takes has been released for good. A started batch therefore
/// never waits on an output or on storage, and waits on an input only
/// for a producer that has begun the same batch.
///
/// The storage wait, which only one-round runs have, cannot deadlock:
/// each ring waited on is consumed at least one segment before the
/// waiting producer in plan order (`BoundaryLayout::check`). The
/// earliest segment that has begun and not finished has every producer
/// finished — they are earlier, and began before it — so it runs to its
/// end. With none such, every worker is between batches, and the
/// earliest segment not yet begun finds its inputs in, its outputs
/// empty and every ring it waits on released by segments that finished.
struct StartGate {
    /// Blocks per batch.
    reps: u64,
    /// Input edges and the items one block reads from each.
    ins: Vec<(EdgeId, u64)>,
    /// Output edges and the items one batch writes to each.
    outs: Vec<(EdgeId, u64)>,
    /// Edges of the rings whose storage the output rings take
    /// (`CrossRings::after`): empty unless the run shares storage.
    after: Vec<EdgeId>,
}

impl StartGate {
    fn new(seg: &SegmentPlan, rings: &CrossRings) -> StartGate {
        let mut after: Vec<EdgeId> = seg
            .out_batch
            .iter()
            .flat_map(|&(e, _)| rings.after(e))
            .copied()
            .collect();
        after.sort_unstable_by_key(|e| e.idx());
        after.dedup();
        StartGate {
            reps: seg.reps,
            ins: seg
                .in_batch
                .iter()
                .map(|&(e, n)| (e, n / seg.reps))
                .collect(),
            outs: seg.out_batch.clone(),
            after,
        }
    }

    /// The first ring that keeps a batch published in `granules` from
    /// starting, and how, or `None` when it may start. A storage wait is
    /// blamed like a full output ring — its consumer has not freed it —
    /// on the ring whose storage is taken, and so on that ring's
    /// consumer segment.
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
            .map(|&(e, _)| e)
            .or_else(|| {
                self.after
                    .iter()
                    .copied()
                    .find(|&e| !rings.get(e).lap_released())
            })
            .map(|e| (e, StallReason::ConsumerFull))
    }
}

/// Segment `seg` cannot go on for ring `e`, named with the segment on
/// the ring's other end.
fn blocked(
    g: &StreamGraph,
    plan: &ExecPlan,
    seg: usize,
    e: EdgeId,
    reason: StallReason,
) -> Blocked {
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
}

/// One port's place in the running batch: where its next run-long view
/// starts and how far each block moves it on — 0 on the arena, where
/// every block reuses the same items, and one block's share of a window.
struct Cursor {
    ptr: *mut f32,
    len: usize,
    stride: usize,
}

impl Cursor {
    /// Hand the view of block `r` on: move to block `r + 1`'s and
    /// prefetch its first line, if [`ahead`](Self::ahead) names one.
    #[inline(always)]
    fn advance(&mut self, store: bool, r: u64, end: u64, reps: u64) {
        self.ptr = self.ptr.wrapping_add(self.stride);
        if let Some(line) = self.ahead(store, r, end, reps) {
            ccs_runtime::prefetch::line(line, store);
        }
    }

    /// The line an input view (an output one if `store`) fetches while
    /// block `r` of `reps` fires, in a granule that ends at block `end`,
    /// once the cursor has moved to block `r + 1`'s view: that view's
    /// first, or `None`. One block is the distance the plan gives: the
    /// view of the same run one period on. A store window was reserved
    /// whole, so any block of it is fetched, for writing. A load window
    /// is read only in the prefix the granule's peek saw committed —
    /// blocks before `end`, `[0, end·share)` — so block `r + 1` is
    /// fetched only if it lies in the granule: a consumer does not reach
    /// past that prefix into slots its producer may still be writing.
    /// Past the last block there is no view, and the arena (stride 0)
    /// is in cache already.
    #[inline(always)]
    fn ahead(&self, store: bool, r: u64, end: u64, reps: u64) -> Option<*const f32> {
        let last = if store { reps } else { end };
        (self.stride != 0 && r + 1 < last).then_some(self.ptr.cast_const())
    }
}

/// The batch under way.
struct Batch {
    /// Its task's position in [`WorkerStep::tasks`].
    task: usize,
    /// Granules it is published in.
    granules: u64,
    /// The granule to fire next.
    next: u64,
    /// Blocks fired so far.
    fired: u64,
    /// Ports of the block's widest entry, a side: what a view buffer
    /// holds at most.
    widest: (usize, usize),
}

/// What a worker's scan found ([`WorkerStep::poll`]).
pub(crate) enum Poll {
    /// The batch of the task at this position may start.
    Start(usize),
    /// No task may start: the first shut gate's blame.
    Blocked(Blocked),
    /// Every task is past round 0, and the tasks are dealt again.
    Boundary,
    Done,
}

/// One worker's tasks and the batch it has under way (module doc).
pub(crate) struct WorkerStep<'a> {
    g: &'a StreamGraph,
    plan: &'a ExecPlan,
    rings: &'a CrossRings,
    /// The worker's tasks, in placement order. Private, like the rest:
    /// the window pointers of the batch under way point into one of
    /// them.
    tasks: Vec<SegTask>,
    /// The round the tasks run to: 1 before a [`Boundary`], else `rounds`.
    until: u64,
    rounds: u64,
    batch: Option<Batch>,
    /// The bases `ArenaSpan::base` indexes, for the batch under way: the
    /// arena, then each load window, then each store window.
    bases: Vec<*mut f32>,
    /// The batch's span slab resolved to pointers that move on by their
    /// stride at each use — the loop adds where it would multiply, and
    /// reads and writes one sequential stream.
    cur: Vec<Cursor>,
}

impl<'a> WorkerStep<'a> {
    /// A step over `tasks` for a run of `rounds` rounds, which crosses a
    /// [`Boundary`] after round 0 if `boundary`.
    pub(crate) fn new(
        g: &'a StreamGraph,
        plan: &'a ExecPlan,
        rings: &'a CrossRings,
        tasks: Vec<SegTask>,
        rounds: u64,
        boundary: bool,
    ) -> WorkerStep<'a> {
        WorkerStep {
            g,
            plan,
            rings,
            tasks,
            until: if boundary { 1 } else { rounds },
            rounds,
            batch: None,
            bases: Vec::new(),
            cur: Vec::new(),
        }
    }

    /// The worker's tasks, in placement order.
    pub(crate) fn tasks(&self) -> &[SegTask] {
        &self.tasks
    }

    /// The tasks back, once the run is over.
    pub(crate) fn into_tasks(self) -> Vec<SegTask> {
        self.tasks
    }

    /// The counter tally of the task at position `i`.
    pub(crate) fn counters_mut(&mut self, i: usize) -> &mut SegmentCounters {
        &mut self.tasks[i].counters
    }

    /// The start-gate scan over the tasks from position `from` on that
    /// have not run to the step's round yet: the first whose gate is
    /// open, otherwise the first shut gate among them; with none such,
    /// the boundary if one is due, else done.
    pub(crate) fn poll(&self, from: usize) -> Poll {
        let mut shut = None;
        for (i, t) in self.tasks.iter().enumerate().skip(from) {
            if t.done >= self.until {
                continue;
            }
            match t.start.shut(self.rings, t.granules) {
                None => return Poll::Start(i),
                Some(s) => {
                    shut.get_or_insert((t.seg, s));
                }
            }
        }
        match shut {
            Some((seg, (e, reason))) => Poll::Blocked(blocked(self.g, self.plan, seg, e, reason)),
            None if self.until < self.rounds => Poll::Boundary,
            None => Poll::Done,
        }
    }

    /// Start a batch of the task at position `i`, whose gate
    /// [`poll`](Self::poll) found open: take a window of every output
    /// ring, a `reserve` of the whole batch. Fires nothing; the input
    /// windows are taken by the first granule.
    pub(crate) fn begin(&mut self, i: usize) {
        assert!(self.batch.is_none(), "a batch is already under way");
        let task = &mut self.tasks[i];
        let fp = &self.plan.fused[task.seg];
        let arena = &mut task.arena[ARENA_PAD..];
        assert!(arena.len() >= fp.arena_len, "arena shorter than its plan");
        self.bases.clear();
        self.bases.push(arena.as_mut_ptr());
        self.bases.resize(1 + fp.loads.len(), std::ptr::null_mut());
        // A ring of two batches is two batch-sized halves and its head
        // and tail end every batch on a half, and a ring of one batch
        // has the batch's window as its whole buffer, so a window never
        // straddles the end of its buffer.
        for io in &fp.stores {
            let (first, second) = self.rings.get(io.edge).reserve(io.items);
            assert!(
                first.len() == io.items && second.is_empty(),
                "output window wraps"
            );
            self.bases.push(first.as_mut_ptr());
        }
        let widest = |ports: fn(&ccs_partition::FusedFiring) -> usize| {
            fp.firings.iter().map(ports).max().unwrap_or(0)
        };
        self.batch = Some(Batch {
            task: i,
            granules: task.granules.clamp(1, fp.reps.max(1)),
            next: 0,
            fired: 0,
            widest: (widest(|f| f.inputs.len()), widest(|f| f.outputs.len())),
        });
    }

    /// Fire the next granule of the batch under way — its blocks, each
    /// entry of a block (a run of `count` consecutive firings of one
    /// member) dispatched once, through `fire_n(count, inputs, outputs)`
    /// on run-long views of the arena and the windows — and `commit` what
    /// it wrote to every output ring. `Ok(true)` when it was the batch's
    /// last, after which every input ring has been `release`d. Before it
    /// fires, every input ring is `peek`ed for the prefix of its window
    /// the granule reads — from the same head each time, so the window
    /// stays where the first granule found it. If a ring does not hold
    /// that prefix yet, nothing is fired, committed or released: the
    /// [`Blocked`] names the ring, and the next call resumes at the same
    /// granule. No copy; internal edges never touch a ring.
    pub(crate) fn fire_granule(&mut self) -> Result<bool, Blocked> {
        let b = self.batch.as_mut().expect("a batch under way");
        let task = &mut self.tasks[b.task];
        let fp = &self.plan.fused[task.seg];
        let rings = self.rings;
        let reps = fp.reps;
        let end = granule_end(b.next, b.granules, reps);
        // Items of a window one block moves: block r touches exactly
        // `[r·share, (r+1)·share)` of it (`compile_firing_plan` proved
        // so), so the first `b` blocks touch its first `b·share` items.
        let share = |io: &BoundaryIo, blocks: u64| io.items / reps as usize * blocks as usize;
        if let Some(io) = fp
            .loads
            .iter()
            .find(|io| rings.get(io.edge).len() < share(io, end))
        {
            let reason = StallReason::ProducerEmpty;
            return Err(blocked(self.g, self.plan, task.seg, io.edge, reason));
        }
        for (io, base) in fp.loads.iter().zip(&mut self.bases[1..]) {
            let items = share(io, end);
            let (first, second) = rings.get(io.edge).peek(items);
            assert!(
                first.len() == items && second.is_empty(),
                "input window wraps"
            );
            // The one place a peeked window loses its `const`: the table
            // holds one pointer type. Only input views are built on it.
            let at = first.as_ptr().cast_mut();
            if b.next == 0 {
                *base = at;
            } else {
                assert!(std::ptr::eq(at, *base), "input window moved");
            }
        }
        if b.next == 0 {
            let bases = &self.bases;
            self.cur.clear();
            self.cur.extend(fp.spans.iter().map(|s| Cursor {
                ptr: bases[s.base].wrapping_add(s.offset),
                len: s.len,
                stride: s.stride,
            }));
        }
        let mut ins: Vec<&[f32]> = Vec::with_capacity(b.widest.0);
        let mut outs: Vec<&mut [f32]> = Vec::with_capacity(b.widest.1);
        // SAFETY (covers both `unsafe` below): all port views are
        // raw-pointer slices into the arena or into one of the batch's
        // windows, through pointers this step took for the batch under
        // way and keeps between calls — the store windows in `begin`,
        // the load windows at the first granule — and re-takes for every
        // batch, so none outlives its batch. `compile_firing_plan` proved
        // of every span that `offset + (reps - 1)·stride + len` is at
        // most its base's length — `arena_len`, which `begin`'s assert
        // holds the arena to, or the window's `items`, which the window
        // asserts hold each window to — so every run-long view lies
        // inside its base. The bases do not overlap: the arena is this
        // segment's own allocation, and the rings are runs of one other,
        // the slab `CrossRings::build` laid out. `BoundaryLayout::check`
        // proved of that layout, in release builds too, that two rings
        // share words of the slab only if no segment's turn falls in
        // both their lifetimes. All rings incident to this segment are
        // live at its turn, hence pairwise disjoint. A ring this one
        // shares words with is never in use at the same time as this
        // one, for a reason that depends on the lifetimes:
        // - `Lifetimes::BySchedule`: only a run's lone worker uses it,
        //   and its scan takes the segments in plan order, each batch
        //   begun and finished before the next begins (at its turn a
        //   segment's producers have just filled its inputs and its
        //   consumers drained its outputs a pass ago, so its gate is
        //   open, and a lone worker panics rather than take another),
        //   so none of that ring's windows is open now.
        // - `Lifetimes::OneRound`: every ring carries one batch in the
        //   run. `check` also proved that a ring's `after` list names,
        //   for each of its lines, the last ring before it to hold that
        //   line. A ring's producer begins only after its start gate
        //   saw `lap_released` on each of those rings: an `Acquire`
        //   load of the head that their consumers stored with `Release`
        //   in `release`, after their last read of the window. So every
        //   access to those lines through an earlier ring — its
        //   consumer's reads, and its producer's writes, which that
        //   consumer acquired through the tail — happens before the
        //   producer's `begin`, hence before each of its writes and,
        //   through the tail again, before each read its consumer makes
        //   of what it committed. By induction down the rings that held
        //   a line before, the same holds for all of them: whichever end
        //   of a ring this segment is, no access through another ring
        //   on the same words is concurrent with its views. Later rings
        //   on this ring's lines wait in turn for its `release`, which
        //   its consumer makes after the batch's last granule fired.
        // - `Lifetimes::WholeRun`: no ring shares words at all.
        //
        // Between calls, nothing else holds a reference into the arena
        // or a window: the arena is private to this module and only
        // `begin` borrows it, which asserts that no batch is under way;
        // a ring's windows are taken only by its one producer and one
        // consumer segment, each driven by the one step that owns it.
        // Where this segment's window shares a *ring* with the peer
        // segment's, the two touch disjoint slots at every instant,
        // because `compile_firing_plan` also proved that a window span
        // of block `r` stays inside `[r·share, (r+1)·share)`, so the
        // views of blocks before `b` lie in the window's first `b·share`
        // items. A load view is built only over a prefix seen committed:
        // before the granule that ends at block `b`, the peek above took
        // the first `b·share` items — `peek` asserts they are occupied,
        // and its acquire of the tail orders the producer's writes
        // before our reads — from the head the first granule's peek
        // started at (only this consumer moves it, at the `release`
        // after the batch's last granule), and asserted they do not
        // wrap; the producer writes only free slots, past them. A store
        // span already committed is never written again: the granule
        // that starts at block `a` writes only `[a·share, b·share)` of
        // each store window, past everything earlier granules
        // committed, and commits exactly that after its last firing; the
        // consumer reads only committed slots, and the whole window was
        // reserved free up front, so its head cannot come back into it.
        // Within a base, stream regions are pairwise disjoint and a
        // node's input and output edges are distinct (the graph is a
        // dag, so no self-loops), hence one entry's views never alias. A
        // stride-0 internal region is rewritten only in the next block,
        // after this block has drained it: `compile_firing_plan` checked
        // that a block consumes exactly what it produces on every
        // internal edge. It also proved that spans based on a load
        // window are inputs only, so a peeked window is read, never
        // written. Both view buffers are emptied before any view of the
        // next entry is built, so views of different entries never
        // coexist, and no view outlives this call. After the last block
        // a cursor has moved one stride past its last view, possibly
        // past its base — hence the wrapping adds — and is not used
        // again: the next batch resolves the slab afresh. A prefetch
        // reads and writes nothing, so the lines `Cursor::ahead` names
        // touch none of this.
        for r in b.fired..end {
            for f in &fp.firings {
                ins.clear();
                outs.clear();
                ins.extend(self.cur[f.inputs.clone()].iter_mut().map(|c| {
                    // SAFETY: a read-only view inside its base, over
                    // slots nothing writes while it lives (above).
                    let view = unsafe { std::slice::from_raw_parts(c.ptr, c.len) };
                    c.advance(false, r, end, reps);
                    view
                }));
                outs.extend(self.cur[f.outputs.clone()].iter_mut().map(|c| {
                    // SAFETY: a view inside its base, over slots no other
                    // view or thread touches while it lives (above).
                    let view = unsafe { std::slice::from_raw_parts_mut(c.ptr, c.len) };
                    c.advance(true, r, end, reps);
                    view
                }));
                task.kernels[f.local].fire_n(f.count, &ins, &mut outs);
            }
        }
        let last = end == reps;
        if last {
            for io in &fp.loads {
                rings.get(io.edge).release(io.items);
            }
        }
        for io in &fp.stores {
            rings.get(io.edge).commit(share(io, end - b.fired));
        }
        b.fired = end;
        b.next += 1;
        Ok(last)
    }

    /// End the batch under way, whose last granule has fired and which
    /// kept its worker `busy` that long: its segment has one more batch
    /// done, keeps `busy` if it was the first, and publishes the next in
    /// `granules` granules.
    pub(crate) fn finish(&mut self, granules: u64, busy: Duration) {
        let b = self.batch.take().expect("a batch under way");
        let task = &mut self.tasks[b.task];
        assert_eq!(b.fired, self.plan.fused[task.seg].reps, "batch not fired");
        if task.done == 0 {
            task.first_busy = busy;
        }
        task.done += 1;
        task.granules = granules;
    }
}

/// The round boundary, where a run's tasks are dealt out again; both
/// drivers cross it. A worker whose scan finds [`Poll::Boundary`] hands
/// its tasks in. Every ring is empty by the time the last worker does,
/// since each batch of round 0 has been produced and consumed; that
/// worker asks the placement for each segment's owner, and each worker
/// then takes its share, in plan order. A driver that shares the pool
/// between threads locks it around [`cross`](Self::cross), which orders
/// everything a task's old worker did before anything its new one does.
pub(crate) struct Boundary {
    /// Which workers have handed their tasks in.
    arrived: Vec<bool>,
    /// The tasks handed in and not taken out yet, in plan order once
    /// every worker's are in.
    tasks: Vec<SegTask>,
    /// Each segment's worker past the boundary, once every task is in.
    owner: Option<Vec<usize>>,
}

impl Boundary {
    pub(crate) fn new(workers: usize) -> Boundary {
        Boundary {
            arrived: vec![false; workers],
            tasks: Vec::new(),
            owner: None,
        }
    }

    /// Take worker `worker`'s `step`, whose scan found the boundary,
    /// across it: hand its tasks in if it has not yet, the last of them
    /// placed by `place(tasks, workers)`, then give it its share once
    /// they are. True when the step goes on past the boundary, false
    /// while it waits for a peer's tasks.
    pub(crate) fn cross(
        &mut self,
        worker: usize,
        step: &mut WorkerStep,
        place: impl FnOnce(&[SegTask], usize) -> Vec<usize>,
    ) -> bool {
        assert!(step.batch.is_none(), "a batch crosses the boundary");
        if !std::mem::replace(&mut self.arrived[worker], true) {
            self.tasks.append(&mut step.tasks);
            if self.arrived.iter().all(|&a| a) {
                self.tasks.sort_unstable_by_key(|t| t.seg);
                self.owner = Some(place(&self.tasks, self.arrived.len()));
            }
        }
        let Some(owner) = &self.owner else {
            return false;
        };
        step.tasks = self
            .tasks
            .extract_if(.., |t| owner[t.seg] == worker)
            .collect();
        step.until = step.rounds;
        true
    }
}

/// The counter group and the counter windows of one worker, on the
/// run's clock: what it opens before its first batch, reads around the
/// batches it counts, ticks once a batch and closes at the end, so a
/// window of W is W batches. The group is zeroed once, when it opens;
/// every read after that is cumulative.
pub(crate) struct Meter {
    counters: CounterSet,
    wins: WindowSampler,
    clock: Clock,
}

impl Meter {
    /// Open the calling thread's counter group if `counters` (else an
    /// unavailable one), zero and enable it, and open the first window
    /// of `window` batches (0 = no windows).
    pub(crate) fn open(counters: bool, window: u64, clock: Clock) -> Meter {
        let counters = if counters {
            ccs_perf::CounterBuilder::cache_suite().open_self_thread()
        } else {
            CounterSet::unavailable("counters not requested")
        };
        let mut wins = WindowSampler::new(window);
        counters.reset();
        counters.enable();
        if wins.enabled() {
            wins.start(clock.now_ns(), counters.sample());
        }
        Meter {
            counters,
            wins,
            clock,
        }
    }

    /// Whether a counter group is open.
    pub(crate) fn counting(&self) -> bool {
        self.counters.is_active()
    }

    /// The group's cumulative reading; `None` when no group opened.
    pub(crate) fn sample(&self) -> Option<CounterSample> {
        self.counters.sample()
    }

    /// Add what the group counted since `from`, an earlier
    /// [`sample`](Self::sample), to `into`. False, adding nothing, when
    /// there is no `from` or this read fails.
    pub(crate) fn add_since(&self, from: Option<CounterSample>, into: &mut CounterSample) -> bool {
        let Some(from) = from else { return false };
        let Some(now) = self.counters.sample() else {
            return false;
        };
        into.merge(&now.delta_since(&from));
        true
    }

    /// One more batch done: close the window it fills, if any.
    pub(crate) fn tick(&mut self, tracer: &mut Tracer) {
        if self.wins.enabled() {
            if let Some(index) = self
                .wins
                .on_batch(self.clock.now_ns(), || self.counters.sample())
            {
                tracer.record(self.clock.now_ns(), 0, EventKind::Window { index });
            }
        }
    }

    /// Close the last window, stop counting, and return the windows.
    pub(crate) fn finish(self) -> Vec<WindowSample> {
        let windows = self
            .wins
            .finish(self.clock.now_ns(), || self.counters.sample());
        self.counters.disable();
        windows
    }
}

#[cfg(test)]
mod explore;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::place::round_robin;
    use ccs_graph::gen::{self, LayeredCfg, StateDist};
    use ccs_graph::RateAnalysis;
    use ccs_partition::dag_greedy;
    use ccs_runtime::Instance;

    /// A graph of `thin-dag`'s shape — small states, few segments — and
    /// its plan.
    fn thin_plan(seed: u64) -> (ccs_graph::StreamGraph, ExecPlan) {
        let cfg = LayeredCfg {
            layers: 8,
            max_width: 6,
            density: 0.35,
            state: StateDist::Uniform(32, 128),
            max_q: 2,
        };
        let g = gen::layered(&cfg, seed);
        let ra = RateAnalysis::analyze_single_io(&g).unwrap();
        let m = (g.total_state() / 3)
            .max(8 * g.max_state())
            .next_multiple_of(16);
        let plan = ExecPlan::build(&g, &ra, &dag_greedy::greedy_best(&g, &ra, m), m).unwrap();
        (g, plan)
    }

    #[test]
    fn no_two_workers_arenas_share_a_line() {
        // Arenas of a few hundred words dealt round-robin, so neighbours
        // in plan order — allocated one after the other — land on
        // different workers.
        for seed in 0..8u64 {
            let (g, plan) = thin_plan(seed);
            for workers in [2usize, 3, 4] {
                assert_arenas_apart(&g, &plan, workers, &format!("seed {seed}"));
            }
        }
    }

    #[test]
    fn a_span_is_on_the_arena_exactly_when_its_stride_is_zero() {
        // What lets `Cursor::ahead` tell the arena by its stride.
        for seed in 0..8u64 {
            let (_, plan) = thin_plan(seed);
            for s in plan.fused.iter().flat_map(|fp| &fp.spans) {
                assert_eq!(s.base == 0, s.stride == 0, "seed {seed}: {s:?}");
            }
        }
    }

    #[test]
    fn a_cursor_prefetches_only_what_its_granule_may_touch() {
        // Window spans as `compile_firing_plan` proves them: `offset +
        // len ≤ stride`, `reps·stride` items. Arena spans do not move.
        let spans = [(1, 0, 1), (4, 0, 4), (4, 1, 2), (16, 3, 13), (48, 32, 16)];
        for reps in 1..=12u64 {
            for granules in 1..=reps {
                for (share, offset, len) in spans {
                    let items = reps as usize * share;
                    let window = vec![0.0f32; items];
                    let base = window.as_ptr();
                    for (arena, store) in
                        [(true, false), (true, true), (false, false), (false, true)]
                    {
                        let mut c = Cursor {
                            ptr: base.wrapping_add(offset).cast_mut(),
                            len,
                            stride: if arena { 0 } else { share },
                        };
                        let mut fired = 0;
                        for j in 0..granules {
                            let end = granule_end(j, granules, reps);
                            for r in fired..end {
                                c.advance(store, r, end, reps);
                                let tag = format!(
                                    "arena {arena}, store {store}, reps {reps}, {granules} granules, \
                                     share {share}, offset {offset}, block {r}, end {end}"
                                );
                                let Some(line) = c.ahead(store, r, end, reps) else {
                                    assert!(
                                        arena || r + 1 == reps || (!store && r + 1 == end),
                                        "{tag}: no prefetch"
                                    );
                                    continue;
                                };
                                assert!(!arena, "{tag}: an arena span prefetches");
                                let at = (line as usize - base as usize) / size_of::<f32>();
                                assert_eq!(at, (r as usize + 1) * share + offset, "{tag}");
                                let bound = if store { items } else { end as usize * share };
                                assert!(at + len <= bound, "{tag}: past {bound}");
                            }
                            fired = end;
                        }
                        assert_eq!(fired, reps);
                    }
                }
            }
        }
    }

    /// Deal `plan`'s tasks to `workers` round-robin and check that no
    /// line a worker writes — its arenas between their pads — is a line
    /// of another worker's arena, pads included.
    fn assert_arenas_apart(g: &ccs_graph::StreamGraph, plan: &ExecPlan, workers: usize, tag: &str) {
        let line = |p: *const f32| p as usize / 64;
        let owner = round_robin(plan.segments.len(), workers);
        let rings = CrossRings::build(plan, crate::plan::Lifetimes::WholeRun, false).unwrap();
        let tasks = seg_tasks(plan, &rings, Instance::synthetic(g.clone()).kernels, |_| 1);
        let per_worker = deal(tasks, &owner, workers);
        let hot: Vec<(usize, usize, usize)> = per_worker
            .iter()
            .enumerate()
            .flat_map(|(w, tasks)| tasks.iter().map(move |t| (w, t)))
            .filter(|(_, t)| t.arena.len() > 2 * ARENA_PAD)
            .map(|(w, t)| {
                let inner = &t.arena[ARENA_PAD..t.arena.len() - ARENA_PAD];
                let last = inner.as_ptr().wrapping_add(inner.len() - 1);
                (w, line(inner.as_ptr()), line(last))
            })
            .collect();
        for (v, tasks) in per_worker.iter().enumerate() {
            for t in tasks {
                let range = t.arena.as_ptr_range();
                let (a, b) = (line(range.start), line(range.end.wrapping_sub(1)));
                for &(w, lo, hi) in hot.iter().filter(|h| h.0 != v) {
                    assert!(
                        hi < a || b < lo,
                        "{tag}, {workers} workers: the arena of segment {} (worker {v}) \
                         shares a line with one worker {w} writes",
                        t.seg
                    );
                }
            }
        }
    }

    #[test]
    fn a_meter_without_counters_reads_and_adds_nothing() {
        let meter = Meter::open(false, 0, Clock::start());
        assert!(!meter.counting());
        assert_eq!(meter.sample(), None);
        let before = CounterSample {
            time_enabled_ns: 5,
            time_running_ns: 5,
            readings: Vec::new(),
        };
        let mut into = before.clone();
        // Neither a missing bracket start nor a failed read adds to the
        // segment's sample.
        assert!(!meter.add_since(None, &mut into));
        assert!(!meter.add_since(Some(before.clone()), &mut into));
        assert_eq!(into, before);
        assert!(meter.finish().is_empty());
    }

    #[test]
    fn a_meter_closes_windows_on_batch_ticks_without_a_group() {
        // Timing-only windows still close every W batches, each with a
        // boundary event, and the last partial window closes at finish.
        let mut meter = Meter::open(false, 2, Clock::start());
        let mut tracer = Tracer::on(64);
        for _ in 0..5 {
            meter.tick(&mut tracer);
        }
        let windows = meter.finish();
        let shape: Vec<(u64, u64, u64)> = windows
            .iter()
            .map(|w| (w.index, w.start_batch, w.batches))
            .collect();
        assert_eq!(shape, vec![(0, 0, 2), (1, 2, 2), (2, 4, 1)]);
        assert!(windows.iter().all(|w| w.timing_only()));
        assert!(windows.windows(2).all(|p| p[0].end_ns <= p[1].end_ns));
        let marks: Vec<EventKind> = tracer
            .finish()
            .unwrap()
            .events
            .iter()
            .map(|e| e.kind)
            .collect();
        assert_eq!(
            marks,
            vec![
                EventKind::Window { index: 0 },
                EventKind::Window { index: 1 }
            ]
        );
    }

    #[test]
    fn add_since_accumulates_bracketed_deltas() {
        // Whatever the host allows: with a group open, the brackets add
        // up without ever counting outside them; without one, nothing
        // is added.
        let meter = Meter::open(true, 0, Clock::start());
        let mut into = CounterSample::default();
        if !meter.counting() {
            assert!(!meter.add_since(meter.sample(), &mut into));
            assert_eq!(into, CounterSample::default());
            return;
        }
        let start = meter.sample().unwrap();
        assert!(meter.add_since(Some(start.clone()), &mut into));
        let once = into.clone();
        assert!(meter.add_since(meter.sample(), &mut into));
        let end = meter.sample().unwrap();
        assert_eq!(into.readings.len(), start.readings.len());
        let raw = |s: &CounterSample, kind| s.readings.iter().find(|r| r.kind == kind).unwrap().raw;
        for r in &into.readings {
            let first = raw(&once, r.kind);
            let span = raw(&end, r.kind) - raw(&start, r.kind);
            // Two brackets count at least what the first did, and no
            // more than the whole span that holds them both.
            assert!(
                first <= r.raw && r.raw <= span,
                "{:?}: {first} {} {span}",
                r.kind,
                r.raw
            );
        }
    }
}
