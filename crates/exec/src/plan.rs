//! Compile a partition into an executable batch plan.
//!
//! One *batch* of a segment is one granularity-`T` round restricted to
//! that segment: node `v` fires `quota[v] = T·gain(v)` times, consuming
//! and producing exactly `T·gain(e)` items on every incident cross
//! edge. With `gcd = gcd{quota[v]}` over the segment, a batch is `gcd`
//! repetitions of the minimal steady-state period; the plan's period is
//! a *block* of them — the largest divisor of `gcd` that is at most
//! [`BLOCK`] — fired as a single-appearance schedule: the members once
//! each in topological order, every one `block·quota[v]/gcd` times in a
//! row. That is legal on any dag segment (every producer has finished
//! its block before a consumer starts), so nothing is dry-run here, and
//! the plan is one entry per member however large `T` is. The paper
//! charges a resident segment for its state and boundary items, not for
//! the order of its firings; the reference interpreter
//! (`ccs_sched::partitioned::inhomogeneous`) interleaves the same
//! firings deepest-fireable-first, and sink digests agree by SDF
//! determinism.

use ccs_graph::ratio::gcd_u64;
use ccs_graph::{EdgeId, NodeId, RateAnalysis, StreamGraph};
use ccs_partition::{compile_firing_plan, ComponentId, FiringPlan, Partition};
use ccs_runtime::ring::{RingSet, SpscRing, LINE_WORDS};
use ccs_sched::partitioned::{granularity_t, PartSchedError};
use std::fmt;

/// Most minimal periods one run of a member covers: 16 `f32` items, one
/// 64-byte line (the DAM block size every experiment uses). A block of
/// a unit-rate stream is then exactly one line — the line the period
/// order already kept live per stream — so a segment's stream footprint
/// stays what its partition budgeted while dispatch, view and cursor
/// cost are paid once per line instead of once per item. Measured
/// against 1 and 64 in `BENCH_21.json`.
pub const BLOCK: u64 = 16;

/// Most granules a worker thread publishes one batch in. The batch's
/// blocks are cut on block boundaries into `min(reps, GRANULES)` runs;
/// after each, the worker commits what it wrote to every output ring,
/// so a consumer segment on another worker can start on the first
/// sixteenth of a batch instead of waiting for all of it, and a chain
/// of segments pipelines inside one round. The batch itself — and with
/// it what the paper's cache argument charges — is unchanged: it still
/// runs to the end on one worker. Fewer when batches are short: see
/// `run::MIN_GRANULE`. Measured against 1, 2, 4, 8, 32, 64 and one
/// granule per block in `BENCH_26.json`.
pub const GRANULES: u64 = 16;

/// Errors from plan construction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DagExecError {
    /// The partition is not well ordered (no contracted topological
    /// order exists), so segments cannot be batch-scheduled.
    NotWellOrdered,
    /// The graph has no unique source or the rate analysis does not
    /// match the graph.
    BadRates,
    /// Granularity or capacity arithmetic overflowed.
    Overflow,
    /// The per-segment dry run wedged (internal-buffer sizing bug).
    Deadlock { segment: usize },
    /// A boundary layout gives this cross edge no usable ring: none or
    /// two, off its cache line, outside the slab, shorter than a batch,
    /// or not live when one of its two segments runs.
    BadRingLayout {
        /// Index of the edge.
        edge: usize,
    },
    /// A boundary layout hands a ring storage that another ring, still
    /// live at that point of the schedule, occupies
    /// ([`BoundaryLayout::check`]).
    RingOverlap {
        /// Edge whose ring was being placed.
        edge: usize,
        /// Edge whose live ring it runs into.
        other: usize,
        /// Segment at whose turn the two meet.
        segment: usize,
    },
    /// A worker thread panicked — a kernel, most likely — and the run
    /// was abandoned: its peers gave up their waits and left, so the
    /// call returns instead of hanging.
    WorkerPanicked {
        /// The first worker that unwound.
        worker: usize,
        /// The segment whose batch it was running; `None` if it was
        /// between batches.
        segment: Option<usize>,
    },
}

impl fmt::Display for DagExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DagExecError::NotWellOrdered => {
                write!(f, "partition is not well ordered")
            }
            DagExecError::BadRates => {
                write!(f, "rate analysis does not fit the graph")
            }
            DagExecError::Overflow => write!(f, "capacity arithmetic overflow"),
            DagExecError::Deadlock { segment } => {
                write!(f, "dry-run deadlock in segment {segment}")
            }
            DagExecError::BadRingLayout { edge } => {
                write!(f, "boundary layout has no usable ring for edge {edge}")
            }
            DagExecError::RingOverlap {
                edge,
                other,
                segment,
            } => {
                write!(
                    f,
                    "boundary layout puts the ring of edge {edge} on storage the ring \
                     of edge {other} still holds at segment {segment}"
                )
            }
            DagExecError::WorkerPanicked {
                worker,
                segment: Some(segment),
            } => {
                write!(f, "worker {worker} panicked running segment {segment}")
            }
            DagExecError::WorkerPanicked {
                worker,
                segment: None,
            } => {
                write!(f, "worker {worker} panicked between batches")
            }
        }
    }
}

impl std::error::Error for DagExecError {}

impl From<PartSchedError> for DagExecError {
    fn from(e: PartSchedError) -> Self {
        match e {
            PartSchedError::InvalidPartition => DagExecError::NotWellOrdered,
            PartSchedError::Overflow => DagExecError::Overflow,
            PartSchedError::Deadlock { component } => DagExecError::Deadlock {
                segment: component as usize,
            },
            PartSchedError::NotHomogeneous | PartSchedError::NotAPipeline => DagExecError::BadRates,
        }
    }
}

/// One segment's executable plan.
#[derive(Clone, Debug)]
pub struct SegmentPlan {
    /// The original component id this segment was built from.
    pub component: ComponentId,
    /// Segment nodes in intra-segment topological order.
    pub nodes: Vec<NodeId>,
    /// One block's firing sequence: the members in `nodes` order, node
    /// `v` `quota[v]/reps` times in a row.
    pub firings: Vec<NodeId>,
    /// Blocks per batch: the gcd of the members' quotas over the block
    /// size (its largest divisor that is at most [`BLOCK`]).
    pub reps: u64,
    /// Cross edges feeding this segment, with items consumed per batch.
    pub in_batch: Vec<(EdgeId, u64)>,
    /// Cross edges leaving this segment, with items produced per batch.
    pub out_batch: Vec<(EdgeId, u64)>,
    /// Total module state of the segment, in words.
    pub state_words: u64,
}

impl SegmentPlan {
    /// Firings in one batch of this segment.
    pub fn batch_firings(&self) -> u64 {
        self.reps * self.firings.len() as u64
    }
}

/// A complete executable plan for a partitioned dag.
#[derive(Clone, Debug)]
pub struct ExecPlan {
    /// The §3 granularity `T` (source firings per batch).
    pub t: u64,
    /// Firings of each node per batch: `quota[v] = T·gain(v)`.
    pub quota: Vec<u64>,
    /// Segments in contracted topological order.
    pub segments: Vec<SegmentPlan>,
    /// Ring capacity per edge: `2·T·gain(e)` for cross edges
    /// (double-buffered), 0 for internal edges, which live in their
    /// segment's arena and get no ring.
    pub capacities: Vec<u64>,
    /// Segment index (position in `segments`) of each node.
    pub seg_of_node: Vec<usize>,
    /// Per-segment firing plans (same order as `segments`): the block
    /// compiled against a flat scratch arena and the boundary windows,
    /// one entry per member — what a batch executes.
    pub fused: Vec<FiringPlan>,
}

impl ExecPlan {
    /// Total firings across all nodes in one batch of every segment.
    pub fn firings_per_round(&self) -> u64 {
        self.quota.iter().sum()
    }

    /// Items the single sink consumes in `rounds` rounds; 0 without one.
    pub(crate) fn sink_items(&self, g: &StreamGraph, rounds: u64) -> u64 {
        g.single_sink().map_or(0, |s| {
            let consume: u64 = g.in_edges(s).iter().map(|&e| g.edge(e).consume).sum();
            rounds * self.quota[s.idx()] * consume
        })
    }

    /// Build a plan: granularity, per-segment batch schedules, and ring
    /// capacities. `m_items` is the cache size `M` in items; the
    /// granularity guarantees every cross-edge batch holds at least
    /// `m_items` items.
    pub fn build(
        g: &StreamGraph,
        ra: &RateAnalysis,
        p: &Partition,
        m_items: u64,
    ) -> Result<ExecPlan, DagExecError> {
        if ra.repetitions.len() != g.node_count() || p.assignment().len() != g.node_count() {
            return Err(DagExecError::BadRates);
        }
        let source = ra.source.ok_or(DagExecError::BadRates)?;
        let comp_order = p
            .topo_order_components(g)
            .ok_or(DagExecError::NotWellOrdered)?;

        let t = granularity_t(g, ra, m_items)?;

        // quota[v] = T·gain(v) = T·q(v)/q(source): integral by the
        // construction of T.
        let qs = ra.q(source) as u128;
        let mut quota = Vec::with_capacity(g.node_count());
        for &qv in &ra.repetitions {
            let num = t as u128 * qv as u128;
            if !num.is_multiple_of(qs) {
                return Err(DagExecError::Overflow);
            }
            quota.push(u64::try_from(num / qs).map_err(|_| DagExecError::Overflow)?);
        }

        // Nodes of each segment in topological order, segments in
        // contracted topological order.
        let rank = ccs_graph::topo::topo_rank(g);
        let mut by_comp = p.components();
        for c in &mut by_comp {
            c.sort_by_key(|v| rank[v.idx()]);
        }
        let mut seg_of_comp = vec![usize::MAX; p.num_components()];
        for (i, &c) in comp_order.iter().enumerate() {
            seg_of_comp[c as usize] = i;
        }
        let mut seg_of_node = vec![usize::MAX; g.node_count()];
        for v in g.node_ids() {
            seg_of_node[v.idx()] = seg_of_comp[p.component_of(v) as usize];
        }

        let mut segments = Vec::with_capacity(comp_order.len());
        for (si, &c) in comp_order.iter().enumerate() {
            let nodes = std::mem::take(&mut by_comp[c as usize]);
            let mut in_batch = Vec::new();
            let mut out_batch = Vec::new();
            for &v in &nodes {
                for &e in g.in_edges(v) {
                    if seg_of_node[g.edge(e).src.idx()] != si {
                        let n = quota[v.idx()]
                            .checked_mul(g.edge(e).consume)
                            .ok_or(DagExecError::Overflow)?;
                        in_batch.push((e, n));
                    }
                }
                for &e in g.out_edges(v) {
                    if seg_of_node[g.edge(e).dst.idx()] != si {
                        let n = quota[v.idx()]
                            .checked_mul(g.edge(e).produce)
                            .ok_or(DagExecError::Overflow)?;
                        out_batch.push((e, n));
                    }
                }
            }

            // The block: as many minimal periods as divide the batch
            // and fit a line, each member's share of it in one run.
            let gcd = nodes
                .iter()
                .fold(0, |d, v| gcd_u64(d, quota[v.idx()]))
                .max(1);
            let block = (1..=BLOCK)
                .rev()
                .find(|d| gcd.is_multiple_of(*d))
                .expect("1 divides every gcd");
            let reps = gcd / block;
            let mut firings = Vec::new();
            for &v in &nodes {
                let run =
                    usize::try_from(quota[v.idx()] / reps).map_err(|_| DagExecError::Overflow)?;
                firings.resize(firings.len() + run, v);
            }

            let state_words = g.state_of(&nodes);
            segments.push(SegmentPlan {
                component: c,
                nodes,
                firings,
                reps,
                in_batch,
                out_batch,
                state_words,
            });
        }

        // Compile each segment's block against its arena and windows.
        // A topological single-appearance sequence is legal as it
        // stands, so a compile failure here can only be
        // arena-arithmetic overflow.
        let mut fused = Vec::with_capacity(segments.len());
        for seg in &segments {
            fused.push(
                compile_firing_plan(g, &quota, &seg.nodes, &seg.firings)
                    .ok_or(DagExecError::Overflow)?,
            );
        }

        // Ring capacities: cross edges are double-buffered (two batches).
        let mut capacities = vec![0u64; g.edge_count()];
        for seg in &segments {
            for &(e, batch) in &seg.out_batch {
                capacities[e.idx()] = batch.checked_mul(2).ok_or(DagExecError::Overflow)?;
            }
        }

        Ok(ExecPlan {
            t,
            quota,
            segments,
            capacities,
            seg_of_node,
            fused,
        })
    }
}

/// Which rings of a run may share storage, and how the run keeps two
/// rings on the same storage from being in use together.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Lifetimes {
    /// Runs of two rounds or more on two workers or more: segments run
    /// concurrently, a producer up to a batch ahead of its consumer, and
    /// a ring carries a batch every round, so every ring is live for the
    /// whole run, holds two batches, and shares nothing.
    WholeRun,
    /// One round on `workers` ≥ 2 workers: a ring carries exactly one
    /// batch, so once its consumer has released it, its storage is free
    /// for good. A ring holds one batch and is live from its producer's
    /// turn to `workers − 1` segments past its consumer's (in plan
    /// order), so its storage goes only to a ring whose producer comes at
    /// least `workers` segments after its consumer — far enough that on
    /// `workers` workers the two seldom run at once. What makes the reuse
    /// sound is not the distance but the start gate: the new producer
    /// starts no batch before every ring in its ring's
    /// [`after`](RingSpan::after) list has been released.
    OneRound {
        /// Worker threads of the run; the lag is one less.
        workers: usize,
    },
    /// Segments run one after another in plan order, each a whole
    /// batch: a ring holds one batch, from its producer segment's turn
    /// to its consumer's, and its storage is free outside that
    /// interval. What a run's lone worker does, at any round count, and
    /// nothing else.
    BySchedule,
}

impl Lifetimes {
    /// Segments past its consumer's turn that a ring stays live.
    fn lag(self) -> usize {
        match self {
            Lifetimes::OneRound { workers } => workers.max(1) - 1,
            Lifetimes::WholeRun | Lifetimes::BySchedule => 0,
        }
    }
}

/// Where one cross edge's ring sits in the run's slab.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RingSpan {
    pub edge: EdgeId,
    /// First word, counted from the slab's 64-byte-aligned base; a
    /// multiple of [`LINE_WORDS`].
    pub offset: usize,
    /// Capacity of the ring, in items.
    pub capacity: usize,
    /// The closed interval of segment indices during which the ring
    /// may hold items or windows: `[producer, consumer]` by schedule,
    /// `[producer, consumer + workers − 1]` (at most the last segment)
    /// in one round, every segment for the whole run.
    pub live: (usize, usize),
    /// Under [`Lifetimes::OneRound`], the rings (positions in
    /// [`BoundaryLayout::rings`]) this one must wait for: for every line
    /// it takes, the last ring before it that held the line, in
    /// ascending order. Empty under the other lifetimes.
    pub after: Vec<usize>,
}

impl RingSpan {
    /// One past the last word of the lines the ring occupies
    /// (saturating, so a nonsense span fails the bounds check instead
    /// of the arithmetic).
    fn end(&self) -> usize {
        let lines = self.capacity.checked_next_multiple_of(LINE_WORDS);
        self.offset.saturating_add(lines.unwrap_or(usize::MAX))
    }
}

/// The boundary storage of one run, laid out from its plan: one slab,
/// one ring per cross edge.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BoundaryLayout {
    /// The lifetimes it was laid out for.
    pub lifetimes: Lifetimes,
    /// One ring per cross edge, in plan order (segment by segment, each
    /// segment's `out_batch`).
    pub rings: Vec<RingSpan>,
    /// Extent of the slab in words, from its aligned base.
    pub words: usize,
    /// Most words of ring (whole lines) live at any one segment — what
    /// no layout can go below.
    pub peak_live_words: usize,
}

/// Free runs of a slab as `(offset, len)`, sorted by offset and
/// coalesced, with the slab's extent so far.
#[derive(Default)]
struct FreeList {
    runs: Vec<(usize, usize)>,
    end: usize,
}

impl FreeList {
    /// First fit: the lowest free run that holds `size` words, else new
    /// words at the end.
    fn take(&mut self, size: usize) -> Option<usize> {
        if let Some(i) = self.runs.iter().position(|&(_, len)| len >= size) {
            let (offset, len) = self.runs[i];
            if len == size {
                self.runs.remove(i);
            } else {
                self.runs[i] = (offset + size, len - size);
            }
            return Some(offset);
        }
        let offset = self.end;
        self.end = offset.checked_add(size)?;
        Some(offset)
    }

    fn give(&mut self, offset: usize, size: usize) {
        let i = self.runs.partition_point(|&(o, _)| o < offset);
        self.runs.insert(i, (offset, size));
        if i + 1 < self.runs.len() && offset + size == self.runs[i + 1].0 {
            self.runs[i].1 += self.runs.remove(i + 1).1;
        }
        if i > 0 && self.runs[i - 1].0 + self.runs[i - 1].1 == offset {
            self.runs[i - 1].1 += self.runs.remove(i).1;
        }
    }
}

/// Each cross edge's consumer segment, by edge index (`usize::MAX` for
/// internal edges).
fn consumers(plan: &ExecPlan) -> Vec<usize> {
    let mut consumer = vec![usize::MAX; plan.capacities.len()];
    for (si, seg) in plan.segments.iter().enumerate() {
        for (e, _) in &seg.in_batch {
            consumer[e.idx()] = si;
        }
    }
    consumer
}

/// For each ring of `rings`, taken in the order `order` names, the last
/// ring earlier in that order that occupied each of its lines: the
/// [`RingSpan::after`] lists, ascending.
fn last_owners(rings: &[RingSpan], order: impl Iterator<Item = usize>) -> Vec<Vec<usize>> {
    // Who held each word last, as disjoint runs: first word → (one past
    // the last, ring).
    let mut held: std::collections::BTreeMap<usize, (usize, usize)> = Default::default();
    let mut after = vec![Vec::new(); rings.len()];
    for i in order {
        let (from, to) = (rings[i].offset, rings[i].end());
        let below = held
            .range(..from)
            .next_back()
            .filter(|(_, &(end, _))| end > from);
        let hit: Vec<(usize, (usize, usize))> = below
            .into_iter()
            .chain(held.range(from..to))
            .map(|(&start, &run)| (start, run))
            .collect();
        for &(start, (end, ring)) in &hit {
            held.remove(&start);
            if start < from {
                held.insert(start, (from, ring));
            }
            if end > to {
                held.insert(to, (end, ring));
            }
        }
        held.insert(from, (to, i));
        let mut before: Vec<usize> = hit.iter().map(|&(_, (_, ring))| ring).collect();
        before.sort_unstable();
        before.dedup();
        after[i] = before;
    }
    after
}

impl BoundaryLayout {
    /// Lay the plan's cross rings out in one slab. Segments are walked
    /// in plan order: a segment's output rings are placed, first fit,
    /// and then the storage of every ring whose lifetime ends at that
    /// segment is given back — so under [`Lifetimes::BySchedule`] and
    /// [`Lifetimes::OneRound`] the slab is about the largest set of
    /// boundary batches ever live at once, and under
    /// [`Lifetimes::WholeRun`], where nothing is given back before the
    /// end, it is the rings end to end. Every ring starts on a cache
    /// line of its own. The result has passed [`BoundaryLayout::check`].
    pub fn build(plan: &ExecPlan, lifetimes: Lifetimes) -> Result<BoundaryLayout, DagExecError> {
        let last = plan.segments.len().saturating_sub(1);
        let consumer = consumers(plan);
        let mut free = FreeList::default();
        let mut rings: Vec<RingSpan> = Vec::new();
        // Rings by the segment whose turn ends their lifetime.
        let mut closes: Vec<Vec<usize>> = vec![Vec::new(); plan.segments.len()];
        for (si, seg) in plan.segments.iter().enumerate() {
            for &(e, batch) in &seg.out_batch {
                let until = consumer[e.idx()].saturating_add(lifetimes.lag()).min(last);
                let (capacity, live) = match lifetimes {
                    Lifetimes::WholeRun => (plan.capacities[e.idx()], (0, last)),
                    Lifetimes::OneRound { .. } | Lifetimes::BySchedule => (batch, (si, until)),
                };
                let capacity = usize::try_from(capacity).map_err(|_| DagExecError::Overflow)?;
                let lines = capacity
                    .checked_next_multiple_of(LINE_WORDS)
                    .ok_or(DagExecError::Overflow)?;
                let offset = free.take(lines).ok_or(DagExecError::Overflow)?;
                closes[live.1].push(rings.len());
                rings.push(RingSpan {
                    edge: e,
                    offset,
                    capacity,
                    live,
                    after: Vec::new(),
                });
            }
            for &i in &closes[si] {
                free.give(rings[i].offset, rings[i].end() - rings[i].offset);
            }
        }
        if matches!(lifetimes, Lifetimes::OneRound { .. }) {
            let after = last_owners(&rings, 0..rings.len());
            for (r, after) in rings.iter_mut().zip(after) {
                r.after = after;
            }
        }
        let mut layout = BoundaryLayout {
            lifetimes,
            rings,
            words: free.end,
            peak_live_words: 0,
        };
        layout.peak_live_words = layout.check(plan)?;
        Ok(layout)
    }

    /// Check the layout against the plan without looking at how it was
    /// made, and return the most words live at one segment. Every cross
    /// edge has exactly one ring, on a line boundary, inside the slab,
    /// holding at least one batch; its lifetime covers its producer's
    /// and its consumer's turn, and under [`Lifetimes::OneRound`] the
    /// `workers − 1` turns after its consumer's too (or up to the last);
    /// and — replaying the segments in order — the storage handed to a
    /// ring when its lifetime opens overlaps no ring whose lifetime is
    /// still open ([`DagExecError::RingOverlap`] otherwise). So two rings
    /// that share a line have disjoint lifetimes, and in one round the
    /// later one's producer comes at least `workers` segments after the
    /// earlier one's consumer: every wait points to an earlier segment.
    /// Last, every ring's [`after`](RingSpan::after) list is exactly the
    /// last earlier ring on each of its lines under `OneRound`, and
    /// empty otherwise ([`DagExecError::BadRingLayout`]).
    ///
    /// This is the layout half of the argument for building overlapping
    /// [`SpscRing`]s over one slab. The other half is the executor's: by
    /// schedule, two rings are only ever in use together inside
    /// lifetimes that intersect, and those rings are disjoint; in one
    /// round, a producer starts only once every ring on its
    /// `after` list is released (`ccs_runtime::ring::RingSet::new` says
    /// why that orders the accesses).
    pub fn check(&self, plan: &ExecPlan) -> Result<usize, DagExecError> {
        let bad = |edge: EdgeId| DagExecError::BadRingLayout { edge: edge.idx() };
        let last = plan.segments.len().saturating_sub(1);
        let consumer = consumers(plan);
        // Rings by the segment that opens their lifetime and the one
        // that closes it, and each edge's ring.
        let mut opens: Vec<Vec<usize>> = vec![Vec::new(); plan.segments.len()];
        let mut closes = opens.clone();
        let mut at = vec![usize::MAX; plan.capacities.len()];
        for (i, r) in self.rings.iter().enumerate() {
            let (first, until) = r.live;
            let slot = at.get_mut(r.edge.idx()).ok_or_else(|| bad(r.edge))?;
            if *slot != usize::MAX
                || r.capacity == 0
                || first > until
                || until >= plan.segments.len()
                || until
                    < consumer[r.edge.idx()]
                        .saturating_add(self.lifetimes.lag())
                        .min(last)
                || !r.offset.is_multiple_of(LINE_WORDS)
                || r.end() > self.words
            {
                return Err(bad(r.edge));
            }
            *slot = i;
            opens[first].push(i);
            closes[until].push(i);
        }
        // Both ends of every cross edge find a ring that is live at
        // their segment's turn and holds a batch.
        for (si, seg) in plan.segments.iter().enumerate() {
            for &(e, batch) in seg.in_batch.iter().chain(&seg.out_batch) {
                let r = self.rings.get(at[e.idx()]).ok_or_else(|| bad(e))?;
                if si < r.live.0 || r.live.1 < si || (r.capacity as u64) < batch {
                    return Err(bad(e));
                }
            }
        }
        // The replay. Open rings are pairwise disjoint (each was checked
        // as it opened), so keyed by offset, only the nearest one
        // starting below a new ring's end can reach into it.
        let mut open: std::collections::BTreeMap<usize, usize> = Default::default();
        let (mut live_words, mut peak) = (0usize, 0usize);
        for si in 0..plan.segments.len() {
            for &i in &opens[si] {
                let r = &self.rings[i];
                if let Some((_, &other)) = open.range(..r.end()).next_back() {
                    if self.rings[other].end() > r.offset {
                        return Err(DagExecError::RingOverlap {
                            edge: r.edge.idx(),
                            other: self.rings[other].edge.idx(),
                            segment: si,
                        });
                    }
                }
                open.insert(r.offset, i);
                live_words += r.end() - r.offset;
            }
            peak = peak.max(live_words);
            for &i in &closes[si] {
                let r = &self.rings[i];
                open.remove(&r.offset);
                live_words -= r.end() - r.offset;
            }
        }
        // The wait lists. Rings that share a line have disjoint
        // lifetimes, so the order lifetimes open in is the order a
        // line's rings hold it in.
        let owners = match self.lifetimes {
            Lifetimes::OneRound { .. } => last_owners(&self.rings, opens.into_iter().flatten()),
            Lifetimes::WholeRun | Lifetimes::BySchedule => vec![Vec::new(); self.rings.len()],
        };
        if let Some(r) = self
            .rings
            .iter()
            .zip(&owners)
            .find(|(r, want)| r.after != **want)
        {
            return Err(bad(r.0.edge));
        }
        Ok(peak)
    }
}

/// The rings of one run: one per cross edge, found by edge index, all
/// over one slab. Internal edges live in their segment's arena and
/// have none.
pub(crate) struct CrossRings {
    set: RingSet,
    /// Position in `set` of each edge's ring; `usize::MAX` for
    /// internal edges.
    slot: Vec<usize>,
    /// Per ring, by position in `set`: the edges of the rings whose
    /// storage it takes, which must be released before its producer
    /// starts a batch ([`RingSpan::after`]).
    after: Vec<Vec<EdgeId>>,
    /// Items of ring laid out: the rings' capacities, summed.
    ring_words: u64,
}

impl CrossRings {
    /// Lay out and allocate the plan's rings for an executor that keeps
    /// to `lifetimes`.
    pub(crate) fn build(plan: &ExecPlan, lifetimes: Lifetimes) -> Result<CrossRings, DagExecError> {
        Ok(CrossRings::over(&BoundaryLayout::build(plan, lifetimes)?))
    }

    /// Allocate the rings of `layout` as it stands: whoever hands it in
    /// has checked it, or — the test driver planting a bug — means not to.
    pub(crate) fn over(layout: &BoundaryLayout) -> CrossRings {
        let edges = layout.rings.iter().map(|r| r.edge.idx());
        let mut slot = vec![usize::MAX; edges.clone().max().map_or(0, |e| e + 1)];
        for (i, e) in edges.enumerate() {
            slot[e] = i;
        }
        let spans: Vec<(usize, usize)> = layout
            .rings
            .iter()
            .map(|r| (r.offset, r.capacity))
            .collect();
        CrossRings {
            set: RingSet::new(&spans),
            slot,
            after: layout
                .rings
                .iter()
                .map(|r| r.after.iter().map(|&o| layout.rings[o].edge).collect())
                .collect(),
            ring_words: layout.rings.iter().map(|r| r.capacity as u64).sum(),
        }
    }

    /// The ring of cross edge `e`; panics on an internal edge.
    #[inline]
    pub(crate) fn get(&self, e: EdgeId) -> &SpscRing {
        self.set.get(self.slot[e.idx()])
    }

    /// The edges of the rings whose storage the ring of cross edge `e`
    /// takes ([`RingSpan::after`]).
    pub(crate) fn after(&self, e: EdgeId) -> &[EdgeId] {
        &self.after[self.slot[e.idx()]]
    }

    /// Words of slab behind the rings.
    pub(crate) fn words(&self) -> u64 {
        self.set.words() as u64
    }

    /// Items of ring laid out, summed over the rings.
    pub(crate) fn ring_words(&self) -> u64 {
        self.ring_words
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccs_graph::gen::{self, LayeredCfg, StateDist};
    use ccs_partition::dag_greedy;

    fn layered(seed: u64) -> ccs_graph::StreamGraph {
        gen::layered(
            &LayeredCfg {
                layers: 4,
                max_width: 3,
                density: 0.3,
                state: StateDist::Uniform(8, 48),
                max_q: 3,
            },
            seed,
        )
    }

    #[test]
    fn batch_is_one_granularity_round() {
        for seed in 0..6u64 {
            let g = layered(seed);
            let ra = RateAnalysis::analyze_single_io(&g).unwrap();
            let p = dag_greedy::greedy_topo(&g, 96);
            let plan = ExecPlan::build(&g, &ra, &p, 48).unwrap();
            for (seg, fp) in plan.segments.iter().zip(&plan.fused) {
                assert_eq!(fp.reps, seg.reps, "seed {seed}");
                // One entry per member, in node order; per batch —
                // `reps` blocks — node v fires T·gain(v) times.
                assert_eq!(fp.firings.len(), seg.nodes.len(), "seed {seed}");
                for (i, (f, &v)) in fp.firings.iter().zip(&seg.nodes).enumerate() {
                    assert_eq!(f.local, i, "seed {seed}");
                    assert_eq!(
                        seg.reps * f.count as u64,
                        plan.quota[v.idx()],
                        "seed {seed}"
                    );
                }
                let counts: usize = fp.firings.iter().map(|f| f.count).sum();
                assert_eq!(counts, seg.firings.len(), "seed {seed}");
                // The block is the gcd's largest divisor that fits a line.
                let gcd = seg
                    .nodes
                    .iter()
                    .fold(0, |d, v| gcd_u64(d, plan.quota[v.idx()]));
                assert!(gcd.is_multiple_of(seg.reps), "seed {seed}");
                let block = gcd / seg.reps;
                assert!(block <= BLOCK, "seed {seed}");
                assert!(
                    (block + 1..=BLOCK).all(|d| !gcd.is_multiple_of(d)),
                    "seed {seed}: block {block} of gcd {gcd}"
                );
            }
            // Cross batches carry T·gain(e) >= m items and capacities
            // double-buffer them.
            for seg in &plan.segments {
                for &(e, n) in seg.in_batch.iter().chain(&seg.out_batch) {
                    assert!(n >= 48, "seed {seed}: batch {n} < m");
                    assert_eq!(plan.capacities[e.idx()], 2 * n);
                }
            }
        }
    }

    #[test]
    fn in_and_out_batches_are_consistent() {
        let g = layered(3);
        let ra = RateAnalysis::analyze_single_io(&g).unwrap();
        let p = dag_greedy::greedy_topo(&g, 96);
        let plan = ExecPlan::build(&g, &ra, &p, 48).unwrap();
        // Every cross edge appears exactly once as an output batch and
        // once as an input batch, with equal item counts.
        let mut outs = std::collections::HashMap::new();
        for seg in &plan.segments {
            for &(e, n) in &seg.out_batch {
                assert!(outs.insert(e, n).is_none());
            }
        }
        let mut seen = 0;
        for seg in &plan.segments {
            for &(e, n) in &seg.in_batch {
                assert_eq!(outs.get(&e), Some(&n));
                seen += 1;
            }
        }
        assert_eq!(seen, outs.len());
    }

    #[test]
    fn rejects_non_well_ordered() {
        let mut b = ccs_graph::GraphBuilder::new();
        let v: Vec<_> = (0..4).map(|i| b.node(format!("v{i}"), 4)).collect();
        for w in v.windows(2) {
            b.edge(w[0], w[1], 1, 1);
        }
        let g = b.build().unwrap();
        let ra = RateAnalysis::analyze_single_io(&g).unwrap();
        let p = Partition::from_assignment(vec![0, 1, 0, 1]);
        assert_eq!(
            ExecPlan::build(&g, &ra, &p, 8).unwrap_err(),
            DagExecError::NotWellOrdered
        );
    }

    #[test]
    fn whole_partition_is_one_segment() {
        let g = layered(0);
        let ra = RateAnalysis::analyze_single_io(&g).unwrap();
        let p = Partition::whole(&g);
        let plan = ExecPlan::build(&g, &ra, &p, 32).unwrap();
        assert_eq!(plan.segments.len(), 1);
        assert!(plan.segments[0].in_batch.is_empty());
        assert!(plan.segments[0].out_batch.is_empty());
        assert_eq!(plan.firings_per_round(), plan.segments[0].batch_firings());
    }
}
