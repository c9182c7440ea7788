//! Segment → worker placement.
//!
//! Pinning decides which core's cache each segment's state lives in, and
//! which cross edges become cross-core traffic. Two policies:
//!
//! * [`Placement::Measured`], the default — placement by measured work.
//!   Over two or more rounds the workers run a software pipeline on
//!   rings two batches deep, whose throughput is bounded by the busiest
//!   worker's work per round. What a segment's batch costs is measured,
//!   not modelled: the run deals round 0 round-robin, takes each
//!   segment's busy time in that batch as its cost, and at the round
//!   boundary, where every ring is empty, [`balance`] places rounds 1..
//!   exactly — the least makespan, then the least cross-worker traffic
//!   ([`RateAnalysis::edge_traffic`]), then the least owner vector.
//!   `SegmentPlan::cost`, the paper's per-firing charge, undercharges
//!   small segments and sinks by 1.3–2× (`docs/MEASUREMENT.md`), which
//!   a placement balanced on it inherits. A run of one round has no
//!   steady state to place for: a chain of batches overlaps only
//!   through granules, so consecutive segments must sit on different
//!   workers, and the run keeps the round-robin deal; so does a run with
//!   no more segments than workers, where each segment already has a
//!   worker of its own, and a one-worker run.
//! * [`Placement::RoundRobin`] — segments (in contracted topological
//!   order) dealt to workers cyclically for the whole run. It does not
//!   depend on a timing, so it is the reproducible oracle the tests
//!   check every other placement against.
//!
//! [`SegmentPlan::cost`]: crate::SegmentPlan::cost

use crate::plan::ExecPlan;
use ccs_graph::{RateAnalysis, StreamGraph};
use ccs_topo::Topology;

/// Placement policy for pinning segments to workers.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Placement {
    /// Segment `i` (contracted topological order) goes to worker
    /// `i mod workers`.
    RoundRobin,
    /// Round 0 dealt round-robin, rounds 1.. placed by [`balance`] on
    /// round 0's measured busy time per segment, over two or more
    /// rounds with more segments than workers; the round-robin deal
    /// otherwise.
    #[default]
    Measured,
}

impl Placement {
    /// The names [`Placement::parse`] reads, for error messages.
    pub const NAMES: &'static str = "rr|measured";

    /// Parse a CLI-style name, or say why not: the retired greedy
    /// placement is refused by name, anything else as unknown.
    pub fn parse(name: &str) -> Result<Placement, String> {
        match name {
            "rr" | "round-robin" => Ok(Placement::RoundRobin),
            "measured" => Ok(Placement::Measured),
            "greedy" | "comm-greedy" => Err(format!(
                "placement '{name}' was retired: the default, measured, places \
                 segments by round 0's measured batch times ({})",
                Placement::NAMES
            )),
            _ => Err(format!("unknown placement '{name}' ({})", Placement::NAMES)),
        }
    }

    pub fn name(&self) -> &'static str {
        match self {
            Placement::RoundRobin => "round-robin",
            Placement::Measured => "measured",
        }
    }

    /// Whether a run of `rounds` rounds of `segments` segments on
    /// `workers` workers places rounds 1.. by round 0's measured batch
    /// times; when not, it keeps [`round_robin`] for the whole run.
    pub fn measures(&self, workers: usize, rounds: u64, segments: usize) -> bool {
        *self == Placement::Measured && workers >= 2 && rounds >= 2 && segments > workers
    }
}

/// Segment `i` on worker `i mod workers`: the whole run's placement
/// under [`Placement::RoundRobin`], and round 0's under
/// [`Placement::Measured`].
pub fn round_robin(segments: usize, workers: usize) -> Vec<usize> {
    assert!(workers >= 1, "at least one worker required");
    (0..segments).map(|i| i % workers).collect()
}

/// The placement a run starts with, under the signature
/// `benchmark/src/sut.rs` names: [`round_robin`] for either policy,
/// since a measured placement is only known once round 0 has run. The
/// machine and the pinning do not change it. It stays for `sut.rs`
/// until ROADMAP item 1(c).
pub fn assign_on(
    _g: &StreamGraph,
    _ra: &RateAnalysis,
    plan: &ExecPlan,
    workers: usize,
    _placement: Placement,
    _topo: &Topology,
    _pinned: bool,
) -> Vec<usize> {
    round_robin(plan.segments.len(), workers)
}

/// Every cross edge of `plan` as `(producer segment, consumer segment,
/// items per iteration)` ([`RateAnalysis::edge_traffic`]): what
/// [`balance`] weighs between placements of equal makespan.
pub fn segment_links(
    g: &StreamGraph,
    ra: &RateAnalysis,
    plan: &ExecPlan,
) -> Vec<(usize, usize, u64)> {
    plan.segments
        .iter()
        .enumerate()
        .flat_map(|(si, s)| s.out_batch.iter().map(move |&(e, _)| (si, e)))
        .map(|(si, e)| {
            (
                si,
                plan.seg_of_node[g.edge(e).dst.idx()],
                ra.edge_traffic(g, e),
            )
        })
        .collect()
}

/// Search nodes [`balance`] visits before it stops and keeps the best
/// placement found so far: a few milliseconds at most, spent once per
/// run at the round boundary.
pub const NODE_BUDGET: u64 = 100_000;

/// A placement of segments by cost, with how far it may be from the
/// best.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Balanced {
    /// The worker of each segment.
    pub owner: Vec<usize>,
    /// The busiest worker's summed cost.
    pub makespan: u64,
    /// `max(max c, ⌈Σc / W⌉)`: no placement has a lower makespan.
    pub bound: u64,
    /// Whether the search ran to its end, so that `owner` is optimal;
    /// false when it stopped at [`NODE_BUDGET`].
    pub exact: bool,
}

impl Balanced {
    /// `(makespan − bound) / bound`: 0 when the bound is met. The
    /// optimum is at least the bound, so the placement is within this
    /// gap of it, searched to the end or not.
    pub fn gap(&self) -> f64 {
        bottleneck_gap(self.makespan, self.bound)
    }
}

/// `(makespan − bound) / bound`, 0 for a bound of 0.
pub(crate) fn bottleneck_gap(makespan: u64, bound: u64) -> f64 {
    if bound == 0 {
        0.0
    } else {
        (makespan - bound) as f64 / bound as f64
    }
}

/// `max(max c, ⌈Σc / W⌉)`: a lower bound on the makespan of any
/// placement of `costs` on `workers` workers.
pub(crate) fn makespan_bound(costs: &[u64], workers: usize) -> u64 {
    let total: u64 = costs.iter().sum();
    let largest = costs.iter().copied().max().unwrap_or(0);
    largest.max(total.div_ceil(workers.max(1) as u64))
}

/// Place segments of `costs` on `workers` workers: the least makespan
/// (the busiest worker's summed cost), ties to the least cross-worker
/// traffic over `links` (`(segment, segment, items)`, as
/// [`segment_links`] gives them), then to the least owner vector.
/// Branch-and-bound over segments in decreasing-cost order, each tried
/// on every worker that holds something and on the first that holds
/// nothing (workers are interchangeable), pruned by the incumbent and by
/// `makespan_bound`; the incumbent starts as LPT (each segment, in
/// the same order, on the least loaded worker). Past [`NODE_BUDGET`]
/// nodes it keeps the best placement found, and says so in
/// [`Balanced::exact`].
pub fn balance(costs: &[u64], links: &[(usize, usize, u64)], workers: usize) -> Balanced {
    balance_within(costs, links, workers, NODE_BUDGET)
}

/// [`balance`] with a node budget of its own.
fn balance_within(
    costs: &[u64],
    links: &[(usize, usize, u64)],
    workers: usize,
    budget: u64,
) -> Balanced {
    assert!(workers >= 1, "at least one worker required");
    let k = costs.len();
    let mut adj: Vec<Vec<(usize, u64)>> = vec![Vec::new(); k];
    for &(a, b, items) in links.iter().filter(|l| l.0 != l.1) {
        adj[a].push((b, items));
        adj[b].push((a, items));
    }
    let mut order: Vec<usize> = (0..k).collect();
    order.sort_by_key(|&s| (std::cmp::Reverse(costs[s]), s));
    let mut search = Search {
        costs,
        adj,
        order,
        bound: makespan_bound(costs, workers),
        load: vec![0; workers],
        held: vec![0; workers],
        owner: vec![usize::MAX; k],
        best: None,
        nodes: 0,
        budget,
        cut: false,
    };
    search.lpt();
    search.dfs(0, 0, 0);
    let (makespan, _, owner) = search.best.expect("LPT seeds the incumbent");
    Balanced {
        owner,
        makespan,
        bound: search.bound,
        exact: !search.cut,
    }
}

/// The branch-and-bound of [`balance`].
struct Search<'a> {
    costs: &'a [u64],
    /// Each segment's links: the other segment and the items.
    adj: Vec<Vec<(usize, u64)>>,
    /// Segments in decreasing cost, ties by index.
    order: Vec<usize>,
    bound: u64,
    /// Summed cost and segment count per worker, of the partial
    /// placement.
    load: Vec<u64>,
    held: Vec<usize>,
    /// The partial placement; `usize::MAX` where not placed yet.
    owner: Vec<usize>,
    /// (makespan, traffic, canonical owner vector) of the incumbent.
    best: Option<(u64, u64, Vec<usize>)>,
    nodes: u64,
    budget: u64,
    cut: bool,
}

impl Search<'_> {
    /// Items `s` would send across workers if put on `w`, to the
    /// segments already placed.
    fn added_traffic(&self, s: usize, w: usize) -> u64 {
        self.adj[s]
            .iter()
            .filter(|&&(o, _)| self.owner[o] != usize::MAX && self.owner[o] != w)
            .map(|&(_, items)| items)
            .sum()
    }

    /// The complete placement in `owner`, as the incumbent if it beats
    /// it. Workers are relabelled in the order segments first use them,
    /// so of all the relabellings of one placement only the least owner
    /// vector is compared.
    fn offer(&mut self, makespan: u64, traffic: u64) {
        let mut label = vec![usize::MAX; self.load.len()];
        let mut next = 0;
        let canon: Vec<usize> = self
            .owner
            .iter()
            .map(|&w| {
                if label[w] == usize::MAX {
                    label[w] = next;
                    next += 1;
                }
                label[w]
            })
            .collect();
        let candidate = (makespan, traffic, canon);
        if self.best.as_ref().is_none_or(|b| candidate < *b) {
            self.best = Some(candidate);
        }
    }

    /// Longest processing time first: each segment in `order` on the
    /// least loaded worker, ties to the lowest. Leaves the partial
    /// placement empty.
    fn lpt(&mut self) {
        let mut traffic = 0;
        for i in 0..self.order.len() {
            let s = self.order[i];
            let w = (0..self.load.len())
                .min_by_key(|&w| (self.load[w], w))
                .expect("workers >= 1");
            traffic += self.added_traffic(s, w);
            self.owner[s] = w;
            self.load[w] += self.costs[s];
        }
        let makespan = self.load.iter().copied().max().unwrap_or(0);
        self.offer(makespan, traffic);
        self.owner.fill(usize::MAX);
        self.load.fill(0);
    }

    /// Place `order[depth..]`, given the partial makespan and traffic.
    fn dfs(&mut self, depth: usize, makespan: u64, traffic: u64) {
        if self.nodes >= self.budget {
            self.cut = true;
            return;
        }
        self.nodes += 1;
        if depth == self.order.len() {
            self.offer(makespan, traffic);
            return;
        }
        let s = self.order[depth];
        let mut tried_empty = false;
        for w in 0..self.load.len() {
            if self.held[w] == 0 {
                if tried_empty {
                    continue;
                }
                tried_empty = true;
            }
            let ms = makespan.max(self.load[w] + self.costs[s]);
            let added = self.added_traffic(s, w);
            let (best_ms, best_traffic) = match &self.best {
                Some((m, t, _)) => (*m, *t),
                None => (u64::MAX, u64::MAX),
            };
            // Any completion has a makespan of at least `ms` and of the
            // bound, and more traffic than it has now.
            if ms > best_ms || (ms.max(self.bound) == best_ms && traffic + added > best_traffic) {
                continue;
            }
            self.owner[s] = w;
            self.load[w] += self.costs[s];
            self.held[w] += 1;
            self.dfs(depth + 1, ms, traffic + added);
            self.held[w] -= 1;
            self.load[w] -= self.costs[s];
            self.owner[s] = usize::MAX;
            if self.cut {
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::ExecPlan;
    use ccs_graph::gen;
    use ccs_partition::dag_greedy;

    /// A small xorshift, so the cases are the same on every run.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: u64) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0 % n
        }
    }

    /// The objective [`balance`] minimises, of a whole owner vector.
    fn objective(
        costs: &[u64],
        links: &[(usize, usize, u64)],
        owner: &[usize],
        workers: usize,
    ) -> (u64, u64) {
        let mut load = vec![0u64; workers];
        for (s, &w) in owner.iter().enumerate() {
            load[w] += costs[s];
        }
        let traffic = links
            .iter()
            .filter(|l| owner[l.0] != owner[l.1])
            .map(|l| l.2)
            .sum();
        (load.into_iter().max().unwrap_or(0), traffic)
    }

    /// Every owner vector in `0..workers^k`, the least by (makespan,
    /// traffic, vector).
    fn brute_force(
        costs: &[u64],
        links: &[(usize, usize, u64)],
        workers: usize,
    ) -> (u64, u64, Vec<usize>) {
        let k = costs.len();
        let mut owner = vec![0usize; k];
        let mut best: Option<(u64, u64, Vec<usize>)> = None;
        loop {
            let (ms, traffic) = objective(costs, links, &owner, workers);
            let candidate = (ms, traffic, owner.clone());
            if best.as_ref().is_none_or(|b| candidate < *b) {
                best = Some(candidate);
            }
            // Next vector, as a base-`workers` counter.
            let Some(i) = (0..k).rev().find(|&i| owner[i] + 1 < workers) else {
                break;
            };
            owner[i] += 1;
            owner[i + 1..].fill(0);
        }
        best.unwrap()
    }

    /// `k` costs in `0..spread` (small, so that makespans tie) and a
    /// chain of links plus a few others, of 1..4 items.
    fn case(rng: &mut Rng, k: usize, spread: u64) -> (Vec<u64>, Vec<(usize, usize, u64)>) {
        let costs = (0..k).map(|_| rng.below(spread)).collect();
        let mut links: Vec<(usize, usize, u64)> =
            (1..k).map(|s| (s - 1, s, 1 + rng.below(3))).collect();
        for _ in 0..k / 2 {
            let (a, b) = (rng.below(k as u64) as usize, rng.below(k as u64) as usize);
            links.push((a.min(b), a.max(b), 1 + rng.below(3)));
        }
        (costs, links)
    }

    #[test]
    fn balance_equals_the_brute_force_optimum() {
        let mut rng = Rng(0x9e37_79b9_7f4a_7c15);
        for workers in [2usize, 3, 4] {
            for k in 1..=10usize {
                // 4^10 vectors is a million: fewer cases at the top.
                let cases = if workers.pow(k as u32) > 100_000 {
                    2
                } else {
                    12
                };
                for c in 0..cases {
                    let spread = if c % 2 == 0 { 6 } else { 1_000 };
                    let (costs, links) = case(&mut rng, k, spread);
                    let got = balance(&costs, &links, workers);
                    assert!(got.exact, "{costs:?} on {workers}");
                    let (ms, traffic, owner) = brute_force(&costs, &links, workers);
                    assert_eq!(
                        (got.makespan, got.owner.clone()),
                        (ms, owner),
                        "{costs:?} {links:?} on {workers} workers"
                    );
                    assert_eq!(
                        objective(&costs, &links, &got.owner, workers),
                        (ms, traffic)
                    );
                    assert!(got.bound <= got.makespan);
                }
            }
        }
    }

    #[test]
    fn the_fallback_stays_within_its_reported_gap() {
        // A budget of one node stops the search at once: the LPT
        // placement comes back, not exact, and no worse than the
        // optimum by more than its gap.
        let mut rng = Rng(7);
        for workers in [2usize, 3, 4] {
            for k in [5usize, 8, 10] {
                let (costs, links) = case(&mut rng, k, 1_000);
                let got = balance_within(&costs, &links, workers, 1);
                assert!(!got.exact);
                let (opt, _, _) = brute_force(&costs, &links, workers);
                let (ms, _) = objective(&costs, &links, &got.owner, workers);
                assert_eq!(ms, got.makespan);
                assert!(got.bound <= opt && opt <= got.makespan, "{costs:?}");
                assert!(
                    got.makespan as f64 <= opt as f64 * (1.0 + got.gap()) + 1e-9,
                    "{costs:?}: {} over {opt}, gap {}",
                    got.makespan,
                    got.gap()
                );
                // LPT's own guarantee: within 4/3 − 1/(3W) of the optimum.
                let lpt = 4.0 / 3.0 - 1.0 / (3.0 * workers as f64);
                assert!(got.makespan as f64 <= opt as f64 * lpt + 1e-9, "{costs:?}");
            }
        }
    }

    #[test]
    fn balance_breaks_ties_deterministically() {
        // Equal costs tie on makespan everywhere: the chain's traffic
        // keeps neighbours together, and the least owner vector picks
        // among the relabellings, the same one every time.
        let costs = [5u64; 6];
        let links: Vec<(usize, usize, u64)> = (1..6).map(|s| (s - 1, s, 1)).collect();
        let a = balance(&costs, &links, 2);
        assert_eq!(a.owner, vec![0, 0, 0, 1, 1, 1]);
        assert_eq!((a.makespan, a.bound, a.gap()), (15, 15, 0.0));
        for _ in 0..4 {
            assert_eq!(balance(&costs, &links, 2), a);
        }
        // No links: the least owner vector alone decides.
        assert_eq!(balance(&costs, &[], 3).owner, vec![0, 0, 1, 1, 2, 2]);
        // More workers than segments: the least owner vector shares a
        // worker wherever the makespan allows it.
        assert_eq!(balance(&[3, 9, 1], &[], 5).owner, vec![0, 1, 0]);
        assert_eq!(balance(&[], &[], 2).owner, Vec::<usize>::new());
    }

    #[test]
    fn round_robin_cycles() {
        assert_eq!(round_robin(7, 3), vec![0, 1, 2, 0, 1, 2, 0]);
        assert_eq!(round_robin(2, 4), vec![0, 1]);
    }

    #[test]
    fn one_round_deals_the_measured_placement_as_round_robin() {
        // No steady state in one round, none to gain with a worker a
        // segment, nothing to place with one worker: the measured
        // default measures only past all three.
        let m = Placement::Measured;
        assert!(m.measures(2, 2, 3));
        assert!(!m.measures(2, 1, 3), "one round");
        assert!(!m.measures(1, 8, 3), "one worker");
        assert!(!m.measures(3, 8, 3), "a worker a segment");
        assert!(!Placement::RoundRobin.measures(2, 8, 9));
    }

    #[test]
    fn balance_balances_the_filterbank_round_robin_does_not() {
        // filterbank(8) at M = 512, partitioned as the planner does it
        // (greedy, refined, at M/2): round-robin puts the heavy analysis
        // head and three more segments on worker 0. Balanced on the
        // same per-segment costs, the busiest worker is within 10 % of
        // the mean.
        let g = ccs_apps::filterbank(8);
        let ra = RateAnalysis::analyze_single_io(&g).unwrap();
        let p = dag_greedy::greedy_best(&g, &ra, 256);
        let p = ccs_partition::dag_local::refine(&g, &ra, 256, &p, 16);
        let plan = ExecPlan::build(&g, &ra, &p, 512).unwrap();
        assert_eq!(plan.segments.len(), 7);
        let costs: Vec<u64> = plan.segments.iter().map(|s| s.cost).collect();
        let total: u64 = costs.iter().sum();
        let imbalance = |owner: &[usize]| {
            let (ms, _) = objective(&costs, &[], owner, 2);
            ms as f64 * 2.0 / total as f64
        };
        let placed = balance(&costs, &segment_links(&g, &ra, &plan), 2);
        assert!(placed.exact);
        assert!(imbalance(&placed.owner) <= 1.1, "{placed:?}");
        assert!(imbalance(&round_robin(7, 2)) >= 1.3);
    }

    #[test]
    fn segment_links_are_the_cross_edges_traffic() {
        let g = gen::pipeline_uniform(6, 32);
        let ra = RateAnalysis::analyze_single_io(&g).unwrap();
        let p = ccs_partition::Partition::from_assignment(vec![0, 0, 1, 1, 2, 2]);
        let plan = ExecPlan::build(&g, &ra, &p, 64).unwrap();
        let links = segment_links(&g, &ra, &plan);
        assert_eq!(links, vec![(0, 1, 1), (1, 2, 1)]);
    }

    #[test]
    fn placement_names_roundtrip() {
        for p in [Placement::RoundRobin, Placement::Measured] {
            assert_eq!(Placement::parse(p.name()), Ok(p));
        }
        assert_eq!(Placement::parse("rr"), Ok(Placement::RoundRobin));
        assert_eq!(Placement::NAMES, "rr|measured");
        let retired = Placement::parse("greedy").unwrap_err();
        assert!(
            retired.contains("placement 'greedy' was retired"),
            "{retired}"
        );
        let unknown = Placement::parse("llc").unwrap_err();
        assert_eq!(unknown, "unknown placement 'llc' (rr|measured)");
    }
}
