//! Segment → worker placement.
//!
//! Pinning decides which core's cache each segment's state lives in, and
//! which cross edges become cross-core traffic. Two policies:
//!
//! * [`Placement::CommGreedy`], the default — communication-affine
//!   placement under a balance cap on modelled work. Over two or more
//!   rounds the workers run a software pipeline on rings two batches
//!   deep, whose throughput is bounded by the busiest worker's work per
//!   round. So the greedy walks segments in contracted topological
//!   order and puts each on the worker with which it already shares the
//!   most per-iteration cross-edge traffic
//!   ([`RateAnalysis::edge_traffic`]), breaking ties toward the
//!   least-loaded worker. A worker is "open" for a segment while
//!   admitting it keeps the worker within its [`fair_share`] of the
//!   plan's total modelled cost ([`SegmentPlan::cost`]: per firing, the
//!   state it sweeps plus the items it moves). Affinity thus can never
//!   pile the work onto one core. A run of one round has no steady
//!   state: a chain of batches overlaps only through granules, so
//!   consecutive segments must sit on different workers, and the greedy
//!   deals them as round-robin does.
//! * [`Placement::RoundRobin`] — segments (in contracted topological
//!   order) dealt to workers cyclically at every round count; balances
//!   segment counts and spreads a pipeline across cores. It is the
//!   oracle the tests check every other placement against.
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
    /// Greedy maximization of intra-worker communication volume under
    /// a cap on each worker's modelled work, over two or more rounds;
    /// the round-robin deal in a run of one round.
    #[default]
    CommGreedy,
}

impl Placement {
    /// The names [`Placement::parse`] reads, for error messages.
    pub const NAMES: &'static str = "rr|greedy";

    /// Parse a CLI-style name.
    pub fn parse(name: &str) -> Option<Placement> {
        match name {
            "rr" | "round-robin" => Some(Placement::RoundRobin),
            "greedy" | "comm-greedy" => Some(Placement::CommGreedy),
            _ => None,
        }
    }

    pub fn name(&self) -> &'static str {
        match self {
            Placement::RoundRobin => "round-robin",
            Placement::CommGreedy => "comm-greedy",
        }
    }
}

/// Fair-share load cap of [`Placement::CommGreedy`]: admitting a
/// segment must keep the worker's modelled work per batch
/// ([`SegmentPlan::cost`](crate::SegmentPlan::cost), summed over the
/// segments it holds) within the ceiling of its share of the plan's
/// total.
pub fn fair_share(plan: &ExecPlan, workers: usize) -> u64 {
    assert!(workers >= 1, "at least one worker required");
    let total: u64 = plan.segments.iter().map(|s| s.cost).sum();
    total.div_ceil(workers as u64).max(1)
}

/// Assign each segment of `plan` to a worker in `0..workers`, for a run
/// of `rounds` batches of every segment.
pub fn assign(
    g: &StreamGraph,
    ra: &RateAnalysis,
    plan: &ExecPlan,
    workers: usize,
    placement: Placement,
    rounds: u64,
) -> Vec<usize> {
    assert!(workers >= 1, "at least one worker required");
    match placement {
        Placement::CommGreedy if rounds >= 2 => comm_greedy(g, ra, plan, workers),
        Placement::RoundRobin | Placement::CommGreedy => {
            (0..plan.segments.len()).map(|i| i % workers).collect()
        }
    }
}

/// [`assign`] for a run of two or more rounds, under the signature
/// `benchmark/src/sut.rs` names; the machine and the pinning do not
/// change a placement. It stays for `sut.rs` until ROADMAP item 1(c).
pub fn assign_on(
    g: &StreamGraph,
    ra: &RateAnalysis,
    plan: &ExecPlan,
    workers: usize,
    placement: Placement,
    _topo: &Topology,
    _pinned: bool,
) -> Vec<usize> {
    assign(g, ra, plan, workers, placement, 2)
}

/// The greedy walk: segments in contracted topological order, each
/// scored per candidate worker by its cross-edge traffic to neighbors
/// already placed there. Among workers under the fair-share cap: max
/// score, ties toward least placed cost, then lowest id
/// (deterministic). If every worker is at its fair share, fall back to
/// the least loaded.
fn comm_greedy(g: &StreamGraph, ra: &RateAnalysis, plan: &ExecPlan, workers: usize) -> Vec<usize> {
    let k = plan.segments.len();
    let mut owner = vec![usize::MAX; k];
    let mut load = vec![0u64; workers];
    let fair = fair_share(plan, workers);
    for si in 0..k {
        let mut affinity = vec![0u64; workers];
        let seg = &plan.segments[si];
        for &(e, _) in seg.in_batch.iter().chain(&seg.out_batch) {
            let edge = g.edge(e);
            let other = if plan.seg_of_node[edge.src.idx()] == si {
                plan.seg_of_node[edge.dst.idx()]
            } else {
                plan.seg_of_node[edge.src.idx()]
            };
            if owner[other] != usize::MAX {
                affinity[owner[other]] += ra.edge_traffic(g, e);
            }
        }
        let w = (0..workers)
            .filter(|&w| load[w] + seg.cost <= fair)
            .max_by(|&a, &b| {
                affinity[a]
                    .cmp(&affinity[b])
                    .then(load[b].cmp(&load[a]))
                    .then(b.cmp(&a))
            })
            .or_else(|| (0..workers).min_by_key(|&w| (load[w], w)))
            .expect("workers >= 1");
        owner[si] = w;
        load[w] += seg.cost;
    }
    owner
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::ExecPlan;
    use ccs_graph::gen::{self, LayeredCfg, StateDist};
    use ccs_partition::dag_greedy;

    fn setup() -> (ccs_graph::StreamGraph, RateAnalysis, ExecPlan) {
        let g = gen::layered(
            &LayeredCfg {
                layers: 5,
                max_width: 4,
                density: 0.4,
                state: StateDist::Uniform(8, 32),
                max_q: 2,
            },
            7,
        );
        let ra = RateAnalysis::analyze_single_io(&g).unwrap();
        let p = dag_greedy::greedy_topo(&g, 64);
        let plan = ExecPlan::build(&g, &ra, &p, 32).unwrap();
        (g, ra, plan)
    }

    #[test]
    fn round_robin_cycles() {
        let (g, ra, plan) = setup();
        let owner = assign(&g, &ra, &plan, 3, Placement::RoundRobin, 4);
        for (i, &w) in owner.iter().enumerate() {
            assert_eq!(w, i % 3);
        }
    }

    #[test]
    fn greedy_uses_all_requested_workers_or_fewer_segments() {
        let (g, ra, plan) = setup();
        for workers in [1usize, 2, 4] {
            let owner = assign(&g, &ra, &plan, workers, Placement::CommGreedy, 4);
            assert_eq!(owner.len(), plan.segments.len());
            assert!(owner.iter().all(|&w| w < workers));
        }
    }

    #[test]
    fn greedy_balances_work_across_workers() {
        // Many equal segments on two workers: affinity must not pile
        // everything onto one core once it reaches its fair share.
        let g = gen::pipeline_uniform(16, 32);
        let ra = RateAnalysis::analyze_single_io(&g).unwrap();
        let p = dag_greedy::greedy_topo(&g, 64);
        let plan = ExecPlan::build(&g, &ra, &p, 32).unwrap();
        assert!(plan.segments.len() >= 4);
        let owner = assign(&g, &ra, &plan, 2, Placement::CommGreedy, 4);
        assert!(owner.contains(&0) && owner.contains(&1), "{owner:?}");
        // Chain affinity keeps each worker's share contiguous.
        let switches = owner.windows(2).filter(|w| w[0] != w[1]).count();
        assert_eq!(switches, 1, "{owner:?}");
    }

    #[test]
    fn greedy_is_deterministic() {
        let (g, ra, plan) = setup();
        let a = assign(&g, &ra, &plan, 3, Placement::CommGreedy, 4);
        let b = assign(&g, &ra, &plan, 3, Placement::CommGreedy, 4);
        assert_eq!(a, b);
    }

    #[test]
    fn one_round_deals_greedy_as_round_robin() {
        // No steady state: consecutive segments go to different workers
        // whatever the policy, so a chain overlaps through granules.
        let (g, ra, plan) = setup();
        let g16 = gen::pipeline_uniform(16, 32);
        let ra16 = RateAnalysis::analyze_single_io(&g16).unwrap();
        let p16 = dag_greedy::greedy_topo(&g16, 64);
        let plan16 = ExecPlan::build(&g16, &ra16, &p16, 32).unwrap();
        for (g, ra, plan) in [(&g, &ra, &plan), (&g16, &ra16, &plan16)] {
            for workers in 1..=4 {
                let deal = assign(g, ra, plan, workers, Placement::RoundRobin, 1);
                assert_eq!(
                    assign(g, ra, plan, workers, Placement::CommGreedy, 1),
                    deal,
                    "{workers} workers"
                );
            }
        }
    }

    /// Busiest worker's modelled cost over the mean worker's.
    fn modelled_imbalance(plan: &ExecPlan, owner: &[usize], workers: usize) -> f64 {
        let mut load = vec![0u64; workers];
        for (seg, &w) in plan.segments.iter().zip(owner) {
            load[w] += seg.cost;
        }
        let total: u64 = load.iter().sum();
        *load.iter().max().unwrap() as f64 * workers as f64 / total as f64
    }

    #[test]
    fn greedy_balances_the_filterbank_round_robin_does_not() {
        // filterbank(8) at M = 512, partitioned as the planner does it
        // (greedy, refined, at M/2): round-robin puts the heavy
        // analysis head and three more segments on worker 0.
        let g = ccs_apps::filterbank(8);
        let ra = RateAnalysis::analyze_single_io(&g).unwrap();
        let p = dag_greedy::greedy_best(&g, &ra, 256);
        let p = ccs_partition::dag_local::refine(&g, &ra, 256, &p, 16);
        let plan = ExecPlan::build(&g, &ra, &p, 512).unwrap();
        assert_eq!(plan.segments.len(), 7);
        for rounds in [2, 100] {
            let greedy = assign(&g, &ra, &plan, 2, Placement::CommGreedy, rounds);
            let rr = assign(&g, &ra, &plan, 2, Placement::RoundRobin, rounds);
            let (gi, ri) = (
                modelled_imbalance(&plan, &greedy, 2),
                modelled_imbalance(&plan, &rr, 2),
            );
            assert!(gi <= 1.1, "greedy {greedy:?}: {gi}");
            assert!(ri >= 1.3, "round-robin {rr:?}: {ri}");
        }
    }

    #[test]
    fn placement_names_roundtrip() {
        for p in [Placement::RoundRobin, Placement::CommGreedy] {
            assert_eq!(Placement::parse(p.name()), Some(p));
        }
        assert_eq!(Placement::parse("rr"), Some(Placement::RoundRobin));
        assert_eq!(Placement::parse("greedy"), Some(Placement::CommGreedy));
        assert_eq!(Placement::parse("llc"), None);
        assert_eq!(Placement::NAMES, "rr|greedy");
        assert_eq!(Placement::parse("nope"), None);
    }
}
