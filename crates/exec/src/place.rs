//! Segment → worker placement.
//!
//! Pinning decides which core's cache each segment's state lives in, and
//! which cross edges become cross-core traffic. Three policies:
//!
//! * [`Placement::RoundRobin`] — segments (in contracted topological
//!   order) dealt to workers cyclically; balances segment counts and
//!   spreads a pipeline across cores.
//! * [`Placement::CommGreedy`] — communication-volume-greedy, in the
//!   spirit of communication-affine core mapping: walk segments in
//!   contracted topological order and put each on the worker with which
//!   it already shares the most per-iteration cross-edge traffic
//!   ([`RateAnalysis::edge_traffic`]), breaking ties toward the
//!   least-loaded worker (by placed segment state).
//! * [`Placement::Llc`] — topology-aware: workers map to cores via
//!   [`ccs_topo::plan_worker_cores`] (one LLC cluster per worker while
//!   workers fit, cache-compact packing after that), and
//!   each segment scores candidate workers by cross-edge traffic to
//!   already-placed neighbors *discounted by hardware distance*
//!   ([`ccs_topo::Distance::affinity_weight`]: same core > same LLC >
//!   same node > cross node). High-gain-edge neighbors therefore
//!   cluster into one LLC domain — cross traffic becomes an LLC hit —
//!   and only spill to the next cluster when the fair-share load cap
//!   forces them to.
//!
//! `CommGreedy` and `Llc` share the same load cap: a worker is "open"
//! for a segment while admitting it keeps the worker within its fair
//! share of the total segment state, so affinity can never pile the
//! whole graph onto one core.

use crate::plan::ExecPlan;
use ccs_graph::{RateAnalysis, StreamGraph};
use ccs_topo::Topology;

/// Placement policy for pinning segments to workers.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Placement {
    /// Segment `i` (contracted topological order) goes to worker
    /// `i mod workers`.
    #[default]
    RoundRobin,
    /// Greedy maximization of intra-worker communication volume.
    CommGreedy,
    /// Greedy maximization of distance-weighted communication volume
    /// against a machine topology (LLC/NUMA aware).
    Llc,
}

impl Placement {
    /// Parse a CLI-style name.
    pub fn parse(name: &str) -> Option<Placement> {
        match name {
            "rr" | "round-robin" => Some(Placement::RoundRobin),
            "greedy" | "comm-greedy" => Some(Placement::CommGreedy),
            "llc" => Some(Placement::Llc),
            _ => None,
        }
    }

    pub fn name(&self) -> &'static str {
        match self {
            Placement::RoundRobin => "round-robin",
            Placement::CommGreedy => "comm-greedy",
            Placement::Llc => "llc",
        }
    }
}

/// Fair-share load cap used by the greedy placements: admitting a
/// segment must keep the worker within the ceiling of its share of
/// total segment state.
pub fn fair_share(plan: &ExecPlan, workers: usize) -> u64 {
    assert!(workers >= 1, "at least one worker required");
    let total: u64 = plan.segments.iter().map(|s| s.state_words).sum();
    total.div_ceil(workers as u64).max(1)
}

/// Assign each segment of `plan` to a worker in `0..workers`, with
/// worker `w` running on the core [`ccs_topo::plan_worker_cores`]
/// plans for it (one whole LLC cluster per worker while workers fit,
/// cache-compact packing after that) — the same mapping
/// [`ccs_topo::plan_bindings`] pins, so placement scores and pinned
/// reality agree. `pinned` says whether workers will actually be bound
/// to those cores: when they are not, two *distinct* workers wrapped
/// onto one core index (oversubscription) get same-LLC rather than
/// same-core credit, since the OS may run them anywhere — claiming
/// same-core would deliberately split hot edges across unrelated
/// threads.
pub fn assign_on(
    g: &StreamGraph,
    ra: &RateAnalysis,
    plan: &ExecPlan,
    workers: usize,
    placement: Placement,
    topo: &Topology,
    pinned: bool,
) -> Vec<usize> {
    assert!(workers >= 1, "at least one worker required");
    let k = plan.segments.len();
    match placement {
        Placement::RoundRobin => (0..k).map(|i| i % workers).collect(),
        Placement::CommGreedy => greedy_by_affinity(g, ra, plan, workers, |w, o| u64::from(w == o)),
        Placement::Llc => {
            let core_of = ccs_topo::plan_worker_cores(topo, workers);
            greedy_by_affinity(g, ra, plan, workers, |w, o| {
                let mut d = topo.distance(core_of[w], core_of[o]);
                if w != o && d == ccs_topo::Distance::SameCore && !pinned {
                    d = ccs_topo::Distance::SameLlc;
                }
                d.affinity_weight()
            })
        }
    }
}

/// The shared greedy walk: segments in contracted topological order,
/// each scored per candidate worker as Σ traffic(e)·weight(candidate,
/// owner) over cross edges to already-placed neighbors. Among workers
/// under the fair-share cap: max score, ties toward least placed state,
/// then lowest id (deterministic). If every worker is at its fair
/// share, fall back to the least loaded.
fn greedy_by_affinity(
    g: &StreamGraph,
    ra: &RateAnalysis,
    plan: &ExecPlan,
    workers: usize,
    weight: impl Fn(usize, usize) -> u64,
) -> Vec<usize> {
    let k = plan.segments.len();
    let mut owner = vec![usize::MAX; k];
    let mut load = vec![0u64; workers];
    let fair = fair_share(plan, workers);
    for si in 0..k {
        // Traffic per already-placed neighbor's worker first, spread
        // through the distance weights second — O(edges + workers²)
        // per segment instead of O(edges · workers).
        let mut owner_traffic = vec![0u64; workers];
        let seg = &plan.segments[si];
        for &(e, _) in seg.in_batch.iter().chain(&seg.out_batch) {
            let edge = g.edge(e);
            let other = if plan.seg_of_node[edge.src.idx()] == si {
                plan.seg_of_node[edge.dst.idx()]
            } else {
                plan.seg_of_node[edge.src.idx()]
            };
            if owner[other] != usize::MAX {
                owner_traffic[owner[other]] += ra.edge_traffic(g, e);
            }
        }
        let mut affinity = vec![0u64; workers];
        for (o, &t) in owner_traffic.iter().enumerate() {
            if t == 0 {
                continue;
            }
            for (w, a) in affinity.iter_mut().enumerate() {
                *a += t * weight(w, o);
            }
        }
        let w = (0..workers)
            .filter(|&w| load[w] + seg.state_words <= fair)
            .max_by(|&a, &b| {
                affinity[a]
                    .cmp(&affinity[b])
                    .then(load[b].cmp(&load[a]))
                    .then(b.cmp(&a))
            })
            .or_else(|| (0..workers).min_by_key(|&w| (load[w], w)))
            .expect("workers >= 1");
        owner[si] = w;
        load[w] += seg.state_words;
    }
    owner
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::ExecPlan;
    use ccs_graph::gen::{self, LayeredCfg, StateDist};
    use ccs_partition::dag_greedy;
    use ccs_topo::TopoSpec;

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

    /// Placement on a flat machine of `workers` cores, unpinned.
    fn assign(
        g: &ccs_graph::StreamGraph,
        ra: &RateAnalysis,
        plan: &ExecPlan,
        workers: usize,
        placement: Placement,
    ) -> Vec<usize> {
        let topo = Topology::single_cluster(workers);
        assign_on(g, ra, plan, workers, placement, &topo, false)
    }

    #[test]
    fn round_robin_cycles() {
        let (g, ra, plan) = setup();
        let owner = assign(&g, &ra, &plan, 3, Placement::RoundRobin);
        for (i, &w) in owner.iter().enumerate() {
            assert_eq!(w, i % 3);
        }
    }

    #[test]
    fn greedy_uses_all_requested_workers_or_fewer_segments() {
        let (g, ra, plan) = setup();
        for workers in [1usize, 2, 4] {
            let owner = assign(&g, &ra, &plan, workers, Placement::CommGreedy);
            assert_eq!(owner.len(), plan.segments.len());
            assert!(owner.iter().all(|&w| w < workers));
        }
    }

    #[test]
    fn greedy_balances_state_across_workers() {
        // Many equal segments on two workers: affinity must not pile
        // everything onto one core once it reaches its fair share.
        let g = gen::pipeline_uniform(16, 32);
        let ra = RateAnalysis::analyze_single_io(&g).unwrap();
        let p = dag_greedy::greedy_topo(&g, 64);
        let plan = ExecPlan::build(&g, &ra, &p, 32).unwrap();
        assert!(plan.segments.len() >= 4);
        let owner = assign(&g, &ra, &plan, 2, Placement::CommGreedy);
        assert!(owner.contains(&0) && owner.contains(&1), "{owner:?}");
        // Chain affinity keeps each worker's share contiguous.
        let switches = owner.windows(2).filter(|w| w[0] != w[1]).count();
        assert_eq!(switches, 1, "{owner:?}");
    }

    #[test]
    fn greedy_is_deterministic() {
        let (g, ra, plan) = setup();
        let a = assign(&g, &ra, &plan, 3, Placement::CommGreedy);
        let b = assign(&g, &ra, &plan, 3, Placement::CommGreedy);
        assert_eq!(a, b);
    }

    #[test]
    fn llc_respects_fair_share_cap() {
        let (g, ra, plan) = setup();
        let topo = Topology::synthetic(&TopoSpec::new(2, 2, 2));
        for workers in [2usize, 4, 8] {
            let owner = assign_on(&g, &ra, &plan, workers, Placement::Llc, &topo, true);
            let fair = fair_share(&plan, workers);
            let mut load = vec![0u64; workers];
            for (si, &w) in owner.iter().enumerate() {
                load[w] += plan.segments[si].state_words;
            }
            // A worker may only exceed the cap through the
            // all-workers-full fallback, which picks the least-loaded
            // worker; it can then be over by at most one segment.
            let max_seg = plan
                .segments
                .iter()
                .map(|s| s.state_words)
                .max()
                .unwrap_or(0);
            for (w, &l) in load.iter().enumerate() {
                assert!(l <= fair + max_seg, "worker {w}: {l} > {fair} + {max_seg}");
            }
        }
    }

    #[test]
    fn llc_keeps_chain_neighbors_in_one_cluster() {
        // A homogeneous pipeline of equal segments on a 2-cluster
        // machine: every edge has equal traffic, so the greedy should
        // fill one LLC cluster's workers with a contiguous run of the
        // chain before crossing to the other cluster — at most one
        // cluster boundary along the whole chain.
        let g = gen::pipeline_uniform(16, 32);
        let ra = RateAnalysis::analyze_single_io(&g).unwrap();
        let p = dag_greedy::greedy_topo(&g, 64);
        let plan = ExecPlan::build(&g, &ra, &p, 32).unwrap();
        assert!(plan.segments.len() >= 4, "{}", plan.segments.len());
        let topo = Topology::synthetic(&TopoSpec::new(1, 2, 2));
        let owner = assign_on(&g, &ra, &plan, 4, Placement::Llc, &topo, true);
        let worker_cores = ccs_topo::plan_worker_cores(&topo, 4);
        let cluster_of = |w: usize| topo.core(worker_cores[w]).cluster;
        let crossings = owner
            .windows(2)
            .filter(|w| cluster_of(w[0]) != cluster_of(w[1]))
            .count();
        assert!(crossings <= 1, "{owner:?}");
    }

    #[test]
    fn llc_spread_gives_each_worker_its_own_cluster() {
        // workers ≤ clusters: spread mode — every worker's planned core
        // sits in a distinct LLC cluster, so no two workers' segment
        // state contends for one cache.
        let topo = Topology::synthetic(&TopoSpec::new(1, 4, 2));
        let cores = ccs_topo::plan_worker_cores(&topo, 4);
        let clusters: std::collections::HashSet<usize> =
            cores.iter().map(|&c| topo.core(c).cluster).collect();
        assert_eq!(clusters.len(), 4);
        // Placement over the spread mapping is deterministic and in range.
        let (g, ra, plan) = setup();
        let a = assign_on(&g, &ra, &plan, 4, Placement::Llc, &topo, true);
        assert_eq!(a, assign_on(&g, &ra, &plan, 4, Placement::Llc, &topo, true));
        assert!(a.iter().all(|&w| w < 4));
    }

    #[test]
    fn llc_on_flat_topology_matches_distance_free_greedy_shape() {
        let (g, ra, plan) = setup();
        let owner = assign(&g, &ra, &plan, 3, Placement::Llc);
        assert_eq!(owner.len(), plan.segments.len());
        assert!(owner.iter().all(|&w| w < 3));
        // Deterministic.
        assert_eq!(owner, assign(&g, &ra, &plan, 3, Placement::Llc));
    }

    #[test]
    fn placement_names_roundtrip() {
        for p in [Placement::RoundRobin, Placement::CommGreedy, Placement::Llc] {
            assert_eq!(Placement::parse(p.name()), Some(p));
        }
        assert_eq!(Placement::parse("rr"), Some(Placement::RoundRobin));
        assert_eq!(Placement::parse("greedy"), Some(Placement::CommGreedy));
        assert_eq!(Placement::parse("llc"), Some(Placement::Llc));
        assert_eq!(Placement::parse("nope"), None);
    }
}
