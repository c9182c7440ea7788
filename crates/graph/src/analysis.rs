//! Rate analysis: rate-matching validation, repetition vectors, and gains.
//!
//! A streaming dag is *rate matched* (§2) when the product of
//! `out(u,v)/in(u,v)` along every directed path between a fixed pair of
//! vertices is the same. This is exactly the classical SDF *consistency*
//! condition of Lee and Messerschmitt: the balance equations
//! `q(u)·out(u,v) = q(v)·in(u,v)` admit a positive integer solution `q`,
//! the *repetition vector*. The paper's *gain* (Definition 1) is then
//! `gain(v) = q(v) / q(s)` for the unique source `s`.

use crate::graph::{EdgeId, NodeId, StreamGraph};
use crate::ratio::{gcd_i128, Ratio};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Errors raised by rate analysis.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RateError {
    /// Two directed paths between the same pair of nodes have different
    /// rate products; the offending edge is reported.
    NotRateMatched { edge: EdgeId },
    /// The graph is not weakly connected; gains are ill-defined across
    /// components.
    Disconnected,
    /// Rates produced values exceeding exact i128 arithmetic.
    Overflow,
    /// Gain analysis needs a unique source node; `sources` found.
    MultipleSources { sources: usize },
    /// Gain analysis needs a unique sink node; `sinks` found.
    MultipleSinks { sinks: usize },
}

impl fmt::Display for RateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RateError::NotRateMatched { edge } => {
                write!(f, "graph is not rate matched (edge {edge:?} inconsistent)")
            }
            RateError::Disconnected => write!(f, "graph is not weakly connected"),
            RateError::Overflow => write!(f, "rate arithmetic overflowed i128"),
            RateError::MultipleSources { sources } => {
                write!(f, "expected a unique source, found {sources}")
            }
            RateError::MultipleSinks { sinks } => {
                write!(f, "expected a unique sink, found {sinks}")
            }
        }
    }
}

impl std::error::Error for RateError {}

/// The result of rate analysis over a rate-matched streaming dag.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct RateAnalysis {
    /// Minimal positive integer repetition vector `q`: one steady-state
    /// iteration fires node `v` exactly `q[v]` times and returns every
    /// channel to its initial occupancy.
    pub repetitions: Vec<u64>,
    /// The unique source node (no incoming edges), if unique.
    pub source: Option<NodeId>,
    /// The unique sink node (no outgoing edges), if unique.
    pub sink: Option<NodeId>,
}

impl RateAnalysis {
    /// Analyze `g`. Fails if `g` is disconnected or not rate matched.
    pub fn analyze(g: &StreamGraph) -> Result<RateAnalysis, RateError> {
        let n = g.node_count();
        if !crate::topo::is_weakly_connected(g) {
            return Err(RateError::Disconnected);
        }
        // BFS over the undirected structure assigning integer firing
        // counts proportional to the rates, then verify every edge by its
        // balance equation `x(src)·produce == x(dst)·consume`. A count
        // that would be fractional first scales every count found so far
        // by the least factor that makes it whole, so the counts stay the
        // least integer multiple of the rates relative to node 0.
        let mut x: Vec<i128> = vec![0; n];
        x[0] = 1;
        let mut queue = std::collections::VecDeque::from([NodeId(0)]);
        while let Some(v) = queue.pop_front() {
            let edges = g.out_edges(v).iter().map(|&e| (e, true));
            for (e, forward) in edges.chain(g.in_edges(v).iter().map(|&e| (e, false))) {
                let edge = g.edge(e);
                // `v` fires `x(v)` times at `mine` items a firing on its
                // side of the edge; the other end `w` at `theirs`.
                let (w, mine, theirs) = if forward {
                    (edge.dst, edge.produce, edge.consume)
                } else {
                    (edge.src, edge.consume, edge.produce)
                };
                let theirs = theirs as i128;
                let mut items = x[v.idx()]
                    .checked_mul(mine as i128)
                    .ok_or(RateError::Overflow)?;
                if x[w.idx()] == 0 {
                    let scale = theirs / gcd_i128(items, theirs);
                    if scale > 1 {
                        for c in &mut x {
                            *c = c.checked_mul(scale).ok_or(RateError::Overflow)?;
                        }
                        items = items.checked_mul(scale).ok_or(RateError::Overflow)?;
                    }
                    x[w.idx()] = items / theirs;
                    queue.push_back(w);
                } else if x[w.idx()].checked_mul(theirs).ok_or(RateError::Overflow)? != items {
                    return Err(RateError::NotRateMatched { edge: e });
                }
            }
        }
        debug_assert!(
            x.iter().all(|&c| c > 0),
            "connected graph visits every node"
        );
        // Divide by the gcd of the counts: the minimal integer vector.
        let mut g_all: i128 = 0;
        for &v in &x {
            g_all = gcd_i128(g_all, v);
        }
        let repetitions: Vec<u64> = x
            .iter()
            .map(|&v| u64::try_from(v / g_all).map_err(|_| RateError::Overflow))
            .collect::<Result<_, _>>()?;
        // Every edge's items per iteration must fit a `u64`, so that
        // `edge_traffic` and the sums over it never wrap.
        for e in g.edge_ids() {
            let edge = g.edge(e);
            repetitions[edge.src.idx()]
                .checked_mul(edge.produce)
                .ok_or(RateError::Overflow)?;
        }
        Ok(RateAnalysis {
            repetitions,
            source: g.single_source(),
            sink: g.single_sink(),
        })
    }

    /// Like [`analyze`](Self::analyze), but additionally requires a unique
    /// source and unique sink (the paper's standing assumption).
    pub fn analyze_single_io(g: &StreamGraph) -> Result<RateAnalysis, RateError> {
        let a = Self::analyze(g)?;
        if a.source.is_none() {
            return Err(RateError::MultipleSources {
                sources: g.sources().len(),
            });
        }
        if a.sink.is_none() {
            return Err(RateError::MultipleSinks {
                sinks: g.sinks().len(),
            });
        }
        Ok(a)
    }

    /// `q(v)`: firings of `v` per steady-state iteration.
    #[inline]
    pub fn q(&self, v: NodeId) -> u64 {
        self.repetitions[v.idx()]
    }

    /// `gain(v) = q(v)/q(s)` — firings of `v` per firing of the unique
    /// source `s` (Definition 1). Panics if the graph has no unique source;
    /// use [`gain_from`](Self::gain_from) for multi-source graphs.
    pub fn gain(&self, v: NodeId) -> Ratio {
        let s = self.source.expect("gain requires a unique source");
        self.gain_from(s, v)
    }

    /// Firings of `v` per firing of `base`.
    pub fn gain_from(&self, base: NodeId, v: NodeId) -> Ratio {
        Ratio::new(
            self.repetitions[v.idx()] as i128,
            self.repetitions[base.idx()] as i128,
        )
    }

    /// `gain(u,v) = gain(u) · out(u,v)` — messages crossing edge `e` per
    /// source firing (Definition 1).
    pub fn edge_gain(&self, g: &StreamGraph, e: EdgeId) -> Ratio {
        let edge = g.edge(e);
        self.gain(edge.src) * Ratio::integer(edge.produce as i128)
    }

    /// Messages crossing edge `e` per steady-state iteration:
    /// `q(src)·produce` (an exact integer; equals `q(dst)·consume`, and
    /// `edge_gain(e)·q(source)`). Analysis refuses a graph where it
    /// would not fit a `u64`, so sums of it in `u128` never wrap.
    #[inline]
    pub fn edge_traffic(&self, g: &StreamGraph, e: EdgeId) -> u64 {
        let edge = g.edge(e);
        self.repetitions[edge.src.idx()] * edge.produce
    }

    /// A traffic total, in items per steady-state iteration, as items
    /// per source firing: `traffic / q(source)`, the one division that
    /// turns integer set-up arithmetic into a reported gain. Panics
    /// without a unique source, as [`gain`](Self::gain) does.
    pub fn per_input(&self, traffic: u128) -> Ratio {
        let s = self.source.expect("gain requires a unique source");
        let traffic = i128::try_from(traffic).expect("u32::MAX edges of u64 traffic fit i128");
        Ratio::new(traffic, self.repetitions[s.idx()] as i128)
    }

    /// Verifies the balance equation `q(u)·produce == q(v)·consume` on
    /// every edge — true for every successfully analyzed graph; exposed
    /// for tests.
    pub fn check_balance(&self, g: &StreamGraph) -> bool {
        g.edge_ids().all(|e| {
            let edge = g.edge(e);
            self.repetitions[edge.src.idx()] as u128 * edge.produce as u128
                == self.repetitions[edge.dst.idx()] as u128 * edge.consume as u128
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;

    #[test]
    fn homogeneous_repetitions_all_one() {
        let mut b = GraphBuilder::new();
        let s = b.node("s", 1);
        let a = b.node("a", 1);
        let t = b.node("t", 1);
        b.edge(s, a, 1, 1);
        b.edge(a, t, 1, 1);
        let g = b.build().unwrap();
        let ra = RateAnalysis::analyze_single_io(&g).unwrap();
        assert_eq!(ra.repetitions, vec![1, 1, 1]);
        assert_eq!(ra.gain(NodeId(2)), Ratio::ONE);
        assert!(ra.check_balance(&g));
    }

    #[test]
    fn classic_sdf_example() {
        // Lee-Messerschmitt style: s -(2:3)-> a -(1:2)-> t
        // Balance: q(s)*2 = q(a)*3, q(a)*1 = q(t)*2 => q = (3, 2, 1).
        let mut b = GraphBuilder::new();
        let s = b.node("s", 1);
        let a = b.node("a", 1);
        let t = b.node("t", 1);
        b.edge(s, a, 2, 3);
        b.edge(a, t, 1, 2);
        let g = b.build().unwrap();
        let ra = RateAnalysis::analyze(&g).unwrap();
        assert_eq!(ra.repetitions, vec![3, 2, 1]);
        assert_eq!(ra.gain(NodeId(1)), Ratio::new(2, 3));
        assert_eq!(ra.gain(NodeId(2)), Ratio::new(1, 3));
        // edge gains: gain(s)*2 = 2, gain(a)*1 = 2/3
        assert_eq!(ra.edge_gain(&g, EdgeId(0)), Ratio::integer(2));
        assert_eq!(ra.edge_gain(&g, EdgeId(1)), Ratio::new(2, 3));
        // per-iteration traffic
        assert_eq!(ra.edge_traffic(&g, EdgeId(0)), 6);
        assert_eq!(ra.edge_traffic(&g, EdgeId(1)), 2);
    }

    #[test]
    fn detects_rate_mismatch_on_diamond() {
        // Two paths s->t with different products: (1:1 then 1:1) vs (2:1 then 1:1).
        let mut b = GraphBuilder::new();
        let s = b.node("s", 1);
        let a = b.node("a", 1);
        let c = b.node("c", 1);
        let t = b.node("t", 1);
        b.edge(s, a, 1, 1);
        b.edge(s, c, 2, 1);
        b.edge(a, t, 1, 1);
        b.edge(c, t, 1, 1);
        let g = b.build().unwrap();
        assert!(matches!(
            RateAnalysis::analyze(&g),
            Err(RateError::NotRateMatched { .. })
        ));
    }

    #[test]
    fn rate_matched_diamond_with_rates() {
        // s splits 2 ways with amplification 2 on each branch, rejoined.
        let mut b = GraphBuilder::new();
        let s = b.node("s", 1);
        let a = b.node("a", 1);
        let c = b.node("c", 1);
        let t = b.node("t", 1);
        b.edge(s, a, 2, 1); // a fires 2x per s
        b.edge(s, c, 4, 2); // c fires 2x per s
        b.edge(a, t, 1, 2); // t fires 1x per s
        b.edge(c, t, 3, 6);
        let g = b.build().unwrap();
        let ra = RateAnalysis::analyze_single_io(&g).unwrap();
        assert_eq!(ra.repetitions, vec![1, 2, 2, 1]);
        assert!(ra.check_balance(&g));
        assert_eq!(ra.gain(NodeId(1)), Ratio::integer(2));
        assert_eq!(ra.gain(NodeId(3)), Ratio::ONE);
    }

    #[test]
    fn disconnected_rejected() {
        let mut b = GraphBuilder::new();
        let a = b.node("a", 1);
        let c = b.node("b", 1);
        let d = b.node("c", 1);
        b.edge(a, c, 1, 1);
        let _ = d;
        let g = b.build().unwrap();
        assert_eq!(RateAnalysis::analyze(&g), Err(RateError::Disconnected));
    }

    #[test]
    fn multi_source_flagged_only_by_single_io() {
        let mut b = GraphBuilder::new();
        let s1 = b.node("s1", 1);
        let s2 = b.node("s2", 1);
        let t = b.node("t", 1);
        b.edge(s1, t, 1, 1);
        b.edge(s2, t, 1, 1);
        let g = b.build().unwrap();
        assert!(RateAnalysis::analyze(&g).is_ok());
        assert!(matches!(
            RateAnalysis::analyze_single_io(&g),
            Err(RateError::MultipleSources { sources: 2 })
        ));
    }

    #[test]
    fn gain_from_arbitrary_base() {
        let mut b = GraphBuilder::new();
        let s = b.node("s", 1);
        let a = b.node("a", 1);
        b.edge(s, a, 3, 1);
        let g = b.build().unwrap();
        let ra = RateAnalysis::analyze(&g).unwrap();
        assert_eq!(ra.gain_from(NodeId(1), NodeId(0)), Ratio::new(1, 3));
    }

    #[test]
    fn repetition_vector_is_minimal() {
        let mut b = GraphBuilder::new();
        let s = b.node("s", 1);
        let a = b.node("a", 1);
        b.edge(s, a, 4, 6); // balance 4q(s)=6q(a) -> minimal (3, 2)
        let g = b.build().unwrap();
        let ra = RateAnalysis::analyze(&g).unwrap();
        assert_eq!(ra.repetitions, vec![3, 2]);
    }

    /// `s -(2:3)-> a -(1:2)-> t` with edge 0's rates scaled by `k` and
    /// the given module states.
    fn sdf_chain(k: u64, states: [u64; 3]) -> StreamGraph {
        let mut b = GraphBuilder::new();
        let s = b.node("s", states[0]);
        let a = b.node("a", states[1]);
        let t = b.node("t", states[2]);
        b.edge(s, a, 2 * k, 3 * k);
        b.edge(a, t, 1, 2);
        b.build().unwrap()
    }

    #[test]
    fn scaling_an_edges_rates_keeps_repetitions() {
        let base = sdf_chain(1, [1, 1, 1]);
        let scaled = sdf_chain(5, [1, 1, 1]);
        let ra = RateAnalysis::analyze_single_io(&base).unwrap();
        let rs = RateAnalysis::analyze_single_io(&scaled).unwrap();
        assert_eq!(rs.repetitions, ra.repetitions);
        assert!(rs.check_balance(&scaled));
        // Items per iteration on the scaled edge grow by the same factor.
        assert_eq!(
            rs.edge_traffic(&scaled, EdgeId(0)),
            5 * ra.edge_traffic(&base, EdgeId(0))
        );
        assert_eq!(rs.edge_gain(&scaled, EdgeId(0)), Ratio::integer(10));
    }

    #[test]
    fn reversing_every_edge_keeps_repetitions() {
        // t -(2:1)-> a -(3:2)-> s balances with the same firing counts,
        // and the source and sink trade places.
        let fwd = sdf_chain(1, [1, 1, 1]);
        let mut b = GraphBuilder::new();
        let s = b.node("s", 1);
        let a = b.node("a", 1);
        let t = b.node("t", 1);
        b.edge(t, a, 2, 1);
        b.edge(a, s, 3, 2);
        let rev = b.build().unwrap();
        let rf = RateAnalysis::analyze_single_io(&fwd).unwrap();
        let rr = RateAnalysis::analyze_single_io(&rev).unwrap();
        assert_eq!(rr.repetitions, rf.repetitions);
        assert_eq!(rr.source, rf.sink);
        assert_eq!(rr.sink, rf.source);
    }

    /// The repetition vector the long way: rational rates relative to
    /// node 0 along a BFS tree, times the lcm of their denominators,
    /// over the gcd of the results.
    fn repetitions_by_ratios(g: &StreamGraph) -> Vec<u64> {
        let mut r: Vec<Option<Ratio>> = vec![None; g.node_count()];
        r[0] = Some(Ratio::ONE);
        let mut queue = std::collections::VecDeque::from([NodeId(0)]);
        while let Some(v) = queue.pop_front() {
            for e in g.edge_ids() {
                let edge = g.edge(e);
                let (w, rate) = if edge.src == v {
                    (
                        edge.dst,
                        Ratio::new(edge.produce as i128, edge.consume as i128),
                    )
                } else if edge.dst == v {
                    (
                        edge.src,
                        Ratio::new(edge.consume as i128, edge.produce as i128),
                    )
                } else {
                    continue;
                };
                if r[w.idx()].is_none() {
                    r[w.idx()] = Some(r[v.idx()].unwrap() * rate);
                    queue.push_back(w);
                }
            }
        }
        let r: Vec<Ratio> = r.into_iter().map(Option::unwrap).collect();
        let l = r.iter().fold(1, |l, x| {
            crate::ratio::checked_lcm_i128(l, x.den()).unwrap()
        });
        let scaled: Vec<i128> = r.iter().map(|x| x.num() * (l / x.den())).collect();
        let g_all = scaled.iter().fold(0, |d, &x| gcd_i128(d, x));
        scaled.iter().map(|&x| (x / g_all) as u64).collect()
    }

    #[test]
    fn integer_counts_give_the_ratio_construction_repetitions() {
        use crate::gen::{self, LayeredCfg, PipelineCfg, StateDist};
        for seed in 0..30u64 {
            for max_q in 1..=4 {
                let layered = gen::layered(
                    &LayeredCfg {
                        layers: 5,
                        max_width: 5,
                        density: 0.4,
                        state: StateDist::Fixed(8),
                        max_q,
                    },
                    seed,
                );
                let pipe = gen::pipeline(
                    &PipelineCfg {
                        len: 10,
                        state: StateDist::Fixed(8),
                        max_q,
                        max_rate_scale: 3,
                    },
                    seed,
                );
                for g in [layered, pipe] {
                    let ra = RateAnalysis::analyze(&g).unwrap();
                    assert_eq!(ra.repetitions, repetitions_by_ratios(&g), "seed {seed}");
                }
            }
        }
    }

    #[test]
    fn traffic_beyond_u64_is_an_overflow() {
        // q = (1, 2^40, 2^40) fits, but 2^40 firings of `a` put 2^70
        // items on `a -> t`.
        let mut b = GraphBuilder::new();
        let s = b.node("s", 1);
        let a = b.node("a", 1);
        let t = b.node("t", 1);
        b.edge(s, a, 1 << 40, 1);
        b.edge(a, t, 1 << 30, 1 << 30);
        let g = b.build().unwrap();
        assert_eq!(RateAnalysis::analyze(&g), Err(RateError::Overflow));
    }

    #[test]
    fn per_input_divides_traffic_by_the_source_count() {
        let g = sdf_chain(1, [1, 1, 1]);
        let ra = RateAnalysis::analyze_single_io(&g).unwrap();
        for e in g.edge_ids() {
            let traffic = ra.edge_traffic(&g, e) as u128;
            assert_eq!(ra.per_input(traffic), ra.edge_gain(&g, e));
        }
        assert_eq!(ra.per_input(8), Ratio::new(8, 3));
    }

    #[test]
    fn module_state_never_enters_the_rate_analysis() {
        let light = sdf_chain(1, [1, 1, 1]);
        let heavy = sdf_chain(1, [4096, 7, 100_000]);
        let rl = RateAnalysis::analyze_single_io(&light).unwrap();
        let rh = RateAnalysis::analyze_single_io(&heavy).unwrap();
        assert_eq!(rh.repetitions, rl.repetitions);
        for e in light.edge_ids() {
            assert_eq!(rh.edge_gain(&heavy, e), rl.edge_gain(&light, e));
            assert_eq!(rh.edge_traffic(&heavy, e), rl.edge_traffic(&light, e));
        }
    }
}
