//! Synthetic streaming-graph generators.
//!
//! All generators with nonunit rates construct graphs *q-first*: each node
//! is assigned a target repetition count, and edge rates are derived from
//! the balance equations, so every generated graph is rate matched by
//! construction and its repetition vector stays small (exact arithmetic
//! never overflows).

use crate::analysis::RateAnalysis;
use crate::graph::{GraphBuilder, NodeId, StreamGraph};
use crate::ratio::gcd_u64;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// How module state sizes are drawn.
#[derive(Clone, Copy, Debug)]
pub enum StateDist {
    /// Every module has exactly this state (words).
    Fixed(u64),
    /// Uniform in `[lo, hi]`.
    Uniform(u64, u64),
    /// `Bimodal { small, large, p_large }`: mostly `small`, occasionally
    /// `large` — models a few heavyweight kernels among light glue.
    Bimodal {
        small: u64,
        large: u64,
        p_large: f64,
    },
}

impl StateDist {
    fn sample(&self, rng: &mut SmallRng) -> u64 {
        match *self {
            StateDist::Fixed(s) => s,
            StateDist::Uniform(lo, hi) => rng.gen_range(lo..=hi),
            StateDist::Bimodal {
                small,
                large,
                p_large,
            } => {
                if rng.gen_bool(p_large) {
                    large
                } else {
                    small
                }
            }
        }
    }
}

/// Configuration for random pipelines.
#[derive(Clone, Debug)]
pub struct PipelineCfg {
    /// Number of modules (>= 2).
    pub len: usize,
    pub state: StateDist,
    /// Maximum per-node repetition count; 1 gives a homogeneous pipeline.
    pub max_q: u64,
    /// Edge rates are scaled by a random factor in `1..=max_rate_scale`.
    pub max_rate_scale: u64,
}

impl Default for PipelineCfg {
    fn default() -> Self {
        PipelineCfg {
            len: 16,
            state: StateDist::Uniform(64, 512),
            max_q: 4,
            max_rate_scale: 3,
        }
    }
}

/// A homogeneous pipeline of `len` modules, each with `state` words.
pub fn pipeline_uniform(len: usize, state: u64) -> StreamGraph {
    assert!(len >= 1);
    let mut b = GraphBuilder::new();
    let ids: Vec<NodeId> = (0..len).map(|i| b.node(format!("p{i}"), state)).collect();
    for w in ids.windows(2) {
        b.edge(w[0], w[1], 1, 1);
    }
    b.build().expect("uniform pipeline is valid")
}

/// A random (possibly inhomogeneous) pipeline; rate matched by
/// construction.
pub fn pipeline(cfg: &PipelineCfg, seed: u64) -> StreamGraph {
    assert!(cfg.len >= 2, "pipeline needs at least two modules");
    assert!(cfg.max_q >= 1 && cfg.max_rate_scale >= 1);
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut b = GraphBuilder::new();
    let q: Vec<u64> = (0..cfg.len).map(|_| rng.gen_range(1..=cfg.max_q)).collect();
    let ids: Vec<NodeId> = (0..cfg.len)
        .map(|i| b.node(format!("p{i}"), cfg.state.sample(&mut rng)))
        .collect();
    for i in 0..cfg.len - 1 {
        let (qu, qv) = (q[i], q[i + 1]);
        let g = gcd_u64(qu, qv);
        let k = rng.gen_range(1..=cfg.max_rate_scale);
        // Balance: q(u)*produce == q(v)*consume.
        b.edge(ids[i], ids[i + 1], (qv / g) * k, (qu / g) * k);
    }
    b.build().expect("generated pipeline is valid")
}

/// Configuration for layered dags.
#[derive(Clone, Debug)]
pub struct LayeredCfg {
    /// Number of interior layers (>= 1).
    pub layers: usize,
    /// Width of each interior layer is uniform in `1..=max_width`.
    pub max_width: usize,
    /// Probability of each possible extra edge between adjacent layers
    /// (beyond the spanning connections).
    pub density: f64,
    pub state: StateDist,
    /// Maximum per-node repetition count; 1 gives a homogeneous dag.
    pub max_q: u64,
}

impl Default for LayeredCfg {
    fn default() -> Self {
        LayeredCfg {
            layers: 4,
            max_width: 4,
            density: 0.25,
            state: StateDist::Uniform(64, 512),
            max_q: 1,
        }
    }
}

/// A layered dag with a unique source and sink; homogeneous iff
/// `cfg.max_q == 1`. Every interior node lies on a source-to-sink path.
pub fn layered(cfg: &LayeredCfg, seed: u64) -> StreamGraph {
    assert!(cfg.layers >= 1 && cfg.max_width >= 1);
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut b = GraphBuilder::new();

    // Node repetition targets; derive all edge rates from these.
    let mut q_of: Vec<u64> = Vec::new();
    let push_node = |b: &mut GraphBuilder,
                     name: String,
                     rng: &mut SmallRng,
                     q_of: &mut Vec<u64>,
                     state: u64,
                     q: u64|
     -> NodeId {
        let id = b.node(name, state);
        debug_assert_eq!(id.idx(), q_of.len());
        q_of.push(q);
        let _ = rng;
        id
    };

    let src_state = cfg.state.sample(&mut rng);
    let source = push_node(&mut b, "source".into(), &mut rng, &mut q_of, src_state, 1);

    let mut prev_layer = vec![source];
    let mut edges: Vec<(NodeId, NodeId)> = Vec::new();
    for l in 0..cfg.layers {
        let width = rng.gen_range(1..=cfg.max_width);
        let mut layer = Vec::with_capacity(width);
        for i in 0..width {
            let st = cfg.state.sample(&mut rng);
            let q = rng.gen_range(1..=cfg.max_q);
            let v = push_node(&mut b, format!("l{l}n{i}"), &mut rng, &mut q_of, st, q);
            // Spanning edge from a random node in the previous layer keeps
            // every node reachable from the source.
            let u = prev_layer[rng.gen_range(0..prev_layer.len())];
            edges.push((u, v));
            layer.push(v);
        }
        // Extra density edges.
        for &u in &prev_layer {
            for &v in &layer {
                if !edges.contains(&(u, v)) && rng.gen_bool(cfg.density) {
                    edges.push((u, v));
                }
            }
        }
        prev_layer = layer;
    }
    let sink_state = cfg.state.sample(&mut rng);
    let sink = push_node(&mut b, "sink".into(), &mut rng, &mut q_of, sink_state, 1);
    // Everything without a successor inside the last layers connects to the
    // sink; simplest: connect all members of the final layer, plus any
    // interior node that ended up with no out-edge.
    let mut has_out = vec![false; q_of.len()];
    for &(u, _) in &edges {
        has_out[u.idx()] = true;
    }
    for &v in &prev_layer {
        edges.push((v, sink));
        has_out[v.idx()] = true;
    }
    for (i, &out) in has_out.iter().enumerate() {
        let v = NodeId(i as u32);
        if v != sink && !out {
            edges.push((v, sink));
        }
    }
    for (u, v) in edges {
        let (qu, qv) = (q_of[u.idx()], q_of[v.idx()]);
        let g = gcd_u64(qu, qv);
        b.edge(u, v, qv / g, qu / g);
    }
    b.build().expect("generated layered dag is valid")
}

/// A split-join (StreamIt-style): source -> split -> `branches` chains of
/// `chain_len` modules -> join -> sink. Homogeneous rates.
pub fn split_join(branches: usize, chain_len: usize, state: StateDist, seed: u64) -> StreamGraph {
    assert!(branches >= 1 && chain_len >= 1);
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut b = GraphBuilder::new();
    let source = b.node("source", state.sample(&mut rng));
    let split = b.node("split", state.sample(&mut rng));
    b.edge(source, split, 1, 1);
    let join = b.node("join", state.sample(&mut rng));
    for br in 0..branches {
        let mut prev = split;
        for i in 0..chain_len {
            let v = b.node(format!("b{br}m{i}"), state.sample(&mut rng));
            b.edge(prev, v, 1, 1);
            prev = v;
        }
        b.edge(prev, join, 1, 1);
    }
    let sink = b.node("sink", state.sample(&mut rng));
    b.edge(join, sink, 1, 1);
    b.build().expect("split-join is valid")
}

/// A butterfly (FFT-style) network with `stages` stages over `width = 2^k`
/// lanes, merged from a single source and into a single sink. Homogeneous.
pub fn butterfly(log_width: u32, state: StateDist, seed: u64) -> StreamGraph {
    let width = 1usize << log_width;
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut b = GraphBuilder::new();
    let source = b.node("source", state.sample(&mut rng));
    let mut prev: Vec<NodeId> = (0..width)
        .map(|i| b.node(format!("in{i}"), state.sample(&mut rng)))
        .collect();
    for &v in &prev {
        b.edge(source, v, 1, 1);
    }
    for stage in 0..log_width {
        let stride = 1usize << stage;
        let cur: Vec<NodeId> = (0..width)
            .map(|i| b.node(format!("s{stage}n{i}"), state.sample(&mut rng)))
            .collect();
        for i in 0..width {
            b.edge(prev[i], cur[i], 1, 1);
            b.edge(prev[i ^ stride], cur[i], 1, 1);
        }
        prev = cur;
    }
    let sink = b.node("sink", state.sample(&mut rng));
    for &v in &prev {
        b.edge(v, sink, 1, 1);
    }
    b.build().expect("butterfly is valid")
}

/// Rebuild `g` with a super-source feeding every original source and a
/// super-sink draining every original sink, preserving rate-matching.
/// The super endpoints have unit state.
pub fn add_super_endpoints(g: &StreamGraph) -> StreamGraph {
    let ra = RateAnalysis::analyze(g).expect("graph must be rate matched");
    let mut b = GraphBuilder::new();
    let ss = b.node("super-source", 1);
    let ids: Vec<NodeId> = g
        .node_ids()
        .map(|v| b.node(g.node(v).name.clone(), g.state(v)))
        .collect();
    for e in g.edge_ids() {
        let edge = g.edge(e);
        b.edge(
            ids[edge.src.idx()],
            ids[edge.dst.idx()],
            edge.produce,
            edge.consume,
        );
    }
    // Super-source fires once per steady-state iteration; the edge to
    // original source s has produce = q(s), consume = 1, preserving
    // balance with q(super) = 1.
    for s in g.sources() {
        b.edge(ss, ids[s.idx()], ra.q(s), 1);
    }
    let st = b.node("super-sink", 1);
    for t in g.sinks() {
        b.edge(ids[t.idx()], st, 1, ra.q(t));
    }
    b.build().expect("super-endpoint graph is valid")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_pipeline_shape() {
        let g = pipeline_uniform(8, 100);
        assert!(g.is_pipeline());
        assert!(g.is_homogeneous());
        assert_eq!(g.total_state(), 800);
        RateAnalysis::analyze_single_io(&g).unwrap();
    }

    #[test]
    fn random_pipelines_rate_matched() {
        for seed in 0..20 {
            let g = pipeline(&PipelineCfg::default(), seed);
            assert!(g.is_pipeline());
            let ra = RateAnalysis::analyze_single_io(&g).unwrap();
            assert!(ra.check_balance(&g));
        }
    }

    #[test]
    fn layered_dags_single_io_and_rate_matched() {
        for seed in 0..20 {
            let cfg = LayeredCfg {
                max_q: 3,
                ..LayeredCfg::default()
            };
            let g = layered(&cfg, seed);
            assert!(g.single_source().is_some(), "seed {seed}");
            assert!(g.single_sink().is_some(), "seed {seed}");
            let ra = RateAnalysis::analyze_single_io(&g).unwrap();
            assert!(ra.check_balance(&g));
        }
    }

    #[test]
    fn homogeneous_layered_is_homogeneous() {
        let cfg = LayeredCfg {
            max_q: 1,
            ..LayeredCfg::default()
        };
        for seed in 0..10 {
            let g = layered(&cfg, seed);
            assert!(g.is_homogeneous());
        }
    }

    #[test]
    fn split_join_shape() {
        let g = split_join(4, 3, StateDist::Fixed(10), 7);
        assert!(g.single_source().is_some());
        assert!(g.single_sink().is_some());
        assert!(g.is_homogeneous());
        // source, split, join, sink + 4*3 chain modules
        assert_eq!(g.node_count(), 4 + 12);
        RateAnalysis::analyze_single_io(&g).unwrap();
    }

    #[test]
    fn butterfly_shape() {
        let g = butterfly(3, StateDist::Fixed(8), 3);
        assert!(g.single_source().is_some());
        assert!(g.single_sink().is_some());
        // source + sink + width*(1 + log_width) interior
        assert_eq!(g.node_count(), 2 + 8 * 4);
        RateAnalysis::analyze_single_io(&g).unwrap();
    }

    #[test]
    fn super_endpoints_fix_multi_source() {
        let mut b = GraphBuilder::new();
        let s1 = b.node("s1", 4);
        let s2 = b.node("s2", 4);
        let t = b.node("t", 4);
        b.edge(s1, t, 2, 1);
        b.edge(s2, t, 1, 1);
        let g = b.build().unwrap();
        assert!(g.single_source().is_none());
        let g2 = add_super_endpoints(&g);
        assert!(g2.single_source().is_some());
        assert!(g2.single_sink().is_some());
        let ra = RateAnalysis::analyze_single_io(&g2).unwrap();
        assert!(ra.check_balance(&g2));
    }

    #[test]
    fn bimodal_state_dist_hits_both_modes() {
        let mut rng = SmallRng::seed_from_u64(1);
        let d = StateDist::Bimodal {
            small: 2,
            large: 1000,
            p_large: 0.5,
        };
        let samples: Vec<u64> = (0..64).map(|_| d.sample(&mut rng)).collect();
        assert!(samples.contains(&2));
        assert!(samples.contains(&1000));
    }
}
