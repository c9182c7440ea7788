//! Fusion: materialize a partition as a coarser streaming graph, so any
//! downstream scheduler benefits from the partition's locality — the §6
//! remark that module fusion is a special case of partitioning, made
//! executable.
//!
//! ```sh
//! cargo run --release --example fusion
//! ```

use cache_conscious_streaming::partition::{dag_greedy, fusion};
use cache_conscious_streaming::prelude::*;
use cache_conscious_streaming::sched::baseline;

fn main() {
    let graph = cache_conscious_streaming::apps::fm_radio(32);
    let ra = RateAnalysis::analyze_single_io(&graph).unwrap();
    println!(
        "fm-radio(32): {} modules, {} words of state",
        graph.node_count(),
        graph.total_state()
    );

    // A cache holding about a quarter of the app: partitioning matters.
    let params = CacheParams::new(
        (graph.total_state() / 4)
            .max(8 * graph.max_state())
            .next_multiple_of(16),
        16,
    );
    let planner = Planner::new(params);

    // Fusion: bake the partition into the graph itself.
    let p = dag_greedy::greedy_topo(&graph, params.capacity / 2);
    let fused = fusion::fuse(&graph, &ra, &p).expect("partition is well ordered");
    println!(
        "\nfused graph: {} modules (was {}):",
        fused.graph.node_count(),
        graph.node_count()
    );
    for v in fused.graph.node_ids() {
        println!(
            "  {:<40} {:>6} words",
            fused.graph.node(v).name,
            fused.graph.state(v)
        );
    }
    // Any scheduler now sees the partitioned locality: even the plain
    // single-appearance schedule, batched by Sermulins-style scaling,
    // amortizes each fused component's state load.
    let scaled_sas = |g: &StreamGraph| {
        let gra = RateAnalysis::analyze_single_io(g).unwrap();
        let scale = baseline::choose_scale(g, &gra, params.capacity / 2);
        let run = baseline::scaled_sas(g, &gra, scale, 8);
        let rep = planner.evaluate_with(g, &run, Default::default()).unwrap();
        (scale, rep.stats.misses as f64 / rep.outputs.max(1) as f64)
    };
    let (scale, before) = scaled_sas(&graph);
    println!("\nscaled SAS (x{scale}) on the original graph: {before:.4} misses/output");
    let (scale, after) = scaled_sas(&fused.graph);
    println!("scaled SAS (x{scale}) on the fused graph:    {after:.4} misses/output");
    println!("(fusion hands the partition's locality to a scheduler with no");
    println!(" two-level runtime at all)");
}
