//! Acceptance: on a deliberately imbalanced app, the trace summary
//! names the known bottleneck segment and its blocking edge — and the
//! enriched telemetry (stall blame + ring occupancy) does not disturb
//! the computation (digest equivalence against the serial reference).

use ccs_exec::{execute_dag_cfg, Placement, RunConfig};
use ccs_graph::gen;
use ccs_graph::RateAnalysis;
use ccs_obs::chrome::{document, TraceWorker};
use ccs_partition::Partition;
use ccs_runtime::instance::Instance;
use ccs_sched::partitioned;
use serde_json::json;

#[test]
fn imbalanced_pipeline_names_its_bottleneck_segment_and_edge() {
    // A 10-stage uniform pipeline split 8 nodes / 2 nodes: segment 0
    // carries 4x the per-batch work of segment 1, so segment 1 starves
    // behind the single cross edge (node 7 -> node 8, edge 7) and every
    // blamed stall must point there.
    let g = gen::pipeline_uniform(10, 64);
    let ra = RateAnalysis::analyze_single_io(&g).unwrap();
    let p = Partition::from_assignment(vec![0, 0, 0, 0, 0, 0, 0, 0, 1, 1]);
    let m = 256u64;
    let rounds = 16u64;

    let serial_run = partitioned::inhomogeneous(&g, &ra, &p, m, rounds).unwrap();
    let mut serial_inst = Instance::synthetic(g.clone());
    let want = ccs_runtime::serial::execute(&mut serial_inst, &serial_run).digest;

    let cfg = RunConfig::new(2)
        .with_placement(Placement::Measured)
        .with_trace(true);
    let stats = execute_dag_cfg(Instance::synthetic(g.clone()), &ra, &p, m, rounds, &cfg).unwrap();
    assert_eq!(stats.run.digest, want, "telemetry must not disturb the run");

    let workers: Vec<TraceWorker> = stats
        .workers
        .iter()
        .map(|w| {
            let tl = w.trace.as_ref().expect("traced run has timelines");
            TraceWorker {
                worker: w.worker,
                name: format!("worker {}", w.worker),
                events: &tl.events,
                dropped: tl.dropped,
                windows: &w.windows,
            }
        })
        .collect();
    let doc = document("imbalanced", json!({"engine": "parallel"}), &workers);
    let s = &doc["summary"];

    // The run must actually have stalled and attributed it.
    let top = &s["bottlenecks"][0];
    assert!(
        !top.is_null(),
        "imbalanced run produced no attributed stalls: {}",
        serde_json::to_string(&s["workers"]).unwrap()
    );
    // The culprit is the heavy segment, through the one cross edge.
    assert_eq!(top["seg"].as_u64(), Some(0), "culprit must be segment 0");
    assert_eq!(top["edge"].as_u64(), Some(7), "blocking edge must be 7");
    assert_eq!(top["reason"].as_str(), Some("producer-empty"));

    // The blame table agrees: the dominant row blames seg 0 for seg 1.
    let row = &s["stall_blame"][0];
    assert_eq!(row["culprit_seg"].as_u64(), Some(0));
    assert_eq!(row["blocked_seg"].as_u64(), Some(1));

    // Occupancy was recorded for the cross ring.
    let occ = &s["occupancy"][0];
    assert_eq!(occ["ring"].as_u64(), Some(7));
    assert!(occ["samples"].as_u64().unwrap() > 0);

    // And the text report names the bottleneck.
    let text = ccs_obs::report::render(&doc).unwrap();
    assert!(text.contains("bottleneck: seg 0 via edge 7"), "{text}");
}
