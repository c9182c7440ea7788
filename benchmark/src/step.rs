//! One step of a run, made in a process of its own.
//!
//! The executors are sensitive to where the allocator puts the firing
//! plan: on `wide-dag` the same call is up to eight times slower on a
//! heap that earlier work has fragmented than on a fresh one. A caller of
//! the library (`ccs run-dag`) makes one call from a fresh process, so
//! the benchmark does the same for every call it times.

use crate::spans::Spans;
use crate::sut::{self, RunOutcome};
use crate::workloads::Workload;
use crate::{median, WORKERS};
use serde_json::{json, Value};
use std::hint::black_box;
use std::time::Instant;

/// Touches of the LRU microbenchmark.
const LRU_TOUCHES: u64 = 20_000_000;
/// Repeats each microbenchmark's reported median is taken over.
const MICRO_REPEATS: usize = 5;

fn peak_rss_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status reads");
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|n| n.parse().ok())
        .expect("VmHWM is reported")
}

/// Median over `MICRO_REPEATS` of the time `f` takes per item, `f`
/// moving `n` items each of the `iters` times it is called.
fn ns_per_item(n: usize, iters: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..MICRO_REPEATS)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                f();
            }
            start.elapsed().as_nanos() as f64 / (iters * n) as f64
        })
        .collect();
    median(&samples)
}

fn outcome_json(out: &RunOutcome, wall_s: f64) -> Value {
    let workers: Vec<Value> = out
        .workers
        .iter()
        .map(|&(busy, stall, stalls, batches)| {
            json!({
                "busy_s": busy.as_secs_f64(),
                "stall_s": stall.as_secs_f64(),
                "stalls": stalls,
                "batches": batches,
            })
        })
        .collect();
    json!({
        "wall_s": wall_s,
        "inner_wall_s": out.inner_wall.as_secs_f64(),
        "firings": out.firings,
        "sink_items": out.sink_items,
        "digest": out.digest,
        "workers": workers,
    })
}

/// Each layer's microbenchmark, at the workload's own sizes.
fn micro(spans: &mut Spans, wl: &Workload, g: &sut::StreamGraph, m: u64, seed: u64) -> Value {
    let ra = sut::analyze(g);
    let (p, _) = sut::partition(g, &ra, m);
    let plan = sut::build_plan(g, &ra, &p, m);
    let facts = sut::plan_facts(g, &plan, &sut::place(g, &ra, &plan, WORKERS));
    drop(plan);
    let n = facts.largest_cross_batch;

    let (floor_ns, _) = spans.time("runtime.kernel_floor", |_| {
        sut::kernel_floor_ns(&mut sut::bind(wl.binding, g, seed), &facts.quota)
    });
    // About 2^24 items per repeat, whatever the batch size.
    let iters = ((1 << 24) / n).max(16);
    let src = vec![1.0f32; n];
    let (mut mid, mut dst) = (vec![0.0f32; n], vec![0.0f32; n]);
    let (ring_ns, _) = spans.time("runtime.ring_bulk", |_| {
        let mut ring = sut::Ring::new(2 * n);
        ns_per_item(n, iters, || {
            sut::ring_bulk(&mut ring, black_box(&src), &mut dst)
        })
    });
    let (memcpy_ns, _) = spans.time("runtime.memcpy_floor", |_| {
        ns_per_item(n, iters, || {
            mid.copy_from_slice(black_box(&src));
            dst.copy_from_slice(black_box(&mid));
        })
    });
    let (handoff, _) = spans.time("runtime.spsc_handoff", |_| {
        sut::spsc_handoff(n, (iters / 8).max(256) as u32)
    });
    let (lru_misses, lru_took) =
        spans.time("cachesim.lru_touches", |_| sut::lru_touches(m, LRU_TOUCHES));
    black_box(lru_misses);
    json!({
        "kernel_floor_ns": floor_ns,
        "ring_bulk_ns_per_item": ring_ns,
        "memcpy_floor_ns_per_item": memcpy_ns,
        "spsc_handoff_us": handoff.as_secs_f64() * 1e6,
        "lru_touches_per_s": LRU_TOUCHES as f64 / lru_took.as_secs_f64(),
        "cross_batch_items": n,
        "counters_available": sut::counters_available(),
    })
}

/// Make the step `kind` of `wl` and return what it found as one object.
pub fn run(
    kind: &str,
    wl: &Workload,
    seed: u64,
    rounds: u64,
    keep_spans: bool,
) -> Result<Value, String> {
    let mut spans = Spans::new(keep_spans);
    let (g, m) = (wl.build)();
    let mut found = match kind {
        // From a built graph to ready-to-fire, each part timed.
        "setup" => {
            let ((ra, bandwidth, plan, owner, parts), total) = spans.time("setup", |s| {
                let (ra, t_ra) = s.time("graph.analyze_single_io", |_| sut::analyze(&g));
                let ((p, bw), t_p) = s.time("partition.partition", |_| sut::partition(&g, &ra, m));
                let (plan, t_plan) = s.time("exec.plan_build", |_| sut::build_plan(&g, &ra, &p, m));
                let (owner, t_place) =
                    s.time("exec.assign_on", |_| sut::place(&g, &ra, &plan, WORKERS));
                let (_inst, t_bind) = s.time("apps.bind", |_| sut::bind(wl.binding, &g, seed));
                (
                    ra,
                    bw,
                    plan,
                    owner,
                    [t_ra, t_p, t_plan, t_place, t_bind].map(|t| t.as_secs_f64()),
                )
            });
            let facts = sut::plan_facts(&g, &plan, &owner);
            // Only the traced run reports it, and it doubles the plan's
            // memory while it runs.
            let compile_s = keep_spans.then(|| {
                let (_, took) = spans.time("partition.compile_firing_plan", |_| {
                    sut::compile_firing_plans(&g, &plan)
                });
                took.as_secs_f64()
            });
            json!({
                "setup_s": total.as_secs_f64(),
                "rate_analysis_s": parts[0],
                "partition_s": parts[1],
                "plan_build_s": parts[2],
                "place_s": parts[3],
                "bind_s": parts[4],
                "plan_compile_s": compile_s,
                "segments": facts.segments,
                "bandwidth_per_input": bandwidth.0 as f64 / bandwidth.1 as f64,
                "max_segment_state_words": facts.max_segment_state_words,
                "plan_firings": facts.plan_firings,
                "plan_bytes": facts.plan_bytes,
                "arena_words": facts.arena_words,
                "granularity_t": sut::granularity_t(&g, &ra, m),
                "ring_capacity_words": facts.ring_capacity_words,
                "cross_worker_items_per_round": facts.cross_worker_items_per_round,
            })
        }
        "micro" => micro(&mut spans, wl, &g, m, seed),
        "model" => {
            let ra = sut::analyze(&g);
            let ((ours, baseline), took) =
                spans.time("sched.evaluate", |_| sut::model_misses_per_item(&g, &ra, m));
            json!({
                "model_misses_per_item": ours,
                "baseline_misses_per_item": baseline,
                "simulate_s": took.as_secs_f64(),
            })
        }
        _ => {
            let ra = sut::analyze(&g);
            let (p, _) = sut::partition(&g, &ra, m);
            let inst = sut::bind(wl.binding, &g, seed);
            match kind {
                "reference" => {
                    let (digest, _) = spans.time("check.reference", |_| {
                        sut::run_reference(inst, &ra, &p, m, rounds)
                    });
                    json!({"digest": digest})
                }
                "w1" => {
                    let (out, wall) = spans.time("exec.execute_serial_fused", |_| {
                        sut::run_w1(inst, &ra, &p, m, rounds)
                    });
                    outcome_json(&out.map_err(|e| e.to_string())?, wall.as_secs_f64())
                }
                "w2" | "w2-traced" => {
                    let traced = kind == "w2-traced";
                    let (out, wall) = spans.time("exec.execute_dag_cfg", |_| {
                        sut::run_dag(inst, &ra, &p, m, rounds, WORKERS, traced)
                    });
                    outcome_json(&out.map_err(|e| e.to_string())?, wall.as_secs_f64())
                }
                other => return Err(format!("no step named {other}")),
            }
        }
    };
    if let Value::Object(fields) = &mut found {
        fields.push(("peak_rss_kib".into(), json!(peak_rss_kib())));
        fields.push(("spans".into(), spans.to_json(wl.name)));
    }
    Ok(found)
}
