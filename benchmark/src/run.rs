//! One run of one workload: the steps it is made of, each in a process of
//! its own (see `step.rs`), and the metrics taken from them.

use crate::spans::Spans;
use crate::workloads::Workload;
use crate::{best, run_self, Metric, EXACT, OUT_DIR};
use serde_json::{json, Value};
use std::collections::BTreeMap;
use std::time::Instant;

/// Counts operations, an operation being one execute call. It fails on an
/// `Err`, a panic, or a sink digest that differs from the one expected
/// at its round count.
#[derive(Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
    /// Expected digest per round count: the reference interpreter's where
    /// it ran, otherwise that of the first call at that round count, so
    /// that w1 and w2 must agree with each other.
    expected: BTreeMap<u64, Option<u64>>,
}

impl Ops {
    fn fail(&mut self, what: &str) {
        self.failed += 1;
        eprintln!("FAILED operation: {what}");
    }
}

struct Run<'a> {
    wl: &'a Workload,
    seed: u64,
    spans: Spans,
    ops: Ops,
    /// Largest `VmHWM` of any process of the run, in KiB.
    peak_rss_kib: u64,
}

impl Run<'_> {
    /// Make one step in a child process and return what it printed.
    fn step(&mut self, kind: &str, rounds: u64, keep_spans: bool) -> Result<Value, String> {
        let (seed, rounds) = (self.seed.to_string(), rounds.to_string());
        let trace = if keep_spans { "1" } else { "0" };
        let args = [
            "--step",
            kind,
            "--workload",
            self.wl.name,
            "--seed",
            &seed,
            "--rounds",
            &rounds,
            "--trace",
            trace,
        ];
        // The child's spans are adopted while the process span is still
        // open, so that they become its descendants.
        let (found, _) = self.spans.time(&format!("process.{kind}"), |spans| {
            let (_, found) = run_self(&args)?;
            spans.adopt(&found["spans"]);
            Ok::<Value, String>(found)
        });
        let found = found?;
        self.peak_rss_kib = self
            .peak_rss_kib
            .max(found["peak_rss_kib"].as_u64().unwrap_or(0));
        Ok(found)
    }

    /// One execute call, counted as an operation; returns what it
    /// reported if it succeeded.
    fn call(&mut self, kind: &str, rounds: u64) -> Option<Value> {
        self.ops.attempted += 1;
        let keep = self.spans.keep;
        match self.step(kind, rounds, keep) {
            Err(e) => self.ops.fail(&e),
            Ok(out) => {
                let digest = out["digest"].as_u64();
                let expected = *self.ops.expected.entry(rounds).or_insert(digest);
                if digest.is_some() && digest == expected {
                    return Some(out);
                }
                self.ops.fail(&format!(
                    "{kind} at {rounds} rounds: digest {digest:?}, expected {expected:?}"
                ));
            }
        }
        None
    }
}

fn num(v: &Value) -> f64 {
    v.as_f64().unwrap_or(f64::NAN)
}

fn items_per_s(out: &Value) -> f64 {
    num(&out["sink_items"]) / num(&out["wall_s"])
}

/// `key` of every sample, times `by`.
fn each(samples: &[Value], key: &str, by: f64) -> Vec<f64> {
    samples.iter().map(|s| num(&s[key]) * by).collect()
}

/// What the steps of the measured cycles reported.
#[derive(Default)]
struct Samples {
    setups: Vec<Value>,
    w1: Vec<Value>,
    w2: Vec<Value>,
    /// One-round w1 calls, where the timed calls run more rounds.
    first_batch: Vec<Value>,
    /// Traced run only: w1 without kept spans, w2 with the executor's own
    /// trace.
    w1_bare: Vec<Value>,
    w2_traced: Vec<Value>,
}

/// Cycle through the measured steps for `seconds`: a set-up, a w1 call and
/// a w2 call at the workload's full round count, then the calls only one
/// kind of run reports. Interleaved, so that every metric's repeats are
/// spread over the whole time and a slow spell of the host hits them all
/// alike. At least three cycles, two in the traced run, whose cycles are
/// longer.
fn measure(run: &mut Run, seconds: f64) -> Result<Samples, String> {
    let (rounds, trace) = (run.wl.rounds, run.spans.keep);
    let min_cycles = if trace { 2 } else { 3 };
    let mut s = Samples::default();
    let started = Instant::now();
    while s.setups.len() < min_cycles || started.elapsed().as_secs_f64() < seconds {
        s.setups.push(run.step("setup", 0, trace)?);
        s.w1.extend(run.call("w1", rounds));
        s.w2.extend(run.call("w2", rounds));
        if trace {
            run.spans.keep = false;
            s.w1_bare.extend(run.call("w1", rounds));
            run.spans.keep = true;
            s.w2_traced.extend(run.call("w2-traced", rounds));
        } else if rounds > 1 {
            s.first_batch.extend(run.call("w1", 1));
        }
    }
    Ok(s)
}

/// The end-to-end metrics, from an untraced run's samples.
fn end_to_end(run: &Run, s: &Samples) -> Vec<Metric> {
    let ips = |calls: &[Value]| calls.iter().map(items_per_s).collect::<Vec<f64>>();
    // A one-round call is itself the first batch.
    let first_batch = if run.wl.rounds == 1 {
        &s.w1
    } else {
        &s.first_batch
    };
    vec![
        Metric::highest("items_per_s_w1", "items/s", &ips(&s.w1)),
        Metric::highest("items_per_s_w2", "items/s", &ips(&s.w2)),
        Metric::lowest("first_batch_ms", "ms", &each(first_batch, "wall_s", 1e3)),
        Metric::lowest("setup_s", "s", &each(&s.setups, "setup_s", 1.0)),
        Metric::single("peak_rss_mib", "MiB", run.peak_rss_kib as f64 / 1024.0),
    ]
}

/// Stall share, stalls per batch and busy imbalance of one w2 call.
fn worker_shares(out: &Value) -> (f64, f64, f64) {
    let Value::Array(workers) = &out["workers"] else {
        return (f64::NAN, f64::NAN, f64::NAN);
    };
    let sum = |key: &str| workers.iter().map(|w| num(&w[key])).sum::<f64>();
    let (busy, stall) = (sum("busy_s"), sum("stall_s"));
    let max_busy = workers
        .iter()
        .map(|w| num(&w["busy_s"]))
        .fold(0.0, f64::max);
    (
        stall / (busy + stall),
        sum("stalls") / sum("batches"),
        max_busy / (busy / workers.len() as f64),
    )
}

/// The per-layer ledger, from a traced run's samples, each layer's
/// microbenchmark and the model.
fn ledger(run: &mut Run, s: &Samples) -> Result<Vec<Metric>, String> {
    let wl = run.wl;
    let micro = run.step("micro", 0, true)?;
    // -1 stands for "not run": see `Workload::model`.
    let model = if wl.model {
        run.step("model", 0, true)?
    } else {
        json!({"model_misses_per_item": -1.0, "baseline_misses_per_item": -1.0, "simulate_s": 0.0})
    };

    let w1_ips: Vec<f64> = s.w1.iter().map(items_per_s).collect();
    let in_call_setup: Vec<f64> =
        s.w1.iter()
            .map(|c| num(&c["wall_s"]) - num(&c["inner_wall_s"]))
            .collect();
    let ns_per_firing: Vec<f64> =
        s.w1.iter()
            .map(|c| num(&c["inner_wall_s"]) * 1e9 / num(&c["firings"]))
            .collect();
    // The fastest w2 call, the one its worker shares are read from.
    let best_w2 =
        s.w2.iter()
            .max_by(|a, b| items_per_s(a).total_cmp(&items_per_s(b)))
            .ok_or("no w2 call succeeded")?;
    let (stall_share, stalls_per_batch, imbalance) = worker_shares(best_w2);
    let w1_best = best(&w1_ips, true);
    let part = |name: &str, by: f64| each(&s.setups, name, by);
    // The counts are the same in every set-up; the self-check verifies it.
    let plan = &s.setups[0];
    let floor_ns = num(&micro["kernel_floor_ns"]);
    let wall = |calls: &[Value]| best(&each(calls, "wall_s", 1.0), false);
    let metrics = vec![
        Metric::lowest(
            "graph.rate_analysis_us",
            "us",
            &part("rate_analysis_s", 1e6),
        ),
        Metric::lowest("apps.bind_ms", "ms", &part("bind_s", 1e3)),
        Metric::lowest("partition.time_ms", "ms", &part("partition_s", 1e3)),
        Metric::single("partition.segments", "count", num(&plan["segments"])),
        Metric::single(
            "partition.bandwidth_per_input",
            "items",
            num(&plan["bandwidth_per_input"]),
        ),
        Metric::single(
            "partition.max_segment_state_words",
            "words",
            num(&plan["max_segment_state_words"]),
        ),
        Metric::lowest(
            "partition.plan_compile_ms",
            "ms",
            &each(&s.setups, "plan_compile_s", 1e3),
        ),
        Metric::single(
            "partition.plan_firings",
            "count",
            num(&plan["plan_firings"]),
        ),
        Metric::single("partition.plan_bytes", "bytes", num(&plan["plan_bytes"])),
        Metric::single("partition.arena_words", "words", num(&plan["arena_words"])),
        Metric::single("sched.granularity_t", "count", num(&plan["granularity_t"])),
        Metric::single(
            "sched.model_misses_per_item",
            "misses/item",
            num(&model["model_misses_per_item"]),
        ),
        Metric::single(
            "sched.baseline_misses_per_item",
            "misses/item",
            num(&model["baseline_misses_per_item"]),
        ),
        Metric::single("sched.simulate_s", "s", num(&model["simulate_s"])),
        Metric::single(
            "cachesim.lru_touches_per_s",
            "1/s",
            num(&micro["lru_touches_per_s"]),
        ),
        Metric::single(
            "runtime.ring_bulk_ns_per_item",
            "ns",
            num(&micro["ring_bulk_ns_per_item"]),
        ),
        Metric::single(
            "runtime.memcpy_floor_ns_per_item",
            "ns",
            num(&micro["memcpy_floor_ns_per_item"]),
        ),
        Metric::single(
            "runtime.spsc_handoff_us",
            "us",
            num(&micro["spsc_handoff_us"]),
        ),
        Metric::single("runtime.kernel_floor_ns_per_firing", "ns", floor_ns),
        Metric::lowest("exec.plan_build_ms", "ms", &part("plan_build_s", 1e3)),
        Metric::lowest("exec.place_us", "us", &part("place_s", 1e6)),
        Metric::single(
            "exec.ring_capacity_words",
            "words",
            num(&plan["ring_capacity_words"]),
        ),
        Metric::single(
            "exec.cross_worker_items_per_round",
            "items",
            num(&plan["cross_worker_items_per_round"]),
        ),
        Metric::lowest("exec.in_call_setup_s", "s", &in_call_setup),
        Metric::lowest("exec.ns_per_firing_w1", "ns", &ns_per_firing),
        Metric::single(
            "exec.kernel_floor_share_w1",
            "share",
            floor_ns / best(&ns_per_firing, false),
        ),
        Metric::single("exec.stall_share_w2", "share", stall_share),
        Metric::single("exec.stalls_per_batch_w2", "count", stalls_per_batch),
        Metric::single("exec.busy_imbalance_w2", "ratio", imbalance),
        Metric::single("exec.speedup_w2", "ratio", items_per_s(best_w2) / w1_best),
        Metric::single(
            "obs.trace_overhead_ratio",
            "ratio",
            wall(&s.w2_traced) / wall(&s.w2),
        ),
        Metric::single(
            "bench.span_overhead_ratio",
            "ratio",
            wall(&s.w1) / wall(&s.w1_bare),
        ),
        Metric::single(
            "perf.counters_available",
            "bool",
            f64::from(u8::from(
                micro["counters_available"].as_bool() == Some(true),
            )),
        ),
        Metric::single("bench.wall_s", "s", run.spans.elapsed_s()),
    ];
    println!(
        "bases: exec.speedup_w2 over {:.1} items/s at one worker; exec.kernel_floor_share_w1 of {:.2} ns per firing; ring figures at the largest cross-edge batch, {} items",
        w1_best,
        best(&ns_per_firing, false),
        num(&micro["cross_batch_items"]),
    );

    let counts: Vec<Value> = metrics
        .iter()
        .filter(|m| EXACT.contains(&m.name))
        .map(|m| json!({"name": m.name, "value": m.value, "unit": m.unit}))
        .collect();
    let doc = json!({
        "workload": wl.name,
        "seed": run.seed,
        "counts": counts,
        "spans": run.spans.to_json(wl.name),
    });
    let path = format!("{OUT_DIR}/{}.trace.json", wl.name);
    std::fs::create_dir_all(OUT_DIR)
        .and_then(|()| std::fs::write(&path, serde_json::to_string(&doc).expect("spans serialize")))
        .map_err(|e| format!("cannot write {path}: {e}"))?;
    println!("spans written to {path}");
    Ok(metrics)
}

/// One run of `wl`: set up, check against the reference interpreter, then
/// measure for `seconds`. Returns the operations counted and the
/// end-to-end metrics, or with `trace` the per-layer ones.
pub fn run(
    wl: &Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<(Ops, Vec<Metric>), String> {
    let mut run = Run {
        wl,
        seed,
        spans: Spans::new(trace),
        ops: Ops::default(),
        peak_rss_kib: 0,
    };
    // The reference interpreter decides what is correct at the reduced
    // round count; w1 and w2 are held to it.
    let reference = run
        .step("reference", wl.check_rounds, trace)
        .ok()
        .and_then(|r| r["digest"].as_u64());
    if reference.is_none() {
        run.ops.attempted += 1;
        run.ops.fail("the reference interpreter gave no digest");
    }
    run.ops.expected.insert(wl.check_rounds, reference);
    if wl.check_rounds != wl.rounds {
        run.call("w1", wl.check_rounds);
        run.call("w2", wl.check_rounds);
    }

    let samples = measure(&mut run, seconds)?;
    let metrics = if trace {
        ledger(&mut run, &samples)?
    } else {
        end_to_end(&run, &samples)
    };
    Ok((run.ops, metrics))
}
