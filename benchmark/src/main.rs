//! The benchmark of cache-conscious-streaming: four workloads, measured
//! from outside through the calls listed in `sut.rs`.
//!
//! `--workload W --seed N --seconds S --trace 0|1` makes one run and
//! prints one JSON object as the last line of its output. Without
//! `--workload` every workload is run, untraced and then traced;
//! `--self-check` does that twice and compares. A run makes each of its
//! steps in a process of its own (`--step`, see `step.rs`). `README.md`
//! describes what is measured and why.

mod all;
mod run;
mod spans;
mod step;
mod sut;
mod workloads;

use serde_json::{json, Value};
use std::process::{Command, ExitCode, Stdio};

/// Worker threads of the parallel runs: the container has two cores.
const WORKERS: usize = 2;
/// Where the traced run writes its spans, relative to the repository.
const OUT_DIR: &str = "benchmark/out";
/// Default `--seconds`, the `run_seconds` of `BENCHMARK.json`.
const RUN_SECONDS: f64 = 20.0;

/// Per-layer metrics that are counts of the plan, not timings: they must
/// repeat bit for bit between runs of the same tree.
pub const EXACT: [&str; 11] = [
    "partition.segments",
    "partition.bandwidth_per_input",
    "partition.max_segment_state_words",
    "partition.plan_firings",
    "partition.plan_bytes",
    "partition.arena_words",
    "sched.granularity_t",
    "sched.model_misses_per_item",
    "sched.baseline_misses_per_item",
    "exec.ring_capacity_words",
    "exec.cross_worker_items_per_round",
];

/// One reported number: a single reading, or the best of repeats.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Median, first quartile, third quartile and count of the repeats
    /// `value` is the best of.
    pub repeats: Option<(f64, f64, f64, usize)>,
}

impl Metric {
    fn single(name: &'static str, unit: &'static str, value: f64) -> Metric {
        Metric {
            name,
            unit,
            value,
            repeats: None,
        }
    }

    /// The best of `samples`: the largest if `higher` is better, else the
    /// smallest. The best and not the median, because this host slows
    /// down by up to 1.7 times for seconds to minutes on end, with nothing
    /// else running in the machine; interference only ever takes speed
    /// away, so the best repeat is the one closest to what the code can
    /// do, and it holds still as long as one repeat ran undisturbed.
    fn best(name: &'static str, unit: &'static str, samples: &[f64], higher: bool) -> Metric {
        Metric {
            name,
            unit,
            value: best(samples, higher),
            repeats: quartiles(samples).map(|(q1, q3)| (median(samples), q1, q3, samples.len())),
        }
    }

    fn highest(name: &'static str, unit: &'static str, samples: &[f64]) -> Metric {
        Metric::best(name, unit, samples, true)
    }

    fn lowest(name: &'static str, unit: &'static str, samples: &[f64]) -> Metric {
        Metric::best(name, unit, samples, false)
    }
}

/// The largest of `samples` if `higher` is better, else the smallest.
pub fn best(samples: &[f64], higher: bool) -> f64 {
    let pick = if higher { f64::max } else { f64::min };
    samples.iter().copied().reduce(pick).unwrap_or(f64::NAN)
}

pub fn median(samples: &[f64]) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// First and third quartile as Python's `statistics.quantiles(n=4)`
/// gives them.
fn quartiles(samples: &[f64]) -> Option<(f64, f64)> {
    let m = samples.len();
    if m < 2 {
        return None;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    no_trace: bool,
    self_check: bool,
    /// Set when this process is one step of a run.
    step: Option<String>,
    rounds: u64,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS,
        trace: false,
        no_trace: false,
        self_check: false,
        step: None,
        rounds: 0,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--no-trace" => args.no_trace = true,
            "--self-check" => args.self_check = true,
            "--step" => args.step = Some(value()?),
            "--rounds" => args.rounds = value()?.parse().map_err(|e| format!("--rounds: {e}"))?,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// The object the contract asks for on the last line.
fn result_line(ops: &run::Ops, metrics: &[Metric]) -> Value {
    let metrics = metrics
        .iter()
        .map(|m| {
            (
                m.name.to_string(),
                json!({"value": m.value, "unit": m.unit}),
            )
        })
        .collect();
    json!({
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": Value::Object(metrics),
    })
}

/// Run this executable with `args`, its stderr passed through; returns
/// what it printed and the last line of that, parsed.
pub fn run_self(args: &[&str]) -> Result<(String, Value), String> {
    let what = args.join(" ");
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let out = Command::new(exe)
        .args(args)
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start `{what}`: {e}"))?;
    let printed = String::from_utf8_lossy(&out.stdout).into_owned();
    if !out.status.success() {
        print!("{printed}");
        return Err(format!("`{what}` ended with {}", out.status));
    }
    let last = serde_json::from_str(printed.lines().last().unwrap_or_default())
        .map_err(|e| format!("`{what}` printed no result: {e}"))?;
    Ok((printed, last))
}

fn print_json(v: &Value) {
    println!("{}", serde_json::to_string(v).expect("values serialize"));
}

/// One run of the workload `args` names, or one step of such a run.
fn one(args: &Args, name: &str) -> Result<(), String> {
    let wl = workloads::find(name).ok_or(format!("no workload named {name}"))?;
    if let Some(kind) = &args.step {
        print_json(&step::run(kind, wl, args.seed, args.rounds, args.trace)?);
        return Ok(());
    }
    let (ops, metrics) = run::run(wl, args.seed, args.seconds, args.trace)?;
    for m in &metrics {
        match m.repeats {
            Some((median, q1, q3, n)) => println!(
                "{:<40} {:>16.6} {:<12} best of {n}: median {median:.6}, quartiles {q1:.6} .. {q3:.6}",
                m.name, m.value, m.unit
            ),
            None => println!("{:<40} {:>16.6} {}", m.name, m.value, m.unit),
        }
    }
    println!(
        "{:<40} {:>16.6} {:<12} {} failed of {} attempted",
        "failed_share",
        ops.failed as f64 / ops.attempted as f64,
        "share",
        ops.failed,
        ops.attempted
    );
    if let Some(m) = metrics.iter().find(|m| !m.value.is_finite()) {
        return Err(format!(
            "{} has no value: no call it is taken from succeeded",
            m.name
        ));
    }
    print_json(&result_line(&ops, &metrics));
    Ok(())
}

fn main() -> ExitCode {
    let outcome = parse_args().and_then(|args| match &args.workload {
        Some(name) => one(&args, name).map(|()| true),
        None => all::run_all(&args),
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("ccs-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
