//! Every workload, each run in a process of its own, and the self-check
//! that runs them all twice on the same tree.

use crate::{run_self, workloads, Args, EXACT, OUT_DIR};
use serde_json::Value;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Value of every metric of one set of runs, by (workload, metric).
type Set = BTreeMap<(&'static str, String), f64>;

/// One run in a child process: echo what it prints, return its result
/// line.
fn run_child(workload: &str, args: &Args, trace: bool) -> Result<Value, String> {
    let (seed, seconds) = (args.seed.to_string(), args.seconds.to_string());
    let trace = if trace { "1" } else { "0" };
    let (printed, result) = run_self(&[
        "--workload",
        workload,
        "--seed",
        &seed,
        "--seconds",
        &seconds,
        "--trace",
        trace,
    ])?;
    print!("{printed}");
    Ok(result)
}

/// Run every workload untraced and, unless `--no-trace`, traced. Returns
/// the metrics and how many operations failed.
fn run_set(args: &Args) -> Result<(Set, u64), String> {
    let mut set = Set::new();
    let mut failed = 0;
    for wl in &workloads::ALL {
        let traces: &[bool] = if args.no_trace {
            &[false]
        } else {
            &[false, true]
        };
        for &trace in traces {
            println!(
                "== {} (seed {}, {}) ==",
                wl.name,
                args.seed,
                if trace {
                    "traced: per-layer ledger"
                } else {
                    "untraced: end to end"
                }
            );
            let result = run_child(wl.name, args, trace)?;
            failed += result["failed"]
                .as_u64()
                .ok_or("result line has no `failed`")?;
            let Value::Object(metrics) = &result["metrics"] else {
                return Err("result line has no `metrics`".into());
            };
            for (name, m) in metrics {
                let value = m["value"].as_f64().ok_or(format!("{name} has no value"))?;
                set.insert((wl.name, name.clone()), value);
            }
        }
    }
    Ok((set, failed))
}

/// Bound of every end-to-end metric, from `BENCHMARK.json`.
fn bounds() -> Result<BTreeMap<String, f64>, String> {
    let text =
        std::fs::read_to_string("BENCHMARK.json").map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let doc: Value = serde_json::from_str(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let Value::Array(metrics) = &doc["end_to_end"] else {
        return Err("BENCHMARK.json has no `end_to_end`".into());
    };
    metrics
        .iter()
        .map(|m| {
            let name = m["name"]
                .as_str()
                .ok_or("an end-to-end metric has no name")?;
            let bound = m["bound"].as_f64().ok_or(format!("{name} has no bound"))?;
            Ok((name.to_string(), bound))
        })
        .collect()
}

/// Two sets of runs of the same tree: every end-to-end median of the
/// second within its bound of the first, every exact count identical.
fn self_check(args: &Args) -> Result<bool, String> {
    let bounds = bounds()?;
    let (first, failed_first) = run_set(args)?;
    let (second, failed_second) = run_set(args)?;
    let mut report = format!(
        "self-check, seed {}: two sets of runs of the same tree\n{:<16} {:<40} {:>16} {:>16} {:>8} {:>6}\n",
        args.seed, "workload", "metric", "first", "second", "gap", "bound"
    );
    let mut ok = failed_first + failed_second == 0;
    for ((workload, name), a) in &first {
        let b = second[&(*workload, name.clone())];
        let verdict = if let Some(bound) = bounds.get(name) {
            let gap = (a - b).abs() / a.abs();
            let pass = gap <= *bound;
            ok &= pass;
            format!(
                "{gap:>8.4} {bound:>6.2} {}",
                if pass { "PASS" } else { "UNRESOLVED" }
            )
        } else if EXACT.contains(&name.as_str()) {
            // Bit for bit, not within a tolerance.
            let same = a.to_bits() == b.to_bits();
            ok &= same;
            format!(
                "{:>8} {:>6} {}",
                "",
                "exact",
                if same { "IDENTICAL" } else { "DIFFERS" }
            )
        } else {
            continue;
        };
        writeln!(
            report,
            "{workload:<16} {name:<40} {a:>16.4} {b:>16.4} {verdict}"
        )
        .expect("writing to a string");
    }
    writeln!(
        report,
        "failed operations: {failed_first} and {failed_second}"
    )
    .expect("writing to a string");
    writeln!(
        report,
        "{}",
        if ok {
            "self-check: PASS"
        } else {
            "self-check: NOT PASSED"
        }
    )
    .expect("writing to a string");
    print!("{report}");
    let path = format!("{OUT_DIR}/self_check.txt");
    std::fs::create_dir_all(OUT_DIR)
        .and_then(|()| std::fs::write(&path, &report))
        .map_err(|e| format!("cannot write {path}: {e}"))?;
    Ok(ok)
}

/// Whether every operation succeeded and, with `--self-check`, the two
/// sets agree.
pub fn run_all(args: &Args) -> Result<bool, String> {
    if args.self_check {
        return self_check(args);
    }
    let (_, failed) = run_set(args)?;
    println!("failed operations over all workloads: {failed}");
    Ok(failed == 0)
}
