//! The CLI subcommands.

use crate::args::Args;
use ccs_cachesim::CacheParams;
use ccs_core::compare::{compare_schedulers, format_table};
use ccs_core::report::Report;
use ccs_core::{Horizon, Planner, Strategy};
use ccs_exec::RunConfig;
use ccs_graph::{RateAnalysis, StreamGraph};
use ccs_topo::{format_cpulist, Topology};
use std::error::Error;

type CliResult = Result<String, Box<dyn Error>>;

/// Dispatch a subcommand; returns the text to print.
pub fn run(cmd: &str, args: &Args) -> CliResult {
    if args.has("adapt") {
        return Err(
            "flag --adapt was removed: segments stay on the worker their \
                    placement gave them for the whole run"
                .into(),
        );
    }
    if cmd == "trace" {
        return Err(
            "command `ccs trace` was removed: `ccs run-dag --trace [-o FILE]` records \
             the same timelines, prints the stall analysis with the run, and saves \
             the document `ccs report` renders"
                .into(),
        );
    }
    if let Some(known) = reads(cmd) {
        let known: Vec<&str> = known.split_whitespace().collect();
        args.only(&known).map_err(|e| {
            let known: Vec<String> = known.iter().map(|f| crate::args::dashed(f)).collect();
            if known.is_empty() {
                format!("{e} (ccs {cmd} reads no flags)")
            } else {
                format!("{e} (ccs {cmd} reads {})", known.join(" "))
            }
        })?;
    }
    match cmd {
        "gen" => gen(args),
        "analyze" => analyze(args),
        "partition" => partition(args),
        "simulate" => simulate(args),
        "run-dag" => run_dag(args),
        "sweep" => sweep_cmd(args),
        "topo" => topo_cmd(args),
        "report" => report_cmd(args),
        "compare" => compare(args),
        "fuse" => fuse_cmd(args),
        "dot" => dot(args),
        "help" | "--help" | "-h" => Ok(usage()),
        other => Err(format!("unknown command '{other}'\n\n{}", usage()).into()),
    }
}

/// The flags and switches each subcommand reads, `out` being `-o`.
/// [`run`] refuses any other by name: a misspelt, retired or misplaced
/// flag would otherwise leave its setting at the default without a word.
fn reads(cmd: &str) -> Option<&'static str> {
    Some(match cmd {
        "gen" => "len state max-q rate-scale seed layers width state-min state-max out",
        "analyze" => "",
        "partition" => "m b strategy",
        "simulate" => "m b strategy outputs json",
        "run-dag" => {
            "m b strategy workers rounds placement pin-cores counters \
             warmup trace windows trace-cap json out"
        }
        "sweep" => "spec name repeats rounds json out",
        "topo" => "json",
        "report" => "",
        "compare" => "m b outputs",
        "fuse" => "m b strategy out",
        "dot" => "out",
        _ => return None,
    })
}

pub fn usage() -> String {
    "\
ccs — cache-conscious scheduling of streaming applications (SPAA 2012)

USAGE:
  ccs gen pipeline --len N --state S [-o FILE]
  ccs gen layered  --layers N --width W [--max-q Q] [-o FILE]
  ccs gen app NAME [-o FILE]               (see `ccs gen app list`)
  ccs analyze FILE
               (structural rate analysis of a StreamGraph: repetitions,
                gains, state; a traced run's stall analysis is in its
                `ccs run-dag --trace` document)
  ccs partition FILE --m M [--b B] [--strategy greedy2m|dp|dag|exact]
  ccs simulate FILE --m M [--b B] [--outputs T] [--json]
  ccs run-dag  FILE --m M [--b B] [--workers N] [--rounds R]
               [--placement rr|measured] [--pin-cores] [--counters] [--warmup K]
               [--trace] [--windows W] [--trace-cap C]
               [--strategy ...] [--json] [-o FILE]
               (real multicore execution with segment-affine workers;
                --placement measured, the default, runs round 0
                round-robin and places the remaining rounds exactly on
                each segment's measured busy time in it, over two or
                more rounds with more segments than workers; rr deals
                segments round-robin for the whole run and is the
                oracle the tests check measured against; each worker
                prints its share of the modelled and of the profiled
                (round-0) work beside its busy time, and the run the
                modelled, profiled and busy imbalance (max over mean),
                the placement that ran, its place.bottleneck_gap and
                its cross-worker items per round;
                --pin-cores binds worker w to the w-th cpu the process
                may use; --counters reads hardware cache counters around every
                batch and attributes them to its segment, --warmup K
                leaves the first K batches of each segment uncounted so
                readings reflect steady state; --trace records
                per-worker event timelines and prints their stall
                analysis — each worker's batch/stall/idle split, stall
                blame per edge, ring occupancy, the bottleneck with its
                blocking chain, and the run's stall share; --windows W
                closes a counter window every W batches, timing-only
                without a PMU; the run is one ccs-trace/v1 document:
                --json prints it and -o saves it, for Perfetto
                (ui.perfetto.dev) or `ccs report`, which prints what
                the run printed; how a batch executes — kernels fired
                against windows of ring storage and a flat per-segment
                arena, no copies — is in docs/HOTPATH.md;
                see docs/MEASUREMENT.md and docs/OBSERVABILITY.md)
  ccs sweep --spec FILE [--repeats R] [--rounds N] [--name NAME]
            [--json] [-o FILE]
               (declarative experiment grid: cells x interleaved repeats
                with every cell's digest checked against the reference
                interpreter's, per-cell
                mean +/- stddev, and the declared pairwise paired deltas
                with bootstrap CIs under Benjamini-Hochberg correction;
                the grid is a JSON spec file, as the experiments under
                experiments/ are, and --repeats/--rounds/--name
                override its own;
                -o saves the ccs-sweep/v1 document `ccs report` renders)
  ccs topo [--json]
               (print the cpus this process may use, each data or
                unified cache level's size, ways, line and sharing, read
                from sysfs, plus perf-counter availability)
  ccs report FILE
               (render a results document as text, dispatching on its
                schema: ccs-sweep/v1 — per-cell mean +/- stddev,
                per-segment attribution, and the BH-corrected comparison
                family, from `ccs sweep` —
                ccs-trace/v1 — a run as `ccs run-dag` printed it, with
                its stall analysis where it was traced, and drop and
                PMU-residency warnings)
  ccs compare FILE --m M [--b B] [--outputs T]
  ccs fuse FILE --m M [--b B] [-o FILE]       (partition, then fuse)
  ccs dot FILE

Sizes are in words (one stream item = one word); M is the cache size,
B the block size. Graphs are StreamGraph JSON (produced by `ccs gen`)."
        .to_string()
}

fn load(path: &str) -> Result<StreamGraph, Box<dyn Error>> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let g: StreamGraph = serde_json::from_str(&text)
        .map_err(|e| format!("{path} is not a StreamGraph JSON: {e}"))?;
    Ok(g)
}

fn emit(args: &Args, content: String) -> CliResult {
    match args.flag("out") {
        Some(path) => {
            std::fs::write(path, &content)?;
            Ok(format!("wrote {path}"))
        }
        None => Ok(content),
    }
}

fn gen(args: &Args) -> CliResult {
    let kind = args.positional(0, "kind (pipeline|layered|app)")?;
    let graph = match kind {
        "pipeline" => {
            let len = args.u64_or("len", 16)? as usize;
            let state = args.u64_or("state", 128)?;
            let max_q = args.u64_or("max-q", 1)?;
            if max_q <= 1 {
                ccs_graph::gen::pipeline_uniform(len, state)
            } else {
                ccs_graph::gen::pipeline(
                    &ccs_graph::gen::PipelineCfg {
                        len,
                        state: ccs_graph::gen::StateDist::Fixed(state),
                        max_q,
                        max_rate_scale: args.u64_or("rate-scale", 2)?,
                    },
                    args.u64_or("seed", 0)?,
                )
            }
        }
        "layered" => ccs_graph::gen::layered(
            &ccs_graph::gen::LayeredCfg {
                layers: args.u64_or("layers", 4)? as usize,
                max_width: args.u64_or("width", 4)? as usize,
                density: 0.3,
                state: ccs_graph::gen::StateDist::Uniform(
                    args.u64_or("state-min", 32)?,
                    args.u64_or("state-max", 128)?,
                ),
                max_q: args.u64_or("max-q", 1)?,
            },
            args.u64_or("seed", 0)?,
        ),
        "app" => {
            let name = args.positional(1, "app name")?;
            if name == "list" {
                let names: Vec<String> = ccs_apps::suite()
                    .into_iter()
                    .map(|a| format!("  {:<12} {}", a.name, a.description))
                    .collect();
                return Ok(format!("available apps:\n{}", names.join("\n")));
            }
            ccs_apps::suite()
                .into_iter()
                .find(|a| a.name == name)
                .ok_or_else(|| format!("unknown app '{name}' (try `ccs gen app list`)"))?
                .graph
        }
        other => return Err(format!("unknown generator '{other}'").into()),
    };
    emit(args, serde_json::to_string_pretty(&graph)?)
}

/// `ccs analyze` — the structural rate analysis of a StreamGraph. A
/// result document (one with a schema tag) is refused by name: a
/// trace's stall analysis is in its own summary, for `ccs report`.
fn analyze(args: &Args) -> CliResult {
    let path = args.positional(0, "graph file")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    if let Ok(v) = serde_json::from_str::<serde_json::Value>(&text) {
        if let Some(schema) = v["schema"].as_str() {
            return Err(format!(
                "{path} is a {schema} document, not a StreamGraph: `ccs report {path}` \
                 renders it (a trace's summary carries its stall analysis)"
            )
            .into());
        }
    }
    let g: StreamGraph = serde_json::from_str(&text)
        .map_err(|e| format!("{path} is not a StreamGraph JSON: {e}"))?;
    let ra = RateAnalysis::analyze_single_io(&g)?;
    let mut out = String::new();
    use std::fmt::Write as _;
    let _ = writeln!(out, "nodes        : {}", g.node_count());
    let _ = writeln!(out, "edges        : {}", g.edge_count());
    let _ = writeln!(out, "total state  : {} words", g.total_state());
    let _ = writeln!(out, "max state    : {} words", g.max_state());
    let _ = writeln!(out, "pipeline     : {}", g.is_pipeline());
    let _ = writeln!(out, "homogeneous  : {}", g.is_homogeneous());
    let source = ra.source.expect("single source");
    let sink = ra.sink.expect("single sink");
    let _ = writeln!(out, "source       : {}", g.node(source).name);
    let _ = writeln!(out, "sink         : {}", g.node(sink).name);
    let _ = writeln!(out, "gain(sink)   : {}", ra.gain(sink));
    let q_str: Vec<String> = g
        .node_ids()
        .map(|v| format!("{}={}", g.node(v).name, ra.q(v)))
        .collect();
    let _ = writeln!(out, "repetitions  : {}", q_str.join(" "));
    Ok(out)
}

fn strategy_of(args: &Args) -> Result<Strategy, Box<dyn Error>> {
    Ok(match args.flag("strategy") {
        None | Some("auto") => Strategy::Auto,
        Some("greedy2m") => Strategy::PipelineGreedy2M,
        Some("dp") => Strategy::PipelineDp,
        Some("dag") => Strategy::DagGreedyRefined,
        Some("exact") => Strategy::DagExact,
        Some(other) => return Err(format!("unknown strategy '{other}'").into()),
    })
}

/// `--m M [--b B]`, refused unless the cache holds whole blocks:
/// `B > 0`, `M >= B` and `M` a multiple of `B`.
fn params_of(args: &Args) -> Result<CacheParams, Box<dyn Error>> {
    let m = args.required_u64("m")?;
    let b = args.u64_or("b", 16)?;
    if b == 0 {
        return Err("--b 0: the block size must be > 0".into());
    }
    if m < b || !m.is_multiple_of(b) {
        return Err(format!(
            "--m {m} --b {b}: the cache must hold whole blocks (--m >= --b, \
             and --m a multiple of --b)"
        )
        .into());
    }
    Ok(CacheParams::new(m, b))
}

fn partition(args: &Args) -> CliResult {
    let g = load(args.positional(0, "graph file")?)?;
    let ra = RateAnalysis::analyze_single_io(&g)?;
    let planner = Planner::new(params_of(args)?).with_strategy(strategy_of(args)?);
    let (p, bw, used) = planner.partition(&g, &ra)?;
    let mut out = String::new();
    use std::fmt::Write as _;
    let _ = writeln!(out, "strategy   : {used}");
    let _ = writeln!(out, "components : {}", p.num_components());
    let _ = writeln!(out, "bandwidth  : {bw} items/input");
    let _ = writeln!(out, "max state  : {} words", p.max_component_state(&g));
    let _ = writeln!(out, "max degree : {}", p.max_component_degree(&g));
    // What a one-worker run keeps resident beside module state: the
    // boundary batches live at its busiest segment, next to the `M`
    // the partition was cut for.
    let m = planner.params.capacity;
    let peak = ccs_exec::ExecPlan::build(&g, &ra, &p, m)
        .and_then(|plan| ccs_exec::BoundaryLayout::build(&plan, ccs_exec::Lifetimes::BySchedule));
    let _ = match peak {
        Ok(l) => writeln!(
            out,
            "boundary   : {} words live at peak, one-worker slab {} (M = {m})",
            l.peak_live_words, l.words
        ),
        Err(e) => writeln!(out, "boundary   : n/a ({e})"),
    };
    for (i, comp) in p.components().iter().enumerate() {
        let names: Vec<&str> = comp.iter().map(|&v| g.node(v).name.as_str()).collect();
        let _ = writeln!(
            out,
            "  [{i}] ({} words) {}",
            g.state_of(comp),
            names.join(", ")
        );
    }
    Ok(out)
}

fn simulate(args: &Args) -> CliResult {
    let g = load(args.positional(0, "graph file")?)?;
    let params = params_of(args)?;
    let planner = Planner::new(params).with_strategy(strategy_of(args)?);
    let outputs = args.u64_or("outputs", 1000)?;
    let plan = planner.plan(&g, Horizon::SinkFirings(outputs))?;
    let eval = planner.evaluate(&g, &plan)?;
    let report = Report::new(&g, params, &plan, &eval);
    if args.has("json") {
        Ok(report.to_json())
    } else {
        Ok(format!(
            "strategy {} | {} components | bandwidth {:.4} items/input\n\
             {} misses ({} interior) for {} outputs = {:.4} misses/output",
            report.strategy,
            report.components,
            report.bandwidth,
            report.misses,
            report.interior_misses,
            report.outputs,
            report.misses_per_output,
        ))
    }
}

/// `--placement rr|measured`, `Placement::default()` (measured) when
/// absent; the retired `greedy` is refused by name.
fn placement_of(args: &Args) -> Result<ccs_exec::Placement, Box<dyn Error>> {
    use ccs_exec::Placement;
    match args.flag("placement") {
        None => Ok(Placement::default()),
        Some(name) => Ok(Placement::parse(name)?),
    }
}

/// `ccs run-dag` — run a graph on the executor and build its one
/// `ccs-trace/v1` document: `meta` is the run (configuration, results,
/// per-worker and per-segment lines), `summary` its tallies and, when
/// traced, its stall analysis, and `traceEvents` the merged timelines
/// and counter windows for Perfetto. It prints the document's
/// rendering (`--json`: the document), and `-o FILE` saves it for a
/// later `ccs report`, which prints the same text.
fn run_dag(args: &Args) -> CliResult {
    let path = args.positional(0, "graph file")?;
    let g = load(path)?;
    let planner = Planner::new(params_of(args)?).with_strategy(strategy_of(args)?);
    let rounds = args.u64_or("rounds", 8)?;
    let cfg = RunConfig::new(args.u64_or("workers", 2)?.max(1) as usize)
        .with_placement(placement_of(args)?)
        .with_pinning(args.has("pin-cores"))
        .with_counters(args.has("counters"))
        .with_warmup(args.u64_or("warmup", 0)?)
        .with_trace(args.has("trace"))
        .with_windows(args.u64_or("windows", 0)?)
        .with_trace_capacity(args.u64_or("trace-cap", 0)? as usize);
    // Workload-aware binding by file stem: a graph saved as
    // `phase-shift.json` (`ccs gen app phase-shift`) gets its seeded
    // perturbation kernels, everything else the synthetic binding.
    let name = std::path::Path::new(path)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("");
    let inst = ccs_apps::bound_instance(name, g);
    let pr = planner.plan_and_run_parallel(inst, rounds, &cfg)?;
    let doc = ccs_core::record::document(name, &pr, &cfg);
    let json = serde_json::to_string_pretty(&doc)?;
    let out = args.flag("out");
    if let Some(path) = out {
        std::fs::write(path, &json)?;
    }
    if args.has("json") {
        return Ok(json);
    }
    let rendered = ccs_obs::report::render(&doc)?;
    Ok(match out {
        Some(path) => {
            format!("{rendered}wrote {path} — load it at ui.perfetto.dev or chrome://tracing")
        }
        None => rendered,
    })
}

fn topo_cmd(args: &Args) -> CliResult {
    let topo = Topology::discover();
    let probe = ccs_perf::probe();
    if args.has("json") {
        let caches: Vec<serde_json::Value> = topo
            .caches()
            .iter()
            .map(|c| {
                serde_json::json!({
                    "name": c.name(),
                    "level": c.level,
                    "kind": c.kind.name(),
                    "size": c.size,
                    "ways": c.ways,
                    "line": c.line,
                    "shared_cpus": c.shared_cpus,
                })
            })
            .collect();
        return Ok(serde_json::to_string_pretty(&serde_json::json!({
            "cpus": topo.cpus(),
            "cpulist": format_cpulist(topo.cpus()),
            "caches": caches,
            "perf_counters": serde_json::json!({
                "available": probe.available,
                "events": probe.events,
                "reason": probe.reason,
            }),
        }))?);
    }
    let mut out = String::new();
    use std::fmt::Write as _;
    let _ = writeln!(out, "{}", topo.summary());
    match &probe.reason {
        None => {
            let _ = writeln!(
                out,
                "perf counters: available ({})",
                probe.events.join(", ")
            );
        }
        Some(reason) => {
            let _ = writeln!(out, "perf counters: unavailable ({reason})");
        }
    }
    for c in topo.caches() {
        let _ = writeln!(out, "{}", c.describe());
    }
    Ok(out)
}

/// `ccs report FILE` — render a saved `ccs-sweep/v1` or `ccs-trace/v1`
/// document as text, via the renderer `ccs sweep` or `ccs run-dag`
/// prints with. Tolerant of nulls: cells measured where counters were
/// unavailable render as `n/a` rather than erroring, so reports from
/// restricted hosts are still inspectable.
fn report_cmd(args: &Args) -> CliResult {
    let path = args.positional(0, "report file")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    // Dispatch on the document's schema tag: run documents render
    // through `ccs-obs`, sweeps through the sweep renderer, and any
    // other tag is refused by name.
    let v: serde_json::Value =
        serde_json::from_str(&text).map_err(|e| format!("{path} is not JSON: {e}"))?;
    let rendered = match v["schema"].as_str() {
        Some(ccs_obs::SCHEMA) => ccs_obs::report::render(&v),
        Some(ccs_bench::sweep::SCHEMA) => ccs_bench::sweep::render(&v).map_err(|e| e.to_string()),
        schema => Err(format!(
            "not a document `ccs report` renders (schema: {}): it renders {} from \
             `ccs sweep` and {} from `ccs run-dag`, whose summary carries a traced \
             run's stall analysis — run `ccs report` on the trace",
            schema.unwrap_or("missing"),
            ccs_bench::sweep::SCHEMA,
            ccs_obs::SCHEMA,
        )),
    };
    rendered.map_err(|e| format!("{path}: {e}").into())
}

/// `ccs sweep --spec FILE` — run an experiment grid declared in a JSON
/// sweep spec (see `ccs_bench::sweep::from_spec`; the checked-in
/// experiments live under `experiments/`). `--name`, `--repeats` and
/// `--rounds` override the spec's own. Prints the
/// rendered report (or the raw document with `--json`); `-o FILE` saves
/// the `ccs-sweep/v1` JSON for `ccs report`.
fn sweep_cmd(args: &Args) -> CliResult {
    let path = args
        .flag("spec")
        .ok_or(crate::args::ArgError::MissingFlag("spec"))?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let v: serde_json::Value =
        serde_json::from_str(&text).map_err(|e| format!("{path} is not JSON: {e}"))?;
    let mut sweep = ccs_bench::sweep::from_spec(&v)?;
    if let Some(name) = args.flag("name") {
        sweep.name = name.to_string();
    }
    if args.flag("repeats").is_some() {
        sweep.repeats = args.u64_or("repeats", 1)?.max(1) as usize;
    }
    if args.flag("rounds").is_some() {
        sweep.rounds = args.u64_or("rounds", 1)?.max(1);
    }
    let out = sweep.run()?;
    let json = serde_json::to_string_pretty(&out)?;
    if let Some(path) = args.flag("out") {
        std::fs::write(path, &json)?;
    }
    if args.has("json") {
        // Machine-readable mode: pure JSON on stdout, like the other
        // --json subcommands.
        return Ok(json);
    }
    let mut rendered = ccs_bench::sweep::render(&out)?;
    if let Some(path) = args.flag("out") {
        use std::fmt::Write as _;
        let _ = write!(rendered, "wrote {path}");
    }
    Ok(rendered)
}

fn compare(args: &Args) -> CliResult {
    let g = load(args.positional(0, "graph file")?)?;
    let params = params_of(args)?;
    let outputs = args.u64_or("outputs", 1000)?;
    let rows = compare_schedulers(&g, params, outputs);
    if rows.is_empty() {
        return Err("no scheduler could run (is the graph rate matched?)".into());
    }
    Ok(format_table("scheduler comparison", &rows))
}

fn fuse_cmd(args: &Args) -> CliResult {
    let g = load(args.positional(0, "graph file")?)?;
    let ra = RateAnalysis::analyze_single_io(&g)?;
    let planner = Planner::new(params_of(args)?).with_strategy(strategy_of(args)?);
    let (p, bw, used) = planner.partition(&g, &ra)?;
    let fused = ccs_partition::fusion::fuse(&g, &ra, &p).ok_or("partition is not well ordered")?;
    let summary = format!(
        "fused {} modules into {} via {used} (bandwidth {bw})",
        g.node_count(),
        fused.graph.node_count()
    );
    match args.flag("out") {
        Some(path) => {
            std::fs::write(path, serde_json::to_string_pretty(&fused.graph)?)?;
            Ok(format!("{summary}\nwrote {path}"))
        }
        None => Ok(format!(
            "{summary}\n{}",
            serde_json::to_string_pretty(&fused.graph)?
        )),
    }
}

fn dot(args: &Args) -> CliResult {
    let g = load(args.positional(0, "graph file")?)?;
    emit(args, ccs_graph::dot::to_dot(&g))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(words: &[&str]) -> Args {
        Args::parse(words.iter().map(|s| s.to_string())).unwrap()
    }

    /// The `meta` of the document `ccs run-dag WORDS` prints (WORDS
    /// ending in `--json`).
    fn run_meta(words: &[&str]) -> serde_json::Value {
        let doc: serde_json::Value =
            serde_json::from_str(&run("run-dag", &args(words)).unwrap()).unwrap();
        assert_eq!(doc["schema"].as_str(), Some("ccs-trace/v1"));
        doc["meta"].clone()
    }

    fn tmp(name: &str) -> String {
        std::env::temp_dir()
            .join(format!("ccs-cli-test-{name}-{}", std::process::id()))
            .to_string_lossy()
            .into_owned()
    }

    #[test]
    fn gen_analyze_roundtrip() {
        let path = tmp("g1.json");
        let out = run(
            "gen",
            &args(&["pipeline", "--len", "8", "--state", "64", "-o", &path]),
        )
        .unwrap();
        assert!(out.contains("wrote"));
        let report = run("analyze", &args(&[&path])).unwrap();
        assert!(report.contains("nodes        : 8"));
        assert!(report.contains("pipeline     : true"));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn gen_app_and_partition() {
        let path = tmp("g2.json");
        run("gen", &args(&["app", "fm-radio", "-o", &path])).unwrap();
        let out = run("partition", &args(&[&path, "--m", "1088", "--b", "16"])).unwrap();
        assert!(out.contains("components"));
        assert!(out.contains("bandwidth"));
        // Peak live boundary words, next to the M they share a cache with.
        let line = out.lines().find(|l| l.starts_with("boundary   : "));
        assert!(line.is_some_and(|l| l.ends_with("(M = 1088)")), "{out}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn simulate_json_output() {
        let path = tmp("g3.json");
        run(
            "gen",
            &args(&["pipeline", "--len", "12", "--state", "96", "-o", &path]),
        )
        .unwrap();
        let out = run(
            "simulate",
            &args(&[&path, "--m", "1024", "--outputs", "200", "--json"]),
        )
        .unwrap();
        let parsed: serde_json::Value = serde_json::from_str(&out).unwrap();
        assert!(parsed["misses"].as_u64().unwrap() > 0);
        assert_eq!(parsed["graph_nodes"].as_u64().unwrap(), 12);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn run_dag_text_and_json() {
        let path = tmp("g7.json");
        run(
            "gen",
            &args(&["pipeline", "--len", "10", "--state", "64", "-o", &path]),
        )
        .unwrap();
        let out = run(
            "run-dag",
            &args(&[&path, "--m", "1024", "--workers", "2", "--rounds", "3"]),
        )
        .unwrap();
        assert!(out.contains("segments"), "{out}");
        assert!(out.contains("worker 0:"), "{out}");
        let out = run(
            "run-dag",
            &args(&[
                &path,
                "--m",
                "1024",
                "--workers",
                "2",
                "--rounds",
                "3",
                "--placement",
                "measured",
                "--json",
            ]),
        )
        .unwrap();
        let parsed: serde_json::Value =
            serde_json::from_str::<serde_json::Value>(&out).unwrap()["meta"].clone();
        assert_eq!(parsed["workers"].as_u64(), Some(2));
        assert_eq!(parsed["placement"].as_str(), Some("measured"));
        assert!(parsed["items_per_sec"].as_f64().unwrap() > 0.0);
        // The slab holds at least the double-buffered cross rings.
        let t = parsed["granularity_t"].as_u64().unwrap();
        assert!(parsed["boundary_words"].as_u64().unwrap() >= 2 * t);
        assert!(run(
            "run-dag",
            &args(&[&path, "--m", "256", "--placement", "bogus"]),
        )
        .is_err());
        std::fs::remove_file(path).ok();
    }

    /// The pinned measured placement (the default since the greedy one
    /// was retired) against the unpinned default and round-robin.
    #[test]
    fn run_dag_pinned_greedy_matches_the_default_digest() {
        let path = tmp("g8.json");
        run(
            "gen",
            &args(&["pipeline", "--len", "12", "--state", "64", "-o", &path]),
        )
        .unwrap();
        let base = [&path, "--m", "1024", "--workers", "4", "--rounds", "2"];
        let mut pinned: Vec<&str> = base.to_vec();
        pinned.extend(["--placement", "measured", "--pin-cores", "--json"]);
        let out = run("run-dag", &args(&pinned)).unwrap();
        let parsed: serde_json::Value =
            serde_json::from_str::<serde_json::Value>(&out).unwrap()["meta"].clone();
        assert_eq!(parsed["placement"].as_str(), Some("measured"));
        assert_eq!(parsed["pin_cores"].as_bool(), Some(true));
        assert!(parsed["stall_ms"].as_f64().is_some());
        assert!(parsed["per_worker"][0]["stall_ms"].as_f64().is_some());
        let pinned_digest = parsed["digest"].as_str().unwrap().to_string();
        // Same schedule length, default placement and the round-robin
        // oracle, unpinned: one digest.
        for extra in [&[][..], &["--placement", "rr"][..]] {
            let mut plain: Vec<&str> = base.to_vec();
            plain.extend(extra);
            plain.push("--json");
            let out = run("run-dag", &args(&plain)).unwrap();
            let parsed: serde_json::Value =
                serde_json::from_str::<serde_json::Value>(&out).unwrap()["meta"].clone();
            assert_eq!(
                parsed["digest"].as_str(),
                Some(pinned_digest.as_str()),
                "{extra:?}"
            );
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn run_dag_prints_the_placements_prediction_beside_the_observation() {
        // filterbank(8) at M = 512 over 16 rounds: the default places
        // the last 15 rounds on the first round's batch times, exactly,
        // round-robin deals the segments, both compute the same stream,
        // and each prints the shares, the imbalances, the gap and the
        // cross-worker items of the placement that ran.
        let path = tmp("fb.json");
        run("gen", &args(&["app", "filterbank", "-o", &path])).unwrap();
        let base = [&path, "--m", "512", "--workers", "2", "--rounds", "16"];
        let json = |extra: &[&str]| {
            let mut a: Vec<&str> = base.to_vec();
            a.extend(extra);
            a.push("--json");
            let out = run("run-dag", &args(&a)).unwrap();
            serde_json::from_str::<serde_json::Value>(&out).unwrap()["meta"].clone()
        };
        let measured = json(&[]);
        let rr = json(&["--placement", "rr"]);
        assert_eq!(measured["placement"].as_str(), Some("measured"));
        assert_eq!(measured["digest"], rr["digest"]);
        let numbers = |v: &serde_json::Value| -> Vec<u64> {
            let serde_json::Value::Array(xs) = v else {
                panic!("not an array: {v:?}")
            };
            xs.iter().map(|x| x.as_u64().unwrap()).collect()
        };
        let owner = |v: &serde_json::Value| -> Vec<usize> {
            let owner: Vec<usize> = numbers(&v["owner"]).iter().map(|&w| w as usize).collect();
            assert_eq!(owner.len(), 7);
            owner
        };
        assert_eq!(owner(&rr), vec![0, 1, 0, 1, 0, 1, 0]);
        let predicted = |v: &serde_json::Value| v["predicted_imbalance"].as_f64().unwrap();
        assert!(predicted(&rr) >= 1.3, "{}", predicted(&rr));
        // On its own first batches, no owner vector has a lower
        // makespan than the measured one.
        let costs = numbers(&measured["profiled_ns"]);
        let makespan = |owner: &[usize]| {
            let mut load = [0u64; 2];
            for (s, &w) in owner.iter().enumerate() {
                load[w] += costs[s];
            }
            load[0].max(load[1])
        };
        let best = (0..1usize << 7)
            .map(|bits| makespan(&(0..7).map(|s| bits >> s & 1).collect::<Vec<_>>()))
            .min()
            .unwrap();
        assert_eq!(makespan(&owner(&measured)), best, "{costs:?}");
        for v in [&measured, &rr] {
            assert!(v["busy_imbalance"].as_f64().unwrap() >= 1.0);
            assert!(v["bottleneck_gap"].as_f64().unwrap() >= 0.0);
            assert!(v["cross_worker_items_per_round"].as_u64().unwrap() > 0);
            for (key, imbalance) in [
                ("modelled_share", "predicted_imbalance"),
                ("profiled_share", "profiled_imbalance"),
            ] {
                let shares: Vec<f64> = (0..2)
                    .map(|w| v["per_worker"][w][key].as_f64().unwrap())
                    .collect();
                assert!(
                    (shares.iter().sum::<f64>() - 1.0).abs() < 1e-9,
                    "{key} {shares:?}"
                );
                let busiest = shares.iter().copied().fold(0.0, f64::max);
                let imbalance = v[imbalance].as_f64().unwrap();
                assert!((busiest * 2.0 - imbalance).abs() < 1e-9, "{shares:?}");
            }
        }
        let text = run("run-dag", &args(&base)).unwrap();
        for needle in [
            "imbalance (max over mean): predicted",
            "profiled",
            "% of modelled work",
            "% of profiled work",
            "place.bottleneck_gap",
            "cross-worker items/round",
        ] {
            assert!(text.contains(needle), "{needle}: {text}");
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn removed_adapt_flag_is_refused_by_name() {
        // `--adapt` stays a switch so it cannot swallow the next
        // argument, and every command refuses it instead of running a
        // static grid as if it were adaptive.
        for argv in [
            &["run-dag", "--adapt", "g.json", "--workers", "2"][..],
            &["partition", "g.json", "--m", "256", "--adapt"],
            &["sweep", "--spec", "s.json", "--adapt"],
        ] {
            let err = run(argv[0], &args(&argv[1..])).unwrap_err().to_string();
            assert!(err.contains("--adapt was removed"), "{}: {err}", argv[0]);
        }
    }

    #[test]
    fn the_removed_trace_command_is_refused_by_name() {
        // Whatever its flags, `ccs trace` names the command that took
        // its place instead of running or calling itself unknown.
        for argv in [&[][..], &["g.json", "--m", "256", "--no-counters"]] {
            let err = run("trace", &args(argv)).unwrap_err().to_string();
            assert!(err.contains("`ccs trace` was removed"), "{err}");
            assert!(err.contains("ccs run-dag --trace [-o FILE]"), "{err}");
        }
        assert!(!usage().contains("ccs trace"));
        assert!(!usage().contains("--no-counters"));
    }

    #[test]
    fn a_cache_that_cannot_hold_whole_blocks_is_refused_by_flag() {
        // Every command that reads `--m` refuses a pair `CacheParams`
        // cannot hold, naming the flag and the rule, before any work.
        let path = tmp("bad-cache.json");
        run(
            "gen",
            &args(&["pipeline", "--len", "4", "--state", "16", "-o", &path]),
        )
        .unwrap();
        for cmd in ["partition", "simulate", "run-dag", "compare", "fuse"] {
            assert!(reads(cmd).unwrap().split(' ').any(|f| f == "m"), "{cmd}");
            for (pair, needle) in [
                (
                    &["--m", "0"][..],
                    "--m 0 --b 16: the cache must hold whole blocks",
                ),
                (
                    &["--m", "8"],
                    "--m 8 --b 16: the cache must hold whole blocks",
                ),
                (
                    &["--m", "100"],
                    "--m 100 --b 16: the cache must hold whole blocks",
                ),
                (
                    &["--m", "256", "--b", "0"],
                    "--b 0: the block size must be > 0",
                ),
            ] {
                let mut argv = vec![&path[..]];
                argv.extend(pair);
                let err = run(cmd, &args(&argv)).unwrap_err().to_string();
                assert!(err.starts_with(needle), "{cmd} {pair:?}: {err}");
            }
        }
        // Every command that reads `--m` is in the list above.
        let readers: Vec<&str> = [
            "gen",
            "analyze",
            "partition",
            "simulate",
            "run-dag",
            "sweep",
            "topo",
            "report",
            "compare",
            "fuse",
            "dot",
        ]
        .into_iter()
        .filter(|cmd| reads(cmd).unwrap().split(' ').any(|f| f == "m"))
        .collect();
        assert_eq!(
            readers,
            ["partition", "simulate", "run-dag", "compare", "fuse"]
        );
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn a_flag_the_command_does_not_read_is_refused_by_name() {
        // `--stride` is gone from `run-dag`, and a spec declares the
        // whole grid of a sweep: neither may be swallowed silently.
        let path = tmp("unread.json");
        run(
            "gen",
            &args(&["pipeline", "--len", "4", "--state", "16", "-o", &path]),
        )
        .unwrap();
        for (argv, flag) in [
            (
                &["run-dag", &path, "--m", "256", "--stride", "2"][..],
                "--stride",
            ),
            (&["sweep", "--spec", "f.json", "--apps", "x"], "--apps"),
            (
                &["sweep", "--spec", "f.json", "--workers", "4"],
                "--workers",
            ),
            (&["partition", &path, "--m", "256", "-o", "p.txt"], "-o"),
            // Retired flags are refused by name, not ignored.
            (
                &["run-dag", &path, "--m", "256", "--topo", "2x2x2"],
                "--topo",
            ),
            (
                &["run-dag", &path, "--m", "256", "--topo-from", "d.json"],
                "--topo-from",
            ),
            // Counters are opt-in (`--counters`); the opt-out left
            // with `ccs trace`.
            (
                &["run-dag", &path, "--m", "256", "--trace", "--no-counters"],
                "--no-counters",
            ),
            (&["topo", "--from", "d.json"], "--from"),
            // The residency threshold is a constant, not a setting.
            (
                &["run-dag", &path, "--m", "256", "--warn-residency", "0.3"],
                "--warn-residency",
            ),
            (
                &["sweep", "--spec", "f.json", "--warn-residency", "0.3"],
                "--warn-residency",
            ),
            // `ccs analyze` no longer runs a graph: `ccs run-dag` does.
            (&["analyze", &path, "--m", "256"], "--m"),
        ] {
            let err = run(argv[0], &args(&argv[1..])).unwrap_err().to_string();
            assert!(
                err.starts_with(&format!("{flag} is not read by this command")),
                "{}: {err}",
                argv[0]
            );
            assert!(err.contains(&format!("ccs {} reads", argv[0])), "{err}");
        }
        assert!(run("run-dag", &args(&[&path, "--m", "256", "--rounds", "1"])).is_ok());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn run_dag_phase_shift_at_two_workers_matches_serial() {
        // The file stem is the workload binding: `phase-shift.json`
        // gets the seeded kernels that step up their work mid-run. The
        // static two-worker run keeps the one-worker digest, and its
        // document carries no trace of the removed controller.
        let dir = std::env::temp_dir().join(format!("ccs-cli-phase-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("phase-shift.json").to_string_lossy().into_owned();
        run("gen", &args(&["app", "phase-shift", "-o", &path])).unwrap();
        let common = [&path[..], "--m", "1024", "--rounds", "24"];
        let mut threaded = common.to_vec();
        threaded.extend(["--workers", "2", "--windows", "2", "--json"]);
        let out = run("run-dag", &args(&threaded)).unwrap();
        let w2: serde_json::Value =
            serde_json::from_str::<serde_json::Value>(&out).unwrap()["meta"].clone();
        let mut one = common.to_vec();
        one.extend(["--workers", "1", "--json"]);
        let w1: serde_json::Value = run_meta(&one);
        assert!(w2["digest"].as_str().is_some(), "{out}");
        assert_eq!(w2["digest"], w1["digest"], "{out}");
        assert!(w2["adapt"].is_null() && w2["migrations"].is_null(), "{out}");
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn run_dag_counters_tristate() {
        let path = tmp("g9.json");
        run(
            "gen",
            &args(&["pipeline", "--len", "8", "--state", "64", "-o", &path]),
        )
        .unwrap();
        let base = [&path, "--m", "1024", "--workers", "2", "--rounds", "2"];
        // Not requested: explicit "off".
        let mut plain: Vec<&str> = base.to_vec();
        plain.push("--json");
        let parsed: serde_json::Value = run_meta(&plain);
        assert_eq!(parsed["counters"].as_str(), Some("off"));
        let digest = parsed["digest"].as_str().unwrap().to_string();
        // Requested: either aggregated readings or the explicit
        // "unavailable" fallback — never absent, never a crash; and the
        // digest must be untouched by instrumentation.
        let mut counted: Vec<&str> = base.to_vec();
        counted.extend(["--counters", "--json"]);
        let parsed: serde_json::Value = run_meta(&counted);
        assert_eq!(parsed["digest"].as_str(), Some(digest.as_str()));
        let c = &parsed["counters"];
        if c.as_str() == Some("unavailable") {
            assert_eq!(parsed["counted_workers"].as_u64(), Some(0));
            assert!(parsed["per_worker"][0]["counters"].is_null());
        } else {
            // The object carries the headline metric (possibly null if
            // the LLC event didn't open on this machine).
            assert!(c["multiplexed"].as_bool().is_some(), "{c:?}");
            assert!(parsed["counted_workers"].as_u64().unwrap() > 0);
        }
        // Text mode mentions counters when requested.
        let mut text: Vec<&str> = base.to_vec();
        text.push("--counters");
        let out = run("run-dag", &args(&text)).unwrap();
        assert!(out.contains("counters"), "{out}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn run_dag_warmup_and_segment_counters() {
        let path = tmp("g11.json");
        run(
            "gen",
            &args(&["pipeline", "--len", "8", "--state", "64", "-o", &path]),
        )
        .unwrap();
        let base = [&path, "--m", "1024", "--workers", "2", "--rounds", "4"];
        // Reference digest without any instrumentation.
        let mut plain: Vec<&str> = base.to_vec();
        plain.push("--json");
        let parsed: serde_json::Value = run_meta(&plain);
        let digest = parsed["digest"].as_str().unwrap().to_string();
        assert_eq!(parsed["warmup"].as_u64(), Some(0));
        // Whole run measured when warmup is off.
        assert_eq!(
            parsed["measured_sink_items"].as_u64(),
            parsed["sink_items"].as_u64()
        );
        assert!(parsed["per_segment"].is_null());

        // Counters with a warmup: digest untouched, window shrinks,
        // per-segment entries appear.
        let mut seg: Vec<&str> = base.to_vec();
        seg.extend(["--counters", "--warmup", "1", "--json"]);
        let parsed: serde_json::Value = run_meta(&seg);
        assert_eq!(parsed["digest"].as_str(), Some(digest.as_str()));
        assert_eq!(parsed["warmup"].as_u64(), Some(1));
        let sink_items = parsed["sink_items"].as_u64().unwrap();
        assert_eq!(
            parsed["measured_sink_items"].as_u64(),
            Some(sink_items / 4 * 3)
        );
        let segs = &parsed["per_segment"];
        assert_eq!(
            segs.index(0).unwrap()["batches"].as_u64(),
            Some(4),
            "{segs:?}"
        );
        assert!(segs.index(0).unwrap()["batches_counted"].as_u64().unwrap() <= 3);
        // A huge warmup is clamped so a measured window remains.
        let mut huge: Vec<&str> = base.to_vec();
        huge.extend(["--counters", "--warmup", "999", "--json"]);
        let parsed: serde_json::Value = run_meta(&huge);
        assert_eq!(parsed["warmup"].as_u64(), Some(3));
        assert_eq!(parsed["digest"].as_str(), Some(digest.as_str()));
        // Text mode mentions the warmup window and segments.
        let mut text: Vec<&str> = base.to_vec();
        text.extend(["--counters", "--warmup", "1"]);
        let out = run("run-dag", &args(&text)).unwrap();
        assert!(out.contains("warmup: first 1 of 4"), "{out}");
        assert!(out.contains("segment 0:"), "{out}");
        // The retired per-segment switch is refused by name.
        let mut retired: Vec<&str> = base.to_vec();
        retired.extend(["--counters", "--segment-counters"]);
        let err = run("run-dag", &args(&retired)).unwrap_err().to_string();
        assert!(
            err.contains("--segment-counters is not read by this command"),
            "{err}"
        );
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn run_dag_trace_and_windows_json() {
        let path = tmp("g12.json");
        run(
            "gen",
            &args(&["pipeline", "--len", "10", "--state", "64", "-o", &path]),
        )
        .unwrap();
        let base = [&path, "--m", "1024", "--workers", "2", "--rounds", "3"];
        let doc = |words: &[&str]| -> serde_json::Value {
            serde_json::from_str(&run("run-dag", &args(words)).unwrap()).unwrap()
        };
        // Reference digest with observability off: the summary counts
        // no events, and there are no window spans.
        let mut plain: Vec<&str> = base.to_vec();
        plain.push("--json");
        let parsed = doc(&plain);
        let digest = parsed["meta"]["digest"].as_str().unwrap().to_string();
        assert!(parsed["summary"]["events"].is_null());
        assert!(parsed["summary"]["dropped"].is_null());
        assert_eq!(parsed["summary"]["windows"].as_u64(), Some(0));
        assert_eq!(parsed["meta"]["windows_every"].as_u64(), Some(0));
        assert_eq!(parsed["traceEvents"], serde_json::Value::Array(Vec::new()));
        // Trace + windows: same digest, a recorded timeline, and each
        // worker's windows as spans on its window track.
        let mut traced: Vec<&str> = base.to_vec();
        traced.extend(["--trace", "--windows", "1", "--counters", "--json"]);
        let parsed = doc(&traced);
        let summary = &parsed["summary"];
        assert_eq!(parsed["meta"]["digest"].as_str(), Some(digest.as_str()));
        assert!(summary["events"].as_u64().unwrap() > 0);
        assert_eq!(summary["dropped"].as_u64(), Some(0));
        assert_eq!(parsed["meta"]["windows_every"].as_u64(), Some(1));
        let serde_json::Value::Array(events) = &parsed["traceEvents"] else {
            panic!("traceEvents: {:?}", parsed["traceEvents"]);
        };
        let windows: Vec<&serde_json::Value> = events
            .iter()
            .filter(|e| e["ph"].as_str() == Some("X") && e["cat"].as_str() == Some("window"))
            .collect();
        assert!(!windows.is_empty());
        // Window track `1000 + w` is worker `w`'s.
        assert!(windows
            .iter()
            .all(|w| (1000..1002).contains(&w["tid"].as_u64().unwrap())));
        assert!(windows[0]["args"]["batches"].as_u64().unwrap() >= 1);
        assert!(summary["workers"][0]["events"].as_u64().unwrap() > 0);
        // The event tallies are the summary's, worker by worker.
        let total: u64 = (0..2)
            .map(|w| summary["workers"][w]["events"].as_u64().unwrap())
            .sum();
        assert_eq!(summary["events"].as_u64(), Some(total));
        // Text mode prints the run's event tallies and its stall
        // analysis, not a pointer to a second command.
        let mut text: Vec<&str> = base.to_vec();
        text.extend(["--trace", "--windows", "1"]);
        let out = run("run-dag", &args(&text)).unwrap();
        assert!(out.contains("  events: "), "{out}");
        assert!(out.contains("  stall share (run): "), "{out}");
        assert!(!out.contains("ccs trace"), "{out}");
        // Untraced, nothing event-derived is printed.
        let out = run("run-dag", &args(&base)).unwrap();
        assert!(!out.contains("events"), "{out}");
        assert!(!out.contains("stall share"), "{out}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn trace_exports_chrome_documents() {
        let g = tmp("g13.json");
        run(
            "gen",
            &args(&["pipeline", "--len", "10", "--state", "64", "-o", &g]),
        )
        .unwrap();
        // Parallel run: save the document, render the text summary.
        let doc_path = tmp("trace-doc.json");
        let rendered = run(
            "run-dag",
            &args(&[
                &g,
                "--m",
                "1024",
                "--workers",
                "2",
                "--rounds",
                "3",
                "--trace",
                "--windows",
                "1",
                "-o",
                &doc_path,
            ]),
        )
        .unwrap();
        assert!(rendered.contains(" segments on 2 workers "), "{rendered}");
        assert!(rendered.contains("worker 0:"), "{rendered}");
        // The run's stall analysis is in the same output: no second
        // command names the bottleneck.
        assert!(rendered.contains("ms span — "), "{rendered}");
        assert!(rendered.contains("  bottleneck: "), "{rendered}");
        assert!(rendered.contains("  stall share (run): "), "{rendered}");
        assert!(
            rendered.contains(&format!("wrote {doc_path}")),
            "{rendered}"
        );
        // The saved document is the versioned trace schema with a
        // non-empty Chrome trace-event array (spans + thread metadata).
        let v: serde_json::Value =
            serde_json::from_str(&std::fs::read_to_string(&doc_path).unwrap()).unwrap();
        assert_eq!(v["schema"].as_str(), Some("ccs-trace/v1"));
        let events = match &v["traceEvents"] {
            serde_json::Value::Array(e) => e,
            other => panic!("traceEvents: {other:?}"),
        };
        assert!(!events.is_empty());
        assert!(events.iter().any(|e| e["ph"].as_str() == Some("X")));
        assert!(events.iter().any(|e| e["ph"].as_str() == Some("M")));
        // `ccs report` dispatches on the schema tag and prints what
        // the run printed.
        let reported = run("report", &args(&[&doc_path])).unwrap();
        assert_eq!(
            rendered,
            format!("{reported}wrote {doc_path} — load it at ui.perfetto.dev or chrome://tracing")
        );
        // One worker: `--json` prints the raw document.
        let out = run(
            "run-dag",
            &args(&[
                &g,
                "--m",
                "1024",
                "--workers",
                "1",
                "--rounds",
                "3",
                "--trace",
                "--json",
            ]),
        )
        .unwrap();
        let v: serde_json::Value = serde_json::from_str(&out).unwrap();
        assert_eq!(v["schema"].as_str(), Some("ccs-trace/v1"));
        assert_eq!(v["meta"]["workers"].as_u64(), Some(1));
        let serde_json::Value::Array(events) = &v["traceEvents"] else {
            panic!("traceEvents: {:?}", v["traceEvents"]);
        };
        // One `seg N` batch span per segment batch, each segment once a
        // round.
        let names: Vec<&str> = events
            .iter()
            .filter(|e| e["cat"].as_str() == Some("batch"))
            .filter_map(|e| e["name"].as_str())
            .collect();
        let segments = names
            .iter()
            .collect::<std::collections::BTreeSet<_>>()
            .len();
        assert!(segments > 1, "{names:?}");
        assert_eq!(names.len(), 3 * segments, "{names:?}");
        assert!(names.iter().all(|n| n.starts_with("seg ")), "{names:?}");
        let summary = &v["summary"];
        let lane = &summary["workers"][0];
        assert_eq!(
            lane["batches"].as_u64(),
            Some(3 * segments as u64),
            "{lane:?}"
        );
        let serde_json::Value::Array(rings) = &summary["occupancy"] else {
            panic!("occupancy: {:?}", summary["occupancy"]);
        };
        // Each cross ring is sampled after its producer's batch and
        // after its consumer's, in each of the three rounds.
        assert!(!rings.is_empty());
        assert!(
            rings.iter().all(|r| r["samples"].as_u64() == Some(6)),
            "{rings:?}"
        );
        std::fs::remove_file(doc_path).ok();
        std::fs::remove_file(g).ok();
    }

    #[test]
    fn trace_meta_reports_the_effective_warmup() {
        // The saved document describes the run that happened: a warmup
        // past the rounds is clamped, and the report says so.
        let g = tmp("g-trace-warmup.json");
        run(
            "gen",
            &args(&["pipeline", "--len", "6", "--state", "64", "-o", &g]),
        )
        .unwrap();
        let doc = tmp("trace-warmup-doc.json");
        for (asked, effective) in [("999", 3), ("2", 2)] {
            let argv = [
                &g,
                "--m",
                "1024",
                "--workers",
                "2",
                "--rounds",
                "4",
                "--counters",
                "--trace",
                "--warmup",
                asked,
                "--json",
                "-o",
                &doc,
            ];
            let v: serde_json::Value =
                serde_json::from_str(&run("run-dag", &args(&argv)).unwrap()).unwrap();
            assert_eq!(
                v["meta"]["warmup"].as_u64(),
                Some(effective),
                "--warmup {asked}"
            );
            let reported = run("report", &args(&[&doc])).unwrap();
            assert!(
                reported.contains(&format!("\nwarmup: first {effective} of 4 batches")),
                "{reported}"
            );
        }
        std::fs::remove_file(doc).ok();
        std::fs::remove_file(g).ok();
    }

    #[test]
    fn trace_without_counters_keeps_timing_only_windows() {
        let g = tmp("g-trace-no-counters.json");
        run(
            "gen",
            &args(&["pipeline", "--len", "6", "--state", "64", "-o", &g]),
        )
        .unwrap();
        let argv = [
            &g,
            "--m",
            "1024",
            "--workers",
            "2",
            "--rounds",
            "4",
            "--trace",
            "--windows",
            "2",
            "--json",
        ];
        let v: serde_json::Value =
            serde_json::from_str(&run("run-dag", &args(&argv)).unwrap()).unwrap();
        let serde_json::Value::Array(events) = &v["traceEvents"] else {
            panic!("traceEvents: {:?}", v["traceEvents"]);
        };
        let windows: Vec<&serde_json::Value> = events
            .iter()
            .filter(|e| e["ph"].as_str() == Some("X") && e["cat"].as_str() == Some("window"))
            .collect();
        assert!(!windows.is_empty());
        assert!(
            windows
                .iter()
                .all(|w| w["args"]["counters"].as_str() == Some("timing-only")),
            "{windows:?}"
        );
        let summary = &v["summary"];
        assert_eq!(summary["windows"].as_u64(), Some(windows.len() as u64));
        assert_eq!(
            summary["windows_timing_only"].as_u64(),
            Some(windows.len() as u64)
        );
        std::fs::remove_file(g).ok();
    }

    /// Write sweep spec `json` to a fresh temporary file.
    fn spec_file(name: &str, json: &str) -> String {
        let path = tmp(name);
        std::fs::write(&path, json).unwrap();
        path
    }

    #[test]
    fn sweep_output_roundtrips_through_report() {
        // A tiny grid: one-worker baseline + rr/measured at 2 workers, 2
        // interleaved repeats. The engine asserts digest equivalence
        // across all cells; `-o` saves the ccs-sweep/v1 document and
        // `ccs report` renders the same text.
        let spec = spec_file(
            "roundtrip-spec.json",
            r#"{"apps": ["fm-radio"],
                "cells": [{"workers": 1, "label": "serial"},
                          {"workers": 2, "placement": "rr"},
                          {"workers": 2, "placement": "measured"}]}"#,
        );
        let path = tmp("sweep.json");
        let rendered = run(
            "sweep",
            &args(&[
                "--spec",
                &spec,
                "--repeats",
                "2",
                "--rounds",
                "3",
                "--name",
                "cli-test",
                "-o",
                &path,
            ]),
        )
        .unwrap();
        assert!(
            rendered.contains("cli-test: 2 repeats x 3 rounds"),
            "{rendered}"
        );
        assert!(rendered.contains("serial"), "{rendered}");
        assert!(rendered.contains("measured/w2"), "{rendered}");
        assert!(rendered.contains("paired deltas"), "{rendered}");
        assert!(rendered.contains(&format!("wrote {path}")), "{rendered}");
        // Round-trip: the saved document renders to the same report.
        let reported = run("report", &args(&[&path])).unwrap();
        assert!(rendered.starts_with(&reported), "{reported}");
        // The saved document is the versioned schema with digests and
        // the BH-adjusted comparison family.
        let v: serde_json::Value =
            serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(v["schema"].as_str(), Some("ccs-sweep/v1"));
        let cells = match &v["cells"] {
            serde_json::Value::Array(c) => c,
            other => panic!("cells: {other:?}"),
        };
        assert_eq!(cells.len(), 3);
        let d0 = cells[0]["digest"].as_str().unwrap();
        assert!(cells.iter().all(|c| c["digest"].as_str() == Some(d0)));
        let comps = match &v["comparisons"] {
            serde_json::Value::Array(c) => c,
            other => panic!("comparisons: {other:?}"),
        };
        // Default family: serial (first cell) vs each of the two
        // parallel cells on miss/item and wall time. Wall time always
        // measures, so its comparisons carry BH-adjusted p-values.
        assert_eq!(comps.len(), 4);
        assert!(comps
            .iter()
            .filter(|c| c["metric"].as_str() == Some("wall_ms"))
            .all(|c| c["p_adjusted"].as_f64().is_some()));
        // --json emits the document itself — pure JSON on stdout even
        // with -o, like the other --json subcommands.
        let one = spec_file(
            "one-cell-spec.json",
            r#"{"apps": ["fm-radio"], "cells": [{"workers": 2, "placement": "rr"}]}"#,
        );
        let json_path = tmp("sweep-json.json");
        let out = run(
            "sweep",
            &args(&[
                "--spec",
                &one,
                "--repeats",
                "1",
                "--rounds",
                "2",
                "--json",
                "-o",
                &json_path,
            ]),
        )
        .unwrap();
        let v: serde_json::Value = serde_json::from_str(&out).unwrap();
        assert_eq!(v["schema"].as_str(), Some("ccs-sweep/v1"));
        assert_eq!(std::fs::read_to_string(&json_path).unwrap(), out);
        std::fs::remove_file(json_path).ok();
        // Bad declarations are errors, not panics.
        for (bad, needle) in [
            (r#"{"apps": ["nope"], "cells": [{}]}"#, "unknown app 'nope'"),
            (
                r#"{"apps": ["fm-radio"], "cells": [{"placement": "sideways"}]}"#,
                "unknown placement 'sideways'",
            ),
            // A percent-style confidence is rejected, not silently voided.
            (
                r#"{"apps": ["fm-radio"], "rounds": 2, "confidence": 95, "cells": [{}]}"#,
                "confidence",
            ),
            (
                r#"{"apps": ["fm-radio"], "cells": [{"label": "a"}, {"label": "b"}],
                    "comparisons": [{"metric": "bogus", "baseline": "a", "treatment": "b"}]}"#,
                "unknown metric 'bogus'",
            ),
        ] {
            let bad = spec_file("bad-spec.json", bad);
            let err = run("sweep", &args(&["--spec", &bad]))
                .unwrap_err()
                .to_string();
            assert!(err.contains(needle), "{err}");
            std::fs::remove_file(bad).ok();
        }
        assert!(run("sweep", &args(&[]))
            .unwrap_err()
            .to_string()
            .contains("--spec"));
        for f in [spec, one, path] {
            std::fs::remove_file(f).ok();
        }
    }

    #[test]
    fn sweep_trace_keys_reach_the_cells() {
        // `"trace"` and `"windows"` flow into every declared cell
        // (one-worker baseline included) and the saved document carries
        // the per-cell obs block.
        let spec = spec_file(
            "trace-spec.json",
            r#"{"apps": ["fm-radio"], "repeats": 1, "rounds": 2,
                "cells": [{"workers": 1, "trace": true, "windows": 1},
                          {"workers": 2, "placement": "rr", "trace": true, "windows": 1}]}"#,
        );
        let path = tmp("sweep-trace.json");
        run("sweep", &args(&["--spec", &spec, "-o", &path])).unwrap();
        let v: serde_json::Value =
            serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let cells = match &v["cells"] {
            serde_json::Value::Array(c) => c,
            other => panic!("cells: {other:?}"),
        };
        assert_eq!(cells.len(), 2);
        for c in cells {
            let obs = &c["obs"];
            assert_eq!(obs["trace"].as_bool(), Some(true), "{obs:?}");
            assert_eq!(obs["windows_every"].as_u64(), Some(1));
            assert!(obs["trace_events"].as_u64().unwrap() > 0);
            assert!(obs["windows"].as_u64().unwrap() > 0);
        }
        std::fs::remove_file(spec).ok();
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn sweep_runs_from_a_spec_file() {
        let spec = tmp("spec.json");
        std::fs::write(
            &spec,
            r#"{
              "name": "spec-sweep", "repeats": 2, "rounds": 2,
              "apps": ["fm-radio"],
              "cells": [
                {"workers": 2, "placement": "rr"},
                {"workers": 2, "placement": "measured", "pin_cores": true,
                 "label": "measured-pinned"}
              ],
              "comparisons": [
                {"metric": "wall_ms", "baseline": "rr/w2", "treatment": "measured-pinned"}
              ]
            }"#,
        )
        .unwrap();
        let out = run("sweep", &args(&["--spec", &spec])).unwrap();
        assert!(out.contains("spec-sweep: 2 repeats x 2 rounds"), "{out}");
        assert!(out.contains("measured-pinned"), "{out}");
        assert!(out.contains("wall_ms: rr/w2 - measured-pinned"), "{out}");
        std::fs::remove_file(spec).ok();
    }

    #[test]
    fn sweep_flags_override_a_spec() {
        // A checked-in experiment is declared at full size; CI runs it
        // small by passing the size on the command line.
        let spec = tmp("override-spec.json");
        std::fs::write(
            &spec,
            r#"{
              "name": "full-size", "repeats": 3, "rounds": 8,
              "apps": ["fm-radio"],
              "cells": [
                {"workers": 1, "placement": "rr"},
                {"workers": 2, "placement": "rr"}
              ]
            }"#,
        )
        .unwrap();
        let out = run(
            "sweep",
            &args(&[
                "--spec",
                &spec,
                "--repeats",
                "1",
                "--rounds",
                "2",
                "--name",
                "x",
                "--json",
            ]),
        )
        .unwrap();
        let v: serde_json::Value = serde_json::from_str(&out).unwrap();
        assert_eq!(v["repeats"].as_u64(), Some(1));
        assert_eq!(v["rounds"].as_u64(), Some(2));
        assert_eq!(v["sweep"].as_str(), Some("x"));
        std::fs::remove_file(spec).ok();
    }

    #[test]
    fn sweep_spec_refuses_misspelt_and_retired_keys() {
        for (cell, needle) in [
            (
                r#"{"workers": 2, "placment": "measured"}"#,
                "unknown cell key \"placment\"",
            ),
            (
                r#"{"workers": 2, "topology": "2x2x2"}"#,
                "unknown cell key \"topology\"",
            ),
            (
                r#"{"workers": 2, "windows": 2, "adapt": true}"#,
                "unknown cell key \"adapt\"",
            ),
            (r#"{"engine": "serial"}"#, "unknown cell key \"engine\""),
        ] {
            let spec = tmp("bad-key-spec.json");
            std::fs::write(
                &spec,
                format!(r#"{{"apps": ["fm-radio"], "cells": [{cell}]}}"#),
            )
            .unwrap();
            let err = run("sweep", &args(&["--spec", &spec]))
                .unwrap_err()
                .to_string();
            assert!(err.contains(needle), "{err}");
            std::fs::remove_file(spec).ok();
        }
        // The retired top-level residency threshold, by name.
        let spec = tmp("retired-spec-key.json");
        std::fs::write(
            &spec,
            r#"{"apps": ["fm-radio"], "warn_residency": 0.25, "cells": [{"workers": 1}]}"#,
        )
        .unwrap();
        let err = run("sweep", &args(&["--spec", &spec]))
            .unwrap_err()
            .to_string();
        std::fs::remove_file(spec).ok();
        assert!(err.contains("unknown spec key \"warn_residency\""), "{err}");
    }

    #[test]
    fn report_rejects_other_schemas() {
        // Garbage and legacy (pre-sweep) documents are errors with a
        // pointer at the expected schema.
        let bad = tmp("not-a-report.json");
        std::fs::write(&bad, "{\"cells\": 7}").unwrap();
        let err = run("report", &args(&[&bad])).unwrap_err().to_string();
        assert!(err.contains("ccs-sweep/v1"), "{err}");
        std::fs::remove_file(bad).ok();
    }

    #[test]
    fn topo_prints_the_host_geometry() {
        let topo = Topology::discover();
        let out = run("topo", &args(&[])).unwrap();
        assert!(out.starts_with(&topo.summary()), "{out}");
        assert!(out.contains("perf counters: "), "{out}");
        for c in topo.caches() {
            assert!(out.contains(&c.describe()), "{out}");
        }
        // The document's keys, pinned.
        let out = run("topo", &args(&["--json"])).unwrap();
        let parsed: serde_json::Value = serde_json::from_str(&out).unwrap();
        let keys = |v: &serde_json::Value| match v {
            serde_json::Value::Object(m) => m.iter().map(|(k, _)| k.clone()).collect::<Vec<_>>(),
            other => panic!("not an object: {other:?}"),
        };
        let mut top = keys(&parsed);
        top.sort();
        assert_eq!(top, ["caches", "cpulist", "cpus", "perf_counters"]);
        let serde_json::Value::Array(cpus) = &parsed["cpus"] else {
            panic!("cpus: {:?}", parsed["cpus"]);
        };
        assert_eq!(cpus.len(), topo.cpus().len());
        let serde_json::Value::Array(caches) = &parsed["caches"] else {
            panic!("caches: {:?}", parsed["caches"]);
        };
        assert_eq!(caches.len(), topo.caches().len());
        for (c, want) in caches.iter().zip(topo.caches()) {
            let mut k = keys(c);
            k.sort();
            assert_eq!(
                k,
                [
                    "kind",
                    "level",
                    "line",
                    "name",
                    "shared_cpus",
                    "size",
                    "ways"
                ]
            );
            assert_eq!(c["size"].as_u64(), Some(want.size));
            assert_eq!(c["name"].as_str(), Some(want.name().as_str()));
        }
    }

    #[test]
    fn compare_prints_table() {
        let path = tmp("g4.json");
        run(
            "gen",
            &args(&["pipeline", "--len", "16", "--state", "128", "-o", &path]),
        )
        .unwrap();
        let out = run(
            "compare",
            &args(&[&path, "--m", "1024", "--outputs", "300"]),
        )
        .unwrap();
        assert!(out.contains("single-appearance"));
        assert!(out.contains("misses/output"));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn app_list_and_errors() {
        let out = run("gen", &args(&["app", "list"])).unwrap();
        assert!(out.contains("fm-radio"));
        assert!(run("gen", &args(&["app", "nope"])).is_err());
        // The `llc` placement is gone; the error names the ones left.
        let g = tmp("app-errors.json");
        run("gen", &args(&["app", "fm-radio", "-o", &g])).unwrap();
        let err = run("run-dag", &args(&[&g, "--m", "1088", "--placement", "llc"]))
            .unwrap_err()
            .to_string();
        assert!(
            err.contains("unknown placement 'llc' (rr|measured)"),
            "{err}"
        );
        // So is the greedy one, refused by name.
        let err = run(
            "run-dag",
            &args(&[&g, "--m", "1088", "--placement", "greedy"]),
        )
        .unwrap_err()
        .to_string();
        assert!(err.contains("placement 'greedy' was retired"), "{err}");
        std::fs::remove_file(g).ok();
        assert!(run("frobnicate", &args(&[])).is_err());
        assert!(run("help", &args(&[])).unwrap().contains("USAGE"));
        // No `autotune`: `Strategy::Auto` picks the partitioner from the
        // graph's shape.
        assert!(run("autotune", &args(&[])).is_err());
        assert!(!usage().contains("autotune"));
        // No `ccs bench`: `benchmark/` is where a regression is judged.
        assert!(run("bench", &args(&[])).is_err());
        assert!(!usage().contains("ccs bench"));
        assert!(!usage().contains("--history"));
    }

    #[test]
    fn fuse_command() {
        let path = tmp("g6.json");
        run(
            "gen",
            &args(&["pipeline", "--len", "16", "--state", "96", "-o", &path]),
        )
        .unwrap();
        let fused_path = tmp("g6-fused.json");
        let out = run("fuse", &args(&[&path, "--m", "1024", "-o", &fused_path])).unwrap();
        assert!(out.contains("fused 16 modules into"), "{out}");
        // Fused graph is loadable and smaller.
        let report = run("analyze", &args(&[&fused_path])).unwrap();
        assert!(report.contains("pipeline     : true"));
        std::fs::remove_file(path).ok();
        std::fs::remove_file(fused_path).ok();
    }

    #[test]
    fn dot_command() {
        let path = tmp("g5.json");
        run(
            "gen",
            &args(&["pipeline", "--len", "3", "--state", "8", "-o", &path]),
        )
        .unwrap();
        let out = run("dot", &args(&[&path])).unwrap();
        assert!(out.starts_with("digraph"));
        std::fs::remove_file(path).ok();
    }
}
