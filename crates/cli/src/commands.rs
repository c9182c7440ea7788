//! The CLI subcommands.

use crate::args::Args;
use ccs_cachesim::CacheParams;
use ccs_core::compare::{compare_schedulers, format_table};
use ccs_core::report::Report;
use ccs_core::{Horizon, Planner, Strategy};
use ccs_exec::RunConfig;
use ccs_graph::{RateAnalysis, StreamGraph};
use ccs_topo::{format_cpulist, TopoSpec, Topology};
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
    if let Some(known) = reads(cmd) {
        let known: Vec<&str> = known.split_whitespace().collect();
        args.only(&known).map_err(|e| {
            let known: Vec<String> = known.iter().map(|f| crate::args::dashed(f)).collect();
            format!("{e} (ccs {cmd} reads {})", known.join(" "))
        })?;
    }
    match cmd {
        "gen" => gen(args),
        "analyze" => analyze(args),
        "partition" => partition(args),
        "simulate" => simulate(args),
        "run-dag" => run_dag(args),
        "trace" => trace_cmd(args),
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
        // A trace document or graph file, or a live run: `ccs trace`'s.
        "analyze" | "trace" => {
            "m b strategy rounds workers placement topo topo-from from pin-cores \
             windows trace-cap no-counters warmup warn-residency json out"
        }
        "partition" => "m b strategy",
        "simulate" => "m b strategy outputs json",
        "run-dag" => {
            "m b strategy workers rounds placement topo topo-from from pin-cores counters \
             warmup trace windows trace-cap warn-residency json"
        }
        "sweep" => "spec name repeats rounds warn-residency json out",
        "topo" => "topo topo-from from json",
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
  ccs analyze FILE [--json] [-o FILE]
               (structural rate analysis of a StreamGraph; given a
                ccs-trace/v1 document instead, runs the bottleneck
                analysis — per-worker time breakdowns, stall blame per
                edge, ring occupancy, bottleneck ranking with the
                blocking chain, and mpki/stall-share drift — emitting a
                ccs-analysis/v1 document `ccs report` renders)
  ccs analyze FILE --m M [trace flags]
               (live mode: run the StreamGraph with tracing on — the
                same run `ccs trace` exports — and analyze it directly)
  ccs partition FILE --m M [--b B] [--strategy greedy2m|dp|dag|exact]
  ccs simulate FILE --m M [--b B] [--outputs T] [--json]
  ccs run-dag  FILE --m M [--b B] [--workers N] [--rounds R]
               [--placement rr|greedy|llc] [--topo NxCxK | --topo-from DUMP]
               [--pin-cores] [--counters] [--warmup K]
               [--trace] [--windows W] [--trace-cap C]
               [--warn-residency R] [--strategy ...] [--json]
               (real multicore execution with segment-affine workers;
                llc placement + pinning use the machine topology;
                --counters reads hardware cache counters around every
                batch and attributes them to its segment, --warmup K
                leaves the first K batches of each segment uncounted so
                readings reflect steady state; --trace
                records per-worker event timelines and --windows W
                closes a counter window every W batches; how a batch
                executes — kernels fired against windows of ring
                storage and a flat per-segment arena, no copies — is
                in docs/HOTPATH.md;
                see docs/MEASUREMENT.md and docs/OBSERVABILITY.md)
  ccs trace FILE --m M [--b B] [--workers N] [--rounds R]
            [--windows W] [--trace-cap C] [--no-counters] [--warmup K]
            [--placement rr|greedy|llc] [--topo NxCxK] [--pin-cores]
            [--warn-residency R] [--strategy ...] [--json] [-o FILE]
               (run with event tracing on and export the merged
                per-worker timelines as Chrome trace-event JSON —
                load FILE in Perfetto (ui.perfetto.dev) or render the
                summary with `ccs report`; counter windows every W
                batches [default 1] annotate the timeline, degrading
                to timing-only without a PMU; stalls carry the blocking
                edge and ring occupancy is sampled at batch boundaries,
                so the export feeds `ccs analyze`; --warn-residency sets the
                low-PMU-residency warning threshold baked into the
                document; see docs/OBSERVABILITY.md)
  ccs sweep --spec FILE [--repeats R] [--rounds N] [--name NAME]
            [--warn-residency R] [--json] [-o FILE]
               (declarative experiment grid: cells x interleaved repeats
                with every cell's digest checked against the reference
                interpreter's, per-cell
                mean +/- stddev, and the declared pairwise paired deltas
                with bootstrap CIs under Benjamini-Hochberg correction;
                the grid is a JSON spec file, as the experiments under
                experiments/ are, and --repeats/--rounds/--name/
                --warn-residency override its own;
                -o saves the ccs-sweep/v1 document `ccs report` renders)
  ccs topo [--topo NxCxK | --from DUMP] [--json]
               (print the discovered, synthetic, or replayed machine
                topology plus perf-counter availability; the --json dump
                is what --from / --topo-from replay)
  ccs report FILE
               (render a results document as text, dispatching on its
                schema: ccs-sweep/v1 — per-cell mean +/- stddev,
                per-segment attribution, and the BH-corrected comparison
                family, from `ccs sweep` —
                ccs-trace/v1 — per-worker event/window summary with
                drop and PMU-residency warnings, from `ccs trace` —
                ccs-analysis/v1 — the bottleneck/drift analysis from
                `ccs analyze`)
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

/// `ccs analyze` — dispatch on content. A `ccs-trace/v1` document is
/// analyzed into a `ccs-analysis/v1` one (stall blame, ring occupancy,
/// bottleneck ranking, drift); a StreamGraph with `--m` is run live
/// with tracing on (the same run `ccs trace` makes) and the resulting
/// document analyzed; a plain StreamGraph gets the structural rate
/// analysis.
fn analyze(args: &Args) -> CliResult {
    let path = args.positional(0, "graph or trace file")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    if let Ok(v) = serde_json::from_str::<serde_json::Value>(&text) {
        if v["schema"].as_str() == Some(ccs_obs::chrome::SCHEMA) {
            let analysis = ccs_insight::analyze_doc(&v).map_err(|e| format!("{path}: {e}"))?;
            return emit_analysis(args, analysis);
        }
    }
    if args.flag("m").is_some() {
        // Live mode: run the graph with tracing on (the exact run `ccs
        // trace` exports) and analyze the in-memory document, so the
        // file and live paths cannot diverge.
        let doc = build_trace_doc(args)?;
        let analysis = ccs_insight::analyze_doc(&doc).map_err(|e| format!("{path}: {e}"))?;
        return emit_analysis(args, analysis);
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

fn params_of(args: &Args) -> Result<CacheParams, Box<dyn Error>> {
    let m = args.required_u64("m")?;
    let b = args.u64_or("b", 16)?;
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

/// Topology from `--topo NxCxK` (synthetic), `--topo-from`/`--from`
/// (replay of a `ccs topo --json` dump), or `None` for host discovery.
fn topo_of(args: &Args) -> Result<Option<Topology>, Box<dyn Error>> {
    let from = args.flag("topo-from").or_else(|| args.flag("from"));
    match (args.flag("topo"), from) {
        (Some(_), Some(_)) => Err("--topo and --topo-from/--from are mutually exclusive".into()),
        (Some(spec), None) => Ok(Some(Topology::synthetic(&spec.parse::<TopoSpec>()?))),
        (None, Some(path)) => Ok(Some(load_topo_dump(path)?)),
        (None, None) => Ok(None),
    }
}

/// Rebuild a machine tree from a `ccs topo --json` dump: each entry of
/// the `clusters` array is one LLC cluster, `(os_node, cpus)` — enough
/// to replay another machine's topology here for placement inspection.
fn load_topo_dump(path: &str) -> Result<Topology, Box<dyn Error>> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let v: serde_json::Value =
        serde_json::from_str(&text).map_err(|e| format!("{path} is not JSON: {e}"))?;
    let serde_json::Value::Array(clusters) = &v["clusters"] else {
        return Err(format!("{path}: no `clusters` array (want a `ccs topo --json` dump)").into());
    };
    let mut groups = Vec::with_capacity(clusters.len());
    for c in clusters {
        // `os_node` is the authoritative id; older dumps may only have
        // the dense `node` index, which replays equivalently.
        let node = c["os_node"]
            .as_u64()
            .or_else(|| c["node"].as_u64())
            .ok_or_else(|| format!("{path}: cluster without os_node/node"))?
            as usize;
        let serde_json::Value::Array(cpu_vals) = &c["cpus"] else {
            return Err(format!("{path}: cluster without a cpus array").into());
        };
        let cpus = cpu_vals
            .iter()
            .map(|x| {
                x.as_u64()
                    .map(|u| u as usize)
                    .ok_or_else(|| format!("{path}: non-integer cpu id"))
            })
            .collect::<Result<Vec<usize>, String>>()?;
        groups.push((node, cpus));
    }
    if groups.iter().all(|(_, cpus)| cpus.is_empty()) {
        return Err(format!("{path}: dump describes no cpus").into());
    }
    Ok(Topology::from_replay(groups))
}

fn run_dag(args: &Args) -> CliResult {
    let path = args.positional(0, "graph file")?;
    let g = load(path)?;
    let planner = Planner::new(params_of(args)?).with_strategy(strategy_of(args)?);
    let workers = args.u64_or("workers", 2)?.max(1) as usize;
    let rounds = args.u64_or("rounds", 8)?;
    let placement = match args.flag("placement") {
        None => ccs_exec::Placement::RoundRobin,
        Some(name) => ccs_exec::Placement::parse(name)
            .ok_or_else(|| format!("unknown placement '{name}' (rr|greedy|llc)"))?,
    };
    let counters = args.has("counters");
    let mut cfg = RunConfig::new(workers)
        .with_placement(placement)
        .with_pinning(args.has("pin-cores"))
        .with_counters(counters)
        .with_warmup(args.u64_or("warmup", 0)?)
        .with_trace(args.has("trace"))
        .with_windows(args.u64_or("windows", 0)?)
        .with_trace_capacity(args.u64_or("trace-cap", 0)? as usize);
    if let Some(topo) = topo_of(args)? {
        cfg = cfg.with_topology(topo);
    }
    // Workload-aware binding by file stem: a graph saved as
    // `phase-shift.json` (`ccs gen app phase-shift`) gets its seeded
    // perturbation kernels, everything else the synthetic binding.
    let stem = std::path::Path::new(path)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("");
    let inst = ccs_apps::bound_instance(stem, g);
    let pr = planner.plan_and_run_parallel(inst, rounds, &cfg)?;
    let stats = &pr.stats;
    let totals = stats.counter_totals();
    if args.has("json") {
        let workers_json: Vec<serde_json::Value> = stats
            .workers
            .iter()
            .map(|w| {
                serde_json::json!({
                    "worker": w.worker,
                    "segments": w.segments,
                    "firings": w.firings,
                    "batches": w.batches,
                    "stalls": w.stalls,
                    "stall_ms": w.stall_time.as_secs_f64() * 1e3,
                    "busy_ms": w.busy.as_secs_f64() * 1e3,
                    "pinned_cpu": w.pinned_cpu,
                    "counters": w.counters.as_ref().map(|s| s.to_json(None)),
                    "windows": w.windows.iter().map(ccs_obs::window_json).collect::<Vec<_>>(),
                    "trace_events": w.trace.as_ref().map_or(0, |t| t.events.len() as u64),
                    "trace_dropped": w.trace.as_ref().map_or(0, |t| t.dropped),
                })
            })
            .collect();
        // Per-segment attribution (whenever counters are on): misses
        // per sink item per segment over the steady-state window.
        let segments_json: Vec<serde_json::Value> = stats
            .segment_counters()
            .iter()
            .map(|sc| {
                let mut v = sc.sample.to_json(None);
                if let serde_json::Value::Object(pairs) = &mut v {
                    pairs.insert(0, ("seg".into(), serde_json::json!(sc.seg)));
                    pairs.insert(1, ("batches".into(), serde_json::json!(sc.batches)));
                    pairs.insert(
                        2,
                        (
                            "batches_counted".into(),
                            serde_json::json!(sc.batches_counted),
                        ),
                    );
                    pairs.insert(
                        3,
                        (
                            "llc_misses_per_item".into(),
                            serde_json::to_value(sc.per_item(
                                ccs_perf::CounterKind::LlcMisses,
                                stats.items_per_round(),
                            ))
                            .unwrap_or(serde_json::Value::Null),
                        ),
                    );
                }
                v
            })
            .collect();
        // Counter tri-state: "off" (not requested), "unavailable"
        // (requested, nothing opened anywhere — containers, paranoid),
        // or the aggregated readings.
        let counters_json = if !counters {
            serde_json::Value::String("off".into())
        } else {
            match &totals {
                // Per-worker samples get no item denominator (items are
                // a sink-level quantity), so only the aggregate carries
                // llc_misses_per_item.
                Some(t) => t.to_json(Some(stats.run.sink_items)),
                None => serde_json::Value::String("unavailable".into()),
            }
        };
        let mut top = serde_json::json!({
            "strategy": pr.strategy_used,
            "placement": placement.name(),
            "pin_cores": cfg.pin_cores,
            "pinned_workers": stats.pinned_workers(),
            "segments": stats.segments,
            "workers": workers,
            "granularity_t": stats.t,
            "boundary_words": stats.run.boundary_words,
            "rounds": stats.rounds,
            "warmup_batches": stats.warmup,
            "trace_enabled": stats.trace_enabled,
            "trace_events": stats.trace_events(),
            "trace_dropped": stats.trace_dropped(),
            "window_batches": stats.window_batches,
            // All workers' windows merged onto one time axis.
            "windows": stats.windows().iter().map(|(w, s)| {
                let mut v = ccs_obs::window_json(s);
                if let serde_json::Value::Object(pairs) = &mut v {
                    pairs.insert(0, ("worker".into(), serde_json::json!(*w as u64)));
                }
                v
            }).collect::<Vec<_>>(),
            "measured_sink_items": stats.measured_sink_items(),
            "bandwidth": pr.bandwidth.to_f64(),
            "firings": stats.run.firings,
            "sink_items": stats.run.sink_items,
            "wall_ms": stats.run.wall.as_secs_f64() * 1e3,
            "stall_ms": stats.total_stall_time().as_secs_f64() * 1e3,
            "items_per_sec": stats.items_per_sec(),
            "digest": format!("{:016x}", stats.run.digest.unwrap_or(0)),
            "counters": counters_json,
            "counted_workers": stats.counted_workers(),
            "per_worker": workers_json,
        });
        if counters {
            if let serde_json::Value::Object(pairs) = &mut top {
                pairs.push((
                    "per_segment".to_string(),
                    serde_json::Value::Array(segments_json),
                ));
            }
        }
        return Ok(serde_json::to_string_pretty(&top)?);
    }
    let mut out = String::new();
    use std::fmt::Write as _;
    let _ = writeln!(
        out,
        "strategy {} | placement {} | {} segments on {} workers{} | T = {} | {} boundary words",
        pr.strategy_used,
        placement.name(),
        stats.segments,
        workers,
        if cfg.pin_cores {
            format!(" ({} pinned)", stats.pinned_workers())
        } else {
            String::new()
        },
        stats.t,
        stats.run.boundary_words,
    );
    let _ = writeln!(
        out,
        "{} firings, {} sink items in {:.2} ms = {:.3} M items/s | digest {:016x}",
        stats.run.firings,
        stats.run.sink_items,
        stats.run.wall.as_secs_f64() * 1e3,
        stats.items_per_sec() / 1e6,
        stats.run.digest.unwrap_or(0),
    );
    if counters {
        if stats.warmup > 0 {
            let _ = writeln!(
                out,
                "warmup: first {} of {} batches/segment excluded from counters \
                 ({} steady-state sink items measured)",
                stats.warmup,
                stats.rounds,
                stats.measured_sink_items(),
            );
        }
        match &totals {
            Some(t) => {
                use ccs_perf::CounterKind as K;
                let _ = writeln!(
                    out,
                    "counters ({} worker{}): llc misses {}{} | mpki {} | ipc {}{}",
                    stats.counted_workers(),
                    if stats.counted_workers() == 1 {
                        ""
                    } else {
                        "s"
                    },
                    t.get(K::LlcMisses).map_or("n/a".into(), |v| v.to_string()),
                    stats
                        .llc_misses_per_item()
                        .map_or(String::new(), |v| format!(" ({v:.3}/item)")),
                    t.mpki().map_or("n/a".into(), |v| format!("{v:.3}")),
                    t.ipc().map_or("n/a".into(), |v| format!("{v:.2}")),
                    if t.multiplexed() {
                        " | multiplexed (scaled)"
                    } else {
                        ""
                    },
                );
            }
            None => {
                let probe = ccs_perf::probe();
                let _ = writeln!(
                    out,
                    "counters: unavailable ({})",
                    probe
                        .reason
                        .as_deref()
                        .unwrap_or("no worker opened a group"),
                );
            }
        }
    }
    if stats.trace_enabled || stats.window_batches > 0 {
        let _ = writeln!(
            out,
            "obs: {} trace events ({} dropped) | {} counter windows every {} batches \
             ({} timing-only, {} low-residency) — export with `ccs trace`",
            stats.trace_events(),
            stats.trace_dropped(),
            stats.window_count(),
            stats.window_batches,
            stats.windows_timing_only(),
            stats.windows_scaled_below(warn_residency_of(args)?),
        );
    }
    if counters {
        let per_round = stats.items_per_round();
        for sc in stats.segment_counters() {
            let _ = writeln!(
                out,
                "  segment {}: {}/{} batches counted{}",
                sc.seg,
                sc.batches_counted,
                sc.batches,
                match sc.per_item(ccs_perf::CounterKind::LlcMisses, per_round) {
                    Some(v) => format!(", {v:.3} llc misses/item"),
                    None => ", llc misses/item n/a".to_string(),
                },
            );
        }
    }
    for w in &stats.workers {
        let _ = writeln!(
            out,
            "  worker {}{}: segments {:?}, {} firings, {} batches, {} stalls ({:.2} ms), busy {:.2} ms{}",
            w.worker,
            match w.pinned_cpu {
                Some(cpu) => format!(" @cpu{cpu}"),
                None => String::new(),
            },
            w.segments,
            w.firings,
            w.batches,
            w.stalls,
            w.stall_time.as_secs_f64() * 1e3,
            w.busy.as_secs_f64() * 1e3,
            w.counters
                .as_ref()
                .and_then(|s| s.get(ccs_perf::CounterKind::LlcMisses))
                .map_or(String::new(), |m| format!(", {m} llc misses")),
        );
    }
    Ok(out)
}

/// `ccs trace` — run a graph with event tracing on and export the
/// per-worker timelines as a Chrome trace-event document
/// (`ccs-trace/v1`). The default output is the text summary; `--json`
/// prints the raw document and `-o FILE` saves it for Perfetto
/// (ui.perfetto.dev) or a later `ccs report`. Counter windows close
/// every W batches (`--windows`, default 1) so each worker's track
/// carries a counter series next to its batch/stall spans; without a
/// usable PMU the windows degrade to timing-only spans.
fn trace_cmd(args: &Args) -> CliResult {
    emit_trace(args, build_trace_doc(args)?)
}

/// The `ccs trace` run itself: execute the graph with tracing on and
/// build the `ccs-trace/v1` document. Shared with `ccs analyze --m`
/// (live analysis), so both subcommands describe the identical run.
fn build_trace_doc(args: &Args) -> Result<serde_json::Value, Box<dyn Error>> {
    use ccs_obs::chrome::{self, TraceWorker};
    let path = args.positional(0, "graph file")?;
    let g = load(path)?;
    let name = std::path::Path::new(path)
        .file_stem()
        .map_or_else(|| path.to_string(), |s| s.to_string_lossy().into_owned());
    let planner = Planner::new(params_of(args)?).with_strategy(strategy_of(args)?);
    let rounds = args.u64_or("rounds", 8)?.max(1);
    let windows = args.u64_or("windows", 1)?;
    let trace_cap = args.u64_or("trace-cap", 0)? as usize;
    // Tracing is the point of this subcommand, so counters default on
    // (they only annotate; `--no-counters` drops to timing-only).
    let counters = !args.has("no-counters");
    let warmup = args.u64_or("warmup", 0)?;
    let warn_residency = warn_residency_of(args)?;
    // Echo where the machine model came from, so a saved document is
    // self-describing on another machine.
    let topology = match (args.flag("topo"), args.flag("topo-from")) {
        (Some(spec), _) => spec.to_string(),
        (None, Some(_)) => "replay".to_string(),
        (None, None) => "host".to_string(),
    };

    let workers = args.u64_or("workers", 2)?.max(1) as usize;
    let placement = match args.flag("placement") {
        None => ccs_exec::Placement::RoundRobin,
        Some(p) => ccs_exec::Placement::parse(p)
            .ok_or_else(|| format!("unknown placement '{p}' (rr|greedy|llc)"))?,
    };
    let mut cfg = RunConfig::new(workers)
        .with_placement(placement)
        .with_pinning(args.has("pin-cores"))
        .with_counters(counters)
        .with_warmup(warmup)
        .with_trace(true)
        .with_windows(windows)
        .with_trace_capacity(trace_cap);
    if let Some(topo) = topo_of(args)? {
        cfg = cfg.with_topology(topo);
    }
    // Bind by file stem so `phase-shift.json` traces with its seeded
    // perturbation kernels.
    let inst = ccs_apps::bound_instance(&name, g);
    let pr = planner.plan_and_run_parallel(inst, rounds, &cfg)?;
    let stats = &pr.stats;
    let tracks: Vec<TraceWorker> = stats
        .workers
        .iter()
        .map(|w| TraceWorker {
            worker: w.worker,
            name: match w.pinned_cpu {
                Some(cpu) => format!("worker {} @cpu{cpu}", w.worker),
                None => format!("worker {}", w.worker),
            },
            events: w.trace.as_ref().map_or(&[][..], |t| &t.events),
            dropped: w.trace.as_ref().map_or(0, |t| t.dropped),
            windows: &w.windows,
        })
        .collect();
    let meta = serde_json::json!({
        "strategy": pr.strategy_used,
        "placement": placement.name(),
        "pin_cores": cfg.pin_cores,
        "topology": topology,
        "workers": workers as u64,
        "rounds": rounds,
        "warmup": stats.warmup,
        "windows_every": windows,
        "boundary_words": stats.run.boundary_words,
        "wall_ms": stats.run.wall.as_secs_f64() * 1e3,
        "digest": format!("{:016x}", stats.run.digest.unwrap_or(0)),
    });
    Ok(chrome::document_with(&name, meta, &tracks, warn_residency))
}

/// Shared tail of `ccs trace`: save with `-o`, print raw JSON with
/// `--json`, otherwise render the text summary.
fn emit_trace(args: &Args, doc: serde_json::Value) -> CliResult {
    let json = serde_json::to_string_pretty(&doc)?;
    if let Some(path) = args.flag("out") {
        std::fs::write(path, &json)?;
    }
    if args.has("json") {
        return Ok(json);
    }
    let mut rendered = ccs_obs::chrome::render(&doc)?;
    if let Some(path) = args.flag("out") {
        use std::fmt::Write as _;
        let _ = write!(
            rendered,
            "wrote {path} — load it at ui.perfetto.dev or chrome://tracing"
        );
    }
    Ok(rendered)
}

/// Shared tail of trace analysis (`ccs analyze`): save the
/// `ccs-analysis/v1` document with `-o`, print it raw with `--json`,
/// otherwise render the text summary.
fn emit_analysis(args: &Args, doc: serde_json::Value) -> CliResult {
    let json = serde_json::to_string_pretty(&doc)?;
    if let Some(path) = args.flag("out") {
        std::fs::write(path, &json)?;
    }
    if args.has("json") {
        return Ok(json);
    }
    let mut rendered = ccs_insight::render(&doc)?;
    if let Some(path) = args.flag("out") {
        use std::fmt::Write as _;
        let _ = write!(rendered, "wrote {path}");
    }
    Ok(rendered)
}

/// `--warn-residency R`: the PMU-residency ratio below which a counter
/// window is flagged as low-residency (default
/// [`ccs_obs::MULTIPLEX_WARN_RATIO`]).
fn warn_residency_of(args: &Args) -> Result<f64, Box<dyn Error>> {
    match args.flag("warn-residency") {
        None => Ok(ccs_obs::MULTIPLEX_WARN_RATIO),
        Some(w) => w
            .parse::<f64>()
            .map_err(|_| format!("--warn-residency: '{w}' is not a number").into()),
    }
}

fn topo_cmd(args: &Args) -> CliResult {
    let topo = match topo_of(args)? {
        Some(t) => t,
        None => Topology::discover(),
    };
    let probe = ccs_perf::probe();
    if args.has("json") {
        let clusters: Vec<serde_json::Value> = topo
            .clusters()
            .iter()
            .map(|c| {
                let cpus: Vec<usize> = c.cores.iter().map(|&i| topo.core(i).cpu).collect();
                serde_json::json!({
                    "node": c.node,
                    "os_node": topo.node(c.node).os_node,
                    "cpus": cpus,
                    "cpulist": format_cpulist(&cpus),
                })
            })
            .collect();
        return Ok(serde_json::to_string_pretty(&serde_json::json!({
            "source": topo.source().name(),
            "nodes": topo.node_count(),
            "llc_clusters": topo.cluster_count(),
            "cores": topo.core_count(),
            "clusters": clusters,
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
    for (n, node) in topo.nodes().iter().enumerate() {
        if node.os_node == n {
            let _ = writeln!(out, "node {n}:");
        } else {
            // Dense index for placement math, OS id for numactl/lscpu.
            let _ = writeln!(out, "node {n} (os node {}):", node.os_node);
        }
        for &ci in &node.clusters {
            let cpus: Vec<usize> = topo
                .cluster(ci)
                .cores
                .iter()
                .map(|&i| topo.core(i).cpu)
                .collect();
            let _ = writeln!(out, "  llc {ci}: cpus {}", format_cpulist(&cpus));
        }
    }
    Ok(out)
}

/// `ccs report FILE` — render a `ccs-sweep/v1` results document (the
/// schema `ccs sweep` emits) as aligned text, via the same renderer
/// `ccs sweep` prints with. Tolerant of
/// nulls: cells measured where counters were unavailable render as
/// `n/a` rather than erroring, so reports from restricted hosts are
/// still inspectable.
fn report_cmd(args: &Args) -> CliResult {
    let path = args.positional(0, "report file")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    // Dispatch on the document's schema tag: trace exports render
    // through `ccs-obs`, analysis documents through `ccs-insight`,
    // everything else through the sweep renderer, which refuses a
    // schema it does not know by name.
    let v: serde_json::Value =
        serde_json::from_str(&text).map_err(|e| format!("{path} is not JSON: {e}"))?;
    if v["schema"].as_str() == Some(ccs_obs::chrome::SCHEMA) {
        return ccs_obs::chrome::render(&v).map_err(|e| format!("{path}: {e}").into());
    }
    if v["schema"].as_str() == Some(ccs_insight::SCHEMA) {
        return ccs_insight::render(&v).map_err(|e| format!("{path}: {e}").into());
    }
    ccs_bench::sweep::render(&v).map_err(|e| format!("{path}: {e}").into())
}

/// `ccs sweep --spec FILE` — run an experiment grid declared in a JSON
/// sweep spec (see `ccs_bench::sweep::from_spec`; the checked-in
/// experiments live under `experiments/`). `--name`, `--repeats`,
/// `--rounds` and `--warn-residency` override the spec's own. Prints the
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
    if args.flag("warn-residency").is_some() {
        sweep.warn_residency = warn_residency_of(args)?;
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
                "greedy",
                "--json",
            ]),
        )
        .unwrap();
        let parsed: serde_json::Value = serde_json::from_str(&out).unwrap();
        assert_eq!(parsed["workers"].as_u64(), Some(2));
        assert_eq!(parsed["placement"].as_str(), Some("comm-greedy"));
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

    #[test]
    fn run_dag_llc_with_topology_and_pinning() {
        let path = tmp("g8.json");
        run(
            "gen",
            &args(&["pipeline", "--len", "12", "--state", "64", "-o", &path]),
        )
        .unwrap();
        let base = [&path, "--m", "1024", "--workers", "4", "--rounds", "2"];
        let mut with_llc: Vec<&str> = base.to_vec();
        with_llc.extend([
            "--placement",
            "llc",
            "--topo",
            "1x2x2",
            "--pin-cores",
            "--json",
        ]);
        let out = run("run-dag", &args(&with_llc)).unwrap();
        let parsed: serde_json::Value = serde_json::from_str(&out).unwrap();
        assert_eq!(parsed["placement"].as_str(), Some("llc"));
        assert_eq!(parsed["pin_cores"].as_bool(), Some(true));
        assert!(parsed["stall_ms"].as_f64().is_some());
        assert!(parsed["per_worker"][0]["stall_ms"].as_f64().is_some());
        let llc_digest = parsed["digest"].as_str().unwrap().to_string();
        // Same schedule length under the default placement: digests match.
        let mut plain: Vec<&str> = base.to_vec();
        plain.push("--json");
        let out = run("run-dag", &args(&plain)).unwrap();
        let parsed: serde_json::Value = serde_json::from_str(&out).unwrap();
        assert_eq!(parsed["digest"].as_str(), Some(llc_digest.as_str()));
        // Bad topology spec is an error.
        let mut bad: Vec<&str> = base.to_vec();
        bad.extend(["--topo", "0x1"]);
        assert!(run("run-dag", &args(&bad)).is_err());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn removed_adapt_flag_is_refused_by_name() {
        // `--adapt` stays a switch so it cannot swallow the next
        // argument, and every command refuses it instead of running a
        // static grid as if it were adaptive.
        for argv in [
            &["run-dag", "--adapt", "g.json", "--workers", "2"][..],
            &["trace", "g.json", "--workers", "2", "--adapt"],
            &["sweep", "--spec", "s.json", "--adapt"],
        ] {
            let err = run(argv[0], &args(&argv[1..])).unwrap_err().to_string();
            assert!(err.contains("--adapt was removed"), "{}: {err}", argv[0]);
        }
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
        let w2: serde_json::Value = serde_json::from_str(&out).unwrap();
        let mut one = common.to_vec();
        one.extend(["--workers", "1", "--json"]);
        let w1: serde_json::Value =
            serde_json::from_str(&run("run-dag", &args(&one)).unwrap()).unwrap();
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
        let parsed: serde_json::Value =
            serde_json::from_str(&run("run-dag", &args(&plain)).unwrap()).unwrap();
        assert_eq!(parsed["counters"].as_str(), Some("off"));
        let digest = parsed["digest"].as_str().unwrap().to_string();
        // Requested: either aggregated readings or the explicit
        // "unavailable" fallback — never absent, never a crash; and the
        // digest must be untouched by instrumentation.
        let mut counted: Vec<&str> = base.to_vec();
        counted.extend(["--counters", "--json"]);
        let parsed: serde_json::Value =
            serde_json::from_str(&run("run-dag", &args(&counted)).unwrap()).unwrap();
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
        let parsed: serde_json::Value =
            serde_json::from_str(&run("run-dag", &args(&plain)).unwrap()).unwrap();
        let digest = parsed["digest"].as_str().unwrap().to_string();
        assert_eq!(parsed["warmup_batches"].as_u64(), Some(0));
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
        let parsed: serde_json::Value =
            serde_json::from_str(&run("run-dag", &args(&seg)).unwrap()).unwrap();
        assert_eq!(parsed["digest"].as_str(), Some(digest.as_str()));
        assert_eq!(parsed["warmup_batches"].as_u64(), Some(1));
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
        let parsed: serde_json::Value =
            serde_json::from_str(&run("run-dag", &args(&huge)).unwrap()).unwrap();
        assert_eq!(parsed["warmup_batches"].as_u64(), Some(3));
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
        // Reference digest with observability off; the obs fields are
        // present but inert.
        let mut plain: Vec<&str> = base.to_vec();
        plain.push("--json");
        let parsed: serde_json::Value =
            serde_json::from_str(&run("run-dag", &args(&plain)).unwrap()).unwrap();
        let digest = parsed["digest"].as_str().unwrap().to_string();
        assert_eq!(parsed["trace_enabled"].as_bool(), Some(false));
        assert_eq!(parsed["trace_events"].as_u64(), Some(0));
        assert_eq!(parsed["window_batches"].as_u64(), Some(0));
        // Trace + windows: same digest, a recorded timeline, and the
        // merged per-worker window array.
        let mut traced: Vec<&str> = base.to_vec();
        traced.extend(["--trace", "--windows", "1", "--counters", "--json"]);
        let parsed: serde_json::Value =
            serde_json::from_str(&run("run-dag", &args(&traced)).unwrap()).unwrap();
        assert_eq!(parsed["digest"].as_str(), Some(digest.as_str()));
        assert_eq!(parsed["trace_enabled"].as_bool(), Some(true));
        assert!(parsed["trace_events"].as_u64().unwrap() > 0);
        assert_eq!(parsed["trace_dropped"].as_u64(), Some(0));
        assert_eq!(parsed["window_batches"].as_u64(), Some(1));
        let windows = match &parsed["windows"] {
            serde_json::Value::Array(w) => w,
            other => panic!("windows: {other:?}"),
        };
        assert!(!windows.is_empty());
        assert!(windows[0]["worker"].as_u64().is_some());
        assert!(windows[0]["batches"].as_u64().unwrap() >= 1);
        assert!(parsed["per_worker"][0]["trace_events"].as_u64().is_some());
        // Text mode carries the obs summary line.
        let mut text: Vec<&str> = base.to_vec();
        text.extend(["--trace", "--windows", "1"]);
        let out = run("run-dag", &args(&text)).unwrap();
        assert!(out.contains("obs:"), "{out}");
        assert!(out.contains("export with `ccs trace`"), "{out}");
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
            "trace",
            &args(&[
                &g,
                "--m",
                "1024",
                "--workers",
                "2",
                "--rounds",
                "3",
                "--windows",
                "1",
                "-o",
                &doc_path,
            ]),
        )
        .unwrap();
        assert!(rendered.contains("workers: 2"), "{rendered}");
        assert!(rendered.contains("worker 0:"), "{rendered}");
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
        // `ccs report` dispatches on the schema tag and renders the
        // same summary.
        let reported = run("report", &args(&[&doc_path])).unwrap();
        assert!(rendered.starts_with(&reported), "{reported}");
        // One worker: `--json` prints the raw document.
        let out = run(
            "trace",
            &args(&[
                &g,
                "--m",
                "1024",
                "--workers",
                "1",
                "--rounds",
                "3",
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
        let analysis = ccs_insight::analyze_doc(&v).unwrap();
        let lane = &analysis["workers"][0];
        assert_eq!(
            lane["batches"].as_u64(),
            Some(3 * segments as u64),
            "{lane:?}"
        );
        let serde_json::Value::Array(rings) = &analysis["occupancy"] else {
            panic!("occupancy: {:?}", analysis["occupancy"]);
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
        // past the rounds is clamped, as `run-dag --json` reports it.
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
                "--warmup",
                asked,
                "--json",
                "-o",
                &doc,
            ];
            let v: serde_json::Value =
                serde_json::from_str(&run("trace", &args(&argv)).unwrap()).unwrap();
            assert_eq!(
                v["meta"]["warmup"].as_u64(),
                Some(effective),
                "--warmup {asked}"
            );
            let reported = run("report", &args(&[&doc])).unwrap();
            assert!(
                reported.contains(&format!("  warmup: {effective}\n")),
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
            "--windows",
            "2",
            "--no-counters",
            "--json",
        ];
        let v: serde_json::Value =
            serde_json::from_str(&run("trace", &args(&argv)).unwrap()).unwrap();
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
        // A tiny grid: one-worker baseline + rr/llc at 2 workers, 2
        // interleaved repeats. The engine asserts digest equivalence
        // across all cells; `-o` saves the ccs-sweep/v1 document and
        // `ccs report` renders the same text.
        let spec = spec_file(
            "roundtrip-spec.json",
            r#"{"apps": ["fm-radio"],
                "cells": [{"workers": 1, "label": "serial"},
                          {"workers": 2, "placement": "rr"},
                          {"workers": 2, "placement": "llc"}]}"#,
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
        assert!(rendered.contains("llc/w2"), "{rendered}");
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
                {"workers": 2, "placement": "llc", "topology": "1x2x2",
                 "pin_cores": true, "label": "llc-box"}
              ],
              "comparisons": [
                {"metric": "wall_ms", "baseline": "rr/w2", "treatment": "llc-box"}
              ]
            }"#,
        )
        .unwrap();
        let out = run("sweep", &args(&["--spec", &spec])).unwrap();
        assert!(out.contains("spec-sweep: 2 repeats x 2 rounds"), "{out}");
        assert!(out.contains("llc-box"), "{out}");
        assert!(out.contains("wall_ms: rr/w2 - llc-box"), "{out}");
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
                r#"{"workers": 2, "placment": "llc"}"#,
                "unknown cell key \"placment\"",
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
    fn topo_dump_replays_on_another_machine() {
        // Dump a synthetic 2x2x2 box, then replay the dump and place
        // against it — the `--topo-from` path end to end.
        let dump = run("topo", &args(&["--topo", "2x2x2", "--json"])).unwrap();
        let path = tmp("topo-dump.json");
        std::fs::write(&path, &dump).unwrap();
        let out = run("topo", &args(&["--from", &path])).unwrap();
        assert!(
            out.contains("replay: 2 nodes x 4 llc clusters x 8 cores"),
            "{out}"
        );
        let parsed: serde_json::Value =
            serde_json::from_str(&run("topo", &args(&["--from", &path, "--json"])).unwrap())
                .unwrap();
        assert_eq!(parsed["source"].as_str(), Some("replay"));
        assert_eq!(parsed["cores"].as_u64(), Some(8));

        let g = tmp("g10.json");
        run(
            "gen",
            &args(&["pipeline", "--len", "10", "--state", "64", "-o", &g]),
        )
        .unwrap();
        let out = run(
            "run-dag",
            &args(&[
                &g,
                "--m",
                "1024",
                "--workers",
                "4",
                "--placement",
                "llc",
                "--topo-from",
                &path,
                "--json",
            ]),
        )
        .unwrap();
        let parsed: serde_json::Value = serde_json::from_str(&out).unwrap();
        assert_eq!(parsed["placement"].as_str(), Some("llc"));
        // Mutually exclusive with --topo; garbage files are errors.
        assert!(run("topo", &args(&["--topo", "1x1x1", "--from", &path])).is_err());
        let bad = tmp("not-a-dump.json");
        std::fs::write(&bad, "{\"clusters\": 7}").unwrap();
        assert!(run("topo", &args(&["--from", &bad])).is_err());
        std::fs::remove_file(bad).ok();
        std::fs::remove_file(path).ok();
        std::fs::remove_file(g).ok();
    }

    #[test]
    fn topo_prints_synthetic_and_discovered() {
        let out = run("topo", &args(&["--topo", "2x2x2"])).unwrap();
        assert!(
            out.contains("synthetic: 2 nodes x 4 llc clusters x 8 cores"),
            "{out}"
        );
        assert!(out.contains("llc 0: cpus 0-1"), "{out}");
        let out = run("topo", &args(&["--topo", "2x2x2", "--json"])).unwrap();
        let parsed: serde_json::Value = serde_json::from_str(&out).unwrap();
        assert_eq!(parsed["source"].as_str(), Some("synthetic"));
        assert_eq!(parsed["cores"].as_u64(), Some(8));
        assert_eq!(parsed["clusters"][3]["node"].as_u64(), Some(1));
        // Host discovery always yields at least one core.
        let out = run("topo", &args(&["--json"])).unwrap();
        let parsed: serde_json::Value = serde_json::from_str(&out).unwrap();
        assert!(parsed["cores"].as_u64().unwrap() >= 1);
        assert!(run("topo", &args(&["--topo", "junk"])).is_err());
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
