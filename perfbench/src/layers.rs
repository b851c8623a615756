//! The traced run's per-layer metrics: the metric table (each tagged
//! with the end-to-end metric and workload it should move), direct calls
//! into each layer's public functions on the workload's circuits, and
//! the span file.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use vartol::core::{SizerConfig, StatisticalGreedy};
use vartol::netlist::generators::preset;
use vartol::netlist::iscas::{parse_bench, write_bench};
use vartol::netlist::Netlist;
use vartol::ssta::{
    AnnealingConfig, AnnealingSizer, CircuitTiming, Criticality, Dsta, EngineKind, Fassta,
    FullSsta, LagrangianConfig, LagrangianSizer, MonteCarloTimer, Objective, ScopedPool, Sizer,
    SstaConfig, TimingEngine, TimingSession,
};
use vartol::stats::clark::clark_max;
use vartol::stats::fast_max::fast_max_moments;
use vartol::stats::Moments;
use vartol_serve::{ServeConfig, ServeRequest, Service};

use crate::measure::{self, median, Rng, Span};
use crate::{data_file, sizable_gates, Context};

/// Every per-layer metric: name, unit, and what it should move
/// (end-to-end metric → workload). Each is measured on every workload:
/// from the workload's own traffic where it calls the layer (the sizers
/// on `size_flow`, the service on `serve_mixed`), otherwise by a direct
/// probe (see [`probe`]).
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    (
        "netlist.parse_s",
        "s",
        "setup_s -> serve_mixed, analyze_large",
    ),
    (
        "netlist.generate_s",
        "s",
        "setup_s -> serve_mixed, analyze_large",
    ),
    (
        "netlist.levelize_s",
        "s",
        "setup_s -> serve_mixed, analyze_large",
    ),
    (
        "ssta.electrical_s",
        "s",
        "setup_s, query_p50_ms -> analyze_large",
    ),
    (
        "ssta.dsta_pass_s",
        "s",
        "queries_per_s, query_p50_ms -> analyze_large",
    ),
    (
        "ssta.fassta_pass_s",
        "s",
        "queries_per_s, query_p50_ms -> analyze_large",
    ),
    (
        "ssta.fullssta_pass_s",
        "s",
        "setup_s, queries_per_s -> analyze_large",
    ),
    ("ssta.mc_pass_s", "s", "queries_per_s -> analyze_large"),
    ("pool.map_us", "us", "queries_per_s -> analyze_large"),
    (
        "pool.maps_per_pass",
        "count",
        "queries_per_s -> analyze_large",
    ),
    (
        "ssta.fullssta_width_speedup",
        "ratio",
        "queries_per_s -> analyze_large",
    ),
    ("ssta.session_build_s", "s", "setup_s -> analyze_large"),
    ("ssta.refresh_ms", "ms", "query_p50_ms -> analyze_large"),
    (
        "ssta.refresh_nodes",
        "count",
        "query_p50_ms -> analyze_large",
    ),
    (
        "ssta.criticality_s",
        "s",
        "queries_per_s, query_p99_ms -> analyze_large",
    ),
    (
        "ssta.criticality_outputs",
        "count",
        "queries_per_s, query_p99_ms -> analyze_large",
    ),
    (
        "branch.fork_us",
        "us",
        "queries_per_s -> size_flow; query_p99_ms -> serve_mixed",
    ),
    (
        "branch.refresh_us",
        "us",
        "queries_per_s -> size_flow; query_p99_ms -> serve_mixed",
    ),
    (
        "branch.refresh_nodes",
        "count",
        "queries_per_s -> size_flow; query_p99_ms -> serve_mixed",
    ),
    (
        "branch.commit_us",
        "us",
        "queries_per_s -> size_flow; query_p99_ms -> serve_mixed",
    ),
    ("stats.clark_max_ns", "ns", "queries_per_s -> size_flow"),
    ("stats.fast_max_ns", "ns", "queries_per_s -> size_flow"),
    (
        "core.greedy_s",
        "s",
        "queries_per_s, query_p50_ms -> size_flow",
    ),
    ("core.greedy_passes", "count", "queries_per_s -> size_flow"),
    ("core.greedy_resized", "count", "queries_per_s -> size_flow"),
    ("optimize.lagrangian_s", "s", "queries_per_s -> size_flow"),
    (
        "optimize.annealing_s",
        "s",
        "queries_per_s, query_p99_ms -> size_flow",
    ),
    (
        "optimize.noop_jobs",
        "count",
        "sigma_reduction_pct (report line) -> size_flow",
    ),
    ("workspace.register_s", "s", "setup_s -> all"),
    (
        "serve.decode_us",
        "us",
        "query_p50_ms, queries_per_s -> serve_mixed",
    ),
    (
        "serve.encode_us",
        "us",
        "query_p50_ms, queries_per_s -> serve_mixed",
    ),
    (
        "serve.call_hit_ms",
        "ms",
        "query_p50_ms, queries_per_s -> serve_mixed",
    ),
    (
        "serve.call_miss_ms",
        "ms",
        "query_p50_ms, queries_per_s -> serve_mixed",
    ),
    (
        "serve.cache_hit_ratio",
        "ratio",
        "query_p50_ms, queries_per_s -> serve_mixed",
    ),
    (
        "serve.requests_per_shard",
        "count",
        "queries_per_s -> serve_mixed",
    ),
    (
        "trace.overhead_setup_s",
        "s",
        "traced minus untraced replay",
    ),
    (
        "trace.overhead_queries_per_s",
        "1/s",
        "traced minus untraced replay",
    ),
    (
        "trace.overhead_query_p50_ms",
        "ms",
        "traced minus untraced replay",
    ),
    (
        "trace.overhead_query_p99_ms",
        "ms",
        "traced minus untraced replay",
    ),
];

/// The per-layer name that holds an end-to-end metric's tracing
/// overhead.
pub fn overhead_name(metric: &str) -> &'static str {
    match metric {
        "setup_s" => "trace.overhead_setup_s",
        "queries_per_s" => "trace.overhead_queries_per_s",
        "query_p50_ms" => "trace.overhead_query_p50_ms",
        "query_p99_ms" => "trace.overhead_query_p99_ms",
        _ => unreachable!("every end-to-end metric has an overhead slot"),
    }
}

/// Orders `values` as [`PER_LAYER`] and prints each metric with its
/// tag.
///
/// # Errors
///
/// Fails when a metric of the table was not measured or a value is not
/// in the table.
pub fn table(
    values: &BTreeMap<&'static str, f64>,
    workload: &str,
) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
    if let Some(unknown) = values
        .keys()
        .find(|k| !PER_LAYER.iter().any(|(n, _, _)| n == *k))
    {
        return Err(format!("per-layer metric {unknown} is not in the table"));
    }
    PER_LAYER
        .iter()
        .map(|&(name, unit, moves)| {
            let value = *values
                .get(name)
                .ok_or_else(|| format!("per-layer metric {name} was not measured"))?;
            println!("layer {workload} {name} {value} {unit} moves {moves}");
            Ok((name, value, unit))
        })
        .collect()
}

/// Where a probed circuit comes from.
pub enum Source {
    /// A `.bench` file of `data/`.
    Data(&'static str),
    /// A generator preset.
    Preset(&'static str),
}

/// Times `f` once, in seconds.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Monte Carlo is probed on circuits below this many gates only (a
/// 100k-gate sampling pass would dominate the traced run).
const MC_MAX_GATES: usize = 50_000;
/// Operand pairs of the max-kernel probes.
const MAX_OPERANDS: usize = 20_000;

/// Calls each layer's public functions directly on the workload's
/// circuits and adds the timings and counts to `values`. Criticality,
/// the sizers and the service are probed only when the workload's own
/// traffic did not already measure them.
///
/// # Errors
///
/// Fails when a `data/` file is missing or unparsable.
#[allow(clippy::too_many_lines, clippy::cast_precision_loss)]
pub fn probe(
    ctx: &Context,
    workload: &str,
    values: &mut BTreeMap<&'static str, f64>,
) -> Result<(), String> {
    let lib = &ctx.library;
    let config = SstaConfig::default().with_threads(ctx.threads);
    let mut rng = Rng::new(ctx.seed ^ 0x001A_7E25);
    let sources = circuits_of(workload);
    // A workload whose own traffic asks for criticality (analyze_large)
    // already measured the layer on its full-size circuits.
    let criticality_measured = values.contains_key("ssta.criticality_s");

    let mut sum = BTreeMap::<&'static str, f64>::new();
    let mut add = |name: &'static str, v: f64| *sum.entry(name).or_default() += v;
    let (mut refresh_ms, mut fork_us, mut branch_us, mut commit_us) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut largest: Option<Netlist> = None;
    for source in sources {
        let netlist = match source {
            Source::Data(name) => {
                let text = data_file(name)?;
                let (n, t) = timed(|| parse_bench(&text, name));
                add("netlist.parse_s", t);
                n.map_err(|e| format!("{name}: {e}"))?
            }
            Source::Preset(name) => {
                let (n, t) = timed(|| preset(name, lib));
                add("netlist.generate_s", t);
                let n = n.ok_or_else(|| format!("unknown preset {name}"))?;
                let text = write_bench(&n);
                let (parsed, t) = timed(|| parse_bench(&text, name));
                add("netlist.parse_s", t);
                parsed.map_err(|e| format!("{name}: {e}"))?;
                n
            }
        };
        add(
            "netlist.levelize_s",
            timed(|| black_box(netlist.levels())).1,
        );
        add(
            "ssta.electrical_s",
            timed(|| CircuitTiming::compute(&netlist, lib, &config)).1,
        );
        add(
            "ssta.dsta_pass_s",
            timed(|| Dsta::new(lib, &config).analyze(&netlist)).1,
        );
        add(
            "ssta.fassta_pass_s",
            timed(|| Fassta::new(lib, &config).analyze(&netlist)).1,
        );
        add(
            "ssta.fullssta_pass_s",
            timed(|| FullSsta::new(lib, &config).analyze(&netlist)).1,
        );
        if netlist.gate_count() < MC_MAX_GATES {
            let ws = vartol::WorkspaceConfig::default();
            let timer = MonteCarloTimer::new(lib, &config)
                .with_samples(ws.mc_samples)
                .with_seed(ws.mc_seed);
            add("ssta.mc_pass_s", timed(|| timer.analyze(&netlist)).1);
        }

        let (mut session, t) =
            timed(|| TimingSession::new(Arc::clone(lib), config.clone(), netlist.clone()));
        add("ssta.session_build_s", t);
        let gates = sizable_gates(&netlist, lib);
        for _ in 0..2 {
            let (gate, sizes) = &gates[rng.below(gates.len())];
            let id = netlist.gate_by_name(gate).expect("listed gate");
            let before = session.recompute_count();
            session.resize(
                id,
                (netlist.gate(id).size().unwrap_or(0) + 1 + rng.below(sizes - 1)) % sizes,
            );
            let (_, t) = timed(|| session.refresh());
            refresh_ms.push(t * 1e3);
            add(
                "ssta.refresh_nodes",
                (session.recompute_count() - before) as f64,
            );
        }
        if !criticality_measured {
            let (_, t) =
                timed(|| Criticality::compute(session.netlist(), lib, &config, session.arrivals()));
            add("ssta.criticality_s", t);
            add("ssta.criticality_outputs", netlist.outputs().len() as f64);
        }

        let (mut branch, t) = timed(|| session.fork());
        fork_us.push(t * 1e6);
        let (gate, sizes) = &gates[rng.below(gates.len())];
        let id = netlist.gate_by_name(gate).expect("listed gate");
        branch.resize(
            id,
            (branch.netlist().gate(id).size().unwrap_or(0) + 1) % sizes,
        );
        let (_, t) = timed(|| branch.refresh());
        branch_us.push(t * 1e6);
        add("branch.refresh_nodes", branch.recompute_count() as f64);
        let (committed, t) = timed(|| session.commit(branch));
        committed.map_err(|e| format!("commit: {e}"))?;
        commit_us.push(t * 1e6);

        if largest
            .as_ref()
            .is_none_or(|l| l.node_count() < netlist.node_count())
        {
            values.insert("pool.maps_per_pass", session.propagation_levels() as f64);
            largest = Some(netlist);
        }
    }
    values.extend(sum);
    values.insert("ssta.refresh_ms", median(&refresh_ms));
    values.insert("branch.fork_us", median(&fork_us));
    values.insert("branch.refresh_us", median(&branch_us));
    values.insert("branch.commit_us", median(&commit_us));

    // Width scaling of one FULLSSTA pass on the largest circuit: width 1
    // over width nproc (below 1 means it does not scale).
    let largest = largest.expect("every workload has circuits");
    let one = SstaConfig::default().with_threads(1);
    let pass = |c: &SstaConfig| timed(|| FullSsta::new(lib, c).analyze(&largest)).1;
    values.insert("ssta.fullssta_width_speedup", pass(&one) / pass(&config));

    // One ScopedPool::map of `threads` trivial tasks: the fixed cost each
    // parallel level pays.
    let pool = ScopedPool::new(ctx.threads);
    let maps: Vec<f64> = (0..200)
        .map(|_| timed(|| black_box(pool.map(ctx.threads, black_box))).1 * 1e6)
        .collect();
    values.insert("pool.map_us", median(&maps));

    // The max kernels over a fixed, seeded operand set.
    let operands: Vec<(Moments, Moments)> = (0..MAX_OPERANDS)
        .map(|_| {
            let m = |r: &mut Rng| {
                Moments::from_mean_std(100.0 + 50.0 * r.unit(), 1.0 + 10.0 * r.unit())
            };
            (m(&mut rng), m(&mut rng))
        })
        .collect();
    let per_op = |f: &dyn Fn(Moments, Moments) -> f64| {
        let runs: Vec<f64> = (0..5)
            .map(|_| {
                let (_, t) = timed(|| {
                    operands
                        .iter()
                        .map(|&(a, b)| f(black_box(a), black_box(b)))
                        .sum::<f64>()
                });
                t * 1e9 / MAX_OPERANDS as f64
            })
            .collect();
        median(&runs)
    };
    values.insert(
        "stats.clark_max_ns",
        per_op(&|a, b| clark_max(a, b).max.mean),
    );
    values.insert(
        "stats.fast_max_ns",
        per_op(&|a, b| fast_max_moments(a, b).mean),
    );

    if !values.contains_key("core.greedy_s") {
        probe_sizers(ctx, values)?;
    }
    if !values.contains_key("serve.call_hit_ms") {
        probe_service(ctx, workload, values)?;
    }
    Ok(())
}

/// The circuit the sizer probe optimizes on workloads that send no
/// `Size` job.
const SIZER_PROBE: &str = "mult_8";

/// Runs each optimizer once, directly, on a fresh [`SIZER_PROBE`] with
/// the settings `Workspace` uses for a `Size` request.
#[allow(clippy::cast_precision_loss)]
fn probe_sizers(ctx: &Context, values: &mut BTreeMap<&'static str, f64>) -> Result<(), String> {
    let lib = &ctx.library;
    let base = preset(SIZER_PROBE, lib).ok_or("unknown sizer probe preset")?;
    let sizer = SizerConfig::with_alpha(3.0).with_threads(ctx.threads);
    let objective = Objective::Statistical { alpha: sizer.alpha };

    let mut n = base.clone();
    let (report, t) =
        timed(|| StatisticalGreedy::new(Arc::clone(lib), sizer.clone()).optimize_clocked(&mut n));
    values.insert("core.greedy_s", t);
    values.insert("core.greedy_passes", report.passes().len() as f64);
    let resized: usize = report.passes().iter().map(|p| p.resized).sum();
    values.insert("core.greedy_resized", resized as f64);
    let mut noop = usize::from(n.sizes() == base.sizes());

    let lagrangian = LagrangianSizer::new(
        Arc::clone(lib),
        LagrangianConfig {
            objective,
            max_iters: sizer.max_passes,
            subcircuit_depth: sizer.subcircuit_depth,
            ssta: sizer.ssta.clone(),
            ..LagrangianConfig::default()
        },
    );
    let mut n = base.clone();
    values.insert(
        "optimize.lagrangian_s",
        timed(|| lagrangian.size_clocked(&mut n)).1,
    );
    noop += usize::from(n.sizes() == base.sizes());

    let annealing = AnnealingSizer::new(
        Arc::clone(lib),
        AnnealingConfig {
            objective,
            ssta: sizer.ssta.clone(),
            ..AnnealingConfig::default()
        },
    );
    let mut n = base.clone();
    values.insert(
        "optimize.annealing_s",
        timed(|| annealing.size_clocked(&mut n)).1,
    );
    noop += usize::from(n.sizes() == base.sizes());
    values.insert("optimize.noop_jobs", noop as f64);
    Ok(())
}

/// Registers the workload's circuits in a 1-shard service and sends each
/// an `Analyze FullSsta` twice — a cache miss, then a hit — through the
/// wire codec.
#[allow(clippy::cast_precision_loss)]
fn probe_service(
    ctx: &Context,
    workload: &str,
    values: &mut BTreeMap<&'static str, f64>,
) -> Result<(), String> {
    let workspace = vartol::WorkspaceConfig::default()
        .with_threads(ctx.threads)
        .with_ssta(SstaConfig::default().with_threads(ctx.threads));
    let service = Service::new(
        Arc::clone(&ctx.library),
        ServeConfig::default()
            .with_shards(1)
            .with_workspace(workspace),
    );
    let (mut decode, mut encode, mut miss, mut hit) = (vec![], vec![], vec![], vec![]);
    for source in circuits_of(workload) {
        let (name, register) = match source {
            Source::Data(name) => (
                name,
                ServeRequest::Register {
                    circuit: name.to_owned(),
                    preset: None,
                    bench: Some(data_file(name)?),
                },
            ),
            Source::Preset(name) => (
                name,
                ServeRequest::Register {
                    circuit: name.to_owned(),
                    preset: Some(name.to_owned()),
                    bench: None,
                },
            ),
        };
        service.call(register);
        for calls in [&mut miss, &mut hit] {
            let line = ServeRequest::Analyze {
                circuit: name.to_owned(),
                kind: EngineKind::FullSsta,
            }
            .to_line();
            let (request, t) = timed(|| ServeRequest::from_line(&line));
            decode.push(t * 1e6);
            let (frames, t) = timed(|| service.call(request.expect("own line decodes")));
            calls.push(t * 1e3);
            for frame in frames {
                encode.push(timed(|| frame.to_line()).1 * 1e6);
            }
        }
    }
    let stats = service.stats();
    values.insert("serve.decode_us", median(&decode));
    values.insert("serve.encode_us", median(&encode));
    values.insert("serve.call_miss_ms", median(&miss));
    values.insert("serve.call_hit_ms", median(&hit));
    values.insert("serve.cache_hit_ratio", stats.hit_rate());
    let served: u64 = stats.shards.iter().map(|r| r.served).sum();
    values.insert("serve.requests_per_shard", served as f64);
    Ok(())
}

fn circuits_of(workload: &str) -> Vec<Source> {
    match workload {
        "size_flow" => crate::size_flow::circuits(),
        "analyze_large" => crate::analyze_large::circuits(),
        _ => crate::serve_mixed::circuits(),
    }
}

/// Writes every span as one JSON line (times in µs since the run's
/// origin, with self time) and returns the file's path.
///
/// # Errors
///
/// Fails when the directory or file cannot be written.
pub fn write_spans(
    dir: &std::path::Path,
    workload: &str,
    seed: u64,
    spans: &[Span],
) -> Result<String, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("{workload}-seed{seed}.jsonl"));
    let mut out = String::new();
    for (s, self_time) in spans.iter().zip(measure::self_times(spans)) {
        let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"name\": \"{}\", \"request\": {}, \"parent\": {parent}, \"start_us\": {}, \"end_us\": {}, \"self_us\": {}}}",
            s.name,
            s.request,
            s.start.as_micros(),
            s.end.as_micros(),
            self_time.as_micros()
        );
    }
    std::fs::write(&path, out).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path.display().to_string())
}
