//! `analyze_large`: timing sign-off on big designs. One caller sends
//! analyses, criticality, slack and a seeded ECO loop through
//! `Workspace::query` at pool width `nproc` on `dag_100k` and `mult_64`.

use std::sync::Arc;
use std::time::Instant;

use vartol::netlist::{GateId, Netlist};
use vartol::ssta::{EngineKind, SstaConfig};
use vartol::stats::Moments;
use vartol::{Answer, Request, Workspace, WorkspaceConfig};

use crate::layers::Source;
use crate::measure::{median, Rng, Tracer};
use crate::{sizable_gates, Context, Outcome};

/// Seconds one round takes on the reference 2-CPU machine (26–35 s as
/// the host's speed drifts).
const NOMINAL_ROUND_S: f64 = 32.0;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
const CIRCUITS: [&str; 2] = ["dag_100k", "mult_64"];
/// ECO steps per round, by circuit: each is one seeded single-gate
/// `Resize` followed by `Analyze FullSsta`.
const ECO: [&str; 6] = [
    "dag_100k", "mult_64", "dag_100k", "mult_64", "dag_100k", "dag_100k",
];
/// Relative tolerance on FULLSSTA vs Monte Carlo μ (the repository's
/// engine-equivalence tests use the same bound).
const MC_MEAN_TOLERANCE: f64 = 0.05;

/// The workload's circuits, for the traced run's layer probes.
pub fn circuits() -> Vec<Source> {
    CIRCUITS.iter().map(|&c| Source::Preset(c)).collect()
}

/// What a request is for, so each class is timed and checked apart.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Class {
    Analyze,
    Slack,
    Criticality,
    Resize,
    EcoAnalyze,
}

/// An ECO gate's fanout cone must cover at least this share of the
/// circuit's nodes: every step is then a large incremental refresh, and
/// no seed draws a near-free one (which would move the median request).
const ECO_MIN_CONE: f64 = 0.5;
/// Candidates tried per ECO step before taking the largest cone seen.
const ECO_TRIES: usize = 64;

/// Nodes in the fanout cone of `id` (itself included).
fn cone_size(netlist: &Netlist, id: GateId) -> usize {
    let mut seen = vec![false; netlist.node_count()];
    let mut stack = vec![id];
    seen[id.index()] = true;
    let mut count = 0;
    while let Some(g) = stack.pop() {
        count += 1;
        for &f in netlist.gate(g).fanouts() {
            if !std::mem::replace(&mut seen[f.index()], true) {
                stack.push(f);
            }
        }
    }
    count
}

/// A seeded ECO gate of `netlist` with a fanout cone of at least
/// [`ECO_MIN_CONE`] of its nodes (or the largest of [`ECO_TRIES`]).
fn eco_gate<'a>(
    rng: &mut Rng,
    netlist: &Netlist,
    gates: &'a [(String, usize)],
) -> &'a (String, usize) {
    #[allow(clippy::cast_precision_loss)]
    let want = netlist.node_count() as f64 * ECO_MIN_CONE;
    let mut best = (0, &gates[0]);
    for _ in 0..ECO_TRIES {
        let g = &gates[rng.below(gates.len())];
        let cone = cone_size(netlist, netlist.gate_by_name(&g.0).expect("listed gate"));
        #[allow(clippy::cast_precision_loss)]
        if cone as f64 >= want {
            return g;
        }
        best = best.max((cone, g));
    }
    best.1
}

fn script(ctx: &Context, netlists: &[Netlist]) -> Vec<(Class, Request)> {
    let mut rng = Rng::new(ctx.seed);
    let gates: Vec<Vec<(String, usize)>> = netlists
        .iter()
        .map(|n| sizable_gates(n, &ctx.library))
        .collect();
    let mut current = std::collections::BTreeMap::new();
    let mut out = Vec::new();
    for _ in 0..ctx.rounds(NOMINAL_ROUND_S) {
        for c in CIRCUITS {
            let circuit = || c.to_owned();
            let mut kinds = vec![EngineKind::Dsta, EngineKind::Fassta, EngineKind::FullSsta];
            if c == "mult_64" {
                kinds.push(EngineKind::MonteCarlo);
            }
            for kind in kinds {
                out.push((
                    Class::Analyze,
                    Request::Analyze {
                        circuit: circuit(),
                        kind,
                    },
                ));
            }
            out.push((
                Class::Slack,
                Request::Slack {
                    circuit: circuit(),
                    t_req: 1000.0,
                    alpha: 3.0,
                },
            ));
            out.push((
                Class::Criticality,
                Request::Criticality {
                    circuit: circuit(),
                    top: 10,
                },
            ));
        }
        for c in ECO {
            let i = CIRCUITS
                .iter()
                .position(|&x| x == c)
                .expect("known circuit");
            let (gate, sizes) = eco_gate(&mut rng, &netlists[i], &gates[i]);
            // Always a real change: a no-op resize would be a near-free
            // request.
            let id = netlists[i].gate_by_name(gate).expect("listed gate");
            let now = current
                .entry((i, gate.clone()))
                .or_insert_with(|| netlists[i].gate(id).size().unwrap_or(0));
            *now = (*now + 1 + rng.below(sizes - 1)) % sizes;
            out.push((
                Class::Resize,
                Request::Resize {
                    circuit: c.to_owned(),
                    gate: gate.clone(),
                    size: *now,
                },
            ));
            out.push((
                Class::EcoAnalyze,
                Request::Analyze {
                    circuit: c.to_owned(),
                    kind: EngineKind::FullSsta,
                },
            ));
        }
    }
    out
}

fn setup(ctx: &Context, tracer: &mut Tracer) -> Result<Workspace, String> {
    let config = WorkspaceConfig::default()
        .with_threads(ctx.threads)
        .with_ssta(SstaConfig::default().with_threads(ctx.threads));
    let mut ws = Workspace::new(Arc::clone(&ctx.library), config);
    for c in CIRCUITS {
        tracer
            .span("workspace.register", |_| ws.register_preset(c))
            .map_err(|e| e.to_string())?;
    }
    Ok(ws)
}

fn span_name(class: Class) -> &'static str {
    match class {
        Class::Analyze | Class::EcoAnalyze => "workspace.analyze",
        Class::Slack => "workspace.slack",
        Class::Criticality => "workspace.criticality",
        Class::Resize => "workspace.resize",
    }
}

#[allow(clippy::too_many_lines)]
pub fn run(ctx: &Context, mut tracer: Tracer) -> Result<Outcome, String> {
    let runs = ctx.setups(SETUPS);
    let mut setups = Vec::with_capacity(runs);
    let mut ws = None;
    for i in 0..runs {
        // Drop the previous workspace first: two 100k-gate sessions at
        // once would only cost memory.
        drop(ws.take());
        let mut quiet = Tracer::new(false);
        let t = if i + 1 == runs {
            &mut tracer
        } else {
            &mut quiet
        };
        let start = Instant::now();
        ws = Some(setup(ctx, t)?);
        setups.push(start.elapsed().as_secs_f64());
    }
    let mut ws = ws.expect("at least one set-up");
    let originals: Vec<Netlist> = CIRCUITS
        .iter()
        .map(|c| ws.netlist(c).expect("registered").clone())
        .collect();
    let script = script(ctx, &originals);

    // Timed phase.
    let mut latencies = Vec::with_capacity(script.len());
    let mut answers = Vec::with_capacity(script.len());
    let mut failed = 0;
    let started = Instant::now();
    for (class, request) in &script {
        tracer.next_request();
        let t = Instant::now();
        let response = tracer.span(span_name(*class), |_| ws.query(request.clone()));
        latencies.push(t.elapsed().as_secs_f64());
        if let Answer::Error { code, message } = &response.answer {
            eprintln!("{request:?}: {code} {message}");
            failed += 1;
        }
        answers.push(response.answer);
    }
    let timed_s = started.elapsed().as_secs_f64();

    // Checks, outside the timed phase.
    let mut correct = true;
    let mut fail = |what: String| {
        eprintln!("check failed: {what}");
        correct = false;
    };
    let width_one = SstaConfig::default().with_threads(1);
    let mut first_round = true;
    let mut mc_mean = None;
    let mut full_mean = None;
    for ((class, request), answer) in script.iter().zip(&answers) {
        let (Request::Analyze { circuit, kind }, Answer::Analysis { moments, .. }) =
            (request, answer)
        else {
            continue;
        };
        let i = CIRCUITS
            .iter()
            .position(|c| c == circuit)
            .expect("known circuit");
        match (class, kind) {
            // The pre-ECO analyses of the first round, at width 1.
            (Class::Analyze, EngineKind::MonteCarlo) if first_round => mc_mean = Some(moments.mean),
            (Class::Analyze, kind) if first_round => {
                let again: Moments = kind
                    .engine(&ctx.library, &width_one)
                    .analyze(&originals[i])
                    .circuit_moments();
                if again != *moments {
                    fail(format!(
                        "{circuit} {kind:?} width {} {moments:?} vs width 1 {again:?}",
                        ctx.threads
                    ));
                }
                if circuit == "mult_64" && *kind == EngineKind::FullSsta {
                    full_mean = Some(moments.mean);
                }
            }
            (Class::EcoAnalyze, _) => first_round = false,
            _ => {}
        }
    }
    match (mc_mean, full_mean) {
        (Some(mc), Some(full)) if ((full - mc) / mc).abs() <= MC_MEAN_TOLERANCE => {}
        other => fail(format!("mult_64 FULLSSTA vs Monte Carlo mean {other:?}")),
    }
    // After the ECO loop: the incrementally refreshed session equals a
    // from-scratch width-1 FULLSSTA pass over the final sizes.
    for (i, c) in CIRCUITS.iter().enumerate() {
        let last = script
            .iter()
            .zip(&answers)
            .rev()
            .find(|((class, r), _)| *class == Class::EcoAnalyze && r.circuit() == *c);
        if let Some((_, Answer::Analysis { moments, .. })) = last {
            let netlist = ws.netlist(c).expect("registered");
            let again = EngineKind::FullSsta
                .engine(&ctx.library, &width_one)
                .analyze(netlist)
                .circuit_moments();
            if again != *moments {
                fail(format!(
                    "{c} after ECO: session {moments:?} vs scratch {again:?}"
                ));
            }
            let changed = netlist.sizes() != originals[i].sizes();
            println!("{c}: ECO changed sizes: {changed}");
        }
    }

    // Front-door figures by request class: totals, and the median of
    // each verb (`workspace.<verb>_ms`).
    let of = |want: &[Class]| -> Vec<f64> {
        script
            .iter()
            .zip(&latencies)
            .filter(|((class, _), _)| want.contains(class))
            .map(|(_, t)| *t)
            .collect()
    };
    let total = |want: &[Class]| of(want).iter().sum::<f64>();
    let verb_ms = |want: &[Class]| median(&of(want)) * 1e3;
    let report = vec![
        ("analyze_s".to_owned(), total(&[Class::Analyze]), "s"),
        (
            "criticality_s".to_owned(),
            total(&[Class::Criticality]),
            "s",
        ),
        (
            "eco_s".to_owned(),
            total(&[Class::Resize, Class::EcoAnalyze]),
            "s",
        ),
        ("slack_s".to_owned(), total(&[Class::Slack]), "s"),
        (
            "workspace.analyze_ms".to_owned(),
            verb_ms(&[Class::Analyze, Class::EcoAnalyze]),
            "ms",
        ),
        (
            "workspace.slack_ms".to_owned(),
            verb_ms(&[Class::Slack]),
            "ms",
        ),
        (
            "workspace.criticality_ms".to_owned(),
            verb_ms(&[Class::Criticality]),
            "ms",
        ),
        (
            "workspace.resize_ms".to_owned(),
            verb_ms(&[Class::Resize]),
            "ms",
        ),
    ];
    #[allow(clippy::cast_precision_loss)]
    let layers = if tracer.enabled() {
        let register = tracer.durations("workspace.register").iter().sum();
        let outputs: usize = originals.iter().map(|n| n.outputs().len()).sum();
        [
            ("workspace.register_s", register),
            (
                "ssta.criticality_s",
                tracer.durations("workspace.criticality").iter().sum(),
            ),
            ("ssta.criticality_outputs", outputs as f64),
        ]
        .into_iter()
        .collect()
    } else {
        Default::default()
    };
    Ok(Outcome {
        correct,
        attempted: script.len() as u64,
        failed,
        setup_s: median(&setups),
        block: latencies.len(),
        latencies,
        timed_s,
        report,
        layers,
        tracer,
    })
}
