//! `serve_mixed`: the `vartol-serve` front door. An in-process `Service`
//! with 2 shards (each shard's workspace at pool width 1) and one
//! closed-loop client thread that alternates between two per-shard
//! scripts. Each script touches exactly the circuits `shard_of` routes to
//! its shard, and the client blocks while a shard computes, so one thread
//! is runnable at a time. Every request goes `to_line` → `from_line` →
//! `Service::call` → `Frame::to_line`.

use std::sync::Arc;
use std::time::Instant;

use vartol::netlist::generators::preset;
use vartol::netlist::iscas::parse_bench;
use vartol::netlist::Netlist;
use vartol::ssta::{EngineKind, Fnv64, SstaConfig};
use vartol::WorkspaceConfig;
use vartol_serve::protocol::deterministic_part;
use vartol_serve::{shard_of, Frame, ServeConfig, ServeRequest, ServeResponse, Service};

use crate::layers::Source;
use crate::measure::{median, Rng, Tracer};
use crate::{data_file, sizable_gates, Context, Outcome};

const SHARDS: usize = 2;
/// Requests the client sends per second of `--seconds` (about what the
/// reference 2-CPU machine completes), split evenly between the shards'
/// scripts.
const REQUESTS_PER_S: f64 = 600.0;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 31;
/// Requests per block of `queries_per_s` (about a second of the run).
const BLOCK: usize = 600;

const DATA: [&str; 4] = ["c17", "s344_like", "s386_like", "s1196_like"];
const PRESETS: [&str; 6] = [
    "mult_12", "alu_16", "ecc_32", "dag_400", "mult_8", "adder_32",
];

/// The workload's circuits, for the traced run's layer probes.
pub fn circuits() -> Vec<Source> {
    DATA.iter()
        .map(|&c| Source::Data(c))
        .chain(PRESETS.iter().map(|&c| Source::Preset(c)))
        .collect()
}

/// One registered circuit: its wire registration and local netlist (for
/// picking gate names and sizes).
struct Circuit {
    register: ServeRequest,
    netlist: Netlist,
    gates: Vec<(String, usize)>,
}

fn load(ctx: &Context) -> Result<Vec<Circuit>, String> {
    let mut out = Vec::new();
    for name in DATA {
        let text = data_file(name)?;
        let netlist = parse_bench(&text, name).map_err(|e| format!("{name}: {e}"))?;
        out.push((name, None, Some(text), netlist));
    }
    for name in PRESETS {
        let netlist = preset(name, &ctx.library).ok_or_else(|| format!("unknown preset {name}"))?;
        out.push((name, Some(name.to_owned()), None, netlist));
    }
    Ok(out
        .into_iter()
        .map(|(name, preset, bench, netlist)| Circuit {
            register: ServeRequest::Register {
                circuit: name.to_owned(),
                preset,
                bench,
            },
            gates: sizable_gates(&netlist, &ctx.library),
            netlist,
        })
        .collect())
}

fn circuit_name(c: &Circuit) -> &str {
    c.register.circuit().expect("registrations name a circuit")
}

/// One shard's seeded script over the circuits it owns:
/// ~45% `Analyze`, ~10% `Slack`/`Criticality`/`Arrival`, ~15% `Resize`,
/// ~20% `WhatIf` (4 trials × 2 resizes), ~10% branch transactions
/// (`Fork` → `BranchResize` → `BranchAnalyze` → `Commit`).
fn script(owned: &[&Circuit], seed: u64, requests: usize) -> Vec<ServeRequest> {
    let mut rng = Rng::new(seed);
    let mut out = Vec::with_capacity(requests + 4);
    let mut branches = 0usize;
    let pick = |rng: &mut Rng, c: &Circuit| {
        let (gate, sizes) = &c.gates[rng.below(c.gates.len())];
        (gate.clone(), rng.below(*sizes))
    };
    while out.len() < requests {
        let c = owned[rng.below(owned.len())];
        let circuit = circuit_name(c).to_owned();
        let roll = rng.unit();
        if roll < 0.45 {
            let kind = [EngineKind::Dsta, EngineKind::Fassta, EngineKind::FullSsta][rng.below(3)];
            out.push(ServeRequest::Analyze { circuit, kind });
        } else if roll < 0.55 {
            out.push(match rng.below(3) {
                0 => ServeRequest::Slack {
                    circuit,
                    t_req: 500.0,
                    alpha: 3.0,
                },
                1 => ServeRequest::Criticality { circuit, top: 10 },
                _ => {
                    let n = &c.netlist;
                    let node = n
                        .gate(n.outputs()[rng.below(n.outputs().len())])
                        .name()
                        .to_owned();
                    ServeRequest::Arrival { circuit, node }
                }
            });
        } else if roll < 0.70 {
            let (gate, size) = pick(&mut rng, c);
            out.push(ServeRequest::Resize {
                circuit,
                gate,
                size,
            });
        } else if roll < 0.90 {
            let trials = (0..4)
                .map(|_| (0..2).map(|_| pick(&mut rng, c)).collect())
                .collect();
            out.push(ServeRequest::WhatIf { circuit, trials });
        } else {
            branches += 1;
            let branch = format!("b{branches}");
            let (gate, size) = pick(&mut rng, c);
            out.push(ServeRequest::Fork {
                circuit: circuit.clone(),
                branch: branch.clone(),
            });
            out.push(ServeRequest::BranchResize {
                circuit: circuit.clone(),
                branch: branch.clone(),
                gate,
                size,
            });
            out.push(ServeRequest::BranchAnalyze {
                circuit: circuit.clone(),
                branch: branch.clone(),
            });
            out.push(ServeRequest::Commit { circuit, branch });
        }
    }
    out
}

fn service(ctx: &Context, shards: usize) -> Service {
    let workspace = WorkspaceConfig::default()
        .with_threads(1)
        .with_ssta(SstaConfig::default().with_threads(1));
    let config = ServeConfig::default()
        .with_shards(shards)
        .with_workspace(workspace);
    Service::new(Arc::clone(&ctx.library), config)
}

fn register(service: &Service, circuits: &[&Circuit], tracer: &mut Tracer) -> Result<(), String> {
    for c in circuits {
        let frames = tracer.span("workspace.register", |_| service.call(c.register.clone()));
        for frame in frames {
            if !matches!(frame.payload, ServeResponse::Registered { .. }) {
                return Err(format!("register {}: {:?}", circuit_name(c), frame.payload));
            }
        }
    }
    Ok(())
}

/// Whether a payload is a failure: an error, a `Busy` rejection, or a
/// what-if batch with a failed trial.
fn is_failure(payload: &ServeResponse) -> bool {
    match payload {
        ServeResponse::Error { .. } | ServeResponse::Busy { .. } => true,
        ServeResponse::WhatIf { outcomes } => outcomes.iter().any(is_failure),
        _ => false,
    }
}

/// The wire verb of a request, for per-verb report lines.
fn verb(request: &ServeRequest) -> &'static str {
    match request {
        ServeRequest::Analyze { .. } => "analyze",
        ServeRequest::Slack { .. } => "slack",
        ServeRequest::Criticality { .. } => "criticality",
        ServeRequest::Arrival { .. } => "arrival",
        ServeRequest::Resize { .. } => "resize",
        ServeRequest::WhatIf { .. } => "whatif",
        ServeRequest::Fork { .. } => "fork",
        ServeRequest::BranchResize { .. } => "branch_resize",
        ServeRequest::BranchAnalyze { .. } => "branch_analyze",
        ServeRequest::Commit { .. } => "commit",
        _ => "other",
    }
}

/// What the client saw, per shard script.
struct ClientRun {
    /// Latency of every request, in the order they were sent.
    sent: Vec<f64>,
    /// Latency of every request, by shard script, in script order.
    latencies: Vec<Vec<f64>>,
    failed: u64,
    /// Digest of each shard script's frames.
    digests: Vec<u64>,
    tracer: Tracer,
}

/// Sends the shards' scripts in turn, one request of each per step:
/// encode, decode, call, encode every frame, and fold the frames'
/// deterministic bytes into the script's digest.
fn drive(service: &Service, scripts: &[Vec<ServeRequest>], mut tracer: Tracer) -> ClientRun {
    let mut latencies: Vec<Vec<f64>> = scripts
        .iter()
        .map(|s| Vec::with_capacity(s.len()))
        .collect();
    let mut sent = Vec::with_capacity(scripts.iter().map(Vec::len).sum());
    let mut failed = 0;
    let mut digests: Vec<Fnv64> = scripts.iter().map(|_| Fnv64::new()).collect();
    let steps = scripts.iter().map(Vec::len).max().unwrap_or(0);
    for i in 0..steps {
        for (k, script) in scripts.iter().enumerate() {
            let Some(request) = script.get(i) else {
                continue;
            };
            tracer.next_request();
            let start = Instant::now();
            tracer.span("client.request", |t| {
                let line = t.span("serve.request_to_line", |_| request.to_line());
                let decoded = t
                    .span("serve.decode", |_| ServeRequest::from_line(&line))
                    .expect("the client's own lines decode");
                let frames: Vec<Frame> = t.span("serve.call", |_| service.call(decoded));
                for frame in frames {
                    let text = t.span("serve.encode", |_| frame.to_line());
                    digests[k].write(deterministic_part(&text).as_bytes());
                    if is_failure(&frame.payload) {
                        eprintln!("failed: {} -> {text}", request.to_line());
                        failed += 1;
                    }
                }
            });
            let latency = start.elapsed().as_secs_f64();
            latencies[k].push(latency);
            sent.push(latency);
        }
    }
    ClientRun {
        sent,
        latencies,
        failed,
        digests: digests.into_iter().map(Fnv64::finish).collect(),
        tracer,
    }
}

/// A 1-shard replay: digest, cache hits, cache misses, and which requests
/// hit the cache.
type Replay = (u64, u64, u64, Vec<bool>);

/// Replays one client's script through a fresh 1-shard service.
fn replay_alone(
    ctx: &Context,
    owned: &[&Circuit],
    script: &[ServeRequest],
) -> Result<Replay, String> {
    let service = service(ctx, 1);
    register(&service, owned, &mut Tracer::new(false))?;
    let mut digest = Fnv64::new();
    let mut hits = service.stats().hits();
    let mut hit = Vec::with_capacity(script.len());
    for request in script {
        let decoded = ServeRequest::from_line(&request.to_line())?;
        for frame in service.call(decoded) {
            digest.write(deterministic_part(&frame.to_line()).as_bytes());
        }
        let now = service.stats().hits();
        hit.push(now > hits);
        hits = now;
    }
    let stats = service.stats();
    Ok((digest.finish(), stats.hits(), stats.misses(), hit))
}

#[allow(clippy::too_many_lines, clippy::cast_precision_loss)]
pub fn run(ctx: &Context, mut tracer: Tracer) -> Result<Outcome, String> {
    let circuits = load(ctx)?;
    let owned: Vec<Vec<&Circuit>> = (0..SHARDS)
        .map(|k| {
            circuits
                .iter()
                .filter(|c| shard_of(circuit_name(c), SHARDS) == k)
                .collect()
        })
        .collect();
    if owned.iter().any(Vec::is_empty) {
        return Err("a shard owns no circuit".into());
    }
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let per_shard = (REQUESTS_PER_S * ctx.seconds / SHARDS as f64).round() as usize;
    let scripts: Vec<Vec<ServeRequest>> = owned
        .iter()
        .enumerate()
        .map(|(k, o)| {
            script(
                o,
                ctx.seed.wrapping_mul(SHARDS as u64).wrapping_add(k as u64),
                per_shard,
            )
        })
        .collect();

    let runs = ctx.setups(SETUPS);
    let mut setups = Vec::with_capacity(runs);
    let mut svc = None;
    for i in 0..runs {
        drop(svc.take());
        let mut quiet = Tracer::new(false);
        let t = if i + 1 == runs {
            &mut tracer
        } else {
            &mut quiet
        };
        let start = Instant::now();
        let s = service(ctx, SHARDS);
        let all: Vec<&Circuit> = circuits.iter().collect();
        register(&s, &all, t)?;
        setups.push(start.elapsed().as_secs_f64());
        svc = Some(s);
    }
    let service = svc.expect("at least one set-up");
    let before = service.stats();

    // Timed phase: one closed-loop client.
    let enabled = tracer.enabled();
    let started = Instant::now();
    let run = drive(&service, &scripts, Tracer::new(enabled));
    let timed_s = started.elapsed().as_secs_f64();
    let after = service.stats();
    drop(service);

    // Checks, outside the timed phase: each shard script's digest equals
    // a replay of that script through a 1-shard service, and so do its
    // shard's cache counters.
    let replays: Vec<Result<Replay, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = owned
            .iter()
            .zip(&scripts)
            .map(|(o, s)| scope.spawn(move || replay_alone(ctx, o, s)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("replay thread"))
            .collect()
    });
    let mut correct = true;
    let mut report = Vec::new();
    let mut hit_ms = Vec::new();
    let mut miss_ms = Vec::new();
    // The client's `serve.call` spans, in the order it sent the requests.
    let calls = run.tracer.durations("serve.call");
    let mut calls_by_shard: Vec<Vec<f64>> = vec![Vec::new(); SHARDS];
    if enabled {
        let steps = scripts.iter().map(Vec::len).max().unwrap_or(0);
        let mut next = calls.iter();
        for i in 0..steps {
            for (k, script) in scripts.iter().enumerate() {
                if i < script.len() {
                    calls_by_shard[k].push(*next.next().expect("one call span per request"));
                }
            }
        }
    }
    for (k, replay) in replays.into_iter().enumerate() {
        let (digest, hits, misses, hit) = replay?;
        let row = after
            .shards
            .iter()
            .find(|r| r.shard == k)
            .expect("shard row");
        let row0 = before
            .shards
            .iter()
            .find(|r| r.shard == k)
            .expect("shard row");
        let (shard_hits, shard_misses) = (
            row.cache_hits - row0.cache_hits,
            row.cache_misses - row0.cache_misses,
        );
        if digest != run.digests[k] {
            eprintln!(
                "check failed: shard {k} script digest {:016x} vs 1-shard replay {digest:016x}",
                run.digests[k]
            );
            correct = false;
        }
        if (shard_hits, shard_misses) != (hits, misses) {
            eprintln!("check failed: shard {k} hits/misses {shard_hits}/{shard_misses} vs replay {hits}/{misses}");
            correct = false;
        }
        report.push((
            format!("shard{k}.client_busy_s"),
            run.latencies[k].iter().sum(),
            "s",
        ));
        let mut per_verb = std::collections::BTreeMap::<&str, (f64, f64)>::new();
        for (request, t) in scripts[k].iter().zip(&run.latencies[k]) {
            let e = per_verb.entry(verb(request)).or_default();
            e.0 += 1.0;
            e.1 += t;
        }
        for (v, (n, t)) in per_verb {
            report.push((format!("shard{k}.{v}.requests"), n, "count"));
            report.push((format!("shard{k}.{v}.busy_s"), t, "s"));
        }
        report.push((
            format!("shard{k}.requests"),
            (row.served - row0.served) as f64,
            "count",
        ));
        report.push((format!("shard{k}.cache_hits"), shard_hits as f64, "count"));
        report.push((
            format!("shard{k}.cache_misses"),
            shard_misses as f64,
            "count",
        ));
        report.push((
            format!("shard{k}.busy"),
            (row.busy_rejections - row0.busy_rejections) as f64,
            "count",
        ));
        for ((request, t), h) in scripts[k].iter().zip(&calls_by_shard[k]).zip(hit) {
            if h {
                hit_ms.push(t * 1e3);
            } else if request.cacheable() {
                miss_ms.push(t * 1e3);
            }
        }
    }

    let latencies = run.sent;
    let failed = run.failed;
    tracer.absorb(run.tracer);
    let hits = after.hits() - before.hits();
    let misses = after.misses() - before.misses();
    let served: u64 = after.shards.iter().map(|r| r.served).sum::<u64>()
        - before.shards.iter().map(|r| r.served).sum::<u64>();
    report.push(("cache_hit_base".to_owned(), (hits + misses) as f64, "count"));
    let layers = if enabled {
        [
            (
                "serve.decode_us",
                median(&tracer.durations("serve.decode")) * 1e6,
            ),
            (
                "serve.encode_us",
                median(&tracer.durations("serve.encode")) * 1e6,
            ),
            ("serve.call_hit_ms", median(&hit_ms)),
            ("serve.call_miss_ms", median(&miss_ms)),
            (
                "serve.cache_hit_ratio",
                hits as f64 / (hits + misses).max(1) as f64,
            ),
            ("serve.requests_per_shard", served as f64 / SHARDS as f64),
            (
                "workspace.register_s",
                tracer.durations("workspace.register").iter().sum(),
            ),
        ]
        .into_iter()
        .collect()
    } else {
        Default::default()
    };
    Ok(Outcome {
        correct,
        attempted: latencies.len() as u64,
        failed,
        setup_s: median(&setups),
        latencies,
        block: BLOCK,
        timed_s,
        report,
        layers,
        tracer,
    })
}
