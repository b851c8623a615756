//! `vartol-perfbench`: end-to-end and per-layer benchmark of the vartol
//! sizing flow, large-design timing sign-off and the wire service.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload size_flow --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. See `README.md` next
//! to this package for the workloads and the metric map.

mod analyze_large;
mod layers;
mod measure;
mod serve_mixed;
mod size_flow;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use vartol::liberty::Library;
use vartol::netlist::Netlist;

use crate::measure::{median, percentile, Tracer};

/// Names of the workloads: `BENCHMARK.json` lists the first two;
/// `serve_mixed` runs by hand (see `README.md`).
const WORKLOADS: [&str; 3] = ["size_flow", "analyze_large", "serve_mixed"];

/// Command-line options (all four are required).
#[derive(Debug, Clone)]
pub struct Options {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("flag {flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                if !WORKLOADS.contains(&value.as_str()) {
                    return Err(format!("unknown workload {value} (one of {WORKLOADS:?})"));
                }
                workload = Some(value.clone());
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Options {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// Everything one replay of a workload measured.
#[derive(Debug)]
pub struct Outcome {
    /// Whether every output check passed.
    pub correct: bool,
    /// Front-door requests sent in the timed phase.
    pub attempted: u64,
    /// Of those, answered with an error or `Busy`.
    pub failed: u64,
    /// Median set-up time of the repeated set-ups (s).
    pub setup_s: f64,
    /// Latency of every timed request (s), in the order they were sent.
    pub latencies: Vec<f64>,
    /// Requests per block of `queries_per_s` (see [`Outcome::end_to_end`]).
    pub block: usize,
    /// Wall time of the timed phase (s).
    pub timed_s: f64,
    /// Workload-specific figures and exact counts, printed as
    /// `name value unit` lines before the result.
    pub report: Vec<(String, f64, &'static str)>,
    /// Per-layer metrics the front-door replay itself yields (traced
    /// runs only).
    pub layers: BTreeMap<&'static str, f64>,
    /// The replay's spans (empty when tracing is off).
    pub tracer: Tracer,
}

impl Outcome {
    /// The end-to-end metrics, in `BENCHMARK.json` order.
    /// `queries_per_s` is the median, over consecutive blocks of
    /// [`Outcome::block`] requests, of a block's requests ÷ the time its
    /// caller waited for them: a stretch of the run that a busy host
    /// slowed moves it less than it moves the run's mean rate.
    pub fn end_to_end(&self) -> Vec<(&'static str, f64, &'static str)> {
        let ms: Vec<f64> = self.latencies.iter().map(|s| s * 1e3).collect();
        vec![
            ("setup_s", self.setup_s, "s"),
            (
                "queries_per_s",
                block_rate(&self.latencies, self.block),
                "1/s",
            ),
            ("query_p50_ms", median(&ms), "ms"),
            ("query_p99_ms", percentile(&ms, 99.0), "ms"),
        ]
    }
}

/// Median over consecutive blocks of `block` latencies (a short last
/// block joins the one before it) of the block's length ÷ its summed
/// latency.
///
/// # Panics
///
/// Panics on an empty slice or `block == 0`.
pub fn block_rate(latencies: &[f64], block: usize) -> f64 {
    assert!(!latencies.is_empty() && block > 0, "rate of no requests");
    let blocks = (latencies.len() / block).max(1);
    let rates: Vec<f64> = (0..blocks)
        .map(|b| {
            let end = if b + 1 == blocks {
                latencies.len()
            } else {
                (b + 1) * block
            };
            let chunk = &latencies[b * block..end];
            #[allow(clippy::cast_precision_loss)]
            let n = chunk.len() as f64;
            n / chunk.iter().sum::<f64>()
        })
        .collect();
    median(&rates)
}

/// What every workload shares: the library, the machine's width, and
/// the generated inputs' seed.
pub struct Context {
    pub library: Arc<Library>,
    pub threads: usize,
    pub seed: u64,
    pub seconds: f64,
    /// Part of a traced run: both of its replays set up once, not
    /// several times, to keep the run short.
    pub traced: bool,
}

impl Context {
    /// How many set-ups a replay times (`setup_s` is their median).
    pub fn setups(&self, untraced: usize) -> usize {
        if self.traced {
            1
        } else {
            untraced
        }
    }

    /// How many times the script's nominal round fits `--seconds`
    /// (at least once): the run's work is fixed by its arguments, so
    /// every count repeats exactly for the same seed. A traced run
    /// replays one round, twice, to stay well inside its time limit.
    pub fn rounds(&self, nominal_round_s: f64) -> usize {
        if self.traced {
            return 1;
        }
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        {
            ((self.seconds / nominal_round_s).round() as usize).max(1)
        }
    }
}

/// Reads a `.bench` file of the repository's `data/` directory.
///
/// # Errors
///
/// Fails when the benchmark does not run from a checkout of the
/// repository.
pub fn data_file(name: &str) -> Result<String, String> {
    let path = format!("data/{name}.bench");
    std::fs::read_to_string(&path)
        .map_err(|e| format!("{path}: {e} (run from the repository root)"))
}

/// Gates of `netlist` that have at least two sizes: `(name, sizes)`.
pub fn sizable_gates(netlist: &Netlist, library: &Library) -> Vec<(String, usize)> {
    netlist
        .gate_ids()
        .filter_map(|id| {
            let g = netlist.gate(id);
            let group = library.group(g.function()?, g.fanins().len())?;
            (group.len() > 1).then(|| (g.name().to_owned(), group.len()))
        })
        .collect()
}

/// Runs one replay of the workload.
fn replay(ctx: &Context, workload: &str, tracer: Tracer) -> Result<Outcome, String> {
    match workload {
        "size_flow" => size_flow::run(ctx, tracer),
        "analyze_large" => analyze_large::run(ctx, tracer),
        "serve_mixed" => serve_mixed::run(ctx, tracer),
        _ => unreachable!("workload names are checked at parse time"),
    }
}

fn json_number(v: f64) -> String {
    assert!(v.is_finite(), "metric values are finite");
    format!("{v}")
}

fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, f64, &str)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn print_report(label: &str, outcome: &Outcome) {
    #[allow(clippy::cast_precision_loss)]
    let frac = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    println!(
        "[{label}] attempted {} failed {} failed_frac {frac} correct {}",
        outcome.attempted, outcome.failed, outcome.correct
    );
    println!(
        "[{label}] latency samples {} over {:.3} s",
        outcome.latencies.len(),
        outcome.timed_s
    );
    for (name, value, unit) in outcome.end_to_end() {
        println!("[{label}] {name} {value} {unit}");
    }
    let ms: Vec<f64> = outcome.latencies.iter().map(|s| s * 1e3).collect();
    let quantiles: Vec<String> = [10.0, 25.0, 50.0, 75.0, 90.0, 99.0]
        .iter()
        .map(|&p| format!("p{p}={:.4}", percentile(&ms, p)))
        .collect();
    println!("[{label}] latency_ms {}", quantiles.join(" "));
    for (name, value, unit) in &outcome.report {
        println!("[{label}] {name} {value} {unit}");
    }
}

fn run(opts: &Options) -> Result<String, String> {
    let threads = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let ctx = Context {
        library: Arc::new(Library::synthetic_90nm()),
        threads,
        seed: opts.seed,
        seconds: opts.seconds,
        traced: opts.trace,
    };
    println!(
        "workload {} seed {} seconds {} trace {} threads {threads}",
        opts.workload,
        opts.seed,
        opts.seconds,
        u8::from(opts.trace)
    );
    if !opts.trace {
        let outcome = replay(&ctx, &opts.workload, Tracer::new(false))?;
        print_report("untraced", &outcome);
        return Ok(result_line(
            outcome.correct,
            outcome.attempted,
            outcome.failed,
            &outcome.end_to_end(),
        ));
    }

    // Traced run: the same replay untraced, then traced (the difference
    // is the tracing overhead), then direct calls into every layer.
    let plain = replay(&ctx, &opts.workload, Tracer::new(false))?;
    print_report("untraced", &plain);
    let traced = replay(&ctx, &opts.workload, Tracer::new(true))?;
    print_report("traced", &traced);
    let started = Instant::now();
    let mut values = traced.layers.clone();
    for ((name, a, _), (_, b, _)) in traced.end_to_end().iter().zip(plain.end_to_end()) {
        values.insert(layers::overhead_name(name), a - b);
    }
    layers::probe(&ctx, &opts.workload, &mut values)?;
    println!("layer probes {:.3} s", started.elapsed().as_secs_f64());
    let metrics = layers::table(&values, &opts.workload)?;
    let dir = std::path::Path::new("perfbench/traces");
    let file = layers::write_spans(dir, &opts.workload, opts.seed, traced.tracer.spans())?;
    println!("spans written to {file}");
    Ok(result_line(
        plain.correct && traced.correct,
        plain.attempted + traced.attempted,
        plain.failed + traced.failed,
        &metrics,
    ))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: vartol-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    match run(&opts) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let o = parse_args(&args(
            "--workload serve_mixed --seed 3 --seconds 10 --trace 1",
        ))
        .expect("valid");
        assert_eq!(o.workload, "serve_mixed");
        assert_eq!(o.seed, 3);
        assert!(o.trace);
        assert!(parse_args(&args("--workload nope --seed 3 --seconds 10 --trace 1")).is_err());
        assert!(parse_args(&args("--workload size_flow --seed 3 --seconds 10")).is_err());
        assert!(parse_args(&args("--workload size_flow --seed 3 --seconds 0 --trace 0")).is_err());
    }

    #[test]
    fn block_rate_is_the_median_block() {
        // Blocks of 2: rates 1/(0.5+0.5)*2 = 2, 2/(1+1) = 1, 3/(1+1+1) = 1
        // (the short last block joins the one before it).
        let l = [0.5, 0.5, 1.0, 1.0, 1.0, 1.0, 1.0];
        assert_eq!(block_rate(&l, 2), 1.0);
        // One block: the plain rate.
        assert_eq!(block_rate(&l, 100), 7.0 / 6.0);
        assert_eq!(block_rate(&[0.25, 0.25, 0.25, 4.0], 1), 4.0);
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let line = result_line(true, 4, 0, &[("setup_s", 0.5, "s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 4, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }
}
