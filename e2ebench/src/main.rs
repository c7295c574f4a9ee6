//! End-to-end and per-layer benchmark of the co-design pipeline.
//!
//! ```console
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload pipeline_large --seed 1 --seconds 20 --trace 0
//! ```
//!
//! A run sets its workload up, times passes over the workload's inputs for
//! about `--seconds`, checks every output, and prints one JSON object as
//! the last line of standard output. `--trace 0` reports the end-to-end
//! metrics. `--trace 1` alternates untraced passes with passes under
//! `obs`, where every layer call sits in a `bench.*` span, adds probes
//! made outside the passes, reports the per-layer metrics, and writes the
//! trace to `.bench_traces/`. NOTES.md explains the workloads and what
//! each metric should move.

mod compile;
mod inputs;
mod measure;
mod pipeline;
mod scan;
mod serving;

use std::collections::BTreeMap;
use std::fmt::Display;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use measure::{harvest, median, percentile, PassTrace, PASS_SPAN};

const USAGE: &str = "usage: e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
       e2ebench --record-goldens
workloads: pipeline_large, serve_repeat";

/// The workloads, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 2] = ["pipeline_large", "serve_repeat"];

/// End-to-end metrics, reported by untraced runs: (name, unit).
const END_TO_END: [(&str, &str); 6] = [
    ("pass_s", "s"),
    ("jobs_per_s", "1/s"),
    ("request_p50_ms", "ms"),
    ("request_p99_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics, reported by traced runs: (name, unit). A layer a
/// workload does not exercise reads 0.
const PER_LAYER: [(&str, &str); 36] = [
    ("numeric.exact_ms", "ms"),
    ("vqe.run_ms", "ms"),
    ("vqe.grad_ms", "ms"),
    ("vqe.prepare_ms", "ms"),
    ("vqe.evaluations", "count"),
    ("vqe.iterations", "count"),
    ("sim.evolution_ns", "ns"),
    ("sim.sweep_gbps", "GB/s"),
    ("sim.copy_gbps", "GB/s"),
    ("pauli.h_apply_ms", "ms"),
    ("pauli.crosscheck_ms", "ms"),
    ("chem.build_ms", "ms"),
    ("chem.integrals_ms", "ms"),
    ("chem.scf_iterations", "count"),
    ("ansatz.compress_ms", "ms"),
    ("ansatz.pairs_scored", "count"),
    ("compiler.mtr_ms", "ms"),
    ("compiler.sabre_ms", "ms"),
    ("compiler.mtr_added_cnots", "count"),
    ("compiler.sabre_added_cnots", "count"),
    ("arch.yield_ms", "ms"),
    ("arch.yield_samples_per_s", "1/s"),
    ("par.tasks", "count"),
    ("par.threads", "count"),
    ("par.speedup_2t", "x"),
    ("par.speedup_2t.grad", "x"),
    ("par.speedup_2t.yield", "x"),
    ("supervisor.run_batch_ms", "ms"),
    ("supervisor.busy_frac", "frac"),
    ("supervisor.retries", "count"),
    ("serve.hit_ms", "ms"),
    ("serve.miss_ms", "ms"),
    ("serve.hit_ratio", "frac"),
    ("serve.cache_bytes_per_entry", "B"),
    ("obs.trace_overhead_frac", "frac"),
    ("bench.unattributed_frac", "frac"),
];

/// Set-up is timed in this process and in this many fresh ones; the
/// median is reported. Most set-ups take 10–300 ms, where one sample
/// varies by a third.
const SETUP_CHILDREN: usize = 8;

/// Each request's time is this percentile of its repeats: the lower
/// decile. Other tenants of the host slow this program by up to 1.8× in
/// phases that last seconds, and a run's median lands wherever the phases
/// fell; the lower decile of each request, which takes its quiet moments
/// from anywhere in the run, stays steady from run to run.
const REPEAT_QUANTILE: f64 = 10.0;

/// Per-layer values by metric name.
pub type Layers = BTreeMap<&'static str, f64>;

/// What one pass (or the probes) showed.
#[derive(Default)]
pub struct PassReport {
    /// Wall time of each request, in seconds.
    pub latencies: Vec<f64>,
    /// Checks made.
    pub attempted: usize,
    /// Checks failed: an error, a shed, or a wrong output.
    pub failed: usize,
    /// Jobs or requests that completed with correct output.
    pub jobs: usize,
    /// Per-layer values read off the outputs.
    pub layers: Layers,
}

impl PassReport {
    /// Counts one job or request and its check, logging a failure.
    pub fn check(&mut self, what: impl Display, outcome: Result<(), String>) {
        if self.audit(what, outcome) {
            self.jobs += 1;
        }
    }

    /// Counts a check of the pass as a whole; returns whether it passed.
    pub fn audit(&mut self, what: impl Display, outcome: Result<(), String>) -> bool {
        self.attempted += 1;
        match outcome {
            Ok(()) => true,
            Err(e) => {
                self.failed += 1;
                eprintln!("check failed: {what}: {e}");
                false
            }
        }
    }
}

/// A workload: inputs made by its `setup`, timed a pass at a time.
pub trait Workload {
    /// Runs every input once, checking the outputs.
    fn pass(&mut self, pass: u64) -> PassReport;

    /// Traced runs only: per-layer measurements made outside the passes.
    /// `layers` holds the pass medians on entry.
    fn probes(&mut self, _layers: &mut Layers) -> PassReport {
        PassReport::default()
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    setup_only: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        setup_only: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--setup-only" {
            parsed.setup_only = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} expects a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => parsed.workload = value.clone(),
            "--seed" => parsed.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => parsed.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => parsed.trace = value.parse::<u8>().map_err(|_| bad())? == 1,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&parsed.workload.as_str()) {
        return Err(format!("unknown workload `{}`", parsed.workload));
    }
    if parsed.seconds.is_nan() || parsed.seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(parsed)
}

fn setup(workload: &str, seed: u64) -> Result<Box<dyn Workload>, String> {
    Ok(match workload {
        "pipeline_large" => Box::new(pipeline::setup(seed)?),
        _ => Box::new(serving::setup(seed)?),
    })
}

/// Busy compute threads of a workload: its par budget, or one daemon
/// worker while the client waits.
fn busy_threads(workload: &str) -> usize {
    match workload {
        "pipeline_large" => pipeline::PASS_THREADS,
        _ => 1,
    }
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args == ["--record-goldens"] {
        return match inputs::record_goldens() {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => fail(&e),
        };
    }
    let args = match parse_args(&args) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let workload = setup(&args.workload, args.seed);
    let setup_secs = started.elapsed().as_secs_f64();
    let result = workload.and_then(|mut w| {
        if args.setup_only {
            return Ok(setup_secs.to_string());
        }
        eprintln!(
            "_meta {}",
            measure::host_meta(&args.workload, args.seed, busy_threads(&args.workload))
        );
        if args.trace {
            traced(w.as_mut(), &args)
        } else {
            untraced(w.as_mut(), &args, setup_secs)
        }
    });
    let _ = std::fs::remove_dir(serving::STATE_DIR);
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => fail(&e),
    }
}

fn fail(e: &str) -> ExitCode {
    eprintln!("error: {e}");
    ExitCode::FAILURE
}

/// Times set-up in a fresh process of this program, so one-time lazy
/// initialisation is part of every sample.
fn setup_in_child(args: &Args) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark: {e}"))?;
    let out = Command::new(exe)
        .args(["--setup-only", "--workload", &args.workload])
        .args(["--seed", &args.seed.to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("starting a set-up process: {e}"))?;
    if !out.status.success() {
        return Err(format!("set-up process failed: {}", out.status));
    }
    String::from_utf8_lossy(&out.stdout)
        .trim()
        .parse()
        .map_err(|_| "set-up process printed no time".to_string())
}

/// One timed pass inside the root span; under `obs` when `traced`.
struct Pass {
    secs: f64,
    report: PassReport,
    trace: Option<PassTrace>,
}

fn run_pass(w: &mut dyn Workload, id: u64, traced: bool) -> Pass {
    let before = traced.then(|| {
        obs::enable();
        obs::snapshot().counters
    });
    let start = Instant::now();
    let report = {
        let mut span = obs::span(PASS_SPAN);
        span.record("pass", id);
        w.pass(id)
    };
    let secs = start.elapsed().as_secs_f64();
    let trace = before.map(|counters| {
        let snap = obs::snapshot();
        obs::disable();
        harvest(&snap, id, &counters)
    });
    Pass {
        secs,
        report,
        trace,
    }
}

fn median_pass_secs(passes: &[Pass]) -> f64 {
    median(&passes.iter().map(|p| p.secs).collect::<Vec<_>>())
}

/// Untraced passes until `seconds` have gone by; the last one may run
/// over, so a workload with long passes still gets several.
fn run_passes(w: &mut dyn Workload, seconds: f64) -> Vec<Pass> {
    let begin = Instant::now();
    let mut passes = Vec::new();
    while passes.is_empty() || begin.elapsed().as_secs_f64() < seconds {
        passes.push(run_pass(w, passes.len() as u64, false));
    }
    passes
}

/// Rounds of one untraced and one traced pass, until the next round would
/// end past `seconds`, leaving room for the probes.
fn run_rounds(w: &mut dyn Workload, seconds: f64) -> (Vec<Pass>, Vec<Pass>) {
    let begin = Instant::now();
    let (mut plain, mut under_obs) = (Vec::new(), Vec::new());
    loop {
        let id = 2 * plain.len() as u64;
        plain.push(run_pass(w, id, false));
        under_obs.push(run_pass(w, id + 1, true));
        let round = median_pass_secs(&plain) + median_pass_secs(&under_obs);
        if begin.elapsed().as_secs_f64() + round > seconds {
            return (plain, under_obs);
        }
    }
}

fn totals<'a>(reports: impl Iterator<Item = &'a PassReport>) -> (usize, usize, usize) {
    reports.fold((0, 0, 0), |(a, f, j), r| {
        (a + r.attempted, f + r.failed, j + r.jobs)
    })
}

fn untraced(w: &mut dyn Workload, args: &Args, setup_here: f64) -> Result<String, String> {
    let mut setup = vec![setup_here];
    for _ in 0..SETUP_CHILDREN {
        setup.push(setup_in_child(args)?);
    }
    let passes = run_passes(w, args.seconds);
    let (attempted, failed, jobs) = totals(passes.iter().map(|p| &p.report));
    let pass_secs: Vec<f64> = passes.iter().map(|p| p.secs).collect();
    // Every pass sends the same requests in the same order, so request k
    // of each pass is one repeat of the same request.
    let slots = passes
        .iter()
        .map(|p| p.report.latencies.len())
        .max()
        .unwrap_or(0);
    let requests: Vec<f64> = (0..slots)
        .map(|k| {
            let repeats: Vec<f64> = passes
                .iter()
                .filter_map(|p| p.report.latencies.get(k).copied())
                .collect();
            percentile(&repeats, REPEAT_QUANTILE)
        })
        .collect();
    let all: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.report.latencies.iter().copied())
        .collect();
    eprintln!(
        "{} passes of {slots} requests ({} request samples), {jobs} jobs, failed_frac {}, \
         pass wall s {pass_secs:.3?}, setup_s {setup:.3?}",
        passes.len(),
        all.len(),
        failed as f64 / attempted.max(1) as f64
    );
    // A pass is its requests back to back, so its time is the sum of each
    // request's lower decile. The tail is taken over every sample of the
    // run, slow phases included.
    let pass_s: f64 = requests.iter().sum();
    let values = [
        pass_s,
        jobs as f64 / passes.len() as f64 / pass_s,
        percentile(&requests, 50.0) * 1e3,
        percentile(&all, 99.0) * 1e3,
        median(&setup),
        measure::peak_rss_mib(),
    ];
    let metrics = END_TO_END.iter().zip(values).map(|(&(n, u), v)| (n, u, v));
    Ok(result_line(attempted, failed, metrics))
}

fn traced(w: &mut dyn Workload, args: &Args) -> Result<String, String> {
    let (plain, under_obs) = run_rounds(w, args.seconds);
    let mut by_metric: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut unattributed: f64 = 0.0;
    for pass in &under_obs {
        let trace = pass.trace.as_ref().expect("traced passes carry a trace");
        unattributed = unattributed.max(trace.unattributed);
        for (&metric, &value) in trace.layers.iter().chain(&pass.report.layers) {
            by_metric.entry(metric).or_default().push(value);
        }
    }
    let mut layers: Layers = by_metric.iter().map(|(&m, v)| (m, median(v))).collect();
    layers.insert(
        "obs.trace_overhead_frac",
        median_pass_secs(&under_obs) / median_pass_secs(&plain) - 1.0,
    );
    layers.insert("bench.unattributed_frac", unattributed);
    if unattributed > 0.05 {
        eprintln!(
            "warning: layer spans cover less than 95% of a pass ({unattributed:.3} unattributed)"
        );
    }

    obs::enable();
    let probes = w.probes(&mut layers);
    obs::disable();
    let trace_dir = ".bench_traces";
    let trace_path = format!("{trace_dir}/{}-seed{}.jsonl", args.workload, args.seed);
    std::fs::create_dir_all(trace_dir)
        .and_then(|()| obs::write_jsonl(&trace_path))
        .map_err(|e| format!("writing {trace_path}: {e}"))?;
    eprintln!("trace written to {trace_path}");

    let (attempted, failed, _) = totals(
        plain
            .iter()
            .chain(&under_obs)
            .map(|p| &p.report)
            .chain(std::iter::once(&probes)),
    );
    let metrics = PER_LAYER
        .iter()
        .map(|&(n, u)| (n, u, layers.get(n).copied().unwrap_or(0.0)));
    Ok(result_line(attempted, failed, metrics))
}

/// The result object: the last line of standard output.
fn result_line<'a>(
    attempted: usize,
    failed: usize,
    metrics: impl Iterator<Item = (&'a str, &'a str, f64)>,
) -> String {
    let metrics: Vec<String> = metrics
        .map(|(name, unit, value)| {
            let value = if value.is_finite() { value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0 && attempted > 0,
        metrics.join(", ")
    )
}
