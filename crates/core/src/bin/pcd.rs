//! `pcd` — the pauli-codesign command-line driver.
//!
//! ```console
//! pcd info LiH
//! pcd vqe LiH --bond 1.6 --ratio 0.5
//! pcd scan H2 --from 0.4 --to 1.6 --step 0.1
//! pcd compile NaH --ratio 0.5 --arch xtree17 --compiler both
//! pcd yield --sigma 0.04 --samples 20000
//! pcd chaos --campaign supervised --trials 5 --seed 7
//! ```
//!
//! # Exit codes
//!
//! `0` success · `1` usage error · `10` chemistry · `11` SCF · `12`
//! encoding · `13` compile · `14` VQE · `20` a chaos campaign trial
//! broke an invariant · `21` bench regressed against `--baseline` or
//! crept past the `--history` window drift · `30` budget expired,
//! checkpoint saved (rerun with `--resume`; also a drained `pcd batch`
//! with its manifest saved, and a drained `pcd serve` with its restart
//! state sealed) ·
//! `31` checkpoint unreadable or corrupt (also a sealed serve manifest
//! that belongs to a different configuration) · `32` batch finished but
//! degraded (jobs quarantined or shed) · `34` `report --strict` found
//! warnings · `35` serve transport failure (socket or state-dir I/O) ·
//! `36` net transport lost for good (resumable) · `37` net protocol
//! mismatch. Codes 10–14 and 30–31 follow [`PcdError::exit_code`].

use std::process::ExitCode;
use std::time::Duration;

use pauli_codesign::ansatz::uccsd::UccsdAnsatz;
use pauli_codesign::ansatz::CompressionReport;
use pauli_codesign::arch::{simulate_yield, CollisionModel, Topology};
use pauli_codesign::chem::Benchmark;
use pauli_codesign::compiler::pipeline::{compile_mtr, compile_sabre};
use pauli_codesign::compiler::synthesis::synthesize_chain_nominal;
use pauli_codesign::par::Budget;
use pauli_codesign::pauli::group_qubit_wise;
use pauli_codesign::report::{compare_medians, parse_bench_medians};
use pauli_codesign::resilience::stages::{self, Checkpoints, CrossCheck};
use pauli_codesign::resilience::{
    f64_to_hex, run_chaos, run_kill_resume, ChaosOptions, Checkpoint, FaultPlan, KillResumeOptions,
    PcdError,
};
use pauli_codesign::serve::{
    run_serve, run_serve_chaos, ServeChaosOptions, ServeConfig, ServeError,
};
use pauli_codesign::supervisor::{
    parse_jobs, run_batch_resumed, run_net_chaos, run_supervised_chaos, run_worker, BatchReport,
    Coordinator, CoordinatorOptions, InjectionPlan, JobState, NetChaosOptions, RemoteError,
    ShedPolicy, SupervisedChaosOptions, SupervisorConfig, SupervisorError, WorkerOptions,
};
use pauli_codesign::vqe::driver::{VqeOptions, VqeResult};
use pauli_codesign::vqe::SectorAnsatz;

/// A CLI failure: either bad usage (exit 1, prints usage) or a typed
/// pipeline error carrying its own exit code.
#[derive(Debug)]
enum CliError {
    /// Bad arguments or unknown command.
    Usage(String),
    /// A pipeline stage failed; exit code from [`PcdError::exit_code`].
    Pipeline(PcdError),
    /// A chaos campaign had trials that broke an invariant.
    ChaosUnsurvived {
        /// Trials (or phases) that raised a violation.
        failed: usize,
        /// Trials (and phases) executed.
        trials: usize,
    },
    /// `bench --baseline` found benchmarks slower than the tolerance.
    BenchRegression(Vec<String>),
    /// The supervisor itself failed (bad jobs file, manifest mismatch).
    Batch(SupervisorError),
    /// A batch drain stopped the run; the manifest is saved for --resume.
    BatchDrained {
        /// Jobs still pending in the manifest.
        pending: usize,
    },
    /// The batch finished but some jobs were quarantined or shed.
    BatchDegraded {
        /// Jobs quarantined after exhausting retries.
        quarantined: usize,
        /// Jobs shed by admission control.
        shed: usize,
    },
    /// `report --strict` found warnings (corrupt/unreadable artifacts).
    ReportStrict {
        /// Warnings the report collected.
        warnings: usize,
    },
    /// `pcd serve` drained gracefully (SIGTERM or `drain` op); restart
    /// state is sealed, so this is the serve analogue of a drained batch.
    ServeDrained {
        /// Requests left pending in the sealed manifest.
        pending: usize,
    },
    /// The serve daemon itself failed: socket/state-dir I/O is a
    /// transport failure (exit 35), a sealed manifest from a different
    /// configuration is a checkpoint-class failure (exit 31).
    Serve(ServeError),
    /// A net coordinator or worker failed: transport exhaustion is
    /// resumable (exit 36, any partial progress sealed locally), a
    /// protocol mismatch is operator error (exit 37), and a supervisor
    /// failure inside granted jobs keeps the batch taxonomy.
    Remote(RemoteError),
}

/// Exit code for a chaos campaign with a violated invariant.
const EXIT_CHAOS_UNSURVIVED: u8 = 20;

/// Exit code for a bench run that regressed against its baseline.
const EXIT_BENCH_REGRESSION: u8 = 21;

/// Exit code for a drained batch (same meaning as a budget expiry: the
/// work is checkpointed, rerun with `--resume`).
const EXIT_BATCH_DRAINED: u8 = 30;

/// Exit code for a batch that completed with quarantined or shed jobs.
const EXIT_BATCH_DEGRADED: u8 = 32;

/// Exit code for `report --strict` when the report carries warnings.
const EXIT_REPORT_STRICT: u8 = 34;

/// Exit code for a serve transport failure (socket bind/accept or
/// state-dir I/O — the daemon could not run, as opposed to a job
/// failing, which is a typed response, or a drain, which is exit 30).
const EXIT_SERVE_TRANSPORT: u8 = 35;

/// Exit code for a net worker/coordinator whose transport died for good
/// (retry budget exhausted). Resumable: a worker seals what it computed
/// as `shard-<id>.manifest.partial` first, and rerunning the same
/// command reconnects and resumes.
const EXIT_NET_TRANSPORT: u8 = 36;

/// Exit code for a net protocol mismatch (version skew or a nonsensical
/// reply) — operator error, retrying cannot help.
const EXIT_NET_PROTOCOL: u8 = 37;

impl CliError {
    fn exit_code(&self) -> u8 {
        match self {
            CliError::Usage(_) => 1,
            // PcdError codes are 10..=14 and 30..=31, always in u8 range.
            CliError::Pipeline(e) => e.exit_code() as u8,
            CliError::ChaosUnsurvived { .. } => EXIT_CHAOS_UNSURVIVED,
            CliError::BenchRegression(_) => EXIT_BENCH_REGRESSION,
            CliError::Batch(SupervisorError::Spec(_)) => 1,
            CliError::Batch(_) => 31,
            CliError::BatchDrained { .. } => EXIT_BATCH_DRAINED,
            CliError::BatchDegraded { .. } => EXIT_BATCH_DEGRADED,
            CliError::ReportStrict { .. } => EXIT_REPORT_STRICT,
            CliError::ServeDrained { .. } => EXIT_BATCH_DRAINED,
            CliError::Serve(ServeError::Io { .. }) => EXIT_SERVE_TRANSPORT,
            CliError::Serve(_) => 31,
            CliError::Remote(RemoteError::TransportLost(_)) => EXIT_NET_TRANSPORT,
            CliError::Remote(RemoteError::Protocol(_)) => EXIT_NET_PROTOCOL,
            CliError::Remote(RemoteError::Supervisor(SupervisorError::Spec(_))) => 1,
            CliError::Remote(RemoteError::Supervisor(_)) => 31,
        }
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(msg) => write!(f, "{msg}"),
            CliError::Pipeline(e) => write!(f, "{e}"),
            CliError::ChaosUnsurvived { failed, trials } => {
                write!(f, "chaos: {failed} of {trials} trial(s) broke an invariant")
            }
            CliError::BenchRegression(regressions) => {
                writeln!(
                    f,
                    "bench: {} benchmark(s) regressed beyond tolerance:",
                    regressions.len()
                )?;
                for r in regressions {
                    writeln!(f, "  {r}")?;
                }
                Ok(())
            }
            CliError::Batch(e) => write!(f, "{e}"),
            CliError::BatchDrained { pending } => write!(
                f,
                "batch drained: {pending} job(s) pending, manifest saved (rerun with --resume)"
            ),
            CliError::BatchDegraded { quarantined, shed } => write!(
                f,
                "batch degraded: {quarantined} job(s) quarantined, {shed} shed"
            ),
            CliError::ReportStrict { warnings } => {
                write!(f, "report --strict: {warnings} warning(s) in the evidence")
            }
            CliError::ServeDrained { pending } => write!(
                f,
                "serve drained: {pending} request(s) pending, restart state sealed \
                 (restart `pcd serve` with the same --state-dir to resume)"
            ),
            CliError::Serve(e) => write!(f, "{e}"),
            CliError::Remote(e) => write!(f, "{e}"),
        }
    }
}

impl From<RemoteError> for CliError {
    fn from(e: RemoteError) -> Self {
        CliError::Remote(e)
    }
}

impl From<ServeError> for CliError {
    fn from(e: ServeError) -> Self {
        CliError::Serve(e)
    }
}

impl From<SupervisorError> for CliError {
    fn from(e: SupervisorError) -> Self {
        CliError::Batch(e)
    }
}

impl From<String> for CliError {
    fn from(msg: String) -> Self {
        CliError::Usage(msg)
    }
}

impl From<PcdError> for CliError {
    fn from(e: PcdError) -> Self {
        CliError::Pipeline(e)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            if matches!(e, CliError::Usage(_)) {
                eprintln!();
                eprintln!("{USAGE}");
            }
            ExitCode::from(e.exit_code())
        }
    }
}

const USAGE: &str = "\
usage: pcd <command> [options]

commands:
  info <molecule>                     benchmark statistics (Table I view)
  vqe <molecule> [--bond Å] [--ratio R]
                                      run compressed-ansatz VQE
  run <molecule> [--bond Å] [--ratio R] [--samples N]
                                      durable pipeline: compressed VQE then
                                      fabrication-yield Monte Carlo, under
                                      the budget/checkpoint options below;
                                      the VQE energy is cross-checked with
                                      the per-term and clustered evaluators
  adapt <molecule> [--bond Å] [--pool plain|generalized]
                                      run ADAPT-VQE
  excited <molecule> [--states K]     run a VQD excited-state ladder
  scan <molecule> [--ratio R] [--from Å --to Å --step Å]
                                      bond-length energy scan
  compile <molecule> [--ratio R] [--arch xtree17|grid17|line17|heavyhex]
          [--compiler mtr|sabre|both] compile onto an architecture
  qasm <molecule> [--ratio R] [--out FILE]
                                      export the X-Tree-compiled circuit
  yield [--arch ...] [--sigma GHz] [--samples N]
                                      fabrication-yield Monte Carlo
  chaos [--campaign KIND] [molecule] [--seed N] [--trials N] [--fault-rate R]
        [campaign flags]              run one seeded fault campaign, print
                                      its report, exit 20 if any trial
                                      broke an invariant; a flag the
                                      campaign does not read is a usage
                                      error. KIND and its flags (defaults):
                                      pipeline (default; seed 42, 40
                                      trials, rate 0.1, --restarts 3,
                                      --bond): every injected pipeline
                                      fault recovered. kill-resume (--bond,
                                      --ratio 0.5, --kill-every 2,
                                      --samples 2000, --checkpoint DIR):
                                      VQE and yield resumed from checkpoint
                                      files bit-for-bit. supervised (seed
                                      42, 20 trials, rate 0.25, --jobs 6,
                                      --workers 2, --flight-dir DIR): no
                                      job lost, worker-count invariant,
                                      drain/resume exact. serve (seed 7, 2
                                      trials, rate 0.05, --requests 10,
                                      --workers 2, --scratch-dir DIR,
                                      --flight-dir DIR): daemon storms and a
                                      SIGTERM restart replay exactly. net
                                      (seed 42, 2 trials, rate 0.25, --jobs
                                      6, --workers 3 (≥ 2), --threads 2,
                                      --net-fault-rate 0.05, --scratch-dir
                                      DIR): a faulty proxy and a killed
                                      worker leave batch.manifest exact
  batch <JOBS.jsonl> [--workers N] [--seed N] [--max-retries K]
        [--queue-cap Q] [--shed reject-new|drop-oldest] [--job-timeout S]
        [--slice-ticks T] [--max-slices M] [--breaker N] [--backoff-ms B]
        [--fault-rate R] [--deadline SECS] [--drain-after-ticks T]
        [--checkpoint DIR] [--resume] [--progress]
        [--progress-interval-ms MS] [--flight-dir DIR]
                                      run a batch of pipeline jobs (one
                                      JSON object per line: molecule, bond,
                                      ratio, id) over supervised workers;
                                      exit 0 all done, 30 drained with a
                                      resumable manifest, 32 degraded
                                      (quarantined/shed jobs); --progress
                                      renders a live stderr status line
                                      (snapshots also land in --trace
                                      JSONL); --flight-dir arms the flight
                                      recorder so quarantines, deadline
                                      expiries, and faults dump
                                      flight-<job>.jsonl rings there
  batch <JOBS.jsonl> --listen ADDR --shards N --checkpoint DIR
        [--lease-ms MS] [--heartbeat-ms MS] [--net-deadline SECS]
        [--no-rescue]
                                      coordinate a multi-machine batch
                                      over TCP: workers connect with
                                      `batch --connect`, claim shards
                                      under monotonic lease epochs, and
                                      stream records back (CRC-framed,
                                      at-least-once, content-deduped); a
                                      worker silent past --lease-ms is
                                      re-granted at the next epoch; when
                                      the whole fleet dies the
                                      coordinator finishes unfinished
                                      shards in-process (unless
                                      --no-rescue); seals the same
                                      batch.manifest a single-machine
                                      run would, bit for bit; on one
                                      host, listen on 127.0.0.1 and run
                                      the workers locally
  batch --connect ADDR [--worker-id NAME] [--workers N] [--local-dir DIR]
        [--max-reconnects K] [--backoff-ms B]
                                      join a coordinated batch as a
                                      worker (no jobs file — the batch
                                      identity arrives over the wire):
                                      claim shards, compute, stream
                                      records, heartbeat on a side
                                      connection; reconnects follow the
                                      worker-id-seeded backoff ladder
                                      (replayable bit-for-bit); when the
                                      transport dies for good, any
                                      undelivered records seal into
                                      --local-dir as
                                      shard-<id>.manifest.partial and the
                                      worker exits 36 (resumable — rerun
                                      the same command); version skew
                                      exits 37
  serve [--state-dir DIR] [--socket PATH] [--workers N] [--seed N]
        [--queue-cap Q] [--shed reject-new|drop-oldest] [--max-retries K]
        [--slice-ticks T] [--max-slices M] [--breaker N] [--fault-rate R]
        [--deadline-ms MS] [--max-requests N] [--idle-exit-ms MS]
        [--flight-dir DIR] [--cache-max-bytes B]
                                      always-on co-design daemon: accept
                                      JSONL job requests (batch spec lines)
                                      over a Unix socket (default
                                      DIR/serve.sock), run each through the
                                      supervised engine, and answer from a
                                      CRC-sealed content-addressed result
                                      cache on repeat traffic; over-cap
                                      arrivals get typed shed responses per
                                      --shed; SIGTERM (or a drain op)
                                      drains gracefully, seals restart
                                      state into DIR/serve.manifest, and
                                      exits 30 — a restart with the same
                                      --state-dir resumes the pending tail
                                      bit-identically; corrupt cache
                                      entries and manifests are quarantined
                                      aside, never trusted;
                                      --cache-max-bytes caps the result
                                      cache, evicting by deterministic
                                      second chance (0 = unbounded)
  report <FILE|DIR> ... [--baseline FILE] [--drift-tolerance PCT]
         [--out FILE] [--strict]      aggregate observability artifacts
                                      (--trace JSONL, flight-*.jsonl dumps,
                                      batch.manifest, BENCH_pipeline.json;
                                      classified by content, directories
                                      scanned) into per-stage latency
                                      quantiles, counter totals, the
                                      slowest-span critical path, the
                                      quarantine/fault breakdown, shard
                                      takeovers (net.takeover events,
                                      shard-*.manifest.partial seals), and
                                      bench drift vs --baseline (default
                                      BENCH_pipeline.json); corrupt inputs
                                      degrade to warnings, exit stays 0 —
                                      unless --strict, which exits 34 when
                                      any warning was recorded
  bench [--smoke] [--out FILE] [--qubits N] [--baseline FILE]
        [--tolerance PCT] [--history FILE] [--window K]
        [--drift-tolerance PCT]
                                      benchmark the parallel hot paths
                                      (serial vs parallel; PCD_THREADS sets
                                      the worker count) plus the clustered
                                      Hamiltonian evaluator (which must
                                      beat the per-term serial sweep, else
                                      exit 21; cluster structure lands in
                                      the report's _clusters block), the
                                      grouped H|ψ⟩ (h_apply) and the fused
                                      adjoint gradient (which must beat its
                                      parameter-shift oracle, else exit
                                      21), the H2O exact reference in its
                                      electron sector (which must beat the
                                      full-space Lanczos, else exit 21),
                                      the H2O VQE energy + gradient in its
                                      electron sector, build included
                                      (which must beat the full-space
                                      fused path, else exit 21),
                                      and write a JSON report (default
                                      BENCH_pipeline.json);
                                      with --baseline, exit 21 if any
                                      benchmark is >10% slower than FILE
                                      (--tolerance overrides the 10%, for
                                      noisy shared runners); with --history,
                                      keep a rolling window of the last K
                                      reports (default 8) and exit 21 on
                                      cumulative creep beyond
                                      --drift-tolerance (default 25%) over
                                      the window; reports carry a _meta
                                      block (threads, cores, git rev)
  bench --obs-overhead [--budget-ns NS]
                                      measure the disabled-tracing fast
                                      path (span/event/counter with obs
                                      off, flight ring still recording);
                                      exit 21 if any op exceeds the
                                      per-call budget (default 2000 ns)
  help                                this message

durability (pcd run):
  --deadline SECS       wall-clock budget; on expiry the interrupted stage
                        checkpoints and the run exits 30
  --budget-iters N      deterministic iteration budget (composes with
                        --deadline; the scarcer limit wins)
  --checkpoint DIR      directory for stage checkpoints (vqe.ckpt,
                        yield.ckpt), written atomically with a CRC trailer
  --resume              restore interrupted stages from --checkpoint DIR;
                        pass the same molecule/bond/ratio/samples as the
                        original run
  --degrade-threshold F shed yield samples down a 1×/4×/20× ladder once the
                        remaining budget fraction drops below F
                        (default 0.25; each downgrade is an obs event)

observability (any command):
  --trace FILE    write a JSONL trace of spans/events/counters/histograms
  --metrics       print an end-of-run summary table of recorded metrics

molecules: H2 LiH NaH HF BeH2 H2O BH3 NH3 CH4";

fn run(args: &[String]) -> Result<(), CliError> {
    let command = args.first().map(String::as_str).unwrap_or("help");
    // `pcd run --expectation` is retired; caught before flag parsing so a
    // trailing `--expectation` names the removal too.
    if command == "run" && args.iter().any(|a| a == "--expectation") {
        return Err(CliError::Usage(
            "--expectation is gone: the optimizer always uses the grouped H|ψ⟩ energy, \
             and `pcd run` still prints the per-term/clustered cross-check"
                .to_string(),
        ));
    }
    // The retired chaos selectors took no value, so catch them before
    // flag parsing would swallow the argument after one.
    if command == "chaos" {
        if let Some(old) = RETIRED_CHAOS_SELECTORS
            .iter()
            .find(|old| args.iter().any(|a| a.strip_prefix("--") == Some(**old)))
        {
            return Err(CliError::Usage(format!(
                "--{old} is gone: select the campaign with `--campaign {old}`"
            )));
        }
    }
    let flags = parse_flags(args.get(1..).unwrap_or(&[]))?;

    let trace_path = flags.get("trace").map(str::to_string);
    let metrics = flags.is_set("metrics");
    if trace_path.is_some() || metrics {
        obs::reset();
        obs::enable();
    }

    let result = match COMMANDS.iter().find(|c| c.name == command) {
        Some(c) => check_flags(c, &flags).and_then(|()| (c.run)(&flags)),
        None if matches!(command, "help" | "--help" | "-h") => {
            println!("{USAGE}");
            Ok(())
        }
        None => Err(CliError::Usage(format!("unknown command `{command}`"))),
    };

    // A budget expiry (exit 30) is a scheduled stop and a degraded batch
    // (exit 32) ran to completion: the trace of what happened is still
    // worth keeping — for a degraded batch it is the primary evidence.
    let interrupted = matches!(
        &result,
        Err(CliError::Pipeline(PcdError::Interrupted { .. }))
            | Err(CliError::BatchDrained { .. })
            | Err(CliError::BatchDegraded { .. })
    );
    if result.is_ok() || interrupted {
        if let Some(path) = &trace_path {
            obs::write_jsonl(path).map_err(|e| format!("writing trace {path}: {e}"))?;
            eprintln!("trace written to {path}");
        }
        if metrics {
            println!();
            print!("{}", obs::summary());
        }
    }
    result
}

/// A `pcd` command: its name, the flags it reads, and its handler.
struct Command {
    name: &'static str,
    /// Flags the command reads (space-separated), beyond `--trace` and
    /// `--metrics`, which every command reads; any other flag is a usage
    /// error. `chaos` also reads its campaign's [`Campaign::reads`].
    reads: &'static str,
    run: fn(&Flags) -> Result<(), CliError>,
}

const COMMANDS: [Command; 14] = [
    Command {
        name: "info",
        reads: "bond",
        run: cmd_info,
    },
    Command {
        name: "vqe",
        reads: "bond ratio",
        run: cmd_vqe,
    },
    Command {
        name: "run",
        reads: "bond ratio samples degrade-threshold checkpoint resume deadline budget-iters",
        run: cmd_run,
    },
    Command {
        name: "adapt",
        reads: "bond pool",
        run: cmd_adapt,
    },
    Command {
        name: "excited",
        reads: "bond states",
        run: cmd_excited,
    },
    Command {
        name: "scan",
        reads: "ratio from to step",
        run: cmd_scan,
    },
    Command {
        name: "compile",
        reads: "ratio arch compiler",
        run: cmd_compile,
    },
    Command {
        name: "qasm",
        reads: "ratio out",
        run: cmd_qasm,
    },
    Command {
        name: "yield",
        reads: "arch sigma samples",
        run: cmd_yield,
    },
    Command {
        name: "chaos",
        reads: "campaign",
        run: cmd_chaos,
    },
    Command {
        name: "batch",
        reads: "workers seed max-retries queue-cap shed job-timeout slice-ticks max-slices \
                breaker backoff-ms fault-rate deadline drain-after-ticks checkpoint resume \
                progress progress-interval-ms flight-dir listen shards shard-id lease-ms \
                heartbeat-ms net-deadline no-rescue connect worker-id local-dir max-reconnects",
        run: cmd_batch,
    },
    Command {
        name: "serve",
        reads: "state-dir socket workers seed queue-cap shed max-retries slice-ticks \
                max-slices breaker fault-rate deadline-ms max-requests idle-exit-ms flight-dir \
                cache-max-bytes",
        run: cmd_serve,
    },
    Command {
        name: "bench",
        reads: "smoke out qubits baseline tolerance history window drift-tolerance \
                obs-overhead budget-ns",
        run: cmd_bench,
    },
    Command {
        name: "report",
        reads: "baseline drift-tolerance out strict",
        run: cmd_report,
    },
];

/// Rejects the first flag `command` does not read: a misspelt or
/// misplaced flag is a usage error, never a silently ignored setting.
fn check_flags(command: &Command, flags: &Flags) -> Result<(), CliError> {
    let (who, campaign_reads) = if command.name == "chaos" {
        let campaign = campaign(flags)?;
        (format!("--campaign {}", campaign.kind), campaign.reads)
    } else {
        (format!("pcd {}", command.name), "")
    };
    let reads = |key: &str| {
        ["trace", "metrics"].contains(&key)
            || command
                .reads
                .split_whitespace()
                .chain(campaign_reads.split_whitespace())
                .any(|read| read == key)
    };
    match flags.options.iter().find(|(key, _)| !reads(key)) {
        Some((key, _)) => Err(CliError::Usage(format!("{who} does not read --{key}"))),
        None => Ok(()),
    }
}

/// Positional arguments plus `--flag value` pairs.
struct Flags {
    positional: Vec<String>,
    options: Vec<(String, String)>,
}

/// Flags that take no value.
const BOOLEAN_FLAGS: &[&str] = &[
    "metrics",
    "smoke",
    "resume",
    "no-rescue",
    "progress",
    "obs-overhead",
    "strict",
];

impl Flags {
    fn is_set(&self, key: &str) -> bool {
        self.options.iter().any(|(k, _)| k == key)
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.options
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn get_f64(&self, key: &str, default: f64) -> Result<f64, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{key} expects a number, got `{v}`")),
        }
    }

    fn get_usize(&self, key: &str, default: usize) -> Result<usize, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{key} expects an integer, got `{v}`")),
        }
    }

    fn get_u64(&self, key: &str, default: u64) -> Result<u64, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{key} expects an integer, got `{v}`")),
        }
    }

    /// A positive integer flag.
    fn positive(&self, key: &str, default: usize) -> Result<usize, String> {
        match self.get_usize(key, default)? {
            0 => Err(format!("--{key} must be positive")),
            n => Ok(n),
        }
    }

    /// A probability flag in `[0, 1]`.
    fn rate(&self, key: &str, default: f64) -> Result<f64, String> {
        let rate = self.get_f64(key, default)?;
        if (0.0..=1.0).contains(&rate) {
            Ok(rate)
        } else {
            Err(format!("--{key} must be in [0, 1]"))
        }
    }

    /// The `--ratio` compression ratio, in `(0, 1]`.
    fn ratio(&self, default: f64) -> Result<f64, String> {
        let ratio = self.get_f64("ratio", default)?;
        if ratio > 0.0 && ratio <= 1.0 {
            Ok(ratio)
        } else {
            Err("--ratio must be in (0, 1]".to_string())
        }
    }

    fn molecule(&self) -> Result<Benchmark, String> {
        let name = self
            .positional
            .first()
            .ok_or_else(|| "a molecule name is required".to_string())?;
        Benchmark::ALL
            .into_iter()
            .find(|b| b.name().eq_ignore_ascii_case(name))
            .ok_or_else(|| format!("unknown molecule `{name}`"))
    }
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut positional = Vec::new();
    let mut options = Vec::new();
    let mut iter = args.iter();
    while let Some(a) = iter.next() {
        if let Some(key) = a.strip_prefix("--") {
            if BOOLEAN_FLAGS.contains(&key) {
                options.push((key.to_string(), "true".to_string()));
                continue;
            }
            let value = iter
                .next()
                .ok_or_else(|| format!("--{key} expects a value"))?;
            options.push((key.to_string(), value.clone()));
        } else {
            positional.push(a.clone());
        }
    }
    Ok(Flags {
        positional,
        options,
    })
}

fn parse_arch(name: &str) -> Result<Topology, String> {
    match name {
        "xtree17" => Ok(Topology::xtree(17)),
        "grid17" => Ok(Topology::grid17q()),
        "line17" => Ok(Topology::line(17)),
        "heavyhex" => Ok(Topology::heavy_hex(2, 7)),
        other => Err(format!("unknown architecture `{other}`")),
    }
}

fn cmd_info(flags: &Flags) -> Result<(), CliError> {
    let molecule = flags.molecule()?;
    let bond = flags.get_f64("bond", molecule.equilibrium_bond_length())?;
    let (system, _) = stages::build(molecule, bond, &mut FaultPlan::none())?;
    let ansatz = UccsdAnsatz::for_system(&system);
    let circuit = synthesize_chain_nominal(ansatz.ir());
    let groups = group_qubit_wise(system.qubit_hamiltonian());

    println!("{} @ {bond} Å", molecule.name());
    println!("  qubits                 : {}", system.num_qubits());
    println!(
        "  active electrons       : {}",
        system.num_active_electrons()
    );
    println!(
        "  Hamiltonian terms      : {}",
        system.qubit_hamiltonian().len()
    );
    println!("  measurement groups     : {}", groups.len());
    let cstats = pauli_codesign::pauli::ClusteredSum::build(system.qubit_hamiltonian()).stats();
    println!(
        "  commuting clusters     : {} ({} singleton, {} fused)",
        cstats.clusters, cstats.singletons, cstats.fused
    );
    println!(
        "  cluster Clifford cost  : {} ops, depth {}",
        cstats.clifford_ops, cstats.clifford_depth
    );
    println!(
        "  UCCSD parameters       : {}",
        ansatz.ir().num_parameters()
    );
    println!("  UCCSD Pauli strings    : {}", ansatz.ir().len());
    println!(
        "  circuit gates (CNOTs)  : {} ({})",
        circuit.gate_count(),
        circuit.cnot_count()
    );
    println!(
        "  Hartree-Fock energy    : {:.6} Ha",
        system.hartree_fock_energy()
    );
    println!(
        "  exact ground state     : {:.6} Ha",
        system.exact_ground_state_energy()
    );
    Ok(())
}

/// Build → compressed ansatz → VQE → exact reference at one bond length.
fn vqe_point(
    molecule: Benchmark,
    bond: f64,
    ratio: f64,
) -> Result<(VqeResult, f64, CompressionReport), PcdError> {
    let _root = stages::root();
    let (system, _) = stages::build(molecule, bond, &mut FaultPlan::none())?;
    let (ir, report) = stages::ansatz(&system, ratio);
    let unlimited = Budget::unlimited();
    let run = stages::vqe(&system, &ir, VqeOptions::default(), &unlimited, None)?;
    Ok((run, stages::reference(&system), report))
}

fn cmd_vqe(flags: &Flags) -> Result<(), CliError> {
    let molecule = flags.molecule()?;
    let bond = flags.get_f64("bond", molecule.equilibrium_bond_length())?;
    let ratio = flags.ratio(0.5)?;
    let (run, exact, report) = vqe_point(molecule, bond, ratio)?;
    println!(
        "{} @ {bond} Å, ratio {:.0}%",
        molecule.name(),
        ratio * 100.0
    );
    println!(
        "  parameters   : {} of {}",
        report.kept_parameters, report.original_parameters
    );
    println!("  VQE energy   : {:.6} Ha", run.energy);
    println!("  exact energy : {exact:.6} Ha");
    println!("  error        : {:+.2e} Ha", run.energy - exact);
    println!("  iterations   : {}", run.iterations);
    println!("  evaluations  : {}", run.evaluations);
    Ok(())
}

/// Builds the run budget from `--deadline` / `--budget-iters` (unlimited
/// when neither is given; the scarcer limit wins when both are).
fn parse_budget(flags: &Flags) -> Result<Budget, CliError> {
    let mut budget = match flags.get("deadline") {
        None => Budget::unlimited(),
        Some(_) => {
            let secs = flags.get_f64("deadline", 0.0)?;
            if secs.is_nan() || secs <= 0.0 {
                return Err(CliError::Usage("--deadline must be positive".to_string()));
            }
            Budget::wall_clock(Duration::from_secs_f64(secs))
        }
    };
    if flags.get("budget-iters").is_some() {
        budget = budget.with_max_ticks(flags.get_u64("budget-iters", 0)?);
    }
    Ok(budget)
}

/// The durable pipeline: the build through the SCF retry ladder,
/// compressed VQE, then fabrication-yield Monte Carlo, both budget-aware
/// and resumable, then the exact reference and the evaluator cross-check.
/// Completed stages are deterministic, so a resumed run recomputes them
/// bit-identically and restores only the interrupted stage from its
/// checkpoint.
fn cmd_run(flags: &Flags) -> Result<(), CliError> {
    let molecule = flags.molecule()?;
    let bond = flags.get_f64("bond", molecule.equilibrium_bond_length())?;
    let ratio = flags.ratio(0.5)?;
    let base_samples = flags.positive("samples", 20_000)?;
    let threshold = flags.get_f64("degrade-threshold", stages::DEGRADE_THRESHOLD)?;
    if !(threshold > 0.0 && threshold <= 1.0) {
        return Err(CliError::Usage(
            "--degrade-threshold must be in (0, 1]".to_string(),
        ));
    }
    let resume = flags.is_set("resume");
    let store = flags
        .get("checkpoint")
        .map(|dir| Checkpoints::new(dir, resume));
    if resume && store.is_none() {
        return Err(CliError::Usage(
            "--resume requires --checkpoint DIR".to_string(),
        ));
    }
    let budget = parse_budget(flags)?;

    let root = stages::root();
    let (system, scf_retries) = stages::build(molecule, bond, &mut FaultPlan::none())?;
    let (ir, report) = stages::ansatz(&system, ratio);
    let result = stages::vqe(&system, &ir, VqeOptions::default(), &budget, store.as_ref())?;
    let estimate = stages::yield_mc(base_samples, threshold, &budget, store.as_ref())?;
    // The run completed: stale stage checkpoints must not leak into the
    // next invocation.
    if let Some(store) = &store {
        store.clear();
    }
    let exact = stages::reference(&system);
    let CrossCheck {
        per_term,
        clustered,
        stats,
    } = stages::crosscheck(&system, &ir, &result.params);
    drop(root);

    println!(
        "{} @ {bond} Å, ratio {:.0}%",
        molecule.name(),
        ratio * 100.0
    );
    println!("  SCF retries  : {scf_retries}");
    println!(
        "  parameters   : {} of {}",
        report.kept_parameters, report.original_parameters
    );
    println!("  VQE energy   : {:.6} Ha", result.energy);
    println!("  energy bits  : 0x{}", f64_to_hex(result.energy));
    // The VQE drivers take the sector path exactly when this build succeeds.
    let evaluator = match SectorAnsatz::build(system.qubit_hamiltonian(), &ir) {
        Ok(sector) => format!("sector {}/{}", sector.dim(), 1u64 << ir.num_qubits()),
        Err(_) => "grouped".to_string(),
    };
    println!(
        "  evaluator    : {evaluator} (cross-check terms {per_term:.9} / clustered {clustered:.9})"
    );
    println!(
        "  H clusters   : {} over {} terms (largest {}, fused {}, Clifford depth {})",
        stats.clusters, stats.terms, stats.largest, stats.fused, stats.clifford_depth
    );
    println!("  exact energy : {exact:.6} Ha");
    println!("  error        : {:+.2e} Ha", result.energy - exact);
    println!("  iterations   : {}", result.iterations);
    let samples = estimate.samples;
    if samples != base_samples {
        println!("  yield samples: {samples} (degraded from {base_samples})");
    } else {
        println!("  yield samples: {samples}");
    }
    println!("  yield (xtree): {:.4}", estimate.yield_rate);
    println!("  budget ticks : {}", budget.ticks_used());
    Ok(())
}

fn cmd_scan(flags: &Flags) -> Result<(), CliError> {
    let molecule = flags.molecule()?;
    let ratio = flags.ratio(1.0)?;
    let eq = molecule.equilibrium_bond_length();
    let from = flags.get_f64("from", (eq - 0.3).max(0.3))?;
    let to = flags.get_f64("to", eq + 0.3)?;
    let step = flags.get_f64("step", 0.1)?;
    if step <= 0.0 || to < from {
        return Err(CliError::Usage(
            "scan needs --from ≤ --to and --step > 0".to_string(),
        ));
    }
    let first_failure = scan(molecule, ratio, (from, to, step), |row| println!("{row}"));
    first_failure.map_or(Ok(()), |e| Err(e.into()))
}

/// Emits a header and one row per bond length in `from..=to`: the VQE
/// and exact energies, or the typed error of the stage that failed. A
/// failed bond does not stop the scan; the first failure is returned.
fn scan(
    molecule: Benchmark,
    ratio: f64,
    (from, to, step): (f64, f64, f64),
    mut emit: impl FnMut(&str),
) -> Option<PcdError> {
    emit("bond (Å)   VQE (Ha)      exact (Ha)");
    let mut first_failure = None;
    let mut bond = from;
    while bond <= to + 1e-9 {
        match vqe_point(molecule, bond, ratio) {
            Ok((run, exact, _)) => emit(&format!(
                "{bond:<9.2}  {:>11.6}   {exact:>11.6}",
                run.energy
            )),
            Err(e) => {
                emit(&format!("{bond:<9.2}  error: {e}"));
                first_failure.get_or_insert(e);
            }
        }
        bond += step;
    }
    first_failure
}

fn cmd_compile(flags: &Flags) -> Result<(), CliError> {
    let molecule = flags.molecule()?;
    let ratio = flags.ratio(0.5)?;
    let arch = parse_arch(flags.get("arch").unwrap_or("xtree17"))?;
    let which = flags.get("compiler").unwrap_or("both");
    let (system, _) = stages::build(
        molecule,
        molecule.equilibrium_bond_length(),
        &mut FaultPlan::none(),
    )?;
    if arch.num_qubits() < system.num_qubits() {
        return Err(CliError::Usage(format!(
            "{} needs {} qubits but {} has {}",
            molecule.name(),
            system.num_qubits(),
            arch.name(),
            arch.num_qubits()
        )));
    }
    let (ir, _) = stages::ansatz(&system, ratio);

    println!("{} at {:.0}% on {}", molecule.name(), ratio * 100.0, arch);
    if which == "mtr" || which == "both" {
        if arch.root().is_some() {
            let p = compile_mtr(&ir, &arch);
            println!(
                "  MtR   : {} original CNOTs, +{} added ({} swaps)",
                p.original_cnots(),
                p.added_cnots(),
                p.swap_count()
            );
        } else {
            println!("  MtR   : (skipped — requires a tree architecture)");
        }
    }
    if which == "sabre" || which == "both" {
        let p = compile_sabre(&ir, &arch, 1);
        println!(
            "  SABRE : {} original CNOTs, +{} added ({} swaps)",
            p.original_cnots(),
            p.added_cnots(),
            p.swap_count()
        );
    }
    Ok(())
}

fn cmd_adapt(flags: &Flags) -> Result<(), CliError> {
    use pauli_codesign::ansatz::uccsd::enumerate_generalized_excitations;
    use pauli_codesign::vqe::adapt::{
        pool_from_excitations, run_adapt_vqe, uccsd_pool, AdaptOptions,
    };
    let molecule = flags.molecule()?;
    let bond = flags.get_f64("bond", molecule.equilibrium_bond_length())?;
    let (system, _) = stages::build(molecule, bond, &mut FaultPlan::none())?;
    let m = system.num_qubits() / 2;
    let pool = match flags.get("pool").unwrap_or("plain") {
        "plain" => uccsd_pool(m, system.num_active_electrons()),
        "generalized" => {
            pool_from_excitations(system.num_qubits(), &enumerate_generalized_excitations(m))
        }
        other => return Err(CliError::Usage(format!("unknown pool `{other}`"))),
    };
    let r = run_adapt_vqe(
        system.qubit_hamiltonian(),
        system.hartree_fock_state(),
        &pool,
        AdaptOptions::default(),
    );
    let exact = system.exact_ground_state_energy();
    println!(
        "{} @ {bond} Å — ADAPT-VQE ({} pool operators)",
        molecule.name(),
        pool.len()
    );
    println!(
        "  energy     : {:.6} Ha (exact {exact:.6}, error {:+.2e})",
        r.energy,
        r.energy - exact
    );
    println!(
        "  operators  : {} selected ({:?})",
        r.selected.len(),
        r.selected
    );
    println!("  iterations : {}", r.total_iterations);
    println!("  converged  : {}", r.converged);
    Ok(())
}

fn cmd_excited(flags: &Flags) -> Result<(), CliError> {
    use pauli_codesign::vqe::vqd::{run_vqd, VqdOptions};
    let molecule = flags.molecule()?;
    let bond = flags.get_f64("bond", molecule.equilibrium_bond_length())?;
    let k = flags.positive("states", 3)?;
    let (system, _) = stages::build(molecule, bond, &mut FaultPlan::none())?;
    let ir = UccsdAnsatz::for_system(&system).into_ir();
    let states = run_vqd(system.qubit_hamiltonian(), &ir, k, VqdOptions::default());
    println!("{} @ {bond} Å — VQD ladder", molecule.name());
    for (i, s) in states.iter().enumerate() {
        println!(
            "  state {i}: E = {:.6} Ha ({} iters, residual overlap {:.1e})",
            s.energy, s.iterations, s.max_overlap_with_lower
        );
    }
    Ok(())
}

fn cmd_qasm(flags: &Flags) -> Result<(), CliError> {
    let molecule = flags.molecule()?;
    let ratio = flags.ratio(0.5)?;
    let mut plan = FaultPlan::none();
    let (system, _) = stages::build(molecule, molecule.equilibrium_bond_length(), &mut plan)?;
    let (ir, _) = stages::ansatz(&system, ratio);
    let (compiled, _) = stages::compile(&ir, &stages::xtree_for(&system), &mut plan)?;
    let qasm = compiled.circuit().to_qasm();
    match flags.get("out") {
        Some(path) => {
            std::fs::write(path, &qasm).map_err(|e| format!("writing {path}: {e}"))?;
            println!(
                "wrote {} gates ({} CNOTs) to {path}",
                compiled.circuit().gate_count(),
                compiled.total_cnots()
            );
        }
        None => print!("{qasm}"),
    }
    Ok(())
}

fn cmd_yield(flags: &Flags) -> Result<(), CliError> {
    let arch = parse_arch(flags.get("arch").unwrap_or("xtree17"))?;
    let sigma = flags.get_f64("sigma", 0.04)?;
    let samples = flags.positive("samples", 20_000)?;
    let est = simulate_yield(&arch, &CollisionModel::default(), sigma, samples, 17);
    println!("{arch}");
    println!("  sigma           : {sigma} GHz");
    println!("  samples         : {samples}");
    println!("  yield           : {:.4}", est.yield_rate);
    println!("  mean collisions : {:.2}", est.mean_collisions);
    Ok(())
}

/// A fault campaign `pcd chaos --campaign <kind>` can run.
struct Campaign {
    kind: &'static str,
    /// Flags the campaign reads (space-separated), beyond those every
    /// `chaos` run reads (see [`check_flags`]).
    reads: &'static str,
    /// obs counters (space-separated) printed after the report.
    counters: &'static str,
}

const CAMPAIGNS: [Campaign; 5] = [
    Campaign {
        kind: "pipeline",
        reads: "seed fault-rate trials restarts bond",
        counters: "resilience.faults_injected resilience.retries resilience.fallbacks",
    },
    Campaign {
        kind: "kill-resume",
        reads: "bond ratio kill-every samples checkpoint",
        counters: "",
    },
    Campaign {
        kind: "supervised",
        reads: "seed trials jobs workers fault-rate flight-dir",
        counters: "supervisor.panics_caught supervisor.timeouts supervisor.jobs_shed \
                   supervisor.breaker_opened",
    },
    Campaign {
        kind: "serve",
        reads: "seed trials requests workers fault-rate scratch-dir flight-dir",
        counters: "",
    },
    Campaign {
        kind: "net",
        reads: "seed trials jobs workers threads fault-rate net-fault-rate scratch-dir",
        counters: "net.coord.takeovers net.coord.results_deduped net.proxy.dropped \
                   net.proxy.corrupted net.proxy.duplicated net.proxy.severed net.proxy.refused",
    },
];

/// The boolean campaign selectors `--campaign` replaced.
const RETIRED_CHAOS_SELECTORS: [&str; 4] = ["kill-resume", "supervised", "net", "serve"];

/// The campaign `--campaign` selects (default `pipeline`).
fn campaign(flags: &Flags) -> Result<&'static Campaign, String> {
    let kind = flags.get("campaign").unwrap_or("pipeline");
    CAMPAIGNS.iter().find(|c| c.kind == kind).ok_or_else(|| {
        let kinds: Vec<&str> = CAMPAIGNS.iter().map(|c| c.kind).collect();
        format!(
            "unknown campaign `{kind}`; --campaign takes one of: {}",
            kinds.join(", ")
        )
    })
}

/// Runs one fault campaign, prints its report, and exits 20 when any
/// trial broke an invariant.
fn cmd_chaos(flags: &Flags) -> Result<(), CliError> {
    let campaign = campaign(flags)?;
    let kind = campaign.kind;
    let molecule = match (kind, flags.positional.is_empty()) {
        (_, true) => Benchmark::H2,
        ("pipeline" | "kill-resume", false) => flags.molecule()?,
        _ => {
            return Err(CliError::Usage(format!(
                "--campaign {kind} takes no molecule"
            )))
        }
    };
    let bond_length = match flags.get("bond") {
        Some(_) => Some(flags.get_f64("bond", 0.0)?),
        None => None,
    };
    let seed = flags.get_u64("seed", if kind == "serve" { 7 } else { 42 })?;
    let trials = flags.positive(
        "trials",
        match kind {
            "pipeline" => 40,
            "supervised" => 20,
            _ => 2,
        },
    )?;
    let fault_rate = flags.rate(
        "fault-rate",
        match kind {
            "pipeline" => 0.1,
            "serve" => 0.05,
            _ => 0.25,
        },
    )?;
    let jobs = flags.positive("jobs", 6)?;
    let workers = flags.positive("workers", if kind == "net" { 3 } else { 2 })?;
    if kind == "net" && workers < 2 {
        return Err(CliError::Usage(
            "--campaign net needs --workers of at least 2 (someone must survive the kill)"
                .to_string(),
        ));
    }
    let requests = flags.positive("requests", 10)?;
    let threads = flags.positive("threads", 2)?;
    let net_fault_rate = flags.rate("net-fault-rate", 0.05)?;
    let max_restarts = flags.get_usize("restarts", 3)?;
    let ratio = flags.ratio(0.5)?;
    let kill_every = flags.positive("kill-every", 2)? as u64;
    let samples = flags.positive("samples", 2_000)?;
    let checkpoint_dir = flags.get("checkpoint").map(std::path::PathBuf::from);
    let scratch_dir = flags.get("scratch-dir").map(std::path::PathBuf::from);
    let flight_dir = flags.get("flight-dir").map(std::path::PathBuf::from);
    if let Some(dir) = &flight_dir {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("creating flight dir {}: {e}", dir.display()))?;
    }
    let pcd_exe = std::env::current_exe().map_err(|e| format!("locating the pcd binary: {e}"))?;

    // Campaigns always record, so the obs counters below can be read
    // back even without --trace/--metrics.
    obs::enable();
    let report = match kind {
        "pipeline" => run_chaos(&ChaosOptions {
            seed,
            fault_rate,
            trials,
            benchmark: molecule,
            bond_length,
            max_restarts,
        }),
        "kill-resume" => run_kill_resume(&KillResumeOptions {
            benchmark: molecule,
            bond_length,
            ratio,
            kill_every,
            samples,
            checkpoint_dir,
        })?,
        "supervised" => run_supervised_chaos(&SupervisedChaosOptions {
            seed,
            trials,
            jobs,
            workers,
            fault_rate,
            check_drain: true,
            flight_dir: flight_dir.clone(),
        }),
        "serve" => run_serve_chaos(&ServeChaosOptions {
            seed,
            trials,
            requests,
            workers,
            fault_rate,
            scratch_dir: scratch_dir
                .unwrap_or_else(|| std::env::temp_dir().join("pcd-serve-chaos")),
            flight_dir: flight_dir.clone(),
            pcd_exe: Some(pcd_exe),
        }),
        _ => run_net_chaos(&NetChaosOptions {
            seed,
            trials,
            jobs,
            workers,
            threads,
            fault_rate,
            net_fault_rate,
            pcd_exe,
            scratch_dir,
        }),
    };

    print!("{report}");
    let snapshot = obs::snapshot();
    for counter in campaign.counters.split_whitespace() {
        println!(
            "  obs {:<28}: {}",
            counter,
            snapshot.counters.get(counter).copied().unwrap_or(0)
        );
    }
    if let Some(dir) = &flight_dir {
        let dumps = std::fs::read_dir(dir)
            .map(|rd| {
                rd.filter_map(Result::ok)
                    .filter(|e| e.file_name().to_string_lossy().starts_with("flight-"))
                    .count()
            })
            .unwrap_or(0);
        println!("  flight dumps     : {dumps} in {}", dir.display());
    }
    if !report.survived() {
        return Err(CliError::ChaosUnsurvived {
            failed: report.failures(),
            trials: report.trials.len(),
        });
    }
    Ok(())
}

fn cmd_serve(flags: &Flags) -> Result<(), CliError> {
    let state_dir = std::path::PathBuf::from(flags.get("state-dir").unwrap_or("serve-state"));
    let socket = flags.get("socket").map(std::path::PathBuf::from);
    let workers = flags.get_usize("workers", 2)?.max(1);
    let seed = flags.get_u64("seed", 42)?;
    let queue_cap = flags.get_usize("queue-cap", 0)?;
    let shed = ShedPolicy::parse(flags.get("shed").unwrap_or("reject-new"))?;
    let max_retries = flags.get_usize("max-retries", 3)?;
    let slice_ticks = flags.get_u64("slice-ticks", 0)?;
    let max_slices = flags.get_usize("max-slices", 64)?;
    let breaker_threshold = flags.get_usize("breaker", 3)?;
    let fault_rate = flags.rate("fault-rate", 0.0)?;
    let request_deadline = match flags.get_u64("deadline-ms", 0)? {
        0 => None,
        ms => Some(std::time::Duration::from_millis(ms)),
    };
    let max_requests = match flags.get_usize("max-requests", 0)? {
        0 => None,
        n => Some(n),
    };
    let idle_exit = match flags.get_u64("idle-exit-ms", 0)? {
        0 => None,
        ms => Some(std::time::Duration::from_millis(ms)),
    };
    let flight_dir = flags.get("flight-dir").map(std::path::PathBuf::from);
    if let Some(dir) = &flight_dir {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("creating flight dir {}: {e}", dir.display()))?;
    }
    let cache_max_bytes = match flags.get_u64("cache-max-bytes", 0)? {
        0 => None,
        bytes => Some(bytes),
    };

    let config = ServeConfig {
        state_dir,
        socket,
        workers,
        seed,
        queue_cap,
        shed,
        max_retries,
        slice_ticks,
        max_slices,
        breaker_threshold,
        fault_rate,
        request_deadline,
        max_requests,
        idle_exit,
        flight_dir,
        cache_max_bytes,
    };
    eprintln!(
        "pcd serve: listening on {} ({} worker(s), seed {seed}, state in {})",
        config.socket_path().display(),
        config.workers,
        config.state_dir.display()
    );

    let summary = run_serve(&config)?;
    println!(
        "serve: {} accepted, {} done ({} cache hit(s), {} miss(es)), \
         {} shed, {} cancelled, {} quarantined, {} resumed",
        summary.accepted,
        summary.done,
        summary.cache_hits,
        summary.cache_misses,
        summary.shed,
        summary.cancelled,
        summary.quarantined,
        summary.resumed,
    );
    if summary.cache_quarantined > 0 {
        println!(
            "  {} corrupt cache entrie(s) quarantined aside and recomputed",
            summary.cache_quarantined
        );
    }
    if summary.drained {
        println!(
            "  drained: restart state sealed in {}",
            config.manifest_path().display()
        );
        return Err(CliError::ServeDrained {
            pending: summary.pending,
        });
    }
    Ok(())
}

fn print_batch_report(report: &BatchReport) {
    println!(
        "{:<4} {:<14} {:<12} {:>12} {:>8}  detail",
        "#", "job", "state", "energy", "retries"
    );
    for record in &report.records {
        let (energy, detail) = match &record.state {
            JobState::Done {
                iterations,
                scf_retries,
                sabre_fallback,
                ..
            } => (
                record
                    .energy()
                    .map(|e| format!("{e:.6}"))
                    .unwrap_or_default(),
                format!(
                    "{iterations} iters{}{}",
                    if *scf_retries > 0 {
                        format!(", {scf_retries} scf retries")
                    } else {
                        String::new()
                    },
                    if *sabre_fallback { ", sabre" } else { "" }
                ),
            ),
            JobState::Quarantined { stage, error, .. } => {
                (String::new(), format!("{stage}: {error}"))
            }
            JobState::Shed => (String::new(), "shed by admission control".to_string()),
            JobState::Pending { attempt, .. } => {
                (String::new(), format!("pending at attempt {attempt}"))
            }
        };
        println!(
            "{:<4} {:<14} {:<12} {:>12} {:>8}  {}",
            record.index,
            record.id,
            record.state.label(),
            energy,
            record.retries,
            detail
        );
    }
    println!(
        "batch: {} done, {} quarantined, {} shed, {} pending",
        report.done(),
        report.quarantined(),
        report.shed(),
        report.pending()
    );
}

fn cmd_batch(flags: &Flags) -> Result<(), CliError> {
    // Shards exist only under a coordinator, which grants them; a
    // multi-process batch on one host is a loopback --listen plus local
    // --connect workers.
    if (flags.is_set("shards") && !flags.is_set("listen")) || flags.is_set("shard-id") {
        return Err(CliError::Usage(
            "--shards needs --listen: shards are granted by a coordinator to \
             `batch --connect` workers"
                .to_string(),
        ));
    }
    if flags.is_set("listen") && flags.is_set("resume") {
        return Err(CliError::Usage(
            "--resume does not apply to --listen: the coordinator does not resume; \
             resume a drained manifest with a plain `pcd batch JOBS.jsonl --checkpoint DIR \
             --resume`"
                .to_string(),
        ));
    }
    // Worker mode has no jobs file: the batch identity (jobs, seed,
    // fault rate) arrives over the wire in the coordinator's welcome.
    if flags.is_set("connect") {
        return cmd_batch_worker(flags);
    }
    let jobs_path = flags
        .positional
        .first()
        .ok_or_else(|| CliError::Usage("a JOBS.jsonl file is required".to_string()))?;
    let text = std::fs::read_to_string(jobs_path)
        .map_err(|e| CliError::Usage(format!("reading {jobs_path}: {e}")))?;
    let jobs = parse_jobs(&text).map_err(CliError::Usage)?;

    let mut config = SupervisorConfig {
        workers: flags.get_usize("workers", 2)?.max(1),
        batch_seed: flags.get_u64("seed", 42)?,
        max_retries: flags.get_usize("max-retries", 3)?,
        queue_cap: flags.get_usize("queue-cap", 0)?,
        shed: ShedPolicy::parse(flags.get("shed").unwrap_or("reject-new"))?,
        slice_ticks: flags.get_u64("slice-ticks", 0)?,
        breaker_threshold: flags.get_usize("breaker", 3)?,
        pipeline_fault_rate: flags.rate("fault-rate", 0.0)?,
        ..SupervisorConfig::default()
    };
    if config.pipeline_fault_rate > 0.0 {
        config.injection = InjectionPlan::chaos(config.pipeline_fault_rate);
    }
    config.backoff.base_ms = flags.get_u64("backoff-ms", 0)?;
    if let Some(secs) = flags.get("job-timeout") {
        let secs: f64 = secs
            .parse()
            .map_err(|_| CliError::Usage(format!("--job-timeout expects seconds, got `{secs}`")))?;
        if secs.is_nan() || secs <= 0.0 {
            return Err(CliError::Usage(
                "--job-timeout must be positive".to_string(),
            ));
        }
        config.slice_wall = Some(Duration::from_secs_f64(secs));
        // One wall-clock slice per attempt unless the caller asked for a
        // finer slicing explicitly.
        config.max_slices = flags.get_usize("max-slices", 1)?;
    } else {
        config.max_slices = flags.get_usize("max-slices", 64)?;
    }
    if let Some(secs) = flags.get("deadline") {
        let secs: f64 = secs
            .parse()
            .map_err(|_| CliError::Usage(format!("--deadline expects seconds, got `{secs}`")))?;
        config.deadline = Some(Duration::from_secs_f64(secs));
    }
    if flags.is_set("drain-after-ticks") {
        config.drain_after_ticks = Some(flags.get_u64("drain-after-ticks", 0)?);
    }
    if let Some(dir) = flags.get("checkpoint") {
        config.ckpt_dir = Some(std::path::PathBuf::from(dir));
    }
    if let Some(dir) = flags.get("flight-dir") {
        config.flight_dir = Some(std::path::PathBuf::from(dir));
    }
    // The monitor thread only observes (it cannot influence job
    // outcomes), so it is always on for `pcd batch`: snapshots land in
    // the --trace JSONL, and --progress additionally renders the live
    // stderr line.
    let interval_ms = flags.get_u64("progress-interval-ms", 500)?;
    if interval_ms == 0 {
        return Err(CliError::Usage(
            "--progress-interval-ms must be positive".to_string(),
        ));
    }
    config.progress_interval = Some(Duration::from_millis(interval_ms));
    config.progress_stderr = flags.is_set("progress");

    // Coordinator mode: serve the batch to TCP workers.
    if flags.is_set("listen") {
        return cmd_batch_coordinator(flags, &jobs, &config);
    }
    let report = if flags.is_set("resume") {
        let dir = config
            .ckpt_dir
            .clone()
            .ok_or_else(|| CliError::Usage("--resume needs --checkpoint DIR".to_string()))?;
        let manifest_path = dir.join("batch.manifest");
        let ck = Checkpoint::read(&manifest_path).map_err(PcdError::from)?;
        let (meta, prior) =
            pauli_codesign::supervisor::decode_manifest(&ck).map_err(PcdError::from)?;
        // The manifest is authoritative for the determinism keys: resume
        // with its seed and fault rate, whatever the flags say.
        config.batch_seed = meta.batch_seed;
        config.pipeline_fault_rate = meta.pipeline_fault_rate;
        config.injection = if meta.pipeline_fault_rate > 0.0 {
            InjectionPlan::chaos(meta.pipeline_fault_rate)
        } else {
            InjectionPlan::none()
        };
        run_batch_resumed(&jobs, &config, Some(&prior))?
    } else {
        run_batch_resumed(&jobs, &config, None)?
    };

    print_batch_report(&report);
    if report.pending() > 0 {
        return Err(CliError::BatchDrained {
            pending: report.pending(),
        });
    }
    if report.quarantined() + report.shed() > 0 {
        return Err(CliError::BatchDegraded {
            quarantined: report.quarantined(),
            shed: report.shed(),
        });
    }
    Ok(())
}

/// `pcd batch JOBS.jsonl --listen ADDR --shards N --checkpoint DIR`:
/// coordinate a multi-machine batch over TCP and seal the same
/// `batch.manifest` a single-machine run would.
fn cmd_batch_coordinator(
    flags: &Flags,
    jobs: &[pauli_codesign::supervisor::JobSpec],
    config: &SupervisorConfig,
) -> Result<(), CliError> {
    let listen = parse_addr(flags, "listen")?;
    let opts = CoordinatorOptions {
        listen,
        shards: flags.get_usize("shards", 2)?,
        lease_ms: flags.get_u64("lease-ms", 500)?,
        heartbeat_ms: flags.get_u64("heartbeat-ms", 100)?,
        deadline: Duration::from_secs(flags.get_u64("net-deadline", 120)?.max(1)),
        rescue: !flags.is_set("no-rescue"),
    };
    let coordinator = Coordinator::bind(jobs, config, opts).map_err(CliError::Remote)?;
    eprintln!(
        "pcd batch: coordinating {} job(s) as {} shard(s) on {}",
        jobs.len(),
        flags.get_usize("shards", 2)?,
        coordinator.addr()
    );
    let report = coordinator.run().map_err(CliError::Remote)?;

    for takeover in &report.takeovers {
        println!(
            "  took over shard {} from {} at epoch {}",
            takeover.shard_id, takeover.from, takeover.epoch
        );
    }
    for shard in &report.rescued {
        println!("  rescued shard {shard} in-process after losing its workers");
    }
    if report.deduped > 0 {
        println!(
            "  deduplicated {} bit-identical resent record(s)",
            report.deduped
        );
    }
    let (done, quarantined, shed, pending) =
        report
            .records
            .iter()
            .fold((0, 0, 0, 0), |(d, q, s, p), r| match r.state.label() {
                "done" => (d + 1, q, s, p),
                "quarantined" => (d, q + 1, s, p),
                "shed" => (d, q, s + 1, p),
                _ => (d, q, s, p + 1),
            });
    println!("batch: {done} done, {quarantined} quarantined, {shed} shed, {pending} pending");
    if pending > 0 {
        return Err(CliError::BatchDrained { pending });
    }
    if quarantined + shed > 0 {
        return Err(CliError::BatchDegraded { quarantined, shed });
    }
    Ok(())
}

/// `pcd batch --connect ADDR`: join a coordinated batch as a worker.
fn cmd_batch_worker(flags: &Flags) -> Result<(), CliError> {
    if !flags.positional.is_empty() {
        return Err(CliError::Usage(
            "--connect takes no jobs file: the batch identity arrives over the wire".to_string(),
        ));
    }
    let connect = parse_addr(flags, "connect")?;
    let worker_id = flags
        .get("worker-id")
        .map(str::to_string)
        .unwrap_or_else(|| format!("worker-{}", std::process::id()));
    let mut opts = WorkerOptions {
        connect,
        worker_id,
        threads: flags.get_usize("workers", 2)?.max(1),
        max_reconnects: flags.get_usize("max-reconnects", 8)?,
        local_dir: flags.get("local-dir").map(std::path::PathBuf::from),
        ..WorkerOptions::default()
    };
    if flags.is_set("backoff-ms") {
        opts.backoff.base_ms = flags.get_u64("backoff-ms", 10)?;
    }
    eprintln!(
        "pcd batch: worker {} connecting to {}",
        opts.worker_id, opts.connect
    );
    let report = run_worker(&opts).map_err(|e| {
        if let (RemoteError::TransportLost(_), Some(dir)) = (&e, &opts.local_dir) {
            eprintln!(
                "transport lost: partial progress (if any) sealed under {} — \
                 rerun the same command to resume",
                dir.display()
            );
        }
        CliError::Remote(e)
    })?;
    println!(
        "worker {}: {} shard(s) run {:?}, {} record(s) delivered, {} reconnect(s)",
        report.worker_id,
        report.shards_run.len(),
        report.shards_run,
        report.records_sent,
        report.reconnects
    );
    if !report.reconnect_delays_ms.is_empty() {
        println!(
            "  reconnect backoff ladder (ms): {:?}",
            report.reconnect_delays_ms
        );
    }
    Ok(())
}

/// Parses `--<key> HOST:PORT` as a socket address.
fn parse_addr(flags: &Flags, key: &str) -> Result<std::net::SocketAddr, CliError> {
    let value = flags
        .get(key)
        .ok_or_else(|| CliError::Usage(format!("--{key} needs HOST:PORT")))?;
    value
        .parse()
        .map_err(|_| CliError::Usage(format!("--{key} expects HOST:PORT, got `{value}`")))
}

/// One benchmark measurement destined for the JSON report.
struct BenchRecord {
    name: String,
    median_ns: u64,
    threads: usize,
    n_qubits: usize,
}

/// Deterministic pseudo-random Pauli sum (no chemistry needed for kernels).
fn synthetic_hamiltonian(n: usize, terms: usize) -> pauli_codesign::pauli::WeightedPauliSum {
    use pauli_codesign::pauli::{PauliString, WeightedPauliSum};
    let mut h = WeightedPauliSum::new(n);
    let mut state = 0x1234_5678_9abc_def0u64;
    for k in 0..terms {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let x = state & ((1 << n) - 1);
        state = state.wrapping_mul(0x2545_F491_4F6C_DD1D);
        let z = state & ((1 << n) - 1);
        h.push(
            0.01 * (k as f64 + 1.0),
            PauliString::from_symplectic(n, x, z),
        );
    }
    h
}

/// Deterministic normalized pseudo-random statevector.
fn synthetic_state(n_qubits: usize) -> pauli_codesign::sim::Statevector {
    use pauli_codesign::numeric::Complex64;
    let mut s = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        (s >> 11) as f64 / (1u64 << 53) as f64 - 0.5
    };
    let amps: Vec<Complex64> = (0..1usize << n_qubits)
        .map(|_| Complex64::new(next(), next()))
        .collect();
    let norm = amps.iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt();
    pauli_codesign::sim::Statevector::from_amplitudes(amps.into_iter().map(|z| z / norm).collect())
}

/// Host metadata pinned into bench artifacts, so the drift gate can tell
/// a hardware change from a real regression: worker threads the run used,
/// cores the host offers, and the git revision that produced the numbers.
fn bench_meta_json(threads: usize) -> String {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(0);
    let git_rev = std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    format!("{{\"threads\": {threads}, \"cores\": {cores}, \"git_rev\": \"{git_rev}\"}}")
}

fn write_bench_json(
    path: &str,
    records: &[BenchRecord],
    meta: &str,
    clusters: Option<&str>,
) -> Result<(), String> {
    let mut json = String::from("{\n");
    json.push_str(&format!("  \"_meta\": {meta},\n"));
    if let Some(c) = clusters {
        json.push_str(&format!("  \"_clusters\": {c},\n"));
    }
    for (i, r) in records.iter().enumerate() {
        json.push_str(&format!(
            "  \"{}\": {{\"median_ns\": {}, \"threads\": {}, \"n_qubits\": {}}}{}\n",
            r.name,
            r.median_ns,
            r.threads,
            r.n_qubits,
            if i + 1 < records.len() { "," } else { "" }
        ));
    }
    json.push_str("}\n");
    // Atomic rename: a crash mid-bench must not leave a truncated report
    // for a later --baseline comparison to choke on.
    obs::atomic_write(path, json.as_bytes()).map_err(|e| format!("writing {path}: {e}"))
}

/// Relative slowdown beyond which `--baseline` fails the run.
const BENCH_TOLERANCE: f64 = 0.10;

/// Compares fresh measurements against a baseline's medians and
/// returns one line per benchmark slower than `tolerance` (relative).
/// Benchmarks missing from the baseline are skipped — a new benchmark
/// cannot regress.
fn bench_regressions(
    baseline: &std::collections::BTreeMap<String, u64>,
    records: &[BenchRecord],
    tolerance: f64,
) -> Vec<String> {
    let now = records.iter().map(|r| (r.name.as_str(), r.median_ns));
    compare_medians(now, baseline, tolerance)
        .1
        .iter()
        .map(|d| {
            format!(
                "{}: {} ns vs baseline {} ns (+{:.1}%)",
                d.name,
                d.now_ns,
                d.baseline_ns,
                (d.ratio - 1.0) * 100.0
            )
        })
        .collect()
}

/// Parses a `--history` file: `{"reports": [{name: median_ns, ...}, ...]}`
/// with the oldest report first. A missing file is an empty history.
fn parse_bench_history(text: &str) -> Result<Vec<std::collections::BTreeMap<String, u64>>, String> {
    let root = obs::json::parse(text).map_err(|e| format!("parsing history: {e}"))?;
    let Some(obs::json::JsonValue::Array(entries)) = root.get("reports") else {
        return Err("history: missing `reports` array".to_string());
    };
    entries
        .iter()
        .enumerate()
        .map(|(i, entry)| match entry {
            obs::json::JsonValue::Object(fields) => fields
                .iter()
                .map(|(name, v)| {
                    v.as_u64()
                        .map(|ns| (name.clone(), ns))
                        .ok_or_else(|| format!("history report {i}: `{name}` is not an integer"))
                })
                .collect(),
            _ => Err(format!("history report {i} is not an object")),
        })
        .collect()
}

fn write_bench_history(
    path: &str,
    reports: &[std::collections::BTreeMap<String, u64>],
    meta: &str,
) -> Result<(), String> {
    let mut json = format!("{{\"_meta\": {meta},\n\"reports\": [\n");
    for (i, report) in reports.iter().enumerate() {
        json.push_str("  {");
        for (j, (name, ns)) in report.iter().enumerate() {
            json.push_str(&format!(
                "\"{name}\": {ns}{}",
                if j + 1 < report.len() { ", " } else { "" }
            ));
        }
        json.push_str(if i + 1 < reports.len() { "},\n" } else { "}\n" });
    }
    json.push_str("]}\n");
    obs::atomic_write(path, json.as_bytes()).map_err(|e| format!("writing {path}: {e}"))
}

/// Cumulative-drift check over the rolling window: the newest report
/// (last) is compared against the *oldest* in the window, so a sequence of
/// small slowdowns that each pass the per-run `--tolerance` still fails
/// once their product creeps past `tolerance`.
fn bench_drift(window: &[std::collections::BTreeMap<String, u64>], tolerance: f64) -> Vec<String> {
    let (Some(oldest), Some(newest)) = (window.first(), window.last()) else {
        return Vec::new();
    };
    if window.len() < 2 {
        return Vec::new();
    }
    let now = newest.iter().map(|(name, &ns)| (name.as_str(), ns));
    compare_medians(now, oldest, tolerance)
        .1
        .iter()
        .map(|d| {
            format!(
                "{}: {} ns vs {} ns {} report(s) ago (+{:.1}% cumulative)",
                d.name,
                d.now_ns,
                d.baseline_ns,
                window.len() - 1,
                (d.ratio - 1.0) * 100.0
            )
        })
        .collect()
}

fn cmd_bench(flags: &Flags) -> Result<(), CliError> {
    use pauli_codesign::chem::integrals::EriTensor;
    use pauli_codesign::circuit::Gate;
    use pauli_codesign::pauli::PauliString;
    use pauli_codesign::{par, vqe};

    if flags.is_set("obs-overhead") {
        return cmd_obs_overhead(flags);
    }

    let smoke = flags.is_set("smoke");
    let out_path = flags
        .get("out")
        .unwrap_or("BENCH_pipeline.json")
        .to_string();
    let n_qubits = flags.get_usize("qubits", if smoke { 12 } else { 14 })?;
    if !(2..=24).contains(&n_qubits) {
        return Err(CliError::Usage("--qubits must be in 2..=24".to_string()));
    }
    let (warmup, samples) = if smoke { (1, 3) } else { (3, 15) };
    let yield_samples = if smoke { 2_000 } else { 20_000 };
    let threads = par::num_threads();
    obs::enable();

    println!(
        "pcd bench — {n_qubits}-qubit kernels, {threads} worker thread(s){}",
        if smoke { " (smoke)" } else { "" }
    );
    println!(
        "{:<28} {:>14} {:>14} {:>9}",
        "benchmark", "serial (ns)", "parallel (ns)", "speedup"
    );

    let mut records: Vec<BenchRecord> = Vec::new();
    let pair = |records: &mut Vec<BenchRecord>,
                name: &str,
                size: usize,
                serial: criterion::Measurement,
                parallel: criterion::Measurement| {
        println!(
            "{name:<28} {:>14} {:>14} {:>8.2}x",
            serial.median_ns,
            parallel.median_ns,
            serial.median_ns as f64 / parallel.median_ns.max(1) as f64
        );
        records.push(BenchRecord {
            name: format!("{name}_serial"),
            median_ns: serial.median_ns,
            threads: 1,
            n_qubits: size,
        });
        records.push(BenchRecord {
            name: format!("{name}_parallel"),
            median_ns: parallel.median_ns,
            threads,
            n_qubits: size,
        });
    };

    // Hamiltonian expectation on a statevector: the VQE inner loop.
    let h = synthetic_hamiltonian(n_qubits, 64);
    let sv = synthetic_state(n_qubits);
    let serial = criterion::measure(warmup, samples, || {
        par::with_threads(1, || sv.expectation(&h))
    });
    let serial_expectation_ns = serial.median_ns;
    let parallel = criterion::measure(warmup, samples, || sv.expectation(&h));
    pair(&mut records, "expectation", n_qubits, serial, parallel);

    // Cluster-diagonalized expectation on the same Hamiltonian and state.
    // The partition build is measured inside the closure — it is a
    // per-Hamiltonian cost a caller pays once, dwarfed by the sweeps.
    let clustered = criterion::measure(warmup, samples, || sv.expectation_clustered(&h));
    let cluster_stats = pauli_codesign::pauli::ClusteredSum::build(&h).stats();
    println!(
        "{:<28} {:>14} {:>14} {:>8.2}x",
        "expectation_clustered",
        serial_expectation_ns,
        clustered.median_ns,
        serial_expectation_ns as f64 / clustered.median_ns.max(1) as f64
    );
    let clustered_ns = clustered.median_ns;
    records.push(BenchRecord {
        name: "expectation_clustered".to_string(),
        median_ns: clustered_ns,
        threads,
        n_qubits,
    });
    // In-bench gate: the whole point of the clustered evaluator is to beat
    // the per-term serial sweep on this Hamiltonian. Falling behind it is
    // a regression regardless of any --baseline file.
    if clustered_ns >= serial_expectation_ns {
        return Err(CliError::BenchRegression(vec![format!(
            "expectation_clustered: {clustered_ns} ns not faster than expectation_serial \
             {serial_expectation_ns} ns"
        )]));
    }

    // Grouped H|ψ⟩ (one pair sweep per distinct flip mask) at one thread:
    // the Lanczos matvec and the H|ψ⟩ inside every gradient.
    let mut h_psi = vec![pauli_codesign::numeric::Complex64::ZERO; 1 << n_qubits];
    let h_apply = criterion::measure(warmup, samples, || {
        par::with_threads(1, || h.apply(sv.amplitudes(), &mut h_psi))
    });
    println!("{:<28} {:>14}", "h_apply", h_apply.median_ns);
    records.push(BenchRecord {
        name: "h_apply".to_string(),
        median_ns: h_apply.median_ns,
        threads: 1,
        n_qubits,
    });

    // Fused adjoint gradient against its per-entry parameter-shift oracle
    // at one thread, on a chemistry-free UCCSD IR (2 electrons) and the
    // synthetic H. In-bench gate: the fused walk exists to beat the
    // unfused one, so falling behind it is a regression (exit 21).
    if n_qubits % 2 == 0 && n_qubits >= 4 {
        let ir = UccsdAnsatz::new(n_qubits / 2, 2).into_ir();
        let theta: Vec<f64> = (0..ir.num_parameters())
            .map(|k| 0.05 * ((k % 7) as f64 - 3.0))
            .collect();
        let fused = criterion::measure(warmup, samples, || {
            par::with_threads(1, || vqe::energy_and_gradient(&h, &ir, &theta))
        });
        let oracle = criterion::measure(warmup, samples, || {
            par::with_threads(1, || vqe::parameter_shift_gradient(&h, &ir, &theta))
        });
        println!(
            "{:<28} {:>14} {:>14} {:>8.2}x",
            "vqe_gradient (oracle/fused)",
            oracle.median_ns,
            fused.median_ns,
            oracle.median_ns as f64 / fused.median_ns.max(1) as f64
        );
        for (name, m) in [
            ("vqe_gradient_oracle", &oracle),
            ("vqe_gradient_fused", &fused),
        ] {
            records.push(BenchRecord {
                name: name.to_string(),
                median_ns: m.median_ns,
                threads: 1,
                n_qubits,
            });
        }
        if fused.median_ns >= oracle.median_ns {
            return Err(CliError::BenchRegression(vec![format!(
                "vqe_gradient_fused: {} ns not faster than vqe_gradient_oracle {} ns",
                fused.median_ns, oracle.median_ns
            )]));
        }
    } else {
        println!("vqe_gradient: skipped (a UCCSD register needs an even qubit count ≥ 4)");
    }

    // Exact reference of H2O at equilibrium at one thread: Lanczos on the
    // 225-state N-electron sector (CSR build included) against its oracle,
    // Lanczos on the 4,096-state Fock space. In-bench gate: the sector
    // solve exists to beat the full-space one (exit 21 otherwise).
    let h2o = Benchmark::H2O
        .build(Benchmark::H2O.equilibrium_bond_length())
        .map_err(PcdError::from)?;
    let sector = criterion::measure(warmup, samples, || {
        par::with_threads(1, || h2o.exact_ground_state_energy())
    });
    let fullspace = criterion::measure(warmup, samples, || {
        par::with_threads(1, || h2o.qubit_hamiltonian().ground_state_energy())
    });
    println!(
        "{:<28} {:>14} {:>14} {:>8.2}x",
        "exact_h2o (fullspace/sector)",
        fullspace.median_ns,
        sector.median_ns,
        fullspace.median_ns as f64 / sector.median_ns.max(1) as f64
    );
    for (name, m) in [("exact_sector", &sector), ("exact_fullspace", &fullspace)] {
        records.push(BenchRecord {
            name: name.to_string(),
            median_ns: m.median_ns,
            threads: 1,
            n_qubits: h2o.num_qubits(),
        });
    }
    if sector.median_ns >= fullspace.median_ns {
        return Err(CliError::BenchRegression(vec![format!(
            "exact_sector: {} ns not faster than exact_fullspace {} ns",
            sector.median_ns, fullspace.median_ns
        )]));
    }

    // The VQE objective of H2O at equilibrium, ratio 0.5, at one thread:
    // energy + adjoint gradient on the 225-state electron sector (the
    // SectorAnsatz build included, as each VQE run pays it) against the
    // full-space fused path on 4,096 amplitudes. In-bench gate: the sector
    // evaluator exists to beat the full-space one (exit 21 otherwise).
    let (h2o_ir, _) = stages::ansatz(&h2o, 0.5);
    let h2o_h = h2o.qubit_hamiltonian();
    let h2o_theta: Vec<f64> = (0..h2o_ir.num_parameters())
        .map(|k| 0.02 * ((k % 5) as f64 - 2.0))
        .collect();
    let vqe_sector = criterion::measure(warmup, samples, || {
        par::with_threads(1, || {
            SectorAnsatz::build(h2o_h, &h2o_ir).map(|s| s.energy_and_gradient(&h2o_theta))
        })
    });
    let vqe_fullspace = criterion::measure(warmup, samples, || {
        par::with_threads(1, || vqe::energy_and_gradient(h2o_h, &h2o_ir, &h2o_theta))
    });
    println!(
        "{:<28} {:>14} {:>14} {:>8.2}x",
        "vqe_h2o (fullspace/sector)",
        vqe_fullspace.median_ns,
        vqe_sector.median_ns,
        vqe_fullspace.median_ns as f64 / vqe_sector.median_ns.max(1) as f64
    );
    for (name, m) in [
        ("vqe_sector", &vqe_sector),
        ("vqe_fullspace", &vqe_fullspace),
    ] {
        records.push(BenchRecord {
            name: name.to_string(),
            median_ns: m.median_ns,
            threads: 1,
            n_qubits: h2o.num_qubits(),
        });
    }
    if vqe_sector.median_ns >= vqe_fullspace.median_ns {
        return Err(CliError::BenchRegression(vec![format!(
            "vqe_sector: {} ns not faster than vqe_fullspace {} ns",
            vqe_sector.median_ns, vqe_fullspace.median_ns
        )]));
    }

    // Pauli-string evolution spanning the full register.
    let ops = ["X", "Y", "Z"];
    let label: String = (0..n_qubits).map(|q| ops[q % 3]).collect();
    let p: PauliString = match label.parse() {
        Ok(p) => p,
        Err(_) => unreachable!("XYZ cycle always parses"),
    };
    let mut evolved = sv.clone();
    let serial = criterion::measure(warmup, samples, || {
        par::with_threads(1, || evolved.apply_pauli_evolution(&p, 0.137))
    });
    let parallel = criterion::measure(warmup, samples, || evolved.apply_pauli_evolution(&p, 0.137));
    pair(&mut records, "pauli_evolution", n_qubits, serial, parallel);

    // Single-qubit gate kernel.
    let mut rotated = sv.clone();
    let gate = Gate::Rx(n_qubits / 2, 0.21);
    let serial = criterion::measure(warmup, samples, || {
        par::with_threads(1, || rotated.apply_gate(&gate))
    });
    let parallel = criterion::measure(warmup, samples, || rotated.apply_gate(&gate));
    pair(
        &mut records,
        "single_qubit_gate",
        n_qubits,
        serial,
        parallel,
    );

    // Symmetric ERI-tensor build with a synthetic integrand standing in
    // for the primitive-quartet contraction.
    let nb = if smoke { 8 } else { 10 };
    let integrand = |p: usize, q: usize, r: usize, s: usize| {
        let mut acc = 0.0f64;
        for k in 0..200 {
            acc += ((p + 1) * (q + 2) * (r + 3) * (s + 4)) as f64 / ((k + 1) as f64 * 7.3).sqrt();
        }
        acc
    };
    let serial = criterion::measure(warmup, samples, || {
        par::with_threads(1, || EriTensor::from_fn_symmetric(nb, integrand))
    });
    let parallel = criterion::measure(warmup, samples, || {
        EriTensor::from_fn_symmetric(nb, integrand)
    });
    pair(&mut records, "eri_build", nb, serial, parallel);

    // Fabrication-yield Monte Carlo on the 17-qubit X-Tree.
    let topo = Topology::xtree(17);
    let model = CollisionModel::default();
    let serial = criterion::measure(warmup, samples, || {
        par::with_threads(1, || simulate_yield(&topo, &model, 0.04, yield_samples, 17))
    });
    let parallel = criterion::measure(warmup, samples, || {
        simulate_yield(&topo, &model, 0.04, yield_samples, 17)
    });
    pair(&mut records, "yield_xtree17", 17, serial, parallel);

    // Finite-difference gradient of the H2 VQE energy.
    let system = Benchmark::H2
        .build(Benchmark::H2.equilibrium_bond_length())
        .map_err(PcdError::from)?;
    let ir = UccsdAnsatz::for_system(&system).into_ir();
    let params = vec![0.05; ir.num_parameters()];
    let energy = |x: &[f64]| vqe::energy(system.qubit_hamiltonian(), &ir, x);
    let serial = criterion::measure(warmup, samples, || {
        par::with_threads(1, || vqe::fd_gradient(energy, &params, 1e-6))
    });
    let parallel = criterion::measure(warmup, samples, || vqe::fd_gradient(energy, &params, 1e-6));
    pair(
        &mut records,
        "fd_gradient_h2",
        system.num_qubits(),
        serial,
        parallel,
    );

    let meta = bench_meta_json(threads);
    let clusters_json = format!(
        "{{\"clusters\": {}, \"terms\": {}, \"largest\": {}, \"singletons\": {}, \
         \"fused\": {}, \"clifford_ops\": {}, \"clifford_depth\": {}}}",
        cluster_stats.clusters,
        cluster_stats.terms,
        cluster_stats.largest,
        cluster_stats.singletons,
        cluster_stats.fused,
        cluster_stats.clifford_ops,
        cluster_stats.clifford_depth,
    );
    write_bench_json(&out_path, &records, &meta, Some(&clusters_json))?;
    let snapshot = obs::snapshot();
    for counter in ["par.tasks", "par.threads"] {
        println!(
            "obs {:<24}: {}",
            counter,
            snapshot.counters.get(counter).copied().unwrap_or(0)
        );
    }
    println!("report written to {out_path}");

    if let Some(baseline_path) = flags.get("baseline") {
        let tolerance = flags.get_f64("tolerance", BENCH_TOLERANCE * 100.0)? / 100.0;
        if tolerance.is_nan() || tolerance <= 0.0 {
            return Err(CliError::Usage("--tolerance must be positive".to_string()));
        }
        let text = std::fs::read_to_string(baseline_path)
            .map_err(|e| format!("reading baseline {baseline_path}: {e}"))?;
        let baseline = parse_bench_medians(&text)
            .map_err(|e| format!("parsing baseline {baseline_path}: {e}"))?;
        let regressions = bench_regressions(&baseline, &records, tolerance);
        if !regressions.is_empty() {
            return Err(CliError::BenchRegression(regressions));
        }
        println!(
            "baseline check: no benchmark more than {:.0}% slower than {baseline_path}",
            tolerance * 100.0
        );
    }

    if let Some(history_path) = flags.get("history") {
        let window = flags.get_usize("window", 8)?;
        if window < 2 {
            return Err(CliError::Usage("--window must be at least 2".to_string()));
        }
        let drift_tolerance = flags.get_f64("drift-tolerance", 25.0)? / 100.0;
        if drift_tolerance.is_nan() || drift_tolerance <= 0.0 {
            return Err(CliError::Usage(
                "--drift-tolerance must be positive".to_string(),
            ));
        }
        let mut reports = match std::fs::read_to_string(history_path) {
            Ok(text) => {
                parse_bench_history(&text).map_err(|e| format!("history {history_path}: {e}"))?
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(format!("reading history {history_path}: {e}").into()),
        };
        reports.push(
            records
                .iter()
                .map(|r| (r.name.clone(), r.median_ns))
                .collect(),
        );
        let excess = reports.len().saturating_sub(window);
        reports.drain(..excess);
        write_bench_history(history_path, &reports, &meta)?;
        let drifts = bench_drift(&reports, drift_tolerance);
        if !drifts.is_empty() {
            return Err(CliError::BenchRegression(drifts));
        }
        println!(
            "history check: no cumulative creep beyond {:.0}% across {} report(s) in {history_path}",
            drift_tolerance * 100.0,
            reports.len()
        );
    }
    Ok(())
}

/// Per-call budget (ns) for the disabled-tracing fast path.
const OBS_OVERHEAD_BUDGET_NS: f64 = 2000.0;

/// `pcd bench --obs-overhead`: measures span/event/counter/histogram calls
/// with tracing *disabled* — the state every always-on hook (flight ring
/// included) runs in during production batches — and fails with exit 21
/// if any op's per-call cost exceeds the budget.
fn cmd_obs_overhead(flags: &Flags) -> Result<(), CliError> {
    let budget_ns = flags.get_f64("budget-ns", OBS_OVERHEAD_BUDGET_NS)?;
    if budget_ns.is_nan() || budget_ns <= 0.0 {
        return Err(CliError::Usage("--budget-ns must be positive".to_string()));
    }
    // Each op is far below the vendored harness's ~10µs floor, so batch
    // calls per sample and divide.
    const CALLS: usize = 10_000;
    let (warmup, samples) = (3, 15);
    obs::reset();
    obs::disable();

    println!(
        "pcd bench --obs-overhead — disabled-tracing fast path, \
         {CALLS} calls/sample, budget {budget_ns:.0} ns/call"
    );
    println!("{:<28} {:>12}", "op", "ns/call");
    let mut over: Vec<String> = Vec::new();
    let mut check = |name: &str, m: criterion::Measurement| {
        let per_call = m.median_ns as f64 / CALLS as f64;
        println!("{name:<28} {per_call:>12.1}");
        if per_call > budget_ns {
            over.push(format!(
                "{name}: {per_call:.1} ns/call exceeds the {budget_ns:.0} ns budget"
            ));
        }
    };

    let m = criterion::measure(warmup, samples, || {
        for i in 0..CALLS {
            let span = obs::span("bench.overhead.span");
            std::hint::black_box(i);
            drop(span);
        }
    });
    check("span open+drop", m);

    let m = criterion::measure(warmup, samples, || {
        for i in 0..CALLS {
            obs::event!("bench.overhead.event");
            std::hint::black_box(i);
        }
    });
    check("event", m);

    let m = criterion::measure(warmup, samples, || {
        for i in 0..CALLS {
            obs::counter_add("bench.overhead.counter", 1);
            std::hint::black_box(i);
        }
    });
    check("counter_add", m);

    let m = criterion::measure(warmup, samples, || {
        for i in 0..CALLS {
            obs::histogram_record("bench.overhead.hist", i as f64);
            std::hint::black_box(i);
        }
    });
    check("histogram_record", m);

    if !over.is_empty() {
        return Err(CliError::BenchRegression(over));
    }
    println!("obs overhead within budget");
    Ok(())
}

/// Files worth scanning when a `pcd report` input is a directory.
fn report_dir_entries(dir: &std::path::Path) -> Vec<std::path::PathBuf> {
    let Ok(read) = std::fs::read_dir(dir) else {
        return Vec::new();
    };
    let mut paths: Vec<_> = read
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| {
            if !p.is_file() {
                return false;
            }
            if matches!(
                p.extension().and_then(|e| e.to_str()),
                Some("jsonl" | "json" | "manifest")
            ) {
                return true;
            }
            // Transport forensics: partial shard manifests sealed by
            // degraded workers, and artifacts the serve cache set aside
            // as corrupt.
            let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
            name.ends_with(".manifest.partial") || name.ends_with(".quarantined")
        })
        .collect();
    paths.sort();
    paths
}

fn cmd_report(flags: &Flags) -> Result<(), CliError> {
    use pauli_codesign::report::{classify_named, ReportBuilder};

    if flags.positional.is_empty() {
        return Err(CliError::Usage(
            "report needs at least one trace/flight/manifest/bench file or directory".to_string(),
        ));
    }
    let drift_tolerance = flags.get_f64("drift-tolerance", BENCH_TOLERANCE * 100.0)? / 100.0;
    if drift_tolerance.is_nan() || drift_tolerance <= 0.0 {
        return Err(CliError::Usage(
            "--drift-tolerance must be positive".to_string(),
        ));
    }

    let mut paths: Vec<std::path::PathBuf> = Vec::new();
    for arg in &flags.positional {
        let path = std::path::PathBuf::from(arg);
        if path.is_dir() {
            paths.extend(report_dir_entries(&path));
        } else {
            paths.push(path);
        }
    }

    // Post-mortem tooling must not die on the evidence: unreadable or
    // corrupt inputs become warnings in the report, and the exit stays 0.
    let mut builder = ReportBuilder::new();
    for path in &paths {
        let display = path.display().to_string();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        // Bytes, not a string: quarantined artifacts are often exactly
        // the files that stopped being valid UTF-8.
        match std::fs::read(path) {
            Ok(bytes) => match classify_named(name, &bytes) {
                Ok(artifact) => builder.add(&display, artifact),
                Err(e) => builder.add_warning(&display, e),
            },
            Err(e) => builder.add_warning(&display, e.to_string()),
        }
    }

    let baseline_path = flags.get("baseline").unwrap_or("BENCH_pipeline.json");
    let baseline = match std::fs::read_to_string(baseline_path) {
        Ok(text) => {
            parse_bench_medians(&text).map_err(|e| format!("baseline {baseline_path}: {e}"))?
        }
        // No baseline on disk simply skips the drift section (the
        // default path is a convenience, not a requirement).
        Err(_) => std::collections::BTreeMap::new(),
    };

    let report = builder.finish(&baseline, drift_tolerance);
    print!("{}", report.render());
    if let Some(out) = flags.get("out") {
        let json = format!("{}\n", report.to_json());
        obs::atomic_write(out, json.as_bytes()).map_err(|e| format!("writing {out}: {e}"))?;
        eprintln!("report JSON written to {out}");
    }
    // --strict turns degraded evidence into a failure: CI gates on it so
    // corrupt or missing artifacts cannot pass silently.
    if flags.is_set("strict") && !report.warnings.is_empty() {
        return Err(CliError::ReportStrict {
            warnings: report.warnings.len(),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pauli_codesign::resilience::FaultKind;

    fn flags(args: &[&str]) -> Flags {
        parse_flags(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>()).unwrap()
    }

    #[test]
    fn flag_parsing() {
        let f = flags(&["LiH", "--bond", "1.6", "--ratio", "0.5"]);
        assert_eq!(f.positional, vec!["LiH"]);
        assert_eq!(f.get("bond"), Some("1.6"));
        assert_eq!(f.get_f64("ratio", 1.0).unwrap(), 0.5);
        assert_eq!(f.get_f64("missing", 2.5).unwrap(), 2.5);
    }

    #[test]
    fn molecule_lookup_is_case_insensitive() {
        assert_eq!(flags(&["lih"]).molecule().unwrap(), Benchmark::LiH);
        assert!(flags(&["Xe"]).molecule().is_err());
        assert!(flags(&[]).molecule().is_err());
    }

    #[test]
    fn arch_lookup() {
        assert_eq!(parse_arch("xtree17").unwrap().num_qubits(), 17);
        assert_eq!(parse_arch("grid17").unwrap().num_edges(), 24);
        assert!(parse_arch("torus").is_err());
    }

    #[test]
    fn missing_flag_value_is_an_error() {
        let r = parse_flags(&["--bond".to_string()]);
        assert!(r.is_err());
    }

    #[test]
    fn boolean_flags_take_no_value() {
        let f = flags(&["LiH", "--metrics", "--ratio", "0.5"]);
        assert!(f.is_set("metrics"));
        assert_eq!(f.get_f64("ratio", 1.0).unwrap(), 0.5);
        assert!(!f.is_set("trace"));
        // Trailing boolean flag must not consume a phantom value.
        let f = flags(&["H2", "--metrics"]);
        assert!(f.is_set("metrics"));
        assert_eq!(f.positional, vec!["H2"]);
    }

    #[test]
    fn unknown_command_is_an_error() {
        assert!(run(&["frobnicate".to_string()]).is_err());
    }

    #[test]
    fn shards_without_a_coordinator_are_a_usage_error() {
        for args in [
            &["jobs.jsonl", "--shards", "2"][..],
            &["jobs.jsonl", "--shard-id", "0"],
            &["jobs.jsonl", "--shards", "2", "--shard-id", "1"],
            &[
                "jobs.jsonl",
                "--listen",
                "127.0.0.1:0",
                "--shards",
                "2",
                "--shard-id",
                "0",
            ],
            &["--connect", "127.0.0.1:1", "--shards", "2"],
        ] {
            let err = cmd_batch(&flags(args)).unwrap_err();
            assert!(matches!(err, CliError::Usage(_)), "{args:?}: {err}");
            assert_eq!(err.exit_code(), 1);
        }
    }

    #[test]
    fn resume_under_a_coordinator_is_a_usage_error() {
        let args = [
            "jobs.jsonl",
            "--listen",
            "127.0.0.1:0",
            "--checkpoint",
            "ckpt",
            "--resume",
        ];
        let err = cmd_batch(&flags(&args)).unwrap_err();
        assert!(matches!(err, CliError::Usage(_)), "{err}");
        assert_eq!(err.exit_code(), 1);
        assert!(
            err.to_string().contains("--checkpoint DIR --resume"),
            "{err}"
        );
    }

    #[test]
    fn ratio_outside_the_unit_interval_is_a_usage_error() {
        for ratio in ["0", "7"] {
            for command in [
                &["vqe", "H2"][..],
                &["run", "H2"],
                &["scan", "H2", "--from", "0.7", "--to", "0.7"],
                &["compile", "H2"],
                &["qasm", "H2"],
                &["chaos", "--campaign", "kill-resume", "H2"],
            ] {
                let mut args: Vec<String> = command.iter().map(|s| s.to_string()).collect();
                args.extend(["--ratio".to_string(), ratio.to_string()]);
                let err = run(&args).unwrap_err();
                assert!(matches!(err, CliError::Usage(_)), "{args:?}: {err}");
                assert_eq!(err.exit_code(), 1, "{args:?}");
            }
        }
    }

    #[test]
    fn chaos_rejects_retired_selectors_unknown_kinds_and_unread_flags() {
        for (args, names) in [
            (&["--kill-resume", "LiH"][..], "--campaign kill-resume"),
            (&["--supervised", "--trials", "5"], "--campaign supervised"),
            (&["--net"], "--campaign net"),
            (&["--serve", "--seed", "7"], "--campaign serve"),
            (
                &["--campaign", "storm"],
                "pipeline, kill-resume, supervised, serve, net",
            ),
            (&["--campaign", "supervised", "--workers", "0"], "--workers"),
            (&["--campaign", "serve", "--workers", "0"], "--workers"),
            (&["--campaign", "net", "--workers", "1"], "--workers"),
            (&["--campaign", "net", "--requests", "5"], "--requests"),
            (
                &["--campaign", "pipeline", "--kill-every", "2"],
                "--kill-every",
            ),
            (&["--kill-every", "2"], "--kill-every"),
            (&["--campaign", "serve", "H2"], "molecule"),
        ] {
            let mut argv = vec!["chaos".to_string()];
            argv.extend(args.iter().map(|s| s.to_string()));
            let err = run(&argv).unwrap_err();
            assert!(matches!(err, CliError::Usage(_)), "{args:?}: {err}");
            assert_eq!(err.exit_code(), 1, "{args:?}");
            assert!(err.to_string().contains(names), "{args:?}: {err}");
        }
    }

    #[test]
    fn every_command_rejects_a_flag_it_does_not_read() {
        for (args, names) in [
            (
                &["info", "H2", "--bnd", "2.5"][..],
                "pcd info does not read --bnd",
            ),
            (&["vqe", "H2", "--samples", "10"], "--samples"),
            (&["yield", "--ratio", "0.5"], "--ratio"),
            (&["report", ".", "--strictt"], "--strictt"),
        ] {
            let argv: Vec<String> = args.iter().map(|s| s.to_string()).collect();
            let err = run(&argv).unwrap_err();
            assert!(matches!(err, CliError::Usage(_)), "{args:?}: {err}");
            assert_eq!(err.exit_code(), 1, "{args:?}");
            assert!(err.to_string().contains(names), "{args:?}: {err}");
        }
    }

    #[test]
    fn resume_without_checkpoint_dir_is_a_usage_error() {
        let r = cmd_run(&flags(&["H2", "--resume"]));
        assert!(matches!(r, Err(CliError::Usage(_))));
    }

    #[test]
    fn scan_reports_a_failed_bond_and_finishes_the_range() {
        // H2O at 1.9 Å defeats every rung of the SCF ladder (`pcd batch`
        // quarantines that bond with the same error); the ladder converges
        // the bonds on either side.
        let mut rows = Vec::new();
        let first_failure = scan(Benchmark::H2O, 0.5, (1.8, 2.1, 0.1), |row| {
            rows.push(row.to_string())
        });
        assert_eq!(rows.len(), 5, "{rows:#?}");
        let row = |bond: &str| {
            rows.iter()
                .find(|r| r.starts_with(bond))
                .unwrap_or_else(|| panic!("no row for {bond}: {rows:#?}"))
        };
        for converged in ["1.80", "2.10"] {
            assert!(!row(converged).contains("error"), "{}", row(converged));
        }
        assert!(
            row("1.90").contains("error: scf stage unrecovered after 4 attempts"),
            "{}",
            row("1.90")
        );
        let e = first_failure.expect("the 1.9 Å bond fails");
        assert!(
            matches!(
                e,
                PcdError::Unrecovered {
                    stage: "scf",
                    attempts: 4,
                    ..
                }
            ),
            "{e:?}"
        );
        assert_eq!(CliError::from(e).exit_code(), 11);

        // `pcd batch` quarantines that bond after the same 4 ladder attempts.
        use pauli_codesign::supervisor::{run_batch, JobSpec};
        let job = JobSpec {
            id: "h2o-1.9".to_string(),
            benchmark: Benchmark::H2O,
            bond: Some(1.9),
            ratio: 0.5,
        };
        let config = SupervisorConfig {
            max_retries: 0,
            ..SupervisorConfig::default()
        };
        let report = run_batch(&[job], &config).expect("batch runs");
        match &report.records[0].state {
            JobState::Quarantined { stage, error, .. } => {
                assert_eq!(stage, "scf");
                assert!(error.contains("unrecovered after 4 attempts"), "{error}");
            }
            other => panic!("H2O at 1.9 Å should be quarantined: {other:?}"),
        }
    }

    #[test]
    fn retired_expectation_flag_is_a_usage_error_naming_its_removal() {
        for args in [
            &["run", "H2", "--expectation", "clustered"][..],
            &["run", "H2", "--expectation", "terms"],
            &["run", "H2", "--expectation"],
        ] {
            let argv: Vec<String> = args.iter().map(|s| s.to_string()).collect();
            let err = run(&argv).unwrap_err();
            assert!(matches!(err, CliError::Usage(_)), "{args:?}: {err}");
            assert_eq!(err.exit_code(), 1, "{args:?}");
            assert!(
                err.to_string().contains("--expectation is gone"),
                "{args:?}: {err}"
            );
        }
    }

    #[test]
    fn bench_gate_flags_synthetic_slowdown_over_tolerance() {
        let baseline = parse_bench_medians(
            r#"{"expectation_serial": {"median_ns": 1000, "threads": 1, "n_qubits": 12},
                "eri_build_parallel": {"median_ns": 500, "threads": 4, "n_qubits": 8}}"#,
        )
        .unwrap();
        let records = vec![
            BenchRecord {
                name: "expectation_serial".to_string(),
                median_ns: 1200, // +20%: over the 10% tolerance
                threads: 1,
                n_qubits: 12,
            },
            BenchRecord {
                name: "eri_build_parallel".to_string(),
                median_ns: 540, // +8%: within tolerance
                threads: 4,
                n_qubits: 8,
            },
            BenchRecord {
                name: "brand_new_bench".to_string(), // absent from baseline
                median_ns: 9999,
                threads: 1,
                n_qubits: 2,
            },
        ];
        let regressions = bench_regressions(&baseline, &records, 0.10);
        assert_eq!(regressions.len(), 1, "{regressions:?}");
        assert!(regressions[0].starts_with("expectation_serial:"));
        let err = CliError::BenchRegression(regressions);
        assert_eq!(err.exit_code(), EXIT_BENCH_REGRESSION);
    }

    #[test]
    fn bench_gate_passes_when_faster_or_equal() {
        let baseline =
            parse_bench_medians(r#"{"yield_xtree17_serial": {"median_ns": 1000}}"#).unwrap();
        let records = vec![BenchRecord {
            name: "yield_xtree17_serial".to_string(),
            median_ns: 900,
            threads: 1,
            n_qubits: 17,
        }];
        assert!(bench_regressions(&baseline, &records, 0.10).is_empty());
    }

    #[test]
    fn interrupted_pipeline_error_exits_30() {
        let e = CliError::Pipeline(PcdError::Interrupted {
            stage: "vqe",
            checkpoint: Some("ckpt/vqe.ckpt".to_string()),
        });
        assert_eq!(e.exit_code(), 30);
        assert!(e.to_string().contains("--resume"));
    }

    /// Doc-sync: the README's chaos documentation must name every fault
    /// site the code can inject. Adding a `FaultKind` variant without
    /// documenting it fails here, not in a reader's mental model.
    #[test]
    fn readme_documents_every_fault_site() {
        let readme =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../README.md"))
                .expect("README.md readable");
        for kind in FaultKind::ALL {
            assert!(
                readme.contains(&format!("`{}`", kind.site())),
                "README fault-site docs are stale: `{}` is injectable but undocumented",
                kind.site()
            );
        }
    }

    /// Doc-sync: the README's exit-code table must carry a row for every
    /// code the CLI can return.
    #[test]
    fn readme_exit_code_table_is_complete() {
        let readme =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../README.md"))
                .expect("README.md readable");
        let documented: Vec<u32> = readme
            .lines()
            .filter(|line| line.starts_with("| "))
            .filter_map(|line| line.split('|').nth(1)?.trim().parse().ok())
            .collect();
        for code in [0, 1, 10, 11, 12, 13, 14, 20, 21, 30, 31, 32, 34, 35, 36, 37] {
            assert!(
                documented.contains(&code),
                "README exit-code table is stale: exit {code} is undocumented"
            );
        }
    }

    /// Doc-sync: a retired flag appears in neither the usage text nor a
    /// README command line (`$ …`), so no documented invocation hits the
    /// usage error that names its removal.
    #[test]
    fn retired_flags_appear_in_no_usage_text_or_readme_command() {
        let readme =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../README.md"))
                .expect("README.md readable");
        let commands = readme
            .lines()
            .filter_map(|line| line.trim_start().strip_prefix("$ "));
        let retired: Vec<String> = RETIRED_CHAOS_SELECTORS
            .iter()
            .map(|s| format!("--{s}"))
            .chain(["--expectation".to_string()])
            .collect();
        for (source, text) in
            std::iter::once(("usage", USAGE)).chain(commands.map(|c| ("README", c)))
        {
            for token in text.split_whitespace() {
                assert!(
                    !retired.iter().any(|r| r == token),
                    "{source} still advertises retired flag {token}: {text}"
                );
            }
        }
    }

    #[test]
    fn report_dir_scan_includes_transport_artifacts() {
        let dir = std::env::temp_dir().join(format!("pcd-report-scan-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("scratch dir");
        for name in [
            "trace.jsonl",
            "batch.manifest",
            "shard-0.manifest.partial",
            "shard-1.manifest.quarantined",
            "0011223344556677.cache.quarantined",
            "merge.lineage", // `.lineage` is not a report input
            "notes.txt",
            "core.partial", // `.partial` alone is not a transport artifact
        ] {
            std::fs::write(dir.join(name), b"x").expect("write fixture");
        }
        let names: Vec<String> = report_dir_entries(&dir)
            .into_iter()
            .filter_map(|p| p.file_name().map(|n| n.to_string_lossy().into_owned()))
            .collect();
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(
            names,
            [
                "0011223344556677.cache.quarantined",
                "batch.manifest",
                "shard-0.manifest.partial",
                "shard-1.manifest.quarantined",
                "trace.jsonl",
            ]
        );
    }
}
