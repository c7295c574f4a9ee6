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
//! Each command is one row of [`COMMANDS`]: its synopses name the flags it
//! reads and state their defaults, and with its descriptions they make up
//! `pcd help`. The handlers live in one module per command family.
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
//! degraded (jobs quarantined, or shed in a manifest resumed from an
//! older build) · `34` `report --strict` found
//! warnings · `35` serve transport failure (socket or state-dir I/O).
//! Codes 10–14 and 30–31 follow [`PcdError::exit_code`]. `36` and `37`
//! are retired: they were the TCP coordinator's worker exits (transport
//! lost, protocol mismatch), and no later code reuses them.

use std::process::ExitCode;
use std::time::Duration;

use pauli_codesign::chem::Benchmark;
use pauli_codesign::resilience::PcdError;
use pauli_codesign::serve::ServeError;
use pauli_codesign::supervisor::SupervisorError;

/// `println!` through a locked stdout. A failed write is dropped, not
/// panicked on: when the reader has gone (a closed pipe, `BrokenPipe`) the
/// command still ends with its own exit code, never a panic's 101.
macro_rules! outln {
    ($($arg:tt)*) => {{
        use std::io::Write as _;
        let _ = writeln!(std::io::stdout().lock(), $($arg)*);
    }};
}

/// `print!` through a locked stdout, dropping a failed write as
/// [`outln!`] does.
macro_rules! out {
    ($($arg:tt)*) => {{
        use std::io::Write as _;
        let _ = write!(std::io::stdout().lock(), $($arg)*);
    }};
}

/// `eprintln!` through a locked stderr, dropping a failed write as
/// [`outln!`] does.
macro_rules! errln {
    ($($arg:tt)*) => {{
        use std::io::Write as _;
        let _ = writeln!(std::io::stderr().lock(), $($arg)*);
    }};
}

#[path = "pcd/batch.rs"]
mod batch;
#[path = "pcd/bench.rs"]
mod bench;
#[path = "pcd/chaos.rs"]
mod chaos;
#[path = "pcd/report.rs"]
mod report;
#[path = "pcd/science.rs"]
mod science;

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
        /// Jobs shed, which only a manifest resumed from an older build
        /// holds: a batch runs every job it is given.
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
        }
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
            // Not `eprintln!`: that panics (exit 101) when stderr is a
            // closed pipe, and the exit code must survive.
            errln!("error: {e}");
            if matches!(e, CliError::Usage(_)) {
                errln!("\n{}", usage());
            }
            ExitCode::from(e.exit_code())
        }
    }
}

fn run(args: &[String]) -> Result<(), CliError> {
    let command = args.first().map(String::as_str).unwrap_or("help");
    // Caught before flag parsing: the retired chaos selectors took no
    // value, so parsing would swallow the argument after one.
    if let Some((_, old)) = RETIRED_FLAGS.iter().find(|(cmd, old)| {
        *cmd == command && args.iter().any(|a| a.strip_prefix("--") == Some(*old))
    }) {
        return Err(CliError::Usage(match *old {
            "expectation" => "--expectation is gone: the optimizer always uses the grouped H|ψ⟩ \
                              energy, and `pcd run` still prints the grouped/clustered \
                              cross-check"
                .to_string(),
            "listen" | "connect" | "shard-id" | "local-dir" | "net" => {
                format!("--{old} is gone: {TCP_RETIRED}")
            }
            "queue-cap" | "shed" => format!(
                "--{old} is gone: a batch runs every job it is given, and `pcd serve` queues \
                 every connection it accepts"
            ),
            "breaker" | "backoff-ms" => {
                format!("--{old} is gone: a failed job retries at once, up to --max-retries")
            }
            old => format!("--{old} is gone: select the campaign with `--campaign {old}`"),
        }));
    }
    let mut flags = parse_flags(args.get(1..).unwrap_or(&[]))?;

    let trace_path = flags.get("trace").map(str::to_string);
    let metrics = flags.is_set("metrics");
    if trace_path.is_some() || metrics {
        obs::reset();
        obs::enable();
    }

    let result = match COMMANDS.iter().find(|c| c.name == command) {
        Some(c) => check_flags(c, &mut flags).and_then(|()| (c.run)(&flags)),
        None if matches!(command, "help" | "--help" | "-h") => {
            outln!("{}", usage());
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
            errln!("trace written to {path}");
        }
        if metrics {
            outln!();
            out!("{}", obs::summary());
        }
    }
    result
}

/// Why the TCP batch forms, their flags and their chaos campaign are
/// usage errors.
const TCP_RETIRED: &str = "the TCP coordinator was retired, and a batch runs in one process \
                           (`pcd batch JOBS.jsonl`)";

/// Flags a command no longer takes, as `(command, flag)`: each is a usage
/// error naming what replaced it.
const RETIRED_FLAGS: [(&str, &str); 16] = [
    ("run", "expectation"),
    ("chaos", "kill-resume"),
    ("chaos", "supervised"),
    ("chaos", "net"),
    ("chaos", "serve"),
    ("batch", "shard-id"),
    ("batch", "local-dir"),
    ("batch", "queue-cap"),
    ("batch", "shed"),
    ("batch", "listen"),
    ("batch", "connect"),
    ("serve", "queue-cap"),
    ("serve", "shed"),
    ("batch", "breaker"),
    ("batch", "backoff-ms"),
    ("serve", "breaker"),
];

/// One form of a `pcd` command: a row of `pcd help` and the handler.
struct Command {
    name: &'static str,
    /// The `--name` tokens of a command's synopses are the flags it reads
    /// beyond [`GLOBAL`] (`chaos` also reads its campaign's): a flag
    /// followed by no metavar takes no value, and `METAVAR=DEFAULT`
    /// states the default [`Flags::get`] falls back to.
    synopsis: &'static str,
    about: &'static str,
    run: fn(&Flags) -> Result<(), CliError>,
}

/// The flags every command reads, and what they do.
const GLOBAL: (&str, &str) = (
    "[--trace FILE] [--metrics]",
    "--trace writes a JSONL trace of spans/events/counters/histograms; --metrics prints an \
     end-of-run summary table of recorded metrics",
);

static COMMANDS: [Command; 15] = [
    Command {
        name: "info",
        synopsis: "<molecule> [--bond Å]",
        about: "benchmark statistics (Table I view)",
        run: science::cmd_info,
    },
    Command {
        name: "vqe",
        synopsis: "<molecule> [--bond Å] [--ratio R=0.5]",
        about: "run compressed-ansatz VQE",
        run: science::cmd_vqe,
    },
    Command {
        name: "run",
        synopsis: "<molecule> [--bond Å] [--ratio R=0.5] [--samples N=20000] [--deadline SECS] \
                   [--budget-iters N] [--checkpoint DIR] [--resume] [--degrade-threshold F=0.25]",
        about: "durable pipeline: compressed VQE, yield Monte Carlo, and a grouped/clustered \
                cross-check of the energy. On expiry of --deadline or --budget-iters (the \
                scarcer wins) the stage checkpoints into DIR (atomic, CRC) and the run exits 30; \
                --resume restores it (same molecule/bond/ratio/samples). Yield samples shed \
                1×/4×/20× once the budget fraction left drops below F",
        run: science::cmd_run,
    },
    Command {
        name: "adapt",
        synopsis: "<molecule> [--bond Å] [--pool plain|generalized=plain]",
        about: "run ADAPT-VQE",
        run: science::cmd_adapt,
    },
    Command {
        name: "excited",
        synopsis: "<molecule> [--bond Å] [--states K=3]",
        about: "run a VQD excited-state ladder",
        run: science::cmd_excited,
    },
    Command {
        name: "scan",
        synopsis: "<molecule> [--ratio R=1] [--from Å] [--to Å] [--step Å=0.1]",
        about: "bond-length energy scan, by default 0.3 Å either side of equilibrium; a \
                failed bond prints its error and the scan goes on",
        run: science::cmd_scan,
    },
    Command {
        name: "compile",
        synopsis: "<molecule> [--ratio R=0.5] [--arch xtree17|grid17|line17|heavyhex=xtree17] \
                   [--compiler mtr|sabre|both=both]",
        about: "compile onto an architecture",
        run: science::cmd_compile,
    },
    Command {
        name: "qasm",
        synopsis: "<molecule> [--ratio R=0.5] [--out FILE]",
        about: "export the X-Tree-compiled circuit (to stdout without --out)",
        run: science::cmd_qasm,
    },
    Command {
        name: "yield",
        synopsis: "[--arch xtree17|grid17|line17|heavyhex=xtree17] [--sigma GHz=0.04] \
                   [--samples N=20000]",
        about: "fabrication-yield Monte Carlo",
        run: science::cmd_yield,
    },
    Command {
        name: "chaos",
        synopsis: "[--campaign KIND=pipeline] [campaign flags]",
        about: "run one seeded fault campaign; exit 20 if a trial broke an invariant. Each \
                KIND, the flags it reads, and what it checks:",
        run: chaos::cmd_chaos,
    },
    Command {
        name: "batch",
        synopsis: "<JOBS.jsonl> [--workers N] [--seed N] [--max-retries K] [--job-timeout S] \
                   [--slice-ticks T] [--max-slices M] [--fault-rate R] [--deadline SECS] \
                   [--drain-after-ticks T] [--checkpoint DIR] [--resume] [--progress] \
                   [--progress-interval-ms MS=500] [--flight-dir DIR]",
        about: "run every pipeline job (JSONL: molecule, bond, ratio, id) on supervised \
                workers; exit 30 drained (resumable manifest), 32 degraded (quarantined jobs); \
                --progress shows a live status line; --flight-dir collects flight-<job>.jsonl \
                dumps of quarantines, deadline expiries and faults",
        run: batch::cmd_batch,
    },
    Command {
        name: "serve",
        synopsis: "[--state-dir DIR] [--socket PATH] [--workers N] [--seed N] [--max-retries K] \
                   [--slice-ticks T] [--max-slices M] [--fault-rate R] \
                   [--deadline-ms MS] [--max-requests N] [--idle-exit-ms MS] [--flight-dir DIR] \
                   [--cache-max-bytes B]",
        about: "always-on daemon: answer JSONL job requests on a Unix socket (default \
                DIR/serve.sock) from a CRC-sealed result cache (--cache-max-bytes 0 = \
                unbounded) or the supervised engine; SIGTERM drains, seals DIR/serve.manifest \
                and exits 30; a restart with the same --state-dir resumes bit-identically",
        run: batch::cmd_serve,
    },
    Command {
        name: "bench",
        synopsis: "[--smoke] [--out FILE=BENCH_pipeline.json] [--qubits N] [--baseline FILE] \
                   [--tolerance PCT=10] [--history FILE] [--window K=8] \
                   [--drift-tolerance PCT=25]",
        about: "time the hot paths serial vs parallel (PCD_THREADS workers; 14 qubits, 12 \
                with --smoke) into a JSON report; exit 21 if a fast path loses to its oracle \
                (clustered expectation, fused gradient, H2O sector reference and VQE, AO \
                integrals), is PCT% slower than --baseline, or creeps past --drift-tolerance \
                over the last K --history reports",
        run: bench::cmd_bench,
    },
    Command {
        name: "bench",
        synopsis: "--obs-overhead [--budget-ns NS=2000]",
        about: "time the disabled-tracing fast path (span, event, counter, histogram); exit \
                21 if an op exceeds the per-call budget",
        run: bench::cmd_bench,
    },
    Command {
        name: "report",
        synopsis: "<FILE|DIR>... [--baseline FILE=BENCH_pipeline.json] [--drift-tolerance \
                   PCT=10] [--out FILE] [--strict]",
        about: "aggregate traces, flight dumps, manifests and bench reports into stage \
                latencies, counters, the critical path, quarantines and bench drift; \
                corrupt inputs are warnings, and --strict exits 34 on any",
        run: report::cmd_report,
    },
];

/// Column `pcd help` wraps at.
const WIDTH: usize = 80;

/// The `pcd help` text, generated from [`COMMANDS`] and
/// [`chaos::CAMPAIGNS`].
fn usage() -> String {
    let mut out = String::from("usage: pcd <command> [options]\n\ncommands:\n");
    for command in &COMMANDS {
        let head = format!("{} {}", command.name, command.synopsis);
        entry(&mut out, 2, &head, command.about);
        for c in chaos::CAMPAIGNS.iter().filter(|_| command.name == "chaos") {
            entry(&mut out, 10, &format!("{} {}", c.kind, c.synopsis), c.about);
        }
    }
    entry(&mut out, 2, "help", "this message");
    let global = format!("<any command> {}", GLOBAL.0);
    entry(&mut out, 2, &global, GLOBAL.1);
    let molecules: Vec<&str> = Benchmark::ALL.iter().map(|b| b.name()).collect();
    out.push_str("\nMETAVAR=DEFAULT states a flag's default; --bond defaults to the molecule's\n");
    out.push_str("equilibrium bond length.\n\nmolecules: ");
    out + &molecules.join(" ")
}

/// Appends one `pcd help` entry word-wrapped at [`WIDTH`] columns: `head`
/// from column `indent` (continued 4 further in), then `about` 8 further
/// in. A bracketed group, and a flag with the word after it, stay on one
/// line.
fn entry(out: &mut String, indent: usize, head: &str, about: &str) {
    for (text, first, rest) in [(head, indent, indent + 4), (about, indent + 8, indent + 8)] {
        let mut units: Vec<String> = Vec::new();
        let (mut depth, mut after_flag) = (0usize, false);
        for word in text.split_whitespace() {
            match units.last_mut() {
                Some(unit) if depth > 0 || (after_flag && !word.starts_with(['-', '['])) => {
                    unit.push(' ');
                    unit.push_str(word);
                }
                _ => units.push(word.to_string()),
            }
            depth = (depth + word.matches('[').count()).saturating_sub(word.matches(']').count());
            after_flag = word.trim_start_matches('[').starts_with("--") && !word.ends_with(']');
        }
        let mut line = " ".repeat(first);
        for (i, unit) in units.iter().enumerate() {
            if i > 0 && line.chars().count() + 1 + unit.chars().count() > WIDTH {
                out.push_str(&line);
                out.push('\n');
                line = " ".repeat(rest);
            } else if i > 0 {
                line.push(' ');
            }
            line.push_str(unit);
        }
        out.push_str(&line);
        out.push('\n');
    }
}

/// The flags a synopsis names, in order, each with its metavar — `None`
/// for a flag that takes no value (one closing a bracket, or followed by
/// another flag or by nothing).
fn synopsis_flags(synopsis: &str) -> Vec<(&str, Option<&str>)> {
    let words: Vec<&str> = synopsis.split_whitespace().collect();
    let mut flags = Vec::new();
    for (i, word) in words.iter().enumerate() {
        let Some(name) = word.trim_start_matches('[').strip_prefix("--") else {
            continue;
        };
        let metavar = match words.get(i + 1) {
            Some(next) if !word.ends_with(']') && !next.starts_with(['-', '[']) => {
                Some(next.trim_end_matches(']'))
            }
            _ => None,
        };
        flags.push((name.trim_end_matches(']'), metavar));
    }
    flags
}

/// Every synopsis in the table: [`GLOBAL`], each command's and each
/// campaign's.
fn all_synopses() -> impl Iterator<Item = &'static str> {
    let commands = COMMANDS.iter().map(|c| c.synopsis);
    std::iter::once(GLOBAL.0)
        .chain(commands)
        .chain(chaos::CAMPAIGNS.iter().map(|c| c.synopsis))
}

/// The flag that selects a command form: the first flag of its synopsis
/// when that flag is required (not bracketed), as `--obs-overhead` is
/// for `bench`. A form without one is its command's default.
fn selector(synopsis: &str) -> Option<&str> {
    let first = synopsis
        .split_whitespace()
        .find(|word| word.trim_start_matches('[').starts_with("--"))?;
    first.strip_prefix("--")
}

/// The form of `command` the arguments select: the one whose selector
/// flag is given, else the default form.
fn form<'a>(command: &'a Command, flags: &Flags) -> &'a Command {
    let forms = || COMMANDS.iter().filter(|c| c.name == command.name);
    forms()
        .find(|c| selector(c.synopsis).is_some_and(|key| flags.is_set(key)))
        .or_else(|| forms().find(|c| selector(c.synopsis).is_none()))
        .unwrap_or(command)
}

/// Binds `flags` to [`GLOBAL`] and the synopsis of the form of `command`
/// they select (and, for `chaos`, of its campaign), whose defaults
/// [`Flags::get`] then falls back to, and rejects the first flag they do
/// not name: a misspelt or misplaced flag is a usage error, never a
/// silently ignored setting.
fn check_flags(command: &Command, flags: &mut Flags) -> Result<(), CliError> {
    let form = form(command, flags);
    flags.known = [GLOBAL.0, form.synopsis]
        .into_iter()
        .flat_map(synopsis_flags)
        .collect();
    let who = if command.name == "chaos" {
        let campaign = chaos::campaign(flags)?;
        flags.known.extend(synopsis_flags(campaign.synopsis));
        format!("--campaign {}", campaign.kind)
    } else {
        match selector(form.synopsis) {
            Some(key) => format!("pcd {} --{key}", command.name),
            None => format!("pcd {}", command.name),
        }
    };
    let reads = |key: &str| flags.known.iter().any(|(name, _)| *name == key);
    match flags.options.iter().find(|(key, _)| !reads(key)) {
        Some((key, _)) => Err(CliError::Usage(format!("{who} does not read --{key}"))),
        None => Ok(()),
    }
}

/// Positional arguments plus `--flag value` pairs, and the flags (with
/// their metavars) of the synopses [`check_flags`] bound them to.
struct Flags {
    positional: Vec<String>,
    options: Vec<(String, String)>,
    known: Vec<(&'static str, Option<&'static str>)>,
}

/// A numeric flag type, with what a usage error says such a flag expects.
trait Number: std::str::FromStr {
    const EXPECTS: &'static str;
}

impl Number for f64 {
    const EXPECTS: &'static str = "a finite number";
}

impl Number for usize {
    const EXPECTS: &'static str = "an integer";
}

impl Number for u64 {
    const EXPECTS: &'static str = "an integer";
}

impl Flags {
    /// Whether `--key` was given.
    fn is_set(&self, key: &str) -> bool {
        self.options.iter().any(|(k, _)| k == key)
    }

    /// The last value given for `--key`, else the default a bound
    /// synopsis states for it.
    fn get(&self, key: &str) -> Option<&str> {
        self.options
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
            .or_else(|| {
                let mut named = self.known.iter().filter(|(name, _)| *name == key);
                named.find_map(|(_, metavar)| Some((*metavar)?.split_once('=')?.1))
            })
    }

    /// [`Flags::get`] as a number, `None` when it has no value.
    fn opt<T: Number>(&self, key: &str) -> Result<Option<T>, String> {
        let Some(v) = self.get(key) else {
            return Ok(None);
        };
        // Every integer is a finite float; `inf`, `nan` and overflow are not.
        match v.parse::<T>() {
            Ok(n) if v.parse::<f64>().is_ok_and(f64::is_finite) => Ok(Some(n)),
            _ => Err(format!("--{key} expects {}, got `{v}`", T::EXPECTS)),
        }
    }

    /// A number whose default the command's synopsis states.
    fn number<T: Number>(&self, key: &str) -> Result<T, String> {
        self.opt(key)?
            .ok_or_else(|| format!("--{key} needs a value"))
    }

    /// A number flag with a default the synopsis does not state.
    fn get_f64(&self, key: &str, default: f64) -> Result<f64, String> {
        Ok(self.opt(key)?.unwrap_or(default))
    }

    /// A positive number whose default the command's synopsis states.
    fn positive<T: Number + PartialOrd + Default>(&self, key: &str) -> Result<T, String> {
        let n = self.number(key)?;
        if n > T::default() {
            Ok(n)
        } else {
            Err(format!("--{key} must be positive"))
        }
    }

    /// A probability flag in `[0, 1]`.
    fn rate(&self, key: &str) -> Result<f64, String> {
        let rate = self.number(key)?;
        if (0.0..=1.0).contains(&rate) {
            Ok(rate)
        } else {
            Err(format!("--{key} must be in [0, 1]"))
        }
    }

    /// The `--ratio` compression ratio, in `(0, 1]`.
    fn ratio(&self) -> Result<f64, String> {
        let ratio = self.number("ratio")?;
        if ratio > 0.0 && ratio <= 1.0 {
            Ok(ratio)
        } else {
            Err("--ratio must be in (0, 1]".to_string())
        }
    }

    /// A positive number of seconds, `None` when not given.
    fn seconds(&self, key: &str) -> Result<Option<Duration>, String> {
        let Some(secs) = self.opt::<f64>(key)? else {
            return Ok(None);
        };
        if secs <= 0.0 {
            return Err(format!("--{key} must be positive"));
        }
        Duration::try_from_secs_f64(secs)
            .map(Some)
            .map_err(|_| format!("--{key} is too long, got `{secs:e}`"))
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

    /// `--bond`, by default the molecule's equilibrium bond length.
    fn bond(&self, molecule: Benchmark) -> Result<f64, String> {
        self.get_f64("bond", molecule.equilibrium_bond_length())
    }
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut positional = Vec::new();
    let mut options = Vec::new();
    let mut iter = args.iter();
    while let Some(a) = iter.next() {
        if let Some(key) = a.strip_prefix("--") {
            let boolean = all_synopses().any(|s| synopsis_flags(s).contains(&(key, None)));
            if boolean {
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
    let known = Vec::new();
    Ok(Flags {
        positional,
        options,
        known,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pauli_codesign::resilience::FaultKind;
    use pauli_codesign::supervisor::{JobState, SupervisorConfig};

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    fn flags(args: &[&str]) -> Flags {
        parse_flags(&argv(args)).unwrap()
    }

    fn readme() -> String {
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../README.md"))
            .expect("README.md readable")
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
        assert_eq!(science::parse_arch("xtree17").unwrap().num_qubits(), 17);
        assert_eq!(science::parse_arch("grid17").unwrap().num_edges(), 24);
        assert!(science::parse_arch("torus").is_err());
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

    /// The TCP batch forms, their flags and their campaign are retired:
    /// each exits 1 naming the removal, before any socket is touched.
    #[test]
    fn retired_tcp_forms_are_usage_errors_naming_the_removal() {
        for args in [
            &["batch", "--connect", "127.0.0.1:1"][..],
            &["batch", "j.jsonl", "--listen", "127.0.0.1:0"],
            &[
                "batch",
                "j.jsonl",
                "--listen",
                "127.0.0.1:0",
                "--shards",
                "2",
            ],
            &["batch", "j.jsonl", "--shard-id", "0"],
            &["batch", "j.jsonl", "--local-dir", "x"],
            &["chaos", "--campaign", "net"],
            &["chaos", "--net"],
        ] {
            let err = run(&argv(args)).unwrap_err();
            assert!(matches!(err, CliError::Usage(_)), "{args:?}: {err}");
            assert_eq!(err.exit_code(), 1, "{args:?}");
            assert!(
                err.to_string().contains("the TCP coordinator was retired"),
                "{args:?}: {err}"
            );
        }
    }

    /// The breaker and backoff knobs are retired: a failed job retries at
    /// once, and `--max-retries` is the only retry setting.
    #[test]
    fn retired_retry_knobs_are_usage_errors_naming_the_cap() {
        for args in [
            &["batch", "j.jsonl", "--breaker", "2"][..],
            &["batch", "j.jsonl", "--backoff-ms", "5"],
            &["serve", "--breaker", "2"],
        ] {
            let err = run(&argv(args)).unwrap_err();
            assert!(matches!(err, CliError::Usage(_)), "{args:?}: {err}");
            assert_eq!(err.exit_code(), 1, "{args:?}");
            assert!(err.to_string().contains("--max-retries"), "{args:?}: {err}");
        }
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
                let mut args = argv(command);
                args.extend(["--ratio".to_string(), ratio.to_string()]);
                let err = run(&args).unwrap_err();
                assert!(matches!(err, CliError::Usage(_)), "{args:?}: {err}");
                assert_eq!(err.exit_code(), 1, "{args:?}");
            }
        }
    }

    /// Numeric flags fail as usage errors naming the flag, never as a
    /// panic, a silent one-row scan, or an endless one.
    #[test]
    fn numeric_flags_out_of_domain_are_usage_errors() {
        for args in [
            &["batch", "J", "--deadline", "-1"][..],
            &["batch", "J", "--deadline", "nan"],
            &["batch", "J", "--job-timeout", "inf"],
            &["run", "H2", "--deadline", "inf"],
            &["run", "H2", "--deadline", "1e300"],
            &["yield", "--sigma", "nan"],
            &["yield", "--sigma", "-0.1"],
            &["scan", "H2", "--step", "nan"],
        ] {
            let err = run(&argv(args)).unwrap_err();
            assert!(matches!(err, CliError::Usage(_)), "{args:?}: {err}");
            assert_eq!(err.exit_code(), 1, "{args:?}");
            let flag = args[args.len() - 2];
            assert!(err.to_string().contains(flag), "{args:?}: {err}");
        }
        // `pcd scan H2 --to inf` would scan forever; the flag is refused.
        let err = flags(&["H2", "--to", "inf"]).get_f64("to", 1.0);
        assert!(err.unwrap_err().contains("--to"));
    }

    #[test]
    fn chaos_rejects_retired_selectors_unknown_kinds_and_unread_flags() {
        for (args, names) in [
            (&["--kill-resume", "LiH"][..], "--campaign kill-resume"),
            (&["--supervised", "--trials", "5"], "--campaign supervised"),
            (&["--serve", "--seed", "7"], "--campaign serve"),
            (
                &["--campaign", "storm"],
                "pipeline, kill-resume, supervised, serve",
            ),
            (&["--campaign", "supervised", "--workers", "0"], "--workers"),
            (&["--campaign", "serve", "--workers", "0"], "--workers"),
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
            (&["batch", "j.jsonl", "--shards", "2"], "--shards"),
        ] {
            let err = run(&argv(args)).unwrap_err();
            assert!(matches!(err, CliError::Usage(_)), "{args:?}: {err}");
            assert_eq!(err.exit_code(), 1, "{args:?}");
            assert!(err.to_string().contains(names), "{args:?}: {err}");
        }
    }

    /// `pcd help` shows every command form and campaign; `check_flags`
    /// binds the form the arguments select, accepts each flag its row
    /// names and rejects another row's; and the flags that take no value
    /// are those written without a metavar.
    #[test]
    fn usage_and_check_flags_follow_the_table() {
        let words = |s: &str| s.split_whitespace().collect::<Vec<_>>().join(" ");
        let help = words(&usage());
        let every: Vec<&str> = all_synopses()
            .flat_map(synopsis_flags)
            .map(|f| f.0)
            .collect();
        let selectors: Vec<&str> = COMMANDS
            .iter()
            .filter_map(|c| selector(c.synopsis))
            .collect();
        for form in &COMMANDS {
            let command = COMMANDS.iter().find(|c| c.name == form.name).unwrap();
            let chaos = form.name == "chaos";
            let campaigns = chaos::CAMPAIGNS.iter().map(Some).filter(|_| chaos);
            for campaign in campaigns.chain((!chaos).then_some(None)) {
                let rows: Vec<String> = std::iter::once(format!("{} {}", form.name, form.synopsis))
                    .chain(campaign.map(|c| format!("{} {}", c.kind, c.synopsis)))
                    .collect();
                let mut reads = vec!["trace", "metrics"];
                for row in &rows {
                    assert!(help.contains(&words(row)), "help lacks `{row}`");
                    reads.extend(synopsis_flags(row).iter().map(|f| f.0));
                }
                let bind = |key: &str| {
                    let mut f = flags(&[]);
                    f.options.push((key.to_string(), "1".to_string()));
                    f.options
                        .extend(selector(form.synopsis).map(|k| (k.to_string(), "1".to_string())));
                    f.options
                        .extend(campaign.map(|c| ("campaign".into(), c.kind.into())));
                    check_flags(command, &mut f)
                };
                for key in &reads {
                    assert!(bind(key).is_ok(), "{rows:?} rejects --{key}");
                }
                // Another form's flag first, then any other row's. A
                // selector would switch the form.
                let siblings = COMMANDS.iter().filter(|c| c.name == form.name);
                let stranger = siblings
                    .flat_map(|c| synopsis_flags(c.synopsis))
                    .map(|f| f.0)
                    .chain(every.iter().copied())
                    .find(|key| !reads.contains(key) && !selectors.contains(key))
                    .unwrap();
                let err = bind(stranger).unwrap_err().to_string();
                assert!(
                    err.contains(&format!("does not read --{stranger}")),
                    "{err}"
                );
            }
        }
        let booleans: std::collections::BTreeSet<&str> = all_synopses()
            .flat_map(synopsis_flags)
            .filter_map(|(name, metavar)| metavar.is_none().then_some(name))
            .collect();
        let valueless = "metrics obs-overhead progress resume smoke strict";
        assert_eq!(booleans, valueless.split(' ').collect());
        // `pcd run` states the library's yield degradation threshold.
        let mut f = flags(&[]);
        check_flags(&COMMANDS[2], &mut f).unwrap();
        let threshold = pauli_codesign::resilience::stages::DEGRADE_THRESHOLD;
        assert_eq!(f.number("degrade-threshold"), Ok(threshold));
    }

    #[test]
    fn resume_without_checkpoint_dir_is_a_usage_error() {
        let err = run(&argv(&["run", "H2", "--resume"])).unwrap_err();
        assert!(matches!(err, CliError::Usage(_)), "{err}");
        assert!(err.to_string().contains("--checkpoint"), "{err}");
    }

    #[test]
    fn scan_reports_a_failed_bond_and_finishes_the_range() {
        // H2O at 1.9 Å defeats every rung of the SCF ladder (`pcd batch`
        // quarantines that bond with the same error); the ladder converges
        // the bonds on either side.
        let mut rows = Vec::new();
        let first_failure = science::scan(Benchmark::H2O, 0.5, (1.8, 2.1, 0.1), |row| {
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
        for (args, names) in [
            (
                &["run", "H2", "--expectation", "clustered"][..],
                "--expectation is gone",
            ),
            (
                &["run", "H2", "--expectation", "terms"],
                "--expectation is gone",
            ),
            (&["run", "H2", "--expectation"], "--expectation is gone"),
            (
                &["batch", "j.jsonl", "--queue-cap", "2"],
                "--queue-cap is gone",
            ),
            (&["serve", "--shed", "drop-oldest"], "--shed is gone"),
        ] {
            let err = run(&argv(args)).unwrap_err();
            assert!(matches!(err, CliError::Usage(_)), "{args:?}: {err}");
            assert_eq!(err.exit_code(), 1, "{args:?}");
            assert!(err.to_string().contains(names), "{args:?}: {err}");
        }
    }

    #[test]
    fn bench_gate_flags_synthetic_slowdown_over_tolerance() {
        use bench::{bench_regressions, record};
        use pauli_codesign::report::parse_bench_medians;
        let baseline = parse_bench_medians(
            r#"{"expectation_serial": {"median_ns": 1000, "threads": 1, "n_qubits": 12},
                "eri_build_parallel": {"median_ns": 500, "threads": 4, "n_qubits": 8}}"#,
        )
        .unwrap();
        let records = vec![
            record("expectation_serial", 1200, 1, 12), // +20%: over the 10% tolerance
            record("eri_build_parallel", 540, 4, 8),   // +8%: within tolerance
            record("brand_new_bench", 9999, 1, 2),     // absent from baseline
        ];
        let regressions = bench_regressions(&baseline, &records, 0.10);
        assert_eq!(regressions.len(), 1, "{regressions:?}");
        assert!(regressions[0].starts_with("expectation_serial:"));
        let err = CliError::BenchRegression(regressions);
        assert_eq!(err.exit_code(), EXIT_BENCH_REGRESSION);
    }

    #[test]
    fn bench_gate_passes_when_faster_or_equal() {
        use bench::{bench_regressions, record};
        let baseline = pauli_codesign::report::parse_bench_medians(
            r#"{"yield_xtree17_serial": {"median_ns": 1000}}"#,
        )
        .unwrap();
        let records = vec![record("yield_xtree17_serial", 900, 1, 17)];
        assert!(bench_regressions(&baseline, &records, 0.10).is_empty());
    }

    #[test]
    fn bench_drift_skips_rows_the_oldest_report_lacks() {
        use bench::{bench_drift, parse_bench_history};
        // A history written before `ao_integrals` existed: the new rows
        // are compared from the first report that carries them on.
        let mut window = parse_bench_history(
            r#"{"reports": [{"h_apply": 1000}, {"h_apply": 1010, "ao_integrals": 5}]}"#,
        )
        .unwrap();
        window.push(
            [("h_apply", 1020), ("ao_integrals", 900_000)]
                .into_iter()
                .map(|(name, ns)| (name.to_string(), ns))
                .collect(),
        );
        assert!(bench_drift(&window, 0.25).is_empty());
        // The same slowdown on a row the oldest report has is flagged.
        window[0].insert("ao_integrals".to_string(), 5);
        assert_eq!(bench_drift(&window, 0.25).len(), 1);
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
        let readme = readme();
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
        let readme = readme();
        let documented: Vec<u32> = readme
            .lines()
            .filter(|line| line.starts_with("| "))
            .filter_map(|line| line.split('|').nth(1)?.trim().parse().ok())
            .collect();
        for code in [0, 1, 10, 11, 12, 13, 14, 20, 21, 30, 31, 32, 34, 35] {
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
        let readme = readme();
        let commands = readme
            .lines()
            .filter_map(|line| line.trim_start().strip_prefix("$ "));
        let retired: Vec<String> = RETIRED_FLAGS
            .iter()
            .map(|(_, flag)| format!("--{flag}"))
            .collect();
        let help = usage();
        for (source, text) in
            std::iter::once(("usage", help.as_str())).chain(commands.map(|c| ("README", c)))
        {
            for token in text.split_whitespace() {
                let token = token.trim_matches(['[', ']']);
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
            "shard-0.manifest.partial", // no writer left: not a report input
            "shard-1.manifest.quarantined",
            "0011223344556677.cache.quarantined",
            "merge.lineage", // `.lineage` is not a report input
            "notes.txt",
            "core.partial", // `.partial` alone is not a transport artifact
        ] {
            std::fs::write(dir.join(name), b"x").expect("write fixture");
        }
        let names: Vec<String> = report::report_dir_entries(&dir)
            .into_iter()
            .filter_map(|p| p.file_name().map(|n| n.to_string_lossy().into_owned()))
            .collect();
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(
            names,
            [
                "0011223344556677.cache.quarantined",
                "batch.manifest",
                "shard-1.manifest.quarantined",
                "trace.jsonl",
            ]
        );
    }
}
