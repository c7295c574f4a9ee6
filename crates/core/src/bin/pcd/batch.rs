//! `pcd batch` (local, `--listen` coordinator, `--connect` worker) and
//! `pcd serve`. Every knob a flag leaves unset keeps the library default
//! of the config it fills.

use std::path::PathBuf;
use std::time::Duration;

use pauli_codesign::resilience::{Checkpoint, PcdError};
use pauli_codesign::serve::{run_serve, ServeConfig};
use pauli_codesign::supervisor::{
    parse_jobs, run_batch_resumed, run_worker, BatchReport, Coordinator, CoordinatorOptions,
    InjectionPlan, JobSpec, JobState, RemoteError, SupervisorConfig, WorkerOptions,
};

use crate::{CliError, Flags};

/// Why `--shards` (or the retired `--shard-id`) needs `--listen`.
pub(crate) const SHARDS_NEED_LISTEN: &str =
    "--shards needs --listen: shards are granted by a coordinator to `batch --connect` workers";

/// A `0 = none` flag: its value when given and nonzero.
fn nonzero<T: crate::Number + PartialEq + Default>(
    flags: &Flags,
    key: &str,
) -> Result<Option<T>, String> {
    Ok(flags.opt(key)?.filter(|n: &T| *n != T::default()))
}

/// The errors for a flag of one `batch` form given to another, which
/// say what the flag needs instead of only that this form does not read
/// it.
pub(crate) fn check_form(flags: &Flags) -> Result<(), CliError> {
    // Shards exist only under a coordinator, which grants them; a
    // multi-process batch on one host is a loopback --listen plus local
    // --connect workers.
    if flags.is_set("shards") && !flags.is_set("listen") {
        return Err(CliError::Usage(SHARDS_NEED_LISTEN.to_string()));
    }
    if flags.is_set("listen") && flags.is_set("resume") {
        return Err(CliError::Usage(
            "--resume does not apply to --listen: the coordinator does not resume; \
             resume a drained manifest with a plain `pcd batch JOBS.jsonl --checkpoint DIR \
             --resume`"
                .to_string(),
        ));
    }
    Ok(())
}

pub(crate) fn cmd_batch(flags: &Flags) -> Result<(), CliError> {
    // Worker mode has no jobs file: the batch identity (jobs, seed,
    // fault rate) arrives over the wire in the coordinator's welcome.
    if flags.is_set("connect") {
        return cmd_batch_worker(flags);
    }
    let d = SupervisorConfig::default();
    let batch_seed = flags.opt("seed")?.unwrap_or(d.batch_seed);
    let fault_rate = if flags.is_set("fault-rate") {
        flags.rate("fault-rate")?
    } else {
        d.pipeline_fault_rate
    };
    let workers = flags.opt("workers")?.unwrap_or(d.workers).max(1);
    // Coordinator mode: serve the batch to TCP workers.
    if flags.is_set("listen") {
        return cmd_batch_coordinator(flags, batch_seed, fault_rate, workers);
    }
    let slice_wall = flags.seconds("job-timeout")?;
    let mut config = SupervisorConfig {
        workers,
        batch_seed,
        max_retries: flags.opt("max-retries")?.unwrap_or(d.max_retries),
        slice_ticks: flags.opt("slice-ticks")?.unwrap_or(d.slice_ticks),
        slice_wall,
        // One wall-clock slice per attempt unless the caller asked for a
        // finer slicing explicitly.
        max_slices: flags.opt("max-slices")?.unwrap_or(match slice_wall {
            Some(_) => 1,
            None => d.max_slices,
        }),
        breaker_threshold: flags.opt("breaker")?.unwrap_or(d.breaker_threshold),
        pipeline_fault_rate: fault_rate,
        injection: InjectionPlan::at_rate(fault_rate),
        drain_after_ticks: flags.opt("drain-after-ticks")?.or(d.drain_after_ticks),
        deadline: flags.seconds("deadline")?.or(d.deadline),
        ckpt_dir: flags.get("checkpoint").map(PathBuf::from).or(d.ckpt_dir),
        flight_dir: flags.get("flight-dir").map(PathBuf::from).or(d.flight_dir),
        ..d
    };
    if let Some(ms) = flags.opt("backoff-ms")? {
        config.backoff.base_ms = ms;
    }
    // The monitor thread only observes (it cannot influence job
    // outcomes), so it is always on for `pcd batch`: snapshots land in
    // the --trace JSONL, and --progress additionally renders the live
    // stderr line.
    let interval_ms = flags.positive("progress-interval-ms")?;
    config.progress_interval = Some(Duration::from_millis(interval_ms));
    config.progress_stderr = flags.is_set("progress");

    let jobs = read_jobs(flags)?;
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
        config.injection = InjectionPlan::at_rate(meta.pipeline_fault_rate);
        run_batch_resumed(&jobs, &config, Some(&prior))?
    } else {
        run_batch_resumed(&jobs, &config, None)?
    };

    print_batch_report(&report);
    batch_outcome(&report)
}

/// The jobs of the file a `batch` command names.
fn read_jobs(flags: &Flags) -> Result<Vec<JobSpec>, CliError> {
    let jobs_path = flags
        .positional
        .first()
        .ok_or_else(|| CliError::Usage("a JOBS.jsonl file is required".to_string()))?;
    let text = std::fs::read_to_string(jobs_path)
        .map_err(|e| CliError::Usage(format!("reading {jobs_path}: {e}")))?;
    parse_jobs(&text).map_err(CliError::Usage)
}

fn print_batch_report(report: &BatchReport) {
    outln!(
        "{:<4} {:<14} {:<12} {:>12} {:>8}  detail",
        "#",
        "job",
        "state",
        "energy",
        "retries"
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
        outln!(
            "{:<4} {:<14} {:<12} {:>12} {:>8}  {}",
            record.index,
            record.id,
            record.state.label(),
            energy,
            record.retries,
            detail
        );
    }
}

/// Prints a finished batch's tally and maps it to the exit: 30 with jobs
/// still pending (drained), 32 with jobs quarantined or shed (degraded).
fn batch_outcome(report: &BatchReport) -> Result<(), CliError> {
    let (pending, quarantined, shed) = (report.pending(), report.quarantined(), report.shed());
    outln!(
        "batch: {} done, {quarantined} quarantined, {shed} shed, {pending} pending",
        report.done()
    );
    if pending > 0 {
        return Err(CliError::BatchDrained { pending });
    }
    if quarantined + shed > 0 {
        return Err(CliError::BatchDegraded { quarantined, shed });
    }
    Ok(())
}

/// `pcd batch JOBS.jsonl --listen ADDR --shards N --checkpoint DIR`:
/// coordinate a multi-machine batch over TCP and seal the same
/// `batch.manifest` a single-machine run would. `workers` sizes a rescue.
fn cmd_batch_coordinator(
    flags: &Flags,
    batch_seed: u64,
    fault_rate: f64,
    workers: usize,
) -> Result<(), CliError> {
    let dir = flags.get("checkpoint").ok_or_else(|| {
        CliError::Usage("a coordinator needs --checkpoint (batch.manifest seals there)".to_string())
    })?;
    let d = CoordinatorOptions::default();
    let opts = CoordinatorOptions {
        listen: parse_addr(flags, "listen")?,
        shards: flags.opt("shards")?.unwrap_or(d.shards),
        lease_ms: flags.opt("lease-ms")?.unwrap_or(d.lease_ms),
        heartbeat_ms: flags.opt("heartbeat-ms")?.unwrap_or(d.heartbeat_ms),
        deadline: flags
            .opt("net-deadline")?
            .map_or(d.deadline, |secs: u64| Duration::from_secs(secs.max(1))),
        rescue: d.rescue && !flags.is_set("no-rescue"),
    };
    let jobs = read_jobs(flags)?;
    let shards = opts.shards;
    let coordinator =
        Coordinator::bind(&jobs, batch_seed, fault_rate, workers, dir.as_ref(), opts)?;
    errln!(
        "pcd batch: coordinating {} job(s) as {shards} shard(s) on {}",
        jobs.len(),
        coordinator.addr()
    );
    let report = coordinator.run().map_err(CliError::Remote)?;

    for takeover in &report.takeovers {
        outln!(
            "  took over shard {} from {} at epoch {}",
            takeover.shard_id,
            takeover.from,
            takeover.epoch
        );
    }
    for shard in &report.rescued {
        outln!("  rescued shard {shard} in-process after losing its workers");
    }
    if report.deduped > 0 {
        outln!(
            "  deduplicated {} bit-identical resent record(s)",
            report.deduped
        );
    }
    batch_outcome(&BatchReport {
        records: report.records,
        batch_seed,
    })
}

/// `pcd batch --connect ADDR`: join a coordinated batch as a worker.
fn cmd_batch_worker(flags: &Flags) -> Result<(), CliError> {
    if !flags.positional.is_empty() {
        return Err(CliError::Usage(
            "--connect takes no jobs file: the batch identity arrives over the wire".to_string(),
        ));
    }
    let d = WorkerOptions::default();
    let mut opts = WorkerOptions {
        connect: parse_addr(flags, "connect")?,
        worker_id: flags
            .get("worker-id")
            .map(str::to_string)
            .unwrap_or_else(|| format!("worker-{}", std::process::id())),
        threads: flags.opt("workers")?.unwrap_or(d.threads).max(1),
        max_reconnects: flags.opt("max-reconnects")?.unwrap_or(d.max_reconnects),
        ..d
    };
    if let Some(ms) = flags.opt("backoff-ms")? {
        opts.backoff.base_ms = ms;
    }
    errln!(
        "pcd batch: worker {} connecting to {}",
        opts.worker_id,
        opts.connect
    );
    let report = run_worker(&opts).map_err(|e| {
        if matches!(e, RemoteError::TransportLost(_)) {
            errln!(
                "transport lost: this worker keeps nothing — rerun it to rejoin; the \
                 coordinator re-grants or rescues the shard"
            );
        }
        CliError::Remote(e)
    })?;
    outln!(
        "worker {}: {} shard(s) run {:?}, {} record(s) delivered, {} reconnect(s)",
        report.worker_id,
        report.shards_run.len(),
        report.shards_run,
        report.records_sent,
        report.reconnects
    );
    if !report.reconnect_delays_ms.is_empty() {
        outln!(
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

pub(crate) fn cmd_serve(flags: &Flags) -> Result<(), CliError> {
    let d = ServeConfig::default();
    let config = ServeConfig {
        state_dir: flags.get("state-dir").map_or(d.state_dir, PathBuf::from),
        socket: flags.get("socket").map(PathBuf::from).or(d.socket),
        workers: flags.opt("workers")?.unwrap_or(d.workers).max(1),
        seed: flags.opt("seed")?.unwrap_or(d.seed),
        max_retries: flags.opt("max-retries")?.unwrap_or(d.max_retries),
        slice_ticks: flags.opt("slice-ticks")?.unwrap_or(d.slice_ticks),
        max_slices: flags.opt("max-slices")?.unwrap_or(d.max_slices),
        breaker_threshold: flags.opt("breaker")?.unwrap_or(d.breaker_threshold),
        fault_rate: if flags.is_set("fault-rate") {
            flags.rate("fault-rate")?
        } else {
            d.fault_rate
        },
        request_deadline: nonzero(flags, "deadline-ms")?
            .map(Duration::from_millis)
            .or(d.request_deadline),
        max_requests: nonzero(flags, "max-requests")?.or(d.max_requests),
        idle_exit: nonzero(flags, "idle-exit-ms")?
            .map(Duration::from_millis)
            .or(d.idle_exit),
        flight_dir: flags.get("flight-dir").map(PathBuf::from).or(d.flight_dir),
        cache_max_bytes: nonzero(flags, "cache-max-bytes")?.or(d.cache_max_bytes),
    };
    if let Some(dir) = &config.flight_dir {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("creating flight dir {}: {e}", dir.display()))?;
    }
    errln!(
        "pcd serve: listening on {} ({} worker(s), seed {}, state in {})",
        config.socket_path().display(),
        config.workers,
        config.seed,
        config.state_dir.display()
    );

    let summary = run_serve(&config)?;
    outln!(
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
        outln!(
            "  {} corrupt cache entrie(s) quarantined aside and recomputed",
            summary.cache_quarantined
        );
    }
    if summary.drained {
        outln!(
            "  drained: restart state sealed in {}",
            config.manifest_path().display()
        );
        return Err(CliError::ServeDrained {
            pending: summary.pending,
        });
    }
    Ok(())
}
