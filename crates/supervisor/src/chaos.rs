//! The supervisor's chaos campaigns, both reporting through
//! [`resilience::CampaignReport`].
//!
//! **Supervised** ([`run_supervised_chaos`]) drives whole batches through
//! the supervisor under injected panics, hangs, and transients. Per
//! trial it checks that:
//!
//! 1. **No job is lost or double-counted** — every job lands in exactly
//!    one terminal state, and `done + quarantined + shed` equals the
//!    batch size. The process never aborts: panics stay inside their
//!    worker.
//! 2. **Worker count is invisible** — the same batch at 1 worker yields
//!    bit-identical per-job records.
//! 3. **Drain/resume is exact** — a batch drained after a few budget
//!    slices and resumed from its manifest reproduces the uninterrupted
//!    batch bit-for-bit.
//!
//! **Net** ([`run_net_chaos`]) runs a real coordinator and `pcd batch
//! --connect` worker subprocesses through a [`net::FaultProxy`], SIGKILLs
//! a worker mid-grant, and checks the sealed batch manifest is still
//! bit-identical to an uninterrupted in-process run.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use chem::Benchmark;
use net::{FaultProxy, ProxyOptions};
use resilience::{splitmix64, trial_seed, CampaignReport, Checkpoint, Trial};

use crate::engine::{run_batch, run_batch_resumed, InjectionPlan, SupervisorConfig};
use crate::job::{JobRecord, JobSpec};
use crate::manifest::{decode_manifest, encode_manifest, BatchMeta};
use crate::remote::{shard_config, Coordinator, CoordinatorOptions};

/// Supervised-chaos campaign configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SupervisedChaosOptions {
    /// Campaign seed; trial `t` runs batch seed [`trial_seed`]`(seed, t)`.
    pub seed: u64,
    /// Number of trials.
    pub trials: usize,
    /// Jobs per trial batch.
    pub jobs: usize,
    /// Worker threads for the primary run of each trial.
    pub workers: usize,
    /// Injection rate for panics/hangs/transients (the pipeline fault
    /// plan runs at half this rate).
    pub fault_rate: f64,
    /// Also drain each trial's batch mid-flight and verify the resumed
    /// records match the uninterrupted ones bit-for-bit.
    pub check_drain: bool,
    /// When set, every trial arms the flight recorder so quarantines and
    /// injected faults dump `flight-<job>.jsonl` rings here.
    pub flight_dir: Option<PathBuf>,
}

pub(crate) fn trial_jobs(n: usize) -> Vec<JobSpec> {
    (0..n)
        .map(|i| JobSpec {
            id: format!("h2-{i}"),
            benchmark: Benchmark::H2,
            bond: Some(0.64 + 0.05 * i as f64),
            ratio: 1.0,
        })
        .collect()
}

fn trial_config(trial: usize, opts: &SupervisedChaosOptions) -> SupervisorConfig {
    SupervisorConfig {
        workers: opts.workers,
        batch_seed: trial_seed(opts.seed, trial),
        max_retries: 3,
        slice_ticks: 2,
        max_slices: 64,
        breaker_threshold: 3,
        pipeline_fault_rate: opts.fault_rate * 0.5,
        injection: InjectionPlan::chaos(opts.fault_rate),
        flight_dir: opts.flight_dir.clone(),
        ..SupervisorConfig::default()
    }
}

/// Runs the supervised-chaos campaign.
pub fn run_supervised_chaos(opts: &SupervisedChaosOptions) -> CampaignReport {
    let mut span = obs::span("supervisor.chaos");
    span.record("trials", opts.trials);
    span.record("fault_rate", opts.fault_rate);

    let mut report = CampaignReport::new(
        "supervised",
        format!(
            "{} trials × {} jobs at {} workers, fault rate {:.0}%, seed {}",
            opts.trials,
            opts.jobs,
            opts.workers,
            opts.fault_rate * 100.0,
            opts.seed
        ),
    );
    let jobs = trial_jobs(opts.jobs.max(1));
    for t in 0..opts.trials {
        let trial = supervised_trial(t, &jobs, opts);
        if !trial.violations.is_empty() {
            obs::counter_add("supervisor.chaos_failures", 1);
        }
        report.trials.push(trial);
    }

    span.record("failures", report.failures());
    report
}

/// One supervised trial: the batch under injected faults, checked
/// against the three invariants.
fn supervised_trial(t: usize, jobs: &[JobSpec], opts: &SupervisedChaosOptions) -> Trial {
    let config = trial_config(t, opts);
    let mut trial = Trial::new(t, config.batch_seed);

    let baseline = match run_batch(jobs, &config) {
        Ok(report) => report,
        Err(e) => {
            trial.violate(format!("supervisor error: {e}"));
            return trial;
        }
    };

    // Invariant 1: exactly one terminal state per job, none lost.
    if baseline.records.len() != jobs.len() {
        trial.violate(format!(
            "{} records for {} jobs",
            baseline.records.len(),
            jobs.len()
        ));
    }
    if !baseline.all_terminal() {
        trial.violate("undrained batch left non-terminal jobs");
    }
    let counted = baseline.done() + baseline.quarantined();
    if counted != jobs.len() {
        trial.violate(format!(
            "terminal states count {counted}, expected {} (lost or double-counted)",
            jobs.len()
        ));
    }

    // Invariant 2: worker count is invisible in the records.
    let alt_workers = if config.workers == 1 { 4 } else { 1 };
    match run_batch(
        jobs,
        &SupervisorConfig {
            workers: alt_workers,
            ..config.clone()
        },
    ) {
        Ok(alt) if alt.records != baseline.records => trial.violate(format!(
            "records differ between {} and {alt_workers} workers",
            config.workers
        )),
        Ok(_) => {}
        Err(e) => trial.violate(format!("rerun at {alt_workers} workers failed: {e}")),
    }

    // Invariant 3: drain + resume reproduces the uninterrupted batch.
    if opts.check_drain {
        let scratch =
            std::env::temp_dir().join(format!("pcd-supervised-{}-{t}", std::process::id()));
        if let Err(v) = check_drain_resume(jobs, &config, &baseline.records, &scratch) {
            trial.violate(v);
        }
        let _ = std::fs::remove_dir_all(&scratch);
    }

    obs::event!(
        "supervisor.chaos_trial",
        trial = t,
        done = baseline.done(),
        quarantined = baseline.quarantined(),
        violations = trial.violations.len()
    );
    trial.add("jobs done", baseline.done());
    trial.add("jobs quarantined", baseline.quarantined());
    trial.add(
        "retries",
        baseline.records.iter().map(|r| r.retries).sum::<usize>(),
    );
    trial
}

fn check_drain_resume(
    jobs: &[JobSpec],
    config: &SupervisorConfig,
    expected: &[JobRecord],
    scratch: &Path,
) -> Result<(), String> {
    let drained_config = SupervisorConfig {
        drain_after_ticks: Some(3),
        ckpt_dir: Some(scratch.to_path_buf()),
        ..config.clone()
    };
    let drained = run_batch(jobs, &drained_config).map_err(|e| format!("drained run: {e}"))?;
    let resumed = if drained.pending() > 0 {
        let ck = Checkpoint::read(scratch.join("batch.manifest"))
            .map_err(|e| format!("manifest read: {e}"))?;
        let (meta, prior) = decode_manifest(&ck).map_err(|e| format!("manifest decode: {e}"))?;
        if meta.batch_seed != config.batch_seed {
            return Err("manifest carries a different batch seed".to_string());
        }
        let resume_config = SupervisorConfig {
            ckpt_dir: Some(scratch.to_path_buf()),
            ..config.clone()
        };
        run_batch_resumed(jobs, &resume_config, Some(&prior))
            .map_err(|e| format!("resume: {e}"))?
            .records
    } else {
        drained.records
    };
    if resumed != expected {
        return Err("drained-then-resumed records differ from the uninterrupted batch".to_string());
    }
    Ok(())
}

/// Net-chaos campaign configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct NetChaosOptions {
    /// Campaign seed; trial `t` runs batch seed [`trial_seed`]`(seed, t)`,
    /// and the victim worker is drawn from that.
    pub seed: u64,
    /// Number of trials.
    pub trials: usize,
    /// Jobs per trial batch.
    pub jobs: usize,
    /// Worker subprocesses per trial (the coordinator splits the batch
    /// into this many net shards).
    pub workers: usize,
    /// Worker threads inside each worker process.
    pub threads: usize,
    /// Pipeline fault-injection rate (panics/hangs/transients inside the
    /// jobs themselves), exercising transport recovery under concurrent
    /// compute faults.
    pub fault_rate: f64,
    /// Proxy injection rate per fault site per frame — drop, bit-flip,
    /// duplicate, delay, reorder, partition, connection refusal.
    pub net_fault_rate: f64,
    /// The `pcd` binary to spawn workers with.
    pub pcd_exe: PathBuf,
    /// Scratch parent directory (defaults to the system temp directory).
    pub scratch_dir: Option<PathBuf>,
}

/// Runs the net-chaos campaign: per trial, binds an in-process
/// coordinator, stands a [`net::FaultProxy`] in front of it, launches
/// `workers` real `pcd batch --connect` subprocesses through the proxy,
/// SIGKILLs a seeded victim as soon as it holds a grant, and asserts the
/// coordinator's sealed `batch.manifest` is bit-identical to an
/// uninterrupted in-process reference — no record lost, duplicated, or
/// silently corrupted by the damaged link.
///
/// The takeover, rescue, dedup and `killed mid-run` tallies depend on
/// timing (how far the victim got before the signal); the verdict does
/// not.
pub fn run_net_chaos(opts: &NetChaosOptions) -> CampaignReport {
    let mut span = obs::span("net.chaos");
    span.record("trials", opts.trials);
    span.record("workers", opts.workers);

    let mut report = CampaignReport::new(
        "net",
        format!(
            "{} trials × {} jobs over {} TCP workers, pipeline faults {:.0}%, \
             net faults {:.0}%, seed {}",
            opts.trials,
            opts.jobs,
            opts.workers,
            opts.fault_rate * 100.0,
            opts.net_fault_rate * 100.0,
            opts.seed
        ),
    );
    let jobs = trial_jobs(opts.jobs.max(1));
    for t in 0..opts.trials {
        let mut trial = Trial::new(t, trial_seed(opts.seed, t));
        let scratch = opts
            .scratch_dir
            .clone()
            .unwrap_or_else(std::env::temp_dir)
            .join(format!("pcd-netchaos-{}-{t}", std::process::id()));
        if let Err(v) = net_chaos_trial(&jobs, &scratch, opts, &mut trial) {
            trial.violate(v);
        }
        if !trial.violations.is_empty() {
            obs::counter_add("supervisor.chaos_failures", 1);
        }
        obs::event!(
            "net.chaos_trial",
            trial = t,
            killed_mid_run = trial.tally("killed mid-run") > 0,
            takeovers = trial.tally("takeovers"),
            rescued = trial.tally("rescued shards"),
            deduped = trial.tally("dedups"),
            violations = trial.violations.len()
        );
        let _ = std::fs::remove_dir_all(&scratch);
        report.trials.push(trial);
    }

    span.record("failures", report.failures());
    span.record("takeovers", report.total("takeovers"));
    report
}

fn net_chaos_trial(
    jobs: &[JobSpec],
    scratch: &Path,
    opts: &NetChaosOptions,
    trial: &mut Trial,
) -> Result<(), String> {
    let batch_seed = trial.plan_seed;
    let _ = std::fs::remove_dir_all(scratch);
    std::fs::create_dir_all(scratch).map_err(|e| format!("scratch dir: {e}"))?;

    // Uninterrupted in-process reference, under the config every shard
    // runs: the sealed manifest every proxied + killed run must reproduce
    // bit-for-bit.
    let config = shard_config(batch_seed, opts.fault_rate, opts.threads);
    let reference = run_batch(jobs, &config).map_err(|e| format!("reference run: {e}"))?;
    let meta = BatchMeta {
        batch_seed,
        jobs: jobs.len(),
        pipeline_fault_rate: config.pipeline_fault_rate,
    };
    let reference_bytes = encode_manifest(&meta, &reference.records).to_bytes();

    // Coordinator behind the fault proxy.
    let coordinator = Coordinator::bind(
        jobs,
        batch_seed,
        opts.fault_rate,
        opts.threads,
        &scratch.join("ckpt"),
        CoordinatorOptions {
            shards: opts.workers.max(1),
            deadline: Duration::from_secs(60),
            ..CoordinatorOptions::default()
        },
    )
    .map_err(|e| format!("coordinator bind: {e}"))?;
    let watch = coordinator.watch();
    let proxy = FaultProxy::start(ProxyOptions {
        listen: SocketAddr::from(([127, 0, 0, 1], 0)),
        target: coordinator.addr(),
        seed: splitmix64(batch_seed ^ 0x5EA_F007),
        fault_rate: opts.net_fault_rate,
    })
    .map_err(|e| format!("proxy start: {e}"))?;
    let proxy_addr = proxy.addr();
    let coord_thread = std::thread::spawn(move || coordinator.run());

    // The fleet, each worker connecting through the damaged link.
    let mut children = Vec::new();
    for w in 0..opts.workers.max(1) {
        let worker_id = format!("w{w}");
        let child = Command::new(&opts.pcd_exe)
            .arg("batch")
            .args(["--connect", &proxy_addr.to_string()])
            .args(["--worker-id", &worker_id])
            .args(["--workers", &opts.threads.max(1).to_string()])
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawning worker {worker_id}: {e}"))?;
        children.push((worker_id, child));
    }

    // SIGKILL the seeded victim the moment it holds a live grant (mid-run
    // by construction... unless it delivers the whole shard faster than
    // the poll, which the exit status below detects).
    let victim = format!(
        "w{}",
        splitmix64(batch_seed ^ 0xFEED) % opts.workers.max(1) as u64
    );
    let deadline = Instant::now() + Duration::from_secs(20);
    while !watch.granted_to(&victim) && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }

    for (worker_id, mut child) in children {
        let is_victim = worker_id == victim;
        if is_victim {
            let _ = child.kill();
        }
        let status = child
            .wait()
            .map_err(|e| format!("waiting for worker {worker_id}: {e}"))?;
        if is_victim {
            // The signal actually cut the run short; a victim that beat
            // the poll to completion exits 0.
            trial.add("killed mid-run", usize::from(!status.success()));
            continue;
        }
        // Survivors must end in the exit taxonomy: 0 (drained clean) or
        // 36 (transport exhausted, sealed partial, resumable). Anything
        // else — a panic, a protocol error, a usage failure — is a
        // violation.
        match status.code() {
            Some(0) | Some(36) => {}
            code => trial.violate(format!("worker {worker_id} exited {code:?} (want 0 or 36)")),
        }
    }

    let report = coord_thread
        .join()
        .map_err(|_| "coordinator thread panicked".to_string())?
        .map_err(|e| format!("coordinator run: {e}"))?;
    proxy.stop();

    trial.add("takeovers", report.takeovers.len());
    trial.add("rescued shards", report.rescued.len());
    trial.add("dedups", report.deduped);

    // The invariants: every job terminal exactly once, and the sealed
    // manifest bit-identical to the uninterrupted reference — whatever
    // the proxy dropped, flipped, duplicated, or severed.
    if report.records.len() != jobs.len() {
        trial.violate(format!(
            "coordinator sealed {} records for {} jobs",
            report.records.len(),
            jobs.len()
        ));
    }
    if report.sealed != reference_bytes {
        trial.violate(
            "coordinator batch.manifest differs from the single-machine reference manifest",
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_campaign_survives() {
        let opts = SupervisedChaosOptions {
            seed: 42,
            trials: 3,
            jobs: 4,
            workers: 2,
            fault_rate: 0.3,
            check_drain: true,
            flight_dir: None,
        };
        let report = run_supervised_chaos(&opts);
        assert_eq!(report.trials.len(), 3);
        for trial in &report.trials {
            assert!(
                trial.violations.is_empty(),
                "trial {} violations: {:?}",
                trial.trial,
                trial.violations
            );
        }
        assert!(report.survived());
    }
}
