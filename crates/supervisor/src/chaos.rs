//! The supervisor's chaos campaign, reporting through
//! [`resilience::CampaignReport`].
//!
//! [`run_supervised_chaos`] drives whole batches through the supervisor under injected panics, hangs, and transients. Per
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

use std::path::{Path, PathBuf};

use chem::Benchmark;
use resilience::{trial_seed, CampaignReport, Checkpoint, Trial};

use crate::engine::{run_batch, run_batch_resumed, SupervisorConfig};
use crate::job::{JobRecord, JobSpec};
use crate::manifest::decode_manifest;

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

fn trial_jobs(n: usize) -> Vec<JobSpec> {
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
        pipeline_fault_rate: opts.fault_rate * 0.5,
        injection_rate: opts.fault_rate,
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
