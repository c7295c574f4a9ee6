//! Supervised chaos: drive whole batches through the supervisor under
//! injected panics, hangs, and transients, and assert the supervision
//! invariants hold.
//!
//! Per trial, the harness checks that:
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

use std::path::PathBuf;

use chem::Benchmark;

use crate::engine::{run_batch, run_batch_resumed, InjectionPlan, SupervisorConfig};
use crate::job::JobSpec;
use crate::manifest::decode_manifest;
use crate::queue::ShedPolicy;
use resilience::Checkpoint;

/// Supervised-chaos campaign configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SupervisedChaosOptions {
    /// Campaign seed; trial `t` derives its batch seed from it.
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
    /// Scratch directory for drain manifests (defaults to the system
    /// temp directory).
    pub scratch_dir: Option<PathBuf>,
    /// When set, every trial arms the flight recorder so quarantines and
    /// injected faults dump `flight-<job>.jsonl` rings here.
    pub flight_dir: Option<PathBuf>,
}

impl Default for SupervisedChaosOptions {
    fn default() -> Self {
        SupervisedChaosOptions {
            seed: 42,
            trials: 10,
            jobs: 6,
            workers: 2,
            fault_rate: 0.25,
            check_drain: true,
            scratch_dir: None,
            flight_dir: None,
        }
    }
}

/// One trial's outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct SupervisedTrialOutcome {
    /// Trial index.
    pub trial: usize,
    /// Jobs that completed.
    pub done: usize,
    /// Jobs quarantined.
    pub quarantined: usize,
    /// Jobs shed by admission control.
    pub shed: usize,
    /// Supervisor-level retries spent across the batch.
    pub retries: usize,
    /// Invariant violations (empty = the trial survived).
    pub violations: Vec<String>,
}

/// The whole campaign's outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct SupervisedChaosReport {
    /// Per-trial outcomes.
    pub outcomes: Vec<SupervisedTrialOutcome>,
}

impl SupervisedChaosReport {
    /// Trials that violated an invariant.
    pub fn failures(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| !o.violations.is_empty())
            .count()
    }

    /// Whether every trial upheld every invariant.
    pub fn survived(&self) -> bool {
        self.failures() == 0
    }
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
    // Same trial-seed derivation as the unsupervised chaos harness.
    let batch_seed = opts
        .seed
        .wrapping_add((trial as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    // Every third trial undersizes the queue so the shed path gets
    // exercised too, alternating the policy.
    let (queue_cap, shed) = if trial % 3 == 2 && opts.jobs > 1 {
        let policy = if trial.is_multiple_of(2) {
            ShedPolicy::RejectNew
        } else {
            ShedPolicy::DropOldest
        };
        (opts.jobs - 1, policy)
    } else {
        (0, ShedPolicy::RejectNew)
    };
    SupervisorConfig {
        workers: opts.workers,
        batch_seed,
        max_retries: 3,
        queue_cap,
        shed,
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
pub fn run_supervised_chaos(opts: &SupervisedChaosOptions) -> SupervisedChaosReport {
    let mut span = obs::span("supervisor.chaos");
    span.record("trials", opts.trials);
    span.record("fault_rate", opts.fault_rate);

    let jobs = trial_jobs(opts.jobs.max(1));
    let mut outcomes = Vec::with_capacity(opts.trials);
    for trial in 0..opts.trials {
        let config = trial_config(trial, opts);
        let mut violations = Vec::new();

        let baseline = match run_batch(&jobs, &config) {
            Ok(report) => report,
            Err(e) => {
                outcomes.push(SupervisedTrialOutcome {
                    trial,
                    done: 0,
                    quarantined: 0,
                    shed: 0,
                    retries: 0,
                    violations: vec![format!("supervisor error: {e}")],
                });
                obs::counter_add("supervisor.chaos_failures", 1);
                continue;
            }
        };

        // Invariant 1: exactly one terminal state per job, none lost.
        if baseline.records.len() != jobs.len() {
            violations.push(format!(
                "{} records for {} jobs",
                baseline.records.len(),
                jobs.len()
            ));
        }
        if !baseline.all_terminal() {
            violations.push("undrained batch left non-terminal jobs".to_string());
        }
        let counted = baseline.done() + baseline.quarantined() + baseline.shed();
        if counted != jobs.len() {
            violations.push(format!(
                "terminal states count {counted}, expected {} (lost or double-counted)",
                jobs.len()
            ));
        }

        // Invariant 2: worker count is invisible in the records.
        let alt_workers = if config.workers == 1 { 4 } else { 1 };
        match run_batch(
            &jobs,
            &SupervisorConfig {
                workers: alt_workers,
                ..config.clone()
            },
        ) {
            Ok(alt) if alt.records != baseline.records => violations.push(format!(
                "records differ between {} and {alt_workers} workers",
                config.workers
            )),
            Ok(_) => {}
            Err(e) => violations.push(format!("rerun at {alt_workers} workers failed: {e}")),
        }

        // Invariant 3: drain + resume reproduces the uninterrupted batch.
        if opts.check_drain {
            if let Err(v) = check_drain_resume(trial, &jobs, &config, &baseline.records, opts) {
                violations.push(v);
            }
        }

        obs::event!(
            "supervisor.chaos_trial",
            trial = trial,
            done = baseline.done(),
            quarantined = baseline.quarantined(),
            shed = baseline.shed(),
            violations = violations.len()
        );
        if !violations.is_empty() {
            obs::counter_add("supervisor.chaos_failures", 1);
        }
        outcomes.push(SupervisedTrialOutcome {
            trial,
            done: baseline.done(),
            quarantined: baseline.quarantined(),
            shed: baseline.shed(),
            retries: baseline.records.iter().map(|r| r.retries).sum(),
            violations,
        });
    }

    let report = SupervisedChaosReport { outcomes };
    span.record("failures", report.failures());
    report
}

fn check_drain_resume(
    trial: usize,
    jobs: &[JobSpec],
    config: &SupervisorConfig,
    expected: &[crate::job::JobRecord],
    opts: &SupervisedChaosOptions,
) -> Result<(), String> {
    let scratch = opts
        .scratch_dir
        .clone()
        .unwrap_or_else(std::env::temp_dir)
        .join(format!("pcd-supervised-{}-{trial}", std::process::id()));
    let result = drain_resume_inner(jobs, config, expected, &scratch);
    let _ = std::fs::remove_dir_all(&scratch);
    result
}

fn drain_resume_inner(
    jobs: &[JobSpec],
    config: &SupervisorConfig,
    expected: &[crate::job::JobRecord],
    scratch: &std::path::Path,
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
            trials: 3,
            jobs: 4,
            fault_rate: 0.3,
            ..SupervisedChaosOptions::default()
        };
        let report = run_supervised_chaos(&opts);
        assert_eq!(report.outcomes.len(), 3);
        for outcome in &report.outcomes {
            assert!(
                outcome.violations.is_empty(),
                "trial {} violations: {:?}",
                outcome.trial,
                outcome.violations
            );
        }
        assert!(report.survived());
    }

    #[test]
    fn shed_trials_actually_shed() {
        let opts = SupervisedChaosOptions {
            trials: 3,
            jobs: 4,
            fault_rate: 0.0,
            check_drain: false,
            ..SupervisedChaosOptions::default()
        };
        let report = run_supervised_chaos(&opts);
        // Trial 2 undersizes the queue by one.
        assert_eq!(report.outcomes[2].shed, 1);
        assert!(report.survived());
    }
}
