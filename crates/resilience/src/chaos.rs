//! The chaos harness: one report type for every fault campaign, plus the
//! two campaigns that exercise the pipeline itself.
//!
//! Every campaign — `pipeline` and `kill-resume` here, `supervised` in
//! the supervisor crate, `serve` in the serve crate — returns a
//! [`CampaignReport`]: one [`Trial`] record per seeded trial (or named
//! phase) carrying its plan seed, named tallies and the violations it
//! raised. A campaign *survives* when no trial raised a violation. Trial
//! `t` of a campaign with base seed `s` runs under [`trial_seed`]`(s, t)`.
//!
//! Both drive the pipeline through [`crate::stages`]:
//!
//! - [`run_chaos`] runs the build, ansatz (compressed at ratio 1.0), VQE
//!   (under the restart policy) and compile stages many times under a
//!   [`FaultPlan`] per trial, and tallies per-site injections and
//!   per-policy recoveries.
//! - [`run_kill_resume`] interrupts the VQE and yield stages every few
//!   budget ticks, lets each stage save its checkpoint file, resumes from
//!   it, and checks the results equal an uninterrupted run bit-for-bit.
//!   A scratch checkpoint directory is removed however the campaign ends.

use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};

use chem::Benchmark;
use par::Budget;

use crate::checkpoint::f64_to_hex;
use crate::fault::{FaultKind, FaultPlan};
use crate::stages::{self, Checkpoints, CompileStrategy, DEGRADE_THRESHOLD};
use crate::PcdError;

/// The recovery policy classes the pipeline campaign exercises.
const PIPELINE_POLICY_CLASSES: [&str; 3] = ["scf_retry", "compiler_fallback", "vqe_restart"];

/// The seed trial `t` of a campaign with base seed `seed` runs under: a
/// SplitMix64-style odd-constant step that keeps trials decorrelated
/// while staying reproducible from the base seed.
pub fn trial_seed(seed: u64, t: usize) -> u64 {
    seed.wrapping_add((t as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// What one trial — or one named phase — of a campaign did.
#[derive(Debug, Clone, PartialEq)]
pub struct Trial {
    /// Position in the campaign, counting seeded trials and phases alike.
    pub trial: usize,
    /// The phase name (`vqe`, `yield`, `subprocess`) for a record that is
    /// not one of the campaign's seeded trials.
    pub phase: Option<&'static str>,
    /// Seed of the trial's plan (0 for a phase with no seeded plan); the
    /// pipeline's `resilience.fault` events carry it as `plan_seed`.
    pub plan_seed: u64,
    /// Named counts (jobs done, faults injected per site, kills, ...).
    pub tallies: BTreeMap<String, usize>,
    /// Faults the trial's [`FaultPlan`] injected, in decision order.
    pub faults: Vec<FaultKind>,
    /// The energy (Hartree) the trial ended with, when it computed one.
    pub energy: Option<f64>,
    /// Every broken promise, in the order observed.
    pub violations: Vec<String>,
}

impl Trial {
    /// An empty record for seeded trial `trial`.
    pub fn new(trial: usize, plan_seed: u64) -> Self {
        Trial {
            trial,
            phase: None,
            plan_seed,
            tallies: BTreeMap::new(),
            faults: Vec::new(),
            energy: None,
            violations: Vec::new(),
        }
    }

    /// An empty record for the named phase at position `trial`.
    pub fn phase(trial: usize, phase: &'static str, plan_seed: u64) -> Self {
        Trial {
            phase: Some(phase),
            ..Trial::new(trial, plan_seed)
        }
    }

    /// Adds `n` to the named tally (creating it at `n`).
    pub fn add(&mut self, name: impl Into<String>, n: usize) {
        *self.tallies.entry(name.into()).or_insert(0) += n;
    }

    /// The named tally (0 when never added).
    pub fn tally(&self, name: &str) -> usize {
        self.tallies.get(name).copied().unwrap_or(0)
    }

    /// Records a broken promise.
    pub fn violate(&mut self, message: impl Into<String>) {
        self.violations.push(message.into());
    }
}

/// The outcome of any chaos campaign. `Display` renders it as the text
/// `pcd chaos` prints.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignReport {
    /// Campaign kind: `pipeline`, `kill-resume`, `supervised` or
    /// `serve`.
    pub campaign: &'static str,
    /// One line naming the configuration the campaign ran.
    pub summary: String,
    /// Per-trial records, in run order.
    pub trials: Vec<Trial>,
}

impl CampaignReport {
    /// An empty report.
    pub fn new(campaign: &'static str, summary: impl Into<String>) -> Self {
        CampaignReport {
            campaign,
            summary: summary.into(),
            trials: Vec::new(),
        }
    }

    /// Trials that raised at least one violation.
    pub fn failures(&self) -> usize {
        self.trials
            .iter()
            .filter(|t| !t.violations.is_empty())
            .count()
    }

    /// True when no trial raised a violation.
    pub fn survived(&self) -> bool {
        self.failures() == 0
    }

    /// The named tally summed over every trial.
    pub fn total(&self, name: &str) -> usize {
        self.trials.iter().map(|t| t.tally(name)).sum()
    }

    /// Every tally summed over every trial, by name.
    pub fn totals(&self) -> BTreeMap<&str, usize> {
        let mut totals = BTreeMap::new();
        for trial in &self.trials {
            for (name, n) in &trial.tallies {
                *totals.entry(name.as_str()).or_insert(0) += n;
            }
        }
        totals
    }

    /// True when at least one injected fault of *each* pipeline policy
    /// class was recovered — the acceptance bar for a pipeline campaign
    /// with a meaningful fault rate.
    pub fn all_policy_classes_recovered(&self) -> bool {
        PIPELINE_POLICY_CLASSES
            .iter()
            .all(|class| self.total(&format!("recovered {class}")) > 0)
    }
}

impl fmt::Display for CampaignReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "chaos --campaign {}: {}", self.campaign, self.summary)?;
        let totals = self.totals();
        let width = totals.keys().map(|name| name.len()).max().unwrap_or(0);
        for (name, n) in totals {
            writeln!(f, "  {name:<width$} : {n}")?;
        }
        for trial in &self.trials {
            for violation in &trial.violations {
                match trial.phase {
                    Some(phase) => writeln!(f, "  {phase}: VIOLATION: {violation}")?,
                    None => writeln!(f, "  trial {}: VIOLATION: {violation}", trial.trial)?,
                }
            }
        }
        let n = self.trials.len();
        if self.survived() {
            writeln!(f, "  survived: {n} of {n} trial(s) upheld every invariant")
        } else {
            writeln!(
                f,
                "  FAILED: {} of {n} trial(s) broke an invariant",
                self.failures()
            )
        }
    }
}

/// Configuration of a pipeline campaign.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosOptions {
    /// Base seed; trial `t` runs under [`trial_seed`]`(seed, t)`.
    pub seed: u64,
    /// Per-visit fault probability in `[0, 1]`.
    pub fault_rate: f64,
    /// Number of independent pipeline trials.
    pub trials: usize,
    /// Benchmark molecule.
    pub benchmark: Benchmark,
    /// Bond length in Angstrom (`None` = equilibrium).
    pub bond_length: Option<f64>,
    /// Maximum VQE restarts per trial.
    pub max_restarts: usize,
}

impl Default for ChaosOptions {
    fn default() -> Self {
        ChaosOptions {
            seed: 42,
            fault_rate: 0.1,
            trials: 40,
            benchmark: Benchmark::H2,
            bond_length: None,
            max_restarts: 3,
        }
    }
}

/// Runs the pipeline campaign. Emits `resilience.chaos_trial` obs events
/// and relies on the plan/policies for fault and recovery metrics.
pub fn run_chaos(options: &ChaosOptions) -> CampaignReport {
    let mut chaos_span = obs::span("resilience.chaos");
    chaos_span.record("seed", options.seed);
    chaos_span.record("fault_rate", options.fault_rate);
    chaos_span.record("trials", options.trials);

    let bond = options
        .bond_length
        .unwrap_or_else(|| options.benchmark.equilibrium_bond_length());

    // Trials are fully independent (each derives its own seed and fault
    // plan from the trial index), so they run in parallel; `map_indexed`
    // returns them in trial order, keeping the report identical at any
    // thread count.
    let trials = par::map_indexed(options.trials, |t| {
        let mut plan = FaultPlan::new(trial_seed(options.seed, t), options.fault_rate);
        run_pipeline_trial(t, bond, options, &mut plan)
    });

    for trial in &trials {
        obs::event!(
            "resilience.chaos_trial",
            trial = trial.trial,
            faults = trial.faults.len(),
            completed = trial.violations.is_empty(),
            scf_retries = trial.tally("scf retries"),
            vqe_restarts = trial.tally("vqe restarts"),
            sabre_fallback = trial.tally("sabre fallbacks") > 0
        );
    }

    let report = CampaignReport {
        campaign: "pipeline",
        summary: format!(
            "{} × {} trials, fault rate {:.0}%, seed {}",
            options.benchmark.name(),
            options.trials,
            options.fault_rate * 100.0,
            options.seed
        ),
        trials,
    };
    chaos_span.record("faults_injected", report.total("faults injected"));
    chaos_span.record("failures", report.failures());
    report
}

fn run_pipeline_trial(t: usize, bond: f64, options: &ChaosOptions, plan: &mut FaultPlan) -> Trial {
    let mut trial = Trial::new(t, plan.seed());

    let result = (|| -> Result<(), PcdError> {
        let _root = stages::root();
        let (system, scf_retries) = stages::build(options.benchmark, bond, plan)?;
        trial.add("scf retries", scf_retries);

        let (ir, _) = stages::ansatz(&system, 1.0);

        let (vqe_result, restarts) =
            stages::vqe_with_restart(&system, &ir, options.max_restarts, plan)?;
        trial.add("vqe restarts", restarts);
        trial.energy = Some(vqe_result.energy);

        let (_, strategy) = stages::compile(&ir, &stages::xtree_for(&system), plan)?;
        trial.add(
            "sabre fallbacks",
            usize::from(strategy == CompileStrategy::SabreFallback),
        );
        Ok(())
    })();
    if let Err(e) = result {
        trial.violate(e.to_string());
    }

    trial.faults = plan.injected().iter().map(|f| f.kind).collect();
    trial.add("faults injected", trial.faults.len());
    for class in PIPELINE_POLICY_CLASSES {
        trial.add(format!("recovered {class}"), 0);
    }
    let completed = trial.violations.is_empty();
    for kind in trial.faults.clone() {
        trial.add(format!("injected {}", kind.site()), 1);
        if completed {
            trial.add(format!("recovered {}", kind.policy_class()), 1);
        }
    }
    trial
}

/// Configuration of a kill-resume campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct KillResumeOptions {
    /// Benchmark molecule.
    pub benchmark: Benchmark,
    /// Bond length in Angstrom (`None` = equilibrium).
    pub bond_length: Option<f64>,
    /// Compression ratio in `(0, 1]`.
    pub ratio: f64,
    /// Budget ticks each run gets before it is interrupted.
    pub kill_every: u64,
    /// Yield Monte Carlo samples.
    pub samples: usize,
    /// Where the checkpoint files live; `None` = a scratch directory in
    /// the system temp directory, removed afterwards.
    pub checkpoint_dir: Option<PathBuf>,
}

/// Runs `stage` with a `kill_every`-tick budget until it finishes,
/// resuming each time from the checkpoint the interrupted run saved in
/// `dir`. Returns the result and the number of kills.
fn through_kills<T>(
    dir: &Path,
    kill_every: u64,
    mut stage: impl FnMut(&Budget, &Checkpoints) -> Result<T, PcdError>,
) -> Result<(T, usize), PcdError> {
    let mut store = Checkpoints::new(dir, false);
    let mut kills = 0;
    loop {
        match stage(&Budget::max_ticks(kill_every), &store) {
            Ok(done) => return Ok((done, kills)),
            Err(PcdError::Interrupted { .. }) => {
                kills += 1;
                store.resume = true;
            }
            Err(e) => return Err(e),
        }
    }
}

/// Runs the kill-resume campaign: two phases, `vqe` and `yield`, each an
/// uninterrupted baseline followed by runs of `kill_every` budget ticks
/// that checkpoint to disk and resume from the file until done. A phase
/// violates when its resumed result differs from the baseline in any
/// bit. A scratch checkpoint directory is removed however the campaign
/// ends.
///
/// # Errors
///
/// Building the molecule, the VQE itself, or checkpoint file I/O failing
/// outright.
pub fn run_kill_resume(options: &KillResumeOptions) -> Result<CampaignReport, PcdError> {
    let Some(dir) = &options.checkpoint_dir else {
        let scratch = std::env::temp_dir().join(format!("pcd-kill-resume-{}", std::process::id()));
        let report = kill_resume_in(&scratch, options);
        let _ = std::fs::remove_dir_all(&scratch);
        return report;
    };
    kill_resume_in(dir, options)
}

fn kill_resume_in(dir: &Path, options: &KillResumeOptions) -> Result<CampaignReport, PcdError> {
    let bond = options
        .bond_length
        .unwrap_or_else(|| options.benchmark.equilibrium_bond_length());
    let mut report = CampaignReport::new(
        "kill-resume",
        format!(
            "{} @ {bond} Å, killing every {} tick(s)",
            options.benchmark.name(),
            options.kill_every
        ),
    );
    let _root = stages::root();

    // VQE: uninterrupted baseline, then the kill/resume gauntlet through
    // the on-disk checkpoint file.
    let (system, _) = stages::build(options.benchmark, bond, &mut FaultPlan::none())?;
    let (ir, _) = stages::ansatz(&system, options.ratio);
    let unlimited = Budget::unlimited();
    let baseline = stages::vqe(&system, &ir, &unlimited, None)?;
    let (resumed, kills) = through_kills(dir, options.kill_every, |budget, store| {
        stages::vqe(&system, &ir, budget, Some(store))
    })?;
    let mut vqe = Trial::phase(0, "vqe", 0);
    vqe.add("vqe kills", kills);
    vqe.energy = Some(resumed.energy);
    if resumed.energy.to_bits() != baseline.energy.to_bits() {
        vqe.violate(format!(
            "resumed energy 0x{} differs from the uninterrupted 0x{}",
            f64_to_hex(resumed.energy),
            f64_to_hex(baseline.energy)
        ));
    }
    report.trials.push(vqe);

    // Yield Monte Carlo: same gauntlet at chunk-wave grain.
    let y_baseline = stages::yield_mc(options.samples, DEGRADE_THRESHOLD, &unlimited, None)?;
    let (y_resumed, kills) = through_kills(dir, options.kill_every, |budget, store| {
        stages::yield_mc(options.samples, DEGRADE_THRESHOLD, budget, Some(store))
    })?;
    let mut yield_phase = Trial::phase(1, "yield", 0);
    yield_phase.add("yield kills", kills);
    if y_resumed.yield_rate.to_bits() != y_baseline.yield_rate.to_bits() {
        yield_phase.violate(format!(
            "resumed yield 0x{} differs from the uninterrupted 0x{}",
            f64_to_hex(y_resumed.yield_rate),
            f64_to_hex(y_baseline.yield_rate)
        ));
    }
    report.trials.push(yield_phase);

    Checkpoints::new(dir, false).clear();
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_fault_rate_is_a_clean_sweep() {
        let report = run_chaos(&ChaosOptions {
            fault_rate: 0.0,
            trials: 1,
            ..Default::default()
        });
        assert!(report.survived());
        assert_eq!(report.total("faults injected"), 0);
        let e = report.trials[0].energy.expect("trial completed");
        assert!((e - (-1.1373)).abs() < 1e-2, "H2 energy {e}");
    }

    #[test]
    fn full_fault_rate_recovers_every_policy_class() {
        let report = run_chaos(&ChaosOptions {
            fault_rate: 1.0,
            trials: 1,
            ..Default::default()
        });
        assert!(report.survived(), "outcome: {:?}", report.trials[0]);
        assert!(report.all_policy_classes_recovered());
        assert!(report.trials[0].tally("scf retries") >= 1);
        assert!(report.trials[0].tally("vqe restarts") >= 1);
        assert_eq!(report.trials[0].tally("sabre fallbacks"), 1);
    }

    #[test]
    fn chaos_runs_are_deterministic() {
        let opts = ChaosOptions {
            fault_rate: 0.3,
            trials: 4,
            ..Default::default()
        };
        let a = run_chaos(&opts);
        let b = run_chaos(&opts);
        assert_eq!(a, b);
    }

    #[test]
    fn trial_seeds_step_by_the_golden_ratio_constant() {
        assert_eq!(trial_seed(42, 0), 42);
        assert_eq!(trial_seed(42, 1), 42 + 0x9E37_79B9_7F4A_7C15);
        assert_eq!(
            trial_seed(u64::MAX, 2),
            u64::MAX.wrapping_add(0x3C6E_F372_FE94_F82A)
        );
    }

    #[test]
    fn report_counts_failures_per_trial_and_renders_violations() {
        let mut report = CampaignReport::new("pipeline", "test");
        let mut a = Trial::new(0, 1);
        a.add("jobs done", 2);
        a.violate("first");
        a.violate("second");
        let mut b = Trial::phase(1, "subprocess", 0);
        b.add("jobs done", 3);
        report.trials = vec![a, b];
        assert_eq!(report.failures(), 1);
        assert!(!report.survived());
        assert_eq!(report.total("jobs done"), 5);
        let text = report.to_string();
        assert!(text.contains("trial 0: VIOLATION: second"), "{text}");
        assert!(text.contains("FAILED: 1 of 2 trial(s)"), "{text}");
    }

    #[test]
    fn kill_resume_removes_its_scratch_dir_when_a_stage_fails() {
        let scratch = std::env::temp_dir().join(format!("pcd-kill-resume-{}", std::process::id()));
        let result = run_kill_resume(&KillResumeOptions {
            benchmark: Benchmark::H2,
            bond_length: Some(1e-5),
            ratio: 1.0,
            kill_every: 2,
            samples: 100,
            checkpoint_dir: None,
        });
        assert!(result.is_err(), "a collapsed bond must not build");
        assert!(!scratch.exists(), "{} was left behind", scratch.display());
    }
}
