//! The chaos harness: run the full pipeline many times under a fault
//! plan and tally what was injected, what recovered, and what died.
//!
//! Each trial gets its own [`FaultPlan`] derived deterministically from
//! the base seed, runs chemistry → ansatz → VQE → compilation through the
//! recovery policies in [`crate::recover`], and reports per-policy-class
//! injection and recovery counts. A chaos run *survives* when every trial
//! completes — possibly via retries and fallbacks — with a sane energy.

use std::collections::BTreeMap;

use ansatz::uccsd::UccsdAnsatz;
use arch::Topology;
use chem::scf::ScfOptions;
use chem::Benchmark;
use vqe::driver::VqeOptions;

use crate::fault::{FaultKind, FaultPlan};
use crate::recover::{
    build_system_with_recovery, compile_with_fallback, run_vqe_with_restart, CompileStrategy,
};

/// Configuration of a chaos run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosOptions {
    /// Base seed; trial `t` uses a seed mixed from `(seed, t)`.
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

/// What one trial did.
#[derive(Debug, Clone, PartialEq)]
pub struct TrialOutcome {
    /// Trial index.
    pub trial: usize,
    /// Seed of the trial's fault plan; its `resilience.fault` events
    /// carry it as `plan_seed`.
    pub plan_seed: u64,
    /// Faults the plan injected, in decision order.
    pub faults: Vec<FaultKind>,
    /// SCF ladder retries spent.
    pub scf_retries: usize,
    /// VQE restarts spent.
    pub vqe_restarts: usize,
    /// Whether the compiler fell back to SABRE.
    pub sabre_fallback: bool,
    /// Final VQE energy (Hartree) when the trial completed.
    pub energy: Option<f64>,
    /// The error when the trial died despite recovery.
    pub error: Option<String>,
}

impl TrialOutcome {
    /// Whether the trial completed (with or without recovery work).
    pub fn completed(&self) -> bool {
        self.error.is_none()
    }
}

/// Aggregate result of a chaos run.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosReport {
    /// Trials executed.
    pub trials: usize,
    /// Total faults injected across all trials.
    pub faults_injected: usize,
    /// Injected-fault counts per injection site.
    pub injected_by_kind: BTreeMap<FaultKind, usize>,
    /// Trials recovered per policy class (`scf_retry`,
    /// `compiler_fallback`, `vqe_restart`): the trial had a fault of that
    /// class injected AND completed.
    pub recovered_by_class: BTreeMap<&'static str, usize>,
    /// Trials that failed despite recovery.
    pub failures: usize,
    /// Per-trial detail.
    pub outcomes: Vec<TrialOutcome>,
}

impl ChaosReport {
    /// True when every trial completed.
    pub fn survived(&self) -> bool {
        self.failures == 0
    }

    /// True when at least one injected fault of *each* policy class was
    /// recovered — the acceptance bar for a chaos run with a meaningful
    /// fault rate.
    pub fn all_policy_classes_recovered(&self) -> bool {
        ["scf_retry", "compiler_fallback", "vqe_restart"]
            .iter()
            .all(|class| self.recovered_by_class.get(class).copied().unwrap_or(0) > 0)
    }
}

/// Runs the chaos harness. Emits `resilience.chaos_trial` obs events and
/// relies on the plan/policies for fault and recovery metrics.
pub fn run_chaos(options: &ChaosOptions) -> ChaosReport {
    let mut chaos_span = obs::span("resilience.chaos");
    chaos_span.record("seed", options.seed);
    chaos_span.record("fault_rate", options.fault_rate);
    chaos_span.record("trials", options.trials);

    let bond = options
        .bond_length
        .unwrap_or_else(|| options.benchmark.equilibrium_bond_length());

    // Trials are fully independent (each derives its own seed and fault
    // plan from the trial index), so they run in parallel; `map_indexed`
    // returns them in trial order, keeping the aggregation below — and the
    // whole report — identical at any thread count.
    let outcomes = par::map_indexed(options.trials, |trial| {
        // Per-trial seed: SplitMix64-style odd-constant mix keeps trials
        // decorrelated while staying reproducible from the base seed.
        let trial_seed = options
            .seed
            .wrapping_add((trial as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut plan = FaultPlan::new(trial_seed, options.fault_rate);
        run_trial(trial, bond, options, &mut plan)
    });

    let mut injected_by_kind: BTreeMap<FaultKind, usize> = BTreeMap::new();
    let mut recovered_by_class: BTreeMap<&'static str, usize> = BTreeMap::new();
    let mut faults_injected = 0usize;
    let mut failures = 0usize;

    for outcome in &outcomes {
        faults_injected += outcome.faults.len();
        for &kind in &outcome.faults {
            *injected_by_kind.entry(kind).or_insert(0) += 1;
            if outcome.completed() {
                *recovered_by_class.entry(kind.policy_class()).or_insert(0) += 1;
            }
        }
        if !outcome.completed() {
            failures += 1;
        }
        obs::event!(
            "resilience.chaos_trial",
            trial = outcome.trial,
            faults = outcome.faults.len(),
            completed = outcome.completed(),
            scf_retries = outcome.scf_retries,
            vqe_restarts = outcome.vqe_restarts,
            sabre_fallback = outcome.sabre_fallback
        );
    }

    chaos_span.record("faults_injected", faults_injected);
    chaos_span.record("failures", failures);

    ChaosReport {
        trials: options.trials,
        faults_injected,
        injected_by_kind,
        recovered_by_class,
        failures,
        outcomes,
    }
}

fn run_trial(
    trial: usize,
    bond: f64,
    options: &ChaosOptions,
    plan: &mut FaultPlan,
) -> TrialOutcome {
    let mut outcome = TrialOutcome {
        trial,
        plan_seed: plan.seed(),
        faults: Vec::new(),
        scf_retries: 0,
        vqe_restarts: 0,
        sabre_fallback: false,
        energy: None,
        error: None,
    };

    let result = (|| -> Result<(), crate::PcdError> {
        let (system, scf_retries) =
            build_system_with_recovery(options.benchmark, bond, ScfOptions::default(), plan)?;
        outcome.scf_retries = scf_retries;

        let ir = UccsdAnsatz::for_system(&system).into_ir();

        let (vqe_result, restarts) = run_vqe_with_restart(
            system.qubit_hamiltonian(),
            &ir,
            VqeOptions::default(),
            options.max_restarts,
            plan,
        )?;
        outcome.vqe_restarts = restarts;
        outcome.energy = Some(vqe_result.energy);

        let topology = Topology::xtree(system.num_qubits().max(5) + 1);
        let (_, strategy) = compile_with_fallback(&ir, &topology, plan)?;
        outcome.sabre_fallback = strategy == CompileStrategy::SabreFallback;
        Ok(())
    })();

    if let Err(e) = result {
        outcome.error = Some(e.to_string());
    }
    outcome.faults = plan.injected().iter().map(|f| f.kind).collect();
    outcome
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
        assert_eq!(report.faults_injected, 0);
        let e = report.outcomes[0].energy.expect("trial completed");
        assert!((e - (-1.1373)).abs() < 1e-2, "H2 energy {e}");
    }

    #[test]
    fn full_fault_rate_recovers_every_policy_class() {
        let report = run_chaos(&ChaosOptions {
            fault_rate: 1.0,
            trials: 1,
            ..Default::default()
        });
        assert!(report.survived(), "outcome: {:?}", report.outcomes[0]);
        assert!(report.all_policy_classes_recovered());
        assert!(report.outcomes[0].scf_retries >= 1);
        assert!(report.outcomes[0].vqe_restarts >= 1);
        assert!(report.outcomes[0].sabre_fallback);
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
}
