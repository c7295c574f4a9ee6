//! The VQE outer loop (paper Fig 3) and the noisy evaluators of §VI-D.

use pauli::WeightedPauliSum;
use sim::{DensityMatrix, NoiseModel};

use ansatz::PauliIr;
use compiler::synthesis::synthesize_chain;

use crate::error::VqeError;
use crate::optimize::{
    lbfgs, lbfgs_resumable, nelder_mead, LbfgsState, OptRun, OptimizeControls, OptimizeOutcome,
};
use crate::sector::SectorAnsatz;
use crate::state::energy_and_gradient;

/// Options for a VQE run. The optimizer follows from the objective:
/// L-BFGS wherever a gradient exists, Nelder–Mead on the density-matrix
/// evaluator.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct VqeOptions {
    /// Convergence controls.
    pub controls: OptimizeControls,
}

/// Result of a VQE run.
#[derive(Debug, Clone, PartialEq)]
pub struct VqeResult {
    /// The minimized energy (Hartree for molecular Hamiltonians).
    pub energy: f64,
    /// Optimal parameters.
    pub params: Vec<f64>,
    /// Outer-loop iterations — the paper's convergence-speed metric.
    pub iterations: usize,
    /// Total objective evaluations.
    pub evaluations: usize,
    /// Energy after each outer iteration.
    pub trace: Vec<f64>,
    /// Whether the optimizer converged before its iteration cap.
    pub converged: bool,
}

impl From<OptimizeOutcome> for VqeResult {
    fn from(o: OptimizeOutcome) -> Self {
        VqeResult {
            energy: o.value,
            params: o.params,
            iterations: o.iterations,
            evaluations: o.evaluations,
            trace: o.trace,
            converged: o.converged,
        }
    }
}

/// A VQE run frozen at an L-BFGS iteration boundary, ready to be
/// serialized and resumed. The caller must resume with the *same*
/// Hamiltonian, IR, starting point, and options — the checkpoint carries
/// only the optimizer loop state.
#[derive(Debug, Clone, PartialEq)]
pub struct VqeCheckpoint {
    /// L-BFGS loop state.
    pub lbfgs: LbfgsState,
}

/// Outcome of a budget-aware VQE run.
#[derive(Debug, Clone, PartialEq)]
pub enum VqeRun {
    /// The run finished.
    Done(VqeResult),
    /// The budget expired; resume later from the checkpoint.
    Interrupted(Box<VqeCheckpoint>),
}

/// The noise-free objective of one VQE run: the sector sweeps when the
/// `(H, IR)` pair is eligible, the full-space fused path otherwise.
enum Evaluator<'a> {
    Sector(Box<SectorAnsatz>),
    Full(&'a WeightedPauliSum, &'a PauliIr),
}

impl<'a> Evaluator<'a> {
    /// Picks the path and records it on the `vqe.run` span: `space`, and
    /// `sector_dim` or the `fallback` reason.
    fn select(
        hamiltonian: &'a WeightedPauliSum,
        ir: &'a PauliIr,
        span: &mut obs::SpanGuard,
    ) -> Self {
        match SectorAnsatz::build(hamiltonian, ir) {
            Ok(sector) => {
                span.record("space", "sector");
                span.record("sector_dim", sector.dim());
                Evaluator::Sector(Box::new(sector))
            }
            Err(why) => {
                span.record("space", "full");
                span.record("fallback", why.kind());
                Evaluator::Full(hamiltonian, ir)
            }
        }
    }

    fn energy_and_gradient(&self, theta: &[f64]) -> (f64, Vec<f64>) {
        match self {
            Evaluator::Sector(s) => s.energy_and_gradient(theta),
            Evaluator::Full(h, ir) => energy_and_gradient(h, ir, theta),
        }
    }
}

/// Runs noise-free VQE: minimizes `⟨ψ(θ)|H|ψ(θ)⟩` from `θ = 0` (the
/// Hartree-Fock point).
///
/// # Errors
///
/// Returns [`VqeError`] on register mismatches or optimizer failure.
pub fn run_vqe(
    hamiltonian: &WeightedPauliSum,
    ir: &PauliIr,
    options: VqeOptions,
) -> Result<VqeResult, VqeError> {
    run_vqe_from(hamiltonian, ir, &vec![0.0; ir.num_parameters()], options)
}

fn record_vqe_outcome(span: &mut obs::SpanGuard, optimizer: &'static str, result: &VqeResult) {
    span.record("optimizer", optimizer);
    span.record("iterations", result.iterations);
    span.record("evaluations", result.evaluations);
    span.record("energy", result.energy);
    span.record("converged", result.converged);
    obs::counter_add("vqe.outer_iterations", result.iterations as u64);
    obs::counter_add("vqe.objective_evaluations", result.evaluations as u64);
    if obs::is_enabled() {
        for (i, &e) in result.trace.iter().enumerate() {
            obs::event_fields(
                "vqe.iter",
                vec![
                    ("iter".to_string(), obs::Value::from(i + 1)),
                    ("energy".to_string(), obs::Value::from(e)),
                ],
            );
        }
    }
}

/// [`run_vqe`] from an explicit starting point.
///
/// Useful when the reference determinant is a stationary point of the
/// retained parameters (e.g. doubles-only selections on Hubbard models,
/// where the on-site interaction is diagonal in the site basis): a small
/// symmetry-breaking start lets gradient descent leave the plateau.
///
/// # Errors
///
/// Returns [`VqeError`] on register/parameter mismatches or when the
/// optimizer hits a non-finite objective.
pub fn run_vqe_from(
    hamiltonian: &WeightedPauliSum,
    ir: &PauliIr,
    x0: &[f64],
    options: VqeOptions,
) -> Result<VqeResult, VqeError> {
    match run_vqe_resumable(
        hamiltonian,
        ir,
        x0,
        options,
        None,
        &par::Budget::unlimited(),
    )? {
        VqeRun::Done(result) => Ok(result),
        VqeRun::Interrupted(_) => unreachable!("unlimited budget cannot expire"),
    }
}

/// Budget-aware [`run_vqe_from`] by L-BFGS: polls `budget` once per
/// optimizer iteration and returns [`VqeRun::Interrupted`] with a
/// [`VqeCheckpoint`] when it expires. Resuming with that checkpoint (and
/// identical inputs) reproduces the uninterrupted run bit-for-bit.
///
/// The objective runs on the initial determinant's electron sector when
/// [`SectorAnsatz::build`] accepts `(hamiltonian, ir)`, and on the full
/// register otherwise; the build is paid once per call.
///
/// # Errors
///
/// Returns [`VqeError`] on register/parameter mismatches, a checkpoint
/// whose vectors do not fit the IR's parameter count, or a non-finite
/// objective.
pub fn run_vqe_resumable(
    hamiltonian: &WeightedPauliSum,
    ir: &PauliIr,
    x0: &[f64],
    options: VqeOptions,
    resume: Option<VqeCheckpoint>,
    budget: &par::Budget,
) -> Result<VqeRun, VqeError> {
    if hamiltonian.num_qubits() != ir.num_qubits() {
        return Err(VqeError::RegisterMismatch {
            hamiltonian: hamiltonian.num_qubits(),
            ansatz: ir.num_qubits(),
        });
    }
    if x0.len() != ir.num_parameters() {
        return Err(VqeError::StartingPointLength {
            expected: ir.num_parameters(),
            actual: x0.len(),
        });
    }
    if let Some(ck) = resume
        .as_ref()
        .filter(|ck| !ck.lbfgs.fits(ir.num_parameters()))
    {
        return Err(VqeError::CheckpointLength {
            expected: ir.num_parameters(),
            found: ck.lbfgs.x.len(),
        });
    }
    let mut span = obs::span("vqe.run");
    span.record("parameters", ir.num_parameters());
    if resume.is_some() {
        span.record("resumed", true);
    }
    let evaluator = Evaluator::select(hamiltonian, ir, &mut span);
    let run = match lbfgs_resumable(
        |theta| evaluator.energy_and_gradient(theta),
        x0,
        options.controls,
        resume.map(|ck| ck.lbfgs),
        budget,
    )? {
        OptRun::Done(out) => VqeRun::Done(out.into()),
        OptRun::Interrupted(st) => VqeRun::Interrupted(Box::new(VqeCheckpoint { lbfgs: *st })),
    };
    if let VqeRun::Done(result) = &run {
        record_vqe_outcome(&mut span, "lbfgs", result);
    }
    Ok(run)
}

/// How to evaluate noisy energies for the Fig 10 case studies.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NoisyEvaluator {
    /// Exact density-matrix simulation of the chain-synthesized circuit
    /// with a depolarizing channel after every CNOT. Exponential in qubits —
    /// intended for the paper's LiH/NaH case studies.
    DensityMatrix(NoiseModel),
    /// Global depolarizing approximation: `E = F·E_pure + (1−F)·Tr(H)/2ⁿ`
    /// with `F = (1−p)^{#CNOT}`. Accurate at the paper's error rate (1e-4)
    /// and cheap enough for full sweeps; validated against the exact
    /// density-matrix path in the test suite.
    GlobalDepolarizing(NoiseModel),
}

/// Runs VQE with a noisy objective.
///
/// The evaluator picks the optimizer: the global-depolarizing path keeps
/// exact gradients (the fidelity factor is parameter-independent) and runs
/// L-BFGS; the density-matrix path has no gradient and runs Nelder–Mead.
///
/// # Errors
///
/// Returns [`VqeError`] on register mismatches or optimizer failure.
pub fn run_vqe_noisy(
    hamiltonian: &WeightedPauliSum,
    ir: &PauliIr,
    evaluator: NoisyEvaluator,
    options: VqeOptions,
) -> Result<VqeResult, VqeError> {
    if hamiltonian.num_qubits() != ir.num_qubits() {
        return Err(VqeError::RegisterMismatch {
            hamiltonian: hamiltonian.num_qubits(),
            ansatz: ir.num_qubits(),
        });
    }
    let mut span = obs::span("vqe.run");
    span.record("parameters", ir.num_parameters());
    span.record("noisy", true);
    let x0 = vec![0.0; ir.num_parameters()];
    let (optimizer, outcome) = match evaluator {
        NoisyEvaluator::GlobalDepolarizing(noise) => {
            let cnots = compiler::pipeline::original_cnot_count(ir);
            let fidelity = noise.global_fidelity(cnots, 0);
            let floor = hamiltonian.identity_weight();
            let evaluator = Evaluator::select(hamiltonian, ir, &mut span);
            let objective = |theta: &[f64]| {
                let (e, g) = evaluator.energy_and_gradient(theta);
                (
                    fidelity * e + (1.0 - fidelity) * floor,
                    g.into_iter().map(|x| fidelity * x).collect(),
                )
            };
            ("lbfgs", lbfgs(objective, &x0, options.controls)?)
        }
        NoisyEvaluator::DensityMatrix(noise) => {
            let objective = |theta: &[f64]| noisy_energy_density(hamiltonian, ir, theta, &noise);
            (
                "nelder-mead",
                nelder_mead(objective, &x0, 0.1, options.controls)?,
            )
        }
    };
    let result = VqeResult::from(outcome);
    record_vqe_outcome(&mut span, optimizer, &result);
    Ok(result)
}

/// One noisy energy evaluation via density-matrix simulation of the
/// chain-synthesized circuit.
pub fn noisy_energy_density(
    hamiltonian: &WeightedPauliSum,
    ir: &PauliIr,
    params: &[f64],
    noise: &NoiseModel,
) -> f64 {
    let circuit = synthesize_chain(ir, params);
    let mut rho = DensityMatrix::zero_state(ir.num_qubits());
    rho.apply_circuit_noisy(&circuit, noise);
    rho.expectation(hamiltonian)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ansatz::uccsd::UccsdAnsatz;
    use ansatz::IrEntry;

    /// A 2-qubit toy "molecule": H = -Z0 -Z1 + 0.5·X0X1 with a single-
    /// excitation style ansatz from |01⟩.
    fn toy() -> (WeightedPauliSum, PauliIr) {
        let mut h = WeightedPauliSum::new(2);
        h.push(-1.0, "IZ".parse().unwrap());
        h.push(-0.5, "ZI".parse().unwrap());
        h.push(0.4, "XX".parse().unwrap());
        let mut ir = PauliIr::new(2, 0b01);
        ir.push(IrEntry {
            string: "XY".parse().unwrap(),
            param: 0,
            coefficient: 0.5,
        });
        ir.push(IrEntry {
            string: "YX".parse().unwrap(),
            param: 0,
            coefficient: -0.5,
        });
        (h, ir)
    }

    #[test]
    fn vqe_reaches_sector_minimum_on_toy() {
        // The ansatz conserves particle number, so VQE must reach the exact
        // minimum of H restricted to span{|01⟩, |10⟩}: the 2×2 block
        // [[0.5, 0.4], [0.4, -0.5]] with eigenvalue −√0.41.
        let (h, ir) = toy();
        let sector_min = -(0.41f64).sqrt();
        let r = run_vqe(&h, &ir, VqeOptions::default()).unwrap();
        assert!(r.converged);
        assert!(
            (r.energy - sector_min).abs() < 1e-7,
            "vqe {} vs sector minimum {sector_min}",
            r.energy
        );
        // The global ground state lies outside the sector — VQE cannot
        // (and must not) cross it.
        assert!(r.energy > h.ground_state_energy());
    }

    /// Nelder–Mead on the toy's grouped `H|ψ⟩` energy.
    fn nelder_mead_on_toy(h: &WeightedPauliSum, ir: &PauliIr) -> OptimizeOutcome {
        let controls = OptimizeControls {
            max_iterations: 2000,
            ..Default::default()
        };
        let objective = |theta: &[f64]| crate::state::energy(h, ir, theta);
        nelder_mead(objective, &[0.0], 0.1, controls).unwrap()
    }

    #[test]
    fn optimizers_agree_on_toy() {
        let (h, ir) = toy();
        let lb = run_vqe(&h, &ir, VqeOptions::default()).unwrap();
        let nm = nelder_mead_on_toy(&h, &ir);
        assert!((lb.energy - nm.value).abs() < 1e-5);
    }

    #[test]
    fn objective_only_optimum_agrees_with_per_term_and_clustered_evaluators() {
        // Nelder-Mead drives the grouped `H|ψ⟩` energy; at its optimum the
        // per-term and clustered evaluators must read the same energy.
        let (h, ir) = toy();
        let run = VqeResult::from(nelder_mead_on_toy(&h, &ir));
        let psi = crate::state::prepare_state(&ir, &run.params);
        let per_term = psi.expectation_per_term(&h);
        let clustered = psi.expectation_with(&pauli::ClusteredSum::build(&h));
        assert!(
            (run.energy - per_term).abs() < 1e-12,
            "grouped {} vs per-term {per_term}",
            run.energy
        );
        assert!(
            (per_term - clustered).abs() < 1e-12,
            "per-term {per_term} vs clustered {clustered}"
        );
        assert!((run.energy + 0.41f64.sqrt()).abs() < 1e-5);
    }

    #[test]
    fn noiseless_density_path_matches_statevector_path() {
        let (h, ir) = toy();
        let theta = [0.3];
        let sv = crate::state::energy(&h, &ir, &theta);
        let dm = noisy_energy_density(&h, &ir, &theta, &NoiseModel::noiseless());
        assert!((sv - dm).abs() < 1e-10, "sv {sv} vs dm {dm}");
    }

    #[test]
    fn global_depolarizing_matches_density_at_small_noise() {
        // The approximation must track the exact channel closely at the
        // paper's error rate.
        let (h, ir) = toy();
        let noise = NoiseModel::cnot_only(1e-4);
        let theta = [0.25];
        let exact = noisy_energy_density(&h, &ir, &theta, &noise);
        let cnots = compiler::pipeline::original_cnot_count(&ir);
        let f = noise.global_fidelity(cnots, 0);
        let approx = f * crate::state::energy(&h, &ir, &theta) + (1.0 - f) * h.identity_weight();
        assert!(
            (exact - approx).abs() < 1e-4,
            "exact {exact} vs approx {approx}"
        );
    }

    #[test]
    fn noise_raises_minimum_energy() {
        let (h, ir) = toy();
        let clean = run_vqe(&h, &ir, VqeOptions::default()).unwrap();
        let noisy = run_vqe_noisy(
            &h,
            &ir,
            NoisyEvaluator::DensityMatrix(NoiseModel::cnot_only(0.01)),
            VqeOptions {
                controls: OptimizeControls {
                    max_iterations: 400,
                    ..Default::default()
                },
            },
        )
        .unwrap();
        assert!(
            noisy.energy > clean.energy,
            "noisy {} clean {}",
            noisy.energy,
            clean.energy
        );
    }

    #[test]
    fn h2_sized_uccsd_runs_and_converges() {
        // A synthetic 4-qubit Hamiltonian with the H2 UCCSD ansatz.
        let ir = UccsdAnsatz::new(2, 2).into_ir();
        let mut h = WeightedPauliSum::new(4);
        h.push(-1.0, "IIZZ".parse().unwrap());
        h.push(-0.2, "ZZII".parse().unwrap());
        h.push(0.15, "XXXX".parse().unwrap());
        h.push(0.15, "YYXX".parse().unwrap());
        let e0 = crate::state::energy(&h, &ir, &vec![0.0; ir.num_parameters()]);
        let r = run_vqe(&h, &ir, VqeOptions::default()).unwrap();
        assert!(r.converged);
        // The XXXX/YYXX couplings connect |0101⟩ ↔ |1010⟩ (degenerate at
        // 1.2), so the double excitation buys ~0.3 of energy.
        assert!(r.energy < e0 - 0.25, "vqe {} vs reference {e0}", r.energy);
        assert!(!r.trace.is_empty());
    }

    #[test]
    fn vqe_resume_is_bit_identical() {
        let (h, ir) = toy();
        let full = run_vqe(&h, &ir, VqeOptions::default()).unwrap();
        let x0 = vec![0.0; ir.num_parameters()];
        let mut resume = None;
        let segmented = loop {
            let budget = par::Budget::max_ticks(2);
            match run_vqe_resumable(&h, &ir, &x0, VqeOptions::default(), resume.take(), &budget)
                .unwrap()
            {
                VqeRun::Done(r) => break r,
                VqeRun::Interrupted(ck) => resume = Some(*ck),
            }
        };
        assert_eq!(full, segmented);
    }

    #[test]
    fn checkpoint_of_another_ansatz_is_a_typed_error() {
        let (h, ir) = toy();
        let x0 = vec![0.0; ir.num_parameters()];
        let budget = par::Budget::max_ticks(1);
        let ck =
            match run_vqe_resumable(&h, &ir, &x0, VqeOptions::default(), None, &budget).unwrap() {
                VqeRun::Interrupted(ck) => *ck,
                VqeRun::Done(_) => panic!("one tick cannot finish the toy"),
            };
        // The same register with a second parameter.
        let mut wider = ir.clone();
        wider.push(IrEntry {
            string: "ZY".parse().unwrap(),
            param: 1,
            coefficient: 0.25,
        });
        let err = run_vqe_resumable(
            &h,
            &wider,
            &[0.0, 0.0],
            VqeOptions::default(),
            Some(ck),
            &par::Budget::unlimited(),
        )
        .unwrap_err();
        assert_eq!(
            err,
            VqeError::CheckpointLength {
                expected: 2,
                found: 1
            }
        );
    }

    #[test]
    fn iteration_trace_is_nonincreasing() {
        let (h, ir) = toy();
        let r = run_vqe(&h, &ir, VqeOptions::default()).unwrap();
        for w in r.trace.windows(2) {
            assert!(w[1] <= w[0] + 1e-12);
        }
    }
}
