//! Recovery policies: what each pipeline stage does when its typed error
//! surfaces.
//!
//! - **SCF retry ladder** — on non-convergence or a non-finite energy,
//!   re-run with progressively more conservative options: Fock damping,
//!   then damping plus a level shift, then a strong shift with a
//!   restarted (shallower) DIIS history. A degenerate geometry retries
//!   with the caller's clean geometry (the fault model corrupts inputs,
//!   not the molecule definition).
//! - **VQE restart** — on a non-finite objective or a stalled optimizer,
//!   restart from a deterministically perturbed starting point with a
//!   fresh iteration budget, bounded by `max_restarts`.
//! - **Compiler fallback** — Merge-to-Root requires a tree; when the
//!   coupling graph is not one (or MtR fails for any reason), degrade
//!   gracefully to SABRE, which only needs connectivity.
//!
//! Every retry and fallback bumps the `resilience.retries` /
//! `resilience.fallbacks` counters and emits a `resilience.recovery`
//! event, so an obs trace shows exactly which policy fired and why.

use ansatz::PauliIr;
use arch::Topology;
use chem::scf::ScfOptions;
use chem::{Benchmark, ChemError, MolecularSystem};
use compiler::pipeline::{try_compile_mtr, try_compile_sabre, CompiledProgram};
use pauli::WeightedPauliSum;
use vqe::driver::{run_vqe_from, VqeOptions, VqeResult};

use crate::error::PcdError;
use crate::fault::{FaultKind, FaultPlan};

/// Bond length (Angstrom) used to model a corrupted, collapsed geometry.
const COLLAPSED_BOND_ANGSTROM: f64 = 1e-5;

/// SABRE bidirectional layout round trips used by the fallback path.
const SABRE_LAYOUT_ROUNDS: usize = 3;

fn record_recovery(policy: &str, stage: &str, attempt: usize, cause: &str) {
    obs::counter_add("resilience.retries", 1);
    obs::event!(
        "resilience.recovery",
        policy = policy,
        stage = stage,
        attempt = attempt,
        cause = cause
    );
}

/// The SCF retry ladder's rungs, most conservative last. Each rung also
/// restores a full iteration budget (an injected `ScfConvergence` fault
/// slashes it on the first attempt only).
///
/// Public so that a batch resume can rebuild a system with the *exact*
/// rung that succeeded originally — a clean-options rebuild would land on
/// a slightly different SCF fixed point and break bit-identical resume.
pub fn scf_ladder(base: ScfOptions) -> [ScfOptions; 3] {
    let restored = ScfOptions {
        max_iter: base.max_iter.max(200),
        damping: 0.0,
        level_shift: 0.0,
        ..base
    };
    [
        ScfOptions {
            damping: 0.3,
            ..restored
        },
        ScfOptions {
            damping: 0.5,
            level_shift: 0.3,
            ..restored
        },
        ScfOptions {
            level_shift: 1.0,
            diis_depth: restored.diis_depth.clamp(1, 3),
            max_iter: restored.max_iter * 2,
            ..restored
        },
    ]
}

/// Builds the molecular system with the SCF retry ladder, consulting the
/// fault plan for injected chemistry failures on the first attempt.
///
/// Returns the system and the number of retries spent (0 when the first
/// attempt succeeded).
///
/// # Errors
///
/// Returns [`PcdError::Unrecovered`] when the whole ladder fails.
pub fn build_system_with_recovery(
    benchmark: Benchmark,
    bond_length: f64,
    base: ScfOptions,
    plan: &mut FaultPlan,
) -> Result<(MolecularSystem, usize), PcdError> {
    // Faults poison the *first* attempt only: a corrupted input or slashed
    // budget, which the ladder must then recover from.
    let mut first = base;
    let mut first_bond = bond_length;
    if plan.should_inject(FaultKind::ScfConvergence) {
        first.max_iter = 2;
    }
    if plan.should_inject(FaultKind::ScfEnergy) {
        // NaN damping poisons the Fock update; the SCF guard on the next
        // diagonalization turns that into a typed ScfError::IllFormedFock.
        first.damping = f64::NAN;
    }
    if plan.should_inject(FaultKind::Geometry) {
        first_bond = COLLAPSED_BOND_ANGSTROM;
    }

    let mut attempt = 0usize;
    let mut last: PcdError = match benchmark.build_with_scf(first_bond, first) {
        Ok(system) => return Ok((system, 0)),
        Err(e) => e.into(),
    };

    for rung in scf_ladder(base) {
        attempt += 1;
        record_recovery("scf_retry", "scf", attempt, last.stage());
        // Geometry corruption is repaired by rebuilding from the clean
        // bond length; SCF trouble is answered by the conservative rung.
        let retry_bond = bond_length;
        match benchmark.build_with_scf(retry_bond, rung) {
            Ok(system) => {
                // Report the *final* converged energy, not whatever the
                // poisoned first attempt last saw: downstream metrics key
                // off this histogram, and a pre-retry value would make a
                // successfully recovered run look wrong.
                let energy = system.hartree_fock_energy();
                obs::histogram_record("resilience.scf.final_energy", energy);
                obs::event!(
                    "resilience.recovered",
                    policy = "scf_retry",
                    attempt = attempt,
                    energy = energy
                );
                return Ok((system, attempt));
            }
            Err(e) => last = e.into(),
        }
    }
    Err(PcdError::Unrecovered {
        stage: "scf",
        attempts: attempt + 1,
        last: Box::new(last),
    })
}

/// Like [`build_system_with_recovery`] but surfaces the raw first-attempt
/// error when no plan is active — used by callers that want the ladder
/// without fault injection.
///
/// # Errors
///
/// Returns [`PcdError::Unrecovered`] when the whole ladder fails.
pub fn build_system_with_ladder(
    benchmark: Benchmark,
    bond_length: f64,
    base: ScfOptions,
) -> Result<(MolecularSystem, usize), PcdError> {
    build_system_with_recovery(benchmark, bond_length, base, &mut FaultPlan::none())
}

/// How the compiler stage produced its program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompileStrategy {
    /// Merge-to-Root ran on a tree topology (the co-designed fast path).
    MergeToRoot,
    /// MtR's precondition failed; SABRE routed the circuit instead.
    SabreFallback,
}

/// Adds one chord edge to `topology`, producing a connected coupling graph
/// that is no longer a tree — the injected `CouplingGraph` fault.
pub fn corrupt_with_chord(topology: &Topology) -> Topology {
    let n = topology.num_qubits();
    let mut edges: Vec<(usize, usize)> = topology.edges().to_vec();
    let chord = (1..n)
        .rev()
        .map(|q| (0usize, q))
        .find(|&(a, b)| {
            !edges
                .iter()
                .any(|&(x, y)| (x, y) == (a, b) || (x, y) == (b, a))
        })
        .unwrap_or((0, 0));
    if chord != (0, 0) {
        edges.push(chord);
    }
    Topology::from_edges("chord-corrupted", n, edges)
}

/// Compiles `ir` with Merge-to-Root, degrading to SABRE when MtR's tree
/// precondition does not hold. The fault plan may corrupt the coupling
/// graph first (a chord edge, making it cyclic but still connected).
///
/// # Errors
///
/// Returns [`PcdError::Compile`] when both strategies fail.
pub fn compile_with_fallback(
    ir: &PauliIr,
    topology: &Topology,
    plan: &mut FaultPlan,
) -> Result<(CompiledProgram, CompileStrategy), PcdError> {
    let corrupted;
    let target: &Topology = if plan.should_inject(FaultKind::CouplingGraph) {
        corrupted = corrupt_with_chord(topology);
        &corrupted
    } else {
        topology
    };

    match try_compile_mtr(ir, target) {
        Ok(program) => Ok((program, CompileStrategy::MergeToRoot)),
        Err(mtr_err) => {
            obs::counter_add("resilience.fallbacks", 1);
            obs::event!(
                "resilience.recovery",
                policy = "compiler_fallback",
                stage = "compile",
                attempt = 1usize,
                cause = format!("{mtr_err}")
            );
            match try_compile_sabre(ir, target, SABRE_LAYOUT_ROUNDS) {
                Ok(program) => {
                    obs::event!(
                        "resilience.recovered",
                        policy = "compiler_fallback",
                        attempt = 1usize
                    );
                    Ok((program, CompileStrategy::SabreFallback))
                }
                Err(sabre_err) => Err(PcdError::Unrecovered {
                    stage: "compile",
                    attempts: 2,
                    last: Box::new(PcdError::Compile(sabre_err)),
                }),
            }
        }
    }
}

/// Deterministic perturbation for restart attempt `attempt`: small,
/// attempt-dependent, and symmetry-breaking.
fn perturbed_start(base: &[f64], attempt: usize, scale: f64) -> Vec<f64> {
    base.iter()
        .enumerate()
        .map(|(j, &x)| {
            let t = (attempt * base.len() + j) as f64;
            let x = if x.is_finite() { x } else { 0.0 };
            x + scale * (t * 0.7 + attempt as f64).sin()
        })
        .collect()
}

/// Runs VQE with the restart policy: on a non-finite objective or a
/// stalled (unconverged) optimizer, restart from a perturbed starting
/// point with a fresh iteration budget, at most `max_restarts` times.
///
/// Returns the result and the number of restarts spent.
///
/// # Errors
///
/// Returns [`PcdError::Unrecovered`] when every attempt fails with a
/// typed error; a merely-unconverged final attempt is returned as-is
/// (`converged = false`) for the caller to judge.
pub fn run_vqe_with_restart(
    hamiltonian: &WeightedPauliSum,
    ir: &PauliIr,
    options: VqeOptions,
    max_restarts: usize,
    plan: &mut FaultPlan,
) -> Result<(VqeResult, usize), PcdError> {
    let n = ir.num_parameters();
    let mut x0 = vec![0.0; n];
    let mut first_options = options;
    if n > 0 && plan.should_inject(FaultKind::VqeObjective) {
        x0[0] = f64::NAN;
    }
    if plan.should_inject(FaultKind::OptimizerStall) {
        first_options.controls.max_iterations = 1;
    }

    let mut attempt = 0usize;
    let mut current = x0;
    let mut current_options = first_options;
    let mut stalled: Option<VqeResult> = None;

    loop {
        match run_vqe_from(hamiltonian, ir, &current, current_options) {
            Ok(result) if result.converged => {
                if attempt > 0 {
                    obs::event!(
                        "resilience.recovered",
                        policy = "vqe_restart",
                        attempt = attempt
                    );
                }
                return Ok((result, attempt));
            }
            Ok(result) => {
                // Stall: keep the best params as the warm start.
                if attempt >= max_restarts {
                    return Ok((result, attempt));
                }
                attempt += 1;
                record_recovery("vqe_restart", "vqe", attempt, "optimizer_stall");
                current = perturbed_start(&result.params, attempt, 0.02);
                stalled = Some(result);
                current_options = options;
            }
            Err(e) => {
                let err: PcdError = e.into();
                if attempt >= max_restarts {
                    return match stalled {
                        // A prior stalled-but-finite result beats dying.
                        Some(result) => Ok((result, attempt)),
                        None => Err(PcdError::Unrecovered {
                            stage: "vqe",
                            attempts: attempt + 1,
                            last: Box::new(err),
                        }),
                    };
                }
                attempt += 1;
                record_recovery("vqe_restart", "vqe", attempt, err.stage());
                current = perturbed_start(&vec![0.0; n], attempt, 0.05);
                current_options = options;
            }
        }
    }
}

/// Maps a `ChemError` to the retry-cause label used in events.
pub fn chem_cause(e: &ChemError) -> &'static str {
    match e {
        ChemError::Scf(_) => "scf",
        ChemError::InvalidActiveSpace(_) => "active_space",
        ChemError::DegenerateGeometry { .. } => "geometry",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_plan_builds_h2_without_retries() {
        let mut plan = FaultPlan::none();
        let (system, retries) =
            build_system_with_recovery(Benchmark::H2, 0.74, ScfOptions::default(), &mut plan)
                .expect("H2 builds");
        assert_eq!(retries, 0);
        assert_eq!(system.num_qubits(), 4);
    }

    #[test]
    fn ladder_answers_stretched_points_without_panicking() {
        // H2O and NH3 at 2.5 Å once panicked inside the Jacobi eigensolver,
        // bypassing this ladder. Each must now build or fail typed.
        for molecule in [Benchmark::H2O, Benchmark::NH3] {
            match build_system_with_ladder(molecule, 2.5, ScfOptions::default()) {
                Ok((system, _)) => assert!(system.hartree_fock_energy().is_finite()),
                Err(e) => assert_eq!(e.stage(), "scf", "{molecule:?}: {e}"),
            }
        }
    }

    #[test]
    fn ladder_recovers_from_every_scf_fault() {
        // Rate 1.0 injects all three chemistry faults at once.
        let mut plan = FaultPlan::new(9, 1.0);
        let (system, retries) =
            build_system_with_recovery(Benchmark::H2, 0.74, ScfOptions::default(), &mut plan)
                .expect("ladder recovers");
        assert!(retries >= 1);
        assert!(system.hartree_fock_energy() < -1.0);
        assert_eq!(plan.injected().len(), 3);
    }

    #[test]
    fn ladder_energy_matches_clean_run() {
        let clean = Benchmark::H2
            .build(0.74)
            .expect("clean")
            .hartree_fock_energy();
        let mut plan = FaultPlan::new(3, 1.0);
        let (system, _) =
            build_system_with_recovery(Benchmark::H2, 0.74, ScfOptions::default(), &mut plan)
                .expect("recovers");
        assert!(
            (system.hartree_fock_energy() - clean).abs() < 1e-8,
            "recovered SCF must reach the same fixed point"
        );
    }

    #[test]
    fn corrupt_with_chord_breaks_the_tree_but_not_connectivity() {
        let tree = Topology::xtree(9);
        let bad = corrupt_with_chord(&tree);
        assert!(bad.is_connected());
        assert_eq!(bad.num_edges(), tree.num_edges() + 1);
        assert!(bad.num_levels().is_none(), "chord graph is not a tree");
    }
}
