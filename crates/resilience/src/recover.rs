//! The SCF retry ladder: on non-convergence or a non-finite energy,
//! re-run with progressively more conservative options — Fock damping,
//! then damping plus a level shift, then a strong shift with a restarted
//! (shallower) DIIS history. A degenerate geometry retries with the
//! caller's clean geometry (the fault model corrupts inputs, not the
//! molecule definition). The other two policies live with their stages:
//! the VQE restart in [`crate::stages::vqe_with_restart`], the
//! Merge-to-Root → SABRE fallback in [`crate::stages::compile`].
//!
//! Every retry and fallback bumps the `resilience.retries` /
//! `resilience.fallbacks` counters and emits a `resilience.recovery`
//! event, so an obs trace shows exactly which policy fired and why.

use arch::Topology;
use chem::scf::ScfOptions;
use chem::{Benchmark, MolecularSystem};

use crate::error::PcdError;
use crate::fault::{FaultKind, FaultPlan};

/// Bond length (Angstrom) used to model a corrupted, collapsed geometry.
const COLLAPSED_BOND_ANGSTROM: f64 = 1e-5;

pub(crate) fn record_recovery(policy: &str, stage: &str, attempt: usize, cause: &str) {
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
fn scf_ladder(base: ScfOptions) -> [ScfOptions; 3] {
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
            let built = build_system_with_recovery(
                molecule,
                2.5,
                ScfOptions::default(),
                &mut FaultPlan::none(),
            );
            match built {
                Ok((system, _)) => assert!(system.hartree_fock_energy().is_finite()),
                Err(e) => assert_eq!(e.stage(), "scf", "{molecule:?}: {e}"),
            }
        }
    }

    #[test]
    fn ladder_answers_the_known_unrecovered_points_without_panicking() {
        // The points the ladder does not converge yet (ROADMAP direction
        // 4): each must build or fail typed, never panic.
        for (molecule, bond) in [
            (Benchmark::H2O, 1.9),
            (Benchmark::H2O, 2.0),
            (Benchmark::NH3, 2.1),
            (Benchmark::NH3, 2.2),
            (Benchmark::NH3, 2.3),
        ] {
            let built = build_system_with_recovery(
                molecule,
                bond,
                ScfOptions::default(),
                &mut FaultPlan::none(),
            );
            match built {
                Ok((system, _)) => assert!(system.hartree_fock_energy().is_finite()),
                Err(e) => assert_eq!(e.stage(), "scf", "{molecule:?} at {bond} Å: {e}"),
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
