//! Figure 10 regeneration: noisy LiH and NaH case studies under the paper's
//! depolarizing model (CNOT error 1e-4).
//!
//! LiH (6 qubits) runs on the exact density-matrix simulator; NaH (8 qubits)
//! uses the global-depolarizing evaluator, which the LiH section validates
//! against the exact channel in the same output.

use pauli_codesign::ansatz::compress;
use pauli_codesign::ansatz::uccsd::UccsdAnsatz;
use pauli_codesign::chem::Benchmark;
use pauli_codesign::sim::NoiseModel;
use pauli_codesign::vqe::driver::{
    noisy_energy_density, run_vqe_noisy, NoisyEvaluator, VqeOptions,
};
use pauli_codesign::vqe::optimize::{OptimizeControls, OptimizerKind};
use pauli_codesign_bench::{build_system, full_sweep, scan_bonds, section, RATIOS};

fn main() {
    let noise = NoiseModel::paper_default();

    for molecule in [Benchmark::LiH, Benchmark::NaH] {
        section(&format!(
            "Figure 10 — noisy {molecule} (depolarizing CNOT error 1e-4)"
        ));
        println!(
            "{:<9} {:<7} {:>12} {:>11} {:>6}",
            "bond (Å)", "ratio", "energy (Ha)", "error (Ha)", "iters"
        );
        let bonds = if full_sweep() {
            scan_bonds(molecule)
        } else {
            vec![molecule.equilibrium_bond_length()]
        };
        for bond in bonds {
            let system = build_system(molecule, bond);
            let exact = system.exact_ground_state_energy();
            let full_ir = UccsdAnsatz::for_system(&system).into_ir();
            for &ratio in &RATIOS {
                let (ir, _) = compress(&full_ir, system.qubit_hamiltonian(), ratio);
                let evaluator = match molecule {
                    // 6 qubits: exact mixed-state simulation is cheap.
                    Benchmark::LiH => NoisyEvaluator::DensityMatrix(noise),
                    // 8+ qubits: the validated global approximation.
                    _ => NoisyEvaluator::GlobalDepolarizing(noise),
                };
                let options = VqeOptions {
                    optimizer: match evaluator {
                        NoisyEvaluator::DensityMatrix(_) => OptimizerKind::NelderMead,
                        NoisyEvaluator::GlobalDepolarizing(_) => OptimizerKind::Lbfgs,
                    },
                    controls: OptimizeControls {
                        max_iterations: 600,
                        value_tolerance: 1e-8,
                        ..Default::default()
                    },
                };
                let run = run_vqe_noisy(system.qubit_hamiltonian(), &ir, evaluator, options)
                    .expect("noisy VQE run");
                println!(
                    "{bond:<9.2} {:<7} {:>12.6} {:>11.2e} {:>6}",
                    format!("{:.0}%", ratio * 100.0),
                    run.energy,
                    run.energy - exact,
                    run.iterations
                );
            }
        }
    }

    section("evaluator cross-validation (LiH @ equilibrium, 50% ratio)");
    let system = build_system(Benchmark::LiH, Benchmark::LiH.equilibrium_bond_length());
    let full_ir = UccsdAnsatz::for_system(&system).into_ir();
    let (ir, _) = compress(&full_ir, system.qubit_hamiltonian(), 0.5);
    let theta = vec![0.05; ir.num_parameters()];
    let exact_noisy = noisy_energy_density(system.qubit_hamiltonian(), &ir, &theta, &noise);
    let cnots = pauli_codesign::compiler::pipeline::original_cnot_count(&ir);
    let f = noise.global_fidelity(cnots, 0);
    let approx = f * pauli_codesign::vqe::state::energy(system.qubit_hamiltonian(), &ir, &theta)
        + (1.0 - f) * system.qubit_hamiltonian().identity_weight();
    println!("density-matrix energy   : {exact_noisy:.8} Ha");
    println!("global-depolarizing     : {approx:.8} Ha");
    println!(
        "approximation gap       : {:.2e} Ha",
        (exact_noisy - approx).abs()
    );
}
