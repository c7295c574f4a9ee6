//! Excited states of H₂ with Variational Quantum Deflation on the same
//! compressed-ansatz stack, validated against the exact spectrum of the
//! two-electron sector (deflated Lanczos on its 4 states).
//!
//! Run with: `cargo run --release -p pauli-codesign --example excited_states`

use pauli_codesign::ansatz::uccsd::UccsdAnsatz;
use pauli_codesign::chem::Benchmark;
use pauli_codesign::vqe::vqd::{run_vqd, VqdOptions};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let system = Benchmark::H2.build(0.74)?;
    let h = system.qubit_hamiltonian();
    let ir = UccsdAnsatz::for_system(&system).into_ir();

    let sector = system.electron_sector();
    println!(
        "H2 @ 0.74 Å — exact spectrum of the ({}α, {}β) sector (deflated Lanczos):",
        sector.n_alpha(),
        sector.n_beta()
    );
    let exact = system.lowest_eigenvalues(sector.dim());
    for (k, e) in exact.iter().enumerate() {
        println!("  E{k} = {e:.6} Ha");
    }

    println!();
    println!("VQD ladder (UCCSD ansatz from the Hartree-Fock determinant):");
    let states = run_vqd(
        h,
        &ir,
        3,
        VqdOptions {
            penalty: 5.0,
            ..Default::default()
        },
    );
    for (k, s) in states.iter().enumerate() {
        // Distance to the nearest exact eigenvalue.
        let nearest = exact
            .iter()
            .map(|e| (s.energy - e).abs())
            .fold(f64::INFINITY, f64::min);
        println!(
            "  state {k}: E = {:.6} Ha ({} iters, residual overlap {:.1e}, \
             nearest exact level {:.1e} away)",
            s.energy, s.iterations, s.max_overlap_with_lower, nearest
        );
    }
    println!();
    println!(
        "note: the ground state is exact to machine precision. Rungs 1 and 2 are \
         orthogonal and their energies sum to E1 + E2, so together they span the \
         sector's E1/E2 pair (the Ms = 0 triplet and the open-shell singlet). The \
         3-parameter UCCSD manifold reaches that plane only through mixtures of the \
         two, so each rung sits between E1 and E2 rather than on a level. A richer \
         pool (e.g. the generalized excitations used by ADAPT) separates them."
    );
    Ok(())
}
