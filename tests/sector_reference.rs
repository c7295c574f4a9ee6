//! The exact molecular reference in its N-electron sector, against the
//! full-space Lanczos oracle.
//!
//! `MolecularSystem::exact_ground_state_energy` solves the Jordan–Wigner
//! Hamiltonian on the (Nα, Nβ) sector of the Hartree-Fock determinant, a
//! `C(m, Nα)·C(m, Nβ)`-state block held as a real CSR matrix. These tests
//! check that the block is exact (the Hamiltonian never leaves it), that
//! the sector energy equals the full-space one wherever the full-space
//! minimum is N-electron, and that on stretched NaH — where it is not — the
//! sector energy is the one a number-conserving UCCSD reaches.

use pauli_codesign::ansatz::uccsd::UccsdAnsatz;
use pauli_codesign::chem::{Benchmark, MolecularSystem};
use pauli_codesign::numeric::{jacobi_eigen, Complex64, RealMatrix};
use pauli_codesign::pauli::SectorBasis;
use pauli_codesign::vqe::driver::{run_vqe, VqeOptions};

fn equilibrium(molecule: Benchmark) -> MolecularSystem {
    molecule
        .build(molecule.equilibrium_bond_length())
        .expect("chemistry")
}

fn binomial(n: usize, k: usize) -> usize {
    (0..k).fold(1, |acc, i| acc * (n - i) / (i + 1))
}

/// Sector energies equal full-space ones to 1e-9 on Table I up to 14 qubits
/// at equilibrium, every sector has `C(m, Nα)·C(m, Nβ)` states, and every
/// reference lies below Hartree-Fock — the first exact-reference checks of
/// BH3 and NH3.
#[test]
fn table_one_sector_energies_match_the_full_space_up_to_fourteen_qubits() {
    for molecule in Benchmark::ALL {
        let system = equilibrium(molecule);
        if system.num_qubits() > 14 {
            continue;
        }
        let sector = system.electron_sector();
        let m = system.num_qubits() / 2;
        assert_eq!(
            sector.dim(),
            binomial(m, sector.n_alpha()) * binomial(m, sector.n_beta()),
            "{molecule}"
        );
        assert_eq!(
            sector.n_alpha() + sector.n_beta(),
            system.num_active_electrons(),
            "{molecule}"
        );
        let exact = system.exact_ground_state_energy();
        let full = system.qubit_hamiltonian().ground_state_energy();
        assert!(
            (exact - full).abs() <= 1e-9,
            "{molecule}: sector {exact} vs full space {full}"
        );
        assert!(exact < system.hartree_fock_energy(), "{molecule}");
    }
}

/// The precondition the CSR relies on: `H` maps an in-sector vector into
/// the sector, on every Table I Hamiltonian (CH4 included).
#[test]
fn every_table_one_hamiltonian_keeps_sector_vectors_in_the_sector() {
    for molecule in Benchmark::ALL {
        let system = equilibrium(molecule);
        let sector = system.electron_sector();
        let n = system.num_qubits();
        let mut s = 0x9e37_79b9_7f4a_7c15u64 ^ n as u64;
        let mut next = || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        let mut state = vec![Complex64::ZERO; 1 << n];
        for rank in 0..sector.dim() {
            state[sector.unrank(rank) as usize] = Complex64::new(next(), next());
        }
        let norm = state.iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt();
        for z in &mut state {
            *z = *z / norm;
        }
        let mut h_state = vec![Complex64::ZERO; 1 << n];
        system.qubit_hamiltonian().apply(&state, &mut h_state);
        let outside: f64 = h_state
            .iter()
            .enumerate()
            .filter(|&(b, _)| sector.rank(b as u64).is_none())
            .map(|(_, z)| z.norm_sqr())
            .sum::<f64>()
            .sqrt();
        assert!(
            outside <= 1e-12,
            "{molecule}: ‖H·ψ‖ outside the sector = {outside:e}"
        );
    }
}

/// Stretched NaH: the full-UCCSD VQE minimum equals the sector reference,
/// and the full-space minimum lies lower, in another electron-number
/// sector — the gap the reference used to report as VQE error.
#[test]
fn stretched_nah_reference_is_the_full_uccsd_minimum() {
    for (bond, full_space_gap) in [(2.5, 2.04e-2), (3.0, 8.42e-2)] {
        let system = Benchmark::NaH.build(bond).expect("chemistry");
        let h = system.qubit_hamiltonian();
        let ir = UccsdAnsatz::for_system(&system).into_ir();
        let vqe = run_vqe(h, &ir, VqeOptions::default()).expect("vqe");
        let exact = system.exact_ground_state_energy();
        assert!(
            (vqe.energy - exact).abs() <= 1e-6,
            "NaH @ {bond} Å: VQE {} vs sector {exact}",
            vqe.energy
        );
        let full = h.ground_state_energy();
        assert!(
            (exact - full - full_space_gap).abs() < 5e-4,
            "NaH @ {bond} Å: full space {full} should sit {full_space_gap} below {exact}"
        );
    }
}

/// CH4 (16 qubits, 4,900 sector states): the exact reference lies below
/// Hartree-Fock.
#[test]
fn ch4_sector_reference_lies_below_hartree_fock() {
    let system = equilibrium(Benchmark::CH4);
    assert_eq!(system.num_qubits(), 16);
    assert_eq!(system.electron_sector().dim(), 4_900);
    let exact = system.exact_ground_state_energy();
    let hf = system.hartree_fock_energy();
    assert!(
        exact < hf && hf - exact < 0.5,
        "CH4: exact {exact} vs HF {hf}"
    );
}

/// Rank and unrank are inverse bijections between the sector's states and
/// `0..dim`, for the sector shapes of H2O/BeH2, BH3/NH3 and CH4.
#[test]
fn sector_basis_ranks_every_state_once() {
    for (qubits, electrons, dim) in [(12, 4, 225), (14, 3, 1_225), (16, 4, 4_900)] {
        let basis = SectorBasis::new(qubits, electrons, electrons).expect("sector");
        assert_eq!(basis.dim(), dim);
        let mut seen = vec![false; dim];
        let half = qubits / 2;
        for state in 0..1u64 << qubits {
            let in_sector = (state & ((1 << half) - 1)).count_ones() as usize == electrons
                && (state >> half).count_ones() as usize == electrons;
            match basis.rank(state) {
                Some(rank) => {
                    assert!(in_sector, "{state:#b} ranked outside its sector");
                    assert!(!seen[rank], "rank {rank} given twice");
                    seen[rank] = true;
                    assert_eq!(basis.unrank(rank), state);
                }
                None => assert!(!in_sector, "{state:#b} not ranked"),
            }
        }
        assert!(seen.iter().all(|&s| s));
    }
}

/// H2's sector spectrum by deflated Lanczos matches a dense Jacobi
/// diagonalization of its 4×4 block, built from the full-space `H|b⟩`.
#[test]
fn h2_low_spectrum_matches_dense_sector_diagonalization() {
    let system = equilibrium(Benchmark::H2);
    let sector = system.electron_sector();
    let dim = sector.dim();
    assert_eq!(dim, 4);
    let full_dim = 1 << system.num_qubits();
    let dense = RealMatrix::from_fn(dim, dim, |row, col| {
        let mut basis_state = vec![Complex64::ZERO; full_dim];
        basis_state[sector.unrank(col) as usize] = Complex64::ONE;
        let mut column = vec![Complex64::ZERO; full_dim];
        system.qubit_hamiltonian().apply(&basis_state, &mut column);
        column[sector.unrank(row) as usize].re
    });
    let want = jacobi_eigen(&dense).values;
    let got = system.lowest_eigenvalues(dim);
    for (k, (g, w)) in got.iter().zip(&want).enumerate() {
        assert!((g - w).abs() < 1e-9, "E{k}: Lanczos {g} vs dense {w}");
    }
}
