//! The fused VQE inner loop against its unfused oracles.
//!
//! Four fast paths sweep amplitude pairs `{b, b⊕x}` once per flip mask
//! instead of once per Pauli string:
//!
//! * `WeightedPauliSum::apply` (one sweep per distinct X mask of `H`),
//!   oracle `apply_per_term`;
//! * `WeightedPauliSum::expectation` (the same sweeps, folded into
//!   `⟨ψ|H|ψ⟩` with no output vector), oracle `expectation_per_term`;
//! * `vqe::prepare_state` (one sweep per same-mask IR run), oracle the
//!   per-entry `Statevector::apply_pauli_evolution` loop — equal bit for bit;
//! * `vqe::energy_and_gradient` (one backward sweep per run), oracle
//!   `vqe::parameter_shift_gradient`.
//!
//! They are checked on the Table I molecules up to 12 qubits and on IRs
//! outside UCCSD's odd-Y shape: random mixed IRs and Trotterized
//! Hamiltonians (even-Y and diagonal strings).

use pauli_codesign::ansatz::uccsd::UccsdAnsatz;
use pauli_codesign::ansatz::{trotterize, IrEntry, PauliIr, TrotterOrder};
use pauli_codesign::chem::Benchmark;
use pauli_codesign::numeric::{lanczos_ground_state, LanczosOptions};
use pauli_codesign::pauli::{PauliString, WeightedPauliSum};
use pauli_codesign::resilience::stages;
use pauli_codesign::sim::Statevector;
use pauli_codesign::vqe;

/// The per-entry preparation: one full sweep per IR entry.
fn prepare_per_entry(ir: &PauliIr, params: &[f64]) -> Statevector {
    let mut sv = Statevector::basis_state(ir.num_qubits(), ir.initial_state());
    for e in ir.entries() {
        sv.apply_pauli_evolution(&e.string, e.rotation_angle(params[e.param]));
    }
    sv
}

fn assert_gradients_agree(h: &WeightedPauliSum, ir: &PauliIr, theta: &[f64], what: &str) {
    let (e, fused) = vqe::energy_and_gradient(h, ir, theta);
    let oracle = vqe::parameter_shift_gradient(h, ir, theta);
    let per_term = prepare_per_entry(ir, theta).expectation_per_term(h);
    assert!(
        (e - per_term).abs() < 1e-12,
        "{what}: energy {e} vs per-term {per_term}"
    );
    for (p, (f, o)) in fused.iter().zip(&oracle).enumerate() {
        assert!(
            (f - o).abs() < 1e-12,
            "{what}: ∂E/∂θ{p} fused {f} vs parameter-shift {o}"
        );
    }
}

/// Fused preparation is `==` the per-entry loop, fused gradients sit within
/// 1e-12 of parameter shift, the fused expectation within 1e-12·‖H‖₁ of
/// the per-term sweep, and the grouped-matvec Lanczos energy within 1e-10
/// of the per-term matvec's, on every Table I molecule up to 12 qubits.
#[test]
fn table_one_molecules_up_to_twelve_qubits_match_their_oracles() {
    let molecules = [
        Benchmark::H2,
        Benchmark::LiH,
        Benchmark::NaH,
        Benchmark::HF,
        Benchmark::BeH2,
        Benchmark::H2O,
    ];
    for molecule in molecules {
        let system = molecule
            .build(molecule.equilibrium_bond_length())
            .expect("chemistry");
        assert!(system.num_qubits() <= 12, "{molecule}");
        let h = system.qubit_hamiltonian();
        let ir = UccsdAnsatz::for_system(&system).into_ir();
        let theta: Vec<f64> = (0..ir.num_parameters())
            .map(|k| 0.03 * ((k % 7) as f64 - 3.0) + 0.01)
            .collect();
        let name = molecule.name();

        assert_eq!(
            vqe::prepare_state(&ir, &theta).amplitudes(),
            prepare_per_entry(&ir, &theta).amplitudes(),
            "{name}: fused preparation differs from the per-entry loop"
        );
        assert_gradients_agree(h, &ir, &theta, name);

        let psi = vqe::prepare_state(&ir, &theta);
        let (fused, per_term) = (psi.expectation(h), psi.expectation_per_term(h));
        assert!(
            (fused - per_term).abs() <= 1e-12 * h.one_norm(),
            "{name}: fused expectation {fused} vs per-term {per_term}"
        );

        let grouped = h.ground_state_energy();
        let per_term = lanczos_ground_state(
            1 << h.num_qubits(),
            |x, y| h.apply_per_term(x, y),
            LanczosOptions::default(),
            0x5eed,
        )
        .eigenvalue;
        assert!(
            (grouped - per_term).abs() < 1e-10,
            "{name}: Lanczos grouped {grouped} vs per-term {per_term}"
        );
    }
}

fn xorshift(s: &mut u64) -> u64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    *s
}

/// A random IR of same-mask runs mixing odd-Y, even-Y, diagonal and
/// identity strings, runs of 1 to 80 entries (past one 64-entry sweep).
fn random_mixed_ir(n: usize, seed: u64) -> PauliIr {
    let full = (1u64 << n) - 1;
    let mut s = seed | 1;
    let mut ir = PauliIr::new(n, xorshift(&mut s) & full);
    for run in 0..12 {
        let x = match run % 4 {
            0 => 0,
            _ => xorshift(&mut s) & full,
        };
        let len = if run == 5 {
            80
        } else {
            1 + xorshift(&mut s) % 9
        };
        for _ in 0..len {
            let z = if run == 8 { 0 } else { xorshift(&mut s) & full };
            ir.push(IrEntry {
                string: PauliString::from_symplectic(n, x, z),
                param: (xorshift(&mut s) % 5) as usize,
                coefficient: (xorshift(&mut s) % 1000) as f64 / 500.0 - 1.0,
            });
        }
    }
    ir
}

fn random_hamiltonian(n: usize, terms: usize, seed: u64) -> WeightedPauliSum {
    let full = (1u64 << n) - 1;
    let mut s = seed | 1;
    let mut h = WeightedPauliSum::new(n);
    for k in 0..terms {
        let (x, z) = (xorshift(&mut s) & full, xorshift(&mut s) & full);
        h.push(
            0.1 * (k as f64 + 1.0),
            PauliString::from_symplectic(n, x, z),
        );
    }
    h
}

/// The general (non-odd-Y) fused path: random mixed IRs and Trotterized
/// Hamiltonians still prepare `==` the per-entry loop and differentiate to
/// parameter shift.
#[test]
fn general_fused_path_matches_the_per_entry_kernel() {
    for (n, seed) in [(3, 11u64), (5, 12), (7, 13), (9, 14)] {
        let ir = random_mixed_ir(n, seed);
        let h = random_hamiltonian(n, 12, seed ^ 0xABCD);
        let theta = [0.31, -0.72, 1.1, 0.05, -1.4];
        assert_eq!(
            vqe::prepare_state(&ir, &theta).amplitudes(),
            prepare_per_entry(&ir, &theta).amplitudes(),
            "random IR on {n} qubits"
        );
        assert_gradients_agree(&h, &ir, &theta, &format!("random IR on {n} qubits"));
    }

    // A molecular H Trotterized: even-Y and diagonal strings only, in the
    // Hamiltonian's term order (so same-mask runs come from its layout).
    let lih = Benchmark::LiH.build(1.6).expect("LiH chemistry");
    let h = lih.qubit_hamiltonian();
    for order in [TrotterOrder::First, TrotterOrder::Second] {
        let ir = trotterize(h, 0.4, 2, order, 0b0011);
        assert!(ir.entries().iter().any(|e| e.string.x_mask() == 0));
        for theta in [[1.0], [-0.6]] {
            assert_eq!(
                vqe::prepare_state(&ir, &theta).amplitudes(),
                prepare_per_entry(&ir, &theta).amplitudes(),
                "Trotterized LiH ({order:?})"
            );
            assert_gradients_agree(h, &ir, &theta, &format!("Trotterized LiH ({order:?})"));
        }
    }
}

/// The cross-check on the `pipeline_large` bond grid: H2O and BeH2 at
/// ratio 0.5, probe angles `θ_k = 0.02·(k mod 7 − 3)`. The preparation is
/// `==` the per-entry loop, and the grouped energy and the full-space
/// adjoint gradient (folded into one word) keep the bits they had before
/// the full-space sweeps skipped zero amplitude pairs: those pairs
/// contribute exactly nothing, so skipping them changes the cost, not the
/// answer.
#[test]
fn crosscheck_on_the_benchmark_grid_is_pinned() {
    let pins = [
        (
            Benchmark::H2O,
            0.95,
            0xc052_b3ff_5915_c459u64,
            0x20e0_b554_f4de_fb95u64,
        ),
        (
            Benchmark::H2O,
            0.96,
            0xc052_b641_8340_21d4,
            0x6d69_36e1_3653_ad77,
        ),
        (
            Benchmark::H2O,
            0.97,
            0xc052_b5c2_9ade_d8d1,
            0xb328_2dc1_1bca_6aa7,
        ),
        (
            Benchmark::BeH2,
            1.31,
            0xc02e_ec24_9445_ac02,
            0x7c49_344a_3f27_69c2,
        ),
        (
            Benchmark::BeH2,
            1.33,
            0xc02e_faaf_c018_97b4,
            0x95bd_8342_3824_abe2,
        ),
        (
            Benchmark::BeH2,
            1.35,
            0xc02e_faf4_72cd_b6ff,
            0xfc1c_2c4c_a1a9_3d84,
        ),
    ];
    for (molecule, bond, bits, grad_pin) in pins {
        let system = molecule.build(bond).expect("chemistry");
        let (ir, _) = stages::ansatz(&system, 0.5);
        let theta: Vec<f64> = (0..ir.num_parameters())
            .map(|k| 0.02 * ((k % 7) as f64 - 3.0))
            .collect();
        assert_eq!(
            vqe::prepare_state(&ir, &theta).amplitudes(),
            prepare_per_entry(&ir, &theta).amplitudes(),
            "{molecule} at {bond} Å: fused preparation differs from the per-entry loop"
        );
        let grouped = stages::crosscheck(&system, &ir, &theta).grouped;
        let (_, grad) = vqe::energy_and_gradient(system.qubit_hamiltonian(), &ir, &theta);
        let grad_bits = grad
            .iter()
            .fold(0u64, |h, g| h.rotate_left(7) ^ g.to_bits());
        assert_eq!(
            grouped.to_bits(),
            bits,
            "{molecule} at {bond} Å: grouped cross-check energy {grouped}"
        );
        assert_eq!(
            grad_bits, grad_pin,
            "{molecule} at {bond} Å: full-space adjoint gradient bits moved"
        );
    }
}
