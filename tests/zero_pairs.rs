//! The full-space pair sweeps on sparse states, against their dense oracles.
//!
//! A number-conserving ansatz prepared from a Hartree-Fock determinant
//! leaves almost every amplitude of the full register exactly zero, and the
//! fused sweeps skip the pairs whose amplitudes are all zero. These tests
//! feed the sweeps states where a random share of the amplitudes is `±0.0`
//! — so a flip mask's pairs mix whole-zero pairs, half-zero pairs and full
//! pairs — and check each against the oracle that does the full arithmetic
//! on every amplitude:
//!
//! * `Statevector::apply_pauli_rotations` is `==` the per-string
//!   `apply_pauli_evolution` loop;
//! * `WeightedPauliSum::expectation` sits within 1e-12·‖H‖₁ of
//!   `expectation_per_term`;
//! * `WeightedPauliSum::apply` sits within 1e-12 of `apply_per_term`, with
//!   the output pre-filled with NaN so a skipped write shows;
//! * the fused adjoint gradient sits within 1e-12 of parameter shift.
//!
//! A NaN angle no longer reaches the zero pairs, so a test pins that it
//! still poisons the energy and the gradient, and that the optimizer's
//! non-finite guard still fires. The last test pins that a NaN amplitude
//! beside a zero one still reaches the grouped energy.

use proptest::prelude::*;

use pauli_codesign::ansatz::{IrEntry, PauliIr};
use pauli_codesign::chem::Benchmark;
use pauli_codesign::numeric::Complex64;
use pauli_codesign::pauli::{PauliString, WeightedPauliSum};
use pauli_codesign::resilience::stages;
use pauli_codesign::sim::{PauliRotation, Statevector};
use pauli_codesign::vqe;
use pauli_codesign::vqe::optimize::{lbfgs, OptimizeControls, OptimizeError};

fn xorshift(s: &mut u64) -> u64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    *s
}

/// A normalized random `n`-qubit state with exact zeros of either sign.
/// With `sector` set, the support is every index of one popcount (the shape
/// a number-conserving ansatz prepares); otherwise each amplitude is zero
/// with probability `zeros`. One amplitude is always kept.
fn sparse_state(n: usize, seed: u64, zeros: f64, sector: bool) -> Vec<Complex64> {
    let mut s = seed | 1;
    let mut unit = move || (xorshift(&mut s) >> 11) as f64 / (1u64 << 53) as f64;
    let weight = n as u32 / 2;
    let keep = (seed as usize) % (1 << n);
    let amps: Vec<Complex64> = (0..1usize << n)
        .map(|b| {
            let zero = if sector {
                b.count_ones() != weight
            } else {
                unit() < zeros && b != keep
            };
            let (re, im) = (unit() - 0.5, unit() - 0.5);
            match (zero, unit() < 0.5) {
                (true, true) => Complex64::ZERO,
                (true, false) => Complex64::new(-0.0, -0.0),
                (false, _) => Complex64::new(re, im),
            }
        })
        .collect();
    let norm = amps.iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt();
    amps.into_iter().map(|z| z / norm).collect()
}

/// A random sum mixing odd-Y, even-Y, diagonal and identity terms, some on
/// the previous term's flip mask.
fn random_sum(n: usize, seed: u64, terms: usize) -> WeightedPauliSum {
    let full = (1u64 << n) - 1;
    let mut s = seed | 1;
    let mut h = WeightedPauliSum::new(n);
    let mut last_x = 0;
    for _ in 0..terms {
        let (xr, zr) = (xorshift(&mut s) & full, xorshift(&mut s) & full);
        let x = match xorshift(&mut s) % 4 {
            0 => 0,
            1 => last_x,
            _ => xr,
        };
        let z = if xorshift(&mut s).is_multiple_of(8) {
            0
        } else {
            zr
        };
        last_x = x;
        let w = (xorshift(&mut s) % 2000) as f64 / 500.0 - 2.0;
        h.push(w, PauliString::from_symplectic(n, x, z));
    }
    h
}

/// A random IR of `runs` same-mask runs (every fourth one diagonal, one
/// string or up to nine) from basis state `initial`; few runs leave most of
/// the register zero.
fn random_ir(n: usize, seed: u64, runs: usize, initial: u64) -> PauliIr {
    let full = (1u64 << n) - 1;
    let mut s = seed | 1;
    let mut ir = PauliIr::new(n, initial & full);
    for run in 0..runs {
        let x = if run % 4 == 3 {
            0
        } else {
            xorshift(&mut s) & full
        };
        for _ in 0..1 + xorshift(&mut s) % 9 {
            ir.push(IrEntry {
                string: PauliString::from_symplectic(n, x, xorshift(&mut s) & full),
                param: (xorshift(&mut s) % 4) as usize,
                coefficient: (xorshift(&mut s) % 1000) as f64 / 500.0 - 1.0,
            });
        }
    }
    ir
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Fused rotation runs (diagonal, odd-Y and even-Y strings) on sparse
    /// states are `==` one `apply_pauli_evolution` per string.
    #[test]
    fn sparse_rotations_match_the_per_string_loop(
        n in 6usize..13,
        seed in 1u64..u64::MAX,
        zeros in 0.0f64..1.0,
        sector in 0u8..2,
    ) {
        let full = (1u64 << n) - 1;
        let mut s = seed ^ 0x5EED;
        let mut fused = Statevector::from_amplitudes(sparse_state(n, seed, zeros, sector == 1));
        let mut per_string = fused.clone();
        for run in 0..6 {
            let x = if run % 3 == 0 { 0 } else { xorshift(&mut s) & full };
            let rotations: Vec<(PauliString, f64)> = (0..1 + xorshift(&mut s) % 9)
                .map(|_| {
                    let p = PauliString::from_symplectic(n, x, xorshift(&mut s) & full);
                    (p, (xorshift(&mut s) % 4000) as f64 / 1000.0 - 2.0)
                })
                .collect();
            let run: Vec<PauliRotation> =
                rotations.iter().map(|(p, t)| PauliRotation::new(p, *t)).collect();
            fused.apply_pauli_rotations(&run);
            for (p, t) in &rotations {
                per_string.apply_pauli_evolution(p, *t);
            }
        }
        prop_assert_eq!(fused.amplitudes(), per_string.amplitudes());
    }

    /// The fused expectation on sparse states sits within 1e-12·‖H‖₁ of the
    /// per-term sweep.
    #[test]
    fn sparse_expectation_matches_per_term(
        n in 6usize..13,
        seed in 1u64..u64::MAX,
        zeros in 0.0f64..1.0,
        sector in 0u8..2,
        terms in 1usize..90,
    ) {
        let state = sparse_state(n, seed, zeros, sector == 1);
        let h = random_sum(n, seed.rotate_left(29), terms);
        let (fused, per_term) = (h.expectation(&state), h.expectation_per_term(&state));
        prop_assert!(
            (fused - per_term).abs() <= 1e-12 * h.one_norm(),
            "n={} zeros={}: fused {} vs per-term {}", n, zeros, fused, per_term
        );
    }

    /// The grouped `H|ψ⟩` on sparse states sits within 1e-12 of the
    /// per-term `apply`, into an output pre-filled with NaN: every entry,
    /// including those of skipped pairs, must be written.
    #[test]
    fn sparse_apply_matches_per_term_into_a_nan_output(
        n in 6usize..13,
        seed in 1u64..u64::MAX,
        zeros in 0.0f64..1.0,
        sector in 0u8..2,
        terms in 1usize..90,
    ) {
        let state = sparse_state(n, seed, zeros, sector == 1);
        let h = random_sum(n, seed.rotate_left(31), terms);
        let mut grouped = vec![Complex64::new(f64::NAN, f64::NAN); 1 << n];
        let mut per_term = vec![Complex64::ZERO; 1 << n];
        h.apply(&state, &mut grouped);
        h.apply_per_term(&state, &mut per_term);
        for (b, (g, r)) in grouped.iter().zip(&per_term).enumerate() {
            prop_assert!(g.approx_eq(*r, 1e-12), "n={} b={}: grouped {} vs per-term {}", n, b, g, r);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The fused adjoint gradient of a few random runs from a basis state
    /// (so `φ` and `λ` are sparse) sits within 1e-12 of parameter shift,
    /// and its energy within 1e-12 of the per-term expectation. One angle
    /// is zero: its entries do not spread `φ`'s support, so `λ` is read
    /// where `φ` was zero on a pair, and a peel that skipped on `φ` alone
    /// would leave `λ` unrotated there.
    #[test]
    fn sparse_gradient_matches_parameter_shift(
        n in 6usize..12,
        seed in 1u64..u64::MAX,
        runs in 1usize..6,
        terms in 1usize..40,
    ) {
        let ir = random_ir(n, seed, runs, seed >> 7);
        let h = random_sum(n, seed.rotate_left(17), terms);
        let theta = [0.41, -0.83, 0.0, 1.27];
        let theta = &theta[..ir.num_parameters()];
        let (e, fused) = vqe::energy_and_gradient(&h, &ir, theta);
        let oracle = vqe::parameter_shift_gradient(&h, &ir, theta);
        let per_term = vqe::prepare_state(&ir, theta).expectation_per_term(&h);
        prop_assert!((e - per_term).abs() < 1e-12, "energy {} vs per-term {}", e, per_term);
        for (p, (f, o)) in fused.iter().zip(&oracle).enumerate() {
            prop_assert!((f - o).abs() < 1e-12, "∂E/∂θ{}: fused {} vs parameter shift {}", p, f, o);
        }
    }
}

/// A NaN angle on any one parameter of H2O's ratio-0.5 IR still makes the
/// full-space energy and gradient non-finite, and the optimizer stops with
/// its typed non-finite error. Every UCCSD entry rotates the Hartree-Fock
/// pair, which is never zero, so the NaN enters there and spreads.
#[test]
fn a_nan_angle_still_poisons_the_energy_and_the_gradient() {
    let system = Benchmark::H2O
        .build(Benchmark::H2O.equilibrium_bond_length())
        .expect("chemistry");
    let h = system.qubit_hamiltonian();
    let (ir, _) = stages::ansatz(&system, 0.5);
    for p in 0..ir.num_parameters() {
        let mut theta = vec![0.01; ir.num_parameters()];
        theta[p] = f64::NAN;
        assert!(
            !vqe::energy(h, &ir, &theta).is_finite(),
            "θ{p} = NaN: energy"
        );
        let (e, grad) = vqe::energy_and_gradient(h, &ir, &theta);
        assert!(!e.is_finite(), "θ{p} = NaN: energy from the gradient walk");
        assert!(
            grad.iter().any(|g| !g.is_finite()),
            "θ{p} = NaN: every gradient component is finite"
        );
        let err = lbfgs(
            |x| vqe::energy_and_gradient(h, &ir, x),
            &theta,
            OptimizeControls::default(),
        )
        .unwrap_err();
        assert!(
            matches!(err, OptimizeError::NonFiniteObjective { iteration: 0, .. }),
            "θ{p} = NaN: {err}"
        );
    }
}

/// A NaN amplitude whose pair partner is exactly zero still reaches the
/// grouped energy. `H = X` has one off-diagonal sweep and no diagonal one,
/// so that pair is the only way in. The energy is NaN, as the per-term
/// oracle's is.
#[test]
fn a_nan_amplitude_beside_a_zero_poisons_the_energy() {
    let mut h = WeightedPauliSum::new(1);
    h.push(1.0, PauliString::from_symplectic(1, 1, 0));
    let nan = Complex64::new(f64::NAN, 0.0);
    for state in [[nan, Complex64::ZERO], [Complex64::ZERO, nan]] {
        assert!(h.expectation_per_term(&state).is_nan(), "{state:?}: oracle");
        assert!(h.expectation(&state).is_nan(), "{state:?}: grouped");
    }
}
