//! Ansatz state preparation and exact adjoint-mode gradients.
//!
//! The VQE inner loop evaluates `E(θ) = ⟨ψ(θ)|H|ψ(θ)⟩` where `ψ(θ)` is the
//! Pauli-IR evolution applied to the Hartree-Fock determinant. The gradient
//! is computed in reverse mode — exact, and far cheaper than
//! parameter-shift for UCCSD's shared parameters.
//!
//! Both walks are fused by flip mask. Under Jordan–Wigner every string of
//! one UCCSD excitation shares its X mask, so the IR falls into maximal
//! runs of consecutive entries with one mask (8 strings per double, 2 per
//! single). Each run costs one sweep over the amplitude pairs `{b, b⊕x}`
//! instead of one sweep per entry, with program order kept per pair. The
//! per-entry paths stay as oracles: [`sim::Statevector::apply_pauli_evolution`]
//! for [`prepare_state`], and [`crate::optimize::parameter_shift_gradient`]
//! for the gradients.

use numeric::Complex64;
use pauli::{flip, WeightedPauliSum};
use sim::rotation::{peel_run_diagonal, peel_run_pair};
use sim::{PauliRotation, Statevector};

use ansatz::PauliIr;

/// One rotation per IR entry at `params`, negated angles when `inverse`.
pub(crate) fn rotations(ir: &PauliIr, params: &[f64], inverse: bool) -> Vec<PauliRotation> {
    let sign = if inverse { -1.0 } else { 1.0 };
    ir.entries()
        .iter()
        .map(|e| PauliRotation::new(&e.string, sign * e.rotation_angle(params[e.param])))
        .collect()
}

/// The fused runs of an IR-ordered slice: maximal runs of consecutive items
/// with one flip mask `x(item)`, cut into pieces of at most
/// [`flip::MAX_MASKS`]. Every fused sweep, full-space or sector, walks these.
pub(crate) fn mask_runs<T>(
    items: &[T],
    x: impl Fn(&T) -> u64,
) -> impl DoubleEndedIterator<Item = &[T]> {
    items
        .chunk_by(move |a, b| x(a) == x(b))
        .flat_map(|run| run.chunks(flip::MAX_MASKS))
}

/// Prepares `|ψ(θ)⟩`: the Hartree-Fock basis state evolved by every IR
/// entry in program order, one pair sweep per same-mask run that skips the
/// pairs still exactly zero. `==` amplitude for amplitude to applying each
/// entry with
/// [`apply_pauli_evolution`](sim::Statevector::apply_pauli_evolution).
///
/// # Panics
///
/// Panics if `params.len()` differs from the IR's parameter count.
pub fn prepare_state(ir: &PauliIr, params: &[f64]) -> Statevector {
    assert_eq!(
        params.len(),
        ir.num_parameters(),
        "parameter count mismatch"
    );
    let mut sv = Statevector::basis_state(ir.num_qubits(), ir.initial_state());
    for run in rotations(ir, params, false).chunk_by(|a, b| a.x_mask() == b.x_mask()) {
        sv.apply_pauli_rotations(run);
    }
    sv
}

/// `(⟨ψ|H|ψ⟩, H|ψ⟩)` through the grouped [`WeightedPauliSum::apply`].
fn energy_and_h_psi(hamiltonian: &WeightedPauliSum, psi: &Statevector) -> (f64, Vec<Complex64>) {
    let mut h_psi = vec![Complex64::ZERO; psi.amplitudes().len()];
    hamiltonian.apply(psi.amplitudes(), &mut h_psi);
    let e = psi
        .amplitudes()
        .iter()
        .zip(&h_psi)
        .map(|(a, b)| (a.conj() * *b).re)
        .sum();
    (e, h_psi)
}

/// The energy `E(θ)`: the fused preparation, then `⟨ψ|H|ψ⟩` as the grouped
/// `H|ψ⟩` dotted with `ψ`.
pub fn energy(hamiltonian: &WeightedPauliSum, ir: &PauliIr, params: &[f64]) -> f64 {
    energy_and_h_psi(hamiltonian, &prepare_state(ir, params)).0
}

/// Energy and exact gradient `∂E/∂θ` by the adjoint method.
///
/// With `|φ⟩` the working state and `|λ⟩ = H|ψ⟩` back-propagated through
/// the inverse evolutions, each entry `U_k = exp(i·θ_p·c_k·P_k)` contributes
/// `2·Re⟨λ|i·c_k·P_k|φ⟩` to `∂E/∂θ_p`. The walk is fused by same-mask run
/// (see the module docs).
///
/// # Panics
///
/// Panics if dimensions disagree.
pub fn energy_and_gradient(
    hamiltonian: &WeightedPauliSum,
    ir: &PauliIr,
    params: &[f64],
) -> (f64, Vec<f64>) {
    assert_eq!(
        hamiltonian.num_qubits(),
        ir.num_qubits(),
        "register mismatch"
    );
    let psi = prepare_state(ir, params);
    let (e, h_psi) = energy_and_h_psi(hamiltonian, &psi);
    (e, adjoint_gradient(ir, params, &psi, &h_psi))
}

/// Squared overlap `|⟨φ|ψ(θ)⟩|²` and its exact gradient, by the same
/// adjoint walk as [`energy_and_gradient`]. Used by the VQD excited-state
/// penalty terms.
///
/// With `c = ⟨φ|ψ⟩`, `∂|c|²/∂θ = 2·Re(c̄·⟨φ_k|i·c_k·P_k|ψ_k⟩)
/// = 2·Re⟨c·φ_k|i·c_k·P_k|ψ_k⟩`: the energy walk seeded with `λ₀ = c·|φ⟩`
/// instead of `H|ψ⟩`.
///
/// # Panics
///
/// Panics if dimensions disagree.
pub fn overlap_and_gradient(phi: &[Complex64], ir: &PauliIr, params: &[f64]) -> (f64, Vec<f64>) {
    assert_eq!(
        phi.len(),
        1usize << ir.num_qubits(),
        "reference state has wrong length"
    );
    let psi = prepare_state(ir, params);
    let c: Complex64 = phi
        .iter()
        .zip(psi.amplitudes())
        .map(|(p, a)| p.conj() * *a)
        .sum();
    let seed: Vec<Complex64> = phi.iter().map(|p| *p * c).collect();
    (c.norm_sqr(), adjoint_gradient(ir, params, &psi, &seed))
}

/// The adjoint walk: `Σ_k 2·Re⟨λ_k|i·c_k·P_k|φ_k⟩` accumulated per
/// parameter, where `φ_k` and `λ_k` are `|ψ(θ)⟩` and the seed `λ₀` with
/// entries `k+1…` peeled off.
///
/// The IR is walked run by run from the back. Each same-mask run is one
/// sweep over the interleaved `(φ, λ)` pairs: per pair the run is walked
/// backwards in registers, each entry adding its bracket `Im⟨λ|P_k|φ⟩`
/// before being peeled off both states. Per-chunk bracket sums fold in
/// chunk order over a grid fixed by the flip mask, so the gradient is
/// bit-identical at every thread count.
fn adjoint_gradient(
    ir: &PauliIr,
    params: &[f64],
    psi: &Statevector,
    lambda: &[Complex64],
) -> Vec<f64> {
    let mut states: Vec<[Complex64; 2]> = psi
        .amplitudes()
        .iter()
        .zip(lambda)
        .map(|(&phi, &lambda)| [phi, lambda])
        .collect();
    adjoint_walk(ir, params, |_, run| peel_run(&mut states, run))
}

/// The adjoint walk's bookkeeping, shared by the full-space and sector
/// sweeps: the fused runs of inverse rotations ([`mask_runs`]) from the
/// back, `peel(i, run)` peeling run `i` and returning each entry's
/// `Im⟨λ|P|φ⟩`, folded into the gradient.
pub(crate) fn adjoint_walk(
    ir: &PauliIr,
    params: &[f64],
    mut peel: impl FnMut(usize, &[PauliRotation]) -> Vec<f64>,
) -> Vec<f64> {
    let entries = ir.entries();
    let inverse = rotations(ir, params, true);
    let runs: Vec<&[PauliRotation]> = mask_runs(&inverse, PauliRotation::x_mask).collect();
    let mut grad = vec![0.0; ir.num_parameters()];
    let mut end = entries.len();
    for (i, run) in runs.iter().enumerate().rev() {
        let start = end - run.len();
        let brackets = peel(i, run);
        for (e, bracket) in entries[start..end].iter().zip(&brackets).rev() {
            // 2·Re(i·c·⟨λ|P|φ⟩) = −2·c·Im⟨λ|P|φ⟩.
            grad[e.param] += -2.0 * e.coefficient * bracket;
        }
        end = start;
    }
    grad
}

/// One fused backward sweep of a same-mask run of at most
/// [`flip::MAX_MASKS`] inverse rotations over the `(φ, λ)` pairs; returns
/// each entry's `Im⟨λ|P|φ⟩`, taken before that entry is peeled off.
fn peel_run(states: &mut [[Complex64; 2]], run: &[PauliRotation]) -> Vec<f64> {
    let x = run[0].x_mask();
    let xs = x as usize;
    let zs: Vec<u64> = run.iter().map(PauliRotation::z_mask).collect();
    // Where φ and λ are all zero, every bracket is zero and the peel leaves
    // zeros: the pair is skipped.
    let zero = |[phi, lambda]: [Complex64; 2]| phi.is_zero() && lambda.is_zero();
    let partials = par::map_chunks_mut(states, flip::chunk_len(x), |offset, chunk| {
        let mut acc = vec![0.0; run.len()];
        flip::for_each_pair(offset, chunk.len(), x, &zs, |lo, p| {
            if x == 0 {
                if !zero(chunk[lo]) {
                    chunk[lo] = peel_run_diagonal(run, p, &mut acc, chunk[lo]);
                }
            } else {
                let hi = lo ^ xs;
                if !(zero(chunk[lo]) && zero(chunk[hi])) {
                    (chunk[lo], chunk[hi]) = peel_run_pair(run, p, &mut acc, chunk[lo], chunk[hi]);
                }
            }
        });
        acc
    });
    partials
        .into_iter()
        .fold(vec![0.0; run.len()], |mut total, partial| {
            for (t, p) in total.iter_mut().zip(partial) {
                *t += p;
            }
            total
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ansatz::uccsd::UccsdAnsatz;
    use ansatz::IrEntry;

    fn toy_problem() -> (WeightedPauliSum, PauliIr) {
        let mut h = WeightedPauliSum::new(2);
        h.push(-0.5, "ZI".parse().unwrap());
        h.push(0.3, "XX".parse().unwrap());
        h.push(0.2, "ZZ".parse().unwrap());
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
        ir.push(IrEntry {
            string: "ZY".parse().unwrap(),
            param: 1,
            coefficient: 0.25,
        });
        (h, ir)
    }

    #[test]
    fn zero_parameters_give_reference_energy() {
        let (h, ir) = toy_problem();
        let e0 = energy(&h, &ir, &[0.0, 0.0]);
        // |01⟩: ⟨ZI⟩ = +1 (qubit 1 is 0), ⟨ZZ⟩ = -1, ⟨XX⟩ = 0.
        assert!((e0 - (-0.5 - 0.2)).abs() < 1e-12);
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let (h, ir) = toy_problem();
        let theta = [0.37, -0.81];
        let (e, grad) = energy_and_gradient(&h, &ir, &theta);
        assert!((e - energy(&h, &ir, &theta)).abs() < 1e-12);
        let eps = 1e-6;
        for p in 0..2 {
            let mut tp = theta;
            tp[p] += eps;
            let mut tm = theta;
            tm[p] -= eps;
            let fd = (energy(&h, &ir, &tp) - energy(&h, &ir, &tm)) / (2.0 * eps);
            assert!(
                (grad[p] - fd).abs() < 1e-6,
                "param {p}: adjoint {} vs fd {fd}",
                grad[p]
            );
        }
    }

    #[test]
    fn gradient_matches_finite_differences_on_uccsd() {
        // Real UCCSD structure with shared parameters (8 strings/double).
        let ir = UccsdAnsatz::new(2, 2).into_ir();
        let mut h = WeightedPauliSum::new(4);
        h.push(0.4, "ZIIZ".parse().unwrap());
        h.push(-0.7, "IXXI".parse().unwrap());
        h.push(0.2, "YZZY".parse().unwrap());
        h.push(-0.1, "ZZII".parse().unwrap());
        let theta = [0.21, -0.4, 0.63];
        let (_, grad) = energy_and_gradient(&h, &ir, &theta);
        let eps = 1e-6;
        for p in 0..3 {
            let mut tp = theta;
            tp[p] += eps;
            let mut tm = theta;
            tm[p] -= eps;
            let fd = (energy(&h, &ir, &tp) - energy(&h, &ir, &tm)) / (2.0 * eps);
            assert!(
                (grad[p] - fd).abs() < 1e-5,
                "param {p}: adjoint {} vs fd {fd}",
                grad[p]
            );
        }
    }

    #[test]
    fn overlap_gradient_matches_finite_differences() {
        let (_, ir) = toy_problem();
        // Reference: some fixed normalized state.
        let mut phi = vec![Complex64::ZERO; 4];
        phi[1] = Complex64::from_real(0.6);
        phi[2] = Complex64::new(0.0, 0.8);
        let theta = [0.31, -0.44];
        let (value, grad) = overlap_and_gradient(&phi, &ir, &theta);
        assert!((0.0..=1.0 + 1e-12).contains(&value));
        let eps = 1e-6;
        for p in 0..2 {
            let mut tp = theta;
            tp[p] += eps;
            let mut tm = theta;
            tm[p] -= eps;
            let f = |t: &[f64; 2]| {
                let psi = prepare_state(&ir, t);
                phi.iter()
                    .zip(psi.amplitudes())
                    .map(|(a, b)| a.conj() * *b)
                    .sum::<Complex64>()
                    .norm_sqr()
            };
            let fd = (f(&tp) - f(&tm)) / (2.0 * eps);
            assert!(
                (grad[p] - fd).abs() < 1e-6,
                "param {p}: adjoint {} vs fd {fd}",
                grad[p]
            );
        }
    }

    #[test]
    fn prepared_state_is_normalized() {
        let ir = UccsdAnsatz::new(3, 2).into_ir();
        let params: Vec<f64> = (0..8).map(|k| 0.1 * (k as f64 - 3.0)).collect();
        let sv = prepare_state(&ir, &params);
        assert!((sv.norm() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn hf_energy_is_stationary_for_singles_on_diagonal_hamiltonian() {
        // For a purely diagonal (Z-only) Hamiltonian the HF determinant is
        // an eigenstate; gradient of a single excitation at θ=0 vanishes.
        let ir = UccsdAnsatz::new(2, 2).into_ir();
        let mut h = WeightedPauliSum::new(4);
        h.push(1.0, "ZIII".parse().unwrap());
        h.push(0.5, "IZZI".parse().unwrap());
        let (_, grad) = energy_and_gradient(&h, &ir, &[0.0, 0.0, 0.0]);
        for g in &grad {
            assert!(g.abs() < 1e-12);
        }
    }
}
