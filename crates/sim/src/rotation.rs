//! Pauli rotations with their amplitude-pair updates precomputed: the
//! building block of the fused VQE inner loop.
//!
//! [`Statevector::apply_pauli_evolution`](crate::Statevector::apply_pauli_evolution)
//! sweeps the whole register once per string. A [`PauliRotation`] exposes
//! the same update one amplitude pair at a time, so a run of rotations that
//! share a flip mask can be applied pair by pair in registers — one sweep
//! for the run ([`Statevector::apply_pauli_rotations`](crate::Statevector::apply_pauli_rotations))
//! — and the adjoint gradient can take its brackets `Im⟨λ|P|φ⟩` inside the
//! same walk.

use numeric::Complex64;
use pauli::flip::signed;
use pauli::{PauliString, Phase};

/// The rotation `exp(-i·θ/2·P)` of one Pauli string, ready to be applied to
/// single amplitudes (diagonal strings) or amplitude pairs `(a_b, a_{b⊕x})`.
///
/// Two update paths, chosen per string:
///
/// * **odd Y count** (every UCCSD string under Jordan–Wigner): `P` maps
///   `|b⟩ ↦ ±i|b⊕x⟩` and `|b⊕x⟩ ↦ ∓i|b⟩`, so the pair update is a real
///   rotation `(lo, hi) ↦ (c·lo + t·hi, c·hi − t·lo)` with one parity sign
///   in `t = ∓sin(θ/2)`;
/// * **anything else**: the general complex 2×2 update, written with the
///   same operations as the per-string kernel.
///
/// Both paths produce bit-for-bit the amplitudes of
/// [`Statevector::apply_pauli_evolution`](crate::Statevector::apply_pauli_evolution).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PauliRotation {
    num_qubits: usize,
    x: u64,
    z: u64,
    odd_y: bool,
    /// `i^#Y`, the phase of the string's action.
    phase: Complex64,
    cos: f64,
    sin: f64,
}

impl PauliRotation {
    /// The rotation `exp(-i·θ/2·P)`.
    pub fn new(p: &PauliString, theta: f64) -> Self {
        let (x, z) = (p.x_mask(), p.z_mask());
        let ny = (x & z).count_ones();
        PauliRotation {
            num_qubits: p.num_qubits(),
            x,
            z,
            odd_y: ny % 2 == 1,
            phase: Phase::from_power_of_i(ny).to_complex(),
            cos: (theta / 2.0).cos(),
            sin: (theta / 2.0).sin(),
        }
    }

    /// Width of the string.
    #[inline]
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// The X (flip) mask: the rotation mixes amplitudes `b` and `b ⊕ x`.
    #[inline]
    pub fn x_mask(&self) -> u64 {
        self.x
    }

    /// The Z mask: the rotation's sign at `b` is `(−1)^|b∧z|`.
    #[inline]
    pub fn z_mask(&self) -> u64 {
        self.z
    }

    /// The rotated pair `(a_b, a_{b⊕x})` for `b` the member whose highest
    /// flip bit is clear, `parity` the parity of `|b∧z|` (0 or 1, as
    /// [`pauli::flip::for_each_pair`] supplies it).
    ///
    /// Only meaningful for off-diagonal strings (`x ≠ 0`).
    #[inline(always)]
    pub fn rotate_pair(&self, parity: u64, lo: Complex64, hi: Complex64) -> (Complex64, Complex64) {
        if self.odd_y {
            // phase = σ·i with σ = ±1 and the partner's parity is the
            // opposite, so −i·sin·P is the real t = −σ·(−1)^parity·sin.
            let t = signed(-self.phase.im * self.sin, parity);
            (lo * self.cos + hi * t, hi * self.cos - lo * t)
        } else {
            // An even Y count gives both pair members the same sign.
            let cc = Complex64::from_real(self.cos);
            let mis = Complex64::new(0.0, -self.sin);
            let ph = self.phase * signed(1.0, parity);
            (cc * lo + mis * (ph * hi), cc * hi + mis * (ph * lo))
        }
    }

    /// The rotated amplitude `a_b` of a diagonal string (`x = 0`), which
    /// multiplies it by `exp(∓i·θ/2)`; `parity` as for
    /// [`rotate_pair`](Self::rotate_pair).
    #[inline(always)]
    pub fn rotate_diagonal(&self, parity: u64, a: Complex64) -> Complex64 {
        let cc = Complex64::from_real(self.cos);
        let mis = Complex64::new(0.0, -self.sin);
        let factor = if parity == 0 { cc + mis } else { cc - mis };
        a * factor
    }

    /// The pair's share of `Im⟨λ|P|φ⟩`, with `parity` as for
    /// [`rotate_pair`](Self::rotate_pair). Only meaningful for off-diagonal
    /// strings.
    #[inline(always)]
    pub fn bracket_pair(
        &self,
        parity: u64,
        (phi_lo, phi_hi): (Complex64, Complex64),
        (lam_lo, lam_hi): (Complex64, Complex64),
    ) -> f64 {
        if self.odd_y {
            // ⟨λ|P|φ⟩ on the pair is σ·s·i·(λ̄_hi·φ_lo − λ̄_lo·φ_hi), whose
            // imaginary part is σ·s·Re(λ̄_hi·φ_lo − λ̄_lo·φ_hi).
            let re = lam_hi.re * phi_lo.re + lam_hi.im * phi_lo.im
                - lam_lo.re * phi_hi.re
                - lam_lo.im * phi_hi.im;
            signed(self.phase.im, parity) * re
        } else {
            let ph = self.phase * signed(1.0, parity);
            (lam_lo.conj() * (ph * phi_hi) + lam_hi.conj() * (ph * phi_lo)).im
        }
    }

    /// The amplitude's share of `Im⟨λ|P|φ⟩` for a diagonal string.
    #[inline(always)]
    pub fn bracket_diagonal(&self, parity: u64, phi: Complex64, lambda: Complex64) -> f64 {
        signed(lambda.re * phi.im - lambda.im * phi.re, parity)
    }
}

/// A same-mask run applied in program order to one amplitude pair
/// `(a_b, a_{b⊕x})`: bit `k` of `parities` is rotation `k`'s parity at `b`,
/// as [`pauli::flip::for_each_pair`] supplies it. The per-pair body of every
/// fused preparation sweep, full-space or sector.
#[inline(always)]
pub fn rotate_run_pair(
    run: &[PauliRotation],
    parities: u64,
    mut lo: Complex64,
    mut hi: Complex64,
) -> (Complex64, Complex64) {
    for (k, r) in run.iter().enumerate() {
        (lo, hi) = r.rotate_pair((parities >> k) & 1, lo, hi);
    }
    (lo, hi)
}

/// A diagonal run (`x = 0`) applied in program order to one amplitude;
/// `parities` as for [`rotate_run_pair`].
#[inline(always)]
pub fn rotate_run_diagonal(run: &[PauliRotation], parities: u64, a: Complex64) -> Complex64 {
    run.iter()
        .enumerate()
        .fold(a, |a, (k, r)| r.rotate_diagonal((parities >> k) & 1, a))
}

/// One pair's share of the adjoint peel of a run of inverse rotations:
/// walking the run backwards, entry `k` adds its bracket `Im⟨λ|P_k|φ⟩` to
/// `acc[k]` and is then peeled off both `φ` and `λ`. `lo` and `hi` hold
/// `[φ, λ]` at `b` and `b ⊕ x`; `parities` as for [`rotate_run_pair`].
#[inline(always)]
pub fn peel_run_pair(
    run: &[PauliRotation],
    parities: u64,
    acc: &mut [f64],
    lo: [Complex64; 2],
    hi: [Complex64; 2],
) -> ([Complex64; 2], [Complex64; 2]) {
    let [mut phi_lo, mut lam_lo] = lo;
    let [mut phi_hi, mut lam_hi] = hi;
    for (k, r) in run.iter().enumerate().rev() {
        let parity = (parities >> k) & 1;
        acc[k] += r.bracket_pair(parity, (phi_lo, phi_hi), (lam_lo, lam_hi));
        (phi_lo, phi_hi) = r.rotate_pair(parity, phi_lo, phi_hi);
        (lam_lo, lam_hi) = r.rotate_pair(parity, lam_lo, lam_hi);
    }
    ([phi_lo, lam_lo], [phi_hi, lam_hi])
}

/// [`peel_run_pair`] for a diagonal run: one amplitude's `[φ, λ]`.
#[inline(always)]
pub fn peel_run_diagonal(
    run: &[PauliRotation],
    parities: u64,
    acc: &mut [f64],
    state: [Complex64; 2],
) -> [Complex64; 2] {
    let [mut phi, mut lambda] = state;
    for (k, r) in run.iter().enumerate().rev() {
        let parity = (parities >> k) & 1;
        acc[k] += r.bracket_diagonal(parity, phi, lambda);
        phi = r.rotate_diagonal(parity, phi);
        lambda = r.rotate_diagonal(parity, lambda);
    }
    [phi, lambda]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn amp(k: u64) -> Complex64 {
        Complex64::new((k as f64 * 0.37).sin(), (k as f64 * 0.91).cos())
    }

    /// `⟨λ|P|φ⟩` by brute force over the basis, from `P`'s action.
    fn bracket_by_definition(p: &PauliString, phi: &[Complex64], lambda: &[Complex64]) -> f64 {
        let mut acc = Complex64::ZERO;
        for (b, a) in phi.iter().enumerate() {
            let (to, phase) = p.apply_to_basis_state(b as u64);
            acc += lambda[to as usize].conj() * phase * *a;
        }
        acc.im
    }

    #[test]
    fn brackets_sum_to_the_definition_on_every_path() {
        // Odd-Y, even-Y off-diagonal, and diagonal strings.
        for label in ["XYZI", "YZZY", "XXYY", "IXZX", "ZIZZ", "IIII"] {
            let p: PauliString = label.parse().unwrap();
            let r = PauliRotation::new(&p, 0.7);
            let phi: Vec<Complex64> = (0..16).map(amp).collect();
            let lambda: Vec<Complex64> = (0..16).map(|k| amp(k + 40)).collect();
            let (x, z) = (r.x_mask(), r.z_mask());
            let mut got = 0.0;
            pauli::flip::for_each_pair(0, 16, x, &[z], |lo, p| {
                let hi = lo ^ x as usize;
                got += if x == 0 {
                    r.bracket_diagonal(p, phi[lo], lambda[lo])
                } else {
                    r.bracket_pair(p, (phi[lo], phi[hi]), (lambda[lo], lambda[hi]))
                };
            });
            let want = bracket_by_definition(&p, &phi, &lambda);
            assert!((got - want).abs() < 1e-13, "{label}: {got} vs {want}");
        }
    }
}
