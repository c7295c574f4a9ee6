//! Weighted sums of Pauli strings: Hermitian observables.
//!
//! A molecular Hamiltonian after Jordan–Wigner encoding is exactly such a sum
//! `H = Σ_j w_j P_j` (paper §II-A). This module provides the container plus
//! the numerics the evaluation needs: statevector action, expectation values,
//! and exact full-space ground-state energies through the Lanczos solver.

use std::fmt;
use std::ops::Index;

use numeric::{lanczos_ground_state, Complex64, LanczosOptions};

use crate::flip;
use crate::string::PauliString;

/// The Hilbert-space dimension `2^num_qubits`, with an explicit panic when
/// the shift would overflow `usize` instead of the silent wrap `1 << n` gives.
fn checked_dim(num_qubits: usize) -> usize {
    match 1usize.checked_shl(num_qubits as u32) {
        Some(dim) => dim,
        None => panic!("Pauli-sum dimension 2^{num_qubits} overflows usize on this platform"),
    }
}

/// One term's contribution `w·Re⟨ψ|P|ψ⟩`, accumulated over fixed
/// [`par::DEFAULT_CHUNK`]-sized chunks folded in ascending order. The chunk
/// grid never depends on the thread count, so this returns bit-identical
/// floats whether it runs serially (inside a per-term worker, which is
/// pinned to one thread) or parallelized over chunks on the calling thread.
pub(crate) fn term_expectation(state: &[Complex64], w: f64, p: PauliString) -> f64 {
    let x = p.x_mask();
    let z = p.z_mask();
    let ny = (x & z).count_ones();
    let base = crate::string::Phase::from_power_of_i(ny).to_complex();
    let acc = par::map_reduce(
        state.len(),
        par::DEFAULT_CHUNK,
        Complex64::ZERO,
        |range| {
            let mut acc = Complex64::ZERO;
            for b in range {
                let bu = b as u64;
                let sign = if (bu & z).count_ones().is_multiple_of(2) {
                    1.0
                } else {
                    -1.0
                };
                acc += state[(bu ^ x) as usize].conj() * state[b] * (base * sign);
            }
            acc
        },
        |a, b| a + b,
    );
    w * acc.re
}

/// A weighted sum of Pauli strings, `H = Σ_j w_j P_j`, with real weights.
///
/// Terms with the same string are combined on insertion via [`simplify`];
/// near-zero weights can be pruned. Iteration order is insertion order,
/// which downstream code (ansatz ordering, compiler) relies on.
///
/// [`simplify`]: WeightedPauliSum::simplify
///
/// # Examples
///
/// ```
/// use pauli::{PauliString, WeightedPauliSum};
///
/// // H = 0.5·ZZ − 0.25·XI
/// let mut h = WeightedPauliSum::new(2);
/// h.push(0.5, "ZZ".parse()?);
/// h.push(-0.25, "XI".parse()?);
/// assert_eq!(h.len(), 2);
/// # Ok::<(), pauli::ParsePauliError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct WeightedPauliSum {
    num_qubits: usize,
    terms: Vec<(f64, PauliString)>,
}

impl WeightedPauliSum {
    /// Creates an empty sum on `num_qubits` qubits.
    ///
    /// # Panics
    ///
    /// Panics if `num_qubits` is zero or exceeds 64.
    pub fn new(num_qubits: usize) -> Self {
        assert!((1..=64).contains(&num_qubits), "1..=64 qubits supported");
        WeightedPauliSum {
            num_qubits,
            terms: Vec::new(),
        }
    }

    /// Builds a sum from `(weight, string)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if any string has a different qubit count.
    pub fn from_terms(
        num_qubits: usize,
        terms: impl IntoIterator<Item = (f64, PauliString)>,
    ) -> Self {
        let mut s = WeightedPauliSum::new(num_qubits);
        for (w, p) in terms {
            s.push(w, p);
        }
        s
    }

    /// Appends a term.
    ///
    /// # Panics
    ///
    /// Panics if `string.num_qubits()` differs from the sum's.
    pub fn push(&mut self, weight: f64, string: PauliString) {
        assert_eq!(
            string.num_qubits(),
            self.num_qubits,
            "term qubit count must match the sum"
        );
        self.terms.push((weight, string));
    }

    /// Number of qubits.
    #[inline]
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Number of terms.
    #[inline]
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// Whether the sum has no terms.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// Iterates over `(weight, string)` terms in insertion order.
    pub fn iter(&self) -> std::slice::Iter<'_, (f64, PauliString)> {
        self.terms.iter()
    }

    /// Combines duplicate strings and removes terms with `|w| ≤ tol`.
    pub fn simplify(&mut self, tol: f64) {
        let mut combined: Vec<(f64, PauliString)> = Vec::with_capacity(self.terms.len());
        // Keep first-occurrence order while merging duplicates; the term
        // counts here are a few thousand at most, and order stability
        // matters more than asymptotics.
        for &(w, p) in &self.terms {
            if let Some(entry) = combined.iter_mut().find(|(_, q)| *q == p) {
                entry.0 += w;
            } else {
                combined.push((w, p));
            }
        }
        combined.retain(|(w, _)| w.abs() > tol);
        self.terms = combined;
    }

    /// Sum of absolute weights, an upper bound on the spectral norm.
    pub fn one_norm(&self) -> f64 {
        self.terms.iter().map(|(w, _)| w.abs()).sum()
    }

    /// The weight of the identity term, if present (the constant offset of a
    /// molecular Hamiltonian).
    pub fn identity_weight(&self) -> f64 {
        self.terms
            .iter()
            .filter(|(_, p)| p.is_identity())
            .map(|(w, _)| w)
            .sum()
    }

    /// Applies `H` to a statevector: `out = H·state`, with one pair sweep
    /// per distinct flip mask.
    ///
    /// Terms that share an X mask `x` act on the same amplitude pairs
    /// `{b, b⊕x}` (see [`crate::flip`]). Per pair, the group's weights are
    /// summed with their Z-parity signs in registers: one real coefficient
    /// when every term has an even Y count, plus an imaginary part from the
    /// odd-Y terms otherwise. A diagonal (`x = 0`) group takes one
    /// element-wise sweep. Agrees with [`apply_per_term`](Self::apply_per_term)
    /// to rounding, and is bit-identical at every thread count.
    ///
    /// # Panics
    ///
    /// Panics if the vector lengths are not `2^num_qubits`.
    pub fn apply(&self, state: &[Complex64], out: &mut [Complex64]) {
        FlipGroups::new(self).apply(state, out);
    }

    /// `out = H·state` with one full sweep per term: the reference oracle
    /// that [`apply`](Self::apply) is tested against.
    ///
    /// # Panics
    ///
    /// Panics if the vector lengths are not `2^num_qubits`.
    pub fn apply_per_term(&self, state: &[Complex64], out: &mut [Complex64]) {
        let dim = checked_dim(self.num_qubits);
        assert_eq!(state.len(), dim, "state length must be 2^n");
        assert_eq!(out.len(), dim, "output length must be 2^n");
        out.fill(Complex64::ZERO);
        for &(w, p) in &self.terms {
            let x = p.x_mask();
            let ny = (p.x_mask() & p.z_mask()).count_ones();
            let base = crate::string::Phase::from_power_of_i(ny).to_complex() * w;
            let z = p.z_mask();
            for b in 0..dim as u64 {
                let sign = if (b & z).count_ones().is_multiple_of(2) {
                    1.0
                } else {
                    -1.0
                };
                out[(b ^ x) as usize] += state[b as usize] * (base * sign);
            }
        }
    }

    /// The real expectation value `⟨state|H|state⟩`, with one pair sweep
    /// per distinct flip mask and no output vector.
    ///
    /// Each sweep of [`apply`](Self::apply) sums its group's coefficient
    /// `c(b) = r(b) + i·m(b)` at every pair `{b, b⊕x}`; here the pair adds
    /// `2·Re(conj(ψ_{b⊕x})·c(b)·ψ_b)` to the energy instead of writing
    /// `H|ψ⟩`, and a diagonal sweep adds `d(b)·|ψ_b|²`. Agrees with
    /// [`expectation_per_term`](Self::expectation_per_term) to rounding, and
    /// is bit-identical at every thread count.
    ///
    /// # Panics
    ///
    /// Panics if `state.len() != 2^num_qubits`.
    pub fn expectation(&self, state: &[Complex64]) -> f64 {
        FlipGroups::new(self).expectation(state)
    }

    /// `⟨state|H|state⟩` with one full sweep per term: the reference oracle
    /// that [`expectation`](Self::expectation) is tested against.
    ///
    /// # Panics
    ///
    /// Panics if `state.len() != 2^num_qubits`.
    pub fn expectation_per_term(&self, state: &[Complex64]) -> f64 {
        let dim = checked_dim(self.num_qubits);
        assert_eq!(state.len(), dim, "state length must be 2^n");
        // One term at a time; each term's amplitude sweep parallelizes over
        // its fixed chunk grid, so the sum is identical at any thread count.
        self.terms
            .iter()
            .map(|&(w, p)| term_expectation(state, w, p))
            .sum()
    }

    /// The real expectation value `⟨state|H|state⟩` via commuting-cluster
    /// simultaneous diagonalization: one Clifford rotation per cluster
    /// instead of one amplitude sweep per term (see [`crate::cluster`]).
    ///
    /// Agrees with [`expectation`](Self::expectation) to floating-point
    /// tolerance (the summation order differs). This convenience entry
    /// point rebuilds the cluster partition on every call; loops that
    /// evaluate the same sum repeatedly should hold a
    /// [`ClusteredSum`](crate::ClusteredSum) instead.
    ///
    /// # Panics
    ///
    /// Panics if `state.len() != 2^num_qubits`.
    pub fn expectation_clustered(&self, state: &[Complex64]) -> f64 {
        crate::cluster::ClusteredSum::build(self).expectation(state)
    }

    /// Applies the exact time evolution `|ψ⟩ ← exp(-i·H·t)|ψ⟩` by a
    /// scaled Taylor expansion (sub-stepped so each partial sum converges
    /// rapidly). The reference for validating Trotterized circuits.
    ///
    /// # Panics
    ///
    /// Panics if `state.len() != 2^num_qubits`.
    pub fn evolve_exact(&self, t: f64, state: &mut [Complex64]) {
        let dim = checked_dim(self.num_qubits);
        assert_eq!(state.len(), dim, "state length must be 2^n");
        let norm_bound = self.one_norm().max(1e-12);
        let substeps = (norm_bound * t.abs()).ceil().max(1.0) as usize;
        let dt = t / substeps as f64;

        let mut term = vec![Complex64::ZERO; dim];
        let mut scratch = vec![Complex64::ZERO; dim];
        for _ in 0..substeps {
            // |ψ⟩ ← Σ_k (-i·H·dt)^k / k! |ψ⟩
            term.copy_from_slice(state);
            let mut out: Vec<Complex64> = state.to_vec();
            for k in 1..200 {
                self.apply(&term, &mut scratch);
                let factor = Complex64::new(0.0, -dt) / k as f64;
                for (ti, si) in term.iter_mut().zip(&scratch) {
                    *ti = *si * factor;
                }
                let mut term_norm = 0.0;
                for (oi, ti) in out.iter_mut().zip(&term) {
                    *oi += *ti;
                    term_norm += ti.norm_sqr();
                }
                if term_norm.sqrt() < 1e-15 {
                    break;
                }
            }
            state.copy_from_slice(&out);
        }
    }

    /// The energy variance `⟨H²⟩ − ⟨H⟩²` in a state — zero exactly on
    /// eigenstates, making it an eigenstate witness for variational
    /// results.
    ///
    /// # Panics
    ///
    /// Panics if `state.len() != 2^num_qubits`.
    pub fn variance(&self, state: &[Complex64]) -> f64 {
        let dim = checked_dim(self.num_qubits);
        assert_eq!(state.len(), dim, "state length must be 2^n");
        let mut h_psi = vec![Complex64::ZERO; dim];
        self.apply(state, &mut h_psi);
        let e: f64 = state
            .iter()
            .zip(&h_psi)
            .map(|(a, b)| (a.conj() * *b).re)
            .sum();
        let e2: f64 = h_psi.iter().map(|z| z.norm_sqr()).sum();
        (e2 - e * e).max(0.0)
    }

    /// Exact smallest eigenvalue over the whole `2^n` space, via Lanczos.
    ///
    /// The minimum may lie in any particle-number sector. Molecular
    /// references solve in the N-electron sector instead
    /// ([`SectorOperator`](crate::SectorOperator)); this full-space solve is
    /// the general path (Hubbard, the ADAPT tests) and the sector solve's
    /// oracle.
    /// The computation is deterministic.
    pub fn ground_state_energy(&self) -> f64 {
        let dim = checked_dim(self.num_qubits);
        let groups = FlipGroups::new(self);
        let r = lanczos_ground_state(
            dim,
            |x, y| groups.apply(x, y),
            LanczosOptions::default(),
            0x5eed,
        );
        r.eigenvalue
    }

    /// Exact ground state energy *and* normalized eigenvector.
    pub fn ground_state(&self) -> (f64, Vec<Complex64>) {
        let dim = checked_dim(self.num_qubits);
        let groups = FlipGroups::new(self);
        let (r, v) = numeric::lanczos_ground_state_with_vector(
            dim,
            |x, y| groups.apply(x, y),
            LanczosOptions {
                tol: 1e-12,
                ..Default::default()
            },
            0x5eed,
        );
        (r.eigenvalue, v)
    }

    /// The `k` lowest eigenvalues via Lanczos with deflation
    /// ([`numeric::lanczos_lowest_eigenvalues`]), shifted by ten times the
    /// sum's one-norm.
    ///
    /// Degenerate eigenvalues are returned once per copy (the deflated
    /// operator still contains the remaining degenerate partners).
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero or exceeds the space dimension.
    pub fn lowest_eigenvalues(&self, k: usize) -> Vec<f64> {
        let groups = FlipGroups::new(self);
        numeric::lanczos_lowest_eigenvalues(
            checked_dim(self.num_qubits),
            k,
            10.0 * self.one_norm().max(1.0),
            |x, y| groups.apply(x, y),
            LanczosOptions {
                tol: 1e-12,
                max_iter: 400,
            },
            0x5eed,
        )
    }
}

/// A sum's terms in the order [`WeightedPauliSum::apply`] sweeps them:
/// sorted by flip mask (the diagonal group first) and, within a mask,
/// even-Y terms before odd-Y ones, cut into sweeps of at most
/// [`flip::MAX_MASKS`] terms. Built once per call, or once per solve by the
/// Lanczos entry points.
struct FlipGroups {
    num_qubits: usize,
    /// Per term: its Z mask, and `w` times the sign of `i^#Y`, so that
    /// `w·P|b⟩ = coeff·(i if odd Y)·(−1)^|b∧z|·|b⊕x⟩`.
    zs: Vec<u64>,
    coeffs: Vec<f64>,
    sweeps: Vec<FlipSweep>,
}

/// One sweep: the terms `start..end` of a [`FlipGroups`], all on flip mask
/// `x`, the first `n_even` of them with an even Y count.
struct FlipSweep {
    x: u64,
    start: usize,
    end: usize,
    n_even: usize,
}

impl FlipGroups {
    fn new(sum: &WeightedPauliSum) -> Self {
        let mut terms: Vec<(u64, bool, u64, f64)> = sum
            .terms
            .iter()
            .map(|&(w, p)| {
                let (x, z) = (p.x_mask(), p.z_mask());
                let ny = (x & z).count_ones();
                // i^ny is +1, +i, −1, −i for ny ≡ 0, 1, 2, 3 (mod 4).
                (x, ny % 2 == 1, z, if ny % 4 < 2 { w } else { -w })
            })
            .collect();
        terms.sort_by_key(|&(x, odd_y, _, _)| (x, odd_y));
        let mut sweeps = Vec::new();
        let mut start = 0;
        for group in terms.chunk_by(|a, b| a.0 == b.0) {
            for batch in group.chunks(flip::MAX_MASKS) {
                sweeps.push(FlipSweep {
                    x: batch[0].0,
                    start,
                    end: start + batch.len(),
                    n_even: batch.iter().filter(|t| !t.1).count(),
                });
                start += batch.len();
            }
        }
        FlipGroups {
            num_qubits: sum.num_qubits,
            zs: terms.iter().map(|t| t.2).collect(),
            coeffs: terms.iter().map(|t| t.3).collect(),
            sweeps,
        }
    }

    fn apply(&self, state: &[Complex64], out: &mut [Complex64]) {
        let dim = checked_dim(self.num_qubits);
        assert_eq!(state.len(), dim, "state length must be 2^n");
        assert_eq!(out.len(), dim, "output length must be 2^n");
        // A leading diagonal sweep writes `out`; every other sweep adds.
        let writes_first = self.sweeps.first().is_some_and(|s| s.x == 0);
        if !writes_first {
            out.fill(Complex64::ZERO);
        }
        for (i, sweep) in self.sweeps.iter().enumerate() {
            let zs = &self.zs[sweep.start..sweep.end];
            let (even, odd) = self.coeffs[sweep.start..sweep.end].split_at(sweep.n_even);
            if sweep.x == 0 {
                apply_diagonal(zs, even, i == 0, state, out);
            } else {
                apply_pairs(sweep.x, zs, even, odd, state, out);
            }
        }
    }

    fn expectation(&self, state: &[Complex64]) -> f64 {
        let dim = checked_dim(self.num_qubits);
        assert_eq!(state.len(), dim, "state length must be 2^n");
        // Each sweep folds its chunks in index order, and the sweeps are
        // summed in order: the same bits at every thread count.
        self.sweeps
            .iter()
            .map(|sweep| {
                let zs = &self.zs[sweep.start..sweep.end];
                let (even, odd) = self.coeffs[sweep.start..sweep.end].split_at(sweep.n_even);
                if sweep.x == 0 {
                    diagonal_expectation(zs, even, state)
                } else {
                    pair_expectation(sweep.x, zs, even, odd, state)
                }
            })
            .sum()
    }
}

/// `Σ_b d(b)·|ψ_b|²` for a diagonal sweep, skipping zero amplitudes.
fn diagonal_expectation(zs: &[u64], coeffs: &[f64], state: &[Complex64]) -> f64 {
    par::map_reduce(
        state.len(),
        flip::chunk_len(0),
        0.0,
        |range| {
            let state = &state[range.clone()];
            let mut acc = 0.0;
            flip::for_each_pair(range.start, range.len(), 0, zs, |b, mut p| {
                if !state[b].is_zero() {
                    acc += signed_sum(coeffs, &mut p) * state[b].norm_sqr();
                }
            });
            acc
        },
        |a, b| a + b,
    )
}

/// `Σ_pairs 2·Re(conj(ψ_hi)·c(lo)·ψ_lo)` for a sweep on flip mask `x ≠ 0`,
/// with `c = r + i·m` as in [`apply_pairs`]: the pair's two entries of
/// `⟨ψ|G|ψ⟩` are complex conjugates. A pair whose two members are zero
/// adds exactly nothing and is skipped.
fn pair_expectation(x: u64, zs: &[u64], even: &[f64], odd: &[f64], state: &[Complex64]) -> f64 {
    let xs = x as usize;
    let acc = par::map_reduce(
        state.len(),
        flip::chunk_len(x),
        0.0,
        |range| {
            let state = &state[range.clone()];
            let mut acc = 0.0;
            flip::for_each_pair(range.start, range.len(), x, zs, |lo, mut p| {
                let (a, b) = (state[lo], state[lo ^ xs]);
                // A pair of zeros adds nothing. One zero member adds ±0,
                // which leaves the accumulator's bits alone (it starts at
                // +0 and never reaches −0), so the pair is still read: a
                // NaN or ∞ partner must reach the energy.
                if a.is_zero() && b.is_zero() {
                    return;
                }
                // conj(ψ_hi)·ψ_lo = re + i·im.
                let re = b.re * a.re + b.im * a.im;
                let r = signed_sum(even, &mut p);
                if odd.is_empty() {
                    acc += r * re;
                } else {
                    let im = b.re * a.im - b.im * a.re;
                    acc += r * re - signed_sum(odd, &mut p) * im;
                }
            });
            acc
        },
        |a, b| a + b,
    );
    2.0 * acc
}

/// `Σ_j (−1)^(bit j of parities)·coeffs[j]`, consuming one parity bit per
/// coefficient.
#[inline(always)]
fn signed_sum(coeffs: &[f64], parities: &mut u64) -> f64 {
    coeffs.iter().fold(0.0, |acc, &c| {
        let term = flip::signed(c, *parities & 1);
        *parities >>= 1;
        acc + term
    })
}

/// `out[b] (=|+=) d(b)·state[b]` for a diagonal sweep, `d(b)` its
/// sign-weighted coefficient sum. A zero `state[b]` skips the arithmetic
/// but still stores (or adds) its zero, so the writing sweep leaves no
/// stale entry.
fn apply_diagonal(
    zs: &[u64],
    coeffs: &[f64],
    write: bool,
    state: &[Complex64],
    out: &mut [Complex64],
) {
    par::for_each_chunk_mut(out, flip::chunk_len(0), |offset, out| {
        let state = &state[offset..offset + out.len()];
        flip::for_each_pair(offset, out.len(), 0, zs, |b, mut p| {
            let v = if state[b].is_zero() {
                Complex64::ZERO
            } else {
                state[b] * signed_sum(coeffs, &mut p)
            };
            if write {
                out[b] = v;
            } else {
                out[b] += v;
            }
        });
    });
}

/// `out += G·state` for a sweep on flip mask `x ≠ 0`. With
/// `c(b) = r(b) + i·m(b)` summed over the even (`r`) and odd (`m`) terms,
/// the group maps `a_b ↦ c(b)·a_b` into `b⊕x`, and since an odd Y count
/// flips the parity sign across the pair, `c(b⊕x) = r(b) − i·m(b)`. A pair
/// whose two inputs are zero adds nothing and is skipped.
fn apply_pairs(
    x: u64,
    zs: &[u64],
    even: &[f64],
    odd: &[f64],
    state: &[Complex64],
    out: &mut [Complex64],
) {
    let xs = x as usize;
    par::for_each_chunk_mut(out, flip::chunk_len(x), |offset, out| {
        let state = &state[offset..offset + out.len()];
        flip::for_each_pair(offset, out.len(), x, zs, |lo, mut p| {
            let hi = lo ^ xs;
            if state[lo].is_zero() && state[hi].is_zero() {
                return;
            }
            let r = signed_sum(even, &mut p);
            if odd.is_empty() {
                out[hi] += state[lo] * r;
                out[lo] += state[hi] * r;
            } else {
                let m = signed_sum(odd, &mut p);
                out[hi] += state[lo] * Complex64::new(r, m);
                out[lo] += state[hi] * Complex64::new(r, -m);
            }
        });
    });
}

impl Index<usize> for WeightedPauliSum {
    type Output = (f64, PauliString);
    fn index(&self, i: usize) -> &(f64, PauliString) {
        &self.terms[i]
    }
}

impl Extend<(f64, PauliString)> for WeightedPauliSum {
    fn extend<T: IntoIterator<Item = (f64, PauliString)>>(&mut self, iter: T) {
        for (w, p) in iter {
            self.push(w, p);
        }
    }
}

impl<'a> IntoIterator for &'a WeightedPauliSum {
    type Item = &'a (f64, PauliString);
    type IntoIter = std::slice::Iter<'a, (f64, PauliString)>;
    fn into_iter(self) -> Self::IntoIter {
        self.terms.iter()
    }
}

impl fmt::Display for WeightedPauliSum {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, (w, p)) in self.terms.iter().enumerate() {
            if i > 0 {
                write!(f, " + ")?;
            }
            write!(f, "{w:+.6}·{p}")?;
        }
        if self.terms.is_empty() {
            write!(f, "0")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn basis_state(n: usize, b: usize) -> Vec<Complex64> {
        let mut v = vec![Complex64::ZERO; 1 << n];
        v[b] = Complex64::ONE;
        v
    }

    #[test]
    fn expectation_of_z_on_basis_states() {
        let mut h = WeightedPauliSum::new(1);
        h.push(1.0, "Z".parse().unwrap());
        assert!((h.expectation(&basis_state(1, 0)) - 1.0).abs() < 1e-15);
        assert!((h.expectation(&basis_state(1, 1)) + 1.0).abs() < 1e-15);
    }

    #[test]
    fn expectation_of_x_on_plus_state() {
        let mut h = WeightedPauliSum::new(1);
        h.push(2.0, "X".parse().unwrap());
        let s = 1.0 / 2f64.sqrt();
        let plus = vec![Complex64::from_real(s), Complex64::from_real(s)];
        assert!((h.expectation(&plus) - 2.0).abs() < 1e-14);
        let minus = vec![Complex64::from_real(s), Complex64::from_real(-s)];
        assert!((h.expectation(&minus) + 2.0).abs() < 1e-14);
    }

    #[test]
    fn apply_matches_expectation() {
        // ⟨ψ|H|ψ⟩ computed via apply must agree with expectation().
        let mut h = WeightedPauliSum::new(2);
        h.push(0.3, "ZZ".parse().unwrap());
        h.push(-0.7, "XY".parse().unwrap());
        h.push(0.1, "IX".parse().unwrap());
        let state: Vec<Complex64> = (0..4)
            .map(|k| Complex64::new((k as f64 * 0.9).cos(), (k as f64 * 0.4).sin()))
            .collect();
        let nrm = state.iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt();
        let state: Vec<Complex64> = state.into_iter().map(|z| z / nrm).collect();
        let mut hs = vec![Complex64::ZERO; 4];
        h.apply(&state, &mut hs);
        let direct: Complex64 = state.iter().zip(&hs).map(|(a, b)| a.conj() * *b).sum();
        assert!((direct.re - h.expectation(&state)).abs() < 1e-13);
        assert!(direct.im.abs() < 1e-13);
    }

    #[test]
    fn simplify_merges_and_prunes() {
        let mut h = WeightedPauliSum::new(2);
        h.push(0.5, "ZZ".parse().unwrap());
        h.push(0.5, "ZZ".parse().unwrap());
        h.push(1e-14, "XX".parse().unwrap());
        h.simplify(1e-12);
        assert_eq!(h.len(), 1);
        assert!((h[0].0 - 1.0).abs() < 1e-15);
    }

    #[test]
    fn ground_state_of_simple_ising_pair() {
        // H = -Z0·Z1 has ground energy -1 (degenerate |00>, |11>).
        let mut h = WeightedPauliSum::new(2);
        h.push(-1.0, "ZZ".parse().unwrap());
        assert!((h.ground_state_energy() + 1.0).abs() < 1e-9);
    }

    #[test]
    fn ground_state_of_transverse_field() {
        // H = -X on one qubit: eigenvalues ±1, ground = -1.
        let mut h = WeightedPauliSum::new(1);
        h.push(-1.0, "X".parse().unwrap());
        assert!((h.ground_state_energy() + 1.0).abs() < 1e-9);
        // H = Z + X: eigenvalues ±√2.
        let mut h2 = WeightedPauliSum::new(1);
        h2.push(1.0, "Z".parse().unwrap());
        h2.push(1.0, "X".parse().unwrap());
        assert!((h2.ground_state_energy() + 2f64.sqrt()).abs() < 1e-9);
    }

    #[test]
    fn lowest_eigenvalues_of_known_spectrum() {
        // H = Z0 + 2·Z1 on 2 qubits: spectrum {-3, -1, 1, 3}.
        let mut h = WeightedPauliSum::new(2);
        h.push(1.0, "IZ".parse().unwrap());
        h.push(2.0, "ZI".parse().unwrap());
        let vals = h.lowest_eigenvalues(3);
        let expected = [-3.0, -1.0, 1.0];
        for (v, e) in vals.iter().zip(&expected) {
            assert!((v - e).abs() < 1e-7, "{v} vs {e}");
        }
    }

    #[test]
    fn ground_state_vector_has_correct_energy() {
        let mut h = WeightedPauliSum::new(2);
        h.push(-1.0, "ZZ".parse().unwrap());
        h.push(0.5, "XI".parse().unwrap());
        let (e, v) = h.ground_state();
        assert!((h.expectation(&v) - e).abs() < 1e-8);
        let norm: f64 = v.iter().map(|z| z.norm_sqr()).sum();
        assert!((norm - 1.0).abs() < 1e-10);
    }

    #[test]
    fn exact_evolution_matches_single_term_formula() {
        // For a single Pauli term, exp(-i·w·t·P) has the closed form
        // cos(wt)·I − i·sin(wt)·P.
        let mut h = WeightedPauliSum::new(2);
        h.push(0.7, "XY".parse().unwrap());
        let mut state = vec![Complex64::ZERO; 4];
        state[0b01] = Complex64::ONE;
        let mut evolved = state.clone();
        h.evolve_exact(0.9, &mut evolved);

        let (w, p) = h[0];
        let angle = w * 0.9;
        let mut expected = vec![Complex64::ZERO; 4];
        let (flip, phase) = p.apply_to_basis_state(0b01);
        expected[0b01] = Complex64::from_real(angle.cos());
        expected[flip as usize] += Complex64::new(0.0, -angle.sin()) * phase;
        for (a, b) in evolved.iter().zip(&expected) {
            assert!(a.approx_eq(*b, 1e-12), "{a} vs {b}");
        }
    }

    #[test]
    fn exact_evolution_is_unitary_and_conserves_energy() {
        let mut h = WeightedPauliSum::new(3);
        h.push(0.5, "ZZI".parse().unwrap());
        h.push(-0.3, "IXX".parse().unwrap());
        h.push(0.2, "YIY".parse().unwrap());
        let mut state: Vec<Complex64> = (0..8)
            .map(|k| Complex64::new(1.0 + k as f64, 0.5 * k as f64))
            .collect();
        let norm = state.iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt();
        for z in &mut state {
            *z = *z / norm;
        }
        let e_before = h.expectation(&state);
        h.evolve_exact(2.3, &mut state);
        let norm_after = state.iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt();
        assert!((norm_after - 1.0).abs() < 1e-10);
        assert!(
            (h.expectation(&state) - e_before).abs() < 1e-10,
            "energy drift"
        );
    }

    #[test]
    fn forward_backward_evolution_round_trips() {
        let mut h = WeightedPauliSum::new(2);
        h.push(1.1, "XZ".parse().unwrap());
        h.push(-0.4, "ZX".parse().unwrap());
        let mut state = vec![Complex64::ZERO; 4];
        state[2] = Complex64::ONE;
        let original = state.clone();
        h.evolve_exact(1.7, &mut state);
        h.evolve_exact(-1.7, &mut state);
        for (a, b) in state.iter().zip(&original) {
            assert!(a.approx_eq(*b, 1e-10));
        }
    }

    #[test]
    fn identity_weight_and_one_norm() {
        let mut h = WeightedPauliSum::new(2);
        h.push(-3.5, PauliString::identity(2));
        h.push(1.0, "ZI".parse().unwrap());
        assert_eq!(h.identity_weight(), -3.5);
        assert_eq!(h.one_norm(), 4.5);
    }

    #[test]
    fn display_formats_terms() {
        let mut h = WeightedPauliSum::new(2);
        h.push(0.5, "ZZ".parse().unwrap());
        assert_eq!(h.to_string(), "+0.500000·ZZ");
        assert_eq!(WeightedPauliSum::new(1).to_string(), "0");
    }

    fn random_state(n: usize, seed: u64) -> Vec<Complex64> {
        let mut s = seed | 1;
        let mut next = || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        (0..1usize << n)
            .map(|_| Complex64::new(next(), next()))
            .collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        /// The grouped `apply` agrees with the per-term oracle on random
        /// sums mixing odd-Y (imaginary-phase), even-Y, diagonal, identity
        /// and duplicate-mask terms. Up to 90 terms on at most 7 qubits
        /// also forces groups past one 64-term sweep.
        #[test]
        fn grouped_apply_matches_per_term_on_random_sums(
            n in 1usize..8,
            state_seed in 1u64..u64::MAX,
            terms in proptest::collection::vec(
                (0u64..u64::MAX, 0u64..u64::MAX, -2.0f64..2.0, 0u8..4),
                1..90,
            ),
        ) {
            let full = (1u64 << n) - 1;
            let mut h = WeightedPauliSum::new(n);
            let mut last_x = 0;
            for &(xr, zr, w, kind) in &terms {
                let (x, z) = match kind {
                    0 => (xr & full, zr & full), // any Y parity
                    1 => (0, zr & full),         // diagonal
                    2 => (0, 0),                 // identity
                    _ => (last_x, zr & full),    // the previous term's mask
                };
                last_x = x;
                h.push(w, PauliString::from_symplectic(n, x, z));
            }
            let state = random_state(n, state_seed);
            let mut grouped = vec![Complex64::ZERO; 1 << n];
            let mut per_term = vec![Complex64::ZERO; 1 << n];
            h.apply(&state, &mut grouped);
            h.apply_per_term(&state, &mut per_term);
            for (b, (g, r)) in grouped.iter().zip(&per_term).enumerate() {
                proptest::prop_assert!(
                    g.approx_eq(*r, 1e-12),
                    "n={} b={}: grouped {} vs per-term {}", n, b, g, r
                );
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        /// The fused `expectation` agrees with the per-term oracle within
        /// 1e-12·‖H‖₁ on random sums mixing odd-Y, even-Y, diagonal,
        /// identity and duplicate-mask terms, plus a burst of up to 140
        /// terms on one mask (past two 64-term sweeps).
        #[test]
        fn fused_expectation_matches_per_term_on_random_sums(
            n in 1usize..9,
            state_seed in 1u64..u64::MAX,
            terms in proptest::collection::vec(
                (0u64..u64::MAX, 0u64..u64::MAX, -2.0f64..2.0, 0u8..4),
                1..90,
            ),
            burst_x in 0u64..u64::MAX,
            burst in proptest::collection::vec((0u64..u64::MAX, -2.0f64..2.0), 0..140),
        ) {
            let full = (1u64 << n) - 1;
            let mut h = WeightedPauliSum::new(n);
            let mut last_x = 0;
            for &(xr, zr, w, kind) in &terms {
                let (x, z) = match kind {
                    0 => (xr & full, zr & full), // any Y parity
                    1 => (0, zr & full),         // diagonal
                    2 => (0, 0),                 // identity
                    _ => (last_x, zr & full),    // the previous term's mask
                };
                last_x = x;
                h.push(w, PauliString::from_symplectic(n, x, z));
            }
            for &(zr, w) in &burst {
                h.push(w, PauliString::from_symplectic(n, burst_x & full, zr & full));
            }
            let state = random_state(n, state_seed);
            let norm = state.iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt();
            let state: Vec<Complex64> = state.into_iter().map(|z| z / norm).collect();
            let fused = h.expectation(&state);
            let per_term = h.expectation_per_term(&state);
            proptest::prop_assert!(
                (fused - per_term).abs() <= 1e-12 * h.one_norm(),
                "n={}: fused {} vs per-term {}", n, fused, per_term
            );
        }
    }

    #[test]
    #[should_panic]
    fn push_rejects_mismatched_width() {
        let mut h = WeightedPauliSum::new(2);
        h.push(1.0, "ZZZ".parse().unwrap());
    }
}
