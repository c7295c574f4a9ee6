//! Lanczos ground-state solver for implicit Hermitian operators.
//!
//! The paper's reference energies ("Ground State" in Fig 9) are the lowest
//! eigenvalues of molecular qubit Hamiltonians restricted to their
//! N-electron sector: a few hundred to a few thousand basis states for
//! Table I, held as a sparse matrix (`pauli::sector`). The same solver
//! also runs on the whole 2ⁿ Fock space, up to 2¹⁶ dimensions, through a
//! sum of Pauli-string actions — the general path and the sector's oracle.
//! Either way the operator is only available as a matrix-vector product,
//! which is exactly the Lanczos access pattern.
//!
//! Full reorthogonalization is used: subspace dimensions stay small (≤ a few
//! hundred), so the O(k²·n) cost is small next to the matvec and it removes
//! the classic ghost-eigenvalue failure mode. Each step's lowest Ritz value
//! comes from a Sturm bisection of the tridiagonal
//! ([`tridiagonal_lowest_eigenvalue`], O(k) per probe), so no step
//! diagonalizes a dense matrix; only a caller that wants the Ritz vector
//! pays for one [`tridiagonal_eigen`] at the end.
//! [`lanczos_lowest_eigenvalues`] reaches the low spectrum by deflation,
//! one ground-state solve per level.

use crate::complex::Complex64;
use crate::eigen::{tridiagonal_eigen, tridiagonal_lowest_eigenvalue};

/// Options controlling [`lanczos_ground_state`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LanczosOptions {
    /// Maximum Krylov subspace dimension.
    pub max_iter: usize,
    /// Convergence threshold on the change of the smallest Ritz value
    /// between iterations.
    pub tol: f64,
}

impl Default for LanczosOptions {
    fn default() -> Self {
        LanczosOptions {
            max_iter: 300,
            tol: 1e-10,
        }
    }
}

/// Result of a Lanczos ground-state computation.
#[derive(Debug, Clone, PartialEq)]
pub struct LanczosResult {
    /// The converged smallest eigenvalue estimate.
    pub eigenvalue: f64,
    /// Number of Lanczos iterations performed.
    pub iterations: usize,
    /// Whether the tolerance was met before `max_iter`.
    pub converged: bool,
}

fn dot(a: &[Complex64], b: &[Complex64]) -> Complex64 {
    a.iter().zip(b).map(|(x, y)| x.conj() * *y).sum()
}

fn norm(a: &[Complex64]) -> f64 {
    a.iter().map(|x| x.norm_sqr()).sum::<f64>().sqrt()
}

/// Computes the smallest eigenvalue of a Hermitian operator given only its
/// action `apply(input, output)` on complex vectors of dimension `dim`.
///
/// `seed` deterministically selects the (pseudo-random) start vector so runs
/// are reproducible.
///
/// # Panics
///
/// Panics if `dim == 0`.
///
/// # Examples
///
/// ```
/// use numeric::{lanczos_ground_state, Complex64, LanczosOptions};
///
/// // Diagonal operator with spectrum {-2, 1, 3, 7}.
/// let diag = [-2.0, 1.0, 3.0, 7.0];
/// let r = lanczos_ground_state(
///     4,
///     |x, y| {
///         for i in 0..4 {
///             y[i] = x[i] * diag[i];
///         }
///     },
///     LanczosOptions::default(),
///     1,
/// );
/// assert!((r.eigenvalue + 2.0).abs() < 1e-9);
/// ```
pub fn lanczos_ground_state(
    dim: usize,
    apply: impl FnMut(&[Complex64], &mut [Complex64]),
    options: LanczosOptions,
    seed: u64,
) -> LanczosResult {
    krylov(dim, apply, options, seed).result
}

/// [`lanczos_ground_state`] variant that also reconstructs the converged
/// Ritz vector (normalized ground-state approximation).
///
/// # Panics
///
/// Panics if `dim == 0`.
pub fn lanczos_ground_state_with_vector(
    dim: usize,
    apply: impl FnMut(&[Complex64], &mut [Complex64]),
    options: LanczosOptions,
    seed: u64,
) -> (LanczosResult, Vec<Complex64>) {
    let k = krylov(dim, apply, options, seed);
    let vector = ritz_vector(&k.basis, &k.alphas, &k.betas, dim);
    (k.result, vector)
}

/// The Krylov basis and tridiagonal `(alphas, betas)` a Lanczos run ended
/// with (`betas` one shorter than `alphas`), and its result.
struct Krylov {
    basis: Vec<Vec<Complex64>>,
    alphas: Vec<f64>,
    betas: Vec<f64>,
    result: LanczosResult,
}

/// The Lanczos iteration shared by both ground-state entry points. Each
/// step's lowest Ritz value comes from [`tridiagonal_lowest_eigenvalue`]
/// (bisection, O(k) per Sturm count); the Ritz vector is left to the
/// caller that wants it.
fn krylov(
    dim: usize,
    mut apply: impl FnMut(&[Complex64], &mut [Complex64]),
    options: LanczosOptions,
    seed: u64,
) -> Krylov {
    assert!(dim > 0, "operator dimension must be positive");

    // Deterministic, cheap start vector (xorshift on the seed).
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1);
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state as f64 / u64::MAX as f64) - 0.5
    };
    let mut v: Vec<Complex64> = (0..dim).map(|_| Complex64::new(next(), next())).collect();
    let n0 = norm(&v);
    for x in &mut v {
        *x = *x / n0;
    }

    let max_iter = options.max_iter.min(dim);
    let mut basis: Vec<Vec<Complex64>> = Vec::with_capacity(max_iter);
    let mut alphas: Vec<f64> = Vec::with_capacity(max_iter);
    let mut betas: Vec<f64> = Vec::with_capacity(max_iter);
    let mut w = vec![Complex64::ZERO; dim];
    let mut prev_ritz = f64::INFINITY;

    for it in 0..max_iter {
        basis.push(v.clone());
        apply(&v, &mut w);

        let alpha = dot(&v, &w).re;
        alphas.push(alpha);

        // w -= alpha * v (+ beta * v_prev implicitly handled by reorthogonalization)
        for (wi, vi) in w.iter_mut().zip(&v) {
            *wi -= *vi * alpha;
        }
        // Full reorthogonalization against all previous basis vectors, twice
        // for numerical safety.
        for _ in 0..2 {
            for b in &basis {
                let c = dot(b, &w);
                if c.norm() > 0.0 {
                    for (wi, bi) in w.iter_mut().zip(b) {
                        *wi -= *bi * c;
                    }
                }
            }
        }

        let beta = norm(&w);
        let ritz = tridiagonal_lowest_eigenvalue(&alphas, &betas);

        if (prev_ritz - ritz).abs() < options.tol || beta < 1e-13 {
            return Krylov {
                basis,
                alphas,
                betas,
                result: LanczosResult {
                    eigenvalue: ritz,
                    iterations: it + 1,
                    converged: true,
                },
            };
        }
        prev_ritz = ritz;
        betas.push(beta);
        for (vi, wi) in v.iter_mut().zip(&w) {
            *vi = *wi / beta;
        }
    }

    // betas has one more entry than the final subspace uses; trim it.
    betas.truncate(alphas.len() - 1);
    Krylov {
        basis,
        alphas,
        betas,
        result: LanczosResult {
            eigenvalue: prev_ritz,
            iterations: max_iter,
            converged: false,
        },
    }
}

/// The `k` lowest eigenvalues of a Hermitian operator, by Lanczos with
/// deflation: each found Ritz vector `v` is pushed up by `shift·|v⟩⟨v|`
/// before the next solve, and round `r` starts from seed `seed + r`.
///
/// `shift` must exceed the operator's spectral width, so that a deflated
/// vector never returns as the lowest. Degenerate eigenvalues are returned
/// once per copy: the deflated operator still holds the remaining partners.
///
/// # Panics
///
/// Panics if `k` is zero or exceeds `dim`.
///
/// # Examples
///
/// ```
/// use numeric::{lanczos_lowest_eigenvalues, Complex64, LanczosOptions};
///
/// let diag = [3.0, -2.0, 7.0, 1.0];
/// let values = lanczos_lowest_eigenvalues(
///     4,
///     3,
///     100.0,
///     |x, y| {
///         for i in 0..4 {
///             y[i] = x[i] * diag[i];
///         }
///     },
///     LanczosOptions::default(),
///     1,
/// );
/// for (got, want) in values.iter().zip([-2.0, 1.0, 3.0]) {
///     assert!((got - want).abs() < 1e-8);
/// }
/// ```
pub fn lanczos_lowest_eigenvalues(
    dim: usize,
    k: usize,
    shift: f64,
    mut apply: impl FnMut(&[Complex64], &mut [Complex64]),
    options: LanczosOptions,
    seed: u64,
) -> Vec<f64> {
    assert!(k >= 1 && k <= dim, "k must be in 1..=dim");
    let mut deflated: Vec<Vec<Complex64>> = Vec::new();
    let mut values = Vec::with_capacity(k);
    for round in 0..k {
        let (r, v) = lanczos_ground_state_with_vector(
            dim,
            |x, y| {
                apply(x, y);
                // + shift · Σ_j |v_j⟩⟨v_j| x
                for vj in &deflated {
                    let overlap = dot(vj, x);
                    for (yi, vi) in y.iter_mut().zip(vj) {
                        *yi += *vi * overlap * shift;
                    }
                }
            },
            options,
            seed + round as u64,
        );
        values.push(r.eigenvalue);
        deflated.push(v);
    }
    values
}

/// Reconstructs the lowest Ritz vector `Σ_k y_k·b_k` from the Krylov basis
/// and the tridiagonal eigenproblem.
fn ritz_vector(
    basis: &[Vec<Complex64>],
    alphas: &[f64],
    betas: &[f64],
    dim: usize,
) -> Vec<Complex64> {
    let eig = tridiagonal_eigen(alphas, betas);
    let mut out = vec![Complex64::ZERO; dim];
    for (k, b) in basis.iter().enumerate() {
        let y = eig.vectors[(k, 0)];
        for (o, x) in out.iter_mut().zip(b) {
            *o += *x * y;
        }
    }
    let n = norm(&out).max(1e-300);
    for o in &mut out {
        *o = *o / n;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eigen::jacobi_eigen;
    use crate::matrix::RealMatrix;

    #[test]
    fn diagonal_operator_ground_state() {
        let diag: Vec<f64> = (0..64).map(|i| (i as f64) * 0.5 - 10.0).collect();
        let r = lanczos_ground_state(
            64,
            |x, y| {
                for i in 0..64 {
                    y[i] = x[i] * diag[i];
                }
            },
            LanczosOptions::default(),
            7,
        );
        assert!(r.converged);
        assert!((r.eigenvalue + 10.0).abs() < 1e-8, "got {}", r.eigenvalue);
    }

    #[test]
    fn matches_dense_jacobi_on_symmetric_matrix() {
        let n = 24;
        let a = {
            let raw = RealMatrix::from_fn(n, n, |i, j| ((i * 7 + j * 3) as f64).sin());
            &raw + &raw.transpose()
        };
        let dense_min = jacobi_eigen(&a).values[0];
        let r = lanczos_ground_state(
            n,
            |x, y| {
                for i in 0..n {
                    let mut acc = Complex64::ZERO;
                    for j in 0..n {
                        acc += x[j] * a[(i, j)];
                    }
                    y[i] = acc;
                }
            },
            LanczosOptions::default(),
            3,
        );
        assert!((r.eigenvalue - dense_min).abs() < 1e-8);
    }

    #[test]
    fn exact_subspace_termination() {
        // Rank-deficient operator: Lanczos must stop early without panicking.
        let r = lanczos_ground_state(
            16,
            |x, y| {
                for (i, out) in y.iter_mut().enumerate().take(16) {
                    *out = if i == 0 { x[0] * 5.0 } else { Complex64::ZERO };
                }
            },
            LanczosOptions::default(),
            11,
        );
        assert!(r.converged);
        // Spectrum is {5, 0, ..., 0}; ground state is 0.
        assert!(r.eigenvalue.abs() < 1e-9);
    }

    #[test]
    fn ritz_vector_is_an_eigenvector() {
        let diag: Vec<f64> = (0..32).map(|i| (i as f64) - 7.5).collect();
        let (r, v) = lanczos_ground_state_with_vector(
            32,
            |x, y| {
                for i in 0..32 {
                    y[i] = x[i] * diag[i];
                }
            },
            LanczosOptions {
                tol: 1e-14,
                ..Default::default()
            },
            5,
        );
        assert!(r.converged);
        // Residual ‖Hv − λv‖ must be small (the vector converges as the
        // square root of the eigenvalue error).
        let mut hv = vec![Complex64::ZERO; 32];
        for i in 0..32 {
            hv[i] = v[i] * diag[i];
        }
        let res: f64 = hv
            .iter()
            .zip(&v)
            .map(|(a, b)| (*a - *b * r.eigenvalue).norm_sqr())
            .sum::<f64>()
            .sqrt();
        assert!(res < 1e-5, "residual {res}");
        let n: f64 = v.iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt();
        assert!((n - 1.0).abs() < 1e-10);
    }

    #[test]
    fn deterministic_across_same_seed() {
        let f = |seed| {
            lanczos_ground_state(
                32,
                |x, y| {
                    for i in 0..32 {
                        y[i] = x[i] * ((i % 5) as f64);
                    }
                },
                LanczosOptions::default(),
                seed,
            )
            .eigenvalue
        };
        assert_eq!(f(42), f(42));
    }
}
