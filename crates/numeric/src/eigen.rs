//! Jacobi eigensolver for real symmetric matrices.
//!
//! The Hartree-Fock engine needs full eigendecompositions of overlap and
//! Fock matrices, both symmetric and small (the largest benchmark basis has
//! under two dozen functions). The classic cyclic Jacobi rotation method is
//! simple, unconditionally stable, and more than fast enough at this size.

use crate::matrix::RealMatrix;

/// A full eigendecomposition of a real symmetric matrix.
///
/// Eigenvalues are in ascending order; `vectors.column(k)` (i.e.
/// `vectors[(i, k)]` over `i`) is the unit eigenvector for `values[k]`.
#[derive(Debug, Clone, PartialEq)]
pub struct Eigen {
    /// Ascending eigenvalues.
    pub values: Vec<f64>,
    /// Orthonormal eigenvectors stored as columns.
    pub vectors: RealMatrix,
}

/// Diagonalizes a real symmetric matrix with cyclic Jacobi rotations.
///
/// # Panics
///
/// Panics if `a` is not square or not symmetric to `1e-9`.
///
/// # Examples
///
/// ```
/// use numeric::{jacobi_eigen, RealMatrix};
///
/// let a = RealMatrix::from_vec(2, 2, vec![2.0, 1.0, 1.0, 2.0]);
/// let e = jacobi_eigen(&a);
/// assert!((e.values[0] - 1.0).abs() < 1e-12);
/// assert!((e.values[1] - 3.0).abs() < 1e-12);
/// ```
pub fn jacobi_eigen(a: &RealMatrix) -> Eigen {
    assert_eq!(
        a.rows(),
        a.cols(),
        "eigendecomposition requires a square matrix"
    );
    assert!(
        a.is_symmetric(1e-9),
        "jacobi_eigen requires a symmetric matrix"
    );
    let n = a.rows();
    let mut m = a.clone();
    let mut v = RealMatrix::identity(n);

    let off = |m: &RealMatrix| -> f64 {
        let mut s = 0.0;
        for i in 0..n {
            for j in (i + 1)..n {
                s += m[(i, j)] * m[(i, j)];
            }
        }
        s
    };

    let mut sweeps = 0;
    while off(&m) > 1e-24 && sweeps < 100 {
        sweeps += 1;
        for p in 0..n {
            for q in (p + 1)..n {
                let apq = m[(p, q)];
                if apq.abs() < 1e-300 {
                    continue;
                }
                let app = m[(p, p)];
                let aqq = m[(q, q)];
                let theta = (aqq - app) / (2.0 * apq);
                // Stable computation of tan of the rotation angle.
                let t = theta.signum() / (theta.abs() + (theta * theta + 1.0).sqrt());
                let c = 1.0 / (t * t + 1.0).sqrt();
                let s = t * c;

                for k in 0..n {
                    let mkp = m[(k, p)];
                    let mkq = m[(k, q)];
                    m[(k, p)] = c * mkp - s * mkq;
                    m[(k, q)] = s * mkp + c * mkq;
                }
                for k in 0..n {
                    let mpk = m[(p, k)];
                    let mqk = m[(q, k)];
                    m[(p, k)] = c * mpk - s * mqk;
                    m[(q, k)] = s * mpk + c * mqk;
                }
                for k in 0..n {
                    let vkp = v[(k, p)];
                    let vkq = v[(k, q)];
                    v[(k, p)] = c * vkp - s * vkq;
                    v[(k, q)] = s * vkp + c * vkq;
                }
            }
        }
    }

    // Sort eigenpairs ascending.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&i, &j| m[(i, i)].total_cmp(&m[(j, j)]));
    let values: Vec<f64> = order.iter().map(|&k| m[(k, k)]).collect();
    let vectors = RealMatrix::from_fn(n, n, |i, k| v[(i, order[k])]);
    Eigen { values, vectors }
}

/// Diagonalizes a symmetric tridiagonal matrix given its diagonal and
/// off-diagonal, returning ascending eigenvalues only.
///
/// Expands to a dense matrix and runs [`jacobi_eigen`]: the oracle that
/// [`tridiagonal_lowest_eigenvalue`] is tested against. The Lanczos solver
/// takes its per-step Ritz value from the bisection instead.
///
/// # Panics
///
/// Panics if `offdiag.len() + 1 != diag.len()`.
pub fn tridiagonal_eigenvalues(diag: &[f64], offdiag: &[f64]) -> Vec<f64> {
    tridiagonal_eigen(diag, offdiag).values
}

/// The lowest eigenvalue of a symmetric tridiagonal matrix, by Sturm-count
/// bisection: O(k) per count, no dense matrix.
///
/// The bracket starts at `[min_i (d_i − r_i), min_i d_i]` — Gershgorin
/// below, the Rayleigh quotient of a unit vector above — and is halved
/// until its midpoint no longer lies strictly inside it, so the answer is
/// accurate to a few ulps of ‖T‖. A pivot below `pivmin` counts as
/// negative (LAPACK `dstebz`'s guard), which keeps split matrices (zero
/// off-diagonals) and repeated diagonals safe.
///
/// # Panics
///
/// Panics if `offdiag.len() + 1 != diag.len()`.
///
/// # Examples
///
/// ```
/// use numeric::tridiagonal_lowest_eigenvalue;
///
/// // [[2, 1], [1, 2]] has eigenvalues 1 and 3.
/// let low = tridiagonal_lowest_eigenvalue(&[2.0, 2.0], &[1.0]);
/// assert!((low - 1.0).abs() < 1e-14);
/// ```
pub fn tridiagonal_lowest_eigenvalue(diag: &[f64], offdiag: &[f64]) -> f64 {
    assert_eq!(
        offdiag.len() + 1,
        diag.len(),
        "offdiag must be one shorter than diag"
    );
    let n = diag.len();
    let mut lo = f64::INFINITY;
    let mut hi = f64::INFINITY;
    let mut max_e2 = 0.0f64;
    for (i, &d) in diag.iter().enumerate() {
        let left = if i > 0 { offdiag[i - 1].abs() } else { 0.0 };
        let right = if i + 1 < n { offdiag[i].abs() } else { 0.0 };
        lo = lo.min(d - left - right);
        hi = hi.min(d);
        max_e2 = max_e2.max(right * right);
    }
    let pivmin = f64::MIN_POSITIVE * max_e2.max(1.0);

    // Whether T − x·I has a negative pivot in its LDLᵀ factorization, i.e.
    // whether some eigenvalue lies below x (Sylvester's law of inertia). A
    // pivot under `pivmin` counts as negative, so the division is safe.
    let any_below = |x: f64| {
        let mut q = diag[0] - x;
        for (&d, &e) in diag[1..].iter().zip(offdiag) {
            if q < pivmin {
                return true;
            }
            q = d - x - e * e / q;
        }
        q < pivmin
    };

    loop {
        let mid = 0.5 * (lo + hi);
        if !(mid > lo && mid < hi) {
            return mid;
        }
        if any_below(mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
}

/// Full eigendecomposition of a symmetric tridiagonal matrix (dense
/// expansion; Lanczos subspaces here are small).
///
/// # Panics
///
/// Panics if `offdiag.len() + 1 != diag.len()`.
pub fn tridiagonal_eigen(diag: &[f64], offdiag: &[f64]) -> Eigen {
    assert_eq!(
        offdiag.len() + 1,
        diag.len(),
        "offdiag must be one shorter than diag"
    );
    let n = diag.len();
    let a = RealMatrix::from_fn(n, n, |i, j| {
        if i == j {
            diag[i]
        } else if i + 1 == j || j + 1 == i {
            offdiag[i.min(j)]
        } else {
            0.0
        }
    });
    jacobi_eigen(&a)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reconstruct(e: &Eigen) -> RealMatrix {
        let n = e.values.len();
        RealMatrix::from_fn(n, n, |i, j| {
            (0..n)
                .map(|k| e.vectors[(i, k)] * e.values[k] * e.vectors[(j, k)])
                .sum()
        })
    }

    #[test]
    fn diagonal_matrix_is_its_own_spectrum() {
        let a = RealMatrix::from_vec(3, 3, vec![5.0, 0.0, 0.0, 0.0, -1.0, 0.0, 0.0, 0.0, 2.0]);
        let e = jacobi_eigen(&a);
        assert!((e.values[0] + 1.0).abs() < 1e-12);
        assert!((e.values[1] - 2.0).abs() < 1e-12);
        assert!((e.values[2] - 5.0).abs() < 1e-12);
    }

    #[test]
    fn reconstruction_matches_input() {
        // A well-conditioned symmetric matrix.
        let a = RealMatrix::from_vec(
            4,
            4,
            vec![
                4.0, 1.0, -2.0, 2.0, //
                1.0, 2.0, 0.0, 1.0, //
                -2.0, 0.0, 3.0, -2.0, //
                2.0, 1.0, -2.0, -1.0,
            ],
        );
        let e = jacobi_eigen(&a);
        assert!(reconstruct(&e).max_abs_diff(&a) < 1e-10);
    }

    #[test]
    fn eigenvectors_are_orthonormal() {
        let a = RealMatrix::from_fn(5, 5, |i, j| 1.0 / (1.0 + (i + j) as f64));
        let e = jacobi_eigen(&a);
        let vtv = e.vectors.transpose().mul(&e.vectors);
        assert!(vtv.max_abs_diff(&RealMatrix::identity(5)) < 1e-10);
    }

    #[test]
    fn eigenvalues_sorted_ascending() {
        let a = RealMatrix::from_fn(6, 6, |i, j| ((i * j) as f64).sin());
        let sym = &a + &a.transpose();
        let e = jacobi_eigen(&sym);
        for w in e.values.windows(2) {
            assert!(w[0] <= w[1] + 1e-12);
        }
    }

    #[test]
    fn tridiagonal_matches_dense() {
        let diag = [1.0, 2.0, 3.0, 4.0];
        let off = [0.5, 0.25, 0.125];
        let vals = tridiagonal_eigenvalues(&diag, &off);
        let a = RealMatrix::from_fn(4, 4, |i, j| {
            if i == j {
                diag[i]
            } else if i.abs_diff(j) == 1 {
                off[i.min(j)]
            } else {
                0.0
            }
        });
        let dense = jacobi_eigen(&a).values;
        for (x, y) in vals.iter().zip(&dense) {
            assert!((x - y).abs() < 1e-10);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// The bisection's lowest eigenvalue matches the Jacobi oracle to
        /// 1e-12·max(1, ‖T‖∞) on random tridiagonals from 1×1 up, with
        /// zero off-diagonals (split matrices), repeated diagonals, and
        /// the whole matrix scaled by ±1e6 or 1e-6.
        #[test]
        fn bisection_lowest_eigenvalue_matches_jacobi(
            entries in proptest::collection::vec((-1.0f64..1.0, -1.0f64..1.0, 0u8..4), 1..24),
            scale in 0usize..4,
        ) {
            let scale = [1.0, 1e6, -1e6, 1e-6][scale];
            let mut diag = Vec::with_capacity(entries.len());
            let mut off = Vec::with_capacity(entries.len());
            for (i, &(d, e, kind)) in entries.iter().enumerate() {
                let d = match (kind, diag.last()) {
                    (1, Some(&prev)) => prev, // repeated diagonal
                    _ => d * scale,
                };
                diag.push(d);
                if i > 0 {
                    off.push(if kind == 2 { 0.0 } else { e * scale }); // split
                }
            }
            let norm_inf = (0..diag.len())
                .map(|i| {
                    let left = if i > 0 { off[i - 1].abs() } else { 0.0 };
                    let right = off.get(i).map_or(0.0, |e: &f64| e.abs());
                    diag[i].abs() + left + right
                })
                .fold(0.0f64, f64::max);
            let bisection = tridiagonal_lowest_eigenvalue(&diag, &off);
            let jacobi = tridiagonal_eigenvalues(&diag, &off)[0];
            proptest::prop_assert!(
                (bisection - jacobi).abs() <= 1e-12 * norm_inf.max(1.0),
                "k={}: bisection {} vs Jacobi {}", diag.len(), bisection, jacobi
            );
        }
    }

    #[test]
    #[should_panic]
    fn rejects_asymmetric_input() {
        let a = RealMatrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let _ = jacobi_eigen(&a);
    }
}
