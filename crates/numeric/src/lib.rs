//! Dense numerical substrate for the `pauli-codesign` workspace.
//!
//! The workspace is restricted to a small set of offline dependencies, so the
//! linear algebra every other crate needs is implemented here from scratch:
//!
//! * [`Complex64`] — a minimal complex scalar with the arithmetic, norms and
//!   exponentials used by statevector and density-matrix simulation;
//! * [`RealMatrix`] — a dense row-major real matrix with the products,
//!   solvers and decompositions used by the Hartree-Fock engine;
//! * [`eigen`] — a Jacobi eigensolver for real symmetric matrices (Fock and
//!   overlap matrices are tiny: ≤ ~20×20 for our benchmark set);
//! * [`lanczos`] — a Lanczos solver for large implicit Hermitian operators:
//!   ground states and, by deflation, the low spectrum (exact molecular
//!   references in the N-electron sector, and the full 2ⁿ space as oracle);
//! * [`linsolve`] — LU factorization with partial pivoting (DIIS
//!   extrapolation, quasi-Newton subproblems).
//!
//! # Examples
//!
//! ```
//! use numeric::{Complex64, RealMatrix};
//!
//! let i = Complex64::I;
//! assert_eq!(i * i, Complex64::new(-1.0, 0.0));
//!
//! let a = RealMatrix::identity(3);
//! assert_eq!(a.mul(&a), a);
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod complex;
pub mod eigen;
pub mod lanczos;
pub mod linsolve;
pub mod matrix;

pub use complex::Complex64;
pub use eigen::{jacobi_eigen, tridiagonal_eigen, tridiagonal_eigenvalues, Eigen};
pub use lanczos::{
    lanczos_ground_state, lanczos_ground_state_with_vector, lanczos_lowest_eigenvalues,
    LanczosOptions, LanczosResult,
};
pub use linsolve::{lu_solve, LinSolveError};
pub use matrix::RealMatrix;
