//! Pauli strings — the paper's central abstraction layer.
//!
//! The ISCA 2021 co-design coordinates algorithm, compiler, and hardware
//! optimizations through *Pauli strings*: tensor products of the single-qubit
//! operators `I`, `X`, `Y`, `Z`. This crate provides
//!
//! * [`Pauli`] — the single-qubit operator alphabet;
//! * [`PauliString`] — an n-qubit string in compact symplectic form, with the
//!   group algebra (products, commutation, phases);
//! * [`WeightedPauliSum`] — weighted sums of Pauli strings, i.e. Hermitian
//!   observables such as molecular Hamiltonians, with fast statevector
//!   action, expectation values, and exact full-space ground states via
//!   Lanczos;
//! * [`flip`] — the amplitude pairs `{b, b⊕x}` that every string with X
//!   mask `x` acts on: the sweep structure of the grouped `H|ψ⟩` and of the
//!   fused VQE inner loop;
//! * [`sector`] — one particle-number sector of a number-conserving sum:
//!   [`SectorBasis`] ranks its basis states, [`SectorOperator`] holds the
//!   sum's block as a real sparse matrix for the exact N-electron reference;
//! * [`ClusteredSum`] — the same sum partitioned into general-commuting
//!   clusters, each simultaneously diagonalized by one Clifford circuit,
//!   with a fused diagonal-frame expectation evaluator.
//!
//! # Examples
//!
//! ```
//! use pauli::{Pauli, PauliString};
//!
//! // The paper's Figure 2 example on four qubits: X I Y Z
//! // (leftmost operator acts on the highest qubit, q3).
//! let p: PauliString = "XIYZ".parse()?;
//! assert_eq!(p.num_qubits(), 4);
//! assert_eq!(p.op(3), Pauli::X);
//! assert_eq!(p.op(2), Pauli::I);
//! assert_eq!(p.op(1), Pauli::Y);
//! assert_eq!(p.op(0), Pauli::Z);
//! assert_eq!(p.weight(), 3); // three non-identity operators
//! # Ok::<(), pauli::ParsePauliError>(())
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod cluster;
pub mod flip;
pub mod grouping;
pub mod sector;
pub mod string;
pub mod sum;

pub use cluster::{CliffordOp, ClusterError, ClusterStats, ClusteredSum, DiagonalFrame};
pub use grouping::{group_qubit_wise, qubit_wise_commute, MeasurementGroup};
pub use sector::{SectorBasis, SectorError, SectorOperator};
pub use string::{ParsePauliError, Pauli, PauliString, Phase};
pub use sum::WeightedPauliSum;
