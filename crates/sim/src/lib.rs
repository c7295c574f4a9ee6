//! Quantum circuit simulators.
//!
//! Substitutes for the Qiskit Aer backends the paper uses (§VI-A):
//!
//! * [`Statevector`] — exact noise-free simulation, with a fast direct
//!   Pauli-evolution path (`exp(-i·θ/2·P)` applied in one O(2ⁿ) sweep, no
//!   gate decomposition), and a fused path that applies a run of
//!   [`PauliRotation`]s sharing one flip mask in one sweep — the VQE inner
//!   loop;
//! * [`DensityMatrix`] — mixed-state simulation with depolarizing noise
//!   channels attached to CNOTs, used for the paper's noisy case studies
//!   (Fig 10);
//! * [`NoiseModel`] — the depolarizing error model with the paper's CNOT
//!   error rate.
//!
//! # Examples
//!
//! ```
//! use circuit::{Circuit, Gate};
//! use sim::Statevector;
//!
//! // Build a Bell state.
//! let mut c = Circuit::new(2);
//! c.push(Gate::H(0));
//! c.push(Gate::Cnot { control: 0, target: 1 });
//! let mut sv = Statevector::zero_state(2);
//! sv.apply_circuit(&c);
//! assert!((sv.probability(0b00) - 0.5).abs() < 1e-12);
//! assert!((sv.probability(0b11) - 0.5).abs() < 1e-12);
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod density;
pub mod noise;
pub mod rotation;
pub mod statevector;

pub use density::DensityMatrix;
pub use noise::NoiseModel;
pub use rotation::PauliRotation;
pub use statevector::Statevector;
