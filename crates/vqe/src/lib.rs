//! The Variational Quantum Eigensolver engine (paper §II-B).
//!
//! * [`state`] — ansatz state preparation on the statevector simulator and
//!   the exact adjoint-mode energy gradient (the classical stand-in for the
//!   paper's SLSQP gradients);
//! * [`optimize`] — classical optimizers: L-BFGS with strong-Wolfe line
//!   search (a smooth quasi-Newton like the paper's SLSQP, and the one
//!   resumable loop), and Nelder–Mead for the gradient-free density-matrix
//!   evaluator;
//! * [`driver`] — the VQE outer loop with convergence tracing, plus the
//!   noisy evaluators for the Fig 10 case studies (exact density-matrix
//!   simulation and the fast global-depolarizing approximation).
//!
//! # Examples
//!
//! ```no_run
//! use ansatz::uccsd::UccsdAnsatz;
//! use chem::Benchmark;
//! use vqe::driver::{run_vqe, VqeOptions};
//!
//! let system = Benchmark::H2.build(0.74)?;
//! let ir = UccsdAnsatz::for_system(&system).into_ir();
//! let result = run_vqe(system.qubit_hamiltonian(), &ir, VqeOptions::default())?;
//! let exact = system.exact_ground_state_energy();
//! assert!((result.energy - exact).abs() < 1e-6);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod adapt;
pub mod driver;
pub mod error;
pub mod mitigation;
pub mod optimize;
pub mod sector;
pub mod state;
pub mod vqd;

pub use adapt::{
    pool_from_excitations, run_adapt_vqe, try_run_adapt_vqe, uccsd_pool, AdaptOptions, AdaptResult,
    PoolOperator,
};
pub use driver::{
    run_vqe, run_vqe_from, run_vqe_noisy, run_vqe_resumable, NoisyEvaluator, VqeCheckpoint,
    VqeOptions, VqeResult, VqeRun,
};
pub use error::VqeError;
pub use mitigation::{
    fold_cnots, richardson_extrapolate, zne_energy, MitigatedEnergy, NoiseScaling,
};
pub use optimize::{parameter_shift_gradient, LbfgsState, OptRun, OptimizeError, OptimizeOutcome};
pub use sector::{SectorAnsatz, SectorFallback};
pub use state::{energy, energy_and_gradient, overlap_and_gradient, prepare_state};
pub use vqd::{run_vqd, try_run_vqd, VqdOptions, VqdState};
