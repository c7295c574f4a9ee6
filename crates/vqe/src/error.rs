//! Typed errors for the VQE layer.

use std::error::Error;
use std::fmt;

use crate::optimize::OptimizeError;

/// Error from a VQE (or ADAPT/VQD) run.
#[derive(Debug, Clone, PartialEq)]
pub enum VqeError {
    /// The Hamiltonian and ansatz act on different register widths.
    RegisterMismatch {
        /// Qubits in the Hamiltonian.
        hamiltonian: usize,
        /// Qubits in the ansatz IR.
        ansatz: usize,
    },
    /// The starting parameter vector has the wrong length.
    StartingPointLength {
        /// Parameters the IR declares.
        expected: usize,
        /// Parameters supplied.
        actual: usize,
    },
    /// The classical optimizer failed (e.g. a NaN objective).
    Optimize(OptimizeError),
    /// ADAPT-VQE was given an empty operator pool.
    EmptyPool,
    /// VQD was asked for zero states.
    NoStatesRequested,
    /// A resumed checkpoint's L-BFGS vectors do not have the IR's
    /// parameter count: it was saved for another ansatz.
    CheckpointLength {
        /// Parameters the IR declares.
        expected: usize,
        /// Length of the checkpoint's iterate.
        found: usize,
    },
}

impl fmt::Display for VqeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VqeError::RegisterMismatch {
                hamiltonian,
                ansatz,
            } => write!(
                f,
                "Hamiltonian acts on {hamiltonian} qubits but the ansatz on {ansatz}"
            ),
            VqeError::StartingPointLength { expected, actual } => write!(
                f,
                "starting point has {actual} parameters, the ansatz needs {expected}"
            ),
            VqeError::Optimize(e) => write!(f, "optimizer failure: {e}"),
            VqeError::EmptyPool => write!(f, "ADAPT-VQE requires a non-empty operator pool"),
            VqeError::NoStatesRequested => write!(f, "VQD requires at least one state"),
            VqeError::CheckpointLength { expected, found } => write!(
                f,
                "checkpoint holds optimizer state for {found} parameters, the ansatz has {expected}"
            ),
        }
    }
}

impl Error for VqeError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            VqeError::Optimize(e) => Some(e),
            _ => None,
        }
    }
}

impl From<OptimizeError> for VqeError {
    fn from(e: OptimizeError) -> Self {
        VqeError::Optimize(e)
    }
}
