//! Superconducting processor architecture models (paper §IV).
//!
//! * [`Topology`] — coupling graphs: the X-Tree family of Fig 6, the
//!   17-qubit surface-code-style grid baseline of Fig 11, and generic
//!   grids/lines for ablations;
//! * [`yield_sim`] — fabrication-yield Monte Carlo under the
//!   frequency-collision model (Fig 11): allocate target frequencies on the
//!   coupling graph, sample fabricated frequencies with Gaussian dispersion
//!   σ, and count the fraction of collision-free samples.
//!
//! # Examples
//!
//! ```
//! use arch::Topology;
//!
//! let xtree = Topology::xtree(17);
//! assert_eq!(xtree.num_edges(), 16);        // N − 1: minimal connectivity
//! let grid = Topology::grid17q();
//! assert_eq!(grid.num_edges(), 24);         // the paper's comparison point
//! assert!(xtree.max_degree() <= 4);
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod topology;
pub mod yield_sim;
mod ziggurat;

pub use topology::Topology;
pub use yield_sim::{
    simulate_yield, simulate_yield_resumable, CollisionModel, YieldCheckpoint, YieldEstimate,
    YieldRun,
};
