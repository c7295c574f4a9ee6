//! Pauli-IR compilation: synthesis and qubit mapping (paper §V).
//!
//! Three pipelines, matching the paper's Table II comparison:
//!
//! * [`mtr`] — the co-designed flow: [`layout`] (Hierarchical Initial
//!   Layout, Algorithm 2) followed by Merge-to-Root combined synthesis and
//!   routing (Algorithm 3), lowering the Pauli IR directly onto a tree
//!   architecture;
//! * [`synthesis`] + [`sabre`] — the traditional flow: synthesize every
//!   Pauli-string simulation circuit with a fixed chain CNOT plan
//!   (Fig 2b, what Qiskit does), then route the finished circuit with the
//!   SABRE swap-insertion heuristic;
//! * [`pipeline`] — drivers that run either flow and report the paper's
//!   metric: additional CNOTs over the unmapped circuit.
//!
//! # Examples
//!
//! ```no_run
//! use ansatz::uccsd::UccsdAnsatz;
//! use arch::Topology;
//! use chem::Benchmark;
//! use compiler::pipeline::{compile_mtr, compile_sabre};
//!
//! let system = Benchmark::H2.build(0.74)?;
//! let ir = UccsdAnsatz::for_system(&system).into_ir();
//! let xtree = Topology::xtree(17);
//! let mtr = compile_mtr(&ir, &xtree);
//! let sab = compile_sabre(&ir, &xtree, 4);
//! assert!(mtr.added_cnots() <= sab.added_cnots());
//! # Ok::<(), chem::ChemError>(())
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod error;
pub mod layout;
pub mod mtr;
pub mod peephole;
pub mod pipeline;
pub mod reorder;
pub mod sabre;
pub mod synthesis;

pub use error::CompileError;
pub use layout::{hierarchical_initial_layout, try_hierarchical_initial_layout, Layout};
pub use mtr::{merge_to_root, try_merge_to_root, MtrOptions};
pub use peephole::{peephole_optimize, PeepholeStats};
pub use pipeline::{
    compile_mtr, compile_sabre, try_compile_mtr, try_compile_sabre, CompiledProgram,
};
pub use reorder::reorder_for_cancellation;
pub use sabre::{sabre_route, try_sabre_route, SabreOptions};
