//! # pauli-codesign
//!
//! A full-stack Rust reproduction of *Software-Hardware Co-Optimization for
//! Computational Chemistry on Superconducting Quantum Processors*
//! (Li, Shi, Javadi-Abhari — ISCA 2021).
//!
//! The paper's three co-designed optimizations, coordinated through the
//! Pauli-string abstraction:
//!
//! 1. **Ansatz compression** ([`ansatz`]) — UCCSD parameters are scored
//!    against the molecular Hamiltonian (Algorithm 1) and only the most
//!    important are kept, in a hardware-friendly order;
//! 2. **X-Tree architecture** ([`arch`]) — a tree-shaped superconducting
//!    coupling graph with the minimum N−1 connections, raising fabrication
//!    yield under frequency-collision models;
//! 3. **Merge-to-Root compilation** ([`compiler`]) — synthesis and routing
//!    in a single pass over the Pauli IR, adapting each CNOT tree to the
//!    current mapping.
//!
//! Everything the paper depends on is built from scratch: an electronic-
//! structure stack ([`chem`]: STO-3G integrals, Hartree-Fock, Jordan–Wigner),
//! simulators ([`sim`]), the VQE engine ([`vqe`]), and the SABRE baseline.
//!
//! ## Quickstart
//!
//! ```no_run
//! use pauli_codesign::CoDesignPipeline;
//! use pauli_codesign::chem::Benchmark;
//!
//! # fn main() -> Result<(), pauli_codesign::resilience::PcdError> {
//! let report = CoDesignPipeline::new(Benchmark::LiH)
//!     .bond_length(1.6)
//!     .compression_ratio(0.5)
//!     .run()?;
//! println!("energy {:.6} Ha in {} iterations, {} added CNOTs",
//!          report.energy, report.iterations, report.added_cnots);
//! # Ok(())
//! # }
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub use ansatz;
pub use arch;
pub use chem;
pub use circuit;
pub use compiler;
pub use numeric;
pub use par;
pub use pauli;
pub use resilience;
pub use serve;
pub use sim;
pub use supervisor;
pub use vqe;

pub mod report;

use ansatz::PauliIr;
use arch::Topology;
use chem::{Benchmark, MolecularSystem};
use compiler::pipeline::CompiledProgram;
use par::Budget;
use resilience::{stages, FaultPlan, PcdError};
use sim::NoiseModel;
use vqe::driver::{NoisyEvaluator, VqeOptions, VqeResult};

/// The end-to-end co-design pipeline: chemistry → compressed ansatz →
/// VQE → X-Tree compilation, with the paper's default configuration.
///
/// A non-consuming builder: configure, then [`run`](CoDesignPipeline::run).
#[derive(Debug, Clone)]
pub struct CoDesignPipeline {
    benchmark: Benchmark,
    bond_length: Option<f64>,
    compression_ratio: f64,
    topology: Option<Topology>,
    vqe_options: VqeOptions,
    noise: Option<NoiseModel>,
}

impl CoDesignPipeline {
    /// Creates a pipeline for one of the paper's benchmark molecules.
    pub fn new(benchmark: Benchmark) -> Self {
        CoDesignPipeline {
            benchmark,
            bond_length: None,
            compression_ratio: 0.5,
            topology: None,
            vqe_options: VqeOptions::default(),
            noise: None,
        }
    }

    /// Sets the varied bond length in Angstrom (default: equilibrium).
    pub fn bond_length(&mut self, angstrom: f64) -> &mut Self {
        self.bond_length = Some(angstrom);
        self
    }

    /// Sets the ansatz compression ratio in `(0, 1]` (default 0.5, the
    /// paper's sweet spot).
    ///
    /// # Panics
    ///
    /// Panics if the ratio is outside `(0, 1]`.
    pub fn compression_ratio(&mut self, ratio: f64) -> &mut Self {
        assert!(
            ratio > 0.0 && ratio <= 1.0,
            "compression ratio must be in (0, 1]"
        );
        self.compression_ratio = ratio;
        self
    }

    /// Sets the target topology (default: the X-Tree sized to fit).
    pub fn topology(&mut self, topology: Topology) -> &mut Self {
        self.topology = Some(topology);
        self
    }

    /// Overrides the VQE options.
    pub fn vqe_options(&mut self, options: VqeOptions) -> &mut Self {
        self.vqe_options = options;
        self
    }

    /// Runs the VQE under a depolarizing noise model (Fig 10-style). Uses
    /// the global-depolarizing evaluator, which keeps exact gradients.
    pub fn noise(&mut self, noise: NoiseModel) -> &mut Self {
        self.noise = Some(noise);
        self
    }

    /// Runs the whole pipeline through [`resilience::stages`]: the build
    /// through the SCF retry ladder, compressed ansatz, VQE, measurement
    /// grouping, exact reference, and Merge-to-Root compilation (SABRE
    /// when the topology is not a tree).
    ///
    /// # Errors
    ///
    /// Returns [`PcdError`] if the electronic-structure stage or the VQE
    /// optimizer fails.
    pub fn run(&self) -> Result<CoDesignReport, PcdError> {
        let mut run_span = stages::root();
        run_span.record("compression_ratio", self.compression_ratio);
        run_span.record("noisy", self.noise.is_some());

        let bond = self
            .bond_length
            .unwrap_or_else(|| self.benchmark.equilibrium_bond_length());
        let mut plan = FaultPlan::none();
        let (system, _) = stages::build(self.benchmark, bond, &mut plan)?;
        run_span.record("system", system.name());

        let (ir, compression) = stages::ansatz(&system, self.compression_ratio);
        let vqe_result = match self.noise {
            None => stages::vqe(&system, &ir, self.vqe_options, &Budget::unlimited(), None)?,
            Some(noise) => stages::vqe_noisy(
                &system,
                &ir,
                NoisyEvaluator::GlobalDepolarizing(noise),
                self.vqe_options,
            )?,
        };
        let measurement_groups = stages::measure(&system);
        let exact_energy = stages::reference(&system);

        let topology = self
            .topology
            .clone()
            .unwrap_or_else(|| stages::xtree_for(&system));
        let (compiled, _) = stages::compile(&ir, &topology, &mut plan)?;

        run_span.record("energy", vqe_result.energy);
        run_span.record("added_cnots", compiled.added_cnots());

        Ok(CoDesignReport {
            exact_energy,
            hartree_fock_energy: system.hartree_fock_energy(),
            energy: vqe_result.energy,
            iterations: vqe_result.iterations,
            kept_parameters: compression.kept_parameters,
            original_parameters: compression.original_parameters,
            original_cnots: compiled.original_cnots(),
            added_cnots: compiled.added_cnots(),
            measurement_groups,
            system,
            ir,
            vqe: vqe_result,
            compiled,
        })
    }
}

/// Everything the pipeline produced, headline numbers first.
#[derive(Debug, Clone)]
pub struct CoDesignReport {
    /// VQE energy (Hartree).
    pub energy: f64,
    /// Exact (Lanczos) ground-state energy of the active space, in its
    /// N-electron sector.
    pub exact_energy: f64,
    /// Hartree-Fock reference energy.
    pub hartree_fock_energy: f64,
    /// Optimizer outer iterations.
    pub iterations: usize,
    /// Parameters kept by compression.
    pub kept_parameters: usize,
    /// Parameters in the full UCCSD ansatz.
    pub original_parameters: usize,
    /// CNOTs of the unmapped circuit.
    pub original_cnots: usize,
    /// Mapping overhead in CNOTs (Table II metric).
    pub added_cnots: usize,
    /// Qubit-wise commuting measurement groups of the Hamiltonian (circuit
    /// variants per inner-loop energy evaluation).
    pub measurement_groups: usize,
    /// The molecular system.
    pub system: MolecularSystem,
    /// The compressed Pauli IR that was executed.
    pub ir: PauliIr,
    /// Full VQE result with the convergence trace.
    pub vqe: VqeResult,
    /// The compiled program on the target topology.
    pub compiled: CompiledProgram,
}

impl CoDesignReport {
    /// Absolute energy error against the exact ground state (Hartree).
    pub fn energy_error(&self) -> f64 {
        (self.energy - self.exact_energy).abs()
    }

    /// Fraction of correlation energy recovered by the compressed ansatz.
    pub fn correlation_recovered(&self) -> f64 {
        let total = self.hartree_fock_energy - self.exact_energy;
        if total.abs() < 1e-15 {
            return 1.0;
        }
        (self.hartree_fock_energy - self.energy) / total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipeline_runs_h2_end_to_end() {
        let report = CoDesignPipeline::new(Benchmark::H2)
            .compression_ratio(1.0)
            .run()
            .expect("H2 pipeline");
        assert!(
            report.energy_error() < 1e-6,
            "error {}",
            report.energy_error()
        );
        assert!(report.correlation_recovered() > 0.999);
        assert_eq!(report.original_parameters, 3);
        // Paper Table II: full-ish H2 costs at most 6 added CNOTs on a tree.
        assert!(report.added_cnots <= 6, "added {}", report.added_cnots);
    }

    #[test]
    fn compression_halves_parameters() {
        let report = CoDesignPipeline::new(Benchmark::LiH)
            .compression_ratio(0.5)
            .run()
            .expect("LiH pipeline");
        assert_eq!(report.original_parameters, 8);
        assert_eq!(report.kept_parameters, 4);
        // Paper: ~0.05% error at the 50% ratio.
        assert!(
            report.energy_error() < 5e-3,
            "error {}",
            report.energy_error()
        );
    }

    #[test]
    #[should_panic]
    fn invalid_ratio_rejected() {
        let _ = CoDesignPipeline::new(Benchmark::H2).compression_ratio(1.5);
    }

    #[test]
    fn noisy_pipeline_raises_energy() {
        let clean = CoDesignPipeline::new(Benchmark::H2)
            .compression_ratio(1.0)
            .run()
            .expect("clean pipeline");
        let noisy = CoDesignPipeline::new(Benchmark::H2)
            .compression_ratio(1.0)
            .noise(sim::NoiseModel::cnot_only(1e-3))
            .run()
            .expect("noisy pipeline");
        assert!(
            noisy.energy > clean.energy,
            "{} vs {}",
            noisy.energy,
            clean.energy
        );
        assert!(noisy.measurement_groups >= 2);
    }
}
