//! The pipeline's stages, each defined once with its policy, checkpoint
//! files and `pipeline.*` span. Every driver — `CoDesignPipeline`, the
//! `pcd` subcommands, the supervisor's job attempt and the chaos campaigns
//! — opens [`root`] and calls the stages it needs, so their spans nest
//! under one `pipeline.run` span. DESIGN.md §19 maps drivers to stages.

use std::path::{Path, PathBuf};

use ansatz::uccsd::UccsdAnsatz;
use ansatz::{compress, CompressionReport, PauliIr};
use arch::{simulate_yield_resumable, CollisionModel, Topology, YieldEstimate, YieldRun};
use chem::scf::ScfOptions;
use chem::{Benchmark, MolecularSystem};
use compiler::pipeline::{try_compile_mtr, try_compile_sabre, CompiledProgram};
use par::Budget;
use pauli::{ClusterStats, ClusteredSum};
use vqe::driver::{run_vqe_from, run_vqe_noisy, run_vqe_resumable, NoisyEvaluator};
use vqe::driver::{VqeCheckpoint, VqeOptions, VqeResult, VqeRun};

use crate::checkpoint::{Checkpoint, CheckpointError};
use crate::codec::{decode_vqe, decode_vqe_result, decode_yield};
use crate::codec::{encode_vqe, encode_vqe_result, encode_yield};
use crate::degrade::{DegradationLadder, DegradationPolicy};
use crate::error::PcdError;
use crate::fault::{FaultKind, FaultPlan};
use crate::recover::{build_system_with_recovery, corrupt_with_chord, record_recovery};

const VQE_CKPT: &str = "vqe.ckpt";
const VQE_DONE: &str = "vqe.done";
const YIELD_CKPT: &str = "yield.ckpt";

/// Default remaining-budget fraction below which [`yield_mc`] sheds samples.
pub const DEGRADE_THRESHOLD: f64 = 0.25;

/// SABRE bidirectional layout round trips used by the compile fallback.
const SABRE_LAYOUT_ROUNDS: usize = 3;

/// Opens the `pipeline.run` root span the stage spans nest under.
pub fn root() -> obs::SpanGuard {
    obs::span("pipeline.run")
}

/// A run's checkpoint directory, and whether this run restores the stage
/// files an earlier run saved there.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoints {
    /// The directory holding the stage files.
    pub dir: PathBuf,
    /// Restore saved stages instead of starting fresh.
    pub resume: bool,
}

impl Checkpoints {
    /// A checkpoint directory; `resume` restores the stages saved in it.
    pub fn new(dir: impl Into<PathBuf>, resume: bool) -> Self {
        Checkpoints {
            dir: dir.into(),
            resume,
        }
    }

    /// Removes every stage file, so a finished run leaves none behind.
    pub fn clear(&self) {
        for file in [VQE_CKPT, VQE_DONE, YIELD_CKPT] {
            let _ = std::fs::remove_file(self.dir.join(file));
        }
    }
}

/// The stage file `file`, when the run resumes from a directory holding it.
fn load(store: Option<&Checkpoints>, file: &str) -> Result<Option<Checkpoint>, PcdError> {
    match store.filter(|s| s.resume).map(|s| s.dir.join(file)) {
        Some(path) if path.exists() => Ok(Some(Checkpoint::read(&path)?)),
        _ => Ok(None),
    }
}

/// Writes the stage file `file` when the run has a checkpoint directory,
/// and returns its path.
fn save(
    store: Option<&Checkpoints>,
    file: &str,
    ck: &Checkpoint,
) -> Result<Option<String>, PcdError> {
    let Some(store) = store else { return Ok(None) };
    std::fs::create_dir_all(&store.dir).map_err(|e| CheckpointError::Io {
        path: store.dir.display().to_string(),
        message: e.to_string(),
    })?;
    let path = store.dir.join(file);
    ck.write(&path)?;
    Ok(Some(path.display().to_string()))
}

/// Build: integrals → SCF → Jordan–Wigner through the SCF retry ladder and
/// its fault sites. Returns the system and the ladder retries it took.
pub fn build(
    benchmark: Benchmark,
    bond_length: f64,
    plan: &mut FaultPlan,
) -> Result<(MolecularSystem, usize), PcdError> {
    let mut span = obs::span("pipeline.chemistry");
    span.record("bond_length", bond_length);
    let built = build_system_with_recovery(benchmark, bond_length, ScfOptions::default(), plan)?;
    span.record("system", built.0.name());
    span.record("qubits", built.0.num_qubits());
    span.record("scf_retries", built.1);
    Ok(built)
}

/// Ansatz: the system's UCCSD, compressed to `ratio` of its parameters by
/// Hamiltonian importance (Algorithm 1). Panics if `ratio ∉ (0, 1]`.
pub fn ansatz(system: &MolecularSystem, ratio: f64) -> (PauliIr, CompressionReport) {
    let mut span = obs::span("pipeline.ansatz");
    let full = UccsdAnsatz::for_system(system).into_ir();
    let out = compress(&full, system.qubit_hamiltonian(), ratio);
    span.record("original_parameters", out.1.original_parameters);
    span.record("kept_parameters", out.1.kept_parameters);
    out
}

/// The VQE starting point θ = 0, its first angle poisoned when the plan
/// injects a `VqeObjective` fault.
pub fn vqe_start(ir: &PauliIr, plan: &mut FaultPlan) -> Vec<f64> {
    let mut x0 = vec![0.0; ir.num_parameters()];
    if !x0.is_empty() && plan.should_inject(FaultKind::VqeObjective) {
        x0[0] = f64::NAN;
    }
    x0
}

/// One budget slice of VQE from `x0`, or from `resume`.
pub fn vqe_slice(
    system: &MolecularSystem,
    ir: &PauliIr,
    x0: &[f64],
    options: VqeOptions,
    resume: Option<VqeCheckpoint>,
    budget: &Budget,
) -> Result<VqeRun, PcdError> {
    let _span = obs::span("pipeline.vqe");
    let h = system.qubit_hamiltonian();
    Ok(run_vqe_resumable(h, ir, x0, options, resume, budget)?)
}

/// VQE from θ = 0 under `budget`. With a checkpoint directory, a budget
/// expiry saves `vqe.ckpt` and returns `Interrupted`, a finished run saves
/// the `vqe.done` marker, and a resuming run returns the marker's result or
/// continues from `vqe.ckpt`.
pub fn vqe(
    system: &MolecularSystem,
    ir: &PauliIr,
    options: VqeOptions,
    budget: &Budget,
    store: Option<&Checkpoints>,
) -> Result<VqeResult, PcdError> {
    if let Some(done) = load(store, VQE_DONE)? {
        return Ok(decode_vqe_result(&done)?);
    }
    let resume = load(store, VQE_CKPT)?
        .map(|ck| decode_vqe(&ck))
        .transpose()?;
    let x0 = vec![0.0; ir.num_parameters()];
    match vqe_slice(system, ir, &x0, options, resume, budget)? {
        VqeRun::Done(result) => {
            save(store, VQE_DONE, &encode_vqe_result(&result))?;
            if let Some(store) = store {
                let _ = std::fs::remove_file(store.dir.join(VQE_CKPT));
            }
            Ok(result)
        }
        VqeRun::Interrupted(ck) => Err(PcdError::Interrupted {
            stage: "vqe",
            checkpoint: save(store, VQE_CKPT, &encode_vqe(&ck))?,
        }),
    }
}

/// VQE under a noisy evaluator (Fig 10).
pub fn vqe_noisy(
    system: &MolecularSystem,
    ir: &PauliIr,
    evaluator: NoisyEvaluator,
    options: VqeOptions,
) -> Result<VqeResult, PcdError> {
    let _span = obs::span("pipeline.vqe");
    let h = system.qubit_hamiltonian();
    Ok(run_vqe_noisy(h, ir, evaluator, options)?)
}

/// Deterministic perturbation for restart attempt `attempt`: small,
/// attempt-dependent, and symmetry-breaking.
fn perturbed_start(base: &[f64], attempt: usize, scale: f64) -> Vec<f64> {
    base.iter()
        .enumerate()
        .map(|(j, &x)| {
            let t = (attempt * base.len() + j) as f64;
            let x = if x.is_finite() { x } else { 0.0 };
            x + scale * (t * 0.7 + attempt as f64).sin()
        })
        .collect()
}

/// VQE under the restart policy and the plan's two VQE fault sites: on a
/// non-finite objective or a stalled optimizer, restart from a perturbed
/// point with a fresh iteration budget, at most `max_restarts` times.
/// Returns the result and the restarts spent; a merely-unconverged final
/// attempt is returned as-is, a typed failure of every attempt is
/// [`PcdError::Unrecovered`].
pub fn vqe_with_restart(
    system: &MolecularSystem,
    ir: &PauliIr,
    max_restarts: usize,
    plan: &mut FaultPlan,
) -> Result<(VqeResult, usize), PcdError> {
    let _span = obs::span("pipeline.vqe");
    let options = VqeOptions::default();
    let mut current = vqe_start(ir, plan);
    let mut current_options = options;
    if plan.should_inject(FaultKind::OptimizerStall) {
        current_options.controls.max_iterations = 1;
    }
    let mut attempt = 0usize;
    let mut stalled: Option<VqeResult> = None;
    loop {
        let run = run_vqe_from(system.qubit_hamiltonian(), ir, &current, current_options);
        current_options = options;
        match run {
            Ok(result) if result.converged => {
                if attempt > 0 {
                    obs::event!(
                        "resilience.recovered",
                        policy = "vqe_restart",
                        attempt = attempt
                    );
                }
                return Ok((result, attempt));
            }
            // Stall: restart near the best parameters found.
            Ok(result) if attempt < max_restarts => {
                attempt += 1;
                record_recovery("vqe_restart", "vqe", attempt, "optimizer_stall");
                current = perturbed_start(&result.params, attempt, 0.02);
                stalled = Some(result);
            }
            Ok(result) => return Ok((result, attempt)),
            Err(e) if attempt < max_restarts => {
                attempt += 1;
                record_recovery("vqe_restart", "vqe", attempt, PcdError::from(e).stage());
                current = perturbed_start(&vec![0.0; ir.num_parameters()], attempt, 0.05);
            }
            // A prior stalled-but-finite result beats dying.
            Err(e) => {
                return stalled.map(|result| (result, attempt)).ok_or_else(|| {
                    PcdError::Unrecovered {
                        stage: "vqe",
                        attempts: attempt + 1,
                        last: Box::new(e.into()),
                    }
                })
            }
        }
    }
}

/// Reads a VQE checkpoint file.
pub fn read_vqe_checkpoint(path: &Path) -> Result<VqeCheckpoint, PcdError> {
    Ok(decode_vqe(&Checkpoint::read(path)?)?)
}

/// Yield Monte Carlo of the 17-qubit X-Tree at σ = 0.04 GHz. A fresh run
/// sheds samples down a 1×/¼/¹⁄₂₀ ladder of `base_samples` once the
/// budget's remaining fraction drops below `degrade_threshold`; a resumed
/// run keeps its checkpoint's sample count. A budget expiry saves
/// `yield.ckpt` and returns `Interrupted`.
pub fn yield_mc(
    base_samples: usize,
    degrade_threshold: f64,
    budget: &Budget,
    store: Option<&Checkpoints>,
) -> Result<YieldEstimate, PcdError> {
    let mut span = obs::span("pipeline.yield");
    let resume = load(store, YIELD_CKPT)?
        .map(|ck| decode_yield(&ck))
        .transpose()?;
    let samples = match &resume {
        Some(ck) => ck.samples,
        None => {
            let levels = [1, 4, 20].map(|div| base_samples / div);
            let levels = levels.into_iter().filter(|&n| n >= 1).collect();
            let ladder = DegradationLadder::new("yield.samples", levels);
            DegradationPolicy::new(ladder, degrade_threshold).select(budget)
        }
    };
    span.record("samples", samples);
    let (xtree, model) = (Topology::xtree(17), CollisionModel::default());
    match simulate_yield_resumable(&xtree, &model, 0.04, samples, 17, resume, budget) {
        YieldRun::Done(estimate) => Ok(estimate),
        YieldRun::Interrupted(ck) => Err(PcdError::Interrupted {
            stage: "yield",
            checkpoint: save(store, YIELD_CKPT, &encode_yield(&ck))?,
        }),
    }
}

/// Exact reference: the ground-state energy in the N-electron sector.
pub fn reference(system: &MolecularSystem) -> f64 {
    let _span = obs::span("pipeline.reference");
    system.exact_ground_state_energy()
}

/// A converged state's energy re-evaluated by the per-term and clustered
/// evaluators, with the shape of the cluster partition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrossCheck {
    /// Energy summed term by term.
    pub per_term: f64,
    /// Energy from the clustered (diagonal-frame) evaluator.
    pub clustered: f64,
    /// Shape of the Hamiltonian's cluster partition.
    pub stats: ClusterStats,
}

/// Cross-check: both evaluators must agree with each other and with the
/// grouped `H|ψ⟩` energy that drove the optimizer.
pub fn crosscheck(system: &MolecularSystem, ir: &PauliIr, params: &[f64]) -> CrossCheck {
    let _span = obs::span("pipeline.crosscheck");
    let state = vqe::prepare_state(ir, params);
    let clusters = ClusteredSum::build(system.qubit_hamiltonian());
    CrossCheck {
        per_term: state.expectation(system.qubit_hamiltonian()),
        clustered: state.expectation_with(&clusters),
        stats: clusters.stats(),
    }
}

/// Measurement: the Hamiltonian's qubit-wise commuting groups (circuit
/// variants per energy evaluation).
pub fn measure(system: &MolecularSystem) -> usize {
    let _span = obs::span("pipeline.measure");
    pauli::group_qubit_wise(system.qubit_hamiltonian()).len()
}

/// The X-Tree the pipeline compiles onto: the register plus a spare, at
/// least six qubits.
pub fn xtree_for(system: &MolecularSystem) -> Topology {
    Topology::xtree(system.num_qubits().max(5) + 1)
}

/// How the compile stage produced its program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompileStrategy {
    /// Merge-to-Root ran on a tree topology (the co-designed fast path).
    MergeToRoot,
    /// MtR's precondition failed; SABRE routed the circuit instead.
    SabreFallback,
}

/// Compile: Merge-to-Root, degrading to SABRE when the coupling graph is
/// not a tree. The plan may first corrupt the graph with a chord edge
/// (cyclic but still connected). Both compilers failing is
/// [`PcdError::Unrecovered`].
pub fn compile(
    ir: &PauliIr,
    topology: &Topology,
    plan: &mut FaultPlan,
) -> Result<(CompiledProgram, CompileStrategy), PcdError> {
    let _span = obs::span("pipeline.compile");
    let corrupted = plan
        .should_inject(FaultKind::CouplingGraph)
        .then(|| corrupt_with_chord(topology));
    let target = corrupted.as_ref().unwrap_or(topology);
    let mtr_err = match try_compile_mtr(ir, target) {
        Ok(program) => return Ok((program, CompileStrategy::MergeToRoot)),
        Err(e) => e,
    };
    obs::counter_add("resilience.fallbacks", 1);
    obs::event!(
        "resilience.recovery",
        policy = "compiler_fallback",
        stage = "compile",
        attempt = 1usize,
        cause = format!("{mtr_err}")
    );
    match try_compile_sabre(ir, target, SABRE_LAYOUT_ROUNDS) {
        Ok(program) => {
            obs::event!(
                "resilience.recovered",
                policy = "compiler_fallback",
                attempt = 1usize
            );
            Ok((program, CompileStrategy::SabreFallback))
        }
        Err(sabre_err) => Err(PcdError::Unrecovered {
            stage: "compile",
            attempts: 2,
            last: Box::new(PcdError::Compile(sabre_err)),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> Checkpoints {
        let dir = std::env::temp_dir().join(format!("pcd-stages-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Checkpoints::new(dir, false)
    }

    fn h2() -> (MolecularSystem, PauliIr) {
        let (system, _) = build(Benchmark::H2, 0.74, &mut FaultPlan::none()).expect("H2");
        let (ir, _) = ansatz(&system, 1.0);
        (system, ir)
    }

    #[test]
    fn interrupted_vqe_resumes_to_the_uninterrupted_bits() {
        let (system, ir) = h2();
        let options = VqeOptions::default();
        let baseline = vqe(&system, &ir, options, &Budget::unlimited(), None).expect("vqe");
        let mut store = scratch("vqe");
        let mut kills = 0;
        let resumed = loop {
            match vqe(&system, &ir, options, &Budget::max_ticks(1), Some(&store)) {
                Ok(r) => break r,
                Err(PcdError::Interrupted { stage, checkpoint }) => {
                    assert_eq!(stage, "vqe");
                    assert!(checkpoint.expect("saved").ends_with(VQE_CKPT));
                    kills += 1;
                    store.resume = true;
                }
                Err(e) => panic!("{e}"),
            }
        };
        assert!(kills >= 1);
        assert_eq!(resumed.energy.to_bits(), baseline.energy.to_bits());
        // The done-marker replaces the stage on a later resume, even with
        // no budget left.
        assert!(store.dir.join(VQE_DONE).exists() && !store.dir.join(VQE_CKPT).exists());
        let replay = vqe(&system, &ir, options, &Budget::max_ticks(0), Some(&store));
        assert_eq!(
            replay.expect("marker").energy.to_bits(),
            baseline.energy.to_bits()
        );
        store.clear();
        assert!(!store.dir.join(VQE_DONE).exists());
        let _ = std::fs::remove_dir_all(&store.dir);
    }

    #[test]
    fn interrupted_yield_keeps_its_sample_count_on_resume() {
        let unlimited = Budget::unlimited();
        let baseline = yield_mc(1000, DEGRADE_THRESHOLD, &unlimited, None).expect("yield");
        let mut store = scratch("yield");
        let resumed = loop {
            match yield_mc(1000, DEGRADE_THRESHOLD, &Budget::max_ticks(1), Some(&store)) {
                Ok(e) => break e,
                Err(PcdError::Interrupted { stage, .. }) => {
                    assert_eq!(stage, "yield");
                    store.resume = true;
                }
                Err(e) => panic!("{e}"),
            }
        };
        assert_eq!(resumed, baseline);
        let _ = std::fs::remove_dir_all(&store.dir);
    }

    #[test]
    fn the_chain_runs_end_to_end_on_h2() {
        let _root = root();
        let (system, ir) = h2();
        let options = VqeOptions::default();
        let run = vqe(&system, &ir, options, &Budget::unlimited(), None).expect("vqe");
        let check = crosscheck(&system, &ir, &run.params);
        assert!((check.per_term - run.energy).abs() < 1e-9);
        assert!((check.clustered - run.energy).abs() < 1e-9);
        assert!((reference(&system) - run.energy).abs() < 1e-6);
        let (program, strategy) =
            compile(&ir, &xtree_for(&system), &mut FaultPlan::none()).expect("compiles");
        assert_eq!(strategy, CompileStrategy::MergeToRoot);
        assert!(program.total_cnots() > 0);
    }

    #[test]
    fn a_corrupted_coupling_graph_falls_back_to_sabre() {
        let (system, ir) = h2();
        let mut plan = FaultPlan::new(5, 1.0);
        let (_, strategy) = compile(&ir, &xtree_for(&system), &mut plan).expect("SABRE routes");
        assert_eq!(strategy, CompileStrategy::SabreFallback);
    }
}
