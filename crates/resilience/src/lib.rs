//! Resilience layer for the pauli-codesign pipeline: error taxonomy,
//! deterministic fault injection, and retry/fallback recovery policies.
//!
//! The paper's pipeline is a chain of numerically fragile stages — SCF
//! can diverge, geometries can degenerate, coupling graphs can violate
//! Merge-to-Root's tree precondition, optimizers can hit NaN or stall.
//! This crate gives each failure a typed home ([`PcdError`]), a way to
//! provoke it on demand ([`FaultPlan`]), and a policy that survives it
//! ([`recover`] for the SCF ladder, [`stages`] for the others):
//!
//! | failure | typed error | recovery policy |
//! |---|---|---|
//! | SCF non-convergence / NaN | `ScfError` | retry ladder: damping → damping+shift → strong shift, restarted DIIS |
//! | degenerate geometry | `ChemError::DegenerateGeometry` | rebuild from the clean geometry |
//! | non-tree coupling graph | `CompileError::NotATree` | degrade MtR → SABRE |
//! | NaN objective / stall | `OptimizeError` / unconverged | restart from perturbed parameters |
//!
//! The [`stages`] module owns each stage of the pipeline chain with its
//! policy, checkpoint files and `pipeline.*` span; every driver calls it
//! instead of keeping its own copy of the chain.
//!
//! The [`chaos`] module holds the [`CampaignReport`] every fault campaign
//! returns, and the campaigns that run the stages under a seeded fault
//! plan (checking every injected fault was recovered) or kill and resume
//! them from checkpoint files — `pcd chaos --campaign` is a thin CLI over
//! them. All retries, fallbacks, and
//! injections are counted in obs (`resilience.retries`,
//! `resilience.fallbacks`, `resilience.faults_injected`) and emitted as
//! events, so a trace shows the full fault/recovery story.
//!
//! ```
//! use resilience::{run_chaos, ChaosOptions};
//!
//! let report = run_chaos(&ChaosOptions {
//!     fault_rate: 1.0,
//!     trials: 1,
//!     ..Default::default()
//! });
//! assert!(report.survived());
//! assert!(report.all_policy_classes_recovered());
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod chaos;
pub mod checkpoint;
pub mod codec;
pub mod degrade;
pub mod error;
pub mod fault;
pub mod recover;
pub mod stages;

pub use chaos::{
    run_chaos, run_kill_resume, trial_seed, CampaignReport, ChaosOptions, KillResumeOptions, Trial,
};
pub use checkpoint::{crc32, f64_from_hex, f64_to_hex, Checkpoint, CheckpointError};
pub use codec::{
    decode_vqe, decode_vqe_result, decode_yield, encode_vqe, encode_vqe_result, encode_yield,
    KIND_VQE, KIND_VQE_RESULT, KIND_YIELD,
};
pub use degrade::{DegradationLadder, DegradationPolicy};
pub use error::PcdError;
pub use fault::{splitmix64, FaultKind, FaultPlan, InjectedFault};
pub use recover::build_system_with_recovery;
pub use stages::CompileStrategy;

/// Serialises this crate's tests that enable obs or reach
/// [`DegradationPolicy::select`]: the obs registry is process-global, so a
/// downgrade one test counts must not land in another test's snapshot.
#[cfg(test)]
pub(crate) fn obs_gate() -> std::sync::MutexGuard<'static, ()> {
    static GATE: std::sync::Mutex<()> = std::sync::Mutex::new(());
    GATE.lock().unwrap_or_else(|e| e.into_inner())
}
