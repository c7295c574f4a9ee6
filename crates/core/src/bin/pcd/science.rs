//! The paper's studies: `info` (Table I), `vqe`, `run`, `adapt`,
//! `excited`, `scan` (Fig 9), `compile` (Table II), `qasm` and `yield`
//! (Fig 11).

use pauli_codesign::ansatz::uccsd::UccsdAnsatz;
use pauli_codesign::ansatz::CompressionReport;
use pauli_codesign::arch::{simulate_yield, CollisionModel, Topology};
use pauli_codesign::chem::Benchmark;
use pauli_codesign::compiler::pipeline::{compile_mtr, compile_sabre};
use pauli_codesign::compiler::synthesis::synthesize_chain_nominal;
use pauli_codesign::par::Budget;
use pauli_codesign::pauli::group_qubit_wise;
use pauli_codesign::resilience::stages::{self, Checkpoints, CrossCheck};
use pauli_codesign::resilience::{f64_to_hex, FaultPlan, PcdError};
use pauli_codesign::vqe::driver::VqeResult;
use pauli_codesign::vqe::SectorAnsatz;

use crate::{CliError, Flags};

pub(crate) fn parse_arch(name: &str) -> Result<Topology, String> {
    match name {
        "xtree17" => Ok(Topology::xtree(17)),
        "grid17" => Ok(Topology::grid17q()),
        "line17" => Ok(Topology::line(17)),
        "heavyhex" => Ok(Topology::heavy_hex(2, 7)),
        other => Err(format!("unknown architecture `{other}`")),
    }
}

pub(crate) fn cmd_info(flags: &Flags) -> Result<(), CliError> {
    let molecule = flags.molecule()?;
    let bond = flags.bond(molecule)?;
    let (system, _) = stages::build(molecule, bond, &mut FaultPlan::none())?;
    let ansatz = UccsdAnsatz::for_system(&system);
    let circuit = synthesize_chain_nominal(ansatz.ir());
    let groups = group_qubit_wise(system.qubit_hamiltonian());

    outln!("{} @ {bond} Å", molecule.name());
    outln!("  qubits                 : {}", system.num_qubits());
    outln!(
        "  active electrons       : {}",
        system.num_active_electrons()
    );
    outln!(
        "  Hamiltonian terms      : {}",
        system.qubit_hamiltonian().len()
    );
    outln!("  measurement groups     : {}", groups.len());
    let cstats = pauli_codesign::pauli::ClusteredSum::build(system.qubit_hamiltonian()).stats();
    outln!(
        "  commuting clusters     : {} ({} singleton, {} fused)",
        cstats.clusters,
        cstats.singletons,
        cstats.fused
    );
    outln!(
        "  cluster Clifford cost  : {} ops, depth {}",
        cstats.clifford_ops,
        cstats.clifford_depth
    );
    outln!(
        "  UCCSD parameters       : {}",
        ansatz.ir().num_parameters()
    );
    outln!("  UCCSD Pauli strings    : {}", ansatz.ir().len());
    outln!(
        "  circuit gates (CNOTs)  : {} ({})",
        circuit.gate_count(),
        circuit.cnot_count()
    );
    outln!(
        "  Hartree-Fock energy    : {:.6} Ha",
        system.hartree_fock_energy()
    );
    outln!(
        "  exact ground state     : {:.6} Ha",
        system.exact_ground_state_energy()
    );
    Ok(())
}

/// Build → compressed ansatz → VQE → exact reference at one bond length.
fn vqe_point(
    molecule: Benchmark,
    bond: f64,
    ratio: f64,
) -> Result<(VqeResult, f64, CompressionReport), PcdError> {
    let _root = stages::root();
    let (system, _) = stages::build(molecule, bond, &mut FaultPlan::none())?;
    let (ir, report) = stages::ansatz(&system, ratio);
    let unlimited = Budget::unlimited();
    let run = stages::vqe(&system, &ir, &unlimited, None)?;
    Ok((run, stages::reference(&system), report))
}

pub(crate) fn cmd_vqe(flags: &Flags) -> Result<(), CliError> {
    let molecule = flags.molecule()?;
    let bond = flags.bond(molecule)?;
    let ratio = flags.ratio()?;
    let (run, exact, report) = vqe_point(molecule, bond, ratio)?;
    outln!(
        "{} @ {bond} Å, ratio {:.0}%",
        molecule.name(),
        ratio * 100.0
    );
    outln!(
        "  parameters   : {} of {}",
        report.kept_parameters,
        report.original_parameters
    );
    outln!("  VQE energy   : {:.6} Ha", run.energy);
    outln!("  exact energy : {exact:.6} Ha");
    outln!("  error        : {:+.2e} Ha", run.energy - exact);
    outln!("  iterations   : {}", run.iterations);
    outln!("  evaluations  : {}", run.evaluations);
    Ok(())
}

/// The durable pipeline: the build through the SCF retry ladder,
/// compressed VQE, then fabrication-yield Monte Carlo, both budget-aware
/// and resumable, then the exact reference and the evaluator cross-check.
/// Completed stages are deterministic, so a resumed run recomputes them
/// bit-identically and restores only the interrupted stage from its
/// checkpoint.
pub(crate) fn cmd_run(flags: &Flags) -> Result<(), CliError> {
    let molecule = flags.molecule()?;
    let bond = flags.bond(molecule)?;
    let ratio = flags.ratio()?;
    let base_samples = flags.positive("samples")?;
    let threshold: f64 = flags.number("degrade-threshold")?;
    if !(threshold > 0.0 && threshold <= 1.0) {
        return Err(CliError::Usage(
            "--degrade-threshold must be in (0, 1]".to_string(),
        ));
    }
    let resume = flags.is_set("resume");
    let store = flags
        .get("checkpoint")
        .map(|dir| Checkpoints::new(dir, resume));
    if resume && store.is_none() {
        return Err(CliError::Usage(
            "--resume requires --checkpoint DIR".to_string(),
        ));
    }
    // Unlimited when neither budget is given; the scarcer limit wins when
    // both are.
    let mut budget = flags
        .seconds("deadline")?
        .map_or_else(Budget::unlimited, Budget::wall_clock);
    if let Some(ticks) = flags.opt("budget-iters")? {
        budget = budget.with_max_ticks(ticks);
    }

    let root = stages::root();
    let (system, scf_retries) = stages::build(molecule, bond, &mut FaultPlan::none())?;
    let (ir, report) = stages::ansatz(&system, ratio);
    let result = stages::vqe(&system, &ir, &budget, store.as_ref())?;
    let estimate = stages::yield_mc(base_samples, threshold, &budget, store.as_ref())?;
    // The run completed: stale stage checkpoints must not leak into the
    // next invocation.
    if let Some(store) = &store {
        store.clear();
    }
    let exact = stages::reference(&system);
    let CrossCheck {
        grouped,
        clustered,
        stats,
    } = stages::crosscheck(&system, &ir, &result.params);
    drop(root);

    outln!(
        "{} @ {bond} Å, ratio {:.0}%",
        molecule.name(),
        ratio * 100.0
    );
    outln!("  SCF retries  : {scf_retries}");
    outln!(
        "  parameters   : {} of {}",
        report.kept_parameters,
        report.original_parameters
    );
    outln!("  VQE energy   : {:.6} Ha", result.energy);
    outln!("  energy bits  : 0x{}", f64_to_hex(result.energy));
    // The VQE drivers take the sector path exactly when this build succeeds.
    let evaluator = match SectorAnsatz::build(system.qubit_hamiltonian(), &ir) {
        Ok(sector) => format!("sector {}/{}", sector.dim(), 1u64 << ir.num_qubits()),
        Err(_) => "grouped".to_string(),
    };
    outln!(
        "  evaluator    : {evaluator} (cross-check grouped {grouped:.9} / clustered {clustered:.9})"
    );
    outln!(
        "  H clusters   : {} over {} terms (largest {}, fused {}, Clifford depth {})",
        stats.clusters,
        stats.terms,
        stats.largest,
        stats.fused,
        stats.clifford_depth
    );
    outln!("  exact energy : {exact:.6} Ha");
    outln!("  error        : {:+.2e} Ha", result.energy - exact);
    outln!("  iterations   : {}", result.iterations);
    let samples = estimate.samples;
    if samples != base_samples {
        outln!("  yield samples: {samples} (degraded from {base_samples})");
    } else {
        outln!("  yield samples: {samples}");
    }
    outln!("  yield (xtree): {:.4}", estimate.yield_rate);
    outln!("  budget ticks : {}", budget.ticks_used());
    Ok(())
}

pub(crate) fn cmd_scan(flags: &Flags) -> Result<(), CliError> {
    let molecule = flags.molecule()?;
    let ratio = flags.ratio()?;
    let eq = molecule.equilibrium_bond_length();
    let from = flags.get_f64("from", (eq - 0.3).max(0.3))?;
    let to = flags.get_f64("to", eq + 0.3)?;
    let step: f64 = flags.number("step")?;
    if step <= 0.0 || to < from {
        return Err(CliError::Usage(
            "scan needs --from ≤ --to and --step > 0".to_string(),
        ));
    }
    let first_failure = scan(molecule, ratio, (from, to, step), |row| outln!("{row}"));
    first_failure.map_or(Ok(()), |e| Err(e.into()))
}

/// Emits a header and one row per bond length in `from..=to`: the VQE
/// and exact energies, or the typed error of the stage that failed. A
/// failed bond does not stop the scan; the first failure is returned.
pub(crate) fn scan(
    molecule: Benchmark,
    ratio: f64,
    (from, to, step): (f64, f64, f64),
    mut emit: impl FnMut(&str),
) -> Option<PcdError> {
    emit("bond (Å)   VQE (Ha)      exact (Ha)");
    let mut first_failure = None;
    let mut bond = from;
    while bond <= to + 1e-9 {
        match vqe_point(molecule, bond, ratio) {
            Ok((run, exact, _)) => emit(&format!(
                "{bond:<9.2}  {:>11.6}   {exact:>11.6}",
                run.energy
            )),
            Err(e) => {
                emit(&format!("{bond:<9.2}  error: {e}"));
                first_failure.get_or_insert(e);
            }
        }
        bond += step;
    }
    first_failure
}

pub(crate) fn cmd_compile(flags: &Flags) -> Result<(), CliError> {
    let molecule = flags.molecule()?;
    let ratio = flags.ratio()?;
    let arch = parse_arch(flags.get("arch").unwrap_or_default())?;
    let which = flags.get("compiler").unwrap_or_default();
    let (system, _) = stages::build(
        molecule,
        molecule.equilibrium_bond_length(),
        &mut FaultPlan::none(),
    )?;
    if arch.num_qubits() < system.num_qubits() {
        return Err(CliError::Usage(format!(
            "{} needs {} qubits but {} has {}",
            molecule.name(),
            system.num_qubits(),
            arch.name(),
            arch.num_qubits()
        )));
    }
    let (ir, _) = stages::ansatz(&system, ratio);

    outln!("{} at {:.0}% on {}", molecule.name(), ratio * 100.0, arch);
    if which == "mtr" || which == "both" {
        if arch.root().is_some() {
            let p = compile_mtr(&ir, &arch);
            outln!(
                "  MtR   : {} original CNOTs, +{} added ({} swaps)",
                p.original_cnots(),
                p.added_cnots(),
                p.swap_count()
            );
        } else {
            outln!("  MtR   : (skipped — requires a tree architecture)");
        }
    }
    if which == "sabre" || which == "both" {
        let p = compile_sabre(&ir, &arch, 1);
        outln!(
            "  SABRE : {} original CNOTs, +{} added ({} swaps)",
            p.original_cnots(),
            p.added_cnots(),
            p.swap_count()
        );
    }
    Ok(())
}

pub(crate) fn cmd_adapt(flags: &Flags) -> Result<(), CliError> {
    use pauli_codesign::ansatz::uccsd::enumerate_generalized_excitations;
    use pauli_codesign::vqe::adapt::{
        pool_from_excitations, run_adapt_vqe, uccsd_pool, AdaptOptions,
    };
    let molecule = flags.molecule()?;
    let bond = flags.bond(molecule)?;
    let (system, _) = stages::build(molecule, bond, &mut FaultPlan::none())?;
    let m = system.num_qubits() / 2;
    let pool = match flags.get("pool").unwrap_or_default() {
        "plain" => uccsd_pool(m, system.num_active_electrons()),
        "generalized" => {
            pool_from_excitations(system.num_qubits(), &enumerate_generalized_excitations(m))
        }
        other => return Err(CliError::Usage(format!("unknown pool `{other}`"))),
    };
    let r = run_adapt_vqe(
        system.qubit_hamiltonian(),
        system.hartree_fock_state(),
        &pool,
        AdaptOptions::default(),
    );
    let exact = system.exact_ground_state_energy();
    outln!(
        "{} @ {bond} Å — ADAPT-VQE ({} pool operators)",
        molecule.name(),
        pool.len()
    );
    outln!(
        "  energy     : {:.6} Ha (exact {exact:.6}, error {:+.2e})",
        r.energy,
        r.energy - exact
    );
    outln!(
        "  operators  : {} selected ({:?})",
        r.selected.len(),
        r.selected
    );
    outln!("  iterations : {}", r.total_iterations);
    outln!("  converged  : {}", r.converged);
    Ok(())
}

pub(crate) fn cmd_excited(flags: &Flags) -> Result<(), CliError> {
    use pauli_codesign::vqe::vqd::{run_vqd, VqdOptions};
    let molecule = flags.molecule()?;
    let bond = flags.bond(molecule)?;
    let k = flags.positive("states")?;
    let (system, _) = stages::build(molecule, bond, &mut FaultPlan::none())?;
    let ir = UccsdAnsatz::for_system(&system).into_ir();
    let states = run_vqd(system.qubit_hamiltonian(), &ir, k, VqdOptions::default());
    outln!("{} @ {bond} Å — VQD ladder", molecule.name());
    for (i, s) in states.iter().enumerate() {
        outln!(
            "  state {i}: E = {:.6} Ha ({} iters, residual overlap {:.1e})",
            s.energy,
            s.iterations,
            s.max_overlap_with_lower
        );
    }
    Ok(())
}

pub(crate) fn cmd_qasm(flags: &Flags) -> Result<(), CliError> {
    let molecule = flags.molecule()?;
    let ratio = flags.ratio()?;
    let mut plan = FaultPlan::none();
    let (system, _) = stages::build(molecule, molecule.equilibrium_bond_length(), &mut plan)?;
    let (ir, _) = stages::ansatz(&system, ratio);
    let (compiled, _) = stages::compile(&ir, &stages::xtree_for(&system), &mut plan)?;
    let qasm = compiled.circuit().to_qasm();
    match flags.get("out") {
        Some(path) => {
            std::fs::write(path, &qasm).map_err(|e| format!("writing {path}: {e}"))?;
            outln!(
                "wrote {} gates ({} CNOTs) to {path}",
                compiled.circuit().gate_count(),
                compiled.total_cnots()
            );
        }
        None => out!("{qasm}"),
    }
    Ok(())
}

pub(crate) fn cmd_yield(flags: &Flags) -> Result<(), CliError> {
    let arch = parse_arch(flags.get("arch").unwrap_or_default())?;
    let sigma: f64 = flags.number("sigma")?;
    if sigma < 0.0 {
        return Err(CliError::Usage("--sigma must be ≥ 0".to_string()));
    }
    let samples = flags.positive("samples")?;
    let est = simulate_yield(&arch, &CollisionModel::default(), sigma, samples, 17);
    outln!("{arch}");
    outln!("  sigma           : {sigma} GHz");
    outln!("  samples         : {samples}");
    outln!("  yield           : {:.4}", est.yield_rate);
    Ok(())
}
