//! The batch path (`pcd batch`), probed in `pipeline_large`'s traced run:
//! bond scans of the ≤10-qubit molecules at two compression ratios, each
//! scan submitted as one batch to the supervisor, then every job replayed
//! directly to see how busy the workers were.

use std::hint::black_box;

use ansatz::compress;
use ansatz::uccsd::UccsdAnsatz;
use arch::Topology;
use chem::basis::build_basis;
use compiler::pipeline::compile_mtr;
use supervisor::{run_batch, JobRecord, JobSpec, JobState, SupervisorConfig};
use vqe::driver::{run_vqe, VqeOptions};

use crate::inputs::{self, Rng, SCAN_MOLECULES, SCAN_RATIOS};
use crate::measure::{timed, OUTSIDE};
use crate::{Layers, PassReport};

/// Supervisor workers; every job is pinned to one thread, so this is the
/// number of busy compute threads.
const WORKERS: usize = 2;

/// The 8 bond scans (56 jobs): a molecule's 7 points at one ratio each,
/// with the scans and the points of each in a seeded order.
fn scans(seed: u64) -> Vec<Vec<JobSpec>> {
    let mut rng = Rng::new(seed);
    let mut scans = Vec::new();
    for molecule in SCAN_MOLECULES {
        for ratio in SCAN_RATIOS {
            let mut jobs: Vec<JobSpec> = molecule
                .bond_length_scan()
                .into_iter()
                .map(|bond| JobSpec {
                    id: format!("{}-{bond:.3}-{ratio}", molecule.name()),
                    benchmark: molecule,
                    bond: Some(bond),
                    ratio,
                })
                .collect();
            rng.shuffle(&mut jobs);
            scans.push(jobs);
        }
    }
    rng.shuffle(&mut scans);
    scans
}

fn check_record(spec: &JobSpec, record: &JobRecord) -> Result<u64, String> {
    let JobState::Done { energy_bits, .. } = record.state else {
        return Err(format!("job ended {}", record.state.label()));
    };
    let energy = f64::from_bits(energy_bits);
    let bond = spec.bond_length();
    inputs::check_recorded_bound(spec.benchmark, bond, energy)?;
    inputs::check_vqe(spec.benchmark, bond, spec.ratio, energy)?;
    Ok(energy_bits)
}

/// Runs every scan as one batch with 2 workers and checks every record,
/// then replays every job directly, one thread each like the workers, and
/// checks that its energy is bit-identical to the batch's. Sets the
/// `supervisor.*` layers. Every molecule's basis (NaH pays the one-time
/// STO-3G 3sp fit here) and a one-job batch are warmed up first.
pub fn probe(seed: u64, layers: &mut Layers, report: &mut PassReport) {
    let config = SupervisorConfig {
        workers: WORKERS,
        ..SupervisorConfig::default()
    };
    for molecule in SCAN_MOLECULES {
        black_box(build_basis(
            &molecule.molecule(molecule.equilibrium_bond_length()),
        ));
    }
    let warm = JobSpec {
        id: "warm-up".to_string(),
        benchmark: chem::Benchmark::H2,
        bond: None,
        ratio: 1.0,
    };
    let warmed = run_batch(&[warm], &config).map(|_| ());
    report.audit("warm-up batch", warmed.map_err(|e| e.to_string()));

    let before = obs::snapshot();
    let mut batch_secs = 0.0;
    let mut done = Vec::new();
    for jobs in scans(seed) {
        let (batch, secs) = timed("bench.supervisor.run_batch", OUTSIDE, || {
            run_batch(&jobs, &config)
        });
        batch_secs += secs;
        let records = match batch {
            Ok(batch) => batch.records,
            Err(e) => {
                for spec in &jobs {
                    report.check(&spec.id, Err(format!("batch failed: {e}")));
                }
                continue;
            }
        };
        for (spec, record) in jobs.into_iter().zip(&records) {
            match check_record(&spec, record) {
                Ok(bits) => {
                    report.check(&spec.id, Ok(()));
                    done.push((spec, bits));
                }
                Err(e) => report.check(&spec.id, Err(e)),
            }
        }
    }
    let retries = obs::snapshot().counter("supervisor.retries") - before.counter("supervisor.retries");

    let direct: f64 = par::with_threads(1, || {
        done.iter()
            .map(|(spec, bits)| {
                let (outcome, secs) = timed("bench.probe.replay", OUTSIDE, || {
                    let system = spec
                        .benchmark
                        .build(spec.bond_length())
                        .map_err(|e| format!("chemistry: {e}"))?;
                    let h = system.qubit_hamiltonian();
                    let full = UccsdAnsatz::for_system(&system).into_ir();
                    let (ir, _) = compress(&full, h, spec.ratio);
                    let run =
                        run_vqe(h, &ir, VqeOptions::default()).map_err(|e| format!("vqe: {e}"))?;
                    let topology = Topology::xtree(system.num_qubits().max(5) + 1);
                    black_box(compile_mtr(&ir, &topology));
                    Ok::<_, String>(run)
                });
                let same = match outcome {
                    Ok(run) if run.converged && run.energy.to_bits() == *bits => Ok(()),
                    Ok(run) => Err(format!(
                        "direct energy {} (converged {}) differs from the batch's {}",
                        run.energy,
                        run.converged,
                        f64::from_bits(*bits)
                    )),
                    Err(e) => Err(e),
                };
                report.check(format_args!("replay {}", spec.id), same);
                secs
            })
            .sum()
    });
    layers.insert("supervisor.run_batch_ms", batch_secs * 1e3);
    layers.insert("supervisor.busy_frac", direct / (WORKERS as f64 * batch_secs));
    layers.insert("supervisor.retries", retries as f64);
}
