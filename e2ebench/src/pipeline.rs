//! `pipeline_large`: the `pcd run` stage chain (chemistry → compressed
//! UCCSD → VQE → yield Monte Carlo → exact reference → evaluator
//! cross-check) on the 12-qubit molecules, with the kernel probes of the
//! traced run on the 14-qubit one, the Table II compiles and the batch
//! path.

use std::hint::black_box;
use std::time::Instant;

use ansatz::compress;
use ansatz::uccsd::UccsdAnsatz;
use ansatz::PauliIr;
use arch::{simulate_yield, CollisionModel, Topology};
use chem::basis::build_basis;
use chem::integrals::compute_ao_integrals;
use chem::{Benchmark, MolecularSystem};
use numeric::Complex64;
use pauli::ClusteredSum;
use sim::Statevector;
use vqe::driver::{run_vqe, VqeOptions, VqeResult};

use crate::inputs::{self, Rng, PIPELINE_GRID, PIPELINE_RATIO, PROBE_GRID};
use crate::measure::{llc_bytes, median_secs, one_vs_two_threads, timed, OUTSIDE};
use crate::{compile, scan, Layers, PassReport, Workload};

/// `pcd run`'s yield stage: X-Tree 17, σ = 0.04 GHz, 20k samples, seed 17.
const YIELD_SIGMA: f64 = 0.04;
const YIELD_SAMPLES: usize = 20_000;
const YIELD_SEED: u64 = 17;

/// The evaluators must agree at the optimum to this many Hartree.
const CROSSCHECK_TOL: f64 = 1e-9;

/// Repetitions of each probe; the median is reported.
const PROBE_REPS: usize = 5;

/// The `par` budget of the passes and probes. The ROADMAP states its VQE
/// and roofline targets at one thread. One thread is also steadier on a
/// shared host: at 2 threads every 12-qubit sweep spawns and joins a
/// thread, and the pass time then follows the host's scheduling. The
/// 2-thread behaviour is measured by the `par.speedup_2t` replays.
pub const PASS_THREADS: usize = 1;

pub struct Pipeline {
    seed: u64,
    inputs: Vec<(Benchmark, f64)>,
    /// The probe molecule at its seeded bond.
    probe: (Benchmark, f64),
}

/// Picks one grid bond per molecule and an order, then runs the chain once
/// on H2 so every layer's first-call cost is paid before timing.
pub fn setup(seed: u64) -> Result<Pipeline, String> {
    let mut rng = Rng::new(seed);
    let mut inputs: Vec<(Benchmark, f64)> = PIPELINE_GRID
        .iter()
        .map(|(molecule, grid)| (*molecule, grid[rng.below(grid.len())]))
        .collect();
    rng.shuffle(&mut inputs);
    let (molecule, grid) = PROBE_GRID;
    let probe = (molecule, grid[rng.below(grid.len())]);
    let warm = Benchmark::H2;
    par::with_threads(PASS_THREADS, || {
        run_chain(warm, warm.equilibrium_bond_length(), OUTSIDE)
    })?;
    Ok(Pipeline {
        seed,
        inputs,
        probe,
    })
}

/// Chemistry, compressed ansatz, and VQE: the stages every use shares.
fn solve(
    molecule: Benchmark,
    bond: f64,
    pass: u64,
) -> Result<(MolecularSystem, PauliIr, VqeResult), String> {
    let (system, _) = timed("bench.chem.build", pass, || molecule.build(bond));
    let system = system.map_err(|e| format!("chemistry: {e}"))?;
    let h = system.qubit_hamiltonian();
    let (ir, _) = timed("bench.ansatz.compress", pass, || {
        let full = UccsdAnsatz::for_system(&system).into_ir();
        compress(&full, h, PIPELINE_RATIO).0
    });
    let (run, _) = timed("bench.vqe.run", pass, || {
        run_vqe(h, &ir, VqeOptions::default())
    });
    let run = run.map_err(|e| format!("vqe: {e}"))?;
    Ok((system, ir, run))
}

/// One `pcd run`: every stage in its order, each in its own span.
fn run_chain(molecule: Benchmark, bond: f64, pass: u64) -> Result<Outputs, String> {
    let (system, ir, run) = solve(molecule, bond, pass)?;
    let h = system.qubit_hamiltonian();
    let (estimate, yield_secs) = timed("bench.arch.yield", pass, || {
        let topology = Topology::xtree(17);
        simulate_yield(
            &topology,
            &CollisionModel::default(),
            YIELD_SIGMA,
            YIELD_SAMPLES,
            YIELD_SEED,
        )
    });
    let (exact, _) = timed("bench.numeric.exact", pass, || {
        system.exact_ground_state_energy()
    });
    let (state, _) = timed("bench.vqe.prepare", pass, || {
        vqe::prepare_state(&ir, &run.params)
    });
    let ((per_term, clustered), _) = timed("bench.pauli.crosscheck", pass, || {
        let clusters = ClusteredSum::build(h);
        (state.expectation(h), state.expectation_with(&clusters))
    });
    Ok(Outputs {
        energy: run.energy,
        converged: run.converged,
        exact,
        hartree_fock: system.hartree_fock_energy(),
        per_term,
        clustered,
        yield_samples: estimate.samples,
        yield_rate: estimate.yield_rate,
        yield_secs,
    })
}

/// What one chain produced that the checks look at.
struct Outputs {
    energy: f64,
    converged: bool,
    exact: f64,
    hartree_fock: f64,
    per_term: f64,
    clustered: f64,
    yield_samples: usize,
    yield_rate: f64,
    yield_secs: f64,
}

fn check(molecule: Benchmark, bond: f64, out: &Outputs) -> Result<(), String> {
    if !out.converged {
        return Err("VQE did not converge".to_string());
    }
    inputs::check_bound(out.energy, out.exact, out.hartree_fock)?;
    if (out.per_term - out.clustered).abs() > CROSSCHECK_TOL {
        return Err(format!(
            "cross-check: per-term {} vs clustered {}",
            out.per_term, out.clustered
        ));
    }
    if out.yield_samples != YIELD_SAMPLES || !(0.0..=1.0).contains(&out.yield_rate) {
        return Err(format!(
            "yield: {} samples, rate {}",
            out.yield_samples, out.yield_rate
        ));
    }
    inputs::check_vqe(molecule, bond, PIPELINE_RATIO, out.energy)?;
    inputs::check_exact(molecule, bond, out.exact)
}

impl Workload for Pipeline {
    fn pass(&mut self, pass: u64) -> PassReport {
        par::with_threads(PASS_THREADS, || {
            let mut report = PassReport::default();
            let (mut samples, mut yield_secs) = (0, 0.0);
            for &(molecule, bond) in &self.inputs {
                let start = Instant::now();
                let outcome = run_chain(molecule, bond, pass);
                report.latencies.push(start.elapsed().as_secs_f64());
                let checked = outcome.and_then(|out| {
                    samples += out.yield_samples;
                    yield_secs += out.yield_secs;
                    check(molecule, bond, &out)
                });
                report.check(format_args!("{molecule} @ {bond} Å"), checked);
            }
            report
                .layers
                .insert("arch.yield_samples_per_s", samples as f64 / yield_secs);
            report
        })
    }

    fn probes(&mut self, layers: &mut Layers) -> PassReport {
        let mut report = par::with_threads(PASS_THREADS, || {
            let mut report = self.probe_kernels(layers);
            compile::probe(layers, &mut report);
            report
        });
        scan::probe(self.seed, layers, &mut report);
        report
    }
}

impl Pipeline {
    /// Solves the probe molecule, then times single kernel calls at its
    /// θ*, the roofline pair (evolution sweep vs. copy bandwidth), the
    /// 1- vs 2-thread replays, and the integral build of every input.
    fn probe_kernels(&self, layers: &mut Layers) -> PassReport {
        let mut report = PassReport::default();
        let (molecule, bond) = self.probe;
        let solved = solve(molecule, bond, OUTSIDE).and_then(|(system, ir, run)| {
            if !run.converged {
                return Err("VQE did not converge".to_string());
            }
            inputs::check_recorded_bound(molecule, bond, run.energy)?;
            inputs::check_vqe(molecule, bond, PIPELINE_RATIO, run.energy)?;
            Ok((system, ir, run.params))
        });
        let (system, ir, theta) = match solved {
            Ok(solved) => solved,
            Err(e) => {
                report.check(format_args!("probe {molecule} @ {bond} Å"), Err(e));
                return report;
            }
        };
        report.check(format_args!("probe {molecule} @ {bond} Å"), Ok(()));
        let h = system.qubit_hamiltonian();
        let (ir, theta) = (&ir, theta.as_slice());

        let (prepare, _) = timed("bench.probe.prepare", OUTSIDE, || {
            median_secs(PROBE_REPS, || {
                black_box(vqe::prepare_state(ir, theta));
            })
        });
        layers.insert("vqe.prepare_ms", prepare * 1e3);

        // The passes run at one thread, so the par counters are read over
        // the 1- vs 2-thread replays.
        let par_before = obs::snapshot();
        let ((grad_1t, grad_2t), _) = timed("bench.probe.grad", OUTSIDE, || {
            one_vs_two_threads(PROBE_REPS, || {
                black_box(vqe::energy_and_gradient(h, ir, theta));
            })
        });
        layers.insert("vqe.grad_ms", grad_1t * 1e3);

        let psi = vqe::prepare_state(ir, theta);
        let dim = psi.amplitudes().len();
        let (apply, _) = timed("bench.probe.h_apply", OUTSIDE, || {
            let mut out = vec![Complex64::ZERO; dim];
            median_secs(PROBE_REPS, || h.apply(psi.amplitudes(), &mut out))
        });
        layers.insert("pauli.h_apply_ms", apply * 1e3);

        // One Pauli-evolution sweep reads and writes every amplitude once.
        let sweep_bytes = (2 * dim * std::mem::size_of::<Complex64>()) as f64;
        let (evolve, _) = timed("bench.probe.evolution", OUTSIDE, || {
            median_secs(PROBE_REPS, || {
                let mut sv = Statevector::basis_state(ir.num_qubits(), ir.initial_state());
                for e in ir.entries() {
                    sv.apply_pauli_evolution(&e.string, e.rotation_angle(theta[e.param]));
                }
                black_box(sv);
            })
        });
        let sweeps = ir.len() as f64;
        layers.insert("sim.evolution_ns", evolve / sweeps * 1e9);
        layers.insert("sim.sweep_gbps", sweep_bytes * sweeps / evolve / 1e9);

        // Copy bandwidth on a buffer the size of the state.
        const COPIES: usize = 256;
        let (copy, _) = timed("bench.probe.copy", OUTSIDE, || {
            let src = psi.amplitudes().to_vec();
            let mut dst = vec![Complex64::ZERO; dim];
            median_secs(PROBE_REPS, || {
                for _ in 0..COPIES {
                    dst.copy_from_slice(black_box(&src));
                    black_box(&mut dst);
                }
            })
        });
        layers.insert("sim.copy_gbps", sweep_bytes * COPIES as f64 / copy / 1e9);
        eprintln!(
            "probe: {molecule} at {bond} Å, {} qubits, state and copy buffer {} B each, LLC {} B",
            ir.num_qubits(),
            std::mem::size_of_val(psi.amplitudes()),
            llc_bytes().unwrap_or(0)
        );

        let ((yield_1t, yield_2t), _) = timed("bench.probe.yield", OUTSIDE, || {
            let topology = Topology::xtree(17);
            let model = CollisionModel::default();
            one_vs_two_threads(PROBE_REPS, || {
                black_box(simulate_yield(
                    &topology,
                    &model,
                    YIELD_SIGMA,
                    YIELD_SAMPLES,
                    YIELD_SEED,
                ));
            })
        });
        let par_after = obs::snapshot();
        for (metric, counter) in [("par.tasks", "par.tasks"), ("par.threads", "par.threads")] {
            let delta = par_after.counter(counter) - par_before.counter(counter);
            layers.insert(metric, delta as f64);
        }
        layers.insert("par.speedup_2t.grad", grad_1t / grad_2t);
        layers.insert("par.speedup_2t.yield", yield_1t / yield_2t);
        layers.insert(
            "par.speedup_2t",
            (grad_1t + yield_1t) / (grad_2t + yield_2t),
        );

        let (integrals, _) = timed("bench.probe.integrals", OUTSIDE, || {
            self.inputs
                .iter()
                .map(|&(molecule, bond)| {
                    let m = molecule.molecule(bond);
                    median_secs(PROBE_REPS, || {
                        black_box(compute_ao_integrals(&m, &build_basis(&m)));
                    })
                })
                .sum::<f64>()
        });
        layers.insert("chem.integrals_ms", integrals * 1e3);
        report
    }
}
