//! `pcd bench`: the parallel hot paths serial vs parallel, six in-bench
//! oracle gates, the `--baseline`/`--history` regression gates, and the
//! `--obs-overhead` budget.

use std::collections::BTreeMap;

use pauli_codesign::ansatz::uccsd::UccsdAnsatz;
use pauli_codesign::arch::{simulate_yield, CollisionModel, Topology};
use pauli_codesign::chem::Benchmark;
use pauli_codesign::report::{compare_medians, parse_bench_medians};
use pauli_codesign::resilience::stages;
use pauli_codesign::resilience::PcdError;
use pauli_codesign::vqe::SectorAnsatz;

use crate::{CliError, Flags};

/// One benchmark measurement destined for the JSON report.
pub(crate) struct BenchRecord {
    pub(crate) name: String,
    pub(crate) median_ns: u64,
    pub(crate) threads: usize,
    pub(crate) n_qubits: usize,
}

/// Deterministic pseudo-random Pauli sum (no chemistry needed for kernels).
fn synthetic_hamiltonian(n: usize, terms: usize) -> pauli_codesign::pauli::WeightedPauliSum {
    use pauli_codesign::pauli::{PauliString, WeightedPauliSum};
    let mut h = WeightedPauliSum::new(n);
    let mut state = 0x1234_5678_9abc_def0u64;
    for k in 0..terms {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let x = state & ((1 << n) - 1);
        state = state.wrapping_mul(0x2545_F491_4F6C_DD1D);
        let z = state & ((1 << n) - 1);
        h.push(
            0.01 * (k as f64 + 1.0),
            PauliString::from_symplectic(n, x, z),
        );
    }
    h
}

/// Deterministic normalized pseudo-random statevector.
fn synthetic_state(n_qubits: usize) -> pauli_codesign::sim::Statevector {
    use pauli_codesign::numeric::Complex64;
    let mut s = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        (s >> 11) as f64 / (1u64 << 53) as f64 - 0.5
    };
    let amps: Vec<Complex64> = (0..1usize << n_qubits)
        .map(|_| Complex64::new(next(), next()))
        .collect();
    let norm = amps.iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt();
    pauli_codesign::sim::Statevector::from_amplitudes(amps.into_iter().map(|z| z / norm).collect())
}

/// Host metadata pinned into bench artifacts, so the drift gate can tell
/// a hardware change from a real regression: worker threads the run used,
/// cores the host offers, and the git revision that produced the numbers.
fn bench_meta_json(threads: usize) -> String {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(0);
    let git_rev = std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    format!("{{\"threads\": {threads}, \"cores\": {cores}, \"git_rev\": \"{git_rev}\"}}")
}

fn write_bench_json(
    path: &str,
    records: &[BenchRecord],
    meta: &str,
    clusters: Option<&str>,
) -> Result<(), String> {
    let mut json = String::from("{\n");
    json.push_str(&format!("  \"_meta\": {meta},\n"));
    if let Some(c) = clusters {
        json.push_str(&format!("  \"_clusters\": {c},\n"));
    }
    for (i, r) in records.iter().enumerate() {
        json.push_str(&format!(
            "  \"{}\": {{\"median_ns\": {}, \"threads\": {}, \"n_qubits\": {}}}{}\n",
            r.name,
            r.median_ns,
            r.threads,
            r.n_qubits,
            if i + 1 < records.len() { "," } else { "" }
        ));
    }
    json.push_str("}\n");
    // Atomic rename: a crash mid-bench must not leave a truncated report
    // for a later --baseline comparison to choke on.
    obs::atomic_write(path, json.as_bytes()).map_err(|e| format!("writing {path}: {e}"))
}

/// Compares fresh measurements against a baseline's medians and
/// returns one line per benchmark slower than `tolerance` (relative).
/// Benchmarks missing from the baseline are skipped — a new benchmark
/// cannot regress.
pub(crate) fn bench_regressions(
    baseline: &BTreeMap<String, u64>,
    records: &[BenchRecord],
    tolerance: f64,
) -> Vec<String> {
    let now = records.iter().map(|r| (r.name.as_str(), r.median_ns));
    compare_medians(now, baseline, tolerance)
        .1
        .iter()
        .map(|d| {
            format!(
                "{}: {} ns vs baseline {} ns (+{:.1}%)",
                d.name,
                d.now_ns,
                d.baseline_ns,
                (d.ratio - 1.0) * 100.0
            )
        })
        .collect()
}

/// Parses a `--history` file: `{"reports": [{name: median_ns, ...}, ...]}`
/// with the oldest report first. A missing file is an empty history.
pub(crate) fn parse_bench_history(text: &str) -> Result<Vec<BTreeMap<String, u64>>, String> {
    let root = obs::json::parse(text).map_err(|e| format!("parsing history: {e}"))?;
    let Some(obs::json::JsonValue::Array(entries)) = root.get("reports") else {
        return Err("history: missing `reports` array".to_string());
    };
    entries
        .iter()
        .enumerate()
        .map(|(i, entry)| match entry {
            obs::json::JsonValue::Object(fields) => fields
                .iter()
                .map(|(name, v)| {
                    v.as_u64()
                        .map(|ns| (name.clone(), ns))
                        .ok_or_else(|| format!("history report {i}: `{name}` is not an integer"))
                })
                .collect(),
            _ => Err(format!("history report {i} is not an object")),
        })
        .collect()
}

fn write_bench_history(
    path: &str,
    reports: &[BTreeMap<String, u64>],
    meta: &str,
) -> Result<(), String> {
    let mut json = format!("{{\"_meta\": {meta},\n\"reports\": [\n");
    for (i, report) in reports.iter().enumerate() {
        json.push_str("  {");
        for (j, (name, ns)) in report.iter().enumerate() {
            json.push_str(&format!(
                "\"{name}\": {ns}{}",
                if j + 1 < report.len() { ", " } else { "" }
            ));
        }
        json.push_str(if i + 1 < reports.len() { "},\n" } else { "}\n" });
    }
    json.push_str("]}\n");
    obs::atomic_write(path, json.as_bytes()).map_err(|e| format!("writing {path}: {e}"))
}

/// Cumulative-drift check over the rolling window: the newest report
/// (last) is compared against the *oldest* in the window, so a sequence of
/// small slowdowns that each pass the per-run `--tolerance` still fails
/// once their product creeps past `tolerance`.
pub(crate) fn bench_drift(window: &[BTreeMap<String, u64>], tolerance: f64) -> Vec<String> {
    let (Some(oldest), Some(newest)) = (window.first(), window.last()) else {
        return Vec::new();
    };
    if window.len() < 2 {
        return Vec::new();
    }
    let now = newest.iter().map(|(name, &ns)| (name.as_str(), ns));
    compare_medians(now, oldest, tolerance)
        .1
        .iter()
        .map(|d| {
            format!(
                "{}: {} ns vs {} ns {} report(s) ago (+{:.1}% cumulative)",
                d.name,
                d.now_ns,
                d.baseline_ns,
                window.len() - 1,
                (d.ratio - 1.0) * 100.0
            )
        })
        .collect()
}

/// An in-bench oracle gate: prints `label` with the medians of the
/// `oracle` and `fast` records and their ratio, and fails the run
/// (exit 21) unless `fast` beats its oracle.
fn oracle_gate(
    records: &[BenchRecord],
    label: &str,
    oracle: &str,
    fast: &str,
) -> Result<(), CliError> {
    let median = |name: &str| {
        records
            .iter()
            .find(|r| r.name == name)
            .map_or(0, |r| r.median_ns)
    };
    let (oracle_ns, fast_ns) = (median(oracle), median(fast));
    outln!(
        "{label:<28} {oracle_ns:>14} {fast_ns:>14} {:>8.2}x",
        oracle_ns as f64 / fast_ns.max(1) as f64
    );
    if fast_ns >= oracle_ns {
        return Err(CliError::BenchRegression(vec![format!(
            "{fast}: {fast_ns} ns not faster than {oracle} {oracle_ns} ns"
        )]));
    }
    Ok(())
}

/// A benchmark record for the JSON report.
pub(crate) fn record(name: &str, median_ns: u64, threads: usize, n_qubits: usize) -> BenchRecord {
    let name = name.to_string();
    BenchRecord {
        name,
        median_ns,
        threads,
        n_qubits,
    }
}

pub(crate) fn cmd_bench(flags: &Flags) -> Result<(), CliError> {
    use pauli_codesign::chem::basis::build_basis;
    use pauli_codesign::chem::integrals::{self, EriTensor};
    use pauli_codesign::circuit::Gate;
    use pauli_codesign::numeric::RealMatrix;
    use pauli_codesign::pauli::PauliString;
    use pauli_codesign::{par, vqe};

    if flags.is_set("obs-overhead") {
        return cmd_obs_overhead(flags);
    }

    let smoke = flags.is_set("smoke");
    let out_path = flags.get("out").unwrap_or_default().to_string();
    let n_qubits = flags.opt("qubits")?.unwrap_or(if smoke { 12 } else { 14 });
    if !(2..=24).contains(&n_qubits) {
        return Err(CliError::Usage("--qubits must be in 2..=24".to_string()));
    }
    let (warmup, samples) = if smoke { (1, 3) } else { (3, 15) };
    let yield_samples = if smoke { 2_000 } else { 20_000 };
    let threads = par::num_threads();
    obs::enable();

    outln!(
        "pcd bench — {n_qubits}-qubit kernels, {threads} worker thread(s){}",
        if smoke { " (smoke)" } else { "" }
    );
    outln!(
        "{:<28} {:>14} {:>14} {:>9}",
        "benchmark",
        "serial (ns)",
        "parallel (ns)",
        "speedup"
    );

    let mut records: Vec<BenchRecord> = Vec::new();
    let pair = |records: &mut Vec<BenchRecord>,
                name: &str,
                size: usize,
                serial: criterion::Measurement,
                parallel: criterion::Measurement| {
        outln!(
            "{name:<28} {:>14} {:>14} {:>8.2}x",
            serial.median_ns,
            parallel.median_ns,
            serial.median_ns as f64 / parallel.median_ns.max(1) as f64
        );
        for (side, m, t) in [("serial", serial, 1), ("parallel", parallel, threads)] {
            records.push(record(&format!("{name}_{side}"), m.median_ns, t, size));
        }
    };

    // Hamiltonian expectation on a statevector, one sweep per term: the
    // oracle every faster evaluator below is gated against.
    let h = synthetic_hamiltonian(n_qubits, 64);
    let sv = synthetic_state(n_qubits);
    let serial = criterion::measure(warmup, samples, || {
        par::with_threads(1, || sv.expectation_per_term(&h))
    });
    let parallel = criterion::measure(warmup, samples, || sv.expectation_per_term(&h));
    pair(&mut records, "expectation", n_qubits, serial, parallel);

    // Cluster-diagonalized expectation on the same Hamiltonian and state.
    // The partition build is measured inside the closure — it is a
    // per-Hamiltonian cost a caller pays once, dwarfed by the sweeps. The
    // whole point of the clustered evaluator is to beat the per-term
    // serial sweep on this Hamiltonian.
    let clustered = criterion::measure(warmup, samples, || sv.expectation_clustered(&h));
    let cluster_stats = pauli_codesign::pauli::ClusteredSum::build(&h).stats();
    records.push(record(
        "expectation_clustered",
        clustered.median_ns,
        threads,
        n_qubits,
    ));
    oracle_gate(
        &records,
        "expectation_clustered",
        "expectation_serial",
        "expectation_clustered",
    )?;

    // The fused expectation (one pair sweep per flip mask, no output
    // vector) at one thread: the evaluator `pcd run`'s cross-check uses.
    let grouped = criterion::measure(warmup, samples, || {
        par::with_threads(1, || sv.expectation(&h))
    });
    records.push(record(
        "expectation_grouped",
        grouped.median_ns,
        1,
        n_qubits,
    ));
    oracle_gate(
        &records,
        "expectation_grouped",
        "expectation_serial",
        "expectation_grouped",
    )?;

    // Grouped H|ψ⟩ (one pair sweep per distinct flip mask) at one thread:
    // the Lanczos matvec and the H|ψ⟩ inside every gradient.
    let mut h_psi = vec![pauli_codesign::numeric::Complex64::ZERO; 1 << n_qubits];
    let h_apply = criterion::measure(warmup, samples, || {
        par::with_threads(1, || h.apply(sv.amplitudes(), &mut h_psi))
    });
    outln!("{:<28} {:>14}", "h_apply", h_apply.median_ns);
    records.push(record("h_apply", h_apply.median_ns, 1, n_qubits));

    // Fused adjoint gradient against its per-entry parameter-shift oracle
    // at one thread, on a chemistry-free UCCSD IR (2 electrons) and the
    // synthetic H.
    if n_qubits % 2 == 0 && n_qubits >= 4 {
        let ir = UccsdAnsatz::new(n_qubits / 2, 2).into_ir();
        let theta: Vec<f64> = (0..ir.num_parameters())
            .map(|k| 0.05 * ((k % 7) as f64 - 3.0))
            .collect();
        let fused = criterion::measure(warmup, samples, || {
            par::with_threads(1, || vqe::energy_and_gradient(&h, &ir, &theta))
        });
        let oracle = criterion::measure(warmup, samples, || {
            par::with_threads(1, || vqe::parameter_shift_gradient(&h, &ir, &theta))
        });
        records.push(record("vqe_gradient_oracle", oracle.median_ns, 1, n_qubits));
        records.push(record("vqe_gradient_fused", fused.median_ns, 1, n_qubits));
        oracle_gate(
            &records,
            "vqe_gradient (oracle/fused)",
            "vqe_gradient_oracle",
            "vqe_gradient_fused",
        )?;
    } else {
        outln!("vqe_gradient: skipped (a UCCSD register needs an even qubit count ≥ 4)");
    }

    // Exact reference of H2O at equilibrium at one thread: Lanczos on the
    // 225-state N-electron sector (CSR build included) against its oracle,
    // Lanczos on the 4,096-state Fock space.
    let h2o = Benchmark::H2O
        .build(Benchmark::H2O.equilibrium_bond_length())
        .map_err(PcdError::from)?;
    let sector = criterion::measure(warmup, samples, || {
        par::with_threads(1, || h2o.exact_ground_state_energy())
    });
    let full = criterion::measure(warmup, samples, || {
        par::with_threads(1, || h2o.qubit_hamiltonian().ground_state_energy())
    });
    let h2o_qubits = h2o.num_qubits();
    records.push(record("exact_sector", sector.median_ns, 1, h2o_qubits));
    records.push(record("exact_fullspace", full.median_ns, 1, h2o_qubits));
    oracle_gate(
        &records,
        "exact_h2o (fullspace/sector)",
        "exact_fullspace",
        "exact_sector",
    )?;

    // The VQE objective of H2O at equilibrium, ratio 0.5, at one thread:
    // energy + adjoint gradient on the 225-state electron sector (the
    // SectorAnsatz build included, as each VQE run pays it) against the
    // full-space fused path on 4,096 amplitudes.
    let (h2o_ir, _) = stages::ansatz(&h2o, 0.5);
    let h2o_h = h2o.qubit_hamiltonian();
    let h2o_theta: Vec<f64> = (0..h2o_ir.num_parameters())
        .map(|k| 0.02 * ((k % 5) as f64 - 2.0))
        .collect();
    let vqe_sector = criterion::measure(warmup, samples, || {
        par::with_threads(1, || {
            SectorAnsatz::build(h2o_h, &h2o_ir).map(|s| s.energy_and_gradient(&h2o_theta))
        })
    });
    let vqe_full = criterion::measure(warmup, samples, || {
        par::with_threads(1, || vqe::energy_and_gradient(h2o_h, &h2o_ir, &h2o_theta))
    });
    records.push(record("vqe_sector", vqe_sector.median_ns, 1, h2o_qubits));
    records.push(record("vqe_fullspace", vqe_full.median_ns, 1, h2o_qubits));
    oracle_gate(
        &records,
        "vqe_h2o (fullspace/sector)",
        "vqe_fullspace",
        "vqe_sector",
    )?;

    // AO integrals of H2O at equilibrium at one thread: the shell-pair
    // engine against its oracle, the per-function integrals (S and h per
    // element, the ERI per canonical quartet through
    // `EriTensor::from_fn_symmetric`). The two are bit-identical.
    let h2o_molecule = Benchmark::H2O.molecule(Benchmark::H2O.equilibrium_bond_length());
    let h2o_basis = build_basis(&h2o_molecule);
    let ao_engine = criterion::measure(warmup, samples, || {
        par::with_threads(1, || {
            integrals::compute_ao_integrals(&h2o_molecule, &h2o_basis)
        })
    });
    let ao_oracle = criterion::measure(warmup, samples, || {
        par::with_threads(1, || {
            let b = &h2o_basis;
            let n = b.len();
            let s = RealMatrix::from_fn(n, n, |i, j| integrals::overlap(&b[i], &b[j]));
            let t = RealMatrix::from_fn(n, n, |i, j| integrals::kinetic(&b[i], &b[j]));
            let v =
                RealMatrix::from_fn(n, n, |i, j| integrals::nuclear(&b[i], &b[j], &h2o_molecule));
            let eri = EriTensor::from_fn_symmetric(n, |p, q, r, s| {
                integrals::eri(&b[p], &b[q], &b[r], &b[s])
            });
            (s, &t + &v, eri)
        })
    });
    let nbf = h2o_basis.len();
    records.push(record("ao_integrals", ao_engine.median_ns, 1, nbf));
    records.push(record("ao_integrals_oracle", ao_oracle.median_ns, 1, nbf));
    oracle_gate(
        &records,
        "ao_integrals (oracle/engine)",
        "ao_integrals_oracle",
        "ao_integrals",
    )?;

    // Pauli-string evolution spanning the full register.
    let ops = ["X", "Y", "Z"];
    let label: String = (0..n_qubits).map(|q| ops[q % 3]).collect();
    let p: PauliString = match label.parse() {
        Ok(p) => p,
        Err(_) => unreachable!("XYZ cycle always parses"),
    };
    let mut evolved = sv.clone();
    let serial = criterion::measure(warmup, samples, || {
        par::with_threads(1, || evolved.apply_pauli_evolution(&p, 0.137))
    });
    let parallel = criterion::measure(warmup, samples, || evolved.apply_pauli_evolution(&p, 0.137));
    pair(&mut records, "pauli_evolution", n_qubits, serial, parallel);

    // Single-qubit gate kernel.
    let mut rotated = sv.clone();
    let gate = Gate::Rx(n_qubits / 2, 0.21);
    let serial = criterion::measure(warmup, samples, || {
        par::with_threads(1, || rotated.apply_gate(&gate))
    });
    let parallel = criterion::measure(warmup, samples, || rotated.apply_gate(&gate));
    pair(
        &mut records,
        "single_qubit_gate",
        n_qubits,
        serial,
        parallel,
    );

    // Symmetric ERI-tensor build with a synthetic integrand standing in
    // for the primitive-quartet contraction.
    let nb = if smoke { 8 } else { 10 };
    let integrand = |p: usize, q: usize, r: usize, s: usize| {
        let mut acc = 0.0f64;
        for k in 0..200 {
            acc += ((p + 1) * (q + 2) * (r + 3) * (s + 4)) as f64 / ((k + 1) as f64 * 7.3).sqrt();
        }
        acc
    };
    let serial = criterion::measure(warmup, samples, || {
        par::with_threads(1, || EriTensor::from_fn_symmetric(nb, integrand))
    });
    let parallel = criterion::measure(warmup, samples, || {
        EriTensor::from_fn_symmetric(nb, integrand)
    });
    pair(&mut records, "eri_build", nb, serial, parallel);

    // Fabrication-yield Monte Carlo on the 17-qubit X-Tree.
    let topo = Topology::xtree(17);
    let model = CollisionModel::default();
    let serial = criterion::measure(warmup, samples, || {
        par::with_threads(1, || simulate_yield(&topo, &model, 0.04, yield_samples, 17))
    });
    let parallel = criterion::measure(warmup, samples, || {
        simulate_yield(&topo, &model, 0.04, yield_samples, 17)
    });
    pair(&mut records, "yield_xtree17", 17, serial, parallel);

    // Finite-difference gradient of the H2 VQE energy.
    let system = Benchmark::H2
        .build(Benchmark::H2.equilibrium_bond_length())
        .map_err(PcdError::from)?;
    let ir = UccsdAnsatz::for_system(&system).into_ir();
    let params = vec![0.05; ir.num_parameters()];
    let energy = |x: &[f64]| vqe::energy(system.qubit_hamiltonian(), &ir, x);
    let serial = criterion::measure(warmup, samples, || {
        par::with_threads(1, || vqe::fd_gradient(energy, &params, 1e-6))
    });
    let parallel = criterion::measure(warmup, samples, || vqe::fd_gradient(energy, &params, 1e-6));
    pair(
        &mut records,
        "fd_gradient_h2",
        system.num_qubits(),
        serial,
        parallel,
    );

    let meta = bench_meta_json(threads);
    let clusters_json = format!(
        "{{\"clusters\": {}, \"terms\": {}, \"largest\": {}, \"singletons\": {}, \
         \"fused\": {}, \"clifford_ops\": {}, \"clifford_depth\": {}}}",
        cluster_stats.clusters,
        cluster_stats.terms,
        cluster_stats.largest,
        cluster_stats.singletons,
        cluster_stats.fused,
        cluster_stats.clifford_ops,
        cluster_stats.clifford_depth,
    );
    write_bench_json(&out_path, &records, &meta, Some(&clusters_json))?;
    let snapshot = obs::snapshot();
    for counter in ["par.tasks", "par.threads"] {
        outln!(
            "obs {:<24}: {}",
            counter,
            snapshot.counters.get(counter).copied().unwrap_or(0)
        );
    }
    outln!("report written to {out_path}");

    if let Some(baseline_path) = flags.get("baseline") {
        let tolerance = flags.positive::<f64>("tolerance")? / 100.0;
        let text = std::fs::read_to_string(baseline_path)
            .map_err(|e| format!("reading baseline {baseline_path}: {e}"))?;
        let baseline = parse_bench_medians(&text)
            .map_err(|e| format!("parsing baseline {baseline_path}: {e}"))?;
        let regressions = bench_regressions(&baseline, &records, tolerance);
        if !regressions.is_empty() {
            return Err(CliError::BenchRegression(regressions));
        }
        outln!(
            "baseline check: no benchmark more than {:.0}% slower than {baseline_path}",
            tolerance * 100.0
        );
    }

    if let Some(history_path) = flags.get("history") {
        let window: usize = flags.number("window")?;
        if window < 2 {
            return Err(CliError::Usage("--window must be at least 2".to_string()));
        }
        let drift_tolerance = flags.positive::<f64>("drift-tolerance")? / 100.0;
        let mut reports = match std::fs::read_to_string(history_path) {
            Ok(text) => {
                parse_bench_history(&text).map_err(|e| format!("history {history_path}: {e}"))?
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(format!("reading history {history_path}: {e}").into()),
        };
        reports.push(
            records
                .iter()
                .map(|r| (r.name.clone(), r.median_ns))
                .collect(),
        );
        let excess = reports.len().saturating_sub(window);
        reports.drain(..excess);
        write_bench_history(history_path, &reports, &meta)?;
        let drifts = bench_drift(&reports, drift_tolerance);
        if !drifts.is_empty() {
            return Err(CliError::BenchRegression(drifts));
        }
        outln!(
            "history check: no cumulative creep beyond {:.0}% across {} report(s) in {history_path}",
            drift_tolerance * 100.0,
            reports.len()
        );
    }
    Ok(())
}

/// `pcd bench --obs-overhead`: measures span/event/counter/histogram calls
/// with tracing *disabled* — the state every always-on hook (flight ring
/// included) runs in during production batches — and fails with exit 21
/// if any op's per-call cost exceeds the budget.
fn cmd_obs_overhead(flags: &Flags) -> Result<(), CliError> {
    let budget_ns: f64 = flags.positive("budget-ns")?;
    // Each op is far below the vendored harness's ~10µs floor, so batch
    // calls per sample and divide.
    const CALLS: usize = 10_000;
    let (warmup, samples) = (3, 15);
    obs::reset();
    obs::disable();

    outln!(
        "pcd bench --obs-overhead — disabled-tracing fast path, \
         {CALLS} calls/sample, budget {budget_ns:.0} ns/call"
    );
    outln!("{:<28} {:>12}", "op", "ns/call");
    let mut over: Vec<String> = Vec::new();
    let mut check = |name: &str, m: criterion::Measurement| {
        let per_call = m.median_ns as f64 / CALLS as f64;
        outln!("{name:<28} {per_call:>12.1}");
        if per_call > budget_ns {
            over.push(format!(
                "{name}: {per_call:.1} ns/call exceeds the {budget_ns:.0} ns budget"
            ));
        }
    };

    let m = criterion::measure(warmup, samples, || {
        for i in 0..CALLS {
            let span = obs::span("bench.overhead.span");
            std::hint::black_box(i);
            drop(span);
        }
    });
    check("span open+drop", m);

    let m = criterion::measure(warmup, samples, || {
        for i in 0..CALLS {
            obs::event!("bench.overhead.event");
            std::hint::black_box(i);
        }
    });
    check("event", m);

    let m = criterion::measure(warmup, samples, || {
        for i in 0..CALLS {
            obs::counter_add("bench.overhead.counter", 1);
            std::hint::black_box(i);
        }
    });
    check("counter_add", m);

    let m = criterion::measure(warmup, samples, || {
        for i in 0..CALLS {
            obs::histogram_record("bench.overhead.hist", i as f64);
            std::hint::black_box(i);
        }
    });
    check("histogram_record", m);

    if !over.is_empty() {
        return Err(CliError::BenchRegression(over));
    }
    outln!("obs overhead within budget");
    Ok(())
}
