//! The sector VQE evaluator against the full-space fused path it replaces
//! inside the VQE drivers.
//!
//! `run_vqe_resumable` (and the global-depolarizing `run_vqe_noisy`) run
//! their objective on the Hartree-Fock determinant's electron sector
//! whenever the `(H, IR)` pair is eligible (`vqe::SectorAnsatz`), and on the
//! full register otherwise. The public full-space `vqe::energy` and
//! `vqe::energy_and_gradient` are the oracle:
//!
//! * sector and full-space energies and gradients agree to 1e-12 on Table I
//!   up to 14 qubits at ratios 0.5 and 1.0;
//! * `run_vqe` takes the same L-BFGS path as L-BFGS over the full-space
//!   gradient on the benchmark's bond grid;
//! * sector runs are bit-identical across thread counts and resumes;
//! * ineligible IRs run the full-space path bit for bit.

use pauli_codesign::ansatz::uccsd::UccsdAnsatz;
use pauli_codesign::ansatz::{compress, IrEntry, PauliIr};
use pauli_codesign::chem::Benchmark;
use pauli_codesign::par;
use pauli_codesign::pauli::{PauliString, WeightedPauliSum};
use pauli_codesign::vqe::driver::{run_vqe, run_vqe_resumable, VqeOptions, VqeResult, VqeRun};
use pauli_codesign::vqe::optimize::{lbfgs, OptimizeControls};
use pauli_codesign::vqe::{self, SectorAnsatz};

fn compressed(molecule: Benchmark, bond: f64, ratio: f64) -> (WeightedPauliSum, PauliIr) {
    let system = molecule.build(bond).expect("chemistry");
    let full = UccsdAnsatz::for_system(&system).into_ir();
    let (ir, _) = compress(&full, system.qubit_hamiltonian(), ratio);
    (system.qubit_hamiltonian().clone(), ir)
}

/// L-BFGS over the full-space oracle gradient, from θ = 0.
fn full_space_lbfgs(h: &WeightedPauliSum, ir: &PauliIr) -> VqeResult {
    lbfgs(
        |theta| vqe::energy_and_gradient(h, ir, theta),
        &vec![0.0; ir.num_parameters()],
        OptimizeControls::default(),
    )
    .expect("full-space L-BFGS")
    .into()
}

/// Energy and gradient within 1e-12 of the full-space fused path at a
/// seeded θ, on Table I up to 14 qubits at ratios 0.5 and 1.0.
#[test]
fn table_one_sector_energy_and_gradient_match_the_full_space() {
    for molecule in [
        Benchmark::H2,
        Benchmark::LiH,
        Benchmark::NaH,
        Benchmark::HF,
        Benchmark::BeH2,
        Benchmark::H2O,
        Benchmark::BH3,
    ] {
        for ratio in [0.5, 1.0] {
            let (h, ir) = compressed(molecule, molecule.equilibrium_bond_length(), ratio);
            assert!(ir.num_qubits() <= 14, "{molecule}");
            let sector = SectorAnsatz::build(&h, &ir)
                .unwrap_or_else(|why| panic!("{molecule} at {ratio}: {why}"));
            assert!(sector.dim() < 1 << ir.num_qubits());
            let theta: Vec<f64> = (0..ir.num_parameters())
                .map(|k| 0.04 * ((k * 7 + 3) % 11) as f64 - 0.2)
                .collect();
            let (e, grad) = sector.energy_and_gradient(&theta);
            let (want_e, want_grad) = vqe::energy_and_gradient(&h, &ir, &theta);
            assert!(
                (e - want_e).abs() <= 1e-12,
                "{molecule} at {ratio}: energy {e} vs full space {want_e}"
            );
            assert_eq!(sector.energy(&theta), e, "{molecule} at {ratio}");
            for (p, (g, w)) in grad.iter().zip(&want_grad).enumerate() {
                assert!(
                    (g - w).abs() <= 1e-12,
                    "{molecule} at {ratio}: ∂E/∂θ{p} {g} vs full space {w}"
                );
            }
        }
    }
}

/// On the benchmark's bond grid at ratio 0.5, `run_vqe` (sector) takes as
/// many L-BFGS iterations and evaluations as L-BFGS over the full-space
/// gradient and lands within 1e-10 of it.
#[test]
fn run_vqe_follows_the_full_space_lbfgs_on_the_benchmark_grid() {
    for (molecule, bonds) in [
        (Benchmark::H2O, [0.95, 0.96, 0.97]),
        (Benchmark::BeH2, [1.31, 1.33, 1.35]),
    ] {
        for bond in bonds {
            let (h, ir) = compressed(molecule, bond, 0.5);
            assert!(SectorAnsatz::build(&h, &ir).is_ok(), "{molecule} {bond}");
            let sector = run_vqe(&h, &ir, VqeOptions::default()).expect("sector VQE");
            let full = full_space_lbfgs(&h, &ir);
            assert_eq!(sector.iterations, full.iterations, "{molecule} {bond}");
            assert_eq!(sector.evaluations, full.evaluations, "{molecule} {bond}");
            assert!(
                (sector.energy - full.energy).abs() <= 1e-10,
                "{molecule} {bond}: sector {} vs full space {}",
                sector.energy,
                full.energy
            );
        }
    }
}

/// A sector run is bit-identical at 1, 2 and 4 threads, and a run resumed
/// every two ticks equals the uninterrupted one.
#[test]
fn sector_runs_are_thread_count_and_resume_invariant() {
    let (h, ir) = compressed(Benchmark::H2O, 0.96, 0.5);
    assert!(SectorAnsatz::build(&h, &ir).is_ok());
    let runs: Vec<VqeResult> = [1, 2, 4]
        .iter()
        .map(|&t| par::with_threads(t, || run_vqe(&h, &ir, VqeOptions::default())).expect("vqe"))
        .collect();
    assert_eq!(runs[0], runs[1], "1 vs 2 threads");
    assert_eq!(runs[0], runs[2], "1 vs 4 threads");

    let x0 = vec![0.0; ir.num_parameters()];
    let mut resume = None;
    let mut slices = 0;
    let resumed = loop {
        let budget = par::Budget::max_ticks(2);
        match run_vqe_resumable(&h, &ir, &x0, VqeOptions::default(), resume.take(), &budget)
            .expect("vqe slice")
        {
            VqeRun::Done(r) => break r,
            VqeRun::Interrupted(ck) => {
                slices += 1;
                resume = Some(*ck);
            }
        }
    };
    assert!(slices >= 1, "the budget must interrupt the run");
    assert_eq!(resumed, runs[0]);
}

fn xorshift(s: &mut u64) -> u64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    *s
}

/// A random IR of same-mask runs with random Z masks, parameters and
/// coefficients: its runs anticommute or leak the sector.
fn random_mixed_ir(n: usize, seed: u64) -> PauliIr {
    let full = (1u64 << n) - 1;
    let mut s = seed | 1;
    let mut ir = PauliIr::new(n, xorshift(&mut s) & full);
    for run in 0..8 {
        let x = if run % 4 == 0 {
            0
        } else {
            xorshift(&mut s) & full
        };
        for _ in 0..1 + xorshift(&mut s) % 6 {
            ir.push(IrEntry {
                string: PauliString::from_symplectic(n, x, xorshift(&mut s) & full),
                param: (xorshift(&mut s) % 4) as usize,
                coefficient: (xorshift(&mut s) % 1000) as f64 / 500.0 - 1.0,
            });
        }
    }
    ir
}

/// A Hamiltonian of random even-Y strings, so its sector block exists.
fn random_even_y_hamiltonian(n: usize, seed: u64) -> WeightedPauliSum {
    let full = (1u64 << n) - 1;
    let mut s = seed | 1;
    let mut h = WeightedPauliSum::new(n);
    while h.len() < 12 {
        let (x, z) = (xorshift(&mut s) & full, xorshift(&mut s) & full);
        if (x & z).count_ones() % 2 == 0 {
            h.push(
                0.1 * (h.len() as f64 + 1.0),
                PauliString::from_symplectic(n, x, z),
            );
        }
    }
    h
}

fn assert_full_space_bit_for_bit(h: &WeightedPauliSum, ir: &PauliIr, reason: &str, what: &str) {
    let why = SectorAnsatz::build(h, ir).expect_err(what);
    assert_eq!(why.kind(), reason, "{what}: {why}");
    let run = run_vqe(h, ir, VqeOptions::default()).expect(what);
    assert_eq!(run, full_space_lbfgs(h, ir), "{what}");
}

/// Ineligible IRs run today's full-space path bit for bit: the driver
/// toy's α → β hop, random mixed IRs and a same-mask run whose strings
/// anticommute.
#[test]
fn ineligible_irs_take_the_full_space_path_bit_for_bit() {
    // The driver toy: H = −Z0 − 0.5·Z1 + 0.4·X0X1 with an α → β hop.
    let mut h = WeightedPauliSum::new(2);
    h.push(-1.0, "IZ".parse().expect("IZ"));
    h.push(-0.5, "ZI".parse().expect("ZI"));
    h.push(0.4, "XX".parse().expect("XX"));
    let mut toy = PauliIr::new(2, 0b01);
    for (s, c) in [("XY", 0.5), ("YX", -0.5)] {
        toy.push(IrEntry {
            string: s.parse().expect("string"),
            param: 0,
            coefficient: c,
        });
    }
    assert_full_space_bit_for_bit(&h, &toy, "leaks", "driver toy");

    for (n, seed) in [(6, 21u64), (8, 22)] {
        let ir = random_mixed_ir(n, seed);
        let h = random_even_y_hamiltonian(n, seed ^ 0xBEEF);
        let why = SectorAnsatz::build(&h, &ir).expect_err("random IR");
        assert!(matches!(why.kind(), "anticommuting" | "leaks"), "{why}");
        let run = run_vqe(&h, &ir, VqeOptions::default()).expect("random IR");
        assert_eq!(run, full_space_lbfgs(&h, &ir), "random IR on {n} qubits");
    }

    // H2's UCCSD with one extra string on the double's flip mask that
    // anticommutes with the rest of its run.
    let (h, mut ir) = compressed(Benchmark::H2, 0.74, 1.0);
    let x = ir.entries().last().expect("a double").string.x_mask();
    ir.push(IrEntry {
        string: PauliString::from_symplectic(4, x, x & 0b0011),
        param: 0,
        coefficient: 0.25,
    });
    assert_full_space_bit_for_bit(&h, &ir, "anticommuting", "anticommuting run");
}
