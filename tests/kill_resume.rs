//! Kill-and-resume integration tests: the durability layer's headline
//! guarantee, end to end through the *on-disk* checkpoint format.
//!
//! A run that is interrupted by a tight budget, persisted to a checkpoint
//! file (CRC trailer, hex-encoded floats, atomic rename), read back, and
//! resumed — possibly many times — must finish with results bit-identical
//! to a never-interrupted run. And because the `par` layer's decomposition
//! is thread-count-invariant, that must hold at 1 and 4 worker threads.

use pauli_codesign::ansatz::{compress, uccsd::UccsdAnsatz};
use pauli_codesign::arch::{
    simulate_yield, simulate_yield_resumable, CollisionModel, Topology, YieldCheckpoint, YieldRun,
};
use pauli_codesign::chem::Benchmark;
use pauli_codesign::par::{self, Budget};
use pauli_codesign::resilience::stages::{self, Checkpoints};
use pauli_codesign::resilience::{
    decode_vqe, decode_yield, encode_vqe, encode_yield, Checkpoint, CheckpointError, FaultPlan,
    PcdError,
};
use pauli_codesign::vqe::driver::{run_vqe, run_vqe_resumable, VqeOptions, VqeResult, VqeRun};
use pauli_codesign::vqe::VqeError;

/// A scratch directory for one test's checkpoint files, removed on drop.
struct ScratchDir(std::path::PathBuf);

impl ScratchDir {
    fn new(name: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("pcd-{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        ScratchDir(dir)
    }

    fn path(&self, file: &str) -> std::path::PathBuf {
        self.0.join(file)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Runs LiH VQE killed every `kill_every` optimizer iterations, with each
/// interruption round-tripped through a checkpoint file.
fn vqe_through_kills(kill_every: u64, ckpt: &std::path::Path) -> (VqeResult, usize) {
    let system = Benchmark::LiH
        .build(Benchmark::LiH.equilibrium_bond_length())
        .expect("LiH builds");
    let full = UccsdAnsatz::for_system(&system).into_ir();
    let (ir, _) = compress(&full, system.qubit_hamiltonian(), 0.5);
    let x0 = vec![0.0; ir.num_parameters()];
    let _ = std::fs::remove_file(ckpt);
    let mut kills = 0;
    let result = loop {
        let resume = ckpt.exists().then(|| {
            decode_vqe(&Checkpoint::read(ckpt).expect("read checkpoint")).expect("decode")
        });
        let budget = Budget::max_ticks(kill_every);
        match run_vqe_resumable(
            system.qubit_hamiltonian(),
            &ir,
            &x0,
            VqeOptions::default(),
            resume,
            &budget,
        )
        .expect("vqe runs")
        {
            VqeRun::Done(r) => break r,
            VqeRun::Interrupted(state) => {
                kills += 1;
                encode_vqe(&state).write(ckpt).expect("write checkpoint");
            }
        }
    };
    (result, kills)
}

#[test]
fn vqe_kill_and_resume_is_bit_identical_at_1_and_4_threads() {
    let scratch = ScratchDir::new("kill-resume-vqe");
    let system = Benchmark::LiH
        .build(Benchmark::LiH.equilibrium_bond_length())
        .expect("LiH builds");
    let full = UccsdAnsatz::for_system(&system).into_ir();
    let (ir, _) = compress(&full, system.qubit_hamiltonian(), 0.5);
    let baseline =
        run_vqe(system.qubit_hamiltonian(), &ir, VqeOptions::default()).expect("baseline");

    for threads in [1, 4] {
        let ckpt = scratch.path(&format!("vqe-{threads}.ckpt"));
        let (resumed, kills) = par::with_threads(threads, || vqe_through_kills(2, &ckpt));
        assert!(kills >= 1, "a 2-tick budget must actually interrupt");
        assert_eq!(
            resumed.energy.to_bits(),
            baseline.energy.to_bits(),
            "threads {threads}: {} vs {}",
            resumed.energy,
            baseline.energy
        );
        assert_eq!(resumed.iterations, baseline.iterations, "threads {threads}");
        for (i, (a, b)) in resumed.params.iter().zip(&baseline.params).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "threads {threads}: parameter {i} drifted"
            );
        }
        for (i, (a, b)) in resumed.trace.iter().zip(&baseline.trace).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "threads {threads}: trace entry {i} drifted"
            );
        }
    }
}

#[test]
fn yield_kill_and_resume_is_bit_identical_at_1_and_4_threads() {
    let scratch = ScratchDir::new("kill-resume-yield");
    let topology = Topology::xtree(17);
    let model = CollisionModel::default();
    let (sigma, samples, seed) = (0.04, 3_000, 17);
    let baseline = simulate_yield(&topology, &model, sigma, samples, seed);

    for threads in [1, 4] {
        let ckpt = scratch.path(&format!("yield-{threads}.ckpt"));
        let _ = std::fs::remove_file(&ckpt);
        let (resumed, kills) = par::with_threads(threads, || {
            let mut kills = 0;
            let estimate = loop {
                let resume = ckpt.exists().then(|| {
                    decode_yield(&Checkpoint::read(&ckpt).expect("read checkpoint"))
                        .expect("decode")
                });
                // One chunk wave per segment: the tightest interruption grain.
                let budget = Budget::max_ticks(1);
                match simulate_yield_resumable(
                    &topology, &model, sigma, samples, seed, resume, &budget,
                ) {
                    YieldRun::Done(e) => break e,
                    YieldRun::Interrupted(state) => {
                        kills += 1;
                        encode_yield(&state).write(&ckpt).expect("write checkpoint");
                    }
                }
            };
            (estimate, kills)
        });
        assert!(kills >= 1, "a 1-tick budget must actually interrupt");
        assert_eq!(
            resumed.yield_rate.to_bits(),
            baseline.yield_rate.to_bits(),
            "threads {threads}: {} vs {}",
            resumed.yield_rate,
            baseline.yield_rate
        );
        assert_eq!(resumed.samples, baseline.samples);
    }
}

#[test]
fn resume_after_checkpoint_loss_still_recovers_from_scratch() {
    // Losing the checkpoint file is not fatal — the run restarts clean and
    // still lands on the same answer (determinism is the backstop).
    let scratch = ScratchDir::new("kill-resume-loss");
    let ckpt = scratch.path("vqe.ckpt");
    let (first, _) = vqe_through_kills(3, &ckpt);
    std::fs::remove_file(scratch.path("nonexistent")).ok();
    let _ = std::fs::remove_file(&ckpt);
    let (second, _) = vqe_through_kills(3, &ckpt);
    assert_eq!(first.energy.to_bits(), second.energy.to_bits());
}

/// Asserts that `run` was refused as a checkpoint saved for other inputs,
/// with exit code 31 and a message naming `file`.
fn assert_refused<T: std::fmt::Debug>(run: Result<T, PcdError>, file: &str) {
    let err = run.expect_err("a resume under other inputs must be refused");
    assert!(
        matches!(
            err,
            PcdError::Checkpoint(CheckpointError::InputsMismatch { .. })
        ),
        "{err:?}"
    );
    assert_eq!(err.exit_code(), 31);
    assert!(err.to_string().contains(file), "{err}");
}

#[test]
fn resume_under_other_inputs_is_a_typed_error() {
    let scratch = ScratchDir::new("kill-resume-inputs");
    let build = |molecule: Benchmark, bond: f64| {
        let (system, _) = stages::build(molecule, bond, &mut FaultPlan::none()).expect("builds");
        let (ir, _) = stages::ansatz(&system, 0.5);
        (system, ir)
    };
    let (h2, h2_ir) = build(Benchmark::H2, 0.74);
    let (stretched, stretched_ir) = build(Benchmark::H2, 1.2);
    let (lih, lih_ir) = build(Benchmark::LiH, 1.6);
    let mut store = Checkpoints::new(&scratch.0, false);

    // An interrupted H2 run leaves `vqe.ckpt` keyed by its inputs.
    let run = stages::vqe(&h2, &h2_ir, &Budget::max_ticks(2), Some(&store));
    assert!(matches!(run, Err(PcdError::Interrupted { .. })), "{run:?}");
    store.resume = true;
    let unlimited = Budget::unlimited();
    assert_refused(
        stages::vqe(&stretched, &stretched_ir, &unlimited, Some(&store)),
        "vqe.ckpt",
    );
    assert_refused(
        stages::vqe(&lih, &lih_ir, &unlimited, Some(&store)),
        "vqe.ckpt",
    );

    // `run_vqe_resumable` itself refuses optimizer state of another
    // parameter count instead of indexing past it.
    let saved =
        decode_vqe(&Checkpoint::read(scratch.path("vqe.ckpt")).expect("read")).expect("decode");
    let x0 = vec![0.0; lih_ir.num_parameters()];
    let err = run_vqe_resumable(
        lih.qubit_hamiltonian(),
        &lih_ir,
        &x0,
        VqeOptions::default(),
        Some(saved),
        &unlimited,
    )
    .expect_err("H2 state cannot resume a LiH run");
    assert!(
        matches!(err, VqeError::CheckpointLength { expected, found }
            if expected == lih_ir.num_parameters() && found == h2_ir.num_parameters()),
        "{err:?}"
    );

    // The same inputs resume to the uninterrupted energy and leave the
    // keyed `vqe.done` marker, which other inputs may not read either.
    let resumed = stages::vqe(&h2, &h2_ir, &unlimited, Some(&store)).expect("resumes");
    let fresh = stages::vqe(&h2, &h2_ir, &unlimited, None).expect("fresh");
    assert_eq!(resumed.energy.to_bits(), fresh.energy.to_bits());
    assert_refused(
        stages::vqe(&stretched, &stretched_ir, &unlimited, Some(&store)),
        "vqe.done",
    );
    assert_refused(
        stages::vqe(&lih, &lih_ir, &unlimited, Some(&store)),
        "vqe.done",
    );
}

/// A `yield.ckpt` saved while the tallies still summed every chip's
/// collisions: `pcd run H2 --checkpoint D --budget-iters 6 --samples 40000`
/// interrupted in the yield stage, its record holding `total_collisions`
/// and its key no tallies version.
const YIELD_TALLIES_V1: &[u8] = include_bytes!("fixtures/yield-zig1-tallies.ckpt");

#[test]
fn a_yield_checkpoint_with_collision_totals_is_refused_with_exit_31() {
    let scratch = ScratchDir::new("kill-resume-yield-v1");
    std::fs::write(scratch.path("yield.ckpt"), YIELD_TALLIES_V1).expect("write fixture");
    let old = Checkpoint::read(scratch.path("yield.ckpt")).expect("a valid file");
    assert_eq!(old.job.as_deref(), Some("yield-zig1-dced3545"));
    let store = Checkpoints::new(&scratch.0, true);
    let unlimited = Budget::unlimited();
    assert_refused(
        stages::yield_mc(40_000, stages::DEGRADE_THRESHOLD, &unlimited, Some(&store)),
        "yield.ckpt",
    );

    let dir = scratch.0.to_str().expect("utf-8 temp path");
    let status = std::process::Command::new(env!("CARGO_BIN_EXE_pcd"))
        .args([
            "run",
            "H2",
            "--samples",
            "40000",
            "--checkpoint",
            dir,
            "--resume",
        ])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .status()
        .expect("pcd starts");
    assert_eq!(status.code(), Some(31));
}

#[test]
fn a_yield_checkpoint_from_another_stream_is_refused() {
    let scratch = ScratchDir::new("kill-resume-yield-key");
    let ckpt = scratch.path("yield.ckpt");
    let (samples, threshold) = (2_000, stages::DEGRADE_THRESHOLD);
    let mut store = Checkpoints::new(&scratch.0, false);

    // An interrupted run tags its tallies with the stream they were drawn
    // from.
    let run = stages::yield_mc(samples, threshold, &Budget::max_ticks(1), Some(&store));
    assert!(matches!(run, Err(PcdError::Interrupted { .. })), "{run:?}");
    let saved = Checkpoint::read(&ckpt).expect("read");
    let key = stages::yield_key(&Topology::xtree(17), 0.04, 17);
    assert!(key.starts_with("yield-zig1-"), "{key}");
    assert_eq!(saved.job.as_deref(), Some(key.as_str()));

    // Untagged tallies, as every file saved before the stream key, and
    // tallies of another sampler are refused rather than resumed.
    store.resume = true;
    let tallies = encode_yield(&YieldCheckpoint {
        samples,
        next_chunk: 8,
        good: 7,
    });
    let unlimited = Budget::unlimited();
    for foreign in [tallies.clone(), tallies.with_job("yield-bm0-00000000")] {
        foreign.write(&ckpt).expect("write");
        assert_refused(
            stages::yield_mc(samples, threshold, &unlimited, Some(&store)),
            "yield.ckpt",
        );
    }

    // The run's own file resumes to the uninterrupted estimate.
    saved.write(&ckpt).expect("write");
    let resumed = stages::yield_mc(samples, threshold, &unlimited, Some(&store)).expect("resumes");
    let fresh = stages::yield_mc(samples, threshold, &unlimited, None).expect("fresh");
    assert_eq!(resumed, fresh);
}
