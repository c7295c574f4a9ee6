//! Graceful-drain integration tests, end to end through the on-disk
//! manifest: a batch drained mid-flight (checkpoints + manifest written
//! through the v2 container) and resumed must finish bit-identically to
//! an uninterrupted batch — including while faults are injected.

use pauli_codesign::chem::Benchmark;
use pauli_codesign::resilience::checkpoint::CHECKPOINT_VERSION;
use pauli_codesign::resilience::Checkpoint;
use pauli_codesign::supervisor::{
    decode_manifest, parse_jobs, run_batch, run_batch_resumed, JobSpec, JobState, SupervisorConfig,
};

/// A scratch directory for one test's checkpoint files, removed on drop.
struct ScratchDir(std::path::PathBuf);

impl ScratchDir {
    fn new(name: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("pcd-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
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

fn jobs(n: usize) -> Vec<JobSpec> {
    (0..n)
        .map(|i| JobSpec {
            id: format!("h2-{i}"),
            benchmark: Benchmark::H2,
            bond: Some(0.66 + 0.04 * i as f64),
            ratio: 1.0,
        })
        .collect()
}

fn config(seed: u64, fault_rate: f64) -> SupervisorConfig {
    SupervisorConfig {
        workers: 2,
        batch_seed: seed,
        slice_ticks: 2,
        pipeline_fault_rate: fault_rate * 0.5,
        injection_rate: fault_rate,
        ..SupervisorConfig::default()
    }
}

/// Drains a batch repeatedly (every `drain_ticks` slices), resuming from
/// the manifest each round, until every job is terminal. Returns the
/// final records.
fn run_through_drains(
    jobs: &[JobSpec],
    base: &SupervisorConfig,
    scratch: &ScratchDir,
    drain_ticks: u64,
) -> Vec<pauli_codesign::supervisor::JobRecord> {
    let mut prior: Option<Vec<pauli_codesign::supervisor::JobRecord>> = None;
    for _round in 0..50 {
        let cfg = SupervisorConfig {
            drain_after_ticks: Some(drain_ticks),
            ckpt_dir: Some(scratch.0.clone()),
            ..base.clone()
        };
        let report = run_batch_resumed(jobs, &cfg, prior.as_deref()).expect("batch runs");
        if report.pending() == 0 {
            return report.records;
        }
        // Round-trip through the on-disk manifest, exactly like
        // `pcd batch --resume` would.
        let ck = Checkpoint::read(scratch.path("batch.manifest")).expect("manifest readable");
        let (meta, records) = decode_manifest(&ck).expect("manifest decodes");
        assert_eq!(meta.batch_seed, base.batch_seed);
        assert_eq!(meta.jobs, jobs.len());
        prior = Some(records);
    }
    panic!("batch did not finish within 50 drain rounds");
}

#[test]
fn drained_batch_resumes_bit_identically() {
    let jobs = jobs(4);
    let base = config(21, 0.0);
    let uninterrupted = run_batch(&jobs, &base).expect("batch runs");

    let scratch = ScratchDir::new("drain-clean");
    let drained = run_through_drains(&jobs, &base, &scratch, 3);
    assert_eq!(
        drained, uninterrupted.records,
        "drain/resume must be invisible in the records"
    );
}

#[test]
fn drained_batch_resumes_bit_identically_under_faults() {
    let jobs = jobs(5);
    let base = config(1234, 0.3);
    let uninterrupted = run_batch(&jobs, &base).expect("batch runs");

    let scratch = ScratchDir::new("drain-faulty");
    let drained = run_through_drains(&jobs, &base, &scratch, 4);
    assert_eq!(
        drained, uninterrupted.records,
        "drain/resume must be invisible even with injected faults"
    );
}

#[test]
fn manifest_and_job_checkpoints_use_the_v2_container() {
    let jobs = jobs(3);
    let scratch = ScratchDir::new("drain-format");
    let cfg = SupervisorConfig {
        drain_after_ticks: Some(2),
        ckpt_dir: Some(scratch.0.clone()),
        ..config(5, 0.0)
    };
    let report = run_batch(&jobs, &cfg).expect("batch runs");
    assert!(
        report.pending() > 0,
        "a 2-tick drain must leave pending jobs"
    );

    let manifest_bytes = std::fs::read(scratch.path("batch.manifest")).expect("manifest exists");
    let text = String::from_utf8(manifest_bytes).expect("manifest is UTF-8");
    assert!(
        text.starts_with(&format!(
            "{{\"kind\":\"batch-manifest\",\"lines\":{},\"magic\":\"pcd-ckpt\",\"version\":{CHECKPOINT_VERSION}}}",
            jobs.len() + 1
        )),
        "manifest header: {}",
        text.lines().next().unwrap_or("")
    );

    // Any per-job VQE checkpoint the drain persisted must carry the v2
    // job tag naming the job it belongs to.
    let (_, records) =
        decode_manifest(&Checkpoint::read(scratch.path("batch.manifest")).expect("manifest reads"))
            .expect("manifest decodes");
    for record in &records {
        if let JobState::Pending {
            checkpoint: Some(name),
            ..
        } = &record.state
        {
            let ck = Checkpoint::read(scratch.path(name)).expect("job checkpoint reads");
            assert_eq!(ck.job.as_deref(), Some(record.id.as_str()));
        }
    }
}

#[test]
fn resume_without_checkpoints_still_converges_to_the_same_records() {
    // Deleting every per-job checkpoint between drain and resume loses
    // in-flight optimizer state but not correctness: determinism restarts
    // the interrupted attempts and lands on the same records.
    let jobs = jobs(4);
    let base = config(77, 0.2);
    let uninterrupted = run_batch(&jobs, &base).expect("batch runs");

    let scratch = ScratchDir::new("drain-lost-ckpt");
    let cfg = SupervisorConfig {
        drain_after_ticks: Some(3),
        ckpt_dir: Some(scratch.0.clone()),
        ..base.clone()
    };
    let drained = run_batch(&jobs, &cfg).expect("batch runs");
    if drained.pending() == 0 {
        return; // nothing was interrupted; trivially equal
    }
    let (_, prior) =
        decode_manifest(&Checkpoint::read(scratch.path("batch.manifest")).expect("manifest reads"))
            .expect("manifest decodes");
    for entry in std::fs::read_dir(&scratch.0).expect("scratch listable") {
        let path = entry.expect("entry").path();
        if path.extension().is_some_and(|e| e == "ckpt") {
            std::fs::remove_file(path).expect("remove job checkpoint");
        }
    }
    let resumed = run_batch_resumed(
        &jobs,
        &SupervisorConfig {
            ckpt_dir: Some(scratch.0.clone()),
            ..base.clone()
        },
        Some(&prior),
    )
    .expect("resume runs");
    assert_eq!(resumed.records, uninterrupted.records);
}

/// A drained `batch.manifest` sealed by a build that still had the
/// circuit breaker and the backoff ladder: every record carries
/// `backoff_ms` and every pending one `breaker`. Captured with `pcd batch`
/// on the three-job H2 file below at `--workers 1 --slice-ticks 2
/// --drain-after-ticks 2`.
const BREAKER_MANIFEST: &[u8] = include_bytes!("fixtures/batch-manifest-breaker.ckpt");

#[test]
fn manifest_sealed_with_breaker_counts_still_resumes() {
    let jobs: Vec<JobSpec> = [("h2-a", 0.70), ("h2-b", 0.74), ("h2-c", 0.78)]
        .into_iter()
        .map(|(id, bond)| JobSpec {
            id: id.to_string(),
            benchmark: Benchmark::H2,
            bond: Some(bond),
            ratio: 1.0,
        })
        .collect();
    let base = SupervisorConfig {
        workers: 1,
        slice_ticks: 2,
        ..SupervisorConfig::default()
    };

    let ck = Checkpoint::from_bytes(BREAKER_MANIFEST).expect("fixture reads");
    let pending_lines: Vec<_> = ck.payload[1..]
        .iter()
        .filter(|line| line.get("state").and_then(|s| s.as_str()) == Some("pending"))
        .collect();
    assert!(!pending_lines.is_empty(), "the fixture is a drained batch");
    assert!(pending_lines
        .iter()
        .all(|line| line.get("breaker").is_some()));
    let (meta, prior) = decode_manifest(&ck).expect("fixture decodes");
    assert_eq!(meta.batch_seed, base.batch_seed);

    // A fresh directory holds no job checkpoints: every pending job takes
    // the lost-checkpoint path and restarts its attempt.
    let scratch = ScratchDir::new("drain-breaker-fixture");
    let resumed = run_batch_resumed(
        &jobs,
        &SupervisorConfig {
            ckpt_dir: Some(scratch.0.clone()),
            ..base.clone()
        },
        Some(&prior),
    )
    .expect("resume runs");
    let uninterrupted = run_batch(&jobs, &base).expect("batch runs");
    assert_eq!(resumed.records, uninterrupted.records);

    // The manifest the resume seals carries neither retired field.
    let text = std::fs::read_to_string(scratch.path("batch.manifest")).expect("manifest reads");
    assert!(!text.contains("breaker") && !text.contains("backoff_ms"));
}

/// CI's drain/resume jobs file.
const CI_JOBS: &str = r#"{"id":"h2-a","molecule":"H2","bond":0.70,"ratio":1.0}
{"id":"h2-b","molecule":"H2","bond":0.74,"ratio":1.0}
{"id":"h2-c","molecule":"H2","bond":0.78,"ratio":1.0}"#;

/// At one worker the shared drain budget is spent by one job at a time,
/// so the drain cuts the batch at the same slice on every run and the
/// drained manifest is the same bytes.
#[test]
fn one_worker_drain_seals_the_same_manifest_on_every_run() {
    let jobs = parse_jobs(CI_JOBS).expect("CI jobs parse");
    let drained_manifest = |name: &str| {
        let scratch = ScratchDir::new(name);
        let cfg = SupervisorConfig {
            workers: 1,
            slice_ticks: 2,
            drain_after_ticks: Some(2),
            ckpt_dir: Some(scratch.0.clone()),
            ..SupervisorConfig::default()
        };
        let report = run_batch(&jobs, &cfg).expect("batch runs");
        assert!(
            report.pending() > 0,
            "a 2-tick drain must leave pending jobs"
        );
        std::fs::read(scratch.path("batch.manifest")).expect("manifest exists")
    };
    assert_eq!(
        drained_manifest("drain-repeat-a"),
        drained_manifest("drain-repeat-b")
    );
}
