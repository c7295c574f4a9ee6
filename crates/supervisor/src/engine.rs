//! The supervised batch engine: workers, panic isolation, retries,
//! timeouts, quarantine, and graceful drain.
//!
//! # The determinism contract
//!
//! A job's outcome is a pure function of `(batch_seed, job index, spec)`:
//!
//! - every seed is derived from the batch seed and the job's *arrival
//!   index* ([`job_seed`]), never from worker identity or timing;
//! - workers pin the `par` thread budget to 1 for the job body, so the
//!   numerical kernels decompose identically regardless of pool shape
//!   (the `par` layer is thread-count-invariant anyway; pinning also
//!   stops nested pools from oversubscribing);
//! - chaos injections (panic / hang / transient) and pipeline fault
//!   draws are keyed on `(job_seed, attempt)`, and a failed attempt
//!   retries at once (no wall-clock wait), up to `max_retries`;
//! - job timeouts are *deterministic budget slices*
//!   ([`par::Budget::max_ticks`]), not wall-clock races, and the slice
//!   count carries across a drain so a resumed attempt sees the same
//!   timeout horizon.
//!
//! Consequently the per-job records of a batch are identical at 1, 2, or
//! 4 workers, and a drained-then-resumed batch reproduces an
//! uninterrupted one bit-for-bit — the property `pcd chaos --campaign
//! supervised` asserts under injected faults.

use std::io::Write;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::{Mutex, Once};
use std::time::Duration;

use par::Budget;
use resilience::checkpoint::CheckpointError;
use resilience::stages::{self, CompileStrategy};
use resilience::{encode_vqe, FaultPlan, PcdError};
use vqe::driver::{VqeCheckpoint, VqeRun};

use crate::job::{attempt_seed, job_seed, JobRecord, JobSpec, JobState};
use crate::manifest::{encode_manifest, BatchMeta};
use crate::queue::JobQueue;
use resilience::splitmix64;

/// A failure of the supervisor itself (not of a job — job failures end in
/// quarantine records, never here).
#[derive(Debug, Clone, PartialEq)]
pub enum SupervisorError {
    /// A bad jobs file or configuration.
    Spec(String),
    /// Filesystem I/O on the checkpoint directory or manifest.
    Io {
        /// Path involved.
        path: String,
        /// Underlying error message.
        message: String,
    },
    /// A manifest or per-job checkpoint failed validation.
    Checkpoint(CheckpointError),
    /// The resume manifest does not match this batch (different seed,
    /// job count, or job ids).
    ManifestMismatch(String),
}

impl std::fmt::Display for SupervisorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SupervisorError::Spec(msg) => write!(f, "batch spec: {msg}"),
            SupervisorError::Io { path, message } => {
                write!(f, "batch I/O on {path}: {message}")
            }
            SupervisorError::Checkpoint(e) => write!(f, "batch checkpoint: {e}"),
            SupervisorError::ManifestMismatch(msg) => {
                write!(f, "resume manifest mismatch: {msg}")
            }
        }
    }
}

impl std::error::Error for SupervisorError {}

impl From<CheckpointError> for SupervisorError {
    fn from(e: CheckpointError) -> Self {
        SupervisorError::Checkpoint(e)
    }
}

/// Worker-boundary chaos draw: whether injection `site` (1 = panic,
/// 2 = hang, 3 = transient) fires for the attempt seeded `aseed` at
/// `rate`. Distinct from the *pipeline* fault plan (which injects
/// numerical failures inside stages): these model infrastructure
/// failures — a worker panic, a hang, a transient error.
fn injected(rate: f64, aseed: u64, site: u64) -> bool {
    if rate <= 0.0 {
        return false;
    }
    let u = (splitmix64(aseed ^ splitmix64(site.wrapping_add(0xC0FFEE))) >> 11) as f64
        / (1u64 << 53) as f64;
    u < rate
}

/// Supervisor configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SupervisorConfig {
    /// Worker threads (clamped to at least 1).
    pub workers: usize,
    /// Batch seed: the root of every per-job derivation.
    pub batch_seed: u64,
    /// Supervisor-level retries per job: a failed attempt retries at once,
    /// and the job is quarantined after `max_retries + 1` attempts.
    pub max_retries: usize,
    /// Budget ticks per VQE slice (`0` = one unbounded slice). This is
    /// the deterministic job-timeout grain: an attempt that needs more
    /// than [`max_slices`](Self::max_slices) slices times out.
    pub slice_ticks: u64,
    /// Wall-clock bound per slice — the production `--job-timeout` knob
    /// (composes with `slice_ticks`; the scarcer limit wins). Wall-clock
    /// timeouts are inherently nondeterministic; deterministic batches
    /// use `slice_ticks` alone.
    pub slice_wall: Option<Duration>,
    /// Slices an attempt may consume before it counts as timed out.
    /// Must be positive.
    pub max_slices: usize,
    /// Fault rate for the *pipeline* fault plan (SCF poison, geometry
    /// collapse, coupling-graph chord, VQE NaN), per
    /// [`resilience::FaultPlan`].
    pub pipeline_fault_rate: f64,
    /// Per-attempt probability in `[0, 1]` of each worker-boundary chaos
    /// injection — a panic, a hang (budget slices that make no progress)
    /// and a transient error, each drawn independently from the attempt
    /// seed. `0` injects nothing (the production configuration).
    pub injection_rate: f64,
    /// Drain after this many budget slices batch-wide. The tick budget is
    /// shared by every worker: at one worker the drain cuts each job at
    /// the same slice on every run, but at more than one the job it cuts
    /// depends on how the workers interleave. Whatever the cut, the
    /// drained-then-resumed records equal an uninterrupted batch's.
    pub drain_after_ticks: Option<u64>,
    /// Wall-clock drain deadline (production `--deadline`).
    pub deadline: Option<Duration>,
    /// Directory for per-job checkpoints and the batch manifest. Without
    /// it a drain still stops cleanly but in-flight progress is
    /// discarded (jobs restart their attempt on resume).
    pub ckpt_dir: Option<PathBuf>,
    /// Directory for flight-recorder dumps (`flight-<job>.jsonl`). When
    /// set, the ring is dumped on every quarantine (panic, timeout,
    /// exhausted retries), on drain/deadline interruptions, and — via the
    /// armed process-global hook — whenever a resilience fault fires.
    pub flight_dir: Option<PathBuf>,
    /// Keep an in-place stderr status line (done/running/queued/...)
    /// that a worker re-renders whenever it takes a job or stores a record.
    pub progress_stderr: bool,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            workers: 2,
            batch_seed: 42,
            max_retries: 3,
            slice_ticks: 0,
            slice_wall: None,
            max_slices: 64,
            pipeline_fault_rate: 0.0,
            injection_rate: 0.0,
            drain_after_ticks: None,
            deadline: None,
            ckpt_dir: None,
            flight_dir: None,
            progress_stderr: false,
        }
    }
}

/// What a whole batch produced: one record per job, in arrival order.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchReport {
    /// Per-job records, indexed by arrival order.
    pub records: Vec<JobRecord>,
    /// Batch seed the run used (manifest validation key).
    pub batch_seed: u64,
}

impl BatchReport {
    fn count(&self, label: &str) -> usize {
        self.records
            .iter()
            .filter(|r| r.state.label() == label)
            .count()
    }

    /// Jobs that completed.
    pub fn done(&self) -> usize {
        self.count("done")
    }

    /// Jobs quarantined after exhausting their retries.
    pub fn quarantined(&self) -> usize {
        self.count("quarantined")
    }

    /// Jobs recorded as shed: a batch never sheds, but a manifest sealed
    /// by a build with admission control may carry `shed` records.
    pub fn shed(&self) -> usize {
        self.count("shed")
    }

    /// Jobs a drain left unfinished (resumable via the manifest).
    pub fn pending(&self) -> usize {
        self.count("pending")
    }

    /// Whether every job reached a terminal state (no drain residue).
    pub fn all_terminal(&self) -> bool {
        self.records.iter().all(|r| r.state.is_terminal())
    }
}

/// Runs a fresh batch under the supervisor.
///
/// # Errors
///
/// [`SupervisorError`] on configuration or checkpoint-directory problems;
/// job failures end in quarantine records, not errors.
pub fn run_batch(
    jobs: &[JobSpec],
    config: &SupervisorConfig,
) -> Result<BatchReport, SupervisorError> {
    run_batch_resumed(jobs, config, None)
}

/// Like [`run_batch`], but with the prior records of a drained batch:
/// terminal jobs keep their recorded outcomes, `Pending` jobs resume from
/// their recorded attempt/slice position (and persisted VQE checkpoint,
/// when one exists).
///
/// # Errors
///
/// [`SupervisorError::ManifestMismatch`] when `prior` does not line up
/// with `jobs`, otherwise as [`run_batch`].
pub fn run_batch_resumed(
    jobs: &[JobSpec],
    config: &SupervisorConfig,
    prior: Option<&[JobRecord]>,
) -> Result<BatchReport, SupervisorError> {
    if let Some(prior) = prior {
        if prior.len() != jobs.len() {
            return Err(SupervisorError::ManifestMismatch(format!(
                "manifest records {} jobs, batch has {}",
                prior.len(),
                jobs.len()
            )));
        }
        for (index, (spec, record)) in jobs.iter().zip(prior).enumerate() {
            if record.index != index {
                return Err(SupervisorError::ManifestMismatch(format!(
                    "manifest record {index} claims index {}",
                    record.index
                )));
            }
            if spec.id != record.id {
                return Err(SupervisorError::ManifestMismatch(format!(
                    "job {index} is `{}` in the manifest but `{}` in the batch",
                    record.id, spec.id
                )));
            }
        }
    }
    if jobs.is_empty() {
        return Err(SupervisorError::Spec("batch has no jobs".to_string()));
    }
    if config.max_slices == 0 {
        return Err(SupervisorError::Spec(
            "max_slices must be positive (a hung attempt must eventually time out)".to_string(),
        ));
    }
    if config.injection_rate > 0.0 {
        silence_injected_panics();
    }
    if let Some(dir) = &config.ckpt_dir {
        std::fs::create_dir_all(dir).map_err(|e| SupervisorError::Io {
            path: dir.display().to_string(),
            message: e.to_string(),
        })?;
    }
    if let Some(dir) = &config.flight_dir {
        std::fs::create_dir_all(dir).map_err(|e| SupervisorError::Io {
            path: dir.display().to_string(),
            message: e.to_string(),
        })?;
        // Arm fault-triggered dumps for the duration of the batch.
        obs::flight::arm_dump_dir(Some(dir.clone()));
    }

    let mut batch_span = obs::span("supervisor.batch");
    batch_span.record("jobs", jobs.len());
    batch_span.record("workers", config.workers.max(1));
    batch_span.record("resumed", prior.is_some());

    // Seed every slot: terminal prior records carry over untouched;
    // everything else goes to the queue.
    let mut slots: Vec<Option<JobRecord>> = vec![None; jobs.len()];
    let mut to_run: Vec<usize> = Vec::new();
    for (index, slot) in slots.iter_mut().enumerate() {
        match prior.map(|prior| &prior[index]) {
            Some(record) if record.state.is_terminal() => *slot = Some(record.clone()),
            _ => to_run.push(index),
        }
    }

    let drain = match (config.drain_after_ticks, config.deadline) {
        (None, None) => None,
        (Some(ticks), None) => Some(Budget::max_ticks(ticks)),
        (None, Some(limit)) => Some(Budget::wall_clock(limit)),
        (Some(ticks), Some(limit)) => Some(Budget::wall_clock(limit).with_max_ticks(ticks)),
    };

    let queue = JobQueue::new();
    for &index in &to_run {
        // Short jobs ride the fast lane so they are not stuck behind long
        // VQE runs; outcomes are index-keyed, so lane order never changes
        // records.
        queue.push(index, jobs[index].lane());
    }
    queue.close();

    let slots = Mutex::new(slots);
    let lock = || slots.lock().unwrap_or_else(|e| e.into_inner());
    let show_progress = || {
        if config.progress_stderr {
            // Written under the slot lock, so a stale line never lands
            // after a fresh one; a closed stderr drops the line rather
            // than panicking.
            let slots = lock();
            let _ = write!(
                std::io::stderr().lock(),
                "\r{}",
                status_line(&slots, queue.len())
            );
        }
    };
    let workers = config.workers.max(1).min(to_run.len().max(1));
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    while let Some(index) = queue.pop() {
                        show_progress();
                        let start = start_state(prior.map(|prior| &prior[index]), config);
                        let record = if drain.as_ref().is_some_and(Budget::is_expired) {
                            // The drain hit before this job started: it goes
                            // back to the manifest exactly as it stood.
                            pending_record(index, &jobs[index], &start)
                        } else {
                            run_supervised_job(index, &jobs[index], config, drain.as_ref(), start)
                        };
                        lock()[index] = Some(record);
                        show_progress();
                    }
                })
            })
            .collect();
        for handle in handles {
            let _ = handle.join();
        }
    });
    if config.progress_stderr {
        // Terminate the in-place status line.
        let _ = writeln!(std::io::stderr().lock());
    }

    // Every queued index was popped by exactly one worker (the queue
    // drains before close returns None), so a hole cannot occur; a
    // defensive record beats a panic in the supervisor.
    let records: Vec<JobRecord> = slots
        .into_inner()
        .unwrap_or_else(|e| e.into_inner())
        .into_iter()
        .zip(jobs)
        .enumerate()
        .map(|(index, (slot, spec))| {
            slot.unwrap_or_else(|| JobRecord {
                index,
                id: spec.id.clone(),
                state: JobState::Quarantined {
                    attempts: 0,
                    stage: "supervisor".to_string(),
                    error: "job was never scheduled".to_string(),
                },
                retries: 0,
            })
        })
        .collect();

    let label_count = |label: &str| records.iter().filter(|r| r.state.label() == label).count();
    batch_span.record("done", label_count("done"));
    batch_span.record("quarantined", label_count("quarantined"));
    batch_span.record("shed", label_count("shed"));
    batch_span.record("pending", label_count("pending"));

    if config.flight_dir.is_some() {
        obs::flight::arm_dump_dir(None);
    }
    let report = BatchReport {
        records,
        batch_seed: config.batch_seed,
    };
    obs::counter_add("supervisor.batches", 1);

    if let Some(dir) = &config.ckpt_dir {
        let meta = BatchMeta {
            batch_seed: config.batch_seed,
            jobs: jobs.len(),
            pipeline_fault_rate: config.pipeline_fault_rate,
        };
        let path = dir.join("batch.manifest");
        encode_manifest(&meta, &report.records)
            .write(&path)
            .map_err(SupervisorError::from)?;
        obs::event!("supervisor.manifest_written", pending = report.pending());
    }
    Ok(report)
}

/// Where a job starts: attempt 0 for fresh jobs, the recorded position
/// (attempt, slice count, persisted checkpoint) for resumed ones.
struct StartState {
    attempt: usize,
    slices_used: usize,
    resume_ck: Option<VqeCheckpoint>,
    ck_name: Option<String>,
}

fn start_state(record: Option<&JobRecord>, config: &SupervisorConfig) -> StartState {
    let fresh = StartState {
        attempt: 0,
        slices_used: 0,
        resume_ck: None,
        ck_name: None,
    };
    let Some(record) = record else {
        return fresh;
    };
    let JobState::Pending {
        attempt,
        slices_used,
        checkpoint,
    } = &record.state
    else {
        return fresh;
    };
    let resume_ck = checkpoint.as_ref().and_then(|name| {
        let dir = config.ckpt_dir.as_ref()?;
        stages::read_vqe_checkpoint(&dir.join(name)).ok()
    });
    StartState {
        attempt: *attempt,
        // A lost/corrupt checkpoint restarts the attempt from slice 0 —
        // determinism is the backstop, the answer comes out the same.
        slices_used: if resume_ck.is_some() { *slices_used } else { 0 },
        resume_ck,
        ck_name: checkpoint.clone(),
    }
}

fn pending_record(index: usize, spec: &JobSpec, start: &StartState) -> JobRecord {
    JobRecord {
        index,
        id: spec.id.clone(),
        state: JobState::Pending {
            attempt: start.attempt,
            slices_used: start.slices_used,
            checkpoint: start.ck_name.clone(),
        },
        retries: start.attempt,
    }
}

/// What one attempt produced.
enum AttemptOutcome {
    Done {
        energy_bits: u64,
        iterations: usize,
        evaluations: usize,
        scf_retries: usize,
        sabre_fallback: bool,
    },
    Drained {
        slices_used: usize,
        ck: Option<Box<VqeCheckpoint>>,
    },
    Failed {
        stage: String,
        error: String,
    },
}

/// Runs one job to its record: the retry ladder, panic isolation, and
/// drain handling around [`attempt_job`]. A failed attempt retries at
/// once; the job is quarantined after `max_retries + 1` attempts.
fn run_supervised_job(
    index: usize,
    spec: &JobSpec,
    config: &SupervisorConfig,
    drain: Option<&Budget>,
    start: StartState,
) -> JobRecord {
    par::with_threads(1, || {
        let jseed = job_seed(config.batch_seed, index);
        let mut resume_ck = start.resume_ck;
        let mut slices_base = start.slices_used;
        let mut attempt = start.attempt;
        // Fresh flight ring for this job: a later dump holds only this
        // job's telemetry (the worker thread is pinned for the job body).
        obs::flight::set_job(&spec.id);
        obs::event!("supervisor.job_start", job = index, attempt = attempt);

        loop {
            let aseed = attempt_seed(jseed, attempt);
            let inject_panic = injected(config.injection_rate, aseed, 1);
            let inject_hang = injected(config.injection_rate, aseed, 2);
            let inject_transient = injected(config.injection_rate, aseed, 3);
            let taken_ck = resume_ck.take();
            let start_slices = slices_base;
            slices_base = 0;

            let outcome = catch_unwind(AssertUnwindSafe(|| {
                if inject_panic {
                    panic!("injected panic (job {index} attempt {attempt})");
                }
                attempt_job(
                    spec,
                    aseed,
                    inject_hang,
                    inject_transient,
                    taken_ck,
                    start_slices,
                    config,
                    drain,
                )
            }));

            let failure = match outcome {
                Err(_) => {
                    obs::counter_add("supervisor.panics_caught", 1);
                    obs::event!("supervisor.panic_caught", job = index, attempt = attempt);
                    ("panic".to_string(), "worker panic (isolated)".to_string())
                }
                Ok(AttemptOutcome::Done {
                    energy_bits,
                    iterations,
                    evaluations,
                    scf_retries,
                    sabre_fallback,
                }) => {
                    obs::counter_add("supervisor.jobs_done", 1);
                    obs::event!("supervisor.job_done", job = index, attempts = attempt + 1);
                    return JobRecord {
                        index,
                        id: spec.id.clone(),
                        state: JobState::Done {
                            energy_bits,
                            iterations,
                            evaluations,
                            scf_retries,
                            sabre_fallback,
                        },
                        retries: attempt,
                    };
                }
                Ok(AttemptOutcome::Drained { slices_used, ck }) => {
                    let ck_name = ck.and_then(|state| {
                        let dir = config.ckpt_dir.as_ref()?;
                        let name = format!("job{index}.vqe.ckpt");
                        match encode_vqe(&state)
                            .with_job(spec.id.clone())
                            .write(dir.join(&name))
                        {
                            Ok(()) => Some(name),
                            // Losing the checkpoint is not fatal: the
                            // attempt restarts on resume and determinism
                            // lands it on the same answer.
                            Err(_) => None,
                        }
                    });
                    obs::event!(
                        "supervisor.job_drained",
                        job = index,
                        attempt = attempt,
                        checkpointed = ck_name.is_some()
                    );
                    if let Some(dir) = &config.flight_dir {
                        let reason = if config.deadline.is_some() {
                            "deadline"
                        } else {
                            "drain"
                        };
                        let _ = obs::flight::dump(dir, &spec.id, reason);
                    }
                    return JobRecord {
                        index,
                        id: spec.id.clone(),
                        state: JobState::Pending {
                            attempt,
                            slices_used: if ck_name.is_some() { slices_used } else { 0 },
                            checkpoint: ck_name,
                        },
                        retries: attempt,
                    };
                }
                Ok(AttemptOutcome::Failed { stage, error }) => (stage, error),
            };

            let (stage, error) = failure;
            if stage == "timeout" {
                obs::counter_add("supervisor.timeouts", 1);
            }
            obs::counter_add("supervisor.retries", 1);
            obs::event!(
                "supervisor.job_retry",
                job = index,
                attempt = attempt,
                stage = stage.as_str()
            );
            if attempt >= config.max_retries {
                obs::counter_add("supervisor.jobs_quarantined", 1);
                obs::event!(
                    "supervisor.job_quarantined",
                    job = index,
                    attempts = attempt + 1,
                    stage = stage.as_str()
                );
                if let Some(dir) = &config.flight_dir {
                    let _ = obs::flight::dump(dir, &spec.id, &stage);
                }
                return JobRecord {
                    index,
                    id: spec.id.clone(),
                    state: JobState::Quarantined {
                        attempts: attempt + 1,
                        stage,
                        error,
                    },
                    retries: attempt,
                };
            }
            attempt += 1;
        }
    })
}

/// One attempt at the pipeline, in budget slices. Returns `Done` on
/// success, `Drained` when the batch drain cut it off mid-VQE, `Failed`
/// on anything else (including an injected transient or a timeout).
#[allow(clippy::too_many_arguments)]
fn attempt_job(
    spec: &JobSpec,
    aseed: u64,
    inject_hang: bool,
    inject_transient: bool,
    resume_ck: Option<VqeCheckpoint>,
    start_slices: usize,
    config: &SupervisorConfig,
    drain: Option<&Budget>,
) -> AttemptOutcome {
    if inject_transient {
        return AttemptOutcome::Failed {
            stage: "transient".to_string(),
            error: "injected transient fault".to_string(),
        };
    }

    let mut plan = FaultPlan::new(aseed, config.pipeline_fault_rate);
    let _root = stages::root();
    let (system, scf_retries) = match stages::build(spec.benchmark, spec.bond_length(), &mut plan) {
        Ok(built) => built,
        Err(e) => return failed(&e),
    };
    let (ir, _) = stages::ansatz(&system, spec.ratio);
    let x0 = stages::vqe_start(&ir, &mut plan);

    let mut resume = resume_ck;
    let mut slices = start_slices;
    let result = loop {
        if drain.is_some_and(Budget::is_expired) {
            return AttemptOutcome::Drained {
                slices_used: slices,
                ck: resume.map(Box::new),
            };
        }
        if slices >= config.max_slices {
            return AttemptOutcome::Failed {
                stage: "timeout".to_string(),
                error: format!(
                    "attempt exceeded {} budget slices of {} tick(s)",
                    config.max_slices, config.slice_ticks
                ),
            };
        }
        slices += 1;
        if let Some(d) = drain {
            d.tick();
        }
        // A hang is a slice that makes no progress: a born-expired
        // budget. The slice is consumed, the optimizer state is handed
        // straight back, and max_slices eventually calls it a timeout.
        let budget = if inject_hang {
            Budget::max_ticks(0)
        } else {
            let base = match config.slice_wall {
                Some(limit) => Budget::wall_clock(limit),
                None => Budget::unlimited(),
            };
            if config.slice_ticks > 0 {
                base.with_max_ticks(config.slice_ticks)
            } else {
                base
            }
        };
        match stages::vqe_slice(&system, &ir, &x0, resume.take(), &budget) {
            Ok(VqeRun::Done(r)) => break r,
            Ok(VqeRun::Interrupted(ck)) => resume = Some(*ck),
            Err(e) => return failed(&e),
        }
    };

    match stages::compile(&ir, &stages::xtree_for(&system), &mut plan) {
        Ok((_, strategy)) => AttemptOutcome::Done {
            energy_bits: result.energy.to_bits(),
            iterations: result.iterations,
            evaluations: result.evaluations,
            scf_retries,
            sabre_fallback: strategy == CompileStrategy::SabreFallback,
        },
        Err(e) => failed(&e),
    }
}

fn failed(e: &PcdError) -> AttemptOutcome {
    AttemptOutcome::Failed {
        stage: e.stage().to_string(),
        error: e.to_string(),
    }
}

/// The `--progress` status line: the batch's records so far, the `queued`
/// jobs no worker has taken, and the rest as running. `retries` sums the
/// stored records' retries.
fn status_line(slots: &[Option<JobRecord>], queued: usize) -> String {
    let records = || slots.iter().flatten();
    let count = |label: &str| records().filter(|r| r.state.label() == label).count();
    let running = slots.len().saturating_sub(records().count() + queued);
    let retries: usize = records().map(|r| r.retries).sum();
    format!(
        "[batch] {}/{} done  {running} running  {queued} queued  {} quarantined  {} shed  \
         {} pending  retries {retries}",
        count("done"),
        slots.len(),
        count("quarantined"),
        count("shed"),
        count("pending"),
    )
}

/// Installs (once, chained) a panic hook that swallows the *injected*
/// panics' default stderr backtrace spam while leaving every other panic
/// exactly as loud as before.
fn silence_injected_panics() {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|s| s.starts_with("injected panic"));
            if !injected {
                previous(info);
            }
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use chem::Benchmark;

    fn h2_jobs(n: usize) -> Vec<JobSpec> {
        (0..n)
            .map(|i| JobSpec {
                id: format!("h2-{i}"),
                benchmark: Benchmark::H2,
                bond: Some(0.64 + 0.05 * i as f64),
                ratio: 1.0,
            })
            .collect()
    }

    #[test]
    fn clean_batch_completes_every_job() {
        let jobs = h2_jobs(3);
        let report = run_batch(&jobs, &SupervisorConfig::default()).unwrap();
        assert_eq!(report.done(), 3);
        assert!(report.all_terminal());
        for r in &report.records {
            assert_eq!(r.retries, 0);
            assert!(r.energy().unwrap() < -1.0, "H2 energy sanity");
        }
    }

    #[test]
    fn worker_count_does_not_change_records() {
        let jobs = h2_jobs(4);
        let config = SupervisorConfig {
            injection_rate: 0.3,
            pipeline_fault_rate: 0.2,
            slice_ticks: 2,
            ..SupervisorConfig::default()
        };
        let base = run_batch(&jobs, &config).unwrap();
        for workers in [1, 4] {
            let other = run_batch(
                &jobs,
                &SupervisorConfig {
                    workers,
                    ..config.clone()
                },
            )
            .unwrap();
            assert_eq!(base.records, other.records, "workers = {workers}");
        }
    }

    #[test]
    fn injected_panics_are_isolated_and_retried() {
        let jobs = h2_jobs(4);
        // An injection rate high enough that several jobs draw at least
        // one panic; retries draw fresh and recover.
        let config = SupervisorConfig {
            injection_rate: 0.6,
            max_retries: 6,
            ..SupervisorConfig::default()
        };
        let report = run_batch(&jobs, &config).unwrap();
        assert!(report.all_terminal(), "no job may be lost to a panic");
        assert!(
            report.records.iter().any(|r| r.retries > 0),
            "at a 60% injection rate some job must have retried"
        );
    }

    #[test]
    fn always_panicking_job_is_quarantined_not_fatal() {
        let jobs = h2_jobs(1);
        // At rate 1 every draw fires, and the panic fires first.
        let config = SupervisorConfig {
            injection_rate: 1.0,
            max_retries: 2,
            ..SupervisorConfig::default()
        };
        let report = run_batch(&jobs, &config).unwrap();
        match &report.records[0].state {
            JobState::Quarantined {
                attempts, stage, ..
            } => {
                assert_eq!(*attempts, 3, "max_retries 2 = 3 attempts");
                assert_eq!(stage, "panic");
            }
            other => panic!("expected quarantine, got {other:?}"),
        }
    }

    #[test]
    fn hang_injection_times_out_instead_of_wedging() {
        let jobs = h2_jobs(1);
        // A batch seed whose only attempt draws a hang and neither a panic
        // nor a transient.
        let rate = 0.5;
        let hang_only = |batch_seed: u64| {
            let aseed = attempt_seed(job_seed(batch_seed, 0), 0);
            !injected(rate, aseed, 1) && injected(rate, aseed, 2) && !injected(rate, aseed, 3)
        };
        let batch_seed = (0..).find(|&seed| hang_only(seed)).unwrap();
        let config = SupervisorConfig {
            batch_seed,
            injection_rate: rate,
            slice_ticks: 2,
            max_slices: 4,
            max_retries: 0,
            ..SupervisorConfig::default()
        };
        let report = run_batch(&jobs, &config).unwrap();
        match &report.records[0].state {
            JobState::Quarantined { stage, .. } => assert_eq!(stage, "timeout"),
            other => panic!("expected timeout quarantine, got {other:?}"),
        }
    }

    #[test]
    fn progress_line_does_not_change_records() {
        let jobs = h2_jobs(3);
        let config = SupervisorConfig {
            injection_rate: 0.3,
            slice_ticks: 2,
            ..SupervisorConfig::default()
        };
        let quiet = run_batch(&jobs, &config).unwrap();
        let shown = run_batch(
            &jobs,
            &SupervisorConfig {
                progress_stderr: true,
                ..config
            },
        )
        .unwrap();
        assert_eq!(quiet.records, shown.records);
    }

    #[test]
    fn status_line_counts_the_slots_and_the_queue() {
        let record = |index: usize, state: JobState, retries: usize| {
            Some(JobRecord {
                index,
                id: format!("j{index}"),
                state,
                retries,
            })
        };
        let slots = [
            record(0, JobState::Shed, 0),
            record(
                1,
                JobState::Done {
                    energy_bits: (-1.1f64).to_bits(),
                    iterations: 9,
                    evaluations: 20,
                    scf_retries: 0,
                    sabre_fallback: false,
                },
                2,
            ),
            record(
                2,
                JobState::Quarantined {
                    attempts: 4,
                    stage: "panic".to_string(),
                    error: String::new(),
                },
                3,
            ),
            None,
            record(
                4,
                JobState::Pending {
                    attempt: 1,
                    slices_used: 2,
                    checkpoint: None,
                },
                1,
            ),
            None,
        ];
        assert_eq!(
            status_line(&slots, 1),
            "[batch] 1/6 done  1 running  1 queued  1 quarantined  1 shed  1 pending  retries 6"
        );
    }

    #[test]
    fn shed_record_in_a_manifest_decodes_and_resumes_untouched() {
        // Builds that had admission control sealed `shed` records; a
        // resume keeps them and runs every other job.
        let jobs = h2_jobs(2);
        let shed = JobRecord {
            index: 0,
            id: jobs[0].id.clone(),
            state: JobState::Shed,
            retries: 0,
        };
        let pending = JobRecord {
            index: 1,
            id: jobs[1].id.clone(),
            state: JobState::Pending {
                attempt: 0,
                slices_used: 0,
                checkpoint: None,
            },
            retries: 0,
        };
        let meta = BatchMeta {
            batch_seed: SupervisorConfig::default().batch_seed,
            jobs: 2,
            pipeline_fault_rate: 0.0,
        };
        let manifest = encode_manifest(&meta, &[shed.clone(), pending]);
        let (_, prior) = crate::manifest::decode_manifest(&manifest).unwrap();
        let report = run_batch_resumed(&jobs, &SupervisorConfig::default(), Some(&prior)).unwrap();
        assert_eq!(report.records[0], shed);
        assert_eq!(report.done(), 1);
        assert!(report.all_terminal());
    }

    #[test]
    fn empty_batch_and_zero_max_slices_are_spec_errors() {
        assert!(matches!(
            run_batch(&[], &SupervisorConfig::default()),
            Err(SupervisorError::Spec(_))
        ));
        let jobs = h2_jobs(1);
        let config = SupervisorConfig {
            max_slices: 0,
            ..SupervisorConfig::default()
        };
        assert!(matches!(
            run_batch(&jobs, &config),
            Err(SupervisorError::Spec(_))
        ));
    }

    #[test]
    fn mismatched_resume_manifest_is_rejected() {
        let jobs = h2_jobs(2);
        let prior = vec![JobRecord {
            index: 0,
            id: "other".to_string(),
            state: JobState::Shed,
            retries: 0,
        }];
        assert!(matches!(
            run_batch_resumed(&jobs, &SupervisorConfig::default(), Some(&prior)),
            Err(SupervisorError::ManifestMismatch(_))
        ));
    }
}
