//! Supervised batch job execution for the pauli-codesign pipeline.
//!
//! One `pcd` invocation used to mean exactly one pipeline run: a single
//! panicking kernel, a hung SCF, or one pathological molecule took the
//! whole process down. This crate is the missing serving layer — it runs
//! many pipeline jobs (molecule × bond × compression configurations) over
//! a pool of supervised workers and keeps the fleet alive when individual
//! jobs fail:
//!
//! - **Two-lane work queue** ([`queue`]) — a batch runs every job it is
//!   given; short jobs ride the fast lane so long VQE runs cannot
//!   head-of-line-block them, and since outcomes are index-keyed the
//!   lane order never changes a record.
//! - **Panic isolation** ([`engine`]) — each job attempt runs inside
//!   `catch_unwind` at the worker boundary; a panic is a per-job failure,
//!   never a process abort, and a job that keeps failing is *quarantined*
//!   after its retry budget so one bad input cannot wedge the queue.
//! - **Timeouts, backoff, and circuit breaking** ([`backoff`],
//!   [`breaker`]) — job attempts run in budget slices on [`par::Budget`];
//!   a seedable exponential-backoff-plus-jitter ladder spaces retries, and
//!   a per-job, per-stage (SCF / compile / VQE) circuit breaker counts
//!   the job's failures at each stage and fails it fast once one stage
//!   reaches the threshold.
//! - **Graceful drain** ([`manifest`]) — on deadline or drain request,
//!   in-flight jobs checkpoint through the resilience container (format
//!   v2, tagged with the job id) and the supervisor emits a resumable
//!   manifest; a drained-then-resumed batch finishes **bit-identically**
//!   to an uninterrupted one.
//!
//! Determinism is the design axis everything bends around: a job's
//! outcome is a pure function of `(batch_seed, job_index, spec)` — never
//! of which worker ran it, how many workers exist, or where the drain cut
//! — so the per-job results of a batch are identical at 1, 2, or 4
//! workers, and the [`chaos`] harness can assert bit-for-bit equality
//! between interrupted and uninterrupted batches while injecting panics,
//! hangs, and transient faults.
//!
//! Determinism is also what makes the batch **horizontally shardable**
//! ([`remote`]): a TCP coordinator splits a batch across
//! worker processes by `index % N`, grants each shard under a monotonic
//! lease epoch, re-grants a silent worker's shard at the next epoch,
//! checks every record on the wire as it arrives, and seals the union of
//! its record table as a `batch.manifest` that is bit-identical to a
//! 1-shard run's — takeover provenance goes to `net.takeover` trace
//! events, never into the manifest.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod backoff;
pub mod breaker;
pub mod chaos;
pub mod engine;
pub mod job;
pub mod manifest;
pub mod progress;
pub mod queue;
pub mod remote;

pub use backoff::BackoffPolicy;
pub use breaker::{CircuitBreaker, Stage};
pub use chaos::{run_net_chaos, run_supervised_chaos, NetChaosOptions, SupervisedChaosOptions};
pub use engine::{
    run_batch, run_batch_resumed, BatchReport, InjectionPlan, SupervisorConfig, SupervisorError,
};
pub use job::{attempt_seed, job_seed, parse_jobs, JobRecord, JobSpec, JobState};
pub use manifest::{decode_manifest, encode_manifest, BatchMeta, KIND_BATCH_MANIFEST};
pub use progress::{ProgressSnapshot, ProgressTracker};
pub use queue::{JobQueue, Lane, FAST_LANE_MAX_QUBITS};
pub use remote::{
    reconnect_schedule, run_worker, Coordinator, CoordinatorOptions, CoordinatorReport,
    CoordinatorWatch, RemoteError, RemoteTakeover, WorkerOptions, WorkerReport,
};
