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
//! - **Timeouts and one retry cap** ([`engine`]) — job attempts run in
//!   budget slices on [`par::Budget`], so a hung attempt times out
//!   deterministically; a failed attempt retries at once, and the job is
//!   quarantined after `max_retries + 1` attempts.
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
//! A batch runs in one process: its workers are threads of the
//! [`engine`], and a drained batch resumes from its manifest in a later
//! process. Nothing splits a batch across processes or hosts.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod chaos;
pub mod engine;
pub mod job;
pub mod manifest;
pub mod queue;

pub use chaos::{run_supervised_chaos, SupervisedChaosOptions};
pub use engine::{run_batch, run_batch_resumed, BatchReport, SupervisorConfig, SupervisorError};
pub use job::{attempt_seed, job_seed, parse_jobs, JobRecord, JobSpec, JobState};
pub use manifest::{decode_manifest, encode_manifest, BatchMeta, KIND_BATCH_MANIFEST};
pub use queue::{JobQueue, Lane, FAST_LANE_MAX_QUBITS};
