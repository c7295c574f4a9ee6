//! The always-on co-design daemon behind `pcd serve`.
//!
//! The supervisor crate made one *batch* survivable; this crate makes the
//! *process* survivable. `pcd serve` listens on a Unix socket for JSONL
//! job requests (the same spec lines `pcd batch` reads), runs each one
//! through the supervised engine, and is hardened for continuous
//! operation:
//!
//! - **Two-lane request queue** ([`daemon`]) — every accepted connection
//!   is queued on the supervisor's [`JobQueue`](supervisor::JobQueue):
//!   interactive requests ride the fast [`Lane`](supervisor::Lane),
//!   resumed backlog the slow lane. An injected accept fault answers with
//!   a *typed* shed response — never a silent drop. Per-request deadlines
//!   propagate into the engine's wall-clock drain, and a client that
//!   disconnects while queued is cancelled before its job spends any
//!   compute.
//! - **Content-addressed result cache** ([`cache`]) — a request's
//!   identity (molecule, basis, bond bits, compression ratio bits,
//!   topology, serve seed, fault rate) hashes to a CRC-sealed cache
//!   entry. Repeat traffic is O(1): a hit answers from the sealed entry
//!   without touching SCF or VQE. A truncated or bit-flipped entry fails
//!   its CRC *before* being trusted, is quarantined aside as
//!   `*.quarantined` (counted by `pcd report`), and the request
//!   is recomputed — corruption degrades throughput, never correctness.
//! - **Zero-downtime restart** ([`daemon`]) — SIGTERM (or a `drain` op)
//!   gracefully drains: in-flight jobs finish, queued requests are
//!   journaled as `pending`, and the daemon seals a `serve.manifest` in
//!   the batch-manifest schema. A restarted daemon replays the manifest,
//!   recomputes the pending tail through the same content-keyed path, and
//!   produces records bit-identical to an uninterrupted run.
//! - **Chaos campaign** ([`chaos`]) — `pcd chaos --campaign serve` runs
//!   seeded kill/corrupt/disconnect storms against real daemon
//!   subprocesses and asserts the daemon never wedges, never serves a
//!   corrupt cached result, and replays bit-identically to an in-process
//!   reference.
//!
//! Determinism carries over from the batch engine, but keyed by
//! *content* instead of arrival order: a request's outcome is a pure
//! function of `(serve seed, spec)`, so a cache hit, a recompute after
//! quarantine, and a post-restart resume all produce the same bits.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod cache;
pub mod chaos;
pub mod daemon;
pub mod protocol;
pub mod sys;

pub use cache::{cache_key, Cache, CacheProbe, CachedResult, CACHE_EXT, KIND_SERVE_CACHE};
pub use chaos::{run_serve_chaos, ServeChaosOptions};
pub use daemon::{
    compute_record, request_seed, run_serve, ServeConfig, ServeError, ServeSummary,
    KIND_SERVE_MANIFEST,
};
pub use protocol::{parse_request, Request};
