//! CRC-framed TCP transport for multi-machine batches.
//!
//! The supervisor's shard layer (PR 7) made one batch survivable across
//! *processes* that share a checkpoint directory. This crate removes the
//! shared-directory assumption: a coordinator and its workers speak a
//! small framed protocol over TCP (loopback in CI, real hosts in
//! production), so the only thing machines share is the wire.
//!
//! - **Frames** ([`frame`]) — every message travels as a length-prefixed
//!   frame sealed with the same CRC-32 the checkpoint container uses. A
//!   truncated, bit-flipped, or mis-framed message surfaces as a typed
//!   [`FrameError`] *before* any payload parsing —
//!   the transport twin of "verify the checksum before trusting the
//!   bytes". The incremental [`FrameReader`]
//!   reassembles frames from arbitrarily small reads, so a peer that
//!   dribbles one byte at a time decodes identically to one that writes
//!   whole frames.
//! - **Messages** ([`message`]) — the coordinator/worker vocabulary
//!   (hello/welcome/claim/grant/job-result/heartbeat/ack/reject/drain) as single-line JSON payloads, mirroring the serve
//!   protocol's one-object-per-line idiom. Job records travel as opaque
//!   manifest-encoded JSON strings, so the supervisor's bit-exact record
//!   encoding is reused verbatim rather than re-specified here.
//! - **Fault proxy** ([`proxy`]) — an in-process TCP proxy that sits
//!   between coordinator and workers and, driven by the seeded
//!   [`resilience::FaultPlan`] sites `net.frame_write`, `net.accept`,
//!   and `net.partition`, drops, delays, corrupts, truncates,
//!   duplicates, and reorders frames and severs connections mid-message.
//!   `pcd chaos --campaign net` drives whole batches through it and
//!   asserts the merged manifest still matches the in-process reference
//!   bit for bit.
//!
//! Zero dependencies beyond the workspace's own `obs` and `resilience`:
//! the transport is `std::net` plus the codec in this crate.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod frame;
pub mod message;
pub mod proxy;

pub use frame::{encode_frame, read_frame, write_frame, FrameError, FrameReader, MAX_FRAME_LEN};
pub use message::{Message, ProtocolError, PROTOCOL_VERSION};
pub use proxy::{FaultProxy, ProxyOptions};
