//! True multi-machine sharding: a coordinator/worker protocol over TCP.
//!
//! This is the only cross-process batch path. Only the **coordinator**
//! touches the checkpoint directory; workers hold nothing but a socket,
//! so the same protocol serves one host (a loopback address) and many.
//!
//! - The coordinator owns the jobs file, the batch identity, and every
//!   lease. Workers [`net::message::Message::Claim`] shards and are
//!   granted them under **monotonic epochs**; a worker that stops
//!   heartbeating for the lease interval is presumed dead and its shard
//!   is re-granted at `epoch + 1` to the next claimant. Liveness is
//!   heartbeat silence on the wire, never a pid or a file mtime — those
//!   are meaningless across machines.
//! - Delivery is **at-least-once with content-keyed dedup**: workers
//!   resend every record of the active shard after a reconnect, and the
//!   coordinator collapses bit-identical duplicates (counting them) while
//!   rejecting divergent ones — the determinism contract (a record is a
//!   pure function of `(batch_seed, index, spec)`) is what makes blind
//!   resend safe.
//! - Worker reconnects reuse the supervisor's seeded
//!   [`BackoffPolicy`](crate::backoff::BackoffPolicy): the retry
//!   schedule is a pure function of `(worker id, attempt)` and replays
//!   bit-for-bit.
//! - Every record is checked on the wire as it arrives: a stale epoch is
//!   fenced off, an index must belong to the claimed shard, its id must
//!   match the jobs file, and a duplicate must be bit-identical. A record
//!   that passes is final; nothing re-validates it later.
//! - Degradation is graceful on both ends: a worker that exhausts its
//!   transport budget mid-shard seals what it has as a local
//!   `shard-<id>.manifest.partial` (the CRC-sealed shard codec, read only
//!   by `pcd report`) and exits resumable; a coordinator that loses every
//!   worker rescues unfinished shards in-process at the next epoch.
//!
//! After the last job lands the coordinator seals the union of its
//! per-shard record tables into `batch.manifest` with the same encoder a
//! single-process run uses, so a multi-machine batch's manifest is
//! bit-identical to a single-machine run's. Takeover provenance lives in
//! the `net.takeover` trace events and the [`CoordinatorReport`], never
//! in the manifest.

use std::collections::BTreeMap;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use net::{read_frame, write_frame, Message, PROTOCOL_VERSION};

use crate::backoff::BackoffPolicy;
use crate::engine::{run_scoped, InjectionPlan, SupervisorConfig, SupervisorError};
use crate::job::{parse_jobs, JobRecord, JobSpec};
use crate::manifest::{decode_record_sparse, encode_manifest, encode_record, BatchMeta};
use crate::shard::{encode_shard_manifest, shard_indices, ShardMeta, ShardSpec};
use resilience::splitmix64;

/// A remote-batch failure, split by exit taxonomy: transport exhaustion
/// is resumable (exit 36), a protocol mismatch is operator error
/// (exit 37), everything else is the usual supervisor failure.
#[derive(Debug)]
pub enum RemoteError {
    /// The transport died and the retry budget ran out. Partial progress
    /// (when any) was sealed locally; re-running the worker resumes.
    TransportLost(String),
    /// The peer speaks a different protocol (version skew, wrong batch,
    /// or a reply that makes no sense at this point in the exchange).
    Protocol(String),
    /// A local supervisor failure while running granted jobs.
    Supervisor(SupervisorError),
}

impl std::fmt::Display for RemoteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RemoteError::TransportLost(msg) => write!(f, "transport lost: {msg}"),
            RemoteError::Protocol(msg) => write!(f, "protocol mismatch: {msg}"),
            RemoteError::Supervisor(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for RemoteError {}

impl From<SupervisorError> for RemoteError {
    fn from(e: SupervisorError) -> Self {
        RemoteError::Supervisor(e)
    }
}

/// FNV-1a of a worker id — the stable seed root of its reconnect ladder.
fn worker_seed(worker_id: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in worker_id.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    splitmix64(h)
}

/// The deterministic reconnect schedule for a worker: delay before
/// reconnect attempt `1..=attempts`. Pure function of the inputs — the
/// replay guarantee `pcd chaos --campaign net` asserts.
pub fn reconnect_schedule(worker_id: &str, policy: &BackoffPolicy, attempts: usize) -> Vec<u64> {
    let seed = worker_seed(worker_id);
    (1..=attempts).map(|a| policy.delay_ms(seed, a)).collect()
}

// ---------------------------------------------------------------------------
// Coordinator
// ---------------------------------------------------------------------------

/// Coordinator knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct CoordinatorOptions {
    /// Address to listen on (port 0 = ephemeral, for tests).
    pub listen: SocketAddr,
    /// Number of net shards the batch is split into.
    pub shards: usize,
    /// A shard whose worker is silent this long is presumed dead and
    /// re-granted at the next epoch.
    pub lease_ms: u64,
    /// Heartbeat cadence workers are told to keep.
    pub heartbeat_ms: u64,
    /// Overall wall-clock bound on the run.
    pub deadline: Duration,
    /// When the whole fleet goes silent (or the deadline hits), finish
    /// unfinished shards in-process instead of failing.
    pub rescue: bool,
}

impl Default for CoordinatorOptions {
    fn default() -> Self {
        CoordinatorOptions {
            listen: SocketAddr::from(([127, 0, 0, 1], 0)),
            shards: 2,
            lease_ms: 500,
            heartbeat_ms: 100,
            deadline: Duration::from_secs(120),
            rescue: true,
        }
    }
}

/// One wire-level takeover: a shard re-granted past a dead worker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RemoteTakeover {
    /// The shard re-granted.
    pub shard_id: usize,
    /// Owner that went silent.
    pub from: String,
    /// Epoch the new grant runs under.
    pub epoch: u64,
}

/// What a coordinator run accomplished.
#[derive(Debug, Clone, PartialEq)]
pub struct CoordinatorReport {
    /// The full record set, ascending indices.
    pub records: Vec<JobRecord>,
    /// The sealed `batch.manifest` bytes — bit-identical to a
    /// single-machine run of the same batch.
    pub sealed: Vec<u8>,
    /// Epoch takeovers performed over the wire.
    pub takeovers: Vec<RemoteTakeover>,
    /// Shards the coordinator finished in-process after losing the fleet.
    pub rescued: Vec<usize>,
    /// Bit-identical duplicate records collapsed (reconnect resends).
    pub deduped: usize,
}

/// Per-shard book-keeping on the coordinator.
struct ShardSlot {
    granted: bool,
    epoch: u64,
    owner: Option<String>,
    taken_over_from: Option<String>,
    last_seen: Instant,
    done: bool,
    /// Global index → (wire record JSON, decoded record).
    records: BTreeMap<usize, (String, JobRecord)>,
}

struct CoordState {
    slots: Vec<ShardSlot>,
    takeovers: Vec<RemoteTakeover>,
    deduped: usize,
    last_activity: Instant,
    draining: bool,
}

impl CoordState {
    fn all_done(&self) -> bool {
        self.slots.iter().all(|s| s.done)
    }
}

/// Shared context every connection handler needs.
struct CoordCtx {
    state: Mutex<CoordState>,
    jobs_jsonl: String,
    /// Job ids by index: a record must carry its job's id.
    ids: Vec<String>,
    batch_seed: u64,
    fault_rate: f64,
    shards: usize,
    lease_ms: u64,
    heartbeat_ms: u64,
    active_conns: AtomicUsize,
    stop: AtomicBool,
}

/// A read-only view on a running coordinator's state, for harnesses that
/// need to time a kill against a grant.
#[derive(Clone)]
pub struct CoordinatorWatch {
    ctx: Arc<CoordCtx>,
}

impl CoordinatorWatch {
    /// The current owner of `shard_id`, if granted.
    pub fn owner_of(&self, shard_id: usize) -> Option<String> {
        let state = self.ctx.state.lock().unwrap_or_else(|e| e.into_inner());
        state.slots.get(shard_id).and_then(|s| s.owner.clone())
    }

    /// Whether any shard is currently granted to `worker`.
    pub fn granted_to(&self, worker: &str) -> bool {
        let state = self.ctx.state.lock().unwrap_or_else(|e| e.into_inner());
        state
            .slots
            .iter()
            .any(|s| s.granted && !s.done && s.owner.as_deref() == Some(worker))
    }
}

/// A bound-but-not-yet-running coordinator. Binding is split from
/// running so callers learn the (possibly ephemeral) address before the
/// blocking serve loop starts.
pub struct Coordinator {
    listener: TcpListener,
    addr: SocketAddr,
    jobs: Vec<JobSpec>,
    config: SupervisorConfig,
    dir: PathBuf,
    opts: CoordinatorOptions,
    ctx: Arc<CoordCtx>,
}

impl Coordinator {
    /// Binds the listen address and prepares the shard table.
    ///
    /// # Errors
    ///
    /// [`RemoteError::Supervisor`] on a bad spec (no jobs, no checkpoint
    /// directory, zero shards) or a bind failure.
    pub fn bind(
        jobs: &[JobSpec],
        config: &SupervisorConfig,
        opts: CoordinatorOptions,
    ) -> Result<Coordinator, RemoteError> {
        if jobs.is_empty() {
            return Err(SupervisorError::Spec("batch has no jobs".to_string()).into());
        }
        if opts.shards == 0 {
            return Err(SupervisorError::Spec("--shards must be at least 1".to_string()).into());
        }
        let Some(dir) = config.ckpt_dir.clone() else {
            return Err(SupervisorError::Spec(
                "a coordinator needs --checkpoint (batch.manifest seals there)".to_string(),
            )
            .into());
        };
        std::fs::create_dir_all(&dir).map_err(|e| {
            RemoteError::Supervisor(SupervisorError::Io {
                path: dir.display().to_string(),
                message: e.to_string(),
            })
        })?;
        let listener = TcpListener::bind(opts.listen)
            .map_err(|e| RemoteError::TransportLost(format!("bind {}: {e}", opts.listen)))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| RemoteError::TransportLost(e.to_string()))?;
        let addr = listener
            .local_addr()
            .map_err(|e| RemoteError::TransportLost(e.to_string()))?;
        let now = Instant::now();
        let slots = (0..opts.shards)
            .map(|_| ShardSlot {
                granted: false,
                epoch: 0,
                owner: None,
                taken_over_from: None,
                last_seen: now,
                done: false,
                records: BTreeMap::new(),
            })
            .collect();
        let jobs_jsonl: String = jobs.iter().map(|j| j.to_json_line() + "\n").collect();
        let ctx = Arc::new(CoordCtx {
            state: Mutex::new(CoordState {
                slots,
                takeovers: Vec::new(),
                deduped: 0,
                last_activity: now,
                draining: false,
            }),
            jobs_jsonl,
            ids: jobs.iter().map(|j| j.id.clone()).collect(),
            batch_seed: config.batch_seed,
            fault_rate: config.pipeline_fault_rate,
            shards: opts.shards,
            lease_ms: opts.lease_ms,
            heartbeat_ms: opts.heartbeat_ms,
            active_conns: AtomicUsize::new(0),
            stop: AtomicBool::new(false),
        });
        Ok(Coordinator {
            listener,
            addr,
            jobs: jobs.to_vec(),
            config: config.clone(),
            dir,
            opts,
            ctx,
        })
    }

    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A live view on grant state, usable while [`run`](Self::run)
    /// blocks on another thread.
    pub fn watch(&self) -> CoordinatorWatch {
        CoordinatorWatch {
            ctx: Arc::clone(&self.ctx),
        }
    }

    /// Serves the batch to completion: accepts workers, grants shards,
    /// expires silent leases into epoch takeovers, collects records, and
    /// seals them into `batch.manifest`.
    ///
    /// # Errors
    ///
    /// [`RemoteError::TransportLost`] when the deadline passes with
    /// rescue disabled, otherwise supervisor failures (a rescue run or the
    /// seal).
    pub fn run(self) -> Result<CoordinatorReport, RemoteError> {
        let mut span = obs::span("net.coordinator");
        span.record("shards", self.opts.shards);
        span.record("jobs", self.jobs.len());
        let accept = std::thread::spawn({
            let ctx = Arc::clone(&self.ctx);
            let listener = self
                .listener
                .try_clone()
                .map_err(|e| RemoteError::TransportLost(e.to_string()))?;
            move || accept_loop(&listener, &ctx)
        });

        let deadline = Instant::now() + self.opts.deadline;
        let lease = Duration::from_millis(self.opts.lease_ms.max(1));
        let mut rescued = Vec::new();
        loop {
            std::thread::sleep(Duration::from_millis(20));
            let (done, idle) = {
                let state = self.ctx.state.lock().unwrap_or_else(|e| e.into_inner());
                (state.all_done(), state.last_activity.elapsed())
            };
            if done {
                break;
            }
            let fleet_lost = idle > lease.saturating_mul(4).max(Duration::from_millis(500));
            let out_of_time = Instant::now() >= deadline;
            if out_of_time && !self.opts.rescue {
                self.ctx.stop.store(true, Ordering::SeqCst);
                let _ = accept.join();
                return Err(RemoteError::TransportLost(format!(
                    "deadline passed with unfinished shards and rescue disabled \
                     (idle {idle:?})"
                )));
            }
            if self.opts.rescue && (fleet_lost || out_of_time) {
                rescued = self.rescue()?;
                break;
            }
        }

        let report = self.seal(rescued);
        // Linger until connected workers have drained (they exit on the
        // Drain reply to their next claim), bounded so a wedged peer
        // cannot hold the coordinator open.
        {
            let mut state = self.ctx.state.lock().unwrap_or_else(|e| e.into_inner());
            state.draining = true;
        }
        let grace = Instant::now() + Duration::from_secs(3);
        while self.ctx.active_conns.load(Ordering::SeqCst) > 0 && Instant::now() < grace {
            std::thread::sleep(Duration::from_millis(10));
        }
        self.ctx.stop.store(true, Ordering::SeqCst);
        let _ = accept.join();
        let report = report?;
        span.record("takeovers", report.takeovers.len());
        span.record("deduped", report.deduped);
        Ok(report)
    }

    /// Finishes every unfinished shard in-process — the fleet is gone.
    fn rescue(&self) -> Result<Vec<usize>, RemoteError> {
        let unfinished: Vec<usize> = {
            let state = self.ctx.state.lock().unwrap_or_else(|e| e.into_inner());
            (0..self.opts.shards)
                .filter(|&s| !state.slots[s].done)
                .collect()
        };
        let mut rescued = Vec::new();
        for shard_id in unfinished {
            let (prior, from) = {
                let state = self.ctx.state.lock().unwrap_or_else(|e| e.into_inner());
                let slot = &state.slots[shard_id];
                (
                    slot.records
                        .values()
                        .map(|(_, r)| r.clone())
                        .collect::<Vec<_>>(),
                    slot.owner.clone(),
                )
            };
            let owned = shard_indices(
                self.jobs.len(),
                &ShardSpec {
                    shards: self.opts.shards,
                    shard_id,
                },
            );
            let records = run_scoped(
                &self.jobs,
                &self.config,
                if prior.is_empty() { None } else { Some(&prior) },
                Some(&owned),
            )?;
            obs::counter_add("net.coord.rescues", 1);
            obs::event!(
                "net.rescue",
                shard = shard_id,
                from = from.clone().unwrap_or_default()
            );
            let mut state = self.ctx.state.lock().unwrap_or_else(|e| e.into_inner());
            let slot = &mut state.slots[shard_id];
            slot.epoch += if slot.granted { 1 } else { 0 };
            slot.owner = Some("net:coordinator".to_string());
            slot.records = records
                .iter()
                .map(|r| (r.index, (encode_record(r).to_string(), r.clone())))
                .collect();
            slot.done = true;
            rescued.push(shard_id);
        }
        Ok(rescued)
    }

    /// Seals the union of the shard record tables as `batch.manifest`.
    /// Every slot is done or rescued by now, and the slots partition the
    /// indices, so the union is the whole batch and its bytes match a
    /// 1-shard run's.
    fn seal(&self, rescued: Vec<usize>) -> Result<CoordinatorReport, RemoteError> {
        let meta = BatchMeta {
            batch_seed: self.config.batch_seed,
            jobs: self.jobs.len(),
            pipeline_fault_rate: self.config.pipeline_fault_rate,
        };
        let (mut records, takeovers, deduped) = {
            let state = self.ctx.state.lock().unwrap_or_else(|e| e.into_inner());
            let records: Vec<JobRecord> = state
                .slots
                .iter()
                .flat_map(|slot| slot.records.values().map(|(_, r)| r.clone()))
                .collect();
            (records, state.takeovers.clone(), state.deduped)
        };
        records.sort_by_key(|r| r.index);
        if records.len() != self.jobs.len() {
            return Err(SupervisorError::Spec(format!(
                "coordinator holds {} of {} records at seal",
                records.len(),
                self.jobs.len()
            ))
            .into());
        }
        let manifest = encode_manifest(&meta, &records);
        manifest
            .write(self.dir.join("batch.manifest"))
            .map_err(SupervisorError::from)?;
        obs::event!(
            "supervisor.manifest_written",
            pending = records.iter().filter(|r| !r.state.is_terminal()).count()
        );
        Ok(CoordinatorReport {
            records,
            sealed: manifest.to_bytes(),
            takeovers,
            rescued,
            deduped,
        })
    }
}

fn accept_loop(listener: &TcpListener, ctx: &Arc<CoordCtx>) {
    while !ctx.stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                ctx.active_conns.fetch_add(1, Ordering::SeqCst);
                let ctx = Arc::clone(ctx);
                std::thread::spawn(move || {
                    handle_conn(stream, &ctx);
                    ctx.active_conns.fetch_sub(1, Ordering::SeqCst);
                });
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => std::thread::sleep(Duration::from_millis(2)),
        }
    }
}

/// One connection: strict one-request/one-response framing. Any read or
/// write failure closes the connection — the worker reconnects and the
/// at-least-once layer absorbs the gap.
fn handle_conn(mut stream: TcpStream, ctx: &Arc<CoordCtx>) {
    // Bounded reads so a severed peer cannot pin this handler forever;
    // generous enough that a worker quietly computing between results
    // (heartbeats travel on their own connection) is never cut off.
    let _ = stream.set_read_timeout(Some(Duration::from_secs(30)));
    while let Ok(payload) = read_frame(&mut stream) {
        let reply = match Message::decode(&payload) {
            Ok(msg) => respond(msg, ctx),
            Err(e) => Message::Reject {
                reason: format!("undecodable message: {e}"),
            },
        };
        {
            let mut state = ctx.state.lock().unwrap_or_else(|e| e.into_inner());
            state.last_activity = Instant::now();
        }
        if write_frame(&mut stream, &reply.encode()).is_err() {
            break;
        }
    }
}

fn respond(msg: Message, ctx: &Arc<CoordCtx>) -> Message {
    match msg {
        Message::Hello { worker, version } => {
            if version != PROTOCOL_VERSION {
                obs::counter_add("net.coord.version_rejected", 1);
                return Message::Reject {
                    reason: format!(
                        "protocol version {version} unsupported (coordinator speaks \
                         {PROTOCOL_VERSION})"
                    ),
                };
            }
            obs::event!("net.hello", worker = worker);
            Message::Welcome {
                batch_seed: ctx.batch_seed,
                fault_rate_bits: ctx.fault_rate.to_bits(),
                shards: ctx.shards,
                jobs_jsonl: ctx.jobs_jsonl.clone(),
                lease_ms: ctx.lease_ms,
                heartbeat_ms: ctx.heartbeat_ms,
            }
        }
        Message::Claim { worker } => {
            let mut state = ctx.state.lock().unwrap_or_else(|e| e.into_inner());
            if state.draining || state.all_done() {
                return Message::Drain;
            }
            let lease = Duration::from_millis(ctx.lease_ms.max(1));
            for shard_id in 0..ctx.shards {
                let slot = &mut state.slots[shard_id];
                if slot.done {
                    continue;
                }
                if !slot.granted {
                    slot.granted = true;
                    slot.owner = Some(worker.clone());
                    slot.last_seen = Instant::now();
                    obs::counter_add("net.coord.grants", 1);
                    return Message::Grant {
                        shard_id,
                        epoch: slot.epoch,
                        taken_over_from: slot.taken_over_from.clone(),
                    };
                }
                if slot.last_seen.elapsed() > lease {
                    // Epoch takeover: the incumbent is presumed dead.
                    let from = slot.owner.clone().unwrap_or_default();
                    slot.epoch += 1;
                    slot.taken_over_from = Some(from.clone());
                    slot.owner = Some(worker.clone());
                    slot.last_seen = Instant::now();
                    let epoch = slot.epoch;
                    state.takeovers.push(RemoteTakeover {
                        shard_id,
                        from: from.clone(),
                        epoch,
                    });
                    obs::counter_add("net.coord.takeovers", 1);
                    obs::event!("net.takeover", shard = shard_id, from = from, epoch = epoch);
                    return Message::Grant {
                        shard_id,
                        epoch,
                        taken_over_from: state.slots[shard_id].taken_over_from.clone(),
                    };
                }
            }
            Message::Wait {
                backoff_ms: ctx.heartbeat_ms.max(1),
            }
        }
        Message::JobResult {
            shard_id,
            epoch,
            index,
            record_json,
        } => {
            let mut state = ctx.state.lock().unwrap_or_else(|e| e.into_inner());
            let Some(slot) = state.slots.get_mut(shard_id) else {
                return Message::Reject {
                    reason: format!("shard {shard_id} out of range"),
                };
            };
            if epoch < slot.epoch {
                obs::counter_add("net.coord.stale_epoch_rejected", 1);
                return Message::Reject {
                    reason: format!(
                        "stale epoch {epoch} for shard {shard_id} (current {})",
                        slot.epoch
                    ),
                };
            }
            if index >= ctx.ids.len() || crate::shard::job_shard(index, ctx.shards) != shard_id {
                return Message::Reject {
                    reason: format!("index {index} does not belong to shard {shard_id}"),
                };
            }
            let record = match obs::json::parse(&record_json)
                .map_err(|e| e.to_string())
                .and_then(|v| decode_record_sparse(&v).map_err(|e| e.to_string()))
            {
                Ok(r) if r.index != index => {
                    return Message::Reject {
                        reason: format!("record index {} disagrees with envelope {index}", r.index),
                    }
                }
                Ok(r) if r.id != ctx.ids[index] => {
                    return Message::Reject {
                        reason: format!(
                            "job {index} is `{}` in the record but `{}` in the jobs file",
                            r.id, ctx.ids[index]
                        ),
                    }
                }
                Ok(r) => r,
                Err(e) => {
                    return Message::Reject {
                        reason: format!("undecodable record: {e}"),
                    }
                }
            };
            slot.last_seen = Instant::now();
            if let Some((existing, _)) = slot.records.get(&index) {
                if *existing == record_json {
                    state.deduped += 1;
                    obs::counter_add("net.coord.results_deduped", 1);
                    return Message::Ack { epoch };
                }
                obs::counter_add("net.coord.result_conflicts", 1);
                return Message::Reject {
                    reason: format!(
                        "divergent duplicate for job {index}: determinism contract violated"
                    ),
                };
            }
            slot.records.insert(index, (record_json, record));
            obs::counter_add("net.coord.results_received", 1);
            let owned = shard_indices(
                ctx.ids.len(),
                &ShardSpec {
                    shards: ctx.shards,
                    shard_id,
                },
            )
            .len();
            if slot.records.len() >= owned {
                slot.done = true;
                obs::event!("net.shard_complete", shard = shard_id);
            }
            Message::Ack { epoch }
        }
        Message::Heartbeat {
            shard_id, epoch, ..
        }
        | Message::LeaseRenew { shard_id, epoch } => {
            let mut state = ctx.state.lock().unwrap_or_else(|e| e.into_inner());
            let Some(slot) = state.slots.get_mut(shard_id) else {
                return Message::Reject {
                    reason: format!("shard {shard_id} out of range"),
                };
            };
            if epoch < slot.epoch {
                obs::counter_add("net.coord.stale_epoch_rejected", 1);
                return Message::Reject {
                    reason: format!("stale epoch {epoch} for shard {shard_id}"),
                };
            }
            slot.last_seen = Instant::now();
            obs::counter_add("net.coord.heartbeats", 1);
            Message::Ack { epoch }
        }
        other => Message::Reject {
            reason: format!("unexpected {} from a worker", other.tag()),
        },
    }
}

// ---------------------------------------------------------------------------
// Worker
// ---------------------------------------------------------------------------

/// Worker knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerOptions {
    /// Coordinator (or proxy) address.
    pub connect: SocketAddr,
    /// Stable worker identity — the seed root of the reconnect ladder
    /// and the owner string in grant lineage.
    pub worker_id: String,
    /// Local worker threads for granted shards.
    pub threads: usize,
    /// Reconnect spacing (the supervisor's seeded ladder).
    pub backoff: BackoffPolicy,
    /// Reconnect attempts per outage before giving up.
    pub max_reconnects: usize,
    /// Where to seal a partial shard manifest when the transport dies
    /// for good mid-shard. `None` = the progress is simply lost (the
    /// coordinator re-grants; determinism makes the re-run identical).
    pub local_dir: Option<PathBuf>,
}

impl Default for WorkerOptions {
    fn default() -> Self {
        WorkerOptions {
            connect: SocketAddr::from(([127, 0, 0, 1], 0)),
            worker_id: "worker".to_string(),
            threads: 2,
            backoff: BackoffPolicy {
                base_ms: 10,
                factor: 2.0,
                cap_ms: 500,
                jitter: 0.5,
            },
            max_reconnects: 8,
            local_dir: None,
        }
    }
}

/// What one worker run accomplished.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerReport {
    /// The worker's identity.
    pub worker_id: String,
    /// Shards granted and fully delivered, in grant order.
    pub shards_run: Vec<usize>,
    /// Records delivered (acks received), including resends.
    pub records_sent: usize,
    /// Reconnects performed across the run.
    pub reconnects: usize,
    /// Delay (ms) before each reconnect, in order — bit-for-bit
    /// reproducible for a given worker id and backoff policy.
    pub reconnect_delays_ms: Vec<u64>,
    /// Partial manifest sealed on transport exhaustion, when one was.
    pub partial_sealed: Option<PathBuf>,
}

/// The batch identity a worker learns from `welcome`.
struct WelcomeInfo {
    jobs: Vec<JobSpec>,
    config: SupervisorConfig,
    shards: usize,
    heartbeat_ms: u64,
}

/// One request/response exchange. Any failure is a transport error —
/// the caller reconnects.
fn call(stream: &mut TcpStream, msg: &Message) -> Result<Message, String> {
    write_frame(stream, &msg.encode()).map_err(|e| e.to_string())?;
    let payload = read_frame(stream).map_err(|e| e.to_string())?;
    Message::decode(&payload).map_err(|e| e.to_string())
}

/// Connects (with the seeded ladder) and completes the hello/welcome
/// handshake. `attempt` persists across outages so the ladder keeps
/// climbing instead of restarting.
fn connect_and_hello(
    opts: &WorkerOptions,
    report: &mut WorkerReport,
    attempt: &mut usize,
) -> Result<(TcpStream, Message), RemoteError> {
    let seed = worker_seed(&opts.worker_id);
    loop {
        if let Ok(mut stream) = TcpStream::connect_timeout(&opts.connect, Duration::from_secs(2)) {
            let _ = stream.set_read_timeout(Some(Duration::from_secs(20)));
            let hello = Message::Hello {
                worker: opts.worker_id.clone(),
                version: PROTOCOL_VERSION,
            };
            match call(&mut stream, &hello) {
                Ok(welcome @ Message::Welcome { .. }) => return Ok((stream, welcome)),
                Ok(Message::Reject { reason }) => {
                    // A reject of *hello* is version/identity skew —
                    // retrying cannot help.
                    return Err(RemoteError::Protocol(reason));
                }
                Ok(other) => {
                    return Err(RemoteError::Protocol(format!(
                        "expected welcome, got {}",
                        other.tag()
                    )))
                }
                Err(_) => {} // fall through to the retry ladder
            }
        }
        *attempt += 1;
        if *attempt > opts.max_reconnects {
            return Err(RemoteError::TransportLost(format!(
                "coordinator {} unreachable after {} attempts",
                opts.connect, opts.max_reconnects
            )));
        }
        let delay = opts.backoff.delay_ms(seed, *attempt);
        report.reconnects += 1;
        report.reconnect_delays_ms.push(delay);
        obs::counter_add("net.worker.reconnects", 1);
        std::thread::sleep(Duration::from_millis(delay));
    }
}

fn parse_welcome(welcome: Message, opts: &WorkerOptions) -> Result<WelcomeInfo, RemoteError> {
    let Message::Welcome {
        batch_seed,
        fault_rate_bits,
        shards,
        jobs_jsonl,
        heartbeat_ms,
        ..
    } = welcome
    else {
        return Err(RemoteError::Protocol("welcome expected".to_string()));
    };
    let jobs = parse_jobs(&jobs_jsonl)
        .map_err(|e| RemoteError::Protocol(format!("jobs in welcome: {e}")))?;
    let fault_rate = f64::from_bits(fault_rate_bits);
    let config = SupervisorConfig {
        workers: opts.threads.max(1),
        batch_seed,
        pipeline_fault_rate: fault_rate,
        injection: if fault_rate > 0.0 {
            InjectionPlan::chaos(fault_rate)
        } else {
            InjectionPlan::none()
        },
        ..SupervisorConfig::default()
    };
    Ok(WelcomeInfo {
        jobs,
        config,
        shards,
        heartbeat_ms,
    })
}

/// The path a worker seals partial progress to: `shard-<id>.manifest`
/// plus `.partial`. The coordinator never reads it — partial seals are
/// for `pcd report` forensics and manual resume, never workload.
pub fn partial_manifest_path(dir: &Path, shard_id: usize) -> PathBuf {
    dir.join(format!("shard-{shard_id}.manifest.partial"))
}

/// Heartbeat loop on its own connection, so a long-computing worker
/// never starves its lease. Sets `stale` when the coordinator rejects
/// the epoch (the shard was taken over — stop working on it).
fn heartbeat_loop(
    addr: SocketAddr,
    shard_id: usize,
    epoch: u64,
    interval: Duration,
    stop: &AtomicBool,
    stale: &AtomicBool,
) {
    let mut stream: Option<TcpStream> = None;
    let mut beats = 0u64;
    while !stop.load(Ordering::SeqCst) {
        std::thread::sleep(interval);
        if stop.load(Ordering::SeqCst) {
            break;
        }
        beats += 1;
        if stream.is_none() {
            stream = TcpStream::connect_timeout(&addr, Duration::from_millis(500))
                .ok()
                .inspect(|s| {
                    let _ = s.set_read_timeout(Some(interval.saturating_mul(4)));
                });
        }
        let Some(s) = stream.as_mut() else { continue };
        match call(
            s,
            &Message::Heartbeat {
                shard_id,
                epoch,
                beats,
            },
        ) {
            Ok(Message::Ack { .. }) => obs::counter_add("net.worker.heartbeats", 1),
            Ok(Message::Reject { .. }) => {
                stale.store(true, Ordering::SeqCst);
                return;
            }
            Ok(_) | Err(_) => stream = None, // reconnect next tick
        }
    }
}

/// Runs a worker against a coordinator: hello, claim, run granted
/// shards locally, stream records back (at-least-once), repeat until
/// drained.
///
/// # Errors
///
/// [`RemoteError::TransportLost`] when the reconnect budget runs out
/// (partial progress sealed to `local_dir` when set),
/// [`RemoteError::Protocol`] on version/handshake skew, or a local
/// [`RemoteError::Supervisor`] failure.
pub fn run_worker(opts: &WorkerOptions) -> Result<WorkerReport, RemoteError> {
    let mut span = obs::span("net.worker");
    span.record("worker", opts.worker_id.clone());
    let mut report = WorkerReport {
        worker_id: opts.worker_id.clone(),
        shards_run: Vec::new(),
        records_sent: 0,
        reconnects: 0,
        reconnect_delays_ms: Vec::new(),
        partial_sealed: None,
    };
    let mut attempt = 0usize;
    let (mut stream, welcome) = connect_and_hello(opts, &mut report, &mut attempt)?;
    let info = parse_welcome(welcome, opts)?;

    loop {
        let claim = Message::Claim {
            worker: opts.worker_id.clone(),
        };
        let reply = match call(&mut stream, &claim) {
            Ok(r) => r,
            Err(_) => {
                let (s, w) = connect_and_hello(opts, &mut report, &mut attempt)?;
                parse_welcome(w, opts)?; // re-validate identity
                stream = s;
                continue;
            }
        };
        match reply {
            Message::Drain => break,
            Message::Wait { backoff_ms } => {
                std::thread::sleep(Duration::from_millis(backoff_ms.clamp(1, 1000)));
            }
            Message::Grant {
                shard_id,
                epoch,
                taken_over_from,
            } => {
                if let Some(from) = &taken_over_from {
                    obs::event!(
                        "net.worker.takeover_grant",
                        shard = shard_id,
                        from = from.clone(),
                        epoch = epoch
                    );
                }
                match run_granted_shard(
                    opts,
                    &info,
                    &mut stream,
                    &mut report,
                    &mut attempt,
                    shard_id,
                    epoch,
                ) {
                    Ok(ShardDelivery::Delivered) => report.shards_run.push(shard_id),
                    Ok(ShardDelivery::Superseded) => {
                        // Our lease expired mid-run; the shard belongs to
                        // someone else now. Claim fresh work.
                        obs::counter_add("net.worker.superseded", 1);
                    }
                    Err(e) => return Err(e),
                }
            }
            Message::Reject { reason } => return Err(RemoteError::Protocol(reason)),
            other => {
                return Err(RemoteError::Protocol(format!(
                    "unexpected {} to a claim",
                    other.tag()
                )))
            }
        }
    }
    span.record("shards_run", report.shards_run.len());
    span.record("reconnects", report.reconnects);
    Ok(report)
}

enum ShardDelivery {
    /// Every record acked.
    Delivered,
    /// The coordinator rejected our epoch — the shard was re-granted.
    Superseded,
}

#[allow(clippy::too_many_arguments)]
fn run_granted_shard(
    opts: &WorkerOptions,
    info: &WelcomeInfo,
    stream: &mut TcpStream,
    report: &mut WorkerReport,
    attempt: &mut usize,
    shard_id: usize,
    epoch: u64,
) -> Result<ShardDelivery, RemoteError> {
    let spec = ShardSpec {
        shards: info.shards,
        shard_id,
    };
    let owned = shard_indices(info.jobs.len(), &spec);
    let hb_stop = Arc::new(AtomicBool::new(false));
    let hb_stale = Arc::new(AtomicBool::new(false));
    let hb = std::thread::spawn({
        let (stop, stale) = (Arc::clone(&hb_stop), Arc::clone(&hb_stale));
        let addr = opts.connect;
        let interval = Duration::from_millis(info.heartbeat_ms.max(1));
        move || heartbeat_loop(addr, shard_id, epoch, interval, &stop, &stale)
    });
    let finish_hb = |outcome| {
        hb_stop.store(true, Ordering::SeqCst);
        let _ = hb.join();
        outcome
    };

    let records = match run_scoped(&info.jobs, &info.config, None, Some(&owned)) {
        Ok(r) => r,
        Err(e) => return finish_hb(Err(e.into())),
    };

    // Deliver every record; at-least-once, so after any reconnect the
    // whole shard is resent from the top and the coordinator dedups.
    let mut cursor = 0usize;
    while cursor < records.len() {
        if hb_stale.load(Ordering::SeqCst) {
            return finish_hb(Ok(ShardDelivery::Superseded));
        }
        let record = &records[cursor];
        let msg = Message::JobResult {
            shard_id,
            epoch,
            index: record.index,
            record_json: encode_record(record).to_string(),
        };
        match call(stream, &msg) {
            Ok(Message::Ack { .. }) => {
                report.records_sent += 1;
                obs::counter_add("net.worker.results_sent", 1);
                cursor += 1;
            }
            Ok(Message::Reject { .. }) => return finish_hb(Ok(ShardDelivery::Superseded)),
            Ok(other) => {
                return finish_hb(Err(RemoteError::Protocol(format!(
                    "unexpected {} to a job-result",
                    other.tag()
                ))))
            }
            Err(_) => {
                obs::event!("net.worker.disconnected", shard = shard_id, at = cursor);
                match connect_and_hello(opts, report, attempt) {
                    Ok((s, w)) => {
                        if parse_welcome(w, opts).is_err() {
                            return finish_hb(Err(RemoteError::Protocol(
                                "welcome changed across reconnect".to_string(),
                            )));
                        }
                        *stream = s;
                        cursor = 0; // resend from the top
                    }
                    Err(RemoteError::TransportLost(msg)) => {
                        let sealed = seal_partial(opts, info, shard_id, epoch, &records);
                        report.partial_sealed = sealed;
                        return finish_hb(Err(RemoteError::TransportLost(format!(
                            "{msg}; shard {shard_id} progress {} locally",
                            if report.partial_sealed.is_some() {
                                "sealed"
                            } else {
                                "discarded"
                            }
                        ))));
                    }
                    Err(e) => return finish_hb(Err(e)),
                }
            }
        }
    }
    finish_hb(Ok(ShardDelivery::Delivered))
}

/// Seals the computed-but-undelivered records as a CRC'd partial shard
/// manifest. Best-effort: a seal failure only loses forensics, never
/// correctness (the coordinator re-runs the shard deterministically).
fn seal_partial(
    opts: &WorkerOptions,
    info: &WelcomeInfo,
    shard_id: usize,
    epoch: u64,
    records: &[JobRecord],
) -> Option<PathBuf> {
    let dir = opts.local_dir.as_ref()?;
    if std::fs::create_dir_all(dir).is_err() {
        return None;
    }
    let meta = ShardMeta {
        batch: BatchMeta {
            batch_seed: info.config.batch_seed,
            jobs: info.jobs.len(),
            pipeline_fault_rate: info.config.pipeline_fault_rate,
        },
        shards: info.shards,
        shard_id,
        owner: format!("net:{}", opts.worker_id),
        epoch,
        taken_over_from: None,
    };
    let path = partial_manifest_path(dir, shard_id);
    match encode_shard_manifest(&meta, records).write(&path) {
        Ok(()) => {
            obs::counter_add("net.worker.partial_seals", 1);
            obs::event!(
                "net.partial_seal",
                shard = shard_id,
                path = path.display().to_string()
            );
            Some(path)
        }
        Err(_) => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::trial_jobs;
    use crate::engine::run_batch;
    use crate::manifest::encode_manifest;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("pcd-remote-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn config(batch_seed: u64, dir: &Path) -> SupervisorConfig {
        SupervisorConfig {
            batch_seed,
            ckpt_dir: Some(dir.to_path_buf()),
            ..SupervisorConfig::default()
        }
    }

    fn reference_bytes(jobs: &[JobSpec], config: &SupervisorConfig) -> Vec<u8> {
        let reference = run_batch(jobs, config).unwrap();
        let meta = BatchMeta {
            batch_seed: config.batch_seed,
            jobs: jobs.len(),
            pipeline_fault_rate: config.pipeline_fault_rate,
        };
        encode_manifest(&meta, &reference.records).to_bytes()
    }

    fn worker_opts(addr: SocketAddr, id: &str) -> WorkerOptions {
        WorkerOptions {
            connect: addr,
            worker_id: id.to_string(),
            backoff: BackoffPolicy {
                base_ms: 1,
                factor: 2.0,
                cap_ms: 20,
                jitter: 0.5,
            },
            ..WorkerOptions::default()
        }
    }

    #[test]
    fn three_workers_over_loopback_match_the_single_machine_manifest() {
        let dir = scratch("loopback");
        let jobs = trial_jobs(7);
        let config = config(41, &dir.join("ckpt"));
        let expected = reference_bytes(&jobs, &config);

        let coordinator = Coordinator::bind(
            &jobs,
            &config,
            CoordinatorOptions {
                shards: 3,
                ..CoordinatorOptions::default()
            },
        )
        .unwrap();
        let addr = coordinator.addr();
        let coord = std::thread::spawn(move || coordinator.run());
        let workers: Vec<_> = (0..3)
            .map(|i| {
                let opts = worker_opts(addr, &format!("w{i}"));
                std::thread::spawn(move || run_worker(&opts))
            })
            .collect();
        for w in workers {
            let report = w.join().unwrap().unwrap();
            assert!(report.partial_sealed.is_none());
        }
        let report = coord.join().unwrap().unwrap();
        assert_eq!(
            report.sealed, expected,
            "multi-machine merge must be bit-identical"
        );
        assert_eq!(report.records.len(), jobs.len());
        assert!(report.rescued.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn vanished_worker_is_taken_over_at_the_next_epoch() {
        let dir = scratch("takeover");
        let jobs = trial_jobs(6);
        let config = config(43, &dir.join("ckpt"));
        let expected = reference_bytes(&jobs, &config);

        let coordinator = Coordinator::bind(
            &jobs,
            &config,
            CoordinatorOptions {
                shards: 2,
                lease_ms: 120,
                heartbeat_ms: 40,
                ..CoordinatorOptions::default()
            },
        )
        .unwrap();
        let addr = coordinator.addr();
        let coord = std::thread::spawn(move || coordinator.run());

        // A "worker" that claims shard 0 and silently dies: hello, claim,
        // then drop the connection without a single heartbeat or record.
        {
            let mut stream = TcpStream::connect(addr).unwrap();
            let hello = Message::Hello {
                worker: "ghost".to_string(),
                version: PROTOCOL_VERSION,
            };
            assert!(matches!(
                call(&mut stream, &hello).unwrap(),
                Message::Welcome { .. }
            ));
            let claim = Message::Claim {
                worker: "ghost".to_string(),
            };
            assert!(matches!(
                call(&mut stream, &claim).unwrap(),
                Message::Grant {
                    shard_id: 0,
                    epoch: 0,
                    ..
                }
            ));
        }

        // A healthy worker absorbs both shards — shard 0 via takeover.
        let report = run_worker(&worker_opts(addr, "healthy")).unwrap();
        assert!(report.shards_run.contains(&0), "takeover grant ran");
        let coord_report = coord.join().unwrap().unwrap();
        assert_eq!(coord_report.sealed, expected);
        let takeover = coord_report
            .takeovers
            .iter()
            .find(|t| t.shard_id == 0)
            .expect("epoch takeover recorded");
        assert_eq!(takeover.from, "ghost");
        assert_eq!(takeover.epoch, 1, "monotonic epoch bump");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn coordinator_rescues_when_the_whole_fleet_dies() {
        let dir = scratch("rescue");
        let jobs = trial_jobs(5);
        let config = config(47, &dir.join("ckpt"));
        let expected = reference_bytes(&jobs, &config);

        let coordinator = Coordinator::bind(
            &jobs,
            &config,
            CoordinatorOptions {
                shards: 2,
                lease_ms: 80,
                heartbeat_ms: 30,
                deadline: Duration::from_secs(30),
                ..CoordinatorOptions::default()
            },
        )
        .unwrap();
        let addr = coordinator.addr();
        let coord = std::thread::spawn(move || coordinator.run());
        // One ghost claims a shard and dies; nobody else ever connects.
        {
            let mut stream = TcpStream::connect(addr).unwrap();
            let hello = Message::Hello {
                worker: "ghost".to_string(),
                version: PROTOCOL_VERSION,
            };
            let _ = call(&mut stream, &hello).unwrap();
            let claim = Message::Claim {
                worker: "ghost".to_string(),
            };
            let _ = call(&mut stream, &claim).unwrap();
        }
        let report = coord.join().unwrap().unwrap();
        assert_eq!(report.sealed, expected, "rescued batch still bit-identical");
        assert!(!report.rescued.is_empty(), "rescue path exercised");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn wire_checks_reject_foreign_mislabelled_and_divergent_records() {
        let dir = scratch("wire");
        let jobs = trial_jobs(4);
        let config = config(29, &dir.join("ckpt"));
        let expected = reference_bytes(&jobs, &config);

        let coordinator = Coordinator::bind(
            &jobs,
            &config,
            CoordinatorOptions {
                shards: 2,
                lease_ms: 200,
                heartbeat_ms: 40,
                ..CoordinatorOptions::default()
            },
        )
        .unwrap();
        let addr = coordinator.addr();
        let coord = std::thread::spawn(move || coordinator.run());

        let mut stream = TcpStream::connect(addr).unwrap();
        let hello = Message::Hello {
            worker: "prober".to_string(),
            version: PROTOCOL_VERSION,
        };
        assert!(matches!(
            call(&mut stream, &hello).unwrap(),
            Message::Welcome { .. }
        ));
        let claim = Message::Claim {
            worker: "prober".to_string(),
        };
        assert!(matches!(
            call(&mut stream, &claim).unwrap(),
            Message::Grant {
                shard_id: 0,
                epoch: 0,
                ..
            }
        ));
        let worker_config = SupervisorConfig {
            batch_seed: 29,
            ..SupervisorConfig::default()
        };
        let records = run_scoped(&jobs, &worker_config, None, Some(&[0, 1])).unwrap();
        let mut send = |record: &JobRecord| {
            let msg = Message::JobResult {
                shard_id: 0,
                epoch: 0,
                index: record.index,
                record_json: encode_record(record).to_string(),
            };
            call(&mut stream, &msg).unwrap()
        };
        // Job 1 belongs to shard 1, not to the granted shard 0.
        assert!(matches!(send(&records[1]), Message::Reject { .. }));
        let mislabelled = JobRecord {
            id: "not-job-0".to_string(),
            ..records[0].clone()
        };
        assert!(matches!(send(&mislabelled), Message::Reject { .. }));
        // A good record is acked, and so is its bit-identical resend...
        assert!(matches!(send(&records[0]), Message::Ack { .. }));
        assert!(matches!(send(&records[0]), Message::Ack { .. }));
        // ...but a divergent duplicate breaks the determinism contract.
        let divergent = JobRecord {
            retries: records[0].retries + 1,
            ..records[0].clone()
        };
        assert!(matches!(send(&divergent), Message::Reject { .. }));
        drop(stream);

        // A healthy worker takes the prober's shard over and finishes.
        run_worker(&worker_opts(addr, "healthy")).unwrap();
        let report = coord.join().unwrap().unwrap();
        assert!(report.deduped >= 1, "the resend was not deduplicated");
        assert_eq!(report.sealed, expected, "rejected records leaked in");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn version_skew_is_rejected_as_protocol_error() {
        let dir = scratch("version");
        let jobs = trial_jobs(2);
        let config = config(3, &dir.join("ckpt"));
        let coordinator = Coordinator::bind(&jobs, &config, CoordinatorOptions::default()).unwrap();
        let addr = coordinator.addr();
        let watch = coordinator.watch();
        let coord = std::thread::spawn(move || coordinator.run());

        let mut stream = TcpStream::connect(addr).unwrap();
        let bad_hello = Message::Hello {
            worker: "time-traveler".to_string(),
            version: PROTOCOL_VERSION + 1,
        };
        assert!(matches!(
            call(&mut stream, &bad_hello).unwrap(),
            Message::Reject { .. }
        ));
        assert!(watch.owner_of(0).is_none());
        drop(stream);

        // Finish the batch so the coordinator thread exits.
        run_worker(&worker_opts(addr, "w0")).unwrap();
        coord.join().unwrap().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reconnect_ladder_replays_bit_for_bit() {
        // No listener at this address: every attempt fails, exhausting
        // the budget and recording the full delay ladder.
        let dead: SocketAddr = "127.0.0.1:1".parse().unwrap();
        let opts = WorkerOptions {
            max_reconnects: 5,
            ..worker_opts(dead, "replay-me")
        };
        let runs: Vec<Vec<u64>> = (0..2)
            .map(|_| {
                let mut report = WorkerReport {
                    worker_id: opts.worker_id.clone(),
                    shards_run: Vec::new(),
                    records_sent: 0,
                    reconnects: 0,
                    reconnect_delays_ms: Vec::new(),
                    partial_sealed: None,
                };
                let mut attempt = 0;
                let err = connect_and_hello(&opts, &mut report, &mut attempt).unwrap_err();
                assert!(matches!(err, RemoteError::TransportLost(_)));
                report.reconnect_delays_ms
            })
            .collect();
        assert_eq!(runs[0], runs[1], "same worker id, same ladder");
        assert_eq!(
            runs[0],
            reconnect_schedule("replay-me", &opts.backoff, 5),
            "ladder is the published pure function"
        );
        assert_ne!(
            runs[0],
            reconnect_schedule("someone-else", &opts.backoff, 5),
            "ladders decorrelate by worker id"
        );
    }

    #[test]
    fn partial_seal_writes_a_decodable_manifest_the_merge_ignores() {
        let dir = scratch("partial");
        let jobs = trial_jobs(4);
        let info = WelcomeInfo {
            jobs: jobs.clone(),
            config: SupervisorConfig {
                batch_seed: 9,
                ..SupervisorConfig::default()
            },
            shards: 2,
            heartbeat_ms: 50,
        };
        let opts = WorkerOptions {
            local_dir: Some(dir.clone()),
            ..worker_opts("127.0.0.1:1".parse().unwrap(), "sealer")
        };
        let records = run_scoped(&jobs, &info.config, None, Some(&[0, 2])).unwrap();
        let owned: Vec<JobRecord> = records.into_iter().filter(|r| r.index % 2 == 0).collect();
        let path = seal_partial(&opts, &info, 0, 3, &owned).expect("seal lands");
        assert!(path.ends_with("shard-0.manifest.partial"));
        let ck = resilience::Checkpoint::read(&path).unwrap();
        let (meta, back) = crate::shard::decode_shard_manifest(&ck).unwrap();
        assert_eq!(meta.owner, "net:sealer");
        assert_eq!(meta.epoch, 3);
        assert_eq!(back, owned);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
