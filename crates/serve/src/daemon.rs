//! The long-lived serve daemon: accept loop, worker pool, graceful
//! drain, and the sealed restart manifest.
//!
//! # Execution model
//!
//! One accept thread owns the Unix listener and queues every connection
//! it accepts; `workers` threads pull work from the batch engine's
//! two-lane [`JobQueue`] (interactive client requests ride the fast
//! lane, resumed backlog the slow lane). The only shed is an injected
//! [`FaultKind::Accept`](resilience::FaultKind) fault.
//! Each job request runs as a single-job supervised batch, which buys
//! the whole robustness stack for free: panic isolation (`catch_unwind`
//! at the worker boundary — the watchdog that turns a panicking kernel
//! into a quarantine record instead of a dead daemon), the retry cap,
//! and per-request wall-clock deadlines via the engine's drain budget.
//!
//! # Determinism by content, not arrival
//!
//! A batch keys each job's seed by *arrival index*; a daemon has no
//! stable arrival order, so serve keys by *content* instead: the
//! per-request engine seed is [`request_seed`]`(serve_seed,
//! cache_key(spec))`. The same request therefore computes the same bits
//! whether it arrives first or last, before or after a restart, from
//! the cache or recomputed after a quarantine — which is exactly the
//! property the chaos campaign's replay check asserts.
//!
//! # Drain and restart protocol
//!
//! SIGTERM (or the `drain` op) flips a flag; the accept loop unlinks the
//! socket and stops accepting; in-flight jobs finish; queued-but-unstarted
//! requests, and connections still in the listener's backlog, are
//! answered `pending` and journaled as pending records. The daemon then
//! seals one file, `serve.manifest`: a batch-manifest-schema checkpoint
//! under the `serve-manifest` kind whose record lines, in admission
//! order, each also carry their request's `spec`, so one CRC covers
//! both. A restarted daemon replays it, re-enqueues every pending record
//! on the slow lane, and serves new traffic immediately — zero downtime,
//! bit-identical resume. A corrupt manifest is quarantined aside and the
//! daemon starts fresh: an always-on front door must come up even when
//! its own state is damaged.

use std::io::{BufRead, BufReader, Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use obs::json::JsonValue;
use resilience::{Checkpoint, CheckpointError, FaultPlan};
use supervisor::{
    decode_manifest, encode_manifest, run_batch, BatchMeta, JobQueue, JobRecord, JobSpec, JobState,
    Lane, SupervisorConfig, KIND_BATCH_MANIFEST,
};

use crate::cache::{cache_key, Cache, CacheProbe, CachedResult};
use crate::protocol::{self, Request};
use crate::sys;
use resilience::splitmix64;

/// Checkpoint kind tag for the sealed serve manifest. The payload schema
/// is exactly the batch manifest's; the distinct kind lets `pcd report`
/// render a serve section instead of a batch section.
pub const KIND_SERVE_MANIFEST: &str = "serve-manifest";

/// Sealed manifest filename inside the state dir.
pub const MANIFEST_NAME: &str = "serve.manifest";

/// Serve daemon configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// State directory: socket (by default), cache, sealed manifest.
    pub state_dir: PathBuf,
    /// Socket path override (default `<state_dir>/serve.sock`).
    pub socket: Option<PathBuf>,
    /// Worker threads serving requests.
    pub workers: usize,
    /// Serve seed: the root of every content-keyed derivation.
    pub seed: u64,
    /// Supervisor-level retries per job.
    pub max_retries: usize,
    /// Budget ticks per VQE slice (engine timeout grain).
    pub slice_ticks: u64,
    /// Slices an attempt may consume before timing out.
    pub max_slices: usize,
    /// Pipeline fault rate (chaos; also drives the CacheWrite/Accept
    /// serve fault plan).
    pub fault_rate: f64,
    /// Default per-request deadline when the request carries none.
    pub request_deadline: Option<Duration>,
    /// Stop accepting after this many connections (CI and tests; `None`
    /// = serve forever).
    pub max_requests: Option<usize>,
    /// Stop accepting after this long with no traffic and an empty
    /// queue (CI safety net; `None` = serve forever).
    pub idle_exit: Option<Duration>,
    /// Directory for flight-recorder dumps.
    pub flight_dir: Option<PathBuf>,
    /// Result-cache size cap in bytes (`None` = the cache only grows).
    /// Over-cap seals trigger deterministic second-chance eviction.
    pub cache_max_bytes: Option<u64>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            state_dir: PathBuf::from("serve-state"),
            socket: None,
            workers: 2,
            seed: 42,
            max_retries: 3,
            slice_ticks: 0,
            max_slices: 64,
            fault_rate: 0.0,
            request_deadline: None,
            max_requests: None,
            idle_exit: None,
            flight_dir: None,
            cache_max_bytes: None,
        }
    }
}

impl ServeConfig {
    /// The socket path this configuration binds.
    pub fn socket_path(&self) -> PathBuf {
        self.socket
            .clone()
            .unwrap_or_else(|| self.state_dir.join("serve.sock"))
    }

    /// The sealed manifest path.
    pub fn manifest_path(&self) -> PathBuf {
        self.state_dir.join(MANIFEST_NAME)
    }
}

/// A failure of the daemon itself (job failures end in quarantine
/// records and typed responses, never here).
#[derive(Debug)]
pub enum ServeError {
    /// Filesystem or socket I/O.
    Io {
        /// Path involved.
        path: String,
        /// Underlying error message.
        message: String,
    },
    /// The sealed restart state does not belong to this configuration
    /// (different seed or fault rate).
    ManifestMismatch(String),
    /// A sealed artifact failed validation in a way quarantine cannot
    /// absorb.
    Checkpoint(CheckpointError),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Io { path, message } => write!(f, "serve I/O on {path}: {message}"),
            ServeError::ManifestMismatch(msg) => write!(f, "serve manifest mismatch: {msg}"),
            ServeError::Checkpoint(e) => write!(f, "serve checkpoint: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<CheckpointError> for ServeError {
    fn from(e: CheckpointError) -> Self {
        ServeError::Checkpoint(e)
    }
}

fn io_err(path: &std::path::Path, e: &std::io::Error) -> ServeError {
    ServeError::Io {
        path: path.display().to_string(),
        message: e.to_string(),
    }
}

/// What one daemon lifetime did, for the CLI summary and the chaos
/// harness's assertions.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ServeSummary {
    /// Job requests admitted (journaled).
    pub accepted: usize,
    /// Requests answered `done`.
    pub done: usize,
    /// Connections shed by an injected accept fault.
    pub shed: usize,
    /// Admitted requests whose client disconnected before compute (or
    /// before the response could be written).
    pub cancelled: usize,
    /// Requests quarantined after exhausting their retry budget.
    pub quarantined: usize,
    /// Requests answered from the sealed cache.
    pub cache_hits: usize,
    /// Requests that had to compute.
    pub cache_misses: usize,
    /// Corrupt cache entries quarantined aside.
    pub cache_quarantined: usize,
    /// Pending records recomputed from a prior lifetime's manifest.
    pub resumed: usize,
    /// Requests left pending in the sealed manifest (drain cut them).
    pub pending: usize,
    /// Whether a drain (SIGTERM or `drain` op) ended this lifetime, as
    /// opposed to `max_requests`/`idle_exit` running out.
    pub drained: bool,
}

/// The engine seed for a request: a pure function of the serve seed and
/// the request's content key — never of arrival order — so the same
/// request computes the same bits at any position in the traffic, before
/// or after a restart.
pub fn request_seed(serve_seed: u64, content_key: u64) -> u64 {
    splitmix64(serve_seed ^ content_key.rotate_left(17))
}

/// Computes one request through the supervised engine, exactly as the
/// daemon would on a cache miss. Public because the chaos campaign and
/// the drain/restart tests use it as the in-process reference: whatever
/// the daemon answers must match this, bit for bit.
pub fn compute_record(
    spec: &JobSpec,
    index: usize,
    config: &ServeConfig,
    deadline: Option<Duration>,
) -> JobRecord {
    let engine = SupervisorConfig {
        workers: 1,
        batch_seed: request_seed(config.seed, cache_key(spec, config.seed, config.fault_rate)),
        max_retries: config.max_retries,
        slice_ticks: config.slice_ticks,
        max_slices: config.max_slices,
        pipeline_fault_rate: config.fault_rate,
        deadline,
        flight_dir: config.flight_dir.clone(),
        ..SupervisorConfig::default()
    };
    match run_batch(std::slice::from_ref(spec), &engine) {
        Ok(mut report) => {
            let mut record = report.records.swap_remove(0);
            record.index = index;
            record
        }
        Err(e) => JobRecord {
            index,
            id: spec.id.clone(),
            state: JobState::Quarantined {
                attempts: 0,
                stage: "serve".to_string(),
                error: e.to_string(),
            },
            retries: 0,
        },
    }
}

/// One unit of worker work.
enum Work {
    /// An admitted client connection (request not yet read).
    Client(UnixStream),
    /// A pending journal entry from a prior lifetime's manifest.
    Resume(usize),
}

/// One journaled request: the spec in admission order, and its record
/// once known. `None` seals as a pending record.
struct Entry {
    spec: JobSpec,
    record: Option<JobRecord>,
}

#[derive(Default)]
struct Stats {
    accepted: AtomicUsize,
    done: AtomicUsize,
    shed: AtomicUsize,
    cancelled: AtomicUsize,
    quarantined: AtomicUsize,
    cache_hits: AtomicUsize,
    cache_misses: AtomicUsize,
    cache_quarantined: AtomicUsize,
    resumed: AtomicUsize,
}

impl Stats {
    fn bump(field: &AtomicUsize) -> usize {
        field.fetch_add(1, Ordering::Relaxed) + 1
    }

    fn get(field: &AtomicUsize) -> usize {
        field.load(Ordering::Relaxed)
    }
}

struct Shared {
    config: ServeConfig,
    cache: Cache,
    queue: JobQueue<Work>,
    journal: Mutex<Vec<Entry>>,
    stats: Stats,
    /// Serve-level fault plan: `CacheWrite` and `Accept` draws.
    serve_faults: Mutex<FaultPlan>,
    /// Set by the `drain` op (SIGTERM sets the process-global flag in
    /// [`sys`]; either one drains).
    drain: AtomicBool,
}

impl Shared {
    fn draining(&self) -> bool {
        self.drain.load(Ordering::SeqCst) || sys::drain_requested()
    }

    fn flight_dump(&self, reason: &str) {
        if let Some(dir) = &self.config.flight_dir {
            let _ = obs::flight::dump(dir, "serve", reason);
        }
    }
}

const READ_TIMEOUT: Duration = Duration::from_secs(10);
const ACCEPT_POLL: Duration = Duration::from_millis(5);

fn write_line(stream: &mut UnixStream, line: &str) -> bool {
    let _ = stream.set_write_timeout(Some(READ_TIMEOUT));
    let mut bytes = line.as_bytes().to_vec();
    bytes.push(b'\n');
    stream
        .write_all(&bytes)
        .and_then(|()| stream.flush())
        .is_ok()
}

fn read_request_line(stream: &UnixStream) -> Option<String> {
    stream.set_nonblocking(false).ok()?;
    stream.set_read_timeout(Some(READ_TIMEOUT)).ok()?;
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    match reader.read_line(&mut line) {
        Ok(0) => None,
        Ok(_) => Some(line),
        Err(_) => None,
    }
}

/// Whether the client hung up without waiting for a response: a
/// nonblocking read that returns EOF means the peer closed its end,
/// while `WouldBlock` means "still connected, nothing new to say" — the
/// normal state of a client waiting for its result. The protocol is one
/// request line per connection (already consumed), so there are no
/// legitimate bytes for this probe to swallow.
fn client_disconnected(stream: &UnixStream) -> bool {
    if stream.set_nonblocking(true).is_err() {
        return false;
    }
    let mut probe = [0u8; 1];
    let gone = matches!((&mut &*stream).read(&mut probe), Ok(0));
    let _ = stream.set_nonblocking(false);
    gone
}

/// Runs the daemon until a drain (SIGTERM / `drain` op) or a configured
/// stop (`max_requests`, `idle_exit`), then seals the restart state.
///
/// # Errors
///
/// [`ServeError`] on socket/state-dir I/O or a resume manifest that
/// belongs to a different configuration. A *corrupt* manifest is not an
/// error: it is quarantined aside and the daemon starts fresh.
pub fn run_serve(config: &ServeConfig) -> Result<ServeSummary, ServeError> {
    sys::reset_drain();
    sys::arm_sigterm_drain();
    std::fs::create_dir_all(&config.state_dir).map_err(|e| io_err(&config.state_dir, &e))?;
    if let Some(dir) = &config.flight_dir {
        std::fs::create_dir_all(dir).map_err(|e| io_err(dir, &e))?;
    }
    let cache = Cache::open(config.state_dir.join("cache"))
        .map_err(|e| io_err(&config.state_dir.join("cache"), &e))?
        .with_max_bytes(config.cache_max_bytes);

    let shared = Shared {
        config: config.clone(),
        cache,
        queue: JobQueue::new(),
        journal: Mutex::new(Vec::new()),
        stats: Stats::default(),
        serve_faults: Mutex::new(FaultPlan::new(
            splitmix64(config.seed ^ 0x5E21_E5E2),
            config.fault_rate,
        )),
        drain: AtomicBool::new(false),
    };

    let resumed_pending = load_restart_state(&shared)?;
    for index in &resumed_pending {
        shared.queue.push(Work::Resume(*index), Lane::Slow);
    }

    let socket_path = config.socket_path();
    let _ = std::fs::remove_file(&socket_path);
    let listener = UnixListener::bind(&socket_path).map_err(|e| io_err(&socket_path, &e))?;
    listener
        .set_nonblocking(true)
        .map_err(|e| io_err(&socket_path, &e))?;
    obs::event!(
        "serve.listening",
        socket = socket_path.display().to_string(),
        resumed = resumed_pending.len()
    );

    std::thread::scope(|scope| {
        let workers = config.workers.max(1);
        for _ in 0..workers {
            scope.spawn(|| worker_loop(&shared));
        }
        accept_loop(&shared, &listener);
        shared.queue.close();
    });

    let _ = std::fs::remove_file(&socket_path);
    seal(&shared)?;

    let journal = shared.journal.lock().unwrap_or_else(|e| e.into_inner());
    let pending = journal
        .iter()
        .filter(|e| !e.record.as_ref().is_some_and(|r| r.state.is_terminal()))
        .count();
    Ok(ServeSummary {
        accepted: Stats::get(&shared.stats.accepted),
        done: Stats::get(&shared.stats.done),
        shed: Stats::get(&shared.stats.shed),
        cancelled: Stats::get(&shared.stats.cancelled),
        quarantined: Stats::get(&shared.stats.quarantined),
        cache_hits: Stats::get(&shared.stats.cache_hits),
        cache_misses: Stats::get(&shared.stats.cache_misses),
        cache_quarantined: Stats::get(&shared.stats.cache_quarantined),
        resumed: Stats::get(&shared.stats.resumed),
        pending,
        drained: shared.draining(),
    })
}

/// Replays a prior lifetime's sealed state into the journal. Returns the
/// indices that must be recomputed (pending records). A corrupt seal is
/// quarantined aside (the daemon must come up); a seal that belongs to a
/// *different configuration* is a hard error (resuming it would not be
/// bit-identical).
fn load_restart_state(shared: &Shared) -> Result<Vec<usize>, ServeError> {
    let manifest_path = shared.config.manifest_path();
    if !manifest_path.exists() {
        return Ok(Vec::new());
    }
    let (meta, entries) = match read_seal(&manifest_path) {
        Ok(decoded) => decoded,
        Err(reason) => {
            let mut target = manifest_path.as_os_str().to_os_string();
            target.push(".quarantined");
            obs::counter_add("serve.manifest.quarantined", 1);
            obs::event!(
                "serve.manifest_quarantine",
                path = manifest_path.display().to_string(),
                reason = reason
            );
            let _ = std::fs::rename(&manifest_path, PathBuf::from(target));
            return Ok(Vec::new());
        }
    };
    if meta.batch_seed != shared.config.seed {
        return Err(ServeError::ManifestMismatch(format!(
            "sealed seed {} != serve seed {}",
            meta.batch_seed, shared.config.seed
        )));
    }
    if meta.pipeline_fault_rate.to_bits() != shared.config.fault_rate.to_bits() {
        return Err(ServeError::ManifestMismatch(format!(
            "sealed fault rate {} != serve fault rate {}",
            meta.pipeline_fault_rate, shared.config.fault_rate
        )));
    }
    let mut pending = Vec::new();
    let mut journal = shared.journal.lock().unwrap_or_else(|e| e.into_inner());
    for (spec, record) in entries {
        let record = if record.state.is_terminal() {
            Some(record)
        } else {
            pending.push(record.index);
            None
        };
        journal.push(Entry { spec, record });
    }
    Ok(pending)
}

/// Reads and validates a sealed serve manifest: its meta and, in
/// admission order, each record with the spec sealed beside it. Any
/// failure is a reason to quarantine the file.
fn read_seal(path: &std::path::Path) -> Result<(BatchMeta, Vec<(JobSpec, JobRecord)>), String> {
    let mut ck = Checkpoint::read(path).map_err(|e| e.to_string())?;
    if ck.kind != KIND_SERVE_MANIFEST {
        return Err(format!("unexpected kind `{}`", ck.kind));
    }
    // The payload schema is the batch manifest's; reuse its decoder.
    ck.kind = KIND_BATCH_MANIFEST.to_string();
    let (meta, records) = decode_manifest(&ck).map_err(|e| e.to_string())?;
    let mut entries = Vec::with_capacity(records.len());
    for (line, record) in ck.payload[1..].iter().zip(records) {
        let spec = line
            .get("spec")
            .ok_or_else(|| format!("record {} carries no spec", record.index))
            .and_then(|v| JobSpec::from_json(v, ""))?;
        if spec.id != record.id {
            return Err(format!(
                "sealed spec `{}` vs record `{}` at index {}",
                spec.id, record.id, record.index
            ));
        }
        entries.push((spec, record));
    }
    Ok((meta, entries))
}

fn accept_loop(shared: &Shared, listener: &UnixListener) {
    let mut connections = 0usize;
    let mut last_activity = Instant::now();
    loop {
        if shared.draining() {
            sweep_backlog(shared, listener);
            return;
        }
        if shared
            .config
            .max_requests
            .is_some_and(|max| connections >= max)
        {
            return;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                connections += 1;
                last_activity = Instant::now();
                admit_connection(shared, stream);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                if shared
                    .config
                    .idle_exit
                    .is_some_and(|idle| last_activity.elapsed() > idle && shared.queue.is_empty())
                {
                    return;
                }
                std::thread::sleep(ACCEPT_POLL);
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => {
                obs::event!("serve.accept_error", error = e.to_string());
                std::thread::sleep(ACCEPT_POLL);
            }
        }
    }
}

/// Drain: connections the kernel already completed still wait in the
/// listener's backlog. Unlinking the socket makes new connects fail fast;
/// the backlog is then accepted without blocking until it is empty, and
/// each connection gets what a worker gives a queued client on drain —
/// journaled pending plus the typed `pending` response — so every
/// request is answered or journaled before the seal.
fn sweep_backlog(shared: &Shared, listener: &UnixListener) {
    let _ = std::fs::remove_file(shared.config.socket_path());
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                obs::counter_add("serve.drain_swept", 1);
                pend_client(shared, stream);
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            // `WouldBlock`: the backlog is empty.
            Err(_) => return,
        }
    }
}

/// Queues every accepted connection unless the
/// [`FaultKind::Accept`](resilience::FaultKind) site forces a shed. A
/// shed is a *typed* response on the wire plus a counter, an obs event,
/// and a flight dump — never a silent drop.
fn admit_connection(shared: &Shared, mut stream: UnixStream) {
    let forced = {
        let mut plan = shared
            .serve_faults
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        plan.should_inject(resilience::FaultKind::Accept)
    };
    if !forced {
        shared.queue.push(Work::Client(stream), Lane::Fast);
        return;
    }
    let depth = shared.queue.len();
    Stats::bump(&shared.stats.shed);
    obs::counter_add("serve.shed", 1);
    obs::counter_add("serve.shed.accept_fault", 1);
    obs::event!("serve.shed", policy = "accept-fault", queue_depth = depth);
    shared.flight_dump("shed");
    let _ = write_line(&mut stream, &protocol::shed_response("accept-fault", depth));
}

fn worker_loop(shared: &Shared) {
    while let Some(work) = shared.queue.pop() {
        match work {
            Work::Client(stream) => {
                if shared.draining() {
                    pend_client(shared, stream);
                } else {
                    handle_client(shared, stream);
                }
            }
            Work::Resume(index) => {
                if shared.draining() {
                    // Stays pending in the journal; the next lifetime
                    // picks it up.
                    continue;
                }
                let spec = {
                    let journal = shared.journal.lock().unwrap_or_else(|e| e.into_inner());
                    journal[index].spec.clone()
                };
                let (record, _) = compute_via_cache(shared, index, &spec, None);
                finish_entry(shared, index, record);
                Stats::bump(&shared.stats.resumed);
                obs::counter_add("serve.resumed", 1);
            }
        }
    }
}

/// Drain mode: the request is read and journaled as pending (so the
/// sealed manifest covers it) and the client gets a typed `pending`
/// response instead of an answer.
fn pend_client(shared: &Shared, mut stream: UnixStream) {
    let Some(line) = read_request_line(&stream) else {
        return;
    };
    match protocol::parse_request(&line) {
        Ok(Request::Job { spec, .. }) => {
            let id = spec.id.clone();
            let index = {
                let mut journal = shared.journal.lock().unwrap_or_else(|e| e.into_inner());
                journal.push(Entry { spec, record: None });
                journal.len() - 1
            };
            Stats::bump(&shared.stats.accepted);
            obs::event!("serve.pending", id = id.clone(), index = index);
            let _ = write_line(&mut stream, &protocol::pending_response(&id));
        }
        Ok(Request::Ping) => {
            let _ = write_line(&mut stream, &protocol::pong_response());
        }
        Ok(Request::Stats) => {
            let _ = write_line(&mut stream, &stats_line(shared));
        }
        Ok(Request::Drain) => {
            let _ = write_line(&mut stream, &protocol::draining_response());
        }
        Err(msg) => {
            let _ = write_line(&mut stream, &protocol::error_response(&msg));
        }
    }
}

fn stats_line(shared: &Shared) -> String {
    protocol::stats_response(
        Stats::get(&shared.stats.accepted),
        Stats::get(&shared.stats.done),
        Stats::get(&shared.stats.shed),
        Stats::get(&shared.stats.cancelled),
        Stats::get(&shared.stats.quarantined),
        Stats::get(&shared.stats.cache_hits),
        Stats::get(&shared.stats.cache_misses),
        Stats::get(&shared.stats.cache_quarantined),
        Stats::get(&shared.stats.resumed),
    )
}

fn handle_client(shared: &Shared, mut stream: UnixStream) {
    let Some(line) = read_request_line(&stream) else {
        obs::counter_add("serve.bad_request", 1);
        return;
    };
    let request = match protocol::parse_request(&line) {
        Ok(request) => request,
        Err(msg) => {
            obs::counter_add("serve.bad_request", 1);
            let _ = write_line(&mut stream, &protocol::error_response(&msg));
            return;
        }
    };
    match request {
        Request::Ping => {
            let _ = write_line(&mut stream, &protocol::pong_response());
        }
        Request::Stats => {
            let _ = write_line(&mut stream, &stats_line(shared));
        }
        Request::Drain => {
            shared.drain.store(true, Ordering::SeqCst);
            obs::event!("serve.drain_requested", source = "op");
            let _ = write_line(&mut stream, &protocol::draining_response());
        }
        Request::Job { spec, deadline } => {
            let deadline = deadline.or(shared.config.request_deadline);
            let index = {
                let mut journal = shared.journal.lock().unwrap_or_else(|e| e.into_inner());
                journal.push(Entry {
                    spec: spec.clone(),
                    record: None,
                });
                journal.len() - 1
            };
            Stats::bump(&shared.stats.accepted);
            obs::counter_add("serve.accepted", 1);
            if client_disconnected(&stream) {
                // Cancelled while queued: the job never spends compute.
                // Journaled as shed — it never ran and never will.
                Stats::bump(&shared.stats.cancelled);
                obs::counter_add("serve.cancelled", 1);
                obs::event!("serve.cancelled", id = spec.id.clone(), index = index);
                let id = spec.id.clone();
                finish_entry(
                    shared,
                    index,
                    JobRecord {
                        index,
                        id,
                        state: JobState::Shed,
                        retries: 0,
                    },
                );
                return;
            }
            let (record, cached) = compute_via_cache(shared, index, &spec, deadline);
            let response = match &record.state {
                JobState::Done { .. } => {
                    Stats::bump(&shared.stats.done);
                    protocol::done_response(&record, cached)
                }
                JobState::Quarantined { .. } => {
                    Stats::bump(&shared.stats.quarantined);
                    protocol::quarantined_response(&record)
                }
                JobState::Pending { .. } => protocol::deadline_response(&record.id),
                // A fresh one-job batch never sheds; should it, the
                // client still gets a typed answer.
                JobState::Shed => protocol::shed_response("engine", 0),
            };
            finish_entry(shared, index, record);
            if !write_line(&mut stream, &response) {
                Stats::bump(&shared.stats.cancelled);
                obs::counter_add("serve.cancelled", 1);
            }
        }
    }
}

fn finish_entry(shared: &Shared, index: usize, record: JobRecord) {
    let mut journal = shared.journal.lock().unwrap_or_else(|e| e.into_inner());
    journal[index].record = Some(record);
}

/// The cache-or-compute path every job request takes. The probe
/// quarantines corrupt entries itself; a miss (cold or quarantined)
/// computes through [`compute_record`] and reseals — with the
/// `CacheWrite` fault site deciding whether the seal is torn.
fn compute_via_cache(
    shared: &Shared,
    index: usize,
    spec: &JobSpec,
    deadline: Option<Duration>,
) -> (JobRecord, bool) {
    let key = cache_key(spec, shared.config.seed, shared.config.fault_rate);
    match shared.cache.probe(key) {
        CacheProbe::Hit(result) => {
            Stats::bump(&shared.stats.cache_hits);
            let record = JobRecord {
                index,
                id: spec.id.clone(),
                state: result.to_state(),
                retries: 0,
            };
            return (record, true);
        }
        CacheProbe::Quarantined => {
            Stats::bump(&shared.stats.cache_quarantined);
            shared.flight_dump("cache-quarantine");
            Stats::bump(&shared.stats.cache_misses);
        }
        CacheProbe::Miss => {
            Stats::bump(&shared.stats.cache_misses);
        }
    }
    obs::counter_add("serve.cache.miss", 1);
    let record = compute_record(spec, index, &shared.config, deadline);
    if let Some(result) = CachedResult::from_state(&record.state) {
        let mut plan = shared
            .serve_faults
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        shared.cache.store(key, result, &mut plan);
    }
    (record, false)
}

/// Seals the restart state as `serve.manifest` (batch-manifest schema
/// under the serve kind, each record line also carrying its `spec`)
/// through the atomic write path. Entries without a record seal as
/// pending and are recomputed by the next lifetime.
fn seal(shared: &Shared) -> Result<(), ServeError> {
    let journal = shared.journal.lock().unwrap_or_else(|e| e.into_inner());
    let records: Vec<JobRecord> = journal
        .iter()
        .enumerate()
        .map(|(index, entry)| match &entry.record {
            Some(record) => record.clone(),
            None => JobRecord {
                index,
                id: entry.spec.id.clone(),
                state: JobState::Pending {
                    attempt: 0,
                    slices_used: 0,
                    checkpoint: None,
                },
                retries: 0,
            },
        })
        .collect();
    let meta = BatchMeta {
        batch_seed: shared.config.seed,
        jobs: records.len(),
        pipeline_fault_rate: shared.config.fault_rate,
    };
    let mut ck = encode_manifest(&meta, &records);
    ck.kind = KIND_SERVE_MANIFEST.to_string();
    for (line, entry) in ck.payload[1..].iter_mut().zip(journal.iter()) {
        if let JsonValue::Object(fields) = line {
            fields.insert("spec".to_string(), entry.spec.to_json());
        }
    }
    let manifest_path = shared.config.manifest_path();
    ck.write(&manifest_path)?;
    obs::event!(
        "serve.sealed",
        manifest = manifest_path.display().to_string(),
        requests = records.len()
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use chem::Benchmark;
    use std::io::{BufRead, BufReader};

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("pcd-daemon-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn roundtrip(socket: &std::path::Path, line: &str) -> String {
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut stream = loop {
            match UnixStream::connect(socket) {
                Ok(s) => break s,
                Err(e) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5));
                    let _ = e;
                }
                Err(e) => panic!("connect: {e}"),
            }
        };
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .unwrap();
        let mut payload = line.as_bytes().to_vec();
        payload.push(b'\n');
        stream.write_all(&payload).unwrap();
        let mut reader = BufReader::new(stream);
        let mut out = String::new();
        reader.read_line(&mut out).unwrap();
        out
    }

    #[test]
    fn request_seed_is_content_pure() {
        assert_eq!(request_seed(7, 99), request_seed(7, 99));
        assert_ne!(request_seed(7, 99), request_seed(8, 99));
        assert_ne!(request_seed(7, 99), request_seed(7, 100));
    }

    #[test]
    fn compute_record_is_index_independent_in_outcome() {
        let spec = JobSpec {
            id: "a".to_string(),
            benchmark: Benchmark::H2,
            bond: Some(0.74),
            ratio: 1.0,
        };
        let config = ServeConfig {
            state_dir: scratch("idx"),
            ..ServeConfig::default()
        };
        let r0 = compute_record(&spec, 0, &config, None);
        let r5 = compute_record(&spec, 5, &config, None);
        assert_eq!(r0.state, r5.state, "outcome keyed by content, not index");
        assert_eq!(r5.index, 5);
    }

    #[test]
    fn serve_round_trip_with_cache_hit_and_drain() {
        let config = ServeConfig {
            state_dir: scratch("roundtrip"),
            workers: 2,
            seed: 99,
            ..ServeConfig::default()
        };
        let socket = config.socket_path();
        let daemon = std::thread::spawn({
            let config = config.clone();
            move || run_serve(&config)
        });
        let pong = roundtrip(&socket, "{\"op\":\"ping\"}");
        assert!(pong.contains("pong"), "got {pong}");
        let job = "{\"id\":\"a\",\"molecule\":\"H2\",\"bond\":0.74,\"ratio\":1.0}";
        let first = roundtrip(&socket, job);
        assert!(first.contains("\"status\":\"done\""), "got {first}");
        assert!(first.contains("\"cached\":false"), "got {first}");
        let second = roundtrip(
            &socket,
            "{\"id\":\"b\",\"molecule\":\"H2\",\"bond\":0.74,\"ratio\":1.0}",
        );
        assert!(
            second.contains("\"cached\":true"),
            "repeat must hit: {second}"
        );
        assert!(
            second.contains("\"stages\":[\"cache\"]"),
            "cache hit must skip stages: {second}"
        );
        let drain = roundtrip(&socket, "{\"op\":\"drain\"}");
        assert!(drain.contains("draining"), "got {drain}");
        let summary = daemon.join().unwrap().unwrap();
        assert!(summary.drained);
        assert_eq!(summary.accepted, 2);
        assert_eq!(summary.done, 2);
        assert_eq!(summary.cache_hits, 1);
        assert_eq!(summary.cache_misses, 1);
        assert_eq!(summary.pending, 0);
        // The sealed manifest replays: a second lifetime starts with the
        // journal intact and no pending work.
        assert!(config.manifest_path().exists());
        let reread = run_serve(&ServeConfig {
            max_requests: Some(0),
            ..config.clone()
        })
        .unwrap();
        assert_eq!(reread.resumed, 0);
        assert!(!reread.drained);
        let _ = std::fs::remove_dir_all(&config.state_dir);
    }
}
