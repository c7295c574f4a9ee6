//! Always-on bounded flight recorder.
//!
//! Every thread keeps a fixed-capacity ring buffer of its most recent
//! telemetry — span completions, events, counter deltas, and injected
//! resilience faults — that records **even when full tracing is off**.
//! When a supervised job is quarantined, a drain or deadline interrupts
//! it, or a resilience fault fires, the ring is atomically
//! dumped to `flight-<job>.jsonl` so there is a record of the telemetry
//! leading up to the failure, at zero steady-state cost beyond the ring
//! writes themselves.
//!
//! # Design
//!
//! - **Per-thread rings.** Each thread owns a `FLIGHT_CAPACITY`-entry ring
//!   (allocated once, on the thread's first note; pushes never allocate —
//!   names are truncated into a fixed inline buffer). The supervisor pins
//!   each job to one worker thread (`par::with_threads(1)`), so a job's
//!   telemetry and its ring live on the same thread.
//! - **Job context.** The engine calls [`set_job`] when a worker picks up a
//!   job, which also clears the ring: a dump contains only the failed job's
//!   own telemetry, making its logical content a deterministic function of
//!   the job (seeds included), independent of worker count.
//! - **`par.*` carve-out.** Counters whose name starts with `par.` are
//!   excluded from the ring: the `par` crate only records its task/thread
//!   accounting when a region actually goes parallel, so those deltas
//!   legitimately vary with `PCD_THREADS`. Excluding them keeps ring
//!   content bit-identical across 1/2/4 threads: the wall-clock parts —
//!   the `at_us` timestamp of every entry, and the measured duration that
//!   is a span entry's `value` — are the only nondeterministic fields,
//!   and comparisons exclude exactly those.
//! - **Sealed dumps.** [`dump`] writes a header line, one line per entry,
//!   and a `flight_seal` trailer carrying the CRC-32 of all preceding
//!   bytes, via [`crate::atomic_write`]. [`parse_dump`] verifies the seal,
//!   so a report reader can distinguish a complete dump from a torn one.

use std::cell::RefCell;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::json::{self, JsonValue};

/// Entries retained per thread; older entries are overwritten.
pub const FLIGHT_CAPACITY: usize = 256;

/// Bytes of a name retained per entry (longer names are truncated at a
/// UTF-8 boundary).
const NAME_CAP: usize = 48;

/// A fixed-capacity inline name buffer: copying or building one never
/// allocates, which keeps the disabled-tracing span path heap-free.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SmallName {
    bytes: [u8; NAME_CAP],
    len: u8,
}

impl SmallName {
    pub(crate) fn new(s: &str) -> Self {
        let mut len = s.len().min(NAME_CAP);
        while len > 0 && !s.is_char_boundary(len) {
            len -= 1;
        }
        let mut bytes = [0u8; NAME_CAP];
        bytes[..len].copy_from_slice(&s.as_bytes()[..len]);
        SmallName {
            bytes,
            len: len as u8,
        }
    }

    pub(crate) fn as_str(&self) -> &str {
        std::str::from_utf8(&self.bytes[..self.len as usize]).unwrap_or("")
    }
}

/// What kind of telemetry a flight entry records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlightKind {
    /// A completed span; `value` is its duration in µs.
    Span,
    /// A point-in-time event; `value` is 0.
    Event,
    /// A counter bump; `value` is the delta.
    Counter,
    /// An injected resilience fault; `value` is the site visit count.
    Fault,
}

impl FlightKind {
    /// Stable wire name used in dump lines.
    pub fn as_str(self) -> &'static str {
        match self {
            FlightKind::Span => "span",
            FlightKind::Event => "event",
            FlightKind::Counter => "counter",
            FlightKind::Fault => "fault",
        }
    }
}

/// One ring entry. Fixed-size; copying it never allocates.
#[derive(Debug, Clone, Copy)]
pub struct FlightEntry {
    seq: u64,
    at_us: u64,
    kind: FlightKind,
    name: SmallName,
    value: f64,
}

impl FlightEntry {
    /// Position in the thread's note sequence (0-based, monotonic since
    /// the last [`set_job`]).
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Microseconds since the process-wide flight epoch (wall clock;
    /// excluded from determinism comparisons).
    pub fn at_us(&self) -> u64 {
        self.at_us
    }

    /// Entry kind.
    pub fn kind(&self) -> FlightKind {
        self.kind
    }

    /// The (possibly truncated) telemetry name.
    pub fn name(&self) -> &str {
        self.name.as_str()
    }

    /// Kind-specific value (duration µs, counter delta, or fault visit).
    pub fn value(&self) -> f64 {
        self.value
    }
}

struct Ring {
    job: Option<String>,
    entries: Vec<FlightEntry>,
    /// Index of the oldest entry once the ring has wrapped.
    head: usize,
    seq: u64,
    dropped: u64,
}

impl Ring {
    fn new() -> Self {
        Ring {
            job: None,
            entries: Vec::with_capacity(FLIGHT_CAPACITY),
            head: 0,
            seq: 0,
            dropped: 0,
        }
    }

    fn clear(&mut self) {
        self.entries.clear();
        self.head = 0;
        self.seq = 0;
        self.dropped = 0;
    }

    fn push(&mut self, kind: FlightKind, name: &str, value: f64) {
        let name = SmallName::new(name);
        let entry = FlightEntry {
            seq: self.seq,
            at_us: flight_epoch().elapsed().as_micros() as u64,
            kind,
            name,
            value,
        };
        self.seq += 1;
        if self.entries.len() < FLIGHT_CAPACITY {
            self.entries.push(entry);
        } else {
            self.entries[self.head] = entry;
            self.head = (self.head + 1) % FLIGHT_CAPACITY;
            self.dropped += 1;
        }
    }

    fn chronological(&self) -> Vec<FlightEntry> {
        let mut out = Vec::with_capacity(self.entries.len());
        out.extend_from_slice(&self.entries[self.head..]);
        out.extend_from_slice(&self.entries[..self.head]);
        out
    }
}

thread_local! {
    static RING: RefCell<Ring> = RefCell::new(Ring::new());
}

fn flight_epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn armed_dump_dir() -> &'static Mutex<Option<PathBuf>> {
    static DIR: OnceLock<Mutex<Option<PathBuf>>> = OnceLock::new();
    DIR.get_or_init(|| Mutex::new(None))
}

fn note(kind: FlightKind, name: &str, value: f64) {
    if name.starts_with("par.") {
        return; // thread-count-dependent accounting; see module docs
    }
    RING.with(|r| r.borrow_mut().push(kind, name, value));
}

/// Notes a completed span (called from `SpanGuard::drop`, enabled or not).
pub(crate) fn note_span(name: &str, duration_us: f64) {
    note(FlightKind::Span, name, duration_us);
}

/// Notes an event by name. The `event!` macro calls this on the disabled
/// path (field expressions are still skipped); `event_fields` calls it on
/// the enabled path.
pub fn note_event(name: &str) {
    note(FlightKind::Event, name, 0.0);
}

/// Notes a counter delta (called from `counter_add`, enabled or not).
pub(crate) fn note_counter(name: &str, delta: u64) {
    note(FlightKind::Counter, name, delta as f64);
}

/// Notes an injected resilience fault, then dumps the ring if a dump
/// directory is armed (see [`arm_dump_dir`]). Returns the dump path if one
/// was written.
pub fn note_fault(site: &str, visit: u64) -> Option<PathBuf> {
    note(FlightKind::Fault, site, visit as f64);
    let dir = armed_dump_dir()
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .clone()?;
    let job = current_job().unwrap_or_else(|| "nojob".to_string());
    dump(&dir, &job, "fault").ok()
}

/// Arms (or with `None`, disarms) automatic fault-triggered dumps for the
/// whole process. The supervisor arms this with its `flight_dir`.
pub fn arm_dump_dir(dir: Option<PathBuf>) {
    *armed_dump_dir().lock().unwrap_or_else(|e| e.into_inner()) = dir;
}

/// Sets the current thread's job context and clears its ring, so a later
/// dump contains only this job's telemetry.
pub fn set_job(id: &str) {
    RING.with(|r| {
        let mut ring = r.borrow_mut();
        ring.clear();
        ring.job = Some(id.to_string());
    });
}

/// Clears the current thread's job context and ring.
pub fn clear_job() {
    RING.with(|r| {
        let mut ring = r.borrow_mut();
        ring.clear();
        ring.job = None;
    });
}

/// The current thread's job context, if set.
pub fn current_job() -> Option<String> {
    RING.with(|r| r.borrow().job.clone())
}

/// The current thread's ring contents in chronological order.
pub fn ring_snapshot() -> Vec<FlightEntry> {
    RING.with(|r| r.borrow().chronological())
}

/// How many entries the current thread's ring has overwritten.
pub fn ring_dropped() -> u64 {
    RING.with(|r| r.borrow().dropped)
}

fn sanitize_job_id(id: &str) -> String {
    let mut out: String = id
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                c
            } else {
                '-'
            }
        })
        .collect();
    if out.is_empty() {
        out.push_str("nojob");
    }
    out.truncate(64);
    out
}

fn obj(pairs: Vec<(&str, JsonValue)>) -> JsonValue {
    JsonValue::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// Dumps the current thread's ring to `dir/flight-<job>.jsonl` atomically:
/// a `flight_header` line, one `flight` line per entry, and a
/// `flight_seal` trailer whose `crc32` covers all preceding bytes.
/// Re-dumping the same job overwrites the previous dump (newest failure
/// wins). Creates `dir` if needed.
///
/// # Errors
///
/// Propagates I/O errors from directory creation or the atomic write.
pub fn dump(dir: &Path, job: &str, reason: &str) -> io::Result<PathBuf> {
    let (entries, dropped) = RING.with(|r| {
        let ring = r.borrow();
        (ring.chronological(), ring.dropped)
    });
    std::fs::create_dir_all(dir)?;
    let mut body = String::new();
    let header = obj(vec![
        ("type", JsonValue::String("flight_header".to_string())),
        ("version", JsonValue::Number(1.0)),
        ("job", JsonValue::String(job.to_string())),
        ("reason", JsonValue::String(reason.to_string())),
        ("capacity", JsonValue::Number(FLIGHT_CAPACITY as f64)),
        ("dropped", JsonValue::Number(dropped as f64)),
        ("records", JsonValue::Number(entries.len() as f64)),
    ]);
    body.push_str(&header.to_string());
    body.push('\n');
    for e in &entries {
        let line = obj(vec![
            ("type", JsonValue::String("flight".to_string())),
            ("seq", JsonValue::Number(e.seq as f64)),
            ("at_us", JsonValue::Number(e.at_us as f64)),
            ("kind", JsonValue::String(e.kind.as_str().to_string())),
            ("name", JsonValue::String(e.name().to_string())),
            ("value", JsonValue::Number(e.value)),
        ]);
        body.push_str(&line.to_string());
        body.push('\n');
    }
    let seal = obj(vec![
        ("type", JsonValue::String("flight_seal".to_string())),
        ("records", JsonValue::Number(entries.len() as f64)),
        (
            "crc32",
            JsonValue::Number(crate::crc32(body.as_bytes()) as f64),
        ),
    ]);
    body.push_str(&seal.to_string());
    body.push('\n');
    let path = dir.join(format!("flight-{}.jsonl", sanitize_job_id(job)));
    crate::atomic_write(&path, body.as_bytes())?;
    Ok(path)
}

/// One parsed entry of a flight dump.
#[derive(Debug, Clone, PartialEq)]
pub struct FlightRecord {
    /// Note sequence number within the job.
    pub seq: u64,
    /// Microseconds since the flight epoch.
    pub at_us: u64,
    /// Entry kind (`span`/`event`/`counter`/`fault`).
    pub kind: String,
    /// Telemetry name.
    pub name: String,
    /// Kind-specific value.
    pub value: f64,
}

/// A parsed, CRC-verified flight dump.
#[derive(Debug, Clone, PartialEq)]
pub struct FlightDump {
    /// Job id from the header.
    pub job: String,
    /// Why the dump was taken (`panic`/`timeout`/`drain`/`deadline`/`fault`/...).
    pub reason: String,
    /// Ring capacity at dump time.
    pub capacity: u64,
    /// Entries overwritten before the dump.
    pub dropped: u64,
    /// Entries, oldest first.
    pub entries: Vec<FlightRecord>,
}

/// Parses and verifies a flight dump produced by [`dump`].
///
/// # Errors
///
/// Returns a message if the header or seal is missing or malformed, the
/// CRC does not match, or the record count disagrees with the header.
pub fn parse_dump(text: &str) -> Result<FlightDump, String> {
    let seal_start = text
        .trim_end_matches('\n')
        .rfind('\n')
        .map(|i| i + 1)
        .unwrap_or(0);
    let sealed_body = &text[..seal_start];
    let seal_line = text[seal_start..].trim_end();
    let seal = json::parse(seal_line).map_err(|e| format!("flight seal: {e}"))?;
    if seal.get("type").and_then(JsonValue::as_str) != Some("flight_seal") {
        return Err("flight dump has no flight_seal trailer".to_string());
    }
    let want_crc = seal
        .get("crc32")
        .and_then(JsonValue::as_f64)
        .ok_or_else(|| "flight_seal missing crc32".to_string())? as u32;
    let got_crc = crate::crc32(sealed_body.as_bytes());
    if want_crc != got_crc {
        return Err(format!(
            "flight dump CRC mismatch: seal {want_crc:#010x}, body {got_crc:#010x}"
        ));
    }
    let mut lines = sealed_body.lines();
    let header_line = lines
        .next()
        .ok_or_else(|| "flight dump is empty".to_string())?;
    let header = json::parse(header_line).map_err(|e| format!("flight header: {e}"))?;
    if header.get("type").and_then(JsonValue::as_str) != Some("flight_header") {
        return Err("flight dump does not start with flight_header".to_string());
    }
    let hstr = |key: &str| -> String {
        header
            .get(key)
            .and_then(JsonValue::as_str)
            .unwrap_or("")
            .to_string()
    };
    let hnum =
        |key: &str| -> u64 { header.get(key).and_then(JsonValue::as_f64).unwrap_or(0.0) as u64 };
    let mut entries = Vec::new();
    for (i, line) in lines.enumerate() {
        let v = json::parse(line).map_err(|e| format!("flight entry {}: {e}", i + 1))?;
        if v.get("type").and_then(JsonValue::as_str) != Some("flight") {
            return Err(format!("flight entry {}: unexpected type", i + 1));
        }
        let num = |key: &str| -> Result<f64, String> {
            v.get(key)
                .and_then(JsonValue::as_f64)
                .ok_or_else(|| format!("flight entry {}: missing \"{key}\"", i + 1))
        };
        entries.push(FlightRecord {
            seq: num("seq")? as u64,
            at_us: num("at_us")? as u64,
            kind: v
                .get("kind")
                .and_then(JsonValue::as_str)
                .unwrap_or("")
                .to_string(),
            name: v
                .get("name")
                .and_then(JsonValue::as_str)
                .unwrap_or("")
                .to_string(),
            value: num("value")?,
        });
    }
    let want_records = hnum("records");
    if entries.len() as u64 != want_records {
        return Err(format!(
            "flight dump record count mismatch: header {want_records}, body {}",
            entries.len()
        ));
    }
    Ok(FlightDump {
        job: hstr("job"),
        reason: hstr("reason"),
        capacity: hnum("capacity"),
        dropped: hnum("dropped"),
        entries,
    })
}
