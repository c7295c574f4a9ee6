//! Structured tracing and metrics for the pauli-codesign pipeline.
//!
//! `obs` is a zero-dependency observability layer shared by every crate in
//! the workspace. It records four kinds of data into a process-global,
//! thread-safe registry:
//!
//! - **Spans** — wall-clock timed regions with a name, optional parent
//!   (derived from a thread-local span stack), and key/value fields.
//!   Created with [`span`]; the returned [`SpanGuard`] records itself when
//!   dropped (RAII).
//! - **Events** — point-in-time records with fields, e.g. one per SCF or
//!   VQE iteration. Emitted with the [`event!`] macro or [`event_fields`].
//! - **Counters** — monotonic `u64` totals, e.g. objective evaluations or
//!   SWAPs inserted. Bumped with [`counter_add`].
//! - **Histograms** — `f64` sample distributions, e.g. per-pass timings or
//!   line-search step sizes. Fed with [`histogram_record`] into a
//!   bounded-memory [`stream::StreamingHistogram`] (~1% relative-error
//!   quantiles), so long batches run in O(1) telemetry memory.
//!
//! # Disabled fast path
//!
//! Recording is **off by default**. Every entry point first checks a single
//! relaxed [`AtomicBool`]; when disabled, no allocation happens and no
//! registry lock is taken. Independently of that flag, every span
//! completion, event, and counter delta is also pushed into the always-on
//! per-thread [`flight`] ring buffer (fixed-size copy plus one monotonic
//! clock read per span — a few tens of ns, pinned by the
//! `pcd bench --obs-overhead` budget), so a crash dump has recent telemetry
//! even when tracing was off. Call [`enable`] (the `pcd` CLI does this for
//! `--trace`/`--metrics`) to start full recording.
//!
//! # Export
//!
//! [`export_jsonl`] serializes the registry as JSON Lines — one object per
//! span/event/counter/histogram — and [`parse_jsonl`] reads that format
//! back into typed [`Record`]s (the crate ships its own small JSON layer in
//! [`json`]). Unknown record types are skipped (and counted by
//! [`parse_jsonl_stats`]) so older binaries can read traces written by
//! newer ones. [`summary`] renders a human-readable table of span timings,
//! counters, and histogram statistics for end-of-run reporting.
//!
//! ```
//! obs::reset();
//! obs::enable();
//! {
//!     let mut s = obs::span("compiler.mtr");
//!     s.record("swaps", 3u64);
//!     obs::counter_add("mtr.swaps", 3);
//! }
//! obs::event!("vqe.iter", iter = 1u64, energy = -1.137);
//! let jsonl = obs::export_jsonl();
//! assert_eq!(obs::parse_jsonl(&jsonl).unwrap().len(), 3);
//! obs::disable();
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod flight;
pub mod json;
pub mod stream;
mod summary;

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use json::JsonValue;

pub use stream::{RollingHistogram, StreamingHistogram};
pub use summary::summary_from_snapshot;

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) of `bytes` — the
/// checksum sealing flight dumps and (via `resilience`) checkpoints.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc ^= b as u32;
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// A field value attached to a span or event.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Signed integer.
    Int(i64),
    /// Unsigned integer.
    UInt(u64),
    /// Floating point.
    Float(f64),
    /// String.
    Str(String),
    /// Boolean.
    Bool(bool),
}

impl Value {
    fn to_json(&self) -> JsonValue {
        match self {
            Value::Int(x) => JsonValue::Number(*x as f64),
            Value::UInt(x) => JsonValue::Number(*x as f64),
            Value::Float(x) => JsonValue::Number(*x),
            Value::Str(s) => JsonValue::String(s.clone()),
            Value::Bool(b) => JsonValue::Bool(*b),
        }
    }

    /// The value as `f64`, converting integers.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(x) => Some(*x as f64),
            Value::UInt(x) => Some(*x as f64),
            Value::Float(x) => Some(*x),
            _ => None,
        }
    }

    /// The value as `u64` if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::UInt(x) => Some(*x),
            Value::Int(x) if *x >= 0 => Some(*x as u64),
            _ => None,
        }
    }
}

impl From<i64> for Value {
    fn from(x: i64) -> Self {
        Value::Int(x)
    }
}
impl From<i32> for Value {
    fn from(x: i32) -> Self {
        Value::Int(x as i64)
    }
}
impl From<u64> for Value {
    fn from(x: u64) -> Self {
        Value::UInt(x)
    }
}
impl From<u32> for Value {
    fn from(x: u32) -> Self {
        Value::UInt(x as u64)
    }
}
impl From<usize> for Value {
    fn from(x: usize) -> Self {
        Value::UInt(x as u64)
    }
}
impl From<f64> for Value {
    fn from(x: f64) -> Self {
        Value::Float(x)
    }
}
impl From<bool> for Value {
    fn from(x: bool) -> Self {
        Value::Bool(x)
    }
}
impl From<&str> for Value {
    fn from(x: &str) -> Self {
        Value::Str(x.to_string())
    }
}
impl From<String> for Value {
    fn from(x: String) -> Self {
        Value::Str(x)
    }
}

/// A completed, recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Span name, e.g. `"compiler.mtr"`.
    pub name: String,
    /// Name of the innermost span open on the same thread when this one
    /// started, if any.
    pub parent: Option<String>,
    /// Start time in microseconds since the registry epoch.
    pub start_us: f64,
    /// Duration in microseconds.
    pub duration_us: f64,
    /// Key/value fields attached via [`SpanGuard::record`].
    pub fields: Vec<(String, Value)>,
}

impl SpanRecord {
    /// The field with the given key, if present.
    pub fn field(&self, key: &str) -> Option<&Value> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }
}

/// A recorded point-in-time event.
#[derive(Debug, Clone, PartialEq)]
pub struct EventRecord {
    /// Event name, e.g. `"chem.scf.iter"`.
    pub name: String,
    /// Timestamp in microseconds since the registry epoch.
    pub at_us: f64,
    /// Key/value fields.
    pub fields: Vec<(String, Value)>,
}

impl EventRecord {
    /// The field with the given key, if present.
    pub fn field(&self, key: &str) -> Option<&Value> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }
}

/// Summary statistics of one histogram.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramStats {
    /// Number of samples recorded.
    pub count: u64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Median (nearest-rank).
    pub p50: f64,
    /// 90th percentile (nearest-rank).
    pub p90: f64,
    /// 99th percentile (nearest-rank).
    pub p99: f64,
}

/// An immutable copy of everything the registry currently holds.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// All completed spans, in completion order.
    pub spans: Vec<SpanRecord>,
    /// All events, in emission order.
    pub events: Vec<EventRecord>,
    /// Counter totals by name.
    pub counters: BTreeMap<String, u64>,
    /// Streaming histograms by name (bounded memory; see [`stream`]).
    pub histograms: BTreeMap<String, StreamingHistogram>,
}

impl Snapshot {
    /// All spans with the given name.
    pub fn spans_named(&self, name: &str) -> Vec<&SpanRecord> {
        self.spans.iter().filter(|s| s.name == name).collect()
    }

    /// The first span with the given name, if any.
    pub fn span(&self, name: &str) -> Option<&SpanRecord> {
        self.spans.iter().find(|s| s.name == name)
    }

    /// The counter total for `name` (0 if never bumped).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Summary statistics for the named histogram, if it has samples.
    /// `count`/`min`/`max` are exact; `mean`/percentiles carry the
    /// [`stream::ALPHA`] relative-error bound.
    pub fn histogram_stats(&self, name: &str) -> Option<HistogramStats> {
        self.histograms.get(name)?.stats()
    }
}

/// Exact [`HistogramStats`] of a raw sample slice — the reference the
/// streaming estimator is tested against (same nearest-rank convention).
pub fn exact_stats_of(samples: &[f64]) -> Option<HistogramStats> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let pct = |q: f64| -> f64 {
        let idx = ((q / 100.0) * (sorted.len() - 1) as f64).round() as usize;
        sorted[idx.min(sorted.len() - 1)]
    };
    Some(HistogramStats {
        count: sorted.len() as u64,
        min: sorted[0],
        max: sorted[sorted.len() - 1],
        mean: sorted.iter().sum::<f64>() / sorted.len() as f64,
        p50: pct(50.0),
        p90: pct(90.0),
        p99: pct(99.0),
    })
}

struct Inner {
    epoch: Instant,
    spans: Vec<SpanRecord>,
    events: Vec<EventRecord>,
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, StreamingHistogram>,
}

impl Inner {
    fn new() -> Self {
        Inner {
            epoch: Instant::now(),
            spans: Vec::new(),
            events: Vec::new(),
            counters: BTreeMap::new(),
            histograms: BTreeMap::new(),
        }
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);

fn registry() -> &'static Mutex<Inner> {
    static REGISTRY: OnceLock<Mutex<Inner>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Inner::new()))
}

fn lock() -> std::sync::MutexGuard<'static, Inner> {
    // A poisoned registry just means some thread panicked mid-record; the
    // data is still structurally valid, so keep going.
    registry().lock().unwrap_or_else(|e| e.into_inner())
}

thread_local! {
    static SPAN_STACK: RefCell<Vec<String>> = const { RefCell::new(Vec::new()) };
}

/// Turns recording on.
pub fn enable() {
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turns recording off; subsequent calls become no-ops.
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Whether the registry is currently recording.
#[inline]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Clears all recorded data and restarts the epoch. Does not change the
/// enabled flag.
pub fn reset() {
    *lock() = Inner::new();
}

/// Starts a timed span. The span records itself when the guard drops.
/// When recording is disabled, no allocation happens and no registry lock
/// is taken on drop, but the monotonic clock is still read and the span's
/// completion is noted in the thread's [`flight`] ring (a fixed-size copy;
/// the per-call cost is pinned by the `pcd bench --obs-overhead` budget).
#[must_use = "a span records on Drop; binding it to `_` drops it immediately"]
pub fn span(name: &str) -> SpanGuard {
    let fname = flight::SmallName::new(name);
    let start = Instant::now();
    let enabled = is_enabled();
    let name = if enabled {
        let name = name.to_string();
        SPAN_STACK.with(|s| s.borrow_mut().push(name.clone()));
        name
    } else {
        String::new()
    };
    SpanGuard {
        name,
        enabled,
        start,
        fname,
        fields: Vec::new(),
    }
}

/// RAII guard for an in-flight span; see [`span`].
#[derive(Debug)]
pub struct SpanGuard {
    name: String,
    enabled: bool,
    start: Instant,
    fname: flight::SmallName,
    fields: Vec<(String, Value)>,
}

impl SpanGuard {
    /// Attaches a key/value field to the span.
    pub fn record(&mut self, key: &str, value: impl Into<Value>) {
        if self.enabled {
            self.fields.push((key.to_string(), value.into()));
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let end = Instant::now();
        let duration_us = end.saturating_duration_since(self.start).as_secs_f64() * 1e6;
        flight::note_span(self.fname.as_str(), duration_us);
        if !self.enabled {
            return;
        }
        // Pop our own frame; out-of-order drops remove the most recent
        // matching name instead.
        SPAN_STACK.with(|s| {
            let mut stack = s.borrow_mut();
            if let Some(pos) = stack.iter().rposition(|n| n == &self.name) {
                stack.remove(pos);
            }
        });
        let parent = SPAN_STACK.with(|s| s.borrow().last().cloned());
        let mut inner = lock();
        let start_us = self
            .start
            .saturating_duration_since(inner.epoch)
            .as_secs_f64()
            * 1e6;
        inner.spans.push(SpanRecord {
            name: std::mem::take(&mut self.name),
            parent,
            start_us,
            duration_us,
            fields: std::mem::take(&mut self.fields),
        });
    }
}

/// Emits an event with pre-built fields. Prefer the [`event!`] macro, which
/// skips building the field vector entirely when recording is disabled
/// (the event is still noted in the [`flight`] ring either way).
pub fn event_fields(name: &str, fields: Vec<(String, Value)>) {
    flight::note_event(name);
    if !is_enabled() {
        return;
    }
    let mut inner = lock();
    let at_us = Instant::now()
        .saturating_duration_since(inner.epoch)
        .as_secs_f64()
        * 1e6;
    inner.events.push(EventRecord {
        name: name.to_string(),
        at_us,
        fields,
    });
}

/// Emits a point-in-time event with named fields:
///
/// ```
/// obs::event!("vqe.iter", iter = 3u64, energy = -1.1, accepted = true);
/// ```
///
/// Field expressions are not evaluated when recording is disabled; the
/// event name is still noted in the [`flight`] ring.
#[macro_export]
macro_rules! event {
    ($name:expr $(, $key:ident = $val:expr)* $(,)?) => {
        if $crate::is_enabled() {
            $crate::event_fields(
                $name,
                vec![$((stringify!($key).to_string(), $crate::Value::from($val))),*],
            );
        } else {
            $crate::flight::note_event($name);
        }
    };
}

/// Adds `delta` to the named monotonic counter. The delta is noted in the
/// [`flight`] ring even when recording is disabled.
pub fn counter_add(name: &str, delta: u64) {
    flight::note_counter(name, delta);
    if !is_enabled() {
        return;
    }
    let mut inner = lock();
    *inner.counters.entry(name.to_string()).or_insert(0) += delta;
}

/// Records one sample into the named streaming histogram.
pub fn histogram_record(name: &str, value: f64) {
    if !is_enabled() {
        return;
    }
    let mut inner = lock();
    inner
        .histograms
        .entry(name.to_string())
        .or_default()
        .record(value);
}

/// Copies out everything recorded so far.
pub fn snapshot() -> Snapshot {
    let inner = lock();
    Snapshot {
        spans: inner.spans.clone(),
        events: inner.events.clone(),
        counters: inner.counters.clone(),
        histograms: inner.histograms.clone(),
    }
}

fn fields_to_json(fields: &[(String, Value)]) -> JsonValue {
    let mut map = BTreeMap::new();
    for (k, v) in fields {
        map.insert(k.clone(), v.to_json());
    }
    JsonValue::Object(map)
}

fn obj(pairs: Vec<(&str, JsonValue)>) -> JsonValue {
    JsonValue::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// Serializes the registry as JSON Lines: one `span`, `event`, `counter`,
/// or `histogram` object per line. Spans and events appear in recording
/// order; counters and histograms are sorted by name.
pub fn export_jsonl() -> String {
    export_snapshot_jsonl(&snapshot())
}

/// Serializes an explicit [`Snapshot`] as JSON Lines (see [`export_jsonl`]).
pub fn export_snapshot_jsonl(snap: &Snapshot) -> String {
    let mut out = String::new();
    for s in &snap.spans {
        let parent = match &s.parent {
            Some(p) => JsonValue::String(p.clone()),
            None => JsonValue::Null,
        };
        let line = obj(vec![
            ("type", JsonValue::String("span".to_string())),
            ("name", JsonValue::String(s.name.clone())),
            ("parent", parent),
            ("start_us", JsonValue::Number(s.start_us)),
            ("duration_us", JsonValue::Number(s.duration_us)),
            ("fields", fields_to_json(&s.fields)),
        ]);
        out.push_str(&line.to_string());
        out.push('\n');
    }
    for e in &snap.events {
        let line = obj(vec![
            ("type", JsonValue::String("event".to_string())),
            ("name", JsonValue::String(e.name.clone())),
            ("at_us", JsonValue::Number(e.at_us)),
            ("fields", fields_to_json(&e.fields)),
        ]);
        out.push_str(&line.to_string());
        out.push('\n');
    }
    for (name, value) in &snap.counters {
        let line = obj(vec![
            ("type", JsonValue::String("counter".to_string())),
            ("name", JsonValue::String(name.clone())),
            ("value", JsonValue::Number(*value as f64)),
        ]);
        out.push_str(&line.to_string());
        out.push('\n');
    }
    for name in snap.histograms.keys() {
        if let Some(st) = snap.histogram_stats(name) {
            let line = obj(vec![
                ("type", JsonValue::String("histogram".to_string())),
                ("name", JsonValue::String(name.clone())),
                ("count", JsonValue::Number(st.count as f64)),
                ("min", JsonValue::Number(st.min)),
                ("max", JsonValue::Number(st.max)),
                ("mean", JsonValue::Number(st.mean)),
                ("p50", JsonValue::Number(st.p50)),
                ("p90", JsonValue::Number(st.p90)),
                ("p99", JsonValue::Number(st.p99)),
            ]);
            out.push_str(&line.to_string());
            out.push('\n');
        }
    }
    out
}

/// Writes `contents` to `path` atomically: the bytes go to a sibling
/// temporary file (`<name>.tmp.<pid>` in the same directory, so the rename
/// never crosses filesystems and two processes writing adjacent artifacts
/// never race on the same temp name), are flushed and synced, and the temp
/// file is then renamed over `path`. On Unix the parent directory is fsynced
/// after the rename so the new directory entry itself survives power loss. A
/// reader — or a process killed mid-write — therefore sees either the
/// complete old file or the complete new one, never a truncated artifact.
/// Shared by trace export, flight dumps, `pcd bench` and `pcd report`
/// output, and the resilience checkpoint writer (which seals batch and
/// serve manifests).
///
/// # Errors
///
/// Propagates any I/O error from writing, syncing, or renaming. A failure to
/// fsync the parent directory after a successful rename is ignored: the data
/// rename already happened, and some filesystems reject directory fsync.
pub fn atomic_write(path: impl AsRef<Path>, contents: &[u8]) -> std::io::Result<()> {
    let path = path.as_ref();
    let mut tmp = path.as_os_str().to_os_string();
    tmp.push(format!(".tmp.{}", std::process::id()));
    let tmp = std::path::PathBuf::from(tmp);
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(contents)?;
        f.flush()?;
        f.sync_all()?;
    }
    match std::fs::rename(&tmp, path) {
        Ok(()) => {
            #[cfg(unix)]
            if let Some(parent) = path.parent() {
                let dir = if parent.as_os_str().is_empty() {
                    Path::new(".")
                } else {
                    parent
                };
                if let Ok(d) = std::fs::File::open(dir) {
                    let _ = d.sync_all();
                }
            }
            Ok(())
        }
        Err(e) => {
            // Leave no stray temp file behind on failure.
            let _ = std::fs::remove_file(&tmp);
            Err(e)
        }
    }
}

/// Writes [`export_jsonl`] output to `path` via [`atomic_write`], so an
/// interrupted run never leaves a truncated trace.
///
/// # Errors
///
/// Propagates any I/O error from creating or writing the file.
pub fn write_jsonl(path: impl AsRef<Path>) -> std::io::Result<()> {
    atomic_write(path, export_jsonl().as_bytes())
}

/// One line of a trace file, parsed back from JSONL.
#[derive(Debug, Clone, PartialEq)]
pub enum Record {
    /// A `"type":"span"` line.
    Span(SpanRecord),
    /// A `"type":"event"` line.
    Event(EventRecord),
    /// A `"type":"counter"` line.
    Counter {
        /// Counter name.
        name: String,
        /// Counter total.
        value: u64,
    },
    /// A `"type":"histogram"` line.
    Histogram {
        /// Histogram name.
        name: String,
        /// Summary statistics as exported.
        stats: HistogramStats,
    },
}

impl Record {
    /// The record's name, whatever its kind.
    pub fn name(&self) -> &str {
        match self {
            Record::Span(s) => &s.name,
            Record::Event(e) => &e.name,
            Record::Counter { name, .. } => name,
            Record::Histogram { name, .. } => name,
        }
    }
}

fn json_to_value(v: &JsonValue) -> Option<Value> {
    match v {
        JsonValue::Number(x) if x.fract() == 0.0 && x.abs() < 9.0e15 => {
            if *x >= 0.0 {
                Some(Value::UInt(*x as u64))
            } else {
                Some(Value::Int(*x as i64))
            }
        }
        JsonValue::Number(x) => Some(Value::Float(*x)),
        JsonValue::String(s) => Some(Value::Str(s.clone())),
        JsonValue::Bool(b) => Some(Value::Bool(*b)),
        _ => None,
    }
}

fn json_to_fields(v: Option<&JsonValue>) -> Vec<(String, Value)> {
    let Some(JsonValue::Object(map)) = v else {
        return Vec::new();
    };
    map.iter()
        .filter_map(|(k, v)| json_to_value(v).map(|val| (k.clone(), val)))
        .collect()
}

/// A parsed trace plus forward-compatibility accounting.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ParsedTrace {
    /// All records of known types, in file order.
    pub records: Vec<Record>,
    /// Lines whose `"type"` this build does not know (written by a newer
    /// binary) that were skipped rather than rejected.
    pub skipped_unknown: usize,
}

/// Parses JSONL produced by [`export_jsonl`] back into typed records.
/// Blank lines are skipped. Lines with an unknown `"type"` are skipped
/// for forward compatibility; use [`parse_jsonl_stats`] to learn how many.
///
/// # Errors
///
/// Returns a message naming the first malformed line (1-based).
pub fn parse_jsonl(text: &str) -> Result<Vec<Record>, String> {
    parse_jsonl_stats(text).map(|p| p.records)
}

/// [`parse_jsonl`], also reporting how many unknown-type lines were
/// skipped. A line must still be valid JSON with a string `"type"` to be
/// skippable; anything else is an error.
///
/// # Errors
///
/// Returns a message naming the first malformed line (1-based).
pub fn parse_jsonl_stats(text: &str) -> Result<ParsedTrace, String> {
    let mut parsed = ParsedTrace::default();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v = json::parse(line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
        let kind = v
            .get("type")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| format!("line {}: missing \"type\"", lineno + 1))?;
        if !matches!(kind, "span" | "event" | "counter" | "histogram") {
            parsed.skipped_unknown += 1;
            continue;
        }
        let name = v
            .get("name")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| format!("line {}: missing \"name\"", lineno + 1))?
            .to_string();
        let num = |key: &str| -> Result<f64, String> {
            v.get(key)
                .and_then(JsonValue::as_f64)
                .ok_or_else(|| format!("line {}: missing numeric \"{key}\"", lineno + 1))
        };
        let record = match kind {
            "span" => Record::Span(SpanRecord {
                name,
                parent: v
                    .get("parent")
                    .and_then(JsonValue::as_str)
                    .map(str::to_string),
                start_us: num("start_us")?,
                duration_us: num("duration_us")?,
                fields: json_to_fields(v.get("fields")),
            }),
            "event" => Record::Event(EventRecord {
                name,
                at_us: num("at_us")?,
                fields: json_to_fields(v.get("fields")),
            }),
            "counter" => Record::Counter {
                name,
                value: num("value")? as u64,
            },
            _ => Record::Histogram {
                name,
                stats: HistogramStats {
                    count: num("count")? as u64,
                    min: num("min")?,
                    max: num("max")?,
                    mean: num("mean")?,
                    p50: num("p50")?,
                    p90: num("p90")?,
                    p99: num("p99")?,
                },
            },
        };
        parsed.records.push(record);
    }
    Ok(parsed)
}

/// Renders the current registry as a human-readable summary table: span
/// timings grouped by name, counter totals, and histogram statistics.
pub fn summary() -> String {
    summary_from_snapshot(&snapshot())
}

#[cfg(test)]
mod tests;
