//! Offline aggregation for `pcd report`.
//!
//! A long-lived batch leaves a trail of observability artifacts — JSONL
//! traces from `--trace`, `flight-<job>.jsonl` ring dumps from the
//! flight recorder, the `batch.manifest` checkpoint of a drained or
//! finished batch, and `BENCH_pipeline.json` reports. This module
//! classifies each input file *by content* (filename only breaks ties
//! where the name itself is the evidence — see [`classify_named`]),
//! folds them into one [`Report`], and renders it as text or JSON:
//!
//! - **per-stage latency quantiles** — every span duration across every
//!   trace feeds a [`StreamingHistogram`] keyed by span name, so the
//!   aggregation itself runs in bounded memory no matter how many jobs
//!   the batch ran;
//! - **counter deltas** — counter totals summed across traces, plus
//!   flight-recorder counter deltas;
//! - **critical path** — the slowest span and the chain of slowest
//!   children nested inside it, the first place to look when a batch is
//!   slower than it should be;
//! - **quarantine/fault breakdown** — quarantined jobs by failing stage
//!   (from manifests), injected-fault sites (from `resilience.fault`
//!   events and flight `fault` entries), and flight-dump reasons;
//! - **takeovers** — shards a coordinator re-granted past a silent
//!   worker (from `net.takeover` events);
//! - **drift vs baseline** — bench medians compared against a committed
//!   `BENCH_pipeline.json`, so a report over CI artifacts shows creep at
//!   a glance.
//!
//! Corrupt or unreadable inputs degrade to warnings in the report — an
//! aggregation tool for post-mortems must not die on the evidence.

use std::collections::BTreeMap;

use obs::flight::FlightDump;
use obs::json::JsonValue;
use obs::{Record, StreamingHistogram};
use resilience::Checkpoint;
use serve::KIND_SERVE_MANIFEST;
use supervisor::{decode_manifest, BatchMeta, JobRecord, JobState, KIND_BATCH_MANIFEST};

/// One input file, classified by content.
#[derive(Debug)]
pub enum Artifact {
    /// An obs JSONL trace (`--trace` output).
    Trace {
        /// Parsed records.
        records: Vec<Record>,
        /// Unknown-type lines skipped for forward compatibility.
        skipped_unknown: usize,
    },
    /// A flight-recorder ring dump (CRC-verified).
    Flight(FlightDump),
    /// A batch manifest checkpoint.
    Manifest {
        /// Batch metadata from the manifest header.
        meta: BatchMeta,
        /// Per-job records.
        records: Vec<JobRecord>,
    },
    /// A sealed serve-daemon restart manifest (`serve.manifest`) — the
    /// batch-manifest payload schema under a serve kind tag.
    Serve {
        /// Serve metadata (batch_seed is the serve seed).
        meta: BatchMeta,
        /// Per-request records in admission order.
        records: Vec<JobRecord>,
    },
    /// A `*.quarantined` file — a serve cache entry set aside because
    /// its CRC or schema failed validation. The content
    /// is possibly arbitrary corrupt bytes, so only the size is kept.
    Quarantined {
        /// File size in bytes.
        bytes: u64,
    },
    /// A bench report: benchmark name → median ns, plus any cluster
    /// partition stats the bench recorded under `_clusters`.
    Bench {
        /// Benchmark name → median ns.
        medians: BTreeMap<String, u64>,
        /// Cluster partition stats (e.g. `clusters`, `largest`,
        /// `clifford_depth`) from the report's `_clusters` block.
        clusters: BTreeMap<String, u64>,
    },
}

impl Artifact {
    /// Short kind label for the inputs table.
    pub fn kind(&self) -> &'static str {
        match self {
            Artifact::Trace { .. } => "trace",
            Artifact::Flight(_) => "flight",
            Artifact::Manifest { .. } => "manifest",
            Artifact::Serve { .. } => "serve",
            Artifact::Quarantined { .. } => "quarantined",
            Artifact::Bench { .. } => "bench",
        }
    }
}

/// Classifies `text` by content and parses it into an [`Artifact`].
///
/// Recognition order: checkpoint magic (`pcd-ckpt` header) → flight dump
/// (`flight_header` first record) → bench report (single JSON object with
/// `median_ns` entries) → obs trace (JSONL, the fallback).
///
/// # Errors
///
/// A message describing why the content matched no known artifact shape
/// or failed its own format's validation (e.g. a flight dump with a bad
/// CRC seal).
pub fn classify(text: &str) -> Result<Artifact, String> {
    let first = text.lines().next().unwrap_or("").trim();
    if first.contains("\"magic\"") && first.contains("pcd-ckpt") {
        let mut ck =
            Checkpoint::from_bytes(text.as_bytes()).map_err(|e| format!("checkpoint: {e}"))?;
        return match ck.kind.as_str() {
            KIND_SERVE_MANIFEST => {
                // Serve manifests reuse the batch-manifest payload under
                // their own kind tag; rewrap so the decoder accepts it.
                ck.kind = KIND_BATCH_MANIFEST.to_string();
                let (meta, records) =
                    decode_manifest(&ck).map_err(|e| format!("serve manifest: {e}"))?;
                Ok(Artifact::Serve { meta, records })
            }
            _ => {
                let (meta, records) = decode_manifest(&ck).map_err(|e| format!("manifest: {e}"))?;
                Ok(Artifact::Manifest { meta, records })
            }
        };
    }
    if first.contains("\"flight_header\"") {
        return obs::flight::parse_dump(text)
            .map(Artifact::Flight)
            .map_err(|e| format!("flight dump: {e}"));
    }
    // A bench report is one JSON object spanning the whole file whose
    // entries carry `median_ns` (root keys starting with `_` are
    // metadata, not benchmarks). `_clusters`, when present, holds the
    // Hamiltonian cluster-partition stats the bench recorded.
    if let Ok(JsonValue::Object(fields)) = obs::json::parse(text) {
        let mut bench = BTreeMap::new();
        let mut clusters = BTreeMap::new();
        for (name, entry) in &fields {
            if name == "_clusters" {
                if let JsonValue::Object(stats) = entry {
                    for (key, value) in stats {
                        if let Some(v) = value.as_u64() {
                            clusters.insert(key.clone(), v);
                        }
                    }
                }
                continue;
            }
            if name.starts_with('_') {
                continue;
            }
            if let Some(ns) = entry.get("median_ns").and_then(JsonValue::as_u64) {
                bench.insert(name.clone(), ns);
            }
        }
        if !bench.is_empty() {
            return Ok(Artifact::Bench {
                medians: bench,
                clusters,
            });
        }
    }
    let parsed = obs::parse_jsonl_stats(text).map_err(|e| format!("trace: {e}"))?;
    Ok(Artifact::Trace {
        records: parsed.records,
        skipped_unknown: parsed.skipped_unknown,
    })
}

/// Classifies a file by name first, then content.
///
/// A `*.quarantined` file is recognizable only by suffix: it was set
/// aside precisely *because* its content failed validation (it may not
/// even be UTF-8). Every other name defers to [`classify`] on content
/// alone.
///
/// # Errors
///
/// As [`classify`]; additionally when a non-quarantined input is not
/// UTF-8.
pub fn classify_named(name: &str, bytes: &[u8]) -> Result<Artifact, String> {
    if name.ends_with(".quarantined") {
        return Ok(Artifact::Quarantined {
            bytes: bytes.len() as u64,
        });
    }
    let text = std::str::from_utf8(bytes).map_err(|_| "not UTF-8".to_string())?;
    classify(text)
}

/// One hop of the slowest-span critical path.
#[derive(Debug, Clone, PartialEq)]
pub struct CriticalSpan {
    /// Span name.
    pub name: String,
    /// Duration in microseconds.
    pub duration_us: f64,
    /// Share of the path root's duration, in `[0, 1]`.
    pub fraction: f64,
}

/// Latency quantiles of one span name across all traces.
#[derive(Debug, Clone, PartialEq)]
pub struct StageLatency {
    /// Span name.
    pub name: String,
    /// Occurrences.
    pub count: u64,
    /// p50 / p90 / p99 / max duration in microseconds.
    pub p50_us: f64,
    /// 90th percentile (µs).
    pub p90_us: f64,
    /// 99th percentile (µs).
    pub p99_us: f64,
    /// Slowest occurrence (µs).
    pub max_us: f64,
}

/// A benchmark drifting against the committed baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct DriftLine {
    /// Benchmark name.
    pub name: String,
    /// Median from the report under aggregation (ns).
    pub now_ns: u64,
    /// Median from the baseline (ns).
    pub baseline_ns: u64,
    /// `now / baseline` — above 1.0 is a slowdown.
    pub ratio: f64,
}

/// The aggregated report. Built by [`ReportBuilder`], rendered by
/// [`Report::render`] / [`Report::to_json`].
#[derive(Debug, Default)]
pub struct Report {
    /// `(path, kind)` per successfully classified input.
    pub inputs: Vec<(String, &'static str)>,
    /// `(path, error)` per input that failed to read or classify.
    pub warnings: Vec<(String, String)>,
    /// Per-stage latency quantiles, slowest p99 first.
    pub stages: Vec<StageLatency>,
    /// Counter totals summed across traces.
    pub counters: BTreeMap<String, u64>,
    /// Slowest span and its chain of slowest children.
    pub critical_path: Vec<CriticalSpan>,
    /// Quarantined jobs by failing stage (from manifests).
    pub quarantined_by_stage: BTreeMap<String, u64>,
    /// Injected-fault hits by site (trace events + flight entries).
    pub faults_by_site: BTreeMap<String, u64>,
    /// Flight dumps by dump reason.
    pub flight_by_reason: BTreeMap<String, u64>,
    /// Job totals across manifests: done / quarantined / shed / pending.
    pub jobs: (u64, u64, u64, u64),
    /// Serve request totals across sealed serve manifests: done /
    /// quarantined / shed / pending (kept apart from batch `jobs` — a
    /// daemon's traffic is not a batch's workload).
    pub serve: (u64, u64, u64, u64),
    /// Takeovers from `net.takeover` trace events:
    /// `(shard_id, dead owner, epoch of the new grant)`.
    pub takeovers: Vec<(usize, String, u64)>,
    /// `*.quarantined` files seen: `(count, total bytes)`.
    pub quarantined_files: (u64, u64),
    /// Benchmarks drifting beyond the tolerance, worst first.
    pub drift: Vec<DriftLine>,
    /// Benchmarks compared against the baseline.
    pub bench_compared: usize,
    /// Hamiltonian cluster-partition stats from bench `_clusters` blocks
    /// (e.g. `clusters`, `terms`, `largest`, `clifford_depth`).
    pub clusters: BTreeMap<String, u64>,
    /// Unknown-type trace lines skipped (forward compatibility).
    pub skipped_unknown: usize,
}

/// Streaming accumulator the CLI feeds artifacts into.
#[derive(Debug, Default)]
pub struct ReportBuilder {
    inputs: Vec<(String, &'static str)>,
    warnings: Vec<(String, String)>,
    stage_hist: BTreeMap<String, StreamingHistogram>,
    spans: Vec<obs::SpanRecord>,
    counters: BTreeMap<String, u64>,
    quarantined_by_stage: BTreeMap<String, u64>,
    faults_by_site: BTreeMap<String, u64>,
    flight_by_reason: BTreeMap<String, u64>,
    jobs: (u64, u64, u64, u64),
    serve: (u64, u64, u64, u64),
    takeovers: Vec<(usize, String, u64)>,
    quarantined_files: (u64, u64),
    bench: BTreeMap<String, u64>,
    clusters: BTreeMap<String, u64>,
    skipped_unknown: usize,
}

impl ReportBuilder {
    /// A fresh, empty builder.
    pub fn new() -> Self {
        ReportBuilder::default()
    }

    /// Records an input that failed to read or classify.
    pub fn add_warning(&mut self, path: &str, error: String) {
        self.warnings.push((path.to_string(), error));
    }

    /// Folds one classified artifact into the aggregate.
    pub fn add(&mut self, path: &str, artifact: Artifact) {
        self.inputs.push((path.to_string(), artifact.kind()));
        match artifact {
            Artifact::Trace {
                records,
                skipped_unknown,
            } => {
                self.skipped_unknown += skipped_unknown;
                for record in records {
                    match record {
                        Record::Span(span) => {
                            self.stage_hist
                                .entry(span.name.clone())
                                .or_default()
                                .record(span.duration_us);
                            self.spans.push(span);
                        }
                        Record::Event(event) => match event.name.as_str() {
                            "resilience.fault" => {
                                if let Some(obs::Value::Str(site)) = event.field("site") {
                                    *self.faults_by_site.entry(site.clone()).or_insert(0) += 1;
                                }
                            }
                            "net.takeover" => {
                                let shard = event.field("shard").and_then(obs::Value::as_u64);
                                let epoch = event.field("epoch").and_then(obs::Value::as_u64);
                                if let (Some(shard), Some(obs::Value::Str(from)), Some(epoch)) =
                                    (shard, event.field("from"), epoch)
                                {
                                    self.takeovers.push((shard as usize, from.clone(), epoch));
                                }
                            }
                            _ => {}
                        },
                        Record::Counter { name, value } => {
                            *self.counters.entry(name).or_insert(0) += value;
                        }
                        Record::Histogram { .. } => {}
                    }
                }
            }
            Artifact::Flight(dump) => {
                *self.flight_by_reason.entry(dump.reason).or_insert(0) += 1;
                for entry in &dump.entries {
                    if entry.kind == "fault" {
                        *self.faults_by_site.entry(entry.name.clone()).or_insert(0) += 1;
                    }
                }
            }
            Artifact::Manifest { records, .. } => {
                for record in &records {
                    match &record.state {
                        JobState::Done { .. } => self.jobs.0 += 1,
                        JobState::Quarantined { stage, .. } => {
                            self.jobs.1 += 1;
                            *self.quarantined_by_stage.entry(stage.clone()).or_insert(0) += 1;
                        }
                        JobState::Shed => self.jobs.2 += 1,
                        JobState::Pending { .. } => self.jobs.3 += 1,
                    }
                }
            }
            Artifact::Serve { records, .. } => {
                for record in &records {
                    match &record.state {
                        JobState::Done { .. } => self.serve.0 += 1,
                        JobState::Quarantined { stage, .. } => {
                            self.serve.1 += 1;
                            *self.quarantined_by_stage.entry(stage.clone()).or_insert(0) += 1;
                        }
                        JobState::Shed => self.serve.2 += 1,
                        JobState::Pending { .. } => self.serve.3 += 1,
                    }
                }
            }
            Artifact::Quarantined { bytes } => {
                self.quarantined_files.0 += 1;
                self.quarantined_files.1 += bytes;
            }
            Artifact::Bench { medians, clusters } => {
                // Later reports win on name collisions (newest artifact
                // is usually listed last).
                self.bench.extend(medians);
                self.clusters.extend(clusters);
            }
        }
    }

    /// Finishes the aggregation. `baseline` (benchmark → median ns) and
    /// `drift_tolerance` (relative, e.g. 0.10) drive the drift section;
    /// pass an empty map to skip it.
    pub fn finish(self, baseline: &BTreeMap<String, u64>, drift_tolerance: f64) -> Report {
        let mut stages: Vec<StageLatency> = self
            .stage_hist
            .iter()
            .filter_map(|(name, hist)| {
                let st = hist.stats()?;
                Some(StageLatency {
                    name: name.clone(),
                    count: st.count,
                    p50_us: st.p50,
                    p90_us: st.p90,
                    p99_us: st.p99,
                    max_us: st.max,
                })
            })
            .collect();
        stages.sort_by(|a, b| {
            b.p99_us
                .partial_cmp(&a.p99_us)
                .unwrap_or(std::cmp::Ordering::Equal)
        });

        let critical_path = critical_path(&self.spans);

        let (compared, mut drift) = compare_medians(
            self.bench.iter().map(|(name, &ns)| (name.as_str(), ns)),
            baseline,
            drift_tolerance,
        );
        drift.sort_by(|a, b| {
            b.ratio
                .partial_cmp(&a.ratio)
                .unwrap_or(std::cmp::Ordering::Equal)
        });

        // A takeover can surface in several traces of one run — report
        // each once.
        let mut takeovers = self.takeovers;
        takeovers.sort();
        takeovers.dedup();

        Report {
            inputs: self.inputs,
            warnings: self.warnings,
            stages,
            counters: self.counters,
            critical_path,
            quarantined_by_stage: self.quarantined_by_stage,
            faults_by_site: self.faults_by_site,
            flight_by_reason: self.flight_by_reason,
            jobs: self.jobs,
            serve: self.serve,
            takeovers,
            quarantined_files: self.quarantined_files,
            drift,
            bench_compared: compared,
            clusters: self.clusters,
            skipped_unknown: self.skipped_unknown,
        }
    }
}

/// The slowest span overall, then the slowest child nested inside it (by
/// parent name and time window), and so on until a span has no children.
fn critical_path(spans: &[obs::SpanRecord]) -> Vec<CriticalSpan> {
    let Some(root) = spans.iter().max_by(|a, b| {
        a.duration_us
            .partial_cmp(&b.duration_us)
            .unwrap_or(std::cmp::Ordering::Equal)
    }) else {
        return Vec::new();
    };
    let root_us = root.duration_us.max(f64::MIN_POSITIVE);
    let mut path = vec![CriticalSpan {
        name: root.name.clone(),
        duration_us: root.duration_us,
        fraction: 1.0,
    }];
    let mut current = root;
    // Bounded by the nesting depth; the cap guards against a parent-name
    // cycle in a hand-edited trace.
    for _ in 0..32 {
        let child = spans
            .iter()
            .filter(|s| {
                s.parent.as_deref() == Some(current.name.as_str())
                    && s.start_us >= current.start_us
                    && s.start_us + s.duration_us <= current.start_us + current.duration_us + 1.0
            })
            .max_by(|a, b| {
                a.duration_us
                    .partial_cmp(&b.duration_us)
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
        match child {
            Some(c) => {
                path.push(CriticalSpan {
                    name: c.name.clone(),
                    duration_us: c.duration_us,
                    fraction: c.duration_us / root_us,
                });
                current = c;
            }
            None => break,
        }
    }
    path
}

fn fmt_us(us: f64) -> String {
    if us >= 1e6 {
        format!("{:.2}s", us / 1e6)
    } else if us >= 1e3 {
        format!("{:.1}ms", us / 1e3)
    } else {
        format!("{us:.0}µs")
    }
}

impl Report {
    /// Renders the human-readable report.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "pcd report — {} input(s)", self.inputs.len());
        for (path, kind) in &self.inputs {
            let _ = writeln!(out, "  [{kind:<8}] {path}");
        }
        for (path, error) in &self.warnings {
            let _ = writeln!(out, "  [warning ] {path}: {error}");
        }
        if self.skipped_unknown > 0 {
            let _ = writeln!(
                out,
                "  {} unknown-type trace line(s) skipped (newer writer)",
                self.skipped_unknown
            );
        }

        if self.jobs != (0, 0, 0, 0) {
            let (done, quarantined, shed, pending) = self.jobs;
            let _ = writeln!(
                out,
                "\njobs: {done} done, {quarantined} quarantined, {shed} shed, {pending} pending"
            );
        }
        if self.serve != (0, 0, 0, 0) {
            let (done, quarantined, shed, pending) = self.serve;
            let _ = writeln!(
                out,
                "\nserve requests: {done} done, {quarantined} quarantined, {shed} shed, \
                 {pending} pending"
            );
        }
        if !self.takeovers.is_empty() {
            let _ = writeln!(out, "takeovers:");
            for (shard, from, epoch) in &self.takeovers {
                let _ = writeln!(out, "  shard {shard:<3} from {from} at epoch {epoch}");
            }
        }
        if self.quarantined_files.0 > 0 {
            let _ = writeln!(out, "transport artifacts:");
            let _ = writeln!(
                out,
                "  {} quarantined file(s) ({} bytes) held for forensics",
                self.quarantined_files.0, self.quarantined_files.1
            );
        }
        if !self.quarantined_by_stage.is_empty() {
            let _ = writeln!(out, "quarantined by stage:");
            for (stage, count) in &self.quarantined_by_stage {
                let _ = writeln!(out, "  {stage:<24} {count}");
            }
        }
        if !self.faults_by_site.is_empty() {
            let _ = writeln!(out, "injected faults by site:");
            for (site, count) in &self.faults_by_site {
                let _ = writeln!(out, "  {site:<24} {count}");
            }
        }
        if !self.flight_by_reason.is_empty() {
            let _ = writeln!(out, "flight dumps by reason:");
            for (reason, count) in &self.flight_by_reason {
                let _ = writeln!(out, "  {reason:<24} {count}");
            }
        }

        if !self.stages.is_empty() {
            let _ = writeln!(
                out,
                "\n{:<28} {:>8} {:>10} {:>10} {:>10} {:>10}",
                "stage (span)", "count", "p50", "p90", "p99", "max"
            );
            for s in &self.stages {
                let _ = writeln!(
                    out,
                    "{:<28} {:>8} {:>10} {:>10} {:>10} {:>10}",
                    s.name,
                    s.count,
                    fmt_us(s.p50_us),
                    fmt_us(s.p90_us),
                    fmt_us(s.p99_us),
                    fmt_us(s.max_us)
                );
            }
        }

        if !self.critical_path.is_empty() {
            let _ = writeln!(out, "\ncritical path (slowest span chain):");
            for (depth, hop) in self.critical_path.iter().enumerate() {
                let _ = writeln!(
                    out,
                    "  {:indent$}{} — {} ({:.0}%)",
                    "",
                    hop.name,
                    fmt_us(hop.duration_us),
                    hop.fraction * 100.0,
                    indent = depth * 2
                );
            }
        }

        if !self.counters.is_empty() {
            let _ = writeln!(out, "\ncounters:");
            for (name, value) in &self.counters {
                let _ = writeln!(out, "  {name:<32} {value}");
            }
        }

        if !self.clusters.is_empty() {
            let _ = writeln!(out, "\nhamiltonian cluster partition (bench):");
            for (name, value) in &self.clusters {
                let _ = writeln!(out, "  {name:<32} {value}");
            }
        }

        if self.bench_compared > 0 {
            if self.drift.is_empty() {
                let _ = writeln!(
                    out,
                    "\nbench drift: none across {} benchmark(s) vs baseline",
                    self.bench_compared
                );
            } else {
                let _ = writeln!(
                    out,
                    "\nbench drift ({} of {} benchmark(s) over tolerance):",
                    self.drift.len(),
                    self.bench_compared
                );
                for d in &self.drift {
                    let _ = writeln!(
                        out,
                        "  {:<28} {} ns vs {} ns (+{:.1}%)",
                        d.name,
                        d.now_ns,
                        d.baseline_ns,
                        (d.ratio - 1.0) * 100.0
                    );
                }
            }
        }
        out
    }

    /// The report as a JSON object (for `--out`).
    pub fn to_json(&self) -> JsonValue {
        let mut root = BTreeMap::new();
        root.insert(
            "inputs".to_string(),
            JsonValue::Array(
                self.inputs
                    .iter()
                    .map(|(path, kind)| {
                        let mut o = BTreeMap::new();
                        o.insert("path".to_string(), JsonValue::String(path.clone()));
                        o.insert("kind".to_string(), JsonValue::String(kind.to_string()));
                        JsonValue::Object(o)
                    })
                    .collect(),
            ),
        );
        root.insert(
            "warnings".to_string(),
            JsonValue::Array(
                self.warnings
                    .iter()
                    .map(|(path, error)| JsonValue::String(format!("{path}: {error}")))
                    .collect(),
            ),
        );
        root.insert(
            "skipped_unknown".to_string(),
            JsonValue::Number(self.skipped_unknown as f64),
        );
        let (done, quarantined, shed, pending) = self.jobs;
        let mut jobs = BTreeMap::new();
        jobs.insert("done".to_string(), JsonValue::Number(done as f64));
        jobs.insert(
            "quarantined".to_string(),
            JsonValue::Number(quarantined as f64),
        );
        jobs.insert("shed".to_string(), JsonValue::Number(shed as f64));
        jobs.insert("pending".to_string(), JsonValue::Number(pending as f64));
        root.insert("jobs".to_string(), JsonValue::Object(jobs));
        if self.serve != (0, 0, 0, 0) {
            let (done, quarantined, shed, pending) = self.serve;
            let mut serve = BTreeMap::new();
            serve.insert("done".to_string(), JsonValue::Number(done as f64));
            serve.insert(
                "quarantined".to_string(),
                JsonValue::Number(quarantined as f64),
            );
            serve.insert("shed".to_string(), JsonValue::Number(shed as f64));
            serve.insert("pending".to_string(), JsonValue::Number(pending as f64));
            root.insert("serve".to_string(), JsonValue::Object(serve));
        }
        if !self.takeovers.is_empty() {
            root.insert(
                "takeovers".to_string(),
                JsonValue::Array(
                    self.takeovers
                        .iter()
                        .map(|(shard, from, epoch)| {
                            let mut o = BTreeMap::new();
                            o.insert("shard_id".to_string(), JsonValue::Number(*shard as f64));
                            o.insert("from".to_string(), JsonValue::String(from.clone()));
                            o.insert("epoch".to_string(), JsonValue::Number(*epoch as f64));
                            JsonValue::Object(o)
                        })
                        .collect(),
                ),
            );
        }
        if self.quarantined_files.0 > 0 {
            let mut transport = BTreeMap::new();
            transport.insert(
                "quarantined_files".to_string(),
                JsonValue::Number(self.quarantined_files.0 as f64),
            );
            transport.insert(
                "quarantined_bytes".to_string(),
                JsonValue::Number(self.quarantined_files.1 as f64),
            );
            root.insert("transport".to_string(), JsonValue::Object(transport));
        }
        root.insert(
            "stages".to_string(),
            JsonValue::Array(
                self.stages
                    .iter()
                    .map(|s| {
                        let mut o = BTreeMap::new();
                        o.insert("name".to_string(), JsonValue::String(s.name.clone()));
                        o.insert("count".to_string(), JsonValue::Number(s.count as f64));
                        o.insert("p50_us".to_string(), JsonValue::Number(s.p50_us));
                        o.insert("p90_us".to_string(), JsonValue::Number(s.p90_us));
                        o.insert("p99_us".to_string(), JsonValue::Number(s.p99_us));
                        o.insert("max_us".to_string(), JsonValue::Number(s.max_us));
                        JsonValue::Object(o)
                    })
                    .collect(),
            ),
        );
        root.insert(
            "critical_path".to_string(),
            JsonValue::Array(
                self.critical_path
                    .iter()
                    .map(|hop| {
                        let mut o = BTreeMap::new();
                        o.insert("name".to_string(), JsonValue::String(hop.name.clone()));
                        o.insert(
                            "duration_us".to_string(),
                            JsonValue::Number(hop.duration_us),
                        );
                        o.insert("fraction".to_string(), JsonValue::Number(hop.fraction));
                        JsonValue::Object(o)
                    })
                    .collect(),
            ),
        );
        let count_map = |m: &BTreeMap<String, u64>| {
            JsonValue::Object(
                m.iter()
                    .map(|(k, v)| (k.clone(), JsonValue::Number(*v as f64)))
                    .collect(),
            )
        };
        root.insert("counters".to_string(), count_map(&self.counters));
        root.insert(
            "quarantined_by_stage".to_string(),
            count_map(&self.quarantined_by_stage),
        );
        root.insert(
            "faults_by_site".to_string(),
            count_map(&self.faults_by_site),
        );
        root.insert(
            "flight_by_reason".to_string(),
            count_map(&self.flight_by_reason),
        );
        if !self.clusters.is_empty() {
            root.insert("clusters".to_string(), count_map(&self.clusters));
        }
        root.insert(
            "drift".to_string(),
            JsonValue::Array(
                self.drift
                    .iter()
                    .map(|d| {
                        let mut o = BTreeMap::new();
                        o.insert("name".to_string(), JsonValue::String(d.name.clone()));
                        o.insert("now_ns".to_string(), JsonValue::Number(d.now_ns as f64));
                        o.insert(
                            "baseline_ns".to_string(),
                            JsonValue::Number(d.baseline_ns as f64),
                        );
                        o.insert("ratio".to_string(), JsonValue::Number(d.ratio));
                        JsonValue::Object(o)
                    })
                    .collect(),
            ),
        );
        JsonValue::Object(root)
    }
}

/// Compares benchmark medians against a baseline, in the order given.
/// Returns how many benchmarks the baseline also holds (with a non-zero
/// median) and, of those, every one whose `now / baseline` exceeds
/// `1 + tolerance`. A benchmark missing from the baseline cannot regress.
pub fn compare_medians<'a>(
    now: impl IntoIterator<Item = (&'a str, u64)>,
    baseline: &BTreeMap<String, u64>,
    tolerance: f64,
) -> (usize, Vec<DriftLine>) {
    let mut compared = 0usize;
    let mut slower = Vec::new();
    for (name, now_ns) in now {
        let Some(&baseline_ns) = baseline.get(name).filter(|&&ns| ns > 0) else {
            continue;
        };
        compared += 1;
        let ratio = now_ns as f64 / baseline_ns as f64;
        if ratio > 1.0 + tolerance {
            slower.push(DriftLine {
                name: name.to_string(),
                now_ns,
                baseline_ns,
                ratio,
            });
        }
    }
    (compared, slower)
}

/// Parses a bench report's benchmark → median ns map (root `_`-prefixed
/// keys and entries without `median_ns` are skipped).
///
/// # Errors
///
/// A message when `text` is not a JSON object.
pub fn parse_bench_medians(text: &str) -> Result<BTreeMap<String, u64>, String> {
    let JsonValue::Object(fields) = obs::json::parse(text).map_err(|e| e.to_string())? else {
        return Err("bench report is not a JSON object".to_string());
    };
    Ok(fields
        .iter()
        .filter(|(name, _)| !name.starts_with('_'))
        .filter_map(|(name, entry)| {
            entry
                .get("median_ns")
                .and_then(JsonValue::as_u64)
                .map(|ns| (name.clone(), ns))
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace_fixture() -> String {
        [
            r#"{"type":"span","name":"supervisor.job","start_us":0.0,"duration_us":5000.0}"#,
            r#"{"type":"span","name":"pipeline.vqe","parent":"supervisor.job","start_us":1000.0,"duration_us":3500.0}"#,
            r#"{"type":"span","name":"pipeline.vqe.slice","parent":"pipeline.vqe","start_us":1200.0,"duration_us":2000.0}"#,
            r#"{"type":"event","name":"resilience.fault","at_us":10.0,"fields":{"site":"scf.energy","visit":0}}"#,
            r#"{"type":"counter","name":"resilience.retries","value":3}"#,
            r#"{"type":"wormhole","name":"from-the-future","at_us":1.0}"#,
        ]
        .join("\n")
    }

    #[test]
    fn classifies_and_aggregates_a_trace() {
        let artifact = classify(&trace_fixture()).expect("classifies");
        assert_eq!(artifact.kind(), "trace");
        let mut b = ReportBuilder::new();
        b.add("t.jsonl", artifact);
        let report = b.finish(&BTreeMap::new(), 0.10);
        assert_eq!(report.skipped_unknown, 1);
        assert_eq!(report.counters.get("resilience.retries"), Some(&3));
        assert_eq!(report.faults_by_site.get("scf.energy"), Some(&1));
        let names: Vec<&str> = report
            .critical_path
            .iter()
            .map(|h| h.name.as_str())
            .collect();
        assert_eq!(
            names,
            ["supervisor.job", "pipeline.vqe", "pipeline.vqe.slice"]
        );
        assert!(report.render().contains("critical path"));
    }

    #[test]
    fn classifies_a_bench_report_and_flags_drift() {
        let text = r#"{
            "_meta": {"threads": 4},
            "_clusters": {"clusters": 13, "terms": 64, "largest": 7, "clifford_depth": 21},
            "expectation_serial": {"median_ns": 1500, "threads": 1, "n_qubits": 12},
            "eri_build_parallel": {"median_ns": 500, "threads": 4, "n_qubits": 8}
        }"#;
        let artifact = classify(text).expect("classifies");
        assert_eq!(artifact.kind(), "bench");
        let mut b = ReportBuilder::new();
        b.add("BENCH_pipeline.json", artifact);
        let baseline: BTreeMap<String, u64> = [
            ("expectation_serial".to_string(), 1000),
            ("eri_build_parallel".to_string(), 490),
        ]
        .into_iter()
        .collect();
        let report = b.finish(&baseline, 0.10);
        assert_eq!(report.bench_compared, 2);
        assert_eq!(report.drift.len(), 1);
        assert_eq!(report.drift[0].name, "expectation_serial");
        assert!((report.drift[0].ratio - 1.5).abs() < 1e-9);
        assert_eq!(report.clusters.get("clusters"), Some(&13));
        assert_eq!(report.clusters.get("clifford_depth"), Some(&21));
        let rendered = report.render();
        assert!(rendered.contains("hamiltonian cluster partition"));
        assert!(report.to_json().get("clusters").is_some());
    }

    #[test]
    fn classifies_a_flight_dump_by_content() {
        // The flight ring is thread-local, so this test cannot race the
        // rest of the suite.
        obs::flight::set_job("report-test");
        obs::flight::note_event("unit.test");
        let dir = std::env::temp_dir().join(format!("pcd-report-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("scratch dir");
        let path = obs::flight::dump(&dir, "report-test", "unit").expect("dump");
        let text = std::fs::read_to_string(&path).expect("read dump");
        let artifact = classify(&text).expect("classifies");
        assert_eq!(artifact.kind(), "flight");
        let mut b = ReportBuilder::new();
        b.add(&path.display().to_string(), artifact);
        let report = b.finish(&BTreeMap::new(), 0.10);
        assert_eq!(report.flight_by_reason.get("unit"), Some(&1));
        obs::flight::clear_job();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn takeover_events_render_with_shard_from_and_epoch() {
        let trace = [
            r#"{"type":"event","name":"net.takeover","at_us":5.0,"fields":{"shard":1,"from":"ghost","epoch":2}}"#,
            r#"{"type":"event","name":"net.hello","at_us":1.0,"fields":{"worker":"w0"}}"#,
        ]
        .join("\n");
        let mut b = ReportBuilder::new();
        b.add("coordinator.jsonl", classify(&trace).expect("classifies"));
        let report = b.finish(&BTreeMap::new(), 0.10);
        assert_eq!(report.takeovers, vec![(1, "ghost".to_string(), 2)]);
        let rendered = report.render();
        assert!(
            rendered.contains("takeovers:\n  shard 1   from ghost at epoch 2\n"),
            "{rendered}"
        );
        let json = report.to_json();
        let takeover = json.get("takeovers").expect("takeovers in JSON");
        assert!(matches!(takeover, JsonValue::Array(a) if a.len() == 1));
    }

    #[test]
    fn garbage_input_is_an_error_not_a_panic() {
        assert!(classify("not json at all {{{").is_err());
    }

    #[test]
    fn quarantined_files_classify_by_name_even_when_not_utf8() {
        let artifact = classify_named("shard-1.manifest.quarantined", &[0xFF, 0xFE, 0x00, 0x01])
            .expect("quarantined classifies");
        assert_eq!(artifact.kind(), "quarantined");
        let mut b = ReportBuilder::new();
        b.add("ckpt/shard-1.manifest.quarantined", artifact);
        let cache = classify_named("0011223344556677.cache.quarantined", b"torn frame")
            .expect("cache quarantine classifies");
        b.add("cache/0011223344556677.cache.quarantined", cache);
        let report = b.finish(&BTreeMap::new(), 0.10);
        assert!(
            report.warnings.is_empty(),
            "quarantine is evidence, not a warning"
        );
        assert_eq!(report.quarantined_files, (2, 14));
        assert!(report
            .render()
            .contains("2 quarantined file(s) (14 bytes) held for forensics"));
    }
}
