//! Timing, statistics, trace harvesting, and host facts.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::Layers;

/// Pass id carried by spans recorded outside any pass (set-up, probes).
pub const OUTSIDE: u64 = u64::MAX;

/// Name of the span around one whole pass.
pub const PASS_SPAN: &str = "bench.pass";

/// Per-layer times summed from the benchmark's spans: (metric, span).
const SPAN_METRICS: [(&str, &str); 9] = [
    ("numeric.exact_ms", "bench.numeric.exact"),
    ("vqe.run_ms", "bench.vqe.run"),
    ("pauli.crosscheck_ms", "bench.pauli.crosscheck"),
    ("chem.build_ms", "bench.chem.build"),
    ("ansatz.compress_ms", "bench.ansatz.compress"),
    ("compiler.mtr_ms", "bench.compiler.mtr"),
    ("compiler.sabre_ms", "bench.compiler.sabre"),
    ("arch.yield_ms", "bench.arch.yield"),
    ("supervisor.run_batch_ms", "bench.supervisor.run_batch"),
];

/// Per-layer counts harvested from the program's own counters:
/// (metric, counter).
const COUNTER_METRICS: [(&str, &str); 7] = [
    ("chem.scf_iterations", "chem.scf.iterations"),
    ("ansatz.pairs_scored", "ansatz.importance.pairs_scored"),
    ("vqe.evaluations", "vqe.objective_evaluations"),
    ("vqe.iterations", "vqe.outer_iterations"),
    ("par.tasks", "par.tasks"),
    ("par.threads", "par.threads"),
    ("supervisor.retries", "supervisor.retries"),
];

/// Runs `f` inside the benchmark span `name`, tagged with `pass`, and
/// returns its result with its wall time in seconds.
pub fn timed<R>(name: &str, pass: u64, f: impl FnOnce() -> R) -> (R, f64) {
    let mut span = obs::span(name);
    span.record("pass", pass);
    let start = Instant::now();
    let out = f();
    let secs = start.elapsed().as_secs_f64();
    drop(span);
    (out, secs)
}

/// Median wall time of `reps` calls of `f`, in seconds.
pub fn median_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64()
        })
        .collect();
    median(&times)
}

/// Median 1-thread and 2-thread wall times of `f`, in seconds. The two
/// budgets alternate so drift in the host's load hits both alike.
pub fn one_vs_two_threads(reps: usize, mut f: impl FnMut()) -> (f64, f64) {
    let mut one = Vec::with_capacity(reps);
    let mut two = Vec::with_capacity(reps);
    for _ in 0..reps {
        one.push(median_secs(1, || par::with_threads(1, &mut f)));
        two.push(median_secs(1, || par::with_threads(2, &mut f)));
    }
    (median(&one), median(&two))
}

/// Median (mean of the middle two for an even count); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `q` ∈ (0, 100]; 0 when empty.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    // The epsilon absorbs rounding: 0.1 · 30 is 3.0000000000000004.
    let rank = ((q / 100.0) * v.len() as f64 - 1e-9).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// What a traced pass left in the `obs` registry.
pub struct PassTrace {
    /// Per-layer values of this pass.
    pub layers: Layers,
    /// Share of the pass span no direct child span covers.
    pub unattributed: f64,
}

/// Reads one traced pass out of a registry snapshot: layer times from the
/// benchmark's spans tagged with `pass`, and counter deltas since
/// `before`.
pub fn harvest(snap: &obs::Snapshot, pass: u64, before: &BTreeMap<String, u64>) -> PassTrace {
    let mut layers = Layers::new();
    let (mut total_us, mut covered_us) = (0.0, 0.0);
    let tagged = snap
        .spans
        .iter()
        .filter(|s| s.field("pass").and_then(obs::Value::as_u64) == Some(pass));
    for span in tagged {
        if span.name == PASS_SPAN {
            total_us += span.duration_us;
            continue;
        }
        if span.parent.as_deref() == Some(PASS_SPAN) {
            covered_us += span.duration_us;
        }
        if let Some((metric, _)) = SPAN_METRICS.iter().find(|(_, name)| *name == span.name) {
            *layers.entry(metric).or_insert(0.0) += span.duration_us / 1e3;
        }
    }
    for (metric, counter) in COUNTER_METRICS {
        let delta = snap.counter(counter) - before.get(counter).copied().unwrap_or(0);
        layers.insert(metric, delta as f64);
    }
    let unattributed = if total_us > 0.0 {
        1.0 - covered_us / total_us
    } else {
        1.0
    };
    PassTrace {
        layers,
        unattributed,
    }
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Size of the last-level cache in bytes, when the OS reports it.
pub fn llc_bytes() -> Option<u64> {
    let dir = std::fs::read_dir("/sys/devices/system/cpu/cpu0/cache").ok()?;
    dir.filter_map(|entry| {
        let path = entry.ok()?.path();
        let level: u32 = std::fs::read_to_string(path.join("level"))
            .ok()?
            .trim()
            .parse()
            .ok()?;
        let size = std::fs::read_to_string(path.join("size")).ok()?;
        let size = size.trim();
        let (digits, scale) = match size.chars().last()? {
            'K' => (&size[..size.len() - 1], 1u64 << 10),
            'M' => (&size[..size.len() - 1], 1 << 20),
            'G' => (&size[..size.len() - 1], 1 << 30),
            _ => (size, 1),
        };
        Some((level, digits.parse::<u64>().ok()? * scale))
    })
    .max()
    .map(|(_, bytes)| bytes)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, m)| m.trim().replace('"', "'"))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The host facts printed with every run, as one JSON object.
pub fn host_meta(workload: &str, seed: u64, busy_threads: usize) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    format!(
        "{{\"workload\":\"{workload}\",\"seed\":{seed},\"nproc\":{nproc},\"par_threads\":{},\
         \"busy_threads\":{busy_threads},\"cpu\":\"{}\",\"llc_bytes\":{},\"os\":\"{}-{}\"}}",
        par::num_threads(),
        cpu_model(),
        llc_bytes().unwrap_or(0),
        std::env::consts::OS,
        std::env::consts::ARCH,
    )
}
