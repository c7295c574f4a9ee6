//! `serve_repeat`: one closed-loop client against an in-process `pcd
//! serve` daemon. Every pass starts a daemon on an empty cache and sends
//! each spec ten times in a seeded order, so ~10 % of requests are first
//! seen (cache misses that compute and seal an entry) and ~90 % repeat.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::thread::ScopedJoinHandle;
use std::time::{Duration, Instant};

use obs::json::{self, JsonValue};
use serve::{run_serve, ServeConfig, ServeError, ServeSummary};
use supervisor::JobSpec;

use crate::inputs::{self, Rng, SERVE_MOLECULES, SERVE_RATIO};
use crate::measure::{median, timed, OUTSIDE};
use crate::{PassReport, Workload};

/// Directory (relative to the working directory) holding daemon state.
pub const STATE_DIR: &str = ".bench_state";

/// Times each spec is requested per pass.
const REPEATS: usize = 10;

/// Daemon workers. With one client connection at a time, at most one of
/// them computes while the client waits.
pub const DAEMON_WORKERS: usize = 2;

/// A daemon left without traffic exits after this long, so a client that
/// gave up never leaves it running.
const IDLE_EXIT: Duration = Duration::from_secs(5);

/// How long a starting daemon may take to bind its socket.
const START_TIMEOUT: Duration = Duration::from_secs(10);

pub struct ServeRepeat {
    specs: Vec<JobSpec>,
    /// Spec index of each request, in sending order.
    schedule: Vec<usize>,
    /// Request lines, one per schedule slot.
    lines: Vec<String>,
}

/// Orders the requests by the seed and runs one daemon lifetime (bind, a
/// ping and one request per molecule, shutdown) so the first bind and each
/// molecule's first compute are paid before timing.
pub fn setup(seed: u64) -> Result<ServeRepeat, String> {
    let mut specs = Vec::new();
    for molecule in SERVE_MOLECULES {
        for bond in molecule.bond_length_scan() {
            specs.push(JobSpec {
                id: String::new(),
                benchmark: molecule,
                bond: Some(bond),
                ratio: SERVE_RATIO,
            });
        }
    }
    let mut schedule: Vec<usize> = (0..specs.len())
        .flat_map(|i| std::iter::repeat_n(i, REPEATS))
        .collect();
    Rng::new(seed).shuffle(&mut schedule);
    let lines: Vec<String> = schedule
        .iter()
        .enumerate()
        .map(|(k, &i)| {
            JobSpec {
                id: format!("r{k}"),
                ..specs[i].clone()
            }
            .to_json_line()
        })
        .collect();
    // The same warm-up requests for every seed: the first spec of each
    // molecule. Their compute makes up most of the set-up time, so the
    // up to 5 ms `ACCEPT_POLL` wait before each request moves it little.
    let mut warm_lines = vec!["{\"op\":\"ping\"}".to_string()];
    let points = specs.len() / SERVE_MOLECULES.len();
    for (m, spec) in specs.iter().step_by(points).enumerate() {
        let job = JobSpec {
            id: format!("warm-up-{m}"),
            ..spec.clone()
        };
        warm_lines.push(job.to_json_line());
    }
    let mut warm = PassReport::default();
    lifetime(
        &daemon_dir("warm-up"),
        &warm_lines,
        &mut warm,
        OUTSIDE,
        |k, resp| match k {
            0 if resp.contains("pong") => Ok(()),
            0 => Err(format!("unexpected ping response {resp}")),
            _ => parse_done(resp).map(|_| ()),
        },
    )
    .map_err(|e| format!("warm-up daemon: {e}"))?;
    if warm.failed > 0 {
        return Err("warm-up daemon did not answer".to_string());
    }
    Ok(ServeRepeat {
        specs,
        schedule,
        lines,
    })
}

fn daemon_dir(tag: &str) -> PathBuf {
    PathBuf::from(format!("{STATE_DIR}/serve-{}-{tag}", std::process::id()))
}

/// One daemon lifetime on a fresh state directory: start it, send `lines`
/// one connection at a time (checking each response with `check`), and
/// join it once it has served them all. Returns the daemon's summary and
/// the mean size of its sealed cache entries.
fn lifetime(
    dir: &Path,
    lines: &[String],
    report: &mut PassReport,
    pass: u64,
    mut check: impl FnMut(usize, &str) -> Result<(), String>,
) -> Result<(ServeSummary, f64), String> {
    let _ = std::fs::remove_dir_all(dir);
    // Relative paths keep the socket name short, whatever the checkout's
    // absolute path is.
    let config = ServeConfig {
        state_dir: dir.to_path_buf(),
        socket: Some(dir.join("s.sock")),
        workers: DAEMON_WORKERS,
        max_requests: Some(lines.len()),
        idle_exit: Some(IDLE_EXIT),
        ..ServeConfig::default()
    };
    let socket = config.socket_path();
    let summary = std::thread::scope(|scope| {
        let daemon = scope.spawn(|| run_serve(&config));
        let (ready, _) = timed("bench.serve.start", pass, || {
            wait_for_socket(&socket, &daemon)
        });
        match ready {
            Ok(()) => {
                for (k, line) in lines.iter().enumerate() {
                    let (response, secs) =
                        timed("bench.serve.request", pass, || round_trip(&socket, line));
                    report.latencies.push(secs);
                    report.check(
                        format_args!("request {k}"),
                        response.and_then(|r| check(k, &r)),
                    );
                }
            }
            Err(e) => {
                report.audit("daemon start", Err(e));
            }
        }
        let (joined, _) = timed("bench.serve.stop", pass, || daemon.join());
        match joined {
            Ok(result) => result.map_err(|e: ServeError| e.to_string()),
            Err(_) => Err("daemon thread panicked".to_string()),
        }
    });
    let entry_bytes = cache_entry_bytes(&dir.join("cache"));
    let _ = std::fs::remove_dir_all(dir);
    summary.map(|s| (s, entry_bytes))
}

fn wait_for_socket(
    socket: &Path,
    daemon: &ScopedJoinHandle<'_, Result<ServeSummary, ServeError>>,
) -> Result<(), String> {
    let start = Instant::now();
    while !socket.exists() {
        if daemon.is_finished() {
            return Err("daemon exited before binding".to_string());
        }
        if start.elapsed() > START_TIMEOUT {
            return Err("daemon did not bind in time".to_string());
        }
        std::thread::sleep(Duration::from_micros(100));
    }
    Ok(())
}

/// One request on its own connection, as a `pcd serve` client sends it.
fn round_trip(socket: &Path, line: &str) -> Result<String, String> {
    let start = Instant::now();
    let mut stream = loop {
        match UnixStream::connect(socket) {
            Ok(stream) => break stream,
            // The socket file exists a moment before the daemon listens.
            Err(e) if start.elapsed() < START_TIMEOUT => {
                if e.kind() != std::io::ErrorKind::ConnectionRefused {
                    return Err(format!("connect: {e}"));
                }
                std::thread::sleep(Duration::from_micros(100));
            }
            Err(e) => return Err(format!("connect: {e}")),
        }
    };
    stream
        .write_all(format!("{line}\n").as_bytes())
        .map_err(|e| format!("send: {e}"))?;
    let mut response = String::new();
    BufReader::new(&stream)
        .read_line(&mut response)
        .map_err(|e| format!("receive: {e}"))?;
    Ok(response)
}

/// Mean size of the sealed entries in a cache directory (0 when empty).
fn cache_entry_bytes(dir: &Path) -> f64 {
    let sizes: Vec<u64> = std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .filter_map(|entry| {
            let path = entry.ok()?.path();
            (path.extension()? == serve::CACHE_EXT).then_some(())?;
            Some(std::fs::metadata(&path).ok()?.len())
        })
        .collect();
    if sizes.is_empty() {
        0.0
    } else {
        sizes.iter().sum::<u64>() as f64 / sizes.len() as f64
    }
}

/// `(cached, energy_bits)` of a `done` response.
fn parse_done(response: &str) -> Result<(bool, u64), String> {
    let value = json::parse(response.trim()).map_err(|e| format!("bad response: {e:?}"))?;
    let status = value.get("status").and_then(JsonValue::as_str);
    if status != Some("done") {
        return Err(format!("response status {status:?}: {}", response.trim()));
    }
    let cached = value
        .get("cached")
        .and_then(JsonValue::as_bool)
        .ok_or("response has no `cached`")?;
    let bits = value
        .get("energy_bits")
        .and_then(JsonValue::as_str)
        .and_then(|s| u64::from_str_radix(s, 16).ok())
        .ok_or("response has no `energy_bits`")?;
    Ok((cached, bits))
}

impl Workload for ServeRepeat {
    fn pass(&mut self, pass: u64) -> PassReport {
        let mut report = PassReport::default();
        let mut first_bits: Vec<Option<u64>> = vec![None; self.specs.len()];
        let (mut hits, mut misses) = (Vec::new(), Vec::new());
        let mut latency_of = Vec::with_capacity(self.schedule.len());
        let outcome = lifetime(
            &daemon_dir(&pass.to_string()),
            &self.lines,
            &mut report,
            pass,
            |k, response| {
                let spec = &self.specs[self.schedule[k]];
                let (cached, bits) = parse_done(response)?;
                latency_of.push((k, cached));
                match first_bits[self.schedule[k]] {
                    None if !cached => {
                        first_bits[self.schedule[k]] = Some(bits);
                        inputs::check_vqe(
                            spec.benchmark,
                            spec.bond_length(),
                            spec.ratio,
                            f64::from_bits(bits),
                        )
                    }
                    None => Err("first request of a spec was served from cache".to_string()),
                    Some(_) if !cached => Err("repeat request missed the cache".to_string()),
                    Some(first) if first != bits => Err(format!(
                        "cache hit energy bits {bits:016x} differ from the miss's {first:016x}"
                    )),
                    Some(_) => Ok(()),
                }
            },
        );
        for (k, cached) in latency_of {
            let secs = report.latencies[k];
            if cached {
                hits.push(secs);
            } else {
                misses.push(secs);
            }
        }
        match outcome {
            Ok((summary, entry_bytes)) => {
                let expect_hits = self.schedule.len() - self.specs.len();
                let ok = summary.done == self.schedule.len()
                    && summary.cache_hits == expect_hits
                    && summary.shed + summary.quarantined + summary.pending == 0;
                report.audit(
                    "daemon summary",
                    if ok {
                        Ok(())
                    } else {
                        Err(format!("unexpected summary {summary:?}"))
                    },
                );
                let lookups = (summary.cache_hits + summary.cache_misses).max(1);
                report.layers.insert(
                    "serve.hit_ratio",
                    summary.cache_hits as f64 / lookups as f64,
                );
                report
                    .layers
                    .insert("serve.cache_bytes_per_entry", entry_bytes);
            }
            Err(e) => {
                report.audit("daemon", Err(e));
            }
        }
        report.layers.insert("serve.hit_ms", median(&hits) * 1e3);
        report.layers.insert("serve.miss_ms", median(&misses) * 1e3);
        report
    }
}
