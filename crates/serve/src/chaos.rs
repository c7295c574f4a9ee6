//! The serve chaos campaign behind `pcd chaos --campaign serve`.
//!
//! Two layers, both seeded and replayable:
//!
//! - **In-process trials** run a real daemon on a scratch socket and
//!   throw a seeded storm at it: normal requests, clients that vanish
//!   after sending, and cache entries corrupted on disk between
//!   requests — all under the configured fault rate, so the `Accept`
//!   and `CacheWrite` injection sites fire too. Every `done` response is
//!   compared bit-for-bit against an in-process reference computed
//!   through the same content-keyed engine path.
//! - **A subprocess phase** (when the `pcd` binary path is provided)
//!   exercises what only a real process can: a burst of requests, then
//!   SIGTERM mid-compute — the daemon must exit 30 with a sealed
//!   manifest — then a restart that resumes the pending tail, serves
//!   repeats from the cache (no SCF, no VQE in the response trace),
//!   survives an on-disk cache corruption, and finally drains; the
//!   sealed manifest's records must match the reference bit-for-bit,
//!   which is the zero-downtime-restart contract.
//!
//! The campaign never panics on a misbehaving daemon: every broken
//! promise is a violation of the in-process trial or the `subprocess`
//! phase that observed it, and a [`CampaignReport`] without violations
//! is the pass criterion.

use std::collections::{HashMap, HashSet};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use chem::Benchmark;
use obs::json::{self, JsonValue};
use resilience::{splitmix64, trial_seed, CampaignReport, Checkpoint, Trial};
use supervisor::{decode_manifest, JobRecord, JobSpec, JobState, KIND_BATCH_MANIFEST};

use crate::cache::{cache_key, CACHE_EXT};
use crate::daemon::{compute_record, run_serve, ServeConfig, KIND_SERVE_MANIFEST};
use crate::sys;

/// Bond lengths the storm draws from. Four distinct computations, so
/// any storm longer than four requests is guaranteed repeat traffic.
const BONDS: [f64; 4] = [0.70, 0.74, 0.78, 0.82];

/// How long to wait for a daemon's socket file to appear.
const SOCKET_WAIT: Duration = Duration::from_secs(30);

/// How long a client waits to connect once the socket exists.
const CONNECT_WAIT: Duration = Duration::from_secs(10);

/// How long a client waits for its response line. A daemon that blows
/// this budget counts as wedged — the violation the campaign exists to
/// catch.
const RESPONSE_WAIT: Duration = Duration::from_secs(60);

/// How long to wait for a subprocess daemon to exit after SIGTERM.
const EXIT_WAIT: Duration = Duration::from_secs(30);

/// Serve chaos campaign configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeChaosOptions {
    /// Campaign seed; in-process trial `t` serves under
    /// [`trial_seed`]`(seed, t)`.
    pub seed: u64,
    /// In-process storm trials.
    pub trials: usize,
    /// Requests per in-process trial.
    pub requests: usize,
    /// Daemon worker threads for in-process trials.
    pub workers: usize,
    /// Fault rate for in-process trials (pipeline + serve sites).
    pub fault_rate: f64,
    /// Scratch directory for daemon state dirs.
    pub scratch_dir: PathBuf,
    /// Flight-recorder dump directory for the daemons under test.
    pub flight_dir: Option<PathBuf>,
    /// Path to the `pcd` binary. When set, the SIGTERM/restart
    /// subprocess phase runs too; `pcd chaos --campaign serve` passes
    /// its own path here.
    pub pcd_exe: Option<PathBuf>,
}

/// Runs the campaign. In-process trials always run; the subprocess
/// SIGTERM/restart phase runs when
/// [`pcd_exe`](ServeChaosOptions::pcd_exe) is set.
pub fn run_serve_chaos(options: &ServeChaosOptions) -> CampaignReport {
    let mut report = CampaignReport::new(
        "serve",
        format!(
            "{} in-process trial(s) × {} requests{}, fault rate {:.0}%, seed {}",
            options.trials,
            options.requests,
            if options.pcd_exe.is_some() {
                " + subprocess SIGTERM/restart phase"
            } else {
                ""
            },
            options.fault_rate * 100.0,
            options.seed
        ),
    );
    for t in 0..options.trials {
        let mut trial = Trial::new(t, trial_seed(options.seed, t));
        run_trial_in_process(options, &mut trial);
        report.trials.push(trial);
    }
    if let Some(exe) = options.pcd_exe.clone() {
        let mut phase = Trial::phase(
            options.trials,
            "subprocess",
            splitmix64(options.seed ^ 0x5AB5),
        );
        run_subprocess_phase(options, &exe, &mut phase);
        report.trials.push(phase);
    }
    report
}

fn h2_spec(id: String, bond: f64) -> JobSpec {
    JobSpec {
        id,
        benchmark: Benchmark::H2,
        bond: Some(bond),
        ratio: 1.0,
    }
}

fn next(rng: &mut u64) -> u64 {
    *rng = splitmix64(*rng);
    *rng
}

/// Reference outcomes per bond: `Some(energy_bits)` for a converged
/// reference, `None` when the reference itself quarantines under the
/// configured fault rate (the daemon must then quarantine too).
fn reference_outcomes(config: &ServeConfig) -> HashMap<u64, Option<u64>> {
    let mut reference = HashMap::new();
    for (i, bond) in BONDS.iter().enumerate() {
        let spec = h2_spec(format!("ref{i}"), *bond);
        let record = compute_record(&spec, 0, config, None);
        let outcome = match record.state {
            JobState::Done { energy_bits, .. } => Some(energy_bits),
            _ => None,
        };
        reference.insert(bond.to_bits(), outcome);
    }
    reference
}

fn run_trial_in_process(options: &ServeChaosOptions, trial: &mut Trial) {
    let t = trial.trial;
    let state_dir = options.scratch_dir.join(format!("trial{t}"));
    let _ = std::fs::remove_dir_all(&state_dir);
    let config = ServeConfig {
        state_dir: state_dir.clone(),
        workers: options.workers.max(1),
        seed: trial.plan_seed,
        fault_rate: options.fault_rate,
        flight_dir: options.flight_dir.clone(),
        ..ServeConfig::default()
    };
    let reference = reference_outcomes(&config);
    let socket = config.socket_path();
    let daemon = std::thread::spawn({
        let config = config.clone();
        move || run_serve(&config)
    });
    if !wait_for_path(&socket, SOCKET_WAIT) {
        trial.violate("socket never appeared");
    }
    let mut rng = splitmix64(trial.plan_seed ^ 0x000C_4A05);
    for i in 0..options.requests {
        let bond = BONDS[(next(&mut rng) % BONDS.len() as u64) as usize];
        let spec = h2_spec(format!("t{t}-r{i}"), bond);
        trial.add("requests sent", 1);
        match next(&mut rng) % 5 {
            0 => {
                // The client vanishes right after sending: the daemon
                // must cancel or absorb it, never wedge.
                if let Some(mut stream) = connect_socket(&socket, CONNECT_WAIT) {
                    let _ = writeln!(stream, "{}", spec.to_json_line());
                }
                continue;
            }
            1 => {
                // Corrupt this request's sealed cache entry (if any)
                // before asking again: the daemon must quarantine it and
                // recompute the same bits.
                let key = cache_key(&spec, config.seed, config.fault_rate);
                let entry = state_dir
                    .join("cache")
                    .join(format!("{key:016x}.{CACHE_EXT}"));
                if corrupt_file(&entry, next(&mut rng)) {
                    trial.add("corruptions injected", 1);
                }
            }
            _ => {}
        }
        match roundtrip(&socket, &spec.to_json_line()) {
            None => trial.violate(format!(
                "request {i}: no response within {RESPONSE_WAIT:?} (wedged?)"
            )),
            Some(line) => {
                check_response(&format!("request {i}"), &line, bond, &reference, trial);
            }
        }
    }
    if !request_drain(&socket, 50) {
        trial.violate("drain op never acknowledged");
    }
    match daemon.join() {
        Ok(Ok(summary)) => {
            if !summary.drained {
                trial.violate("daemon exited without draining");
            }
            trial.add("cache hits", summary.cache_hits);
            trial.add("cache misses", summary.cache_misses);
        }
        Ok(Err(e)) => trial.violate(format!("daemon error: {e}")),
        Err(_) => trial.violate("daemon thread panicked"),
    }
    // The sealed manifest must decode under the serve kind.
    match read_sealed(&config) {
        Ok((seed, _)) if seed != config.seed => {
            trial.violate(format!("sealed seed {seed} != {}", config.seed));
        }
        Ok(_) => {}
        Err(e) => trial.violate(e),
    }
}

/// Reads and decodes the daemon's sealed manifest: its batch seed and
/// records.
fn read_sealed(config: &ServeConfig) -> Result<(u64, Vec<JobRecord>), String> {
    let mut ck = Checkpoint::read(config.manifest_path())
        .map_err(|e| format!("sealed manifest unreadable: {e}"))?;
    if ck.kind != KIND_SERVE_MANIFEST {
        return Err(format!(
            "manifest kind `{}`, expected `{KIND_SERVE_MANIFEST}`",
            ck.kind
        ));
    }
    ck.kind = KIND_BATCH_MANIFEST.to_string();
    let (meta, records) =
        decode_manifest(&ck).map_err(|e| format!("sealed manifest undecodable: {e}"))?;
    Ok((meta.batch_seed, records))
}

/// Checks one response against the reference outcome for `bond` and
/// tallies it. Returns whether it was a `done` served from the cache.
fn check_response(
    label: &str,
    line: &str,
    bond: f64,
    reference: &HashMap<u64, Option<u64>>,
    trial: &mut Trial,
) -> bool {
    let Ok(v) = json::parse(line.trim()) else {
        trial.violate(format!("{label}: unparseable response {line:?}"));
        return false;
    };
    let mut cached = false;
    match v.get("status").and_then(JsonValue::as_str) {
        Some("done") => {
            trial.add("done responses", 1);
            cached = v
                .get("cached")
                .and_then(JsonValue::as_bool)
                .unwrap_or(false);
            if cached {
                trial.add("cached responses", 1);
                if stages_contain(&v, "scf") || stages_contain(&v, "vqe") {
                    trial.violate(format!("{label}: cache hit ran pipeline stages"));
                }
            }
            let bits = v
                .get("energy_bits")
                .and_then(JsonValue::as_str)
                .and_then(|s| u64::from_str_radix(s, 16).ok());
            match reference.get(&bond.to_bits()) {
                Some(Some(expected)) if bits != Some(*expected) => {
                    trial.violate(format!(
                        "{label}: energy bits {bits:?} diverge from reference {expected:016x}"
                    ));
                }
                Some(None) => trial.violate(format!(
                    "{label}: daemon served done where reference quarantines"
                )),
                _ => {}
            }
        }
        Some("shed") => trial.add("shed responses", 1),
        Some("quarantined") => {
            if matches!(reference.get(&bond.to_bits()), Some(Some(_))) {
                trial.violate(format!(
                    "{label}: daemon quarantined where reference converges"
                ));
            }
        }
        Some("pending") | Some("deadline") => {}
        other => trial.violate(format!("{label}: unexpected response status {other:?}")),
    }
    cached
}

fn stages_contain(v: &JsonValue, stage: &str) -> bool {
    match v.get("stages") {
        Some(JsonValue::Array(stages)) => stages.iter().any(|s| s.as_str() == Some(stage)),
        _ => false,
    }
}

/// Sends `drain` ops until one is acknowledged — an injected accept
/// fault can shed the op itself. False when `attempts` ran out or the
/// daemon stopped answering.
fn request_drain(socket: &Path, attempts: usize) -> bool {
    for _ in 0..attempts {
        match roundtrip(socket, "{\"op\":\"drain\"}") {
            Some(line) if response_status(&line).as_deref() == Some("draining") => return true,
            Some(_) => {}
            None => return false,
        }
    }
    false
}

fn response_status(line: &str) -> Option<String> {
    let v = json::parse(line.trim()).ok()?;
    Some(v.get("status")?.as_str()?.to_string())
}

fn response_field(line: &str, field: &str) -> Option<f64> {
    let v = json::parse(line.trim()).ok()?;
    match v.get(field)? {
        JsonValue::Number(n) => Some(*n),
        _ => None,
    }
}

fn wait_for_path(path: &Path, timeout: Duration) -> bool {
    let deadline = Instant::now() + timeout;
    while !path.exists() {
        if Instant::now() > deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    true
}

fn connect_socket(path: &Path, timeout: Duration) -> Option<UnixStream> {
    let deadline = Instant::now() + timeout;
    loop {
        match UnixStream::connect(path) {
            Ok(stream) => return Some(stream),
            Err(_) if Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => return None,
        }
    }
}

fn roundtrip(socket: &Path, line: &str) -> Option<String> {
    let mut stream = connect_socket(socket, CONNECT_WAIT)?;
    stream.set_read_timeout(Some(RESPONSE_WAIT)).ok()?;
    writeln!(stream, "{line}").ok()?;
    let mut reader = BufReader::new(stream);
    let mut out = String::new();
    match reader.read_line(&mut out) {
        Ok(n) if n > 0 => Some(out),
        _ => None,
    }
}

/// Flips one seeded byte of `path` in place. Returns whether a file was
/// actually corrupted (a missing entry is not).
fn corrupt_file(path: &Path, salt: u64) -> bool {
    let Ok(mut bytes) = std::fs::read(path) else {
        return false;
    };
    if bytes.is_empty() {
        return false;
    }
    let idx = (splitmix64(salt) as usize) % bytes.len();
    bytes[idx] ^= 0x20;
    std::fs::write(path, &bytes).is_ok()
}

// ---------------------------------------------------------------------
// Subprocess phase: SIGTERM, restart, cache-hit and corruption checks
// against a real `pcd serve` process.
// ---------------------------------------------------------------------

/// Spawns `pcd serve` on `config` and waits for its socket; `lifetime`
/// names the attempt in the violation when either step fails.
fn start_serve(exe: &Path, config: &ServeConfig, lifetime: &str) -> Result<Child, String> {
    let mut child = Command::new(exe)
        .arg("serve")
        .arg("--state-dir")
        .arg(&config.state_dir)
        .arg("--seed")
        .arg(config.seed.to_string())
        .arg("--workers")
        .arg(config.workers.to_string())
        .arg("--fault-rate")
        .arg(config.fault_rate.to_string())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("{lifetime}: failed to spawn pcd serve: {e}"))?;
    if !wait_for_path(&config.socket_path(), SOCKET_WAIT) {
        let _ = child.kill();
        let _ = child.wait();
        return Err(format!("{lifetime}: socket never appeared"));
    }
    Ok(child)
}

fn wait_child(child: &mut Child, timeout: Duration) -> Option<i32> {
    let deadline = Instant::now() + timeout;
    loop {
        match child.try_wait() {
            Ok(Some(status)) => return status.code(),
            Ok(None) if Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(10));
            }
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                return None;
            }
        }
    }
}

fn run_subprocess_phase(options: &ServeChaosOptions, exe: &Path, trial: &mut Trial) {
    let state_dir = options.scratch_dir.join("subprocess");
    let _ = std::fs::remove_dir_all(&state_dir);
    // Fault rate 0 here: the in-process trials own fault injection; this
    // phase isolates the kill/restart/cache contracts so an injected
    // accept shed cannot mask a missing cache hit.
    let config = ServeConfig {
        state_dir: state_dir.clone(),
        workers: 1,
        seed: trial.plan_seed,
        fault_rate: 0.0,
        ..ServeConfig::default()
    };
    let reference = reference_outcomes(&config);
    let socket = config.socket_path();
    let mut sent: HashMap<String, f64> = HashMap::new();

    // --- Lifetime 1: burst, then SIGTERM mid-compute. ---
    let mut child = match start_serve(exe, &config, "first start") {
        Ok(child) => child,
        Err(e) => return trial.violate(e),
    };
    // Hold the streams open: a vanished client is *cancelled*, a held
    // one caught by the drain is *pended* — the restart path under test.
    let mut held = Vec::new();
    for (i, bond) in BONDS.iter().enumerate() {
        let spec = h2_spec(format!("s1-{i}"), *bond);
        sent.insert(spec.id.clone(), *bond);
        if let Some(mut stream) = connect_socket(&socket, CONNECT_WAIT) {
            if writeln!(stream, "{}", spec.to_json_line()).is_ok() {
                held.push(stream);
                trial.add("requests sent", 1);
            }
        }
    }
    // Let the accept loop journal the burst, then pull the plug.
    std::thread::sleep(Duration::from_millis(150));
    if !sys::send_sigterm(child.id()) {
        trial.violate("SIGTERM delivery failed");
    }
    match wait_child(&mut child, EXIT_WAIT) {
        Some(30) => {}
        code => trial.violate(format!("SIGTERM exit code {code:?}, expected 30 (drained)")),
    }
    drop(held);
    trial.add("restarts", 1);
    // Journaled requests (by id, via `sent`) are the ones whose repeats
    // must be cache hits after the restart.
    let (pending, sealed) = match read_sealed(&config) {
        Ok((_, records)) => (
            records.iter().filter(|r| !r.state.is_terminal()).count(),
            records
                .iter()
                .filter_map(|r| sent.get(&r.id).map(|bond| bond.to_bits()))
                .collect::<HashSet<u64>>(),
        ),
        Err(e) => {
            trial.violate(e);
            (0, HashSet::new())
        }
    };
    if sealed.is_empty() {
        trial.violate("no requests journaled before SIGTERM");
    }

    // --- Lifetime 2: resume, repeats hit the cache, survive corruption,
    // drain cleanly. ---
    let mut child = match start_serve(exe, &config, "restart") {
        Ok(child) => child,
        Err(e) => return trial.violate(e),
    };
    // Wait until the resumed tail has recomputed (its results seal the
    // cache the repeats below must hit).
    let deadline = Instant::now() + RESPONSE_WAIT;
    loop {
        let resumed = roundtrip(&socket, "{\"op\":\"stats\"}")
            .and_then(|line| response_field(&line, "resumed"))
            .unwrap_or(0.0) as usize;
        if resumed >= pending {
            break;
        }
        if Instant::now() > deadline {
            trial.violate("resumed tail never completed");
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    // Repeats of journaled requests must be O(1) cache hits.
    for (i, bond) in BONDS.iter().enumerate() {
        let spec = h2_spec(format!("s2-{i}"), *bond);
        sent.insert(spec.id.clone(), *bond);
        trial.add("requests sent", 1);
        let Some(line) = roundtrip(&socket, &spec.to_json_line()) else {
            trial.violate(format!("repeat {i}: no response (wedged?)"));
            continue;
        };
        if response_status(&line).as_deref() != Some("done") {
            trial.violate(format!("repeat {i}: not done: {}", line.trim()));
            continue;
        }
        let cached = check_response(&format!("repeat {i}"), &line, *bond, &reference, trial);
        if !cached && sealed.contains(&bond.to_bits()) {
            trial.violate(format!(
                "repeat {i}: journaled request recomputed instead of hitting the cache"
            ));
        }
    }
    // Corrupt a sealed entry on disk; the daemon must quarantine it and
    // recompute the same bits — never serve the corrupt seal.
    let bond = BONDS[0];
    let corrupt_spec = h2_spec("s2-corrupt".to_string(), bond);
    sent.insert(corrupt_spec.id.clone(), bond);
    let key = cache_key(&corrupt_spec, config.seed, config.fault_rate);
    let entry = state_dir
        .join("cache")
        .join(format!("{key:016x}.{CACHE_EXT}"));
    if corrupt_file(&entry, options.seed ^ 0x0B17_F11B) {
        trial.add("corruptions injected", 1);
        trial.add("requests sent", 1);
        match roundtrip(&socket, &corrupt_spec.to_json_line()) {
            None => trial.violate("corruption probe: no response (wedged?)"),
            Some(line) => {
                check_response("corruption probe", &line, bond, &reference, trial);
                let mut quarantined = entry.as_os_str().to_os_string();
                quarantined.push(".quarantined");
                if !PathBuf::from(quarantined).exists() {
                    trial.violate("corruption probe: corrupt entry not quarantined aside");
                }
            }
        }
    }
    // Grab the daemon-side cache stats before draining.
    if let Some(line) = roundtrip(&socket, "{\"op\":\"stats\"}") {
        trial.add(
            "cache hits",
            response_field(&line, "cache_hits").unwrap_or(0.0) as usize,
        );
        trial.add(
            "cache misses",
            response_field(&line, "cache_misses").unwrap_or(0.0) as usize,
        );
    }
    // Final drain via the op, then the sealed record-level replay check.
    if !request_drain(&socket, 10) {
        trial.violate("final drain never acknowledged");
    }
    match wait_child(&mut child, EXIT_WAIT) {
        Some(30) => {}
        code => trial.violate(format!("final drain exit code {code:?}, expected 30")),
    }
    trial.add("restarts", 1);
    // Every sealed Done record — including the resumed tail — must match
    // the in-process reference bit-for-bit: the restart replay contract.
    let records = match read_sealed(&config) {
        Ok((_, records)) => records,
        Err(e) => {
            trial.violate(format!("final {e}"));
            return;
        }
    };
    for record in &records {
        let JobState::Done { energy_bits, .. } = record.state else {
            continue;
        };
        let Some(bond) = sent.get(&record.id) else {
            continue;
        };
        if reference.get(&bond.to_bits()) != Some(&Some(energy_bits)) {
            trial.violate(format!(
                "sealed record `{}` diverges from reference",
                record.id
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_process_campaign_passes_clean() {
        let options = ServeChaosOptions {
            seed: 11,
            trials: 1,
            requests: 6,
            workers: 2,
            fault_rate: 0.0,
            scratch_dir: std::env::temp_dir()
                .join(format!("pcd-serve-chaos-clean-{}", std::process::id())),
            flight_dir: None,
            pcd_exe: None,
        };
        let report = run_serve_chaos(&options);
        assert!(report.survived(), "{report}");
        assert!(
            report.total("done responses") > 0,
            "storm produced no answers"
        );
        let _ = std::fs::remove_dir_all(&options.scratch_dir);
    }

    #[test]
    fn in_process_campaign_survives_fault_injection() {
        let options = ServeChaosOptions {
            seed: 23,
            trials: 1,
            requests: 8,
            workers: 2,
            fault_rate: 0.15,
            scratch_dir: std::env::temp_dir()
                .join(format!("pcd-serve-chaos-faulty-{}", std::process::id())),
            flight_dir: None,
            pcd_exe: None,
        };
        let report = run_serve_chaos(&options);
        assert!(report.survived(), "{report}");
        let _ = std::fs::remove_dir_all(&options.scratch_dir);
    }
}
