//! Zero-downtime restart, end to end through a real SIGTERM: a serve
//! daemon killed mid-batch must seal its restart state, and a restarted
//! daemon must finish the pending tail with records bit-identical to an
//! uninterrupted computation — the serve mirror of
//! `batch_drain_resume.rs`.
//!
//! The SIGTERM drain flag is process-global, so the tests here serialize
//! on a mutex instead of racing each other's daemons.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use pauli_codesign::chem::Benchmark;
use pauli_codesign::resilience::Checkpoint;
use pauli_codesign::serve::{
    compute_record, run_serve, sys, ServeConfig, ServeError, KIND_SERVE_MANIFEST,
};
use pauli_codesign::supervisor::{
    decode_manifest, JobRecord, JobSpec, JobState, KIND_BATCH_MANIFEST,
};

static SIGNAL_LOCK: Mutex<()> = Mutex::new(());

/// A scratch directory for one test's serve state, removed on drop.
struct ScratchDir(std::path::PathBuf);

impl ScratchDir {
    fn new(name: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("pcd-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        ScratchDir(dir)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn specs(n: usize) -> Vec<JobSpec> {
    (0..n)
        .map(|i| JobSpec {
            id: format!("s-{i}"),
            benchmark: Benchmark::H2,
            bond: Some(0.66 + 0.04 * i as f64),
            ratio: 1.0,
        })
        .collect()
}

fn config(state_dir: &std::path::Path) -> ServeConfig {
    ServeConfig {
        state_dir: state_dir.to_path_buf(),
        workers: 1,
        seed: 99,
        ..ServeConfig::default()
    }
}

fn wait_for_socket(path: &std::path::Path) {
    let start = Instant::now();
    while !path.exists() {
        assert!(
            start.elapsed() < Duration::from_secs(30),
            "daemon never bound {}",
            path.display()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Reads the sealed serve manifest, rewrapping its kind tag so the
/// batch-manifest decoder accepts it — exactly what the daemon does on
/// restart.
fn read_manifest(state_dir: &std::path::Path) -> Vec<JobRecord> {
    let mut ck = Checkpoint::read(state_dir.join("serve.manifest")).expect("manifest reads");
    assert_eq!(ck.kind, KIND_SERVE_MANIFEST);
    ck.kind = KIND_BATCH_MANIFEST.to_string();
    let (_, records) = decode_manifest(&ck).expect("manifest decodes");
    records
}

#[test]
fn sigterm_mid_batch_restarts_bit_identically() {
    let _guard = SIGNAL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let jobs = specs(5);
    let scratch = ScratchDir::new("serve-sigterm");
    let cfg = config(&scratch.0);

    // The uninterrupted reference: what every request must compute to,
    // no matter how many SIGTERMs land in between.
    let reference: BTreeMap<String, u64> = jobs
        .iter()
        .map(|spec| {
            let record = compute_record(spec, 0, &cfg, None);
            let JobState::Done { energy_bits, .. } = record.state else {
                panic!("reference job {} did not converge", spec.id);
            };
            (spec.id.clone(), energy_bits)
        })
        .collect();

    // Lifetime 1: submit the batch, then SIGTERM the daemon mid-flight.
    // Streams stay open so undelivered requests journal as pending
    // rather than cancelling. The signal races the workers, so retry
    // (from a clean state dir) until it genuinely interrupts something —
    // a drain that lands after the last job proves nothing about resume.
    let mut first = None;
    for _attempt in 0..20 {
        let _ = std::fs::remove_dir_all(&scratch.0);
        std::fs::create_dir_all(&scratch.0).expect("recreate scratch dir");
        let summary = std::thread::scope(|scope| {
            let daemon = scope.spawn(|| run_serve(&cfg));
            wait_for_socket(&cfg.socket_path());
            let mut streams = Vec::new();
            for spec in &jobs {
                let mut stream = UnixStream::connect(cfg.socket_path()).expect("connect");
                writeln!(stream, "{}", spec.to_json_line()).expect("send request");
                streams.push(stream);
            }
            assert!(sys::send_sigterm(std::process::id()), "sigterm to self");
            let summary = daemon.join().expect("daemon joins").expect("daemon runs");
            drop(streams);
            summary
        });
        assert!(summary.drained, "SIGTERM must drain the daemon");
        if summary.pending > 0 {
            first = Some(summary);
            break;
        }
    }
    let first = first.expect("20 SIGTERMs never landed mid-batch");
    assert_eq!(
        first.accepted,
        first.done + first.pending,
        "every accepted request is done or journaled pending"
    );

    // The sealed manifest is the restart contract: every submitted id,
    // each either Done (bit-identical already) or Pending.
    let sealed = read_manifest(&scratch.0);
    assert_eq!(sealed.len(), first.accepted);
    for record in &sealed {
        match &record.state {
            JobState::Done { energy_bits, .. } => {
                assert_eq!(Some(energy_bits), reference.get(&record.id));
            }
            JobState::Pending { .. } => {}
            other => panic!("sealed record {} in unexpected state {other:?}", record.id),
        }
    }

    // Lifetime 2: restart on the same state dir with no new traffic; the
    // daemon must replay the manifest and recompute the pending tail.
    let restart_cfg = ServeConfig {
        max_requests: Some(0),
        ..cfg.clone()
    };
    let second = run_serve(&restart_cfg).expect("restart runs");
    assert!(!second.drained, "restart finished, not drained");
    assert_eq!(second.resumed, first.pending, "pending tail resumed");
    assert_eq!(second.pending, 0, "nothing left pending after restart");

    // Final manifest: every record Done and bit-identical to the
    // uninterrupted reference — the restart was invisible.
    let final_records = read_manifest(&scratch.0);
    assert_eq!(final_records.len(), jobs.len());
    for record in &final_records {
        let JobState::Done { energy_bits, .. } = &record.state else {
            panic!(
                "record {} not done after restart: {:?}",
                record.id, record.state
            );
        };
        assert_eq!(
            Some(energy_bits),
            reference.get(&record.id),
            "record {} diverged across the restart",
            record.id
        );
    }
}

#[test]
fn restart_with_a_different_seed_is_refused() {
    let _guard = SIGNAL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let scratch = ScratchDir::new("serve-seed-mismatch");
    let cfg = ServeConfig {
        max_requests: Some(0),
        ..config(&scratch.0)
    };
    // An idle lifetime still seals a manifest carrying the serve seed.
    run_serve(&cfg).expect("first lifetime runs");

    // A restart under a different seed would silently recompute every
    // cached answer under new bits; the daemon must refuse instead.
    let wrong_seed = ServeConfig { seed: 100, ..cfg };
    match run_serve(&wrong_seed) {
        Err(ServeError::ManifestMismatch(_)) => {}
        other => panic!("expected a manifest mismatch, got {other:?}"),
    }
}

#[test]
fn corrupt_sealed_state_is_quarantined_and_the_daemon_comes_up() {
    let _guard = SIGNAL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let scratch = ScratchDir::new("serve-corrupt-seal");
    let cfg = ServeConfig {
        max_requests: Some(1),
        ..config(&scratch.0)
    };
    let spec = &specs(1)[0];

    // Lifetime 1: one request to completion, then the seal.
    let summary = std::thread::scope(|scope| {
        let daemon = scope.spawn(|| run_serve(&cfg));
        wait_for_socket(&cfg.socket_path());
        let mut stream = UnixStream::connect(cfg.socket_path()).expect("connect");
        writeln!(stream, "{}", spec.to_json_line()).expect("send request");
        let mut response = String::new();
        BufReader::new(stream)
            .read_line(&mut response)
            .expect("read response");
        assert!(response.contains("\"status\":\"done\""), "got {response}");
        daemon.join().expect("daemon joins").expect("daemon runs")
    });
    assert_eq!(summary.done, 1);
    assert!(scratch.0.join("serve.manifest").exists());
    assert!(!scratch.0.join("serve.jobs").exists(), "one sealed file");

    // Damage the sealed spec: wherever the restart state records the
    // molecule, name one that does not exist.
    let mut corrupted = 0;
    for entry in std::fs::read_dir(&scratch.0).expect("list state dir") {
        let path = entry.expect("dir entry").path();
        let Ok(text) = std::fs::read_to_string(&path) else {
            continue;
        };
        if text.contains("\"molecule\":\"H2\"") {
            let damaged = text.replace("\"molecule\":\"H2\"", "\"molecule\":\"Q2\"");
            std::fs::write(&path, damaged).expect("corrupt sealed state");
            corrupted += 1;
        }
    }
    assert!(corrupted > 0, "the sealed state records the spec");

    // Lifetime 2: the damaged seal is quarantined aside, the daemon comes
    // up fresh and seals an empty journal.
    let restarted = run_serve(&ServeConfig {
        max_requests: Some(0),
        ..cfg.clone()
    })
    .expect("daemon comes up over a corrupt seal");
    assert_eq!(restarted.resumed, 0);
    assert!(scratch.0.join("serve.manifest.quarantined").exists());
    assert!(read_manifest(&scratch.0).is_empty());
}
