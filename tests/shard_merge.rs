//! Shard-fault-tolerance integration: a coordinated run seals a
//! `batch.manifest` bit-identical to a 1-shard run's, whatever the shard
//! count and whatever an earlier run left in the checkpoint directory; a
//! dead worker's shard is taken over at the next lease epoch while a live
//! one's is never handed out twice; and `pcd report` over the checkpoint
//! directory counts each job once.

use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use net::{read_frame, write_frame, Message, PROTOCOL_VERSION};
use pauli_codesign::chem::Benchmark;
use pauli_codesign::report::{classify_named, ReportBuilder};
use pauli_codesign::supervisor::{
    encode_manifest, run_batch, run_worker, BatchMeta, Coordinator, CoordinatorOptions,
    CoordinatorReport, JobSpec, RemoteError, SupervisorConfig, WorkerOptions,
};

static SCRATCH_SEQ: AtomicUsize = AtomicUsize::new(0);

fn scratch(tag: &str) -> PathBuf {
    let seq = SCRATCH_SEQ.fetch_add(1, Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("pcd-shardmerge-{}-{tag}-{seq}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn jobs(n: usize) -> Vec<JobSpec> {
    (0..n)
        .map(|i| JobSpec {
            id: format!("h2-{i}"),
            benchmark: Benchmark::H2,
            bond: Some(0.62 + 0.05 * i as f64),
            ratio: 1.0,
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Real-pipeline equivalence and takeover over a loopback coordinator.
// ---------------------------------------------------------------------------

fn config(batch_seed: u64, ckpt: Option<PathBuf>) -> SupervisorConfig {
    SupervisorConfig {
        batch_seed,
        ckpt_dir: ckpt,
        ..SupervisorConfig::default()
    }
}

fn reference_bytes(specs: &[JobSpec], batch_seed: u64) -> Vec<u8> {
    let report = run_batch(specs, &config(batch_seed, None)).unwrap();
    let meta = BatchMeta {
        batch_seed,
        jobs: specs.len(),
        pipeline_fault_rate: 0.0,
    };
    encode_manifest(&meta, &report.records).to_bytes()
}

/// Binds a loopback coordinator over `dir` and serves it on a thread.
fn coordinate(
    specs: &[JobSpec],
    batch_seed: u64,
    dir: &Path,
    opts: CoordinatorOptions,
) -> (
    SocketAddr,
    std::thread::JoinHandle<Result<CoordinatorReport, RemoteError>>,
) {
    let coordinator =
        Coordinator::bind(specs, &config(batch_seed, Some(dir.to_path_buf())), opts).unwrap();
    let addr = coordinator.addr();
    (addr, std::thread::spawn(move || coordinator.run()))
}

/// Runs `n` in-process workers against `addr` to completion.
fn run_workers(addr: SocketAddr, n: usize) {
    let workers: Vec<_> = (0..n)
        .map(|i| {
            let opts = WorkerOptions {
                connect: addr,
                worker_id: format!("w{i}"),
                ..WorkerOptions::default()
            };
            std::thread::spawn(move || run_worker(&opts))
        })
        .collect();
    for w in workers {
        let report = w.join().unwrap().unwrap();
        assert!(
            report.partial_sealed.is_none(),
            "worker {} left a partial seal",
            report.worker_id
        );
    }
}

/// A loopback run of `specs` at `shards` shards with two healthy workers.
fn coordinated_run(
    specs: &[JobSpec],
    batch_seed: u64,
    dir: &Path,
    shards: usize,
) -> CoordinatorReport {
    let (addr, coord) = coordinate(
        specs,
        batch_seed,
        dir,
        CoordinatorOptions {
            shards,
            // Far above the test's runtime: healthy workers are never
            // taken over, whatever the host's load.
            lease_ms: 60_000,
            ..CoordinatorOptions::default()
        },
    );
    run_workers(addr, 2);
    coord
        .join()
        .unwrap()
        .unwrap_or_else(|e| panic!("{shards}-shard run failed: {e}"))
}

/// The sealed `batch.manifest` bytes, after checking the coordinator left
/// no per-shard manifest or merge lineage beside it.
fn sealed_manifest(dir: &Path) -> Vec<u8> {
    for entry in std::fs::read_dir(dir).unwrap() {
        let name = entry.unwrap().file_name().to_string_lossy().into_owned();
        assert!(
            name == "batch.manifest" || (!name.ends_with(".manifest") && name != "merge.lineage"),
            "coordinator left {name} in the checkpoint dir"
        );
    }
    std::fs::read(dir.join("batch.manifest")).unwrap()
}

/// One request/response exchange on the wire.
fn call(stream: &mut TcpStream, msg: &Message) -> Message {
    write_frame(stream, &msg.encode()).unwrap();
    Message::decode(&read_frame(stream).unwrap()).unwrap()
}

/// A "ghost" claimant: says hello and asks for a shard, then does nothing
/// else — no heartbeat, no record. Returns the open connection and the
/// coordinator's answer to the claim.
fn ghost_claim(addr: SocketAddr, name: &str) -> (TcpStream, Message) {
    let mut stream = TcpStream::connect(addr).unwrap();
    let hello = Message::Hello {
        worker: name.to_string(),
        version: PROTOCOL_VERSION,
    };
    assert!(matches!(call(&mut stream, &hello), Message::Welcome { .. }));
    let claim = Message::Claim {
        worker: name.to_string(),
    };
    let reply = call(&mut stream, &claim);
    (stream, reply)
}

#[test]
fn two_shard_run_merges_bit_identically_to_one_shard_reference() {
    let specs = jobs(5);
    let reference = reference_bytes(&specs, 11);
    let dir = scratch("twoshards");
    let report = coordinated_run(&specs, 11, &dir, 2);
    assert!(
        report.records.iter().all(|r| r.state.is_terminal()),
        "coordinated run left pending jobs"
    );
    assert_eq!(report.records.len(), specs.len());
    assert!(report.takeovers.is_empty());
    assert_eq!(
        sealed_manifest(&dir),
        reference,
        "sealed manifest differs from the 1-shard reference"
    );
    assert_eq!(report.sealed, reference);

    // A rerun into the same checkpoint dir at another shard count seals
    // the same bytes: nothing a 3-shard run leaves behind can trip a
    // 2-shard run.
    for shards in [3, 2] {
        coordinated_run(&specs, 11, &dir, shards);
        assert_eq!(
            sealed_manifest(&dir),
            reference,
            "{shards}-shard rerun differs from the 1-shard reference"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn dead_owner_is_taken_over_at_the_next_epoch_and_merge_matches_reference() {
    let specs = jobs(4);
    let reference = reference_bytes(&specs, 23);
    let dir = scratch("takeover");
    let (addr, coord) = coordinate(
        &specs,
        23,
        &dir,
        CoordinatorOptions {
            shards: 2,
            lease_ms: 250,
            heartbeat_ms: 40,
            ..CoordinatorOptions::default()
        },
    );
    // The ghost is granted shard 0 and dies holding it.
    let (stream, grant) = ghost_claim(addr, "ghost");
    assert!(matches!(
        grant,
        Message::Grant {
            shard_id: 0,
            epoch: 0,
            ..
        }
    ));
    drop(stream);

    // A healthy worker runs shard 1, then takes shard 0 over once the
    // ghost's lease runs out.
    run_workers(addr, 1);
    let report = coord.join().unwrap().unwrap();
    assert!(report.rescued.is_empty(), "the takeover, not a rescue, ran");
    assert_eq!(report.takeovers.len(), 1, "takeover not recorded");
    assert_eq!(report.takeovers[0].shard_id, 0);
    assert_eq!(report.takeovers[0].from, "ghost");
    assert_eq!(report.takeovers[0].epoch, 1, "monotonic epoch bump");

    assert!(
        report.records.iter().all(|r| r.state.is_terminal()),
        "post-takeover run left pending jobs"
    );
    assert_eq!(report.sealed, reference);
    assert_eq!(
        sealed_manifest(&dir),
        reference,
        "post-takeover seal differs from the 1-shard reference"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn live_owner_blocks_a_second_claimant() {
    let specs = jobs(2);
    let reference = reference_bytes(&specs, 5);
    let dir = scratch("held");
    let (addr, coord) = coordinate(
        &specs,
        5,
        &dir,
        CoordinatorOptions {
            shards: 1,
            // The owner's lease outlives the test: it stays live.
            lease_ms: 60_000,
            heartbeat_ms: 10,
            // Ends the run: the coordinator finishes the held shard itself.
            deadline: Duration::from_secs(2),
            ..CoordinatorOptions::default()
        },
    );
    let (owner, grant) = ghost_claim(addr, "owner");
    assert!(matches!(
        grant,
        Message::Grant {
            shard_id: 0,
            epoch: 0,
            ..
        }
    ));
    let (mut second, mut reply) = ghost_claim(addr, "second");
    for attempt in 0..5 {
        assert!(
            matches!(reply, Message::Wait { .. }),
            "claim {attempt} against a live owner got {reply:?}"
        );
        let claim = Message::Claim {
            worker: "second".to_string(),
        };
        reply = call(&mut second, &claim);
    }
    drop((owner, second));

    let report = coord.join().unwrap().unwrap();
    assert!(
        report.takeovers.is_empty(),
        "a live owner's shard was handed over: {:?}",
        report.takeovers
    );
    assert_eq!(report.sealed, reference);
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Report pipeline: a coordinated checkpoint dir reports each job once.
// ---------------------------------------------------------------------------

#[test]
fn report_counts_each_job_of_a_coordinated_run_once() {
    let specs = jobs(4);
    let dir = scratch("report");
    coordinated_run(&specs, 13, &dir, 2);

    let mut builder = ReportBuilder::new();
    for entry in std::fs::read_dir(&dir).unwrap() {
        let path = entry.unwrap().path();
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let artifact = classify_named(&name, &std::fs::read(&path).unwrap()).unwrap();
        builder.add(&name, artifact);
    }
    let report = builder.finish(&Default::default(), 0.25);
    assert_eq!(
        report.jobs,
        (4, 0, 0, 0),
        "jobs (done, quarantined, shed, pending) over {:?}",
        report.inputs
    );
    let _ = std::fs::remove_dir_all(&dir);
}
