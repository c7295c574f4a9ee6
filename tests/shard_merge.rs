//! Shard-fault-tolerance integration: coordinated runs merge
//! bit-identically to 1-shard runs, a dead worker's shard is taken over at
//! the next lease epoch while a live one's is never handed out twice, and
//! the merge is idempotent and commutative over shard counts
//! (property-tested).

use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use net::{read_frame, write_frame, Message, PROTOCOL_VERSION};
use pauli_codesign::chem::Benchmark;
use pauli_codesign::report::{classify as classify_artifact, Artifact, ReportBuilder};
use pauli_codesign::supervisor::{
    encode_manifest, encode_shard_manifest, merge_shards, run_batch, run_worker,
    shard_manifest_path, BatchMeta, Coordinator, CoordinatorOptions, CoordinatorReport, JobRecord,
    JobSpec, JobState, RemoteError, ShardMeta, SupervisorConfig, WorkerOptions,
};
use proptest::prelude::*;

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
// Property: merge idempotence and commutativity over 1/2/4 shards.
// ---------------------------------------------------------------------------

/// An arbitrary terminal (or pending) job state.
fn state_strategy() -> impl Strategy<Value = JobState> {
    let stage = prop_oneof![Just("scf"), Just("compile"), Just("vqe")];
    prop_oneof![
        (0u32..u32::MAX, 1usize..100, 0usize..5).prop_map(|(e, iters, retries)| JobState::Done {
            energy_bits: (-1.0 - f64::from(e) * 1e-9).to_bits(),
            iterations: iters,
            evaluations: iters * 4,
            scf_retries: retries,
            sabre_fallback: e % 2 == 0,
        }),
        (1usize..4, stage).prop_map(|(attempts, stage)| JobState::Quarantined {
            attempts,
            stage: stage.to_string(),
            error: "injected".to_string(),
        }),
        Just(JobState::Shed),
        (0usize..3, 0usize..8).prop_map(|(attempt, slices)| JobState::Pending {
            attempt,
            slices_used: slices,
            checkpoint: None,
            breaker: [0, 0, 0],
        }),
    ]
}

fn write_partition(dir: &Path, specs: &[JobSpec], states: &[JobState], shards: usize) {
    let batch = BatchMeta {
        batch_seed: 7,
        jobs: specs.len(),
        pipeline_fault_rate: 0.125,
    };
    for shard_id in 0..shards {
        let records: Vec<JobRecord> = (0..specs.len())
            .filter(|i| i % shards == shard_id)
            .map(|i| JobRecord {
                index: i,
                id: specs[i].id.clone(),
                state: states[i].clone(),
                retries: i % 3,
                backoff_ms: 0,
            })
            .collect();
        let meta = ShardMeta {
            batch,
            shards,
            shard_id,
            owner: format!("pid:{}/{:08x}", 1000 + shard_id, shard_id),
            epoch: 0,
            taken_over_from: None,
        };
        encode_shard_manifest(&meta, &records)
            .write(shard_manifest_path(dir, shard_id))
            .unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The same record set partitioned as 1, 2, and 4 shards seals the
    /// byte-identical batch.manifest, and re-merging is a no-op — the
    /// merge is a pure function of the record set, not of the partition
    /// or the number of merge passes.
    #[test]
    fn merge_is_idempotent_and_commutative_over_shard_counts(
        states in prop::collection::vec(state_strategy(), 1..12),
    ) {
        let specs = jobs(states.len());
        let mut sealed: Vec<Vec<u8>> = Vec::new();
        for shards in [1usize, 2, 4] {
            let dir = scratch("prop");
            write_partition(&dir, &specs, &states, shards);
            let first = merge_shards(&dir, &specs).unwrap();
            let second = merge_shards(&dir, &specs).unwrap();
            prop_assert!(
                first.sealed == second.sealed,
                "merge not idempotent at {} shards", shards
            );
            prop_assert_eq!(first.records.len(), specs.len());
            prop_assert_eq!(first.missing.len(), 0);
            sealed.push(first.sealed);
            let _ = std::fs::remove_dir_all(&dir);
        }
        prop_assert!(sealed[0] == sealed[1], "1-shard vs 2-shard seal differs");
        prop_assert!(sealed[0] == sealed[2], "1-shard vs 4-shard seal differs");
    }
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
    let (addr, coord) = coordinate(
        &specs,
        11,
        &dir,
        CoordinatorOptions {
            shards: 2,
            // Far above the test's runtime: healthy workers are never
            // taken over, whatever the host's load.
            lease_ms: 60_000,
            ..CoordinatorOptions::default()
        },
    );
    run_workers(addr, 2);
    let report = coord.join().unwrap().unwrap();
    assert!(
        report.records.iter().all(|r| r.state.is_terminal()),
        "coordinated run left pending jobs"
    );
    assert!(report.takeovers.is_empty());
    let outcome = merge_shards(&dir, &specs).unwrap();
    assert!(outcome.complete());
    assert_eq!(outcome.takeovers().count(), 0);
    assert_eq!(
        outcome.sealed, reference,
        "merged manifest differs from the 1-shard reference"
    );
    assert_eq!(report.sealed, reference);
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

    let outcome = merge_shards(&dir, &specs).unwrap();
    assert!(outcome.complete());
    let takeovers: Vec<_> = outcome.takeovers().collect();
    assert_eq!(takeovers.len(), 1, "takeover not visible in merged lineage");
    assert_eq!(takeovers[0].shard_id, 0);
    assert_eq!(takeovers[0].epoch, 1);
    assert_eq!(takeovers[0].taken_over_from.as_deref(), Some("ghost"));
    let lineage = std::fs::read_to_string(dir.join("merge.lineage")).unwrap();
    assert!(lineage.contains("ghost"), "merge.lineage:\n{lineage}");
    assert_eq!(
        outcome.sealed, reference,
        "post-takeover merge differs from the 1-shard reference"
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
// Report pipeline: shard manifests and merge lineage classify and render.
// ---------------------------------------------------------------------------

#[test]
fn report_classifies_shard_manifests_and_lineage() {
    let specs = jobs(4);
    let dir = scratch("report");
    let (addr, coord) = coordinate(
        &specs,
        13,
        &dir,
        CoordinatorOptions {
            shards: 2,
            lease_ms: 60_000,
            ..CoordinatorOptions::default()
        },
    );
    run_workers(addr, 2);
    coord.join().unwrap().unwrap();

    let shard_text = std::fs::read_to_string(shard_manifest_path(&dir, 0)).unwrap();
    let artifact = classify_artifact(&shard_text).unwrap();
    assert!(
        matches!(artifact, Artifact::Shard { .. }),
        "shard manifest misclassified"
    );
    let lineage_text = std::fs::read_to_string(dir.join("merge.lineage")).unwrap();
    let lineage = classify_artifact(&lineage_text).unwrap();
    assert!(
        matches!(lineage, Artifact::Lineage(_)),
        "lineage misclassified"
    );

    let mut builder = ReportBuilder::new();
    builder.add("shard-0.manifest", artifact);
    builder.add("merge.lineage", lineage);
    let report = builder.finish(&Default::default(), 0.25);
    assert_eq!(report.shards.len(), 1);
    assert_eq!(report.shards[0].0, 0, "wrong shard id in breakdown");
    let rendered = report.render();
    assert!(
        rendered.contains("shards:"),
        "render misses the shard section:\n{rendered}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
