//! Verified manifest merge: unions per-shard manifests back into the
//! standard sealed `batch.manifest`.
//!
//! The merge is **idempotent and commutative**: the record set is keyed
//! by global job index and the output encoder sorts by it, so merging any
//! permutation of shard manifests — any number of times — seals the
//! byte-identical manifest. Combined with per-job determinism this yields
//! the equivalence guarantee `pcd chaos --campaign net` asserts: a
//! coordinated run (with kills and takeovers) merges to the
//! *bit-identical* manifest of a 1-shard run.
//!
//! Failure handling mirrors the supervisor's philosophy:
//!
//! - a corrupt/torn/foreign shard manifest is **quarantined** (renamed to
//!   `*.quarantined`, reported as a warning) rather than aborting the
//!   merge — the jobs it covered simply come back as missing;
//! - duplicate records (a takeover re-ran jobs the dead shard had already
//!   sealed) are deduplicated iff bit-identical; a *conflicting*
//!   duplicate is a hard [`MergeError::Conflict`] — it means the
//!   determinism contract was violated and no silent choice is safe;
//! - jobs no shard covered become fresh `Pending` records, so the sealed
//!   union is exactly a drained manifest: resumable with `--resume`.
//!
//! Takeover provenance is deliberately kept *out* of the sealed
//! `batch.manifest` (it must stay bit-identical to a 1-shard run's) and
//! lands in `merge.lineage` instead.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use resilience::Checkpoint;

use crate::job::{JobRecord, JobSpec, JobState};
use crate::manifest::{encode_manifest, BatchMeta, KIND_BATCH_MANIFEST};
use crate::shard::{decode_shard_manifest, job_shard, ShardMeta};

/// Checkpoint kind tag for the merge lineage artifact.
pub const KIND_MERGE_LINEAGE: &str = "merge-lineage";

/// Why a merge could not produce a sealed manifest at all.
#[derive(Debug, Clone, PartialEq)]
pub enum MergeError {
    /// Filesystem I/O while scanning, reading, or sealing.
    Io {
        /// Path involved.
        path: String,
        /// Underlying error message.
        message: String,
    },
    /// No readable shard manifest was found in the directory.
    NoShards(String),
    /// Two shard manifests (or a manifest and the jobs file) disagree
    /// about the batch identity — merging them would mix batches.
    MetaMismatch(String),
    /// Two shards sealed *different* records for the same job: the
    /// determinism contract was violated, no silent resolution is safe.
    Conflict {
        /// Global job index in conflict.
        index: usize,
        /// Human-readable description of the disagreement.
        detail: String,
    },
}

impl std::fmt::Display for MergeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MergeError::Io { path, message } => write!(f, "merge I/O on {path}: {message}"),
            MergeError::NoShards(dir) => write!(f, "no shard manifests found in {dir}"),
            MergeError::MetaMismatch(msg) => write!(f, "merge meta mismatch: {msg}"),
            MergeError::Conflict { index, detail } => {
                write!(f, "merge conflict on job {index}: {detail}")
            }
        }
    }
}

impl std::error::Error for MergeError {}

/// One shard manifest's lineage, as recorded in `merge.lineage`.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardLineage {
    /// Shard id.
    pub shard_id: usize,
    /// Owner descriptor that sealed the manifest.
    pub owner: String,
    /// Lease epoch it was sealed under.
    pub epoch: u64,
    /// Dead owner it was taken over from, when the seal was a takeover.
    pub taken_over_from: Option<String>,
    /// Records the manifest carried.
    pub records: usize,
}

/// What a merge produced.
#[derive(Debug, Clone, PartialEq)]
pub struct MergeOutcome {
    /// The batch identity all merged shards agreed on.
    pub meta: BatchMeta,
    /// The full, index-sorted record set (missing jobs as fresh
    /// `Pending`).
    pub records: Vec<JobRecord>,
    /// Per-shard lineage of every manifest merged, by shard id.
    pub shards: Vec<ShardLineage>,
    /// Corrupt/torn/foreign manifests set aside, with reasons.
    pub quarantined: Vec<(PathBuf, String)>,
    /// Bit-identical duplicate records collapsed (takeover re-runs).
    pub duplicates_deduped: usize,
    /// Jobs no shard covered (sealed as fresh `Pending` records).
    pub missing: Vec<usize>,
    /// The sealed `batch.manifest` bytes, exactly as written.
    pub sealed: Vec<u8>,
    /// Where the sealed manifest was written.
    pub sealed_path: PathBuf,
}

impl MergeOutcome {
    /// Whether every job has a terminal record (nothing missing or
    /// pending — the batch is complete).
    pub fn complete(&self) -> bool {
        self.missing.is_empty() && self.records.iter().all(|r| r.state.is_terminal())
    }

    /// Takeovers visible in the merged lineage.
    pub fn takeovers(&self) -> impl Iterator<Item = &ShardLineage> {
        self.shards.iter().filter(|s| s.taken_over_from.is_some())
    }
}

fn io_err(path: &Path, e: impl std::fmt::Display) -> MergeError {
    MergeError::Io {
        path: path.display().to_string(),
        message: e.to_string(),
    }
}

/// The `shard-<digits>.manifest` files under `dir`, sorted by filename.
fn shard_manifest_files(dir: &Path) -> Result<Vec<PathBuf>, MergeError> {
    let entries = std::fs::read_dir(dir).map_err(|e| io_err(dir, e))?;
    let mut files = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| io_err(dir, e))?;
        let path = entry.path();
        if !path.is_file() {
            continue;
        }
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        if let Some(id) = name
            .strip_prefix("shard-")
            .and_then(|rest| rest.strip_suffix(".manifest"))
        {
            if !id.is_empty() && id.bytes().all(|b| b.is_ascii_digit()) {
                files.push(path);
            }
        }
    }
    files.sort();
    Ok(files)
}

/// Sets a bad shard manifest aside as `<name>.quarantined` so a re-merge
/// (and `pcd report`'s directory scan) skips it, preserving the bytes
/// for the postmortem.
fn quarantine(path: &Path, reason: String, out: &mut Vec<(PathBuf, String)>) {
    let mut target = path.as_os_str().to_os_string();
    target.push(".quarantined");
    let target = PathBuf::from(target);
    obs::counter_add("supervisor.merge.quarantined", 1);
    obs::event!(
        "supervisor.merge_quarantine",
        path = path.display().to_string(),
        reason = reason.clone()
    );
    // Rename best-effort: even if it fails the manifest contributed no
    // records, which is what correctness needs.
    let _ = std::fs::rename(path, &target);
    out.push((target, reason));
}

/// Merges every readable `shard-*.manifest` in `dir` into a sealed
/// `batch.manifest`, writing `merge.lineage` beside it. `jobs` is the
/// batch's jobs file: it pins the expected job count and ids, and
/// supplies ids for jobs no shard covered.
///
/// # Errors
///
/// [`MergeError`] — but note corrupt shard manifests are *quarantined*,
/// not errors; only an empty directory, a batch-identity disagreement, a
/// record conflict, or I/O fails the merge.
pub fn merge_shards(dir: &Path, jobs: &[JobSpec]) -> Result<MergeOutcome, MergeError> {
    let files = shard_manifest_files(dir)?;
    let mut quarantined = Vec::new();
    let mut decoded: Vec<(PathBuf, ShardMeta, Vec<JobRecord>)> = Vec::new();
    for path in files {
        let ck = match Checkpoint::read(&path) {
            Ok(ck) => ck,
            Err(e) => {
                quarantine(&path, format!("unreadable: {e}"), &mut quarantined);
                continue;
            }
        };
        match decode_shard_manifest(&ck) {
            Ok((meta, records)) => decoded.push((path, meta, records)),
            Err(e) => quarantine(&path, format!("malformed: {e}"), &mut quarantined),
        }
    }
    if decoded.is_empty() {
        return Err(MergeError::NoShards(dir.display().to_string()));
    }

    // Every surviving manifest must agree on the batch identity and the
    // shard count; disagreement means two different runs share the
    // directory and no union is meaningful.
    let (first_path, first_meta, _) = &decoded[0];
    let expect = first_meta.batch;
    let shards = first_meta.shards;
    if expect.jobs != jobs.len() {
        return Err(MergeError::MetaMismatch(format!(
            "{} declares {} jobs but the jobs file has {}",
            first_path.display(),
            expect.jobs,
            jobs.len()
        )));
    }
    for (path, meta, _) in &decoded[1..] {
        if meta.batch != expect || meta.shards != shards {
            return Err(MergeError::MetaMismatch(format!(
                "{} (seed {}, {} jobs, {} shards) disagrees with {} (seed {}, {} jobs, {} shards)",
                path.display(),
                meta.batch.batch_seed,
                meta.batch.jobs,
                meta.shards,
                first_path.display(),
                expect.batch_seed,
                expect.jobs,
                shards
            )));
        }
    }

    let mut merged: BTreeMap<usize, JobRecord> = BTreeMap::new();
    let mut duplicates_deduped = 0usize;
    let mut lineage: Vec<ShardLineage> = Vec::new();
    for (path, meta, records) in decoded {
        for record in records {
            if record.id != jobs[record.index].id {
                return Err(MergeError::Conflict {
                    index: record.index,
                    detail: format!(
                        "{} records id `{}` but the jobs file says `{}`",
                        path.display(),
                        record.id,
                        jobs[record.index].id
                    ),
                });
            }
            match merged.get(&record.index) {
                None => {
                    merged.insert(record.index, record);
                }
                Some(existing) if *existing == record => duplicates_deduped += 1,
                Some(existing) => {
                    return Err(MergeError::Conflict {
                        index: record.index,
                        detail: format!(
                            "state `{}` (earlier shard) vs `{}` ({})",
                            existing.state.label(),
                            record.state.label(),
                            path.display()
                        ),
                    });
                }
            }
        }
        lineage.push(ShardLineage {
            shard_id: meta.shard_id,
            owner: meta.owner,
            epoch: meta.epoch,
            taken_over_from: meta.taken_over_from,
            records: merged.len(), // running total; refined below
        });
    }
    // Lineage carries each shard's own record count, not the running
    // union size — recompute from the partition.
    for line in &mut lineage {
        line.records = (0..expect.jobs)
            .filter(|&i| job_shard(i, shards) == line.shard_id && merged.contains_key(&i))
            .count();
    }
    lineage.sort_by_key(|l| l.shard_id);

    // Jobs nobody sealed come back as fresh Pending records: the union
    // manifest is then exactly a drained batch manifest — resumable.
    let mut missing = Vec::new();
    for (index, spec) in jobs.iter().enumerate() {
        merged.entry(index).or_insert_with(|| {
            missing.push(index);
            JobRecord {
                index,
                id: spec.id.clone(),
                state: JobState::Pending {
                    attempt: 0,
                    slices_used: 0,
                    checkpoint: None,
                    breaker: [0, 0, 0],
                },
                retries: 0,
                backoff_ms: 0,
            }
        });
    }

    let records: Vec<JobRecord> = merged.into_values().collect();
    let sealed_ck = encode_manifest(&expect, &records);
    debug_assert_eq!(sealed_ck.kind, KIND_BATCH_MANIFEST);
    let sealed = sealed_ck.to_bytes();
    let sealed_path = dir.join("batch.manifest");
    sealed_ck
        .write(&sealed_path)
        .map_err(|e| io_err(&sealed_path, e))?;

    write_lineage(dir, &expect, shards, &lineage, &quarantined, &missing)?;
    obs::counter_add("supervisor.merges", 1);
    obs::event!(
        "supervisor.merge_sealed",
        shards = lineage.len(),
        quarantined = quarantined.len(),
        missing = missing.len(),
        deduped = duplicates_deduped
    );

    Ok(MergeOutcome {
        meta: expect,
        records,
        shards: lineage,
        quarantined,
        duplicates_deduped,
        missing,
        sealed,
        sealed_path,
    })
}

/// Seals `merge.lineage`: one line per shard (owner, epoch, takeover
/// provenance), per quarantined manifest, and per missing job.
fn write_lineage(
    dir: &Path,
    meta: &BatchMeta,
    shards: usize,
    lineage: &[ShardLineage],
    quarantined: &[(PathBuf, String)],
    missing: &[usize],
) -> Result<(), MergeError> {
    use crate::manifest::{num, obj, string};
    let mut payload = vec![obj(vec![
        ("batch_seed", string(&meta.batch_seed.to_string())),
        ("jobs", num(meta.jobs)),
        ("shards", num(shards)),
    ])];
    for line in lineage {
        let mut fields = vec![
            ("kind", string("shard")),
            ("shard_id", num(line.shard_id)),
            ("owner", string(&line.owner)),
            ("epoch", string(&line.epoch.to_string())),
            ("records", num(line.records)),
        ];
        if let Some(from) = &line.taken_over_from {
            fields.push(("taken_over_from", string(from)));
        }
        payload.push(obj(fields));
    }
    for (path, reason) in quarantined {
        payload.push(obj(vec![
            ("kind", string("quarantined")),
            ("path", string(&path.display().to_string())),
            ("reason", string(reason)),
        ]));
    }
    for &index in missing {
        payload.push(obj(vec![
            ("kind", string("missing")),
            ("index", num(index)),
        ]));
    }
    let path = dir.join("merge.lineage");
    Checkpoint::new(KIND_MERGE_LINEAGE, payload)
        .write(&path)
        .map_err(|e| io_err(&path, e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::{encode_shard_manifest, shard_manifest_path, ShardSpec};
    use chem::Benchmark;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("pcd-merge-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn jobs(n: usize) -> Vec<JobSpec> {
        (0..n)
            .map(|i| JobSpec {
                id: format!("j{i}"),
                benchmark: Benchmark::H2,
                bond: Some(0.64 + 0.05 * i as f64),
                ratio: 1.0,
            })
            .collect()
    }

    fn done_record(index: usize, id: &str) -> JobRecord {
        JobRecord {
            index,
            id: id.to_string(),
            state: JobState::Done {
                energy_bits: (-1.0 - index as f64 * 0.01).to_bits(),
                iterations: 5,
                evaluations: 20,
                scf_retries: 0,
                sabre_fallback: false,
            },
            retries: 0,
            backoff_ms: 0,
        }
    }

    fn meta(jobs: usize, shards: usize, shard_id: usize) -> ShardMeta {
        ShardMeta {
            batch: BatchMeta {
                batch_seed: 42,
                jobs,
                pipeline_fault_rate: 0.0,
            },
            shards,
            shard_id,
            owner: format!("pid:10{shard_id}/0000000a"),
            epoch: 0,
            taken_over_from: None,
        }
    }

    fn write_shards(dir: &Path, specs: &[JobSpec], shards: usize) {
        for shard_id in 0..shards {
            let records: Vec<JobRecord> =
                crate::shard::shard_indices(specs.len(), &ShardSpec { shards, shard_id })
                    .into_iter()
                    .map(|i| done_record(i, &specs[i].id))
                    .collect();
            encode_shard_manifest(&meta(specs.len(), shards, shard_id), &records)
                .write(shard_manifest_path(dir, shard_id))
                .unwrap();
        }
    }

    #[test]
    fn merge_unions_shards_into_the_batch_manifest() {
        let dir = scratch("union");
        let specs = jobs(7);
        write_shards(&dir, &specs, 3);
        let outcome = merge_shards(&dir, &specs).unwrap();
        assert!(outcome.complete());
        assert_eq!(outcome.records.len(), 7);
        assert!(outcome.quarantined.is_empty());
        assert!(outcome.missing.is_empty());
        assert_eq!(outcome.shards.len(), 3);
        // The sealed file is exactly what a 1-shard encode yields.
        let reference: Vec<JobRecord> = (0..7).map(|i| done_record(i, &specs[i].id)).collect();
        let expected = encode_manifest(&outcome.meta, &reference).to_bytes();
        assert_eq!(outcome.sealed, expected);
        assert_eq!(std::fs::read(&outcome.sealed_path).unwrap(), expected);
        assert!(dir.join("merge.lineage").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_shard_manifest_is_quarantined_not_fatal() {
        let dir = scratch("quarantine");
        let specs = jobs(6);
        write_shards(&dir, &specs, 2);
        // Tear shard 1's manifest mid-file.
        let path = shard_manifest_path(&dir, 1);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        let outcome = merge_shards(&dir, &specs).unwrap();
        assert_eq!(outcome.quarantined.len(), 1);
        assert!(outcome.quarantined[0]
            .0
            .to_string_lossy()
            .ends_with(".quarantined"));
        assert!(!path.exists(), "torn manifest was renamed aside");
        // Shard 1's jobs (odd indices) come back as pending placeholders.
        assert_eq!(outcome.missing, vec![1, 3, 5]);
        assert!(!outcome.complete());
        assert_eq!(outcome.records.len(), 6, "union still covers every job");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn clean_merge_has_no_duplicates_and_id_mismatch_conflicts() {
        let dir = scratch("conflict");
        let specs = jobs(4);
        write_shards(&dir, &specs, 2);
        // Shard membership is pinned at decode time, so a clean merge can
        // never see the same index twice.
        let outcome = merge_shards(&dir, &specs).unwrap();
        assert_eq!(outcome.duplicates_deduped, 0);
        // A record whose id disagrees with the jobs file means the shard
        // manifest belongs to a different job list: hard conflict.
        let mut bad_jobs = specs.clone();
        bad_jobs[1].id = "renamed".to_string();
        let err = merge_shards(&dir, &bad_jobs).unwrap_err();
        assert!(
            matches!(err, MergeError::Conflict { index: 1, .. }),
            "{err}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn merge_is_idempotent_and_commutative() {
        // The same records partitioned as 1, 2, and 4 shards — each merged
        // twice — must seal byte-identical batch manifests.
        let specs = jobs(9);
        let mut sealed = Vec::new();
        for shards in [1usize, 2, 4] {
            let dir = scratch(&format!("idem{shards}"));
            write_shards(&dir, &specs, shards);
            let first = merge_shards(&dir, &specs).unwrap();
            let second = merge_shards(&dir, &specs).unwrap();
            assert_eq!(
                first.sealed, second.sealed,
                "idempotence at {shards} shards"
            );
            sealed.push(first.sealed);
            let _ = std::fs::remove_dir_all(&dir);
        }
        assert_eq!(sealed[0], sealed[1], "1-shard vs 2-shard seal");
        assert_eq!(sealed[0], sealed[2], "1-shard vs 4-shard seal");
    }

    #[test]
    fn empty_directory_is_an_error() {
        let dir = scratch("empty");
        assert!(matches!(
            merge_shards(&dir, &jobs(2)),
            Err(MergeError::NoShards(_))
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn meta_disagreement_is_an_error() {
        let dir = scratch("meta");
        let specs = jobs(4);
        write_shards(&dir, &specs, 2);
        let mut foreign = meta(4, 2, 1);
        foreign.batch.batch_seed = 43;
        let records = vec![done_record(1, "j1"), done_record(3, "j3")];
        encode_shard_manifest(&foreign, &records)
            .write(shard_manifest_path(&dir, 1))
            .unwrap();
        assert!(matches!(
            merge_shards(&dir, &specs),
            Err(MergeError::MetaMismatch(_))
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn takeover_provenance_lands_in_lineage() {
        let dir = scratch("lineage");
        let specs = jobs(4);
        write_shards(&dir, &specs, 2);
        let mut taken = meta(4, 2, 1);
        taken.owner = "pid:555/000000ff".to_string();
        taken.epoch = 1;
        taken.taken_over_from = Some("pid:444/000000ee".to_string());
        encode_shard_manifest(&taken, &[done_record(1, "j1"), done_record(3, "j3")])
            .write(shard_manifest_path(&dir, 1))
            .unwrap();
        let outcome = merge_shards(&dir, &specs).unwrap();
        let takeovers: Vec<_> = outcome.takeovers().collect();
        assert_eq!(takeovers.len(), 1);
        assert_eq!(takeovers[0].shard_id, 1);
        assert_eq!(
            takeovers[0].taken_over_from.as_deref(),
            Some("pid:444/000000ee")
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
