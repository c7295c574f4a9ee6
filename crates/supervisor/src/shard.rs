//! Horizontal batch sharding: deterministic job→shard assignment and
//! CRC-sealed per-shard manifests.
//!
//! A shard is the subset of a batch's jobs whose index satisfies
//! `index % shards == shard_id`. Because every job's outcome is a pure
//! function of `(batch_seed, index, spec)` — never of which process ran
//! it — any process can execute any job and produce the bit-identical
//! record. That is the safety argument for takeover: when the
//! [coordinator](crate::remote) re-grants a silent worker's shard at the
//! next lease epoch, even a *duplicated* execution merges cleanly because
//! both copies of a record are equal.
//!
//! The coordinator seals `shard-<id>.manifest` per shard — the same
//! record codec as the batch manifest, but carrying a sparse, ascending
//! set of *global* job indices plus shard lineage (owner, lease epoch,
//! takeover provenance) in the header. [`crate::merge`] unions these back
//! into a standard `batch.manifest` that is bit-identical to a 1-shard
//! run's.

use std::path::{Path, PathBuf};

use obs::json::JsonValue;
use resilience::{Checkpoint, CheckpointError};

use crate::job::JobRecord;
use crate::manifest::{
    decode_record_sparse, encode_record, get_str, get_u64_str, get_usize, num, obj, string,
    BatchMeta,
};

/// Checkpoint kind tag for per-shard manifests.
pub const KIND_SHARD_MANIFEST: &str = "shard-manifest";

/// Which slice of a batch one process runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSpec {
    /// Total number of shards the batch is split into (≥ 1).
    pub shards: usize,
    /// This process's shard id in `0..shards`.
    pub shard_id: usize,
}

/// Deterministic job→shard assignment: round-robin over arrival order, so
/// every shard (and the merge) computes the same partition with no
/// coordination.
pub fn job_shard(index: usize, shards: usize) -> usize {
    index % shards.max(1)
}

/// The global job indices owned by `spec`, ascending.
pub fn shard_indices(n_jobs: usize, spec: &ShardSpec) -> Vec<usize> {
    (0..n_jobs)
        .filter(|&i| job_shard(i, spec.shards) == spec.shard_id)
        .collect()
}

/// The path of shard `shard_id`'s manifest under `dir`.
pub fn shard_manifest_path(dir: &Path, shard_id: usize) -> PathBuf {
    dir.join(format!("shard-{shard_id}.manifest"))
}

/// Shard-manifest header: the batch identity every shard must agree on,
/// plus this shard's lineage.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardMeta {
    /// Batch identity (seed, total jobs, fault rate) — identical across
    /// shards, and identical to the merged manifest's meta.
    pub batch: BatchMeta,
    /// Total shard count of the run.
    pub shards: usize,
    /// Which shard this manifest covers.
    pub shard_id: usize,
    /// Owner descriptor of the sealing process.
    pub owner: String,
    /// Lease epoch the manifest was sealed under.
    pub epoch: u64,
    /// Owner the sealing process took this shard over from, when the
    /// previous owner died mid-run.
    pub taken_over_from: Option<String>,
}

/// Encodes a shard's records as a `"shard-manifest"` checkpoint. Records
/// must carry global indices, ascending, all belonging to the shard.
pub fn encode_shard_manifest(meta: &ShardMeta, records: &[JobRecord]) -> Checkpoint {
    let mut header = vec![
        ("batch_seed", string(&meta.batch.batch_seed.to_string())),
        ("jobs", num(meta.batch.jobs)),
        (
            "fault_rate",
            string(&resilience::checkpoint::f64_to_hex(
                meta.batch.pipeline_fault_rate,
            )),
        ),
        ("shards", num(meta.shards)),
        ("shard_id", num(meta.shard_id)),
        ("records", num(records.len())),
        ("owner", string(&meta.owner)),
        ("epoch", string(&meta.epoch.to_string())),
    ];
    if let Some(from) = &meta.taken_over_from {
        header.push(("taken_over_from", string(from)));
    }
    let mut payload = vec![obj(header)];
    payload.extend(records.iter().map(encode_record));
    Checkpoint::new(KIND_SHARD_MANIFEST, payload)
}

/// Decodes a `"shard-manifest"` checkpoint back to meta + records,
/// validating the record count, strictly ascending global indices, index
/// range, and that every record belongs to the manifest's shard.
///
/// # Errors
///
/// [`CheckpointError`] on a wrong kind or any structural violation.
pub fn decode_shard_manifest(
    ck: &Checkpoint,
) -> Result<(ShardMeta, Vec<JobRecord>), CheckpointError> {
    if ck.kind != KIND_SHARD_MANIFEST {
        return Err(CheckpointError::Malformed(format!(
            "expected a {KIND_SHARD_MANIFEST} checkpoint, found `{}`",
            ck.kind
        )));
    }
    let header = ck
        .payload
        .first()
        .ok_or_else(|| CheckpointError::Malformed("shard manifest: empty payload".to_string()))?;
    let meta = ShardMeta {
        batch: BatchMeta {
            batch_seed: get_u64_str(header, "batch_seed")?,
            jobs: get_usize(header, "jobs")?,
            pipeline_fault_rate: resilience::checkpoint::f64_from_hex(get_str(
                header,
                "fault_rate",
            )?)?,
        },
        shards: get_usize(header, "shards")?,
        shard_id: get_usize(header, "shard_id")?,
        owner: get_str(header, "owner")?.to_string(),
        epoch: get_u64_str(header, "epoch")?,
        taken_over_from: header
            .get("taken_over_from")
            .and_then(JsonValue::as_str)
            .map(str::to_string),
    };
    if meta.shards == 0 || meta.shard_id >= meta.shards {
        return Err(CheckpointError::Malformed(format!(
            "shard manifest: shard {}/{} is not a valid assignment",
            meta.shard_id, meta.shards
        )));
    }
    let declared = get_usize(header, "records")?;
    let lines = &ck.payload[1..];
    if lines.len() != declared {
        return Err(CheckpointError::Malformed(format!(
            "shard manifest declares {declared} records but carries {}",
            lines.len()
        )));
    }
    let mut records = Vec::with_capacity(lines.len());
    let mut last: Option<usize> = None;
    for line in lines {
        let record = decode_record_sparse(line)?;
        if record.index >= meta.batch.jobs {
            return Err(CheckpointError::Malformed(format!(
                "shard manifest: record index {} out of range ({} jobs)",
                record.index, meta.batch.jobs
            )));
        }
        if job_shard(record.index, meta.shards) != meta.shard_id {
            return Err(CheckpointError::Malformed(format!(
                "shard manifest: record index {} does not belong to shard {}",
                record.index, meta.shard_id
            )));
        }
        if last.is_some_and(|prev| prev >= record.index) {
            return Err(CheckpointError::Malformed(format!(
                "shard manifest: record index {} not strictly ascending",
                record.index
            )));
        }
        last = Some(record.index);
        records.push(record);
    }
    Ok((meta, records))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobState;

    fn record(index: usize, id: &str) -> JobRecord {
        JobRecord {
            index,
            id: id.to_string(),
            state: JobState::Done {
                energy_bits: (-1.1f64).to_bits(),
                iterations: 3,
                evaluations: 9,
                scf_retries: 0,
                sabre_fallback: false,
            },
            retries: 0,
            backoff_ms: 0,
        }
    }

    fn meta() -> ShardMeta {
        ShardMeta {
            batch: BatchMeta {
                batch_seed: u64::MAX - 77,
                jobs: 7,
                pipeline_fault_rate: 0.25,
            },
            shards: 3,
            shard_id: 1,
            owner: "pid:123/00abcdef".to_string(),
            epoch: 2,
            taken_over_from: Some("pid:99/00000001".to_string()),
        }
    }

    #[test]
    fn partition_covers_every_job_exactly_once() {
        for shards in 1..=5 {
            let mut seen = vec![0usize; 23];
            for shard_id in 0..shards {
                for index in shard_indices(23, &ShardSpec { shards, shard_id }) {
                    seen[index] += 1;
                }
            }
            assert!(seen.iter().all(|&c| c == 1), "shards={shards}: {seen:?}");
        }
    }

    #[test]
    fn shard_manifest_round_trips_bit_exactly() {
        let meta = meta();
        // Shard 1 of 3 over 7 jobs owns global indices 1 and 4.
        let records = vec![record(1, "b"), record(4, "e")];
        let ck = encode_shard_manifest(&meta, &records);
        let back = Checkpoint::from_bytes(&ck.to_bytes()).unwrap();
        let (m, r) = decode_shard_manifest(&back).unwrap();
        assert_eq!(m, meta);
        assert_eq!(r, records);
    }

    #[test]
    fn shard_manifest_rejects_structural_violations() {
        let meta = meta();
        // Wrong kind.
        let mut ck = encode_shard_manifest(&meta, &[record(1, "b")]);
        ck.kind = "batch-manifest".to_string();
        assert!(decode_shard_manifest(&ck).is_err());
        // Foreign index (2 belongs to shard 2, not shard 1).
        let ck = encode_shard_manifest(&meta, &[record(2, "c")]);
        assert!(decode_shard_manifest(&ck).is_err());
        // Out-of-range index.
        let ck = encode_shard_manifest(&meta, &[record(7, "h")]);
        assert!(decode_shard_manifest(&ck).is_err());
        // Non-ascending indices.
        let ck = encode_shard_manifest(&meta, &[record(4, "e"), record(1, "b")]);
        assert!(decode_shard_manifest(&ck).is_err());
        // Record-count mismatch.
        let mut ck = encode_shard_manifest(&meta, &[record(1, "b"), record(4, "e")]);
        ck.payload.pop();
        assert!(decode_shard_manifest(&ck).is_err());
    }
}
