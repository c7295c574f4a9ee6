//! The batch manifest: a drained (or finished) batch's per-job records in
//! the versioned, CRC-guarded checkpoint container.
//!
//! Payload line 0 is the [`BatchMeta`] (seed, job count, fault rate —
//! the keys a resume must match); every following line is one
//! [`JobRecord`] in arrival order. Energies and the pipeline fault rate
//! travel as bit-exact hex, and the batch seed as a decimal *string*
//! (JSON numbers are f64 and would shear a full-width u64), so a decode ∘
//! encode round-trip preserves every record to the last bit.

use std::collections::BTreeMap;

use obs::json::JsonValue;
use resilience::checkpoint::{f64_from_hex, f64_to_hex};
use resilience::{Checkpoint, CheckpointError};

use crate::job::{JobRecord, JobState};

/// Checkpoint kind tag for batch manifests.
pub const KIND_BATCH_MANIFEST: &str = "batch-manifest";

/// Batch-level identity a resume validates before trusting the records.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchMeta {
    /// Root seed of every per-job derivation.
    pub batch_seed: u64,
    /// Number of jobs in the batch.
    pub jobs: usize,
    /// Pipeline fault rate the batch ran with.
    pub pipeline_fault_rate: f64,
}

fn obj(fields: Vec<(&str, JsonValue)>) -> JsonValue {
    JsonValue::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect::<BTreeMap<_, _>>(),
    )
}

fn num(v: usize) -> JsonValue {
    JsonValue::Number(v as f64)
}

fn string(s: &str) -> JsonValue {
    JsonValue::String(s.to_string())
}

fn get<'a>(record: &'a JsonValue, field: &str) -> Result<&'a JsonValue, CheckpointError> {
    record
        .get(field)
        .ok_or_else(|| CheckpointError::Malformed(format!("manifest: missing field `{field}`")))
}

fn get_usize(record: &JsonValue, field: &str) -> Result<usize, CheckpointError> {
    get(record, field)?
        .as_u64()
        .and_then(|v| usize::try_from(v).ok())
        .ok_or_else(|| {
            CheckpointError::Malformed(format!("manifest: field `{field}` is not an integer"))
        })
}

fn get_str<'a>(record: &'a JsonValue, field: &str) -> Result<&'a str, CheckpointError> {
    get(record, field)?.as_str().ok_or_else(|| {
        CheckpointError::Malformed(format!("manifest: field `{field}` is not a string"))
    })
}

fn get_bool(record: &JsonValue, field: &str) -> Result<bool, CheckpointError> {
    get(record, field)?.as_bool().ok_or_else(|| {
        CheckpointError::Malformed(format!("manifest: field `{field}` is not a bool"))
    })
}

fn get_u64_str(record: &JsonValue, field: &str) -> Result<u64, CheckpointError> {
    get_str(record, field)?.parse::<u64>().map_err(|_| {
        CheckpointError::Malformed(format!("manifest: field `{field}` is not a decimal u64"))
    })
}

fn get_bits(record: &JsonValue, field: &str) -> Result<u64, CheckpointError> {
    let s = get_str(record, field)?;
    if s.len() != 16 || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
        return Err(CheckpointError::Malformed(format!(
            "manifest: field `{field}` is not 16 hex digits"
        )));
    }
    u64::from_str_radix(s, 16)
        .map_err(|_| CheckpointError::Malformed(format!("manifest: field `{field}` is not hex")))
}

fn get_breaker(record: &JsonValue) -> Result<[usize; 3], CheckpointError> {
    let JsonValue::Array(items) = get(record, "breaker")? else {
        return Err(CheckpointError::Malformed(
            "manifest: field `breaker` is not an array".to_string(),
        ));
    };
    if items.len() != 3 {
        return Err(CheckpointError::Malformed(format!(
            "manifest: breaker has {} entries, expected 3",
            items.len()
        )));
    }
    let mut counts = [0usize; 3];
    for (slot, item) in counts.iter_mut().zip(items) {
        *slot = item
            .as_u64()
            .and_then(|v| usize::try_from(v).ok())
            .ok_or_else(|| {
                CheckpointError::Malformed("manifest: breaker entry is not an integer".to_string())
            })?;
    }
    Ok(counts)
}

pub(crate) fn encode_record(record: &JobRecord) -> JsonValue {
    let mut fields = vec![
        ("index", num(record.index)),
        ("id", string(&record.id)),
        ("state", string(record.state.label())),
        ("retries", num(record.retries)),
        ("backoff_ms", string(&record.backoff_ms.to_string())),
    ];
    match &record.state {
        JobState::Done {
            energy_bits,
            iterations,
            evaluations,
            scf_retries,
            sabre_fallback,
        } => {
            fields.push(("energy", string(&format!("{energy_bits:016x}"))));
            fields.push(("iterations", num(*iterations)));
            fields.push(("evaluations", num(*evaluations)));
            fields.push(("scf_retries", num(*scf_retries)));
            fields.push(("sabre_fallback", JsonValue::Bool(*sabre_fallback)));
        }
        JobState::Quarantined {
            attempts,
            stage,
            error,
        } => {
            fields.push(("attempts", num(*attempts)));
            fields.push(("stage", string(stage)));
            fields.push(("error", string(error)));
        }
        JobState::Shed => {}
        JobState::Pending {
            attempt,
            slices_used,
            checkpoint,
            breaker,
        } => {
            fields.push(("attempt", num(*attempt)));
            fields.push(("slices_used", num(*slices_used)));
            fields.push((
                "breaker",
                JsonValue::Array(breaker.iter().map(|&c| num(c)).collect()),
            ));
            if let Some(name) = checkpoint {
                fields.push(("checkpoint", string(name)));
            }
        }
    }
    obj(fields)
}

fn decode_record(line: &JsonValue, position: usize) -> Result<JobRecord, CheckpointError> {
    let record = decode_record_sparse(line)?;
    if record.index != position {
        return Err(CheckpointError::Malformed(format!(
            "manifest: record at line {position} claims index {}",
            record.index
        )));
    }
    Ok(record)
}

/// Decodes one record line without pinning its index to a line position —
/// a record on the wire carries its *global* job index, which the
/// coordinator checks against the envelope and the granted shard.
pub(crate) fn decode_record_sparse(line: &JsonValue) -> Result<JobRecord, CheckpointError> {
    let index = get_usize(line, "index")?;
    let id = get_str(line, "id")?.to_string();
    let retries = get_usize(line, "retries")?;
    let backoff_ms = get_u64_str(line, "backoff_ms")?;
    let state = match get_str(line, "state")? {
        "done" => JobState::Done {
            energy_bits: get_bits(line, "energy")?,
            iterations: get_usize(line, "iterations")?,
            evaluations: get_usize(line, "evaluations")?,
            scf_retries: get_usize(line, "scf_retries")?,
            sabre_fallback: get_bool(line, "sabre_fallback")?,
        },
        "quarantined" => JobState::Quarantined {
            attempts: get_usize(line, "attempts")?,
            stage: get_str(line, "stage")?.to_string(),
            error: get_str(line, "error")?.to_string(),
        },
        "shed" => JobState::Shed,
        "pending" => JobState::Pending {
            attempt: get_usize(line, "attempt")?,
            slices_used: get_usize(line, "slices_used")?,
            checkpoint: line
                .get("checkpoint")
                .and_then(JsonValue::as_str)
                .map(str::to_string),
            breaker: get_breaker(line)?,
        },
        other => {
            return Err(CheckpointError::Malformed(format!(
                "manifest: unknown job state `{other}`"
            )))
        }
    };
    Ok(JobRecord {
        index,
        id,
        state,
        retries,
        backoff_ms,
    })
}

/// Encodes a batch's records as a `"batch-manifest"` checkpoint.
pub fn encode_manifest(meta: &BatchMeta, records: &[JobRecord]) -> Checkpoint {
    let mut payload = vec![obj(vec![
        ("batch_seed", string(&meta.batch_seed.to_string())),
        ("jobs", num(meta.jobs)),
        ("fault_rate", string(&f64_to_hex(meta.pipeline_fault_rate))),
    ])];
    payload.extend(records.iter().map(encode_record));
    Checkpoint::new(KIND_BATCH_MANIFEST, payload)
}

/// Decodes a `"batch-manifest"` checkpoint back to meta + records.
///
/// # Errors
///
/// [`CheckpointError`] on a wrong kind, a record count that disagrees
/// with the meta, or any malformed line.
pub fn decode_manifest(ck: &Checkpoint) -> Result<(BatchMeta, Vec<JobRecord>), CheckpointError> {
    if ck.kind != KIND_BATCH_MANIFEST {
        return Err(CheckpointError::Malformed(format!(
            "expected a {KIND_BATCH_MANIFEST} checkpoint, found `{}`",
            ck.kind
        )));
    }
    let header = ck
        .payload
        .first()
        .ok_or_else(|| CheckpointError::Malformed("manifest: empty payload".to_string()))?;
    let meta = BatchMeta {
        batch_seed: get_u64_str(header, "batch_seed")?,
        jobs: get_usize(header, "jobs")?,
        pipeline_fault_rate: f64_from_hex(get_str(header, "fault_rate")?)?,
    };
    let lines = &ck.payload[1..];
    if lines.len() != meta.jobs {
        return Err(CheckpointError::Malformed(format!(
            "manifest declares {} jobs but carries {} records",
            meta.jobs,
            lines.len()
        )));
    }
    let records = lines
        .iter()
        .enumerate()
        .map(|(position, line)| decode_record(line, position))
        .collect::<Result<Vec<_>, _>>()?;
    Ok((meta, records))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records() -> Vec<JobRecord> {
        vec![
            JobRecord {
                index: 0,
                id: "a".to_string(),
                state: JobState::Done {
                    energy_bits: (-1.137_283_9f64).to_bits(),
                    iterations: 12,
                    evaluations: 48,
                    scf_retries: 1,
                    sabre_fallback: true,
                },
                retries: 2,
                backoff_ms: 350,
            },
            JobRecord {
                index: 1,
                id: "b".to_string(),
                state: JobState::Quarantined {
                    attempts: 4,
                    stage: "panic".to_string(),
                    error: "worker panic (isolated)".to_string(),
                },
                retries: 3,
                backoff_ms: 700,
            },
            JobRecord {
                index: 2,
                id: "c".to_string(),
                state: JobState::Shed,
                retries: 0,
                backoff_ms: 0,
            },
            JobRecord {
                index: 3,
                id: "d".to_string(),
                state: JobState::Pending {
                    attempt: 1,
                    slices_used: 3,
                    checkpoint: Some("job3.vqe.ckpt".to_string()),
                    breaker: [0, 1, 2],
                },
                retries: 1,
                backoff_ms: 120,
            },
        ]
    }

    fn meta() -> BatchMeta {
        BatchMeta {
            batch_seed: u64::MAX - 12345, // would shear as a JSON number
            jobs: 4,
            pipeline_fault_rate: 0.2,
        }
    }

    #[test]
    fn manifest_round_trips_bit_exactly() {
        let records = sample_records();
        let ck = encode_manifest(&meta(), &records);
        let bytes = ck.to_bytes();
        let back = Checkpoint::from_bytes(&bytes).unwrap();
        let (m, r) = decode_manifest(&back).unwrap();
        assert_eq!(m, meta());
        assert_eq!(r, records);
    }

    #[test]
    fn wrong_kind_and_count_mismatch_are_rejected() {
        let records = sample_records();
        let mut ck = encode_manifest(&meta(), &records);
        ck.kind = "scf".to_string();
        assert!(decode_manifest(&ck).is_err());

        let short = encode_manifest(&meta(), &records[..3]);
        assert!(decode_manifest(&short).is_err(), "3 records, meta says 4");
    }

    #[test]
    fn shuffled_indices_are_rejected() {
        let mut records = sample_records();
        records.swap(0, 2);
        let ck = encode_manifest(&meta(), &records);
        assert!(decode_manifest(&ck).is_err());
    }
}
