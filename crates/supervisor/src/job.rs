//! Job specifications, seeds, and terminal records.
//!
//! A batch is a JSONL file of [`JobSpec`] lines. Each admitted job runs to
//! exactly one terminal [`JobState`] — `Done`, `Quarantined`, or `Shed` —
//! or to the non-terminal `Pending` when a drain interrupted it. Records
//! carry energies as raw IEEE-754 bits so `PartialEq` on a [`JobRecord`]
//! *is* the bit-identity check the drain/resume guarantee is stated in.

use std::collections::BTreeMap;

use chem::Benchmark;
use obs::json::{self, JsonValue};

use resilience::splitmix64;

/// One batch job: a molecule × bond × compression configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Caller-chosen job id, unique within the batch (`"h2-0.74"`).
    pub id: String,
    /// Benchmark molecule.
    pub benchmark: Benchmark,
    /// Bond length in Angstrom (`None` = equilibrium).
    pub bond: Option<f64>,
    /// Ansatz compression ratio in `(0, 1]`.
    pub ratio: f64,
}

impl JobSpec {
    /// The bond length this job actually runs at.
    pub fn bond_length(&self) -> f64 {
        self.bond
            .unwrap_or_else(|| self.benchmark.equilibrium_bond_length())
    }

    /// Which priority lane this job rides in: small molecules are quick
    /// and go fast-lane so a burst of long VQE runs cannot head-of-line
    /// block them.
    pub fn lane(&self) -> crate::queue::Lane {
        crate::queue::Lane::for_qubits(self.benchmark.expected_qubits())
    }

    /// Serializes to one JSONL line (without trailing newline).
    pub fn to_json_line(&self) -> String {
        self.to_json().to_string()
    }

    /// Serializes to the JSON object [`JobSpec::from_json`] reads back.
    pub fn to_json(&self) -> JsonValue {
        let mut fields = BTreeMap::new();
        fields.insert("id".to_string(), JsonValue::String(self.id.clone()));
        fields.insert(
            "molecule".to_string(),
            JsonValue::String(self.benchmark.name().to_string()),
        );
        if let Some(bond) = self.bond {
            fields.insert("bond".to_string(), JsonValue::Number(bond));
        }
        fields.insert("ratio".to_string(), JsonValue::Number(self.ratio));
        JsonValue::Object(fields)
    }

    /// Parses one spec object: `molecule` (required), `bond` (optional),
    /// `ratio` (optional, default 0.5), and `id` (optional, defaults to
    /// `default_id`).
    ///
    /// # Errors
    ///
    /// A message on a missing or unknown molecule or an out-of-range ratio.
    pub fn from_json(record: &JsonValue, default_id: &str) -> Result<JobSpec, String> {
        let molecule = record
            .get("molecule")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| "missing `molecule`".to_string())?;
        let benchmark = Benchmark::ALL
            .into_iter()
            .find(|b| b.name().eq_ignore_ascii_case(molecule))
            .ok_or_else(|| format!("unknown molecule `{molecule}`"))?;
        let bond = record.get("bond").and_then(JsonValue::as_f64);
        let ratio = record
            .get("ratio")
            .and_then(JsonValue::as_f64)
            .unwrap_or(0.5);
        if !(ratio > 0.0 && ratio <= 1.0) {
            return Err(format!("ratio {ratio} outside (0, 1]"));
        }
        let id = record
            .get("id")
            .and_then(JsonValue::as_str)
            .unwrap_or(default_id)
            .to_string();
        Ok(JobSpec {
            id,
            benchmark,
            bond,
            ratio,
        })
    }
}

/// Parses a JOBS.jsonl document: one [`JobSpec`] object per non-empty
/// line, fields `id` (optional, defaults to `job<index>`), `molecule`
/// (required), `bond` (optional), `ratio` (optional, default 0.5).
///
/// # Errors
///
/// A message naming the offending line on unparseable JSON, an unknown
/// molecule, an out-of-range ratio, or a duplicate id.
pub fn parse_jobs(text: &str) -> Result<Vec<JobSpec>, String> {
    let mut jobs = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let record = json::parse(line).map_err(|e| format!("jobs line {}: {e}", lineno + 1))?;
        let spec = JobSpec::from_json(&record, &format!("job{}", jobs.len()))
            .map_err(|e| format!("jobs line {}: {e}", lineno + 1))?;
        if jobs.iter().any(|job: &JobSpec| job.id == spec.id) {
            return Err(format!(
                "jobs line {}: duplicate id `{}`",
                lineno + 1,
                spec.id
            ));
        }
        jobs.push(spec);
    }
    if jobs.is_empty() {
        return Err("jobs file has no job lines".to_string());
    }
    Ok(jobs)
}

/// The seed for job `index` of a batch: a pure function of the batch seed
/// and the job's *arrival index* — never of worker assignment or timing —
/// so every injection and retry decision replays identically at any
/// worker count.
pub fn job_seed(batch_seed: u64, index: usize) -> u64 {
    splitmix64(batch_seed ^ splitmix64(index as u64))
}

/// The seed for retry `attempt` of a job (attempt 0 is the first try).
/// Each attempt draws fresh faults, which is what lets transients clear.
pub fn attempt_seed(job_seed: u64, attempt: usize) -> u64 {
    splitmix64(job_seed ^ splitmix64((attempt as u64).wrapping_add(0x5EED)))
}

/// Where a job ended up. `Done`, `Quarantined`, and `Shed` are terminal;
/// `Pending` only appears in a drained batch's manifest.
#[derive(Debug, Clone, PartialEq)]
pub enum JobState {
    /// The pipeline completed (possibly after retries and recovery).
    Done {
        /// VQE energy as raw IEEE-754 bits (bit-exact comparison and
        /// manifest round-trips are the point of this record).
        energy_bits: u64,
        /// Optimizer outer iterations.
        iterations: usize,
        /// Objective evaluations.
        evaluations: usize,
        /// SCF ladder retries the chemistry stage spent.
        scf_retries: usize,
        /// Whether the compiler fell back to SABRE.
        sabre_fallback: bool,
    },
    /// The job exhausted its retry budget and was isolated so it cannot
    /// wedge the queue.
    Quarantined {
        /// Attempts spent, including the first.
        attempts: usize,
        /// Stage of the final failure (`"scf"`, `"vqe"`, `"panic"`, ...).
        stage: String,
        /// The final failure, stringified.
        error: String,
    },
    /// The job never ran: written by serve for a request cancelled before
    /// it started, and by older builds' batch admission control.
    Shed,
    /// A drain interrupted the job; the manifest knows how to resume it.
    Pending {
        /// Retry attempt that was in flight (0-based).
        attempt: usize,
        /// Budget slices the in-flight attempt had already consumed —
        /// restored on resume so a resumed attempt sees the same timeout
        /// horizon as an uninterrupted one.
        slices_used: usize,
        /// Relative filename of the persisted VQE checkpoint, when the
        /// attempt got far enough to have one.
        checkpoint: Option<String>,
    },
}

impl JobState {
    /// Whether this is a terminal state (everything but `Pending`).
    pub fn is_terminal(&self) -> bool {
        !matches!(self, JobState::Pending { .. })
    }

    /// Short label used in events, manifests, and reports.
    pub fn label(&self) -> &'static str {
        match self {
            JobState::Done { .. } => "done",
            JobState::Quarantined { .. } => "quarantined",
            JobState::Shed => "shed",
            JobState::Pending { .. } => "pending",
        }
    }
}

/// The full record of one job's journey through the supervisor.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRecord {
    /// Arrival index in the jobs file (the determinism key).
    pub index: usize,
    /// Job id from the spec.
    pub id: String,
    /// Terminal (or drained) state.
    pub state: JobState,
    /// Retries spent at the supervisor level (panics, transients,
    /// timeouts — not the SCF ladder's internal retries).
    pub retries: usize,
}

impl JobRecord {
    /// The VQE energy for a `Done` job.
    pub fn energy(&self) -> Option<f64> {
        match self.state {
            JobState::Done { energy_bits, .. } => Some(f64::from_bits(energy_bits)),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jsonl_round_trips() {
        let text = "\
{\"id\":\"a\",\"molecule\":\"H2\",\"bond\":0.74,\"ratio\":1.0}\n\
# comment line\n\
\n\
{\"molecule\":\"LiH\"}\n";
        let jobs = parse_jobs(text).unwrap();
        assert_eq!(jobs.len(), 2);
        assert_eq!(jobs[0].id, "a");
        assert_eq!(jobs[0].benchmark, Benchmark::H2);
        assert_eq!(jobs[0].bond, Some(0.74));
        assert_eq!(jobs[1].id, "job1");
        assert_eq!(jobs[1].ratio, 0.5);
        assert_eq!(jobs[1].bond_length(), 1.60);
        // Serialized lines parse back to the same specs.
        let text2: String = jobs
            .iter()
            .map(|j| format!("{}\n", j.to_json_line()))
            .collect();
        assert_eq!(parse_jobs(&text2).unwrap(), jobs);
    }

    #[test]
    fn bad_specs_are_rejected_with_line_numbers() {
        assert!(parse_jobs("").is_err());
        assert!(parse_jobs("{\"molecule\":\"Xe\"}")
            .unwrap_err()
            .contains("line 1"));
        assert!(parse_jobs("not json").unwrap_err().contains("line 1"));
        assert!(parse_jobs("{\"molecule\":\"H2\",\"ratio\":0.0}")
            .unwrap_err()
            .contains("ratio"));
        let dup = "{\"id\":\"x\",\"molecule\":\"H2\"}\n{\"id\":\"x\",\"molecule\":\"H2\"}";
        assert!(parse_jobs(dup).unwrap_err().contains("duplicate"));
    }

    #[test]
    fn job_seeds_are_index_pure_and_decorrelated() {
        assert_eq!(job_seed(42, 3), job_seed(42, 3));
        assert_ne!(job_seed(42, 3), job_seed(42, 4));
        assert_ne!(job_seed(42, 3), job_seed(43, 3));
        assert_ne!(
            attempt_seed(job_seed(42, 3), 0),
            attempt_seed(job_seed(42, 3), 1)
        );
    }

    #[test]
    fn record_equality_is_bitwise_on_energy() {
        let mk = |bits: u64| JobRecord {
            index: 0,
            id: "a".to_string(),
            state: JobState::Done {
                energy_bits: bits,
                iterations: 5,
                evaluations: 20,
                scf_retries: 0,
                sabre_fallback: false,
            },
            retries: 0,
        };
        let e = -1.137f64;
        assert_eq!(mk(e.to_bits()), mk(e.to_bits()));
        assert_ne!(mk(e.to_bits()), mk((e + 1e-15).to_bits()));
        assert_eq!(mk(e.to_bits()).energy(), Some(e));
    }

    #[test]
    fn terminal_states_are_classified() {
        assert!(JobState::Shed.is_terminal());
        assert_eq!(JobState::Shed.label(), "shed");
        let pending = JobState::Pending {
            attempt: 1,
            slices_used: 2,
            checkpoint: None,
        };
        assert!(!pending.is_terminal());
        assert_eq!(pending.label(), "pending");
    }
}
