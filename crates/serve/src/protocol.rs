//! The serve wire protocol: JSONL over a Unix socket, one request and
//! one response line per connection.
//!
//! A job request is the same spec object `pcd batch` reads from a jobs
//! file (`{"id":..,"molecule":..,"bond":..,"ratio":..}`), optionally
//! extended with `deadline_ms`. Control requests carry an `"op"` field
//! instead (`ping`, `stats`, `drain`). Every response is a single JSON
//! object whose `status` field is the type tag — a client never has to
//! guess whether it was shed, quarantined, served from cache, or cut by
//! a deadline:
//!
//! | `status`      | meaning                                            |
//! |---------------|----------------------------------------------------|
//! | `done`        | converged result (`cached` tells you which path)   |
//! | `shed`        | an injected accept fault refused the request       |
//! | `quarantined` | the job exhausted its retry budget                 |
//! | `deadline`    | the per-request deadline cut the job; it resumes   |
//! | `pending`     | a drain caught the request queued; it resumes      |
//! | `error`       | the request line itself was malformed              |
//! | `draining`    | drain acknowledged                                 |
//! | `stats`, `pong` | control responses                                |

use std::collections::BTreeMap;
use std::time::Duration;

use obs::json::{self, JsonValue};
use supervisor::{parse_jobs, JobRecord, JobSpec, JobState};

/// A parsed request line.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Run (or serve from cache) one co-design job.
    Job {
        /// The job spec, exactly as `pcd batch` would parse it.
        spec: JobSpec,
        /// Per-request deadline, from `deadline_ms`.
        deadline: Option<Duration>,
    },
    /// Liveness probe.
    Ping,
    /// Counter snapshot.
    Stats,
    /// Graceful drain: stop accepting, seal the manifest, exit 30.
    Drain,
}

/// Parses one request line.
///
/// # Errors
///
/// A message suitable for an `error` response: malformed JSON, an
/// unknown `op`, or a bad job spec.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let value = json::parse(line.trim()).map_err(|e| format!("bad request JSON: {e}"))?;
    if let Some(op) = value.get("op").and_then(JsonValue::as_str) {
        return match op {
            "ping" => Ok(Request::Ping),
            "stats" => Ok(Request::Stats),
            "drain" => Ok(Request::Drain),
            other => Err(format!("unknown op `{other}`")),
        };
    }
    let deadline = value
        .get("deadline_ms")
        .and_then(JsonValue::as_u64)
        .map(Duration::from_millis);
    let specs = parse_jobs(line)?;
    let [spec] = specs.as_slice() else {
        return Err("request must be exactly one job line".to_string());
    };
    Ok(Request::Job {
        spec: spec.clone(),
        deadline,
    })
}

fn obj(fields: Vec<(&str, JsonValue)>) -> String {
    JsonValue::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect::<BTreeMap<_, _>>(),
    )
    .to_string()
}

fn s(v: &str) -> JsonValue {
    JsonValue::String(v.to_string())
}

fn n(v: usize) -> JsonValue {
    JsonValue::Number(v as f64)
}

/// The `done` response for a record, tagging whether the result came
/// from the cache. `stages` is the trace a client can assert on: a cache
/// hit lists only `"cache"` — no SCF, no VQE — which is the O(1)
/// repeat-traffic contract.
pub fn done_response(record: &JobRecord, cached: bool) -> String {
    let JobState::Done {
        energy_bits,
        iterations,
        evaluations,
        scf_retries,
        sabre_fallback,
    } = &record.state
    else {
        return error_response("internal: done_response on a non-done record");
    };
    let stages = if cached {
        vec![s("cache")]
    } else {
        vec![s("scf"), s("ansatz"), s("vqe"), s("compile")]
    };
    obj(vec![
        ("status", s("done")),
        ("id", s(&record.id)),
        ("cached", JsonValue::Bool(cached)),
        ("stages", JsonValue::Array(stages)),
        ("energy", JsonValue::Number(f64::from_bits(*energy_bits))),
        ("energy_bits", s(&format!("{energy_bits:016x}"))),
        ("iterations", n(*iterations)),
        ("evaluations", n(*evaluations)),
        ("scf_retries", n(*scf_retries)),
        ("sabre_fallback", JsonValue::Bool(*sabre_fallback)),
        ("retries", n(record.retries)),
    ])
}

/// The typed load-shed response. `policy` names what shed the request
/// (`accept-fault` for an injected accept failure); `queue_depth` is the
/// queue depth at the time.
pub fn shed_response(policy: &str, queue_depth: usize) -> String {
    obj(vec![
        ("status", s("shed")),
        ("policy", s(policy)),
        ("queue_depth", n(queue_depth)),
    ])
}

/// The quarantine response for a job that exhausted its retry budget.
pub fn quarantined_response(record: &JobRecord) -> String {
    let JobState::Quarantined {
        attempts,
        stage,
        error,
    } = &record.state
    else {
        return error_response("internal: quarantined_response on a non-quarantined record");
    };
    obj(vec![
        ("status", s("quarantined")),
        ("id", s(&record.id)),
        ("attempts", n(*attempts)),
        ("stage", s(stage)),
        ("error", s(error)),
    ])
}

/// The deadline response: the per-request deadline cut the job mid-run;
/// it stays journaled as pending and resumes after a restart.
pub fn deadline_response(id: &str) -> String {
    obj(vec![("status", s("deadline")), ("id", s(id))])
}

/// The pending response: a drain caught the request before it started;
/// it is sealed into the manifest and recomputed after restart.
pub fn pending_response(id: &str) -> String {
    obj(vec![("status", s("pending")), ("id", s(id))])
}

/// The malformed-request response.
pub fn error_response(message: &str) -> String {
    obj(vec![("status", s("error")), ("error", s(message))])
}

/// Drain acknowledgement.
pub fn draining_response() -> String {
    obj(vec![("status", s("draining"))])
}

/// Liveness response.
pub fn pong_response() -> String {
    obj(vec![("status", s("pong"))])
}

/// The stats response. Field names match the obs counters they mirror.
#[allow(clippy::too_many_arguments)]
pub fn stats_response(
    accepted: usize,
    done: usize,
    shed: usize,
    cancelled: usize,
    quarantined: usize,
    cache_hits: usize,
    cache_misses: usize,
    cache_quarantined: usize,
    resumed: usize,
) -> String {
    obj(vec![
        ("status", s("stats")),
        ("accepted", n(accepted)),
        ("done", n(done)),
        ("shed", n(shed)),
        ("cancelled", n(cancelled)),
        ("quarantined", n(quarantined)),
        ("cache_hits", n(cache_hits)),
        ("cache_misses", n(cache_misses)),
        ("cache_quarantined", n(cache_quarantined)),
        ("resumed", n(resumed)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use chem::Benchmark;

    #[test]
    fn job_requests_parse_like_batch_lines() {
        let req = parse_request(
            "{\"id\":\"a\",\"molecule\":\"H2\",\"bond\":0.74,\"ratio\":1.0,\"deadline_ms\":250}",
        )
        .unwrap();
        let Request::Job { spec, deadline } = req else {
            panic!("expected a job");
        };
        assert_eq!(spec.id, "a");
        assert_eq!(spec.benchmark, Benchmark::H2);
        assert_eq!(deadline, Some(Duration::from_millis(250)));
    }

    #[test]
    fn ops_parse() {
        assert_eq!(parse_request("{\"op\":\"ping\"}").unwrap(), Request::Ping);
        assert_eq!(parse_request("{\"op\":\"stats\"}").unwrap(), Request::Stats);
        assert_eq!(parse_request("{\"op\":\"drain\"}").unwrap(), Request::Drain);
        assert!(parse_request("{\"op\":\"reboot\"}").is_err());
        assert!(parse_request("not json").is_err());
        assert!(parse_request("{\"molecule\":\"Xe\"}").is_err());
    }

    #[test]
    fn responses_are_single_json_lines_with_status_tags() {
        use obs::json;
        for (line, status) in [
            (shed_response("accept-fault", 4), "shed"),
            (deadline_response("a"), "deadline"),
            (pending_response("a"), "pending"),
            (error_response("nope"), "error"),
            (draining_response(), "draining"),
            (pong_response(), "pong"),
            (stats_response(1, 2, 3, 4, 5, 6, 7, 8, 9), "stats"),
        ] {
            assert!(!line.contains('\n'));
            let v = json::parse(&line).unwrap();
            assert_eq!(v.get("status").and_then(|s| s.as_str()), Some(status));
        }
    }

    #[test]
    fn done_response_distinguishes_cache_hits() {
        use obs::json;
        let record = JobRecord {
            index: 0,
            id: "a".to_string(),
            state: JobState::Done {
                energy_bits: (-1.1372f64).to_bits(),
                iterations: 4,
                evaluations: 16,
                scf_retries: 0,
                sabre_fallback: false,
            },
            retries: 0,
            backoff_ms: 0,
        };
        let hit = json::parse(&done_response(&record, true)).unwrap();
        assert_eq!(hit.get("cached").and_then(|v| v.as_bool()), Some(true));
        let stages = format!("{:?}", hit.get("stages"));
        assert!(stages.contains("cache") && !stages.contains("scf") && !stages.contains("vqe"));
        let miss = json::parse(&done_response(&record, false)).unwrap();
        assert_eq!(miss.get("cached").and_then(|v| v.as_bool()), Some(false));
        assert!(format!("{:?}", miss.get("stages")).contains("vqe"));
        assert_eq!(
            hit.get("energy_bits").and_then(|v| v.as_str()),
            Some(format!("{:016x}", (-1.1372f64).to_bits()).as_str())
        );
    }
}
