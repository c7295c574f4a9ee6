//! The coordinator/worker vocabulary, as single-line JSON frame payloads.
//!
//! Worker → coordinator: `hello`, `claim`, `job-result`, `heartbeat`.
//! Coordinator → worker: `welcome`, `grant`, `wait`, `ack`, `reject`,
//! `drain`. Every exchange is strictly request/response
//! — one frame out, one frame back — so a connection never multiplexes
//! replies and a severed link is always at a message boundary or inside
//! exactly one frame (which the CRC catches).
//!
//! Full-width integers (`batch_seed`, `epoch`, the fault-rate bits)
//! travel as decimal or hex *strings*, never JSON numbers — the same
//! shear-avoidance rule the manifests follow. Job records travel as
//! opaque manifest-encoded JSON strings (`record_json`): the supervisor
//! encodes and decodes them with its own bit-exact codec, so the wire
//! adds no second serialization to keep in sync.

use std::collections::BTreeMap;
use std::fmt;

use obs::json::{self, JsonValue};

/// Protocol version spoken by this build; a `hello` carrying any other
/// version is rejected before anything else is trusted.
pub const PROTOCOL_VERSION: u64 = 1;

/// A malformed or unexpected message payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtocolError(pub String);

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "protocol: {}", self.0)
    }
}

impl std::error::Error for ProtocolError {}

/// One protocol message.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Worker introduces itself on every new connection.
    Hello {
        /// Worker name (host:pid style; provenance, not identity — job
        /// outcomes never depend on it).
        worker: String,
        /// Protocol version the worker speaks.
        version: u64,
    },
    /// Coordinator accepts a hello and ships the batch identity.
    Welcome {
        /// Root seed of every per-job derivation.
        batch_seed: u64,
        /// Pipeline fault rate as raw IEEE-754 bits.
        fault_rate_bits: u64,
        /// Total shard count of the batch.
        shards: usize,
        /// The full jobs file, JSONL (workers need global indices).
        jobs_jsonl: String,
        /// Lease duration: a shard with no heartbeat for this long is
        /// reassigned.
        lease_ms: u64,
        /// How often the worker must heartbeat.
        heartbeat_ms: u64,
    },
    /// Worker asks for a shard to run.
    Claim {
        /// Worker name, recorded as the lease owner.
        worker: String,
    },
    /// Coordinator leases a shard to the claiming worker.
    Grant {
        /// Shard to run.
        shard_id: usize,
        /// Monotonic lease epoch; stale epochs are rejected on renew.
        epoch: u64,
        /// Previous owner, when this grant is a takeover reassignment.
        taken_over_from: Option<String>,
    },
    /// Coordinator has no grantable shard right now (all leased and
    /// live); retry the claim after the suggested delay.
    Wait {
        /// Suggested retry delay in milliseconds.
        backoff_ms: u64,
    },
    /// Worker delivers one finished job record (at-least-once; the
    /// coordinator dedups by content).
    JobResult {
        /// Shard the record belongs to.
        shard_id: usize,
        /// Lease epoch the worker holds.
        epoch: u64,
        /// Global job index.
        index: usize,
        /// Manifest-encoded record line.
        record_json: String,
    },
    /// Worker liveness ping while computing. It also renews the lease:
    /// a `reject` reply tells a partitioned worker its shard was
    /// reassigned.
    Heartbeat {
        /// Shard being worked.
        shard_id: usize,
        /// Lease epoch the worker holds.
        epoch: u64,
        /// Beats sent so far on this lease.
        beats: u64,
    },
    /// Positive reply (to job-result, heartbeat).
    Ack {
        /// The epoch the coordinator currently recognizes for the shard.
        epoch: u64,
    },
    /// Negative reply: stale epoch, unknown shard, version mismatch,
    /// divergent duplicate record.
    Reject {
        /// Human-readable reason (also logged coordinator-side).
        reason: String,
    },
    /// The batch is complete (or draining): the worker should exit.
    Drain,
}

fn obj(fields: Vec<(&str, JsonValue)>) -> JsonValue {
    JsonValue::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect::<BTreeMap<_, _>>(),
    )
}

fn s(v: &str) -> JsonValue {
    JsonValue::String(v.to_string())
}

fn n(v: usize) -> JsonValue {
    JsonValue::Number(v as f64)
}

fn u64s(v: u64) -> JsonValue {
    JsonValue::String(v.to_string())
}

fn get<'a>(msg: &'a JsonValue, field: &str) -> Result<&'a JsonValue, ProtocolError> {
    msg.get(field)
        .ok_or_else(|| ProtocolError(format!("missing field `{field}`")))
}

fn get_str<'a>(msg: &'a JsonValue, field: &str) -> Result<&'a str, ProtocolError> {
    get(msg, field)?
        .as_str()
        .ok_or_else(|| ProtocolError(format!("field `{field}` is not a string")))
}

fn get_usize(msg: &JsonValue, field: &str) -> Result<usize, ProtocolError> {
    get(msg, field)?
        .as_u64()
        .and_then(|v| usize::try_from(v).ok())
        .ok_or_else(|| ProtocolError(format!("field `{field}` is not an integer")))
}

fn get_u64_str(msg: &JsonValue, field: &str) -> Result<u64, ProtocolError> {
    get_str(msg, field)?
        .parse::<u64>()
        .map_err(|_| ProtocolError(format!("field `{field}` is not a decimal u64")))
}

impl Message {
    /// The wire tag of this message (`"hello"`, `"job-result"`, ...).
    pub fn tag(&self) -> &'static str {
        match self {
            Message::Hello { .. } => "hello",
            Message::Welcome { .. } => "welcome",
            Message::Claim { .. } => "claim",
            Message::Grant { .. } => "grant",
            Message::Wait { .. } => "wait",
            Message::JobResult { .. } => "job-result",
            Message::Heartbeat { .. } => "heartbeat",
            Message::Ack { .. } => "ack",
            Message::Reject { .. } => "reject",
            Message::Drain => "drain",
        }
    }

    /// Serializes to a single-line JSON frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let value = match self {
            Message::Hello { worker, version } => obj(vec![
                ("type", s("hello")),
                ("worker", s(worker)),
                ("version", n(*version as usize)),
            ]),
            Message::Welcome {
                batch_seed,
                fault_rate_bits,
                shards,
                jobs_jsonl,
                lease_ms,
                heartbeat_ms,
            } => obj(vec![
                ("type", s("welcome")),
                ("batch_seed", u64s(*batch_seed)),
                ("fault_rate_bits", u64s(*fault_rate_bits)),
                ("shards", n(*shards)),
                ("jobs_jsonl", s(jobs_jsonl)),
                ("lease_ms", u64s(*lease_ms)),
                ("heartbeat_ms", u64s(*heartbeat_ms)),
            ]),
            Message::Claim { worker } => obj(vec![("type", s("claim")), ("worker", s(worker))]),
            Message::Grant {
                shard_id,
                epoch,
                taken_over_from,
            } => {
                let mut fields = vec![
                    ("type", s("grant")),
                    ("shard_id", n(*shard_id)),
                    ("epoch", u64s(*epoch)),
                ];
                if let Some(prev) = taken_over_from {
                    fields.push(("taken_over_from", s(prev)));
                }
                obj(fields)
            }
            Message::Wait { backoff_ms } => {
                obj(vec![("type", s("wait")), ("backoff_ms", u64s(*backoff_ms))])
            }
            Message::JobResult {
                shard_id,
                epoch,
                index,
                record_json,
            } => obj(vec![
                ("type", s("job-result")),
                ("shard_id", n(*shard_id)),
                ("epoch", u64s(*epoch)),
                ("index", n(*index)),
                ("record_json", s(record_json)),
            ]),
            Message::Heartbeat {
                shard_id,
                epoch,
                beats,
            } => obj(vec![
                ("type", s("heartbeat")),
                ("shard_id", n(*shard_id)),
                ("epoch", u64s(*epoch)),
                ("beats", u64s(*beats)),
            ]),
            Message::Ack { epoch } => obj(vec![("type", s("ack")), ("epoch", u64s(*epoch))]),
            Message::Reject { reason } => obj(vec![("type", s("reject")), ("reason", s(reason))]),
            Message::Drain => obj(vec![("type", s("drain"))]),
        };
        value.to_string().into_bytes()
    }

    /// Parses a frame payload back into a message.
    ///
    /// # Errors
    ///
    /// [`ProtocolError`] on non-UTF-8, non-JSON, an unknown `type`, or a
    /// missing/mistyped field.
    pub fn decode(payload: &[u8]) -> Result<Message, ProtocolError> {
        let text = std::str::from_utf8(payload)
            .map_err(|e| ProtocolError(format!("payload is not UTF-8: {e}")))?;
        let msg =
            json::parse(text).map_err(|e| ProtocolError(format!("payload is not JSON: {e}")))?;
        match get_str(&msg, "type")? {
            "hello" => Ok(Message::Hello {
                worker: get_str(&msg, "worker")?.to_string(),
                version: get_usize(&msg, "version")? as u64,
            }),
            "welcome" => Ok(Message::Welcome {
                batch_seed: get_u64_str(&msg, "batch_seed")?,
                fault_rate_bits: get_u64_str(&msg, "fault_rate_bits")?,
                shards: get_usize(&msg, "shards")?,
                jobs_jsonl: get_str(&msg, "jobs_jsonl")?.to_string(),
                lease_ms: get_u64_str(&msg, "lease_ms")?,
                heartbeat_ms: get_u64_str(&msg, "heartbeat_ms")?,
            }),
            "claim" => Ok(Message::Claim {
                worker: get_str(&msg, "worker")?.to_string(),
            }),
            "grant" => Ok(Message::Grant {
                shard_id: get_usize(&msg, "shard_id")?,
                epoch: get_u64_str(&msg, "epoch")?,
                taken_over_from: msg
                    .get("taken_over_from")
                    .and_then(JsonValue::as_str)
                    .map(str::to_string),
            }),
            "wait" => Ok(Message::Wait {
                backoff_ms: get_u64_str(&msg, "backoff_ms")?,
            }),
            "job-result" => Ok(Message::JobResult {
                shard_id: get_usize(&msg, "shard_id")?,
                epoch: get_u64_str(&msg, "epoch")?,
                index: get_usize(&msg, "index")?,
                record_json: get_str(&msg, "record_json")?.to_string(),
            }),
            "heartbeat" => Ok(Message::Heartbeat {
                shard_id: get_usize(&msg, "shard_id")?,
                epoch: get_u64_str(&msg, "epoch")?,
                beats: get_u64_str(&msg, "beats")?,
            }),
            "ack" => Ok(Message::Ack {
                epoch: get_u64_str(&msg, "epoch")?,
            }),
            "reject" => Ok(Message::Reject {
                reason: get_str(&msg, "reason")?.to_string(),
            }),
            "drain" => Ok(Message::Drain),
            other => Err(ProtocolError(format!("unknown message type `{other}`"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn samples() -> Vec<Message> {
        vec![
            Message::Hello {
                worker: "host:123".to_string(),
                version: PROTOCOL_VERSION,
            },
            Message::Welcome {
                batch_seed: u64::MAX - 7, // would shear as a JSON number
                fault_rate_bits: 0.25f64.to_bits(),
                shards: 3,
                jobs_jsonl: "{\"molecule\":\"H2\"}\n".to_string(),
                lease_ms: 500,
                heartbeat_ms: 100,
            },
            Message::Claim {
                worker: "host:123".to_string(),
            },
            Message::Grant {
                shard_id: 2,
                epoch: 4,
                taken_over_from: Some("pid:99/deadbeef".to_string()),
            },
            Message::Grant {
                shard_id: 0,
                epoch: 1,
                taken_over_from: None,
            },
            Message::Wait { backoff_ms: 40 },
            Message::JobResult {
                shard_id: 1,
                epoch: 2,
                index: 5,
                record_json: "{\"id\":\"a\",\"state\":\"done\"}".to_string(),
            },
            Message::Heartbeat {
                shard_id: 1,
                epoch: 2,
                beats: 17,
            },
            Message::Ack { epoch: 3 },
            Message::Reject {
                reason: "stale epoch".to_string(),
            },
            Message::Drain,
        ]
    }

    #[test]
    fn every_message_round_trips() {
        for msg in samples() {
            let back = Message::decode(&msg.encode()).unwrap();
            assert_eq!(back, msg, "round trip of {}", msg.tag());
        }
    }

    #[test]
    fn full_width_integers_survive() {
        let msg = Message::Welcome {
            batch_seed: u64::MAX,
            fault_rate_bits: f64::NAN.to_bits(),
            shards: 1,
            jobs_jsonl: String::new(),
            lease_ms: u64::MAX,
            heartbeat_ms: 1,
        };
        assert_eq!(Message::decode(&msg.encode()).unwrap(), msg);
    }

    #[test]
    fn garbage_is_typed_not_a_panic() {
        assert!(Message::decode(&[0xFF, 0xFE]).is_err());
        assert!(Message::decode(b"not json").is_err());
        assert!(Message::decode(b"{\"type\":\"warp\"}").is_err());
        assert!(Message::decode(b"{\"type\":\"grant\",\"shard_id\":0}").is_err());
        // Sheared epoch: a JSON number where a string is required.
        assert!(
            Message::decode(b"{\"type\":\"ack\",\"epoch\":3}").is_err(),
            "numeric epoch must be rejected (shear risk)"
        );
    }
}
