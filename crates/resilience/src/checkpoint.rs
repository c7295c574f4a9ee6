//! Versioned, checksummed checkpoint files for crash-safe resume.
//!
//! A checkpoint is a small JSONL file:
//!
//! ```text
//! {"job":"vqe-…","kind":"vqe","lines":1,"magic":"pcd-ckpt","version":2}  ← header
//! {...}                                                      ← payload ×N
//! {"crc32":3735928559}                                       ← trailer
//! ```
//!
//! The trailer's CRC-32 (IEEE) covers every byte before the trailer line,
//! and is verified **before** any payload parsing — a truncated or
//! bit-flipped file surfaces as a typed [`CheckpointError`], never a panic
//! or a silently wrong resume. Files are written via temp-file +
//! atomic-rename ([`obs::atomic_write`]), so a kill mid-write leaves either
//! the old checkpoint or the new one, never a torn file.
//!
//! # Versioning and migration
//!
//! The header's `version` field is the **format version**. New files are
//! written at [`CHECKPOINT_VERSION`]; files at any version from
//! [`MIN_CHECKPOINT_VERSION`] up are read through a chain of per-version
//! migration hooks ([`migrate`]) instead of being rejected, so growing the
//! schema never invalidates checkpoints already on disk. Version history:
//!
//! - **1** — header is `magic`/`version`/`kind`/`lines`.
//! - **2** — adds the optional `job` header field: the run a file belongs
//!   to — the batch-supervisor job id of a per-job checkpoint or manifest,
//!   or the input key of a `vqe.ckpt`/`vqe.done` stage file
//!   ([`stages::vqe_key`](crate::stages::vqe_key)). v1 files migrate by
//!   defaulting `job` to absent; payloads are unchanged.
//!
//! Floating-point payload fields are encoded as 16-digit hex of their IEEE
//! bit pattern ([`f64_to_hex`]), so a round-trip is bit-exact and resumed
//! runs can reproduce uninterrupted ones bit-for-bit.

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;
use std::path::Path;

use obs::json::{self, JsonValue};

/// Magic string identifying a checkpoint file.
pub const CHECKPOINT_MAGIC: &str = "pcd-ckpt";

/// Current checkpoint format version (what new files are written at).
pub const CHECKPOINT_VERSION: u64 = 2;

/// Oldest checkpoint format version this build can still read (via the
/// [`migrate`] chain).
pub const MIN_CHECKPOINT_VERSION: u64 = 1;

/// A failure reading or validating a checkpoint.
#[derive(Debug, Clone, PartialEq)]
pub enum CheckpointError {
    /// Filesystem I/O failed.
    Io {
        /// Path involved.
        path: String,
        /// The underlying I/O error message.
        message: String,
    },
    /// The file is too short to contain a header and trailer (or the
    /// trailer line is missing/damaged) — typical of a truncated write.
    Truncated,
    /// The CRC-32 recorded in the trailer does not match the file body.
    ChecksumMismatch {
        /// CRC recorded in the trailer.
        expected: u32,
        /// CRC computed over the body.
        actual: u32,
    },
    /// The header is not a pcd checkpoint header.
    NotACheckpoint(String),
    /// The file was written by an incompatible format version — newer than
    /// this build writes, or older than the migration chain reaches.
    VersionMismatch {
        /// Newest version this build understands ([`CHECKPOINT_VERSION`]).
        expected: u64,
        /// Version found in the header.
        found: u64,
    },
    /// The checkpoint holds state for a different stage than the caller
    /// asked to resume.
    KindMismatch {
        /// Kind the caller expected.
        expected: String,
        /// Kind found in the header.
        found: String,
    },
    /// The payload is structurally invalid (bad JSON, wrong field types,
    /// wrong line count).
    Malformed(String),
    /// A stage file was saved by a run with other inputs (another
    /// molecule, bond length or ansatz), or carries no input key.
    InputsMismatch {
        /// The refused file.
        path: String,
        /// Input key of the resuming run.
        expected: String,
        /// Input key the file carries, if any.
        found: Option<String>,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io { path, message } => {
                write!(f, "checkpoint I/O on {path}: {message}")
            }
            CheckpointError::Truncated => write!(f, "checkpoint is truncated or missing a trailer"),
            CheckpointError::ChecksumMismatch { expected, actual } => write!(
                f,
                "checkpoint checksum mismatch: trailer {expected:#010x}, body {actual:#010x}"
            ),
            CheckpointError::NotACheckpoint(msg) => {
                write!(f, "not a pcd checkpoint: {msg}")
            }
            CheckpointError::VersionMismatch { expected, found } => write!(
                f,
                "checkpoint version {found} is not readable by this build (expects {expected})"
            ),
            CheckpointError::KindMismatch { expected, found } => write!(
                f,
                "checkpoint holds `{found}` state but `{expected}` was requested"
            ),
            CheckpointError::Malformed(msg) => write!(f, "malformed checkpoint payload: {msg}"),
            CheckpointError::InputsMismatch {
                path,
                expected,
                found,
            } => write!(
                f,
                "{path} was saved for other inputs (key {}, this run {expected}); \
                 resume with the inputs that wrote it or remove the file",
                found.as_deref().unwrap_or("none")
            ),
        }
    }
}

impl Error for CheckpointError {}

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) of `bytes`.
/// Same checksum the obs flight recorder seals its dumps with.
pub fn crc32(bytes: &[u8]) -> u32 {
    obs::crc32(bytes)
}

/// Encodes an `f64` as the 16-digit lowercase hex of its IEEE-754 bits —
/// the bit-exact interchange form used in checkpoint payloads.
pub fn f64_to_hex(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

/// Decodes [`f64_to_hex`] output back to the identical `f64`.
///
/// # Errors
///
/// [`CheckpointError::Malformed`] unless `s` is exactly 16 hex digits.
pub fn f64_from_hex(s: &str) -> Result<f64, CheckpointError> {
    if s.len() != 16 {
        return Err(CheckpointError::Malformed(format!(
            "expected 16 hex digits for an f64, got `{s}`"
        )));
    }
    u64::from_str_radix(s, 16)
        .map(f64::from_bits)
        .map_err(|_| CheckpointError::Malformed(format!("invalid f64 hex `{s}`")))
}

/// A parsed (or to-be-written) checkpoint: a kind tag plus payload records.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Which stage's state this is (`"vqe"`, `"yield"`, ...).
    pub kind: String,
    /// The run this checkpoint belongs to (format v2+): the batch job id of
    /// a supervised job's file, the input key of a VQE stage file, `None`
    /// otherwise and for migrated v1 files.
    pub job: Option<String>,
    /// One JSON record per payload line.
    pub payload: Vec<JsonValue>,
}

/// Migrates a checkpoint parsed at on-disk `version` up to
/// [`CHECKPOINT_VERSION`], one version step at a time. Each step owns the
/// payload/field rewrites its version introduced; v1→v2 is field-additive
/// (the `job` header field defaults to absent), so it is a no-op here.
///
/// # Errors
///
/// [`CheckpointError::VersionMismatch`] when `version` is outside
/// `MIN_CHECKPOINT_VERSION..=CHECKPOINT_VERSION`.
pub fn migrate(version: u64, ck: Checkpoint) -> Result<Checkpoint, CheckpointError> {
    if !(MIN_CHECKPOINT_VERSION..=CHECKPOINT_VERSION).contains(&version) {
        return Err(CheckpointError::VersionMismatch {
            expected: CHECKPOINT_VERSION,
            found: version,
        });
    }
    let mut ck = ck;
    for v in version..CHECKPOINT_VERSION {
        ck = match v {
            // v1 → v2: the `job` header field was introduced; v1 files
            // simply have none. Payload records are untouched.
            1 => ck,
            // Future versions add their rewrite step here.
            _ => ck,
        };
        obs::event!(
            "checkpoint.migrated",
            kind = ck.kind.as_str(),
            from = v,
            to = v + 1
        );
    }
    Ok(ck)
}

impl Checkpoint {
    /// A checkpoint of the given kind and payload records.
    pub fn new(kind: impl Into<String>, payload: Vec<JsonValue>) -> Self {
        Checkpoint {
            kind: kind.into(),
            job: None,
            payload,
        }
    }

    /// Tags the checkpoint with the run it belongs to (written into the v2
    /// header's `job` field).
    pub fn with_job(mut self, job: impl Into<String>) -> Self {
        self.job = Some(job.into());
        self
    }

    /// Serializes to the on-disk JSONL format (header, payload, CRC
    /// trailer).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut header = BTreeMap::new();
        header.insert(
            "magic".to_string(),
            JsonValue::String(CHECKPOINT_MAGIC.to_string()),
        );
        header.insert(
            "version".to_string(),
            JsonValue::Number(CHECKPOINT_VERSION as f64),
        );
        header.insert("kind".to_string(), JsonValue::String(self.kind.clone()));
        if let Some(job) = &self.job {
            header.insert("job".to_string(), JsonValue::String(job.clone()));
        }
        header.insert(
            "lines".to_string(),
            JsonValue::Number(self.payload.len() as f64),
        );
        let mut body = format!("{}\n", JsonValue::Object(header));
        for record in &self.payload {
            body.push_str(&record.to_string());
            body.push('\n');
        }
        let crc = crc32(body.as_bytes());
        let mut trailer = BTreeMap::new();
        trailer.insert("crc32".to_string(), JsonValue::Number(crc as f64));
        body.push_str(&JsonValue::Object(trailer).to_string());
        body.push('\n');
        body.into_bytes()
    }

    /// Parses and validates the on-disk format. The CRC is verified before
    /// the header or payload are parsed, so corruption anywhere in the body
    /// is reported as [`CheckpointError::ChecksumMismatch`].
    ///
    /// # Errors
    ///
    /// Any [`CheckpointError`] variant except `Io`/`KindMismatch`.
    pub fn from_bytes(bytes: &[u8]) -> Result<Checkpoint, CheckpointError> {
        let text = std::str::from_utf8(bytes)
            .map_err(|e| CheckpointError::Malformed(format!("not UTF-8: {e}")))?;
        let stripped = text.strip_suffix('\n').ok_or(CheckpointError::Truncated)?;
        let (body, trailer_line) = match stripped.rfind('\n') {
            Some(i) => (&text[..i + 1], &stripped[i + 1..]),
            None => return Err(CheckpointError::Truncated),
        };
        let trailer = json::parse(trailer_line).map_err(|_| CheckpointError::Truncated)?;
        let expected = trailer
            .get("crc32")
            .and_then(JsonValue::as_u64)
            .and_then(|v| u32::try_from(v).ok())
            .ok_or(CheckpointError::Truncated)?;
        let actual = crc32(body.as_bytes());
        if actual != expected {
            return Err(CheckpointError::ChecksumMismatch { expected, actual });
        }

        let mut lines = body.lines();
        let header_line = lines.next().ok_or(CheckpointError::Truncated)?;
        let header = json::parse(header_line)
            .map_err(|e| CheckpointError::NotACheckpoint(format!("unparseable header: {e}")))?;
        match header.get("magic").and_then(JsonValue::as_str) {
            Some(CHECKPOINT_MAGIC) => {}
            Some(other) => {
                return Err(CheckpointError::NotACheckpoint(format!(
                    "magic is `{other}`"
                )))
            }
            None => {
                return Err(CheckpointError::NotACheckpoint(
                    "header has no magic field".to_string(),
                ))
            }
        }
        let version = header
            .get("version")
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| CheckpointError::NotACheckpoint("header has no version".to_string()))?;
        if !(MIN_CHECKPOINT_VERSION..=CHECKPOINT_VERSION).contains(&version) {
            return Err(CheckpointError::VersionMismatch {
                expected: CHECKPOINT_VERSION,
                found: version,
            });
        }
        let kind = header
            .get("kind")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| CheckpointError::NotACheckpoint("header has no kind".to_string()))?
            .to_string();
        let declared = header
            .get("lines")
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| {
                CheckpointError::NotACheckpoint("header has no line count".to_string())
            })?;

        let mut payload = Vec::new();
        for line in lines {
            payload.push(
                json::parse(line)
                    .map_err(|e| CheckpointError::Malformed(format!("payload line: {e}")))?,
            );
        }
        if payload.len() as u64 != declared {
            return Err(CheckpointError::Malformed(format!(
                "header declares {declared} payload lines, found {}",
                payload.len()
            )));
        }
        let job = header
            .get("job")
            .and_then(JsonValue::as_str)
            .map(str::to_string);
        migrate(version, Checkpoint { kind, job, payload })
    }

    /// Writes the checkpoint to `path` via temp-file + atomic rename.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] on filesystem failure.
    pub fn write(&self, path: impl AsRef<Path>) -> Result<(), CheckpointError> {
        let path = path.as_ref();
        obs::atomic_write(path, &self.to_bytes()).map_err(|e| CheckpointError::Io {
            path: path.display().to_string(),
            message: e.to_string(),
        })?;
        obs::event!("checkpoint.written", kind = self.kind.as_str());
        obs::counter_add("checkpoint.writes", 1);
        Ok(())
    }

    /// Reads and validates a checkpoint from `path`.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] on filesystem failure, otherwise any
    /// validation error from [`Checkpoint::from_bytes`].
    pub fn read(path: impl AsRef<Path>) -> Result<Checkpoint, CheckpointError> {
        let path = path.as_ref();
        let bytes = std::fs::read(path).map_err(|e| CheckpointError::Io {
            path: path.display().to_string(),
            message: e.to_string(),
        })?;
        Checkpoint::from_bytes(&bytes)
    }

    /// Fails with [`CheckpointError::KindMismatch`] unless the checkpoint
    /// holds `expected` state.
    pub fn expect_kind(&self, expected: &str) -> Result<(), CheckpointError> {
        if self.kind == expected {
            Ok(())
        } else {
            Err(CheckpointError::KindMismatch {
                expected: expected.to_string(),
                found: self.kind.clone(),
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Checkpoint {
        let mut rec = BTreeMap::new();
        rec.insert("energy".to_string(), JsonValue::String(f64_to_hex(-1.137)));
        rec.insert("iteration".to_string(), JsonValue::Number(7.0));
        Checkpoint::new("scf", vec![JsonValue::Object(rec)])
    }

    #[test]
    fn round_trips_bit_exactly() {
        let ck = sample();
        let back = Checkpoint::from_bytes(&ck.to_bytes()).unwrap();
        assert_eq!(ck, back);
        let hex = back.payload[0].get("energy").unwrap().as_str().unwrap();
        assert_eq!(f64_from_hex(hex).unwrap(), -1.137);
    }

    #[test]
    fn crc32_matches_known_vector() {
        // IEEE CRC-32 of "123456789" is the classic check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn f64_hex_round_trips_extremes() {
        for v in [
            0.0,
            -0.0,
            1.0,
            -1.137e2,
            f64::MIN_POSITIVE,
            f64::MAX,
            f64::NEG_INFINITY,
        ] {
            let back = f64_from_hex(&f64_to_hex(v)).unwrap();
            assert_eq!(v.to_bits(), back.to_bits());
        }
        let nan = f64_from_hex(&f64_to_hex(f64::NAN)).unwrap();
        assert!(nan.is_nan());
    }

    #[test]
    fn bit_flip_in_payload_is_a_checksum_mismatch() {
        let mut bytes = sample().to_bytes();
        // Flip a bit in the middle of the payload region.
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        match Checkpoint::from_bytes(&bytes) {
            Err(CheckpointError::ChecksumMismatch { .. }) | Err(CheckpointError::Truncated) => {}
            other => panic!("expected a typed corruption error, got {other:?}"),
        }
    }

    #[test]
    fn truncation_is_typed() {
        let bytes = sample().to_bytes();
        for cut in [0, 1, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                Checkpoint::from_bytes(&bytes[..cut]).is_err(),
                "cut at {cut} must fail"
            );
        }
    }

    /// Rewrites the header's version field and recomputes the trailer so
    /// only the version differs from a well-formed file.
    fn rebuild_at_version(ck: &Checkpoint, version: &str) -> Vec<u8> {
        let text = String::from_utf8(ck.to_bytes()).unwrap();
        let bumped = text.replace(
            &format!("\"version\":{CHECKPOINT_VERSION}"),
            &format!("\"version\":{version}"),
        );
        let stripped = bumped.strip_suffix('\n').unwrap();
        let trailer_start = stripped.rfind('\n').unwrap() + 1;
        let body = &bumped[..trailer_start];
        format!("{body}{{\"crc32\":{}}}\n", crc32(body.as_bytes())).into_bytes()
    }

    #[test]
    fn version_mismatch_is_typed() {
        let too_new = rebuild_at_version(&sample(), "99");
        match Checkpoint::from_bytes(&too_new) {
            Err(CheckpointError::VersionMismatch {
                expected: CHECKPOINT_VERSION,
                found: 99,
            }) => {}
            other => panic!("expected VersionMismatch, got {other:?}"),
        }
        let too_old = rebuild_at_version(&sample(), "0");
        match Checkpoint::from_bytes(&too_old) {
            Err(CheckpointError::VersionMismatch { found: 0, .. }) => {}
            other => panic!("expected VersionMismatch, got {other:?}"),
        }
    }

    #[test]
    fn v1_files_migrate_and_decode() {
        let v1 = rebuild_at_version(&sample(), "1");
        let ck = Checkpoint::from_bytes(&v1).expect("v1 migrates");
        assert_eq!(ck.kind, "scf");
        assert_eq!(ck.job, None, "v1 files have no job tag");
        assert_eq!(ck.payload, sample().payload);
    }

    #[test]
    fn job_tag_round_trips_in_v2_header() {
        let ck = sample().with_job("job-007");
        let back = Checkpoint::from_bytes(&ck.to_bytes()).unwrap();
        assert_eq!(back.job.as_deref(), Some("job-007"));
        assert_eq!(ck, back);
    }

    #[test]
    fn wrong_kind_is_typed() {
        let ck = sample();
        assert!(ck.expect_kind("scf").is_ok());
        match ck.expect_kind("vqe") {
            Err(CheckpointError::KindMismatch { expected, found }) => {
                assert_eq!(expected, "vqe");
                assert_eq!(found, "scf");
            }
            other => panic!("expected KindMismatch, got {other:?}"),
        }
    }

    #[test]
    fn atomic_file_round_trip() {
        let dir = std::env::temp_dir().join("pcd-ckpt-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("scf.ckpt");
        let ck = sample();
        ck.write(&path).unwrap();
        let back = Checkpoint::read(&path).unwrap();
        assert_eq!(ck, back);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_io_error() {
        match Checkpoint::read("/nonexistent/definitely/missing.ckpt") {
            Err(CheckpointError::Io { .. }) => {}
            other => panic!("expected Io, got {other:?}"),
        }
    }
}
