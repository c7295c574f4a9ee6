//! Checkpoint format-version migration: a committed, byte-frozen v1
//! checkpoint file must keep parsing through the v1→v2 migration hook
//! forever, and freshly written checkpoints must carry the current
//! version (with the v2 job tag when one is set). The checks stay at the
//! container level: header, kind, job tag and payload records.

use pauli_codesign::resilience::checkpoint::{migrate, CHECKPOINT_VERSION, MIN_CHECKPOINT_VERSION};
use pauli_codesign::resilience::{f64_from_hex, Checkpoint, CheckpointError};

const V1_FIXTURE: &[u8] = include_bytes!("fixtures/checkpoint-v1.ckpt");

#[test]
fn committed_v1_fixture_decodes_through_migration() {
    let ck = Checkpoint::from_bytes(V1_FIXTURE).expect("v1 fixture parses");
    assert_eq!(ck.kind, "scf");
    assert_eq!(ck.job, None, "v1 has no job tag");
    assert_eq!(ck.payload.len(), 2);
    let head = &ck.payload[0];
    assert_eq!(head.get("next_iteration").and_then(|v| v.as_u64()), Some(3));
    let energy = head.get("energy").and_then(|v| v.as_str()).expect("hex");
    assert_eq!(
        f64_from_hex(energy).expect("f64").to_bits(),
        0xbff1_8cde_3df2_0c12
    );
    let matrix = &ck.payload[1];
    assert_eq!(matrix.get("rows").and_then(|v| v.as_u64()), Some(2));
    assert_eq!(matrix.get("cols").and_then(|v| v.as_u64()), Some(2));
}

#[test]
fn v1_fixture_reencodes_at_the_current_version() {
    // Migration is decode-time only; anything written back is current.
    let ck = Checkpoint::from_bytes(V1_FIXTURE).expect("v1 fixture parses");
    let fresh = ck.to_bytes();
    let header = String::from_utf8_lossy(&fresh);
    let header = header.lines().next().unwrap_or("");
    assert!(
        header.contains(&format!("\"version\":{CHECKPOINT_VERSION}")),
        "rewritten header: {header}"
    );
    let reread = Checkpoint::from_bytes(&fresh).expect("rewritten checkpoint parses");
    assert_eq!(reread, ck);
}

#[test]
fn job_tag_survives_a_disk_round_trip() {
    let ck = Checkpoint::from_bytes(V1_FIXTURE).expect("v1 fixture parses");
    let tagged = ck.clone().with_job("h2-3");
    let bytes = tagged.to_bytes();
    let back = Checkpoint::from_bytes(&bytes).expect("tagged checkpoint parses");
    assert_eq!(back.job.as_deref(), Some("h2-3"));
    assert_eq!(back.payload, ck.payload, "the tag leaves the payload alone");
}

#[test]
fn versions_outside_the_supported_range_are_rejected() {
    let ck = Checkpoint::from_bytes(V1_FIXTURE).expect("v1 fixture parses");
    for bad in [MIN_CHECKPOINT_VERSION - 1, CHECKPOINT_VERSION + 1] {
        match migrate(bad, ck.clone()) {
            Err(CheckpointError::VersionMismatch { expected, found }) => {
                assert_eq!(expected, CHECKPOINT_VERSION);
                assert_eq!(found, bad);
            }
            other => panic!("version {bad}: expected VersionMismatch, got {other:?}"),
        }
    }
    // In-range versions pass through unchanged in content.
    for good in MIN_CHECKPOINT_VERSION..=CHECKPOINT_VERSION {
        let migrated = migrate(good, ck.clone()).expect("in-range version migrates");
        assert_eq!(migrated.payload, ck.payload);
    }
}
