//! Corruption-resistance tests for the checkpoint format: every way a
//! checkpoint file can be damaged — truncation at any byte, a flipped bit
//! anywhere, a rewritten header — must surface as a typed
//! [`CheckpointError`], never a panic, and never a silently-wrong decode.

use proptest::prelude::*;

use resilience::{decode_vqe, decode_yield, encode_vqe, encode_yield, Checkpoint, CheckpointError};
use vqe::driver::VqeCheckpoint;
use vqe::optimize::LbfgsState;

/// A representative checkpoint dense in float payloads (hex-encoded f64s,
/// nested curvature pairs) — the fields most sensitive to corruption.
fn sample_bytes() -> Vec<u8> {
    let state = VqeCheckpoint {
        lbfgs: LbfgsState {
            next_iteration: 41,
            x: vec![0.125, -3.5e-9, 1.0],
            f: -7.882_362_286_798_721,
            g: vec![1e-3, -2.5e-5, 0.0],
            s_list: vec![vec![0.5, 0.25, -0.75], vec![-0.04, 0.05, -0.06]],
            y_list: vec![vec![0.01, 0.02, 0.03], vec![0.125, 0.0, -0.125]],
            trace: vec![-7.1, -7.5, -7.882_362_286_798_721],
            evaluations: 123,
        },
    };
    encode_vqe(&state).to_bytes()
}

#[test]
fn pristine_bytes_decode() {
    let ck = Checkpoint::from_bytes(&sample_bytes()).expect("pristine checkpoint parses");
    assert!(decode_vqe(&ck).is_ok());
}

#[test]
fn every_single_truncation_point_is_a_typed_error() {
    // Exhaustive, not sampled: a checkpoint is small enough to try every
    // prefix. No prefix may parse (the CRC trailer covers everything) and
    // none may panic.
    let bytes = sample_bytes();
    for len in 0..bytes.len() {
        let r = Checkpoint::from_bytes(&bytes[..len]);
        assert!(r.is_err(), "truncation to {len} bytes must not parse");
    }
}

#[test]
fn version_bump_is_a_version_mismatch() {
    let bytes = sample_bytes();
    let text = String::from_utf8(bytes).unwrap();
    // Rewrite the header's version and re-seal the CRC so the mismatch is
    // reached at all (the checksum is verified first).
    let future = resilience::checkpoint::CHECKPOINT_VERSION + 1;
    let bumped = text.replacen(
        &format!("\"version\":{}", resilience::checkpoint::CHECKPOINT_VERSION),
        &format!("\"version\":{future}"),
        1,
    );
    assert_ne!(bumped, text, "version field must be present to bump");
    let body_end = bumped.trim_end_matches('\n').rfind('\n').unwrap() + 1;
    let crc = resilience::crc32(&bumped.as_bytes()[..body_end]);
    let resealed = format!("{}{{\"crc32\":{crc}}}\n", &bumped[..body_end]);
    match Checkpoint::from_bytes(resealed.as_bytes()) {
        Err(CheckpointError::VersionMismatch { expected, found }) => {
            assert_eq!(expected, resilience::checkpoint::CHECKPOINT_VERSION);
            assert_eq!(found, future);
        }
        other => panic!("expected VersionMismatch, got {other:?}"),
    }
}

#[test]
fn wrong_kind_decode_is_a_kind_mismatch() {
    let ck = Checkpoint::from_bytes(&sample_bytes()).unwrap();
    assert!(matches!(
        decode_yield(&ck),
        Err(CheckpointError::KindMismatch { .. })
    ));
}

#[test]
fn yield_checkpoint_survives_the_same_gauntlet() {
    let bytes = encode_yield(&arch::YieldCheckpoint {
        samples: 20_000,
        next_chunk: 250,
        good: 801,
    })
    .to_bytes();
    for len in 0..bytes.len() {
        assert!(Checkpoint::from_bytes(&bytes[..len]).is_err());
    }
    let ck = Checkpoint::from_bytes(&bytes).unwrap();
    assert_eq!(decode_yield(&ck).unwrap().next_chunk, 250);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Flipping any single bit anywhere in the file is either caught by
    /// the CRC (almost always) or, if it lands in the trailer itself,
    /// reported as a truncated/unreadable trailer — always a typed error.
    #[test]
    fn any_single_bit_flip_is_a_typed_error(
        pos in 0usize..sample_bytes().len(),
        bit in 0u8..8,
    ) {
        let mut bytes = sample_bytes();
        bytes[pos] ^= 1 << bit;
        if bytes == sample_bytes() {
            return Ok(()); // the flip was a no-op (cannot happen with XOR, but be safe)
        }
        let r = Checkpoint::from_bytes(&bytes);
        prop_assert!(r.is_err(), "bit {bit} of byte {pos} flipped yet the file parsed");
    }

    /// Random multi-byte stomps over the payload region are caught.
    #[test]
    fn random_payload_stomps_are_caught(
        start in 0usize..200,
        garbage in prop::collection::vec((0u16..256).prop_map(|v| v as u8), 1..32),
    ) {
        let mut bytes = sample_bytes();
        let start = start.min(bytes.len().saturating_sub(garbage.len() + 1));
        let before = bytes.clone();
        bytes[start..start + garbage.len()].copy_from_slice(&garbage);
        if bytes == before {
            return Ok(()); // garbage happened to equal the original bytes
        }
        prop_assert!(Checkpoint::from_bytes(&bytes).is_err());
    }

    /// Appending trailing junk after the sealed trailer is rejected too:
    /// the trailer must be the last line.
    #[test]
    fn trailing_junk_is_rejected(
        junk in prop::collection::vec((0u16..256).prop_map(|v| v as u8), 1..16),
    ) {
        let mut bytes = sample_bytes();
        bytes.extend_from_slice(&junk);
        prop_assert!(Checkpoint::from_bytes(&bytes).is_err());
    }
}
