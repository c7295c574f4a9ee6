//! Codecs between in-memory stage checkpoints and the on-disk
//! [`Checkpoint`] format.
//!
//! Every floating-point field goes through the bit-exact hex encoding of
//! [`checkpoint::f64_to_hex`](crate::checkpoint::f64_to_hex), so a decode ∘
//! encode round-trip reproduces the state to the last bit — the property
//! that makes interrupted-then-resumed runs indistinguishable from
//! uninterrupted ones.

use std::collections::BTreeMap;

use arch::YieldCheckpoint;
use obs::json::JsonValue;
use vqe::driver::{VqeCheckpoint, VqeResult};
use vqe::optimize::LbfgsState;

use crate::checkpoint::{f64_from_hex, f64_to_hex, Checkpoint, CheckpointError};

/// Checkpoint kind tag for VQE optimizer (L-BFGS) state.
pub const KIND_VQE: &str = "vqe";
/// Checkpoint kind tag for yield Monte-Carlo tallies.
pub const KIND_YIELD: &str = "yield";
/// Checkpoint kind tag for a *completed* VQE stage — the done-marker a
/// resumed pipeline uses to skip the stage instead of recomputing it.
pub const KIND_VQE_RESULT: &str = "vqe-result";

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

fn hex(v: f64) -> JsonValue {
    JsonValue::String(f64_to_hex(v))
}

fn floats(vs: &[f64]) -> JsonValue {
    JsonValue::Array(vs.iter().map(|&v| hex(v)).collect())
}

fn nested(vs: &[Vec<f64>]) -> JsonValue {
    JsonValue::Array(vs.iter().map(|v| floats(v)).collect())
}

fn get<'a>(record: &'a JsonValue, field: &str) -> Result<&'a JsonValue, CheckpointError> {
    record
        .get(field)
        .ok_or_else(|| CheckpointError::Malformed(format!("missing field `{field}`")))
}

fn get_usize(record: &JsonValue, field: &str) -> Result<usize, CheckpointError> {
    get(record, field)?
        .as_u64()
        .and_then(|v| usize::try_from(v).ok())
        .ok_or_else(|| CheckpointError::Malformed(format!("field `{field}` is not an integer")))
}

fn get_f64(record: &JsonValue, field: &str) -> Result<f64, CheckpointError> {
    let s = get(record, field)?
        .as_str()
        .ok_or_else(|| CheckpointError::Malformed(format!("field `{field}` is not an f64 hex")))?;
    f64_from_hex(s)
}

fn get_floats(record: &JsonValue, field: &str) -> Result<Vec<f64>, CheckpointError> {
    match get(record, field)? {
        JsonValue::Array(items) => items
            .iter()
            .map(|item| {
                item.as_str()
                    .ok_or_else(|| {
                        CheckpointError::Malformed(format!("field `{field}` has a non-hex entry"))
                    })
                    .and_then(f64_from_hex)
            })
            .collect(),
        _ => Err(CheckpointError::Malformed(format!(
            "field `{field}` is not an array"
        ))),
    }
}

fn get_nested(record: &JsonValue, field: &str) -> Result<Vec<Vec<f64>>, CheckpointError> {
    match get(record, field)? {
        JsonValue::Array(rows) => rows
            .iter()
            .map(|row| match row {
                JsonValue::Array(items) => items
                    .iter()
                    .map(|item| {
                        item.as_str()
                            .ok_or_else(|| {
                                CheckpointError::Malformed(format!(
                                    "field `{field}` has a non-hex entry"
                                ))
                            })
                            .and_then(f64_from_hex)
                    })
                    .collect(),
                _ => Err(CheckpointError::Malformed(format!(
                    "field `{field}` has a non-array row"
                ))),
            })
            .collect(),
        _ => Err(CheckpointError::Malformed(format!(
            "field `{field}` is not an array"
        ))),
    }
}

/// Encodes VQE optimizer state as a `"vqe"` checkpoint. The record keeps
/// its `"optimizer":"lbfgs"` tag.
pub fn encode_vqe(state: &VqeCheckpoint) -> Checkpoint {
    let s = &state.lbfgs;
    let record = obj(vec![
        ("optimizer", JsonValue::String("lbfgs".to_string())),
        ("next_iteration", num(s.next_iteration)),
        ("evaluations", num(s.evaluations)),
        ("f", hex(s.f)),
        ("x", floats(&s.x)),
        ("g", floats(&s.g)),
        ("s_list", nested(&s.s_list)),
        ("y_list", nested(&s.y_list)),
        ("trace", floats(&s.trace)),
    ]);
    Checkpoint::new(KIND_VQE, vec![record])
}

/// Decodes a `"vqe"` checkpoint back to VQE optimizer state.
///
/// # Errors
///
/// [`CheckpointError::KindMismatch`], or [`CheckpointError::Malformed`]
/// for a bad record or an optimizer tag other than `lbfgs`.
pub fn decode_vqe(ck: &Checkpoint) -> Result<VqeCheckpoint, CheckpointError> {
    ck.expect_kind(KIND_VQE)?;
    let record = match ck.payload.as_slice() {
        [record] => record,
        _ => {
            return Err(CheckpointError::Malformed(format!(
                "vqe checkpoint needs exactly 1 payload line, found {}",
                ck.payload.len()
            )))
        }
    };
    match get(record, "optimizer")?.as_str() {
        Some("lbfgs") => {}
        Some(other) => {
            return Err(CheckpointError::Malformed(format!(
                "unknown optimizer `{other}`"
            )))
        }
        None => {
            return Err(CheckpointError::Malformed(
                "vqe checkpoint has no optimizer tag".to_string(),
            ))
        }
    }
    Ok(VqeCheckpoint {
        lbfgs: LbfgsState {
            next_iteration: get_usize(record, "next_iteration")?,
            x: get_floats(record, "x")?,
            f: get_f64(record, "f")?,
            g: get_floats(record, "g")?,
            s_list: get_nested(record, "s_list")?,
            y_list: get_nested(record, "y_list")?,
            trace: get_floats(record, "trace")?,
            evaluations: get_usize(record, "evaluations")?,
        },
    })
}

/// Encodes a finished VQE result as a `"vqe-result"` done-marker.
pub fn encode_vqe_result(result: &VqeResult) -> Checkpoint {
    Checkpoint::new(
        KIND_VQE_RESULT,
        vec![obj(vec![
            ("energy", hex(result.energy)),
            ("params", floats(&result.params)),
            ("iterations", num(result.iterations)),
            ("evaluations", num(result.evaluations)),
            ("trace", floats(&result.trace)),
            ("converged", JsonValue::Bool(result.converged)),
        ])],
    )
}

/// Decodes a `"vqe-result"` done-marker back to the finished result.
///
/// # Errors
///
/// [`CheckpointError::KindMismatch`] or [`CheckpointError::Malformed`].
pub fn decode_vqe_result(ck: &Checkpoint) -> Result<VqeResult, CheckpointError> {
    ck.expect_kind(KIND_VQE_RESULT)?;
    let record = match ck.payload.as_slice() {
        [record] => record,
        _ => {
            return Err(CheckpointError::Malformed(format!(
                "vqe-result checkpoint needs exactly 1 payload line, found {}",
                ck.payload.len()
            )))
        }
    };
    let converged = get(record, "converged")?
        .as_bool()
        .ok_or_else(|| CheckpointError::Malformed("field `converged` is not a bool".to_string()))?;
    Ok(VqeResult {
        energy: get_f64(record, "energy")?,
        params: get_floats(record, "params")?,
        iterations: get_usize(record, "iterations")?,
        evaluations: get_usize(record, "evaluations")?,
        trace: get_floats(record, "trace")?,
        converged,
    })
}

/// Encodes yield Monte-Carlo tallies as a `"yield"` checkpoint.
pub fn encode_yield(state: &YieldCheckpoint) -> Checkpoint {
    Checkpoint::new(
        KIND_YIELD,
        vec![obj(vec![
            ("samples", num(state.samples)),
            ("next_chunk", num(state.next_chunk)),
            ("good", num(state.good)),
        ])],
    )
}

/// Decodes a `"yield"` checkpoint back to Monte-Carlo tallies.
///
/// # Errors
///
/// [`CheckpointError::KindMismatch`] or [`CheckpointError::Malformed`].
pub fn decode_yield(ck: &Checkpoint) -> Result<YieldCheckpoint, CheckpointError> {
    ck.expect_kind(KIND_YIELD)?;
    let record = match ck.payload.as_slice() {
        [record] => record,
        _ => {
            return Err(CheckpointError::Malformed(format!(
                "yield checkpoint needs exactly 1 payload line, found {}",
                ck.payload.len()
            )))
        }
    };
    Ok(YieldCheckpoint {
        samples: get_usize(record, "samples")?,
        next_chunk: get_usize(record, "next_chunk")?,
        good: get_usize(record, "good")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lbfgs_state() -> VqeCheckpoint {
        VqeCheckpoint {
            lbfgs: LbfgsState {
                next_iteration: 9,
                x: vec![0.1, -0.2, 1.0 / 3.0],
                f: -7.882_362_286_798_4,
                g: vec![1e-3, -2e-5, 0.0],
                s_list: vec![vec![0.01, 0.02, 0.03], vec![-0.04, 0.05, -0.06]],
                y_list: vec![vec![0.5, -0.5, 0.25], vec![0.125, 0.0, -0.125]],
                trace: vec![-7.0, -7.5, -7.88],
                evaluations: 31,
            },
        }
    }

    #[test]
    fn vqe_lbfgs_round_trips_bit_exactly() {
        let state = lbfgs_state();
        let bytes = encode_vqe(&state).to_bytes();
        let decoded = decode_vqe(&Checkpoint::from_bytes(&bytes).unwrap()).unwrap();
        assert_eq!(state, decoded);
    }

    #[test]
    fn vqe_records_of_other_optimizers_are_malformed() {
        for tag in ["nelder-mead", "spsa"] {
            let mut ck = encode_vqe(&lbfgs_state());
            if let JsonValue::Object(fields) = &mut ck.payload[0] {
                fields.insert("optimizer".to_string(), JsonValue::String(tag.to_string()));
            }
            let back = Checkpoint::from_bytes(&ck.to_bytes()).unwrap();
            assert!(
                matches!(decode_vqe(&back), Err(CheckpointError::Malformed(_))),
                "{tag}"
            );
        }
    }

    #[test]
    fn yield_round_trips() {
        let state = YieldCheckpoint {
            samples: 20_000,
            next_chunk: 17,
            good: 801,
        };
        let bytes = encode_yield(&state).to_bytes();
        let decoded = decode_yield(&Checkpoint::from_bytes(&bytes).unwrap()).unwrap();
        assert_eq!(state, decoded);
    }

    #[test]
    fn vqe_result_round_trips_bit_exactly() {
        let result = VqeResult {
            energy: -7.880_712_345_678_9,
            params: vec![0.1, -0.25, 3.0e-17],
            iterations: 6,
            evaluations: 55,
            trace: vec![-7.1, -7.8, -7.880_712_345_678_9],
            converged: true,
        };
        let bytes = encode_vqe_result(&result).to_bytes();
        let decoded = decode_vqe_result(&Checkpoint::from_bytes(&bytes).unwrap()).unwrap();
        assert_eq!(decoded.energy.to_bits(), result.energy.to_bits());
        assert_eq!(decoded.params, result.params);
        assert_eq!(decoded.trace, result.trace);
        assert_eq!(decoded.iterations, 6);
        assert!(decoded.converged);
    }

    #[test]
    fn cross_kind_decode_is_a_kind_mismatch() {
        let y = encode_yield(&YieldCheckpoint {
            samples: 64,
            next_chunk: 0,
            good: 0,
        });
        assert!(matches!(
            decode_vqe(&y),
            Err(CheckpointError::KindMismatch { .. })
        ));
    }

    #[test]
    fn vqe_payload_without_its_record_is_malformed() {
        let mut ck = encode_vqe(&lbfgs_state());
        ck.payload.pop();
        let err = decode_vqe(&ck).unwrap_err();
        assert!(matches!(err, CheckpointError::Malformed(_)));
    }
}
