//! Parameter importance estimation — the paper's Algorithm 1 (§III-A).
//!
//! For every ansatz Pauli string `P_a` and every Hamiltonian string `P_H`,
//! count the qubits on which tuning `P_a`'s parameter is unlikely to affect
//! measuring `P_H` (either operator is `I`, or both are equal) — the decay
//! factor `d` — and accumulate `2^{-d}·|w_H|`. A parameter's importance is
//! the sum over its strings.

use pauli::WeightedPauliSum;

use crate::ir::PauliIr;

/// Importance scores per parameter.
///
/// # Examples
///
/// ```no_run
/// use ansatz::{parameter_importance, uccsd::UccsdAnsatz};
/// use chem::Benchmark;
///
/// let system = Benchmark::H2.build(0.74)?;
/// let ansatz = UccsdAnsatz::for_system(&system);
/// let scores = parameter_importance(ansatz.ir(), system.qubit_hamiltonian());
/// // The double excitation dominates H2's correlation energy.
/// assert_eq!(scores.ranking()[0], 2);
/// # Ok::<(), chem::ChemError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ImportanceScores {
    scores: Vec<f64>,
}

impl ImportanceScores {
    /// The raw score of each parameter (index = parameter id).
    pub fn scores(&self) -> &[f64] {
        &self.scores
    }

    /// Parameter ids sorted by decreasing importance; ties broken by the
    /// original parameter order (stable, deterministic).
    pub fn ranking(&self) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..self.scores.len()).collect();
        idx.sort_by(|&a, &b| self.scores[b].total_cmp(&self.scores[a]).then(a.cmp(&b)));
        idx
    }

    /// The top `k` parameter ids by importance.
    pub fn top(&self, k: usize) -> Vec<usize> {
        let mut r = self.ranking();
        r.truncate(k);
        r
    }
}

/// The paper's importance decay factor `d` computed on symplectic bitmasks
/// in O(1): the number of qubits where `P_a` is `I`, `P_H` is `I`, or both
/// operators agree.
#[inline]
fn decay_factor(ax: u64, az: u64, hx: u64, hz: u64, mask: u64) -> u32 {
    let a_support = ax | az;
    let h_support = hx | hz;
    let equal = !((ax ^ hx) | (az ^ hz));
    ((!a_support | !h_support | equal) & mask).count_ones()
}

/// Runs Algorithm 1: scores every parameter of the IR against the target
/// Hamiltonian. `O(#P_a · #P_H)` with O(1) per pair.
///
/// # Panics
///
/// Panics if the IR and Hamiltonian qubit counts differ.
pub fn parameter_importance(ir: &PauliIr, hamiltonian: &WeightedPauliSum) -> ImportanceScores {
    assert_eq!(
        ir.num_qubits(),
        hamiltonian.num_qubits(),
        "ansatz and Hamiltonian must share the qubit register"
    );
    let mut span = obs::span("ansatz.importance");
    span.record("ansatz_strings", ir.len());
    span.record("hamiltonian_terms", hamiltonian.len());
    span.record("terms_scored", ir.len() * hamiltonian.len());
    obs::counter_add(
        "ansatz.importance.pairs_scored",
        (ir.len() * hamiltonian.len()) as u64,
    );
    let n = ir.num_qubits();
    let mask: u64 = if n == 64 { u64::MAX } else { (1u64 << n) - 1 };

    // 2^-d is exact for every d ≤ 64, so the table reproduces `powi`
    // bit for bit; the Hamiltonian side of every pair is read once.
    let decay: [f64; 65] = std::array::from_fn(|d| 0.5f64.powi(d as i32));
    let terms: Vec<(f64, u64, u64)> = hamiltonian
        .iter()
        .map(|(w, ph)| (w.abs(), ph.x_mask(), ph.z_mask()))
        .collect();

    let mut scores = vec![0.0; ir.num_parameters()];
    for entry in ir.entries() {
        let ax = entry.string.x_mask();
        let az = entry.string.z_mask();
        let mut s = 0.0;
        for &(w, hx, hz) in &terms {
            s += w * decay[decay_factor(ax, az, hx, hz, mask) as usize];
        }
        scores[entry.param] += s;
    }
    ImportanceScores { scores }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::IrEntry;
    use pauli::PauliString;

    fn ir_with(strings: &[(&str, usize)]) -> PauliIr {
        let n = strings[0].0.len();
        let mut ir = PauliIr::new(n, 0);
        for &(s, p) in strings {
            ir.push(IrEntry {
                string: s.parse().unwrap(),
                param: p,
                coefficient: 1.0,
            });
        }
        ir
    }

    fn ham(terms: &[(f64, &str)]) -> WeightedPauliSum {
        let n = terms[0].1.len();
        WeightedPauliSum::from_terms(
            n,
            terms
                .iter()
                .map(|&(w, s)| (w, s.parse::<PauliString>().unwrap())),
        )
    }

    #[test]
    fn decay_counts_paper_figure4_example() {
        // From the paper's Figure 4 walk-through: exactly the three rules.
        let pa: PauliString = "XIXY".parse().unwrap();
        let ph: PauliString = "IZXZ".parse().unwrap();
        let d = decay_factor(pa.x_mask(), pa.z_mask(), ph.x_mask(), ph.z_mask(), 0b1111);
        assert_eq!(d, 3);
        assert_eq!(d, pa.importance_decay_factor(&ph));
    }

    #[test]
    fn fast_decay_matches_reference_implementation() {
        // Cross-validate the bitmask version against the per-qubit method
        // on a grid of string pairs.
        let alphabet = ["IIII", "XYZX", "ZZII", "IXIX", "YYYY", "XZYI"];
        for a in alphabet {
            for h in alphabet {
                let pa: PauliString = a.parse().unwrap();
                let ph: PauliString = h.parse().unwrap();
                let fast = decay_factor(pa.x_mask(), pa.z_mask(), ph.x_mask(), ph.z_mask(), 0b1111);
                assert_eq!(fast, pa.importance_decay_factor(&ph), "{a} vs {h}");
            }
        }
    }

    /// Algorithm 1 with `powi` per pair: the oracle the decay table must
    /// reproduce bit for bit.
    fn powi_oracle(ir: &PauliIr, hamiltonian: &WeightedPauliSum) -> Vec<f64> {
        let n = ir.num_qubits();
        let mask: u64 = if n == 64 { u64::MAX } else { (1u64 << n) - 1 };
        let mut scores = vec![0.0; ir.num_parameters()];
        for entry in ir.entries() {
            let (ax, az) = (entry.string.x_mask(), entry.string.z_mask());
            let mut s = 0.0;
            for (w, ph) in hamiltonian.iter() {
                let d = decay_factor(ax, az, ph.x_mask(), ph.z_mask(), mask);
                s += w.abs() * (0.5f64).powi(d as i32);
            }
            scores[entry.param] += s;
        }
        scores
    }

    #[test]
    fn scores_are_bit_identical_to_the_powi_oracle() {
        use crate::uccsd::UccsdAnsatz;
        use chem::Benchmark;

        for molecule in [
            Benchmark::H2,
            Benchmark::LiH,
            Benchmark::H2O,
            Benchmark::BeH2,
        ] {
            let system = molecule.build_equilibrium().unwrap();
            let ir = UccsdAnsatz::for_system(&system).into_ir();
            let h = system.qubit_hamiltonian();
            let fast: Vec<u64> = parameter_importance(&ir, h)
                .scores()
                .iter()
                .map(|s| s.to_bits())
                .collect();
            let slow: Vec<u64> = powi_oracle(&ir, h).iter().map(|s| s.to_bits()).collect();
            assert_eq!(fast, slow, "{molecule}");
        }
        // Every decay factor 0..=64 on a 64-qubit register.
        let mut ir = PauliIr::new(64, 0);
        ir.push(IrEntry {
            string: PauliString::from_symplectic(64, u64::MAX, 0),
            param: 0,
            coefficient: 1.0,
        });
        let h = WeightedPauliSum::from_terms(
            64,
            (0..=64u32).map(|k| {
                let z = if k == 64 { u64::MAX } else { (1u64 << k) - 1 };
                (0.1 + k as f64, PauliString::from_symplectic(64, 0, z))
            }),
        );
        assert_eq!(
            parameter_importance(&ir, &h).scores()[0].to_bits(),
            powi_oracle(&ir, &h)[0].to_bits()
        );
    }

    #[test]
    fn identical_strings_decay_fully() {
        let ir = ir_with(&[("XYZ", 0)]);
        let h = ham(&[(2.0, "XYZ")]);
        let s = parameter_importance(&ir, &h);
        // d = 3 on every qubit → score = 2·2⁻³.
        assert!((s.scores()[0] - 0.25).abs() < 1e-12);
    }

    #[test]
    fn fully_different_strings_have_no_decay() {
        let ir = ir_with(&[("XXX", 0)]);
        let h = ham(&[(1.0, "ZZZ")]);
        let s = parameter_importance(&ir, &h);
        assert!((s.scores()[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn weights_scale_scores_linearly() {
        let ir = ir_with(&[("XX", 0)]);
        let h1 = ham(&[(1.0, "ZZ")]);
        let h3 = ham(&[(-3.0, "ZZ")]);
        let s1 = parameter_importance(&ir, &h1).scores()[0];
        let s3 = parameter_importance(&ir, &h3).scores()[0];
        assert!((s3 - 3.0 * s1).abs() < 1e-12);
    }

    #[test]
    fn shared_parameters_accumulate() {
        let ir = ir_with(&[("XX", 0), ("YY", 0), ("ZZ", 1)]);
        let h = ham(&[(1.0, "ZZ")]);
        let s = parameter_importance(&ir, &h);
        // Param 0 gets XX and YY contributions; param 1 only ZZ (d=2).
        assert!((s.scores()[0] - 2.0).abs() < 1e-12);
        assert!((s.scores()[1] - 0.25).abs() < 1e-12);
    }

    #[test]
    fn ranking_is_descending_and_stable() {
        let ir = ir_with(&[("XX", 0), ("ZZ", 1), ("YY", 2)]);
        let h = ham(&[(1.0, "ZZ")]);
        let s = parameter_importance(&ir, &h);
        let r = s.ranking();
        // XX and YY tie at score 1.0 (d=0); ZZ decays fully.
        assert_eq!(r, vec![0, 2, 1]);
        assert_eq!(s.top(2), vec![0, 2]);
    }
}
