//! Exact pure-state simulation.

use circuit::{Circuit, Gate};
use numeric::Complex64;
use pauli::{flip, PauliString, WeightedPauliSum};

use crate::rotation::{rotate_run_diagonal, rotate_run_pair, PauliRotation};

/// A pure quantum state on `n ≤ 24` qubits.
///
/// Amplitudes are indexed by computational-basis integers where bit `i` of
/// the index is the state of qubit `i`.
///
/// # Examples
///
/// ```
/// use sim::Statevector;
///
/// let sv = Statevector::basis_state(3, 0b101);
/// assert_eq!(sv.probability(0b101), 1.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Statevector {
    num_qubits: usize,
    amps: Vec<Complex64>,
}

impl Statevector {
    /// The all-zeros state `|0…0⟩`.
    ///
    /// # Panics
    ///
    /// Panics if `num_qubits` is zero or exceeds 24 (16 GiB of amplitudes).
    pub fn zero_state(num_qubits: usize) -> Self {
        Statevector::basis_state(num_qubits, 0)
    }

    /// A computational basis state `|b⟩`.
    ///
    /// # Panics
    ///
    /// Panics if `num_qubits` is out of the supported range or `b` has bits
    /// beyond the register.
    pub fn basis_state(num_qubits: usize, b: u64) -> Self {
        assert!((1..=24).contains(&num_qubits), "1..=24 qubits supported");
        let dim = match 1usize.checked_shl(num_qubits as u32) {
            Some(dim) => dim,
            None => panic!("statevector dimension 2^{num_qubits} overflows usize"),
        };
        assert!((b as usize) < dim, "basis index outside register");
        let mut amps = vec![Complex64::ZERO; dim];
        amps[b as usize] = Complex64::ONE;
        Statevector { num_qubits, amps }
    }

    /// Builds a state from raw amplitudes (normalized by the caller).
    ///
    /// # Panics
    ///
    /// Panics if the length is not a power of two in the supported range.
    pub fn from_amplitudes(amps: Vec<Complex64>) -> Self {
        let dim = amps.len();
        assert!(
            dim.is_power_of_two() && dim >= 2,
            "length must be a power of two ≥ 2"
        );
        let num_qubits = dim.trailing_zeros() as usize;
        assert!(num_qubits <= 24, "1..=24 qubits supported");
        Statevector { num_qubits, amps }
    }

    /// Number of qubits.
    #[inline]
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Borrows the amplitude vector.
    #[inline]
    pub fn amplitudes(&self) -> &[Complex64] {
        &self.amps
    }

    /// Probability of measuring basis state `b`.
    pub fn probability(&self, b: u64) -> f64 {
        self.amps[b as usize].norm_sqr()
    }

    /// The 2-norm of the state (1 for physical states).
    pub fn norm(&self) -> f64 {
        self.amps.iter().map(|a| a.norm_sqr()).sum::<f64>().sqrt()
    }

    /// Inner product `⟨self|other⟩`.
    ///
    /// # Panics
    ///
    /// Panics if qubit counts differ.
    pub fn inner(&self, other: &Statevector) -> Complex64 {
        assert_eq!(self.num_qubits, other.num_qubits, "qubit counts must match");
        self.amps
            .iter()
            .zip(&other.amps)
            .map(|(a, b)| a.conj() * *b)
            .sum()
    }

    /// Fidelity `|⟨self|other⟩|²`.
    pub fn fidelity(&self, other: &Statevector) -> f64 {
        self.inner(other).norm_sqr()
    }

    /// Applies a single gate.
    ///
    /// # Panics
    ///
    /// Panics if the gate addresses qubits outside the register.
    pub fn apply_gate(&mut self, gate: &Gate) {
        match *gate {
            Gate::Cnot { control, target } => self.apply_cnot(control, target),
            Gate::Swap(a, b) => self.apply_swap(a, b),
            ref g => {
                let q = g.qubits()[0];
                let m = g.single_qubit_matrix();
                self.apply_single_qubit_matrix(q, &m);
            }
        }
    }

    /// Applies every gate of a circuit in order.
    ///
    /// # Panics
    ///
    /// Panics if the circuit is wider than the state.
    pub fn apply_circuit(&mut self, circuit: &Circuit) {
        assert!(
            circuit.num_qubits() <= self.num_qubits,
            "circuit wider than state"
        );
        for g in circuit {
            self.apply_gate(g);
        }
    }

    /// Applies a 2×2 unitary `[u00,u01,u10,u11]` to qubit `q`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn apply_single_qubit_matrix(&mut self, q: usize, m: &[Complex64; 4]) {
        assert!(q < self.num_qubits, "qubit out of range");
        let stride = 1usize << q;
        let block = stride << 1;
        // Chunks are a fixed power-of-two multiple of the pair block, so
        // every (lo, hi) pair lives in one chunk and results are identical
        // at every thread count (see the `par` crate docs).
        let chunk_len = par::DEFAULT_CHUNK.max(block);
        let m = *m;
        par::for_each_chunk_mut(&mut self.amps, chunk_len, move |_, amps| {
            let mut base = 0;
            while base < amps.len() {
                for lo in base..base + stride {
                    let hi = lo + stride;
                    let a0 = amps[lo];
                    let a1 = amps[hi];
                    amps[lo] = m[0] * a0 + m[1] * a1;
                    amps[hi] = m[2] * a0 + m[3] * a1;
                }
                base += block;
            }
        });
    }

    fn apply_cnot(&mut self, control: usize, target: usize) {
        assert!(
            control < self.num_qubits && target < self.num_qubits,
            "qubit out of range"
        );
        assert_ne!(control, target, "control equals target");
        let cbit = 1usize << control;
        let tbit = 1usize << target;
        let (p, q) = (control.min(target), control.max(target));
        // Enumerate only the dim/4 pairs with control=1, target=0: spread
        // each quarter-subspace index k across the bit positions p and q.
        for k in 0..self.amps.len() >> 2 {
            let low = k & ((1 << p) - 1);
            let mid = (k >> p) & ((1 << (q - 1 - p)) - 1);
            let high = k >> (q - 1);
            let base = (high << (q + 1)) | (mid << (p + 1)) | low;
            let i = base | cbit;
            self.amps.swap(i, i | tbit);
        }
    }

    fn apply_swap(&mut self, a: usize, b: usize) {
        assert!(
            a < self.num_qubits && b < self.num_qubits,
            "qubit out of range"
        );
        assert_ne!(a, b, "swap of identical qubits");
        let abit = 1usize << a;
        let bbit = 1usize << b;
        let (p, q) = (a.min(b), a.max(b));
        // Enumerate only the dim/4 pairs with qubit a=1, qubit b=0 and
        // exchange them with their (a=0, b=1) partners.
        for k in 0..self.amps.len() >> 2 {
            let low = k & ((1 << p) - 1);
            let mid = (k >> p) & ((1 << (q - 1 - p)) - 1);
            let high = k >> (q - 1);
            let base = (high << (q + 1)) | (mid << (p + 1)) | low;
            self.amps.swap(base | abit, base | bbit);
        }
    }

    /// Applies the Pauli evolution `exp(-i·θ/2·P)` directly, without gate
    /// decomposition — one O(2ⁿ) sweep per string. This is the per-string
    /// kernel and the oracle for the fused
    /// [`apply_pauli_rotations`](Self::apply_pauli_rotations), which the
    /// VQE inner loop uses.
    ///
    /// Uses `P² = I`: `exp(-i·θ/2·P) = cos(θ/2)·I − i·sin(θ/2)·P`.
    ///
    /// # Panics
    ///
    /// Panics if the string width differs from the state.
    pub fn apply_pauli_evolution(&mut self, p: &PauliString, theta: f64) {
        assert_eq!(
            p.num_qubits(),
            self.num_qubits,
            "Pauli width must match state"
        );
        let (c, s) = ((theta / 2.0).cos(), (theta / 2.0).sin());
        let cc = Complex64::from_real(c);
        let mis = Complex64::new(0.0, -s); // -i·sin(θ/2)
        let x = p.x_mask();
        let z = p.z_mask();
        let ny = (x & z).count_ones();
        let base_phase = pauli::Phase::from_power_of_i(ny).to_complex();

        if x == 0 {
            // Diagonal phase kernel: amp[b] *= exp(-i·θ/2·s_b), s_b = ±1.
            let plus = cc + mis;
            let minus = cc - mis;
            par::for_each_chunk_mut(&mut self.amps, par::DEFAULT_CHUNK, move |offset, amps| {
                for (i, amp) in amps.iter_mut().enumerate() {
                    let b = (offset + i) as u64;
                    let factor = if (b & z).count_ones().is_multiple_of(2) {
                        plus
                    } else {
                        minus
                    };
                    *amp *= factor;
                }
            });
        } else {
            // Off-diagonal: each index pairs with b ^ x. The highest set
            // bit of x defines blocks of 2·stride in which the partner of
            // every first-half index sits in the second half, so chunks
            // aligned to whole blocks never split a pair.
            let h = u64::BITS - 1 - x.leading_zeros();
            let stride = 1usize << h;
            let block = stride << 1;
            let chunk_len = par::DEFAULT_CHUNK.max(block);
            let xs = x as usize;
            par::for_each_chunk_mut(&mut self.amps, chunk_len, move |offset, amps| {
                let mut base = 0;
                while base < amps.len() {
                    for lo in base..base + stride {
                        // Chunk offsets are multiples of the block, so the
                        // global pair (b, b^x) is local (lo, lo^x).
                        let hi = lo ^ xs;
                        let b = (offset + lo) as u64;
                        let partner = b ^ x;
                        // P|b⟩ = ph_b |partner⟩, P|partner⟩ = ph_p |b⟩.
                        let sign_b = if (b & z).count_ones().is_multiple_of(2) {
                            1.0
                        } else {
                            -1.0
                        };
                        let sign_p = if (partner & z).count_ones().is_multiple_of(2) {
                            1.0
                        } else {
                            -1.0
                        };
                        let ph_b = base_phase * sign_b;
                        let ph_p = base_phase * sign_p;
                        let ab = amps[lo];
                        let ap = amps[hi];
                        amps[lo] = cc * ab + mis * (ph_p * ap);
                        amps[hi] = cc * ap + mis * (ph_b * ab);
                    }
                    base += block;
                }
            });
        }
    }

    /// Applies a run of rotations that share one flip mask, in order, in
    /// one sweep: each amplitude pair (or, for diagonal strings, each
    /// amplitude) is loaded once and every rotation of the run is applied
    /// to it in registers. No commutation is assumed — program order is
    /// kept per pair — so the result is bit-identical to calling
    /// [`apply_pauli_evolution`](Self::apply_pauli_evolution) for each
    /// rotation in turn, which stays the per-string kernel and the oracle
    /// this sweep is tested against.
    ///
    /// # Panics
    ///
    /// Panics if the rotations' flip masks differ or their width differs
    /// from the state.
    pub fn apply_pauli_rotations(&mut self, run: &[PauliRotation]) {
        let Some(first) = run.first() else {
            return;
        };
        let x = first.x_mask();
        for r in run {
            assert_eq!(r.x_mask(), x, "a fused run must share one flip mask");
            assert_eq!(
                r.num_qubits(),
                self.num_qubits,
                "Pauli width must match state"
            );
        }
        let xs = x as usize;
        for part in run.chunks(flip::MAX_MASKS) {
            let zs: Vec<u64> = part.iter().map(PauliRotation::z_mask).collect();
            par::for_each_chunk_mut(&mut self.amps, flip::chunk_len(x), |offset, amps| {
                flip::for_each_pair(offset, amps.len(), x, &zs, |lo, p| {
                    if x == 0 {
                        amps[lo] = rotate_run_diagonal(part, p, amps[lo]);
                    } else {
                        let hi = lo ^ xs;
                        (amps[lo], amps[hi]) = rotate_run_pair(part, p, amps[lo], amps[hi]);
                    }
                });
            });
        }
    }

    /// Expectation value of a weighted Pauli sum in this state, one
    /// amplitude-pair sweep per flip mask
    /// ([`WeightedPauliSum::expectation`]).
    pub fn expectation(&self, observable: &WeightedPauliSum) -> f64 {
        observable.expectation(&self.amps)
    }

    /// Expectation value with one amplitude sweep per term
    /// ([`WeightedPauliSum::expectation_per_term`]): the oracle of
    /// [`expectation`](Self::expectation) and of the clustered evaluator.
    pub fn expectation_per_term(&self, observable: &WeightedPauliSum) -> f64 {
        observable.expectation_per_term(&self.amps)
    }

    /// Expectation value via commuting-cluster simultaneous
    /// diagonalization: one Clifford rotation per cluster instead of one
    /// amplitude sweep per term. Agrees with [`expectation`] to
    /// floating-point tolerance.
    ///
    /// Rebuilds the cluster partition per call; hot loops should hold a
    /// prebuilt [`pauli::ClusteredSum`] and use [`expectation_with`].
    ///
    /// [`expectation`]: Self::expectation
    /// [`expectation_with`]: Self::expectation_with
    pub fn expectation_clustered(&self, observable: &WeightedPauliSum) -> f64 {
        observable.expectation_clustered(&self.amps)
    }

    /// Expectation value of a prebuilt clustered observable.
    pub fn expectation_with(&self, observable: &pauli::ClusteredSum) -> f64 {
        observable.expectation(&self.amps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bell() -> Statevector {
        let mut c = Circuit::new(2);
        c.push(Gate::H(0));
        c.push(Gate::Cnot {
            control: 0,
            target: 1,
        });
        let mut sv = Statevector::zero_state(2);
        sv.apply_circuit(&c);
        sv
    }

    #[test]
    fn bell_state_probabilities() {
        let sv = bell();
        assert!((sv.probability(0b00) - 0.5).abs() < 1e-14);
        assert!((sv.probability(0b11) - 0.5).abs() < 1e-14);
        assert!(sv.probability(0b01) < 1e-14);
        assert!((sv.norm() - 1.0).abs() < 1e-14);
    }

    #[test]
    fn bell_state_correlations() {
        let sv = bell();
        let mut zz = WeightedPauliSum::new(2);
        zz.push(1.0, "ZZ".parse().unwrap());
        assert!((sv.expectation(&zz) - 1.0).abs() < 1e-13);
        let mut xx = WeightedPauliSum::new(2);
        xx.push(1.0, "XX".parse().unwrap());
        assert!((sv.expectation(&xx) - 1.0).abs() < 1e-13);
        let mut zi = WeightedPauliSum::new(2);
        zi.push(1.0, "ZI".parse().unwrap());
        assert!(sv.expectation(&zi).abs() < 1e-13);
    }

    #[test]
    fn x_gate_flips_basis_state() {
        let mut sv = Statevector::zero_state(3);
        sv.apply_gate(&Gate::X(1));
        assert_eq!(sv.probability(0b010), 1.0);
    }

    #[test]
    fn cnot_truth_table() {
        for (input, expected) in [(0b00u64, 0b00u64), (0b01, 0b11), (0b10, 0b10), (0b11, 0b01)] {
            // qubit 0 = control.
            let mut sv = Statevector::basis_state(2, input);
            sv.apply_gate(&Gate::Cnot {
                control: 0,
                target: 1,
            });
            assert_eq!(sv.probability(expected), 1.0, "input {input:#b}");
        }
    }

    #[test]
    fn swap_exchanges_qubits() {
        let mut sv = Statevector::basis_state(2, 0b01);
        sv.apply_gate(&Gate::Swap(0, 1));
        assert_eq!(sv.probability(0b10), 1.0);
    }

    #[test]
    fn swap_equals_three_cnots() {
        let mut a = Statevector::basis_state(3, 0b011);
        a.apply_gate(&Gate::H(0));
        let mut b = a.clone();
        a.apply_gate(&Gate::Swap(0, 2));
        let mut c = Circuit::new(3);
        c.push(Gate::Swap(0, 2));
        for g in c.decompose_swaps().gates() {
            b.apply_gate(g);
        }
        assert!(a.fidelity(&b) > 1.0 - 1e-12);
    }

    /// Applies a two-qubit gate the slow way: build the full 2ⁿ×2ⁿ action
    /// from the 4×4 matrix (row/col order `|q_hi q_lo⟩` = bits `(b, a)`).
    fn apply_two_qubit_dense(
        sv: &Statevector,
        a: usize,
        b: usize,
        m: &[[f64; 4]; 4],
    ) -> Vec<Complex64> {
        let dim = sv.amplitudes().len();
        let mut out = vec![Complex64::ZERO; dim];
        for (row, o) in out.iter_mut().enumerate() {
            let ra = (row >> a) & 1;
            let rb = (row >> b) & 1;
            for (col, amp) in sv.amplitudes().iter().enumerate() {
                if row & !((1 << a) | (1 << b)) != col & !((1 << a) | (1 << b)) {
                    continue;
                }
                let ca = (col >> a) & 1;
                let cb = (col >> b) & 1;
                *o += Complex64::from_real(m[rb << 1 | ra][cb << 1 | ca]) * *amp;
            }
        }
        out
    }

    fn random_state(num_qubits: usize, seed: u64) -> Statevector {
        let dim = 1usize << num_qubits;
        let mut s = seed | 1;
        let mut next = || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        let amps: Vec<Complex64> = (0..dim).map(|_| Complex64::new(next(), next())).collect();
        let norm = amps.iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt();
        Statevector::from_amplitudes(amps.into_iter().map(|z| z / norm).collect())
    }

    #[test]
    fn cnot_matches_dense_reference_on_random_states() {
        // CNOT in the (control=c, target=t) ordering: |c t⟩, basis index
        // bit a = target, bit b = control below.
        let m = [
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 1.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
            [0.0, 0.0, 1.0, 0.0],
        ];
        for (n, control, target, seed) in [
            (3, 0, 2, 7),
            (3, 2, 0, 8),
            (5, 1, 4, 9),
            (5, 3, 2, 10),
            (2, 1, 0, 11),
        ] {
            let mut sv = random_state(n, seed);
            let expected = apply_two_qubit_dense(&sv, target, control, &m);
            sv.apply_gate(&Gate::Cnot { control, target });
            for (got, want) in sv.amplitudes().iter().zip(&expected) {
                assert!(
                    got.approx_eq(*want, 1e-14),
                    "n={n} c={control} t={target}: {got} vs {want}"
                );
            }
        }
    }

    #[test]
    fn swap_matches_dense_reference_on_random_states() {
        let m = [
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 1.0, 0.0],
            [0.0, 1.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
        ];
        for (n, a, b, seed) in [(3, 0, 2, 21), (4, 3, 1, 22), (5, 2, 4, 23), (2, 0, 1, 24)] {
            let mut sv = random_state(n, seed);
            let expected = apply_two_qubit_dense(&sv, a, b, &m);
            sv.apply_gate(&Gate::Swap(a, b));
            for (got, want) in sv.amplitudes().iter().zip(&expected) {
                assert!(
                    got.approx_eq(*want, 1e-14),
                    "n={n} swap({a},{b}): {got} vs {want}"
                );
            }
        }
    }

    #[test]
    fn pauli_evolution_matches_rz_gate() {
        // exp(-iθ/2 Z) on qubit 0 must equal Gate::Rz.
        let mut a = Statevector::zero_state(1);
        a.apply_gate(&Gate::H(0));
        let mut b = a.clone();
        a.apply_gate(&Gate::Rz(0, 0.77));
        b.apply_pauli_evolution(&"Z".parse().unwrap(), 0.77);
        assert!((a.inner(&b).re - 1.0).abs() < 1e-13);
    }

    #[test]
    fn pauli_evolution_matches_rx_and_ry() {
        let mut a = Statevector::basis_state(1, 1);
        let mut b = a.clone();
        a.apply_gate(&Gate::Rx(0, -0.4));
        b.apply_pauli_evolution(&"X".parse().unwrap(), -0.4);
        assert!(a.fidelity(&b) > 1.0 - 1e-12);
        assert!(a.inner(&b).approx_eq(Complex64::ONE, 1e-12));

        let mut c = Statevector::basis_state(1, 0);
        let mut d = c.clone();
        c.apply_gate(&Gate::Ry(0, 1.3));
        d.apply_pauli_evolution(&"Y".parse().unwrap(), 1.3);
        assert!(c.inner(&d).approx_eq(Complex64::ONE, 1e-12));
    }

    #[test]
    fn multi_qubit_pauli_evolution_preserves_norm_and_rotates() {
        let mut sv = Statevector::zero_state(4);
        // Put the register in a non-trivial product state first.
        for q in 0..4 {
            sv.apply_gate(&Gate::Ry(q, 0.3 + q as f64 * 0.2));
        }
        let p: PauliString = "XIYZ".parse().unwrap();
        let before = sv.clone();
        sv.apply_pauli_evolution(&p, 0.9);
        assert!((sv.norm() - 1.0).abs() < 1e-12);
        assert!(
            sv.fidelity(&before) < 1.0 - 1e-6,
            "evolution must act nontrivially"
        );
        // Evolving back must return the original state.
        sv.apply_pauli_evolution(&p, -0.9);
        assert!(sv.fidelity(&before) > 1.0 - 1e-12);
    }

    #[test]
    fn evolution_generated_by_commuting_strings_composes() {
        // exp(-ia Z0)·exp(-ib Z1) = exp applied in any order.
        let z0: PauliString = "IZ".parse().unwrap();
        let z1: PauliString = "ZI".parse().unwrap();
        let mut a = bell();
        let mut b = a.clone();
        a.apply_pauli_evolution(&z0, 0.3);
        a.apply_pauli_evolution(&z1, 0.8);
        b.apply_pauli_evolution(&z1, 0.8);
        b.apply_pauli_evolution(&z0, 0.3);
        assert!(a.inner(&b).approx_eq(Complex64::ONE, 1e-12));
    }

    #[test]
    fn identity_evolution_adds_global_phase_only() {
        let p = PauliString::identity(2);
        let mut sv = bell();
        let before = sv.clone();
        sv.apply_pauli_evolution(&p, 1.1);
        // exp(-iθ/2 I) is a pure global phase.
        assert!((sv.fidelity(&before) - 1.0).abs() < 1e-12);
        let phase = sv.inner(&before);
        assert!((phase.norm() - 1.0).abs() < 1e-12);
        assert!((phase.arg().abs() - 0.55).abs() < 1e-12);
    }
}
