//! Second quantization and the Jordan–Wigner encoding.
//!
//! Spin orbitals use *block ordering*: for `m` active spatial orbitals,
//! qubits `0..m` are the α spin orbitals and qubits `m..2m` the β spin
//! orbitals, matching the Qiskit convention the paper's Table I counts are
//! based on.

use std::collections::HashMap;
use std::hash::{BuildHasher, BuildHasherDefault, Hasher};

use numeric::Complex64;
use pauli::{PauliString, WeightedPauliSum};

use crate::mo::ActiveIntegrals;

/// A fermionic ladder operator: creation (`a†_p`) or annihilation (`a_p`) on
/// spin orbital `p`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LadderOp {
    /// Spin-orbital index.
    pub index: usize,
    /// `true` for creation, `false` for annihilation.
    pub creation: bool,
}

impl LadderOp {
    /// Creation operator `a†_p`.
    pub fn create(index: usize) -> Self {
        LadderOp {
            index,
            creation: true,
        }
    }

    /// Annihilation operator `a_p`.
    pub fn annihilate(index: usize) -> Self {
        LadderOp {
            index,
            creation: false,
        }
    }
}

/// A sparse complex-weighted Pauli expansion, used as the working
/// representation while multiplying Jordan–Wigner factors.
///
/// # Examples
///
/// ```
/// use chem::fermion::{jordan_wigner_product, LadderOp};
///
/// // The number operator a†_0 a_0 = (I − Z_0)/2.
/// let n0 = jordan_wigner_product(2, &[LadderOp::create(0), LadderOp::annihilate(0)]);
/// assert_eq!(n0.len(), 2);
/// ```
pub type ComplexPauliMap = HashMap<PauliString, Complex64>;

/// The Jordan–Wigner image of one ladder operator: two weighted strings
/// `a†_p = ½(X_p − iY_p)·Z_{p-1}…Z_0`, `a_p = ½(X_p + iY_p)·Z_{p-1}…Z_0`.
pub fn jordan_wigner_ladder(num_qubits: usize, op: LadderOp) -> [(Complex64, PauliString); 2] {
    assert!(
        op.index < num_qubits,
        "spin orbital {} out of range",
        op.index
    );
    let bit = 1u64 << op.index;
    let chain = bit - 1;
    let x_string = PauliString::from_symplectic(num_qubits, bit, chain);
    let y_string = PauliString::from_symplectic(num_qubits, bit, chain | bit);
    let half = Complex64::from_real(0.5);
    let y_coef = if op.creation {
        Complex64::new(0.0, -0.5)
    } else {
        Complex64::new(0.0, 0.5)
    };
    [(half, x_string), (y_coef, y_string)]
}

/// Reusable buffers for the Jordan–Wigner image of one ladder-operator
/// product. A product of `k` operators has at most `2^k` distinct strings
/// (16 for a two-body term); they are multiplied out factor by factor, with
/// duplicates merged by a linear scan. A buffer kept across products
/// allocates nothing after the first.
///
/// Every coefficient of such a product is an exact dyadic (±2^-k, real or
/// imaginary), so the merged sums do not depend on the order terms meet in.
#[derive(Debug, Default)]
struct ProductBuffer {
    terms: Vec<(Complex64, PauliString)>,
    next: Vec<(Complex64, PauliString)>,
}

impl ProductBuffer {
    /// The terms of `JW(ops)` with `|w| > 1e-14`.
    fn expand(&mut self, num_qubits: usize, ops: &[LadderOp]) -> &[(Complex64, PauliString)] {
        self.terms.clear();
        self.terms
            .push((Complex64::ONE, PauliString::identity(num_qubits)));
        for &op in ops {
            let factors = jordan_wigner_ladder(num_qubits, op);
            self.next.clear();
            for &(w, p) in &self.terms {
                for (fw, fp) in &factors {
                    let (phase, prod) = p.mul(fp);
                    let coef = w * *fw * phase.to_complex();
                    // `ZERO + coef` gives a new term the signed zero a
                    // zero-initialized map entry would.
                    match self.next.iter_mut().find(|(_, s)| *s == prod) {
                        Some((acc, _)) => *acc += coef,
                        None => self.next.push((Complex64::ZERO + coef, prod)),
                    }
                }
            }
            self.next.retain(|(w, _)| w.norm() > 1e-14);
            std::mem::swap(&mut self.terms, &mut self.next);
        }
        &self.terms
    }

    /// Adds `scale · JW(ops)` into `acc`.
    fn accumulate<S: BuildHasher>(
        &mut self,
        acc: &mut HashMap<PauliString, Complex64, S>,
        num_qubits: usize,
        ops: &[LadderOp],
        scale: f64,
    ) {
        for &(w, p) in self.expand(num_qubits, ops) {
            *acc.entry(p).or_insert(Complex64::ZERO) += w * scale;
        }
    }
}

/// A multiply-rotate hasher for the Hamiltonian build's accumulation map,
/// which hashes every string of every product: SipHash cost more than the
/// product itself. The keys are `PauliString`s the program builds, so no
/// collision resistance is needed.
#[derive(Debug, Default)]
struct StringHasher(u64);

impl Hasher for StringHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u8(&mut self, n: u8) {
        self.write_u64(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

/// Expands a product of ladder operators into its Pauli decomposition.
pub fn jordan_wigner_product(num_qubits: usize, ops: &[LadderOp]) -> ComplexPauliMap {
    ProductBuffer::default()
        .expand(num_qubits, ops)
        .iter()
        .map(|&(w, p)| (p, w))
        .collect()
}

/// Adds `scale · JW(ops)` into an accumulator map.
pub fn accumulate_term(acc: &mut ComplexPauliMap, num_qubits: usize, ops: &[LadderOp], scale: f64) {
    if scale == 0.0 {
        return;
    }
    ProductBuffer::default().accumulate(acc, num_qubits, ops, scale);
}

/// Converts an accumulated (Hermitian) complex map into a real weighted sum.
///
/// # Panics
///
/// Panics if any coefficient has an imaginary part above `1e-8` — that would
/// mean the assembled operator is not Hermitian.
pub fn into_real_sum<S>(
    num_qubits: usize,
    acc: HashMap<PauliString, Complex64, S>,
) -> WeightedPauliSum {
    let mut terms: Vec<(f64, PauliString)> = acc
        .into_iter()
        .filter(|(_, w)| w.norm() > 1e-12)
        .map(|(p, w)| {
            assert!(
                w.im.abs() < 1e-8,
                "non-Hermitian accumulation: {p} has imaginary weight {}",
                w.im
            );
            (w.re, p)
        })
        .collect();
    // Deterministic order: sort by string for reproducibility.
    terms.sort_by_key(|a| a.1);
    WeightedPauliSum::from_terms(num_qubits, terms)
}

/// The anti-Hermitian cluster operator `T − T†` of an excitation, expanded
/// as `i·Σ_k c_k·P_k` with real `c_k`; returns the `(c_k, P_k)` pairs.
///
/// `excitation` is the ladder-operator product for `T` (e.g.
/// `[a†_a, a_i]` for a single excitation `i→a`).
///
/// # Panics
///
/// Panics if the expansion is not of the form `i·(real combination)`, which
/// would indicate `T` was not a proper excitation product.
pub fn antihermitian_pauli_terms(
    num_qubits: usize,
    excitation: &[LadderOp],
) -> Vec<(f64, PauliString)> {
    let mut acc: ComplexPauliMap = HashMap::new();
    let mut buffer = ProductBuffer::default();
    buffer.accumulate(&mut acc, num_qubits, excitation, 1.0);
    // Subtract the Hermitian conjugate: reverse order, flip dagger.
    let conj: Vec<LadderOp> = excitation
        .iter()
        .rev()
        .map(|op| LadderOp {
            index: op.index,
            creation: !op.creation,
        })
        .collect();
    buffer.accumulate(&mut acc, num_qubits, &conj, -1.0);

    let mut out: Vec<(f64, PauliString)> = acc
        .into_iter()
        .filter(|(_, w)| w.norm() > 1e-12)
        .map(|(p, w)| {
            assert!(
                w.re.abs() < 1e-10,
                "anti-Hermitian operator must be purely imaginary in the Pauli basis"
            );
            (w.im, p)
        })
        .collect();
    out.sort_by_key(|a| a.1);
    out
}

/// Spin-orbital index for spatial orbital `i` with the given spin in block
/// ordering (`false` = α, `true` = β).
pub fn spin_orbital(num_spatial: usize, spatial: usize, beta: bool) -> usize {
    assert!(spatial < num_spatial, "spatial orbital out of range");
    if beta {
        num_spatial + spatial
    } else {
        spatial
    }
}

/// Builds the qubit Hamiltonian of an active space under Jordan–Wigner:
/// `H = E_core + Σ h_pq a†p aq + ½ Σ ⟨pq|rs⟩ a†p a†q a_s a_r`.
///
/// The physicist-notation element `⟨pq|rs⟩` is `(pr|qs)` of the chemist
/// tensor with the spin selection rules `σ_p = σ_r`, `σ_q = σ_s`.
pub fn build_qubit_hamiltonian(act: &ActiveIntegrals) -> WeightedPauliSum {
    let m = act.h.rows();
    let n_so = 2 * m;
    let mut acc: HashMap<PauliString, Complex64, BuildHasherDefault<StringHasher>> =
        HashMap::default();
    let mut buffer = ProductBuffer::default();

    // Constant core energy on the identity string.
    acc.insert(
        PauliString::identity(n_so),
        Complex64::from_real(act.core_energy),
    );

    // One-body terms (spin-diagonal).
    for p in 0..m {
        for q in 0..m {
            let h = act.h[(p, q)];
            if h.abs() < 1e-12 {
                continue;
            }
            for beta in [false, true] {
                let sp = spin_orbital(m, p, beta);
                let sq = spin_orbital(m, q, beta);
                buffer.accumulate(
                    &mut acc,
                    n_so,
                    &[LadderOp::create(sp), LadderOp::annihilate(sq)],
                    h,
                );
            }
        }
    }

    // Two-body terms: ½ Σ_{pqrs,στ} (pr|qs) a†_{pσ} a†_{qτ} a_{sτ} a_{rσ}.
    for p in 0..m {
        for q in 0..m {
            for r in 0..m {
                for s in 0..m {
                    let g = act.eri.get(p, r, q, s);
                    if g.abs() < 1e-12 {
                        continue;
                    }
                    for sigma in [false, true] {
                        for tau in [false, true] {
                            let a = spin_orbital(m, p, sigma);
                            let b = spin_orbital(m, q, tau);
                            let c = spin_orbital(m, s, tau);
                            let d = spin_orbital(m, r, sigma);
                            if a == b || c == d {
                                continue; // a†a† or aa on the same mode is zero
                            }
                            buffer.accumulate(
                                &mut acc,
                                n_so,
                                &[
                                    LadderOp::create(a),
                                    LadderOp::create(b),
                                    LadderOp::annihilate(c),
                                    LadderOp::annihilate(d),
                                ],
                                0.5 * g,
                            );
                        }
                    }
                }
            }
        }
    }

    into_real_sum(n_so, acc)
}

/// The Hartree-Fock reference determinant as a computational-basis bitmask
/// (block spin ordering; closed shell).
///
/// # Panics
///
/// Panics if the electron count is odd or exceeds the orbital capacity.
pub fn hartree_fock_bitmask(num_spatial: usize, num_electrons: usize) -> u64 {
    assert!(
        num_electrons.is_multiple_of(2),
        "closed-shell reference requires even electrons"
    );
    let pairs = num_electrons / 2;
    assert!(
        pairs <= num_spatial,
        "too many electrons for the active space"
    );
    let mut mask = 0u64;
    for i in 0..pairs {
        mask |= 1 << spin_orbital(num_spatial, i, false);
        mask |= 1 << spin_orbital(num_spatial, i, true);
    }
    mask
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Jordan–Wigner with a `HashMap` per factor and SipHash: the
    /// bit-identity oracle of the product buffer, the Hamiltonian build and
    /// the UCCSD generators.
    mod oracle {
        use super::super::*;
        use pauli::Pauli;

        fn ladder(num_qubits: usize, op: LadderOp) -> [(Complex64, PauliString); 2] {
            let mut x_string = PauliString::identity(num_qubits);
            let mut y_string = PauliString::identity(num_qubits);
            for q in 0..op.index {
                x_string.set_op(q, Pauli::Z);
                y_string.set_op(q, Pauli::Z);
            }
            x_string.set_op(op.index, Pauli::X);
            y_string.set_op(op.index, Pauli::Y);
            let y_coef = if op.creation {
                Complex64::new(0.0, -0.5)
            } else {
                Complex64::new(0.0, 0.5)
            };
            [(Complex64::from_real(0.5), x_string), (y_coef, y_string)]
        }

        pub fn product(num_qubits: usize, ops: &[LadderOp]) -> ComplexPauliMap {
            let mut acc: ComplexPauliMap = HashMap::new();
            acc.insert(PauliString::identity(num_qubits), Complex64::ONE);
            for &op in ops {
                let factors = ladder(num_qubits, op);
                let mut next: ComplexPauliMap = HashMap::with_capacity(acc.len() * 2);
                for (p, w) in &acc {
                    for (fw, fp) in &factors {
                        let (phase, prod) = p.mul(fp);
                        let coef = *w * *fw * phase.to_complex();
                        *next.entry(prod).or_insert(Complex64::ZERO) += coef;
                    }
                }
                next.retain(|_, w| w.norm() > 1e-14);
                acc = next;
            }
            acc
        }

        fn accumulate(acc: &mut ComplexPauliMap, n: usize, ops: &[LadderOp], scale: f64) {
            if scale == 0.0 {
                return;
            }
            for (p, w) in product(n, ops) {
                *acc.entry(p).or_insert(Complex64::ZERO) += w * scale;
            }
        }

        pub fn antihermitian(
            num_qubits: usize,
            excitation: &[LadderOp],
        ) -> Vec<(f64, PauliString)> {
            let mut acc: ComplexPauliMap = HashMap::new();
            accumulate(&mut acc, num_qubits, excitation, 1.0);
            let conj: Vec<LadderOp> = excitation
                .iter()
                .rev()
                .map(|op| LadderOp {
                    index: op.index,
                    creation: !op.creation,
                })
                .collect();
            accumulate(&mut acc, num_qubits, &conj, -1.0);
            let mut out: Vec<(f64, PauliString)> = acc
                .into_iter()
                .filter(|(_, w)| w.norm() > 1e-12)
                .map(|(p, w)| (w.im, p))
                .collect();
            out.sort_by_key(|a| a.1);
            out
        }

        pub fn hamiltonian(act: &ActiveIntegrals) -> WeightedPauliSum {
            let m = act.h.rows();
            let n_so = 2 * m;
            let mut acc: ComplexPauliMap = HashMap::new();
            acc.insert(
                PauliString::identity(n_so),
                Complex64::from_real(act.core_energy),
            );
            for p in 0..m {
                for q in 0..m {
                    let h = act.h[(p, q)];
                    if h.abs() < 1e-12 {
                        continue;
                    }
                    for beta in [false, true] {
                        let ops = [
                            LadderOp::create(spin_orbital(m, p, beta)),
                            LadderOp::annihilate(spin_orbital(m, q, beta)),
                        ];
                        accumulate(&mut acc, n_so, &ops, h);
                    }
                }
            }
            for p in 0..m {
                for q in 0..m {
                    for r in 0..m {
                        for s in 0..m {
                            let g = act.eri.get(p, r, q, s);
                            if g.abs() < 1e-12 {
                                continue;
                            }
                            for sigma in [false, true] {
                                for tau in [false, true] {
                                    let a = spin_orbital(m, p, sigma);
                                    let b = spin_orbital(m, q, tau);
                                    let c = spin_orbital(m, s, tau);
                                    let d = spin_orbital(m, r, sigma);
                                    if a == b || c == d {
                                        continue;
                                    }
                                    let ops = [
                                        LadderOp::create(a),
                                        LadderOp::create(b),
                                        LadderOp::annihilate(c),
                                        LadderOp::annihilate(d),
                                    ];
                                    accumulate(&mut acc, n_so, &ops, 0.5 * g);
                                }
                            }
                        }
                    }
                }
            }
            into_real_sum(n_so, acc)
        }
    }

    fn term_bits(terms: &[(f64, PauliString)]) -> Vec<(u64, PauliString)> {
        terms.iter().map(|&(w, p)| (w.to_bits(), p)).collect()
    }

    #[test]
    fn hamiltonian_is_bit_identical_to_the_map_oracle() {
        use crate::basis::build_basis;
        use crate::integrals::compute_ao_integrals;
        use crate::mo::{active_space_integrals, transform_to_mo};
        use crate::molecules::Benchmark;
        use crate::scf::{restricted_hartree_fock, ScfOptions};

        for molecule in Benchmark::ALL {
            let m = molecule.molecule(molecule.equilibrium_bond_length());
            let ints = compute_ao_integrals(&m, &build_basis(&m));
            let scf = restricted_hartree_fock(&ints, m.num_electrons(), ScfOptions::default())
                .expect("Table I molecules converge at equilibrium");
            let mo = transform_to_mo(&ints, &scf);
            let act = active_space_integrals(&mo, &molecule.active_space(), ints.nuclear_repulsion);
            let fast = build_qubit_hamiltonian(&act);
            let slow = oracle::hamiltonian(&act);
            let fast: Vec<(f64, PauliString)> = fast.iter().copied().collect();
            let slow: Vec<(f64, PauliString)> = slow.iter().copied().collect();
            assert_eq!(term_bits(&fast), term_bits(&slow), "{molecule}");
        }
    }

    #[test]
    fn products_and_generators_are_bit_identical_to_the_map_oracle() {
        // Every single and double excitation of an 8-qubit register, in
        // both operator orders, and products of up to four operators.
        let n = 8;
        for a in 0..n {
            for i in 0..n {
                let single = [LadderOp::create(a), LadderOp::annihilate(i)];
                let fast = jordan_wigner_product(n, &single);
                assert_eq!(fast, oracle::product(n, &single));
                if a != i {
                    assert_eq!(
                        term_bits(&antihermitian_pauli_terms(n, &single)),
                        term_bits(&oracle::antihermitian(n, &single))
                    );
                }
                for b in 0..n {
                    for j in 0..n {
                        let double = [
                            LadderOp::create(a),
                            LadderOp::create(b),
                            LadderOp::annihilate(j),
                            LadderOp::annihilate(i),
                        ];
                        assert_eq!(
                            jordan_wigner_product(n, &double),
                            oracle::product(n, &double)
                        );
                        if a > b && i > j && a != i && a != j && b != i && b != j {
                            assert_eq!(
                                term_bits(&antihermitian_pauli_terms(n, &double)),
                                term_bits(&oracle::antihermitian(n, &double))
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn number_operator_expansion() {
        // a†_0 a_0 = (I − Z_0)/2.
        let map = jordan_wigner_product(2, &[LadderOp::create(0), LadderOp::annihilate(0)]);
        let id = PauliString::identity(2);
        let z0: PauliString = "IZ".parse().unwrap();
        assert!(map[&id].approx_eq(Complex64::from_real(0.5), 1e-12));
        assert!(map[&z0].approx_eq(Complex64::from_real(-0.5), 1e-12));
        assert_eq!(map.len(), 2);
    }

    #[test]
    fn anticommutation_a_adagger() {
        // a_0 a†_0 = (I + Z_0)/2.
        let map = jordan_wigner_product(1, &[LadderOp::annihilate(0), LadderOp::create(0)]);
        let id = PauliString::identity(1);
        let z: PauliString = "Z".parse().unwrap();
        assert!(map[&id].approx_eq(Complex64::from_real(0.5), 1e-12));
        assert!(map[&z].approx_eq(Complex64::from_real(0.5), 1e-12));
    }

    #[test]
    fn pauli_exclusion_adagger_squared_is_zero() {
        let map = jordan_wigner_product(2, &[LadderOp::create(1), LadderOp::create(1)]);
        assert!(map.is_empty(), "a†a† must vanish, got {map:?}");
    }

    #[test]
    fn hopping_term_has_z_chain() {
        // a†_2 a_0 + h.c. on 3 qubits → ½(X Z X + Y Z Y).
        let mut acc: ComplexPauliMap = HashMap::new();
        accumulate_term(
            &mut acc,
            3,
            &[LadderOp::create(2), LadderOp::annihilate(0)],
            1.0,
        );
        accumulate_term(
            &mut acc,
            3,
            &[LadderOp::create(0), LadderOp::annihilate(2)],
            1.0,
        );
        let sum = into_real_sum(3, acc);
        let mut found = std::collections::HashMap::new();
        for (w, p) in sum.iter() {
            found.insert(p.to_string(), *w);
        }
        assert!((found["XZX"] - 0.5).abs() < 1e-12);
        assert!((found["YZY"] - 0.5).abs() < 1e-12);
        assert_eq!(found.len(), 2);
    }

    #[test]
    fn single_excitation_antihermitian_terms() {
        // T = a†_1 a_0; T−T† = (i/2)(X_1 Y_0 − Y_1 X_0) → coefficients ±½.
        let terms = antihermitian_pauli_terms(2, &[LadderOp::create(1), LadderOp::annihilate(0)]);
        assert_eq!(terms.len(), 2);
        let mut m = std::collections::HashMap::new();
        for (c, p) in &terms {
            m.insert(p.to_string(), *c);
        }
        assert!((m["XY"].abs() - 0.5).abs() < 1e-12);
        assert!((m["YX"].abs() - 0.5).abs() < 1e-12);
        assert!((m["XY"] + m["YX"]).abs() < 1e-12, "opposite signs expected");
    }

    #[test]
    fn double_excitation_has_eight_strings() {
        // T = a†_2 a†_3 a_1 a_0 on 4 qubits → 8 Pauli strings (paper §II-C).
        let terms = antihermitian_pauli_terms(
            4,
            &[
                LadderOp::create(2),
                LadderOp::create(3),
                LadderOp::annihilate(1),
                LadderOp::annihilate(0),
            ],
        );
        assert_eq!(terms.len(), 8);
        for (c, p) in &terms {
            assert!((c.abs() - 0.125).abs() < 1e-12);
            assert_eq!(p.weight(), 4);
        }
    }

    #[test]
    fn spin_orbital_block_ordering() {
        assert_eq!(spin_orbital(3, 0, false), 0);
        assert_eq!(spin_orbital(3, 2, false), 2);
        assert_eq!(spin_orbital(3, 0, true), 3);
        assert_eq!(spin_orbital(3, 2, true), 5);
    }

    #[test]
    fn hartree_fock_bitmask_blocks() {
        // 2 spatial orbitals, 2 electrons: qubits 0 (α) and 2 (β) occupied.
        assert_eq!(hartree_fock_bitmask(2, 2), 0b0101);
        // 3 spatial, 4 electrons: qubits 0,1 (α) and 3,4 (β).
        assert_eq!(hartree_fock_bitmask(3, 4), 0b011011);
    }

    #[test]
    fn number_operator_counts_in_hf_state() {
        // ⟨HF| Σ_p n_p |HF⟩ = electron count.
        let m = 2;
        let n_so = 4;
        let mut acc: ComplexPauliMap = HashMap::new();
        for p in 0..n_so {
            accumulate_term(
                &mut acc,
                n_so,
                &[LadderOp::create(p), LadderOp::annihilate(p)],
                1.0,
            );
        }
        let op = into_real_sum(n_so, acc);
        let hf = hartree_fock_bitmask(m, 2);
        let mut state = vec![Complex64::ZERO; 1 << n_so];
        state[hf as usize] = Complex64::ONE;
        assert!((op.expectation(&state) - 2.0).abs() < 1e-12);
    }
}
