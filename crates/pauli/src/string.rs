//! Single Pauli operators and n-qubit Pauli strings.
//!
//! Strings are stored in symplectic form: two bitmasks `x` and `z`, where
//! qubit `i` carries `X` when only `x` bit `i` is set, `Z` when only `z` bit
//! `i` is set, `Y` when both are set, and `I` when neither is. This makes
//! products, commutation checks, and statevector action O(1)–O(n) bit
//! operations, and it is the representation the compiler and the ansatz
//! compression both traverse millions of times.

use std::error::Error;
use std::fmt;
use std::str::FromStr;

use numeric::Complex64;

/// A single-qubit Pauli operator.
///
/// # Examples
///
/// ```
/// use pauli::Pauli;
///
/// let (phase, op) = Pauli::X.mul(Pauli::Y);
/// assert_eq!(op, Pauli::Z);          // XY = iZ
/// assert_eq!(phase.to_complex().im, 1.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub enum Pauli {
    /// The identity operator.
    #[default]
    I,
    /// The Pauli-X (bit flip) operator.
    X,
    /// The Pauli-Y operator.
    Y,
    /// The Pauli-Z (phase flip) operator.
    Z,
}

impl Pauli {
    /// All four operators in `I, X, Y, Z` order.
    pub const ALL: [Pauli; 4] = [Pauli::I, Pauli::X, Pauli::Y, Pauli::Z];

    /// Returns the `(x, z)` symplectic bits of this operator.
    #[inline]
    pub fn symplectic_bits(self) -> (bool, bool) {
        match self {
            Pauli::I => (false, false),
            Pauli::X => (true, false),
            Pauli::Y => (true, true),
            Pauli::Z => (false, true),
        }
    }

    /// Reconstructs an operator from `(x, z)` symplectic bits.
    #[inline]
    pub fn from_symplectic_bits(x: bool, z: bool) -> Self {
        match (x, z) {
            (false, false) => Pauli::I,
            (true, false) => Pauli::X,
            (true, true) => Pauli::Y,
            (false, true) => Pauli::Z,
        }
    }

    /// Multiplies two single-qubit Paulis, returning the phase and result:
    /// `self · rhs = phase · result`.
    #[allow(clippy::should_implement_trait)] // returns (Phase, Pauli), not Self
    pub fn mul(self, rhs: Pauli) -> (Phase, Pauli) {
        use Pauli::*;
        match (self, rhs) {
            (I, p) | (p, I) => (Phase::PlusOne, p),
            (X, X) | (Y, Y) | (Z, Z) => (Phase::PlusOne, I),
            (X, Y) => (Phase::PlusI, Z),
            (Y, X) => (Phase::MinusI, Z),
            (Y, Z) => (Phase::PlusI, X),
            (Z, Y) => (Phase::MinusI, X),
            (Z, X) => (Phase::PlusI, Y),
            (X, Z) => (Phase::MinusI, Y),
        }
    }

    /// Returns `true` for the identity.
    #[inline]
    pub fn is_identity(self) -> bool {
        self == Pauli::I
    }

    /// The character representation: `I`, `X`, `Y`, or `Z`.
    #[inline]
    pub fn to_char(self) -> char {
        match self {
            Pauli::I => 'I',
            Pauli::X => 'X',
            Pauli::Y => 'Y',
            Pauli::Z => 'Z',
        }
    }
}

impl fmt::Display for Pauli {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_char())
    }
}

/// A fourth root of unity: the phases arising from Pauli products.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Phase {
    /// `+1`
    #[default]
    PlusOne,
    /// `+i`
    PlusI,
    /// `-1`
    MinusOne,
    /// `-i`
    MinusI,
}

impl Phase {
    /// Creates a phase from an exponent `k` of `i^k`.
    #[inline]
    pub fn from_power_of_i(k: u32) -> Self {
        match k % 4 {
            0 => Phase::PlusOne,
            1 => Phase::PlusI,
            2 => Phase::MinusOne,
            _ => Phase::MinusI,
        }
    }

    /// The exponent `k` such that this phase equals `i^k`.
    #[inline]
    pub fn power_of_i(self) -> u32 {
        match self {
            Phase::PlusOne => 0,
            Phase::PlusI => 1,
            Phase::MinusOne => 2,
            Phase::MinusI => 3,
        }
    }

    /// Multiplies two phases.
    #[inline]
    #[allow(clippy::should_implement_trait)] // small Copy enum; free-standing name reads fine
    pub fn mul(self, rhs: Phase) -> Phase {
        Phase::from_power_of_i(self.power_of_i() + rhs.power_of_i())
    }

    /// Converts to a complex scalar.
    #[inline]
    pub fn to_complex(self) -> Complex64 {
        match self {
            Phase::PlusOne => Complex64::ONE,
            Phase::PlusI => Complex64::I,
            Phase::MinusOne => -Complex64::ONE,
            Phase::MinusI => -Complex64::I,
        }
    }
}

/// Error parsing a [`PauliString`] from text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParsePauliError {
    /// The string was empty.
    Empty,
    /// A character other than `I`, `X`, `Y`, `Z` was found.
    InvalidChar(char),
    /// More than 64 qubits requested.
    TooLong(usize),
}

impl fmt::Display for ParsePauliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParsePauliError::Empty => write!(f, "empty Pauli string"),
            ParsePauliError::InvalidChar(c) => {
                write!(f, "invalid Pauli character `{c}` (expected I, X, Y, or Z)")
            }
            ParsePauliError::TooLong(n) => {
                write!(f, "Pauli string of {n} qubits exceeds the 64-qubit limit")
            }
        }
    }
}

impl Error for ParsePauliError {}

/// An n-qubit Pauli string `G_{n-1} ⊗ … ⊗ G_0` in symplectic form.
///
/// Following the paper's convention (§II-A) the *leftmost* character of the
/// textual form acts on the *highest* qubit index, so `"XIYZ"` puts `X` on
/// qubit 3 and `Z` on qubit 0.
///
/// Limited to 64 qubits (masks are single `u64`s); the paper's largest
/// benchmark needs 16.
///
/// # Examples
///
/// ```
/// use pauli::{Pauli, PauliString};
///
/// let zz: PauliString = "ZZ".parse()?;
/// let xx: PauliString = "XX".parse()?;
/// assert!(zz.commutes_with(&xx));
/// let zi: PauliString = "ZI".parse()?;
/// let xi: PauliString = "XI".parse()?;
/// assert!(!zi.commutes_with(&xi));
/// # Ok::<(), pauli::ParsePauliError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PauliString {
    num_qubits: u8,
    x: u64,
    z: u64,
}

impl PauliString {
    /// Creates the identity string on `num_qubits` qubits.
    ///
    /// # Panics
    ///
    /// Panics if `num_qubits` is zero or exceeds 64.
    pub fn identity(num_qubits: usize) -> Self {
        assert!((1..=64).contains(&num_qubits), "1..=64 qubits supported");
        PauliString {
            num_qubits: num_qubits as u8,
            x: 0,
            z: 0,
        }
    }

    /// Creates a string from a list of `(qubit, operator)` pairs; unlisted
    /// qubits carry the identity.
    ///
    /// # Panics
    ///
    /// Panics if a qubit index is out of range, or if a qubit is listed
    /// twice with different operators.
    pub fn from_ops(num_qubits: usize, ops: &[(usize, Pauli)]) -> Self {
        let mut s = PauliString::identity(num_qubits);
        for &(q, p) in ops {
            assert!(
                q < num_qubits,
                "qubit {q} out of range for {num_qubits} qubits"
            );
            let existing = s.op(q);
            assert!(
                existing == Pauli::I || existing == p,
                "qubit {q} assigned two different operators"
            );
            s.set_op(q, p);
        }
        s
    }

    /// Creates a string directly from symplectic masks.
    ///
    /// # Panics
    ///
    /// Panics if a mask has bits beyond `num_qubits`.
    pub fn from_symplectic(num_qubits: usize, x: u64, z: u64) -> Self {
        let s = PauliString::identity(num_qubits);
        let valid = s.qubit_mask();
        assert_eq!(x & !valid, 0, "x mask has bits outside the register");
        assert_eq!(z & !valid, 0, "z mask has bits outside the register");
        PauliString {
            num_qubits: s.num_qubits,
            x,
            z,
        }
    }

    #[inline]
    fn qubit_mask(&self) -> u64 {
        if self.num_qubits == 64 {
            u64::MAX
        } else {
            (1u64 << self.num_qubits) - 1
        }
    }

    /// Number of qubits the string is defined on.
    #[inline]
    pub fn num_qubits(&self) -> usize {
        self.num_qubits as usize
    }

    /// The operator acting on qubit `q`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    #[inline]
    pub fn op(&self, q: usize) -> Pauli {
        assert!(q < self.num_qubits(), "qubit index out of range");
        Pauli::from_symplectic_bits((self.x >> q) & 1 == 1, (self.z >> q) & 1 == 1)
    }

    /// Sets the operator on qubit `q`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    #[inline]
    pub fn set_op(&mut self, q: usize, p: Pauli) {
        assert!(q < self.num_qubits(), "qubit index out of range");
        let (xb, zb) = p.symplectic_bits();
        self.x = (self.x & !(1 << q)) | ((xb as u64) << q);
        self.z = (self.z & !(1 << q)) | ((zb as u64) << q);
    }

    /// The symplectic `x` mask (`X` and `Y` positions).
    #[inline]
    pub fn x_mask(&self) -> u64 {
        self.x
    }

    /// The symplectic `z` mask (`Z` and `Y` positions).
    #[inline]
    pub fn z_mask(&self) -> u64 {
        self.z
    }

    /// Bitmask of qubits carrying a non-identity operator (the string's
    /// *support*).
    #[inline]
    pub fn support_mask(&self) -> u64 {
        self.x | self.z
    }

    /// The qubits carrying a non-identity operator, ascending.
    pub fn support(&self) -> Vec<usize> {
        (0..self.num_qubits())
            .filter(|&q| (self.support_mask() >> q) & 1 == 1)
            .collect()
    }

    /// Number of non-identity operators (Hamming weight of the support).
    #[inline]
    pub fn weight(&self) -> usize {
        self.support_mask().count_ones() as usize
    }

    /// Returns `true` if every qubit carries the identity.
    #[inline]
    pub fn is_identity(&self) -> bool {
        self.support_mask() == 0
    }

    /// Whether this string commutes with `other`.
    ///
    /// Two Pauli strings commute iff they anticommute on an even number of
    /// qubits, which the symplectic form reduces to a parity of two mask
    /// intersections.
    ///
    /// # Panics
    ///
    /// Panics if qubit counts differ.
    #[inline]
    pub fn commutes_with(&self, other: &PauliString) -> bool {
        assert_eq!(self.num_qubits, other.num_qubits, "qubit counts must match");
        let anti = (self.x & other.z).count_ones() + (self.z & other.x).count_ones();
        anti.is_multiple_of(2)
    }

    /// The group product `self · other = phase · string`.
    ///
    /// The phase comes from the symplectic masks alone. Per qubit,
    /// `σ(x, z) = i^{xz}·X^x·Z^z`, and moving `Z^{z₁}` past `X^{x₂}` costs
    /// `(−1)^{z₁x₂}`, so `σ(x₁,z₁)·σ(x₂,z₂) = i^{x₁z₁ + x₂z₂ + 2z₁x₂ − x₃z₃}·σ(x₃,z₃)`
    /// with `x₃ = x₁ ⊕ x₂`, `z₃ = z₁ ⊕ z₂`; summed over qubits by popcounts.
    ///
    /// # Panics
    ///
    /// Panics if qubit counts differ.
    pub fn mul(&self, other: &PauliString) -> (Phase, PauliString) {
        assert_eq!(self.num_qubits, other.num_qubits, "qubit counts must match");
        let x = self.x ^ other.x;
        let z = self.z ^ other.z;
        // −x₃z₃ ≡ 3·x₃z₃ (mod 4).
        let k = (self.x & self.z).count_ones()
            + (other.x & other.z).count_ones()
            + 2 * (self.z & other.x).count_ones()
            + 3 * (x & z).count_ones();
        (
            Phase::from_power_of_i(k),
            PauliString {
                num_qubits: self.num_qubits,
                x,
                z,
            },
        )
    }

    /// Iterates over the operators from qubit 0 upward.
    pub fn iter_ops(&self) -> impl Iterator<Item = Pauli> + '_ {
        (0..self.num_qubits()).map(move |q| self.op(q))
    }

    /// Applies this string to a computational-basis state index, returning
    /// the flipped index and the phase: `P|b⟩ = phase · |b'⟩`.
    ///
    /// Used by the statevector expectation engine; `b` must have no bits
    /// beyond the register.
    #[inline]
    pub fn apply_to_basis_state(&self, b: u64) -> (u64, Complex64) {
        let ny = (self.x & self.z).count_ones();
        let sign_flips = (b & self.z).count_ones();
        let k = ny + 2 * sign_flips;
        (b ^ self.x, Phase::from_power_of_i(k).to_complex())
    }

    /// The paper's *importance decay factor* `d` between an ansatz string
    /// (`self`, `P_a`) and a Hamiltonian string (`P_H`): the number of qubits
    /// where (1) `P_a` carries `I`, (2) `P_H` carries `I`, or (3) both carry
    /// the same operator (§III-A, Algorithm 1).
    ///
    /// # Panics
    ///
    /// Panics if qubit counts differ.
    pub fn importance_decay_factor(&self, hamiltonian_term: &PauliString) -> u32 {
        assert_eq!(
            self.num_qubits, hamiltonian_term.num_qubits,
            "qubit counts must match"
        );
        let mut d = 0;
        for q in 0..self.num_qubits() {
            let a = self.op(q);
            let h = hamiltonian_term.op(q);
            if a == Pauli::I || h == Pauli::I || a == h {
                d += 1;
            }
        }
        d
    }
}

impl FromStr for PauliString {
    type Err = ParsePauliError;

    /// Parses textual form like `"XIYZ"`; the leftmost character acts on the
    /// highest qubit (paper convention).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s.is_empty() {
            return Err(ParsePauliError::Empty);
        }
        if s.len() > 64 {
            return Err(ParsePauliError::TooLong(s.len()));
        }
        let n = s.chars().count();
        if n > 64 {
            return Err(ParsePauliError::TooLong(n));
        }
        let mut out = PauliString::identity(n);
        for (idx, c) in s.chars().enumerate() {
            let q = n - 1 - idx;
            let p = match c {
                'I' | 'i' => Pauli::I,
                'X' | 'x' => Pauli::X,
                'Y' | 'y' => Pauli::Y,
                'Z' | 'z' => Pauli::Z,
                other => return Err(ParsePauliError::InvalidChar(other)),
            };
            out.set_op(q, p);
        }
        Ok(out)
    }
}

impl fmt::Display for PauliString {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for q in (0..self.num_qubits()).rev() {
            write!(f, "{}", self.op(q))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_qubit_products_follow_the_algebra() {
        // XY = iZ, YZ = iX, ZX = iY and the anti-cyclic counterparts.
        assert_eq!(Pauli::X.mul(Pauli::Y), (Phase::PlusI, Pauli::Z));
        assert_eq!(Pauli::Y.mul(Pauli::Z), (Phase::PlusI, Pauli::X));
        assert_eq!(Pauli::Z.mul(Pauli::X), (Phase::PlusI, Pauli::Y));
        assert_eq!(Pauli::Y.mul(Pauli::X), (Phase::MinusI, Pauli::Z));
        for p in Pauli::ALL {
            assert_eq!(p.mul(p), (Phase::PlusOne, Pauli::I));
            assert_eq!(Pauli::I.mul(p), (Phase::PlusOne, p));
        }
    }

    #[test]
    fn parse_and_display_round_trip() {
        for s in ["XIYZ", "ZZZZ", "IIII", "X", "IXYZXYZI"] {
            let p: PauliString = s.parse().unwrap();
            assert_eq!(p.to_string(), s);
        }
    }

    #[test]
    fn paper_figure2_example_layout() {
        // XIYZ: X on q3, I on q2, Y on q1, Z on q0 (paper Fig 2a).
        let p: PauliString = "XIYZ".parse().unwrap();
        assert_eq!(p.op(3), Pauli::X);
        assert_eq!(p.op(2), Pauli::I);
        assert_eq!(p.op(1), Pauli::Y);
        assert_eq!(p.op(0), Pauli::Z);
        assert_eq!(p.support(), vec![0, 1, 3]);
    }

    #[test]
    fn parse_rejects_bad_input() {
        assert_eq!("".parse::<PauliString>(), Err(ParsePauliError::Empty));
        assert_eq!(
            "XAZ".parse::<PauliString>(),
            Err(ParsePauliError::InvalidChar('A'))
        );
        let long = "I".repeat(65);
        assert_eq!(
            long.parse::<PauliString>(),
            Err(ParsePauliError::TooLong(65))
        );
    }

    #[test]
    fn product_matches_componentwise_algebra() {
        let a: PauliString = "XYZI".parse().unwrap();
        let b: PauliString = "YYXZ".parse().unwrap();
        let (phase, c) = a.mul(&b);
        // Componentwise: X·Y=iZ, Y·Y=I, Z·X=iY, I·Z=Z → i² = -1, string ZIYZ.
        assert_eq!(c, "ZIYZ".parse().unwrap());
        assert_eq!(phase, Phase::MinusOne);
    }

    /// The product qubit by qubit: the oracle of the mask form.
    fn per_qubit_mul(a: &PauliString, b: &PauliString) -> (Phase, PauliString) {
        let mut k: u32 = 0;
        let mut out = PauliString::identity(a.num_qubits());
        for q in 0..a.num_qubits() {
            let (ph, op) = a.op(q).mul(b.op(q));
            k += ph.power_of_i();
            out.set_op(q, op);
        }
        (Phase::from_power_of_i(k), out)
    }

    #[test]
    fn mask_product_matches_the_per_qubit_oracle() {
        // Every pair of 3-qubit strings, then random 64-qubit ones.
        for xa in 0..8u64 {
            for za in 0..8u64 {
                for xb in 0..8u64 {
                    for zb in 0..8u64 {
                        let a = PauliString::from_symplectic(3, xa, za);
                        let b = PauliString::from_symplectic(3, xb, zb);
                        assert_eq!(a.mul(&b), per_qubit_mul(&a, &b), "{a} · {b}");
                    }
                }
            }
        }
        let mut s = 0x2545_f491_4f6c_dd1du64;
        let mut next = || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        for _ in 0..2000 {
            let a = PauliString::from_symplectic(64, next(), next());
            let b = PauliString::from_symplectic(64, next(), next());
            assert_eq!(a.mul(&b), per_qubit_mul(&a, &b));
        }
    }

    #[test]
    fn commutation_via_products() {
        let pairs = [("XX", "ZZ"), ("XI", "IZ"), ("XY", "YX"), ("XI", "ZI")];
        for (sa, sb) in pairs {
            let a: PauliString = sa.parse().unwrap();
            let b: PauliString = sb.parse().unwrap();
            let (pab, _) = a.mul(&b);
            let (pba, _) = b.mul(&a);
            assert_eq!(a.commutes_with(&b), pab == pba, "{sa} vs {sb}");
        }
    }

    #[test]
    fn basis_state_action_of_x_y_z() {
        // X on a 1-qubit register flips the bit with phase +1.
        let x: PauliString = "X".parse().unwrap();
        assert_eq!(x.apply_to_basis_state(0), (1, Complex64::ONE));
        // Z gives (-1)^b.
        let z: PauliString = "Z".parse().unwrap();
        assert_eq!(z.apply_to_basis_state(1).1, -Complex64::ONE);
        assert_eq!(z.apply_to_basis_state(0).1, Complex64::ONE);
        // Y|0> = i|1>, Y|1> = -i|0>.
        let y: PauliString = "Y".parse().unwrap();
        assert_eq!(y.apply_to_basis_state(0), (1, Complex64::I));
        assert_eq!(y.apply_to_basis_state(1), (0, -Complex64::I));
    }

    #[test]
    fn importance_decay_factor_matches_paper_example() {
        // Figure 4: Pa = X I X Y (q3..q0), PH = I Z X Z; cases: q3 PH=I? no —
        // the paper's worked example has d = 3 with Pa=..., reproduce the
        // three rules directly instead.
        let pa: PauliString = "XIXY".parse().unwrap();
        let ph: PauliString = "IZXZ".parse().unwrap();
        // q3: PH = I (rule 2) → decay. q2: Pa = I (rule 1) → decay.
        // q1: both X (rule 3) → decay. q0: Y vs Z differ → no decay.
        assert_eq!(pa.importance_decay_factor(&ph), 3);
    }

    #[test]
    fn from_ops_and_accessors() {
        let p = PauliString::from_ops(5, &[(0, Pauli::Z), (3, Pauli::X)]);
        assert_eq!(p.to_string(), "IXIIZ");
        assert_eq!(p.weight(), 2);
        assert!(!p.is_identity());
        assert!(PauliString::identity(5).is_identity());
    }

    #[test]
    #[should_panic]
    fn from_ops_rejects_conflicts() {
        let _ = PauliString::from_ops(3, &[(1, Pauli::X), (1, Pauli::Z)]);
    }

    #[test]
    fn symplectic_masks_are_consistent() {
        let p: PauliString = "YXZI".parse().unwrap();
        // q3=Y (x,z), q2=X (x), q1=Z (z), q0=I.
        assert_eq!(p.x_mask(), 0b1100);
        assert_eq!(p.z_mask(), 0b1010);
        let q = PauliString::from_symplectic(4, 0b1100, 0b1010);
        assert_eq!(p, q);
    }
}
