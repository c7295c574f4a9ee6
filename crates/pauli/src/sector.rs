//! Particle-number sectors: the N-electron block of a qubit Hamiltonian.
//!
//! A Jordan–Wigner molecular Hamiltonian conserves the number of α and of
//! β electrons. In block-spin order (α spin-orbitals on qubits `0..m`, β on
//! `m..2m`) its ground state therefore lies in the span of the basis states
//! with `Nα` set bits among the low `m` qubits and `Nβ` among the high `m`:
//! the paper's Fig 9 "Ground State", and the only block a number-conserving
//! UCCSD can reach. That block has `C(m, Nα)·C(m, Nβ)` states — 225 for
//! H2O's 4,096 — so the exact reference solves there.
//!
//! * [`SectorBasis`] numbers the sector's states with the combinatorial
//!   number system, `rank = rank_α·C(m, Nβ) + rank_β`, in O(m) per state
//!   and with no `2^n` lookup table.
//! * [`SectorOperator`] is the Hamiltonian's block as a real CSR matrix,
//!   built row by row one flip mask at a time, and solved with
//!   [`numeric::lanczos_ground_state`].
//!
//! # Examples
//!
//! ```
//! use pauli::{SectorBasis, SectorOperator, WeightedPauliSum};
//!
//! // Two sites, one α and one β electron: XX + YY hops each spin.
//! let mut h = WeightedPauliSum::new(4);
//! for s in ["IIXX", "IIYY", "XXII", "YYII"] {
//!     h.push(-0.5, s.parse()?);
//! }
//! let basis = SectorBasis::new(4, 1, 1)?;
//! assert_eq!(basis.dim(), 4);
//! let op = SectorOperator::build(&h, basis)?;
//! assert!((op.ground_state_energy() + 2.0).abs() < 1e-9);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::error::Error;
use std::fmt;

use numeric::{lanczos_ground_state, Complex64, LanczosOptions};

use crate::flip;
use crate::string::PauliString;
use crate::sum::WeightedPauliSum;

/// Why a sector or its operator could not be built.
#[derive(Debug, Clone, PartialEq)]
pub enum SectorError {
    /// The register does not split into two spin blocks holding the
    /// requested electrons: an odd or too large qubit count, or more
    /// electrons of one spin than spin-orbitals.
    InvalidSector {
        /// Qubits of the register.
        num_qubits: usize,
        /// α electrons requested.
        n_alpha: usize,
        /// β electrons requested.
        n_beta: usize,
    },
    /// The sum and the basis act on different qubit counts.
    QubitMismatch {
        /// Qubits of the sum.
        sum: usize,
        /// Qubits of the sector basis.
        basis: usize,
    },
    /// A term with an odd number of Y factors has imaginary matrix elements,
    /// which a real sector matrix cannot hold.
    OddY(PauliString),
}

impl fmt::Display for SectorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SectorError::InvalidSector {
                num_qubits,
                n_alpha,
                n_beta,
            } => write!(
                f,
                "no ({n_alpha}α, {n_beta}β) block-spin sector on {num_qubits} qubits"
            ),
            SectorError::QubitMismatch { sum, basis } => {
                write!(f, "a {sum}-qubit sum cannot act on a {basis}-qubit sector")
            }
            SectorError::OddY(p) => {
                write!(f, "term {p} has an odd Y count and complex matrix elements")
            }
        }
    }
}

impl Error for SectorError {}

/// The basis states of one (Nα, Nβ) sector in block-spin order, numbered
/// by the combinatorial number system.
///
/// Within one spin block, a `k`-electron occupation with set bits
/// `c_1 < … < c_k` has rank `Σ_j C(c_j, j)`: its position among the
/// `k`-bit masks in increasing order. A state's rank is
/// `rank_α·C(m, Nβ) + rank_β`.
///
/// # Examples
///
/// ```
/// use pauli::SectorBasis;
///
/// // H2O's active space: 6 spatial orbitals, 4 α and 4 β electrons.
/// let basis = SectorBasis::new(12, 4, 4)?;
/// assert_eq!(basis.dim(), 225);
/// assert_eq!(basis.rank(0b001111_001111), Some(0));
/// assert_eq!(basis.unrank(224), 0b111100_111100);
/// assert_eq!(basis.rank(0b000111_001111), None); // only 3 β electrons
/// # Ok::<(), pauli::SectorError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SectorBasis {
    /// Spatial orbitals `m`: qubits per spin block.
    modes: usize,
    n_alpha: usize,
    n_beta: usize,
    /// `binom[n][k] = C(n, k)` for `n, k ≤ m`.
    binom: Vec<Vec<usize>>,
}

impl SectorBasis {
    /// The sector with `n_alpha` electrons on qubits `0..n/2` and `n_beta`
    /// on `n/2..n`.
    ///
    /// # Errors
    ///
    /// Returns [`SectorError::InvalidSector`] unless `num_qubits` is even
    /// and in `2..=64` and each spin block can hold its electrons.
    pub fn new(num_qubits: usize, n_alpha: usize, n_beta: usize) -> Result<Self, SectorError> {
        let modes = num_qubits / 2;
        if !num_qubits.is_multiple_of(2)
            || !(2..=64).contains(&num_qubits)
            || n_alpha > modes
            || n_beta > modes
        {
            return Err(SectorError::InvalidSector {
                num_qubits,
                n_alpha,
                n_beta,
            });
        }
        let mut binom = vec![vec![0usize; modes + 1]; modes + 1];
        for n in 0..=modes {
            binom[n][0] = 1;
            for k in 1..=n {
                binom[n][k] = binom[n - 1][k - 1] + binom[n - 1][k];
            }
        }
        Ok(SectorBasis {
            modes,
            n_alpha,
            n_beta,
            binom,
        })
    }

    /// The sector of basis state `state`: its α and β electron counts.
    ///
    /// # Errors
    ///
    /// As [`SectorBasis::new`]; also when `state` has bits at or above
    /// `num_qubits`.
    pub fn containing(num_qubits: usize, state: u64) -> Result<Self, SectorError> {
        let half = (num_qubits / 2).min(32);
        let low = (1u64 << half) - 1;
        let n_alpha = (state & low).count_ones() as usize;
        let n_beta = (state >> half).count_ones() as usize;
        if num_qubits < 64 && state >> num_qubits != 0 {
            return Err(SectorError::InvalidSector {
                num_qubits,
                n_alpha,
                n_beta,
            });
        }
        Self::new(num_qubits, n_alpha, n_beta)
    }

    /// Qubits of the register (`2m`).
    pub fn num_qubits(&self) -> usize {
        2 * self.modes
    }

    /// α electrons (set bits on qubits `0..m`).
    pub fn n_alpha(&self) -> usize {
        self.n_alpha
    }

    /// β electrons (set bits on qubits `m..2m`).
    pub fn n_beta(&self) -> usize {
        self.n_beta
    }

    /// The number of states, `C(m, Nα)·C(m, Nβ)`.
    pub fn dim(&self) -> usize {
        self.binom[self.modes][self.n_alpha] * self.binom[self.modes][self.n_beta]
    }

    fn block_mask(&self) -> u64 {
        // m ≤ 32, so the shift never overflows.
        (1u64 << self.modes) - 1
    }

    /// Rank of a `k`-bit occupation within one spin block.
    fn rank_block(&self, mut bits: u64) -> usize {
        let mut rank = 0;
        let mut j = 0;
        while bits != 0 {
            j += 1;
            rank += self.binom[bits.trailing_zeros() as usize][j];
            bits &= bits - 1;
        }
        rank
    }

    /// The `k`-bit occupation of one spin block with the given rank.
    fn unrank_block(&self, mut rank: usize, k: usize) -> u64 {
        let mut bits = 0u64;
        let mut c = self.modes;
        for j in (1..=k).rev() {
            // The largest c with C(c, j) ≤ rank; C(j−1, j) = 0 bounds it.
            c -= 1;
            while self.binom[c][j] > rank {
                c -= 1;
            }
            bits |= 1 << c;
            rank -= self.binom[c][j];
        }
        bits
    }

    /// The rank of basis state `state`, or `None` if it lies outside the
    /// sector.
    pub fn rank(&self, state: u64) -> Option<usize> {
        let mask = self.block_mask();
        let (alpha, beta) = (state & mask, state >> self.modes);
        let outside = alpha.count_ones() as usize != self.n_alpha
            || beta & !mask != 0
            || beta.count_ones() as usize != self.n_beta;
        if outside {
            return None;
        }
        let dim_beta = self.binom[self.modes][self.n_beta];
        Some(self.rank_block(alpha) * dim_beta + self.rank_block(beta))
    }

    /// The basis state of rank `rank`.
    ///
    /// # Panics
    ///
    /// Panics if `rank >= self.dim()`.
    pub fn unrank(&self, rank: usize) -> u64 {
        assert!(
            rank < self.dim(),
            "rank {rank} outside a {}-state sector",
            self.dim()
        );
        let dim_beta = self.binom[self.modes][self.n_beta];
        let alpha = self.unrank_block(rank / dim_beta, self.n_alpha);
        let beta = self.unrank_block(rank % dim_beta, self.n_beta);
        alpha | (beta << self.modes)
    }
}

/// A real Hermitian operator restricted to one [`SectorBasis`], as a CSR
/// matrix.
///
/// Row `t` holds, for every flip mask `x` of the sum whose partner
/// `s = t ⊕ x` lies in the sector, the entry
/// `H[t, s] = Σ_group w·Re(i^#Y)·(−1)^|s∧z|` over the terms on `x` — the
/// sign convention of the grouped `H|ψ⟩` sweep. Pairs that leave the sector
/// are dropped, so the matrix is the exact block only when the sum conserves
/// the sector (every molecular Jordan–Wigner Hamiltonian does).
#[derive(Debug, Clone, PartialEq)]
pub struct SectorOperator {
    basis: SectorBasis,
    /// Row `r` is `cols/values[row_start[r]..row_start[r + 1]]`.
    row_start: Vec<usize>,
    cols: Vec<usize>,
    values: Vec<f64>,
    /// The largest absolute row sum: a bound on the spectral radius.
    norm_bound: f64,
}

impl SectorOperator {
    /// Restricts `sum` to `basis`.
    ///
    /// # Errors
    ///
    /// Returns [`SectorError::QubitMismatch`] if the qubit counts differ and
    /// [`SectorError::OddY`] for a term with an odd Y count.
    pub fn build(sum: &WeightedPauliSum, basis: SectorBasis) -> Result<Self, SectorError> {
        if sum.num_qubits() != basis.num_qubits() {
            return Err(SectorError::QubitMismatch {
                sum: sum.num_qubits(),
                basis: basis.num_qubits(),
            });
        }
        // Per term: (x, z, w·Re(i^#Y)), grouped by flip mask.
        let mut terms = Vec::with_capacity(sum.len());
        for &(w, p) in sum {
            let (x, z) = (p.x_mask(), p.z_mask());
            let ny = (x & z).count_ones();
            if ny % 2 == 1 {
                return Err(SectorError::OddY(p));
            }
            terms.push((x, z, if ny % 4 == 0 { w } else { -w }));
        }
        terms.sort_by_key(|t| t.0);
        let groups: Vec<&[(u64, u64, f64)]> = terms.chunk_by(|a, b| a.0 == b.0).collect();

        let dim = basis.dim();
        let mut row_start = Vec::with_capacity(dim + 1);
        let mut cols = Vec::new();
        let mut values = Vec::new();
        let mut norm_bound = 0.0f64;
        row_start.push(0);
        for row in 0..dim {
            let t = basis.unrank(row);
            let mut row_sum = 0.0;
            for group in &groups {
                let s = t ^ group[0].0;
                let Some(col) = basis.rank(s) else {
                    continue;
                };
                let value = group.iter().fold(0.0, |acc, &(_, z, c)| {
                    acc + flip::signed(c, u64::from((s & z).count_ones() & 1))
                });
                if value != 0.0 {
                    cols.push(col);
                    values.push(value);
                    row_sum += value.abs();
                }
            }
            norm_bound = norm_bound.max(row_sum);
            row_start.push(cols.len());
        }
        Ok(SectorOperator {
            basis,
            row_start,
            cols,
            values,
            norm_bound,
        })
    }

    /// The sector dimension.
    pub fn dim(&self) -> usize {
        self.basis.dim()
    }

    /// `out = H·state` on sector vectors, indexed by [`SectorBasis::rank`].
    ///
    /// # Panics
    ///
    /// Panics if either slice's length differs from [`dim`](Self::dim).
    pub fn apply(&self, state: &[Complex64], out: &mut [Complex64]) {
        assert_eq!(
            state.len(),
            self.dim(),
            "state length must be the sector dimension"
        );
        assert_eq!(
            out.len(),
            self.dim(),
            "output length must be the sector dimension"
        );
        for (row, y) in out.iter_mut().enumerate() {
            let range = self.row_start[row]..self.row_start[row + 1];
            *y = self.cols[range.clone()]
                .iter()
                .zip(&self.values[range])
                .fold(Complex64::ZERO, |acc, (&col, &v)| acc + state[col] * v);
        }
    }

    /// The sector's smallest eigenvalue, by Lanczos with the options and
    /// seed of [`WeightedPauliSum::ground_state_energy`].
    pub fn ground_state_energy(&self) -> f64 {
        lanczos_ground_state(
            self.dim(),
            |x, y| self.apply(x, y),
            LanczosOptions::default(),
            0x5eed,
        )
        .eigenvalue
    }

    /// The sector's `k` lowest eigenvalues, by Lanczos with deflation as in
    /// [`WeightedPauliSum::lowest_eigenvalues`].
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero or exceeds the sector dimension.
    pub fn lowest_eigenvalues(&self, k: usize) -> Vec<f64> {
        numeric::lanczos_lowest_eigenvalues(
            self.dim(),
            k,
            10.0 * self.norm_bound.max(1.0),
            |x, y| self.apply(x, y),
            LanczosOptions {
                tol: 1e-12,
                max_iter: 400,
            },
            0x5eed,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_ranks_follow_increasing_masks() {
        let basis = SectorBasis::new(10, 2, 3).unwrap();
        let alphas: Vec<u64> = (0..32u64).filter(|b| b.count_ones() == 2).collect();
        for (rank, &a) in alphas.iter().enumerate() {
            assert_eq!(basis.rank_block(a), rank);
            assert_eq!(basis.unrank_block(rank, 2), a);
        }
    }

    #[test]
    fn rank_rejects_states_outside_the_sector() {
        let basis = SectorBasis::new(4, 1, 1).unwrap();
        assert_eq!(basis.rank(0b0101), Some(0));
        assert_eq!(basis.rank(0b0011), None);
        assert_eq!(basis.rank(0b1_0101), None, "bit above the register");
    }

    #[test]
    fn invalid_sectors_are_typed_errors() {
        assert!(matches!(
            SectorBasis::new(5, 1, 1),
            Err(SectorError::InvalidSector { .. })
        ));
        assert!(matches!(
            SectorBasis::new(4, 3, 0),
            Err(SectorError::InvalidSector { .. })
        ));
        assert!(matches!(
            SectorBasis::containing(4, 0b1_0000),
            Err(SectorError::InvalidSector { .. })
        ));
        let full = SectorBasis::new(64, 32, 32).unwrap();
        assert_eq!(full.unrank(0), u64::MAX);
    }

    #[test]
    fn odd_y_terms_are_rejected() {
        let mut h = WeightedPauliSum::new(4);
        h.push(1.0, "IIXY".parse().unwrap());
        let basis = SectorBasis::new(4, 1, 1).unwrap();
        assert!(matches!(
            SectorOperator::build(&h, basis.clone()),
            Err(SectorError::OddY(_))
        ));
        let h6 = WeightedPauliSum::new(6);
        assert!(matches!(
            SectorOperator::build(&h6, basis),
            Err(SectorError::QubitMismatch { sum: 6, basis: 4 })
        ));
    }

    #[test]
    fn entries_match_the_full_space_action() {
        // Number-conserving hops with Z strings, a YY pair and diagonal
        // terms: every CSR entry equals ⟨t|H|s⟩ from the grouped apply.
        let mut h = WeightedPauliSum::new(6);
        for (w, s) in [
            (0.3, "IIIZIZ"),
            (-0.2, "ZIIIII"),
            (0.7, "IIIIII"),
            (0.15, "IIIXZX"),
            (0.15, "IIIYZY"),
            (-0.4, "XXIIII"),
            (-0.4, "YYIIII"),
            (0.05, "XXIYYI"),
        ] {
            h.push(w, s.parse().unwrap());
        }
        let basis = SectorBasis::new(6, 1, 2).unwrap();
        let op = SectorOperator::build(&h, basis.clone()).unwrap();
        let dim = basis.dim();
        for col in 0..dim {
            let mut full = vec![Complex64::ZERO; 64];
            full[basis.unrank(col) as usize] = Complex64::ONE;
            let mut h_full = vec![Complex64::ZERO; 64];
            h.apply(&full, &mut h_full);
            let mut unit = vec![Complex64::ZERO; dim];
            unit[col] = Complex64::ONE;
            let mut h_sector = vec![Complex64::ZERO; dim];
            op.apply(&unit, &mut h_sector);
            for (row, got) in h_sector.iter().enumerate() {
                let want = h_full[basis.unrank(row) as usize];
                assert!((*got - want).norm() < 1e-14, "H[{row}, {col}]");
            }
        }
    }
}
