//! The VQE inner loop in the Hartree-Fock determinant's electron sector.
//!
//! A number-conserving UCCSD never takes the Hartree-Fock determinant out
//! of its (Nα, Nβ) block-spin sector ([`SectorBasis`]), so `|ψ(θ)⟩` has
//! `C(m, Nα)·C(m, Nβ)` nonzero amplitudes — 225 of H2O's 4,096. A
//! [`SectorAnsatz`] runs the fused preparation, `H|ψ⟩` and the adjoint peel
//! on those amplitudes only:
//!
//! * `H` is its sector block, a [`SectorOperator`] CSR. As `ψ` stays in the
//!   sector, `⟨ψ|H|ψ⟩ = ⟨ψ|PHP|ψ⟩` for any `H`;
//! * each fused run (see [`crate::state`]) is a list of the in-sector rank
//!   pairs `{b, b⊕x}` with their Z-parity word, walked with the same
//!   per-pair bodies as the full-space sweeps ([`sim::rotation`]).
//!
//! Pairs with one member outside the sector are skipped. That is exact when
//! the run acts as the identity on them, which [`SectorAnsatz::build`]
//! checks once per `(H, IR)`: the run's strings commute pairwise (so on the
//! two-state pair the run is `exp` of the sum of its generators) and, for
//! every parameter, `Σ_k c_k·⟨b⊕x|P_k|b⟩ = 0` on every sector state `b`
//! whose partner leaves the sector (so that sum vanishes there). UCCSD
//! excitations meet both by exact cancellation. An IR that fails either
//! check gets a [`SectorFallback`] and runs full-space.
//!
//! The sweeps are serial — at most a few thousand amplitudes — so results
//! do not depend on the thread count. The public full-space
//! [`prepare_state`](crate::prepare_state), [`energy`](crate::energy) and
//! [`energy_and_gradient`](crate::energy_and_gradient) stay the oracle.

use std::error::Error;
use std::fmt;

use ansatz::{IrEntry, PauliIr};
use numeric::Complex64;
use pauli::{Phase, SectorBasis, SectorError, SectorOperator, WeightedPauliSum};
use sim::rotation::{peel_run_diagonal, peel_run_pair, rotate_run_diagonal, rotate_run_pair};
use sim::PauliRotation;

use crate::state::{adjoint_walk, mask_runs, rotations};

/// Why an `(H, IR)` pair cannot run in the electron sector.
#[derive(Debug, Clone, PartialEq)]
pub enum SectorFallback {
    /// No sector operator: an odd or oversized register, a register
    /// mismatch, or an odd-Y term in `H`.
    Sector(SectorError),
    /// Two strings of one fused run anticommute; `entry` is the IR index of
    /// the later one.
    Anticommuting {
        /// IR index of the offending entry.
        entry: usize,
    },
    /// A fused run moves amplitude out of the sector: the terms of
    /// `entry`'s parameter do not cancel on a pair that leaves it.
    Leaks {
        /// IR index of the first entry of the offending parameter.
        entry: usize,
    },
}

impl SectorFallback {
    /// A short stable label for traces: `odd-register`, `odd-y`,
    /// `qubit-mismatch`, `anticommuting` or `leaks`.
    pub fn kind(&self) -> &'static str {
        match self {
            SectorFallback::Sector(SectorError::InvalidSector { .. }) => "odd-register",
            SectorFallback::Sector(SectorError::OddY(_)) => "odd-y",
            SectorFallback::Sector(SectorError::QubitMismatch { .. }) => "qubit-mismatch",
            SectorFallback::Anticommuting { .. } => "anticommuting",
            SectorFallback::Leaks { .. } => "leaks",
        }
    }
}

impl fmt::Display for SectorFallback {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SectorFallback::Sector(e) => write!(f, "{e}"),
            SectorFallback::Anticommuting { entry } => {
                write!(f, "IR entry {entry} anticommutes with its fused run")
            }
            SectorFallback::Leaks { entry } => {
                write!(f, "the parameter of IR entry {entry} leaves the sector")
            }
        }
    }
}

impl Error for SectorFallback {}

impl From<SectorError> for SectorFallback {
    fn from(e: SectorError) -> Self {
        SectorFallback::Sector(e)
    }
}

/// One in-sector amplitude pair of a fused run: ranks `lo < hi` by basis
/// state (`hi = lo` on a diagonal run) and bit `k` the parity of
/// `|b_lo ∧ z_k|`, as [`pauli::flip::for_each_pair`] would supply it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SectorPair {
    lo: usize,
    hi: usize,
    parities: u64,
}

/// The VQE energy and adjoint gradient of one `(H, IR)` on the initial
/// determinant's electron sector. Built once per VQE run; see the module
/// docs for the eligibility rule.
///
/// # Examples
///
/// ```
/// use ansatz::uccsd::UccsdAnsatz;
/// use pauli::WeightedPauliSum;
/// use vqe::SectorAnsatz;
///
/// let ir = UccsdAnsatz::new(2, 2).into_ir();
/// let mut h = WeightedPauliSum::new(4);
/// h.push(-1.0, "IIZZ".parse()?);
/// h.push(0.15, "XXXX".parse()?);
/// let sector = SectorAnsatz::build(&h, &ir)?;
/// assert_eq!(sector.dim(), 4);
/// let theta = [0.1, -0.2, 0.3];
/// let (e, _) = sector.energy_and_gradient(&theta);
/// assert!((e - vqe::energy(&h, &ir, &theta)).abs() < 1e-12);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SectorAnsatz {
    ir: PauliIr,
    hamiltonian: SectorOperator,
    /// Rank of the initial determinant.
    initial: usize,
    /// The in-sector pairs of each fused run, in IR order.
    runs: Vec<Vec<SectorPair>>,
}

impl SectorAnsatz {
    /// The sector evaluator of `(hamiltonian, ir)`.
    ///
    /// # Errors
    ///
    /// Returns the [`SectorFallback`] that sends the pair to the full-space
    /// path.
    pub fn build(hamiltonian: &WeightedPauliSum, ir: &PauliIr) -> Result<Self, SectorFallback> {
        let basis = SectorBasis::containing(ir.num_qubits(), ir.initial_state())?;
        let operator = SectorOperator::build(hamiltonian, basis.clone())?;
        let states: Vec<u64> = (0..basis.dim()).map(|r| basis.unrank(r)).collect();
        let mut runs = Vec::new();
        let mut start = 0;
        for run in mask_runs(ir.entries(), |e| e.string.x_mask()) {
            runs.push(sector_pairs(&basis, &states, run, start)?);
            start += run.len();
        }
        let Some(initial) = basis.rank(ir.initial_state()) else {
            unreachable!("the sector is the initial state's own");
        };
        Ok(SectorAnsatz {
            ir: ir.clone(),
            hamiltonian: operator,
            initial,
            runs,
        })
    }

    /// The number of amplitudes the sweeps touch.
    pub fn dim(&self) -> usize {
        self.hamiltonian.dim()
    }

    /// `|ψ(θ)⟩` on the sector, indexed by [`SectorBasis::rank`].
    ///
    /// # Panics
    ///
    /// Panics if `params.len()` differs from the IR's parameter count.
    fn prepare(&self, params: &[f64]) -> Vec<Complex64> {
        assert_eq!(
            params.len(),
            self.ir.num_parameters(),
            "parameter count mismatch"
        );
        let mut amps = vec![Complex64::ZERO; self.dim()];
        amps[self.initial] = Complex64::ONE;
        let forward = rotations(&self.ir, params, false);
        for (run, pairs) in mask_runs(&forward, PauliRotation::x_mask).zip(&self.runs) {
            if run[0].x_mask() == 0 {
                for p in pairs {
                    amps[p.lo] = rotate_run_diagonal(run, p.parities, amps[p.lo]);
                }
            } else {
                for p in pairs {
                    (amps[p.lo], amps[p.hi]) =
                        rotate_run_pair(run, p.parities, amps[p.lo], amps[p.hi]);
                }
            }
        }
        amps
    }

    /// `(⟨ψ|H|ψ⟩, H|ψ⟩)` through the sector CSR.
    fn energy_and_h_psi(&self, psi: &[Complex64]) -> (f64, Vec<Complex64>) {
        let mut h_psi = vec![Complex64::ZERO; psi.len()];
        self.hamiltonian.apply(psi, &mut h_psi);
        let e = psi
            .iter()
            .zip(&h_psi)
            .map(|(a, b)| (a.conj() * *b).re)
            .sum();
        (e, h_psi)
    }

    /// The energy `E(θ)`.
    pub fn energy(&self, params: &[f64]) -> f64 {
        self.energy_and_h_psi(&self.prepare(params)).0
    }

    /// Energy and exact adjoint gradient, as
    /// [`energy_and_gradient`](crate::energy_and_gradient) computes them on
    /// the full register.
    pub fn energy_and_gradient(&self, params: &[f64]) -> (f64, Vec<f64>) {
        let psi = self.prepare(params);
        let (e, h_psi) = self.energy_and_h_psi(&psi);
        let mut states: Vec<[Complex64; 2]> = psi
            .into_iter()
            .zip(h_psi)
            .map(|(phi, lambda)| [phi, lambda])
            .collect();
        let grad = adjoint_walk(&self.ir, params, |i, run| {
            let mut acc = vec![0.0; run.len()];
            if run[0].x_mask() == 0 {
                for p in &self.runs[i] {
                    states[p.lo] = peel_run_diagonal(run, p.parities, &mut acc, states[p.lo]);
                }
            } else {
                for p in &self.runs[i] {
                    (states[p.lo], states[p.hi]) =
                        peel_run_pair(run, p.parities, &mut acc, states[p.lo], states[p.hi]);
                }
            }
            acc
        });
        (e, grad)
    }
}

/// The in-sector pairs of one fused run whose first entry is IR entry
/// `start`, after checking that the pairs it skips are exact no-ops.
fn sector_pairs(
    basis: &SectorBasis,
    states: &[u64],
    run: &[IrEntry],
    start: usize,
) -> Result<Vec<SectorPair>, SectorFallback> {
    let x = run[0].string.x_mask();
    let zs: Vec<u64> = run.iter().map(|e| e.string.z_mask()).collect();
    let parities = |b: u64| {
        zs.iter().enumerate().fold(0u64, |acc, (k, &z)| {
            acc | (u64::from((b & z).count_ones() & 1) << k)
        })
    };
    if x == 0 {
        return Ok(states
            .iter()
            .enumerate()
            .map(|(r, &b)| SectorPair {
                lo: r,
                hi: r,
                parities: parities(b),
            })
            .collect());
    }
    // Same-mask strings P_j, P_k commute iff |x ∧ (z_j ⊕ z_k)| is even.
    for (k, &zk) in zs.iter().enumerate() {
        if zs[..k]
            .iter()
            .any(|&zj| (x & (zj ^ zk)).count_ones() % 2 == 1)
        {
            return Err(SectorFallback::Anticommuting { entry: start + k });
        }
    }
    let mut pairs = Vec::new();
    // ⟨b⊕x|P_k|b⟩ depends on b only through its parity word, so each word
    // that leaves the sector is checked once.
    let mut closed: Vec<u64> = Vec::new();
    for (r, &b) in states.iter().enumerate() {
        let partner = b ^ x;
        let p = parities(b);
        match basis.rank(partner) {
            Some(s) if b < partner => pairs.push(SectorPair {
                lo: r,
                hi: s,
                parities: p,
            }),
            Some(_) => {}
            None if closed.contains(&p) => {}
            None => match leaking_entry(run, p) {
                Some(k) => return Err(SectorFallback::Leaks { entry: start + k }),
                None => closed.push(p),
            },
        }
    }
    Ok(pairs)
}

/// The run index of the first entry of a parameter whose terms do not
/// cancel on `|b⟩ → |b⊕x⟩`, for `b` with parity word `parities`:
/// `Σ_k c_k·⟨b⊕x|P_k|b⟩ ≠ 0` beyond the rounding of the coefficients' own
/// sum. `⟨b⊕x|P_k|b⟩ = i^#Y·(−1)^|b∧z_k|`.
fn leaking_entry(run: &[IrEntry], parities: u64) -> Option<usize> {
    // (parameter, first entry, Σ c_k·⟨b⊕x|P_k|b⟩, Σ |c_k|)
    let mut sums: Vec<(usize, usize, Complex64, f64)> = Vec::new();
    for (k, e) in run.iter().enumerate() {
        let ny = (e.string.x_mask() & e.string.z_mask()).count_ones();
        let sign = 2 * ((parities >> k) & 1) as u32;
        let term = Phase::from_power_of_i(ny + sign).to_complex() * e.coefficient;
        match sums.iter_mut().find(|s| s.0 == e.param) {
            Some(s) => {
                s.2 += term;
                s.3 += e.coefficient.abs();
            }
            None => sums.push((e.param, k, term, e.coefficient.abs())),
        }
    }
    sums.into_iter()
        .find(|&(_, _, sum, scale)| sum.norm() > 4.0 * f64::EPSILON * scale)
        .map(|s| s.1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ansatz::uccsd::UccsdAnsatz;

    fn h4() -> WeightedPauliSum {
        let mut h = WeightedPauliSum::new(4);
        for (w, s) in [
            (0.4, "ZIIZ"),
            (-0.7, "IXXI"),
            (-0.7, "IYYI"),
            (0.2, "YZZY"),
            (0.2, "XZZX"),
            (-0.1, "ZZII"),
            (0.15, "XXXX"),
        ] {
            h.push(w, s.parse().unwrap());
        }
        h
    }

    #[test]
    fn uccsd_matches_the_full_space_path() {
        let ir = UccsdAnsatz::new(3, 2).into_ir();
        let mut h = WeightedPauliSum::new(6);
        for (w, s) in [
            (0.3, "IIIZIZ"),
            (-0.2, "ZIIIII"),
            (0.15, "IIIXZX"),
            (0.15, "IIIYZY"),
            (-0.4, "XXIIII"),
            (-0.4, "YYIIII"),
            (0.05, "XXIYYI"),
        ] {
            h.push(w, s.parse().unwrap());
        }
        let sector = SectorAnsatz::build(&h, &ir).unwrap();
        assert_eq!(sector.dim(), 9);
        let theta: Vec<f64> = (0..ir.num_parameters())
            .map(|k| 0.2 * (k as f64 - 3.0))
            .collect();
        let (e, grad) = sector.energy_and_gradient(&theta);
        let (want_e, want_grad) = crate::energy_and_gradient(&h, &ir, &theta);
        assert!((e - want_e).abs() < 1e-13, "{e} vs {want_e}");
        assert!((sector.energy(&theta) - want_e).abs() < 1e-13);
        for (g, w) in grad.iter().zip(&want_grad) {
            assert!((g - w).abs() < 1e-13, "{g} vs {w}");
        }
        // The sector state is the full state's sector block.
        let full = crate::prepare_state(&ir, &theta);
        let basis = SectorBasis::containing(6, ir.initial_state()).unwrap();
        for (r, a) in sector.prepare(&theta).iter().enumerate() {
            let b = basis.unrank(r) as usize;
            assert!((*a - full.amplitudes()[b]).norm() < 1e-14);
        }
    }

    #[test]
    fn ineligible_pairs_name_their_reason() {
        let ir = UccsdAnsatz::new(2, 2).into_ir();
        assert!(SectorAnsatz::build(&h4(), &ir).is_ok());

        let mut odd_y = h4();
        odd_y.push(0.1, "IIXY".parse().unwrap());
        let err = SectorAnsatz::build(&odd_y, &ir).unwrap_err();
        assert_eq!(err.kind(), "odd-y");

        // An α → β hop leaves the (1α, 0β) sector of |01⟩.
        let mut hop = PauliIr::new(2, 0b01);
        for (s, c) in [("XY", 0.5), ("YX", -0.5)] {
            hop.push(IrEntry {
                string: s.parse().unwrap(),
                param: 0,
                coefficient: c,
            });
        }
        let mut h2 = WeightedPauliSum::new(2);
        h2.push(1.0, "ZI".parse().unwrap());
        let err = SectorAnsatz::build(&h2, &hop).unwrap_err();
        assert_eq!(err, SectorFallback::Leaks { entry: 0 });

        // XY and YY share a flip mask but anticommute.
        let mut anti = PauliIr::new(2, 0b01);
        for s in ["XY", "YY"] {
            anti.push(IrEntry {
                string: s.parse().unwrap(),
                param: 0,
                coefficient: 0.5,
            });
        }
        let err = SectorAnsatz::build(&h2, &anti).unwrap_err();
        assert_eq!(err, SectorFallback::Anticommuting { entry: 1 });

        let odd = PauliIr::new(3, 0b001);
        let err = SectorAnsatz::build(&WeightedPauliSum::new(3), &odd).unwrap_err();
        assert_eq!(err.kind(), "odd-register");
    }
}
