//! Restricted Hartree-Fock with DIIS convergence acceleration.

use std::error::Error;
use std::fmt;

use numeric::{jacobi_eigen, lu_solve, Eigen, RealMatrix};

use crate::integrals::AoIntegrals;

/// Error from the SCF procedure.
#[derive(Debug, Clone, PartialEq)]
pub enum ScfError {
    /// Odd electron count (RHF is closed-shell only).
    OddElectronCount(usize),
    /// More occupied orbitals than basis functions.
    BasisTooSmall {
        /// Doubly-occupied orbitals required.
        occupied: usize,
        /// Basis functions available.
        basis: usize,
    },
    /// SCF failed to converge within the iteration limit.
    NotConverged {
        /// Iterations performed.
        iterations: usize,
        /// Last energy change seen.
        delta_e: f64,
    },
    /// The electronic energy or DIIS error became NaN/±∞. Raised on the
    /// first iteration a non-finite value appears, so callers can retry
    /// (e.g. with damping or a level shift) instead of iterating on garbage.
    NonFiniteEnergy {
        /// Iteration at which the non-finite value appeared.
        iteration: usize,
        /// The offending electronic energy.
        energy: f64,
    },
    /// The orthogonalized Fock matrix about to be diagonalized is not
    /// finite, or not symmetric to 1e-9 — the precondition of the Jacobi
    /// eigensolver. Seen when DIIS extrapolation runs away on a stretched
    /// geometry; callers can retry with damping or a level shift.
    IllFormedFock {
        /// Iteration whose Fock matrix failed the check.
        iteration: usize,
        /// The largest `|F_ij − F_ji|` (NaN when an entry is not finite).
        asymmetry: f64,
    },
}

impl fmt::Display for ScfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScfError::OddElectronCount(n) => {
                write!(
                    f,
                    "restricted Hartree-Fock requires an even electron count, got {n}"
                )
            }
            ScfError::BasisTooSmall { occupied, basis } => {
                write!(
                    f,
                    "{occupied} occupied orbitals exceed {basis} basis functions"
                )
            }
            ScfError::NotConverged {
                iterations,
                delta_e,
            } => {
                write!(
                    f,
                    "SCF did not converge in {iterations} iterations (ΔE = {delta_e:e})"
                )
            }
            ScfError::NonFiniteEnergy { iteration, energy } => {
                write!(
                    f,
                    "SCF energy became non-finite ({energy}) at iteration {iteration}"
                )
            }
            ScfError::IllFormedFock {
                iteration,
                asymmetry,
            } => {
                write!(
                    f,
                    "orthogonalized Fock matrix is not finite and symmetric at iteration \
                     {iteration} (max |F_ij − F_ji| = {asymmetry:e})"
                )
            }
        }
    }
}

impl Error for ScfError {}

/// Converged Hartree-Fock solution.
#[derive(Debug, Clone, PartialEq)]
pub struct ScfResult {
    /// Total energy (electronic + nuclear repulsion), Hartree.
    pub total_energy: f64,
    /// Electronic energy, Hartree.
    pub electronic_energy: f64,
    /// MO coefficients: column `k` is orbital `k` in the AO basis, sorted by
    /// ascending orbital energy.
    pub mo_coefficients: RealMatrix,
    /// Orbital energies, ascending.
    pub orbital_energies: Vec<f64>,
    /// Number of doubly-occupied orbitals.
    pub num_occupied: usize,
    /// SCF iterations used.
    pub iterations: usize,
}

/// SCF convergence options.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScfOptions {
    /// Maximum iterations.
    pub max_iter: usize,
    /// Convergence threshold on the energy change.
    pub energy_tol: f64,
    /// Convergence threshold on the DIIS error norm.
    pub error_tol: f64,
    /// Maximum DIIS history length.
    pub diis_depth: usize,
    /// Fock damping factor `α ∈ [0, 1)`: the next Fock matrix becomes
    /// `(1−α)·F_new + α·F_prev`. `0.0` disables damping. When damping or a
    /// level shift is active, DIIS extrapolation is bypassed — this is the
    /// conservative convergence ladder used for difficult geometries.
    pub damping: f64,
    /// Level shift `λ` (Hartree) added to the virtual orbitals via
    /// `F ← F + λ(S − ½·S·D·S)`, separating occupied and virtual manifolds
    /// on near-degenerate problems. `0.0` disables the shift.
    pub level_shift: f64,
}

impl Default for ScfOptions {
    fn default() -> Self {
        ScfOptions {
            max_iter: 200,
            energy_tol: 1e-10,
            error_tol: 1e-8,
            diis_depth: 8,
            damping: 0.0,
            level_shift: 0.0,
        }
    }
}

/// Runs restricted Hartree-Fock for `num_electrons` electrons.
///
/// # Errors
///
/// Returns [`ScfError`] for odd electron counts, too-small bases,
/// non-convergence, a non-finite energy, or an ill-formed Fock matrix.
pub fn restricted_hartree_fock(
    ints: &AoIntegrals,
    num_electrons: usize,
    options: ScfOptions,
) -> Result<ScfResult, ScfError> {
    if !num_electrons.is_multiple_of(2) {
        return Err(ScfError::OddElectronCount(num_electrons));
    }
    let mut scf_span = obs::span("chem.scf");
    scf_span.record("electrons", num_electrons);
    scf_span.record("max_iter", options.max_iter);
    let n = ints.overlap.rows();
    let nocc = num_electrons / 2;
    if nocc > n {
        return Err(ScfError::BasisTooSmall {
            occupied: nocc,
            basis: n,
        });
    }

    // Symmetric orthogonalization X = S^{-1/2}.
    let s_eig = jacobi_eigen(&ints.overlap);
    let x = {
        let u = &s_eig.vectors;
        RealMatrix::from_fn(n, n, |i, j| {
            (0..n)
                .map(|k| u[(i, k)] / s_eig.values[k].sqrt() * u[(j, k)])
                .sum()
        })
    };

    // The loop carries the Fock matrix about to be diagonalized, the DIIS
    // histories and the last energy; the density is rebuilt every iteration.
    let h = &ints.core_hamiltonian;
    let mut fock = h.clone();
    let (mut energy, mut last_delta_e) = (0.0, f64::NAN);
    let (mut fock_history, mut error_history) = (Vec::new(), Vec::new());
    // Damping/level-shift take precedence over DIIS: they are the stable,
    // slow ladder used on retries after divergence.
    let use_ladder = options.damping != 0.0 || options.level_shift != 0.0;

    for it in 1..=options.max_iter {
        // Orthogonalize, diagonalize, back-transform.
        let f_eig = diagonalize_fock(&x.mul(&fock).mul(&x), it)?;
        let c = x.mul(&f_eig.vectors);

        // Closed-shell density D = 2 C_occ C_occᵀ.
        let density = RealMatrix::from_fn(n, n, |mu, nu| {
            2.0 * (0..nocc).map(|i| c[(mu, i)] * c[(nu, i)]).sum::<f64>()
        });

        // New Fock matrix F = h + G(D).
        let mut g = RealMatrix::zeros(n, n);
        for mu in 0..n {
            for nu in 0..n {
                let mut acc = 0.0;
                for la in 0..n {
                    for si in 0..n {
                        acc += density[(la, si)]
                            * (ints.eri.get(mu, nu, la, si) - 0.5 * ints.eri.get(mu, si, la, nu));
                    }
                }
                g[(mu, nu)] = acc;
            }
        }
        let new_fock = h + &g;

        // Electronic energy E = ½ Σ D (h + F).
        let mut e_elec = 0.0;
        for mu in 0..n {
            for nu in 0..n {
                e_elec += 0.5 * density[(mu, nu)] * (h[(mu, nu)] + new_fock[(mu, nu)]);
            }
        }

        // DIIS error e = X(FDS − SDF)X.
        let fds = new_fock.mul(&density).mul(&ints.overlap);
        let sdf = ints.overlap.mul(&density).mul(&new_fock);
        let err = x.mul(&(&fds - &sdf)).mul(&x);
        let err_norm = err.frobenius_norm();
        if !e_elec.is_finite() || !err_norm.is_finite() {
            scf_span.record("iterations", it);
            scf_span.record("converged", false);
            scf_span.record("non_finite", true);
            return Err(ScfError::NonFiniteEnergy {
                iteration: it,
                energy: e_elec,
            });
        }
        let delta_e = (e_elec - energy).abs();
        energy = e_elec;
        last_delta_e = delta_e;

        obs::event!(
            "chem.scf.iter",
            iter = it,
            energy = e_elec,
            delta_e = delta_e,
            diis_error = err_norm
        );
        obs::histogram_record("chem.scf.diis_error", err_norm);

        if delta_e < options.energy_tol && err_norm < options.error_tol {
            // Recompute final orbitals from the converged Fock matrix.
            let f_eig = diagonalize_fock(&x.mul(&new_fock).mul(&x), it)?;
            let c = x.mul(&f_eig.vectors);
            scf_span.record("iterations", it);
            scf_span.record("converged", true);
            scf_span.record("electronic_energy", energy);
            scf_span.record("total_energy", energy + ints.nuclear_repulsion);
            obs::counter_add("chem.scf.iterations", it as u64);
            return Ok(ScfResult {
                total_energy: energy + ints.nuclear_repulsion,
                electronic_energy: energy,
                mo_coefficients: c,
                orbital_energies: f_eig.values,
                num_occupied: nocc,
                iterations: it,
            });
        }

        fock = if use_ladder {
            // Damping: mix the fresh Fock with the one used this iteration.
            let alpha = options.damping;
            let mut next = if alpha != 0.0 {
                RealMatrix::from_fn(n, n, |i, j| {
                    (1.0 - alpha) * new_fock[(i, j)] + alpha * fock[(i, j)]
                })
            } else {
                new_fock
            };
            // Level shift: F += λ(S − ½·S·D·S) raises virtual orbital
            // energies by λ while leaving the occupied space untouched.
            if options.level_shift != 0.0 {
                let sds = ints.overlap.mul(&density).mul(&ints.overlap);
                let lam = options.level_shift;
                next = RealMatrix::from_fn(n, n, |i, j| {
                    next[(i, j)] + lam * (ints.overlap[(i, j)] - 0.5 * sds[(i, j)])
                });
            }
            next
        } else {
            // DIIS extrapolation.
            fock_history.push(new_fock.clone());
            error_history.push(err);
            if fock_history.len() > options.diis_depth {
                fock_history.remove(0);
                error_history.remove(0);
            }
            if fock_history.len() >= 2 {
                diis_extrapolate(&fock_history, &error_history).unwrap_or(new_fock)
            } else {
                new_fock
            }
        };
    }

    scf_span.record("iterations", options.max_iter);
    scf_span.record("converged", false);
    obs::counter_add("chem.scf.iterations", options.max_iter as u64);
    Err(ScfError::NotConverged {
        iterations: options.max_iter,
        delta_e: last_delta_e,
    })
}

/// Diagonalizes the orthogonalized Fock matrix of iteration `iteration`,
/// or returns [`ScfError::IllFormedFock`] where [`jacobi_eigen`] would
/// panic. The matrix is checked, never symmetrized: a converging run's
/// orbitals stay bit-identical.
fn diagonalize_fock(f_ortho: &RealMatrix, iteration: usize) -> Result<Eigen, ScfError> {
    let n = f_ortho.rows();
    let pairs = (0..n).flat_map(|i| (i..n).map(move |j| (f_ortho[(i, j)], f_ortho[(j, i)])));
    let finite = pairs.clone().all(|(a, b)| a.is_finite() && b.is_finite());
    let asymmetry = if finite {
        pairs.map(|(a, b)| (a - b).abs()).fold(0.0, f64::max)
    } else {
        f64::NAN
    };
    // The tolerance `jacobi_eigen` asserts.
    if !finite || asymmetry > 1e-9 {
        return Err(ScfError::IllFormedFock {
            iteration,
            asymmetry,
        });
    }
    Ok(jacobi_eigen(f_ortho))
}

/// Solves the DIIS least-squares problem and returns the extrapolated Fock
/// matrix, or `None` if the system is singular.
fn diis_extrapolate(focks: &[RealMatrix], errors: &[RealMatrix]) -> Option<RealMatrix> {
    let m = focks.len();
    // B_ij = ⟨e_i, e_j⟩ bordered with -1 row/col (Pulay).
    let mut b = RealMatrix::zeros(m + 1, m + 1);
    for i in 0..m {
        for j in 0..m {
            let dot: f64 = errors[i]
                .as_slice()
                .iter()
                .zip(errors[j].as_slice())
                .map(|(a, c)| a * c)
                .sum();
            b[(i, j)] = dot;
        }
        b[(i, m)] = -1.0;
        b[(m, i)] = -1.0;
    }
    let mut rhs = vec![0.0; m + 1];
    rhs[m] = -1.0;
    let coeffs = lu_solve(&b, &rhs).ok()?;

    let n = focks[0].rows();
    let mut out = RealMatrix::zeros(n, n);
    for (k, f) in focks.iter().enumerate() {
        for i in 0..n {
            for j in 0..n {
                out[(i, j)] += coeffs[k] * f[(i, j)];
            }
        }
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::basis::build_basis;
    use crate::geometry::shapes::{bent_xh2, diatomic};
    use crate::integrals::compute_ao_integrals;
    use crate::{Element, ANGSTROM_TO_BOHR};

    fn run(molecule: &crate::Molecule) -> ScfResult {
        let basis = build_basis(molecule);
        let ints = compute_ao_integrals(molecule, &basis);
        restricted_hartree_fock(&ints, molecule.num_electrons(), ScfOptions::default()).unwrap()
    }

    #[test]
    fn h2_energy_matches_szabo_ostlund() {
        // E(HF/STO-3G) at R = 1.4 Bohr: −1.1167 Hartree.
        let m = diatomic(Element::H, Element::H, 1.4 / ANGSTROM_TO_BOHR);
        let r = run(&m);
        assert!(
            (r.total_energy + 1.1167).abs() < 2e-3,
            "E = {}",
            r.total_energy
        );
        assert_eq!(r.num_occupied, 1);
    }

    #[test]
    fn h2o_energy_near_literature() {
        // HF/STO-3G water ≈ −74.96 Hartree near equilibrium.
        let m = bent_xh2(Element::O, 0.96, 104.5);
        let r = run(&m);
        assert!(
            (r.total_energy + 74.96).abs() < 0.05,
            "E = {}",
            r.total_energy
        );
        assert_eq!(r.num_occupied, 5);
    }

    #[test]
    fn lih_energy_near_literature() {
        // HF/STO-3G LiH ≈ −7.86 Hartree near equilibrium.
        let m = diatomic(Element::Li, Element::H, 1.60);
        let r = run(&m);
        assert!(
            (r.total_energy + 7.86).abs() < 0.02,
            "E = {}",
            r.total_energy
        );
    }

    #[test]
    fn orbital_energies_sorted_and_aufbau() {
        let m = bent_xh2(Element::O, 0.96, 104.5);
        let r = run(&m);
        for w in r.orbital_energies.windows(2) {
            assert!(w[0] <= w[1] + 1e-12);
        }
        // Occupied orbitals must be below the LUMO.
        assert!(r.orbital_energies[r.num_occupied - 1] < r.orbital_energies[r.num_occupied]);
    }

    #[test]
    fn mo_coefficients_are_s_orthonormal() {
        let m = diatomic(Element::Li, Element::H, 1.6);
        let basis = build_basis(&m);
        let ints = compute_ao_integrals(&m, &basis);
        let r = restricted_hartree_fock(&ints, 4, ScfOptions::default()).unwrap();
        let ctsc = r
            .mo_coefficients
            .transpose()
            .mul(&ints.overlap)
            .mul(&r.mo_coefficients);
        assert!(ctsc.max_abs_diff(&RealMatrix::identity(basis.len())) < 1e-8);
    }

    #[test]
    fn odd_electron_count_is_rejected() {
        let m = diatomic(Element::H, Element::H, 0.74);
        let basis = build_basis(&m);
        let ints = compute_ao_integrals(&m, &basis);
        assert!(matches!(
            restricted_hartree_fock(&ints, 3, ScfOptions::default()),
            Err(ScfError::OddElectronCount(3))
        ));
    }

    #[test]
    fn stretched_points_fail_typed_instead_of_panicking() {
        // At 2.5 Å, DIIS runs away on H2O and NH3 until the orthogonalized
        // Fock matrix is asymmetric past Jacobi's 1e-9 precondition. The
        // build must end in Ok or a typed SCF error, never a panic.
        for molecule in [crate::Benchmark::H2O, crate::Benchmark::NH3] {
            match molecule.build(2.5) {
                Ok(system) => assert!(system.hartree_fock_energy().is_finite()),
                Err(crate::ChemError::Scf(e)) => {
                    assert!(
                        matches!(e, ScfError::IllFormedFock { .. }),
                        "{molecule:?}: {e}"
                    )
                }
                Err(e) => panic!("{molecule:?}: unexpected {e}"),
            }
        }
    }

    #[test]
    fn ill_formed_fock_is_a_typed_error() {
        let asymmetric = RealMatrix::from_vec(2, 2, vec![1.0, 0.5, 0.5 + 2e-9, 1.0]);
        assert!(matches!(
            diagonalize_fock(&asymmetric, 4),
            Err(ScfError::IllFormedFock { iteration: 4, asymmetry }) if asymmetry > 1e-9
        ));
        let poisoned = RealMatrix::from_vec(2, 2, vec![f64::NAN, 0.0, 0.0, 1.0]);
        assert!(matches!(
            diagonalize_fock(&poisoned, 2),
            Err(ScfError::IllFormedFock { asymmetry, .. }) if asymmetry.is_nan()
        ));
        let symmetric = RealMatrix::from_vec(2, 2, vec![2.0, 1.0, 1.0, 2.0]);
        assert_eq!(
            diagonalize_fock(&symmetric, 1).unwrap(),
            jacobi_eigen(&symmetric)
        );
    }

    #[test]
    fn energy_is_variational_in_bond_length() {
        // HF energy curve of H2 must have a minimum near 0.73 Å.
        let energies: Vec<f64> = [0.5, 0.7, 0.9]
            .iter()
            .map(|&d| run(&diatomic(Element::H, Element::H, d)).total_energy)
            .collect();
        assert!(energies[1] < energies[0]);
        assert!(energies[1] < energies[2]);
    }
}
