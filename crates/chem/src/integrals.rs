//! One- and two-electron integrals over contracted Cartesian Gaussians,
//! McMurchie–Davidson scheme.
//!
//! The per-function integrals ([`overlap`], [`kinetic`], [`nuclear`],
//! [`dipole`], [`eri`]) recurse per primitive and take any angular
//! momentum. [`compute_ao_integrals`] is the engine the pipeline runs: it
//! groups functions into shells, sets each primitive pair up once and
//! shares the Boys function and Hermite tables across a shell quartet,
//! for the s and p functions of the minimal STO-3G basis. It reproduces
//! the per-function integrals bit for bit, and they are its test oracle.
//! References: Helgaker, Jørgensen & Olsen, *Molecular Electronic-Structure
//! Theory*, ch. 9; test values from Szabo & Ostlund appendix tables.

use numeric::RealMatrix;

use crate::basis::BasisFunction;
use crate::boys::{boys, boys_into};
use crate::geometry::Molecule;

/// Hermite expansion coefficient `E_t^{ij}` for a 1D Gaussian product.
///
/// `qx = Ax − Bx`; `a`, `b` are the primitive exponents.
fn hermite_e(i: i32, j: i32, t: i32, qx: f64, a: f64, b: f64) -> f64 {
    let p = a + b;
    let q = a * b / p;
    if t < 0 || t > i + j {
        return 0.0;
    }
    if i == 0 && j == 0 && t == 0 {
        return (-q * qx * qx).exp();
    }
    if i > 0 {
        // Decrement i.
        hermite_e(i - 1, j, t - 1, qx, a, b) / (2.0 * p)
            - q * qx / a * hermite_e(i - 1, j, t, qx, a, b)
            + (t + 1) as f64 * hermite_e(i - 1, j, t + 1, qx, a, b)
    } else {
        // Decrement j.
        hermite_e(i, j - 1, t - 1, qx, a, b) / (2.0 * p)
            + q * qx / b * hermite_e(i, j - 1, t, qx, a, b)
            + (t + 1) as f64 * hermite_e(i, j - 1, t + 1, qx, a, b)
    }
}

/// Hermite Coulomb integral `R^0_{tuv}(p, PC)` by downward recursion on the
/// Boys order.
fn hermite_coulomb(t: i32, u: i32, v: i32, n: usize, p: f64, pc: [f64; 3], fb: &[f64]) -> f64 {
    if t < 0 || u < 0 || v < 0 {
        return 0.0;
    }
    if t == 0 && u == 0 && v == 0 {
        return (-2.0 * p).powi(n as i32) * fb[n];
    }
    if t > 0 {
        (t - 1) as f64 * hermite_coulomb(t - 2, u, v, n + 1, p, pc, fb)
            + pc[0] * hermite_coulomb(t - 1, u, v, n + 1, p, pc, fb)
    } else if u > 0 {
        (u - 1) as f64 * hermite_coulomb(t, u - 2, v, n + 1, p, pc, fb)
            + pc[1] * hermite_coulomb(t, u - 1, v, n + 1, p, pc, fb)
    } else {
        (v - 1) as f64 * hermite_coulomb(t, u, v - 2, n + 1, p, pc, fb)
            + pc[2] * hermite_coulomb(t, u, v - 1, n + 1, p, pc, fb)
    }
}

fn dist_sq(a: [f64; 3], b: [f64; 3]) -> f64 {
    (a[0] - b[0]).powi(2) + (a[1] - b[1]).powi(2) + (a[2] - b[2]).powi(2)
}

/// Overlap of two primitive Gaussians (unnormalized, unit coefficients).
fn overlap_prim(a: f64, la: [u32; 3], ra: [f64; 3], b: f64, lb: [u32; 3], rb: [f64; 3]) -> f64 {
    let p = a + b;
    let mut s = (std::f64::consts::PI / p).powf(1.5);
    for d in 0..3 {
        s *= hermite_e(la[d] as i32, lb[d] as i32, 0, ra[d] - rb[d], a, b);
    }
    s
}

/// Kinetic-energy integral of two primitives.
fn kinetic_prim(a: f64, la: [u32; 3], ra: [f64; 3], b: f64, lb: [u32; 3], rb: [f64; 3]) -> f64 {
    // 1D overlap factors s(i, j) per dimension, with shifted j.
    let sd = |d: usize, di: i32, dj: i32| -> f64 {
        let i = la[d] as i32 + di;
        let j = lb[d] as i32 + dj;
        if i < 0 || j < 0 {
            0.0
        } else {
            hermite_e(i, j, 0, ra[d] - rb[d], a, b)
        }
    };
    let t1d = |d: usize| -> f64 {
        let j = lb[d] as f64;
        -2.0 * b * b * sd(d, 0, 2) + b * (2.0 * j + 1.0) * sd(d, 0, 0)
            - 0.5 * j * (j - 1.0) * sd(d, 0, -2)
    };
    let p = a + b;
    let pref = (std::f64::consts::PI / p).powf(1.5);
    let (sx, sy, sz) = (sd(0, 0, 0), sd(1, 0, 0), sd(2, 0, 0));
    pref * (t1d(0) * sy * sz + sx * t1d(1) * sz + sx * sy * t1d(2))
}

/// Nuclear-attraction integral of two primitives with a nucleus at `rc`
/// (charge +1; multiply by −Z externally).
fn nuclear_prim(
    a: f64,
    la: [u32; 3],
    ra: [f64; 3],
    b: f64,
    lb: [u32; 3],
    rb: [f64; 3],
    rc: [f64; 3],
) -> f64 {
    let p = a + b;
    let rp = [
        (a * ra[0] + b * rb[0]) / p,
        (a * ra[1] + b * rb[1]) / p,
        (a * ra[2] + b * rb[2]) / p,
    ];
    let pc = [rp[0] - rc[0], rp[1] - rc[1], rp[2] - rc[2]];
    let l_total = (la.iter().sum::<u32>() + lb.iter().sum::<u32>()) as usize;
    let fb = boys(l_total, p * dist_sq(rp, rc));

    let mut acc = 0.0;
    for t in 0..=(la[0] + lb[0]) as i32 {
        for u in 0..=(la[1] + lb[1]) as i32 {
            for v in 0..=(la[2] + lb[2]) as i32 {
                let e = hermite_e(la[0] as i32, lb[0] as i32, t, ra[0] - rb[0], a, b)
                    * hermite_e(la[1] as i32, lb[1] as i32, u, ra[1] - rb[1], a, b)
                    * hermite_e(la[2] as i32, lb[2] as i32, v, ra[2] - rb[2], a, b);
                acc += e * hermite_coulomb(t, u, v, 0, p, pc, &fb);
            }
        }
    }
    2.0 * std::f64::consts::PI / p * acc
}

/// Electron-repulsion integral `(ab|cd)` of four primitives (chemist
/// notation).
#[allow(clippy::too_many_arguments)]
fn eri_prim(
    a: f64,
    la: [u32; 3],
    ra: [f64; 3],
    b: f64,
    lb: [u32; 3],
    rb: [f64; 3],
    c: f64,
    lc: [u32; 3],
    rc: [f64; 3],
    d: f64,
    ld: [u32; 3],
    rd: [f64; 3],
) -> f64 {
    let p = a + b;
    let q = c + d;
    let alpha = p * q / (p + q);
    let rp = [
        (a * ra[0] + b * rb[0]) / p,
        (a * ra[1] + b * rb[1]) / p,
        (a * ra[2] + b * rb[2]) / p,
    ];
    let rq = [
        (c * rc[0] + d * rd[0]) / q,
        (c * rc[1] + d * rd[1]) / q,
        (c * rc[2] + d * rd[2]) / q,
    ];
    let pq = [rp[0] - rq[0], rp[1] - rq[1], rp[2] - rq[2]];
    let l_total = (la.iter().sum::<u32>()
        + lb.iter().sum::<u32>()
        + lc.iter().sum::<u32>()
        + ld.iter().sum::<u32>()) as usize;
    let fb = boys(l_total, alpha * dist_sq(rp, rq));

    let e1 = |d_: usize, t: i32| hermite_e(la[d_] as i32, lb[d_] as i32, t, ra[d_] - rb[d_], a, b);
    let e2 = |d_: usize, t: i32| hermite_e(lc[d_] as i32, ld[d_] as i32, t, rc[d_] - rd[d_], c, d);

    let mut acc = 0.0;
    for t in 0..=(la[0] + lb[0]) as i32 {
        for u in 0..=(la[1] + lb[1]) as i32 {
            for v in 0..=(la[2] + lb[2]) as i32 {
                let eab = e1(0, t) * e1(1, u) * e1(2, v);
                if eab == 0.0 {
                    continue;
                }
                for tau in 0..=(lc[0] + ld[0]) as i32 {
                    for nu in 0..=(lc[1] + ld[1]) as i32 {
                        for phi in 0..=(lc[2] + ld[2]) as i32 {
                            let ecd = e2(0, tau) * e2(1, nu) * e2(2, phi);
                            if ecd == 0.0 {
                                continue;
                            }
                            let sign = if (tau + nu + phi) % 2 == 0 { 1.0 } else { -1.0 };
                            acc += eab
                                * ecd
                                * sign
                                * hermite_coulomb(t + tau, u + nu, v + phi, 0, alpha, pq, &fb);
                        }
                    }
                }
            }
        }
    }
    2.0 * std::f64::consts::PI.powf(2.5) / (p * q * (p + q).sqrt()) * acc
}

// ---------------------------------------------------------------------------
// Contracted wrappers.
// ---------------------------------------------------------------------------

fn contract2(fa: &BasisFunction, fb: &BasisFunction, f: impl Fn(f64, f64) -> f64) -> f64 {
    let mut acc = 0.0;
    for pa in &fa.primitives {
        for pb in &fb.primitives {
            acc += pa.coefficient * pb.coefficient * f(pa.exponent, pb.exponent);
        }
    }
    acc
}

/// Overlap integral `⟨a|b⟩` of two contracted functions.
pub fn overlap(fa: &BasisFunction, fb: &BasisFunction) -> f64 {
    contract2(fa, fb, |a, b| {
        overlap_prim(a, fa.angmom, fa.center, b, fb.angmom, fb.center)
    })
}

/// Kinetic-energy integral `⟨a|−∇²/2|b⟩`.
pub fn kinetic(fa: &BasisFunction, fb: &BasisFunction) -> f64 {
    contract2(fa, fb, |a, b| {
        kinetic_prim(a, fa.angmom, fa.center, b, fb.angmom, fb.center)
    })
}

/// Nuclear-attraction integral `⟨a|Σ_C −Z_C/r_C|b⟩` over all nuclei.
pub fn nuclear(fa: &BasisFunction, fb: &BasisFunction, molecule: &Molecule) -> f64 {
    let mut acc = 0.0;
    for atom in molecule.atoms() {
        let z = atom.element.atomic_number() as f64;
        acc -= z * contract2(fa, fb, |a, b| {
            nuclear_prim(
                a,
                fa.angmom,
                fa.center,
                b,
                fb.angmom,
                fb.center,
                atom.position,
            )
        });
    }
    acc
}

/// Dipole-moment integral `⟨a| r̂_axis |b⟩` about the origin
/// (`axis ∈ {0, 1, 2}` for x, y, z).
///
/// Uses the Hermite moment relation `∫ x·Λ(x) dx = (E₁ + P_x·E₀)·√(π/p)`.
///
/// # Panics
///
/// Panics if `axis > 2`.
pub fn dipole(fa: &BasisFunction, fb: &BasisFunction, axis: usize) -> f64 {
    assert!(axis <= 2, "axis must be 0, 1, or 2");
    contract2(fa, fb, |a, b| {
        let p = a + b;
        let pref = (std::f64::consts::PI / p).powf(1.5);
        let mut v = pref;
        for d in 0..3 {
            let (i, j) = (fa.angmom[d] as i32, fb.angmom[d] as i32);
            let qx = fa.center[d] - fb.center[d];
            if d == axis {
                let p_center = (a * fa.center[d] + b * fb.center[d]) / p;
                v *= hermite_e(i, j, 1, qx, a, b) + p_center * hermite_e(i, j, 0, qx, a, b);
            } else {
                v *= hermite_e(i, j, 0, qx, a, b);
            }
        }
        v
    })
}

/// Electron-repulsion integral `(ab|cd)` in chemist notation.
pub fn eri(fa: &BasisFunction, fb: &BasisFunction, fc: &BasisFunction, fd: &BasisFunction) -> f64 {
    let mut acc = 0.0;
    for pa in &fa.primitives {
        for pb in &fb.primitives {
            for pc in &fc.primitives {
                for pd in &fd.primitives {
                    acc += pa.coefficient
                        * pb.coefficient
                        * pc.coefficient
                        * pd.coefficient
                        * eri_prim(
                            pa.exponent,
                            fa.angmom,
                            fa.center, //
                            pb.exponent,
                            fb.angmom,
                            fb.center, //
                            pc.exponent,
                            fc.angmom,
                            fc.center, //
                            pd.exponent,
                            fd.angmom,
                            fd.center,
                        );
                }
            }
        }
    }
    acc
}

/// The dense two-electron integral tensor `(pq|rs)` with 8-fold symmetry.
#[derive(Debug, Clone, PartialEq)]
pub struct EriTensor {
    n: usize,
    data: Vec<f64>,
}

impl EriTensor {
    /// Number of basis functions per index.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// The integral `(pq|rs)` (chemist notation).
    #[inline]
    pub fn get(&self, p: usize, q: usize, r: usize, s: usize) -> f64 {
        self.data[((p * self.n + q) * self.n + r) * self.n + s]
    }

    /// An all-zero tensor.
    ///
    /// # Panics
    ///
    /// Panics if the `n⁴` element count overflows `usize`.
    fn zeros(n: usize) -> Self {
        let len = n
            .checked_mul(n)
            .and_then(|m| m.checked_mul(n))
            .and_then(|m| m.checked_mul(n));
        let len = match len {
            Some(len) => len,
            None => panic!("ERI tensor with {n}^4 elements overflows usize on this platform"),
        };
        EriTensor {
            n,
            data: vec![0.0; len],
        }
    }

    fn set_sym(&mut self, p: usize, q: usize, r: usize, s: usize, v: f64) {
        let n = self.n;
        let mut put = |a: usize, b: usize, c: usize, d: usize| {
            self.data[((a * n + b) * n + c) * n + d] = v;
        };
        put(p, q, r, s);
        put(q, p, r, s);
        put(p, q, s, r);
        put(q, p, s, r);
        put(r, s, p, q);
        put(s, r, p, q);
        put(r, s, q, p);
        put(s, r, q, p);
    }

    /// Builds a tensor by evaluating `f(p,q,r,s)` on the canonical octant
    /// and mirroring. Exposed for the MO transform.
    ///
    /// The canonical quadruples are enumerated up front and `f` — the
    /// expensive part, a primitive-quartet contraction or MO contraction —
    /// is evaluated in parallel; the 8-fold mirroring stays serial. Each
    /// canonical value lands in exactly the same slot regardless of thread
    /// count, so the tensor is bit-identical to a serial build.
    ///
    /// # Panics
    ///
    /// Panics if the `n⁴` element count overflows `usize`.
    pub fn from_fn_symmetric(
        n: usize,
        f: impl Fn(usize, usize, usize, usize) -> f64 + Sync,
    ) -> Self {
        let mut t = EriTensor::zeros(n);
        let mut quads = Vec::new();
        for p in 0..n {
            for q in 0..=p {
                for r in 0..=p {
                    let s_max = if r == p { q } else { r };
                    for s in 0..=s_max {
                        quads.push((p, q, r, s));
                    }
                }
            }
        }
        // One parallel task per quadruple made the build ~10% slower than
        // serial at a thread budget of 1 (per-task queue traffic and
        // closure dispatch dominate a cheap contraction). Batch quadruples
        // into fixed-size runs so dispatch amortizes over QUAD_BATCH
        // evaluations; batches are enumerated and flattened in canonical
        // order, so the tensor stays bit-identical at every thread count.
        const QUAD_BATCH: usize = 64;
        let n_batches = quads.len().div_ceil(QUAD_BATCH);
        let batches = par::map_indexed(n_batches, |b| {
            let lo = b * QUAD_BATCH;
            let hi = (lo + QUAD_BATCH).min(quads.len());
            quads[lo..hi]
                .iter()
                .map(|&(p, q, r, s)| f(p, q, r, s))
                .collect::<Vec<f64>>()
        });
        for (&(p, q, r, s), v) in quads.iter().zip(batches.into_iter().flatten()) {
            t.set_sym(p, q, r, s, v);
        }
        t
    }
}

/// All AO integrals needed by the SCF procedure.
#[derive(Debug, Clone, PartialEq)]
pub struct AoIntegrals {
    /// Overlap matrix `S`.
    pub overlap: RealMatrix,
    /// Core Hamiltonian `h = T + V`.
    pub core_hamiltonian: RealMatrix,
    /// Two-electron tensor `(pq|rs)`.
    pub eri: EriTensor,
    /// Nuclear repulsion energy.
    pub nuclear_repulsion: f64,
}

/// Computes every AO integral for a molecule in the given basis.
///
/// Consecutive functions that share a center and an exponent set form a
/// shell (an STO-3G sp shell is s + px + py + pz on one set). Each
/// primitive pair of a shell pair is set up once: `p`, `P` and iterative
/// Hermite `E` tables. Each primitive quartet of a shell quartet evaluates
/// the Boys function and the Hermite `R` table once per total angular
/// momentum present in the block, and every function quartet of the block
/// reads them. DESIGN.md §21 describes the layout.
///
/// Every number is computed by the same floating-point operations, in the
/// same order, as the per-function [`overlap`]/[`kinetic`]/[`nuclear`]/
/// [`eri`] (the slow paths it is tested against), so the result is bit for
/// bit theirs. That includes the SCF's choice of rotation inside a
/// degenerate orbital shell (BH3, NH3, CH4) and the index tie-breaks of the
/// importance ranking, both of which turn last-bit differences into
/// different numbers downstream. Shell quartets run in parallel; each
/// canonical `(pq|rs)` is computed once, so the tensor is bit-identical at
/// every thread count.
///
/// # Panics
///
/// Panics if a basis function has angular momentum above 1 (the engine
/// holds s and p functions, all STO-3G needs; the per-function integrals
/// take any angular momentum).
pub fn compute_ao_integrals(molecule: &Molecule, basis: &[BasisFunction]) -> AoIntegrals {
    let n = basis.len();
    let shells = group_shells(basis);
    let mut s = RealMatrix::zeros(n, n);
    let mut h = RealMatrix::zeros(n, n);
    for sa in &shells {
        for sb in &shells {
            one_electron(sa, sb, molecule, &mut s, &mut h);
        }
    }

    let pairs: Vec<ShellPair> = (0..shells.len())
        .flat_map(|a| (0..=a).map(move |b| (a, b)))
        .map(|(a, b)| ShellPair::new(&shells, a, b))
        .collect();
    let blocks = shell_quartets(&shells, &pairs);
    let values = par::map_indexed(blocks.len(), |i| {
        let (bra, ket) = blocks[i];
        shell_quartet(&shells, &pairs[bra], &pairs[ket])
    });
    let mut eri_t = EriTensor::zeros(n);
    for (p, q, r, s, v) in values.into_iter().flatten() {
        eri_t.set_sym(p, q, r, s, v);
    }
    AoIntegrals {
        overlap: s,
        core_hamiltonian: h,
        eri: eri_t,
        nuclear_repulsion: molecule.nuclear_repulsion(),
    }
}

// ---------------------------------------------------------------------------
// The integral engine behind `compute_ao_integrals`. Every expression below
// mirrors one of the slow paths above operation for operation; a change to
// either side must keep `tests/integral_equivalence.rs` bit-identical.
// ---------------------------------------------------------------------------

/// Highest angular momentum of one function the engine's fixed tables hold.
const MAX_L: usize = 1;

/// Distinct total angular momenta of a function quartet, `0 ..= 4·MAX_L`.
const L_SLOTS: usize = 4 * MAX_L + 1;

/// Side of the Hermite `R` cube: `t, u, v < L_SLOTS`.
const R_SIDE: usize = L_SLOTS;

/// Entries of the `R` cube, indexed `(t·R_SIDE + u)·R_SIDE + v`. The index
/// is additive, so `R_{t+τ, u+ν, v+φ}` sits at `idx(t,u,v) + idx(τ,ν,φ)`.
const R_LEN: usize = R_SIDE * R_SIDE * R_SIDE;

/// One Hermite axis of a primitive pair: `E_t^{ij}` for `i ≤ MAX_L`,
/// `j ≤ MAX_L + 2` (the kinetic integral raises `j` by two) and
/// `t ≤ i + j`.
type Hermite1d = [[[f64; 2 * MAX_L + 3]; MAX_L + 3]; MAX_L + 1];

/// Consecutive basis functions sharing a center and an exponent set.
struct Shell {
    center: [f64; 3],
    exponents: Vec<f64>,
    /// Basis index of the shell's first function.
    first: usize,
    /// Angular momentum of each function, in basis order.
    angmoms: Vec<[usize; 3]>,
    /// `coefficients[f][k]`: function `f`'s coefficient on primitive `k`.
    coefficients: Vec<Vec<f64>>,
    /// Highest total angular momentum of the shell's functions.
    l: usize,
}

fn group_shells(basis: &[BasisFunction]) -> Vec<Shell> {
    let mut shells: Vec<Shell> = Vec::new();
    for (i, f) in basis.iter().enumerate() {
        let angmom = f.angmom.map(|l| l as usize);
        let l = angmom.iter().sum::<usize>();
        assert!(
            l <= MAX_L,
            "basis function {i} has angular momentum {l}; compute_ao_integrals holds up to {MAX_L}"
        );
        let coefficients = f.primitives.iter().map(|p| p.coefficient).collect();
        let same_shell = shells.last().is_some_and(|s| {
            s.center == f.center
                && s.exponents.len() == f.primitives.len()
                && s.exponents
                    .iter()
                    .zip(&f.primitives)
                    .all(|(&e, p)| e == p.exponent)
        });
        match shells.last_mut() {
            Some(shell) if same_shell => {
                shell.angmoms.push(angmom);
                shell.coefficients.push(coefficients);
                shell.l = shell.l.max(l);
            }
            _ => shells.push(Shell {
                center: f.center,
                exponents: f.primitives.iter().map(|p| p.exponent).collect(),
                first: i,
                angmoms: vec![angmom],
                coefficients: vec![coefficients],
                l,
            }),
        }
    }
    shells
}

fn total(l: [usize; 3]) -> usize {
    l[0] + l[1] + l[2]
}

/// [`hermite_e`] for every `i ≤ imax`, `j ≤ jmax`, `t ≤ i + j` along one
/// axis, filled bottom-up by the same recursion.
fn hermite_1d(imax: usize, jmax: usize, qx: f64, a: f64, b: f64) -> Hermite1d {
    let p = a + b;
    let q = a * b / p;
    let mut e: Hermite1d = [[[0.0; 2 * MAX_L + 3]; MAX_L + 3]; MAX_L + 1];
    e[0][0][0] = (-q * qx * qx).exp();
    // `E_t` of a lower (i, j), zero outside 0 ≤ t ≤ i + j.
    let at = |row: &[f64], top: usize, t: isize| -> f64 {
        if t < 0 || t as usize > top {
            0.0
        } else {
            row[t as usize]
        }
    };
    for i in 0..=imax {
        for j in 0..=jmax {
            if i == 0 && j == 0 {
                continue;
            }
            for t in 0..=(i + j) as isize {
                e[i][j][t as usize] = if i > 0 {
                    let (row, top) = (&e[i - 1][j], i - 1 + j);
                    at(row, top, t - 1) / (2.0 * p) - q * qx / a * at(row, top, t)
                        + (t + 1) as f64 * at(row, top, t + 1)
                } else {
                    let (row, top) = (&e[i][j - 1], i + j - 1);
                    at(row, top, t - 1) / (2.0 * p)
                        + q * qx / b * at(row, top, t)
                        + (t + 1) as f64 * at(row, top, t + 1)
                };
            }
        }
    }
    e
}

/// [`hermite_coulomb`]`(t, u, v, 0, …)` for every `t + u + v ≤ l` into
/// `out`, by the same recursion run from Boys order `l` down to 0: level
/// `n` lands in `out` when `n` is even and in `spare` when odd, so level
/// 0 ends in `out`. `f` holds `F_0 … F_l`. Entries with `t + u + v > l`
/// are left stale; nothing is cleared between calls.
fn hermite_r(
    l: usize,
    alpha: f64,
    pq: [f64; 3],
    f: &[f64],
    out: &mut [f64; R_LEN],
    spare: &mut [f64; R_LEN],
) {
    let idx = |t: usize, u: usize, v: usize| (t * R_SIDE + u) * R_SIDE + v;
    for n in (0..=l).rev() {
        let (cur, prev) = if n % 2 == 0 {
            (&mut *out, &*spare)
        } else {
            (&mut *spare, &*out)
        };
        let top = l - n;
        for t in 0..=top {
            for u in 0..=top - t {
                for v in 0..=top - t - u {
                    // (k − 1)·R_{k−2} + PQ·R_{k−1} along the first non-zero
                    // index, with R_{−1} = 0 as the recursion returns it.
                    let step = |k: usize, axis: usize, below: usize, two_below: usize| {
                        let far = if k > 1 { prev[two_below] } else { 0.0 };
                        (k - 1) as f64 * far + pq[axis] * prev[below]
                    };
                    cur[idx(t, u, v)] = if t > 0 {
                        step(t, 0, idx(t - 1, u, v), idx(t.saturating_sub(2), u, v))
                    } else if u > 0 {
                        step(u, 1, idx(t, u - 1, v), idx(t, u.saturating_sub(2), v))
                    } else if v > 0 {
                        step(v, 2, idx(t, u, v - 1), idx(t, u, v.saturating_sub(2)))
                    } else {
                        (-2.0 * alpha).powi(n as i32) * f[n]
                    };
                }
            }
        }
    }
}

/// One non-zero term `E_t^x·E_u^y·E_v^z` of a function pair's Hermite
/// expansion.
#[derive(Clone, Copy)]
struct HermiteTerm {
    /// `idx(t, u, v)` in the `R` cube.
    idx: usize,
    /// The product, as the bra side reads it.
    e: f64,
    /// `(−1)^{t+u+v}·e`, as the ket side reads it.
    signed: f64,
}

/// A primitive pair of a shell pair.
struct PrimPair {
    p: f64,
    /// The Gaussian product center, `(a·A + b·B)/p`.
    center: [f64; 3],
}

/// A shell pair `(a, b)` with `a ≥ b`, set up once per integral build.
struct ShellPair {
    a: usize,
    b: usize,
    /// Function pairs `(fa, fb)` (indices within the shells) whose integrals
    /// the pair feeds: all of them, or `fa ≥ fb` on a diagonal pair.
    functions: Vec<(usize, usize)>,
    /// Primitive pairs, `ka`-major, as the per-function loops visit them.
    prims: Vec<PrimPair>,
    /// The contraction coefficients `(c_a, c_b)` of primitive pair `k` in
    /// function pair `f`, at `k·F + f` with `F = functions.len()`.
    coefficients: Vec<(f64, f64)>,
    /// Hermite terms of primitive pair `k` and function pair `f` are
    /// `terms[offsets[k·F + f]..offsets[k·F + f + 1]]`.
    terms: Vec<HermiteTerm>,
    offsets: Vec<usize>,
}

impl ShellPair {
    fn new(shells: &[Shell], a: usize, b: usize) -> Self {
        let (sa, sb) = (&shells[a], &shells[b]);
        let functions: Vec<(usize, usize)> = (0..sa.angmoms.len())
            .flat_map(|fa| (0..sb.angmoms.len()).map(move |fb| (fa, fb)))
            .filter(|&(fa, fb)| a != b || fa >= fb)
            .collect();
        let ab = sub(sa.center, sb.center);
        let mut prims = Vec::with_capacity(sa.exponents.len() * sb.exponents.len());
        let mut coefficients = Vec::new();
        let mut terms = Vec::new();
        let mut offsets = vec![0];
        for (ka, &ea) in sa.exponents.iter().enumerate() {
            for (kb, &eb) in sb.exponents.iter().enumerate() {
                let e = [0, 1, 2].map(|d| hermite_1d(sa.l, sb.l, ab[d], ea, eb));
                for &(fa, fb) in &functions {
                    let (la, lb) = (sa.angmoms[fa], sb.angmoms[fb]);
                    coefficients.push((sa.coefficients[fa][ka], sb.coefficients[fb][kb]));
                    for t in 0..=la[0] + lb[0] {
                        for u in 0..=la[1] + lb[1] {
                            for v in 0..=la[2] + lb[2] {
                                let e = e[0][la[0]][lb[0]][t]
                                    * e[1][la[1]][lb[1]][u]
                                    * e[2][la[2]][lb[2]][v];
                                if e == 0.0 {
                                    continue;
                                }
                                let sign = if (t + u + v) % 2 == 0 { 1.0 } else { -1.0 };
                                terms.push(HermiteTerm {
                                    idx: (t * R_SIDE + u) * R_SIDE + v,
                                    e,
                                    signed: sign * e,
                                });
                            }
                        }
                    }
                    offsets.push(terms.len());
                }
                prims.push(PrimPair {
                    p: ea + eb,
                    center: product_center(ea, sa.center, eb, sb.center),
                });
            }
        }
        ShellPair {
            a,
            b,
            functions,
            prims,
            coefficients,
            terms,
            offsets,
        }
    }

    fn terms(&self, prim: usize, function: usize) -> &[HermiteTerm] {
        let k = prim * self.functions.len() + function;
        &self.terms[self.offsets[k]..self.offsets[k + 1]]
    }

    fn coefficients(&self, prim: usize, function: usize) -> (f64, f64) {
        self.coefficients[prim * self.functions.len() + function]
    }
}

fn sub(a: [f64; 3], b: [f64; 3]) -> [f64; 3] {
    [a[0] - b[0], a[1] - b[1], a[2] - b[2]]
}

/// The Gaussian product center `(a·A + b·B)/(a + b)`.
fn product_center(a: f64, ra: [f64; 3], b: f64, rb: [f64; 3]) -> [f64; 3] {
    let p = a + b;
    [
        (a * ra[0] + b * rb[0]) / p,
        (a * ra[1] + b * rb[1]) / p,
        (a * ra[2] + b * rb[2]) / p,
    ]
}

/// `S` and `h = T + V` of every function pair of the ordered shell pair
/// `(sa, sb)`, written into `s` and `h`: [`overlap`], [`kinetic`] and
/// [`nuclear`] with one `E` table per primitive pair and one Boys
/// evaluation and `R` table per primitive pair, nucleus and total angular
/// momentum.
fn one_electron(
    sa: &Shell,
    sb: &Shell,
    molecule: &Molecule,
    s: &mut RealMatrix,
    h: &mut RealMatrix,
) {
    let functions: Vec<(usize, usize)> = (0..sa.angmoms.len())
        .flat_map(|fa| (0..sb.angmoms.len()).map(move |fb| (fa, fb)))
        .collect();
    let atoms = molecule.atoms();
    let nf = functions.len();
    let (mut s_acc, mut t_acc) = (vec![0.0; nf], vec![0.0; nf]);
    // One contraction per function pair and nucleus, as `nuclear` sums them.
    let mut v_acc = vec![0.0; nf * atoms.len()];
    let ab = sub(sa.center, sb.center);
    let l_max = sa.l + sb.l;
    let mut f = [[0.0; L_SLOTS]; L_SLOTS];
    let mut r = [[0.0; R_LEN]; L_SLOTS];
    let mut spare = [0.0; R_LEN];
    for (ka, &a) in sa.exponents.iter().enumerate() {
        for (kb, &b) in sb.exponents.iter().enumerate() {
            let p = a + b;
            let e = [0, 1, 2].map(|d| hermite_1d(sa.l, sb.l + 2, ab[d], a, b));
            let pref = (std::f64::consts::PI / p).powf(1.5);
            let rp = product_center(a, sa.center, b, sb.center);
            for (k, &(fa, fb)) in functions.iter().enumerate() {
                let (la, lb) = (sa.angmoms[fa], sb.angmoms[fb]);
                let c = sa.coefficients[fa][ka] * sb.coefficients[fb][kb];
                // `overlap_prim` and `kinetic_prim`.
                let sd = |d: usize, dj: isize| -> f64 {
                    let j = lb[d] as isize + dj;
                    if j < 0 {
                        0.0
                    } else {
                        e[d][la[d]][j as usize][0]
                    }
                };
                let t1d = |d: usize| -> f64 {
                    let j = lb[d] as f64;
                    -2.0 * b * b * sd(d, 2) + b * (2.0 * j + 1.0) * sd(d, 0)
                        - 0.5 * j * (j - 1.0) * sd(d, -2)
                };
                let mut overlap = pref;
                for d in 0..3 {
                    overlap *= sd(d, 0);
                }
                let (sx, sy, sz) = (sd(0, 0), sd(1, 0), sd(2, 0));
                let kinetic = pref * (t1d(0) * sy * sz + sx * t1d(1) * sz + sx * sy * t1d(2));
                s_acc[k] += c * overlap;
                t_acc[k] += c * kinetic;
            }
            // `nuclear_prim`, per nucleus.
            for (atom_index, atom) in atoms.iter().enumerate() {
                let pc = sub(rp, atom.position);
                let x = p * dist_sq(rp, atom.position);
                for l in 0..=l_max {
                    boys_into(x, &mut f[l][..=l]);
                    hermite_r(l, p, pc, &f[l], &mut r[l], &mut spare);
                }
                for (k, &(fa, fb)) in functions.iter().enumerate() {
                    let (la, lb) = (sa.angmoms[fa], sb.angmoms[fb]);
                    let r = &r[total(la) + total(lb)];
                    let mut acc = 0.0;
                    for t in 0..=la[0] + lb[0] {
                        for u in 0..=la[1] + lb[1] {
                            for v in 0..=la[2] + lb[2] {
                                let e = e[0][la[0]][lb[0]][t]
                                    * e[1][la[1]][lb[1]][u]
                                    * e[2][la[2]][lb[2]][v];
                                acc += e * r[(t * R_SIDE + u) * R_SIDE + v];
                            }
                        }
                    }
                    let c = sa.coefficients[fa][ka] * sb.coefficients[fb][kb];
                    v_acc[k * atoms.len() + atom_index] +=
                        c * (2.0 * std::f64::consts::PI / p * acc);
                }
            }
        }
    }
    for (k, &(fa, fb)) in functions.iter().enumerate() {
        let mut v = 0.0;
        for (atom_index, atom) in atoms.iter().enumerate() {
            let z = atom.element.atomic_number() as f64;
            v -= z * v_acc[k * atoms.len() + atom_index];
        }
        let (i, j) = (sa.first + fa, sb.first + fb);
        s[(i, j)] = s_acc[k];
        h[(i, j)] = t_acc[k] + v;
    }
}

/// The shell quartets whose blocks hold every canonical `(pq|rs)`:
/// `p ≥ q`, `r ≥ s` and `(p, q) ≥ (r, s)`, the octant and orientation
/// [`EriTensor::from_fn_symmetric`] evaluates. Bra pair `P ≥ Q` and ket
/// pair `R ≥ S` with `P > R`, or `P = R` and any `Q`, `S` (a quartet there
/// is canonical when `p > r` inside the shared shell, or `p = r` and
/// `q ≥ s`). Returned as indices into `pairs`; a block that can hold no
/// canonical quartet is left out.
fn shell_quartets(shells: &[Shell], pairs: &[ShellPair]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for (i, bra) in pairs.iter().enumerate() {
        for (j, ket) in pairs.iter().enumerate() {
            if ket.a > bra.a {
                continue;
            }
            if ket.a == bra.a && ket.b > bra.b && shells[bra.a].angmoms.len() == 1 {
                // p = r is forced and needs q ≥ s, impossible when Q < S.
                continue;
            }
            out.push((i, j));
        }
    }
    out
}

/// Every canonical `(pq|rs)` of one shell quartet, as `(p, q, r, s, value)`:
/// [`eri`] of each, with the Boys function and `R` table of a primitive
/// quartet evaluated once per total angular momentum.
fn shell_quartet(
    shells: &[Shell],
    bra: &ShellPair,
    ket: &ShellPair,
) -> Vec<(usize, usize, usize, usize, f64)> {
    let (sa, sb, sc, sd) = (
        &shells[bra.a],
        &shells[bra.b],
        &shells[ket.a],
        &shells[ket.b],
    );
    let index = |shell: &Shell, f: usize| shell.first + f;
    // The canonical function quartets of the block: (bra function pair,
    // ket function pair, total angular momentum).
    let quartets: Vec<(usize, usize, usize)> = (0..bra.functions.len())
        .flat_map(|i| (0..ket.functions.len()).map(move |j| (i, j)))
        .filter(|&(i, j)| {
            let (fa, fb) = bra.functions[i];
            let (fc, fd) = ket.functions[j];
            (index(sa, fa), index(sb, fb)) >= (index(sc, fc), index(sd, fd))
        })
        .map(|(i, j)| {
            let (fa, fb) = bra.functions[i];
            let (fc, fd) = ket.functions[j];
            let l = total(sa.angmoms[fa])
                + total(sb.angmoms[fb])
                + total(sc.angmoms[fc])
                + total(sd.angmoms[fd]);
            (i, j, l)
        })
        .collect();
    if quartets.is_empty() {
        return Vec::new();
    }
    let mut needed = [false; L_SLOTS];
    for &(_, _, l) in &quartets {
        needed[l] = true;
    }
    let two_pi_2_5 = 2.0 * std::f64::consts::PI.powf(2.5);
    let mut values = vec![0.0; quartets.len()];
    let mut f = [[0.0; L_SLOTS]; L_SLOTS];
    let mut r = [[0.0; R_LEN]; L_SLOTS];
    let mut spare = [0.0; R_LEN];
    for (bp, bra_prim) in bra.prims.iter().enumerate() {
        for (kp, ket_prim) in ket.prims.iter().enumerate() {
            let (p, q) = (bra_prim.p, ket_prim.p);
            let alpha = p * q / (p + q);
            let pq = sub(bra_prim.center, ket_prim.center);
            let x = alpha * dist_sq(bra_prim.center, ket_prim.center);
            for l in (0..L_SLOTS).filter(|&l| needed[l]) {
                boys_into(x, &mut f[l][..=l]);
                hermite_r(l, alpha, pq, &f[l], &mut r[l], &mut spare);
            }
            let factor = two_pi_2_5 / (p * q * (p + q).sqrt());
            for (value, &(i, j, l)) in values.iter_mut().zip(&quartets) {
                let r = &r[l];
                let ket_terms = ket.terms(kp, j);
                let mut acc = 0.0;
                for bt in bra.terms(bp, i) {
                    for kt in ket_terms {
                        acc += bt.e * kt.signed * r[bt.idx + kt.idx];
                    }
                }
                let (ca, cb) = bra.coefficients(bp, i);
                let (cc, cd) = ket.coefficients(kp, j);
                *value += ca * cb * cc * cd * (factor * acc);
            }
        }
    }
    quartets
        .iter()
        .zip(values)
        .map(|(&(i, j, _), v)| {
            let (fa, fb) = bra.functions[i];
            let (fc, fd) = ket.functions[j];
            (
                index(sa, fa),
                index(sb, fb),
                index(sc, fc),
                index(sd, fd),
                v,
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::basis::build_basis;
    use crate::geometry::shapes::diatomic;
    use crate::{Element, ANGSTROM_TO_BOHR};

    /// H2 with R = 1.4 Bohr — the Szabo–Ostlund reference system.
    fn h2_szabo() -> (Molecule, Vec<BasisFunction>) {
        let d_ang = 1.4 / ANGSTROM_TO_BOHR;
        let m = diatomic(Element::H, Element::H, d_ang);
        let b = build_basis(&m);
        (m, b)
    }

    #[test]
    fn h2_overlap_matches_szabo_ostlund() {
        let (_, b) = h2_szabo();
        assert!((overlap(&b[0], &b[0]) - 1.0).abs() < 1e-10);
        // S12 = 0.6593 (Szabo & Ostlund table 3.5).
        assert!((overlap(&b[0], &b[1]) - 0.6593).abs() < 5e-4);
    }

    #[test]
    fn h2_kinetic_matches_szabo_ostlund() {
        let (_, b) = h2_szabo();
        // T11 = 0.7600, T12 = 0.2365.
        assert!((kinetic(&b[0], &b[0]) - 0.7600).abs() < 5e-4);
        assert!((kinetic(&b[0], &b[1]) - 0.2365).abs() < 5e-4);
    }

    #[test]
    fn h2_nuclear_matches_szabo_ostlund() {
        let (m, b) = h2_szabo();
        // V11 (both nuclei) = -1.2266 + -0.6538 = -1.8804;
        // V12 = -0.5974·2 = -1.1948 (tables 3.5/3.6).
        assert!((nuclear(&b[0], &b[0], &m) + 1.8804).abs() < 1e-3);
        assert!((nuclear(&b[0], &b[1], &m) + 1.1948).abs() < 1e-3);
    }

    #[test]
    fn h2_eri_matches_szabo_ostlund() {
        let (_, b) = h2_szabo();
        // (11|11) = 0.7746, (11|22) = 0.5697, (21|21) = 0.2970,
        // (21|11) = 0.4441 (table 3.8 values).
        assert!((eri(&b[0], &b[0], &b[0], &b[0]) - 0.7746).abs() < 1e-3);
        assert!((eri(&b[0], &b[0], &b[1], &b[1]) - 0.5697).abs() < 1e-3);
        assert!((eri(&b[1], &b[0], &b[1], &b[0]) - 0.2970).abs() < 1e-3);
        assert!((eri(&b[1], &b[0], &b[0], &b[0]) - 0.4441).abs() < 1e-3);
    }

    #[test]
    fn sp_functions_share_one_shell() {
        let m = crate::molecules::Benchmark::H2O.molecule(0.96);
        let shells = group_shells(&build_basis(&m));
        // O 1s, O 2sp (s + px + py + pz), H 1s, H 1s.
        let sizes: Vec<usize> = shells.iter().map(|s| s.angmoms.len()).collect();
        assert_eq!(sizes, [1, 4, 1, 1]);
        assert_eq!(shells[1].first, 1);
        assert_eq!(shells[1].l, 1);
    }

    #[test]
    fn eri_tensor_symmetries() {
        let m = diatomic(Element::Li, Element::H, 1.6);
        let b = build_basis(&m);
        let ints = compute_ao_integrals(&m, &b);
        let n = b.len();
        // Spot-check the 8-fold symmetry on a few random-ish indices.
        for &(p, q, r, s) in &[(0, 1, 2, 3), (1, 4, 5, 2), (3, 3, 1, 0), (5, 2, 4, 4)] {
            let v = ints.eri.get(p, q, r, s);
            assert_eq!(v, ints.eri.get(q, p, r, s));
            assert_eq!(v, ints.eri.get(p, q, s, r));
            assert_eq!(v, ints.eri.get(r, s, p, q));
            assert_eq!(v, ints.eri.get(s, r, q, p));
            assert!(p < n && q < n && r < n && s < n);
        }
    }

    #[test]
    fn overlap_matrix_is_symmetric_positive_diagonal() {
        let m = diatomic(Element::Li, Element::H, 1.6);
        let b = build_basis(&m);
        let ints = compute_ao_integrals(&m, &b);
        assert!(ints.overlap.is_symmetric(1e-10));
        for i in 0..b.len() {
            assert!((ints.overlap[(i, i)] - 1.0).abs() < 1e-8, "diag {i}");
        }
    }

    #[test]
    fn p_function_overlap_vanishes_by_symmetry() {
        // For a diatomic along z, s–px overlap must vanish.
        let m = diatomic(Element::Li, Element::H, 1.6);
        let b = build_basis(&m);
        // b[2] is Li 2px, b[5] is H 1s.
        assert_eq!(b[2].angmom, [1, 0, 0]);
        assert!(overlap(&b[2], &b[5]).abs() < 1e-12);
        // s–pz overlap is nonzero.
        assert_eq!(b[4].angmom, [0, 0, 1]);
        assert!(overlap(&b[4], &b[5]).abs() > 1e-3);
    }

    #[test]
    fn kinetic_is_positive_definite_on_diagonal() {
        let m = diatomic(Element::O, Element::H, 0.96);
        let b = build_basis(&m);
        for f in &b {
            assert!(kinetic(f, f) > 0.0);
        }
    }
}
