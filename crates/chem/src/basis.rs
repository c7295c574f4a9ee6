//! The STO-3G minimal Gaussian basis.
//!
//! Every Slater orbital with exponent ζ is expanded in three primitive
//! Gaussians whose exponents are `a_k·ζ²` with fixed fit constants `a_k`
//! and contraction coefficients `c_k` (Hehre–Stewart–Pople). The 1s and
//! 2sp constants are the published values; the 3sp constants (needed only
//! for Na) come from [`fit_shell`], which maximizes the Slater–Gaussian
//! overlap, the same criterion used to produce the published tables
//! (substitution documented in DESIGN.md). Its result is committed as
//! [`FIT_3SP`], and `fit_shell` stays as the oracle a test checks it by.

use crate::element::Shell;
use crate::geometry::Molecule;

/// A primitive Cartesian Gaussian `coef · x^i y^j z^k · exp(-α r²)` centered
/// on its basis function's center. `coef` already contains primitive and
/// contraction normalization.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Primitive {
    /// Gaussian exponent α.
    pub exponent: f64,
    /// Total coefficient (contraction × normalization).
    pub coefficient: f64,
}

/// A contracted Cartesian Gaussian basis function.
///
/// # Examples
///
/// ```
/// use chem::basis::build_basis;
/// use chem::geometry::shapes::diatomic;
/// use chem::Element;
///
/// let h2 = diatomic(Element::H, Element::H, 0.74);
/// let basis = build_basis(&h2);
/// assert_eq!(basis.len(), 2); // one 1s function per H
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct BasisFunction {
    /// Center in Bohr.
    pub center: [f64; 3],
    /// Cartesian angular momentum `(i, j, k)`.
    pub angmom: [u32; 3],
    /// Contracted primitives.
    pub primitives: Vec<Primitive>,
}

impl BasisFunction {
    /// Total angular momentum `L = i + j + k`.
    pub fn total_angmom(&self) -> u32 {
        self.angmom.iter().sum()
    }
}

/// Fixed STO-3G expansion constants for a shell: exponent scale factors
/// (multiplied by ζ²) and contraction coefficients for the s and p parts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShellFit {
    /// Exponent scale factors `a_k` (exponents are `a_k · ζ²`).
    pub alpha_scale: [f64; 3],
    /// s-orbital contraction coefficients.
    pub coeff_s: [f64; 3],
    /// p-orbital contraction coefficients (unused for 1s shells).
    pub coeff_p: [f64; 3],
}

/// Published STO-3G fit for the 1s shell.
pub const FIT_1S: ShellFit = ShellFit {
    alpha_scale: [2.227_660_584, 0.405_771_156_2, 0.109_817_510_4],
    coeff_s: [0.154_328_967_3, 0.535_328_142_3, 0.444_634_542_2],
    coeff_p: [0.0, 0.0, 0.0],
};

/// Published STO-3G fit for the 2sp shell.
pub const FIT_2SP: ShellFit = ShellFit {
    alpha_scale: [0.994_203_4, 0.231_031_0, 0.075_138_6],
    coeff_s: [-0.099_967_23, 0.399_512_83, 0.700_115_47],
    coeff_p: [0.155_916_27, 0.607_683_72, 0.391_957_39],
};

/// The 3sp fit (Na): [`fit_shell`]`(3)`'s result, committed so no process
/// reruns its 600-step Nelder–Mead. A unit test pins it to the fit.
pub const FIT_3SP: ShellFit = ShellFit {
    alpha_scale: [0.4828540139972426, 0.1347150279167008, 0.05272655773581807],
    coeff_s: [
        -0.21962039077365858,
        0.22559560774004503,
        0.9003982795242113,
    ],
    coeff_p: [0.010587664183880715, 0.5951671088465433, 0.4620008508791788],
};

fn shell_fit(shell: Shell) -> ShellFit {
    match shell {
        Shell::S1 => FIT_1S,
        Shell::SP2 => FIT_2SP,
        Shell::SP3 => FIT_3SP,
    }
}

/// Builds the STO-3G basis for a molecule. Functions are emitted atom by
/// atom, shells inner-to-outer, with p functions in `x, y, z` order.
pub fn build_basis(molecule: &Molecule) -> Vec<BasisFunction> {
    let mut out = Vec::new();
    for atom in molecule.atoms() {
        for &(shell, zeta) in atom.element.sto3g_zetas() {
            let fit = shell_fit(shell);
            let z2 = zeta * zeta;
            // s function.
            out.push(contracted(
                atom.position,
                [0, 0, 0],
                &fit.alpha_scale,
                &fit.coeff_s,
                z2,
            ));
            // p functions for sp shells.
            if !matches!(shell, Shell::S1) {
                for axis in 0..3 {
                    let mut am = [0u32; 3];
                    am[axis] = 1;
                    out.push(contracted(
                        atom.position,
                        am,
                        &fit.alpha_scale,
                        &fit.coeff_p,
                        z2,
                    ));
                }
            }
        }
    }
    out
}

/// Normalization constant of a primitive Cartesian Gaussian with exponent α
/// and angular momentum `(i, j, k)`.
pub fn primitive_norm(alpha: f64, angmom: [u32; 3]) -> f64 {
    let l: u32 = angmom.iter().sum();
    let dfac: f64 = angmom
        .iter()
        .map(|&m| double_factorial(2 * m as i64 - 1))
        .product();
    let base = (2.0 * alpha / std::f64::consts::PI).powf(0.75);
    base * ((4.0 * alpha).powi(l as i32) / dfac).sqrt()
}

/// Odd double factorial `(2m-1)!!` with the convention `(-1)!! = 1`.
pub fn double_factorial(mut n: i64) -> f64 {
    let mut acc = 1.0;
    while n > 1 {
        acc *= n as f64;
        n -= 2;
    }
    acc
}

fn contracted(
    center: [f64; 3],
    angmom: [u32; 3],
    alpha_scale: &[f64; 3],
    coeffs: &[f64; 3],
    zeta_sq: f64,
) -> BasisFunction {
    let mut prims: Vec<Primitive> = alpha_scale
        .iter()
        .zip(coeffs)
        .map(|(&a, &c)| {
            let alpha = a * zeta_sq;
            Primitive {
                exponent: alpha,
                coefficient: c * primitive_norm(alpha, angmom),
            }
        })
        .collect();

    // Normalize the contraction: ⟨φ|φ⟩ = Σ_ij c_i c_j S_ij(prim) = 1.
    let mut self_overlap = 0.0;
    for a in &prims {
        for b in &prims {
            self_overlap += a.coefficient
                * b.coefficient
                * primitive_pair_overlap(a.exponent, b.exponent, angmom);
        }
    }
    let scale = 1.0 / self_overlap.sqrt();
    for p in &mut prims {
        p.coefficient *= scale;
    }
    BasisFunction {
        center,
        angmom,
        primitives: prims,
    }
}

/// Overlap of two *unnormalized* same-center Cartesian Gaussians with the
/// same angular momentum: `∫ x^{2i} y^{2j} z^{2k} e^{-(a+b)r²}`.
fn primitive_pair_overlap(a: f64, b: f64, angmom: [u32; 3]) -> f64 {
    let p = a + b;
    let mut v = (std::f64::consts::PI / p).powf(1.5);
    for &m in &angmom {
        v *= double_factorial(2 * m as i64 - 1) / (2.0 * p).powi(m as i32);
    }
    v
}

// ---------------------------------------------------------------------------
// STO-NG fitting (used for the 3sp shell).
// ---------------------------------------------------------------------------

/// Fits 3-Gaussian expansions for the `ns`/`np` shell with principal quantum
/// number `n` at ζ = 1, maximizing the summed s- and p-overlap with the
/// Slater orbital. Returns exponent scale factors and contraction
/// coefficients in the same convention as the published tables.
///
/// Deterministic: a fixed-seed Nelder–Mead over the three log-exponents,
/// with the optimal coefficients obtained in closed form at each step.
pub fn fit_shell(n: u32) -> ShellFit {
    assert!((1..=3).contains(&n), "fit implemented for n = 1..=3");
    let objective = |logs: &[f64; 3]| -> f64 {
        let alphas = [logs[0].exp(), logs[1].exp(), logs[2].exp()];
        let (ov_s, _) = best_coefficients(n, 0, &alphas);
        if n == 1 {
            -ov_s
        } else {
            let (ov_p, _) = best_coefficients(n, 1, &alphas);
            -(ov_s + ov_p)
        }
    };

    // Nelder–Mead on the 3 log-exponents.
    let start: [f64; 3] = match n {
        1 => [0.8, -0.9, -2.2],
        2 => [0.0, -1.5, -2.6],
        _ => [-1.0, -2.0, -3.2],
    };
    let logs = nelder_mead_3(objective, start, 600);
    let mut alphas = [logs[0].exp(), logs[1].exp(), logs[2].exp()];
    // Sort descending to match the published convention.
    alphas.sort_by(|a, b| b.total_cmp(a));

    let (_, cs) = best_coefficients(n, 0, &alphas);
    let cp = if n == 1 {
        [0.0; 3]
    } else {
        best_coefficients(n, 1, &alphas).1
    };
    ShellFit {
        alpha_scale: alphas,
        coeff_s: cs,
        coeff_p: cp,
    }
}

/// For fixed exponents, the coefficients maximizing overlap with the Slater
/// orbital are `c ∝ S⁻¹·t`; returns `(overlap, coefficients)` where the
/// coefficients are normalized so the contracted function has unit norm.
fn best_coefficients(n: u32, l: u32, alphas: &[f64; 3]) -> (f64, [f64; 3]) {
    // Primitive-primitive overlaps (normalized primitives, same center).
    let am = if l == 0 { [0u32, 0, 0] } else { [1u32, 0, 0] };
    let mut s = [[0.0f64; 3]; 3];
    for i in 0..3 {
        for j in 0..3 {
            s[i][j] = primitive_norm(alphas[i], am)
                * primitive_norm(alphas[j], am)
                * primitive_pair_overlap(alphas[i], alphas[j], am);
        }
    }
    // Primitive–Slater overlaps.
    let mut t = [0.0f64; 3];
    for i in 0..3 {
        t[i] = slater_gaussian_overlap(n, l, 1.0, alphas[i]);
    }
    // Solve S·c = t (3×3, symmetric positive definite).
    let c = solve3(&s, &t);
    // Normalize: overlap achieved is tᵀc / √(cᵀSc).
    let num: f64 = t.iter().zip(&c).map(|(a, b)| a * b).sum();
    let mut csc = 0.0;
    for i in 0..3 {
        for j in 0..3 {
            csc += c[i] * s[i][j] * c[j];
        }
    }
    let norm = csc.sqrt();
    let overlap = num / norm;
    (overlap, [c[0] / norm, c[1] / norm, c[2] / norm])
}

/// Overlap of a normalized primitive Gaussian (angular momentum `l` ∈ {0,1})
/// with the normalized Slater orbital `R_{nl}(r) ∝ r^{n-1} e^{-ζr}` sharing
/// its angular factor. Radial integrals are evaluated by fixed-step Simpson
/// quadrature (smooth, rapidly decaying integrands).
fn slater_gaussian_overlap(n: u32, l: u32, zeta: f64, alpha: f64) -> f64 {
    // Slater radial normalization: ∫ R² r² dr = 1 with R = N r^{n-1} e^{-ζr}
    // → N² (2n)!/(2ζ)^{2n+1} = 1.
    let fact_2n: f64 = (1..=2 * n as u64).map(|k| k as f64).product();
    let n_slater = ((2.0 * zeta).powi(2 * n as i32 + 1) / fact_2n).sqrt();
    let n_gauss = primitive_norm(alpha, if l == 0 { [0, 0, 0] } else { [1, 0, 0] });

    // Angular integral folds into these closed forms:
    //   l = 0: ⟨g|S⟩ = n_g·n_S·√(4π)/√(4π) ∫ r^{n+1} e^{-αr²-ζr} dr … both
    //   share Y₀₀, the angular integral is 1; radial measure r².
    //   l = 1: x-type primitive = n_g·r·(x/r)·e^{-αr²}; Slater p shares the
    //   (x/r)·√(3/4π) angular factor; ∫(x/r)² dΩ = 4π/3.
    let radial_power = match l {
        0 => n as i32 + 1, // r^{n-1} · r² from measure, Gaussian r^0
        _ => n as i32 + 2, // r^{n-1} · r (gaussian) · r² … combined below
    };
    // For l=0: integrand r^{n-1}·e^{-ζr} · e^{-αr²} · r² = r^{n+1}…
    // For l=1: gaussian radial part is r·e^{-αr²}; integrand r^{n-1}·r·r².
    let radial = simpson(
        |r| r.powi(radial_power) * (-alpha * r * r - zeta * r).exp(),
        60.0,
    );
    let angular = match l {
        0 => 1.0,
        _ => {
            // n_g includes the full 3D normalization of x·e^{-αr²}; the
            // Slater normalization n_slater is radial-only with angular
            // √(3/4π). Overlap = n_g·n_S·√(3/4π)·(4π/3)·radial
            //                  = n_g·n_S·√(4π/3)·radial.
            (4.0 * std::f64::consts::PI / 3.0).sqrt()
        }
    };
    let angular_s = if l == 0 {
        // s primitive is normalized in 3D: ψ = n_g e^{-αr²}; Slater s is
        // R·Y₀₀. Overlap = n_g·n_S·√(4π)·Y₀₀·radial = n_g·n_S·√(4π)/√(4π)…
        // i.e. n_g·n_S·radial·√(4π)·(1/√(4π)) = n_g·n_S·radial·1 — but the
        // 3D integral of a spherical function is 4π∫r²dr, giving
        // n_g·n_S·(4π/√(4π))·∫ = n_g·n_S·√(4π)·∫.
        (4.0 * std::f64::consts::PI).sqrt()
    } else {
        1.0
    };
    n_gauss * n_slater * radial * angular * angular_s
}

fn simpson(f: impl Fn(f64) -> f64, upper: f64) -> f64 {
    let n = 4000; // even
    let h = upper / n as f64;
    let mut acc = f(0.0) + f(upper);
    for k in 1..n {
        let w = if k % 2 == 1 { 4.0 } else { 2.0 };
        acc += w * f(k as f64 * h);
    }
    acc * h / 3.0
}

fn solve3(s: &[[f64; 3]; 3], t: &[f64; 3]) -> [f64; 3] {
    // Cramer's rule on the 3×3 system.
    let det = |m: &[[f64; 3]; 3]| -> f64 {
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    };
    let d = det(s);
    let mut out = [0.0; 3];
    for col in 0..3 {
        let mut m = *s;
        for row in 0..3 {
            m[row][col] = t[row];
        }
        out[col] = det(&m) / d;
    }
    out
}

fn nelder_mead_3(f: impl Fn(&[f64; 3]) -> f64, start: [f64; 3], iters: usize) -> [f64; 3] {
    let mut simplex: Vec<[f64; 3]> = vec![start];
    for k in 0..3 {
        let mut v = start;
        v[k] += 0.35;
        simplex.push(v);
    }
    let mut values: Vec<f64> = simplex.iter().map(&f).collect();
    for _ in 0..iters {
        // Sort ascending by value.
        let mut idx: Vec<usize> = (0..4).collect();
        idx.sort_by(|&a, &b| values[a].total_cmp(&values[b]));
        let reorder: Vec<[f64; 3]> = idx.iter().map(|&i| simplex[i]).collect();
        let revals: Vec<f64> = idx.iter().map(|&i| values[i]).collect();
        simplex = reorder;
        values = revals;

        let centroid = {
            let mut c = [0.0; 3];
            for v in &simplex[..3] {
                for k in 0..3 {
                    c[k] += v[k] / 3.0;
                }
            }
            c
        };
        let worst = simplex[3];
        let reflect = std::array::from_fn(|k| centroid[k] + (centroid[k] - worst[k]));
        let fr = f(&reflect);
        if fr < values[0] {
            let expand = std::array::from_fn(|k| centroid[k] + 2.0 * (centroid[k] - worst[k]));
            let fe = f(&expand);
            if fe < fr {
                simplex[3] = expand;
                values[3] = fe;
            } else {
                simplex[3] = reflect;
                values[3] = fr;
            }
        } else if fr < values[2] {
            simplex[3] = reflect;
            values[3] = fr;
        } else {
            let contract = std::array::from_fn(|k| centroid[k] + 0.5 * (worst[k] - centroid[k]));
            let fc = f(&contract);
            if fc < values[3] {
                simplex[3] = contract;
                values[3] = fc;
            } else {
                // Shrink toward best.
                let top = simplex[0];
                for j in 1..4 {
                    for (s, b) in simplex[j].iter_mut().zip(&top) {
                        *s = b + 0.5 * (*s - b);
                    }
                    values[j] = f(&simplex[j]);
                }
            }
        }
    }
    let mut best = 0;
    for j in 1..4 {
        if values[j] < values[best] {
            best = j;
        }
    }
    simplex[best]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::shapes::diatomic;
    use crate::Element;

    #[test]
    fn h_sto3g_primitives_match_published_values() {
        let h2 = diatomic(Element::H, Element::H, 0.74);
        let basis = build_basis(&h2);
        let exps: Vec<f64> = basis[0].primitives.iter().map(|p| p.exponent).collect();
        // EMSL STO-3G hydrogen exponents.
        let reference = [3.425_250_91, 0.623_913_73, 0.168_855_40];
        for (a, b) in exps.iter().zip(&reference) {
            assert!((a - b).abs() < 1e-6, "{a} vs {b}");
        }
    }

    #[test]
    fn basis_sizes_match_minimal_basis() {
        use crate::geometry::shapes::*;
        assert_eq!(build_basis(&diatomic(Element::H, Element::H, 0.7)).len(), 2);
        assert_eq!(
            build_basis(&diatomic(Element::Li, Element::H, 1.6)).len(),
            6
        );
        assert_eq!(build_basis(&bent_xh2(Element::O, 0.96, 104.5)).len(), 7);
        assert_eq!(build_basis(&tetrahedral_xh4(Element::C, 1.09)).len(), 9);
        assert_eq!(
            build_basis(&diatomic(Element::Na, Element::H, 1.9)).len(),
            10
        );
    }

    #[test]
    fn p_functions_follow_s_in_sp_shells() {
        let lih = diatomic(Element::Li, Element::H, 1.6);
        let basis = build_basis(&lih);
        // Li: 1s, 2s, 2px, 2py, 2pz then H 1s.
        assert_eq!(basis[0].angmom, [0, 0, 0]);
        assert_eq!(basis[1].angmom, [0, 0, 0]);
        assert_eq!(basis[2].angmom, [1, 0, 0]);
        assert_eq!(basis[3].angmom, [0, 1, 0]);
        assert_eq!(basis[4].angmom, [0, 0, 1]);
        assert_eq!(basis[5].angmom, [0, 0, 0]);
    }

    #[test]
    fn fit_recovers_1s_constants() {
        // Fitting the 1s shell ourselves must land near the published
        // constants (the published table was produced the same way).
        let fit = fit_shell(1);
        for (a, b) in fit.alpha_scale.iter().zip(&FIT_1S.alpha_scale) {
            assert!((a - b).abs() / b < 0.05, "{a} vs {b}");
        }
        // The achieved overlap must be excellent.
        let (ov, _) = best_coefficients(1, 0, &fit.alpha_scale);
        assert!(ov > 0.998, "1s fit overlap {ov}");
    }

    #[test]
    fn fit_3sp_constants_reproduce_the_fit() {
        let fit = fit_shell(3);
        let pairs = [
            (fit.alpha_scale, FIT_3SP.alpha_scale),
            (fit.coeff_s, FIT_3SP.coeff_s),
            (fit.coeff_p, FIT_3SP.coeff_p),
        ];
        for (fitted, committed) in pairs {
            for (a, b) in fitted.iter().zip(&committed) {
                assert!((a - b).abs() <= 1e-12, "{a} vs {b}");
            }
        }
    }

    #[test]
    fn fit_3sp_has_high_overlap() {
        let fit = FIT_3SP;
        let (ov_s, _) = best_coefficients(3, 0, &fit.alpha_scale);
        let (ov_p, _) = best_coefficients(3, 1, &fit.alpha_scale);
        assert!(ov_s > 0.995, "3s fit overlap {ov_s}");
        assert!(ov_p > 0.995, "3p fit overlap {ov_p}");
        // Exponents must be positive and descending.
        assert!(fit.alpha_scale[0] > fit.alpha_scale[1]);
        assert!(fit.alpha_scale[1] > fit.alpha_scale[2]);
        assert!(fit.alpha_scale[2] > 0.0);
    }

    #[test]
    fn double_factorial_values() {
        assert_eq!(double_factorial(-1), 1.0);
        assert_eq!(double_factorial(1), 1.0);
        assert_eq!(double_factorial(3), 3.0);
        assert_eq!(double_factorial(5), 15.0);
        assert_eq!(double_factorial(7), 105.0);
    }

    #[test]
    fn contracted_functions_are_normalized() {
        let basis = build_basis(&diatomic(Element::O, Element::H, 0.96));
        for bf in &basis {
            let mut s = 0.0;
            for a in &bf.primitives {
                for b in &bf.primitives {
                    s += a.coefficient
                        * b.coefficient
                        * primitive_pair_overlap(a.exponent, b.exponent, bf.angmom);
                }
            }
            assert!((s - 1.0).abs() < 1e-10, "self-overlap {s}");
        }
    }
}
