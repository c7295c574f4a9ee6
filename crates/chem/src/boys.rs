//! The Boys function `F_m(x) = ∫₀¹ t^{2m} e^{-x t²} dt`.
//!
//! Every Coulomb-type integral (nuclear attraction, electron repulsion)
//! reduces to Boys functions in the McMurchie–Davidson scheme. We evaluate
//! the highest required order by a convergent series for moderate `x` and by
//! the complete asymptotic form for large `x`, then fill lower orders with
//! the stable downward recursion
//! `F_m(x) = (2x·F_{m+1}(x) + e^{-x}) / (2m + 1)`.

/// Evaluates `F_0(x) … F_{m_max}(x)`, returned in ascending order.
///
/// Accurate to ~1e-13 over the ranges produced by molecular integrals.
///
/// # Panics
///
/// Panics if `x` is negative or not finite.
///
/// # Examples
///
/// ```
/// use chem::boys::boys;
///
/// let f = boys(0, 0.0);
/// assert!((f[0] - 1.0).abs() < 1e-15); // F_0(0) = 1
/// ```
pub fn boys(m_max: usize, x: f64) -> Vec<f64> {
    let mut out = vec![0.0; m_max + 1];
    boys_into(x, &mut out);
    out
}

/// Evaluates `F_0(x) … F_{out.len()−1}(x)` into `out` without allocating:
/// the body of [`boys`]. The integral engine calls it with a stack buffer
/// once per primitive quartet and angular momentum.
///
/// # Panics
///
/// Panics if `x` is negative or not finite, or if `out` is empty.
pub(crate) fn boys_into(x: f64, out: &mut [f64]) {
    assert!(
        x.is_finite() && x >= 0.0,
        "Boys argument must be finite and non-negative"
    );
    assert!(!out.is_empty(), "Boys output needs at least F_0");
    let m_max = out.len() - 1;

    if x < 1e-14 {
        // F_m(0) = 1/(2m+1).
        for (m, o) in out.iter_mut().enumerate() {
            *o = 1.0 / (2.0 * m as f64 + 1.0);
        }
        return;
    }

    if x > 35.0 {
        // Asymptotic: F_0(x) = ½·√(π/x); upward recursion is stable here
        // because the e^{-x} correction is negligible relative to each term.
        let ex = (-x).exp();
        out[0] = 0.5 * (std::f64::consts::PI / x).sqrt();
        for m in 1..=m_max {
            out[m] = ((2.0 * m as f64 - 1.0) * out[m - 1] - ex) / (2.0 * x);
        }
        return;
    }

    // Series at the top order:
    // F_m(x) = e^{-x} Σ_{k≥0} (2x)^k / [(2m+1)(2m+3)…(2m+2k+1)].
    let mm = m_max as f64;
    let ex = (-x).exp();
    let mut term = 1.0 / (2.0 * mm + 1.0);
    let mut sum = term;
    let mut k = 1.0;
    loop {
        term *= 2.0 * x / (2.0 * mm + 2.0 * k + 1.0);
        sum += term;
        if term < 1e-17 * sum || k > 500.0 {
            break;
        }
        k += 1.0;
    }
    out[m_max] = ex * sum;

    // Downward recursion.
    for m in (0..m_max).rev() {
        out[m] = (2.0 * x * out[m + 1] + ex) / (2.0 * m as f64 + 1.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Brute-force quadrature reference.
    fn reference(m: usize, x: f64) -> f64 {
        let n = 200_000;
        let h = 1.0 / n as f64;
        let f = |t: f64| t.powi(2 * m as i32) * (-x * t * t).exp();
        let mut acc = (f(0.0) + f(1.0)) / 2.0;
        for k in 1..n {
            acc += f(k as f64 * h);
        }
        acc * h
    }

    #[test]
    fn values_at_zero() {
        let f = boys(4, 0.0);
        for (m, v) in f.iter().enumerate() {
            assert!((v - 1.0 / (2.0 * m as f64 + 1.0)).abs() < 1e-15);
        }
    }

    #[test]
    fn f0_is_scaled_erf() {
        // F_0(x) = ½·√(π/x)·erf(√x); compare against quadrature.
        for &x in &[0.1, 0.5, 1.0, 3.0, 10.0, 30.0] {
            let f = boys(0, x);
            let r = reference(0, x);
            assert!((f[0] - r).abs() < 1e-9, "x={x}: {} vs {r}", f[0]);
        }
    }

    #[test]
    fn higher_orders_match_quadrature() {
        for &x in &[0.05, 0.7, 2.3, 8.0, 20.0, 34.0] {
            let f = boys(6, x);
            for (m, &fm) in f.iter().enumerate() {
                let r = reference(m, x);
                assert!((fm - r).abs() < 1e-8, "m={m}, x={x}: {fm} vs {r}");
            }
        }
    }

    #[test]
    fn asymptotic_branch_agrees_with_series_at_crossover() {
        // The two branches must join continuously near x = 35. The genuine
        // change of F_m over the 0.002 step is bounded by |F_m'|·Δx =
        // F_{m+1}·Δx ≤ F_m·Δx, so allow a derivative-scale tolerance.
        let lo = boys(5, 34.999);
        let hi = boys(5, 35.001);
        for m in 0..=5 {
            assert!(
                (lo[m] - hi[m]).abs() < 3e-3 * lo[m].abs() + 1e-12,
                "m={m}: {} vs {}",
                lo[m],
                hi[m]
            );
        }
    }

    #[test]
    fn monotone_decreasing_in_m_and_x() {
        let f = boys(5, 2.0);
        for m in 1..=5 {
            assert!(f[m] < f[m - 1]);
        }
        let g = boys(0, 3.0);
        assert!(g[0] < boys(0, 2.0)[0]);
    }

    #[test]
    #[should_panic]
    fn rejects_negative_argument() {
        let _ = boys(1, -0.5);
    }
}
