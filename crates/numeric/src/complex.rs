//! A minimal double-precision complex scalar.
//!
//! The allowed offline dependency set does not include `num-complex`, so the
//! workspace carries its own [`Complex64`]. Only the operations actually used
//! by quantum simulation are provided; the type is `Copy` and all operations
//! are branch-free where possible so inner simulator loops vectorize well.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};

/// A complex number with `f64` real and imaginary parts.
///
/// # Examples
///
/// ```
/// use numeric::Complex64;
///
/// let z = Complex64::new(3.0, 4.0);
/// assert_eq!(z.norm(), 5.0);
/// assert_eq!(z.conj(), Complex64::new(3.0, -4.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex64 {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex64 {
    /// The additive identity `0 + 0i`.
    pub const ZERO: Complex64 = Complex64 { re: 0.0, im: 0.0 };
    /// The multiplicative identity `1 + 0i`.
    pub const ONE: Complex64 = Complex64 { re: 1.0, im: 0.0 };
    /// The imaginary unit `i`.
    pub const I: Complex64 = Complex64 { re: 0.0, im: 1.0 };

    /// Creates a complex number from real and imaginary parts.
    #[inline]
    pub const fn new(re: f64, im: f64) -> Self {
        Complex64 { re, im }
    }

    /// Creates a purely real complex number.
    #[inline]
    pub const fn from_real(re: f64) -> Self {
        Complex64 { re, im: 0.0 }
    }

    /// Returns `e^{iθ} = cos θ + i sin θ`.
    ///
    /// # Examples
    ///
    /// ```
    /// use numeric::Complex64;
    /// let z = Complex64::cis(std::f64::consts::PI);
    /// assert!((z.re + 1.0).abs() < 1e-15);
    /// assert!(z.im.abs() < 1e-15);
    /// ```
    #[inline]
    pub fn cis(theta: f64) -> Self {
        let (s, c) = theta.sin_cos();
        Complex64 { re: c, im: s }
    }

    /// Returns the complex conjugate.
    #[inline]
    pub fn conj(self) -> Self {
        Complex64 {
            re: self.re,
            im: -self.im,
        }
    }

    /// Returns the squared modulus `|z|²`.
    #[inline]
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Returns the modulus `|z|`.
    #[inline]
    pub fn norm(self) -> f64 {
        self.norm_sqr().sqrt()
    }

    /// Returns the argument (phase angle) in `(-π, π]`.
    #[inline]
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Multiplies by the imaginary unit: `i·z`.
    #[inline]
    pub fn mul_i(self) -> Self {
        Complex64 {
            re: -self.im,
            im: self.re,
        }
    }

    /// Multiplies by `-i`: `-i·z`.
    #[inline]
    pub fn mul_neg_i(self) -> Self {
        Complex64 {
            re: self.im,
            im: -self.re,
        }
    }

    /// Scales by a real factor.
    #[inline]
    pub fn scale(self, k: f64) -> Self {
        Complex64 {
            re: self.re * k,
            im: self.im * k,
        }
    }

    /// Returns the multiplicative inverse `1/z`.
    ///
    /// Returns infinities when `z` is zero, mirroring `f64` division.
    #[inline]
    pub fn inv(self) -> Self {
        let d = self.norm_sqr();
        Complex64 {
            re: self.re / d,
            im: -self.im / d,
        }
    }

    /// Returns true when both parts are exactly zero, of either sign (never
    /// for NaN). A zero amplitude times any finite factor is a zero, so the
    /// full-space pair sweeps test this to skip arithmetic whose result is
    /// already known.
    ///
    /// Tested on the bits with the sign shifted out, so the checks of a
    /// whole pair fold into one OR and one branch.
    #[inline(always)]
    pub fn is_zero(self) -> bool {
        (self.re.to_bits() | self.im.to_bits()) << 1 == 0
    }

    /// Returns true when both parts are within `tol` of `other`'s.
    #[inline]
    pub fn approx_eq(self, other: Self, tol: f64) -> bool {
        (self.re - other.re).abs() <= tol && (self.im - other.im).abs() <= tol
    }
}

impl From<f64> for Complex64 {
    #[inline]
    fn from(re: f64) -> Self {
        Complex64::from_real(re)
    }
}

impl Add for Complex64 {
    type Output = Complex64;
    #[inline]
    fn add(self, rhs: Self) -> Self {
        Complex64 {
            re: self.re + rhs.re,
            im: self.im + rhs.im,
        }
    }
}

impl Sub for Complex64 {
    type Output = Complex64;
    #[inline]
    fn sub(self, rhs: Self) -> Self {
        Complex64 {
            re: self.re - rhs.re,
            im: self.im - rhs.im,
        }
    }
}

impl Mul for Complex64 {
    type Output = Complex64;
    #[inline]
    fn mul(self, rhs: Self) -> Self {
        Complex64 {
            re: self.re * rhs.re - self.im * rhs.im,
            im: self.re * rhs.im + self.im * rhs.re,
        }
    }
}

impl Mul<f64> for Complex64 {
    type Output = Complex64;
    #[inline]
    fn mul(self, rhs: f64) -> Self {
        self.scale(rhs)
    }
}

impl Mul<Complex64> for f64 {
    type Output = Complex64;
    #[inline]
    fn mul(self, rhs: Complex64) -> Complex64 {
        rhs.scale(self)
    }
}

impl Div for Complex64 {
    type Output = Complex64;
    #[inline]
    #[allow(clippy::suspicious_arithmetic_impl)] // division as multiply-by-inverse
    fn div(self, rhs: Self) -> Self {
        self * rhs.inv()
    }
}

impl Div<f64> for Complex64 {
    type Output = Complex64;
    #[inline]
    fn div(self, rhs: f64) -> Self {
        Complex64 {
            re: self.re / rhs,
            im: self.im / rhs,
        }
    }
}

impl Neg for Complex64 {
    type Output = Complex64;
    #[inline]
    fn neg(self) -> Self {
        Complex64 {
            re: -self.re,
            im: -self.im,
        }
    }
}

impl AddAssign for Complex64 {
    #[inline]
    fn add_assign(&mut self, rhs: Self) {
        self.re += rhs.re;
        self.im += rhs.im;
    }
}

impl SubAssign for Complex64 {
    #[inline]
    fn sub_assign(&mut self, rhs: Self) {
        self.re -= rhs.re;
        self.im -= rhs.im;
    }
}

impl MulAssign for Complex64 {
    #[inline]
    fn mul_assign(&mut self, rhs: Self) {
        *self = *self * rhs;
    }
}

impl Sum for Complex64 {
    fn sum<I: Iterator<Item = Complex64>>(iter: I) -> Self {
        iter.fold(Complex64::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for Complex64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{}+{}i", self.re, self.im)
        } else {
            write!(f, "{}{}i", self.re, self.im)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_identities() {
        let z = Complex64::new(1.5, -2.5);
        assert_eq!(z + Complex64::ZERO, z);
        assert_eq!(z * Complex64::ONE, z);
        assert_eq!(z - z, Complex64::ZERO);
        assert_eq!(-z + z, Complex64::ZERO);
    }

    #[test]
    fn i_squared_is_minus_one() {
        assert_eq!(Complex64::I * Complex64::I, Complex64::new(-1.0, 0.0));
    }

    #[test]
    #[allow(clippy::neg_multiply)] // keep the literal (ac−bd, ad+bc) shape
    fn mul_matches_textbook_formula() {
        let a = Complex64::new(2.0, 3.0);
        let b = Complex64::new(-1.0, 4.0);
        let p = a * b;
        assert_eq!(
            p,
            Complex64::new(2.0 * (-1.0) - 3.0 * 4.0, 2.0 * 4.0 + 3.0 * (-1.0))
        );
    }

    #[test]
    fn division_round_trips() {
        let a = Complex64::new(0.7, -1.3);
        let b = Complex64::new(-2.2, 0.4);
        let q = a / b;
        assert!((q * b).approx_eq(a, 1e-12));
    }

    #[test]
    fn cis_lies_on_unit_circle() {
        for k in 0..32 {
            let t = k as f64 * 0.2 - 3.0;
            assert!((Complex64::cis(t).norm() - 1.0).abs() < 1e-14);
        }
    }

    #[test]
    fn mul_i_shortcuts_match_full_products() {
        let z = Complex64::new(0.3, 0.9);
        assert_eq!(z.mul_i(), Complex64::I * z);
        assert_eq!(z.mul_neg_i(), -Complex64::I * z);
    }

    #[test]
    fn conj_negates_phase() {
        let z = Complex64::cis(0.77);
        assert!((z.conj().arg() + 0.77).abs() < 1e-14);
    }

    #[test]
    fn sum_folds_over_iterator() {
        let total: Complex64 = (0..4).map(|k| Complex64::new(k as f64, 1.0)).sum();
        assert_eq!(total, Complex64::new(6.0, 4.0));
    }

    #[test]
    fn is_zero_takes_both_signed_zeros_and_nothing_else() {
        assert!(Complex64::ZERO.is_zero());
        assert!(Complex64::new(-0.0, 0.0).is_zero());
        assert!(Complex64::new(0.0, -0.0).is_zero());
        for z in [
            Complex64::new(f64::MIN_POSITIVE * f64::EPSILON, 0.0),
            Complex64::new(0.0, -1e-300),
            Complex64::new(f64::NAN, 0.0),
            Complex64::new(0.0, f64::NAN),
            Complex64::new(f64::INFINITY, 0.0),
        ] {
            assert!(!z.is_zero(), "{z}");
        }
    }

    #[test]
    fn display_renders_sign() {
        assert_eq!(Complex64::new(1.0, -2.0).to_string(), "1-2i");
        assert_eq!(Complex64::new(1.0, 2.0).to_string(), "1+2i");
    }
}
