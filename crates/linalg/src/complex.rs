//! A self-contained double-precision complex number.
//!
//! The allowed dependency set for this reproduction does not include
//! `num-complex`, so the frequency-domain layers (transfer-function
//! evaluation at `s = jω`, complex dense LU) use this minimal but
//! complete implementation.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// A complex number with `f64` real and imaginary parts.
///
/// # Examples
///
/// ```
/// use bdsm_linalg::Complex64;
///
/// let s = Complex64::new(0.0, 2.0e9); // s = jω
/// let z = (s * s).sqrt();
/// assert!((z.abs() - 2.0e9).abs() < 1.0);
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

    /// Creates `jω`, the standard Laplace evaluation point on the imaginary
    /// axis used for frequency sweeps.
    #[inline]
    pub const fn jomega(omega: f64) -> Self {
        Complex64 { re: 0.0, im: omega }
    }

    /// Complex conjugate.
    #[inline]
    pub fn conj(self) -> Self {
        Complex64::new(self.re, -self.im)
    }

    /// Magnitude `|z|`, computed with `hypot` for overflow safety.
    #[inline]
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Squared magnitude `|z|²` (cheaper than [`abs`](Self::abs) when only
    /// comparisons are needed).
    #[inline]
    pub fn abs_sq(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Argument (phase angle) in radians, in `(-π, π]`.
    #[inline]
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Multiplicative inverse `1/z`, using Smith's algorithm to avoid
    /// intermediate overflow.
    pub fn recip(self) -> Self {
        let (a, b) = (self.re, self.im);
        if a.abs() >= b.abs() {
            let r = b / a;
            let d = a + b * r;
            Complex64::new(1.0 / d, -r / d)
        } else {
            let r = a / b;
            let d = a * r + b;
            Complex64::new(r / d, -1.0 / d)
        }
    }

    /// Principal square root.
    pub fn sqrt(self) -> Self {
        if self.re == 0.0 && self.im == 0.0 {
            return Complex64::ZERO;
        }
        let m = self.abs();
        let re = ((m + self.re) / 2.0).sqrt();
        let im_mag = ((m - self.re) / 2.0).sqrt();
        Complex64::new(re, if self.im >= 0.0 { im_mag } else { -im_mag })
    }

    /// Complex exponential `e^z`.
    pub fn exp(self) -> Self {
        let r = self.re.exp();
        Complex64::new(r * self.im.cos(), r * self.im.sin())
    }

    /// Returns `true` if both parts are finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.re.is_finite() && self.im.is_finite()
    }

    /// Scales by a real factor.
    #[inline]
    pub fn scale(self, k: f64) -> Self {
        Complex64::new(self.re * k, self.im * k)
    }
}

impl From<f64> for Complex64 {
    #[inline]
    fn from(re: f64) -> Self {
        Complex64::from_real(re)
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

impl Neg for Complex64 {
    type Output = Complex64;
    #[inline]
    fn neg(self) -> Complex64 {
        Complex64::new(-self.re, -self.im)
    }
}

impl Add for Complex64 {
    type Output = Complex64;
    #[inline]
    fn add(self, rhs: Complex64) -> Complex64 {
        Complex64::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl Sub for Complex64 {
    type Output = Complex64;
    #[inline]
    fn sub(self, rhs: Complex64) -> Complex64 {
        Complex64::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl Mul for Complex64 {
    type Output = Complex64;
    #[inline]
    fn mul(self, rhs: Complex64) -> Complex64 {
        Complex64::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl Div for Complex64 {
    type Output = Complex64;
    #[inline]
    #[allow(clippy::suspicious_arithmetic_impl)] // z / w = z * w⁻¹ by definition
    fn div(self, rhs: Complex64) -> Complex64 {
        self * rhs.recip()
    }
}

impl Add<f64> for Complex64 {
    type Output = Complex64;
    #[inline]
    fn add(self, rhs: f64) -> Complex64 {
        Complex64::new(self.re + rhs, self.im)
    }
}

impl Sub<f64> for Complex64 {
    type Output = Complex64;
    #[inline]
    fn sub(self, rhs: f64) -> Complex64 {
        Complex64::new(self.re - rhs, self.im)
    }
}

impl Mul<f64> for Complex64 {
    type Output = Complex64;
    #[inline]
    fn mul(self, rhs: f64) -> Complex64 {
        self.scale(rhs)
    }
}

impl Div<f64> for Complex64 {
    type Output = Complex64;
    #[inline]
    fn div(self, rhs: f64) -> Complex64 {
        Complex64::new(self.re / rhs, self.im / rhs)
    }
}

impl Mul<Complex64> for f64 {
    type Output = Complex64;
    #[inline]
    fn mul(self, rhs: Complex64) -> Complex64 {
        rhs.scale(self)
    }
}

impl AddAssign for Complex64 {
    #[inline]
    fn add_assign(&mut self, rhs: Complex64) {
        *self = *self + rhs;
    }
}

impl SubAssign for Complex64 {
    #[inline]
    fn sub_assign(&mut self, rhs: Complex64) {
        *self = *self - rhs;
    }
}

impl MulAssign for Complex64 {
    #[inline]
    fn mul_assign(&mut self, rhs: Complex64) {
        *self = *self * rhs;
    }
}

impl DivAssign for Complex64 {
    #[inline]
    fn div_assign(&mut self, rhs: Complex64) {
        *self = *self / rhs;
    }
}

impl Sum for Complex64 {
    fn sum<I: Iterator<Item = Complex64>>(iter: I) -> Complex64 {
        iter.fold(Complex64::ZERO, |a, b| a + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: Complex64, b: Complex64, tol: f64) -> bool {
        (a - b).abs() <= tol
    }

    #[test]
    fn construction_and_constants() {
        assert_eq!(Complex64::new(1.0, 2.0).re, 1.0);
        assert_eq!(Complex64::I * Complex64::I, Complex64::from_real(-1.0));
        assert_eq!(Complex64::from(3.0), Complex64::new(3.0, 0.0));
        assert_eq!(Complex64::jomega(5.0), Complex64::new(0.0, 5.0));
    }

    #[test]
    fn field_axioms_spot_checks() {
        let a = Complex64::new(1.5, -2.0);
        let b = Complex64::new(-0.5, 3.0);
        let c = Complex64::new(4.0, 1.0);
        assert!(close(a * (b + c), a * b + a * c, 1e-12));
        assert!(close((a * b) * c, a * (b * c), 1e-12));
        assert!(close(a + (-a), Complex64::ZERO, 0.0));
    }

    #[test]
    fn division_and_recip() {
        let a = Complex64::new(3.0, 4.0);
        assert!(close(a * a.recip(), Complex64::ONE, 1e-15));
        let b = Complex64::new(-1.0, 7.0);
        assert!(close(a / b * b, a, 1e-12));
    }

    #[test]
    fn recip_avoids_overflow() {
        let a = Complex64::new(1e300, 1e300);
        let r = a.recip();
        assert!(r.is_finite());
        assert!(close(a * r, Complex64::ONE, 1e-12));
    }

    #[test]
    fn sqrt_roundtrips() {
        for &(re, im) in &[(4.0, 0.0), (0.0, 2.0), (-1.0, 0.0), (3.0, -4.0), (0.0, 0.0)] {
            let z = Complex64::new(re, im);
            let r = z.sqrt();
            assert!(close(r * r, z, 1e-12), "sqrt failed for {z}");
            assert!(r.re >= 0.0, "principal branch violated for {z}");
        }
    }

    #[test]
    fn exp_of_imaginary_is_on_unit_circle() {
        let z = Complex64::new(0.0, std::f64::consts::PI);
        assert!(close(z.exp(), Complex64::from_real(-1.0), 1e-15));
    }

    #[test]
    fn abs_and_arg() {
        let z = Complex64::new(1.0, 1.0);
        assert!((z.abs() - std::f64::consts::SQRT_2).abs() < 1e-15);
        assert!((z.arg() - std::f64::consts::FRAC_PI_4).abs() < 1e-15);
        assert_eq!(z.abs_sq(), 2.0);
    }

    #[test]
    fn display_formats_sign() {
        assert_eq!(Complex64::new(1.0, 2.0).to_string(), "1+2i");
        assert_eq!(Complex64::new(1.0, -2.0).to_string(), "1-2i");
    }

    #[test]
    fn sum_iterator() {
        let s: Complex64 = (0..4).map(|k| Complex64::new(k as f64, 1.0)).sum();
        assert_eq!(s, Complex64::new(6.0, 4.0));
    }

    #[test]
    fn real_scalar_ops() {
        let z = Complex64::new(2.0, -1.0);
        assert_eq!(z + 1.0, Complex64::new(3.0, -1.0));
        assert_eq!(z - 1.0, Complex64::new(1.0, -1.0));
        assert_eq!(z * 2.0, Complex64::new(4.0, -2.0));
        assert_eq!(z / 2.0, Complex64::new(1.0, -0.5));
        assert_eq!(2.0 * z, z * 2.0);
    }
}
