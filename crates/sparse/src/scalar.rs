//! Scalar abstraction shared by the real and complex sparse kernels.
//!
//! The sparse LU factors either `f64` systems (real expansion points,
//! transient left-hand sides) or [`Complex64`] systems (`G + jωC` shifted
//! solves), so the CSC type and the factorization are generic over this
//! small trait instead of being duplicated per scalar.

use bdsm_linalg::Complex64;
use std::fmt::Debug;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// A field scalar the sparse kernels can factor with.
///
/// The `Default` bound (additive identity) is what lets the scalar satisfy
/// [`bdsm_linalg::GemmScalar`], so the supernodal kernel can hand packed
/// panels straight to the blocked dense micro-kernels.
pub trait Scalar:
    Copy
    + Debug
    + Default
    + PartialEq
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + SubAssign
{
    /// Additive identity.
    const ZERO: Self;
    /// Multiplicative identity.
    const ONE: Self;

    /// Embeds a real number.
    fn from_real(re: f64) -> Self;

    /// Squared magnitude `|z|²` — the pivot-selection metric (avoids the
    /// square root of a full `abs`).
    fn abs_sq(self) -> f64;

    /// `max(|re|, |im|)` — the pivot metric when every candidate's
    /// [`abs_sq`](Self::abs_sq) underflows (`|z| ≲ 1.5e-162`).
    fn norm_inf(self) -> f64;

    /// Scales by a real factor.
    fn scale(self, k: f64) -> Self;

    /// `true` for the exact additive identity.
    #[inline]
    fn is_zero(self) -> bool {
        self == Self::ZERO
    }
}

impl Scalar for f64 {
    const ZERO: f64 = 0.0;
    const ONE: f64 = 1.0;

    #[inline]
    fn from_real(re: f64) -> f64 {
        re
    }

    #[inline]
    fn abs_sq(self) -> f64 {
        self * self
    }

    #[inline]
    fn norm_inf(self) -> f64 {
        self.abs()
    }

    #[inline]
    fn scale(self, k: f64) -> f64 {
        self * k
    }
}

impl Scalar for Complex64 {
    const ZERO: Complex64 = Complex64::ZERO;
    const ONE: Complex64 = Complex64::ONE;

    #[inline]
    fn from_real(re: f64) -> Complex64 {
        Complex64::from_real(re)
    }

    #[inline]
    fn abs_sq(self) -> f64 {
        Complex64::abs_sq(self)
    }

    #[inline]
    fn norm_inf(self) -> f64 {
        self.re.abs().max(self.im.abs())
    }

    #[inline]
    fn scale(self, k: f64) -> Complex64 {
        Complex64::scale(self, k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn real_scalar_contract() {
        assert_eq!(f64::from_real(2.5), 2.5);
        assert_eq!((-3.0f64).abs_sq(), 9.0);
        assert_eq!((-3.0f64).norm_inf(), 3.0);
        assert!(f64::ZERO.is_zero());
        assert!(!f64::ONE.is_zero());
        assert_eq!(2.0f64.scale(1.5), 3.0);
    }

    #[test]
    fn complex_scalar_contract() {
        let z = Complex64::new(3.0, 4.0);
        assert_eq!(Scalar::abs_sq(z), 25.0);
        assert_eq!(Scalar::norm_inf(Complex64::new(3.0, -4.0)), 4.0);
        assert_eq!(Complex64::from_real(1.0), Complex64::ONE);
        assert!(Scalar::is_zero(Complex64::ZERO));
        assert_eq!(Scalar::scale(z, 2.0), Complex64::new(6.0, 8.0));
    }
}
