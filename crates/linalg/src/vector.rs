//! Dense vector kernels shared by the dense and sparse layers.
//!
//! These free functions operate on `&[f64]` slices so they compose with both
//! [`crate::dense::Matrix`] columns and ad-hoc work buffers without forcing a
//! particular container type.

use crate::Complex64;

/// Dot product `xᵀ y`.
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[inline]
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "dot: length mismatch");
    x.iter().zip(y).map(|(a, b)| a * b).sum()
}

/// Euclidean norm `‖x‖₂`, guarded against overflow by scaling.
pub fn norm2(x: &[f64]) -> f64 {
    let amax = x.iter().fold(0.0_f64, |m, v| m.max(v.abs()));
    if amax == 0.0 || !amax.is_finite() {
        return amax;
    }
    let mut sum = 0.0;
    for &v in x {
        let t = v / amax;
        sum += t * t;
    }
    amax * sum.sqrt()
}

/// Infinity norm `max |xᵢ|`.
pub fn norm_inf(x: &[f64]) -> f64 {
    x.iter().fold(0.0_f64, |m, v| m.max(v.abs()))
}

/// `y ← y + alpha * x`.
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[inline]
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// `x ← alpha * x`.
#[inline]
pub fn scale(alpha: f64, x: &mut [f64]) {
    for v in x.iter_mut() {
        *v *= alpha;
    }
}

/// Normalizes `x` in place and returns its original 2-norm.
///
/// If the norm is below `tiny` the vector is left untouched and the norm is
/// still returned, letting callers implement deflation policies.
pub fn normalize(x: &mut [f64], tiny: f64) -> f64 {
    let n = norm2(x);
    if n > tiny {
        let inv = 1.0 / n;
        scale(inv, x);
    }
    n
}

/// Relative magnitude under which [`flush_tiny`] drops an entry:
/// `√f64::MIN_POSITIVE` rounded up, so in a vector of unit scale neither
/// a kept entry nor the product of two kept entries is subnormal.
pub const TINY_REL: f64 = 1.5e-154;

/// Sets every entry with `|xᵢ| < TINY_REL · ‖x‖∞` to exact zero.
///
/// Solutions that decay geometrically away from their source (shifted
/// solves on a long ladder) run through the subnormal range before they
/// underflow, and every `dot`/`axpy`/triangular pass over a subnormal
/// operand takes a microcode assist — tens of times the cost of a normal
/// flop. The flush is a pure function of the vector and perturbs it by
/// `1.5e-154` relative, far below one ulp of anything computed from it.
pub fn flush_tiny(x: &mut [f64]) {
    let cut = TINY_REL * norm_inf(x);
    for v in x.iter_mut() {
        if v.abs() < cut {
            *v = 0.0;
        }
    }
}

/// [`flush_tiny`] for a complex vector: real and imaginary parts are
/// flushed one by one against the largest part of the whole vector, as
/// the Krylov recurrence consumes them as separate real columns.
pub fn flush_tiny_complex(x: &mut [Complex64]) {
    let amax = x
        .iter()
        .fold(0.0_f64, |m, z| m.max(z.re.abs()).max(z.im.abs()));
    let cut = TINY_REL * amax;
    for z in x.iter_mut() {
        if z.re.abs() < cut {
            z.re = 0.0;
        }
        if z.im.abs() < cut {
            z.im = 0.0;
        }
    }
}

/// Relative difference `‖x − y‖₂ / max(‖y‖₂, floor)`.
///
/// Used pervasively by tests and by the accuracy experiments (Fig. 5b of the
/// paper reports exactly this quantity per frequency point).
pub fn rel_err(x: &[f64], y: &[f64], floor: f64) -> f64 {
    assert_eq!(x.len(), y.len(), "rel_err: length mismatch");
    let mut diff = 0.0_f64;
    for (a, b) in x.iter().zip(y) {
        let d = a - b;
        diff += d * d;
    }
    diff.sqrt() / norm2(y).max(floor)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_basic() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_mismatch_panics() {
        dot(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn norm2_is_scaled_against_overflow() {
        let big = 1e200;
        let x = [big, big];
        let n = norm2(&x);
        assert!((n - big * std::f64::consts::SQRT_2).abs() / n < 1e-14);
    }

    #[test]
    fn norm2_zero_vector() {
        assert_eq!(norm2(&[0.0, 0.0]), 0.0);
        assert_eq!(norm2(&[]), 0.0);
    }

    #[test]
    fn norms_agree_on_simple_vector() {
        let x = [3.0, -4.0];
        assert_eq!(norm2(&x), 5.0);
        assert_eq!(norm_inf(&x), 4.0);
    }

    #[test]
    fn axpy_accumulates() {
        let mut y = vec![1.0, 1.0];
        axpy(2.0, &[3.0, -1.0], &mut y);
        assert_eq!(y, vec![7.0, -1.0]);
    }

    #[test]
    fn normalize_returns_norm_and_unit_result() {
        let mut x = vec![3.0, 4.0];
        let n = normalize(&mut x, 1e-300);
        assert_eq!(n, 5.0);
        assert!((norm2(&x) - 1.0).abs() < 1e-15);
    }

    #[test]
    fn normalize_leaves_tiny_vectors() {
        let mut x = vec![1e-320, 0.0];
        let n = normalize(&mut x, 1e-200);
        assert!(n < 1e-200);
        assert_eq!(x[0], 1e-320);
    }

    #[test]
    fn flush_tiny_zeroes_only_what_would_go_subnormal() {
        let mut x = vec![2.0, -1e-153, 1e-160, -1e-310, 0.0];
        flush_tiny(&mut x);
        assert_eq!(x, vec![2.0, -1e-153, 0.0, 0.0, 0.0]);
        // Relative, not absolute: a uniformly small vector is untouched.
        let mut small = vec![1e-200, -3e-200];
        flush_tiny(&mut small);
        assert_eq!(small, vec![1e-200, -3e-200]);
        let mut none: Vec<f64> = Vec::new();
        flush_tiny(&mut none);

        let mut z = vec![
            Complex64::new(1e-170, -4.0),
            Complex64::new(1e-3, 1e-320),
            Complex64::ZERO,
        ];
        flush_tiny_complex(&mut z);
        assert_eq!(z[0], Complex64::new(0.0, -4.0));
        assert_eq!(z[1], Complex64::new(1e-3, 0.0));
        assert_eq!(z[2], Complex64::ZERO);
    }

    #[test]
    fn rel_err_zero_for_identical() {
        let x = [1.0, 2.0];
        assert_eq!(rel_err(&x, &x, 1e-30), 0.0);
    }

    #[test]
    fn rel_err_uses_floor_for_zero_reference() {
        let e = rel_err(&[1.0], &[0.0], 1e-3);
        assert!((e - 1000.0).abs() < 1e-9);
    }
}
