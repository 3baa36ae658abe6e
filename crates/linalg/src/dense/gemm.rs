//! Cache/register-blocked dense GEMM-style micro-kernels.
//!
//! These are the flop engines behind the supernodal sparse LU
//! (`bdsm-sparse`): once a supernode's columns are packed into a
//! column-major panel, eliminating it against a target column is one unit
//! lower-triangular solve ([`trsv_unit_lower`]) plus one panel
//! multiply-subtract ([`gemm_sub`]) — contiguous, branch-free inner loops
//! instead of the scalar kernel's indirection-chasing scattered axpys.
//! [`crate::Matrix::matmul`] runs on the same kernel, so the projector's
//! congruence products and Gram matrices share the blocking.
//!
//! All panels are **column-major** with an explicit leading dimension, the
//! natural layout of CSC factors (row-major callers pass their buffers as
//! transposes — see `Matrix::matmul`). The kernel is generic over the
//! scalar so the real and complex (`G + jωC`) factorization paths compile
//! to separately optimized loops.

// BLAS-style panel signatures (extents + leading dimensions per operand)
// are the domain convention; bundling them into structs would only obscure
// the m/k/n contract every caller already knows.
#![allow(clippy::too_many_arguments)]

use std::ops::{Add, AddAssign, Mul, SubAssign};

/// Scalars the blocked kernels operate on (`f64` and
/// [`crate::Complex64`] in practice). `Default` supplies the additive
/// identity so the trait stays a pure alias over std bounds.
pub trait GemmScalar:
    Copy + Default + Add<Output = Self> + AddAssign + SubAssign + Mul<Output = Self>
{
}

impl<T> GemmScalar for T where
    T: Copy + Default + Add<Output = T> + AddAssign + SubAssign + Mul<Output = T>
{
}

/// `C += A·B` on column-major panels: `A` is `m × k` with leading
/// dimension `lda`, `B` is `k × n` (ldb), `C` is `m × n` (ldc).
///
/// # Panics
///
/// Panics (via slice indexing) if a panel is smaller than its
/// `leading dimension × extent` footprint.
#[inline]
pub fn gemm_acc<T: GemmScalar>(
    m: usize,
    k: usize,
    n: usize,
    a: &[T],
    lda: usize,
    b: &[T],
    ldb: usize,
    c: &mut [T],
    ldc: usize,
) {
    gemm_kernel::<T, false>(m, k, n, a, lda, b, ldb, c, ldc);
}

/// `C -= A·B`, same panel conventions as [`gemm_acc`]. This is the
/// supernodal elimination update `x(below) -= L(below, S) · u(S)`.
#[inline]
pub fn gemm_sub<T: GemmScalar>(
    m: usize,
    k: usize,
    n: usize,
    a: &[T],
    lda: usize,
    b: &[T],
    ldb: usize,
    c: &mut [T],
    ldc: usize,
) {
    gemm_kernel::<T, true>(m, k, n, a, lda, b, ldb, c, ldc);
}

/// Rank-1 updates fused per pass over a `C` column: each fused pass
/// broadcasts this many `B` values and streams as many unit-stride `A`
/// columns, so widening it deepens the register blocking without touching
/// the loop structure.
const FUSED_RANK1: usize = 8;

/// Shared implementation: per output column, rank-1 updates are fused
/// [`FUSED_RANK1`] at a time so each pass over the `C`
/// column amortizes that many broadcast `B` values
/// and unit-stride `A` streams — the register blocking — while `k` is
/// consumed in order, keeping results independent of the blocking factor
/// up to the usual fused-sum rounding.
#[allow(clippy::too_many_arguments)]
fn gemm_kernel<T: GemmScalar, const SUB: bool>(
    m: usize,
    k: usize,
    n: usize,
    a: &[T],
    lda: usize,
    b: &[T],
    ldb: usize,
    c: &mut [T],
    ldc: usize,
) {
    if m == 0 || k == 0 || n == 0 {
        return;
    }
    debug_assert!(lda >= m && ldc >= m && ldb >= k);
    for j in 0..n {
        let cj = &mut c[j * ldc..j * ldc + m];
        let bj = &b[j * ldb..j * ldb + k];
        let mut p = 0;
        while p + FUSED_RANK1 <= k {
            let bb: [T; FUSED_RANK1] = std::array::from_fn(|t| bj[p + t]);
            let acols: [&[T]; FUSED_RANK1] =
                std::array::from_fn(|t| &a[(p + t) * lda..(p + t) * lda + m]);
            for i in 0..m {
                let mut t = acols[0][i] * bb[0];
                for u in 1..FUSED_RANK1 {
                    t += acols[u][i] * bb[u];
                }
                if SUB {
                    cj[i] -= t;
                } else {
                    cj[i] += t;
                }
            }
            p += FUSED_RANK1;
        }
        while p < k {
            let bp = bj[p];
            let ap = &a[p * lda..p * lda + m];
            for i in 0..m {
                let t = ap[i] * bp;
                if SUB {
                    cj[i] -= t;
                } else {
                    cj[i] += t;
                }
            }
            p += 1;
        }
    }
}

/// In-place solve `L x = b` where `L` is the `w × w` **unit** lower
/// triangle of a column-major panel with leading dimension `lda`
/// (entries on and above the diagonal are ignored).
///
/// This is the diagonal-block step of a supernodal elimination: the
/// gathered right-hand side becomes the supernode's `U` column segment.
///
/// # Panics
///
/// Panics (via slice indexing) if the panel or `x` is too small.
pub fn trsv_unit_lower<T: GemmScalar>(w: usize, lda: usize, l: &[T], x: &mut [T]) {
    for j in 0..w {
        let xj = x[j];
        let lj = &l[j * lda..j * lda + w];
        for i in (j + 1)..w {
            let t = lj[i] * xj;
            x[i] -= t;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Complex64;

    /// Reference `C ±= A·B` in the same column-major convention.
    fn naive<T: GemmScalar>(
        m: usize,
        k: usize,
        n: usize,
        a: &[T],
        lda: usize,
        b: &[T],
        ldb: usize,
        c: &mut [T],
        ldc: usize,
        sub: bool,
    ) {
        for j in 0..n {
            for p in 0..k {
                for i in 0..m {
                    let t = a[p * lda + i] * b[j * ldb + p];
                    if sub {
                        c[j * ldc + i] -= t;
                    } else {
                        c[j * ldc + i] += t;
                    }
                }
            }
        }
    }

    fn fill(len: usize, seed: u64) -> Vec<f64> {
        let mut s = seed | 1;
        (0..len)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                (s >> 11) as f64 / (1u64 << 53) as f64 - 0.5
            })
            .collect()
    }

    #[test]
    fn gemm_matches_naive_over_shapes() {
        // Shapes straddle the fused width: k < fused, k == fused, and
        // k > 2·fused with a remainder.
        for &(m, k, n) in &[
            (1, 1, 1),
            (3, 5, 2),
            (8, 4, 4),
            (17, 9, 5),
            (6, 13, 1),
            (4, FUSED_RANK1, 2),
            (5, 2 * FUSED_RANK1 + 3, 3),
        ] {
            let a = fill(m * k, 0x11 + (m * k) as u64);
            let b = fill(k * n, 0x22 + (k * n) as u64);
            let mut c = fill(m * n, 0x33);
            let mut cref = c.clone();
            gemm_acc(m, k, n, &a, m, &b, k, &mut c, m);
            naive(m, k, n, &a, m, &b, k, &mut cref, m, false);
            for (x, y) in c.iter().zip(&cref) {
                assert!((x - y).abs() < 1e-13, "acc mismatch at ({m},{k},{n})");
            }
            gemm_sub(m, k, n, &a, m, &b, k, &mut c, m);
            naive(m, k, n, &a, m, &b, k, &mut cref, m, true);
            for (x, y) in c.iter().zip(&cref) {
                assert!((x - y).abs() < 1e-13, "sub mismatch at ({m},{k},{n})");
            }
        }
    }

    #[test]
    fn leading_dimensions_are_respected() {
        // Panels embedded in larger buffers: lda/ldb/ldc > extents.
        let (m, k, n) = (3, 6, 2);
        let (lda, ldb, ldc) = (5, 8, 4);
        let a = fill(lda * k, 1);
        let b = fill(ldb * n, 2);
        let mut c = fill(ldc * n, 3);
        let mut cref = c.clone();
        gemm_sub(m, k, n, &a, lda, &b, ldb, &mut c, ldc);
        naive(m, k, n, &a, lda, &b, ldb, &mut cref, ldc, true);
        for (x, y) in c.iter().zip(&cref) {
            assert!((x - y).abs() < 1e-14);
        }
        // Rows m..ldc of each C column are untouched padding.
        for j in 0..n {
            for i in m..ldc {
                assert_eq!(c[j * ldc + i], cref[j * ldc + i]);
            }
        }
    }

    #[test]
    fn complex_gemm_matches_naive() {
        let (m, k, n) = (5, 7, 3);
        let re = fill(m * k, 7);
        let im = fill(m * k, 8);
        let a: Vec<Complex64> = re
            .iter()
            .zip(&im)
            .map(|(&r, &i)| Complex64::new(r, i))
            .collect();
        let bre = fill(k * n, 9);
        let b: Vec<Complex64> = bre.iter().map(|&r| Complex64::new(r, -r)).collect();
        let mut c = vec![Complex64::ZERO; m * n];
        let mut cref = c.clone();
        gemm_acc(m, k, n, &a, m, &b, k, &mut c, m);
        naive(m, k, n, &a, m, &b, k, &mut cref, m, false);
        for (x, y) in c.iter().zip(&cref) {
            assert!((*x - *y).abs() < 1e-13);
        }
    }

    #[test]
    fn trsv_solves_unit_lower_system() {
        // Build L (unit lower, lda > w), pick x, compute b = L x, solve.
        let w = 6;
        let lda = 9;
        let mut l = vec![0.0f64; lda * w];
        let rnd = fill(w * w, 42);
        for j in 0..w {
            for i in (j + 1)..w {
                l[j * lda + i] = rnd[j * w + i];
            }
            // Garbage on/above the diagonal must be ignored.
            l[j * lda + j] = 777.0;
        }
        let xref = fill(w, 5);
        let mut b = xref.clone();
        // b = L x with unit diagonal: b[i] = x[i] + Σ_{j<i} L[i,j] x[j].
        for i in (0..w).rev() {
            let mut acc = xref[i];
            for j in 0..i {
                acc += l[j * lda + i] * xref[j];
            }
            b[i] = acc;
        }
        trsv_unit_lower(w, lda, &l, &mut b);
        for (x, y) in b.iter().zip(&xref) {
            assert!((x - y).abs() < 1e-13);
        }
    }

    #[test]
    fn empty_extents_are_noops() {
        let a = [1.0];
        let b = [2.0];
        let mut c = [3.0];
        gemm_acc(0, 1, 1, &a, 1, &b, 1, &mut c, 1);
        gemm_acc(1, 0, 1, &a, 1, &b, 1, &mut c, 1);
        gemm_acc(1, 1, 0, &a, 1, &b, 1, &mut c, 1);
        assert_eq!(c[0], 3.0);
        trsv_unit_lower(0, 1, &a, &mut c);
        assert_eq!(c[0], 3.0);
    }
}
