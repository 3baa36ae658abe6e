//! Symmetric eigendecomposition via the cyclic Jacobi method.

use super::matrix::Matrix;
use crate::error::{LinalgError, Result};

/// Eigendecomposition `A = Q Λ Qᵀ` of a symmetric matrix.
///
/// Used for the positive-real tests in the passivity toolkit (checking
/// `Re H(jω) ⪰ 0` requires the eigenvalues of a small symmetric matrix per
/// frequency sample) and as a well-conditioned reference in tests.
#[derive(Debug, Clone)]
pub struct SymEig {
    /// Eigenvalues in ascending order.
    pub values: Vec<f64>,
    /// Orthonormal eigenvectors as columns, matching `values` order.
    pub vectors: Matrix,
}

impl SymEig {
    /// Computes the eigendecomposition of a symmetric matrix.
    ///
    /// The input is symmetrized first (`(A + Aᵀ)/2`), so both triangles are
    /// read and every entry must be finite; no symmetry check is performed.
    ///
    /// # Errors
    ///
    /// - [`LinalgError::NotSquare`] if the input is not square.
    /// - [`LinalgError::InvalidArgument`] if an entry is NaN or ±∞.
    /// - [`LinalgError::NotConverged`] if Jacobi sweeps fail (practically
    ///   unreachable for finite symmetric inputs).
    pub fn compute(a: &Matrix) -> Result<Self> {
        Self::compute_within(a, 50)
    }

    /// [`compute`](Self::compute) with an explicit sweep budget.
    fn compute_within(a: &Matrix, max_sweeps: usize) -> Result<Self> {
        if !a.is_square() {
            return Err(LinalgError::NotSquare { shape: a.shape() });
        }
        a.require_finite("sym-eig: matrix has a non-finite entry")?;
        let n = a.nrows();
        // The convergence test sums squares of entries, which underflow
        // below about 1e-162 and overflow above 1e154. So the sweeps run
        // on `A·2⁻ᵏ`, with `2ᵏ ≤ ‖A‖_max < 2ᵏ⁺¹`. A power of two scales
        // every rotation's inputs exactly, so the rotations are those of
        // `A` and scaling the values back by `2ᵏ` gives `A`'s, bit for
        // bit.
        let k = a.norm_max().to_bits() >> 52;
        let k = (k as i32 - 1023).clamp(-1022, 1022);
        let (down, up) = (pow2(-k), pow2(k));
        let mut m = Matrix::from_fn(n, n, |i, j| 0.5 * (down * a[(i, j)] + down * a[(j, i)]));
        let mut q = Matrix::identity(n);
        for sweep in 0.. {
            // Frobenius norm of the strict upper triangle.
            let mut off = 0.0_f64;
            for p in 0..n {
                for r in (p + 1)..n {
                    off += m[(p, r)] * m[(p, r)];
                }
            }
            let off = off.sqrt();
            if off <= 1e-14 * m.norm_fro() {
                break;
            }
            if sweep == max_sweeps {
                return Err(LinalgError::NotConverged {
                    method: "jacobi-sym-eig",
                    iterations: max_sweeps,
                    residual: off * up,
                });
            }
            for p in 0..n {
                for r in (p + 1)..n {
                    let apq = m[(p, r)];
                    if apq == 0.0 {
                        continue;
                    }
                    let app = m[(p, p)];
                    let aqq = m[(r, r)];
                    let theta = (aqq - app) / (2.0 * apq);
                    let t = theta.signum() / (theta.abs() + (1.0 + theta * theta).sqrt());
                    let c = 1.0 / (1.0 + t * t).sqrt();
                    let s = t * c;
                    // Update rows/columns p and r of the symmetric matrix.
                    for k in 0..n {
                        let mkp = m[(k, p)];
                        let mkq = m[(k, r)];
                        m[(k, p)] = c * mkp - s * mkq;
                        m[(k, r)] = s * mkp + c * mkq;
                    }
                    for k in 0..n {
                        let mpk = m[(p, k)];
                        let mqk = m[(r, k)];
                        m[(p, k)] = c * mpk - s * mqk;
                        m[(r, k)] = s * mpk + c * mqk;
                    }
                    for k in 0..n {
                        let qkp = q[(k, p)];
                        let qkq = q[(k, r)];
                        q[(k, p)] = c * qkp - s * qkq;
                        q[(k, r)] = s * qkp + c * qkq;
                    }
                }
            }
        }
        // Sort ascending, permute vectors to match.
        let mut order: Vec<usize> = (0..n).collect();
        let diag: Vec<f64> = (0..n).map(|i| m[(i, i)]).collect();
        order.sort_by(|&i, &j| diag[i].partial_cmp(&diag[j]).unwrap());
        let values: Vec<f64> = order.iter().map(|&i| diag[i] * up).collect();
        let mut vectors = Matrix::zeros(n, n);
        for (dst, &src) in order.iter().enumerate() {
            for i in 0..n {
                vectors[(i, dst)] = q[(i, src)];
            }
        }
        Ok(SymEig { values, vectors })
    }

    /// Smallest eigenvalue (`None` for a 0×0 input).
    pub fn min(&self) -> Option<f64> {
        self.values.first().copied()
    }
}

/// `2ᵉ` for a normal exponent `e ∈ [−1022, 1023]`.
fn pow2(e: i32) -> f64 {
    f64::from_bits(((e + 1023) as u64) << 52)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diagonal_matrix() {
        let a = Matrix::from_rows(&[&[3.0, 0.0], &[0.0, -1.0]]);
        let e = SymEig::compute(&a).unwrap();
        assert!((e.values[0] + 1.0).abs() < 1e-14);
        assert!((e.values[1] - 3.0).abs() < 1e-14);
        assert_eq!(e.min(), Some(e.values[0]));
    }

    #[test]
    fn known_2x2() {
        // [[2,1],[1,2]] has eigenvalues 1 and 3.
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]]);
        let e = SymEig::compute(&a).unwrap();
        assert!((e.values[0] - 1.0).abs() < 1e-13);
        assert!((e.values[1] - 3.0).abs() < 1e-13);
    }

    #[test]
    fn reconstruction_and_orthogonality() {
        let n = 8;
        let a = Matrix::from_fn(n, n, |i, j| 1.0 / (1.0 + (i as f64 - j as f64).abs()));
        let e = SymEig::compute(&a).unwrap();
        // Q Λ Qᵀ = A
        let mut lam = Matrix::zeros(n, n);
        for i in 0..n {
            lam[(i, i)] = e.values[i];
        }
        let back = e
            .vectors
            .matmul(&lam)
            .unwrap()
            .matmul(&e.vectors.transpose())
            .unwrap();
        assert!(back.sub(&a).unwrap().norm_max() < 1e-12);
        let qtq = e.vectors.transpose().matmul(&e.vectors).unwrap();
        assert!(qtq.sub(&Matrix::identity(n)).unwrap().norm_max() < 1e-12);
    }

    #[test]
    fn eigenvalues_sorted_ascending() {
        let a = Matrix::from_fn(6, 6, |i, j| ((i + j) as f64).sin());
        let e = SymEig::compute(&a).unwrap();
        for w in e.values.windows(2) {
            assert!(w[0] <= w[1] + 1e-14);
        }
    }

    #[test]
    fn spd_matrix_has_positive_eigenvalues() {
        // Laplacian of a path + I is SPD.
        let n = 10;
        let a = Matrix::from_fn(n, n, |i, j| {
            if i == j {
                3.0
            } else if i.abs_diff(j) == 1 {
                -1.0
            } else {
                0.0
            }
        });
        let e = SymEig::compute(&a).unwrap();
        assert!(e.min().unwrap() > 0.0);
    }

    #[test]
    fn non_square_rejected() {
        assert!(SymEig::compute(&Matrix::zeros(2, 3)).is_err());
    }

    #[test]
    fn non_convergence_reports_the_off_diagonal_norm() {
        // One sweep cannot diagonalise a full 6 × 6 matrix.
        let a = Matrix::from_fn(6, 6, |i, j| ((i + j) as f64).sin());
        match SymEig::compute_within(&a, 1) {
            Err(LinalgError::NotConverged {
                method: "jacobi-sym-eig",
                iterations: 1,
                residual,
            }) => assert!(
                residual > 1e-14 * a.norm_fro() && residual < a.norm_fro(),
                "residual {residual:e} is not the remaining off-diagonal norm"
            ),
            other => panic!("expected NotConverged, got {other:?}"),
        }
        assert!(SymEig::compute(&a).is_ok());
    }

    #[test]
    fn spectrum_far_from_unit_scale() {
        // [[1, 2], [2, 1]] has eigenvalues −1 and 3 at any scale; at 1e-170
        // the squared off-diagonal underflows, at 1e170 it overflows.
        for alpha in [1e-170, 1e170] {
            let a = Matrix::from_rows(&[&[alpha, 2.0 * alpha], &[2.0 * alpha, alpha]]);
            let e = SymEig::compute(&a).unwrap();
            assert!(
                (e.values[0] + alpha).abs() <= 1e-14 * alpha
                    && (e.values[1] - 3.0 * alpha).abs() <= 1e-14 * alpha,
                "alpha = {alpha:e}: {:?}",
                e.values
            );
        }
    }

    #[test]
    fn trace_equals_sum_of_eigenvalues() {
        let a = Matrix::from_fn(5, 5, |i, j| ((i * j) as f64).cos());
        let e = SymEig::compute(&a).unwrap();
        let tr: f64 = (0..5).map(|i| a[(i, i)]).sum();
        let sum: f64 = e.values.iter().sum();
        assert!((tr - sum).abs() < 1e-12);
    }
}
