//! Dense LU factorization with partial pivoting.

use super::matrix::Matrix;
use crate::error::{LinalgError, Result};

/// LU factorization `P A = L U` of a square dense matrix with partial
/// (row) pivoting.
///
/// Used for the small ROM-side systems: converting descriptor ROMs to
/// standard state space (`C_ir⁻¹ G_ir`, Sec. III-D) and solving projected
/// systems during transient simulation.
///
/// # Examples
///
/// ```
/// use bdsm_linalg::{Matrix, DenseLu};
///
/// let a = Matrix::from_rows(&[&[0.0, 2.0], &[1.0, 1.0]]);
/// let lu = DenseLu::factor(&a)?;
/// let x = lu.solve(&[2.0, 2.0])?;
/// assert!((x[0] - 1.0).abs() < 1e-14 && (x[1] - 1.0).abs() < 1e-14);
/// # Ok::<(), bdsm_linalg::LinalgError>(())
/// ```
#[derive(Debug, Clone)]
pub struct DenseLu {
    /// Packed LU factors: unit-lower L below the diagonal, U on and above.
    lu: Matrix,
    /// Row permutation: row `i` of `U` came from row `perm[i]` of `A`.
    perm: Vec<usize>,
    /// Sign of the permutation, for determinants.
    perm_sign: f64,
}

impl DenseLu {
    /// Factors a square matrix.
    ///
    /// # Errors
    ///
    /// - [`LinalgError::NotSquare`] if `a` is not square.
    /// - [`LinalgError::Singular`] if a pivot is exactly zero or NaN (every
    ///   comparison with NaN is false, so a NaN pivot would otherwise pass
    ///   for a nonzero one and poison every solve).
    pub fn factor(a: &Matrix) -> Result<Self> {
        if !a.is_square() {
            return Err(LinalgError::NotSquare { shape: a.shape() });
        }
        let n = a.nrows();
        let mut lu = a.clone();
        let mut perm: Vec<usize> = (0..n).collect();
        let mut sign = 1.0;
        for k in 0..n {
            // Partial pivoting: largest magnitude in column k at/below row k.
            let mut piv = k;
            let mut pmax = lu[(k, k)].abs();
            for i in (k + 1)..n {
                let v = lu[(i, k)].abs();
                if v > pmax {
                    pmax = v;
                    piv = i;
                }
            }
            if pmax == 0.0 || pmax.is_nan() {
                return Err(LinalgError::Singular { at: k });
            }
            if piv != k {
                perm.swap(k, piv);
                sign = -sign;
                for j in 0..n {
                    let t = lu[(k, j)];
                    lu[(k, j)] = lu[(piv, j)];
                    lu[(piv, j)] = t;
                }
            }
            let inv_piv = 1.0 / lu[(k, k)];
            for i in (k + 1)..n {
                let lik = lu[(i, k)] * inv_piv;
                lu[(i, k)] = lik;
                if lik != 0.0 {
                    for j in (k + 1)..n {
                        let u = lu[(k, j)];
                        lu[(i, j)] -= lik * u;
                    }
                }
            }
        }
        Ok(DenseLu {
            lu,
            perm,
            perm_sign: sign,
        })
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.lu.nrows()
    }

    /// Solves `A x = b`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `b.len()` differs from the
    /// matrix dimension.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        let n = self.dim();
        if b.len() != n {
            return Err(LinalgError::ShapeMismatch {
                op: "lu-solve",
                lhs: (n, n),
                rhs: (b.len(), 1),
            });
        }
        // Apply permutation, then forward/backward substitution.
        let mut x: Vec<f64> = self.perm.iter().map(|&p| b[p]).collect();
        for i in 1..n {
            let mut s = x[i];
            for j in 0..i {
                s -= self.lu[(i, j)] * x[j];
            }
            x[i] = s;
        }
        for i in (0..n).rev() {
            let mut s = x[i];
            for j in (i + 1)..n {
                s -= self.lu[(i, j)] * x[j];
            }
            x[i] = s / self.lu[(i, i)];
        }
        Ok(x)
    }

    /// Solves `A X = B` column by column.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `b.nrows()` differs from the
    /// matrix dimension.
    pub fn solve_matrix(&self, b: &Matrix) -> Result<Matrix> {
        let n = self.dim();
        if b.nrows() != n {
            return Err(LinalgError::ShapeMismatch {
                op: "lu-solve-matrix",
                lhs: (n, n),
                rhs: b.shape(),
            });
        }
        let mut out = Matrix::zeros(n, b.ncols());
        for j in 0..b.ncols() {
            let col = self.solve(&b.col(j))?;
            out.set_col(j, &col);
        }
        Ok(out)
    }

    /// Explicit inverse `A⁻¹` (use sparingly; prefer `solve`).
    ///
    /// # Errors
    ///
    /// Propagates solve errors (cannot occur after a successful factorization
    /// of a well-shaped identity).
    pub fn inverse(&self) -> Result<Matrix> {
        self.solve_matrix(&Matrix::identity(self.dim()))
    }

    /// Determinant of `A`, as the product of pivots times the permutation sign.
    pub fn det(&self) -> f64 {
        let mut d = self.perm_sign;
        for i in 0..self.dim() {
            d *= self.lu[(i, i)];
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vector::rel_err;

    #[test]
    fn solves_known_system() {
        let a = Matrix::from_rows(&[&[2.0, 1.0, 1.0], &[4.0, -6.0, 0.0], &[-2.0, 7.0, 2.0]]);
        let b = [5.0, -2.0, 9.0];
        let lu = DenseLu::factor(&a).unwrap();
        let x = lu.solve(&b).unwrap();
        let bx = a.matvec(&x).unwrap();
        assert!(rel_err(&bx, &b, 1e-30) < 1e-13);
    }

    #[test]
    fn pivoting_handles_zero_leading_entry() {
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let lu = DenseLu::factor(&a).unwrap();
        let x = lu.solve(&[3.0, 7.0]).unwrap();
        assert_eq!(x, vec![7.0, 3.0]);
    }

    #[test]
    fn singular_detected() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        assert!(matches!(
            DenseLu::factor(&a),
            Err(LinalgError::Singular { .. })
        ));
    }

    #[test]
    fn nan_pivot_is_an_error_not_a_nan_solution() {
        let mut a = Matrix::from_rows(&[&[2.0, 1.0, 0.0], &[1.0, 3.0, 1.0], &[0.0, 1.0, 4.0]]);
        a[(1, 1)] = f64::NAN;
        assert!(matches!(
            DenseLu::factor(&a),
            Err(LinalgError::Singular { at: 1 })
        ));
    }

    #[test]
    fn non_square_rejected() {
        let a = Matrix::zeros(2, 3);
        assert!(matches!(
            DenseLu::factor(&a),
            Err(LinalgError::NotSquare { .. })
        ));
    }

    #[test]
    fn det_matches_known_values() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let lu = DenseLu::factor(&a).unwrap();
        assert!((lu.det() + 2.0).abs() < 1e-14);
        let i = Matrix::identity(4);
        assert!((DenseLu::factor(&i).unwrap().det() - 1.0).abs() < 1e-15);
    }

    #[test]
    fn inverse_times_matrix_is_identity() {
        let a = Matrix::from_rows(&[&[4.0, 7.0], &[2.0, 6.0]]);
        let inv = DenseLu::factor(&a).unwrap().inverse().unwrap();
        let prod = a.matmul(&inv).unwrap();
        let err = prod.sub(&Matrix::identity(2)).unwrap().norm_max();
        assert!(err < 1e-14);
    }

    #[test]
    fn solve_matrix_multiple_rhs() {
        let a = Matrix::from_rows(&[&[3.0, 1.0], &[1.0, 2.0]]);
        let b = Matrix::from_rows(&[&[9.0, 4.0], &[8.0, 3.0]]);
        let x = DenseLu::factor(&a).unwrap().solve_matrix(&b).unwrap();
        let r = a.matmul(&x).unwrap().sub(&b).unwrap().norm_max();
        assert!(r < 1e-13);
    }

    #[test]
    fn solve_rejects_wrong_length() {
        let a = Matrix::identity(3);
        let lu = DenseLu::factor(&a).unwrap();
        assert!(lu.solve(&[1.0, 2.0]).is_err());
    }

    #[test]
    fn random_roundtrip_moderate_size() {
        // Deterministic pseudo-random fill; condition stays moderate thanks to
        // diagonal boost.
        let n = 40;
        let mut seed = 0x9e3779b97f4a7c15u64;
        let mut rng = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed as f64 / u64::MAX as f64) - 0.5
        };
        let mut a = Matrix::from_fn(n, n, |_, _| rng());
        for i in 0..n {
            a[(i, i)] += 4.0;
        }
        let xref: Vec<f64> = (0..n).map(|i| (i as f64).sin() + 1.5).collect();
        let b = a.matvec(&xref).unwrap();
        let x = DenseLu::factor(&a).unwrap().solve(&b).unwrap();
        assert!(rel_err(&x, &xref, 1e-30) < 1e-11);
    }
}
