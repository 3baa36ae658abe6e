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
        let mut m = symmetrize(a);
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
            if off <= 1e-14 * (m.norm_fro() + 1e-300) {
                break;
            }
            if sweep == max_sweeps {
                return Err(LinalgError::NotConverged {
                    method: "jacobi-sym-eig",
                    iterations: max_sweeps,
                    residual: off,
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
        let values: Vec<f64> = order.iter().map(|&i| diag[i]).collect();
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

fn symmetrize(a: &Matrix) -> Matrix {
    let n = a.nrows();
    Matrix::from_fn(n, n, |i, j| 0.5 * (a[(i, j)] + a[(j, i)]))
}

/// Extremal eigenvalues `(λ_min, λ_max)` of a symmetric matrix.
///
/// Householder tridiagonalization (no orthogonal accumulation) followed by
/// Sturm-count bisection on the tridiagonal — `O(n³)` with a far smaller
/// constant than the full Jacobi decomposition, which is what makes
/// semidefiniteness margins on large reduced pencils affordable inside the
/// `Certify` stage. The matrix is symmetrized first, like
/// [`SymEig::compute`]. Fully deterministic: fixed bisection schedule, no
/// data-dependent pivoting.
///
/// # Errors
///
/// - [`LinalgError::NotSquare`] if the input is not square.
/// - [`LinalgError::InvalidArgument`] for an empty (0×0) matrix or an
///   entry that is NaN or ±∞.
pub fn sym_eig_extremes(a: &Matrix) -> Result<(f64, f64)> {
    if !a.is_square() {
        return Err(LinalgError::NotSquare { shape: a.shape() });
    }
    let n = a.nrows();
    if n == 0 {
        return Err(LinalgError::InvalidArgument {
            what: "empty matrix has no eigenvalues",
        });
    }
    a.require_finite("sym-eig-extremes: matrix has a non-finite entry")?;
    let (d, e) = tridiagonalize(&symmetrize(a));
    let lo = sturm_min(&d, &e);
    let neg_d: Vec<f64> = d.iter().map(|&v| -v).collect();
    let hi = -sturm_min(&neg_d, &e);
    Ok((lo, hi))
}

/// Smallest eigenvalue of a symmetric matrix — see [`sym_eig_extremes`].
///
/// # Errors
///
/// Same as [`sym_eig_extremes`].
pub fn sym_min_eig(a: &Matrix) -> Result<f64> {
    sym_eig_extremes(a).map(|(lo, _)| lo)
}

/// Householder reduction of a symmetric matrix to tridiagonal form,
/// returning `(diag, subdiag)` with `subdiag.len() == n - 1`. Classic
/// EISPACK `tred1` shape: reflectors are applied but never accumulated.
fn tridiagonalize(a: &Matrix) -> (Vec<f64>, Vec<f64>) {
    let n = a.nrows();
    let mut m = a.clone();
    let mut e = vec![0.0_f64; n];
    for i in (1..n).rev() {
        let l = i - 1;
        if l == 0 {
            e[i] = m[(i, 0)];
            continue;
        }
        let mut scale = 0.0;
        for k in 0..i {
            scale += m[(i, k)].abs();
        }
        if scale == 0.0 {
            e[i] = 0.0;
            continue;
        }
        let mut v: Vec<f64> = (0..i).map(|k| m[(i, k)] / scale).collect();
        let mut h: f64 = v.iter().map(|x| x * x).sum();
        let f = v[l];
        let g = if f > 0.0 { -h.sqrt() } else { h.sqrt() };
        e[i] = scale * g;
        h -= f * g;
        v[l] = f - g;
        // p = A·v / h over the leading i×i block, then the rank-2 update
        // A ← A − v pᵀ − p vᵀ restricted to the lower triangle.
        let mut p = vec![0.0_f64; i];
        for j in 0..i {
            let mut acc = 0.0;
            for k in 0..=j {
                acc += m[(j, k)] * v[k];
            }
            for k in (j + 1)..i {
                acc += m[(k, j)] * v[k];
            }
            p[j] = acc / h;
        }
        let kk: f64 = p.iter().zip(&v).map(|(p, v)| p * v).sum::<f64>() / (2.0 * h);
        for j in 0..i {
            p[j] -= kk * v[j];
        }
        for j in 0..i {
            for k in 0..=j {
                m[(j, k)] -= v[j] * p[k] + p[j] * v[k];
            }
        }
    }
    let d: Vec<f64> = (0..n).map(|i| m[(i, i)]).collect();
    (d, e.split_off(1))
}

/// Number of eigenvalues of the tridiagonal `(d, e)` strictly below `x`,
/// by the Sturm sequence of leading-principal-minor pivots.
fn sturm_count(d: &[f64], e: &[f64], x: f64, guard: f64) -> usize {
    let mut count = 0;
    let mut q = 1.0_f64;
    for i in 0..d.len() {
        let ei2 = if i == 0 { 0.0 } else { e[i - 1] * e[i - 1] };
        if q.abs() < guard {
            q = if q < 0.0 { -guard } else { guard };
        }
        q = d[i] - x - ei2 / q;
        if q < 0.0 {
            count += 1;
        }
    }
    count
}

/// Bisection for the smallest eigenvalue of the tridiagonal `(d, e)`,
/// bracketed by Gershgorin bounds. A fixed 120-step schedule drives the
/// bracket to full `f64` resolution deterministically.
fn sturm_min(d: &[f64], e: &[f64]) -> f64 {
    let n = d.len();
    let radius = |i: usize| {
        let left = if i > 0 { e[i - 1].abs() } else { 0.0 };
        let right = if i + 1 < n { e[i].abs() } else { 0.0 };
        left + right
    };
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for i in 0..n {
        lo = lo.min(d[i] - radius(i));
        hi = hi.max(d[i] + radius(i));
    }
    let span = (hi - lo).max(lo.abs()).max(hi.abs()).max(1.0);
    let guard = (span * f64::EPSILON).max(f64::MIN_POSITIVE);
    // Invariant: count(lo) == 0, count(hi) >= 1.
    let mut lo = lo - guard;
    let mut hi = hi + guard;
    for _ in 0..120 {
        let mid = 0.5 * (lo + hi);
        if mid <= lo || mid >= hi {
            break;
        }
        if sturm_count(d, e, mid, guard) >= 1 {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    0.5 * (lo + hi)
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
    fn extremes_match_full_decomposition() {
        for n in [1, 2, 3, 8, 17, 40] {
            let a = Matrix::from_fn(n, n, |i, j| {
                ((i * 31 + j * 17) as f64 * 0.37).sin() + if i == j { 2.5 } else { 0.0 }
            });
            let full = SymEig::compute(&a).unwrap();
            let (lo, hi) = sym_eig_extremes(&a).unwrap();
            let scale = full.values.iter().fold(1.0_f64, |m, v| m.max(v.abs()));
            assert!(
                (lo - full.values[0]).abs() <= 1e-11 * scale,
                "n={n}: λ_min {lo} vs jacobi {}",
                full.values[0]
            );
            assert!(
                (hi - full.values[n - 1]).abs() <= 1e-11 * scale,
                "n={n}: λ_max {hi} vs jacobi {}",
                full.values[n - 1]
            );
            assert_eq!(sym_min_eig(&a).unwrap(), lo);
        }
    }

    #[test]
    fn extremes_on_spd_and_indefinite() {
        // Path Laplacian + I: SPD with known spectrum 3 - 2cos(kπ/(n+1)).
        let n = 12;
        let a = Matrix::from_fn(n, n, |i, j| {
            if i == j {
                3.0
            } else if i.abs_diff(j) == 1 {
                -1.0
            } else {
                0.0
            }
        });
        let (lo, hi) = sym_eig_extremes(&a).unwrap();
        let expect_lo = 3.0 - 2.0 * (std::f64::consts::PI / (n as f64 + 1.0)).cos();
        let expect_hi = 3.0 - 2.0 * (n as f64 * std::f64::consts::PI / (n as f64 + 1.0)).cos();
        assert!((lo - expect_lo).abs() < 1e-12);
        assert!((hi - expect_hi).abs() < 1e-12);
        // Indefinite: diag(-4, 9).
        let b = Matrix::from_rows(&[&[-4.0, 0.0], &[0.0, 9.0]]);
        let (lo, hi) = sym_eig_extremes(&b).unwrap();
        assert!((lo + 4.0).abs() < 1e-12 && (hi - 9.0).abs() < 1e-12);
    }

    #[test]
    fn extremes_reject_bad_shapes() {
        assert!(sym_eig_extremes(&Matrix::zeros(2, 3)).is_err());
        assert!(sym_eig_extremes(&Matrix::zeros(0, 0)).is_err());
        let one = Matrix::from_rows(&[&[7.0]]);
        assert_eq!(sym_eig_extremes(&one).unwrap(), (7.0, 7.0));
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
