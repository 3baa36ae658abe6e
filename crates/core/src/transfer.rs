//! Frequency-domain transfer-function evaluation
//! `H(s) = L (G + sC)⁻¹ B`, for both full and reduced descriptor models.
//!
//! Two evaluators, selected by the representation of the input:
//!
//! - a dense complex LU ([`ZLu`]) that factors `G + sC` per frequency —
//!   the ROM side: [`eval_transfer`] for one sample, [`eval_jomega_sweep`]
//!   for a `jω` grid, [`eval_transfer_factored`] against a cached factor;
//! - a sparse evaluator ([`SparseTransferEvaluator`]) that analyses the
//!   `G + sC` pattern once and runs one sparse complex LU per frequency —
//!   the only route that scales to full models with `n ≫ 10⁴` states.
//!
//! There used to be a third: a Hessenberg reduction of `−C⁻¹G` for an
//! exactly diagonal positive `C`, `O(n²)` per frequency afterwards. It
//! went because nothing reached it — a projected `C_r = VᵀCV` always
//! carries round-off off-diagonals, so none of 246 instrumented ROM-side
//! sweeps (three benchmark workloads and the test suite) took it — and
//! where a test did hand it a full 500-state model, the one-time reduction
//! cost more than the twelve zero-skipping LUs it replaced
//! (`sparse_e2e` 1.94 → 1.43 s without it).

use bdsm_linalg::{Complex64, LinalgError, Matrix, Result};
use bdsm_sparse::{CscMatrix, LuWorkspace, ShiftedPencil};
use std::ops::{Index, IndexMut};

/// A small dense complex matrix (row-major), used for transfer samples.
#[derive(Debug, Clone, PartialEq)]
pub struct CMatrix {
    nrows: usize,
    ncols: usize,
    data: Vec<Complex64>,
}

impl CMatrix {
    /// Creates an `nrows × ncols` zero matrix.
    pub fn zeros(nrows: usize, ncols: usize) -> Self {
        CMatrix {
            nrows,
            ncols,
            data: vec![Complex64::ZERO; nrows * ncols],
        }
    }

    /// Number of rows.
    #[inline]
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    #[inline]
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Entry-wise difference `self − rhs`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] when shapes differ.
    pub fn sub(&self, rhs: &CMatrix) -> Result<CMatrix> {
        if (self.nrows, self.ncols) != (rhs.nrows, rhs.ncols) {
            return Err(LinalgError::ShapeMismatch {
                op: "cmatrix-sub",
                lhs: (self.nrows, self.ncols),
                rhs: (rhs.nrows, rhs.ncols),
            });
        }
        let mut out = self.clone();
        for (o, r) in out.data.iter_mut().zip(&rhs.data) {
            *o -= *r;
        }
        Ok(out)
    }

    /// Frobenius norm.
    pub fn norm_fro(&self) -> f64 {
        self.data.iter().map(|z| z.abs_sq()).sum::<f64>().sqrt()
    }
}

impl Index<(usize, usize)> for CMatrix {
    type Output = Complex64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &Complex64 {
        debug_assert!(i < self.nrows && j < self.ncols);
        &self.data[i * self.ncols + j]
    }
}

impl IndexMut<(usize, usize)> for CMatrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut Complex64 {
        debug_assert!(i < self.nrows && j < self.ncols);
        &mut self.data[i * self.ncols + j]
    }
}

/// Dense complex LU factorization of `G + sC` with partial pivoting.
#[derive(Debug, Clone)]
pub struct ZLu {
    n: usize,
    /// Packed factors, row-major: unit-lower L below, U on/above the diagonal.
    lu: Vec<Complex64>,
    /// Row `i` of the factors came from row `perm[i]` of the input.
    perm: Vec<usize>,
}

impl ZLu {
    /// Factors `A = G + sC` for real matrices `G, C` and complex shift `s`.
    ///
    /// # Errors
    ///
    /// - [`LinalgError::NotSquare`] / [`LinalgError::ShapeMismatch`] on bad
    ///   shapes.
    /// - [`LinalgError::Singular`] if a pivot vanishes (e.g. `s` hits a
    ///   generalized eigenvalue of the pencil) or is NaN.
    pub fn factor_shifted(g: &Matrix, c: &Matrix, s: Complex64) -> Result<Self> {
        if !g.is_square() {
            return Err(LinalgError::NotSquare { shape: g.shape() });
        }
        if c.shape() != g.shape() {
            return Err(LinalgError::ShapeMismatch {
                op: "zlu-shift",
                lhs: g.shape(),
                rhs: c.shape(),
            });
        }
        let n = g.nrows();
        let _span = bdsm_obs::span!("lu.factor", n = n, backend = "dense-z");
        let mut lu: Vec<Complex64> = Vec::with_capacity(n * n);
        for i in 0..n {
            for j in 0..n {
                lu.push(Complex64::from_real(g[(i, j)]) + s * c[(i, j)]);
            }
        }
        let mut perm: Vec<usize> = (0..n).collect();
        for k in 0..n {
            let mut piv = k;
            let mut pmax = lu[k * n + k].abs_sq();
            for i in (k + 1)..n {
                let v = lu[i * n + k].abs_sq();
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
                for j in 0..n {
                    lu.swap(k * n + j, piv * n + j);
                }
            }
            let inv_piv = lu[k * n + k].recip();
            for i in (k + 1)..n {
                let lik = lu[i * n + k] * inv_piv;
                lu[i * n + k] = lik;
                if lik.abs_sq() != 0.0 {
                    for j in (k + 1)..n {
                        let u = lu[k * n + j];
                        lu[i * n + j] -= lik * u;
                    }
                }
            }
        }
        Ok(ZLu { n, lu, perm })
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Solves `(G + sC) x = b` for a complex right-hand side.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] on a length mismatch.
    #[allow(clippy::needless_range_loop)] // triangular substitution reads clearest indexed
    pub fn solve(&self, b: &[Complex64]) -> Result<Vec<Complex64>> {
        let n = self.n;
        if b.len() != n {
            return Err(LinalgError::ShapeMismatch {
                op: "zlu-solve",
                lhs: (n, n),
                rhs: (b.len(), 1),
            });
        }
        let mut x: Vec<Complex64> = self.perm.iter().map(|&p| b[p]).collect();
        for i in 1..n {
            let mut s = x[i];
            for j in 0..i {
                s -= self.lu[i * n + j] * x[j];
            }
            x[i] = s;
        }
        for i in (0..n).rev() {
            let mut s = x[i];
            for j in (i + 1)..n {
                s -= self.lu[i * n + j] * x[j];
            }
            x[i] = s / self.lu[i * n + i];
        }
        Ok(x)
    }

    /// Solves with a real right-hand side.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] on a length mismatch.
    pub fn solve_real(&self, b: &[f64]) -> Result<Vec<Complex64>> {
        let zb: Vec<Complex64> = b.iter().map(|&v| Complex64::from_real(v)).collect();
        self.solve(&zb)
    }
}

/// Evaluates `H(s) = L (G + sC)⁻¹ B` with a fresh complex LU factorization.
///
/// # Errors
///
/// Propagates shape and singularity errors from [`ZLu`].
pub fn eval_transfer(
    g: &Matrix,
    c: &Matrix,
    b: &Matrix,
    l: &Matrix,
    s: Complex64,
) -> Result<CMatrix> {
    check_descriptor_shapes(g, c, b, l)?;
    let lu = ZLu::factor_shifted(g, c, s)?;
    eval_transfer_factored(&lu, b, l)
}

/// Evaluates `H = L A⁻¹ B` against an already-factored `A = G + sC` — the
/// amortized shape of the ROM query layer, where one cached [`ZLu`] serves
/// many port responses at the same shift. [`eval_transfer`] runs through
/// this routine, so cached and freshly-factored evaluations are
/// bitwise-identical.
///
/// # Errors
///
/// Returns [`LinalgError::ShapeMismatch`] when `B`/`L` do not match the
/// factored dimension.
pub fn eval_transfer_factored(lu: &ZLu, b: &Matrix, l: &Matrix) -> Result<CMatrix> {
    if b.nrows() != lu.dim() || l.ncols() != lu.dim() {
        return Err(LinalgError::ShapeMismatch {
            op: "eval-transfer-factored",
            lhs: (lu.dim(), lu.dim()),
            rhs: (b.nrows(), l.ncols()),
        });
    }
    let x: Vec<Vec<Complex64>> = (0..b.ncols())
        .map(|j| lu.solve_real(&b.col(j)))
        .collect::<Result<_>>()?;
    Ok(output_sample(l, x.len(), x.iter().map(Vec::as_slice)))
}

fn check_descriptor_shapes(g: &Matrix, c: &Matrix, b: &Matrix, l: &Matrix) -> Result<()> {
    let n = g.nrows();
    if !g.is_square() {
        return Err(LinalgError::NotSquare { shape: g.shape() });
    }
    if c.shape() != (n, n) || b.nrows() != n || l.ncols() != n {
        return Err(LinalgError::InvalidArgument {
            what: "descriptor shapes inconsistent: need G,C n×n, B n×m, L p×n",
        });
    }
    Ok(())
}

/// Evaluates `H(jω)` of a dense descriptor at each angular frequency —
/// one [`eval_transfer`] per sample, fanned out over [`crate::par`]
/// workers (each sample is an independent factorization, so the result is
/// bitwise-identical for any worker count).
///
/// # Errors
///
/// Returns shape errors for inconsistent descriptor matrices and
/// propagates the first evaluation failure (in frequency order).
pub fn eval_jomega_sweep(
    g: &Matrix,
    c: &Matrix,
    b: &Matrix,
    l: &Matrix,
    omegas: &[f64],
) -> Result<Vec<CMatrix>> {
    check_descriptor_shapes(g, c, b, l)?;
    crate::par::parallel_map(omegas, |_, &w| {
        let _s = bdsm_obs::span!("sweep.freq", omega = w, backend = "dense");
        eval_transfer(g, c, b, l, Complex64::jomega(w))
    })
    .into_iter()
    .collect()
}

/// Sparse full-model evaluator of `H(s) = L (G + sC)⁻¹ B`.
///
/// Construction builds the shifted pencil once (pattern union of `G` and
/// `C` plus a fill-reducing ordering); every [`eval`](Self::eval) is a
/// numeric sparse complex refactorization and `m` triangular solves. This
/// is the full-model path for grids far beyond the dense ceiling.
pub struct SparseTransferEvaluator {
    pencil: ShiftedPencil,
    /// `B` (`n × m`) packed as a column-major panel: each frequency sample
    /// runs one blocked multi-RHS triangular pass over all inputs at once.
    b_panel: Vec<f64>,
    /// Number of inputs `m`.
    m: usize,
    l: Matrix,
}

impl SparseTransferEvaluator {
    /// Builds the evaluator from sparse `G`, `C` and dense (thin) `B`, `L`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NotSquare`] / [`LinalgError::ShapeMismatch`]
    /// for an inconsistent `G`/`C` pair and
    /// [`LinalgError::InvalidArgument`] when `B`/`L` do not match them.
    pub fn new(g: &CscMatrix<f64>, c: &CscMatrix<f64>, b: Matrix, l: Matrix) -> Result<Self> {
        Self::from_pencil(ShiftedPencil::new(g, c)?, b, l)
    }

    /// Builds the evaluator over an already-analysed pencil of `G + sC` —
    /// the staged engine's Plan owns one, so certifying against it pays no
    /// second symbolic analysis.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::InvalidArgument`] when `B`/`L` do not match
    /// the pencil's dimension.
    pub fn from_pencil(pencil: ShiftedPencil, b: Matrix, l: Matrix) -> Result<Self> {
        let n = pencil.dim();
        if b.nrows() != n || l.ncols() != n {
            return Err(LinalgError::InvalidArgument {
                what: "descriptor shapes inconsistent: need G,C n×n, B n×m, L p×n",
            });
        }
        let mut b_panel = Vec::with_capacity(n * b.ncols());
        for j in 0..b.ncols() {
            b_panel.extend_from_slice(&b.col(j));
        }
        Ok(SparseTransferEvaluator {
            pencil,
            b_panel,
            m: b.ncols(),
            l,
        })
    }

    /// State dimension `n`.
    pub fn dim(&self) -> usize {
        self.pencil.dim()
    }

    /// Evaluates `H(s)` (`p × m`).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Singular`] if `s` is a pole of the model.
    pub fn eval(&self, s: Complex64) -> Result<CMatrix> {
        self.eval_with(s, &mut LuWorkspace::new())
    }

    /// Evaluates `H(s)` reusing a caller-owned factorization workspace —
    /// the allocation-free shape of a frequency sweep. All `m` inputs go
    /// through one blocked multi-RHS solve
    /// ([`bdsm_sparse::SparseLu::solve_multi`]), which traverses the
    /// factors once instead of once per port.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Singular`] if `s` is a pole of the model.
    pub fn eval_with(&self, s: Complex64, ws: &mut LuWorkspace<Complex64>) -> Result<CMatrix> {
        let lu = self.pencil.factor_complex_with(s, ws)?;
        let (n, m) = (self.dim(), self.m);
        if m == 0 {
            return Ok(CMatrix::zeros(self.l.nrows(), 0));
        }
        let x = lu.solve_multi_real(&self.b_panel, m)?;
        Ok(output_sample(&self.l, m, x.chunks(n.max(1))))
    }

    /// Evaluates `H(jω)` at each angular frequency — one sparse numeric
    /// refactorization per sample, fanned out over [`crate::par`] workers
    /// that each reuse a private [`LuWorkspace`].
    ///
    /// # Errors
    ///
    /// Propagates the first evaluation failure (in frequency order).
    pub fn eval_jomega_sweep(&self, omegas: &[f64]) -> Result<Vec<CMatrix>> {
        crate::par::parallel_map_with(omegas, LuWorkspace::new, |ws, _, &w| {
            let _s = bdsm_obs::span!("sweep.freq", omega = w, backend = "sparse");
            self.eval_with(Complex64::jomega(w), ws)
        })
        .into_iter()
        .collect()
    }
}

/// `H = L·X` for the `m` solution columns of `(G + sC) X = B` — the one
/// accumulation order (`acc += xᵢ·lᵢ` along each output row) behind every
/// evaluator here and the Krylov start block, so a full-model sample taken
/// from the sparse evaluator or from the recurrence is the same bits.
pub(crate) fn output_sample<'a>(
    l: &Matrix,
    m: usize,
    cols: impl Iterator<Item = &'a [Complex64]>,
) -> CMatrix {
    let mut h = CMatrix::zeros(l.nrows(), m);
    for (j, xj) in cols.enumerate() {
        for i in 0..l.nrows() {
            let mut acc = Complex64::ZERO;
            for (lv, xv) in l.row(i).iter().zip(xj) {
                acc += *xv * *lv;
            }
            h[(i, j)] = acc;
        }
    }
    h
}

/// Relative error `‖H_full − H_red‖_F / ‖H_full‖_F` of one frequency sample.
pub fn transfer_rel_err(h_full: &CMatrix, h_red: &CMatrix) -> f64 {
    let denom = h_full.norm_fro().max(f64::MIN_POSITIVE);
    match h_full.sub(h_red) {
        Ok(diff) => diff.norm_fro() / denom,
        Err(_) => f64::INFINITY,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scalar_rc() -> (Matrix, Matrix, Matrix, Matrix) {
        // One-state RC: H(s) = 1 / (g + s c).
        let g = Matrix::from_rows(&[&[2.0]]);
        let c = Matrix::from_rows(&[&[0.5]]);
        let b = Matrix::from_rows(&[&[1.0]]);
        let l = Matrix::from_rows(&[&[1.0]]);
        (g, c, b, l)
    }

    #[test]
    fn scalar_model_matches_closed_form() {
        let (g, c, b, l) = scalar_rc();
        let s = Complex64::jomega(3.0);
        let h = eval_transfer(&g, &c, &b, &l, s).unwrap();
        let expected = (Complex64::from_real(2.0) + s * 0.5).recip();
        assert!((h[(0, 0)] - expected).abs() < 1e-15);
    }

    #[test]
    fn zlu_solves_complex_system() {
        let g = Matrix::from_rows(&[&[3.0, 1.0], &[1.0, 2.0]]);
        let c = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 4.0]]);
        let s = Complex64::new(0.5, 2.0);
        let lu = ZLu::factor_shifted(&g, &c, s).unwrap();
        assert_eq!(lu.dim(), 2);
        let b = [Complex64::new(1.0, -1.0), Complex64::new(0.0, 2.0)];
        let x = lu.solve(&b).unwrap();
        // Residual check: (G + sC) x == b.
        for i in 0..2 {
            let mut acc = Complex64::ZERO;
            for j in 0..2 {
                acc += (Complex64::from_real(g[(i, j)]) + s * c[(i, j)]) * x[j];
            }
            assert!((acc - b[i]).abs() < 1e-13);
        }
    }

    #[test]
    fn zlu_detects_singular_pencil() {
        // G = 0, C = I, s = 0 → A = 0.
        let g = Matrix::zeros(2, 2);
        let c = Matrix::identity(2);
        assert!(matches!(
            ZLu::factor_shifted(&g, &c, Complex64::ZERO),
            Err(LinalgError::Singular { .. })
        ));
    }

    #[test]
    fn zlu_rejects_a_nan_pivot() {
        let mut g = Matrix::from_rows(&[&[2.0, 1.0, 0.0], &[1.0, 3.0, 1.0], &[0.0, 1.0, 4.0]]);
        g[(1, 1)] = f64::NAN;
        assert!(matches!(
            ZLu::factor_shifted(&g, &Matrix::identity(3), Complex64::jomega(1.0)),
            Err(LinalgError::Singular { at: 1 })
        ));
    }

    #[test]
    fn sparse_evaluator_matches_dense_paths() {
        let n = 15;
        let g = Matrix::from_fn(n, n, |i, j| {
            if i == j {
                2.0 + 0.3 * i as f64
            } else if i.abs_diff(j) == 1 {
                -0.8
            } else {
                0.0
            }
        });
        let c = Matrix::from_fn(
            n,
            n,
            |i, j| if i == j { 1e-3 * (1.0 + i as f64) } else { 0.0 },
        );
        let b = Matrix::from_fn(n, 2, |i, j| if i == j * (n - 1) { 1.0 } else { 0.0 });
        let l = b.transpose();
        let ev = SparseTransferEvaluator::new(
            &CscMatrix::from_dense(&g, 0.0),
            &CscMatrix::from_dense(&c, 0.0),
            b.clone(),
            l.clone(),
        )
        .unwrap();
        assert_eq!(ev.dim(), n);
        let sweeps = ev.eval_jomega_sweep(&[10.0, 100.0, 1000.0]).unwrap();
        for (k, &w) in [10.0, 100.0, 1000.0].iter().enumerate() {
            let dense = eval_transfer(&g, &c, &b, &l, Complex64::jomega(w)).unwrap();
            let rel = transfer_rel_err(&dense, &sweeps[k]);
            assert!(rel < 1e-12, "sparse/dense paths disagree at ω={w}: {rel}");
        }
    }

    #[test]
    fn sparse_evaluator_rejects_bad_shapes() {
        let g = CscMatrix::from_dense(&Matrix::identity(3), 0.0);
        let c = CscMatrix::from_dense(&Matrix::identity(3), 0.0);
        let b = Matrix::zeros(2, 1);
        let l = Matrix::zeros(1, 3);
        assert!(SparseTransferEvaluator::new(&g, &c, b, l).is_err());
        let c4 = CscMatrix::from_dense(&Matrix::identity(4), 0.0);
        assert!(
            SparseTransferEvaluator::new(&g, &c4, Matrix::zeros(3, 1), Matrix::zeros(1, 3))
                .is_err()
        );
    }

    #[test]
    fn sweep_evaluates_every_frequency() {
        let (g, c, b, l) = scalar_rc();
        let hs = eval_jomega_sweep(&g, &c, &b, &l, &[1.0, 2.0, 4.0]).unwrap();
        assert_eq!(hs.len(), 3);
        // |H| decreases with frequency for a one-pole lowpass.
        assert!(hs[0][(0, 0)].abs() > hs[2][(0, 0)].abs());
    }

    #[test]
    fn rel_err_zero_for_identical_samples() {
        let (g, c, b, l) = scalar_rc();
        let h = eval_transfer(&g, &c, &b, &l, Complex64::jomega(1.0)).unwrap();
        assert_eq!(transfer_rel_err(&h, &h.clone()), 0.0);
    }
}
