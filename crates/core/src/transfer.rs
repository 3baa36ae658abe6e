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
//! [`ZLu`] is the per-query cost of a served ROM: every cache miss, every
//! open's first answer and every ROM-side sweep of the adaptive rounds and
//! the certificate factors `G_r + sC_r` once, and every sample — cache hit
//! or not — substitutes all `m` inputs in one [`ZLu::solve_multi`] pass.
//! It stores the factors as split real/imaginary `f64` blocks so the
//! trailing update vectorises, skips the row update of every exactly-zero
//! multiplier (`Σ_k nnz(L col k)·(q−k−1)` complex multiply-adds: 4.62 M of
//! a dense 20.9 M on the `q = 398` mesh ROM), and produces the same bits as
//! the textbook row-major elimination — see its rustdoc for the layout and
//! the contract.
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
use std::ops::{Index, IndexMut, Range};

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

    /// Frobenius norm. `sqrt(Σ|z|²)` whenever that sum is a normal
    /// number; when it under- or overflows, the entries are rescaled by
    /// the largest `|re|` / `|im|` first, as `vector::norm2` does, so a
    /// uniformly scaled matrix keeps its norm's scale. A NaN entry gives
    /// NaN.
    pub fn norm_fro(&self) -> f64 {
        let sum = self.data.iter().map(|z| z.abs_sq()).sum::<f64>();
        if sum.is_normal() || sum.is_nan() {
            return sum.sqrt();
        }
        let amax = self
            .data
            .iter()
            .fold(0.0_f64, |m, z| m.max(z.re.abs()).max(z.im.abs()));
        if amax == 0.0 || !amax.is_finite() {
            return amax;
        }
        let scaled = self.data.iter().map(|z| {
            let (re, im) = (z.re / amax, z.im / amax);
            re * re + im * im
        });
        amax * scaled.sum::<f64>().sqrt()
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
///
/// **Layout.** One allocation of `2·n²` `f64`: the real parts of the packed
/// factors (row-major; unit-lower `L` below the diagonal, `U` on and above
/// it), then their imaginary parts in the same order. The trailing update
/// `x_ij −= l_ik·u_kj` of step `k` then runs over contiguous row slices as
/// two independent `f64` streams, which the compiler vectorises; an
/// interleaved `Vec<Complex64>` indexed twice per entry does not.
///
/// **Bitwise contract.** Every entry sees the textbook row-major
/// elimination's operations in its order: `G + sC` assembled as
/// `from_real(g) + s·c`, the complex product and difference of
/// [`Complex64`], the pivot as the first largest `|z|²` at or below the
/// diagonal, and the whole row update skipped when `|l_ik|² = 0`. Factors,
/// solves and every reply served from them are the same bits as that loop
/// (`crates/core/tests/lu_parity.rs` keeps it as the oracle).
///
/// **Solves.** [`solve_multi`](Self::solve_multi) is the one substitution
/// routine; [`solve`](Self::solve) and [`solve_real`](Self::solve_real)
/// are its one-column case. It takes the columns of a column-major panel
/// in groups of at most four and keeps a group's solution row-interleaved
/// (`[f64; W]` real parts, `[f64; W]` imaginary parts per row), so the
/// `W` chains `s −= l·x` share every factor entry they read. Each column
/// still runs the textbook substitution alone — `s −= l·x` in ascending
/// column order, then `/ d` — so a multi-column solve is the same bits as
/// solving its columns one by one.
///
/// **Cost model.** Step `k` updates only the rows whose multiplier is
/// nonzero, so the executed complex multiply-adds are
/// `Σ_k nnz(L col k)·(n−k−1)` instead of the dense `Σ_k (n−k−1)²`. On the
/// `n = 10⁴` mesh ROM (`q = 398`, Exact interfaces) that is 4.62 M of
/// 20.9 M, with `L` and `U` 31 % full. A solve reads the `16·n²` factor
/// bytes (2.5 MB at `q = 398`) once per group of up to four columns, where
/// a per-column loop reads them once per column; each column's serial
/// `s −= l·x` chain bounds the time of a pass, so up to four columns cost
/// about what one does.
#[derive(Debug, Clone)]
pub struct ZLu {
    n: usize,
    /// Packed factors: `n²` real parts, then `n²` imaginary parts.
    lu: Vec<f64>,
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
    /// - [`LinalgError::Singular`] if a pivot is exactly zero (e.g. `s`
    ///   hits a generalized eigenvalue of the pencil) or NaN. Tiny pivots
    ///   are not zero: when every candidate's `|z|²` underflows, the pivot
    ///   is chosen by `max(|re|, |im|)` instead.
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
        let nn = n * n;
        let entries = || {
            g.as_slice()
                .iter()
                .zip(c.as_slice())
                .map(|(&gv, &cv)| Complex64::from_real(gv) + s * cv)
        };
        let mut lu: Vec<f64> = Vec::with_capacity(2 * nn);
        lu.extend(entries().map(|z| z.re));
        lu.extend(entries().map(|z| z.im));
        let mut perm: Vec<usize> = (0..n).collect();
        let (re, im) = lu.split_at_mut(nn);
        for k in 0..n {
            let piv = pivot_row(re, im, n, k).ok_or(LinalgError::Singular { at: k })?;
            if piv != k {
                perm.swap(k, piv);
                swap_rows(re, n, k, piv);
                swap_rows(im, n, k, piv);
            }
            // Rows above k + 1 are final; the pivot row is the last of them.
            let (re_done, re_rows) = re.split_at_mut((k + 1) * n);
            let (im_done, im_rows) = im.split_at_mut((k + 1) * n);
            let (ur, ui) = (&re_done[k * n..], &im_done[k * n..]);
            let inv_piv = Complex64::new(ur[k], ui[k]).recip();
            let (ur, ui) = (&ur[k + 1..], &ui[k + 1..]);
            for (xr, xi) in re_rows.chunks_exact_mut(n).zip(im_rows.chunks_exact_mut(n)) {
                let lik = Complex64::new(xr[k], xi[k]) * inv_piv;
                xr[k] = lik.re;
                xi[k] = lik.im;
                if lik.abs_sq() != 0.0 {
                    sub_scaled_row(&mut xr[k + 1..], &mut xi[k + 1..], lik, ur, ui);
                }
            }
        }
        Ok(ZLu { n, lu, perm })
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Solves `(G + sC) x = b` for a complex right-hand side — the
    /// one-column [`solve_multi`](Self::solve_multi).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] on a length mismatch.
    pub fn solve(&self, b: &[Complex64]) -> Result<Vec<Complex64>> {
        self.solve_multi(b, 1)
    }

    /// Solves with a real right-hand side.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] on a length mismatch.
    pub fn solve_real(&self, b: &[f64]) -> Result<Vec<Complex64>> {
        self.solve_multi_real(b, 1)
    }

    /// Solves `(G + sC) X = B` for the `m` columns of a column-major
    /// `n × m` panel, returned in the same layout: groups of up to four
    /// columns per pass over the factors, bitwise-identical to `m`
    /// separate [`solve`](Self::solve)s (see the type's rustdoc).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `m == 0` or
    /// `rhs.len() != n·m`.
    pub fn solve_multi(&self, rhs: &[Complex64], m: usize) -> Result<Vec<Complex64>> {
        let n = self.n;
        if m == 0 || rhs.len() != n * m {
            return Err(LinalgError::ShapeMismatch {
                op: "zlu-solve-multi",
                lhs: (n, m),
                rhs: (rhs.len(), 1),
            });
        }
        let mut x = rhs.to_vec();
        for group in x.chunks_mut((4 * n).max(1)) {
            match group.len() / n.max(1) {
                1 => self.substitute::<1>(group),
                2 => self.substitute::<2>(group),
                3 => self.substitute::<3>(group),
                _ => self.substitute::<4>(group),
            }
        }
        Ok(x)
    }

    /// [`solve_multi`](Self::solve_multi) with a real column-major panel.
    ///
    /// # Errors
    ///
    /// As [`solve_multi`](Self::solve_multi).
    pub fn solve_multi_real(&self, rhs: &[f64], m: usize) -> Result<Vec<Complex64>> {
        let zb: Vec<Complex64> = rhs.iter().map(|&v| Complex64::from_real(v)).collect();
        self.solve_multi(&zb, m)
    }

    /// Both triangular passes over the `W` columns of `cols`, in place.
    fn substitute<const W: usize>(&self, cols: &mut [Complex64]) {
        let n = self.n;
        let (re, im) = self.lu.split_at(n * n);
        let (mut xr, mut xi) = (vec![[0.0; W]; n], vec![[0.0; W]; n]);
        for (k, col) in cols.chunks_exact(n.max(1)).enumerate() {
            for (i, &p) in self.perm.iter().enumerate() {
                (xr[i][k], xi[i][k]) = (col[p].re, col[p].im);
            }
        }
        // `s − Σ_j lu_ij·x_j` over columns `js` of row `i`, in column order,
        // per lane: the `Complex64` product and difference.
        let sub_dot = |i: usize, js: Range<usize>, xr: &[[f64; W]], xi: &[[f64; W]]| {
            let (mut sr, mut si) = (xr[i], xi[i]);
            let row = i * n + js.start..i * n + js.end;
            let x = xr[js.clone()].iter().zip(&xi[js]);
            for ((&lr, &li), (xr, xi)) in re[row.clone()].iter().zip(&im[row]).zip(x) {
                for k in 0..W {
                    sr[k] -= lr * xr[k] - li * xi[k];
                    si[k] -= lr * xi[k] + li * xr[k];
                }
            }
            (sr, si)
        };
        for i in 1..n {
            (xr[i], xi[i]) = sub_dot(i, 0..i, &xr, &xi);
        }
        for i in (0..n).rev() {
            let (sr, si) = sub_dot(i, i + 1..n, &xr, &xi);
            let d = Complex64::new(re[i * n + i], im[i * n + i]);
            for k in 0..W {
                let z = Complex64::new(sr[k], si[k]) / d;
                (xr[i][k], xi[i][k]) = (z.re, z.im);
            }
        }
        for (k, col) in cols.chunks_exact_mut(n.max(1)).enumerate() {
            for (i, z) in col.iter_mut().enumerate() {
                *z = Complex64::new(xr[i][k], xi[i][k]);
            }
        }
    }
}

/// Pivot row for column `k` of the split factors: the first largest `|z|²`
/// at or below the diagonal. When every candidate's `|z|²` underflows to
/// zero (`|z| ≲ 1.5e-162`), the first largest `max(|re|, |im|)` instead —
/// only inputs that would otherwise be refused reach that branch. `None`
/// when the chosen entry is exactly zero or NaN.
fn pivot_row(re: &[f64], im: &[f64], n: usize, k: usize) -> Option<usize> {
    let first_max = |mag: fn(Complex64) -> f64| {
        let (mut piv, mut best) = (k, mag(Complex64::new(re[k * n + k], im[k * n + k])));
        for i in (k + 1)..n {
            let v = mag(Complex64::new(re[i * n + k], im[i * n + k]));
            if v > best {
                (piv, best) = (i, v);
            }
        }
        (piv, best)
    };
    let (mut piv, pmax) = first_max(Complex64::abs_sq);
    if pmax == 0.0 {
        piv = first_max(|z| z.re.abs().max(z.im.abs())).0;
    }
    let (pr, pi) = (re[piv * n + k], im[piv * n + k]);
    let usable = (pr != 0.0 || pi != 0.0) && !pr.is_nan() && !pi.is_nan();
    usable.then_some(piv)
}

/// Swaps rows `k < piv` of a row-major `n`-column block.
fn swap_rows(a: &mut [f64], n: usize, k: usize, piv: usize) {
    let (upper, lower) = a.split_at_mut(piv * n);
    upper[k * n..(k + 1) * n].swap_with_slice(&mut lower[..n]);
}

/// `x −= l·u` entry by entry over split real/imaginary rows — the
/// [`Complex64`] product and difference, written as two `f64` streams.
fn sub_scaled_row(xr: &mut [f64], xi: &mut [f64], l: Complex64, ur: &[f64], ui: &[f64]) {
    for (((xr, xi), &ur), &ui) in xr.iter_mut().zip(xi).zip(ur).zip(ui) {
        *xr -= l.re * ur - l.im * ui;
        *xi -= l.re * ui + l.im * ur;
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
/// many port responses at the same shift. All `m` input columns go through
/// one [`ZLu::solve_multi`] pass, which reads the factor once per group of
/// up to four columns and is bitwise-identical to solving them one by
/// one. [`eval_transfer`] runs through this routine, so cached and
/// freshly-factored evaluations are bitwise-identical.
///
/// # Errors
///
/// Returns [`LinalgError::ShapeMismatch`] when `B`/`L` do not match the
/// factored dimension.
pub fn eval_transfer_factored(lu: &ZLu, b: &Matrix, l: &Matrix) -> Result<CMatrix> {
    let (n, m) = (lu.dim(), b.ncols());
    if b.nrows() != n || l.ncols() != n {
        return Err(LinalgError::ShapeMismatch {
            op: "eval-transfer-factored",
            lhs: (n, n),
            rhs: (b.nrows(), l.ncols()),
        });
    }
    if m == 0 {
        return Ok(CMatrix::zeros(l.nrows(), 0));
    }
    // Bᵀ row-major is B column-major: the n·m panel.
    let x = lu.solve_multi_real(b.transpose().as_slice(), m)?;
    Ok(output_sample(l, m, x.chunks_exact(n.max(1))))
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
/// numeric sparse complex refactorization and one `m`-column
/// [`bdsm_sparse::SparseLu::solve_multi`]. This is the full-model path for
/// grids far beyond the dense ceiling.
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
        Ok(SparseTransferEvaluator {
            pencil,
            b_panel: b.transpose().as_slice().to_vec(),
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
    fn zlu_factors_an_invertible_matrix_of_tiny_entries() {
        // |z|² of every entry underflows to 0; the pivots themselves do not.
        let g = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]).scaled(1e-170);
        let c = Matrix::zeros(2, 2);
        let lu = ZLu::factor_shifted(&g, &c, Complex64::jomega(1.0)).unwrap();
        let b = [3e-170, 4e-170];
        let x = lu.solve_real(&b).unwrap();
        let want = bdsm_linalg::DenseLu::factor(&g).unwrap().solve(&b).unwrap();
        for (x, w) in x.iter().zip(&want) {
            assert!((x.re - w).abs() < 1e-15 && x.im == 0.0, "{x} vs {w}");
        }
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

    #[test]
    fn rel_err_keeps_its_scale_where_the_squared_sum_leaves_range() {
        for (full, red) in [(1e-170, 2e-170), (1e200, 2e200)] {
            let (mut hf, mut hr) = (CMatrix::zeros(1, 1), CMatrix::zeros(1, 1));
            hf[(0, 0)] = Complex64::new(full, 0.0);
            hr[(0, 0)] = Complex64::new(red, 0.0);
            assert_eq!(transfer_rel_err(&hf, &hr), 1.0, "H = {full:e} vs {red:e}");
        }
    }
}
