//! Left-looking sparse LU with partial pivoting — scalar and supernodal
//! numeric kernels — and the shifted pencil `A(s) = G + sC` whose symbolic
//! work and scratch allocations are shared across shifts.
//!
//! The factorization is the Gilbert–Peierls scheme: for each column it
//! computes the reach of the column's pattern through the graph of `L`
//! (symbolic step), eliminates the reached pivots in order (numeric step),
//! and then pivots by threshold partial pivoting with a preference for the
//! diagonal entry of the fill-reducing ordering — keeping the ordering's
//! fill intact unless a pivot is genuinely too small.
//!
//! Two numeric kernels implement the elimination ([`NumericKernel`]):
//!
//! - [`NumericKernel::Scalar`] walks each reached pivot's `L` column as a
//!   scattered axpy — the verification oracle;
//! - [`NumericKernel::Supernodal`] (default) detects **supernodes** —
//!   runs of consecutive pivot columns with identical below-diagonal
//!   structure — as columns complete, packs them into dense column-major
//!   panels, and eliminates whole supernodes at once with the blocked
//!   dense micro-kernels of `bdsm-linalg` (`trsv_unit_lower` on the
//!   diagonal block, `gemm_sub` on the below-panel). On matrices with any
//!   meaningful fill the packed panels turn the indirection-chasing inner
//!   loop into contiguous streams.
//!
//! [`ShiftedPencil`] is the reuse story for the Krylov and transient hot
//! paths: the pattern union of `G` and `C` and its fill-reducing ordering
//! are computed once, after which every shift `s` (real or `jω`) is a pure
//! numeric refactorization. The `factor_*_with` variants additionally
//! recycle a caller-owned [`LuWorkspace`] so a shift sweep performs no
//! per-shift symbolic work **and** no per-shift scratch allocation.

use crate::csc::CscMatrix;
use crate::ordering::{csc_pattern_adjacency, order, order_graph, FillOrdering};
use crate::scalar::Scalar;
use bdsm_linalg::{gemm_sub, trsv_unit_lower, Complex64, LinalgError, Result};

/// Diagonal-preference threshold for partial pivoting: the diagonal entry
/// of the ordered matrix is kept as pivot whenever its magnitude is at
/// least `PIVOT_THRESHOLD` times the column maximum.
const PIVOT_THRESHOLD: f64 = 0.1;

/// Widest supernode the packed panels will grow to. Bounds the dense
/// panel footprint (`rows × cols`) while leaving plenty of room for the
/// fronts that fill-in actually produces on grid matrices.
const SNODE_MAX_COLS: usize = 48;

/// Columns with fewer below-diagonal entries than this never open a
/// supernode: on quasi-1D matrices (ladders, tridiagonals) the packed
/// panels would all be width-1 slivers and the bookkeeping would only be
/// overhead, so those columns stay on the scalar path at zero cost.
const SNODE_MIN_BELOW: usize = 4;

/// `snode_of_step` sentinel for columns that opted out of supernode
/// packing.
const NO_SNODE: usize = usize::MAX;

/// Which numeric elimination kernel [`SparseLu`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum NumericKernel {
    /// Per-pivot scattered axpys over the stored `L` columns. Kept as the
    /// oracle the supernodal kernel is cross-checked against.
    Scalar,
    /// Supernode-packed panels eliminated with blocked dense kernels
    /// (`bdsm_linalg::trsv_unit_lower` + `bdsm_linalg::gemm_sub`).
    #[default]
    Supernodal,
}

/// Reusable scratch for sparse factorizations.
///
/// One workspace serves any number of [`SparseLu::factor_with`] /
/// [`ShiftedPencil::factor_real_with`] / [`ShiftedPencil::factor_complex_with`]
/// calls of the same scalar type; buffers grow to the largest dimension
/// seen and are never shrunk or reallocated between identical-size calls.
/// A workspace is cheap to create, so per-thread workspaces are the
/// intended pattern for multi-shift fan-out.
#[derive(Debug, Clone, Default)]
pub struct LuWorkspace<T: Scalar> {
    /// Dense scatter target for the active column.
    x: Vec<T>,
    /// Stamp-based membership marks for `x`.
    mark: Vec<usize>,
    /// Monotone stamp; survives across calls so `mark` never needs clearing.
    stamp: usize,
    /// Reached rows of the active column (worklist + final pattern).
    pattern: Vec<usize>,
    /// Reached pivot steps of the active column, sorted.
    pivots: Vec<usize>,
    /// Shifted pencil values `G + sC`, assembled in place per shift.
    avals: Vec<T>,
    /// row → position inside the *open* supernode (`usize::MAX` outside).
    snode_pos: Vec<usize>,
    /// Dense gather panel for supernodal updates (`u` block then below block).
    dwork: Vec<T>,
    /// Supernode panel pool: entries `[..snodes_used)` belong to the
    /// current factorization; the rest keep their `rows`/`vals` capacity
    /// from earlier calls so panel packing allocates nothing per shift.
    snodes: Vec<Supernode<T>>,
    /// Entries of `snodes` in use by the current factorization.
    snodes_used: usize,
    /// pivot step → supernode id ([`NO_SNODE`] for opted-out columns).
    snode_of_step: Vec<usize>,
}

impl<T: Scalar> LuWorkspace<T> {
    /// Creates an empty workspace; buffers are sized on first use.
    pub fn new() -> Self {
        Self::default()
    }

    fn ensure(&mut self, n: usize) {
        if self.x.len() < n {
            self.x.resize(n, T::ZERO);
            self.mark.resize(n, 0);
            self.snode_pos.resize(n, usize::MAX);
            self.dwork.resize(n, T::ZERO);
        }
        self.pattern.clear();
        self.pivots.clear();
        self.snode_of_step.clear();
        self.snodes_used = 0;
    }
}

/// One detected supernode: `ncols` consecutive pivot steps (starting at
/// `start`) whose `L` columns share the same below-diagonal row set,
/// packed as a dense column-major panel.
///
/// `rows[0..ncols]` are the pivot rows in step order (the unit-diagonal
/// block), `rows[ncols..]` the shared below-diagonal rows. `vals` is
/// `rows.len() × ncols` column-major; entries above the in-panel diagonal
/// are structural zeros and the diagonal itself is stored as `1`.
#[derive(Debug, Clone, Default)]
struct Supernode<T> {
    start: usize,
    ncols: usize,
    rows: Vec<usize>,
    vals: Vec<T>,
}

/// One supernode panel retained for blocked forward **and** backward
/// substitution: `ncols` consecutive pivot steps (starting at `start`)
/// whose `L` columns share the same below-diagonal row set.
///
/// Forward (`L`) side: `diag` is the `w × w` unit-lower diagonal block,
/// column-major (entries on/above the in-panel diagonal are structural
/// zeros and never read). `below_t` stores `L(below, S)ᵀ`: for each shared
/// below row, its `w` panel values contiguously (`w × below`,
/// column-major, `ld = w`) — the layout the solve's transposed panel GEMM
/// consumes directly. `below_steps` are the below rows as **pivot steps**
/// (all `≥ start + w`), the forward pass's target coordinates.
///
/// Backward (`U`) side, mirroring the same supernode's pivot steps:
/// `udiag` is the `w × w` upper-triangular block of `U` over the panel
/// steps (column-major; diagonal = the pivots, entries below it structural
/// zeros and never read). `above_steps` are the union of the panel
/// columns' above-panel `U` row steps (all `< start`, ascending), and
/// `above_t` stores `U(above, S)` row-contiguously (`w × above`,
/// column-major, `ld = w`; structural zeros where a column has no entry) —
/// the backward pass's transposed panel GEMM operand.
#[derive(Debug, Clone)]
struct SolvePanel<T> {
    start: usize,
    ncols: usize,
    diag: Vec<T>,
    below_steps: Vec<usize>,
    below_t: Vec<T>,
    udiag: Vec<T>,
    above_steps: Vec<usize>,
    above_t: Vec<T>,
}

/// Borrowed CSC parts of the matrix being factored — lets the shifted
/// pencil hand over its union pattern plus freshly assembled values
/// without constructing a `CscMatrix` (and cloning the pattern) per shift.
struct CscView<'a, T> {
    col_ptr: &'a [usize],
    row_idx: &'a [usize],
    values: &'a [T],
}

impl<'a, T> CscView<'a, T> {
    #[inline]
    fn col(&self, j: usize) -> (&'a [usize], &'a [T]) {
        let span = self.col_ptr[j]..self.col_ptr[j + 1];
        (&self.row_idx[span.clone()], &self.values[span])
    }
}

/// The in-progress factorization state shared by the column loop and the
/// supernode bookkeeping.
struct Partial<T> {
    l_cols: Vec<Vec<(usize, T)>>,
    u_cols: Vec<Vec<(usize, T)>>,
    u_diag: Vec<T>,
    prow: Vec<usize>,
    pinv: Vec<usize>,
}

/// Sparse LU factorization `A·Q = Pᵀ·L·U` of a square sparse matrix,
/// with a fill-reducing column ordering `Q` and row pivoting `P`.
#[derive(Debug, Clone)]
pub struct SparseLu<T: Scalar> {
    n: usize,
    /// Below-diagonal entries of each `L` column as `(original row, value)`;
    /// the unit diagonal is implicit.
    l_cols: Vec<Vec<(usize, T)>>,
    /// Above-diagonal entries of each `U` column as `(pivot step k, value)`.
    u_cols: Vec<Vec<(usize, T)>>,
    /// Diagonal of `U`, one pivot per step.
    u_diag: Vec<T>,
    /// `prow[j]` = original row chosen as pivot at step `j`.
    prow: Vec<usize>,
    /// Inverse of `prow`: `pinv[original row]` = pivot step. Kept so
    /// solves (one per Krylov vector / time step / frequency) skip an
    /// `O(n)` rebuild.
    pinv: Vec<usize>,
    /// `q[j]` = original column factored at step `j`.
    q: Vec<usize>,
    /// Supernode panels retained from the (supernodal) factorization, in
    /// ascending `start` order — the blocked fast path of the forward
    /// substitution. Empty for scalar-kernel factorizations.
    panels: Vec<SolvePanel<T>>,
}

impl<T: Scalar> SparseLu<T> {
    /// Factors with the default fill-reducing ordering
    /// ([`FillOrdering::MinFill`]) and the default (supernodal) numeric
    /// kernel.
    ///
    /// # Errors
    ///
    /// - [`LinalgError::NotSquare`] for non-square input;
    /// - [`LinalgError::Singular`] when a column has no usable pivot.
    pub fn factor(a: &CscMatrix<T>) -> Result<Self> {
        Self::factor_ordered(a, FillOrdering::default())
    }

    /// Factors with a caller-chosen ordering kind.
    ///
    /// # Errors
    ///
    /// Same as [`factor`](Self::factor).
    pub fn factor_ordered(a: &CscMatrix<T>, kind: FillOrdering) -> Result<Self> {
        let q = order(a, kind)?;
        Self::factor_with_ordering(a, &q)
    }

    /// Factors using an explicit column ordering `q` (`old_of_new`).
    ///
    /// # Errors
    ///
    /// - [`LinalgError::NotSquare`] / [`LinalgError::InvalidArgument`] on a
    ///   bad shape or a `q` that is not a permutation;
    /// - [`LinalgError::Singular`] when a column has no usable pivot.
    pub fn factor_with_ordering(a: &CscMatrix<T>, q: &[usize]) -> Result<Self> {
        Self::factor_with(a, q, NumericKernel::default(), &mut LuWorkspace::new())
    }

    /// Factors with an explicit ordering, numeric kernel, and reusable
    /// workspace — the fully-parameterized entry point behind every other
    /// `factor_*` constructor.
    ///
    /// # Errors
    ///
    /// Same as [`factor_with_ordering`](Self::factor_with_ordering).
    pub fn factor_with(
        a: &CscMatrix<T>,
        q: &[usize],
        kernel: NumericKernel,
        ws: &mut LuWorkspace<T>,
    ) -> Result<Self> {
        if !a.is_square() {
            return Err(LinalgError::NotSquare { shape: a.shape() });
        }
        let (col_ptr, row_idx, values) = a.parts();
        factor_parts(
            a.nrows(),
            CscView {
                col_ptr,
                row_idx,
                values,
            },
            q,
            kernel,
            ws,
        )
    }

    /// Dimension of the factored matrix.
    #[inline]
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Stored entries in `L` and `U` (including both diagonals) — the
    /// memory proxy used by the scaling benchmarks.
    pub fn factor_nnz(&self) -> usize {
        let l: usize = self.l_cols.iter().map(Vec::len).sum();
        let u: usize = self.u_cols.iter().map(Vec::len).sum();
        l + u + 2 * self.n
    }

    /// Solves `A x = b`.
    ///
    /// Both triangular passes run blocked over the supernode panels
    /// retained from a supernodal factorization (see
    /// [`solve_multi`](Self::solve_multi) for the shared substitutions and
    /// their parity contract); scalar-kernel factorizations walk the
    /// stored `L`/`U` columns as before.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] on a length mismatch.
    pub fn solve(&self, b: &[T]) -> Result<Vec<T>> {
        let n = self.n;
        if b.len() != n {
            return Err(LinalgError::ShapeMismatch {
                op: "sparse-lu-solve",
                lhs: (n, n),
                rhs: (b.len(), 1),
            });
        }
        // y lives in pivot-step coordinates.
        let mut y: Vec<T> = self.prow.iter().map(|&p| b[p]).collect();
        self.forward_substitute(&mut y, 1);
        self.backward_substitute(&mut y, 1);
        // Undo the column ordering.
        let mut out = vec![T::ZERO; n];
        for (j, &xj) in y.iter().enumerate() {
            out[self.q[j]] = xj;
        }
        Ok(out)
    }

    /// Number of supernode panels the triangular substitutions run blocked
    /// over — zero for scalar-kernel factorizations and for quasi-1D
    /// matrices whose columns opted out of packing. Each retained panel
    /// serves both the forward (`L`) and backward (`U`) pass.
    pub fn solve_panel_count(&self) -> usize {
        self.panels.len()
    }

    /// Shared forward pass `L y = y` over an RHS-contiguous buffer (`m`
    /// values per pivot step). Retained supernode panels run blocked —
    /// sequential diagonal-block substitution plus one transposed panel
    /// GEMM over the shared below rows — and every other column walks its
    /// stored `L` entries with the historical zero-skip guard.
    ///
    /// Whether a right-hand side takes a panel's blocked path is decided
    /// **per system** on panel entry (all of its `w` panel components
    /// nonzero), so each system's operation sequence is a pure function of
    /// that system alone. That is the parity contract:
    /// [`solve_multi`](Self::solve_multi) is bitwise-identical to `m`
    /// separate [`solve`](Self::solve)s because both funnel through this
    /// routine and make identical per-system decisions.
    fn forward_substitute(&self, y: &mut [T], m: usize) {
        let n = self.n;
        let pinv = &self.pinv;
        let mut mask: Vec<bool> = Vec::new();
        let mut gathered_b: Vec<T> = Vec::new();
        let mut gathered_c: Vec<T> = Vec::new();
        let mut panels = self.panels.iter().peekable();
        let mut j = 0;
        while j < n {
            if let Some(&p) = panels.peek() {
                if p.start == j {
                    self.forward_panel(p, y, m, &mut mask, &mut gathered_b, &mut gathered_c);
                    j += p.ncols;
                    panels.next();
                    continue;
                }
            }
            if !self.l_cols[j].is_empty() {
                let (head, tail) = y.split_at_mut((j + 1) * m);
                let yj = &head[j * m..];
                // A zero component must be skipped exactly like `solve`
                // historically skipped a zero scalar RHS, so the kernel
                // path is reserved for fully nonzero slices.
                let all_nonzero = yj.iter().all(|v| !v.is_zero());
                for &(r, lv) in &self.l_cols[j] {
                    let t = (pinv[r] - j - 1) * m;
                    let row = &mut tail[t..t + m];
                    if all_nonzero {
                        gemm_sub(1, 1, m, &[lv], 1, yj, 1, row, 1);
                    } else {
                        for (rk, &vk) in row.iter_mut().zip(yj) {
                            if !vk.is_zero() {
                                *rk -= lv * vk;
                            }
                        }
                    }
                }
            }
            j += 1;
        }
    }

    /// One retained panel of the forward pass. Systems whose `w` panel
    /// components are all nonzero on entry commit to the blocked path: the
    /// unit-lower diagonal block is substituted in scalar column order,
    /// then the shared below rows take a single transposed GEMM
    /// `Yᵀ(below) -= Yᵀ(S) · L(below, S)ᵀ` at panel width — whose fused
    /// accumulation consumes the panel columns in the same order for one
    /// system as for any batch, keeping multi- and single-RHS solves
    /// bitwise-identical. Systems with a zero panel component replay the
    /// scalar column walk verbatim (per-component zero-skip included).
    fn forward_panel(
        &self,
        p: &SolvePanel<T>,
        y: &mut [T],
        m: usize,
        mask: &mut Vec<bool>,
        gathered_b: &mut Vec<T>,
        gathered_c: &mut Vec<T>,
    ) {
        let w = p.ncols;
        let base = p.start * m;
        mask.clear();
        mask.resize(m, false);
        let mut e = 0;
        for (k, ok) in mask.iter_mut().enumerate() {
            *ok = (0..w).all(|t| !y[base + t * m + k].is_zero());
            if *ok {
                e += 1;
            }
        }
        if e < m {
            // Scalar replay for the ineligible systems, walking the stored
            // L columns exactly as a standalone solve would.
            for t in 0..w {
                let j = p.start + t;
                for k in (0..m).filter(|&k| !mask[k]) {
                    let yjk = y[j * m + k];
                    if yjk.is_zero() {
                        continue;
                    }
                    for &(r, lv) in &self.l_cols[j] {
                        y[self.pinv[r] * m + k] -= lv * yjk;
                    }
                }
            }
        }
        if e == 0 {
            return;
        }
        // Diagonal block in scalar column order; the entry commit replaces
        // the per-component zero-skip for the committed systems (part of
        // the shared op-sequence definition).
        for t in 0..w {
            for s in (t + 1)..w {
                let d = p.diag[t * w + s];
                let (head, tail) = y.split_at_mut(base + s * m);
                let yt = &head[base + t * m..base + t * m + m];
                let ys = &mut tail[..m];
                if e == m {
                    gemm_sub(1, 1, m, &[d], 1, yt, 1, ys, 1);
                } else {
                    for (k, (sv, &tv)) in ys.iter_mut().zip(yt).enumerate() {
                        if mask[k] {
                            *sv -= d * tv;
                        }
                    }
                }
            }
        }
        let below = p.below_steps.len();
        if below == 0 {
            return;
        }
        if e == m {
            // The panel block of `y` is already the (m × w) column-major
            // left operand; only the scattered below rows need gathering.
            gathered_c.clear();
            for &bs in &p.below_steps {
                gathered_c.extend_from_slice(&y[bs * m..bs * m + m]);
            }
            gemm_sub(
                m,
                w,
                below,
                &y[base..base + w * m],
                m,
                &p.below_t,
                w,
                gathered_c,
                m,
            );
            for (i, &bs) in p.below_steps.iter().enumerate() {
                y[bs * m..bs * m + m].copy_from_slice(&gathered_c[i * m..(i + 1) * m]);
            }
        } else {
            gathered_b.clear();
            for t in 0..w {
                for k in (0..m).filter(|&k| mask[k]) {
                    gathered_b.push(y[base + t * m + k]);
                }
            }
            gathered_c.clear();
            for &bs in &p.below_steps {
                for k in (0..m).filter(|&k| mask[k]) {
                    gathered_c.push(y[bs * m + k]);
                }
            }
            gemm_sub(e, w, below, gathered_b, e, &p.below_t, w, gathered_c, e);
            let mut idx = 0;
            for &bs in &p.below_steps {
                for k in (0..m).filter(|&k| mask[k]) {
                    y[bs * m + k] = gathered_c[idx];
                    idx += 1;
                }
            }
        }
    }

    /// Shared backward pass `U x = y` over an RHS-contiguous buffer (`m`
    /// values per pivot step), leaving `x` in pivot-step coordinates (the
    /// caller scatters through `q`). Retained supernode panels run blocked
    /// — sequential substitution through the packed upper-triangular block
    /// plus one transposed panel GEMM over the gathered above rows — and
    /// every other step walks its stored `U` entries with the historical
    /// zero-skip guard.
    ///
    /// The per-system commit decision mirrors
    /// [`forward_substitute`](Self::forward_substitute) exactly, so the
    /// solve/solve_multi bitwise-parity contract extends end to end.
    fn backward_substitute(&self, y: &mut [T], m: usize) {
        let n = self.n;
        let mut mask: Vec<bool> = Vec::new();
        let mut gathered_b: Vec<T> = Vec::new();
        let mut gathered_c: Vec<T> = Vec::new();
        let mut panels = self.panels.iter().rev().peekable();
        let mut j = n;
        while j > 0 {
            if let Some(&p) = panels.peek() {
                if p.start + p.ncols == j {
                    self.backward_panel(p, y, m, &mut mask, &mut gathered_b, &mut gathered_c);
                    j = p.start;
                    panels.next();
                    continue;
                }
            }
            j -= 1;
            let (head, tail) = y.split_at_mut(j * m);
            let xj = &mut tail[..m];
            for x in xj.iter_mut() {
                *x = *x / self.u_diag[j];
            }
            if self.u_cols[j].is_empty() {
                continue;
            }
            // A zero component must be skipped exactly like the historical
            // scalar backward walk skipped a zero solution value, so the
            // kernel path is reserved for fully nonzero slices.
            let all_nonzero = xj.iter().all(|v| !v.is_zero());
            for &(k, uv) in &self.u_cols[j] {
                let row = &mut head[k * m..k * m + m];
                if all_nonzero {
                    gemm_sub(1, 1, m, &[uv], 1, xj, 1, row, 1);
                } else {
                    for (rk, &vk) in row.iter_mut().zip(xj.iter()) {
                        if !vk.is_zero() {
                            *rk -= uv * vk;
                        }
                    }
                }
            }
        }
    }

    /// One retained panel of the backward pass. Systems whose `w` panel
    /// components are all nonzero on entry commit to the blocked path: the
    /// upper-triangular block is substituted in scalar (descending) column
    /// order, then the gathered above rows take a single transposed GEMM
    /// `Yᵀ(above) -= Xᵀ(S) · U(above, S)ᵀ` at panel width — whose fused
    /// accumulation consumes the panel columns in the same order for one
    /// system as for any batch, keeping multi- and single-RHS solves
    /// bitwise-identical. Systems with a zero panel component replay the
    /// scalar step walk verbatim (per-component zero-skip included).
    fn backward_panel(
        &self,
        p: &SolvePanel<T>,
        y: &mut [T],
        m: usize,
        mask: &mut Vec<bool>,
        gathered_b: &mut Vec<T>,
        gathered_c: &mut Vec<T>,
    ) {
        let w = p.ncols;
        let base = p.start * m;
        mask.clear();
        mask.resize(m, false);
        let mut e = 0;
        for (k, ok) in mask.iter_mut().enumerate() {
            *ok = (0..w).all(|t| !y[base + t * m + k].is_zero());
            if *ok {
                e += 1;
            }
        }
        if e < m {
            // Scalar replay for the ineligible systems, walking the stored
            // U entries exactly as a standalone solve would.
            for t in (0..w).rev() {
                let j = p.start + t;
                for k in (0..m).filter(|&k| !mask[k]) {
                    let xjk = y[j * m + k] / self.u_diag[j];
                    y[j * m + k] = xjk;
                    if xjk.is_zero() {
                        continue;
                    }
                    for &(kstep, uv) in &self.u_cols[j] {
                        y[kstep * m + k] -= uv * xjk;
                    }
                }
            }
        }
        if e == 0 {
            return;
        }
        // Upper-triangular block in scalar (descending) column order; the
        // entry commit replaces the per-component zero-skip for the
        // committed systems (part of the shared op-sequence definition).
        for t in (0..w).rev() {
            let j = p.start + t;
            {
                let xt = &mut y[base + t * m..base + (t + 1) * m];
                if e == m {
                    for x in xt.iter_mut() {
                        *x = *x / self.u_diag[j];
                    }
                } else {
                    for (k, x) in xt.iter_mut().enumerate() {
                        if mask[k] {
                            *x = *x / self.u_diag[j];
                        }
                    }
                }
            }
            for s in 0..t {
                let d = p.udiag[t * w + s];
                let (head, tail) = y.split_at_mut(base + t * m);
                let xt = &tail[..m];
                let ys = &mut head[base + s * m..base + s * m + m];
                if e == m {
                    gemm_sub(1, 1, m, &[d], 1, xt, 1, ys, 1);
                } else {
                    for (k, (sv, &tv)) in ys.iter_mut().zip(xt).enumerate() {
                        if mask[k] {
                            *sv -= d * tv;
                        }
                    }
                }
            }
        }
        let above = p.above_steps.len();
        if above == 0 {
            return;
        }
        if e == m {
            // The panel block of `y` is already the (m × w) column-major
            // left operand; only the scattered above rows need gathering.
            gathered_c.clear();
            for &us in &p.above_steps {
                gathered_c.extend_from_slice(&y[us * m..us * m + m]);
            }
            gemm_sub(
                m,
                w,
                above,
                &y[base..base + w * m],
                m,
                &p.above_t,
                w,
                gathered_c,
                m,
            );
            for (i, &us) in p.above_steps.iter().enumerate() {
                y[us * m..us * m + m].copy_from_slice(&gathered_c[i * m..(i + 1) * m]);
            }
        } else {
            gathered_b.clear();
            for t in 0..w {
                for k in (0..m).filter(|&k| mask[k]) {
                    gathered_b.push(y[base + t * m + k]);
                }
            }
            gathered_c.clear();
            for &us in &p.above_steps {
                for k in (0..m).filter(|&k| mask[k]) {
                    gathered_c.push(y[us * m + k]);
                }
            }
            gemm_sub(e, w, above, gathered_b, e, &p.above_t, w, gathered_c, e);
            let mut idx = 0;
            for &us in &p.above_steps {
                for k in (0..m).filter(|&k| mask[k]) {
                    y[us * m + k] = gathered_c[idx];
                    idx += 1;
                }
            }
        }
    }

    /// Solves with a real right-hand side (embedding into `T`).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] on a length mismatch.
    pub fn solve_real(&self, b: &[f64]) -> Result<Vec<T>> {
        let tb: Vec<T> = b.iter().map(|&v| T::from_real(v)).collect();
        self.solve(&tb)
    }

    /// Solves `A X = B` for `m` right-hand sides at once, over column-major
    /// `n × m` panels — the blocked shape of Krylov start blocks and
    /// multi-port transfer samples.
    ///
    /// The panel is transposed into RHS-contiguous layout so both
    /// triangular passes traverse the `L`/`U` index structure **once** for
    /// all `m` systems. Both passes additionally run **blocked over the
    /// retained supernode panels**: the packed triangular block is
    /// substituted in place and the shared below (forward) / above
    /// (backward) rows take one [`bdsm_linalg::gemm_sub`] panel update of
    /// width `w × m` instead of `w` scattered column walks. Each system
    /// performs exactly the
    /// floating-point operations a standalone [`solve`](Self::solve) would
    /// perform, in the same order — both entry points share one
    /// substitution routine and make identical per-system path decisions —
    /// so `solve_multi` is bitwise-identical to `m` separate solves (a
    /// property the reduction engine's determinism relies on).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `rhs.len() != n·m` or
    /// `m == 0`.
    pub fn solve_multi(&self, rhs: &[T], m: usize) -> Result<Vec<T>> {
        let n = self.n;
        if m == 0 || rhs.len() != n * m {
            return Err(LinalgError::ShapeMismatch {
                op: "sparse-lu-solve-multi",
                lhs: (n, m),
                rhs: (rhs.len(), 1),
            });
        }
        let _s = bdsm_obs::span!("lu.solve", n = n, rhs = m);
        // RHS-contiguous scratch: the m values of pivot step j live at
        // y[j*m .. (j+1)*m], permuted into pivot order up front.
        let mut y = vec![T::ZERO; n * m];
        for j in 0..n {
            let src = self.prow[j];
            for k in 0..m {
                y[j * m + k] = rhs[k * n + src];
            }
        }
        self.forward_substitute(&mut y, m);
        self.backward_substitute(&mut y, m);
        // Undo the column ordering.
        let mut out = vec![T::ZERO; n * m];
        for j in 0..n {
            let qj = self.q[j];
            for k in 0..m {
                out[k * n + qj] = y[j * m + k];
            }
        }
        Ok(out)
    }

    /// [`solve_multi`](Self::solve_multi) with a real column-major panel
    /// (embedding into `T`).
    ///
    /// # Errors
    ///
    /// Same as [`solve_multi`](Self::solve_multi).
    pub fn solve_multi_real(&self, rhs: &[f64], m: usize) -> Result<Vec<T>> {
        let tb: Vec<T> = rhs.iter().map(|&v| T::from_real(v)).collect();
        self.solve_multi(&tb, m)
    }
}

/// Factors a matrix given as raw CSC parts. Validates the ordering, runs
/// the column loop, and — success or failure — leaves the workspace clean
/// for reuse.
fn factor_parts<T: Scalar>(
    n: usize,
    a: CscView<'_, T>,
    q: &[usize],
    kernel: NumericKernel,
    ws: &mut LuWorkspace<T>,
) -> Result<SparseLu<T>> {
    if q.len() != n || !is_permutation(q, n) {
        return Err(LinalgError::InvalidArgument {
            what: "sparse-lu: column ordering is not a permutation",
        });
    }
    let mut span = bdsm_obs::span!("lu.factor", n = n);
    ws.ensure(n);
    let mut st = Partial {
        l_cols: Vec::with_capacity(n),
        u_cols: Vec::with_capacity(n),
        u_diag: Vec::with_capacity(n),
        prow: vec![usize::MAX; n],
        pinv: vec![usize::MAX; n],
    };
    let res = factor_columns(n, &a, q, kernel, ws, &mut st);
    // The open supernode's row→position scratch must be cleared on *every*
    // exit path (including Singular), or the next factorization through
    // this workspace would read stale positions.
    if ws.snodes_used > 0 {
        for &r in &ws.snodes[ws.snodes_used - 1].rows {
            ws.snode_pos[r] = usize::MAX;
        }
    }
    res?;
    // Retain the supernodes (width ≥ 2) as solve panels: the `L` diagonal
    // block verbatim, the below block transposed into the row-contiguous
    // layout the forward pass's panel GEMM reads, the below rows mapped to
    // their (now final) pivot steps — and the matching `U` panel (packed
    // upper-triangular block plus the gathered above rows) so the backward
    // pass runs blocked over the same pivot steps.
    let mut panels = Vec::new();
    for sn in &ws.snodes[..ws.snodes_used] {
        if sn.ncols < 2 {
            continue;
        }
        let (w, nr) = (sn.ncols, sn.rows.len());
        let below = nr - w;
        let mut diag = vec![T::ZERO; w * w];
        for t in 0..w {
            diag[t * w + t..(t + 1) * w].copy_from_slice(&sn.vals[t * nr + t..t * nr + w]);
        }
        let mut below_steps = Vec::with_capacity(below);
        let mut below_t = vec![T::ZERO; w * below];
        for i in 0..below {
            below_steps.push(st.pinv[sn.rows[w + i]]);
            for t in 0..w {
                below_t[i * w + t] = sn.vals[t * nr + w + i];
            }
        }
        // Upper side: `u_cols` already stores targets as pivot steps, so
        // the panel's U structure splits by step against `sn.start`.
        let mut udiag = vec![T::ZERO; w * w];
        let mut above_steps: Vec<usize> = Vec::new();
        for t in 0..w {
            let j = sn.start + t;
            udiag[t * w + t] = st.u_diag[j];
            for &(k, uv) in &st.u_cols[j] {
                if k >= sn.start {
                    udiag[t * w + (k - sn.start)] = uv;
                } else {
                    above_steps.push(k);
                }
            }
        }
        above_steps.sort_unstable();
        above_steps.dedup();
        let mut above_t = vec![T::ZERO; w * above_steps.len()];
        for t in 0..w {
            for &(k, uv) in &st.u_cols[sn.start + t] {
                if k < sn.start {
                    let i = above_steps
                        .binary_search(&k)
                        .expect("above step collected above");
                    above_t[i * w + t] = uv;
                }
            }
        }
        panels.push(SolvePanel {
            start: sn.start,
            ncols: w,
            diag,
            below_steps,
            below_t,
            udiag,
            above_steps,
            above_t,
        });
    }
    let lu = SparseLu {
        n,
        l_cols: st.l_cols,
        u_cols: st.u_cols,
        u_diag: st.u_diag,
        prow: st.prow,
        pinv: st.pinv,
        q: q.to_vec(),
        panels,
    };
    let count_metrics = bdsm_obs::enabled(bdsm_obs::ObsLevel::Timings);
    if count_metrics || span.is_recording() {
        let nnz = lu.factor_nnz();
        span.attr("nnz", nnz);
        span.attr("panels", lu.panels.len());
        if count_metrics {
            let m = bdsm_obs::metrics();
            m.lu_factorizations.inc();
            m.lu_supernode_panels.add(lu.panels.len() as u64);
            m.factor_nnz.set(nnz as u64);
        }
    }
    Ok(lu)
}

/// The Gilbert–Peierls column loop: symbolic reach, numeric elimination
/// (scalar or supernodal), threshold pivoting, and supernode maintenance.
fn factor_columns<T: Scalar>(
    n: usize,
    a: &CscView<'_, T>,
    q: &[usize],
    kernel: NumericKernel,
    ws: &mut LuWorkspace<T>,
    st: &mut Partial<T>,
) -> Result<()> {
    for j in 0..n {
        let aj = q[j];
        ws.stamp += 1;
        let stamp = ws.stamp;
        // Symbolic: scatter A[:, q[j]] and close the pattern over L.
        // Every reached row that is already pivotal injects its L column
        // (the classic reach-in-the-graph-of-L step); processing the
        // pattern as a worklist computes the transitive closure.
        ws.pattern.clear();
        let (rows, vals) = a.col(aj);
        for (&r, &v) in rows.iter().zip(vals) {
            ws.x[r] = v;
            ws.mark[r] = stamp;
            ws.pattern.push(r);
        }
        let mut idx = 0;
        while idx < ws.pattern.len() {
            let r = ws.pattern[idx];
            idx += 1;
            let k = st.pinv[r];
            if k != usize::MAX {
                for &(r2, _) in &st.l_cols[k] {
                    if ws.mark[r2] != stamp {
                        ws.mark[r2] = stamp;
                        ws.x[r2] = T::ZERO;
                        ws.pattern.push(r2);
                    }
                }
            }
        }

        // Numeric: eliminate reached pivots in increasing step order.
        ws.pivots.clear();
        for &r in &ws.pattern {
            if st.pinv[r] != usize::MAX {
                ws.pivots.push(st.pinv[r]);
            }
        }
        ws.pivots.sort_unstable();
        match kernel {
            NumericKernel::Scalar => {
                eliminate_scalar(&mut ws.x, &st.l_cols, &st.prow, &ws.pivots);
            }
            NumericKernel::Supernodal => {
                eliminate_supernodal(ws, &st.l_cols, &st.prow);
            }
        }

        // Pivot: largest magnitude among unpivoted rows, but keep the
        // ordering's diagonal when it is within PIVOT_THRESHOLD of it.
        let mut best = usize::MAX;
        let mut best_mag = 0.0f64;
        for &r in &ws.pattern {
            if st.pinv[r] == usize::MAX {
                let mag = ws.x[r].abs_sq();
                if mag > best_mag {
                    best_mag = mag;
                    best = r;
                }
            }
        }
        if best == usize::MAX || best_mag == 0.0 {
            return Err(LinalgError::Singular { at: j });
        }
        let diag_ok = ws.mark[aj] == stamp
            && st.pinv[aj] == usize::MAX
            && ws.x[aj].abs_sq() >= PIVOT_THRESHOLD * PIVOT_THRESHOLD * best_mag;
        let piv_row = if diag_ok { aj } else { best };
        let piv_val = ws.x[piv_row];

        st.u_cols.push(
            ws.pivots
                .iter()
                .filter_map(|&k| {
                    let v = ws.x[st.prow[k]];
                    (!v.is_zero()).then_some((k, v))
                })
                .collect(),
        );
        st.u_diag.push(piv_val);
        st.prow[j] = piv_row;
        st.pinv[piv_row] = j;
        let l_col: Vec<(usize, T)> = ws
            .pattern
            .iter()
            .filter_map(|&r| {
                if r == piv_row || st.pinv[r] != usize::MAX {
                    return None;
                }
                let v = ws.x[r];
                (!v.is_zero()).then_some((r, v / piv_val))
            })
            .collect();
        if kernel == NumericKernel::Supernodal {
            absorb_column(j, piv_row, &l_col, ws);
        }
        st.l_cols.push(l_col);
    }
    Ok(())
}

/// Oracle elimination: one scattered axpy per reached pivot.
fn eliminate_scalar<T: Scalar>(
    x: &mut [T],
    l_cols: &[Vec<(usize, T)>],
    prow: &[usize],
    pivots: &[usize],
) {
    for &k in pivots {
        let ukj = x[prow[k]];
        if ukj.is_zero() {
            continue;
        }
        for &(r2, lv) in &l_cols[k] {
            x[r2] -= lv * ukj;
        }
    }
}

/// Supernodal elimination: reached pivots are grouped by supernode; each
/// group is (provably) a contiguous run ending at its supernode's last
/// column, eliminated as one dense triangular solve plus one panel
/// multiply-subtract. Runs that fail the structural invariant (or are too
/// narrow to benefit) fall back to the scalar axpys.
fn eliminate_supernodal<T: Scalar>(
    ws: &mut LuWorkspace<T>,
    l_cols: &[Vec<(usize, T)>],
    prow: &[usize],
) {
    // Field-level split of the workspace: the panel pool and step map are
    // read while the scatter vector and dense panel are written.
    let LuWorkspace {
        x,
        pivots,
        dwork,
        snodes,
        snode_of_step,
        ..
    } = ws;
    let pivots: &[usize] = pivots;
    let mut idx = 0;
    while idx < pivots.len() {
        let sid = snode_of_step[pivots[idx]];
        let mut end = idx + 1;
        while end < pivots.len() && snode_of_step[pivots[end]] == sid {
            end += 1;
        }
        let run = &pivots[idx..end];
        if sid == NO_SNODE {
            // Columns that opted out of packing eliminate the scalar way.
            eliminate_scalar(x, l_cols, prow, run);
            idx = end;
            continue;
        }
        let sn = &snodes[sid];
        let wr = run.len();
        // Structure guarantees the run is the supernode's trailing columns:
        // any reached column scatters the pivot rows of all later columns
        // in its supernode. Verify cheaply and fall back if violated.
        let contiguous = run[wr - 1] - run[0] + 1 == wr && run[wr - 1] == sn.start + sn.ncols - 1;
        if wr >= 2 && contiguous {
            let kf = run[0];
            let off = kf - sn.start;
            let nr = sn.rows.len();
            let below = nr - sn.ncols;
            // Gather the right-hand side (the nascent U segment) and the
            // below-panel slice of x into the dense workspace.
            let (u, rest) = dwork.split_at_mut(wr);
            for (t, ut) in u.iter_mut().enumerate() {
                *ut = x[prow[kf + t]];
            }
            // Diagonal block: u ← L(S,S)⁻¹ u (unit lower triangular).
            trsv_unit_lower(wr, nr, &sn.vals[off * nr + off..], u);
            for (t, ut) in u.iter().enumerate() {
                x[prow[kf + t]] = *ut;
            }
            if below > 0 {
                let y = &mut rest[..below];
                for (i, yi) in y.iter_mut().enumerate() {
                    *yi = x[sn.rows[sn.ncols + i]];
                }
                // Panel update: x(below) -= L(below, S) · u.
                gemm_sub(
                    below,
                    wr,
                    1,
                    &sn.vals[off * nr + sn.ncols..],
                    nr,
                    u,
                    wr,
                    y,
                    below,
                );
                for (i, yi) in y.iter().enumerate() {
                    x[sn.rows[sn.ncols + i]] = *yi;
                }
            }
        } else {
            eliminate_scalar(x, l_cols, prow, run);
        }
        idx = end;
    }
}

/// Supernode maintenance after column `j` pivots: the column joins the
/// open supernode when its below-diagonal row set equals the supernode's
/// remaining below set (the packed panel then grows by one column, with a
/// row swap keeping pivot rows in step order); otherwise it opens a new
/// supernode of its own.
fn absorb_column<T: Scalar>(
    j: usize,
    piv_row: usize,
    l_col: &[(usize, T)],
    ws: &mut LuWorkspace<T>,
) {
    let LuWorkspace {
        snodes,
        snodes_used,
        snode_of_step,
        snode_pos,
        ..
    } = ws;
    let joins = match (*snodes_used > 0).then(|| &snodes[*snodes_used - 1]) {
        Some(open) => {
            let nr = open.rows.len();
            open.ncols < SNODE_MAX_COLS
                && snode_pos[piv_row] != usize::MAX
                && snode_pos[piv_row] >= open.ncols
                && l_col.len() + 1 == nr - open.ncols
                && l_col
                    .iter()
                    .all(|&(r, _)| snode_pos[r] != usize::MAX && snode_pos[r] >= open.ncols)
        }
        None => false,
    };
    if joins {
        let open = &mut snodes[*snodes_used - 1];
        let nr = open.rows.len();
        let c = open.ncols;
        let p = snode_pos[piv_row];
        if p != c {
            // Keep invariant rows[c] == pivot row of the supernode's
            // (c+1)-th column: swap the row slots in every packed column.
            let displaced = open.rows[c];
            open.rows.swap(p, c);
            snode_pos[piv_row] = c;
            snode_pos[displaced] = p;
            for t in 0..c {
                open.vals.swap(t * nr + p, t * nr + c);
            }
        }
        let base = open.vals.len();
        open.vals.resize(base + nr, T::ZERO);
        open.vals[base + c] = T::ONE;
        for &(r, v) in l_col {
            open.vals[base + snode_pos[r]] = v;
        }
        open.ncols += 1;
        snode_of_step.push(*snodes_used - 1);
        return;
    }
    // Close the open supernode (clearing its scratch positions); then
    // either stay scalar (skinny column) or open a fresh supernode seeded
    // by this column.
    if *snodes_used > 0 {
        for &r in &snodes[*snodes_used - 1].rows {
            snode_pos[r] = usize::MAX;
        }
    }
    if l_col.len() < SNODE_MIN_BELOW {
        // Re-clearing an already-closed supernode later is an idempotent
        // no-op, so no placeholder is needed for the skipped step.
        snode_of_step.push(NO_SNODE);
        return;
    }
    // Acquire a pool entry: reuse a prior call's panel buffers when one is
    // available (this is what keeps refactorization allocation-free after
    // the first factorization through a workspace).
    if *snodes_used == snodes.len() {
        snodes.push(Supernode::default());
    }
    let sn = &mut snodes[*snodes_used];
    sn.start = j;
    sn.ncols = 1;
    sn.rows.clear();
    sn.rows.push(piv_row);
    sn.rows.extend(l_col.iter().map(|&(r, _)| r));
    sn.vals.clear();
    sn.vals.resize(sn.rows.len(), T::ZERO);
    sn.vals[0] = T::ONE;
    for (i, &(_, v)) in l_col.iter().enumerate() {
        sn.vals[1 + i] = v;
    }
    for (p, &r) in sn.rows.iter().enumerate() {
        snode_pos[r] = p;
    }
    snode_of_step.push(*snodes_used);
    *snodes_used += 1;
}

fn is_permutation(q: &[usize], n: usize) -> bool {
    let mut seen = vec![false; n];
    q.iter().all(|&p| {
        if p < n && !seen[p] {
            seen[p] = true;
            true
        } else {
            false
        }
    })
}

/// The shifted pencil `A(s) = G + sC` with shared symbolic structure.
///
/// Construction computes the pattern union of `G` and `C` and a
/// fill-reducing ordering of it **once**; every
/// [`factor_real`](Self::factor_real) / [`factor_complex`](Self::factor_complex)
/// call is then a numeric-only refactorization at a new shift — the shape
/// of the Krylov multi-point loop, the `jω` frequency sweep, and the
/// transient left-hand side `G + C/h`. The `_with` variants reuse a
/// caller-owned [`LuWorkspace`] so shift sweeps also skip all scratch
/// allocation; the plain variants allocate a throwaway workspace.
#[derive(Debug, Clone)]
pub struct ShiftedPencil {
    n: usize,
    /// Union pattern in CSC layout (`col_ptr`/`row_idx`), with the values
    /// of `G` and `C` aligned slot by slot.
    col_ptr: Vec<usize>,
    row_idx: Vec<usize>,
    gv: Vec<f64>,
    cv: Vec<f64>,
    /// Fill-reducing column ordering shared by every factorization.
    q: Vec<usize>,
    /// Numeric kernel every refactorization runs.
    kernel: NumericKernel,
}

impl ShiftedPencil {
    /// Builds the pencil with the default ordering
    /// ([`FillOrdering::MinFill`]).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NotSquare`] / [`LinalgError::ShapeMismatch`]
    /// on inconsistent shapes.
    pub fn new(g: &CscMatrix<f64>, c: &CscMatrix<f64>) -> Result<Self> {
        Self::with_ordering(g, c, FillOrdering::default())
    }

    /// Builds the pencil with an explicit ordering kind.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NotSquare`] / [`LinalgError::ShapeMismatch`]
    /// on inconsistent shapes.
    pub fn with_ordering(
        g: &CscMatrix<f64>,
        c: &CscMatrix<f64>,
        kind: FillOrdering,
    ) -> Result<Self> {
        if !g.is_square() {
            return Err(LinalgError::NotSquare { shape: g.shape() });
        }
        if c.shape() != g.shape() {
            return Err(LinalgError::ShapeMismatch {
                op: "shifted-pencil",
                lhs: g.shape(),
                rhs: c.shape(),
            });
        }
        let n = g.nrows();
        let mut col_ptr = Vec::with_capacity(n + 1);
        let mut row_idx = Vec::new();
        let mut gv = Vec::new();
        let mut cv = Vec::new();
        col_ptr.push(0);
        for j in 0..n {
            // Merge the two sorted row lists of column j.
            let (gr, gvals) = (g.col_rows(j), g.col_values(j));
            let (cr, cvals) = (c.col_rows(j), c.col_values(j));
            let (mut a, mut b) = (0, 0);
            while a < gr.len() || b < cr.len() {
                let ra = gr.get(a).copied().unwrap_or(usize::MAX);
                let rb = cr.get(b).copied().unwrap_or(usize::MAX);
                if ra < rb {
                    row_idx.push(ra);
                    gv.push(gvals[a]);
                    cv.push(0.0);
                    a += 1;
                } else if rb < ra {
                    row_idx.push(rb);
                    gv.push(0.0);
                    cv.push(cvals[b]);
                    b += 1;
                } else {
                    row_idx.push(ra);
                    gv.push(gvals[a]);
                    cv.push(cvals[b]);
                    a += 1;
                    b += 1;
                }
            }
            col_ptr.push(row_idx.len());
        }
        // Symbolic analysis of the union pattern. The span records what the
        // selection measured, so a trace answers "why is this factor this
        // size" without rerunning anything.
        let mut span = bdsm_obs::span!("pencil.order", n = n);
        let adj = csc_pattern_adjacency(&col_ptr, &row_idx);
        let choice = order_graph(&adj, kind);
        if span.is_recording() {
            span.attr("edges", adj.iter().map(Vec::len).sum::<usize>() / 2);
            span.attr("fill_amd", choice.fill_amd);
            span.attr("fill_nd", choice.fill_nd);
            span.attr("kept", choice.kept.name());
        }
        drop(span);
        let q = choice.perm;
        Ok(ShiftedPencil {
            n,
            col_ptr,
            row_idx,
            gv,
            cv,
            q,
            kernel: NumericKernel::default(),
        })
    }

    /// Selects the numeric kernel every refactorization will run
    /// (builder-style; the default is [`NumericKernel::Supernodal`]).
    #[must_use]
    pub fn with_numeric_kernel(mut self, kernel: NumericKernel) -> Self {
        self.kernel = kernel;
        self
    }

    /// The numeric kernel refactorizations run.
    #[inline]
    pub fn numeric_kernel(&self) -> NumericKernel {
        self.kernel
    }

    /// Dimension of the pencil.
    #[inline]
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Stored entries of the union pattern.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.row_idx.len()
    }

    /// The shared fill-reducing column ordering.
    pub fn ordering(&self) -> &[usize] {
        &self.q
    }

    /// Assembles `G + sC` into the workspace and factors it — the shared
    /// engine of the real and complex paths. The only per-shift work is
    /// the value map and the numeric factorization; pattern, ordering, and
    /// all scratch buffers are reused.
    fn factor_shift_with<T: Scalar>(&self, s: T, ws: &mut LuWorkspace<T>) -> Result<SparseLu<T>> {
        let mut avals = std::mem::take(&mut ws.avals);
        avals.clear();
        avals.extend(
            self.gv
                .iter()
                .zip(&self.cv)
                .map(|(&g, &c)| T::from_real(g) + s * T::from_real(c)),
        );
        let res = factor_parts(
            self.n,
            CscView {
                col_ptr: &self.col_ptr,
                row_idx: &self.row_idx,
                values: &avals,
            },
            &self.q,
            self.kernel,
            ws,
        );
        ws.avals = avals;
        res
    }

    /// Numeric refactorization at a real shift `s`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Singular`] if `G + sC` is singular.
    pub fn factor_real(&self, s: f64) -> Result<SparseLu<f64>> {
        self.factor_real_with(s, &mut LuWorkspace::new())
    }

    /// Numeric refactorization at a real shift `s`, reusing `ws` for all
    /// scratch (and the assembled shifted values).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Singular`] if `G + sC` is singular.
    pub fn factor_real_with(&self, s: f64, ws: &mut LuWorkspace<f64>) -> Result<SparseLu<f64>> {
        self.factor_shift_with(s, ws)
    }

    /// Numeric refactorization at a complex shift `s` (e.g. `jω`).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Singular`] if `G + sC` is singular.
    pub fn factor_complex(&self, s: Complex64) -> Result<SparseLu<Complex64>> {
        self.factor_complex_with(s, &mut LuWorkspace::new())
    }

    /// Numeric refactorization at a complex shift, reusing `ws`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Singular`] if `G + sC` is singular.
    pub fn factor_complex_with(
        &self,
        s: Complex64,
        ws: &mut LuWorkspace<Complex64>,
    ) -> Result<SparseLu<Complex64>> {
        self.factor_shift_with(s, ws)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bdsm_linalg::DenseLu;

    /// Tridiagonal test matrix with an off-band entry to force pivot work.
    fn test_matrix(n: usize) -> CscMatrix<f64> {
        let mut t = Vec::new();
        for i in 0..n {
            t.push((i, i, 2.5 + 0.1 * i as f64));
            if i + 1 < n {
                t.push((i, i + 1, -1.0));
                t.push((i + 1, i, -1.2));
            }
        }
        t.push((0, n - 1, 0.3));
        t.push((n - 1, 0, 0.4));
        CscMatrix::from_triplets(n, n, &t).unwrap()
    }

    #[test]
    fn factor_solve_matches_dense() {
        let n = 30;
        let a = test_matrix(n);
        let xref: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).sin() + 1.0).collect();
        let b = a.matvec(&xref).unwrap();
        for kind in [
            FillOrdering::Amd,
            FillOrdering::Rcm,
            FillOrdering::Natural,
            FillOrdering::NestedDissection,
            FillOrdering::MinFill,
        ] {
            let lu = SparseLu::factor_ordered(&a, kind).unwrap();
            assert_eq!(lu.dim(), n);
            assert!(lu.factor_nnz() >= a.nnz());
            let x = lu.solve(&b).unwrap();
            let rel = bdsm_linalg::vector::rel_err(&x, &xref, 1e-30);
            assert!(rel < 1e-12, "{kind:?} solve error {rel}");
        }
    }

    /// The symbolic predictor is tied to the numeric factor, not to itself:
    /// on diagonally dominant matrices (diagonal pivots, no cancellation)
    /// `symbolic_fill` is the stored below-diagonal count of `L`, and of
    /// `U`, entry for entry.
    #[test]
    fn symbolic_fill_equals_the_stored_factor_size() {
        use crate::ordering::{pattern_adjacency, symbolic_fill};
        // A 23 × 17 five-point mesh and a random pattern with long chords.
        let (rows, cols) = (23, 17);
        let mut mesh = Vec::new();
        for i in 0..rows {
            for j in 0..cols {
                let u = i * cols + j;
                mesh.push((u, u, 4.5));
                for v in [
                    (j + 1 < cols).then_some(u + 1),
                    (i + 1 < rows).then_some(u + cols),
                ]
                .into_iter()
                .flatten()
                {
                    mesh.push((u, v, -1.0));
                    mesh.push((v, u, -1.0));
                }
            }
        }
        let mesh = CscMatrix::from_triplets(rows * cols, rows * cols, &mesh).unwrap();
        // `filled_matrix` has an unsymmetric pattern; symmetrize it so the
        // factor of `A` is the factor of `A + Aᵀ` the count is defined on.
        let f = filled_matrix(300, 3, 0xf111);
        let mut sym: Vec<(usize, usize, f64)> = Vec::new();
        for (i, j, v) in f.iter() {
            if i == j {
                sym.push((i, i, 50.0));
            } else {
                sym.push((i, j, 0.25 * v));
                sym.push((j, i, 0.25 * v));
            }
        }
        let sym = CscMatrix::from_triplets(300, 300, &sym).unwrap();
        for (name, a) in [("mesh", &mesh), ("random", &sym)] {
            let adj = pattern_adjacency(a).unwrap();
            for kind in [
                FillOrdering::Amd,
                FillOrdering::NestedDissection,
                FillOrdering::Rcm,
                FillOrdering::Natural,
            ] {
                let q = order_graph(&adj, kind).perm;
                let lu = SparseLu::factor_with_ordering(a, &q).unwrap();
                let stored_l: usize = lu.l_cols.iter().map(Vec::len).sum();
                let stored_u: usize = lu.u_cols.iter().map(Vec::len).sum();
                let fill = symbolic_fill(&adj, &q);
                assert_eq!((stored_l, stored_u), (fill, fill), "{name} {kind:?}");
            }
        }
    }

    #[test]
    fn pivoting_handles_zero_diagonal() {
        // Saddle-point-style structure: zero (1,1) diagonal forces a swap.
        let a = CscMatrix::from_triplets(
            2,
            2,
            &[(0, 0, 1e-14), (0, 1, 1.0), (1, 0, 1.0)], // a[1][1] = 0
        )
        .unwrap();
        let lu = SparseLu::factor_ordered(&a, FillOrdering::Natural).unwrap();
        let x = lu.solve(&[1.0, 2.0]).unwrap();
        let r = a.matvec(&x).unwrap();
        assert!((r[0] - 1.0).abs() < 1e-12 && (r[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn singular_matrix_reported() {
        // Second column is a multiple of the first.
        let a =
            CscMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (1, 0, 2.0), (0, 1, 3.0), (1, 1, 6.0)])
                .unwrap();
        assert!(matches!(
            SparseLu::factor(&a),
            Err(LinalgError::Singular { .. })
        ));
        // Structurally singular: an empty column.
        let b = CscMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (1, 0, 1.0)]).unwrap();
        assert!(matches!(
            SparseLu::factor(&b),
            Err(LinalgError::Singular { .. })
        ));
    }

    #[test]
    fn rejects_bad_inputs() {
        let rect = CscMatrix::<f64>::from_triplets(2, 3, &[]).unwrap();
        assert!(matches!(
            SparseLu::factor(&rect),
            Err(LinalgError::NotSquare { .. })
        ));
        let a = test_matrix(4);
        assert!(SparseLu::factor_with_ordering(&a, &[0, 1]).is_err());
        assert!(SparseLu::factor_with_ordering(&a, &[0, 1, 2, 2]).is_err());
        let lu = SparseLu::factor(&a).unwrap();
        assert!(lu.solve(&[1.0]).is_err());
    }

    #[test]
    fn complex_factor_matches_dense_zlu() {
        let n = 12;
        let a = test_matrix(n);
        let c = {
            let t: Vec<(usize, usize, f64)> =
                (0..n).map(|i| (i, i, 1.0 + 0.05 * i as f64)).collect();
            CscMatrix::from_triplets(n, n, &t).unwrap()
        };
        let pencil = ShiftedPencil::new(&a, &c).unwrap();
        let s = Complex64::new(0.4, 2.0);
        let lu = pencil.factor_complex(s).unwrap();
        let b: Vec<f64> = (0..n).map(|i| 1.0 / (1.0 + i as f64)).collect();
        let x = lu.solve_real(&b).unwrap();
        // Residual (G + sC)x − b must vanish.
        let gd = a.to_dense();
        let cd = c.to_dense();
        for i in 0..n {
            let mut acc = Complex64::ZERO;
            for j in 0..n {
                acc += x[j] * (Complex64::from_real(gd[(i, j)]) + s * cd[(i, j)]);
            }
            assert!((acc - Complex64::from_real(b[i])).abs() < 1e-12);
        }
    }

    #[test]
    fn pencil_reuses_ordering_across_shifts() {
        let n = 20;
        let g = test_matrix(n);
        let c = {
            let t: Vec<(usize, usize, f64)> = (0..n).map(|i| (i, i, 1e-3)).collect();
            CscMatrix::from_triplets(n, n, &t).unwrap()
        };
        let pencil = ShiftedPencil::new(&g, &c).unwrap();
        assert_eq!(pencil.dim(), n);
        assert!(pencil.nnz() >= g.nnz());
        let q0 = pencil.ordering().to_vec();
        let xref: Vec<f64> = (0..n).map(|i| (i as f64).cos()).collect();
        for &s in &[0.0, 10.0, 1.0e3] {
            let lu = pencil.factor_real(s).unwrap();
            let gd = g.to_dense().add(&c.to_dense().scaled(s)).unwrap();
            let b = gd.matvec(&xref).unwrap();
            let x = lu.solve(&b).unwrap();
            assert!(bdsm_linalg::vector::rel_err(&x, &xref, 1e-30) < 1e-11);
            assert_eq!(pencil.ordering(), &q0[..], "symbolic ordering changed");
        }
    }

    #[test]
    fn pencil_rejects_shape_mismatch() {
        let g = test_matrix(4);
        let c = test_matrix(5);
        assert!(matches!(
            ShiftedPencil::new(&g, &c),
            Err(LinalgError::ShapeMismatch { .. })
        ));
        let rect = CscMatrix::<f64>::from_triplets(2, 3, &[]).unwrap();
        assert!(ShiftedPencil::new(&rect, &rect).is_err());
    }

    #[test]
    fn dense_comparison_on_random_pattern() {
        // Pseudo-random sparse matrix; cross-check against DenseLu.
        let n = 60;
        let mut seed = 0x2545f4914f6cdd1du64;
        let mut rng = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut t = Vec::new();
        for i in 0..n {
            t.push((i, i, 3.0 + rng()));
            for _ in 0..3 {
                let j = (rng() * n as f64) as usize % n;
                if j != i {
                    t.push((i, j, rng() - 0.5));
                }
            }
        }
        let a = CscMatrix::from_triplets(n, n, &t).unwrap();
        let ad = a.to_dense();
        let b: Vec<f64> = (0..n).map(|i| rng() + 0.1 * i as f64).collect();
        let xs = SparseLu::factor(&a).unwrap().solve(&b).unwrap();
        let xd = DenseLu::factor(&ad).unwrap().solve(&b).unwrap();
        assert!(bdsm_linalg::vector::rel_err(&xs, &xd, 1e-30) < 1e-10);
    }

    /// Denser pseudo-random matrix whose fill-in actually grows supernodes.
    fn filled_matrix(n: usize, per_row: usize, seed: u64) -> CscMatrix<f64> {
        let mut s = seed | 1;
        let mut rng = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut t = Vec::new();
        for i in 0..n {
            t.push((i, i, 4.0 + rng()));
            for _ in 0..per_row {
                let j = (rng() * n as f64) as usize % n;
                if j != i {
                    t.push((i, j, rng() - 0.5));
                }
            }
        }
        CscMatrix::from_triplets(n, n, &t).unwrap()
    }

    #[test]
    fn supernodal_matches_scalar_kernel() {
        for &(n, per_row) in &[(40usize, 2usize), (80, 5), (120, 8)] {
            let a = filled_matrix(n, per_row, 0x5eed ^ n as u64);
            let q = order(&a, FillOrdering::Amd).unwrap();
            let lu_s =
                SparseLu::factor_with(&a, &q, NumericKernel::Scalar, &mut LuWorkspace::new())
                    .unwrap();
            let lu_b =
                SparseLu::factor_with(&a, &q, NumericKernel::Supernodal, &mut LuWorkspace::new())
                    .unwrap();
            assert_eq!(lu_s.factor_nnz(), lu_b.factor_nnz(), "n={n}");
            let b: Vec<f64> = (0..n).map(|i| (0.3 * i as f64).sin() + 0.5).collect();
            let xs = lu_s.solve(&b).unwrap();
            let xb = lu_b.solve(&b).unwrap();
            let rel = bdsm_linalg::vector::rel_err(&xb, &xs, 1e-30);
            assert!(rel <= 1e-10, "kernels disagree at n={n}: {rel}");
        }
    }

    #[test]
    fn supernodal_complex_matches_scalar_kernel() {
        let n = 70;
        let g = filled_matrix(n, 4, 0xc0ffee);
        let c = CscMatrix::from_triplets(
            n,
            n,
            &(0..n)
                .map(|i| (i, i, 1e-3 * (1.0 + i as f64)))
                .collect::<Vec<_>>(),
        )
        .unwrap();
        let s = Complex64::jomega(300.0);
        let b: Vec<f64> = (0..n).map(|i| 1.0 / (2.0 + i as f64)).collect();
        let base = ShiftedPencil::new(&g, &c).unwrap();
        let scalar = base.clone().with_numeric_kernel(NumericKernel::Scalar);
        assert_eq!(scalar.numeric_kernel(), NumericKernel::Scalar);
        let xs = scalar.factor_complex(s).unwrap().solve_real(&b).unwrap();
        let xb = base.factor_complex(s).unwrap().solve_real(&b).unwrap();
        let num: f64 = xs
            .iter()
            .zip(&xb)
            .map(|(p, q)| (*p - *q).abs_sq())
            .sum::<f64>()
            .sqrt();
        let den: f64 = xs.iter().map(|z| z.abs_sq()).sum::<f64>().sqrt();
        assert!(
            num / den <= 1e-10,
            "complex kernels disagree: {}",
            num / den
        );
    }

    #[test]
    fn workspace_reuse_is_stable_across_identical_shifts() {
        // Regression guard for the per-shift reallocation bug: repeated
        // refactorizations at the *same* shift through one workspace must
        // produce identical factors — same nnz (no symbolic drift, no
        // workspace-state leakage) and bitwise-equal solves.
        let n = 50;
        let g = filled_matrix(n, 4, 0xfeedbeef);
        let c = CscMatrix::from_triplets(n, n, &(0..n).map(|i| (i, i, 2e-3)).collect::<Vec<_>>())
            .unwrap();
        let pencil = ShiftedPencil::new(&g, &c).unwrap();
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.11).cos()).collect();
        let mut ws = LuWorkspace::<f64>::new();
        let first = pencil.factor_real_with(7.5, &mut ws).unwrap();
        let (nnz0, x0) = (first.factor_nnz(), first.solve(&b).unwrap());
        // Interleave a different shift to dirty the workspace in between.
        for &s in &[7.5, 0.0, 7.5, 123.0, 7.5] {
            let lu = pencil.factor_real_with(s, &mut ws).unwrap();
            if s == 7.5 {
                assert_eq!(
                    lu.factor_nnz(),
                    nnz0,
                    "factor nnz grew between identical shifts"
                );
                assert_eq!(lu.solve(&b).unwrap(), x0, "refactorization drifted");
            }
        }
    }

    #[test]
    fn solve_multi_is_bitwise_identical_to_column_solves() {
        // Real panel, including an all-zero column and a column with
        // scattered zeros, to exercise the guarded (non-kernel) path.
        let n = 40;
        let a = filled_matrix(n, 4, 0xabc123);
        let lu = SparseLu::factor(&a).unwrap();
        let m = 4;
        let mut rhs = vec![0.0f64; n * m];
        for i in 0..n {
            rhs[i] = (0.37 * i as f64).sin() + 0.2; // column 0: dense
            rhs[n + i] = if i % 3 == 0 {
                0.0
            } else {
                1.0 / (1.0 + i as f64)
            };
            // column 2 stays all-zero; column 3: a single spike.
        }
        rhs[3 * n + 7] = 2.5;
        let multi = lu.solve_multi(&rhs, m).unwrap();
        for k in 0..m {
            let one = lu.solve(&rhs[k * n..(k + 1) * n]).unwrap();
            assert_eq!(
                &multi[k * n..(k + 1) * n],
                &one[..],
                "solve_multi column {k} drifted from solve"
            );
        }
    }

    #[test]
    fn solve_multi_complex_matches_column_solves() {
        let n = 30;
        let g = filled_matrix(n, 4, 0xdecaf);
        let c = CscMatrix::from_triplets(n, n, &(0..n).map(|i| (i, i, 1e-3)).collect::<Vec<_>>())
            .unwrap();
        let pencil = ShiftedPencil::new(&g, &c).unwrap();
        let lu = pencil.factor_complex(Complex64::jomega(120.0)).unwrap();
        let m = 3;
        let rhs: Vec<f64> = (0..n * m).map(|i| ((i as f64) * 0.21).cos()).collect();
        let multi = lu.solve_multi_real(&rhs, m).unwrap();
        for k in 0..m {
            let one = lu.solve_real(&rhs[k * n..(k + 1) * n]).unwrap();
            assert_eq!(&multi[k * n..(k + 1) * n], &one[..], "column {k}");
        }
    }

    /// The historical forward/backward substitution, written against the
    /// stored `L`/`U` columns — the oracle the panel-blocked solve is
    /// checked against.
    fn reference_solve<T: Scalar>(lu: &SparseLu<T>, b: &[T]) -> Vec<T> {
        let n = lu.n;
        let mut y: Vec<T> = lu.prow.iter().map(|&p| b[p]).collect();
        for j in 0..n {
            let yj = y[j];
            if yj.is_zero() {
                continue;
            }
            for &(r, lv) in &lu.l_cols[j] {
                y[lu.pinv[r]] -= lv * yj;
            }
        }
        let mut out = vec![T::ZERO; n];
        for j in (0..n).rev() {
            let xj = y[j] / lu.u_diag[j];
            out[lu.q[j]] = xj;
            if xj.is_zero() {
                continue;
            }
            for &(k, uv) in &lu.u_cols[j] {
                y[k] -= uv * xj;
            }
        }
        out
    }

    #[test]
    fn panel_blocked_solve_matches_scalar_reference_walk() {
        // The retained panels must encode exactly the stored L and U
        // columns: the blocked solve (both triangular passes) agrees with a
        // scalar column walk over the same factors to fused-sum roundoff.
        let n = 120;
        let a = filled_matrix(n, 8, 0x9a7e15);
        let lu = SparseLu::factor(&a).unwrap();
        assert!(
            lu.solve_panel_count() > 0,
            "fill did not produce supernode panels; densify the test matrix"
        );
        let b: Vec<f64> = (0..n).map(|i| (0.23 * i as f64).sin() + 0.4).collect();
        let x = lu.solve(&b).unwrap();
        let xref = reference_solve(&lu, &b);
        let rel = bdsm_linalg::vector::rel_err(&x, &xref, 1e-30);
        assert!(rel < 1e-12, "blocked solve drifted from scalar walk: {rel}");
        // And it still solves the system.
        let r = a.matvec(&x).unwrap();
        let rel = bdsm_linalg::vector::rel_err(&r, &b, 1e-30);
        assert!(rel < 1e-10, "blocked solve residual {rel}");
    }

    #[test]
    fn solve_multi_with_panels_is_bitwise_identical_to_solves() {
        // Panel-rich factors plus right-hand sides that split the per-system
        // path decision: dense columns commit to the blocked path, the
        // all-zero and scattered-zero columns replay the scalar walk — and
        // every column must still equal its standalone solve bit for bit.
        let n = 120;
        let a = filled_matrix(n, 8, 0x51e3e ^ 0xbeef);
        let lu = SparseLu::factor(&a).unwrap();
        assert!(lu.solve_panel_count() > 0, "no panels retained");
        let m = 5;
        let mut rhs = vec![0.0f64; n * m];
        for i in 0..n {
            rhs[i] = (0.29 * i as f64).sin() + 0.4;
            rhs[n + i] = if i % 4 == 0 {
                0.0
            } else {
                0.7 - 1.0 / (1.0 + i as f64)
            };
            // Column 2 stays all-zero; column 3 is a single spike.
            rhs[4 * n + i] = -(0.17 * i as f64).cos();
        }
        rhs[3 * n + 11] = 1.5;
        let multi = lu.solve_multi(&rhs, m).unwrap();
        for k in 0..m {
            let one = lu.solve(&rhs[k * n..(k + 1) * n]).unwrap();
            assert_eq!(
                &multi[k * n..(k + 1) * n],
                &one[..],
                "panel solve_multi column {k} drifted from solve"
            );
        }
    }

    #[test]
    fn solve_multi_complex_with_panels_matches_column_solves() {
        let n = 90;
        let g = filled_matrix(n, 7, 0x7a111);
        let c = CscMatrix::from_triplets(
            n,
            n,
            &(0..n)
                .map(|i| (i, i, 1e-3 * (1.0 + i as f64)))
                .collect::<Vec<_>>(),
        )
        .unwrap();
        let pencil = ShiftedPencil::new(&g, &c).unwrap();
        let lu = pencil.factor_complex(Complex64::jomega(250.0)).unwrap();
        assert!(lu.solve_panel_count() > 0, "no complex panels retained");
        let m = 3;
        let mut rhs: Vec<f64> = (0..n * m).map(|i| ((i as f64) * 0.19).sin()).collect();
        // Second system: mostly zero, so it must replay the scalar walk.
        for (i, v) in rhs[n..2 * n].iter_mut().enumerate() {
            if i % 5 != 0 {
                *v = 0.0;
            }
        }
        let multi = lu.solve_multi_real(&rhs, m).unwrap();
        for k in 0..m {
            let one = lu.solve_real(&rhs[k * n..(k + 1) * n]).unwrap();
            assert_eq!(&multi[k * n..(k + 1) * n], &one[..], "complex column {k}");
        }
    }

    #[test]
    fn panel_blocked_complex_solve_matches_scalar_reference_walk() {
        // Backward-pass coverage for the complex scalar: the U panels of a
        // shifted factorization must agree with the historical scalar
        // backward walk to fused-sum roundoff.
        let n = 110;
        let g = filled_matrix(n, 8, 0xface7);
        let c = CscMatrix::from_triplets(
            n,
            n,
            &(0..n)
                .map(|i| (i, i, 1e-3 * (1.0 + i as f64)))
                .collect::<Vec<_>>(),
        )
        .unwrap();
        let pencil = ShiftedPencil::new(&g, &c).unwrap();
        let lu = pencil.factor_complex(Complex64::jomega(420.0)).unwrap();
        assert!(lu.solve_panel_count() > 0, "no complex panels retained");
        let b: Vec<Complex64> = (0..n)
            .map(|i| Complex64::new((0.13 * i as f64).sin(), 0.2 + (0.07 * i as f64).cos()))
            .collect();
        let x = lu.solve(&b).unwrap();
        let xref = reference_solve(&lu, &b);
        let num: f64 = x
            .iter()
            .zip(&xref)
            .map(|(p, q)| (*p - *q).abs_sq())
            .sum::<f64>()
            .sqrt();
        let den: f64 = xref.iter().map(|z| z.abs_sq()).sum::<f64>().sqrt();
        assert!(
            num / den < 1e-12,
            "complex blocked solve drifted from scalar walk: {}",
            num / den
        );
    }

    #[test]
    fn backward_panels_exercise_above_rows_on_mixed_rhs() {
        // The supernodal factors must actually retain upper structure (a
        // panel with above-panel U rows feeding the backward GEMM), and the
        // full mixed-sparsity parity contract must hold across it: dense
        // systems commit to both blocked passes, sparse ones replay the
        // scalar walks, and every column of solve_multi equals its
        // standalone solve bit for bit while staying within fused-sum
        // roundoff of the reference walk.
        let n = 140;
        let a = filled_matrix(n, 9, 0x0ddba11);
        let lu = SparseLu::factor(&a).unwrap();
        assert!(
            lu.panels.iter().any(|p| !p.above_steps.is_empty()),
            "no panel retained above-panel U rows; densify the test matrix"
        );
        let m = 4;
        let mut rhs = vec![0.0f64; n * m];
        for i in 0..n {
            rhs[i] = (0.41 * i as f64).sin() - 0.3;
            // Column 1: scattered zeros; column 2 all-zero; column 3 a
            // two-entry spike deep in the elimination order.
            rhs[n + i] = if i % 6 == 0 {
                0.0
            } else {
                (0.05 * i as f64).cos()
            };
        }
        rhs[3 * n + n - 2] = 0.9;
        rhs[3 * n + 5] = -1.1;
        let multi = lu.solve_multi(&rhs, m).unwrap();
        for k in 0..m {
            let col = &rhs[k * n..(k + 1) * n];
            let one = lu.solve(col).unwrap();
            assert_eq!(
                &multi[k * n..(k + 1) * n],
                &one[..],
                "backward-panel solve_multi column {k} drifted from solve"
            );
            let xref = reference_solve(&lu, col);
            let rel = bdsm_linalg::vector::rel_err(&one, &xref, 1e-30);
            assert!(rel < 1e-12, "column {k} drifted from scalar walk: {rel}");
        }
    }

    #[test]
    fn scalar_kernel_retains_no_panels() {
        let a = filled_matrix(60, 6, 0xfade);
        let q = order(&a, FillOrdering::Amd).unwrap();
        let lu =
            SparseLu::factor_with(&a, &q, NumericKernel::Scalar, &mut LuWorkspace::new()).unwrap();
        assert_eq!(lu.solve_panel_count(), 0);
        let b: Vec<f64> = (0..60).map(|i| (0.31 * i as f64).cos()).collect();
        let x = lu.solve(&b).unwrap();
        assert_eq!(x, reference_solve(&lu, &b), "panel-free solve changed");
    }

    #[test]
    fn solve_multi_rejects_bad_shapes() {
        let a = test_matrix(5);
        let lu = SparseLu::factor(&a).unwrap();
        assert!(lu.solve_multi(&[1.0; 10], 0).is_err());
        assert!(lu.solve_multi(&[1.0; 9], 2).is_err());
        assert!(lu.solve_multi_real(&[1.0; 5], 2).is_err());
    }

    #[test]
    fn workspace_survives_singular_failure() {
        // A singular factorization must not poison the workspace for the
        // next (regular) factorization.
        let sing =
            CscMatrix::from_triplets(3, 3, &[(0, 0, 1.0), (1, 0, 2.0), (2, 0, 1.0), (1, 1, 1.0)])
                .unwrap();
        let good = test_matrix(3);
        let q = [0, 1, 2];
        let mut ws = LuWorkspace::<f64>::new();
        assert!(matches!(
            SparseLu::factor_with(&sing, &q, NumericKernel::Supernodal, &mut ws),
            Err(LinalgError::Singular { .. })
        ));
        let lu = SparseLu::factor_with(&good, &q, NumericKernel::Supernodal, &mut ws).unwrap();
        let x = lu.solve(&[1.0, 0.0, 0.0]).unwrap();
        let r = good.matvec(&x).unwrap();
        assert!((r[0] - 1.0).abs() < 1e-12 && r[1].abs() < 1e-12 && r[2].abs() < 1e-12);
    }
}
