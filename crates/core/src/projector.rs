//! Block-diagonal projection `V = diag(V₁, …, V_k)` and congruence
//! transforms — the "structured" part of BDSM.
//!
//! Given a global moment-matching basis `V_g` and a block partition of the
//! states, each block takes the column space of its own row slice of `V_g`
//! (compressed by SVD with a rank tolerance). Because
//! `span(diag(V₁,…,V_k)) ⊇ span(V_g)`, the block-diagonal projector matches
//! at least as many moments as the global one while keeping the reduced
//! matrices block-structured — sparsity the flat projector destroys.
//!
//! # The shape of a block basis, and what it costs
//!
//! Every block basis is `Vᵢ = [Eᵢ | Uᵢ]`: `Eᵢ` holds one identity column
//! per exactly-preserved interface row (none under
//! [`InterfacePolicy::Folded`]), `Uᵢ` the `kᵢ` SVD directions of the
//! block's Krylov slice, and `Uᵢ` is **exactly zero on the interface
//! rows** — so every row of `Vᵢ` is either a unit vector or a dense
//! `kᵢ`-vector, never both. Two invariants keep that true and are relied
//! on downstream:
//!
//! - *zero rows:* the SVD sees the slice's **interior rows only** and its
//!   left vectors are scattered back around the interface rows. Zeroing
//!   the interface rows in place is not enough: the QR step inside
//!   [`Svd`] turns an exactly-zero row into round-off.
//! - *gather:* for two preserved interface states `r`, `c` the reduced
//!   entry `(VᵀAV)[t_r, t_c]` **is** `A[r, c]`, bit for bit (it meets two
//!   exact ones and an exact zero on the way) — the reduced model carries
//!   the full model's interface stamp.
//!
//! Per adaptive round the projector therefore costs, for a block of `nᵢ`
//! rows and `K` global basis columns, `O(nᵢK²)` for the compression (QR
//! of the slice; the Jacobi iterations run on a `K × K` factor) and, for
//! the congruence of a sparse `A`, `O(nnz·k + n·k²)`: the rows of `V` are
//! handed to the kernel as sparse vectors, a stored entry of `A` costs
//! one sparse `axpy` with its row of `V` (one term on an identity row,
//! `k` on an SVD row), and a column of `A` costs one rank-one update of
//! the size of what it touched (`k × k` between SVD rows, a single copy
//! between identity rows) — instead of a full rank-one update per stored
//! entry (`O(nnz·k²)`).

use bdsm_linalg::{vector, LinalgError, Matrix, Result, Svd};
use bdsm_sparse::CscMatrix;

/// How interface (boundary) states are treated by the projector — the
/// paper's exact boundary treatment versus the folded approximation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum InterfacePolicy {
    /// Interface states are folded into the per-block SVD bases like any
    /// other state. The historical behaviour, and the default.
    #[default]
    Folded,
    /// Interface states are preserved **exactly**: each block basis is
    /// augmented with identity columns on its interface rows (deduplicated
    /// against the block's SVD directions), so interface-bus voltages are
    /// reproduced verbatim by the reduced model — its state vector carries
    /// them as plain coordinates.
    Exact,
}

/// An orthonormal block-diagonal projection matrix.
#[derive(Debug, Clone)]
pub struct BlockDiagProjector {
    blocks: Vec<Matrix>,
    row_offsets: Vec<usize>,
    col_offsets: Vec<usize>,
    /// `(full state row, reduced column)` pairs of exactly-preserved
    /// interface states; empty under [`InterfacePolicy::Folded`].
    interface: Vec<(usize, usize)>,
}

impl BlockDiagProjector {
    /// Builds the projector from a global basis and per-block state counts.
    ///
    /// Block `i` keeps the left singular vectors of its (column-normalized)
    /// row slice of `global` whose singular values exceed `rank_tol · σ_max`,
    /// capped at `max_block_dim` dominant directions when given (the knob
    /// that enforces a reduced-dimension budget). A block whose slice is
    /// numerically zero keeps a single canonical unit vector so every block
    /// retains at least one reduced state.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::InvalidArgument`] if the block sizes do not
    /// sum to the basis row count or contain a zero, and propagates SVD
    /// failures.
    pub fn from_global_basis(
        global: &Matrix,
        block_sizes: &[usize],
        rank_tol: f64,
        max_block_dim: Option<usize>,
    ) -> Result<Self> {
        let none: Vec<Vec<usize>> = vec![Vec::new(); block_sizes.len()];
        Self::from_global_basis_with_interface(global, block_sizes, rank_tol, max_block_dim, &none)
    }

    /// [`from_global_basis`](Self::from_global_basis) with the paper's
    /// exact boundary treatment: `interface_local[i]` lists the local row
    /// indices (sorted, unique) of block `i` that are interface states.
    ///
    /// Each listed row gets a dedicated identity column placed **ahead**
    /// of the block's SVD directions, and the Krylov slice is exactly
    /// orthogonalized against those unit columns (its interface rows are
    /// left out of the compression) — so the interface rows of the final
    /// basis are exact unit vectors and the reduced state carries the
    /// interface voltages verbatim. Krylov columns whose content was
    /// (numerically) pure interface energy are deduplicated away instead
    /// of polluting the SVD. `max_block_dim` caps only the appended SVD
    /// directions; identity columns are mandatory and never truncated.
    ///
    /// # Errors
    ///
    /// [`LinalgError::InvalidArgument`] on inconsistent block sizes or
    /// out-of-range/unsorted interface indices; SVD failures propagate.
    pub fn from_global_basis_with_interface(
        global: &Matrix,
        block_sizes: &[usize],
        rank_tol: f64,
        max_block_dim: Option<usize>,
        interface_local: &[Vec<usize>],
    ) -> Result<Self> {
        if block_sizes.iter().sum::<usize>() != global.nrows() {
            return Err(LinalgError::InvalidArgument {
                what: "projector: block sizes must sum to the state dimension",
            });
        }
        if block_sizes.contains(&0) {
            return Err(LinalgError::InvalidArgument {
                what: "projector: empty blocks are not allowed",
            });
        }
        if interface_local.len() != block_sizes.len() {
            return Err(LinalgError::InvalidArgument {
                what: "projector: interface lists must match the block count",
            });
        }
        for (size, iface) in block_sizes.iter().zip(interface_local) {
            let in_range = iface.iter().all(|&li| li < *size);
            let sorted_unique = iface.windows(2).all(|w| w[0] < w[1]);
            if !in_range || !sorted_unique {
                return Err(LinalgError::InvalidArgument {
                    what: "projector: interface rows must be sorted, unique, in range",
                });
            }
        }
        // Blocks are independent, so the per-block SVD compression fans out
        // over the shared work queue of `crate::par` — dynamic scheduling
        // absorbs whatever imbalance the rank structure introduces, and the
        // results land in block order, keeping the projector deterministic
        // for any worker count.
        let mut row0 = 0;
        let slices: Vec<(usize, usize)> = block_sizes
            .iter()
            .map(|&size| {
                row0 += size;
                (row0 - size, size)
            })
            .collect();
        let blocks = crate::par::parallel_map(&slices, |bi, &(row0, size)| {
            let _s = bdsm_obs::span!("svd.block", block = bi, rows = size);
            let iface = &interface_local[bi];
            compress_block(global, row0, size, rank_tol, max_block_dim, iface)
        })
        .into_iter()
        .collect::<Result<Vec<Matrix>>>()?;
        let mut proj = Self::from_blocks(blocks);
        for (bi, iface) in interface_local.iter().enumerate() {
            for (t, &li) in iface.iter().enumerate() {
                proj.interface
                    .push((proj.row_offsets[bi] + li, proj.col_offsets[bi] + t));
            }
        }
        Ok(proj)
    }

    /// The `(full state row, reduced column)` pairs of exactly-preserved
    /// interface states, in block order. Empty when the projector was
    /// built with [`InterfacePolicy::Folded`] semantics.
    pub fn interface_map(&self) -> &[(usize, usize)] {
        &self.interface
    }

    /// Congruence transform `VᵀAV` of a *sparse* matrix in
    /// `O(nnz·k + n·k²)` with no `n × q` intermediate, which is what keeps
    /// the projection step viable at `n ≫ 10⁴` (see the module docs for
    /// the `[E | U]` row structure behind that count).
    ///
    /// The work is partitioned into **block pairs** `(i, j)` — a fixed
    /// decomposition independent of the worker count — that fan out over
    /// [`crate::par`]: pair `(i, j)` owns exactly the entries of `A` in
    /// block `i`'s row band and block `j`'s column band, and writes the
    /// disjoint output block `VᵢᵀAᵢⱼVⱼ`. Within a pair the columns of
    /// `Aᵢⱼ` are consumed in ascending order and each column's entries in
    /// ascending row order, so every output entry accumulates in one fixed
    /// order and the result is bitwise-identical for **any**
    /// `BDSM_THREADS`. An entry between two preserved interface states
    /// meets only unit factors and comes out as stored: the `(E, E)` part
    /// of the result is `A`'s own, bit for bit.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `a` is not `n × n`.
    pub fn project_square_sparse(&self, a: &CscMatrix<f64>) -> Result<Matrix> {
        let [out] = sparse_congruences(self, [a])?;
        Ok(out)
    }

    /// One block pair's congruence contribution `VᵢᵀAᵢⱼVⱼ` (`qᵢ × qⱼ`) as
    /// a sum over the columns `a_c` of `Aᵢⱼ` of `(Vᵢᵀa_c) ⊗ Vⱼ[c, :]`, on
    /// the [`row_lists`] of `V`: `y = Vᵢᵀa_c` takes one sparse `axpy` per
    /// stored entry — a single pick where the entry sits on an identity
    /// row, `kᵢ` terms on an SVD row — and `y ⊗ Vⱼ[c, :]` touches
    /// `nnz(y) × nnz(Vⱼ[c, :])` output entries: one for two identity rows
    /// (the entry of `A` times two exact ones), `kᵢkⱼ` for two SVD rows.
    fn project_block_pair(
        &self,
        a: &CscMatrix<f64>,
        bi: usize,
        bj: usize,
        rows: &[Vec<(usize, f64)>],
    ) -> Matrix {
        let (r0, r1) = (self.row_offsets[bi], self.row_offsets[bi + 1]);
        let (c0, c1) = (self.row_offsets[bj], self.row_offsets[bj + 1]);
        let mut out = Matrix::zeros(self.blocks[bi].ncols(), self.blocks[bj].ncols());
        // `y` as a sparse accumulator: values, membership, touched columns.
        let mut y = vec![0.0; out.nrows()];
        let mut live = vec![false; out.nrows()];
        let mut touched: Vec<usize> = Vec::new();
        for c in (c0..c1).filter(|&c| !rows[c].is_empty()) {
            let arows = a.col_rows(c);
            let lo = arows.partition_point(|&r| r < r0);
            let hi = arows.partition_point(|&r| r < r1);
            for (&r, &v) in arows[lo..hi].iter().zip(&a.col_values(c)[lo..hi]) {
                for &(col, x) in &rows[r] {
                    if !live[col] {
                        live[col] = true;
                        touched.push(col);
                        y[col] = 0.0;
                    }
                    y[col] += v * x;
                }
            }
            for col in touched.drain(..) {
                live[col] = false;
                let (yv, orow) = (y[col], out.row_mut(col));
                for &(cj, xj) in &rows[c] {
                    orow[cj] += yv * xj;
                }
            }
        }
        out
    }

    /// Assembles a projector directly from per-block orthonormal bases.
    pub fn from_blocks(blocks: Vec<Matrix>) -> Self {
        let mut row_offsets = vec![0];
        let mut col_offsets = vec![0];
        for b in &blocks {
            row_offsets.push(row_offsets.last().unwrap() + b.nrows());
            col_offsets.push(col_offsets.last().unwrap() + b.ncols());
        }
        BlockDiagProjector {
            blocks,
            row_offsets,
            col_offsets,
            interface: Vec::new(),
        }
    }

    /// Number of blocks `k`.
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Full state dimension `n` (sum of block rows).
    pub fn nrows(&self) -> usize {
        *self.row_offsets.last().unwrap()
    }

    /// Reduced dimension `q` (sum of block columns).
    pub fn ncols(&self) -> usize {
        *self.col_offsets.last().unwrap()
    }

    /// The per-block reduced dimensions `qᵢ`.
    pub fn block_dims(&self) -> Vec<usize> {
        self.blocks.iter().map(Matrix::ncols).collect()
    }

    /// Basis of block `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn block(&self, i: usize) -> &Matrix {
        &self.blocks[i]
    }

    /// Densifies `V = diag(V₁, …, V_k)`; off-block entries are exactly zero.
    pub fn to_dense(&self) -> Matrix {
        let mut v = Matrix::zeros(self.nrows(), self.ncols());
        for (i, b) in self.blocks.iter().enumerate() {
            v.set_block(self.row_offsets[i], self.col_offsets[i], b);
        }
        v
    }

    /// Worst per-block deviation from orthonormality, `max‖VᵢᵀVᵢ − I‖_max`.
    pub fn orthonormality_error(&self) -> f64 {
        self.blocks
            .iter()
            .map(|b| {
                let gram = b.transpose().matmul(b).expect("square product");
                gram.sub(&Matrix::identity(b.ncols()))
                    .expect("same shape")
                    .norm_max()
            })
            .fold(0.0, f64::max)
    }

    /// Congruence transform `VᵀAV`, computed block-pair by block-pair so the
    /// cost scales with the block structure rather than `n²q²`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `a` is not `n × n`.
    pub fn project_square(&self, a: &Matrix) -> Result<Matrix> {
        let n = self.nrows();
        if a.shape() != (n, n) {
            return Err(LinalgError::ShapeMismatch {
                op: "project-square",
                lhs: (n, n),
                rhs: a.shape(),
            });
        }
        let mut out = Matrix::zeros(self.ncols(), self.ncols());
        for i in 0..self.num_blocks() {
            let (r0, r1) = (self.row_offsets[i], self.row_offsets[i + 1]);
            for j in 0..self.num_blocks() {
                let (c0, c1) = (self.row_offsets[j], self.row_offsets[j + 1]);
                let aij = a.submatrix(r0, r1, c0, c1);
                let prod = self.blocks[i]
                    .transpose()
                    .matmul(&aij)?
                    .matmul(&self.blocks[j])?;
                out.set_block(self.col_offsets[i], self.col_offsets[j], &prod);
            }
        }
        Ok(out)
    }

    /// Input projection `VᵀB` (`q × m`).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `b` does not have `n` rows.
    pub fn project_input(&self, b: &Matrix) -> Result<Matrix> {
        let n = self.nrows();
        if b.nrows() != n {
            return Err(LinalgError::ShapeMismatch {
                op: "project-input",
                lhs: (n, n),
                rhs: b.shape(),
            });
        }
        // B is a handful of port rows: one rank-one update per non-zero
        // row of B (a copy where that row of V is a unit vector), no
        // transposed copy of the block.
        let mut out = Matrix::zeros(self.ncols(), b.ncols());
        for (i, blk) in self.blocks.iter().enumerate() {
            let (r0, c0) = (self.row_offsets[i], self.col_offsets[i]);
            for li in 0..blk.nrows() {
                let brow = b.row(r0 + li);
                if brow.iter().all(|&x| x == 0.0) {
                    continue;
                }
                for (a, &v) in blk.row(li).iter().enumerate() {
                    if v != 0.0 {
                        vector::axpy(v, brow, out.row_mut(c0 + a));
                    }
                }
            }
        }
        Ok(out)
    }

    /// Output projection `LV` (`p × q`).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `l` does not have `n` columns.
    pub fn project_output(&self, l: &Matrix) -> Result<Matrix> {
        let n = self.nrows();
        if l.ncols() != n {
            return Err(LinalgError::ShapeMismatch {
                op: "project-output",
                lhs: (n, n),
                rhs: l.shape(),
            });
        }
        // Likewise one `axpy` of a row of V per non-zero entry of L.
        let mut out = Matrix::zeros(l.nrows(), self.ncols());
        for o in 0..l.nrows() {
            for (i, blk) in self.blocks.iter().enumerate() {
                let (r0, c0) = (self.row_offsets[i], self.col_offsets[i]);
                let lrow = &l.row(o)[r0..r0 + blk.nrows()];
                let orow = &mut out.row_mut(o)[c0..c0 + blk.ncols()];
                for (li, &v) in lrow.iter().enumerate() {
                    if v != 0.0 {
                        vector::axpy(v, blk.row(li), orow);
                    }
                }
            }
        }
        Ok(out)
    }
}

/// The rows of `V` as sparse vectors: for every full state row the
/// non-zero `(block-local column, value)` pairs of its row of the block
/// basis, in column order — one pair on a preserved interface row, `kᵢ`
/// on a row of the SVD part, fewer wherever the basis is exactly zero.
/// This is the operand of the sparse congruence; it is built once per
/// projection and shared by every matrix projected.
fn row_lists(proj: &BlockDiagProjector) -> Vec<Vec<(usize, f64)>> {
    proj.blocks
        .iter()
        .flat_map(|blk| {
            (0..blk.nrows()).map(|li| {
                let row = blk.row(li).iter().enumerate();
                row.filter_map(|(col, &v)| (v != 0.0).then_some((col, v)))
                    .collect()
            })
        })
        .collect()
}

/// Every pair of `k` blocks, diagonal pairs first: they carry most of the
/// entries on grid matrices, and fronting them keeps the shared work
/// queue busy.
fn block_pairs(k: usize) -> Vec<(usize, usize)> {
    let mut pairs: Vec<(usize, usize)> = (0..k).map(|i| (i, i)).collect();
    for i in 0..k {
        for j in 0..k {
            if i != j {
                pairs.push((i, j));
            }
        }
    }
    pairs
}

/// `VᵀAV` for several sparse `A` at once (the engine projects `G` and
/// `C` together): one set of [`row_lists`] and one fan-out over every
/// block pair of every matrix, so two workers are not left sharing the
/// one heavy diagonal pair of a single matrix. See
/// [`BlockDiagProjector::project_square_sparse`] for the contract.
///
/// # Errors
///
/// Returns [`LinalgError::ShapeMismatch`] if a matrix is not `n × n`.
pub(crate) fn sparse_congruences<const M: usize>(
    proj: &BlockDiagProjector,
    mats: [&CscMatrix<f64>; M],
) -> Result<[Matrix; M]> {
    let n = proj.nrows();
    if let Some(bad) = mats.iter().find(|a| a.shape() != (n, n)) {
        return Err(LinalgError::ShapeMismatch {
            op: "project-square-sparse",
            lhs: (n, n),
            rhs: bad.shape(),
        });
    }
    let rows = row_lists(proj);
    let pairs = block_pairs(proj.num_blocks());
    let jobs: Vec<(usize, usize, usize)> = (0..M)
        .flat_map(|m| pairs.iter().map(move |&(bi, bj)| (m, bi, bj)))
        .collect();
    let partials = crate::par::parallel_map(&jobs, |_, &(m, bi, bj)| {
        let _s = bdsm_obs::span!("project.pair", i = bi, j = bj);
        proj.project_block_pair(mats[m], bi, bj, &rows)
    });
    let mut out = [(); M].map(|()| Matrix::zeros(proj.ncols(), proj.ncols()));
    for (&(m, bi, bj), partial) in jobs.iter().zip(&partials) {
        out[m].set_block(proj.col_offsets[bi], proj.col_offsets[bj], partial);
    }
    Ok(out)
}

/// Compresses rows `row0 .. row0 + size` of the global basis into one
/// orthonormal block basis `[E | U]`: a unit column per interface row
/// (`iface`, block-local, sorted) first, then the dominant left singular
/// vectors of the block's **interior** rows.
///
/// Leaving the interface rows out of the SVD is the exact
/// orthogonalisation of the Krylov slice against the unit columns, and it
/// is what makes `U` exactly zero there (see [`Svd`] on zero rows). Krylov
/// content decays exponentially away from the ports, so a far block's
/// slice can be tiny down to subnormal: each column is normalised over the
/// interior rows — keeping every moment direction that reaches the block,
/// at any magnitude, and protecting the SVD from under/overflow — and
/// dropped when it is numerically dead or was (numerically) pure interface
/// content, which the unit columns already span. `max_block_dim` caps only
/// the SVD directions: unit columns are the exactness contract and are
/// never truncated. A block with no interface keeps at least one
/// direction — a canonical unit vector if its slice is numerically zero —
/// so every block retains a reduced state.
fn compress_block(
    global: &Matrix,
    row0: usize,
    size: usize,
    rank_tol: f64,
    max_block_dim: Option<usize>,
    iface: &[usize],
) -> Result<Matrix> {
    let mut is_iface = vec![false; size];
    for &li in iface {
        is_iface[li] = true;
    }
    let interior: Vec<usize> = (0..size).filter(|&li| !is_iface[li]).collect();
    let len = interior.len();
    // `w` is the interior slice column by column (row-major `cols × len`):
    // the column buffers the SVD factors, filled in one pass over the
    // rows of `global`, survivors normalised and compacted in place.
    let cols = global.ncols();
    let mut w = vec![0.0; cols * len];
    for (t, &li) in interior.iter().enumerate() {
        for (j, &x) in global.row(row0 + li).iter().enumerate() {
            w[j * len + t] = x;
        }
    }
    let mut on_iface = vec![0.0; iface.len()];
    let mut kept = 0;
    for j in 0..cols {
        for (x, &li) in on_iface.iter_mut().zip(iface) {
            *x = global[(row0 + li, j)];
        }
        let col = &mut w[j * len..(j + 1) * len];
        let post = vector::norm2(col);
        let pre = post.hypot(vector::norm2(&on_iface));
        if pre > 1e-150 && post > 1e-12 * pre {
            vector::scale(1.0 / post, col);
            w.copy_within(j * len..(j + 1) * len, kept * len);
            kept += 1;
        }
    }
    w.truncate(kept * len);
    let floor = usize::from(iface.is_empty());
    let cap = max_block_dim.map_or(usize::MAX, |cap| cap.saturating_sub(iface.len()).max(floor));
    let mut out;
    if kept.min(cap) == 0 {
        out = Matrix::zeros(size, iface.len() + floor);
        if floor == 1 {
            out[(0, 0)] = 1.0;
        }
    } else {
        // `w = U Σ Vᵀ`, so the slice `wᵀ` has the left vectors `svd.v`.
        let svd = Svd::compute(&Matrix::from_vec(kept, len, w)?)?;
        let rank = svd.rank(rank_tol).max(floor).min(cap);
        out = Matrix::zeros(size, iface.len() + rank);
        for (t, &li) in interior.iter().enumerate() {
            out.row_mut(li)[iface.len()..].copy_from_slice(&svd.v.row(t)[..rank]);
        }
    }
    for (t, &li) in iface.iter().enumerate() {
        out[(li, t)] = 1.0;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_basis() -> Matrix {
        // 6 states, 2 basis columns with energy in every block.
        Matrix::from_fn(6, 2, |i, j| ((i + 1) as f64 * 0.3 + j as f64).sin() + 0.5)
    }

    /// The block pairs evaluated one after another on the calling thread,
    /// in queue order — what the fan-out must reproduce bit for bit.
    fn serial_pairs(p: &BlockDiagProjector, a: &CscMatrix<f64>) -> Matrix {
        let rows = row_lists(p);
        let mut out = Matrix::zeros(p.ncols(), p.ncols());
        for (bi, bj) in block_pairs(p.num_blocks()) {
            let partial = p.project_block_pair(a, bi, bj, &rows);
            out.set_block(p.col_offsets[bi], p.col_offsets[bj], &partial);
        }
        out
    }

    /// Sparse congruence against the dense reference (≤ 1e-13·‖A‖_max),
    /// against its own serial pair-by-pair evaluation (bitwise), and —
    /// between preserved interface states — against `A` itself (bitwise).
    fn assert_congruence(p: &BlockDiagProjector, a: &Matrix, what: &str) {
        let sparse = CscMatrix::from_dense(a, 0.0);
        let got = p.project_square_sparse(&sparse).unwrap();
        let want = p.project_square(a).unwrap();
        let err = got.sub(&want).unwrap().norm_max();
        assert!(
            err <= 1e-13 * a.norm_max(),
            "{what}: off the dense product by {err:e}"
        );
        let bits = |m: &Matrix| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(&got),
            bits(&serial_pairs(p, &sparse)),
            "{what}: fan-out moved bits"
        );
        for &(r, tr) in p.interface_map() {
            for &(c, tc) in p.interface_map() {
                assert_eq!(
                    got[(tr, tc)].to_bits(),
                    a[(r, c)].to_bits(),
                    "{what}: interface entry ({r}, {c}) was computed, not copied"
                );
            }
        }
    }

    #[test]
    fn block_structure_and_orthonormality() {
        let v = demo_basis();
        let p = BlockDiagProjector::from_global_basis(&v, &[2, 2, 2], 1e-12, None).unwrap();
        assert_eq!(p.num_blocks(), 3);
        assert_eq!(p.nrows(), 6);
        assert!(p.orthonormality_error() < 1e-13);
        let dense = p.to_dense();
        // Off-block entries are exactly zero by construction.
        let dims = p.block_dims();
        let mut c0 = 0;
        for (bi, &q) in dims.iter().enumerate() {
            for i in 0..6 {
                for j in c0..c0 + q {
                    if i / 2 != bi {
                        assert_eq!(dense[(i, j)], 0.0);
                    }
                }
            }
            c0 += q;
        }
    }

    #[test]
    fn span_contains_global_basis() {
        // diag-blocks span every row slice, so V Vᵀ v_g = v_g for each
        // global column.
        let vg = demo_basis();
        let p = BlockDiagProjector::from_global_basis(&vg, &[3, 3], 1e-12, None).unwrap();
        let v = p.to_dense();
        for j in 0..vg.ncols() {
            let col = vg.col(j);
            let coeffs = v.tr_matvec(&col).unwrap();
            let back = v.matvec(&coeffs).unwrap();
            let resid: Vec<f64> = col.iter().zip(&back).map(|(a, b)| a - b).collect();
            assert!(bdsm_linalg::vector::norm2(&resid) < 1e-12);
        }
    }

    #[test]
    fn projections_match_dense_products() {
        let vg = demo_basis();
        let p = BlockDiagProjector::from_global_basis(&vg, &[2, 4], 1e-12, None).unwrap();
        let v = p.to_dense();
        let a = Matrix::from_fn(6, 6, |i, j| ((i * 7 + j) as f64 * 0.11).cos());
        let b = Matrix::from_fn(6, 2, |i, j| (i + j) as f64);
        let l = Matrix::from_fn(3, 6, |i, j| (i as f64 - j as f64) * 0.2);

        let ref_a = v.transpose().matmul(&a).unwrap().matmul(&v).unwrap();
        let got_a = p.project_square(&a).unwrap();
        assert!(got_a.sub(&ref_a).unwrap().norm_max() < 1e-13);

        let ref_b = v.transpose().matmul(&b).unwrap();
        assert!(p.project_input(&b).unwrap().sub(&ref_b).unwrap().norm_max() < 1e-13);

        let ref_l = l.matmul(&v).unwrap();
        assert!(
            p.project_output(&l)
                .unwrap()
                .sub(&ref_l)
                .unwrap()
                .norm_max()
                < 1e-13
        );
    }

    #[test]
    fn sparse_congruence_matches_dense() {
        let vg = demo_basis();
        let p = BlockDiagProjector::from_global_basis(&vg, &[2, 4], 1e-12, None).unwrap();
        let a = Matrix::from_fn(6, 6, |i, j| {
            // A sparse-ish pattern with off-block coupling.
            if i == j || (i + 2 * j) % 5 == 0 {
                ((i * 3 + j) as f64 * 0.17).sin()
            } else {
                0.0
            }
        });
        assert_congruence(&p, &a, "folded, 6 states");
        let bad = CscMatrix::from_dense(&Matrix::zeros(5, 5), 0.0);
        assert!(p.project_square_sparse(&bad).is_err());
    }

    #[test]
    fn zero_slice_gets_canonical_vector() {
        // Basis with no energy in the second block.
        let mut vg = Matrix::zeros(4, 1);
        vg[(0, 0)] = 1.0;
        vg[(1, 0)] = -1.0;
        let p = BlockDiagProjector::from_global_basis(&vg, &[2, 2], 1e-12, None).unwrap();
        assert_eq!(p.block_dims(), vec![1, 1]);
        assert_eq!(p.block(1)[(0, 0)], 1.0);
        assert!(p.orthonormality_error() < 1e-15);
    }

    #[test]
    fn exact_interface_rows_are_unit_vectors() {
        let vg = demo_basis();
        let iface = vec![vec![1], vec![0, 2]];
        let p =
            BlockDiagProjector::from_global_basis_with_interface(&vg, &[3, 3], 1e-12, None, &iface)
                .unwrap();
        // Interface map points at exact unit rows.
        let map = p.interface_map().to_vec();
        assert_eq!(map.len(), 3);
        let dense = p.to_dense();
        for &(row, col) in &map {
            for j in 0..dense.ncols() {
                let expect = if j == col { 1.0 } else { 0.0 };
                assert_eq!(dense[(row, j)], expect, "row {row} not a unit vector");
            }
        }
        assert_eq!(map[0], (1, 0)); // block 0, local row 1 → first column
        assert!(p.orthonormality_error() < 1e-12);
        // The augmented span still contains every global basis column.
        let v = p.to_dense();
        for j in 0..vg.ncols() {
            let col = vg.col(j);
            let coeffs = v.tr_matvec(&col).unwrap();
            let back = v.matvec(&coeffs).unwrap();
            let resid: Vec<f64> = col.iter().zip(&back).map(|(a, b)| a - b).collect();
            assert!(bdsm_linalg::vector::norm2(&resid) < 1e-12);
        }
    }

    #[test]
    fn interface_only_columns_are_deduplicated() {
        // A basis column living purely on the interface row must not add
        // an SVD direction beyond the identity column.
        let mut vg = Matrix::zeros(4, 2);
        vg[(1, 0)] = 1.0; // pure interface content
        vg[(0, 1)] = 0.5;
        vg[(3, 1)] = -0.5;
        let p = BlockDiagProjector::from_global_basis_with_interface(
            &vg,
            &[4],
            1e-12,
            None,
            &[vec![1]],
        )
        .unwrap();
        // 1 identity column + 1 surviving Krylov direction.
        assert_eq!(p.ncols(), 2);
        assert!(p.orthonormality_error() < 1e-14);
    }

    #[test]
    fn interface_budget_caps_only_extra_directions() {
        let vg = demo_basis();
        let p = BlockDiagProjector::from_global_basis_with_interface(
            &vg,
            &[6],
            1e-12,
            Some(2),
            &[vec![0, 3, 5]],
        )
        .unwrap();
        // Cap 2 < 3 identity columns: identities survive, no extras fit.
        assert_eq!(p.ncols(), 3);
        assert_eq!(p.interface_map().len(), 3);
    }

    #[test]
    fn interface_validation_rejects_bad_lists() {
        let vg = demo_basis();
        let bad_len = vec![vec![0]];
        assert!(BlockDiagProjector::from_global_basis_with_interface(
            &vg,
            &[3, 3],
            1e-12,
            None,
            &bad_len
        )
        .is_err());
        let out_of_range = vec![vec![5], vec![]];
        assert!(BlockDiagProjector::from_global_basis_with_interface(
            &vg,
            &[3, 3],
            1e-12,
            None,
            &out_of_range
        )
        .is_err());
        let unsorted = vec![vec![2, 1], vec![]];
        assert!(BlockDiagProjector::from_global_basis_with_interface(
            &vg,
            &[3, 3],
            1e-12,
            None,
            &unsorted
        )
        .is_err());
    }

    #[test]
    fn interface_congruence_matches_dense_reference() {
        let vg = demo_basis();
        let p = BlockDiagProjector::from_global_basis_with_interface(
            &vg,
            &[2, 4],
            1e-12,
            None,
            &[vec![1], vec![0, 3]],
        )
        .unwrap();
        let a = Matrix::from_fn(6, 6, |i, j| {
            if i == j || (i + 2 * j) % 4 == 0 {
                ((i * 5 + j) as f64 * 0.23).sin()
            } else {
                0.0
            }
        });
        assert_congruence(&p, &a, "exact, 6 states");
    }

    #[test]
    fn parallel_congruence_matches_serial_accumulation_bitwise() {
        // The block-pair fan-out's contract: a pair's result is a pure
        // function of the pair, accumulated in one fixed order (columns
        // ascending, rows ascending inside a column), so the parallel
        // result is byte-for-byte the serial pair-by-pair evaluation
        // whatever the ambient worker count. Pinned against that serial
        // evaluation rather than by mutating BDSM_THREADS, which would
        // race sibling tests reading the environment from worker threads.
        let vg = Matrix::from_fn(24, 4, |i, j| ((i * 3 + 2 * j) as f64 * 0.13).sin());
        let p = BlockDiagProjector::from_global_basis(&vg, &[6, 6, 6, 6], 1e-12, None).unwrap();
        let a = Matrix::from_fn(24, 24, |i, j| {
            if i.abs_diff(j) <= 2 {
                ((i * 7 + j) as f64 * 0.11).cos()
            } else {
                0.0
            }
        });
        assert_congruence(&p, &a, "folded, banded");
    }

    #[test]
    fn congruence_of_unit_and_svd_rows_matches_dense_and_copies_the_interface() {
        let vg = Matrix::from_fn(40, 5, |i, j| ((i * 5 + 3 * j) as f64 * 0.19).sin() + 0.1);
        let sizes = [12, 9, 19];
        let iface = vec![vec![0, 7, 11], vec![2], vec![0, 1, 9, 18]];
        let exact =
            BlockDiagProjector::from_global_basis_with_interface(&vg, &sizes, 1e-12, None, &iface)
                .unwrap();
        assert_eq!(exact.interface_map().len(), 8);
        let folded = BlockDiagProjector::from_global_basis(&vg, &sizes, 1e-12, None).unwrap();
        // A symmetric band with long-range coupling: every pair is hit.
        let band = Matrix::from_fn(40, 40, |i, j| {
            if i.abs_diff(j) <= 3 || (i + j) % 11 == 0 {
                ((i * j + i + j) as f64 * 0.07).cos()
            } else {
                0.0
            }
        });
        // No symmetry in values or in pattern (MNA `G` stops being
        // symmetric once sources or inductors stamp incidence blocks), and
        // pairs (0, 2), (2, 0), (2, 1) hold no entry at all.
        let block_of = |i: usize| usize::from(i >= 12) + usize::from(i >= 21);
        let lopsided = Matrix::from_fn(40, 40, |i, j| {
            let coupled = matches!((block_of(i), block_of(j)), (0, 1) | (1, 0) | (1, 2));
            if (block_of(i) == block_of(j) && (i + 2 * j) % 3 != 1) || (coupled && (i + j) % 4 == 0)
            {
                ((3 * i + 5 * j) as f64 * 0.13).sin() + 0.01 * i as f64
            } else {
                0.0
            }
        });
        for (a, name) in [(&band, "band"), (&lopsided, "unsymmetric")] {
            assert_congruence(&exact, a, &format!("exact, {name}"));
            assert_congruence(&folded, a, &format!("folded, {name}"));
        }
    }

    #[test]
    fn exact_interface_block_has_bitwise_unit_rows() {
        // One 40-row block, 5 interface rows, one of them among the first
        // rows (where the QR inside the SVD pivots): every interface row
        // of the block basis is a unit vector and `+0.0` elsewhere, and
        // its identity column is `+0.0` on every other row.
        let mut state = 0x2545_f491_4f6c_dd1d_u64;
        let vg = Matrix::from_fn(40, 6, |_, _| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        });
        let iface = vec![2, 11, 12, 27, 39];
        let block = compress_block(&vg, 0, 40, 1e-12, None, &iface).unwrap();
        assert_eq!(block.shape(), (40, 5 + 6));
        for (t, &li) in iface.iter().enumerate() {
            for j in 0..block.ncols() {
                let want = if j == t { 1.0_f64 } else { 0.0 };
                assert_eq!(
                    block[(li, j)].to_bits(),
                    want.to_bits(),
                    "row {li}, column {j}"
                );
            }
            for i in (0..40).filter(|&i| i != li) {
                assert_eq!(
                    block[(i, t)].to_bits(),
                    0.0_f64.to_bits(),
                    "unit column {t}"
                );
            }
        }
        let gram = block.transpose().matmul(&block).unwrap();
        assert!(gram.sub(&Matrix::identity(11)).unwrap().norm_max() < 1e-13);
    }

    #[test]
    fn rank_tolerance_truncates() {
        // Two nearly identical columns → rank 1 slice at loose tolerance.
        let vg = Matrix::from_fn(4, 2, |i, j| (i + 1) as f64 + 1e-13 * j as f64);
        let p = BlockDiagProjector::from_global_basis(&vg, &[4], 1e-8, None).unwrap();
        assert_eq!(p.ncols(), 1);
    }

    #[test]
    fn bad_sizes_rejected() {
        let vg = demo_basis();
        assert!(BlockDiagProjector::from_global_basis(&vg, &[2, 2], 1e-12, None).is_err());
        assert!(BlockDiagProjector::from_global_basis(&vg, &[6, 0], 1e-12, None).is_err());
        let p = BlockDiagProjector::from_global_basis(&vg, &[3, 3], 1e-12, None).unwrap();
        assert!(p.project_square(&Matrix::zeros(5, 5)).is_err());
        assert!(p.project_input(&Matrix::zeros(5, 1)).is_err());
        assert!(p.project_output(&Matrix::zeros(1, 5)).is_err());
    }
}
