//! Moment-matching Krylov bases for descriptor models.
//!
//! For an expansion point `s₀`, the transfer function
//! `H(s) = L (G + sC)⁻¹ B` has the Taylor/moment structure generated by
//! `A = −(G + s₀C)⁻¹ C` and `R = (G + s₀C)⁻¹ B`: a projection basis whose
//! span contains `{R, AR, …, A^{q−1}R}` matches the first `q` block moments
//! of `H` around `s₀`. This module builds such a basis with a block Arnoldi
//! recurrence (modified Gram–Schmidt with reorthogonalization and
//! deflation), optionally over several expansion points.
//!
//! # Multi-shift fan-out
//!
//! Expansion points are mutually independent until their subspaces are
//! unioned, so the expensive work — one shifted factorization plus the
//! block recurrence per point — fans out over [`crate::par`] workers, each
//! point deflating only against its **own** candidates. One
//! [`crate::par::parallel_map_with`] item per point factors that point's
//! shift on the worker's reusable workspace and then runs its recurrence:
//! the recurrence needs its own factor and nothing else, so a per-point
//! map is all the parallelism this stage has.
//!
//! The per-point candidate sets are then merged into one orthonormal
//! global basis. The default [`OrthoKernel::Blocked`] kernel does this
//! with panel-blocked block-classical-Gram–Schmidt (BCGS2 on
//! `dense::gemm`-shaped kernels) over a **fixed binary merge tree** whose
//! shape depends only on the number of points — sibling merges at each
//! level run in parallel, and because every node is a pure function of its
//! children, the produced basis is bitwise-identical for any worker count.
//! [`OrthoKernel::Mgs`] retains the historical sequential
//! modified-Gram–Schmidt pass in point order as a testable oracle: both
//! kernels produce the same span with the same accepted/deflated column
//! counts at default tolerances.
//!
//! The pipeline has one shifted-solve path: [`global_krylov_basis_sparse`]
//! (and the engine's per-point pass) builds a [`ShiftedPencil`] once —
//! pattern union plus fill-reducing ordering — and refactors it numerically
//! per expansion point through a per-worker [`LuWorkspace`], which is what
//! makes `n ≫ 10⁴` grids tractable. A `jω` point's start block
//! `X₀ = (G + jω₀C)⁻¹B` also yields the full-model sample `L·X₀`
//! ([`PointCandidates::sample`]) the adaptive engine certifies against.
//! [`global_krylov_basis`] is the dense **reference**: the same two
//! recurrences over a dense LU of `G + s₀C` per point, one point after
//! another, which no pipeline stage calls and tests compare the sparse
//! path against.
//!
//! # Subnormals
//!
//! A shifted solve on a long, weakly coupled network decays geometrically
//! away from the ports, so its tail walks through the subnormal range
//! before it underflows: on the 10⁴-state bench ladder 418 412 of the
//! 640 000 candidate entries were exact zero and **124 078 subnormal**.
//! Every `dot`, `axpy`, `block_project` and Jacobi pass that touches a
//! subnormal operand takes a microcode assist, and that — not flops — is
//! why the cross-point merge of that build ran at 0.30 GFLOP/s on a
//! 14 GFLOP/s host and took 73–76 % of the reduce. Both recurrences
//! therefore flush each block right after its shifted solve
//! ([`flush_tiny`]: entries below `1.5e-154·‖v‖∞` become exact zero — a
//! pure function of the vector, relative perturbation 1e-154). On that ladder the merge fell 597 → 94 ms and
//! the one-worker reduce 0.78 → 0.25 s with the artifact's size and its
//! 1.9e-15 transfer error unchanged; a mesh has nothing small enough to
//! flush and reduces to the same bytes as before.

use crate::par;
use crate::transfer::{output_sample, CMatrix, ZLu};
use bdsm_linalg::vector::{flush_tiny, flush_tiny_complex};
use bdsm_linalg::{Complex64, DenseLu, LinalgError, Matrix, Result};
use bdsm_sparse::{CscMatrix, LuWorkspace, ShiftedPencil};

/// Options controlling the moment-matching basis.
#[derive(Debug, Clone)]
pub struct KrylovOpts {
    /// Real expansion points `s₀` (must keep `G + s₀C` nonsingular).
    pub expansion_points: Vec<f64>,
    /// Imaginary-axis expansion points `s₀ = jω₀`, given as angular
    /// frequencies `ω₀`. The complex Krylov vectors are split into real and
    /// imaginary parts (two basis columns each), keeping the basis — and
    /// hence the congruence transform — real while matching moments exactly
    /// where frequency-domain accuracy is wanted.
    pub jomega_points: Vec<f64>,
    /// Block moments matched per expansion point (`q ≥ 1`).
    pub moments_per_point: usize,
    /// Relative norm threshold under which a candidate direction is
    /// considered linearly dependent and deflated.
    pub deflation_tol: f64,
    /// Which orthogonalization kernel builds local sets and the merge.
    pub ortho: OrthoKernel,
}

impl Default for KrylovOpts {
    fn default() -> Self {
        KrylovOpts {
            expansion_points: vec![0.0],
            jomega_points: Vec::new(),
            moments_per_point: 4,
            deflation_tol: 1e-10,
            ortho: OrthoKernel::Blocked,
        }
    }
}

/// Orthogonalization kernel selection — see the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OrthoKernel {
    /// Panel-blocked block-classical-Gram–Schmidt (two GEMM-shaped
    /// projection passes per candidate panel plus a small intra-panel
    /// sweep) with a fixed binary merge tree across points. The default:
    /// parallelizes the merge and keeps flops in contiguous kernels.
    #[default]
    Blocked,
    /// Sequential modified Gram–Schmidt with reorthogonalization, one
    /// candidate at a time in point order — the historical formulation,
    /// retained as the parity oracle for the blocked kernel.
    Mgs,
}

/// One expansion point of either kind — the unit of work of the
/// multi-shift fan-out and the currency of the adaptive engine's greedy
/// selection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ExpansionPoint {
    /// Real shift `s₀` (must keep `G + s₀C` nonsingular).
    Real(f64),
    /// Imaginary-axis shift `s₀ = jω₀`, stored as the angular frequency.
    Jomega(f64),
}

/// One expansion point's share of the Basis stage: its locally
/// orthonormal candidate columns and — because the recurrence starts from
/// `X₀ = (G + s₀C)⁻¹B` — the full-model sample `H(s₀) = L·X₀` that the
/// same solve yields for free.
#[derive(Debug, Clone)]
pub struct PointCandidates {
    /// Candidate columns, orthonormal among themselves, in moment order.
    pub vectors: Vec<Vec<f64>>,
    /// `H(jω₀)` of the full model — bitwise what
    /// [`SparseTransferEvaluator::eval_with`](crate::transfer::SparseTransferEvaluator::eval_with)
    /// returns at `jω₀`. `None` for a real point or when no output map
    /// was supplied.
    pub sample: Option<CMatrix>,
}

/// The expansion points of a [`KrylovOpts`], in deterministic merge order
/// (real points first, then `jω` points, each in declaration order).
pub fn collect_points(opts: &KrylovOpts) -> Vec<ExpansionPoint> {
    opts.expansion_points
        .iter()
        .map(|&s| ExpansionPoint::Real(s))
        .chain(
            opts.jomega_points
                .iter()
                .map(|&w| ExpansionPoint::Jomega(w)),
        )
        .collect()
}

/// Builds a global orthonormal moment-matching basis for `(G, C, B)`
/// through dense LU factorizations — the reference the sparse path is
/// tested against, not a pipeline stage.
///
/// Returns an `n × q` matrix with orthonormal columns whose span contains
/// the union of the block Krylov subspaces of every expansion point.
///
/// # Errors
///
/// - [`LinalgError::InvalidArgument`] on shape mismatches, empty options, or
///   a fully deflated (empty) basis.
/// - [`LinalgError::Singular`] if `G + s₀C` is singular at some point.
pub fn global_krylov_basis(
    g: &Matrix,
    c: &Matrix,
    b: &Matrix,
    opts: &KrylovOpts,
) -> Result<Matrix> {
    let n = g.nrows();
    validate_krylov_args(g.is_square() && c.shape() == (n, n), n, b, opts)?;
    let points = collect_points(opts);
    let raw = candidates_for_points_dense(g, c, b, opts, &points);
    merge_candidates(raw, opts.deflation_tol, opts.ortho)
}

/// Per-point candidate sets through the dense kernels, one point after
/// another: a dense LU of `G + s₀C`, then that point's block recurrence.
fn candidates_for_points_dense(
    g: &Matrix,
    c: &Matrix,
    b: &Matrix,
    opts: &KrylovOpts,
    points: &[ExpansionPoint],
) -> Vec<Result<PointCandidates>> {
    let n = g.nrows();
    points
        .iter()
        .map(|&pt| match pt {
            ExpansionPoint::Real(s0) => {
                let lu = DenseLu::factor(&g.add(&c.scaled(s0))?)?;
                real_point_candidates(
                    b,
                    opts,
                    |vs| vs.iter().map(|v| lu.solve(v)).collect(),
                    |v| c.matvec(v),
                )
            }
            ExpansionPoint::Jomega(omega) => {
                let lu = ZLu::factor_shifted(g, c, Complex64::jomega(omega))?;
                // C is real and v complex: row-wise accumulation over dense C.
                let apply_c = |v: &[Complex64]| -> Result<Vec<Complex64>> {
                    Ok((0..n)
                        .map(|i| {
                            let row = c.row(i);
                            let mut acc = Complex64::ZERO;
                            for (cij, vj) in row.iter().zip(v) {
                                acc += *vj * *cij;
                            }
                            acc
                        })
                        .collect())
                };
                jomega_point_candidates(
                    b,
                    None,
                    opts,
                    |vs| solve_block(vs, |p, m| lu.solve_multi(p, m)),
                    |vs| solve_block(vs, |p, m| lu.solve_multi(p, m)),
                    apply_c,
                )
            }
        })
        .collect()
}

/// Builds the same global moment-matching basis as [`global_krylov_basis`],
/// but through the sparse factorization subsystem: the `G + s₀C` pattern
/// and its fill-reducing ordering are analysed once, and each expansion
/// point is a numeric-only sparse refactorization through its worker's
/// reusable [`LuWorkspace`].
///
/// # Errors
///
/// - [`LinalgError::InvalidArgument`] on shape mismatches, empty options,
///   or a fully deflated (empty) basis.
/// - [`LinalgError::Singular`] if `G + s₀C` is singular at some point.
pub fn global_krylov_basis_sparse(
    g: &CscMatrix<f64>,
    c: &CscMatrix<f64>,
    b: &Matrix,
    opts: &KrylovOpts,
) -> Result<Matrix> {
    let n = g.nrows();
    validate_krylov_args(g.is_square() && c.shape() == (n, n), n, b, opts)?;
    let pencil = ShiftedPencil::new(g, c)?;
    let points = collect_points(opts);
    let raw = candidates_for_points_sparse(&pencil, c, b, None, opts, &points);
    merge_candidates(raw, opts.deflation_tol, opts.ortho)
}

/// Per-point candidate sets through the sparse subsystem, one
/// [`crate::par::parallel_map_with`] item per expansion point with
/// per-worker [`LuWorkspace`] scratch. Takes the [`ShiftedPencil`] from the
/// caller so the engine's one symbolic analysis (the Plan stage's) serves
/// every point. With an output map `l`, every `jω` point also carries its
/// full-model sample `L·X₀` — the adaptive engine's reference sweep, at no
/// extra factorization or solve.
///
/// An item runs `ShiftedPencil::factor_*_with` — a numeric-only
/// refactorization through the worker's reusable workspace — and then the
/// shift's block recurrence, each under its own `krylov.point` span
/// (`stage = "factor"`, then `stage = "recur"`). Both are pure functions of
/// the expansion point, so results are bitwise-independent of the worker
/// schedule.
pub(crate) fn candidates_for_points_sparse(
    pencil: &ShiftedPencil,
    c: &CscMatrix<f64>,
    b: &Matrix,
    l: Option<&Matrix>,
    opts: &KrylovOpts,
    points: &[ExpansionPoint],
) -> Vec<Result<PointCandidates>> {
    par::parallel_map_with(
        points,
        || (LuWorkspace::<f64>::new(), LuWorkspace::<Complex64>::new()),
        |(ws_re, ws_cx), i, &pt| match pt {
            ExpansionPoint::Real(s0) => {
                let lu = {
                    let mut s = bdsm_obs::timing_span!("krylov.point", point = i, stage = "factor");
                    s.attr("s0", s0);
                    pencil.factor_real_with(s0, ws_re)?
                };
                let mut s = bdsm_obs::timing_span!("krylov.point", point = i, stage = "recur");
                s.attr("s0", s0);
                let out = real_point_candidates(
                    b,
                    opts,
                    |vs| solve_block(vs, |p, m| lu.solve_multi(p, m)),
                    |v| c.matvec(v),
                );
                // Freed inside the span, on the worker that allocated it.
                drop(lu);
                out
            }
            ExpansionPoint::Jomega(omega) => {
                let lu = {
                    let mut s = bdsm_obs::timing_span!("krylov.point", point = i, stage = "factor");
                    s.attr("omega", omega);
                    pencil.factor_complex_with(Complex64::jomega(omega), ws_cx)?
                };
                let mut s = bdsm_obs::timing_span!("krylov.point", point = i, stage = "recur");
                s.attr("omega", omega);
                let out = jomega_point_candidates(
                    b,
                    l,
                    opts,
                    |vs| solve_block(vs, |p, m| lu.solve_multi(p, m)),
                    |vs| solve_block(vs, |p, m| lu.solve_multi(p, m)),
                    |v| c.matvec_complex(v),
                );
                drop(lu);
                out
            }
        },
    )
}

/// Batches equal-length vectors through one multi-RHS solve over a
/// column-major panel — [`bdsm_sparse::SparseLu::solve_multi`] or
/// [`ZLu::solve_multi`] — lifting each entry into the factor's scalar
/// while packing: the real start block `B` of a `jω` point goes in as
/// `f64`, exactly as `solve_multi_real` would lift it. Both solvers are
/// bitwise-identical to per-vector solves, so batching changes no reduced
/// model.
fn solve_block<S: Copy, T: Copy + From<S>>(
    vs: &[Vec<S>],
    solve_multi: impl Fn(&[T], usize) -> Result<Vec<T>>,
) -> Result<Vec<Vec<T>>> {
    if vs.is_empty() {
        return Ok(Vec::new());
    }
    let n = vs[0].len();
    let mut panel = Vec::with_capacity(n * vs.len());
    for v in vs {
        panel.extend(v.iter().map(|&x| T::from(x)));
    }
    let x = solve_multi(&panel, vs.len())?;
    Ok(x.chunks_exact(n.max(1)).map(<[T]>::to_vec).collect())
}

fn validate_krylov_args(shapes_ok: bool, n: usize, b: &Matrix, opts: &KrylovOpts) -> Result<()> {
    if !shapes_ok {
        return Err(LinalgError::InvalidArgument {
            what: "krylov: G and C must be square with equal shape",
        });
    }
    if b.nrows() != n || b.ncols() == 0 {
        return Err(LinalgError::InvalidArgument {
            what: "krylov: B must have n rows and at least one column",
        });
    }
    if (opts.expansion_points.is_empty() && opts.jomega_points.is_empty())
        || opts.moments_per_point == 0
    {
        return Err(LinalgError::InvalidArgument {
            what: "krylov: need at least one expansion point and one moment",
        });
    }
    Ok(())
}

/// Merges per-point candidate sets into one orthonormal basis — the only
/// cross-point coupling, so the result depends on the fixed point order,
/// never on how the points were scheduled across workers.
pub(crate) fn merge_candidates(
    raw: Vec<Result<PointCandidates>>,
    tol: f64,
    kernel: OrthoKernel,
) -> Result<Matrix> {
    let mut sets = Vec::with_capacity(raw.len());
    for point in raw {
        sets.push(point?.vectors);
    }
    let sets: Vec<&[Vec<f64>]> = sets.iter().map(Vec::as_slice).collect();
    merge_candidate_sets(&sets, tol, kernel)
}

/// Merges **borrowed** per-point candidate sets (the adaptive engine
/// passes the active subset of its one pass, in promotion order) — the
/// same pass and set order as [`merge_candidates`], so a looked-up point
/// contributes exactly the columns it would have contributed in a single
/// fixed-shift call.
pub(crate) fn merge_candidate_sets(
    sets: &[&[Vec<f64>]],
    tol: f64,
    kernel: OrthoKernel,
) -> Result<Matrix> {
    match kernel {
        OrthoKernel::Mgs => merge_sets_mgs(sets, tol),
        OrthoKernel::Blocked => merge_sets_blocked(sets, tol),
    }
}

/// The oracle merge: sequential MGS over every candidate in point order.
fn merge_sets_mgs(sets: &[&[Vec<f64>]], tol: f64) -> Result<Matrix> {
    let mut basis: Vec<Vec<f64>> = Vec::new();
    for (i, set) in sets.iter().enumerate() {
        let _s = bdsm_obs::timing_span!("krylov.merge", point = i);
        for v in *set {
            let mut v = v.clone();
            if orthonormalize_against(&mut v, &basis, tol) {
                basis.push(v);
            }
        }
    }
    let _s = bdsm_obs::timing_span!("krylov.merge", point = sets.len());
    finish_merge(basis)
}

/// The default merge: per-point panels are pairwise-combined up a fixed
/// binary tree (adjacent siblings, left-to-right), every node absorbing
/// its right child's columns into its left child with the panel-blocked
/// kernel. The tree shape depends only on the number of sets, each node is
/// a pure function of its children, and nodes of one level fan out over
/// [`crate::par`] — so the basis is bitwise-identical for any worker
/// count, and column order still follows point order.
fn merge_sets_blocked(sets: &[&[Vec<f64>]], tol: f64) -> Result<Matrix> {
    let Some(n) = sets.iter().find_map(|s| s.first().map(Vec::len)) else {
        return finish_merge(Vec::new());
    };
    let mut nodes: Vec<Panel> = {
        let _s = bdsm_obs::timing_span!("krylov.merge", level = 0u64);
        sets.iter().map(|s| Panel::from_cols(n, s)).collect()
    };
    let mut level = 1u64;
    while nodes.len() > 1 {
        let mut pairs: Vec<(Panel, Option<Panel>)> = Vec::with_capacity(nodes.len().div_ceil(2));
        let mut it = nodes.drain(..);
        while let Some(left) = it.next() {
            pairs.push((left, it.next()));
        }
        drop(it);
        nodes = par::parallel_map(&pairs, |i, (left, right)| {
            let Some(right) = right else {
                return left.clone(); // Odd node rides up unchanged.
            };
            let _s = bdsm_obs::timing_span!(
                "krylov.merge",
                level = level,
                node = i as u64,
                left = left.cols as u64,
                right = right.cols as u64,
            );
            let mut q = left.clone();
            let mut scratch = Vec::new();
            for chunk in right.to_cols().chunks(ORTHO_PANEL) {
                blocked_absorb(&mut q, chunk, tol, &mut scratch);
            }
            q
        });
        level += 1;
    }
    let root = nodes.pop().unwrap_or_else(|| Panel::empty(0));
    // Unpacking the root into the basis matrix is merge time too (≈ 8 ms
    // for 64 columns at n = 10⁴, visible now that the tree itself is fast).
    let _s = bdsm_obs::timing_span!("krylov.merge", level = level);
    finish_merge(root.to_cols())
}

fn finish_merge(basis: Vec<Vec<f64>>) -> Result<Matrix> {
    if basis.is_empty() {
        return Err(LinalgError::InvalidArgument {
            what: "krylov: all start vectors deflated; basis is empty",
        });
    }
    Ok(Matrix::from_cols(&basis))
}

/// Candidate-panel width of the blocked kernel: candidates are absorbed
/// this many columns at a time, so the two projection passes stay
/// GEMM-shaped while the intra-panel cleanup stays tiny.
const ORTHO_PANEL: usize = 8;

/// A contiguous column-major panel of orthonormal basis columns
/// (leading dimension = `n`) — the blocked kernel's working currency.
#[derive(Clone)]
struct Panel {
    n: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Panel {
    fn empty(n: usize) -> Panel {
        Panel {
            n,
            cols: 0,
            data: Vec::new(),
        }
    }

    fn from_cols(n: usize, cols: &[Vec<f64>]) -> Panel {
        let mut data = Vec::with_capacity(n * cols.len());
        for c in cols {
            data.extend_from_slice(c);
        }
        Panel {
            n,
            cols: cols.len(),
            data,
        }
    }

    fn push_col(&mut self, v: &[f64]) {
        debug_assert_eq!(v.len(), self.n);
        self.data.extend_from_slice(v);
        self.cols += 1;
    }

    fn col(&self, j: usize) -> &[f64] {
        &self.data[j * self.n..(j + 1) * self.n]
    }

    fn to_cols(&self) -> Vec<Vec<f64>> {
        (0..self.cols).map(|j| self.col(j).to_vec()).collect()
    }
}

/// Absorbs a panel of candidate columns into the orthonormal panel `q`:
/// two block-classical-Gram–Schmidt projection passes against `q`
/// ([`bdsm_linalg::block_project`] — `H = QᵀV; V -= QH` on the contiguous
/// panel), then a sequential intra-panel MGS sweep with the oracle's
/// deflation rule (remainder ≤ `tol` × entry norm deflates). Accepted
/// columns are normalized and appended to `q`; returns how many were.
fn blocked_absorb(q: &mut Panel, cands: &[Vec<f64>], tol: f64, scratch: &mut Vec<f64>) -> usize {
    let n = q.n;
    let pc = cands.len();
    if pc == 0 {
        return 0;
    }
    let norm0: Vec<f64> = cands
        .iter()
        .map(|v| bdsm_linalg::vector::norm2(v))
        .collect();
    let mut v = Vec::with_capacity(n * pc);
    for c in cands {
        debug_assert_eq!(c.len(), n);
        v.extend_from_slice(c);
    }
    if q.cols > 0 {
        // Two passes = block reorthogonalization, the panel analogue of the
        // oracle's second MGS sweep.
        for _ in 0..2 {
            bdsm_linalg::block_project(n, q.cols, &q.data, pc, &mut v, scratch);
        }
    }
    let first_new = q.cols;
    let mut accepted = 0;
    for j in 0..pc {
        if norm0[j] == 0.0 {
            continue;
        }
        let col = &mut v[j * n..(j + 1) * n];
        // Intra-panel cleanup: two MGS passes against the columns this very
        // panel contributed (everything older is already projected out by
        // the block passes)...
        for _ in 0..2 {
            for t in first_new..q.cols {
                let qt = q.col(t);
                let h = bdsm_linalg::vector::dot(qt, col);
                bdsm_linalg::vector::axpy(-h, qt, col);
            }
        }
        // ...then one sweep over the whole accumulated panel: the intra
        // passes can shrink the column and re-magnify ε-level components
        // against the older columns, and this final sweep restores
        // ε-orthogonality relative to the column's *final* norm.
        for t in 0..q.cols {
            let qt = q.col(t);
            let h = bdsm_linalg::vector::dot(qt, col);
            bdsm_linalg::vector::axpy(-h, qt, col);
        }
        let norm1 = bdsm_linalg::vector::normalize(col, 0.0);
        if norm1 > tol * norm0[j] {
            q.push_col(col);
            accepted += 1;
        }
    }
    accepted
}

/// A point-local accumulating basis, dispatching between the oracle MGS
/// path and the blocked panel path so both recurrences stay
/// kernel-agnostic. `absorb` returns the accepted (orthonormalized)
/// columns of the block, which the real recurrence feeds forward.
enum LocalBasis {
    Mgs(Vec<Vec<f64>>),
    Blocked { panel: Panel, scratch: Vec<f64> },
}

impl LocalBasis {
    fn new(kernel: OrthoKernel, n: usize) -> LocalBasis {
        match kernel {
            OrthoKernel::Mgs => LocalBasis::Mgs(Vec::new()),
            OrthoKernel::Blocked => LocalBasis::Blocked {
                panel: Panel::empty(n),
                scratch: Vec::new(),
            },
        }
    }

    fn absorb(&mut self, block: Vec<Vec<f64>>, tol: f64) -> Vec<Vec<f64>> {
        match self {
            LocalBasis::Mgs(basis) => {
                let mut kept = Vec::with_capacity(block.len());
                for mut v in block {
                    if orthonormalize_against(&mut v, basis, tol) {
                        basis.push(v.clone());
                        kept.push(v);
                    }
                }
                kept
            }
            LocalBasis::Blocked { panel, scratch } => {
                let mut kept = Vec::new();
                for chunk in block.chunks(ORTHO_PANEL) {
                    let before = panel.cols;
                    blocked_absorb(panel, chunk, tol, scratch);
                    for t in before..panel.cols {
                        kept.push(panel.col(t).to_vec());
                    }
                }
                kept
            }
        }
    }

    fn into_cols(self) -> Vec<Vec<f64>> {
        match self {
            LocalBasis::Mgs(basis) => basis,
            LocalBasis::Blocked { panel, .. } => panel.to_cols(),
        }
    }
}

/// Computes one real expansion point's locally-orthonormal candidate set,
/// given the point's blocked shifted solve `(G + s₀C)⁻¹·` (multi-RHS — the
/// whole start block and every recurrence block go through one batched
/// triangular pass) and the `C·` product — only those two operators differ
/// between the sparse subsystem and the dense reference.
fn real_point_candidates(
    b: &Matrix,
    opts: &KrylovOpts,
    solve_block: impl Fn(&[Vec<f64>]) -> Result<Vec<Vec<f64>>>,
    apply_c: impl Fn(&[f64]) -> Result<Vec<f64>>,
) -> Result<PointCandidates> {
    let mut local = LocalBasis::new(opts.ortho, b.nrows());
    // Start block R = (G + s0 C)^{-1} B, all inputs in one batched solve.
    let bcols: Vec<Vec<f64>> = (0..b.ncols()).map(|j| b.col(j)).collect();
    let mut block = solve_block(&bcols)?;
    for moment in 0..opts.moments_per_point {
        if moment > 0 {
            // Next block: v ← (G + s0 C)^{-1} C v. Using the
            // orthonormalized previous block preserves the Krylov span.
            let rhs: Vec<Vec<f64>> = block.iter().map(|v| apply_c(v)).collect::<Result<_>>()?;
            block = solve_block(&rhs)?;
        }
        block.iter_mut().for_each(|v| flush_tiny(v));
        let kept = local.absorb(block, opts.deflation_tol);
        if kept.is_empty() {
            break; // The subspace is exhausted at this point.
        }
        block = kept;
    }
    Ok(PointCandidates {
        vectors: local.into_cols(),
        sample: None,
    })
}

/// Computes one imaginary-axis expansion point's (`s₀ = jω₀`) candidate
/// set, splitting each complex vector into real and imaginary directions
/// while the complex recurrence keeps running on the raw vectors. The
/// start block is `X₀ = (G + jω₀C)⁻¹B`, so with an output map the point's
/// full-model sample `H(jω₀) = L·X₀` falls out of the same solve.
fn jomega_point_candidates(
    b: &Matrix,
    l: Option<&Matrix>,
    opts: &KrylovOpts,
    solve_start_block: impl Fn(&[Vec<f64>]) -> Result<Vec<Vec<Complex64>>>,
    solve_block: impl Fn(&[Vec<Complex64>]) -> Result<Vec<Vec<Complex64>>>,
    apply_c: impl Fn(&[Complex64]) -> Result<Vec<Complex64>>,
) -> Result<PointCandidates> {
    let mut local = LocalBasis::new(opts.ortho, b.nrows());
    // Complex start block R = (G + jω₀C)^{-1} B, batched over the inputs.
    let bcols: Vec<Vec<f64>> = (0..b.ncols()).map(|j| b.col(j)).collect();
    let mut block = solve_start_block(&bcols)?;
    // Sampled before the flush below, so it is the evaluator's H bit for bit.
    let sample = l.map(|l| output_sample(l, block.len(), block.iter().map(Vec::as_slice)));
    for moment in 0..opts.moments_per_point {
        if moment > 0 {
            // v ← (G + jω₀C)^{-1} C v, with C real and v complex.
            let rhs: Vec<Vec<Complex64>> =
                block.iter().map(|v| apply_c(v)).collect::<Result<_>>()?;
            block = solve_block(&rhs)?;
        }
        block.iter_mut().for_each(|v| flush_tiny_complex(v));
        let parts: Vec<Vec<f64>> = block
            .iter()
            .flat_map(|v| {
                [
                    v.iter().map(|z| z.re).collect::<Vec<f64>>(),
                    v.iter().map(|z| z.im).collect::<Vec<f64>>(),
                ]
            })
            .collect();
        if local.absorb(parts, opts.deflation_tol).is_empty() {
            break;
        }
    }
    Ok(PointCandidates {
        vectors: local.into_cols(),
        sample,
    })
}

/// Orthogonalizes `v` against `basis` (two MGS passes) and normalizes it.
///
/// Returns `false` — leaving `v` unspecified — when the remainder falls
/// below `tol` times the original norm (deflation).
fn orthonormalize_against(v: &mut [f64], basis: &[Vec<f64>], tol: f64) -> bool {
    let norm0 = bdsm_linalg::vector::norm2(v);
    if norm0 == 0.0 {
        return false;
    }
    // Two passes below = one re-orthogonalization per accepted candidate.
    for _ in 0..2 {
        for q in basis {
            let h = bdsm_linalg::vector::dot(q, v);
            bdsm_linalg::vector::axpy(-h, q, v);
        }
    }
    let norm1 = bdsm_linalg::vector::normalize(v, 0.0);
    norm1 > tol * norm0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diag_system(n: usize) -> (Matrix, Matrix, Matrix) {
        let g = Matrix::from_fn(n, n, |i, j| {
            if i == j {
                2.0 + i as f64
            } else if i.abs_diff(j) == 1 {
                -1.0
            } else {
                0.0
            }
        });
        let c = Matrix::from_fn(n, n, |i, j| if i == j { 1.0 + 0.1 * i as f64 } else { 0.0 });
        let mut b = Matrix::zeros(n, 1);
        b[(0, 0)] = 1.0;
        (g, c, b)
    }

    #[test]
    fn basis_is_orthonormal() {
        let (g, c, b) = diag_system(12);
        let opts = KrylovOpts {
            expansion_points: vec![1.0],
            jomega_points: vec![],
            moments_per_point: 5,
            deflation_tol: 1e-10,
            ortho: Default::default(),
        };
        let v = global_krylov_basis(&g, &c, &b, &opts).unwrap();
        assert_eq!(v.nrows(), 12);
        assert_eq!(v.ncols(), 5);
        let vtv = v.transpose().matmul(&v).unwrap();
        let err = vtv.sub(&Matrix::identity(5)).unwrap().norm_max();
        assert!(err < 1e-12, "basis not orthonormal: {err}");
    }

    #[test]
    fn basis_contains_moment_directions() {
        // The first moment direction (G + s0 C)^{-1} b must lie in span(V):
        // ‖(I − V Vᵀ) r‖ ≈ 0.
        let (g, c, b) = diag_system(10);
        let s0 = 2.0;
        let opts = KrylovOpts {
            expansion_points: vec![s0],
            jomega_points: vec![],
            moments_per_point: 3,
            deflation_tol: 1e-12,
            ortho: Default::default(),
        };
        let v = global_krylov_basis(&g, &c, &b, &opts).unwrap();
        let shifted = g.add(&c.scaled(s0)).unwrap();
        let r = DenseLu::factor(&shifted).unwrap().solve(&b.col(0)).unwrap();
        let coeffs = v.transpose().matvec(&r).unwrap();
        let proj = v.matvec(&coeffs).unwrap();
        let resid: Vec<f64> = r.iter().zip(&proj).map(|(a, p)| a - p).collect();
        let rel = bdsm_linalg::vector::norm2(&resid) / bdsm_linalg::vector::norm2(&r);
        assert!(rel < 1e-12, "moment direction escaped the basis: {rel}");
    }

    #[test]
    fn deflation_caps_basis_size() {
        // With C = 0 the recurrence dies after the first moment: every
        // candidate beyond it is linearly dependent (in fact zero).
        let (g, _, b) = diag_system(8);
        let c = Matrix::zeros(8, 8);
        let opts = KrylovOpts {
            expansion_points: vec![0.0],
            jomega_points: vec![],
            moments_per_point: 6,
            deflation_tol: 1e-10,
            ortho: Default::default(),
        };
        let v = global_krylov_basis(&g, &c, &b, &opts).unwrap();
        assert_eq!(v.ncols(), 1);
    }

    #[test]
    fn multi_point_union_is_larger() {
        let (g, c, b) = diag_system(16);
        let one = KrylovOpts {
            expansion_points: vec![1.0],
            jomega_points: vec![],
            moments_per_point: 2,
            deflation_tol: 1e-10,
            ortho: Default::default(),
        };
        let two = KrylovOpts {
            expansion_points: vec![1.0, 100.0],
            jomega_points: vec![],
            moments_per_point: 2,
            deflation_tol: 1e-10,
            ortho: Default::default(),
        };
        let v1 = global_krylov_basis(&g, &c, &b, &one).unwrap();
        let v2 = global_krylov_basis(&g, &c, &b, &two).unwrap();
        assert!(v2.ncols() > v1.ncols());
    }

    #[test]
    fn rejects_bad_arguments() {
        let (g, c, b) = diag_system(4);
        let mut opts = KrylovOpts::default();
        opts.expansion_points.clear();
        assert!(global_krylov_basis(&g, &c, &b, &opts).is_err());
        let opts = KrylovOpts {
            moments_per_point: 0,
            ..KrylovOpts::default()
        };
        assert!(global_krylov_basis(&g, &c, &b, &opts).is_err());
        assert!(global_krylov_basis(&g, &c, &Matrix::zeros(4, 0), &KrylovOpts::default()).is_err());
        assert!(global_krylov_basis(&Matrix::zeros(3, 4), &c, &b, &KrylovOpts::default()).is_err());
    }

    #[test]
    fn sparse_basis_spans_dense_basis() {
        // Same options through the dense reference and the sparse path: the
        // spans must coincide, so every dense basis column must be
        // reproduced by the sparse one.
        let (g, c, b) = diag_system(14);
        let opts = KrylovOpts {
            expansion_points: vec![1.0, 50.0],
            jomega_points: vec![10.0],
            moments_per_point: 2,
            deflation_tol: 1e-10,
            ortho: Default::default(),
        };
        let vd = global_krylov_basis(&g, &c, &b, &opts).unwrap();
        let vs = global_krylov_basis_sparse(
            &CscMatrix::from_dense(&g, 0.0),
            &CscMatrix::from_dense(&c, 0.0),
            &b,
            &opts,
        )
        .unwrap();
        assert_eq!(vd.ncols(), vs.ncols());
        for j in 0..vd.ncols() {
            let col = vd.col(j);
            let coeffs = vs.transpose().matvec(&col).unwrap();
            let proj = vs.matvec(&coeffs).unwrap();
            let resid: Vec<f64> = col.iter().zip(&proj).map(|(a, p)| a - p).collect();
            let rel = bdsm_linalg::vector::norm2(&resid);
            assert!(
                rel < 1e-10,
                "dense direction {j} escaped sparse span: {rel}"
            );
        }
    }

    #[test]
    fn sparse_basis_rejects_bad_arguments() {
        let (g, c, b) = diag_system(6);
        let gs = CscMatrix::from_dense(&g, 0.0);
        let cs = CscMatrix::from_dense(&c, 0.0);
        let mut opts = KrylovOpts::default();
        opts.expansion_points.clear();
        assert!(global_krylov_basis_sparse(&gs, &cs, &b, &opts).is_err());
        assert!(
            global_krylov_basis_sparse(&gs, &cs, &Matrix::zeros(6, 0), &KrylovOpts::default())
                .is_err()
        );
        let c5 = CscMatrix::from_dense(&Matrix::zeros(5, 5), 0.0);
        assert!(global_krylov_basis_sparse(&gs, &c5, &b, &KrylovOpts::default()).is_err());
    }

    #[test]
    fn singular_shift_reported() {
        // G singular and s0 = 0 → factorization must fail loudly.
        let g = Matrix::zeros(3, 3);
        let c = Matrix::identity(3);
        let mut b = Matrix::zeros(3, 1);
        b[(0, 0)] = 1.0;
        let opts = KrylovOpts {
            expansion_points: vec![0.0],
            jomega_points: vec![],
            moments_per_point: 1,
            deflation_tol: 1e-10,
            ortho: Default::default(),
        };
        assert!(matches!(
            global_krylov_basis(&g, &c, &b, &opts),
            Err(LinalgError::Singular { .. })
        ));
    }

    #[test]
    fn point_order_not_schedule_determines_basis() {
        // Identical options must give a bitwise-identical basis however the
        // point fan-out is scheduled; here we at least pin repeatability,
        // and the reduction-level tests pin thread-count invariance.
        let (g, c, b) = diag_system(18);
        let opts = KrylovOpts {
            expansion_points: vec![1.0, 30.0],
            jomega_points: vec![5.0, 80.0],
            moments_per_point: 2,
            deflation_tol: 1e-10,
            ortho: Default::default(),
        };
        let v1 = global_krylov_basis(&g, &c, &b, &opts).unwrap();
        let v2 = global_krylov_basis(&g, &c, &b, &opts).unwrap();
        assert_eq!(v1.as_slice(), v2.as_slice());
    }
}
