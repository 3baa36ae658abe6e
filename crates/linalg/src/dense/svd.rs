//! Singular value decomposition: Householder QR first, one-sided Jacobi
//! on the triangular factor.

use super::blockqr::gemm_tn_acc;
use super::matrix::Matrix;
use crate::error::{LinalgError, Result};
use crate::vector;

/// Thin SVD `A = U Σ Vᵀ` of an `m × n` matrix (`m ≥ n` internally; a wide
/// input is handled as its transpose, whose column buffers are its rows).
///
/// The reduction engine calls this once per block per greedy round on the
/// block's row slice of the global Krylov basis — thousands of rows by a
/// few dozen columns — so the tall dimension must be paid once, not once
/// per Jacobi sweep. The input is therefore factored `A = QR` by
/// Householder reflections on contiguous column buffers
/// (`2mn²` flops), the one-sided Jacobi iteration — simple, and very
/// accurate for small singular values of column-scaled inputs, which
/// Householder QR preserves column by column — runs on the `n × n`
/// factor `R = U_R Σ Vᵀ` (`O(n³)` per sweep instead of `O(mn²)`), and
/// `U = Q·U_R` comes from applying the reflectors back (`4mn²`).
///
/// **Zero rows.** Jacobi rotations only ever combine columns, so tall-
/// slice Jacobi returned an exactly-zero row of `A` as an exactly-zero
/// row of `U`. Householder reflectors do not: a zero row among the first
/// `n` becomes a pivot row and comes back as round-off (`~1e-17`). A
/// caller that needs exact zeros (the exact-interface projector) must
/// leave those rows out and scatter `U` back itself.
#[derive(Debug, Clone)]
pub struct Svd {
    /// Left singular vectors, `m × r` with `r = min(m, n)`.
    pub u: Matrix,
    /// Singular values, descending.
    pub sigma: Vec<f64>,
    /// Right singular vectors, `n × r` (columns, not transposed).
    pub v: Matrix,
}

/// Sweep budget of the Jacobi iteration (ultimately quadratic convergence
/// puts finite inputs far inside it).
const MAX_SWEEPS: usize = 60;

impl Svd {
    /// Computes the thin SVD of `a`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NotConverged`] if Jacobi sweeps fail to reduce
    /// off-diagonal correlation below tolerance (practically unreachable for
    /// finite inputs).
    pub fn compute(a: &Matrix) -> Result<Self> {
        let (m, n) = a.shape();
        // A row-major buffer is the column-major buffer of its transpose,
        // so the tall orientation's columns are one transpose away for a
        // tall input and already in place for a wide one.
        if m >= n {
            let (u, sigma, v) = thin_svd(a.transpose(), MAX_SWEEPS)?;
            Ok(Svd { u, sigma, v })
        } else {
            // A = U Σ Vᵀ  ⇔  Aᵀ = V Σ Uᵀ.
            let (v, sigma, u) = thin_svd(a.clone(), MAX_SWEEPS)?;
            Ok(Svd { u, sigma, v })
        }
    }

    /// Numerical rank: number of σᵢ > `tol * σ₀`.
    pub fn rank(&self, tol: f64) -> usize {
        let s0 = self.sigma.first().copied().unwrap_or(0.0);
        self.sigma.iter().filter(|&&s| s > tol * s0).count()
    }

    /// Reconstructs `A ≈ U_k Σ_k V_kᵀ` keeping the leading `k` singular triplets.
    pub fn truncate(&self, k: usize) -> Matrix {
        let k = k.min(self.sigma.len());
        let m = self.u.nrows();
        let n = self.v.nrows();
        let mut out = Matrix::zeros(m, n);
        for t in 0..k {
            let s = self.sigma[t];
            for i in 0..m {
                let uis = self.u[(i, t)] * s;
                if uis == 0.0 {
                    continue;
                }
                for j in 0..n {
                    out[(i, j)] += uis * self.v[(j, t)];
                }
            }
        }
        out
    }
}

/// Thin SVD of the tall `m × n` matrix whose **columns are the rows of
/// `cols`** (`n × m` row-major, i.e. the tall matrix's column-major
/// buffer): `(U, σ, V)` with `U` `m × n` and `V` `n × n`.
fn thin_svd(mut cols: Matrix, max_sweeps: usize) -> Result<(Matrix, Vec<f64>, Matrix)> {
    let (n, m) = cols.shape();
    debug_assert!(m >= n);
    let tau = householder_qr(cols.as_mut_slice(), m, n);
    let mut r = vec![0.0; n * n];
    for j in 0..n {
        r[j * n..=j * n + j].copy_from_slice(&cols.row(j)[..=j]);
    }
    let (ur, sigma, v) = jacobi_svd(r, n, n, max_sweeps)?;
    // U = Q·[U_R; 0]. A null direction's column is zero and stays zero.
    let mut u = Matrix::zeros(n, m);
    for j in 0..n {
        u.row_mut(j)[..n].copy_from_slice(&ur[j * n..(j + 1) * n]);
    }
    apply_q(cols.as_slice(), &tau, u.as_mut_slice(), m, n);
    Ok((u.transpose(), sigma, v))
}

/// Householder QR in place on a column-major `m × n` buffer (`m ≥ n`,
/// leading dimension `m`). On return column `k` holds `R[..=k, k]` on and
/// above the diagonal and, below it, the tail of the reflector
/// `H_k = I − τ_k v vᵀ`, `v = [1; tail]`; returns the `τ_k` (`0` where the
/// column was already zero below the diagonal and `H_k = I`).
fn householder_qr(w: &mut [f64], m: usize, n: usize) -> Vec<f64> {
    let mut tau = vec![0.0; n];
    let mut s = Vec::new();
    for k in 0..n {
        let (head, trailing) = w[k * m..].split_at_mut(m);
        let x = &mut head[k..];
        let alpha = x[0];
        let xnorm = vector::norm2(&x[1..]);
        if xnorm == 0.0 {
            continue;
        }
        let beta = -alpha.signum() * alpha.hypot(xnorm);
        tau[k] = (beta - alpha) / beta;
        // |α − β| ≥ ‖x‖ > 0, and dividing (rather than scaling by the
        // reciprocal) cannot overflow on a subnormal column.
        let d = alpha - beta;
        for v in &mut x[1..] {
            *v /= d;
        }
        x[0] = beta;
        if k + 1 < n {
            apply_reflector(tau[k], &x[1..], &mut trailing[k..], m, n - k - 1, &mut s);
        }
    }
    tau
}

/// Overwrites the column-major `m × cols` panel `x` with `Q·x`, where
/// `Q = H₀ H₁ ⋯ H_{n−1}` are the reflectors [`householder_qr`] left in `qr`.
fn apply_q(qr: &[f64], tau: &[f64], x: &mut [f64], m: usize, cols: usize) {
    let mut s = Vec::new();
    for k in (0..tau.len()).rev() {
        let tail = &qr[k * m + k + 1..(k + 1) * m];
        apply_reflector(tau[k], tail, &mut x[k..], m, cols, &mut s);
    }
}

/// Applies `H = I − τ v vᵀ`, `v = [1; tail]`, to `cols` columns of the
/// column-major panel `c` (leading dimension `ld`), whose first row is the
/// reflector's pivot row: `sⱼ = τ·(vᵀcⱼ)` for the whole panel through the
/// four-lane [`gemm_tn_acc`], then one `axpy` per column. `s` is scratch.
fn apply_reflector(
    tau: f64,
    tail: &[f64],
    c: &mut [f64],
    ld: usize,
    cols: usize,
    s: &mut Vec<f64>,
) {
    if tau == 0.0 {
        return;
    }
    let t = tail.len();
    s.clear();
    s.resize(cols, 0.0);
    gemm_tn_acc(t, 1, cols, tail, t, &c[1..], ld, s, 1);
    for (j, &sj) in s.iter().enumerate() {
        let col = &mut c[j * ld..j * ld + t + 1];
        let f = tau * (col[0] + sj);
        col[0] -= f;
        vector::axpy(-f, tail, &mut col[1..]);
    }
}

/// One-sided Jacobi SVD of the column-major `rows × n` buffer `w`
/// (`rows ≥ n`): `(U, σ, V)` with `U` column-major `rows × n`, `σ`
/// descending and `V` `n × n`; a zero `σ` leaves its `U` column zero.
fn jacobi_svd(
    mut w: Vec<f64>,
    rows: usize,
    n: usize,
    max_sweeps: usize,
) -> Result<(Vec<f64>, Vec<f64>, Matrix)> {
    let v = jacobi_sweeps(&mut w, rows, n, max_sweeps)?;
    // Column norms are the singular values.
    let norms: Vec<f64> = w.chunks_exact(rows.max(1)).map(vector::norm2).collect();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&i, &j| norms[j].partial_cmp(&norms[i]).unwrap());
    let mut u = vec![0.0; rows * n];
    let mut vv = Matrix::zeros(n, n);
    let mut sigma = Vec::with_capacity(n);
    for (dst, &src) in order.iter().enumerate() {
        let s = norms[src];
        sigma.push(s);
        if s > 0.0 {
            let from = &w[src * rows..(src + 1) * rows];
            for (x, &y) in u[dst * rows..(dst + 1) * rows].iter_mut().zip(from) {
                *x = y / s;
            }
        }
        for i in 0..n {
            vv[(i, dst)] = v[(i, src)];
        }
    }
    Ok((u, sigma, vv))
}

/// Cyclic one-sided Jacobi on the columns of the column-major `rows × n`
/// buffer `w`: rotates column pairs until every pair is orthogonal to
/// working precision, and returns the accumulated right rotations `V`
/// (so `w_out = w_in · V`, with mutually orthogonal columns).
fn jacobi_sweeps(w: &mut [f64], rows: usize, n: usize, max_sweeps: usize) -> Result<Matrix> {
    let mut v = Matrix::identity(n);
    let tol = 1e-14;
    let mut off = 0.0_f64;
    for _ in 0..max_sweeps {
        off = 0.0;
        for p in 0..n {
            for q in (p + 1)..n {
                let (lo, hi) = w.split_at_mut(q * rows);
                let (wp, wq) = (&mut lo[p * rows..(p + 1) * rows], &mut hi[..rows]);
                let alpha = vector::dot(wp, wp);
                let beta = vector::dot(wq, wq);
                let gamma = vector::dot(wp, wq);
                // A rank-deficient input (e.g. an interface-zeroed
                // projector slice) drives redundant columns denormal;
                // once `α·β` underflows the pair is numerically null —
                // treat it as orthogonal instead of letting `γ/denom`
                // turn into 0/0 and poison the convergence metric.
                let denom = (alpha * beta).sqrt();
                if !(denom > 0.0 && denom.is_finite()) {
                    continue;
                }
                off = off.max(gamma.abs() / denom);
                if gamma.abs() <= tol * denom {
                    continue;
                }
                // Jacobi rotation zeroing the (p,q) correlation. For
                // huge |ζ| (a null column against a dominant one —
                // routine for rank-deficient inputs) `ζ²` overflows to
                // ∞ and the textbook formula degenerates to t = 0, an
                // identity rotation that stalls the sweep; use the
                // asymptote t → 1/(2ζ) there instead.
                let zeta = (beta - alpha) / (2.0 * gamma);
                let t = if zeta.abs() > 1.0e150 {
                    0.5 / zeta
                } else {
                    zeta.signum() / (zeta.abs() + (1.0 + zeta * zeta).sqrt())
                };
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = c * t;
                for (xp, xq) in wp.iter_mut().zip(wq.iter_mut()) {
                    let tp = *xp;
                    *xp = c * tp - s * *xq;
                    *xq = s * tp + c * *xq;
                }
                for i in 0..n {
                    let vp = v[(i, p)];
                    let vq = v[(i, q)];
                    v[(i, p)] = c * vp - s * vq;
                    v[(i, q)] = s * vp + c * vq;
                }
            }
        }
        if off <= tol {
            return Ok(v);
        }
    }
    Err(LinalgError::NotConverged {
        method: "jacobi-svd",
        iterations: max_sweeps,
        residual: off,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_orthonormal_cols(q: &Matrix, k: usize, tol: f64) {
        for a in 0..k {
            for b in a..k {
                let d = vector::dot(&q.col(a), &q.col(b));
                let want = if a == b { 1.0 } else { 0.0 };
                assert!((d - want).abs() < tol, "col {a}·col {b} = {d}");
            }
        }
    }

    #[test]
    fn diagonal_matrix_svd() {
        let a = Matrix::from_rows(&[&[3.0, 0.0], &[0.0, 5.0], &[0.0, 0.0]]);
        let svd = Svd::compute(&a).unwrap();
        assert!((svd.sigma[0] - 5.0).abs() < 1e-13);
        assert!((svd.sigma[1] - 3.0).abs() < 1e-13);
    }

    #[test]
    fn reconstruction_tall() {
        let a = Matrix::from_fn(6, 4, |i, j| ((i as f64 + 1.0) * (j as f64 + 0.5)).sin());
        let svd = Svd::compute(&a).unwrap();
        let back = svd.truncate(4);
        assert!(back.sub(&a).unwrap().norm_max() < 1e-12);
        assert_orthonormal_cols(&svd.u, svd.rank(1e-12), 1e-12);
        assert_orthonormal_cols(&svd.v, 4, 1e-12);
    }

    #[test]
    fn reconstruction_wide() {
        let a = Matrix::from_fn(3, 7, |i, j| {
            (i * 7 + j) as f64 * 0.1 + if i == j { 1.0 } else { 0.0 }
        });
        let svd = Svd::compute(&a).unwrap();
        let back = svd.truncate(3);
        assert!(back.sub(&a).unwrap().norm_max() < 1e-12);
    }

    #[test]
    fn rank_one_matrix() {
        // a = u vᵀ with u = [1,2,3]ᵀ, v = [4,5]ᵀ.
        let a = Matrix::from_rows(&[&[4.0, 5.0], &[8.0, 10.0], &[12.0, 15.0]]);
        let svd = Svd::compute(&a).unwrap();
        assert_eq!(svd.rank(1e-10), 1);
        let expect = (14.0_f64 * 41.0).sqrt(); // ‖u‖‖v‖
        assert!((svd.sigma[0] - expect).abs() < 1e-12);
        let back = svd.truncate(1);
        assert!(back.sub(&a).unwrap().norm_max() < 1e-12);
    }

    #[test]
    fn singular_values_are_descending() {
        let a = Matrix::from_fn(8, 5, |i, j| ((3 * i + 2 * j) as f64).cos() * 2.0);
        let svd = Svd::compute(&a).unwrap();
        for w in svd.sigma.windows(2) {
            assert!(w[0] >= w[1] - 1e-15);
        }
    }

    #[test]
    fn truncation_error_bounded_by_next_sigma() {
        let a = Matrix::from_fn(6, 6, |i, j| 1.0 / (1.0 + i as f64 + j as f64));
        let svd = Svd::compute(&a).unwrap();
        for k in 1..6 {
            let err = svd.truncate(k).sub(&a).unwrap();
            // Spectral norm ≥ max entry; σ_{k+1} bounds the spectral norm of
            // the remainder, so the max entry must be ≤ σ_{k+1} (+ slack).
            let next = svd.sigma.get(k).copied().unwrap_or(0.0);
            assert!(err.norm_max() <= next + 1e-12, "k={k}");
        }
    }

    #[test]
    fn zero_matrix() {
        let a = Matrix::zeros(4, 3);
        let svd = Svd::compute(&a).unwrap();
        assert!(svd.sigma.iter().all(|&s| s == 0.0));
        assert_eq!(svd.rank(1e-10), 0);
    }

    /// Tall-slice one-sided Jacobi — what `Svd::compute` ran before the
    /// QR step — on the same Jacobi kernel: the oracle for QR-first.
    fn tall_jacobi(a: &Matrix) -> (Matrix, Vec<f64>) {
        let (m, n) = a.shape();
        let cols = a.transpose().as_slice().to_vec();
        let (u, sigma, _) = jacobi_svd(cols, m, n, MAX_SWEEPS).unwrap();
        (Matrix::from_vec(n, m, u).unwrap().transpose(), sigma)
    }

    fn seeded(m: usize, n: usize, seed: u64) -> Matrix {
        let mut s = seed | 1;
        Matrix::from_fn(m, n, |_, _| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        })
    }

    /// `max |UᵀU − I|` over the columns `keep` selects.
    fn gram_error(u: &Matrix, keep: &[usize]) -> f64 {
        let mut worst = 0.0_f64;
        for (x, &a) in keep.iter().enumerate() {
            for &b in &keep[x..] {
                let d = vector::dot(&u.col(a), &u.col(b));
                worst = worst.max((d - if a == b { 1.0 } else { 0.0 }).abs());
            }
        }
        worst
    }

    fn assert_matches_tall_jacobi(a: &Matrix, what: &str) {
        let (m, n) = a.shape();
        let svd = Svd::compute(a).unwrap();
        let (uj, sj) = tall_jacobi(a);
        let smax = sj[0];
        for (k, (&q, &j)) in svd.sigma.iter().zip(&sj).enumerate() {
            assert!(
                (q - j).abs() <= 1e-12 * smax,
                "{what} {m}x{n}: sigma[{k}] {q:e} vs {j:e}"
            );
        }
        // Rank at the projector's tolerance; the inputs keep every σ a
        // decade clear of the threshold so the comparison is not a coin toss.
        let thr = 1e-12 * smax;
        for &s in &sj {
            assert!(
                s > 10.0 * thr || s < 0.1 * thr,
                "{what} {m}x{n}: oracle sigma {s:e} sits on the rank threshold {thr:e}"
            );
        }
        let rank = svd.rank(1e-12);
        assert_eq!(
            rank,
            sj.iter().filter(|&&s| s > thr).count(),
            "{what} {m}x{n}: rank"
        );
        let live: Vec<usize> = (0..n).filter(|&k| svd.sigma[k] > 0.0).collect();
        let orth = gram_error(&svd.u, &live);
        assert!(orth <= 1e-13, "{what} {m}x{n}: UᵀU − I = {orth:e}");
        for k in (0..n).filter(|&k| svd.sigma[k] == 0.0) {
            assert!(
                svd.u.col(k).iter().all(|&x| x == 0.0),
                "{what}: null column {k} not zero"
            );
        }
        // Leading-rank subspaces: what the oracle's U_r keeps outside
        // span(U_r) of the QR-first result.
        let lead = svd.u.submatrix(0, m, 0, rank);
        let uj = uj.submatrix(0, m, 0, rank);
        let coeff = lead.transpose().matmul(&uj).unwrap();
        let resid = uj.sub(&lead.matmul(&coeff).unwrap()).unwrap().norm_max();
        assert!(resid <= 1e-9, "{what} {m}x{n}: subspace residual {resid:e}");
    }

    #[test]
    fn qr_first_matches_tall_slice_jacobi() {
        for (t, &(m, n)) in [(7, 7), (8, 7), (64, 9), (2500, 32), (7131, 8)]
            .iter()
            .enumerate()
        {
            let base = seeded(m, n, 0x9e37_79b9_7f4a_7c15 ^ (t as u64 + 1));
            assert_matches_tall_jacobi(&base, "random");

            // Column norms graded over fourteen decades (the projector
            // normalises its columns; a general caller need not).
            let grades = [1.0, 1e-3, 1e-6, 1e-9, 1e-14];
            let graded = Matrix::from_fn(m, n, |i, j| base[(i, j)] * grades[j % grades.len()]);
            assert_matches_tall_jacobi(&graded, "graded");

            let mut twin = base.clone();
            twin.set_col(n - 1, &base.col(1));
            assert_matches_tall_jacobi(&twin, "identical columns");

            let mut dead = base.clone();
            dead.set_col(n / 2, &vec![0.0; m]);
            assert_matches_tall_jacobi(&dead, "zero column");

            let mut tiny = base.clone();
            for i in (0..m).step_by(3) {
                tiny[(i, (i / 3) % n)] = 4.0e-310 * (1 + i % 5) as f64;
            }
            assert_matches_tall_jacobi(&tiny, "subnormal entries");

            // Zero rows, the first of them a pivot row (among the first
            // n); no more than leave the rank at n − 1, since two null
            // directions may underflow against each other un-orthogonalised.
            let mut rows = base.clone();
            let zeroed = if m >= n + 3 {
                vec![1, m / 2, m - 1]
            } else {
                vec![1]
            };
            for i in zeroed {
                rows.row_mut(i).fill(0.0);
            }
            assert_matches_tall_jacobi(&rows, "zero rows");
        }
    }

    #[test]
    fn non_convergence_reports_the_last_off_diagonal_measure() {
        // One sweep cannot orthogonalise a generic 6 × 4 input.
        let a = seeded(6, 4, 0x51);
        let err = thin_svd(a.transpose(), 1).unwrap_err();
        match err {
            LinalgError::NotConverged {
                method: "jacobi-svd",
                iterations: 1,
                residual,
            } => assert!(
                residual > 1e-14 && residual <= 1.0,
                "residual {residual:e} is not a cosine above the tolerance"
            ),
            other => panic!("unexpected error {other:?}"),
        }
        assert!(thin_svd(a.transpose(), MAX_SWEEPS).is_ok());
    }
}
